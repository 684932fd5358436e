//! Cross-crate integration tests asserting the *directions* of the paper's
//! headline results at test-friendly scales (the full-size numbers come
//! from the paper sweep's cells, which the `fig*` binaries render).

use mcn::{ComponentExt, EthernetCluster, McnConfig, McnSystem, SystemConfig};
use mcn_mpi::placement::spawn_on_mcn;
use mcn_mpi::{IperfClient, IperfReport, IperfServer, PingReport, Pinger, WorkloadSpec};
use mcn_sim::fault::{FaultKind, FaultPlan};
use mcn_sim::SimTime;

const BYTES: u64 = 1 << 20;

/// Aggregate iperf goodput of an MCN server with `dimms` clients at `level`.
fn mcn_iperf(level: u32, dimms: usize) -> f64 {
    let mut sys = McnSystem::new(&SystemConfig::default(), dimms, McnConfig::level(level));
    let srv = IperfReport::shared();
    sys.spawn_host(
        Box::new(IperfServer::new(
            5001,
            dimms,
            SimTime::from_ms(1),
            srv.clone(),
        )),
        0,
    );
    let dst = sys.host_rank_ip();
    for d in 0..dimms {
        sys.spawn_dimm(
            d,
            Box::new(IperfClient::new(dst, 5001, BYTES, IperfReport::shared())),
            1,
        );
    }
    assert!(
        sys.run_until_procs_done(SimTime::from_secs(5)),
        "iperf mcn{level} stalled at {}",
        sys.now()
    );
    let g = srv.lock().meter.gbps();
    g
}

fn eth_iperf(clients: usize) -> f64 {
    let mut c = EthernetCluster::new(&SystemConfig::default(), clients + 1);
    let srv = IperfReport::shared();
    c.spawn(
        0,
        Box::new(IperfServer::new(
            5001,
            clients,
            SimTime::from_ms(1),
            srv.clone(),
        )),
        0,
    );
    for i in 0..clients {
        c.spawn(
            i + 1,
            Box::new(IperfClient::new(
                EthernetCluster::ip_of(0),
                5001,
                BYTES,
                IperfReport::shared(),
            )),
            1,
        );
    }
    assert!(c.run_until_procs_done(SimTime::from_secs(5)));
    let g = srv.lock().meter.gbps();
    g
}

#[test]
fn optimised_mcn_beats_10gbe_bandwidth() {
    // Fig 8(a) headline: the optimised MCN far exceeds 10GbE; even the
    // 2-client miniature should clear the wire rate comfortably at mcn5.
    let eth = eth_iperf(2);
    let mcn5 = mcn_iperf(5, 2);
    assert!(
        mcn5 > 1.5 * eth,
        "mcn5 ({mcn5:.2} Gbps) should dominate 10GbE ({eth:.2} Gbps)"
    );
}

#[test]
fn optimisation_levels_are_ordered() {
    // Monotone gains across the big steps of Table I.
    let g0 = mcn_iperf(0, 2);
    let g3 = mcn_iperf(3, 2);
    let g5 = mcn_iperf(5, 2);
    assert!(
        g3 > 1.3 * g0,
        "jumbo MTU should be a large gain: {g0:.2} -> {g3:.2}"
    );
    assert!(
        g5 >= g3 * 0.95,
        "mcn5 should not regress: {g3:.2} -> {g5:.2}"
    );
}

#[test]
fn mcn_ping_latency_beats_10gbe() {
    // Fig 8(b): "MCN significantly reduces the latency between the nodes".
    let mut c = EthernetCluster::new(&SystemConfig::default(), 2);
    let rep = PingReport::shared();
    c.spawn(
        0,
        Box::new(Pinger::new(
            EthernetCluster::ip_of(1),
            56,
            10,
            1,
            rep.clone(),
        )),
        1,
    );
    assert!(c.run_until_procs_done(SimTime::from_ms(100)));
    let eth_rtt = rep.lock().rtts.mean().unwrap();

    for level in [0u32, 1, 5] {
        let mut sys = McnSystem::new(&SystemConfig::default(), 1, McnConfig::level(level));
        let rep = PingReport::shared();
        let dst = sys.dimm_ip(0);
        sys.spawn_host(Box::new(Pinger::new(dst, 56, 10, 1, rep.clone())), 0);
        assert!(sys.run_until_procs_done(SimTime::from_ms(100)));
        let rtt = rep.lock().rtts.mean().unwrap();
        assert!(
            rtt.as_ns_f64() < 0.6 * eth_rtt.as_ns_f64(),
            "mcn{level} RTT {rtt} should be well below 10GbE {eth_rtt}"
        );
    }
}

#[test]
fn aggregate_bandwidth_scales_with_dimms() {
    // Fig 9 mechanism: each DIMM brings private local channels.
    let spec = WorkloadSpec {
        name: "bwtest",
        suite: "test",
        iterations: 2,
        mem_bytes_per_iter: 48 << 20,
        read_frac: 0.8,
        random_access: false,
        compute_ns_per_iter: 10_000,
        comm: mcn_mpi::CommPattern::AllReduce { elems: 8 },
    };
    let run = |dimms: usize| -> f64 {
        let mut sys = McnSystem::new(&SystemConfig::default(), dimms, McnConfig::level(3));
        let report = spawn_on_mcn(&mut sys, spec, 4, if dimms > 0 { 3 } else { 0 }, 1);
        assert!(sys.run_until_procs_done(SimTime::from_secs(20)));
        let done = report.lock().completion().unwrap();
        let bytes: u64 = sys.host.mem.total_bytes()
            + (0..dimms)
                .map(|d| sys.dimm(d).node.mem.total_bytes())
                .sum::<u64>();
        assert!(report.lock().verified);
        bytes as f64 / done.as_secs_f64()
    };
    let conv = run(0);
    let two = run(2);
    let four = run(4);
    assert!(
        two > 1.2 * conv,
        "2 DIMMs: {:.1} vs {:.1} GB/s",
        two / 1e9,
        conv / 1e9
    );
    assert!(
        four > two,
        "4 DIMMs {:.1} should beat 2 {:.1}",
        four / 1e9,
        two / 1e9
    );
}

#[test]
fn whole_system_runs_are_deterministic() {
    let run = || {
        let g = mcn_iperf(2, 2);
        let mut sys = McnSystem::new(&SystemConfig::default(), 2, McnConfig::level(2));
        let rep = PingReport::shared();
        let dst = sys.dimm_ip(1);
        sys.spawn_host(Box::new(Pinger::new(dst, 128, 5, 9, rep.clone())), 2);
        assert!(sys.run_until_procs_done(SimTime::from_ms(50)));
        let rtt = rep.lock().rtts.mean().unwrap();
        (g.to_bits(), rtt)
    };
    assert_eq!(run(), run(), "same seed, same wiring => identical results");
}

/// Every observable counter of a system in one string, for byte-exact
/// golden-trace comparison across runs.
fn trace_snapshot(sys: &McnSystem) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    writeln!(s, "now={}", sys.now()).unwrap();
    writeln!(s, "hdrv={:?}", sys.hdrv.stats).unwrap();
    writeln!(
        s,
        "host: busy={:?} mem_bytes={} tcp={:?} frames_in={}",
        sys.host.cpus.total_busy(),
        sys.host.mem.total_bytes(),
        sys.host.stack.tcp_totals(),
        sys.host.stack.stats.frames_in.get(),
    )
    .unwrap();
    for d in 0..sys.dimms() {
        let dimm = sys.dimm(d);
        writeln!(
            s,
            "dimm{d}: busy={:?} mem_bytes={} tcp={:?} frames_in={}",
            dimm.node.cpus.total_busy(),
            dimm.node.mem.total_bytes(),
            dimm.node.stack.tcp_totals(),
            dimm.node.stack.stats.frames_in.get(),
        )
        .unwrap();
    }
    s
}

#[test]
fn golden_trace_is_reproducible_under_faults() {
    // The engine refactor must not cost reproducibility: the dirty-list
    // order and the wakeup index are deterministic, so a fig9-style mixed
    // workload (iperf streams + an MPI allreduce) under an active fault
    // plan must produce byte-identical counter traces and the same final
    // simulated time on every run.
    let run = || {
        let mut plan = FaultPlan::new(0xC0FFEE);
        plan.rate(
            &McnSystem::sram_host_fault_component(0, 0),
            FaultKind::Drop,
            0.02,
        );
        plan.rate(&McnSystem::alert_fault_component(0), FaultKind::Drop, 0.10);
        plan.rate(&McnSystem::dma_fault_component(0), FaultKind::Stall, 0.01);
        let mut sys =
            McnSystem::with_faults(&SystemConfig::default(), 2, McnConfig::level(3), &plan);

        // Phase 1: iperf from both DIMMs into the host.
        let srv = IperfReport::shared();
        sys.spawn_host(
            Box::new(IperfServer::new(5001, 2, SimTime::from_ms(1), srv.clone())),
            0,
        );
        let dst = sys.host_rank_ip();
        for d in 0..2 {
            sys.spawn_dimm(
                d,
                Box::new(IperfClient::new(
                    dst,
                    5001,
                    256 << 10,
                    IperfReport::shared(),
                )),
                1,
            );
        }
        assert!(
            sys.run_until_procs_done(SimTime::from_secs(5)),
            "golden iperf stalled\n{}",
            sys.stall_report("golden iperf")
        );

        // Phase 2: a small MPI allreduce across host + DIMM ranks.
        let spec = WorkloadSpec {
            name: "golden",
            suite: "test",
            iterations: 2,
            mem_bytes_per_iter: 4 << 20,
            read_frac: 0.8,
            random_access: false,
            compute_ns_per_iter: 5_000,
            comm: mcn_mpi::CommPattern::AllReduce { elems: 16 },
        };
        let report = spawn_on_mcn(&mut sys, spec, 2, 1, 7);
        assert!(
            sys.run_until_procs_done(SimTime::from_secs(20)),
            "golden allreduce stalled\n{}",
            sys.stall_report("golden allreduce")
        );
        assert!(report.lock().verified, "allreduce must verify");

        trace_snapshot(&sys)
    };
    let a = run();
    let b = run();
    assert_eq!(
        a, b,
        "same seed and wiring must give a byte-identical trace"
    );
}

#[test]
fn energy_model_tracks_runtime_and_hardware() {
    // Fig 10 mechanism: an MCN server has no NIC/switch power and mobile
    // cores; at equal core counts and equal elapsed time its power floor
    // is lower than the cluster's.
    let p = mcn_energy::PowerParams::default();
    let sys = McnSystem::new(&SystemConfig::default(), 2, McnConfig::level(3));
    let c = EthernetCluster::new(&SystemConfig::default(), 2);
    let t = SimTime::from_ms(10);
    let e_mcn = mcn_energy::mcn_system_energy(&p, &sys, t);
    let e_cl = mcn_energy::cluster_energy(&p, &c, t);
    assert!(
        e_mcn.total() < e_cl.total(),
        "idle floor: MCN {} vs cluster {}",
        e_mcn,
        e_cl
    );
}
