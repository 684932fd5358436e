//! Determinism contract of the quantum-synchronized parallel engine:
//! for the same seed and workload, `run_parallel` with *any* thread
//! count must produce byte-identical results — the same final
//! [`SimTime`] and the same full-registry [`MetricsSnapshot`] JSON,
//! down to the last counter.
//!
//! The windowed scheduler promises this by construction (frames carry
//! exact timestamps, the barrier mailbox merges in `(time, shard)`
//! order, and worker threads never share mutable state), but the
//! promise is only worth anything under fire. These tests replay the
//! nastiest workloads the repo has — hard outages from an
//! [`OutagePlan`] (DIMM crash, switch partition-and-heal), seeded
//! transient faults from a [`FaultPlan`] (frame loss, bit flips,
//! dropped ALERT_N edges, stalled DMA), and impaired 10GbE uplinks —
//! and diff the snapshots of 1-, 2-, 4- and 8-thread runs.

use mcn::outage::{OutagePlan, Part};
use mcn::{
    ComponentExt, EthernetCluster, Instrumented, McnConfig, McnRack, MetricSink, SystemConfig,
};
use mcn_mpi::{IperfClient, IperfReport, IperfServer};
use mcn_sim::fault::{FaultKind, FaultPlan};
use mcn_sim::SimTime;

/// Full-registry JSON of a component tree: the byte-identity witness.
fn snapshot(root: &dyn Instrumented) -> String {
    let mut sink = MetricSink::new();
    sink.absorb("root", root);
    sink.finish().to_json()
}

/// Builds a 2x2 rack with cross-server iperf traffic: one server process
/// per host, each DIMM streaming into its own host, plus one stream from
/// server 0's DIMM 0 into server 1's host (so the ToR switch carries
/// real load while the chaos hits).
fn iperf_rack(cfg: McnConfig, plan: &FaultPlan) -> McnRack {
    let mut rack = McnRack::with_faults(&SystemConfig::default(), 2, 2, cfg, plan);
    rack.spawn_host(
        0,
        Box::new(IperfServer::new(
            5001,
            2,
            SimTime::from_ms(1),
            IperfReport::shared(),
        )),
        0,
    );
    rack.spawn_host(
        1,
        Box::new(IperfServer::new(
            5001,
            3,
            SimTime::from_ms(1),
            IperfReport::shared(),
        )),
        0,
    );
    for s in 0..2 {
        let dst = rack.server(s).host_rank_ip();
        for d in 0..2 {
            rack.spawn_dimm(
                s,
                d,
                Box::new(IperfClient::new(
                    dst,
                    5001,
                    512 * 1024,
                    IperfReport::shared(),
                )),
                1,
            );
        }
    }
    let remote = rack.server(1).host_rank_ip();
    rack.spawn_dimm(
        0,
        0,
        Box::new(IperfClient::new(
            remote,
            5001,
            512 * 1024,
            IperfReport::shared(),
        )),
        2,
    );
    rack
}

#[test]
fn rack_chaos_mix_is_thread_count_invariant() {
    // Hard outages mid-stream: server 1's DIMM 0 crashes and reboots,
    // and the ToR switch partitions the two servers for 2 ms while the
    // cross-server stream is in flight.
    let mut plan = OutagePlan::new(0xC0FFEE);
    plan.down(Part::Dimm(1, 0), SimTime::from_us(800), SimTime::from_ms(5));
    plan.partition(
        SimTime::from_ms(1),
        vec![vec![0], vec![1]],
        SimTime::from_ms(3),
    );

    let run = |threads: usize| {
        let mut rack = iperf_rack(McnConfig::level(3), &FaultPlan::default());
        rack.set_outage_plan(&plan);
        let done = rack.run_parallel(SimTime::from_secs(10), threads);
        assert!(
            done,
            "chaos mix stalled on {threads} thread(s) at {}\n{}",
            rack.now(),
            rack.stall_report("parallel chaos stalled")
        );
        (rack.now(), snapshot(&rack))
    };

    let serial = run(1);
    assert_eq!(serial, run(2), "2-thread run diverged from serial");
    assert_eq!(serial, run(4), "4-thread run diverged from serial");
    assert_eq!(serial, run(8), "8-thread run diverged from serial");
    // The chaos must actually have happened for the comparison to mean
    // anything.
    assert!(serial.1.contains("\"root.rack.partitions\": 1"));
    assert!(serial.1.contains("crashes\": 1"));
}

#[test]
fn rack_fault_plan_is_thread_count_invariant() {
    // Seeded transient faults on server 0's data path: frame loss and
    // ECC-escape corruption on both SRAM ring directions, dropped
    // ALERT_N edges, stalled MCN-DMA transfers. Checksums stay on so
    // the corruption is detected (and retransmitted), not absorbed.
    let cfg = McnConfig {
        checksum_bypass: false,
        ..McnConfig::level(3)
    };
    let mut plan = FaultPlan::new(0xFAB);
    for comp in [
        mcn::McnSystem::sram_host_fault_component(0, 0),
        mcn::McnSystem::sram_dimm_fault_component(0, 0),
    ] {
        plan.rate(&comp, FaultKind::Drop, 0.01);
        plan.rate(&comp, FaultKind::BitFlip, 0.005);
    }
    plan.rate(
        &mcn::McnSystem::alert_fault_component(0),
        FaultKind::Drop,
        0.1,
    );
    plan.rate(
        &mcn::McnSystem::dma_fault_component(0),
        FaultKind::Stall,
        0.02,
    );

    let run = |threads: usize| {
        let mut rack = iperf_rack(cfg, &plan);
        // Generous sim-time budget: 25% dropped alerts plus stalled DMA
        // can push TCP into long RTO backoff; idle waits are cheap.
        let done = rack.run_parallel(SimTime::from_secs(120), threads);
        assert!(
            done,
            "faulted run stalled on {threads} thread(s) at {}\n{}",
            rack.now(),
            rack.stall_report("parallel fault run stalled")
        );
        (rack.now(), snapshot(&rack))
    };

    let serial = run(1);
    assert_eq!(serial, run(2), "2-thread run diverged from serial");
}

#[test]
fn cluster_with_impaired_uplink_is_thread_count_invariant() {
    // The 10GbE baseline under the same contract: three nodes, iperf
    // fan-in to node 0, with node 1's uplink dropping and corrupting
    // frames (seeded), so TCP loss recovery runs on every path.
    let run = |threads: usize| {
        let mut c = EthernetCluster::new(&SystemConfig::default(), 3);
        c.impair_uplink(1, 0.02, 0.01, 0x5EED);
        let srv = IperfReport::shared();
        c.spawn(
            0,
            Box::new(IperfServer::new(5001, 2, SimTime::from_ms(1), srv)),
            0,
        );
        for i in 1..3 {
            c.spawn(
                i,
                Box::new(IperfClient::new(
                    EthernetCluster::ip_of(0),
                    5001,
                    256 * 1024,
                    IperfReport::shared(),
                )),
                1,
            );
        }
        let done = c.run_parallel(SimTime::from_secs(10), threads);
        assert!(
            done,
            "cluster iperf stalled on {threads} thread(s) at {}\n{}",
            c.now(),
            c.stall_report("parallel cluster stalled")
        );
        (c.now(), snapshot(&c))
    };

    let serial = run(1);
    assert_eq!(serial, run(2), "2-thread run diverged from serial");
    assert_eq!(serial, run(3), "3-thread run diverged from serial");
}

#[test]
fn deadline_runs_agree_with_component_trait_driver() {
    // `run_parallel_until` on N threads must land exactly where the
    // serial Component::advance path (run_until) lands: same clock,
    // same simulation counters. Only the scheduler's own bookkeeping
    // (`sched.windows`/`sched.messages`) may differ, because the trait
    // driver issues many small drives where `run_parallel_until` issues
    // one big one — so those lines are excluded from the diff.
    let build = || iperf_rack(McnConfig::level(3), &FaultPlan::default());
    let sim_lines = |rack: &McnRack| {
        snapshot(rack)
            .lines()
            .filter(|l| !l.contains("\"root.sched."))
            .map(str::to_owned)
            .collect::<Vec<_>>()
    };

    let mut via_trait = build();
    via_trait.run_until(SimTime::from_ms(2));

    let mut via_parallel = build();
    via_parallel.run_parallel_until(SimTime::from_ms(2), 2);

    assert_eq!(via_trait.now(), via_parallel.now());
    assert_eq!(
        sim_lines(&via_trait),
        sim_lines(&via_parallel),
        "trait-driven and parallel deadline runs diverged"
    );
}

#[test]
fn datacenter_chaos_mix_is_thread_count_invariant() {
    // The same contract one level up: a 2-pod Clos fabric with
    // cross-pod iperf streams, an agg switch loss, a rack-scale power
    // event and seeded SRAM frame loss on every server — byte-identical
    // at 1, 2, 4 and 8 outer threads.
    use mcn::ClosConfig;
    use mcn::{Datacenter, McnSystem};

    let mut faults = FaultPlan::new(0xDC0);
    faults.rate(
        &mcn::McnSystem::sram_host_fault_component(0, 0),
        FaultKind::Drop,
        0.01,
    );
    let mut plan = OutagePlan::new(0xDC1);
    plan.down(Part::Agg(0, 0), SimTime::from_us(200), SimTime::from_ms(1));
    plan.down(Part::Rack(3), SimTime::from_us(400), SimTime::from_ms(1));

    let run = |threads: usize| {
        let clos = ClosConfig {
            servers_per_rack: 2,
            ..ClosConfig::default()
        };
        let mut dc = Datacenter::with_faults(
            &SystemConfig::default(),
            McnConfig::level(3),
            &clos,
            &faults,
        );
        dc.set_outage_plan(&plan);
        for r in 0..2 {
            dc.spawn_host(
                r,
                0,
                Box::new(IperfServer::new(
                    5001,
                    1,
                    SimTime::from_ms(1),
                    IperfReport::shared(),
                )),
                0,
            );
            dc.spawn_host(
                r + 2,
                1,
                Box::new(IperfClient::new(
                    McnSystem::nic_ip_in(r, 0),
                    5001,
                    128 * 1024,
                    IperfReport::shared(),
                )),
                1,
            );
        }
        let done = dc.run_parallel(SimTime::from_secs(30), threads);
        assert!(
            done,
            "datacenter chaos stalled on {threads} thread(s) at {}",
            dc.now()
        );
        (dc.now(), snapshot(&dc))
    };

    let serial = run(1);
    assert_eq!(serial, run(2), "2-thread run diverged from serial");
    assert_eq!(serial, run(4), "4-thread run diverged from serial");
    assert_eq!(serial, run(8), "8-thread run diverged from serial");
    assert!(serial.1.contains("\"root.fabric.switch_downs\": 1"));
    assert!(serial.1.contains("\"root.rack3.rack.node_reboots\": 2"));
}

#[test]
fn rack_results_do_not_depend_on_how_the_caller_slices_the_drive() {
    // The serving bench's riser-domain crash, shortened: the same rack
    // driven to 12 ms in one call and in 37 µs slices must end with the
    // same registry. Only the scheduler's own window accounting
    // (`sched.*`) may differ, since every call closes a window. (The
    // datacenter does not have this property yet; see DESIGN.md §4e.)
    use mcn_sweep::scenarios::{kv_rack_workload, KvRackParams};
    let params = KvRackParams {
        reqs_per_client: 60,
        ..KvRackParams::default_bench()
    };
    let end = SimTime::from_ms(12);
    let run = |slice: SimTime| {
        let (mut rack, report) = kv_rack_workload(&params);
        while rack.now() < end {
            let next = (rack.now() + slice).min(end);
            rack.run_parallel_until(next, 1);
        }
        let mut sink = MetricSink::new();
        sink.absorb("rack", &rack);
        sink.absorb("serve", &*report.lock());
        let json = sink.finish().to_json();
        let kept: Vec<&str> = json
            .lines()
            .filter(|l| !l.starts_with("  \"rack.sched."))
            .collect();
        kept.join("\n")
    };
    let whole = run(end);
    assert!(
        whole.contains("\"rack.rack.outage.domain.riser0.crashes\": 1,"),
        "the domain crash must land inside the run"
    );
    assert_eq!(
        whole,
        run(SimTime::from_us(37)),
        "slicing moved a simulated number"
    );
}
