//! End-to-end runs of the distributed substrate on both systems: the same
//! unmodified programs on an MCN server and on the Ethernet baseline —
//! the application transparency the paper claims.

use mcn::{ComponentExt, EthernetCluster, McnConfig, McnSystem, SystemConfig};
use mcn_mpi::placement::{spawn_on_cluster, spawn_on_mcn};
use mcn_mpi::{IperfClient, IperfReport, IperfServer, PingReport, Pinger, WorkloadSpec};
use mcn_sim::SimTime;

fn small_spec() -> WorkloadSpec {
    WorkloadSpec {
        name: "test",
        suite: "test",
        iterations: 2,
        mem_bytes_per_iter: 1 << 20,
        read_frac: 0.8,
        random_access: false,
        compute_ns_per_iter: 50_000,
        comm: mcn_mpi::CommPattern::AllReduce { elems: 64 },
    }
}

#[test]
fn allreduce_workload_on_mcn_server() {
    let mut sys = McnSystem::new(&SystemConfig::default(), 2, McnConfig::level(3));
    let report = spawn_on_mcn(&mut sys, small_spec(), 2, 1, 42);
    assert!(
        sys.run_until_procs_done(SimTime::from_ms(200)),
        "workload must finish\n{}",
        sys.stall_report("allreduce on MCN stalled")
    );
    let r = report.lock();
    assert!(r.verified, "allreduce numeric verification failed");
    assert!(r.completion().is_some());
}

#[test]
fn allreduce_workload_on_cluster() {
    let mut c = EthernetCluster::new(&SystemConfig::default(), 3);
    let report = spawn_on_cluster(&mut c, small_spec(), 2, 42);
    assert!(
        c.run_until_procs_done(SimTime::from_ms(200)),
        "workload must finish\n{}",
        c.stall_report("allreduce on cluster stalled")
    );
    let r = report.lock();
    assert!(r.verified);
    assert!(r.completion().is_some());
}

#[test]
fn scale_up_loopback_workload() {
    // Fig. 11 baseline: 0 DIMMs, ranks over loopback.
    let mut sys = McnSystem::new(&SystemConfig::default(), 0, McnConfig::level(0));
    let report = spawn_on_mcn(&mut sys, small_spec(), 4, 0, 7);
    assert!(
        sys.run_until_procs_done(SimTime::from_ms(200)),
        "loopback workload must finish\n{}",
        sys.stall_report("loopback workload stalled")
    );
    assert!(report.lock().verified);
}

#[test]
fn alltoall_workload_both_systems() {
    let spec = WorkloadSpec {
        comm: mcn_mpi::CommPattern::AllToAll {
            total_bytes: 64 * 1024,
        },
        ..small_spec()
    };
    let mut sys = McnSystem::new(&SystemConfig::default(), 2, McnConfig::level(5));
    let report = spawn_on_mcn(&mut sys, spec, 1, 1, 3);
    assert!(
        sys.run_until_procs_done(SimTime::from_ms(500)),
        "{}",
        sys.stall_report("alltoall on MCN stalled")
    );
    assert!(report.lock().verified, "alltoall payloads corrupted on MCN");

    let mut c = EthernetCluster::new(&SystemConfig::default(), 2);
    let report = spawn_on_cluster(&mut c, spec, 2, 3);
    assert!(
        c.run_until_procs_done(SimTime::from_ms(500)),
        "{}",
        c.stall_report("alltoall on cluster stalled")
    );
    assert!(
        report.lock().verified,
        "alltoall payloads corrupted on cluster"
    );
}

#[test]
fn irregular_and_neighbor_workloads_on_mcn() {
    for comm in [
        mcn_mpi::CommPattern::Neighbor { msg_bytes: 4096 },
        mcn_mpi::CommPattern::Irregular {
            fanout: 2,
            msg_bytes: 2048,
        },
    ] {
        let spec = WorkloadSpec {
            comm,
            ..small_spec()
        };
        let mut sys = McnSystem::new(&SystemConfig::default(), 2, McnConfig::level(1));
        let report = spawn_on_mcn(&mut sys, spec, 1, 1, 11);
        assert!(
            sys.run_until_procs_done(SimTime::from_ms(500)),
            "{comm:?} stalled\n{}",
            sys.stall_report("irregular/neighbor workload stalled")
        );
        assert!(report.lock().completion().is_some());
    }
}

#[test]
fn iperf_host_to_mcn() {
    // One client on a DIMM streaming to a server on the host (host-mcn).
    let mut sys = McnSystem::new(&SystemConfig::default(), 1, McnConfig::level(0));
    let srv = IperfReport::shared();
    let cli = IperfReport::shared();
    sys.spawn_host(
        Box::new(IperfServer::new(5001, 1, SimTime::from_ms(1), srv.clone())),
        0,
    );
    let host_ip = sys.host_rank_ip();
    sys.spawn_dimm(
        0,
        Box::new(IperfClient::new(host_ip, 5001, 4 << 20, cli.clone())),
        1,
    );
    assert!(
        sys.run_until_procs_done(SimTime::from_secs(2)),
        "iperf must finish\n{}",
        sys.stall_report("iperf host-to-mcn stalled")
    );
    let s = srv.lock();
    assert!(s.done);
    assert!(s.meter.bytes() > 0, "server must have measured traffic");
    let gbps = s.meter.gbps();
    assert!(gbps > 0.5, "mcn0 iperf should be at least ~gigabit: {gbps}");
}

#[test]
fn ping_host_to_mcn_vs_cluster() {
    // MCN RTT must be well below the 10GbE cluster RTT (Fig. 8b headline).
    let mut sys = McnSystem::new(&SystemConfig::default(), 1, McnConfig::level(0));
    let rep = PingReport::shared();
    let dimm_ip = sys.dimm_ip(0);
    sys.spawn_host(Box::new(Pinger::new(dimm_ip, 56, 10, 1, rep.clone())), 0);
    assert!(sys.run_until_procs_done(SimTime::from_ms(50)));
    let mcn_rtt = rep.lock().rtts.mean().unwrap();

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
    assert!(c.run_until_procs_done(SimTime::from_ms(50)));
    let eth_rtt = rep.lock().rtts.mean().unwrap();

    assert!(
        mcn_rtt < eth_rtt,
        "MCN RTT {mcn_rtt} should beat 10GbE RTT {eth_rtt}"
    );
}
