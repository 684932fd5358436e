//! The multi-rack Clos datacenter end to end: a ≥64-server fabric under
//! a spine-loss outage must complete real cross-pod traffic and produce
//! **byte-identical** full-registry snapshots at 1, 2 and 4 threads,
//! with ECMP spreading flows over every live equal-cost path and the
//! hierarchical quantum domains doing their job (cross-pod barriers far
//! rarer than intra-rack windows).

use mcn::outage::{OutagePlan, Part};
use mcn::{
    ClosConfig, Datacenter, Instrumented, McnConfig, McnSystem, MetricSink, MetricsSnapshot,
    SystemConfig,
};
use mcn_mpi::{IperfClient, IperfReport, IperfServer};
use mcn_sim::SimTime;

/// Full-registry JSON of a component tree: the byte-identity witness.
fn snapshot(root: &dyn Instrumented) -> String {
    let mut sink = MetricSink::new();
    sink.absorb("root", root);
    sink.finish().to_json()
}

/// An 8-rack / 64-server datacenter (2 pods × 4 racks × 8 servers) with
/// cross-rack iperf traffic: every pod-0 rack streams into the matching
/// pod-1 rack (cross-pod, over the spines) and into its pod neighbour
/// (intra-pod, agg turnaround), so both fabric tiers carry real load.
fn iperf_datacenter(bytes: u64) -> Datacenter {
    let clos = ClosConfig {
        pods: 2,
        racks_per_pod: 4,
        servers_per_rack: 8,
        dimms_per_server: 1,
        aggs_per_pod: 2,
        spines: 2,
        ..ClosConfig::default()
    };
    let mut dc = Datacenter::new(&SystemConfig::default(), McnConfig::level(3), &clos);
    assert_eq!(dc.clos().servers(), 64);
    // One iperf sink per rack, two inbound streams each.
    for r in 0..8 {
        dc.spawn_host(
            r,
            0,
            Box::new(IperfServer::new(
                5001,
                2,
                SimTime::from_ms(1),
                IperfReport::shared(),
            )),
            0,
        );
    }
    for r in 0..4 {
        // Cross-pod partner (rack r+4) and intra-pod neighbour, both
        // directions so every rack sources and sinks.
        for (src, dst) in [
            (r, r + 4),
            (r + 4, r),
            (r, (r + 1) % 4),
            (r + 4, 4 + (r + 1) % 4),
        ] {
            dc.spawn_host(
                src,
                1 + dst % 4,
                Box::new(IperfClient::new(
                    McnSystem::nic_ip_in(dst, 0),
                    5001,
                    bytes,
                    IperfReport::shared(),
                )),
                1,
            );
        }
    }
    dc
}

#[test]
fn spine_loss_is_thread_count_invariant_at_64_servers() {
    // Spine 0 goes dark mid-transfer for 2 ms: in-flight frames die,
    // ECMP re-hashes the affected flows onto spine 1, TCP retransmits.
    let mut plan = OutagePlan::new(0xD0C);
    plan.down(Part::Spine(0), SimTime::from_us(300), SimTime::from_ms(2));

    let run = |threads: usize| {
        let mut dc = iperf_datacenter(96 * 1024);
        dc.set_outage_plan(&plan);
        let done = dc.run_parallel(SimTime::from_secs(10), threads);
        assert!(
            done,
            "datacenter stalled on {threads} thread(s) at {}",
            dc.now()
        );
        (dc.now(), snapshot(&dc))
    };

    let serial = run(1);
    assert_eq!(serial, run(2), "2-thread run diverged from serial");
    assert_eq!(serial, run(4), "4-thread run diverged from serial");

    // The outage and both fabric tiers must actually have been
    // exercised for the identity to mean anything.
    assert!(serial.1.contains("\"root.fabric.switch_downs\": 1"));
    assert!(!serial.1.contains("\"root.fabric.ecmp.routed\": 0"));
    assert!(!serial.1.contains("\"root.fabric.cross_pod\": 0"));
}

#[test]
fn hierarchical_quanta_make_cross_pod_barriers_rare() {
    let mut dc = iperf_datacenter(32 * 1024);
    assert!(
        dc.run_parallel(SimTime::from_secs(10), 2),
        "stalled at {}",
        dc.now()
    );
    let snap = MetricsSnapshot::collect(&dc);
    let barriers = snap.get_u64("sched.domain.cross_pod.barriers");
    let windows = snap.get_u64("sched.domain.intra_rack.windows");
    assert!(barriers > 0, "outer engine never synchronized");
    assert!(
        barriers < windows,
        "cross-pod barriers ({barriers}) should be strictly rarer than \
         intra-rack windows ({windows})"
    );
    // The two quanta really are different tiers.
    assert!(
        snap.get_u64("sched.domain.cross_pod.quantum_ps")
            > snap.get_u64("sched.domain.intra_rack.quantum_ps")
    );
}

#[test]
fn ecmp_spreads_flows_and_is_deterministic_across_threads() {
    // A smaller fabric, many distinct flows (different source ports):
    // every agg and spine path must carry traffic, with identical
    // per-path counts at 1, 2, 4 and 8 threads.
    let run = |threads: usize| {
        let clos = ClosConfig::default(); // 2 pods × 2 racks × 4 servers
        let mut dc = Datacenter::new(&SystemConfig::default(), McnConfig::level(3), &clos);
        for r in 0..4 {
            dc.spawn_host(
                r,
                0,
                Box::new(IperfServer::new(
                    5001,
                    3,
                    SimTime::from_ms(1),
                    IperfReport::shared(),
                )),
                0,
            );
        }
        // 12 flows: every rack streams to every other rack (each
        // connection gets its own ephemeral source port, so ECMP sees
        // distinct flows to hash).
        for src in 0..4usize {
            for dst in 0..4usize {
                if src != dst {
                    dc.spawn_host(
                        src,
                        1 + dst % 3,
                        Box::new(IperfClient::new(
                            McnSystem::nic_ip_in(dst, 0),
                            5001,
                            16 * 1024,
                            IperfReport::shared(),
                        )),
                        1,
                    );
                }
            }
        }
        assert!(
            dc.run_parallel(SimTime::from_secs(10), threads),
            "stalled at {}",
            dc.now()
        );
        let snap = MetricsSnapshot::collect(&dc);
        let paths: Vec<u64> = [
            "fabric.ecmp.path.pod0.agg0",
            "fabric.ecmp.path.pod0.agg1",
            "fabric.ecmp.path.pod1.agg0",
            "fabric.ecmp.path.pod1.agg1",
            "fabric.ecmp.path.spine0",
            "fabric.ecmp.path.spine1",
        ]
        .iter()
        .map(|k| snap.get_u64(k))
        .collect();
        (paths, snapshot(&dc))
    };

    let (paths, serial) = run(1);
    for (i, &n) in paths.iter().enumerate() {
        assert!(n > 0, "equal-cost path {i} carried no flows: {paths:?}");
    }
    for threads in [2, 4, 8] {
        let (p, snap) = run(threads);
        assert_eq!(
            paths, p,
            "per-path flow counts diverged at {threads} threads"
        );
        assert_eq!(serial, snap, "{threads}-thread snapshot diverged");
    }
}

#[test]
fn pod_scale_domain_outage_fells_aggs_and_rack_together() {
    // A correlated pod-0 power event: both aggs and rack 0 on one
    // breaker. Pod-0 racks lose fabric reachability until the heal;
    // rack 0's servers all reboot. Traffic from the surviving pod keeps
    // flowing and everything drains after the heal.
    let clos = ClosConfig::default();
    let mut dc = Datacenter::new(&SystemConfig::default(), McnConfig::level(3), &clos);
    let mut plan = OutagePlan::new(0xBAD);
    let members = [Part::Agg(0, 0), Part::Agg(0, 1), Part::Rack(0)];
    plan.define_domain("pod0.breaker", &members);
    plan.domain_crash("pod0.breaker", SimTime::from_us(150), SimTime::from_ms(3));
    dc.set_outage_plan(&plan);

    dc.spawn_host(
        3,
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
        1,
        1,
        Box::new(IperfClient::new(
            McnSystem::nic_ip_in(3, 0),
            5001,
            256 * 1024,
            IperfReport::shared(),
        )),
        1,
    );
    assert!(
        dc.run_parallel(SimTime::from_secs(10), 2),
        "stalled at {}",
        dc.now()
    );
    let snap = MetricsSnapshot::collect(&dc);
    assert_eq!(snap.get_u64("fabric.outage.domain.pod0.breaker.crashes"), 1);
    assert_eq!(snap.get_u64("fabric.outage.domain.pod0.breaker.heals"), 1);
    assert_eq!(
        snap.get_u64("fabric.switch_downs"),
        2,
        "both pod-0 aggs fell"
    );
    assert!(
        snap.get_u64("rack0.rack.node_reboots") > 0,
        "rack 0 servers rebooted"
    );
}
