//! Registry-level guarantees of `mcn_sim::metrics`: every layer's paths
//! are unique, stable across `McnSystem` vs `McnRack` embeddings, and the
//! snapshot/diff/JSON machinery is deterministic on real traffic.

use mcn::{
    ComponentExt, EthernetCluster, Instrumented, McnConfig, McnRack, McnSystem, MetricSink,
    MetricsSnapshot, SystemConfig,
};
use mcn_mpi::{IperfClient, IperfReport, IperfServer};
use mcn_sim::fault::{FaultKind, FaultPlan};
use mcn_sim::SimTime;

const BYTES: u64 = 256 * 1024;

/// A 1-DIMM system running one iperf stream DIMM -> host to completion.
fn run_iperf_system(plan: Option<&FaultPlan>) -> McnSystem {
    let cfg = McnConfig::level(3);
    let sys_cfg = SystemConfig::default();
    let mut sys = match plan {
        Some(p) => McnSystem::with_faults(&sys_cfg, 1, cfg, p),
        None => McnSystem::new(&sys_cfg, 1, cfg),
    };
    let report = IperfReport::shared();
    sys.spawn_host(
        Box::new(IperfServer::new(5001, 1, SimTime::ZERO, report.clone())),
        0,
    );
    let dst = sys.host_rank_ip();
    sys.spawn_dimm(
        0,
        Box::new(IperfClient::new(dst, 5001, BYTES, IperfReport::shared())),
        1,
    );
    assert!(sys.run_until_procs_done(SimTime::from_secs(10)));
    sys
}

#[test]
fn paths_are_unique_and_stable_across_embeddings() {
    // `MetricsSnapshot::collect` panics on duplicate paths, so collecting
    // is itself the uniqueness assertion for each orchestrator shape.
    let sys = McnSystem::new(&SystemConfig::default(), 2, McnConfig::level(3));
    let sys_snap = MetricsSnapshot::collect(&sys);
    let rack = McnRack::new(&SystemConfig::default(), 1, 2, McnConfig::level(3));
    let rack_snap = MetricsSnapshot::collect(&rack);
    let cluster = EthernetCluster::new(&SystemConfig::default(), 2);
    MetricsSnapshot::collect(&cluster);

    // The embedding contract: a server inside a rack registers exactly
    // the standalone system's paths, shifted under `srv0.` — nothing
    // renamed, nothing dropped, nothing added.
    let sys_paths: Vec<&str> = sys_snap.iter().map(|(p, _)| p).collect();
    let embedded: Vec<&str> = rack_snap
        .iter()
        .filter_map(|(p, _)| p.strip_prefix("srv0."))
        .collect();
    assert_eq!(sys_paths, embedded, "srv0 subtree must mirror McnSystem");

    // The documented spine paths of the naming scheme.
    for path in [
        "now_ps",
        "host.cpu.busy_ps",
        "host.stack.frames_in",
        "host.stack.tcp.retransmits",
        "driver.ring_resets",
        "driver.ports_up",
        "dimm0.driver.crashes",
        "dimm1.stack.tcp.bytes_delivered",
        "dimm1.mem.ch0.reads",
        "engine.component_polls",
    ] {
        assert!(sys_snap.get(path).is_some(), "missing spine path {path}");
        assert!(
            rack_snap.get(&format!("srv0.{path}")).is_some(),
            "missing embedded spine path srv0.{path}"
        );
    }
    for path in [
        "rack.partitions",
        "switch.flooded",
        "nic0.irqs",
        "link0.down.bytes",
    ] {
        assert!(rack_snap.get(path).is_some(), "missing rack path {path}");
    }
}

#[test]
fn diff_and_rate_track_real_traffic() {
    let sys = run_iperf_system(None);
    let before = MetricsSnapshot::collect(&McnSystem::new(
        &SystemConfig::default(),
        1,
        McnConfig::level(3),
    ));
    let after = MetricsSnapshot::collect(&sys);
    let delta = after.diff(&before);

    // The whole stream is visible in the diff at every layer.
    assert_eq!(delta.get_u64("host.stack.tcp.bytes_delivered"), BYTES);
    assert!(delta.get_u64("dimm0.driver.tx_frames") > 0);
    assert!(delta.get_u64("driver.rx_frames") > 0);
    assert!(delta.get_u64("host.stack.frames_in") > 0);
    assert!(delta.get_u64("engine.advances") > 0);
    let elapsed = SimTime::from_ps(delta.get_u64("now_ps"));
    assert!(elapsed > SimTime::ZERO);

    // Rate-over-window: bytes/s over the run must equal bytes / elapsed.
    let rate = after.rate_per_sec(&before, elapsed);
    let bps = rate.get("host.stack.tcp.bytes_delivered").unwrap().as_f64();
    let expect = BYTES as f64 / elapsed.as_secs_f64();
    assert!(
        (bps - expect).abs() / expect < 1e-9,
        "rate {bps} != {expect}"
    );
}

#[test]
fn same_seed_fault_runs_render_identical_json() {
    let mut plan = FaultPlan::new(0x5EED);
    for comp in [
        McnSystem::sram_host_fault_component(0, 0),
        McnSystem::sram_dimm_fault_component(0, 0),
    ] {
        plan.rate(&comp, FaultKind::Drop, 0.01);
    }
    let a = MetricsSnapshot::collect(&run_iperf_system(Some(&plan))).to_json();
    let b = MetricsSnapshot::collect(&run_iperf_system(Some(&plan))).to_json();
    assert!(!a.is_empty());
    assert_eq!(a, b, "same-seed runs must serialize byte-identically");
}

#[test]
fn workload_layers_join_the_registry() {
    // Harness-side components (here the iperf report) absorb into the
    // same tree as the system, under a caller-chosen scope.
    let sys = McnSystem::new(&SystemConfig::default(), 1, McnConfig::level(3));
    let report = IperfReport::shared();
    let mut sink = MetricSink::new();
    sys.metrics(&mut sink);
    sink.absorb("iperf_server", &*report.lock());
    let snap = sink.finish();
    assert_eq!(snap.get_u64("iperf_server.goodput.bytes"), 0);
    assert_eq!(snap.get_u64("iperf_server.done"), 0);
    assert!(snap.get("driver.polls").is_some());
}
