//! Fast-forwarded memory-only steps are invisible.
//!
//! `McnSystem::fast_forward` runs time steps whose only due work is DRAM
//! commands, refreshes and line completions that finish no job, without
//! polling the host and DIMMs around them. Each test drives one
//! standalone server two ways: one event at a time
//! (`next_event`/`advance`, which never fast-forwards) and with
//! `run_until_procs_done` (which fast-forwards every memory-only step).
//! The full registries must be equal — every simulated figure and every
//! engine work counter — apart from `engine.fast_forwarded` itself,
//! which must show the fast path was taken.

use mcn::outage::{OutagePlan, Part};
use mcn::{ComponentExt, McnConfig, McnSystem, MetricsSnapshot, SystemConfig};
use mcn_mpi::apps::{IperfClient, IperfReport, IperfServer};
use mcn_mpi::placement::spawn_on_mcn;
use mcn_mpi::{CommPattern, WorkloadSpec};
use mcn_sim::SimTime;
use mcn_sweep::diff::RegistryDiff;
use mcn_sweep::scenarios::sweep_fault_plan;

const DEADLINE: SimTime = SimTime::from_secs(5);
const IPERF_PORT: u16 = 5201;

/// The reference drive: one `advance` per event, no fast-forward.
fn per_event(sys: &mut McnSystem) {
    while !sys.all_procs_done() {
        let t = sys.next_event().expect("live processes on an idle server");
        assert!(t <= DEADLINE, "per-event drive stalled at {}", sys.now());
        sys.advance(t);
    }
}

/// Drives two servers from `build` both ways, compares registries and
/// returns the fast-forwarded one.
fn assert_fast_forward_is_invisible(build: impl Fn() -> McnSystem) -> MetricsSnapshot {
    let mut slow = build();
    per_event(&mut slow);
    let mut fast = build();
    assert!(
        fast.run_until_procs_done(DEADLINE),
        "fast drive stalled at {}",
        fast.now()
    );
    let (a, b) = (
        MetricsSnapshot::collect(&slow),
        MetricsSnapshot::collect(&fast),
    );
    let diff = RegistryDiff::new(&a, &b, &["fast_forwarded"]);
    assert!(!diff.differs(), "registries differ:\n{}", diff.render());
    assert_eq!(a.get_u64("engine.fast_forwarded"), 0);
    assert!(
        b.get_u64("engine.fast_forwarded") > 0,
        "nothing was fast-forwarded"
    );
    b
}

/// Four DIMM→host iperf streams of `bytes` each.
fn spawn_iperf(sys: &mut McnSystem, bytes: u64) {
    let n = sys.dimms();
    sys.spawn_host(
        Box::new(IperfServer::new(
            IPERF_PORT,
            n,
            SimTime::ZERO,
            IperfReport::shared(),
        )),
        0,
    );
    let dst = sys.host_rank_ip();
    for d in 0..n {
        sys.spawn_dimm(
            d,
            Box::new(IperfClient::new(
                dst,
                IPERF_PORT,
                bytes,
                IperfReport::shared(),
            )),
            1,
        );
    }
}

#[test]
fn npb_cg_on_eight_dimms_matches_the_per_event_drive() {
    // The benchmark's npb_cg_d8: cg at mcn3, 8 host ranks and 3 ranks on
    // each of 8 DIMMs, 4 iterations over 1 MiB with 6 KiB messages.
    assert_fast_forward_is_invisible(|| {
        let mut sys = McnSystem::new(&SystemConfig::default(), 8, McnConfig::level(3));
        let mut spec = WorkloadSpec::by_name("cg").expect("cg is an NPB kernel");
        spec.iterations = 4;
        spec.mem_bytes_per_iter = (1 << 20) / 4;
        spec.comm = CommPattern::Irregular {
            fanout: 3,
            msg_bytes: 6 << 10,
        };
        spawn_on_mcn(&mut sys, spec, 8, 3, 3);
        sys
    });
}

#[test]
fn faulted_iperf_at_mcn1_matches_the_per_event_drive() {
    // The sweep's rate-fault plan: SRAM drops and bit flips on DIMM 0's
    // rings and lost ALERT_N edges (so the fallback poller runs); mcn1
    // has no DMA engine to stall.
    let reg = assert_fast_forward_is_invisible(|| {
        let mcn = McnConfig::level(1);
        let plan = sweep_fault_plan(11, mcn);
        let mut sys = McnSystem::with_faults(&SystemConfig::default(), 4, mcn, &plan);
        spawn_iperf(&mut sys, 256 << 10);
        sys
    });
    for path in [
        "driver.alerts_dropped",
        "driver.fallback_polls",
        "dimm0.driver.frames_dropped",
    ] {
        assert!(
            reg.get_u64(path) > 0,
            "{path} stayed 0: the plan did not bite"
        );
    }
}

#[test]
fn dimm_crash_mid_stream_matches_the_per_event_drive() {
    // DIMM 0 crashes while its stream runs and powers back on later: a
    // crashed DIMM stays frozen (it has no wakeup to fast-forward) and
    // catches up at its first poll after power-on.
    let reg = assert_fast_forward_is_invisible(|| {
        let mut plan = OutagePlan::new(5);
        plan.down(
            Part::Dimm(0, 0),
            SimTime::from_us(300),
            SimTime::from_us(400),
        );
        let mut sys = McnSystem::new(&SystemConfig::default(), 4, McnConfig::level(3));
        sys.set_outage_plan(&plan);
        spawn_iperf(&mut sys, 1 << 20);
        sys
    });
    assert_eq!(reg.get_u64("dimm0.driver.crashes"), 1);
    assert_eq!(reg.get_u64("dimm0.driver.reboots"), 1);
    assert!(
        reg.get_u64("now_ps") > SimTime::from_us(700).as_ps(),
        "stream outlived the outage"
    );
}
