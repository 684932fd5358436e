//! Datacenter bench-smoke: a 16-server, 2-pod Clos fabric serving two
//! memcached-style KV fleets at once — one **intra-rack** (clients and
//! server share rack 0, traffic never leaves the ToR) and one
//! **cross-pod** (rack-0 clients hitting a rack-3 server over
//! agg → spine → agg) — with a spine loss mid-run, so ECMP re-hashing
//! and TCP recovery are part of the measurement, not an afterthought.
//!
//! The split quantifies what the topology costs: the same request path,
//! measured once inside a rack and once across the fabric, reported as
//! p50/p99 per tier plus the cross-pod premium. ECMP per-path counters
//! report how the flow hash spread load over the equal-cost switches.
//!
//! The shared smoke driver ([`mcn_bench::smoke`]) runs it on one worker
//! and on `--threads N` (default 2) and exits nonzero unless the full
//! registry (datacenter and both fleets) matches byte for byte. The
//! other hard gates: both fleets must drain with the accounting identity
//! ([`mcn_serve::ServeReport::check_accounting`]); `fabric.ecmp.routed`
//! must be nonzero and equal the sum of the per-path counters
//! ([`mcn::Datacenter::check_ecmp`]); the spine outage must have fired
//! exactly once; and the hierarchical quantum domains must show
//! `sched.domain.cross_pod.barriers` nonzero yet strictly fewer than
//! `sched.domain.intra_rack.windows`.
//!
//! Writes `BENCH_dc.json` into the working directory.

use mcn::MetricSink;
use mcn_bench::smoke::{fail, Smoke};
use mcn_sim::SimTime;
use mcn_sweep::scenarios::{kv_dc_workload, KvDcParams};

const CLIENTS_PER_FLEET: u64 = 3;
const SLO: SimTime = SimTime::from_us(500);
const DEADLINE: SimTime = SimTime::from_ms(80);
/// When spine 0 goes dark.
const CRASH_AT: SimTime = SimTime::from_ms(2);
/// How long it stays down (flows re-hash onto spine 1 meanwhile).
const DOWN_FOR: SimTime = SimTime::from_ms(2);

fn main() {
    let run = Smoke {
        file: "BENCH_dc.json",
        // `KvDcParams::default_bench()` IS this benchmark's historical
        // configuration; the constants above restate it for the keys.
        build: || {
            let params = KvDcParams::default_bench();
            debug_assert_eq!(params.spine_outage, Some((CRASH_AT, DOWN_FOR)));
            debug_assert_eq!(params.slo, SLO);
            debug_assert_eq!(params.clients_per_fleet, CLIENTS_PER_FLEET);
            kv_dc_workload(&params)
        },
        // The servers are daemons, so the engine quiesces at the deadline
        // rather than completing.
        drive: |(dc, _, _), threads| {
            dc.run_parallel(DEADLINE, threads);
        },
        registry: |(dc, intra, cross), sink| {
            sink.absorb("dc", dc);
            sink.absorb("serve.intra", &*intra.lock());
            sink.absorb("serve.cross", &*cross.lock());
        },
        now: |(dc, _, _)| dc.now(),
    }
    .run();
    let (dc, intra, cross) = &run.workload;
    let tree = &run.registry;

    // Both fleets must have drained, with no silent request loss.
    let [(intra_p50, intra_p99), (cross_p50, cross_p99)] = [("intra", intra), ("cross", cross)]
        .map(|(name, report)| {
            let rep = report.lock();
            if rep.completed_clients != CLIENTS_PER_FLEET || rep.ok == 0 {
                fail(format!(
                    "{name} fleet did not drain by {DEADLINE}: {}/{CLIENTS_PER_FLEET} \
                     clients, {} ok responses",
                    rep.completed_clients, rep.ok
                ));
            }
            if let Err(e) = rep.check_accounting() {
                fail(format!("{name} {e}"));
            }
            let us = |p| rep.latency.percentile(p).unwrap_or(SimTime::ZERO).as_ps() as f64 / 1e6;
            (us(50.0), us(99.0))
        });
    let routed = tree.get_u64("dc.fabric.ecmp.routed");
    if let Err(e) = dc.check_ecmp() {
        fail(e);
    }
    if routed == 0 {
        fail("ECMP never engaged: fabric.ecmp.routed is 0");
    }
    if tree.get_u64("dc.fabric.switch_downs") != 1 {
        fail("the spine outage did not fire exactly once");
    }
    let barriers = tree.get_u64("dc.sched.domain.cross_pod.barriers");
    let windows = tree.get_u64("dc.sched.domain.intra_rack.windows");
    if barriers == 0 || windows == 0 || barriers >= windows {
        fail(format!(
            "hierarchical quantum domains not engaged: cross_pod.barriers \
             {barriers}, intra_rack.windows {windows}"
        ));
    }

    let mut sink = MetricSink::new();
    sink.text(
        "workload",
        "2-pod/4-rack/16-server Clos: intra-rack and cross-pod KV fleets \
         with a 2 ms spine loss mid-run",
    );
    sink.value("sim_seconds", dc.now().as_secs_f64());
    // The headline: what the fabric costs end-to-end.
    sink.value("intra_rack_p50_us", intra_p50);
    sink.value("intra_rack_p99_us", intra_p99);
    sink.value("cross_pod_p50_us", cross_p50);
    sink.value("cross_pod_p99_us", cross_p99);
    sink.value("cross_pod_premium_p50_us", cross_p50 - intra_p50);
    // ECMP spread over the equal-cost paths.
    sink.counter("ecmp_routed", routed);
    for (path, _) in tree.iter() {
        if let Some(switch) = path.strip_prefix("dc.fabric.ecmp.path.") {
            sink.counter(&format!("ecmp_path.{switch}"), tree.get_u64(path));
        }
    }
    // Hierarchical quantum domains: outer barriers vs inner windows.
    sink.counter("cross_pod_barriers", barriers);
    sink.counter("intra_rack_windows", windows);
    run.write(sink);

    println!(
        "OK: spine0 loss survived; cross-pod p50 {cross_p50:.1}us vs intra-rack \
         p50 {intra_p50:.1}us ({barriers} outer barriers, {windows} inner windows)"
    );
}
