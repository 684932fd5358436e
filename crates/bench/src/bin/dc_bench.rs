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
//! Hard gates (exit nonzero): the parallel re-run must be byte-identical
//! to the serial run (full registry, both fleets); both fleets must
//! drain with the accounting identity `issued == answered + gave_up`;
//! `fabric.ecmp.routed` must be nonzero and equal the sum of the
//! per-path counters; the spine outage must have fired exactly once;
//! and the hierarchical quantum domains must show
//! `sched.domain.cross_pod.barriers` nonzero yet strictly fewer than
//! `sched.domain.intra_rack.windows`.
//!
//! Writes `BENCH_dc.json` into the working directory.

use std::time::Instant;

use mcn::ClosConfig;
use mcn::outage::Part;
use mcn::{Datacenter, MetricSink};
use mcn_sweep::scenarios::{kv_dc_workload, KvDcParams};
use mcn_serve::ServeReport;
use mcn_sim::SimTime;

const CLIENTS_PER_FLEET: u64 = 3;
const SLO: SimTime = SimTime::from_us(500);
const DEADLINE: SimTime = SimTime::from_ms(80);
/// When spine 0 goes dark.
const CRASH_AT: SimTime = SimTime::from_ms(2);
/// How long it stays down (flows re-hash onto spine 1 meanwhile).
const DOWN_FOR: SimTime = SimTime::from_ms(2);

type Report = std::sync::Arc<parking_lot::Mutex<ServeReport>>;

/// Builds the workload via the shared sweep scenario constructor;
/// `KvDcParams::default_bench()` IS this benchmark's historical
/// configuration (the constants above restate it for the report keys).
fn build_workload() -> (Datacenter, Report, Report) {
    let params = KvDcParams::default_bench();
    debug_assert_eq!(params.spine_outage, Some((CRASH_AT, DOWN_FOR)));
    debug_assert_eq!(params.slo, SLO);
    debug_assert_eq!(params.clients_per_fleet, CLIENTS_PER_FLEET);
    kv_dc_workload(&params)
}

/// Runs the workload on `threads` outer workers until both fleets drain
/// (the servers are daemons, so the engine quiesces rather than
/// completing) and returns wall-clock seconds.
fn run_workload(dc: &mut Datacenter, threads: usize) -> f64 {
    let wall = Instant::now();
    dc.run_parallel(DEADLINE, threads);
    wall.elapsed().as_secs_f64()
}

/// Full counter tree (datacenter + both fleet reports) as canonical
/// JSON — the byte-identity witness between the serial and parallel
/// runs.
fn snapshot(dc: &Datacenter, intra: &Report, cross: &Report) -> String {
    let mut sink = MetricSink::new();
    sink.absorb("dc", dc);
    sink.absorb("serve.intra", &*intra.lock());
    sink.absorb("serve.cross", &*cross.lock());
    sink.finish().to_json()
}

fn main() {
    let mut threads = 2usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--threads" => {
                threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .expect("--threads needs a positive integer");
            }
            other => panic!("unknown argument {other:?} (supported: --threads N)"),
        }
    }

    // Serial reference run: the latency split comes from here.
    let (mut dc, intra, cross) = build_workload();
    let serial_wall_s = run_workload(&mut dc, 1);
    let serial_snap = snapshot(&dc, &intra, &cross);
    let serial_now = dc.now();

    // Parallel run on a fresh, identically-built datacenter.
    let (mut pdc, pintra, pcross) = build_workload();
    let parallel_wall_s = run_workload(&mut pdc, threads);
    let parallel_snap = snapshot(&pdc, &pintra, &pcross);

    if pdc.now() != serial_now || parallel_snap != serial_snap {
        eprintln!(
            "FAIL: parallel run ({threads} threads) diverged from serial \
             (now {} vs {serial_now})",
            pdc.now(),
        );
        for (s, p) in serial_snap.lines().zip(parallel_snap.lines()) {
            if s != p {
                eprintln!("  serial:   {s}\n  parallel: {p}");
            }
        }
        std::process::exit(1);
    }

    // Both fleets must have drained, with no silent request loss.
    for (name, report) in [("intra", &intra), ("cross", &cross)] {
        let rep = report.lock();
        if rep.completed_clients != CLIENTS_PER_FLEET || rep.ok == 0 {
            eprintln!(
                "FAIL: {name} fleet did not drain by {DEADLINE}: {}/{CLIENTS_PER_FLEET} \
                 clients, {} ok responses",
                rep.completed_clients, rep.ok
            );
            std::process::exit(1);
        }
        let answered = rep.latency.count();
        if rep.issued != answered + rep.gave_up {
            eprintln!(
                "FAIL: {name} accounting identity broken: issued {} != answered \
                 {answered} + gave_up {} — silent request loss",
                rep.issued, rep.gave_up
            );
            std::process::exit(1);
        }
    }

    let tree = mcn_sim::MetricsSnapshot::collect(&dc);
    let routed = tree.get_u64("fabric.ecmp.routed");
    let clos = ClosConfig::default();
    let mut paths = Vec::new();
    for p in 0..clos.pods {
        for a in 0..clos.aggs_per_pod {
            let name = Part::Agg(p, a).to_string();
            paths.push((name.clone(), tree.get_u64(&format!("fabric.ecmp.path.{name}"))));
        }
    }
    for j in 0..clos.spines {
        let name = Part::Spine(j).to_string();
        paths.push((name.clone(), tree.get_u64(&format!("fabric.ecmp.path.{name}"))));
    }
    let path_sum: u64 = paths.iter().map(|(_, n)| n).sum();
    if routed == 0 || path_sum != routed {
        eprintln!(
            "FAIL: ECMP accounting broken: routed {routed}, per-path sum {path_sum} \
             ({paths:?})"
        );
        std::process::exit(1);
    }
    if tree.get_u64("fabric.switch_downs") != 1 {
        eprintln!("FAIL: the spine outage did not fire exactly once");
        std::process::exit(1);
    }
    let barriers = tree.get_u64("sched.domain.cross_pod.barriers");
    let windows = tree.get_u64("sched.domain.intra_rack.windows");
    if barriers == 0 || windows == 0 || barriers >= windows {
        eprintln!(
            "FAIL: hierarchical quantum domains not engaged: cross_pod.barriers \
             {barriers}, intra_rack.windows {windows}"
        );
        std::process::exit(1);
    }

    let us = |t: SimTime| t.as_ps() as f64 / 1e6;
    let pct = |rep: &Report, p: f64| {
        us(rep.lock().latency.percentile(p).unwrap_or(SimTime::ZERO))
    };
    let (intra_p50, intra_p99) = (pct(&intra, 50.0), pct(&intra, 99.0));
    let (cross_p50, cross_p99) = (pct(&cross, 50.0), pct(&cross, 99.0));
    let speedup = serial_wall_s / parallel_wall_s.max(1e-9);

    let mut sink = MetricSink::new();
    sink.text(
        "workload",
        "2-pod/4-rack/16-server Clos: intra-rack and cross-pod KV fleets \
         with a 2 ms spine loss mid-run",
    );
    sink.value("sim_seconds", serial_now.as_secs_f64());
    sink.value("wall_seconds", serial_wall_s);
    // The headline: what the fabric costs end-to-end.
    sink.value("intra_rack_p50_us", intra_p50);
    sink.value("intra_rack_p99_us", intra_p99);
    sink.value("cross_pod_p50_us", cross_p50);
    sink.value("cross_pod_p99_us", cross_p99);
    sink.value("cross_pod_premium_p50_us", cross_p50 - intra_p50);
    // ECMP spread over the equal-cost paths.
    sink.counter("ecmp_routed", routed);
    for (name, n) in &paths {
        sink.counter(&format!("ecmp_path.{name}"), *n);
    }
    // Hierarchical quantum domains: outer barriers vs inner windows.
    sink.counter("cross_pod_barriers", barriers);
    sink.counter("intra_rack_windows", windows);
    sink.counter("parallel_threads", threads as u64);
    sink.value("parallel_wall_seconds", parallel_wall_s);
    sink.value("parallel_speedup", speedup);
    sink.absorb("dc", &dc);
    sink.absorb("serve.intra", &*intra.lock());
    sink.absorb("serve.cross", &*cross.lock());
    let snap = sink.finish();
    std::fs::write("BENCH_dc.json", snap.to_json()).expect("write BENCH_dc.json");
    for (path, value) in snap
        .iter()
        .filter(|(p, _)| !p.starts_with("dc.") && !p.starts_with("serve."))
    {
        println!("{path} = {value}");
    }

    println!(
        "OK: {threads}-thread datacenter run byte-identical to serial ({} metrics)",
        serial_snap.lines().count()
    );
    println!(
        "OK: spine0 loss survived; cross-pod p50 {cross_p50:.1}us vs intra-rack \
         p50 {intra_p50:.1}us ({barriers} outer barriers, {windows} inner windows)"
    );
}
