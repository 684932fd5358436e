//! Serving-tier bench-smoke: a *replicated* memcached-style KV workload
//! on a 4-DIMM rack (2 servers x 2 DIMMs, one `KvServer` per DIMM) that
//! survives a correlated failure domain dying mid-run.
//!
//! Every key range lives on R=2 DIMMs in distinct failure domains (the
//! two DIMM risers, one per server), served to a resilient open-loop
//! client fleet: half the clients hedge their GETs, half rely on timeout
//! failover — so both recovery paths land in the counters. At
//! `CRASH_AT` the whole `riser0` domain (both DIMMs of server 0)
//! crashes atomically and heals `DOWN_FOR` later; the bench measures
//! answered fraction and p99 latency *inside* that fault window vs
//! steady state.
//!
//! Hard gates (exit nonzero): the parallel re-run must be byte-identical
//! to serial, the fleet must drain, `rack.engine.rounds` must be
//! nonzero, the domain crash must have fired and engaged failover
//! (`serve.failovers` > 0), and the accounting identity
//! `issued == answered + gave_up` must hold — a domain crash of one
//! replica may cost latency, never a silently lost request.
//!
//! Writes `BENCH_serving.json` into the working directory. The SLO
//! target itself stays warn-only (simulated latency is a model property,
//! not a CI-host property, but the model can drift).

use std::time::Instant;

use mcn::{McnRack, MetricSink};
use mcn_sweep::scenarios::{kv_rack_workload, riser, KvRackChaos, KvRackParams};
use mcn_serve::ServeReport;
use mcn_sim::SimTime;

const SERVERS: usize = 2;
const CLIENTS_PER_SERVER: u64 = 4;
const SLO: SimTime = SimTime::from_us(200);
const DEADLINE: SimTime = SimTime::from_ms(50);
/// When the `riser0` failure domain (both DIMMs of server 0) crashes.
const CRASH_AT: SimTime = SimTime::from_ms(3);
/// How long it stays down.
const DOWN_FOR: SimTime = SimTime::from_ms(6);

type Report = std::sync::Arc<parking_lot::Mutex<ServeReport>>;

/// Builds the benchmark workload via the shared sweep scenario
/// constructor; `KvRackParams::default_bench()` IS this benchmark's
/// historical configuration (the constants above restate it for the
/// report keys).
fn build_workload() -> (McnRack, Report) {
    let params = KvRackParams::default_bench();
    debug_assert_eq!(
        params.chaos,
        Some(KvRackChaos::DomainCrash { at: CRASH_AT, down_for: DOWN_FOR })
    );
    debug_assert_eq!(params.slo, SLO);
    debug_assert_eq!(params.clients_per_server, CLIENTS_PER_SERVER);
    kv_rack_workload(&params)
}

/// Runs the workload on `threads` workers until the fleet drains (the
/// servers are daemons, so the engine quiesces rather than completing)
/// and returns wall-clock seconds.
fn run_workload(rack: &mut McnRack, threads: usize) -> f64 {
    let wall = Instant::now();
    rack.run_parallel(DEADLINE, threads);
    wall.elapsed().as_secs_f64()
}

/// Full counter tree (rack + shared report) as canonical JSON — the
/// byte-identity witness between the serial and parallel runs.
fn snapshot(rack: &McnRack, report: &Report) -> String {
    let mut sink = MetricSink::new();
    sink.absorb("rack", rack);
    sink.absorb("serve", &*report.lock());
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

    // Serial reference run: the latency/goodput figures come from here.
    let (mut rack, report) = build_workload();
    let serial_wall_s = run_workload(&mut rack, 1);
    let serial_snap = snapshot(&rack, &report);
    let serial_now = rack.now();

    // Parallel run on a fresh, identically-built rack.
    let (mut prack, preport) = build_workload();
    let parallel_wall_s = run_workload(&mut prack, threads);
    let parallel_snap = snapshot(&prack, &preport);

    if prack.now() != serial_now || parallel_snap != serial_snap {
        eprintln!(
            "FAIL: parallel run ({threads} threads) diverged from serial \
             (now {} vs {serial_now})",
            prack.now(),
        );
        for (s, p) in serial_snap.lines().zip(parallel_snap.lines()) {
            if s != p {
                eprintln!("  serial:   {s}\n  parallel: {p}");
            }
        }
        std::process::exit(1);
    }

    let rep = report.lock();
    let expected_clients = SERVERS as u64 * CLIENTS_PER_SERVER;
    if rep.completed_clients != expected_clients || rep.ok == 0 {
        eprintln!(
            "FAIL: fleet did not drain by {DEADLINE}: {}/{expected_clients} clients, \
             {} ok responses",
            rep.completed_clients, rep.ok
        );
        std::process::exit(1);
    }

    // The availability gates: the chaos must have engaged, and no
    // request may vanish silently.
    let answered = rep.latency.count();
    if rep.issued != answered + rep.gave_up {
        eprintln!(
            "FAIL: accounting identity broken: issued {} != answered {answered} \
             + gave_up {} — silent request loss",
            rep.issued, rep.gave_up
        );
        std::process::exit(1);
    }
    if rep.fault_issued == 0 || rep.failovers == 0 {
        eprintln!(
            "FAIL: chaos did not engage: {} requests in the fault window, \
             {} failovers",
            rep.fault_issued, rep.failovers
        );
        std::process::exit(1);
    }

    let tree = mcn_sim::MetricsSnapshot::collect(&rack);
    if tree.get_u64("engine.rounds") == 0 {
        eprintln!("FAIL: rack.engine.rounds is 0 — block round accounting broken");
        std::process::exit(1);
    }
    if tree.get_u64(&format!("rack.outage.domain.{}.crashes", riser(0))) != 1
        || tree.get_u64(&format!("rack.outage.domain.{}.heals", riser(0))) != 1
    {
        eprintln!("FAIL: the riser0 domain crash/heal pair did not fire exactly once");
        std::process::exit(1);
    }

    let sim_s = serial_now.as_secs_f64();
    let pct = |p: f64| rep.latency.percentile(p).unwrap_or(SimTime::ZERO);
    let us = |t: SimTime| t.as_ps() as f64 / 1e6;
    let p50 = pct(50.0);
    let p99 = pct(99.0);
    let p999 = pct(99.9);
    let fault_p99 = rep.fault_latency.percentile(99.0).unwrap_or(SimTime::ZERO);
    let steady_p99 = rep.steady_latency.percentile(99.0).unwrap_or(SimTime::ZERO);
    let goodput_rps = rep.goodput_rps(serial_now);
    let speedup = serial_wall_s / parallel_wall_s.max(1e-9);

    // Stack-level admission counters, summed over every node in the rack.
    let sum = |leaf: &str| {
        tree.iter()
            .filter(|(p, _)| p.ends_with(leaf))
            .map(|(p, _)| tree.get_u64(p))
            .sum::<u64>()
    };
    let syn_drops = sum("tcp.syn_drops");
    let accept_overflows = sum("tcp.accept_overflows");
    let keepalive_giveups = sum("tcp.keepalive_giveups");

    let mut sink = MetricSink::new();
    sink.text(
        "workload",
        "rack 2x2 replicated KV serving (8 resilient open-loop clients, R=2 \
         across DIMM risers, riser0 domain crash mid-run)",
    );
    sink.value("sim_seconds", sim_s);
    sink.value("wall_seconds", serial_wall_s);
    sink.counter("requests_issued", rep.issued);
    sink.counter("requests_answered", answered);
    sink.counter("gave_up", rep.gave_up);
    sink.counter("ok", rep.ok);
    sink.counter("miss", rep.miss);
    sink.counter("busy", rep.busy);
    sink.value("latency_p50_us", us(p50));
    sink.value("latency_p99_us", us(p99));
    sink.value("latency_p999_us", us(p999));
    sink.value("slo_us", us(SLO));
    sink.counter("under_slo", rep.under_slo);
    sink.value("goodput_under_slo_rps", goodput_rps);
    // Availability inside the fault window vs steady state.
    sink.value("fault_window_start_ms", CRASH_AT.as_secs_f64() * 1e3);
    sink.value("fault_window_end_ms", (CRASH_AT + DOWN_FOR).as_secs_f64() * 1e3);
    sink.counter("fault_issued", rep.fault_issued);
    sink.counter("fault_answered", rep.fault_answered);
    sink.value("fault_availability", rep.fault_availability());
    sink.value("fault_p99_us", us(fault_p99));
    sink.value("steady_p99_us", us(steady_p99));
    sink.counter("failovers", rep.failovers);
    sink.counter("hedges_launched", rep.hedges_launched);
    sink.counter("hedges_won", rep.hedges_won);
    sink.counter("retry_budget_spent", rep.retry_budget_spent);
    sink.counter("retry_budget_exhausted", rep.retry_budget_exhausted);
    sink.counter("breaker_opens", rep.breaker_opens);
    sink.counter("breaker_half_open_probes", rep.breaker_half_open_probes);
    sink.counter("shed_requests", rep.shed_requests);
    sink.counter("shed_conns", rep.shed_conns);
    sink.counter("syn_drops", syn_drops);
    sink.counter("accept_overflows", accept_overflows);
    sink.counter("keepalive_giveups", keepalive_giveups);
    sink.counter("parallel_threads", threads as u64);
    sink.value("parallel_wall_seconds", parallel_wall_s);
    sink.value("parallel_speedup", speedup);
    sink.absorb("rack", &rack);
    sink.absorb("serve", &*rep);
    let snap = sink.finish();
    std::fs::write("BENCH_serving.json", snap.to_json()).expect("write BENCH_serving.json");
    for (path, value) in snap
        .iter()
        .filter(|(p, _)| !p.starts_with("rack.") && !p.starts_with("serve."))
    {
        println!("{path} = {value}");
    }

    println!(
        "OK: {threads}-thread serving run byte-identical to serial ({} metrics)",
        serial_snap.lines().count()
    );
    println!(
        "OK: riser0 crash survived: {}/{} answered in the fault window \
         ({} failovers, {} hedges won, 0 silent misses)",
        rep.fault_answered, rep.fault_issued, rep.failovers, rep.hedges_won
    );
    if p99 > SLO {
        eprintln!(
            "WARN: p99 {p99} exceeds the {SLO} SLO — recorded as measured \
             (warn-only gate; see EXPERIMENTS.md)"
        );
    } else {
        println!("OK: p99 {p99} within the {SLO} SLO");
    }
}
