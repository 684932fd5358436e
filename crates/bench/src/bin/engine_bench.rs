//! Engine bench-smoke: a Fig. 8(a)-style iperf mix (4 local streams and
//! 1 cross-server stream at mcn3) on a 4-DIMM rack (2 servers x 2 DIMMs),
//! driven by the shared smoke driver ([`mcn_bench::smoke`]): one build on
//! one worker, another on `--threads N` (default 2), gated on a
//! byte-identical rack registry and clock, written to `BENCH_engine.json`.
//!
//! The headline reports how much polling the windowed scheduler avoided
//! versus the old scan-everything run loops (the poll ratio), the serial
//! engine's polls and simulated seconds per wall second, how many
//! memory-only server steps the blocks fast-forwarded per step they took
//! themselves, and the parallel wall-clock speedup.
//!
//! Besides the identity gate, it exits nonzero if the poll ratio (scan-
//! equivalent / actual) drops below 2x, the serial poll rate regresses
//! below its floor, or either of the scheduler's lookahead and batching
//! counters stays at zero (the machinery the speedup depends on must
//! demonstrably engage). The speedup target (1.5x) is a hard gate when
//! the host has at least two cores and the run used at least two
//! workers; on single-core hosts it degrades to a warning, because two
//! workers on one core cannot beat serial.

use mcn::{ComponentExt, MetricSink};
use mcn_bench::smoke::Smoke;
use mcn_sim::SimTime;
use mcn_sweep::scenarios::rack_iperf_workload;

const BYTES_PER_STREAM: u64 = 1 << 20;
const MIN_RATIO: f64 = 2.0;
const MIN_SPEEDUP: f64 = 1.5;
/// Regression floor for the serial engine's throughput in component
/// polls per wall second. The engine measured 1.3–2.4 M polls/s on
/// shared hosts before its wakeup queries were cached; the floor sits
/// about 2.5x below the slowest of those, so a regression of the
/// serial hot path trips it while host noise does not.
const MIN_SERIAL_POLLS_PER_SEC: f64 = 500_000.0;
/// Scheduler counters that must be nonzero after any run: coarsened
/// windows and batched dispatch rounds. These hold at any thread count
/// because the coordinator computes them from the same deterministic
/// schedule serial and parallel runs share, so zero means broken, not
/// "host too small".
const REQUIRED_SCHED_COUNTERS: [&str; 2] = [
    "rack.sched.lookahead.windows_coalesced",
    "rack.sched.batch.jobs",
];

fn main() {
    let run = Smoke {
        file: "BENCH_engine.json",
        build: || rack_iperf_workload(3, BYTES_PER_STREAM, None),
        drive: |(rack, _), threads| {
            assert!(
                rack.run_parallel(SimTime::from_secs(10), threads),
                "engine bench workload stalled at {}\n{}",
                rack.now(),
                rack.stall_report("engine bench stalled")
            );
        },
        registry: |(rack, _), sink| sink.absorb("rack", rack),
        now: |(rack, _)| rack.now(),
    }
    .run();
    let (rack, (srv0, srv1)) = &run.workload;
    let (threads, speedup) = (run.threads, run.speedup());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let sim_s = rack.now().as_secs_f64();
    let (actual, scan) = rack.poll_accounting();
    let ratio = scan as f64 / actual.max(1) as f64;
    let rk = rack.engine_stats();
    let per_advance = |n: u64| n as f64 / rk.advances.get().max(1) as f64;
    let polls_per_wall_s = actual as f64 / run.wall_seconds.max(1e-9);

    let mut sink = MetricSink::new();
    sink.text(
        "workload",
        "rack 2x2 iperf (4 local + 1 cross-server stream)",
    );
    sink.value("sim_seconds", sim_s);
    sink.value("serial_polls_per_sec", polls_per_wall_s);
    sink.value("min_serial_polls_per_sec", MIN_SERIAL_POLLS_PER_SEC);
    sink.value(
        "sim_seconds_per_wall_second",
        sim_s / run.wall_seconds.max(1e-9),
    );
    sink.value(
        "fast_forwarded_per_advance",
        per_advance(rk.fast_forwarded.get()),
    );
    sink.value("advance_rounds_per_step", per_advance(rk.rounds.get()));
    sink.value(
        "component_polls_per_sim_sec",
        actual as f64 / sim_s.max(1e-12),
    );
    sink.value(
        "scan_equivalent_polls_per_sim_sec",
        scan as f64 / sim_s.max(1e-12),
    );
    sink.value("poll_ratio", ratio);
    sink.value("min_ratio", MIN_RATIO);
    let goodput_gbps = srv0.lock().meter.gbps() + srv1.lock().meter.gbps();
    sink.value("aggregate_goodput_gbps", goodput_gbps);
    sink.counter("host_cores", cores as u64);
    sink.value("min_speedup", MIN_SPEEDUP);
    let snap = run.write(sink);

    let mut failed = false;
    for path in REQUIRED_SCHED_COUNTERS {
        let got = snap.get(path).map_or(0.0, |v| v.as_f64());
        if got > 0.0 {
            println!("OK: {path} = {got}");
        } else {
            eprintln!("FAIL: {path} = {got} — scheduler machinery never engaged");
            failed = true;
        }
    }
    if polls_per_wall_s < MIN_SERIAL_POLLS_PER_SEC {
        eprintln!(
            "FAIL: serial rate {polls_per_wall_s:.0} polls/s < \
             {MIN_SERIAL_POLLS_PER_SEC:.0} floor — serial engine regressed"
        );
        failed = true;
    }
    // Hard only where provable: a single-core host time-slices both
    // workers onto one core and can never beat serial.
    if speedup >= MIN_SPEEDUP {
        println!("OK: {threads}-thread speedup {speedup:.2}x on {cores} cores");
    } else if cores >= 2 && threads >= 2 {
        eprintln!(
            "FAIL: speedup {speedup:.2}x < {MIN_SPEEDUP}x with {threads} \
             threads on {cores} cores — parallel engine is slower than it \
             promises on a host that could prove it"
        );
        failed = true;
    } else {
        eprintln!(
            "WARN: speedup {speedup:.2}x < {MIN_SPEEDUP}x on {cores} available \
             core(s) — expected on shared or single-core hosts; the recorded \
             number is the measured one"
        );
    }
    if ratio < MIN_RATIO {
        eprintln!(
            "FAIL: poll ratio {ratio:.2} < {MIN_RATIO} — engine is polling \
             like the old scan loops"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("OK: engine polled {ratio:.2}x fewer components than a full scan");
}
