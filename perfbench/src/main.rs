//! Steady benchmark of the MCN simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <iperf_rack|kv_dc_spine|npb_cg_d8> --seed <n> \
//!     --seconds <s> --trace <0|1> [--size smoke] [--break-check]
//! ```
//!
//! One process runs one workload on one engine worker: a set-up phase
//! of repeated builds, a discarded warm-up repetition, then timed
//! repetitions of build → drive → snapshot → check for `--seconds`.
//! Host times are medians over repetitions, scaled by a fixed reference
//! kernel timed before each one. `--trace 1` adds spans and
//! per-layer figures instead (see `perfbench/BENCHMARK.md`). The last
//! line of standard output is the JSON result; the process exits
//! nonzero when any check of any repetition fails.

mod heap;
mod trace;
mod workloads;

use std::time::Instant;

use trace::Tracer;
use workloads::{Built, Kind, Params, SimFigures, Size};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// Untimed builds before any timing (allocator and page warm-up).
const SETUP_DISCARD: usize = 3;
/// Builds timed for `setup_s` before the first repetition and after
/// each one.
const SETUP_BUILDS: usize = 21;
const SETUP_BUILDS_PER_REP: usize = 8;
/// Timed repetitions run even when `--seconds` has already passed.
const MIN_REPS: usize = 3;
/// Host seconds the reference kernel takes on the nominal host that
/// `wall_s` and `setup_s` are expressed in.
const REF_NOMINAL_S: f64 = 0.05;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    size_name: &'static str,
    break_check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let (mut size, mut size_name) = (Size::FULL, "full");
    let mut break_check = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--break-check" {
            break_check = true;
            continue;
        }
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {val:?}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(&val).ok_or(bad("unknown workload"))?),
            "--seed" => seed = Some(val.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                seconds = Some(
                    val.parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or(bad("expected a positive number"))?,
                )
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--size" => {
                (size, size_name) = match val.as_str() {
                    "full" => (Size::FULL, "full"),
                    "smoke" => (Size::SMOKE, "smoke"),
                    _ => return Err(bad("expected full or smoke")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size,
        size_name,
        break_check,
    })
}

/// Median of `v` (mean of the middle two for an even count).
pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One checked repetition.
struct Rep {
    /// Host seconds from the end of the build to a checked result.
    wall_s: f64,
    json: String,
    figures: Result<SimFigures, Vec<String>>,
}

/// build → drive → snapshot → check. Only the last three are timed;
/// the driven workload is returned so the caller can drop it (or read
/// layer counters from it) outside the timing.
fn repetition(p: &Params, threads: usize, tr: &mut Tracer, rep: usize) -> (Rep, Built) {
    tr.span("rep", rep, |tr| {
        let mut b = tr.span("sweep.build", rep, |_| workloads::build(p));
        let t = Instant::now();
        tr.span("sim.drive", rep, |_| workloads::drive(&mut b, threads));
        let json = tr.span("sim.snapshot", rep, |_| workloads::registry(&b).to_json());
        let figures = tr.span("check", rep, |_| workloads::check(&b, p));
        let wall_s = t.elapsed().as_secs_f64();
        (
            Rep {
                wall_s,
                json,
                figures,
            },
            b,
        )
    })
}

/// Host seconds of one run of a fixed kernel that belongs to the
/// benchmark, not the simulator: ordered-map inserts and removals of
/// small vectors plus binary-heap churn, the allocation- and cache-bound
/// pattern of the simulator's queues and buffers. The shared host's
/// speed for such code drifts by up to a quarter over minutes; the
/// kernel runs just before a repetition measure it (see [`host_speed`]),
/// and `wall_s` and `setup_s` divide by it.
fn reference_kernel() -> f64 {
    let t = Instant::now();
    let mut map = std::collections::BTreeMap::new();
    let mut heap = std::collections::BinaryHeap::new();
    let mut x = 7u64;
    for i in 0..200_000u64 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        map.insert(x >> 44, vec![i as u8; 64 + (x >> 58) as usize]);
        heap.push(std::cmp::Reverse(x >> 20));
        if map.len() > 20_000 {
            map.pop_first();
        }
        if heap.len() > 5_000 {
            heap.pop();
        }
    }
    std::hint::black_box((map.len(), heap.len()));
    t.elapsed().as_secs_f64()
}

/// Median of three reference-kernel runs: one run alone varies by a
/// fifth from run to run.
fn host_speed() -> f64 {
    median(&mut [reference_kernel(), reference_kernel(), reference_kernel()])
}

/// Host seconds of `n` builds, each divided by `per`, one sample each.
/// Builds are sampled at the start and again after every repetition, so
/// `setup_s` spans the whole run rather than one burst of host
/// conditions.
fn time_builds(p: &Params, tr: &mut Tracer, n: usize, per: f64, samples: &mut Vec<f64>) {
    for _ in 0..n {
        let t = Instant::now();
        let b = tr.span("sweep.build", 0, |_| workloads::build(p));
        samples.push(t.elapsed().as_secs_f64() / per);
        drop(b);
    }
}

/// Checks one repetition against the reference (warm-up) repetition;
/// returns whether it passed, reporting every failure on stderr.
fn passes(r: &Rep, reference: &Rep, label: &str) -> bool {
    let mut ok = true;
    match (&r.figures, &reference.figures) {
        (Err(errs), _) => {
            for e in errs {
                eprintln!("FAIL {label}: {e}");
            }
            ok = false;
        }
        (Ok(f), Ok(g)) if f != g => {
            eprintln!("FAIL {label}: simulated figures differ from the first repetition");
            ok = false;
        }
        _ => {}
    }
    if r.json != reference.json {
        eprintln!("FAIL {label}: registry JSON differs from the first repetition");
        ok = false;
    }
    ok
}

struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

/// The untraced run: every end-to-end metric.
fn untraced(a: &Args, p: &Params) -> Outcome {
    let mut tr = Tracer::new(false);
    let mut builds = Vec::new();
    time_builds(p, &mut tr, SETUP_DISCARD, 1.0, &mut Vec::new());
    reference_kernel();
    let mut refs = vec![host_speed()];
    time_builds(p, &mut tr, SETUP_BUILDS, refs[0], &mut builds);
    let (mut reference, _) = repetition(p, 1, &mut tr, 0);
    if a.break_check {
        reference.json.push(' ');
    }
    let mut failed = u64::from(!passes(&reference, &reference, "warm-up"));
    let (mut walls, mut raw, mut peaks) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while walls.len() < MIN_REPS || start.elapsed().as_secs_f64() < a.seconds {
        let rep = walls.len() + 1;
        let per = host_speed();
        heap::reset_peak();
        let (r, b) = repetition(p, 1, &mut tr, rep);
        peaks.push(heap::peak_bytes() / f64::from(1 << 20));
        drop(b);
        failed += u64::from(!passes(&r, &reference, &format!("repetition {rep}")));
        walls.push(r.wall_s / per);
        raw.push(r.wall_s);
        refs.push(per);
        time_builds(p, &mut tr, SETUP_BUILDS_PER_REP, per, &mut builds);
    }
    let attempted = walls.len() as u64 + 1;
    let wall_s = REF_NOMINAL_S * median(&mut walls);
    let setup_s = REF_NOMINAL_S * median(&mut builds);
    println!(
        "# host: unscaled wall_s median {:.4} s; reference kernel median {:.4} s (nominal {REF_NOMINAL_S} s)",
        median(&mut raw),
        median(&mut refs)
    );
    let f = reference.figures.as_ref().ok().copied();
    let sim = |get: fn(&SimFigures) -> f64| f.as_ref().map_or(0.0, get);
    Outcome {
        attempted,
        failed,
        metrics: vec![
            ("wall_s", wall_s, "s"),
            ("setup_s", setup_s, "s"),
            ("peak_heap_mb", median(&mut peaks), "MiB"),
            ("goodput_gbps", sim(|f| f.goodput_gbps), "Gbit/s"),
            (
                "sim_job_time",
                sim(|f| f.job_time.as_ps() as f64 / 1e6),
                "sim_us",
            ),
            ("dram_gbs", sim(|f| f.dram_gbs), "GB/s"),
            ("nj_per_request", sim(|f| f.nj_per_request), "nJ"),
            ("answered_frac", sim(|f| f.answered_frac), "fraction"),
        ],
    }
}

/// The traced run: every per-layer metric.
fn traced(a: &Args, p: &Params) -> Outcome {
    let mut tr = Tracer::new(true);
    let mut off = Tracer::new(false);
    let mut builds = Vec::new();
    time_builds(p, &mut off, SETUP_DISCARD, 1.0, &mut Vec::new());
    time_builds(p, &mut tr, SETUP_BUILDS, 1.0, &mut builds);
    let build_s = median(&mut builds);
    let (mut reference, _) = repetition(p, 1, &mut off, 0);
    if a.break_check {
        reference.json.push(' ');
    }
    let mut failed = u64::from(!passes(&reference, &reference, "warm-up"));
    // Untraced and traced repetitions alternate, so both see the same
    // host conditions; their median difference is the tracing overhead.
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    let mut last = None;
    let start = Instant::now();
    while spanned.len() < 2 || start.elapsed().as_secs_f64() < a.seconds {
        let rep = plain.len() + spanned.len() + 1;
        let traced_rep = plain.len() > spanned.len();
        let (r, b) = repetition(p, 1, if traced_rep { &mut tr } else { &mut off }, rep);
        failed += u64::from(!passes(&r, &reference, &format!("repetition {rep}")));
        if traced_rep {
            spanned.push(r.wall_s);
            last = Some(b);
        } else {
            plain.push(r.wall_s);
        }
    }
    let mut attempted = (plain.len() + spanned.len()) as u64 + 1;
    let b = last.expect("at least two traced repetitions");
    let snap = workloads::registry(&b);
    let drive_s = median(&mut tr.durations("sim.drive"));
    let snapshot_s = median(&mut tr.durations("sim.snapshot"));

    // The parallel engine at 2 workers must reproduce the registry.
    let speedup = if a.kind.parallel() {
        let rep = attempted as usize;
        let (r, _) = tr.span("rep.2_workers", rep, |tr| repetition(p, 2, tr, rep));
        attempted += 1;
        failed += u64::from(!passes(&r, &reference, "2-worker repetition"));
        let two = tr
            .durations("sim.drive")
            .last()
            .copied()
            .expect("2-worker drive span");
        drive_s / two
    } else {
        1.0
    };

    let counters = trace::layer_counters(&b, &snap);
    let costs = trace::call_costs(a.kind, &b);
    let shares = trace::est_shares(&counters, &snap, &costs, drive_s);
    let polls = counters
        .iter()
        .find(|(n, _)| *n == "sim.component_polls")
        .map_or(0.0, |(_, v)| *v);
    let mut ranked: Vec<_> = shares
        .iter()
        .filter(|(n, _)| *n != "unattributed_share")
        .collect();
    ranked.sort_by(|x, y| y.1.total_cmp(&x.1));
    println!(
        "# top layers of {}: {}",
        a.kind.name(),
        ranked
            .iter()
            .take(3)
            .map(|(n, s)| format!("{} {:.1}%", n.trim_end_matches(".est_share"), 100.0 * s))
            .collect::<Vec<_>>()
            .join(", ")
    );

    let out_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let spans_path = format!("{out_dir}/spans-{}-{}.json", a.kind.name(), a.seed);
    if let Err(e) = std::fs::create_dir_all(out_dir)
        .and_then(|_| std::fs::write(&spans_path, tr.to_json(a.kind.name())))
    {
        eprintln!("FAIL: cannot write {spans_path}: {e}");
        failed += 1;
    } else {
        println!("# spans: {spans_path} ({} spans)", tr.spans.len());
    }

    let mut metrics = vec![
        ("sweep.build_s", build_s, "s"),
        ("sim.drive_s", drive_s, "s"),
        ("host.ref_s", host_speed(), "s"),
        ("sim.snapshot_s", snapshot_s, "s"),
        ("sim.host_ns_per_poll", drive_s * 1e9 / polls.max(1.0), "ns"),
        ("sim.parallel_speedup", speedup, "x"),
        ("sim.queue_ns_per_event", costs.queue_ns_per_event, "ns"),
        ("dram.ns_per_line_seq", costs.dram_ns_per_line_seq, "ns"),
        ("dram.ns_per_line_rand", costs.dram_ns_per_line_rand, "ns"),
        ("dram.ns_per_refresh", costs.dram_ns_per_refresh, "ns"),
        ("mcn.sram_ns_per_frame", costs.sram_ns_per_frame, "ns"),
        ("net.codec_ns_per_frame", costs.codec_ns_per_frame, "ns"),
        (
            "trace.overhead_s",
            median(&mut spanned) - median(&mut plain),
            "s",
        ),
    ];
    metrics.extend(counters.iter().map(|&(n, v)| (n, v, unit_of(n))));
    metrics.extend(shares.iter().map(|&(n, v)| (n, v, "fraction")));
    Outcome {
        attempted,
        failed,
        metrics,
    }
}

/// Unit of a registry-derived layer counter, from its name.
fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_ratio") || name.ends_with("_frac") {
        "fraction"
    } else if name.ends_with("_ns") {
        "sim_ns"
    } else if name.ends_with("_us") {
        "sim_us"
    } else if name.ends_with("bytes_delivered") {
        "B"
    } else {
        "count"
    }
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let p = Params {
        kind: a.kind,
        seed: a.seed,
        size: a.size,
    };
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# perfbench workload={} seed={} size={} trace={} host_cores={host_cores} \
         host=\"shared sandbox\" engine_workers=1",
        a.kind.name(),
        a.seed,
        a.size_name,
        u8::from(a.trace),
    );
    let out = if a.trace {
        traced(&a, &p)
    } else {
        untraced(&a, &p)
    };
    let body: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        body.join(", ")
    );
    if out.failed > 0 {
        std::process::exit(1);
    }
}
