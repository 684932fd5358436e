//! The one-command figure regenerator: expands a declarative scenario
//! sweep, runs every cell as an independent deterministic simulation
//! (in parallel, resumably), and prints per-cell perf and energy
//! figures from the merged tree.
//!
//! ```text
//! # everything the paper reports, resumable, 4 workers:
//! cargo run --release -p mcn-bench --bin sweep -- --preset paper --jobs 4
//!
//! # the CI mini-sweep:
//! cargo run --release -p mcn-bench --bin sweep -- --preset smoke --out sweep-out
//!
//! # a custom axis file:
//! cargo run --release -p mcn-bench --bin sweep -- --spec my-axes.txt
//! ```
//!
//! Flags: `--preset paper|smoke` (default `smoke`), `--spec FILE`
//! (key=value axes, overrides `--preset`), `--seed N` (override the
//! sweep seed), `--jobs N` (default 2), `--out DIR` (default
//! `sweep-out`), `--limit N` (run at most N new cells, then stop —
//! rerun to continue), `--list` (print the expanded cells and exit).
//!
//! `sweep diff A.json B.json [--ignore SEG]...` compares two registries
//! instead (merged sweep trees or `BENCH_*.json`): changed paths grouped
//! by cell, groups ranked by changes, one-sided paths listed. It exits 1
//! when anything differs outside paths containing an ignored segment.
//!
//! The merged tree lands in `DIR/sweep.json`; per-cell done-markers in
//! `DIR/cell-{id}-{hash}.json`; each cell's host seconds (or `reused`)
//! in `DIR/wall.txt`, outside the merged tree. Reruns reuse markers, so interrupting
//! and restarting converges on the byte-identical `sweep.json` an
//! uninterrupted run produces (see DESIGN.md §4g).

use std::process::exit;

use mcn_sim::metrics::MetricsSnapshot;
use mcn_sweep::diff::RegistryDiff;
use mcn_sweep::{run_sweep, SweepConfig, SweepSpec};

fn usage() -> ! {
    eprintln!(
        "usage: sweep [--preset paper|smoke] [--spec FILE] [--seed N] \
         [--jobs N] [--out DIR] [--limit N] [--list]\n       \
         sweep diff A.json B.json [--ignore SEG]..."
    );
    exit(2);
}

/// `sweep diff A.json B.json [--ignore SEG]...`
fn diff(mut args: impl Iterator<Item = String>) -> ! {
    let (Some(a), Some(b)) = (args.next(), args.next()) else { usage() };
    let mut ignore = Vec::new();
    while let Some(flag) = args.next() {
        match (flag.as_str(), args.next()) {
            ("--ignore", Some(seg)) => ignore.push(seg),
            _ => usage(),
        }
    }
    let load = |f: &str| {
        let text = std::fs::read_to_string(f).unwrap_or_else(|e| {
            eprintln!("cannot read {f:?}: {e}");
            exit(2);
        });
        MetricsSnapshot::parse_flat_json(&text).unwrap_or_else(|e| {
            eprintln!("{f:?} is not a flat registry: {e}");
            exit(2);
        })
    };
    let ignore: Vec<&str> = ignore.iter().map(String::as_str).collect();
    let d = RegistryDiff::new(&load(&a), &load(&b), &ignore);
    print!("{}", d.render());
    exit(i32::from(d.differs()));
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("diff") {
        diff(std::env::args().skip(2));
    }
    let mut preset = String::from("smoke");
    let mut spec_file: Option<String> = None;
    let mut seed: Option<u64> = None;
    let mut jobs = 2usize;
    let mut out = String::from("sweep-out");
    let mut limit: Option<usize> = None;
    let mut list = false;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--preset" => preset = val(),
            "--spec" => spec_file = Some(val()),
            "--seed" => seed = val().parse().ok().or_else(|| usage()),
            "--jobs" => jobs = val().parse().ok().filter(|&n| n >= 1).unwrap_or_else(|| usage()),
            "--out" => out = val(),
            "--limit" => limit = val().parse().ok().or_else(|| usage()),
            "--list" => list = true,
            _ => usage(),
        }
    }

    let mut spec = if let Some(f) = spec_file {
        let text = std::fs::read_to_string(&f).unwrap_or_else(|e| {
            eprintln!("cannot read spec {f:?}: {e}");
            exit(2);
        });
        SweepSpec::parse(&text).unwrap_or_else(|e| {
            eprintln!("bad spec {f:?}: {e}");
            exit(2);
        })
    } else {
        match preset.as_str() {
            "paper" => SweepSpec::paper(),
            "smoke" => SweepSpec::smoke(),
            _ => usage(),
        }
    };
    if let Some(s) = seed {
        spec.seed = s;
    }

    if list {
        for cell in &spec.cells {
            match cell.supported() {
                Ok(()) => println!("{cell}"),
                Err(why) => println!("{cell}  [skipped: {why}]"),
            }
        }
        println!(
            "{} cells ({} supported), seed {:#x}, scale {}",
            spec.cells.len(),
            spec.cells.iter().filter(|c| c.supported().is_ok()).count(),
            spec.seed,
            spec.scale.name
        );
        return;
    }

    let mut cfg = SweepConfig::new(jobs, &out);
    cfg.limit = limit;
    let wall = std::time::Instant::now();
    let outcome = run_sweep(&spec, &cfg).unwrap_or_else(|e| {
        eprintln!("sweep failed: {e}");
        exit(1);
    });
    let wall_s = wall.elapsed().as_secs_f64();

    // Figure-style summary, straight out of the merged tree: every
    // number below is readable back from sweep.json at the same path.
    let m = &outcome.merged;
    println!(
        "{:<42} {:>12} {:>14} {:>12} {:>12}",
        "cell", "requests", "perf", "nJ/req", "perf/W"
    );
    for cell in &spec.cells {
        let id = cell.id();
        let get = |leaf: &str| m.get(&format!("cells.{id}.{leaf}")).map(|v| v.as_f64());
        let Some(perf) = get("perf") else { continue };
        let unit = m
            .get(&format!("cells.{id}.meta.perf_unit"))
            .map_or(String::new(), |v| v.to_string());
        println!(
            "{:<42} {:>12.0} {:>9.2} {:<4} {:>12.1} {:>12.3}",
            id,
            get("requests").unwrap_or(0.0),
            perf,
            unit.trim_matches('"'),
            get("energy.energy_per_request_nj").unwrap_or(0.0),
            get("energy.perf_per_watt").unwrap_or(0.0),
        );
    }
    for (id, why) in &outcome.skipped {
        println!("{id:<42} skipped: {why}");
    }
    println!(
        "sweep: {} executed, {} reused, {} skipped, {} remaining in {wall_s:.1}s \
         ({} workers) -> {}",
        outcome.executed,
        outcome.reused,
        outcome.skipped.len(),
        outcome.remaining,
        jobs,
        outcome.merged_path.display()
    );
    if outcome.remaining > 0 {
        println!("rerun the same command to continue (markers resume the sweep)");
    }
}
