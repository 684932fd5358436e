//! The smoke benches' one driver: build a workload twice, drive it on
//! one worker and on `--threads N` (default 2), and write nothing unless
//! both runs agree byte for byte.
//!
//! `engine_bench`, `serving_bench` and `dc_bench` each describe their
//! workload as a [`Smoke`] and keep only their own gates and headline
//! keys. [`Smoke::run`] is the conservative quantum rule of DESIGN §4e
//! made executable: the parallel run must stop at the serial run's clock
//! with a byte-identical registry, or the bench exits 1 printing every
//! line that differs. [`Run::write`] then adds the wall-clock keys every
//! bench reports, mounts the serial run's registry and writes the bench's
//! `BENCH_*.json` file.

use std::process::exit;
use std::time::Instant;

use mcn_sim::metrics::{MetricSink, MetricsSnapshot};
use mcn_sim::SimTime;

/// A smoke bench's workload: where its results go, and how to build,
/// drive and read it.
pub struct Smoke<W> {
    /// The file [`Run::write`] writes into the working directory.
    pub file: &'static str,
    /// Builds a fresh workload; each run starts from its own build.
    pub build: fn() -> W,
    /// Drives the workload to its end on the given number of workers.
    pub drive: fn(&mut W, usize),
    /// Registers the workload's deterministic counters under the bench's
    /// registry roots (`rack`, `serve`, `dc`): the identity witness, and
    /// the part of the written file that must reproduce exactly.
    pub registry: fn(&W, &mut MetricSink),
    /// The workload's simulated clock.
    pub now: fn(&W) -> SimTime,
}

/// The serial run of a [`Smoke`] whose parallel re-run matched it.
pub struct Run<W> {
    /// The workload after its one-worker drive.
    pub workload: W,
    /// The serial run's registry (see [`Smoke::registry`]).
    pub registry: MetricsSnapshot,
    /// Workers of the parallel run.
    pub threads: usize,
    /// Host seconds of the serial drive.
    pub wall_seconds: f64,
    /// Host seconds of the parallel drive.
    pub parallel_wall_seconds: f64,
    file: &'static str,
    mount: fn(&W, &mut MetricSink),
}

impl<W> Smoke<W> {
    /// Parses `--threads N`, drives one build on one worker and another on
    /// N, and returns the serial run if both clocks and both registries
    /// match; otherwise prints the differing registry lines and exits 1.
    pub fn run(self) -> Run<W> {
        let threads = threads_arg();
        let (workload, wall_seconds, registry) = self.timed(1);
        let (parallel, parallel_wall_seconds, parallel_registry) = self.timed(threads);
        let (now, parallel_now) = ((self.now)(&workload), (self.now)(&parallel));
        let (serial, parallel) = (registry.to_json(), parallel_registry.to_json());
        if parallel_now != now || parallel != serial {
            eprintln!(
                "FAIL: parallel run ({threads} threads) diverged from serial \
                 (now {parallel_now} vs {now})"
            );
            for (s, p) in serial.lines().zip(parallel.lines()).filter(|(s, p)| s != p) {
                eprintln!("  serial:   {s}\n  parallel: {p}");
            }
            exit(1);
        }
        println!(
            "OK: {threads}-thread run byte-identical to serial ({} metrics)",
            serial.lines().count()
        );
        Run {
            workload,
            registry,
            threads,
            wall_seconds,
            parallel_wall_seconds,
            file: self.file,
            mount: self.registry,
        }
    }

    /// One fresh build driven on `threads` workers: the workload, the
    /// host seconds of its drive, and its registry.
    fn timed(&self, threads: usize) -> (W, f64, MetricsSnapshot) {
        let mut workload = (self.build)();
        let wall = Instant::now();
        (self.drive)(&mut workload, threads);
        let secs = wall.elapsed().as_secs_f64();
        let mut sink = MetricSink::new();
        (self.registry)(&workload, &mut sink);
        (workload, secs, sink.finish())
    }
}

impl<W> Run<W> {
    /// Serial over parallel host seconds.
    pub fn speedup(&self) -> f64 {
        self.wall_seconds / self.parallel_wall_seconds.max(1e-9)
    }

    /// Completes the bench's headline `sink` with `wall_seconds`,
    /// `parallel_threads`, `parallel_wall_seconds`, `parallel_speedup`
    /// and the serial run's registry, writes it to the bench's file,
    /// prints every key outside the registry, and returns what it wrote.
    pub fn write(&self, mut sink: MetricSink) -> MetricsSnapshot {
        sink.value("wall_seconds", self.wall_seconds);
        sink.counter("parallel_threads", self.threads as u64);
        sink.value("parallel_wall_seconds", self.parallel_wall_seconds);
        sink.value("parallel_speedup", self.speedup());
        (self.mount)(&self.workload, &mut sink);
        let snap = sink.finish();
        std::fs::write(self.file, snap.to_json())
            .unwrap_or_else(|e| panic!("write {}: {e}", self.file));
        for (path, value) in snap.iter().filter(|(p, _)| self.registry.get(p).is_none()) {
            println!("{path} = {value}");
        }
        snap
    }
}

/// Prints `FAIL: {why}` and exits 1: a smoke bench's hard gate.
pub fn fail(why: impl std::fmt::Display) -> ! {
    eprintln!("FAIL: {why}");
    exit(1)
}

/// `--threads N` with N ≥ 1, the only argument a smoke bench takes
/// (default 2).
fn threads_arg() -> usize {
    let mut threads = 2;
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
    threads
}
