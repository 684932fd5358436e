//! Resumable parallel sweep execution.
//!
//! Every cell runs as an independent simulation and writes one
//! *done-marker* — `cell-{id}-{hash:016x}.json`, the cell's rendered
//! [`MetricsSnapshot`] — into the output directory, where `hash` is
//! [`Cell::config_hash`] over the cell id, its derived seed, the scale
//! fingerprint and the format version. A rerun with the same spec finds
//! the markers and skips the work; changing the sweep seed, the scale,
//! or the cell definition changes the hash, so stale markers are never
//! mistaken for current results.
//!
//! The merged tree is *always* rebuilt by re-reading every marker in
//! axis-expansion order, never from in-memory results, so the merge is
//! independent of worker count, completion order, and how many separate
//! runs it took to finish the sweep: one interrupted-and-resumed sweep
//! and one uninterrupted sweep produce byte-identical `sweep.json`.
//! Marker writes go through a temp file + rename, so a killed run
//! leaves either a complete marker or none.
//!
//! Host time stays out of both: each call writes `wall.txt` beside
//! `sweep.json`, one line per cell in expansion order with the host
//! seconds the cell took in this call, or `reused` when its marker came
//! from an earlier call.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use mcn_sim::{MetricSink, MetricsSnapshot};

use crate::scenarios::run_cell;
use crate::spec::{Cell, SweepSpec, FORMAT_VERSION};

/// Execution knobs for [`run_sweep`].
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Worker threads. Each worker owns one whole cell at a time; the
    /// merged output is identical for any value ≥ 1.
    pub jobs: usize,
    /// Directory for done-markers and the merged `sweep.json`.
    pub out_dir: PathBuf,
    /// Run at most this many not-yet-done cells, then stop (used by the
    /// resume tests and for incremental paper runs). `None` = no limit.
    pub limit: Option<usize>,
}

impl SweepConfig {
    /// `jobs` workers writing into `out_dir`, no cell limit.
    pub fn new(jobs: usize, out_dir: impl Into<PathBuf>) -> SweepConfig {
        SweepConfig {
            jobs: jobs.max(1),
            out_dir: out_dir.into(),
            limit: None,
        }
    }
}

/// What one [`run_sweep`] call did.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Cells simulated by this call.
    pub executed: usize,
    /// Cells whose valid marker was reused.
    pub reused: usize,
    /// Cells skipped as unsupported, with the reason.
    pub skipped: Vec<(String, &'static str)>,
    /// Supported cells still lacking a marker (only nonzero when
    /// `limit` stopped the run early).
    pub remaining: usize,
    /// The merged result tree over every completed cell.
    pub merged: MetricsSnapshot,
    /// Where the merged tree was written (`out_dir/sweep.json`).
    pub merged_path: PathBuf,
}

fn marker_path(out_dir: &Path, cell: &Cell, hash: u64) -> PathBuf {
    out_dir.join(format!("cell-{}-{hash:016x}.json", cell.id()))
}

/// Reads a marker back as a snapshot; `None` when missing or mangled
/// (a mangled marker is treated as absent and the cell re-runs).
fn load_marker(path: &Path) -> Option<MetricsSnapshot> {
    let text = fs::read_to_string(path).ok()?;
    MetricsSnapshot::parse_flat_json(&text).ok()
}

fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("json.tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(contents.as_bytes())?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)
}

/// Runs `spec` under `cfg`: executes every supported cell that lacks a
/// valid done-marker (up to `cfg.limit`), then merges *all* completed
/// markers into `sweep.json`.
///
/// Deterministic end to end: per-cell seeds derive from `spec.seed` and
/// the cell id, and the merge re-reads markers in expansion order, so
/// `sweep.json` is byte-identical across reruns, worker counts, and
/// kill/resume splits.
///
/// # Panics
///
/// A cell that violates a scenario invariant panics its worker; the
/// panic is propagated after the remaining workers drain. Completed
/// markers survive, so a fixed build resumes where it stopped.
pub fn run_sweep(spec: &SweepSpec, cfg: &SweepConfig) -> std::io::Result<SweepOutcome> {
    fs::create_dir_all(&cfg.out_dir)?;

    // Partition the cells: unsupported (skipped), already-done (valid
    // marker), and runnable. `walls` holds each cell's `wall.txt`
    // entry: host seconds or `reused`.
    let mut walls: Vec<Option<String>> = vec![None; spec.cells.len()];
    let mut skipped = Vec::new();
    let mut reused = 0usize;
    let mut runnable: Vec<(usize, u64)> = Vec::new(); // (cell index, hash)
    for (i, cell) in spec.cells.iter().enumerate() {
        if let Err(why) = cell.supported() {
            skipped.push((cell.id(), why));
            continue;
        }
        let hash = cell.config_hash(spec.seed, &spec.scale);
        if load_marker(&marker_path(&cfg.out_dir, cell, hash)).is_some() {
            reused += 1;
            walls[i] = Some("reused".into());
        } else {
            runnable.push((i, hash));
        }
    }
    let remaining_after = cfg.limit.map_or(0, |l| runnable.len().saturating_sub(l));
    if let Some(l) = cfg.limit {
        runnable.truncate(l);
    }
    let executed = runnable.len();

    // Fan the runnable cells out over `jobs` workers. Workers pull from
    // a shared queue; nothing about completion order matters because
    // the merge below re-reads markers in expansion order.
    let queue: Mutex<VecDeque<(usize, u64)>> = Mutex::new(runnable.into());
    let io_err: Mutex<Option<std::io::Error>> = Mutex::new(None);
    let walls = Mutex::new(walls);
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for _ in 0..cfg.jobs.max(1).min(executed.max(1)) {
            handles.push(s.spawn(|| loop {
                let job = queue.lock().expect("queue").pop_front();
                let Some((i, hash)) = job else { break };
                let cell = &spec.cells[i];
                let seed = cell.seed(spec.seed);
                let start = Instant::now();
                let snap = run_cell(cell, &spec.scale, seed);
                let wall_s = start.elapsed().as_secs_f64();
                if let Err(e) =
                    write_atomic(&marker_path(&cfg.out_dir, cell, hash), &snap.to_json())
                {
                    *io_err.lock().expect("io_err") = Some(e);
                    break;
                }
                walls.lock().expect("walls")[i] = Some(format!("{wall_s:.3}"));
            }));
        }
        let mut panic = None;
        for h in handles {
            if let Err(p) = h.join() {
                panic = Some(p);
            }
        }
        if let Some(p) = panic {
            std::panic::resume_unwind(p);
        }
    });
    if let Some(e) = io_err.into_inner().expect("io_err") {
        return Err(e);
    }

    // Merge: re-read every marker in expansion order. Only
    // run-invariant facts go into the tree — notably NOT this call's
    // executed/reused split, which depends on where a resume happened.
    let mut sink = MetricSink::new();
    sink.counter("sweep.format_version", FORMAT_VERSION as u64);
    sink.counter("sweep.seed", spec.seed);
    sink.text("sweep.scale", spec.scale.name);
    sink.counter("sweep.cells_total", spec.cells.len() as u64);
    let mut done = 0u64;
    for cell in &spec.cells {
        let hash = cell.config_hash(spec.seed, &spec.scale);
        if let Some(snap) = load_marker(&marker_path(&cfg.out_dir, cell, hash)) {
            sink.absorb_snapshot(&format!("cells.{}", cell.id()), &snap);
            done += 1;
        }
    }
    sink.counter("sweep.cells_done", done);
    sink.counter("sweep.cells_skipped", skipped.len() as u64);
    for (id, why) in &skipped {
        sink.text(&format!("sweep.skipped.{id}"), why);
    }
    let merged = sink.finish();

    let merged_path = cfg.out_dir.join("sweep.json");
    write_atomic(&merged_path, &merged.to_json())?;

    let mut wall_txt = String::from("# cell  host seconds in this run, or reused\n");
    for (cell, wall) in spec.cells.iter().zip(walls.into_inner().expect("walls")) {
        if let Some(wall) = wall {
            writeln!(wall_txt, "{} {wall}", cell.id()).expect("write to String");
        }
    }
    fs::write(cfg.out_dir.join("wall.txt"), wall_txt)?;
    Ok(SweepOutcome {
        executed,
        reused,
        skipped,
        remaining: remaining_after,
        merged,
        merged_path,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Axes, FaultAxis, OptFlags, Scale, Topology, Workload};

    fn tiny_spec(seed: u64) -> SweepSpec {
        let axes = Axes {
            workloads: vec![
                Workload::Iperf {
                    server_on_dimm: false,
                },
                Workload::Ping {
                    dimm_to_dimm: false,
                    payload: 64,
                },
            ],
            topologies: vec![Topology::Single],
            faults: vec![FaultAxis::None],
            opts: vec![OptFlags {
                level: 3,
                threads: 1,
            }],
        };
        SweepSpec {
            seed,
            scale: Scale::smoke(),
            cells: axes.expand(),
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mcn-sweep-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn markers_make_second_run_a_pure_reuse() {
        let spec = tiny_spec(1);
        let dir = tmp_dir("reuse");
        let cfg = SweepConfig::new(2, &dir);
        let first = run_sweep(&spec, &cfg).expect("first");
        assert_eq!(first.executed, 2);
        assert_eq!(first.reused, 0);
        let second = run_sweep(&spec, &cfg).expect("second");
        assert_eq!(second.executed, 0);
        assert_eq!(second.reused, 2);
        assert_eq!(first.merged.to_json(), second.merged.to_json());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wall_txt_lists_host_seconds_then_reuse_in_expansion_order() {
        let spec = tiny_spec(5);
        let dir = tmp_dir("wall");
        let cfg = SweepConfig::new(2, &dir);
        let lines = |out: SweepOutcome| -> Vec<(String, String)> {
            fs::read_to_string(out.merged_path.with_file_name("wall.txt"))
                .expect("wall.txt written")
                .lines()
                .filter(|l| !l.starts_with('#'))
                .map(|l| {
                    let (id, wall) = l.split_once(' ').expect("two fields");
                    (id.to_string(), wall.to_string())
                })
                .collect()
        };
        let ids: Vec<String> = spec.cells.iter().map(Cell::id).collect();
        let first = lines(run_sweep(&spec, &cfg).expect("first"));
        assert_eq!(
            first.iter().map(|(id, _)| id.clone()).collect::<Vec<_>>(),
            ids
        );
        for (id, wall) in &first {
            let s: f64 = wall.parse().unwrap_or_else(|_| panic!("{id}: {wall}"));
            assert!(s >= 0.0);
        }
        let second = lines(run_sweep(&spec, &cfg).expect("second"));
        assert!(
            second.iter().all(|(_, wall)| wall == "reused"),
            "{second:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn seed_change_invalidates_markers() {
        let dir = tmp_dir("seed");
        let cfg = SweepConfig::new(1, &dir);
        run_sweep(&tiny_spec(1), &cfg).expect("first");
        let out = run_sweep(&tiny_spec(2), &cfg).expect("reseeded");
        assert_eq!(out.executed, 2, "new seed must re-run every cell");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mangled_marker_is_rerun_not_trusted() {
        let spec = tiny_spec(3);
        let dir = tmp_dir("mangle");
        let cfg = SweepConfig::new(1, &dir);
        run_sweep(&spec, &cfg).expect("first");
        let hash = spec.cells[0].config_hash(spec.seed, &spec.scale);
        let marker = marker_path(&dir, &spec.cells[0], hash);
        fs::write(&marker, "{ truncated garbage").expect("mangle");
        let out = run_sweep(&spec, &cfg).expect("second");
        assert_eq!(out.executed, 1, "mangled marker must be re-run");
        assert_eq!(out.reused, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn limit_stops_early_and_reports_remaining() {
        let spec = tiny_spec(4);
        let dir = tmp_dir("limit");
        let mut cfg = SweepConfig::new(1, &dir);
        cfg.limit = Some(1);
        let first = run_sweep(&spec, &cfg).expect("first");
        assert_eq!(first.executed, 1);
        assert_eq!(first.remaining, 1);
        assert_eq!(first.merged.get_u64("sweep.cells_done"), 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
