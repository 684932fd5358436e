//! Contract tests for the declarative sweep runner (DESIGN.md §4g):
//! byte-identical output across reruns, worker counts, and
//! kill-and-resume splits, and against the committed smoke sweep, plus
//! the energy-figure invariants every cell reports and the lossless
//! paths of the rack and 10GbE scenarios, which must never retransmit.

use std::fs;
use std::path::{Path, PathBuf};

use mcn_sim::{MetricsSnapshot, SimTime};
use mcn_sweep::runner::{run_sweep, SweepConfig};
use mcn_sweep::scenarios::{rack_iperf_workload, run_cell};
use mcn_sweep::spec::{Axes, Cell, FaultAxis, OptFlags, Scale, SweepSpec, Topology, Workload};

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mcn-sweep-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

/// A 4-cell spec that exercises two engines (single-system and rack)
/// and both a clean and a chaos fault plan, at smoke scale.
fn spec() -> SweepSpec {
    let axes = Axes {
        workloads: vec![
            Workload::Iperf {
                server_on_dimm: false,
            },
            Workload::Kv,
        ],
        topologies: vec![Topology::Single, Topology::Rack],
        faults: vec![FaultAxis::None, FaultAxis::Domains],
        opts: vec![OptFlags {
            level: 3,
            threads: 1,
        }],
    };
    SweepSpec {
        seed: 0x7357,
        scale: Scale::smoke(),
        cells: axes.expand(),
    }
}

fn sweep_json(dir: &Path) -> String {
    fs::read_to_string(dir.join("sweep.json")).expect("sweep.json written")
}

#[test]
fn same_seed_is_byte_identical_across_runs_and_worker_counts() {
    let spec = spec();
    let d1 = tmp_dir("jobs1");
    let d4 = tmp_dir("jobs4");
    run_sweep(&spec, &SweepConfig::new(1, &d1)).expect("jobs=1");
    run_sweep(&spec, &SweepConfig::new(4, &d4)).expect("jobs=4");
    let (a, b) = (sweep_json(&d1), sweep_json(&d4));
    assert!(!a.is_empty());
    assert_eq!(
        a, b,
        "jobs=1 and jobs=4 sweeps must render byte-identically"
    );

    // A rerun over the existing markers must change nothing.
    let again = run_sweep(&spec, &SweepConfig::new(4, &d4)).expect("rerun");
    assert_eq!(again.executed, 0, "rerun must reuse every marker");
    assert_eq!(sweep_json(&d4), a);
    let _ = fs::remove_dir_all(&d1);
    let _ = fs::remove_dir_all(&d4);
}

/// The smoke preset regenerates `results/sweep_smoke.json` byte for
/// byte, so a change that only claims speed shows it moved no number,
/// and a change to the model must regenerate the file in its own diff
/// (`sweep --preset smoke --out DIR`, then copy `DIR/sweep.json`).
#[test]
fn smoke_preset_reproduces_the_committed_sweep_json() {
    let dir = tmp_dir("smoke");
    run_sweep(&SweepSpec::smoke(), &SweepConfig::new(2, &dir)).expect("smoke sweep");
    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/results/sweep_smoke.json");
    let committed = fs::read_to_string(committed).expect("results/sweep_smoke.json");
    assert!(
        sweep_json(&dir) == committed,
        "the smoke sweep no longer matches results/sweep_smoke.json"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn killed_and_resumed_sweep_matches_uninterrupted() {
    let spec = spec();
    let whole = tmp_dir("whole");
    run_sweep(&spec, &SweepConfig::new(2, &whole)).expect("uninterrupted");

    // "Kill" after each single cell: run with limit=1 until done.
    let parts = tmp_dir("parts");
    let mut cfg = SweepConfig::new(2, &parts);
    cfg.limit = Some(1);
    let mut rounds = 0;
    loop {
        let out = run_sweep(&spec, &cfg).expect("partial");
        rounds += 1;
        assert!(rounds <= 16, "sweep never converged");
        if out.executed == 0 && out.remaining == 0 {
            break;
        }
    }
    assert!(rounds > 2, "limit=1 must actually split the sweep");
    assert_eq!(
        sweep_json(&whole),
        sweep_json(&parts),
        "resumed sweep must be byte-identical to uninterrupted"
    );
    let _ = fs::remove_dir_all(&whole);
    let _ = fs::remove_dir_all(&parts);
}

#[test]
fn every_cell_reports_nonzero_energy_figures() {
    let spec = spec();
    let dir = tmp_dir("energy");
    let out = run_sweep(&spec, &SweepConfig::new(2, &dir)).expect("sweep");
    let mut cells_seen = 0;
    for cell in &spec.cells {
        if cell.supported().is_err() {
            continue;
        }
        cells_seen += 1;
        let id = cell.id();
        for leaf in [
            "energy.total_j",
            "energy.energy_per_request_nj",
            "energy.perf_per_watt",
            "energy.avg_power_w",
            "perf",
        ] {
            let v = out
                .merged
                .get(&format!("cells.{id}.{leaf}"))
                .unwrap_or_else(|| panic!("{id} missing {leaf}"))
                .as_f64();
            assert!(v > 0.0, "{id}.{leaf} = {v}, want > 0");
        }
        assert!(
            out.merged.get_u64(&format!("cells.{id}.requests")) > 0,
            "{id} did no work"
        );
    }
    assert!(cells_seen >= 3, "support matrix left too few cells to test");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn energy_grows_with_request_count() {
    let cell = Cell {
        workload: Workload::Iperf {
            server_on_dimm: false,
        },
        topology: Topology::Single,
        fault: FaultAxis::None,
        opt: OptFlags {
            level: 3,
            threads: 1,
        },
    };
    let small = Scale::smoke();
    let big = Scale {
        iperf_bytes: small.iperf_bytes * 4,
        ..small
    };
    let a = run_cell(&cell, &small, 1);
    let b = run_cell(&cell, &big, 1);
    let (req_a, req_b) = (a.get_u64("requests"), b.get_u64("requests"));
    assert!(req_b > req_a, "4x the bytes must mean more delivered KiB");
    let energy = |s: &mcn_sim::MetricsSnapshot| s.get("energy.total_j").unwrap().as_f64();
    assert!(
        energy(&b) > energy(&a),
        "more requests must cost more energy: {} J for {req_a} vs {} J for {req_b}",
        energy(&a),
        energy(&b)
    );
}

/// Every TCP stack in `snap` that retransmitted, timed out or stashed a
/// segment out of order, and how many stacks were checked.
fn lossy_stacks(snap: &MetricsSnapshot) -> (Vec<String>, usize) {
    let mut lossy = Vec::new();
    let mut stacks = 0;
    for stack in snap
        .iter()
        .filter_map(|(p, _)| p.strip_suffix(".stack.tcp.retransmits"))
    {
        stacks += 1;
        for field in ["retransmits", "timeouts", "ooo_segs_in"] {
            let path = format!("{stack}.stack.tcp.{field}");
            let n = snap.get_u64(&path);
            if n > 0 {
                lossy.push(format!("{path} = {n}"));
            }
        }
    }
    (lossy, stacks)
}

/// The rack iperf mix (4 local streams and 1 DIMM → remote-host stream
/// through both NICs and the ToR) with no fault plan is lossless: no
/// stack retransmits, times out or sees a segment out of order, so no
/// run ends on a retransmission timeout.
#[test]
fn lossless_rack_iperf_never_retransmits() {
    for mib in [1, 2, 6, 8] {
        let (mut rack, _) = rack_iperf_workload(3, mib << 20, None);
        assert!(
            rack.run_parallel(SimTime::from_secs(10), 1),
            "{mib} MiB stalled"
        );
        let (lossy, stacks) = lossy_stacks(&MetricsSnapshot::collect(&rack));
        assert_eq!(stacks, 6, "2 hosts and 4 DIMMs");
        assert!(lossy.is_empty(), "{mib} MiB per stream: {lossy:?}");
        assert!(
            rack.now() < SimTime::from_ms(20),
            "{mib} MiB ended at {}",
            rack.now()
        );
    }
}

/// The Fig. 8(a) 10GbE anchor cell, 4 clients streaming into one server
/// over plain NICs and a switch, is lossless too.
#[test]
fn lossless_10gbe_iperf_cell_never_retransmits() {
    let cell = Cell {
        workload: Workload::Iperf {
            server_on_dimm: false,
        },
        topology: Topology::Cluster,
        fault: FaultAxis::None,
        opt: OptFlags {
            level: 0,
            threads: 1,
        },
    };
    assert_eq!(cell.id(), "iperf-cluster-none-mcn0_t1");
    let (lossy, stacks) = lossy_stacks(&run_cell(&cell, &Scale::smoke(), SweepSpec::smoke().seed));
    assert_eq!(stacks, 5, "1 server and 4 clients");
    assert!(lossy.is_empty(), "{lossy:?}");
}
