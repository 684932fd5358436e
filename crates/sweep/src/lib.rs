//! Declarative scenario sweeps over the MCN simulator.
//!
//! A sweep names values along four axes — workload, topology, fault
//! plan, and optimisation flags — and this crate expands the cross
//! product, drops the combinations the simulator does not model
//! ([`Cell::supported`]), runs every remaining cell as an independent
//! deterministic simulation, and merges the per-cell metric snapshots
//! into one result tree. Axes come either from the built-in presets
//! ([`SweepSpec::smoke`], [`SweepSpec::paper`]) or from a plain-text
//! `key = value` spec ([`SweepSpec::parse`]) — no external parser
//! dependencies.
//!
//! Three properties the rest of the repo leans on (DESIGN.md §4g):
//!
//! - **Determinism.** A cell's seed is derived from the sweep seed and
//!   the cell id; the same `(spec, seed)` always produces byte-identical
//!   `sweep.json`, at any `--jobs` count.
//! - **Resumability.** Each finished cell leaves a done-marker keyed by
//!   a config hash; a killed sweep rerun picks up exactly where it
//!   stopped, and the final merge cannot tell the difference.
//! - **Uniform figures.** Every cell reports `requests`, `perf`, and
//!   the `energy.*` family (including `energy_per_request_nj` and
//!   `perf_per_watt`), so paper figures and efficiency tables read
//!   straight out of the merged tree.
//!
//! # Example
//!
//! Parse a one-cell spec, run it, and read the merged tree:
//!
//! ```
//! use mcn_sweep::{runner::{run_sweep, SweepConfig}, SweepSpec};
//!
//! let spec = SweepSpec::parse(
//!     "seed = 7\n\
//!      scale = smoke\n\
//!      workloads = iperf\n\
//!      topologies = single\n\
//!      faults = none\n\
//!      levels = 3\n\
//!      threads = 1\n",
//! )
//! .unwrap();
//! assert_eq!(spec.cells.len(), 1);
//! assert_eq!(spec.cells[0].id(), "iperf-single-none-mcn3_t1");
//!
//! let dir = std::env::temp_dir().join(format!("mcn-sweep-doc-{}", std::process::id()));
//! let out = run_sweep(&spec, &SweepConfig::new(1, &dir)).unwrap();
//! let nj = out
//!     .merged
//!     .get("cells.iperf-single-none-mcn3_t1.energy.energy_per_request_nj")
//!     .unwrap()
//!     .as_f64();
//! assert!(nj > 0.0);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

pub mod diff;
pub mod runner;
pub mod scenarios;
pub mod spec;

pub use runner::{run_sweep, SweepConfig, SweepOutcome};
pub use spec::{Axes, Cell, FaultAxis, OptFlags, Scale, SweepSpec, Topology, Workload};
