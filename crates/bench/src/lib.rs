//! # mcn-bench — experiment harnesses for every table and figure
//!
//! One function per experiment, shared by the `fig*`/`table*` binaries
//! (which print paper-style rows; see `src/bin/`) and the integration
//! tests. The implementations live in [`mcn_sweep::scenarios`]; this
//! crate re-exports them under their historical names. The declarative
//! sweep runner (`--bin sweep`) does not call the figure helpers: its
//! cells run private per-cell functions of the same module, which seed
//! and meter differently (e.g. [`workload_mcn`] seeds its ranks with
//! `0xC0FFEE`, a cell with its derived seed; [`iperf_mcn`] meters after
//! a 2 ms warm-up, a cell from zero), so a figure row and the matching
//! cell can differ. Only the rack and datacenter builders
//! ([`rack_iperf_workload`], [`kv_rack_workload`], [`kv_dc_workload`])
//! are shared by a bench binary and the sweep. The mapping to the paper:
//!
//! | artifact | function | binary |
//! |----------|----------|--------|
//! | Table I  | [`mcn::SystemConfig::render_table1`] | `table1` |
//! | Table II | [`mcn::SystemConfig::render_table2`] | `table2` |
//! | Fig 8(a) | [`iperf_mcn`] / [`iperf_10gbe`] | `fig8a` |
//! | Fig 8(b) | [`ping_mcn`] / [`ping_10gbe`] (host-mcn) | `fig8b` |
//! | Fig 8(c) | [`ping_mcn`] (mcn-mcn) | `fig8c` |
//! | Table III| [`table3_10gbe`] / [`table3_mcn`] | `table3` |
//! | Fig 9    | [`workload_mcn`] / [`workload_conventional`] | `fig9` |
//! | Fig 10   | the same plus [`mcn_energy::cluster_energy`] | `fig10` |
//! | Fig 11   | [`workload_scaleup`] / [`workload_mcn`] | `fig11` |
//! | sweep cells for the above + serving + datacenter | [`mcn_sweep::run_sweep`] | `sweep` |
//!
//! Criterion micro-benchmarks of the substrates live in `benches/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mcn_sweep::scenarios::{
    iperf_10gbe, iperf_mcn, iperf_mcn_custom, kv_dc_workload, kv_rack_workload, ping_10gbe,
    ping_mcn, rack_iperf_workload, riser, table3_10gbe, table3_mcn, workload_cluster,
    workload_conventional, workload_mcn, workload_mcn_cfg, workload_scaleup, IperfResult,
    KvDcParams, KvRackChaos, KvRackParams, LatencyBreakdown, McnMode, WorkloadResult,
};
