//! # mcn-bench — the paper's tables and figures
//!
//! The `fig*` binaries render the paper's figures from the cells of a
//! merged paper sweep (`sweep --preset paper` writes
//! [`DEFAULT_SWEEP`]): every number they print is
//! `cells.<id>.{perf,rtt_ns,elapsed_ps,energy.total_j}` of a named cell,
//! and they build no system. The other binaries simulate on their own.
//! The mapping to the paper:
//!
//! | artifact | source | binary |
//! |----------|--------|--------|
//! | Table I  | [`mcn::SystemConfig::render_table1`] | `table1` |
//! | Table II | [`mcn::SystemConfig::render_table2`] | `table2` |
//! | Fig 8(a) | cells `iperf-single-*`, `iperfmm-single-*`, `iperf-cluster-*` | `fig8a` |
//! | Fig 8(b) | cells `ping_b<bytes>-single-*`, `ping_b<bytes>-cluster-*` | `fig8b` |
//! | Fig 8(c) | cells `pingmm_b<bytes>-single-*`, `ping_b<bytes>-cluster-*` | `fig8c` |
//! | Table III| one TCP packet per size, simulated by the binary | `table3` |
//! | Fig 9    | cells `conv_<w>-*`, `npb_<w>_d<dimms>-*` | `fig9` |
//! | Fig 10   | cells `npb_<w>_d<dimms>_h8r4-*`, `clus_<w>_n<nodes>r8-*` | `fig10` |
//! | Fig 11   | cells `scaleup_<w>_c<cores>-*`, `npb_<w>_d<dimms>_h4r4-*` | `fig11` |
//! | every cell above + serving + datacenter | [`mcn_sweep::run_sweep`] | `sweep` |
//!
//! The three CI smoke benches, `engine_bench`, `serving_bench` and
//! `dc_bench`, share one driver, [`smoke`]: it runs each workload on one
//! worker and on `--threads N`, gates on byte-identical registries and
//! writes the bench's `BENCH_*.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod smoke;

use std::process::exit;

use mcn_sim::metrics::MetricsSnapshot;
use mcn_sweep::{Cell, FaultAxis, OptFlags, Topology, Workload};

/// Where `sweep` writes its merged tree unless told otherwise.
pub const DEFAULT_SWEEP: &str = "sweep-out/sweep.json";

/// A figure renderer over a merged sweep tree: the figure's text, or
/// the first path it lacks.
pub type Render = fn(&MetricsSnapshot) -> Result<String, String>;

/// `cells.<id>.<leaf>` of a merged sweep tree as a number; the missing
/// path is the error.
fn get(tree: &MetricsSnapshot, id: &str, leaf: &str) -> Result<f64, String> {
    let path = format!("cells.{id}.{leaf}");
    tree.get(&path).map(|v| v.as_f64()).ok_or(path)
}

/// The whole of a `fig*` binary: renders from the merged tree named by
/// the only argument (default [`DEFAULT_SWEEP`]) and prints it, or
/// exits 2 naming the unreadable file or the missing cell.
pub fn render_main(render: Render) {
    let mut args = std::env::args();
    let bin = args.next().unwrap_or_default();
    let path = args.next().unwrap_or_else(|| DEFAULT_SWEEP.into());
    let fail = |why: String| -> ! {
        eprintln!(
            "{why}\nthe paper preset writes every figure cell: \
             cargo run --release -p mcn-bench --bin sweep -- --preset paper \
             (merged tree: {DEFAULT_SWEEP})"
        );
        exit(2)
    };
    if args.next().is_some() {
        fail(format!("usage: {bin} [SWEEP_JSON]"));
    }
    let tree = std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|text| MetricsSnapshot::parse_flat_json(&text))
        .unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
    match render(&tree) {
        Ok(text) => print!("{text}"),
        Err(missing) => fail(format!("{path} has no {missing}")),
    }
}

/// The id of a clean single-worker cell.
fn id(workload: Workload, topology: Topology, level: u32) -> String {
    let opt = OptFlags { level, threads: 1 };
    Cell {
        workload,
        topology,
        fault: FaultAxis::None,
        opt,
    }
    .id()
}

/// The id of a clean cell on one MCN server at `level`.
fn single(workload: Workload, level: u32) -> String {
    id(workload, Topology::Single, level)
}

/// The id of a clean 10GbE cluster cell.
fn cluster(workload: Workload) -> String {
    id(workload, Topology::Cluster, 0)
}

fn npb(name: &str, dimms: usize, host_ranks: usize, per_dimm: usize) -> Workload {
    Workload::Npb {
        name: name.into(),
        dimms,
        host_ranks,
        per_dimm,
    }
}

/// Fig. 8(a): iperf bandwidth at mcn0..mcn5, host-mcn and mcn-mcn,
/// normalized to the 10GbE baseline.
pub fn fig8a(tree: &MetricsSnapshot) -> Result<String, String> {
    let base = get(
        tree,
        &cluster(Workload::Iperf {
            server_on_dimm: false,
        }),
        "perf",
    )?;
    let mut out = format!("Fig 8(a): iperf bandwidth normalized to 10GbE ({base:.2} Gbps)\n");
    out += &format!(
        "{:<6} {:>12} {:>12} | {:>12} {:>12}\n",
        "level", "host-mcn", "(norm)", "mcn-mcn", "(norm)"
    );
    for level in 0..=5 {
        let h = get(
            tree,
            &single(
                Workload::Iperf {
                    server_on_dimm: false,
                },
                level,
            ),
            "perf",
        )?;
        let m = get(
            tree,
            &single(
                Workload::Iperf {
                    server_on_dimm: true,
                },
                level,
            ),
            "perf",
        )?;
        out += &format!(
            "mcn{level:<3} {h:>9.2} Gb {:>11.2}x | {m:>9.2} Gb {:>11.2}x\n",
            h / base,
            m / base
        );
    }
    out += "\npaper (host-mcn): mcn0 1.30x .. mcn5 4.56x; mcn-mcn 10-20% lower at mcn3..5\n";
    Ok(out)
}

/// Fig. 8(b)/(c): ping RTT across payload sizes at mcn0/1/5, normalized
/// to the 16-byte 10GbE RTT.
fn ping_figure(tree: &MetricsSnapshot, dimm_to_dimm: bool) -> Result<String, String> {
    let eth = |payload| {
        let ping = Workload::Ping {
            dimm_to_dimm: false,
            payload,
        };
        get(tree, &cluster(ping), "rtt_ns")
    };
    let mcn = |payload, level| {
        let ping = Workload::Ping {
            dimm_to_dimm,
            payload,
        };
        get(tree, &single(ping, level), "rtt_ns")
    };
    let base = eth(16)?;
    let (fig, mode) = if dimm_to_dimm {
        ("8(c)", "mcn-mcn")
    } else {
        ("8(b)", "host-mcn")
    };
    let mut out = format!(
        "Fig {fig}: {mode} ping RTT normalized to 10GbE 16B RTT ({:.3} us)\n",
        base / 1e3
    );
    out += &format!(
        "{:<8} {:>10} {:>10} {:>10} {:>10}\n",
        "payload", "10GbE", "mcn0", "mcn1", "mcn5"
    );
    for payload in [16, 256, 1024, 4096, 8192] {
        out += &format!("{payload:<8} {:>10.2}", eth(payload)? / base);
        for level in [0, 1, 5] {
            out += &format!(" {:>10.2}", mcn(payload, level)? / base);
        }
        out += "\n";
    }
    out += if dimm_to_dimm {
        "\npaper: mcn5 reduces mcn-mcn RTT by 52-79% across packet sizes\n"
    } else {
        "\npaper: mcn0 reduces host-mcn RTT by 62-75% across packet sizes\n"
    };
    Ok(out)
}

/// Fig. 8(b): host↔MCN ping RTT across payload sizes.
pub fn fig8b(tree: &MetricsSnapshot) -> Result<String, String> {
    ping_figure(tree, false)
}

/// Fig. 8(c): MCN↔MCN ping RTT (through the host forwarding engine).
pub fn fig8c(tree: &MetricsSnapshot) -> Result<String, String> {
    ping_figure(tree, true)
}

/// Fig. 9: aggregate DRAM bandwidth of an MCN server with 2/4/6/8 DIMMs
/// (8 host ranks + 3 per DIMM), normalized to a conventional server.
pub fn fig9(tree: &MetricsSnapshot) -> Result<String, String> {
    let mut out =
        String::from("Fig 9: aggregate memory bandwidth, normalized to a conventional server\n");
    out += &format!(
        "{:<10} {:>10} {:>8} {:>8} {:>8} {:>8}\n",
        "workload", "conv GB/s", "2", "4", "6", "8"
    );
    let mut log_sums = [0.0f64; 4];
    let specs = mcn_mpi::WorkloadSpec::all();
    for spec in &specs {
        let base = get(tree, &single(npb(spec.name, 0, 8, 0), 0), "perf")?;
        out += &format!("{:<10} {:>10.2}", spec.name, base / 1e9);
        for (sum, dimms) in log_sums.iter_mut().zip([2, 4, 6, 8]) {
            let norm = get(tree, &single(npb(spec.name, dimms, 8, 3), 3), "perf")? / base;
            *sum += norm.ln();
            out += &format!(" {norm:>8.2}");
        }
        out += "\n";
    }
    out += &format!("{:<10} {:>10}", "geomean", "");
    for sum in log_sums {
        out += &format!(" {:>8.2}", (sum / specs.len() as f64).exp());
    }
    out += "\n\npaper: average 1.76x / 2.6x / 3.3x / 3.9x for 2/4/6/8 DIMMs (max 8.17x)\n";
    Ok(out)
}

/// Fig. 10: energy of an MCN server with 2/4/6/8 DIMMs (8 host ranks +
/// 4 per DIMM) relative to a 10GbE cluster of 2/3/4/5 8-rank nodes, the
/// same rank count.
pub fn fig10(tree: &MetricsSnapshot) -> Result<String, String> {
    let pairs = [(2, 2), (4, 3), (6, 4), (8, 5)];
    let mut out =
        String::from("Fig 10: MCN server energy relative to an equal-core 10GbE cluster\n");
    out += &format!("{:<10}", "workload");
    for (dimms, nodes) in pairs {
        out += &format!(" {:>14}", format!("{dimms}d/{nodes}n"));
    }
    out += "\n";
    let workloads = ["cg", "mg", "sort"];
    let mut sums = [0.0f64; 4];
    for name in workloads {
        out += &format!("{name:<10}");
        for (sum, (dimms, nodes)) in sums.iter_mut().zip(pairs) {
            let mcn = get(tree, &single(npb(name, dimms, 8, 4), 3), "energy.total_j")?;
            let nodes = Workload::NpbCluster {
                name: name.into(),
                nodes,
                per_node: 8,
            };
            let ratio = mcn / get(tree, &cluster(nodes), "energy.total_j")?;
            *sum += ratio;
            out += &format!(" {ratio:>14.2}");
        }
        out += "\n";
    }
    out += &format!("{:<10}", "average");
    for sum in sums {
        let avg = sum / workloads.len() as f64;
        out += &format!(" {avg:>9.2} (-{:>2.0}%)", (1.0 - avg) * 100.0);
    }
    out += "\n\npaper: MCN consumes 23.5% / 37.7% / 45.5% / 57.5% less energy than 2/3/4/5 nodes\n";
    Ok(out)
}

/// Fig. 11: NPB execution time on a scale-up server (4/8/12/16 cores)
/// and on an MCN server (4-core host + 0/1/2/3 DIMMs, 4 ranks each),
/// normalized to the 4-core conventional server.
pub fn fig11(tree: &MetricsSnapshot) -> Result<String, String> {
    let mut out =
        String::from("Fig 11: NPB execution time normalized to a 4-core conventional server\n");
    out += &format!(
        "{:<6} {:>22} {:>26}\n",
        "bench", "scale-up 4/8/12/16 cores", "MCN 0/1/2/3 DIMMs"
    );
    for name in ["ep", "cg", "mg"] {
        let scaleup = |cores| {
            let w = Workload::NpbScaleUp {
                name: name.into(),
                cores,
            };
            get(tree, &single(w, 0), "elapsed_ps")
        };
        let base = scaleup(4)?;
        out += &format!("{name:<6}");
        for cores in [4, 8, 12, 16] {
            out += &format!(" {:>5.2}", scaleup(cores)? / base);
        }
        out += &format!(" {:>6} {:>5.2}", "", 1.0);
        for dimms in 1..=3 {
            let mcn = get(tree, &single(npb(name, dimms, 4, 4), 3), "elapsed_ps")?;
            out += &format!(" {:>5.2}", mcn / base);
        }
        out += "\n";
    }
    out += "\npaper: MCN with 1/2/3 DIMMs improves NPB time by 27.2%/42.9%/45.3% on average\n";
    out += "       vs the equal-core scale-up; ep gains nothing; cg loses with 1 DIMM\n";
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcn_sim::MetricSink;
    use mcn_sweep::SweepSpec;

    /// Every cell a renderer reads is a supported paper-preset cell:
    /// each figure renders from a tree holding exactly those cells.
    #[test]
    fn renderers_read_only_supported_paper_cells() {
        let mut sink = MetricSink::new();
        for cell in SweepSpec::paper()
            .cells
            .iter()
            .filter(|c| c.supported().is_ok())
        {
            for leaf in ["perf", "rtt_ns", "elapsed_ps", "energy.total_j"] {
                sink.value(&format!("cells.{}.{leaf}", cell.id()), 1.0);
            }
        }
        let tree = sink.finish();
        let figures: [(&str, Render); 6] = [
            ("fig8a", fig8a),
            ("fig8b", fig8b),
            ("fig8c", fig8c),
            ("fig9", fig9),
            ("fig10", fig10),
            ("fig11", fig11),
        ];
        for (name, render) in figures {
            if let Err(missing) = render(&tree) {
                panic!("{name} reads {missing}, which the paper preset does not produce");
            }
        }
        let empty = MetricSink::new().finish();
        assert_eq!(
            fig8a(&empty),
            Err("cells.iperf-cluster-none-mcn0_t1.perf".to_string())
        );
    }
}
