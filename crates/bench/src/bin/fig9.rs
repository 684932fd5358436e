//! Fig. 9: aggregate DRAM bandwidth utilization of an MCN-enabled server
//! with 2/4/6/8 DIMMs, normalized to a conventional server running the
//! same workload, rendered from a paper sweep's `sweep.json` (argument;
//! default `sweep-out/sweep.json`).
fn main() {
    mcn_bench::render_main(mcn_bench::fig9);
}
