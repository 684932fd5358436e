//! Fig. 8(a): iperf bandwidth for mcn0..mcn5, host-mcn and mcn-mcn,
//! normalized to the 10GbE baseline, rendered from a paper sweep's
//! `sweep.json` (argument; default `sweep-out/sweep.json`).
fn main() {
    mcn_bench::render_main(mcn_bench::fig8a);
}
