//! Fig. 11: NPB execution time on a scale-up server (4/8/12/16 cores) vs
//! an MCN-enabled server (4-core host + 0/1/2/3 DIMMs), normalized to the
//! 4-core conventional server, rendered from a paper sweep's
//! `sweep.json` (argument; default `sweep-out/sweep.json`).
fn main() {
    mcn_bench::render_main(mcn_bench::fig11);
}
