//! Fig. 10: energy of an MCN server with 2/4/6/8 DIMMs vs a 10GbE
//! scale-out cluster with the same rank count (2/3/4/5 nodes), rendered
//! from a paper sweep's `sweep.json` (argument; default
//! `sweep-out/sweep.json`).
fn main() {
    mcn_bench::render_main(mcn_bench::fig10);
}
