//! Fig. 8(b): host↔MCN ping RTT across payload sizes, normalized to the
//! RTT of a 16-byte ping between two 10GbE hosts, rendered from a paper
//! sweep's `sweep.json` (argument; default `sweep-out/sweep.json`).
fn main() {
    mcn_bench::render_main(mcn_bench::fig8b);
}
