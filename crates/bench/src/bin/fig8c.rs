//! Fig. 8(c): MCN↔MCN ping RTT (routed through the host forwarding
//! engine), normalized to the 16-byte 10GbE RTT, rendered from a paper
//! sweep's `sweep.json` (argument; default `sweep-out/sweep.json`).
fn main() {
    mcn_bench::render_main(mcn_bench::fig8c);
}
