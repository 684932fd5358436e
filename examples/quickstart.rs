//! Quickstart: build an MCN-enabled server, move real bytes across the
//! memory channel, and look at the driver statistics.
//!
//! Three acts, mirroring the paper's data path end to end:
//!
//! 1. **UDP host → DIMM** — a datagram leaves the host stack, is chunked
//!    into the DIMM's SRAM RX ring by the host driver (`memcpy_to_mcn`),
//!    and surfaces in the MCN node's stack (forwarding case F2).
//! 2. **TCP DIMM → DIMM** — a byte-exact stream between two MCN nodes,
//!    relayed through the host's forwarding engine (case F3); the ACKs
//!    ride the same rings back.
//! 3. **Statistics** — the driver's frame/forward/ALERT_N counters and
//!    the DDR4 channels' SRAM-vs-DRAM transaction mix, read straight off
//!    the structs. (For the full tree of every counter in the system as
//!    stable dotted paths, see `mcn::MetricsSnapshot` and the
//!    `fault_injection` example's `--json` mode.)
//!
//! Run with: `cargo run --release --example quickstart`

use bytes::Bytes;
use mcn::{ComponentExt, McnConfig, McnSystem, SystemConfig};
use mcn_sim::SimTime;

fn main() {
    // A server with two MCN DIMMs at optimisation level mcn1
    // (ALERT_N interrupts instead of HR-timer polling).
    let mut sys = McnSystem::new(&SystemConfig::default(), 2, McnConfig::level(1));
    println!(
        "built an MCN server with {} DIMMs ({})",
        sys.dimms(),
        sys.config()
    );
    println!("  host-side interface 0: {}", McnSystem::host_if_ip(0));
    println!("  DIMM 0 (MCN node):     {}", sys.dimm_ip(0));

    // --- UDP host → DIMM ------------------------------------------------
    let us = sys.host.stack.udp_bind(5000).expect("bind");
    let ud = sys.dimm_mut(0).node.stack.udp_bind(6000).expect("bind");
    let (dimm_ip, now) = (sys.dimm_ip(0), sys.now());
    sys.host
        .stack
        .udp_send(us, dimm_ip, 6000, Bytes::from(vec![42u8; 1200]), now)
        .expect("send");
    sys.run_until(SimTime::from_us(100));
    let (from, port, data) = sys
        .dimm_mut(0)
        .node
        .stack
        .udp_recv(ud)
        .expect("datagram crossed the memory channel");
    println!(
        "\nUDP: DIMM 0 received {} bytes from {}:{} at t={}",
        data.len(),
        from,
        port,
        sys.now()
    );

    // --- TCP DIMM → DIMM (through the host forwarding engine, F3) -------
    let lst = sys.dimm_mut(1).node.stack.tcp_listen(7777).expect("listen");
    let dimm1_ip = sys.dimm_ip(1);
    let cs = sys
        .dimm_mut(0)
        .node
        .stack
        .tcp_connect(dimm1_ip, 7777, SimTime::ZERO)
        .expect("connect");
    sys.run_until(sys.now() + SimTime::from_ms(1));
    let ss = sys.dimm_mut(1).node.stack.tcp_accept(lst).expect("accept");

    let message = b"memory channel network says hello".repeat(100);
    let mut sent = 0;
    let mut got = Vec::new();
    let mut buf = vec![0u8; 16384];
    while got.len() < message.len() {
        let now = sys.now();
        if sent < message.len() {
            sent += sys
                .dimm_mut(0)
                .node
                .stack
                .tcp_send(cs, &message[sent..], now)
                .expect("send");
        }
        sys.run_until(sys.now() + SimTime::from_us(50));
        loop {
            let now = sys.now();
            let n = sys
                .dimm_mut(1)
                .node
                .stack
                .tcp_recv(ss, &mut buf, now)
                .expect("recv");
            if n == 0 {
                break;
            }
            got.extend_from_slice(&buf[..n]);
        }
    }
    assert_eq!(got, message, "byte-exact delivery");
    println!(
        "TCP: moved {} bytes DIMM0 → host (F3 forward) → DIMM1 by t={}",
        got.len(),
        sys.now()
    );

    // --- statistics ------------------------------------------------------
    println!("\nhost-side driver:");
    println!(
        "  frames into DIMM RX rings: {}",
        sys.hdrv.stats.ring.tx_frames.get()
    );
    println!(
        "  frames out of TX rings:    {}",
        sys.hdrv.stats.ring.rx_frames.get()
    );
    println!(
        "  F1 host deliveries:        {}",
        sys.hdrv.stats.f1_host.get()
    );
    println!(
        "  F3 dimm-to-dimm forwards:  {}",
        sys.hdrv.stats.f3_forward.get()
    );
    println!(
        "  ALERT_N interrupts:        {}",
        sys.hdrv.stats.alerts.get()
    );
    for ch in sys.host.mem.channels() {
        println!(
            "  host channel: {} SRAM transactions, {} DRAM reads, {} writes",
            ch.stats().sram_ops.get(),
            ch.stats().reads.get(),
            ch.stats().writes.get()
        );
    }
}
