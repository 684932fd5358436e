//! Quantifies the paper's Sec. VII discussion points on this model:
//!
//! * TCP ACK traffic overhead (paper: "sending and receiving ACK messages
//!   incurs up to ~25% overhead in a TCP connection"),
//! * the theoretical MCN ceiling of a single memory channel (paper:
//!   "maximum theoretical MCN bandwidth is 12.8 GB/s ... more than
//!   100 Gbps" — our Table II channel is DDR4-3200),
//! * TCP slow-start ramp time (paper: "sometimes takes several seconds to
//!   reach the full bandwidth utilization" on real WAN-tuned stacks; on
//!   microsecond-RTT MCN links the ramp is far shorter).
use mcn::{ComponentExt, McnConfig, McnSystem, SystemConfig};
use mcn_dram::DramConfig;
use mcn_mpi::{IperfClient, IperfReport, IperfServer};
use mcn_sim::SimTime;

fn main() {
    // --- ACK overhead ----------------------------------------------------
    let cfg = SystemConfig::default();
    let mut sys = McnSystem::new(&cfg, 1, McnConfig::level(2));
    let srv = IperfReport::shared();
    sys.spawn_host(
        Box::new(IperfServer::new(5001, 1, SimTime::from_ms(1), srv.clone())),
        0,
    );
    let dst = sys.host_rank_ip();
    sys.spawn_dimm(
        0,
        Box::new(IperfClient::new(dst, 5001, 8 << 20, IperfReport::shared())),
        1,
    );
    assert!(sys.run_until_procs_done(SimTime::from_secs(5)));
    let host = sys.host.stack.tcp_totals();
    let dimm = sys.dimm(0).node.stack.tcp_totals();
    let data = dimm.data_segs_out as f64;
    let acks = host.acks_out as f64;
    // Each ACK costs roughly tcp_ack + driver work on both ends; each data
    // segment costs the full rx path. Estimate the ACK share of total
    // protocol work from the cost model.
    let c = mcn_node::CostModel::host();
    let ack_cost = 2.0 * (c.tcp_ack() + c.driver_rx()).as_ns_f64();
    let data_cost = (c.tcp_rx(1448, false) + c.tcp_tx(1448, false) + c.driver_rx() * 2).as_ns_f64();
    let overhead = acks * ack_cost / (data * data_cost);
    println!("== ACK overhead (Sec. VII) ==");
    println!(
        "data segments: {data:.0}, pure ACKs: {acks:.0} ({:.0}% of frames)",
        100.0 * acks / (acks + data)
    );
    println!(
        "estimated ACK share of protocol CPU work: {:.0}%  (paper: up to ~25%)",
        100.0 * overhead
    );

    // --- theoretical ceiling ----------------------------------------------
    let peak = DramConfig::ddr4_3200().peak_bytes_per_sec();
    println!("\n== single-channel ceiling (Sec. VII) ==");
    println!(
        "one DDR4-3200 channel: {:.1} GB/s = {:.0} Gbps (paper quotes 12.8 GB/s for its\nchannel; either way the channel is never the MCN bottleneck — software is)",
        peak / 1e9,
        peak * 8.0 / 1e9
    );

    // --- slow start ramp ---------------------------------------------------
    let mut sys = McnSystem::new(&cfg, 1, McnConfig::level(3));
    let srv = IperfReport::shared();
    sys.spawn_host(
        Box::new(IperfServer::new(5001, 1, SimTime::ZERO, srv.clone())),
        0,
    );
    let dst = sys.host_rank_ip();
    sys.spawn_dimm(
        0,
        Box::new(IperfClient::new(dst, 5001, 4 << 20, IperfReport::shared())),
        1,
    );
    // Sample the served bytes at checkpoints to see the ramp.
    println!("\n== TCP ramp on a microsecond-RTT link ==");
    let mut last = 0u64;
    for ms in 1..=5u64 {
        sys.run_until(SimTime::from_ms(ms));
        let b = srv.lock().meter.bytes();
        println!(
            "t={ms} ms: {:.2} Gbps instantaneous",
            (b - last) as f64 * 8.0 / 1e6 / 1.0
        );
        last = b;
    }
}
