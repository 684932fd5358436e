//! Table III: end-to-end latency breakdown for transmitting/receiving a
//! single TCP packet (1.5KB and 9KB), 10GbE vs MCN, components
//! normalized to the 10GbE total. Each MCN row names its level: MCN-0
//! for the 1.5KB packet, and MCN-3 (the first level with the 9 KB jumbo
//! MTU) for the 9KB packet, so that each packet is one frame.
use mcn::{ComponentExt, EthernetCluster, McnConfig, McnSystem, SystemConfig};
use mcn_mpi::{IperfClient, IperfReport, IperfServer};
use mcn_net::link::Switch;
use mcn_node::nic::PCIE_LATENCY;
use mcn_sim::SimTime;

/// Mean one-way latency components of one packet, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
struct LatencyBreakdown {
    /// Driver transmit work.
    driver_tx_ns: f64,
    /// DMA from DRAM to the NIC (10GbE only).
    dma_tx_ns: f64,
    /// PCIe + serialization + wire + switch (10GbE only).
    phy_ns: f64,
    /// DMA from the NIC to DRAM (10GbE only).
    dma_rx_ns: f64,
    /// Driver receive work (interrupt/poll → stack delivery).
    driver_rx_ns: f64,
}

impl LatencyBreakdown {
    fn total_ns(&self) -> f64 {
        self.driver_tx_ns + self.dma_tx_ns + self.phy_ns + self.dma_rx_ns + self.driver_rx_ns
    }
}

/// One TCP packet of `payload` bytes over 10GbE, measured from the
/// NIC's histograms plus the NIC, link and switch models' latencies.
fn breakdown_10gbe(payload: u64) -> LatencyBreakdown {
    let cfg = SystemConfig::default();
    let mut c = EthernetCluster::new(&cfg, 2);
    let srv = IperfReport::shared();
    c.spawn(
        0,
        Box::new(IperfServer::new(5001, 1, SimTime::ZERO, srv.clone())),
        0,
    );
    let rep = IperfReport::shared();
    c.spawn(
        1,
        Box::new(IperfClient::new(
            EthernetCluster::ip_of(0),
            5001,
            payload,
            rep,
        )),
        1,
    );
    assert!(c.run_until_procs_done(SimTime::from_secs(1)));
    let tx = &c.node(1).nic.breakdown;
    let rx = &c.node(0).nic.breakdown;
    let wire = payload.min(1514) + 50; // one MTU frame on the wire
    let ser = SimTime::for_bytes(wire, cfg.eth_bytes_per_sec);
    let phy = PCIE_LATENCY
        + ser
        + cfg.eth_latency
        + Switch::new(2).forward_latency
        + ser
        + cfg.eth_latency;
    LatencyBreakdown {
        driver_tx_ns: tx.driver_tx.mean().unwrap_or(SimTime::ZERO).as_ns_f64(),
        dma_tx_ns: tx.dma_tx.mean().unwrap_or(SimTime::ZERO).as_ns_f64(),
        phy_ns: phy.as_ns_f64(),
        dma_rx_ns: rx.dma_rx.mean().unwrap_or(SimTime::ZERO).as_ns_f64(),
        driver_rx_ns: rx.driver_rx.mean().unwrap_or(SimTime::ZERO).as_ns_f64(),
    }
}

/// One TCP packet of `payload` bytes over MCN at `level` (DMA and PHY
/// are zero by construction; that *is* the result).
fn breakdown_mcn(payload: u64, level: u32) -> LatencyBreakdown {
    let mut sys = McnSystem::new(&SystemConfig::default(), 1, McnConfig::level(level));
    let srv = IperfReport::shared();
    sys.spawn_host(
        Box::new(IperfServer::new(5001, 1, SimTime::ZERO, srv.clone())),
        0,
    );
    let dst = sys.host_rank_ip();
    let rep = IperfReport::shared();
    sys.spawn_dimm(0, Box::new(IperfClient::new(dst, 5001, payload, rep)), 1);
    assert!(sys.run_until_procs_done(SimTime::from_secs(1)));
    let mean_ns = |h: &mcn_sim::stats::Histogram| h.mean().unwrap_or(SimTime::ZERO).as_ns_f64();
    LatencyBreakdown {
        driver_tx_ns: mean_ns(&sys.dimm(0).stats.ring.driver_tx),
        driver_rx_ns: mean_ns(&sys.hdrv.stats.ring.driver_rx),
        ..LatencyBreakdown::default()
    }
}

fn main() {
    println!("Table III: latency component breakdown (normalized to the 10GbE total)");
    println!(
        "{:<6} {:<7} {:>10} {:>8} {:>8} {:>8} {:>10} {:>8}",
        "size", "type", "DriverTX", "DMA-TX", "PHY", "DMA-RX", "DriverRX", "Total"
    );
    for (label, payload, mcn_level) in [("1.5KB", 1448u64, 0u32), ("9KB", 8960, 3)] {
        let eth = breakdown_10gbe(payload);
        let total = eth.total_ns();
        let mcn = breakdown_mcn(payload, mcn_level);
        let n = |x: f64| x / total;
        println!(
            "{label:<6} {:<7} {:>10.3} {:>8.3} {:>8.3} {:>8.3} {:>10.3} {:>8.3}",
            "10GbE",
            n(eth.driver_tx_ns),
            n(eth.dma_tx_ns),
            n(eth.phy_ns),
            n(eth.dma_rx_ns),
            n(eth.driver_rx_ns),
            1.0
        );
        println!(
            "{label:<6} {:<7} {:>10.3} {:>8.3} {:>8.3} {:>8.3} {:>10.3} {:>8.3}",
            format!("MCN-{mcn_level}"),
            n(mcn.driver_tx_ns),
            0.0,
            0.0,
            0.0,
            n(mcn.driver_rx_ns),
            n(mcn.total_ns())
        );
    }
    println!("\npaper 1.5KB: 10GbE total 1.0 (PHY 0.479, DriverRX 0.500); MCN-0 total 0.320");
}
