//! iperf over the memory channel vs 10GbE — a miniature of Fig. 8(a).
//!
//! Two clients stream 4 MiB each into one server, with identical
//! application code on three different "wires": a 3-node 10GbE
//! `EthernetCluster` (the paper's baseline, wire-limited at ~10 Gbps),
//! then a 2-DIMM `McnSystem` at optimisation levels mcn0 (unoptimised),
//! mcn3 (+ALERT_N, checksum bypass, 9 KB MTU) and mcn5 (+TSO, MCN-DMA)
//! — Table I's ladder. The printout shows each MCN level's bandwidth as
//! a multiple of the 10GbE run, the paper's Fig. 8(a) normalisation.
//! The full figure (1 server + 4 clients, every level, host↔MCN and
//! MCN↔MCN) comes from the paper sweep's cells: `cargo run --release -p
//! mcn-bench --bin sweep -- --preset paper`, then `--bin fig8a` renders it.
//!
//! Run with: `cargo run --release --example iperf_demo`

use mcn::{ComponentExt, EthernetCluster, McnConfig, McnSystem, SystemConfig};
use mcn_mpi::{IperfClient, IperfReport, IperfServer};
use mcn_sim::SimTime;

const BYTES: u64 = 4 << 20;

fn over_mcn(level: u32) -> f64 {
    let mut sys = McnSystem::new(&SystemConfig::default(), 2, McnConfig::level(level));
    let srv = IperfReport::shared();
    sys.spawn_host(
        Box::new(IperfServer::new(5001, 2, SimTime::from_ms(1), srv.clone())),
        0,
    );
    let dst = sys.host_rank_ip();
    for d in 0..2 {
        sys.spawn_dimm(
            d,
            Box::new(IperfClient::new(dst, 5001, BYTES, IperfReport::shared())),
            1,
        );
    }
    assert!(sys.run_until_procs_done(SimTime::from_secs(5)));
    let g = srv.lock().meter.gbps();
    g
}

fn over_10gbe() -> f64 {
    let mut c = EthernetCluster::new(&SystemConfig::default(), 3);
    let srv = IperfReport::shared();
    c.spawn(
        0,
        Box::new(IperfServer::new(5001, 2, SimTime::from_ms(1), srv.clone())),
        0,
    );
    for i in 1..=2 {
        c.spawn(
            i,
            Box::new(IperfClient::new(
                EthernetCluster::ip_of(0),
                5001,
                BYTES,
                IperfReport::shared(),
            )),
            1,
        );
    }
    assert!(c.run_until_procs_done(SimTime::from_secs(5)));
    let g = srv.lock().meter.gbps();
    g
}

fn main() {
    println!(
        "iperf, 2 clients -> 1 server, {} MB per client:\n",
        BYTES >> 20
    );
    let eth = over_10gbe();
    println!("10GbE cluster:        {eth:>6.2} Gbps   (wire-limited)");
    for level in [0u32, 3, 5] {
        let g = over_mcn(level);
        println!(
            "MCN server at mcn{level}:  {g:>6.2} Gbps   ({:.2}x of 10GbE)",
            g / eth
        );
    }
    println!("\nSame iperf code everywhere; only the 'wire' changed.");
}
