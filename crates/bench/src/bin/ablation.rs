//! Ablation studies of design choices called out in DESIGN.md:
//!
//! 1. **Address interleaving**: bank-group-interleaved vs naive
//!    row-bank-column mapping — simulated streaming bandwidth.
//! 2. **Polling interval** (mcn0): bandwidth/latency trade of the HR-timer
//!    period.
//! 3. **CPU copy vs MCN-DMA**: the isolated effect of the `dma` flag at
//!    9KB MTU (other mcn4 features held constant).
//! 4. **SRAM ring sizing**: throughput vs ring capacity at mcn4 (TSO needs
//!    headroom for 60 KB chunks).
//! 5. **Sec. VII future work**: the stack-bypassing direct-message channel
//!    vs the TCP/ICMP path (one-way latency of a small message).
use mcn::{ComponentExt, McnConfig, McnSystem, SystemConfig};
use mcn_dram::{DramConfig, Interleave};
use mcn_mpi::{IperfClient, IperfReport, IperfServer};
use mcn_node::mem::{Access, MemorySystem, Transfer};
use mcn_sim::SimTime;

/// Goodput in Gbit/s of four 6 MiB iperf streams, one from each DIMM of
/// a 4-DIMM server into its host, metered after a 2 ms warm-up.
fn iperf_gbps(cfg: &SystemConfig, mcn: McnConfig) -> f64 {
    let n_dimms = 4;
    let mut sys = McnSystem::new(cfg, n_dimms, mcn);
    let srv = IperfReport::shared();
    let warmup = SimTime::from_ms(2);
    sys.spawn_host(
        Box::new(IperfServer::new(5001, n_dimms, warmup, srv.clone())),
        0,
    );
    let dst = sys.host_rank_ip();
    for d in 0..n_dimms {
        let client = IperfClient::new(dst, 5001, 6 << 20, IperfReport::shared());
        sys.spawn_dimm(d, Box::new(client), 1);
    }
    assert!(
        sys.run_until_procs_done(SimTime::from_secs(10)),
        "iperf {mcn} stalled"
    );
    let gbps = srv.lock().meter.gbps();
    gbps
}

fn stream_bw(il: Interleave) -> f64 {
    let mut ms = MemorySystem::with_interleave(&DramConfig::ddr4_3200(), 1, il);
    let bytes = 4u64 << 20;
    ms.start_with_mlp(
        Transfer::Stream {
            start: 0,
            bytes,
            read_frac: 1.0,
            access: Access::Seq,
        },
        0,
        16,
        SimTime::ZERO,
    );
    let mut last = SimTime::ZERO;
    while ms.busy() {
        let Some(t) = ms.next_event() else { break };
        ms.advance(t);
        last = t;
    }
    bytes as f64 / last.as_secs_f64()
}

fn main() {
    println!("== Ablation 1: address interleaving (single-channel stream) ==");
    let bg = stream_bw(Interleave::BgInterleaved);
    let naive = stream_bw(Interleave::RowBankCol);
    println!("bank-group interleaved: {:.2} GB/s", bg / 1e9);
    println!(
        "naive row-bank-col:     {:.2} GB/s  ({:.2}x slower)",
        naive / 1e9,
        bg / naive
    );

    println!("\n== Ablation 2: mcn0 polling interval ==");
    for us in [1u64, 2, 4, 8] {
        let cfg = SystemConfig {
            poll_interval: SimTime::from_us(us),
            ..SystemConfig::default()
        };
        let gbps = iperf_gbps(&cfg, McnConfig::level(0));
        println!("poll every {us} us: {gbps:.2} Gbps");
    }

    println!("\n== Ablation 3: CPU copies vs MCN-DMA (at 9KB MTU + TSO) ==");
    let cfg = SystemConfig::default();
    let mut c4 = McnConfig::level(4);
    let cpu = iperf_gbps(&cfg, c4);
    c4.dma = true;
    let dma = iperf_gbps(&cfg, c4);
    println!("CPU copies: {cpu:.2} Gbps");
    println!(
        "MCN-DMA:    {dma:.2} Gbps  (+{:.0}%)",
        (dma / cpu - 1.0) * 100.0
    );

    println!("\n== Ablation 4: SRAM ring capacity (mcn4) ==");
    for kb in [72usize, 96, 160, 256] {
        let cfg = SystemConfig {
            sram_ring_bytes: kb * 1024,
            ..SystemConfig::default()
        };
        let gbps = iperf_gbps(&cfg, McnConfig::level(4));
        println!("{kb:>4} KB rings: {gbps:.2} Gbps");
    }
    println!("\n== Ablation 5: Sec. VII user-space bypass vs the stack ==");
    let mut sys = McnSystem::new(&SystemConfig::default(), 1, McnConfig::level(1));
    // Direct one-way: host -> DIMM.
    let t0 = sys.now();
    sys.direct_send(0, bytes::Bytes::from(vec![1u8; 56]), t0);
    while sys.dimm_mut(0).direct_rx.is_empty() {
        assert!(sys.step());
    }
    let (at, _) = sys.dimm_mut(0).direct_rx.pop_front().unwrap();
    let direct = at - t0;
    // Full-stack one-way approximated as half the ICMP RTT.
    let t1 = sys.now();
    let dimm_ip = sys.dimm_ip(0);
    sys.host
        .stack
        .send_ping(dimm_ip, 3, 1, bytes::Bytes::from(vec![0u8; 56]), t1)
        .unwrap();
    while sys.host.stack.pop_ping_reply().is_none() {
        assert!(sys.step());
    }
    let icmp_half = (sys.now() - t1) / 2;
    println!("direct message, 56B one-way: {direct}");
    println!("TCP/IP stack,  56B one-way: ~{icmp_half} (half ICMP RTT)");
    println!(
        "bypass saves {:.0}% — the shared-memory-channel future work of Sec. VII",
        (1.0 - direct.as_ns_f64() / icmp_half.as_ns_f64()) * 100.0
    );
}
