//! Deterministic fault injection on the MCN data path: run an iperf
//! stream while the SRAM rings drop and corrupt frames, ALERT_N edges go
//! missing and MCN-DMA transfers stall — then read the recovery work off
//! the metrics registry.
//!
//! Run with:
//! `cargo run --release --example fault_injection [seed] [drop_rate] [--outage] [--json]`
//!
//! The defaults (`seed=7`, `drop_rate=0.01`) finish byte-complete; crank
//! the rate (e.g. `0.9`) to watch the run stall and print the stall
//! report instead. With `--outage`, the DIMM additionally hard-crashes
//! mid-run and reboots 5 ms later — the run still finishes byte-complete
//! and the re-init handshake counters are printed. With `--json`, the
//! full [`MetricsSnapshot`] of the system (plus the iperf report under
//! `iperf_server.*`) is emitted instead of the human-readable summary.

use mcn::outage::{OutagePlan, Part};
use mcn::{
    ComponentExt, Instrumented, McnConfig, McnSystem, MetricSink, MetricsSnapshot, SystemConfig,
};
use mcn_mpi::{IperfClient, IperfReport, IperfServer};
use mcn_sim::fault::{FaultKind, FaultPlan};
use mcn_sim::SimTime;

const BYTES: u64 = 1 << 20;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut flag = |name: &str| {
        if let Some(i) = args.iter().position(|a| a == name) {
            args.remove(i);
            true
        } else {
            false
        }
    };
    let outage = flag("--outage");
    let json = flag("--json");
    let mut args = args.into_iter();
    let seed: u64 = args.next().map_or(7, |a| a.parse().expect("seed"));
    let drop: f64 = args.next().map_or(0.01, |a| a.parse().expect("drop rate"));

    let mut plan = FaultPlan::new(seed);
    for comp in [
        McnSystem::sram_host_fault_component(0, 0),
        McnSystem::sram_dimm_fault_component(0, 0),
    ] {
        plan.rate(&comp, FaultKind::Drop, drop);
        plan.rate(&comp, FaultKind::BitFlip, drop / 2.0);
    }
    plan.rate(&McnSystem::alert_fault_component(0), FaultKind::Drop, 0.25);
    plan.rate(&McnSystem::dma_fault_component(0), FaultKind::Stall, 0.02);

    // Checksums stay on so every ECC escape is caught; conventional MTU so
    // per-frame rates mean what they do on a wire.
    let cfg = McnConfig {
        alert_interrupt: true,
        checksum_bypass: false,
        jumbo_mtu: false,
        tso: false,
        dma: true,
    };
    let mut sys = McnSystem::with_faults(&SystemConfig::default(), 1, cfg, &plan);
    if outage {
        let mut oplan = OutagePlan::new(seed);
        oplan.down(Part::Dimm(0, 0), SimTime::from_ms(1), SimTime::from_ms(5));
        sys.set_outage_plan(&oplan);
    }
    let srv = IperfReport::shared();
    sys.spawn_host(
        Box::new(IperfServer::new(5001, 1, SimTime::ZERO, srv.clone())),
        0,
    );
    let dst = sys.host_rank_ip();
    sys.spawn_dimm(
        0,
        Box::new(IperfClient::new(dst, 5001, BYTES, IperfReport::shared())),
        1,
    );
    if !json {
        println!(
            "iperf DIMM0 -> host, {BYTES} bytes, seed {seed}, drop {drop}{}",
            if outage {
                ", DIMM crash at 1ms (+5ms down)"
            } else {
                ""
            }
        );
    }
    if !sys.run_until_procs_done(SimTime::from_secs(10)) {
        if json {
            print!("{}", snapshot(&sys, &srv).to_json());
        } else {
            println!("\n{}", sys.stall_report("fault_injection demo stalled"));
            println!("(expected at high rates: TCP cannot outrun the injector)");
        }
        return;
    }

    let snap = snapshot(&sys, &srv);
    if json {
        print!("{}", snap.to_json());
        return;
    }

    // The human-readable summary reads the same registry the JSON mode
    // dumps — exact paths, so a renamed counter fails here instead of
    // silently printing zero.
    let bytes = snap.get_u64("iperf_server.goodput.bytes");
    println!(
        "delivered {bytes} bytes in {} (byte-complete: {})",
        sys.now(),
        bytes == BYTES
    );
    println!(
        "\ninjected   : host drops {} flips {} | dimm drops {} flips {}",
        snap.get_u64("driver.frames_dropped"),
        snap.get_u64("driver.ecc_escapes"),
        snap.get_u64("dimm0.driver.frames_dropped"),
        snap.get_u64("dimm0.driver.ecc_escapes")
    );
    println!(
        "alert path : dropped {} delayed {} fallback polls {} recoveries {}",
        snap.get_u64("driver.alerts_dropped"),
        snap.get_u64("driver.alerts_delayed"),
        snap.get_u64("driver.fallback_polls"),
        snap.get_u64("driver.alert_recoveries")
    );
    println!(
        "dma path   : stalls {} retries {} cpu-copy fallbacks {}",
        snap.get_u64("driver.dma_stalls"),
        snap.get_u64("driver.dma_retries"),
        snap.get_u64("driver.dma_fallbacks")
    );
    println!(
        "caught     : host cksum drops {} malformed {} | dimm cksum drops {} malformed {}",
        snap.get_u64("host.stack.drop_checksum"),
        snap.get_u64("host.stack.malformed"),
        snap.get_u64("dimm0.stack.drop_checksum"),
        snap.get_u64("dimm0.stack.malformed")
    );
    if outage {
        println!(
            "\nlifecycle  : crashes {} reboots {} (port up: {})",
            snap.get_u64("dimm0.driver.crashes"),
            snap.get_u64("dimm0.driver.reboots"),
            snap.get_u64("driver.ports_up") == snap.get_u64("driver.ports")
        );
        println!(
            "handshake  : port downs {} probes {} (retries {}) ring resets {} mac announces {}",
            snap.get_u64("driver.port_downs"),
            snap.get_u64("driver.probes_sent"),
            snap.get_u64("driver.probe_retries"),
            snap.get_u64("driver.ring_resets"),
            snap.get_u64("driver.mac_announces")
        );
        println!(
            "             reinits completed {} failed {} stale descriptors dropped {}",
            snap.get_u64("driver.reinits_completed"),
            snap.get_u64("driver.reinit_failures"),
            snap.get_u64("driver.stale_desc_dropped")
        );
    }
}

/// The system's full registry plus the iperf server's report under
/// `iperf_server.*` — one tree feeding both output modes.
fn snapshot(
    sys: &McnSystem,
    srv: &std::sync::Arc<parking_lot::Mutex<IperfReport>>,
) -> MetricsSnapshot {
    let mut sink = MetricSink::new();
    sys.metrics(&mut sink);
    sink.absorb("iperf_server", &*srv.lock());
    sink.finish()
}
