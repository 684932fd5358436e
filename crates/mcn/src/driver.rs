//! Host-side MCN driver state: ports, polling agents, the forwarding
//! engine's classification, and the memory-mapping unit's address math;
//! plus the fixed timings and the kernel-buffer allocator of both drivers.
//!
//! The *logic* that moves packets runs in [`crate::system::McnSystem`]
//! (it needs simultaneous access to the host node, the DIMMs and this
//! state); this module owns the data and the pure decision functions so
//! they are unit-testable in isolation.

use std::collections::{HashMap, VecDeque};
use std::net::Ipv4Addr;

use mcn_net::{EthernetFrame, MacAddr};
use mcn_node::WaiterId;
use mcn_sim::fault::FaultInjector;
use mcn_sim::metrics::{Instrumented, MetricSink};
use mcn_sim::stats::Counter;
use mcn_sim::SimTime;

use crate::sram::RingStats;

/// Waiter id for host-side driver jobs on the host memory system.
pub const HOST_DRV_WAITER: WaiterId = 1 << 41;

/// MC-to-core delivery latency of a re-purposed ALERT_N (`mcn1`+).
pub(crate) const ALERT_LATENCY: SimTime = SimTime::from_ns(200);

/// MCN-DMA engine setup cost per transfer (`mcn5`), on either side.
pub(crate) const DMA_SETUP: SimTime = SimTime::from_ns(150);

/// Deadline the host driver's watchdog gives an MCN-DMA transfer before
/// declaring it stalled and retrying; it doubles per attempt.
pub(crate) const DMA_WATCHDOG_DEADLINE: SimTime = SimTime::from_us(5);

/// Watchdog retry budget before a stalled MCN-DMA transfer degrades to the
/// CPU-copy path (per transfer, not globally).
pub(crate) const DMA_MAX_ATTEMPTS: u32 = 2;

/// The fallback poller covers dropped ALERT_N edges at a coarse interval:
/// frequent enough to bound the hang, rare enough not to recreate `mcn0`.
pub(crate) const FALLBACK_POLL_MULT: u64 = 16;

/// Re-init handshake: initial delay between probe reads of a (re)powered
/// DIMM's SRAM control words (doubles per failed probe).
pub(crate) const REINIT_PROBE_INTERVAL: SimTime = SimTime::from_us(10);

/// Re-init handshake: probe budget before the host gives up and parks the
/// port down.
pub(crate) const REINIT_MAX_PROBES: u32 = 8;

/// Re-init handshake: latency of each post-probe step (ring reset, MAC
/// re-announce).
pub(crate) const REINIT_STEP: SimTime = SimTime::from_us(2);

/// A driver's kernel buffers: a line-aligned bump allocator over a DRAM
/// region that the packet copies read and write, wrapping to the start of
/// the region when the next buffer would overrun it.
#[derive(Debug)]
pub(crate) struct Scratch {
    base: u64,
    span: u64,
    next: u64,
}

impl Scratch {
    /// `span` bytes of DRAM from physical address `base`.
    pub(crate) fn new(base: u64, span: u64) -> Self {
        Scratch {
            base,
            span,
            next: 0,
        }
    }

    /// The address of the next `bytes`-byte buffer.
    pub(crate) fn alloc(&mut self, bytes: u64) -> u64 {
        let lines = bytes.div_ceil(64);
        if self.next + lines * 64 > self.span {
            self.next = 0;
        }
        let a = self.base + self.next;
        self.next += lines * 64;
        a
    }
}

/// Host physical region where the MCN SRAM windows are mapped (reserved at
/// "boot" via the device tree, paper Sec. II-A: `reserved_memory`).
pub const SRAM_REGION_BASE: u64 = 3 << 30;
/// Size of each DIMM's strided SRAM window.
pub const SRAM_WINDOW_SPAN: u64 = 32 << 20;

/// Where the host-side driver decides to send a packet read from an SRAM
/// TX ring — the paper's forwarding cases F1–F4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardClass {
    /// F1: destination MAC matches the receiving host-side interface.
    Host,
    /// F3: destination MAC matches another MCN-side interface.
    Dimm(usize),
    /// F2: broadcast — host plus every other DIMM.
    Broadcast,
    /// F4: neither — out the conventional NIC.
    External,
}

/// The memory-mapping unit's address math (paper Fig. 6): the host sees
/// DIMM `d`'s SRAM as a window whose consecutive 64-byte lines are strided
/// by `64 × channels` so that every line lands on the DIMM's channel.
///
/// Returns `(base, stride)` for `memcpy_to_mcn`/`memcpy_from_mcn` patterns.
pub fn sram_window(dimm: usize, dimm_channel: u32, host_channels: u32) -> (u64, u64) {
    let raw = SRAM_REGION_BASE + dimm as u64 * SRAM_WINDOW_SPAN;
    // Align the base onto the DIMM's channel under line interleaving.
    let line = raw / 64;
    let misalign = (dimm_channel as u64 + host_channels as u64 - (line % host_channels as u64))
        % host_channels as u64;
    (raw + misalign * 64, 64 * host_channels as u64)
}

/// Classifies a frame pulled from DIMM `src`'s TX ring (steps R3–R4).
pub fn classify(
    frame: &EthernetFrame,
    host_macs: &[MacAddr],
    dimm_macs: &[MacAddr],
) -> ForwardClass {
    if frame.dst.is_broadcast() {
        return ForwardClass::Broadcast;
    }
    if host_macs.contains(&frame.dst) {
        return ForwardClass::Host;
    }
    if let Some(i) = dimm_macs.iter().position(|m| *m == frame.dst) {
        return ForwardClass::Dimm(i);
    }
    ForwardClass::External
}

/// Link lifecycle of a host-side port, driven by the re-init handshake in
/// the system layer. Normal operation is `Up`; a DIMM crash moves the port
/// to `Down`, and power-on walks it back up through the handshake:
///
/// `Down` → `Probe` (read the SRAM control words until the device answers)
/// → `RingReset` (zero both rings' indices and poll flags) → `MacAnnounce`
/// (re-announce the host-side MAC/IP pairing to the forwarding tables) →
/// `Up`. A probe against a still-dead device retries with bounded
/// exponential backoff; exhausting the budget parks the port in `Down`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortLink {
    /// Normal operation.
    Up,
    /// The peer DIMM is dead (or the handshake gave up); no traffic moves.
    Down,
    /// Probing the powered-on device, on the given attempt (0-based).
    Probe {
        /// Probe attempt number (0-based).
        attempt: u32,
    },
    /// Device answered; resetting ring indices and poll flags.
    RingReset,
    /// Rings clean; re-announcing the interface MAC before going up.
    MacAnnounce,
}

/// Per-DIMM host-side state: the virtual Ethernet interface ("host-side
/// interface") and its transmit/receive machinery. Port `d` talks to
/// DIMM `d`.
#[derive(Debug)]
pub struct Port {
    /// Interface index on the host stack.
    pub ifidx: usize,
    /// Host memory channel the DIMM is on.
    pub channel: u32,
    /// Host core that runs this port's transmit work.
    pub core: usize,
    /// MAC of the host-side interface.
    pub mac: MacAddr,
    /// IP of the host-side interface.
    pub ip: Ipv4Addr,
    /// Frames awaiting transmission into the DIMM's RX ring.
    pub tx_queue: VecDeque<EthernetFrame>,
    /// A TX copy is in flight (ring pushes are serialized per DIMM).
    pub tx_busy: bool,
    /// An RX copy is in flight.
    pub rx_busy: bool,
    /// SRAM window base for this DIMM.
    pub sram_base: u64,
    /// SRAM window stride.
    pub sram_stride: u64,
    /// Link lifecycle state (see [`PortLink`]).
    pub link: PortLink,
    /// Fault injector of the push path into the DIMM's RX ring (`Drop`
    /// loses the frame, `BitFlip` corrupts one bit of it).
    pub faults: FaultInjector,
}

/// Which way a host copy moves data.
#[derive(Debug)]
pub enum HostCopy {
    /// `memcpy_to_mcn` of one frame into the DIMM's RX ring (applied
    /// functionally at completion).
    ToDimm(EthernetFrame),
    /// `memcpy_from_mcn` of the DIMM's TX ring contents.
    FromDimm,
}

/// Host-side driver job bookkeeping.
#[derive(Debug)]
pub enum HostOp {
    /// Uncached read of a DIMM's `tx-poll` word (one line).
    PollCheck {
        /// Port being checked.
        port: usize,
        /// Issued by the watchdog fallback poller (covering for dropped
        /// ALERT_N edges) rather than the HR-timer/interrupt path.
        via_fallback: bool,
    },
    /// A copy between host memory and a DIMM's SRAM window.
    Copy {
        /// The port copied to or from.
        port: usize,
        /// Its direction (and, to a DIMM, the frame).
        copy: HostCopy,
        /// Copy start time (Table III's driver times).
        started: SimTime,
    },
}

/// Aggregate host-side driver statistics (the `table3`/`fig8` harnesses
/// read the histograms).
#[derive(Debug, Default)]
pub struct HostDriverStats {
    /// The ring counters both drivers keep (`rx_frames` counts frames as
    /// the TX rings are drained).
    pub ring: RingStats,
    /// F1 deliveries to the host stack.
    pub f1_host: Counter,
    /// F2 broadcasts.
    pub f2_broadcast: Counter,
    /// F3 DIMM-to-DIMM forwards.
    pub f3_forward: Counter,
    /// F4 external (conventional NIC) forwards.
    pub f4_external: Counter,
    /// HR-timer poll rounds.
    pub polls: Counter,
    /// ALERT_N interrupts taken.
    pub alerts: Counter,

    // --- fault-injection and recovery accounting -----------------------
    /// Injected ALERT_N interrupt drops.
    pub alerts_dropped: Counter,
    /// Injected ALERT_N delivery delays.
    pub alerts_delayed: Counter,
    /// Injected MCN-DMA descriptor stalls.
    pub dma_stalls: Counter,
    /// Fallback-poller rounds (armed only when ALERT_N faults are active;
    /// separate from `polls` so interrupt-mode baselines stay zero-poll).
    pub fallback_polls: Counter,
    /// Pending TX work discovered by the fallback poller after a dropped
    /// ALERT_N (each is a hang averted).
    pub alert_recoveries: Counter,
    /// Stalled DMA transfers re-issued by the watchdog.
    pub dma_retries: Counter,
    /// Stalled DMA transfers that exhausted retries and degraded to the
    /// CPU-copy (`memcpy_to_mcn`/`from_mcn`) path for that transfer.
    pub dma_fallbacks: Counter,

    // --- crash / re-init handshake accounting --------------------------
    /// Ports taken down by a DIMM crash or link outage.
    pub port_downs: Counter,
    /// Probe reads issued against a (re)powered device.
    pub probes_sent: Counter,
    /// Probes that found the device still dead and backed off.
    pub probe_retries: Counter,
    /// Ring-reset steps completed (indices and poll flags re-zeroed).
    pub ring_resets: Counter,
    /// MAC re-announce steps completed.
    pub mac_announces: Counter,
    /// Re-init handshakes that completed and brought a port back up.
    pub reinits_completed: Counter,
    /// Re-init handshakes abandoned after the probe budget ran out.
    pub reinit_failures: Counter,
    /// Stale descriptors (pre-crash SRAM state the host still believed in)
    /// discarded instead of consumed during recovery.
    pub stale_desc_dropped: Counter,
}

impl Instrumented for HostDriverStats {
    fn metrics(&self, out: &mut MetricSink) {
        self.ring.metrics(out);
        out.counter("f1_host", self.f1_host.get());
        out.counter("f2_broadcast", self.f2_broadcast.get());
        out.counter("f3_forward", self.f3_forward.get());
        out.counter("f4_external", self.f4_external.get());
        out.counter("polls", self.polls.get());
        out.counter("alerts", self.alerts.get());
        out.counter("alerts_dropped", self.alerts_dropped.get());
        out.counter("alerts_delayed", self.alerts_delayed.get());
        out.counter("dma_stalls", self.dma_stalls.get());
        out.counter("fallback_polls", self.fallback_polls.get());
        out.counter("alert_recoveries", self.alert_recoveries.get());
        out.counter("dma_retries", self.dma_retries.get());
        out.counter("dma_fallbacks", self.dma_fallbacks.get());
        out.counter("port_downs", self.port_downs.get());
        out.counter("probes_sent", self.probes_sent.get());
        out.counter("probe_retries", self.probe_retries.get());
        out.counter("ring_resets", self.ring_resets.get());
        out.counter("mac_announces", self.mac_announces.get());
        out.counter("reinits_completed", self.reinits_completed.get());
        out.counter("reinit_failures", self.reinit_failures.get());
        out.counter("stale_desc_dropped", self.stale_desc_dropped.get());
    }
}

impl Instrumented for HostDriver {
    /// All the driver counters plus the current port link states (a gauge:
    /// `ports_up` can go down as well as up).
    fn metrics(&self, out: &mut MetricSink) {
        self.stats.metrics(out);
        out.counter("ports", self.ports.len() as u64);
        out.counter(
            "ports_up",
            (0..self.ports.len())
                .filter(|&p| self.port_is_up(p))
                .count() as u64,
        );
    }
}

/// Host-side driver state for all DIMMs (ports added by the system
/// builder).
#[derive(Debug, Default)]
pub struct HostDriver {
    /// One port per MCN DIMM.
    pub ports: Vec<Port>,
    /// In-flight memory jobs.
    pub pending: HashMap<u64, HostOp>,
    /// Statistics.
    pub stats: HostDriverStats,
}

impl HostDriver {
    /// MACs of all host-side interfaces.
    pub fn host_macs(&self) -> Vec<MacAddr> {
        self.ports.iter().map(|p| p.mac).collect()
    }

    /// Takes port `port` down after its DIMM crashed: queued frames are
    /// lost, busy flags clear (their in-flight jobs will complete against a
    /// down port and be discarded as stale). Returns the number of queued
    /// frames dropped. Idempotent for an already-down port.
    pub fn port_down(&mut self, port: usize) -> usize {
        let p = &mut self.ports[port];
        if p.link == PortLink::Down {
            return 0;
        }
        p.link = PortLink::Down;
        let lost = p.tx_queue.len();
        p.tx_queue.clear();
        p.tx_busy = false;
        p.rx_busy = false;
        self.stats.port_downs.inc();
        lost
    }

    /// Whether port `port` is fully up (traffic may move).
    pub fn port_is_up(&self, port: usize) -> bool {
        self.ports[port].link == PortLink::Up
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn sram_window_lands_on_the_right_channel() {
        for host_channels in [1u32, 2, 4] {
            for dimm in 0..8usize {
                let ch = dimm as u32 % host_channels;
                let (base, stride) = sram_window(dimm, ch, host_channels);
                assert_eq!(stride, 64 * host_channels as u64);
                // Every line of the window maps to channel `ch` under
                // cache-line interleaving.
                for k in 0..64u64 {
                    let addr = base + k * stride;
                    assert_eq!(
                        (addr / 64) % host_channels as u64,
                        ch as u64,
                        "dimm {dimm} line {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn windows_do_not_overlap() {
        let mut spans: Vec<(u64, u64)> = Vec::new();
        for dimm in 0..8usize {
            let (base, stride) = sram_window(dimm, dimm as u32 % 2, 2);
            let end = base + (512 * 1024) * stride / 64; // generous ring size
            for (b, e) in &spans {
                assert!(end <= *b || base >= *e, "windows overlap");
            }
            spans.push((base, end));
        }
    }

    #[test]
    fn forwarding_classification_f1_to_f4() {
        let host_macs = vec![MacAddr::from_id(0x0100), MacAddr::from_id(0x0101)];
        let dimm_macs = vec![MacAddr::from_id(0x0200), MacAddr::from_id(0x0201)];
        let mk = |dst: MacAddr| {
            EthernetFrame::ipv4(dst, MacAddr::from_id(0x0200), Bytes::from_static(b""))
        };
        assert_eq!(
            classify(&mk(host_macs[1]), &host_macs, &dimm_macs),
            ForwardClass::Host
        );
        assert_eq!(
            classify(&mk(dimm_macs[1]), &host_macs, &dimm_macs),
            ForwardClass::Dimm(1)
        );
        assert_eq!(
            classify(&mk(MacAddr::BROADCAST), &host_macs, &dimm_macs),
            ForwardClass::Broadcast
        );
        assert_eq!(
            classify(&mk(MacAddr::from_id(0x0999)), &host_macs, &dimm_macs),
            ForwardClass::External
        );
    }
}
