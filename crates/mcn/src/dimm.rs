//! The MCN DIMM: an MCN node and its MCN-side driver.
//!
//! An MCN DIMM couples a small mobile-class processor (4 cores), its own
//! local DDR4 channels, and the interface [`SramBuffer`] shared with the
//! host. The **MCN-side driver** implemented here is interrupt-driven
//! (paper Sec. III-A: the MCN interface raises an IRQ when a packet lands
//! in the SRAM RX buffer) and symmetric to the host-side driver:
//!
//! * **transmit** (MCN → host): the stack's outbound frame is charged
//!   protocol + driver time on core 0, copied from kernel memory (a real
//!   read job on the local channels; the SRAM write itself is on-chip) into
//!   the SRAM TX ring, and `tx-poll` is set — which the host observes by
//!   polling (`mcn0`) or via ALERT_N (`mcn1`+),
//! * **receive** (host → MCN): the interface IRQ costs interrupt time on
//!   core 0, the driver copies the RX ring into kernel memory (a write job
//!   on the local channels), then each message is charged receive-path
//!   protocol processing and delivered to the stack.
//!
//! With `mcn5` the copies move to the MCN-DMA engine and the cores only pay
//! the setup cost.

use std::collections::{HashMap, VecDeque};
use std::net::Ipv4Addr;

use mcn_dram::MemKind;
use mcn_net::{EthernetFrame, MacAddr, NetConfig};
use mcn_node::mem::{Pattern, Transfer};
use mcn_node::{CostModel, JobId, Node, WaiterId};
use mcn_sim::fault::FaultInjector;
use mcn_sim::metrics::{Instrumented, MetricSink};
use mcn_sim::stats::Counter;
use mcn_sim::{SimTime, StallReport};

use crate::config::{McnConfig, SystemConfig};
use crate::driver::{Scratch, DMA_SETUP};
use crate::error::{McnError, McnSide};
use crate::sram::{Dir, RingStats, SramBuffer};

/// EtherType of the experimental direct-message channel (Sec. VII future
/// work: an mTCP-like user-space path that "resembles a shared memory
/// communication channel between the host and MCN nodes"). Frames of this
/// type bypass the TCP/IP stack entirely on both ends.
pub const DIRECT_ETHERTYPE: u16 = 0x88B5; // IEEE 802 local experimental

/// Waiter id for MCN-side driver jobs on the DIMM's local memory system.
pub const DIMM_DRV_WAITER: WaiterId = 1 << 42;

/// Core the MCN-side driver runs on (IRQs, copies, receive processing).
const DRV_CORE: usize = 0;

/// Core transmit-path protocol work runs on: `tcp_sendmsg` and the direct
/// xmit path execute on the *sending application's* core, which placement
/// puts on core 1 (core 0 is reserved for the driver when possible).
const TX_CORE: usize = 1;

/// MAC id of the neighbor a DIMM's stack falls back to for unknown
/// destinations: the host classifies such frames F4 (external).
pub(crate) const F4_FALLBACK_MAC: u16 = 0xFFFE;

/// Signals the DIMM reports to the system layer after an
/// [`advance`](McnDimm::advance).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DimmSignal {
    /// `tx-poll` went from clear to set at this time (drives ALERT_N).
    TxPollRaised(SimTime),
    /// The RX ring gained free space (host retries blocked transmissions).
    RxSpaceFreed,
}

#[derive(Debug)]
enum DrvOp {
    /// Reading the outbound packet out of local kernel memory.
    TxCopy {
        frame: EthernetFrame,
        started: SimTime,
    },
    /// Writing the received ring contents into local kernel memory.
    RxCopy { started: SimTime },
}

#[derive(Debug)]
enum Staged {
    /// Start the RX copy (after the IRQ entry cost).
    StartRxCopy,
    /// Deliver a received, fully-charged frame to the stack.
    Deliver(EthernetFrame),
    /// Try to start the next queued transmit.
    TryTx,
}

/// Driver statistics and latency components.
#[derive(Debug, Default)]
pub struct DimmDriverStats {
    /// The ring counters both drivers keep (`rx_frames` counts frames as
    /// they are delivered to the stack).
    pub ring: RingStats,
    /// Interrupts taken from the MCN interface.
    pub irqs: Counter,
    /// Hard crashes ([`McnDimm::crash`]) this DIMM has taken.
    pub crashes: Counter,
    /// Power-ons ([`McnDimm::power_on`]) after a crash.
    pub reboots: Counter,
}

/// One MCN DIMM: node + SRAM + MCN-side driver. See the module docs.
#[derive(Debug)]
pub struct McnDimm {
    /// The MCN node (cores, local channels, stack, processes).
    pub node: Node,
    /// The interface SRAM, shared with the host (the host side accesses it
    /// through the system layer, with timing from the host channel model).
    pub sram: SramBuffer,
    index: usize,
    channel: u32,
    mac: MacAddr,
    ip: Ipv4Addr,
    cfg: McnConfig,

    tx_queue: VecDeque<EthernetFrame>,
    tx_busy: bool,
    rx_busy: bool,
    pending: HashMap<u64, DrvOp>,
    staged: Vec<(SimTime, Staged)>,
    signals: Vec<DimmSignal>,
    scratch: Scratch,
    /// Received direct messages (Sec. VII bypass path): (arrival, payload).
    pub direct_rx: VecDeque<(SimTime, bytes::Bytes)>,
    /// Whether the device is powered. A crashed DIMM is frozen: it takes no
    /// interrupts, schedules nothing, and reports no deadlines until
    /// [`power_on`](Self::power_on).
    alive: bool,
    /// Fault injector for this DIMM's SRAM push path (inert by default).
    faults: FaultInjector,
    /// Driver statistics.
    pub stats: DimmDriverStats,
}

impl McnDimm {
    /// Builds DIMM `index` of server `server` (0 standalone; the address
    /// plan shifts per server, see [`ip_for`](Self::ip_for)), attached to
    /// host channel `channel`, peering with the host-side interface at
    /// `host_ip`/`host_mac`.
    pub fn new(
        server: usize,
        index: usize,
        channel: u32,
        sys: &SystemConfig,
        cfg: McnConfig,
        host_ip: Ipv4Addr,
        host_mac: MacAddr,
    ) -> Self {
        let mut node = Node::new(
            sys.mcn_cores,
            CostModel::mcn(),
            &sys.mcn_dram,
            sys.mcn_channels,
        );
        let mac = Self::mac_for(server, index);
        let ip = Self::ip_for(server, index);
        let ifidx = node.stack.add_interface(NetConfig {
            mac,
            ip,
            mtu: cfg.mtu(),
            checksum: !cfg.checksum_bypass,
            tso: cfg.tso,
        });
        debug_assert_eq!(ifidx, 0);
        // Paper Sec. III-B: the MCN-side interface uses subnet mask 0.0.0.0
        // so every outgoing packet leaves through it; the route is on-link,
        // so frames carry the *destination's* MAC (the host's for host
        // traffic, another MCN node's for mcn-mcn traffic — the host
        // forwarding engine dispatches on it, F1/F3) and unknown
        // destinations fall back to the "external" MAC (F4).
        node.stack.add_route(
            Ipv4Addr::new(0, 0, 0, 0),
            Ipv4Addr::new(0, 0, 0, 0),
            0,
            None,
        );
        node.stack.add_neighbor(host_ip, host_mac);
        node.stack
            .set_fallback_neighbor(MacAddr::from_id(F4_FALLBACK_MAC));
        McnDimm {
            node,
            sram: SramBuffer::new(sys.sram_ring_bytes),
            index,
            channel,
            mac,
            ip,
            cfg,
            tx_queue: VecDeque::new(),
            tx_busy: false,
            rx_busy: false,
            pending: HashMap::new(),
            staged: Vec::new(),
            signals: Vec::new(),
            // Kernel buffers: 64 MiB of local DRAM at 1 GiB.
            scratch: Scratch::new(1 << 30, 64 << 20),
            direct_rx: VecDeque::new(),
            alive: true,
            faults: FaultInjector::none(),
            stats: DimmDriverStats::default(),
        }
    }

    /// Installs the fault injector covering this DIMM's SRAM TX push path
    /// (`Drop` loses the frame, `BitFlip` corrupts one bit of it).
    pub fn set_fault_injector(&mut self, faults: FaultInjector) {
        self.faults = faults;
    }

    /// The IP address scheme of the paper's network organisation: DIMM `i`
    /// is `10.(i+1).0.2` (its host-side peer is `10.(i+1).0.1`).
    pub fn ip_of(index: usize) -> Ipv4Addr {
        Self::ip_for(0, index)
    }

    /// Rack addressing: server `s` uses second octets `24s+1 ..= 24s+24`
    /// (up to 10 servers of up to 24 DIMMs, the limits the rack and
    /// server constructors assert).
    pub fn ip_for(server: usize, index: usize) -> Ipv4Addr {
        Ipv4Addr::new(10, (server * 24 + index + 1) as u8, 0, 2)
    }

    /// MAC plan matching [`ip_for`](Self::ip_for).
    pub fn mac_for(server: usize, index: usize) -> MacAddr {
        MacAddr::from_id(0x0200 + (server as u16) * 0x40 + index as u16)
    }

    /// This DIMM's interface MAC.
    pub fn mac(&self) -> MacAddr {
        self.mac
    }

    /// This DIMM's IP.
    pub fn ip(&self) -> Ipv4Addr {
        self.ip
    }

    /// Index of this DIMM in the system.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Host memory channel this DIMM is installed on.
    pub fn channel(&self) -> u32 {
        self.channel
    }

    /// Adds this DIMM's rings, driver queues, stalled processes and
    /// sockets to a stall report.
    pub(crate) fn stall_lines(&self, r: &mut StallReport) {
        let d = self.index;
        r.line(
            "rings",
            format!(
                "dimm{d}: tx_used={} tx_poll={} rx_used={} rx_poll={}",
                self.sram.used(Dir::Tx),
                self.sram.poll_flag(Dir::Tx),
                self.sram.used(Dir::Rx),
                self.sram.poll_flag(Dir::Rx),
            ),
        );
        r.line(
            "dimm drivers",
            format!(
                "dimm{d}: tx_busy={} rx_busy={} tx_queue={} staged={} pending_jobs={}",
                self.tx_busy,
                self.rx_busy,
                self.tx_queue.len(),
                self.staged.len(),
                self.pending.len(),
            ),
        );
        for line in self.node.runner.stalled_procs() {
            r.line("dimm procs", format!("dimm{d}: {line}"));
        }
        for line in self.node.stack.socket_states() {
            r.line("dimm sockets", format!("dimm{d}: {line}"));
        }
    }

    /// Whether the device is powered (see [`crash`](Self::crash)).
    pub fn alive(&self) -> bool {
        self.alive
    }

    /// Hard power failure. Device state is lost: the interface SRAM resets
    /// to all-zeroes (indices, poll flags, ring data), queued and in-flight
    /// driver transfers vanish, and the stack's link goes down (queued
    /// egress frames are lost). Software state — processes, DRAM contents,
    /// TCP connections — survives, a deliberate modeling simplification:
    /// this models a device/driver reset, and the transport's retransmission
    /// is what makes traffic byte-complete after the heal.
    pub fn crash(&mut self, _now: SimTime) {
        if !self.alive {
            return;
        }
        self.alive = false;
        self.sram.reset();
        self.tx_queue.clear();
        self.tx_busy = false;
        self.rx_busy = false;
        self.pending.clear();
        self.staged.clear();
        self.signals.clear();
        self.node.stack.link_down(0);
        self.stats.crashes.inc();
    }

    /// Powers the device back on after a [`crash`](Self::crash). The SRAM is
    /// already zeroed; the link stays down until the host-side re-init
    /// handshake completes and calls [`link_restored`](Self::link_restored).
    pub fn power_on(&mut self, _now: SimTime) {
        if self.alive {
            return;
        }
        self.alive = true;
        self.stats.reboots.inc();
    }

    /// The host's re-init handshake finished: bring the stack's link up so
    /// retransmissions can flow again.
    pub fn link_restored(&mut self, now: SimTime) {
        self.node.stack.link_up(0);
        self.node.service_stack(now);
    }

    /// The MCN interface interrupt: the host set `rx-poll` at `now`.
    pub fn on_rx_poll(&mut self, now: SimTime) {
        if !self.alive {
            return;
        }
        self.rx_kick(now, true);
    }

    /// Starts (or continues) draining the RX ring. `from_irq` distinguishes
    /// a fresh interrupt from a NAPI-style poll continuation: while the
    /// driver is actively draining, further arrivals cost only the softirq
    /// re-schedule, not a full interrupt (interrupt mitigation, Sec. II-B).
    fn rx_kick(&mut self, now: SimTime, from_irq: bool) {
        if self.rx_busy || self.sram.used(Dir::Rx) == 0 {
            return; // already draining, or spurious
        }
        self.rx_busy = true;
        let cost = if from_irq {
            self.stats.irqs.inc();
            self.node.cost.irq() + self.node.cost.softirq()
        } else {
            self.node.cost.softirq()
        };
        let (_, end) = self.node.cpus.run_on(DRV_CORE, now, cost);
        self.staged.push((end, Staged::StartRxCopy));
    }

    /// The host drained the SRAM TX ring: retry queued transmissions.
    pub fn kick_tx(&mut self, now: SimTime) {
        if !self.alive {
            return;
        }
        self.staged.push((now, Staged::TryTx));
    }

    /// Sends a direct (stack-bypassing) message to the host: only driver
    /// transmit costs apply — no TCP/IP processing, no checksums.
    pub fn direct_send(&mut self, host_mac: MacAddr, payload: bytes::Bytes, now: SimTime) {
        let frame = EthernetFrame {
            dst: host_mac,
            src: self.mac,
            ethertype: mcn_net::EtherType::Other(DIRECT_ETHERTYPE),
            payload,
            fcs_ok: true,
        };
        let (_, end) = self
            .node
            .cpus
            .run_on(DRV_CORE, now, self.node.cost.driver_tx());
        self.tx_queue.push_back(frame);
        self.staged.push((end, Staged::TryTx));
    }

    /// Earliest internal deadline (driver staging + node). A crashed DIMM
    /// reports none: it is frozen until powered back on.
    pub fn next_event(&self) -> Option<SimTime> {
        if !self.alive {
            return None;
        }
        [self.next_event_outside_mem(), self.node.mem.next_event()]
            .into_iter()
            .flatten()
            .min()
    }

    /// [`next_event`](Self::next_event) without the node's memory system:
    /// staged driver work plus [`Node::next_event_outside_mem`].
    pub(crate) fn next_event_outside_mem(&self) -> Option<SimTime> {
        if !self.alive {
            return None;
        }
        let staged = self.staged.iter().map(|(t, _)| *t).min();
        [staged, self.node.next_event_outside_mem()]
            .into_iter()
            .flatten()
            .min()
    }

    /// Advances the DIMM to `now`; returns signals for the system layer.
    ///
    /// # Panics
    ///
    /// Panics with a stall report when the driver still finds work after
    /// 10,000 rounds at `now`: it would never settle, and the system would
    /// advance it at the same instant forever.
    pub fn advance(&mut self, now: SimTime) -> Vec<DimmSignal> {
        if !self.alive {
            self.signals.clear();
            return Vec::new();
        }
        for round in 0.. {
            if round == 10_000 {
                let mut r = StallReport::new(format!(
                    "dimm{} ({}) driver did not converge @ {now}",
                    self.index, self.ip
                ));
                self.stall_lines(&mut r);
                panic!("{r}");
            }
            let mut changed = false;
            // Local memory-job completions → driver ops. Errors are
            // counted and the simulation keeps running: a fault injector
            // can legitimately produce both conditions.
            for (waiter, job) in self.node.advance_mem(now) {
                debug_assert_eq!(waiter, DIMM_DRV_WAITER);
                if let Err(e) = self.on_job_done(job, now) {
                    self.stats.ring.count(e);
                }
                changed = true;
            }
            // Due staged driver work.
            let mut rest = Vec::new();
            for (t, item) in std::mem::take(&mut self.staged) {
                if t <= now {
                    self.apply(item, t.max(now));
                    changed = true;
                } else {
                    rest.push((t, item));
                }
            }
            self.staged.extend(rest);
            // Stack timers, process runs, and outbound frames.
            self.node.service_stack(now);
            if self.node.run_procs(now) {
                changed = true;
            }
            if self.drain_stack(now) {
                changed = true;
            }
            if !changed {
                break;
            }
        }
        std::mem::take(&mut self.signals)
    }

    /// Pulls outbound frames from the stack into the driver; returns true
    /// if any were taken.
    fn drain_stack(&mut self, now: SimTime) -> bool {
        let mut any = false;
        let tx_core = TX_CORE.min(self.node.cpus.cores() - 1);
        while let Some(frame) = self.node.stack.poll_output(0) {
            any = true;
            // Data segments are charged on the sending application's core;
            // pure ACKs are generated in softirq context on the driver core.
            let sw_csum = !self.cfg.checksum_bypass;
            let proto = mcn_node::nic::tx_protocol_cost(&self.node.cost, &frame, sw_csum);
            let work = proto + self.node.cost.driver_tx();
            let core = if mcn_node::nic::is_pure_ack(&frame) {
                DRV_CORE
            } else {
                tx_core
            };
            let (_, end) = self.node.cpus.run_on(core, now, work);
            self.tx_queue.push_back(frame);
            self.staged.push((end, Staged::TryTx));
        }
        any
    }

    fn apply(&mut self, item: Staged, now: SimTime) {
        match item {
            Staged::TryTx => self.try_tx(now),
            Staged::StartRxCopy => {
                let used = self.sram.used(Dir::Rx);
                if used == 0 {
                    self.rx_busy = false;
                    return;
                }
                let op = DrvOp::RxCopy { started: now };
                self.start_copy(now, used, used as u64, MemKind::Write, op);
            }
            Staged::Deliver(frame) => {
                self.stats.ring.rx_frames.inc();
                if frame.ethertype == mcn_net::EtherType::Other(DIRECT_ETHERTYPE) {
                    // Bypass path: straight to the user-space queue.
                    self.direct_rx.push_back((now, frame.payload));
                } else {
                    self.node.stack.on_frame(0, frame, now);
                    self.node.drain_stack_events();
                }
            }
        }
    }

    fn try_tx(&mut self, now: SimTime) {
        if self.tx_busy {
            return;
        }
        let Some(frame) = self.tx_queue.front() else {
            return;
        };
        let need = SramBuffer::message_len(frame);
        if self.sram.free_space(Dir::Tx) < need {
            self.stats.ring.tx_busy_events.inc();
            return; // NETDEV_TX_BUSY: kick_tx retries when the host drains
        }
        let frame = self.tx_queue.pop_front().expect("checked");
        self.tx_busy = true;
        // Kernel memory holds the frame alone; the ring writes its length
        // prefix.
        let bytes = (need - 4) as u64;
        let op = DrvOp::TxCopy {
            frame,
            started: now,
        };
        self.start_copy(now, need, bytes, MemKind::Read, op);
    }

    /// Starts a copy of `bytes` between kernel memory and the interface
    /// SRAM; the job models the local channels (the SRAM side is on-chip).
    /// DMA: the core only programs the engine. CPU copy: the core pays the
    /// per-byte issue work for `cpu_bytes` up front.
    fn start_copy(&mut self, now: SimTime, cpu_bytes: usize, bytes: u64, kind: MemKind, op: DrvOp) {
        let work = if self.cfg.dma {
            DMA_SETUP
        } else {
            self.node.cost.small_copy(cpu_bytes)
        };
        let (_, start) = self.node.cpus.run_on(DRV_CORE, now, work);
        let pat = Pattern::dram(self.scratch.alloc(bytes));
        let job = self.node.mem.start(
            Transfer::Single { pat, kind, bytes },
            DIMM_DRV_WAITER,
            start,
        );
        self.pending.insert(job.0, op);
    }

    fn on_job_done(&mut self, job: JobId, now: SimTime) -> Result<(), McnError> {
        match self.pending.remove(&job.0) {
            Some(DrvOp::TxCopy { frame, started }) => {
                self.tx_busy = false;
                self.staged.push((now, Staged::TryTx));
                let pushed = self.sram.push_frame(
                    Dir::Tx,
                    &frame,
                    &mut self.faults,
                    &mut self.stats.ring,
                    McnSide::Dimm(self.index),
                    now.saturating_sub(started),
                )?;
                if pushed.raised {
                    self.signals.push(DimmSignal::TxPollRaised(now));
                }
            }
            Some(DrvOp::RxCopy { started }) => {
                let frames = self.sram.drain_frames(Dir::Rx, &mut self.stats.ring);
                self.signals.push(DimmSignal::RxSpaceFreed);
                let sw_csum = !self.cfg.checksum_bypass;
                let cores = self.node.cpus.cores();
                for frame in frames {
                    // Driver ring work on the IRQ core; protocol processing
                    // steered across the other cores (RPS), like the host
                    // side.
                    let (_, handoff) =
                        self.node
                            .cpus
                            .run_on(DRV_CORE, now, self.node.cost.driver_rx());
                    let proto = mcn_node::nic::rx_protocol_cost(&self.node.cost, &frame, sw_csum);
                    // Per-flow steering (hash of the source MAC): frames of
                    // one flow stay in order on one core, different senders
                    // spread across cores.
                    let flow = frame
                        .src
                        .0
                        .iter()
                        .fold(0usize, |a, &b| a.wrapping_mul(31).wrapping_add(b as usize));
                    let proto_core = if cores > 1 { 1 + flow % (cores - 1) } else { 0 };
                    let (_, end) = self.node.cpus.run_on(proto_core, handoff, proto);
                    self.stats
                        .ring
                        .driver_rx
                        .record(end.saturating_sub(started));
                    self.staged.push((end, Staged::Deliver(frame)));
                }
                self.rx_busy = false;
                // More data may have landed while we were copying: keep
                // polling without a new interrupt (NAPI).
                if self.sram.used(Dir::Rx) > 0 {
                    self.rx_kick(now, false);
                }
            }
            None => {
                return Err(McnError::UnknownJob {
                    job,
                    side: McnSide::Dimm(self.index),
                })
            }
        }
        Ok(())
    }
}

impl Instrumented for DimmDriverStats {
    fn metrics(&self, out: &mut MetricSink) {
        self.ring.metrics(out);
        out.counter("irqs", self.irqs.get());
        out.counter("crashes", self.crashes.get());
        out.counter("reboots", self.reboots.get());
    }
}

impl Instrumented for McnDimm {
    /// The node's tree (cpu/mem/stack) at this scope plus the MCN-side
    /// driver under `driver.*`.
    fn metrics(&self, out: &mut MetricSink) {
        self.node.metrics(out);
        out.absorb("driver", &self.stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn mk() -> McnDimm {
        McnDimm::new(
            0,
            0,
            0,
            &SystemConfig::default(),
            McnConfig::level(0),
            Ipv4Addr::new(10, 1, 0, 1),
            MacAddr::from_id(0x0100),
        )
    }

    fn drive(d: &mut McnDimm, mut now: SimTime, horizon: SimTime) -> (Vec<DimmSignal>, SimTime) {
        let mut signals = Vec::new();
        loop {
            signals.extend(d.advance(now));
            match d.next_event() {
                Some(t) if t <= horizon => now = now.max(t),
                _ => break,
            }
        }
        (signals, now)
    }

    fn frame_to(dst: MacAddr, src: MacAddr, len: usize) -> EthernetFrame {
        // A syntactically valid IPv4/UDP frame so protocol costing works.
        let pkt = mcn_net::Ipv4Packet::new(
            Ipv4Addr::new(10, 1, 0, 1),
            Ipv4Addr::new(10, 1, 0, 2),
            mcn_net::IpProto::Udp,
            1,
            Bytes::from(
                mcn_net::UdpDatagram::new(9, 9, Bytes::from(vec![7u8; len])).encode(
                    Ipv4Addr::new(10, 1, 0, 1),
                    Ipv4Addr::new(10, 1, 0, 2),
                    true,
                ),
            ),
        );
        EthernetFrame::ipv4(dst, src, Bytes::from(pkt.encode()))
    }

    #[test]
    fn rx_path_delivers_to_stack() {
        let mut d = mk();
        let sock = d.node.stack.udp_bind(9).unwrap();
        // "Host" writes a message into the RX ring and raises the IRQ.
        let f = frame_to(d.mac(), MacAddr::from_id(0x0100), 200);
        d.sram.push(Dir::Rx, &f.encode()).unwrap();
        d.on_rx_poll(SimTime::ZERO);
        let (signals, end) = drive(&mut d, SimTime::ZERO, SimTime::from_ms(1));
        assert!(signals.contains(&DimmSignal::RxSpaceFreed));
        assert_eq!(d.stats.ring.rx_frames.get(), 1);
        assert_eq!(d.stats.irqs.get(), 1);
        let (_, _, data) = d.node.stack.udp_recv(sock).expect("datagram delivered");
        assert_eq!(data.len(), 200);
        // Takes real time: IRQ + copy + protocol.
        assert!(end > SimTime::from_us(1), "rx path took {end}");
    }

    #[test]
    fn tx_path_lands_in_sram_and_raises_poll() {
        let mut d = mk();
        let sock = d.node.stack.udp_bind(1000).unwrap();
        d.node
            .stack
            .udp_send(
                sock,
                Ipv4Addr::new(10, 9, 0, 2), // another MCN node: default route
                7,
                Bytes::from(vec![1u8; 300]),
                SimTime::ZERO,
            )
            .unwrap();
        let (signals, _) = drive(&mut d, SimTime::ZERO, SimTime::from_ms(1));
        assert!(matches!(signals[..], [DimmSignal::TxPollRaised(_)]));
        assert!(d.sram.poll_flag(Dir::Tx));
        let msg = d.sram.pop(Dir::Tx).expect("message in TX ring");
        let f = EthernetFrame::decode(&msg).unwrap();
        // 10.9.0.2 matches no neighbor: the frame carries the "external"
        // fallback MAC, which the host forwarding engine classifies as F4.
        assert_eq!(f.dst, MacAddr::from_id(F4_FALLBACK_MAC));
        assert_eq!(d.stats.ring.tx_frames.get(), 1);
    }

    #[test]
    fn tx_blocks_on_full_ring_and_recovers_on_kick() {
        let sys_cfg = SystemConfig {
            sram_ring_bytes: 2048, // tiny ring
            ..SystemConfig::default()
        };
        let mut d = McnDimm::new(
            0,
            0,
            0,
            &sys_cfg,
            McnConfig::level(0),
            Ipv4Addr::new(10, 1, 0, 1),
            MacAddr::from_id(0x0100),
        );
        let sock = d.node.stack.udp_bind(1000).unwrap();
        for _ in 0..4 {
            d.node
                .stack
                .udp_send(
                    sock,
                    Ipv4Addr::new(10, 9, 0, 2),
                    7,
                    Bytes::from(vec![2u8; 700]),
                    SimTime::ZERO,
                )
                .unwrap();
        }
        let (_, t) = drive(&mut d, SimTime::ZERO, SimTime::from_ms(1));
        // Ring holds at most 2 x 700B messages.
        assert!(
            d.stats.ring.tx_busy_events.get() > 0,
            "should hit NETDEV_TX_BUSY"
        );
        let before = d.stats.ring.tx_frames.get();
        assert!(before < 4);
        // Host drains, then kicks.
        d.sram.pop_all(Dir::Tx);
        d.kick_tx(t);
        drive(&mut d, t, t + SimTime::from_ms(1));
        assert!(d.stats.ring.tx_frames.get() > before);
    }

    #[test]
    fn dma_level_keeps_cores_freer() {
        let run = |cfg: McnConfig| -> SimTime {
            let mut d = McnDimm::new(
                0,
                0,
                0,
                &SystemConfig::default(),
                cfg,
                Ipv4Addr::new(10, 1, 0, 1),
                MacAddr::from_id(0x0100),
            );
            // 64 inbound frames.
            for _ in 0..64 {
                let f = frame_to(d.mac(), MacAddr::from_id(0x0100), 1400);
                d.sram.push(Dir::Rx, &f.encode()).unwrap();
            }
            d.on_rx_poll(SimTime::ZERO);
            drive(&mut d, SimTime::ZERO, SimTime::from_ms(10));
            d.node.cpus.total_busy()
        };
        let no_dma = run(McnConfig::level(2));
        let dma = run(McnConfig::level(5));
        assert!(
            dma < no_dma,
            "DMA should reduce CPU busy time: {dma} vs {no_dma}"
        );
    }

    #[test]
    fn crash_wipes_rings_and_freezes_until_power_on() {
        let mut d = mk();
        let sock = d.node.stack.udp_bind(1000).unwrap();
        // Leave a frame sitting in the TX ring and more queued behind it.
        for _ in 0..2 {
            d.node
                .stack
                .udp_send(
                    sock,
                    Ipv4Addr::new(10, 9, 0, 2),
                    7,
                    Bytes::from(vec![3u8; 400]),
                    SimTime::ZERO,
                )
                .unwrap();
        }
        let (_, t) = drive(&mut d, SimTime::ZERO, SimTime::from_ms(1));
        assert!(d.sram.used(Dir::Tx) > 0);

        d.crash(t);
        assert!(!d.alive());
        assert_eq!(d.stats.crashes.get(), 1);
        // SRAM fully reset: indices, poll flags and data all zero.
        assert_eq!(d.sram.used(Dir::Tx), 0);
        assert_eq!(d.sram.used(Dir::Rx), 0);
        assert!(!d.sram.poll_flag(Dir::Tx));
        assert!(!d.sram.poll_flag(Dir::Rx));
        // Driver state gone, and the DIMM is frozen.
        assert!(!d.tx_busy && !d.rx_busy);
        assert_eq!(
            (d.tx_queue.len(), d.staged.len(), d.pending.len()),
            (0, 0, 0)
        );
        assert_eq!(d.next_event(), None);
        // Interrupts while dead are ignored.
        d.on_rx_poll(t);
        assert_eq!(d.next_event(), None);

        d.power_on(t + SimTime::from_ms(1));
        d.link_restored(t + SimTime::from_ms(1));
        assert!(d.alive());
        assert_eq!(d.stats.reboots.get(), 1);
        // The reborn device can transmit again.
        d.node
            .stack
            .udp_send(
                sock,
                Ipv4Addr::new(10, 9, 0, 2),
                7,
                Bytes::from(vec![4u8; 100]),
                t + SimTime::from_ms(1),
            )
            .unwrap();
        let (signals, _) = drive(&mut d, t + SimTime::from_ms(1), t + SimTime::from_ms(2));
        assert!(signals
            .iter()
            .any(|s| matches!(s, DimmSignal::TxPollRaised(_))));
    }

    #[test]
    fn ip_scheme_matches_paper_layout() {
        assert_eq!(McnDimm::ip_of(0), Ipv4Addr::new(10, 1, 0, 2));
        assert_eq!(McnDimm::ip_of(7), Ipv4Addr::new(10, 8, 0, 2));
        let d = mk();
        assert_eq!(d.ip(), Ipv4Addr::new(10, 1, 0, 2));
        assert_eq!(d.mac(), MacAddr::from_id(0x0200));
    }
}
