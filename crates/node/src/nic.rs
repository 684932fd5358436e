//! The 10GbE baseline NIC model.
//!
//! Reproduces the packet paths from the paper's Fig. 2 and the cost
//! components of Table III:
//!
//! * **TX**: the driver writes a descriptor and rings the doorbell
//!   (`Driver-TX`); the NIC DMA-reads the packet from the TX ring in DRAM —
//!   real line transactions through the node's [`MemorySystem`] —
//!   (`DMA-TX`); then the frame crosses PCIe onto the wire (part of `PHY`).
//! * **RX**: the NIC DMA-writes the arriving frame into the RX ring
//!   (`DMA-RX`), raises an MSI interrupt unless NAPI polling is already
//!   active, and the driver's softirq handler cleans the ring, allocates an
//!   sk_buff and pushes the packet up the stack (`Driver-RX`, which the
//!   paper measures as *half* the 10GbE end-to-end latency).
//!
//! Both descriptor rings are FIFO. A DMA completion only marks its
//! descriptor done; frames leave from the head of the ring, in posting
//! order, so a short frame never overtakes the long one posted before
//! it. `DMA-TX` and `DMA-RX` run from DMA start to the descriptor's
//! write-back at release: a frame's wait behind the ring's head counts
//! in its DMA stage, and `PHY` stays PCIe + wire + switch.
//!
//! Hardware checksum offload is on (standard for 10GbE-class NICs), so the
//! stack is configured not to charge software checksums; wire integrity is
//! covered by the Ethernet FCS, and the MAC drops bad-FCS frames here.
//!
//! The per-component times are recorded in [`NicBreakdown`] histograms —
//! the `table3` harness reads them directly.

use std::collections::VecDeque;

use mcn_dram::{MemKind, Target};
use mcn_net::EthernetFrame;
use mcn_sim::metrics::{Instrumented, MetricSink};
use mcn_sim::stats::{Counter, Histogram};
use mcn_sim::SimTime;

use crate::cost::CostModel;
use crate::cpu::CpuPool;
use crate::mem::{JobId, MemorySystem, Pattern, Transfer, WaiterId};

/// Waiter-id namespace for NIC DMA jobs (distinct from process waiters).
pub const NIC_WAITER: WaiterId = 1 << 40;

/// One-way PCIe traversal (doorbell, DMA engine launch, frame handoff).
pub const PCIE_LATENCY: SimTime = SimTime::from_ns(600);

/// Interrupt moderation: a freshly-idle NIC waits this long before
/// raising the RX interrupt (the `rx-usecs` ethtool knob; the reason a
/// 10GbE ping RTT is tens of microseconds while the wire takes two).
/// NAPI polling is unaffected, so bandwidth does not suffer.
const IRQ_DELAY: SimTime = SimTime::from_us(8);

/// Core that takes interrupts and runs the receive softirq.
const IRQ_CORE: usize = 0;

/// Base physical address of the NIC's TX/RX ring buffers (the 1 GiB
/// mark, well inside every config).
const BUF_BASE: u64 = 1 << 30;

/// Ring region size in bytes (addresses rotate within it).
const BUF_LEN: u64 = 4 << 20;

/// Per-direction latency component histograms (Table III).
#[derive(Debug, Default)]
pub struct NicBreakdown {
    /// Driver transmit work per packet.
    pub driver_tx: Histogram,
    /// DMA read of the packet from DRAM.
    pub dma_tx: Histogram,
    /// DMA write of the packet to DRAM.
    pub dma_rx: Histogram,
    /// Interrupt + softirq + ring cleanup + protocol processing per packet.
    pub driver_rx: Histogram,
}

/// Frame-with-deadline staged inside the NIC pipeline.
#[derive(Debug)]
struct Staged {
    at: SimTime,
    frame: EthernetFrame,
}

/// Pops the head of `q` if its deadline has passed.
fn pop_due(q: &mut VecDeque<Staged>, now: SimTime) -> Option<Staged> {
    if q.front()?.at > now {
        return None;
    }
    q.pop_front()
}

/// One posted DMA descriptor.
#[derive(Debug)]
struct Desc {
    job: JobId,
    /// DMA start: the stage is charged from here to release.
    started: SimTime,
    done: bool,
    frame: EthernetFrame,
}

/// A FIFO descriptor ring (one per direction): descriptors in posting
/// order, released only from the head once its DMA is done.
#[derive(Debug, Default)]
struct Ring(VecDeque<Desc>);

impl Ring {
    fn post(&mut self, job: JobId, started: SimTime, frame: EthernetFrame) {
        self.0.push_back(Desc {
            job,
            started,
            done: false,
            frame,
        });
    }

    /// Marks `job`'s descriptor done; false if this ring does not hold it.
    fn complete(&mut self, job: JobId) -> bool {
        let Some(d) = self.0.iter_mut().find(|d| d.job == job) else {
            return false;
        };
        d.done = true;
        true
    }

    /// Writes back the head descriptor if its DMA is done: its DMA start
    /// and its frame.
    fn release(&mut self) -> Option<(SimTime, EthernetFrame)> {
        if !self.0.front()?.done {
            return None;
        }
        self.0.pop_front().map(|d| (d.started, d.frame))
    }
}

/// Events the NIC hands back to the system layer.
#[derive(Debug)]
pub enum NicEvent {
    /// Put this frame on the wire now.
    TxWire(EthernetFrame),
    /// Deliver this frame to the local network stack now (all receive-path
    /// costs already charged).
    RxDeliver(EthernetFrame),
}

/// The NIC model; see the module docs.
#[derive(Debug, Default)]
pub struct Nic {
    /// Driver handoffs waiting for their charged driver time to elapse
    /// before DMA starts.
    tx_pending: VecDeque<Staged>,
    tx_dma: Ring,
    /// Released TX frames crossing PCIe, in release (= deadline) order.
    tx_wire: VecDeque<Staged>,
    rx_dma: Ring,
    /// Released RX frames in softirq processing, in release (= deadline)
    /// order: the IRQ core runs them one after another.
    rx_deliver: VecDeque<Staged>,
    /// End of the last scheduled softirq processing (NAPI active until
    /// then: arrivals before it pay no interrupt).
    napi_busy_until: SimTime,
    buf_cursor: u64,
    /// Latency component histograms.
    pub breakdown: NicBreakdown,
    /// Frames transmitted.
    pub tx_frames: Counter,
    /// Frames received (delivered to the stack).
    pub rx_frames: Counter,
    /// Frames dropped for bad FCS.
    pub fcs_drops: Counter,
    /// Interrupts raised.
    pub irqs: Counter,
}

impl Nic {
    /// Creates an idle NIC.
    pub fn new() -> Self {
        Self::default()
    }

    fn ring_addr(&mut self, len: u64) -> u64 {
        let lines = len.div_ceil(mcn_dram::LINE_BYTES);
        if self.buf_cursor + lines * mcn_dram::LINE_BYTES > BUF_LEN {
            self.buf_cursor = 0;
        }
        let addr = BUF_BASE + self.buf_cursor;
        self.buf_cursor += lines * mcn_dram::LINE_BYTES;
        addr
    }

    /// Driver transmit entry point: charges `Driver-TX` on the caller's
    /// core and stages the packet for DMA once that work completes.
    pub fn xmit(
        &mut self,
        frame: EthernetFrame,
        now: SimTime,
        core: usize,
        cpus: &mut CpuPool,
        cost: &CostModel,
    ) {
        let work = cost.driver_tx();
        let (_, end) = cpus.run_on(core, now, work);
        self.breakdown.driver_tx.record(end - now);
        self.tx_pending.push_back(Staged { at: end, frame });
    }

    /// Frame arrives from the wire: FCS check, then DMA into the RX ring.
    pub fn wire_rx(&mut self, frame: EthernetFrame, now: SimTime, mem: &mut MemorySystem) {
        if !frame.fcs_ok {
            self.fcs_drops.inc();
            return;
        }
        let addr = self.ring_addr(frame.wire_len() as u64);
        let job = mem.start(
            Transfer::Single {
                pat: Pattern {
                    start: addr,
                    stride: mcn_dram::LINE_BYTES,
                    target: Target::Dram,
                },
                kind: MemKind::Write,
                bytes: frame.wire_len() as u64,
            },
            NIC_WAITER,
            now,
        );
        self.rx_dma.post(job, now, frame);
    }

    /// Routes a completed DMA job (system layer calls this for completions
    /// whose waiter is [`NIC_WAITER`]) and releases every done frame at
    /// the head of its ring.
    pub fn on_job_done(
        &mut self,
        job: JobId,
        now: SimTime,
        cpus: &mut CpuPool,
        cost: &CostModel,
        rx_sw_checksum: bool,
    ) {
        if self.tx_dma.complete(job) {
            while let Some((started, frame)) = self.tx_dma.release() {
                self.breakdown.dma_tx.record(now - started);
                self.tx_wire.push_back(Staged {
                    at: now + PCIE_LATENCY,
                    frame,
                });
            }
            return;
        }
        if !self.rx_dma.complete(job) {
            return;
        }
        while let Some((started, frame)) = self.rx_dma.release() {
            self.breakdown.dma_rx.record(now - started);
            // Interrupt unless NAPI polling is still chewing on the ring;
            // a fresh interrupt waits out the moderation timer first.
            let mut t = now;
            if now >= self.napi_busy_until {
                self.irqs.inc();
                let (_, end) = cpus.run_on(IRQ_CORE, now + IRQ_DELAY, cost.irq() + cost.softirq());
                t = end;
            }
            let proto = rx_protocol_cost(cost, &frame, rx_sw_checksum);
            let (_, end) = cpus.run_on(IRQ_CORE, t, cost.driver_rx() + proto);
            self.breakdown.driver_rx.record(end - now);
            self.napi_busy_until = self.napi_busy_until.max(end);
            debug_assert!(self.rx_deliver.back().is_none_or(|s| s.at <= end));
            self.rx_deliver.push_back(Staged { at: end, frame });
        }
    }

    /// Lower bound on the earliest time any *currently staged* TX frame
    /// can reach the wire: wire-stage deadlines as-is, driver handoffs
    /// plus one PCIe crossing. Descriptors still in the TX ring are
    /// excluded on purpose — each leaves at a DMA completion, which
    /// arrives as a memory event, so it is already covered by the owner's
    /// next-event bound. Used by the windowed
    /// scheduler's lookahead ([`Shard::next_emission`]); soundness only
    /// requires never over-estimating.
    ///
    /// [`Shard::next_emission`]: mcn_sim::shard::Shard::next_emission
    pub fn earliest_tx_staged(&self) -> Option<SimTime> {
        let wire = self.tx_wire.front().map(|s| s.at);
        let pend = self.tx_pending.iter().map(|s| s.at + PCIE_LATENCY).min();
        [wire, pend].into_iter().flatten().min()
    }

    /// Earliest internal deadline.
    pub fn next_event(&self) -> Option<SimTime> {
        [&self.tx_pending, &self.tx_wire, &self.rx_deliver]
            .into_iter()
            .filter_map(|q| q.front().map(|s| s.at))
            .min()
    }

    /// Progresses internal pipelines to `now`; returns due events.
    pub fn advance(&mut self, now: SimTime, mem: &mut MemorySystem) -> Vec<NicEvent> {
        let mut out = Vec::new();
        self.advance_into(now, mem, &mut out);
        out
    }

    /// Like [`advance`](Self::advance), but appends due events into a
    /// caller-owned buffer, so the per-tick hot path allocates nothing.
    /// Returns the number of events produced.
    pub fn advance_into(
        &mut self,
        now: SimTime,
        mem: &mut MemorySystem,
        out: &mut Vec<NicEvent>,
    ) -> usize {
        let before = out.len();
        // Start DMA for driver handoffs whose charge completed.
        while let Some(s) = pop_due(&mut self.tx_pending, now) {
            let addr = self.ring_addr(s.frame.wire_len() as u64);
            let job = mem.start(
                Transfer::Single {
                    pat: Pattern {
                        start: addr,
                        stride: mcn_dram::LINE_BYTES,
                        target: Target::Dram,
                    },
                    kind: MemKind::Read,
                    bytes: s.frame.wire_len() as u64,
                },
                NIC_WAITER,
                now,
            );
            self.tx_dma.post(job, now, s.frame);
        }
        while let Some(s) = pop_due(&mut self.tx_wire, now) {
            self.tx_frames.inc();
            out.push(NicEvent::TxWire(s.frame));
        }
        while let Some(s) = pop_due(&mut self.rx_deliver, now) {
            self.rx_frames.inc();
            out.push(NicEvent::RxDeliver(s.frame));
        }
        out.len() - before
    }

    /// True while anything is staged or in DMA.
    pub fn busy(&self) -> bool {
        !self.tx_pending.is_empty()
            || !self.tx_dma.0.is_empty()
            || !self.tx_wire.is_empty()
            || !self.rx_dma.0.is_empty()
            || !self.rx_deliver.is_empty()
    }
}

/// Receive-path protocol-processing cost for a frame: TCP/UDP/ICMP packet
/// processing plus (optionally) software checksumming. Pure ACKs are
/// cheaper than data segments, which matters for the ~25% ACK overhead the
/// paper discusses.
pub fn rx_protocol_cost(cost: &CostModel, frame: &EthernetFrame, sw_checksum: bool) -> SimTime {
    let Ok(pkt) = mcn_net::Ipv4Packet::decode(&frame.payload) else {
        return cost.tcp_ack();
    };
    match pkt.proto {
        mcn_net::IpProto::Tcp => {
            let payload = pkt.payload.len().saturating_sub(mcn_net::TCP_HEADER_BYTES);
            if payload == 0 {
                cost.tcp_ack()
            } else {
                cost.tcp_rx(payload, sw_checksum)
            }
        }
        _ => cost.tcp_rx(pkt.payload.len(), sw_checksum),
    }
}

/// True if `frame` carries a payload-free TCP segment (pure ACK); such
/// segments are generated in softirq context on the receive path, not by
/// the sending application.
pub fn is_pure_ack(frame: &EthernetFrame) -> bool {
    match mcn_net::Ipv4Packet::decode(&frame.payload) {
        Ok(pkt) => {
            pkt.proto == mcn_net::IpProto::Tcp
                && pkt.payload.len() <= mcn_net::TCP_HEADER_BYTES + 12
        }
        Err(_) => false,
    }
}

/// Transmit-path protocol cost for a frame (charged by the system layer
/// when the stack emits it): mirror of [`rx_protocol_cost`].
pub fn tx_protocol_cost(cost: &CostModel, frame: &EthernetFrame, sw_checksum: bool) -> SimTime {
    let Ok(pkt) = mcn_net::Ipv4Packet::decode(&frame.payload) else {
        return cost.tcp_ack();
    };
    match pkt.proto {
        mcn_net::IpProto::Tcp => {
            let payload = pkt.payload.len().saturating_sub(mcn_net::TCP_HEADER_BYTES);
            if payload == 0 {
                cost.tcp_ack()
            } else {
                cost.tcp_tx(payload, sw_checksum)
            }
        }
        _ => cost.tcp_tx(pkt.payload.len(), sw_checksum),
    }
}

impl Instrumented for Nic {
    fn metrics(&self, out: &mut MetricSink) {
        out.counter("tx_frames", self.tx_frames.get());
        out.counter("rx_frames", self.rx_frames.get());
        out.counter("fcs_drops", self.fcs_drops.get());
        out.counter("irqs", self.irqs.get());
        out.histogram("driver_tx", &self.breakdown.driver_tx);
        out.histogram("dma_tx", &self.breakdown.dma_tx);
        out.histogram("dma_rx", &self.breakdown.dma_rx);
        out.histogram("driver_rx", &self.breakdown.driver_rx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use mcn_dram::DramConfig;
    use mcn_net::MacAddr;

    fn fixtures() -> (Nic, CpuPool, MemorySystem, CostModel) {
        (
            Nic::new(),
            CpuPool::new(4),
            MemorySystem::new(&DramConfig::ddr4_3200(), 2),
            CostModel::host(),
        )
    }

    fn frame(len: usize) -> EthernetFrame {
        EthernetFrame::ipv4(
            MacAddr::from_id(2),
            MacAddr::from_id(1),
            Bytes::from(vec![0u8; len]),
        )
    }

    fn drive(
        nic: &mut Nic,
        mem: &mut MemorySystem,
        cpus: &mut CpuPool,
        cost: &CostModel,
    ) -> Vec<(SimTime, NicEvent)> {
        let mut out = Vec::new();
        let mut guard = 0;
        loop {
            let t = match (nic.next_event(), mem.next_event()) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => break,
            };
            for (w, j) in mem.advance(t) {
                assert_eq!(w, NIC_WAITER);
                nic.on_job_done(j, t, cpus, cost, false);
            }
            for ev in nic.advance(t, mem) {
                out.push((t, ev));
            }
            if !nic.busy() && !mem.busy() {
                break;
            }
            guard += 1;
            assert!(guard < 100_000, "runaway nic drive");
        }
        out
    }

    #[test]
    fn tx_pipeline_charges_driver_then_dma_then_pcie() {
        let (mut nic, mut cpus, mut mem, cost) = fixtures();
        nic.xmit(frame(1500), SimTime::ZERO, 1, &mut cpus, &cost);
        assert!(nic.busy());
        let evs = drive(&mut nic, &mut mem, &mut cpus, &cost);
        let (t, ev) = &evs[0];
        assert!(matches!(ev, NicEvent::TxWire(_)));
        // Must be at least driver + pcie; DMA adds on top.
        assert!(*t >= cost.driver_tx() + PCIE_LATENCY, "t = {t}");
        assert_eq!(nic.tx_frames.get(), 1);
        assert_eq!(nic.breakdown.driver_tx.count(), 1);
        assert_eq!(nic.breakdown.dma_tx.count(), 1);
        // DMA of a 1514B frame is fast but nonzero.
        let dma = nic.breakdown.dma_tx.mean().unwrap();
        assert!(
            dma > SimTime::from_ns(20) && dma < SimTime::from_us(2),
            "dma {dma}"
        );
    }

    #[test]
    fn rx_pipeline_interrupts_once_under_napi() {
        let (mut nic, mut cpus, mut mem, cost) = fixtures();
        // Burst of 8 frames arriving together.
        for _ in 0..8 {
            nic.wire_rx(frame(1500), SimTime::ZERO, &mut mem);
        }
        let evs = drive(&mut nic, &mut mem, &mut cpus, &cost);
        let delivered = evs
            .iter()
            .filter(|(_, e)| matches!(e, NicEvent::RxDeliver(_)))
            .count();
        assert_eq!(delivered, 8);
        assert!(
            nic.irqs.get() <= 2,
            "NAPI should coalesce interrupts, got {}",
            nic.irqs.get()
        );
        assert_eq!(nic.breakdown.driver_rx.count(), 8);
    }

    #[test]
    fn rings_release_frames_in_posting_order() {
        // The 64 B frame's DMA finishes first in each direction, but it
        // waits in the ring behind the 8,960 B frame posted before it.
        let (mut nic, mut cpus, mut mem, cost) = fixtures();
        nic.xmit(frame(8960), SimTime::ZERO, 1, &mut cpus, &cost);
        nic.xmit(frame(64), SimTime::ZERO, 2, &mut cpus, &cost);
        nic.wire_rx(frame(8960), SimTime::ZERO, &mut mem);
        nic.wire_rx(frame(64), SimTime::ZERO, &mut mem);
        let evs = drive(&mut nic, &mut mem, &mut cpus, &cost);
        let order = |tx: bool| -> Vec<(SimTime, usize)> {
            evs.iter()
                .filter_map(|(t, ev)| match (ev, tx) {
                    (NicEvent::TxWire(f), true) | (NicEvent::RxDeliver(f), false) => {
                        Some((*t, f.payload.len()))
                    }
                    _ => None,
                })
                .collect()
        };
        let tx = order(true);
        assert_eq!(
            tx.iter().map(|&(_, len)| len).collect::<Vec<_>>(),
            [8960, 64]
        );
        assert_eq!(
            tx[0].0, tx[1].0,
            "both leave at the long frame's write-back"
        );
        let rx: Vec<usize> = order(false).into_iter().map(|(_, len)| len).collect();
        assert_eq!(rx, [8960, 64]);
        assert_eq!(nic.breakdown.dma_tx.count(), 2);
        assert_eq!(nic.breakdown.dma_rx.count(), 2);
    }

    #[test]
    fn bad_fcs_dropped_before_stack() {
        let (mut nic, mut cpus, mut mem, cost) = fixtures();
        let mut f = frame(500);
        f.fcs_ok = false;
        nic.wire_rx(f, SimTime::ZERO, &mut mem);
        let evs = drive(&mut nic, &mut mem, &mut cpus, &cost);
        assert!(evs.is_empty());
        assert_eq!(nic.fcs_drops.get(), 1);
        assert_eq!(nic.rx_frames.get(), 0);
    }

    #[test]
    fn ring_addresses_wrap_within_region() {
        let (mut nic, _, _, _) = fixtures();
        let first = nic.ring_addr(1536);
        for _ in 0..10_000 {
            let a = nic.ring_addr(1536);
            assert!(a >= BUF_BASE);
            assert!(a + 1536 <= BUF_BASE + BUF_LEN);
        }
        assert_eq!(first, BUF_BASE);
    }

    #[test]
    fn protocol_cost_distinguishes_acks() {
        let cost = CostModel::host();
        // A TCP data packet.
        let seg = mcn_net::TcpSegment {
            src_port: 1,
            dst_port: 2,
            seq: 0,
            ack: 0,
            flags: mcn_net::TcpFlags::ACK,
            window: 100,
            mss: None,
            wscale: None,
            payload: Bytes::from(vec![0u8; 1000]),
            checksum_ok: true,
        };
        let src = std::net::Ipv4Addr::new(10, 0, 0, 1);
        let dst = std::net::Ipv4Addr::new(10, 0, 0, 2);
        let data_pkt = mcn_net::Ipv4Packet::new(
            src,
            dst,
            mcn_net::IpProto::Tcp,
            1,
            Bytes::from(seg.encode(src, dst, true)),
        );
        let mut ack = seg;
        ack.payload = Bytes::new();
        let ack_pkt = mcn_net::Ipv4Packet::new(
            src,
            dst,
            mcn_net::IpProto::Tcp,
            2,
            Bytes::from(ack.encode(src, dst, true)),
        );
        let f_data = EthernetFrame::ipv4(
            MacAddr::from_id(1),
            MacAddr::from_id(2),
            Bytes::from(data_pkt.encode()),
        );
        let f_ack = EthernetFrame::ipv4(
            MacAddr::from_id(1),
            MacAddr::from_id(2),
            Bytes::from(ack_pkt.encode()),
        );
        assert!(rx_protocol_cost(&cost, &f_data, true) > rx_protocol_cost(&cost, &f_ack, true));
        assert_eq!(rx_protocol_cost(&cost, &f_ack, true), cost.tcp_ack());
        assert!(tx_protocol_cost(&cost, &f_data, true) > tx_protocol_cost(&cost, &f_ack, false));
    }
}
