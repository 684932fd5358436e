//! The MCN interface SRAM buffer (paper Fig. 4).
//!
//! A real byte array holding two circular message rings plus their control
//! words. Directions are named from the MCN node's perspective, as in the
//! paper: the **TX** ring carries MCN→host messages (the host-side polling
//! agent watches `tx-poll`), the **RX** ring carries host→MCN messages (the
//! MCN interface raises an interrupt to the MCN processor when `rx-poll`
//! is set).
//!
//! An *MCN message* is a 4-byte little-endian length followed by that many
//! bytes of Ethernet frame (paper Sec. III-B: "we call the combination of a
//! packet length and data an MCN message"); this framing is what lets MCN
//! carry any MTU, including unsegmented 64 KB TSO chunks.
//!
//! The control words genuinely live in the byte array — tests can corrupt
//! them and observe the consequences, and the drivers' control-word
//! *timing* is modelled as channel transactions by the system layer while
//! the *functional* effect happens here.
//!
//! Both MCN drivers move frames through the rings the same way once a copy
//! finishes: one faulted push and one decoding drain, both counting into
//! the drivers' shared [`RingStats`].

use mcn_net::{EthernetFrame, ETHER_HEADER_BYTES};
use mcn_sim::fault::{FaultInjector, FaultKind};
use mcn_sim::metrics::{Instrumented, MetricSink};
use mcn_sim::stats::{Counter, Histogram};
use mcn_sim::SimTime;
use serde::{Deserialize, Serialize};

use crate::error::{McnError, McnSide};

/// Ring direction, from the MCN node's perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Dir {
    /// MCN → host.
    Tx,
    /// Host → MCN.
    Rx,
}

/// Error: not enough free space in the ring for the message
/// (the driver returns `NETDEV_TX_BUSY` and retries, paper step T2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SramFull {
    /// Bytes the message needed (including the length prefix).
    pub needed: usize,
    /// Bytes currently free.
    pub free: usize,
}

impl std::fmt::Display for SramFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sram ring full: need {}, free {}",
            self.needed, self.free
        )
    }
}

impl std::error::Error for SramFull {}

const RX_START: usize = 0;
const RX_END: usize = 4;
const RX_POLL: usize = 8;
const TX_START: usize = 64;
const TX_END: usize = 68;
const TX_POLL: usize = 72;
const CTRL_BYTES: usize = 128;
const LEN_PREFIX: usize = 4;

/// The counters both MCN drivers keep for their side of the rings. Each
/// driver's statistics embed one and emit it at their own scope.
#[derive(Debug, Default)]
pub struct RingStats {
    /// Frames pushed into the outbound ring.
    pub tx_frames: Counter,
    /// Frames received from the inbound ring: the host counts them as it
    /// drains a ring, a DIMM as it delivers them to its stack.
    pub rx_frames: Counter,
    /// Transmissions deferred on a full outbound ring (`NETDEV_TX_BUSY`).
    pub tx_busy_events: Counter,
    /// Driver transmit time per frame (driver entry → data in SRAM).
    pub driver_tx: Histogram,
    /// Driver receive time per frame (poll hit or IRQ → delivered).
    pub driver_rx: Histogram,
    /// Injected SRAM bit flips that slipped past ECC into pushed ring data
    /// (quantifies the checksum-bypass exposure at `mcn2+`).
    pub ecc_escapes: Counter,
    /// Injected frame drops on the push path.
    pub frames_dropped: Counter,
    /// Undecodable messages drained from the inbound ring and dropped.
    pub malformed: Counter,
    /// Frames dropped because the outbound ring filled despite the space
    /// pre-check (only possible under fault injection).
    pub ring_full_drops: Counter,
    /// Memory-system completions for jobs the driver no longer tracks.
    pub unknown_jobs: Counter,
}

impl RingStats {
    /// Counts a recoverable data-path error; the run goes on.
    pub(crate) fn count(&mut self, e: McnError) {
        match e {
            McnError::UnknownJob { .. } => self.unknown_jobs.inc(),
            McnError::RingFull { .. } => self.ring_full_drops.inc(),
        }
    }
}

impl Instrumented for RingStats {
    fn metrics(&self, out: &mut MetricSink) {
        out.counter("tx_frames", self.tx_frames.get());
        out.counter("rx_frames", self.rx_frames.get());
        out.counter("tx_busy_events", self.tx_busy_events.get());
        out.histogram("driver_tx", &self.driver_tx);
        out.histogram("driver_rx", &self.driver_rx);
        out.counter("ecc_escapes", self.ecc_escapes.get());
        out.counter("frames_dropped", self.frames_dropped.get());
        out.counter("malformed", self.malformed.get());
        out.counter("ring_full_drops", self.ring_full_drops.get());
        out.counter("unknown_jobs", self.unknown_jobs.get());
    }
}

/// What [`SramBuffer::push_frame`] did with a frame.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pushed {
    /// The push-path fault injector dropped the frame.
    pub(crate) dropped: bool,
    /// The ring's poll flag went from clear to set.
    pub(crate) raised: bool,
}

/// The interface SRAM: control words + two message rings, all real bytes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SramBuffer {
    bytes: Vec<u8>,
    ring_cap: usize,
}

impl SramBuffer {
    /// Creates a buffer with `ring_cap` bytes per direction.
    ///
    /// # Panics
    ///
    /// Panics if `ring_cap < 64` (too small for any frame).
    pub fn new(ring_cap: usize) -> Self {
        assert!(ring_cap >= 64, "ring capacity unusably small");
        SramBuffer {
            bytes: vec![0; CTRL_BYTES + 2 * ring_cap],
            ring_cap,
        }
    }

    /// Ring capacity per direction in bytes.
    pub fn ring_cap(&self) -> usize {
        self.ring_cap
    }

    /// Total SRAM size in bytes (control area + both rings).
    pub fn total_bytes(&self) -> usize {
        self.bytes.len()
    }

    fn ctrl(dir: Dir) -> (usize, usize, usize) {
        match dir {
            Dir::Rx => (RX_START, RX_END, RX_POLL),
            Dir::Tx => (TX_START, TX_END, TX_POLL),
        }
    }

    fn region(&self, dir: Dir) -> usize {
        match dir {
            Dir::Rx => CTRL_BYTES,
            Dir::Tx => CTRL_BYTES + self.ring_cap,
        }
    }

    fn read_u32(&self, off: usize) -> u32 {
        u32::from_le_bytes(self.bytes[off..off + 4].try_into().expect("4 bytes"))
    }

    fn write_u32(&mut self, off: usize, v: u32) {
        self.bytes[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// The poll flag of a ring (what the host polling agent / the MCN
    /// interface interrupt line observe).
    pub fn poll_flag(&self, dir: Dir) -> bool {
        let (_, _, poll) = Self::ctrl(dir);
        self.read_u32(poll) != 0
    }

    /// Bytes of valid data currently in the ring.
    pub fn used(&self, dir: Dir) -> usize {
        let (s, e, _) = Self::ctrl(dir);
        let start = self.read_u32(s) as usize % self.ring_cap;
        let end = self.read_u32(e) as usize % self.ring_cap;
        (end + self.ring_cap - start) % self.ring_cap
    }

    /// Bytes of free space (one byte is reserved to distinguish full from
    /// empty).
    pub fn free_space(&self, dir: Dir) -> usize {
        self.ring_cap - 1 - self.used(dir)
    }

    fn ring_write(&mut self, dir: Dir, at: usize, data: &[u8]) {
        let base = self.region(dir);
        let cap = self.ring_cap;
        let at = at % cap;
        // At most two contiguous segments (wrap at the ring boundary).
        let first = data.len().min(cap - at);
        self.bytes[base + at..base + at + first].copy_from_slice(&data[..first]);
        let rest = &data[first..];
        self.bytes[base..base + rest.len()].copy_from_slice(rest);
    }

    fn ring_read_into(&self, dir: Dir, at: usize, out: &mut [u8]) {
        let base = self.region(dir);
        let cap = self.ring_cap;
        let at = at % cap;
        let first = out.len().min(cap - at);
        out[..first].copy_from_slice(&self.bytes[base + at..base + at + first]);
        let wrapped = out.len() - first;
        out[first..].copy_from_slice(&self.bytes[base..base + wrapped]);
    }

    /// Enqueues one MCN message (steps T1–T3 of the paper): checks space,
    /// writes `len ‖ data` at `*-end`, advances `*-end`, and sets `*-poll`.
    ///
    /// # Errors
    ///
    /// [`SramFull`] when the ring lacks space (caller retries later —
    /// `NETDEV_TX_BUSY`).
    pub fn push(&mut self, dir: Dir, data: &[u8]) -> Result<(), SramFull> {
        let needed = LEN_PREFIX + data.len();
        let free = self.free_space(dir);
        if needed > free {
            return Err(SramFull { needed, free });
        }
        let (_, e, poll) = Self::ctrl(dir);
        let end = self.read_u32(e) as usize % self.ring_cap;
        self.ring_write(dir, end, &(data.len() as u32).to_le_bytes());
        self.ring_write(dir, (end + LEN_PREFIX) % self.ring_cap, data);
        self.write_u32(e, ((end + needed) % self.ring_cap) as u32);
        self.write_u32(poll, 1);
        Ok(())
    }

    /// Dequeues one MCN message (steps R1–R5): reads the length at
    /// `*-start`, copies the data out, advances `*-start`, and clears
    /// `*-poll` once the ring drains.
    pub fn pop(&mut self, dir: Dir) -> Option<Vec<u8>> {
        let used = self.used(dir);
        if used < LEN_PREFIX {
            return None;
        }
        let (s, _, poll) = Self::ctrl(dir);
        let start = self.read_u32(s) as usize % self.ring_cap;
        let mut len_bytes = [0u8; LEN_PREFIX];
        self.ring_read_into(dir, start, &mut len_bytes);
        let len = u32::from_le_bytes(len_bytes) as usize;
        if used < LEN_PREFIX + len {
            // Corrupt or half-written message; leave it (fences in the
            // driver prevent this in practice, paper T3).
            return None;
        }
        // Single copy, straight from the ring into the returned buffer.
        let mut data = vec![0u8; len];
        self.ring_read_into(dir, (start + LEN_PREFIX) % self.ring_cap, &mut data);
        self.write_u32(s, ((start + LEN_PREFIX + len) % self.ring_cap) as u32);
        if self.used(dir) == 0 {
            self.write_u32(poll, 0);
        }
        Some(data)
    }

    /// Dequeues every complete message (the host-side R5 loop: keep reading
    /// until `tx-start == tx-end`).
    pub fn pop_all(&mut self, dir: Dir) -> Vec<Vec<u8>> {
        std::iter::from_fn(|| self.pop(dir)).collect()
    }

    /// Bytes `frame` takes as a ring message: the length prefix and the
    /// encoded frame, unpadded (unlike [`EthernetFrame::wire_len`]).
    pub(crate) fn message_len(frame: &EthernetFrame) -> usize {
        LEN_PREFIX + ETHER_HEADER_BYTES + frame.payload.len()
    }

    /// A driver's push of `frame` into ring `dir` once its copy finished.
    /// The push is the memory channel's fault point: `faults` may drop the
    /// frame, or flip one bit of its ring data that ECC missed (the length
    /// prefix is written by the ring itself and stays intact). A pushed
    /// frame counts in `tx_frames`, and `took` in `driver_tx`.
    ///
    /// # Errors
    ///
    /// [`McnError::RingFull`] on `side` when the ring filled despite the
    /// driver's space check; the frame is lost.
    pub(crate) fn push_frame(
        &mut self,
        dir: Dir,
        frame: &EthernetFrame,
        faults: &mut FaultInjector,
        stats: &mut RingStats,
        side: McnSide,
        took: SimTime,
    ) -> Result<Pushed, McnError> {
        let mut pushed = Pushed {
            dropped: faults.fires(FaultKind::Drop),
            raised: false,
        };
        if pushed.dropped {
            stats.frames_dropped.inc();
            return Ok(pushed);
        }
        let mut msg = frame.encode();
        if faults.fires(FaultKind::BitFlip) {
            faults.flip_bit(&mut msg);
            stats.ecc_escapes.inc();
        }
        pushed.raised = !self.poll_flag(dir);
        self.push(dir, &msg).map_err(|_| McnError::RingFull {
            side,
            len: msg.len(),
        })?;
        stats.tx_frames.inc();
        stats.driver_tx.record(took);
        Ok(pushed)
    }

    /// Drains ring `dir` and decodes every message; an undecodable one
    /// (possible under injected corruption) counts in `malformed` and is
    /// dropped.
    pub(crate) fn drain_frames(&mut self, dir: Dir, stats: &mut RingStats) -> Vec<EthernetFrame> {
        let mut frames = Vec::new();
        for msg in self.pop_all(dir) {
            match EthernetFrame::decode(&msg) {
                Ok(frame) => frames.push(frame),
                Err(_) => stats.malformed.inc(),
            }
        }
        frames
    }

    /// Power-on reset: zeroes the control words (producer/consumer indices
    /// and both poll flags) *and* the ring data. Everything in flight is
    /// lost; a descriptor a stale peer still believes in reads back as a
    /// zero-length region, never as old data.
    pub fn reset(&mut self) {
        self.bytes.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn push_pop_roundtrip_both_rings() {
        let mut s = SramBuffer::new(4096);
        for dir in [Dir::Tx, Dir::Rx] {
            assert!(!s.poll_flag(dir));
            s.push(dir, b"hello mcn").unwrap();
            assert!(s.poll_flag(dir));
            assert_eq!(s.used(dir), 13);
            assert_eq!(s.pop(dir).unwrap(), b"hello mcn");
            assert!(!s.poll_flag(dir), "poll clears when drained");
            assert_eq!(s.pop(dir), None);
        }
    }

    #[test]
    fn rings_are_independent() {
        let mut s = SramBuffer::new(1024);
        s.push(Dir::Tx, b"to host").unwrap();
        assert!(!s.poll_flag(Dir::Rx));
        assert_eq!(s.pop(Dir::Rx), None);
        assert_eq!(s.pop(Dir::Tx).unwrap(), b"to host");
    }

    #[test]
    fn fifo_order_preserved() {
        let mut s = SramBuffer::new(4096);
        for i in 0..10u8 {
            s.push(Dir::Rx, &[i; 100]).unwrap();
        }
        for i in 0..10u8 {
            assert_eq!(s.pop(Dir::Rx).unwrap(), vec![i; 100]);
        }
    }

    #[test]
    fn full_ring_rejects_and_recovers() {
        let mut s = SramBuffer::new(256);
        s.push(Dir::Tx, &[1u8; 100]).unwrap();
        s.push(Dir::Tx, &[2u8; 100]).unwrap();
        let err = s.push(Dir::Tx, &[3u8; 100]).unwrap_err();
        assert_eq!(err.needed, 104);
        assert!(err.free < 104);
        // Draining one message frees space.
        s.pop(Dir::Tx).unwrap();
        s.push(Dir::Tx, &[3u8; 100]).unwrap();
        assert_eq!(s.pop(Dir::Tx).unwrap(), vec![2u8; 100]);
        assert_eq!(s.pop(Dir::Tx).unwrap(), vec![3u8; 100]);
    }

    #[test]
    fn wraparound_preserves_data() {
        let mut s = SramBuffer::new(256);
        // Advance the cursors close to the end, then push a message that
        // wraps.
        for _ in 0..5 {
            s.push(Dir::Rx, &[9u8; 40]).unwrap();
            s.pop(Dir::Rx).unwrap();
        }
        let msg: Vec<u8> = (0..200).map(|i| i as u8).collect();
        s.push(Dir::Rx, &msg).unwrap();
        assert_eq!(s.pop(Dir::Rx).unwrap(), msg);
    }

    #[test]
    fn pop_all_drains() {
        let mut s = SramBuffer::new(4096);
        for i in 0..5u8 {
            s.push(Dir::Tx, &[i]).unwrap();
        }
        let all = s.pop_all(Dir::Tx);
        assert_eq!(all.len(), 5);
        assert!(!s.poll_flag(Dir::Tx));
    }

    #[test]
    fn jumbo_tso_message_fits_default_sizing() {
        let mut s = SramBuffer::new(160 * 1024);
        let chunk = vec![0x5Au8; 64 * 1024];
        s.push(Dir::Tx, &chunk).unwrap();
        s.push(Dir::Tx, &chunk).unwrap(); // double buffering
        assert_eq!(s.pop(Dir::Tx).unwrap().len(), 64 * 1024);
    }

    #[test]
    #[should_panic(expected = "unusably small")]
    fn tiny_ring_rejected() {
        SramBuffer::new(32);
    }

    proptest! {
        /// Any interleaving of pushes and pops preserves message contents
        /// and order (the rings are real circular buffers, so wraparound
        /// bugs would corrupt data, not just timing).
        #[test]
        fn ring_vs_model(
            ops in prop::collection::vec((any::<bool>(), 1usize..300), 1..200)
        ) {
            let mut s = SramBuffer::new(1024);
            let mut model: std::collections::VecDeque<Vec<u8>> = Default::default();
            let mut counter = 0u8;
            for (is_push, len) in ops {
                if is_push {
                    counter = counter.wrapping_add(1);
                    let msg = vec![counter; len];
                    match s.push(Dir::Tx, &msg) {
                        Ok(()) => model.push_back(msg),
                        Err(_) => {
                            // Model agrees it would not fit.
                            let used: usize =
                                model.iter().map(|m| m.len() + 4).sum();
                            prop_assert!(used + msg.len() + 4 > 1024 - 1);
                        }
                    }
                } else {
                    prop_assert_eq!(s.pop(Dir::Tx), model.pop_front());
                }
            }
            // Drain and compare the tails.
            prop_assert_eq!(s.pop_all(Dir::Tx), Vec::from(model));
        }
    }
}
