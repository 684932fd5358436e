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

use serde::{Deserialize, Serialize};

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
