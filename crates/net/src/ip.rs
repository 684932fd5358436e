//! IPv4: header codec, fragmentation and reassembly.

use std::collections::HashMap;
use std::fmt;
use std::net::Ipv4Addr;

use bytes::Bytes;

use mcn_sim::SimTime;

use crate::checksum;

/// Bytes of an IPv4 header without options (IHL = 5).
pub const IPV4_HEADER_BYTES: usize = 20;

/// Transport protocol carried by an IPv4 packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpProto {
    /// ICMP (1).
    Icmp,
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
    /// Anything else.
    Other(u8),
}

impl IpProto {
    /// Protocol number on the wire.
    pub fn to_u8(self) -> u8 {
        match self {
            IpProto::Icmp => 1,
            IpProto::Tcp => 6,
            IpProto::Udp => 17,
            IpProto::Other(v) => v,
        }
    }

    /// Parses a protocol number.
    pub fn from_u8(v: u8) -> Self {
        match v {
            1 => IpProto::Icmp,
            6 => IpProto::Tcp,
            17 => IpProto::Udp,
            other => IpProto::Other(other),
        }
    }
}

/// An IPv4 packet (possibly one fragment of a larger datagram).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv4Packet {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Transport protocol.
    pub proto: IpProto,
    /// Identification field (shared by fragments of one datagram).
    pub ident: u16,
    /// Time to live.
    pub ttl: u8,
    /// More-fragments flag.
    pub more_fragments: bool,
    /// Fragment offset in bytes (multiple of 8).
    pub frag_offset: u16,
    /// Transport payload of this packet/fragment.
    pub payload: Bytes,
    /// Whether the header checksum verified on decode (`true` for locally
    /// constructed packets).
    pub checksum_ok: bool,
}

/// IPv4 parse error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IpError {
    /// Buffer shorter than the header or the declared total length.
    Truncated,
    /// Version field is not 4 or IHL is invalid.
    BadHeader,
    /// Payload too large to fragment legally (> 65535 total length and
    /// fragmentation disabled).
    TooLarge,
}

impl fmt::Display for IpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IpError::Truncated => write!(f, "ipv4 packet truncated"),
            IpError::BadHeader => write!(f, "ipv4 header malformed"),
            IpError::TooLarge => write!(f, "ipv4 payload exceeds maximum datagram size"),
        }
    }
}

impl std::error::Error for IpError {}

impl Ipv4Packet {
    /// Builds an unfragmented packet with default TTL 64.
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, proto: IpProto, ident: u16, payload: Bytes) -> Self {
        Ipv4Packet {
            src,
            dst,
            proto,
            ident,
            ttl: 64,
            more_fragments: false,
            frag_offset: 0,
            payload,
            checksum_ok: true,
        }
    }

    /// Total length on the wire (header + payload).
    pub fn wire_len(&self) -> usize {
        IPV4_HEADER_BYTES + self.payload.len()
    }

    /// `true` if this packet is a fragment (not a whole datagram).
    pub fn is_fragment(&self) -> bool {
        self.more_fragments || self.frag_offset != 0
    }

    /// Serializes to wire bytes with a correct header checksum.
    ///
    /// # Panics
    ///
    /// Panics if the packet exceeds the IPv4 maximum total length (callers
    /// must fragment or cap TSO sizes first).
    pub fn encode(&self) -> Vec<u8> {
        assert!(
            IPV4_HEADER_BYTES + self.payload.len() <= u16::MAX as usize,
            "ipv4 packet too large: {} bytes",
            self.payload.len()
        );
        let total = (IPV4_HEADER_BYTES + self.payload.len()) as u16;
        let mut out = Vec::with_capacity(total as usize);
        out.push(0x45); // version 4, IHL 5
        out.push(0); // DSCP/ECN
        out.extend_from_slice(&total.to_be_bytes());
        out.extend_from_slice(&self.ident.to_be_bytes());
        let frag_field = ((self.more_fragments as u16) << 13) | (self.frag_offset / 8);
        out.extend_from_slice(&frag_field.to_be_bytes());
        out.push(self.ttl);
        out.push(self.proto.to_u8());
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        out.extend_from_slice(&self.src.octets());
        out.extend_from_slice(&self.dst.octets());
        let c = checksum::checksum(&out[..IPV4_HEADER_BYTES], 0);
        out[10..12].copy_from_slice(&c.to_be_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parses wire bytes, recording (not enforcing) header-checksum validity
    /// in [`checksum_ok`](Self::checksum_ok) — whether to drop bad packets
    /// is the stack's policy (the MCN driver bypasses the check, `mcn2`).
    ///
    /// # Errors
    ///
    /// Returns [`IpError`] for structurally unusable packets.
    pub fn decode(data: &[u8]) -> Result<Self, IpError> {
        if data.len() < IPV4_HEADER_BYTES {
            return Err(IpError::Truncated);
        }
        if data[0] != 0x45 {
            return Err(IpError::BadHeader);
        }
        let total = u16::from_be_bytes([data[2], data[3]]) as usize;
        if total < IPV4_HEADER_BYTES || data.len() < total {
            return Err(IpError::Truncated);
        }
        let ident = u16::from_be_bytes([data[4], data[5]]);
        let frag_field = u16::from_be_bytes([data[6], data[7]]);
        let checksum_ok = checksum::verify(&data[..IPV4_HEADER_BYTES], 0);
        Ok(Ipv4Packet {
            src: Ipv4Addr::new(data[12], data[13], data[14], data[15]),
            dst: Ipv4Addr::new(data[16], data[17], data[18], data[19]),
            proto: IpProto::from_u8(data[9]),
            ident,
            ttl: data[8],
            more_fragments: frag_field & 0x2000 != 0,
            frag_offset: (frag_field & 0x1FFF) * 8,
            payload: Bytes::copy_from_slice(&data[IPV4_HEADER_BYTES..total]),
            checksum_ok,
        })
    }

    /// Splits this datagram into MTU-sized fragments (paper baseline: an
    /// 8 KB ping over a 1.5 KB-MTU Ethernet link travels as 6 fragments).
    ///
    /// Returns `vec![self]` unchanged if it already fits.
    ///
    /// # Errors
    ///
    /// [`IpError::TooLarge`] if the datagram exceeds the IPv4 maximum.
    pub fn fragment(self, mtu: usize) -> Result<Vec<Ipv4Packet>, IpError> {
        if self.wire_len() > u16::MAX as usize {
            return Err(IpError::TooLarge);
        }
        if self.wire_len() <= mtu {
            return Ok(vec![self]);
        }
        // Payload bytes per fragment, rounded down to a multiple of 8.
        let per = (mtu - IPV4_HEADER_BYTES) & !7;
        assert!(per > 0, "mtu too small to fragment");
        let mut out = Vec::new();
        let mut off = 0usize;
        while off < self.payload.len() {
            let end = (off + per).min(self.payload.len());
            out.push(Ipv4Packet {
                src: self.src,
                dst: self.dst,
                proto: self.proto,
                ident: self.ident,
                ttl: self.ttl,
                more_fragments: end < self.payload.len() || self.more_fragments,
                frag_offset: self.frag_offset + off as u16,
                payload: self.payload.slice(off..end),
                checksum_ok: true,
            });
            off = end;
        }
        Ok(out)
    }
}

/// Reassembles fragmented IPv4 datagrams, keyed by (src, dst, proto, ident).
///
/// Incomplete datagrams are discarded after a timeout (default 30 s), like
/// the kernel's fragment cache.
#[derive(Debug)]
pub struct Reassembler {
    pending: HashMap<(Ipv4Addr, Ipv4Addr, u8, u16), PendingDatagram>,
    timeout: SimTime,
}

#[derive(Debug)]
struct PendingDatagram {
    fragments: Vec<(u16, Bytes)>,
    total_len: Option<usize>,
    first_seen: SimTime,
}

impl Default for Reassembler {
    fn default() -> Self {
        Self::new()
    }
}

impl Reassembler {
    /// Creates a reassembler with the default 30 s timeout.
    pub fn new() -> Self {
        Reassembler {
            pending: HashMap::new(),
            timeout: SimTime::from_secs(30),
        }
    }

    /// Offers a packet. Whole packets are returned unchanged; fragments are
    /// buffered until their datagram completes, at which point the
    /// reassembled packet is returned.
    pub fn push(&mut self, pkt: Ipv4Packet, now: SimTime) -> Option<Ipv4Packet> {
        if !pkt.is_fragment() {
            return Some(pkt);
        }
        self.expire(now);
        let key = (pkt.src, pkt.dst, pkt.proto.to_u8(), pkt.ident);
        let entry = self.pending.entry(key).or_insert_with(|| PendingDatagram {
            fragments: Vec::new(),
            total_len: None,
            first_seen: now,
        });
        if !pkt.more_fragments {
            entry.total_len = Some(pkt.frag_offset as usize + pkt.payload.len());
        }
        // Drop exact duplicates (retransmitted fragments).
        if !entry.fragments.iter().any(|(o, _)| *o == pkt.frag_offset) {
            entry.fragments.push((pkt.frag_offset, pkt.payload.clone()));
        }
        let total = entry.total_len?;
        let have: usize = entry.fragments.iter().map(|(_, b)| b.len()).sum();
        if have < total {
            return None;
        }
        let mut entry = self.pending.remove(&key).expect("present");
        entry.fragments.sort_by_key(|(o, _)| *o);
        let mut payload = Vec::with_capacity(total);
        for (off, frag) in entry.fragments {
            if off as usize != payload.len() {
                // Overlapping/garbled fragments: give up on the datagram.
                return None;
            }
            payload.extend_from_slice(&frag);
        }
        Some(Ipv4Packet {
            src: pkt.src,
            dst: pkt.dst,
            proto: pkt.proto,
            ident: pkt.ident,
            ttl: pkt.ttl,
            more_fragments: false,
            frag_offset: 0,
            payload: Bytes::from(payload),
            checksum_ok: true,
        })
    }

    fn expire(&mut self, now: SimTime) {
        let timeout = self.timeout;
        self.pending.retain(|_, d| d.first_seen + timeout > now);
    }

    /// Number of incomplete datagrams currently buffered.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ip(a: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, a)
    }

    fn pkt(len: usize) -> Ipv4Packet {
        let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        Ipv4Packet::new(ip(1), ip(2), IpProto::Udp, 42, Bytes::from(payload))
    }

    #[test]
    fn encode_decode_roundtrip_with_valid_checksum() {
        let p = pkt(100);
        let d = Ipv4Packet::decode(&p.encode()).unwrap();
        assert_eq!(d, p);
        assert!(d.checksum_ok);
    }

    #[test]
    fn corrupted_header_detected_not_rejected() {
        let mut bytes = pkt(10).encode();
        bytes[8] ^= 0xFF; // clobber TTL
        let d = Ipv4Packet::decode(&bytes).unwrap();
        assert!(!d.checksum_ok);
    }

    #[test]
    fn decode_errors() {
        assert_eq!(Ipv4Packet::decode(&[0u8; 10]), Err(IpError::Truncated));
        let mut b = pkt(10).encode();
        b[0] = 0x60; // IPv6 version
        assert_eq!(Ipv4Packet::decode(&b), Err(IpError::BadHeader));
        let b = pkt(100).encode();
        assert_eq!(Ipv4Packet::decode(&b[..50]), Err(IpError::Truncated));
    }

    #[test]
    fn small_packet_does_not_fragment() {
        let p = pkt(1000);
        let frags = p.clone().fragment(1500).unwrap();
        assert_eq!(frags, vec![p]);
    }

    #[test]
    fn fragmentation_offsets_are_multiples_of_8() {
        let frags = pkt(8000).fragment(1500).unwrap();
        assert!(frags.len() >= 6);
        for f in &frags {
            assert_eq!(f.frag_offset % 8, 0);
            assert!(f.wire_len() <= 1500);
        }
        assert!(!frags.last().unwrap().more_fragments);
        assert!(frags[..frags.len() - 1].iter().all(|f| f.more_fragments));
    }

    #[test]
    fn reassembly_in_order_and_shuffled() {
        let original = pkt(8000);
        let mut frags = original.clone().fragment(1500).unwrap();
        let mut r = Reassembler::new();
        // In order: only the last fragment completes it.
        for (i, f) in frags.iter().enumerate() {
            let res = r.push(f.clone(), SimTime::ZERO);
            if i + 1 < frags.len() {
                assert!(res.is_none());
            } else {
                assert_eq!(res.unwrap().payload, original.payload);
            }
        }
        // Shuffled order.
        let mut rng = mcn_sim::DetRng::new(3);
        rng.shuffle(&mut frags);
        let mut r = Reassembler::new();
        let mut done = None;
        for f in &frags {
            if let Some(p) = r.push(f.clone(), SimTime::ZERO) {
                done = Some(p);
            }
        }
        assert_eq!(done.unwrap().payload, original.payload);
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn duplicate_fragments_ignored() {
        let frags = pkt(4000).fragment(1500).unwrap();
        let mut r = Reassembler::new();
        assert!(r.push(frags[0].clone(), SimTime::ZERO).is_none());
        assert!(r.push(frags[0].clone(), SimTime::ZERO).is_none());
        assert!(r.push(frags[1].clone(), SimTime::ZERO).is_none());
        let out = r.push(frags[2].clone(), SimTime::ZERO).unwrap();
        assert_eq!(out.payload.len(), 4000);
    }

    #[test]
    fn stale_fragments_expire() {
        let frags = pkt(4000).fragment(1500).unwrap();
        let mut r = Reassembler::new();
        r.push(frags[0].clone(), SimTime::ZERO);
        assert_eq!(r.pending(), 1);
        // 31 s later a new fragment triggers expiry of the stale datagram.
        let other = pkt(3000);
        let of = other.fragment(1500).unwrap();
        r.push(of[0].clone(), SimTime::from_secs(31));
        assert_eq!(r.pending(), 1, "old datagram should have been expired");
    }

    proptest! {
        #[test]
        fn fragment_reassemble_identity(
            len in 1usize..20_000,
            mtu in 576usize..9000,
        ) {
            let p = pkt(len);
            let frags = p.clone().fragment(mtu).unwrap();
            let mut r = Reassembler::new();
            let mut out = None;
            for f in frags {
                prop_assert!(f.wire_len() <= mtu.max(f.wire_len().min(mtu)));
                if let Some(done) = r.push(f, SimTime::ZERO) {
                    prop_assert!(out.is_none());
                    out = Some(done);
                }
            }
            let out = out.expect("must complete");
            prop_assert_eq!(out.payload, p.payload);
        }
    }
}
