//! Ethernet layer: MAC addresses and frames.

use std::fmt;

use bytes::Bytes;
use serde::{Deserialize, Serialize};

/// Bytes of an Ethernet header (dst + src + ethertype, no VLAN, no FCS).
pub const ETHER_HEADER_BYTES: usize = 14;

/// A 48-bit IEEE MAC address.
///
/// The MCN host-side driver assigns one to each virtual Ethernet interface
/// it creates per MCN DIMM (paper Sec. III-B, "Network organization").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff` (forwarding case F2).
    pub const BROADCAST: MacAddr = MacAddr([0xFF; 6]);

    /// A locally administered unicast address derived from a small id:
    /// `02:4d:43:4e:<hi>:<lo>` ("MCN" in the OUI bytes).
    pub fn from_id(id: u16) -> MacAddr {
        let [hi, lo] = id.to_be_bytes();
        MacAddr([0x02, 0x4D, 0x43, 0x4E, hi, lo])
    }

    /// True for the broadcast address.
    pub fn is_broadcast(&self) -> bool {
        *self == Self::BROADCAST
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

/// EtherType of the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EtherType {
    /// IPv4 (0x0800) — the only type the MCN network carries.
    Ipv4,
    /// Anything else, preserved for pass-through.
    Other(u16),
}

impl EtherType {
    fn to_u16(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Other(v) => v,
        }
    }

    fn from_u16(v: u16) -> Self {
        match v {
            0x0800 => EtherType::Ipv4,
            other => EtherType::Other(other),
        }
    }
}

/// An Ethernet II frame.
///
/// Frames move through the simulation as structured values (no per-hop
/// re-encode), but [`encode`](Self::encode)/[`decode`](Self::decode) produce
/// and parse real wire bytes — the link model uses them when injecting
/// corruption, and the property tests check the roundtrip.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EthernetFrame {
    /// Destination MAC — the first six bytes on the wire, which the MCN
    /// host-side driver reads in step R3 to route the packet (F1–F4).
    pub dst: MacAddr,
    /// Source MAC.
    pub src: MacAddr,
    /// Payload type.
    pub ethertype: EtherType,
    /// Payload bytes (an encoded IPv4 packet for `EtherType::Ipv4`).
    pub payload: Bytes,
    /// Frame-check-sequence validity. Real Ethernet appends a CRC32 the
    /// receiving MAC verifies; the link model clears this flag when it
    /// injects corruption, and NIC models drop such frames before the
    /// stack sees them (which is what makes *hardware* checksum offload
    /// safe on the 10GbE baseline, while MCN's virtual device relies on
    /// the memory channel's ECC instead).
    pub fcs_ok: bool,
}

impl EthernetFrame {
    /// Builds an IPv4 frame.
    pub fn ipv4(dst: MacAddr, src: MacAddr, payload: Bytes) -> Self {
        EthernetFrame {
            dst,
            src,
            ethertype: EtherType::Ipv4,
            payload,
            fcs_ok: true,
        }
    }

    /// Frame length on the wire in bytes (header + payload, padded to the
    /// 64-byte Ethernet minimum; FCS ignored).
    pub fn wire_len(&self) -> usize {
        (ETHER_HEADER_BYTES + self.payload.len()).max(64)
    }

    /// Serializes to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(ETHER_HEADER_BYTES + self.payload.len());
        out.extend_from_slice(&self.dst.0);
        out.extend_from_slice(&self.src.0);
        out.extend_from_slice(&self.ethertype.to_u16().to_be_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parses wire bytes.
    ///
    /// # Errors
    ///
    /// Returns `Err` if the buffer is shorter than an Ethernet header.
    pub fn decode(data: &[u8]) -> Result<Self, FrameError> {
        if data.len() < ETHER_HEADER_BYTES {
            return Err(FrameError::Truncated);
        }
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        dst.copy_from_slice(&data[0..6]);
        src.copy_from_slice(&data[6..12]);
        let ethertype = EtherType::from_u16(u16::from_be_bytes([data[12], data[13]]));
        Ok(EthernetFrame {
            dst: MacAddr(dst),
            src: MacAddr(src),
            ethertype,
            payload: Bytes::copy_from_slice(&data[ETHER_HEADER_BYTES..]),
            fcs_ok: true,
        })
    }
}

/// Ethernet frame parse error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Buffer shorter than the header.
    Truncated,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame shorter than ethernet header"),
        }
    }
}

impl std::error::Error for FrameError {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mac_display_and_broadcast() {
        assert_eq!(MacAddr::from_id(0x1234).to_string(), "02:4d:43:4e:12:34");
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(!MacAddr::from_id(1).is_broadcast());
    }

    #[test]
    fn wire_len_has_ethernet_minimum() {
        let f = EthernetFrame::ipv4(MacAddr::from_id(1), MacAddr::from_id(2), Bytes::new());
        assert_eq!(f.wire_len(), 64);
        let big = EthernetFrame::ipv4(
            MacAddr::from_id(1),
            MacAddr::from_id(2),
            Bytes::from(vec![0u8; 1500]),
        );
        assert_eq!(big.wire_len(), 1514);
    }

    #[test]
    fn decode_rejects_short_buffers() {
        assert_eq!(
            EthernetFrame::decode(&[0u8; 13]),
            Err(FrameError::Truncated)
        );
    }

    proptest! {
        #[test]
        fn encode_decode_roundtrip(
            dst in any::<[u8; 6]>(),
            src in any::<[u8; 6]>(),
            ethertype in any::<u16>(),
            payload in prop::collection::vec(any::<u8>(), 0..256),
        ) {
            let f = EthernetFrame {
                dst: MacAddr(dst),
                src: MacAddr(src),
                ethertype: EtherType::from_u16(ethertype),
                payload: Bytes::from(payload),
                fcs_ok: true,
            };
            let decoded = EthernetFrame::decode(&f.encode()).unwrap();
            prop_assert_eq!(f, decoded);
        }
    }
}
