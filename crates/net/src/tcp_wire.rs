//! TCP segment wire format.

use std::fmt;
use std::net::Ipv4Addr;

use bytes::Bytes;

use crate::checksum;

/// Bytes of a TCP header without options.
pub const TCP_HEADER_BYTES: usize = 20;

/// TCP flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags {
    /// SYN.
    pub syn: bool,
    /// ACK.
    pub ack: bool,
    /// FIN.
    pub fin: bool,
    /// RST.
    pub rst: bool,
    /// PSH.
    pub psh: bool,
}

impl TcpFlags {
    /// Just SYN.
    pub const SYN: TcpFlags = TcpFlags {
        syn: true,
        ack: false,
        fin: false,
        rst: false,
        psh: false,
    };
    /// Just ACK.
    pub const ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: false,
        rst: false,
        psh: false,
    };
    /// SYN+ACK.
    pub const SYN_ACK: TcpFlags = TcpFlags {
        syn: true,
        ack: true,
        fin: false,
        rst: false,
        psh: false,
    };
    /// FIN+ACK.
    pub const FIN_ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: true,
        rst: false,
        psh: false,
    };
    /// Just RST.
    pub const RST: TcpFlags = TcpFlags {
        syn: false,
        ack: false,
        fin: false,
        rst: true,
        psh: false,
    };

    fn to_u8(self) -> u8 {
        (self.fin as u8)
            | (self.syn as u8) << 1
            | (self.rst as u8) << 2
            | (self.psh as u8) << 3
            | (self.ack as u8) << 4
    }

    fn from_u8(v: u8) -> Self {
        TcpFlags {
            fin: v & 0x01 != 0,
            syn: v & 0x02 != 0,
            rst: v & 0x04 != 0,
            psh: v & 0x08 != 0,
            ack: v & 0x10 != 0,
        }
    }
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut any = false;
        for (set, name) in [
            (self.syn, "SYN"),
            (self.ack, "ACK"),
            (self.fin, "FIN"),
            (self.rst, "RST"),
            (self.psh, "PSH"),
        ] {
            if set {
                if any {
                    write!(f, "|")?;
                }
                write!(f, "{name}")?;
                any = true;
            }
        }
        if !any {
            write!(f, "none")?;
        }
        Ok(())
    }
}

/// A TCP segment.
///
/// Options supported: MSS (kind 2, on SYN) and window scale (kind 3, on
/// SYN), which the stack needs for jumbo-MTU and high-bandwidth-delay
/// operation. Other options are ignored on decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpSegment {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte.
    pub seq: u32,
    /// Acknowledgement number (valid when `flags.ack`).
    pub ack: u32,
    /// Flags.
    pub flags: TcpFlags,
    /// Window field (unscaled, as on the wire).
    pub window: u16,
    /// MSS option (SYN segments).
    pub mss: Option<u16>,
    /// Window-scale option (SYN segments).
    pub wscale: Option<u8>,
    /// Payload.
    pub payload: Bytes,
    /// Whether the checksum verified on decode (`true` when constructed
    /// locally, or when the stack skipped checksumming — the `mcn2` bypass).
    pub checksum_ok: bool,
}

/// TCP parse error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpWireError;

impl fmt::Display for TcpWireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tcp segment truncated or malformed")
    }
}

impl std::error::Error for TcpWireError {}

impl TcpSegment {
    /// Header length including options, padded to 4 bytes.
    pub fn header_len(&self) -> usize {
        let mut opts = 0usize;
        if self.mss.is_some() {
            opts += 4;
        }
        if self.wscale.is_some() {
            opts += 3;
        }
        TCP_HEADER_BYTES + opts.div_ceil(4) * 4
    }

    /// Segment length on the wire.
    pub fn wire_len(&self) -> usize {
        self.header_len() + self.payload.len()
    }

    /// Sequence space consumed (payload + SYN/FIN each count one).
    pub fn seq_len(&self) -> u32 {
        self.payload.len() as u32 + self.flags.syn as u32 + self.flags.fin as u32
    }

    /// Serializes; `with_checksum = false` leaves the checksum zero (MCN's
    /// checksum bypass — legal there because the memory channel is
    /// ECC/CRC-protected, per paper Sec. IV-A).
    pub fn encode(&self, src: Ipv4Addr, dst: Ipv4Addr, with_checksum: bool) -> Vec<u8> {
        let hl = self.header_len();
        let mut out = Vec::with_capacity(hl + self.payload.len());
        out.extend_from_slice(&self.src_port.to_be_bytes());
        out.extend_from_slice(&self.dst_port.to_be_bytes());
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(&self.ack.to_be_bytes());
        out.push(((hl / 4) as u8) << 4);
        out.push(self.flags.to_u8());
        out.extend_from_slice(&self.window.to_be_bytes());
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        out.extend_from_slice(&[0, 0]); // urgent pointer
        if let Some(mss) = self.mss {
            out.extend_from_slice(&[2, 4]);
            out.extend_from_slice(&mss.to_be_bytes());
        }
        if let Some(ws) = self.wscale {
            out.extend_from_slice(&[3, 3, ws]);
        }
        while out.len() < hl {
            out.push(1); // NOP padding
        }
        out.extend_from_slice(&self.payload);
        if with_checksum {
            let init = checksum::pseudo_header_sum(src, dst, 6, out.len() as u16);
            let c = checksum::checksum(&out, init);
            out[16..18].copy_from_slice(&c.to_be_bytes());
        }
        out
    }

    /// Parses wire bytes. `verify_checksum = false` implements the receive
    /// side of the MCN checksum bypass: validity is assumed.
    ///
    /// # Errors
    ///
    /// Returns [`TcpWireError`] for truncated or malformed segments.
    pub fn decode(
        data: &[u8],
        src: Ipv4Addr,
        dst: Ipv4Addr,
        verify_checksum: bool,
    ) -> Result<Self, TcpWireError> {
        if data.len() < TCP_HEADER_BYTES {
            return Err(TcpWireError);
        }
        let hl = ((data[12] >> 4) as usize) * 4;
        if hl < TCP_HEADER_BYTES || data.len() < hl {
            return Err(TcpWireError);
        }
        let mut mss = None;
        let mut wscale = None;
        let mut opt = &data[TCP_HEADER_BYTES..hl];
        while !opt.is_empty() {
            match opt[0] {
                0 => break,           // end of options
                1 => opt = &opt[1..], // NOP
                2 if opt.len() >= 4 => {
                    mss = Some(u16::from_be_bytes([opt[2], opt[3]]));
                    opt = &opt[4..];
                }
                3 if opt.len() >= 3 => {
                    wscale = Some(opt[2]);
                    opt = &opt[3..];
                }
                _ => {
                    // Unknown option: honour its length byte or bail.
                    if opt.len() >= 2 && opt[1] as usize >= 2 && opt[1] as usize <= opt.len() {
                        let l = opt[1] as usize;
                        opt = &opt[l..];
                    } else {
                        break;
                    }
                }
            }
        }
        let wire_sum = u16::from_be_bytes([data[16], data[17]]);
        let checksum_ok = if !verify_checksum || wire_sum == 0 {
            true
        } else {
            let init = checksum::pseudo_header_sum(src, dst, 6, data.len() as u16);
            checksum::verify(data, init)
        };
        Ok(TcpSegment {
            src_port: u16::from_be_bytes([data[0], data[1]]),
            dst_port: u16::from_be_bytes([data[2], data[3]]),
            seq: u32::from_be_bytes([data[4], data[5], data[6], data[7]]),
            ack: u32::from_be_bytes([data[8], data[9], data[10], data[11]]),
            flags: TcpFlags::from_u8(data[13]),
            window: u16::from_be_bytes([data[14], data[15]]),
            mss,
            wscale,
            payload: Bytes::copy_from_slice(&data[hl..]),
            checksum_ok,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn addrs() -> (Ipv4Addr, Ipv4Addr) {
        (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
    }

    fn seg() -> TcpSegment {
        TcpSegment {
            src_port: 5001,
            dst_port: 40000,
            seq: 0x12345678,
            ack: 0x9abcdef0,
            flags: TcpFlags::ACK,
            window: 0xF000,
            mss: None,
            wscale: None,
            payload: Bytes::from_static(b"data!"),
            checksum_ok: true,
        }
    }

    #[test]
    fn roundtrip_plain() {
        let (s, d) = addrs();
        let x = seg();
        let y = TcpSegment::decode(&x.encode(s, d, true), s, d, true).unwrap();
        assert_eq!(x, y);
        assert!(y.checksum_ok);
    }

    #[test]
    fn roundtrip_with_options() {
        let (s, d) = addrs();
        let mut x = seg();
        x.flags = TcpFlags::SYN;
        x.mss = Some(8960);
        x.wscale = Some(7);
        x.payload = Bytes::new();
        let y = TcpSegment::decode(&x.encode(s, d, true), s, d, true).unwrap();
        assert_eq!(y.mss, Some(8960));
        assert_eq!(y.wscale, Some(7));
        assert!(y.checksum_ok);
        assert_eq!(y.header_len(), 28); // 20 + 7 opts padded to 8
    }

    #[test]
    fn corruption_detected_or_bypassed() {
        let (s, d) = addrs();
        let mut b = seg().encode(s, d, true);
        *b.last_mut().unwrap() ^= 0x40;
        assert!(!TcpSegment::decode(&b, s, d, true).unwrap().checksum_ok);
        // Bypass: corruption invisible (paper relies on channel ECC instead).
        assert!(TcpSegment::decode(&b, s, d, false).unwrap().checksum_ok);
    }

    #[test]
    fn seq_len_counts_syn_fin() {
        let mut x = seg();
        assert_eq!(x.seq_len(), 5);
        x.flags = TcpFlags::SYN;
        x.payload = Bytes::new();
        assert_eq!(x.seq_len(), 1);
        x.flags = TcpFlags::FIN_ACK;
        assert_eq!(x.seq_len(), 1);
    }

    #[test]
    fn flags_display() {
        assert_eq!(TcpFlags::SYN_ACK.to_string(), "SYN|ACK");
        assert_eq!(TcpFlags::default().to_string(), "none");
    }

    proptest! {
        #[test]
        fn roundtrip_prop(
            sp in any::<u16>(), dp in any::<u16>(),
            seq in any::<u32>(), ack in any::<u32>(),
            flags in 0u8..32,
            window in any::<u16>(),
            mss in prop::option::of(536u16..9000),
            wscale in prop::option::of(0u8..14),
            payload in prop::collection::vec(any::<u8>(), 0..2048),
            with_checksum in any::<bool>(),
        ) {
            let (s, d) = addrs();
            let x = TcpSegment {
                src_port: sp, dst_port: dp, seq, ack,
                flags: TcpFlags::from_u8(flags),
                window, mss, wscale,
                payload: Bytes::from(payload),
                checksum_ok: true,
            };
            let y = TcpSegment::decode(&x.encode(s, d, with_checksum), s, d, with_checksum).unwrap();
            prop_assert_eq!(x, y);
        }
    }
}
