//! RFC 1071 Internet checksum.
//!
//! Used by the IPv4 header, ICMP, UDP and TCP codecs. The MCN driver's
//! checksum-bypass optimisation (paper Sec. IV-A, `mcn2`) skips *calling*
//! these functions; the functions themselves always compute real sums so
//! that corruption injected on the Ethernet link model is actually caught.

/// Computes the ones-complement sum of `data` folded to 16 bits, with an
/// initial accumulator value (pass 0, or a pseudo-header sum).
pub fn ones_complement_sum(data: &[u8], init: u32) -> u16 {
    let mut sum = init;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    sum as u16
}

/// The Internet checksum of `data`: the ones-complement of the
/// ones-complement sum.
pub fn checksum(data: &[u8], init: u32) -> u16 {
    !ones_complement_sum(data, init)
}

/// Verifies a buffer that *includes* its checksum field: the ones-complement
/// sum over the whole buffer must be `0xFFFF`.
pub fn verify(data: &[u8], init: u32) -> bool {
    ones_complement_sum(data, init) == 0xFFFF
}

/// Sum of the TCP/UDP pseudo-header: source ip, destination ip, protocol and
/// L4 length. Feed the result as `init` to [`checksum`]/[`verify`].
pub fn pseudo_header_sum(
    src: std::net::Ipv4Addr,
    dst: std::net::Ipv4Addr,
    proto: u8,
    len: u16,
) -> u32 {
    let s = src.octets();
    let d = dst.octets();
    u32::from(u16::from_be_bytes([s[0], s[1]]))
        + u32::from(u16::from_be_bytes([s[2], s[3]]))
        + u32::from(u16::from_be_bytes([d[0], d[1]]))
        + u32::from(u16::from_be_bytes([d[2], d[3]]))
        + u32::from(proto)
        + u32::from(len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rfc1071_worked_example() {
        // The classic example from RFC 1071 section 3.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(ones_complement_sum(&data, 0), 0xddf2);
        assert_eq!(checksum(&data, 0), !0xddf2);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        assert_eq!(
            ones_complement_sum(&[0xAB], 0),
            ones_complement_sum(&[0xAB, 0x00], 0)
        );
    }

    #[test]
    fn empty_buffer() {
        assert_eq!(checksum(&[], 0), 0xFFFF);
        assert!(!verify(&[], 0)); // sum 0 != 0xFFFF
    }

    #[test]
    fn pseudo_header_known_value() {
        use std::net::Ipv4Addr;
        let sum = pseudo_header_sum(
            Ipv4Addr::new(192, 168, 0, 1),
            Ipv4Addr::new(192, 168, 0, 2),
            6,
            20,
        );
        // 0xc0a8 + 0x0001 + 0xc0a8 + 0x0002 + 6 + 20
        assert_eq!(sum, 0xc0a8 + 0x0001 + 0xc0a8 + 0x0002 + 6 + 20);
    }

    proptest! {
        /// Embedding the checksum makes the buffer verify; flipping any bit
        /// breaks verification (checksum catches all single-bit errors).
        #[test]
        fn roundtrip_and_single_bit_detection(
            mut data in prop::collection::vec(any::<u8>(), 4..128),
            flip_bit in 0usize..32,
        ) {
            // Reserve bytes 2..4 as the checksum field, zeroed for computing.
            data[2] = 0;
            data[3] = 0;
            let c = checksum(&data, 0);
            data[2..4].copy_from_slice(&c.to_be_bytes());
            prop_assert!(verify(&data, 0));

            let byte = flip_bit / 8 % data.len();
            let bit = flip_bit % 8;
            data[byte] ^= 1 << bit;
            prop_assert!(!verify(&data, 0));
        }

        /// Checksum is independent of 16-bit word order (commutativity),
        /// a property RFC 1071 calls out.
        #[test]
        fn word_order_independent(words in prop::collection::vec(any::<u16>(), 1..64)) {
            let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_be_bytes()).collect();
            let mut rev: Vec<u16> = words.clone();
            rev.reverse();
            let rbytes: Vec<u8> = rev.iter().flat_map(|w| w.to_be_bytes()).collect();
            prop_assert_eq!(checksum(&bytes, 0), checksum(&rbytes, 0));
        }
    }
}
