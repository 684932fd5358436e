//! Physical address ↔ DRAM coordinate mapping.

use serde::{Deserialize, Serialize};

use crate::{DramConfig, LINE_BYTES};

/// DRAM coordinates of one cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Location {
    /// Channel index.
    pub channel: u32,
    /// Rank within the channel.
    pub rank: u32,
    /// Bank group within the rank.
    pub bank_group: u32,
    /// Bank within the bank group.
    pub bank: u32,
    /// Row within the bank.
    pub row: u64,
    /// Column (cache-line index) within the row.
    pub col: u64,
}

impl Location {
    /// Flat bank index within the channel (rank-major).
    pub fn flat_bank(&self, cfg: &DramConfig) -> usize {
        ((self.rank * cfg.bank_groups + self.bank_group) * cfg.banks_per_group + self.bank) as usize
    }
}

/// Address interleaving scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Interleave {
    /// `Ro:Ra:Ba:Co:Bg:Ch` — consecutive cache lines rotate first across
    /// channels, then across **bank groups**, then columns. Back-to-back
    /// lines of a stream land in different bank groups, so the short
    /// tCCD_S/tRRD_S timings apply and a single stream can saturate the
    /// channel. This mirrors what server memory controllers actually do and
    /// is the default.
    BgInterleaved,
    /// `Ro:Ra:Bg:Ba:Co:Ch` — naive mapping: after channel interleaving, a
    /// stream walks an entire row in one bank before moving on. Kept as an
    /// ablation (`bench: ablation_addr_map`) to show why bank-group
    /// interleaving matters.
    RowBankCol,
}

/// Maps physical addresses to DRAM coordinates across `channels` channels.
///
/// The host processor interleaves successive cache lines across all
/// populated channels (Sec. III-B / Fig 6 of the paper); the MCN driver's
/// `memcpy_to_mcn` uses [`AddressMap::channel_of`] to place 64-byte blocks
/// so that a logically contiguous packet ends up entirely in one DIMM's
/// SRAM — the property the `mcn` crate's property tests verify.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AddressMap {
    channels: u32,
    scheme: Interleave,
    cfg: DramConfig,
    /// Where `scheme` puts the bank group, column and bank in a line's
    /// per-channel index; above them sit rank and row.
    bank_group: Field,
    col: Field,
    bank: Field,
    /// Bits below the rank and row.
    low_bits: u32,
    /// [`total_bytes`](Self::total_bytes), checked on every decode.
    total: u64,
}

/// A power-of-two field of a line's per-channel index.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Field {
    shift: u32,
    mask: u64,
}

impl Field {
    #[inline]
    fn get(self, rest: u64) -> u64 {
        (rest >> self.shift) & self.mask
    }
}

impl AddressMap {
    /// Creates a map over `channels` channels using `scheme`.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero or `cfg` fails validation.
    pub fn new(cfg: DramConfig, channels: u32, scheme: Interleave) -> Self {
        assert!(channels > 0, "need at least one channel");
        cfg.validate().expect("invalid DRAM config");
        // `validate` makes each field's size a power of two.
        let field = |shift: u32, size: u64| Field {
            shift,
            mask: size - 1,
        };
        let (groups, banks) = (u64::from(cfg.bank_groups), u64::from(cfg.banks_per_group));
        let (bg_bits, col_bits, bank_bits) = (
            groups.trailing_zeros(),
            cfg.cols_per_row.trailing_zeros(),
            banks.trailing_zeros(),
        );
        let (bank_group, col, bank) = match scheme {
            Interleave::BgInterleaved => (
                field(0, groups),
                field(bg_bits, cfg.cols_per_row),
                field(bg_bits + col_bits, banks),
            ),
            Interleave::RowBankCol => (
                field(col_bits + bank_bits, groups),
                field(0, cfg.cols_per_row),
                field(col_bits, banks),
            ),
        };
        AddressMap {
            total: cfg.channel_bytes() * u64::from(channels),
            channels,
            scheme,
            cfg,
            bank_group,
            col,
            bank,
            low_bits: bg_bits + col_bits + bank_bits,
        }
    }

    /// Number of channels covered by this map.
    pub fn channels(&self) -> u32 {
        self.channels
    }

    /// The configuration this map was built with.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Total mapped capacity in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total
    }

    /// Channel that cache line containing `addr` maps to.
    ///
    /// Channel interleaving is at cache-line granularity regardless of
    /// scheme, exactly like the host MC in Fig 6.
    #[inline]
    pub fn channel_of(&self, addr: u64) -> u32 {
        ((addr / LINE_BYTES) % self.channels as u64) as u32
    }

    /// Full coordinate decode of the line containing `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is beyond the mapped capacity.
    pub fn decode(&self, addr: u64) -> Location {
        assert!(
            addr < self.total,
            "address {addr:#x} beyond capacity {:#x}",
            self.total
        );
        let line = addr / LINE_BYTES;
        let channels = u64::from(self.channels);
        let rest = line / channels;
        let high = rest >> self.low_bits;
        let ranks = u64::from(self.cfg.ranks);
        Location {
            channel: (line % channels) as u32,
            rank: (high % ranks) as u32,
            bank_group: self.bank_group.get(rest) as u32,
            bank: self.bank.get(rest) as u32,
            row: high / ranks,
            col: self.col.get(rest),
        }
    }

    /// Inverse of [`decode`](Self::decode): the base address of the line at
    /// the given coordinates.
    pub fn encode(&self, loc: Location) -> u64 {
        let c = &self.cfg;
        let rest = match self.scheme {
            Interleave::BgInterleaved => {
                (((loc.row * c.ranks as u64 + loc.rank as u64) * c.banks_per_group as u64
                    + loc.bank as u64)
                    * c.cols_per_row
                    + loc.col)
                    * c.bank_groups as u64
                    + loc.bank_group as u64
            }
            Interleave::RowBankCol => {
                (((loc.row * c.ranks as u64 + loc.rank as u64) * c.bank_groups as u64
                    + loc.bank_group as u64)
                    * c.banks_per_group as u64
                    + loc.bank as u64)
                    * c.cols_per_row
                    + loc.col
            }
        };
        (rest * self.channels as u64 + loc.channel as u64) * LINE_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn map(channels: u32, scheme: Interleave) -> AddressMap {
        AddressMap::new(DramConfig::ddr4_3200(), channels, scheme)
    }

    #[test]
    fn channel_interleaving_is_per_line() {
        let m = map(4, Interleave::BgInterleaved);
        for line in 0..64u64 {
            assert_eq!(m.channel_of(line * 64), (line % 4) as u32);
            // All bytes within a line map to the same channel.
            assert_eq!(m.channel_of(line * 64 + 63), (line % 4) as u32);
        }
    }

    #[test]
    fn bg_interleave_rotates_bank_groups() {
        let m = map(1, Interleave::BgInterleaved);
        let groups: Vec<u32> = (0..8u64).map(|l| m.decode(l * 64).bank_group).collect();
        assert_eq!(groups, [0, 1, 2, 3, 0, 1, 2, 3]);
        // Same row and column pattern repeats within the same bank.
        assert_eq!(m.decode(0).col, 0);
        assert_eq!(m.decode(4 * 64).col, 1);
    }

    #[test]
    fn naive_interleave_stays_in_bank() {
        let m = map(1, Interleave::RowBankCol);
        for l in 0..128u64 {
            let loc = m.decode(l * 64);
            assert_eq!(loc.bank_group, 0);
            assert_eq!(loc.bank, 0);
            assert_eq!(loc.col, l);
        }
        assert_eq!(m.decode(128 * 64).bank, 1);
    }

    #[test]
    fn flat_bank_is_dense_and_unique() {
        let m = map(1, Interleave::BgInterleaved);
        let cfg = m.config().clone();
        let mut seen = std::collections::HashSet::new();
        // Walk enough lines to touch every bank.
        for l in 0..(cfg.banks_per_channel() as u64 * cfg.cols_per_row * 4) {
            let fb = m.decode(l * 64).flat_bank(&cfg);
            assert!(fb < cfg.banks_per_channel() as usize);
            seen.insert(fb);
        }
        assert_eq!(seen.len(), cfg.banks_per_channel() as usize);
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn decode_out_of_range_panics() {
        let m = map(1, Interleave::BgInterleaved);
        m.decode(m.total_bytes());
    }

    proptest! {
        #[test]
        fn decode_encode_roundtrip(
            line in 0u64..(1 << 28),
            channels in 1u32..=4,
            bg in prop::bool::ANY,
        ) {
            let scheme = if bg { Interleave::BgInterleaved } else { Interleave::RowBankCol };
            let m = map(channels, scheme);
            let addr = (line * 64) % m.total_bytes();
            let addr = addr - addr % 64;
            let loc = m.decode(addr);
            prop_assert_eq!(m.encode(loc), addr);
            prop_assert_eq!(loc.channel, m.channel_of(addr));
        }

        #[test]
        fn coordinates_in_range(line in 0u64..(1 << 28)) {
            let m = map(2, Interleave::BgInterleaved);
            let c = m.config().clone();
            let loc = m.decode((line * 64) % m.total_bytes());
            prop_assert!(loc.rank < c.ranks);
            prop_assert!(loc.bank_group < c.bank_groups);
            prop_assert!(loc.bank < c.banks_per_group);
            prop_assert!(loc.row < c.rows_per_bank);
            prop_assert!(loc.col < c.cols_per_row);
        }
    }
}
