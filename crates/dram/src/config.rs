//! DRAM device and controller configuration.

use serde::{Deserialize, Serialize};

use mcn_sim::SimTime;

/// DDR4 device timing and geometry parameters.
///
/// Timing parameters are stored in **command-clock cycles** (as JEDEC
/// specifies them) together with the clock period `tck_ps`; use
/// [`cycles`](Self::cycles) to convert to [`SimTime`]. The
/// [`ddr4_3200`](Self::ddr4_3200) preset corresponds to the DDR4-3200
/// configuration in the paper's Table II.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DramConfig {
    /// Command clock period in picoseconds (DDR4-3200: 625 ps).
    pub tck_ps: u64,
    /// Burst length in beats (DDR4: 8). A burst transfers one 64-byte line
    /// over a 64-bit channel and occupies the data bus for `bl/2` cycles.
    pub bl: u64,

    // --- geometry (per channel) ---
    /// Ranks per channel.
    pub ranks: u32,
    /// Bank groups per rank (DDR4: 4).
    pub bank_groups: u32,
    /// Banks per bank group (DDR4: 4).
    pub banks_per_group: u32,
    /// Cache lines per row (row buffer size / 64 B). 128 → 8 KB row.
    pub cols_per_row: u64,
    /// Rows per bank (sets per-channel capacity; timing is row-count
    /// independent).
    pub rows_per_bank: u64,

    // --- core timing (cycles) ---
    /// ACT → internal RD/WR to the same bank.
    pub t_rcd: u64,
    /// PRE → ACT to the same bank.
    pub t_rp: u64,
    /// RD → first data beat (CAS latency).
    pub t_cl: u64,
    /// WR → first data beat (CAS write latency).
    pub t_cwl: u64,
    /// ACT → PRE minimum to the same bank.
    pub t_ras: u64,
    /// ACT → ACT to the same bank (tRAS + tRP).
    pub t_rc: u64,
    /// ACT → ACT, different bank groups.
    pub t_rrd_s: u64,
    /// ACT → ACT, same bank group.
    pub t_rrd_l: u64,
    /// Four-activate window: at most 4 ACTs per rank per window.
    pub t_faw: u64,
    /// CAS → CAS, different bank groups.
    pub t_ccd_s: u64,
    /// CAS → CAS, same bank group.
    pub t_ccd_l: u64,
    /// End of write data burst → PRE to the same bank (write recovery).
    pub t_wr: u64,
    /// End of write data burst → RD, different bank groups.
    pub t_wtr_s: u64,
    /// End of write data burst → RD, same bank group.
    pub t_wtr_l: u64,
    /// RD → PRE to the same bank.
    pub t_rtp: u64,
    /// Refresh cycle time (all banks busy after REF).
    pub t_rfc: u64,
    /// Average refresh interval.
    pub t_refi: u64,

    // --- controller ---
    /// Read queue capacity per channel.
    pub read_queue: usize,
    /// Write queue capacity per channel.
    pub write_queue: usize,
    /// Write-drain high watermark: once the write queue reaches this level
    /// the controller switches to draining writes.
    pub wq_high: usize,
    /// Write-drain low watermark: drain stops once the queue falls to this.
    pub wq_low: usize,
    /// Fixed controller front-end latency added to every completion
    /// (queueing/PHY/on-die interconnect), in picoseconds.
    pub frontend_ps: u64,
    /// Access latency of an MCN SRAM buffer behind the channel (replaces the
    /// bank access portion for `Target::Sram` transactions), picoseconds.
    pub sram_ps: u64,
}

impl DramConfig {
    /// DDR4-3200 (22-22-22), 2 ranks × 4 bank groups × 4 banks, 8 KB rows.
    ///
    /// Peak transfer rate: 3200 MT/s × 8 B = 25.6 GB/s per channel.
    pub fn ddr4_3200() -> Self {
        DramConfig {
            tck_ps: 625,
            bl: 8,
            ranks: 2,
            bank_groups: 4,
            banks_per_group: 4,
            cols_per_row: 128,
            rows_per_bank: 1 << 16,
            t_rcd: 22,
            t_rp: 22,
            t_cl: 22,
            t_cwl: 16,
            t_ras: 52,
            t_rc: 74,
            t_rrd_s: 4,
            t_rrd_l: 8,
            t_faw: 34,
            t_ccd_s: 4,
            t_ccd_l: 8,
            t_wr: 24,
            t_wtr_s: 4,
            t_wtr_l: 12,
            t_rtp: 12,
            t_rfc: 560,     // 350 ns for an 8 Gb device
            t_refi: 12_480, // 7.8 us
            read_queue: 32,
            write_queue: 32,
            wq_high: 24,
            wq_low: 8,
            frontend_ps: 10_000, // 10 ns controller + PHY front end
            sram_ps: 15_000,     // 15 ns MCN SRAM access
        }
    }

    /// Converts a cycle count to simulated time.
    #[inline]
    pub fn cycles(&self, n: u64) -> SimTime {
        SimTime::from_ps(n * self.tck_ps)
    }

    /// Data-bus occupancy of one burst (BL/2 command cycles).
    #[inline]
    pub fn t_burst(&self) -> SimTime {
        self.cycles(self.bl / 2)
    }

    /// Theoretical peak bandwidth of one channel in bytes/second.
    pub fn peak_bytes_per_sec(&self) -> f64 {
        crate::LINE_BYTES as f64 / self.t_burst().as_secs_f64()
    }

    /// Per-channel capacity in bytes.
    pub fn channel_bytes(&self) -> u64 {
        self.ranks as u64
            * self.bank_groups as u64
            * self.banks_per_group as u64
            * self.rows_per_bank
            * self.cols_per_row
            * crate::LINE_BYTES
    }

    /// Total banks per channel.
    pub fn banks_per_channel(&self) -> u32 {
        self.ranks * self.bank_groups * self.banks_per_group
    }

    /// Validates internal consistency (relations JEDEC guarantees and the
    /// scheduler relies on).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated relation.
    pub fn validate(&self) -> Result<(), String> {
        if self.tck_ps == 0 {
            return Err("tck_ps must be positive".into());
        }
        if !self.bl.is_multiple_of(2) || self.bl == 0 {
            return Err("burst length must be a positive even number".into());
        }
        if self.t_rc < self.t_ras + self.t_rp {
            return Err(format!(
                "tRC ({}) must be >= tRAS + tRP ({})",
                self.t_rc,
                self.t_ras + self.t_rp
            ));
        }
        if self.t_rrd_l < self.t_rrd_s {
            return Err("tRRD_L must be >= tRRD_S".into());
        }
        if self.t_ccd_l < self.t_ccd_s {
            return Err("tCCD_L must be >= tCCD_S".into());
        }
        if self.t_faw < self.t_rrd_s * 4 {
            return Err("tFAW must be >= 4 * tRRD_S".into());
        }
        if self.wq_low >= self.wq_high || self.wq_high > self.write_queue {
            return Err("require wq_low < wq_high <= write_queue".into());
        }
        if self.cols_per_row == 0 || !self.cols_per_row.is_power_of_two() {
            return Err("cols_per_row must be a power of two".into());
        }
        if !self.bank_groups.is_power_of_two() {
            return Err("bank_groups must be a power of two".into());
        }
        if !self.banks_per_group.is_power_of_two() {
            return Err("banks_per_group must be a power of two".into());
        }
        if self.t_refi <= self.t_rfc {
            return Err("tREFI must exceed tRFC".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        DramConfig::ddr4_3200().validate().unwrap();
    }

    #[test]
    fn ddr4_3200_peak_bandwidth() {
        let c = DramConfig::ddr4_3200();
        // 64 B per 4 cycles of 625 ps = 25.6 GB/s.
        let peak = c.peak_bytes_per_sec();
        assert!((peak - 25.6e9).abs() / 25.6e9 < 1e-9, "peak {peak}");
    }

    #[test]
    fn capacity_math() {
        let c = DramConfig::ddr4_3200();
        // 2 ranks * 16 banks * 65536 rows * 8KB row = 16 GiB.
        assert_eq!(c.channel_bytes(), 16 * (1 << 30));
        assert_eq!(c.banks_per_channel(), 32);
    }

    #[test]
    fn validate_catches_bad_configs() {
        let mut c = DramConfig::ddr4_3200();
        c.t_rc = 10;
        assert!(c.validate().is_err());

        let mut c = DramConfig::ddr4_3200();
        c.wq_high = c.wq_low;
        assert!(c.validate().is_err());

        let mut c = DramConfig::ddr4_3200();
        c.cols_per_row = 100;
        assert!(c.validate().is_err());

        // The address map decodes these with shifts and masks.
        let mut c = DramConfig::ddr4_3200();
        c.bank_groups = 3;
        assert!(c.validate().unwrap_err().contains("bank_groups"));

        let mut c = DramConfig::ddr4_3200();
        c.banks_per_group = 3;
        assert!(c.validate().unwrap_err().contains("banks_per_group"));

        let mut c = DramConfig::ddr4_3200();
        c.t_faw = 2;
        assert!(c.validate().is_err());
    }

    #[test]
    fn cycle_conversion() {
        let c = DramConfig::ddr4_3200();
        assert_eq!(c.cycles(22), SimTime::from_ps(13_750));
        assert_eq!(c.t_burst(), SimTime::from_ps(2_500));
    }
}
