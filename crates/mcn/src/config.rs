//! Configuration: the paper's Table I (optimisation levels) and Table II
//! (system parameters).

use std::fmt;

use serde::{Deserialize, Serialize};

use mcn_dram::DramConfig;
use mcn_sim::SimTime;

/// MCN optimisation configuration — the knobs of Table I.
///
/// `mcn0` is the software-only baseline; each level adds one optimisation
/// cumulatively:
///
/// | level | adds |
/// |-------|------|
/// | mcn0  | HR-timer polling implementation |
/// | mcn1  | MCN DIMM interrupt mechanism (re-purposed ALERT_N) |
/// | mcn2  | IPv4 checksum bypassing |
/// | mcn3  | MTU increased to 9 KB |
/// | mcn4  | TCP segmentation offload |
/// | mcn5  | MCN-DMA engines |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct McnConfig {
    /// ALERT_N-based interrupt from DIMM to host instead of periodic
    /// HR-timer polling (`mcn1`).
    pub alert_interrupt: bool,
    /// Skip software checksum generation and verification on MCN
    /// interfaces; the memory channel's ECC/CRC protects the data (`mcn2`).
    pub checksum_bypass: bool,
    /// 9 KB jumbo MTU on MCN interfaces (`mcn3`).
    pub jumbo_mtu: bool,
    /// TCP segmentation offload: the stack emits up to 64 KB segments and
    /// the MCN driver transmits them unsegmented (`mcn4`).
    pub tso: bool,
    /// MCN-DMA engines copy packets between DRAM and SRAM instead of the
    /// CPUs (`mcn5`).
    pub dma: bool,
}

impl McnConfig {
    /// The cumulative optimisation level `n` (0..=5) from Table I.
    ///
    /// # Panics
    ///
    /// Panics if `n > 5`.
    pub fn level(n: u32) -> Self {
        assert!(n <= 5, "Table I defines mcn0..mcn5");
        McnConfig {
            alert_interrupt: n >= 1,
            checksum_bypass: n >= 2,
            jumbo_mtu: n >= 3,
            tso: n >= 4,
            dma: n >= 5,
        }
    }

    /// Inverse of [`level`](Self::level) for cumulative configs; `None`
    /// for mixed (ablation) configs.
    pub fn level_number(&self) -> Option<u32> {
        (0..=5).find(|&n| Self::level(n) == *self)
    }

    /// The MTU this configuration runs with.
    pub fn mtu(&self) -> usize {
        if self.jumbo_mtu {
            mcn_net::MTU_JUMBO
        } else {
            mcn_net::MTU_ETHERNET
        }
    }
}

impl Default for McnConfig {
    /// `mcn0`.
    fn default() -> Self {
        Self::level(0)
    }
}

impl fmt::Display for McnConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.level_number() {
            Some(n) => write!(f, "mcn{n}"),
            None => write!(
                f,
                "mcn-custom(alert={},csum_bypass={},jumbo={},tso={},dma={})",
                self.alert_interrupt, self.checksum_bypass, self.jumbo_mtu, self.tso, self.dma
            ),
        }
    }
}

/// The simulated machine of Table II plus the two MCN parameters the paper
/// leaves to the implementation that experiments vary: the polling
/// interval and the SRAM ring size. The drivers' fixed timings are
/// constants of the [`driver`](crate::driver) module.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Host cores (Table II: 8).
    pub host_cores: usize,
    /// MCN processor cores per DIMM (Table II: 4).
    pub mcn_cores: usize,
    /// Host memory channels (DIMMs spread evenly across them).
    pub host_channels: u32,
    /// Local memory channels per MCN DIMM (the MCN processor has two local
    /// MCs, Fig. 3(a)).
    pub mcn_channels: u32,
    /// Host DRAM configuration (Table II: DDR4-3200).
    pub host_dram: DramConfig,
    /// MCN-local DRAM configuration. Table II gives DDR4-3200 for the
    /// DRAM on the MCN DIMM (the DIMM carries commodity DDR4 devices that
    /// the MCN processor reaches through its local channels, Fig. 3).
    pub mcn_dram: DramConfig,
    /// HR-timer polling interval for the `mcn0` polling agent.
    pub poll_interval: SimTime,
    /// SRAM ring capacity per direction, in bytes. The paper's prototype
    /// uses a 96 KB SRAM; we default to 160 KB per direction so TSO's
    /// 64 KB chunks double-buffer (documented substitution in DESIGN.md).
    pub sram_ring_bytes: usize,
    /// Baseline Ethernet bandwidth in bytes/second (Table II: 10GbE).
    pub eth_bytes_per_sec: f64,
    /// Baseline Ethernet link latency (Table II: 1 µs).
    pub eth_latency: SimTime,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            host_cores: 8,
            mcn_cores: 4,
            host_channels: 2,
            mcn_channels: 2,
            host_dram: DramConfig::ddr4_3200(),
            mcn_dram: DramConfig::ddr4_3200(),
            poll_interval: SimTime::from_us(1),
            sram_ring_bytes: 160 * 1024,
            eth_bytes_per_sec: 1.25e9,
            eth_latency: SimTime::from_us(1),
        }
    }
}

impl SystemConfig {
    /// Renders Table I (the `table1` harness prints this).
    pub fn render_table1() -> String {
        let rows = [
            "mcn0 | baseline MCN with HR-timer polling implementation",
            "mcn1 | mcn0 + MCN DIMM interrupt mechanism",
            "mcn2 | mcn1 + IPv4 checksum bypassing",
            "mcn3 | mcn2 + MTU increasing to 9KB",
            "mcn4 | mcn3 + enabling TSO",
            "mcn5 | mcn4 + enabling MCN-DMA",
        ];
        let mut s = String::from("TABLE I: DIFFERENT MCN CONFIGURATIONS\n");
        for r in rows {
            s.push_str(r);
            s.push('\n');
        }
        s
    }

    /// Renders Table II from the live configuration.
    pub fn render_table2(&self) -> String {
        format!(
            "TABLE II: SYSTEM CONFIGURATION\n\
             Cores (# cores, freq): MCN/Host | ({}, 2.45GHz)/({}, 3.4GHz)\n\
             Host memory channels           | {}\n\
             MCN local memory channels      | {}\n\
             DRAM                           | DDR4-{}MHz (host), DDR4-{}MHz (MCN)\n\
             Network                        | {:.0}GbE/{} link latency\n\
             Polling interval (mcn0)        | {}\n\
             SRAM ring capacity             | {} KB per direction\n",
            self.mcn_cores,
            self.host_cores,
            self.host_channels,
            self.mcn_channels,
            2_000_000 / self.host_dram.tck_ps, // MT/s from tCK
            2_000_000 / self.mcn_dram.tck_ps,
            self.eth_bytes_per_sec * 8.0 / 1e9,
            self.eth_latency,
            self.poll_interval,
            self.sram_ring_bytes / 1024,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_cumulative() {
        let l0 = McnConfig::level(0);
        assert!(!l0.alert_interrupt && !l0.checksum_bypass && !l0.jumbo_mtu && !l0.tso && !l0.dma);
        let l5 = McnConfig::level(5);
        assert!(l5.alert_interrupt && l5.checksum_bypass && l5.jumbo_mtu && l5.tso && l5.dma);
        for n in 0..=5u32 {
            assert_eq!(McnConfig::level(n).level_number(), Some(n));
        }
    }

    #[test]
    fn display_names_match_table1() {
        assert_eq!(McnConfig::level(0).to_string(), "mcn0");
        assert_eq!(McnConfig::level(5).to_string(), "mcn5");
        let mixed = McnConfig {
            alert_interrupt: false,
            checksum_bypass: true,
            jumbo_mtu: false,
            tso: false,
            dma: false,
        };
        assert_eq!(mixed.level_number(), None);
        assert!(mixed.to_string().starts_with("mcn-custom"));
    }

    #[test]
    fn mtu_follows_jumbo_flag() {
        assert_eq!(McnConfig::level(2).mtu(), 1500);
        assert_eq!(McnConfig::level(3).mtu(), 9000);
    }

    #[test]
    #[should_panic(expected = "Table I")]
    fn level_6_rejected() {
        McnConfig::level(6);
    }

    #[test]
    fn tables_render() {
        let t1 = SystemConfig::render_table1();
        assert!(t1.contains("mcn5 | mcn4 + enabling MCN-DMA"));
        let t2 = SystemConfig::default().render_table2();
        assert!(t2.contains("(4, 2.45GHz)/(8, 3.4GHz)"));
        assert!(t2.contains("DDR4-3200MHz (host), DDR4-3200MHz (MCN)"));
        assert!(t2.contains("10GbE"));
    }
}
