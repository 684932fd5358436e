//! # mcn-energy — power and energy model (McPAT substitute)
//!
//! The paper estimates power with McPAT in 22 nm (Sec. V) and reports
//! energy efficiency of an MCN server against equal-core-count 10GbE
//! scale-out clusters (Fig. 10). We replace McPAT with an explicit
//! component power model whose constants are documented here and in
//! DESIGN.md:
//!
//! * **cores** — active/idle power split by measured busy time
//!   ([`mcn_node::CpuPool`] accounting). Host cores are big out-of-order
//!   3.4 GHz parts; MCN cores are mobile-class (the paper quotes ~1.8 W
//!   TDP for a quad-core mobile cluster and ≤5 W for a whole Snapdragon
//!   835),
//! * **uncore** — LLC, memory controllers, IO; a fixed per-node adder,
//! * **DRAM** — energy per ACT/PRE pair, per 64-byte burst and per refresh
//!   plus background power per rank, driven by the activity counters the
//!   DRAM model already collects (Micron power-calculator methodology),
//! * **network** — per-NIC and per-switch-port power for the Ethernet
//!   baseline; MCN's "network" is the memory channel, whose energy is
//!   already inside the DRAM/SRAM activity.
//!
//! Energy = Σ component power × elapsed time (+ per-event energies), so
//! relative results depend on both the power ratios *and* the measured
//! runtimes — exactly the trade Fig. 10 explores (mobile cores are slower
//! but far more efficient; not every benchmark wins).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Deserialize, Serialize};

use mcn::{Datacenter, EthernetCluster, McnRack, McnSystem};
use mcn_dram::ChannelStats;
use mcn_node::Node;
use mcn_sim::SimTime;

/// Component power/energy constants. All powers in watts, energies in
/// nanojoules.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerParams {
    /// Host core, running (3.4 GHz OoO core, per-core share of package).
    pub host_core_active_w: f64,
    /// Host core, idle (clock-gated).
    pub host_core_idle_w: f64,
    /// Host uncore: LLC, MCs, IO.
    pub host_uncore_w: f64,
    /// MCN core, running (2.45 GHz mobile core).
    pub mcn_core_active_w: f64,
    /// MCN core, idle.
    pub mcn_core_idle_w: f64,
    /// MCN buffer-device uncore (interface SRAM, local MCs, glue).
    pub mcn_uncore_w: f64,
    /// Energy per ACT+PRE pair.
    pub dram_act_nj: f64,
    /// Energy per 64-byte read/write burst (incl. IO).
    pub dram_burst_nj: f64,
    /// Energy per all-bank refresh.
    pub dram_refresh_nj: f64,
    /// Background (standby) power per rank.
    pub dram_background_w_per_rank: f64,
    /// 10GbE NIC power (per node, baseline cluster only).
    pub nic_w: f64,
    /// Top-of-rack switch power per active port (baseline cluster only).
    pub switch_port_w: f64,
}

impl Default for PowerParams {
    fn default() -> Self {
        PowerParams {
            host_core_active_w: 5.5,
            host_core_idle_w: 0.8,
            host_uncore_w: 14.0,
            mcn_core_active_w: 1.1,
            mcn_core_idle_w: 0.08,
            mcn_uncore_w: 1.2,
            dram_act_nj: 18.0,
            dram_burst_nj: 13.0,
            dram_refresh_nj: 250.0,
            dram_background_w_per_rank: 0.35,
            nic_w: 6.5,
            switch_port_w: 2.5,
        }
    }
}

/// Energy breakdown in joules.
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyReport {
    /// Core energy (active + idle).
    pub cpu_j: f64,
    /// Uncore energy.
    pub uncore_j: f64,
    /// DRAM energy (activity + background).
    pub dram_j: f64,
    /// NIC + switch energy (zero for MCN servers).
    pub network_j: f64,
}

impl EnergyReport {
    /// Total energy in joules.
    pub fn total(&self) -> f64 {
        self.cpu_j + self.uncore_j + self.dram_j + self.network_j
    }

    /// Accumulates another report component-wise (used when summing
    /// servers into racks and racks into datacenters).
    pub fn add(&mut self, other: EnergyReport) {
        self.cpu_j += other.cpu_j;
        self.uncore_j += other.uncore_j;
        self.dram_j += other.dram_j;
        self.network_j += other.network_j;
    }
}

impl std::fmt::Display for EnergyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "total {:.3} J (cpu {:.3}, uncore {:.3}, dram {:.3}, net {:.3})",
            self.total(),
            self.cpu_j,
            self.uncore_j,
            self.dram_j,
            self.network_j
        )
    }
}

/// DRAM energy of one channel over `elapsed`, from its activity counters.
pub fn dram_channel_energy(
    p: &PowerParams,
    stats: &ChannelStats,
    ranks: u32,
    elapsed: SimTime,
) -> f64 {
    let acts = stats.activates.get() as f64;
    let bursts = (stats.reads.get() + stats.writes.get() + stats.sram_ops.get()) as f64;
    let refs = stats.refreshes.get() as f64;
    let activity_nj = acts * p.dram_act_nj + bursts * p.dram_burst_nj + refs * p.dram_refresh_nj;
    let background = p.dram_background_w_per_rank * ranks as f64 * elapsed.as_secs_f64();
    activity_nj * 1e-9 + background
}

fn cores_energy(active_w: f64, idle_w: f64, busy: SimTime, cores: usize, elapsed: SimTime) -> f64 {
    let busy_s = busy.as_secs_f64();
    let idle_s = (elapsed.as_secs_f64() * cores as f64 - busy_s).max(0.0);
    active_w * busy_s + idle_w * idle_s
}

/// Adds one host-class machine's cores, uncore and DRAM channels (each
/// channel at its own rank count) over `elapsed` to `r`: the MCN server's
/// host and every 10GbE cluster node are priced here.
fn add_host(r: &mut EnergyReport, p: &PowerParams, host: &Node, elapsed: SimTime) {
    r.cpu_j += cores_energy(
        p.host_core_active_w,
        p.host_core_idle_w,
        host.cpus.total_busy(),
        host.cpus.cores(),
        elapsed,
    );
    r.uncore_j += p.host_uncore_w * elapsed.as_secs_f64();
    for ch in host.mem.channels() {
        r.dram_j += dram_channel_energy(p, ch.stats(), ch.config().ranks, elapsed);
    }
}

/// Energy of an MCN-enabled server over `elapsed` of simulated time.
pub fn mcn_system_energy(p: &PowerParams, sys: &McnSystem, elapsed: SimTime) -> EnergyReport {
    let mut r = EnergyReport::default();
    let cfg = sys.system_config();
    add_host(&mut r, p, &sys.host, elapsed);
    // DIMMs.
    for d in 0..sys.dimms() {
        let dimm = sys.dimm(d);
        r.cpu_j += cores_energy(
            p.mcn_core_active_w,
            p.mcn_core_idle_w,
            dimm.node.cpus.total_busy(),
            dimm.node.cpus.cores(),
            elapsed,
        );
        r.uncore_j += p.mcn_uncore_w * elapsed.as_secs_f64();
        for ch in dimm.node.mem.channels() {
            r.dram_j += dram_channel_energy(p, ch.stats(), cfg.mcn_dram.ranks, elapsed);
        }
    }
    r
}

/// Energy of a whole [`McnRack`] over `elapsed`: the sum of each
/// server's [`mcn_system_energy`] plus one conventional NIC and one
/// ToR-switch port per server (rack traffic leaves a server through its
/// Ethernet NIC, unlike the in-server memory-channel hops).
pub fn rack_energy(p: &PowerParams, rack: &McnRack, elapsed: SimTime) -> EnergyReport {
    let mut r = EnergyReport::default();
    for s in 0..rack.len() {
        r.add(mcn_system_energy(p, rack.server(s), elapsed));
        r.network_j += (p.nic_w + p.switch_port_w) * elapsed.as_secs_f64();
    }
    r
}

/// Energy of a whole Clos [`Datacenter`] over `elapsed`: the sum of each
/// rack's [`rack_energy`] plus the fabric tier, modelled as one
/// switch-port's power per fabric link — every ToR uplink (one per
/// rack), every rack→agg and agg→spine attachment. This is deliberately
/// a port-count model, not a per-switch chassis model: it scales with
/// the topology the [`mcn::ClosConfig`] describes and keeps the
/// MCN-vs-scale-out comparison conservative (the fabric is charged even
/// when idle).
pub fn datacenter_energy(p: &PowerParams, dc: &Datacenter, elapsed: SimTime) -> EnergyReport {
    let clos = dc.clos();
    let mut r = EnergyReport::default();
    for i in 0..dc.racks() {
        r.add(rack_energy(p, dc.rack(i), elapsed));
    }
    let aggs = clos.pods * clos.aggs_per_pod;
    // Ports: each rack uplinks to every agg of its pod, and each agg
    // attaches to every spine; count both ends of each fabric link.
    let rack_agg_links = clos.racks() * clos.aggs_per_pod;
    let agg_spine_links = aggs * clos.spines;
    let ports = 2 * (rack_agg_links + agg_spine_links);
    r.network_j += p.switch_port_w * ports as f64 * elapsed.as_secs_f64();
    r
}

/// Energy-efficiency figures derived from an [`EnergyReport`] plus the
/// request/throughput counters a scenario read out of the metrics
/// registry — the per-cell numbers every sweep cell reports
/// (`energy.energy_per_request_nj`, `energy.perf_per_watt`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Efficiency {
    /// Nanojoules of total (cpu + uncore + DRAM + network) energy per
    /// request unit. The request unit is workload-defined — an answered
    /// KV request, a delivered KiB of iperf payload, a 64-byte DRAM
    /// burst for the MPI workloads — and named by the cell's
    /// `meta.request_unit` label. Zero when no requests completed.
    pub energy_per_request_nj: f64,
    /// Workload throughput (`perf`, in the unit the scenario measures:
    /// Gbit/s, requests/s, bytes/s, ...) divided by average power draw.
    /// Zero when the run consumed no energy.
    pub perf_per_watt: f64,
    /// Average power over the run, total energy / elapsed time.
    pub avg_power_w: f64,
}

/// Derives the [`Efficiency`] figures for one run.
///
/// `requests` and `perf` come from the run's own metrics registry (see
/// [`Efficiency::energy_per_request_nj`] for the unit conventions);
/// `elapsed` is the simulated completion time the energy was integrated
/// over.
pub fn efficiency(report: &EnergyReport, requests: u64, perf: f64, elapsed: SimTime) -> Efficiency {
    let total_j = report.total();
    let secs = elapsed.as_secs_f64();
    let avg_power_w = if secs > 0.0 { total_j / secs } else { 0.0 };
    Efficiency {
        energy_per_request_nj: if requests > 0 {
            total_j * 1e9 / requests as f64
        } else {
            0.0
        },
        perf_per_watt: if avg_power_w > 0.0 {
            perf / avg_power_w
        } else {
            0.0
        },
        avg_power_w,
    }
}

/// Energy of the 10GbE baseline cluster over `elapsed`.
pub fn cluster_energy(p: &PowerParams, c: &EthernetCluster, elapsed: SimTime) -> EnergyReport {
    let mut r = EnergyReport::default();
    for i in 0..c.len() {
        add_host(&mut r, p, &c.node(i).node, elapsed);
        r.network_j += (p.nic_w + p.switch_port_w) * elapsed.as_secs_f64();
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcn::{McnConfig, SystemConfig};

    #[test]
    fn idle_energy_scales_with_time() {
        let p = PowerParams::default();
        let sys = McnSystem::new(&SystemConfig::default(), 2, McnConfig::level(0));
        let e1 = mcn_system_energy(&p, &sys, SimTime::from_ms(10));
        let e2 = mcn_system_energy(&p, &sys, SimTime::from_ms(20));
        assert!(e2.total() > 1.9 * e1.total());
        assert_eq!(e1.network_j, 0.0, "MCN server has no NIC/switch");
    }

    #[test]
    fn cluster_includes_network_power() {
        let p = PowerParams::default();
        let c = EthernetCluster::new(&SystemConfig::default(), 3);
        let e = cluster_energy(&p, &c, SimTime::from_ms(10));
        let expect = 3.0 * (p.nic_w + p.switch_port_w) * 0.01;
        assert!((e.network_j - expect).abs() < 1e-9);
    }

    #[test]
    fn busy_cores_cost_more_than_idle() {
        let p = PowerParams::default();
        let mut sys = McnSystem::new(&SystemConfig::default(), 1, McnConfig::level(0));
        let idle = mcn_system_energy(&p, &sys, SimTime::from_ms(1)).cpu_j;
        // Burn some host CPU.
        sys.host.cpus.run_on(0, SimTime::ZERO, SimTime::from_ms(1));
        let busy = mcn_system_energy(&p, &sys, SimTime::from_ms(1)).cpu_j;
        assert!(busy > idle);
        let delta = busy - idle;
        let expect = (p.host_core_active_w - p.host_core_idle_w) * 1e-3;
        assert!(
            (delta - expect).abs() < 1e-9,
            "delta {delta} expect {expect}"
        );
    }

    #[test]
    fn dram_energy_tracks_traffic() {
        use mcn_dram::{Channel, DramConfig, MemRequest};
        let p = PowerParams::default();
        let cfg = DramConfig::ddr4_3200();
        let mut ch = Channel::new(&cfg, 0);
        let quiet = dram_channel_energy(&p, ch.stats(), 2, SimTime::from_ms(1));
        let mut issued = 0u64;
        let mut now = SimTime::ZERO;
        while issued < 64 || ch.outstanding() > 0 {
            while issued < 64 && ch.can_accept(mcn_dram::MemKind::Read) {
                ch.push(MemRequest::read(issued * 64, issued), now);
                issued += 1;
            }
            let Some(t) = ch.next_event() else { break };
            now = t;
            ch.advance(t);
        }
        let active = dram_channel_energy(&p, ch.stats(), 2, SimTime::from_ms(1));
        assert!(active > quiet);
        // 64 bursts + the activates the interleaving produced (one per
        // bank group touched).
        let acts = ch.stats().activates.get() as f64;
        let expect_nj = acts * p.dram_act_nj + 64.0 * p.dram_burst_nj;
        assert!(((active - quiet) * 1e9 - expect_nj).abs() < 1.0);
    }

    #[test]
    fn report_display_and_total() {
        let r = EnergyReport {
            cpu_j: 1.0,
            uncore_j: 2.0,
            dram_j: 3.0,
            network_j: 4.0,
        };
        assert_eq!(r.total(), 10.0);
        assert!(r.to_string().contains("total 10.000 J"));
    }

    #[test]
    fn rack_energy_is_servers_plus_network() {
        let p = PowerParams::default();
        let sys = SystemConfig::default();
        let rack = McnRack::new(&sys, 3, 1, McnConfig::level(0));
        let elapsed = SimTime::from_ms(5);
        let e = rack_energy(&p, &rack, elapsed);
        let one = mcn_system_energy(&p, rack.server(0), elapsed);
        // Idle rack: every server costs the same, plus NIC + ToR port each.
        assert!((e.cpu_j - 3.0 * one.cpu_j).abs() < 1e-9);
        let net = 3.0 * (p.nic_w + p.switch_port_w) * 0.005;
        assert!((e.network_j - net).abs() < 1e-9);
    }

    #[test]
    fn datacenter_energy_adds_fabric_ports() {
        use mcn::ClosConfig;
        let p = PowerParams::default();
        let clos = ClosConfig::default();
        let dc = Datacenter::new(&SystemConfig::default(), McnConfig::level(0), &clos);
        let elapsed = SimTime::from_ms(2);
        let e = dc_total_minus_racks(&p, &dc, elapsed);
        // 2 pods × 2 racks × 2 aggs rack-agg links + 4 aggs × 2 spines,
        // both ends: 2 × (8 + 8) = 32 ports.
        let expect = p.switch_port_w * 32.0 * 0.002;
        assert!((e - expect).abs() < 1e-9, "fabric {e} expect {expect}");
    }

    fn dc_total_minus_racks(p: &PowerParams, dc: &Datacenter, elapsed: SimTime) -> f64 {
        let total = datacenter_energy(p, dc, elapsed);
        let mut racks = EnergyReport::default();
        for r in 0..dc.racks() {
            racks.add(rack_energy(p, dc.rack(r), elapsed));
        }
        total.total() - racks.total()
    }

    #[test]
    fn efficiency_figures_behave() {
        let r = EnergyReport {
            cpu_j: 1.0,
            uncore_j: 0.0,
            dram_j: 0.0,
            network_j: 0.0,
        };
        let e = efficiency(&r, 1000, 8.0, SimTime::from_ms(100));
        // 1 J over 1000 requests = 1e6 nJ each; 1 J / 0.1 s = 10 W.
        assert!((e.energy_per_request_nj - 1e6).abs() < 1e-3);
        assert!((e.avg_power_w - 10.0).abs() < 1e-9);
        assert!((e.perf_per_watt - 0.8).abs() < 1e-9);
        // Degenerate inputs stay finite.
        let z = efficiency(&r, 0, 8.0, SimTime::ZERO);
        assert_eq!(z.energy_per_request_nj, 0.0);
        assert_eq!(z.avg_power_w, 0.0);
        assert_eq!(z.perf_per_watt, 0.0);
        // More requests for the same energy → cheaper per request.
        let e2 = efficiency(&r, 2000, 8.0, SimTime::from_ms(100));
        assert!(e2.energy_per_request_nj < e.energy_per_request_nj);
    }

    #[test]
    fn mobile_cores_cheaper_per_busy_second() {
        let p = PowerParams::default();
        assert!(p.mcn_core_active_w * 3.0 < p.host_core_active_w);
        assert!(p.mcn_uncore_w * 5.0 < p.host_uncore_w);
    }
}
