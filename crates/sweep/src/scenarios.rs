//! The sweep's scenarios: [`run_cell`] turns a [`Cell`] into a sealed
//! metrics snapshot through one private function per scenario, and the
//! rack and datacenter builders those functions share with the bench
//! binaries are here too: the KV fleets ([`kv_rack_workload`],
//! [`kv_dc_workload`]) that `serving_bench` and `dc_bench` run, and the
//! rack iperf mix ([`rack_iperf_workload`]) that `engine_bench` runs.
//! The paper's figures are renderings of these cells (the `fig*`
//! binaries of `mcn-bench` read them back from `sweep.json`).
//!
//! Every cell snapshot carries the same layout:
//!
//! | path | meaning |
//! |------|---------|
//! | `meta.*` | axis values, scale, per-cell seed, unit labels |
//! | `elapsed_ps` | simulated completion time |
//! | `requests` | completed request units (`meta.request_unit`) |
//! | `perf` | headline throughput (`meta.perf_unit`) |
//! | `energy.*` | [`mcn_energy::EnergyReport`] + [`mcn_energy::Efficiency`] |
//! | `sim.*` | the topology's full counter tree |
//! | `serve.*` | KV fleet report(s), KV cells only |

use std::sync::Arc;

use parking_lot::Mutex;

use mcn::outage::{OutagePlan, Part};
use mcn::{
    ClosConfig, ComponentExt, Datacenter, EthernetCluster, McnConfig, McnRack, McnSystem,
    SystemConfig,
};
use mcn_energy::{efficiency, EnergyReport, PowerParams};
use mcn_mpi::placement::{spawn_on_cluster, spawn_on_mcn};
use mcn_mpi::{
    CommPattern, IperfClient, IperfReport, IperfServer, PingReport, Pinger, WorkloadSpec,
};
use mcn_serve::{
    Backend, KvServer, KvServerConfig, ReplicaMap, ResilientClientConfig, ResilientKvClient,
    ServeReport,
};
use mcn_sim::fault::{FaultKind, FaultPlan};
use mcn_sim::{MetricSink, MetricsSnapshot, SimTime};

use crate::spec::{Cell, FaultAxis, Scale, Topology, Workload};

const IPERF_PORT: u16 = 5001;

/// A shared KV fleet report.
pub type KvReport = Arc<Mutex<ServeReport>>;

/// Mid-run chaos for the rack KV scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvRackChaos {
    /// One replica DIMM (server 0, DIMM 0) crashes and powers back on.
    ReplicaCrash {
        /// Crash time.
        at: SimTime,
        /// Dark period.
        down_for: SimTime,
    },
    /// The whole `riser0` failure domain (both DIMMs of server 0) dies
    /// atomically and heals together.
    DomainCrash {
        /// Crash time.
        at: SimTime,
        /// Dark period.
        down_for: SimTime,
    },
}

/// Sizing and chaos knobs for [`kv_rack_workload`]; `default_bench()`
/// is the exact `serving_bench` configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct KvRackParams {
    /// MCN optimisation level of the rack.
    pub level: u32,
    /// Open-loop clients spawned on each server's host.
    pub clients_per_server: u64,
    /// Requests per client.
    pub reqs_per_client: u64,
    /// Latency SLO for the report's `under_slo` accounting.
    pub slo: SimTime,
    /// First client seed; client `i` uses `seed_base + i`.
    pub seed_base: u64,
    /// Optional mid-run chaos.
    pub chaos: Option<KvRackChaos>,
}

impl KvRackParams {
    /// The `serving_bench` configuration: mcn3, 4 clients per server ×
    /// 250 requests, 200 µs SLO, riser0 domain crash at 3 ms for 6 ms.
    pub fn default_bench() -> KvRackParams {
        KvRackParams {
            level: 3,
            clients_per_server: 4,
            reqs_per_client: 250,
            slo: SimTime::from_us(200),
            seed_base: 0xBE0,
            chaos: Some(KvRackChaos::DomainCrash {
                at: SimTime::from_ms(3),
                down_for: SimTime::from_ms(6),
            }),
        }
    }
}

/// Domain name of server `s`'s DIMM riser (used for both the outage
/// plan and replica placement, so chaos and placement agree on blast
/// radius).
pub fn riser(s: usize) -> String {
    format!("riser{s}")
}

/// Builds the replicated KV rack: a 2×2 rack with one `KvServer` per
/// DIMM, every key range on R=2 DIMMs in distinct riser domains, and a
/// resilient open-loop client fleet (hedging and non-hedging halves).
pub fn kv_rack_workload(p: &KvRackParams) -> (McnRack, KvReport) {
    const SERVERS: usize = 2;
    const DIMMS: usize = 2;
    let report = ServeReport::shared(p.slo);
    let mut rack = McnRack::new(
        &SystemConfig::default(),
        SERVERS,
        DIMMS,
        McnConfig::level(p.level),
    );

    if let Some(chaos) = p.chaos {
        let mut plan = OutagePlan::new(0xD0);
        for s in 0..SERVERS {
            plan.define_domain(&riser(s), &[Part::Dimm(s, 0), Part::Dimm(s, 1)]);
        }
        match chaos {
            KvRackChaos::DomainCrash { at, down_for } => {
                report.lock().set_fault_window(at, at + down_for);
                plan.domain_crash(&riser(0), at, down_for);
            }
            KvRackChaos::ReplicaCrash { at, down_for } => {
                report.lock().set_fault_window(at, at + down_for);
                plan.down(Part::Dimm(0, 0), at, down_for);
            }
        }
        rack.set_outage_plan(&plan);
    }

    let server = KvServerConfig {
        inflight_budget: 4,
        ..KvServerConfig::default()
    };
    let mut backends = Vec::new();
    for s in 0..SERVERS {
        for d in 0..DIMMS {
            rack.spawn_dimm(
                s,
                d,
                Box::new(KvServer::new(server.clone(), report.clone())),
                0,
            );
            backends.push(Backend {
                addr: rack.server(s).dimm_ip(d),
                port: 11211,
                domain: riser(s),
                rack: 0,
            });
        }
    }
    let map = ReplicaMap::new(backends, 8, 2).expect("placement");

    for s in 0..SERVERS {
        for c in 0..p.clients_per_server {
            let i = s as u64 * p.clients_per_server + c;
            let mut cfg = ResilientClientConfig::new(map.clone());
            cfg.seed = p.seed_base + i;
            cfg.n_requests = p.reqs_per_client;
            cfg.mean_gap = SimTime::from_us(25);
            cfg.keyspace = 1024;
            cfg.set_pct = 20;
            cfg.val_len = 512;
            // A correlated outage concentrates retries: give the bucket
            // enough depth (and refill) that recovery is not
            // budget-bound while still bounding a true retry storm.
            cfg.retry_budget = 32;
            cfg.retry_earn_tenths = 5;
            // Half the fleet hedges its reads; the other half recovers
            // purely by timeout failover, so both paths show up.
            if i % 2 == 1 {
                cfg.hedge_delay = None;
            }
            rack.spawn_host(
                s,
                Box::new(ResilientKvClient::new(cfg, report.clone())),
                (c % 2) as usize,
            );
        }
    }
    (rack, report)
}

/// Sizing and chaos knobs for [`kv_dc_workload`]; `default_bench()` is
/// the exact `dc_bench` configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct KvDcParams {
    /// MCN optimisation level of every server.
    pub level: u32,
    /// Open-loop clients per fleet (one intra-rack, one cross-pod).
    pub clients_per_fleet: u64,
    /// Requests per client.
    pub reqs_per_client: u64,
    /// Latency SLO for both fleet reports.
    pub slo: SimTime,
    /// First client seed; fleet `f` client `c` uses `base + f*16 + c`.
    pub seed_base: u64,
    /// Optional spine-0 loss: `(at, down_for)`.
    pub spine_outage: Option<(SimTime, SimTime)>,
}

impl KvDcParams {
    /// The `dc_bench` configuration: mcn3, 3 clients per fleet × 150
    /// requests, 500 µs SLO, spine 0 down at 2 ms for 2 ms.
    pub fn default_bench() -> KvDcParams {
        KvDcParams {
            level: 3,
            clients_per_fleet: 3,
            reqs_per_client: 150,
            slo: SimTime::from_us(500),
            seed_base: 0xDC0,
            spine_outage: Some((SimTime::from_ms(2), SimTime::from_ms(2))),
        }
    }
}

/// Builds the Clos-datacenter KV workload: KV servers on rack 0 (intra
/// tier) and rack 3 (cross tier), `clients_per_fleet` rack-0 clients
/// per tier, and optionally the spine outage. Returns the datacenter
/// plus the intra-rack and cross-pod fleet reports.
pub fn kv_dc_workload(p: &KvDcParams) -> (Datacenter, KvReport, KvReport) {
    let clos = ClosConfig::default(); // 2 pods x 2 racks x 4 servers
    let mut dc = Datacenter::new(&SystemConfig::default(), McnConfig::level(p.level), &clos);

    let cross = ServeReport::shared(p.slo);
    if let Some((at, down_for)) = p.spine_outage {
        let mut plan = OutagePlan::new(0xDCB);
        plan.down(Part::Spine(0), at, down_for);
        dc.set_outage_plan(&plan);
        cross.lock().set_fault_window(at, at + down_for);
    }
    let intra = ServeReport::shared(p.slo);

    let server = KvServerConfig::default();
    dc.spawn_host(
        0,
        0,
        Box::new(KvServer::new(server.clone(), intra.clone())),
        0,
    );
    dc.spawn_host(3, 0, Box::new(KvServer::new(server, cross.clone())), 0);

    let intra_map = ReplicaMap::single(McnSystem::nic_ip_in(0, 0), 11211);
    let cross_map = ReplicaMap::single(McnSystem::nic_ip_in(3, 0), 11211);

    for c in 0..p.clients_per_fleet {
        for (fleet, map, report) in [(0u64, &intra_map, &intra), (1u64, &cross_map, &cross)] {
            let mut cfg = ResilientClientConfig::new(map.clone());
            cfg.seed = p.seed_base + fleet * 16 + c;
            cfg.n_requests = p.reqs_per_client;
            cfg.mean_gap = SimTime::from_us(40);
            cfg.keyspace = 256;
            cfg.set_pct = 20;
            cfg.val_len = 512;
            // Single-replica maps: failover has nowhere to go, so the
            // spine window is ridden out on retries.
            cfg.retry_budget = 32;
            cfg.retry_earn_tenths = 5;
            // Clients live on rack 0's servers 1..=3 (server 0 hosts
            // the intra-tier KV server); fleets beyond 3 clients wrap
            // around those three servers.
            dc.spawn_host(
                0,
                1 + (c as usize % 3),
                Box::new(ResilientKvClient::new(cfg, report.clone())),
                fleet as usize,
            );
        }
    }
    (dc, intra, cross)
}

/// Builds the rack iperf mix `engine_bench` measures: 4 local streams
/// (each DIMM into its own host) plus 1 cross-server stream (server 0's
/// DIMM 0 into server 1's host), so the ToR switch and both NICs stay
/// on the critical path. `partition` optionally splits the two servers
/// at the ToR mid-run: `(at, heal_at)`.
pub fn rack_iperf_workload(
    level: u32,
    bytes_per_stream: u64,
    partition: Option<(SimTime, SimTime)>,
) -> (McnRack, KvIperfReports) {
    let mut rack = McnRack::new(&SystemConfig::default(), 2, 2, McnConfig::level(level));
    if let Some((at, heal_at)) = partition {
        let mut plan = OutagePlan::new(0xAB);
        plan.partition(at, vec![vec![0], vec![1]], heal_at);
        rack.set_outage_plan(&plan);
    }
    let srv0 = IperfReport::shared();
    let srv1 = IperfReport::shared();
    rack.spawn_host(
        0,
        Box::new(IperfServer::new(5001, 2, SimTime::from_ms(1), srv0.clone())),
        0,
    );
    rack.spawn_host(
        1,
        Box::new(IperfServer::new(5001, 3, SimTime::from_ms(1), srv1.clone())),
        0,
    );
    for s in 0..2 {
        let dst = rack.server(s).host_rank_ip();
        for d in 0..2 {
            rack.spawn_dimm(
                s,
                d,
                Box::new(IperfClient::new(
                    dst,
                    5001,
                    bytes_per_stream,
                    IperfReport::shared(),
                )),
                1,
            );
        }
    }
    let remote = rack.server(1).host_rank_ip();
    rack.spawn_dimm(
        0,
        0,
        Box::new(IperfClient::new(
            remote,
            5001,
            bytes_per_stream,
            IperfReport::shared(),
        )),
        2,
    );
    (rack, (srv0, srv1))
}

/// The two iperf server reports of [`rack_iperf_workload`].
pub type KvIperfReports = (Arc<Mutex<IperfReport>>, Arc<Mutex<IperfReport>>);

/// The communication-dominated all-reduce microbenchmark of the sweep's
/// `allreduce` axis value.
pub fn allreduce_spec(iterations: u32) -> WorkloadSpec {
    WorkloadSpec {
        name: "allreduce",
        suite: "sweep",
        iterations,
        mem_bytes_per_iter: 1 << 20,
        read_frac: 0.8,
        random_access: false,
        compute_ns_per_iter: 50_000,
        comm: CommPattern::AllReduce { elems: 4096 },
    }
}

/// The seeded rate-fault plan of the sweep's `faults` axis value:
/// ~1 % frame loss on both SRAM ring directions of DIMM 0, a quarter of
/// ALERT_N edges lost, ~2 % of MCN-DMA transfers stalling — and
/// ~0.5 % bit flips only while the configuration still verifies
/// checksums (flipping bytes the stack is told not to check would
/// corrupt payloads silently).
pub fn sweep_fault_plan(seed: u64, mcn: McnConfig) -> FaultPlan {
    let mut plan = FaultPlan::new(seed);
    for comp in [
        McnSystem::sram_host_fault_component(0, 0),
        McnSystem::sram_dimm_fault_component(0, 0),
    ] {
        plan.rate(&comp, FaultKind::Drop, 0.01);
        if !mcn.checksum_bypass {
            plan.rate(&comp, FaultKind::BitFlip, 0.005);
        }
    }
    plan.rate(&McnSystem::alert_fault_component(0), FaultKind::Drop, 0.25);
    plan.rate(&McnSystem::dma_fault_component(0), FaultKind::Stall, 0.02);
    plan
}

/// What a scenario arm measured, before it is folded into the snapshot.
struct CellRun {
    elapsed: SimTime,
    requests: u64,
    request_unit: &'static str,
    perf: f64,
    perf_unit: &'static str,
    energy: EnergyReport,
}

/// Runs one sweep cell and returns its sealed snapshot (`meta.*`,
/// `requests`, `perf`, `energy.*`, `sim.*`, and `serve.*` for KV
/// cells). Deterministic: the same `(cell, scale, seed)` triple always
/// produces byte-identical `to_json()` output, at any worker-thread
/// count.
///
/// # Panics
///
/// Panics if the cell is unsupported ([`Cell::supported`]) or the
/// scenario violates one of its own hard invariants (a stalled run, a
/// failed numerical verification, a broken request-accounting
/// identity) — a panic marks the cell as failed rather than recording
/// garbage.
pub fn run_cell(cell: &Cell, scale: &Scale, seed: u64) -> MetricsSnapshot {
    cell.supported()
        .unwrap_or_else(|why| panic!("unsupported cell {cell}: {why}"));
    let mut sink = MetricSink::new();
    sink.text("meta.workload", &cell.workload.token());
    sink.text("meta.topology", cell.topology.token());
    sink.text("meta.fault", cell.fault.token());
    sink.text("meta.opt", &cell.opt.token());
    sink.text("meta.scale", scale.name);
    sink.counter("meta.seed", seed);

    let run = match (&cell.workload, cell.topology) {
        (Workload::Iperf { server_on_dimm }, Topology::Single) => {
            iperf_single_cell(cell, scale, seed, *server_on_dimm, &mut sink)
        }
        (Workload::Iperf { .. }, Topology::Rack) => iperf_rack_cell(cell, scale, &mut sink),
        (Workload::Iperf { .. }, Topology::Cluster) => iperf_cluster_cell(cell, scale, &mut sink),
        (
            Workload::Ping {
                dimm_to_dimm,
                payload,
            },
            Topology::Single,
        ) => ping_single_cell(cell, scale, *dimm_to_dimm, *payload, &mut sink),
        (Workload::Ping { payload, .. }, Topology::Cluster) => {
            ping_cluster_cell(cell, scale, *payload, &mut sink)
        }
        (Workload::AllReduce, Topology::Single) => mpi_single_cell(
            cell,
            scale,
            seed,
            allreduce_spec(scale.allreduce_iters),
            2,
            2,
            1,
            &SystemConfig::default(),
            &mut sink,
        ),
        (Workload::AllReduce, Topology::Cluster) => mpi_cluster_cell(
            scale,
            seed,
            allreduce_spec(scale.allreduce_iters),
            4,
            1,
            &mut sink,
        ),
        (Workload::Kv, Topology::Rack) => kv_rack_cell(cell, scale, &mut sink),
        (Workload::Kv, Topology::Dc) => kv_dc_cell(cell, scale, &mut sink),
        (
            Workload::Npb {
                name,
                dimms,
                host_ranks,
                per_dimm,
            },
            Topology::Single,
        ) => {
            // One host core per host rank (see `Workload::Npb`).
            let cfg = SystemConfig {
                host_cores: *host_ranks,
                ..SystemConfig::default()
            };
            mpi_single_cell(
                cell,
                scale,
                seed,
                npb_spec(name),
                *dimms,
                *host_ranks,
                *per_dimm,
                &cfg,
                &mut sink,
            )
        }
        (Workload::NpbScaleUp { name, cores }, Topology::Single) => {
            let cfg = SystemConfig {
                host_cores: *cores,
                ..SystemConfig::default()
            };
            mpi_single_cell(
                cell,
                scale,
                seed,
                npb_spec(name),
                0,
                *cores,
                0,
                &cfg,
                &mut sink,
            )
        }
        (
            Workload::NpbCluster {
                name,
                nodes,
                per_node,
            },
            Topology::Cluster,
        ) => mpi_cluster_cell(scale, seed, npb_spec(name), *nodes, *per_node, &mut sink),
        (w, t) => panic!("no scenario for {w:?} on {t:?} (supported() let it through)"),
    };

    sink.text("meta.request_unit", run.request_unit);
    sink.text("meta.perf_unit", run.perf_unit);
    sink.counter("elapsed_ps", run.elapsed.as_ps());
    sink.counter("requests", run.requests);
    sink.value("perf", run.perf);
    let eff = efficiency(&run.energy, run.requests, run.perf, run.elapsed);
    sink.value("energy.total_j", run.energy.total());
    sink.value("energy.cpu_j", run.energy.cpu_j);
    sink.value("energy.uncore_j", run.energy.uncore_j);
    sink.value("energy.dram_j", run.energy.dram_j);
    sink.value("energy.network_j", run.energy.network_j);
    sink.value("energy.energy_per_request_nj", eff.energy_per_request_nj);
    sink.value("energy.perf_per_watt", eff.perf_per_watt);
    sink.value("energy.avg_power_w", eff.avg_power_w);
    sink.finish()
}

fn power() -> PowerParams {
    PowerParams::default()
}

fn npb_spec(name: &str) -> WorkloadSpec {
    WorkloadSpec::by_name(name).unwrap_or_else(|| panic!("unknown workload {name:?}"))
}

/// Four iperf streams into one server: on the host from every DIMM
/// (host-mcn), or on DIMM 0 from the host and DIMMs 1–3 (mcn-mcn).
fn iperf_single_cell(
    cell: &Cell,
    scale: &Scale,
    seed: u64,
    server_on_dimm: bool,
    sink: &mut MetricSink,
) -> CellRun {
    let n_dimms = 4;
    let mcn = McnConfig::level(cell.opt.level);
    let plan = match cell.fault {
        FaultAxis::Faults => sweep_fault_plan(seed, mcn),
        _ => FaultPlan::new(seed),
    };
    let mut sys = McnSystem::with_faults(&SystemConfig::default(), n_dimms, mcn, &plan);
    let srv = IperfReport::shared();
    // Zero warm-up: the meter must account every payload byte so that
    // requests (delivered KiB) and energy-per-request stay honest.
    let server = Box::new(IperfServer::new(
        IPERF_PORT,
        n_dimms,
        SimTime::ZERO,
        srv.clone(),
    ));
    let client = |dst| {
        Box::new(IperfClient::new(
            dst,
            IPERF_PORT,
            scale.iperf_bytes,
            IperfReport::shared(),
        ))
    };
    if server_on_dimm {
        sys.spawn_dimm(0, server, 1);
        let dst = sys.dimm_ip(0);
        sys.spawn_host(client(dst), 0);
        for d in 1..n_dimms {
            sys.spawn_dimm(d, client(dst), 1);
        }
    } else {
        sys.spawn_host(server, 0);
        let dst = sys.host_rank_ip();
        for d in 0..n_dimms {
            sys.spawn_dimm(d, client(dst), 1);
        }
    }
    assert!(
        sys.run_until_procs_done(scale.deadline),
        "cell {cell} stalled at {}",
        sys.now()
    );
    let elapsed = sys.now();
    let (bytes, gbps) = {
        let r = srv.lock();
        (r.meter.bytes(), r.meter.gbps())
    };
    assert_eq!(
        bytes,
        scale.iperf_bytes * n_dimms as u64,
        "cell {cell} lost payload bytes"
    );
    sink.absorb("sim", &sys);
    CellRun {
        elapsed,
        requests: bytes >> 10,
        request_unit: "KiB_delivered",
        perf: gbps,
        perf_unit: "gbps",
        energy: mcn_energy::mcn_system_energy(&power(), &sys, elapsed),
    }
}

fn iperf_rack_cell(cell: &Cell, scale: &Scale, sink: &mut MetricSink) -> CellRun {
    let partition = match cell.fault {
        FaultAxis::Outages => Some((SimTime::from_ms(1), SimTime::from_ms(5))),
        _ => None,
    };
    let (mut rack, (srv0, srv1)) =
        rack_iperf_workload(cell.opt.level, scale.iperf_bytes, partition);
    assert!(
        rack.run_parallel(scale.deadline, cell.opt.threads),
        "cell {cell} stalled at {}",
        rack.now()
    );
    let elapsed = rack.now();
    let bytes = srv0.lock().meter.bytes() + srv1.lock().meter.bytes();
    let gbps = srv0.lock().meter.gbps() + srv1.lock().meter.gbps();
    // The rack servers meter after a 1 ms warm-up, so only bounds hold:
    // something must be delivered, and never more than the 5 streams
    // carried — even across the ToR partition.
    assert!(
        bytes > 0 && bytes <= scale.iperf_bytes * 5,
        "cell {cell}: implausible delivered byte count {bytes}"
    );
    sink.absorb("sim", &rack);
    CellRun {
        elapsed,
        requests: bytes >> 10,
        request_unit: "KiB_delivered",
        perf: gbps,
        perf_unit: "gbps",
        energy: mcn_energy::rack_energy(&power(), &rack, elapsed),
    }
}

fn iperf_cluster_cell(cell: &Cell, scale: &Scale, sink: &mut MetricSink) -> CellRun {
    let clients = 4;
    let mut c = EthernetCluster::new(&SystemConfig::default(), clients + 1);
    let srv = IperfReport::shared();
    c.spawn(
        0,
        Box::new(IperfServer::new(
            IPERF_PORT,
            clients,
            SimTime::ZERO,
            srv.clone(),
        )),
        0,
    );
    for i in 0..clients {
        c.spawn(
            i + 1,
            Box::new(IperfClient::new(
                EthernetCluster::ip_of(0),
                IPERF_PORT,
                scale.iperf_bytes,
                IperfReport::shared(),
            )),
            1,
        );
    }
    assert!(
        c.run_parallel(scale.deadline, cell.opt.threads),
        "cell {cell} stalled at {}",
        c.now()
    );
    let elapsed = c.now();
    let (bytes, gbps) = {
        let r = srv.lock();
        (r.meter.bytes(), r.meter.gbps())
    };
    sink.absorb("sim", &c);
    CellRun {
        elapsed,
        requests: bytes >> 10,
        request_unit: "KiB_delivered",
        perf: gbps,
        perf_unit: "gbps",
        energy: mcn_energy::cluster_energy(&power(), &c, elapsed),
    }
}

fn ping_single_cell(
    cell: &Cell,
    scale: &Scale,
    dimm_to_dimm: bool,
    payload: usize,
    sink: &mut MetricSink,
) -> CellRun {
    let mut sys = McnSystem::new(
        &SystemConfig::default(),
        2,
        McnConfig::level(cell.opt.level),
    );
    let rep = PingReport::shared();
    let pinger = |dst| Box::new(Pinger::new(dst, payload, scale.ping_count, 1, rep.clone()));
    if dimm_to_dimm {
        let dst = sys.dimm_ip(1);
        sys.spawn_dimm(0, pinger(dst), 1);
    } else {
        let dst = sys.dimm_ip(0);
        sys.spawn_host(pinger(dst), 0);
    }
    assert!(
        sys.run_until_procs_done(scale.deadline),
        "cell {cell} stalled at {}",
        sys.now()
    );
    let elapsed = sys.now();
    let (replies, rtt) = {
        let r = rep.lock();
        assert_eq!(r.replies as u16, scale.ping_count, "cell {cell} lost pings");
        (r.replies, r.rtts.mean().expect("recorded"))
    };
    sink.value("rtt_ns", rtt.as_ns_f64());
    sink.absorb("sim", &sys);
    CellRun {
        elapsed,
        requests: replies,
        request_unit: "ping_replies",
        perf: replies as f64 / elapsed.as_secs_f64().max(1e-12),
        perf_unit: "replies_per_sec",
        energy: mcn_energy::mcn_system_energy(&power(), &sys, elapsed),
    }
}

fn ping_cluster_cell(cell: &Cell, scale: &Scale, payload: usize, sink: &mut MetricSink) -> CellRun {
    let mut c = EthernetCluster::new(&SystemConfig::default(), 2);
    let rep = PingReport::shared();
    let dst = EthernetCluster::ip_of(1);
    c.spawn(
        0,
        Box::new(Pinger::new(dst, payload, scale.ping_count, 1, rep.clone())),
        1,
    );
    assert!(
        c.run_parallel(scale.deadline, cell.opt.threads),
        "cell {cell} stalled at {}",
        c.now()
    );
    let elapsed = c.now();
    let (replies, rtt) = {
        let r = rep.lock();
        assert_eq!(r.replies as u16, scale.ping_count, "cell {cell} lost pings");
        (r.replies, r.rtts.mean().expect("recorded"))
    };
    sink.value("rtt_ns", rtt.as_ns_f64());
    sink.absorb("sim", &c);
    CellRun {
        elapsed,
        requests: replies,
        request_unit: "ping_replies",
        perf: replies as f64 / elapsed.as_secs_f64().max(1e-12),
        perf_unit: "replies_per_sec",
        energy: mcn_energy::cluster_energy(&power(), &c, elapsed),
    }
}

#[allow(clippy::too_many_arguments)]
fn mpi_single_cell(
    cell: &Cell,
    scale: &Scale,
    seed: u64,
    spec: WorkloadSpec,
    n_dimms: usize,
    host_ranks: usize,
    per_dimm: usize,
    cfg: &SystemConfig,
    sink: &mut MetricSink,
) -> CellRun {
    let mcn = McnConfig::level(cell.opt.level);
    let plan = match cell.fault {
        FaultAxis::Faults => sweep_fault_plan(seed, mcn),
        _ => FaultPlan::new(seed),
    };
    let mut sys = McnSystem::with_faults(cfg, n_dimms, mcn, &plan);
    let report = spawn_on_mcn(&mut sys, spec, host_ranks, per_dimm, seed);
    assert!(
        sys.run_until_procs_done(scale.deadline),
        "cell {cell} stalled at {}",
        sys.now()
    );
    let elapsed = sys.now();
    {
        let r = report.lock();
        assert!(r.verified, "cell {cell}: numerical verification failed");
    }
    let dram_bytes: u64 = sys.host.mem.total_bytes()
        + (0..n_dimms)
            .map(|d| sys.dimm(d).node.mem.total_bytes())
            .sum::<u64>();
    sink.absorb("sim", &sys);
    sink.absorb("workload", &*report.lock());
    CellRun {
        elapsed,
        requests: dram_bytes / 64,
        request_unit: "dram_bursts",
        perf: dram_bytes as f64 / elapsed.as_secs_f64().max(1e-12),
        perf_unit: "dram_bytes_per_sec",
        energy: mcn_energy::mcn_system_energy(&power(), &sys, elapsed),
    }
}

fn mpi_cluster_cell(
    scale: &Scale,
    seed: u64,
    spec: WorkloadSpec,
    nodes: usize,
    per_node: usize,
    sink: &mut MetricSink,
) -> CellRun {
    let mut c = EthernetCluster::new(&SystemConfig::default(), nodes);
    let report = spawn_on_cluster(&mut c, spec, per_node, seed);
    assert!(
        c.run_until_procs_done(scale.deadline),
        "cluster {} stalled at {}",
        spec.name,
        c.now()
    );
    let elapsed = c.now();
    {
        let r = report.lock();
        assert!(
            r.verified,
            "cluster {}: numerical verification failed",
            spec.name
        );
    }
    let dram_bytes: u64 = (0..nodes).map(|i| c.node(i).node.mem.total_bytes()).sum();
    sink.absorb("sim", &c);
    sink.absorb("workload", &*report.lock());
    CellRun {
        elapsed,
        requests: dram_bytes / 64,
        request_unit: "dram_bursts",
        perf: dram_bytes as f64 / elapsed.as_secs_f64().max(1e-12),
        perf_unit: "dram_bytes_per_sec",
        energy: mcn_energy::cluster_energy(&power(), &c, elapsed),
    }
}

fn kv_rack_cell(cell: &Cell, scale: &Scale, sink: &mut MetricSink) -> CellRun {
    let chaos = match cell.fault {
        FaultAxis::None => None,
        FaultAxis::Outages => Some(KvRackChaos::ReplicaCrash {
            at: SimTime::from_ms(1),
            down_for: SimTime::from_ms(3),
        }),
        FaultAxis::Domains => Some(KvRackChaos::DomainCrash {
            at: SimTime::from_ms(1),
            down_for: SimTime::from_ms(3),
        }),
        FaultAxis::Faults => unreachable!("supported() rejects kv faults"),
    };
    let params = KvRackParams {
        level: cell.opt.level,
        clients_per_server: scale.kv_clients,
        reqs_per_client: scale.kv_reqs,
        slo: SimTime::from_us(200),
        seed_base: 0xBE0,
        chaos,
    };
    let (mut rack, report) = kv_rack_workload(&params);
    // The KV servers are daemons with armed timers, so the engine never
    // quiesces on its own; the serving benches' 50 ms horizon (enough
    // to drain the paper-scale fleet several times over) bounds the
    // run so rps and energy-per-request are not diluted by idle tail.
    rack.run_parallel(SimTime::from_ms(50), cell.opt.threads);
    let elapsed = rack.now();
    let answered = {
        let rep = report.lock();
        let answered = rep.latency.count();
        assert_eq!(
            rep.completed_clients,
            2 * scale.kv_clients,
            "cell {cell}: fleet did not drain"
        );
        rep.check_accounting()
            .unwrap_or_else(|e| panic!("cell {cell}: {e}"));
        if chaos.is_some() {
            assert!(rep.fault_issued > 0, "cell {cell}: chaos never engaged");
        }
        let us = |t: SimTime| t.as_ps() as f64 / 1e6;
        sink.value(
            "kv.p50_us",
            us(rep.latency.percentile(50.0).unwrap_or(SimTime::ZERO)),
        );
        sink.value(
            "kv.p99_us",
            us(rep.latency.percentile(99.0).unwrap_or(SimTime::ZERO)),
        );
        sink.value("kv.fault_availability", rep.fault_availability());
        sink.counter("kv.failovers", rep.failovers);
        sink.counter("kv.gave_up", rep.gave_up);
        answered
    };
    sink.absorb("sim", &rack);
    sink.absorb("serve", &*report.lock());
    CellRun {
        elapsed,
        requests: answered,
        request_unit: "kv_answered",
        perf: answered as f64 / elapsed.as_secs_f64().max(1e-12),
        perf_unit: "rps",
        energy: mcn_energy::rack_energy(&power(), &rack, elapsed),
    }
}

fn kv_dc_cell(cell: &Cell, scale: &Scale, sink: &mut MetricSink) -> CellRun {
    let spine_outage = match cell.fault {
        FaultAxis::Outages => Some((SimTime::from_ms(2), SimTime::from_ms(2))),
        _ => None,
    };
    let params = KvDcParams {
        level: cell.opt.level,
        clients_per_fleet: scale.kv_clients,
        reqs_per_client: scale.kv_reqs,
        slo: SimTime::from_us(500),
        seed_base: 0xDC0,
        spine_outage,
    };
    let (mut dc, intra, cross) = kv_dc_workload(&params);
    // Same daemon-timer caveat as the rack KV cell: bound the run at
    // the datacenter bench's 80 ms horizon instead of the scale
    // deadline.
    dc.run_parallel(SimTime::from_ms(80), cell.opt.threads);
    dc.check_ecmp()
        .unwrap_or_else(|e| panic!("cell {cell}: {e}"));
    let elapsed = dc.now();
    let mut answered = 0u64;
    for (name, report) in [("intra", &intra), ("cross", &cross)] {
        let rep = report.lock();
        let fleet_answered = rep.latency.count();
        assert_eq!(
            rep.completed_clients, scale.kv_clients,
            "cell {cell}: {name} fleet did not drain"
        );
        rep.check_accounting()
            .unwrap_or_else(|e| panic!("cell {cell}: {name} {e}"));
        let us = |t: SimTime| t.as_ps() as f64 / 1e6;
        sink.value(
            &format!("kv.{name}.p50_us"),
            us(rep.latency.percentile(50.0).unwrap_or(SimTime::ZERO)),
        );
        sink.value(
            &format!("kv.{name}.p99_us"),
            us(rep.latency.percentile(99.0).unwrap_or(SimTime::ZERO)),
        );
        answered += fleet_answered;
    }
    sink.absorb("sim", &dc);
    sink.absorb("serve.intra", &*intra.lock());
    sink.absorb("serve.cross", &*cross.lock());
    CellRun {
        elapsed,
        requests: answered,
        request_unit: "kv_answered",
        perf: answered as f64 / elapsed.as_secs_f64().max(1e-12),
        perf_unit: "rps",
        energy: mcn_energy::datacenter_energy(&power(), &dc, elapsed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::OptFlags;

    const HOST_MCN_IPERF: Workload = Workload::Iperf {
        server_on_dimm: false,
    };

    fn cell(workload: Workload, topology: Topology, fault: FaultAxis, level: u32) -> Cell {
        Cell {
            workload,
            topology,
            fault,
            opt: OptFlags { level, threads: 1 },
        }
    }

    #[test]
    fn iperf_single_cell_is_deterministic() {
        let c = cell(HOST_MCN_IPERF, Topology::Single, FaultAxis::None, 3);
        let scale = Scale::smoke();
        let a = run_cell(&c, &scale, 42).to_json();
        let b = run_cell(&c, &scale, 42).to_json();
        assert_eq!(a, b);
        let other = run_cell(&c, &scale, 43).to_json();
        // The seed reaches the snapshot (meta.seed) even where the
        // fault-free scenario itself ignores it.
        assert_ne!(a, other);
    }

    #[test]
    fn cell_snapshot_carries_the_contracted_layout() {
        let c = cell(HOST_MCN_IPERF, Topology::Single, FaultAxis::None, 3);
        let snap = run_cell(&c, &Scale::smoke(), 7);
        for path in [
            "meta.workload",
            "meta.topology",
            "meta.fault",
            "meta.opt",
            "meta.scale",
            "meta.seed",
            "meta.request_unit",
            "meta.perf_unit",
            "elapsed_ps",
            "requests",
            "perf",
            "energy.total_j",
            "energy.energy_per_request_nj",
            "energy.perf_per_watt",
            "energy.avg_power_w",
        ] {
            assert!(snap.get(path).is_some(), "missing {path}");
        }
        assert!(snap.get_u64("requests") > 0);
        assert!(
            snap.iter().any(|(p, _)| p.starts_with("sim.")),
            "sim tree missing"
        );
    }

    #[test]
    fn mcn_mcn_iperf_and_payload_pings_complete_and_repeat() {
        let scale = Scale::smoke();
        let clean = |workload, topology, level| cell(workload, topology, FaultAxis::None, level);
        let ping = |dimm_to_dimm| Workload::Ping {
            dimm_to_dimm,
            payload: 4096,
        };
        let (kib, replies) = (4 * (scale.iperf_bytes >> 10), u64::from(scale.ping_count));
        let cells = [
            (
                clean(
                    Workload::Iperf {
                        server_on_dimm: true,
                    },
                    Topology::Single,
                    5,
                ),
                kib,
            ),
            (clean(ping(true), Topology::Single, 1), replies),
            (clean(ping(false), Topology::Cluster, 0), replies),
        ];
        for (c, delivered) in cells {
            let snap = run_cell(&c, &scale, 11);
            assert_eq!(snap.get_u64("requests"), delivered, "{c}");
            assert_eq!(
                snap.to_json(),
                run_cell(&c, &scale, 11).to_json(),
                "{c} differs on repeat"
            );
        }
    }

    #[test]
    fn faulted_iperf_still_delivers_every_byte() {
        let c = cell(HOST_MCN_IPERF, Topology::Single, FaultAxis::Faults, 1);
        let snap = run_cell(&c, &Scale::smoke(), 0xFA57);
        // The byte-completeness assert inside the arm already ran; the
        // injected faults must also be visible in the counters: dropped
        // ALERT_N interrupts and the fallback poller's recoveries,
        // dropped ring frames, and a bit flip that slipped past ECC.
        for path in [
            "sim.driver.alerts_dropped",
            "sim.driver.alert_recoveries",
            "sim.dimm0.driver.frames_dropped",
            "sim.driver.ecc_escapes",
        ] {
            assert!(snap.get_u64(path) > 0, "no injected fault shows in {path}");
        }
        assert!(snap.get_u64("requests") > 0);
    }
}
