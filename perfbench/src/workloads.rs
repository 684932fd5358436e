//! The three benchmark workloads, each split into the phases the
//! benchmark times separately: build (the scenario constructor plus its
//! spawned processes), drive (the engine run), registry (the counter
//! snapshot) and check (correctness plus the simulated end-to-end
//! figures read from the finished system).

use std::sync::Arc;

use parking_lot::Mutex;

use mcn::{ComponentExt, Datacenter, McnConfig, McnRack, McnSystem, SystemConfig};
use mcn_energy::{efficiency, EnergyReport, PowerParams};
use mcn_mpi::placement::spawn_on_mcn;
use mcn_mpi::{CommPattern, IperfReport, WorkloadReport, WorkloadSpec};
use mcn_sim::{MetricSink, MetricsSnapshot, SimTime};
use mcn_sweep::scenarios::{kv_dc_workload, rack_iperf_workload, KvDcParams, KvReport};

/// MCN optimisation level every workload runs at.
const LEVEL: u32 = 3;
/// Streams of the rack iperf mix (4 DIMM→own host, 1 cross-server).
const IPERF_STREAMS: u64 = 5;
/// Deadline of the iperf and cg drives; reaching it is a failed check.
const RUN_DEADLINE: SimTime = SimTime::from_secs(30);
/// Clients per KV fleet.
const KV_CLIENTS: u64 = 3;
/// Simulated time driven between two drain checks of the KV fleets.
const KV_SLICE: SimTime = SimTime::from_us(250);
/// The sweep's KV horizon: a fleet that has not drained by then fails.
const KV_HORIZON: SimTime = SimTime::from_ms(80);
/// cg placement: 8 DIMMs, 8 host ranks, 3 ranks per DIMM (Fig. 9).
const CG_DIMMS: usize = 8;
const CG_HOST_RANKS: usize = 8;
const CG_PER_DIMM: usize = 3;
/// cg iterations and irregular message size (the paper-scale kernel runs
/// 3 iterations of 48 MiB with 24 KiB messages).
const CG_ITERATIONS: u32 = 4;
const CG_MSG_BYTES: u64 = 6 << 10;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Bulk TCP over the memory channel and the ToR of a 2×2 rack.
    IperfRack,
    /// Two KV fleets on the 16-server Clos with a spine loss.
    KvDcSpine,
    /// NPB cg on one 8-DIMM server (serial engine).
    NpbCgD8,
}

impl Kind {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Kind; 3] = [Kind::IperfRack, Kind::KvDcSpine, Kind::NpbCgD8];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Kind::IperfRack => "iperf_rack",
            Kind::KvDcSpine => "kv_dc_spine",
            Kind::NpbCgD8 => "npb_cg_d8",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether the workload runs on the windowed parallel scheduler
    /// (and so can be driven on more than one worker).
    pub fn parallel(self) -> bool {
        self != Kind::NpbCgD8
    }
}

/// How much work one repetition does.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Bytes per iperf stream.
    pub iperf_bytes: u64,
    /// Requests per KV client.
    pub kv_reqs_per_client: u64,
    /// cg memory traffic over all iterations and ranks.
    pub cg_mem_bytes: u64,
}

impl Size {
    /// The benchmark's size.
    pub const FULL: Size = Size {
        iperf_bytes: 6 << 20,
        kv_reqs_per_client: 700,
        cg_mem_bytes: 1 << 20,
    };
    /// A tiny size for the smoke test.
    pub const SMOKE: Size = Size {
        iperf_bytes: 256 << 10,
        kv_reqs_per_client: 20,
        cg_mem_bytes: 64 << 10,
    };
}

/// One workload at one size and seed.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub kind: Kind,
    pub seed: u64,
    pub size: Size,
}

impl Params {
    /// NPB cg shrunk through its `WorkloadSpec` magnitudes while keeping
    /// its signature (random access, 85 % reads, fan-out-3 irregular
    /// point-to-point messages): `CG_ITERATIONS` iterations sharing
    /// `cg_mem_bytes` of memory traffic, with `CG_MSG_BYTES` messages.
    /// Several short iterations average the per-iteration random message
    /// targets, so the figures move little from seed to seed.
    fn cg_spec(&self) -> WorkloadSpec {
        let mut spec = WorkloadSpec::by_name("cg").expect("cg is an NPB kernel");
        spec.iterations = CG_ITERATIONS;
        spec.mem_bytes_per_iter = self.size.cg_mem_bytes / u64::from(CG_ITERATIONS);
        spec.comm = CommPattern::Irregular {
            fanout: 3,
            msg_bytes: CG_MSG_BYTES,
        };
        spec
    }
}

type Iperf = Arc<Mutex<IperfReport>>;

/// A built (and later driven) workload. Only a few exist at a time, so
/// the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum Built {
    Iperf {
        rack: McnRack,
        srv: [Iperf; 2],
    },
    Kv {
        dc: Datacenter,
        intra: KvReport,
        cross: KvReport,
    },
    Cg {
        sys: McnSystem,
        report: Arc<Mutex<WorkloadReport>>,
    },
}

/// Builds the topology and spawns every process of the workload.
pub fn build(p: &Params) -> Built {
    match p.kind {
        Kind::IperfRack => {
            let (rack, (srv0, srv1)) = rack_iperf_workload(LEVEL, p.size.iperf_bytes, None);
            Built::Iperf {
                rack,
                srv: [srv0, srv1],
            }
        }
        Kind::KvDcSpine => {
            let params = KvDcParams {
                clients_per_fleet: KV_CLIENTS,
                reqs_per_client: p.size.kv_reqs_per_client,
                seed_base: p.seed,
                ..KvDcParams::default_bench()
            };
            let (dc, intra, cross) = kv_dc_workload(&params);
            Built::Kv { dc, intra, cross }
        }
        Kind::NpbCgD8 => {
            let mut sys =
                McnSystem::new(&SystemConfig::default(), CG_DIMMS, McnConfig::level(LEVEL));
            let report = spawn_on_mcn(&mut sys, p.cg_spec(), CG_HOST_RANKS, CG_PER_DIMM, p.seed);
            Built::Cg { sys, report }
        }
    }
}

/// Drives the workload to completion (iperf, cg) or to the drain of both
/// KV fleets, on `threads` workers where the engine supports them.
pub fn drive(b: &mut Built, threads: usize) {
    match b {
        Built::Iperf { rack, .. } => {
            rack.run_parallel(RUN_DEADLINE, threads);
        }
        Built::Kv { dc, intra, cross } => {
            while !(drained(intra) && drained(cross)) && dc.now() < KV_HORIZON {
                dc.run_parallel_until(dc.now() + KV_SLICE, threads);
            }
        }
        Built::Cg { sys, .. } => {
            sys.run_until_procs_done(RUN_DEADLINE);
        }
    }
}

fn drained(r: &KvReport) -> bool {
    r.lock().completed_clients == KV_CLIENTS
}

/// The workload's full counter registry: the topology's tree under
/// `sim.*` plus the application reports. Its JSON is the byte-identity
/// witness between repetitions and worker counts.
pub fn registry(b: &Built) -> MetricsSnapshot {
    let mut sink = MetricSink::new();
    match b {
        Built::Iperf { rack, srv } => {
            sink.absorb("sim", rack);
            sink.absorb("iperf.srv0", &*srv[0].lock());
            sink.absorb("iperf.srv1", &*srv[1].lock());
        }
        Built::Kv { dc, intra, cross } => {
            sink.absorb("sim", dc);
            sink.absorb("serve.intra", &*intra.lock());
            sink.absorb("serve.cross", &*cross.lock());
        }
        Built::Cg { sys, report } => {
            sink.absorb("sim", sys);
            sink.absorb("workload", &*report.lock());
        }
    }
    sink.finish()
}

/// Simulated end-to-end figures of one repetition. Every field repeats
/// exactly for a given seed and size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimFigures {
    /// Simulated time at which the workload's last operation finished.
    pub job_time: SimTime,
    /// Aggregate application goodput, Gbit/s.
    pub goodput_gbps: f64,
    /// Aggregate DRAM bandwidth over `job_time`, GB/s.
    pub dram_gbs: f64,
    /// Energy per request unit over `job_time`, nJ.
    pub nj_per_request: f64,
    /// Completed ÷ attempted operations.
    pub answered_frac: f64,
}

/// Latency of one KV fleet (histogram bucket floors).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetLatency {
    pub p50_us: f64,
    pub p99_us: f64,
    pub answered: u64,
}

/// Checks the driven workload and reads its simulated figures. Every
/// broken check is one entry of the returned error list.
pub fn check(b: &Built, p: &Params) -> Result<SimFigures, Vec<String>> {
    let mut errs = Vec::new();
    let power = PowerParams::default();
    let figures = match b {
        Built::Iperf { rack, srv } => {
            let offered = IPERF_STREAMS * p.size.iperf_bytes;
            let delivered: u64 = (0..rack.len())
                .map(|s| rack.server(s).host.stack.tcp_totals().bytes_delivered)
                .sum();
            if !rack.all_procs_done() {
                errs.push(format!("iperf streams unfinished at {}", rack.now()));
            }
            if delivered != offered {
                errs.push(format!(
                    "hosts delivered {delivered} B, streams offered {offered} B"
                ));
            }
            let job_time = rack.now();
            let energy = mcn_energy::rack_energy(&power, rack, job_time);
            let gbps = srv.iter().map(|s| s.lock().meter.gbps()).sum();
            SimFigures {
                job_time,
                goodput_gbps: gbps,
                dram_gbs: gbs(rack_dram_bytes(rack), job_time),
                nj_per_request: nj(&energy, delivered >> 10, job_time),
                answered_frac: delivered as f64 / offered as f64,
            }
        }
        Built::Kv { dc, intra, cross } => {
            let (mut issued, mut answered) = (0, 0);
            for (name, r) in [("intra", intra), ("cross", cross)] {
                let r = r.lock();
                if r.completed_clients != KV_CLIENTS {
                    errs.push(format!(
                        "{name} fleet did not drain by {}: {}/{KV_CLIENTS} clients",
                        dc.now(),
                        r.completed_clients
                    ));
                }
                let fleet_answered = r.latency.count();
                if r.issued != fleet_answered + r.gave_up {
                    errs.push(format!(
                        "{name} fleet: issued {} != answered {fleet_answered} + gave_up {}",
                        r.issued, r.gave_up
                    ));
                }
                issued += r.issued;
                answered += fleet_answered;
            }
            let job_time = dc.now();
            let energy = mcn_energy::datacenter_energy(&power, dc, job_time);
            let (mut dram, mut delivered) = (0, 0);
            for r in 0..dc.racks() {
                dram += rack_dram_bytes(dc.rack(r));
                delivered += rack_tcp_delivered(dc.rack(r));
            }
            SimFigures {
                job_time,
                goodput_gbps: gbps(delivered, job_time),
                dram_gbs: gbs(dram, job_time),
                nj_per_request: nj(&energy, answered, job_time),
                answered_frac: answered as f64 / issued.max(1) as f64,
            }
        }
        Built::Cg { sys, report } => {
            let r = report.lock();
            if !r.verified {
                errs.push("cg numerical verification failed".into());
            }
            let ranks = r.finished.len();
            let finished = r.finished.iter().filter(|t| t.is_some()).count();
            if finished != ranks {
                errs.push(format!("{finished}/{ranks} cg ranks finished"));
            }
            let job_time = r.completion().unwrap_or(sys.now());
            let dram = system_dram_bytes(sys);
            let energy = mcn_energy::mcn_system_energy(&power, sys, job_time);
            SimFigures {
                job_time,
                goodput_gbps: gbps(system_tcp_delivered(sys), job_time),
                dram_gbs: gbs(dram, job_time),
                nj_per_request: nj(&energy, dram / 64, job_time),
                answered_frac: finished as f64 / ranks.max(1) as f64,
            }
        }
    };
    if errs.is_empty() {
        Ok(figures)
    } else {
        Err(errs)
    }
}

/// Per-fleet KV latency (`None` for the other workloads).
pub fn fleet_latency(b: &Built) -> Option<[FleetLatency; 2]> {
    let Built::Kv { intra, cross, .. } = b else {
        return None;
    };
    let us = |t: Option<SimTime>| t.unwrap_or(SimTime::ZERO).as_ps() as f64 / 1e6;
    let fleet = |r: &KvReport| {
        let r = r.lock();
        FleetLatency {
            p50_us: us(r.latency.percentile(50.0)),
            p99_us: us(r.latency.percentile(99.0)),
            answered: r.latency.count(),
        }
    };
    Some([fleet(intra), fleet(cross)])
}

fn system_dram_bytes(sys: &McnSystem) -> u64 {
    sys.host.mem.total_bytes()
        + (0..sys.dimms())
            .map(|d| sys.dimm(d).node.mem.total_bytes())
            .sum::<u64>()
}

fn system_tcp_delivered(sys: &McnSystem) -> u64 {
    sys.host.stack.tcp_totals().bytes_delivered
        + (0..sys.dimms())
            .map(|d| sys.dimm(d).node.stack.tcp_totals().bytes_delivered)
            .sum::<u64>()
}

fn rack_dram_bytes(rack: &McnRack) -> u64 {
    (0..rack.len())
        .map(|s| system_dram_bytes(rack.server(s)))
        .sum()
}

fn rack_tcp_delivered(rack: &McnRack) -> u64 {
    (0..rack.len())
        .map(|s| system_tcp_delivered(rack.server(s)))
        .sum()
}

fn gbs(bytes: u64, t: SimTime) -> f64 {
    bytes as f64 / t.as_secs_f64().max(1e-12) / 1e9
}

fn gbps(bytes: u64, t: SimTime) -> f64 {
    8.0 * gbs(bytes, t)
}

fn nj(energy: &EnergyReport, requests: u64, t: SimTime) -> f64 {
    efficiency(energy, requests, 0.0, t).energy_per_request_nj
}
