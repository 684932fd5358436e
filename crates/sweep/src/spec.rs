//! The declarative side of the sweep: axes, cells, seeds and hashes.
//!
//! A sweep is a list of [`Cell`]s — one independent simulation each —
//! expanded from four axes (workload × topology × fault plan ×
//! optimisation flags) plus any number of explicit extra cells the
//! presets append for the figure families that need parameters beyond
//! the axes (Fig. 8's mcn-mcn layouts and ping payloads, Fig. 9's DIMM
//! counts, Fig. 10's equal-core pairs, Fig. 11's scale-up cores).
//!
//! Everything here is pure data: deterministic ids, seeds derived from
//! the sweep seed by FNV-1a over the cell id, and a config hash that
//! keys the on-disk done-markers so a resumed sweep only trusts markers
//! produced by the same (cell, seed, scale, format) tuple.

use std::fmt;

use mcn_sim::{fnv1a64, SimTime};

/// Bumped whenever the per-cell metric layout changes incompatibly;
/// part of every config hash, so old done-markers are re-run rather
/// than merged.
pub const FORMAT_VERSION: u32 = 1;

/// The workload axis. The parsed axis values are `iperf`, `ping`,
/// `pingmm`, `allreduce` and `kv`; the other parameter values are
/// appended by the presets for the figure families.
///
/// Every parameter reaches the id token ([`Workload::token`]): a
/// done-marker is keyed by id, seed and scale only, so a cell whose
/// workload changed under an old id would resume from a stale marker.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// Fig. 8(a): one iperf server, four client streams.
    Iperf {
        /// Fig. 8(a)'s mcn-mcn layout: the server on DIMM 0, clients on
        /// the host and DIMMs 1–3 (instead of the server on the host and
        /// a client on every DIMM).
        server_on_dimm: bool,
    },
    /// Fig. 8(b)/(c): ping RTT, host↔DIMM or DIMM↔DIMM.
    Ping {
        /// DIMM↔DIMM through the host forwarding engine (Fig. 8c)
        /// instead of host↔DIMM (Fig. 8b).
        dimm_to_dimm: bool,
        /// ICMP payload bytes (the parsed axis value pings with 64).
        payload: usize,
    },
    /// A communication-dominated MPI all-reduce microbenchmark.
    AllReduce,
    /// Replicated memcached-style KV serving with a resilient open-loop
    /// client fleet.
    Kv,
    /// Fig. 9/10/11: a named [`mcn_mpi::WorkloadSpec`] on an MCN
    /// server with `dimms` DIMMs (`dimms == 0` is the conventional-server
    /// baseline that runs every rank on the host). The host has one core
    /// per host rank: Table II's 8 cores at 8 ranks, Fig. 11's 4-core
    /// host at 4.
    Npb {
        /// Workload name (`WorkloadSpec::by_name`).
        name: String,
        /// MCN DIMM count; 0 = conventional baseline.
        dimms: usize,
        /// Ranks placed on the host.
        host_ranks: usize,
        /// Ranks placed on each DIMM.
        per_dimm: usize,
    },
    /// Fig. 10 baseline: the same named workload on an `nodes`-node
    /// 10GbE cluster with `per_node` ranks per node.
    NpbCluster {
        /// Workload name.
        name: String,
        /// Cluster size.
        nodes: usize,
        /// Ranks per node.
        per_node: usize,
    },
    /// Fig. 11 baseline: the named workload on a scale-up host with
    /// `cores` cores, one rank per core over loopback.
    NpbScaleUp {
        /// Workload name.
        name: String,
        /// Host core count (and rank count).
        cores: usize,
    },
}

impl Workload {
    /// Dot-free id token (hyphen-separated tokens form the cell id).
    /// The short forms name their default parameters (64-byte pings,
    /// Fig. 9's 8 host ranks plus 3 per DIMM); any other value is
    /// spelled out.
    pub fn token(&self) -> String {
        match self {
            Workload::Iperf {
                server_on_dimm: false,
            } => "iperf".into(),
            Workload::Iperf {
                server_on_dimm: true,
            } => "iperfmm".into(),
            Workload::Ping {
                dimm_to_dimm,
                payload,
            } => {
                let mode = if *dimm_to_dimm { "pingmm" } else { "ping" };
                match payload {
                    64 => mode.into(),
                    _ => format!("{mode}_b{payload}"),
                }
            }
            Workload::AllReduce => "allreduce".into(),
            Workload::Kv => "kv".into(),
            Workload::Npb {
                name,
                dimms: 0,
                host_ranks: 8,
                per_dimm: 0,
            } => format!("conv_{name}"),
            Workload::Npb {
                name,
                dimms,
                host_ranks: 8,
                per_dimm: 3,
            } if *dimms > 0 => {
                format!("npb_{name}_d{dimms}")
            }
            Workload::Npb {
                name,
                dimms,
                host_ranks,
                per_dimm,
            } => {
                format!("npb_{name}_d{dimms}_h{host_ranks}r{per_dimm}")
            }
            Workload::NpbCluster {
                name,
                nodes,
                per_node,
            } => {
                format!("clus_{name}_n{nodes}r{per_node}")
            }
            Workload::NpbScaleUp { name, cores } => format!("scaleup_{name}_c{cores}"),
        }
    }
}

/// The topology axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One MCN-enabled server ([`mcn::McnSystem`]); serial engine only.
    Single,
    /// A ToR-switched rack of MCN servers ([`mcn::McnRack`]).
    Rack,
    /// The 10GbE scale-out baseline ([`mcn::EthernetCluster`]).
    Cluster,
    /// The multi-rack Clos datacenter ([`mcn::Datacenter`]).
    Dc,
}

impl Topology {
    /// Id token.
    pub fn token(self) -> &'static str {
        match self {
            Topology::Single => "single",
            Topology::Rack => "rack",
            Topology::Cluster => "cluster",
            Topology::Dc => "dc",
        }
    }
}

/// The fault-plan axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAxis {
    /// Clean run.
    None,
    /// Seeded rate faults on the data path (frame drops, ALERT_N
    /// losses, DMA stalls; bit flips only while checksums are verified,
    /// i.e. below `mcn2` — flipping bytes the stack is told not to
    /// check would corrupt payloads silently).
    Faults,
    /// A hard outage mid-run: a ToR switch partition (rack iperf), a
    /// replica DIMM crash (rack KV) or a spine loss (datacenter KV),
    /// healing before the deadline.
    Outages,
    /// A correlated failure domain (a whole DIMM riser) dying at once,
    /// exercising failover, hedging and the retry/breaker machinery.
    Domains,
}

impl FaultAxis {
    /// Id token.
    pub fn token(self) -> &'static str {
        match self {
            FaultAxis::None => "none",
            FaultAxis::Faults => "faults",
            FaultAxis::Outages => "outages",
            FaultAxis::Domains => "domains",
        }
    }
}

/// The optimisation axis: a cumulative Table I level (`mcn0`..`mcn5` —
/// `mcn2` adds checksum bypass, `mcn3` the 9K MTU, `mcn4` TSO, `mcn5`
/// MCN-DMA) plus the engine worker-thread count. Results are
/// byte-identical across thread counts by construction; the axis exists
/// so sweeps can prove it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptFlags {
    /// Cumulative optimisation level, 0..=5 ([`mcn::McnConfig::level`]).
    pub level: u32,
    /// Parallel-engine worker threads (rack/cluster/datacenter only).
    pub threads: usize,
}

impl OptFlags {
    /// Id token, e.g. `mcn3_t2`.
    pub fn token(self) -> String {
        format!("mcn{}_t{}", self.level, self.threads)
    }
}

/// Workload sizing, so CI smoke sweeps finish in seconds while the
/// paper preset runs the full figure volumes. Every field is folded
/// into the config hash: markers from a different scale never merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scale {
    /// Name rendered into cell metadata (`smoke` or `paper`).
    pub name: &'static str,
    /// iperf bytes per client stream.
    pub iperf_bytes: u64,
    /// Ping request count.
    pub ping_count: u16,
    /// KV clients per server (rack) or per fleet (datacenter).
    pub kv_clients: u64,
    /// KV requests per client.
    pub kv_reqs: u64,
    /// Iterations of the all-reduce microbenchmark.
    pub allreduce_iters: u32,
    /// Simulated-time cap for every cell (engines finish earlier when
    /// their processes drain; this only bounds stalls).
    pub deadline: SimTime,
}

impl Scale {
    /// CI-sized: every supported cell finishes in well under a second.
    pub fn smoke() -> Scale {
        Scale {
            name: "smoke",
            iperf_bytes: 256 << 10,
            ping_count: 5,
            kv_clients: 2,
            kv_reqs: 40,
            allreduce_iters: 2,
            deadline: SimTime::from_secs(10),
        }
    }

    /// Paper-sized: the volumes the figure binaries use.
    pub fn paper() -> Scale {
        Scale {
            name: "paper",
            iperf_bytes: 6 << 20,
            ping_count: 20,
            kv_clients: 4,
            kv_reqs: 250,
            allreduce_iters: 4,
            deadline: SimTime::from_secs(30),
        }
    }

    /// Stable rendering folded into every config hash.
    pub fn fingerprint(&self) -> String {
        format!(
            "{};ib{};pc{};kc{};kr{};ai{};dl{}",
            self.name,
            self.iperf_bytes,
            self.ping_count,
            self.kv_clients,
            self.kv_reqs,
            self.allreduce_iters,
            self.deadline.as_ps()
        )
    }
}

/// One point of the sweep: a workload on a topology under a fault plan
/// at an optimisation setting.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Workload axis value.
    pub workload: Workload,
    /// Topology axis value.
    pub topology: Topology,
    /// Fault-plan axis value.
    pub fault: FaultAxis,
    /// Optimisation axis value.
    pub opt: OptFlags,
}

impl Cell {
    /// The cell id: `{workload}-{topology}-{fault}-{opt}`, dot-free so
    /// it can serve as one metrics-path segment (`cells.<id>.…`).
    pub fn id(&self) -> String {
        format!(
            "{}-{}-{}-{}",
            self.workload.token(),
            self.topology.token(),
            self.fault.token(),
            self.opt.token()
        )
    }

    /// The cell's private seed, derived from the sweep seed and the
    /// cell id (FNV-1a), so reordering or filtering cells never changes
    /// any other cell's randomness.
    pub fn seed(&self, sweep_seed: u64) -> u64 {
        fnv1a64(sweep_seed ^ 0x5eed, self.id().as_bytes())
    }

    /// The config hash keying this cell's done-marker: id, per-cell
    /// seed, scale fingerprint and [`FORMAT_VERSION`]. A marker with a
    /// stale hash is simply a different file name, so the cell re-runs.
    pub fn config_hash(&self, sweep_seed: u64, scale: &Scale) -> u64 {
        let text = format!(
            "v{};{};s{:016x};{}",
            FORMAT_VERSION,
            self.id(),
            self.seed(sweep_seed),
            scale.fingerprint()
        );
        fnv1a64(0, text.as_bytes())
    }

    /// Whether this axis combination has a scenario, and why not if
    /// not. Unsupported combinations are recorded (never silently
    /// dropped) by the runner.
    pub fn supported(&self) -> Result<(), &'static str> {
        use FaultAxis as F;
        use Topology as T;
        use Workload as W;
        if self.topology == T::Cluster && self.opt.level != 0 {
            return Err("the 10GbE baseline has no MCN optimisation levels (use mcn0)");
        }
        if self.topology == T::Single && self.opt.threads > 1 {
            return Err(
                "a single system runs on the serial engine (threads > 1 needs rack/cluster/dc)",
            );
        }
        let topo_ok = matches!(
            (&self.workload, self.topology),
            (W::Iperf { .. }, T::Single | T::Rack | T::Cluster)
                | (W::Ping { .. }, T::Single | T::Cluster)
                | (W::AllReduce, T::Single | T::Cluster)
                | (W::Kv, T::Rack | T::Dc)
                | (W::Npb { .. } | W::NpbScaleUp { .. }, T::Single)
                | (W::NpbCluster { .. }, T::Cluster)
        );
        if !topo_ok {
            return Err("workload has no scenario on this topology");
        }
        let mcn_mcn = matches!(
            self.workload,
            W::Ping {
                dimm_to_dimm: true,
                ..
            } | W::Iperf {
                server_on_dimm: true
            }
        );
        if mcn_mcn && self.topology != T::Single {
            return Err("mcn-mcn traffic needs the host forwarding engine (single only)");
        }
        match self.fault {
            F::None => Ok(()),
            F::Faults => match (&self.workload, self.topology) {
                (W::Iperf { .. } | W::AllReduce, T::Single) => Ok(()),
                _ => Err("rate faults are wired for single-system iperf/allreduce only"),
            },
            F::Outages => match (&self.workload, self.topology) {
                (W::Iperf { .. }, T::Rack) | (W::Kv, T::Rack | T::Dc) => Ok(()),
                _ => Err("outage scenarios exist for rack iperf and rack/dc KV only"),
            },
            F::Domains => match (&self.workload, self.topology) {
                (W::Kv, T::Rack) => Ok(()),
                _ => Err("failure-domain scenarios exist for rack KV only"),
            },
        }
    }
}

/// A whole sweep: seed, scale and the ordered cell list. The order is
/// the axis expansion order (workloads outermost, then topologies,
/// faults, optimisation settings, with extra cells appended) and is
/// also the merge order — see DESIGN.md §4g.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Sweep-level seed every per-cell seed derives from.
    pub seed: u64,
    /// Workload sizing.
    pub scale: Scale,
    /// Ordered cells (supported and unsupported alike; the runner
    /// records which is which).
    pub cells: Vec<Cell>,
}

/// Builder over the four axes; [`Axes::expand`] produces the cross
/// product in the documented order.
#[derive(Debug, Clone, Default)]
pub struct Axes {
    /// Workload axis values, outermost loop.
    pub workloads: Vec<Workload>,
    /// Topology axis values.
    pub topologies: Vec<Topology>,
    /// Fault axis values.
    pub faults: Vec<FaultAxis>,
    /// Optimisation axis values, innermost loop.
    pub opts: Vec<OptFlags>,
}

impl Axes {
    /// The cross product, workloads outermost and optimisation
    /// innermost.
    pub fn expand(&self) -> Vec<Cell> {
        let mut cells = Vec::new();
        for w in &self.workloads {
            for &t in &self.topologies {
                for &f in &self.faults {
                    for &o in &self.opts {
                        cells.push(Cell {
                            workload: w.clone(),
                            topology: t,
                            fault: f,
                            opt: o,
                        });
                    }
                }
            }
        }
        cells
    }
}

impl SweepSpec {
    /// The CI mini-sweep: 2 workloads × 2 topologies × 2 fault plans at
    /// one optimisation setting, then the 10GbE cluster's iperf (driven
    /// with `run_parallel`) and allreduce (driven event by event) cells,
    /// smoke scale.
    pub fn smoke() -> SweepSpec {
        let axes = Axes {
            workloads: vec![
                Workload::Iperf {
                    server_on_dimm: false,
                },
                Workload::Kv,
            ],
            topologies: vec![Topology::Single, Topology::Rack],
            faults: vec![FaultAxis::None, FaultAxis::Domains],
            opts: vec![OptFlags {
                level: 3,
                threads: 1,
            }],
        };
        let mut cells = axes.expand();
        for workload in [
            Workload::Iperf {
                server_on_dimm: false,
            },
            Workload::AllReduce,
        ] {
            cells.push(Cell {
                workload,
                topology: Topology::Cluster,
                fault: FaultAxis::None,
                opt: OptFlags {
                    level: 0,
                    threads: 1,
                },
            });
        }
        SweepSpec {
            seed: 0x5111,
            scale: Scale::smoke(),
            cells,
        }
    }

    /// The paper preset at paper scale: every cell the figure renderers
    /// read (Fig. 8(a/b/c), 9, 10 and 11), the resilience column, and
    /// the serving and datacenter scenarios.
    pub fn paper() -> SweepSpec {
        let mut cells = Vec::new();
        let t1 = |level| OptFlags { level, threads: 1 };
        let clean = |workload, topology, level| Cell {
            workload,
            topology,
            fault: FaultAxis::None,
            opt: t1(level),
        };
        // Fig. 8(a): iperf at every optimisation level, host-mcn then
        // mcn-mcn, plus the 10GbE baseline.
        for server_on_dimm in [false, true] {
            for level in 0..=5 {
                cells.push(clean(
                    Workload::Iperf { server_on_dimm },
                    Topology::Single,
                    level,
                ));
            }
        }
        cells.push(clean(
            Workload::Iperf {
                server_on_dimm: false,
            },
            Topology::Cluster,
            0,
        ));
        // Fig. 8(b)/(c): 64-byte pings at the mcn0 and mcn5 ends, then
        // the payload ladders at mcn0/1/5 and over 10GbE.
        for dimm_to_dimm in [false, true] {
            for level in [0, 5] {
                let ping = Workload::Ping {
                    dimm_to_dimm,
                    payload: 64,
                };
                cells.push(clean(ping, Topology::Single, level));
            }
        }
        let ping = Workload::Ping {
            dimm_to_dimm: false,
            payload: 64,
        };
        cells.push(clean(ping, Topology::Cluster, 0));
        let payloads = [16, 256, 1024, 4096, 8192];
        for dimm_to_dimm in [false, true] {
            for payload in payloads {
                for level in [0, 1, 5] {
                    let ping = Workload::Ping {
                        dimm_to_dimm,
                        payload,
                    };
                    cells.push(clean(ping, Topology::Single, level));
                }
            }
        }
        for payload in payloads {
            let ping = Workload::Ping {
                dimm_to_dimm: false,
                payload,
            };
            cells.push(clean(ping, Topology::Cluster, 0));
        }
        // Resilience column: iperf under rate faults and a rack switch
        // partition; the serving tier clean, under a replica crash and
        // under the riser-domain breaker drill; the datacenter clean
        // and under a spine loss. Rack cells run at 1 and 2 workers —
        // the byte-identity axis.
        for fault in [FaultAxis::None, FaultAxis::Faults] {
            cells.push(Cell {
                workload: Workload::AllReduce,
                topology: Topology::Single,
                fault,
                opt: t1(1),
            });
        }
        // (iperf's clean level-1 baseline is already in the Fig. 8(a)
        // column above, so only the faulted variant is added here.)
        cells.push(Cell {
            workload: Workload::Iperf {
                server_on_dimm: false,
            },
            topology: Topology::Single,
            fault: FaultAxis::Faults,
            opt: t1(1),
        });
        for threads in [1, 2] {
            for fault in [FaultAxis::None, FaultAxis::Outages] {
                cells.push(Cell {
                    workload: Workload::Iperf {
                        server_on_dimm: false,
                    },
                    topology: Topology::Rack,
                    fault,
                    opt: OptFlags { level: 3, threads },
                });
            }
            for fault in [FaultAxis::None, FaultAxis::Outages, FaultAxis::Domains] {
                cells.push(Cell {
                    workload: Workload::Kv,
                    topology: Topology::Rack,
                    fault,
                    opt: OptFlags { level: 3, threads },
                });
            }
            for fault in [FaultAxis::None, FaultAxis::Outages] {
                cells.push(Cell {
                    workload: Workload::Kv,
                    topology: Topology::Dc,
                    fault,
                    opt: OptFlags { level: 3, threads },
                });
            }
        }
        let npb = |name: &str, dimms, host_ranks, per_dimm| Workload::Npb {
            name: name.into(),
            dimms,
            host_ranks,
            per_dimm,
        };
        // Fig. 9: every workload of the mix on 2/4/6/8 DIMMs at mcn3
        // (8 host ranks + 3 per DIMM) against the conventional server.
        for spec in mcn_mpi::WorkloadSpec::all() {
            cells.push(clean(npb(spec.name, 0, 8, 0), Topology::Single, 0));
            for dimms in [2, 4, 6, 8] {
                cells.push(clean(npb(spec.name, dimms, 8, 3), Topology::Single, 3));
            }
        }
        // Fig. 10: MCN servers (8 host ranks + 4 per DIMM) against 10GbE
        // clusters of 8-rank nodes with the same rank count.
        for name in ["cg", "mg", "sort"] {
            for (dimms, nodes) in [(2, 2), (4, 3), (6, 4), (8, 5)] {
                cells.push(clean(npb(name, dimms, 8, 4), Topology::Single, 3));
                let cluster = Workload::NpbCluster {
                    name: name.into(),
                    nodes,
                    per_node: 8,
                };
                cells.push(clean(cluster, Topology::Cluster, 0));
            }
        }
        // Fig. 11: scale-up hosts against MCN growth from a 4-core host
        // (4 host ranks + 4 per DIMM).
        for name in ["ep", "cg", "mg"] {
            for cores in [4, 8, 12, 16] {
                let scaleup = Workload::NpbScaleUp {
                    name: name.into(),
                    cores,
                };
                cells.push(clean(scaleup, Topology::Single, 0));
            }
            for dimms in 1..=3 {
                cells.push(clean(npb(name, dimms, 4, 4), Topology::Single, 3));
            }
        }
        SweepSpec {
            seed: 0x9a9e12,
            scale: Scale::paper(),
            cells,
        }
    }

    /// Parses the key=value sweep description format:
    ///
    /// ```text
    /// # comment
    /// seed = 7
    /// scale = smoke            # or: paper
    /// workloads = iperf, kv    # iperf ping pingmm allreduce kv
    /// topologies = single, rack  # single rack cluster dc
    /// faults = none, domains   # none faults outages domains
    /// levels = 0, 3            # Table I cumulative levels 0..=5
    /// threads = 1, 2           # engine workers (opt axis = levels × threads)
    /// ```
    ///
    /// Unknown keys, values and duplicate keys are errors; every axis
    /// key is required except `seed` (default 1) and `scale` (default
    /// smoke).
    pub fn parse(text: &str) -> Result<SweepSpec, String> {
        let mut seed = 1u64;
        let mut scale = Scale::smoke();
        let mut axes = Axes::default();
        let mut levels: Vec<u32> = Vec::new();
        let mut threads: Vec<usize> = Vec::new();
        let mut seen: Vec<String> = Vec::new();
        for (ln, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let err = |m: String| format!("line {}: {m}", ln + 1);
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| err(format!("expected `key = value`, got {line:?}")))?;
            let (key, value) = (key.trim(), value.trim());
            if seen.iter().any(|k| k == key) {
                return Err(err(format!("duplicate key {key:?}")));
            }
            seen.push(key.to_string());
            let list = || value.split(',').map(str::trim).filter(|v| !v.is_empty());
            match key {
                "seed" => {
                    seed = value
                        .parse()
                        .map_err(|_| err(format!("bad seed {value:?}")))?;
                }
                "scale" => {
                    scale = match value {
                        "smoke" => Scale::smoke(),
                        "paper" => Scale::paper(),
                        other => return Err(err(format!("unknown scale {other:?}"))),
                    };
                }
                "workloads" => {
                    for v in list() {
                        axes.workloads.push(match v {
                            "iperf" => Workload::Iperf {
                                server_on_dimm: false,
                            },
                            "ping" => Workload::Ping {
                                dimm_to_dimm: false,
                                payload: 64,
                            },
                            "pingmm" => Workload::Ping {
                                dimm_to_dimm: true,
                                payload: 64,
                            },
                            "allreduce" => Workload::AllReduce,
                            "kv" => Workload::Kv,
                            other => return Err(err(format!("unknown workload {other:?}"))),
                        });
                    }
                }
                "topologies" => {
                    for v in list() {
                        axes.topologies.push(match v {
                            "single" => Topology::Single,
                            "rack" => Topology::Rack,
                            "cluster" => Topology::Cluster,
                            "dc" => Topology::Dc,
                            other => return Err(err(format!("unknown topology {other:?}"))),
                        });
                    }
                }
                "faults" => {
                    for v in list() {
                        axes.faults.push(match v {
                            "none" => FaultAxis::None,
                            "faults" => FaultAxis::Faults,
                            "outages" => FaultAxis::Outages,
                            "domains" => FaultAxis::Domains,
                            other => return Err(err(format!("unknown fault plan {other:?}"))),
                        });
                    }
                }
                "levels" => {
                    for v in list() {
                        let n: u32 = v.parse().map_err(|_| err(format!("bad level {v:?}")))?;
                        if n > 5 {
                            return Err(err(format!("level {n} out of range (Table I is 0..=5)")));
                        }
                        levels.push(n);
                    }
                }
                "threads" => {
                    for v in list() {
                        let n: usize = v
                            .parse()
                            .map_err(|_| err(format!("bad thread count {v:?}")))?;
                        if n == 0 {
                            return Err(err("thread count must be >= 1".into()));
                        }
                        threads.push(n);
                    }
                }
                other => return Err(err(format!("unknown key {other:?}"))),
            }
        }
        for (name, empty) in [
            ("workloads", axes.workloads.is_empty()),
            ("topologies", axes.topologies.is_empty()),
            ("faults", axes.faults.is_empty()),
            ("levels", levels.is_empty()),
            ("threads", threads.is_empty()),
        ] {
            if empty {
                return Err(format!("missing required axis {name:?}"));
            }
        }
        for &level in &levels {
            for &t in &threads {
                axes.opts.push(OptFlags { level, threads: t });
            }
        }
        Ok(SweepSpec {
            seed,
            scale,
            cells: axes.expand(),
        })
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.id())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dot_free_and_unique() {
        let spec = SweepSpec::paper();
        let mut ids: Vec<String> = spec.cells.iter().map(Cell::id).collect();
        assert!(
            ids.iter().all(|i| !i.contains('.')),
            "dots would split metric paths"
        );
        let n = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), n, "paper preset has duplicate cell ids");
    }

    /// Done-markers are keyed by id, seed and scale only: a cell whose
    /// workload changed but kept its id (say an 8-rank-per-node cluster
    /// under a 2-rank cell's id) would resume from the stale marker.
    #[test]
    fn every_workload_parameter_reaches_the_id() {
        fn variants(w: &Workload) -> Vec<Workload> {
            use Workload as W;
            match w.clone() {
                W::Iperf { server_on_dimm } => vec![W::Iperf {
                    server_on_dimm: !server_on_dimm,
                }],
                W::Ping {
                    dimm_to_dimm,
                    payload,
                } => vec![
                    W::Ping {
                        dimm_to_dimm: !dimm_to_dimm,
                        payload,
                    },
                    W::Ping {
                        dimm_to_dimm,
                        payload: payload + 1,
                    },
                ],
                W::AllReduce | W::Kv => vec![],
                W::Npb {
                    name,
                    dimms,
                    host_ranks,
                    per_dimm,
                } => vec![
                    W::Npb {
                        name: format!("{name}x"),
                        dimms,
                        host_ranks,
                        per_dimm,
                    },
                    W::Npb {
                        name: name.clone(),
                        dimms: dimms + 1,
                        host_ranks,
                        per_dimm,
                    },
                    W::Npb {
                        name: name.clone(),
                        dimms,
                        host_ranks: host_ranks + 1,
                        per_dimm,
                    },
                    W::Npb {
                        name,
                        dimms,
                        host_ranks,
                        per_dimm: per_dimm + 1,
                    },
                ],
                W::NpbCluster {
                    name,
                    nodes,
                    per_node,
                } => vec![
                    W::NpbCluster {
                        name: format!("{name}x"),
                        nodes,
                        per_node,
                    },
                    W::NpbCluster {
                        name: name.clone(),
                        nodes: nodes + 1,
                        per_node,
                    },
                    W::NpbCluster {
                        name,
                        nodes,
                        per_node: per_node + 1,
                    },
                ],
                W::NpbScaleUp { name, cores } => vec![
                    W::NpbScaleUp {
                        name: format!("{name}x"),
                        cores,
                    },
                    W::NpbScaleUp {
                        name,
                        cores: cores + 1,
                    },
                ],
            }
        }
        for cell in SweepSpec::paper().cells {
            for workload in variants(&cell.workload) {
                let other = Cell {
                    workload,
                    ..cell.clone()
                };
                assert_ne!(other.id(), cell.id(), "{other:?} reuses the id of {cell:?}");
            }
        }
    }

    #[test]
    fn seeds_differ_per_cell_and_follow_sweep_seed() {
        let spec = SweepSpec::smoke();
        let a = spec.cells[0].seed(spec.seed);
        let b = spec.cells[1].seed(spec.seed);
        assert_ne!(a, b);
        assert_ne!(a, spec.cells[0].seed(spec.seed + 1));
        assert_eq!(a, spec.cells[0].seed(spec.seed), "seed derivation is pure");
    }

    #[test]
    fn config_hash_tracks_scale_and_seed() {
        let cell = Cell {
            workload: Workload::Iperf {
                server_on_dimm: false,
            },
            topology: Topology::Single,
            fault: FaultAxis::None,
            opt: OptFlags {
                level: 3,
                threads: 1,
            },
        };
        let h = cell.config_hash(7, &Scale::smoke());
        assert_eq!(h, cell.config_hash(7, &Scale::smoke()));
        assert_ne!(h, cell.config_hash(8, &Scale::smoke()));
        assert_ne!(h, cell.config_hash(7, &Scale::paper()));
    }

    #[test]
    fn parser_round_trip_and_errors() {
        let spec = SweepSpec::parse(
            "# mini\nseed = 9\nscale = smoke\nworkloads = iperf, kv\n\
             topologies = single, rack\nfaults = none, domains\nlevels = 3\nthreads = 1\n",
        )
        .expect("valid spec");
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.cells.len(), 8);
        // Expansion order: workloads outermost, faults before opts.
        assert_eq!(spec.cells[0].id(), "iperf-single-none-mcn3_t1");
        assert_eq!(spec.cells[1].id(), "iperf-single-domains-mcn3_t1");
        assert_eq!(spec.cells[4].id(), "kv-single-none-mcn3_t1");
        for bad in [
            "workloads = iperf",                       // missing axes
            "bogus = 1",                               // unknown key
            "workloads = warp\ntopologies = single\nfaults = none\nlevels = 0\nthreads = 1",
            "seed = x\nworkloads = iperf\ntopologies = single\nfaults = none\nlevels = 0\nthreads = 1",
            "levels = 9\nworkloads = iperf\ntopologies = single\nfaults = none\nthreads = 1",
            "seed = 1\nseed = 2\nworkloads = iperf\ntopologies = single\nfaults = none\nlevels = 0\nthreads = 1",
        ] {
            assert!(SweepSpec::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn support_matrix_spot_checks() {
        let mk = |workload, topology, fault, level, threads| Cell {
            workload,
            topology,
            fault,
            opt: OptFlags { level, threads },
        };
        let iperf = |server_on_dimm| Workload::Iperf { server_on_dimm };
        assert!(mk(iperf(false), Topology::Single, FaultAxis::None, 5, 1)
            .supported()
            .is_ok());
        assert!(mk(iperf(true), Topology::Single, FaultAxis::None, 5, 1)
            .supported()
            .is_ok());
        assert!(mk(Workload::Kv, Topology::Rack, FaultAxis::Domains, 3, 2)
            .supported()
            .is_ok());
        assert!(mk(Workload::Kv, Topology::Dc, FaultAxis::Outages, 3, 2)
            .supported()
            .is_ok());
        // And the documented holes.
        assert!(mk(Workload::Kv, Topology::Single, FaultAxis::None, 3, 1)
            .supported()
            .is_err());
        assert!(mk(iperf(false), Topology::Single, FaultAxis::None, 3, 2)
            .supported()
            .is_err());
        assert!(mk(iperf(false), Topology::Cluster, FaultAxis::None, 3, 1)
            .supported()
            .is_err());
        assert!(mk(iperf(true), Topology::Rack, FaultAxis::None, 3, 1)
            .supported()
            .is_err());
        assert!(mk(Workload::Kv, Topology::Dc, FaultAxis::Domains, 3, 1)
            .supported()
            .is_err());
    }
}
