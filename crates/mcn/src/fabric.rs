//! A multi-rack Clos datacenter of MCN racks: pods of aggregation
//! switches under a spine tier, with ECMP flow hashing and hierarchical
//! quantum domains.
//!
//! The paper stops at one rack (Sec. VII proposes "replacing a rack of
//! servers with MCN-enabled servers"); this module composes many
//! [`McnRack`]s into the shape the disaggregated-memory successor work
//! assumes — many hosts reaching MCN memory across a switched fabric:
//!
//! ```text
//!              spine0   spine1           (spine tier)
//!             /  |  \  /  |  \
//!        pod0.agg0  pod0.agg1   pod1.agg0  pod1.agg1
//!          /    \    /    \       /   \     /   \
//!       rack0   rack1  ...      rack2  rack3     (ToRs + servers)
//! ```
//!
//! * Every rack's ToR claims frames addressed to the well-known
//!   [gateway MAC](McnSystem::GATEWAY_MAC) and hands them up here;
//!   remote-rack `192.168.r.x` addresses resolve to that MAC through
//!   each server's `/16` gateway route.
//! * Aggregation and spine switches are first-class [`Shard`]s of the
//!   outer scheduler: each owns a serializing ingress `Pipe` whose
//!   capacity models the tier's (oversubscribed) aggregate bandwidth,
//!   plus a store-and-forward delay.
//! * Next-hop choice among equal-cost paths (which agg out of a pod,
//!   which spine) is a deterministic FNV-1a **flow hash** over the
//!   5-tuple, filtered by switch liveness — so a spine loss re-hashes
//!   exactly the affected flows onto the survivors, identically at any
//!   thread count.
//!
//! # Hierarchical quantum domains
//!
//! The datacenter runs the two-level scheme described in
//! [`mcn_sim::shard`]: the **outer** engine synchronizes racks and
//! fabric switches on the long spine-hop quantum (ToR forward +
//! fabric latency), while each rack advances its servers with its own
//! **inner** engine on the short ToR-hop quantum, driven once per outer
//! batch to exactly its end (the rack's own drive inside
//! [`Shard::run_window`]). Racks, fabric switches and the ECMP
//! coordinator form the same [`Topology`] type as a rack's servers and
//! ToR, so one driver runs both levels. Both engines export the shared
//! domain schema (`sched.domain.cross_pod.*` outer,
//! `sched.domain.intra_rack.*` accumulated inner), so a snapshot shows
//! directly that cross-pod barriers are far rarer than intra-rack
//! windows. Byte-identity at any thread count holds at every level: the
//! outer engine's barrier merge is deterministic, and each inner engine
//! runs serially inside its shard.

use std::collections::VecDeque;

use mcn_net::link::Switch;
use mcn_net::EthernetFrame;
use mcn_node::{ProcId, Process};
use mcn_sim::metrics::{Instrumented, MetricSink};
use mcn_sim::stats::Counter;
use mcn_sim::{
    fnv1a64, Component, EngineStats, EventQueue, Fabric, FaultPlan, Outbox, ParallelEngine,
    Quantum, Shard, ShardStats, SimTime,
};

use crate::block::{Member, Topology};
use crate::config::{McnConfig, SystemConfig};
use crate::outage::{self, DomainStats, Edge, OutagePlan, Part};
use crate::rack::McnRack;
use crate::system::McnSystem;

/// Shape of the Clos fabric. Total racks (`pods * racks_per_pod`) must
/// stay within the 64-rack NIC address plan; each rack within the
/// 10-server rack plan.
#[derive(Debug, Clone)]
pub struct ClosConfig {
    /// Number of pods.
    pub pods: usize,
    /// Racks per pod.
    pub racks_per_pod: usize,
    /// Servers per rack (1..=10).
    pub servers_per_rack: usize,
    /// MCN DIMMs per server.
    pub dimms_per_server: usize,
    /// Aggregation switches per pod (equal-cost paths within a pod).
    pub aggs_per_pod: usize,
    /// Spine switches (equal-cost paths between pods).
    pub spines: usize,
    /// Oversubscription ratio per tier: a switch's aggregate capacity is
    /// the tier's offered load divided by this (1.0 = non-blocking,
    /// 2.0 = classic 2:1).
    pub oversubscription: f64,
    /// One-hop fabric propagation latency (rack→agg, agg→spine, …).
    pub fabric_latency: SimTime,
}

impl Default for ClosConfig {
    /// A small 2×2 Clos: 2 pods × 2 racks × 4 servers × 1 DIMM, two
    /// aggs per pod, two spines, 2:1 oversubscribed, 5 µs hops.
    fn default() -> Self {
        ClosConfig {
            pods: 2,
            racks_per_pod: 2,
            servers_per_rack: 4,
            dimms_per_server: 1,
            aggs_per_pod: 2,
            spines: 2,
            oversubscription: 2.0,
            fabric_latency: SimTime::from_us(5),
        }
    }
}

impl ClosConfig {
    /// Total racks.
    pub fn racks(&self) -> usize {
        self.pods * self.racks_per_pod
    }

    /// Total servers.
    pub fn servers(&self) -> usize {
        self.racks() * self.servers_per_rack
    }

    /// Total fabric switches (aggs + spines).
    pub fn switches(&self) -> usize {
        self.pods * self.aggs_per_pod + self.spines
    }
}

/// A serializing one-way fabric pipe: the same transmit-serialization
/// rule as [`Link`](mcn_net::link::Link) (back-to-back frames queue
/// behind `tx_free`), used for switch ingress so a tier's aggregate
/// capacity is honoured deterministically.
#[derive(Debug)]
struct Pipe {
    bytes_per_sec: u64,
    latency: SimTime,
    tx_free: SimTime,
    /// Frames serialized.
    sent: Counter,
    /// Payload bytes serialized.
    bytes: Counter,
}

impl Pipe {
    fn new(bytes_per_sec: u64, latency: SimTime) -> Self {
        Pipe {
            bytes_per_sec: bytes_per_sec.max(1),
            latency,
            tx_free: SimTime::ZERO,
            sent: Counter::default(),
            bytes: Counter::default(),
        }
    }

    /// Accepts a frame of `wire_len` bytes at `now`; returns its arrival
    /// time at the far end (serialization + propagation).
    fn send(&mut self, wire_len: u64, now: SimTime) -> SimTime {
        let start = self.tx_free.max(now);
        let ser = SimTime::for_bytes(wire_len, self.bytes_per_sec as f64);
        self.tx_free = start + ser;
        self.sent.inc();
        self.bytes.add(wire_len);
        self.tx_free + self.latency
    }
}

impl Instrumented for Pipe {
    fn metrics(&self, out: &mut MetricSink) {
        out.counter("sent", self.sent.get());
        out.counter("bytes", self.bytes.get());
    }
}

/// FNV-1a over the flow 5-tuple (src ip, dst ip, proto, src/dst port for
/// TCP/UDP). Undecodable payloads fall back to the MAC pair. Purely a
/// function of frame bytes, so the same flow always picks the same
/// equal-cost path at any thread count.
fn flow_hash(frame: &EthernetFrame) -> u64 {
    let mut key = Vec::with_capacity(13);
    match mcn_net::Ipv4Packet::decode(&frame.payload) {
        Ok(p) => {
            let proto = p.proto.to_u8();
            key.extend(p.src.octets().into_iter().chain(p.dst.octets()));
            key.push(proto);
            if proto == 6 || proto == 17 {
                // TCP/UDP: the first four payload bytes are the ports.
                key.extend(p.payload.iter().take(4));
            }
        }
        Err(_) => key.extend(frame.src.0.iter().chain(frame.dst.0.iter())),
    }
    fnv1a64(0, &key)
}

/// The destination rack a fabric frame is headed for (third octet of
/// the NIC-plane destination address).
fn dst_rack_of(frame: &EthernetFrame) -> Option<usize> {
    let p = mcn_net::Ipv4Packet::decode(&frame.payload).ok()?;
    let o = p.dst.octets();
    (o[0] == 192 && o[1] == 168 && o[2] != 255).then_some(o[2] as usize)
}

/// A control command the datacenter coordinator hands to one shard at a
/// window boundary.
#[derive(Debug)]
pub enum DcCmd {
    /// The switch goes dark: staged frames die, arrivals are dropped.
    Down,
    /// The switch returns (with empty buffers and a cold pipe).
    Up,
}

/// One rack as an outer-level shard: the rack (with its own inner
/// engine), its fabric ingress pipe, and the latency constants the
/// emission bounds need.
#[derive(Debug)]
pub struct RackShard {
    rack: McnRack,
    /// Fabric → ToR ingress (the agg→rack downlink's share of capacity).
    ingress: Pipe,
    /// ToR store-and-forward latency (stamped on gateway claims).
    tor_fwd: SimTime,
    /// Server link propagation latency (part of the turnaround bound).
    eth_latency: SimTime,
}

impl Shard for RackShard {
    type Frame = EthernetFrame;
    type Cmd = DcCmd;

    fn next_event(&mut self) -> Option<SimTime> {
        self.rack.next_event()
    }

    fn next_emission(&mut self) -> Option<SimTime> {
        // Any gateway claim needs an inner event first, then pays the
        // ToR forward latency. Under-estimating is sound.
        self.rack.next_event().map(|t| t + self.tor_fwd)
    }

    fn turnaround(&self) -> SimTime {
        // A delivered fabric frame pays the ingress pipe's propagation,
        // one server downlink/uplink round and the ToR forward stage
        // before any response can leave; this under-estimates that path.
        self.ingress.latency + self.eth_latency + self.tor_fwd
    }

    fn apply(&mut self, _at: SimTime, _cmd: DcCmd) {
        // Rack-scale outages are pre-expanded into the rack's own
        // schedule at install time; no datacenter command targets racks.
        debug_assert!(false, "DcCmd routed to a rack shard");
    }

    fn deliver(&mut self, at: SimTime, frame: EthernetFrame) {
        let arrival = self.ingress.send(frame.wire_len() as u64, at);
        self.rack.deliver_from_fabric(arrival, frame);
    }

    fn run_window(&mut self, end: SimTime, outbox: &mut Outbox<EthernetFrame>) -> u64 {
        // Hierarchical quantum domains: the rack's inner engine runs its
        // own short-quantum windows serially up to exactly the outer
        // batch end (containment), then hands its gateway claims —
        // stamped with exact ToR-forward times — to the outer barrier
        // (monotone hand-off).
        let steps = self.rack.drive_window(end);
        for (at, frame) in self.rack.take_dc_uplink() {
            outbox.emit(at, frame);
        }
        steps
    }

    fn procs_done(&self) -> bool {
        self.rack.all_procs_done()
    }
}

/// A fabric switch (aggregation or spine) as an outer-level shard: an
/// ingress pipe modeling the tier's aggregate capacity, a
/// store-and-forward stage, and a liveness flag.
#[derive(Debug)]
pub struct SwitchShard {
    /// Registry name (`pod1.agg0`, `spine2`).
    name: String,
    alive: bool,
    ingress: Pipe,
    /// Store-and-forward latency added to every arrival.
    fwd: SimTime,
    /// Frames that cleared ingress + forwarding, in arrival order
    /// (the serializing pipe makes arrivals monotone).
    staged: VecDeque<(SimTime, EthernetFrame)>,
    /// Frames forwarded onward.
    forwarded: Counter,
    /// Frames lost because the switch was dark (arrivals while down +
    /// staged frames at the moment it went down).
    dead_drops: Counter,
}

impl Shard for SwitchShard {
    type Frame = EthernetFrame;
    type Cmd = DcCmd;

    fn next_event(&mut self) -> Option<SimTime> {
        self.staged.front().map(|&(t, _)| t)
    }

    fn next_emission(&mut self) -> Option<SimTime> {
        // The switch only ever emits staged frames; empty = provably
        // silent until the next delivery.
        self.staged.front().map(|&(t, _)| t)
    }

    fn turnaround(&self) -> SimTime {
        self.ingress.latency + self.fwd
    }

    fn apply(&mut self, _at: SimTime, cmd: DcCmd) {
        match cmd {
            DcCmd::Down => {
                self.alive = false;
                // In flight when the lights went out: lost. Transport
                // retransmits onto a surviving path after re-hash.
                self.dead_drops.add(self.staged.len() as u64);
                self.staged.clear();
            }
            DcCmd::Up => self.alive = true,
        }
    }

    fn deliver(&mut self, at: SimTime, frame: EthernetFrame) {
        if !self.alive {
            self.dead_drops.inc();
            return;
        }
        let arrival = self.ingress.send(frame.wire_len() as u64, at) + self.fwd;
        self.staged.push_back((arrival, frame));
    }

    fn run_window(&mut self, end: SimTime, outbox: &mut Outbox<EthernetFrame>) -> u64 {
        let mut steps = 0;
        while let Some(&(t, _)) = self.staged.front() {
            if t > end {
                break;
            }
            let (t, frame) = self.staged.pop_front().expect("peeked");
            self.forwarded.inc();
            steps += 1;
            outbox.emit(t, frame);
        }
        steps
    }
}

/// One outer-level shard: a whole rack or a fabric switch.
#[derive(Debug)]
pub enum DcShard {
    /// A whole rack (boxed: its inner engine dwarfs a switch shard).
    Rack(Box<RackShard>),
    /// An aggregation or spine switch.
    Switch(SwitchShard),
}

impl Shard for DcShard {
    type Frame = EthernetFrame;
    type Cmd = DcCmd;

    fn next_event(&mut self) -> Option<SimTime> {
        match self {
            DcShard::Rack(r) => r.next_event(),
            DcShard::Switch(s) => s.next_event(),
        }
    }

    fn next_emission(&mut self) -> Option<SimTime> {
        match self {
            DcShard::Rack(r) => r.next_emission(),
            DcShard::Switch(s) => s.next_emission(),
        }
    }

    fn turnaround(&self) -> SimTime {
        match self {
            DcShard::Rack(r) => r.turnaround(),
            DcShard::Switch(s) => s.turnaround(),
        }
    }

    fn apply(&mut self, at: SimTime, cmd: DcCmd) {
        match self {
            DcShard::Rack(r) => Shard::apply(&mut **r, at, cmd),
            DcShard::Switch(s) => Shard::apply(s, at, cmd),
        }
    }

    fn deliver(&mut self, at: SimTime, frame: EthernetFrame) {
        match self {
            DcShard::Rack(r) => Shard::deliver(&mut **r, at, frame),
            DcShard::Switch(s) => Shard::deliver(s, at, frame),
        }
    }

    fn run_window(&mut self, end: SimTime, outbox: &mut Outbox<EthernetFrame>) -> u64 {
        match self {
            DcShard::Rack(r) => r.run_window(end, outbox),
            DcShard::Switch(s) => s.run_window(end, outbox),
        }
    }

    fn procs_done(&self) -> bool {
        match self {
            DcShard::Rack(r) => Shard::procs_done(&**r),
            DcShard::Switch(s) => Shard::procs_done(s),
        }
    }
}

impl Member for DcShard {
    fn account(&self, _blocks: &mut Option<EngineStats>, inner: &mut Vec<(EngineStats, usize)>) {
        if let DcShard::Rack(r) = self {
            r.rack.engine_accounting(inner);
        }
    }
}

/// ECMP + fabric routing statistics (deterministic; part of the
/// byte-identity contract).
#[derive(Debug, Default)]
struct DcStats {
    /// Equal-cost next-hop decisions made.
    routed: Counter,
    /// Frames dropped because no alive equal-cost candidate remained
    /// (or the destination could not be decoded).
    dropped: Counter,
    /// Frames handed down into a destination rack.
    to_rack: Counter,
    /// Frames an agg forwarded up to the spine tier (cross-pod).
    cross_pod: Counter,
    /// Frames an agg turned around inside its pod (intra-pod).
    intra_pod: Counter,
    /// Per-switch ECMP path counters (indexed like the switch shards).
    per_switch: Vec<Counter>,
    /// Switch outages applied.
    switch_downs: Counter,
    /// Correlated failure-domain accounting.
    domains: Vec<DomainStats>,
}

/// The datacenter's coordinator: adjacency from the [`ClosConfig`],
/// ECMP over alive candidates, and the outage schedule.
#[derive(Debug)]
pub struct ClosFabric {
    clos: ClosConfig,
    /// Liveness per shard (racks always `true`; switches mirror the
    /// shard-side flag so route-time checks need no shard access).
    alive: Vec<bool>,
    /// Installed outage edges for the fabric switches (rack edges go to
    /// the racks' own schedules).
    outages: EventQueue<Edge>,
    stats: DcStats,
}

impl ClosFabric {
    /// Shard index of `pod`'s `agg`-th aggregation switch.
    fn agg_idx(&self, pod: usize, agg: usize) -> usize {
        self.clos.racks() + pod * self.clos.aggs_per_pod + agg
    }

    /// Shard index of spine `j`.
    fn spine_idx(&self, j: usize) -> usize {
        self.clos.racks() + self.clos.pods * self.clos.aggs_per_pod + j
    }

    /// Shard index of a fabric switch part.
    fn switch_idx(&self, part: Part) -> usize {
        match part {
            Part::Agg(p, a) => self.agg_idx(p, a),
            Part::Spine(j) => self.spine_idx(j),
            part => unreachable!("{part} is not a fabric switch"),
        }
    }

    /// Picks one alive candidate by flow hash and pushes the delivery;
    /// counts a drop if every candidate is dark.
    fn pick(
        &mut self,
        candidates: Vec<usize>,
        at: SimTime,
        frame: EthernetFrame,
        out: &mut Vec<(usize, SimTime, EthernetFrame)>,
    ) {
        let alive: Vec<usize> = candidates.into_iter().filter(|&c| self.alive[c]).collect();
        if alive.is_empty() {
            self.stats.dropped.inc();
            return;
        }
        let pick = alive[(flow_hash(&frame) % alive.len() as u64) as usize];
        self.stats.routed.inc();
        self.stats.per_switch[pick - self.clos.racks()].inc();
        out.push((pick, at, frame));
    }
}

impl Fabric<DcShard> for ClosFabric {
    fn next_control(&mut self) -> Option<SimTime> {
        self.outages.peek_time()
    }

    fn pop_controls(&mut self, now: SimTime, out: &mut Vec<(usize, SimTime, DcCmd)>) {
        while let Some((at, edge)) = self.outages.pop_if_due(now) {
            let at = at.max(now);
            match edge {
                Edge::DomainDown(i) => self.stats.domains[i].crashes.inc(),
                Edge::DomainUp(i) => self.stats.domains[i].heals.inc(),
                Edge::Down(part) => {
                    let sw = self.switch_idx(part);
                    self.stats.switch_downs.inc();
                    self.alive[sw] = false;
                    out.push((sw, at, DcCmd::Down));
                }
                Edge::Up(part) => {
                    let sw = self.switch_idx(part);
                    self.alive[sw] = true;
                    out.push((sw, at, DcCmd::Up));
                }
                edge => unreachable!("{edge:?} passed the datacenter's range check"),
            }
        }
    }

    fn route(
        &mut self,
        from: usize,
        at: SimTime,
        frame: EthernetFrame,
        out: &mut Vec<(usize, SimTime, EthernetFrame)>,
    ) {
        let Some(dst_rack) = dst_rack_of(&frame) else {
            self.stats.dropped.inc();
            return;
        };
        let n_racks = self.clos.racks();
        if dst_rack >= n_racks {
            self.stats.dropped.inc();
            return;
        }
        let rpp = self.clos.racks_per_pod;
        let app = self.clos.aggs_per_pod;
        if from < n_racks {
            // Rack uplink: onto one of its pod's aggs.
            let pod = from / rpp;
            let aggs: Vec<usize> = (0..app).map(|a| self.agg_idx(pod, a)).collect();
            self.pick(aggs, at, frame, out);
        } else if from < n_racks + self.clos.pods * app {
            // Aggregation switch: down into its pod, or up to a spine.
            let pod = (from - n_racks) / app;
            if dst_rack / rpp == pod {
                self.stats.intra_pod.inc();
                self.stats.to_rack.inc();
                out.push((dst_rack, at, frame));
            } else {
                self.stats.cross_pod.inc();
                let spines: Vec<usize> = (0..self.clos.spines).map(|j| self.spine_idx(j)).collect();
                self.pick(spines, at, frame, out);
            }
        } else {
            // Spine: down to the destination pod's aggs.
            let pod = dst_rack / rpp;
            let aggs: Vec<usize> = (0..app).map(|a| self.agg_idx(pod, a)).collect();
            self.pick(aggs, at, frame, out);
        }
    }
}

/// A Clos datacenter of MCN racks: pods of aggregation switches under a
/// spine tier, with ECMP flow hashing over alive equal-cost switches.
///
/// Racks and fabric switches are the shards of an outer engine that
/// synchronizes on the spine-hop quantum (ToR forward + fabric latency);
/// each rack runs its servers with its own inner engine on the ToR-hop
/// quantum, once per outer batch. The clock and drive methods (`now`,
/// `quantum`, `next_event`, `all_procs_done`, `run_parallel`,
/// `run_parallel_until`) are the ones every topology shares; `quantum`
/// is the outer one. Results are byte-identical at any thread count.
pub type Datacenter = Topology<DcShard, ClosFabric>;

impl Datacenter {
    /// Builds the fabric of `clos` with every server at optimisation
    /// level `cfg`.
    pub fn new(sys: &SystemConfig, cfg: McnConfig, clos: &ClosConfig) -> Self {
        Self::with_faults(sys, cfg, clos, &FaultPlan::default())
    }

    /// [`new`](Self::new) with a deterministic [`FaultPlan`] shared by
    /// every server (fault component names are per-server, so one plan
    /// reaches any server of any rack).
    pub fn with_faults(
        sys: &SystemConfig,
        cfg: McnConfig,
        clos: &ClosConfig,
        plan: &FaultPlan,
    ) -> Self {
        assert!(
            clos.pods >= 1 && clos.racks_per_pod >= 1,
            "need at least one rack"
        );
        assert!(clos.racks() <= 64, "NIC MAC plan supports 64 racks");
        assert!(
            (1..=10).contains(&clos.servers_per_rack),
            "address plan supports 1-10 servers per rack"
        );
        assert!(
            clos.aggs_per_pod >= 1 && clos.spines >= 1,
            "need switches on both tiers"
        );
        assert!(
            clos.oversubscription >= 1.0,
            "oversubscription is a ratio >= 1"
        );
        let n_racks = clos.racks();
        // The ToR parameters every rack shares (the fabric reuses the
        // same store-and-forward stage for its own switches).
        let tor_fwd = Switch::new(clos.servers_per_rack).forward_latency;
        // Aggregate capacity per tier: offered load over oversubscription,
        // split across the tier's equal-cost switches.
        let rack_load = clos.servers_per_rack as f64 * sys.eth_bytes_per_sec;
        let rack_bps = (rack_load / clos.oversubscription) as u64;
        let agg_bps = (rack_load * clos.racks_per_pod as f64
            / (clos.oversubscription * clos.aggs_per_pod as f64)) as u64;
        let spine_bps = (rack_load * n_racks as f64
            / (clos.oversubscription * clos.oversubscription * clos.spines as f64))
            as u64;
        let mut shards = Vec::with_capacity(n_racks + clos.switches());
        for r in 0..n_racks {
            let rack = McnRack::new_in_dc(
                sys,
                clos.servers_per_rack,
                clos.dimms_per_server,
                cfg,
                plan,
                r,
            );
            shards.push(DcShard::Rack(Box::new(RackShard {
                rack,
                ingress: Pipe::new(rack_bps, clos.fabric_latency),
                tor_fwd,
                eth_latency: sys.eth_latency,
            })));
        }
        let mut per_switch = Vec::new();
        for p in 0..clos.pods {
            for a in 0..clos.aggs_per_pod {
                shards.push(DcShard::Switch(SwitchShard {
                    name: Part::Agg(p, a).to_string(),
                    alive: true,
                    ingress: Pipe::new(agg_bps, clos.fabric_latency),
                    fwd: tor_fwd,
                    staged: VecDeque::new(),
                    forwarded: Counter::default(),
                    dead_drops: Counter::default(),
                }));
                per_switch.push(Counter::default());
            }
        }
        for j in 0..clos.spines {
            shards.push(DcShard::Switch(SwitchShard {
                name: Part::Spine(j).to_string(),
                alive: true,
                ingress: Pipe::new(spine_bps, clos.fabric_latency),
                fwd: tor_fwd,
                staged: VecDeque::new(),
                forwarded: Counter::default(),
                dead_drops: Counter::default(),
            }));
            per_switch.push(Counter::default());
        }
        let alive = vec![true; shards.len()];
        // The outer quantum: the fastest cross-shard path is one ToR
        // forward stage plus one fabric-hop propagation delay.
        let quantum = Quantum::from_path(tor_fwd, clos.fabric_latency);
        let coord = ClosFabric {
            clos: clos.clone(),
            alive,
            outages: EventQueue::new(),
            stats: DcStats {
                per_switch,
                ..DcStats::default()
            },
        };
        Topology::assemble(shards, coord, quantum)
    }

    /// Installs a hard-outage [plan](OutagePlan). A datacenter has
    /// [`Part::Spine`] and [`Part::Agg`] (the fabric switch goes dark and
    /// ECMP re-hashes flows onto the survivors) and [`Part::Rack`] (every
    /// server of the rack reboots at once, through the rack's own
    /// schedule), plus failure domains over these — e.g. a
    /// pod breaker felling both aggs and a rack — counted under
    /// `fabric.outage.domain.<name>.*`. Chaos inside one rack goes
    /// through [`McnRack::set_outage_plan`] on [`rack_mut`](Self::rack_mut).
    ///
    /// # Panics
    ///
    /// Panics, naming it, on a part or domain member this datacenter does
    /// not have.
    pub fn set_outage_plan(&mut self, plan: &OutagePlan) {
        let clos = &self.coord.clos;
        let aggs =
            (0..clos.pods).flat_map(|p| (0..clos.aggs_per_pod).map(move |a| Part::Agg(p, a)));
        let parts: Vec<Part> = (0..clos.spines)
            .map(Part::Spine)
            .chain(aggs)
            .chain((0..clos.racks()).map(Part::Rack))
            .collect();
        let domains = Some(&mut self.coord.stats.domains);
        for (t, edge) in outage::expand(plan, "datacenter", &parts, domains) {
            match edge {
                Edge::Down(Part::Rack(r)) => self.rack_mut(r).schedule_every_node(t, Edge::Down),
                Edge::Up(Part::Rack(r)) => self.rack_mut(r).schedule_every_node(t, Edge::Up),
                edge => self.coord.outages.schedule(t, edge),
            }
        }
    }

    /// The fabric shape.
    pub fn clos(&self) -> &ClosConfig {
        &self.coord.clos
    }

    /// Number of racks.
    pub fn racks(&self) -> usize {
        self.coord.clos.racks()
    }

    /// Access rack `r`.
    pub fn rack(&self, r: usize) -> &McnRack {
        match &self.shards[r] {
            DcShard::Rack(rs) => &rs.rack,
            DcShard::Switch(_) => unreachable!("rack shards are first"),
        }
    }

    /// Mutable access to rack `r` (spawn work, open sockets, install
    /// rack-local chaos). The rack's server accessors clear the cached
    /// next event of the server block they hand out, so the next window
    /// sees the change.
    pub fn rack_mut(&mut self, r: usize) -> &mut McnRack {
        match &mut self.shards[r] {
            DcShard::Rack(rs) => &mut rs.rack,
            DcShard::Switch(_) => unreachable!("rack shards are first"),
        }
    }

    /// Access server `s` of rack `r`.
    pub fn server(&self, r: usize, s: usize) -> &McnSystem {
        self.rack(r).server(s)
    }

    /// Mutable access to server `s` of rack `r`.
    pub fn server_mut(&mut self, r: usize, s: usize) -> &mut McnSystem {
        self.rack_mut(r).server_mut(s)
    }

    /// Checks the ECMP accounting identity: every routed frame took
    /// exactly one fabric switch, so `fabric.ecmp.routed` equals the sum
    /// of `fabric.ecmp.path.*`.
    ///
    /// # Errors
    ///
    /// Returns the broken identity, naming both counts.
    pub fn check_ecmp(&self) -> Result<(), String> {
        let stats = &self.coord.stats;
        let paths: u64 = stats.per_switch.iter().map(Counter::get).sum();
        let routed = stats.routed.get();
        if routed == paths {
            return Ok(());
        }
        Err(format!(
            "ECMP accounting broken: routed {routed} != per-path sum {paths}"
        ))
    }

    /// Spawns a process on a host core of server `s` in rack `r`.
    pub fn spawn_host(
        &mut self,
        r: usize,
        s: usize,
        proc: Box<dyn Process>,
        core: usize,
    ) -> ProcId {
        self.server_mut(r, s).spawn_host(proc, core)
    }
}

impl Instrumented for Datacenter {
    /// The whole datacenter tree: each rack's full registry under
    /// `rack{r}.*` (identical to its standalone paths), the fabric layer
    /// under `fabric.*` (ECMP decisions, per-switch counters, outage
    /// domains), the outer scheduler under `sched.*`, and the two
    /// hierarchical quantum domains under `sched.domain.{cross_pod,
    /// intra_rack}.*` (outer barriers vs accumulated inner windows).
    fn metrics(&self, out: &mut MetricSink) {
        let stats = &self.coord.stats;
        out.counter("now_ps", self.now.as_ps());
        out.scoped("fabric", |out| {
            out.scoped("ecmp", |out| {
                out.counter("routed", stats.routed.get());
                out.counter("dropped", stats.dropped.get());
                for (i, c) in stats.per_switch.iter().enumerate() {
                    let DcShard::Switch(sw) = &self.shards[self.racks() + i] else {
                        unreachable!("switch shards follow the racks");
                    };
                    out.counter(&format!("path.{}", sw.name), c.get());
                }
            });
            out.counter("to_rack", stats.to_rack.get());
            out.counter("cross_pod", stats.cross_pod.get());
            out.counter("intra_pod", stats.intra_pod.get());
            out.counter("switch_downs", stats.switch_downs.get());
            for s in &self.shards {
                if let DcShard::Switch(sw) = s {
                    out.scoped(&sw.name, |out| {
                        out.counter("forwarded", sw.forwarded.get());
                        out.counter("dead_drops", sw.dead_drops.get());
                        out.absorb("pipe", &sw.ingress);
                    });
                }
            }
            for d in &stats.domains {
                out.absorb(&format!("outage.domain.{}", d.name), d);
            }
        });
        for (r, s) in self.shards.iter().enumerate() {
            if let DcShard::Rack(rs) = s {
                out.absorb(&format!("rack{r}"), &rs.rack);
                out.scoped(&format!("rack{r}"), |out| {
                    out.absorb("fabric_ingress", &rs.ingress);
                });
            }
        }
        out.scoped("sched", |out| {
            self.sched.metrics(out);
            // The hierarchical quantum domains: the outer engine is the
            // cross-pod domain; every rack's inner engine folds into one
            // intra-rack domain.
            self.sched.domain_metrics("cross_pod", out);
            let mut acc = ShardStats::default();
            for s in &self.shards {
                if let DcShard::Rack(rs) = s {
                    acc.accumulate(&rs.rack.sched.stats);
                }
            }
            let rack_quantum = self.rack(0).quantum();
            ParallelEngine::domain_metrics_for("intra_rack", rack_quantum, &acc, out);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcn_sim::MetricsSnapshot;

    fn mk(clos: &ClosConfig) -> Datacenter {
        Datacenter::new(&SystemConfig::default(), McnConfig::level(3), clos)
    }

    #[test]
    fn flow_hash_is_a_pure_function_of_the_flow() {
        let pkt = mcn_net::Ipv4Packet::new(
            std::net::Ipv4Addr::new(192, 168, 0, 1),
            std::net::Ipv4Addr::new(192, 168, 3, 2),
            mcn_net::IpProto::Tcp,
            7,
            bytes::Bytes::from_static(&[0x1F, 0x40, 0x23, 0x28, 1, 2, 3]),
        );
        let f = EthernetFrame::ipv4(
            McnSystem::GATEWAY_MAC,
            McnSystem::nic_mac_in(0, 0),
            pkt.encode().into(),
        );
        assert_eq!(flow_hash(&f), flow_hash(&f.clone()));
        // A different source port moves the hash (with overwhelming
        // probability for FNV over one changed byte).
        let pkt2 = mcn_net::Ipv4Packet {
            payload: bytes::Bytes::from_static(&[0x1F, 0x41, 0x23, 0x28, 1, 2, 3]),
            ..pkt
        };
        let f2 = EthernetFrame::ipv4(
            McnSystem::GATEWAY_MAC,
            McnSystem::nic_mac_in(0, 0),
            pkt2.encode().into(),
        );
        assert_ne!(flow_hash(&f), flow_hash(&f2));
    }

    #[test]
    fn cross_rack_tcp_through_the_fabric() {
        // Host process on rack 0 ↔ host listener on rack 3 (different
        // pods): the path crosses agg → spine → agg.
        let clos = ClosConfig::default(); // 2 pods × 2 racks × 4 servers
        let mut dc = mk(&clos);
        let dst_ip = McnSystem::nic_ip_in(3, 0);
        let lst = dc.server_mut(3, 0).host.stack.tcp_listen(9000).unwrap();
        let cs = dc
            .server_mut(0, 0)
            .host
            .stack
            .tcp_connect(dst_ip, 9000, SimTime::ZERO)
            .unwrap();
        dc.run_parallel_until(SimTime::from_ms(10), 1);
        assert_eq!(
            dc.server(0, 0).host.stack.tcp_state(cs),
            mcn_net::tcp::TcpState::Established,
            "handshake across two pods"
        );
        assert!(dc.server_mut(3, 0).host.stack.tcp_accept(lst).is_some());
        let snap = MetricsSnapshot::collect(&dc);
        assert!(snap.get_u64("fabric.ecmp.routed") > 0, "ECMP engaged");
        dc.check_ecmp().unwrap();
        dc.coord.stats.routed.inc(); // a decision no path counted
        assert!(dc.check_ecmp().unwrap_err().contains("routed"));
        assert!(snap.get_u64("fabric.cross_pod") > 0, "spine tier crossed");
        assert!(
            snap.get_u64("sched.domain.cross_pod.barriers")
                < snap.get_u64("sched.domain.intra_rack.windows"),
            "hierarchical quanta engaged"
        );
    }

    #[test]
    fn spine_loss_reroutes_flows_onto_survivors() {
        let clos = ClosConfig::default();
        let mut dc = mk(&clos);
        let mut plan = OutagePlan::new(3);
        plan.down(Part::Spine(0), SimTime::ZERO, SimTime::from_ms(50));
        dc.set_outage_plan(&plan);
        let dst_ip = McnSystem::nic_ip_in(2, 1);
        dc.server_mut(2, 1).host.stack.tcp_listen(9100).unwrap();
        let cs = dc
            .server_mut(0, 0)
            .host
            .stack
            .tcp_connect(dst_ip, 9100, SimTime::ZERO)
            .unwrap();
        dc.run_parallel_until(SimTime::from_ms(10), 1);
        assert_eq!(
            dc.server(0, 0).host.stack.tcp_state(cs),
            mcn_net::tcp::TcpState::Established,
            "connection survives with one spine dark"
        );
        let snap = MetricsSnapshot::collect(&dc);
        assert_eq!(
            snap.get_u64("fabric.ecmp.path.spine0"),
            0,
            "dark spine unused"
        );
        assert!(
            snap.get_u64("fabric.ecmp.path.spine1") > 0,
            "survivor carried flows"
        );
        assert_eq!(snap.get_u64("fabric.switch_downs"), 1);
    }

    #[test]
    #[should_panic(expected = "member 'spine9' names no component of this datacenter")]
    fn domain_with_unknown_member_panics_at_install() {
        let mut dc = mk(&ClosConfig::default());
        let mut plan = OutagePlan::new(5);
        plan.define_domain("bogus", &[Part::Spine(9)]);
        plan.domain_crash("bogus", SimTime::from_us(1), SimTime::from_us(1));
        dc.set_outage_plan(&plan);
    }
}
