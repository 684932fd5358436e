//! A rack of MCN-enabled servers joined by conventional 10GbE NICs and a
//! top-of-rack switch, and the ToR coordinator the 10GbE cluster shares.
//!
//! The paper's network organisation "supports the communication between
//! MCN nodes connected to different hosts by having the source host forward
//! the packet to the host of the destination MCN node through a
//! conventional NIC" (Sec. III-B, forwarding case F4), and Sec. VII
//! proposes replacing a rack of servers with MCN-enabled servers. This
//! module makes F4 functional: an MCN node sending to an address that
//! matches no local interface emits a frame with the "external" MAC; the
//! host forwarding engine classifies it F4 and hands it to the NIC; the
//! destination host receives it and injects it into its own MCN fabric.
//!
//! # Execution model
//!
//! [`McnRack`] is the [`Topology`] of server blocks under a [`Tor`]: each
//! block (the [`McnSystem`], its NIC, and its up/down links) is one
//! [`EndpointBlock`] shard of the quantum-synchronized scheduler in
//! [`mcn_sim::shard`]. The ToR switch is the only cross-shard boundary,
//! and any frame leaving a server pays the switch forwarding latency plus
//! the downlink propagation latency before it can touch another server —
//! that path is the synchronization [`Quantum`]. The same windowed
//! algorithm drives the rack whether `run_parallel` is given one thread
//! or many, so serial and parallel runs produce byte-identical metric
//! snapshots. The baseline [`EthernetCluster`](crate::EthernetCluster) is
//! the same topology over plain nodes: with no outage plan, no partition
//! and no fabric uplink, the [`Tor`] forwards exactly what a bare
//! learning switch does.
//!
//! # Datacenter mode
//!
//! Inside a [`Datacenter`](crate::Datacenter) the rack gains a fabric
//! uplink: frames the host stacks resolve to the well-known
//! [gateway MAC](McnSystem::GATEWAY_MAC) (remote-rack `192.168.r.x`
//! addresses, via the `/16` gateway route) are claimed at the ToR and
//! handed upward instead of being switched locally, and frames arriving
//! from the fabric are re-addressed to the owning server's NIC and sent
//! down its link. A standalone rack never sees either path.

use mcn_net::link::{Link, Switch};
use mcn_net::EthernetFrame;
use mcn_node::nic::{Nic, NIC_WAITER};
use mcn_node::{MemorySystem, ProcId, Process};
use mcn_sim::metrics::{Instrumented, MetricSink};
use mcn_sim::stats::Counter;
use mcn_sim::{
    Component, ComponentExt, EngineStats, EventQueue, Fabric, FaultPlan, Quantum, Shard, SimTime,
    StallReport,
};

use crate::block::{BlockCmd, Endpoint, EndpointBlock, Topology};
use crate::config::{McnConfig, SystemConfig};
use crate::outage::{self, DomainStats, Edge, OutagePlan, Part};
use crate::system::McnSystem;

/// Rack-layer outage statistics.
#[derive(Debug, Default)]
pub struct RackStats {
    /// Frames the partitioned switch refused to forward.
    pub partition_drops: Counter,
    /// Frames lost on a severed server uplink (routed towards it while
    /// down; each block also counts its own local drops).
    pub uplink_drops: Counter,
    /// Uplink outages applied.
    pub link_downs: Counter,
    /// Switch partitions applied.
    pub partitions: Counter,
    /// Whole-node reboots applied.
    pub node_reboots: Counter,
    /// Frames the ToR handed up to the datacenter fabric.
    pub fabric_tx: Counter,
    /// Fabric frames delivered down into this rack.
    pub fabric_rx: Counter,
    /// Fabric-bound or fabric-delivered frames with nowhere to go
    /// (standalone rack, unknown owner, undecodable payload).
    pub fabric_drops: Counter,
    /// Correlated failure-domain accounting.
    pub domains: Vec<DomainStats>,
}

/// The machine behind one rack shard: an [`McnSystem`] and its
/// conventional NIC. The wire machinery (links, event pump, emission
/// bounds) is the shared [`EndpointBlock`].
#[derive(Debug)]
pub struct McnEndpoint {
    /// This block's server index (for F4 source addressing).
    id: usize,
    /// This rack's id in the datacenter address plan (0 standalone).
    rack_id: usize,
    /// Rack size (for the F4 owner lookup).
    n_servers: usize,
    /// Whether a Clos fabric sits above the ToR: remote-rack addresses
    /// escape via the gateway MAC instead of being dropped.
    dc_mode: bool,
    pub(crate) sys: McnSystem,
    pub(crate) nic: Nic,
    /// F4 frames the NIC never saw: undecodable, or addressed outside
    /// the rack and its fabric.
    f4_unroutable: Counter,
    /// Frames the NIC delivered whose payload is not an IPv4 packet.
    rx_undecodable: Counter,
}

/// Who owns `ip` under the rack address plan? Remote racks' NIC
/// addresses (`192.168.r.x` with `r != rack_id`) are *not* owned — they
/// belong to the fabric.
fn owner_of(ip: std::net::Ipv4Addr, rack_id: usize, n_servers: usize) -> Option<usize> {
    let o = ip.octets();
    if o[0] == 192 && o[1] == 168 {
        if o[2] as usize != rack_id {
            return None; // remote rack, or the gateway plane
        }
        let s = (o[3] as usize).checked_sub(1)?;
        return (s < n_servers).then_some(s);
    }
    if o[0] == 10 && o[1] >= 1 {
        let s = (o[1] as usize - 1) / 24;
        return (s < n_servers).then_some(s);
    }
    None
}

/// The remote rack `ip` belongs to, if it is a NIC-plane address of a
/// rack other than `rack_id` (the gateway subnet `192.168.255.0/24` and
/// network addresses are excluded).
fn remote_rack_of(ip: std::net::Ipv4Addr, rack_id: usize) -> Option<usize> {
    let o = ip.octets();
    (o[0] == 192 && o[1] == 168 && o[2] != 255 && o[2] as usize != rack_id && o[3] >= 1)
        .then_some(o[2] as usize)
}

impl Endpoint for McnEndpoint {
    // Unflagged: the block calls this in every round, and the server's
    // job watermark catches each DMA the NIC starts.
    fn wire(&mut self) -> (&mut Nic, &mut MemorySystem) {
        (&mut self.nic, self.sys.host.mem_unflagged())
    }

    fn nic(&self) -> &Nic {
        &self.nic
    }

    fn advance_pre(&mut self, t: SimTime) -> bool {
        let mut changed = false;
        // Fold the server's own activity into the convergence flag so
        // `rounds` counts real work (the internal advance runs to its own
        // fixed point and reports Idle once quiescent, so this cannot
        // livelock the loop in `run_window`).
        if self.sys.advance(t).is_active() {
            changed = true;
        }
        // NIC DMA completions the server collected for us.
        for (waiter, job) in std::mem::take(&mut self.sys.foreign_jobs) {
            debug_assert_eq!(waiter, NIC_WAITER);
            let host = &mut *self.sys.host;
            self.nic
                .on_job_done(job, t, &mut host.cpus, &host.cost, false);
            changed = true;
        }
        // F4 frames → NIC transmit, addressed to the owning server (or
        // to the datacenter gateway when the owner lives in another
        // rack and a fabric exists to carry the frame there).
        for mut frame in std::mem::take(&mut self.sys.external_out) {
            changed = true;
            let Some(dst_ip) = mcn_net::Ipv4Packet::decode(&frame.payload)
                .ok()
                .map(|p| p.dst)
            else {
                self.f4_unroutable.inc();
                continue;
            };
            let dst_mac = match owner_of(dst_ip, self.rack_id, self.n_servers) {
                Some(owner) => McnSystem::nic_mac_in(self.rack_id, owner),
                None if self.dc_mode && remote_rack_of(dst_ip, self.rack_id).is_some() => {
                    McnSystem::GATEWAY_MAC
                }
                None => {
                    // Truly external: leaves the world (dropped).
                    self.f4_unroutable.inc();
                    continue;
                }
            };
            frame.dst = dst_mac;
            frame.src = McnSystem::nic_mac_in(self.rack_id, self.id);
            let host = &mut *self.sys.host;
            let core = host.cpus.least_loaded();
            self.nic.xmit(frame, t, core, &mut host.cpus, &host.cost);
        }
        changed
    }

    fn advance_post(&mut self, _t: SimTime) -> bool {
        // The McnSystem's own advance (in `advance_pre` next round)
        // covers stack service and processes; nothing extra here.
        false
    }

    fn rx(&mut self, frame: EthernetFrame, t: SimTime) {
        if !self.sys.ingress_external(frame, t) {
            self.rx_undecodable.inc();
        }
    }

    fn next_wakeup(&mut self) -> Option<SimTime> {
        self.sys.next_event()
    }

    fn fast_forward(&mut self, limit: SimTime) -> (u64, SimTime) {
        (self.sys.fast_forward(limit), self.sys.now())
    }

    fn apply(&mut self, at: SimTime, cmd: BlockCmd) {
        match cmd {
            BlockCmd::DimmCrash(d) => self.sys.crash_dimm(d, at),
            BlockCmd::DimmPowerOn(d) => self.sys.power_on_dimm(d, at),
            BlockCmd::NodeDown => (0..self.sys.dimms()).for_each(|d| self.sys.crash_dimm(d, at)),
            BlockCmd::NodeUp => (0..self.sys.dimms()).for_each(|d| self.sys.power_on_dimm(d, at)),
            BlockCmd::LinkDown | BlockCmd::LinkUp => {}
        }
    }

    fn engine_accounting(&self, out: &mut Vec<(EngineStats, usize)>) {
        self.sys.engine_accounting(out);
    }

    fn procs_done(&self) -> bool {
        self.sys.all_procs_done()
    }

    fn stall_panic(&self, _t: SimTime) -> String {
        format!("{}", self.sys.stall_report("server block did not converge"))
    }
}

/// The top-of-rack coordinator: the learning switch, the outage
/// schedule, and the partition / carrier state routing consults. It is
/// the ToR's admission policy (partitions, severed uplinks and, in
/// datacenter mode, the fabric gateway) and the rack engine's
/// [`Fabric`]; the 10GbE cluster uses it with none of these installed.
#[derive(Debug)]
pub struct Tor {
    pub(crate) switch: Switch,
    /// This rack's id in the datacenter address plan (0 standalone).
    rack_id: usize,
    /// Installed outage edges (crashes, partitions, reboots).
    outages: EventQueue<Edge>,
    /// Port groups while partitioned (a server in no group is in group
    /// 0; in several, the last one counts); `None` = fully connected.
    partition: Option<Vec<Vec<usize>>>,
    /// Per-port uplink carrier (false = severed); authoritative copy
    /// for route-time checks, mirrored into the blocks for poll-time.
    link_up: Vec<bool>,
    stats: RackStats,
    /// Datacenter mode only: frames claimed by the gateway since the
    /// last [`McnRack::take_dc_uplink`], with their cleared-the-ToR
    /// timestamps.
    dc_uplink: Option<Vec<(SimTime, EthernetFrame)>>,
}

impl Tor {
    /// Admission check for egress port `to` on a frame that arrived on
    /// `from`; `false` drops the copy (partition, dead uplink).
    fn admit(&mut self, from: usize, to: usize) -> bool {
        if let Some(groups) = &self.partition {
            let group = |s: usize| groups.iter().rposition(|g| g.contains(&s)).unwrap_or(0);
            if group(to) != group(from) {
                // Partitioned: the switch has no path between the
                // groups. Silent loss, exactly like a real fabric.
                self.stats.partition_drops.inc();
                return false;
            }
        }
        if !self.link_up[to] {
            self.stats.uplink_drops.inc();
            return false;
        }
        true
    }
}

impl<E: Endpoint> Fabric<EndpointBlock<E>> for Tor {
    fn next_control(&mut self) -> Option<SimTime> {
        self.outages.peek_time()
    }

    fn pop_controls(&mut self, now: SimTime, out: &mut Vec<(usize, SimTime, BlockCmd)>) {
        while let Some((at, edge)) = self.outages.pop_if_due(now) {
            let at = at.max(now);
            match edge {
                Edge::DomainDown(i) => self.stats.domains[i].crashes.inc(),
                Edge::DomainUp(i) => self.stats.domains[i].heals.inc(),
                Edge::Partition(groups) => {
                    self.stats.partitions.inc();
                    self.partition = Some(groups);
                }
                Edge::Up(Part::Switch) => self.partition = None,
                Edge::Down(Part::Dimm(s, d)) => out.push((s, at, BlockCmd::DimmCrash(d))),
                Edge::Up(Part::Dimm(s, d)) => out.push((s, at, BlockCmd::DimmPowerOn(d))),
                Edge::Down(Part::Link(s)) => {
                    self.stats.link_downs.inc();
                    self.link_up[s] = false;
                    out.push((s, at, BlockCmd::LinkDown));
                }
                Edge::Up(Part::Link(s)) => {
                    self.link_up[s] = true;
                    out.push((s, at, BlockCmd::LinkUp));
                }
                Edge::Down(Part::Node(s)) => {
                    self.stats.node_reboots.inc();
                    self.stats.link_downs.inc();
                    self.link_up[s] = false;
                    out.push((s, at, BlockCmd::NodeDown));
                }
                Edge::Up(Part::Node(s)) => {
                    self.link_up[s] = true;
                    out.push((s, at, BlockCmd::NodeUp));
                }
                edge => unreachable!("{edge:?} passed the rack's range check"),
            }
        }
    }

    /// Store-and-forward latency, then either the datacenter gateway
    /// claims the frame (it leaves the rack) or the learning switch picks
    /// egress ports, each gated by [`admit`](Tor::admit).
    fn route(
        &mut self,
        from: usize,
        at: SimTime,
        frame: EthernetFrame,
        out: &mut Vec<(usize, SimTime, EthernetFrame)>,
    ) {
        let fwd_at = at + self.switch.forward_latency;
        if frame.dst == McnSystem::GATEWAY_MAC {
            match &mut self.dc_uplink {
                Some(up) => {
                    self.stats.fabric_tx.inc();
                    up.push((fwd_at, frame));
                }
                // Standalone rack: there is nothing above the ToR; the
                // frame leaves the simulated world.
                None => self.stats.fabric_drops.inc(),
            }
            return;
        }
        for p in self.switch.route(&frame, from) {
            if self.admit(from, p) {
                out.push((p, fwd_at, frame.clone()));
            }
        }
    }
}

impl<E: Endpoint> Topology<EndpointBlock<E>, Tor> {
    /// `machines` on one ToR, each behind its own uplink and downlink at
    /// the configured 10GbE bandwidth and latency. `dc` opens the
    /// fabric uplink of rack `rack_id` of a datacenter.
    pub(crate) fn switched(sys: &SystemConfig, machines: Vec<E>, rack_id: usize, dc: bool) -> Self {
        let n = machines.len();
        let switch = Switch::new(n.max(1));
        // The dist-gem5 quantum: the fastest cross-shard path is switch
        // store-and-forward plus one downlink propagation delay.
        let quantum = Quantum::from_path(switch.forward_latency, sys.eth_latency);
        let tor = Tor {
            switch,
            rack_id,
            outages: EventQueue::new(),
            partition: None,
            link_up: vec![true; n],
            stats: RackStats::default(),
            dc_uplink: dc.then(Vec::new),
        };
        let mk_link = || Link::new(sys.eth_bytes_per_sec, sys.eth_latency);
        let blocks = machines
            .into_iter()
            .map(|m| EndpointBlock::new(m, mk_link(), mk_link()))
            .collect();
        Topology::assemble(blocks, tor, quantum)
    }

    /// Number of machines.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True for a topology without machines (never constructed).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }
}

/// A rack: N MCN servers, one ToR switch.
///
/// Shard `s` of the windowed scheduler is the whole per-server block:
/// the server, its NIC, and its up/down links. The switch and the
/// outage schedule live on the coordinator and run only at barriers.
/// The clock and drive methods (`now`, `quantum`, `next_event`,
/// `all_procs_done`, `run_parallel`, `run_parallel_until`, `len`) are
/// the ones every topology shares.
pub type McnRack = Topology<EndpointBlock<McnEndpoint>, Tor>;

impl McnRack {
    /// Builds `n_servers` servers of `dimms_per_server` DIMMs each at the
    /// given optimisation level, fully routed.
    pub fn new(
        sys: &SystemConfig,
        n_servers: usize,
        dimms_per_server: usize,
        cfg: McnConfig,
    ) -> Self {
        Self::with_faults(sys, n_servers, dimms_per_server, cfg, &FaultPlan::default())
    }

    /// Like [`new`](Self::new), but every server shares the same
    /// deterministic [`FaultPlan`] (component names are already
    /// per-server — `srv{s}.alert`, `srv{s}.dma`, `srv{s}.sram.*` — so
    /// one plan can target any server in the rack).
    pub fn with_faults(
        sys: &SystemConfig,
        n_servers: usize,
        dimms_per_server: usize,
        cfg: McnConfig,
        plan: &FaultPlan,
    ) -> Self {
        Self::build(sys, n_servers, dimms_per_server, cfg, plan, 0, false)
    }

    /// Builds rack `rack_id` of a datacenter: NIC addresses shift into
    /// the rack's `/24`, every server gets the `/16` gateway route, and
    /// the ToR claims gateway-bound frames onto the fabric uplink.
    pub(crate) fn new_in_dc(
        sys: &SystemConfig,
        n_servers: usize,
        dimms_per_server: usize,
        cfg: McnConfig,
        plan: &FaultPlan,
        rack_id: usize,
    ) -> Self {
        Self::build(sys, n_servers, dimms_per_server, cfg, plan, rack_id, true)
    }

    fn build(
        sys: &SystemConfig,
        n_servers: usize,
        dimms_per_server: usize,
        cfg: McnConfig,
        plan: &FaultPlan,
        rack_id: usize,
        dc: bool,
    ) -> Self {
        assert!(
            (1..=10).contains(&n_servers),
            "address plan supports 1-10 servers"
        );
        assert!(rack_id < 64, "NIC MAC plan supports 64 racks");
        let mut servers: Vec<McnSystem> = (0..n_servers)
            .map(|s| {
                let mut m =
                    McnSystem::with_faults_in_dc(sys, dimms_per_server, cfg, rack_id, s, plan);
                m.attach_nic_iface();
                if dc {
                    // /16 towards the fabric; the /32 same-rack routes
                    // below win by longest-prefix match.
                    m.add_dc_gateway_route();
                }
                m
            })
            .collect();
        // Cross-server routes: every remote MCN-node and host-side address
        // routes out the NIC towards the owning server's NIC.
        for (s, srv) in servers.iter_mut().enumerate() {
            for r in 0..n_servers {
                if r == s {
                    continue;
                }
                let gw = McnSystem::nic_ip_in(rack_id, r);
                let gw_mac = McnSystem::nic_mac_in(rack_id, r);
                for d in 0..dimms_per_server {
                    let dimm_ip = crate::McnDimm::ip_for(r, d);
                    let host_if = McnSystem::host_if_ip_for(r, d);
                    srv.add_remote_route(dimm_ip, gw, gw_mac);
                    srv.add_remote_route(host_if, gw, gw_mac);
                }
                srv.add_remote_route(gw, gw, gw_mac);
            }
        }
        let endpoints = servers
            .into_iter()
            .enumerate()
            .map(|(id, sys)| McnEndpoint {
                id,
                rack_id,
                n_servers,
                dc_mode: dc,
                sys,
                nic: Nic::new(),
                f4_unroutable: Counter::default(),
                rx_undecodable: Counter::default(),
            })
            .collect();
        Topology::switched(sys, endpoints, rack_id, dc)
    }

    /// Installs a hard-outage [plan](OutagePlan). A rack has
    /// [`Part::Dimm`] (the host↔DIMM re-init handshake heals a crashed
    /// DIMM), [`Part::Link`] (the ToR uplink is severed), [`Part::Node`]
    /// (uplink down and every DIMM crashed) and [`Part::Switch`] (servers
    /// reach only their own partition group until `heal_at`; a server in
    /// no group counts as group 0), plus failure domains over all of
    /// these but the switch.
    ///
    /// Edges land at window boundaries on the coordinator, so a domain
    /// flips atomically and deterministically at any thread count.
    /// Per-domain accounting is exported as
    /// `rack.outage.domain.<name>.{crashes,heals}`.
    ///
    /// # Panics
    ///
    /// Panics, naming it, on a part or domain member this rack does not
    /// have.
    pub fn set_outage_plan(&mut self, plan: &OutagePlan) {
        let mut parts = Vec::new();
        for (s, b) in self.shards.iter().enumerate() {
            parts.extend((0..b.ep.sys.dimms()).map(|d| Part::Dimm(s, d)));
            parts.extend([Part::Link(s), Part::Node(s)]);
        }
        parts.push(Part::Switch);
        for (t, edge) in outage::expand(plan, "rack", &parts, Some(&mut self.coord.stats.domains)) {
            self.coord.outages.schedule(t, edge);
        }
    }

    /// Rack-layer outage statistics.
    pub fn stats(&self) -> &RackStats {
        &self.coord.stats
    }

    /// Access server `s`.
    pub fn server(&self, s: usize) -> &McnSystem {
        &self.shards[s].ep.sys
    }

    /// Mutable access to server `s` (e.g. to spawn work or open sockets).
    /// Clears the server block's cached next event, so the scheduler
    /// re-queries the server before it plans the next window.
    pub fn server_mut(&mut self, s: usize) -> &mut McnSystem {
        &mut self.shards[s].ep_mut().sys
    }

    /// Spawns a process on a host core of server `s`.
    pub fn spawn_host(&mut self, s: usize, proc: Box<dyn Process>, core: usize) -> ProcId {
        self.server_mut(s).spawn_host(proc, core)
    }

    /// Spawns a process on DIMM `d` of server `s`.
    pub fn spawn_dimm(
        &mut self,
        s: usize,
        d: usize,
        proc: Box<dyn Process>,
        core: usize,
    ) -> ProcId {
        self.server_mut(s).spawn_dimm(d, proc, core)
    }

    /// A structured snapshot of the whole rack for stall debugging: every
    /// server's [`McnSystem::stall_report`] folded in under a `srv{s}.`
    /// prefix, plus a `wire` section with NIC/link timers.
    pub fn stall_report(&self, title: &str) -> StallReport {
        let mut r = StallReport::new(format!("{title} (rack of {} @ {})", self.len(), self.now));
        for (s, b) in self.shards.iter().enumerate() {
            r.absorb(&format!("srv{s}."), &b.ep.sys.stall_report("server"));
        }
        for (s, b) in self.shards.iter().enumerate() {
            r.line(
                "wire",
                format!(
                    "srv{s}: link_up={} nic_next={:?} up_next={:?} down_next={:?}",
                    b.link_up,
                    b.ep.nic.next_event(),
                    b.up.next_arrival(),
                    b.down.next_arrival()
                ),
            );
        }
        if let Some(groups) = &self.coord.partition {
            r.line("wire", format!("switch partitioned: groups={groups:?}"));
        }
        if !self.coord.outages.is_empty() {
            r.line(
                "wire",
                format!("{} scheduled outages pending", self.coord.outages.len()),
            );
        }
        r
    }

    /// Drains the gateway-claimed frames bound for the Clos fabric.
    pub(crate) fn take_dc_uplink(&mut self) -> Vec<(SimTime, EthernetFrame)> {
        self.coord
            .dc_uplink
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Delivers a frame that arrived from the fabric at the ToR at `at`:
    /// re-addressed to the owning server's NIC and sent down its link.
    /// Returns whether a server accepted it.
    pub(crate) fn deliver_from_fabric(&mut self, at: SimTime, frame: EthernetFrame) -> bool {
        let Some(dst_ip) = mcn_net::Ipv4Packet::decode(&frame.payload)
            .ok()
            .map(|p| p.dst)
        else {
            self.coord.stats.fabric_drops.inc();
            return false;
        };
        let rack_id = self.coord.rack_id;
        let Some(owner) = owner_of(dst_ip, rack_id, self.shards.len()) else {
            self.coord.stats.fabric_drops.inc();
            return false;
        };
        if !self.coord.link_up[owner] {
            self.coord.stats.uplink_drops.inc();
            return false;
        }
        let mut f = frame;
        f.dst = McnSystem::nic_mac_in(rack_id, owner);
        self.coord.stats.fabric_rx.inc();
        Shard::deliver(&mut self.shards[owner], at, f);
        true
    }

    /// Schedules `edge` of every server's [`Part::Node`] at `at` (the
    /// datacenter's map for a `rack{r}` edge).
    pub(crate) fn schedule_every_node(&mut self, at: SimTime, edge: fn(Part) -> Edge) {
        for s in 0..self.shards.len() {
            self.coord.outages.schedule(at, edge(Part::Node(s)));
        }
    }
}

impl Instrumented for McnRack {
    /// The whole rack tree: each server's [`McnSystem`] registry under
    /// `srv{N}.*` (identical to its standalone paths), the rack-layer
    /// outage counters under `rack.*`, the ToR switch, each server's NIC
    /// (`nic{N}.*`) and uplink/downlink (`link{N}.up/.down`), the summed
    /// block event-loop accounting (`engine.*`), the windowed scheduler
    /// (`sched.*`) and the clock.
    fn metrics(&self, out: &mut MetricSink) {
        out.counter("now_ps", self.now.as_ps());
        let stats = &self.coord.stats;
        out.scoped("rack", |out| {
            out.counter("partition_drops", stats.partition_drops.get());
            let block_drops: u64 = self.shards.iter().map(|b| b.uplink_drops.get()).sum();
            out.counter("uplink_drops", stats.uplink_drops.get() + block_drops);
            out.counter("link_downs", stats.link_downs.get());
            out.counter("partitions", stats.partitions.get());
            out.counter("node_reboots", stats.node_reboots.get());
            out.counter("fabric_tx", stats.fabric_tx.get());
            out.counter("fabric_rx", stats.fabric_rx.get());
            out.counter("fabric_drops", stats.fabric_drops.get());
            let eps = || self.shards.iter().map(|b| &b.ep);
            out.counter("f4_unroutable", eps().map(|e| e.f4_unroutable.get()).sum());
            out.counter(
                "rx_undecodable",
                eps().map(|e| e.rx_undecodable.get()).sum(),
            );
            for d in &stats.domains {
                out.absorb(&format!("outage.domain.{}", d.name), d);
            }
        });
        out.absorb("switch", &self.coord.switch);
        for (s, b) in self.shards.iter().enumerate() {
            out.absorb(&format!("srv{s}"), &b.ep.sys);
        }
        for (s, b) in self.shards.iter().enumerate() {
            out.absorb(&format!("nic{s}"), &b.ep.nic);
            out.scoped(&format!("link{s}"), |out| {
                out.absorb("up", &b.up);
                out.absorb("down", &b.down);
            });
        }
        out.absorb("engine", &self.engine_stats());
        out.absorb("sched", &self.sched);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dimm::{McnDimm, F4_FALLBACK_MAC};
    use bytes::Bytes;
    use mcn_net::MacAddr;
    use mcn_sim::ComponentExt;
    use std::collections::HashSet;

    fn mk(servers: usize, dimms: usize, level: u32) -> McnRack {
        McnRack::new(
            &SystemConfig::default(),
            servers,
            dimms,
            McnConfig::level(level),
        )
    }

    #[test]
    fn address_plan_is_disjoint() {
        // The whole envelope the constructors allow: 10 servers of 24
        // DIMMs. Every address is unique in the rack and owned by its
        // server.
        let (servers, dimms) = (10, 24);
        let mut ips = HashSet::new();
        for s in 0..servers {
            let nic = McnSystem::nic_ip_in(0, s);
            assert!(ips.insert(nic));
            assert_eq!(owner_of(nic, 0, servers), Some(s));
            // Each server's memory channel is one L2 segment: its
            // host-interface and DIMM MACs, and the DIMMs' F4 fallback.
            let mut channel_macs = HashSet::from([MacAddr::from_id(F4_FALLBACK_MAC)]);
            for d in 0..dimms {
                for ip in [McnDimm::ip_for(s, d), McnSystem::host_if_ip_for(s, d)] {
                    assert!(ips.insert(ip), "{ip} handed out twice");
                    assert_eq!(owner_of(ip, 0, servers), Some(s), "owner of {ip}");
                }
                assert!(
                    channel_macs.insert(McnDimm::mac_for(s, d)),
                    "dimm mac {s}/{d}"
                );
                assert!(
                    channel_macs.insert(McnSystem::host_if_mac_for(s, d)),
                    "host mac {s}/{d}"
                );
            }
        }
        let outside = std::net::Ipv4Addr::new(8, 8, 8, 8);
        assert_eq!(owner_of(outside, 0, servers), None);
        // A built rack hands out exactly these addresses.
        let rack = mk(3, 2, 1);
        assert_eq!(rack.server(2).dimm_ip(1), McnDimm::ip_for(2, 1));
        assert_eq!(rack.server(2).dimm(1).mac(), McnDimm::mac_for(2, 1));
    }

    #[test]
    fn dc_address_plan_is_disjoint_across_racks() {
        // The whole envelope the constructors allow: 64 racks of 10
        // servers.
        let mut ips = HashSet::new();
        let mut fabric_macs = HashSet::new();
        for r in 0..64 {
            // Each ToR is one L2 segment: its NIC MACs and the gateway.
            let mut tor_macs = HashSet::from([McnSystem::GATEWAY_MAC]);
            for s in 0..10 {
                let (ip, mac) = (McnSystem::nic_ip_in(r, s), McnSystem::nic_mac_in(r, s));
                assert!(ips.insert(ip), "nic ip {r}/{s}");
                assert!(tor_macs.insert(mac), "nic mac {r}/{s} on its ToR");
                // The fabric carries every rack's NIC MACs.
                assert!(fabric_macs.insert(mac), "nic mac {r}/{s} in the fabric");
                assert_eq!(owner_of(ip, r, 10), Some(s));
                // Remote-rack addresses are owned by nobody locally but
                // resolve to their rack for the gateway escape.
                assert_eq!(owner_of(ip, (r + 1) % 64, 10), None);
                assert_eq!(remote_rack_of(ip, (r + 1) % 64), Some(r));
                assert_eq!(remote_rack_of(ip, r), None);
            }
        }
        assert_eq!(remote_rack_of(McnSystem::GATEWAY_IP, 1), None);
    }

    #[test]
    fn udp_between_mcn_nodes_of_different_servers() {
        // DIMM 0 of server 0 → DIMM 1 of server 1: SRAM ring → host →
        // F4 → NIC → switch → NIC → host → T1-T3 → SRAM ring.
        let mut rack = mk(2, 2, 1);
        let dst_ip = rack.server(1).dimm_ip(1);
        let u_src = rack
            .server_mut(0)
            .dimm_mut(0)
            .node
            .stack
            .udp_bind(7000)
            .unwrap();
        let u_dst = rack
            .server_mut(1)
            .dimm_mut(1)
            .node
            .stack
            .udp_bind(7001)
            .unwrap();
        rack.server_mut(0)
            .dimm_mut(0)
            .node
            .stack
            .udp_send(
                u_src,
                dst_ip,
                7001,
                Bytes::from(vec![0xE4u8; 900]),
                SimTime::ZERO,
            )
            .unwrap();
        rack.run_until(SimTime::from_ms(1));
        let (from, _, data) = rack
            .server_mut(1)
            .dimm_mut(1)
            .node
            .stack
            .udp_recv(u_dst)
            .expect("datagram crossed two memory channels and the wire");
        assert_eq!(from, crate::McnDimm::ip_for(0, 0));
        assert_eq!(data.len(), 900);
        assert_eq!(rack.server(0).hdrv.stats.f4_external.get(), 1);
    }

    #[test]
    fn tcp_across_the_rack() {
        let mut rack = mk(2, 1, 3);
        let dst_ip = rack.server(1).dimm_ip(0);
        let lst = rack
            .server_mut(1)
            .dimm_mut(0)
            .node
            .stack
            .tcp_listen(9000)
            .unwrap();
        let cs = rack
            .server_mut(0)
            .dimm_mut(0)
            .node
            .stack
            .tcp_connect(dst_ip, 9000, SimTime::ZERO)
            .unwrap();
        rack.run_until(SimTime::from_ms(5));
        assert_eq!(
            rack.server(0).dimm(0).node.stack.tcp_state(cs),
            mcn_net::tcp::TcpState::Established,
            "handshake across the rack"
        );
        let ss = rack
            .server_mut(1)
            .dimm_mut(0)
            .node
            .stack
            .tcp_accept(lst)
            .unwrap();
        let data: Vec<u8> = (0..64 * 1024u32).map(|i| (i % 247) as u8).collect();
        let mut sent = 0;
        let mut got = Vec::new();
        let mut buf = vec![0u8; 32768];
        let mut guard = 0;
        while got.len() < data.len() {
            let now = rack.now();
            if sent < data.len() {
                sent += rack
                    .server_mut(0)
                    .dimm_mut(0)
                    .node
                    .stack
                    .tcp_send(cs, &data[sent..], now)
                    .unwrap();
            }
            rack.run_until(rack.now() + SimTime::from_us(200));
            loop {
                let now = rack.now();
                let n = rack
                    .server_mut(1)
                    .dimm_mut(0)
                    .node
                    .stack
                    .tcp_recv(ss, &mut buf, now)
                    .unwrap();
                if n == 0 {
                    break;
                }
                got.extend_from_slice(&buf[..n]);
            }
            guard += 1;
            if guard >= 20_000 {
                panic!(
                    "stalled at {} bytes\n{}",
                    got.len(),
                    rack.stall_report("tcp_across_the_rack stalled")
                );
            }
        }
        assert_eq!(got, data, "byte-exact across two MCN fabrics + Ethernet");
    }

    #[test]
    fn partition_blocks_cross_group_traffic_until_heal() {
        let mut rack = mk(2, 1, 1);
        let mut plan = OutagePlan::new(1);
        plan.partition(SimTime::ZERO, vec![vec![0], vec![1]], SimTime::from_ms(1));
        rack.set_outage_plan(&plan);
        let dst_ip = rack.server(1).dimm_ip(0);
        let u0 = rack
            .server_mut(0)
            .dimm_mut(0)
            .node
            .stack
            .udp_bind(7000)
            .unwrap();
        let u1 = rack
            .server_mut(1)
            .dimm_mut(0)
            .node
            .stack
            .udp_bind(7001)
            .unwrap();
        rack.server_mut(0)
            .dimm_mut(0)
            .node
            .stack
            .udp_send(u0, dst_ip, 7001, Bytes::from(vec![9u8; 200]), SimTime::ZERO)
            .unwrap();
        rack.run_until(SimTime::from_ms(2));
        assert!(
            rack.server_mut(1)
                .dimm_mut(0)
                .node
                .stack
                .udp_recv(u1)
                .is_none(),
            "partitioned switch must not forward"
        );
        assert!(rack.stats().partition_drops.get() > 0);
        // Healed at 1 ms: a resend is delivered.
        let now = rack.now();
        rack.server_mut(0)
            .dimm_mut(0)
            .node
            .stack
            .udp_send(u0, dst_ip, 7001, Bytes::from(vec![8u8; 200]), now)
            .unwrap();
        rack.run_until(now + SimTime::from_ms(2));
        assert!(rack
            .server_mut(1)
            .dimm_mut(0)
            .node
            .stack
            .udp_recv(u1)
            .is_some());
    }

    #[test]
    fn scheduled_node_reboot_heals_itself() {
        let mut rack = mk(2, 1, 1);
        let mut plan = OutagePlan::new(11);
        plan.down(Part::Node(1), SimTime::from_us(100), SimTime::from_us(300));
        rack.set_outage_plan(&plan);
        rack.run_until(SimTime::from_us(200));
        assert!(!rack.server(1).dimm(0).alive(), "node down at 100us");
        rack.run_until(SimTime::from_ms(10));
        assert!(rack.server(1).dimm(0).alive(), "node back at 400us");
        assert!(rack.server(1).hdrv.port_is_up(0), "reinit handshake healed");
        assert_eq!(rack.stats().node_reboots.get(), 1);
    }

    #[test]
    fn domain_crash_fells_and_heals_all_members_atomically() {
        let mut rack = mk(2, 2, 1);
        let mut plan = OutagePlan::new(7);
        plan.define_domain("riser0", &[Part::Dimm(0, 0), Part::Dimm(0, 1)]);
        plan.domain_crash("riser0", SimTime::from_us(100), SimTime::from_us(300));
        rack.set_outage_plan(&plan);
        rack.run_until(SimTime::from_us(200));
        // Both members fell at the same boundary; the other server's
        // DIMMs are untouched.
        assert!(!rack.server(0).dimm(0).alive(), "member 0 down");
        assert!(!rack.server(0).dimm(1).alive(), "member 1 down");
        assert!(rack.server(1).dimm(0).alive(), "other domain untouched");
        assert_eq!(rack.stats().domains[0].crashes.get(), 1);
        assert_eq!(rack.stats().domains[0].heals.get(), 0);
        rack.run_until(SimTime::from_ms(10));
        assert!(rack.server(0).dimm(0).alive(), "member 0 healed");
        assert!(rack.server(0).dimm(1).alive(), "member 1 healed");
        assert_eq!(rack.stats().domains[0].heals.get(), 1);
        // The per-domain counters are in the registry under rack.*.
        let snap = mcn_sim::MetricsSnapshot::collect(&rack);
        assert_eq!(snap.get_u64("rack.outage.domain.riser0.crashes"), 1);
        assert_eq!(snap.get_u64("rack.outage.domain.riser0.heals"), 1);
    }

    #[test]
    fn a_second_plan_counts_its_domains_under_their_own_names() {
        let mut rack = mk(2, 2, 1);
        let mut first = OutagePlan::new(7);
        first.define_domain("riser0", &[Part::Dimm(0, 0), Part::Dimm(0, 1)]);
        rack.set_outage_plan(&first);
        let mut second = OutagePlan::new(7);
        second.define_domain("pdu1", &[Part::Node(1)]);
        second.domain_crash("pdu1", SimTime::from_us(100), SimTime::from_us(300));
        rack.set_outage_plan(&second);
        rack.run_until(SimTime::from_ms(1));
        let snap = mcn_sim::MetricsSnapshot::collect(&rack);
        assert_eq!(snap.get_u64("rack.outage.domain.riser0.crashes"), 0);
        assert_eq!(snap.get_u64("rack.outage.domain.pdu1.crashes"), 1);
        assert_eq!(snap.get_u64("rack.outage.domain.pdu1.heals"), 1);
    }

    #[test]
    #[should_panic(expected = "member 'server9.dimm0' names no component of this rack")]
    fn domain_with_unknown_member_panics_at_install() {
        let mut rack = mk(2, 1, 1);
        let mut plan = OutagePlan::new(7);
        plan.define_domain("bogus", &[Part::Dimm(9, 0)]);
        plan.domain_crash("bogus", SimTime::from_us(1), SimTime::from_us(1));
        rack.set_outage_plan(&plan);
    }

    #[test]
    #[should_panic(expected = "'spine0' names no component of this rack")]
    fn a_datacenter_part_on_a_rack_panics_at_install() {
        let mut plan = OutagePlan::new(7);
        plan.down(Part::Spine(0), SimTime::from_us(1), SimTime::from_us(1));
        mk(2, 1, 1).set_outage_plan(&plan);
    }

    #[test]
    fn a_frame_at_the_nic_wakes_its_server_at_the_rx_dma() {
        let mut rack = mk(2, 1, 1);
        let ep = &mut rack.shards[1].ep;
        assert_eq!(ep.sys.next_event(), None, "an idle server");
        let started = ep.sys.host.mem.jobs_started();
        let at = SimTime::from_us(5);
        let frame = EthernetFrame::ipv4(
            McnSystem::nic_mac_in(0, 1),
            McnSystem::nic_mac_in(0, 0),
            Bytes::from(vec![0u8; 1000]),
        );
        let (nic, mem) = ep.wire();
        nic.wire_rx(frame, at, mem);
        assert_eq!(ep.sys.host.mem.jobs_started(), started + 1, "one RX DMA");
        let first = ep.sys.host.mem.next_event();
        assert!(first.is_some_and(|t| t >= at), "the DMA's first command");
        assert_eq!(ep.sys.next_event(), first);
    }

    #[test]
    fn intra_server_traffic_stays_off_the_wire() {
        let mut rack = mk(2, 2, 1);
        let dst = rack.server(0).dimm_ip(1);
        let u0 = rack
            .server_mut(0)
            .dimm_mut(0)
            .node
            .stack
            .udp_bind(7000)
            .unwrap();
        let u1 = rack
            .server_mut(0)
            .dimm_mut(1)
            .node
            .stack
            .udp_bind(7001)
            .unwrap();
        rack.server_mut(0)
            .dimm_mut(0)
            .node
            .stack
            .udp_send(u0, dst, 7001, Bytes::from(vec![1u8; 100]), SimTime::ZERO)
            .unwrap();
        rack.run_until(SimTime::from_ms(1));
        assert!(rack
            .server_mut(0)
            .dimm_mut(1)
            .node
            .stack
            .udp_recv(u1)
            .is_some());
        assert_eq!(rack.server(0).hdrv.stats.f3_forward.get(), 1);
        assert_eq!(rack.server(0).hdrv.stats.f4_external.get(), 0);
        assert_eq!(
            rack.shards[0].ep.nic.tx_frames.get(),
            0,
            "nothing on the wire"
        );
    }
}

#[cfg(test)]
mod direct_tests {
    use crate::{McnConfig, McnSystem, SystemConfig};
    use bytes::Bytes;
    use mcn_sim::{ComponentExt, SimTime};

    #[test]
    fn direct_messages_bypass_the_stack_both_ways() {
        // Sec. VII future work: the shared-memory-style channel moves a
        // message with no TCP/IP segments at all.
        let mut sys = McnSystem::new(&SystemConfig::default(), 1, McnConfig::level(1));
        let host_mac = sys.hdrv.ports[0].mac;

        // Host → DIMM.
        sys.direct_send(0, Bytes::from(vec![7u8; 3000]), SimTime::ZERO);
        sys.run_until(SimTime::from_us(100));
        let (at, payload) = sys
            .dimm_mut(0)
            .direct_rx
            .pop_front()
            .expect("direct message delivered");
        assert_eq!(payload.len(), 3000);
        assert!(at > SimTime::ZERO && at < SimTime::from_us(100));

        // DIMM → host.
        let now = sys.now();
        sys.dimm_mut(0)
            .direct_send(host_mac, Bytes::from(vec![9u8; 500]), now);
        sys.run_until(sys.now() + SimTime::from_us(100));
        let (_, src, payload) = sys.direct_rx.pop().expect("reverse direct message");
        assert_eq!(src, 0);
        assert_eq!(payload.len(), 500);

        // Nothing went through TCP.
        let t = sys.host.stack.tcp_totals();
        assert_eq!(t.data_segs_out + t.acks_out, 0);
        assert_eq!(sys.host.stack.stats.frames_in.get(), 0);
    }

    #[test]
    fn direct_round_trip_beats_tcp_latency() {
        // Measure a direct ping-pong vs the ICMP ping at the same level.
        let mut sys = McnSystem::new(&SystemConfig::default(), 1, McnConfig::level(1));
        let host_mac = sys.hdrv.ports[0].mac;
        let t0 = sys.now();
        sys.direct_send(0, Bytes::from(vec![1u8; 56]), t0);
        // Wait for delivery, then bounce back.
        let mut guard = 0;
        while sys.dimm_mut(0).direct_rx.is_empty() {
            assert!(sys.step(), "idle before delivery");
            guard += 1;
            if guard >= 100_000 {
                panic!("{}", sys.stall_report("direct delivery stalled"));
            }
        }
        let now = sys.now();
        sys.dimm_mut(0)
            .direct_send(host_mac, Bytes::from(vec![2u8; 56]), now);
        while sys.direct_rx.is_empty() {
            assert!(sys.step(), "idle before reply");
            guard += 1;
            if guard >= 200_000 {
                panic!("{}", sys.stall_report("direct reply stalled"));
            }
        }
        let direct_rtt = sys.now() - t0;
        // Compare with an ICMP ping over the full stack on the same system.
        let t1 = sys.now();
        let dimm_ip = sys.dimm_ip(0);
        sys.host
            .stack
            .send_ping(dimm_ip, 3, 1, Bytes::from(vec![0u8; 56]), t1)
            .unwrap();
        while sys.host.stack.pop_ping_reply().is_none() {
            assert!(sys.step(), "idle before echo reply");
            guard += 1;
            if guard >= 400_000 {
                panic!("{}", sys.stall_report("icmp echo stalled"));
            }
        }
        let icmp_rtt = sys.now() - t1;
        assert!(
            direct_rtt < icmp_rtt,
            "bypass {direct_rtt} should beat the stack path {icmp_rtt}"
        );
    }
}
