//! The MCN-enabled server: host + MCN DIMMs + the host-side driver logic.
//!
//! This is where the paper's Sec. III-B/IV flows run end-to-end:
//!
//! * **transmit** (host→DIMM, steps T1–T3): protocol processing charged on
//!   the sending port's core, driver work, then `memcpy_to_mcn` — a real
//!   copy job whose destination pattern is strided by `64 × channels`
//!   (Fig. 6) so it lands entirely on the DIMM's channel, contending with
//!   every other use of that channel. At completion the frame lands in
//!   the DIMM's SRAM RX ring and the MCN interface interrupt fires.
//! * **polling agent** (mcn0): an HR timer per memory channel fires every
//!   `poll_interval`, pays the timer cost, and issues one uncached line
//!   read per DIMM to check `tx-poll` (steps R1–R5 follow on a hit).
//! * **ALERT_N** (mcn1+): a DIMM raising `tx-poll` interrupts the host
//!   after `ALERT_LATENCY`; only then does the driver poll that channel.
//! * **receive** (R1–R5) and the **packet forwarding engine** (F1–F4):
//!   `memcpy_from_mcn` drains the TX ring, then each message is classified
//!   by destination MAC — up the host stack (F1), copied into another
//!   DIMM's RX ring (F3), both plus replication (F2), or counted as
//!   external (F4; the single-server system has no conventional NIC).
//! * **MCN-DMA** (mcn5): the same copy jobs run, but the cores pay only
//!   the engine setup cost instead of being blocked for the duration.

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::ops::{Deref, DerefMut};

use mcn_net::{EthernetFrame, MacAddr, NetConfig};
use mcn_node::mem::{MemorySystem, Pattern, Transfer};
use mcn_node::nic::{rx_protocol_cost, tx_protocol_cost};
use mcn_node::{CostModel, JobId, Node, ProcId, Process};
use mcn_sim::fault::{FaultInjector, FaultKind, FaultPlan};
use mcn_sim::metrics::{Instrumented, MetricSink};
use mcn_sim::{Activity, Component, Engine, EngineStats, EventQueue, SimTime, StallReport};

use crate::config::{McnConfig, SystemConfig};
use crate::dimm::{DimmSignal, McnDimm};
use crate::driver::{
    classify, sram_window, ForwardClass, HostCopy, HostDriver, HostOp, Port, PortLink, Scratch,
    ALERT_LATENCY, DMA_MAX_ATTEMPTS, DMA_SETUP, DMA_WATCHDOG_DEADLINE, FALLBACK_POLL_MULT,
    HOST_DRV_WAITER, REINIT_MAX_PROBES, REINIT_PROBE_INTERVAL, REINIT_STEP,
};
use crate::error::{McnError, McnSide};
use crate::outage::{self, Edge, OutagePlan, Part};
use crate::sram::{Dir, SramBuffer};

/// Engine component id of the host node; DIMM `d` is `HOST_ID + 1 + d`.
const HOST_ID: usize = 0;

/// Engine component id of DIMM `d`.
const fn dimm_id(d: usize) -> usize {
    HOST_ID + 1 + d
}

/// Interval between polling rounds on a channel: `poll_interval`, or
/// `FALLBACK_POLL_MULT` times it for the fallback poller.
fn poll_period(sys: &SystemConfig, fallback: bool) -> SimTime {
    sys.poll_interval * if fallback { FALLBACK_POLL_MULT } else { 1 }
}

#[derive(Debug)]
enum Effect {
    /// Frame finished host TX protocol processing; hand to the port driver.
    PortXmit { port: usize, frame: EthernetFrame },
    /// Retry the head of a port's transmit queue.
    TryPortTx { port: usize },
    /// Driver work done; start the `memcpy_to_mcn` job.
    StartTxCopy { port: usize, frame: EthernetFrame },
    /// A polling round on a channel: the HR timer of `mcn0`, or with
    /// `fallback` the coarse safety net for dropped ALERT_N edges, armed
    /// only when ALERT_N faults are active so that fault-free
    /// interrupt-mode runs never poll.
    Poll { channel: u32, fallback: bool },
    /// ALERT_N delivered to the host for a channel (mcn1+).
    HostAlert { channel: u32 },
    /// Begin draining a DIMM's TX ring.
    StartHostRx { port: usize },
    /// Deliver a fully-charged frame to the host stack.
    HostDeliver { ifidx: usize, frame: EthernetFrame },
    /// The MCN interface IRQ on a DIMM (rx-poll set).
    DimmIrq { dimm: usize },
    /// Tell a DIMM its TX ring was drained.
    DimmKick { dimm: usize },
    /// Watchdog deadline for a possibly-stalled MCN-DMA transfer.
    DmaWatchdog { key: u64 },
    /// Hard-crash DIMM `dimm` (scheduled outage or explicit call).
    Crash { dimm: usize },
    /// Power DIMM `dimm` back on and start the re-init handshake.
    PowerOn { dimm: usize },
    /// One step of the host↔DIMM re-init handshake for `dimm`'s port.
    Reinit { dimm: usize },
}

/// The host node of an [`McnSystem`]: a [`Node`] that flags itself
/// changed on every mutable access.
///
/// It reads as a `Node` through `Deref`, and every `DerefMut` (a bind,
/// a send, a route, a spawn) sets the flag, so the server re-queries the
/// host's wakeup only after something changed the host. Because
/// `DerefMut` borrows the whole node, a write through it cannot read the
/// server in the same expression: hoist `sys.now()` into a local before
/// `sys.host.stack.udp_send(…, now)`.
#[derive(Debug)]
pub struct HostNode {
    node: Node,
    /// Set by every `DerefMut`, cleared by the server's wakeup query.
    changed: bool,
    /// The memory's [`jobs_started`](MemorySystem::jobs_started) at the
    /// last wakeup query.
    jobs_seen: u64,
}

impl HostNode {
    fn new(node: Node) -> Self {
        HostNode {
            node,
            changed: true,
            jobs_seen: 0,
        }
    }

    /// Whether the host's wakeup may have moved since the last query:
    /// it was written through `DerefMut`, or its memory started a job
    /// through [`mem_unflagged`](Self::mem_unflagged).
    fn is_stale(&self) -> bool {
        self.changed || self.node.mem.jobs_started() != self.jobs_seen
    }

    /// Records a wakeup query: clears the flag and the job watermark.
    fn mark_queried(&mut self) {
        self.changed = false;
        self.jobs_seen = self.node.mem.jobs_started();
    }

    /// The host memory, mutably, without flagging the host. Only for
    /// callers whose changes the server sees anyway: a job started here
    /// moves the watermark, and `fast_forward` records the wakeup of
    /// every memory step it runs.
    pub(crate) fn mem_unflagged(&mut self) -> &mut MemorySystem {
        &mut self.node.mem
    }
}

impl Deref for HostNode {
    type Target = Node;

    fn deref(&self) -> &Node {
        &self.node
    }
}

impl DerefMut for HostNode {
    fn deref_mut(&mut self) -> &mut Node {
        self.changed = true;
        &mut self.node
    }
}

/// A full MCN-enabled server; see the module docs.
///
/// Construct with [`McnSystem::new`], attach application processes with
/// [`spawn_host`](Self::spawn_host) / [`spawn_dimm`](Self::spawn_dimm),
/// then drive with [`run_until`](mcn_sim::ComponentExt::run_until) or
/// [`run_until_procs_done`](mcn_sim::ComponentExt::run_until_procs_done).
#[derive(Debug)]
pub struct McnSystem {
    sys: SystemConfig,
    cfg: McnConfig,
    now: SimTime,
    server_id: usize,
    rack_id: usize,
    /// The host node, public for harnesses and tests. Reads and writes
    /// go through it as through a [`Node`]; every write flags the host,
    /// and the next wakeup refresh re-queries it (see [`HostNode`]).
    pub host: HostNode,
    dimms: Vec<McnDimm>,
    /// Host-side driver state (public for harness statistics access).
    pub hdrv: HostDriver,
    effects: EventQueue<Effect>,
    scratch: Scratch,
    /// Interface index of the conventional NIC (rack servers only).
    nic_ifidx: Option<usize>,
    /// Host memory-job completions owned by devices outside this system
    /// (the rack's NIC DMA); drained by the rack.
    pub(crate) foreign_jobs: Vec<(mcn_node::WaiterId, JobId)>,
    /// Received direct (stack-bypassing) messages on the host side:
    /// (arrival time, source DIMM, payload). Sec. VII future work.
    pub direct_rx: Vec<(SimTime, usize, bytes::Bytes)>,
    /// Frames bound for the conventional NIC, drained by the rack: host
    /// stack output on the NIC interface and F4 (external) frames of the
    /// forwarding engine. A standalone server has no NIC and drops F4
    /// frames after counting them in `hdrv.stats.f4_external`.
    pub(crate) external_out: Vec<EthernetFrame>,
    /// ALERT_N edge faults (drop/delay).
    alert_faults: FaultInjector,
    /// MCN-DMA descriptor faults (stall).
    dma_faults: FaultInjector,
    /// DMA copies whose descriptor stalled, awaiting their watchdog
    /// deadline: (port, copy, attempt).
    stalled: HashMap<u64, (usize, HostCopy, u32)>,
    stall_seq: u64,
    /// Wakeup index + dirty-list bookkeeping for the event loop.
    engine: Engine,
    /// Recycled id buffer for the engine's stale/touched drains (the
    /// per-advance hot path allocates nothing).
    engine_scratch: Vec<usize>,
    /// Each component's wakeup outside memory, by engine id, recorded by
    /// the query that last refreshed its indexed wakeup; memory steps
    /// that finish no job do not move it.
    visible: Vec<Option<SimTime>>,
}

impl McnSystem {
    /// Builds a server with `n_dimms` MCN DIMMs at optimisation level
    /// `cfg`, spreading DIMMs evenly across host channels.
    pub fn new(sys: &SystemConfig, n_dimms: usize, cfg: McnConfig) -> Self {
        Self::with_faults(sys, n_dimms, cfg, &FaultPlan::default())
    }

    /// [`new`](Self::new) with a fault plan wired into the data path; see
    /// the `*_fault_component` helpers for the component names queried.
    pub fn with_faults(
        sys: &SystemConfig,
        n_dimms: usize,
        cfg: McnConfig,
        plan: &FaultPlan,
    ) -> Self {
        Self::with_faults_in_dc(sys, n_dimms, cfg, 0, 0, plan)
    }

    /// Fault-plan component name for server `s`'s ALERT_N line (`Drop`
    /// loses an edge, `Delay` delivers it late).
    pub fn alert_fault_component(s: usize) -> String {
        format!("srv{s}.alert")
    }

    /// Fault-plan component name for server `s`'s MCN-DMA engines
    /// (`Stall` hangs a descriptor until the watchdog recovers it).
    pub fn dma_fault_component(s: usize) -> String {
        format!("srv{s}.dma")
    }

    /// Fault-plan component name for the host-side SRAM push path into
    /// DIMM `d`'s RX ring (`Drop` loses the frame, `BitFlip` corrupts one
    /// bit — an ECC escape the `mcn2` checksum bypass cannot catch).
    pub fn sram_host_fault_component(s: usize, d: usize) -> String {
        format!("srv{s}.sram.host{d}")
    }

    /// Fault-plan component name for DIMM `d`'s push path into its SRAM
    /// TX ring (same kinds as the host side).
    pub fn sram_dimm_fault_component(s: usize, d: usize) -> String {
        format!("srv{s}.sram.dimm{d}")
    }

    /// [`with_faults`](Self::with_faults) for server `server_id` of rack
    /// `rack_id` (see [`crate::McnRack`]): DIMM and host-interface
    /// addresses (`10.x`) shift per server and are rack-private; the
    /// conventional-NIC address plan shifts per rack
    /// ([`nic_ip_in`](Self::nic_ip_in)) so host NICs stay unique across
    /// a whole datacenter.
    ///
    /// # Panics
    ///
    /// Panics on more than 24 DIMMs: each server owns 24 second octets
    /// of `10.x`, and a 25th DIMM would take the next server's first
    /// address.
    pub fn with_faults_in_dc(
        sys: &SystemConfig,
        n_dimms: usize,
        cfg: McnConfig,
        rack_id: usize,
        server_id: usize,
        plan: &FaultPlan,
    ) -> Self {
        assert!(n_dimms <= 24, "address plan supports 0-24 DIMMs per server");
        let mut host = Node::new(
            sys.host_cores,
            CostModel::host(),
            &sys.host_dram,
            sys.host_channels,
        );
        let mut hdrv = HostDriver::default();
        let mut dimms = Vec::new();
        if n_dimms == 0 {
            // Pure scale-up server (Fig. 11 baseline): no MCN interfaces
            // exist, but local MPI ranks still talk over loopback; give the
            // stack one address to bind/connect through. Loopback-class
            // interface: 64 KB MTU, no checksums, TSO-style big segments.
            host.stack.add_interface(NetConfig {
                mac: MacAddr::from_id(1),
                ip: Self::loopback_ip(),
                mtu: 65536 - mcn_net::IPV4_HEADER_BYTES,
                checksum: false,
                tso: true,
            });
            host.stack.add_route(
                Self::loopback_ip(),
                Ipv4Addr::new(255, 255, 255, 255),
                0,
                None,
            );
        }
        for d in 0..n_dimms {
            let channel = (d as u32) % sys.host_channels;
            let mac = Self::host_if_mac_for(server_id, d);
            let ip = Self::host_if_ip_for(server_id, d);
            let ifidx = host.stack.add_interface(NetConfig {
                mac,
                ip,
                mtu: cfg.mtu(),
                checksum: !cfg.checksum_bypass,
                tso: cfg.tso,
            });
            let mut dimm = McnDimm::new(server_id, d, channel, sys, cfg, ip, mac);
            dimm.set_fault_injector(plan.injector(&Self::sram_dimm_fault_component(server_id, d)));
            // Host-side /32 route: forward to this interface iff the entire
            // destination IP matches the DIMM (paper Sec. III-B).
            host.stack
                .add_route(dimm.ip(), Ipv4Addr::new(255, 255, 255, 255), ifidx, None);
            host.stack.add_neighbor(dimm.ip(), dimm.mac());
            let (sram_base, sram_stride) = sram_window(d, channel, sys.host_channels);
            let tx_cores = sys
                .host_cores
                .saturating_sub(sys.host_channels as usize)
                .max(1);
            hdrv.ports.push(Port {
                ifidx,
                channel,
                core: d % tx_cores,
                mac,
                ip,
                tx_queue: Default::default(),
                tx_busy: false,
                rx_busy: false,
                sram_base,
                sram_stride,
                link: PortLink::Up,
                faults: plan.injector(&Self::sram_host_fault_component(server_id, d)),
            });
            dimms.push(dimm);
        }
        // Every MCN node knows every other MCN node's MAC and every
        // host-side interface's MAC (static neighbor tables stand in for
        // ARP; the host still arbitrates all the traffic).
        let pairs: Vec<(Ipv4Addr, MacAddr)> = dimms.iter().map(|d| (d.ip(), d.mac())).collect();
        let host_pairs: Vec<(Ipv4Addr, MacAddr)> =
            hdrv.ports.iter().map(|p| (p.ip, p.mac)).collect();
        for d in dimms.iter_mut() {
            let own = d.ip();
            for (ip, mac) in pairs.iter().chain(host_pairs.iter()) {
                if *ip != own {
                    d.node.stack.add_neighbor(*ip, *mac);
                }
            }
        }
        let mut effects = EventQueue::new();
        let alert_faults = plan.injector(&Self::alert_fault_component(server_id));
        // `mcn0` polls every channel. Interrupt mode arms the fallback
        // poller only when alert faults can actually occur, so that
        // fault-free interrupt-mode baselines stay bit-identical (zero
        // polls).
        let fallback = cfg.alert_interrupt;
        if n_dimms > 0 && (!fallback || alert_faults.is_active()) {
            for channel in 0..sys.host_channels {
                effects.schedule(
                    poll_period(sys, fallback),
                    Effect::Poll { channel, fallback },
                );
            }
        }
        McnSystem {
            sys: sys.clone(),
            cfg,
            now: SimTime::ZERO,
            server_id,
            rack_id,
            host: HostNode::new(host),
            dimms,
            hdrv,
            effects,
            // Kernel buffers: 256 MiB of host DRAM at 2 GiB.
            scratch: Scratch::new(2 << 30, 256 << 20),
            nic_ifidx: None,
            foreign_jobs: Vec::new(),
            direct_rx: Vec::new(),
            external_out: Vec::new(),
            alert_faults,
            dma_faults: plan.injector(&Self::dma_fault_component(server_id)),
            stalled: HashMap::new(),
            stall_seq: 0,
            engine: Engine::new(1 + n_dimms),
            engine_scratch: Vec::new(),
            visible: vec![None; 1 + n_dimms],
        }
    }

    /// Installs a hard-outage [plan](OutagePlan): a server has only its
    /// own DIMMs, [`Part::Dimm`]`(s, d)` with `s` its
    /// [`server_id`](Self::server_id), each crash becoming a timed
    /// crash/power-on pair in the effect queue.
    ///
    /// # Panics
    ///
    /// Panics, naming it, on any other part and on any failure domain.
    pub fn set_outage_plan(&mut self, plan: &OutagePlan) {
        let parts: Vec<Part> = (0..self.dimms.len())
            .map(|d| Part::Dimm(self.server_id, d))
            .collect();
        for (t, edge) in outage::expand(plan, "server", &parts, None) {
            let effect = match edge {
                Edge::Down(Part::Dimm(_, dimm)) => Effect::Crash { dimm },
                Edge::Up(Part::Dimm(_, dimm)) => Effect::PowerOn { dimm },
                edge => unreachable!("{edge:?} passed the server's range check"),
            };
            self.effects.schedule(t, effect);
        }
    }

    /// Hard-crashes DIMM `d` now (see [`McnDimm::crash`]): the device
    /// freezes, its SRAM zeroes, the host port goes down and queued frames
    /// on both sides are lost.
    pub fn crash_dimm(&mut self, d: usize, now: SimTime) {
        assert!(now >= self.now);
        self.now = self.now.max(now);
        self.effects.schedule(now, Effect::Crash { dimm: d });
        self.advance(now);
    }

    /// Powers DIMM `d` back on now and kicks off the host-side re-init
    /// handshake (probe → ring reset → MAC re-announce → link up).
    pub fn power_on_dimm(&mut self, d: usize, now: SimTime) {
        assert!(now >= self.now);
        self.now = self.now.max(now);
        self.effects.schedule(now, Effect::PowerOn { dimm: d });
        self.advance(now);
    }

    /// Sends a direct (stack-bypassing) message to DIMM `d` — the Sec. VII
    /// mTCP-style path: one driver handoff plus the SRAM copy, no TCP/IP.
    pub fn direct_send(&mut self, d: usize, payload: bytes::Bytes, now: SimTime) {
        assert!(now >= self.now);
        self.now = self.now.max(now);
        let frame = EthernetFrame {
            dst: self.dimms[d].mac(),
            src: self.hdrv.ports[d].mac,
            ethertype: mcn_net::EtherType::Other(crate::dimm::DIRECT_ETHERTYPE),
            payload,
            fcs_ok: true,
        };
        self.effects
            .schedule(now, Effect::PortXmit { port: d, frame });
        self.advance(now);
    }

    /// Attaches a conventional NIC interface to the host stack (rack
    /// servers). Returns the interface index; the rack wires routes with
    /// [`add_remote_route`](Self::add_remote_route).
    pub fn attach_nic_iface(&mut self) -> usize {
        let ifidx = self.host.stack.add_interface(NetConfig {
            mac: Self::nic_mac_in(self.rack_id, self.server_id),
            ip: Self::nic_ip_in(self.rack_id, self.server_id),
            mtu: mcn_net::MTU_ETHERNET,
            checksum: false,
            tso: false,
        });
        self.nic_ifidx = Some(ifidx);
        ifidx
    }

    /// The conventional NIC's MAC for server `s` of rack `rack`: 0x20
    /// ids per rack keep every NIC distinct for up to 64 racks of 10
    /// servers. The ids overlap the memory-channel MACs
    /// (`nic_mac_in(0, 0)` is [`McnDimm::mac_for(8, 0)`](McnDimm::mac_for)),
    /// which is harmless: a memory channel is its own L2 segment, and F4
    /// rewrites both MACs of a forwarded frame before it reaches the NIC.
    pub fn nic_mac_in(rack: usize, s: usize) -> MacAddr {
        MacAddr::from_id(0x0400 + rack as u16 * 0x20 + s as u16)
    }

    /// The conventional NIC's IP for server `s` of rack `rack`: one /24
    /// per rack inside `192.168.0.0/16`, so the rack id is readable off
    /// the third octet everywhere frames are routed.
    pub fn nic_ip_in(rack: usize, s: usize) -> Ipv4Addr {
        Ipv4Addr::new(192, 168, rack as u8, (s + 1) as u8)
    }

    /// Well-known MAC of a rack's datacenter gateway (its ToR fabric
    /// uplink). Frames the host stack resolves to this MAC are claimed
    /// by the ToR and handed to the Clos fabric instead of a local port.
    pub const GATEWAY_MAC: MacAddr = MacAddr([0x02, 0x4D, 0x43, 0x4E, 0xFF, 0xF0]);

    /// Next-hop IP the gateway route resolves through (never a real
    /// interface; exists so the stack has a neighbor entry yielding
    /// [`GATEWAY_MAC`](Self::GATEWAY_MAC)).
    pub const GATEWAY_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 255, 254);

    /// Routes the whole `192.168.0.0/16` NIC plane out the conventional
    /// NIC via the datacenter gateway. Installed *before* the rack's
    /// /32 same-rack routes, which win by longest-prefix match, so only
    /// genuinely remote-rack traffic escapes to the fabric.
    pub fn add_dc_gateway_route(&mut self) {
        let ifidx = self.nic_ifidx.expect("attach_nic_iface first");
        self.host.stack.add_route(
            Ipv4Addr::new(192, 168, 0, 0),
            Ipv4Addr::new(255, 255, 0, 0),
            ifidx,
            Some(Self::GATEWAY_IP),
        );
        self.host
            .stack
            .add_neighbor(Self::GATEWAY_IP, Self::GATEWAY_MAC);
    }

    /// Routes `dst` out the conventional NIC towards `gw` (a remote
    /// server's NIC address/MAC).
    pub fn add_remote_route(&mut self, dst: Ipv4Addr, gw: Ipv4Addr, gw_mac: MacAddr) {
        let ifidx = self.nic_ifidx.expect("attach_nic_iface first");
        self.host
            .stack
            .add_route(dst, Ipv4Addr::new(255, 255, 255, 255), ifidx, Some(gw));
        self.host.stack.add_neighbor(gw, gw_mac);
    }

    /// IP of host-side interface `i` (`10.(i+1).0.1`).
    pub fn host_if_ip(i: usize) -> Ipv4Addr {
        Self::host_if_ip_for(0, i)
    }

    /// Rack variant of [`host_if_ip`](Self::host_if_ip).
    pub fn host_if_ip_for(server: usize, i: usize) -> Ipv4Addr {
        Ipv4Addr::new(10, (server * 24 + i + 1) as u8, 0, 1)
    }

    /// MAC of server `server`'s host-side interface `i`, the peer of
    /// [`McnDimm::mac_for`] on the same memory channel.
    pub(crate) fn host_if_mac_for(server: usize, i: usize) -> MacAddr {
        MacAddr::from_id(0x0100 + (server as u16) * 0x40 + i as u16)
    }

    /// This server's id within its rack (0 standalone).
    pub fn server_id(&self) -> usize {
        self.server_id
    }

    /// This server's rack id within its datacenter (0 standalone).
    pub fn rack_id(&self) -> usize {
        self.rack_id
    }

    /// The host's self-address in a system with zero DIMMs (scale-up
    /// baseline): local ranks connect to each other through it.
    pub fn loopback_ip() -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, 1)
    }

    /// The address other ranks (and local ranks) use to reach processes on
    /// the host.
    pub fn host_rank_ip(&self) -> Ipv4Addr {
        if self.dimms.is_empty() {
            Self::loopback_ip()
        } else {
            Self::host_if_ip_for(self.server_id, 0)
        }
    }

    /// IP of DIMM `i` (`10.(i+1).0.2`, shifted in racks).
    pub fn dimm_ip(&self, i: usize) -> Ipv4Addr {
        McnDimm::ip_for(self.server_id, i)
    }

    /// Number of MCN DIMMs installed.
    pub fn dimms(&self) -> usize {
        self.dimms.len()
    }

    /// Access a DIMM.
    pub fn dimm(&self, d: usize) -> &McnDimm {
        &self.dimms[d]
    }

    /// Mutable access to a DIMM. Marks the DIMM's cached wakeup stale:
    /// callers may inject work (e.g. `udp_send` straight into its stack)
    /// that changes its next deadline.
    pub fn dimm_mut(&mut self, d: usize) -> &mut McnDimm {
        self.engine.mark_stale(dimm_id(d));
        &mut self.dimms[d]
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The active optimisation configuration.
    pub fn config(&self) -> McnConfig {
        self.cfg
    }

    /// The system configuration.
    pub fn system_config(&self) -> &SystemConfig {
        &self.sys
    }

    /// Spawns an application process on a host core.
    ///
    /// # Panics
    ///
    /// Panics if the host has no core `core` ([`Node::spawn`]).
    pub fn spawn_host(&mut self, proc: Box<dyn Process>, core: usize) -> ProcId {
        self.host.spawn(proc, core)
    }

    /// Spawns an application process on a core of DIMM `d`.
    ///
    /// # Panics
    ///
    /// Panics if DIMM `d` has no core `core` ([`Node::spawn`]).
    pub fn spawn_dimm(&mut self, d: usize, proc: Box<dyn Process>, core: usize) -> ProcId {
        self.engine.mark_stale(dimm_id(d));
        self.dimms[d].node.spawn(proc, core)
    }

    /// All application processes (host + DIMMs) finished?
    pub fn all_procs_done(&self) -> bool {
        self.host.runner.all_done() && self.dimms.iter().all(|d| d.node.runner.all_done())
    }

    /// Snapshot of why the system appears stalled: blocked processes,
    /// socket states, port/ring occupancy, in-flight driver jobs. Used by
    /// the convergence guard and by drive loops whose process set
    /// quiesced without finishing.
    pub fn stall_report(&self, title: &str) -> StallReport {
        let mut r = StallReport::new(format!("{title} (srv{} @ {})", self.server_id, self.now));
        for line in self.host.runner.stalled_procs() {
            r.line("host procs", line);
        }
        for line in self.host.stack.socket_states() {
            r.line("host sockets", line);
        }
        for (i, p) in self.hdrv.ports.iter().enumerate() {
            r.line(
                "ports",
                format!(
                    "port{i}: link={:?} tx_busy={} rx_busy={} tx_queue={}",
                    p.link,
                    p.tx_busy,
                    p.rx_busy,
                    p.tx_queue.len()
                ),
            );
        }
        for dimm in &self.dimms {
            dimm.stall_lines(&mut r);
        }
        r.line(
            "driver jobs",
            format!(
                "host pending={} stalled_dma={} effects_queued={}",
                self.hdrv.pending.len(),
                self.stalled.len(),
                self.effects.len(),
            ),
        );
        r
    }

    fn poll_core(&self, channel: u32) -> usize {
        if self.sys.host_cores > self.sys.host_channels as usize {
            self.sys.host_cores - 1 - channel as usize
        } else {
            channel as usize % self.sys.host_cores
        }
    }

    // ------------------------------------------------------------------
    // Event loop
    // ------------------------------------------------------------------

    /// The wakeup of engine component `id`, queried live (debug checks).
    fn wakeup_of(&self, id: usize) -> Option<SimTime> {
        if id == HOST_ID {
            self.host.next_event()
        } else {
            self.dimms[id - 1 - HOST_ID].next_event()
        }
    }

    /// The memory system of engine component `id`.
    fn mem_of(&self, id: usize) -> &MemorySystem {
        if id == HOST_ID {
            &self.host.mem
        } else {
            &self.dimms[id - 1 - HOST_ID].node.mem
        }
    }

    /// [`mem_of`](Self::mem_of), mutably, for `fast_forward`'s memory
    /// steps: they start no job and record the wakeup they leave, so the
    /// host is not flagged.
    fn mem_mut(&mut self, id: usize) -> &mut MemorySystem {
        if id == HOST_ID {
            self.host.mem_unflagged()
        } else {
            &mut self.dimms[id - 1 - HOST_ID].node.mem
        }
    }

    /// Re-queries engine component `id`: records its wakeup outside
    /// memory in `visible` and, with its memory's next event, its
    /// indexed wakeup. A crashed DIMM is frozen and reports neither.
    fn requery(&mut self, id: usize) {
        let (outside, mem) = if id == HOST_ID {
            self.host.mark_queried();
            (
                self.host.next_event_outside_mem(),
                self.host.mem.next_event(),
            )
        } else {
            let dimm = &self.dimms[id - 1 - HOST_ID];
            let mem = dimm.alive().then(|| dimm.node.mem.next_event());
            (dimm.next_event_outside_mem(), mem.flatten())
        };
        self.visible[id] = outside;
        let w = self.wakeup_after_mem(id, mem);
        self.engine.set_wakeup(id, w);
    }

    /// Re-queries every stale component's deadline. The host is stale
    /// when something wrote through [`host`](Self::host) since its last
    /// query (binds, sends, spawns, and every driver path in this crate),
    /// or when its memory started a job since then: the rack's NIC
    /// reaches that memory without the flag ([`HostNode`]), and starting
    /// a DMA job is all it does there. Debug builds re-query a skipped
    /// host and check that the query would have changed nothing.
    fn refresh_wakeups(&mut self) {
        let host_stale = self.host.is_stale();
        if host_stale {
            self.engine.mark_stale(HOST_ID);
        }
        let ids = self
            .engine
            .drain_stale_into(std::mem::take(&mut self.engine_scratch));
        for &id in &ids {
            self.requery(id);
        }
        self.engine_scratch = ids;
        if cfg!(debug_assertions) && !host_stale {
            let recorded = (self.visible[HOST_ID], self.engine.wakeup(HOST_ID));
            self.requery(HOST_ID);
            assert_eq!(
                recorded,
                (self.visible[HOST_ID], self.engine.wakeup(HOST_ID)),
                "host changed unflagged at {}",
                self.now
            );
        }
    }

    /// Earliest pending activity anywhere in the system: the staged-effect
    /// queue head or the earliest indexed component wakeup — cached
    /// deadlines, not live queries of the host and every DIMM.
    pub fn next_event(&mut self) -> Option<SimTime> {
        self.refresh_wakeups();
        let t = match (self.effects.peek_time(), self.engine.earliest()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        t.map(|x| x.max(self.now))
    }

    /// Runs every *memory-only step* up to and including `limit`, and
    /// returns how many ran (DESIGN.md §4c has the full contract).
    ///
    /// A memory-only step is a time `t` at which [`advance`](Self::advance)
    /// would find only memory work: no staged effect and no component's
    /// wakeup outside memory is due by `t`, and no due memory system may
    /// finish a job ([`MemorySystem::may_finish_job`]). A component due
    /// alone runs one [`MemorySystem::run_stretch`] up to the next other
    /// component's indexed wakeup, the visible horizon or past `limit`,
    /// and the engine records the stretch in one update
    /// ([`Engine::record_stretch`]). Components due together take one
    /// step each, in the index's pop order, as one advance. Either way
    /// the engine ends as the per-event drive would leave it, with the
    /// same advance and poll counts plus `fast_forwarded`, and the host
    /// and DIMM polls around the steps are skipped. The loop stops at
    /// the first step that is not memory-only, so the caller's next
    /// `advance` never revisits a fast-forwarded time.
    pub(crate) fn fast_forward(&mut self, limit: SimTime) -> u64 {
        self.refresh_wakeups();
        let horizon = self.visible_horizon();
        let mut steps = 0;
        while let Some(t) = self.engine.earliest().map(|t| t.max(self.now)) {
            if t > limit || t >= horizon {
                break;
            }
            if let Some((id, other)) = self.engine.due_alone(t) {
                let past_limit = limit
                    .checked_add(SimTime::from_ps(1))
                    .unwrap_or(SimTime::MAX);
                let before = horizon.min(past_limit).min(other.unwrap_or(SimTime::MAX));
                let run = self.mem_mut(id).run_stretch(t, before, u64::MAX);
                if run.steps == 0 {
                    break; // it may finish a job at `t`
                }
                self.now = run.last;
                let w = self.wakeup_after_mem(id, run.next);
                self.engine.record_stretch(id, run.steps, run.last, w);
                steps += run.steps;
                continue;
            }
            // A tie: one step of each due component, in pop order.
            if self
                .engine
                .due(t)
                .any(|id| self.mem_of(id).may_finish_job(t))
            {
                break;
            }
            self.now = t;
            self.engine.begin(t);
            self.engine.start_round();
            while let Some(id) = self.engine.pop_dirty() {
                let run = self.mem_mut(id).run_stretch(t, SimTime::MAX, 1);
                debug_assert_eq!((run.steps, run.last), (1, t), "tie step of {id}");
            }
            let ids = self
                .engine
                .drain_touched_into(std::mem::take(&mut self.engine_scratch));
            for &id in &ids {
                let w = self.wakeup_after_mem(id, self.mem_of(id).next_event());
                self.engine.set_wakeup(id, w);
            }
            self.engine_scratch = ids;
            self.engine.stats.fast_forwarded.inc();
            steps += 1;
        }
        steps
    }

    /// Component `id`'s wakeup when its memory's next event is
    /// `mem_next`: that or its recorded wakeup outside memory, which
    /// memory-only steps do not move. Debug builds check it against a
    /// full [`wakeup_of`](Self::wakeup_of).
    fn wakeup_after_mem(&self, id: usize, mem_next: Option<SimTime>) -> Option<SimTime> {
        let w = [self.visible[id], mem_next].into_iter().flatten().min();
        debug_assert_eq!(
            w,
            self.wakeup_of(id),
            "fast-forward wakeup of {id} at {}",
            self.now
        );
        w
    }

    /// The earliest time anything visible is due: the earliest recorded
    /// wakeup outside memory (stack output and timers, processes, staged
    /// DIMM driver work) or the staged-effect head. Memory steps that
    /// finish no job move neither. Debug builds re-query every component
    /// and check the records against the answers.
    fn visible_horizon(&self) -> SimTime {
        debug_assert_eq!(
            self.visible,
            std::iter::once(self.host.next_event_outside_mem())
                .chain(self.dimms.iter().map(McnDimm::next_event_outside_mem))
                .collect::<Vec<_>>(),
            "stale visible wakeups at {}",
            self.now
        );
        self.visible
            .iter()
            .flatten()
            .copied()
            .chain(self.effects.peek_time())
            .min()
            .unwrap_or(SimTime::MAX)
    }

    /// Processes everything due at time `t`.
    ///
    /// Convergence is driven by a dirty list instead of a full sweep: the
    /// wakeup index seeds the components whose deadlines are due, each
    /// delivered effect marks its target, and a component reporting
    /// [`Activity::Active`] is re-polled next round until it quiesces.
    pub fn advance(&mut self, t: SimTime) -> Activity {
        assert!(t >= self.now, "time must not go backwards");
        self.now = t;
        self.refresh_wakeups();
        self.engine.begin(t);
        let mut any = false;
        for round in 0.. {
            if round >= 100_000 {
                panic!("{}", self.stall_report("system advance did not converge"));
            }
            let mut changed = false;

            // Due staged effects; each delivery marks its target dirty.
            while let Some((_, e)) = self.effects.pop_if_due(t) {
                self.apply(e, t);
                changed = true;
            }

            // Poll only the components named on the dirty list.
            if self.engine.start_round() {
                while let Some(id) = self.engine.pop_dirty() {
                    let active = if id == HOST_ID {
                        self.advance_host(t)
                    } else {
                        self.advance_dimm(id - 1 - HOST_ID, t)
                    };
                    if active {
                        // It made progress; it may have enabled more of
                        // its own work at `t`. Re-poll next round.
                        self.engine.mark_dirty(id);
                        changed = true;
                    }
                }
            }

            if !changed {
                break;
            }
            any = true;
            self.engine.note_round();
        }
        let ids = self
            .engine
            .drain_touched_into(std::mem::take(&mut self.engine_scratch));
        for &id in &ids {
            self.requery(id);
        }
        self.engine_scratch = ids;
        Activity::from_flag(any)
    }

    /// Host progress at `t`: memory-job completions → driver ops (NIC DMA
    /// jobs belong to the rack orchestrator), stack timers, processes,
    /// outbound frames. Errors are counted and the run continues — fault
    /// injection can legitimately produce them.
    fn advance_host(&mut self, t: SimTime) -> bool {
        let mut changed = false;
        for (waiter, job) in self.host.advance_mem(t) {
            if waiter == HOST_DRV_WAITER {
                if let Err(e) = self.on_host_job(job, t) {
                    self.hdrv.stats.ring.count(e);
                }
            } else {
                self.foreign_jobs.push((waiter, job));
            }
            changed = true;
        }
        self.host.service_stack(t);
        if self.host.run_procs(t) {
            changed = true;
        }
        if self.drain_host_stack(t) {
            changed = true;
        }
        changed
    }

    /// DIMM progress at `t`; its signals feed the host side.
    fn advance_dimm(&mut self, d: usize, t: SimTime) -> bool {
        let mut changed = false;
        for sig in self.dimms[d].advance(t) {
            changed = true;
            match sig {
                DimmSignal::TxPollRaised(at) => {
                    if self.cfg.alert_interrupt {
                        if self.alert_faults.fires(FaultKind::Drop) {
                            // Lost interrupt edge: nothing is scheduled;
                            // the fallback poller (armed iff alert faults
                            // are active) finds the pending ring data
                            // later.
                            self.hdrv.stats.alerts_dropped.inc();
                            continue;
                        }
                        let mut latency = ALERT_LATENCY;
                        if self.alert_faults.fires(FaultKind::Delay) {
                            self.hdrv.stats.alerts_delayed.inc();
                            latency += SimTime::from_us(1 + self.alert_faults.rng().next_below(4));
                        }
                        let channel = self.dimms[d].channel();
                        self.effects
                            .schedule((at + latency).max(t), Effect::HostAlert { channel });
                    }
                }
                DimmSignal::RxSpaceFreed => {
                    self.effects.schedule(t, Effect::TryPortTx { port: d });
                }
            }
        }
        changed
    }

    /// Charges TX protocol processing for frames the host stack queued on
    /// MCN interfaces and stages them into the driver.
    fn drain_host_stack(&mut self, now: SimTime) -> bool {
        let mut any = false;
        if let Some(nic_if) = self.nic_ifidx {
            while let Some(frame) = self.host.stack.poll_output(nic_if) {
                let proto = tx_protocol_cost(&self.host.cost, &frame, false);
                let core = self.host.cpus.least_loaded();
                self.host.cpus.run_on(core, now, proto);
                self.external_out.push(frame);
                any = true;
            }
        }
        for p in 0..self.hdrv.ports.len() {
            let (ifidx, core) = (self.hdrv.ports[p].ifidx, self.hdrv.ports[p].core);
            while let Some(frame) = self.host.stack.poll_output(ifidx) {
                let sw_csum = !self.cfg.checksum_bypass;
                let proto = tx_protocol_cost(&self.host.cost, &frame, sw_csum);
                let (_, end) = self.host.cpus.run_on(core, now, proto);
                self.effects
                    .schedule(end, Effect::PortXmit { port: p, frame });
                any = true;
            }
        }
        any
    }

    fn apply(&mut self, e: Effect, now: SimTime) {
        // Mark the component this effect lands on: DIMM-side deliveries
        // touch the DIMM, everything else runs host CPUs / memory / stack.
        match &e {
            Effect::DimmIrq { dimm } | Effect::DimmKick { dimm } => {
                self.engine.mark_dirty(dimm_id(*dimm));
            }
            Effect::Crash { dimm } | Effect::PowerOn { dimm } | Effect::Reinit { dimm } => {
                // Lifecycle events touch both sides of the channel.
                self.engine.mark_dirty(dimm_id(*dimm));
                self.engine.mark_dirty(HOST_ID);
            }
            _ => self.engine.mark_dirty(HOST_ID),
        }
        match e {
            Effect::PortXmit { port, frame } => {
                self.hdrv.ports[port].tx_queue.push_back(frame);
                self.try_port_tx(port, now);
            }
            Effect::TryPortTx { port } => self.try_port_tx(port, now),
            Effect::StartTxCopy { port, frame } => {
                self.issue_copy(port, HostCopy::ToDimm(frame), now, 0)
            }
            Effect::Poll { channel, fallback } => {
                let rounds = if fallback {
                    &mut self.hdrv.stats.fallback_polls
                } else {
                    &mut self.hdrv.stats.polls
                };
                rounds.inc();
                let core = self.poll_core(channel);
                let host = &mut *self.host;
                let (_, end) = host.cpus.run_on(core, now, host.cost.hrtimer());
                self.issue_poll_checks(channel, end, fallback);
                // Pace the next poll by the core, not just the timer: a
                // busy core takes its timer interrupt late, it does not
                // accumulate an unbounded backlog of polling work.
                let next = (now + poll_period(&self.sys, fallback)).max(end);
                self.effects
                    .schedule(next, Effect::Poll { channel, fallback });
            }
            Effect::HostAlert { channel } => {
                self.hdrv.stats.alerts.inc();
                let core = self.poll_core(channel);
                let host = &mut *self.host;
                let (_, end) = host.cpus.run_on(core, now, host.cost.irq());
                self.issue_poll_checks(channel, end, false);
            }
            Effect::DmaWatchdog { key } => self.on_dma_watchdog(key, now),
            Effect::StartHostRx { port } => self.start_host_rx(port, now),
            Effect::HostDeliver { ifidx, frame } => {
                if frame.ethertype == mcn_net::EtherType::Other(crate::dimm::DIRECT_ETHERTYPE) {
                    // Sec. VII bypass: straight to user space.
                    let src = self
                        .dimms
                        .iter()
                        .position(|x| x.mac() == frame.src)
                        .unwrap_or(0);
                    self.direct_rx.push((now, src, frame.payload));
                } else {
                    self.host.stack.on_frame(ifidx, frame, now);
                    self.host.drain_stack_events();
                }
            }
            Effect::DimmIrq { dimm } => self.dimms[dimm].on_rx_poll(now),
            Effect::DimmKick { dimm } => self.dimms[dimm].kick_tx(now),
            Effect::Crash { dimm } => self.do_crash(dimm, now),
            Effect::PowerOn { dimm } => self.do_power_on(dimm, now),
            Effect::Reinit { dimm } => self.reinit_step(dimm, now),
        }
    }

    /// A DIMM dies: device state wiped, host port down, both links down,
    /// parked DMA transfers for that port discarded. The host driver starts
    /// probing the dead port immediately (exponential backoff, bounded by
    /// `REINIT_MAX_PROBES`), so a device that powers back on inside the
    /// probe budget re-initialises with no further intervention.
    fn do_crash(&mut self, d: usize, now: SimTime) {
        if !self.dimms[d].alive() {
            return;
        }
        // A Reinit timer chain is alive exactly while the link is in a
        // handshake state; only start a new one when the port was Up, so a
        // crash that lands mid-handshake reuses the existing chain.
        let was_up = self.hdrv.ports[d].link == PortLink::Up;
        self.dimms[d].crash(now);
        self.hdrv.port_down(d);
        let ifidx = self.hdrv.ports[d].ifidx;
        self.host.stack.link_down(ifidx);
        self.hdrv.ports[d].link = PortLink::Probe { attempt: 0 };
        if was_up {
            self.effects
                .schedule(now + REINIT_PROBE_INTERVAL, Effect::Reinit { dimm: d });
        }
        // Watchdog-parked DMA transfers targeting the dead port are stale:
        // drop them (their DmaWatchdog effects will find nothing to retry).
        let before = self.stalled.len();
        self.stalled.retain(|_, (port, _, _)| *port != d);
        self.hdrv
            .stats
            .stale_desc_dropped
            .add((before - self.stalled.len()) as u64);
    }

    /// A crashed DIMM powers back on: the device wakes with clean state.
    /// If the probe loop started at crash time is still running, its next
    /// probe finds the device; if it already exhausted its budget and
    /// parked the port, the power-on restarts the handshake.
    fn do_power_on(&mut self, d: usize, now: SimTime) {
        if self.dimms[d].alive() {
            return;
        }
        self.dimms[d].power_on(now);
        if self.hdrv.ports[d].link == PortLink::Down {
            self.hdrv.ports[d].link = PortLink::Probe { attempt: 0 };
            self.effects
                .schedule(now + REINIT_STEP, Effect::Reinit { dimm: d });
        }
    }

    /// One step of the re-init handshake: probe (with exponential backoff
    /// against a still-dead device, bounded by `REINIT_MAX_PROBES`), then
    /// ring reset, then MAC re-announce, then link up on both sides.
    fn reinit_step(&mut self, d: usize, now: SimTime) {
        let channel = self.hdrv.ports[d].channel;
        let core = self.poll_core(channel);
        match self.hdrv.ports[d].link {
            PortLink::Probe { attempt } => {
                self.hdrv.stats.probes_sent.inc();
                let host = &mut *self.host;
                host.cpus.run_on(core, now, host.cost.poll_check());
                if self.dimms[d].alive() {
                    self.hdrv.ports[d].link = PortLink::RingReset;
                    self.effects
                        .schedule(now + REINIT_STEP, Effect::Reinit { dimm: d });
                } else if attempt + 1 >= REINIT_MAX_PROBES {
                    // Probe budget exhausted: park the port down. A later
                    // power-on restarts the handshake from scratch.
                    self.hdrv.stats.reinit_failures.inc();
                    self.hdrv.ports[d].link = PortLink::Down;
                } else {
                    self.hdrv.stats.probe_retries.inc();
                    self.hdrv.ports[d].link = PortLink::Probe {
                        attempt: attempt + 1,
                    };
                    let delay = REINIT_PROBE_INTERVAL
                        .as_ps()
                        .saturating_mul(1u64 << attempt.min(20));
                    self.effects
                        .schedule(now + SimTime::from_ps(delay), Effect::Reinit { dimm: d });
                }
            }
            PortLink::RingReset => {
                // The host re-zeroes both rings' control words through the
                // SRAM window: whatever either side believed pre-crash is
                // now definitively gone.
                self.hdrv.stats.ring_resets.inc();
                self.dimms[d].sram.reset();
                self.hdrv.ports[d].link = PortLink::MacAnnounce;
                self.effects
                    .schedule(now + REINIT_STEP, Effect::Reinit { dimm: d });
            }
            PortLink::MacAnnounce => {
                self.hdrv.stats.mac_announces.inc();
                self.hdrv.stats.reinits_completed.inc();
                self.hdrv.ports[d].link = PortLink::Up;
                let ifidx = self.hdrv.ports[d].ifidx;
                self.host.stack.link_up(ifidx);
                self.host.service_stack(now);
                self.dimms[d].link_restored(now);
                // Both sides may have retransmissions queued behind RTOs;
                // kick the data path so pending work moves immediately.
                self.effects.schedule(now, Effect::TryPortTx { port: d });
                self.effects.schedule(now, Effect::DimmKick { dimm: d });
            }
            PortLink::Up | PortLink::Down => {} // stale handshake timer
        }
    }

    /// One uncached `tx-poll` line read per DIMM on the channel.
    fn issue_poll_checks(&mut self, channel: u32, at: SimTime, via_fallback: bool) {
        let core = self.poll_core(channel);
        for port in 0..self.hdrv.ports.len() {
            let p = &self.hdrv.ports[port];
            if p.channel != channel || p.link != PortLink::Up {
                continue; // another channel, or dead or re-initialising
            }
            let host = &mut *self.host;
            host.cpus.run_on(core, at, host.cost.poll_check());
            let job = host.mem.start(
                Transfer::Single {
                    pat: Pattern::sram(p.sram_base, p.sram_stride),
                    kind: mcn_dram::MemKind::Read,
                    bytes: 64,
                },
                HOST_DRV_WAITER,
                at,
            );
            self.hdrv
                .pending
                .insert(job.0, HostOp::PollCheck { port, via_fallback });
        }
    }

    /// Issues a copy between host memory and port `port`'s SRAM window:
    /// `memcpy_to_mcn` of one frame or `memcpy_from_mcn` of the whole TX
    /// ring (the port's `rx_busy` must already be held). A stalled DMA
    /// descriptor parks the copy behind the watchdog instead. `attempt` 0
    /// is the normal path; the watchdog re-enters with higher attempts,
    /// and once the retry budget is spent the copy degrades to a CPU copy.
    fn issue_copy(&mut self, port: usize, copy: HostCopy, now: SimTime, attempt: u32) {
        if self.cfg.dma && attempt < DMA_MAX_ATTEMPTS && self.dma_faults.fires(FaultKind::Stall) {
            self.hdrv.stats.dma_stalls.inc();
            let key = self.stall_seq;
            self.stall_seq += 1;
            self.stalled.insert(key, (port, copy, attempt));
            // Exponential backoff: each retry doubles the deadline.
            let deadline = DMA_WATCHDOG_DEADLINE * (1u64 << attempt);
            self.effects
                .schedule(now + deadline, Effect::DmaWatchdog { key });
            return;
        }
        // A copy that exhausted its DMA retries runs as a CPU copy —
        // slower, but it completes.
        let cpu_fallback = self.cfg.dma && attempt >= DMA_MAX_ATTEMPTS;
        if cpu_fallback {
            self.hdrv.stats.dma_fallbacks.inc();
        }
        let p = &self.hdrv.ports[port];
        let window = Pattern::sram(p.sram_base, p.sram_stride);
        // Each copy also moves the ring's control line. A transmit paid
        // its CPU share up front (`try_port_tx`), so its copy charges the
        // port core only when the DMA engine gave up on it; a receive
        // charges the polling core unless the DMA engine runs it.
        let (bytes, core, cpu_work) = match &copy {
            HostCopy::ToDimm(frame) => {
                let bytes = SramBuffer::message_len(frame) + 64;
                let work = cpu_fallback.then(|| self.host.cost.sram_write_copy(bytes));
                (bytes, p.core, work)
            }
            HostCopy::FromDimm => {
                let bytes = self.dimms[port].sram.used(Dir::Tx) + 64;
                let work =
                    (!self.cfg.dma || cpu_fallback).then(|| self.host.cost.sram_read_copy(bytes));
                (bytes, self.poll_core(p.channel), work)
            }
        };
        let kernel = Pattern::dram(self.scratch.alloc(bytes as u64));
        let start = match cpu_work {
            Some(work) => self.host.cpus.run_on(core, now, work).1,
            None => now,
        };
        let (src, dst) = match copy {
            HostCopy::ToDimm(_) => (kernel, window),
            HostCopy::FromDimm => (window, kernel),
        };
        // CPU copies to uncached/WC windows sustain limited memory-level
        // parallelism; the MCN-DMA engine pipelines deeply (the mcn5 gain).
        let mlp = if self.cfg.dma && !cpu_fallback { 16 } else { 4 };
        let job = self.host.mem.start_with_mlp(
            Transfer::Copy {
                src,
                dst,
                bytes: bytes as u64,
            },
            HOST_DRV_WAITER,
            mlp,
            start,
        );
        self.hdrv.pending.insert(
            job.0,
            HostOp::Copy {
                port,
                copy,
                started: now,
            },
        );
    }

    /// A watchdog deadline fired: the parked copy is retried (the
    /// descriptor is re-issued) or, out of retries, degraded to a CPU copy.
    fn on_dma_watchdog(&mut self, key: u64, now: SimTime) {
        let Some((port, copy, attempt)) = self.stalled.remove(&key) else {
            return; // already recovered
        };
        self.hdrv.stats.dma_retries.inc();
        self.issue_copy(port, copy, now, attempt + 1);
    }

    fn try_port_tx(&mut self, port: usize, now: SimTime) {
        let p = &mut self.hdrv.ports[port];
        if p.link != PortLink::Up {
            // Frames staged before the crash landed on a dead port: discard
            // them — the transport retransmits once the link heals.
            let lost = p.tx_queue.len() as u64;
            p.tx_queue.clear();
            self.hdrv.stats.stale_desc_dropped.add(lost);
            return;
        }
        if p.tx_busy {
            return;
        }
        let Some(frame) = p.tx_queue.front() else {
            return;
        };
        let need = SramBuffer::message_len(frame);
        if self.dimms[port].sram.free_space(Dir::Rx) < need {
            self.hdrv.stats.ring.tx_busy_events.inc();
            return; // retried on RxSpaceFreed
        }
        let frame = p.tx_queue.pop_front().expect("checked");
        p.tx_busy = true;
        // CPU involvement: driver bookkeeping plus, for CPU-driven copies,
        // the per-byte memcpy issue work. The channel occupancy itself is
        // modelled by the copy job; charging the job's *elapsed* time on the
        // core would double-count wall-clock the core already spent on
        // other work, so the CPU share is charged up front instead.
        let work = if self.cfg.dma {
            self.host.cost.driver_tx() + DMA_SETUP
        } else {
            self.host.cost.driver_tx() + self.host.cost.sram_write_copy(need)
        };
        let core = p.core;
        let (_, end) = self.host.cpus.run_on(core, now, work);
        self.effects
            .schedule(end, Effect::StartTxCopy { port, frame });
    }

    fn start_host_rx(&mut self, port: usize, now: SimTime) {
        let p = &mut self.hdrv.ports[port];
        if p.rx_busy {
            return;
        }
        if self.dimms[port].sram.used(Dir::Tx) == 0 {
            return;
        }
        p.rx_busy = true;
        self.issue_copy(port, HostCopy::FromDimm, now, 0);
    }

    fn on_host_job(&mut self, job: JobId, now: SimTime) -> Result<(), McnError> {
        // A copy or poll job that completes against a port the crash took
        // down read (or would write) pre-crash ring state the device no
        // longer owns: discard the result instead of consuming it.
        if let Some(op) = self.hdrv.pending.get(&job.0) {
            let (HostOp::PollCheck { port, .. } | HostOp::Copy { port, .. }) = *op;
            if self.hdrv.ports[port].link != PortLink::Up {
                self.hdrv.pending.remove(&job.0);
                self.hdrv.stats.stale_desc_dropped.inc();
                return Ok(());
            }
        }
        match self.hdrv.pending.remove(&job.0) {
            Some(HostOp::PollCheck { port, via_fallback }) => {
                if self.dimms[port].sram.poll_flag(Dir::Tx) && !self.hdrv.ports[port].rx_busy {
                    if via_fallback {
                        // Pending TX data with no alert in flight: a dropped
                        // ALERT_N that would have hung the ring forever.
                        self.hdrv.stats.alert_recoveries.inc();
                    }
                    self.start_host_rx(port, now);
                }
            }
            Some(HostOp::Copy {
                port,
                copy: HostCopy::ToDimm(frame),
                started,
            }) => {
                let p = &mut self.hdrv.ports[port];
                p.tx_busy = false;
                self.effects.schedule(now, Effect::TryPortTx { port });
                let pushed = self.dimms[port].sram.push_frame(
                    Dir::Rx,
                    &frame,
                    &mut p.faults,
                    &mut self.hdrv.stats.ring,
                    McnSide::Host,
                    now.saturating_sub(started),
                )?;
                if !pushed.dropped {
                    self.effects.schedule(now, Effect::DimmIrq { dimm: port });
                }
            }
            Some(HostOp::Copy {
                port,
                copy: HostCopy::FromDimm,
                started,
            }) => {
                let core = self.poll_core(self.hdrv.ports[port].channel);
                let frames = self.dimms[port]
                    .sram
                    .drain_frames(Dir::Tx, &mut self.hdrv.stats.ring);
                self.effects.schedule(now, Effect::DimmKick { dimm: port });
                let host_macs = self.hdrv.host_macs();
                let dimm_macs: Vec<MacAddr> = self.dimms.iter().map(|x| x.mac()).collect();
                for frame in frames {
                    self.hdrv.stats.ring.rx_frames.inc();
                    match classify(&frame, &host_macs, &dimm_macs) {
                        ForwardClass::Host => {
                            self.hdrv.stats.f1_host.inc();
                            self.deliver_to_host(port, frame, core, started, now);
                        }
                        ForwardClass::Dimm(j) => {
                            self.hdrv.stats.f3_forward.inc();
                            let host = &mut *self.host;
                            let (_, end) = host.cpus.run_on(core, now, host.cost.driver_rx());
                            self.effects
                                .schedule(end, Effect::PortXmit { port: j, frame });
                        }
                        ForwardClass::Broadcast => {
                            self.hdrv.stats.f2_broadcast.inc();
                            self.deliver_to_host(port, frame.clone(), core, started, now);
                            for j in 0..self.dimms.len() {
                                if j != port {
                                    self.effects.schedule(
                                        now,
                                        Effect::PortXmit {
                                            port: j,
                                            frame: frame.clone(),
                                        },
                                    );
                                }
                            }
                        }
                        ForwardClass::External => {
                            // F4: out the conventional NIC (paper
                            // `dev_queue_xmit`), if the server has one.
                            self.hdrv.stats.f4_external.inc();
                            if self.nic_ifidx.is_some() {
                                self.external_out.push(frame);
                            }
                        }
                    }
                }
                self.hdrv.ports[port].rx_busy = false;
                if self.dimms[port].sram.poll_flag(Dir::Tx) {
                    self.effects.schedule(now, Effect::StartHostRx { port });
                }
            }
            None => {
                return Err(McnError::UnknownJob {
                    job,
                    side: McnSide::Host,
                })
            }
        }
        Ok(())
    }

    /// Delivers a frame that arrived from outside (another server's host,
    /// via the conventional NIC): routed by destination IP — to a local
    /// DIMM through the normal T1–T3 transmit path, or up the host stack.
    /// Receive-side NIC costs are the caller's (rack) business. Returns
    /// false, dropping the frame, when its payload is not an IPv4 packet.
    pub fn ingress_external(&mut self, frame: EthernetFrame, now: SimTime) -> bool {
        assert!(now >= self.now, "ingress in the past");
        self.now = self.now.max(now);
        let Ok(pkt) = mcn_net::Ipv4Packet::decode(&frame.payload) else {
            return false;
        };
        if let Some(port) = self.dimms.iter().position(|d| d.ip() == pkt.dst) {
            // Re-address at L2 for the point-to-point hop and transmit.
            let mut f = frame;
            f.dst = self.dimms[port].mac();
            f.src = self.hdrv.ports[port].mac;
            self.effects
                .schedule(now, Effect::PortXmit { port, frame: f });
        } else {
            // Host-local (or dropped by the stack's own checks): deliver on
            // the NIC interface it physically arrived on.
            let ifidx = self.nic_ifidx.unwrap_or(0);
            let mut f = frame;
            f.dst = Self::nic_mac_in(self.rack_id, self.server_id);
            self.effects
                .schedule(now, Effect::HostDeliver { ifidx, frame: f });
        }
        self.advance(now);
        true
    }

    fn deliver_to_host(
        &mut self,
        port: usize,
        frame: EthernetFrame,
        core: usize,
        started: SimTime,
        now: SimTime,
    ) {
        let sw_csum = !self.cfg.checksum_bypass;
        // Driver work (ring cleanup, sk_buff) stays on the polling core;
        // protocol processing is steered to the port's core (RPS-style),
        // sequenced after the driver hands the packet off.
        let host = &mut *self.host;
        let (_, handoff) = host.cpus.run_on(core, now, host.cost.driver_rx());
        let proto = rx_protocol_cost(&host.cost, &frame, sw_csum);
        let proto_core = self.hdrv.ports[port].core;
        let (_, end) = host.cpus.run_on(proto_core, handoff, proto);
        self.hdrv
            .stats
            .ring
            .driver_rx
            .record(end.saturating_sub(started));
        // F1 frames may target *any* host-side interface's MAC (an MCN node
        // reaches all host addresses through its one link); hand the frame
        // to the interface it names, not the port it arrived on.
        let ifidx = self
            .hdrv
            .ports
            .iter()
            .find(|p| p.mac == frame.dst)
            .map(|p| p.ifidx)
            .unwrap_or(self.hdrv.ports[port].ifidx);
        self.effects
            .schedule(end, Effect::HostDeliver { ifidx, frame });
    }
}

impl Component for McnSystem {
    fn now(&self) -> SimTime {
        McnSystem::now(self)
    }
    fn next_event(&mut self) -> Option<SimTime> {
        McnSystem::next_event(self)
    }
    fn next_event_within(&mut self, limit: SimTime) -> Option<SimTime> {
        self.fast_forward(limit);
        McnSystem::next_event(self)
    }
    fn advance(&mut self, t: SimTime) -> Activity {
        McnSystem::advance(self, t)
    }
    fn procs_done(&self) -> bool {
        self.all_procs_done()
    }
    fn engine_accounting(&self, out: &mut Vec<(EngineStats, usize)>) {
        out.push((self.engine.stats, 1 + self.dimms.len()));
    }
}

impl Instrumented for McnSystem {
    /// The server's whole counter tree, rooted at this scope: `host.*`
    /// (CPU, memory channels, stack + TCP), `driver.*` (the host-side MCN
    /// driver), `dimm{M}.*` per DIMM, `engine.*` scheduler work and the
    /// current clock as `now_ps` — so a snapshot diff carries elapsed
    /// simulated time alongside the counters. A rack absorbs this same
    /// tree under `srv{N}`, which is what keeps paths stable across
    /// standalone and embedded use.
    fn metrics(&self, out: &mut MetricSink) {
        out.counter("now_ps", self.now.as_ps());
        out.absorb("host", &*self.host);
        out.absorb("driver", &self.hdrv);
        for (d, dimm) in self.dimms.iter().enumerate() {
            out.absorb(&format!("dimm{d}"), dimm);
        }
        out.absorb("engine", &self.engine.stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use mcn_sim::ComponentExt;

    fn mk(n_dimms: usize, level: u32) -> McnSystem {
        McnSystem::new(&SystemConfig::default(), n_dimms, McnConfig::level(level))
    }

    #[test]
    fn builds_with_paper_addressing() {
        let sys = mk(4, 0);
        assert_eq!(sys.dimms(), 4);
        assert_eq!(McnSystem::host_if_ip(0), Ipv4Addr::new(10, 1, 0, 1));
        assert_eq!(sys.dimm_ip(3), Ipv4Addr::new(10, 4, 0, 2));
        // DIMMs spread across 2 host channels.
        assert_eq!(sys.dimm(0).channel(), 0);
        assert_eq!(sys.dimm(1).channel(), 1);
        assert_eq!(sys.dimm(2).channel(), 0);
    }

    #[test]
    #[should_panic(expected = "address plan supports 0-24 DIMMs per server")]
    fn more_than_24_dimms_are_rejected() {
        // DIMM 24 of server 0 would be 10.25.0.2, server 1's DIMM 0.
        mk(25, 0);
    }

    #[test]
    fn host_to_dimm_udp_roundtrip() {
        // The full path: host app → stack → port driver → memcpy_to_mcn →
        // SRAM → DIMM IRQ → DIMM driver → DIMM stack → (UDP echo app would
        // reply; here we check one-way delivery) — all at mcn0.
        let mut sys = mk(1, 0);
        let dimm_ip = sys.dimm_ip(0);
        let us = sys.host.stack.udp_bind(5000).unwrap();
        let ud = sys.dimm_mut(0).node.stack.udp_bind(6000).unwrap();
        sys.host
            .stack
            .udp_send(
                us,
                dimm_ip,
                6000,
                Bytes::from(vec![9u8; 1000]),
                SimTime::ZERO,
            )
            .unwrap();
        sys.run_until(SimTime::from_us(200));
        let (src, sport, data) = sys
            .dimm_mut(0)
            .node
            .stack
            .udp_recv(ud)
            .expect("datagram crossed the memory channel");
        assert_eq!(src, Ipv4Addr::new(10, 1, 0, 1));
        assert_eq!(sport, 5000);
        assert_eq!(data.len(), 1000);
        assert_eq!(sys.hdrv.stats.ring.tx_frames.get(), 1);
        assert_eq!(sys.dimm(0).stats.ring.rx_frames.get(), 1);
    }

    #[test]
    fn dimm_to_host_udp_with_polling() {
        let mut sys = mk(1, 0);
        let uh = sys.host.stack.udp_bind(5000).unwrap();
        let ud = sys.dimm_mut(0).node.stack.udp_bind(6000).unwrap();
        let host_ip = McnSystem::host_if_ip(0);
        sys.dimm_mut(0)
            .node
            .stack
            .udp_send(
                ud,
                host_ip,
                5000,
                Bytes::from(vec![3u8; 500]),
                SimTime::ZERO,
            )
            .unwrap();
        sys.run_until(SimTime::from_us(200));
        let (src, _, data) = sys.host.stack.udp_recv(uh).expect("delivered via polling");
        assert_eq!(src, sys.dimm_ip(0));
        assert_eq!(data.len(), 500);
        assert!(sys.hdrv.stats.polls.get() > 0, "mcn0 must poll");
        assert_eq!(sys.hdrv.stats.alerts.get(), 0);
        assert_eq!(sys.hdrv.stats.f1_host.get(), 1);
    }

    #[test]
    fn dimm_to_host_with_alert_interrupt() {
        let mut sys = mk(1, 1);
        let uh = sys.host.stack.udp_bind(5000).unwrap();
        let ud = sys.dimm_mut(0).node.stack.udp_bind(6000).unwrap();
        sys.dimm_mut(0)
            .node
            .stack
            .udp_send(
                ud,
                McnSystem::host_if_ip(0),
                5000,
                Bytes::from(vec![4u8; 500]),
                SimTime::ZERO,
            )
            .unwrap();
        sys.run_until(SimTime::from_us(200));
        assert!(sys.host.stack.udp_recv(uh).is_some());
        assert_eq!(sys.hdrv.stats.polls.get(), 0, "mcn1 must not poll");
        assert!(sys.hdrv.stats.alerts.get() > 0);
    }

    #[test]
    fn dimm_to_dimm_forwarded_by_host_f3() {
        let mut sys = mk(2, 1);
        let u1 = sys.dimm_mut(1).node.stack.udp_bind(7000).unwrap();
        let u0 = sys.dimm_mut(0).node.stack.udp_bind(6000).unwrap();
        let dimm1_ip = sys.dimm_ip(1);
        sys.dimm_mut(0)
            .node
            .stack
            .udp_send(
                u0,
                dimm1_ip,
                7000,
                Bytes::from(vec![5u8; 800]),
                SimTime::ZERO,
            )
            .unwrap();
        sys.run_until(SimTime::from_us(500));
        let (src, _, data) = sys
            .dimm_mut(1)
            .node
            .stack
            .udp_recv(u1)
            .expect("mcn-mcn via host forwarding engine");
        assert_eq!(src, sys.dimm_ip(0));
        assert_eq!(data.len(), 800);
        assert_eq!(sys.hdrv.stats.f3_forward.get(), 1);
        assert_eq!(sys.hdrv.stats.f1_host.get(), 0);
    }

    #[test]
    fn host_dimm_ping_rtt_is_microseconds() {
        let mut sys = mk(1, 0);
        let dimm_ip = sys.dimm_ip(0);
        sys.host
            .stack
            .send_ping(dimm_ip, 7, 1, Bytes::from(vec![0u8; 56]), SimTime::ZERO)
            .unwrap();
        sys.run_until(SimTime::from_ms(1));
        let (from, ident, seq, len) = sys
            .host
            .stack
            .pop_ping_reply()
            .expect("echo reply should return");
        assert_eq!((from, ident, seq, len), (dimm_ip, 7, 1, 56));
    }

    #[test]
    fn tcp_across_the_memory_channel() {
        let mut sys = mk(1, 3);
        let dimm_ip = sys.dimm_ip(0);
        let lst = sys.dimm_mut(0).node.stack.tcp_listen(5001).unwrap();
        let cs = sys
            .host
            .stack
            .tcp_connect(dimm_ip, 5001, SimTime::ZERO)
            .unwrap();
        sys.run_until(SimTime::from_ms(1));
        assert_eq!(
            sys.host.stack.tcp_state(cs),
            mcn_net::tcp::TcpState::Established
        );
        let ss = sys.dimm_mut(0).node.stack.tcp_accept(lst).unwrap();
        // Move 256 KB host → DIMM.
        let data: Vec<u8> = (0..256 * 1024u32).map(|i| (i % 251) as u8).collect();
        let mut sent = 0;
        let mut got = Vec::new();
        let mut buf = vec![0u8; 65536];
        let mut guard = 0;
        while got.len() < data.len() {
            let now = sys.now();
            if sent < data.len() {
                sent += sys.host.stack.tcp_send(cs, &data[sent..], now).unwrap();
            }
            let next = sys.now() + SimTime::from_us(50);
            sys.run_until(next);
            loop {
                let now = sys.now();
                let n = sys
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
            assert!(
                guard < 20_000,
                "transfer stalled at {} bytes\n{}",
                got.len(),
                sys.stall_report("tcp transfer stalled")
            );
        }
        assert_eq!(got, data, "byte-exact delivery over the memory channel");
    }

    #[test]
    fn dropped_alerts_recovered_by_fallback_poller() {
        use mcn_sim::fault::{FaultKind, FaultPlan};
        // Every ALERT_N edge is lost; without the fallback poller the TX
        // ring data would sit forever (mcn1 has no HR-timer poller).
        let mut plan = FaultPlan::new(17);
        plan.rate(&McnSystem::alert_fault_component(0), FaultKind::Drop, 1.0);
        let mut sys =
            McnSystem::with_faults(&SystemConfig::default(), 1, McnConfig::level(1), &plan);
        let uh = sys.host.stack.udp_bind(5000).unwrap();
        let ud = sys.dimm_mut(0).node.stack.udp_bind(6000).unwrap();
        sys.dimm_mut(0)
            .node
            .stack
            .udp_send(
                ud,
                McnSystem::host_if_ip(0),
                5000,
                Bytes::from(vec![4u8; 500]),
                SimTime::ZERO,
            )
            .unwrap();
        sys.run_until(SimTime::from_us(500));
        assert!(
            sys.host.stack.udp_recv(uh).is_some(),
            "fallback poller must deliver despite 100% alert loss\n{}",
            sys.stall_report("alert-drop recovery failed")
        );
        assert!(sys.hdrv.stats.alerts_dropped.get() > 0);
        assert!(sys.hdrv.stats.fallback_polls.get() > 0);
        assert!(sys.hdrv.stats.alert_recoveries.get() > 0);
        assert_eq!(sys.hdrv.stats.alerts.get(), 0, "all edges were dropped");
        assert_eq!(sys.hdrv.stats.polls.get(), 0, "mcn1 HR-timer stays off");
    }

    #[test]
    fn fault_free_alert_runs_never_arm_the_fallback_poller() {
        let mut sys = mk(1, 1);
        sys.run_until(SimTime::from_ms(1));
        assert_eq!(sys.hdrv.stats.fallback_polls.get(), 0);
    }

    #[test]
    fn dma_stalls_retry_then_degrade_to_cpu_copy() {
        use mcn_sim::fault::{FaultKind, FaultPlan};
        // Every DMA descriptor stalls: each copy, host→DIMM and DIMM→host,
        // burns its full retry budget and completes via the CPU-copy path
        // instead of hanging.
        let mut plan = FaultPlan::new(23);
        plan.rate(&McnSystem::dma_fault_component(0), FaultKind::Stall, 1.0);
        let mut sys =
            McnSystem::with_faults(&SystemConfig::default(), 1, McnConfig::level(5), &plan);
        let dimm_ip = sys.dimm_ip(0);
        let ud = sys.dimm_mut(0).node.stack.udp_bind(6000).unwrap();
        let uh = sys.host.stack.udp_bind(5000).unwrap();
        let us = sys.host.stack.udp_bind(5001).unwrap();
        sys.host
            .stack
            .udp_send(
                us,
                dimm_ip,
                6000,
                Bytes::from(vec![9u8; 1000]),
                SimTime::ZERO,
            )
            .unwrap();
        sys.dimm_mut(0)
            .node
            .stack
            .udp_send(
                ud,
                McnSystem::host_if_ip(0),
                5000,
                Bytes::from(vec![8u8; 1000]),
                SimTime::ZERO,
            )
            .unwrap();
        sys.run_until(SimTime::from_ms(2));
        assert!(
            sys.dimm_mut(0).node.stack.udp_recv(ud).is_some(),
            "memcpy_to_mcn must complete via CPU fallback\n{}",
            sys.stall_report("dma-stall recovery failed")
        );
        assert!(
            sys.host.stack.udp_recv(uh).is_some(),
            "memcpy_from_mcn must complete via CPU fallback\n{}",
            sys.stall_report("dma-stall recovery failed")
        );
        // One copy each way, each stalled on both attempts, retried twice
        // and then degraded.
        let h = &sys.hdrv.stats;
        assert_eq!(
            (
                h.dma_stalls.get(),
                h.dma_retries.get(),
                h.dma_fallbacks.get()
            ),
            (4, 4, 2)
        );
    }

    #[test]
    fn sram_faults_are_counted_and_survived() {
        use mcn_sim::fault::{FaultKind, FaultPlan};
        // Host→DIMM pushes suffer heavy loss and corruption; UDP loses
        // datagrams but the system must neither panic nor wedge, and every
        // injected fault must be accounted.
        let mut plan = FaultPlan::new(29);
        plan.rate(
            &McnSystem::sram_host_fault_component(0, 0),
            FaultKind::Drop,
            0.3,
        );
        plan.rate(
            &McnSystem::sram_host_fault_component(0, 0),
            FaultKind::BitFlip,
            0.3,
        );
        let mut sys =
            McnSystem::with_faults(&SystemConfig::default(), 1, McnConfig::level(0), &plan);
        let dimm_ip = sys.dimm_ip(0);
        sys.dimm_mut(0).node.stack.udp_bind(6000).unwrap();
        let us = sys.host.stack.udp_bind(5000).unwrap();
        for i in 0..40 {
            let now = sys.now();
            sys.host
                .stack
                .udp_send(us, dimm_ip, 6000, Bytes::from(vec![i as u8; 600]), now)
                .unwrap();
            sys.run_until(now + SimTime::from_us(50));
        }
        let dropped = sys.hdrv.stats.ring.frames_dropped.get();
        let flipped = sys.hdrv.stats.ring.ecc_escapes.get();
        assert!(dropped > 0, "expected injected drops");
        assert!(flipped > 0, "expected injected bit flips");
        // Conservation: every accepted frame was pushed or counted dropped.
        assert_eq!(sys.hdrv.stats.ring.tx_frames.get() + dropped, 40);
    }

    #[test]
    fn stall_report_names_the_blockage() {
        let mut sys = mk(1, 0);
        let _l = sys.dimm_mut(0).node.stack.tcp_listen(5001).unwrap();
        let dimm_ip = sys.dimm_ip(0);
        let _c = sys
            .host
            .stack
            .tcp_connect(dimm_ip, 5001, SimTime::ZERO)
            .unwrap();
        sys.run_until(SimTime::from_us(100));
        let report = sys.stall_report("probe").to_string();
        assert!(report.contains("probe"), "{report}");
        assert!(report.contains("host sockets"), "{report}");
        assert!(report.contains("tcp"), "{report}");
        assert!(report.contains("rings"), "{report}");
    }

    #[test]
    fn crash_and_power_on_walks_the_reinit_handshake() {
        let mut sys = mk(1, 1);
        let dimm_ip = sys.dimm_ip(0);
        let uh = sys.host.stack.udp_bind(5000).unwrap();
        let ud = sys.dimm_mut(0).node.stack.udp_bind(6000).unwrap();
        let us = sys.host.stack.udp_bind(5001).unwrap();
        // Healthy round trip first.
        sys.dimm_mut(0)
            .node
            .stack
            .udp_send(
                ud,
                McnSystem::host_if_ip(0),
                5000,
                Bytes::from(vec![1u8; 300]),
                SimTime::ZERO,
            )
            .unwrap();
        sys.run_until(SimTime::from_us(200));
        assert!(sys.host.stack.udp_recv(uh).is_some());

        let t = sys.now();
        sys.crash_dimm(0, t);
        assert!(!sys.dimm(0).alive());
        assert!(!sys.hdrv.port_is_up(0));
        assert_eq!(sys.hdrv.stats.port_downs.get(), 1);
        // Traffic into the dead port is dropped at the host link, not hung.
        let now = sys.now();
        sys.host
            .stack
            .udp_send(us, dimm_ip, 6000, Bytes::from(vec![2u8; 300]), now)
            .unwrap();
        let t2 = sys.now() + SimTime::from_us(100);
        sys.run_until(t2);
        assert!(sys.host.stack.stats.link_drops.get() > 0);
        assert!(sys.hdrv.stats.probes_sent.get() >= 1, "probing started");
        assert!(sys.hdrv.stats.probe_retries.get() >= 1, "device still dead");

        // Power back on inside the probe budget: the handshake completes.
        let t3 = sys.now();
        sys.power_on_dimm(0, t3);
        sys.run_until(t3 + SimTime::from_ms(3));
        assert!(sys.hdrv.port_is_up(0), "handshake must bring the port up");
        assert!(sys.dimm(0).alive());
        assert_eq!(sys.dimm(0).stats.crashes.get(), 1);
        assert_eq!(sys.dimm(0).stats.reboots.get(), 1);
        assert_eq!(sys.hdrv.stats.ring_resets.get(), 1);
        assert_eq!(sys.hdrv.stats.mac_announces.get(), 1);
        assert_eq!(sys.hdrv.stats.reinits_completed.get(), 1);
        assert_eq!(sys.hdrv.stats.reinit_failures.get(), 0);

        // Traffic flows again in both directions.
        let t4 = sys.now();
        sys.host
            .stack
            .udp_send(us, dimm_ip, 6000, Bytes::from(vec![3u8; 300]), t4)
            .unwrap();
        sys.dimm_mut(0)
            .node
            .stack
            .udp_send(
                ud,
                McnSystem::host_if_ip(0),
                5000,
                Bytes::from(vec![4u8; 300]),
                t4,
            )
            .unwrap();
        sys.run_until(t4 + SimTime::from_ms(1));
        assert!(sys.dimm_mut(0).node.stack.udp_recv(ud).is_some());
        assert!(sys.host.stack.udp_recv(uh).is_some());
    }

    #[test]
    fn outage_longer_than_probe_budget_parks_then_recovers_on_power_on() {
        let mut sys = mk(1, 1);
        sys.run_until(SimTime::from_us(10));
        let t = sys.now();
        sys.crash_dimm(0, t);
        // Budget: eight probes at 10, 20, 40, ... 1,280 µs, all failing.
        sys.run_until(t + SimTime::from_ms(3));
        assert_eq!(sys.hdrv.stats.reinit_failures.get(), 1);
        assert!(!sys.hdrv.port_is_up(0));
        assert_eq!(sys.hdrv.stats.probes_sent.get(), 8);
        // A later power-on restarts the handshake from scratch.
        let t2 = sys.now();
        sys.power_on_dimm(0, t2);
        sys.run_until(t2 + SimTime::from_ms(1));
        assert!(sys.hdrv.port_is_up(0));
        assert_eq!(sys.hdrv.stats.reinits_completed.get(), 1);
    }

    #[test]
    fn outage_plan_schedules_crash_and_reboot() {
        let mut plan = OutagePlan::new(7);
        // The rack's numbering: a standalone server is server 0.
        plan.down(
            Part::Dimm(0, 0),
            SimTime::from_us(50),
            SimTime::from_us(200),
        );
        let mut sys = mk(1, 1);
        sys.set_outage_plan(&plan);
        sys.run_until(SimTime::from_us(100));
        assert!(!sys.dimm(0).alive(), "crash fires at 50us");
        sys.run_until(SimTime::from_ms(5));
        assert!(sys.dimm(0).alive(), "reboot fires at 250us");
        assert!(sys.hdrv.port_is_up(0), "handshake heals the port");
        assert_eq!(sys.dimm(0).stats.crashes.get(), 1);
        assert_eq!(sys.dimm(0).stats.reboots.get(), 1);
    }

    #[test]
    fn a_standalone_server_counts_and_drops_f4_frames() {
        let mut sys = mk(1, 1);
        let sock = sys.dimm_mut(0).node.stack.udp_bind(7000).unwrap();
        let outside = Ipv4Addr::new(8, 8, 8, 8);
        for _ in 0..5 {
            let payload = Bytes::from(vec![0xF4u8; 200]);
            let stack = &mut sys.dimm_mut(0).node.stack;
            stack
                .udp_send(sock, outside, 53, payload, SimTime::ZERO)
                .unwrap();
        }
        sys.run_until(SimTime::from_ms(1));
        assert_eq!(sys.hdrv.stats.f4_external.get(), 5);
        assert!(
            sys.external_out.is_empty(),
            "no NIC: nothing keeps the frames"
        );
    }

    #[test]
    #[should_panic(expected = "a server has no failure domains: cannot install 'riser0'")]
    fn outage_plan_rejects_failure_domains() {
        let mut plan = OutagePlan::new(7);
        plan.define_domain("riser0", &[Part::Dimm(0, 0)]);
        mk(1, 1).set_outage_plan(&plan);
    }

    #[test]
    #[should_panic(expected = "did not converge")]
    fn a_dimm_process_that_never_settles_fails_instead_of_hanging() {
        use mcn_node::{Poll, ProcCtx, Wake};
        // Wakes itself at the current instant forever and charges nothing:
        // the DIMM's driver loop never settles at t = 0.
        struct Spin;
        impl Process for Spin {
            fn poll(&mut self, ctx: &mut ProcCtx<'_>) -> Poll {
                Poll::Wait(vec![Wake::Timer(ctx.now)])
            }
        }
        let mut sys = mk(1, 0);
        sys.spawn_dimm(0, Box::new(Spin), 1);
        sys.run_until(SimTime::from_us(1));
    }

    /// A process that finishes at its first poll.
    struct Exit;
    impl Process for Exit {
        fn poll(&mut self, _: &mut mcn_node::ProcCtx<'_>) -> mcn_node::Poll {
            mcn_node::Poll::Done
        }
    }

    #[test]
    #[should_panic(expected = "cannot spawn on core 99: the node has 8 cores")]
    fn a_host_spawn_on_a_missing_core_fails_at_the_spawn() {
        mk(1, 1).spawn_host(Box::new(Exit), 99);
    }

    #[test]
    #[should_panic(expected = "cannot spawn on core 4: the node has 4 cores")]
    fn a_dimm_spawn_on_a_missing_core_fails_at_the_spawn() {
        mk(1, 1).spawn_dimm(0, Box::new(Exit), 4);
    }

    #[test]
    fn a_write_through_host_between_drives_is_due_at_once() {
        let mut sys = mk(1, 1);
        let us = sys.host.stack.udp_bind(5000).unwrap();
        sys.run_until(SimTime::from_us(10));
        assert_eq!(sys.next_event(), None, "an idle server");
        let (dimm_ip, now) = (sys.dimm_ip(0), sys.now());
        sys.host
            .stack
            .udp_send(us, dimm_ip, 6000, Bytes::from(vec![1u8; 100]), now)
            .unwrap();
        assert_eq!(sys.next_event(), Some(now), "queued output is due now");
    }

    #[test]
    fn a_host_spawn_after_a_drive_is_due_at_once() {
        let mut sys = mk(1, 1);
        sys.run_until(SimTime::from_us(10));
        assert_eq!(sys.next_event(), None, "an idle server");
        let now = sys.now();
        sys.spawn_host(Box::new(Exit), 0);
        assert_eq!(sys.next_event(), Some(now), "a runnable process");
        sys.run_until(now + SimTime::from_us(1));
        assert!(sys.all_procs_done());
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut sys = mk(2, 0);
            let ud = sys.dimm_mut(0).node.stack.udp_bind(6000).unwrap();
            let _uh = sys.host.stack.udp_bind(5000).unwrap();
            sys.dimm_mut(0)
                .node
                .stack
                .udp_send(
                    ud,
                    McnSystem::host_if_ip(0),
                    5000,
                    Bytes::from(vec![1u8; 1200]),
                    SimTime::ZERO,
                )
                .unwrap();
            sys.run_until(SimTime::from_us(300));
            (
                sys.hdrv.stats.polls.get(),
                sys.host.cpus.total_busy(),
                sys.host.mem.total_bytes(),
            )
        };
        assert_eq!(run(), run());
    }
}
