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
//!   after `alert_latency`; only then does the driver poll that channel.
//! * **receive** (R1–R5) and the **packet forwarding engine** (F1–F4):
//!   `memcpy_from_mcn` drains the TX ring, then each message is classified
//!   by destination MAC — up the host stack (F1), copied into another
//!   DIMM's RX ring (F3), both plus replication (F2), or counted as
//!   external (F4; the single-server system has no conventional NIC).
//! * **MCN-DMA** (mcn5): the same copy jobs run, but the cores pay only
//!   the engine setup cost instead of being blocked for the duration.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use mcn_dram::Target;
use mcn_net::tcp::TcpConfig;
use mcn_net::{EthernetFrame, MacAddr, NetConfig};
use mcn_node::mem::{MemorySystem, Pattern, Transfer};
use mcn_node::nic::{rx_protocol_cost, tx_protocol_cost};
use mcn_node::{CostModel, JobId, Node, ProcId, Process};
use mcn_sim::fault::{FaultInjector, FaultKind, FaultPlan};
use mcn_sim::metrics::{Instrumented, MetricSink};
use mcn_sim::{
    Activity, Component, Engine, EngineStats, EventQueue, OutagePlan, SimTime, StallReport, Wakeup,
};

use crate::config::{McnConfig, SystemConfig};
use crate::dimm::{DimmSignal, McnDimm};
use crate::driver::{
    classify, sram_window, ForwardClass, HostDriver, HostOp, Port, PortLink, HOST_DRV_WAITER,
};
use crate::error::{McnError, McnSide};
use crate::outage::{self, Edge, Part};
use crate::sram::Dir;

/// Watchdog retry budget before a stalled MCN-DMA transfer degrades to the
/// CPU-copy path (per transfer, not globally).
const DMA_MAX_ATTEMPTS: u32 = 2;

/// The fallback poller covers dropped ALERT_N edges at a coarse interval:
/// frequent enough to bound the hang, rare enough not to recreate `mcn0`.
const FALLBACK_POLL_MULT: u64 = 16;

/// Engine component id of the host node; DIMM `d` is `HOST_ID + 1 + d`.
const HOST_ID: usize = 0;

/// Engine component id of DIMM `d`.
const fn dimm_id(d: usize) -> usize {
    HOST_ID + 1 + d
}

#[derive(Debug)]
enum Effect {
    /// Frame finished host TX protocol processing; hand to the port driver.
    PortXmit { port: usize, frame: EthernetFrame },
    /// Retry the head of a port's transmit queue.
    TryPortTx { port: usize },
    /// Driver work done; start the `memcpy_to_mcn` job.
    StartTxCopy { port: usize, frame: EthernetFrame },
    /// HR-timer polling round on a channel (mcn0).
    PollFire { channel: u32 },
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
    /// Coarse safety-net polling round; armed only when ALERT_N faults are
    /// active, so fault-free interrupt-mode runs never poll.
    FallbackPoll { channel: u32 },
    /// Hard-crash DIMM `dimm` (scheduled outage or explicit call).
    Crash { dimm: usize },
    /// Power DIMM `dimm` back on and start the re-init handshake.
    PowerOn { dimm: usize },
    /// One step of the host↔DIMM re-init handshake for `dimm`'s port.
    Reinit { dimm: usize },
}

/// A DMA transfer the watchdog is holding because its descriptor stalled.
#[derive(Debug)]
enum StalledOp {
    /// A host→DIMM `memcpy_to_mcn` that never completed.
    Tx {
        port: usize,
        frame: EthernetFrame,
        attempt: u32,
    },
    /// A DIMM→host `memcpy_from_mcn` that never completed.
    Rx { port: usize, attempt: u32 },
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
    /// The host node (public for instrumentation in harnesses/tests).
    pub host: Node,
    dimms: Vec<McnDimm>,
    /// Host-side driver state (public for harness statistics access).
    pub hdrv: HostDriver,
    effects: EventQueue<Effect>,
    scratch: u64,
    /// Interface index of the conventional NIC (rack servers only).
    nic_ifidx: Option<usize>,
    /// Host memory-job completions owned by devices outside this system
    /// (the rack's NIC DMA); drained by the orchestrator.
    pub foreign_jobs: Vec<(mcn_node::WaiterId, JobId)>,
    /// Received direct (stack-bypassing) messages on the host side:
    /// (arrival time, source DIMM, payload). Sec. VII future work.
    pub direct_rx: Vec<(SimTime, usize, bytes::Bytes)>,
    /// Frames the forwarding engine classified F4 (external): destined for
    /// the conventional NIC. A rack orchestrator drains these; a standalone
    /// server counts them in `hdrv.stats.f4_external` and drops them here.
    pub external_out: Vec<EthernetFrame>,
    /// ALERT_N edge faults (drop/delay).
    alert_faults: FaultInjector,
    /// MCN-DMA descriptor faults (stall).
    dma_faults: FaultInjector,
    /// Host-side SRAM push faults per DIMM (drop/bit-flip into the RX ring).
    sram_faults: Vec<FaultInjector>,
    /// Stalled DMA transfers awaiting their watchdog deadline.
    stalled: HashMap<u64, StalledOp>,
    stall_seq: u64,
    /// Wakeup index + dirty-list bookkeeping for the event loop.
    engine: Engine,
    /// Recycled id buffer for the engine's stale/touched drains (the
    /// per-advance hot path allocates nothing).
    engine_scratch: Vec<usize>,
    /// Per-component wakeups outside memory, recomputed by each
    /// [`fast_forward`](Self::fast_forward) that finds a step to try.
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
    pub fn with_faults(sys: &SystemConfig, n_dimms: usize, cfg: McnConfig, plan: &FaultPlan) -> Self {
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
    /// `rack_id` (see [`crate::rack::McnRack`]): DIMM and host-interface
    /// addresses (`10.x`) shift per server and are rack-private; the
    /// conventional-NIC address plan shifts per rack
    /// ([`nic_ip_in`](Self::nic_ip_in)) so host NICs stay unique across
    /// a whole datacenter.
    pub fn with_faults_in_dc(
        sys: &SystemConfig,
        n_dimms: usize,
        cfg: McnConfig,
        rack_id: usize,
        server_id: usize,
        plan: &FaultPlan,
    ) -> Self {
        let tcp = TcpConfig {
            mss: cfg.mtu() - mcn_net::IPV4_HEADER_BYTES - mcn_net::TCP_HEADER_BYTES,
            ..TcpConfig::default()
        };
        let mut host = Node::new(
            sys.host_cores,
            CostModel::host(),
            &sys.host_dram,
            sys.host_channels,
            tcp,
        );
        let mut hdrv = HostDriver::new();
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
                tx_checksum: false,
                rx_checksum: false,
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
            let mac = MacAddr::from_id(0x0100 + (server_id as u16) * 0x40 + d as u16);
            let ip = Self::host_if_ip_for(server_id, d);
            let ifidx = host.stack.add_interface(NetConfig {
                mac,
                ip,
                mtu: cfg.mtu(),
                tx_checksum: !cfg.checksum_bypass,
                rx_checksum: !cfg.checksum_bypass,
                tso: cfg.tso,
            });
            let mut dimm = McnDimm::new_in_server(server_id, d, channel, sys, cfg, ip, mac);
            dimm.set_fault_injector(
                plan.injector(&Self::sram_dimm_fault_component(server_id, d)),
            );
            // Host-side /32 route: forward to this interface iff the entire
            // destination IP matches the DIMM (paper Sec. III-B).
            host.stack.add_route(
                dimm.ip(),
                Ipv4Addr::new(255, 255, 255, 255),
                ifidx,
                None,
            );
            host.stack.add_neighbor(dimm.ip(), dimm.mac());
            let (sram_base, sram_stride) = sram_window(d, channel, sys.host_channels);
            let tx_cores = sys.host_cores.saturating_sub(sys.host_channels as usize).max(1);
            hdrv.ports.push(Port {
                ifidx,
                dimm: d,
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
            });
            dimms.push(dimm);
        }
        // Every MCN node knows every other MCN node's MAC and every
        // host-side interface's MAC (static neighbor tables stand in for
        // ARP; the host still arbitrates all the traffic).
        let pairs: Vec<(Ipv4Addr, MacAddr)> =
            dimms.iter().map(|d| (d.ip(), d.mac())).collect();
        let host_pairs: Vec<(Ipv4Addr, MacAddr)> = hdrv
            .ports
            .iter()
            .map(|p| (p.ip, p.mac))
            .collect();
        for d in dimms.iter_mut() {
            let own = d.ip();
            for (ip, mac) in pairs.iter().chain(host_pairs.iter()) {
                if *ip != own {
                    d.node.stack.add_neighbor(*ip, *mac);
                }
            }
        }
        let mut effects = EventQueue::new();
        if !cfg.alert_interrupt && n_dimms > 0 {
            for channel in 0..sys.host_channels {
                effects.schedule(sys.poll_interval, Effect::PollFire { channel });
            }
        }
        let alert_faults = plan.injector(&Self::alert_fault_component(server_id));
        // Safety net for lost ALERT_N edges: a coarse poller, armed only
        // when alert faults can actually occur so that fault-free
        // interrupt-mode baselines stay bit-identical (zero polls).
        if cfg.alert_interrupt && n_dimms > 0 && alert_faults.is_active() {
            for channel in 0..sys.host_channels {
                effects.schedule(
                    sys.poll_interval * FALLBACK_POLL_MULT,
                    Effect::FallbackPoll { channel },
                );
            }
        }
        let sram_faults = (0..n_dimms)
            .map(|d| plan.injector(&Self::sram_host_fault_component(server_id, d)))
            .collect();
        McnSystem {
            sys: sys.clone(),
            cfg,
            now: SimTime::ZERO,
            server_id,
            rack_id,
            host,
            dimms,
            hdrv,
            effects,
            scratch: 0,
            nic_ifidx: None,
            foreign_jobs: Vec::new(),
            direct_rx: Vec::new(),
            external_out: Vec::new(),
            alert_faults,
            dma_faults: plan.injector(&Self::dma_fault_component(server_id)),
            sram_faults,
            stalled: HashMap::new(),
            stall_seq: 0,
            engine: Engine::new(1 + n_dimms),
            engine_scratch: Vec::new(),
            visible: Vec::new(),
        }
    }

    /// Installs a hard-outage plan written in the [`outage`] grammar: a
    /// server honours only its own DIMMs, `server{s}.dimm{d}` with `s`
    /// its [`server_id`](Self::server_id), each crash becoming a timed
    /// crash/power-on pair in the effect queue.
    ///
    /// # Panics
    ///
    /// Panics, naming it, on any other component, on a kind other than
    /// `DimmCrash`, and on any failure domain.
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
        self.effects.schedule(now, Effect::PortXmit { port: d, frame });
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
            tx_checksum: false,
            rx_checksum: false,
            tso: false,
        });
        self.nic_ifidx = Some(ifidx);
        ifidx
    }

    /// The conventional NIC's IP for rack server `s`
    /// ([`nic_ip_in`](Self::nic_ip_in) for rack 0).
    pub fn nic_ip(s: usize) -> Ipv4Addr {
        Self::nic_ip_in(0, s)
    }

    /// The conventional NIC's MAC for server `s` of rack `rack`: 0x20
    /// ids per rack keep every NIC distinct (and clear of the DIMM MAC
    /// range) for up to 64 racks of 10 servers.
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
        self.host.stack.add_neighbor(Self::GATEWAY_IP, Self::GATEWAY_MAC);
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
    pub fn spawn_host(&mut self, proc: Box<dyn Process>, core: usize) -> ProcId {
        self.host.runner.spawn(proc, core)
    }

    /// Spawns an application process on a core of DIMM `d`.
    pub fn spawn_dimm(&mut self, d: usize, proc: Box<dyn Process>, core: usize) -> ProcId {
        self.engine.mark_stale(dimm_id(d));
        self.dimms[d].node.runner.spawn(proc, core)
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
        for (i, (tx_busy, rx_busy, txq)) in self.hdrv.debug_ports().iter().enumerate() {
            let link = self.hdrv.ports[i].link;
            r.line(
                "ports",
                format!(
                    "port{i}: link={link:?} tx_busy={tx_busy} rx_busy={rx_busy} tx_queue={txq}"
                ),
            );
        }
        for (d, dimm) in self.dimms.iter().enumerate() {
            r.line(
                "rings",
                format!(
                    "dimm{d}: tx_used={} tx_poll={} rx_used={} rx_poll={}",
                    dimm.sram.used(Dir::Tx),
                    dimm.sram.poll_flag(Dir::Tx),
                    dimm.sram.used(Dir::Rx),
                    dimm.sram.poll_flag(Dir::Rx),
                ),
            );
            let (tx_busy, rx_busy, txq, _, _, staged, pending) = dimm.debug_state();
            r.line(
                "dimm drivers",
                format!(
                    "dimm{d}: tx_busy={tx_busy} rx_busy={rx_busy} tx_queue={txq} \
                     staged={staged} pending_jobs={pending}"
                ),
            );
            for line in dimm.node.runner.stalled_procs() {
                r.line("dimm procs", format!("dimm{d}: {line}"));
            }
            for line in dimm.node.stack.socket_states() {
                r.line("dimm sockets", format!("dimm{d}: {line}"));
            }
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

    fn scratch_addr(&mut self, bytes: u64) -> u64 {
        const BASE: u64 = 2 << 30;
        const SPAN: u64 = 256 << 20;
        let lines = bytes.div_ceil(64);
        if self.scratch + lines * 64 > SPAN {
            self.scratch = 0;
        }
        let a = BASE + self.scratch;
        self.scratch += lines * 64;
        a
    }

    // ------------------------------------------------------------------
    // Event loop
    // ------------------------------------------------------------------

    /// The wakeup of engine component `id`, queried live.
    fn wakeup_of(&self, id: usize) -> Option<SimTime> {
        if id == HOST_ID {
            self.host.next_wakeup()
        } else {
            self.dimms[id - 1 - HOST_ID].next_wakeup()
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

    /// Re-queries every stale component's deadline. The host is *always*
    /// treated as stale: it is a public field, so harnesses and tests can
    /// inject work (binds, sends, spawns) the engine cannot observe.
    fn refresh_wakeups(&mut self) {
        self.engine.mark_stale(HOST_ID);
        let ids = self.engine.drain_stale_into(std::mem::take(&mut self.engine_scratch));
        for &id in &ids {
            let w = self.wakeup_of(id);
            self.engine.set_wakeup(id, w);
        }
        self.engine_scratch = ids;
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
    /// finish a job ([`MemorySystem::may_finish_job`]). Such a step runs
    /// through the engine's own bookkeeping — the same pops in the same
    /// order, the same advance and poll counts, plus `fast_forwarded` —
    /// without the host and DIMM polls around it. The loop stops at the
    /// first step that is not memory-only, so the caller's next `advance`
    /// never revisits a fast-forwarded time.
    pub(crate) fn fast_forward(&mut self, limit: SimTime) -> u64 {
        self.refresh_wakeups();
        let mut horizon = None;
        let mut steps = 0;
        while let Some(t) = self.engine.earliest().map(|t| t.max(self.now)) {
            if t > limit
                || t >= *horizon.get_or_insert_with(|| self.visible_horizon())
                || self.engine.due(t).any(|id| self.mem_of(id).may_finish_job(t))
            {
                break;
            }
            self.now = t;
            self.engine.begin(t);
            self.engine.start_round();
            while let Some(id) = self.engine.pop_dirty() {
                let mem = if id == HOST_ID {
                    &mut self.host.mem
                } else {
                    &mut self.dimms[id - 1 - HOST_ID].node.mem
                };
                let done = mem.advance(t);
                debug_assert!(done.is_empty(), "fast-forwarded step at {t} finished {done:?}");
            }
            let ids = self.engine.drain_touched_into(std::mem::take(&mut self.engine_scratch));
            for &id in &ids {
                let w = [self.visible[id], self.mem_of(id).next_event()]
                    .into_iter()
                    .flatten()
                    .min();
                debug_assert_eq!(w, self.wakeup_of(id), "fast-forward wakeup of {id} at {t}");
                self.engine.set_wakeup(id, w);
            }
            self.engine_scratch = ids;
            self.engine.stats.fast_forwarded.inc();
            steps += 1;
        }
        steps
    }

    /// Records every component's wakeup outside memory (stack output
    /// and timers, processes, staged DIMM driver work) in `visible`, by
    /// engine id, and returns the earliest time anything visible is due:
    /// that or the staged-effect head. Memory steps that finish no job
    /// move neither.
    fn visible_horizon(&mut self) -> SimTime {
        self.visible.clear();
        self.visible.push(self.host.next_event_outside_mem());
        self.visible
            .extend(self.dimms.iter().map(McnDimm::next_event_outside_mem));
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
        let ids = self.engine.drain_touched_into(std::mem::take(&mut self.engine_scratch));
        for &id in &ids {
            let w = self.wakeup_of(id);
            self.engine.set_wakeup(id, w);
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
                match self.on_host_job(job, t) {
                    Ok(()) => {}
                    Err(McnError::UnknownJob { .. }) => self.hdrv.stats.unknown_jobs.inc(),
                    Err(McnError::RingFull { .. }) => self.hdrv.stats.ring_full_drops.inc(),
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
                        if self.alert_faults.fires(FaultKind::Drop, t) {
                            // Lost interrupt edge: nothing is scheduled;
                            // the fallback poller (armed iff alert faults
                            // are active) finds the pending ring data
                            // later.
                            self.hdrv.stats.alerts_dropped.inc();
                            continue;
                        }
                        let mut latency = self.sys.alert_latency;
                        if self.alert_faults.fires(FaultKind::Delay, t) {
                            self.hdrv.stats.alerts_delayed.inc();
                            latency +=
                                SimTime::from_us(1 + self.alert_faults.rng().next_below(4));
                        }
                        let channel = self.dimms[d].channel();
                        self.effects
                            .schedule((at + latency).max(t), Effect::HostAlert { channel });
                    }
                }
                DimmSignal::RxSpaceFreed(_) => {
                    let port = d; // port index == dimm index
                    self.effects.schedule(t, Effect::TryPortTx { port });
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
                self.effects.schedule(end, Effect::PortXmit { port: p, frame });
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
            Effect::StartTxCopy { port, frame } => self.issue_tx_copy(port, frame, now, 0),
            Effect::PollFire { channel } => {
                self.hdrv.stats.polls.inc();
                let core = self.poll_core(channel);
                let (_, end) = self.host.cpus.run_on(core, now, self.host.cost.hrtimer());
                self.issue_poll_checks(channel, end, false);
                // Pace the next poll by the core, not just the timer: a
                // busy core takes its timer interrupt late, it does not
                // accumulate an unbounded backlog of polling work.
                let next = (now + self.sys.poll_interval).max(end);
                self.effects.schedule(next, Effect::PollFire { channel });
            }
            Effect::HostAlert { channel } => {
                self.hdrv.stats.alerts.inc();
                let core = self.poll_core(channel);
                let (_, end) = self.host.cpus.run_on(core, now, self.host.cost.irq());
                self.issue_poll_checks(channel, end, false);
            }
            Effect::FallbackPoll { channel } => {
                self.hdrv.stats.fallback_polls.inc();
                let core = self.poll_core(channel);
                let (_, end) = self.host.cpus.run_on(core, now, self.host.cost.hrtimer());
                self.issue_poll_checks(channel, end, true);
                let next = (now + self.sys.poll_interval * FALLBACK_POLL_MULT).max(end);
                self.effects.schedule(next, Effect::FallbackPoll { channel });
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
    /// `reinit_max_probes`), so a device that powers back on inside the
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
            self.effects.schedule(
                now + self.sys.reinit_probe_interval,
                Effect::Reinit { dimm: d },
            );
        }
        // Watchdog-parked DMA transfers targeting the dead port are stale:
        // drop them (their DmaWatchdog effects will find nothing to retry).
        let before = self.stalled.len();
        self.stalled.retain(|_, op| {
            !matches!(
                op,
                StalledOp::Tx { port, .. } | StalledOp::Rx { port, .. } if *port == d
            )
        });
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
                .schedule(now + self.sys.reinit_step, Effect::Reinit { dimm: d });
        }
    }

    /// One step of the re-init handshake: probe (with exponential backoff
    /// against a still-dead device, bounded by `reinit_max_probes`), then
    /// ring reset, then MAC re-announce, then link up on both sides.
    fn reinit_step(&mut self, d: usize, now: SimTime) {
        let channel = self.hdrv.ports[d].channel;
        let core = self.poll_core(channel);
        match self.hdrv.ports[d].link {
            PortLink::Probe { attempt } => {
                self.hdrv.stats.probes_sent.inc();
                self.host
                    .cpus
                    .run_on(core, now, self.host.cost.poll_check());
                if self.dimms[d].alive() {
                    self.hdrv.ports[d].link = PortLink::RingReset;
                    self.effects
                        .schedule(now + self.sys.reinit_step, Effect::Reinit { dimm: d });
                } else if attempt + 1 >= self.sys.reinit_max_probes {
                    // Probe budget exhausted: park the port down. A later
                    // power-on restarts the handshake from scratch.
                    self.hdrv.stats.reinit_failures.inc();
                    self.hdrv.ports[d].link = PortLink::Down;
                } else {
                    self.hdrv.stats.probe_retries.inc();
                    self.hdrv.ports[d].link = PortLink::Probe { attempt: attempt + 1 };
                    let delay = self
                        .sys
                        .reinit_probe_interval
                        .as_ps()
                        .saturating_mul(1u64 << attempt.min(20));
                    self.effects.schedule(
                        now + SimTime::from_ps(delay),
                        Effect::Reinit { dimm: d },
                    );
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
                    .schedule(now + self.sys.reinit_step, Effect::Reinit { dimm: d });
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
        for port in self.hdrv.ports_on_channel(channel) {
            if self.hdrv.ports[port].link != PortLink::Up {
                continue; // dead or re-initialising: nothing to poll
            }
            self.host
                .cpus
                .run_on(core, at, self.host.cost.poll_check());
            let p = &self.hdrv.ports[port];
            let job = self.host.mem.start(
                Transfer::Single {
                    pat: Pattern {
                        start: p.sram_base,
                        stride: p.sram_stride,
                        target: Target::Sram,
                    },
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

    /// Issues the `memcpy_to_mcn` job for one frame, or parks it behind the
    /// watchdog if the DMA descriptor stalls. `attempt` 0 is the normal
    /// path; the watchdog re-enters with higher attempts, and once the
    /// retry budget is spent the transfer degrades to a CPU copy.
    fn issue_tx_copy(&mut self, port: usize, frame: EthernetFrame, now: SimTime, attempt: u32) {
        if self.cfg.dma
            && attempt < DMA_MAX_ATTEMPTS
            && self.dma_faults.fires(FaultKind::Stall, now)
        {
            self.hdrv.stats.dma_stalls.inc();
            let key = self.stall_seq;
            self.stall_seq += 1;
            self.stalled.insert(key, StalledOp::Tx { port, frame, attempt });
            // Exponential backoff: each retry doubles the deadline.
            let deadline = self.sys.dma_watchdog_deadline * (1u64 << attempt);
            self.effects.schedule(now + deadline, Effect::DmaWatchdog { key });
            return;
        }
        let cpu_fallback = self.cfg.dma && attempt >= DMA_MAX_ATTEMPTS;
        let bytes = frame.encode().len() as u64 + 4 + 64; // msg + ctrl line
        let src = self.scratch_addr(bytes);
        let p = &self.hdrv.ports[port];
        let (sram_base, sram_stride, core) = (p.sram_base, p.sram_stride, p.core);
        // CPU copies to uncached/WC windows sustain limited memory-level
        // parallelism; the MCN-DMA engine pipelines deeply (the mcn5 gain).
        // A transfer that exhausted its DMA retries runs as a CPU copy —
        // slower, but it completes.
        let start = if cpu_fallback {
            self.hdrv.stats.dma_fallbacks.inc();
            let (_, end) =
                self.host
                    .cpus
                    .run_on(core, now, self.host.cost.sram_write_copy(bytes as usize));
            end
        } else {
            now
        };
        let mlp = if self.cfg.dma && !cpu_fallback { 16 } else { 4 };
        let job = self.host.mem.start_with_mlp(
            Transfer::Copy {
                src: Pattern::dram(src),
                dst: Pattern {
                    start: sram_base,
                    stride: sram_stride,
                    target: Target::Sram,
                },
                bytes,
            },
            HOST_DRV_WAITER,
            mlp,
            start,
        );
        self.hdrv.pending.insert(
            job.0,
            HostOp::TxCopy {
                port,
                frame,
                started: now,
            },
        );
    }

    /// A watchdog deadline fired: the parked transfer is retried (the
    /// descriptor is re-issued) or, out of retries, degraded to a CPU copy.
    fn on_dma_watchdog(&mut self, key: u64, now: SimTime) {
        let Some(op) = self.stalled.remove(&key) else {
            return; // already recovered
        };
        self.hdrv.stats.dma_retries.inc();
        match op {
            StalledOp::Tx { port, frame, attempt } => {
                self.issue_tx_copy(port, frame, now, attempt + 1);
            }
            StalledOp::Rx { port, attempt } => {
                self.issue_rx_copy(port, now, attempt + 1);
            }
        }
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
        let need = frame.encode().len() + 4;
        if self.dimms[p.dimm].sram.free_space(Dir::Rx) < need {
            self.hdrv.stats.tx_busy_events.inc();
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
            self.host.cost.driver_tx() + self.sys.dma_setup
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
        if self.dimms[p.dimm].sram.used(Dir::Tx) == 0 {
            return;
        }
        p.rx_busy = true;
        self.issue_rx_copy(port, now, 0);
    }

    /// Issues the `memcpy_from_mcn` drain of a TX ring (the port's
    /// `rx_busy` must already be held), parking it behind the watchdog on
    /// a DMA stall — same retry/degrade policy as the transmit side.
    fn issue_rx_copy(&mut self, port: usize, now: SimTime, attempt: u32) {
        if self.cfg.dma
            && attempt < DMA_MAX_ATTEMPTS
            && self.dma_faults.fires(FaultKind::Stall, now)
        {
            self.hdrv.stats.dma_stalls.inc();
            let key = self.stall_seq;
            self.stall_seq += 1;
            self.stalled.insert(key, StalledOp::Rx { port, attempt });
            let deadline = self.sys.dma_watchdog_deadline * (1u64 << attempt);
            self.effects.schedule(now + deadline, Effect::DmaWatchdog { key });
            return;
        }
        let cpu_fallback = self.cfg.dma && attempt >= DMA_MAX_ATTEMPTS;
        let p = &self.hdrv.ports[port];
        let used = self.dimms[p.dimm].sram.used(Dir::Tx) as u64;
        let bytes = used + 64; // + control line
        let sram_base = p.sram_base;
        let sram_stride = p.sram_stride;
        let channel = p.channel;
        let dst = self.scratch_addr(bytes);
        // memcpy_from_mcn CPU issue work (skipped under working MCN-DMA);
        // the copy job starts once the core gets to it.
        let start = if self.cfg.dma && !cpu_fallback {
            now
        } else {
            if cpu_fallback {
                self.hdrv.stats.dma_fallbacks.inc();
            }
            let core = self.poll_core(channel);
            let (_, end) = self
                .host
                .cpus
                .run_on(core, now, self.host.cost.sram_read_copy(bytes as usize));
            end
        };
        let mlp = if self.cfg.dma && !cpu_fallback { 16 } else { 4 };
        let job = self.host.mem.start_with_mlp(
            Transfer::Copy {
                src: Pattern {
                    start: sram_base,
                    stride: sram_stride,
                    target: Target::Sram,
                },
                dst: Pattern::dram(dst),
                bytes,
            },
            HOST_DRV_WAITER,
            mlp,
            start,
        );
        self.hdrv
            .pending
            .insert(job.0, HostOp::RxCopy { port, started: now });
    }

    fn on_host_job(&mut self, job: JobId, now: SimTime) -> Result<(), McnError> {
        // A copy or poll job that completes against a port the crash took
        // down read (or would write) pre-crash ring state the device no
        // longer owns: discard the result instead of consuming it.
        if let Some(op) = self.hdrv.pending.get(&job.0) {
            let port = match op {
                HostOp::PollCheck { port, .. }
                | HostOp::RxCopy { port, .. }
                | HostOp::TxCopy { port, .. } => *port,
            };
            if self.hdrv.ports[port].link != PortLink::Up {
                self.hdrv.pending.remove(&job.0);
                self.hdrv.stats.stale_desc_dropped.inc();
                return Ok(());
            }
        }
        match self.hdrv.pending.remove(&job.0) {
            Some(HostOp::PollCheck { port, via_fallback }) => {
                let d = self.hdrv.ports[port].dimm;
                if self.dimms[d].sram.poll_flag(Dir::Tx) && !self.hdrv.ports[port].rx_busy {
                    if via_fallback {
                        // Pending TX data with no alert in flight: a dropped
                        // ALERT_N that would have hung the ring forever.
                        self.hdrv.stats.alert_recoveries.inc();
                    }
                    self.start_host_rx(port, now);
                }
            }
            Some(HostOp::TxCopy {
                port,
                frame,
                started,
            }) => {
                let p = &mut self.hdrv.ports[port];
                let d = p.dimm;
                p.tx_busy = false;
                self.effects.schedule(now, Effect::TryPortTx { port });
                // The write into the interface SRAM is the injection point
                // for memory-channel faults: a lost frame, or an
                // ECC-escaped bit flip landing in ring *data* bytes (the
                // checksum-bypass exposure; the 4-byte length prefix is
                // written by the ring itself and stays intact).
                if self.sram_faults[d].fires(FaultKind::Drop, now) {
                    self.hdrv.stats.frames_dropped.inc();
                    return Ok(());
                }
                let mut encoded = frame.encode();
                if self.sram_faults[d].fires(FaultKind::BitFlip, now) {
                    self.sram_faults[d].flip_bit(&mut encoded);
                    self.hdrv.stats.ecc_escapes.inc();
                }
                if self.dimms[d].sram.push(Dir::Rx, &encoded).is_err() {
                    return Err(McnError::RingFull {
                        side: McnSide::Host,
                        len: encoded.len(),
                    });
                }
                self.hdrv.stats.tx_frames.inc();
                self.hdrv.stats.driver_tx.record(now.saturating_sub(started));
                self.effects.schedule(now, Effect::DimmIrq { dimm: d });
            }
            Some(HostOp::RxCopy { port, started }) => {
                let channel = self.hdrv.ports[port].channel;
                let core = self.poll_core(channel);
                let d = self.hdrv.ports[port].dimm;
                let msgs = self.dimms[d].sram.pop_all(Dir::Tx);
                self.effects.schedule(now, Effect::DimmKick { dimm: d });
                let host_macs = self.hdrv.host_macs();
                let dimm_macs: Vec<MacAddr> = self.dimms.iter().map(|x| x.mac()).collect();
                let sw_csum = !self.cfg.checksum_bypass;
                for msg in msgs {
                    let Ok(frame) = EthernetFrame::decode(&msg) else {
                        // Undecodable ring message (possible under injected
                        // corruption): count and drop.
                        self.hdrv.stats.malformed.inc();
                        continue;
                    };
                    self.hdrv.stats.rx_frames.inc();
                    match classify(&frame, &host_macs, &dimm_macs) {
                        ForwardClass::Host => {
                            self.hdrv.stats.f1_host.inc();
                            self.deliver_to_host(port, frame, core, started, now);
                        }
                        ForwardClass::Dimm(j) => {
                            self.hdrv.stats.f3_forward.inc();
                            let (_, end) =
                                self.host
                                    .cpus
                                    .run_on(core, now, self.host.cost.driver_rx());
                            self.effects
                                .schedule(end, Effect::PortXmit { port: j, frame });
                        }
                        ForwardClass::Broadcast => {
                            self.hdrv.stats.f2_broadcast.inc();
                            self.deliver_to_host(port, frame.clone(), core, started, now);
                            for j in 0..self.dimms.len() {
                                if j != d {
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
                            // `dev_queue_xmit`). A rack orchestrator drains
                            // `external_out`; standalone servers drop.
                            self.hdrv.stats.f4_external.inc();
                            self.external_out.push(frame);
                        }
                    }
                    let _ = sw_csum;
                }
                self.hdrv.ports[port].rx_busy = false;
                if self.dimms[d].sram.poll_flag(Dir::Tx) {
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
    /// Receive-side NIC costs are the caller's (rack) business.
    pub fn ingress_external(&mut self, frame: EthernetFrame, now: SimTime) {
        assert!(now >= self.now, "ingress in the past");
        self.now = self.now.max(now);
        let Ok(pkt) = mcn_net::Ipv4Packet::decode(&frame.payload) else {
            return;
        };
        if let Some(port) = self
            .dimms
            .iter()
            .position(|d| d.ip() == pkt.dst)
        {
            // Re-address at L2 for the point-to-point hop and transmit.
            let mut f = frame;
            f.dst = self.dimms[port].mac();
            f.src = self.hdrv.ports[port].mac;
            self.effects.schedule(now, Effect::PortXmit { port, frame: f });
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
    }

    /// Drains frames the forwarding engine sent to the conventional NIC.
    pub fn take_external(&mut self) -> Vec<EthernetFrame> {
        std::mem::take(&mut self.external_out)
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
        let (_, handoff) = self
            .host
            .cpus
            .run_on(core, now, self.host.cost.driver_rx());
        let proto = rx_protocol_cost(&self.host.cost, &frame, sw_csum);
        let proto_core = self.hdrv.ports[port].core;
        let (_, end) = self.host.cpus.run_on(proto_core, handoff, proto);
        self.hdrv.stats.driver_rx.record(end.saturating_sub(started));
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
        out.absorb("host", &self.host);
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
            .udp_send(us, dimm_ip, 6000, Bytes::from(vec![9u8; 1000]), SimTime::ZERO)
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
        assert_eq!(sys.hdrv.stats.tx_frames.get(), 1);
        assert_eq!(sys.dimm(0).stats.rx_frames.get(), 1);
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
            .udp_send(ud, host_ip, 5000, Bytes::from(vec![3u8; 500]), SimTime::ZERO)
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
            .udp_send(u0, dimm1_ip, 7000, Bytes::from(vec![5u8; 800]), SimTime::ZERO)
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
        plan.rate(
            &McnSystem::alert_fault_component(0),
            FaultKind::Drop,
            1.0,
        );
        let mut sys = McnSystem::with_faults(
            &SystemConfig::default(),
            1,
            McnConfig::level(1),
            &plan,
        );
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
        // Every DMA descriptor stalls: each transfer burns its full retry
        // budget and completes via the CPU-copy path instead of hanging.
        let mut plan = FaultPlan::new(23);
        plan.rate(&McnSystem::dma_fault_component(0), FaultKind::Stall, 1.0);
        let mut sys = McnSystem::with_faults(
            &SystemConfig::default(),
            1,
            McnConfig::level(5),
            &plan,
        );
        let dimm_ip = sys.dimm_ip(0);
        let ud = sys.dimm_mut(0).node.stack.udp_bind(6000).unwrap();
        sys.host.stack.udp_bind(5000).unwrap();
        let us = sys.host.stack.udp_bind(5001).unwrap();
        sys.host
            .stack
            .udp_send(us, dimm_ip, 6000, Bytes::from(vec![9u8; 1000]), SimTime::ZERO)
            .unwrap();
        sys.run_until(SimTime::from_ms(2));
        assert!(
            sys.dimm_mut(0).node.stack.udp_recv(ud).is_some(),
            "transfer must complete via CPU fallback\n{}",
            sys.stall_report("dma-stall recovery failed")
        );
        assert!(sys.hdrv.stats.dma_stalls.get() > 0);
        assert!(sys.hdrv.stats.dma_retries.get() > 0);
        assert!(sys.hdrv.stats.dma_fallbacks.get() > 0);
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
        let mut sys = McnSystem::with_faults(
            &SystemConfig::default(),
            1,
            McnConfig::level(0),
            &plan,
        );
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
        let dropped = sys.hdrv.stats.frames_dropped.get();
        let flipped = sys.hdrv.stats.ecc_escapes.get();
        assert!(dropped > 0, "expected injected drops");
        assert!(flipped > 0, "expected injected bit flips");
        // Conservation: every accepted frame was pushed or counted dropped.
        assert_eq!(sys.hdrv.stats.tx_frames.get() + dropped, 40);
    }

    #[test]
    fn stall_report_names_the_blockage() {
        let mut sys = mk(1, 0);
        let _l = sys.dimm_mut(0).node.stack.tcp_listen(5001).unwrap();
        let _c = sys
            .host
            .stack
            .tcp_connect(sys.dimm_ip(0), 5001, SimTime::ZERO)
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
        sys.host
            .stack
            .udp_send(us, dimm_ip, 6000, Bytes::from(vec![2u8; 300]), sys.now())
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
        let sys_cfg = SystemConfig {
            reinit_max_probes: 3,
            ..SystemConfig::default()
        };
        let mut sys = McnSystem::new(&sys_cfg, 1, McnConfig::level(1));
        sys.run_until(SimTime::from_us(10));
        let t = sys.now();
        sys.crash_dimm(0, t);
        // Budget: 10 + 20 + 40 µs of probes, all failing.
        sys.run_until(t + SimTime::from_ms(1));
        assert_eq!(sys.hdrv.stats.reinit_failures.get(), 1);
        assert!(!sys.hdrv.port_is_up(0));
        assert_eq!(sys.hdrv.stats.probes_sent.get(), 3);
        // A later power-on restarts the handshake from scratch.
        let t2 = sys.now();
        sys.power_on_dimm(0, t2);
        sys.run_until(t2 + SimTime::from_ms(1));
        assert!(sys.hdrv.port_is_up(0));
        assert_eq!(sys.hdrv.stats.reinits_completed.get(), 1);
    }

    #[test]
    fn outage_plan_schedules_crash_and_reboot() {
        use mcn_sim::OutagePlan;
        let mut plan = OutagePlan::new(7);
        // The rack's spelling: a standalone server is server 0.
        plan.at(
            "server0.dimm0",
            SimTime::from_us(50),
            mcn_sim::OutageKind::DimmCrash {
                down_for: SimTime::from_us(200),
            },
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
    #[should_panic(expected = "'srv0.dimm0' names no component of this server")]
    fn outage_plan_rejects_names_outside_the_grammar() {
        let mut plan = mcn_sim::OutagePlan::new(7);
        plan.at(
            "srv0.dimm0",
            SimTime::from_us(50),
            mcn_sim::OutageKind::DimmCrash {
                down_for: SimTime::from_us(200),
            },
        );
        mk(1, 1).set_outage_plan(&plan);
    }

    #[test]
    #[should_panic(expected = "a server has no failure domains: cannot install 'riser0'")]
    fn outage_plan_rejects_failure_domains() {
        let mut plan = mcn_sim::OutagePlan::new(7);
        plan.define_domain("riser0", &["server0.dimm0"]);
        mk(1, 1).set_outage_plan(&plan);
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
