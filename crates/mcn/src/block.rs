//! The one topology driver and the per-endpoint shard wrapper every
//! multi-machine system shares.
//!
//! The paper's multi-machine systems all have one shape: machines
//! behind switches, driven by the windowed scheduler of
//! [`mcn_sim::shard`]. [`Topology`] is that shape: shards under one
//! coordinator, with the only copy of the clock, the drive loop,
//! `next_event`, `run_parallel`/`run_parallel_until`, `all_procs_done`
//! and the [`Component`] impl. Its three instantiations are type
//! aliases that add their own constructors, accessors, stall reports
//! and registry trees as inherent impls:
//!
//! * [`McnRack`](crate::McnRack): MCN servers, each an
//!   [`EndpointBlock`], under the rack's ToR coordinator (switching,
//!   outages, partitions and, in a datacenter, the fabric gateway);
//! * [`EthernetCluster`](crate::EthernetCluster): plain 10GbE nodes
//!   under the same ToR, with no outage plan installed;
//! * [`Datacenter`](crate::Datacenter): whole racks and fabric switches
//!   under the Clos coordinator (ECMP and switch outages).
//!
//! [`Endpoint`] is the small surface a machine must expose (its NIC, its
//! memory, and pre/post-wire progress hooks); [`EndpointBlock`] wraps
//! any endpoint into a [`Shard`] with the uplink/downlink machinery, the
//! emission lower bounds, and the convergence loop.

use mcn_net::link::Link;
use mcn_net::EthernetFrame;
use mcn_node::nic::{Nic, NicEvent, PCIE_LATENCY};
use mcn_node::MemorySystem;
use mcn_sim::stats::Counter;
use mcn_sim::{
    Activity, Component, EngineStats, Fabric, Outbox, ParallelEngine, Quantum, RunGoal, RunReport,
    Shard, SimTime,
};

/// A [`Shard`] a [`Topology`] can hold: the scheduler's contract plus
/// the one hook the topology's engine accounting reads.
pub trait Member: Shard {
    /// Adds this shard's event-loop accounting: its own block counters
    /// into `blocks` (the topology reports them as one entry summed over
    /// its shards) and the entries of any engine it embeds to `inner`.
    fn account(&self, blocks: &mut Option<EngineStats>, inner: &mut Vec<(EngineStats, usize)>);
}

/// Shards under one coordinator, driven by the quantum-synchronized
/// scheduler (see the [module docs](self)). The scheduler routes every
/// cross-shard frame and applies every control command through the
/// coordinator at barriers, so serial and parallel runs produce
/// byte-identical results.
#[derive(Debug)]
pub struct Topology<S, F> {
    /// The shards, indexed as the coordinator addresses them.
    pub(crate) shards: Vec<S>,
    /// The coordinator: routing, control schedule and its state.
    pub(crate) coord: F,
    /// Current simulated time (the last barrier).
    pub(crate) now: SimTime,
    /// The quantum-synchronized scheduler (serial = 1 thread).
    pub(crate) sched: ParallelEngine,
}

impl<S: Member, F: Fabric<S>> Topology<S, F> {
    /// A topology at time zero whose scheduler synchronizes on
    /// `quantum`, the fastest path from one shard to another.
    pub(crate) fn assemble(shards: Vec<S>, coord: F, quantum: Quantum) -> Self {
        Topology {
            shards,
            coord,
            now: SimTime::ZERO,
            sched: ParallelEngine::new(quantum),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The synchronization quantum the scheduler derived from the
    /// fastest cross-shard path (switch forwarding plus one link).
    pub fn quantum(&self) -> Quantum {
        self.sched.quantum()
    }

    /// All processes on every shard finished?
    pub fn all_procs_done(&self) -> bool {
        self.shards.iter().all(Shard::procs_done)
    }

    /// Earliest pending activity: the earliest shard event or the
    /// coordinator's next control event (a crash or heal is activity
    /// even when every shard is idle).
    pub fn next_event(&mut self) -> Option<SimTime> {
        let control = self.coord.next_control();
        let shards = self.shards.iter_mut().filter_map(Shard::next_event);
        shards.chain(control).min().map(|t| t.max(self.now))
    }

    /// Drives the topology with the windowed scheduler on `threads`
    /// workers.
    fn drive(&mut self, target: SimTime, goal: RunGoal, threads: usize) -> RunReport {
        self.sched.run(
            &mut self.shards,
            &mut self.coord,
            &mut self.now,
            target,
            goal,
            threads,
        )
    }

    /// Runs until every process on every shard finishes, or `deadline`
    /// passes (returns false). With `threads >= 2` the shards run on
    /// worker threads under the synchronization quantum; the result —
    /// final clock and every counter — is byte-identical to `threads = 1`.
    pub fn run_parallel(&mut self, deadline: SimTime, threads: usize) -> bool {
        self.drive(deadline, RunGoal::ProcsDone, threads).completed
    }

    /// Runs every event up to `deadline` on `threads` workers, then sets
    /// the clock to it: the parallel analogue of
    /// [`run_until`](mcn_sim::ComponentExt::run_until).
    pub fn run_parallel_until(&mut self, deadline: SimTime, threads: usize) {
        self.drive(deadline, RunGoal::Deadline, threads);
    }

    /// Drives every event up to exactly `end` serially and returns the
    /// event count (a datacenter drives each rack this way once per
    /// outer batch).
    pub(crate) fn drive_window(&mut self, end: SimTime) -> u64 {
        self.drive(end, RunGoal::Deadline, 1).events
    }
}

impl<S: Member, F: Fabric<S>> Component for Topology<S, F> {
    fn now(&self) -> SimTime {
        self.now
    }
    fn next_event(&mut self) -> Option<SimTime> {
        Topology::next_event(self)
    }
    fn advance(&mut self, t: SimTime) -> Activity {
        assert!(t >= self.now, "time must not go backwards");
        Activity::from_flag(self.drive_window(t) > 0)
    }
    fn procs_done(&self) -> bool {
        self.all_procs_done()
    }
    fn engine_accounting(&self, out: &mut Vec<(EngineStats, usize)>) {
        let (mut blocks, mut inner) = (None, Vec::new());
        for s in &self.shards {
            s.account(&mut blocks, &mut inner);
        }
        out.extend(blocks.map(|b| (b, self.shards.len())));
        out.append(&mut inner);
    }
}

/// A control command the ToR hands to one endpoint block at a window
/// boundary (the shard-side half of an outage edge).
#[derive(Debug)]
pub enum BlockCmd {
    /// Crash DIMM `d`.
    DimmCrash(usize),
    /// Power DIMM `d` back on.
    DimmPowerOn(usize),
    /// Uplink carrier lost.
    LinkDown,
    /// Uplink carrier restored.
    LinkUp,
    /// Uplink down + every DIMM crashes.
    NodeDown,
    /// Uplink up + every DIMM powers on.
    NodeUp,
}

/// The machine-specific half of a shard: what sits behind the NIC.
///
/// The wire half (NIC event pump, uplink/downlink, emission bounds) is
/// identical across topologies and lives in [`EndpointBlock`]; an
/// endpoint only provides device/stack progress and frame ingestion.
pub trait Endpoint: Send {
    /// The NIC and the host memory it DMAs into, borrowed together
    /// (the pump needs both at once). The NIC reaches that memory only
    /// through [`MemorySystem::start`] (TX DMA in `Nic::advance_into`,
    /// RX DMA in `Nic::wire_rx`), so an MCN server hands it out without
    /// flagging its host and catches every DMA start by its job
    /// watermark ([`HostNode`](crate::HostNode)).
    fn wire(&mut self) -> (&mut Nic, &mut MemorySystem);

    /// Read-only NIC access (emission bounds, metrics, stall reports).
    fn nic(&self) -> &Nic;

    /// Machine progress *before* the wire pump at time `t`: device
    /// advance, memory completions, frames staged for transmission.
    /// Returns whether anything changed.
    fn advance_pre(&mut self, t: SimTime) -> bool;

    /// Machine progress *after* the wire pump at time `t` (stack
    /// service, processes, outbound protocol work). Returns whether
    /// anything changed.
    fn advance_post(&mut self, t: SimTime) -> bool;

    /// A frame the NIC delivered up the host side.
    fn rx(&mut self, frame: EthernetFrame, t: SimTime);

    /// Earliest pending event inside the machine (excluding the NIC and
    /// links, which the block tracks itself).
    fn next_wakeup(&mut self) -> Option<SimTime>;

    /// Runs the machine's memory-only steps up to `limit` (see
    /// [`McnSystem::fast_forward`](crate::McnSystem::fast_forward)) and
    /// returns how many ran and the time of the last. The default runs
    /// none.
    fn fast_forward(&mut self, limit: SimTime) -> (u64, SimTime) {
        let _ = limit;
        (0, SimTime::ZERO)
    }

    /// Applies the machine's half of a control command (the block flips
    /// its own carrier flag). The default has no DIMMs to crash.
    fn apply(&mut self, at: SimTime, cmd: BlockCmd) {
        let _ = (at, cmd);
    }

    /// Pushes the entries of any engine the machine embeds (see
    /// [`Component::engine_accounting`]). The default has none.
    fn engine_accounting(&self, out: &mut Vec<(EngineStats, usize)>) {
        let _ = out;
    }

    /// Every process on this machine finished?
    fn procs_done(&self) -> bool;

    /// Diagnostic for a non-converging fixed-point loop at time `t`.
    fn stall_panic(&self, t: SimTime) -> String;
}

/// One shard: an [`Endpoint`] plus its NIC's uplink and downlink into
/// the topology's switch. Everything inside interacts at local latency;
/// the only way out is the uplink.
#[derive(Debug)]
pub struct EndpointBlock<E: Endpoint> {
    /// The machine.
    pub(crate) ep: E,
    /// Uplink towards the switch.
    pub(crate) up: Link,
    /// Downlink from the switch.
    pub(crate) down: Link,
    /// Shard-local mirror of the uplink carrier (the coordinator holds
    /// the authoritative copy for route-time checks).
    pub(crate) link_up: bool,
    /// Block-local clock: the last event time processed, fast-forwarded
    /// server steps included.
    pub(crate) clock: SimTime,
    /// Event-loop accounting (advances = event times, rounds =
    /// convergence iterations with work, polls = block polls,
    /// fast_forwarded = server steps that stood in for block steps).
    pub(crate) stats: EngineStats,
    /// Frames this block dropped on its own severed uplink.
    pub(crate) uplink_drops: Counter,
    /// [`scan_next`](Self::scan_next)'s answer (`None`: not cached).
    /// Everything that can change what it reads clears it: `deliver`,
    /// `apply`, each block step and each fast-forward that ran steps in
    /// `run_window`, and the crate accessors that hand out the block's
    /// insides ([`ep_mut`](Self::ep_mut), [`up_mut`](Self::up_mut)).
    next: Option<Option<SimTime>>,
    /// Recycled buffers for the per-tick NIC/link drains.
    nic_events: Vec<NicEvent>,
    frame_scratch: Vec<EthernetFrame>,
}

impl<E: Endpoint> EndpointBlock<E> {
    /// Earliest pending NIC or link event.
    fn wire_wakeup(&self) -> Option<SimTime> {
        [
            self.ep.nic().next_event(),
            self.up.next_arrival(),
            self.down.next_arrival(),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// The earliest endpoint, NIC or link event, not clamped to the
    /// block clock.
    fn scan_next(&mut self) -> Option<SimTime> {
        [self.ep.next_wakeup(), self.wire_wakeup()]
            .into_iter()
            .flatten()
            .min()
    }

    /// [`scan_next`](Self::scan_next) answered from the memo while
    /// nothing it reads can have changed, so the scheduler's repeated
    /// queries cost no endpoint wakeup refresh. Debug builds rescan on
    /// every call and check the memo against the scan.
    fn next_unclamped(&mut self) -> Option<SimTime> {
        let t = match self.next {
            Some(t) => t,
            None => {
                let t = self.scan_next();
                self.next = Some(t);
                t
            }
        };
        debug_assert_eq!(t, self.scan_next(), "stale block wakeup memo");
        t
    }

    /// The endpoint, for callers that may change its schedule (spawns,
    /// socket calls): clears the wakeup memo.
    pub(crate) fn ep_mut(&mut self) -> &mut E {
        self.next = None;
        &mut self.ep
    }

    /// The uplink, for callers that may change its schedule: clears the
    /// wakeup memo.
    pub(crate) fn up_mut(&mut self) -> &mut Link {
        self.next = None;
        &mut self.up
    }

    /// Wraps `ep` with fresh links and a live carrier.
    pub(crate) fn new(ep: E, up: Link, down: Link) -> Self {
        EndpointBlock {
            ep,
            up,
            down,
            link_up: true,
            clock: SimTime::ZERO,
            stats: EngineStats::default(),
            uplink_drops: Counter::default(),
            next: None,
            nic_events: Vec::new(),
            frame_scratch: Vec::new(),
        }
    }

    /// One round of progress at time `t`: the endpoint's pre-wire work,
    /// the NIC pipeline, the uplink into the switch (emissions go to
    /// `outbox`), the downlink into the NIC, and the endpoint's
    /// post-wire work.
    fn advance_block(&mut self, t: SimTime, outbox: &mut Outbox<EthernetFrame>) -> bool {
        let mut changed = self.ep.advance_pre(t);
        // NIC pipeline (events drain through the block's recycled
        // buffer: this loop runs every fixed-point round).
        let mut evs = std::mem::take(&mut self.nic_events);
        {
            let (nic, mem) = self.ep.wire();
            nic.advance_into(t, mem, &mut evs);
        }
        for ev in evs.drain(..) {
            changed = true;
            match ev {
                NicEvent::TxWire(frame) => {
                    if self.link_up {
                        self.up.send(frame, t);
                    } else {
                        // Severed uplink: the frame leaves the NIC and dies
                        // on the wire. Transport retransmits after the heal.
                        self.uplink_drops.inc();
                    }
                }
                NicEvent::RxDeliver(frame) => self.ep.rx(frame, t),
            }
        }
        self.nic_events = evs;
        // Frames reaching the switch leave the shard; the coordinator
        // routes them at the next barrier.
        let mut frames = std::mem::take(&mut self.frame_scratch);
        self.up.poll_into(t, &mut frames);
        for frame in frames.drain(..) {
            changed = true;
            if !self.link_up {
                // In flight when the link was cut: lost.
                self.uplink_drops.inc();
                continue;
            }
            outbox.emit(t, frame);
        }
        // Frames arriving from the switch.
        self.down.poll_into(t, &mut frames);
        for frame in frames.drain(..) {
            changed = true;
            if !self.link_up {
                self.uplink_drops.inc();
                continue;
            }
            let (nic, mem) = self.ep.wire();
            nic.wire_rx(frame, t, mem);
        }
        self.frame_scratch = frames;
        if self.ep.advance_post(t) {
            changed = true;
        }
        changed
    }
}

impl<E: Endpoint> Shard for EndpointBlock<E> {
    type Frame = EthernetFrame;
    type Cmd = BlockCmd;

    fn next_event(&mut self) -> Option<SimTime> {
        self.next_unclamped().map(|t| t.max(self.clock))
    }

    fn next_emission(&mut self) -> Option<SimTime> {
        // Lower bound on the next frame reaching the switch: (a) frames
        // already in flight on the uplink arrive as-is; (b) frames
        // staged in the NIC TX pipeline still pay uplink propagation;
        // (c) anything else starts from a local event and crosses PCIe
        // and the uplink first. Under-estimating is always sound (it
        // only shortens coarsened windows).
        let up_lat = self.up.latency();
        let staged = self.ep.nic().earliest_tx_staged();
        [
            self.up.next_arrival(),
            staged.map(|t| t + up_lat),
            Shard::next_event(self).map(|t| t + PCIE_LATENCY + up_lat),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    fn turnaround(&self) -> SimTime {
        // A delivered frame pays downlink propagation, one PCIe
        // crossing, and uplink propagation before any response it
        // causes can reach the switch.
        self.down.latency() + PCIE_LATENCY + self.up.latency()
    }

    fn apply(&mut self, at: SimTime, cmd: BlockCmd) {
        self.next = None;
        match cmd {
            BlockCmd::LinkDown | BlockCmd::NodeDown => self.link_up = false,
            BlockCmd::LinkUp | BlockCmd::NodeUp => self.link_up = true,
            BlockCmd::DimmCrash(_) | BlockCmd::DimmPowerOn(_) => {}
        }
        self.ep.apply(at, cmd);
    }

    fn deliver(&mut self, at: SimTime, frame: EthernetFrame) {
        // `at` is the time the frame left the switch towards us; the
        // downlink adds serialization + propagation on its own clock, so
        // a barrier-late hand-off still yields the exact arrival time.
        self.next = None;
        self.down.send(frame, at);
    }

    fn run_window(&mut self, end: SimTime, outbox: &mut Outbox<EthernetFrame>) -> u64 {
        let mut steps = 0;
        loop {
            // A block step at a memory-only server time would find nothing
            // else to do, so the server fast-forwards through those times
            // up to 1 ps before the next NIC or link event (a block step
            // must never revisit a fast-forwarded time). Each such time
            // still counts as a step of this window. A server whose next
            // event lies past `limit` has no step to run, so the call is
            // skipped.
            let limit = match self.wire_wakeup() {
                Some(w) => w
                    .as_ps()
                    .checked_sub(1)
                    .map(|ps| end.min(SimTime::from_ps(ps))),
                None => Some(end),
            };
            if let Some(limit) = limit.filter(|&l| self.next_unclamped().is_some_and(|t| t <= l)) {
                let (ff, last) = self.ep.fast_forward(limit);
                if ff > 0 {
                    self.next = None;
                    self.clock = self.clock.max(last);
                    self.stats.fast_forwarded.add(ff);
                    steps += ff;
                }
            }
            let Some(t) = Shard::next_event(self) else {
                break;
            };
            if t > end {
                break;
            }
            self.clock = t;
            steps += 1;
            self.stats.advances.inc();
            self.next = None;
            let mut iters = 0u32;
            loop {
                self.stats.component_polls.inc();
                if !self.advance_block(t, outbox) {
                    break;
                }
                self.stats.rounds.inc();
                iters += 1;
                if iters >= 100_000 {
                    panic!("{}", self.ep.stall_panic(t));
                }
            }
        }
        steps
    }

    fn procs_done(&self) -> bool {
        self.ep.procs_done()
    }
}

impl<E: Endpoint> Member for EndpointBlock<E> {
    fn account(&self, blocks: &mut Option<EngineStats>, inner: &mut Vec<(EngineStats, usize)>) {
        blocks.get_or_insert_default().accumulate(&self.stats);
        self.ep.engine_accounting(inner);
    }
}
