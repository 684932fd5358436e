//! The shared per-endpoint shard wrapper and switch routing rule every
//! topology level instantiates.
//!
//! [`McnRack`](crate::McnRack) shards an MCN server behind its NIC and
//! uplink; [`EthernetCluster`](crate::EthernetCluster) shards a baseline
//! node behind the same wire; the Clos fabric of [`crate::fabric`]
//! composes whole racks. All three used to carry near-identical copies
//! of the same wire-pipeline code (NIC events → uplink → switch →
//! downlink → NIC) and the same switched-routing rule. This module is
//! the single copy:
//!
//! * [`Endpoint`] is the small surface a machine must expose (its NIC,
//!   its memory, and pre/post-wire progress hooks); [`EndpointBlock`]
//!   wraps any endpoint into a [`Shard`] with the uplink/downlink
//!   machinery, the emission lower bounds, and the convergence loop.
//! * [`SwitchPolicy`] + [`route_switched`] are the one switched-boundary
//!   routing rule: MAC learning and store-and-forward on a
//!   [`Switch`], with per-topology admission (partitions, dead
//!   uplinks) and an escape hatch that claims frames leaving the
//!   topology entirely (the rack's datacenter gateway).

use mcn_net::link::{Link, Switch};
use mcn_net::EthernetFrame;
use mcn_node::nic::{Nic, NicEvent};
use mcn_node::MemorySystem;
use mcn_sim::stats::Counter;
use mcn_sim::{EngineStats, Outbox, Shard, SimTime, Wakeup};

/// The machine-specific half of a shard: what sits behind the NIC.
///
/// The wire half (NIC event pump, uplink/downlink, emission bounds) is
/// identical across topologies and lives in [`EndpointBlock`]; an
/// endpoint only provides device/stack progress and frame ingestion.
pub(crate) trait Endpoint: Send {
    /// Control command the coordinator can apply at window boundaries.
    type Cmd: Send;

    /// The NIC and the host memory it DMAs into, borrowed together
    /// (the pump needs both at once).
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

    /// Applies a control command; `link_up` is the block's carrier flag
    /// so link-level commands can flip it.
    fn apply(&mut self, at: SimTime, cmd: Self::Cmd, link_up: &mut bool);

    /// Every process on this machine finished?
    fn procs_done(&self) -> bool;

    /// Diagnostic for a non-converging fixed-point loop at time `t`.
    fn stall_panic(&self, t: SimTime) -> String;
}

/// One shard: an [`Endpoint`] plus its NIC's uplink and downlink into
/// the topology's switch. Everything inside interacts at local latency;
/// the only way out is the uplink.
#[derive(Debug)]
pub(crate) struct EndpointBlock<E: Endpoint> {
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
            self.ep.nic().next_wakeup(),
            mcn_sim::Wakeup::next_wakeup(&self.up),
            mcn_sim::Wakeup::next_wakeup(&self.down),
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
    type Cmd = E::Cmd;

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
        let pcie = self.ep.nic().pcie_latency();
        let staged = self.ep.nic().earliest_tx_staged();
        [
            self.up.next_arrival(),
            staged.map(|t| t + up_lat),
            Shard::next_event(self).map(|t| t + pcie + up_lat),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    fn turnaround(&self) -> SimTime {
        // A delivered frame pays downlink propagation, one PCIe
        // crossing, and uplink propagation before any response it
        // causes can reach the switch.
        self.down.latency() + self.ep.nic().pcie_latency() + self.up.latency()
    }

    fn apply(&mut self, at: SimTime, cmd: E::Cmd) {
        self.next = None;
        self.ep.apply(at, cmd, &mut self.link_up);
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
                Some(w) => w.as_ps().checked_sub(1).map(|ps| end.min(SimTime::from_ps(ps))),
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

/// A topology's switched boundary: the learning switch itself plus
/// per-topology hooks on the shared routing rule.
///
/// The default hooks make a trivially permissive policy (the baseline
/// cluster's fully connected switch).
pub(crate) trait SwitchPolicy {
    /// The switch frames cross.
    fn switch(&mut self) -> &mut Switch;

    /// Claims a frame *before* MAC switching; returning `true` consumes
    /// it (the rack's datacenter gateway pulls frames addressed to the
    /// well-known gateway MAC onto the fabric uplink this way). `at` is
    /// the time the frame has cleared the switch's forwarding stage.
    fn claim(&mut self, _at: SimTime, _frame: &EthernetFrame) -> bool {
        false
    }

    /// Admission check for egress port `to` on a frame that arrived on
    /// `from`; returning `false` drops the copy (partition, dead
    /// uplink).
    fn admit(&mut self, _from: usize, _to: usize) -> bool {
        true
    }
}

/// The switched-boundary routing rule shared by rack and cluster:
/// store-and-forward latency, then either the policy claims the frame
/// (it leaves this switching domain) or the learning switch picks
/// egress ports, each gated by the policy's admission check.
pub(crate) fn route_switched<P: SwitchPolicy>(
    policy: &mut P,
    from: usize,
    at: SimTime,
    frame: EthernetFrame,
    out: &mut Vec<(usize, SimTime, EthernetFrame)>,
) {
    let fwd_at = at + policy.switch().forward_latency;
    if policy.claim(fwd_at, &frame) {
        return;
    }
    for p in policy.switch().route(&frame, from) {
        if policy.admit(from, p) {
            out.push((p, fwd_at, frame.clone()));
        }
    }
}
