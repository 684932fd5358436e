//! Conservative parallel discrete-event execution (the dist-gem5 rule).
//!
//! The single-threaded [`Engine`](crate::engine::Engine) drives every
//! component of a system from one loop. This module adds the classic
//! conservative alternative used by dist-gem5 (the paper's evaluation
//! substrate): partition the system into **shards** that only interact
//! through links with a known minimum latency, run each shard
//! independently up to a synchronization **quantum** derived from that
//! latency, and exchange cross-shard frames at barrier points through a
//! deterministic, sender-ordered mailbox.
//!
//! # The quantum rule
//!
//! If every cross-shard effect emitted at time `t` reaches its
//! destination shard no earlier than `t + Q` (for the MCN rack, `Q` =
//! switch forwarding latency + egress link latency), then a window
//! `[t1, t1 + Q)` can be simulated by all shards **without any
//! communication**: nothing emitted inside the window can land inside
//! it. [`ParallelEngine`] plans closed windows `[t1, t1 + Q − 1 ps]`
//! (the `− 1 ps` makes the bound strict), runs every shard to the window
//! end, then routes the collected emissions through the
//! [`Fabric`] at the barrier.
//!
//! # Lookahead coarsening and batched dispatch
//!
//! One barrier per quantum is correct but slow: a mostly idle system
//! (TCP timers, retransmission backoff) pays a full sync round every
//! 1.5 µs of simulated time. The coordinator therefore computes a
//! **lookahead horizon** each round: every shard reports a lower bound
//! on its next possible emission ([`Shard::next_emission`]), pending
//! deliveries are charged the shard's minimum ingress→egress
//! [`turnaround`](Shard::turnaround), and the window batch is extended
//! to `min_emission + Q − 1 ps` — the last instant provably free of
//! cross-shard effects. The extended batch ships as **one job** of
//! consecutive quantum sub-windows (a window plan), so channel and
//! barrier cost is paid once per batch instead of once per quantum.
//! Rounds in which a control event fired never extend (a command can
//! create emissions the pre-command bound did not account for), and no
//! batch ever crosses the next scheduled control event.
//!
//! Delivery and outbox buffers are recycled through a
//! [`FramePool`] owned by the coordinator, and
//! every 64 rounds the coordinator rebalances the static shard→worker
//! assignment from observed per-shard step counts (longest-processing-
//! time greedy). Neither affects results: the pool only hands out empty
//! buffers, and the assignment only decides *which thread* runs a
//! shard.
//!
//! # Determinism
//!
//! Emissions are merged with a single stable sort on `(time, shard
//! index)` per batch — per-shard emission order (`seq`) breaks the
//! remaining ties — and routed frames are handed back to the owning
//! shard at the start of its next batch. Because frames carry exact
//! timestamps, the final state is **independent of the thread count**:
//! `threads = 1` and `threads = N` produce byte-identical metrics
//! snapshots, including every `sched.*` counter (lookahead, batching,
//! pooling, and rebalancing are all decided on the coordinator from
//! deterministic data). The serial path is the same batched algorithm
//! run inline, so there is exactly one scheduler to trust.
//!
//! Window edges are a weaker promise. A link serializes from
//! `tx_free.max(now)`, so a frame handed over late, stamped with its
//! exact time, lands exactly only if nothing dated earlier is sent on
//! that link afterwards. In a flat engine (a rack, a cluster) every
//! downlink is fed by the switch alone, in merged time order, so that
//! holds: results outside `sched.*` do not depend on where windows end
//! or on how a caller slices a drive into calls. A nested engine breaks
//! it; see the hand-off caveat below.
//!
//! # Hierarchical quantum domains
//!
//! The quantum rule composes: a [`Shard`] may itself *contain* a whole
//! [`ParallelEngine`] and drive it inside [`Shard::run_window`]. The
//! outer engine's quantum is derived from the slow inter-shard paths
//! (a datacenter fabric hop), the inner engines' quanta from the fast
//! intra-shard paths (a ToR hop), and each level is sound on its own
//! terms — the inner engine never sees the outer fabric, and the outer
//! engine only needs the containing shard's emission lower bounds to be
//! honest about anything that *leaves* it. Two invariants make the
//! nesting correct:
//!
//! 1. **Containment** — the inner engine is driven with
//!    [`RunGoal::Deadline`] to exactly the outer window end, so inner
//!    barriers are invisible from outside and the outer clock never
//!    runs ahead of an inner one.
//! 2. **Monotone hand-off** — frames entering the shard are delivered
//!    with their exact arrival timestamps (future-dated relative to the
//!    outer barrier), and frames leaving it keep the timestamps of
//!    their inner barriers, so neither direction loses precision at the
//!    domain boundary. Caveat: an entering frame is sent into an inner
//!    link at the outer window start, stamped with its future arrival,
//!    and an earlier-dated inner frame sent on that link afterwards
//!    queues behind it. Which frames meet that way depends on where the
//!    outer windows end, so a nested engine's results (the datacenter's)
//!    depend on how the caller slices a drive, though never on the
//!    thread count.
//!
//! Each level is a synchronization *domain* with its own window/barrier
//! cadence: intra-rack traffic syncs on the short quantum many times
//! per outer window, while cross-domain traffic pays the long quantum's
//! barrier only when it must. [`ParallelEngine::domain_metrics`]
//! renders any level's counters under a shared `domain.<name>.*`
//! schema so a hierarchy's cost split (e.g. `domain.cross_pod.barriers`
//! vs `domain.intra_rack.windows`) is visible in every snapshot, and
//! [`ShardStats::accumulate`] folds the many inner engines of one level
//! into a single figure first.
//!
//! ```
//! use mcn_sim::shard::{Fabric, Outbox, ParallelEngine, Quantum, RunGoal, Shard};
//! use mcn_sim::SimTime;
//!
//! /// A shard that fires one local event per pending token and then
//! /// forwards the token to the next shard in the ring.
//! struct Ring {
//!     tokens: Vec<(SimTime, u32)>,
//!     seen: u32,
//! }
//!
//! impl Shard for Ring {
//!     type Frame = u32;
//!     type Cmd = ();
//!     fn next_event(&mut self) -> Option<SimTime> {
//!         self.tokens.iter().map(|&(t, _)| t).min()
//!     }
//!     fn apply(&mut self, _at: SimTime, _cmd: ()) {}
//!     fn deliver(&mut self, at: SimTime, hops: u32) {
//!         self.tokens.push((at, hops));
//!     }
//!     fn run_window(&mut self, end: SimTime, outbox: &mut Outbox<u32>) -> u64 {
//!         let mut steps = 0;
//!         while let Some(i) = (0..self.tokens.len()).find(|&i| self.tokens[i].0 <= end) {
//!             let (t, hops) = self.tokens.remove(i);
//!             self.seen += 1;
//!             steps += 1;
//!             if hops > 0 {
//!                 outbox.emit(t, hops - 1); // arrives at t + link latency
//!             }
//!         }
//!         steps
//!     }
//! }
//!
//! /// Ring topology: shard `s` forwards to `s + 1`, one µs per hop.
//! struct RingFabric {
//!     n: usize,
//! }
//!
//! impl Fabric<Ring> for RingFabric {
//!     fn next_control(&mut self) -> Option<SimTime> {
//!         None
//!     }
//!     fn pop_controls(&mut self, _now: SimTime, _out: &mut Vec<(usize, SimTime, ())>) {}
//!     fn route(&mut self, from: usize, at: SimTime, hops: u32, out: &mut Vec<(usize, SimTime, u32)>) {
//!         out.push(((from + 1) % self.n, at + SimTime::from_us(1), hops));
//!     }
//! }
//!
//! let run = |threads: usize| {
//!     let mut shards: Vec<Ring> = (0..3)
//!         .map(|_| Ring { tokens: vec![], seen: 0 })
//!         .collect();
//!     shards[0].tokens.push((SimTime::ZERO, 7)); // 7 hops around the ring
//!     let mut fabric = RingFabric { n: 3 };
//!     let mut eng = ParallelEngine::new(Quantum::new(SimTime::from_us(1)));
//!     let mut now = SimTime::ZERO;
//!     let rep = eng.run(
//!         &mut shards,
//!         &mut fabric,
//!         &mut now,
//!         SimTime::from_ms(1),
//!         RunGoal::Deadline,
//!         threads,
//!     );
//!     assert!(rep.completed);
//!     (now, shards.iter().map(|s| s.seen).collect::<Vec<_>>())
//! };
//! // Serial and parallel runs agree exactly: same token counts, same clock.
//! assert_eq!(run(1), run(2));
//! assert_eq!(run(1).1.iter().sum::<u32>(), 8);
//! ```

use std::sync::{mpsc, Mutex};
use std::thread;

use crate::metrics::{Instrumented, MetricSink};
use crate::pool::{FramePool, PoolStats};
use crate::stats::Counter;
use crate::time::SimTime;

/// The synchronization window width: a conservative lower bound on the
/// time a cross-shard effect takes to reach another shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quantum(SimTime);

impl Quantum {
    /// A quantum of `window` picoseconds-of-`SimTime`. Panics if zero:
    /// a zero-latency boundary cannot be sharded conservatively.
    pub fn new(window: SimTime) -> Self {
        assert!(
            window > SimTime::ZERO,
            "quantum must be positive: zero-latency cross-shard paths cannot be windowed"
        );
        Quantum(window)
    }

    /// The dist-gem5 rule for a switched fabric: any frame leaving a
    /// shard first pays the switch forwarding latency, then the egress
    /// link latency, before it can touch another shard.
    pub fn from_path(switch_latency: SimTime, link_latency: SimTime) -> Self {
        Self::new(switch_latency + link_latency)
    }

    /// The window width.
    pub fn window(&self) -> SimTime {
        self.0
    }
}

/// Cross-shard emissions collected during one window, in emission order.
#[derive(Debug)]
pub struct Outbox<F> {
    items: Vec<(SimTime, F)>,
}

impl<F> Outbox<F> {
    /// An empty outbox.
    pub fn new() -> Self {
        Outbox { items: Vec::new() }
    }

    /// An outbox backed by a recycled (empty) buffer from the frame
    /// pool, so steady-state rounds emit without allocating.
    fn seeded(items: Vec<(SimTime, F)>) -> Self {
        debug_assert!(items.is_empty(), "pooled outbox seeds must be cleared");
        Outbox { items }
    }

    /// Records a frame leaving the shard at time `at` (the time it hits
    /// the shard boundary, *before* any fabric latency).
    pub fn emit(&mut self, at: SimTime, frame: F) {
        self.items.push((at, frame));
    }

    /// Number of queued emissions.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if nothing was emitted.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

impl<F> Default for Outbox<F> {
    fn default() -> Self {
        Self::new()
    }
}

/// One independently-schedulable partition of a system: everything that
/// interacts at zero (or sub-quantum) latency must live in one shard.
///
/// The contract mirrors [`Component`](crate::engine::Component) but adds
/// the two channels a windowed scheduler needs: frames arriving from
/// other shards ([`deliver`](Shard::deliver)) and control commands from
/// the coordinator ([`apply`](Shard::apply)). Both are handed to the
/// shard at the **start** of a window and carry exact timestamps, so a
/// late hand-off cannot skew results.
pub trait Shard: Send {
    /// A cross-shard message (e.g. an Ethernet frame).
    type Frame: Send;
    /// A coordinator-issued control command (e.g. "crash DIMM 0").
    type Cmd: Send;

    /// Earliest pending local event, if any (clamped to the shard's own
    /// clock). Used by the coordinator to plan the next window.
    fn next_event(&mut self) -> Option<SimTime>;

    /// A **lower bound** on the time of the shard's next cross-shard
    /// emission, given its current state and no further deliveries or
    /// commands. `None` means the shard provably cannot emit again on
    /// its own. The coordinator uses the minimum of these bounds to
    /// coarsen windows: any window ending before `bound + Q` is free of
    /// cross-shard effects. Soundness requires *under*-estimating only
    /// — a bound that is too low merely wastes coarsening. The default
    /// reuses [`next_event`](Shard::next_event): an emission can only
    /// happen while an event is being processed, so the earliest event
    /// is always a sound (if conservative) bound.
    fn next_emission(&mut self) -> Option<SimTime> {
        self.next_event()
    }

    /// A **lower bound** on the delay between a cross-shard frame
    /// entering this shard ([`deliver`](Shard::deliver) ingress time)
    /// and the earliest emission that frame can cause. Used to keep the
    /// lookahead horizon sound when deliveries are pending at a window
    /// start. The default of zero is always sound.
    fn turnaround(&self) -> SimTime {
        SimTime::ZERO
    }

    /// Applies a control command effective at `at` (always within or
    /// before the shard's next window).
    fn apply(&mut self, at: SimTime, cmd: Self::Cmd);

    /// Accepts a frame from another shard that enters this shard's
    /// ingress path at `at` (e.g. starts serialization on the downlink).
    fn deliver(&mut self, at: SimTime, frame: Self::Frame);

    /// Runs every local event with `time ≤ end`, pushing cross-shard
    /// emissions into `outbox` stamped with their emission time.
    /// Returns the number of event times processed (for activity and
    /// progress accounting).
    fn run_window(&mut self, end: SimTime, outbox: &mut Outbox<Self::Frame>) -> u64;

    /// True when every process owned by the shard has finished. The
    /// default claims completion, matching components that host none.
    fn procs_done(&self) -> bool {
        true
    }
}

/// The coordinator-side boundary logic: scheduled control events (e.g.
/// an [`OutagePlan`](crate::outage::OutagePlan)) and frame routing
/// between shards (e.g. the ToR switch). Runs only at barriers, on the
/// coordinator thread, in deterministic merged order — which is what
/// keeps stateful boundary components (a learning switch, a partition
/// filter) byte-identical across thread counts.
pub trait Fabric<S: Shard> {
    /// Earliest scheduled control event, if any.
    fn next_control(&mut self) -> Option<SimTime>;

    /// Pops every control event due at or before `now`, translating
    /// shard-directed ones into `(shard index, effective time, cmd)`
    /// entries. Coordinator-only effects (e.g. a switch partition) are
    /// applied internally.
    fn pop_controls(&mut self, now: SimTime, out: &mut Vec<(usize, SimTime, S::Cmd)>);

    /// Routes one frame emitted by shard `from` at time `at`, pushing
    /// `(destination shard, ingress time, frame)` deliveries. Dropping
    /// the frame (dead link, partition) is expressed by pushing nothing.
    fn route(&mut self, from: usize, at: SimTime, frame: S::Frame, out: &mut Vec<(usize, SimTime, S::Frame)>);
}

/// What [`ParallelEngine::run`] is asked to achieve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunGoal {
    /// Run every event up to the target time, then set the clock to it
    /// (the windowed analogue of
    /// [`ComponentExt::run_until`](crate::engine::ComponentExt::run_until)).
    Deadline,
    /// Run until every shard reports its processes done, failing if the
    /// target time passes first (the analogue of
    /// [`run_until_procs_done`](crate::engine::ComponentExt::run_until_procs_done)).
    ProcsDone,
}

/// Outcome of one [`ParallelEngine::run`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunReport {
    /// Whether the goal was met (`Deadline` always completes; `ProcsDone`
    /// fails on timeout, leaving the clock at the last barrier).
    pub completed: bool,
    /// Local event times processed plus control events applied — zero
    /// means the run was a pure clock advance.
    pub events: u64,
}

/// Deterministic counters for the windowed scheduler itself. Every one
/// is computed on the coordinator from deterministic data, so they are
/// part of the byte-identity contract like any simulation counter.
#[derive(Debug, Default, Clone, Copy)]
pub struct ShardStats {
    /// Quantum sub-windows executed (including coalesced ones).
    pub windows: Counter,
    /// Cross-shard frames routed through the fabric.
    pub messages: Counter,
    /// Dispatch rounds (barriers): one batched job per shard each.
    pub batch_jobs: Counter,
    /// Extra sub-windows run without a barrier thanks to lookahead
    /// coarsening (`windows − batch_jobs`, summed per round).
    pub windows_coalesced: Counter,
    /// Scheduled load-rebalance points reached (every 64 rounds). The
    /// count is schedule-driven so it stays thread-count invariant.
    pub rebalances: Counter,
    /// Delivery/outbox buffer recycling through the coordinator's
    /// [`FramePool`].
    pub pool: PoolStats,
}

impl ShardStats {
    /// Folds another scheduler's counters into this one. Used to
    /// aggregate the many inner engines of one hierarchical quantum
    /// domain (every rack of a datacenter) into a single domain-level
    /// figure; see the [module docs](self). The pool counters are
    /// per-engine plumbing and fold along with the rest.
    pub fn accumulate(&mut self, other: &ShardStats) {
        self.windows.add(other.windows.get());
        self.messages.add(other.messages.get());
        self.batch_jobs.add(other.batch_jobs.get());
        self.windows_coalesced.add(other.windows_coalesced.get());
        self.rebalances.add(other.rebalances.get());
        self.pool.accumulate(&other.pool);
    }
}

impl Instrumented for ShardStats {
    fn metrics(&self, out: &mut MetricSink) {
        out.counter("windows", self.windows.get());
        out.counter("messages", self.messages.get());
        out.scoped("batch", |out| out.counter("jobs", self.batch_jobs.get()));
        out.scoped("lookahead", |out| {
            out.counter("windows_coalesced", self.windows_coalesced.get());
        });
        out.scoped("balance", |out| out.counter("rebalances", self.rebalances.get()));
        out.absorb("pool", &self.pool);
    }
}

/// The batch of consecutive quantum sub-windows one dispatch round
/// covers: ends at `first_end`, `first_end + step`, …, capped at `end`
/// (always at least one window). Shipped whole to each shard so the
/// barrier is paid once per batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WindowPlan {
    first_end: SimTime,
    step: SimTime,
    end: SimTime,
}

impl WindowPlan {
    /// Number of sub-windows the plan executes (mirrors the loop in
    /// [`run_one`] exactly, for honest `sched.windows` accounting).
    fn windows(&self) -> u64 {
        if self.end <= self.first_end {
            return 1;
        }
        let extra_ps = (self.end - self.first_end).as_ps();
        1 + extra_ps.div_ceil(self.step.as_ps().max(1))
    }
}

/// What one shard reports back at a barrier.
struct ShardReport<F> {
    next_event: Option<SimTime>,
    next_emission: Option<SimTime>,
    turnaround: SimTime,
    procs_done: bool,
    emitted: Vec<(SimTime, F)>,
    /// The drained delivery buffer, handed back for pooling.
    scratch: Vec<(SimTime, F)>,
    steps: u64,
}

/// Per-shard work shipped with a window job. The `deliveries` and
/// `outbox` buffers come from the coordinator's frame pool and return
/// to it via the report.
struct ShardWork<C, F> {
    cmds: Vec<(SimTime, C)>,
    deliveries: Vec<(SimTime, F)>,
    outbox: Vec<(SimTime, F)>,
}

enum Job<C, F> {
    Round {
        plan: Option<WindowPlan>,
        work: Vec<(usize, ShardWork<C, F>)>,
    },
    Stop,
}

/// Applies pending work to one shard and (optionally) runs one batch of
/// windows. Shared verbatim by the serial and the threaded paths, so
/// both drive shards identically.
fn run_one<S: Shard>(
    shard: &mut S,
    plan: Option<WindowPlan>,
    mut work: ShardWork<S::Cmd, S::Frame>,
) -> ShardReport<S::Frame> {
    for (at, cmd) in work.cmds.drain(..) {
        shard.apply(at, cmd);
    }
    for (at, frame) in work.deliveries.drain(..) {
        shard.deliver(at, frame);
    }
    let mut outbox = Outbox::seeded(work.outbox);
    let mut steps = 0;
    if let Some(plan) = plan {
        let mut sub = plan.first_end.min(plan.end);
        loop {
            steps += shard.run_window(sub, &mut outbox);
            if sub >= plan.end {
                break;
            }
            sub = match sub.checked_add(plan.step) {
                Some(t) => t.min(plan.end),
                None => plan.end,
            };
        }
    }
    ShardReport {
        next_event: shard.next_event(),
        next_emission: shard.next_emission(),
        turnaround: shard.turnaround(),
        procs_done: shard.procs_done(),
        emitted: outbox.items,
        scratch: work.deliveries,
        steps,
    }
}

/// Builds this round's per-shard work, drawing delivery and outbox
/// buffers from the pool (pending buffers rotate out as deliveries and
/// rotate back via the report's scratch).
fn gather<C, F>(
    n: usize,
    pool: &mut FramePool<(SimTime, F)>,
    pending: &mut [Vec<(SimTime, F)>],
    cmds: &mut [Vec<(SimTime, C)>],
) -> Vec<ShardWork<C, F>> {
    (0..n)
        .map(|s| ShardWork {
            cmds: std::mem::take(&mut cmds[s]),
            deliveries: std::mem::replace(&mut pending[s], pool.take()),
            outbox: pool.take(),
        })
        .collect()
}

/// Contiguous near-even shard→worker split (the starting assignment,
/// matching serial iteration order).
fn split_even(n: usize, workers: usize) -> Vec<Vec<usize>> {
    let chunk = n.div_ceil(workers);
    (0..workers).map(|w| (w * chunk..n.min((w + 1) * chunk)).collect()).collect()
}

/// Longest-processing-time greedy rebalance: heaviest shards first,
/// each to the least-loaded worker, ties broken by lower index on both
/// sides. Purely a thread→shard mapping — results never depend on it.
fn balance(loads: &[u64], workers: usize) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..loads.len()).collect();
    order.sort_by_key(|&s| (std::cmp::Reverse(loads[s]), s));
    let mut totals = vec![0u64; workers];
    let mut out = vec![Vec::new(); workers];
    for s in order {
        let w = (0..workers).min_by_key(|&w| (totals[w], w)).expect("workers >= 1");
        // +1 so idle shards still spread their fixed dispatch cost.
        totals[w] += loads[s] + 1;
        out[w].push(s);
    }
    out
}

/// How often (in dispatch rounds) the coordinator recomputes the
/// shard→worker assignment from observed step counts.
const REBALANCE_EVERY: u64 = 64;

/// The windowed conservative scheduler: plans quantum-bounded window
/// batches with lookahead coarsening, dispatches them to shards (inline
/// or on worker threads), and merges cross-shard traffic
/// deterministically at each barrier. See the [module docs](self) for
/// the synchronization rule and the determinism argument.
#[derive(Debug)]
pub struct ParallelEngine {
    quantum: Quantum,
    /// Scheduler counters (deterministic; safe to snapshot).
    pub stats: ShardStats,
}

impl ParallelEngine {
    /// A scheduler with the given synchronization quantum.
    pub fn new(quantum: Quantum) -> Self {
        ParallelEngine { quantum, stats: ShardStats::default() }
    }

    /// The configured quantum.
    pub fn quantum(&self) -> Quantum {
        self.quantum
    }

    /// Renders this engine's counters as one named synchronization
    /// *domain* of a quantum hierarchy (see the [module docs](self))
    /// under `domain.<name>.*`: the domain's quantum, its sub-windows
    /// executed, its barriers paid, and its cross-shard messages. The
    /// shared schema is what lets a snapshot compare levels directly
    /// (`domain.cross_pod.barriers` vs `domain.intra_rack.windows`).
    pub fn domain_metrics(&self, name: &str, out: &mut MetricSink) {
        Self::domain_metrics_for(name, self.quantum, &self.stats, out);
    }

    /// [`domain_metrics`](Self::domain_metrics) for counters that were
    /// first folded across many engines with [`ShardStats::accumulate`]
    /// (every rack-level engine of a datacenter forms *one* intra-rack
    /// domain). `quantum` is the shared window width of those engines.
    pub fn domain_metrics_for(name: &str, quantum: Quantum, stats: &ShardStats, out: &mut MetricSink) {
        out.scoped("domain", |out| {
            out.scoped(name, |out| {
                out.counter("quantum_ps", quantum.window().as_ps());
                out.counter("windows", stats.windows.get());
                out.counter("barriers", stats.batch_jobs.get());
                out.counter("messages", stats.messages.get());
            });
        });
    }

    /// Drives `shards` toward `target` under `goal` using `threads`
    /// worker threads (clamped to `[1, shards.len()]`; `1` runs the same
    /// batched algorithm inline). `now` is the system clock, advanced
    /// to each barrier as window batches complete.
    pub fn run<S, F>(
        &mut self,
        shards: &mut [S],
        fabric: &mut F,
        now: &mut SimTime,
        target: SimTime,
        goal: RunGoal,
        threads: usize,
    ) -> RunReport
    where
        S: Shard,
        F: Fabric<S>,
    {
        let n = shards.len();
        if n == 0 {
            if goal == RunGoal::Deadline {
                *now = target.max(*now);
            }
            return RunReport { completed: true, events: 0 };
        }
        let threads = threads.clamp(1, n);
        if threads == 1 {
            let mut dispatch = |plan, work: Vec<ShardWork<S::Cmd, S::Frame>>, _assign: Option<Vec<Vec<usize>>>| {
                shards
                    .iter_mut()
                    .zip(work)
                    .map(|(s, w)| run_one(s, plan, w))
                    .collect()
            };
            return self.coordinate::<S, F>(n, fabric, now, target, goal, threads, &mut dispatch);
        }

        // Shards sit behind shared mutex slots so the shard→worker
        // assignment can move between rounds without moving shard data.
        // Assignments are always disjoint, so locks never contend; the
        // mutex exists to satisfy the borrow checker across threads.
        let slots: Vec<Mutex<&mut S>> = shards.iter_mut().map(Mutex::new).collect();
        let slots = &slots;
        thread::scope(|scope| {
            let (res_tx, res_rx) = mpsc::channel();
            // The coordinator doubles as worker 0 and runs its share
            // inline while the spawned workers chew on theirs, so only
            // `threads − 1` job channels exist.
            let mut job_txs = Vec::with_capacity(threads - 1);
            for _ in 1..threads {
                let (job_tx, job_rx) = mpsc::channel::<Job<S::Cmd, S::Frame>>();
                job_txs.push(job_tx);
                let res_tx = res_tx.clone();
                scope.spawn(move || {
                    while let Ok(job) = job_rx.recv() {
                        match job {
                            Job::Stop => break,
                            Job::Round { plan, work } => {
                                let reports: Vec<_> = work
                                    .into_iter()
                                    .map(|(idx, w)| {
                                        let mut shard =
                                            slots[idx].lock().expect("shard mutex poisoned");
                                        (idx, run_one(&mut **shard, plan, w))
                                    })
                                    .collect();
                                if res_tx.send(reports).is_err() {
                                    break;
                                }
                            }
                        }
                    }
                });
            }
            let mut assign = split_even(n, threads);
            let mut dispatch = |plan, work: Vec<ShardWork<S::Cmd, S::Frame>>, new_assign: Option<Vec<Vec<usize>>>| {
                if let Some(a) = new_assign {
                    assign = a;
                }
                let mut work: Vec<Option<_>> = work.into_iter().map(Some).collect();
                for (w, job_tx) in job_txs.iter().enumerate() {
                    let batch: Vec<_> = assign[w + 1]
                        .iter()
                        .map(|&s| (s, work[s].take().expect("shard assigned twice")))
                        .collect();
                    job_tx
                        .send(Job::Round { plan, work: batch })
                        .expect("shard worker exited early");
                }
                let mut out: Vec<Option<ShardReport<S::Frame>>> = (0..n).map(|_| None).collect();
                for &s in &assign[0] {
                    let w = work[s].take().expect("shard assigned twice");
                    let mut shard = slots[s].lock().expect("shard mutex poisoned");
                    out[s] = Some(run_one(&mut **shard, plan, w));
                }
                for _ in 1..threads {
                    for (s, r) in res_rx.recv().expect("shard worker panicked") {
                        out[s] = Some(r);
                    }
                }
                out.into_iter().map(|r| r.expect("missing shard report")).collect()
            };
            let report = self.coordinate::<S, F>(n, fabric, now, target, goal, threads, &mut dispatch);
            for job_tx in &job_txs {
                let _ = job_tx.send(Job::Stop);
            }
            report
        })
    }

    /// The coordinator loop, shared by the inline and threaded paths.
    /// `dispatch` applies per-shard work, optionally runs one window
    /// batch on every shard, and optionally installs a new shard→worker
    /// assignment; it returns reports in shard order.
    #[allow(clippy::type_complexity, clippy::too_many_arguments)]
    fn coordinate<S, F>(
        &mut self,
        n: usize,
        fabric: &mut F,
        now: &mut SimTime,
        target: SimTime,
        goal: RunGoal,
        workers: usize,
        dispatch: &mut dyn FnMut(
            Option<WindowPlan>,
            Vec<ShardWork<S::Cmd, S::Frame>>,
            Option<Vec<Vec<usize>>>,
        ) -> Vec<ShardReport<S::Frame>>,
    ) -> RunReport
    where
        S: Shard,
        F: Fabric<S>,
    {
        let one_ps = SimTime::from_ps(1);
        let quantum = self.quantum.window();
        let span = quantum.saturating_sub(one_ps);

        // Enough capacity that the 2·n buffers in flight each round all
        // come back without discards.
        let mut pool: FramePool<(SimTime, S::Frame)> = FramePool::new(2 * n + 4);
        let mut pending: Vec<Vec<(SimTime, S::Frame)>> = (0..n).map(|_| Vec::new()).collect();
        let mut cmds: Vec<Vec<(SimTime, S::Cmd)>> = (0..n).map(|_| Vec::new()).collect();
        let mut ctl_buf: Vec<(usize, SimTime, S::Cmd)> = Vec::new();
        let mut route_buf: Vec<(usize, SimTime, S::Frame)> = Vec::new();
        // The barrier merge scratch, reused across rounds (one stable
        // sort per batch, zero steady-state allocation).
        let mut merged: Vec<(SimTime, usize, S::Frame)> = Vec::new();
        // Per-shard steps since the last rebalance point.
        let mut loads: Vec<u64> = vec![0; n];
        let mut events = 0u64;
        let mut idle_rounds = 0u32;
        let mut round = 0u64;

        // Initial probe: learn every shard's next event, emission bound
        // and done flag without running a window.
        let mut reports = dispatch(None, gather(n, &mut pool, &mut pending, &mut cmds), None);
        for r in reports.iter_mut() {
            pool.put(std::mem::take(&mut r.emitted));
            pool.put(std::mem::take(&mut r.scratch));
        }

        let completed = loop {
            if goal == RunGoal::ProcsDone && reports.iter().all(|r| r.procs_done) {
                break true;
            }

            // Plan the next window start: the earliest local event,
            // pending delivery, or scheduled control event.
            let mut t1: Option<SimTime> = None;
            let mut merge = |t: Option<SimTime>| {
                t1 = match (t1, t) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                }
            };
            for r in &reports {
                merge(r.next_event);
            }
            for dels in &pending {
                merge(dels.iter().map(|&(at, _)| at).min());
            }
            merge(fabric.next_control());

            let t1 = match t1 {
                Some(t) if t.max(*now) <= target => t.max(*now),
                _ => {
                    // Nothing left inside the horizon.
                    if goal == RunGoal::Deadline {
                        *now = target.max(*now);
                    }
                    break goal == RunGoal::Deadline;
                }
            };
            *now = t1;

            // Controls due at the window start become per-shard commands
            // (and coordinator-side state changes) before any shard runs
            // past them — outages only ever land on window boundaries.
            fabric.pop_controls(t1, &mut ctl_buf);
            let controls_fired = !ctl_buf.is_empty();
            for (shard, at, cmd) in ctl_buf.drain(..) {
                events += 1;
                cmds[shard].push((at.max(t1), cmd));
            }

            // Base window: one quantum, closed one picosecond short so
            // every in-window emission lands strictly after it.
            let base_end = t1.checked_add(span).unwrap_or(SimTime::MAX).min(target);
            let mut end = base_end;

            // Lookahead coarsening: extend the batch to the last instant
            // provably free of cross-shard effects. `min_emit` is the
            // earliest any shard could emit — from its own reported
            // bound, or from a pending delivery plus its turnaround. A
            // frame emitted at `e` lands no earlier than `e + Q`, so
            // every window ending by `min_emit + Q − 1 ps` is safe.
            // Rounds with control commands never extend: a command can
            // create emissions the pre-command bounds did not see.
            if !controls_fired {
                let mut min_emit: Option<SimTime> = None;
                for (s, r) in reports.iter().enumerate() {
                    let mut bound = r.next_emission;
                    if let Some(pmin) = pending[s].iter().map(|&(at, _)| at).min() {
                        let via = pmin.checked_add(r.turnaround).unwrap_or(SimTime::MAX);
                        bound = Some(bound.map_or(via, |b| b.min(via)));
                    }
                    if let Some(b) = bound {
                        min_emit = Some(min_emit.map_or(b, |m| m.min(b)));
                    }
                }
                let horizon = match min_emit {
                    // No shard can ever emit again: the rest of the run
                    // is one barrier-free batch.
                    None => target,
                    Some(e) => e.checked_add(span).unwrap_or(SimTime::MAX).min(target),
                };
                end = end.max(horizon);
            }
            // Never straddle the next control event (outages must land
            // on batch boundaries) — this clamp wins over coarsening.
            if let Some(ctl) = fabric.next_control() {
                end = end.min(ctl.saturating_sub(one_ps));
            }
            debug_assert!(end >= t1, "window end before its start");

            let plan = WindowPlan { first_end: base_end.min(end), step: quantum, end };
            let wins = plan.windows();
            round += 1;
            self.stats.windows.add(wins);
            self.stats.batch_jobs.inc();
            if wins > 1 {
                self.stats.windows_coalesced.add(wins - 1);
            }
            // Rebalance on a fixed round schedule so the decision (and
            // its counter) is thread-count invariant; the assignment
            // itself only matters when real workers exist.
            let new_assign = if round.is_multiple_of(REBALANCE_EVERY) {
                self.stats.rebalances.inc();
                let a = (workers > 1).then(|| balance(&loads, workers));
                loads.iter_mut().for_each(|l| *l = 0);
                a
            } else {
                None
            };

            let events_before = events;
            let had_pending = pending.iter().any(|p| !p.is_empty());
            reports = dispatch(Some(plan), gather(n, &mut pool, &mut pending, &mut cmds), new_assign);
            *now = end;

            // Barrier: merge emissions with one stable sort on
            // (time, shard) — per-shard emission order breaks ties —
            // and route each through the fabric exactly once.
            merged.clear();
            for (s, r) in reports.iter_mut().enumerate() {
                events += r.steps;
                loads[s] += r.steps;
                merged.extend(r.emitted.drain(..).map(|(at, frame)| (at, s, frame)));
                pool.put(std::mem::take(&mut r.emitted));
                pool.put(std::mem::take(&mut r.scratch));
            }
            merged.sort_by_key(|&(at, s, _)| (at, s));
            for (at, s, frame) in merged.drain(..) {
                self.stats.messages.inc();
                fabric.route(s, at, frame, &mut route_buf);
            }
            for (dest, at, frame) in route_buf.drain(..) {
                pending[dest].push((at, frame));
            }

            // A round that applied nothing and processed nothing cannot
            // repeat forever: that is a shard advertising an event it
            // never consumes.
            if events == events_before && !had_pending {
                idle_rounds += 1;
                assert!(
                    idle_rounds < 10_000,
                    "windowed scheduler stalled at {now}: a shard reports a next event it never processes"
                );
            } else {
                idle_rounds = 0;
            }
        };

        // Hand leftover in-flight deliveries to their shards before
        // returning so no frame is lost between run() calls.
        if pending.iter().any(|p| !p.is_empty()) {
            dispatch(None, gather(n, &mut pool, &mut pending, &mut cmds), None);
        }
        // Fold this run's pool accounting into the persistent counters.
        self.stats.pool.allocated.add(pool.stats.allocated.get());
        self.stats.pool.reused.add(pool.stats.reused.get());
        self.stats.pool.returned.add(pool.stats.returned.get());
        self.stats.pool.discarded.add(pool.stats.discarded.get());
        RunReport { completed, events }
    }
}

impl Instrumented for ParallelEngine {
    fn metrics(&self, out: &mut MetricSink) {
        self.stats.metrics(out);
        out.counter("quantum_ps", self.quantum.window().as_ps());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Emits `(shard id, seq)` tokens at scripted times; never delivers.
    struct Emitter {
        id: u32,
        script: Vec<(SimTime, u32)>,
        cursor: usize,
    }

    impl Shard for Emitter {
        type Frame = (u32, u32);
        type Cmd = ();
        fn next_event(&mut self) -> Option<SimTime> {
            self.script.get(self.cursor).map(|&(t, _)| t)
        }
        fn apply(&mut self, _at: SimTime, _cmd: ()) {}
        fn deliver(&mut self, _at: SimTime, _frame: (u32, u32)) {}
        fn run_window(&mut self, end: SimTime, outbox: &mut Outbox<(u32, u32)>) -> u64 {
            let mut steps = 0;
            while let Some(&(t, seq)) = self.script.get(self.cursor) {
                if t > end {
                    break;
                }
                outbox.emit(t, (self.id, seq));
                self.cursor += 1;
                steps += 1;
            }
            steps
        }
    }

    /// Sink fabric: records the exact order frames reach `route`.
    #[derive(Default)]
    struct Recorder {
        order: Vec<(SimTime, u32, u32)>,
    }

    impl Fabric<Emitter> for Recorder {
        fn next_control(&mut self) -> Option<SimTime> {
            None
        }
        fn pop_controls(&mut self, _now: SimTime, _out: &mut Vec<(usize, SimTime, ())>) {}
        fn route(
            &mut self,
            _from: usize,
            at: SimTime,
            frame: (u32, u32),
            _out: &mut Vec<(usize, SimTime, (u32, u32))>,
        ) {
            self.order.push((at, frame.0, frame.1));
        }
    }

    fn merge_order(threads: usize) -> Vec<(SimTime, u32, u32)> {
        // Three shards emitting two frames per 100 ns tick, all at the
        // same timestamps, so the batched merge has real ties to break:
        // across shards (by index) and within a shard (by emission seq).
        let mut shards: Vec<Emitter> = (0..3)
            .map(|id| Emitter {
                id,
                script: (0u32..40).map(|i| (SimTime::from_ns(100 * u64::from(i / 2)), i)).collect(),
                cursor: 0,
            })
            .collect();
        let mut fabric = Recorder::default();
        let mut eng = ParallelEngine::new(Quantum::new(SimTime::from_us(1)));
        let mut now = SimTime::ZERO;
        let rep = eng.run(
            &mut shards,
            &mut fabric,
            &mut now,
            SimTime::from_ms(1),
            RunGoal::Deadline,
            threads,
        );
        assert!(rep.completed);
        assert_eq!(fabric.order.len(), 3 * 40);
        fabric.order
    }

    #[test]
    fn batched_merge_keeps_time_shard_seq_order() {
        let serial = merge_order(1);
        // The merged route order is fully sorted by (time, shard, seq):
        // the stable per-batch sort must not reorder equal keys.
        let mut expected = serial.clone();
        expected.sort();
        assert_eq!(serial, expected, "merge order is not (time, shard, seq)");
        // And it is identical on every thread count.
        assert_eq!(serial, merge_order(2), "2-thread merge order diverged");
        assert_eq!(serial, merge_order(3), "3-thread merge order diverged");
    }

    /// Fires local events every 50 ns but never emits, so lookahead
    /// wants to coalesce the whole run into one batch.
    struct Ticker {
        times: Vec<SimTime>,
        cursor: usize,
        cmd_at: Option<SimTime>,
        processed_before_cmd: Vec<SimTime>,
    }

    impl Shard for Ticker {
        type Frame = ();
        type Cmd = u8;
        fn next_event(&mut self) -> Option<SimTime> {
            self.times.get(self.cursor).copied()
        }
        fn next_emission(&mut self) -> Option<SimTime> {
            None // provably silent: this shard never emits
        }
        fn apply(&mut self, at: SimTime, _cmd: u8) {
            self.cmd_at = Some(at);
        }
        fn deliver(&mut self, _at: SimTime, _frame: ()) {}
        fn run_window(&mut self, end: SimTime, _outbox: &mut Outbox<()>) -> u64 {
            let mut steps = 0;
            while let Some(&t) = self.times.get(self.cursor) {
                if t > end {
                    break;
                }
                if self.cmd_at.is_none() {
                    self.processed_before_cmd.push(t);
                }
                self.cursor += 1;
                steps += 1;
            }
            steps
        }
    }

    /// One scheduled control command for shard 0.
    struct OneShot {
        fire: Option<SimTime>,
    }

    impl Fabric<Ticker> for OneShot {
        fn next_control(&mut self) -> Option<SimTime> {
            self.fire
        }
        fn pop_controls(&mut self, now: SimTime, out: &mut Vec<(usize, SimTime, u8)>) {
            if let Some(t) = self.fire {
                if t <= now {
                    self.fire = None;
                    out.push((0, t, 1));
                }
            }
        }
        fn route(&mut self, _from: usize, _at: SimTime, _frame: (), _out: &mut Vec<(usize, SimTime, ())>) {}
    }

    #[test]
    fn lookahead_never_admits_a_window_past_the_next_control() {
        let ctl = SimTime::from_us(1);
        let mut shards = vec![Ticker {
            times: (0..100).map(|i| SimTime::from_ns(50 * i)).collect(),
            cursor: 0,
            cmd_at: None,
            processed_before_cmd: Vec::new(),
        }];
        let mut fabric = OneShot { fire: Some(ctl) };
        let mut eng = ParallelEngine::new(Quantum::new(SimTime::from_ns(200)));
        let mut now = SimTime::ZERO;
        let rep = eng.run(
            &mut shards,
            &mut fabric,
            &mut now,
            SimTime::from_us(5),
            RunGoal::Deadline,
            1,
        );
        assert!(rep.completed);

        // Coarsening actually fired (the silent shard invites huge
        // batches)…
        assert!(
            eng.stats.windows_coalesced.get() > 0,
            "lookahead never coalesced: the test exercises nothing"
        );
        // …but the command still landed exactly at its scheduled time,
        // and no event at or past the control ran before it: the batch
        // was clamped to end strictly before the control.
        assert_eq!(shards[0].cmd_at, Some(ctl), "control command missed or shifted");
        let before = &shards[0].processed_before_cmd;
        assert!(
            before.iter().all(|&t| t < ctl),
            "an event at or past the control ran before the command applied"
        );
        // Every pre-control event did run before the command (events at
        // 0, 50 ns, …, 950 ns).
        assert_eq!(before.len(), 20);
    }

    #[test]
    fn balance_is_deterministic_lpt() {
        let loads = [10, 1, 1, 1, 7, 3];
        let a = balance(&loads, 2);
        assert_eq!(a, balance(&loads, 2), "balance is not deterministic");
        // LPT with +1 dispatch cost: 0→w0 (11), 4→w1 (8), 5→w1 (12),
        // 1→w0 (13), 2→w1 (14), 3→w0 (15).
        assert_eq!(a, vec![vec![0, 1, 3], vec![4, 5, 2]]);
        // Every shard appears exactly once.
        let mut seen: Vec<usize> = a.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..loads.len()).collect::<Vec<_>>());
    }

    #[test]
    fn window_plan_counts_match_run_one_loop() {
        let q = SimTime::from_ns(200);
        let plan = |first: u64, end: u64| WindowPlan {
            first_end: SimTime::from_ns(first),
            step: q,
            end: SimTime::from_ns(end),
        };
        assert_eq!(plan(199, 199).windows(), 1);
        assert_eq!(plan(199, 150).windows(), 1); // clamped batch: end < first
        assert_eq!(plan(199, 399).windows(), 2);
        assert_eq!(plan(199, 400).windows(), 3); // partial final window
        assert_eq!(plan(199, 999).windows(), 5);
    }
}
