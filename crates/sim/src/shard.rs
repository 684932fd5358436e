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
//! # Lookahead coarsening
//!
//! One barrier per quantum is correct but slow: a mostly idle system
//! (TCP timers, retransmission backoff) pays a full sync round every
//! 1.5 µs of simulated time. The coordinator therefore computes a
//! **lookahead horizon** each round: every shard reports a lower bound
//! on its next possible emission ([`Shard::next_emission`]), pending
//! deliveries are charged the shard's minimum ingress→egress
//! [`turnaround`](Shard::turnaround), and the window batch is extended
//! to `min_emission + Q − 1 ps` — the last instant provably free of
//! cross-shard effects. Each shard runs the whole batch in one
//! [`Shard::run_window`] call, so channel and barrier cost is paid once
//! per batch instead of once per quantum. Rounds in which a control
//! event fired never extend (a command can create emissions the
//! pre-command bound did not account for), and no batch ever crosses
//! the next scheduled control event.
//!
//! With `T` workers, worker `w` owns shards `w, w + T, w + 2T, …` for
//! the whole run; worker 0 is the coordinator and runs its share
//! inline. The split interleaves because composites list their shards
//! by kind (a datacenter lists its racks before its switches), so a
//! contiguous split would put every heavy shard on one worker. The
//! assignment only decides *which thread* runs a shard, never a result.
//!
//! # Determinism
//!
//! Emissions are merged with a single stable sort on `(time, shard
//! index)` per batch — per-shard emission order (`seq`) breaks the
//! remaining ties — and routed frames are handed back to the owning
//! shard at the start of its next batch. Because frames carry exact
//! timestamps, the final state is **independent of the thread count**:
//! `threads = 1` and `threads = N` produce byte-identical metrics
//! snapshots, including every `sched.*` counter (lookahead and batching
//! are decided on the coordinator from deterministic data). The serial
//! path is the same batched algorithm run inline, so there is exactly
//! one scheduler to trust.
//!
//! Window edges are a weaker promise. A link serializes from
//! `tx_free.max(now)`, so a frame handed over late, stamped with its
//! exact time, lands exactly only if nothing dated earlier is sent on
//! that link afterwards. In a flat engine (a rack, a cluster) every
//! downlink is fed by the switch alone, in merged time order, so that
//! holds: results outside `sched.*` do not depend on where windows end
//! or on how a caller slices a drive into calls. A nested engine breaks
//! it; see the hand-off caveat below. A [`RunGoal::ProcsDone`] run is
//! the other exception: it stops at a barrier, so its final clock
//! depends on how far lookahead stretched the last batch.
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
//!    [`RunGoal::Deadline`] to exactly the outer batch end, once per
//!    outer batch, so inner barriers are invisible from outside and the
//!    outer clock never runs ahead of an inner one.
//! 2. **Monotone hand-off** — frames entering the shard are delivered
//!    with their exact arrival timestamps (future-dated relative to the
//!    outer barrier), and frames leaving it keep the timestamps of
//!    their inner barriers, so neither direction loses precision at the
//!    domain boundary. Caveat: an entering frame is sent into an inner
//!    link at the outer batch start, stamped with its future arrival,
//!    and an earlier-dated inner frame sent on that link afterwards
//!    queues behind it. Which frames meet that way depends on where the
//!    outer batches end, so a nested engine's results (the datacenter's)
//!    depend on how the caller slices a drive, though never on the
//!    thread count.
//!
//! Each level is a synchronization *domain* with its own window/barrier
//! cadence: intra-rack traffic syncs on the short quantum many times
//! per outer batch, while cross-domain traffic pays the long quantum's
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

use std::sync::mpsc;
use std::thread;

use crate::metrics::{Instrumented, MetricSink};
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

/// Cross-shard emissions collected during one window batch, in emission
/// order.
#[derive(Debug)]
pub struct Outbox<F> {
    items: Vec<(SimTime, F)>,
}

impl<F> Outbox<F> {
    fn new() -> Self {
        Outbox { items: Vec::new() }
    }

    /// Records a frame leaving the shard at time `at` (the time it hits
    /// the shard boundary, *before* any fabric latency).
    pub fn emit(&mut self, at: SimTime, frame: F) {
        self.items.push((at, frame));
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

    /// Runs every local event with `time ≤ end` (the end of a whole
    /// window batch), pushing cross-shard emissions into `outbox`
    /// stamped with their emission time.
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
/// the down and up edges of an `mcn::outage::OutagePlan`) and frame
/// routing between shards (e.g. the ToR switch). Runs only at barriers, on the
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
    fn route(
        &mut self,
        from: usize,
        at: SimTime,
        frame: S::Frame,
        out: &mut Vec<(usize, SimTime, S::Frame)>,
    );
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
    /// The run stops at the first barrier after the last process
    /// finishes, so the final clock (and anything priced by it or routed
    /// in that batch) depends on how far lookahead stretched the batch.
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
    /// Quantum widths covered by the batches run: per batch, its first
    /// one-quantum window plus every (possibly partial) quantum that
    /// lookahead added after it.
    pub windows: Counter,
    /// Cross-shard frames routed through the fabric.
    pub messages: Counter,
    /// Dispatch rounds (barriers): one `run_window` call per shard each.
    pub batch_jobs: Counter,
    /// Quantum widths beyond the first that lookahead coarsening added
    /// to a batch (`windows − batch_jobs`, summed per round).
    pub windows_coalesced: Counter,
}

impl ShardStats {
    /// Folds another scheduler's counters into this one. Used to
    /// aggregate the many inner engines of one hierarchical quantum
    /// domain (every rack of a datacenter) into a single domain-level
    /// figure; see the [module docs](self).
    pub fn accumulate(&mut self, other: &ShardStats) {
        self.windows.add(other.windows.get());
        self.messages.add(other.messages.get());
        self.batch_jobs.add(other.batch_jobs.get());
        self.windows_coalesced.add(other.windows_coalesced.get());
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
    }
}

/// Quantum widths a batch from the one-quantum window end `base_end`
/// to `end` covers: `1 + ⌈(end − base_end) / quantum⌉`, or 1 when
/// lookahead added nothing (or a control event clamped the batch).
fn batch_windows(base_end: SimTime, end: SimTime, quantum: SimTime) -> u64 {
    if end <= base_end {
        return 1;
    }
    1 + (end - base_end).as_ps().div_ceil(quantum.as_ps())
}

/// What one shard reports back at a barrier.
struct ShardReport<F> {
    next_event: Option<SimTime>,
    next_emission: Option<SimTime>,
    turnaround: SimTime,
    procs_done: bool,
    emitted: Vec<(SimTime, F)>,
    steps: u64,
}

/// Per-shard work shipped with a window batch.
struct ShardWork<C, F> {
    cmds: Vec<(SimTime, C)>,
    deliveries: Vec<(SimTime, F)>,
}

/// One worker's share of a round: the batch end (`None` applies the
/// work without running a window) and the work for its shards, in the
/// order the worker owns them.
type Job<C, F> = (Option<SimTime>, Vec<ShardWork<C, F>>);

/// Applies pending work to one shard and, given a batch end, runs the
/// batch. Shared verbatim by the serial and the threaded paths, so both
/// drive shards identically.
fn run_one<S: Shard>(
    shard: &mut S,
    end: Option<SimTime>,
    work: ShardWork<S::Cmd, S::Frame>,
) -> ShardReport<S::Frame> {
    for (at, cmd) in work.cmds {
        shard.apply(at, cmd);
    }
    for (at, frame) in work.deliveries {
        shard.deliver(at, frame);
    }
    let mut outbox = Outbox::new();
    let steps = end.map_or(0, |end| shard.run_window(end, &mut outbox));
    ShardReport {
        next_event: shard.next_event(),
        next_emission: shard.next_emission(),
        turnaround: shard.turnaround(),
        procs_done: shard.procs_done(),
        emitted: outbox.items,
        steps,
    }
}

/// Builds this round's per-shard work, moving out every pending
/// command and delivery.
fn gather<C, F>(
    pending: &mut [Vec<(SimTime, F)>],
    cmds: &mut [Vec<(SimTime, C)>],
) -> Vec<ShardWork<C, F>> {
    pending
        .iter_mut()
        .zip(cmds.iter_mut())
        .map(|(p, c)| ShardWork {
            cmds: std::mem::take(c),
            deliveries: std::mem::take(p),
        })
        .collect()
}

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
        ParallelEngine {
            quantum,
            stats: ShardStats::default(),
        }
    }

    /// The configured quantum.
    pub fn quantum(&self) -> Quantum {
        self.quantum
    }

    /// Renders this engine's counters as one named synchronization
    /// *domain* of a quantum hierarchy (see the [module docs](self))
    /// under `domain.<name>.*`: the domain's quantum, the quantum widths
    /// its batches covered, its barriers paid, and its cross-shard
    /// messages. The
    /// shared schema is what lets a snapshot compare levels directly
    /// (`domain.cross_pod.barriers` vs `domain.intra_rack.windows`).
    pub fn domain_metrics(&self, name: &str, out: &mut MetricSink) {
        Self::domain_metrics_for(name, self.quantum, &self.stats, out);
    }

    /// [`domain_metrics`](Self::domain_metrics) for counters that were
    /// first folded across many engines with [`ShardStats::accumulate`]
    /// (every rack-level engine of a datacenter forms *one* intra-rack
    /// domain). `quantum` is the shared window width of those engines.
    pub fn domain_metrics_for(
        name: &str,
        quantum: Quantum,
        stats: &ShardStats,
        out: &mut MetricSink,
    ) {
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
            return RunReport {
                completed: true,
                events: 0,
            };
        }
        let threads = threads.clamp(1, n);
        if threads == 1 {
            let mut dispatch = |end, work: Vec<ShardWork<S::Cmd, S::Frame>>| {
                shards
                    .iter_mut()
                    .zip(work)
                    .map(|(s, w)| run_one(s, end, w))
                    .collect()
            };
            return self.coordinate::<S, F>(n, fabric, now, target, goal, &mut dispatch);
        }

        // Worker `w` owns shards `w, w + T, w + 2T, …` for the whole run.
        let mut owned: Vec<Vec<&mut S>> = (0..threads).map(|_| Vec::new()).collect();
        for (s, shard) in shards.iter_mut().enumerate() {
            owned[s % threads].push(shard);
        }
        let mut owned = owned.into_iter();
        let mut inline = owned.next().expect("threads >= 1");
        thread::scope(|scope| {
            // The coordinator doubles as worker 0 and runs its share
            // inline while the spawned workers chew on theirs. A worker
            // exits when its job channel closes.
            let workers: Vec<_> = owned
                .map(|mut mine| {
                    let (job_tx, job_rx) = mpsc::channel::<Job<S::Cmd, S::Frame>>();
                    let (res_tx, res_rx) = mpsc::channel();
                    scope.spawn(move || {
                        while let Ok((end, work)) = job_rx.recv() {
                            let reports: Vec<_> = mine
                                .iter_mut()
                                .zip(work)
                                .map(|(s, w)| run_one(&mut **s, end, w))
                                .collect();
                            if res_tx.send(reports).is_err() {
                                break;
                            }
                        }
                    });
                    (job_tx, res_rx)
                })
                .collect();
            let mut dispatch = |end, work: Vec<ShardWork<S::Cmd, S::Frame>>| {
                let mut jobs: Vec<Vec<_>> = (0..threads).map(|_| Vec::new()).collect();
                for (s, w) in work.into_iter().enumerate() {
                    jobs[s % threads].push(w);
                }
                let mut jobs = jobs.into_iter();
                let own_work = jobs.next().expect("threads >= 1");
                for ((job_tx, _), job) in workers.iter().zip(jobs) {
                    job_tx.send((end, job)).expect("shard worker exited early");
                }
                let mut out: Vec<Option<ShardReport<S::Frame>>> = (0..n).map(|_| None).collect();
                for (k, (shard, w)) in inline.iter_mut().zip(own_work).enumerate() {
                    out[k * threads] = Some(run_one(&mut **shard, end, w));
                }
                for (w, (_, res_rx)) in workers.iter().enumerate() {
                    let reports = res_rx.recv().expect("shard worker panicked");
                    for (k, r) in reports.into_iter().enumerate() {
                        out[w + 1 + k * threads] = Some(r);
                    }
                }
                out.into_iter()
                    .map(|r| r.expect("missing shard report"))
                    .collect()
            };
            self.coordinate::<S, F>(n, fabric, now, target, goal, &mut dispatch)
        })
    }

    /// The coordinator loop, shared by the inline and threaded paths.
    /// `dispatch` applies per-shard work and, given a batch end, runs
    /// the batch on every shard; it returns reports in shard order.
    #[allow(clippy::type_complexity)]
    fn coordinate<S, F>(
        &mut self,
        n: usize,
        fabric: &mut F,
        now: &mut SimTime,
        target: SimTime,
        goal: RunGoal,
        dispatch: &mut dyn FnMut(
            Option<SimTime>,
            Vec<ShardWork<S::Cmd, S::Frame>>,
        ) -> Vec<ShardReport<S::Frame>>,
    ) -> RunReport
    where
        S: Shard,
        F: Fabric<S>,
    {
        let one_ps = SimTime::from_ps(1);
        let quantum = self.quantum.window();
        let span = quantum.saturating_sub(one_ps);

        let mut pending: Vec<Vec<(SimTime, S::Frame)>> = (0..n).map(|_| Vec::new()).collect();
        let mut cmds: Vec<Vec<(SimTime, S::Cmd)>> = (0..n).map(|_| Vec::new()).collect();
        let mut ctl_buf: Vec<(usize, SimTime, S::Cmd)> = Vec::new();
        let mut route_buf: Vec<(usize, SimTime, S::Frame)> = Vec::new();
        // The barrier merge scratch, reused across rounds (one stable
        // sort per batch).
        let mut merged: Vec<(SimTime, usize, S::Frame)> = Vec::new();
        let mut events = 0u64;
        let mut idle_rounds = 0u32;

        // Initial probe: learn every shard's next event, emission bound
        // and done flag without running a window.
        let mut reports = dispatch(None, gather(&mut pending, &mut cmds));

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
            // frame emitted at `e` lands no earlier than `e + Q`, so a
            // batch ending by `min_emit + Q − 1 ps` is safe.
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

            let wins = batch_windows(base_end, end, quantum);
            self.stats.windows.add(wins);
            self.stats.batch_jobs.inc();
            self.stats.windows_coalesced.add(wins - 1);

            let events_before = events;
            let had_pending = pending.iter().any(|p| !p.is_empty());
            reports = dispatch(Some(end), gather(&mut pending, &mut cmds));
            *now = end;

            // Barrier: merge emissions with one stable sort on
            // (time, shard) — per-shard emission order breaks ties —
            // and route each through the fabric exactly once.
            merged.clear();
            for (s, r) in reports.iter_mut().enumerate() {
                events += r.steps;
                merged.extend(r.emitted.drain(..).map(|(at, frame)| (at, s, frame)));
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
            dispatch(None, gather(&mut pending, &mut cmds));
        }
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

    fn merge_order(shards: u32, threads: usize) -> Vec<(SimTime, u32, u32)> {
        // Every shard emits two frames per 100 ns tick, all at the same
        // timestamps, so the batched merge has real ties to break:
        // across shards (by index) and within a shard (by emission seq).
        let mut shards: Vec<Emitter> = (0..shards)
            .map(|id| Emitter {
                id,
                script: (0u32..40)
                    .map(|i| (SimTime::from_ns(100 * u64::from(i / 2)), i))
                    .collect(),
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
        assert_eq!(fabric.order.len(), shards.len() * 40);
        fabric.order
    }

    #[test]
    fn batched_merge_keeps_time_shard_seq_order() {
        // 3 and 5 shards on 2–4 workers include uneven splits (worker 0
        // owns more shards than the others), so a report put back at
        // the wrong shard index breaks the order.
        for shards in [3, 5] {
            let serial = merge_order(shards, 1);
            // The merged route order is fully sorted by (time, shard,
            // seq): the stable per-batch sort must not reorder equal keys.
            let mut expected = serial.clone();
            expected.sort();
            assert_eq!(serial, expected, "merge order is not (time, shard, seq)");
            // And it is identical on every thread count.
            for threads in 2..=4 {
                assert_eq!(
                    serial,
                    merge_order(shards, threads),
                    "{shards} shards on {threads} workers: merge order diverged"
                );
            }
        }
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
        fn route(
            &mut self,
            _from: usize,
            _at: SimTime,
            _frame: (),
            _out: &mut Vec<(usize, SimTime, ())>,
        ) {
        }
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
        assert_eq!(
            shards[0].cmd_at,
            Some(ctl),
            "control command missed or shifted"
        );
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
    fn batch_windows_count_the_quantum_widths_covered() {
        let q = SimTime::from_ns(200);
        let wins =
            |base: u64, end: u64| batch_windows(SimTime::from_ns(base), SimTime::from_ns(end), q);
        assert_eq!(wins(199, 199), 1);
        assert_eq!(wins(199, 150), 1); // clamped batch: end < base
        assert_eq!(wins(199, 399), 2);
        assert_eq!(wins(199, 400), 3); // partial final quantum
        assert_eq!(wins(199, 999), 5);
    }
}
