//! Shared event-driven simulation engine.
//!
//! Orchestrators used to re-derive "what happens next" by scanning every
//! host, DIMM, NIC and link on every step, then fixed-point-polling all of
//! them inside `advance()`. This module centralises both halves:
//!
//! * [`Component`] / [`ComponentExt`] — the single implementation of
//!   `step` / `run_until` / `run_until_procs_done` shared by every
//!   orchestrator (system, rack, cluster),
//! * [`Wakeup`] — a passive source of pending work (a node, NIC or link)
//!   that reports its earliest internal deadline,
//! * [`WakeupIndex`] — a flat per-component deadline index: one
//!   `(deadline, schedule stamp)` slot per component, scanned in place
//!   (orchestrators own at most a handful of components),
//! * [`Engine`] — dirty-list bookkeeping for `advance()`: only components
//!   named on the list (seeded by due wakeups and delivered effects) are
//!   re-polled each convergence round, instead of sweeping everything.
//!
//! Determinism: the wakeup index breaks equal deadlines by schedule stamp
//! (the order they were last set), and the dirty list is a FIFO
//! deduplicated by id,
//! so two runs that deliver the same effects in the same order poll
//! components in the same order. No hash-ordered iteration is involved
//! anywhere on the hot path.
//!
//! A minimal orchestrator is one [`Component`] impl away from the shared
//! drivers:
//!
//! ```
//! use mcn_sim::{Activity, Component, ComponentExt, SimTime};
//!
//! /// Fires every 10 ns until it has ticked 5 times.
//! struct Ticker { now: SimTime, ticks: u32 }
//!
//! impl Component for Ticker {
//!     fn now(&self) -> SimTime { self.now }
//!     fn next_event(&mut self) -> Option<SimTime> {
//!         (self.ticks < 5).then(|| self.now + SimTime::from_ns(10))
//!     }
//!     fn advance(&mut self, t: SimTime) -> Activity {
//!         self.now = t;
//!         self.ticks += 1;
//!         Activity::Active
//!     }
//!     fn procs_done(&self) -> bool { self.ticks >= 5 }
//! }
//!
//! let mut c = Ticker { now: SimTime::ZERO, ticks: 0 };
//! assert!(c.run_until_procs_done(SimTime::from_us(1)));
//! assert_eq!(c.ticks, 5);
//! assert_eq!(c.now(), SimTime::from_ns(50));
//! ```
//!
//! For running the *shards of one orchestrator* on several worker
//! threads (instead of stepping whole orchestrators like this), see
//! [`crate::shard`].

use std::collections::VecDeque;

use crate::metrics::{Instrumented, MetricSink};
use crate::stats::Counter;
use crate::SimTime;

/// What a call to [`Component::advance`] accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activity {
    /// Nothing was due; the component state is unchanged.
    Idle,
    /// At least one event, job or process made progress.
    Active,
}

impl Activity {
    /// Converts the classic `changed` flag.
    #[inline]
    pub fn from_flag(changed: bool) -> Self {
        if changed {
            Activity::Active
        } else {
            Activity::Idle
        }
    }

    /// `true` for [`Activity::Active`].
    #[inline]
    pub fn is_active(self) -> bool {
        matches!(self, Activity::Active)
    }
}

/// A passive source of pending work: something that can say *when* it next
/// needs attention but is advanced by its owner (a node, a NIC pipeline, a
/// link's in-flight frames, TCP retransmit timers).
///
/// `SimTime::ZERO` means "work is ready right now"; drivers clamp it to
/// their own clock.
pub trait Wakeup {
    /// Earliest pending internal deadline, `None` when fully idle.
    fn next_wakeup(&self) -> Option<SimTime>;
}

/// A drivable simulated system: owns a clock, can report its next event
/// and process everything due at a given time.
///
/// The provided run loops live on [`ComponentExt`]; implementors only
/// supply the three primitives (plus [`procs_done`](Component::procs_done)
/// when they host application processes).
pub trait Component {
    /// Current simulated time.
    fn now(&self) -> SimTime;
    /// Earliest pending activity, clamped to [`now`](Component::now);
    /// `None` when fully idle.
    fn next_event(&mut self) -> Option<SimTime>;
    /// [`next_event`](Component::next_event) for a caller that drives no
    /// further than `limit`. An implementor may first run, up to and
    /// including `limit`, internal steps whose only effect the caller
    /// cannot observe before the returned event (McnSystem fast-forwards
    /// memory-only time steps this way). The default runs nothing.
    fn next_event_within(&mut self, limit: SimTime) -> Option<SimTime> {
        let _ = limit;
        self.next_event()
    }
    /// Processes everything due at `t` (which must be `>= now`).
    fn advance(&mut self, t: SimTime) -> Activity;
    /// All application processes finished? Components that host none
    /// report `true`.
    fn procs_done(&self) -> bool {
        true
    }

    /// Engine accounting for this component tree: implementors that own
    /// an [`Engine`] push `(its stats, its component count)` — their own
    /// entry first — then recurse into embedded engine-driven children.
    /// The shared [`ComponentExt::engine_stats`] /
    /// [`ComponentExt::poll_accounting`] accessors read this; leaf
    /// components without an engine keep the default no-op.
    fn engine_accounting(&self, out: &mut Vec<(EngineStats, usize)>) {
        let _ = out;
    }
}

/// The one shared implementation of the drive loops. Blanket-implemented
/// for every [`Component`]; orchestrators must not duplicate these.
pub trait ComponentExt: Component {
    /// Advances to the next event; returns `false` when fully idle.
    /// Exactly one event: a step has no deadline that could bound a
    /// [`next_event_within`](Component::next_event_within) fast-forward.
    fn step(&mut self) -> bool {
        let Some(t) = self.next_event() else {
            return false;
        };
        self.advance(t);
        true
    }

    /// Runs until `deadline` (inclusive); the clock ends at `deadline`
    /// even if the system goes idle before it.
    fn run_until(&mut self, deadline: SimTime) {
        loop {
            match self.next_event_within(deadline) {
                Some(t) if t <= deadline => {
                    self.advance(t);
                }
                _ => break,
            }
        }
        if self.now() < deadline {
            self.advance(deadline);
        }
    }

    /// Runs until every spawned process finished or `max` is reached;
    /// returns `true` on completion.
    fn run_until_procs_done(&mut self, max: SimTime) -> bool {
        while !self.procs_done() {
            match self.next_event_within(max) {
                Some(t) if t <= max => {
                    self.advance(t);
                }
                _ => return false,
            }
        }
        true
    }

    /// Bounded retry: runs in slices whose lengths follow `backoff` until
    /// `done` holds, returning `false` (instead of hanging or panicking)
    /// once the attempt budget is exhausted. The replacement for ad-hoc
    /// guard-counter loops in tests that wait for a condition under loss.
    fn run_with_backoff<F>(&mut self, backoff: &mut crate::Backoff, mut done: F) -> bool
    where
        F: FnMut(&mut Self) -> bool,
    {
        loop {
            if done(self) {
                return true;
            }
            let Some(delay) = backoff.next_delay() else {
                return false;
            };
            let deadline = self.now() + delay;
            self.run_until(deadline);
        }
    }

    /// This component's own engine work counters (the first
    /// [`Component::engine_accounting`] entry; zeros for engine-less
    /// components). The single implementation of the accessor the
    /// orchestrators used to copy-paste.
    fn engine_stats(&self) -> EngineStats {
        let mut v = Vec::new();
        self.engine_accounting(&mut v);
        v.first().map(|(s, _)| *s).unwrap_or_default()
    }

    /// Poll-efficiency accounting over the whole component tree:
    /// `(actual component polls, scan-equivalent polls)` summed across
    /// every engine reported by [`Component::engine_accounting`]. The
    /// scan-equivalent is what the pre-engine scan-everything loops would
    /// have issued for the same work.
    fn poll_accounting(&self) -> (u64, u64) {
        let mut v = Vec::new();
        self.engine_accounting(&mut v);
        v.iter().fold((0, 0), |(actual, scan), (stats, n)| {
            (
                actual + stats.component_polls.get(),
                scan + stats.scan_equivalent(*n),
            )
        })
    }
}

impl<C: Component + ?Sized> ComponentExt for C {}

/// A per-component deadline index: one `(deadline, schedule stamp)`
/// slot per component id, so setting a deadline is a slot write and the
/// earliest wakeup is a scan of a few slots.
///
/// Equal deadlines pop in *schedule order*: every [`set`](WakeupIndex::set)
/// that changes a slot draws a fresh stamp, while re-setting an unchanged
/// deadline keeps the old one (and so its place among ties). That order
/// is load-bearing: which of two components due at the same time runs
/// first decides the order their work reaches shared state.
/// Deadlines in the past are clamped to the index clock (the deadline of
/// the last popped entry) — components report `SimTime::ZERO` for "ready
/// now".
#[derive(Debug)]
pub struct WakeupIndex {
    slots: Vec<Option<(SimTime, u64)>>,
    next_stamp: u64,
    now: SimTime,
}

impl WakeupIndex {
    /// An index for component ids `0..n`.
    pub fn new(n: usize) -> Self {
        WakeupIndex {
            slots: vec![None; n],
            next_stamp: 0,
            now: SimTime::ZERO,
        }
    }

    /// Number of component slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when the index has no component slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The deadline currently recorded for `id`.
    pub fn get(&self, id: usize) -> Option<SimTime> {
        self.slots[id].map(|(t, _)| t)
    }

    /// Records `id`'s earliest deadline (`None` = idle), replacing any
    /// previous entry.
    pub fn set(&mut self, id: usize, deadline: Option<SimTime>) {
        let deadline = deadline.map(|t| t.max(self.now));
        if self.get(id) == deadline {
            return;
        }
        self.slots[id] = deadline.map(|t| {
            self.next_stamp += 1;
            (t, self.next_stamp)
        });
    }

    /// Earliest recorded deadline across all components.
    pub fn earliest(&self) -> Option<SimTime> {
        self.slots.iter().flatten().map(|&(t, _)| t).min()
    }

    /// Ids whose recorded deadline is `<= t`, in id order.
    pub fn due(&self, t: SimTime) -> impl Iterator<Item = usize> + '_ {
        (0..self.slots.len()).filter(move |&id| self.get(id).is_some_and(|d| d <= t))
    }

    /// Pops the next component whose deadline is `<= t` — the earliest
    /// deadline, ties in schedule order — clearing its entry (the driver
    /// re-records it after advancing the component).
    pub fn pop_due(&mut self, t: SimTime) -> Option<usize> {
        let (id, (deadline, _)) = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(id, slot)| slot.map(|s| (id, s)))
            .min_by_key(|&(_, s)| s)?;
        if deadline > t {
            return None;
        }
        self.slots[id] = None;
        self.now = deadline;
        Some(id)
    }
}

/// Counters describing how much work the engine did; the basis of the
/// `BENCH_engine.json` poll-efficiency numbers.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineStats {
    /// Individual component `advance` polls issued from the dirty list.
    pub component_polls: Counter,
    /// Convergence rounds that performed work.
    pub rounds: Counter,
    /// `advance()` calls on the owning orchestrator.
    pub advances: Counter,
    /// Advances that ran only memory systems (fast-forwarded steps; each
    /// is also counted in `advances`). On a rack's server blocks: the
    /// server steps a block fast-forwarded instead of stepping itself.
    pub fast_forwarded: Counter,
}

impl EngineStats {
    /// Polls the pre-refactor scan-everything loop would have issued for
    /// the same work: every round — plus the final quiescent round of each
    /// `advance` — swept all `n` components.
    pub fn scan_equivalent(&self, n: usize) -> u64 {
        (self.rounds.get() + self.advances.get()) * n as u64
    }

    /// Adds `other`'s counters into these (summing a topology's blocks).
    pub fn accumulate(&mut self, other: &EngineStats) {
        self.component_polls.add(other.component_polls.get());
        self.rounds.add(other.rounds.get());
        self.advances.add(other.advances.get());
        self.fast_forwarded.add(other.fast_forwarded.get());
    }
}

impl Instrumented for EngineStats {
    fn metrics(&self, out: &mut MetricSink) {
        out.counter("component_polls", self.component_polls.get());
        out.counter("rounds", self.rounds.get());
        out.counter("advances", self.advances.get());
        out.counter("fast_forwarded", self.fast_forwarded.get());
    }
}

/// Dirty-list bookkeeping for an orchestrator's `advance()` plus the
/// wakeup index feeding its `next_event()`.
///
/// Lifecycle per `advance(t)` call:
///
/// 1. [`begin`](Engine::begin) seeds the dirty list with every component
///    whose indexed wakeup is due at `t`.
/// 2. Each convergence round, [`start_round`](Engine::start_round) makes
///    the marks accumulated so far drainable via
///    [`pop_dirty`](Engine::pop_dirty); delivering an effect to a
///    component marks it dirty for the *next* round, as does a component
///    reporting activity (it may have enabled more of its own work).
/// 3. After convergence, [`drain_touched`](Engine::drain_touched) lists
///    every component whose wakeup entry must be refreshed.
///
/// External mutation (a test poking a component between calls) is handled
/// by [`mark_stale`](Engine::mark_stale): stale entries are re-queried at
/// the next `next_event()`/`advance()` entry point.
#[derive(Debug)]
pub struct Engine {
    index: WakeupIndex,
    /// Drainable this round.
    current: VecDeque<usize>,
    /// Accumulating for the next round.
    next: Vec<usize>,
    queued: Vec<bool>,
    touched_ids: Vec<usize>,
    touched: Vec<bool>,
    stale_ids: Vec<usize>,
    stale: Vec<bool>,
    /// Work counters (public: orchestrators expose them to benches).
    pub stats: EngineStats,
}

impl Engine {
    /// An engine for component ids `0..n`, with every wakeup initially
    /// stale (unknown).
    pub fn new(n: usize) -> Self {
        let mut e = Engine {
            index: WakeupIndex::new(n),
            current: VecDeque::new(),
            next: Vec::new(),
            queued: vec![false; n],
            touched_ids: Vec::new(),
            touched: vec![false; n],
            stale_ids: Vec::new(),
            stale: vec![false; n],
            stats: EngineStats::default(),
        };
        for id in 0..n {
            e.mark_stale(id);
        }
        e
    }

    /// Number of components.
    pub fn components(&self) -> usize {
        self.index.len()
    }

    /// Flags `id`'s cached wakeup as untrustworthy (external mutation).
    pub fn mark_stale(&mut self, id: usize) {
        if !self.stale[id] {
            self.stale[id] = true;
            self.stale_ids.push(id);
        }
    }

    /// Returns (and clears) the set of stale ids; the owner re-queries
    /// each component and calls [`set_wakeup`](Engine::set_wakeup).
    pub fn drain_stale(&mut self) -> Vec<usize> {
        self.drain_stale_into(Vec::new())
    }

    /// Like [`drain_stale`](Self::drain_stale), but recycles `buf`
    /// (cleared) as the new backing storage, so steady-state refresh
    /// loops allocate nothing. The caller hands the returned `Vec` back
    /// on the next call.
    pub fn drain_stale_into(&mut self, mut buf: Vec<usize>) -> Vec<usize> {
        for &id in &self.stale_ids {
            self.stale[id] = false;
        }
        buf.clear();
        std::mem::replace(&mut self.stale_ids, buf)
    }

    /// Records `id`'s earliest deadline in the wakeup index.
    pub fn set_wakeup(&mut self, id: usize, deadline: Option<SimTime>) {
        self.index.set(id, deadline);
    }

    /// Earliest indexed wakeup across all components.
    pub fn earliest(&self) -> Option<SimTime> {
        self.index.earliest()
    }

    /// Components whose indexed wakeup is due at `t`, in id order
    /// (what [`begin`](Engine::begin) would pop, without popping).
    pub fn due(&self, t: SimTime) -> impl Iterator<Item = usize> + '_ {
        self.index.due(t)
    }

    /// Opens an `advance(t)` call: counts it and seeds the dirty list
    /// from every wakeup due at `t`.
    pub fn begin(&mut self, t: SimTime) {
        self.stats.advances.inc();
        while let Some(id) = self.index.pop_due(t) {
            self.mark_dirty(id);
        }
    }

    /// Marks `id` for (re-)polling in the next round and remembers that
    /// its wakeup needs refreshing.
    pub fn mark_dirty(&mut self, id: usize) {
        self.touch(id);
        if !self.queued[id] {
            self.queued[id] = true;
            self.next.push(id);
        }
    }

    /// Remembers that `id`'s wakeup entry must be refreshed after this
    /// `advance` (without forcing a re-poll).
    pub fn touch(&mut self, id: usize) {
        if !self.touched[id] {
            self.touched[id] = true;
            self.touched_ids.push(id);
        }
    }

    /// Promotes marks accumulated since the last round to the drainable
    /// list; `false` when no component is waiting (the round can only do
    /// effect work).
    pub fn start_round(&mut self) -> bool {
        debug_assert!(self.current.is_empty(), "previous round not drained");
        for &id in &self.next {
            self.queued[id] = false;
        }
        self.current.extend(self.next.drain(..));
        !self.current.is_empty()
    }

    /// Pops the next dirty component of the current round.
    pub fn pop_dirty(&mut self) -> Option<usize> {
        let id = self.current.pop_front()?;
        self.stats.component_polls.inc();
        Some(id)
    }

    /// Counts a convergence round that performed work.
    pub fn note_round(&mut self) {
        self.stats.rounds.inc();
    }

    /// Returns (and clears) every component touched during this
    /// `advance`; the owner refreshes their wakeup index entries.
    pub fn drain_touched(&mut self) -> Vec<usize> {
        self.drain_touched_into(Vec::new())
    }

    /// Like [`drain_touched`](Self::drain_touched), but recycles `buf`
    /// (cleared) as the new backing storage — the allocation-free
    /// variant for the per-advance hot path.
    pub fn drain_touched_into(&mut self, mut buf: Vec<usize>) -> Vec<usize> {
        for &id in &self.touched_ids {
            self.touched[id] = false;
        }
        buf.clear();
        std::mem::replace(&mut self.touched_ids, buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A component that becomes ready every `period` and needs `work`
    /// advances to finish.
    struct Ticker {
        now: SimTime,
        period: SimTime,
        remaining: u32,
        advances: u32,
    }

    impl Component for Ticker {
        fn now(&self) -> SimTime {
            self.now
        }
        fn next_event(&mut self) -> Option<SimTime> {
            (self.remaining > 0).then(|| (self.now + self.period).max(self.now))
        }
        fn advance(&mut self, t: SimTime) -> Activity {
            assert!(t >= self.now);
            let due = self.remaining > 0 && t >= self.now + self.period;
            self.now = t;
            self.advances += 1;
            if due {
                self.remaining -= 1;
                Activity::Active
            } else {
                Activity::Idle
            }
        }
        fn procs_done(&self) -> bool {
            self.remaining == 0
        }
    }

    fn ticker(n: u32) -> Ticker {
        Ticker {
            now: SimTime::ZERO,
            period: SimTime::from_ns(10),
            remaining: n,
            advances: 0,
        }
    }

    #[test]
    fn step_returns_false_when_idle() {
        let mut t = ticker(2);
        assert!(t.step());
        assert!(t.step());
        assert!(!t.step(), "no work left");
        assert_eq!(t.now, SimTime::from_ns(20));
    }

    #[test]
    fn run_until_lands_on_deadline_even_when_idle() {
        let mut t = ticker(1);
        t.run_until(SimTime::from_us(1));
        assert_eq!(t.now, SimTime::from_us(1));
        assert_eq!(t.remaining, 0);
    }

    #[test]
    fn run_until_procs_done_reports_timeout() {
        let mut t = ticker(100);
        assert!(!t.run_until_procs_done(SimTime::from_ns(55)));
        let mut t = ticker(3);
        assert!(t.run_until_procs_done(SimTime::from_us(1)));
        assert_eq!(t.now, SimTime::from_ns(30), "stops at completion");
    }

    #[test]
    fn wakeup_index_tracks_earliest_and_pops_due() {
        let mut ix = WakeupIndex::new(3);
        ix.set(0, Some(SimTime::from_ns(30)));
        ix.set(1, Some(SimTime::from_ns(10)));
        ix.set(2, None);
        assert_eq!(ix.earliest(), Some(SimTime::from_ns(10)));
        // Re-set replaces the old entry.
        ix.set(0, Some(SimTime::from_ns(5)));
        assert_eq!(ix.earliest(), Some(SimTime::from_ns(5)));
        assert_eq!(ix.pop_due(SimTime::from_ns(10)), Some(0));
        assert_eq!(ix.pop_due(SimTime::from_ns(10)), Some(1));
        assert_eq!(ix.pop_due(SimTime::from_ns(10)), None);
        assert_eq!(ix.get(0), None, "popped entries are cleared");
    }

    #[test]
    fn wakeup_index_breaks_ties_in_schedule_order() {
        let t = SimTime::from_ns(10);
        let mut ix = WakeupIndex::new(3);
        // Equal deadlines pop in the order they were set, not by id.
        ix.set(2, Some(t));
        ix.set(0, Some(t));
        ix.set(1, Some(t));
        // Re-setting an unchanged deadline keeps its place...
        ix.set(2, Some(t));
        // ...while moving one away and back sends it to the end.
        ix.set(0, Some(SimTime::from_ns(20)));
        ix.set(0, Some(t));
        let order: Vec<usize> = std::iter::from_fn(|| ix.pop_due(t)).collect();
        assert_eq!(order, vec![2, 1, 0]);
    }

    #[test]
    fn wakeup_index_clamps_past_deadlines() {
        let mut ix = WakeupIndex::new(2);
        ix.set(0, Some(SimTime::from_ns(50)));
        assert_eq!(ix.pop_due(SimTime::from_ns(50)), Some(0));
        // The index clock is now 50 ns; a "ready now" (ZERO) wakeup must
        // not panic the underlying queue.
        ix.set(1, Some(SimTime::ZERO));
        assert_eq!(ix.earliest(), Some(SimTime::from_ns(50)));
    }

    #[test]
    fn engine_dirty_list_dedupes_and_rounds_are_fifo() {
        let mut e = Engine::new(4);
        e.drain_stale();
        e.mark_dirty(2);
        e.mark_dirty(0);
        e.mark_dirty(2); // duplicate
        assert!(e.start_round());
        assert_eq!(e.pop_dirty(), Some(2));
        assert_eq!(e.pop_dirty(), Some(0));
        assert_eq!(e.pop_dirty(), None);
        // Marks during a round accumulate for the next one.
        e.mark_dirty(1);
        assert!(e.start_round());
        assert_eq!(e.pop_dirty(), Some(1));
        assert_eq!(e.pop_dirty(), None);
        assert!(!e.start_round());
        let mut touched = e.drain_touched();
        touched.sort_unstable();
        assert_eq!(touched, vec![0, 1, 2]);
        assert!(e.drain_touched().is_empty());
    }

    #[test]
    fn engine_begin_seeds_from_due_wakeups() {
        let mut e = Engine::new(3);
        e.drain_stale();
        e.set_wakeup(0, Some(SimTime::from_ns(10)));
        e.set_wakeup(1, Some(SimTime::from_ns(99)));
        e.set_wakeup(2, Some(SimTime::from_ns(10)));
        e.begin(SimTime::from_ns(20));
        assert!(e.start_round());
        assert_eq!(e.pop_dirty(), Some(0));
        assert_eq!(e.pop_dirty(), Some(2));
        assert_eq!(e.pop_dirty(), None);
        assert_eq!(e.earliest(), Some(SimTime::from_ns(99)));
        assert_eq!(e.stats.advances.get(), 1);
        assert_eq!(e.stats.component_polls.get(), 2);
    }

    #[test]
    fn engine_starts_with_everything_stale() {
        let mut e = Engine::new(3);
        let mut stale = e.drain_stale();
        stale.sort_unstable();
        assert_eq!(stale, vec![0, 1, 2]);
        assert!(e.drain_stale().is_empty());
        e.mark_stale(1);
        e.mark_stale(1);
        assert_eq!(e.drain_stale(), vec![1]);
    }

    #[test]
    fn hoisted_accounting_sums_nested_engines() {
        /// Two-level tree: an orchestrator with its own engine embedding
        /// one child orchestrator (the system-inside-rack shape).
        struct Nested {
            own: EngineStats,
            child: EngineStats,
        }
        impl Component for Nested {
            fn now(&self) -> SimTime {
                SimTime::ZERO
            }
            fn next_event(&mut self) -> Option<SimTime> {
                None
            }
            fn advance(&mut self, _t: SimTime) -> Activity {
                Activity::Idle
            }
            fn engine_accounting(&self, out: &mut Vec<(EngineStats, usize)>) {
                out.push((self.own, 4));
                out.push((self.child, 2));
            }
        }
        let mut n = Nested {
            own: EngineStats::default(),
            child: EngineStats::default(),
        };
        n.own.component_polls.add(10);
        n.own.rounds.add(3);
        n.own.advances.add(2);
        n.child.component_polls.add(5);
        n.child.rounds.add(1);
        n.child.advances.add(1);
        assert_eq!(n.engine_stats().component_polls.get(), 10, "own entry first");
        let (actual, scan) = n.poll_accounting();
        assert_eq!(actual, 15);
        assert_eq!(scan, (3 + 2) * 4 + (1 + 1) * 2);
        // Engine-less components report zeros, not a panic.
        assert_eq!(ticker(1).poll_accounting(), (0, 0));
        assert_eq!(ticker(1).engine_stats().rounds.get(), 0);
    }
}
