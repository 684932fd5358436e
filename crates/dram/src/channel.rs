//! Per-channel memory controller: FR-FCFS scheduling over a DDR4 channel.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use serde::{Deserialize, Serialize};

use mcn_sim::metrics::{Instrumented, MetricSink};
use mcn_sim::stats::{Counter, RateMeter};
use mcn_sim::SimTime;

use crate::addr::{AddressMap, Interleave};
use crate::bank::Bank;
use crate::check::{Cmd, TraceEntry};
use crate::config::DramConfig;
use crate::LINE_BYTES;

/// Direction of a memory transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemKind {
    /// Data flows from the DIMM to the requester.
    Read,
    /// Data flows from the requester to the DIMM.
    Write,
}

/// What the transaction addresses on the channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Target {
    /// Ordinary DRAM: subject to bank/row timing.
    Dram,
    /// The MCN interface SRAM on an MCN DIMM: fixed access latency, but the
    /// burst still occupies the shared channel data bus — this is how MCN
    /// driver traffic contends with host DRAM traffic on a global channel.
    Sram,
}

/// A 64-byte transaction presented to a channel controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Physical address (the containing cache line is transferred).
    pub addr: u64,
    /// Read or write.
    pub kind: MemKind,
    /// DRAM or MCN SRAM.
    pub target: Target,
    /// Caller-chosen identifier returned in the [`Completion`].
    pub tag: u64,
}

impl MemRequest {
    /// A DRAM read of the line containing `addr`.
    pub fn read(addr: u64, tag: u64) -> Self {
        MemRequest {
            addr,
            kind: MemKind::Read,
            target: Target::Dram,
            tag,
        }
    }

    /// A DRAM write of the line containing `addr`.
    pub fn write(addr: u64, tag: u64) -> Self {
        MemRequest {
            addr,
            kind: MemKind::Write,
            target: Target::Dram,
            tag,
        }
    }

    /// A read of an MCN DIMM's interface SRAM over this channel.
    pub fn sram_read(addr: u64, tag: u64) -> Self {
        MemRequest {
            addr,
            kind: MemKind::Read,
            target: Target::Sram,
            tag,
        }
    }

    /// A write to an MCN DIMM's interface SRAM over this channel.
    pub fn sram_write(addr: u64, tag: u64) -> Self {
        MemRequest {
            addr,
            kind: MemKind::Write,
            target: Target::Sram,
            tag,
        }
    }
}

/// A finished transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Tag from the originating [`MemRequest`].
    pub tag: u64,
    /// Time the data transfer (and controller front end) finished.
    pub at: SimTime,
    /// Direction of the finished transaction.
    pub kind: MemKind,
}

/// Aggregate counters for one channel.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct ChannelStats {
    /// DRAM read bursts completed.
    pub reads: Counter,
    /// DRAM write bursts completed.
    pub writes: Counter,
    /// ACT commands issued (row misses under open-page policy).
    pub activates: Counter,
    /// PRE commands issued.
    pub precharges: Counter,
    /// REF commands issued.
    pub refreshes: Counter,
    /// SRAM transactions (MCN interface traffic) on this channel.
    pub sram_ops: Counter,
    /// Data-bus busy time in picoseconds.
    pub busy_ps: Counter,
    /// Bytes moved (DRAM + SRAM), with first/last timestamps for bandwidth.
    pub traffic: RateMeter,
}

impl Instrumented for ChannelStats {
    fn metrics(&self, out: &mut MetricSink) {
        out.counter("reads", self.reads.get());
        out.counter("writes", self.writes.get());
        out.counter("activates", self.activates.get());
        out.counter("precharges", self.precharges.get());
        out.counter("refreshes", self.refreshes.get());
        out.counter("sram_ops", self.sram_ops.get());
        out.counter("busy_ps", self.busy_ps.get());
        out.meter("traffic", &self.traffic);
    }
}

impl ChannelStats {
    /// CAS operations that did not require an ACT (row-buffer hits).
    pub fn row_hits(&self) -> u64 {
        (self.reads.get() + self.writes.get()).saturating_sub(self.activates.get())
    }

    /// Row-buffer hit rate over all DRAM CAS operations, or 0 when idle.
    pub fn hit_rate(&self) -> f64 {
        let cas = self.reads.get() + self.writes.get();
        if cas == 0 {
            0.0
        } else {
            self.row_hits() as f64 / cas as f64
        }
    }

    /// Fraction of `elapsed` the data bus was busy.
    pub fn utilization(&self, elapsed: SimTime) -> f64 {
        if elapsed == SimTime::ZERO {
            0.0
        } else {
            self.busy_ps.get() as f64 / elapsed.as_ps() as f64
        }
    }
}

#[derive(Debug, Clone)]
struct Pending {
    req: MemRequest,
    seq: u64,
    /// Time the request entered the controller; no command for it may be
    /// issued earlier (causality).
    arrived: SimTime,
    /// Where a DRAM request lands, decoded once in `push`; unused (zero)
    /// for SRAM requests.
    at: Coord,
}

/// The DRAM coordinates the scheduler needs for one request.
#[derive(Debug, Clone, Copy, Default)]
struct Coord {
    /// Flat bank index within the channel.
    bank: usize,
    rank: u32,
    /// Flat (rank, bank group) index.
    rank_bg: u32,
    row: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CompEntry {
    at: SimTime,
    seq: u64,
    tag: u64,
    kind: MemKind,
}

impl PartialOrd for CompEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for CompEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at.cmp(&other.at).then(self.seq.cmp(&other.seq))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QueueId {
    Read,
    Write,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    Cas(QueueId, usize),
    Act(QueueId, usize),
    Pre(usize),
    Sram(QueueId, usize),
    Refresh,
}

/// One memory channel: request queues, an FR-FCFS command scheduler, bank
/// state, and the shared data bus.
///
/// See the crate docs for the driving protocol
/// ([`push`](Self::push) / [`next_event`](Self::next_event) /
/// [`advance`](Self::advance)).
#[derive(Debug)]
pub struct Channel {
    cfg: DramConfig,
    map: AddressMap,
    index: u32,

    banks: Vec<Bank>,
    /// Earliest next CAS per (rank, bank group) — tCCD_L.
    next_cas_bg: Vec<SimTime>,
    /// Earliest next CAS channel-wide — tCCD_S.
    next_cas_any: SimTime,
    /// Earliest next ACT per (rank, bank group) — tRRD_L.
    next_act_bg: Vec<SimTime>,
    /// Earliest next ACT per rank — tRRD_S.
    next_act_rank: Vec<SimTime>,
    /// Last up-to-4 ACT times per rank — tFAW window.
    act_window: Vec<VecDeque<SimTime>>,
    /// Earliest next RD per (rank, bank group) — tWTR_L after a write burst.
    rd_block_bg: Vec<SimTime>,
    /// Earliest next RD per rank — tWTR_S.
    rd_block_rank: Vec<SimTime>,

    dbus_free: SimTime,
    /// Direction of the last data burst; `None` until the bus is first used
    /// (no turnaround penalty applies from the pristine state).
    last_dir: Option<MemKind>,
    cmd_slot: SimTime,
    /// Latest time the controller has been advanced or pushed to; clamps
    /// `next_event` so callers never see wake-ups in their past.
    clock: SimTime,

    read_q: Vec<Pending>,
    write_q: Vec<Pending>,
    next_seq: u64,
    completions: BinaryHeap<Reverse<CompEntry>>,

    refresh_due: SimTime,
    refresh_mode: bool,
    drain_writes: bool,
    /// [`scan`](Self::scan)'s answer, kept until a push, an issued command
    /// or entry into refresh mode changes what it reads.
    picked: Cell<Option<Option<(Action, SimTime)>>>,

    stats: ChannelStats,
    trace: Option<Vec<TraceEntry>>,
}

impl Channel {
    /// Creates a standalone single-channel controller (`index` must be 0 for
    /// addresses to decode; used in tests and for MCN-local channels).
    pub fn new(cfg: &DramConfig, index: u32) -> Self {
        Self::with_map(
            AddressMap::new(cfg.clone(), 1, Interleave::BgInterleaved),
            index,
        )
    }

    /// Creates a controller for channel `index` of a multi-channel system
    /// described by `map`. Requests pushed here must decode to this channel.
    pub fn with_map(map: AddressMap, index: u32) -> Self {
        let cfg = map.config().clone();
        let nbanks = cfg.banks_per_channel() as usize;
        let rank_bg = (cfg.ranks * cfg.bank_groups) as usize;
        let refresh_due = cfg.cycles(cfg.t_refi);
        Channel {
            banks: vec![Bank::default(); nbanks],
            next_cas_bg: vec![SimTime::ZERO; rank_bg],
            next_cas_any: SimTime::ZERO,
            next_act_bg: vec![SimTime::ZERO; rank_bg],
            next_act_rank: vec![SimTime::ZERO; cfg.ranks as usize],
            act_window: vec![VecDeque::with_capacity(4); cfg.ranks as usize],
            rd_block_bg: vec![SimTime::ZERO; rank_bg],
            rd_block_rank: vec![SimTime::ZERO; cfg.ranks as usize],
            dbus_free: SimTime::ZERO,
            last_dir: None,
            cmd_slot: SimTime::ZERO,
            clock: SimTime::ZERO,
            read_q: Vec::new(),
            write_q: Vec::new(),
            next_seq: 0,
            completions: BinaryHeap::new(),
            refresh_due,
            refresh_mode: false,
            drain_writes: false,
            picked: Cell::new(None),
            stats: ChannelStats::default(),
            trace: None,
            cfg,
            map,
            index,
        }
    }

    /// Enables command-trace recording for validation with
    /// [`crate::check::TimingChecker`].
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// The recorded command trace (empty unless [`enable_trace`](Self::enable_trace)
    /// was called).
    pub fn trace(&self) -> &[TraceEntry] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// The channel's configuration.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Whether a request of the given kind can be accepted right now
    /// (queue space available).
    pub fn can_accept(&self, kind: MemKind) -> bool {
        match kind {
            MemKind::Read => self.read_q.len() < self.cfg.read_queue,
            MemKind::Write => self.write_q.len() < self.cfg.write_queue,
        }
    }

    /// Requests not yet completed (queued or in flight).
    pub fn outstanding(&self) -> usize {
        self.read_q.len() + self.write_q.len() + self.completions.len()
    }

    /// Enqueues a transaction.
    ///
    /// # Panics
    ///
    /// Panics if the corresponding queue is full (callers must check
    /// [`can_accept`](Self::can_accept)) or if a DRAM request decodes to a
    /// different channel than this one.
    pub fn push(&mut self, req: MemRequest, now: SimTime) {
        assert!(self.can_accept(req.kind), "queue full: check can_accept()");
        self.clock = self.clock.max(now);
        let at = if req.target == Target::Dram {
            let loc = self.map.decode(req.addr);
            assert_eq!(
                loc.channel, self.index,
                "request addr {:#x} decodes to channel {}, pushed to {}",
                req.addr, loc.channel, self.index
            );
            Coord {
                bank: loc.flat_bank(&self.cfg),
                rank: loc.rank,
                rank_bg: loc.bank_group + loc.rank * self.cfg.bank_groups,
                row: loc.row,
            }
        } else {
            Coord::default()
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        let pending = Pending {
            req,
            seq,
            arrived: self.clock,
            at,
        };
        self.picked.set(None);
        match req.kind {
            MemKind::Read => self.read_q.push(pending),
            MemKind::Write => self.write_q.push(pending),
        }
        if self.write_q.len() >= self.cfg.wq_high {
            self.drain_writes = true;
        }
    }

    /// The next time this channel wants [`advance`](Self::advance) called:
    /// the earliest of (next feasible command, refresh deadline, earliest
    /// completion delivery). `None` when fully idle.
    pub fn next_event(&self) -> Option<SimTime> {
        self.earliest_work().map(|t| t.max(self.clock))
    }

    /// The time of the earliest work this channel holds: its
    /// [`next_event`](Self::next_event) before the clamp to the channel
    /// clock. When a request pushed at a future time ran the clock ahead
    /// of this, the next [`advance`](Self::advance) issues
    /// earlier-dated commands, whose completions may land by then.
    pub fn earliest_work(&self) -> Option<SimTime> {
        self.work_for(self.pick())
    }

    /// Tags of the completions already scheduled for delivery by `t`
    /// (in no particular order). Commands issued at or after `t` complete
    /// strictly later, so when [`earliest_work`](Self::earliest_work) is
    /// not before `t` these are all that `advance(t)` can deliver.
    pub fn completions_by(&self, t: SimTime) -> impl Iterator<Item = u64> + '_ {
        self.completions
            .iter()
            .filter(move |Reverse(c)| c.at <= t)
            .map(|Reverse(c)| c.tag)
    }

    /// [`earliest_work`](Self::earliest_work) given the scheduler's pick.
    fn work_for(&self, picked: Option<(Action, SimTime)>) -> Option<SimTime> {
        let mut t = self
            .completions
            .peek()
            .map(|Reverse(c)| c.at)
            .unwrap_or(SimTime::MAX);
        if let Some((_, ta)) = picked {
            t = t.min(ta);
        }
        // Refresh wakes only channels that have seen traffic; waking the
        // simulation forever for refreshes of an untouched channel would be
        // wasted work, and an untouched channel has no state to lose.
        if !self.refresh_mode && self.stats.traffic.bytes() > 0 {
            t = t.min(self.refresh_due);
        }
        (t != SimTime::MAX).then_some(t)
    }

    /// Advances the controller to `now`, issuing every command that becomes
    /// feasible on the way, and returns the completions whose delivery time
    /// is `<= now` (in delivery order).
    pub fn advance(&mut self, now: SimTime) -> Vec<Completion> {
        self.clock = self.clock.max(now);
        loop {
            if !self.refresh_mode && now >= self.refresh_due && self.stats.traffic.bytes() > 0 {
                self.refresh_mode = true;
                self.picked.set(None);
            }
            match self.pick() {
                Some((action, t)) if t <= now => self.issue(action, t),
                _ => break,
            }
        }
        let mut out = Vec::new();
        while let Some(Reverse(c)) = self.completions.peek() {
            if c.at > now {
                break;
            }
            let Reverse(c) = self.completions.pop().expect("peeked");
            out.push(Completion {
                tag: c.tag,
                at: c.at,
                kind: c.kind,
            });
        }
        out
    }

    // ---- scheduling ----

    /// Earliest issue time for a CAS to an open row.
    fn cas_time(&self, rank: u32, rank_bg: u32, bank: usize, kind: MemKind) -> SimTime {
        let c = &self.cfg;
        let mut t = self.banks[bank]
            .cas_ready
            .max(self.next_cas_bg[rank_bg as usize])
            .max(self.next_cas_any)
            .max(self.cmd_slot);
        if kind == MemKind::Read {
            t = t
                .max(self.rd_block_bg[rank_bg as usize])
                .max(self.rd_block_rank[rank as usize]);
        }
        // Data-bus availability: data starts tCL/tCWL after the command.
        let lat = match kind {
            MemKind::Read => c.cycles(c.t_cl),
            MemKind::Write => c.cycles(c.t_cwl),
        };
        let turn = match self.last_dir {
            Some(d) if d != kind => c.cycles(2),
            _ => SimTime::ZERO,
        };
        let data_earliest = self.dbus_free + turn;
        if data_earliest > t + lat {
            t = data_earliest - lat;
        }
        t
    }

    fn act_time(&self, rank: u32, rank_bg: u32, bank: usize) -> SimTime {
        let c = &self.cfg;
        let mut t = self.banks[bank]
            .act_ready
            .max(self.next_act_bg[rank_bg as usize])
            .max(self.next_act_rank[rank as usize])
            .max(self.cmd_slot);
        let window = &self.act_window[rank as usize];
        if window.len() == 4 {
            t = t.max(window[0] + c.cycles(c.t_faw));
        }
        t
    }

    fn sram_time(&self, kind: MemKind) -> SimTime {
        // SRAM transfers use the data bus directly (the buffer device drives
        // DQ); no bank timing applies.
        let turn = match self.last_dir {
            Some(d) if d != kind => self.cfg.cycles(2),
            _ => SimTime::ZERO,
        };
        (self.dbus_free + turn).max(self.cmd_slot)
    }

    /// True if any queued request hits `row` currently open in `bank`.
    fn row_has_pending_hit(&self, bank: usize, row: u64) -> bool {
        let hit = |q: &[Pending]| {
            q.iter()
                .any(|p| p.req.target == Target::Dram && p.at.bank == bank && p.at.row == row)
        };
        hit(&self.read_q) || hit(&self.write_q)
    }

    /// Candidates from one queue: (best CAS-like action, oldest PRE/ACT).
    fn queue_candidates(&self, qid: QueueId) -> Option<(Action, SimTime)> {
        let q = match qid {
            QueueId::Read => &self.read_q,
            QueueId::Write => &self.write_q,
        };
        let mut best_cas: Option<(Action, SimTime)> = None;
        let mut oldest_other: Option<(Action, SimTime)> = None;
        for (idx, p) in q.iter().enumerate() {
            match p.req.target {
                Target::Sram => {
                    let t = self.sram_time(p.req.kind).max(p.arrived);
                    if best_cas.is_none_or(|(_, bt)| t < bt) {
                        best_cas = Some((Action::Sram(qid, idx), t));
                    }
                }
                Target::Dram => {
                    let Coord {
                        bank,
                        rank,
                        rank_bg,
                        row,
                    } = p.at;
                    match self.banks[bank].open_row() {
                        Some(open) if open == row => {
                            let t = self
                                .cas_time(rank, rank_bg, bank, p.req.kind)
                                .max(p.arrived);
                            if best_cas.is_none_or(|(_, bt)| t < bt) {
                                best_cas = Some((Action::Cas(qid, idx), t));
                            }
                        }
                        Some(open) => {
                            if oldest_other.is_none()
                                && !self.refresh_mode
                                && !self.row_has_pending_hit(bank, open)
                            {
                                let t = self.banks[bank]
                                    .pre_ready
                                    .max(self.cmd_slot)
                                    .max(p.arrived);
                                oldest_other = Some((Action::Pre(bank), t));
                            }
                        }
                        None => {
                            if oldest_other.is_none() && !self.refresh_mode {
                                let t = self.act_time(rank, rank_bg, bank).max(p.arrived);
                                oldest_other = Some((Action::Act(qid, idx), t));
                            }
                        }
                    }
                }
            }
        }
        match (best_cas, oldest_other) {
            (Some(a), Some(b)) => Some(if a.1 <= b.1 { a } else { b }),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        }
    }

    /// The next command and its earliest issue time: [`scan`](Self::scan)
    /// answered from the cache when nothing it reads has changed, so
    /// wakeup queries and no-op advances do not rescan the queues. Debug
    /// builds rescan on every call and check the cache against it.
    fn pick(&self) -> Option<(Action, SimTime)> {
        let picked = self.picked.get().unwrap_or_else(|| {
            let p = self.scan();
            self.picked.set(Some(p));
            p
        });
        debug_assert_eq!(picked, self.scan(), "stale DRAM pick cache");
        picked
    }

    /// FR-FCFS over the queues (or the refresh sequence in refresh mode).
    fn scan(&self) -> Option<(Action, SimTime)> {
        if self.refresh_mode {
            // Close all banks, then REF once tRP has elapsed everywhere.
            let mut pre: Option<(usize, SimTime)> = None;
            let mut all_ready = self.refresh_due.max(self.cmd_slot);
            for (i, b) in self.banks.iter().enumerate() {
                if b.open_row().is_some() {
                    let t = b.pre_ready.max(self.cmd_slot);
                    if pre.is_none_or(|(_, pt)| t < pt) {
                        pre = Some((i, t));
                    }
                } else {
                    all_ready = all_ready.max(b.act_ready.min(SimTime::MAX));
                }
            }
            if let Some((bank, t)) = pre {
                return Some((Action::Pre(bank), t));
            }
            // All banks idle; REF when every bank's precharge has settled.
            let t = self
                .banks
                .iter()
                .fold(all_ready, |acc, b| acc.max(b.act_ready));
            return Some((Action::Refresh, t));
        }

        let primary = if self.drain_writes || self.read_q.is_empty() {
            QueueId::Write
        } else {
            QueueId::Read
        };
        let secondary = match primary {
            QueueId::Read => QueueId::Write,
            QueueId::Write => QueueId::Read,
        };
        self.queue_candidates(primary)
            .or_else(|| self.queue_candidates(secondary))
    }

    fn record(&mut self, at: SimTime, cmd: Cmd) {
        if let Some(trace) = &mut self.trace {
            trace.push(TraceEntry { at, cmd });
        }
    }

    fn issue(&mut self, action: Action, t: SimTime) {
        self.picked.set(None);
        self.cmd_slot = t + self.cfg.cycles(1);
        match action {
            Action::Refresh => {
                let c = &self.cfg;
                for b in &mut self.banks {
                    debug_assert!(b.open_row().is_none());
                    b.act_ready = b.act_ready.max(t + c.cycles(c.t_rfc));
                }
                self.refresh_due += c.cycles(c.t_refi);
                self.refresh_mode = false;
                self.stats.refreshes.inc();
                self.record(t, Cmd::Ref);
            }
            Action::Pre(bank) => {
                let c = &self.cfg;
                self.banks[bank].precharge(t, c.cycles(c.t_rp));
                self.stats.precharges.inc();
                self.record(t, Cmd::Pre { bank });
            }
            Action::Act(qid, idx) => {
                let Coord {
                    bank,
                    rank,
                    rank_bg,
                    row,
                } = self.peek(qid, idx).at;
                let c = &self.cfg;
                self.banks[bank].activate(
                    t,
                    row,
                    c.cycles(c.t_rcd),
                    c.cycles(c.t_ras),
                    c.cycles(c.t_rc),
                );
                self.next_act_bg[rank_bg as usize] = t + c.cycles(c.t_rrd_l);
                self.next_act_rank[rank as usize] = t + c.cycles(c.t_rrd_s);
                let w = &mut self.act_window[rank as usize];
                if w.len() == 4 {
                    w.pop_front();
                }
                w.push_back(t);
                self.stats.activates.inc();
                self.record(t, Cmd::Act { bank, row });
            }
            Action::Cas(qid, idx) => {
                let p = self.take(qid, idx);
                let Coord {
                    bank,
                    rank,
                    rank_bg,
                    row,
                } = p.at;
                let c = &self.cfg;
                let (lat, cmd) = match p.req.kind {
                    MemKind::Read => (c.cycles(c.t_cl), Cmd::Rd { bank, row }),
                    MemKind::Write => (c.cycles(c.t_cwl), Cmd::Wr { bank, row }),
                };
                let data_start = t + lat;
                let data_end = data_start + c.t_burst();
                self.next_cas_bg[rank_bg as usize] = t + c.cycles(c.t_ccd_l);
                self.next_cas_any = t + c.cycles(c.t_ccd_s);
                self.dbus_free = data_end;
                self.last_dir = Some(p.req.kind);
                match p.req.kind {
                    MemKind::Read => {
                        self.banks[bank].read(t, c.cycles(c.t_rtp));
                        self.stats.reads.inc();
                    }
                    MemKind::Write => {
                        self.banks[bank].write(data_end, c.cycles(c.t_wr));
                        self.rd_block_bg[rank_bg as usize] = data_end + c.cycles(c.t_wtr_l);
                        self.rd_block_rank[rank as usize] = data_end + c.cycles(c.t_wtr_s);
                        self.stats.writes.inc();
                    }
                }
                self.finish(p, data_end);
                self.record(t, cmd);
            }
            Action::Sram(qid, idx) => {
                let p = self.take(qid, idx);
                let data_end = t + self.cfg.t_burst();
                self.dbus_free = data_end;
                self.last_dir = Some(p.req.kind);
                self.stats.sram_ops.inc();
                self.finish(p, data_end + SimTime::from_ps(self.cfg.sram_ps));
            }
        }
    }

    fn peek(&self, qid: QueueId, idx: usize) -> &Pending {
        match qid {
            QueueId::Read => &self.read_q[idx],
            QueueId::Write => &self.write_q[idx],
        }
    }

    fn take(&mut self, qid: QueueId, idx: usize) -> Pending {
        let p = match qid {
            QueueId::Read => self.read_q.remove(idx),
            QueueId::Write => self.write_q.remove(idx),
        };
        if self.write_q.len() <= self.cfg.wq_low {
            self.drain_writes = false;
        }
        p
    }

    fn finish(&mut self, p: Pending, data_end: SimTime) {
        let at = data_end + SimTime::from_ps(self.cfg.frontend_ps);
        self.stats.busy_ps.add(self.cfg.t_burst().as_ps());
        self.stats.traffic.record(data_end, LINE_BYTES);
        self.completions.push(Reverse(CompEntry {
            at,
            seq: p.seq,
            tag: p.req.tag,
            kind: p.req.kind,
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive_until_idle(ch: &mut Channel) -> Vec<Completion> {
        let mut done = Vec::new();
        while let Some(t) = ch.next_event() {
            done.extend(ch.advance(t));
            if ch.outstanding() == 0 {
                break;
            }
        }
        done
    }

    #[test]
    fn single_read_latency_is_act_rcd_cl_burst() {
        let cfg = DramConfig::ddr4_3200();
        let mut ch = Channel::new(&cfg, 0);
        ch.push(MemRequest::read(0, 1), SimTime::ZERO);
        let done = drive_until_idle(&mut ch);
        assert_eq!(done.len(), 1);
        // ACT@0 + tRCD + tCL + tBURST + frontend
        let expect = cfg.cycles(cfg.t_rcd + cfg.t_cl + cfg.bl / 2)
            + SimTime::from_ps(cfg.frontend_ps);
        assert_eq!(done[0].at, expect);
        assert_eq!(ch.stats().activates.get(), 1);
        assert_eq!(ch.stats().reads.get(), 1);
    }

    #[test]
    fn row_hit_faster_than_row_miss() {
        let cfg = DramConfig::ddr4_3200();
        // Two reads to the same row (hit) vs two to different rows of the
        // same bank (miss): the hit pair must finish earlier.
        let map = AddressMap::new(cfg.clone(), 1, Interleave::BgInterleaved);
        let base = 0u64;
        let same_row = base + 4 * LINE_BYTES; // next col, same bank (bg stride 4)
        let mut loc = map.decode(base);
        loc.row += 1;
        let other_row = map.encode(loc);

        let mut hit_ch = Channel::new(&cfg, 0);
        hit_ch.push(MemRequest::read(base, 1), SimTime::ZERO);
        hit_ch.push(MemRequest::read(same_row, 2), SimTime::ZERO);
        let hit_done = drive_until_idle(&mut hit_ch);

        let mut miss_ch = Channel::new(&cfg, 0);
        miss_ch.push(MemRequest::read(base, 1), SimTime::ZERO);
        miss_ch.push(MemRequest::read(other_row, 2), SimTime::ZERO);
        let miss_done = drive_until_idle(&mut miss_ch);

        assert!(hit_done[1].at < miss_done[1].at);
        assert_eq!(hit_ch.stats().activates.get(), 1);
        assert_eq!(hit_ch.stats().row_hits(), 1);
        assert_eq!(miss_ch.stats().activates.get(), 2);
        assert_eq!(miss_ch.stats().precharges.get(), 1);
    }

    #[test]
    fn streaming_reads_approach_peak_bandwidth() {
        let cfg = DramConfig::ddr4_3200();
        let mut ch = Channel::new(&cfg, 0);
        let mut addr = 0u64;
        let mut tag = 0u64;
        let total = 4096u64; // 256 KB
        let mut completed = 0u64;
        let mut last = SimTime::ZERO;
        while completed < total {
            while tag < total && ch.can_accept(MemKind::Read) {
                ch.push(MemRequest::read(addr, tag), last);
                addr += LINE_BYTES;
                tag += 1;
            }
            let t = ch.next_event().expect("busy");
            let done = ch.advance(t);
            completed += done.len() as u64;
            if let Some(d) = done.last() {
                last = d.at;
            }
        }
        let secs = last.as_secs_f64();
        let bw = (total * LINE_BYTES) as f64 / secs;
        let peak = cfg.peak_bytes_per_sec();
        assert!(
            bw > 0.85 * peak,
            "streaming bandwidth {:.2} GB/s should be >85% of peak {:.2} GB/s",
            bw / 1e9,
            peak / 1e9
        );
    }

    #[test]
    fn random_reads_much_slower_than_streaming() {
        let cfg = DramConfig::ddr4_3200();
        let mut ch = Channel::new(&cfg, 0);
        let mut rng = mcn_sim::DetRng::new(1);
        let total = 1024u64;
        let mut issued = 0u64;
        let mut completed = 0u64;
        let mut last = SimTime::ZERO;
        let span = ch.config().channel_bytes();
        while completed < total {
            while issued < total && ch.can_accept(MemKind::Read) {
                let addr = rng.next_below(span / LINE_BYTES) * LINE_BYTES;
                ch.push(MemRequest::read(addr, issued), last);
                issued += 1;
            }
            let t = ch.next_event().expect("busy");
            let done = ch.advance(t);
            completed += done.len() as u64;
            if let Some(d) = done.last() {
                last = d.at;
            }
        }
        let bw = (total * LINE_BYTES) as f64 / last.as_secs_f64();
        assert!(
            bw < 0.6 * cfg.peak_bytes_per_sec(),
            "random-access bandwidth {:.2} GB/s should be well below peak",
            bw / 1e9
        );
        assert!(ch.stats().hit_rate() < 0.5);
    }

    #[test]
    fn writes_complete_and_drain_mode_engages() {
        let cfg = DramConfig::ddr4_3200();
        let mut ch = Channel::new(&cfg, 0);
        for i in 0..cfg.wq_high as u64 {
            assert!(ch.can_accept(MemKind::Write));
            ch.push(MemRequest::write(i * LINE_BYTES, i), SimTime::ZERO);
        }
        let done = drive_until_idle(&mut ch);
        assert_eq!(done.len(), cfg.wq_high);
        assert_eq!(ch.stats().writes.get(), cfg.wq_high as u64);
    }

    #[test]
    fn reads_prioritized_over_background_writes() {
        let cfg = DramConfig::ddr4_3200();
        let mut ch = Channel::new(&cfg, 0);
        // A few writes below the drain watermark, then a read.
        for i in 0..4u64 {
            ch.push(MemRequest::write(i * LINE_BYTES, 100 + i), SimTime::ZERO);
        }
        ch.push(MemRequest::read(1 << 20, 1), SimTime::ZERO);
        let done = drive_until_idle(&mut ch);
        let read_pos = done.iter().position(|c| c.tag == 1).unwrap();
        assert_eq!(read_pos, 0, "read must finish before queued writes");
    }

    #[test]
    fn sram_requests_complete_with_fixed_latency_and_share_bus() {
        let cfg = DramConfig::ddr4_3200();
        let mut ch = Channel::new(&cfg, 0);
        ch.push(MemRequest::sram_write(0x4000_0000, 7), SimTime::ZERO);
        let done = drive_until_idle(&mut ch);
        assert_eq!(done.len(), 1);
        let expect = cfg.t_burst()
            + SimTime::from_ps(cfg.sram_ps)
            + SimTime::from_ps(cfg.frontend_ps);
        assert_eq!(done[0].at, expect);
        assert_eq!(ch.stats().sram_ops.get(), 1);
    }

    #[test]
    fn sram_and_dram_traffic_contend_for_the_bus() {
        // A DRAM stream alone vs the same stream + interleaved SRAM traffic:
        // the stream must finish later in the second case.
        let cfg = DramConfig::ddr4_3200();
        let run = |with_sram: bool| -> SimTime {
            let mut ch = Channel::new(&cfg, 0);
            let n = 512u64;
            let mut issued = 0u64;
            let mut sram_issued = 0u64;
            let mut done_stream = 0u64;
            let mut finish = SimTime::ZERO;
            while done_stream < n {
                while issued < n && ch.can_accept(MemKind::Read) {
                    ch.push(MemRequest::read(issued * LINE_BYTES, issued), finish);
                    issued += 1;
                    if with_sram && sram_issued < n && ch.can_accept(MemKind::Write) {
                        ch.push(
                            MemRequest::sram_write(0x4000_0000, 1_000_000 + sram_issued),
                            finish,
                        );
                        sram_issued += 1;
                    }
                }
                let t = ch.next_event().expect("busy");
                for c in ch.advance(t) {
                    if c.tag < n {
                        done_stream += 1;
                        finish = c.at;
                    }
                }
            }
            finish
        };
        let alone = run(false);
        let contended = run(true);
        assert!(
            contended > alone + alone / 2,
            "SRAM traffic must slow the DRAM stream: alone {alone}, contended {contended}"
        );
    }

    #[test]
    fn refresh_happens_under_traffic() {
        let cfg = DramConfig::ddr4_3200();
        let mut ch = Channel::new(&cfg, 0);
        // Trickle reads over > 2*tREFI of simulated time.
        let refi = cfg.cycles(cfg.t_refi);
        let mut now = SimTime::ZERO;
        for i in 0..50u64 {
            ch.push(MemRequest::read(i * LINE_BYTES, i), now);
            while let Some(t) = ch.next_event() {
                let done = ch.advance(t);
                now = now.max(t);
                if done.iter().any(|c| c.tag == i) {
                    break;
                }
            }
            // Let time pass between requests.
            let idle_until = now + refi / 10;
            now = idle_until;
            let _ = ch.advance(now);
        }
        assert!(
            ch.stats().refreshes.get() >= 2,
            "expected refreshes during {now}, got {}",
            ch.stats().refreshes.get()
        );
    }

    #[test]
    fn cached_pick_matches_a_fresh_scan_after_every_call() {
        let cfg = DramConfig::ddr4_3200();
        let mut ch = Channel::new(&cfg, 0);
        ch.enable_trace();
        let mut rng = mcn_sim::DetRng::new(13);
        let refi = cfg.cycles(cfg.t_refi);
        let span = cfg.channel_bytes() / LINE_BYTES;
        let mut drain_flips = 0;
        let mut check = |ch: &Channel| {
            assert_eq!(ch.earliest_work(), ch.work_for(ch.scan()));
            if ch.drain_writes != (drain_flips % 2 == 1) {
                drain_flips += 1;
            }
        };
        let (mut now, mut tag) = (SimTime::ZERO, 0u64);
        while now < refi * 6 || ch.outstanding() > 0 {
            // A seeded burst: reads and writes, a few to the MCN SRAM, half
            // of the DRAM lines in a few hot rows so hits, misses and
            // conflicts all occur. Bursts run long enough to fill the
            // write queue past the high watermark.
            if now < refi * 6 {
                for _ in 0..rng.next_below(48) {
                    let write = rng.chance(0.5);
                    if !ch.can_accept(if write { MemKind::Write } else { MemKind::Read }) {
                        break;
                    }
                    let line = if rng.chance(0.5) {
                        rng.next_below(1024)
                    } else {
                        rng.next_below(span)
                    };
                    let req = match (rng.chance(0.1), write) {
                        (true, true) => MemRequest::sram_write(0x4000_0000, tag),
                        (true, false) => MemRequest::sram_read(0x4000_0000, tag),
                        (false, true) => MemRequest::write(line * LINE_BYTES, tag),
                        (false, false) => MemRequest::read(line * LINE_BYTES, tag),
                    };
                    ch.push(req, now);
                    tag += 1;
                    check(&ch);
                }
            }
            // Advance to arbitrary times: exactly the next event, a little
            // ahead of now (often a no-op), or far ahead (past refreshes).
            for _ in 0..1 + rng.next_below(6) {
                now = match (rng.next_below(3), ch.next_event()) {
                    (0, Some(t)) => t,
                    (1, _) => now + SimTime::from_ps(rng.next_below(200_000)),
                    _ => now + SimTime::from_ps(rng.next_below(refi.as_ps() / 3)),
                }
                .max(now);
                ch.advance(now);
                check(&ch);
            }
        }
        assert!(
            drain_flips >= 2,
            "write drain entered and left: {drain_flips}"
        );
        assert!(ch.stats().refreshes.get() >= 5);
        assert!(ch.stats().sram_ops.get() > 0);
        assert!(ch.stats().precharges.get() > 0 && ch.stats().row_hits() > 0);
        let violations = crate::check::TimingChecker::new(cfg).verify(ch.trace());
        assert!(violations.is_empty(), "violations: {violations:?}");
    }

    #[test]
    #[should_panic(expected = "queue full")]
    fn push_past_capacity_panics() {
        let cfg = DramConfig::ddr4_3200();
        let mut ch = Channel::new(&cfg, 0);
        for i in 0..=cfg.read_queue as u64 {
            ch.push(MemRequest::read(i * LINE_BYTES, i), SimTime::ZERO);
        }
    }

    #[test]
    #[should_panic(expected = "decodes to channel")]
    fn wrong_channel_push_panics() {
        let cfg = DramConfig::ddr4_3200();
        let map = AddressMap::new(cfg, 2, Interleave::BgInterleaved);
        let mut ch = Channel::with_map(map, 0);
        // Line 1 maps to channel 1.
        ch.push(MemRequest::read(LINE_BYTES, 1), SimTime::ZERO);
    }
}
