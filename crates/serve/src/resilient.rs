//! The open-loop KV client.
//!
//! Each [`ResilientKvClient`] is one load generator: requests *arrive* on
//! a seeded heavy-tailed schedule regardless of how the servers are
//! doing (open loop), so server slowdowns show up as queueing delay in
//! the measured latency rather than as a politely reduced offered load.
//! Keys are drawn from a quadratically skewed distribution over the
//! keyspace (a few hot keys, a long cold tail), in integer arithmetic
//! off a [`DetRng`].
//!
//! The client speaks to a whole [`ReplicaMap`] of backends. Over a
//! one-backend map with hedging off it is a plain client of one server:
//! a refused, reset or keepalive-reaped connection is reconnected after
//! a backoff, and its requests are re-sent until they are answered or
//! their hard deadline passes. Over a replicated map it survives a
//! failure domain dying mid-run. Its toolkit:
//!
//! * **Failover** — a request whose backend dies (RTO give-up, RST,
//!   keepalive give-up, EOF with work in flight) or times out is re-sent
//!   to a replica in a *different* failure domain (`serve.failovers`).
//! * **Retry budget** — failovers spend from a token bucket refilled by
//!   successes, so an outage degrades into bounded retries instead of a
//!   retry storm (`serve.retry_budget_{spent,exhausted}`).
//! * **Circuit breaker** — per-backend; consecutive failures open it,
//!   seeded half-open probes test recovery
//!   (`serve.breaker_{opens,half_open_probes}`).
//! * **Hedged reads** — a GET unanswered after the hedge delay is also
//!   sent to the other replica and the first answer wins
//!   (`serve.hedges_{launched,won}`).
//! * **Zero-window suppression** — a backend advertising a zero receive
//!   window is alive-but-full (TCP persist probes are already pacing it),
//!   so a stalled request waits instead of failing over spuriously.
//!
//! Every decision is a pure function of simulated time and the client's
//! seeded RNG — hedge launches fire on sim timers, breaker probe delays
//! come from [`DetRng`] — so runs are byte-identical at any
//! `run_parallel` thread count. Accounting keeps the identity
//! `issued == answered + gave_up`: no request ever vanishes silently.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;

use mcn_net::tcp::TcpState;
use mcn_net::SockId;
use mcn_node::{Poll, ProcCtx, Process, Wake};
use mcn_sim::{DetRng, SimTime};

use crate::placement::ReplicaMap;
use crate::report::ServeReport;

/// Circuit-breaker knobs.
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Consecutive failures that open the breaker.
    pub failure_threshold: u32,
    /// How long the breaker stays open before a half-open probe.
    pub open_for: SimTime,
    /// Max seeded extra delay added to `open_for` (desynchronizes probe
    /// storms across the fleet while staying deterministic).
    pub probe_jitter: SimTime,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            open_for: SimTime::from_ms(2),
            probe_jitter: SimTime::from_us(500),
        }
    }
}

/// Breaker state (classic three-state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    Closed,
    Open,
    HalfOpen,
}

/// Outcome of asking the breaker to pass one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Breaker closed: go ahead.
    Yes,
    /// Breaker open: pick another backend.
    No,
    /// Breaker just went half-open: this request is the probe.
    Probe,
}

/// Per-backend circuit breaker with seeded half-open probing.
#[derive(Debug)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    consec_failures: u32,
    probe_at: SimTime,
}

impl CircuitBreaker {
    /// A closed breaker with the given policy.
    pub fn new(cfg: BreakerConfig) -> Self {
        CircuitBreaker {
            cfg,
            state: BreakerState::Closed,
            consec_failures: 0,
            probe_at: SimTime::ZERO,
        }
    }

    /// May a request pass right now? An open breaker past its probe
    /// deadline flips half-open and admits exactly this one probe.
    pub fn try_pass(&mut self, now: SimTime) -> Pass {
        match self.state {
            BreakerState::Closed => Pass::Yes,
            BreakerState::Open if now >= self.probe_at => {
                self.state = BreakerState::HalfOpen;
                Pass::Probe
            }
            BreakerState::Open | BreakerState::HalfOpen => Pass::No,
        }
    }

    /// Records a successful response: any state snaps back to closed.
    pub fn record_success(&mut self) {
        self.state = BreakerState::Closed;
        self.consec_failures = 0;
    }

    /// Records a failure; returns `true` when this transition *opened*
    /// the breaker (for `serve.breaker_opens`). A failed half-open probe
    /// re-opens with a fresh seeded delay.
    pub fn record_failure(&mut self, now: SimTime, rng: &mut DetRng) -> bool {
        self.consec_failures += 1;
        let trip = self.state == BreakerState::HalfOpen
            || (self.state == BreakerState::Closed
                && self.consec_failures >= self.cfg.failure_threshold);
        if trip {
            self.state = BreakerState::Open;
            let jitter = SimTime::from_ps(rng.next_below(self.cfg.probe_jitter.as_ps().max(1)));
            self.probe_at = now + self.cfg.open_for + jitter;
        }
        trip
    }
}

/// Token-bucket retry budget (integer milli-tokens; successes refill it,
/// failover retries drain it — the gRPC-style retry-storm guard).
#[derive(Debug)]
pub struct RetryBudget {
    millitokens: u64,
    cap: u64,
    earn: u64,
}

impl RetryBudget {
    /// A full bucket holding `cap_tokens`, refilled `earn_tenths`/10
    /// tokens per recorded success.
    pub fn new(cap_tokens: u32, earn_tenths: u32) -> Self {
        let cap = cap_tokens as u64 * 1000;
        RetryBudget {
            millitokens: cap,
            cap,
            earn: earn_tenths as u64 * 100,
        }
    }

    /// Spends one retry token; `false` (and no change) when dry.
    pub fn try_spend(&mut self) -> bool {
        if self.millitokens >= 1000 {
            self.millitokens -= 1000;
            true
        } else {
            false
        }
    }

    /// Credits one success.
    pub fn earn(&mut self) {
        self.millitokens = (self.millitokens + self.earn).min(self.cap);
    }

    /// Whole tokens currently available.
    pub fn tokens(&self) -> u64 {
        self.millitokens / 1000
    }
}

/// Resilient-client knobs.
#[derive(Debug, Clone)]
pub struct ResilientClientConfig {
    /// Who holds which key range (shared verbatim by the whole fleet).
    pub map: ReplicaMap,
    /// Per-client RNG seed.
    pub seed: u64,
    /// Total requests to issue.
    pub n_requests: u64,
    /// Mean inter-arrival gap (heavy-tailed around it).
    pub mean_gap: SimTime,
    /// Number of distinct keys.
    pub keyspace: u32,
    /// Percent of requests that are SETs (write-all to every replica).
    pub set_pct: u32,
    /// Value payload bytes for SETs.
    pub val_len: u32,
    /// Max requests open before arrivals queue client-side.
    pub pipeline: usize,
    /// When to start issuing.
    pub start_at: SimTime,
    /// Soft per-attempt timeout: an unanswered request past this fails
    /// over (unless the backend advertises a zero window — then it is
    /// alive-but-full and the attempt waits on persist probes).
    pub req_timeout: SimTime,
    /// Hard per-request deadline: past it the request is abandoned and
    /// counted `gave_up` (never silent).
    pub give_up_after: SimTime,
    /// Hedge delay for GETs (`None` disables hedging).
    pub hedge_delay: Option<SimTime>,
    /// Retry-budget capacity in tokens.
    pub retry_budget: u32,
    /// Budget refill in tenths of a token per success.
    pub retry_earn_tenths: u32,
    /// Per-backend breaker policy.
    pub breaker: BreakerConfig,
    /// Backoff before reconnecting a dead backend connection.
    pub reconnect_backoff: SimTime,
    /// TCP keepalive `(idle, interval, probes)` installed on this node's
    /// stack at first poll, or `None` to leave it alone.
    pub keepalive: Option<(SimTime, SimTime, u32)>,
}

impl ResilientClientConfig {
    /// Defaults tuned for the serving bench timescales (µs-scale SLO,
    /// ms-scale outages): hedge at 500µs, fail over at 2ms, give up at
    /// 30ms.
    pub fn new(map: ReplicaMap) -> Self {
        ResilientClientConfig {
            map,
            seed: 1,
            n_requests: 100,
            mean_gap: SimTime::from_us(50),
            keyspace: 4096,
            set_pct: 10,
            val_len: 512,
            pipeline: 32,
            start_at: SimTime::ZERO,
            req_timeout: SimTime::from_ms(2),
            give_up_after: SimTime::from_ms(30),
            hedge_delay: Some(SimTime::from_us(500)),
            retry_budget: 16,
            retry_earn_tenths: 1,
            breaker: BreakerConfig::default(),
            reconnect_backoff: SimTime::from_us(200),
            keepalive: Some((SimTime::from_ms(5), SimTime::from_ms(1), 3)),
        }
    }
}

/// One in-flight attempt reference queued on a backend's response FIFO.
#[derive(Debug, Clone, Copy)]
struct AttemptRef {
    req: usize,
    hedge: bool,
}

#[derive(Debug)]
struct BackendState {
    sock: Option<SockId>,
    rx: Vec<u8>,
    tx: Vec<u8>,
    /// Unanswered attempts in send order (responses arrive FIFO per
    /// connection).
    fifo: VecDeque<AttemptRef>,
    breaker: CircuitBreaker,
    reconnect_at: SimTime,
}

#[derive(Debug)]
struct Req {
    key: u32,
    set: bool,
    /// Scheduled (open-loop) arrival — latency measures from here.
    sched: SimTime,
    done: bool,
    /// Live attempts whose answers could still complete this request.
    pending: u32,
    /// Total attempts launched (rotates the replica choice).
    attempts: u32,
    hedged: bool,
    /// First replica slot chosen (rotation base).
    first_choice: usize,
    /// Backend of the most recent attempt (zero-window suppression).
    last_backend: usize,
    /// Soft-timeout deadline of the most recent attempt.
    attempt_deadline: SimTime,
    /// The last soft-timeout check found the backend zero-window-stalled.
    /// When the stall ends, the attempt gets one fresh timeout to move
    /// the queued bytes before a nonzero window may be judged a failure.
    stalled: bool,
    /// Hedge launch time (GETs with hedging only).
    hedge_at: Option<SimTime>,
    /// Hard abandon deadline.
    deadline: SimTime,
}

impl Req {
    fn next_check(&self) -> SimTime {
        let mut t = self.deadline.min(self.attempt_deadline);
        if let Some(h) = self.hedge_at {
            if !self.hedged {
                t = t.min(h);
            }
        }
        t
    }
}

/// The resilient replicated client process; see module docs.
pub struct ResilientKvClient {
    cfg: ResilientClientConfig,
    report: Arc<Mutex<ServeReport>>,
    rng: DetRng,
    backends: Vec<BackendState>,
    reqs: Vec<Req>,
    /// Indices of requests not yet done (kept compact lazily).
    open: Vec<usize>,
    keepalive_set: bool,
    next_arrival: SimTime,
    issued: u64,
    budget: RetryBudget,
    finished: bool,
}

impl ResilientKvClient {
    /// Creates a client over the config's replica map; results go to the
    /// shared `report`.
    pub fn new(cfg: ResilientClientConfig, report: Arc<Mutex<ServeReport>>) -> Self {
        let rng = DetRng::new(cfg.seed);
        let backends = (0..cfg.map.len())
            .map(|_| BackendState {
                sock: None,
                rx: Vec::new(),
                tx: Vec::new(),
                fifo: VecDeque::new(),
                breaker: CircuitBreaker::new(cfg.breaker.clone()),
                reconnect_at: SimTime::ZERO,
            })
            .collect();
        let next_arrival = cfg.start_at;
        let budget = RetryBudget::new(cfg.retry_budget, cfg.retry_earn_tenths);
        ResilientKvClient {
            cfg,
            report,
            rng,
            backends,
            reqs: Vec::new(),
            open: Vec::new(),
            keepalive_set: false,
            next_arrival,
            issued: 0,
            budget,
            finished: false,
        }
    }

    /// Encodes one attempt's wire bytes into backend `b`'s tx queue and
    /// registers it on the response FIFO.
    fn enqueue_attempt(&mut self, req_idx: usize, b: usize, hedge: bool, now: SimTime) {
        let req = &mut self.reqs[req_idx];
        let key = req.key;
        if req.set {
            let len = self.cfg.val_len;
            self.backends[b]
                .tx
                .extend_from_slice(format!("S {key} {len}\n").as_bytes());
            let new_len = self.backends[b].tx.len() + len as usize;
            self.backends[b].tx.resize(new_len, 0x73);
        } else {
            self.backends[b]
                .tx
                .extend_from_slice(format!("G {key}\n").as_bytes());
        }
        self.backends[b].fifo.push_back(AttemptRef {
            req: req_idx,
            hedge,
        });
        let req = &mut self.reqs[req_idx];
        req.pending += 1;
        req.attempts += 1;
        req.last_backend = b;
        req.attempt_deadline = now + self.cfg.req_timeout;
        req.stalled = false;
    }

    /// Picks the next replica for `req_idx` by rotation, skipping
    /// breaker-refused backends; counts half-open probes. `None` when
    /// every replica's breaker refuses.
    fn pick_backend(&mut self, req_idx: usize, now: SimTime) -> Option<usize> {
        let key = self.reqs[req_idx].key;
        let first = self.reqs[req_idx].first_choice;
        let rot = self.reqs[req_idx].attempts as usize;
        let replicas = self.cfg.map.replicas_of(key).to_vec();
        for j in 0..replicas.len() {
            let b = replicas[(first + rot + j) % replicas.len()];
            match self.backends[b].breaker.try_pass(now) {
                Pass::Yes => return Some(b),
                Pass::Probe => {
                    self.report.lock().breaker_half_open_probes += 1;
                    return Some(b);
                }
                Pass::No => {}
            }
        }
        None
    }

    /// Launches a recovery attempt for `req_idx` after a failure or soft
    /// timeout; spends the retry budget; falls back to waiting for the
    /// hard deadline when the budget or the breakers refuse.
    fn try_recover(&mut self, req_idx: usize, now: SimTime) {
        if self.reqs[req_idx].done {
            return;
        }
        let Some(b) = self.pick_backend(req_idx, now) else {
            // Every breaker refuses: re-check once probes come due.
            self.reqs[req_idx].attempt_deadline = now + self.cfg.req_timeout;
            return;
        };
        if !self.budget.try_spend() {
            self.report.lock().retry_budget_exhausted += 1;
            self.reqs[req_idx].attempt_deadline = now + self.cfg.req_timeout;
            return;
        }
        {
            let mut rep = self.report.lock();
            rep.retry_budget_spent += 1;
            rep.failovers += 1;
        }
        self.enqueue_attempt(req_idx, b, false, now);
    }

    /// Marks `req_idx` abandoned (hard deadline passed): loud, never
    /// silent. Late answers from straggler attempts are dropped.
    fn give_up(&mut self, req_idx: usize) {
        let req = &mut self.reqs[req_idx];
        if req.done {
            return;
        }
        req.done = true;
        self.report.lock().give_up();
    }

    /// Handles a dead backend connection: every attempt queued on it
    /// fails at once and open requests fail over.
    fn fail_backend(&mut self, ctx: &mut ProcCtx<'_>, b: usize) {
        if let Some(sock) = self.backends[b].sock.take() {
            ctx.tcp_drop(sock);
        }
        let now = ctx.now;
        let opened = self.backends[b].breaker.record_failure(now, &mut self.rng);
        {
            let mut rep = self.report.lock();
            rep.conn_failures += 1;
            if opened {
                rep.breaker_opens += 1;
            }
        }
        self.backends[b].rx.clear();
        self.backends[b].tx.clear();
        self.backends[b].reconnect_at = now + self.cfg.reconnect_backoff;
        let refs: Vec<AttemptRef> = self.backends[b].fifo.drain(..).collect();
        for r in refs {
            self.reqs[r.req].pending = self.reqs[r.req].pending.saturating_sub(1);
            self.try_recover(r.req, now);
        }
    }

    /// Parses complete responses off backend `b`'s rx buffer, completing
    /// requests FIFO. First answer wins; stragglers are drained and
    /// dropped.
    fn drain_responses(&mut self, b: usize, now: SimTime) {
        let mut consumed = 0;
        loop {
            let buf = &self.backends[b].rx[consumed..];
            let Some(nl) = buf.iter().position(|&x| x == b'\n') else {
                break;
            };
            let line = &buf[..nl];
            let (ok, busy, body) = match line.first() {
                Some(b'V') => {
                    let len: usize = std::str::from_utf8(&line[2..])
                        .ok()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or(0);
                    if buf.len() < nl + 1 + len {
                        break; // value payload still in flight
                    }
                    (true, false, len)
                }
                Some(b'K') => (true, false, 0),
                Some(b'M') => (false, false, 0),
                Some(b'B') => (false, true, 0),
                _ => (false, false, 0),
            };
            consumed += nl + 1 + body;
            let Some(aref) = self.backends[b].fifo.pop_front() else {
                break; // stale bytes after a reconnect
            };
            self.backends[b].breaker.record_success();
            self.budget.earn();
            let req = &mut self.reqs[aref.req];
            req.pending = req.pending.saturating_sub(1);
            if !req.done {
                req.done = true;
                let mut rep = self.report.lock();
                rep.record(req.sched, now, ok, body as u64);
                if busy {
                    rep.busy += 1;
                }
                if aref.hedge {
                    rep.hedges_won += 1;
                }
            }
        }
        self.backends[b].rx.drain(..consumed);
    }
}

impl Process for ResilientKvClient {
    fn poll(&mut self, ctx: &mut ProcCtx<'_>) -> Poll {
        if self.finished {
            return Poll::Done;
        }
        if !self.keepalive_set {
            if let Some((idle, intvl, probes)) = self.cfg.keepalive {
                ctx.stack.set_keepalive(idle, intvl, probes);
            }
            self.keepalive_set = true;
        }
        if ctx.now < self.cfg.start_at {
            return Poll::Wait(vec![Wake::Timer(self.cfg.start_at)]);
        }
        let now = ctx.now;

        // Reap dead backend connections first: their queued attempts fail
        // over before any timer logic sees them.
        for b in 0..self.backends.len() {
            let Some(sock) = self.backends[b].sock else {
                continue;
            };
            if ctx.stack.tcp_failed(sock)
                || (ctx.stack.tcp_at_eof(sock) && !self.backends[b].fifo.is_empty())
            {
                self.fail_backend(ctx, b);
            } else if ctx.stack.tcp_at_eof(sock) {
                // Idle-timeout close with nothing outstanding: quiet drop.
                ctx.tcp_close(sock);
                self.backends[b].sock = None;
                self.backends[b].rx.clear();
            }
        }

        // Open-loop arrivals.
        while self.issued < self.cfg.n_requests
            && self.next_arrival <= now
            && self.open.len() < self.cfg.pipeline
        {
            let key = {
                // Quadratically skewed key (hot head, cold tail).
                let u = self.rng.next_below(1 << 16);
                let sq = (u * u) >> 16;
                ((sq * self.cfg.keyspace as u64) >> 16) as u32
            };
            let set = self.rng.next_below(100) < self.cfg.set_pct as u64;
            let sched = self.next_arrival;
            let first_choice = self.rng.next_below(self.cfg.map.replication() as u64) as usize;
            let idx = self.reqs.len();
            self.reqs.push(Req {
                key,
                set,
                sched,
                done: false,
                pending: 0,
                attempts: 0,
                hedged: false,
                first_choice,
                last_backend: 0,
                attempt_deadline: now + self.cfg.req_timeout,
                stalled: false,
                hedge_at: if set {
                    None
                } else {
                    self.cfg.hedge_delay.map(|d| now + d)
                },
                deadline: now + self.cfg.give_up_after,
            });
            self.open.push(idx);
            self.report.lock().note_issued(sched);
            self.issued += 1;
            if set {
                // Write-all: every replica gets the SET; first ACK wins.
                let replicas = self.cfg.map.replicas_of(key).to_vec();
                for b in replicas {
                    match self.backends[b].breaker.try_pass(now) {
                        Pass::Yes => self.enqueue_attempt(idx, b, false, now),
                        Pass::Probe => {
                            self.report.lock().breaker_half_open_probes += 1;
                            self.enqueue_attempt(idx, b, false, now);
                        }
                        Pass::No => {}
                    }
                }
                if self.reqs[idx].pending == 0 {
                    // Everything breaker-refused: recover like a failure.
                    self.try_recover(idx, now);
                }
            } else {
                match self.pick_backend(idx, now) {
                    Some(b) => self.enqueue_attempt(idx, b, false, now),
                    None => self.try_recover(idx, now),
                }
            }
            // Next arrival: heavy-tailed gap around the mean.
            let mean = self.cfg.mean_gap;
            let base =
                SimTime::from_ps(mean.as_ps() / 2 + self.rng.next_below(mean.as_ps().max(2) / 2));
            let gap = if self.rng.next_below(8) == 0 {
                base + SimTime::from_ps(mean.as_ps() * self.rng.range(2, 8))
            } else {
                base
            };
            self.next_arrival += gap;
        }

        // Timer-driven recovery: hard deadlines, hedges, soft timeouts.
        for oi in 0..self.open.len() {
            let idx = self.open[oi];
            if self.reqs[idx].done || self.reqs[idx].next_check() > now {
                continue;
            }
            if now >= self.reqs[idx].deadline {
                self.give_up(idx);
                continue;
            }
            if let Some(h) = self.reqs[idx].hedge_at {
                if !self.reqs[idx].hedged && now >= h && self.reqs[idx].pending > 0 {
                    self.reqs[idx].hedged = true;
                    if let Some(b) = self.pick_backend(idx, now) {
                        self.report.lock().hedges_launched += 1;
                        self.enqueue_attempt(idx, b, true, now);
                    }
                    continue;
                }
            }
            if now >= self.reqs[idx].attempt_deadline {
                let lb = self.reqs[idx].last_backend;
                let zero_win = self.backends[lb]
                    .sock
                    .and_then(|s| ctx.stack.tcp_snd_wnd(s))
                    == Some(0);
                if zero_win {
                    // Alive-but-full: persist probes are pacing the
                    // peer; failing over would be spurious.
                    self.reqs[idx].stalled = true;
                    self.reqs[idx].attempt_deadline = now + self.cfg.req_timeout;
                } else if self.reqs[idx].stalled {
                    // The stall just ended: the reopened pipe gets one
                    // fresh timeout to move the queued bytes and the
                    // answer before a nonzero window may be judged.
                    self.reqs[idx].stalled = false;
                    self.reqs[idx].attempt_deadline = now + self.cfg.req_timeout;
                } else {
                    let opened = self.backends[lb].breaker.record_failure(now, &mut self.rng);
                    if opened {
                        self.report.lock().breaker_opens += 1;
                    }
                    self.try_recover(idx, now);
                }
            }
        }

        // Connections + byte movement.
        for b in 0..self.backends.len() {
            if self.backends[b].tx.is_empty() && self.backends[b].fifo.is_empty() {
                continue;
            }
            let sock = match self.backends[b].sock {
                Some(s) => s,
                None => {
                    if now < self.backends[b].reconnect_at {
                        continue;
                    }
                    let be = self.cfg.map.backend(b);
                    let (addr, port) = (be.addr, be.port);
                    match ctx.tcp_connect(addr, port) {
                        Some(s) => {
                            self.backends[b].sock = Some(s);
                            s
                        }
                        None => {
                            self.backends[b].reconnect_at = now + self.cfg.reconnect_backoff;
                            continue;
                        }
                    }
                }
            };
            if !self.backends[b].tx.is_empty() {
                let tx = std::mem::take(&mut self.backends[b].tx);
                let sent = ctx.tcp_send(sock, &tx);
                self.backends[b].tx = tx[sent..].to_vec();
            }
            let mut buf = [0u8; 16384];
            while ctx.stack.tcp_readable(sock) > 0 {
                let n = ctx.tcp_recv(sock, &mut buf);
                if n == 0 {
                    break;
                }
                self.backends[b].rx.extend_from_slice(&buf[..n]);
            }
            self.drain_responses(b, now);
        }

        // Compact the open list.
        self.open.retain(|&i| !self.reqs[i].done);

        // Completion: budget spent and nothing open. A connect still in
        // SYN-SENT has no FIN to send, so it is dropped rather than left
        // retransmitting its SYN after the client is gone.
        if self.issued >= self.cfg.n_requests && self.open.is_empty() {
            for b in 0..self.backends.len() {
                if let Some(sock) = self.backends[b].sock.take() {
                    if ctx.stack.tcp_state(sock) == TcpState::SynSent {
                        ctx.tcp_drop(sock);
                    } else {
                        ctx.tcp_close(sock);
                    }
                }
            }
            self.report.lock().completed_clients += 1;
            self.finished = true;
            return Poll::Done;
        }

        // Wake set: every live socket, the next arrival, and the earliest
        // per-request check (hedge / timeout / hard deadline).
        let mut wakes: Vec<Wake> = self
            .backends
            .iter()
            .filter_map(|b| b.sock.map(Wake::Sock))
            .collect();
        if self.issued < self.cfg.n_requests && self.open.len() < self.cfg.pipeline {
            wakes.push(Wake::Timer(self.next_arrival.max(now)));
        }
        if let Some(t) = self.open.iter().map(|&i| self.reqs[i].next_check()).min() {
            wakes.push(Wake::Timer(t.max(now + SimTime::from_ns(1))));
        }
        for b in &self.backends {
            if b.sock.is_none() && (!b.tx.is_empty() || !b.fifo.is_empty()) {
                wakes.push(Wake::Timer(b.reconnect_at.max(now + SimTime::from_ns(1))));
            }
        }
        if wakes.is_empty() {
            // Open requests exist but nothing is live (e.g. all breakers
            // open with empty tx): re-check at the earliest deadline.
            wakes.push(Wake::Timer(now + self.cfg.req_timeout));
        }
        Poll::Wait(wakes)
    }

    fn name(&self) -> &str {
        "resilient-kv-client"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_opens_after_threshold_and_probes_half_open() {
        let mut rng = DetRng::new(9);
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 3,
            open_for: SimTime::from_ms(1),
            probe_jitter: SimTime::from_us(100),
        });
        let t0 = SimTime::from_ms(10);
        assert!(!b.record_failure(t0, &mut rng));
        assert!(!b.record_failure(t0, &mut rng));
        assert!(b.record_failure(t0, &mut rng), "third failure opens");
        assert_eq!(b.try_pass(t0), Pass::No);
        // Past open_for + max jitter the probe is admitted, exactly once.
        let later = t0 + SimTime::from_ms(2);
        assert_eq!(b.try_pass(later), Pass::Probe);
        assert_eq!(b.try_pass(later), Pass::No, "only one probe in flight");
        // Failed probe re-opens; successful probe closes.
        assert!(b.record_failure(later, &mut rng), "failed probe re-opens");
        let again = later + SimTime::from_ms(2);
        assert_eq!(b.try_pass(again), Pass::Probe);
        b.record_success();
        assert_eq!(b.try_pass(again), Pass::Yes);
        assert_eq!(
            b.try_pass(again),
            Pass::Yes,
            "a closed breaker passes every request"
        );
    }

    #[test]
    fn breaker_probe_delay_is_seeded_and_replayable() {
        let probe_at = |seed: u64| {
            let mut rng = DetRng::new(seed);
            let mut b = CircuitBreaker::new(BreakerConfig::default());
            let t0 = SimTime::from_ms(5);
            for _ in 0..3 {
                b.record_failure(t0, &mut rng);
            }
            b.probe_at
        };
        assert_eq!(probe_at(1), probe_at(1), "same seed, same probe time");
        assert_ne!(probe_at(1), probe_at(2), "jitter varies by seed");
    }

    #[test]
    fn retry_budget_drains_and_refills() {
        let mut budget = RetryBudget::new(2, 10); // cap 2, 1 token/success
        assert!(budget.try_spend());
        assert!(budget.try_spend());
        assert!(!budget.try_spend(), "bucket dry");
        budget.earn();
        assert_eq!(budget.tokens(), 1);
        assert!(budget.try_spend());
        for _ in 0..100 {
            budget.earn();
        }
        assert_eq!(budget.tokens(), 2, "capped at capacity");
    }
}
