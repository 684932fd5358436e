//! Shared measurement cell for a serving run.
//!
//! One [`ServeReport`] is shared by the KV server and its whole client
//! fleet. Because the processes writing it may live on different shards of
//! the parallel engine, *everything in it is commutative*: counters and
//! histogram bucket increments produce the same final state in any write
//! order, so the full-registry snapshot taken after the run is
//! byte-identical across thread counts. Order-sensitive gauges (e.g.
//! [`RateMeter`]'s first/last timestamps) are deliberately absent — derive
//! rates from byte counters and the fixed run window instead.
//!
//! For availability experiments the report can be given a *fault window*
//! (the interval a failure domain is down). Requests are classified by
//! their scheduled arrival time — a pure function of the seed, identical
//! at any thread count — into in-window and steady-state histograms, so
//! `BENCH_serving.json` can quote "p99 inside the outage vs steady state"
//! from one run.
//!
//! [`RateMeter`]: mcn_sim::stats::RateMeter

use std::sync::Arc;

use parking_lot::Mutex;

use mcn_sim::metrics::{Instrumented, MetricSink};
use mcn_sim::stats::Histogram;
use mcn_sim::SimTime;

/// Aggregated serving-run measurements (see module docs for the
/// commutativity contract).
#[derive(Debug)]
pub struct ServeReport {
    /// Request latency, scheduled arrival → response parsed (open-loop:
    /// client-side queueing counts against the server).
    pub latency: Histogram,
    /// Latency SLO used for [`under_slo`](Self::under_slo) accounting.
    pub slo: SimTime,
    /// Requests answered successfully (`VALUE`/`STORED`).
    pub ok: u64,
    /// Requests answered under the SLO (goodput numerator).
    pub under_slo: u64,
    /// Payload bytes in successful responses.
    pub ok_bytes: u64,
    /// GETs that missed.
    pub miss: u64,
    /// Requests rejected with `BUSY` by admission control (server-side
    /// `shed_requests` mirrors this from the client's perspective).
    pub busy: u64,
    /// Requests the server shed at admission (in-flight budget exceeded).
    pub shed_requests: u64,
    /// Connections the server refused at accept time (connection budget).
    pub shed_conns: u64,
    /// Client connections that died abnormally (RST, RTO or keepalive
    /// give-up) — the chaos casualties.
    pub conn_failures: u64,
    /// Clients that finished their request budget.
    pub completed_clients: u64,

    // --- fleet accounting (ResilientKvClient) ---
    /// Requests issued (the denominator for the accounting identity
    /// `issued == answered + gave_up`).
    pub issued: u64,
    /// Requests re-sent to a replica after the serving backend failed
    /// (connection death, breaker-open, or request timeout).
    pub failovers: u64,
    /// Hedged reads launched (second replica asked after the hedge delay).
    pub hedges_launched: u64,
    /// Hedged reads where the hedge answered first.
    pub hedges_won: u64,
    /// Retry-budget tokens spent on failovers.
    pub retry_budget_spent: u64,
    /// Failovers suppressed because the token bucket ran dry (the
    /// retry-storm guard engaging).
    pub retry_budget_exhausted: u64,
    /// Circuit-breaker transitions into `Open`.
    pub breaker_opens: u64,
    /// Half-open probe requests sent through a recovering breaker.
    pub breaker_half_open_probes: u64,
    /// Requests abandoned after every recovery avenue was spent — loudly
    /// counted, never silent.
    pub gave_up: u64,

    // --- fault-window availability (see module docs) ---
    /// The interval a failure domain is scheduled to be down, or `None`
    /// when the run has no planned outage.
    pub fault_window: Option<(SimTime, SimTime)>,
    /// Requests whose scheduled arrival fell inside the fault window.
    pub fault_issued: u64,
    /// In-window requests that got an answer (any verdict).
    pub fault_answered: u64,
    /// Latency of answered in-window requests.
    pub fault_latency: Histogram,
    /// Latency of answered steady-state (outside-window) requests.
    pub steady_latency: Histogram,
}

impl ServeReport {
    /// A fresh shared cell with the given latency SLO.
    pub fn shared(slo: SimTime) -> Arc<Mutex<ServeReport>> {
        Arc::new(Mutex::new(ServeReport {
            latency: Histogram::new(),
            slo,
            ok: 0,
            under_slo: 0,
            ok_bytes: 0,
            miss: 0,
            busy: 0,
            shed_requests: 0,
            shed_conns: 0,
            conn_failures: 0,
            completed_clients: 0,
            issued: 0,
            failovers: 0,
            hedges_launched: 0,
            hedges_won: 0,
            retry_budget_spent: 0,
            retry_budget_exhausted: 0,
            breaker_opens: 0,
            breaker_half_open_probes: 0,
            gave_up: 0,
            fault_window: None,
            fault_issued: 0,
            fault_answered: 0,
            fault_latency: Histogram::new(),
            steady_latency: Histogram::new(),
        }))
    }

    /// Declares the planned outage interval so subsequent
    /// [`note_issued`](Self::note_issued) / [`record`](Self::record)
    /// calls classify requests into in-window vs steady state.
    pub fn set_fault_window(&mut self, start: SimTime, end: SimTime) {
        assert!(start <= end, "fault window must not be inverted");
        self.fault_window = Some((start, end));
    }

    /// Whether `t` falls inside the declared fault window.
    pub fn in_fault_window(&self, t: SimTime) -> bool {
        self.fault_window.is_some_and(|(s, e)| t >= s && t < e)
    }

    /// Records one issued request (the client calls this at the
    /// scheduled arrival so `issued == answered + gave_up` holds at the
    /// end of the run).
    pub fn note_issued(&mut self, sched: SimTime) {
        self.issued += 1;
        if self.in_fault_window(sched) {
            self.fault_issued += 1;
        }
    }

    /// Records one answered request scheduled at `sched` and answered at
    /// `now`: its latency, whether it succeeded, the response payload
    /// size, and its fault-window class (by `sched`).
    pub fn record(&mut self, sched: SimTime, now: SimTime, ok: bool, bytes: u64) {
        let latency = now - sched;
        self.latency.record(latency);
        if ok {
            self.ok += 1;
            self.ok_bytes += bytes;
            if latency <= self.slo {
                self.under_slo += 1;
            }
        }
        if self.in_fault_window(sched) {
            self.fault_answered += 1;
            self.fault_latency.record(latency);
        } else {
            self.steady_latency.record(latency);
        }
    }

    /// Records one abandoned request (never silent: the accounting
    /// identity counts it against `issued`).
    pub fn give_up(&mut self) {
        self.gave_up += 1;
    }

    /// Checks the accounting identity `issued == answered + gave_up`:
    /// every issued request was answered or loudly abandoned.
    ///
    /// # Errors
    ///
    /// Returns the broken identity, naming all three counts, when a
    /// request went missing.
    pub fn check_accounting(&self) -> Result<(), String> {
        let answered = self.latency.count();
        if self.issued == answered + self.gave_up {
            return Ok(());
        }
        Err(format!(
            "accounting identity broken: issued {} != answered {answered} + gave_up {} \
             — silent request loss",
            self.issued, self.gave_up
        ))
    }

    /// Answered fraction over requests scheduled inside the fault window
    /// (1.0 when no request fell in the window).
    pub fn fault_availability(&self) -> f64 {
        if self.fault_issued == 0 {
            1.0
        } else {
            self.fault_answered as f64 / self.fault_issued as f64
        }
    }

    /// Goodput under SLO over a window of `elapsed`: successful-response
    /// requests meeting the SLO, per second.
    pub fn goodput_rps(&self, elapsed: SimTime) -> f64 {
        let secs = elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.under_slo as f64 / secs
        }
    }
}

impl Instrumented for ServeReport {
    /// Request counters plus the latency histogram (whose expansion carries
    /// `p50_ps`/`p99_ps`/`p999_ps`). The recovery and fault-window
    /// metrics are always present (zero when unused) so registry shape
    /// never depends on the scenario.
    fn metrics(&self, out: &mut MetricSink) {
        out.histogram("latency", &self.latency);
        out.counter("ok", self.ok);
        out.counter("under_slo", self.under_slo);
        out.counter("ok_bytes", self.ok_bytes);
        out.counter("miss", self.miss);
        out.counter("busy", self.busy);
        out.counter("shed_requests", self.shed_requests);
        out.counter("shed_conns", self.shed_conns);
        out.counter("conn_failures", self.conn_failures);
        out.counter("completed_clients", self.completed_clients);
        out.counter("issued", self.issued);
        out.counter("failovers", self.failovers);
        out.counter("hedges_launched", self.hedges_launched);
        out.counter("hedges_won", self.hedges_won);
        out.counter("retry_budget_spent", self.retry_budget_spent);
        out.counter("retry_budget_exhausted", self.retry_budget_exhausted);
        out.counter("breaker_opens", self.breaker_opens);
        out.counter("breaker_half_open_probes", self.breaker_half_open_probes);
        out.counter("gave_up", self.gave_up);
        out.counter("fault_issued", self.fault_issued);
        out.counter("fault_answered", self.fault_answered);
        out.histogram("fault_latency", &self.fault_latency);
        out.histogram("steady_latency", &self.steady_latency);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_check_names_a_silent_loss() {
        let report = ServeReport::shared(SimTime::from_us(100));
        let mut r = report.lock();
        r.note_issued(SimTime::ZERO);
        r.note_issued(SimTime::ZERO);
        r.record(SimTime::ZERO, SimTime::from_us(5), true, 8);
        let err = r.check_accounting().unwrap_err();
        assert!(err.contains("issued 2 != answered 1 + gave_up 0"), "{err}");
        r.give_up();
        r.check_accounting().unwrap();
    }
}
