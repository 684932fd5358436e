//! # mcn-serve — an overload-resilient KV serving tier on MCN DIMMs
//!
//! The paper's pitch is that MCN turns DIMMs into near-memory *servers*
//! reachable over standard TCP/IP. This crate makes that concrete with
//! three pieces:
//!
//! * [`KvServer`] — a memcached-style KV service running on a DIMM's
//!   cores, values in the DIMM's own DRAM, with admission control in
//!   layers: SYN-backlog drop and accept-queue RST in the stack
//!   (`tcp.syn_drops` / `tcp.accept_overflows`), a connection budget at
//!   accept (`shed_conns`) and an in-flight request budget before memory
//!   bandwidth is spent (`shed_requests`, answered `B\n`).
//! * [`ResilientKvClient`] — the one client process. It is open loop:
//!   requests arrive on a seeded heavy-tailed schedule with skewed keys
//!   whatever the server does, so a slow server shows up as queueing
//!   delay in the measured latency instead of a politely reduced offered
//!   load. It speaks to a [`ReplicaMap`] of backends: over a one-backend
//!   map (with hedging off) it is a plain client of one server; over a
//!   map whose [`placement`] puts each key range's replicas in distinct
//!   correlated-outage domains, it rides a whole domain dying
//!   (`mcn::outage::OutagePlan::domain_crash`) out with failover rotation,
//!   per-backend circuit breakers ([`CircuitBreaker`]), token-bucket
//!   retry budgets ([`RetryBudget`]) and deterministic hedged GETs.
//! * [`ServeReport`] — the shared measurement cell. Every request the
//!   fleet issues is answered or loudly abandoned (`gave_up`), so
//!   `issued == answered + gave_up` holds at the end of every run, and
//!   every recovery action is a `serve.*` counter.
//!
//! Connection lifecycle hygiene lives in the stack: TCP keepalive reaps
//! half-open peers left by crashed DIMMs, TIME_WAIT expiry recycles
//! ports and socket slots, and the server's idle timeout collects
//! loiterers.
//!
//! Everything is deterministic: same seed, same byte-identical
//! full-registry snapshot at any `run_parallel` thread count — failovers,
//! hedge races, and breaker probes included, because they all run on the
//! simulation clock from seeded per-client streams. Every field of the
//! shared [`ServeReport`] is commutative, so fleet-wide accounting stays
//! order-insensitive.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kv;
pub mod placement;
pub mod report;
pub mod resilient;

pub use kv::{parse_request, KvServer, KvServerConfig, Request};
pub use placement::{Backend, PlacementError, ReplicaMap};
pub use report::ServeReport;
pub use resilient::{
    BreakerConfig, CircuitBreaker, Pass, ResilientClientConfig, ResilientKvClient, RetryBudget,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_parser_round_trips() {
        assert_eq!(
            parse_request(b"G 42\n"),
            Some((Request::Get { key: 42 }, 5))
        );
        assert_eq!(parse_request(b"G 42"), None, "incomplete line");
        let mut set = b"S 7 3\nabc".to_vec();
        assert_eq!(
            parse_request(&set),
            Some((Request::Set { key: 7, len: 3 }, 9))
        );
        set.truncate(8);
        assert_eq!(parse_request(&set), None, "payload still in flight");
        assert_eq!(parse_request(b"X 1\n"), None, "unknown verb");
    }

    #[test]
    fn report_goodput_counts_only_under_slo() {
        use mcn_sim::SimTime;
        let rep = ServeReport::shared(SimTime::from_us(100));
        {
            let mut r = rep.lock();
            r.record(SimTime::ZERO, SimTime::from_us(50), true, 64); // under SLO
            r.record(SimTime::ZERO, SimTime::from_us(500), true, 64); // over SLO
            r.record(SimTime::ZERO, SimTime::from_us(10), false, 0); // miss
        }
        let r = rep.lock();
        assert_eq!(r.ok, 2);
        assert_eq!(r.under_slo, 1);
        assert_eq!(r.latency.count(), 3);
        assert!((r.goodput_rps(SimTime::from_secs(1)) - 1.0).abs() < 1e-9);
    }
}
