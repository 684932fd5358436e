//! Serving quickstart: a memcached-style KV server on an MCN DIMM under
//! an open-loop client fleet, with the overload machinery visible.
//!
//! Three acts, each ending with the accounting identity
//! `issued == answered + gave_up` asserted:
//!
//! 1. **Comfortable load** — three clients of one DIMM's server
//!    (`ResilientKvClient` over a one-backend `ReplicaMap`, hedging
//!    off), heavy-tailed arrivals and skewed keys, against a
//!    default-budget server: everything is answered, and the latency
//!    percentiles come from the shared `ServeReport`.
//! 2. **Overload** — six clients against a server with a tiny
//!    connection and in-flight budget: excess requests are shed with
//!    `B\n` (counted server-side as `shed_requests`, observed
//!    client-side as `busy`) instead of queueing without bound, refused
//!    connections open the clients' breakers, requests that cannot get
//!    through by their deadline are counted `gave_up`, and the fleet
//!    still finishes.
//! 3. **Domain crash** — a replicated tier (R=2 across two DIMM-riser
//!    failure domains) loses a whole riser mid-run: the clients fail
//!    over, hedge, and spend retry budget; every request is answered or
//!    loudly abandoned, never silently lost.
//!
//! Run with: `cargo run --release --example serving`

use mcn::outage::{OutagePlan, Part};
use mcn::{ComponentExt, McnConfig, McnRack, McnSystem, MetricsSnapshot, SystemConfig};
use mcn_serve::{
    Backend, KvServer, KvServerConfig, ReplicaMap, ResilientClientConfig, ResilientKvClient,
    ServeReport,
};
use mcn_sim::SimTime;

type Report = std::sync::Arc<parking_lot::Mutex<ServeReport>>;

/// Builds a 1-DIMM system with a KV server on the DIMM and `n` clients
/// on host cores, then runs it for `sim_ms` simulated milliseconds.
fn run_fleet(
    server: KvServerConfig,
    n: u64,
    gap: SimTime,
    pipeline: usize,
    sim_ms: u64,
) -> (McnSystem, Report) {
    let report = ServeReport::shared(SimTime::from_us(200));
    let mut sys = McnSystem::new(&SystemConfig::default(), 1, McnConfig::level(3));
    let dimm = sys.dimm_ip(0);
    sys.spawn_dimm(0, Box::new(KvServer::new(server, report.clone())), 0);
    for i in 0..n {
        // One backend: a hedge could only re-send to the same server.
        let mut cfg = ResilientClientConfig::new(ReplicaMap::single(dimm, 11211));
        cfg.seed = 0xFEED + i;
        cfg.n_requests = 200;
        cfg.mean_gap = gap;
        cfg.set_pct = 20;
        cfg.pipeline = pipeline;
        cfg.hedge_delay = None;
        sys.spawn_host(
            Box::new(ResilientKvClient::new(cfg, report.clone())),
            (i % 2) as usize,
        );
    }
    sys.run_until(SimTime::from_ms(sim_ms));
    (sys, report)
}

/// Prints the act's report and asserts its accounting identity.
fn print_report(tag: &str, r: &ServeReport) {
    let pct = |p| r.latency.percentile(p).unwrap_or(SimTime::ZERO);
    println!("{tag}:");
    println!(
        "  issued {} = answered {} (ok {}, miss {}, busy {}) + gave_up {}",
        r.issued,
        r.latency.count(),
        r.ok,
        r.miss,
        r.busy,
        r.gave_up
    );
    println!("  latency p50 {} / p99 {}", pct(50.0), pct(99.0));
    println!("  clients finished: {}", r.completed_clients);
    assert!(r.issued > 0, "the fleet issued nothing");
    r.check_accounting().expect("silent request loss");
}

fn main() {
    // --- Act 1: comfortable load ---------------------------------------
    let (_, easy) = run_fleet(KvServerConfig::default(), 3, SimTime::from_us(25), 4, 40);
    let easy = easy.lock();
    print_report("default budgets, 3 clients x 200 requests", &easy);
    assert_eq!(easy.busy, 0, "no shedding expected at this load");

    // --- Act 2: overload ------------------------------------------------
    let tight = KvServerConfig {
        inflight_budget: 2,
        max_conns: 2,
        accept_backlog: 2,
        ..KvServerConfig::default()
    };
    // Refused connections open breakers and spend retry budgets, so the
    // last requests wait out the 30 ms give-up: drive well past it.
    let (sys, hard) = run_fleet(tight, 6, SimTime::from_us(5), 16, 200);
    let hard = hard.lock();
    print_report("\ntight budgets (2 conns, 2 in flight), 6 clients", &hard);
    println!("  requests shed with B\\n: {}", hard.shed_requests);

    // Every admission decision is a counter in the registry.
    let snap = MetricsSnapshot::collect(&sys);
    for leaf in ["syn_drops", "accept_overflows", "accept_prunes"] {
        println!(
            "  dimm0.stack.tcp.{leaf} = {}",
            snap.get_u64(&format!("dimm0.stack.tcp.{leaf}"))
        );
    }
    assert!(hard.busy > 0, "overload must shed");
    assert_eq!(
        hard.completed_clients, 6,
        "shedding must not strand clients"
    );

    // --- Act 3: a failure domain dies mid-benchmark ---------------------
    // 2 servers x 2 DIMMs; each server's DIMM riser is one failure
    // domain. Every key range is replicated across both risers, so when
    // riser0 (both DIMMs of server 0) crashes at 2 ms, every key still
    // has a live replica — the resilient fleet rides it out.
    let report = ServeReport::shared(SimTime::from_us(200));
    report
        .lock()
        .set_fault_window(SimTime::from_ms(2), SimTime::from_ms(7));
    let mut rack = McnRack::new(&SystemConfig::default(), 2, 2, McnConfig::level(3));
    let mut plan = OutagePlan::new(0xACE);
    for s in 0..2 {
        plan.define_domain(&format!("riser{s}"), &[Part::Dimm(s, 0), Part::Dimm(s, 1)]);
    }
    plan.domain_crash("riser0", SimTime::from_ms(2), SimTime::from_ms(5));
    rack.set_outage_plan(&plan);

    let mut backends = Vec::new();
    for s in 0..2 {
        for d in 0..2 {
            rack.spawn_dimm(
                s,
                d,
                Box::new(KvServer::new(KvServerConfig::default(), report.clone())),
                0,
            );
            backends.push(Backend {
                addr: rack.server(s).dimm_ip(d),
                port: 11211,
                domain: format!("riser{s}"),
                rack: 0,
            });
        }
    }
    let map = ReplicaMap::new(backends, 8, 2).expect("placement");
    for s in 0..2 {
        for c in 0..2u64 {
            let i = s as u64 * 2 + c;
            let mut cfg = ResilientClientConfig::new(map.clone());
            cfg.seed = 0xCAFE + i;
            cfg.n_requests = 150;
            cfg.mean_gap = SimTime::from_us(40);
            cfg.set_pct = 20;
            cfg.retry_budget = 32;
            cfg.retry_earn_tenths = 5;
            if i % 2 == 1 {
                cfg.hedge_delay = None; // half the fleet: timeout failover only
            }
            rack.spawn_host(
                s,
                Box::new(ResilientKvClient::new(cfg, report.clone())),
                (c % 2) as usize,
            );
        }
    }
    rack.run_parallel(SimTime::from_ms(40), 2);

    let r = report.lock();
    println!("\nreplicated tier, riser0 domain crash at 2 ms for 5 ms:");
    println!(
        "  issued {} = answered {} + gave_up {} (nothing silent)",
        r.issued,
        r.latency.count(),
        r.gave_up
    );
    println!(
        "  fault window: {}/{} answered (availability {:.3})",
        r.fault_answered,
        r.fault_issued,
        r.fault_availability()
    );
    println!(
        "  recovery: {} failovers, {} hedges launched ({} won), \
         {} retry tokens spent ({} refused), {} breaker opens ({} probes)",
        r.failovers,
        r.hedges_launched,
        r.hedges_won,
        r.retry_budget_spent,
        r.retry_budget_exhausted,
        r.breaker_opens,
        r.breaker_half_open_probes
    );
    println!("  latency histogram (scheduled arrival -> answer):");
    for (tag, p) in [("p50", 50.0), ("p90", 90.0), ("p99", 99.0), ("p99.9", 99.9)] {
        println!(
            "    {tag:>5}  {}",
            r.latency.percentile(p).unwrap_or(SimTime::ZERO)
        );
    }
    println!(
        "    {:>5}  {}",
        "max",
        r.latency.max().unwrap_or(SimTime::ZERO)
    );
    println!(
        "    in-window p99 {} vs steady p99 {}",
        r.fault_latency.percentile(99.0).unwrap_or(SimTime::ZERO),
        r.steady_latency.percentile(99.0).unwrap_or(SimTime::ZERO)
    );
    let snap = MetricsSnapshot::collect(&rack);
    println!(
        "  domain counters: riser0 crashes={} heals={}",
        snap.get_u64("rack.outage.domain.riser0.crashes"),
        snap.get_u64("rack.outage.domain.riser0.heals")
    );
    assert!(r.issued > 0, "the fleet issued nothing");
    r.check_accounting().expect("silent request loss");
    assert!(r.failovers > 0, "the crash must have engaged failover");
    assert_eq!(r.completed_clients, 4, "the resilient fleet must drain");
}
