//! Overload resilience and recovery of the serving tier.
//!
//! The paper sells MCN DIMMs as *servers* for "heavy traffic from
//! millions of users"; a server that melts under a connection flood or
//! leaks a socket slot per churned connection proves nothing. These
//! tests put the KV-on-DIMM serving tier ([`KvServer`] driven by
//! [`ResilientKvClient`] fleets) and the stack's admission machinery
//! under deliberate abuse:
//!
//! * a SYN flood against a bounded listener — drops are *counted*
//!   (`tcp.syn_drops`), the listener keeps serving, nothing panics,
//! * connection churn — TIME_WAIT quarantine expires, socket slots and
//!   ports are recycled (`tcp.time_wait_reaped` / `tcp.slots_reaped`),
//!   the socket table returns to its baseline size,
//! * overload — requests beyond the in-flight budget are shed with
//!   `B\n` instead of queueing without bound, connections beyond the
//!   accept budget are refused fast, and the fleet still finishes,
//! * a DIMM [crash](OutagePlan::down) that never heals — the
//!   half-open connections it leaves behind are reaped by TCP
//!   keepalive (`tcp.keepalive_giveups`), not leaked,
//! * the full chaos mix under `run_parallel` — byte-identical
//!   full-registry snapshots at 1 and 2 threads, including the shared
//!   [`ServeReport`] (whose fields are all commutative by contract),
//! * a zero-window stall and a replicated tier losing a failure domain
//!   — the client's failover, retry budget and breakers engage only
//!   when a backend is really gone.
//!
//! The first four fleets talk to one KV server each, over a one-backend
//! [`ReplicaMap`] with hedging off. Every test that runs a fleet ends
//! with the accounting identity `issued == answered + gave_up`.

use std::net::Ipv4Addr;
use std::sync::Arc;

use bytes::Bytes;
use mcn::{
    outage::{OutagePlan, Part},
    ComponentExt, McnConfig, McnRack, McnSystem, MetricSink, MetricsSnapshot, SystemConfig,
};
use mcn_net::tcp::{TcpConfig, TcpState};
use mcn_net::{
    EthernetFrame, IpProto, Ipv4Packet, MacAddr, NetConfig, NetStack, SockId, TcpFlags, TcpSegment,
};
use mcn_node::{Poll, ProcCtx, Process, Wake};
use mcn_serve::{
    parse_request, Backend, KvServer, KvServerConfig, ReplicaMap, Request, ResilientClientConfig,
    ResilientKvClient, ServeReport,
};
use mcn_sim::SimTime;
use parking_lot::Mutex;

// ---------------------------------------------------------------------------
// Stack-level harness (public API only): two nodes on one zero-latency wire.

const IP_A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const IP_B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

fn stack_pair() -> (NetStack, NetStack) {
    let mut a = NetStack::new(TcpConfig::default());
    let mut b = NetStack::new(TcpConfig::default());
    a.add_interface(NetConfig::ethernet(MacAddr::from_id(1), IP_A));
    b.add_interface(NetConfig::ethernet(MacAddr::from_id(2), IP_B));
    let mask = Ipv4Addr::new(255, 255, 255, 0);
    a.add_route(IP_B, mask, 0, None);
    b.add_route(IP_A, mask, 0, None);
    a.add_neighbor(IP_B, MacAddr::from_id(2));
    b.add_neighbor(IP_A, MacAddr::from_id(1));
    (a, b)
}

/// Moves all queued frames both ways; returns true if anything moved.
fn shuttle(a: &mut NetStack, b: &mut NetStack, now: SimTime) -> bool {
    let mut moved = false;
    while let Some(f) = a.poll_output(0) {
        b.on_frame(0, f, now);
        moved = true;
    }
    while let Some(f) = b.poll_output(0) {
        a.on_frame(0, f, now);
        moved = true;
    }
    moved
}

/// Shuttles until quiescent, advancing to the next stack timer when the
/// wire goes idle (so TIME_WAIT / keepalive / rto clocks actually run).
fn settle(a: &mut NetStack, b: &mut NetStack, now: &mut SimTime) {
    for _ in 0..5000 {
        if !shuttle(a, b, *now) {
            let t = [a.next_timer(), b.next_timer()].into_iter().flatten().min();
            match t {
                Some(t) => {
                    *now = (*now).max(t);
                    a.on_timer(*now);
                    b.on_timer(*now);
                }
                None => break,
            }
        }
    }
}

/// Crafts a bare SYN as it would arrive off the wire — the attacker's
/// packet, not a socket: nothing on the sending side remembers it.
fn spoofed_syn(sport: u16, dport: u16, ident: u16) -> EthernetFrame {
    let seg = TcpSegment {
        src_port: sport,
        dst_port: dport,
        seq: 1,
        ack: 0,
        flags: TcpFlags::SYN,
        window: 65535,
        mss: Some(1460),
        wscale: Some(7),
        payload: Bytes::new(),
        checksum_ok: true,
    };
    let pkt = Ipv4Packet::new(
        IP_A,
        IP_B,
        IpProto::Tcp,
        ident,
        Bytes::from(seg.encode(IP_A, IP_B, true)),
    );
    EthernetFrame::ipv4(
        MacAddr::from_id(2), // dst: the victim
        MacAddr::from_id(1),
        Bytes::from(pkt.encode()),
    )
}

#[test]
fn syn_flood_leaves_listener_serving_within_backlog_bounds() {
    let (mut a, mut b) = stack_pair();
    let mut now = SimTime::ZERO;
    let lst = b.tcp_listen_with_backlog(80, 4, 64).unwrap();

    // 24 spoofed SYNs from distinct source ports: 4 fill the SYN backlog,
    // the remaining 20 are dropped silently — counted, never panicking,
    // and never allocating state (classic SYN-flood posture).
    for i in 0..24u16 {
        b.on_frame(0, spoofed_syn(41_000 + i, 80, i), now);
    }
    assert_eq!(b.stats.syn_drops.get(), 20);

    // The counter is wired through the metrics registry under the path
    // the bench/CI tooling reads.
    let mut sink = MetricSink::new();
    sink.absorb("victim", &b);
    let snap = sink.finish();
    assert_eq!(snap.get_u64("victim.tcp.syn_drops"), 20);

    // Let the flood resolve: the SYN-ACKs go to a host that never opened
    // those connections, so it RSTs them and the embryonic entries die.
    settle(&mut a, &mut b, &mut now);

    // The listener must still serve a legitimate client afterwards. The
    // four embryonic connections the flood left in the accept queue died
    // to the spoofed host's RSTs; `tcp_accept` must prune those corpses
    // (reclaiming their slots) and hand out the real connection.
    let cs = a.tcp_connect(IP_B, 80, now).unwrap();
    settle(&mut a, &mut b, &mut now);
    assert_eq!(a.tcp_state(cs), TcpState::Established);
    let ss = b.tcp_accept(lst).expect("listener accepts after the flood");
    assert_eq!(b.tcp_state(ss), TcpState::Established);
    assert_eq!(
        b.stats.accept_prunes.get(),
        4,
        "flood corpses pruned at accept"
    );
    a.tcp_send(cs, b"still serving", now).unwrap();
    settle(&mut a, &mut b, &mut now);
    let mut buf = [0u8; 64];
    let n = b.tcp_recv(ss, &mut buf, now).unwrap();
    assert_eq!(&buf[..n], b"still serving");
    assert_eq!(
        b.stats.syn_drops.get(),
        20,
        "no drops after the flood ended"
    );
    assert_eq!(
        b.socket_states().len(),
        2,
        "victim holds exactly the listener and the served connection"
    );
}

// ---------------------------------------------------------------------------
// KV-on-DIMM harness.

/// A client of the one KV server at `server`. Its map has one backend,
/// so hedging is off: a hedge could only re-send to the same server.
fn client_of(server: Ipv4Addr, seed: u64) -> ResilientClientConfig {
    let mut cfg = ResilientClientConfig::new(ReplicaMap::single(server, 11211));
    cfg.seed = seed;
    cfg.hedge_delay = None;
    cfg
}

/// One MCN system with a [`KvServer`] on DIMM 0 and `clients` clients
/// of it on the host (client `i` on core `i % 2`, configured by
/// `tune(i, cfg)`), all reporting into `report`.
fn kv_system(
    server_cfg: KvServerConfig,
    clients: u64,
    report: &Arc<Mutex<ServeReport>>,
    tune: impl Fn(u64, &mut ResilientClientConfig),
) -> McnSystem {
    let mut sys = McnSystem::new(&SystemConfig::default(), 1, McnConfig::level(3));
    let dimm = sys.dimm_ip(0);
    sys.spawn_dimm(0, Box::new(KvServer::new(server_cfg, report.clone())), 0);
    for i in 0..clients {
        let mut cfg = client_of(dimm, 0);
        tune(i, &mut cfg);
        sys.spawn_host(
            Box::new(ResilientKvClient::new(cfg, report.clone())),
            (i % 2) as usize,
        );
    }
    sys
}

/// The accounting identity: the fleet issued requests, and every one
/// was answered or loudly abandoned.
fn assert_accounted(rep: &ServeReport) {
    assert!(rep.issued > 0, "the fleet issued nothing");
    rep.check_accounting().unwrap();
}

#[test]
fn kv_churn_reaps_time_wait_and_recycles_slots() {
    let report = ServeReport::shared(SimTime::from_us(500));
    // Staggered short-lived clients: connect, a handful of requests,
    // close — the churny end of a memcached front line. Each close walks
    // the full active-close lifecycle on the host (FIN → TIME_WAIT →
    // 2MSL expiry) and the passive close on the DIMM.
    const CLIENTS: u64 = 12;
    let mut sys = kv_system(KvServerConfig::default(), CLIENTS, &report, |i, cfg| {
        cfg.seed = 0x1000 + i;
        cfg.n_requests = 8;
        cfg.mean_gap = SimTime::from_us(10);
        cfg.set_pct = 25;
        cfg.start_at = SimTime::from_us(300 * i);
    });
    sys.run_until(SimTime::from_ms(25));

    let rep = report.lock();
    assert_eq!(rep.completed_clients, CLIENTS);
    assert_eq!(rep.conn_failures, 0);
    assert!(rep.ok > 0, "some GET/SET traffic must have succeeded");
    assert_eq!(rep.latency.count(), rep.ok + rep.miss);
    assert_accounted(&rep);
    drop(rep);

    // Lifecycle hygiene: every churned connection's slot was recycled on
    // both ends — TIME_WAIT expiry on the active closer (host), clean
    // LAST_ACK close on the passive closer (DIMM) — and the socket
    // tables are back to baseline (empty host, listener-only DIMM).
    let snap = MetricsSnapshot::collect(&sys);
    assert_eq!(snap.get_u64("host.stack.tcp.time_wait_reaped"), CLIENTS);
    assert_eq!(snap.get_u64("host.stack.tcp.slots_reaped"), CLIENTS);
    assert_eq!(snap.get_u64("dimm0.stack.tcp.slots_reaped"), CLIENTS);
    assert_eq!(snap.get_u64("dimm0.stack.tcp.time_wait_reaped"), 0);
    assert!(
        sys.host.stack.socket_states().is_empty(),
        "host leaked sockets"
    );
    assert_eq!(
        sys.dimm_mut(0).node.stack.socket_states().len(),
        1,
        "DIMM should hold exactly the listener"
    );
}

#[test]
fn overload_sheds_requests_and_connections_instead_of_collapsing() {
    // A deliberately tiny server (2 connections, 2 requests in flight)
    // against 6 aggressive pipelining clients. Layered admission control
    // must shed — `B\n` for excess requests, RST/drop for excess
    // connections — and the fleet must still run to completion.
    let report = ServeReport::shared(SimTime::from_us(500));
    let server = KvServerConfig {
        syn_backlog: 64,
        accept_backlog: 2,
        max_conns: 2,
        inflight_budget: 2,
        ..KvServerConfig::default()
    };
    let mut sys = kv_system(server, 6, &report, |i, cfg| {
        cfg.seed = 0x51 + i;
        cfg.n_requests = 40;
        cfg.mean_gap = SimTime::from_us(2);
        cfg.pipeline = 16;
        cfg.val_len = 1024;
        cfg.set_pct = 25;
        cfg.reconnect_backoff = SimTime::from_us(50);
    });
    // Refused connections open the clients' breakers and spend their
    // retry budgets; the last requests wait out the 30 ms give-up, so
    // the drive outlasts it with room to spare.
    sys.run_until(SimTime::from_ms(200));

    let snap = MetricsSnapshot::collect(&sys);
    let rep = report.lock();
    assert_eq!(
        rep.completed_clients, 6,
        "overloaded fleet must still finish"
    );
    assert!(
        rep.ok > 0,
        "the server must serve *something* while shedding"
    );
    assert!(rep.busy > 0, "clients must observe B\\n rejections");
    assert!(
        rep.shed_requests >= rep.busy,
        "server-side shed count covers every observed rejection"
    );
    assert!(
        rep.shed_conns + snap.get_u64("dimm0.stack.tcp.accept_overflows") > 0,
        "connection-level admission control must have fired"
    );
    assert_accounted(&rep);
}

#[test]
fn dimm_crash_half_open_connections_are_reaped_by_keepalive() {
    // Two clients, one request each before the crash: each connection
    // then sits idle through a long arrival gap while the DIMM crashes
    // and never comes back. Nothing will ever send a FIN or RST for those
    // connections — only keepalive can tell the host its peer is gone.
    // Without it, the sockets leak forever. The second request of each
    // client finds the DIMM dark: its reconnect never gets past
    // SYN-SENT, the request is abandoned at its 10 ms deadline (inside
    // the drive), and the finished client must not leave that
    // half-made connection behind either.
    let report = ServeReport::shared(SimTime::from_us(500));
    let mut sys = kv_system(KvServerConfig::default(), 2, &report, |i, cfg| {
        cfg.seed = 7 + i;
        cfg.n_requests = 2;
        cfg.mean_gap = SimTime::from_ms(12);
        cfg.give_up_after = SimTime::from_ms(10);
        cfg.keepalive = Some((SimTime::from_ms(2), SimTime::from_us(500), 3));
    });
    let mut plan = OutagePlan::new(0xDEAD);
    // Five seconds: the DIMM never returns within the run.
    plan.down(Part::Dimm(0, 0), SimTime::from_ms(2), SimTime::from_secs(5));
    sys.set_outage_plan(&plan);
    sys.run_until(SimTime::from_ms(30));

    let snap = MetricsSnapshot::collect(&sys);
    assert_eq!(
        snap.get_u64("host.stack.tcp.keepalive_giveups"),
        2,
        "both half-open connections must be declared dead"
    );
    assert!(
        snap.get_u64("host.stack.tcp.keepalive_probes_out") >= 6,
        "each connection gets its full probe budget before giving up"
    );
    let rep = report.lock();
    assert_eq!(rep.conn_failures, 2, "both clients must report the reap");
    assert_eq!(rep.completed_clients, 2, "both clients still terminate");
    assert_eq!(rep.gave_up, 2, "each second request finds the DIMM dark");
    assert_accounted(&rep);
    assert!(
        sys.host.stack.socket_states().is_empty(),
        "reaped connections must not leak host socket slots"
    );
}

#[test]
fn chaos_mix_serving_is_thread_count_invariant() {
    // The full serving tier — 2 servers x 2 DIMMs, a KV server per DIMM,
    // a client fleet per host — with a DIMM crash-and-reboot and a ToR
    // switch partition landing mid-traffic. The determinism contract:
    // same seed, same final clock and byte-identical full-registry
    // snapshot (including the shared ServeReport, whose fields are all
    // commutative) at any run_parallel thread count.
    let mut plan = OutagePlan::new(0xC0DE);
    plan.down(Part::Dimm(1, 0), SimTime::from_us(800), SimTime::from_ms(5));
    plan.partition(
        SimTime::from_ms(1),
        vec![vec![0], vec![1]],
        SimTime::from_ms(3),
    );

    let run = |threads: usize| {
        let report = ServeReport::shared(SimTime::from_us(500));
        let mut rack = McnRack::new(&SystemConfig::default(), 2, 2, McnConfig::level(3));
        for s in 0..2 {
            for d in 0..2 {
                rack.spawn_dimm(
                    s,
                    d,
                    Box::new(KvServer::new(KvServerConfig::default(), report.clone())),
                    0,
                );
            }
        }
        for s in 0..2 {
            for d in 0..2 {
                let ip = rack.server(s).dimm_ip(d);
                let mut cfg = client_of(ip, 0xA0 + (s * 2 + d) as u64);
                cfg.n_requests = 30;
                cfg.mean_gap = SimTime::from_us(20);
                cfg.set_pct = 20;
                cfg.keepalive = Some((SimTime::from_ms(2), SimTime::from_us(500), 3));
                rack.spawn_host(s, Box::new(ResilientKvClient::new(cfg, report.clone())), d);
            }
        }
        rack.set_outage_plan(&plan);
        // KvServer is a daemon — it never reports Done — so the run ends
        // at the deadline (or earlier quiescence), and `run_parallel`'s
        // all-procs-done flag is deliberately not asserted here.
        rack.run_parallel(SimTime::from_ms(200), threads);
        let mut sink = MetricSink::new();
        sink.absorb("root", &rack);
        sink.absorb("serve", &*report.lock());
        let rep = report.lock();
        assert_accounted(&rep);
        (
            rack.now(),
            sink.finish().to_json(),
            rep.ok,
            rep.completed_clients,
        )
    };

    let serial = run(1);
    let threaded = run(2);
    assert_eq!(
        (&serial.0, &serial.1),
        (&threaded.0, &threaded.1),
        "2-thread chaos serving run diverged from serial"
    );
    // The comparison only means something if the chaos and the serving
    // actually happened.
    assert!(serial.1.contains("\"root.rack.partitions\": 1"));
    assert!(serial.1.contains("crashes\": 1"));
    assert!(serial.2 > 0, "KV traffic must have been served");
    // All four clients terminate: three serve their full budget, and the
    // one whose DIMM crashed fails *cleanly* — keepalive declares the
    // half-open connection dead instead of letting the client hang.
    assert_eq!(serial.3, 4, "every client must finish despite the chaos");
    assert!(serial
        .1
        .contains("\"root.srv1.host.stack.tcp.keepalive_giveups\": 1"));
}

// ---------------------------------------------------------------------------
// Backpressure and replicated failover.

/// A KV server that accepts connections but reads *nothing* until
/// `resume_at`: its receive buffer fills and TCP advertises a zero window
/// to the fleet. After `resume_at` it drains and answers normally — the
/// stall was backpressure, never death.
struct StallServer {
    port: u16,
    resume_at: SimTime,
    lst: Option<SockId>,
    conns: Vec<(SockId, Vec<u8>)>,
}

impl StallServer {
    fn new(port: u16, resume_at: SimTime) -> Self {
        StallServer {
            port,
            resume_at,
            lst: None,
            conns: Vec::new(),
        }
    }
}

impl Process for StallServer {
    fn poll(&mut self, ctx: &mut ProcCtx<'_>) -> Poll {
        let lst = *self.lst.get_or_insert_with(|| ctx.tcp_listen(self.port));
        while let Some(s) = ctx.tcp_accept(lst) {
            self.conns.push((s, Vec::new()));
        }
        let mut wakes = vec![Wake::Sock(lst)];
        if ctx.now < self.resume_at {
            // Stall phase: the stack keeps ACKing (it buffers what fits),
            // but the application never reads, so the advertised window
            // shrinks to zero and the senders must wait on persist probes.
            wakes.push(Wake::Timer(self.resume_at));
            return Poll::Wait(wakes);
        }
        let mut buf = [0u8; 65536];
        self.conns.retain_mut(|(s, pending)| {
            loop {
                let n = ctx.tcp_recv(*s, &mut buf);
                if n == 0 {
                    break;
                }
                pending.extend_from_slice(&buf[..n]);
            }
            while let Some((req, used)) = parse_request(pending) {
                pending.drain(..used);
                match req {
                    Request::Set { .. } => ctx.tcp_send(*s, b"K\n"),
                    Request::Get { .. } => ctx.tcp_send(*s, b"M\n"),
                };
            }
            if ctx.stack.tcp_at_eof(*s) || ctx.stack.tcp_failed(*s) {
                ctx.tcp_close(*s);
                false
            } else {
                true
            }
        });
        for (s, _) in &self.conns {
            wakes.push(Wake::Sock(*s));
        }
        Poll::Wait(wakes)
    }

    fn name(&self) -> &str {
        "stall-server"
    }
}

#[test]
fn zero_window_stall_waits_on_persist_probes_without_spurious_failover() {
    // A stalled-but-alive server is the failure-detection trap: it stops
    // answering (looks dead to a naive timeout) while its stack still
    // ACKs (is provably alive). The resilient client must classify it as
    // backpressure — wait on TCP persist probing, spend no retry budget,
    // open no breaker, fail over to nobody — and complete once the
    // server drains.
    let report = ServeReport::shared(SimTime::from_us(500));
    let mut sys = McnSystem::new(&SystemConfig::default(), 1, McnConfig::level(3));
    let dimm_ip = sys.dimm_ip(0);
    sys.spawn_dimm(
        0,
        Box::new(StallServer::new(7000, SimTime::from_ms(300))),
        0,
    );
    let mut cfg = ResilientClientConfig::new(ReplicaMap::single(dimm_ip, 7000));
    cfg.seed = 0x5A;
    cfg.n_requests = 8;
    cfg.mean_gap = SimTime::from_us(20);
    cfg.keyspace = 8;
    cfg.set_pct = 100; // writes: big payloads that fill the stalled buffer
    cfg.val_len = 60_000;
    cfg.pipeline = 8;
    cfg.hedge_delay = None;
    // The stall (300 ms) far exceeds the soft timeout (2 ms): without the
    // zero-window suppression every request would burn its whole retry
    // budget against the only replica. The hard deadline must outlive the
    // stall, or the requests are *correctly* abandoned.
    cfg.give_up_after = SimTime::from_ms(600);
    sys.spawn_host(Box::new(ResilientKvClient::new(cfg, report.clone())), 0);
    sys.run_until(SimTime::from_ms(800));

    let snap = MetricsSnapshot::collect(&sys);
    assert!(
        snap.get_u64("host.stack.tcp.zero_window_stalls") >= 1,
        "the stall must have closed the advertised window"
    );
    assert!(
        snap.get_u64("host.stack.tcp.persist_probes_out") >= 1,
        "the stall must be carried by persist probes"
    );
    assert_eq!(
        snap.get_u64("host.stack.tcp.rto_giveups"),
        0,
        "backpressure must never be declared a dead peer"
    );
    let rep = report.lock();
    assert_eq!(rep.completed_clients, 1, "the client must finish");
    assert_eq!(
        rep.failovers, 0,
        "zero-window backpressure must not be mistaken for a dead backend"
    );
    assert_eq!(rep.breaker_opens, 0, "no breaker may open on backpressure");
    assert_eq!(rep.retry_budget_spent, 0, "no retry tokens spent");
    assert_eq!(rep.gave_up, 0, "every request completes after the drain");
    assert_eq!(rep.conn_failures, 0, "the connection never died");
    assert_accounted(&rep);
}

#[test]
fn replicated_failover_is_thread_count_invariant() {
    // The full resilient tier — R=2 replication across two DIMM-riser
    // failure domains, hedging and non-hedging clients, a mid-run domain
    // crash — must produce a byte-identical full-registry snapshot at 1,
    // 2 and 4 threads, with failover provably engaged and no request
    // lost silently. Hedges, retries and breaker probes all draw on
    // per-client seeded RNGs and window-boundary outage application, so
    // thread count must be unobservable.
    let riser = |s: usize| format!("riser{s}");
    let mut plan = OutagePlan::new(0xFA11);
    for s in 0..2 {
        plan.define_domain(&riser(s), &[Part::Dimm(s, 0), Part::Dimm(s, 1)]);
    }
    plan.domain_crash(&riser(0), SimTime::from_ms(2), SimTime::from_ms(4));

    let run = |threads: usize| {
        let report = ServeReport::shared(SimTime::from_us(500));
        report
            .lock()
            .set_fault_window(SimTime::from_ms(2), SimTime::from_ms(6));
        let mut rack = McnRack::new(&SystemConfig::default(), 2, 2, McnConfig::level(3));
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
                    domain: riser(s),
                    rack: 0,
                });
            }
        }
        let map = ReplicaMap::new(backends, 8, 2).expect("placement");
        for s in 0..2 {
            for c in 0..2u64 {
                let i = s as u64 * 2 + c;
                let mut cfg = ResilientClientConfig::new(map.clone());
                cfg.seed = 0xF00 + i;
                cfg.n_requests = 120;
                cfg.mean_gap = SimTime::from_us(40);
                cfg.keyspace = 256;
                cfg.set_pct = 20;
                cfg.retry_budget = 32;
                cfg.retry_earn_tenths = 5;
                if i % 2 == 1 {
                    cfg.hedge_delay = None;
                }
                rack.spawn_host(
                    s,
                    Box::new(ResilientKvClient::new(cfg, report.clone())),
                    (c % 2) as usize,
                );
            }
        }
        rack.set_outage_plan(&plan);
        rack.run_parallel(SimTime::from_ms(40), threads);
        let mut sink = MetricSink::new();
        sink.absorb("root", &rack);
        sink.absorb("serve", &*report.lock());
        let rep = report.lock();
        assert_accounted(&rep);
        (rack.now(), sink.finish().to_json(), rep.failovers)
    };

    let serial = run(1);
    for threads in [2, 4] {
        let threaded = run(threads);
        assert_eq!(
            (&serial.0, &serial.1),
            (&threaded.0, &threaded.1),
            "{threads}-thread replicated failover run diverged from serial"
        );
    }
    assert!(
        serial.2 > 0,
        "the domain crash must have engaged failover (serve.failovers)"
    );
    assert!(
        serial
            .1
            .contains("\"root.rack.outage.domain.riser0.crashes\": 1"),
        "the domain crash must be visible in the snapshot"
    );
    assert!(
        serial
            .1
            .contains("\"root.rack.outage.domain.riser0.heals\": 1"),
        "the domain heal must be visible in the snapshot"
    );
}
