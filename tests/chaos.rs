//! Chaos harness: crash–restart lifecycle and partition-and-heal across the
//! whole MCN stack.
//!
//! Where `fault_recovery.rs` exercises *transient* faults (dropped frames,
//! bit flips, stalled DMA), these tests exercise *hard* outages from an
//! [`OutagePlan`]: DIMMs crash and reboot (SRAM rings wiped, host↔DIMM
//! re-init handshake), the ToR switch partitions and heals, and peers die
//! for good. The invariants:
//!
//! * TCP streams that span an outage are byte-complete after the heal —
//!   retransmission plus the re-init handshake recover everything,
//! * every outage and every recovery step is visible in a counter,
//! * a peer that never comes back yields a terminal error
//!   ([`TcpError::TimedOut`] at the transport, [`MpiError::RankFailed`] at
//!   the MPI layer) instead of a hang,
//! * the same seed replays the same chaos: two runs produce byte-identical
//!   full-registry JSON snapshots ([`MetricsSnapshot`] over the whole
//!   rack; `chaos_smoke_snapshot` prints them as `SNAP|`-prefixed lines so
//!   CI can diff two invocations).

use mcn::outage::{Event, OutagePlan, Part};
use mcn::{ComponentExt, McnConfig, McnRack, McnSystem, MetricsSnapshot, SystemConfig};
use mcn_mpi::mpi::MpiRank;
use mcn_mpi::placement::{spawn_on_mcn, MPI_BASE_PORT};
use mcn_mpi::workloads::{RankProgram, WorkloadReport};
use mcn_mpi::{CommPattern, MpiError, WorkloadSpec};
use mcn_net::tcp::{TcpError, TcpState};
use mcn_sim::{Backoff, SimTime};

/// Fixed per-slice pacing: a [`Backoff`] whose delay never grows.
fn pace(slice: SimTime, attempts: u32) -> Backoff {
    Backoff::new(slice, slice, attempts)
}

#[test]
fn dimm_crash_and_reboot_keeps_tcp_byte_complete() {
    // A DIMM crashes mid-stream and powers back on 30 ms later. The SRAM
    // rings and every queued descriptor are gone; the host walks the
    // probe → ring-reset → MAC-announce handshake and TCP retransmission
    // repairs the stream. The application sees a hiccup, not data loss.
    let mut plan = OutagePlan::new(0xD1);
    plan.down(
        Part::Dimm(0, 0),
        SimTime::from_us(1500),
        SimTime::from_ms(30),
    );
    let mut sys = McnSystem::new(&SystemConfig::default(), 1, McnConfig::level(3));
    sys.set_outage_plan(&plan);

    let lst = sys.dimm_mut(0).node.stack.tcp_listen(6000).unwrap();
    let dimm_ip = sys.dimm_ip(0);
    let cs = sys
        .host
        .stack
        .tcp_connect(dimm_ip, 6000, SimTime::ZERO)
        .unwrap();
    sys.run_until(SimTime::from_ms(1));
    assert_eq!(sys.host.stack.tcp_state(cs), TcpState::Established);
    let ss = sys.dimm_mut(0).node.stack.tcp_accept(lst).unwrap();

    // Big enough (~2 ms at simulated MCN bandwidth) that the 1.5 ms crash
    // lands mid-stream, not after completion.
    let data: Vec<u8> = (0..4 * 1024 * 1024u32).map(|i| (i % 251) as u8).collect();
    let mut sent = 0;
    let mut got = Vec::new();
    let mut buf = vec![0u8; 65536];
    // Drain often enough that the sender streams continuously instead of
    // parking in a zero-window stall: the crash must land with data in
    // flight, or nothing dies in the rings and the persist timer (not
    // retransmission) would repair the stream.
    let mut pacing = pace(SimTime::from_us(20), 500_000);
    let done = sys.run_with_backoff(&mut pacing, |sys| {
        let now = sys.now();
        if sent < data.len() {
            sent += sys.host.stack.tcp_send(cs, &data[sent..], now).unwrap();
        }
        loop {
            let now = sys.now();
            let n = sys
                .dimm_mut(0)
                .node
                .stack
                .tcp_recv(ss, &mut buf, now)
                .unwrap();
            if n == 0 {
                break;
            }
            got.extend_from_slice(&buf[..n]);
        }
        got.len() >= data.len()
    });
    assert!(
        done,
        "stalled at {} bytes\n{}",
        got.len(),
        sys.stall_report("crash-and-reboot stream stalled")
    );
    assert_eq!(got, data, "byte-exact across a crash and reboot");

    // The lifecycle must be fully visible in counters.
    let d = &sys.dimm(0).stats;
    assert_eq!(d.crashes.get(), 1, "exactly one crash");
    assert_eq!(d.reboots.get(), 1, "exactly one reboot");
    let h = &sys.hdrv.stats;
    assert!(h.port_downs.get() >= 1, "the port went down");
    assert!(h.ring_resets.get() >= 1, "the handshake reset the rings");
    assert!(
        h.reinits_completed.get() >= 1,
        "the handshake completed: {h:?}"
    );
    assert!(sys.hdrv.port_is_up(0), "the port healed");
    assert!(
        sys.host.stack.tcp_totals().retransmits > 0,
        "in-flight data died in the rings; TCP must have retransmitted"
    );
}

#[test]
fn switch_partition_heals_and_stream_completes() {
    // The ToR switch partitions the two servers 3 ms into a cross-server
    // stream and heals at 250 ms. Frames the switch refuses are counted;
    // after the heal, retransmission completes the stream byte-exact.
    let mut plan = OutagePlan::new(0xAB);
    plan.partition(
        SimTime::from_us(2500),
        vec![vec![0], vec![1]],
        SimTime::from_ms(250),
    );
    let mut rack = McnRack::new(&SystemConfig::default(), 2, 1, McnConfig::level(3));
    rack.set_outage_plan(&plan);

    let dst_ip = rack.server(1).dimm_ip(0);
    let lst = rack
        .server_mut(1)
        .dimm_mut(0)
        .node
        .stack
        .tcp_listen(9000)
        .unwrap();
    let cs = rack
        .server_mut(0)
        .dimm_mut(0)
        .node
        .stack
        .tcp_connect(dst_ip, 9000, SimTime::ZERO)
        .unwrap();
    rack.run_until(SimTime::from_ms(2));
    assert_eq!(
        rack.server(0).dimm(0).node.stack.tcp_state(cs),
        TcpState::Established,
        "handshake completes before the partition"
    );
    let ss = rack
        .server_mut(1)
        .dimm_mut(0)
        .node
        .stack
        .tcp_accept(lst)
        .unwrap();

    // ~1.7 ms of cross-rack traffic: the 2.5 ms partition interrupts it.
    // The receiver reads every 20 µs, so the window stays open and data
    // is in flight when the partition starts (a reader that wakes once
    // per ms leaves the sender in a zero-window stall with nothing to
    // lose, and the stream then recovers through persist probes alone).
    let data: Vec<u8> = (0..2 * 1024 * 1024u32).map(|i| (i % 247) as u8).collect();
    let mut sent = 0;
    let mut got = Vec::new();
    let mut buf = vec![0u8; 32768];
    let mut pacing = pace(SimTime::from_us(20), 60_000);
    let done = rack.run_with_backoff(&mut pacing, |rack| {
        let now = rack.now();
        if sent < data.len() {
            sent += rack
                .server_mut(0)
                .dimm_mut(0)
                .node
                .stack
                .tcp_send(cs, &data[sent..], now)
                .unwrap();
        }
        loop {
            let now = rack.now();
            let n = rack
                .server_mut(1)
                .dimm_mut(0)
                .node
                .stack
                .tcp_recv(ss, &mut buf, now)
                .unwrap();
            if n == 0 {
                break;
            }
            got.extend_from_slice(&buf[..n]);
        }
        got.len() >= data.len()
    });
    assert!(
        done,
        "stalled at {} bytes\n{}",
        got.len(),
        rack.stall_report("partitioned stream stalled")
    );
    assert_eq!(got, data, "byte-exact across a partition and heal");
    assert_eq!(rack.stats().partitions.get(), 1);
    assert!(
        rack.stats().partition_drops.get() > 0,
        "the partition must have eaten frames"
    );
    assert!(
        rack.now() >= SimTime::from_ms(250),
        "the stream can only complete after the 250 ms heal"
    );
    assert!(
        rack.server(0).dimm(0).node.stack.tcp_totals().retransmits > 0,
        "partitioned frames must have been retransmitted"
    );
}

#[test]
fn unreachable_peer_times_out_instead_of_hanging() {
    // The DIMM crashes and never comes back. The host driver's probe
    // budget exhausts and parks the port; the TCP connection exhausts its
    // RTO budget and fails with TimedOut. Nothing hangs.
    let mut sys = McnSystem::new(&SystemConfig::default(), 1, McnConfig::level(3));
    let lst = sys.dimm_mut(0).node.stack.tcp_listen(6000).unwrap();
    let dimm_ip = sys.dimm_ip(0);
    let cs = sys
        .host
        .stack
        .tcp_connect(dimm_ip, 6000, SimTime::ZERO)
        .unwrap();
    sys.run_until(SimTime::from_ms(1));
    assert_eq!(sys.host.stack.tcp_state(cs), TcpState::Established);
    let _ss = sys.dimm_mut(0).node.stack.tcp_accept(lst).unwrap();

    // Put unacknowledged data in flight, then kill the DIMM for good.
    let now = sys.now();
    sys.host
        .stack
        .tcp_send(cs, &[0x5A; 32 * 1024], now)
        .unwrap();
    sys.crash_dimm(0, now);

    let mut waiting = Backoff::new(SimTime::from_ms(500), SimTime::from_secs(5), 64);
    let failed = sys.run_with_backoff(&mut waiting, |sys| sys.host.stack.tcp_failed(cs));
    assert!(
        failed,
        "a dead peer must surface as an error, not a hang\n{}",
        sys.stall_report("dead peer undetected")
    );
    assert_eq!(sys.host.stack.tcp_error(cs), Some(TcpError::TimedOut));
    assert!(sys.host.stack.tcp_totals().rto_giveups >= 1);
    // The driver's re-init probes also gave up and parked the port.
    assert_eq!(sys.hdrv.stats.reinit_failures.get(), 1);
    assert!(
        !sys.hdrv.port_is_up(0),
        "port parked down, not retrying forever"
    );
}

#[test]
fn dead_rank_yields_rank_failed_not_a_hang() {
    // An MPI barrier against a rank whose DIMM died at t=0: the surviving
    // rank's dials time out, the reconnect budget exhausts, and the rank
    // aborts with RankFailed instead of spinning in the collective.
    let mut sys = McnSystem::new(&SystemConfig::default(), 1, McnConfig::level(3));
    let spec = WorkloadSpec {
        name: "chaos-barrier",
        suite: "test",
        iterations: 0, // straight to the final barrier
        mem_bytes_per_iter: 1 << 20,
        read_frac: 0.8,
        random_access: false,
        compute_ns_per_iter: 1_000,
        comm: CommPattern::None,
    };
    let peers = vec![sys.host_rank_ip(), sys.dimm_ip(0)];
    let report = WorkloadReport::shared(2);
    let mut r0 = MpiRank::new(0, 2, peers.clone(), MPI_BASE_PORT);
    r0.set_max_reconnects(0); // first timeout is fatal: one detection cycle
    sys.spawn_host(
        Box::new(RankProgram::new(r0, spec, 8 << 30, 1, report.clone())),
        0,
    );
    let mut r1 = MpiRank::new(1, 2, peers, MPI_BASE_PORT);
    r1.set_max_reconnects(0);
    sys.spawn_dimm(
        0,
        Box::new(RankProgram::new(r1, spec, 8 << 30, 1, report.clone())),
        1,
    );
    // The DIMM (and rank 1 with it) dies before any traffic flows.
    sys.crash_dimm(0, SimTime::ZERO);

    let mut waiting = Backoff::new(SimTime::from_ms(500), SimTime::from_secs(5), 64);
    let failed = sys.run_with_backoff(&mut waiting, |_| report.lock().first_failure().is_some());
    assert!(
        failed,
        "rank 0 must detect the dead peer, not hang\n{}",
        sys.stall_report("dead rank undetected")
    );
    assert_eq!(
        report.lock().first_failure(),
        Some(MpiError::RankFailed(1)),
        "the failure names the dead rank"
    );
    assert!(
        sys.host.stack.tcp_totals().rto_giveups >= 1,
        "detection came from the transport's RTO give-up"
    );
}

/// The chaos mix: a 2-server rack where server 1's DIMM crashes twice at
/// randomized (seeded) times while the switch partitions and heals, under
/// a cross-server TCP stream plus an intra-server allreduce. Returns the
/// full-registry JSON snapshot (`SNAP|`-prefixed lines).
fn chaos_mix_snapshot(seed: u64) -> String {
    let mut plan = OutagePlan::new(seed);
    plan.random_crashes(
        Part::Dimm(1, 0),
        2,
        (SimTime::from_ms(1), SimTime::from_ms(80)),
        (SimTime::from_ms(5), SimTime::from_ms(20)),
    );
    plan.partition(
        SimTime::from_ms(2),
        vec![vec![0], vec![1]],
        SimTime::from_ms(230),
    );
    // The snapshot opens with the schedule the seed drew: crashes that
    // land while the rack is partitioned shift timings without moving any
    // final counter, so the schedule itself is part of the chaos history.
    // The lines keep their `DimmCrash` spelling so snapshots stay
    // comparable across versions.
    let mut snap = String::new();
    for (t, event) in plan.schedule(Part::Dimm(1, 0)) {
        use std::fmt::Write;
        let Event::Down { down_for } = event else {
            unreachable!("a DIMM only goes down")
        };
        writeln!(
            snap,
            "SNAP|plan srv1.dimm0 at={t} DimmCrash {{ down_for: {down_for:?} }}"
        )
        .unwrap();
    }

    let mut rack = McnRack::new(&SystemConfig::default(), 2, 1, McnConfig::level(3));
    rack.set_outage_plan(&plan);

    // An intra-server allreduce on server 0 rides along, untouched by the
    // cross-server chaos — transparency means it must verify regardless.
    let spec = WorkloadSpec {
        name: "chaos-allreduce",
        suite: "test",
        iterations: 2,
        mem_bytes_per_iter: 1 << 20,
        read_frac: 0.8,
        random_access: false,
        compute_ns_per_iter: 10_000,
        comm: CommPattern::AllReduce { elems: 32 },
    };
    let mpi_report = spawn_on_mcn(rack.server_mut(0), spec, 1, 1, 42);

    // Cross-server stream into the crashing DIMM, through the partition.
    let dst_ip = rack.server(1).dimm_ip(0);
    let lst = rack
        .server_mut(1)
        .dimm_mut(0)
        .node
        .stack
        .tcp_listen(9000)
        .unwrap();
    let cs = rack
        .server_mut(0)
        .dimm_mut(0)
        .node
        .stack
        .tcp_connect(dst_ip, 9000, SimTime::ZERO)
        .unwrap();
    let mut hs = Backoff::new(SimTime::from_ms(1), SimTime::from_ms(50), 100);
    let established = rack.run_with_backoff(&mut hs, |rack| {
        rack.server(0).dimm(0).node.stack.tcp_state(cs) == TcpState::Established
    });
    assert!(
        established,
        "handshake must survive the chaos\n{}",
        rack.stall_report("chaos handshake stalled")
    );
    let ss = rack
        .server_mut(1)
        .dimm_mut(0)
        .node
        .stack
        .tcp_accept(lst)
        .unwrap();

    // Large enough that the stream cannot complete before the 230 ms heal:
    // it is forced through both crashes and the whole partition window.
    let data: Vec<u8> = (0..3 * 1024 * 1024u32).map(|i| (i % 239) as u8).collect();
    let mut sent = 0;
    let mut got = Vec::new();
    let mut buf = vec![0u8; 32768];
    let mut pacing = pace(SimTime::from_ms(1), 20_000);
    let done = rack.run_with_backoff(&mut pacing, |rack| {
        let now = rack.now();
        if sent < data.len() {
            sent += rack
                .server_mut(0)
                .dimm_mut(0)
                .node
                .stack
                .tcp_send(cs, &data[sent..], now)
                .unwrap();
        }
        loop {
            let now = rack.now();
            let n = rack
                .server_mut(1)
                .dimm_mut(0)
                .node
                .stack
                .tcp_recv(ss, &mut buf, now)
                .unwrap();
            if n == 0 {
                break;
            }
            got.extend_from_slice(&buf[..n]);
        }
        got.len() >= data.len()
    });
    assert!(
        done,
        "chaos stream stalled at {} bytes\n{}",
        got.len(),
        rack.stall_report("chaos stream stalled")
    );
    assert_eq!(got, data, "byte-exact through crashes and the partition");
    assert!(
        rack.run_until_procs_done(rack.now() + SimTime::from_secs(10)),
        "allreduce under chaos must finish\n{}",
        rack.stall_report("chaos allreduce stalled")
    );
    {
        let r = mpi_report.lock();
        assert!(r.verified, "allreduce must verify under chaos");
        assert!(r.first_failure().is_none(), "no rank died in this scenario");
    }
    // The scheduled chaos must actually have happened. A crash drawn
    // while the DIMM is still down from the previous one coalesces (the
    // alive-guard ignores it), so the count is seed-dependent but every
    // crash that landed must have been followed by a reboot.
    let crashes = rack.server(1).dimm(0).stats.crashes.get();
    assert!((1..=2).contains(&crashes), "got {crashes} crashes");
    assert_eq!(rack.server(1).dimm(0).stats.reboots.get(), crashes);
    assert_eq!(rack.stats().partitions.get(), 1);

    snap.push_str(&rack_snapshot(&rack));
    snap
}

/// The rack's *entire* metrics registry as `SNAP|`-prefixed JSON lines
/// (CI greps the prefix, reassembles the JSON and diffs two same-seed
/// runs). A registry walk replaces the old hand-picked `writeln!` block:
/// any counter a layer registers is part of the determinism gate from the
/// moment it exists.
fn rack_snapshot(rack: &McnRack) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    for line in MetricsSnapshot::collect(rack).to_json().lines() {
        writeln!(s, "SNAP|{line}").unwrap();
    }
    s
}

#[test]
fn same_seed_chaos_runs_are_identical() {
    // One seed, one history: the randomized outage schedule, the crashes,
    // the handshake, the retransmissions — all of it must replay exactly,
    // down to a byte-identical full-registry JSON snapshot.
    let a = chaos_mix_snapshot(0xC4A05);
    let b = chaos_mix_snapshot(0xC4A05);
    assert_eq!(a, b, "same-seed chaos must produce identical snapshots");
}

#[test]
fn different_seeds_draw_different_chaos() {
    let a = chaos_mix_snapshot(3);
    let b = chaos_mix_snapshot(4);
    assert_ne!(a, b, "distinct seeds should perturb the chaos history");
}

#[test]
fn chaos_smoke_snapshot() {
    // CI's chaos-smoke gate runs this test twice with --nocapture and
    // diffs the SNAP| lines — the rack's whole registry in JSON, not a
    // hand-picked subset: any nondeterminism in the chaos machinery fails
    // the build even if every in-process assertion still passes.
    let snap = chaos_mix_snapshot(0x5EED_CAFE);
    // Leading newline: the libtest harness prints `test <name> ... ` with
    // no newline, which would glue itself to the first SNAP| line and
    // hide it from CI's `grep '^SNAP|'`.
    print!("\n{snap}");
    assert!(snap.lines().all(|l| l.starts_with("SNAP|")));
    // The registry walk covers both servers end to end: spine paths from
    // every layer must be present in the JSON body.
    for path in [
        "srv0.driver.ring_resets",
        "srv1.dimm0.driver.crashes",
        "srv1.host.stack.tcp.retransmits",
        "rack.partitions",
        "switch.forwarded",
        "nic1.tx_frames",
        "link0.up.sent",
        "engine.advances",
        // The windowed scheduler's coarsening and batching must engage
        // (and stay deterministic) even on the serial drive path — the
        // coordinator computes these from the same schedule at any
        // thread count, so they are part of the byte-identity diff CI
        // runs on this snapshot.
        "sched.lookahead.windows_coalesced",
        "sched.batch.jobs",
    ] {
        assert!(
            snap.contains(&format!("\"{path}\":")),
            "registry snapshot is missing {path}"
        );
    }
    assert!(snap.lines().count() >= 100, "full registry, not a subset");
}
