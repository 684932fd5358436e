//! The paper's central claim: application transparency. The *same*
//! unmodified rank programs run on a scale-up server, an MCN-enabled
//! server, and a 10GbE cluster, and produce numerically verified results
//! on all three. Failure injection on the Ethernet baseline checks that
//! correctness does not depend on a clean wire.

use mcn::{ComponentExt, EthernetCluster, McnConfig, McnSystem, SystemConfig};
use mcn_mpi::placement::{spawn_on_cluster, spawn_on_mcn};
use mcn_mpi::{CommPattern, WorkloadSpec};
use mcn_sim::SimTime;

fn spec(comm: CommPattern) -> WorkloadSpec {
    WorkloadSpec {
        name: "transparency",
        suite: "test",
        iterations: 2,
        mem_bytes_per_iter: 2 << 20,
        read_frac: 0.7,
        random_access: false,
        compute_ns_per_iter: 40_000,
        comm,
    }
}

#[test]
fn same_program_three_systems() {
    for comm in [
        CommPattern::AllReduce { elems: 256 },
        CommPattern::AllToAll {
            total_bytes: 64 * 1024,
        },
    ] {
        let w = spec(comm);
        // Scale-up (loopback).
        let mut sys = McnSystem::new(&SystemConfig::default(), 0, McnConfig::level(0));
        let r = spawn_on_mcn(&mut sys, w, 4, 0, 1);
        assert!(
            sys.run_until_procs_done(SimTime::from_secs(20)),
            "{comm:?} scale-up"
        );
        assert!(r.lock().verified, "{comm:?} scale-up verification");

        // MCN server.
        let mut sys = McnSystem::new(&SystemConfig::default(), 2, McnConfig::level(4));
        let r = spawn_on_mcn(&mut sys, w, 2, 1, 1);
        assert!(
            sys.run_until_procs_done(SimTime::from_secs(20)),
            "{comm:?} mcn"
        );
        assert!(r.lock().verified, "{comm:?} mcn verification");

        // 10GbE cluster.
        let mut c = EthernetCluster::new(&SystemConfig::default(), 2);
        let r = spawn_on_cluster(&mut c, w, 2, 1);
        assert!(
            c.run_until_procs_done(SimTime::from_secs(20)),
            "{comm:?} cluster"
        );
        assert!(r.lock().verified, "{comm:?} cluster verification");
    }
}

#[test]
fn cluster_workload_survives_packet_loss_and_corruption() {
    // MPI over a dirty wire: TCP absorbs the damage, the allreduce result
    // still verifies exactly. (On MCN the channel is ECC-protected; on
    // Ethernet this is why checksums/FCS exist — paper Sec. IV-A.)
    let w = spec(CommPattern::AllReduce { elems: 512 });
    let mut c = EthernetCluster::new(&SystemConfig::default(), 3);
    // Only ~20 frames cross this uplink during the exchange, so the rates
    // are high enough that the seeded stream provably fires on them.
    c.impair_uplink(1, 0.2, 0.05, 1234);
    let r = spawn_on_cluster(&mut c, w, 1, 5);
    assert!(
        c.run_until_procs_done(SimTime::from_secs(25)),
        "stalled at {} under loss",
        c.now()
    );
    assert!(r.lock().verified, "loss must not corrupt results");
    // The impairment must actually have bitten: the link counted what it
    // injected, and the endpoints show the recovery work.
    let injected = c.uplink(1).dropped.get() + c.uplink(1).corrupted.get();
    assert!(injected > 0, "the impaired link never fired a fault");
    let drops: u64 = (0..3).map(|i| c.node(i).nic.fcs_drops.get()).sum();
    let retransmits: u64 = (0..3)
        .map(|i| c.node(i).node.stack.tcp_totals().retransmits)
        .sum();
    assert!(
        drops + retransmits > 0,
        "impairments should be visible (drops {drops}, rtx {retransmits})"
    );
}

#[test]
fn mixed_placement_all_npb_signatures_run_on_mcn() {
    // Every NPB signature completes and verifies on an MCN server
    // (miniaturised: fewer bytes, fewer iterations via the real specs'
    // structure but a smaller communicator).
    for base in WorkloadSpec::npb() {
        let w = WorkloadSpec {
            iterations: 1,
            mem_bytes_per_iter: base.mem_bytes_per_iter / 8,
            compute_ns_per_iter: base.compute_ns_per_iter / 8,
            ..base
        };
        let mut sys = McnSystem::new(&SystemConfig::default(), 2, McnConfig::level(3));
        let r = spawn_on_mcn(&mut sys, w, 2, 1, 3);
        assert!(
            sys.run_until_procs_done(SimTime::from_secs(20)),
            "{} stalled at {}",
            w.name,
            sys.now()
        );
        let rep = r.lock();
        assert!(rep.verified, "{} verification", w.name);
        assert!(rep.completion().is_some());
    }
}

#[test]
fn mpi_allreduce_across_rack_of_mcn_servers() {
    // The abstract's unification claim end-to-end: one MPI job whose ranks
    // live on the hosts and DIMMs of *two different MCN servers*; traffic
    // crosses SRAM rings, host forwarding engines, the conventional NICs
    // and the ToR switch — and the allreduce still verifies numerically.
    use mcn::McnRack;
    use mcn_mpi::{MpiRank, RankProgram, WorkloadReport};

    let mut rack = McnRack::new(&SystemConfig::default(), 2, 1, McnConfig::level(3));
    let peers = vec![
        rack.server(0).host_rank_ip(),
        rack.server(0).dimm_ip(0),
        rack.server(1).host_rank_ip(),
        rack.server(1).dimm_ip(0),
    ];
    let size = peers.len();
    let w = spec(CommPattern::AllReduce { elems: 128 });
    let report = WorkloadReport::shared(size);
    let mk = |rank: usize| {
        RankProgram::new(
            MpiRank::new(rank, size, peers.clone(), 40_000),
            w,
            (8u64 << 30) + rank as u64 * (128 << 20),
            7,
            report.clone(),
        )
    };
    rack.spawn_host(0, Box::new(mk(0)), 0);
    rack.spawn_dimm(0, 0, Box::new(mk(1)), 1);
    rack.spawn_host(1, Box::new(mk(2)), 0);
    rack.spawn_dimm(1, 0, Box::new(mk(3)), 1);
    assert!(
        rack.run_until_procs_done(SimTime::from_secs(30)),
        "rack-wide MPI stalled at {}",
        rack.now()
    );
    let r = report.lock();
    assert!(r.verified, "allreduce across the rack must verify");
    assert!(r.completion().is_some());
    // The wire was genuinely used.
    assert!(rack.server(0).hdrv.stats.f4_external.get() > 0);
}

#[test]
fn mapreduce_wordcount_verifies_on_mcn() {
    // A real computation (not a signature): map → shuffle → reduce with
    // bit-exact verification against a recomputed ground truth.
    use mcn_mpi::mapreduce::{MapReduceReport, MapReduceWorker};
    use mcn_mpi::MpiRank;

    let mut sys = McnSystem::new(&SystemConfig::default(), 2, McnConfig::level(4));
    let peers = vec![sys.host_rank_ip(), sys.dimm_ip(0), sys.dimm_ip(1)];
    let size = peers.len();
    let report = MapReduceReport::shared(size);
    for rank in 0..size {
        let w = MapReduceWorker::new(
            MpiRank::new(rank, size, peers.clone(), 42_000),
            99,
            30_000,
            (8u64 << 30) + rank as u64 * (128 << 20),
            report.clone(),
        );
        if rank == 0 {
            sys.spawn_host(Box::new(w), 0);
        } else {
            sys.spawn_dimm(rank - 1, Box::new(w), 1);
        }
    }
    assert!(
        sys.run_until_procs_done(SimTime::from_secs(10)),
        "wordcount stalled at {}",
        sys.now()
    );
    let r = report.lock();
    assert!(r.verified, "reduced partitions must match ground truth");
    assert!(r.distinct_words > 0);
}
