//! Distributed wordcount — the paper's "data-intensive application on a
//! distributed computing framework" story, end to end on an MCN server.
//!
//! Real MapReduce: each worker tokenises and counts its split, shuffles the
//! partitioned counts, reduces its partition, and verifies it against an
//! independently recomputed ground truth. The same job then runs on a
//! 10GbE cluster for comparison.
//!
//! Run with: `cargo run --release --example wordcount`

use mcn::{ComponentExt, EthernetCluster, McnConfig, McnSystem, SystemConfig};
use mcn_mpi::mapreduce::{MapReduceReport, MapReduceWorker};
use mcn_mpi::MpiRank;
use mcn_sim::SimTime;

const WORDS_PER_WORKER: usize = 200_000;
const SEED: u64 = 2018; // MICRO 2018

fn main() {
    // --- on an MCN server: 2 host workers + 2 DIMM workers ---------------
    let mut sys = McnSystem::new(&SystemConfig::default(), 2, McnConfig::level(3));
    let peers = vec![
        sys.host_rank_ip(),
        sys.host_rank_ip(),
        sys.dimm_ip(0),
        sys.dimm_ip(1),
    ];
    let size = peers.len();
    let report = MapReduceReport::shared(size);
    let mk = |rank: usize, report: &std::sync::Arc<parking_lot::Mutex<MapReduceReport>>| {
        MapReduceWorker::new(
            MpiRank::new(rank, size, peers.clone(), 42_000),
            SEED,
            WORDS_PER_WORKER,
            (8u64 << 30) + rank as u64 * (256 << 20),
            report.clone(),
        )
    };
    sys.spawn_host(Box::new(mk(0, &report)), 0);
    sys.spawn_host(Box::new(mk(1, &report)), 1);
    sys.spawn_dimm(0, Box::new(mk(2, &report)), 1);
    sys.spawn_dimm(1, Box::new(mk(3, &report)), 1);
    assert!(
        sys.run_until_procs_done(SimTime::from_secs(10)),
        "wordcount stalled at {}",
        sys.now()
    );
    let r = report.lock();
    println!(
        "MCN server (2 host + 2 DIMM workers): {} words mapped, {} distinct reduced",
        size * WORDS_PER_WORKER,
        r.distinct_words
    );
    println!(
        "  completed in {}  — verification: {}",
        r.completion().expect("finished"),
        if r.verified {
            "PASSED (bit-exact vs ground truth)"
        } else {
            "FAILED"
        }
    );
    assert!(r.verified);
    let t_mcn = r.completion().unwrap();
    drop(r);

    // --- the same job on a 2-node 10GbE cluster --------------------------
    let mut c = EthernetCluster::new(&SystemConfig::default(), 2);
    let peers = vec![
        EthernetCluster::ip_of(0),
        EthernetCluster::ip_of(0),
        EthernetCluster::ip_of(1),
        EthernetCluster::ip_of(1),
    ];
    let report = MapReduceReport::shared(size);
    for rank in 0..size {
        let w = MapReduceWorker::new(
            MpiRank::new(rank, size, peers.clone(), 42_000),
            SEED,
            WORDS_PER_WORKER,
            (8u64 << 30) + (rank as u64 % 2) * (256 << 20),
            report.clone(),
        );
        c.spawn(rank / 2, Box::new(w), rank % 2);
    }
    assert!(c.run_until_procs_done(SimTime::from_secs(10)));
    let r = report.lock();
    assert!(r.verified);
    let t_eth = r.completion().unwrap();
    println!(
        "10GbE cluster (2 nodes x 2 workers):  completed in {t_eth}  ({:.2}x vs MCN)",
        t_eth.as_secs_f64() / t_mcn.as_secs_f64()
    );
    println!("\nIdentical worker code on both systems; results verified on both.");
}
