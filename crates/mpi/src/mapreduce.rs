//! A miniature MapReduce framework over the MPI substrate — the paper's
//! motivating application class ("emerging data-intensive applications ...
//! are often built upon distributed computing frameworks such as Hadoop,
//! Spark and MPI", Sec. I).
//!
//! Unlike the parameterised workload *signatures* in [`crate::workloads`],
//! this runs a **real computation**: every worker generates its input
//! split deterministically, tokenises and counts words (map), partitions
//! the counts by word hash and exchanges them all-to-all (shuffle), merges
//! its partition (reduce), and finally **verifies its partition against an
//! independently recomputed ground truth** — possible because input
//! generation is a pure function of `(seed, rank)`, so any rank can
//! regenerate everyone's input. A lost or corrupted shuffle byte fails the
//! job, on any of the systems it runs on (scale-up, MCN server, cluster,
//! rack).
//!
//! The compute side is charged honestly: scanning the input costs CPU time
//! per byte and streams the split through the memory system.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use mcn_node::mem::Access;
use mcn_node::{Poll, ProcCtx, Process, Wake};
use mcn_sim::{DetRng, SimTime};

use crate::mpi::{Alltoall, Barrier, MpiRank};

/// A small closed vocabulary so counts collide across ranks and the
/// shuffle actually merges.
const VOCAB: &[&str] = &[
    "memory",
    "channel",
    "network",
    "dimm",
    "processor",
    "bandwidth",
    "latency",
    "driver",
    "packet",
    "buffer",
    "near",
    "data",
    "host",
    "kernel",
    "dram",
    "sram",
    "interrupt",
    "polling",
    "ethernet",
    "mpi",
];

/// CPU nanoseconds per input byte for tokenising + hashing (at the host
/// reference frequency; a fast hand-rolled wordcount).
const SCAN_NS_PER_BYTE: f64 = 0.8;

/// Generates rank `r`'s input split: `words` words drawn from a small
/// closed vocabulary (so counts collide across ranks and the shuffle
/// actually merges).
pub fn generate_split(seed: u64, rank: usize, words: usize) -> String {
    let mut rng = DetRng::new(seed ^ 0x5EED).fork(rank as u64);
    let mut s = String::with_capacity(words * 8);
    for _ in 0..words {
        s.push_str(VOCAB[rng.next_below(VOCAB.len() as u64) as usize]);
        s.push(' ');
    }
    s
}

/// Counts words in `text` (the map function).
pub fn count_words(text: &str) -> HashMap<String, u64> {
    let mut m = HashMap::new();
    for w in text.split_whitespace() {
        *m.entry(w.to_owned()).or_insert(0) += 1;
    }
    m
}

/// Stable partitioning of a word onto a reducer.
pub fn partition_of(word: &str, reducers: usize) -> usize {
    let h = word
        .bytes()
        .fold(0u64, |a, b| a.wrapping_mul(131).wrapping_add(b as u64));
    (h % reducers as u64) as usize
}

fn encode_counts(counts: &HashMap<String, u64>, part: usize, reducers: usize) -> Vec<u8> {
    let mut entries: Vec<(&String, &u64)> = counts
        .iter()
        .filter(|(w, _)| partition_of(w, reducers) == part)
        .collect();
    entries.sort(); // deterministic wire format
    let mut out = Vec::new();
    for (w, c) in entries {
        out.extend_from_slice(w.as_bytes());
        out.push(b':');
        out.extend_from_slice(c.to_string().as_bytes());
        out.push(b'\n');
    }
    out
}

fn decode_counts(data: &[u8]) -> HashMap<String, u64> {
    let mut m = HashMap::new();
    for line in std::str::from_utf8(data).expect("utf8 counts").lines() {
        let (w, c) = line.split_once(':').expect("word:count");
        *m.entry(w.to_owned()).or_insert(0) += c.parse::<u64>().expect("count");
    }
    m
}

/// Shared job report.
#[derive(Debug)]
pub struct MapReduceReport {
    /// Per-rank completion time.
    pub finished: Vec<Option<SimTime>>,
    /// Every rank's reduced partition matched the recomputed ground truth.
    pub verified: bool,
    /// Total distinct words reduced (sum over partitions).
    pub distinct_words: usize,
}

impl MapReduceReport {
    /// A fresh cell for `size` workers.
    pub fn shared(size: usize) -> Arc<Mutex<MapReduceReport>> {
        Arc::new(Mutex::new(MapReduceReport {
            finished: vec![None; size],
            verified: true,
            distinct_words: 0,
        }))
    }

    /// Slowest worker's completion time, once all finished.
    pub fn completion(&self) -> Option<SimTime> {
        self.finished
            .iter()
            .copied()
            .collect::<Option<Vec<_>>>()?
            .into_iter()
            .max()
    }
}

enum Phase {
    /// Scan the input split (CPU + memory traffic), then map.
    Map,
    WaitScan,
    /// Exchange partitioned counts.
    Shuffle(Alltoall),
    /// Merge, verify, barrier out.
    Final(Barrier),
    Done,
}

/// One MapReduce worker (an MPI rank).
pub struct MapReduceWorker {
    mpi: MpiRank,
    seed: u64,
    words_per_rank: usize,
    mem_base: u64,
    phase: Phase,
    counts: Option<HashMap<String, u64>>,
    reduced: Option<HashMap<String, u64>>,
    report: Arc<Mutex<MapReduceReport>>,
}

impl MapReduceWorker {
    /// Creates a worker; all ranks must use the same `seed` and
    /// `words_per_rank`.
    pub fn new(
        mpi: MpiRank,
        seed: u64,
        words_per_rank: usize,
        mem_base: u64,
        report: Arc<Mutex<MapReduceReport>>,
    ) -> Self {
        MapReduceWorker {
            mpi,
            seed,
            words_per_rank,
            mem_base,
            phase: Phase::Map,
            counts: None,
            reduced: None,
            report,
        }
    }

    /// The ground truth for partition `part`: recompute every rank's split
    /// and merge. Pure function — any rank can check any partition.
    pub fn expected_partition(
        seed: u64,
        size: usize,
        words_per_rank: usize,
        part: usize,
    ) -> HashMap<String, u64> {
        let mut m = HashMap::new();
        for r in 0..size {
            let text = generate_split(seed, r, words_per_rank);
            for (w, c) in count_words(&text) {
                if partition_of(&w, size) == part {
                    *m.entry(w).or_insert(0) += c;
                }
            }
        }
        m
    }
}

impl Process for MapReduceWorker {
    fn poll(&mut self, ctx: &mut ProcCtx<'_>) -> Poll {
        loop {
            match &mut self.phase {
                Phase::Map => {
                    self.mpi.progress(ctx); // bring up the listener early
                    let text = generate_split(self.seed, self.mpi.rank(), self.words_per_rank);
                    let bytes = text.len() as u64;
                    // The real map computation.
                    self.counts = Some(count_words(&text));
                    // Its honest cost: CPU scan time + streaming the split.
                    ctx.compute(SimTime::from_ns_f64(SCAN_NS_PER_BYTE * bytes as f64));
                    let job = ctx.mem_stream(self.mem_base, bytes.max(4096), 0.95, Access::Seq);
                    self.phase = Phase::WaitScan;
                    return Poll::Wait(vec![Wake::Job(job)]);
                }
                Phase::WaitScan => {
                    let size = self.mpi.size();
                    let counts = self.counts.as_ref().expect("mapped");
                    let payloads: Vec<Vec<u8>> =
                        (0..size).map(|p| encode_counts(counts, p, size)).collect();
                    self.phase = Phase::Shuffle(Alltoall::new(1, payloads));
                }
                Phase::Shuffle(a) => {
                    let mut a = std::mem::replace(a, Alltoall::new(0, Vec::new()));
                    if !a.poll(&mut self.mpi, ctx) {
                        self.phase = Phase::Shuffle(a);
                        return Poll::Wait(self.mpi.wakes());
                    }
                    // Reduce: merge everyone's contribution to my partition.
                    let mut merged = HashMap::new();
                    for payload in a.recv.iter().flatten() {
                        for (w, c) in decode_counts(payload) {
                            *merged.entry(w).or_insert(0) += c;
                        }
                    }
                    self.reduced = Some(merged);
                    self.phase = Phase::Final(Barrier::new(2));
                }
                Phase::Final(b) => {
                    let mut b = std::mem::replace(b, Barrier::new(0));
                    if !b.poll(&mut self.mpi, ctx) {
                        self.phase = Phase::Final(b);
                        return Poll::Wait(self.mpi.wakes());
                    }
                    let rank = self.mpi.rank();
                    let size = self.mpi.size();
                    let mine = self.reduced.take().expect("reduced");
                    let expect =
                        Self::expected_partition(self.seed, size, self.words_per_rank, rank);
                    let mut rep = self.report.lock();
                    if mine != expect {
                        rep.verified = false;
                    }
                    rep.distinct_words += mine.len();
                    rep.finished[rank] = Some(ctx.now);
                    drop(rep);
                    self.phase = Phase::Done;
                }
                Phase::Done => {
                    self.mpi.progress(ctx);
                    if self.mpi.flushed() {
                        return Poll::Done;
                    }
                    return Poll::Wait(self.mpi.wakes());
                }
            }
        }
    }

    fn name(&self) -> &str {
        "mapreduce"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_generation_is_deterministic_and_rank_distinct() {
        let a = generate_split(1, 0, 100);
        let b = generate_split(1, 0, 100);
        let c = generate_split(1, 1, 100);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.split_whitespace().count(), 100);
    }

    #[test]
    fn count_words_counts() {
        let m = count_words("a b a c a b");
        assert_eq!(m["a"], 3);
        assert_eq!(m["b"], 2);
        assert_eq!(m["c"], 1);
    }

    #[test]
    fn encode_decode_roundtrip_per_partition() {
        let counts = count_words(&generate_split(7, 3, 500));
        let reducers = 4;
        let mut merged = HashMap::new();
        for p in 0..reducers {
            for (w, c) in decode_counts(&encode_counts(&counts, p, reducers)) {
                // Each word lands in exactly one partition.
                assert_eq!(partition_of(&w, reducers), p);
                *merged.entry(w).or_insert(0u64) += c;
            }
        }
        assert_eq!(merged, counts);
    }

    #[test]
    fn expected_partitions_cover_all_words() {
        let (seed, size, words) = (9, 3, 200);
        let total: u64 = (0..size)
            .map(|p| {
                MapReduceWorker::expected_partition(seed, size, words, p)
                    .values()
                    .sum::<u64>()
            })
            .sum();
        assert_eq!(total, (size * words) as u64);
    }
}
