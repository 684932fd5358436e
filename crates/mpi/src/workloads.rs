//! Parameterised MPI rank programs reproducing the paper's benchmark
//! suites.
//!
//! The paper evaluates "communication intensive benchmarks from NAS
//! Parallel Benchmarks (NPB), CORAL, and BigDataBench" (Sec. V). We cannot
//! run the original Fortran/C codes, so each benchmark is represented by
//! its *signature*: how much memory traffic per unit of work, with what
//! access pattern, how much pure compute, and which communication pattern
//! at what message size. These signatures are what differentiates the
//! benchmarks in Figs. 9–11 (e.g. `ep` is compute-only so MCN cannot help
//! it; `cg` does fine-grained irregular communication so a single MCN DIMM
//! loses to an 8-core scale-up node — both effects the paper calls out).
//!
//! Collectives move real bytes; the allreduce result is numerically
//! verified at the end of every run, so a transport bug fails the run
//! rather than producing a pretty but wrong figure.

use std::sync::Arc;

use parking_lot::Mutex;

use mcn_node::mem::Access;
use mcn_node::{JobId, Poll, ProcCtx, Process, Wake};
use mcn_sim::metrics::{Instrumented, MetricSink};
use mcn_sim::{DetRng, SimTime};

use crate::mpi::{Allreduce, Alltoall, Barrier, MpiError, MpiRank};

/// Communication pattern of one iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CommPattern {
    /// No communication (embarrassingly parallel).
    None,
    /// Ring halo exchange: one message to each of the two neighbours.
    Neighbor {
        /// Bytes per neighbour message.
        msg_bytes: u64,
    },
    /// Dense all-to-all (FT transpose, IS key exchange, sort shuffle).
    /// The *total* exchanged volume is fixed (a transpose of a fixed-size
    /// dataset); per-pair bytes are `total_bytes / size²`, so growing the
    /// communicator shrinks the messages rather than inflating the job.
    AllToAll {
        /// Total bytes exchanged per iteration across all pairs.
        total_bytes: u64,
    },
    /// Vector allreduce (CG dot products, pagerank residuals).
    AllReduce {
        /// f64 elements in the vector.
        elems: usize,
    },
    /// Irregular point-to-point: each rank sends to `fanout`
    /// pseudo-random peers (deterministic in (iteration, sender), so every
    /// rank can compute exactly which messages to expect).
    Irregular {
        /// Destinations per rank per iteration.
        fanout: usize,
        /// Bytes per message.
        msg_bytes: u64,
    },
}

/// A benchmark signature. Work totals are for the whole job and strong-scale
/// across ranks (per-rank work = total / size).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Benchmark name as used in the paper's figures.
    pub name: &'static str,
    /// Suite the benchmark comes from ("NPB", "CORAL", "BigDataBench").
    pub suite: &'static str,
    /// Outer iterations.
    pub iterations: u32,
    /// Total memory traffic per iteration across all ranks (bytes).
    pub mem_bytes_per_iter: u64,
    /// Fraction of memory accesses that are reads.
    pub read_frac: f64,
    /// Sequential (stencil/scan) or random (SpMV/pointer) access.
    pub random_access: bool,
    /// Total pure-compute nanoseconds per iteration across all ranks.
    pub compute_ns_per_iter: u64,
    /// Communication per iteration.
    pub comm: CommPattern,
}

impl WorkloadSpec {
    /// The NPB kernels evaluated in Fig. 11 (signatures follow the
    /// published NPB characterisations; magnitudes are scaled to
    /// simulation-friendly class-S-like sizes).
    pub fn npb() -> Vec<WorkloadSpec> {
        vec![
            // ep: random-number generation; compute-bound, almost no memory
            // or communication. The paper: "performance of ep is not
            // sensitive to the memory bandwidth and only scales with the
            // number of MPI processes."
            WorkloadSpec {
                name: "ep",
                suite: "NPB",
                iterations: 4,
                mem_bytes_per_iter: 1 << 20,
                read_frac: 0.9,
                random_access: false,
                compute_ns_per_iter: 4_000_000,
                comm: CommPattern::AllReduce { elems: 16 },
            },
            // cg: sparse matrix-vector products; memory-bound with random
            // access and many irregular point-to-point messages.
            WorkloadSpec {
                name: "cg",
                suite: "NPB",
                iterations: 3,
                mem_bytes_per_iter: 48 << 20,
                read_frac: 0.85,
                random_access: true,
                compute_ns_per_iter: 300_000,
                comm: CommPattern::Irregular {
                    fanout: 3,
                    msg_bytes: 24 * 1024,
                },
            },
            // mg: multigrid stencil; streaming memory-bound, neighbour halo
            // exchanges.
            WorkloadSpec {
                name: "mg",
                suite: "NPB",
                iterations: 3,
                mem_bytes_per_iter: 64 << 20,
                read_frac: 0.7,
                random_access: false,
                compute_ns_per_iter: 200_000,
                comm: CommPattern::Neighbor {
                    msg_bytes: 64 * 1024,
                },
            },
            // ft: 3-D FFT; streaming memory-bound with a full transpose
            // (all-to-all) every iteration.
            WorkloadSpec {
                name: "ft",
                suite: "NPB",
                iterations: 2,
                mem_bytes_per_iter: 64 << 20,
                read_frac: 0.6,
                random_access: false,
                compute_ns_per_iter: 400_000,
                comm: CommPattern::AllToAll {
                    total_bytes: 6 << 20,
                },
            },
            // is: integer bucket sort; random access and a key all-to-all.
            WorkloadSpec {
                name: "is",
                suite: "NPB",
                iterations: 3,
                mem_bytes_per_iter: 32 << 20,
                read_frac: 0.55,
                random_access: true,
                compute_ns_per_iter: 100_000,
                comm: CommPattern::AllToAll {
                    total_bytes: 3 << 20,
                },
            },
            // lu: pipelined wavefront; streaming with many small neighbour
            // messages (communication-latency sensitive).
            WorkloadSpec {
                name: "lu",
                suite: "NPB",
                iterations: 6,
                mem_bytes_per_iter: 24 << 20,
                read_frac: 0.75,
                random_access: false,
                compute_ns_per_iter: 150_000,
                comm: CommPattern::Neighbor {
                    msg_bytes: 4 * 1024,
                },
            },
        ]
    }

    /// CORAL-class signatures (Fig. 9/10 mix).
    pub fn coral() -> Vec<WorkloadSpec> {
        vec![
            // lulesh-like hydrodynamics: streaming stencil + halo exchange.
            WorkloadSpec {
                name: "lulesh",
                suite: "CORAL",
                iterations: 3,
                mem_bytes_per_iter: 56 << 20,
                read_frac: 0.65,
                random_access: false,
                compute_ns_per_iter: 500_000,
                comm: CommPattern::Neighbor {
                    msg_bytes: 96 * 1024,
                },
            },
            // amg-like algebraic multigrid: random access + irregular comm.
            WorkloadSpec {
                name: "amg",
                suite: "CORAL",
                iterations: 3,
                mem_bytes_per_iter: 40 << 20,
                read_frac: 0.8,
                random_access: true,
                compute_ns_per_iter: 250_000,
                comm: CommPattern::Irregular {
                    fanout: 4,
                    msg_bytes: 16 * 1024,
                },
            },
        ]
    }

    /// BigDataBench-class signatures (Fig. 9/10 mix).
    pub fn bigdata() -> Vec<WorkloadSpec> {
        vec![
            // sort: shuffle-dominated (the heaviest all-to-all in the mix).
            WorkloadSpec {
                name: "sort",
                suite: "BigDataBench",
                iterations: 2,
                mem_bytes_per_iter: 48 << 20,
                read_frac: 0.5,
                random_access: false,
                compute_ns_per_iter: 150_000,
                comm: CommPattern::AllToAll {
                    total_bytes: 6 << 20,
                },
            },
            // wordcount: scan-heavy map + small reduce.
            WorkloadSpec {
                name: "wordcount",
                suite: "BigDataBench",
                iterations: 3,
                mem_bytes_per_iter: 64 << 20,
                read_frac: 0.95,
                random_access: false,
                compute_ns_per_iter: 600_000,
                comm: CommPattern::AllReduce { elems: 4096 },
            },
            // pagerank: random gather + residual allreduce.
            WorkloadSpec {
                name: "pagerank",
                suite: "BigDataBench",
                iterations: 3,
                mem_bytes_per_iter: 40 << 20,
                read_frac: 0.9,
                random_access: true,
                compute_ns_per_iter: 200_000,
                comm: CommPattern::AllReduce { elems: 8192 },
            },
        ]
    }

    /// The full mix used for Figs. 9 and 10.
    pub fn all() -> Vec<WorkloadSpec> {
        let mut v = Self::npb();
        v.extend(Self::coral());
        v.extend(Self::bigdata());
        v
    }

    /// Looks a benchmark up by name.
    pub fn by_name(name: &str) -> Option<WorkloadSpec> {
        Self::all().into_iter().find(|s| s.name == name)
    }
}

/// Shared result cell for one workload run.
#[derive(Debug)]
pub struct WorkloadReport {
    /// Per-rank completion time (simulated).
    pub finished: Vec<Option<SimTime>>,
    /// Numerical verification passed on every rank that checked.
    pub verified: bool,
    /// Per-rank abort cause: a rank that detects a dead peer records the
    /// error here and exits instead of spinning in the collective forever.
    pub failures: Vec<Option<MpiError>>,
}

impl WorkloadReport {
    /// A fresh cell for `size` ranks.
    pub fn shared(size: usize) -> Arc<Mutex<WorkloadReport>> {
        Arc::new(Mutex::new(WorkloadReport {
            finished: vec![None; size],
            verified: true,
            failures: vec![None; size],
        }))
    }

    /// The job's completion time (slowest rank), if all ranks finished.
    pub fn completion(&self) -> Option<SimTime> {
        self.finished
            .iter()
            .copied()
            .collect::<Option<Vec<_>>>()?
            .into_iter()
            .max()
    }

    /// The first recorded abort cause, if any rank gave up.
    pub fn first_failure(&self) -> Option<MpiError> {
        self.failures.iter().flatten().next().copied()
    }
}

impl Instrumented for WorkloadReport {
    /// Job-level outcome counters: rank totals, completions, failures,
    /// verification, and the slowest-rank completion time (`0` until every
    /// rank has finished).
    fn metrics(&self, out: &mut MetricSink) {
        out.counter("ranks", self.finished.len() as u64);
        out.counter(
            "ranks_finished",
            self.finished.iter().filter(|f| f.is_some()).count() as u64,
        );
        out.counter(
            "ranks_failed",
            self.failures.iter().filter(|f| f.is_some()).count() as u64,
        );
        out.counter("verified", self.verified as u64);
        out.counter("completion_ps", self.completion().map_or(0, |t| t.as_ps()));
    }
}

#[derive(Debug)]
enum CommEngine {
    None,
    Allreduce(Allreduce),
    Alltoall(Alltoall),
    Neighbor { need: Vec<usize> },
    Irregular { remaining: usize },
}

#[derive(Debug)]
enum State {
    /// First poll: bring up the MPI listener before anyone dials us.
    Init,
    Compute,
    WaitMem(#[allow(dead_code)] JobId),
    Comm(CommEngine),
    /// Collective finished; drain queued sends before the next compute
    /// phase (a rank that vanishes into a long memory phase with tokens
    /// still queued on a connecting socket would stall its peers).
    Drain,
    FinalBarrier(Barrier),
    /// Barrier passed; drain outgoing queues before exiting.
    Flush,
    Done,
}

/// One MPI rank executing a [`WorkloadSpec`]; runs unchanged on an MCN
/// server or an Ethernet cluster (application transparency).
pub struct RankProgram {
    mpi: MpiRank,
    spec: WorkloadSpec,
    mem_base: u64,
    state: State,
    iter: u32,
    gen: u32,
    report: Arc<Mutex<WorkloadReport>>,
    seed: u64,
}

impl RankProgram {
    /// Creates the program for one rank.
    ///
    /// `mem_base` is the base address of this rank's working set on its
    /// node (ranks sharing a node must get disjoint regions); `seed` must
    /// be identical across ranks (it derives the irregular pattern).
    pub fn new(
        mpi: MpiRank,
        spec: WorkloadSpec,
        mem_base: u64,
        seed: u64,
        report: Arc<Mutex<WorkloadReport>>,
    ) -> Self {
        RankProgram {
            mpi,
            spec,
            mem_base,
            state: State::Init,
            iter: 0,
            gen: 0,
            report,
            seed,
        }
    }

    fn next_gen(&mut self) -> u32 {
        self.gen += 1;
        self.gen
    }

    /// Deterministic irregular-communication targets of `sender` in
    /// iteration `iter`: every rank computes the same answer, so receivers
    /// know exactly how many messages to expect.
    fn irregular_targets(
        seed: u64,
        iter: u32,
        sender: usize,
        size: usize,
        fanout: usize,
    ) -> Vec<usize> {
        let mut rng = DetRng::new(seed ^ ((iter as u64) << 32) ^ sender as u64);
        (0..fanout)
            .map(|_| {
                let mut t = rng.next_below(size as u64) as usize;
                if t == sender {
                    t = (t + 1) % size;
                }
                t
            })
            .collect()
    }

    fn start_comm(&mut self, ctx: &mut ProcCtx<'_>) -> CommEngine {
        let size = self.mpi.size();
        let rank = self.mpi.rank();
        match self.spec.comm {
            CommPattern::None => CommEngine::None,
            CommPattern::AllReduce { elems } => {
                // Rank-dependent contribution; globally verifiable sum.
                let v = vec![(rank + 1) as f64; elems];
                CommEngine::Allreduce(Allreduce::new(self.next_gen(), v))
            }
            CommPattern::AllToAll { total_bytes } => {
                let per_pair = (total_bytes / (size * size) as u64).max(256) as usize;
                let payload: Vec<Vec<u8>> = (0..size)
                    .map(|dst| vec![(rank ^ dst) as u8; per_pair])
                    .collect();
                CommEngine::Alltoall(Alltoall::new(self.next_gen(), payload))
            }
            CommPattern::Neighbor { msg_bytes } => {
                let gen = self.next_gen();
                let tag = 100 + gen;
                let left = (rank + size - 1) % size;
                let right = (rank + 1) % size;
                let payload = vec![rank as u8; msg_bytes as usize];
                self.mpi.isend(ctx, left, tag, &payload);
                self.mpi.isend(ctx, right, tag, &payload);
                let mut need = vec![left, right];
                need.dedup();
                if size == 1 {
                    need.clear();
                }
                CommEngine::Neighbor { need }
            }
            CommPattern::Irregular { fanout, msg_bytes } => {
                let gen = self.next_gen();
                let tag = 200 + gen;
                if size == 1 {
                    return CommEngine::Irregular { remaining: 0 };
                }
                for dst in Self::irregular_targets(self.seed, self.iter, rank, size, fanout) {
                    let payload = vec![rank as u8; msg_bytes as usize];
                    self.mpi.isend(ctx, dst, tag, &payload);
                }
                let mut expected = 0;
                for s in 0..size {
                    if s == rank {
                        continue;
                    }
                    expected += Self::irregular_targets(self.seed, self.iter, s, size, fanout)
                        .into_iter()
                        .filter(|&t| t == rank)
                        .count();
                }
                CommEngine::Irregular {
                    remaining: expected,
                }
            }
        }
    }

    /// Checks the communicator for a dead peer; on failure records the
    /// cause in the report and returns `true` so the caller aborts the
    /// rank. A collective blocked on a failed rank would otherwise wait
    /// forever: its wait set shrinks to sockets that will never fire.
    fn abort_on_failure(&mut self) -> bool {
        let Some(err) = self.mpi.first_failure() else {
            return false;
        };
        let rank = self.mpi.rank();
        let mut r = self.report.lock();
        r.failures[rank] = Some(err);
        r.verified = false;
        true
    }

    fn comm_done(&mut self, engine: &mut CommEngine, ctx: &mut ProcCtx<'_>) -> bool {
        match engine {
            CommEngine::None => true,
            CommEngine::Allreduce(a) => {
                if !a.poll(&mut self.mpi, ctx) {
                    return false;
                }
                // Verify: every element must equal sum(1..=size).
                let size = self.mpi.size();
                let expect = (size * (size + 1) / 2) as f64;
                if a.data.iter().any(|&x| (x - expect).abs() > 1e-9) {
                    self.report.lock().verified = false;
                }
                true
            }
            CommEngine::Alltoall(a) => {
                if !a.poll(&mut self.mpi, ctx) {
                    return false;
                }
                // Verify payload patterns.
                let rank = self.mpi.rank();
                for (src, payload) in a.recv.iter().enumerate() {
                    let Some(p) = payload else {
                        self.report.lock().verified = false;
                        continue;
                    };
                    if p.iter().any(|&b| b != (src ^ rank) as u8) {
                        self.report.lock().verified = false;
                    }
                }
                true
            }
            CommEngine::Neighbor { need } => {
                self.mpi.progress(ctx);
                let tag = 100 + self.gen;
                need.retain(|&src| self.mpi.try_recv(Some(src), tag).is_none());
                need.is_empty()
            }
            CommEngine::Irregular { remaining } => {
                self.mpi.progress(ctx);
                let tag = 200 + self.gen;
                while *remaining > 0 {
                    if self.mpi.try_recv(None, tag).is_none() {
                        break;
                    }
                    *remaining -= 1;
                }
                *remaining == 0
            }
        }
    }
}

impl Process for RankProgram {
    fn poll(&mut self, ctx: &mut ProcCtx<'_>) -> Poll {
        loop {
            match &mut self.state {
                State::Init => {
                    self.mpi.progress(ctx); // creates the listener
                    self.state = State::Compute;
                }
                State::Compute => {
                    if self.iter >= self.spec.iterations {
                        self.state = State::FinalBarrier(Barrier::new(self.next_gen()));
                        continue;
                    }
                    let size = self.mpi.size() as u64;
                    let bytes = (self.spec.mem_bytes_per_iter / size).max(4096);
                    let ns = self.spec.compute_ns_per_iter / size;
                    ctx.compute(SimTime::from_ns(ns));
                    let access = if self.spec.random_access {
                        Access::Rand { span: 64 << 20 }
                    } else {
                        Access::Seq
                    };
                    let job = ctx.mem_stream(self.mem_base, bytes, self.spec.read_frac, access);
                    self.state = State::WaitMem(job);
                    return Poll::Wait(vec![Wake::Job(job)]);
                }
                State::WaitMem(_) => {
                    // Job finished (we only get polled on its wake, or
                    // spuriously — mem jobs have no query API, so rely on
                    // the wake being precise: Wake::Job fires only on
                    // completion).
                    let engine = self.start_comm(ctx);
                    self.state = State::Comm(engine);
                }
                State::Comm(engine) => {
                    let mut engine = std::mem::replace(engine, CommEngine::None);
                    if self.comm_done(&mut engine, ctx) {
                        self.state = State::Drain;
                        continue;
                    }
                    if self.abort_on_failure() {
                        self.state = State::Done;
                        return Poll::Done;
                    }
                    self.state = State::Comm(engine);
                    return Poll::Wait(self.mpi.wakes());
                }
                State::Drain => {
                    self.mpi.progress(ctx);
                    if self.mpi.flushed() {
                        self.iter += 1;
                        self.state = State::Compute;
                        continue;
                    }
                    if self.abort_on_failure() {
                        self.state = State::Done;
                        return Poll::Done;
                    }
                    return Poll::Wait(self.mpi.wakes());
                }
                State::FinalBarrier(b) => {
                    let mut b = std::mem::replace(b, Barrier::new(0));
                    if b.poll(&mut self.mpi, ctx) {
                        let rank = self.mpi.rank();
                        self.report.lock().finished[rank] = Some(ctx.now);
                        self.state = State::Flush;
                        continue;
                    }
                    if self.abort_on_failure() {
                        self.state = State::Done;
                        return Poll::Done;
                    }
                    self.state = State::FinalBarrier(b);
                    return Poll::Wait(self.mpi.wakes());
                }
                State::Flush => {
                    self.mpi.progress(ctx);
                    if self.mpi.flushed() {
                        self.state = State::Done;
                        return Poll::Done;
                    }
                    if self.abort_on_failure() {
                        self.state = State::Done;
                        return Poll::Done;
                    }
                    return Poll::Wait(self.mpi.wakes());
                }
                State::Done => return Poll::Done,
            }
        }
    }

    fn name(&self) -> &str {
        self.spec.name
    }
}
