//! A node's memory system: channels plus a transfer-job layer.
//!
//! Drivers, DMA engines and compute phases do not issue individual line
//! transactions; they start *jobs* — streams, copies, random-access phases —
//! and the job layer feeds line requests into the per-channel controllers
//! with bounded memory-level parallelism. Achieved bandwidth therefore
//! emerges from the DRAM timing model (row hits, bank parallelism, channel
//! contention), which is the mechanism behind the paper's Fig. 9.

use std::collections::BTreeMap;

use mcn_dram::{AddressMap, Channel, DramConfig, Interleave, MemKind, MemRequest, Target};
use mcn_sim::{DetRng, SimTime};

/// Caller-chosen identifier delivered with job completions.
pub type WaiterId = u64;

/// Handle to a running transfer job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobId(pub u64);

/// Address-generation mode for [`Transfer::Stream`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Access {
    /// Consecutive cache lines (stencil/scan kernels; row-buffer friendly).
    Seq,
    /// Uniform random lines within a span of the given size in bytes
    /// (pointer-chasing/SpMV-like kernels; row-buffer hostile).
    Rand {
        /// Size of the region the random accesses fall in.
        span: u64,
    },
}

/// One side of a copy or a single-direction pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pattern {
    /// Address of the first line.
    pub start: u64,
    /// Byte stride between consecutive lines (64 for dense buffers;
    /// `64 × channels` when compensating for host channel interleaving, as
    /// `memcpy_to_mcn` does — Fig. 6 of the paper).
    pub stride: u64,
    /// DRAM or MCN-interface SRAM.
    pub target: Target,
}

impl Pattern {
    /// A dense DRAM buffer at `start`.
    pub fn dram(start: u64) -> Self {
        Pattern {
            start,
            stride: mcn_dram::LINE_BYTES,
            target: Target::Dram,
        }
    }

    /// An SRAM window at `start` with an explicit stride.
    pub fn sram(start: u64, stride: u64) -> Self {
        Pattern {
            start,
            stride,
            target: Target::Sram,
        }
    }
}

/// A memory transfer job description.
#[derive(Debug, Clone, PartialEq)]
pub enum Transfer {
    /// Compute-phase traffic: one access per line, a `read_frac` fraction of
    /// which are reads, over `bytes` of data.
    Stream {
        /// First address of the region.
        start: u64,
        /// Total bytes touched.
        bytes: u64,
        /// Fraction of accesses that are reads (rest are writes).
        read_frac: f64,
        /// Sequential or random.
        access: Access,
    },
    /// Pipelined copy: each line is read from `src` then written to `dst`.
    Copy {
        /// Source pattern.
        src: Pattern,
        /// Destination pattern.
        dst: Pattern,
        /// Bytes to move.
        bytes: u64,
    },
    /// Single-direction pattern access (ring reads, descriptor writes).
    Single {
        /// The pattern.
        pat: Pattern,
        /// Read or write.
        kind: MemKind,
        /// Bytes to touch.
        bytes: u64,
    },
}

impl Transfer {
    fn lines(&self) -> u64 {
        let bytes = match self {
            Transfer::Stream { bytes, .. }
            | Transfer::Copy { bytes, .. }
            | Transfer::Single { bytes, .. } => *bytes,
        };
        bytes.div_ceil(mcn_dram::LINE_BYTES).max(1)
    }
}

#[derive(Debug)]
struct Job {
    spec: Transfer,
    waiter: WaiterId,
    lines: u64,
    issued: u64,
    completed: u64,
    outstanding: u32,
    mlp: u32,
    /// For Copy: reads completed (writes may only be issued up to here).
    reads_done: u64,
    writes_issued: u64,
    rng: DetRng,
}

/// Default per-job memory-level parallelism (out-of-order window / DMA
/// pipelining depth).
pub const DEFAULT_MLP: u32 = 10;

/// A node's memory channels plus the job layer. See the module docs.
#[derive(Debug)]
pub struct MemorySystem {
    map: AddressMap,
    channels: Vec<Channel>,
    /// Running jobs in id order, the order `pump` feeds them and
    /// `advance` reports them in.
    jobs: BTreeMap<u64, Job>,
    next_job: u64,
}

impl MemorySystem {
    /// Creates a memory system with `channels` channels of `cfg` DRAM using
    /// bank-group interleaving.
    pub fn new(cfg: &DramConfig, channels: u32) -> Self {
        Self::with_interleave(cfg, channels, Interleave::BgInterleaved)
    }

    /// Creates a memory system with an explicit interleave scheme (the
    /// naive scheme exists for the address-mapping ablation bench).
    pub fn with_interleave(cfg: &DramConfig, channels: u32, il: Interleave) -> Self {
        let map = AddressMap::new(cfg.clone(), channels, il);
        let channels = (0..channels)
            .map(|i| Channel::with_map(map.clone(), i))
            .collect();
        MemorySystem {
            map,
            channels,
            jobs: BTreeMap::new(),
            next_job: 1,
        }
    }

    /// The address map (shared with drivers that need channel geometry).
    pub fn map(&self) -> &AddressMap {
        &self.map
    }

    /// Per-channel controllers (stats access).
    pub fn channels(&self) -> &[Channel] {
        &self.channels
    }

    /// Total bytes moved across all channels.
    pub fn total_bytes(&self) -> u64 {
        self.channels.iter().map(|c| c.stats().traffic.bytes()).sum()
    }

    /// Starts a transfer job; completion is reported by
    /// [`advance`](Self::advance) as `(waiter, job)`.
    pub fn start(&mut self, spec: Transfer, waiter: WaiterId, now: SimTime) -> JobId {
        self.start_with_mlp(spec, waiter, DEFAULT_MLP, now)
    }

    /// Starts a transfer job with an explicit parallelism window.
    ///
    /// # Panics
    ///
    /// Panics if `mlp` is zero.
    pub fn start_with_mlp(
        &mut self,
        spec: Transfer,
        waiter: WaiterId,
        mlp: u32,
        now: SimTime,
    ) -> JobId {
        assert!(mlp > 0, "mlp must be positive");
        let id = self.next_job;
        self.next_job += 1;
        let job = Job {
            lines: spec.lines(),
            spec,
            waiter,
            issued: 0,
            completed: 0,
            outstanding: 0,
            mlp,
            reads_done: 0,
            writes_issued: 0,
            rng: DetRng::new(id ^ 0x9E37_79B9_7F4A_7C15),
        };
        self.jobs.insert(id, job);
        self.pump(now);
        JobId(id)
    }

    /// True while any job or channel has pending work.
    pub fn busy(&self) -> bool {
        !self.jobs.is_empty() || self.channels.iter().any(|c| c.outstanding() > 0)
    }

    /// Next time this memory system wants to run.
    pub fn next_event(&self) -> Option<SimTime> {
        self.channels.iter().filter_map(|c| c.next_event()).min()
    }

    /// Advances all channels to `now`; returns jobs that finished.
    pub fn advance(&mut self, now: SimTime) -> Vec<(WaiterId, JobId)> {
        for ch in &mut self.channels {
            for done in ch.advance(now) {
                let job_id = done.tag >> 1;
                let is_write = done.tag & 1 == 1;
                if let Some(job) = self.jobs.get_mut(&job_id) {
                    job.outstanding -= 1;
                    match &job.spec {
                        Transfer::Copy { .. } => {
                            if is_write {
                                job.completed += 1;
                            } else {
                                job.reads_done += 1;
                            }
                        }
                        _ => job.completed += 1,
                    }
                }
            }
        }
        self.pump(now);
        // Collect finished jobs after pumping (a job with zero remaining
        // issues and zero outstanding is done), in id order.
        let mut finished = Vec::new();
        self.jobs.retain(|&id, job| {
            let done = job.completed >= job.lines && job.outstanding == 0;
            if done {
                finished.push((job.waiter, JobId(id)));
            }
            !done
        });
        finished
    }

    /// Issues as many line requests as windows and queues allow.
    fn pump(&mut self, now: SimTime) {
        let nch = self.channels.len() as u64;
        for (&id, job) in &mut self.jobs {
            loop {
                if job.outstanding >= job.mlp {
                    break;
                }
                // Decide the next request for this job.
                let req = match &job.spec {
                    Transfer::Stream {
                        start,
                        read_frac,
                        access,
                        ..
                    } => {
                        if job.issued >= job.lines {
                            break;
                        }
                        let line = match access {
                            Access::Seq => job.issued,
                            Access::Rand { span } => {
                                job.rng.next_below((span / mcn_dram::LINE_BYTES).max(1))
                            }
                        };
                        let addr = start + line * mcn_dram::LINE_BYTES;
                        let kind = if job.rng.next_f64() < *read_frac {
                            MemKind::Read
                        } else {
                            MemKind::Write
                        };
                        MemRequest {
                            addr,
                            kind,
                            target: Target::Dram,
                            tag: id << 1,
                        }
                    }
                    Transfer::Single { pat, kind, .. } => {
                        if job.issued >= job.lines {
                            break;
                        }
                        MemRequest {
                            addr: pat.start + job.issued * pat.stride,
                            kind: *kind,
                            target: pat.target,
                            tag: (id << 1) | u64::from(*kind == MemKind::Write),
                        }
                    }
                    Transfer::Copy { src, dst, .. } => {
                        // Prefer issuing writes for completed reads, then
                        // more reads.
                        if job.writes_issued < job.reads_done {
                            let i = job.writes_issued;
                            MemRequest {
                                addr: dst.start + i * dst.stride,
                                kind: MemKind::Write,
                                target: dst.target,
                                tag: (id << 1) | 1,
                            }
                        } else if job.issued < job.lines {
                            let i = job.issued;
                            MemRequest {
                                addr: src.start + i * src.stride,
                                kind: MemKind::Read,
                                target: src.target,
                                tag: id << 1,
                            }
                        } else {
                            break;
                        }
                    }
                };
                let ch = (self.map.channel_of(req.addr) as u64 % nch) as usize;
                if !self.channels[ch].can_accept(req.kind) {
                    break; // channel full: retry on its next completion
                }
                self.channels[ch].push(req, now);
                job.outstanding += 1;
                match (&job.spec, req.kind) {
                    (Transfer::Copy { .. }, MemKind::Write) => job.writes_issued += 1,
                    (Transfer::Copy { .. }, MemKind::Read) => job.issued += 1,
                    _ => job.issued += 1,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(ms: &mut MemorySystem) -> Vec<(WaiterId, JobId)> {
        let mut done = Vec::new();
        let mut guard = 0;
        while ms.busy() {
            let Some(t) = ms.next_event() else { break };
            done.extend(ms.advance(t));
            guard += 1;
            assert!(guard < 2_000_000, "runaway memory drive loop");
        }
        done
    }

    fn sys(channels: u32) -> MemorySystem {
        MemorySystem::new(&DramConfig::ddr4_3200(), channels)
    }

    #[test]
    fn stream_job_completes_and_reports_waiter() {
        let mut ms = sys(2);
        let id = ms.start(
            Transfer::Stream {
                start: 0,
                bytes: 64 * 1024,
                read_frac: 1.0,
                access: Access::Seq,
            },
            77,
            SimTime::ZERO,
        );
        let done = drive(&mut ms);
        assert_eq!(done, vec![(77, id)]);
        assert_eq!(ms.total_bytes(), 64 * 1024);
    }

    #[test]
    fn copy_job_moves_double_traffic() {
        let mut ms = sys(1);
        ms.start(
            Transfer::Copy {
                src: Pattern::dram(0),
                dst: Pattern::dram(1 << 20),
                bytes: 16 * 1024,
            },
            1,
            SimTime::ZERO,
        );
        drive(&mut ms);
        // Copy reads + writes every line: 2x the payload.
        assert_eq!(ms.total_bytes(), 2 * 16 * 1024);
        let st = &ms.channels()[0].stats();
        assert_eq!(st.reads.get(), 256);
        assert_eq!(st.writes.get(), 256);
    }

    #[test]
    fn two_channels_faster_than_one_for_streams() {
        let finish = |channels: u32| -> SimTime {
            let mut ms = sys(channels);
            for w in 0..8u64 {
                ms.start_with_mlp(
                    Transfer::Stream {
                        start: w * (1 << 22),
                        bytes: 1 << 20,
                        read_frac: 1.0,
                        access: Access::Seq,
                    },
                    w,
                    16,
                    SimTime::ZERO,
                );
            }
            let mut last = SimTime::ZERO;
            while ms.busy() {
                let Some(t) = ms.next_event() else { break };
                if !ms.advance(t).is_empty() {
                    last = t;
                }
            }
            last
        };
        let one = finish(1);
        let two = finish(2);
        assert!(
            two.as_ps() * 3 < one.as_ps() * 2,
            "2 channels should be much faster: 1ch {one}, 2ch {two}"
        );
    }

    #[test]
    fn random_stream_slower_than_sequential() {
        let run = |access: Access| -> SimTime {
            let mut ms = sys(1);
            ms.start(
                Transfer::Stream {
                    start: 0,
                    bytes: 1 << 20,
                    read_frac: 1.0,
                    access,
                },
                0,
                SimTime::ZERO,
            );
            let mut last = SimTime::ZERO;
            while ms.busy() {
                let Some(t) = ms.next_event() else { break };
                ms.advance(t);
                last = t;
            }
            last
        };
        let seq = run(Access::Seq);
        let rnd = run(Access::Rand { span: 1 << 30 });
        assert!(
            rnd > seq * 2,
            "random access should be >2x slower: seq {seq}, rand {rnd}"
        );
    }

    #[test]
    fn sram_copy_lands_on_interleave_matched_channel() {
        // 2 channels; an SRAM window on channel 1 must be addressed with a
        // stride of 2*64 starting at an odd line.
        let mut ms = sys(2);
        ms.start(
            Transfer::Copy {
                src: Pattern::dram(0),
                dst: Pattern::sram(64, 128), // line 1, stride 2 lines
                bytes: 8 * 1024,
            },
            5,
            SimTime::ZERO,
        );
        drive(&mut ms);
        // All SRAM writes on channel 1, none on channel 0.
        assert_eq!(ms.channels()[1].stats().sram_ops.get(), 128);
        assert_eq!(ms.channels()[0].stats().sram_ops.get(), 0);
    }

    #[test]
    fn many_concurrent_jobs_all_finish() {
        let mut ms = sys(2);
        for w in 0..20u64 {
            ms.start(
                Transfer::Single {
                    pat: Pattern::dram(w * (1 << 16)),
                    kind: if w % 2 == 0 {
                        MemKind::Read
                    } else {
                        MemKind::Write
                    },
                    bytes: 4096,
                },
                w,
                SimTime::ZERO,
            );
        }
        let done = drive(&mut ms);
        assert_eq!(done.len(), 20);
        let mut waiters: Vec<u64> = done.iter().map(|(w, _)| *w).collect();
        waiters.sort_unstable();
        assert_eq!(waiters, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn zero_byte_job_still_completes() {
        let mut ms = sys(1);
        ms.start(
            Transfer::Single {
                pat: Pattern::dram(0),
                kind: MemKind::Read,
                bytes: 1, // rounds up to one line
            },
            9,
            SimTime::ZERO,
        );
        let done = drive(&mut ms);
        assert_eq!(done.len(), 1);
    }
}
