//! Collective-algorithm correctness at awkward communicator sizes
//! (non-powers-of-two exercise the binomial/dissemination edge cases),
//! run over loopback on a 0-DIMM system.

use std::sync::Arc;

use mcn::{ComponentExt, McnConfig, McnSystem, SystemConfig};
use mcn_mpi::{Allreduce, Alltoall, Barrier, Bcast, MpiRank};
use mcn_node::{Poll, ProcCtx, Process};
use mcn_sim::SimTime;
use parking_lot::Mutex;

/// Runs one collective per rank and records the outcome.
enum Op {
    Barrier,
    Bcast(usize),
    Allreduce(usize),
    Alltoall(usize),
}

struct Runner {
    mpi: MpiRank,
    op: Op,
    engine: Option<Engine>,
    results: Arc<Mutex<Vec<Option<bool>>>>,
}

enum Engine {
    B(Barrier),
    C(Bcast),
    R(Allreduce),
    A(Alltoall),
}

impl Process for Runner {
    fn poll(&mut self, ctx: &mut ProcCtx<'_>) -> Poll {
        self.mpi.progress(ctx);
        let rank = self.mpi.rank();
        let size = self.mpi.size();
        let engine = self.engine.get_or_insert_with(|| match self.op {
            Op::Barrier => Engine::B(Barrier::new(1)),
            Op::Bcast(root) => Engine::C(Bcast::new(1, root, {
                if rank == root {
                    (0..1000u32).flat_map(|i| i.to_le_bytes()).collect()
                } else {
                    Vec::new()
                }
            })),
            Op::Allreduce(elems) => Engine::R(Allreduce::new(1, vec![(rank + 1) as f64; elems])),
            Op::Alltoall(bytes) => Engine::A(Alltoall::new(
                1,
                (0..size)
                    .map(|d| vec![(rank * 31 + d) as u8; bytes])
                    .collect(),
            )),
        });
        let ok = match engine {
            Engine::B(b) => b.poll(&mut self.mpi, ctx).then_some(true),
            Engine::C(c) => c.poll(&mut self.mpi, ctx).then(|| {
                c.data
                    == (0..1000u32)
                        .flat_map(|i| i.to_le_bytes())
                        .collect::<Vec<u8>>()
            }),
            Engine::R(r) => r.poll(&mut self.mpi, ctx).then(|| {
                let expect = (size * (size + 1) / 2) as f64;
                r.data.iter().all(|&x| (x - expect).abs() < 1e-9)
            }),
            Engine::A(a) => a.poll(&mut self.mpi, ctx).then(|| {
                a.recv.iter().enumerate().all(|(src, p)| {
                    p.as_ref()
                        .is_some_and(|p| p.iter().all(|&b| b == (src * 31 + rank) as u8))
                })
            }),
        };
        match ok {
            None => Poll::Wait(self.mpi.wakes()),
            Some(verdict) => {
                self.results.lock()[rank] = Some(verdict);
                if self.mpi.flushed() {
                    Poll::Done
                } else {
                    Poll::Wait(self.mpi.wakes())
                }
            }
        }
    }
}

fn run(size: usize, mk_op: impl Fn() -> Op) -> Vec<Option<bool>> {
    let mut sys = McnSystem::new(&SystemConfig::default(), 0, McnConfig::level(0));
    let peers = vec![sys.host_rank_ip(); size];
    let results = Arc::new(Mutex::new(vec![None; size]));
    for r in 0..size {
        let proc = Runner {
            mpi: MpiRank::new(r, size, peers.clone(), 41_000),
            op: mk_op(),
            engine: None,
            results: results.clone(),
        };
        sys.spawn_host(Box::new(proc), r % 8);
    }
    assert!(
        sys.run_until_procs_done(SimTime::from_secs(10)),
        "collective stalled at {}",
        sys.now()
    );
    let r = results.lock().clone();
    r
}

#[test]
fn barrier_completes_at_odd_sizes() {
    for size in [1usize, 2, 3, 5, 7, 9] {
        let res = run(size, || Op::Barrier);
        assert!(res.iter().all(|r| *r == Some(true)), "size {size}: {res:?}");
    }
}

#[test]
fn bcast_delivers_payload_from_any_root() {
    for size in [2usize, 3, 6] {
        for root in [0usize, size - 1] {
            let res = run(size, || Op::Bcast(root));
            assert!(
                res.iter().all(|r| *r == Some(true)),
                "size {size} root {root}: {res:?}"
            );
        }
    }
}

#[test]
fn allreduce_sums_exactly_at_odd_sizes() {
    for size in [2usize, 3, 5, 8] {
        let res = run(size, || Op::Allreduce(200));
        assert!(res.iter().all(|r| *r == Some(true)), "size {size}: {res:?}");
    }
}

#[test]
fn alltoall_exchanges_every_pair() {
    for size in [2usize, 3, 5] {
        let res = run(size, || Op::Alltoall(700));
        assert!(res.iter().all(|r| *r == Some(true)), "size {size}: {res:?}");
    }
}
