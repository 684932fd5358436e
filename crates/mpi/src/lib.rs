//! # mcn-mpi — distributed-computing substrate and workloads
//!
//! The paper's whole point is that MCN runs *unmodified* distributed
//! applications built on frameworks like MPI. This crate provides:
//!
//! * [`mpi`] — an MPI-like runtime over the workspace's TCP sockets:
//!   point-to-point messages with (source, tag) matching over a lazily
//!   established full mesh of connections, plus the collectives the
//!   workloads need (barrier, broadcast, reduce, allreduce, all-to-all),
//!   all written as poll-driven engines so they run inside simulated
//!   processes. Collectives move *real bytes* and the numeric results are
//!   verified in tests (an allreduce that loses a packet fails loudly).
//! * [`apps`] — the paper's network microbenchmarks: an iperf-style
//!   bandwidth server/client pair (Fig. 8a) and a ping RTT prober
//!   (Fig. 8b/c).
//! * [`workloads`] — parameterised rank programs reproducing the
//!   computation/communication/memory signatures of the paper's benchmark
//!   suites (NPB: ep, cg, mg, ft, is, lu; CORAL-class: lulesh, amg;
//!   BigDataBench-class: sort, wordcount, pagerank) for Figs. 9–11.
//!
//! The same rank programs run on an [`mcn::McnSystem`] (host + DIMMs) and
//! an [`mcn::EthernetCluster`] — application transparency is literally a
//! type signature here: a rank program never learns which one it is on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod mapreduce;
pub mod mpi;
pub mod placement;
pub mod workloads;

pub use apps::{IperfClient, IperfReport, IperfServer, PingReport, Pinger};
pub use mapreduce::{MapReduceReport, MapReduceWorker};
pub use mpi::{Allreduce, Alltoall, Barrier, Bcast, MpiError, MpiRank};
pub use workloads::{CommPattern, RankProgram, WorkloadReport, WorkloadSpec};
