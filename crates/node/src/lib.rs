//! # mcn-node — simulated compute nodes
//!
//! Substrate crate for the MCN reproduction: everything a simulated machine
//! needs besides the network stack (`mcn-net`) and the DRAM model
//! (`mcn-dram`), which it composes:
//!
//! * [`CostModel`] — the documented CPU-time constants for protocol
//!   processing, checksums, syscalls, interrupts and driver work, scaled by
//!   core frequency. These are the calibration surface of the whole
//!   reproduction: every latency/bandwidth figure depends on them, so they
//!   live in one place with justifications.
//! * [`CpuPool`] — per-core busy timelines with utilization accounting;
//!   work is scheduled non-preemptively at task granularity.
//! * [`MemorySystem`] — a node's memory channels plus a *job* layer:
//!   streaming access phases (compute kernels), copy jobs (driver
//!   `memcpy`, DMA transfers) and random-access phases, each issuing real
//!   line transactions with bounded memory-level parallelism, so achieved
//!   bandwidth emerges from the DRAM model.
//! * [`Process`]/[`ProcRunner`] — cooperative application state machines
//!   (iperf, ping, MPI ranks) with blocking-style waits on sockets, timers,
//!   compute and memory phases.
//! * [`Nic`] — the 10GbE baseline NIC: TX/RX descriptor rings in DRAM, DMA
//!   engines that issue real memory traffic, MSI interrupts with NAPI-style
//!   polling, connected to `mcn-net`'s link models. Table III's DMA-TX /
//!   DMA-RX / Driver-TX / Driver-RX breakdown is measured here.
//!
//! The MCN DIMM device and its drivers — the paper's contribution — are
//! *not* here; they live in the `mcn` crate and are built from the same
//! parts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod cpu;
pub mod mem;
pub mod nic;
pub mod node;
pub mod proc;

pub use cost::CostModel;
pub use cpu::CpuPool;
pub use mem::{Access, JobId, MemorySystem, Transfer, WaiterId};
pub use nic::Nic;
pub use node::Node;
pub use proc::{Poll, ProcCtx, ProcId, ProcRunner, Process, Wake};
