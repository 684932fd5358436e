//! # mcn-sim — discrete-event simulation kernel
//!
//! Substrate crate for the Memory Channel Network (MCN) reproduction. It
//! provides the pieces every other crate in the workspace builds on:
//!
//! * [`SimTime`] — simulated time as integer picoseconds (fine enough for
//!   DDR4-3200 command timing, wide enough for hours of simulated time),
//! * [`EventQueue`] — a time-ordered event queue with stable FIFO ordering
//!   for simultaneous events and O(log n) scheduling,
//! * [`DetRng`] — a small, fast, fully deterministic random number
//!   generator (xoshiro256++) that can be forked into independent streams,
//! * [`stats`] — counters, rate meters and log-linear histograms used to
//!   collect every number reported in the paper's figures.
//!
//! The kernel is deliberately *passive*: it owns no component registry and
//! forces no actor model. System crates (`mcn`, `mcn-node`) define their own
//! event enums and drive the queue in a plain `while let Some(..) = q.pop()`
//! loop, which keeps components unit-testable as ordinary structs.
//!
//! ```
//! use mcn_sim::{EventQueue, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping, Pong }
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::from_ns(10), Ev::Pong);
//! q.schedule(SimTime::from_ns(5), Ev::Ping);
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!((t, ev), (SimTime::from_ns(5), Ev::Ping));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod queue;
mod rng;
mod time;

pub mod diag;
pub mod engine;
pub mod fault;
pub mod metrics;
pub mod shard;
pub mod stats;

pub use diag::StallReport;
pub use engine::{Activity, Backoff, Component, ComponentExt, Engine, EngineStats, WakeupIndex};
pub use fault::{FaultInjector, FaultKind, FaultPlan};
pub use metrics::{Instrumented, MetricSink, MetricValue, MetricsSnapshot};
pub use queue::EventQueue;
pub use rng::{fnv1a64, DetRng};
pub use shard::{Fabric, Outbox, ParallelEngine, Quantum, RunGoal, RunReport, Shard, ShardStats};
pub use time::SimTime;
