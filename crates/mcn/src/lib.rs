//! # mcn — Memory Channel Network
//!
//! The core crate of this reproduction: the paper's contribution
//! (MICRO 2018, *Application-Transparent Near-Memory Processing
//! Architecture with Memory Channel Network*, Alian et al.), built on the
//! workspace substrates (`mcn-sim`, `mcn-dram`, `mcn-net`, `mcn-node`).
//!
//! ## What MCN is
//!
//! An **MCN DIMM** is a buffered DIMM whose buffer device contains a small
//! mobile-class processor (the *MCN processor*) with its own local memory
//! channels, plus an SRAM communication buffer exposed to both the host and
//! the MCN processor. Symmetric **MCN drivers** on the host and on each
//! DIMM present the memory channel as a virtual Ethernet link, so
//! unmodified distributed applications (MPI, Spark, iperf, ping) run across
//! host + DIMMs. This crate implements:
//!
//! * [`SramBuffer`] — the interface SRAM of Fig. 4, with `tx-start` /
//!   `tx-end` / `tx-poll` / `rx-*` control words and the two circular
//!   message rings stored in *real bytes*,
//! * [`McnDimm`] — an MCN node: 4 cores, local DDR4 channels, its own
//!   network stack and the MCN-side driver (interrupt-driven),
//! * [`HostDriver`] — the host-side driver: one virtual interface per
//!   DIMM, the polling agent (HR-timer `mcn0` or ALERT_N interrupt
//!   `mcn1`+), the packet forwarding engine F1–F4, and the memory-mapping
//!   unit whose `memcpy_to_mcn`/`memcpy_from_mcn` compensate for host
//!   channel interleaving (Fig. 6),
//! * [`McnConfig`] — the optimisation levels of Table I (`mcn0`..`mcn5`),
//! * [`SystemConfig`] — the simulated machine of Table II,
//! * [`McnSystem`] — a full MCN-enabled server (host + N DIMMs) with its
//!   deterministic event loop,
//! * [`EthernetCluster`] — the 10GbE scale-out baseline (N conventional
//!   nodes, NICs, links, a switch) every figure compares against,
//! * [`outage`] — hard outages: an [`OutagePlan`](outage::OutagePlan)
//!   takes [`Part`](outage::Part)s (DIMMs, uplinks, servers, switches,
//!   racks) down on a seeded schedule, and every topology installs it
//!   with `set_outage_plan`.
//!
//! ## Quick start
//!
//! ```
//! use mcn::{McnConfig, McnSystem, SystemConfig};
//!
//! // A server with 2 MCN DIMMs at optimisation level mcn3 (9 KB MTU).
//! let sys = McnSystem::new(&SystemConfig::default(), 2, McnConfig::level(3));
//! assert_eq!(sys.dimms(), 2);
//! // Addresses: host-side interface i is 10.(i+1).0.1, its DIMM 10.(i+1).0.2.
//! assert_eq!(sys.dimm_ip(0), std::net::Ipv4Addr::new(10, 1, 0, 2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
pub mod cluster;
pub mod config;
pub mod dimm;
pub mod driver;
pub mod error;
mod fabric;
pub mod outage;
mod rack;
pub mod sram;
pub mod system;

pub use cluster::EthernetCluster;
pub use config::{McnConfig, SystemConfig};
pub use dimm::McnDimm;
pub use driver::HostDriver;
pub use error::{McnError, McnSide};
pub use fabric::{ClosConfig, Datacenter};
pub use rack::{McnRack, RackStats};
pub use sram::SramBuffer;

/// Re-export of the SRAM module under a bench-friendly name (the module
/// itself is public as [`sram`]).
pub use sram as sram_mod;
pub use system::{HostNode, McnSystem};

// Engine traits every driver of a system/rack/cluster needs in scope:
// `Component` for `advance`/`next_event`, `ComponentExt` for the shared
// `step`/`run_until`/`run_until_procs_done` drivers (and the hoisted
// `engine_stats`/`poll_accounting` accessors). The metrics registry types
// ride along so harnesses can snapshot any orchestrator without naming
// `mcn_sim` directly.
pub use mcn_sim::{
    Activity, Component, ComponentExt, Instrumented, MetricSink, MetricValue, MetricsSnapshot,
};
