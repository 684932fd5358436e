//! Facade crate: re-exports the MCN reproduction workspace crates. The
//! README below is its documentation, so `cargo test` compiles and runs
//! every Rust snippet in it.
#![doc = include_str!("../README.md")]
#![forbid(unsafe_code)]
pub use mcn;
pub use mcn_dram as dram;
pub use mcn_energy as energy;
pub use mcn_mpi as mpi;
pub use mcn_net as net;
pub use mcn_node as node;
pub use mcn_serve as serve;
pub use mcn_sim as sim;
