//! Runs an NPB-style MPI workload on three systems — scale-up server,
//! MCN-enabled server, 10GbE cluster — a miniature of Figs. 9–11.
//!
//! Run with: `cargo run --release --example npb_workload [bench]`
//! where `bench` is one of: ep cg mg ft is lu (default: mg).

use mcn::{ComponentExt, EthernetCluster, McnConfig, McnSystem, SystemConfig};
use mcn_mpi::placement::{spawn_on_cluster, spawn_on_mcn};
use mcn_mpi::WorkloadSpec;
use mcn_sim::SimTime;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "mg".into());
    let spec = WorkloadSpec::by_name(&name)
        .unwrap_or_else(|| panic!("unknown benchmark '{name}'; try ep/cg/mg/ft/is/lu"));
    println!(
        "NPB-style '{}' ({}): {} iterations, {} MB/iter, {}, {:?}\n",
        spec.name,
        spec.suite,
        spec.iterations,
        spec.mem_bytes_per_iter >> 20,
        if spec.random_access {
            "random access"
        } else {
            "streaming"
        },
        spec.comm
    );
    let deadline = SimTime::from_secs(30);

    // Scale-up: 8 cores, 8 ranks over loopback.
    let mut sys = McnSystem::new(&SystemConfig::default(), 0, McnConfig::level(0));
    let rep = spawn_on_mcn(&mut sys, spec, 8, 0, 7);
    assert!(sys.run_until_procs_done(deadline));
    let t_up = rep.lock().completion().expect("finished");
    println!("scale-up server (8 cores):          {t_up}");

    // MCN server: 8 host ranks + 3 per DIMM on 2 DIMMs at mcn3.
    let mut sys = McnSystem::new(&SystemConfig::default(), 2, McnConfig::level(3));
    let rep = spawn_on_mcn(&mut sys, spec, 8, 3, 7);
    assert!(sys.run_until_procs_done(deadline));
    let r = rep.lock();
    assert!(r.verified, "numeric verification failed");
    let t_mcn = r.completion().expect("finished");
    drop(r);
    println!(
        "MCN server (8 host + 2x3 MCN ranks): {t_mcn}  ({:.2}x)",
        t_up.as_secs_f64() / t_mcn.as_secs_f64()
    );

    // 10GbE cluster: 2 nodes, 7 ranks each (same total ranks as MCN).
    let mut c = EthernetCluster::new(&SystemConfig::default(), 2);
    let rep = spawn_on_cluster(&mut c, spec, 7, 7);
    assert!(c.run_until_procs_done(deadline));
    let t_cl = rep.lock().completion().expect("finished");
    println!(
        "10GbE cluster (2 nodes x 7 ranks):  {t_cl}  ({:.2}x)",
        t_up.as_secs_f64() / t_cl.as_secs_f64()
    );
    println!("\n(all three runs executed the same RankProgram, numerically verified)");
}
