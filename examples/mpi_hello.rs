//! MPI "Hello World" across host and MCN DIMMs — the analogue of the
//! paper's Fig. 12 proof-of-concept demo (OpenMPI on a POWER8 host plus a
//! NIOS II MCN DIMM). The point, as in the paper, is *application
//! transparency*: the same unmodified rank program runs on the host and on
//! the DIMMs, which are ordinary TCP peers from its point of view.
//!
//! Run with: `cargo run --release --example mpi_hello`

use std::sync::Arc;

use mcn::{ComponentExt, McnConfig, McnSystem, SystemConfig};
use mcn_mpi::MpiRank;
use mcn_node::{Poll, ProcCtx, Process};
use mcn_sim::SimTime;
use parking_lot::Mutex;

/// Every rank sends a greeting to rank 0; rank 0 prints them (like
/// `mpirun -np N ./hello`).
struct Hello {
    mpi: MpiRank,
    where_am_i: &'static str,
    sent: bool,
    received: usize,
    log: Arc<Mutex<Vec<String>>>,
}

impl Process for Hello {
    fn poll(&mut self, ctx: &mut ProcCtx<'_>) -> Poll {
        self.mpi.progress(ctx);
        if !self.sent {
            let msg = format!(
                "Hello world from rank {} of {} (running on the {})",
                self.mpi.rank(),
                self.mpi.size(),
                self.where_am_i
            );
            self.mpi.isend(ctx, 0, 1, msg.as_bytes());
            self.sent = true;
        }
        if self.mpi.rank() == 0 {
            while let Some((_, payload)) = self.mpi.try_recv(None, 1) {
                self.log
                    .lock()
                    .push(String::from_utf8_lossy(&payload).into_owned());
                self.received += 1;
            }
            if self.received < self.mpi.size() {
                return Poll::Wait(self.mpi.wakes());
            }
        }
        if !self.mpi.flushed() {
            return Poll::Wait(self.mpi.wakes());
        }
        Poll::Done
    }

    fn name(&self) -> &str {
        "mpi-hello"
    }
}

fn main() {
    let mut sys = McnSystem::new(&SystemConfig::default(), 2, McnConfig::level(1));
    let size = 3; // rank 0 on the host, ranks 1-2 on the DIMMs
    let peers = vec![sys.host_rank_ip(), sys.dimm_ip(0), sys.dimm_ip(1)];
    let log = Arc::new(Mutex::new(Vec::new()));

    let mk = |rank: usize, place: &'static str, log: &Arc<Mutex<Vec<String>>>| Hello {
        mpi: MpiRank::new(rank, size, peers.clone(), 40000),
        where_am_i: place,
        sent: false,
        received: 0,
        log: log.clone(),
    };
    sys.spawn_host(Box::new(mk(0, "host processor", &log)), 0);
    sys.spawn_dimm(0, Box::new(mk(1, "MCN processor of DIMM 0", &log)), 1);
    sys.spawn_dimm(1, Box::new(mk(2, "MCN processor of DIMM 1", &log)), 1);

    assert!(
        sys.run_until_procs_done(SimTime::from_ms(100)),
        "hello world stalled at {}",
        sys.now()
    );

    println!("$ mpirun -np {size} ./hello   # host + 2 MCN DIMMs");
    for line in log.lock().iter() {
        println!("{line}");
    }
    println!();
    // The tcpdump-flavoured epilogue of Fig. 12: what actually crossed the
    // memory channels.
    println!("--- memory-channel traffic (the 'tcpdump' view) ---");
    println!(
        "host driver: {} frames written to DIMM RX rings, {} read from TX rings",
        sys.hdrv.stats.ring.tx_frames.get(),
        sys.hdrv.stats.ring.rx_frames.get()
    );
    for d in 0..sys.dimms() {
        let st = &sys.dimm(d).stats;
        println!(
            "DIMM {d}: {} frames sent, {} received, {} interface IRQs",
            st.ring.tx_frames.get(),
            st.ring.rx_frames.get(),
            st.irqs.get()
        );
    }
    println!(
        "completed at t={} — no application code knew it was running in a DIMM",
        sys.now()
    );
}
