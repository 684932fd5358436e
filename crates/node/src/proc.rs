//! Cooperative application processes.
//!
//! Applications (iperf, ping, MPI ranks, workload kernels) are state
//! machines implementing [`Process`]. A process is `poll`ed when runnable;
//! it performs non-blocking socket/memory operations through [`ProcCtx`]
//! (which charges syscall and compute costs to its pinned core) and returns
//! what it is waiting for. The [`ProcRunner`] turns stack events, memory-job
//! completions and timer deadlines into wake-ups.
//!
//! This mirrors how one writes applications against an event loop and keeps
//! every workload deterministic and single-threaded.

use std::collections::VecDeque;

use mcn_net::{NetStack, SockId};
use mcn_sim::SimTime;

use crate::cost::CostModel;
use crate::cpu::CpuPool;
use crate::mem::{Access, JobId, MemorySystem, Transfer, WaiterId};

/// Process handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProcId(pub usize);

/// What a blocked process is waiting for. Wake-ups may be spurious;
/// processes re-check their condition on the next poll.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Wake {
    /// Activity on a socket (readable/writable/accept/state change).
    Sock(SockId),
    /// Any ICMP echo reply delivered to this node.
    AnyPing,
    /// An absolute time.
    Timer(SimTime),
    /// Completion of a memory job started via [`ProcCtx::mem_stream`].
    Job(JobId),
}

/// Result of polling a process.
#[derive(Debug)]
pub enum Poll {
    /// Block until any of these wakes fire.
    ///
    /// Must be non-empty (an empty wait set would sleep forever).
    Wait(Vec<Wake>),
    /// The process finished.
    Done,
}

/// An application state machine.
///
/// `Send` is a supertrait so a node (and everything above it, up to an
/// [`McnRack`-style] shard) can migrate to a worker thread under the
/// quantum-synchronized parallel engine; processes hold no thread-bound
/// state.
///
/// [`McnRack`-style]: mcn_sim::shard::Shard
pub trait Process: Send {
    /// Advances the process as far as possible without blocking.
    fn poll(&mut self, ctx: &mut ProcCtx<'_>) -> Poll;

    /// Short name for logs and traces.
    fn name(&self) -> &str {
        "proc"
    }
}

/// The per-poll view a process gets of its node. All socket wrappers charge
/// the syscall cost; heavier per-packet costs are charged by the driver
/// layer, not here (a `send()` of 1 MB is one syscall but many packets).
pub struct ProcCtx<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// The node's network stack.
    pub stack: &'a mut NetStack,
    /// The node's memory system.
    pub mem: &'a mut MemorySystem,
    /// The node's cost model.
    pub cost: &'a CostModel,
    pub(crate) charged: SimTime,
    pub(crate) waiter: WaiterId,
}

impl ProcCtx<'_> {
    /// Charges raw CPU time to the calling process's core.
    pub fn charge(&mut self, t: SimTime) {
        self.charged += t;
    }

    /// Charges pure compute time (alias of [`charge`](Self::charge) with
    /// intent).
    pub fn compute(&mut self, t: SimTime) {
        self.charge(t);
    }

    /// Starts a memory-streaming phase (compute kernel traffic); wake on
    /// [`Wake::Job`].
    pub fn mem_stream(&mut self, start: u64, bytes: u64, read_frac: f64, access: Access) -> JobId {
        self.mem.start(
            Transfer::Stream {
                start,
                bytes,
                read_frac,
                access,
            },
            self.waiter,
            self.now,
        )
    }

    /// `listen(2)` wrapper.
    ///
    /// # Panics
    ///
    /// Panics if the port is already bound on this node — always a
    /// workload-wiring bug, never a runtime condition to recover from.
    pub fn tcp_listen(&mut self, port: u16) -> SockId {
        self.charge(self.cost.syscall());
        self.stack
            .tcp_listen(port)
            .unwrap_or_else(|e| panic!("tcp_listen({port}): {e}"))
    }

    /// `listen(2)` wrapper with explicit queue bounds: at most
    /// `syn_backlog` half-open and `accept_backlog` accept-queued
    /// connections; excess SYNs are dropped (counted) or refused with RST.
    ///
    /// # Panics
    ///
    /// Panics if the port is already bound on this node (workload-wiring
    /// bug, like [`tcp_listen`](Self::tcp_listen)).
    pub fn tcp_listen_with_backlog(
        &mut self,
        port: u16,
        syn_backlog: usize,
        accept_backlog: usize,
    ) -> SockId {
        self.charge(self.cost.syscall());
        self.stack
            .tcp_listen_with_backlog(port, syn_backlog, accept_backlog)
            .unwrap_or_else(|e| panic!("tcp_listen_with_backlog({port}): {e}"))
    }

    /// `accept(2)` wrapper (non-blocking).
    pub fn tcp_accept(&mut self, listener: SockId) -> Option<SockId> {
        self.charge(self.cost.syscall());
        self.stack.tcp_accept(listener)
    }

    /// `connect(2)` wrapper.
    pub fn tcp_connect(&mut self, dst: std::net::Ipv4Addr, port: u16) -> Option<SockId> {
        self.charge(self.cost.syscall());
        self.stack.tcp_connect(dst, port, self.now).ok()
    }

    /// `send(2)` wrapper; returns bytes accepted (0 = would block).
    /// Charges the syscall plus the user→kernel copy of the accepted bytes.
    pub fn tcp_send(&mut self, sock: SockId, data: &[u8]) -> usize {
        self.charge(self.cost.syscall());
        let n = self.stack.tcp_send(sock, data, self.now).unwrap_or(0);
        self.charge(self.cost.small_copy(n));
        n
    }

    /// `recv(2)` wrapper; returns bytes read (0 = would block or EOF —
    /// check [`NetStack::tcp_at_eof`]). Charges the kernel→user copy.
    pub fn tcp_recv(&mut self, sock: SockId, buf: &mut [u8]) -> usize {
        self.charge(self.cost.syscall());
        let n = self.stack.tcp_recv(sock, buf, self.now).unwrap_or(0);
        self.charge(self.cost.small_copy(n));
        n
    }

    /// `close(2)` wrapper.
    pub fn tcp_close(&mut self, sock: SockId) {
        self.charge(self.cost.syscall());
        self.stack.tcp_close(sock, self.now);
    }

    /// Connection established?
    pub fn tcp_established(&self, sock: SockId) -> bool {
        self.stack.tcp_state(sock) == mcn_net::tcp::TcpState::Established
    }

    /// `close(2)`-and-forget for a connection the process is abandoning:
    /// aborts if still open and releases the slot immediately.
    pub fn tcp_drop(&mut self, sock: SockId) {
        self.charge(self.cost.syscall());
        self.stack.sock_drop(sock);
    }

    /// Sends an ICMP echo request; the reply arrives as a
    /// [`Wake::AnyPing`] wake plus a `PingReply` stack event.
    pub fn ping(&mut self, dst: std::net::Ipv4Addr, ident: u16, seq: u16, len: usize) {
        self.charge(self.cost.syscall());
        let _ = self.stack.send_ping(
            dst,
            ident,
            seq,
            bytes::Bytes::from(vec![0x42u8; len]),
            self.now,
        );
    }
}

#[derive(Debug, PartialEq)]
enum ProcState {
    Ready,
    Waiting(Vec<Wake>),
    Done,
}

struct Entry {
    proc: Box<dyn Process>,
    state: ProcState,
    core: usize,
}

impl std::fmt::Debug for Entry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Entry")
            .field("name", &self.proc.name())
            .field("state", &self.state)
            .field("core", &self.core)
            .finish()
    }
}

/// Schedules [`Process`]es onto a node's cores and routes wake-ups.
#[derive(Debug, Default)]
pub struct ProcRunner {
    procs: Vec<Entry>,
    run_queue: VecDeque<usize>,
}

/// Waiter-id namespace tag for processes (disambiguates process waiters
/// from device waiters in a node's MemorySystem).
pub const PROC_WAITER_BASE: WaiterId = 1 << 32;

impl ProcRunner {
    /// Creates an empty runner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a process pinned to `core`; it becomes runnable
    /// immediately.
    pub fn spawn(&mut self, proc: Box<dyn Process>, core: usize) -> ProcId {
        self.procs.push(Entry {
            proc,
            state: ProcState::Ready,
            core,
        });
        let id = self.procs.len() - 1;
        self.run_queue.push_back(id);
        ProcId(id)
    }

    /// The memory-system waiter id belonging to process `id`.
    pub fn waiter_of(id: ProcId) -> WaiterId {
        PROC_WAITER_BASE + id.0 as u64
    }

    /// Reverse mapping: the process owning `waiter`, if it is a process
    /// waiter. Process waiters occupy `[PROC_WAITER_BASE,
    /// PROC_WAITER_BASE + 2^30)`; device waiters (NIC, MCN drivers) use
    /// distinct higher bits and fall outside the range.
    pub fn proc_of_waiter(waiter: WaiterId) -> Option<ProcId> {
        (PROC_WAITER_BASE..PROC_WAITER_BASE + (1 << 30))
            .contains(&waiter)
            .then(|| ProcId((waiter - PROC_WAITER_BASE) as usize))
    }

    /// All processes finished?
    pub fn all_done(&self) -> bool {
        self.procs.iter().all(|e| e.state == ProcState::Done)
    }

    /// Number of unfinished processes.
    pub fn live(&self) -> usize {
        self.procs
            .iter()
            .filter(|e| e.state != ProcState::Done)
            .count()
    }

    /// One formatted line per unfinished process — name, core, and what it
    /// is waiting on — for stall diagnostics when a drive loop quiesces
    /// with live processes.
    pub fn stalled_procs(&self) -> Vec<String> {
        self.procs
            .iter()
            .enumerate()
            .filter(|(_, e)| e.state != ProcState::Done)
            .map(|(i, e)| {
                let state = match &e.state {
                    ProcState::Ready => "Ready".to_string(),
                    ProcState::Waiting(wakes) => format!("Waiting({wakes:?})"),
                    ProcState::Done => unreachable!(),
                };
                format!("proc{} '{}' core{}: {}", i, e.proc.name(), e.core, state)
            })
            .collect()
    }

    fn wake_if(&mut self, pred: impl Fn(&Wake) -> bool) {
        for (i, e) in self.procs.iter_mut().enumerate() {
            if let ProcState::Waiting(wakes) = &e.state {
                if wakes.iter().any(&pred) {
                    e.state = ProcState::Ready;
                    self.run_queue.push_back(i);
                }
            }
        }
    }

    /// Wakes processes waiting on this socket.
    pub fn on_sock_event(&mut self, sock: SockId) {
        self.wake_if(|w| matches!(w, Wake::Sock(s) if *s == sock));
    }

    /// Wakes processes waiting on any ping reply.
    pub fn on_ping_reply(&mut self) {
        self.wake_if(|w| matches!(w, Wake::AnyPing));
    }

    /// Wakes the owner of a finished memory job.
    pub fn on_job_done(&mut self, waiter: WaiterId, job: JobId) {
        if let Some(ProcId(idx)) = Self::proc_of_waiter(waiter) {
            if let Some(e) = self.procs.get_mut(idx) {
                if let ProcState::Waiting(wakes) = &e.state {
                    if wakes.iter().any(|w| matches!(w, Wake::Job(j) if *j == job)) {
                        e.state = ProcState::Ready;
                        self.run_queue.push_back(idx);
                    }
                }
            }
        }
    }

    /// Earliest future instant this runner needs attention: a ready process
    /// whose core frees up, or a timer deadline.
    pub fn next_event(&self, cpus: &CpuPool) -> Option<SimTime> {
        let mut t: Option<SimTime> = None;
        let mut fold = |x: SimTime| t = Some(t.map_or(x, |c: SimTime| c.min(x)));
        for e in &self.procs {
            match &e.state {
                ProcState::Ready => fold(cpus.free_at(e.core)),
                ProcState::Waiting(wakes) => {
                    for w in wakes {
                        if let Wake::Timer(d) = w {
                            fold(*d);
                        }
                    }
                }
                ProcState::Done => {}
            }
        }
        t
    }

    /// Polls every runnable process whose core is available at `now`,
    /// charging its CPU usage. Returns `true` if anything ran (callers
    /// should then re-drain stack events and re-run until quiescent).
    pub fn run(
        &mut self,
        now: SimTime,
        cpus: &mut CpuPool,
        stack: &mut NetStack,
        mem: &mut MemorySystem,
        cost: &CostModel,
    ) -> bool {
        // Timer wakes.
        for (i, e) in self.procs.iter_mut().enumerate() {
            if let ProcState::Waiting(wakes) = &e.state {
                if wakes
                    .iter()
                    .any(|w| matches!(w, Wake::Timer(d) if *d <= now))
                {
                    e.state = ProcState::Ready;
                    self.run_queue.push_back(i);
                }
            }
        }
        let mut ran = false;
        let mut deferred = VecDeque::new();
        while let Some(idx) = self.run_queue.pop_front() {
            let e = &mut self.procs[idx];
            if e.state != ProcState::Ready {
                continue; // stale queue entry
            }
            if cpus.free_at(e.core) > now {
                deferred.push_back(idx); // core busy; retry when it frees
                continue;
            }
            let mut ctx = ProcCtx {
                now,
                stack,
                mem,
                cost,
                charged: SimTime::ZERO,
                waiter: Self::waiter_of(ProcId(idx)),
            };
            let poll = e.proc.poll(&mut ctx);
            let charged = ctx.charged;
            if charged > SimTime::ZERO {
                cpus.run_on(e.core, now, charged);
            }
            ran = true;
            match poll {
                Poll::Done => e.state = ProcState::Done,
                Poll::Wait(wakes) => {
                    assert!(
                        !wakes.is_empty(),
                        "process '{}' returned an empty wait set",
                        e.proc.name()
                    );
                    e.state = ProcState::Waiting(wakes);
                }
            }
        }
        self.run_queue = deferred;
        ran
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcn_dram::DramConfig;
    use mcn_net::tcp::TcpConfig;

    fn fixtures() -> (CpuPool, NetStack, MemorySystem, CostModel) {
        (
            CpuPool::new(2),
            NetStack::new(TcpConfig::default()),
            MemorySystem::new(&DramConfig::ddr4_3200(), 1),
            CostModel::host(),
        )
    }

    /// Computes for a fixed time, then starts a memory stream, then exits.
    struct Phases {
        step: u32,
        job: Option<JobId>,
    }

    impl Process for Phases {
        fn poll(&mut self, ctx: &mut ProcCtx<'_>) -> Poll {
            match self.step {
                0 => {
                    self.step = 1;
                    ctx.compute(SimTime::from_us(5));
                    Poll::Wait(vec![Wake::Timer(ctx.now + SimTime::from_us(5))])
                }
                1 => {
                    self.step = 2;
                    let job = ctx.mem_stream(0, 64 * 1024, 1.0, Access::Seq);
                    self.job = Some(job);
                    Poll::Wait(vec![Wake::Job(job)])
                }
                _ => Poll::Done,
            }
        }
        fn name(&self) -> &str {
            "phases"
        }
    }

    #[test]
    fn process_lifecycle_with_compute_and_memory() {
        let (mut cpus, mut stack, mut mem, cost) = fixtures();
        let mut runner = ProcRunner::new();
        let pid = runner.spawn(Box::new(Phases { step: 0, job: None }), 0);
        let mut now = SimTime::ZERO;
        // Step 0: runs, charges 5us, waits for timer.
        assert!(runner.run(now, &mut cpus, &mut stack, &mut mem, &cost));
        assert_eq!(cpus.busy(0), SimTime::from_us(5));
        assert!(!runner.all_done());
        // Timer at +5us.
        now = runner.next_event(&cpus).expect("timer pending");
        assert_eq!(now, SimTime::from_us(5));
        assert!(runner.run(now, &mut cpus, &mut stack, &mut mem, &cost));
        // Now a memory job is running; drive it.
        let mut woke = false;
        while mem.busy() {
            let t = mem.next_event().expect("busy");
            now = t;
            for (w, j) in mem.advance(t) {
                assert_eq!(ProcRunner::proc_of_waiter(w), Some(pid));
                runner.on_job_done(w, j);
                woke = true;
            }
        }
        assert!(woke);
        assert!(runner.run(now, &mut cpus, &mut stack, &mut mem, &cost));
        assert!(runner.all_done());
        assert_eq!(runner.live(), 0);
    }

    /// Two processes pinned to the same core contend for it.
    struct Burner;
    impl Process for Burner {
        fn poll(&mut self, ctx: &mut ProcCtx<'_>) -> Poll {
            ctx.compute(SimTime::from_us(10));
            Poll::Done
        }
    }

    #[test]
    fn same_core_processes_serialize() {
        let (mut cpus, mut stack, mut mem, cost) = fixtures();
        let mut runner = ProcRunner::new();
        runner.spawn(Box::new(Burner), 0);
        runner.spawn(Box::new(Burner), 0);
        runner.run(SimTime::ZERO, &mut cpus, &mut stack, &mut mem, &cost);
        // Only the first runs at t=0; the second defers until core 0 frees.
        assert_eq!(cpus.free_at(0), SimTime::from_us(10));
        let t = runner.next_event(&cpus).expect("deferred process");
        assert_eq!(t, SimTime::from_us(10));
        runner.run(t, &mut cpus, &mut stack, &mut mem, &cost);
        assert_eq!(cpus.free_at(0), SimTime::from_us(20));
        assert!(runner.all_done());
    }

    #[test]
    fn ready_process_on_busy_core_defers() {
        let (mut cpus, mut stack, mut mem, cost) = fixtures();
        // Occupy core 0 until 100us.
        cpus.run_on(0, SimTime::ZERO, SimTime::from_us(100));
        let mut runner = ProcRunner::new();
        runner.spawn(Box::new(Burner), 0);
        let ran = runner.run(SimTime::ZERO, &mut cpus, &mut stack, &mut mem, &cost);
        assert!(!ran, "core busy: nothing should run");
        // next_event points at the core release.
        assert_eq!(runner.next_event(&cpus), Some(SimTime::from_us(100)));
        assert!(runner.run(
            SimTime::from_us(100),
            &mut cpus,
            &mut stack,
            &mut mem,
            &cost
        ));
        assert!(runner.all_done());
    }

    #[test]
    fn sock_wake_routing() {
        let (mut cpus, mut stack, mut mem, cost) = fixtures();
        struct WaitSock(SockId, bool);
        impl Process for WaitSock {
            fn poll(&mut self, _ctx: &mut ProcCtx<'_>) -> Poll {
                if self.1 {
                    Poll::Done
                } else {
                    self.1 = true;
                    Poll::Wait(vec![Wake::Sock(self.0)])
                }
            }
        }
        let mut runner = ProcRunner::new();
        runner.spawn(Box::new(WaitSock(SockId(3), false)), 0);
        runner.run(SimTime::ZERO, &mut cpus, &mut stack, &mut mem, &cost);
        assert!(!runner.all_done());
        runner.on_sock_event(SockId(4)); // wrong socket: stays blocked
        assert_eq!(runner.next_event(&cpus), None);
        runner.on_sock_event(SockId(3));
        runner.run(SimTime::ZERO, &mut cpus, &mut stack, &mut mem, &cost);
        assert!(runner.all_done());
    }

    #[test]
    #[should_panic(expected = "empty wait set")]
    fn empty_wait_set_panics() {
        let (mut cpus, mut stack, mut mem, cost) = fixtures();
        struct Bad;
        impl Process for Bad {
            fn poll(&mut self, _ctx: &mut ProcCtx<'_>) -> Poll {
                Poll::Wait(vec![])
            }
        }
        let mut runner = ProcRunner::new();
        runner.spawn(Box::new(Bad), 0);
        runner.run(SimTime::ZERO, &mut cpus, &mut stack, &mut mem, &cost);
    }
}
