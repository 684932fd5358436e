//! A complete simulated node: cores + memory + stack + processes.

use mcn_dram::DramConfig;
use mcn_net::tcp::TcpConfig;
use mcn_net::{NetStack, SocketEvent};
use mcn_sim::metrics::{Instrumented, MetricSink};
use mcn_sim::SimTime;

use crate::cost::CostModel;
use crate::cpu::CpuPool;
use crate::mem::{JobId, MemorySystem, WaiterId};
use crate::proc::ProcRunner;

/// One machine: CPU pool, memory system, network stack, process runner and
/// cost model. Device models (NIC, MCN drivers) live outside and borrow
/// the parts they need — that is what keeps host, MCN-DIMM and baseline
/// cluster nodes assembled from the same type.
#[derive(Debug)]
pub struct Node {
    /// Cores.
    pub cpus: CpuPool,
    /// Memory channels + transfer jobs.
    pub mem: MemorySystem,
    /// TCP/IP stack.
    pub stack: NetStack,
    /// Application processes.
    pub runner: ProcRunner,
    /// CPU-time constants.
    pub cost: CostModel,
}

impl Node {
    /// Assembles a node.
    pub fn new(
        cores: usize,
        cost: CostModel,
        dram: &DramConfig,
        channels: u32,
        tcp: TcpConfig,
    ) -> Self {
        Node {
            cpus: CpuPool::new(cores),
            mem: MemorySystem::new(dram, channels),
            stack: NetStack::new(tcp),
            runner: ProcRunner::new(),
            cost,
        }
    }

    /// Earliest of the node's own deadlines (memory activity, TCP timers,
    /// runnable processes / timer waits). Device deadlines are the
    /// orchestrator's business.
    ///
    /// Frames already queued on interface output queues need a driver to
    /// run *now*; that case is reported as `Some(SimTime::ZERO)`, which
    /// orchestrators clamp to their own clock.
    pub fn next_event(&self) -> Option<SimTime> {
        [self.next_event_outside_mem(), self.mem.next_event()]
            .into_iter()
            .flatten()
            .min()
    }

    /// [`next_event`](Self::next_event) without the memory system: queued
    /// output, stack timers and processes. Memory steps that finish no job
    /// leave it unchanged.
    pub fn next_event_outside_mem(&self) -> Option<SimTime> {
        if self.stack.has_output() {
            return Some(SimTime::ZERO);
        }
        [self.stack.next_timer(), self.runner.next_event(&self.cpus)]
            .into_iter()
            .flatten()
            .min()
    }

    /// Advances the memory system and routes process-owned job completions
    /// to the runner; returns the completions owned by devices (callers
    /// route those to their NIC / MCN driver).
    pub fn advance_mem(&mut self, now: SimTime) -> Vec<(WaiterId, JobId)> {
        let mut foreign = Vec::new();
        for (waiter, job) in self.mem.advance(now) {
            if ProcRunner::proc_of_waiter(waiter).is_some() {
                self.runner.on_job_done(waiter, job);
            } else {
                foreign.push((waiter, job));
            }
        }
        foreign
    }

    /// Fires due TCP timers and converts stack events into process wakes.
    pub fn service_stack(&mut self, now: SimTime) {
        if self.stack.next_timer().is_some_and(|t| t <= now) {
            self.stack.on_timer(now);
        }
        self.drain_stack_events();
    }

    /// Converts accumulated stack events into process wake-ups.
    pub fn drain_stack_events(&mut self) {
        for ev in self.stack.take_events() {
            match ev {
                SocketEvent::Activity(sock) => self.runner.on_sock_event(sock),
                SocketEvent::PingReply(..) => self.runner.on_ping_reply(),
            }
        }
    }

    /// Runs runnable processes; returns `true` if any ran.
    pub fn run_procs(&mut self, now: SimTime) -> bool {
        let ran = self.runner.run(
            now,
            &mut self.cpus,
            &mut self.stack,
            &mut self.mem,
            &self.cost,
        );
        if ran {
            self.drain_stack_events();
        }
        ran
    }
}

impl mcn_sim::Wakeup for Node {
    /// See [`Node::next_event`]: memory jobs, stack timers, runnable or
    /// timer-blocked processes, and `ZERO` when output frames wait for a
    /// driver.
    fn next_wakeup(&self) -> Option<SimTime> {
        self.next_event()
    }
}

impl Instrumented for Node {
    /// Everything a node can report: CPU busy time, per-channel memory
    /// counters and the whole network stack (including TCP totals).
    fn metrics(&self, out: &mut MetricSink) {
        out.scoped("cpu", |out| {
            out.counter("busy_ps", self.cpus.total_busy().as_ps());
        });
        out.scoped("mem", |out| {
            for (i, ch) in self.mem.channels().iter().enumerate() {
                out.absorb(&format!("ch{i}"), ch.stats());
            }
        });
        out.absorb("stack", &self.stack);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_assembles_and_idles() {
        let n = Node::new(
            4,
            CostModel::host(),
            &DramConfig::ddr4_3200(),
            2,
            TcpConfig::default(),
        );
        assert_eq!(n.cpus.cores(), 4);
        assert_eq!(n.next_event(), None, "fresh node has nothing scheduled");
    }

    #[test]
    fn mem_completions_split_by_waiter() {
        use crate::mem::{Access, Transfer};
        let mut n = Node::new(
            1,
            CostModel::host(),
            &DramConfig::ddr4_3200(),
            1,
            TcpConfig::default(),
        );
        // One device job (waiter below PROC base), one fake proc job.
        n.mem.start(
            Transfer::Stream {
                start: 0,
                bytes: 4096,
                read_frac: 1.0,
                access: Access::Seq,
            },
            42, // device waiter
            SimTime::ZERO,
        );
        let mut foreign = Vec::new();
        while n.mem.busy() {
            let t = n.mem.next_event().unwrap();
            foreign.extend(n.advance_mem(t));
        }
        assert_eq!(foreign.len(), 1);
        assert_eq!(foreign[0].0, 42);
    }
}
