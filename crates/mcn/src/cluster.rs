//! The conventional scale-out baseline: N nodes with 10GbE NICs connected
//! through a store-and-forward switch (paper Table II: 10GbE, 1 µs link
//! latency). Every figure's "10GbE" series comes from this system.
//!
//! Node parameters mirror the host of Table II (8 cores @ 3.4 GHz,
//! DDR4-3200). NICs use hardware checksum offload (standard for 10GbE
//! adapters), so the stack charges no software checksum time; wire
//! integrity is the Ethernet FCS, checked by the receiving MAC.
//!
//! Like [`crate::McnRack`], the cluster runs on the quantum-synchronized
//! scheduler in [`mcn_sim::shard`]: each node block (node + NIC + links)
//! is one shard, the switch routes at barriers, and
//! [`run_parallel`](EthernetCluster::run_parallel) with any thread count
//! reproduces the single-threaded results byte for byte.

use std::net::Ipv4Addr;

use mcn_net::link::{Link, Switch};
use mcn_net::tcp::TcpConfig;
use mcn_net::{EthernetFrame, MacAddr, NetConfig};
use mcn_node::nic::{Nic, NicConfig, NIC_WAITER};
use mcn_node::{CostModel, MemorySystem, Node, ProcId, Process};
use mcn_sim::metrics::{Instrumented, MetricSink};
use mcn_sim::{
    Activity, Component, EngineStats, Fabric, ParallelEngine, Quantum, RunGoal, RunReport, Shard,
    SimTime, StallReport, Wakeup,
};

use crate::block::{route_switched, Endpoint, EndpointBlock, SwitchPolicy};
use crate::config::SystemConfig;

/// One baseline node: a host-class machine plus its NIC.
#[derive(Debug)]
pub struct ClusterNode {
    /// The machine.
    pub node: Node,
    /// Its 10GbE NIC.
    pub nic: Nic,
}

/// The cluster issues no control commands; its shards only exchange
/// frames.
#[derive(Debug)]
pub(crate) enum NoCmd {}

impl Endpoint for ClusterNode {
    type Cmd = NoCmd;

    fn wire(&mut self) -> (&mut Nic, &mut MemorySystem) {
        (&mut self.nic, &mut self.node.mem)
    }

    fn nic(&self) -> &Nic {
        &self.nic
    }

    fn advance_pre(&mut self, t: SimTime) -> bool {
        // Memory completions → NIC DMA bookkeeping.
        let mut changed = false;
        for (waiter, job) in self.node.advance_mem(t) {
            debug_assert_eq!(waiter, NIC_WAITER);
            self.nic
                .on_job_done(job, t, &mut self.node.cpus, &self.node.cost, false);
            changed = true;
        }
        changed
    }

    fn advance_post(&mut self, t: SimTime) -> bool {
        // Stack timers, processes, outbound frames.
        self.node.service_stack(t);
        let mut changed = self.node.run_procs(t);
        while let Some(frame) = self.node.stack.poll_output(0) {
            // TX protocol processing (checksum offloaded), then the
            // driver handoff.
            let proto = mcn_node::nic::tx_protocol_cost(&self.node.cost, &frame, false);
            let core = self.node.cpus.least_loaded();
            let (_, end) = self.node.cpus.run_on(core, t, proto);
            self.nic
                .xmit(frame, end, core, &mut self.node.cpus, &self.node.cost);
            changed = true;
        }
        changed
    }

    fn rx(&mut self, frame: EthernetFrame, t: SimTime) {
        self.node.stack.on_frame(0, frame, t);
        self.node.drain_stack_events();
    }

    fn next_wakeup(&mut self) -> Option<SimTime> {
        self.node.next_wakeup()
    }

    fn apply(&mut self, _at: SimTime, cmd: NoCmd, _link_up: &mut bool) {
        match cmd {}
    }

    fn procs_done(&self) -> bool {
        self.node.runner.all_done()
    }

    fn stall_panic(&self, t: SimTime) -> String {
        format!("node block did not converge at {t}")
    }
}

/// One shard of the cluster: a node behind the shared wire pipeline.
type NodeBlock = EndpointBlock<ClusterNode>;

/// The cluster's coordinator: just the switch, with no admission
/// restrictions and no control events.
#[derive(Debug)]
struct OpenSwitch(Switch);

impl SwitchPolicy for OpenSwitch {
    fn switch(&mut self) -> &mut Switch {
        &mut self.0
    }
}

impl Fabric<NodeBlock> for OpenSwitch {
    fn next_control(&mut self) -> Option<SimTime> {
        None
    }

    fn pop_controls(&mut self, _now: SimTime, _out: &mut Vec<(usize, SimTime, NoCmd)>) {}

    fn route(
        &mut self,
        from: usize,
        at: SimTime,
        frame: EthernetFrame,
        out: &mut Vec<(usize, SimTime, EthernetFrame)>,
    ) {
        route_switched(self, from, at, frame, out);
    }
}

/// The 10GbE scale-out cluster; drive like [`crate::McnSystem`].
///
/// Shard `i` of the windowed scheduler is the whole per-node block: the
/// node, its NIC, and its up/down links.
#[derive(Debug)]
pub struct EthernetCluster {
    now: SimTime,
    blocks: Vec<NodeBlock>,
    switch: OpenSwitch,
    /// The quantum-synchronized scheduler (serial = 1 thread).
    sched: ParallelEngine,
}

impl EthernetCluster {
    /// Builds a cluster of `n` Table-II-class nodes on one switch.
    pub fn new(sys: &SystemConfig, n: usize) -> Self {
        Self::with_cores(sys, n, sys.host_cores)
    }

    /// Builds a cluster whose nodes have `cores` cores each (the Fig. 11
    /// scale-up baseline uses a single node with 4–16 cores).
    pub fn with_cores(sys: &SystemConfig, n: usize, cores: usize) -> Self {
        let mut nodes = Vec::new();
        for i in 0..n {
            let mut node = Node::new(
                cores,
                CostModel::host(),
                &sys.host_dram,
                sys.host_channels,
                TcpConfig::default(),
            );
            let mac = MacAddr::from_id(0x0300 + i as u16);
            let ip = Self::ip_of(i);
            node.stack.add_interface(NetConfig {
                mac,
                ip,
                mtu: mcn_net::MTU_ETHERNET,
                // Hardware checksum offload: no CPU checksum charges, no
                // software verification; FCS covers the wire.
                tx_checksum: false,
                rx_checksum: false,
                tso: false,
            });
            node.stack.add_route(
                Ipv4Addr::new(10, 0, 0, 0),
                Ipv4Addr::new(255, 255, 255, 0),
                0,
                None,
            );
            nodes.push(ClusterNode {
                node,
                nic: Nic::new(NicConfig::default()),
            });
        }
        // Static neighbor tables (ARP substitute): everyone knows everyone.
        for (i, node) in nodes.iter_mut().enumerate() {
            for j in 0..n {
                if i != j {
                    let (ip, mac) = (Self::ip_of(j), MacAddr::from_id(0x0300 + j as u16));
                    node.node.stack.add_neighbor(ip, mac);
                }
            }
        }
        let mk_link = || Link::new(sys.eth_bytes_per_sec, sys.eth_latency);
        let switch = Switch::new(n.max(1));
        let quantum = Quantum::from_path(switch.forward_latency, sys.eth_latency);
        EthernetCluster {
            now: SimTime::ZERO,
            switch: OpenSwitch(switch),
            blocks: nodes
                .into_iter()
                .map(|cn| EndpointBlock::new(cn, mk_link(), mk_link()))
                .collect(),
            sched: ParallelEngine::new(quantum),
        }
    }

    /// Enables frame loss/corruption on node `i`'s uplink (failure
    /// injection for TCP-recovery tests). The uplink is rebuilt with the
    /// bandwidth and latency the cluster was configured with.
    pub fn impair_uplink(&mut self, i: usize, drop: f64, corrupt: f64, seed: u64) {
        let up = &mut self.blocks[i].up;
        *up = Link::new(up.bytes_per_sec(), up.latency()).with_impairments(drop, corrupt, seed);
    }

    /// The uplink (node `i` → switch), e.g. to read impairment counters.
    pub fn uplink(&self, i: usize) -> &Link {
        &self.blocks[i].up
    }

    /// IP of node `i` (`10.0.0.(i+1)`).
    pub fn ip_of(i: usize) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, (i + 1) as u8)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True for an empty cluster.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Access node `i`.
    pub fn node(&self, i: usize) -> &ClusterNode {
        &self.blocks[i].ep
    }

    /// Mutable access to node `i` (e.g. to bind sockets or spawn work;
    /// the scheduler re-queries every block's deadline each window).
    pub fn node_mut(&mut self, i: usize) -> &mut ClusterNode {
        &mut self.blocks[i].ep
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The synchronization quantum the scheduler derived from the
    /// switch + downlink latency.
    pub fn quantum(&self) -> Quantum {
        self.sched.quantum()
    }

    /// Spawns a process on a core of node `i`.
    pub fn spawn(&mut self, i: usize, proc: Box<dyn Process>, core: usize) -> ProcId {
        self.node_mut(i).node.runner.spawn(proc, core)
    }

    /// All processes on all nodes finished?
    pub fn all_procs_done(&self) -> bool {
        self.blocks.iter().all(|b| b.ep.node.runner.all_done())
    }

    /// Earliest pending activity across the node blocks.
    pub fn next_event(&mut self) -> Option<SimTime> {
        self.blocks
            .iter_mut()
            .filter_map(Shard::next_event)
            .min()
            .map(|x| x.max(self.now))
    }

    /// A structured snapshot of the cluster for stall debugging: each
    /// node's blocked processes and socket states, plus NIC/link timers.
    pub fn stall_report(&self, title: &str) -> StallReport {
        let mut r =
            StallReport::new(format!("{title} (cluster of {} @ {})", self.len(), self.now));
        for (i, b) in self.blocks.iter().enumerate() {
            for line in b.ep.node.runner.stalled_procs() {
                r.line(&format!("node{i} procs"), line);
            }
            for line in b.ep.node.stack.socket_states() {
                r.line(&format!("node{i} sockets"), line);
            }
            r.line(
                "wire",
                format!(
                    "node{i}: nic_next={:?} up_next={:?} down_next={:?}",
                    b.ep.nic.next_event(),
                    b.up.next_arrival(),
                    b.down.next_arrival()
                ),
            );
        }
        r
    }

    /// Drives the cluster with the windowed scheduler on `threads`
    /// workers.
    fn drive(&mut self, target: SimTime, goal: RunGoal, threads: usize) -> RunReport {
        self.sched.run(
            &mut self.blocks,
            &mut self.switch,
            &mut self.now,
            target,
            goal,
            threads,
        )
    }

    /// Runs until every process on every node finishes, or `deadline`
    /// passes (returns false). Results are byte-identical for any
    /// `threads` value.
    pub fn run_parallel(&mut self, deadline: SimTime, threads: usize) -> bool {
        self.drive(deadline, RunGoal::ProcsDone, threads).completed
    }

    /// Runs every event up to `deadline` on `threads` workers, then sets
    /// the clock to it.
    pub fn run_parallel_until(&mut self, deadline: SimTime, threads: usize) {
        self.drive(deadline, RunGoal::Deadline, threads);
    }

    /// Event-loop accounting summed over the node blocks.
    fn summed_stats(&self) -> EngineStats {
        let mut s = EngineStats::default();
        for b in &self.blocks {
            s.accumulate(&b.stats);
        }
        s
    }
}

impl Component for EthernetCluster {
    fn now(&self) -> SimTime {
        EthernetCluster::now(self)
    }
    fn next_event(&mut self) -> Option<SimTime> {
        EthernetCluster::next_event(self)
    }
    fn advance(&mut self, t: SimTime) -> Activity {
        assert!(t >= self.now, "time must not go backwards");
        let rep = self.drive(t, RunGoal::Deadline, 1);
        Activity::from_flag(rep.events > 0)
    }
    fn procs_done(&self) -> bool {
        self.all_procs_done()
    }
    fn engine_accounting(&self, out: &mut Vec<(EngineStats, usize)>) {
        out.push((self.summed_stats(), self.blocks.len()));
    }
}

impl Instrumented for EthernetCluster {
    /// The baseline cluster tree: per node `node{N}.*` (the node's
    /// cpu/mem/stack plus its NIC under `node{N}.nic.*`), per-node
    /// uplink/downlink under `link{N}.up/.down`, the switch, the summed
    /// block accounting (`engine.*`), the windowed scheduler (`sched.*`)
    /// and the clock.
    fn metrics(&self, out: &mut MetricSink) {
        out.counter("now_ps", self.now.as_ps());
        out.absorb("switch", &self.switch.0);
        for (i, b) in self.blocks.iter().enumerate() {
            out.scoped(&format!("node{i}"), |out| {
                b.ep.node.metrics(out);
                out.absorb("nic", &b.ep.nic);
            });
            out.scoped(&format!("link{i}"), |out| {
                out.absorb("up", &b.up);
                out.absorb("down", &b.down);
            });
        }
        out.absorb("engine", &self.summed_stats());
        out.absorb("sched", &self.sched);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use mcn_sim::{Backoff, ComponentExt};

    fn mk(n: usize) -> EthernetCluster {
        EthernetCluster::new(&SystemConfig::default(), n)
    }

    #[test]
    fn udp_between_nodes() {
        let mut c = mk(3);
        let u0 = c.node_mut(0).node.stack.udp_bind(5000).unwrap();
        let u2 = c.node_mut(2).node.stack.udp_bind(7000).unwrap();
        c.node_mut(0)
            .node
            .stack
            .udp_send(
                u0,
                EthernetCluster::ip_of(2),
                7000,
                Bytes::from(vec![8u8; 1000]),
                SimTime::ZERO,
            )
            .unwrap();
        c.run_until(SimTime::from_us(100));
        let (src, _, data) = c
            .node_mut(2)
            .node
            .stack
            .udp_recv(u2)
            .expect("datagram crossed the switch");
        assert_eq!(src, EthernetCluster::ip_of(0));
        assert_eq!(data.len(), 1000);
    }

    #[test]
    fn ping_rtt_reflects_wire_and_stack() {
        let mut c = mk(2);
        c.node_mut(0)
            .node
            .stack
            .send_ping(
                EthernetCluster::ip_of(1),
                9,
                1,
                Bytes::from(vec![0u8; 16]),
                SimTime::ZERO,
            )
            .unwrap();
        c.run_until(SimTime::from_ms(1));
        let reply = c.node_mut(0).node.stack.pop_ping_reply();
        assert!(reply.is_some(), "echo reply must arrive");
        // The RTT floor: 4 link traversals (1 us each) + switch + NIC/driver.
        // With all costs, expect tens of microseconds — well below 1 ms.
        assert!(c.now() <= SimTime::from_ms(1));
    }

    #[test]
    fn tcp_bulk_transfer_between_nodes() {
        let mut c = mk(2);
        let lst = c.node_mut(1).node.stack.tcp_listen(5001).unwrap();
        let cs = c
            .node_mut(0)
            .node
            .stack
            .tcp_connect(EthernetCluster::ip_of(1), 5001, SimTime::ZERO)
            .unwrap();
        c.run_until(SimTime::from_ms(1));
        assert_eq!(
            c.node(0).node.stack.tcp_state(cs),
            mcn_net::tcp::TcpState::Established
        );
        let ss = c.node_mut(1).node.stack.tcp_accept(lst).unwrap();
        let data: Vec<u8> = (0..128 * 1024u32).map(|i| (i % 253) as u8).collect();
        let mut sent = 0;
        let mut got = Vec::new();
        let mut buf = vec![0u8; 65536];
        // Fixed 100 µs pacing (initial == max_delay), bounded attempts.
        let mut pacing = Backoff::new(SimTime::from_us(100), SimTime::from_us(100), 10_000);
        let done = c.run_with_backoff(&mut pacing, |c| {
            let now = c.now();
            if sent < data.len() {
                sent += c
                    .node_mut(0)
                    .node
                    .stack
                    .tcp_send(cs, &data[sent..], now)
                    .unwrap();
            }
            loop {
                let now = c.now();
                let n = c
                    .node_mut(1)
                    .node
                    .stack
                    .tcp_recv(ss, &mut buf, now)
                    .unwrap();
                if n == 0 {
                    break;
                }
                got.extend_from_slice(&buf[..n]);
            }
            got.len() >= data.len()
        });
        assert!(
            done,
            "stalled at {} bytes\n{}",
            got.len(),
            c.stall_report("tcp bulk transfer stalled")
        );
        assert_eq!(got, data);
    }

    #[test]
    fn tcp_recovers_from_lossy_uplink() {
        let mut c = mk(2);
        c.impair_uplink(0, 0.05, 0.01, 99);
        let lst = c.node_mut(1).node.stack.tcp_listen(5001).unwrap();
        let cs = c
            .node_mut(0)
            .node
            .stack
            .tcp_connect(EthernetCluster::ip_of(1), 5001, SimTime::ZERO)
            .unwrap();
        c.run_until(SimTime::from_ms(5));
        // Handshake may need retries under loss: exponential backoff from
        // 1 ms to 50 ms slices, bounded attempts instead of a guard counter.
        let mut hs = Backoff::new(SimTime::from_ms(1), SimTime::from_ms(50), 100);
        let established = c.run_with_backoff(&mut hs, |c| {
            c.node(0).node.stack.tcp_state(cs) == mcn_net::tcp::TcpState::Established
        });
        assert!(
            established,
            "handshake never completed under loss\n{}",
            c.stall_report("tcp handshake stalled")
        );
        let ss = c.node_mut(1).node.stack.tcp_accept(lst).unwrap();
        let data: Vec<u8> = (0..64 * 1024u32).map(|i| (i % 249) as u8).collect();
        let mut sent = 0;
        let mut got = Vec::new();
        let mut buf = vec![0u8; 65536];
        let mut pacing = Backoff::new(SimTime::from_ms(1), SimTime::from_ms(1), 50_000);
        let done = c.run_with_backoff(&mut pacing, |c| {
            let now = c.now();
            if sent < data.len() {
                sent += c
                    .node_mut(0)
                    .node
                    .stack
                    .tcp_send(cs, &data[sent..], now)
                    .unwrap();
            }
            loop {
                let now = c.now();
                let n = c
                    .node_mut(1)
                    .node
                    .stack
                    .tcp_recv(ss, &mut buf, now)
                    .unwrap();
                if n == 0 {
                    break;
                }
                got.extend_from_slice(&buf[..n]);
            }
            got.len() >= data.len()
        });
        assert!(
            done,
            "stalled at {} bytes\n{}",
            got.len(),
            c.stall_report("lossy tcp transfer stalled")
        );
        assert_eq!(got, data, "loss and corruption must not corrupt the stream");
        assert!(
            c.node(1).nic.fcs_drops.get() > 0
                || c.node(0)
                    .node
                    .stack
                    .tcp_stats(cs)
                    .is_some_and(|s| s.retransmits > 0),
            "impairments should be visible in counters"
        );
    }

    #[test]
    fn impaired_uplink_keeps_the_configured_link() {
        let sys = SystemConfig {
            eth_bytes_per_sec: 3.125e9,
            eth_latency: SimTime::from_us(3),
            ..SystemConfig::default()
        };
        let mut c = EthernetCluster::new(&sys, 2);
        c.impair_uplink(1, 0.5, 0.0, 7);
        for i in 0..2 {
            assert_eq!(c.uplink(i).bytes_per_sec(), 3.125e9, "uplink {i} bandwidth");
            assert_eq!(
                c.uplink(i).latency(),
                SimTime::from_us(3),
                "uplink {i} latency"
            );
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut c = mk(2);
            let u0 = c.node_mut(0).node.stack.udp_bind(5000).unwrap();
            let _u1 = c.node_mut(1).node.stack.udp_bind(7000).unwrap();
            for k in 0..10 {
                let now = c.now();
                c.node_mut(0)
                    .node
                    .stack
                    .udp_send(
                        u0,
                        EthernetCluster::ip_of(1),
                        7000,
                        Bytes::from(vec![k as u8; 900]),
                        now,
                    )
                    .unwrap();
                c.run_until(c.now() + SimTime::from_us(30));
            }
            (
                c.node(0).node.cpus.total_busy(),
                c.node(1).node.cpus.total_busy(),
                c.node(1).node.mem.total_bytes(),
            )
        };
        assert_eq!(run(), run());
    }
}
