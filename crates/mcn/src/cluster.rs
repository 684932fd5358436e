//! The conventional scale-out baseline: N nodes with 10GbE NICs connected
//! through a store-and-forward switch (paper Table II: 10GbE, 1 µs link
//! latency). Every figure's "10GbE" series comes from this system.
//!
//! Node parameters mirror the host of Table II (8 cores @ 3.4 GHz,
//! DDR4-3200). NICs use hardware checksum offload (standard for 10GbE
//! adapters), so the stack charges no software checksum time; wire
//! integrity is the Ethernet FCS, checked by the receiving MAC.
//!
//! The cluster is a rack of plain nodes: the same topology type as
//! [`crate::McnRack`], each node block (node + NIC + links) one shard of
//! the quantum-synchronized scheduler in [`mcn_sim::shard`], routed by
//! the rack's ToR coordinator with no outage plan, no partition and no
//! fabric uplink, so it forwards exactly what a bare learning switch
//! does. `run_parallel` with any thread count reproduces the
//! single-threaded results byte for byte.

use std::net::Ipv4Addr;

use mcn_net::link::Link;
use mcn_net::{EthernetFrame, MacAddr, NetConfig};
use mcn_node::nic::{Nic, NIC_WAITER};
use mcn_node::{CostModel, MemorySystem, Node, ProcId, Process};
use mcn_sim::metrics::{Instrumented, MetricSink};
use mcn_sim::{ComponentExt, SimTime, StallReport};

use crate::block::{Endpoint, EndpointBlock, Topology};
use crate::config::SystemConfig;
use crate::rack::Tor;

/// One baseline node: a host-class machine plus its NIC.
#[derive(Debug)]
pub struct ClusterNode {
    /// The machine.
    pub node: Node,
    /// Its 10GbE NIC.
    pub nic: Nic,
}

impl Endpoint for ClusterNode {
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
        self.node.next_event()
    }

    fn procs_done(&self) -> bool {
        self.node.runner.all_done()
    }

    fn stall_panic(&self, t: SimTime) -> String {
        format!("node block did not converge at {t}")
    }
}

/// The 10GbE scale-out cluster; drive like [`crate::McnSystem`].
///
/// Shard `i` of the windowed scheduler is the whole per-node block: the
/// node, its NIC, and its up/down links. The clock and drive methods
/// (`now`, `quantum`, `next_event`, `all_procs_done`, `run_parallel`,
/// `run_parallel_until`, `len`) are the ones every topology shares.
pub type EthernetCluster = Topology<EndpointBlock<ClusterNode>, Tor>;

impl EthernetCluster {
    /// Builds a cluster of `n` Table-II-class nodes on one switch.
    pub fn new(sys: &SystemConfig, n: usize) -> Self {
        let mut nodes = Vec::new();
        for i in 0..n {
            let mut node = Node::new(
                sys.host_cores,
                CostModel::host(),
                &sys.host_dram,
                sys.host_channels,
            );
            let mac = MacAddr::from_id(0x0300 + i as u16);
            let ip = Self::ip_of(i);
            node.stack.add_interface(NetConfig {
                mac,
                ip,
                mtu: mcn_net::MTU_ETHERNET,
                // Hardware checksum offload: no CPU checksum charges, no
                // software verification; FCS covers the wire.
                checksum: false,
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
                nic: Nic::new(),
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
        Topology::switched(sys, nodes, 0, false)
    }

    /// Enables frame loss/corruption on node `i`'s uplink (failure
    /// injection for TCP-recovery tests). The uplink is rebuilt with the
    /// bandwidth and latency the cluster was configured with.
    pub fn impair_uplink(&mut self, i: usize, drop: f64, corrupt: f64, seed: u64) {
        let up = self.shards[i].up_mut();
        *up = Link::new(up.bytes_per_sec(), up.latency()).with_impairments(drop, corrupt, seed);
    }

    /// The uplink (node `i` → switch), e.g. to read impairment counters.
    pub fn uplink(&self, i: usize) -> &Link {
        &self.shards[i].up
    }

    /// IP of node `i` (`10.0.0.(i+1)`).
    pub fn ip_of(i: usize) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, (i + 1) as u8)
    }

    /// Access node `i`.
    pub fn node(&self, i: usize) -> &ClusterNode {
        &self.shards[i].ep
    }

    /// Mutable access to node `i` (e.g. to bind sockets or spawn work).
    /// Clears the node block's cached next event, so the scheduler
    /// re-queries the node before it plans the next window.
    pub fn node_mut(&mut self, i: usize) -> &mut ClusterNode {
        self.shards[i].ep_mut()
    }

    /// Spawns a process on a core of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if node `i` has no core `core` ([`Node::spawn`]).
    pub fn spawn(&mut self, i: usize, proc: Box<dyn Process>, core: usize) -> ProcId {
        self.node_mut(i).node.spawn(proc, core)
    }

    /// A structured snapshot of the cluster for stall debugging: each
    /// node's blocked processes and socket states, plus NIC/link timers.
    pub fn stall_report(&self, title: &str) -> StallReport {
        let mut r = StallReport::new(format!(
            "{title} (cluster of {} @ {})",
            self.len(),
            self.now
        ));
        for (i, b) in self.shards.iter().enumerate() {
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
}

impl Instrumented for EthernetCluster {
    /// The baseline cluster tree: per node `node{N}.*` (the node's
    /// cpu/mem/stack plus its NIC under `node{N}.nic.*`), per-node
    /// uplink/downlink under `link{N}.up/.down`, the switch, the summed
    /// block accounting (`engine.*`), the windowed scheduler (`sched.*`)
    /// and the clock.
    fn metrics(&self, out: &mut MetricSink) {
        out.counter("now_ps", self.now.as_ps());
        out.absorb("switch", &self.coord.switch);
        for (i, b) in self.shards.iter().enumerate() {
            out.scoped(&format!("node{i}"), |out| {
                b.ep.node.metrics(out);
                out.absorb("nic", &b.ep.nic);
            });
            out.scoped(&format!("link{i}"), |out| {
                out.absorb("up", &b.up);
                out.absorb("down", &b.down);
            });
        }
        out.absorb("engine", &self.engine_stats());
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
    fn uplink_replaced_mid_stream_loses_only_its_frames() {
        // The uplink is rebuilt after the cluster has run, while a frame
        // on it is the earliest thing node 0's block waits for: the
        // frames on it die with the old link, TCP retransmits them, and
        // the stream still arrives whole.
        let mut c = mk(2);
        let lst = c.node_mut(1).node.stack.tcp_listen(5001).unwrap();
        let cs = c
            .node_mut(0)
            .node
            .stack
            .tcp_connect(EthernetCluster::ip_of(1), 5001, SimTime::ZERO)
            .unwrap();
        c.run_until(SimTime::from_ms(1));
        let ss = c.node_mut(1).node.stack.tcp_accept(lst).unwrap();
        let data: Vec<u8> = (0..64 * 1024u32).map(|i| (i % 251) as u8).collect();
        let now = c.now();
        let mut sent = c.node_mut(0).node.stack.tcp_send(cs, &data, now).unwrap();
        let uplink_first = |c: &EthernetCluster| {
            let n = c.node(0);
            c.uplink(0).next_arrival().is_some_and(|a| {
                [n.node.next_event(), n.nic.next_event()]
                    .into_iter()
                    .flatten()
                    .all(|t| t > a)
            })
        };
        let mut steps = 0;
        while !uplink_first(&c) {
            steps += 1;
            assert!(steps < 10_000, "node 0's uplink never led its block");
            c.run_until(c.now() + SimTime::from_ns(100));
        }
        c.impair_uplink(0, 0.0, 0.0, 1);
        assert!(
            c.uplink(0).next_arrival().is_none(),
            "the rebuilt uplink is empty"
        );
        // The whole first flight died, so no duplicate ACK can trigger a
        // fast retransmit: recovery waits for the first RTO.
        let mut got = Vec::new();
        let mut buf = vec![0u8; 65536];
        let mut pacing = Backoff::new(SimTime::from_ms(1), SimTime::from_ms(1), 10_000);
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
            c.stall_report("stream after uplink rebuild stalled")
        );
        assert_eq!(got, data);
        assert!(
            c.node(0)
                .node
                .stack
                .tcp_stats(cs)
                .is_some_and(|s| s.retransmits > 0),
            "the frames lost with the old uplink were retransmitted"
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
