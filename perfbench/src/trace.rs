//! The traced run's instruments, all outside the program: spans around
//! the benchmark's own calls into each layer, layer counters summed from
//! the deterministic registry, and per-call host costs of each layer's
//! public functions fed inputs shaped like the workloads.

use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

use bytes::Bytes;
use mcn::sram_mod::{Dir, SramBuffer};
use mcn::{Component, McnConfig, McnSystem, SystemConfig};
use mcn_dram::{Channel, MemKind, MemRequest};
use mcn_net::{EthernetFrame, IpProto, Ipv4Packet, MacAddr, TcpFlags, TcpSegment};
use mcn_node::mem::DEFAULT_MLP;
use mcn_sim::{EventQueue, MetricValue, MetricsSnapshot, SimTime};

use crate::workloads::{fleet_latency, Built, Kind};

/// One timed interval of the benchmark.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub rep: usize,
}

/// Records spans in memory when enabled; a disabled tracer only runs
/// the closures, so untraced timings carry no tracing cost.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    open: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, rep: usize, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            rep,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Durations in seconds of every recorded span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    }

    /// The spans as a JSON array, one object per line.
    pub fn to_json(&self, workload: &str) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                     \"workload\":\"{workload}\",\"rep\":{}}}",
                    s.name, s.start_ns, s.end_ns, s.rep
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

fn sum(snap: &MetricsSnapshot, pred: impl Fn(&str) -> bool) -> f64 {
    snap.iter()
        .filter(|(p, _)| pred(p))
        .fold(0.0, |acc, (_, v)| acc + v.as_f64())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The McnSystems of a built workload.
fn systems(b: &Built) -> Vec<&McnSystem> {
    match b {
        Built::Iperf { rack, .. } => (0..rack.len()).map(|s| rack.server(s)).collect(),
        Built::Kv { dc, .. } => (0..dc.racks())
            .flat_map(|r| {
                let rack = dc.rack(r);
                (0..rack.len()).map(move |s| rack.server(s))
            })
            .collect(),
        Built::Cg { sys, .. } => vec![sys],
    }
}

fn engine_totals(b: &Built) -> (u64, u64, usize) {
    let mut v = Vec::new();
    match b {
        Built::Iperf { rack, .. } => rack.engine_accounting(&mut v),
        Built::Kv { dc, .. } => dc.engine_accounting(&mut v),
        Built::Cg { sys, .. } => sys.engine_accounting(&mut v),
    }
    v.iter().fold((0, 0, 0), |(polls, rounds, comps), (s, n)| {
        (
            polls + s.component_polls.get(),
            rounds + s.rounds.get(),
            comps + n,
        )
    })
}

/// Deterministic per-layer counters of one driven repetition, read from
/// its registry (`snap`) and, for the CPU busy fraction, the nodes'
/// core counts.
pub fn layer_counters(b: &Built, snap: &MetricsSnapshot) -> Vec<(&'static str, f64)> {
    let now_ps = sum(snap, |p| p == "sim.now_ps");
    let (polls, rounds, _) = engine_totals(b);
    let is_ch = |p: &str, field: &str| p.contains(".mem.ch") && p.ends_with(field);
    let reads = sum(snap, |p| is_ch(p, ".reads"));
    let writes = sum(snap, |p| is_ch(p, ".writes"));
    let activates = sum(snap, |p| is_ch(p, ".activates"));
    let touched = snap
        .iter()
        .filter(|(p, v)| is_ch(p, ".reads") && v.as_f64() > 0.0)
        .count() as f64;
    let drv = |field: &str| sum(snap, |p| p.ends_with(&format!(".driver.{field}")));
    let drv_mean_ns = |hist: &str| {
        let (mut weighted, mut count) = (0.0, 0.0);
        for (p, v) in snap.iter() {
            if let Some(stem) = p.strip_suffix(&format!(".driver.{hist}.count")) {
                let n = v.as_f64();
                let mean = snap
                    .get(&format!("{stem}.driver.{hist}.mean_ps"))
                    .map_or(0.0, MetricValue::as_f64);
                weighted += n * mean;
                count += n;
            }
        }
        ratio(weighted, count) / 1e3
    };
    let tcp = |field: &str| sum(snap, |p| p.ends_with(&format!(".stack.tcp.{field}")));
    let serve = |field: &str| {
        sum(snap, |p| {
            p.starts_with("serve.") && p.ends_with(&format!(".{field}"))
        })
    };
    let (mut busy_ps, mut cores) = (0.0, 0.0);
    for sys in systems(b) {
        busy_ps += sys.host.cpus.total_busy().as_ps() as f64;
        cores += sys.host.cpus.cores() as f64;
        for d in 0..sys.dimms() {
            busy_ps += sys.dimm(d).node.cpus.total_busy().as_ps() as f64;
            cores += sys.dimm(d).node.cpus.cores() as f64;
        }
    }
    let reused = sum(snap, |p| p.ends_with("sched.pool.reused"));
    let allocated = sum(snap, |p| p.ends_with("sched.pool.allocated"));
    let [intra, cross] = fleet_latency(b).map_or([(0.0, 0.0, 0.0); 2], |f| {
        f.map(|l| (l.p50_us, l.p99_us, l.answered as f64))
    });
    vec![
        ("sim.component_polls", polls as f64),
        ("sim.rounds", rounds as f64),
        (
            "sim.sched_windows",
            sum(snap, |p| p.ends_with("sched.windows")),
        ),
        (
            "sim.sched_batch_jobs",
            sum(snap, |p| p.ends_with("sched.batch.jobs")),
        ),
        (
            "sim.cross_pod_barriers",
            sum(snap, |p| p == "sim.sched.domain.cross_pod.barriers"),
        ),
        (
            "sim.intra_rack_windows",
            sum(snap, |p| p == "sim.sched.domain.intra_rack.windows"),
        ),
        ("sim.pool_hit_ratio", ratio(reused, reused + allocated)),
        ("dram.reads", reads),
        ("dram.writes", writes),
        (
            "dram.row_hit_ratio",
            ratio(reads + writes - activates, reads + writes),
        ),
        (
            "dram.busy_frac",
            ratio(sum(snap, |p| is_ch(p, ".busy_ps")), touched * now_ps),
        ),
        ("dram.refreshes", sum(snap, |p| is_ch(p, ".refreshes"))),
        ("mcn.driver_tx_frames", drv("tx_frames")),
        ("mcn.driver_rx_frames", drv("rx_frames")),
        ("mcn.ring_full_drops", drv("ring_full_drops")),
        ("mcn.driver_tx_mean_ns", drv_mean_ns("driver_tx")),
        ("mcn.driver_rx_mean_ns", drv_mean_ns("driver_rx")),
        (
            "mcn.fabric_routed",
            sum(snap, |p| p == "sim.fabric.ecmp.routed"),
        ),
        (
            "mcn.fabric_dead_drops",
            sum(snap, |p| {
                p.starts_with("sim.fabric.") && p.ends_with(".dead_drops")
            }),
        ),
        ("net.data_segs_out", tcp("data_segs_out")),
        ("net.retransmits", tcp("retransmits")),
        ("net.timeouts", tcp("timeouts")),
        ("net.bytes_delivered", tcp("bytes_delivered")),
        (
            "net.switch_forwarded",
            sum(snap, |p| p.ends_with("switch.forwarded")),
        ),
        (
            "node.nic_tx_frames",
            sum(snap, |p| p.contains(".nic") && p.ends_with(".tx_frames")),
        ),
        ("node.cpu_busy_frac", ratio(busy_ps, cores * now_ps)),
        ("serve.issued", serve("issued")),
        ("serve.gave_up", serve("gave_up")),
        ("serve.retry_budget_spent", serve("retry_budget_spent")),
        ("serve.intra_p50_us", intra.0),
        ("serve.intra_p99_us", intra.1),
        ("serve.intra_answered", intra.2),
        ("serve.cross_p50_us", cross.0),
        ("serve.cross_p99_us", cross.1),
        ("serve.cross_answered", cross.2),
    ]
}

/// Host nanoseconds per call of each layer's public functions.
#[derive(Debug, Clone, Copy)]
pub struct CallCosts {
    /// One `EventQueue` pop plus one schedule at the workload's depth.
    pub queue_ns_per_event: f64,
    /// One 64 B line through a DRAM `Channel`, sequential addresses.
    pub dram_ns_per_line_seq: f64,
    /// The same with random addresses.
    pub dram_ns_per_line_rand: f64,
    /// One refresh of an otherwise idle channel.
    pub dram_ns_per_refresh: f64,
    /// One `SramBuffer` push plus pop of a workload-sized frame.
    pub sram_ns_per_frame: f64,
    /// Ethernet/IPv4/TCP encode plus decode of a workload-sized frame.
    pub codec_ns_per_frame: f64,
}

/// Calls `f` (which does `per_call` calls of one function) until
/// `budget` has passed and returns the median nanoseconds per call over
/// the batches.
fn ns_per_call(budget: Duration, per_call: u64, mut f: impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || start.elapsed() < budget {
        let t = Instant::now();
        black_box(f());
        samples.push(t.elapsed().as_nanos() as f64 / per_call as f64);
    }
    crate::median(&mut samples)
}

/// A 64-bit LCG: deterministic, cheap addresses and times.
fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *x >> 17
}

/// Measures [`CallCosts`] for `kind`: the event queue at the depth of the
/// workload's engines, and frames of the workload's typical size (9000 B
/// jumbo frames for bulk TCP, a 512 B value plus headers for KV).
pub fn call_costs(kind: Kind, b: &Built) -> CallCosts {
    let budget = Duration::from_millis(150);
    let depth = engine_totals(b).2.max(8);
    let frame = if kind == Kind::KvDcSpine { 600 } else { 9000 };

    let queue_ns_per_event = {
        let mut q = EventQueue::new();
        let mut x = 1;
        for i in 0..depth {
            q.schedule(SimTime::from_ns(lcg(&mut x) % 10_000), i);
        }
        ns_per_call(budget, 10_000, || {
            let mut acc = 0;
            for _ in 0..10_000 {
                let (t, v) = q.pop().expect("queue holds `depth` events");
                q.schedule(t + SimTime::from_ns(1 + lcg(&mut x) % 10_000), v);
                acc += v as u64;
            }
            acc
        })
    };

    // Lines arrive as the nodes' memory jobs issue them: one frame's
    // worth per job, at most `DEFAULT_MLP` outstanding.
    let dram = |random: bool| {
        let mut ch = Channel::new(&SystemConfig::default().mcn_dram, 0);
        let (mut now, mut x) = (SimTime::ZERO, 7);
        let burst = (frame as u64).div_ceil(64);
        let mlp = u64::from(DEFAULT_MLP);
        let lines = 16 * burst;
        ns_per_call(budget, lines, || {
            let (mut issued, mut done) = (0u64, 0u64);
            while done < lines {
                let burst_end = (done + burst).min(lines);
                while issued < burst_end && issued - done < mlp && ch.can_accept(MemKind::Read) {
                    let addr = if random {
                        (lcg(&mut x) % (1 << 24)) * 64
                    } else {
                        issued * 64
                    };
                    ch.push(MemRequest::read(addr, issued), now);
                    issued += 1;
                }
                now = ch.next_event().expect("requests outstanding").max(now);
                done += ch.advance(now).len() as u64;
            }
            done
        })
    };

    // An idle channel that has seen traffic still wakes for every
    // refresh: the cost of simulating one.
    let dram_ns_per_refresh = {
        let mut ch = Channel::new(&SystemConfig::default().mcn_dram, 0);
        ch.push(MemRequest::read(0, 0), SimTime::ZERO);
        ns_per_call(budget, 1000, || {
            let before = ch.stats().refreshes.get();
            while ch.stats().refreshes.get() < before + 1000 {
                let t = ch.next_event().expect("refresh pending");
                black_box(ch.advance(t));
            }
            ch.stats().refreshes.get()
        })
    };

    let sram_ns_per_frame = {
        let msg = vec![0x5Au8; frame];
        let mut ring = SramBuffer::new(SystemConfig::default().sram_ring_bytes);
        ns_per_call(budget, 1000, || {
            let mut acc = 0;
            for _ in 0..1000 {
                ring.push(Dir::Tx, &msg).expect("ring drained every call");
                acc += ring.pop(Dir::Tx).expect("just pushed").len() as u64;
            }
            acc
        })
    };

    let codec_ns_per_frame = {
        let checksum = !McnConfig::level(3).checksum_bypass;
        let (src, dst) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
        let seg = TcpSegment {
            src_port: 11211,
            dst_port: 40000,
            seq: 1,
            ack: 2,
            flags: TcpFlags::ACK,
            window: 1000,
            mss: None,
            wscale: None,
            payload: Bytes::from(vec![7u8; frame - 54]),
            checksum_ok: true,
        };
        ns_per_call(budget, 200, || {
            let mut acc = 0;
            for i in 0..200u16 {
                let ip = Ipv4Packet::new(
                    src,
                    dst,
                    IpProto::Tcp,
                    i,
                    seg.encode(src, dst, checksum).into(),
                );
                let wire = EthernetFrame::ipv4(
                    MacAddr::from_id(1),
                    MacAddr::from_id(2),
                    ip.encode().into(),
                )
                .encode();
                let f = EthernetFrame::decode(&wire).expect("well-formed frame");
                let p = Ipv4Packet::decode(&f.payload).expect("well-formed packet");
                let s = TcpSegment::decode(&p.payload, p.src, p.dst, checksum)
                    .expect("well-formed segment");
                acc += s.payload.len() as u64;
            }
            acc
        })
    };

    CallCosts {
        queue_ns_per_event,
        dram_ns_per_line_seq: dram(false),
        dram_ns_per_line_rand: dram(true),
        dram_ns_per_refresh,
        sram_ns_per_frame,
        codec_ns_per_frame,
    }
}

/// Each layer's estimated share of the drive time: its per-call cost
/// times the number of calls the workload made, over `drive_s`.
///
/// * `sim`: one queue pop and schedule per component poll;
/// * `dram`: one line per read or write, priced between the sequential
///   and random cost by the row-hit ratio, plus each refresh;
/// * `mcn`: one ring push and pop per frame a driver sent;
/// * `net`: one encode and decode per frame a stack sent.
pub fn est_shares(
    counters: &[(&'static str, f64)],
    snap: &MetricsSnapshot,
    costs: &CallCosts,
    drive_s: f64,
) -> Vec<(&'static str, f64)> {
    let get = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let hit = get("dram.row_hit_ratio");
    let line_ns = hit * costs.dram_ns_per_line_seq + (1.0 - hit) * costs.dram_ns_per_line_rand;
    let frames_out = sum(snap, |p| p.ends_with(".stack.frames_out"));
    let drive_ns = drive_s * 1e9;
    let shares = [
        (
            "sim.est_share",
            get("sim.component_polls") * costs.queue_ns_per_event,
        ),
        (
            "dram.est_share",
            (get("dram.reads") + get("dram.writes")) * line_ns
                + get("dram.refreshes") * costs.dram_ns_per_refresh,
        ),
        (
            "mcn.est_share",
            get("mcn.driver_tx_frames") * costs.sram_ns_per_frame,
        ),
        ("net.est_share", frames_out * costs.codec_ns_per_frame),
    ]
    .map(|(n, ns)| (n, ratio(ns, drive_ns)));
    let attributed: f64 = shares.iter().map(|(_, s)| s).sum();
    let mut out = shares.to_vec();
    out.push(("unattributed_share", 1.0 - attributed));
    out
}
