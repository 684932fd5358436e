//! Network microbenchmarks: iperf (Fig. 8a) and ping (Fig. 8b/c).
//!
//! Results escape the simulation through shared [`parking_lot::Mutex`]
//! report cells: the harness keeps a clone of the `Arc` and reads it after
//! the run.

use std::sync::Arc;

use parking_lot::Mutex;

use mcn_net::SockId;
use mcn_node::{Poll, ProcCtx, Process, Wake};
use mcn_sim::metrics::{Instrumented, MetricSink};
use mcn_sim::stats::{Histogram, RateMeter};
use mcn_sim::SimTime;

/// Shared measurement cell of an iperf endpoint.
#[derive(Debug, Default)]
pub struct IperfReport {
    /// Payload bytes received (server) or accepted for sending (client).
    pub meter: RateMeter,
    /// Endpoint finished (clients: sent everything; server: all clients
    /// closed).
    pub done: bool,
}

impl IperfReport {
    /// A fresh shared cell.
    pub fn shared() -> Arc<Mutex<IperfReport>> {
        Arc::new(Mutex::new(IperfReport::default()))
    }
}

impl Instrumented for IperfReport {
    /// The measurement window (`goodput.bytes` / `goodput.elapsed_ps`) and
    /// whether the endpoint finished.
    fn metrics(&self, out: &mut MetricSink) {
        out.meter("goodput", &self.meter);
        out.counter("done", self.done as u64);
    }
}

/// iperf server: accepts `expected_clients` connections on `port`, reads
/// and discards until every client closes. Bytes/timing go to the report
/// (measurement restarts after `warmup` to skip slow start, like iperf's
/// `--omit`).
pub struct IperfServer {
    port: u16,
    expected: usize,
    warmup: SimTime,
    report: Arc<Mutex<IperfReport>>,
    listener: Option<SockId>,
    conns: Vec<SockId>,
    closed: usize,
    warmup_done: bool,
}

impl IperfServer {
    /// Creates a server; see the type docs.
    pub fn new(
        port: u16,
        expected_clients: usize,
        warmup: SimTime,
        report: Arc<Mutex<IperfReport>>,
    ) -> Self {
        IperfServer {
            port,
            expected: expected_clients,
            warmup,
            report,
            listener: None,
            conns: Vec::new(),
            closed: 0,
            warmup_done: false,
        }
    }
}

impl Process for IperfServer {
    fn poll(&mut self, ctx: &mut ProcCtx<'_>) -> Poll {
        if self.listener.is_none() {
            self.listener = Some(ctx.stack.tcp_listen(self.port).expect("iperf port free"));
        }
        let listener = self.listener.expect("set above");
        while let Some(c) = ctx.tcp_accept(listener) {
            self.conns.push(c);
        }
        if !self.warmup_done && ctx.now >= self.warmup {
            self.report.lock().meter.restart(ctx.now);
            self.warmup_done = true;
        }
        let mut buf = [0u8; 65536];
        let mut total = 0u64;
        for i in 0..self.conns.len() {
            let c = self.conns[i];
            // epoll semantics: only issue recv syscalls on ready sockets.
            if ctx.stack.tcp_readable(c) == 0 {
                continue;
            }
            loop {
                let n = ctx.tcp_recv(c, &mut buf);
                if n == 0 {
                    break;
                }
                total += n as u64;
            }
        }
        if total > 0 {
            self.report.lock().meter.record(ctx.now, total);
        }
        // Count freshly closed connections.
        self.conns.retain(|&c| {
            if ctx.stack.tcp_at_eof(c) {
                self.closed += 1;
                false
            } else {
                true
            }
        });
        if self.closed >= self.expected {
            self.report.lock().done = true;
            return Poll::Done;
        }
        let mut wakes: Vec<Wake> = self.conns.iter().map(|&c| Wake::Sock(c)).collect();
        wakes.push(Wake::Sock(listener));
        if !self.warmup_done {
            wakes.push(Wake::Timer(self.warmup));
        }
        Poll::Wait(wakes)
    }

    fn name(&self) -> &str {
        "iperf-server"
    }
}

/// iperf client: connects to `server:port` and streams `total_bytes` of a
/// deterministic pattern as fast as the socket accepts, then closes.
pub struct IperfClient {
    server: std::net::Ipv4Addr,
    port: u16,
    total: u64,
    report: Arc<Mutex<IperfReport>>,
    sock: Option<SockId>,
    sent: u64,
    chunk: Vec<u8>,
}

impl IperfClient {
    /// Creates a client; see the type docs.
    pub fn new(
        server: std::net::Ipv4Addr,
        port: u16,
        total_bytes: u64,
        report: Arc<Mutex<IperfReport>>,
    ) -> Self {
        IperfClient {
            server,
            port,
            total: total_bytes,
            report,
            sock: None,
            sent: 0,
            chunk: (0..65536u32).map(|i| (i % 251) as u8).collect(),
        }
    }
}

impl Process for IperfClient {
    fn poll(&mut self, ctx: &mut ProcCtx<'_>) -> Poll {
        let sock = match self.sock {
            Some(s) => s,
            None => {
                let s = ctx
                    .tcp_connect(self.server, self.port)
                    .expect("route to iperf server");
                self.sock = Some(s);
                s
            }
        };
        if !ctx.tcp_established(sock) {
            return Poll::Wait(vec![Wake::Sock(sock)]);
        }
        while self.sent < self.total {
            let want = (self.total - self.sent).min(self.chunk.len() as u64) as usize;
            let n = ctx.tcp_send(sock, &self.chunk[..want]);
            if n == 0 {
                return Poll::Wait(vec![Wake::Sock(sock)]);
            }
            self.sent += n as u64;
            self.report.lock().meter.record(ctx.now, n as u64);
        }
        ctx.tcp_close(sock);
        self.report.lock().done = true;
        Poll::Done
    }

    fn name(&self) -> &str {
        "iperf-client"
    }
}

/// Shared measurement cell of a [`Pinger`].
#[derive(Debug, Default)]
pub struct PingReport {
    /// Round-trip times of completed echoes.
    pub rtts: Histogram,
    /// Echo replies received.
    pub replies: u64,
    /// Prober finished.
    pub done: bool,
}

impl PingReport {
    /// A fresh shared cell.
    pub fn shared() -> Arc<Mutex<PingReport>> {
        Arc::new(Mutex::new(PingReport::default()))
    }
}

/// Sends `count` ICMP echoes of `payload` bytes to `target`, one at a time
/// (the next goes out when the previous reply arrives), recording RTTs.
pub struct Pinger {
    target: std::net::Ipv4Addr,
    payload: usize,
    count: u16,
    ident: u16,
    report: Arc<Mutex<PingReport>>,
    next_seq: u16,
    sent_at: Option<SimTime>,
}

impl Pinger {
    /// Creates a prober; see the type docs.
    pub fn new(
        target: std::net::Ipv4Addr,
        payload: usize,
        count: u16,
        ident: u16,
        report: Arc<Mutex<PingReport>>,
    ) -> Self {
        Pinger {
            target,
            payload,
            count,
            ident,
            report,
            next_seq: 0,
            sent_at: None,
        }
    }
}

impl Process for Pinger {
    fn poll(&mut self, ctx: &mut ProcCtx<'_>) -> Poll {
        // Collect any replies addressed to us.
        while let Some((_, ident, _seq, _len)) = ctx.stack.pop_ping_reply() {
            if ident != self.ident {
                continue; // some other prober's reply
            }
            if let Some(at) = self.sent_at.take() {
                let mut r = self.report.lock();
                r.rtts.record(ctx.now - at);
                r.replies += 1;
            }
        }
        if self.sent_at.is_some() {
            return Poll::Wait(vec![Wake::AnyPing]);
        }
        if self.next_seq >= self.count {
            self.report.lock().done = true;
            return Poll::Done;
        }
        self.next_seq += 1;
        self.sent_at = Some(ctx.now);
        ctx.ping(self.target, self.ident, self.next_seq, self.payload);
        Poll::Wait(vec![Wake::AnyPing])
    }

    fn name(&self) -> &str {
        "ping"
    }
}
