//! The memcached-style KV server process.
//!
//! Runs on an MCN DIMM's cores: values live in the DIMM's own DRAM, so a
//! GET is a near-memory access answered over the memory-channel network —
//! the paper's "DIMMs as servers" scenario made concrete. The server is a
//! single-threaded event loop like memcached's worker: one request is in
//! service (its memory job running) at a time, later requests queue, and
//! admission control sheds load *before* it consumes memory bandwidth.
//!
//! ## Wire protocol (text-framed, fixed field order)
//!
//! | Request                      | Response                        |
//! |------------------------------|---------------------------------|
//! | `G <key>\n`                  | `V <len>\n<len bytes>` or `M\n` |
//! | `S <key> <len>\n<len bytes>` | `K\n`                           |
//! | (any, when shedding)         | `B\n`                           |
//!
//! ## Overload behaviour
//!
//! Three nested guards, cheapest first: the stack refuses SYNs beyond the
//! listener backlog (RST / silent drop, counted in `tcp.*`), the server
//! drops accepted connections beyond `max_conns` (counted `shed_conns`),
//! and requests beyond `inflight_budget` get `B\n` without touching memory
//! (counted `shed_requests`). Idle connections are closed after
//! `idle_timeout`, and half-open peers (crashed DIMM clients) are reaped
//! by TCP keepalive — both return their socket slots to the stack.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;

use mcn_net::SockId;
use mcn_node::mem::{Access, JobId};
use mcn_node::{Poll, ProcCtx, Process, Wake};
use mcn_sim::SimTime;

use crate::report::ServeReport;

/// One parsed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// `G <key>\n`.
    Get {
        /// Key id.
        key: u32,
    },
    /// `S <key> <len>\n` + `len` payload bytes.
    Set {
        /// Key id.
        key: u32,
        /// Value length in bytes.
        len: u32,
    },
}

/// Parses one complete request off the front of `buf`; returns the request
/// and the number of bytes it consumed (header line plus any payload), or
/// `None` if the buffer does not yet hold a complete request.
///
/// Malformed input maps to `None` forever — a real server would RST; the
/// deterministic fleet never sends garbage, so simplicity wins.
pub fn parse_request(buf: &[u8]) -> Option<(Request, usize)> {
    let nl = buf.iter().position(|&b| b == b'\n')?;
    let line = std::str::from_utf8(&buf[..nl]).ok()?;
    let mut parts = line.split(' ');
    let verb = parts.next()?;
    match verb {
        "G" => {
            let key = parts.next()?.parse().ok()?;
            Some((Request::Get { key }, nl + 1))
        }
        "S" => {
            let key = parts.next()?.parse().ok()?;
            let len: u32 = parts.next()?.parse().ok()?;
            let total = nl + 1 + len as usize;
            (buf.len() >= total).then_some((Request::Set { key, len }, total))
        }
        _ => None,
    }
}

/// Server knobs. The defaults suit the adversarial tests: small enough
/// that floods and bursts actually trip every guard.
#[derive(Debug, Clone)]
pub struct KvServerConfig {
    /// TCP port to serve on.
    pub port: u16,
    /// Listener SYN (half-open) backlog — excess SYNs dropped silently.
    pub syn_backlog: usize,
    /// Listener accept-queue bound — excess SYNs refused with RST.
    pub accept_backlog: usize,
    /// Concurrent accepted connections; excess are dropped at accept.
    pub max_conns: usize,
    /// Queued requests (in service + waiting) before `B\n` replies.
    pub inflight_budget: usize,
    /// CPU time charged per request (parse + hash + dispatch).
    pub per_req_cpu: SimTime,
    /// TCP keepalive as `(idle, interval, probes)`, or `None` to leave the
    /// node's stack configuration alone. Installed on the *stack* at first
    /// poll, so it covers every connection the listener spawns.
    pub keepalive: Option<(SimTime, SimTime, u32)>,
    /// Application-level idle timeout: connections with no complete
    /// request for this long are closed. `None` disables.
    pub idle_timeout: Option<SimTime>,
}

impl Default for KvServerConfig {
    fn default() -> Self {
        KvServerConfig {
            port: 11211,
            syn_backlog: 32,
            accept_backlog: 32,
            max_conns: 32,
            inflight_budget: 16,
            per_req_cpu: SimTime::from_ns(500),
            keepalive: Some((SimTime::from_ms(5), SimTime::from_ms(1), 3)),
            idle_timeout: Some(SimTime::from_ms(50)),
        }
    }
}

/// Span of DIMM DRAM the values live in (per-key regions are folded into
/// this window; 64 MiB keeps bank/row behaviour interesting).
const STORE_SPAN: u64 = 64 << 20;

#[derive(Debug)]
struct Conn {
    sock: SockId,
    rx: Vec<u8>,
    tx: Vec<u8>,
    last_req: SimTime,
    eof_seen: bool,
}

/// The serving process. Spawn on a DIMM core; see module docs.
pub struct KvServer {
    cfg: KvServerConfig,
    report: Arc<Mutex<ServeReport>>,
    listener: Option<SockId>,
    /// Token-stable slab: queue entries and the active job refer to
    /// connections by index, which must survive removals.
    conns: Vec<Option<Conn>>,
    /// Key → stored value length.
    store: HashMap<u32, u32>,
    /// Admitted requests waiting for the service unit.
    queue: VecDeque<(usize, Request)>,
    /// The request in service: its memory job and the prebuilt response.
    active: Option<(usize, JobId, Vec<u8>)>,
    /// Requests fully served (responses handed to TCP).
    served: u64,
}

impl KvServer {
    /// Creates a server; results go to the shared `report`.
    pub fn new(cfg: KvServerConfig, report: Arc<Mutex<ServeReport>>) -> Self {
        KvServer {
            cfg,
            report,
            listener: None,
            conns: Vec::new(),
            store: HashMap::new(),
            queue: VecDeque::new(),
            active: None,
            served: 0,
        }
    }

    /// Requests fully served so far.
    pub fn served(&self) -> u64 {
        self.served
    }

    fn live_conns(&self) -> usize {
        self.conns.iter().filter(|c| c.is_some()).count()
    }

    fn insert_conn(&mut self, conn: Conn) {
        match self.conns.iter().position(|c| c.is_none()) {
            Some(i) => self.conns[i] = Some(conn),
            None => self.conns.push(Some(conn)),
        }
    }

    /// Dispatches queued requests until one needs the memory system (its
    /// job becomes `active`) or the queue drains. Misses are answered
    /// inline: they touch no DRAM.
    fn start_service(&mut self, ctx: &mut ProcCtx<'_>) {
        while self.active.is_none() {
            let Some((token, req)) = self.queue.pop_front() else {
                return;
            };
            if self.conns[token].is_none() {
                continue; // connection died while queued
            }
            ctx.compute(self.cfg.per_req_cpu);
            match req {
                Request::Get { key } => match self.store.get(&key).copied() {
                    Some(len) => {
                        let start = (key as u64).wrapping_mul(4096) % STORE_SPAN;
                        let job = ctx.mem_stream(
                            start,
                            len as u64,
                            1.0,
                            Access::Rand { span: STORE_SPAN },
                        );
                        let mut resp = format!("V {len}\n").into_bytes();
                        resp.resize(resp.len() + len as usize, 0x56);
                        self.active = Some((token, job, resp));
                    }
                    None => {
                        self.report.lock().miss += 1;
                        if let Some(c) = &mut self.conns[token] {
                            c.tx.extend_from_slice(b"M\n");
                        }
                        self.served += 1;
                    }
                },
                Request::Set { key, len } => {
                    self.store.insert(key, len);
                    let start = (key as u64).wrapping_mul(4096) % STORE_SPAN;
                    let job =
                        ctx.mem_stream(start, len as u64, 0.0, Access::Rand { span: STORE_SPAN });
                    self.active = Some((token, job, b"K\n".to_vec()));
                }
            }
        }
    }
}

impl Process for KvServer {
    fn poll(&mut self, ctx: &mut ProcCtx<'_>) -> Poll {
        if self.listener.is_none() {
            if let Some((idle, intvl, probes)) = self.cfg.keepalive {
                ctx.stack.set_keepalive(idle, intvl, probes);
            }
            self.listener = Some(ctx.tcp_listen_with_backlog(
                self.cfg.port,
                self.cfg.syn_backlog,
                self.cfg.accept_backlog,
            ));
        }
        let listener = self.listener.expect("set above");

        // While a request is in service we wait on its job *alone* (the
        // single-threaded worker model), so reaching here with an active
        // job means the job completed: deliver the response.
        if let Some((token, _job, resp)) = self.active.take() {
            if let Some(c) = &mut self.conns[token] {
                c.tx.extend_from_slice(&resp);
            }
            self.served += 1;
        }

        // Admission gate 2: connections beyond the budget are dropped the
        // moment they surface (gate 1, the SYN/accept backlog, already ran
        // inside the stack).
        while let Some(sock) = ctx.tcp_accept(listener) {
            if self.live_conns() >= self.cfg.max_conns {
                self.report.lock().shed_conns += 1;
                ctx.tcp_drop(sock);
                continue;
            }
            self.insert_conn(Conn {
                sock,
                rx: Vec::new(),
                tx: Vec::new(),
                last_req: ctx.now,
                eof_seen: false,
            });
        }

        let mut buf = [0u8; 16384];
        for token in 0..self.conns.len() {
            let Some(conn) = &mut self.conns[token] else {
                continue;
            };
            let sock = conn.sock;
            // Dead peers (keepalive give-up, RST, RTO) free their slot now.
            if ctx.stack.tcp_failed(sock) {
                ctx.tcp_drop(sock);
                self.conns[token] = None;
                continue;
            }
            // Read and admit requests (gate 3: the in-flight budget).
            while ctx.stack.tcp_readable(sock) > 0 {
                let n = ctx.tcp_recv(sock, &mut buf);
                if n == 0 {
                    break;
                }
                let conn = self.conns[token].as_mut().expect("checked");
                conn.rx.extend_from_slice(&buf[..n]);
            }
            let conn = self.conns[token].as_mut().expect("checked");
            let mut consumed = 0;
            while let Some((req, used)) = parse_request(&conn.rx[consumed..]) {
                consumed += used;
                conn.last_req = ctx.now;
                if self.queue.len() >= self.cfg.inflight_budget {
                    conn.tx.extend_from_slice(b"B\n");
                    self.report.lock().shed_requests += 1;
                } else {
                    self.queue.push_back((token, req));
                }
            }
            conn.rx.drain(..consumed);
            conn.eof_seen = ctx.stack.tcp_at_eof(sock);
        }

        // Service unit: start the next memory job if idle.
        self.start_service(ctx);

        // Flush responses, then retire finished connections. A connection
        // closes when the peer closed (EOF), every admitted request has
        // been answered, and the answer bytes are with TCP.
        for token in 0..self.conns.len() {
            let Some(conn) = &mut self.conns[token] else {
                continue;
            };
            if !conn.tx.is_empty() {
                let sock = conn.sock;
                let tx = std::mem::take(&mut conn.tx);
                let sent = ctx.tcp_send(sock, &tx);
                let conn = self.conns[token].as_mut().expect("checked");
                conn.tx = tx[sent..].to_vec();
            }
            let conn = self.conns[token].as_ref().expect("checked");
            let in_service = self.queue.iter().any(|(t, _)| *t == token)
                || self.active.as_ref().is_some_and(|(t, ..)| *t == token);
            if conn.eof_seen && conn.tx.is_empty() && !in_service {
                ctx.tcp_close(conn.sock);
                self.conns[token] = None;
                continue;
            }
            if let Some(idle) = self.cfg.idle_timeout {
                if !in_service && ctx.now >= conn.last_req + idle {
                    ctx.tcp_close(conn.sock);
                    self.conns[token] = None;
                }
            }
        }

        // Single-threaded worker: an in-service request blocks everything
        // (head-of-line), which is exactly the overload dynamic the
        // admission control exists to bound.
        if let Some((_, job, _)) = &self.active {
            return Poll::Wait(vec![Wake::Job(*job)]);
        }
        let mut wakes = vec![Wake::Sock(listener)];
        wakes.extend(self.conns.iter().flatten().map(|c| Wake::Sock(c.sock)));
        if let Some(idle) = self.cfg.idle_timeout {
            if let Some(earliest) = self.conns.iter().flatten().map(|c| c.last_req).min() {
                wakes.push(Wake::Timer(earliest + idle));
            }
        }
        Poll::Wait(wakes)
    }

    fn name(&self) -> &str {
        "kv-server"
    }
}
