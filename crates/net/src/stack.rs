//! The per-node network stack: interfaces, routes, sockets, demux.

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::net::Ipv4Addr;

use bytes::Bytes;

use mcn_sim::metrics::{Instrumented, MetricSink};
use mcn_sim::stats::Counter;
use mcn_sim::SimTime;

use crate::ether::{EtherType, EthernetFrame, MacAddr};
use crate::icmp::{IcmpKind, IcmpMessage};
use crate::ip::{IpProto, Ipv4Packet, Reassembler};
use crate::tcp::{TcpConfig, TcpConn, TcpState};
use crate::tcp_wire::{TcpFlags, TcpSegment};
use crate::udp::UdpDatagram;

/// Interface configuration. One is created per virtual Ethernet device —
/// for a host in the paper's setup that means one per MCN DIMM plus a
/// conventional NIC; for an MCN node exactly one (Sec. III-B).
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Interface MAC address.
    pub mac: MacAddr,
    /// Interface IPv4 address.
    pub ip: Ipv4Addr,
    /// MTU in bytes of IP packet (1500 conventional, 9000 for `mcn3`+).
    pub mtu: usize,
    /// Compute checksums on transmit, verify them on receive; off = the
    /// `mcn2` bypass or hardware offload.
    pub checksum: bool,
    /// TCP segmentation offload: let TCP emit super-MTU segments and leave
    /// slicing (or, over MCN, nothing at all) to the device (`mcn4`).
    pub tso: bool,
}

impl NetConfig {
    /// A conventional Ethernet interface: 1.5 KB MTU, checksums on, no TSO.
    pub fn ethernet(mac: MacAddr, ip: Ipv4Addr) -> Self {
        NetConfig {
            mac,
            ip,
            mtu: crate::MTU_ETHERNET,
            checksum: true,
            tso: false,
        }
    }
}

/// Socket handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SockId(pub usize);

/// Activity notification for the owner of a socket; the node layer uses
/// these to wake blocked processes. Spurious notifications are allowed —
/// consumers re-check their condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketEvent {
    /// Something happened on this socket (data, state change, accept queue).
    Activity(SockId),
    /// An ICMP echo reply arrived (ident, seq, payload bytes).
    PingReply(u16, u16, usize),
}

#[derive(Debug)]
enum Socket {
    TcpListener {
        port: u16,
        pending: VecDeque<SockId>,
        /// Max embryonic (SynRcvd) connections; excess SYNs are silently
        /// dropped and counted — the client retransmits, like a full SYN
        /// queue without SYN cookies.
        syn_backlog: usize,
        /// Max fully established, not-yet-accepted connections; excess
        /// SYNs are answered with RST (reject-fast) and counted.
        accept_backlog: usize,
    },
    Tcp {
        conn: Box<TcpConn>,
        ifidx: usize,
    },
    Udp {
        port: u16,
        rx: VecDeque<(Ipv4Addr, u16, Bytes)>,
    },
    Closed,
}

#[derive(Debug)]
struct Interface {
    cfg: NetConfig,
    out: VecDeque<EthernetFrame>,
    /// Carrier state: while down, egress and ingress frames are dropped
    /// (and counted) — transports recover via retransmission after the
    /// link heals, or fail with a dead-peer error if it never does.
    up: bool,
}

#[derive(Debug, Clone, Copy)]
struct Route {
    dest: Ipv4Addr,
    mask: Ipv4Addr,
    ifidx: usize,
    gateway: Option<Ipv4Addr>,
}

/// Errors surfaced by socket operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackError {
    /// No route to the destination.
    NoRoute,
    /// The port is already bound.
    PortInUse,
    /// The socket handle is invalid or of the wrong kind.
    BadSocket,
    /// No neighbor (MAC) known for the next hop.
    NoNeighbor,
}

impl std::fmt::Display for StackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StackError::NoRoute => write!(f, "no route to destination"),
            StackError::PortInUse => write!(f, "port already in use"),
            StackError::BadSocket => write!(f, "invalid socket handle"),
            StackError::NoNeighbor => write!(f, "no neighbor entry for next hop"),
        }
    }
}

impl std::error::Error for StackError {}

/// Stack-level statistics.
#[derive(Debug, Default, Clone)]
pub struct StackStats {
    /// Frames delivered to this stack.
    pub frames_in: Counter,
    /// Frames queued for transmission.
    pub frames_out: Counter,
    /// Packets dropped: bad L2 destination.
    pub drop_l2: Counter,
    /// Packets dropped: failed IP/transport checksum.
    pub drop_checksum: Counter,
    /// Packets dropped: not for a local address.
    pub drop_not_local: Counter,
    /// Packets dropped: no matching socket.
    pub drop_no_socket: Counter,
    /// Packets dropped: structurally malformed (undecodable header, bad
    /// lengths, truncation) — distinct from checksum failures on
    /// well-formed packets.
    pub malformed: Counter,
    /// ICMP echo requests answered.
    pub echo_replies: Counter,
    /// Frames dropped (either direction) because the interface's link was
    /// down.
    pub link_drops: Counter,
    /// SYNs silently dropped because the listener's SYN (half-open) backlog
    /// was full.
    pub syn_drops: Counter,
    /// SYNs answered with RST because the listener's accept queue was full
    /// (reject-fast load shedding).
    pub accept_overflows: Counter,
    /// Queued connections that died before the application accepted them
    /// (reset mid-handshake) and were reclaimed by `tcp_accept`.
    pub accept_prunes: Counter,
    /// Socket slots recycled after the connection finished its lifecycle
    /// through TIME_WAIT (ports freed for reuse).
    pub time_wait_reaped: Counter,
    /// Socket slots recycled after a clean close (both directions FINned,
    /// buffers drained) — includes `time_wait_reaped`.
    pub slots_reaped: Counter,
}

/// One node's TCP/IPv4 network stack.
///
/// Passive and time-explicit; see the crate docs for the driving contract.
#[derive(Debug)]
pub struct NetStack {
    ifaces: Vec<Interface>,
    routes: Vec<Route>,
    neighbors: HashMap<Ipv4Addr, MacAddr>,
    /// MAC used when no neighbor entry matches (the MCN-side driver sets
    /// this so "outside world" packets carry a MAC matching no interface —
    /// the host forwarding engine's F4 case).
    fallback_neighbor: Option<MacAddr>,
    sockets: Vec<Socket>,
    /// (local ip, local port, remote ip, remote port) → socket index.
    conn_map: HashMap<(Ipv4Addr, u16, Ipv4Addr, u16), usize>,
    tcp_listeners: HashMap<u16, usize>,
    udp_ports: HashMap<u16, usize>,
    tcp_base: TcpConfig,
    reasm: Reassembler,
    loopback: VecDeque<Ipv4Packet>,
    events: Vec<SocketEvent>,
    ping_rx: VecDeque<(Ipv4Addr, u16, u16, usize)>,
    next_ident: u16,
    next_port: u16,
    next_isn: u32,
    /// Accumulated statistics of reaped (recycled) connection slots, so
    /// [`tcp_totals`](Self::tcp_totals) never goes backwards when a slot
    /// is freed.
    dead_tcp: crate::tcp::TcpStats,
    /// [`scan_timers`](Self::scan_timers)'s answer. Every path that can
    /// arm, fire or cancel a connection's timer, or create or free a
    /// socket, clears it first.
    timer: Cell<Option<Option<SimTime>>>,
    /// Aggregate statistics.
    pub stats: StackStats,
}

impl NetStack {
    /// Creates a stack with no interfaces and the given base TCP tuning.
    pub fn new(tcp_base: TcpConfig) -> Self {
        NetStack {
            ifaces: Vec::new(),
            routes: Vec::new(),
            neighbors: HashMap::new(),
            fallback_neighbor: None,
            sockets: Vec::new(),
            conn_map: HashMap::new(),
            tcp_listeners: HashMap::new(),
            udp_ports: HashMap::new(),
            tcp_base,
            reasm: Reassembler::new(),
            loopback: VecDeque::new(),
            events: Vec::new(),
            ping_rx: VecDeque::new(),
            next_ident: 1,
            next_port: 33000,
            next_isn: 1_000_000,
            dead_tcp: crate::tcp::TcpStats::default(),
            timer: Cell::new(None),
            stats: StackStats::default(),
        }
    }

    /// Enables TCP keepalive for connections created *after* this call
    /// (like setting `SO_KEEPALIVE` plus the `TCP_KEEPIDLE`/`KEEPINTVL`/
    /// `KEEPCNT` knobs on new sockets): after `idle` without traffic, up to
    /// `probes` probes are sent `intvl` apart before the peer is declared
    /// dead with [`TcpError::KeepaliveTimeout`](crate::tcp::TcpError).
    pub fn set_keepalive(&mut self, idle: SimTime, intvl: SimTime, probes: u32) {
        self.tcp_base.keepalive_idle = Some(idle);
        self.tcp_base.keepalive_intvl = intvl;
        self.tcp_base.keepalive_probes = probes;
    }

    /// Adds an interface; returns its index.
    pub fn add_interface(&mut self, cfg: NetConfig) -> usize {
        self.ifaces.push(Interface {
            cfg,
            out: VecDeque::new(),
            up: true,
        });
        self.ifaces.len() - 1
    }

    /// Takes the interface's carrier down: frames already queued for
    /// transmission are lost (counted in `link_drops`), as is everything
    /// sent or received until [`link_up`](Self::link_up). TCP connections
    /// over the interface keep retransmitting on their timers and either
    /// recover after the link heals or fail with
    /// [`TcpError::TimedOut`](crate::tcp::TcpError::TimedOut).
    pub fn link_down(&mut self, ifidx: usize) {
        let iface = &mut self.ifaces[ifidx];
        if !iface.up {
            return;
        }
        iface.up = false;
        let lost = iface.out.len() as u64;
        iface.out.clear();
        self.stats.link_drops.add(lost);
    }

    /// Restores the interface's carrier.
    pub fn link_up(&mut self, ifidx: usize) {
        self.ifaces[ifidx].up = true;
    }

    /// Adds a route. `mask` 255.255.255.255 gives the paper's host-side /32
    /// point-to-point semantics; `dest`/`mask` 0.0.0.0 gives the MCN-side
    /// match-everything default route (optionally via a `gateway` whose MAC
    /// is used for all traffic).
    pub fn add_route(
        &mut self,
        dest: Ipv4Addr,
        mask: Ipv4Addr,
        ifidx: usize,
        gateway: Option<Ipv4Addr>,
    ) {
        self.routes.push(Route {
            dest,
            mask,
            ifidx,
            gateway,
        });
        // Longest prefix first.
        self.routes
            .sort_by_key(|r| std::cmp::Reverse(u32::from(r.mask)));
    }

    /// Registers a static neighbor (our substitute for ARP).
    pub fn add_neighbor(&mut self, ip: Ipv4Addr, mac: MacAddr) {
        self.neighbors.insert(ip, mac);
    }

    /// Sets the MAC used when no neighbor entry matches the next hop.
    pub fn set_fallback_neighbor(&mut self, mac: MacAddr) {
        self.fallback_neighbor = Some(mac);
    }

    fn is_local(&self, ip: Ipv4Addr) -> bool {
        ip.is_loopback() || self.ifaces.iter().any(|i| i.cfg.ip == ip)
    }

    fn route(&self, dst: Ipv4Addr) -> Result<Route, StackError> {
        self.routes
            .iter()
            .find(|r| {
                let m = u32::from(r.mask);
                (u32::from(dst) & m) == (u32::from(r.dest) & m)
            })
            .copied()
            .ok_or(StackError::NoRoute)
    }

    fn alloc_port(&mut self) -> u16 {
        loop {
            let p = self.next_port;
            self.next_port = self.next_port.wrapping_add(1).max(32768);
            let in_use = self.udp_ports.contains_key(&p)
                || self.tcp_listeners.contains_key(&p)
                || self.conn_map.keys().any(|(_, lp, _, _)| *lp == p);
            if !in_use {
                return p;
            }
        }
    }

    fn alloc_sock(&mut self, s: Socket) -> SockId {
        self.timer.set(None);
        for (i, slot) in self.sockets.iter_mut().enumerate() {
            if matches!(slot, Socket::Closed) {
                *slot = s;
                return SockId(i);
            }
        }
        self.sockets.push(s);
        SockId(self.sockets.len() - 1)
    }

    // ---------------- TCP sockets ----------------

    /// Opens a listening socket on `port` (any local address) with a
    /// generous default backlog (1024 half-open + 1024 accept-queued).
    ///
    /// # Errors
    ///
    /// [`StackError::PortInUse`] if something already listens there.
    pub fn tcp_listen(&mut self, port: u16) -> Result<SockId, StackError> {
        self.tcp_listen_with_backlog(port, 1024, 1024)
    }

    /// Opens a listening socket with explicit queue bounds: at most
    /// `syn_backlog` embryonic (SYN-received) connections — excess SYNs
    /// are silently dropped and counted in `syn_drops` — and at most
    /// `accept_backlog` established connections awaiting `accept` —
    /// excess SYNs are refused with RST and counted in `accept_overflows`.
    /// Both bounds are clamped to at least 1.
    ///
    /// # Errors
    ///
    /// [`StackError::PortInUse`] if something already listens there.
    pub fn tcp_listen_with_backlog(
        &mut self,
        port: u16,
        syn_backlog: usize,
        accept_backlog: usize,
    ) -> Result<SockId, StackError> {
        if self.tcp_listeners.contains_key(&port) {
            return Err(StackError::PortInUse);
        }
        let id = self.alloc_sock(Socket::TcpListener {
            port,
            pending: VecDeque::new(),
            syn_backlog: syn_backlog.max(1),
            accept_backlog: accept_backlog.max(1),
        });
        self.tcp_listeners.insert(port, id.0);
        Ok(id)
    }

    /// Accepts a pending connection, if any.
    ///
    /// Connections are queued at SYN time, so one can die *in the queue* —
    /// reset mid-handshake (a flood victim's RST) before the application
    /// gets to it. Handing out such a corpse would be indistinguishable
    /// from a connection that failed after accept, so dead queue entries
    /// are pruned here instead: stats merged, 4-tuple freed, slot
    /// recycled, `accept_prunes` incremented — and the next entry tried.
    pub fn tcp_accept(&mut self, listener: SockId) -> Option<SockId> {
        self.timer.set(None);
        loop {
            let id = match self.sockets.get_mut(listener.0) {
                Some(Socket::TcpListener { pending, .. }) => pending.pop_front()?,
                _ => return None,
            };
            match &self.sockets[id.0] {
                Socket::Tcp { conn, .. } if conn.error().is_none() => return Some(id),
                Socket::Tcp { conn, .. } => {
                    // Died in the queue: the application never saw the
                    // handle, so nothing is lost by reclaiming it now
                    // (it is already Closed — nothing left to flush).
                    self.dead_tcp.merge(conn.stats());
                    self.conn_map.remove(&conn.key());
                    self.sockets[id.0] = Socket::Closed;
                    self.stats.accept_prunes.inc();
                }
                _ => {}
            }
        }
    }

    /// Initiates a connection to `dst:dport`; returns the socket handle
    /// immediately (poll [`tcp_state`](Self::tcp_state) for establishment).
    ///
    /// # Errors
    ///
    /// [`StackError::NoRoute`] when `dst` is unreachable.
    pub fn tcp_connect(
        &mut self,
        dst: Ipv4Addr,
        dport: u16,
        now: SimTime,
    ) -> Result<SockId, StackError> {
        // Local destinations need no route: the connection runs over
        // loopback through the interface owning the address.
        let ifidx = if self.is_local(dst) {
            self.ifaces
                .iter()
                .position(|i| i.cfg.ip == dst)
                .unwrap_or(0)
        } else {
            self.route(dst)?.ifidx
        };
        let local_ip = if self.is_local(dst) {
            dst
        } else {
            self.ifaces[ifidx].cfg.ip
        };
        let lport = self.alloc_port();
        let (cfg, isn) = self.conn_cfg(ifidx);
        let conn = TcpConn::connect((local_ip, lport), (dst, dport), cfg, isn, now);
        let id = self.open(conn, ifidx);
        self.drain_loopback(now);
        Ok(id)
    }

    /// The configuration and initial sequence number of a new connection
    /// over interface `ifidx`.
    fn conn_cfg(&mut self, ifidx: usize) -> (TcpConfig, u32) {
        let iface = &self.ifaces[ifidx].cfg;
        let mss = iface.mtu - crate::IPV4_HEADER_BYTES - crate::TCP_HEADER_BYTES;
        let cfg = TcpConfig {
            mss,
            // IPv4's 16-bit total length caps a TSO super-segment at
            // 65535 - 40 bytes; stay comfortably below like real GSO.
            tso_max: if iface.tso { 60 * 1024 } else { mss },
            ..self.tcp_base.clone()
        };
        let isn = self.next_isn;
        self.next_isn = self.next_isn.wrapping_add(64_000);
        (cfg, isn)
    }

    /// Gives a new connection a socket slot and a demux entry, and sends
    /// its first segment.
    fn open(&mut self, conn: TcpConn, ifidx: usize) -> SockId {
        let key = conn.key();
        let id = self.alloc_sock(Socket::Tcp {
            conn: Box::new(conn),
            ifidx,
        });
        self.conn_map.insert(key, id.0);
        self.flush_conn(id.0);
        id
    }

    fn conn(&self, sock: SockId) -> Option<&TcpConn> {
        match self.sockets.get(sock.0) {
            Some(Socket::Tcp { conn, .. }) => Some(conn),
            _ => None,
        }
    }

    fn tcp_conn(&mut self, sock: SockId) -> Result<&mut TcpConn, StackError> {
        self.timer.set(None);
        match self.sockets.get_mut(sock.0) {
            Some(Socket::Tcp { conn, .. }) => Ok(conn),
            _ => Err(StackError::BadSocket),
        }
    }

    /// Sends application data; returns bytes accepted.
    ///
    /// # Errors
    ///
    /// [`StackError::BadSocket`] for non-TCP handles.
    pub fn tcp_send(
        &mut self,
        sock: SockId,
        data: &[u8],
        now: SimTime,
    ) -> Result<usize, StackError> {
        let n = self.tcp_conn(sock)?.send(data, now);
        self.flush_conn(sock.0);
        self.drain_loopback(now);
        Ok(n)
    }

    /// Receives application data; returns bytes read.
    ///
    /// # Errors
    ///
    /// [`StackError::BadSocket`] for non-TCP handles.
    pub fn tcp_recv(
        &mut self,
        sock: SockId,
        buf: &mut [u8],
        now: SimTime,
    ) -> Result<usize, StackError> {
        let n = self.tcp_conn(sock)?.recv(buf, now);
        self.flush_conn(sock.0);
        self.drain_loopback(now);
        Ok(n)
    }

    /// Closes the send direction.
    pub fn tcp_close(&mut self, sock: SockId, now: SimTime) {
        if let Ok(c) = self.tcp_conn(sock) {
            c.close(now);
            self.flush_conn(sock.0);
            self.drain_loopback(now);
        }
    }

    /// Connection state, or `Closed` for unknown handles.
    pub fn tcp_state(&self, sock: SockId) -> TcpState {
        self.conn(sock).map_or(TcpState::Closed, TcpConn::state)
    }

    /// Why the connection failed terminally (RTO give-up or peer reset);
    /// `None` for healthy connections, clean closes, and unknown handles.
    /// The stack-level dead-peer signal upper layers (MPI) act on.
    pub fn tcp_error(&self, sock: SockId) -> Option<crate::tcp::TcpError> {
        self.conn(sock).and_then(TcpConn::error)
    }

    /// True when the connection died abnormally (shorthand for
    /// [`tcp_error`](Self::tcp_error)`.is_some()`).
    pub fn tcp_failed(&self, sock: SockId) -> bool {
        self.tcp_error(sock).is_some()
    }

    /// One formatted line per live socket (listeners, connections, UDP
    /// binds) for stall diagnostics; closed slots are skipped.
    pub fn socket_states(&self) -> Vec<String> {
        self.sockets
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s {
                Socket::TcpListener { port, pending, .. } => Some(format!(
                    "sock{i} tcp-listen :{port} ({} pending)",
                    pending.len()
                )),
                Socket::Tcp { conn, .. } => Some(format!(
                    "sock{i} tcp {}:{} -> {}:{} {:?} cwnd={} in_flight={} \
                     snd_wnd={} unsent={} ({} readable) rtx_at={:?}",
                    conn.local().0,
                    conn.local().1,
                    conn.remote().0,
                    conn.remote().1,
                    conn.state(),
                    conn.cwnd(),
                    conn.in_flight(),
                    conn.snd_wnd(),
                    conn.unsent(),
                    conn.readable(),
                    conn.next_timer()
                )),
                Socket::Udp { port, rx } => {
                    Some(format!("sock{i} udp :{port} ({} queued)", rx.len()))
                }
                Socket::Closed => None,
            })
            .collect()
    }

    /// Bytes readable right now.
    pub fn tcp_readable(&self, sock: SockId) -> usize {
        self.conn(sock).map_or(0, TcpConn::readable)
    }

    /// Peer-advertised receive window in bytes, or `None` for unknown
    /// handles. A zero window means the peer is alive but momentarily
    /// full — callers deciding whether a stalled request warrants
    /// failover should treat `Some(0)` as "wait for persist probes",
    /// not "peer dead".
    pub fn tcp_snd_wnd(&self, sock: SockId) -> Option<u32> {
        self.conn(sock).map(TcpConn::snd_wnd)
    }

    /// True when the peer closed and all data was read.
    pub fn tcp_at_eof(&self, sock: SockId) -> bool {
        self.conn(sock).is_none_or(TcpConn::at_eof)
    }

    /// Sums connection statistics over every TCP socket — live, closed
    /// slots not yet recycled, and recycled ones (accumulated in
    /// `dead_tcp`) — the simulator's `netstat -s`. Monotone even across
    /// slot reaping.
    pub fn tcp_totals(&self) -> crate::tcp::TcpStats {
        let mut total = self.dead_tcp.clone();
        for s in &self.sockets {
            if let Socket::Tcp { conn, .. } = s {
                total.merge(conn.stats());
            }
        }
        total
    }

    /// Per-connection statistics.
    pub fn tcp_stats(&self, sock: SockId) -> Option<&crate::tcp::TcpStats> {
        self.conn(sock).map(TcpConn::stats)
    }

    // ---------------- UDP sockets ----------------

    /// Binds a UDP socket; `port = 0` picks an ephemeral port.
    ///
    /// # Errors
    ///
    /// [`StackError::PortInUse`] if the port is taken.
    pub fn udp_bind(&mut self, port: u16) -> Result<SockId, StackError> {
        let port = if port == 0 { self.alloc_port() } else { port };
        if self.udp_ports.contains_key(&port) {
            return Err(StackError::PortInUse);
        }
        let id = self.alloc_sock(Socket::Udp {
            port,
            rx: VecDeque::new(),
        });
        self.udp_ports.insert(port, id.0);
        Ok(id)
    }

    /// Sends a datagram.
    ///
    /// # Errors
    ///
    /// Routing or handle errors.
    pub fn udp_send(
        &mut self,
        sock: SockId,
        dst: Ipv4Addr,
        dport: u16,
        data: Bytes,
        now: SimTime,
    ) -> Result<(), StackError> {
        let sport = match self.sockets.get(sock.0) {
            Some(Socket::Udp { port, .. }) => *port,
            _ => return Err(StackError::BadSocket),
        };
        let ifidx = if self.is_local(dst) {
            self.ifaces
                .iter()
                .position(|i| i.cfg.ip == dst)
                .unwrap_or(0)
        } else {
            self.route(dst)?.ifidx
        };
        let src = if self.is_local(dst) {
            dst
        } else {
            self.ifaces[ifidx].cfg.ip
        };
        let with_csum = self.ifaces[ifidx].cfg.checksum;
        let dg = UdpDatagram::new(sport, dport, data);
        let payload = Bytes::from(dg.encode(src, dst, with_csum));
        let r = self.send_ip(src, dst, IpProto::Udp, payload);
        self.drain_loopback(now);
        r
    }

    /// Receives a datagram, if any: (source address, source port, payload).
    pub fn udp_recv(&mut self, sock: SockId) -> Option<(Ipv4Addr, u16, Bytes)> {
        match self.sockets.get_mut(sock.0) {
            Some(Socket::Udp { rx, .. }) => rx.pop_front(),
            _ => None,
        }
    }

    // ---------------- ICMP ----------------

    /// Sends an ICMP echo request (ping). Replies surface as
    /// [`SocketEvent::PingReply`] in [`take_events`](Self::take_events).
    ///
    /// # Errors
    ///
    /// Routing errors.
    pub fn send_ping(
        &mut self,
        dst: Ipv4Addr,
        ident: u16,
        seq: u16,
        payload: Bytes,
        now: SimTime,
    ) -> Result<(), StackError> {
        let route = self.route(dst)?;
        let src = self.ifaces[route.ifidx].cfg.ip;
        let msg = IcmpMessage::request(ident, seq, payload);
        let r = self.send_ip(src, dst, IpProto::Icmp, Bytes::from(msg.encode()));
        self.drain_loopback(now);
        r
    }

    // ---------------- wire side ----------------

    /// Delivers a received frame to the stack.
    pub fn on_frame(&mut self, ifidx: usize, frame: EthernetFrame, now: SimTime) {
        self.stats.frames_in.inc();
        let Some(iface) = self.ifaces.get(ifidx) else {
            // A corrupted descriptor or buggy driver can hand us a frame
            // for an interface that does not exist; count, don't panic.
            self.stats.malformed.inc();
            return;
        };
        if !iface.up {
            self.stats.link_drops.inc();
            return;
        }
        if frame.dst != iface.cfg.mac && !frame.dst.is_broadcast() {
            self.stats.drop_l2.inc();
            return;
        }
        if frame.ethertype != EtherType::Ipv4 {
            return;
        }
        let Ok(pkt) = Ipv4Packet::decode(&frame.payload) else {
            self.stats.malformed.inc();
            return;
        };
        if self.ifaces[ifidx].cfg.checksum && !pkt.checksum_ok {
            self.stats.drop_checksum.inc();
            return;
        }
        let Some(pkt) = self.reasm.push(pkt, now) else {
            return; // fragment buffered
        };
        self.deliver_ip(ifidx, pkt, now);
        self.drain_loopback(now);
    }

    fn deliver_ip(&mut self, ifidx: usize, pkt: Ipv4Packet, now: SimTime) {
        if !self.is_local(pkt.dst) {
            self.stats.drop_not_local.inc();
            return;
        }
        match pkt.proto {
            IpProto::Icmp => self.deliver_icmp(ifidx, &pkt),
            IpProto::Tcp => self.deliver_tcp(ifidx, &pkt, now),
            IpProto::Udp => self.deliver_udp(&pkt),
            IpProto::Other(_) => {}
        }
    }

    fn deliver_icmp(&mut self, ifidx: usize, pkt: &Ipv4Packet) {
        let Ok(msg) = IcmpMessage::decode(&pkt.payload) else {
            self.stats.malformed.inc();
            return;
        };
        if self.ifaces[ifidx].cfg.checksum && !msg.checksum_ok {
            self.stats.drop_checksum.inc();
            return;
        }
        match msg.kind {
            IcmpKind::EchoRequest => {
                let reply = IcmpMessage::reply_to(&msg);
                self.stats.echo_replies.inc();
                let _ = self.send_ip(pkt.dst, pkt.src, IpProto::Icmp, Bytes::from(reply.encode()));
            }
            IcmpKind::EchoReply => {
                self.events.push(SocketEvent::PingReply(
                    msg.ident,
                    msg.seq,
                    msg.payload.len(),
                ));
                self.ping_rx
                    .push_back((pkt.src, msg.ident, msg.seq, msg.payload.len()));
            }
        }
    }

    fn deliver_udp(&mut self, pkt: &Ipv4Packet) {
        let Ok(dg) = UdpDatagram::decode(&pkt.payload, pkt.src, pkt.dst) else {
            self.stats.malformed.inc();
            return;
        };
        if !dg.checksum_ok {
            self.stats.drop_checksum.inc();
            return;
        }
        if let Some(&idx) = self.udp_ports.get(&dg.dst_port) {
            if let Socket::Udp { rx, .. } = &mut self.sockets[idx] {
                rx.push_back((pkt.src, dg.src_port, dg.payload));
                self.events.push(SocketEvent::Activity(SockId(idx)));
                return;
            }
        }
        self.stats.drop_no_socket.inc();
    }

    fn deliver_tcp(&mut self, ifidx: usize, pkt: &Ipv4Packet, now: SimTime) {
        self.timer.set(None);
        let verify = self.ifaces[ifidx].cfg.checksum;
        let Ok(seg) = TcpSegment::decode(&pkt.payload, pkt.src, pkt.dst, verify) else {
            self.stats.malformed.inc();
            return;
        };
        if !seg.checksum_ok {
            self.stats.drop_checksum.inc();
            return;
        }
        let key = (pkt.dst, seg.dst_port, pkt.src, seg.src_port);
        if let Some(&idx) = self.conn_map.get(&key) {
            if let Socket::Tcp { conn, .. } = &mut self.sockets[idx] {
                conn.on_segment(&seg, now);
                self.events.push(SocketEvent::Activity(SockId(idx)));
                self.flush_conn(idx);
                self.reap(idx, key);
                return;
            }
        }
        if seg.flags.syn && !seg.flags.ack {
            if let Some(&lidx) = self.tcp_listeners.get(&seg.dst_port) {
                let (syn_backlog, accept_backlog, queued) = match &self.sockets[lidx] {
                    Socket::TcpListener {
                        syn_backlog,
                        accept_backlog,
                        pending,
                        ..
                    } => (*syn_backlog, *accept_backlog, pending.len()),
                    _ => (usize::MAX, usize::MAX, 0),
                };
                if queued >= accept_backlog {
                    // Accept queue full: the application is not keeping up.
                    // Refuse fast with RST so the client can shed load
                    // instead of burning its SYN-retransmission budget.
                    self.stats.accept_overflows.inc();
                    self.refuse_with_rst(ifidx, pkt, &seg);
                    return;
                }
                let half_open = self
                    .sockets
                    .iter()
                    .filter(|s| match s {
                        Socket::Tcp { conn, .. } => {
                            conn.state() == TcpState::SynRcvd && conn.local().1 == seg.dst_port
                        }
                        _ => false,
                    })
                    .count();
                if half_open >= syn_backlog {
                    // SYN queue full: drop silently (no SYN cookies in this
                    // model); a real client retransmits, a flood source
                    // does not get a socket.
                    self.stats.syn_drops.inc();
                    return;
                }
                let (cfg, isn) = self.conn_cfg(ifidx);
                let (local, remote) = ((pkt.dst, seg.dst_port), (pkt.src, seg.src_port));
                let conn = TcpConn::accept(local, remote, cfg, isn, &seg, now);
                let id = self.open(conn, ifidx);
                if let Socket::TcpListener { pending, .. } = &mut self.sockets[lidx] {
                    pending.push_back(id);
                }
                self.events.push(SocketEvent::Activity(SockId(lidx)));
                return;
            }
        }
        // No socket: answer non-RST segments with RST.
        if !seg.flags.rst {
            self.stats.drop_no_socket.inc();
            self.refuse_with_rst(ifidx, pkt, &seg);
        }
    }

    /// Stages an RST answering `seg` (which reached no live connection).
    fn refuse_with_rst(&mut self, ifidx: usize, pkt: &Ipv4Packet, seg: &TcpSegment) {
        let rst = TcpSegment {
            src_port: seg.dst_port,
            dst_port: seg.src_port,
            seq: seg.ack,
            ack: seg.seq.wrapping_add(seg.seq_len()),
            flags: TcpFlags::RST,
            window: 0,
            mss: None,
            wscale: None,
            payload: Bytes::new(),
            checksum_ok: true,
        };
        let with_csum = self.ifaces[ifidx].cfg.checksum;
        let bytes = Bytes::from(rst.encode(pkt.dst, pkt.src, with_csum));
        let _ = self.send_ip(pkt.dst, pkt.src, IpProto::Tcp, bytes);
    }

    /// Removes fully closed connections from the demux map, and recycles
    /// the socket slot when the close was clean.
    fn reap(&mut self, idx: usize, key: (Ipv4Addr, u16, Ipv4Addr, u16)) {
        let Socket::Tcp { conn, .. } = &self.sockets[idx] else {
            return;
        };
        if conn.state() != TcpState::Closed || conn.has_output() || conn.readable() != 0 {
            return;
        }
        self.conn_map.remove(&key);
        // Slot recycling is reserved for connections that finished their
        // whole lifecycle (both FINs exchanged, no error): the app has
        // nothing left to learn from the handle, and long churn runs must
        // not leak a slot per connection. Errored connections keep their
        // slot so `tcp_error`/`tcp_failed` stay observable until the app
        // drops them.
        if conn.finished_cleanly() {
            self.dead_tcp.merge(conn.stats());
            if conn.passed_time_wait() {
                self.stats.time_wait_reaped.inc();
            }
            self.stats.slots_reaped.inc();
            self.sockets[idx] = Socket::Closed;
        }
    }

    /// Runs [`reap`](Self::reap) over every connection that is fully
    /// closed and drained — [`on_timer`](Self::on_timer) calls this so
    /// TIME_WAIT expiry (a pure timer event, no segment arrival) also
    /// frees ports and slots.
    fn reap_all(&mut self) {
        for idx in 0..self.sockets.len() {
            if let Socket::Tcp { conn, .. } = &self.sockets[idx] {
                if conn.state() == TcpState::Closed {
                    self.reap(idx, conn.key());
                }
            }
        }
    }

    /// Wraps staged TCP segments of connection `idx` into IP/Ethernet and
    /// queues them on the interface.
    fn flush_conn(&mut self, idx: usize) {
        let (segs, ifidx, local, remote) = match &mut self.sockets[idx] {
            Socket::Tcp { conn, ifidx } => {
                (conn.take_output(), *ifidx, conn.local(), conn.remote())
            }
            _ => return,
        };
        let with_csum = self.ifaces[ifidx].cfg.checksum;
        for seg in segs {
            let bytes = Bytes::from(seg.encode(local.0, remote.0, with_csum));
            let _ = self.send_ip(local.0, remote.0, IpProto::Tcp, bytes);
        }
    }

    fn send_ip(
        &mut self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        proto: IpProto,
        payload: Bytes,
    ) -> Result<(), StackError> {
        let ident = self.next_ident;
        self.next_ident = self.next_ident.wrapping_add(1);
        let pkt = Ipv4Packet::new(src, dst, proto, ident, payload);

        // Local destination: loop back without touching any interface (the
        // kernel checks loopback before enumerating interfaces, Sec. III-B).
        if self.is_local(dst) {
            self.loopback.push_back(pkt);
            return Ok(());
        }

        let route = self.route(dst)?;
        let iface = &self.ifaces[route.ifidx].cfg;
        let next_hop = route.gateway.unwrap_or(dst);
        let Some(dst_mac) = self
            .neighbors
            .get(&next_hop)
            .copied()
            .or(self.fallback_neighbor)
        else {
            return Err(StackError::NoNeighbor);
        };
        let src_mac = iface.mac;
        let mtu_total = iface.mtu + crate::IPV4_HEADER_BYTES;
        // TSO: oversize TCP packets pass unfragmented; the device slices
        // (or MCN carries them whole). Everything else fragments to MTU.
        let tso = proto == IpProto::Tcp && iface.tso;
        // Fast path (the overwhelmingly common case): the packet rides
        // one frame, so no fragment `Vec` is ever built.
        if tso || pkt.wire_len() <= mtu_total {
            self.tx_one(route.ifidx, dst_mac, src_mac, pkt);
            return Ok(());
        }
        for frag in pkt.fragment(mtu_total).map_err(|_| StackError::NoRoute)? {
            self.tx_one(route.ifidx, dst_mac, src_mac, frag);
        }
        Ok(())
    }

    /// Queues one IP datagram (or fragment) as an Ethernet frame on
    /// `ifidx`, dropping it if the carrier is down.
    fn tx_one(&mut self, ifidx: usize, dst_mac: MacAddr, src_mac: MacAddr, pkt: Ipv4Packet) {
        if !self.ifaces[ifidx].up {
            // Dead carrier: the frame is lost on the floor, exactly as
            // on a real NIC with no link. Transports retransmit.
            self.stats.link_drops.inc();
            return;
        }
        let frame = EthernetFrame::ipv4(dst_mac, src_mac, Bytes::from(pkt.encode()));
        self.stats.frames_out.inc();
        self.ifaces[ifidx].out.push_back(frame);
    }

    fn drain_loopback(&mut self, now: SimTime) {
        while let Some(pkt) = self.loopback.pop_front() {
            self.deliver_ip(0, pkt, now);
        }
    }

    /// Removes the next frame queued for transmission on `ifidx`.
    pub fn poll_output(&mut self, ifidx: usize) -> Option<EthernetFrame> {
        self.ifaces[ifidx].out.pop_front()
    }

    /// True if any interface has frames queued for transmission (drivers
    /// must be given a chance to run).
    pub fn has_output(&self) -> bool {
        self.ifaces.iter().any(|i| !i.out.is_empty())
    }

    /// Drains accumulated socket events.
    pub fn take_events(&mut self) -> Vec<SocketEvent> {
        std::mem::take(&mut self.events)
    }

    /// Pops a received ICMP echo reply: (source, ident, seq, payload bytes).
    /// Unlike [`take_events`](Self::take_events) (consumed by the system
    /// layer for wake-ups), this queue is for the pinging application.
    pub fn pop_ping_reply(&mut self) -> Option<(Ipv4Addr, u16, u16, usize)> {
        self.ping_rx.pop_front()
    }

    /// Releases a socket slot. TCP connections are aborted if still open;
    /// listeners and UDP binds release their port.
    pub fn sock_drop(&mut self, sock: SockId) {
        self.timer.set(None);
        let Some(slot) = self.sockets.get_mut(sock.0) else {
            return;
        };
        match slot {
            Socket::TcpListener { port, .. } => {
                self.tcp_listeners.remove(port);
            }
            Socket::Udp { port, .. } => {
                self.udp_ports.remove(port);
            }
            Socket::Tcp { conn, .. } => {
                let key = conn.key();
                if conn.state() != TcpState::Closed {
                    conn.abort();
                }
                if let Socket::Tcp { conn, .. } = &self.sockets[sock.0] {
                    // Keep tcp_totals monotone across the drop.
                    self.dead_tcp.merge(conn.stats());
                }
                self.flush_conn(sock.0);
                self.conn_map.remove(&key);
            }
            Socket::Closed => return,
        }
        self.sockets[sock.0] = Socket::Closed;
    }

    // ---------------- timers ----------------

    /// Earliest TCP timer deadline across all connections, answered from
    /// a cache while no connection's timers can have moved, so wakeup
    /// queries do not scan the sockets. Debug builds rescan on every call
    /// and check the cache against the scan.
    pub fn next_timer(&self) -> Option<SimTime> {
        let t = self.timer.get().unwrap_or_else(|| {
            let t = self.scan_timers();
            self.timer.set(Some(t));
            t
        });
        debug_assert_eq!(t, self.scan_timers(), "stale TCP timer cache");
        t
    }

    /// The earliest deadline over every connection's timers.
    fn scan_timers(&self) -> Option<SimTime> {
        self.sockets
            .iter()
            .filter_map(|s| match s {
                Socket::Tcp { conn, .. } => conn.next_timer(),
                _ => None,
            })
            .min()
    }

    /// Fires due timers and flushes resulting segments. Also processes any
    /// pending loopback traffic.
    pub fn on_timer(&mut self, now: SimTime) {
        self.timer.set(None);
        for idx in 0..self.sockets.len() {
            let due = match &self.sockets[idx] {
                Socket::Tcp { conn, .. } => conn.next_timer().is_some_and(|d| d <= now),
                _ => false,
            };
            if due {
                if let Socket::Tcp { conn, .. } = &mut self.sockets[idx] {
                    conn.on_timer(now);
                }
                self.events.push(SocketEvent::Activity(SockId(idx)));
                self.flush_conn(idx);
            }
        }
        self.reap_all();
        self.drain_loopback(now);
    }
}

impl Instrumented for NetStack {
    /// The stack's own drop/deliver counters plus the TCP totals of every
    /// socket (live and closed) under `tcp.*`.
    fn metrics(&self, out: &mut MetricSink) {
        out.counter("frames_in", self.stats.frames_in.get());
        out.counter("frames_out", self.stats.frames_out.get());
        out.counter("drop_l2", self.stats.drop_l2.get());
        out.counter("drop_checksum", self.stats.drop_checksum.get());
        out.counter("drop_not_local", self.stats.drop_not_local.get());
        out.counter("drop_no_socket", self.stats.drop_no_socket.get());
        out.counter("malformed", self.stats.malformed.get());
        out.counter("echo_replies", self.stats.echo_replies.get());
        out.counter("link_drops", self.stats.link_drops.get());
        // Listener/lifecycle counters live beside the per-connection
        // totals under the same `tcp` scope (distinct leaf names).
        out.scoped("tcp", |out| {
            out.counter("syn_drops", self.stats.syn_drops.get());
            out.counter("accept_overflows", self.stats.accept_overflows.get());
            out.counter("accept_prunes", self.stats.accept_prunes.get());
            out.counter("time_wait_reaped", self.stats.time_wait_reaped.get());
            out.counter("slots_reaped", self.stats.slots_reaped.get());
        });
        out.absorb("tcp", &self.tcp_totals());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) fn mk_pair() -> (NetStack, NetStack, SimTime) {
        mk_pair_with(TcpConfig::default(), TcpConfig::default())
    }

    fn mk_pair_with(cfg_a: TcpConfig, cfg_b: TcpConfig) -> (NetStack, NetStack, SimTime) {
        // Two nodes A (10.0.0.1) and B (10.0.0.2) on one subnet.
        let mut a = NetStack::new(cfg_a);
        let mut b = NetStack::new(cfg_b);
        let mac_a = MacAddr::from_id(1);
        let mac_b = MacAddr::from_id(2);
        let ip_a = Ipv4Addr::new(10, 0, 0, 1);
        let ip_b = Ipv4Addr::new(10, 0, 0, 2);
        a.add_interface(NetConfig::ethernet(mac_a, ip_a));
        b.add_interface(NetConfig::ethernet(mac_b, ip_b));
        let mask = Ipv4Addr::new(255, 255, 255, 0);
        a.add_route(ip_b, mask, 0, None);
        b.add_route(ip_a, mask, 0, None);
        a.add_neighbor(ip_b, mac_b);
        b.add_neighbor(ip_a, mac_a);
        (a, b, SimTime::ZERO)
    }

    /// Moves all queued frames between the two stacks (zero-latency wire),
    /// then fires due timers. Returns true if anything moved.
    fn shuttle(a: &mut NetStack, b: &mut NetStack, now: SimTime) -> bool {
        let mut moved = false;
        while let Some(f) = a.poll_output(0) {
            b.on_frame(0, f, now);
            moved = true;
        }
        while let Some(f) = b.poll_output(0) {
            a.on_frame(0, f, now);
            moved = true;
        }
        moved
    }

    pub(super) fn settle(a: &mut NetStack, b: &mut NetStack, now: &mut SimTime) {
        for _ in 0..1000 {
            if !shuttle(a, b, *now) {
                // Advance to next timer if any.
                let t = [a.next_timer(), b.next_timer()].into_iter().flatten().min();
                match t {
                    Some(t) => {
                        *now = (*now).max(t);
                        a.on_timer(*now);
                        b.on_timer(*now);
                    }
                    None => break,
                }
            }
        }
    }

    #[test]
    fn tcp_connect_accept_and_transfer() {
        let (mut a, mut b, mut now) = mk_pair();
        let lst = b.tcp_listen(5001).unwrap();
        let cs = a
            .tcp_connect(Ipv4Addr::new(10, 0, 0, 2), 5001, now)
            .unwrap();
        settle(&mut a, &mut b, &mut now);
        assert_eq!(a.tcp_state(cs), TcpState::Established);
        let ss = b.tcp_accept(lst).expect("pending connection");
        assert_eq!(b.tcp_state(ss), TcpState::Established);

        let msg: Vec<u8> = (0..50_000u32).map(|i| (i % 256) as u8).collect();
        let mut sent = 0;
        let mut got = Vec::new();
        let mut buf = [0u8; 8192];
        while got.len() < msg.len() {
            if sent < msg.len() {
                sent += a.tcp_send(cs, &msg[sent..], now).unwrap();
            }
            shuttle(&mut a, &mut b, now);
            loop {
                let n = b.tcp_recv(ss, &mut buf, now).unwrap();
                if n == 0 {
                    break;
                }
                got.extend_from_slice(&buf[..n]);
            }
            shuttle(&mut a, &mut b, now);
        }
        assert_eq!(got, msg);
    }

    #[test]
    fn tcp_close_sequence() {
        let (mut a, mut b, mut now) = mk_pair();
        let lst = b.tcp_listen(80).unwrap();
        let cs = a.tcp_connect(Ipv4Addr::new(10, 0, 0, 2), 80, now).unwrap();
        settle(&mut a, &mut b, &mut now);
        let ss = b.tcp_accept(lst).unwrap();
        a.tcp_close(cs, now);
        settle(&mut a, &mut b, &mut now);
        assert!(b.tcp_at_eof(ss));
        b.tcp_close(ss, now);
        settle(&mut a, &mut b, &mut now);
        assert_eq!(b.tcp_state(ss), TcpState::Closed);
        assert!(matches!(
            a.tcp_state(cs),
            TcpState::TimeWait | TcpState::Closed
        ));
    }

    #[test]
    fn syn_to_closed_port_gets_rst() {
        let (mut a, mut b, mut now) = mk_pair();
        let cs = a.tcp_connect(Ipv4Addr::new(10, 0, 0, 2), 81, now).unwrap();
        settle(&mut a, &mut b, &mut now);
        assert_eq!(a.tcp_state(cs), TcpState::Closed);
    }

    #[test]
    fn udp_roundtrip() {
        let (mut a, mut b, now) = mk_pair();
        let ua = a.udp_bind(7000).unwrap();
        let ub = b.udp_bind(7001).unwrap();
        a.udp_send(
            ua,
            Ipv4Addr::new(10, 0, 0, 2),
            7001,
            Bytes::from_static(b"datagram"),
            now,
        )
        .unwrap();
        shuttle(&mut a, &mut b, now);
        let (src, sport, data) = b.udp_recv(ub).expect("datagram should arrive");
        assert_eq!(src, Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(sport, 7000);
        assert_eq!(&data[..], b"datagram");
    }

    #[test]
    fn ping_reply_and_fragmentation() {
        let (mut a, mut b, now) = mk_pair();
        // 8 KB payload over 1.5 KB MTU: fragments on the way out, reassembles
        // at B, reply fragments again, reassembles at A.
        let payload = Bytes::from(vec![0x77u8; 8192]);
        a.send_ping(Ipv4Addr::new(10, 0, 0, 2), 55, 1, payload, now)
            .unwrap();
        let queued = std::iter::from_fn(|| a.poll_output(0)).collect::<Vec<_>>();
        assert!(queued.len() >= 6, "8KB ping should fragment");
        for frame in queued {
            b.on_frame(0, frame, now);
        }
        shuttle(&mut a, &mut b, now);
        shuttle(&mut a, &mut b, now);
        let evs = a.take_events();
        assert!(
            evs.iter()
                .any(|e| matches!(e, SocketEvent::PingReply(55, 1, 8192))),
            "events: {evs:?}"
        );
        assert_eq!(b.stats.echo_replies.get(), 1);
    }

    #[test]
    fn checksum_drop_policy() {
        let (mut a, mut b, now) = mk_pair();
        let ua = a.udp_bind(9000).unwrap();
        let _ub = b.udp_bind(9001).unwrap();
        a.udp_send(
            ua,
            Ipv4Addr::new(10, 0, 0, 2),
            9001,
            Bytes::from_static(b"x"),
            now,
        )
        .unwrap();
        let mut frame = a.poll_output(0).unwrap();
        // Corrupt a payload byte (inside the UDP datagram).
        let mut raw = frame.encode();
        let n = raw.len();
        raw[n - 1] ^= 0xFF;
        frame = EthernetFrame::decode(&raw).unwrap();
        b.on_frame(0, frame, now);
        assert!(b.stats.drop_checksum.get() >= 1);
    }

    #[test]
    fn wrong_mac_dropped_at_l2() {
        let (mut a, mut b, now) = mk_pair();
        let ua = a.udp_bind(9000).unwrap();
        a.udp_send(
            ua,
            Ipv4Addr::new(10, 0, 0, 2),
            9001,
            Bytes::from_static(b"x"),
            now,
        )
        .unwrap();
        let mut frame = a.poll_output(0).unwrap();
        frame.dst = MacAddr::from_id(999);
        b.on_frame(0, frame, now);
        assert_eq!(b.stats.drop_l2.get(), 1);
    }

    #[test]
    fn loopback_delivery() {
        let (mut a, _b, now) = mk_pair();
        let u1 = a.udp_bind(4000).unwrap();
        let u2 = a.udp_bind(4001).unwrap();
        // Send to our own address: must not touch the wire.
        a.udp_send(
            u1,
            Ipv4Addr::new(10, 0, 0, 1),
            4001,
            Bytes::from_static(b"loop"),
            now,
        )
        .unwrap();
        a.on_timer(now); // drains loopback queue
        assert!(!a.has_output());
        let (_, _, data) = a.udp_recv(u2).expect("loopback datagram");
        assert_eq!(&data[..], b"loop");
    }

    #[test]
    fn port_collisions_rejected() {
        let (mut a, _b, _now) = mk_pair();
        a.tcp_listen(80).unwrap();
        assert_eq!(a.tcp_listen(80), Err(StackError::PortInUse));
        a.udp_bind(53).unwrap();
        assert_eq!(a.udp_bind(53), Err(StackError::PortInUse));
    }

    #[test]
    fn no_route_is_reported() {
        let mut a = NetStack::new(TcpConfig::default());
        a.add_interface(NetConfig::ethernet(
            MacAddr::from_id(1),
            Ipv4Addr::new(10, 0, 0, 1),
        ));
        assert_eq!(
            a.tcp_connect(Ipv4Addr::new(8, 8, 8, 8), 53, SimTime::ZERO)
                .unwrap_err(),
            StackError::NoRoute
        );
    }

    #[test]
    fn default_route_via_gateway_uses_gateway_mac() {
        // MCN-side configuration: mask 0.0.0.0, gateway = host.
        let mut m = NetStack::new(TcpConfig::default());
        m.add_interface(NetConfig::ethernet(
            MacAddr::from_id(10),
            Ipv4Addr::new(10, 1, 0, 2),
        ));
        let host_ip = Ipv4Addr::new(10, 1, 0, 1);
        let host_mac = MacAddr::from_id(1);
        m.add_route(
            Ipv4Addr::new(0, 0, 0, 0),
            Ipv4Addr::new(0, 0, 0, 0),
            0,
            Some(host_ip),
        );
        m.add_neighbor(host_ip, host_mac);
        let u = m.udp_bind(1234).unwrap();
        // Destination is a *different* MCN node; packet must still leave via
        // the host's MAC.
        m.udp_send(
            u,
            Ipv4Addr::new(10, 2, 0, 2),
            99,
            Bytes::from_static(b"y"),
            SimTime::ZERO,
        )
        .unwrap();
        let f = m.poll_output(0).unwrap();
        assert_eq!(f.dst, host_mac);
    }

    /// Asserts that both stacks' cached `next_timer` equals a fresh scan.
    fn fresh(a: &NetStack, b: &NetStack) {
        assert_eq!(a.next_timer(), a.scan_timers(), "stack A timer cache");
        assert_eq!(b.next_timer(), b.scan_timers(), "stack B timer cache");
    }

    /// Moves frames (losing A's when `lose_a`) and fires timers for `span`
    /// of simulated time, checking both timer caches after every call.
    fn walk(a: &mut NetStack, b: &mut NetStack, now: &mut SimTime, span: SimTime, lose_a: bool) {
        let until = *now + span;
        loop {
            let mut moved = false;
            while let Some(f) = a.poll_output(0) {
                if !lose_a {
                    b.on_frame(0, f, *now);
                }
                moved = true;
                fresh(a, b);
            }
            while let Some(f) = b.poll_output(0) {
                a.on_frame(0, f, *now);
                moved = true;
                fresh(a, b);
            }
            if moved {
                continue;
            }
            let next = [a.next_timer(), b.next_timer()].into_iter().flatten().min();
            match next.filter(|&t| t <= until) {
                Some(t) => {
                    *now = (*now).max(t);
                    a.on_timer(*now);
                    fresh(a, b);
                    b.on_timer(*now);
                    fresh(a, b);
                }
                None => break,
            }
        }
        *now = (*now).max(until);
    }

    /// Reads everything `sock` holds, checking the caches after each read.
    fn drain(a: &NetStack, b: &mut NetStack, sock: SockId, now: SimTime) -> usize {
        let mut buf = [0u8; 4096];
        let mut total = 0;
        loop {
            let n = b.tcp_recv(sock, &mut buf, now).unwrap();
            fresh(a, b);
            if n == 0 {
                return total;
            }
            total += n;
        }
    }

    #[test]
    fn next_timer_cache_matches_a_fresh_scan_through_a_connection_life() {
        let ms = SimTime::from_ms;
        let cfg_b = TcpConfig {
            recv_buf: 8 * 1024,
            ..TcpConfig::default()
        };
        let (mut a, mut b, mut now) = mk_pair_with(TcpConfig::default(), cfg_b);
        a.set_keepalive(ms(300), ms(50), 3);
        fresh(&a, &b);

        // Handshake.
        let lst = b.tcp_listen(5001).unwrap();
        let cs = a
            .tcp_connect(Ipv4Addr::new(10, 0, 0, 2), 5001, now)
            .unwrap();
        fresh(&a, &b);
        walk(&mut a, &mut b, &mut now, ms(1), false);
        let ss = b.tcp_accept(lst).expect("pending connection");
        fresh(&a, &b);
        assert_eq!(a.tcp_state(cs), TcpState::Established);

        // Delayed ACK: one small segment arms B's ACK timer.
        a.tcp_send(cs, &[1; 100], now).unwrap();
        fresh(&a, &b);
        while let Some(f) = a.poll_output(0) {
            b.on_frame(0, f, now);
            fresh(&a, &b);
        }
        assert_eq!(b.next_timer(), Some(now + crate::tcp::DELACK));
        walk(&mut a, &mut b, &mut now, ms(1), false);
        assert_eq!(drain(&a, &mut b, ss, now), 100);

        // RTO: A's data is lost; its retransmission timer resends it.
        a.tcp_send(cs, &[2; 1000], now).unwrap();
        walk(&mut a, &mut b, &mut now, ms(100), true);
        walk(&mut a, &mut b, &mut now, ms(300), false);
        assert_eq!(a.tcp_totals().timeouts, 1);
        assert_eq!(drain(&a, &mut b, ss, now), 1000);

        // Zero window: B stops reading, A probes on its persist timer,
        // then B drains and the rest flows.
        let sent = a.tcp_send(cs, &[3; 24 * 1024], now).unwrap();
        walk(&mut a, &mut b, &mut now, ms(700), false);
        assert!(a.tcp_totals().persist_probes_out >= 1);
        let mut got = 0;
        while got < sent {
            got += drain(&a, &mut b, ss, now);
            walk(&mut a, &mut b, &mut now, ms(1), false);
        }
        assert_eq!(got, sent);

        // Keepalive: an idle connection is probed and the peer answers.
        let probes = a.tcp_totals().keepalive_probes_out;
        walk(&mut a, &mut b, &mut now, ms(400), false);
        assert!(a.tcp_totals().keepalive_probes_out > probes);
        assert_eq!(a.tcp_error(cs), None);

        // Close, TIME_WAIT on the active closer, then reaping.
        a.tcp_close(cs, now);
        fresh(&a, &b);
        walk(&mut a, &mut b, &mut now, ms(1) / 2, false);
        assert_eq!(b.tcp_recv(ss, &mut [0u8; 16], now).unwrap(), 0);
        b.tcp_close(ss, now);
        fresh(&a, &b);
        walk(&mut a, &mut b, &mut now, ms(10), false);
        assert_eq!(a.stats.time_wait_reaped.get(), 1);
        assert_eq!((a.next_timer(), b.next_timer()), (None, None));
    }
}

#[cfg(test)]
mod drop_tests {
    use super::tests::{mk_pair, settle};
    use super::*;

    #[test]
    fn sock_drop_releases_ports_and_aborts() {
        let mut a = NetStack::new(TcpConfig::default());
        a.add_interface(NetConfig::ethernet(
            MacAddr::from_id(1),
            Ipv4Addr::new(10, 0, 0, 1),
        ));
        let l = a.tcp_listen(80).unwrap();
        let u = a.udp_bind(53).unwrap();
        a.sock_drop(l);
        a.sock_drop(u);
        // Ports are free again.
        a.tcp_listen(80).unwrap();
        a.udp_bind(53).unwrap();
    }

    #[test]
    fn sock_drop_open_connection_sends_rst() {
        let mut a = NetStack::new(TcpConfig::default());
        a.add_interface(NetConfig::ethernet(
            MacAddr::from_id(1),
            Ipv4Addr::new(10, 0, 0, 1),
        ));
        let ip_b = Ipv4Addr::new(10, 0, 0, 2);
        a.add_route(ip_b, Ipv4Addr::new(255, 255, 255, 0), 0, None);
        a.add_neighbor(ip_b, MacAddr::from_id(2));
        let c = a.tcp_connect(ip_b, 80, SimTime::ZERO).unwrap();
        let _syn = a.poll_output(0).unwrap();
        a.sock_drop(c);
        let rst_frame = a.poll_output(0).expect("RST staged");
        let pkt = Ipv4Packet::decode(&rst_frame.payload).unwrap();
        let seg = TcpSegment::decode(&pkt.payload, pkt.src, pkt.dst, true).unwrap();
        assert!(seg.flags.rst);
        assert_eq!(a.tcp_state(c), TcpState::Closed);
    }

    /// Hand-crafts a SYN frame from `(src_ip, sport)` to B (10.0.0.2:`dport`),
    /// as a flood source would: no stack, no state, just wire bytes.
    fn raw_syn(src_ip: Ipv4Addr, sport: u16, dport: u16, ident: u16) -> EthernetFrame {
        let dst_ip = Ipv4Addr::new(10, 0, 0, 2);
        let seg = TcpSegment {
            src_port: sport,
            dst_port: dport,
            seq: 1,
            ack: 0,
            flags: TcpFlags::SYN,
            window: 65535,
            mss: Some(1460),
            wscale: Some(7),
            payload: Bytes::new(),
            checksum_ok: true,
        };
        let pkt = Ipv4Packet::new(
            src_ip,
            dst_ip,
            IpProto::Tcp,
            ident,
            Bytes::from(seg.encode(src_ip, dst_ip, true)),
        );
        EthernetFrame::ipv4(
            MacAddr::from_id(2),
            MacAddr::from_id(1),
            Bytes::from(pkt.encode()),
        )
    }

    #[test]
    fn syn_flood_bounded_backlog_drops_and_recovers() {
        let (mut a, mut b, mut now) = mk_pair();
        let ip_a = Ipv4Addr::new(10, 0, 0, 1);
        let ip_b = Ipv4Addr::new(10, 0, 0, 2);
        b.tcp_listen_with_backlog(80, 4, 64).unwrap();
        // 20 SYNs from distinct source ports: the first 4 occupy the SYN
        // backlog, the remaining 16 are dropped silently and counted.
        for i in 0..20u16 {
            b.on_frame(0, raw_syn(ip_a, 40_000 + i, 80, i), now);
        }
        assert_eq!(b.stats.syn_drops.get(), 16);
        let half_open = b
            .socket_states()
            .iter()
            .filter(|s| s.contains("SynRcvd"))
            .count();
        assert_eq!(half_open, 4, "embryonic connections bounded by backlog");
        // The spoofed host never asked for these connections: its stack
        // RSTs the SYN-ACKs, which clears the embryonic entries, and a
        // legitimate connect then goes straight through.
        settle(&mut a, &mut b, &mut now);
        let cs = a.tcp_connect(ip_b, 80, now).unwrap();
        settle(&mut a, &mut b, &mut now);
        assert_eq!(a.tcp_state(cs), TcpState::Established);
        assert_eq!(b.stats.syn_drops.get(), 16, "recovery causes no new drops");
    }

    #[test]
    fn accept_queue_overflow_refuses_with_rst() {
        let (mut a, mut b, mut now) = mk_pair();
        let ip_b = Ipv4Addr::new(10, 0, 0, 2);
        let lst = b.tcp_listen_with_backlog(80, 64, 1).unwrap();
        let c1 = a.tcp_connect(ip_b, 80, now).unwrap();
        settle(&mut a, &mut b, &mut now);
        assert_eq!(a.tcp_state(c1), TcpState::Established);
        // The app hasn't accepted c1 yet: the queue (len 1) is full, so the
        // next connect is refused fast with RST rather than left hanging.
        let c2 = a.tcp_connect(ip_b, 80, now).unwrap();
        settle(&mut a, &mut b, &mut now);
        assert_eq!(b.stats.accept_overflows.get(), 1);
        assert_eq!(a.tcp_state(c2), TcpState::Closed);
        assert_eq!(a.tcp_error(c2), Some(crate::tcp::TcpError::PeerReset));
        // Accepting drains the queue; new connections flow again.
        let s1 = b.tcp_accept(lst).expect("first connection queued");
        assert_eq!(b.tcp_state(s1), TcpState::Established);
        let c3 = a.tcp_connect(ip_b, 80, now).unwrap();
        settle(&mut a, &mut b, &mut now);
        assert_eq!(a.tcp_state(c3), TcpState::Established);
    }

    #[test]
    fn churn_reuses_ports_and_reaps_slots() {
        let (mut a, mut b, mut now) = mk_pair();
        let ip_a = Ipv4Addr::new(10, 0, 0, 1);
        let ip_b = Ipv4Addr::new(10, 0, 0, 2);
        let lst = b.tcp_listen(80).unwrap();
        const ROUNDS: u64 = 40;
        for i in 0..ROUNDS {
            // Pin the ephemeral allocator: every incarnation must get the
            // *same* 4-tuple, which only works if the previous one's
            // TIME_WAIT expired and freed the port.
            a.next_port = 60_000;
            let cs = a.tcp_connect(ip_b, 80, now).unwrap();
            assert!(
                a.conn_map.contains_key(&(ip_a, 60_000, ip_b, 80)),
                "round {i}: port 60000 not reused"
            );
            settle(&mut a, &mut b, &mut now);
            let ss = b.tcp_accept(lst).expect("connection queued");
            a.tcp_send(cs, b"hello", now).unwrap();
            settle(&mut a, &mut b, &mut now);
            let mut buf = [0u8; 16];
            assert_eq!(b.tcp_recv(ss, &mut buf, now).unwrap(), 5);
            a.tcp_close(cs, now);
            settle(&mut a, &mut b, &mut now);
            assert!(b.tcp_at_eof(ss));
            b.tcp_close(ss, now);
            // Settle runs FIN exchange, TIME_WAIT expiry (timer) and reaping.
            settle(&mut a, &mut b, &mut now);
        }
        // Every connection finished cleanly: all slots recycled, no leaks.
        assert_eq!(a.stats.slots_reaped.get(), ROUNDS);
        assert_eq!(b.stats.slots_reaped.get(), ROUNDS);
        assert_eq!(
            a.stats.time_wait_reaped.get(),
            ROUNDS,
            "active closer waits out 2MSL"
        );
        assert_eq!(
            b.stats.time_wait_reaped.get(),
            0,
            "passive closer skips TIME_WAIT"
        );
        assert!(a.conn_map.is_empty() && b.conn_map.is_empty());
        assert_eq!(a.socket_states().len(), 0, "no live sockets left on A");
        assert_eq!(
            b.socket_states().len(),
            1,
            "only the listener survives on B"
        );
        // Stats survive the reaping: 5 payload bytes per round, accumulated
        // in `dead_tcp` even though every slot was recycled.
        assert_eq!(a.tcp_totals().bytes_sent, 5 * ROUNDS);
        assert_eq!(b.tcp_totals().bytes_delivered, 5 * ROUNDS);
    }
}
