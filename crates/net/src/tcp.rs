//! TCP connection state machine.
//!
//! Implements the subset of TCP that the paper's evaluation exercises, at
//! real byte/sequence-number granularity:
//!
//! * three-way handshake, graceful FIN teardown, RST,
//! * cumulative ACKs with delayed-ACK policy (ACK every second segment or a
//!   short timer — the paper measures ~25% ACK overhead in Sec. VII, which
//!   this reproduces),
//! * flow control with window scaling (both sides advertise scale 7),
//! * congestion control: slow start, congestion avoidance, fast retransmit
//!   on three duplicate ACKs (Reno-style), RTO with exponential backoff and
//!   RFC 6298 RTT estimation,
//! * MSS negotiation from the interface MTU (1.5 KB vs the 9 KB jumbo MTU
//!   of `mcn3`),
//! * TSO-style large segments: with `tso_max > mss` the connection emits
//!   segments of up to `tso_max` bytes and leaves slicing to the device —
//!   the `mcn4` optimisation, where the "device" is the MCN driver and no
//!   slicing happens at all.
//!
//! Not modelled (documented divergences): Nagle's algorithm (iperf and MPI
//! both disable it), SACK, timestamps, and ECN. The delayed-ACK timer is
//! 500 µs rather than Linux's 40 ms so that microsecond-scale MCN
//! request/response traffic is not distorted by a timer three orders of
//! magnitude above the link RTT.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::net::Ipv4Addr;

use bytes::Bytes;

use mcn_sim::metrics::{Instrumented, MetricSink};
use mcn_sim::SimTime;

use crate::tcp_wire::{TcpFlags, TcpSegment};

/// Wrapping sequence-number comparison: `a < b`.
#[inline]
pub fn seq_lt(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) < 0
}

/// Wrapping sequence-number comparison: `a <= b`.
#[inline]
pub fn seq_le(a: u32, b: u32) -> bool {
    a == b || seq_lt(a, b)
}

/// Connection-level tuning knobs (derived by the stack from interface
/// configuration).
#[derive(Debug, Clone, PartialEq)]
pub struct TcpConfig {
    /// Maximum segment size (MTU − IP header − TCP header).
    pub mss: usize,
    /// Maximum bytes per emitted segment. Equal to `mss` normally; larger
    /// when TSO is enabled (the device or MCN driver handles the rest).
    pub tso_max: usize,
    /// Receive buffer capacity in bytes.
    pub recv_buf: usize,
    /// Idle interval after which keepalive probing starts, or `None` to
    /// disable keepalive entirely (the default — matching a socket without
    /// `SO_KEEPALIVE`). Retransmission timers cover dead-peer detection
    /// whenever data is in flight; keepalive exists for *idle* connections
    /// whose peer vanished (half-open connections after a crash).
    pub keepalive_idle: Option<SimTime>,
    /// Interval between unanswered keepalive probes.
    pub keepalive_intvl: SimTime,
    /// Unanswered probes after which the peer is declared dead and the
    /// connection fails with [`TcpError::KeepaliveTimeout`].
    pub keepalive_probes: u32,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1460,
            tso_max: 1460,
            recv_buf: 256 * 1024,
            keepalive_idle: None,
            keepalive_intvl: SimTime::from_ms(100),
            keepalive_probes: 3,
        }
    }
}

/// Send buffer capacity in bytes.
const SEND_BUF: usize = 256 * 1024;
/// Initial congestion window in segments (RFC 6928).
const INIT_CWND_SEGS: usize = 10;
/// Delayed-ACK timeout.
pub(crate) const DELACK: SimTime = SimTime::from_us(500);
/// Lower bound for the retransmission timeout.
const MIN_RTO: SimTime = SimTime::from_ms(200);
/// Consecutive RTO firings (no ACK progress in between) after which the
/// connection gives up with [`TcpError::TimedOut`] instead of backing off
/// forever: about 102 s of silence from `MIN_RTO` doubling.
const MAX_RTO_RETRIES: u32 = 8;
/// TIME_WAIT (2MSL) duration, shortened from RFC 793's minutes because
/// simulated workloads never reuse a 4-tuple within a real 2MSL.
const TIME_WAIT: SimTime = SimTime::from_ms(1);
/// Window scale both sides advertise.
const WSCALE: u8 = 7;

/// Why a connection failed terminally (it is [`TcpState::Closed`] and will
/// never carry data again). Queried by the stack's dead-peer reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpError {
    /// Eight consecutive retransmission timeouts (about 102 s) expired
    /// with no sign of the peer: it is unreachable or dead.
    TimedOut,
    /// The peer reset the connection (RST received).
    PeerReset,
    /// `keepalive_probes` keepalive probes went unanswered on an idle
    /// connection: the peer is gone (half-open connection reaped).
    KeepaliveTimeout,
}

/// TCP connection state (RFC 793 names).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    /// SYN sent, waiting for SYN-ACK.
    SynSent,
    /// SYN received and SYN-ACK sent, waiting for ACK.
    SynRcvd,
    /// Data transfer.
    Established,
    /// We closed first; FIN sent, not yet acknowledged.
    FinWait1,
    /// Our FIN acknowledged; waiting for the peer's FIN.
    FinWait2,
    /// Peer closed first; waiting for the application to close.
    CloseWait,
    /// Application closed after CloseWait; FIN sent.
    LastAck,
    /// Both sides closed simultaneously.
    Closing,
    /// Waiting out 2MSL (shortened in simulation).
    TimeWait,
    /// Fully closed.
    Closed,
}

/// Copies `dst.len()` bytes of `src`, starting `off` bytes in, into
/// `dst`: one slice copy per half of the ring buffer.
fn copy_from_deque(src: &VecDeque<u8>, off: usize, dst: &mut [u8]) {
    let (head, tail) = src.as_slices();
    let n = dst.len();
    if off < head.len() {
        let k = (head.len() - off).min(n);
        dst[..k].copy_from_slice(&head[off..off + k]);
        dst[k..].copy_from_slice(&tail[..n - k]);
    } else {
        let off = off - head.len();
        dst.copy_from_slice(&tail[off..off + n]);
    }
}

/// One TCP connection endpoint.
///
/// Drive it with [`on_segment`](Self::on_segment), application calls
/// ([`send`](Self::send) / [`recv`](Self::recv) / [`close`](Self::close))
/// and [`on_timer`](Self::on_timer); collect outbound segments with
/// [`take_output`](Self::take_output) after any of those.
#[derive(Debug)]
pub struct TcpConn {
    cfg: TcpConfig,
    state: TcpState,
    local: (Ipv4Addr, u16),
    remote: (Ipv4Addr, u16),

    // --- send side ---
    snd_una: u32,
    snd_nxt: u32,
    /// Sequence number of `snd_buf[0]`.
    snd_base: u32,
    snd_buf: VecDeque<u8>,
    /// Peer's advertised receive window in bytes (already scaled).
    snd_wnd: u32,
    peer_wscale: u8,
    fin_queued: bool,
    fin_sent: bool,

    // --- receive side ---
    rcv_nxt: u32,
    rcv_buf: VecDeque<u8>,
    ooo: BTreeMap<u32, Bytes>,
    /// Sequence number of the peer's FIN once one arrived at or beyond
    /// `rcv_nxt`: it is accepted when `rcv_nxt` reaches it, even if the
    /// segment carrying it overtook data.
    rcv_fin: Option<u32>,
    fin_rcvd: bool,

    // --- congestion control ---
    cwnd: f64,
    ssthresh: f64,
    dupacks: u32,

    // --- timers / RTT ---
    srtt: Option<f64>,
    rttvar: f64,
    rto: SimTime,
    rto_backoff: u32,
    /// Consecutive RTO firings with no ACK progress (unlike `rto_backoff`
    /// this is not capped, so it can be compared against any retry budget).
    consec_rtos: u32,
    /// Go-back-N recovery point: `snd_nxt` at the last RTO. While
    /// `snd_una` sits below it, every segment in that gap is presumed lost
    /// (bulk loss — e.g. a crashed DIMM's rings), so each forward ACK
    /// immediately retransmits the next head segment instead of waiting
    /// out another doubled RTO. Cleared once `snd_una` passes it.
    rto_recover: Option<u32>,
    error: Option<TcpError>,
    rtx_deadline: Option<SimTime>,
    time_wait_deadline: Option<SimTime>,
    rtt_probe: Option<(u32, SimTime)>,

    // --- persist (zero-window probing, RFC 1122 §4.2.2.17) ---
    /// Next persist-probe firing: armed while the peer advertises a zero
    /// window with data (or a FIN) still waiting, `None` otherwise. The
    /// probe keeps the window discovery alive without burning the RTO
    /// give-up budget — a zero-window peer is *alive*, just backpressured.
    persist_deadline: Option<SimTime>,
    /// Exponential persist-interval backoff (capped like the RTO's).
    persist_backoff: u32,

    // --- keepalive ---
    /// Next keepalive firing: idle deadline when `ka_probes_sent == 0`,
    /// probe-interval deadline afterwards. `None` when keepalive is off or
    /// the connection is not in a probed state.
    ka_deadline: Option<SimTime>,
    /// Probes sent since the last sign of life from the peer.
    ka_probes_sent: u32,
    /// The connection passed through TIME_WAIT on its way down (drives the
    /// stack's `time_wait_reaped` accounting).
    saw_time_wait: bool,

    // --- ACK policy ---
    segs_unacked: u32,
    ack_deadline: Option<SimTime>,
    need_ack_now: bool,

    out: Vec<TcpSegment>,
    stats: TcpStats,
}

/// Per-connection statistics.
#[derive(Debug, Default, Clone)]
pub struct TcpStats {
    /// Data segments sent (first transmissions).
    pub data_segs_out: u64,
    /// Retransmitted segments.
    pub retransmits: u64,
    /// Fast retransmits (subset of `retransmits`).
    pub fast_retransmits: u64,
    /// RTO firings.
    pub timeouts: u64,
    /// Pure ACK segments sent.
    pub acks_out: u64,
    /// Payload bytes delivered to the application.
    pub bytes_delivered: u64,
    /// Payload bytes accepted from the application.
    pub bytes_sent: u64,
    /// Connections abandoned after eight consecutive timeouts.
    pub rto_giveups: u64,
    /// Persist (zero-window) probes transmitted.
    pub persist_probes_out: u64,
    /// Times the sender entered a zero-window stall (armed the persist
    /// timer with data waiting).
    pub zero_window_stalls: u64,
    /// Keepalive probes transmitted.
    pub keepalive_probes_out: u64,
    /// Connections declared dead after `keepalive_probes` unanswered
    /// probes (half-open peers reaped).
    pub keepalive_giveups: u64,
    /// Segments discarded while sitting in TIME_WAIT (stale data or ACKs
    /// from the old incarnation; retransmitted FINs are re-ACKed instead).
    pub time_wait_rejects: u64,
    /// Data segments that arrived beyond `rcv_nxt` and were stashed out
    /// of order (reordering or loss upstream).
    pub ooo_segs_in: u64,
    /// Duplicate ACKs received (the fast-retransmit trigger).
    pub dup_acks_in: u64,
}

impl TcpStats {
    /// Adds `other`'s counts into `self` (stack-level totals over live and
    /// reaped connections).
    pub fn merge(&mut self, other: &TcpStats) {
        self.data_segs_out += other.data_segs_out;
        self.retransmits += other.retransmits;
        self.fast_retransmits += other.fast_retransmits;
        self.timeouts += other.timeouts;
        self.acks_out += other.acks_out;
        self.bytes_delivered += other.bytes_delivered;
        self.bytes_sent += other.bytes_sent;
        self.rto_giveups += other.rto_giveups;
        self.persist_probes_out += other.persist_probes_out;
        self.zero_window_stalls += other.zero_window_stalls;
        self.keepalive_probes_out += other.keepalive_probes_out;
        self.keepalive_giveups += other.keepalive_giveups;
        self.time_wait_rejects += other.time_wait_rejects;
        self.ooo_segs_in += other.ooo_segs_in;
        self.dup_acks_in += other.dup_acks_in;
    }
}

impl Instrumented for TcpStats {
    fn metrics(&self, out: &mut MetricSink) {
        out.counter("data_segs_out", self.data_segs_out);
        out.counter("retransmits", self.retransmits);
        out.counter("fast_retransmits", self.fast_retransmits);
        out.counter("timeouts", self.timeouts);
        out.counter("acks_out", self.acks_out);
        out.counter("bytes_delivered", self.bytes_delivered);
        out.counter("bytes_sent", self.bytes_sent);
        out.counter("rto_giveups", self.rto_giveups);
        out.counter("persist_probes_out", self.persist_probes_out);
        out.counter("zero_window_stalls", self.zero_window_stalls);
        out.counter("keepalive_probes_out", self.keepalive_probes_out);
        out.counter("keepalive_giveups", self.keepalive_giveups);
        out.counter("time_wait_rejects", self.time_wait_rejects);
        out.counter("ooo_segs_in", self.ooo_segs_in);
        out.counter("dup_acks_in", self.dup_acks_in);
    }
}

impl TcpConn {
    /// Opens a client connection: stages a SYN.
    pub fn connect(
        local: (Ipv4Addr, u16),
        remote: (Ipv4Addr, u16),
        cfg: TcpConfig,
        isn: u32,
        now: SimTime,
    ) -> Self {
        let mut c = Self::common(local, remote, cfg, isn, TcpState::SynSent);
        c.send_syn(now);
        c
    }

    /// Accepts an incoming SYN on a listening port: stages a SYN-ACK.
    ///
    /// # Panics
    ///
    /// Panics if `syn` is not a SYN segment.
    pub fn accept(
        local: (Ipv4Addr, u16),
        remote: (Ipv4Addr, u16),
        cfg: TcpConfig,
        isn: u32,
        syn: &TcpSegment,
        now: SimTime,
    ) -> Self {
        assert!(syn.flags.syn && !syn.flags.ack, "accept() requires a SYN");
        let mut c = Self::common(local, remote, cfg, isn, TcpState::SynRcvd);
        c.take_syn(syn);
        c.send_syn(now);
        c
    }

    fn common(
        local: (Ipv4Addr, u16),
        remote: (Ipv4Addr, u16),
        cfg: TcpConfig,
        isn: u32,
        state: TcpState,
    ) -> Self {
        let cwnd = (INIT_CWND_SEGS * cfg.mss) as f64;
        TcpConn {
            state,
            local,
            remote,
            snd_una: isn,
            snd_nxt: isn.wrapping_add(1), // SYN consumes one
            snd_base: isn.wrapping_add(1),
            snd_buf: VecDeque::new(),
            snd_wnd: cfg.mss as u32, // until the peer tells us
            peer_wscale: 0,
            fin_queued: false,
            fin_sent: false,
            rcv_nxt: 0,
            rcv_buf: VecDeque::new(),
            ooo: BTreeMap::new(),
            rcv_fin: None,
            fin_rcvd: false,
            cwnd,
            ssthresh: f64::INFINITY,
            dupacks: 0,
            srtt: None,
            rttvar: 0.0,
            rto: SimTime::from_secs(1),
            rto_backoff: 0,
            consec_rtos: 0,
            rto_recover: None,
            error: None,
            rtx_deadline: None,
            time_wait_deadline: None,
            rtt_probe: None,
            persist_deadline: None,
            persist_backoff: 0,
            ka_deadline: None,
            ka_probes_sent: 0,
            saw_time_wait: false,
            segs_unacked: 0,
            ack_deadline: None,
            need_ack_now: false,
            out: Vec::new(),
            stats: TcpStats::default(),
            cfg,
        }
    }

    // ---------- accessors ----------

    /// Current protocol state.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// Local (address, port).
    pub fn local(&self) -> (Ipv4Addr, u16) {
        self.local
    }

    /// Remote (address, port).
    pub fn remote(&self) -> (Ipv4Addr, u16) {
        self.remote
    }

    /// The stack's demux key: (local address, local port, remote address,
    /// remote port).
    pub(crate) fn key(&self) -> (Ipv4Addr, u16, Ipv4Addr, u16) {
        (self.local.0, self.local.1, self.remote.0, self.remote.1)
    }

    /// Statistics so far.
    pub fn stats(&self) -> &TcpStats {
        &self.stats
    }

    /// Why the connection failed terminally, if it did. `Some(..)` implies
    /// [`TcpState::Closed`]; a clean FIN/FIN close leaves this `None`.
    pub fn error(&self) -> Option<TcpError> {
        self.error
    }

    /// Bytes the application could read right now.
    pub fn readable(&self) -> usize {
        self.rcv_buf.len()
    }

    /// Bytes of send-buffer space available to the application.
    pub fn writable(&self) -> usize {
        if matches!(
            self.state,
            TcpState::Established | TcpState::CloseWait | TcpState::SynSent | TcpState::SynRcvd
        ) && !self.fin_queued
        {
            SEND_BUF - self.snd_buf.len()
        } else {
            0
        }
    }

    /// True once the peer's data stream has ended and everything was read.
    pub fn at_eof(&self) -> bool {
        self.fin_rcvd && self.rcv_buf.is_empty()
    }

    /// Current congestion window in bytes (for instrumentation).
    pub fn cwnd(&self) -> u64 {
        self.cwnd as u64
    }

    /// Bytes in flight (sent, not yet cumulatively acknowledged).
    pub fn in_flight(&self) -> u32 {
        self.snd_nxt.wrapping_sub(self.snd_una)
    }

    /// Peer's advertised (scaled) receive window in bytes.
    pub fn snd_wnd(&self) -> u32 {
        self.snd_wnd
    }

    /// True when both FINs were exchanged cleanly: the connection finished
    /// its lifecycle and the slot can be recycled once drained.
    pub fn finished_cleanly(&self) -> bool {
        self.fin_sent && self.fin_rcvd && self.error.is_none()
    }

    /// The connection went through TIME_WAIT on its way to `Closed`.
    pub fn passed_time_wait(&self) -> bool {
        self.saw_time_wait
    }

    /// Bytes accepted from the app but not yet transmitted.
    pub fn unsent(&self) -> usize {
        self.snd_buf
            .len()
            .saturating_sub(self.snd_nxt.wrapping_sub(self.snd_base) as usize)
    }

    fn recv_window_field(&self) -> u16 {
        let free = self.cfg.recv_buf - self.rcv_buf.len();
        ((free >> WSCALE) as u32).min(u16::MAX as u32) as u16
    }

    // ---------- segments ----------

    /// A segment from this side: ports, `ack = rcv_nxt` and the current
    /// receive window.
    fn segment(&self, seq: u32, flags: TcpFlags, payload: Bytes) -> TcpSegment {
        TcpSegment {
            src_port: self.local.1,
            dst_port: self.remote.1,
            seq,
            ack: self.rcv_nxt,
            flags,
            window: self.recv_window_field(),
            mss: None,
            wscale: None,
            payload,
            checksum_ok: true,
        }
    }

    /// This side's SYN (in `SynSent`) or SYN-ACK, with the MSS and
    /// window-scale options, always at `snd_una`.
    fn syn_segment(&self) -> TcpSegment {
        let flags = if self.state == TcpState::SynSent {
            TcpFlags::SYN
        } else {
            TcpFlags::SYN_ACK
        };
        TcpSegment {
            mss: Some(self.cfg.mss as u16),
            wscale: Some(WSCALE),
            ..self.segment(self.snd_una, flags, Bytes::new())
        }
    }

    /// A persist or keepalive probe: a pure ACK one byte *below* the
    /// expected sequence (RFC 1122 §4.2.3.6), which a live peer answers
    /// with a challenge ACK carrying its current window.
    fn probe_segment(&self) -> TcpSegment {
        self.segment(self.snd_nxt.wrapping_sub(1), TcpFlags::ACK, Bytes::new())
    }

    /// `len` bytes of the send buffer from offset `off`.
    fn payload_at(&self, off: usize, len: usize) -> Bytes {
        if len == 0 {
            return Bytes::new();
        }
        let mut payload = vec![0; len];
        copy_from_deque(&self.snd_buf, off, &mut payload);
        Bytes::from(payload)
    }

    /// Stages this side's SYN (or SYN-ACK) and arms its retransmission.
    fn send_syn(&mut self, now: SimTime) {
        self.out.push(self.syn_segment());
        self.arm_rtx(now);
    }

    /// Takes the peer's SYN (or SYN-ACK): its sequence number, window
    /// scale and window, the MSS clamp and the initial congestion window.
    fn take_syn(&mut self, syn: &TcpSegment) {
        self.rcv_nxt = syn.seq.wrapping_add(1);
        self.peer_wscale = syn.wscale.unwrap_or(0);
        if let Some(mss) = syn.mss {
            self.cfg.mss = self.cfg.mss.min(mss as usize);
            self.cfg.tso_max = self.cfg.tso_max.max(self.cfg.mss);
        }
        self.cwnd = (INIT_CWND_SEGS * self.cfg.mss) as f64;
        self.snd_wnd = (syn.window as u32) << self.peer_wscale;
    }

    /// Closes the connection at once and cancels every timer; `error`,
    /// when given, records why.
    fn shut(&mut self, error: Option<TcpError>) {
        self.error = error.or(self.error);
        self.state = TcpState::Closed;
        self.rtx_deadline = None;
        self.ack_deadline = None;
        self.time_wait_deadline = None;
        self.persist_deadline = None;
        self.ka_deadline = None;
    }

    /// A segment carrying the current `rcv_nxt` left: the ACK policy is
    /// satisfied.
    fn ack_sent(&mut self) {
        self.need_ack_now = false;
        self.segs_unacked = 0;
        self.ack_deadline = None;
    }

    // ---------- application interface ----------

    /// Accepts up to `data.len()` bytes into the send buffer; returns how
    /// many were accepted (0 when the buffer is full or the stream is
    /// closed). Call [`take_output`](Self::take_output) afterwards.
    pub fn send(&mut self, data: &[u8], now: SimTime) -> usize {
        let n = data.len().min(self.writable());
        self.snd_buf.extend(&data[..n]);
        self.stats.bytes_sent += n as u64;
        self.emit(now);
        n
    }

    /// Reads up to `buf.len()` bytes of in-order received data.
    pub fn recv(&mut self, buf: &mut [u8], now: SimTime) -> usize {
        let n = buf.len().min(self.rcv_buf.len());
        let free_before = self.cfg.recv_buf - self.rcv_buf.len();
        copy_from_deque(&self.rcv_buf, 0, &mut buf[..n]);
        self.rcv_buf.drain(..n);
        self.stats.bytes_delivered += n as u64;
        if n > 0 {
            // Window-update ACKs: when the advertised window reopens from
            // (near) zero, or crosses the half-buffer mark, tell the peer —
            // otherwise a sender blocked on flow control only discovers the
            // space via its persist probe.
            let free_after = self.cfg.recv_buf - self.rcv_buf.len();
            if (free_before < self.cfg.mss && free_after >= self.cfg.mss)
                || (free_before * 2 < self.cfg.recv_buf && free_after * 2 >= self.cfg.recv_buf)
            {
                self.need_ack_now = true;
            }
            self.emit(now);
        }
        n
    }

    /// Closes the send direction (queues a FIN after pending data).
    pub fn close(&mut self, now: SimTime) {
        if !self.fin_queued
            && matches!(
                self.state,
                TcpState::Established | TcpState::CloseWait | TcpState::SynRcvd
            )
        {
            self.fin_queued = true;
            self.emit(now);
        }
    }

    /// Hard reset: stages an RST and closes immediately.
    pub fn abort(&mut self) {
        if self.state != TcpState::Closed {
            self.out.push(TcpSegment {
                window: 0,
                ..self.segment(self.snd_nxt, TcpFlags::RST, Bytes::new())
            });
            self.shut(None);
        }
    }

    /// Drains staged outbound segments.
    pub fn take_output(&mut self) -> Vec<TcpSegment> {
        std::mem::take(&mut self.out)
    }

    /// True if there are staged outbound segments.
    pub fn has_output(&self) -> bool {
        !self.out.is_empty()
    }

    // ---------- timers ----------

    /// The earliest pending timer deadline, if any.
    pub fn next_timer(&self) -> Option<SimTime> {
        [
            self.rtx_deadline,
            self.ack_deadline,
            self.time_wait_deadline,
            self.persist_deadline,
            self.ka_deadline,
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// Fires any timers whose deadline is `<= now`.
    pub fn on_timer(&mut self, now: SimTime) {
        if self.time_wait_deadline.is_some_and(|d| d <= now) {
            self.time_wait_deadline = None;
            self.state = TcpState::Closed;
        }
        if self.ack_deadline.is_some_and(|d| d <= now) {
            self.ack_deadline = None;
            self.need_ack_now = true;
        }
        if self.rtx_deadline.is_some_and(|d| d <= now) {
            self.rtx_deadline = None;
            self.on_rto(now);
        }
        if self.persist_deadline.is_some_and(|d| d <= now) {
            self.persist_deadline = None;
            self.on_persist(now);
        }
        if self.ka_deadline.is_some_and(|d| d <= now) {
            self.ka_deadline = None;
            self.on_keepalive(now);
        }
        self.emit(now);
    }

    /// True while the peer's zero window is the only thing stopping us
    /// from transmitting: data (or a queued FIN) waits and nothing is in
    /// flight to carry a window update back via its ACK.
    fn zero_window_blocked(&self) -> bool {
        self.snd_wnd == 0
            && self.in_flight() == 0
            && ((self.snd_nxt.wrapping_sub(self.snd_base) as usize) < self.snd_buf.len()
                || (self.fin_queued && !self.fin_sent))
    }

    /// Arms (or re-arms) the persist timer with exponential backoff.
    fn arm_persist(&mut self, now: SimTime) {
        let interval = SimTime::from_ps(
            MIN_RTO
                .as_ps()
                .saturating_mul(1u64 << self.persist_backoff.min(10)),
        )
        .min(SimTime::from_secs(60));
        self.persist_deadline = Some(now + interval);
    }

    /// The persist timer fired: probe the zero-window peer. The probe's
    /// challenge ACK carries the receiver's *current* window, reopening
    /// the pipe the instant space exists. Unlike the RTO
    /// path this never counts toward the dead-peer give-up budget: a
    /// zero-window peer is alive by definition (it keeps answering), and
    /// probing continues for as long as the stall does.
    fn on_persist(&mut self, now: SimTime) {
        if !matches!(
            self.state,
            TcpState::Established | TcpState::CloseWait | TcpState::FinWait1 | TcpState::LastAck
        ) || !self.zero_window_blocked()
        {
            self.persist_backoff = 0;
            return;
        }
        self.out.push(self.probe_segment());
        self.stats.persist_probes_out += 1;
        self.persist_backoff = (self.persist_backoff + 1).min(10);
        self.arm_persist(now);
    }

    /// The keepalive timer fired: probe the idle peer, or declare it dead
    /// after the probe budget is spent.
    fn on_keepalive(&mut self, now: SimTime) {
        // Keepalive only guards states where the peer is expected to
        // answer; teardown states with segments in flight are covered by
        // the retransmission timer instead.
        if !matches!(
            self.state,
            TcpState::Established
                | TcpState::CloseWait
                | TcpState::FinWait1
                | TcpState::FinWait2
                | TcpState::Closing
                | TcpState::LastAck
        ) {
            return;
        }
        if self.ka_probes_sent >= self.cfg.keepalive_probes {
            self.stats.keepalive_giveups += 1;
            self.shut(Some(TcpError::KeepaliveTimeout));
            return;
        }
        // A live peer's challenge ACK resets the idle timer; a dead one
        // stays silent.
        self.out.push(self.probe_segment());
        self.stats.keepalive_probes_out += 1;
        self.ka_probes_sent += 1;
        self.ka_deadline = Some(now + self.cfg.keepalive_intvl);
    }

    /// Any sign of life from the peer: reset the probe count and re-arm
    /// the idle deadline (a no-op when keepalive is disabled).
    fn touch_keepalive(&mut self, now: SimTime) {
        self.ka_probes_sent = 0;
        self.ka_deadline = self.cfg.keepalive_idle.map(|idle| now + idle);
    }

    fn on_rto(&mut self, now: SimTime) {
        if self.state == TcpState::Closed {
            return;
        }
        self.stats.timeouts += 1;
        self.consec_rtos = self.consec_rtos.saturating_add(1);
        if self.consec_rtos > MAX_RTO_RETRIES {
            // The peer has not acknowledged anything across the whole retry
            // budget: declare it dead instead of retransmitting forever.
            self.stats.rto_giveups += 1;
            self.shut(Some(TcpError::TimedOut));
            return;
        }
        // Multiplicative decrease + slow-start restart (classic Reno RTO).
        let inflight = self.in_flight() as f64;
        self.ssthresh = (inflight / 2.0).max(2.0 * self.cfg.mss as f64);
        self.cwnd = self.cfg.mss as f64;
        self.dupacks = 0;
        self.rto_backoff = (self.rto_backoff + 1).min(10);
        // Karn's algorithm: no RTT samples from retransmissions.
        self.rtt_probe = None;
        // Everything between snd_una and snd_nxt is treated as lost:
        // forward ACKs below this point drive go-back-N retransmission.
        if self.in_flight() > 0 {
            self.rto_recover = Some(self.snd_nxt);
        }
        self.retransmit_head();
        self.arm_rtx(now);
    }

    /// Retransmits the earliest unacknowledged segment.
    fn retransmit_head(&mut self) {
        self.stats.retransmits += 1;
        if matches!(self.state, TcpState::SynSent | TcpState::SynRcvd) {
            self.out.push(self.syn_segment());
            return;
        }
        // Data (or FIN) from snd_una. Once the FIN is acknowledged, `off`
        // can pass the end of the buffer.
        let off = self.snd_una.wrapping_sub(self.snd_base) as usize;
        let len = self.snd_buf.len().saturating_sub(off).min(self.cfg.mss);
        let fin = self.fin_sent && off + len >= self.snd_buf.len();
        if len > 0 || fin {
            let flags = if fin {
                TcpFlags::FIN_ACK
            } else {
                TcpFlags::ACK
            };
            self.out
                .push(self.segment(self.snd_una, flags, self.payload_at(off, len)));
        }
        self.ack_sent();
    }

    fn arm_rtx(&mut self, now: SimTime) {
        let backoff = SimTime::from_ps(
            self.rto
                .as_ps()
                .saturating_mul(1u64 << self.rto_backoff.min(10)),
        );
        let rto = backoff.max(MIN_RTO).min(SimTime::from_secs(60));
        self.rtx_deadline = Some(now + rto);
    }

    fn update_rtt(&mut self, sample: f64) {
        match self.srtt {
            None => {
                self.srtt = Some(sample);
                self.rttvar = sample / 2.0;
            }
            Some(s) => {
                self.rttvar = 0.75 * self.rttvar + 0.25 * (s - sample).abs();
                self.srtt = Some(0.875 * s + 0.125 * sample);
            }
        }
        let rto = self.srtt.expect("set") + 4.0 * self.rttvar;
        self.rto = SimTime::from_secs_f64(rto).max(MIN_RTO);
        self.rto_backoff = 0;
        self.consec_rtos = 0;
    }

    // ---------- segment input ----------

    /// Processes an incoming segment addressed to this connection.
    /// Checksum policy is the caller's: segments passed here are trusted.
    pub fn on_segment(&mut self, seg: &TcpSegment, now: SimTime) {
        if seg.flags.rst {
            let live = !matches!(self.state, TcpState::Closed | TcpState::TimeWait);
            self.shut(live.then_some(TcpError::PeerReset));
            return;
        }
        match self.state {
            TcpState::SynSent => {
                if seg.flags.syn && seg.flags.ack && seg.ack == self.snd_nxt {
                    self.take_syn(seg);
                    self.snd_una = seg.ack;
                    self.state = TcpState::Established;
                    self.rtx_deadline = None;
                    self.consec_rtos = 0;
                    self.need_ack_now = true;
                    self.touch_keepalive(now);
                } else if seg.flags.syn && !seg.flags.ack {
                    // Simultaneous open (RFC 793 fig. 8): our SYN and the
                    // peer's crossed. Acknowledge theirs with a SYN-ACK and
                    // move to SynRcvd; the peer's crossing SYN-ACK then
                    // completes the handshake through the SynRcvd arm.
                    self.take_syn(seg);
                    self.state = TcpState::SynRcvd;
                    self.send_syn(now);
                }
            }
            TcpState::SynRcvd => {
                if seg.flags.ack && seg.ack == self.snd_nxt {
                    self.snd_una = seg.ack;
                    self.snd_wnd = (seg.window as u32) << self.peer_wscale;
                    self.state = TcpState::Established;
                    self.rtx_deadline = None;
                    self.consec_rtos = 0;
                    self.touch_keepalive(now);
                    // Fall through to data processing: the ACK may carry data.
                    self.process_established(seg, now);
                }
            }
            TcpState::TimeWait => {
                // RFC 1337-adjacent quarantine: only a retransmitted FIN
                // (our final ACK was lost) is answered; everything else
                // from the old incarnation is discarded and counted so a
                // churn run can prove stale segments really die here.
                if seg.flags.fin {
                    self.need_ack_now = true;
                    self.enter_time_wait(now); // restart 2MSL
                } else {
                    self.stats.time_wait_rejects += 1;
                }
            }
            TcpState::Closed => {}
            _ => self.process_established(seg, now),
        }
        self.emit(now);
    }

    fn process_established(&mut self, seg: &TcpSegment, now: SimTime) {
        // Any segment from the peer proves the path and the peer are alive
        // (e.g. zero-window ACKs that make no forward progress): the RTO
        // give-up counter only accumulates across total silence.
        self.consec_rtos = 0;
        self.touch_keepalive(now);
        // Keepalive probes arrive as pure ACKs one byte below the expected
        // sequence: answer with a challenge ACK so the prober sees life.
        // Normal pure ACKs carry seq == rcv_nxt and never take this path.
        if seg.payload.is_empty()
            && !seg.flags.syn
            && !seg.flags.fin
            && seq_lt(seg.seq, self.rcv_nxt)
        {
            self.need_ack_now = true;
        }
        // --- ACK side ---
        if seg.flags.ack {
            let ack = seg.ack;
            if seq_lt(self.snd_una, ack) && seq_le(ack, self.snd_nxt) {
                let acked = ack.wrapping_sub(self.snd_una);
                self.advance_una(ack);
                self.dupacks = 0;
                // Any forward ACK progress proves the peer is alive — and
                // per RFC 6298 §5.7 the retransmission timer restarts with
                // the *current* RTO, not the backed-off one (Karn keeps
                // RTT samples away during recovery, so without this the
                // backoff would double forever while making progress).
                self.consec_rtos = 0;
                self.rto_backoff = 0;
                if let Some((probe_seq, sent_at)) = self.rtt_probe {
                    if seq_lt(probe_seq, ack) {
                        self.update_rtt((now - sent_at).as_secs_f64());
                        self.rtt_probe = None;
                    }
                }
                // cwnd growth.
                if self.cwnd < self.ssthresh {
                    self.cwnd += (acked as f64).min(self.cfg.mss as f64);
                } else {
                    self.cwnd += (self.cfg.mss as f64 * self.cfg.mss as f64 / self.cwnd).max(1.0);
                }
                // Go-back-N recovery: a partial ACK below the recovery
                // point means the next unacked segment died with the rest
                // of the flight (crashed rings lose everything at once) —
                // retransmit it on the ACK clock, one RTT apart, instead
                // of one per doubled RTO.
                if let Some(rec) = self.rto_recover {
                    if seq_lt(self.snd_una, rec) {
                        self.retransmit_head();
                    } else {
                        self.rto_recover = None;
                    }
                }
                // Restart or clear the retransmission timer.
                if self.in_flight() > 0 {
                    self.arm_rtx(now);
                } else {
                    self.rtx_deadline = None;
                }
                self.on_fin_acked(now);
            } else if ack == self.snd_una
                && self.in_flight() > 0
                && seg.payload.is_empty()
                && !seg.flags.fin
            {
                self.stats.dup_acks_in += 1;
                self.dupacks += 1;
                if self.dupacks == 3 {
                    self.stats.fast_retransmits += 1;
                    let inflight = self.in_flight() as f64;
                    self.ssthresh = (inflight / 2.0).max(2.0 * self.cfg.mss as f64);
                    self.cwnd = self.ssthresh;
                    self.retransmit_head();
                    self.arm_rtx(now);
                }
            }
            self.snd_wnd = (seg.window as u32) << self.peer_wscale;
        }

        // --- data side ---
        if !seg.payload.is_empty() {
            self.ingest_data(seg.seq, seg.payload.clone(), now);
        }

        // --- FIN side ---
        if seg.flags.fin {
            let fin_seq = seg.seq.wrapping_add(seg.payload.len() as u32);
            if seq_lt(fin_seq, self.rcv_nxt) {
                self.need_ack_now = true; // retransmitted FIN
            } else if !self.fin_rcvd {
                self.rcv_fin = Some(fin_seq);
            }
        }
        if self.rcv_fin == Some(self.rcv_nxt) {
            self.rcv_fin = None;
            self.rcv_nxt = self.rcv_nxt.wrapping_add(1);
            self.fin_rcvd = true;
            self.need_ack_now = true;
            self.state = match self.state {
                TcpState::Established => TcpState::CloseWait,
                TcpState::FinWait1 => TcpState::Closing,
                TcpState::FinWait2 => {
                    self.enter_time_wait(now);
                    TcpState::TimeWait
                }
                s => s,
            };
        }
    }

    fn advance_una(&mut self, ack: u32) {
        // Bytes (not SYN/FIN flags) covered by this ACK relative to the
        // send-buffer base.
        let new_off = ack.wrapping_sub(self.snd_base) as usize;
        let buffered = self.snd_buf.len();
        let drop = new_off.min(buffered);
        self.snd_buf.drain(..drop);
        self.snd_base = self.snd_base.wrapping_add(drop as u32);
        self.snd_una = ack;
    }

    fn on_fin_acked(&mut self, now: SimTime) {
        if self.fin_sent && self.snd_una == self.snd_nxt {
            match self.state {
                TcpState::FinWait1 => self.state = TcpState::FinWait2,
                TcpState::Closing => {
                    // Simultaneous close: both FINs crossed, ours is now
                    // acknowledged — wait out 2MSL like any active closer.
                    self.enter_time_wait(now);
                    self.state = TcpState::TimeWait;
                }
                TcpState::LastAck => {
                    self.state = TcpState::Closed;
                    self.ka_deadline = None;
                }
                _ => {}
            }
        }
    }

    fn enter_time_wait(&mut self, now: SimTime) {
        // 2MSL shortened to `TIME_WAIT`; the stack frees the port and slot
        // after expiry.
        self.time_wait_deadline = Some(now + TIME_WAIT);
        self.saw_time_wait = true;
        self.ka_deadline = None;
        self.rtx_deadline = None;
        self.persist_deadline = None;
    }

    fn ingest_data(&mut self, seq: u32, mut payload: Bytes, now: SimTime) {
        // Trim anything we already have.
        if seq_lt(seq, self.rcv_nxt) {
            let dup = self.rcv_nxt.wrapping_sub(seq) as usize;
            if dup >= payload.len() {
                self.need_ack_now = true; // full duplicate: re-ACK
                return;
            }
            payload = payload.slice(dup..);
        }
        let seq = if seq_lt(seq, self.rcv_nxt) {
            self.rcv_nxt
        } else {
            seq
        };

        if seq == self.rcv_nxt {
            let free = self.cfg.recv_buf - self.rcv_buf.len();
            let take = payload.len().min(free);
            self.rcv_buf.extend(&payload[..take]);
            self.rcv_nxt = self.rcv_nxt.wrapping_add(take as u32);
            // Drain any now-contiguous out-of-order data.
            while let Some((&oseq, _)) = self.ooo.first_key_value() {
                if seq_lt(self.rcv_nxt, oseq) {
                    break;
                }
                let (oseq, data) = self.ooo.pop_first().expect("checked");
                let skip = self.rcv_nxt.wrapping_sub(oseq) as usize;
                if skip < data.len() {
                    let free = self.cfg.recv_buf - self.rcv_buf.len();
                    let take = (data.len() - skip).min(free);
                    self.rcv_buf.extend(&data[skip..skip + take]);
                    self.rcv_nxt = self.rcv_nxt.wrapping_add(take as u32);
                }
            }
            self.segs_unacked += 1;
            if self.segs_unacked >= 2 {
                self.need_ack_now = true;
            } else if self.ack_deadline.is_none() {
                self.ack_deadline = Some(now + DELACK);
            }
        } else {
            // Out of order: stash and send an immediate duplicate ACK so the
            // sender's fast-retransmit counter advances.
            self.stats.ooo_segs_in += 1;
            self.ooo.entry(seq).or_insert(payload);
            self.need_ack_now = true;
        }
    }

    // ---------- output ----------

    /// Builds and stages everything currently allowed to leave: new data up
    /// to min(cwnd, peer window), a FIN when queued, and pure ACKs demanded
    /// by the ACK policy.
    fn emit(&mut self, now: SimTime) {
        if matches!(self.state, TcpState::SynSent | TcpState::Closed) {
            return;
        }
        let mut sent_any = false;
        if matches!(
            self.state,
            TcpState::Established | TcpState::CloseWait | TcpState::FinWait1 | TcpState::LastAck
        ) {
            let window = (self.cwnd as u32).min(self.snd_wnd);
            loop {
                let in_flight = self.in_flight();
                if in_flight >= window {
                    break;
                }
                let budget = (window - in_flight) as usize;
                let off = self.snd_nxt.wrapping_sub(self.snd_base) as usize;
                let unsent = self.snd_buf.len().saturating_sub(off);
                let len = unsent.min(budget).min(self.cfg.tso_max);
                if len == 0 {
                    break;
                }
                let is_last = off + len == self.snd_buf.len();
                let fin_now = self.fin_queued && is_last && !self.fin_sent;
                let seq = self.snd_nxt;
                let flags = TcpFlags {
                    fin: fin_now,
                    psh: is_last,
                    ..TcpFlags::ACK
                };
                self.out
                    .push(self.segment(seq, flags, self.payload_at(off, len)));
                self.snd_nxt = self.snd_nxt.wrapping_add(len as u32 + fin_now as u32);
                if fin_now {
                    self.mark_fin_sent();
                }
                self.stats.data_segs_out += 1;
                if self.rtt_probe.is_none() {
                    self.rtt_probe = Some((seq, now));
                }
                sent_any = true;
            }
            // FIN with no data left to send.
            let off = self.snd_nxt.wrapping_sub(self.snd_base) as usize;
            if self.fin_queued && !self.fin_sent && off >= self.snd_buf.len() {
                self.out
                    .push(self.segment(self.snd_nxt, TcpFlags::FIN_ACK, Bytes::new()));
                self.snd_nxt = self.snd_nxt.wrapping_add(1);
                self.mark_fin_sent();
                sent_any = true;
            }
            if sent_any {
                self.ack_sent();
                if self.rtx_deadline.is_none() {
                    self.arm_rtx(now);
                }
            }
            // Persist behaviour: the peer advertised a zero window and we
            // still have data (or a FIN) to move — arm the dedicated
            // persist timer. Its probes elicit window updates without
            // touching the RTO machinery, so a long flow-control stall can
            // never masquerade as a dead peer (`TcpError::TimedOut`).
            if self.zero_window_blocked() {
                if self.persist_deadline.is_none() {
                    if self.persist_backoff == 0 {
                        self.stats.zero_window_stalls += 1;
                    }
                    self.arm_persist(now);
                }
            } else if self.persist_deadline.is_some() || self.persist_backoff != 0 {
                // Window reopened (or everything was sent): stand down.
                self.persist_deadline = None;
                self.persist_backoff = 0;
            }
        }
        if self.need_ack_now && !sent_any {
            self.out
                .push(self.segment(self.snd_nxt, TcpFlags::ACK, Bytes::new()));
            self.stats.acks_out += 1;
            self.ack_sent();
        }
    }

    fn mark_fin_sent(&mut self) {
        self.fin_sent = true;
        self.state = match self.state {
            TcpState::Established => TcpState::FinWait1,
            TcpState::CloseWait => TcpState::LastAck,
            s => s,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcn_sim::DetRng;

    #[test]
    fn deque_copy_matches_the_byte_iterator_on_a_wrapped_buffer() {
        let mut q: VecDeque<u8> = VecDeque::with_capacity(16);
        q.extend(0..12);
        q.drain(..9);
        q.extend(100..110);
        assert!(!q.as_slices().1.is_empty(), "contents must wrap the ring");
        for off in 0..=q.len() {
            for len in 0..=q.len() - off {
                let want: Vec<u8> = q.iter().skip(off).take(len).copied().collect();
                let mut got = vec![0; len];
                copy_from_deque(&q, off, &mut got);
                assert_eq!(got, want, "off {off} len {len}");
            }
        }
    }

    fn addr(n: u8) -> (Ipv4Addr, u16) {
        (Ipv4Addr::new(10, 0, 0, n), 1000 + n as u16)
    }

    /// Shuttles segments between two connections over an ideal or lossy
    /// wire with the given one-way latency, firing timers as needed.
    struct Harness {
        a: TcpConn,
        b: TcpConn,
        now: SimTime,
        latency: SimTime,
        drop_rate: f64,
        rng: DetRng,
        /// (arrival time, seq, from_a, segment); a sorted-scan Vec is plenty
        /// for test-sized traffic.
        in_flight: Vec<(SimTime, u64, bool, TcpSegment)>,
        seq: u64,
        /// Every segment `pump` took, before the loss roll: (count,
        /// FNV-1a over each one's emission time and wire bytes).
        stream: (u64, u64),
        /// The distinct (flags, carries payload) pairs `pump` took.
        kinds: Vec<(TcpFlags, bool)>,
    }

    impl Harness {
        fn new(cfg: TcpConfig, latency: SimTime, drop_rate: f64) -> Self {
            let now = SimTime::ZERO;
            let a = TcpConn::connect(addr(1), addr(2), cfg.clone(), 1000, now);
            Harness {
                a,
                b: TcpConn::common(addr(2), addr(1), cfg, 0, TcpState::Closed), // replaced on SYN
                now,
                latency,
                drop_rate,
                rng: DetRng::new(7),
                in_flight: Default::default(),
                seq: 0,
                stream: (0, 0),
                kinds: Vec::new(),
            }
        }

        fn pump(&mut self) {
            // Collect outputs from both sides.
            for (from_a, out) in [(true, self.a.take_output()), (false, self.b.take_output())] {
                for seg in out {
                    let (src, dst) = if from_a {
                        (addr(1), addr(2))
                    } else {
                        (addr(2), addr(1))
                    };
                    let hash = mcn_sim::fnv1a64(self.stream.1, &self.now.as_ps().to_le_bytes());
                    let wire = seg.encode(src.0, dst.0, true);
                    self.stream = (self.stream.0 + 1, mcn_sim::fnv1a64(hash, &wire));
                    let kind = (seg.flags, !seg.payload.is_empty());
                    if !self.kinds.contains(&kind) {
                        self.kinds.push(kind);
                    }
                    if self.rng.chance(self.drop_rate) {
                        continue; // lost on the wire
                    }
                    self.seq += 1;
                    self.in_flight
                        .push((self.now + self.latency, self.seq, from_a, seg));
                }
            }
        }

        /// Advances to the next event (delivery or timer) and processes it.
        fn step(&mut self) -> bool {
            self.pump();
            let next_del = self.in_flight.iter().map(|(t, ..)| *t).min();
            let next_tmr = [self.a.next_timer(), self.b.next_timer()]
                .into_iter()
                .flatten()
                .min();
            let t = match (next_del, next_tmr) {
                (Some(d), Some(m)) => d.min(m),
                (Some(d), None) => d,
                (None, Some(m)) => m,
                (None, None) => return false,
            };
            self.now = t;
            if next_del == Some(t) {
                let idx = self
                    .in_flight
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, (at, s, ..))| (*at, *s))
                    .map(|(i, _)| i)
                    .expect("checked");
                let (_, _, from_a, seg) = self.in_flight.remove(idx);
                // First SYN creates the acceptor.
                if seg.flags.syn && !seg.flags.ack && self.b.state == TcpState::Closed {
                    self.b = TcpConn::accept(addr(2), addr(1), self.a.cfg.clone(), 9000, &seg, t);
                } else if from_a {
                    self.b.on_segment(&seg, t);
                } else {
                    self.a.on_segment(&seg, t);
                }
            } else {
                self.a.on_timer(t);
                self.b.on_timer(t);
            }
            self.pump();
            true
        }

        fn run_until<F: Fn(&Harness) -> bool>(&mut self, pred: F, max_steps: usize) {
            for _ in 0..max_steps {
                if pred(self) {
                    return;
                }
                if !self.step() {
                    break;
                }
            }
            assert!(pred(self), "condition not reached within {max_steps} steps");
        }

        /// Loses every segment on the wire that `hit(from_a, seg)` picks;
        /// returns how many.
        fn lose(&mut self, mut hit: impl FnMut(bool, &TcpSegment) -> bool) -> usize {
            let before = self.in_flight.len();
            self.in_flight
                .retain(|(_, _, from_a, seg)| !hit(*from_a, seg));
            before - self.in_flight.len()
        }

        /// Steps until b has read `n` bytes.
        fn read(&mut self, n: usize) {
            let mut buf = [0u8; 4096];
            let mut got = 0;
            while got < n {
                got += self.b.recv(&mut buf, self.now);
                if got < n {
                    assert!(self.step(), "stalled at {got} of {n} bytes");
                }
            }
        }
    }

    /// Pins `TcpConn`'s output at the byte level. Two scripted connection
    /// lives reach every segment kind it builds; the count and hash of
    /// every segment either side emitted must not move.
    #[test]
    fn segment_stream_is_pinned() {
        let ms = SimTime::from_ms;
        let cfg = TcpConfig {
            recv_buf: 32 * 1024,
            keepalive_idle: Some(ms(300)),
            keepalive_intvl: ms(100),
            keepalive_probes: 3,
            ..TcpConfig::default()
        };
        let mut h = Harness::new(cfg, SimTime::from_us(10), 0.0);
        let established = |h: &Harness| {
            h.a.state() == TcpState::Established && h.b.state() == TcpState::Established
        };

        // The SYN is lost, then the SYN-ACK: each comes back on its RTO.
        h.pump();
        assert_eq!(h.lose(|_, s| s.flags.syn), 1);
        h.run_until(|h| h.b.state() == TcpState::SynRcvd, 10);
        assert_eq!(h.lose(|_, s| s.flags.syn), 1);
        h.run_until(established, 20);
        assert_eq!((h.a.stats().timeouts, h.b.stats().timeouts), (1, 1));

        // One lost data segment: duplicate ACKs fast-retransmit it.
        assert_eq!(h.a.send(&[1; 12_000], h.now), 12_000);
        h.pump();
        let mut first = true;
        assert_eq!(
            h.lose(|from_a, s| from_a && !s.payload.is_empty() && std::mem::take(&mut first)),
            1
        );
        h.read(12_000);
        assert_eq!(h.a.stats().fast_retransmits, 1);

        // A whole flight is lost: one RTO, then go-back-N on the ACK clock.
        assert_eq!(h.a.send(&[2; 12_000], h.now), 12_000);
        h.pump();
        assert!(h.lose(|from_a, s| from_a && !s.payload.is_empty()) >= 3);
        h.read(12_000);
        let a = h.a.stats();
        assert_eq!(a.timeouts, 2);
        assert!(
            a.retransmits > a.timeouts + a.fast_retransmits,
            "go-back-N ran"
        );

        // The reader stalls: the window closes and the sender probes it,
        // while the idle receiver's keepalive probes the sender.
        assert_eq!(h.a.send(&[3; 48 * 1024], h.now), 48 * 1024);
        h.run_until(|h| h.a.stats().persist_probes_out >= 2, 10_000);
        h.read(48 * 1024);
        assert_eq!(h.a.stats().zero_window_stalls, 1);

        // Idle: both sides' keepalive probes are answered.
        let probes = h.a.stats().keepalive_probes_out;
        h.run_until(|h| h.a.stats().keepalive_probes_out > probes, 1000);

        // a closes behind queued data, so its FIN rides the last data
        // segment; that segment is lost and its RTO resends data and FIN.
        assert_eq!(h.a.send(&[4; 40_000], h.now), 40_000);
        h.a.close(h.now);
        let mut got = 0;
        while !h.in_flight.iter().any(|(.., seg)| seg.flags.fin) {
            got += h.b.recv(&mut [0; 4096], h.now);
            assert!(h.step());
        }
        assert_eq!(h.lose(|_, s| s.flags.fin && !s.payload.is_empty()), 1);
        h.read(40_000 - got);
        h.run_until(|h| h.b.at_eof(), 100);
        h.b.close(h.now);
        h.run_until(
            |h| h.a.state() == TcpState::Closed && h.b.state() == TcpState::Closed,
            100,
        );
        let (a, b) = (h.a.stats(), h.b.stats());
        assert_eq!((a.timeouts, b.timeouts), (3, 1));
        assert!(a.dup_acks_in >= 3 && b.ooo_segs_in >= 1);
        assert!(a.persist_probes_out >= 2 && a.keepalive_probes_out >= 1);
        assert!(b.keepalive_probes_out >= 1 && b.acks_out > 0);
        assert!(h.a.finished_cleanly() && h.b.finished_cleanly());

        // Second life: a simultaneous open and data both ways; a's bare
        // FIN is lost and resent on its RTO; then a aborts.
        let mut h2 = Harness::new(TcpConfig::default(), SimTime::from_us(10), 0.0);
        h2.b = TcpConn::connect(addr(2), addr(1), TcpConfig::default(), 9000, h2.now);
        (h2.stream, h2.kinds) = (h.stream, std::mem::take(&mut h.kinds));
        h2.run_until(established, 50);
        h2.a.send(b"ping", h2.now);
        h2.b.send(b"pong", h2.now);
        h2.run_until(|h| h.a.readable() == 4 && h.b.readable() == 4, 50);
        h2.a.close(h2.now);
        h2.pump();
        assert_eq!(h2.lose(|_, s| s.flags.fin), 1);
        h2.run_until(|h| h.a.state() == TcpState::FinWait2, 50);
        assert_eq!(h2.a.stats().timeouts, 1);
        h2.a.abort();
        h2.run_until(|h| h.b.state() == TcpState::Closed, 50);
        assert_eq!(h2.b.error(), Some(TcpError::PeerReset));

        let psh = TcpFlags {
            psh: true,
            ..TcpFlags::ACK
        };
        let fin_psh = TcpFlags {
            psh: true,
            ..TcpFlags::FIN_ACK
        };
        for kind in [
            (TcpFlags::SYN, false),
            (TcpFlags::SYN_ACK, false),
            (TcpFlags::ACK, false),
            (TcpFlags::ACK, true),
            (psh, true),
            (fin_psh, true),
            (TcpFlags::FIN_ACK, true),
            (TcpFlags::FIN_ACK, false),
            (TcpFlags::RST, false),
        ] {
            assert!(h2.kinds.contains(&kind), "no {kind:?} segment");
        }
        assert_eq!(
            h2.stream,
            (201, 0xb746_2ffe_c638_8231),
            "segment stream moved"
        );
    }

    #[test]
    fn handshake_establishes_both_sides() {
        let mut h = Harness::new(TcpConfig::default(), SimTime::from_us(10), 0.0);
        h.run_until(
            |h| h.a.state() == TcpState::Established && h.b.state() == TcpState::Established,
            50,
        );
    }

    #[test]
    fn bulk_transfer_delivers_exact_bytes() {
        let mut h = Harness::new(TcpConfig::default(), SimTime::from_us(10), 0.0);
        h.run_until(|h| h.a.state() == TcpState::Established, 50);
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let mut sent = 0;
        let mut received = Vec::new();
        let mut buf = [0u8; 4096];
        while received.len() < data.len() {
            if sent < data.len() {
                sent += h.a.send(&data[sent..], h.now);
            }
            let n = h.b.recv(&mut buf, h.now);
            received.extend_from_slice(&buf[..n]);
            if n == 0 && !h.step() {
                break;
            }
        }
        assert_eq!(received, data);
        assert_eq!(h.a.stats().retransmits, 0);
    }

    #[test]
    fn transfer_survives_10_percent_loss() {
        let mut h = Harness::new(TcpConfig::default(), SimTime::from_us(50), 0.10);
        h.run_until(|h| h.a.state() == TcpState::Established, 2000);
        let data: Vec<u8> = (0..50_000u32).map(|i| (i * 7 % 253) as u8).collect();
        let mut sent = 0;
        let mut received = Vec::new();
        let mut buf = [0u8; 4096];
        for _ in 0..200_000 {
            if sent < data.len() {
                sent += h.a.send(&data[sent..], h.now);
            }
            let n = h.b.recv(&mut buf, h.now);
            received.extend_from_slice(&buf[..n]);
            if received.len() == data.len() {
                break;
            }
            if n == 0 && !h.step() {
                break;
            }
        }
        assert_eq!(received.len(), data.len(), "all data must arrive");
        assert_eq!(received, data, "data must arrive uncorrupted and in order");
        assert!(
            h.a.stats().retransmits > 0,
            "loss must have caused retransmissions"
        );
    }

    #[test]
    fn fast_retransmit_triggers_before_rto() {
        // Drop exactly one data segment; the following segments generate
        // dupacks and recovery must come from fast retransmit, well before
        // the 200 ms min RTO.
        let mut h = Harness::new(TcpConfig::default(), SimTime::from_us(10), 0.0);
        h.run_until(|h| h.a.state() == TcpState::Established, 50);
        let data = vec![0xABu8; 40_000];
        h.a.send(&data, h.now);
        // Drop the first data segment manually.
        h.pump();
        let mut dropped = false;
        h.in_flight.sort_by_key(|(t, s, ..)| (*t, *s));
        h.in_flight.retain(|(_, _, fa, seg)| {
            if !dropped && *fa && !seg.payload.is_empty() {
                dropped = true;
                false
            } else {
                true
            }
        });
        assert!(dropped);
        let mut buf = [0u8; 65536];
        let mut got = 0;
        for _ in 0..10_000 {
            got += h.b.recv(&mut buf, h.now);
            if got == data.len() {
                break;
            }
            if !h.step() {
                break;
            }
        }
        assert_eq!(got, data.len());
        assert!(h.a.stats().fast_retransmits >= 1);
        assert!(
            h.now < SimTime::from_ms(100),
            "recovery should beat the RTO; took {}",
            h.now
        );
    }

    #[test]
    fn graceful_close_reaches_closed_or_timewait() {
        let mut h = Harness::new(TcpConfig::default(), SimTime::from_us(10), 0.0);
        h.run_until(|h| h.a.state() == TcpState::Established, 50);
        h.a.close(h.now);
        h.run_until(|h| h.b.at_eof(), 100);
        h.b.close(h.now);
        h.run_until(
            |h| {
                matches!(h.a.state(), TcpState::TimeWait | TcpState::Closed)
                    && h.b.state() == TcpState::Closed
            },
            200,
        );
        // TimeWait expires.
        h.run_until(|h| h.a.state() == TcpState::Closed, 50);
    }

    #[test]
    fn a_fin_that_overtakes_the_last_data_segment_is_kept() {
        let mut h = Harness::new(TcpConfig::default(), SimTime::from_us(10), 0.0);
        h.run_until(|h| h.a.state() == TcpState::Established, 50);
        assert_eq!(h.a.send(&[7u8; 3000], h.now), 3000);
        h.pump();
        h.a.close(h.now);
        h.pump();
        // Swap the arrival stamps of the last data segment and the bare
        // FIN behind it, so the FIN arrives first.
        let last = |h: &Harness, fin: bool| {
            h.in_flight
                .iter()
                .enumerate()
                .filter(|(_, (_, _, from_a, seg))| *from_a && seg.flags.fin == fin)
                .max_by_key(|(_, (at, s, ..))| (*at, *s))
                .map(|(i, _)| i)
                .expect("segment in flight")
        };
        let (data, fin) = (last(&h, false), last(&h, true));
        assert!(h.in_flight[fin].3.payload.is_empty(), "the FIN is bare");
        let stamp = (h.in_flight[data].0, h.in_flight[data].1);
        (h.in_flight[data].0, h.in_flight[data].1) = (h.in_flight[fin].0, h.in_flight[fin].1);
        (h.in_flight[fin].0, h.in_flight[fin].1) = stamp;
        h.run_until(
            |h| h.b.state() == TcpState::CloseWait && h.a.state() == TcpState::FinWait2,
            100,
        );
        assert_eq!(h.a.stats().timeouts, 0);
        assert!(h.now < SimTime::from_ms(1), "closed at {}", h.now);
    }

    #[test]
    fn rst_aborts_peer() {
        let mut h = Harness::new(TcpConfig::default(), SimTime::from_us(10), 0.0);
        h.run_until(|h| h.a.state() == TcpState::Established, 50);
        h.a.abort();
        h.run_until(|h| h.b.state() == TcpState::Closed, 20);
        assert_eq!(h.a.state(), TcpState::Closed);
    }

    #[test]
    fn cwnd_grows_during_slow_start() {
        let cfg = TcpConfig::default();
        let mut h = Harness::new(cfg.clone(), SimTime::from_us(100), 0.0);
        h.run_until(|h| h.a.state() == TcpState::Established, 50);
        let initial = h.a.cwnd();
        let data = vec![0u8; 200_000];
        let mut sent = 0;
        let mut buf = [0u8; 65536];
        let mut got = 0;
        while got < data.len() {
            if sent < data.len() {
                sent += h.a.send(&data[sent..], h.now);
            }
            got += h.b.recv(&mut buf, h.now);
            if !h.step() {
                break;
            }
        }
        assert!(
            h.a.cwnd() > 2 * initial,
            "cwnd should have grown: {} -> {}",
            initial,
            h.a.cwnd()
        );
    }

    #[test]
    fn delayed_ack_batches_acks() {
        // With delayed ACKs, pure-ACK count should be roughly half the data
        // segment count for a one-way bulk stream.
        let mut h = Harness::new(TcpConfig::default(), SimTime::from_us(10), 0.0);
        h.run_until(|h| h.a.state() == TcpState::Established, 50);
        let data = vec![1u8; 150_000];
        let mut sent = 0;
        let mut buf = [0u8; 65536];
        let mut got = 0;
        while got < data.len() {
            if sent < data.len() {
                sent += h.a.send(&data[sent..], h.now);
            }
            got += h.b.recv(&mut buf, h.now);
            if !h.step() {
                break;
            }
        }
        let data_segs = h.a.stats().data_segs_out;
        let acks = h.b.stats().acks_out;
        assert!(
            acks as f64 <= 0.75 * data_segs as f64,
            "delayed ACKs should batch: {acks} acks for {data_segs} segments"
        );
        assert!(acks > 0);
    }

    #[test]
    fn tso_emits_large_segments() {
        let cfg = TcpConfig {
            tso_max: 64 * 1024,
            ..TcpConfig::default()
        };
        let mut h = Harness::new(cfg, SimTime::from_us(10), 0.0);
        h.run_until(|h| h.a.state() == TcpState::Established, 50);
        // Pre-grow cwnd by transferring some data first.
        let data = vec![2u8; 400_000];
        let mut sent = 0;
        let mut buf = [0u8; 65536];
        let mut got = 0;
        let mut max_seg = 0usize;
        while got < data.len() {
            if sent < data.len() {
                sent += h.a.send(&data[sent..], h.now);
            }
            // Observe staged segments before the harness moves them.
            for (_, _, fa, seg) in h.in_flight.iter() {
                if *fa {
                    max_seg = max_seg.max(seg.payload.len());
                }
            }
            got += h.b.recv(&mut buf, h.now);
            if !h.step() {
                break;
            }
        }
        assert!(
            max_seg > 1460,
            "TSO should emit super-MSS segments, saw max {max_seg}"
        );
        assert_eq!(got, data.len());
    }

    #[test]
    fn flow_control_blocks_on_full_receive_buffer() {
        let mut h = Harness::new(TcpConfig::default(), SimTime::from_us(10), 0.0);
        h.run_until(|h| h.a.state() == TcpState::Established, 50);
        let data = vec![3u8; 600_000];
        let mut sent = 0;
        // Never read from b: sender must stop after filling b's 256 KB
        // receive buffer (plus what is still in flight).
        for _ in 0..10_000 {
            if sent < data.len() {
                sent += h.a.send(&data[sent..], h.now);
            }
            if !h.step() {
                break;
            }
        }
        assert!(
            h.b.readable() <= 256 * 1024,
            "receive buffer bounded: {}",
            h.b.readable()
        );
        // Sender's unsent backlog persists (it couldn't push everything).
        assert!(sent < data.len(), "flow control must stall the sender");
        // Now drain and confirm the rest flows.
        let mut buf = [0u8; 65536];
        let mut got = 0;
        for _ in 0..100_000 {
            if sent < data.len() {
                sent += h.a.send(&data[sent..], h.now);
            }
            got += h.b.recv(&mut buf, h.now);
            if got == data.len() {
                break;
            }
            if !h.step() {
                break;
            }
        }
        assert_eq!(got, data.len());
    }

    #[test]
    fn zero_window_stall_probes_with_persist_timer_not_rto() {
        // Fill b's receive buffer and never read: a stalls on a zero
        // window. The stall must be carried by the persist timer — probes
        // go out, the RTO give-up budget stays untouched — and the moment
        // b drains, data flows again without the connection ever failing.
        let mut h = Harness::new(TcpConfig::default(), SimTime::from_us(10), 0.0);
        h.run_until(|h| h.a.state() == TcpState::Established, 50);
        let data = vec![9u8; 600_000];
        let mut sent = 0;
        for _ in 0..10_000 {
            if sent < data.len() {
                sent += h.a.send(&data[sent..], h.now);
            }
            if h.a.stats().persist_probes_out >= 3 {
                break;
            }
            if !h.step() {
                break;
            }
        }
        assert!(sent < data.len(), "flow control must stall the sender");
        assert_eq!(h.a.stats().zero_window_stalls, 1, "one stall episode");
        assert!(
            h.a.stats().persist_probes_out >= 3,
            "persist probes must fire during the stall (saw {})",
            h.a.stats().persist_probes_out
        );
        assert_eq!(h.a.snd_wnd(), 0, "peer still advertises zero");
        assert_eq!(
            h.a.stats().timeouts,
            0,
            "a zero-window stall is not an RTO event"
        );
        assert!(h.a.error.is_none(), "stalled, not dead");

        // Drain the receiver: the next probe's challenge ACK (or the
        // half-buffer window update) reopens the pipe and the transfer
        // completes.
        let mut buf = [0u8; 65536];
        let mut got = 0;
        for _ in 0..100_000 {
            if sent < data.len() {
                sent += h.a.send(&data[sent..], h.now);
            }
            got += h.b.recv(&mut buf, h.now);
            if got == data.len() {
                break;
            }
            if !h.step() {
                break;
            }
        }
        assert_eq!(got, data.len(), "stall must end, not kill the flow");
        assert!(h.a.error.is_none());
        assert_eq!(h.a.stats().rto_giveups, 0);
    }

    #[test]
    fn seq_arithmetic_wraps() {
        assert!(seq_lt(u32::MAX, 0));
        assert!(seq_lt(u32::MAX - 5, 5));
        assert!(!seq_lt(5, u32::MAX - 5));
        assert!(seq_le(7, 7));
    }

    #[test]
    fn simultaneous_open_establishes_both_sides() {
        // RFC 793 fig. 8: both ends call connect() and the SYNs cross on
        // the wire. Each side answers with a SYN-ACK from SynSent and the
        // crossing SYN-ACKs complete the handshake via SynRcvd.
        let cfg = TcpConfig::default();
        let t = SimTime::ZERO;
        let mut a = TcpConn::connect(addr(1), addr(2), cfg.clone(), 1000, t);
        let mut b = TcpConn::connect(addr(2), addr(1), cfg, 9000, t);
        for _ in 0..8 {
            if a.state() == TcpState::Established && b.state() == TcpState::Established {
                break;
            }
            let oa = a.take_output();
            let ob = b.take_output();
            for s in &oa {
                b.on_segment(s, t);
            }
            for s in &ob {
                a.on_segment(s, t);
            }
        }
        assert_eq!(a.state(), TcpState::Established);
        assert_eq!(b.state(), TcpState::Established);
        // Data still flows over the crossed handshake, in both directions.
        a.send(b"ping!", t);
        b.send(b"pong", t);
        for _ in 0..4 {
            let oa = a.take_output();
            for s in &oa {
                b.on_segment(s, t);
            }
            let ob = b.take_output();
            for s in &ob {
                a.on_segment(s, t);
            }
        }
        let mut buf = [0u8; 16];
        assert_eq!(b.recv(&mut buf, t), 5);
        assert_eq!(&buf[..5], b"ping!");
        assert_eq!(a.recv(&mut buf, t), 4);
        assert_eq!(&buf[..4], b"pong");
    }

    #[test]
    fn time_wait_rejects_stale_segments_and_reacks_fin() {
        let mut h = Harness::new(TcpConfig::default(), SimTime::from_us(10), 0.0);
        h.run_until(|h| h.a.state() == TcpState::Established, 50);
        h.a.close(h.now);
        h.run_until(|h| h.b.at_eof(), 100);
        h.b.close(h.now);
        h.run_until(|h| h.a.state() == TcpState::TimeWait, 200);

        // A stale data segment from the old incarnation is discarded and
        // counted; it must neither elicit a reply nor disturb the state.
        let stale = TcpSegment {
            src_port: h.a.remote.1,
            dst_port: h.a.local.1,
            seq: h.a.rcv_nxt.wrapping_sub(50),
            ack: h.a.snd_nxt,
            flags: TcpFlags::ACK,
            window: 65535,
            mss: None,
            wscale: None,
            payload: Bytes::from_static(b"old ghost"),
            checksum_ok: true,
        };
        h.a.on_segment(&stale, h.now);
        assert_eq!(h.a.state(), TcpState::TimeWait);
        assert_eq!(h.a.stats().time_wait_rejects, 1);
        assert!(h.a.take_output().is_empty(), "stale segments die silently");

        // A retransmitted FIN (our final ACK was lost) is the one segment
        // TIME_WAIT exists to answer: re-ACK and restart 2MSL.
        let fin = TcpSegment {
            src_port: h.a.remote.1,
            dst_port: h.a.local.1,
            seq: h.a.rcv_nxt.wrapping_sub(1),
            ack: h.a.snd_nxt,
            flags: TcpFlags {
                fin: true,
                ack: true,
                syn: false,
                rst: false,
                psh: false,
            },
            window: 65535,
            mss: None,
            wscale: None,
            payload: Bytes::new(),
            checksum_ok: true,
        };
        h.a.on_segment(&fin, h.now);
        let out = h.a.take_output();
        assert_eq!(out.len(), 1, "retransmitted FIN must be re-ACKed");
        assert!(out[0].flags.ack && !out[0].flags.fin && out[0].payload.is_empty());
        assert_eq!(out[0].ack, h.a.rcv_nxt);
        assert_eq!(h.a.state(), TcpState::TimeWait);
    }

    fn keepalive_cfg() -> TcpConfig {
        TcpConfig {
            keepalive_idle: Some(SimTime::from_ms(10)),
            keepalive_intvl: SimTime::from_ms(5),
            keepalive_probes: 3,
            ..TcpConfig::default()
        }
    }

    #[test]
    fn keepalive_gives_up_on_dead_peer() {
        let mut h = Harness::new(keepalive_cfg(), SimTime::from_us(10), 0.0);
        h.run_until(
            |h| h.a.state() == TcpState::Established && h.b.state() == TcpState::Established,
            50,
        );
        // The peer vanishes: fire only a's timers and drop everything it
        // emits. The connection is idle, so only keepalive can notice.
        let mut guard = 0;
        while h.a.state() != TcpState::Closed {
            let t = h.a.next_timer().expect("keepalive timer must stay armed");
            h.a.on_timer(t);
            h.a.take_output(); // probes fall into the void
            guard += 1;
            assert!(guard < 20, "keepalive must give up after 3 probes");
        }
        assert_eq!(h.a.error(), Some(TcpError::KeepaliveTimeout));
        assert_eq!(h.a.stats().keepalive_probes_out, 3);
        assert_eq!(h.a.stats().keepalive_giveups, 1);
        assert!(h.a.next_timer().is_none(), "closed conns hold no timers");
    }

    #[test]
    fn keepalive_probe_answered_keeps_connection_alive() {
        let mut h = Harness::new(keepalive_cfg(), SimTime::from_us(10), 0.0);
        h.run_until(
            |h| h.a.state() == TcpState::Established && h.b.state() == TcpState::Established,
            50,
        );
        // With the peer alive, probes draw challenge ACKs and the idle
        // connection survives indefinitely: several full idle periods pass
        // without a give-up on either side.
        h.run_until(|h| h.a.stats().keepalive_probes_out >= 3, 500);
        assert_eq!(h.a.state(), TcpState::Established);
        assert_eq!(h.b.state(), TcpState::Established);
        assert_eq!(h.a.stats().keepalive_giveups, 0);
        assert_eq!(h.b.stats().keepalive_giveups, 0);
        assert!(h.a.error().is_none() && h.b.error().is_none());
    }
}
