//! An MPI-like runtime over simulated TCP sockets.
//!
//! ## Wire protocol
//!
//! Rank `i` listens on `base_port + i`. Connections are established lazily:
//! the lower-numbered rank initiates; the first 4 bytes on a new connection
//! carry the initiator's rank so the acceptor can map the socket to a peer.
//! Every message is an envelope `[src: u32 LE][tag: u32 LE][len: u32 LE]`
//! followed by `len` payload bytes. Matching is by `(source, tag)` with an
//! unexpected-message queue, like a real MPI implementation.
//!
//! ## Collectives
//!
//! Poll-driven engines (call `poll` until it returns `true`):
//! [`Barrier`] (dissemination), [`Bcast`] (binomial tree), [`Allreduce`]
//! (reduce-to-root + broadcast, f64 sum), [`Alltoall`] (linear pairwise
//! rounds). Each collective call site supplies a *generation* number that
//! is folded into the tags, so a rank racing ahead into the next collective
//! cannot consume its neighbour's current-generation tokens.

use std::collections::VecDeque;
use std::net::Ipv4Addr;

use mcn_net::SockId;
use mcn_node::{ProcCtx, Wake};
use mcn_sim::metrics::{Instrumented, MetricSink};

/// Tag space: user tags must stay below this; collectives use the space
/// above, keyed by generation and round.
pub const COLL_TAG_BASE: u32 = 1 << 24;

fn coll_tag(kind: u32, generation: u32, round: u32) -> u32 {
    COLL_TAG_BASE | (kind << 20) | ((generation & 0xFFF) << 8) | (round & 0xFF)
}

#[derive(Debug)]
enum Conn {
    /// Not yet dialed.
    Absent,
    /// Dialed; waiting for establishment (rank-id header queued on Ready).
    Connecting(SockId),
    /// Established; rank-id header sent.
    Ready(SockId),
}

/// Unrecoverable communicator-level failures surfaced by [`MpiRank`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MpiError {
    /// A peer exhausted the reconnect budget: every dial ended in a TCP
    /// timeout (or an established connection died and could not be
    /// re-established). The rank is considered dead; collectives that
    /// depend on it will never complete and the application should abort
    /// or shrink the communicator.
    RankFailed(usize),
}

impl std::fmt::Display for MpiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpiError::RankFailed(r) => write!(f, "rank {r} failed (reconnect budget exhausted)"),
        }
    }
}

/// One rank's endpoint: connection mesh, send queues, receive matching.
#[derive(Debug)]
pub struct MpiRank {
    rank: usize,
    size: usize,
    peers: Vec<Ipv4Addr>,
    base_port: u16,
    listener: Option<SockId>,
    /// Outgoing connections (we dialed; used for sends). Connections are
    /// directional: each rank dials whoever it sends to, so no dial-order
    /// deadlock exists; a chatty pair simply uses two sockets.
    out_conns: Vec<Conn>,
    /// Incoming connections (accepted and identified; used for receives).
    in_conns: Vec<Option<SockId>>,
    /// Accepted sockets whose peer rank is not yet known.
    unidentified: Vec<(SockId, Vec<u8>)>,
    /// Per-peer incoming stream reassembly buffer.
    rx: Vec<Vec<u8>>,
    /// Per-peer outgoing byte queue (bytes the stack has not yet accepted).
    tx: Vec<VecDeque<u8>>,
    /// Matched-later queue: (src, tag, payload).
    inbox: VecDeque<(usize, u32, Vec<u8>)>,
    /// Redials allowed per peer after a liveness failure (TCP timeout on a
    /// dial, or an established connection dying). Resets-while-connecting
    /// are *not* counted: rank start is unsynchronised, so a peer that is
    /// not listening yet answers with RST and the redial is free.
    max_reconnects: u32,
    /// Liveness-failure redials consumed, per peer.
    reconnects: Vec<u32>,
    /// Peers declared dead (budget exhausted). Sends to a dead peer are
    /// dropped; [`first_failure`](Self::first_failure) reports it.
    failed: Vec<bool>,
}

impl MpiRank {
    /// Creates the endpoint for `rank` of `size`, where `peers[j]` is the
    /// address rank `j` is reachable at and rank `j` listens on
    /// `base_port + j`.
    ///
    /// # Panics
    ///
    /// Panics unless `peers.len() == size` and `rank < size`.
    pub fn new(rank: usize, size: usize, peers: Vec<Ipv4Addr>, base_port: u16) -> Self {
        assert_eq!(peers.len(), size, "need one address per rank");
        assert!(rank < size);
        MpiRank {
            rank,
            size,
            peers,
            base_port,
            listener: None,
            out_conns: (0..size).map(|_| Conn::Absent).collect(),
            in_conns: vec![None; size],
            unidentified: Vec::new(),
            rx: vec![Vec::new(); size],
            tx: (0..size).map(|_| VecDeque::new()).collect(),
            inbox: VecDeque::new(),
            max_reconnects: 2,
            reconnects: vec![0; size],
            failed: vec![false; size],
        }
    }

    /// Sets how many liveness-failure redials each peer gets before it is
    /// declared dead (default 2). Zero means the first timeout is fatal.
    pub fn set_max_reconnects(&mut self, n: u32) {
        self.max_reconnects = n;
    }

    /// The first peer declared dead, if any. Applications poll this while
    /// blocked in a collective: a dead peer means the collective will
    /// never complete, so surface the error instead of spinning forever.
    pub fn first_failure(&self) -> Option<MpiError> {
        self.failed
            .iter()
            .position(|&f| f)
            .map(MpiError::RankFailed)
    }

    /// Charges one liveness failure against `peer`'s budget; returns
    /// `true` if a redial is still allowed.
    fn note_peer_failure(&mut self, peer: usize) -> bool {
        if self.reconnects[peer] >= self.max_reconnects {
            self.failed[peer] = true;
            // Drop queued bytes so `flushed` cannot hang on a dead peer.
            self.tx[peer].clear();
            false
        } else {
            self.reconnects[peer] += 1;
            true
        }
    }

    /// This endpoint's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Communicator size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Pumps connection setup and data transfer; call from every poll.
    pub fn progress(&mut self, ctx: &mut ProcCtx<'_>) {
        // Listen once.
        if self.listener.is_none() {
            let port = self.base_port + self.rank as u16;
            self.listener = Some(
                ctx.stack
                    .tcp_listen(port)
                    .unwrap_or_else(|e| panic!("rank {} listen({port}): {e}", self.rank)),
            );
        }
        // Accept new connections.
        let listener = self.listener.expect("set above");
        while let Some(s) = ctx.tcp_accept(listener) {
            self.unidentified.push((s, Vec::new()));
        }
        // Identify accepted peers by their 4-byte rank header.
        let mut still = Vec::new();
        for (s, mut buf) in std::mem::take(&mut self.unidentified) {
            let mut tmp = [0u8; 4];
            while buf.len() < 4 {
                let n = ctx.tcp_recv(s, &mut tmp[..4 - buf.len()]);
                if n == 0 {
                    break;
                }
                buf.extend_from_slice(&tmp[..n]);
            }
            if buf.len() >= 4 {
                let peer = u32::from_le_bytes(buf[..4].try_into().expect("4")) as usize;
                assert!(peer < self.size, "bogus peer rank {peer}");
                self.in_conns[peer] = Some(s);
            } else {
                still.push((s, buf));
            }
        }
        self.unidentified = still;
        // Promote dialed connections once established (rank-id goes
        // first); redial connections the peer reset because it was not
        // listening yet (rank start is not synchronised, exactly as with a
        // real mpirun over TCP).
        for p in 0..self.size {
            match self.out_conns[p] {
                Conn::Connecting(s) => {
                    if ctx.tcp_established(s) {
                        let hdr = (self.rank as u32).to_le_bytes();
                        let mut q: VecDeque<u8> = hdr.into_iter().collect();
                        q.append(&mut self.tx[p]);
                        self.tx[p] = q;
                        self.out_conns[p] = Conn::Ready(s);
                    } else if ctx.stack.tcp_error(s) == Some(mcn_net::tcp::TcpError::TimedOut) {
                        // The dial itself timed out: the peer is
                        // unreachable or dead. This consumes budget.
                        if self.note_peer_failure(p) {
                            self.redial(ctx, p);
                        } else {
                            self.out_conns[p] = Conn::Absent;
                        }
                    } else if ctx.stack.tcp_state(s) == mcn_net::tcp::TcpState::Closed {
                        // RST: the peer is alive but not listening yet
                        // (unsynchronised rank start). Free redial.
                        self.redial(ctx, p);
                    }
                }
                Conn::Ready(s) => {
                    if ctx.stack.tcp_failed(s) {
                        // An established connection died (RTO give-up or
                        // reset). Consume budget and redial; the rank-id
                        // header is re-queued on promotion.
                        if self.note_peer_failure(p) {
                            self.redial(ctx, p);
                        } else {
                            self.out_conns[p] = Conn::Absent;
                        }
                    }
                }
                Conn::Absent => {}
            }
        }
        // Flush send queues.
        for p in 0..self.size {
            if let Conn::Ready(s) = self.out_conns[p] {
                while !self.tx[p].is_empty() {
                    let (head, _) = self.tx[p].as_slices();
                    let n = ctx.tcp_send(s, head);
                    if n == 0 {
                        break;
                    }
                    self.tx[p].drain(..n);
                }
            }
        }
        // Pull incoming bytes and peel envelopes.
        for p in 0..self.size {
            if let Some(s) = self.in_conns[p] {
                let mut buf = [0u8; 16384];
                loop {
                    let n = ctx.tcp_recv(s, &mut buf);
                    if n == 0 {
                        break;
                    }
                    self.rx[p].extend_from_slice(&buf[..n]);
                }
                while self.rx[p].len() >= 12 {
                    let src = u32::from_le_bytes(self.rx[p][0..4].try_into().expect("4")) as usize;
                    let tag = u32::from_le_bytes(self.rx[p][4..8].try_into().expect("4"));
                    let len = u32::from_le_bytes(self.rx[p][8..12].try_into().expect("4")) as usize;
                    if self.rx[p].len() < 12 + len {
                        break;
                    }
                    let payload = self.rx[p][12..12 + len].to_vec();
                    self.rx[p].drain(..12 + len);
                    debug_assert_eq!(src, p, "envelope source must match the connection");
                    self.inbox.push_back((src, tag, payload));
                }
            }
        }
    }

    fn dial(&mut self, ctx: &mut ProcCtx<'_>, peer: usize) {
        if matches!(self.out_conns[peer], Conn::Absent) && !self.failed[peer] {
            self.redial(ctx, peer);
        }
    }

    /// Unconditionally dials `peer`, replacing whatever connection record
    /// was there (callers have already decided the old socket is dead or
    /// absent).
    fn redial(&mut self, ctx: &mut ProcCtx<'_>, peer: usize) {
        let port = self.base_port + peer as u16;
        let s = ctx
            .tcp_connect(self.peers[peer], port)
            .unwrap_or_else(|| panic!("rank {} cannot reach rank {peer}", self.rank));
        self.out_conns[peer] = Conn::Connecting(s);
    }

    /// Queues a message; delivery is asynchronous (keep calling
    /// [`progress`](Self::progress)).
    ///
    /// The MPI library overhead (`CostModel::mpi_msg`) is charged here.
    pub fn isend(&mut self, ctx: &mut ProcCtx<'_>, dst: usize, tag: u32, payload: &[u8]) {
        ctx.charge(ctx.cost.mpi_msg());
        if dst == self.rank {
            self.inbox.push_back((dst, tag, payload.to_vec()));
            return;
        }
        if self.failed[dst] {
            // The peer is dead: queueing would leak bytes forever. The
            // caller learns about the failure via `first_failure`.
            return;
        }
        self.dial(ctx, dst);
        let q = &mut self.tx[dst];
        q.extend((self.rank as u32).to_le_bytes());
        q.extend(tag.to_le_bytes());
        q.extend((payload.len() as u32).to_le_bytes());
        q.extend(payload.iter().copied());
        self.progress(ctx);
    }

    /// Non-blocking receive with `(source, tag)` matching; `None` source
    /// matches any.
    pub fn try_recv(&mut self, src: Option<usize>, tag: u32) -> Option<(usize, Vec<u8>)> {
        let pos = self
            .inbox
            .iter()
            .position(|(s, t, _)| *t == tag && src.is_none_or(|want| want == *s))?;
        let (s, _, payload) = self.inbox.remove(pos).expect("indexed");
        Some((s, payload))
    }

    /// The wait set covering "anything may have happened": listener plus
    /// every live socket. Processes return this when blocked on MPI.
    pub fn wakes(&self) -> Vec<Wake> {
        let mut w = Vec::new();
        if let Some(l) = self.listener {
            w.push(Wake::Sock(l));
        }
        for c in &self.out_conns {
            match c {
                Conn::Connecting(s) | Conn::Ready(s) => w.push(Wake::Sock(*s)),
                Conn::Absent => {}
            }
        }
        for s in self.in_conns.iter().flatten() {
            w.push(Wake::Sock(*s));
        }
        for (s, _) in &self.unidentified {
            w.push(Wake::Sock(*s));
        }
        w
    }

    /// True when every queued byte has been handed to TCP (the stack
    /// delivers asynchronously from there). A rank must not exit before
    /// this holds, or tokens it owes slower peers die in its queues.
    pub fn flushed(&self) -> bool {
        self.tx.iter().all(|q| q.is_empty())
    }
}

impl Instrumented for MpiRank {
    /// Liveness accounting for one endpoint: total redials consumed, the
    /// per-peer breakdown (`peer{J}.reconnects`), and how many peers this
    /// rank has declared dead.
    fn metrics(&self, out: &mut MetricSink) {
        out.counter("rank", self.rank as u64);
        out.counter("size", self.size as u64);
        out.counter(
            "reconnects",
            self.reconnects.iter().map(|&r| r as u64).sum(),
        );
        out.counter(
            "failed_peers",
            self.failed.iter().filter(|&&f| f).count() as u64,
        );
        for (p, &r) in self.reconnects.iter().enumerate() {
            out.scoped(&format!("peer{p}"), |out| {
                out.counter("reconnects", r as u64);
                out.counter("failed", self.failed[p] as u64);
            });
        }
    }
}

/// Dissemination barrier: `ceil(log2(size))` rounds; in round `k` send a
/// token to `(rank + 2^k) % size` and wait for one from
/// `(rank - 2^k) % size`.
#[derive(Debug)]
pub struct Barrier {
    generation: u32,
    round: u32,
    sent: bool,
}

impl Barrier {
    /// Creates a barrier instance for the given generation (use a counter
    /// that all ranks advance identically).
    pub fn new(generation: u32) -> Self {
        Barrier {
            generation,
            round: 0,
            sent: false,
        }
    }

    /// Advances; `true` when the barrier is complete.
    pub fn poll(&mut self, mpi: &mut MpiRank, ctx: &mut ProcCtx<'_>) -> bool {
        let size = mpi.size();
        if size <= 1 {
            return true;
        }
        let rounds = usize::BITS - (size - 1).leading_zeros();
        while self.round < rounds {
            let dist = 1usize << self.round;
            let tag = coll_tag(0, self.generation, self.round);
            if !self.sent {
                let dst = (mpi.rank() + dist) % size;
                mpi.isend(ctx, dst, tag, &[]);
                self.sent = true;
            }
            mpi.progress(ctx);
            let src = (mpi.rank() + size - dist) % size;
            if mpi.try_recv(Some(src), tag).is_none() {
                return false;
            }
            self.round += 1;
            self.sent = false;
        }
        true
    }
}

/// Binomial-tree broadcast of a byte buffer from `root`.
#[derive(Debug)]
pub struct Bcast {
    generation: u32,
    root: usize,
    /// The data (input at root, output elsewhere once complete).
    pub data: Vec<u8>,
    received: bool,
    next_child_bit: u32,
    done_sending: bool,
}

impl Bcast {
    /// At the root pass the payload; elsewhere pass an empty vec.
    pub fn new(generation: u32, root: usize, data: Vec<u8>) -> Self {
        Bcast {
            generation,
            root,
            data,
            received: false,
            next_child_bit: 0,
            done_sending: false,
        }
    }

    /// Advances; `true` when this rank holds the data and finished its
    /// forwarding duties.
    pub fn poll(&mut self, mpi: &mut MpiRank, ctx: &mut ProcCtx<'_>) -> bool {
        let size = mpi.size();
        if size <= 1 {
            return true;
        }
        let vrank = (mpi.rank() + size - self.root) % size;
        let tag = coll_tag(1, self.generation, 0);
        // Receive from parent (unless root).
        if vrank != 0 && !self.received {
            mpi.progress(ctx);
            let parent_v = vrank & (vrank - 1); // clear lowest set bit
            let parent = (parent_v + self.root) % size;
            match mpi.try_recv(Some(parent), tag) {
                Some((_, d)) => {
                    self.data = d;
                    self.received = true;
                }
                None => return false,
            }
        }
        // Forward to children: children of vrank are vrank | (1 << b) for
        // b above vrank's lowest set bit (or from 0 for the root).
        if !self.done_sending {
            let low = if vrank == 0 {
                u32::BITS
            } else {
                vrank.trailing_zeros()
            };
            let mut b = self.next_child_bit;
            let max_b = usize::BITS - (size - 1).leading_zeros().min(usize::BITS - 1);
            while b < max_b.min(if vrank == 0 { max_b } else { low }) {
                let child_v = vrank | (1usize << b);
                if child_v != vrank && child_v < size {
                    let child = (child_v + self.root) % size;
                    let data = self.data.clone();
                    mpi.isend(ctx, child, tag, &data);
                }
                b += 1;
                self.next_child_bit = b;
            }
            self.done_sending = true;
        }
        true
    }
}

/// Allreduce of an `f64` vector with summation: binomial reduce to rank 0,
/// then broadcast. Handles any communicator size.
#[derive(Debug)]
pub struct Allreduce {
    generation: u32,
    /// Local contribution (input), global sum (output once complete).
    pub data: Vec<f64>,
    phase: AllreducePhase,
    expect_from: Vec<usize>,
    sent_up: bool,
    bcast: Option<Bcast>,
}

#[derive(Debug)]
enum AllreducePhase {
    Reduce,
    Broadcast,
}

impl Allreduce {
    /// Creates an allreduce over this rank's local vector.
    pub fn new(generation: u32, data: Vec<f64>) -> Self {
        Allreduce {
            generation,
            data,
            phase: AllreducePhase::Reduce,
            expect_from: Vec::new(),
            sent_up: false,
            bcast: None,
        }
    }

    fn encode(v: &[f64]) -> Vec<u8> {
        v.iter().flat_map(|x| x.to_le_bytes()).collect()
    }

    fn decode(b: &[u8]) -> Vec<f64> {
        b.chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8")))
            .collect()
    }

    /// Advances; `true` when `data` holds the global sum on every rank.
    pub fn poll(&mut self, mpi: &mut MpiRank, ctx: &mut ProcCtx<'_>) -> bool {
        let size = mpi.size();
        if size <= 1 {
            return true;
        }
        let rank = mpi.rank();
        let tag = coll_tag(2, self.generation, 0);
        if matches!(self.phase, AllreducePhase::Reduce) {
            // Binomial tree rooted at 0: rank receives from rank | (1<<b)
            // for each b above its lowest set bit, then sends to
            // rank & (rank - 1).
            if self.expect_from.is_empty() && !self.sent_up {
                let low = if rank == 0 {
                    usize::BITS
                } else {
                    rank.trailing_zeros()
                };
                for b in 0..usize::BITS {
                    if b >= low {
                        break;
                    }
                    let child = rank | (1usize << b);
                    if child < size && child != rank {
                        self.expect_from.push(child);
                    }
                }
                if self.expect_from.is_empty() {
                    // Leaf: send immediately.
                    if rank != 0 {
                        let parent = rank & (rank - 1);
                        let payload = Self::encode(&self.data);
                        mpi.isend(ctx, parent, tag, &payload);
                    }
                    self.sent_up = true;
                }
            }
            mpi.progress(ctx);
            while let Some(&child) = self.expect_from.first() {
                match mpi.try_recv(Some(child), tag) {
                    Some((_, payload)) => {
                        let v = Self::decode(&payload);
                        assert_eq!(v.len(), self.data.len(), "allreduce length mismatch");
                        for (a, b) in self.data.iter_mut().zip(v) {
                            *a += b;
                        }
                        self.expect_from.remove(0);
                    }
                    None => return false,
                }
            }
            if !self.sent_up {
                if rank != 0 {
                    let parent = rank & (rank - 1);
                    let payload = Self::encode(&self.data);
                    mpi.isend(ctx, parent, tag, &payload);
                }
                self.sent_up = true;
            }
            self.phase = AllreducePhase::Broadcast;
            let data = if rank == 0 {
                Self::encode(&self.data)
            } else {
                Vec::new()
            };
            self.bcast = Some(Bcast::new(self.generation, 0, data));
        }
        let bcast = self.bcast.as_mut().expect("set when entering phase");
        if !bcast.poll(mpi, ctx) {
            return false;
        }
        self.data = Self::decode(&bcast.data);
        true
    }
}

/// All-to-all exchange: in round `k` (1..size) send to `(rank+k) % size`
/// and receive from `(rank-k) % size`; works for any size.
#[derive(Debug)]
pub struct Alltoall {
    generation: u32,
    /// Per-destination payloads (input).
    pub send: Vec<Vec<u8>>,
    /// Per-source payloads (output, filled as rounds complete).
    pub recv: Vec<Option<Vec<u8>>>,
    round: usize,
    sent: bool,
}

impl Alltoall {
    /// Creates an exchange with `send[j]` destined for rank `j`.
    pub fn new(generation: u32, send: Vec<Vec<u8>>) -> Self {
        let n = send.len();
        Alltoall {
            generation,
            send,
            recv: (0..n).map(|_| None).collect(),
            round: 1,
            sent: false,
        }
    }

    /// Advances; `true` when every peer's payload has arrived.
    pub fn poll(&mut self, mpi: &mut MpiRank, ctx: &mut ProcCtx<'_>) -> bool {
        let size = mpi.size();
        let rank = mpi.rank();
        // Self-delivery.
        if self.recv[rank].is_none() {
            self.recv[rank] = Some(std::mem::take(&mut self.send[rank]));
        }
        while self.round < size {
            let k = self.round;
            let dst = (rank + k) % size;
            let src = (rank + size - k) % size;
            let tag = coll_tag(3, self.generation, k as u32);
            if !self.sent {
                let payload = std::mem::take(&mut self.send[dst]);
                mpi.isend(ctx, dst, tag, &payload);
                self.sent = true;
            }
            mpi.progress(ctx);
            match mpi.try_recv(Some(src), tag) {
                Some((_, payload)) => {
                    self.recv[src] = Some(payload);
                    self.round += 1;
                    self.sent = false;
                }
                None => return false,
            }
        }
        true
    }
}
