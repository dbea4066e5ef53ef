//! The reactor: one thread multiplexing many simulated connections onto
//! one [`Store`]'s admission tiers. The server owns one more thread, the
//! store's seal cadence ([`Store::start_seal_cadence`]), which no VIP
//! request waits on and no turn pays a copy for (see `batch_ticket`).
//!
//! One [`StoreServer::poll`] call is one reactor turn. It visits only the
//! connections that have something to say: each connection's client
//! rings one bit of the server's **ready set** whenever it sends or hangs
//! up (the hook is in [`crate::conn`]), and the turn swaps every word of
//! the set to 0 before it drains any connection, then visits the set
//! bits, lowest index first. An idle connection costs a turn nothing but
//! its share of one word per 64 connections. A VIP request is served
//! where it is decoded; a guest request is queued once, or shed where it
//! is read. The turn runs in three phases:
//!
//! 1. **VIP connections** — the ready VIP connections are drained first,
//!    and every request they carry is served as its frame decodes, no
//!    cap. The per-request work is `StoreServer::dispatch_vip`, annotated
//!    `bounded_wait_free` and lint-verified: the whole serve path down to
//!    the store's port commit is a bounded number of steps, and no guest,
//!    handshake or HTTP connection has been drained yet, so guest load
//!    can neither lengthen this phase nor make any VIP request wait on
//!    guest progress.
//! 2. **Every other connection** — drain every other ready connection,
//!    extract complete frames, finish handshakes ([`Message::Hello`] →
//!    admission) and answer plain-HTTP probes (`GET /metrics` serves the
//!    merged store + net Prometheus scrape). A request goes by the
//!    *connection's* admitted tier, never by what the frame claims: a
//!    VIP admitted mid-turn is served as its frames decode, before any
//!    later connection is drained; a guest request joins the back of a
//!    bounded backlog ([`ServerConfig::guest_queue_depth`]), stamped with
//!    the turn's reading (see "Clock reads"). A guest frame that finds the backlog full — depth
//!    plus [`ServerConfig::guest_dispatch_per_poll`] frames — is shed
//!    where it is read (the newest arrivals lose) with a typed
//!    [`StoreError::RetryBudgetExhausted`] (the wire's 429) instead of
//!    buffering unboundedly or blocking the reactor. Backpressure is a
//!    value, not a stall, and it costs a header: the shed frame is
//!    validated whole, so a malformed one still closes its connection,
//!    but its ops are never decoded and it is never queued.
//! 3. **Guest dispatch** — up to [`ServerConfig::guest_dispatch_per_poll`]
//!    backlog frames are served from the front, oldest first. A frame
//!    whose `deadline_ms` expired while it queued is shed
//!    **pre-dispatch** with a typed [`StoreError::DeadlineExceeded`] —
//!    serving it would burn a store commit whose response the client
//!    will discard — and the wait it did survive, from its stamp to the
//!    dispatch's start, is debited from the deadline the store sees. The dispatch takes at least `guest_dispatch_per_poll` frames,
//!    or the whole backlog, so at most `guest_queue_depth` carry over.
//!    A VIP frame, once read, waits for none of this; but one that
//!    arrives while a turn runs is read by the next turn, so a shorter
//!    guest turn is what shortens a VIP's wait under guest flood.
//!
//! ## Clock reads
//!
//! A turn reads the clock once when it starts, and that is the turn's
//! reading. A VIP request lends the reading to its store session
//! ([`apc_store::Client::lend_clock`]): its commit starts there and reads
//! the clock once, at its end, and that end is both the request's end in
//! `store_net_request_latency_ns` and the turn's reading from then on. A
//! guest frame is stamped with the turn's reading when it is read. A VIP
//! served in phase 2 starts from a fresh reading instead, because guest
//! frames may have been read since the last one. The guest dispatch reads
//! the clock once when it starts; its round is lent that reading, each of
//! its commits reads once at its end, and the last end is every envelope's
//! end. A `Sync` VIP request reads once more, after its fsync. So a turn
//! reads the clock:
//!
//! - 2 times for one VIP frame (the turn's reading, the commit's end);
//! - 3 times for one guest frame (the turn's, the dispatch's, the commit's
//!   end);
//! - 2 + k times for a guest dispatch of k commits (one per touched shard).
//!
//! ## One replica per reactor
//!
//! The reactor runs every commit on one thread, one after the other, so
//! its guest batch commits under its VIP ticket's **guest voice**
//! ([`apc_store::Store::guest_voice`]), fixed when the server is built: a
//! guest pid of its own, committing through the VIP's port slot and
//! replica. The batch still runs the guest consensus protocol — never the
//! VIP's one CAS — and still carries everything a guest commit carries
//! (group durability, and no housekeeping: a reconfiguration is an admin
//! act, never a turn's); but the one replica it walks is the one the VIP
//! requests read. So every cell the reactor writes, VIP or guest, is
//! applied once on the reactor's side, and a VIP request replays only what
//! *other* processes wrote since the reactor's last turn. A server that
//! holds no VIP ticket commits its batch under a guest ticket of its own.
//!
//! ## Per-shard batching of pipelined guest envelopes
//!
//! The guest envelopes dispatched in one turn are **coalesced** into a
//! single store round via [`apc_store::Client::request_guest_many`]: the
//! store's batch planner splits the combined op vector per shard, so N
//! pipelined single-op requests cost ~one log append per shard instead of
//! N, and the results demultiplex back to each owning `(conn, request-id)`.
//! Batching is transparent — same per-envelope responses, budgets, and
//! deadline errors as one envelope per round (property-tested against the
//! oracle in `tests/store_net.rs`, 256 envelopes per turn against 1) —
//! and it cannot erode the asymmetric guarantees: the batch runs strictly
//! *after* the VIP phase under a guest pid (the VIP ticket's voice, or the
//! server's guest ticket when it holds no VIP ticket), so coalescing can
//! delay other guests but never a VIP frame. Envelopes the guest tier refuses
//! (`Sync` durability, a VIP credential on a guest connection) ride the
//! batch too and are refused one by one by the store. VIP frames are never batched, never queued, never deadline-shed:
//! every VIP frame is served where it is decoded.
//!
//! ## Admission is keyed by connection credential
//!
//! A VIP handshake must present a token from
//! [`ServerConfig::vip_tokens`]. The reactor is one process, so it holds
//! one ticket per tier. A server with VIP tokens admits its one VIP ticket
//! when it is built ([`StoreServer::new`]; [`Store::admit_vip`] takes the
//! admin lock, so no turn waits on an admin act), and every allow-listed
//! VIP connection — whatever its token, reconnects included — is served
//! on that port, whose replica the guest batch shares (above). An unknown
//! token, or any VIP hello to a server that found the store's VIP
//! capacity exhausted when it was built, is refused with a typed
//! [`StoreError::GuestTier`] response before closing. Guests are accepted
//! unboundedly, and every guest connection carries the batch ticket. A
//! serving connection whose request claims a different tier than its
//! handshake earned is answered with `GuestTier` errors — frames cannot
//! escalate privilege.
//!
//! ## The wire never blocks
//!
//! Request retry budgets are clamped to
//! [`ServerConfig::wire_retry_budget_cap`], so the in-process API's
//! blocking "wait for the topology" arm ([`apc_store::UNBOUNDED_RETRIES`])
//! is unreachable from the wire: a reconfiguration race surfaces as a
//! typed `RetryBudgetExhausted` after finitely many re-plans. `Sync`
//! durability is the one deliberate exception — it fsyncs on the reactor
//! thread via the store's own (VIP-gated) blocking arm.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use apc_obs::{encode_prometheus, MetricsSnapshot};
use apc_progress_macros::progress;
use apc_store::{
    ClientTicket, DurabilityClass, ProgressClass, Request, Response, Responses, SealCadence, Store,
    StoreError, TierCredential,
};

use crate::codec::{decode_message, encode_hello, encode_refusal_into, encode_request};
use crate::codec::{encode_response_into, read_request_header};
use crate::codec::{CodecError, FrameReader, Message, WireResult};
use crate::conn::{hooked_pair, ConnEnd};
use crate::metrics::NetMetrics;

/// The most bytes a plain-HTTP request head may take. A peer that has not
/// ended its head by then is closed and counted as a codec fault, so the
/// side door holds at most this much per connection.
const MAX_HTTP_HEAD: usize = 8 << 10;

/// Tuning knobs for a [`StoreServer`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Tokens whose `Hello` handshake may claim the VIP tier. Every
    /// token's connections share the server's one VIP ticket, admitted
    /// when the server is built if the list is not empty, so the wire holds
    /// at most one VIP port whatever the list's length.
    pub vip_tokens: Vec<u64>,
    /// Guest requests served per [`StoreServer::poll`]; arrivals beyond
    /// this wait in the backlog (up to
    /// [`ServerConfig::guest_queue_depth`]) or are shed with
    /// [`StoreError::RetryBudgetExhausted`].
    pub guest_dispatch_per_poll: usize,
    /// Guest frames that may carry over between poll turns after the
    /// per-turn dispatch cap is spent. A guest frame read while the
    /// backlog holds this many frames plus the dispatch cap is shed on
    /// the spot (newest first) with the typed 429, answered from its
    /// validated frame without decoding its ops; with depth `0` nothing
    /// carries over, so everything past the dispatch cap is shed in its
    /// arrival turn. A queued frame whose connection closed or whose
    /// deadline expired holds its place until dispatch reaches it. A
    /// queued frame's wait is debited from its `deadline_ms`; frames that
    /// expire while queued are shed pre-dispatch with
    /// [`StoreError::DeadlineExceeded`].
    pub guest_queue_depth: usize,
    /// Cap applied to every wire request's retry budget. Keeps the
    /// blocking [`apc_store::UNBOUNDED_RETRIES`] arm unreachable from the
    /// network.
    pub wire_retry_budget_cap: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            vip_tokens: Vec::new(),
            guest_dispatch_per_poll: 256,
            guest_queue_depth: 1024,
            wire_retry_budget_cap: 16,
        }
    }
}

/// What one reactor turn did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PollStats {
    /// Complete frames ingested.
    pub frames: usize,
    /// Requests dispatched to the store (both tiers).
    pub served: usize,
    /// Guest requests shed with `RetryBudgetExhausted`.
    pub shed: usize,
    /// Guest requests shed pre-dispatch with `DeadlineExceeded`.
    pub deadline_shed: usize,
    /// Coalesced guest dispatches performed (0 or 1 per turn).
    pub batches: usize,
    /// Connections that transitioned to closed during the turn.
    pub closed: usize,
    /// Connections the turn drained: only those whose client sent or hung
    /// up after an earlier turn took their ready bit.
    pub visited: usize,
}

/// A guest frame waiting in the reactor backlog, stamped with the reading
/// its turn held when it was read, so queue wait can be charged against
/// its deadline.
#[derive(Debug)]
struct QueuedGuest {
    conn: usize,
    id: u64,
    req: Request,
    arrived: Instant,
}

/// Per-connection lifecycle.
#[derive(Debug)]
enum ConnState {
    /// Awaiting the `Hello` frame (or an HTTP sniff).
    Handshake,
    /// Admitted; requests dispatch under this ticket.
    Serving(ClientTicket),
    /// Speaking plain HTTP; accumulating the request head.
    Http(Vec<u8>),
    /// Torn down (either side).
    Closed,
}

/// The work buffers of one reactor turn. They live in the server between
/// turns for their capacity only: [`StoreServer::poll`] takes them, and
/// hands every one of them back empty.
#[derive(Debug, Default)]
struct TurnBuffers {
    /// The turn's copy of the ready set, each word taken with one swap.
    ready: Vec<u64>,
    /// One connection's drained bytes.
    scratch: Vec<u8>,
    /// The guest dispatch set: `(conn, id, ops, arrived)` per envelope…
    owners: Vec<(usize, u64, u64, Instant)>,
    /// …and the envelopes themselves, in the same order.
    reqs: Vec<Request>,
    /// The response frame being sent: every response of the turn is
    /// encoded here and copied into its connection's pipe.
    frame: Vec<u8>,
}

#[derive(Debug)]
struct ConnSlot {
    end: ConnEnd,
    reader: FrameReader,
    state: ConnState,
}

/// The reactor: owns the server side of every simulated connection and
/// drives them against one [`Store`].
///
/// Its turns run on one thread by design — progress isolation between
/// tiers comes from the store's port structure and the phase ordering of
/// [`StoreServer::poll`], not from thread scheduling. The seal cadence's
/// thread only seals the store's logs, under the admin lock no turn takes.
#[derive(Debug)]
pub struct StoreServer<'a> {
    store: &'a Store,
    cfg: ServerConfig,
    metrics: NetMetrics,
    /// The server's one VIP session: admitted when the server is built (if
    /// it has VIP tokens and the store a free VIP port) and carried by every
    /// VIP connection, whatever its token, so the wire holds one VIP port
    /// and a flapping client leaks none.
    vip_ticket: Option<ClientTicket>,
    conns: Vec<ConnSlot>,
    /// The ready set: bit `i % 64` of word `i / 64` is set by connection
    /// `i`'s client whenever it sends or hangs up.
    ready: Vec<Arc<AtomicU64>>,
    /// Connections closed so far; bumped where a connection closes, so a
    /// turn reports its own closes without scanning `conns`.
    closed: usize,
    turn: TurnBuffers,
    /// Guest frames waiting for dispatch, oldest first: every guest
    /// request not shed at ingest is queued here where it is decoded, and
    /// frames the turn's dispatch cap leaves over carry to later turns.
    guest_backlog: VecDeque<QueuedGuest>,
    /// The guest ticket every coalesced dispatch commits under, fixed for
    /// the server's life: the VIP ticket's guest voice, whose slot no seal
    /// takes, or else a guest port, which a cadence seal holds while it
    /// seals if it is the seal port. Every guest connection carries it.
    batch_ticket: ClientTicket,
    /// The store's seal cadence, run on a thread of its own while the
    /// server lives; `None` if the thread could not be spawned. Dropping
    /// the server stops the thread and joins it.
    _cadence: Option<SealCadence>,
}

impl<'a> StoreServer<'a> {
    /// A reactor over `store` with the given tuning. A server with VIP
    /// tokens admits its one VIP ticket here, so building one may wait out
    /// an admin act already running ([`Store::admit_vip`] takes the admin
    /// lock) and no turn ever does. It also starts the store's seal cadence
    /// on a thread of its own, stopped and joined when the server drops; a
    /// server whose thread cannot be spawned serves without it.
    pub fn new(store: &'a Store, cfg: ServerConfig) -> StoreServer<'a> {
        let vip_ticket = if cfg.vip_tokens.is_empty() { None } else { store.admit_vip().ok() };
        let batch_ticket =
            vip_ticket.and_then(|t| store.guest_voice(t)).unwrap_or_else(|| store.admit_guest());
        StoreServer {
            store,
            cfg,
            metrics: NetMetrics::new(),
            vip_ticket,
            conns: Vec::new(),
            ready: Vec::new(),
            closed: 0,
            turn: TurnBuffers::default(),
            guest_backlog: VecDeque::new(),
            batch_ticket,
            _cadence: store.start_seal_cadence(),
        }
    }

    /// Opens a new simulated connection and returns the client endpoint.
    /// The connection serves nothing until its `Hello` handshake lands in
    /// a later [`StoreServer::poll`].
    pub fn connect(&mut self) -> ConnEnd {
        let i = self.conns.len();
        if i == self.ready.len() * 64 {
            self.ready.push(Arc::new(AtomicU64::new(0)));
        }
        let (client, server) = hooked_pair(Arc::clone(&self.ready[i / 64]), 1 << (i % 64));
        self.conns.push(ConnSlot {
            end: server,
            reader: FrameReader::new(),
            state: ConnState::Handshake,
        });
        client
    }

    /// The net-layer instruments (live; scrape any time).
    pub fn metrics(&self) -> &NetMetrics {
        &self.metrics
    }

    /// Connections registered with the reactor (any state).
    pub fn conn_count(&self) -> usize {
        self.conns.len()
    }

    /// The merged scrape: the store's own series plus `store_net_*`.
    pub fn scrape(&self) -> MetricsSnapshot {
        let mut snap = self.store.scrape();
        snap.merge(self.metrics.scrape());
        snap
    }

    /// One reactor turn: drain and serve the ready VIP connections; drain
    /// every other ready connection, serving a VIP admitted mid-turn as its
    /// frames decode and queueing every guest request; dispatch guests.
    pub fn poll(&mut self) -> PollStats {
        let mut stats = PollStats::default();
        let closed_before = self.closed;
        let mut turn = std::mem::take(&mut self.turn);
        // The turn's latest clock reading: read once here, then moved on by
        // each VIP request to its commit's end. A VIP request starts at the
        // reading before it, and a guest frame is stamped with it.
        let mut clock = Instant::now();

        // Every word is swapped out before any connection is drained, so
        // a client that writes after its word's swap rings it again for
        // the next turn. SEQCST: pairs with the ring (see `conn`).
        turn.ready.clear();
        turn.ready.extend(self.ready.iter().map(|word| word.swap(0, Ordering::SeqCst)));

        // Phase 1: the ready VIP connections, drained and served first.
        self.ingest_ready(true, &mut clock, &mut turn, &mut stats);
        // Phase 2: every other ready connection.
        self.ingest_ready(false, &mut clock, &mut turn, &mut stats);

        // Phase 3: serve the backlog from the front, oldest first.
        if !self.guest_backlog.is_empty() {
            self.serve_backlog(&mut turn, &mut stats);
        }
        // Ingest shed every arrival past depth + cap, and the dispatch took
        // at least `cap` frames or all of them: nothing is over the depth.
        debug_assert!(self.guest_backlog.len() <= self.cfg.guest_queue_depth);
        self.metrics.record_queue_depth(self.guest_backlog.len() as u64);

        turn.frame.clear();
        self.turn = turn;
        stats.closed = self.closed - closed_before;
        stats
    }

    /// Phase 3: takes up to the dispatch cap of frames from the front of
    /// the backlog and serves them as one coalesced store round. Its one
    /// clock read is the dispatch's start: a queued frame's wait is
    /// measured to it, and the round's session is lent it.
    fn serve_backlog(&mut self, turn: &mut TurnBuffers, stats: &mut PollStats) {
        let TurnBuffers { owners, reqs, frame, .. } = turn;
        let at = Instant::now();
        while reqs.len() < self.cfg.guest_dispatch_per_poll {
            let Some(mut q) = self.guest_backlog.pop_front() else { break };
            if !matches!(self.conns[q.conn].state, ConnState::Serving(_)) {
                continue;
            }
            // Queue wait is charged against the frame's own deadline:
            // an expired frame is shed here, before it burns a store
            // commit whose response the client will discard; a live one
            // carries only its *remaining* deadline into dispatch.
            if let Some(ms) = q.req.deadline_ms {
                let waited = at.saturating_duration_since(q.arrived).as_millis();
                if waited >= u128::from(ms) {
                    self.metrics.record_deadline_shed(false);
                    let err = StoreError::DeadlineExceeded { deadline_ms: ms };
                    self.send_refusal(frame, q.conn, q.id, q.req.ops.len(), err);
                    stats.deadline_shed += 1;
                    continue;
                }
                q.req.deadline_ms = Some(ms - waited as u32);
            }
            q.req.retry_budget = q.req.retry_budget.min(self.cfg.wire_retry_budget_cap);
            owners.push((q.conn, q.id, q.req.ops.len() as u64, q.arrived));
            reqs.push(q.req);
        }
        self.serve_guest_turn(at, owners, reqs, frame, stats);
    }

    /// Drains the turn's ready connections that are serving VIPs (`vip`),
    /// or every other one, lowest index first, on the turn's `clock`.
    fn ingest_ready(
        &mut self,
        vip: bool,
        clock: &mut Instant,
        turn: &mut TurnBuffers,
        stats: &mut PollStats,
    ) {
        for w in 0..turn.ready.len() {
            for i in set_bits(turn.ready[w]).map(|b| w * 64 + b) {
                let class = match &self.conns[i].state {
                    ConnState::Serving(t) => Some(t.class()),
                    _ => None,
                };
                if (class == Some(ProgressClass::Vip)) == vip {
                    self.ingest_conn(i, vip, clock, turn, stats);
                }
            }
        }
    }

    /// Drains conn `i`'s bytes and handles them: frames are decoded and
    /// served or queued by tier, a handshake is finished, an HTTP probe
    /// answered. `vip_phase` says whether the turn is in phase 1.
    fn ingest_conn(
        &mut self,
        i: usize,
        vip_phase: bool,
        clock: &mut Instant,
        turn: &mut TurnBuffers,
        stats: &mut PollStats,
    ) {
        if matches!(self.conns[i].state, ConnState::Closed) {
            return;
        }
        stats.visited += 1;
        let TurnBuffers { scratch, frame, .. } = turn;
        scratch.clear();
        self.conns[i].end.drain_into(scratch);

        // HTTP sniff: a fresh connection whose first bytes spell
        // "GET " is a plain-HTTP probe, not a codec peer. (The sniff
        // needs the prefix in one chunk — true of any real client,
        // which writes the request head with a single send.)
        if matches!(self.conns[i].state, ConnState::Handshake)
            && self.conns[i].reader.buffered() == 0
            && scratch.starts_with(b"GET ")
        {
            self.conns[i].state = ConnState::Http(Vec::new());
        }

        match self.conns[i].state {
            ConnState::Http(_) => self.ingest_http(i, scratch),
            ConnState::Handshake | ConnState::Serving(_) => {
                self.conns[i].reader.push(scratch);
                self.ingest_frames(i, vip_phase, clock, stats, frame);
            }
            ConnState::Closed => {}
        }

        // Peer hang-up: any bytes still buffered are a torn tail —
        // the stream died mid-frame — and fail closed, mirroring the
        // WAL's recovery policy.
        if !matches!(self.conns[i].state, ConnState::Closed) && self.conns[i].end.is_closed() {
            let torn = self.conns[i].reader.buffered() > 0;
            self.close_conn(i, torn);
        }
    }

    /// Serves one turn's guest dispatch set (drained from `owners` and
    /// `reqs`) as a single coalesced store round, started at `at`. Nothing
    /// is filtered on the way in: an envelope the guest tier must refuse
    /// (`Sync` durability, a VIP credential) is refused, alone, by
    /// [`apc_store::Client::request_guest_many`].
    fn serve_guest_turn(
        &mut self,
        at: Instant,
        owners: &mut Vec<(usize, u64, u64, Instant)>,
        reqs: &mut Vec<Request>,
        frame: &mut Vec<u8>,
        stats: &mut PollStats,
    ) {
        if reqs.is_empty() {
            return;
        }
        let envelopes = reqs.len() as u64;
        // `done` is the round's last commit's end reading: each envelope's
        // latency is its own, from arrival (queue wait included) to there.
        let (responses, done) = self.dispatch_guest_batch(at, reqs);
        self.metrics.record_batch(envelopes);
        stats.batches += 1;
        for ((conn, id, ops, arrived), resp) in owners.drain(..).zip(responses) {
            self.metrics.record_request(false, ops, nanos(arrived, done));
            self.send_response(frame, conn, id, &resp.results);
            stats.served += 1;
        }
    }

    /// Extracts and handles every complete frame buffered on conn `i`, until
    /// the buffer runs dry or the connection closes.
    fn ingest_frames(
        &mut self,
        i: usize,
        vip_phase: bool,
        clock: &mut Instant,
        stats: &mut PollStats,
        frame: &mut Vec<u8>,
    ) {
        while !matches!(self.conns[i].state, ConnState::Closed) {
            let guest = matches!(
                &self.conns[i].state,
                ConnState::Serving(t) if t.class() == ProgressClass::Guest
            );
            let payload = match self.conns[i].reader.next_payload() {
                Ok(Some(p)) => p,
                Ok(None) => return,
                Err(_) => return self.close_conn(i, true),
            };
            self.metrics.record_frame_in();
            stats.frames += 1;
            // A guest frame that finds a full backlog — as many frames as
            // the turn's dispatch serves plus as many as may carry over — is
            // shed where it is read, so the newest arrivals lose and a
            // queued frame's position only ever improves. The 429 is
            // answered from the validated frame: it is checked whole but
            // never decoded into a `Request`, never queued.
            let full = self.cfg.guest_queue_depth + self.cfg.guest_dispatch_per_poll;
            if guest && self.guest_backlog.len() >= full {
                let Ok((id, budget, ops)) = read_request_header(payload) else {
                    return self.close_conn(i, true);
                };
                self.metrics.record_shed(false);
                let err = StoreError::RetryBudgetExhausted { budget };
                self.send_refusal(frame, i, id, ops, err);
                stats.shed += 1;
                continue;
            }
            let Ok(msg) = decode_message(payload) else { return self.close_conn(i, true) };
            match (msg, &self.conns[i].state) {
                (Message::Hello(cred), ConnState::Handshake) => {
                    self.finish_handshake(i, cred, frame);
                }
                // VIP: now; guest: queue.
                (Message::Request { id, req }, &ConnState::Serving(t)) => match t.class() {
                    ProgressClass::Vip => {
                        // Phase 2 may have queued guest frames since the
                        // turn's last reading: a fresh one keeps their
                        // ingest off this VIP's latency.
                        if !vip_phase {
                            *clock = Instant::now();
                        }
                        let resp = self.serve_vip(t, req, clock);
                        self.send_response(frame, i, id, &resp.results);
                        stats.served += 1;
                    }
                    ProgressClass::Guest => {
                        let arrived = *clock;
                        self.guest_backlog.push_back(QueuedGuest { conn: i, id, req, arrived })
                    }
                },
                // A second Hello, a request before the handshake, or a
                // response from a client: a protocol violation.
                _ => self.close_conn(i, true),
            }
        }
    }

    /// Accepts (or refuses) a handshake credential on conn `i`, on the
    /// tickets the server has held since it was built.
    fn finish_handshake(&mut self, i: usize, cred: TierCredential, frame: &mut Vec<u8>) {
        match cred {
            TierCredential::Vip { token } => {
                match self.vip_ticket.filter(|_| self.cfg.vip_tokens.contains(&token)) {
                    Some(t) => {
                        self.conns[i].state = ConnState::Serving(t);
                        self.metrics.record_accept(true);
                    }
                    None => {
                        // Unknown token, or no VIP port for the server:
                        // the credential does not grant the claimed tier.
                        self.metrics.record_deny(true);
                        self.send_response(frame, i, 0, &[Err(StoreError::GuestTier)]);
                        self.close_conn(i, false);
                    }
                }
            }
            TierCredential::Guest => {
                self.conns[i].state = ConnState::Serving(self.batch_ticket);
                self.metrics.record_accept(false);
            }
        }
    }

    /// Accumulates HTTP bytes on conn `i`; answers and closes once the
    /// request head is complete, and closes as a fault a head that has not
    /// ended within [`MAX_HTTP_HEAD`] bytes.
    fn ingest_http(&mut self, i: usize, bytes: &[u8]) {
        let ConnState::Http(buf) = &mut self.conns[i].state else { return };
        // Only the new bytes, and the three before them, can complete the
        // terminator; nothing past the cap is kept.
        let from = buf.len().saturating_sub(3);
        let room = MAX_HTTP_HEAD.saturating_sub(buf.len());
        buf.extend_from_slice(&bytes[..bytes.len().min(room)]);
        let head = find_subsequence(&buf[from..], b"\r\n\r\n")
            .map(|pos| String::from_utf8_lossy(&buf[..from + pos]).into_owned());
        let full = buf.len() >= MAX_HTTP_HEAD;
        match head {
            Some(head) => {
                self.metrics.record_http_hit();
                let response = self.http_response(&head);
                self.conns[i].end.send(response.as_bytes());
                self.close_conn(i, false);
            }
            None if full => self.close_conn(i, true),
            None => {}
        }
    }

    fn http_response(&self, head: &str) -> String {
        let path = head.split_whitespace().nth(1).unwrap_or("");
        if path == "/metrics" {
            let body = encode_prometheus(&self.scrape());
            format!(
                "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            )
        } else {
            let body = "not found\n";
            format!(
                "HTTP/1.1 404 Not Found\r\nContent-Type: text/plain\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            )
        }
    }

    /// Dispatches one request of a VIP connection under its ticket, from
    /// the turn's `clock` reading, which it moves to the request's end.
    fn serve_vip(
        &mut self,
        ticket: ClientTicket,
        mut req: Request,
        clock: &mut Instant,
    ) -> Response {
        // Frames cannot escalate — or step down: the request's claimed
        // tier must match what the handshake earned.
        if req.credential.class() != ticket.class() {
            return Response::fail_all(req.ops.len(), StoreError::GuestTier);
        }
        // The wire never reaches the blocking unbounded-retry arm.
        req.retry_budget = req.retry_budget.min(self.cfg.wire_retry_budget_cap);
        req.credential = TierCredential::for_ticket(&ticket);
        match req.durability {
            DurabilityClass::Sync => self.dispatch_durable(ticket, req, clock),
            DurabilityClass::Group => self.dispatch_vip(ticket, req, clock),
        }
    }

    /// The VIP serve path: a bounded number of the reactor's own steps
    /// from envelope to committed response — lint-verified down through
    /// [`apc_store::Client::request_vip`] and the store's port commit. It
    /// reads no clock of its own: the session is lent the turn's reading,
    /// the request is timed from it to the commit's end reading, and that
    /// end is the turn's reading from here on.
    #[progress(bounded_wait_free)]
    fn dispatch_vip(
        &mut self,
        ticket: ClientTicket,
        req: Request,
        clock: &mut Instant,
    ) -> Response {
        let (start, ops) = (*clock, req.ops.len() as u64);
        let mut client = self.store.client(ticket);
        client.lend_clock(start);
        let resp = client.request_vip(req);
        *clock = client.clock().unwrap_or(start);
        self.metrics.record_request(true, ops, nanos(start, *clock));
        resp
    }

    /// The coalesced guest serve path: every guest envelope dispatched
    /// this turn rides one store round under the server's batch ticket —
    /// the VIP ticket's guest voice, so the batch commits through the VIP's
    /// replica, or the server's guest ticket when it holds no VIP ticket —
    /// and the store's batch planner turns N pipelined single-op envelopes
    /// into ~one log append per shard. Runs strictly after the VIP phase,
    /// so coalescing can delay other guests but never a VIP frame;
    /// obstruction-free like the tier it serves. The round's session is
    /// lent `at`; returns its responses and its last reading, the end of
    /// its last commit.
    #[progress(obstruction_free)]
    fn dispatch_guest_batch(&self, at: Instant, reqs: &mut Vec<Request>) -> (Responses, Instant) {
        let mut client = self.store.client(self.batch_ticket);
        client.lend_clock(at);
        let responses = client.request_guest_from(reqs.drain(..));
        (responses, client.clock().unwrap_or(at))
    }

    /// A VIP's `Sync` durability fsyncs on the reactor thread —
    /// deliberately blocking. Timed like [`StoreServer::dispatch_vip`],
    /// but to the one reading the reactor takes itself, after the fsync.
    #[progress(blocking)]
    fn dispatch_durable(
        &mut self,
        ticket: ClientTicket,
        req: Request,
        clock: &mut Instant,
    ) -> Response {
        let (start, ops) = (*clock, req.ops.len() as u64);
        let mut client = self.store.client(ticket);
        client.lend_clock(start);
        let resp = client.request(req);
        *clock = Instant::now();
        self.metrics.record_request(true, ops, nanos(start, *clock));
        resp
    }

    /// Encodes one response into the turn's `frame` buffer and sends it.
    fn send_response(&mut self, frame: &mut Vec<u8>, i: usize, id: u64, results: &[WireResult]) {
        frame.clear();
        encode_response_into(frame, id, results);
        if self.conns[i].end.send(frame) {
            self.metrics.record_frame_out();
        }
    }

    /// Encodes the response refusing all `ops` of request `id` with `err`
    /// into the turn's `frame` buffer and sends it.
    fn send_refusal(
        &mut self,
        frame: &mut Vec<u8>,
        i: usize,
        id: u64,
        ops: usize,
        err: StoreError,
    ) {
        frame.clear();
        encode_refusal_into(frame, id, ops, err);
        if self.conns[i].end.send(frame) {
            self.metrics.record_frame_out();
        }
    }

    fn close_conn(&mut self, i: usize, fault: bool) {
        if matches!(self.conns[i].state, ConnState::Closed) {
            return;
        }
        if fault {
            self.metrics.record_codec_error();
        }
        self.conns[i].end.close();
        self.conns[i].state = ConnState::Closed;
        self.closed += 1;
        self.metrics.record_close();
    }
}

/// The nanoseconds from reading `start` to reading `end`, saturating.
fn nanos(start: Instant, end: Instant) -> u64 {
    u64::try_from(end.saturating_duration_since(start).as_nanos()).unwrap_or(u64::MAX)
}

/// The indices of `word`'s set bits, lowest first.
fn set_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let bit = (word != 0).then(|| word.trailing_zeros() as usize)?;
        word &= word - 1;
        Some(bit)
    })
}

fn find_subsequence(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// A client-side convenience wrapper over one [`ConnEnd`]: correlation-id
/// bookkeeping plus frame reassembly. This is what the tests and the example
/// drive; it is intentionally dumb — no retries, no reconnects.
#[derive(Debug)]
pub struct NetClient {
    end: ConnEnd,
    reader: FrameReader,
    next_id: u64,
}

impl NetClient {
    /// Opens a connection on `server` and sends the `Hello` handshake.
    pub fn connect(server: &mut StoreServer<'_>, credential: TierCredential) -> NetClient {
        let end = server.connect();
        end.send(&encode_hello(&credential));
        NetClient { end, reader: FrameReader::new(), next_id: 1 }
    }

    /// Sends one request frame; returns its correlation id.
    pub fn send(&mut self, req: &Request) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.end.send(&encode_request(id, req));
        id
    }

    /// Drains every complete response currently buffered.
    pub fn drain(&mut self) -> Result<Vec<(u64, Vec<WireResult>)>, CodecError> {
        let mut raw = Vec::new();
        self.end.drain_into(&mut raw);
        self.reader.push(&raw);
        let mut out = Vec::new();
        while let Some(payload) = self.reader.next_payload()? {
            match decode_message(payload)? {
                Message::Response { id, results } => out.push((id, results)),
                Message::Hello(_) => {
                    return Err(CodecError::UnknownDiscriminant {
                        what: "server frame kind",
                        found: crate::codec::KIND_HELLO,
                    })
                }
                Message::Request { .. } => {
                    return Err(CodecError::UnknownDiscriminant {
                        what: "server frame kind",
                        found: crate::codec::KIND_REQUEST,
                    })
                }
            }
        }
        Ok(out)
    }

    /// True once the server (or this side) hung up.
    pub fn is_closed(&self) -> bool {
        self.end.is_closed()
    }

    /// Hangs up.
    pub fn close(&self) {
        self.end.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apc_store::{StoreBuilder, StoreOp, StoreResp};

    fn server_fixture(store: &Store) -> StoreServer<'_> {
        // No backlog (`guest_queue_depth: 0`) keeps the overflow tests
        // deterministic about *which turn* sheds.
        StoreServer::new(
            store,
            ServerConfig {
                vip_tokens: vec![7],
                guest_dispatch_per_poll: 4,
                guest_queue_depth: 0,
                ..ServerConfig::default()
            },
        )
    }

    #[test]
    fn handshake_then_request_roundtrip() {
        let store = StoreBuilder::new().shards(2).vip_capacity(1).build().unwrap();
        let mut server = server_fixture(&store);
        let mut vip = NetClient::connect(&mut server, TierCredential::Vip { token: 7 });
        vip.send(
            &Request::new(vec![StoreOp::Put("k".into(), 5), StoreOp::Get("k".into())])
                .credential(TierCredential::Vip { token: 7 }),
        );
        let stats = server.poll();
        assert_eq!(stats.served, 1);
        assert_eq!(stats.shed, 0);
        let got = vip.drain().unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1[1], Ok(StoreResp::Value(Some(5))));
    }

    #[test]
    fn unknown_vip_token_is_refused_with_guest_tier() {
        let store = StoreBuilder::new().shards(1).vip_capacity(1).build().unwrap();
        let mut server = server_fixture(&store);
        let mut intruder = NetClient::connect(&mut server, TierCredential::Vip { token: 999 });
        server.poll();
        let got = intruder.drain().unwrap();
        assert_eq!(got, vec![(0, vec![Err(StoreError::GuestTier)])]);
        assert!(intruder.is_closed());
        assert_eq!(
            server.metrics().scrape().value("store_net_conns_denied_total", &[("tier", "vip")]),
            Some(1)
        );
    }

    #[test]
    fn guest_overflow_is_shed_with_typed_429() {
        let store = StoreBuilder::new().shards(1).vip_capacity(1).build().unwrap();
        let mut server = server_fixture(&store);
        let mut guests: Vec<NetClient> =
            (0..6).map(|_| NetClient::connect(&mut server, TierCredential::Guest)).collect();
        for (n, g) in guests.iter_mut().enumerate() {
            g.send(&Request::new(vec![StoreOp::Put(format!("g/{n}"), n as u64)]));
        }
        let stats = server.poll();
        assert_eq!(stats.served, 4, "guest_dispatch_per_poll caps the turn");
        assert_eq!(stats.shed, 2);
        let mut shed_seen = 0;
        for g in &mut guests {
            for (_, results) in g.drain().unwrap() {
                if matches!(results[0], Err(StoreError::RetryBudgetExhausted { .. })) {
                    shed_seen += 1;
                } else {
                    assert!(results[0].is_ok());
                }
            }
        }
        assert_eq!(shed_seen, 2);
    }

    #[test]
    fn pipelined_guests_coalesce_into_one_batch() {
        let store = StoreBuilder::new().shards(2).vip_capacity(1).build().unwrap();
        // Default queue depth: the second wave waits in the backlog
        // instead of being shed same-turn.
        let mut server = StoreServer::new(
            &store,
            ServerConfig { guest_dispatch_per_poll: 4, ..ServerConfig::default() },
        );
        let mut guests: Vec<NetClient> =
            (0..4).map(|_| NetClient::connect(&mut server, TierCredential::Guest)).collect();
        for (n, g) in guests.iter_mut().enumerate() {
            g.send(&Request::new(vec![StoreOp::Put(format!("b/{n}"), n as u64)]));
            g.send(&Request::new(vec![StoreOp::Get(format!("b/{n}"))]));
        }
        // 8 envelopes, cap 4: the first turn serves one 4-envelope batch.
        let stats = server.poll();
        assert_eq!(stats.served, 4);
        assert_eq!(stats.batches, 1, "the turn's guests ride one coalesced dispatch");
        server.poll();
        for (n, g) in guests.iter_mut().enumerate() {
            let got = g.drain().unwrap();
            assert_eq!(got.len(), 2, "guest {n} got both responses");
            assert_eq!(got[0].1, vec![Ok(StoreResp::Value(None))], "Put acks");
            assert_eq!(got[1].1, vec![Ok(StoreResp::Value(Some(n as u64)))], "Get sees its Put");
        }
        let snap = server.metrics().scrape();
        assert_eq!(snap.value("store_net_batch_dispatches_total", &[]), Some(2));
        assert_eq!(snap.value("store_net_requests_total", &[("tier", "guest")]), Some(8));
    }

    #[test]
    fn expired_guest_frame_is_shed_pre_dispatch_as_deadline_exceeded() {
        let store = StoreBuilder::new().shards(1).vip_capacity(1).build().unwrap();
        let mut server = server_fixture(&store);
        let mut guest = NetClient::connect(&mut server, TierCredential::Guest);
        let mut vip = NetClient::connect(&mut server, TierCredential::Vip { token: 7 });
        // A zero deadline is expired on arrival — the guest frame must be
        // shed with the typed deadline error, never dispatched.
        guest.send(&Request::new(vec![StoreOp::Put("k".into(), 1)]).deadline_ms(0));
        // The VIP frame with the same zero deadline is still served:
        // VIP frames are never shed, never deadline-adjusted.
        vip.send(
            &Request::new(vec![StoreOp::Put("v".into(), 2)])
                .credential(TierCredential::Vip { token: 7 })
                .deadline_ms(0),
        );
        let stats = server.poll();
        assert_eq!(stats.deadline_shed, 1);
        assert_eq!(stats.shed, 0, "a deadline shed is not a 429");
        assert_eq!(stats.served, 1, "the VIP frame");
        let got = guest.drain().unwrap();
        assert_eq!(got[0].1, vec![Err(StoreError::DeadlineExceeded { deadline_ms: 0 })]);
        assert_eq!(vip.drain().unwrap()[0].1, vec![Ok(StoreResp::Value(None))]);
        let snap = server.metrics().scrape();
        assert_eq!(snap.value("store_net_deadline_shed_total", &[("tier", "guest")]), Some(1));
        assert_eq!(snap.value("store_net_deadline_shed_total", &[("tier", "vip")]), Some(0));
    }

    #[test]
    fn backlog_carries_guests_across_turns_up_to_depth() {
        let store = StoreBuilder::new().shards(1).vip_capacity(1).build().unwrap();
        let mut server = StoreServer::new(
            &store,
            ServerConfig {
                guest_dispatch_per_poll: 2,
                guest_queue_depth: 2,
                ..ServerConfig::default()
            },
        );
        let mut guests: Vec<NetClient> =
            (0..6).map(|_| NetClient::connect(&mut server, TierCredential::Guest)).collect();
        for (n, g) in guests.iter_mut().enumerate() {
            g.send(&Request::new(vec![StoreOp::Put(format!("q/{n}"), n as u64)]));
        }
        // Turn 1: 2 served, 2 queued, the 2 newest shed as 429.
        let stats = server.poll();
        assert_eq!((stats.served, stats.shed), (2, 2));
        assert_eq!(
            server.metrics().scrape().value("store_net_guest_queue_depth", &[]),
            Some(2),
            "the survivors wait in the backlog"
        );
        // Turn 2: the backlog drains — no new arrivals needed.
        let stats = server.poll();
        assert_eq!((stats.served, stats.shed), (2, 0));
        assert_eq!(server.metrics().scrape().value("store_net_guest_queue_depth", &[]), Some(0));
        let mut ok = 0;
        let mut shed = 0;
        for g in &mut guests {
            for (_, results) in g.drain().unwrap() {
                match &results[0] {
                    Ok(_) => ok += 1,
                    Err(StoreError::RetryBudgetExhausted { .. }) => shed += 1,
                    other => panic!("unexpected result: {other:?}"),
                }
            }
        }
        assert_eq!((ok, shed), (4, 2));
    }

    /// With no backlog and no dispatch, every guest frame meets a full
    /// backlog and is shed. A well-formed one gets its 429; a malformed one
    /// — an unknown op tag, a key that is not UTF-8, a trailing byte — or a
    /// second `Hello` closes the connection as a codec fault, unanswered.
    #[test]
    fn a_shed_guest_frame_still_fails_closed() {
        let put = Request::new(vec![StoreOp::Put("k".into(), 1)]).retry_budget(4);
        let put = encode_request(5, &put);
        let mut reader = FrameReader::new();
        reader.push(&put);
        let payload = reader.next_payload().unwrap().expect("one frame").to_vec();
        // The payload ends with the put: tag, key length, "k", value.
        let tag = payload.len() - (1 + 4 + 1 + 8);
        let framed = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut bad = payload.clone();
            edit(&mut bad);
            let mut out = Vec::new();
            let start = apc_store::frame::begin(&mut out);
            out.extend_from_slice(&bad);
            apc_store::frame::seal(&mut out, start);
            out
        };
        let faults = [
            ("unknown op tag", framed(&|p| p[tag] = 0x6e)),
            ("non-UTF-8 key", framed(&|p| p[tag + 5] = 0xff)),
            ("trailing bytes", framed(&|p| p.push(0))),
            ("second Hello", encode_hello(&TierCredential::Guest)),
        ];
        let store = StoreBuilder::new().shards(1).vip_capacity(1).build().unwrap();
        let cfg =
            ServerConfig { guest_queue_depth: 0, guest_dispatch_per_poll: 0, ..Default::default() };
        let mut server = StoreServer::new(&store, cfg.clone());
        let mut guest = NetClient::connect(&mut server, TierCredential::Guest);
        server.poll();
        guest.end.send(&put);
        assert_eq!(server.poll().shed, 1, "a full backlog sheds a well-formed frame");
        let want = vec![Err(StoreError::RetryBudgetExhausted { budget: 4 })];
        assert_eq!(guest.drain().unwrap(), vec![(5, want)]);
        for (what, frame) in faults {
            let mut server = StoreServer::new(&store, cfg.clone());
            let mut guest = NetClient::connect(&mut server, TierCredential::Guest);
            server.poll();
            guest.end.send(&frame);
            let stats = server.poll();
            assert_eq!((stats.closed, stats.shed, stats.served), (1, 0, 0), "{what}");
            assert!(guest.is_closed(), "{what}");
            let errors = server.metrics().scrape().value("store_net_codec_errors_total", &[]);
            assert_eq!(errors, Some(1), "{what}");
            assert_eq!(guest.drain().unwrap(), vec![], "{what}: no response");
        }
    }

    #[test]
    fn batched_guest_latency_is_per_envelope_and_includes_queue_wait() {
        let store = StoreBuilder::new().shards(1).vip_capacity(1).build().unwrap();
        let mut server = StoreServer::new(
            &store,
            ServerConfig { guest_dispatch_per_poll: 2, ..ServerConfig::default() },
        );
        let mut guests: Vec<NetClient> =
            (0..4).map(|_| NetClient::connect(&mut server, TierCredential::Guest)).collect();
        server.poll(); // handshakes
        let put = |n: usize| Request::new(vec![StoreOp::Put(format!("w/{n}"), n as u64)]);
        for (n, g) in guests.iter_mut().enumerate().take(3) {
            g.send(&put(n));
        }
        // Turn 1 serves two frames and holds the third in the backlog.
        // Turn 2, after the hold, batches it with a frame that just came.
        let hold = std::time::Duration::from_millis(20);
        assert_eq!(server.poll().served, 2);
        std::thread::sleep(hold);
        guests[3].send(&put(3));
        let stats = server.poll();
        assert_eq!((stats.served, stats.batches), (2, 1), "held and fresh share a batch");
        let snap = server.metrics().scrape();
        let latency = snap.histogram("store_net_request_latency_ns", &[("tier", "guest")]).unwrap();
        assert_eq!(latency.count, 4);
        let hold_ns = hold.as_nanos() as u64;
        assert!(latency.sum >= hold_ns, "the held frame's wait is on the clock: {latency:?}");
        // Per envelope, not per batch: the 16.4 ms bound separates a
        // dispatch from a 20 ms hold, and only the held frame is above it.
        let slow: u64 = latency.buckets[8..].iter().sum();
        assert_eq!(slow, 1, "one envelope of four waited: {latency:?}");
    }

    /// The wire's counters have one writer, the reactor, and a scrape
    /// reads them between its turns: by the time a turn returns, every
    /// frame it read and every frame it answered — served, queued and
    /// served later, or shed — is counted.
    #[test]
    fn a_scrape_between_turns_sees_every_frame_counted() {
        let store = StoreBuilder::new().shards(2).vip_capacity(1).build().unwrap();
        let mut server = server_fixture(&store);
        let cred = TierCredential::Vip { token: 7 };
        let mut clients = vec![NetClient::connect(&mut server, cred)];
        clients.extend((0..3).map(|_| NetClient::connect(&mut server, TierCredential::Guest)));
        let (mut sent, mut answered) = (clients.len() as u64, 0);
        for turn in 0..40u64 {
            if turn > 0 {
                clients[0].send(&Request::new(vec![StoreOp::Get("v".into())]).credential(cred));
                // Six guest frames on even turns: two past the dispatch
                // cap, shed with a 429.
                for guest in &mut clients[1..] {
                    for _ in 0..1 + turn % 2 {
                        guest.send(&Request::new(vec![StoreOp::Put(format!("g/{turn}"), turn)]));
                    }
                }
                sent += 1 + 3 * (1 + turn % 2);
            }
            server.poll();
            answered += clients.iter_mut().map(|c| c.drain().unwrap().len() as u64).sum::<u64>();
            let snap = server.scrape();
            assert_eq!(snap.value("store_net_frames_in_total", &[]), Some(sent), "turn {turn}");
            assert_eq!(
                snap.value("store_net_frames_out_total", &[]),
                Some(answered),
                "turn {turn}"
            );
        }
        assert_eq!(answered, sent - 4, "every request answered, no hello");
    }

    /// A VIP request is lent the turn's reading: the reactor times it from
    /// that reading to its commit's end, and the store times the commit on
    /// the same two readings. Over one-get turns the two series agree in
    /// count and in sum, nanosecond for nanosecond.
    #[test]
    fn a_vip_get_and_its_commit_are_priced_on_the_same_readings() {
        let store = StoreBuilder::new().shards(2).vip_capacity(1).build().unwrap();
        let mut server = server_fixture(&store);
        let cred = TierCredential::Vip { token: 7 };
        let mut vip = NetClient::connect(&mut server, cred);
        server.poll();
        for n in 0..32 {
            vip.send(&Request::new(vec![StoreOp::Get(format!("k/{n}"))]).credential(cred));
            assert_eq!(server.poll().served, 1);
        }
        assert_eq!(vip.drain().unwrap().len(), 32);
        let snap = server.scrape();
        let tier = [("tier", "vip")];
        let wire = snap.histogram("store_net_request_latency_ns", &tier).unwrap();
        let commit = snap.histogram("store_commit_latency_ns", &tier).unwrap();
        assert_eq!((wire.count, wire.sum), (32, commit.sum));
        assert_eq!(commit.count, 32);
    }

    /// A guest round is lent the dispatch's one reading, and its commits
    /// chain from there, each starting where the last ended, to the reading
    /// every envelope of the turn is answered at: the turn's envelopes,
    /// read at one reading, share one latency, and it covers the round's
    /// commits whole.
    #[test]
    fn a_guest_round_chains_its_commits_from_the_dispatchs_reading() {
        let store = StoreBuilder::new().shards(4).vip_capacity(1).build().unwrap();
        let mut server = StoreServer::new(&store, ServerConfig::default());
        let mut guests: Vec<NetClient> =
            (0..8).map(|_| NetClient::connect(&mut server, TierCredential::Guest)).collect();
        server.poll();
        let keys: Vec<String> = (0..8).map(|n| format!("g/{n}")).collect();
        let mut shards: Vec<usize> = keys.iter().map(|k| store.shard_of(k)).collect();
        for (guest, key) in guests.iter_mut().zip(&keys) {
            guest.send(&Request::new(vec![StoreOp::Put(key.clone(), 1)]));
        }
        assert_eq!((server.poll().served, server.poll().served), (8, 0));
        shards.sort_unstable();
        shards.dedup();
        assert!(shards.len() > 1, "the round spans shards: {shards:?}");
        let snap = server.scrape();
        let tier = [("tier", "guest")];
        let wire = snap.histogram("store_net_request_latency_ns", &tier).unwrap();
        let commit = snap.histogram("store_commit_latency_ns", &tier).unwrap();
        assert_eq!(commit.count, shards.len() as u64, "one observation per commit");
        assert_eq!((wire.count, wire.sum % 8), (8, 0), "one latency for the turn's envelopes");
        assert!(wire.sum / 8 >= commit.sum, "{wire:?} against {commit:?}");
    }

    #[test]
    fn one_envelope_per_poll_still_serves_pipelines() {
        let store = StoreBuilder::new().shards(1).vip_capacity(1).build().unwrap();
        let mut server = StoreServer::new(
            &store,
            ServerConfig { guest_dispatch_per_poll: 1, ..ServerConfig::default() },
        );
        let mut guest = NetClient::connect(&mut server, TierCredential::Guest);
        guest.send(&Request::new(vec![StoreOp::Put("u".into(), 9)]));
        guest.send(&Request::new(vec![StoreOp::Get("u".into())]));
        let stats = server.poll();
        assert_eq!((stats.served, stats.batches), (1, 1), "the put; the get waits its turn");
        let stats = server.poll();
        assert_eq!((stats.served, stats.batches), (1, 1));
        let got = guest.drain().unwrap();
        assert_eq!(got[1].1, vec![Ok(StoreResp::Value(Some(9)))]);
    }

    #[test]
    fn frames_cannot_escalate_tier() {
        let store = StoreBuilder::new().shards(1).vip_capacity(1).build().unwrap();
        let mut server = server_fixture(&store);
        let mut guest = NetClient::connect(&mut server, TierCredential::Guest);
        // A guest connection sending a VIP-credentialed request frame.
        guest.send(
            &Request::new(vec![StoreOp::Get("k".into())])
                .credential(TierCredential::Vip { token: 7 }),
        );
        let stats = server.poll();
        let got = guest.drain().unwrap();
        assert_eq!(got[0].1, vec![Err(StoreError::GuestTier)]);
        assert_eq!((stats.served, stats.batches), (1, 1), "refused by the (empty) store round");
    }

    #[test]
    fn refused_guest_envelopes_ride_their_turn_and_are_counted() {
        let store = StoreBuilder::new().shards(1).vip_capacity(1).build().unwrap();
        let mut server = server_fixture(&store);
        let mut guest = NetClient::connect(&mut server, TierCredential::Guest);
        let put = || Request::new(vec![StoreOp::Put("k".into(), 1)]);
        guest.send(&put());
        guest.send(&put().credential(TierCredential::Vip { token: 7 }));
        guest.send(&put().durability(DurabilityClass::Sync));
        guest.send(&Request::new(vec![StoreOp::Get("k".into())]));
        let stats = server.poll();
        assert_eq!((stats.served, stats.batches, stats.shed), (4, 1, 0));
        let got: Vec<_> = guest.drain().unwrap().into_iter().map(|(_, results)| results).collect();
        let refused = vec![Err(StoreError::GuestTier)];
        let want = vec![
            vec![Ok(StoreResp::Value(None))],
            refused.clone(),
            refused,
            vec![Ok(StoreResp::Value(Some(1)))],
        ];
        assert_eq!(got, want, "refused alone and in place; the put was applied once");
        let snap = server.metrics().scrape();
        assert_eq!(snap.value("store_net_requests_total", &[("tier", "guest")]), Some(4));
        assert_eq!(snap.value("store_net_batch_dispatches_total", &[]), Some(1));
        let carried = snap.histogram("store_net_batch_envelopes", &[]).unwrap();
        assert_eq!((carried.count, carried.sum), (1, 4));
    }

    #[test]
    fn http_metrics_endpoint_serves_merged_scrape() {
        let store = StoreBuilder::new().shards(1).vip_capacity(1).build().unwrap();
        let mut server = server_fixture(&store);
        let mut guest = NetClient::connect(&mut server, TierCredential::Guest);
        guest.send(&Request::new(vec![StoreOp::Put("k".into(), 1)]));
        server.poll();
        let probe = server.connect();
        probe.send(b"GET /metrics HTTP/1.1\r\nHost: sim\r\n\r\n");
        server.poll();
        let mut body = Vec::new();
        probe.drain_into(&mut body);
        let text = String::from_utf8(body).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK"), "got: {text}");
        assert!(text.contains("store_net_requests_total{tier=\"guest\"} 1"), "got: {text}");
        assert!(probe.is_closed(), "metrics probes are one-shot");
        // Unknown paths 404.
        let probe2 = server.connect();
        probe2.send(b"GET /nope HTTP/1.1\r\n\r\n");
        server.poll();
        let mut body2 = Vec::new();
        probe2.drain_into(&mut body2);
        assert!(String::from_utf8(body2).unwrap().starts_with("HTTP/1.1 404"));
    }

    #[test]
    fn an_unterminated_http_head_is_closed_at_the_cap_and_counted() {
        let store = StoreBuilder::new().shards(1).vip_capacity(1).build().unwrap();
        let mut server = server_fixture(&store);
        let probe = server.connect();
        probe.send(b"GET /metrics HTTP/1.1\r\n");
        server.poll();
        assert!(!probe.is_closed(), "a head in progress waits for its end");
        for _ in 0..16 {
            probe.send(&[b'x'; 1024]);
            server.poll();
        }
        assert!(probe.is_closed(), "16 KiB without a blank line is past the cap");
        assert_eq!(server.metrics().scrape().value("store_net_codec_errors_total", &[]), Some(1));
        assert_eq!(
            server.metrics().scrape().value("store_net_http_metrics_hits_total", &[]),
            Some(0)
        );
        let mut answer = Vec::new();
        probe.drain_into(&mut answer);
        assert!(answer.is_empty(), "nothing is served to a head that never ended");
    }

    #[test]
    fn garbage_frames_fail_closed() {
        let store = StoreBuilder::new().shards(1).vip_capacity(1).build().unwrap();
        let mut server = server_fixture(&store);
        let raw = server.connect();
        raw.send(&[0xff; 64]);
        server.poll();
        assert!(raw.is_closed());
        assert_eq!(server.metrics().scrape().value("store_net_codec_errors_total", &[]), Some(1));
    }

    #[test]
    fn torn_tail_at_close_counts_as_codec_error() {
        let store = StoreBuilder::new().shards(1).vip_capacity(1).build().unwrap();
        let mut server = server_fixture(&store);
        let guest = NetClient::connect(&mut server, TierCredential::Guest);
        server.poll();
        // Send half a frame, then hang up.
        let frame = encode_request(9, &Request::new(vec![StoreOp::Get("k".into())]));
        guest.end.send(&frame[..frame.len() / 2]);
        guest.close();
        server.poll();
        assert_eq!(server.metrics().scrape().value("store_net_codec_errors_total", &[]), Some(1));
    }

    #[test]
    fn a_vip_frame_is_served_before_an_http_probe_of_the_same_turn() {
        let store = StoreBuilder::new().shards(1).vip_capacity(1).build().unwrap();
        let mut server = server_fixture(&store);
        let mut vip = NetClient::connect(&mut server, TierCredential::Vip { token: 7 });
        server.poll();
        let probe = server.connect();
        vip.send(
            &Request::new(vec![StoreOp::Put("k".into(), 1)])
                .credential(TierCredential::Vip { token: 7 }),
        );
        probe.send(b"GET /metrics HTTP/1.1\r\n\r\n");
        let stats = server.poll();
        assert_eq!((stats.served, stats.visited), (1, 2));
        let mut body = Vec::new();
        probe.drain_into(&mut body);
        let text = String::from_utf8(body).unwrap();
        assert!(text.contains("store_net_requests_total{tier=\"vip\"} 1"), "got: {text}");
        assert_eq!(vip.drain().unwrap().len(), 1);
    }

    #[test]
    fn a_vip_admitted_mid_turn_is_answered_before_later_connections_drain() {
        let store = StoreBuilder::new().shards(1).vip_capacity(1).build().unwrap();
        let mut server = server_fixture(&store);
        // Connection 0 handshakes and sends its put in the same turn that
        // connection 1 asks for the scrape.
        let mut vip = NetClient::connect(&mut server, TierCredential::Vip { token: 7 });
        vip.send(
            &Request::new(vec![StoreOp::Put("k".into(), 1)])
                .credential(TierCredential::Vip { token: 7 }),
        );
        let probe = server.connect();
        probe.send(b"GET /metrics HTTP/1.1\r\n\r\n");
        let stats = server.poll();
        assert_eq!((stats.served, stats.visited), (1, 2));
        let mut body = Vec::new();
        probe.drain_into(&mut body);
        let text = String::from_utf8(body).unwrap();
        assert!(text.contains("store_net_requests_total{tier=\"vip\"} 1"), "got: {text}");
        assert_eq!(vip.drain().unwrap()[0].1, vec![Ok(StoreResp::Value(None))]);
    }

    #[test]
    fn vip_frames_before_a_protocol_violation_are_served_then_the_connection_closes() {
        let store = StoreBuilder::new().shards(1).vip_capacity(1).build().unwrap();
        let mut server = server_fixture(&store);
        let cred = TierCredential::Vip { token: 7 };
        let mut vip = NetClient::connect(&mut server, cred);
        server.poll();
        vip.send(&Request::new(vec![StoreOp::Put("k".into(), 5)]).credential(cred));
        vip.end.send(&encode_hello(&cred));
        let stats = server.poll();
        assert_eq!((stats.frames, stats.served, stats.closed), (2, 1, 1));
        assert_eq!(vip.drain().unwrap(), vec![(1, vec![Ok(StoreResp::Value(None))])]);
        assert!(vip.is_closed());
        assert_eq!(server.metrics().scrape().value("store_net_codec_errors_total", &[]), Some(1));
        let get = Request::new(vec![StoreOp::Get("k".into())]);
        let got = store.client(store.admit_guest()).request_guest(get);
        assert_eq!(got.results, vec![Ok(StoreResp::Value(Some(5)))], "the put was applied");
    }

    #[test]
    fn a_turn_visits_only_the_connections_that_sent() {
        let store = StoreBuilder::new().shards(1).vip_capacity(1).build().unwrap();
        let mut server = server_fixture(&store);
        let idle: Vec<NetClient> =
            (0..4096).map(|_| NetClient::connect(&mut server, TierCredential::Guest)).collect();
        let mut sender = NetClient::connect(&mut server, TierCredential::Guest);
        assert_eq!(server.poll().visited, 4097, "every handshake is a send");
        assert_eq!(server.poll().visited, 0, "nobody has anything to say");
        sender.send(&Request::new(vec![StoreOp::Put("k".into(), 1)]));
        let stats = server.poll();
        assert_eq!((stats.visited, stats.served), (1, 1));
        assert_eq!(sender.drain().unwrap().len(), 1);
        drop(idle);
    }

    #[test]
    fn a_hang_up_with_no_bytes_is_closed_by_the_next_turn() {
        let store = StoreBuilder::new().shards(1).vip_capacity(1).build().unwrap();
        let mut server = server_fixture(&store);
        let guests: Vec<NetClient> =
            (0..3).map(|_| NetClient::connect(&mut server, TierCredential::Guest)).collect();
        server.poll();
        let open = |server: &StoreServer<'_>| {
            server.metrics().scrape().value("store_net_conns_open", &[]).unwrap()
        };
        assert_eq!(open(&server), 3);
        guests[1].close();
        let stats = server.poll();
        assert_eq!((stats.visited, stats.closed), (1, 1));
        assert_eq!(open(&server), 2);
        assert_eq!(server.metrics().scrape().value("store_net_codec_errors_total", &[]), Some(0));
        assert_eq!(server.poll().visited, 0, "a closed connection is not visited again");
    }

    #[test]
    fn half_a_frame_after_idle_turns_then_a_close_is_one_codec_error() {
        let store = StoreBuilder::new().shards(1).vip_capacity(1).build().unwrap();
        let mut server = server_fixture(&store);
        let guest = NetClient::connect(&mut server, TierCredential::Guest);
        for _ in 0..100 {
            server.poll();
        }
        let frame = encode_request(9, &Request::new(vec![StoreOp::Get("k".into())]));
        guest.end.send(&frame[..frame.len() / 2]);
        assert_eq!(server.poll().visited, 1);
        guest.close();
        let stats = server.poll();
        assert_eq!((stats.visited, stats.closed), (1, 1));
        assert_eq!(server.metrics().scrape().value("store_net_codec_errors_total", &[]), Some(1));
    }

    /// Client threads pipeline bursts of frames while this thread polls;
    /// after each burst a client waits for its answers. A send rings its
    /// connection's bit before the client reads the turn counter, so the
    /// second turn to end after that read has drained it, and with every
    /// burst smaller than the dispatch cap, served it too.
    #[test]
    fn no_lost_wakeup_under_pipelining_client_threads() {
        const CONNS: usize = 8;
        const FRAMES: usize = 2_000;
        let store = StoreBuilder::new().shards(2).vip_capacity(2).build().unwrap();
        let mut server = StoreServer::new(
            &store,
            ServerConfig { vip_tokens: vec![1, 2], ..ServerConfig::default() },
        );
        let mut creds = vec![TierCredential::Guest; CONNS];
        creds[0] = TierCredential::Vip { token: 1 };
        creds[1] = TierCredential::Vip { token: 2 };
        let clients: Vec<NetClient> =
            creds.iter().map(|&cred| NetClient::connect(&mut server, cred)).collect();
        server.poll();
        // Turns ended since the handshakes.
        let turns = AtomicU64::new(0);
        std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .into_iter()
                .zip(creds)
                .enumerate()
                .map(|(c, (mut client, cred))| {
                    let turns = &turns;
                    s.spawn(move || {
                        let (mut sent, mut burst) = (0, 1 + c % 16);
                        while sent < FRAMES {
                            let n = burst.min(FRAMES - sent);
                            for k in sent..sent + n {
                                let put = StoreOp::Put(format!("w/{c}/{k}"), k as u64);
                                client.send(&Request::new(vec![put]).credential(cred));
                            }
                            sent += n;
                            let from = turns.load(Ordering::SeqCst);
                            let mut answered = 0;
                            loop {
                                let seen = turns.load(Ordering::SeqCst);
                                answered += client.drain().unwrap().len();
                                if answered == n {
                                    break;
                                }
                                assert!(
                                    seen < from + 2,
                                    "conn {c}: {} of {n} frames unanswered two turns on",
                                    n - answered
                                );
                                std::thread::yield_now();
                            }
                            burst = burst % 16 + 1;
                        }
                    })
                })
                .collect();
            while !handles.iter().all(|h| h.is_finished()) {
                server.poll();
                turns.fetch_add(1, Ordering::SeqCst);
            }
        });
        let snap = server.metrics().scrape();
        let served = |tier| snap.value("store_net_requests_total", &[("tier", tier)]).unwrap();
        assert_eq!((served("vip"), served("guest")), (2 * 2_000, 6 * 2_000));
    }

    #[test]
    fn vip_sessions_are_reused_across_reconnects() {
        let store = StoreBuilder::new().shards(1).vip_capacity(1).build().unwrap();
        let mut server = server_fixture(&store);
        let a = NetClient::connect(&mut server, TierCredential::Vip { token: 7 });
        server.poll();
        a.close();
        server.poll();
        // VIP capacity is 1, yet the same token reconnects fine: the
        // session ticket is cached, not re-admitted.
        let mut b = NetClient::connect(&mut server, TierCredential::Vip { token: 7 });
        b.send(
            &Request::new(vec![StoreOp::Get("k".into())])
                .credential(TierCredential::Vip { token: 7 }),
        );
        let stats = server.poll();
        assert_eq!(stats.served, 1);
        assert_eq!(b.drain().unwrap().len(), 1);
    }

    /// A server with VIP tokens holds its VIP port from the moment it is
    /// built, before any turn, and its VIP hellos are served on that
    /// ticket: no turn admits. A server without VIP tokens holds none.
    #[test]
    fn a_server_holds_its_vip_port_from_the_moment_it_is_built() {
        let store = StoreBuilder::new().shards(1).vip_capacity(1).build().unwrap();
        let mut server = server_fixture(&store);
        assert!(store.admit_vip().is_err(), "the server took the one port when it was built");
        let held = server.vip_ticket.expect("the server holds a VIP ticket");
        assert_eq!(server.store.guest_voice(held), Some(server.batch_ticket));
        let cred = TierCredential::Vip { token: 7 };
        let mut vip = NetClient::connect(&mut server, cred);
        vip.send(&Request::new(vec![StoreOp::Put("v".into(), 1)]).credential(cred));
        let stats = server.poll();
        assert_eq!((stats.served, stats.closed), (1, 0));
        assert_eq!(vip.drain().unwrap(), vec![(1, vec![Ok(StoreResp::Value(None))])]);
        assert!(matches!(server.conns[0].state, ConnState::Serving(t) if t == held));
        let snap = server.metrics().scrape();
        assert_eq!(snap.value("store_net_conns_accepted_total", &[("tier", "vip")]), Some(1));

        let guests_only = StoreBuilder::new().shards(1).vip_capacity(1).build().unwrap();
        let server = StoreServer::new(&guests_only, ServerConfig::default());
        assert_eq!(server.vip_ticket, None);
        assert!(guests_only.admit_vip().is_ok(), "a server without VIP tokens holds no port");
    }

    /// The reactor is one process and holds one VIP port: every
    /// allow-listed token's connections ride the server's one VIP ticket,
    /// so a capacity of 1 serves two tokens in one turn, and a capacity of
    /// 2 leaves a port for an in-process client.
    #[test]
    fn every_allow_listed_token_rides_the_one_vip_ticket() {
        let serve_both = |store: &Store| {
            let cfg = ServerConfig { vip_tokens: vec![1, 2], ..ServerConfig::default() };
            let mut server = StoreServer::new(store, cfg);
            let mut vips: Vec<NetClient> = [1, 2]
                .map(|token| NetClient::connect(&mut server, TierCredential::Vip { token }))
                .into();
            server.poll();
            for (n, (vip, token)) in vips.iter_mut().zip([1, 2]).enumerate() {
                let put = StoreOp::Put(format!("v/{token}"), n as u64);
                vip.send(&Request::new(vec![put]).credential(TierCredential::Vip { token }));
            }
            let stats = server.poll();
            assert_eq!((stats.served, stats.closed), (2, 0), "both tokens served in one turn");
            for vip in &mut vips {
                assert_eq!(vip.drain().unwrap(), vec![(1, vec![Ok(StoreResp::Value(None))])]);
                assert!(!vip.is_closed());
            }
            let snap = server.metrics().scrape();
            assert_eq!(snap.value("store_net_conns_denied_total", &[("tier", "vip")]), Some(0));
            assert_eq!(snap.value("store_net_conns_accepted_total", &[("tier", "vip")]), Some(2));
        };
        let one_port = StoreBuilder::new().shards(1).vip_capacity(1).build().unwrap();
        serve_both(&one_port);
        assert!(one_port.admit_vip().is_err(), "the wire took the one port");
        let two_ports = StoreBuilder::new().shards(1).vip_capacity(2).build().unwrap();
        serve_both(&two_ports);
        assert!(two_ports.admit_vip().is_ok(), "the wire left a port for an in-process client");
    }
}
