//! The load driver: one thread shared with the reactor, on the reactor
//! clock.
//!
//! Each iteration injects every request that is due, runs one
//! `StoreServer::poll` turn, advances the clock by the turn's measured
//! duration and by nothing else, then drains and checks every response
//! and stamps it `latency = clock − due`. Open-loop arrivals follow a
//! schedule fixed by the seed, so latency runs from the intended send
//! time and the generator is never late; the driver's own work sits
//! between turns, outside the clock.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Instant;

use apc_net::codec::FRAME_OVERHEAD;
use apc_net::{encode_request, StoreServer, WireResult};
use apc_store::{encode_prometheus, MetricsSnapshot, Request, Store, StoreResp};

use crate::check::{Ledger, Outcome, Write};
use crate::clock::ReactorClock;
use crate::reference::Reference;
use crate::spans::{SpanLog, ROOT};
use crate::stream::{fnv1a, scaled, Generator, Load, OpSpec, ReqSpec, Schedule, Tier, Workload};
use crate::sys;
use crate::world::{credential, Conn, Durable, HARNESS_ID_BASE};

/// Share of a phase's requests that warm up and are not measured.
const WARMUP_SHARE: f64 = 0.10;
/// In-flight requests are kept in a ring indexed by id; ids in flight
/// never span this many.
const RING: usize = 1 << 16;
const FREE: u64 = u64::MAX;
/// On the durable workload a checkpoint starts after every this many
/// guest responses (at nominal scale), except at the very end.
const CHECKPOINT_EVERY: u64 = 100_000;
/// Keys per read-back request.
pub const READBACK_KEYS: u32 = 512;
/// A traced run records spans in alternate slices of this much reactor
/// time, so that traced and untraced turns of one run can be compared.
const TRACE_SLICE_NS: u64 = 100_000_000;
/// A turn that spent this long off the CPU was stalled: the host took
/// the CPU away or, on the durable workload, the disk sat on an fsync
/// (the sandbox's takes 85–480 ms now and then). Counted and reported;
/// the sandbox also pauses the whole VM, which no clock of the guest's
/// shows, so a stall cannot be proved from this alone.
const STALL_NS: u64 = 10_000_000;

#[derive(Copy, Clone)]
struct Inflight {
    id: u64,
    due: u64,
    spec: ReqSpec,
}

/// One measured response.
#[derive(Copy, Clone)]
pub struct Sample {
    pub due: u64,
    pub latency_ns: u32,
    pub tier: Tier,
    pub ok: bool,
}

#[derive(Copy, Clone, Default, Debug)]
pub struct Tally {
    pub attempted: u64,
    pub ok: u64,
    pub shed: u64,
    pub failed: u64,
}

pub fn slot(tier: Tier) -> usize {
    match tier {
        Tier::Vip => 0,
        Tier::Guest => 1,
    }
}

/// One reactor turn of the part of a traced run that the layer replay
/// repeats: which requests arrived and which were answered, and how.
pub struct TurnRec {
    pub arrivals: std::ops::Range<usize>,
    pub answered: std::ops::Range<usize>,
    pub poll_ns: u64,
}

/// What a traced run records on top of an untraced one.
pub struct Trace {
    pub spans: SpanLog,
    /// The layer replay covers the requests with ids below this.
    pub replay_requests: u64,
    /// By id, for the replayed requests.
    pub specs: Vec<ReqSpec>,
    /// By id: a hash of the response payload the server sent.
    pub response_hash: Vec<u64>,
    /// The leading turns, up to the one that sent request
    /// `replay_requests`.
    pub turns: Vec<TurnRec>,
    pub arrivals: Vec<u64>,
    pub answered: Vec<(u64, Outcome)>,
    /// Per slice of reactor time after the replayed part: whether it was
    /// traced, and its `poll()` ns per response.
    pub slices: Vec<(bool, f64)>,
    /// The slice being summed: `(index, traced, poll ns, responses)`.
    slice: (u64, bool, u64, u64),
    /// The server's merged scrape when the measured phase began and
    /// ended, and what the second one (with its text encoding) took.
    pub scrape_from: Option<MetricsSnapshot>,
    pub scrape_to: Option<MetricsSnapshot>,
    pub scrape_us: f64,
    replay_open: bool,
}

impl Trace {
    pub fn new(spans: SpanLog, replay_requests: u64) -> Trace {
        let n = replay_requests as usize;
        Trace {
            spans,
            replay_requests,
            specs: sys::presized(n, ReqSpec::EMPTY),
            response_hash: vec![0; n],
            turns: Vec::with_capacity(n),
            arrivals: sys::presized(n, 0),
            answered: sys::presized(2 * n, (0, Outcome::Ok)),
            slices: Vec::with_capacity(1024),
            slice: (0, false, 0, 0),
            scrape_from: None,
            scrape_to: None,
            scrape_us: 0.0,
            replay_open: true,
        }
    }
}

/// Pre-sized buffers the driver fills; allocated and touched before
/// set-up so that they are neither page faults nor heap growth later.
pub struct Buffers {
    pub ledger: Ledger,
    pub samples: Vec<Sample>,
    /// Duration of every measured turn on the reactor clock.
    pub turn_ns: Vec<u32>,
    ring: Vec<Inflight>,
}

impl Buffers {
    pub fn new(wl: &Workload, scale: f64) -> Buffers {
        let total = wl.total_requests(scale) as usize;
        let total = total + total / 10 + 1024;
        let reads = (total as f64 * wl.reads_per_request() * 1.1) as usize;
        let sample = Sample { due: 0, latency_ns: 0, tier: Tier::Guest, ok: false };
        let write = Write { key: 0, turn: 0, prev: 0, new: 0 };
        Buffers {
            ledger: Ledger::new(sys::presized(total, write), sys::presized(reads, (0, 0))),
            samples: sys::presized(total, sample),
            turn_ns: sys::presized(total, 0),
            ring: vec![Inflight { id: FREE, due: 0, spec: ReqSpec::EMPTY }; RING],
        }
    }
}

/// Everything one drive of a workload measured.
#[derive(Default)]
pub struct Phase {
    /// Per tier (`slot`), over the whole run.
    pub tallies: [Tally; 2],
    /// Reactor-clock bounds of the measured phase.
    pub measure_from: u64,
    pub measure_to: u64,
    /// Over the measured turns: time in `poll()` on the reactor clock and
    /// as measured, responses drained, successful ones, guest requests
    /// that reached the store, turns, frames ingested, requests shed,
    /// coalesced dispatches.
    pub busy_ns: u64,
    pub busy_wall_ns: u64,
    pub responses: u64,
    pub ok_responses: u64,
    pub guest_served: u64,
    pub turns: u64,
    pub frames: u64,
    pub shed: u64,
    pub batches: u64,
    /// The longest turn of the run as measured, when it began on the
    /// reactor clock, and whether it was stalled (see [`STALL_NS`]);
    /// stalled turns over the whole run.
    pub longest_turn_ns: u64,
    pub longest_turn_at: u64,
    pub longest_turn_stalled: bool,
    pub stalled_turns: u64,
    /// Over every turn of the run.
    pub deadline_shed: u64,
    pub queue_depth_max: u64,
    /// Request and response frame bytes over the whole run.
    pub bytes_in: u64,
    pub bytes_out: u64,
    /// Heap in use when the measured phase began and ended.
    pub heap_from: u64,
    pub heap_to: u64,
    /// Minor faults of this thread across the measured phase.
    pub minor_faults: Option<u64>,
    /// Up to the end of the measured phase, as measured: wall time of the
    /// drive loop, the part of it spent in `poll()`, and requests sent.
    pub loop_ns: u64,
    pub poll_ns: u64,
    pub requests: u64,
    /// Key `k`'s value read back after the last response.
    pub finals: Vec<u64>,
    pub checkpoint_ms: Vec<f64>,
    /// The longest turn that overlapped a checkpoint.
    pub stall_ns_max: u64,
    pub replay_steps: u64,
}

/// Asks the durable workload's helper thread for checkpoints.
struct Checkpointer<'a> {
    start: mpsc::Sender<()>,
    running: &'a AtomicBool,
    every: u64,
    /// No checkpoint starts at or beyond this many guest responses.
    end: u64,
    started: u64,
}

struct Driver<'b> {
    gen: Generator,
    sched: Schedule,
    clock: ReactorClock,
    buf: &'b mut Buffers,
    trace: Option<&'b mut Trace>,
    reference: &'b mut Reference,
    phase: Phase,
    next_id: u64,
    /// Unanswered requests per tier.
    outstanding: [u64; 2],
    turn: u32,
    /// Closed-loop connections owed a request, one entry per response.
    resend: Vec<usize>,
    /// Requests (open loop) or guest responses (closed loop) that warm up.
    warmup: u64,
    /// Guest responses that end a closed-loop phase.
    closed_quota: Option<u64>,
    guest_responses: u64,
    measure_from: Option<u64>,
    measuring: bool,
    ended: bool,
    scratch: Vec<u8>,
    faults_from: Option<u64>,
    loop_started: Instant,
}

impl Driver<'_> {
    fn inject(&mut self, conns: &[Conn], conn: usize, due: u64) -> Result<(), String> {
        let spec = self.gen.next(conn);
        let id = self.next_id;
        self.next_id += 1;
        if self.closed_quota.is_none() && id == self.warmup {
            self.measure_from = Some(due);
        }
        let entry = &mut self.buf.ring[id as usize % RING];
        if entry.id != FREE {
            return Err(format!("request {} still unanswered {RING} requests later", entry.id));
        }
        *entry = Inflight { id, due, spec };
        self.outstanding[slot(spec.tier)] += 1;
        self.phase.tallies[slot(spec.tier)].attempted += 1;
        if let Some(trace) = self.trace.as_deref_mut() {
            if trace.replay_open && id < trace.replay_requests {
                trace.specs.push(spec);
                trace.arrivals.push(id);
            } else {
                trace.replay_open = false;
            }
        }
        let frame = spec.encode(id);
        self.phase.bytes_in += frame.len() as u64;
        conns[conn].end.send(&frame);
        Ok(())
    }

    fn on_response(
        &mut self,
        id: u64,
        payload: &[u8],
        results: &[WireResult],
        answered: &mut u64,
    ) -> Result<(), String> {
        let entry = self.buf.ring[id as usize % RING];
        if entry.id != id {
            return Err(format!("response to request {id}, which is not in flight"));
        }
        self.buf.ring[id as usize % RING].id = FREE;
        let spec = entry.spec;
        self.outstanding[slot(spec.tier)] -= 1;
        self.phase.bytes_out += (payload.len() + FRAME_OVERHEAD) as u64;
        let outcome = self
            .buf
            .ledger
            .record(&spec, results, self.turn)
            .map_err(|e| format!("request {id}: {e}"))?;
        let tally = &mut self.phase.tallies[slot(spec.tier)];
        match outcome {
            Outcome::Ok => tally.ok += 1,
            Outcome::Shed => tally.shed += 1,
            Outcome::Failed => tally.failed += 1,
        }
        *answered += 1;
        if self.measuring {
            self.phase.responses += 1;
            if outcome == Outcome::Ok {
                self.phase.ok_responses += 1;
            }
            if spec.tier == Tier::Guest && outcome != Outcome::Shed {
                self.phase.guest_served += 1;
            }
            if self.measure_from.is_some_and(|from| entry.due >= from) {
                let latency = self.clock.now() - entry.due;
                self.buf.samples.push(Sample {
                    due: entry.due,
                    latency_ns: u32::try_from(latency).unwrap_or(u32::MAX),
                    tier: spec.tier,
                    ok: outcome == Outcome::Ok,
                });
            }
        }
        if let Some(trace) = self.trace.as_deref_mut() {
            if id < trace.replay_requests {
                trace.response_hash[id as usize] = fnv1a(payload);
                if trace.replay_open {
                    trace.answered.push((id, outcome));
                }
            }
        }
        if spec.tier == Tier::Guest {
            self.guest_responses += 1;
            if self.closed_quota.is_some() {
                self.resend.push(spec.conn.into());
            }
        }
        Ok(())
    }

    /// One iteration: inject what is due, poll, drain. Returns the
    /// turn's duration on the reactor clock, in ns.
    fn turn(&mut self, server: &mut StoreServer<'_>, conns: &mut [Conn]) -> Result<u64, String> {
        let now = self.clock.now();
        let (arrivals_from, answered_from, was_open) = self
            .trace
            .as_deref()
            .map_or((0, 0, false), |t| (t.arrivals.len(), t.answered.len(), t.replay_open));
        while let Some((due, conn)) = self.sched.peek() {
            if due > now {
                break;
            }
            self.sched.pop(conn);
            self.inject(conns, conn, due)?;
        }
        let mut resend = std::mem::take(&mut self.resend);
        if !self.ended {
            for &conn in &resend {
                self.inject(conns, conn, now)?;
            }
        }
        resend.clear();
        self.resend = resend;

        if !self.measuring && !self.ended && self.measure_from.is_some_and(|from| now >= from) {
            self.measuring = true;
            self.phase.measure_from = now;
            self.phase.heap_from = sys::heap_in_use();
            self.faults_from = sys::thread_minor_faults();
            if let Some(trace) = self.trace.as_deref_mut() {
                trace.scrape_from = Some(server.scrape());
            }
        }
        // Spans are recorded throughout the replayed part, then in
        // alternate slices of reactor time.
        let tracing = self
            .trace
            .as_deref()
            .is_some_and(|t| t.replay_open || (now / TRACE_SLICE_NS).is_multiple_of(2));
        let (stats, turn) = self.clock.turn(self.reference.factor(), || server.poll());
        let (wall_ns, ns, started) = (turn.wall_ns, turn.ns, turn.started);
        let stalled = turn.waited_ns >= STALL_NS;
        self.phase.stalled_turns += u64::from(stalled);

        let mut answered = 0u64;
        let mut scratch = std::mem::take(&mut self.scratch);
        for conn in conns.iter_mut() {
            conn.drain(&mut scratch, |id, payload, results| {
                self.on_response(id, payload, &results, &mut answered)
            })?;
        }
        self.scratch = scratch;

        if wall_ns > self.phase.longest_turn_ns {
            self.phase.longest_turn_ns = wall_ns;
            self.phase.longest_turn_at = now;
            self.phase.longest_turn_stalled = stalled;
        }
        self.phase.deadline_shed += stats.deadline_shed as u64;
        // Every unanswered guest request sits in the reactor's backlog.
        self.phase.queue_depth_max =
            self.phase.queue_depth_max.max(self.outstanding[slot(Tier::Guest)]);
        if self.measuring {
            self.phase.busy_ns += ns;
            self.phase.busy_wall_ns += wall_ns;
            self.phase.turns += 1;
            self.phase.frames += stats.frames as u64;
            self.phase.shed += stats.shed as u64;
            self.phase.batches += stats.batches as u64;
            self.buf.turn_ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
        }
        if !self.ended {
            self.phase.poll_ns += wall_ns;
        }
        if let Some(trace) = self.trace.as_deref_mut() {
            if tracing {
                let span =
                    trace.spans.record(self.turn.into(), ROOT, "reactor.poll", started, wall_ns, 1);
                let stats = [stats.frames, stats.served, stats.shed, stats.batches];
                trace.spans.set_stats(span, stats.map(|n| n as u32));
            }
            if was_open && trace.replay_open {
                trace.turns.push(TurnRec {
                    arrivals: arrivals_from..trace.arrivals.len(),
                    answered: answered_from..trace.answered.len(),
                    poll_ns: wall_ns,
                });
            } else if was_open {
                // The turn that sent the first request beyond the
                // replayed part is not replayed.
                trace.arrivals.truncate(arrivals_from);
                trace.answered.truncate(answered_from);
            } else if self.measuring {
                let index = now / TRACE_SLICE_NS;
                let (open, was_traced, slice_ns, responses) = trace.slice;
                if index != open {
                    if responses > 0 {
                        trace.slices.push((was_traced, slice_ns as f64 / responses as f64));
                    }
                    trace.slice = (index, tracing, 0, 0);
                }
                trace.slice.2 += wall_ns;
                trace.slice.3 += answered;
            }
        }
        self.turn += 1;
        Ok(ns)
    }

    fn end_measured_phase(&mut self, server: &StoreServer<'_>) {
        self.measuring = false;
        self.ended = true;
        self.phase.measure_to = self.clock.now();
        self.phase.heap_to = sys::heap_in_use();
        self.phase.minor_faults =
            self.faults_from.zip(sys::thread_minor_faults()).map(|(from, to)| to - from);
        self.phase.loop_ns = u64::try_from(self.loop_started.elapsed().as_nanos()).unwrap_or(0);
        self.phase.requests = self.next_id;
        if let Some(trace) = self.trace.as_deref_mut() {
            let started = Instant::now();
            let scrape = server.scrape();
            std::hint::black_box(encode_prometheus(&scrape));
            trace.scrape_us = started.elapsed().as_secs_f64() * 1e6;
            trace.scrape_to = Some(scrape);
        }
    }

    /// Runs turns until the phase has ended and every request has been
    /// answered.
    fn run(
        &mut self,
        server: &mut StoreServer<'_>,
        conns: &mut [Conn],
        mut checkpointer: Option<Checkpointer<'_>>,
    ) -> Result<(), String> {
        loop {
            // SeqCst: the flag brackets a checkpoint for this thread's
            // stall accounting; it publishes no other data.
            let overlapped = |c: &Option<Checkpointer<'_>>| {
                c.as_ref().is_some_and(|c| c.running.load(Ordering::SeqCst))
            };
            let before = overlapped(&checkpointer);
            self.reference.tick();
            let ns = self.turn(server, conns)?;
            if before || overlapped(&checkpointer) {
                self.phase.stall_ns_max = self.phase.stall_ns_max.max(ns);
            }
            if let Some(c) = &mut checkpointer {
                let due = self.guest_responses / c.every;
                if due > c.started && self.guest_responses < c.end {
                    c.started = due;
                    c.running.store(true, Ordering::SeqCst);
                    c.start.send(()).map_err(|_| "checkpoint helper is gone".to_string())?;
                }
            }
            let all_answered = self.outstanding == [0, 0];
            match self.closed_quota {
                None => {
                    if all_answered && self.sched.bounded_done() {
                        self.end_measured_phase(server);
                        return Ok(());
                    }
                }
                Some(quota) => {
                    if self.measure_from.is_none() && self.guest_responses >= self.warmup {
                        self.measure_from = Some(self.clock.now());
                    }
                    if !self.ended && self.guest_responses >= quota {
                        self.end_measured_phase(server);
                        self.sched.stop_vips();
                    }
                    if self.ended && all_answered {
                        return Ok(());
                    }
                }
            }
            if all_answered {
                if let Some((due, _)) = self.sched.peek() {
                    self.clock.skip_idle_until(due);
                }
            }
        }
    }
}

/// Reads every key back through VIP connection 0, one frame of
/// [`READBACK_KEYS`] `Get`s per turn.
fn read_back(
    wl: &Workload,
    server: &mut StoreServer<'_>,
    conn: &mut Conn,
) -> Result<Vec<u64>, String> {
    let mut finals = Vec::with_capacity(wl.keys as usize);
    let mut scratch = Vec::new();
    let mut from = 0;
    while from < wl.keys {
        let to = (from + READBACK_KEYS).min(wl.keys);
        let ops = (from..to).map(|key| OpSpec::Get { key }.to_op()).collect();
        let id = HARNESS_ID_BASE + u64::from(from);
        conn.end.send(&encode_request(id, &Request::new(ops).credential(credential(wl, 0))));
        server.poll();
        let before = finals.len();
        conn.drain(&mut scratch, |got, _, results| {
            if got != id || results.len() != (to - from) as usize {
                return Err(format!("read-back of keys {from}..{to} answered out of turn"));
            }
            for (key, result) in (from..to).zip(results) {
                match result {
                    Ok(StoreResp::Value(Some(v))) => finals.push(v),
                    other => return Err(format!("read-back of key {key} returned {other:?}")),
                }
            }
            Ok(())
        })?;
        if finals.len() - before != (to - from) as usize {
            return Err(format!("read-back of keys {from}..{to} was not answered"));
        }
        from = to;
    }
    Ok(finals)
}

/// Drives `wl` against `server` to the end of its phase, reads every key
/// back and, on the durable workload, crashes the WAL.
#[allow(clippy::too_many_arguments)]
pub fn drive(
    wl: &'static Workload,
    seed: u64,
    scale: f64,
    store: &Store,
    server: &mut StoreServer<'_>,
    mut conns: Vec<Conn>,
    durable: Option<&Durable>,
    buf: &mut Buffers,
    trace: Option<&mut Trace>,
    reference: &mut Reference,
) -> Result<Phase, String> {
    let (warmup, closed_quota, guest_target, pipelined) = match wl.guest.load {
        Load::Open { requests, .. } => (
            (wl.total_requests(scale) as f64 * WARMUP_SHARE) as u64,
            None,
            requests.map_or(u64::MAX, |n| scaled(n, scale)),
            0,
        ),
        Load::Closed { responses, pipeline } => {
            let quota = scaled(responses, scale);
            ((quota as f64 * WARMUP_SHARE) as u64, Some(quota), quota, pipeline)
        }
    };
    let mut resend = Vec::with_capacity(pipelined * wl.guest.conns + 64);
    for conn in wl.vip.conns..wl.conns() {
        resend.extend(std::iter::repeat_n(conn, pipelined));
    }
    let mut d = Driver {
        gen: Generator::new(wl, seed),
        sched: Schedule::new(wl, seed, scale),
        clock: ReactorClock::default(),
        buf,
        trace,
        reference,
        phase: Phase::default(),
        next_id: 0,
        outstanding: [0; 2],
        turn: 0,
        resend,
        warmup,
        closed_quota,
        guest_responses: 0,
        measure_from: None,
        measuring: false,
        ended: false,
        scratch: Vec::with_capacity(1 << 20),
        faults_from: None,
        loop_started: Instant::now(),
    };

    let running = AtomicBool::new(false);
    let checkpoint_ms: Mutex<Vec<f64>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| -> Result<(), String> {
        // The durable workload's checkpoint helper: the only thread the
        // harness starts.
        let helper = durable.map(|durable| {
            let (start, starts) = mpsc::channel::<()>();
            let (running, checkpoint_ms) = (&running, &checkpoint_ms);
            let handle = scope.spawn(move || -> Result<(), String> {
                for () in starts {
                    let started = Instant::now();
                    let outcome = durable.persister.persist(store);
                    let ms = started.elapsed().as_secs_f64() * 1e3;
                    checkpoint_ms.lock().expect("checkpoint log poisoned").push(ms);
                    running.store(false, Ordering::SeqCst);
                    outcome.map_err(|e| format!("checkpoint: {e}"))?;
                }
                Ok(())
            });
            let every = scaled(CHECKPOINT_EVERY, scale);
            (Checkpointer { start, running, every, end: guest_target, started: 0 }, handle)
        });
        let (checkpointer, handle) = helper.map_or((None, None), |(c, h)| (Some(c), Some(h)));
        // `run` drops the checkpointer, which lets the helper finish
        // what it was asked for and end, whether or not the run succeeded.
        let driven = d.run(server, &mut conns, checkpointer);
        if let Some(handle) = handle {
            handle.join().map_err(|_| "checkpoint helper panicked".to_string())??;
        }
        driven
    })?;

    d.phase.finals = read_back(wl, server, &mut conns[0])?;
    d.phase.replay_steps = store.replay_steps();
    d.phase.checkpoint_ms = checkpoint_ms.into_inner().expect("checkpoint log poisoned");
    if let Some(durable) = durable {
        durable.wal.simulate_crash();
    }
    Ok(d.phase)
}
