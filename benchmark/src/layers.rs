//! The layer replay of a traced run: the leading requests of the same
//! stream pushed through every layer's public functions one call at a
//! time, with a span around each call.
//!
//! The first pass of a traced run records, per reactor turn, which
//! requests arrived and which were answered. The replay builds a second,
//! identical store and repeats those turns without the reactor: the
//! server side of a pipe, the codec and the store's request arms are
//! called directly, in the reactor's order, so that their spans can be
//! set against the time `poll()` took for the same frames. What a store
//! call did inside itself is priced by repeating it on stand-alone
//! pieces — a topology, one log per shard, one map per shard, a WAL —
//! right after the call returns. Every response the replay encodes is
//! compared with the one the reactor sent.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use apc_net::codec::FRAME_OVERHEAD;
use apc_net::{
    decode_message, encode_response, sim_pair, ConnEnd, FrameReader, Message, ServerConfig,
    StoreServer,
};
use apc_store::wal::resolved_effects;
use apc_store::{
    apply_op, Batch, ClientTicket, DurabilityClass, Request, Response, ShardCmd, ShardLog,
    ShardSpec, ShardState, ShardTopology, Store, StoreBuilder, StoreError, StoreOp, TierCredential,
    Wal, WalConfig, WalFrame,
};
use apc_universal::{AsymmetricFactory, OwnedHandle};

use crate::check::Outcome;
use crate::driver::Trace;
use crate::spans::{self_times, Span, SpanLog, ROOT};
use crate::stats::median;
use crate::stream::{fnv1a, key_name, preload_value, Tier, Workload};
use crate::world::{build_store, setup_request};

/// The wire's retry-budget cap (`ServerConfig::wire_retry_budget_cap`).
fn budget_cap() -> u32 {
    ServerConfig::default().wire_retry_budget_cap
}

/// Idle connections of the sweep that prices a turn over a mostly idle
/// connection table.
const IDLE_CONNS: usize = 4096;
const IDLE_POLLS: usize = 30;
/// Single guest requests that price `Client::request_guest`, which the
/// batching reactor never takes.
const GUEST_SINGLES: u32 = 2000;

/// The pieces a store call is repeated on.
struct Standalone {
    topology: ShardTopology,
    logs: Vec<OwnedHandle<ShardSpec, AsymmetricFactory>>,
    maps: Vec<ShardState>,
    wal: Option<Arc<Wal>>,
    /// Per store call: `router.plan` + `router.reassemble` per envelope.
    plan_ns: Vec<f64>,
    shards_touched: u64,
}

impl Standalone {
    fn new(wl: &Workload, store: &Store, dir: &Path) -> Result<Standalone, String> {
        let topology = store.topology();
        let ports = store.admission().ports();
        let logs = (0..topology.shards())
            .map(|s| {
                let node = topology.node(s);
                let spec = ShardSpec { seed: node.seed, created_at: node.created_at };
                let log =
                    Arc::new(ShardLog::new(spec, AsymmetricFactory::new(store.spec()), ports));
                log.owned_handle(0).map_err(|e| format!("stand-alone log: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let wal = if wl.durable {
            let cfg = WalConfig { background_flusher: false, ..WalConfig::default() };
            Some(Wal::open(dir.join("standalone-wal"), cfg).map_err(|e| format!("WAL: {e}"))?)
        } else {
            None
        };
        let mut alone = Standalone {
            maps: vec![ShardState::new(); topology.shards()],
            topology,
            logs,
            wal,
            plan_ns: Vec::new(),
            shards_touched: 0,
        };
        // The same contents as the store's shards: every preloaded key.
        let version = alone.topology.version();
        let preload: Vec<StoreOp> =
            (0..wl.keys).map(|k| StoreOp::Put(key_name(k), preload_value(k))).collect();
        let (subs, _) = alone.topology.plan(preload).into_sub_batches();
        for (s, sub) in subs.into_iter().enumerate() {
            for op in &sub {
                apply_op(&mut alone.maps[s], op);
            }
            alone.logs[s].apply(ShardCmd::Batch(Batch::new(version, sub)));
        }
        Ok(alone)
    }

    /// Repeats what a store call over `ops` (from `envelopes` requests)
    /// did inside itself, each piece as a stand-alone child of the
    /// call's span.
    fn repeat(
        &mut self,
        spans: &mut SpanLog,
        trace: u64,
        call: u32,
        ops: Vec<StoreOp>,
        envelopes: usize,
        durability: DurabilityClass,
    ) {
        let version = self.topology.version();
        let topology = &self.topology;
        let ((subs, reassembly), plan) =
            spans.time(trace, call, "router.plan", 1, || topology.plan(ops).into_sub_batches());
        let mut per_shard = Vec::with_capacity(subs.len());
        for (s, sub) in subs.into_iter().enumerate() {
            if sub.is_empty() {
                per_shard.push(Vec::new());
                continue;
            }
            self.shards_touched += 1;
            let batch = Batch::new(version, sub);
            let sub = Arc::clone(&batch.ops);
            let log = &mut self.logs[s];
            let (resps, append) = spans
                .time(trace, call, "universal.append", 1, || log.apply(ShardCmd::Batch(batch)));
            for op in sub.iter() {
                let name = match op {
                    StoreOp::Get(_) => "ops.apply_get",
                    StoreOp::Scan { .. } => "ops.apply_scan",
                    _ => "ops.apply_put",
                };
                let map = &mut self.maps[s];
                spans.time(trace, append, name, 1, || apply_op(map, op));
            }
            if let Some(wal) = &self.wal {
                let effects = resolved_effects(&sub, &resps);
                if !effects.is_empty() {
                    let frame = WalFrame {
                        epoch: 0,
                        shard: s as u32,
                        cell: self.logs[s].replayed_cells(),
                        class: durability,
                        effects,
                    };
                    spans.time(trace, call, "wal.enqueue", 1, || wal.enqueue(&frame));
                }
            }
            per_shard.push(resps);
        }
        let (_, reassemble) =
            spans.time(trace, call, "router.reassemble", 1, || reassembly.reassemble(per_shard));
        if let (Some(wal), DurabilityClass::Sync) = (&self.wal, durability) {
            let (synced, _) = spans.time(trace, call, "wal.sync", 1, || wal.sync());
            // The stand-alone WAL only prices the call; its contents are
            // never read back.
            let _ = synced;
        }
        let ns = |id: u32| spans.spans()[id as usize - 1].ns() as f64;
        self.plan_ns.push((ns(plan) + ns(reassemble)) / envelopes as f64);
    }
}

/// What the replay measured, as per-layer metric values.
pub struct Replayed {
    pub metrics: Vec<(&'static str, f64)>,
    /// Responses the replay encoded differently from the reactor: must
    /// be 0 for the replay to stand for the reactor's work.
    pub mismatches: u64,
    pub requests: u64,
}

/// One pipe per connection, as the reactor holds them.
struct Pipes {
    client: Vec<ConnEnd>,
    server: Vec<ConnEnd>,
    readers: Vec<FrameReader>,
}

/// Replays the leading turns `trace` recorded.
pub fn replay(wl: &'static Workload, trace: &mut Trace, dir: &Path) -> Result<Replayed, String> {
    let (store, durable) = build_store(wl, &dir.join("replay"))?;
    let spans = &mut trace.spans;
    let replay_from = spans.spans().len();

    // Admission in the reactor's order: its own batch session, then one
    // ticket per connection.
    let batch_ticket = store.admit_guest();
    let mut tickets: Vec<ClientTicket> = Vec::with_capacity(wl.conns());
    for conn in 0..wl.conns() {
        let (ticket, _) =
            spans.time(conn as u64, ROOT, "admission.admit", 1, || match wl.tier_of(conn) {
                Tier::Vip => store.admit_vip().map_err(|e| format!("admission: {e}")),
                Tier::Guest => Ok(store.admit_guest()),
            });
        tickets.push(ticket?);
    }
    let mut pipes = Pipes { client: Vec::new(), server: Vec::new(), readers: Vec::new() };
    for _ in 0..wl.conns() {
        let (client, server) = sim_pair();
        pipes.client.push(client);
        pipes.server.push(server);
        pipes.readers.push(FrameReader::new());
    }
    // The set-up requests, so that every port has replayed the preload.
    let wire = |mut req: Request, ticket: &ClientTicket| {
        req.retry_budget = req.retry_budget.min(budget_cap());
        req.credential = TierCredential::for_ticket(ticket);
        req
    };
    for (conn, ticket) in tickets.iter().enumerate().take(wl.vip.conns) {
        store.client(*ticket).request_vip(wire(setup_request(wl, conn).request(), ticket));
    }
    let setups = (wl.vip.conns..wl.conns())
        .map(|conn| wire(setup_request(wl, conn).request(), &batch_ticket))
        .collect();
    store.client(batch_ticket).request_guest_many(setups);

    let mut alone = Standalone::new(wl, &store, dir)?;
    let n = trace.replay_requests as usize;
    let mut decoded: Vec<Option<Request>> = vec![None; n];
    let mut arrived_in: Vec<u32> = vec![0; n];
    let mut roots: Vec<u32> = vec![0; n];
    let (mut scratch, mut sink) = (Vec::new(), Vec::new());
    let (mut mismatches, mut requests, mut poll_ns) = (0u64, 0u64, 0u64);

    for (turn, rec) in trace.turns.iter().enumerate() {
        poll_ns += rec.poll_ns;

        // Ingest: the client sends, the server side drains each
        // connection once and decodes its frames.
        // Per connection with arrivals, in connection order: its first
        // arrival and how many frames it got.
        let mut touched: BTreeMap<usize, (u64, u32)> = BTreeMap::new();
        for &id in &trace.arrivals[rec.arrivals.clone()] {
            let spec = trace.specs[id as usize];
            pipes.client[usize::from(spec.conn)].send(&spec.encode(id));
            arrived_in[id as usize] = turn as u32;
            roots[id as usize] = spans.open_root(id, "request");
            touched.entry(spec.conn.into()).or_insert((id, 0)).1 += 1;
            requests += 1;
        }
        for (conn, (first, frames)) in touched {
            let (server, reader) = (&pipes.server[conn], &mut pipes.readers[conn]);
            scratch.clear();
            spans.time(first, roots[first as usize], "conn.pipe", frames, || {
                server.drain_into(&mut scratch);
                reader.push(&scratch);
            });
            for _ in 0..frames {
                let started = Instant::now();
                let payload = reader.next_payload().map_err(|e| format!("replay frame: {e}"))?;
                let message = payload.as_deref().map(decode_message);
                let ns = started.elapsed().as_nanos() as u64;
                let Some(Ok(Message::Request { id, req })) = message else {
                    return Err(format!("replay: connection {conn} did not yield a request"));
                };
                spans.record(id, roots[id as usize], "codec.decode", started, ns, 1);
                decoded[id as usize] = Some(req);
            }
        }

        // Serve, in the reactor's order: every VIP request, then the
        // shed guests, then the guests dispatched as one batch.
        let answered = &trace.answered[rec.answered.clone()];
        let mut respond = |spans: &mut SpanLog, id: u64, results: &[apc_net::WireResult]| {
            let root = roots[id as usize];
            let (frame, _) =
                spans.time(id, root, "codec.encode", 1, || encode_response(id, results));
            let conn = usize::from(trace.specs[id as usize].conn);
            spans.time(id, root, "conn.pipe", 1, || pipes.server[conn].send(&frame));
            let payload = &frame[4..frame.len() - (FRAME_OVERHEAD - 4)];
            if fnv1a(payload) != trace.response_hash[id as usize] {
                mismatches += 1;
            }
            sink.clear();
            pipes.client[conn].drain_into(&mut sink);
        };
        let take = |decoded: &mut Vec<Option<Request>>, id: u64| {
            decoded[id as usize]
                .take()
                .ok_or(format!("replay: request {id} answered before it arrived"))
        };

        let mut vips: Vec<u64> = answered
            .iter()
            .filter(|(id, _)| trace.specs[*id as usize].tier == Tier::Vip)
            .map(|(id, _)| *id)
            .collect();
        vips.sort_unstable_by_key(|&id| (trace.specs[id as usize].conn, id));
        for id in vips {
            let spec = trace.specs[id as usize];
            let ticket = tickets[usize::from(spec.conn)];
            let req = wire(take(&mut decoded, id)?, &ticket);
            let (ops, durability) = (req.ops.clone(), req.durability);
            let mut client = store.client(ticket);
            let (resp, call) =
                spans.time(id, roots[id as usize], "store.request_vip", 1, || match durability {
                    DurabilityClass::Sync => client.request(req),
                    DurabilityClass::Group => client.request_vip(req),
                });
            alone.repeat(spans, id, call, ops, 1, durability);
            respond(spans, id, &resp.results);
        }

        for &(id, outcome) in answered {
            if outcome == Outcome::Shed {
                let req = take(&mut decoded, id)?;
                let err = StoreError::RetryBudgetExhausted { budget: req.retry_budget };
                respond(spans, id, &Response::fail_all(req.ops.len(), err).results);
            }
        }

        let mut batch: Vec<u64> = answered
            .iter()
            .filter(|(id, o)| *o != Outcome::Shed && trace.specs[*id as usize].tier == Tier::Guest)
            .map(|(id, _)| *id)
            .collect();
        if !batch.is_empty() {
            // The backlog is first in, first out, and a turn's arrivals
            // join it in connection order.
            batch.sort_unstable_by_key(|&id| {
                (arrived_in[id as usize], trace.specs[id as usize].conn, id)
            });
            let reqs = batch
                .iter()
                .map(|&id| Ok(wire(take(&mut decoded, id)?, &batch_ticket)))
                .collect::<Result<Vec<Request>, String>>()?;
            let ops: Vec<StoreOp> = reqs.iter().flat_map(|r| r.ops.iter().cloned()).collect();
            let first = batch[0];
            let mut client = store.client(batch_ticket);
            let (resps, call) = spans.time(
                first,
                roots[first as usize],
                "store.request_many",
                batch.len() as u32,
                || client.request_guest_many(reqs),
            );
            alone.repeat(spans, first, call, ops, batch.len(), DurabilityClass::Group);
            for (&id, resp) in batch.iter().zip(&resps) {
                respond(spans, id, &resp.results);
            }
        }
    }
    spans.close_roots();

    // `Client::request_guest`, which the batching reactor never takes.
    let mut single = store.client(tickets[wl.vip.conns]);
    for i in 0..GUEST_SINGLES {
        let req =
            Request::new(vec![StoreOp::Get(key_name(i % wl.keys))]).retry_budget(budget_cap());
        spans.time(u64::from(i), ROOT, "store.request_guest", 1, || single.request_guest(req));
    }
    let idle_ns_per_conn = idle_sweep(spans)?;

    drop(durable);

    let replayed = &spans.spans()[replay_from..];
    let selfs = self_times(spans.spans());
    let is_request_child = |s: &Span| s.parent != ROOT && replayed_root(spans.spans(), s);
    let mut top_level_ns = 0u64;
    let mut ledger_ns = 0u64;
    let mut store_self_ns = 0u64;
    for (i, s) in spans.spans().iter().enumerate().skip(replay_from) {
        if !is_request_child(s) {
            continue;
        }
        ledger_ns += selfs[i];
        if spans.spans()[s.parent as usize - 1].name == "request" {
            top_level_ns += s.ns();
        }
        if s.name.starts_with("store.") {
            store_self_ns += selfs[i];
        }
    }
    let per_request = |ns: f64| if requests == 0 { 0.0 } else { ns / requests as f64 };
    let med = |name: &str| crate::spans::median_ns(replayed, name);
    let plan_ns = if alone.plan_ns.is_empty() { 0.0 } else { median(&mut alone.plan_ns) };
    let metrics = vec![
        ("codec.decode_ns", med("codec.decode")),
        ("codec.encode_ns", med("codec.encode")),
        ("conn.pipe_ns", med("conn.pipe")),
        ("reactor.self_ns_per_req", per_request(poll_ns as f64 - top_level_ns as f64)),
        ("reactor.idle_sweep_ns_per_conn", idle_ns_per_conn),
        ("admission.admit_ns", med("admission.admit")),
        ("router.plan_ns", plan_ns),
        ("router.shards_per_req", per_request(alone.shards_touched as f64)),
        ("store.request_vip_ns", med("store.request_vip")),
        ("store.request_guest_ns", med("store.request_guest")),
        ("store.request_many_ns_per_env", med("store.request_many")),
        ("store.self_ns_per_req", per_request(store_self_ns as f64)),
        ("universal.append_ns", med("universal.append")),
        ("ops.apply_get_ns", med("ops.apply_get")),
        ("ops.apply_put_ns", med("ops.apply_put")),
        ("ops.apply_scan_ns", med("ops.apply_scan")),
        ("wal.enqueue_ns", med("wal.enqueue")),
        ("wal.sync_us", med("wal.sync") / 1e3),
        (
            "harness.ledger_gap_pct",
            if poll_ns == 0 {
                0.0
            } else {
                (ledger_ns as f64 - poll_ns as f64).abs() / poll_ns as f64 * 100.0
            },
        ),
    ];
    Ok(Replayed { metrics, mismatches, requests })
}

/// True when span `s` descends from a per-request root.
fn replayed_root(spans: &[Span], s: &Span) -> bool {
    let mut at = s;
    while at.parent != ROOT {
        at = &spans[at.parent as usize - 1];
    }
    at.name == "request"
}

/// Times `poll()` over [`IDLE_CONNS`] handshaken connections with no
/// traffic: what a turn pays per connection just for looking.
fn idle_sweep(spans: &mut SpanLog) -> Result<f64, String> {
    let store = StoreBuilder::new().build().map_err(|e| format!("idle store: {e}"))?;
    let mut server = StoreServer::new(&store, ServerConfig::default());
    let ends: Vec<ConnEnd> = (0..IDLE_CONNS)
        .map(|_| {
            let end = server.connect();
            end.send(&apc_net::encode_hello(&TierCredential::Guest));
            end
        })
        .collect();
    server.poll();
    let mut per_conn = Vec::with_capacity(IDLE_POLLS);
    for turn in 0..IDLE_POLLS {
        let (stats, id) =
            spans
                .time(turn as u64, ROOT, "reactor.idle_sweep", IDLE_CONNS as u32, || server.poll());
        if stats.frames != 0 {
            return Err("idle sweep saw traffic".to_string());
        }
        per_conn.push(spans.spans()[id as usize - 1].ns() as f64 / IDLE_CONNS as f64);
    }
    drop(ends);
    Ok(median(&mut per_conn))
}
