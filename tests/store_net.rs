//! Integration tests for the wire front-end: the net scenario family.
//!
//! The acceptance scenarios: handshake and request/response on both
//! tiers, guest overload answered with typed backpressure while the VIP
//! tier stays served, a 10k-connection smoke,
//! the `GET /metrics` listener, and wrapper-vs-envelope equivalence.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use asymmetric_progress::net::codec::{KIND_HELLO, KIND_REQUEST, KIND_RESPONSE};
use asymmetric_progress::net::{
    NetClient, ServerConfig, StoreServer, WireResult, MAX_WIRE_LIST, MAX_WIRE_PAYLOAD,
};
use asymmetric_progress::store::persist::Persister;
use asymmetric_progress::store::wal::{Wal, WalConfig};
use asymmetric_progress::store::{
    DurabilityClass, ElasticDecision, ElasticEngine, ElasticityPolicy, Request, SampleValue,
    StoreBuilder, StoreError, StoreOp, StoreResp, TierCredential, SEAL_EVERY, SEAL_PERIOD,
};

const VIP_TOKEN: u64 = 0xbeef;

fn server_cfg(guest_cap: usize) -> ServerConfig {
    ServerConfig {
        vip_tokens: vec![VIP_TOKEN],
        guest_dispatch_per_poll: guest_cap,
        ..ServerConfig::default()
    }
}

/// Polls until the client has at least one response (bounded turns).
fn poll_until(
    server: &mut StoreServer<'_>,
    client: &mut NetClient,
) -> Vec<(u64, Vec<Result<StoreResp, StoreError>>)> {
    for _ in 0..64 {
        server.poll();
        let got = client.drain().expect("clean wire");
        if !got.is_empty() {
            return got;
        }
    }
    panic!("no response after 64 reactor turns");
}

#[test]
fn net_handshake_and_roundtrip_both_tiers() {
    let store = StoreBuilder::new().shards(2).vip_capacity(1).build().unwrap();
    let mut server = StoreServer::new(&store, server_cfg(256));

    let mut vip = NetClient::connect(&mut server, TierCredential::Vip { token: VIP_TOKEN });
    let mut guest = NetClient::connect(&mut server, TierCredential::Guest);

    let id = vip.send(
        &Request::new(vec![StoreOp::Put("net/epoch".into(), 7), StoreOp::Get("net/epoch".into())])
            .credential(TierCredential::Vip { token: VIP_TOKEN })
            .retry_budget(8),
    );
    let got = poll_until(&mut server, &mut vip);
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].0, id, "response correlates by request id");
    assert_eq!(got[0].1[1], Ok(StoreResp::Value(Some(7))));

    let id = guest.send(
        &Request::new(vec![StoreOp::Get("net/epoch".into())])
            .credential(TierCredential::Guest)
            .retry_budget(8),
    );
    let got = poll_until(&mut server, &mut guest);
    assert_eq!(got[0].0, id);
    assert_eq!(got[0].1[0], Ok(StoreResp::Value(Some(7))), "guest reads the VIP write");
}

/// The acceptance scenario: guests flooding past the per-turn dispatch cap
/// are shed with typed `RetryBudgetExhausted` — never blocked — while every
/// VIP request in the same turn is served (no VIP 429s, bounded turns).
#[test]
fn net_guest_overload_sheds_typed_while_vip_is_served() {
    let store = StoreBuilder::new().shards(2).vip_capacity(1).build().unwrap();
    let cap = 8usize;
    // No backlog (`guest_queue_depth: 0`) is what this scenario is about:
    // overflow sheds in the arrival turn, not after queueing.
    let mut server =
        StoreServer::new(&store, ServerConfig { guest_queue_depth: 0, ..server_cfg(cap) });

    let mut vip = NetClient::connect(&mut server, TierCredential::Vip { token: VIP_TOKEN });
    let mut guests: Vec<NetClient> =
        (0..cap * 4).map(|_| NetClient::connect(&mut server, TierCredential::Guest)).collect();
    server.poll(); // handshakes

    // Everyone submits in the same reactor turn.
    for (g, guest) in guests.iter_mut().enumerate() {
        guest.send(
            &Request::new(vec![StoreOp::Put(format!("flood/{g}"), g as u64)])
                .credential(TierCredential::Guest)
                .retry_budget(4),
        );
    }
    vip.send(
        &Request::new(vec![StoreOp::Put("vip/alive".into(), 1)])
            .credential(TierCredential::Vip { token: VIP_TOKEN })
            .retry_budget(4),
    );
    let stats = server.poll();

    // The VIP answer is served this very turn, successfully.
    let got = vip.drain().expect("clean wire");
    assert_eq!(got.len(), 1, "VIP served in the overload turn");
    assert!(got[0].1.iter().all(|r| r.is_ok()), "no VIP 429 under guest flood: {got:?}");

    // Exactly `cap` guests were served; the rest got the typed 429.
    assert_eq!(stats.shed, cap * 3, "overflow beyond the cap is shed");
    let mut served = 0usize;
    let mut shed = 0usize;
    for guest in &mut guests {
        for (_, results) in guest.drain().expect("clean wire") {
            match &results[0] {
                Ok(StoreResp::Value(_)) => served += 1,
                Err(StoreError::RetryBudgetExhausted { budget }) => {
                    assert_eq!(*budget, 4, "the 429 echoes the request's budget");
                    shed += 1;
                }
                other => panic!("unexpected guest result: {other:?}"),
            }
        }
    }
    assert_eq!((served, shed), (cap, cap * 3));

    // The scrape agrees: sheds are guest-only.
    let snap = server.scrape();
    assert_eq!(snap.value("store_net_backpressure_shed_total", &[("tier", "vip")]), Some(0));
    assert_eq!(
        snap.value("store_net_backpressure_shed_total", &[("tier", "guest")]),
        Some(cap as u64 * 3)
    );

    // Shed guests retry and eventually land — backpressure is recoverable.
    let mut landed = 0usize;
    for round in 0..8 {
        for (g, guest) in guests.iter_mut().enumerate() {
            guest.send(
                &Request::new(vec![StoreOp::Put(format!("retry/{round}/{g}"), 1)])
                    .credential(TierCredential::Guest)
                    .retry_budget(4),
            );
        }
        server.poll();
        for guest in &mut guests {
            for (_, results) in guest.drain().expect("clean wire") {
                if results[0].is_ok() {
                    landed += 1;
                }
            }
        }
    }
    assert!(landed >= cap * 8, "retries make progress: {landed}");

    // Even after the retry storm, the VIP tier has shed nothing.
    let snap = server.scrape();
    assert_eq!(snap.value("store_net_backpressure_shed_total", &[("tier", "vip")]), Some(0));
}

/// 10k concurrent connections multiplexed by one reactor: every one
/// completes a pipelined two-request exchange.
#[test]
fn net_ten_thousand_connections_smoke() {
    let store = StoreBuilder::new().shards(4).vip_capacity(1).build().unwrap();
    let mut server = StoreServer::new(&store, server_cfg(4_096));

    let mut conns: Vec<NetClient> =
        (0..10_000).map(|_| NetClient::connect(&mut server, TierCredential::Guest)).collect();
    assert_eq!(server.conn_count(), 10_000);

    // Pipelining: both requests go out before any response is read.
    for (c, conn) in conns.iter_mut().enumerate() {
        conn.send(
            &Request::new(vec![StoreOp::Put(format!("smoke/{c}"), c as u64)])
                .credential(TierCredential::Guest)
                .retry_budget(8),
        );
        conn.send(
            &Request::new(vec![StoreOp::Get(format!("smoke/{c}"))])
                .credential(TierCredential::Guest)
                .retry_budget(8),
        );
    }
    let mut done = vec![0usize; conns.len()];
    for _ in 0..64 {
        server.poll();
        for (c, conn) in conns.iter_mut().enumerate() {
            for (_, results) in conn.drain().expect("clean wire") {
                match &results[0] {
                    Ok(StoreResp::Value(None)) => done[c] += 1,
                    Ok(StoreResp::Value(v)) => {
                        assert_eq!(*v, Some(c as u64), "conn {c} reads its own write");
                        done[c] += 1;
                    }
                    Err(StoreError::RetryBudgetExhausted { .. }) => {
                        // Typed backpressure: resend the read.
                        conn.send(
                            &Request::new(vec![StoreOp::Get(format!("smoke/{c}"))])
                                .credential(TierCredential::Guest)
                                .retry_budget(8),
                        );
                    }
                    other => panic!("conn {c}: unexpected result {other:?}"),
                }
            }
        }
        if done.iter().all(|&d| d >= 2) {
            break;
        }
    }
    assert!(done.iter().all(|&d| d >= 2), "every connection completed its exchange");
    assert_eq!(
        server.scrape().value("store_net_conns_accepted_total", &[("tier", "guest")]),
        Some(10_000)
    );
}

/// A plain HTTP `GET /metrics` on a fresh connection: the reply, whose
/// status must be 200, and after which the connection must be closed.
fn get_metrics(server: &mut StoreServer<'_>) -> String {
    let http = server.connect();
    http.send(b"GET /metrics HTTP/1.1\r\nHost: sim\r\n\r\n");
    server.poll();
    let mut body = Vec::new();
    http.drain_into(&mut body);
    let text = String::from_utf8(body).expect("utf-8 exposition");
    assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "served: {}", &text[..40.min(text.len())]);
    assert!(http.is_closed(), "the HTTP connection closes after the reply");
    text
}

/// The listener doubles as the observability endpoint: a plain HTTP `GET
/// /metrics` on a fresh connection returns the merged store+net scrape.
#[test]
fn net_http_metrics_lists_net_series() {
    let store = StoreBuilder::new().shards(2).vip_capacity(1).build().unwrap();
    let mut server = StoreServer::new(&store, server_cfg(64));

    let mut guest = NetClient::connect(&mut server, TierCredential::Guest);
    guest.send(
        &Request::new(vec![StoreOp::Put("probe".into(), 1)])
            .credential(TierCredential::Guest)
            .retry_budget(4),
    );
    poll_until(&mut server, &mut guest);

    let text = get_metrics(&mut server);
    for series in [
        "store_net_conns_accepted_total",
        "store_net_requests_total",
        "store_net_request_latency_ns",
        "store_net_http_metrics_hits_total",
        "store_commits_total", // the store scrape is merged in
    ] {
        assert!(text.contains(series), "exposition must carry {series}");
    }
}

/// A WAL-backed store scrapes its own WAL: the durable server's `GET
/// /metrics` carries the `store_wal_*` series, and the server's scrape
/// merged with its persister's lists every series exactly once.
#[test]
fn durable_server_metrics_carry_the_wal_series_once() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("store-net-wal-series");
    let _ = std::fs::remove_dir_all(&dir);
    let wal = Wal::open(dir.join("wal"), WalConfig::default()).expect("fresh wal");
    let store = StoreBuilder::new().shards(2).build_with_wal(Arc::clone(&wal)).unwrap();
    let persister = Persister::new(dir.join("store.snapshot")).with_wal(wal);
    let mut server = StoreServer::new(&store, server_cfg(64));

    let mut guest = NetClient::connect(&mut server, TierCredential::Guest);
    guest.send(
        &Request::new(vec![StoreOp::Put("durable".into(), 1)])
            .credential(TierCredential::Guest)
            .retry_budget(4),
    );
    poll_until(&mut server, &mut guest);

    let text = get_metrics(&mut server);
    assert!(
        text.contains("store_wal_appends_total{class=\"group\"} 1"),
        "a durable server's exposition must carry the WAL's group appends"
    );

    let mut scrape = server.scrape();
    scrape.merge(persister.scrape());
    let mut seen = BTreeSet::new();
    for sample in &scrape.samples {
        assert!(
            seen.insert((sample.name, sample.labels.clone())),
            "{} {:?} is scraped twice",
            sample.name,
            sample.labels
        );
    }
}

/// `execute` and `get` are sugar over the envelope: both paths must
/// produce identical results and identical store state.
#[test]
fn net_wrappers_and_envelope_agree() {
    let store = StoreBuilder::new().shards(2).vip_capacity(2).build().unwrap();

    let mut sugar = store.client(store.admit_vip().unwrap());
    let mut envelope = store.client(store.admit_vip().unwrap());

    // Wrapper path.
    let w1 = sugar.execute(vec![StoreOp::Put("wrap/a".into(), 1)]);
    let w2 = sugar.get("wrap/a");
    // Envelope path, same shape.
    let e1 = envelope.request(
        Request::new(vec![StoreOp::Put("env/a".into(), 1)])
            .credential(envelope.credential())
            .durability(DurabilityClass::Group),
    );
    let e2 = envelope.request(
        Request::new(vec![StoreOp::Get("env/a".into())]).credential(envelope.credential()),
    );

    assert_eq!(w1, e1.results, "put: wrapper ≡ envelope");
    assert_eq!(w2, Some(1));
    assert_eq!(e2.results[0], Ok(StoreResp::Value(Some(1))));

    // And over the wire, the same envelope yields the same answers.
    let mut server = StoreServer::new(&store, server_cfg(64));
    let mut conn = NetClient::connect(&mut server, TierCredential::Guest);
    conn.send(
        &Request::new(vec![StoreOp::Get("wrap/a".into()), StoreOp::Get("env/a".into())])
            .credential(TierCredential::Guest)
            .retry_budget(8),
    );
    let got = poll_until(&mut server, &mut conn);
    assert_eq!(got[0].1, vec![Ok(StoreResp::Value(Some(1))), Ok(StoreResp::Value(Some(1)))]);
}

/// A guest frame whose deadline is already behind it is shed pre-dispatch
/// with the typed `DeadlineExceeded` — which round-trips the wire as
/// discriminant 6 — while a VIP frame with the same dead deadline is
/// still served: VIP frames are never shed.
#[test]
fn net_deadline_expiry_is_typed_and_never_touches_vip() {
    let store = StoreBuilder::new().shards(2).vip_capacity(1).build().unwrap();
    let mut server = StoreServer::new(&store, server_cfg(64));
    let mut vip = NetClient::connect(&mut server, TierCredential::Vip { token: VIP_TOKEN });
    let mut guest = NetClient::connect(&mut server, TierCredential::Guest);

    guest.send(
        &Request::new(vec![StoreOp::Put("late".into(), 1)])
            .credential(TierCredential::Guest)
            .retry_budget(8)
            .deadline_ms(0),
    );
    vip.send(
        &Request::new(vec![StoreOp::Put("vip/fine".into(), 2)])
            .credential(TierCredential::Vip { token: VIP_TOKEN })
            .retry_budget(8)
            .deadline_ms(0),
    );
    let stats = server.poll();
    assert_eq!(stats.deadline_shed, 1, "the guest frame expired in the queue");

    let got = guest.drain().expect("clean wire");
    assert_eq!(
        got[0].1,
        vec![Err(StoreError::DeadlineExceeded { deadline_ms: 0 })],
        "expiry is a typed deadline error, not a 429"
    );
    let got = vip.drain().expect("clean wire");
    assert!(got[0].1[0].is_ok(), "VIP frames are never deadline-shed: {got:?}");

    let snap = server.scrape();
    assert_eq!(snap.value("store_net_deadline_shed_total", &[("tier", "guest")]), Some(1));
    assert_eq!(snap.value("store_net_deadline_shed_total", &[("tier", "vip")]), Some(0));
    assert_eq!(snap.value("store_net_backpressure_shed_total", &[("tier", "guest")]), Some(0));
}

/// The reactor holds one VIP port, and its guest batch commits through
/// that port's replica under the port's guest voice: two VIPs, 64 guest
/// commits, and the VIP tier replays none of them — each cell is applied
/// once on the reactor's side, by the batch that wrote it, and the two
/// VIPs' next reads find the replica at the tail.
#[test]
fn the_vip_side_replays_none_of_the_reactors_guest_cells() {
    let store = StoreBuilder::new().shards(1).vip_capacity(2).build().unwrap();
    let mut server =
        StoreServer::new(&store, ServerConfig { vip_tokens: vec![1, 2], ..server_cfg(64) });
    let mut vips: Vec<NetClient> =
        [1, 2].map(|token| NetClient::connect(&mut server, TierCredential::Vip { token })).into();
    let mut guest = NetClient::connect(&mut server, TierCredential::Guest);
    let mut read_all = |server: &mut StoreServer<'_>| -> Vec<Vec<WireResult>> {
        let mut reads = Vec::new();
        for (vip, token) in vips.iter_mut().zip([1, 2]) {
            let get = Request::new(vec![StoreOp::Get("cell".into())])
                .credential(TierCredential::Vip { token });
            vip.send(&get);
            reads.extend(poll_until(server, vip).into_iter().map(|(_, results)| results));
        }
        reads
    };
    let replayed = |server: &StoreServer<'_>| {
        server.scrape().value("store_replayed_cells_total", &[("tier", "vip")]).unwrap()
    };

    assert_eq!(read_all(&mut server), vec![vec![Ok(StoreResp::Value(None))]; 2]);
    let (before, steps) = (replayed(&server), store.replay_steps());
    for v in 0..64 {
        guest.send(&Request::new(vec![StoreOp::Put("cell".into(), v)]));
        poll_until(&mut server, &mut guest);
    }
    let reads = read_all(&mut server);
    assert_eq!(replayed(&server) - before, 0, "the VIP tier replays none of the 64 guest cells");
    assert_eq!(store.replay_steps() - steps, 64, "each cell is applied once, by the one replica");
    assert_eq!(reads, vec![vec![Ok(StoreResp::Value(Some(63)))]; 2], "both VIPs read alike");
}

/// A wire VIP's request path replays none of the reactor's own guest
/// writes, however many there were: the guest batch committed them through
/// the VIP's replica.
#[test]
fn a_wire_vips_replay_does_not_grow_with_guest_writes() {
    for guest_writes in [0, 7, 64, 1000] {
        let store = StoreBuilder::new().shards(1).vip_capacity(1).build().unwrap();
        let mut server = StoreServer::new(&store, server_cfg(64));
        let mut vip = NetClient::connect(&mut server, TierCredential::Vip { token: VIP_TOKEN });
        let mut guest = NetClient::connect(&mut server, TierCredential::Guest);
        let get = Request::new(vec![StoreOp::Get("k".into())])
            .credential(TierCredential::Vip { token: VIP_TOKEN });
        vip.send(&get);
        poll_until(&mut server, &mut vip);
        for v in 0..guest_writes {
            guest.send(&Request::new(vec![StoreOp::Put("k".into(), v)]));
            poll_until(&mut server, &mut guest);
        }
        let on_path = |server: &StoreServer<'_>| {
            server.scrape().value("store_replayed_cells_total", &[("tier", "vip")]).unwrap()
        };
        let before = on_path(&server);
        vip.send(&get);
        let got = poll_until(&mut server, &mut vip);
        let last = guest_writes.checked_sub(1);
        assert_eq!(got[0].1, vec![Ok(StoreResp::Value(last))], "G = {guest_writes}");
        let replayed = on_path(&server) - before;
        assert_eq!(replayed, 0, "G = {guest_writes}: the Get replayed {replayed} cells");
    }
}

/// The independent oracle: the sequential meaning of one operation.
fn oracle_apply(state: &mut BTreeMap<String, u64>, op: &StoreOp) -> StoreResp {
    match op {
        StoreOp::Get(k) => StoreResp::Value(state.get(k).copied()),
        StoreOp::Put(k, v) => StoreResp::Value(state.insert(k.clone(), *v)),
        StoreOp::Remove(k) => StoreResp::Value(state.remove(k)),
        StoreOp::Cas { key, expect, new } => {
            let actual = state.get(key).copied();
            if actual == *expect {
                state.insert(key.clone(), *new);
                StoreResp::Cas { ok: true, actual }
            } else {
                StoreResp::Cas { ok: false, actual }
            }
        }
        StoreOp::Scan { from, to } => {
            let mut entries: Vec<(String, u64)> = state
                .iter()
                .filter(|(k, _)| *from <= **k && **k < *to)
                .map(|(k, v)| (k.clone(), *v))
                .collect();
            entries.sort();
            StoreResp::Entries(entries)
        }
    }
}

/// Decodes a generated `(kind, key, val)` triple into an operation over a
/// small key space (cross-guest collisions are the point).
fn decode_op(kind: u8, key: u8, val: u64) -> StoreOp {
    let k = format!("key/{:02}", key % 12);
    match kind % 6 {
        0 | 1 => StoreOp::Put(k, val),
        2 => StoreOp::Get(k),
        3 => StoreOp::Remove(k),
        4 => StoreOp::Cas { key: k, expect: (!val.is_multiple_of(3)).then_some(val / 2), new: val },
        _ => {
            let hi = format!("key/{:02}", (key % 12).saturating_add(val as u8 % 5));
            StoreOp::Scan { from: k, to: hi }
        }
    }
}

/// Drives one server over every guest's pipelined envelopes and returns
/// each guest's responses in correlation-id order.
fn run_pipelines(
    per_poll: usize,
    shards: usize,
    pipelines: &[Vec<Vec<StoreOp>>],
) -> Vec<Vec<(u64, Vec<WireResult>)>> {
    let store = StoreBuilder::new().shards(shards).vip_capacity(1).build().unwrap();
    let mut server = StoreServer::new(&store, server_cfg(per_poll));
    let mut guests: Vec<NetClient> =
        pipelines.iter().map(|_| NetClient::connect(&mut server, TierCredential::Guest)).collect();
    for (g, pipeline) in pipelines.iter().enumerate() {
        for ops in pipeline {
            guests[g]
                .send(&Request::new(ops.clone()).credential(TierCredential::Guest).retry_budget(8));
        }
    }
    let want: Vec<usize> = pipelines.iter().map(Vec::len).collect();
    let mut out: Vec<Vec<(u64, Vec<WireResult>)>> = pipelines.iter().map(|_| Vec::new()).collect();
    for _ in 0..64 {
        server.poll();
        for (g, guest) in guests.iter_mut().enumerate() {
            out[g].extend(guest.drain().expect("clean wire"));
        }
        if out.iter().zip(&want).all(|(got, want)| got.len() >= *want) {
            break;
        }
    }
    for transcript in &mut out {
        transcript.sort_by_key(|(id, _)| *id);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Batching transparency on the wire: a turn that coalesces up to 256
    /// envelopes into one store round must be observationally equivalent
    /// to one envelope per round (the same path with n = 1; at most 20
    /// envelopes, so 64 turns), and both must match the sequential
    /// `BTreeMap` oracle response-for-response. (Arrival order is
    /// deterministic: the reactor ingests connections in index order, each
    /// connection's pipeline in send order — the oracle's order.)
    #[test]
    fn net_batched_dispatch_is_observationally_equivalent(
        shards in 1usize..4,
        encoded in proptest::collection::vec(          // per guest…
            proptest::collection::vec(                 // …per envelope…
                proptest::collection::vec((0u8..6, 0u8..12, 0u64..16), 1..4), // …ops
                1..6),
            1..5),
    ) {
        let pipelines: Vec<Vec<Vec<StoreOp>>> = encoded
            .iter()
            .map(|envs| {
                envs.iter()
                    .map(|ops| ops.iter().map(|&(k, key, v)| decode_op(k, key, v)).collect())
                    .collect()
            })
            .collect();

        let mut oracle = BTreeMap::new();
        let expect: Vec<Vec<Vec<StoreResp>>> = pipelines
            .iter()
            .map(|envs| {
                envs.iter()
                    .map(|ops| ops.iter().map(|op| oracle_apply(&mut oracle, op)).collect())
                    .collect()
            })
            .collect();

        let batched = run_pipelines(256, shards, &pipelines);
        let one_by_one = run_pipelines(1, shards, &pipelines);
        prop_assert_eq!(&batched, &one_by_one, "batching must be transparent");
        for (g, (transcript, envs)) in batched.iter().zip(&expect).enumerate() {
            prop_assert_eq!(transcript.len(), envs.len(), "guest {} answered in full", g);
            for ((_, results), want) in transcript.iter().zip(envs) {
                for (got, resp) in results.iter().zip(want) {
                    prop_assert_eq!(got.as_ref(), Ok(resp), "guest {} diverged from oracle", g);
                }
                prop_assert_eq!(results.len(), want.len());
            }
        }
    }
}

/// METRICS.md is the catalogue of every exported series: a series added to
/// a scrape without a row there, or a row that outlives its series, fails
/// here with the difference.
#[test]
fn metrics_md_lists_exactly_the_scraped_series() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("store-net-metrics-md");
    let _ = std::fs::remove_dir_all(&dir);
    let wal = Wal::open(dir.join("wal"), WalConfig::default()).expect("fresh wal");
    let store = StoreBuilder::new().shards(2).build_with_wal(Arc::clone(&wal)).unwrap();
    let persister = Persister::new(dir.join("store.snapshot")).with_wal(wal);
    let server = StoreServer::new(&store, server_cfg(8));
    let mut scrape = server.scrape();
    scrape.merge(persister.scrape());

    let scraped: BTreeSet<&str> = scrape.samples.iter().map(|s| s.name).collect();
    let documented: BTreeSet<&str> = include_str!("../METRICS.md")
        .lines()
        .filter_map(|row| row.strip_prefix("| `")?.split('`').next())
        .collect();
    assert!(
        scraped == documented,
        "METRICS.md has drifted — scraped but not documented: {:?}; documented but not scraped: {:?}",
        scraped.difference(&documented).collect::<Vec<_>>(),
        documented.difference(&scraped).collect::<Vec<_>>(),
    );

    // Each row's type and label keys are those of every sample it names.
    // A label cell's keys are the first backticked token of each
    // comma-separated part; `—` is none.
    for row in include_str!("../METRICS.md").lines().filter(|row| row.starts_with("| `")) {
        let row = row.replace("\\|", "/");
        let cells: Vec<&str> = row.trim_matches('|').split('|').map(str::trim).collect();
        let name = cells[0].trim_matches('`');
        let keys: Vec<&str> = match cells[2] {
            "—" => Vec::new(),
            labels => labels.split(',').filter_map(|part| part.split('`').nth(1)).collect(),
        };
        for sample in scrape.samples.iter().filter(|s| s.name == name) {
            let kind = match sample.value {
                SampleValue::Counter(_) => "counter",
                SampleValue::Gauge(_) => "gauge",
                SampleValue::Histogram(_) => "histogram",
            };
            assert_eq!(cells[1], kind, "METRICS.md types {name} wrong");
            let scraped_keys: Vec<&str> = sample.labels.iter().map(|(k, _)| *k).collect();
            assert_eq!(keys, scraped_keys, "METRICS.md labels {name} wrong");
        }
    }
}

/// The rows of the WIRE.md table whose header line starts with `header`,
/// each split into trimmed cells.
fn wire_md_table<'a>(doc: &'a str, header: &str) -> Vec<Vec<&'a str>> {
    let rows: Vec<Vec<&str>> = doc
        .lines()
        .skip_while(|line| !line.starts_with(header))
        .skip(2) // the header and its separator
        .take_while(|line| line.starts_with('|'))
        .map(|row| row.trim_matches('|').split('|').map(str::trim).collect())
        .collect();
    assert!(!rows.is_empty(), "docs/WIRE.md has no table headed `{header}`");
    rows
}

/// docs/WIRE.md is the normative spec: its error-discriminant, cap and
/// frame-kind tables must say what the code does.
#[test]
fn wire_md_tables_match_the_code() {
    let doc = include_str!("../docs/WIRE.md");
    let errors = [
        StoreError::Moved { epoch: 0 },
        StoreError::GuestTier,
        StoreError::RetryBudgetExhausted { budget: 0 },
        StoreError::Unavailable { version: 0 },
        StoreError::Corrupt { detail: String::new() },
        StoreError::DeadlineExceeded { deadline_ms: 0 },
    ];
    let coded: Vec<(u8, String)> = errors
        .iter()
        .map(|e| {
            let debug = format!("{e:?}");
            (e.wire_discriminant(), debug.split([' ', '{']).next().unwrap_or_default().to_owned())
        })
        .collect();
    let documented: Vec<(u8, String)> = wire_md_table(doc, "| discriminant |")
        .iter()
        .map(|row| (row[0].parse().expect("a discriminant"), row[1].trim_matches('`').to_owned()))
        .collect();
    assert_eq!(documented, coded, "WIRE.md § Error discriminants");

    // A cap's value cell carries its exact value as `a << b`.
    let shifted = |cell: &str| -> u32 {
        let expr = cell.split('`').nth(1).expect("a `a << b` value");
        let (base, shift) = expr.split_once(" << ").expect("a `a << b` value");
        base.parse::<u32>().unwrap() << shift.parse::<u32>().unwrap()
    };
    let caps: Vec<(&str, u32)> = wire_md_table(doc, "| cap |")
        .iter()
        .map(|row| (row[0].trim_matches('`'), shifted(row[1])))
        .collect();
    assert_eq!(
        caps,
        [("MAX_WIRE_PAYLOAD", MAX_WIRE_PAYLOAD), ("MAX_WIRE_LIST", MAX_WIRE_LIST)],
        "WIRE.md § Frame layout caps"
    );

    let kinds: Vec<(&str, u8)> = wire_md_table(doc, "| kind |")
        .iter()
        .map(|row| (row[0].trim_matches('`'), row[1].parse().expect("a kind byte")))
        .collect();
    assert_eq!(
        kinds,
        [("Hello", KIND_HELLO), ("Request", KIND_REQUEST), ("Response", KIND_RESPONSE)],
        "WIRE.md § Frame kinds"
    );
}

/// Housekeeping is an input someone delivers, never a side effect of
/// serving: guest frames that melt one shard go through `poll()` without a
/// single reconfiguration, however hot the shard gets, and the owner's one
/// `Store::rebalance` call then splits it.
#[test]
fn a_reactor_turn_never_reconfigures_and_the_owner_rebalances() {
    let store = StoreBuilder::new().shards(4).vip_capacity(1).guest_ports(2).build().unwrap();
    let mut server = StoreServer::new(&store, server_cfg(64));
    let mut guest = NetClient::connect(&mut server, TierCredential::Guest);
    let hot: Vec<String> =
        (0..).map(|i| format!("hot/{i}")).filter(|k| store.shard_of(k) == 0).take(4).collect();
    let reconfigs = |server: &StoreServer<'_>| {
        let snap = server.scrape();
        ["split", "merge"]
            .map(|kind| snap.value("store_reconfigs_total", &[("kind", kind)]).unwrap())
    };
    for round in 0..64 {
        for key in &hot {
            guest.send(&Request::new(vec![StoreOp::Put(key.clone(), round)]));
        }
        let before = reconfigs(&server);
        server.poll();
        assert_eq!(reconfigs(&server), before, "round {round}: a turn reconfigured the store");
        assert_eq!(guest.drain().expect("clean wire").len(), hot.len());
    }
    assert_eq!(store.live_shards(), 4);
    let mut engine = ElasticEngine::new(ElasticityPolicy { cooldown: 64, min_window: 32 });
    assert_eq!(store.rebalance(&mut engine), ElasticDecision::Split(0), "the melt is heat");
    assert_eq!(reconfigs(&server), [1, 0]);
    assert_eq!(store.live_shards(), 5);
}

/// A served log seals itself: the server's seal cadence seals every shard
/// once its log holds `SEAL_EVERY` cells past its anchor, on a thread of
/// its own, while the reactor serves. Over `sim_pair` connections a server
/// serves more than `2 × SEAL_EVERY` cells to every shard; every shard's
/// anchor moves past its preload within a deadline, no VIP request fails,
/// and once the traffic stops no shard is left due.
#[test]
fn a_served_log_is_sealed_by_the_servers_cadence() {
    let store = StoreBuilder::new().build().unwrap();
    let mut preload = store.client(store.admit_guest());
    for batch in 0..16u64 {
        let ops = (0..256).map(|k| StoreOp::Put(format!("w{:04}", batch * 256 + k), k)).collect();
        assert!(preload.request(Request::new(ops)).is_ok());
    }
    let preloaded: Vec<u64> = store.snapshot_stats().iter().map(|d| d.commits).collect();
    assert_eq!(store.anchor_indices(), vec![0; 4], "nothing is sealed before the server");

    let mut server = StoreServer::new(&store, server_cfg(256));
    let vip_cred = TierCredential::Vip { token: VIP_TOKEN };
    let mut vip = NetClient::connect(&mut server, vip_cred);
    let mut guests: Vec<NetClient> =
        (0..8).map(|_| NetClient::connect(&mut server, TierCredential::Guest)).collect();
    server.poll(); // the handshakes
    let sealed_past_preload = |store: &asymmetric_progress::store::Store| {
        let served = store
            .snapshot_stats()
            .iter()
            .zip(&preloaded)
            .all(|(d, &p)| d.commits - p > 2 * SEAL_EVERY);
        served && store.anchor_indices().iter().zip(&preloaded).all(|(&a, &p)| a > p)
    };
    let deadline = Instant::now() + Duration::from_secs(120);
    let (mut i, mut vip_failures) = (0u64, 0);
    while !sealed_past_preload(&store) && Instant::now() < deadline {
        let put = |i: u64| Request::new(vec![StoreOp::Put(format!("w{:04}", i % 4096), i)]);
        vip.send(&put(i).credential(vip_cred).retry_budget(8));
        for (g, guest) in (1..).zip(guests.iter_mut()) {
            guest.send(&put(i * 9 + g).retry_budget(8));
        }
        server.poll();
        for (_, results) in vip.drain().expect("clean wire") {
            vip_failures += results.iter().filter(|r| r.is_err()).count();
        }
        for guest in &mut guests {
            for (_, results) in guest.drain().expect("clean wire") {
                assert!(results.iter().all(Result::is_ok), "a guest put failed: {results:?}");
            }
        }
        i += 1;
    }
    assert!(
        sealed_past_preload(&store),
        "after {i} turns: cells {:?} over a preload of {preloaded:?}, anchors {:?}",
        store.snapshot_stats(),
        store.anchor_indices()
    );
    assert_eq!(vip_failures, 0, "a VIP request failed while the cadence sealed");

    // The traffic stops; the cadence leaves every shard short of due.
    let unsealed = |server: &StoreServer<'_>| {
        let scrape = server.scrape();
        let unsealed = scrape.samples.iter().filter(|s| s.name == "store_shard_unsealed_cells");
        unsealed
            .map(|s| match s.value {
                SampleValue::Gauge(cells) => cells,
                _ => panic!("store_shard_unsealed_cells is a gauge"),
            })
            .collect::<Vec<u64>>()
    };
    while unsealed(&server).iter().any(|&cells| cells >= SEAL_EVERY) && Instant::now() < deadline {
        std::thread::sleep(SEAL_PERIOD);
    }
    assert!(unsealed(&server).iter().all(|&cells| cells < SEAL_EVERY), "{:?}", unsealed(&server));
    let seals = server.scrape().value("store_cadence_seals_total", &[]).unwrap();
    assert!(seals >= 4, "{seals} cadence seals over four shards");
}

/// No cadence seal lands inside a set-up like the benchmark's: a
/// 400 000-key preload in 1 024-key batches is 391 cells per shard, short
/// of `SEAL_EVERY`, and the handshake's one-key scans append none. So three
/// periods after the server is built and every connection answered,
/// `store_cadence_seals_total` still reads 0.
#[test]
fn a_benchmark_set_up_lands_no_cadence_seal() {
    const PRELOAD: u32 = 400_000;
    const BATCH: u32 = 1024;
    let store = StoreBuilder::new().build().unwrap();
    let mut preload = store.client(store.admit_guest());
    for from in (0..PRELOAD).step_by(BATCH as usize) {
        let to = (from + BATCH).min(PRELOAD);
        let ops = (from..to).map(|k| StoreOp::Put(format!("k{k:07}"), u64::from(k))).collect();
        assert!(preload.request(Request::new(ops)).is_ok());
    }
    let mut server = StoreServer::new(&store, server_cfg(256));
    let vip_cred = TierCredential::Vip { token: VIP_TOKEN };
    let mut conns: Vec<NetClient> = (0..18)
        .map(|c| {
            NetClient::connect(&mut server, if c < 2 { vip_cred } else { TierCredential::Guest })
        })
        .collect();
    server.poll(); // the handshakes
    for (c, conn) in conns.iter_mut().enumerate() {
        let cred = if c < 2 { vip_cred } else { TierCredential::Guest };
        let scan = StoreOp::Scan { from: "k0000000".into(), to: "k0000001".into() };
        conn.send(&Request::new(vec![scan]).credential(cred).retry_budget(8));
    }
    server.poll();
    for conn in &mut conns {
        let answered = conn.drain().expect("clean wire");
        let want = vec![Ok(StoreResp::Entries(vec![("k0000000".into(), 0)]))];
        assert_eq!(answered.iter().map(|(_, r)| r).collect::<Vec<_>>(), vec![&want]);
    }
    std::thread::sleep(3 * SEAL_PERIOD);
    let scrape = server.scrape();
    assert_eq!(scrape.value("store_cadence_seals_total", &[]), Some(0));
    for shard in 0..4 {
        let labels = [("shard", format!("{shard}")), ("live", "true".to_string())];
        let labels: Vec<(&str, &str)> = labels.iter().map(|(k, v)| (*k, v.as_str())).collect();
        let cells = scrape.value("store_shard_unsealed_cells", &labels).unwrap();
        assert_eq!(cells, u64::from(PRELOAD.div_ceil(BATCH)), "shard {shard}");
    }
}
