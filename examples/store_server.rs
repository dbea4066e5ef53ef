//! `store_server`: the wire front-end, one turn at a time.
//!
//! Run with: `cargo run --release --example store_server`
//!
//! One thread plays both sides of a [`StoreServer`] over simulated
//! connections speaking the length-prefixed codec of `docs/WIRE.md`:
//!
//! * both tiers handshake, and each gets a round-trip;
//! * a guest pipelines a burst past the per-turn dispatch cap and its
//!   backlog: the overflow is answered with `RetryBudgetExhausted` (the
//!   wire's 429) in the arrival turn, while the VIP frame sent into the
//!   same turn is served — nothing queues behind the flood, nothing blocks;
//! * the listener doubles as an observability endpoint: `GET /metrics`
//!   over a fresh connection returns the merged scrape.
//!
//! It demonstrates behaviour and times nothing; what the wire costs is
//! measured by `benchmark/` against `BENCHMARK.json`.

use asymmetric_progress::net::{NetClient, ServerConfig, StoreServer};
use asymmetric_progress::store::{Request, StoreBuilder, StoreError, StoreOp, TierCredential};

const VIP_TOKEN: u64 = 0xfeed_0000;
const DISPATCH_CAP: usize = 8;
const BACKLOG: usize = 8;
const BURST: usize = 64;

fn main() {
    let store = StoreBuilder::new().shards(4).vip_capacity(1).build().expect("valid sizing");
    let cfg = ServerConfig {
        vip_tokens: vec![VIP_TOKEN],
        guest_dispatch_per_poll: DISPATCH_CAP,
        guest_queue_depth: BACKLOG,
        ..ServerConfig::default()
    };
    let mut server = StoreServer::new(&store, cfg);

    let vip_cred = TierCredential::Vip { token: VIP_TOKEN };
    let mut vip = NetClient::connect(&mut server, vip_cred);
    let mut guest = NetClient::connect(&mut server, TierCredential::Guest);
    server.poll(); // handshakes

    // One turn serves its VIP frames first, so the guest reads the VIP's write.
    guest.send(&Request::new(vec![StoreOp::Get("greeting".into())]).retry_budget(4));
    vip.send(&Request::new(vec![StoreOp::Put("greeting".into(), 1)]).credential(vip_cred));
    server.poll();
    println!("vip put   -> {:?}", vip.drain().expect("clean wire")[0].1);
    println!("guest get -> {:?}", guest.drain().expect("clean wire")[0].1);

    // The flood and the VIP frame arrive in the same turn.
    for i in 0..BURST {
        guest.send(
            &Request::new(vec![StoreOp::Put(format!("flood/{i}"), i as u64)]).retry_budget(4),
        );
    }
    vip.send(&Request::new(vec![StoreOp::Put("vip/alive".into(), 1)]).credential(vip_cred));
    let stats = server.poll();
    let vip_answers = vip.drain().expect("clean wire");
    assert_eq!(vip_answers.len(), 1, "the VIP is served in the overload turn");
    assert!(vip_answers[0].1.iter().all(|r| r.is_ok()), "no VIP 429 under guest flood");
    assert_eq!(stats.shed, BURST - DISPATCH_CAP - BACKLOG, "overflow is shed on arrival");

    // The backlog drains over the next turns; every frame gets one answer.
    let (mut served, mut shed) = (0, 0);
    while served + shed < BURST {
        for (_, results) in guest.drain().expect("clean wire") {
            match &results[0] {
                Ok(_) => served += 1,
                Err(StoreError::RetryBudgetExhausted { .. }) => shed += 1,
                other => panic!("unexpected guest result: {other:?}"),
            }
        }
        server.poll();
    }
    assert_eq!((served, shed), (DISPATCH_CAP + BACKLOG, stats.shed));
    println!("guest burst of {BURST}: {served} served, {shed} shed (typed 429s); VIP served");

    // The same listener answers plain HTTP: fetch the merged scrape.
    let probe = server.connect();
    probe.send(b"GET /metrics HTTP/1.1\r\nHost: sim\r\n\r\n");
    server.poll();
    let mut body = Vec::new();
    probe.drain_into(&mut body);
    let text = String::from_utf8_lossy(&body);
    assert!(text.contains("store_net_backpressure_shed_total{tier=\"vip\"} 0"));
    println!("\nGET /metrics (store_net_* series):");
    for line in text.lines().filter(|l| l.starts_with("store_net_") && !l.contains("_bucket")) {
        println!("  {line}");
    }
}
