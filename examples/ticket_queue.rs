//! A work queue with a VIP consumer: asymmetric service tiers in action.
//!
//! Run with: `cargo run --example ticket_queue`
//!
//! A FIFO ticket queue is built *on the store*: producers claim globally
//! ordered slots with a CAS on a sequence key and publish their items under
//! zero-padded slot keys; one *dispatcher* drains the slots in claim order,
//! one `Remove` per slot. The dispatcher drives downstream machinery and
//! must never be blocked by producer contention, so it holds the store's
//! VIP ticket and every one of its requests rides the bounded wait-free
//! arm; producers are obstruction-free guests (they retry CAS losses, which
//! the scheduler resolves quickly in practice).
//!
//! Everything speaks the **unified request envelope** — claims, publishes,
//! drains — with finite retry budgets throughout: contention and topology
//! races surface as typed response values, never as blocked threads.
//!
//! The run demonstrates both halves of the contract:
//! * every produced item is dispatched exactly once, in claim order: the
//!   claims are linearized by the one log that holds the sequence key, and
//!   each slot key's own log orders its publish before its removal. The
//!   queue relies on nothing across keys — a scan of the slot range spans
//!   two shards and would not be an atomic cut of them;
//! * the dispatcher's requests complete in a bounded number of its own
//!   steps even while producers hammer the sequence key (wait-freedom).
//!   Between requests it waits on a slot that is claimed but not yet
//!   published; that wait is the queue's, not the store's.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use asymmetric_progress::store::{Request, StoreBuilder, StoreOp, StoreResp};

const PRODUCERS: usize = 5;
const ITEMS_PER_PRODUCER: u64 = 40;
const SEQ_KEY: &str = "queue/seq";

fn main() {
    let store = StoreBuilder::new().shards(2).vip_capacity(1).build().expect("valid sizing");
    let total = PRODUCERS as u64 * ITEMS_PER_PRODUCER;
    println!("ticket queue over the store: dispatcher = VIP, {PRODUCERS} guest producers");

    let cas_retries = AtomicU64::new(0);
    let mut dispatched: Vec<(u64, u64)> = Vec::new(); // (slot, item)

    std::thread::scope(|s| {
        for p in 0..PRODUCERS {
            let store = &store;
            let cas_retries = &cas_retries;
            s.spawn(move || {
                let mut client = store.client(store.admit_guest());
                let credential = client.credential();
                for i in 0..ITEMS_PER_PRODUCER {
                    // Claim the next slot: CAS the sequence key upward
                    // until we win one. Losses are typed Cas{ok:false}
                    // responses carrying the fresh value — no re-read.
                    let mut expect = None;
                    let slot = loop {
                        let claim = Request::new(vec![StoreOp::Cas {
                            key: SEQ_KEY.into(),
                            expect,
                            new: expect.map_or(1, |v| v + 1),
                        }])
                        .credential(credential)
                        .retry_budget(4);
                        match &store_resp(client.request(claim))[0] {
                            StoreResp::Cas { ok: true, actual } => {
                                break actual.unwrap_or(0);
                            }
                            StoreResp::Cas { ok: false, actual } => {
                                cas_retries.fetch_add(1, Ordering::Relaxed);
                                expect = *actual;
                            }
                            other => panic!("unexpected claim response: {other:?}"),
                        }
                    };
                    // Publish the item under its slot key.
                    let item = (p + 1) as u64 * 1_000 + i;
                    let publish =
                        Request::new(vec![StoreOp::Put(format!("queue/slot/{slot:06}"), item)])
                            .credential(credential)
                            .retry_budget(4);
                    let resp = client.request(publish);
                    assert!(resp.is_ok(), "publish failed: {:?}", resp.results);
                }
            });
        }

        // Dispatcher: drain concurrently with production, VIP tier, slot by
        // slot in claim order.
        let store = &store;
        let dispatched = &mut dispatched;
        s.spawn(move || {
            let mut client = store.client(store.admit_vip().expect("the VIP slot"));
            let credential = client.credential();
            let bounded = |op| Request::new(vec![op]).credential(credential).retry_budget(8);
            for slot in 0..total {
                let key = format!("queue/slot/{slot:06}");
                // Claimed or about to be, maybe not yet published: a local
                // read that takes no log cell waits for the item…
                while store_resp(client.request(bounded(StoreOp::Get(key.clone()))))[0]
                    == StoreResp::Value(None)
                {
                    std::thread::yield_now();
                }
                // …and one bounded remove takes it. The dispatcher is the
                // only consumer, so it must hit (exactly-once dispatch).
                match &store_resp(client.request(bounded(StoreOp::Remove(key))))[0] {
                    StoreResp::Value(Some(item)) => dispatched.push((slot, *item)),
                    other => panic!("slot {slot} vanished: {other:?}"),
                }
            }
        });
    });

    // Exactly-once dispatch.
    assert_eq!(dispatched.len() as u64, total, "every item dispatched");
    let unique: std::collections::HashSet<u64> = dispatched.iter().map(|(_, item)| *item).collect();
    assert_eq!(unique.len() as u64, total, "no duplicates");

    // Claim order: slot k was dispatched k-th, and so each producer's items
    // left in the order it produced them — it claims slot k before any
    // later slot, and publishes item i at its i-th slot.
    assert!(dispatched.iter().map(|(slot, _)| *slot).eq(0..total), "dispatched in slot order");
    let mut last_seen: HashMap<u64, u64> = HashMap::new();
    for (_, item) in &dispatched {
        let producer = item / 1_000;
        let seq = item % 1_000;
        if let Some(&prev) = last_seen.get(&producer) {
            assert!(seq > prev, "producer {producer} order violated: {prev} then {seq}");
        }
        last_seen.insert(producer, seq);
    }

    println!(
        "dispatched {total} items, exactly once, in claim order \
         ({} CAS losses retried by guests)",
        cas_retries.load(Ordering::Relaxed)
    );
    let first: Vec<u64> = dispatched.iter().take(10).map(|(_, item)| *item).collect();
    println!("first 10 dispatched: {first:?}");
}

/// Unwraps every per-op result of a response (this example's requests are
/// all expected to succeed; typed errors are panics here).
fn store_resp(resp: asymmetric_progress::store::Response) -> Vec<StoreResp> {
    resp.results.into_iter().map(|r| r.unwrap_or_else(|e| panic!("request failed: {e}"))).collect()
}
