//! Concurrent clients on shared keys, checked linearizable key by key
//! across every admin act.
//!
//! Linearizability is local: a history is linearizable iff each object's
//! sub-history is (Herlihy & Wing 1990), so a store can be judged one key
//! at a time by the Wing–Gong checker in `apc_model::linearize`. Each round
//! one VIP thread and three guest threads put and get over three shared
//! keys of their own round, with values no two puts share, stamping every
//! operation's invocation and response on one shared counter. Meanwhile an
//! admin thread loops the seal cadence's step (`Store::seal_due`) and, one
//! at a time, a checkpoint, a split or a merge. Between checked operations
//! every client writes filler across the shards, so each round appends more
//! than `SEAL_EVERY` cells to every live shard and the cadence seals really
//! fire while the checked operations run.
//!
//! Guests mix the one-op arms (`Client::request`, `Client::request_guest`)
//! with `Client::request_guest_from` batches. Each operation linearizes on
//! its own shard's log; a batch is one interval for all its operations,
//! which is all a client can observe of it. Every operation of every tier
//! must be answered `Ok`, the VIP's above all.
//!
//! A debug build runs a few rounds (tier-1); CI runs the release build,
//! which runs many more.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use asymmetric_progress::model::linearize::{is_linearizable, CompleteOp, SeqSpec};
use asymmetric_progress::store::{
    Client, Request, Store, StoreBuilder, StoreOp, StoreResp, SEAL_EVERY,
};

const ROUNDS: u64 = if cfg!(debug_assertions) { 24 } else { 1000 };

/// Checked operations each client thread issues per round: 4 threads × 12
/// over 3 keys stays far below the checker's 63 operations per key.
const CHECKED_PER_THREAD: u64 = 12;

/// Filler batches a client writes after each checked operation. Each batch
/// puts one key on every live shard, so it is one cell per shard, and a
/// round's 4 × 12 × 24 = 1152 cells per shard cross `SEAL_EVERY`.
const FILLER_PER_CHECKED: u64 = 24;

const KEYS: [&str; 3] = ["a", "b", "c"];

/// A key as a sequential object: absent at first; a put answers the value
/// it replaced and a get the current one.
struct PutGet;

#[derive(Clone, Debug)]
enum KeyOp {
    Get,
    Put(u64),
}

impl SeqSpec for PutGet {
    type State = Option<u64>;
    type Op = KeyOp;
    type Resp = Option<u64>;

    fn init(&self) -> Option<u64> {
        None
    }

    fn apply(&self, state: &Option<u64>, op: &KeyOp) -> (Option<u64>, Option<u64>) {
        match op {
            KeyOp::Get => (*state, *state),
            KeyOp::Put(v) => (Some(*v), *state),
        }
    }
}

type History = Vec<(usize, CompleteOp<KeyOp, Option<u64>>)>;

/// One round's shared state: the logical clock and every completed checked
/// operation, tagged with its key's index.
struct Round {
    round: u64,
    clock: AtomicU64,
    history: Mutex<History>,
}

impl Round {
    fn key(&self, k: usize) -> String {
        format!("r{}/{}", self.round, KEYS[k])
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::SeqCst)
    }

    /// Records `ops` (key index, operation) as answered by `results`, all
    /// over one interval.
    fn record(
        &self,
        ops: &[(usize, KeyOp)],
        results: Vec<Result<StoreResp, asymmetric_progress::store::StoreError>>,
        invoked_at: u64,
        responded_at: u64,
        who: &str,
    ) {
        assert_eq!(results.len(), ops.len());
        let mut history = self.history.lock().unwrap();
        for ((k, op), result) in ops.iter().zip(results) {
            let resp = match result {
                Ok(StoreResp::Value(v)) => v,
                other => panic!("round {}: {who}'s {op:?} answered {other:?}", self.round),
            };
            history.push((*k, CompleteOp { op: op.clone(), resp, invoked_at, responded_at }));
        }
    }
}

fn store_op(round: &Round, (k, op): &(usize, KeyOp)) -> StoreOp {
    match op {
        KeyOp::Get => StoreOp::Get(round.key(*k)),
        KeyOp::Put(v) => StoreOp::Put(round.key(*k), *v),
    }
}

/// The `i`-th checked operation of client `c`: a put of a value no other
/// put of the run writes, or a get, on one of the three keys.
fn checked_op(round: &Round, c: u64, i: u64) -> (usize, KeyOp) {
    let k = ((c * 7 + i * 5 + round.round) % 3) as usize;
    if (c + i).is_multiple_of(3) {
        (k, KeyOp::Get)
    } else {
        (k, KeyOp::Put((round.round << 32) | (c << 16) | (i + 1)))
    }
}

/// One filler batch: a put on every live shard, on keys of the client's own.
fn filler(store: &Store, client: u64, n: u64) -> Vec<StoreOp> {
    let topology = store.topology();
    (0..topology.shards())
        .filter(|&s| topology.is_live(s))
        .map(|s| {
            let key = (0u64..)
                .map(|j| format!("f{client}/{}", (n + j) % 4096))
                .find(|key| topology.shard_of(key) == s)
                .expect("some key routes to every live shard");
            StoreOp::Put(key, n)
        })
        .collect()
}

/// Writes `FILLER_PER_CHECKED` filler batches for each of `checked`
/// operations, numbered on from `from`.
fn write_filler(store: &Store, client: &mut Client<'_>, c: u64, from: u64, checked: u64) {
    let from = from * FILLER_PER_CHECKED;
    for n in from..from + checked * FILLER_PER_CHECKED {
        let credential = client.credential();
        let resp = client.request(Request::new(filler(store, c, n)).credential(credential));
        assert!(resp.is_ok(), "filler refused: {resp:?}");
    }
}

/// The VIP: one-op requests on its waiting arm and its bounded arm, in
/// turn.
fn vip_thread(store: &Store, round: &Round, client: &mut Client<'_>) {
    for i in 0..CHECKED_PER_THREAD {
        let op = checked_op(round, 0, i);
        let req = Request::new(vec![store_op(round, &op)]).credential(client.credential());
        let invoked_at = round.tick();
        let resp = if i % 2 == 0 { client.request(req) } else { client.request_vip(req) };
        let responded_at = round.tick();
        round.record(&[op], resp.results, invoked_at, responded_at, "the VIP");
        write_filler(store, client, 0, i, 1);
    }
}

/// A guest: one-op requests on both arms, and batches of up to three
/// one-op envelopes through `request_guest_from`.
fn guest_thread(store: &Store, round: &Round, client: &mut Client<'_>, c: u64) {
    let mut i = 0;
    while i < CHECKED_PER_THREAD {
        let width = match i % 4 {
            3 => 3.min(CHECKED_PER_THREAD - i),
            _ => 1,
        };
        let ops: Vec<(usize, KeyOp)> = (i..i + width).map(|j| checked_op(round, c, j)).collect();
        let invoked_at = round.tick();
        let results = match i % 4 {
            0 => client.request(Request::new(vec![store_op(round, &ops[0])])).results,
            1 => client.request_guest(Request::new(vec![store_op(round, &ops[0])])).results,
            _ => {
                let envelopes = ops.iter().map(|op| Request::new(vec![store_op(round, op)]));
                client.request_guest_from(envelopes).flat_map(|resp| resp.results).collect()
            }
        };
        let responded_at = round.tick();
        round.record(&ops, results, invoked_at, responded_at, "a guest");
        write_filler(store, client, c, i, width);
        i += width;
    }
}

/// The admin: the cadence step in a loop and, once half the round's
/// checked operations are invoked, the round's act — a checkpoint, a split
/// of the hottest shard, or a merge of the newest mergeable child — then
/// the cadence step until the clients are done. Returns the shards the
/// cadence sealed.
fn admin_thread(store: &Store, round: &Round, done: &AtomicBool) -> usize {
    let mut sealed = 0;
    let mut acted = false;
    while !done.load(Ordering::SeqCst) {
        sealed += store.seal_due();
        if !acted && round.clock.load(Ordering::SeqCst) >= 4 * CHECKED_PER_THREAD {
            acted = true;
            match round.round % 3 {
                0 => _ = store.checkpoint(),
                1 if store.live_shards() < 6 => _ = store.split_shard(store.hottest_shard()),
                _ => {
                    let topology = store.topology();
                    if let Some(child) =
                        (0..topology.shards()).rev().find(|&s| topology.check_merge(s).is_ok())
                    {
                        store.merge_shard(child).expect("an eligible child merges");
                    }
                }
            }
        }
        std::thread::yield_now();
    }
    sealed
}

#[test]
fn shared_keys_linearize_across_seals_checkpoints_splits_and_merges() {
    let store = StoreBuilder::new().shards(2).build().unwrap();
    let vip_ticket = store.admit_vip().unwrap();
    let guest_tickets: Vec<_> = (0..3).map(|_| store.admit_guest()).collect();
    let mut cadence_seals = 0;
    for r in 0..ROUNDS {
        let round = Round { round: r, clock: AtomicU64::new(0), history: Mutex::new(Vec::new()) };
        let done = AtomicBool::new(false);
        let sealed = std::thread::scope(|s| {
            let (store, round, done) = (&store, &round, &done);
            let admin = s.spawn(move || admin_thread(store, round, done));
            let mut clients =
                vec![s.spawn(move || vip_thread(store, round, &mut store.client(vip_ticket)))];
            for (c, &ticket) in (1..).zip(&guest_tickets) {
                clients.push(s.spawn(move || {
                    guest_thread(store, round, &mut store.client(ticket), c);
                }));
            }
            for client in clients {
                client.join().unwrap();
            }
            done.store(true, Ordering::SeqCst);
            admin.join().unwrap()
        });
        cadence_seals += sealed;
        let history = round.history.into_inner().unwrap();
        for (k, name) in KEYS.iter().enumerate() {
            let ops: Vec<_> =
                history.iter().filter(|(key, _)| *key == k).map(|(_, op)| op.clone()).collect();
            assert!(
                is_linearizable(&PutGet, &ops),
                "round {r}, key {name}: not linearizable: {ops:#?}"
            );
        }
    }
    // A round's filler crosses `SEAL_EVERY` on every live shard, but a
    // checkpoint, a split or a merge seals too and starts the count again.
    assert!(
        cadence_seals as u64 >= ROUNDS / 2,
        "{cadence_seals} cadence seals over {ROUNDS} rounds of more than {SEAL_EVERY} cells a shard"
    );
    let scraped = store.scrape().value("store_cadence_seals_total", &[]);
    assert_eq!(scraped, Some(cadence_seals as u64), "the scrape counts every cadence seal");
}
