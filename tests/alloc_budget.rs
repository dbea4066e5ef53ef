//! The allocation budget of the store's commit path, held as a test.
//!
//! The universal construction agrees on one consensus cell per write and
//! never revisits it, so what one cell retains *is* the store's memory
//! growth. This binary installs a counting `#[global_allocator]` and prices
//! a one-op request on each arm — guest put, VIP put, local read — in
//! allocator calls (`alloc` + `realloc`; `dealloc` is not a call) and in
//! what the request leaves allocated. Sizes are the **requested** sizes,
//! not the allocator's chunk sizes, so the figures do not depend on glibc.
//!
//! The other factor of the store's memory is what a stored key costs on
//! each replica that holds it; a fourth line prices that: what one port's
//! replicas retain per preloaded key once the port has caught up.
//!
//! A fifth line prices the way back: the frees (`dealloc` calls) per cell
//! when a checkpoint seals a shard log's prefix and every cursor moves past
//! it, so that nothing holds the prefix any more and it is released.
//!
//! A sixth line prices what a lagging replica pays to catch up: allocator
//! calls per foreign one-put cell while a caught-up port replays cells
//! written since. The record is borrowed from its cell and replayed for its
//! effect alone, so the budget is zero.
//!
//! A seventh line prices a deep clone of a replica's map — what every
//! checkpoint seal and every new handle makes: allocator calls per key, a
//! fixed number of buffers per leaf and none per key.
//!
//! A second table prices the same store behind the wire: a `StoreServer`
//! over `sim_pair` connections, in allocator calls made inside `poll()`
//! per served frame — from the request's bytes arriving to its response's
//! bytes sent — for a put and a local get on each tier, a 64-frame guest
//! batch and a 16-key scan.
//!
//! A change that adds an allocation to the commit path or the serve path
//! fails here and has to raise a budget below to land — that is, it has to
//! say so.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use asymmetric_progress::core::liveness::Liveness;
use asymmetric_progress::net::{NetClient, ServerConfig, StoreServer};
use asymmetric_progress::store::{
    Batch, Client, KeyMap, Request, ShardCmd, ShardLog, ShardSpec, Store, StoreBuilder, StoreOp,
    TierCredential,
};
use asymmetric_progress::universal::AsymmetricFactory;

struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);
static LIVE_ALLOCS: AtomicI64 = AtomicI64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

// SAFETY: every method forwards to `System` with the caller's own arguments
// and only counts around the call.
// RELAXED (all counters): statistics read by the one thread that made them.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.fetch_add(1, Ordering::Relaxed);
        LIVE_ALLOCS.fetch_sub(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const KEYS: u32 = 100_000;
const REQUESTS: u32 = 50_000;

/// Per-request cost of one arm — measured, or allowed: allocator calls,
/// and allocations and requested bytes still live when the arm ends.
#[derive(Debug)]
struct Census {
    calls: f64,
    retained_allocs: f64,
    retained_bytes: f64,
}

fn key(k: u32) -> String {
    format!("k{k:07}")
}

/// A deterministic walk over the preloaded keys (every shard is visited).
fn nth_key(i: u32) -> String {
    key(i.wrapping_mul(2_654_435_761) % KEYS)
}

fn one_op(client: &mut Client<'_>, op: StoreOp) {
    let resp = client.request(Request::new(vec![op]));
    assert!(resp.results[0].is_ok(), "the census prices served requests only");
}

/// Prices `work` per each of the `n` units it is made of.
fn measure(n: u32, work: impl FnOnce()) -> Census {
    let snapshot = || {
        (
            CALLS.load(Ordering::Relaxed) as f64,
            LIVE_ALLOCS.load(Ordering::Relaxed) as f64,
            LIVE_BYTES.load(Ordering::Relaxed) as f64,
        )
    };
    let before = snapshot();
    work();
    let after = snapshot();
    let n = f64::from(n);
    Census {
        calls: (after.0 - before.0) / n,
        retained_allocs: (after.1 - before.1) / n,
        retained_bytes: (after.2 - before.2) / n,
    }
}

/// Runs `REQUESTS` one-op requests built by `op` and prices them.
fn measure_requests(client: &mut Client<'_>, op: impl Fn(u32) -> StoreOp) -> Census {
    measure(REQUESTS, || (0..REQUESTS).for_each(|i| one_op(client, op(i))))
}

/// Brings `client`'s replica of every shard up to the log tail, so that an
/// arm is not charged for replaying the cells of the arm before it.
fn catch_up(client: &mut Client<'_>) {
    for i in 0..64 {
        one_op(client, StoreOp::Get(nth_key(i)));
    }
}

#[test]
fn commit_path_allocations_stay_within_budget() {
    let store = StoreBuilder::new().build().expect("default sizing builds");
    let mut guest = store.client(store.admit_guest());
    let mut vip = store.client(store.admit_vip().expect("a VIP port is free"));
    for chunk in (0..KEYS).collect::<Vec<_>>().chunks(256) {
        let ops = chunk.iter().map(|&k| StoreOp::Put(key(k), u64::from(k))).collect();
        assert!(guest.execute(ops).iter().all(Result::is_ok));
    }

    // The VIP's port has replayed nothing yet: catching up builds its
    // replica of every shard, cell by cell, and retains nothing else (the
    // cells are the log's, already counted).
    let stored_key = measure(KEYS, || catch_up(&mut vip));

    let put = |i: u32| StoreOp::Put(nth_key(i), u64::from(i));
    let get = |i: u32| StoreOp::Get(nth_key(i));
    // Warm every lazily built piece of both sessions before pricing them.
    for i in 0..256 {
        one_op(&mut guest, put(i));
        one_op(&mut vip, put(i));
    }

    catch_up(&mut guest);
    let guest_put = measure_requests(&mut guest, put);
    catch_up(&mut vip);
    let vip_put = measure_requests(&mut vip, put);
    catch_up(&mut guest);
    let local_read = measure_requests(&mut guest, get);

    // The budgets are the census of the commit that set them: a shard log
    // is a chain of 64-cell segments, each one allocation, so a cell has
    // no node and no link of its own (its parent read 21 and 16 calls, and
    // 5 allocations / 216 B retained per put).
    //
    // What a put's cell leaves, guest or VIP alike, is three allocations
    // and its share of a fourth: 48 B of its 3,096 B segment (the
    // consensus object — decision slot, inline rounds, at-most-once mask —
    // plus a 64th of the segment's `Arc` counts and link), the batch's
    // 72 B `Arc<[StoreOp]>`, the 8 B key and the 56 B decided record. A
    // stored key's calls are its share of its leaf's growth, and what it
    // keeps is its bytes in that leaf: a 16 B slot (head and value), a 4 B
    // tag and its share of the leaf's header and fence entry, 21.3 B in a
    // full leaf. The budget is that and no more (it was twice the census),
    // so a layout that stores a key's bytes twice fails here.
    //
    // Every other call is freed before the request returns:
    // - 3 are this harness building its request: the key's two (`format!`
    //   grows it once) and the `Vec<StoreOp>`;
    // - 7 are the round on every arm: the run's envelope list, the plan's
    //   three vectors (per-shard, per-slot, the one sub-batch), the
    //   shard's response vector, the reassembled one and the `Response`
    //   list;
    // - 1 is the shard's digest, published into its register on every
    //   visit;
    // - a put adds the announce record (1); a guest's put adds its round-0
    //   adopt-commit object, its register slice, the slice's box, and its
    //   proposal and flag records (5), retired when it leaves.
    let cell = Census {
        calls: 3.0 + SEGMENT_SHARE,
        retained_allocs: 3.0 + SEGMENT_SHARE,
        retained_bytes: 136.0 + 3096.0 * SEGMENT_SHARE,
    };
    let put_budget = |other_calls: f64| Census { calls: cell.calls + other_calls, ..cell };
    let arms = [
        ("guest put", guest_put, put_budget(16.0)),
        ("vip put", vip_put, put_budget(11.0)),
        (
            "local read",
            local_read,
            Census { calls: 12.0, retained_allocs: 0.0, retained_bytes: 0.0 },
        ),
        (
            "stored key / replica",
            stored_key,
            Census { calls: 0.5, retained_allocs: 0.1, retained_bytes: 22.0 },
        ),
    ];
    println!("per request, per key     calls  retained allocs  retained bytes");
    for (name, census, _) in &arms {
        println!(
            "{name:<22} {:>7.2} {:>16.2} {:>15.1}",
            census.calls, census.retained_allocs, census.retained_bytes
        );
    }
    for (name, census, budget) in &arms {
        assert!(
            census.calls <= budget.calls + SLACK
                && census.retained_allocs <= budget.retained_allocs + SLACK
                && census.retained_bytes <= budget.retained_bytes + SLACK * 64.0,
            "{name} is over its allocation budget: {census:?}"
        );
    }

    // Retiring a cell frees what it retained: three allocations and its
    // share of its segment (its parent freed five: node, link, record, ops
    // and key).
    let retired = retired_cell_frees();
    println!("retired cell, frees      {retired:>7.3}");
    let budget = cell.retained_allocs;
    assert!(retired <= budget + SLACK, "a retired cell is over its free budget: {retired:.3}");

    // Replaying a foreign write costs its effect on the replica and nothing
    // else: the record is borrowed from its cell and no response is built
    // (its parent read 1.0, the response vector nobody read).
    let replayed = replayed_cell_calls();
    println!("replayed cell, calls     {replayed:>7.3}");
    assert!(replayed <= SLACK, "a replayed cell is over its call budget: {replayed:.3}");

    // A deep clone copies each leaf's buffers whole: two allocations per
    // leaf of 8-byte keys (slots and tags; the long-key text is empty),
    // none per key.
    let cloned = deep_clone_calls();
    println!("deep clone, calls / key  {cloned:>7.3}");
    assert!(cloned <= 0.1, "a deep clone is over its call budget: {cloned:.3} per key");

    serve_path_allocations_stay_within_budget(&store);
}

/// Allocator calls per key for a deep clone of a `KEYS`-key map.
fn deep_clone_calls() -> f64 {
    let map: KeyMap = (0..KEYS).map(|k| (key(k), u64::from(k))).collect();
    let mut clone = None;
    let census = measure(KEYS, || clone = Some(map.clone()));
    assert_eq!(clone.as_ref(), Some(&map));
    census.calls
}

/// Allocator calls per foreign cell while a caught-up port catches up: a
/// `(2,1)`-live log whose VIP port holds a replica of every key; its guest
/// port then writes `REQUESTS` one-put batches over those keys, and the VIP
/// replays them. Overwriting a stored key allocates nothing in the map, so
/// every call counted is the replay's own.
fn replayed_cell_calls() -> f64 {
    const STORED: u32 = 4_096;
    let factory = AsymmetricFactory::new(Liveness::new_first_n(2, 1));
    let log = Arc::new(ShardLog::new(ShardSpec::default(), factory, 2));
    let mut vip = log.owned_handle(0).expect("port 0 is free");
    let mut guest = log.owned_handle(1).expect("port 1 is free");
    for chunk in (0..STORED).collect::<Vec<_>>().chunks(256) {
        let puts = chunk.iter().map(|&k| StoreOp::Put(key(k), 0)).collect();
        guest.apply(ShardCmd::Batch(Batch::new(0, puts)));
    }
    vip.sync_read(|_| ());
    for i in 0..REQUESTS {
        let put = StoreOp::Put(key(i % STORED), u64::from(i));
        guest.apply(ShardCmd::Batch(Batch::new(0, vec![put])));
    }
    let census = measure(REQUESTS, || vip.sync_read(|_| ()));
    assert_eq!(vip.replayed_cells(), guest.replayed_cells(), "the VIP caught up");
    census.calls
}

/// Frees per cell when a shard log's prefix is released: a `(2,1)`-live
/// log takes `REQUESTS` one-put batches from its VIP port; its guest port
/// catches up, then seals a checkpoint, and the VIP's cursor moves past the
/// checkpoint cell. Nothing holds the sealed prefix after that. Frees are
/// counted from the seal on, so the count includes the seal's own few.
fn retired_cell_frees() -> f64 {
    let factory = AsymmetricFactory::new(Liveness::new_first_n(2, 1));
    let log = Arc::new(ShardLog::new(ShardSpec::default(), factory, 2));
    let mut vip = log.owned_handle(0).expect("port 0 is free");
    let mut guest = log.owned_handle(1).expect("port 1 is free");
    for i in 0..REQUESTS {
        let put = StoreOp::Put(nth_key(i), u64::from(i));
        vip.apply(ShardCmd::Batch(Batch::new(0, vec![put])));
    }
    guest.sync_read(|_| ());
    let before = FREES.load(Ordering::Relaxed);
    guest.checkpoint();
    vip.sync_read(|_| ());
    let frees = FREES.load(Ordering::Relaxed) - before;
    frees as f64 / f64::from(REQUESTS)
}

/// A hair of slack: amortized growth of long-lived buffers is a fraction of
/// an allocation per request, a new allocation on the path is a whole one.
const SLACK: f64 = 0.01;

/// A cell's share of its segment's one allocation: a shard log allocates
/// its cells 64 at a time.
const SEGMENT_SHARE: f64 = 1.0 / 64.0;

const TOKEN: u64 = 0xfeed;

const VIP: TierCredential = TierCredential::Vip { token: TOKEN };

/// One reactor turn of an arm: one one-op frame of `op` from each of
/// `clients`, all claiming `credential`; then every answer is drained.
/// Returns the allocator calls made inside `poll()`: the clients' encoding
/// and decoding is not counted.
fn turn(
    server: &mut StoreServer<'_>,
    clients: &mut [NetClient],
    credential: TierCredential,
    op: &impl Fn(u32) -> StoreOp,
    turn: u32,
) -> u64 {
    let frames = clients.len() as u32;
    for (f, client) in (0..).zip(clients.iter_mut()) {
        client.send(&Request::new(vec![op(turn * frames + f)]).credential(credential));
    }
    let before = CALLS.load(Ordering::Relaxed);
    let stats = server.poll();
    let calls = CALLS.load(Ordering::Relaxed) - before;
    assert_eq!(stats.served, clients.len(), "the census prices served frames only");
    for client in clients.iter_mut() {
        for (_, results) in client.drain().expect("well-formed responses") {
            assert!(results.iter().all(Result::is_ok), "served, not refused: {results:?}");
        }
    }
    calls
}

/// Allocator calls per frame inside `poll()` over `turns` turns of an arm,
/// after as many unpriced ones to warm the reactor's buffers and to catch
/// the serving port up with the cells of the arm before.
fn measure_turns(
    server: &mut StoreServer<'_>,
    clients: &mut [NetClient],
    credential: TierCredential,
    turns: u32,
    op: impl Fn(u32) -> StoreOp,
) -> f64 {
    for t in 0..turns {
        turn(server, clients, credential, &op, t);
    }
    let calls: u64 = (0..turns).map(|t| turn(server, clients, credential, &op, t)).sum();
    calls as f64 / f64::from(turns * clients.len() as u32)
}

/// The same store behind the wire: one `StoreServer` over `sim_pair`
/// connections, priced per served frame from the bytes the reactor drains
/// to the bytes it sends back.
fn serve_path_allocations_stay_within_budget(store: &Store) {
    let cfg = ServerConfig { vip_tokens: vec![TOKEN], ..ServerConfig::default() };
    let mut server = StoreServer::new(store, cfg);
    let mut vip = [NetClient::connect(&mut server, VIP)];
    let mut guests: Vec<NetClient> =
        (0..64).map(|_| NetClient::connect(&mut server, TierCredential::Guest)).collect();
    server.poll(); // the handshakes

    let put = |i: u32| StoreOp::Put(nth_key(i), u64::from(i));
    let get = |i: u32| StoreOp::Get(nth_key(i));
    let scan = |i: u32| {
        let from = i.wrapping_mul(2_654_435_761) % (KEYS - 16);
        StoreOp::Scan { from: key(from), to: key(from + 16) }
    };
    const TURNS: u32 = 4_000;
    let guest = TierCredential::Guest;
    let s = &mut server;
    // The budgets are the census of the commit that set them: a put's cell
    // is three allocations and a 64th of its segment (its parent read 15,
    // 20, 11, 11, 4.18 and 54.1).
    //
    // A one-op frame's calls are its decoded request — the ops `Vec` and
    // the key, which a put's cell keeps — and then exactly the calls of the
    // same request in process less the harness's three: the round's seven,
    // the digest and what its commit builds (see above). A guest frame in a
    // 64-frame batch shares the round and the commits with its batch-mates
    // and keeps three calls of its own: its ops, its key and its results.
    // A scan adds a copy of itself for each shard but the last; each
    // shard's sub-batch, batch, response vectors and digest; and one
    // `String` per key it returns.
    let arms = [
        ("vip put", measure_turns(s, &mut vip, VIP, TURNS, put), 13.0 + SEGMENT_SHARE),
        ("guest put", measure_turns(s, &mut guests[..1], guest, TURNS, put), 18.0 + SEGMENT_SHARE),
        ("vip get", measure_turns(s, &mut vip, VIP, TURNS, get), 11.0),
        ("guest get", measure_turns(s, &mut guests[..1], guest, TURNS, get), 11.0),
        ("64-frame guest batch", measure_turns(s, &mut guests, guest, TURNS / 64, put), 4.07),
        ("16-key scan", measure_turns(s, &mut vip, VIP, TURNS, scan), 54.1),
    ];
    println!("per frame, inside poll()  calls");
    for (name, calls, _) in &arms {
        println!("{name:<22} {calls:>8.3}");
    }
    for (name, calls, budget) in &arms {
        assert!(*calls <= budget + SLACK, "{name} is over its serve-path budget: {calls:.2}");
    }
}
