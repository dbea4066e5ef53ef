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
//! A seventh line prices a deep clone of a replica's map — what a port's
//! first write makes of a replica it shares: allocator calls per key, a
//! fixed number of buffers per leaf and none per key.
//!
//! A second table prices the same store behind the wire: a `StoreServer`
//! over `sim_pair` connections, in allocator calls made inside `poll()`
//! per served frame — from the request's bytes arriving to its response's
//! bytes sent — for a put and a local get on each tier, a 64-frame guest
//! batch and a 16-key scan. Its last two lines price a guest frame shed at
//! a full backlog, which is refused from its validated header, and a turn
//! over 4096 handshaken connections that have nothing to say: no allocator
//! call for either. README's per-request and per-frame tables are held to
//! the two tables: each row's first figures are the measured ones, at the
//! precision README prints.
//!
//! Two last lines count replicas, in copies of a store's maps: what a
//! recovered store holds before and after a VIP is admitted, and what a
//! store keeps after a checkpoint. A port that has not written since the
//! anchor shares the anchor's map, and a seal re-bases the idle ports, so
//! each is at most one copy per admitted VIP and one for the anchor.
//!
//! A change that adds an allocation to the commit path or the serve path
//! fails here and has to raise a budget below to land — that is, it has to
//! say so.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use asymmetric_progress::core::liveness::Liveness;
use asymmetric_progress::net::{NetClient, ServerConfig, StoreServer};
use asymmetric_progress::store::{
    Batch, Client, KeyMap, PackedBatch, Request, ShardCmd, ShardLog, ShardSpec, Store,
    StoreBuilder, StoreOp, StoreSnapshot, TierCredential, SEAL_EVERY,
};
use asymmetric_progress::universal::AsymmetricFactory;

struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);
static LIVE_ALLOCS: AtomicI64 = AtomicI64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

thread_local! {
    /// Allocator calls made by this thread. A server runs a housekeeping
    /// thread of its own (the seal cadence), so the per-frame lines count
    /// the polling thread's calls alone.
    static THREAD_CALLS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocator call on the global and the thread's counters.
fn count_call() {
    CALLS.fetch_add(1, Ordering::Relaxed);
    // A `Cell` needs no destructor, so this never meets a torn-down slot.
    let _ = THREAD_CALLS.try_with(|calls| calls.set(calls.get() + 1));
}

/// Allocator calls made by the calling thread so far.
fn thread_calls() -> u64 {
    THREAD_CALLS.with(Cell::get)
}

/// The tests of this binary share its counters, so each runs alone.
static SERIAL: Mutex<()> = Mutex::new(());

// SAFETY: every method forwards to `System` with the caller's own arguments
// and only counts around the call.
// RELAXED (all counters): statistics read by the one thread that made them
// (a test reads the global ones only while no other thread allocates).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_call();
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
        count_call();
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
    let _serial = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
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
    // 5 allocations / 216 B retained per put). The guests' rounds hang off
    // one pointer per cell (its parent read 184.4 B retained per put: two
    // pointers, in a 3,096 B segment).
    //
    // What an in-process put's cell leaves, guest or VIP alike, is three
    // allocations and its share of a fourth: 40 B of its 2,584 B segment (the
    // consensus object — liveness spec, decision slot, the guests' round-0
    // word, at-most-once mask — plus a 64th of the segment's `Arc`
    // counts and link), the batch's
    // 72 B `Arc<[StoreOp]>`, the 8 B key and the 56 B decided record: the
    // caller's ops move into the cell as they are (a thread that decodes
    // its keys packs them instead, see `packed` below). A
    // stored key's calls are its share of its leaf's two buffers (heads
    // and slots, each made with room for a full leaf), and what it keeps
    // is its bytes in that leaf: an 8 B head, a 12 B slot (tag and value)
    // and its share of the leaf's 80 B header and 12 B fence entry, 21.4 B
    // in a full leaf and 21.9 B with the spare capacity of the leaf vector
    // and the fence. The budget is that and no more (it was twice the
    // census), so a layout that stores a key's bytes twice fails here.
    //
    // Every other call is freed before the request returns:
    // - 3 are this harness building its request: the key's two (`format!`
    //   grows it once) and the `Vec<StoreOp>`;
    // - 1 is the round on every arm: the shard's response vector. A
    //   one-op request touches one shard, so the router plans it in the
    //   one-shard form: its ops `Vec` is the sub-batch and the shard's
    //   responses are the request's. A one-envelope run holds its
    //   envelope inline and builds its one `Response` from the shard's
    //   responses: no envelope list, no `Response` list. A read-only
    //   sub-batch is answered from the ops `Vec` itself: no
    //   `Arc<[StoreOp]>`. (Its parent's round made 3 calls on a put and 4
    //   on a read, with those three.) A spread round adds the plan's
    //   three vectors (per-shard, per-slot, each sub-batch) and the
    //   reassembled one;
    // - a put adds the announce record (1); a guest's put adds three calls
    //   freed when it leaves round 0: round 0 itself (the adopt-commit
    //   object and the link to later rounds, behind the cell's one word),
    //   the object's register slice, and the box of its proposal. Its
    //   phase-2 announcement is a byte naming a proposal (its parent read
    //   14.02: round 0 was an `Arc` in a boxed epoch register, and the
    //   phase-2 register boxed a flag and a copy of the value).
    let cell = Census {
        calls: 3.0 + SEGMENT_SHARE,
        retained_allocs: 3.0 + SEGMENT_SHARE,
        retained_bytes: 136.0 + 2584.0 * SEGMENT_SHARE,
    };
    let put_budget = |other_calls: f64| Census { calls: cell.calls + other_calls, ..cell };
    let arms = [
        ("guest put", guest_put, put_budget(7.0)),
        ("vip put", vip_put, put_budget(4.0)),
        (
            "local read",
            local_read,
            Census { calls: 4.0, retained_allocs: 0.0, retained_bytes: 0.0 },
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
    readme_per_request_rows_match(&arms);
    for (name, census, budget) in &arms {
        assert!(
            census.calls <= budget.calls + SLACK
                && census.retained_allocs <= budget.retained_allocs + SLACK
                && census.retained_bytes <= budget.retained_bytes + SLACK * 64.0,
            "{name} is over its allocation budget: {census:?}"
        );
    }

    // A thread that decodes the keys it commits (a server's reactor) packs
    // its batch into the cell: two allocations and its share of a third,
    // the same segment share and decided record, and a 48 B packed buffer
    // (`Arc` counts, op count, and the put's tag, key length, key and
    // value) where the `Arc<[StoreOp]>` and the key were. Its calls are
    // the buffer, the record, the announce record and the response vector.
    let packed = packed_cell();
    println!(
        "packed cell              {:>7.2} {:>16.2} {:>15.1}",
        packed.calls, packed.retained_allocs, packed.retained_bytes
    );
    assert!(
        packed.calls <= 4.0 + SEGMENT_SHARE + SLACK
            && packed.retained_allocs <= 2.0 + SEGMENT_SHARE + SLACK
            && packed.retained_bytes <= 104.0 + 2584.0 * SEGMENT_SHARE + SLACK * 64.0,
        "a packed cell is over its allocation budget: {packed:?}"
    );

    // Retiring a packed cell frees what it retained: two allocations and
    // its share of its segment (an in-process cell frees three; its parent
    // freed five: node, link, record, ops and key).
    let retired = retired_cell_frees();
    println!("retired cell, frees      {retired:>7.3}");
    let budget = packed.retained_allocs;
    assert!(retired <= budget + SLACK, "a retired cell is over its free budget: {retired:.3}");

    // The seal cadence's step frees what a retired cell retained and
    // allocates next to nothing for it: the seal port's catch-up replays
    // the cells (none is built anew), and the seal, the re-bases and their
    // bookkeeping are a few calls per shard, not per cell.
    let (seal_calls, seal_frees) = cadence_seal_per_retired_cell();
    println!("cadence seal, calls / frees per retired cell {seal_calls:>7.3} {seal_frees:>7.3}");
    assert!(seal_calls <= 0.05, "a cadence seal is over its call budget: {seal_calls:.3}");
    assert!(
        seal_frees <= cell.retained_allocs + SLACK,
        "a cadence seal is over its free budget: {seal_frees:.3}"
    );

    // Replaying a foreign write costs its effect on the replica and nothing
    // else: the record is borrowed from its cell and no response is built
    // (its parent read 1.0, the response vector nobody read).
    let replayed = replayed_cell_calls();
    println!("replayed cell, calls     {replayed:>7.3}");
    assert!(replayed <= SLACK, "a replayed cell is over its call budget: {replayed:.3}");

    // A deep clone copies each leaf's buffers whole: two allocations per
    // leaf of 8-byte keys (heads and slots; the long-key text is empty),
    // none per key.
    let cloned = deep_clone_calls();
    println!("deep clone, calls / key  {cloned:>7.3}");
    assert!(cloned <= 0.1, "a deep clone is over its call budget: {cloned:.3} per key");

    serve_path_allocations_stay_within_budget(&store);
    drop(store);

    // A port nobody uses holds nothing of its own: a recovered store's
    // ports share the snapshot's maps, and admitting a VIP makes its
    // replica its own (its parent's held 9: one replica per port and the
    // anchor).
    let (idle, admitted) = recovered_replica_copies();
    println!("recovered store, replica copies: {idle:.3}, {admitted:.3} once a VIP is admitted");
    assert!(idle <= 1.0 + COPY_SLACK, "a recovered store holds {idle:.3} replica copies");
    assert!(admitted <= 2.0 + COPY_SLACK, "one VIP admitted, {admitted:.3} replica copies");

    // A checkpoint frees the cells behind it: the idle ports are re-based
    // onto its anchor, so what stays is the anchor's map and the VIP's (its
    // parent kept every cell, pinned by the ports nobody used).
    let kept = checkpointed_store_copies();
    println!("checkpointed store, replica copies: {kept:.3}");
    assert!(kept <= 2.0 + COPY_SLACK, "a checkpoint left {kept:.3} replica copies' worth");
}

/// What a replica copy may be off by: a store's fixed structures (segments
/// at the anchors, digests, metric registries) are a small fraction of a
/// copy of `KEYS` keys.
const COPY_SLACK: f64 = 0.1;

/// Preloads `KEYS` keys into `store` through a guest port, 256 to a batch.
fn preload(store: &Store) {
    let mut guest = store.client(store.admit_guest());
    for chunk in (0..KEYS).collect::<Vec<_>>().chunks(256) {
        let ops = chunk.iter().map(|&k| StoreOp::Put(key(k), u64::from(k))).collect();
        assert!(guest.execute(ops).iter().all(Result::is_ok));
    }
}

/// The bytes a recovered default-sized store holds, in copies of its
/// snapshot's maps: once recovered, and once a VIP is admitted too.
fn recovered_replica_copies() -> (f64, f64) {
    let path = std::env::temp_dir().join(format!("alloc-budget-{}.snapshot", std::process::id()));
    let store = StoreBuilder::new().build().expect("default sizing builds");
    preload(&store);
    store.checkpoint().write_to(&path).expect("the snapshot is written");
    drop(store);
    let mut snapshot = None;
    let one_copy = measure(1, || snapshot = Some(StoreSnapshot::read_from(&path).unwrap()));
    drop(snapshot);
    let mut recovered = None;
    let idle = measure(1, || recovered = Some(StoreBuilder::new().recover(&path).unwrap()));
    let store = recovered.expect("the store recovers");
    let admitted = measure(1, || _ = store.admit_vip().expect("a VIP port is free"));
    std::fs::remove_file(&path).expect("the snapshot is removed");
    let copies = |bytes: f64| bytes / one_copy.retained_bytes;
    (copies(idle.retained_bytes), copies(idle.retained_bytes + admitted.retained_bytes))
}

/// The bytes a default-sized store holds after a preload through a guest
/// port, `REQUESTS` VIP puts and one checkpoint, in copies of its maps.
fn checkpointed_store_copies() -> f64 {
    let mut sealed = None;
    let held = measure(1, || {
        let store = StoreBuilder::new().build().expect("default sizing builds");
        preload(&store);
        let mut vip = store.client(store.admit_vip().expect("a VIP port is free"));
        (0..REQUESTS).for_each(|i| one_op(&mut vip, StoreOp::Put(nth_key(i), u64::from(i))));
        let snapshot = store.checkpoint();
        sealed = Some((store, snapshot));
    });
    // One copy of every shard's map, made from the snapshot the anchors
    // share.
    let mut copy = None;
    let (_store, snapshot) = sealed.expect("the store was sealed");
    let one_copy = measure(1, || {
        copy = Some(snapshot.shards.iter().map(|s| (*s.state).clone()).collect::<Vec<_>>())
    });
    held.retained_bytes / one_copy.retained_bytes
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
        guest.apply(ShardCmd::Packed(PackedBatch::new(0, &[put])));
    }
    let census = measure(REQUESTS, || vip.sync_read(|_| ()));
    assert_eq!(vip.replayed_cells(), guest.replayed_cells(), "the VIP caught up");
    census.calls
}

/// What a packed cell retains, per cell: a `(2,1)`-live log's VIP port
/// appends `REQUESTS` one-put `PackedBatch`es over keys its replica
/// already holds (an overwrite allocates nothing in the map), built
/// beforehand.
fn packed_cell() -> Census {
    let factory = AsymmetricFactory::new(Liveness::new_first_n(2, 1));
    let log = Arc::new(ShardLog::new(ShardSpec::default(), factory, 2));
    let mut vip = log.owned_handle(0).expect("port 0 is free");
    let puts: Vec<_> = (0..REQUESTS).map(|i| [StoreOp::Put(nth_key(i), u64::from(i))]).collect();
    for chunk in puts.chunks(256) {
        vip.apply(ShardCmd::Batch(Batch::new(0, chunk.iter().flatten().cloned().collect())));
    }
    measure(REQUESTS, || {
        for put in &puts {
            vip.apply(ShardCmd::Packed(PackedBatch::new(0, put)));
        }
    })
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
        vip.apply(ShardCmd::Packed(PackedBatch::new(0, &[put])));
    }
    guest.sync_read(|_| ());
    let before = FREES.load(Ordering::Relaxed);
    guest.checkpoint();
    vip.sync_read(|_| ());
    let frees = FREES.load(Ordering::Relaxed) - before;
    frees as f64 / f64::from(REQUESTS)
}

/// Allocator calls and frees of one [`Store::seal_due`] per cell it
/// retires: a default-sized store takes `8 × SEAL_EVERY` one-put guest
/// requests over 64 keys, then one step seals every shard and re-bases
/// every port (no VIP is admitted), so nothing holds a sealed segment any
/// more. Counted over the step alone, per cell below the new anchors.
fn cadence_seal_per_retired_cell() -> (f64, f64) {
    let store = StoreBuilder::new().build().expect("default sizing builds");
    let mut guest = store.client(store.admit_guest());
    for i in 0..8 * SEAL_EVERY as u32 {
        one_op(&mut guest, StoreOp::Put(key(i % 64), u64::from(i)));
    }
    let anchored = |store: &Store| store.anchor_indices().iter().sum::<u64>();
    let before = (anchored(&store), CALLS.load(Ordering::Relaxed), FREES.load(Ordering::Relaxed));
    assert_eq!(store.seal_due(), 4, "every shard is due");
    let calls = CALLS.load(Ordering::Relaxed) - before.1;
    let frees = FREES.load(Ordering::Relaxed) - before.2;
    let retired = (anchored(&store) - before.0) as f64;
    (calls as f64 / retired, frees as f64 / retired)
}

/// What a store retains does not grow with the requests it serves once the
/// seal cadence runs: a default-sized store preloads `PRELOAD` keys, then
/// takes `N` and then `3 N` more one-put guest requests over them, its
/// owner calling [`Store::seal_due`] after every chunk. The live
/// allocations after `N` and after `4 N` requests differ by at most one
/// cadence's worth of cells per shard — up to `SEAL_EVERY` unsealed cells,
/// a chunk's and the anchor's segment — plus one replica of the maps.
#[test]
fn retention_is_flat_in_request_count_under_the_seal_cadence() {
    const PRELOAD: u32 = 10_000;
    const N: u32 = 8 * SEAL_EVERY as u32;
    const CHUNK: u32 = 256;
    let _serial = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let store = StoreBuilder::new().build().expect("default sizing builds");
    let mut guest = store.client(store.admit_guest());
    for chunk in (0..PRELOAD).collect::<Vec<_>>().chunks(CHUNK as usize) {
        let ops = chunk.iter().map(|&k| StoreOp::Put(key(k), u64::from(k))).collect();
        assert!(guest.execute(ops).iter().all(Result::is_ok));
    }
    let mut run = |from: u32, n: u32| {
        for i in from..from + n {
            let k = i.wrapping_mul(2_654_435_761) % PRELOAD;
            one_op(&mut guest, StoreOp::Put(key(k), u64::from(i)));
            if (i + 1) % CHUNK == 0 {
                store.seal_due();
            }
        }
        LIVE_ALLOCS.load(Ordering::Relaxed)
    };
    let after_n = run(0, N);
    let after_4n = run(N, 3 * N);
    let sealed = store.scrape().value("store_cadence_seals_total", &[]).unwrap();
    assert!(sealed >= 4 * 4 * N as u64 / 4 / SEAL_EVERY / 2, "the cadence sealed {sealed} times");

    // One replica of the maps, in allocations.
    let snapshot = store.checkpoint();
    let mut copy = None;
    let replica = measure(1, || {
        copy = Some(snapshot.shards.iter().map(|s| (*s.state).clone()).collect::<Vec<_>>())
    });
    let shards = store.live_shards() as f64;
    let cadence = shards * (SEAL_EVERY as f64 + f64::from(CHUNK) + 64.0) * (3.0 + SEGMENT_SHARE);
    let grew = (after_4n - after_n) as f64;
    println!(
        "live allocations after {N} and {} requests: {after_n}, {after_4n} ({grew:+}; bound ±{:.0})",
        4 * N,
        cadence + replica.retained_allocs
    );
    assert!(
        grew.abs() <= cadence + replica.retained_allocs,
        "retention grew by {grew} allocations from {N} to {} requests",
        4 * N
    );
}

/// The serve path under a live seal cadence: a server without a VIP
/// ticket (`ServerConfig::default()`), whose guest batches commit on a
/// shared guest port, serves 64-frame guest put turns over a preloaded
/// store while its own cadence thread seals, until every live shard has
/// been sealed twice. Counted on the polling thread, a frame costs about
/// what the 64-frame census line says, and no turn pays for a copy of a
/// shard's map: a cadence seal leaves a port in use alone, and when the
/// port in use is the seal port itself, the copy the seal would leave its
/// next write is made on the cadence's thread. Once with six guest ports
/// (the server's is not the seal port) and once with one (it is).
#[test]
fn a_cadence_seal_leaves_the_serve_path_no_copy() {
    const WARM: u32 = 64;
    let _serial = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    for guest_ports in [6, 1] {
        let store = StoreBuilder::new().guest_ports(guest_ports).build().expect("sizing builds");
        preload(&store);
        let mut server = StoreServer::new(&store, ServerConfig::default());
        let mut guests: Vec<NetClient> =
            (0..64).map(|_| NetClient::connect(&mut server, TierCredential::Guest)).collect();
        server.poll(); // the handshakes
        let put = |i: u32| StoreOp::Put(nth_key(i), u64::from(i));
        let seals = || store.scrape().value("store_cadence_seals_total", &[]).unwrap_or(0);
        let wanted = 2 * store.live_shards() as u64;
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(300);
        let (mut calls, mut turns, mut worst) = (0, 0, 0);
        for t in 0.. {
            if seals() >= wanted {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "{} cadence seals", seals());
            let turn_calls = turn(&mut server, &mut guests, TierCredential::Guest, &put, t);
            if t >= WARM {
                (calls, turns, worst) = (calls + turn_calls, turns + 1, worst.max(turn_calls));
            }
        }
        let per_frame = calls as f64 / f64::from(turns * 64);
        // A copy of one shard's map is two calls per leaf of 64 keys.
        let copy = f64::from(KEYS) / store.live_shards() as f64 / 32.0;
        println!(
            "{guest_ports} guest port(s), {turns} turns under the cadence: {per_frame:.3} calls \
             per frame, {worst} in the worst turn (a map copy is ~{copy:.0})"
        );
        // The 64-frame census line is 2.857; a cadence seal that lands in
        // the cell a turn's commit proposed for adds one guest round.
        assert!(per_frame <= 3.2, "a frame under the cadence makes {per_frame:.3} calls");
        assert!(
            (worst as f64) < 64.0 * 3.2 + copy / 2.0,
            "a turn under the cadence made {worst} calls: a shard's map was copied"
        );
    }
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
/// Returns the allocator calls the polling thread made inside `poll()`:
/// the clients' encoding and decoding is not counted, and neither is the
/// server's housekeeping thread.
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
    let before = thread_calls();
    let stats = server.poll();
    let calls = thread_calls() - before;
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
///
/// A turn appends at most one cell to a shard, and each half is `turns` ≤
/// 4 000 turns over at least four shards, so a checkpoint of `store` before
/// each half, made by the harness outside `poll()`, keeps every shard's log
/// short of `SEAL_EVERY` cells past its anchor, and the server's seal
/// cadence never seals while a turn runs. A cadence seal
/// that lands in the cell a turn's guest commit proposed for makes that
/// commit propose again in the next cell — one more guest round, three
/// calls, at most once per shard per seal, so about 0.003 calls per frame
/// at `SEAL_EVERY` — and where it lands is the scheduler's choice: the
/// census prices the frame on a deterministic schedule instead.
fn measure_turns(
    server: &mut StoreServer<'_>,
    store: &Store,
    clients: &mut [NetClient],
    credential: TierCredential,
    turns: u32,
    op: impl Fn(u32) -> StoreOp,
) -> f64 {
    let mut sealed_turn = |server: &mut StoreServer<'_>, t: u32| {
        if t == 0 {
            store.checkpoint();
        }
        turn(server, clients, credential, &op, t)
    };
    for t in 0..turns {
        sealed_turn(server, t);
    }
    let calls: u64 = (0..turns).map(|t| sealed_turn(server, t)).sum();
    calls as f64 / f64::from(turns * clients.len() as u32)
}

/// The same store behind the wire: one `StoreServer` over `sim_pair`
/// connections, priced per served frame from the bytes the reactor drains
/// to the bytes it sends back.
fn serve_path_allocations_stay_within_budget(store: &Store) {
    // Nothing is due when the server's cadence first looks (see
    // `measure_turns`).
    store.checkpoint();
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
    // is two allocations and a 64th of its segment (its parent read
    // 6.015, 9.015, 3, 3, 3.857 and 44.1, a call more per key: each
    // decoded key was a new allocation; its own parent 8.015, 11.015, 6,
    // 6, 3.873 and 50.1: every run built an envelope list and a
    // `Response` list, and every read-only sub-batch an `Arc<[StoreOp]>`).
    //
    // A one-op frame's calls are its decoded ops `Vec` — its key is
    // written into one a finished round on this thread let go of
    // (`key_from`) — and then exactly the calls of the same request in
    // process less the harness's three: the round's one, what its commit
    // builds (see above). A guest frame of a one-frame turn is a
    // one-envelope run too: the turn's dispatch takes each response as it
    // is built. A guest frame in a 64-frame batch shares the round and the
    // commits with its batch-mates and keeps two calls of its own: its ops
    // and its results. A scan adds a copy of itself for each shard but the
    // last; each shard's sub-batch and response vectors; the plan's
    // per-shard, per-slot and broadcast-index vectors and the reassembled
    // one; and one `String` per key it returns.
    let arms = [
        ("vip put", measure_turns(s, store, &mut vip, VIP, TURNS, put), 5.0 + SEGMENT_SHARE),
        (
            "guest put",
            measure_turns(s, store, &mut guests[..1], guest, TURNS, put),
            8.0 + SEGMENT_SHARE,
        ),
        ("vip get", measure_turns(s, store, &mut vip, VIP, TURNS, get), 2.0),
        ("guest get", measure_turns(s, store, &mut guests[..1], guest, TURNS, get), 2.0),
        (
            "64-frame guest batch",
            measure_turns(s, store, &mut guests, guest, TURNS / 64, put),
            2.86,
        ),
        ("16-key scan", measure_turns(s, store, &mut vip, VIP, TURNS, scan), 42.1),
    ];
    println!("per frame, inside poll()  calls");
    for (name, calls, _) in &arms {
        println!("{name:<22} {calls:>8.3}");
    }
    for (name, calls, budget) in &arms {
        assert!(*calls <= budget + SLACK, "{name} is over its serve-path budget: {calls:.2}");
    }
    readme_per_frame_rows_match(&arms);
    let cadence_seals = store.scrape().value("store_cadence_seals_total", &[]);
    assert_eq!(cadence_seals, Some(0), "a cadence seal landed inside the census");

    let shed = shed_frame_calls(store, TURNS / 64);
    println!("a guest frame shed at a full backlog: {shed:.3} allocator calls");
    assert_eq!(shed, 0.0, "a shed frame is refused from its header, not decoded");

    let idle = idle_turn_calls(store);
    println!("a turn over {IDLE_CONNS} idle connections: {idle} allocator calls");
    assert_eq!(idle, 0, "a turn with nothing to serve allocates");
}

/// The rows of README's table whose header row starts with `header`, as
/// cells, each cell cut to its first word: a row's name and then the first
/// figure of each column, the measured one (`10.02 (was 12.02, …)`).
fn readme_rows(header: &str) -> Vec<Vec<&'static str>> {
    let readme = include_str!("../README.md");
    readme
        .lines()
        .skip_while(|line| !line.starts_with(header))
        .skip(2) // the header and its separator
        .take_while(|line| line.starts_with('|'))
        .map(|row| {
            let mut cells = row.trim_matches('|').split('|').map(str::trim);
            let name = cells.next().unwrap_or_default();
            let figures = cells.map(|cell| cell.split_whitespace().next().unwrap_or_default());
            std::iter::once(name).chain(figures).collect()
        })
        .collect()
}

/// Whether README's `figure` is `measured` at the precision README prints
/// it (`10` is a whole number, `50.1` a tenth).
fn printed_as(figure: &str, measured: f64) -> bool {
    let decimals = figure.split_once('.').map_or(0, |(_, fraction)| fraction.len());
    figure == format!("{measured:.decimals$}")
}

/// README's per-request table against what this binary measured: every
/// row names the arm it reports, in order, and its first figure in each
/// column is that arm's calls, retained allocations and retained bytes.
fn readme_per_request_rows_match(arms: &[(&str, Census, Census)]) {
    let rows = readme_rows("| per request |");
    let reported = [
        ("guest put", "guest put"),
        ("VIP put", "vip put"),
        ("local read", "local read"),
        ("**per stored key, per replica**", "stored key / replica"),
    ];
    let names: Vec<&str> = rows.iter().map(|cells| cells[0]).collect();
    assert_eq!(names, reported.map(|(row, _)| row), "README's per-request rows");
    for (cells, (row, arm)) in rows.iter().zip(reported) {
        let (_, census, _) = arms.iter().find(|(name, ..)| *name == arm).expect("a measured arm");
        let measured = [census.calls, census.retained_allocs, census.retained_bytes];
        assert_eq!(cells.len(), 1 + measured.len(), "README's `{row}` row has three figures");
        for (figure, measured) in cells[1..].iter().zip(measured) {
            assert!(
                printed_as(figure, measured),
                "README's `{row}` row: {figure} against {measured}"
            );
        }
    }
}

/// README's per-frame table against what this binary measured: every row
/// names the arms it reports, in order, and its first figure is each of
/// them.
fn readme_per_frame_rows_match(arms: &[(&str, f64, f64)]) {
    let rows = readme_rows("| per frame, inside `poll()` |");
    let reported: [(&str, &[&str]); 5] = [
        ("VIP put", &["vip put"]),
        ("guest put", &["guest put"]),
        ("local get, either tier", &["vip get", "guest get"]),
        ("one frame of a 64-frame guest batch", &["64-frame guest batch"]),
        ("16-key scan", &["16-key scan"]),
    ];
    let names: Vec<&str> = rows.iter().map(|cells| cells[0]).collect();
    assert_eq!(names, reported.map(|(row, _)| row), "README's per-frame rows");
    for (cells, (row, arm_names)) in rows.iter().zip(reported) {
        for arm in arm_names {
            let calls = arms.iter().find(|(name, ..)| name == arm).map(|(_, calls, _)| *calls);
            let calls = calls.expect("an arm README reports");
            let figure = cells[1];
            assert!(
                printed_as(figure, calls),
                "README's `{row}` row: {figure} against {arm}'s {calls}"
            );
        }
    }
}

/// Allocator calls per frame inside `poll()` when every guest frame of a
/// turn meets a full backlog: `turns` turns of a one-put frame from each of
/// 64 guests, on a server that queues none and dispatches none, after as
/// many unpriced turns to warm its buffers and the pipes'.
fn shed_frame_calls(store: &Store, turns: u32) -> f64 {
    let cfg = ServerConfig {
        guest_queue_depth: 0,
        guest_dispatch_per_poll: 0,
        ..ServerConfig::default()
    };
    let mut server = StoreServer::new(store, cfg);
    let mut guests: Vec<NetClient> =
        (0..64).map(|_| NetClient::connect(&mut server, TierCredential::Guest)).collect();
    server.poll(); // the handshakes
    let mut shed_turn = |t: u32| {
        for (f, guest) in (0..).zip(guests.iter_mut()) {
            let i = t * 64 + f;
            guest.send(&Request::new(vec![StoreOp::Put(nth_key(i), u64::from(i))]));
        }
        let before = thread_calls();
        let stats = server.poll();
        let calls = thread_calls() - before;
        assert_eq!((stats.shed, stats.served), (64, 0), "every frame is shed");
        for guest in &mut guests {
            for (_, results) in guest.drain().expect("well-formed responses") {
                assert!(results.iter().all(Result::is_err), "refused: {results:?}");
            }
        }
        calls
    };
    for t in 0..turns {
        shed_turn(t);
    }
    let calls: u64 = (0..turns).map(shed_turn).sum();
    calls as f64 / f64::from(turns * 64)
}

const IDLE_CONNS: usize = 4096;

/// Allocator calls inside one `poll()` over [`IDLE_CONNS`] handshaken
/// connections with nothing to say, after one such turn to warm it.
fn idle_turn_calls(store: &Store) -> u64 {
    let mut server = StoreServer::new(store, ServerConfig::default());
    let idle: Vec<NetClient> =
        (0..IDLE_CONNS).map(|_| NetClient::connect(&mut server, TierCredential::Guest)).collect();
    server.poll(); // the handshakes
    server.poll();
    let before = thread_calls();
    let stats = server.poll();
    let calls = thread_calls() - before;
    assert_eq!(stats.visited, 0, "idle connections are not visited");
    drop(idle);
    calls
}
