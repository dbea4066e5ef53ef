//! Stress driver for the `apc-store` service layer.
//!
//! Run with: `cargo run --release --example store_bench`
//!
//! Sweeps every named workload [`Scenario`] (uniform, hot-key skew,
//! vip-heavy, guest-contention) at two shard counts, driving the store from
//! real client threads in both progress classes, and reports per-scenario
//! throughput plus the per-class mean latency — the service-level face of
//! the paper's asymmetric progress conditions: the VIP numbers stay flat
//! while the guest tier absorbs the contention.
//!
//! Every cell of the sweep also audits the store afterwards: the wait-free
//! stats snapshot must agree with a full scan about how many keys survived.
//!
//! After the sweep, the **hot-key-split scenario** melts one shard (every
//! client hammering its own hot key, all routed to the same shard), splits
//! it live mid-run, and asserts the ops/s recover above the pre-split
//! plateau; then the **compaction/recovery scenario** runs: the store is
//! checkpointed and flushed to disk, crashed, and recovered; the driver
//! reports the seal+fsync and recover timings, audits the recovered state
//! against the pre-crash scan, and quantifies the replay-cost win (a fresh
//! replica's replay steps with vs without a checkpoint).
//!
//! Last, the **durability scenario** attaches the op-granular WAL: VIP
//! commits opt into fsync-acknowledged `Sync` durability, guest commits
//! ride the coalesced group flusher (and are *denied* `Sync` — the typed
//! asymmetry), the process "crashes" with frames still buffered, and
//! snapshot + WAL replay recovers every acknowledged commit — audited,
//! with the `store_wal_*` series printed from the persister's scrape.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use asymmetric_progress::store::workload::{keys_on_shard, preloaded_shard_log, Scenario};
use asymmetric_progress::store::{
    Batch, ElasticityPolicy, ProgressClass, ShardCmd, Store, StoreBuilder, StoreOp,
};

const CLIENTS: usize = 8;
const OPS_PER_CLIENT: usize = 300;
const KEY_SPACE: usize = 128;
const VIP_CAPACITY: usize = 2;
const SHARD_COUNTS: [usize; 2] = [1, 4];

struct Cell {
    scenario: Scenario,
    shards: usize,
    ops_per_sec: f64,
    vip_ns: Option<u64>,
    guest_ns: Option<u64>,
}

fn run_cell(scenario: Scenario, shards: usize) -> Cell {
    let store: Store = StoreBuilder::new()
        .shards(shards)
        .vip_capacity(VIP_CAPACITY)
        .guest_ports(6)
        .guest_group_width(2)
        .build()
        .expect("sweep sizing is valid");

    let (vips, guests) = scenario.client_mix(CLIENTS, VIP_CAPACITY);
    let tickets: Vec<_> = (0..vips)
        .map(|_| store.admit_vip().expect("mix respects capacity"))
        .chain((0..guests).map(|_| store.admit_guest()))
        .collect();

    let vip_nanos = AtomicU64::new(0);
    let guest_nanos = AtomicU64::new(0);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for (i, ticket) in tickets.iter().enumerate() {
            let store = &store;
            let vip_nanos = &vip_nanos;
            let guest_nanos = &guest_nanos;
            s.spawn(move || {
                let mut client = store.client(*ticket);
                let start = Instant::now();
                for step in 0..OPS_PER_CLIENT {
                    let _ = client.execute(vec![scenario.op(i, step, KEY_SPACE)]);
                }
                let ns = start.elapsed().as_nanos() as u64;
                match ticket.class() {
                    ProgressClass::Vip => vip_nanos.fetch_add(ns, Ordering::Relaxed),
                    ProgressClass::Guest => guest_nanos.fetch_add(ns, Ordering::Relaxed),
                };
            });
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    let total_ops = (CLIENTS * OPS_PER_CLIENT) as f64;

    // Audit: the wait-free dashboard and a consensus-log scan must agree on
    // the surviving key count.
    let digests = store.snapshot_stats();
    let snapshot_entries: u64 = digests.iter().map(|d| d.entries).sum();
    let mut auditor = store.client(store.admit_guest());
    let scanned = auditor.scan("", "\u{10ffff}").len() as u64;
    assert_eq!(
        snapshot_entries, scanned,
        "{scenario}/{shards}: stats snapshot ({snapshot_entries}) disagrees with scan ({scanned})"
    );

    let mean = |nanos: &AtomicU64, n: usize| {
        (n > 0).then(|| nanos.load(Ordering::Relaxed) / (n * OPS_PER_CLIENT) as u64)
    };
    Cell {
        scenario,
        shards,
        ops_per_sec: total_ops / wall,
        vip_ns: mean(&vip_nanos, vips),
        guest_ns: mean(&guest_nanos, guests),
    }
}

fn main() {
    println!(
        "store stress sweep: {CLIENTS} clients × {OPS_PER_CLIENT} ops, \
         key space {KEY_SPACE}, VIP capacity {VIP_CAPACITY}\n"
    );
    println!(
        "{:<18} {:>7} {:>12} {:>14} {:>14}",
        "scenario", "shards", "ops/s", "vip ns/op", "guest ns/op"
    );
    let mut cells = Vec::new();
    for scenario in Scenario::ALL {
        for shards in SHARD_COUNTS {
            let cell = run_cell(scenario, shards);
            let fmt_ns = |ns: Option<u64>| ns.map_or("-".to_string(), |v| v.to_string());
            println!(
                "{:<18} {:>7} {:>12.0} {:>14} {:>14}",
                cell.scenario.name(),
                cell.shards,
                cell.ops_per_sec,
                fmt_ns(cell.vip_ns),
                fmt_ns(cell.guest_ns),
            );
            cells.push(cell);
        }
    }

    println!("\nall {} sweep cells audited (snapshot == scan)", cells.len());
    // The headline asymmetry: in the mixed scenarios, report how the VIP
    // tier fared against the guest tier.
    for cell in &cells {
        if let (Some(v), Some(g)) = (cell.vip_ns, cell.guest_ns) {
            println!(
                "  {}/{} shards: vip/guest latency ratio {:.2}",
                cell.scenario.name(),
                cell.shards,
                v as f64 / g as f64
            );
        }
    }

    hot_shard_split_scenario();
    elastic_scenario();
    observability_scenario();
    recovery_scenario();
    durability_scenario();
}

/// The **observability scenario**: a dashboard poller scrapes the store the
/// whole time the load runs — legal precisely because [`Store::scrape`] is
/// on the lint-verified wait-free path (atomics only, no lock, no consensus
/// log) — then the final scrape is audited against ground truth: the tier
/// counters must account for every issued commit, the latency histograms
/// must have observed exactly the commits they label, and a live split must
/// show up in the reconfig event series. The persister's own scrape is
/// exercised under flush-request pile-up (coalescing), and a trimmed
/// Prometheus exposition is printed — what `GET /metrics` would serve.
///
/// [`Store::scrape`]: asymmetric_progress::store::Store::scrape
fn observability_scenario() {
    use asymmetric_progress::store::encode_prometheus;
    use asymmetric_progress::store::persist::Persister;
    use std::sync::atomic::AtomicBool;

    println!("\nobservability scenario: wait-free scrape under load");
    let store: Store = StoreBuilder::new()
        .shards(4)
        .vip_capacity(VIP_CAPACITY)
        .guest_ports(6)
        .guest_group_width(2)
        .build()
        .expect("sizing is valid");
    let vips = VIP_CAPACITY;
    let guests = CLIENTS - VIP_CAPACITY;
    let tickets: Vec<_> = (0..vips)
        .map(|_| store.admit_vip().expect("capacity fits"))
        .chain((0..guests).map(|_| store.admit_guest()))
        .collect();

    let stop = AtomicBool::new(false);
    let scrapes = AtomicU64::new(0);
    std::thread::scope(|s| {
        let store = &store;
        let stop = &stop;
        let scrapes = &scrapes;
        s.spawn(move || {
            // The poller: a full registry read + text encoding per loop.
            while !stop.load(Ordering::Acquire) {
                let text = encode_prometheus(&store.scrape());
                assert!(!text.is_empty());
                scrapes.fetch_add(1, Ordering::Relaxed);
                std::thread::yield_now();
            }
        });
        let clients: Vec<_> = tickets
            .iter()
            .enumerate()
            .map(|(i, ticket)| {
                s.spawn(move || {
                    let mut client = store.client(*ticket);
                    for step in 0..OPS_PER_CLIENT {
                        let _ = client.execute(vec![Scenario::Uniform.op(i, step, KEY_SPACE)]);
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().expect("client thread");
        }
        // Only now may the poller wind down — it scraped through the
        // whole storm.
        stop.store(true, Ordering::Release);
    });
    println!("  {} scrapes served concurrently with the load", scrapes.load(Ordering::Relaxed));

    // Audit the final scrape against ground truth.
    let snap = store.scrape();
    let vip = snap.value("store_commits_total", &[("tier", "vip")]).expect("vip series");
    let guest = snap.value("store_commits_total", &[("tier", "guest")]).expect("guest series");
    assert_eq!(vip, (vips * OPS_PER_CLIENT) as u64, "every VIP commit accounted for");
    assert_eq!(guest, (guests * OPS_PER_CLIENT) as u64, "every guest commit accounted for");
    for (tier, commits) in [("vip", vip), ("guest", guest)] {
        let h = snap
            .histogram("store_commit_latency_ns", &[("tier", tier)])
            .expect("latency histogram");
        assert_eq!(h.count, commits, "{tier} latency histogram observed every commit");
    }
    println!("  tier counters: vip {vip} + guest {guest} commits, histograms agree");

    let child = store.split_shard(store.hottest_shard()).expect("hot shard exists");
    let snap = store.scrape();
    assert_eq!(snap.value("store_reconfigs_total", &[("kind", "split")]), Some(1));
    assert_eq!(snap.value("store_topology_version", &[]), Some(1));
    println!("  live split -> child {child} visible in the event series (topology v1)");

    // The persister's scrape under flush-request pile-up: concurrent
    // requests coalesce onto one leader's fsync, and the counters must
    // account for every request as either a flush or a coalesced ride.
    const REQUESTS: usize = 6;
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/tmp-example");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let persister = Persister::new(dir.join("obs.snapshot"));
    std::thread::scope(|s| {
        for _ in 0..REQUESTS {
            s.spawn(|| persister.persist(&store).expect("flush"));
        }
    });
    let psnap = persister.scrape();
    let flushes = psnap.value("store_persist_flushes_total", &[]).expect("flush series");
    let coalesced = psnap.value("store_persist_coalesced_total", &[]).expect("coalesce series");
    assert_eq!(flushes + coalesced, REQUESTS as u64, "every request flushed or coalesced");
    assert_eq!(psnap.value("store_persist_flush_failures_total", &[]), Some(0));
    println!("  persister: {flushes} fsync(s) served {REQUESTS} requests ({coalesced} coalesced)");

    // The exposition a `GET /metrics` handler would serve, trimmed.
    let text = encode_prometheus(&store.scrape());
    let shown: Vec<&str> = text
        .lines()
        .filter(|l| {
            l.starts_with("store_commits_total")
                || l.starts_with("store_reconfigs_total")
                || l.starts_with("store_topology_version")
                || l.starts_with("store_shards_live")
        })
        .collect();
    println!("  exposition excerpt ({} lines total):", text.lines().count());
    for line in shown {
        println!("    {line}");
    }
}

/// The hot-key-split scenario: every client hammers its own hot key, all of
/// which the initial topology routes to **one shard** — the melt the paper's
/// machinery cannot prevent with a static router. After the plateau forms,
/// the shard is split live mid-run; ops/s must recover above the plateau.
///
/// Two real mechanisms drive the recovery: the split bump doubles as a
/// checkpoint anchor (the melted log is compacted at the bump), and clients
/// whose keys moved stop replaying the parent shard's commits (the
/// universal construction replays every commit through every *active* port
/// handle of its shard, so fewer clients per shard means less replay work
/// per commit — a win even on one core, and a parallelism win on many).
fn hot_shard_split_scenario() {
    const ROUNDS: usize = 3;
    println!("\nhot-key-split scenario: {CLIENTS} clients, one hot key each, one shard");

    let store: Store = StoreBuilder::new()
        .shards(4)
        .vip_capacity(VIP_CAPACITY)
        .guest_ports(6)
        .guest_group_width(2)
        .checkpoint_every(64)
        .build()
        .expect("sizing is valid");
    // One hot key per client, all on shard 0 under the initial topology.
    let keys = keys_on_shard(&store.topology(), 0, CLIENTS);
    let mut loader = store.client(store.admit_guest());
    for key in &keys {
        loader.put(key, 0);
    }
    let tickets: Vec<_> = (0..VIP_CAPACITY)
        .map(|_| store.admit_vip().expect("capacity fits"))
        .chain((0..CLIENTS - VIP_CAPACITY).map(|_| store.admit_guest()))
        .collect();

    let phase = |label: &str| -> f64 {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for (i, ticket) in tickets.iter().enumerate() {
                let store = &store;
                let key = &keys[i];
                s.spawn(move || {
                    let mut client = store.client(*ticket);
                    for step in 0..OPS_PER_CLIENT {
                        if step % 3 == 0 {
                            let _ = client.get(key);
                        } else {
                            let _ = client.put(key, step as u64);
                        }
                    }
                });
            }
        });
        let ops_per_sec = (CLIENTS * OPS_PER_CLIENT) as f64 / t0.elapsed().as_secs_f64();
        println!("  {label:<26} {ops_per_sec:>12.0} ops/s");
        ops_per_sec
    };

    let mut plateau = f64::MAX;
    for round in 0..ROUNDS {
        // The plateau is the melted steady state: the slowest warm round.
        plateau = plateau.min(phase(&format!("pre-split round {round}")));
    }
    let hot = store.hottest_shard();
    assert_eq!(hot, 0, "the aimed-at shard must be the hottest");
    let t0 = Instant::now();
    let child = store.split_shard(hot).expect("hot shard exists");
    println!(
        "  split shard {hot} -> child {child} in {:?} (topology v{})",
        t0.elapsed(),
        store.topology().version()
    );
    let recovery =
        (0..ROUNDS).map(|round| phase(&format!("post-split round {round}"))).sum::<f64>()
            / ROUNDS as f64;

    // Audit: the split lost nothing, and routing agrees with the data.
    let mut auditor = store.client(store.admit_guest());
    assert_eq!(auditor.scan("", "\u{10ffff}").len(), keys.len(), "every hot key survives");
    let entries: u64 = store.snapshot_stats().iter().map(|d| d.entries).sum();
    assert_eq!(entries, keys.len() as u64, "stats snapshots agree with the scan");
    assert!(
        recovery > plateau,
        "post-split ops/s ({recovery:.0}) must recover above the plateau ({plateau:.0})"
    );
    println!("  recovery vs plateau: {:.2}x", recovery / plateau);
}

/// The **elastic scenario**: the same melt as the hot-key-split scenario,
/// but **nobody ever calls `split_shard` or `merge_shard`** — the policy
/// driver configured by `StoreBuilder::elastic` does both. The driver must
/// auto-split under the melt (ops/s recovering above the melted plateau),
/// then auto-merge the children back once the load moves away, converging
/// to the original live shard count — with at most one reconfiguration per
/// cool-down window along the way.
fn elastic_scenario() {
    const ROUNDS: usize = 3;
    let policy = ElasticityPolicy {
        evaluate_every: 128,
        // Two jobs for the window floor. (1) Burst resistance: on a single
        // core, client streams run as consecutive bursts — up to 3
        // same-shard clients × OPS_PER_CLIENT (300) = 900 back-to-back
        // commits on one shard — and the window must dwarf that run length
        // or a scheduler slice impersonates key-space skew. (2) Let the
        // melted plateau actually form (≈3 rounds of 2400 commits) before
        // the driver intervenes, so the pre-split ops/s floor below is a
        // real plateau, mirroring the manual hot-key-split scenario.
        min_window: 3 * (CLIENTS * OPS_PER_CLIENT) as u64,
        cooldown: 2048,
        ..ElasticityPolicy::default()
    };
    println!(
        "\nelastic scenario: {CLIENTS} clients, one hot key each, zero manual reconfig calls \
         (evaluate every {} commits, cool down {})",
        policy.evaluate_every, policy.cooldown
    );

    let run_phase = |store: &Store,
                     tickets: &[asymmetric_progress::store::ClientTicket],
                     label: &str,
                     keys: &[String]|
     -> f64 {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for (i, ticket) in tickets.iter().enumerate() {
                let key = &keys[i % keys.len()];
                s.spawn(move || {
                    let mut client = store.client(*ticket);
                    for step in 0..OPS_PER_CLIENT {
                        if step % 3 == 0 {
                            let _ = client.get(key);
                        } else {
                            let _ = client.put(key, step as u64);
                        }
                    }
                });
            }
        });
        let ops_per_sec = (CLIENTS * OPS_PER_CLIENT) as f64 / t0.elapsed().as_secs_f64();
        println!("  {label:<26} {ops_per_sec:>12.0} ops/s  (live shards: {})", store.live_shards());
        ops_per_sec
    };
    let admit = |store: &Store| -> Vec<asymmetric_progress::store::ClientTicket> {
        (0..VIP_CAPACITY)
            .map(|_| store.admit_vip().expect("capacity fits"))
            .chain((0..CLIENTS - VIP_CAPACITY).map(|_| store.admit_guest()))
            .collect()
    };

    // Melt the elastic store: the policy's window floor keeps the driver
    // observing for ≈3 rounds, so the melted plateau (the min over the
    // pre-split rounds, exactly like the manual hot-key-split scenario)
    // forms before the first auto-split lands.
    let store: Store = StoreBuilder::new()
        .shards(4)
        .vip_capacity(VIP_CAPACITY)
        .guest_ports(6)
        .guest_group_width(2)
        .elastic(policy)
        .build()
        .expect("sizing is valid");
    let hot_keys = keys_on_shard(&store.topology(), 0, CLIENTS);
    let mut loader = store.client(store.admit_guest());
    for key in &hot_keys {
        loader.put(key, 0);
    }
    let tickets = admit(&store);
    let mut issued = hot_keys.len() as u64;
    let mut plateau = f64::MAX;
    let mut melt_rounds = 0usize;
    while store.elastic_report().expect("driver configured").splits == 0 {
        plateau = plateau.min(run_phase(
            &store,
            &tickets,
            &format!("melt round {melt_rounds}"),
            &hot_keys,
        ));
        issued += (CLIENTS * OPS_PER_CLIENT) as u64;
        melt_rounds += 1;
        assert!(melt_rounds < 64, "the melt must trigger an auto-split");
    }
    let after_split = store.elastic_report().unwrap();
    println!(
        "  auto-split happened: {} split(s) after {melt_rounds} melt round(s), live shards now {}",
        after_split.splits,
        store.live_shards()
    );
    assert!(store.live_shards() > 4, "the driver grew the topology on its own");
    let recovery = (0..ROUNDS)
        .map(|round| {
            let r = run_phase(&store, &tickets, &format!("post-auto-split {round}"), &hot_keys);
            issued += (CLIENTS * OPS_PER_CLIENT) as u64;
            r
        })
        .sum::<f64>()
        / ROUNDS as f64;
    assert!(
        recovery > plateau,
        "post-auto-split ops/s ({recovery:.0}) must recover above the melted plateau ({plateau:.0})"
    );
    println!("  auto-split recovery vs melted plateau: {:.2}x", recovery / plateau);

    // Cool: move every bit of traffic to the other root shards; the
    // children of shard 0 fade and the driver must retire them.
    let cool_keys: Vec<String> =
        (1..4).flat_map(|s| keys_on_shard(&store.topology(), s, CLIENTS.div_ceil(3))).collect();
    let mut cool_rounds = 0usize;
    while store.live_shards() > 4 {
        let _ = run_phase(&store, &tickets, &format!("cool round {cool_rounds}"), &cool_keys);
        issued += (CLIENTS * OPS_PER_CLIENT) as u64;
        cool_rounds += 1;
        assert!(cool_rounds < 64, "fading load must trigger the auto-merges");
    }
    let report = store.elastic_report().unwrap();
    println!(
        "  auto-merge happened: {} merge(s) after {cool_rounds} cool round(s); \
         live shards back to {}",
        report.merges,
        store.live_shards()
    );
    assert!(report.merges >= 1, "the cool phase must shrink the topology");
    assert_eq!(store.live_shards(), 4, "the topology converged back to its original live set");
    // Thrash bound: at most one reconfiguration per cool-down window over
    // the whole episode (plus the one that can land at the very start).
    let reconfigs = report.splits + report.merges;
    assert!(
        reconfigs <= issued / policy.cooldown + 1,
        "{reconfigs} reconfigs over {issued} commits violates the cool-down discipline"
    );
    // Audit: the data survived the whole elastic episode. (Only the keys
    // some client actually used count: client i drives keys[i % len].)
    let touched: std::collections::BTreeSet<&String> = hot_keys
        .iter()
        .enumerate()
        .chain(cool_keys.iter().enumerate())
        .filter(|&(i, _)| i < CLIENTS)
        .map(|(_, k)| k)
        .collect();
    let mut auditor = store.client(store.admit_guest());
    let survived = auditor.scan("", "\u{10ffff}").len();
    assert_eq!(survived, touched.len(), "every touched key survives the episode");
    let entries: u64 = store.snapshot_stats().iter().map(|d| d.entries).sum();
    assert_eq!(entries, survived as u64, "stats snapshots agree with the scan");
    println!("  audit: {survived} keys, {reconfigs} reconfigs, zero manual calls");
}

/// The compaction/recovery scenario: checkpoint, flush, crash, recover,
/// audit — and the replay-cost win a checkpoint buys a fresh replica.
fn recovery_scenario() {
    const KEYS: u64 = 4096;
    const SHARDS: usize = 4;
    println!("\ncompaction/recovery scenario: {KEYS} keys, {SHARDS} shards");

    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/tmp-example");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("store_bench.snapshot");

    let pre_crash_scan;
    {
        let store: Store = StoreBuilder::new()
            .shards(SHARDS)
            .vip_capacity(VIP_CAPACITY)
            .guest_ports(6)
            .guest_group_width(2)
            .build()
            .expect("sizing is valid");
        let mut loader = store.client(store.admit_guest());
        for i in 0..KEYS {
            loader.put(&format!("key/{i:05}"), i);
        }
        pre_crash_scan = store.client(store.admit_guest()).scan("", "\u{10ffff}");

        let t0 = Instant::now();
        store.checkpoint().write_to(&path).expect("flush");
        let save = t0.elapsed();
        let bytes = std::fs::metadata(&path).expect("snapshot metadata").len();
        println!("  persist (seal every shard + fsync): {save:>10.2?} ({bytes} bytes)");
    } // crash: the in-memory store is gone

    let t0 = Instant::now();
    let recovered = StoreBuilder::new()
        .vip_capacity(VIP_CAPACITY)
        .guest_ports(6)
        .guest_group_width(2)
        .recover(&path)
        .expect("recover");
    let boot = t0.elapsed();
    println!(
        "  recover (decode + boot at checkpoint): {boot:>7.2?}, boot replay steps = {}",
        recovered.replay_steps()
    );
    let recovered_scan = recovered.client(recovered.admit_guest()).scan("", "\u{10ffff}");
    assert_eq!(recovered_scan, pre_crash_scan, "recovered store must equal the flushed state");
    println!("  audit: recovered scan == pre-crash scan ({} keys)", recovered_scan.len());

    // The replay-cost win, isolated on one shard log: a fresh replica's
    // replay work with vs without a checkpoint (the same harness the
    // `store/recovery` bench series records into BENCH_store.json).
    let fresh_steps = |checkpointed: bool| {
        let log = preloaded_shard_log(KEYS as usize, checkpointed);
        let mut fresh = log.owned_handle(1).expect("port 1 free");
        fresh.apply(ShardCmd::Batch(Batch::new(0, vec![StoreOp::Get("key/0000".into())])));
        fresh.replay_steps()
    };
    let without = fresh_steps(false);
    let with = fresh_steps(true);
    assert!(with < without / 100, "the checkpoint must collapse replay cost");
    println!(
        "  replay-cost win: fresh replica replays {with} cells post-checkpoint \
         vs {without} without (O(delta) vs O(history))"
    );
}

/// The **durability scenario**: the op-granular WAL closes the crash
/// window the checkpoint layer leaves open, asymmetrically — VIP commits
/// opt into fsync-acknowledged durability (`Client::request` under
/// `DurabilityClass::Sync`), guest commits ride the coalesced group
/// flusher and are *denied* the sync path with a typed error. The process
/// then "crashes" with group frames still buffered; snapshot + WAL replay
/// must recover every acknowledged commit exactly.
fn durability_scenario() {
    use asymmetric_progress::store::persist::Persister;
    use asymmetric_progress::store::wal::{Wal, WalConfig};
    use asymmetric_progress::store::{Client, DurabilityClass, Request, Response, StoreError};

    fn sync_commit(client: &mut Client<'_>, ops: Vec<StoreOp>) -> Response {
        let credential = client.credential();
        client.request(Request::new(ops).credential(credential).durability(DurabilityClass::Sync))
    }

    const VIP_COMMITS: u64 = 64;
    const GUEST_COMMITS: u64 = 256;
    println!(
        "\ndurability scenario: {VIP_COMMITS} sync (VIP) + {GUEST_COMMITS} group (guest) commits"
    );

    let dir =
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/tmp-example/durability");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let snapshot = dir.join("store.snapshot");
    let wal_dir = dir.join("wal");

    let synced_scan;
    {
        let wal = Wal::open(&wal_dir, WalConfig::default()).expect("fresh wal");
        let store = StoreBuilder::new()
            .shards(2)
            .vip_capacity(VIP_CAPACITY)
            .guest_ports(6)
            .guest_group_width(2)
            .build_with_wal(std::sync::Arc::clone(&wal))
            .expect("sizing is valid");
        let persister = Persister::new(&snapshot).with_wal(std::sync::Arc::clone(&wal));

        // The asymmetry, surfaced as a typed error: a guest may not buy
        // synchronous durability.
        let mut guest = store.client(store.admit_guest());
        assert_eq!(
            sync_commit(&mut guest, vec![StoreOp::Put("guest/denied".into(), 0)]).results,
            vec![Err(StoreError::GuestTier)],
            "sync durability is a VIP privilege"
        );

        // Guests ride the group flusher…
        for i in 0..GUEST_COMMITS {
            guest.put(&format!("guest/{i:04}"), i);
        }
        // …VIPs pay the fsync and get the acknowledgement.
        let mut vip = store.client(store.admit_vip().expect("vip port"));
        let t0 = Instant::now();
        for i in 0..VIP_COMMITS {
            let resp = sync_commit(&mut vip, vec![StoreOp::Put(format!("vip/{i:04}"), i)]);
            assert!(resp.is_ok(), "sync acknowledged");
        }
        let sync_wall = t0.elapsed();
        println!(
            "  {} sync commits acknowledged in {:?} ({:.0?}/commit, fsync-bound by design)",
            VIP_COMMITS,
            sync_wall,
            sync_wall / VIP_COMMITS as u32
        );

        // A mid-run checkpoint rotates + truncates the log…
        persister.persist(&store).expect("checkpoint");
        // …and the tail after it keeps logging.
        for i in 0..GUEST_COMMITS {
            guest.put(&format!("guest-late/{i:04}"), i);
        }
        let resp = sync_commit(&mut vip, vec![StoreOp::Put("vip/final".into(), 7)]);
        assert!(resp.is_ok(), "sync acknowledged");
        // Everything up to the last fsync is durable; the sync above
        // flushed every buffered group frame with it.
        synced_scan = store.client(store.admit_guest()).scan("", "\u{10ffff}");

        let snap = persister.scrape();
        let flushes = snap.value("store_wal_flushes_total", &[]).unwrap_or(0);
        let group = snap.value("store_wal_appends_total", &[("class", "group")]).unwrap_or(0);
        let sync = snap.value("store_wal_appends_total", &[("class", "sync")]).unwrap_or(0);
        println!(
            "  wal scrape: {group} group + {sync} sync frames over {flushes} flush cycles \
             (coalescing {:.1} frames/cycle), {} denied sync attempt(s)",
            (group + sync) as f64 / flushes.max(1) as f64,
            snap.value("store_wal_sync_denied_total", &[]).unwrap_or(0),
        );
        wal.simulate_crash(); // frames buffered since the last fsync die here
    }

    let t0 = Instant::now();
    let wal = Wal::open(&wal_dir, WalConfig::default()).expect("reopen after crash");
    let recovered = StoreBuilder::new()
        .vip_capacity(VIP_CAPACITY)
        .guest_ports(6)
        .guest_group_width(2)
        .recover_with_wal(&snapshot, wal)
        .expect("snapshot + wal replay");
    let boot = t0.elapsed();
    let recovered_scan = recovered.client(recovered.admit_guest()).scan("", "\u{10ffff}");
    assert_eq!(
        recovered_scan, synced_scan,
        "snapshot + wal replay must recover exactly the fsync'd state"
    );
    println!(
        "  crash + recover (snapshot + wal replay): {boot:?}, {} keys back — every \
         sync-acknowledged commit survived",
        recovered_scan.len()
    );
}
