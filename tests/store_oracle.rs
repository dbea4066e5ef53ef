//! Property tests: the sharded store against a single-threaded `BTreeMap`
//! oracle.
//!
//! The oracle reimplements the operational semantics independently (it does
//! not call into `apc-store`), so these properties check the whole
//! distributed pipeline — router planning, per-shard batching, the
//! universal-log commit path, response reassembly — against the obvious
//! sequential meaning of the operations.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use asymmetric_progress::store::{
    ElasticEngine, ElasticityPolicy, ShardTopology, Store, StoreBuilder, StoreError, StoreOp,
    StoreResp,
};

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
/// small key space (collisions across clients are the point).
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

/// The 90%-read mix over the same key space: of twenty kinds, two write
/// (a put, then a remove or a CAS), fifteen are gets and three are scans.
fn decode_read_heavy(kind: u8, key: u8, val: u64) -> StoreOp {
    match kind % 20 {
        0 => decode_op(0, key, val),
        1 => decode_op(3 + (val % 2) as u8, key, val),
        2..=16 => decode_op(2, key, val),
        _ => decode_op(5, key, val),
    }
}

/// One topology change mid-stream: merge any structurally eligible child
/// (a no-op when none exists) or split any live shard, picked by `target`.
fn churn(store: &Store, target: usize, merge: bool) {
    let topology = store.topology();
    if merge {
        let candidates: Vec<usize> =
            (0..topology.shards()).filter(|&s| topology.check_merge(s).is_ok()).collect();
        if !candidates.is_empty() {
            let victim = candidates[target % candidates.len()];
            let parent = store.merge_shard(victim).expect("eligible candidate");
            assert_eq!(store.topology().node(victim).parent, Some(parent as u32));
        }
    } else {
        let live: Vec<usize> = (0..topology.shards()).filter(|&s| topology.is_live(s)).collect();
        let child = store.split_shard(live[target % live.len()]).expect("live shard splits");
        assert_eq!(child, store.shards() - 1, "splits append");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random op sequences through a single client match the oracle
    /// response-for-response, at several shard counts.
    #[test]
    fn sequential_ops_match_oracle(
        shards in 1usize..4,
        encoded in proptest::collection::vec((0u8..6, 0u8..12, 0u64..16), 1..60),
    ) {
        let store = StoreBuilder::new()
            .shards(shards)
            .vip_capacity(1)
            .guest_ports(2)
            .build()
            .expect("valid sizing");
        let mut client = store.client(store.admit_vip().expect("first vip"));
        let mut oracle = BTreeMap::new();
        for (i, (kind, key, val)) in encoded.iter().enumerate() {
            let op = decode_op(*kind, *key, *val);
            let got = client.execute(vec![op.clone()]).pop().expect("one response");
            let want = Ok(oracle_apply(&mut oracle, &op));
            prop_assert_eq!(
                &got, &want,
                "op {} ({:?}) diverged at {} shards", i, op, shards
            );
        }
        // Terminal full-state check: a store-wide scan equals the oracle.
        let all = client.execute(vec![StoreOp::Scan { from: String::new(), to: "z".into() }]);
        let want: Vec<(String, u64)> =
            oracle.iter().map(|(k, v)| (k.clone(), *v)).collect();
        prop_assert_eq!(&all[0], &Ok(StoreResp::Entries(want)));
    }

    /// Batching transparency: splitting the same op stream into arbitrary
    /// batch boundaries yields exactly the responses of one-op-at-a-time
    /// execution.
    #[test]
    fn batching_is_response_transparent(
        encoded in proptest::collection::vec((0u8..6, 0u8..12, 0u64..16), 1..40),
        batch_seed in 0u64..1000,
    ) {
        let ops: Vec<StoreOp> =
            encoded.iter().map(|(k, key, v)| decode_op(*k, *key, *v)).collect();

        let run = |batches: Vec<Vec<StoreOp>>| -> Vec<Result<StoreResp, StoreError>> {
            let store = StoreBuilder::new()
                .shards(2)
                .vip_capacity(1)
                .guest_ports(2)
                .build()
                .expect("valid sizing");
            let mut client = store.client(store.admit_vip().expect("first vip"));
            batches.into_iter().flat_map(|b| client.execute(b)).collect()
        };

        let singles = run(ops.iter().cloned().map(|op| vec![op]).collect());
        // Deterministic pseudo-random batch boundaries from the seed.
        let mut batches: Vec<Vec<StoreOp>> = Vec::new();
        let mut s = batch_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut it = ops.iter().cloned().peekable();
        while it.peek().is_some() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let take = 1 + (s % 5) as usize;
            batches.push(it.by_ref().take(take).collect());
        }
        let batched = run(batches);
        prop_assert_eq!(singles, batched);
    }

    /// Concurrent clients on disjoint key spaces: the final store equals
    /// the union of the per-client oracles (no lost or phantom writes
    /// across ports, shards, or progress classes).
    #[test]
    fn concurrent_disjoint_clients_match_union_oracle(
        encoded in proptest::collection::vec((0u8..5, 0u8..12, 0u64..16), 4..40),
        clients in 2usize..5,
    ) {
        let store = StoreBuilder::new()
            .shards(2)
            .vip_capacity(1)
            .guest_ports(3)
            .build()
            .expect("valid sizing");
        let tickets: Vec<_> = (0..clients)
            .map(|i| {
                if i == 0 {
                    store.admit_vip().expect("first vip")
                } else {
                    store.admit_guest()
                }
            })
            .collect();

        // Client c gets every c-th op, prefixed into its own key space.
        let streams: Vec<Vec<StoreOp>> = (0..clients)
            .map(|c| {
                encoded
                    .iter()
                    .skip(c)
                    .step_by(clients)
                    .map(|(kind, key, val)| {
                        // Only key-addressed ops (kinds 0..5 exclude scans).
                        match decode_op(*kind, *key, *val) {
                            StoreOp::Put(k, v) => StoreOp::Put(format!("c{c}/{k}"), v),
                            StoreOp::Get(k) => StoreOp::Get(format!("c{c}/{k}")),
                            StoreOp::Remove(k) => StoreOp::Remove(format!("c{c}/{k}")),
                            StoreOp::Cas { key, expect, new } => {
                                StoreOp::Cas { key: format!("c{c}/{key}"), expect, new }
                            }
                            scan => scan,
                        }
                    })
                    .filter(|op| !matches!(op, StoreOp::Scan { .. }))
                    .collect()
            })
            .collect();

        std::thread::scope(|s| {
            for (c, stream) in streams.iter().enumerate() {
                let store = &store;
                let ticket = tickets[c];
                s.spawn(move || {
                    let mut client = store.client(ticket);
                    for op in stream {
                        let _ = client.execute(vec![op.clone()]);
                    }
                });
            }
        });

        // Union oracle over the same disjoint streams.
        let mut oracle = BTreeMap::new();
        for stream in &streams {
            for op in stream {
                let _ = oracle_apply(&mut oracle, op);
            }
        }
        let mut auditor = store.client(store.admit_guest());
        let scanned = auditor.scan("", "z");
        let want: Vec<(String, u64)> = oracle.iter().map(|(k, v)| (k.clone(), *v)).collect();
        prop_assert_eq!(scanned, want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Live splits are semantically invisible: random op sequences with
    /// random split points interleaved still match the oracle
    /// response-for-response, and the terminal scan equals the oracle.
    #[test]
    fn sequential_ops_match_oracle_across_splits(
        shards in 1usize..3,
        encoded in proptest::collection::vec((0u8..6, 0u8..12, 0u64..16), 8..60),
        split_points in proptest::collection::vec((0usize..60, 0usize..8), 1..4),
    ) {
        let store = StoreBuilder::new()
            .shards(shards)
            .vip_capacity(1)
            .guest_ports(2)
            .build()
            .expect("valid sizing");
        let mut client = store.client(store.admit_vip().expect("first vip"));
        let mut oracle = BTreeMap::new();
        for (i, (kind, key, val)) in encoded.iter().enumerate() {
            for &(at, target) in &split_points {
                if at == i {
                    // Split an arbitrary existing shard mid-stream.
                    let victim = target % store.shards();
                    let child = store.split_shard(victim).expect("valid shard id");
                    prop_assert_eq!(child, store.shards() - 1, "splits append");
                }
            }
            let op = decode_op(*kind, *key, *val);
            let got = client.execute(vec![op.clone()]).pop().expect("one response");
            let want = Ok(oracle_apply(&mut oracle, &op));
            prop_assert_eq!(&got, &want, "op {} ({:?}) diverged post-split", i, op);
        }
        let all = client.execute(vec![StoreOp::Scan { from: String::new(), to: "z".into() }]);
        let want: Vec<(String, u64)> = oracle.iter().map(|(k, v)| (k.clone(), *v)).collect();
        prop_assert_eq!(&all[0], &Ok(StoreResp::Entries(want)));
        // Audit: per-shard stats cover exactly the oracle's keys.
        let entries: u64 = store.snapshot_stats().iter().map(|d| d.entries).sum();
        prop_assert_eq!(entries, oracle.len() as u64);
    }

    /// Topology churn is semantically invisible: random op sequences with
    /// random **splits and merges** interleaved still match the oracle
    /// response-for-response, and the terminal scan equals the oracle.
    /// Merge points pick any structurally eligible child at that moment
    /// (skipped when none exists), so long runs repeatedly grow and shrink
    /// the same subtrees.
    #[test]
    fn sequential_ops_match_oracle_across_splits_and_merges(
        shards in 1usize..3,
        encoded in proptest::collection::vec((0u8..6, 0u8..12, 0u64..16), 8..60),
        churn_points in proptest::collection::vec((0usize..60, 0usize..8, 0u8..2), 1..6),
    ) {
        let store = StoreBuilder::new()
            .shards(shards)
            .vip_capacity(1)
            .guest_ports(2)
            .build()
            .expect("valid sizing");
        let mut client = store.client(store.admit_vip().expect("first vip"));
        let mut oracle = BTreeMap::new();
        for (i, (kind, key, val)) in encoded.iter().enumerate() {
            for &(at, target, merge) in &churn_points {
                if at == i {
                    churn(&store, target, merge == 1);
                }
            }
            let op = decode_op(*kind, *key, *val);
            let got = client.execute(vec![op.clone()]).pop().expect("one response");
            let want = Ok(oracle_apply(&mut oracle, &op));
            prop_assert_eq!(&got, &want, "op {} ({:?}) diverged under churn", i, op);
        }
        let all = client.execute(vec![StoreOp::Scan { from: String::new(), to: "z".into() }]);
        let want: Vec<(String, u64)> = oracle.iter().map(|(k, v)| (k.clone(), *v)).collect();
        prop_assert_eq!(&all[0], &Ok(StoreResp::Entries(want)));
        // Audit: live-shard stats cover exactly the oracle's keys, and
        // retired shards drained to empty.
        let topology = store.topology();
        let stats = store.snapshot_stats();
        let entries: u64 = stats.iter().map(|d| d.entries).sum();
        prop_assert_eq!(entries, oracle.len() as u64);
        for (s, digest) in stats.iter().enumerate() {
            if !topology.is_live(s) {
                prop_assert_eq!(digest.entries, 0, "tombstone {} must be empty", s);
            }
        }
    }

    /// The read path against the oracle: a 90%-read mix, issued in turn by
    /// a VIP and two guest sessions (so most reads come from a port that
    /// did not make the last write and must catch its replica up), with
    /// splits and merges interleaved. Every response matches the oracle;
    /// reads are most of the rounds and take no log cell.
    #[test]
    fn read_heavy_ops_match_oracle_across_splits_and_merges(
        shards in 1usize..3,
        encoded in proptest::collection::vec((0u8..20, 0u8..12, 0u64..16), 20..120),
        churn_points in proptest::collection::vec((0usize..120, 0usize..8, 0u8..2), 1..6),
    ) {
        let store = StoreBuilder::new()
            .shards(shards)
            .vip_capacity(1)
            .guest_ports(2)
            .build()
            .expect("valid sizing");
        let mut clients = [
            store.client(store.admit_vip().expect("first vip")),
            store.client(store.admit_guest()),
            store.client(store.admit_guest()),
        ];
        let mut oracle = BTreeMap::new();
        for (i, (kind, key, val)) in encoded.iter().enumerate() {
            for &(at, target, merge) in &churn_points {
                if at == i {
                    churn(&store, target, merge == 1);
                }
            }
            let op = decode_read_heavy(*kind, *key, *val);
            let got = clients[i % 3].execute(vec![op.clone()]).pop().expect("one response");
            let want = Ok(oracle_apply(&mut oracle, &op));
            prop_assert_eq!(&got, &want, "op {} ({:?}) diverged", i, op);
        }
        let snap = store.scrape();
        let sum = |name| -> u64 {
            ["vip", "guest"].iter().map(|t| snap.value(name, &[("tier", t)]).expect("series")).sum()
        };
        let (rounds, local) = (sum("store_commits_total"), sum("store_local_reads_total"));
        let read_only = encoded.iter().filter(|(kind, _, _)| kind % 20 >= 2).count() as u64;
        prop_assert!(local >= read_only, "every read-only op is at least one local round");
        prop_assert!(rounds > local || read_only == encoded.len() as u64);
        let cells: u64 = store.snapshot_stats().iter().map(|d| d.commits).sum();
        prop_assert!(cells >= local, "heat counts the local rounds");
    }

    /// Batching transparency on the 90%-read mix under churn: the same op
    /// stream cut at arbitrary batch boundaries, with the same splits and
    /// merges falling before the batch that holds their op, answers exactly
    /// as one op at a time does. Read-only batches are answered locally,
    /// mixed ones appended whole; neither may be told apart.
    #[test]
    fn read_heavy_batching_is_transparent_across_splits_and_merges(
        encoded in proptest::collection::vec((0u8..20, 0u8..12, 0u64..16), 8..80),
        churn_points in proptest::collection::vec((0usize..80, 0usize..8, 0u8..2), 1..5),
        batch_seed in 0u64..1000,
    ) {
        let ops: Vec<StoreOp> =
            encoded.iter().map(|(k, key, v)| decode_read_heavy(*k, *key, *v)).collect();
        let run = |sizes: &mut dyn FnMut() -> usize| -> Vec<Result<StoreResp, StoreError>> {
            let store = StoreBuilder::new()
                .shards(2)
                .vip_capacity(1)
                .guest_ports(2)
                .build()
                .expect("valid sizing");
            let mut clients = [
                store.client(store.admit_vip().expect("first vip")),
                store.client(store.admit_guest()),
            ];
            let mut out = Vec::new();
            let (mut from, mut batch) = (0, 0);
            while from < ops.len() {
                let to = (from + sizes()).min(ops.len());
                for &(at, target, merge) in &churn_points {
                    if (from..to).contains(&at) {
                        churn(&store, target, merge == 1);
                    }
                }
                out.extend(clients[batch % 2].execute(ops[from..to].to_vec()));
                (from, batch) = (to, batch + 1);
            }
            out
        };
        let singles = run(&mut || 1);
        let mut s = batch_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let batched = run(&mut || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            1 + (s % 5) as usize
        });
        prop_assert_eq!(singles, batched);
    }

    /// The round-trip (minimal-disruption inverse) property: starting from
    /// any split history, split any live shard and immediately merge the
    /// child back — every key's placement is exactly what it was before
    /// the split, over the whole keyset.
    #[test]
    fn split_then_merge_restores_the_parents_placement(
        roots in 1usize..5,
        prior_splits in proptest::collection::vec(0usize..16, 0..5),
        victim_pick in 0usize..16,
        raw_keys in proptest::collection::vec((0u8..26, 0u64..4096), 16..64),
    ) {
        let keys: Vec<String> = raw_keys
            .iter()
            .map(|(prefix, n)| format!("{}/{n:04}", (b'a' + prefix) as char))
            .collect();
        let mut topology = ShardTopology::fresh(roots);
        for target in prior_splits {
            let (bumped, _) = topology.split(target % topology.shards()).unwrap();
            topology = bumped;
        }
        let live: Vec<usize> =
            (0..topology.shards()).filter(|&s| topology.is_live(s)).collect();
        let victim = live[victim_pick % live.len()];
        let before: Vec<usize> = keys.iter().map(|k| topology.shard_of(k)).collect();
        let (split_topo, child) = topology.split(victim).unwrap();
        let (merged, parent) = split_topo.merge(child).expect("a fresh child is eligible");
        prop_assert_eq!(parent, victim);
        prop_assert_eq!(merged.live_shards(), topology.live_shards());
        for (key, &was) in keys.iter().zip(&before) {
            prop_assert_eq!(
                merged.shard_of(key), was,
                "{} must route exactly as before the split", key
            );
        }
        // And unwinding a whole stack restores the fresh roots exactly.
        let mut unwound = merged;
        loop {
            let candidate =
                (0..unwound.shards()).find(|&s| unwound.check_merge(s).is_ok());
            match candidate {
                Some(s) => unwound = unwound.merge(s).expect("eligible").0,
                None => break,
            }
        }
        prop_assert_eq!(unwound.live_shards(), roots, "every split unwinds");
        let fresh = ShardTopology::fresh(roots);
        for key in &keys {
            prop_assert_eq!(unwound.shard_of(key), fresh.shard_of(key));
        }
    }

    /// The minimal-disruption property of rendezvous routing: across any
    /// sequence of splits, a key's placement changes **only** at the split
    /// of its current shard, and it moves **only** to the freshly created
    /// shard. Every other placement is untouched.
    #[test]
    fn rendezvous_splits_are_minimally_disruptive(
        roots in 1usize..6,
        splits in proptest::collection::vec(0usize..16, 1..8),
        raw_keys in proptest::collection::vec((0u8..26, 0u64..4096), 16..64),
    ) {
        let keys: Vec<String> = raw_keys
            .iter()
            .map(|(prefix, n)| format!("{}/{n:04}", (b'a' + prefix) as char))
            .collect();
        let mut topology = ShardTopology::fresh(roots);
        for target in splits {
            let victim = target % topology.shards();
            let before: Vec<usize> = keys.iter().map(|k| topology.shard_of(k)).collect();
            let (bumped, child) = topology.split(victim).unwrap();
            prop_assert_eq!(child, topology.shards(), "split ids are dense and appended");
            prop_assert_eq!(bumped.version(), topology.version() + 1);
            for (key, &was) in keys.iter().zip(&before) {
                let now = bumped.shard_of(key);
                if now != was {
                    prop_assert_eq!(now, child, "{} may only move to the new shard", key);
                    prop_assert_eq!(was, victim, "{} may only leave the split shard", key);
                }
            }
            topology = bumped;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// An elastic engine's report under **concurrent** topology churn: a
    /// thread loops `Store::rebalance` while guest committers make heat and
    /// manual splits and merges race the engine's own reconfigurations.
    /// Afterwards the window counters, the live-shard view, and the
    /// wait-free scrape must tell one consistent story — every
    /// reconfiguration, whoever initiated it, is exactly one version bump,
    /// one event-counter bump, and (for a merge) one adoption.
    #[test]
    fn elastic_report_and_scrape_stay_consistent_under_churn(
        clients in 2usize..4,
        ops_per_client in 16usize..48,
        churn in proptest::collection::vec((0u8..2, 0usize..8), 1..5),
    ) {
        let store = StoreBuilder::new()
            .shards(4)
            .vip_capacity(1)
            .guest_ports(4)
            .build()
            .expect("valid sizing");
        let tickets: Vec<_> = (0..clients).map(|_| store.admit_guest()).collect();
        let committing = AtomicUsize::new(clients);
        let mut manual = 0u64;
        let report = std::thread::scope(|s| {
            for (c, ticket) in tickets.iter().enumerate() {
                let (store, committing) = (&store, &committing);
                s.spawn(move || {
                    let mut client = store.client(*ticket);
                    for step in 0..ops_per_client {
                        client.put(&format!("c{c}/k{:02}", step % 8), step as u64);
                    }
                    committing.fetch_sub(1, Ordering::Release);
                });
            }
            let rebalancer = s.spawn(|| {
                let mut engine = ElasticEngine::new(ElasticityPolicy { min_window: 8, cooldown: 16 });
                while committing.load(Ordering::Acquire) > 0 {
                    store.rebalance(&mut engine);
                    std::thread::yield_now();
                }
                engine.report()
            });
            // Manual churn racing both the committers and the engine. A
            // candidate picked from a topology snapshot may be gone (the
            // engine got there first) — a rejected reconfig is fine, it
            // just must not be *miscounted*.
            for &(merge, target) in &churn {
                let topology = store.topology();
                if merge == 1 {
                    let candidates: Vec<usize> = (0..topology.shards())
                        .filter(|&sh| topology.check_merge(sh).is_ok())
                        .collect();
                    if let Some(&victim) = candidates.get(target % candidates.len().max(1)) {
                        if store.merge_shard(victim).is_ok() {
                            manual += 1;
                        }
                    }
                } else {
                    let live: Vec<usize> =
                        (0..topology.shards()).filter(|&sh| topology.is_live(sh)).collect();
                    if store.split_shard(live[target % live.len()]).is_ok() {
                        manual += 1;
                    }
                }
                std::thread::yield_now();
            }
            rebalancer.join().expect("the rebalancer finishes")
        });

        let topology = store.topology();
        let snap = store.scrape();

        // Every reconfiguration — manual or the engine's — bumped the
        // version exactly once and landed in the event counters.
        let splits = snap.value("store_reconfigs_total", &[("kind", "split")]).expect("series");
        let merges = snap.value("store_reconfigs_total", &[("kind", "merge")]).expect("series");
        prop_assert_eq!(splits + merges, topology.version(), "reconfig events == version bumps");
        prop_assert_eq!(
            manual + report.splits + report.merges,
            splits + merges,
            "every reconfiguration is either the churn thread's or the engine's"
        );
        prop_assert_eq!(snap.value("store_reconfig_last_version", &[]), Some(topology.version()));

        // Window counters: an engine decision implies an evaluation, and
        // every split or merge the engine decided was applied, so the
        // scrape's decisions match the report's reconfigurations exactly.
        prop_assert!(report.evaluations >= report.splits + report.merges);
        prop_assert_eq!(
            snap.value("store_elastic_decisions_total", &[("decision", "split")]),
            Some(report.splits)
        );
        prop_assert_eq!(
            snap.value("store_elastic_decisions_total", &[("decision", "merge")]),
            Some(report.merges)
        );

        // Live-shard set: the topology view, `Store::live_shards`, and the
        // scrape's gauges are all the same world.
        let live = (0..topology.shards()).filter(|&sh| topology.is_live(sh)).count();
        prop_assert_eq!(store.live_shards(), live);
        prop_assert_eq!(snap.value("store_shards_live", &[]), Some(live as u64));
        prop_assert_eq!(snap.value("store_shards_total", &[]), Some(topology.shards() as u64));

        // And the data survived the whole episode: every distinct key some
        // client wrote is scannable, and retired shards drained to empty.
        let mut auditor = store.client(store.admit_guest());
        prop_assert_eq!(auditor.scan("", "z").len(), clients * 8);
        for (sh, digest) in store.snapshot_stats().iter().enumerate() {
            if !topology.is_live(sh) {
                prop_assert_eq!(digest.entries, 0, "tombstone {} must be empty", sh);
            }
        }
    }
}

/// Router edge case: a 1-shard store serves point ops, batches, and scans
/// (broadcast degenerates to a single sub-batch).
#[test]
fn one_shard_store_serves_batches_and_scans() {
    let store =
        StoreBuilder::new().shards(1).vip_capacity(1).guest_ports(2).build().expect("valid sizing");
    let mut c = store.client(store.admit_vip().expect("vip"));
    let resps = c.execute(vec![
        StoreOp::Put("a".into(), 1),
        StoreOp::Put("b".into(), 2),
        StoreOp::Scan { from: "".into(), to: "z".into() },
        StoreOp::Remove("a".into()),
        StoreOp::Scan { from: "".into(), to: "z".into() },
    ]);
    assert_eq!(resps.len(), 5);
    assert_eq!(
        resps[2],
        Ok(StoreResp::Entries(vec![("a".into(), 1), ("b".into(), 2)])),
        "mid-batch scan sees the same-batch puts"
    );
    assert_eq!(resps[4], Ok(StoreResp::Entries(vec![("b".into(), 2)])));
}

/// Router edge case: scans against an empty store return empty (no panic,
/// no phantom entries), on 1 shard and on many — and likewise after a
/// split of an empty store.
#[test]
fn empty_store_scans_are_empty() {
    for shards in [1usize, 4] {
        let store = StoreBuilder::new()
            .shards(shards)
            .vip_capacity(1)
            .guest_ports(2)
            .build()
            .expect("valid sizing");
        let mut c = store.client(store.admit_guest());
        assert_eq!(c.scan("", "\u{10ffff}"), vec![]);
        assert_eq!(c.scan("z", "a"), vec![], "inverted range is empty, not an error");
        store.split_shard(0).expect("splitting an empty shard is fine");
        assert_eq!(c.scan("", "\u{10ffff}"), vec![]);
        assert_eq!(store.shards(), shards + 1);
    }
}
