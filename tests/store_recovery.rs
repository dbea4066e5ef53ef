//! The crash-recovery battery: random workloads snapshotted at random
//! points, crashed at arbitrary log indices, recovered from disk, and
//! compared against an independent `BTreeMap` oracle; plus the O(delta)
//! replay regression guard and the corrupted/truncated-snapshot error
//! paths.
//!
//! The durability contract under test is **prefix consistency**: a
//! recovered store is exactly the store as of the last successful flush
//! (per shard, a prefix of that shard's commit order); operations
//! committed after the flush are lost, never half-applied.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;

use asymmetric_progress::core::liveness::Liveness;
use asymmetric_progress::store::persist::{PersistError, RecoverError, StoreSnapshot};
use asymmetric_progress::store::{Store, StoreBuilder, StoreOp, StoreResp};
use asymmetric_progress::universal::seq::{Counter, CounterOp};
use asymmetric_progress::universal::{CasFactory, Universal};

/// A scratch path under cargo's per-target tmp dir, unique per test.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("store-recovery");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

/// The independent oracle (duplicated from `store_oracle.rs` on purpose:
/// the oracle must not share code with the system under test).
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
        StoreOp::Scan { from, to } => StoreResp::Entries(
            state
                .iter()
                .filter(|(k, _)| *from <= **k && **k < *to)
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
        ),
    }
}

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

fn full_scan(store: &Store) -> Vec<(String, u64)> {
    let mut auditor = store.client(store.admit_guest());
    auditor.scan("", "\u{10ffff}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random workload, snapshots at random cadence, crash at an arbitrary
    /// log index (= wherever the op stream happens to end), recovery from
    /// disk: the recovered state must equal the oracle as of the last
    /// snapshot, and subsequent operations on the recovered store must
    /// match the oracle response-for-response.
    #[test]
    fn crash_recovery_matches_oracle(
        shards in 1usize..4,
        encoded in proptest::collection::vec((0u8..6, 0u8..12, 0u64..16), 1..60),
        snap_every in 1usize..8,
        case in 0u64..1_000_000,
    ) {
        let path = scratch(&format!("proptest-{case}-{shards}-{snap_every}.snapshot"));
        let mut oracle = BTreeMap::new();
        let mut oracle_at_snapshot = BTreeMap::new();
        {
            let store = StoreBuilder::new()
                .shards(shards)
                .vip_capacity(1)
                .guest_ports(2)
                .build()
                .expect("valid sizing");
            let mut client = store.client(store.admit_vip().expect("first vip"));
            // Baseline snapshot: the crash may land before the cadence hits.
            store.checkpoint().write_to(&path).expect("initial flush");
            for (i, (kind, key, val)) in encoded.iter().enumerate() {
                let op = decode_op(*kind, *key, *val);
                let got = client.execute(vec![op.clone()]).pop().expect("one response");
                let want = Ok(oracle_apply(&mut oracle, &op));
                prop_assert_eq!(&got, &want, "pre-crash op {} diverged", i);
                if (i + 1) % snap_every == 0 {
                    store.checkpoint().write_to(&path).expect("cadence flush");
                    oracle_at_snapshot = oracle.clone();
                }
            }
        } // store dropped here: the crash, at whatever log index the stream reached
        let recovered = StoreBuilder::new()
            .vip_capacity(1)
            .guest_ports(2)
            .recover(&path)
            .expect("snapshot must recover");
        prop_assert_eq!(recovered.shards(), shards, "shard count survives recovery");
        let want: Vec<(String, u64)> =
            oracle_at_snapshot.iter().map(|(k, v)| (k.clone(), *v)).collect();
        prop_assert_eq!(full_scan(&recovered), want, "recovered state == oracle at last snapshot");

        // Life after recovery: replay the same op stream against the
        // recovered store and the snapshot-time oracle, response for
        // response.
        let mut client = recovered.client(recovered.admit_vip().expect("first vip"));
        for (i, (kind, key, val)) in encoded.iter().enumerate() {
            let op = decode_op(*kind, *key, *val);
            let got = client.execute(vec![op.clone()]).pop().expect("one response");
            let want = Ok(oracle_apply(&mut oracle_at_snapshot, &op));
            prop_assert_eq!(&got, &want, "post-recovery op {} diverged", i);
        }
    }

    /// Byte-level fault injection: flipping any byte or cutting the file at
    /// any point must yield a typed [`PersistError`] from recovery — no
    /// panic, no silently recovered partial state.
    #[test]
    fn corrupted_or_truncated_snapshots_fail_closed(
        flip_seed in 0usize..10_000,
        cut_seed in 0usize..10_000,
    ) {
        let path = scratch(&format!("fault-{flip_seed}-{cut_seed}.snapshot"));
        let store = StoreBuilder::new()
            .shards(2)
            .vip_capacity(1)
            .guest_ports(2)
            .build()
            .expect("valid sizing");
        let mut client = store.client(store.admit_vip().expect("first vip"));
        for i in 0..20 {
            client.put(&format!("key/{i:02}"), i);
        }
        store.checkpoint().write_to(&path).expect("flush");
        let good = std::fs::read(&path).expect("snapshot bytes");

        // Flip one byte.
        let mut flipped = good.clone();
        let at = flip_seed % flipped.len();
        flipped[at] ^= 0x20;
        std::fs::write(&path, &flipped).expect("write corrupted");
        let err = StoreBuilder::new()
            .vip_capacity(1)
            .guest_ports(2)
            .recover(&path)
            .expect_err("flipped byte must not recover");
        prop_assert!(
            matches!(err, RecoverError::Persist(_)),
            "flip at {} gave {:?}", at, err
        );

        // Truncate to a strict prefix.
        let cut = cut_seed % good.len();
        std::fs::write(&path, &good[..cut]).expect("write truncated");
        let err = StoreBuilder::new()
            .vip_capacity(1)
            .guest_ports(2)
            .recover(&path)
            .expect_err("truncated file must not recover");
        prop_assert!(
            matches!(
                err,
                RecoverError::Persist(
                    PersistError::Truncated { .. } | PersistError::ChecksumMismatch { .. }
                )
            ),
            "cut to {} gave {:?}", cut, err
        );

        // The pristine bytes still recover (the store itself was fine).
        std::fs::write(&path, &good).expect("restore snapshot");
        let recovered = StoreBuilder::new()
            .vip_capacity(1)
            .guest_ports(2)
            .recover(&path)
            .expect("pristine snapshot recovers");
        prop_assert_eq!(full_scan(&recovered).len(), 20);
    }
}

/// The O(delta) replay regression guard (universal level): after a
/// checkpoint at log index k, a fresh handle's replay-step counter must be
/// proportional to (len − k), not to len. If checkpoint bootstrapping ever
/// silently regresses to O(history) replay, this counter catches it.
#[test]
fn fresh_handle_replay_is_o_delta_not_o_history() {
    let n = 3;
    let history = 500u64; // sealed prefix
    let delta = 7u64; // post-checkpoint suffix
    let obj = Arc::new(Universal::new(Counter, CasFactory::new(Liveness::new_first_n(n, n)), n));
    let mut writer = obj.owned_handle(0).unwrap();
    for _ in 0..history {
        writer.apply(CounterOp::Add(1));
    }
    let sealed_at = writer.checkpoint();
    assert_eq!(sealed_at, history, "checkpoint seals the whole history");
    for _ in 0..delta {
        writer.apply(CounterOp::Add(1));
    }
    let mut fresh = obj.owned_handle(1).unwrap();
    assert_eq!(fresh.apply(CounterOp::Get), history + delta, "replay is still exact");
    let steps = fresh.replay_steps();
    assert!(
        steps <= delta + 2,
        "fresh handle replayed {steps} cells; O(delta) demands ≤ {} (delta {delta} + \
         checkpoint cell + own op)",
        delta + 2
    );
    assert_eq!(
        fresh.replayed_cells(),
        history + delta + 2,
        "absolute position still spans the whole log"
    );
}

/// The same guard at the store level, end to end through disk: a store
/// checkpointed at index k recovers with zero boot replay and O(1) work
/// for its first operation.
#[test]
fn recovered_store_does_not_replay_history() {
    let path = scratch("o-delta-store.snapshot");
    let history = 300u64;
    {
        let store = StoreBuilder::new().shards(2).vip_capacity(1).guest_ports(2).build().unwrap();
        let mut client = store.client(store.admit_vip().unwrap());
        for i in 0..history {
            client.put(&format!("key/{i:03}"), i);
        }
        store.checkpoint().write_to(&path).unwrap();
        let indices = store.anchor_indices();
        assert_eq!(
            indices.iter().map(|i| i - 1).sum::<u64>(),
            history,
            "the shards' checkpoints jointly seal every commit"
        );
    }
    let recovered = StoreBuilder::new().vip_capacity(1).guest_ports(2).recover(&path).unwrap();
    assert_eq!(recovered.replay_steps(), 0, "boot replays nothing");
    let mut client = recovered.client(recovered.admit_vip().unwrap());
    assert_eq!(client.get("key/000"), Some(0));
    assert!(
        recovered.replay_steps() <= 2,
        "first post-recovery op replayed {} cells, expected O(1)",
        recovered.replay_steps()
    );
    assert_eq!(full_scan(&recovered).len(), history as usize);
}

/// Per-shard prefix consistency under concurrency: clients write ordered
/// streams to disjoint key spaces while a persister flushes in the
/// background; whatever cut the crash lands on, each shard's recovered
/// content is a *prefix* of every client's per-shard write order — no
/// gaps, no phantom writes.
#[test]
fn concurrent_flushes_recover_to_a_per_shard_prefix() {
    use asymmetric_progress::store::persist::Persister;
    let path = scratch("prefix-cut.snapshot");
    let clients = 3usize;
    let per_client = 40u64;
    let shards;
    {
        let store = StoreBuilder::new().shards(3).vip_capacity(1).guest_ports(4).build().unwrap();
        shards = store.shards();
        let persister = Persister::new(&path);
        persister.persist(&store).unwrap();
        let tickets: Vec<_> = (0..clients)
            .map(|c| if c == 0 { store.admit_vip().unwrap() } else { store.admit_guest() })
            .collect();
        std::thread::scope(|s| {
            for (c, ticket) in tickets.iter().enumerate() {
                let store = &store;
                s.spawn(move || {
                    let mut client = store.client(*ticket);
                    for i in 0..per_client {
                        client.put(&format!("c{c}/{i:03}"), i);
                    }
                });
            }
            // Flush concurrently with the writers: the cut lands wherever
            // the group commits happen to seal each shard.
            let store = &store;
            let persister = &persister;
            s.spawn(move || {
                for _ in 0..5 {
                    persister.persist(store).unwrap();
                }
            });
        });
    } // crash
    let recovered = StoreBuilder::new().vip_capacity(1).guest_ports(4).recover(&path).unwrap();
    let entries = full_scan(&recovered);
    for (k, v) in &entries {
        let (c, i) = k.split_once('/').expect("key shape");
        let i: u64 = i.parse().unwrap();
        assert_eq!(*v, i, "phantom or torn write: {k}={v}");
        assert!(c.starts_with('c') && i < per_client);
    }
    // Per shard and per client, presence must be prefix-closed in write
    // order: if c's i-th key on shard s survived, every earlier key of c
    // on shard s survived too.
    let present: std::collections::BTreeSet<&str> =
        entries.iter().map(|(k, _)| k.as_str()).collect();
    for c in 0..clients {
        for s in 0..shards {
            let mut seen_missing = false;
            for i in 0..per_client {
                let key = format!("c{c}/{i:03}");
                if recovered.shard_of(&key) != s {
                    continue;
                }
                if present.contains(key.as_str()) {
                    assert!(
                        !seen_missing,
                        "shard {s}: client {c}'s key {key} survived after an earlier gap — \
                         not a prefix of the commit order"
                    );
                } else {
                    seen_missing = true;
                }
            }
        }
    }
}

/// Snapshot files round-trip through the public `StoreSnapshot` API too
/// (capture → encode → decode → recover), so external tooling can inspect
/// snapshots without a store.
#[test]
fn snapshot_api_roundtrip() {
    let store = StoreBuilder::new().shards(2).vip_capacity(1).guest_ports(2).build().unwrap();
    let mut client = store.client(store.admit_guest());
    client.put("a", 1);
    client.put("b", 2);
    let snap = store.checkpoint();
    let decoded = StoreSnapshot::decode(&snap.encode()).unwrap();
    assert_eq!(decoded, snap);
    assert_eq!(decoded.entries(), 2);
}

/// The acceptance-criteria roundtrip: a store that performed **live
/// splits** flushes, crashes, and recovers with its post-split topology
/// intact — same shard count, same split tree, same placement, same data.
#[test]
fn post_split_topology_survives_crash_recovery() {
    let path = scratch("post-split.snapshot");
    let (expected, topology_before) = {
        let store = StoreBuilder::new().shards(2).vip_capacity(1).guest_ports(3).build().unwrap();
        let mut c = store.client(store.admit_vip().unwrap());
        for i in 0..96u64 {
            c.put(&format!("key/{i:03}"), i);
        }
        // Two live splits (one stacked on the first child's parent).
        let c1 = store.split_shard(store.hottest_shard()).unwrap();
        store.split_shard(c1 % store.shards()).unwrap();
        assert_eq!(store.shards(), 4);
        assert_eq!(store.topology().version(), 2);
        c.put("post/split", 7);
        store.checkpoint().write_to(&path).unwrap();
        // Post-flush commits must not survive.
        c.put("late", 1);
        (full_scan(&store), store.topology())
    }; // crash
    let recovered = StoreBuilder::new().vip_capacity(1).guest_ports(3).recover(&path).unwrap();
    assert_eq!(recovered.shards(), 4, "post-split shard count restored");
    let topology_after = recovered.topology();
    assert_eq!(topology_after.version(), 2, "topology version restored");
    assert_eq!(topology_after, topology_before, "the split tree survives verbatim");
    // Placement agrees exactly with the pre-crash topology, so every key
    // routes to the shard that actually holds its data.
    let mut c = recovered.client(recovered.admit_vip().unwrap());
    let scanned: Vec<(String, u64)> =
        full_scan(&recovered).into_iter().filter(|(k, _)| k != "late").collect();
    assert_eq!(scanned, expected.into_iter().filter(|(k, _)| k != "late").collect::<Vec<_>>());
    for (key, value) in &scanned {
        assert_eq!(c.get(key), Some(*value), "{key} routes to its post-split shard");
        assert_eq!(
            recovered.shard_of(key),
            topology_before.shard_of(key),
            "{key} placement survives recovery"
        );
    }
    assert_eq!(c.get("late"), None, "post-flush commits are not durable");
    // The recovered store can keep splitting.
    let next = recovered.split_shard(0).unwrap();
    assert_eq!(next, 4);
    assert_eq!(recovered.topology().version(), 3);
    c.put("after/recovery", 9);
    assert_eq!(c.get("after/recovery"), Some(9));
}

// ---------------------------------------------------------------------------
// Elastic-topology recovery: merged trees, tombstones, format upgrades.
// ---------------------------------------------------------------------------

/// FNV-1a 64, duplicated here on purpose: the tests below hand-encode and
/// re-seal snapshot bytes, and the checksum oracle must not share code
/// with the system under test.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The post-merge roundtrip: a store that split **and merged** live
/// flushes, crashes, and recovers with its tombstoned topology intact —
/// same slots, same tombstones, same placement, same data — and can keep
/// splitting and merging afterwards.
#[test]
fn post_merge_topology_survives_crash_recovery() {
    let path = scratch("post-merge.snapshot");
    let (expected, topology_before) = {
        let store = StoreBuilder::new().shards(2).vip_capacity(1).guest_ports(3).build().unwrap();
        let mut c = store.client(store.admit_vip().unwrap());
        for i in 0..96u64 {
            c.put(&format!("key/{i:03}"), i);
        }
        // Grow by two, shrink by one: a live tombstone in the middle of
        // the slot range.
        let c1 = store.split_shard(0).unwrap();
        let c2 = store.split_shard(1).unwrap();
        store.merge_shard(c1).unwrap();
        assert_eq!(store.shards(), 4);
        assert_eq!(store.live_shards(), 3);
        assert_eq!(store.topology().version(), 3);
        c.put("post/merge", 7);
        store.checkpoint().write_to(&path).unwrap();
        // Post-flush commits must not survive.
        c.put("late", 1);
        let _ = c2;
        (full_scan(&store), store.topology())
    }; // crash
    let recovered = StoreBuilder::new().vip_capacity(1).guest_ports(3).recover(&path).unwrap();
    assert_eq!(recovered.shards(), 4, "tombstones keep their slot across recovery");
    assert_eq!(recovered.live_shards(), 3, "the live set survives");
    let topology_after = recovered.topology();
    assert_eq!(topology_after, topology_before, "the tombstoned tree survives verbatim");
    assert!(!topology_after.is_live(2), "shard 2 is still retired");
    let mut c = recovered.client(recovered.admit_vip().unwrap());
    let scanned: Vec<(String, u64)> =
        full_scan(&recovered).into_iter().filter(|(k, _)| k != "late").collect();
    assert_eq!(scanned, expected.into_iter().filter(|(k, _)| k != "late").collect::<Vec<_>>());
    for (key, value) in &scanned {
        assert_eq!(c.get(key), Some(*value), "{key} routes to its post-merge shard");
        assert_eq!(
            recovered.shard_of(key),
            topology_before.shard_of(key),
            "{key} placement survives recovery"
        );
    }
    assert_eq!(c.get("late"), None, "post-flush commits are not durable");
    // The tombstone is empty and stays that way; stats agree with data.
    let stats = recovered.snapshot_stats();
    assert_eq!(stats[2].entries, 0, "the recovered tombstone holds nothing");
    // The recovered store keeps reconfiguring: split, then merge it back.
    let next = recovered.split_shard(0).unwrap();
    assert_eq!(next, 4);
    assert_eq!(recovered.merge_shard(next).unwrap(), 0);
    assert_eq!(recovered.topology().version(), 5);
    c.put("after/recovery", 9);
    assert_eq!(c.get("after/recovery"), Some(9));
    assert_eq!(full_scan(&recovered).len(), scanned.len() + 1);
}

/// Fault injection on the tombstone column specifically: structurally
/// invalid retirements (re-sealed so every checksum passes) must fail
/// closed with their own typed corruption errors — recovery never builds
/// a store whose tombstones lie.
#[test]
fn corrupted_tombstones_fail_closed_with_typed_errors() {
    let path = scratch("bad-tombstones.snapshot");
    // node records: (seed, parent, created_at, retired_at)
    let encode = |records: &[(u64, u32, u64, u64)], topo_version: u64| {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"APCS");
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.extend_from_slice(&(records.len() as u32).to_le_bytes());
        let topo_start = buf.len();
        buf.extend_from_slice(&topo_version.to_le_bytes());
        for &(seed, parent, created_at, retired_at) in records {
            buf.extend_from_slice(&seed.to_le_bytes());
            buf.extend_from_slice(&parent.to_le_bytes());
            buf.extend_from_slice(&created_at.to_le_bytes());
            buf.extend_from_slice(&retired_at.to_le_bytes());
        }
        let topo_sum = fnv(&buf[topo_start..]);
        buf.extend_from_slice(&topo_sum.to_le_bytes());
        for _ in records {
            let frame_start = buf.len();
            for _ in 0..4 {
                buf.extend_from_slice(&0u64.to_le_bytes());
            }
            let sum = fnv(&buf[frame_start..]);
            buf.extend_from_slice(&sum.to_le_bytes());
        }
        let sum = fnv(&buf);
        buf.extend_from_slice(&sum.to_le_bytes());
        buf
    };
    let recover = |bytes: &[u8]| {
        std::fs::write(&path, bytes).unwrap();
        StoreBuilder::new()
            .vip_capacity(1)
            .guest_ports(2)
            .recover(&path)
            .expect_err("corrupt tombstones must not recover")
    };
    let live = u64::MAX;
    // A retired root.
    let err = recover(&encode(&[(7, u32::MAX, 0, 1)], 1));
    assert!(
        matches!(err, RecoverError::Persist(PersistError::Corrupt(m)) if m.contains("root")),
        "retired root gave {err:?}"
    );
    // Retirement beyond the topology version.
    let err = recover(&encode(&[(7, u32::MAX, 0, live), (8, 0, 1, 9)], 2));
    assert!(
        matches!(err, RecoverError::Persist(PersistError::Corrupt(m)) if m.contains("version range")),
        "out-of-range tombstone gave {err:?}"
    );
    // Retirement at or before creation.
    let err = recover(&encode(&[(7, u32::MAX, 0, live), (8, 0, 2, 2)], 2));
    assert!(
        matches!(err, RecoverError::Persist(PersistError::Corrupt(m)) if m.contains("version range")),
        "pre-creation tombstone gave {err:?}"
    );
    // A live child under a tombstone.
    let err = recover(&encode(&[(7, u32::MAX, 0, live), (8, 0, 1, 3), (9, 1, 2, live)], 3));
    assert!(
        matches!(err, RecoverError::Persist(PersistError::Corrupt(m)) if m.contains("tombstone")),
        "live child of tombstone gave {err:?}"
    );
    // And a well-formed tombstone with a lying (non-empty) frame: build a
    // real post-merge snapshot, then graft data into the retired frame.
    let store = StoreBuilder::new().shards(1).vip_capacity(1).guest_ports(2).build().unwrap();
    let mut c = store.client(store.admit_vip().unwrap());
    for i in 0..8u64 {
        c.put(&format!("k{i}"), i);
    }
    let child = store.split_shard(0).unwrap();
    store.merge_shard(child).unwrap();
    let snap = store.checkpoint();
    let mut tampered = snap;
    let mut ghost = std::collections::BTreeMap::new();
    ghost.insert("ghost".to_string(), 1u64);
    tampered.shards[child] = asymmetric_progress::store::ShardSnapshot {
        log_index: tampered.shards[child].log_index,
        state: asymmetric_progress::store::ShardState::with_entries(ghost, 2).into(),
    };
    std::fs::write(&path, tampered.encode()).unwrap();
    let err = StoreBuilder::new()
        .vip_capacity(1)
        .guest_ports(2)
        .recover(&path)
        .expect_err("a tombstoned frame with entries must not recover");
    assert!(
        matches!(err, RecoverError::Persist(PersistError::Corrupt(m)) if m.contains("carries entries")),
        "ghost entries gave {err:?}"
    );
}

/// Random split/merge churn, then crash + recover: the recovered store
/// equals the oracle at the last flush and its placement function equals
/// the pre-crash one — the proptest twin of the deterministic roundtrip.
#[test]
fn churned_topology_recovers_exactly() {
    // Deterministic multi-round churn (no proptest macro needed: the
    // interesting randomness is the rendezvous placement itself).
    for seed in 0u64..6 {
        let path = scratch(&format!("churn-{seed}.snapshot"));
        let (expected, topo_before) = {
            let store = StoreBuilder::new()
                .shards(1 + (seed as usize % 3))
                .vip_capacity(1)
                .guest_ports(2)
                .build()
                .unwrap();
            let mut c = store.client(store.admit_vip().unwrap());
            let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            for i in 0..60u64 {
                c.put(&format!("key/{i:02}"), i ^ seed);
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if x % 7 == 0 {
                    let topo = store.topology();
                    let live: Vec<usize> =
                        (0..topo.shards()).filter(|&s| topo.is_live(s)).collect();
                    store.split_shard(live[(x >> 8) as usize % live.len()]).unwrap();
                } else if x % 7 == 1 {
                    let topo = store.topology();
                    if let Some(victim) = (0..topo.shards()).find(|&s| topo.check_merge(s).is_ok())
                    {
                        store.merge_shard(victim).unwrap();
                    }
                }
            }
            store.checkpoint().write_to(&path).unwrap();
            (full_scan(&store), store.topology())
        };
        let recovered = StoreBuilder::new().vip_capacity(1).guest_ports(2).recover(&path).unwrap();
        assert_eq!(recovered.topology(), topo_before, "seed {seed}: churned tree survives");
        assert_eq!(full_scan(&recovered), expected, "seed {seed}: data survives");
        let mut c = recovered.client(recovered.admit_vip().unwrap());
        for (k, v) in &expected {
            assert_eq!(c.get(k), Some(*v), "seed {seed}: {k} routes correctly after recovery");
        }
    }
}

/// The persister's scrape: flush cycles and failures reconcile with
/// `flushes()` — and under `k` concurrent requests as well as sequential
/// ones, every `persist()` call runs exactly one cycle.
#[test]
fn persister_scrape_counts_flushes_and_failures() {
    use asymmetric_progress::store::persist::Persister;

    let path = scratch("persist-metrics.snapshot");
    let store = StoreBuilder::new().shards(2).build().unwrap();
    let persister = Persister::new(&path);
    store.client(store.admit_guest()).put("k", 1);
    persister.persist(&store).unwrap();
    persister.persist(&store).unwrap();

    const CONCURRENT: u64 = 6;
    std::thread::scope(|s| {
        for _ in 0..CONCURRENT {
            s.spawn(|| persister.persist(&store).unwrap());
        }
    });

    let snap = persister.scrape();
    let flushes = snap.value("store_persist_flushes_total", &[]).unwrap();
    assert_eq!(flushes, persister.flushes(), "scrape agrees with `flushes()`");
    assert_eq!(snap.value("store_persist_flush_failures_total", &[]), Some(0));
    assert_eq!(flushes, 2 + CONCURRENT, "every persist() call runs one cycle");
    let lat = snap.histogram("store_persist_flush_latency_ns", &[]).unwrap();
    assert_eq!(lat.count, flushes, "every physical cycle is timed");

    // A failing flush (unwritable target) shows up as a failure cycle.
    let bad = Persister::new(scratch("no-such-dir").join("deep").join("x.snapshot"));
    assert!(bad.persist(&store).is_err());
    let snap = bad.scrape();
    assert_eq!(snap.value("store_persist_flushes_total", &[]), Some(1));
    assert_eq!(snap.value("store_persist_flush_failures_total", &[]), Some(1));
}
