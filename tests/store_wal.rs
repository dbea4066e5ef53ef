//! The WAL crash battery: op-granular durability between checkpoints.
//!
//! The contract under test is the PR's asymmetric-durability claim:
//!
//! * every commit acknowledged through [`Client::request`] under
//!   `DurabilityClass::Sync` (a VIP privilege) survives a crash at *any*
//!   later point;
//! * group-committed operations recover to a **consistent prefix** of the
//!   commit order — never a gap, never a phantom, never a torn write;
//! * snapshot + WAL replay together equal an independent `BTreeMap`
//!   oracle at the last durability boundary, with checkpoints interleaved
//!   at arbitrary cadence;
//! * crash damage to the log itself is handled asymmetrically: a torn
//!   tail recovers the valid prefix, mid-log corruption fails closed with
//!   a typed error;
//! * recovery ignores and sweeps orphaned `*.tmp` snapshot files left by
//!   a crash between temp-file write and rename.
//!
//! [`Client::request`]: asymmetric_progress::store::store::Client::request

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;

use asymmetric_progress::store::persist::{PersistError, Persister};
use asymmetric_progress::store::wal::{Wal, WalConfig};
use asymmetric_progress::store::{
    Client, DurabilityClass, Request, Response, Store, StoreBuilder, StoreError, StoreOp, StoreResp,
};

/// A scratch *directory* under cargo's per-target tmp dir, wiped clean so
/// stale segments from a previous run never leak into a recovery scan.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("store-wal").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Deterministic flushing: frames hit disk only on `sync()` and
/// checkpoint rotations, so every test knows exactly where its
/// durability boundary is.
fn no_flusher() -> WalConfig {
    WalConfig { background_flusher: false, ..WalConfig::default() }
}

fn builder() -> StoreBuilder {
    StoreBuilder::new().shards(2).vip_capacity(1).guest_ports(2)
}

/// One commit under `DurabilityClass::Sync`, acknowledged after its fsync.
fn sync_commit(client: &mut Client<'_>, ops: Vec<StoreOp>) -> Response {
    let credential = client.credential();
    client.request(Request::new(ops).credential(credential).durability(DurabilityClass::Sync))
}

/// The independent oracle (duplicated from `store_recovery.rs` on
/// purpose: the oracle must not share code with the system under test).
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

fn as_entries(state: &BTreeMap<String, u64>) -> Vec<(String, u64)> {
    state.iter().map(|(k, v)| (k.clone(), *v)).collect()
}

/// The acceptance-criteria matrix: a mixed VIP/guest stream killed at
/// every possible point. Every `Sync`-acknowledged commit must
/// survive, and (with the background flusher disabled, so the only flush
/// points are the syncs themselves) the recovered state is *exactly* the
/// oracle at the last acknowledged sync — group commits after it are
/// lost whole, never half-applied.
#[test]
fn kill_at_any_point_recovers_every_sync_acknowledged_commit() {
    let stream: Vec<StoreOp> = (0..24u64)
        .map(|i| match i % 4 {
            0 => StoreOp::Put(format!("key/{:02}", i % 7), i + 100),
            1 => StoreOp::Put(format!("key/{:02}", (i + 3) % 7), i + 200),
            2 => StoreOp::Remove(format!("key/{:02}", i % 7)),
            _ => StoreOp::Cas { key: format!("key/{:02}", (i + 1) % 7), expect: None, new: i },
        })
        .collect();
    for kill_at in 0..=stream.len() {
        let dir = scratch_dir(&format!("kill-{kill_at}"));
        let snap = dir.join("store.snapshot");
        let wal_dir = dir.join("wal");
        let mut oracle = BTreeMap::new();
        let mut at_last_sync = BTreeMap::new();
        let mut prefix_states = vec![oracle.clone()];
        {
            let wal = Wal::open(&wal_dir, no_flusher()).expect("fresh wal");
            let store = builder().build_with_wal(Arc::clone(&wal)).expect("sizing");
            let mut vip = store.client(store.admit_vip().expect("first vip"));
            let mut guest = store.client(store.admit_guest());
            for (i, op) in stream.iter().take(kill_at).enumerate() {
                // Every third op is a VIP sync commit; the rest ride the
                // guest group-commit path.
                if i % 3 == 2 {
                    assert!(sync_commit(&mut vip, vec![op.clone()]).is_ok(), "sync acknowledged");
                } else {
                    guest.execute(vec![op.clone()]);
                }
                oracle_apply(&mut oracle, op);
                prefix_states.push(oracle.clone());
                if i % 3 == 2 {
                    at_last_sync = oracle.clone();
                }
            }
            wal.simulate_crash(); // the kill: buffered group frames die here
        }
        let wal = Wal::open(&wal_dir, no_flusher()).expect("reopen after crash");
        let recovered =
            builder().recover_with_wal(&snap, wal).expect("wal-only recovery (no snapshot yet)");
        let got = full_scan(&recovered);
        // A sync flushes *everything* buffered before it (group frames
        // included), so the recovered state is the oracle at the last
        // acknowledged sync — in particular a consistent prefix.
        assert_eq!(
            got,
            as_entries(&at_last_sync),
            "kill at {kill_at}: recovery must land exactly on the last sync boundary"
        );
        assert!(
            prefix_states.iter().any(|s| as_entries(s) == got),
            "kill at {kill_at}: recovered state is not a prefix of the commit order"
        );
    }
}

/// The group tier alone, background flusher ON: wherever the flush
/// cadence happens to land when the process dies, the recovered state is
/// *some* prefix of the single-threaded commit order — the coalescing
/// window bounds what can be lost, and nothing is ever half-applied.
#[test]
fn group_commits_recover_to_a_consistent_prefix() {
    let dir = scratch_dir("group-prefix");
    let snap = dir.join("store.snapshot");
    let wal_dir = dir.join("wal");
    let mut oracle = BTreeMap::new();
    let mut prefix_states = vec![oracle.clone()];
    {
        let wal = Wal::open(&wal_dir, WalConfig::default()).expect("fresh wal");
        let store = builder().build_with_wal(Arc::clone(&wal)).expect("sizing");
        let mut guest = store.client(store.admit_guest());
        let flushes = || wal.scrape().value("store_wal_flushes_total", &[]).unwrap_or(0);
        for i in 0..40u64 {
            let op = StoreOp::Put(format!("key/{:02}", i % 9), i);
            guest.execute(vec![op.clone()]);
            oracle_apply(&mut oracle, &op);
            prefix_states.push(oracle.clone());
            if i == 19 {
                // Midway, a background cycle must have run, so the crash
                // lands after one, with later frames possibly buffered.
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                while flushes() == 0 {
                    assert!(std::time::Instant::now() < deadline, "the flusher never ran a cycle");
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            }
        }
        wal.simulate_crash();
    }
    let wal = Wal::open(&wal_dir, no_flusher()).expect("reopen after crash");
    let recovered = builder().recover_with_wal(&snap, wal).expect("recovery");
    let got = full_scan(&recovered);
    assert!(
        prefix_states.iter().any(|s| as_entries(s) == got),
        "recovered state {got:?} is not a prefix of the commit order"
    );
}

/// Crash damage to the log itself, end to end through
/// `recover_with_wal`: a tail torn mid-frame recovers the valid prefix;
/// the *same* damage mid-log (valid frames after it) fails closed with
/// the typed checksum error before a store is ever built.
#[test]
fn torn_tail_recovers_prefix_but_mid_log_corruption_fails_closed() {
    let dir = scratch_dir("tear-vs-corrupt");
    let snap = dir.join("store.snapshot");
    let wal_dir = dir.join("wal");
    {
        let wal = Wal::open(&wal_dir, no_flusher()).expect("fresh wal");
        let store = builder().build_with_wal(Arc::clone(&wal)).expect("sizing");
        let mut vip = store.client(store.admit_vip().expect("vip"));
        for i in 0..6u64 {
            assert!(sync_commit(&mut vip, vec![StoreOp::Put(format!("k{i}"), i)]).is_ok());
        }
        wal.simulate_crash();
    }
    let seg = std::fs::read_dir(&wal_dir)
        .expect("wal dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "apcw"))
        .max()
        .expect("one segment");
    let good = std::fs::read(&seg).expect("segment bytes");

    // Tear: cut into the last frame's checksum. The prefix survives.
    std::fs::write(&seg, &good[..good.len() - 5]).expect("tear tail");
    let wal = Wal::open(&wal_dir, no_flusher()).expect("a torn tail is expected crash damage");
    let recovered = builder().recover_with_wal(&snap, wal).expect("prefix recovery");
    assert_eq!(
        full_scan(&recovered),
        (0..5u64).map(|i| (format!("k{i}"), i)).collect::<Vec<_>>(),
        "the five intact frames survive; the torn sixth is cut off"
    );

    // Corruption: the same-size wound mid-log (frames still decode after
    // it) must fail closed — there is no safe prefix to claim.
    let mut bad = good.clone();
    bad[good.len() / 2] ^= 0x40;
    std::fs::write(&seg, &bad).expect("corrupt mid-log");
    // Wipe the reopened WAL's fresh segments so only the damaged one is
    // scanned (the tear-recovery above re-logged the replayed effects).
    for entry in std::fs::read_dir(&wal_dir).expect("wal dir").flatten() {
        if entry.path() != seg {
            let _ = std::fs::remove_file(entry.path());
        }
    }
    let err = Wal::open(&wal_dir, no_flusher()).expect_err("mid-log corruption must fail closed");
    assert!(
        matches!(err, PersistError::ChecksumMismatch { .. } | PersistError::Corrupt(_)),
        "mid-log corruption gave {err:?}"
    );
}

/// Satellite 3's fault injection: a crash between temp-file write and
/// rename leaves `<snapshot>.<pid>-<seq>.tmp` orphans. Recovery must
/// neither trust them (even when their bytes are a *valid* snapshot) nor
/// trip over them (even when they are garbage) — it sweeps them and
/// recovers from the real snapshot.
#[test]
fn orphaned_tmp_snapshots_are_ignored_and_swept() {
    let dir = scratch_dir("orphan-tmp");
    let snap = dir.join("store.snapshot");
    {
        let store = builder().build().expect("sizing");
        let mut vip = store.client(store.admit_vip().expect("vip"));
        for i in 0..8u64 {
            vip.put(&format!("real/{i}"), i);
        }
        store.checkpoint().write_to(&snap).expect("flush");
    }
    // A garbage orphan (killed mid-write)…
    std::fs::write(dir.join("store.snapshot.4242-1.tmp"), b"half a snapsh").expect("garbage tmp");
    // …and a *well-formed* orphan holding different data (killed after
    // the write, before the rename): valid bytes must not be trusted.
    let decoy = {
        let store = builder().build().expect("sizing");
        store.client(store.admit_guest()).put("decoy/key", 666);
        store.checkpoint().encode()
    };
    std::fs::write(dir.join("store.snapshot.4242-2.tmp"), &decoy).expect("decoy tmp");

    let recovered = builder().recover(&snap).expect("orphans must not break recovery");
    let entries = full_scan(&recovered);
    assert_eq!(entries.len(), 8, "exactly the real snapshot's data");
    assert!(entries.iter().all(|(k, _)| k.starts_with("real/")), "the decoy was not trusted");
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .expect("dir")
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".tmp"))
        .collect();
    assert!(leftovers.is_empty(), "orphans must be swept, found {leftovers:?}");

    // The WAL-attached recovery path sweeps too — including when no
    // snapshot exists at all (death before the first checkpoint).
    let dir2 = scratch_dir("orphan-tmp-fresh");
    let snap2 = dir2.join("store.snapshot");
    std::fs::write(dir2.join("store.snapshot.7-1.tmp"), b"junk").expect("tmp");
    let wal = Wal::open(dir2.join("wal"), no_flusher()).expect("fresh wal");
    let recovered = builder().recover_with_wal(&snap2, wal).expect("fresh store");
    assert!(full_scan(&recovered).is_empty());
    assert!(
        !dir2.join("store.snapshot.7-1.tmp").exists(),
        "the fresh-store path sweeps orphans too"
    );
}

/// Durability is a progress-class privilege, surfaced as typed errors:
/// a store without a WAL has nothing to fsync, a guest is *denied*
/// synchronous durability (and counted), and a flush that fails leaves
/// the commit applied but not acknowledged — the asymmetric contract at
/// the API surface, with the `store_wal_*` series observable through the
/// persister's scrape.
#[test]
fn synchronous_durability_is_a_vip_privilege() {
    // No WAL attached: nothing to fsync, and nothing is applied.
    let bare = builder().build().expect("sizing");
    let mut vip = bare.client(bare.admit_vip().expect("vip"));
    assert_eq!(
        sync_commit(&mut vip, vec![StoreOp::Put("k".into(), 1)]).results,
        vec![Err(StoreError::Unavailable { version: 0 })]
    );
    assert_eq!(vip.get("k"), None);

    let dir = scratch_dir("vip-privilege");
    let wal = Wal::open(dir.join("wal"), no_flusher()).expect("fresh wal");
    let store = builder().build_with_wal(Arc::clone(&wal)).expect("sizing");
    let persister = Persister::new(dir.join("store.snapshot")).with_wal(Arc::clone(&wal));

    let mut guest = store.client(store.admit_guest());
    assert_eq!(
        sync_commit(&mut guest, vec![StoreOp::Put("g".into(), 1)]).results,
        vec![Err(StoreError::GuestTier)],
        "synchronous durability is asymmetric by design"
    );
    let mut vip = store.client(store.admit_vip().expect("vip"));
    let resp = sync_commit(&mut vip, vec![StoreOp::Put("v".into(), 2)]);
    assert_eq!(resp.results, vec![Ok(StoreResp::Value(None))]);
    guest.put("g", 3); // a group append, for the class-labelled counter

    persister.persist(&store).expect("checkpoint");
    let snap = store.scrape();
    assert_eq!(snap.value("store_wal_sync_denied_total", &[]), Some(1));
    assert_eq!(snap.value("store_wal_appends_total", &[("class", "sync")]), Some(1));
    assert!(snap.value("store_wal_appends_total", &[("class", "group")]).unwrap_or(0) >= 1);
    assert!(snap.value("store_wal_flushes_total", &[]).unwrap_or(0) >= 1);
    assert!(
        snap.value("store_wal_rotations_total", &[]).unwrap_or(0) >= 1,
        "the checkpoint seal rotates the log"
    );

    // A covering flush that fails: one-byte segments make every cycle
    // after the first open a new file, and the directory is gone.
    let cfg = WalConfig { segment_bytes: 1, ..no_flusher() };
    let wal = Wal::open(dir.join("wal2"), cfg).expect("fresh wal");
    let store = builder().build_with_wal(wal).expect("sizing");
    let mut vip = store.client(store.admit_vip().expect("vip"));
    assert!(sync_commit(&mut vip, vec![StoreOp::Put("a".into(), 1)]).is_ok());
    std::fs::remove_dir_all(dir.join("wal2")).expect("pull the directory");
    let resp = sync_commit(&mut vip, vec![StoreOp::Put("b".into(), 2)]);
    assert!(matches!(&resp.results[..], [Err(StoreError::Corrupt { .. })]), "{resp:?}");
    assert_eq!(vip.get("b"), Some(2), "applied in memory, not durably acknowledged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole property: random workload, checkpoints at random
    /// cadence through a WAL-coupled persister, syncs at random cadence,
    /// then a crash that discards everything since the last flush point.
    /// Snapshot + WAL replay must equal the oracle at the last durability
    /// boundary (the later of last checkpoint / last sync) — and the
    /// recovered store keeps serving, response for response.
    #[test]
    fn snapshot_plus_wal_replay_matches_oracle(
        encoded in proptest::collection::vec((0u8..6, 0u8..12, 0u64..16), 1..50),
        ckpt_every in 2usize..9,
        sync_every in 2usize..7,
        case in 0u64..1_000_000,
    ) {
        let dir = scratch_dir(&format!("oracle-{case}-{ckpt_every}-{sync_every}"));
        let snap_path = dir.join("store.snapshot");
        let wal_dir = dir.join("wal");
        let mut oracle = BTreeMap::new();
        let mut at_boundary = BTreeMap::new();
        {
            let wal = Wal::open(&wal_dir, no_flusher()).expect("fresh wal");
            let store = builder().build_with_wal(Arc::clone(&wal)).expect("sizing");
            let persister = Persister::new(&snap_path).with_wal(Arc::clone(&wal));
            let mut vip = store.client(store.admit_vip().expect("first vip"));
            let mut guest = store.client(store.admit_guest());
            for (i, (kind, key, val)) in encoded.iter().enumerate() {
                let op = decode_op(*kind, *key, *val);
                let got = if i % sync_every == 0 {
                    sync_commit(&mut vip, vec![op.clone()]).results.pop().expect("one response")
                } else {
                    guest.execute(vec![op.clone()]).pop().expect("one response")
                };
                let want = Ok(oracle_apply(&mut oracle, &op));
                prop_assert_eq!(&got, &want, "pre-crash op {} diverged", i);
                if i % sync_every == 0 {
                    // The fsync covers every frame buffered up to here.
                    at_boundary = oracle.clone();
                }
                if (i + 1) % ckpt_every == 0 {
                    // The checkpoint covers every *commit* up to here,
                    // flushed or not.
                    persister.persist(&store).expect("cadence checkpoint");
                    at_boundary = oracle.clone();
                }
            }
            wal.simulate_crash();
        }
        let wal = Wal::open(&wal_dir, no_flusher()).expect("reopen after crash");
        let recovered = builder()
            .recover_with_wal(&snap_path, wal)
            .expect("snapshot + wal replay");
        prop_assert_eq!(
            full_scan(&recovered),
            as_entries(&at_boundary),
            "recovered state == oracle at the last durability boundary"
        );
        // Life after recovery: the same stream replays against the
        // recovered store and the boundary-time oracle, response for
        // response — reads, failed CAS and scans included.
        let mut client = recovered.client(recovered.admit_vip().expect("first vip"));
        for (i, (kind, key, val)) in encoded.iter().enumerate() {
            let op = decode_op(*kind, *key, *val);
            let got = client.execute(vec![op.clone()]).pop().expect("one response");
            let want = Ok(oracle_apply(&mut at_boundary, &op));
            prop_assert_eq!(&got, &want, "post-recovery op {} diverged", i);
        }
    }
}
