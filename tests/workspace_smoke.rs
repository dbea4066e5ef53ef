//! Workspace smoke test: one real-thread consensus round and one model
//! Explorer run, exercising every facade re-export
//! (`asymmetric_progress::{core, model, registers, common2, universal,
//! hierarchy}`) so a wiring regression in `src/lib.rs` or the workspace
//! manifests fails fast and obviously.

use std::sync::Arc;

use asymmetric_progress::common2::TestAndSet;
use asymmetric_progress::core::consensus::{AsymmetricConsensus, Consensus};
use asymmetric_progress::core::liveness::Liveness;
use asymmetric_progress::hierarchy::theorem3;
use asymmetric_progress::model::explore::{Agreement, ExploreConfig, Explorer, ValidityIn};
use asymmetric_progress::model::programs::ProposeProgram;
use asymmetric_progress::model::{ProcessSet, SystemBuilder, Value};
use asymmetric_progress::registers::OnceBox;
use asymmetric_progress::store::{ProgressClass, StoreBuilder, StoreOp, StoreResp};
use asymmetric_progress::universal::seq::{Counter, CounterOp};
use asymmetric_progress::universal::{CasFactory, Universal};

/// Real threads: a full `(4,2)`-live propose round must agree on one of the
/// proposed values, and wait-free ports must see their guarantee honored.
#[test]
fn real_thread_asymmetric_consensus_round() {
    let spec = Liveness::new_first_n(4, 2);
    let cons: AsymmetricConsensus<u64> = AsymmetricConsensus::new(spec);
    let mut decisions = vec![0u64; 4];
    std::thread::scope(|s| {
        for (pid, slot) in decisions.iter_mut().enumerate() {
            let cons = &cons;
            s.spawn(move || {
                *slot = cons.propose(pid, 100 + pid as u64).unwrap();
            });
        }
    });
    let winner = decisions[0];
    assert!((100..104).contains(&winner), "decided value was proposed: {winner}");
    assert!(decisions.iter().all(|&d| d == winner), "agreement: {decisions:?}");
}

/// Model: the explorer exhaustively verifies agreement + validity for a
/// small `(3,1)`-live consensus system, reaching at least one decision.
#[test]
fn model_explorer_verifies_small_live_consensus() {
    let mut builder = SystemBuilder::new(3);
    let object = builder.add_live_consensus(ProcessSet::first_n(3), ProcessSet::first_n(1), 1);
    let system = builder.build(|pid| ProposeProgram::new(object, Value::Num(pid.index() as u32)));
    let explorer = Explorer::new(ExploreConfig::default().with_max_states(500_000));
    let validity = ValidityIn::new((0..3).map(Value::Num));
    let result = explorer.explore(&system, &[&Agreement, &validity]);
    assert!(result.ok(), "violations: {:?}", result.violations);
    assert!(!result.truncated, "exploration must be exhaustive at this size");
    assert!(!result.decisions.is_empty(), "some schedule must reach a decision");
}

/// The remaining facade crates each do one small real operation.
#[test]
fn facade_crates_all_wired() {
    // registers
    let slot: OnceBox<u64> = OnceBox::new();
    assert_eq!(slot.set(7), Ok(()));
    assert_eq!(slot.set(8), Err(8));
    assert_eq!(slot.get(), Some(&7));

    // common2
    let tas = TestAndSet::new();
    assert!(tas.test_and_set(), "first TAS wins");
    assert!(!tas.test_and_set(), "second TAS loses");

    // universal
    let counter =
        Arc::new(Universal::new(Counter, CasFactory::new(Liveness::new_first_n(2, 2)), 2));
    let mut h0 = counter.owned_handle(0).unwrap();
    let mut h1 = counter.owned_handle(1).unwrap();
    h0.apply(CounterOp::Add(2));
    h1.apply(CounterOp::Add(3));
    assert_eq!(h0.apply(CounterOp::Get), 5);

    // hierarchy
    let report = theorem3::theorem3_constructive(1, 1, 1);
    assert!(report.verified(), "Theorem 3 constructive direction at x=1: {report}");
}

/// The store crate: admission classes, sharded batched ops, wait-free
/// statistics — the full service surface through the facade.
#[test]
fn store_service_layer_wired() {
    let store =
        StoreBuilder::new().shards(2).vip_capacity(1).guest_ports(2).build().expect("valid sizing");

    // Admission: bounded VIP tier, unbounded guest tier.
    let vip = store.admit_vip().expect("first VIP fits");
    assert!(store.admit_vip().is_err(), "the wait-free tier is bounded");
    let guest = store.admit_guest();
    assert_eq!(vip.class(), ProgressClass::Vip);
    assert_eq!(guest.class(), ProgressClass::Guest);

    // Batched cross-shard operations through both classes.
    let mut v = store.client(vip);
    let mut g = store.client(guest);
    let resps = v.execute(vec![
        StoreOp::Put("a".into(), 1),
        StoreOp::Put("b".into(), 2),
        StoreOp::Cas { key: "a".into(), expect: Some(1), new: 3 },
    ]);
    assert_eq!(resps[2], Ok(StoreResp::Cas { ok: true, actual: Some(1) }));
    assert_eq!(g.get("a"), Some(3), "guest reads the VIP's committed state");
    assert_eq!(g.scan("", "z").len(), 2);

    // Wait-free stats cover both shards.
    let digests = store.snapshot_stats();
    assert_eq!(digests.len(), 2);
    assert_eq!(digests.iter().map(|d| d.entries).sum::<u64>(), 2);
}

/// The persistence layer: checkpoint, flush, crash, recover — the new
/// durability surface through the facade.
#[test]
fn store_persistence_wired() {
    use asymmetric_progress::store::persist::Persister;

    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("smoke.snapshot");

    {
        let store = StoreBuilder::new()
            .shards(2)
            .vip_capacity(1)
            .guest_ports(2)
            .build()
            .expect("valid sizing");
        let mut c = store.client(store.admit_guest());
        c.put("durable", 1);
        let persister = Persister::new(&path);
        persister.persist(&store).expect("flush");
        assert_eq!(persister.flushes(), 1);
        c.put("volatile", 2); // committed after the flush: lost in the crash
    }

    let recovered =
        StoreBuilder::new().vip_capacity(1).guest_ports(2).recover(&path).expect("recover");
    assert_eq!(recovered.shards(), 2, "shard count restored from the snapshot");
    assert_eq!(recovered.replay_steps(), 0, "boot replays nothing (O(delta))");
    let mut c = recovered.client(recovered.admit_vip().expect("vip"));
    assert_eq!(c.get("durable"), Some(1));
    assert_eq!(c.get("volatile"), None, "prefix consistency as of the last flush");
}

/// Every test-name filter on a `cargo test` line of the CI workflow names
/// a `fn` or a `mod` of the workspace, so renaming a test cannot leave a
/// CI line quietly running none. libtest matches a filter as a substring
/// of a test's path, so a filter passes if it is part of some item's name.
#[test]
fn ci_test_filters_name_workspace_items() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut names = std::collections::BTreeSet::new();
    for dir in ["crates", "src", "tests", "examples"] {
        collect_item_names(&root.join(dir), &mut names);
    }
    let ci = std::fs::read_to_string(root.join(".github/workflows/ci.yml")).expect("ci.yml");
    let filters: Vec<&str> = ci
        .lines()
        .filter_map(|line| line.trim().strip_prefix("cargo test "))
        .flat_map(test_filters)
        .collect();
    assert!(!filters.is_empty(), "ci.yml names no test on a `cargo test` line");
    let dangling: Vec<&str> =
        filters.into_iter().filter(|f| !names.iter().any(|name| name.contains(f))).collect();
    assert!(dangling.is_empty(), "ci.yml filters that name no fn or mod: {dangling:?}");
}

/// The test-name filters among the arguments of one `cargo test` line:
/// every word that is neither a flag nor the value of one.
fn test_filters(args: &str) -> Vec<&str> {
    let mut filters = Vec::new();
    let mut words = args.split_whitespace();
    while let Some(word) = words.next() {
        match word {
            "-p" | "--package" | "--test" | "--manifest-path" => {
                words.next();
            }
            flag if flag.starts_with('-') => {}
            filter => filters.push(filter),
        }
    }
    filters
}

/// The name after every `fn` and `mod` keyword of the `.rs` files under
/// `dir`.
fn collect_item_names(dir: &std::path::Path, names: &mut std::collections::BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).expect("a source dir") {
        let path = entry.expect("a dir entry").path();
        if path.is_dir() {
            collect_item_names(&path, names);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            let text = std::fs::read_to_string(&path).expect("a source file");
            let words: Vec<&str> = text
                .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .filter(|word| !word.is_empty())
                .collect();
            for pair in words.windows(2) {
                if pair[0] == "fn" || pair[0] == "mod" {
                    names.insert(pair[1].to_owned());
                }
            }
        }
    }
}
