//! Fixture-driven end-to-end tests for the analyzer, plus the live
//! workspace self-check: the repository this crate lives in must itself be
//! lint-clean, always.

use std::path::{Path, PathBuf};

use apc_lint::graph::FnId;
use apc_lint::{analyze, analyze_files};

fn fixture(name: &str) -> (PathBuf, Vec<PathBuf>) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let file = root.join(name);
    (root, vec![file])
}

#[test]
fn known_bad_fires_every_rule_exactly_once() {
    let (root, files) = fixture("known_bad.rs");
    let (_ws, report) = analyze_files(&root, &files).unwrap();
    let mut rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
    rules.sort_unstable();
    assert_eq!(
        rules,
        ["panic", "progress", "relaxed", "safety"],
        "one finding per rule, nothing else:\n{}",
        report.render_text(),
    );
    assert_eq!(report.exit_code(true), 1, "--deny must fail on findings");
    assert_eq!(report.exit_code(false), 0, "warn-only mode never fails");
}

#[test]
fn blocking_call_two_hops_deep_reports_the_full_chain() {
    let (root, files) = fixture("known_bad.rs");
    let (_ws, report) = analyze_files(&root, &files).unwrap();
    let f =
        report.findings.iter().find(|f| f.rule == "progress").expect("the deep lock must be found");
    assert!(
        f.path.len() >= 3,
        "the chain must cross both intermediate hops (entry → mid → deep): {:?}",
        f.path,
    );
    assert!(f.path[0].contains("entry"), "chain starts at the annotated source: {:?}", f.path);
    assert!(
        f.path.last().unwrap().contains("lock"),
        "chain ends at the blocking primitive: {:?}",
        f.path,
    );
}

/// Pins the PR-7 observability contract mechanically: a scrape annotated
/// wait-free that reaches a blocking primitive (here, the engine mutex one
/// hop down) MUST fail the lint — so the real `Store::scrape` can only
/// stay green by actually staying off every lock and consensus path.
#[test]
fn blocking_scrape_fails_the_progress_rule() {
    let (root, files) = fixture("blocking_scrape.rs");
    let (_ws, report) = analyze_files(&root, &files).unwrap();
    let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
    assert_eq!(
        rules,
        ["progress"],
        "exactly the blocking-scrape finding:\n{}",
        report.render_text()
    );
    let f = &report.findings[0];
    assert!(f.message.contains("scrape"), "names the scrape entry point: {}", f.message);
    assert!(
        f.path.first().is_some_and(|hop| hop.contains("scrape")),
        "chain starts at the scrape: {:?}",
        f.path,
    );
    assert!(
        f.path.last().is_some_and(|hop| hop.contains("lock")),
        "chain ends at the blocking primitive: {:?}",
        f.path,
    );
    assert_eq!(report.exit_code(true), 1, "--deny rejects a blocking scrape");
}

/// Pins the PR-9 wire contract mechanically: a reactor VIP dispatch
/// annotated bounded-wait-free that reaches a blocking primitive (here, a
/// shared queue mutex one hop down) MUST fail the lint — so the real
/// `StoreServer::dispatch_vip` can only stay green by actually keeping
/// the whole VIP serve path off every lock and unbounded wait.
#[test]
fn blocking_vip_dispatch_fails_the_progress_rule() {
    let (root, files) = fixture("blocking_vip_dispatch.rs");
    let (_ws, report) = analyze_files(&root, &files).unwrap();
    let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
    assert_eq!(
        rules,
        ["progress"],
        "exactly the blocking-dispatch finding:\n{}",
        report.render_text()
    );
    let f = &report.findings[0];
    assert!(f.message.contains("dispatch_vip"), "names the dispatch entry point: {}", f.message);
    assert!(
        f.path.first().is_some_and(|hop| hop.contains("dispatch_vip")),
        "chain starts at the dispatch: {:?}",
        f.path,
    );
    assert!(
        f.path.last().is_some_and(|hop| hop.contains("lock")),
        "chain ends at the blocking primitive: {:?}",
        f.path,
    );
    assert_eq!(report.exit_code(true), 1, "--deny rejects a blocking VIP dispatch");
}

/// Pins the PR-10 batching contract mechanically: per-shard coalescing of
/// guest envelopes must never sit on the VIP serve path. A VIP dispatch
/// that reaches the batch accumulator's lock MUST fail the lint — so the
/// real reactor can only stay green by batching strictly after the VIP
/// phase, on its own obstruction-free arm.
#[test]
fn batching_on_the_vip_path_fails_the_progress_rule() {
    let (root, files) = fixture("batching_blocks_vip.rs");
    let (_ws, report) = analyze_files(&root, &files).unwrap();
    let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
    assert_eq!(
        rules,
        ["progress"],
        "exactly the batching-blocks-VIP finding:\n{}",
        report.render_text()
    );
    let f = &report.findings[0];
    assert!(f.message.contains("dispatch_vip"), "names the dispatch entry point: {}", f.message);
    assert!(
        f.path.first().is_some_and(|hop| hop.contains("dispatch_vip")),
        "chain starts at the VIP dispatch: {:?}",
        f.path,
    );
    assert!(
        f.path.iter().any(|hop| hop.contains("join_batch")),
        "chain crosses the coalescer: {:?}",
        f.path,
    );
    assert!(
        f.path.last().is_some_and(|hop| hop.contains("lock")),
        "chain ends at the accumulator lock: {:?}",
        f.path,
    );
    assert_eq!(report.exit_code(true), 1, "--deny rejects batching on the VIP path");
}

/// Pins the mechanism `apc-store`'s single execute path rests on: a tier
/// carried by a closure is checked against the annotated fn the closure
/// is written in. Of two arms sharing one unannotated higher-order
/// helper, only the one whose closure names a weaker commit than the arm
/// claims is a finding.
#[test]
fn a_tier_carried_by_a_closure_is_checked_in_the_caller() {
    let (root, files) = fixture("closure_carried_tier.rs");
    let (_ws, report) = analyze_files(&root, &files).unwrap();
    let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, ["progress"], "exactly the mislabelled arm:\n{}", report.render_text());
    let f = &report.findings[0];
    assert!(f.message.contains("serve_mislabelled"), "names the arm: {}", f.message);
    assert!(f.message.contains("commit_queued"), "names the commit: {}", f.message);
    assert_eq!(f.path.len(), 2, "straight from the arm's own body: {:?}", f.path);
    assert_eq!(report.exit_code(true), 1, "--deny rejects a mislabelled arm");
}

/// Pins what lets `apc-store` call its shard map plainly: a map reached
/// through a field of a known type is swept like any callee. A
/// `bounded_wait_free` read that reaches a map method taking a lock, and
/// an annotated map method that can panic, MUST both be findings — so the
/// real `KeyMap::get` / `KeyMap::range` can only stay green by staying
/// lock- and panic-free.
#[test]
fn a_map_method_that_locks_or_panics_fails_the_vip_read() {
    let (root, files) = fixture("map_read_blocks_vip.rs");
    let (_ws, report) = analyze_files(&root, &files).unwrap();
    let mut rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
    rules.sort_unstable();
    assert_eq!(rules, ["panic", "progress"], "exactly the two:\n{}", report.render_text());
    let blocked = report.findings.iter().find(|f| f.rule == "progress").expect("checked above");
    assert!(blocked.message.contains("read_vip"), "names the VIP read: {}", blocked.message);
    assert!(
        blocked.path.iter().any(|hop| hop.contains("LatchedMap::get")),
        "chain enters the map by its field's type: {:?}",
        blocked.path,
    );
    assert!(
        blocked.path.last().is_some_and(|hop| hop.contains("lock")),
        "chain ends at the latch: {:?}",
        blocked.path,
    );
    let panics = report.findings.iter().find(|f| f.rule == "panic").expect("checked above");
    assert!(panics.message.contains("LatchedMap::range"), "names the method: {}", panics.message);
    assert_eq!(report.exit_code(true), 1, "--deny rejects a latched or panicking map");
}

/// The class order: a `bounded_wait_free` VIP commit that calls the
/// lock-free `checkpoint`, and a `wait_free` read that reaches the
/// lock-free sealing walk through an unannotated helper, MUST fail the
/// lint. Neither reaches a blocking primitive, so only R1's order of the
/// strong classes catches them; the wait-free ↔ bounded-wait-free and
/// lock-free → lock-free calls beside them stay clean.
#[test]
fn class_order_a_wait_free_arm_reaching_the_lock_free_seal_walk_fails() {
    let (root, files) = fixture("lock_free_under_wait_free.rs");
    let (_ws, report) = analyze_files(&root, &files).unwrap();
    assert_eq!(report.findings.len(), 2, "exactly the two arms:\n{}", report.render_text());
    let chain = |source: &str| {
        let f = report
            .findings
            .iter()
            .find(|f| f.path.first().is_some_and(|hop| hop == source))
            .unwrap_or_else(|| panic!("no finding from {source}:\n{}", report.render_text()));
        assert_eq!(f.rule, "progress");
        assert!(f.message.contains("which is only lock_free"), "{}", f.message);
        f.path.iter().map(|hop| hop.split(' ').next().unwrap()).collect::<Vec<_>>()
    };
    assert_eq!(chain("Client::commit_vip"), ["Client::commit_vip", "Log::checkpoint"]);
    assert_eq!(chain("Client::tail"), ["Client::tail", "Client::settle", "Log::place_seal"]);
    assert_eq!(report.exit_code(true), 1, "--deny rejects a wait-free arm over a lock-free walk");
}

#[test]
fn known_good_is_clean() {
    let (root, files) = fixture("known_good.rs");
    let (_ws, report) = analyze_files(&root, &files).unwrap();
    assert!(report.findings.is_empty(), "{}", report.render_text());
    assert!(report.fns_annotated >= 3, "fixture annotations must be parsed");
    assert_eq!(report.exit_code(true), 0);
}

/// The self-check: running the analyzer over this very workspace must come
/// back clean. This is the test-suite twin of the CI `--deny` gate — a
/// change that introduces an unjustified blocking call, `Relaxed`, panic,
/// or call into a weaker class fails `cargo test` too, not just CI.
#[test]
fn live_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (ws, report) = analyze(&root).unwrap();
    assert!(
        report.findings.is_empty(),
        "the workspace must stay apc-lint-clean:\n{}",
        report.render_text(),
    );
    assert!(
        report.fns_annotated >= 60,
        "progress-annotation coverage regressed: only {} annotated fns",
        report.fns_annotated,
    );
    // The coverage block must break the workspace down by crate, and the
    // observability crate's record/read surface must stay fully swept.
    let obs = report
        .coverage
        .iter()
        .find(|c| c.name == "crates/obs")
        .expect("coverage reports crates/obs");
    assert!(
        obs.fns_annotated >= 8,
        "apc-obs scrape/record annotations regressed: {}/{}",
        obs.fns_annotated,
        obs.fns_total,
    );
    let total: usize = report.coverage.iter().map(|c| c.fns_total).sum();
    assert_eq!(total, report.fns_total, "coverage partitions every scanned fn");
    // The wire front-end must be swept too, and the reactor's VIP serve
    // path must keep its bounded-wait-free annotation: weakening (or
    // dropping) it would silently exempt the whole wire VIP path from the
    // progress sweep. The finding-free assertion above is what proves the
    // annotation *holds*; this pins that it stays *claimed*.
    let net = report
        .coverage
        .iter()
        .find(|c| c.name == "crates/net")
        .expect("coverage reports crates/net");
    assert!(
        net.fns_annotated >= 15,
        "apc-net annotations regressed: {}/{}",
        net.fns_annotated,
        net.fns_total
    );
    let dispatch = ws
        .all_fns()
        .map(|id| ws.fn_info(id))
        .find(|f| f.name == "dispatch_vip" && f.self_type.as_deref() == Some("StoreServer"))
        .expect("the reactor must keep a StoreServer::dispatch_vip fn");
    assert_eq!(
        dispatch.class,
        Some(apc_lint::parse::Class::BoundedWaitFree),
        "StoreServer::dispatch_vip must stay annotated bounded_wait_free",
    );
    // The batching arm introduced in PR 10 must stay *claimed* at the
    // guest tier's class — dropping the annotation would exempt the
    // coalesced path from the sweep, and upgrading it would be a lie the
    // finding-free assertion can't catch.
    let batch = ws
        .all_fns()
        .map(|id| ws.fn_info(id))
        .find(|f| f.name == "dispatch_guest_batch" && f.self_type.as_deref() == Some("StoreServer"))
        .expect("the reactor must keep a StoreServer::dispatch_guest_batch fn");
    assert_eq!(
        batch.class,
        Some(apc_lint::parse::Class::ObstructionFree),
        "StoreServer::dispatch_guest_batch must stay annotated obstruction_free",
    );
    // The request arms share one execute path and one re-plan driver, so
    // their classes live only in these annotations and in the closures
    // written under them: dropping or swapping one would leave nothing to
    // hold the arm's closures to.
    for (arm, class) in [
        ("request_vip", apc_lint::parse::Class::BoundedWaitFree),
        ("request_guest_many", apc_lint::parse::Class::ObstructionFree),
    ] {
        let f = ws
            .all_fns()
            .map(|id| ws.fn_info(id))
            .find(|f| f.name == arm && f.self_type.as_deref() == Some("Client"))
            .unwrap_or_else(|| panic!("apc-store must keep a Client::{arm} fn"));
        assert_eq!(f.class, Some(class), "Client::{arm} changed its progress class");
    }
    // The log walk's drivers: `request_vip` → `commit_vip` →
    // `sync_read` / `apply` is bounded wait-free end to end only while the
    // handle methods say so, and a checkpoint, a reconfiguration and the
    // sealing walk under both are lock-free, never more. Dropping an
    // annotation would let the sweep walk into the method by name and find
    // nothing to hold it to.
    for (driver, class) in [
        ("apply", apc_lint::parse::Class::BoundedWaitFree),
        ("sync_read", apc_lint::parse::Class::BoundedWaitFree),
        ("checkpoint", apc_lint::parse::Class::LockFree),
        ("reconfigure", apc_lint::parse::Class::LockFree),
        ("place_seal", apc_lint::parse::Class::LockFree),
    ] {
        let f = ws
            .all_fns()
            .map(|id| ws.fn_info(id))
            .find(|f| f.name == driver && f.self_type.as_deref() == Some("OwnedHandle"))
            .unwrap_or_else(|| panic!("apc-universal must keep an OwnedHandle::{driver} fn"));
        assert_eq!(f.class, Some(class), "OwnedHandle::{driver} changed its progress class");
    }
    // Every commit and read ends in a descent of the shard map: its two
    // entry points must stay claimed wait-free, or a rewrite that dropped
    // the annotation would let the sweep walk into them by name and hold
    // them to nothing.
    for method in ["get", "range"] {
        let f = ws
            .all_fns()
            .map(|id| ws.fn_info(id))
            .find(|f| f.name == method && f.self_type.as_deref() == Some("KeyMap"))
            .unwrap_or_else(|| panic!("apc-store must keep a KeyMap::{method} fn"));
        assert_eq!(
            f.class,
            Some(apc_lint::parse::Class::WaitFree),
            "KeyMap::{method} changed its progress class"
        );
    }
}

/// Every chain, by the analyzer's own resolution and through every callee
/// whatever its annotation, from `source` to a fn `is_target` picks, as
/// `A::f → B::g → …`, sorted.
fn chains_into(
    ws: &apc_lint::graph::Workspace,
    source: FnId,
    is_target: impl Fn(FnId) -> bool,
) -> Vec<String> {
    // Breadth-first over every resolved callee, remembering how each fn
    // was first reached.
    let mut reached = std::collections::HashMap::from([(source, source)]);
    let mut queue = std::collections::VecDeque::from([source]);
    while let Some(cur) = queue.pop_front() {
        for call in ws.calls_of(cur) {
            for target in ws.resolve(cur, call) {
                if let std::collections::hash_map::Entry::Vacant(e) = reached.entry(target) {
                    e.insert(cur);
                    queue.push_back(target);
                }
            }
        }
    }
    let mut chains: Vec<String> = reached
        .keys()
        .filter(|&&id| is_target(id))
        .map(|&id| {
            let mut chain = vec![ws.fn_info(id).qualified()];
            let mut at = id;
            while at != source {
                at = reached[&at];
                chain.push(ws.fn_info(at).qualified());
            }
            chain.reverse();
            chain.join(" → ")
        })
        .collect();
    chains.sort();
    chains
}

/// The workspace's one fn named `name` on `self_type`.
fn method(ws: &apc_lint::graph::Workspace, self_type: &str, name: &str) -> FnId {
    ws.all_fns()
        .find(|&id| {
            let f = ws.fn_info(id);
            f.name == name && f.self_type.as_deref() == Some(self_type)
        })
        .unwrap_or_else(|| panic!("the workspace must keep a {self_type}::{name} fn"))
}

/// No commit carries housekeeping: nothing a VIP arm (`Client::request_vip`,
/// `StoreServer::dispatch_vip`), a guest arm (`Client::request_guest_from`,
/// `Store::commit_guest`) or a whole reactor turn (`StoreServer::poll`) can
/// reach, by the analyzer's own resolution and through every callee
/// whatever its annotation (no `try_*` cut), is a checkpoint, a
/// reconfiguration, the sealing walk under both, the drain step a split
/// and a merge share, the seal act's door and the re-base of the idle
/// ports behind it, a rebalance, a VIP's admission (it takes the admin
/// lock, so a reactor admits its VIP when it is built, never in a turn), or
/// the seal cadence: its step, its start and its thread's loop (a server
/// starts the thread when it is built, and no turn runs the step).
/// Housekeeping is an admin call only.
#[test]
fn the_vip_arm_reaches_no_housekeeping() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (ws, _) = analyze(&root).unwrap();
    let housekeeping = [
        "OwnedHandle::checkpoint",
        "OwnedHandle::reconfigure",
        "OwnedHandle::place_seal",
        "OwnedHandle::rebase",
        "Shard::seal_act",
        "Shard::rebase_idle",
        "Store::checkpoint",
        "Store::split_locked",
        "Store::merge_locked",
        "Store::seal_drain",
        "Store::rebalance",
        "Store::admit_vip",
        "Store::seal_due",
        "StoreCore::seal_due",
        "Store::start_seal_cadence",
        "SealCadence::cadence_loop",
    ];
    for target in housekeeping {
        let (self_type, name) = target.split_once("::").unwrap();
        method(&ws, self_type, name);
    }
    let is_housekeeping = |id| housekeeping.contains(&ws.fn_info(id).qualified().as_str());
    for (self_type, entry) in [
        ("Client", "request_vip"),
        ("StoreServer", "dispatch_vip"),
        ("StoreServer", "poll"),
        ("Client", "request_guest_from"),
        ("Store", "commit_guest"),
    ] {
        let chains = chains_into(&ws, method(&ws, self_type, entry), is_housekeeping);
        assert!(
            chains.is_empty(),
            "{self_type}::{entry} reaches housekeeping:\n{}",
            chains.join("\n")
        );
    }
}

/// No register reclaims through an epoch: a set-once register frees with
/// its owner, a scaffold when its last user leaves, a hazard slot's value
/// once no hazard holds it. The epoch shim, the epoch-reclaimed register
/// and every manifest line naming the shim are gone, so neither the
/// dashboard path, nor a guest's round, nor a VIP's announcement can
/// reach one.
#[test]
fn the_workspace_reclaims_nothing_through_an_epoch() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for gone in ["shims/crossbeam-epoch", "crates/registers/src/atomic_cell.rs"] {
        assert!(!root.join(gone).exists(), "{gone} is back");
    }
    let mut manifests = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    for dir in ["crates", "shims"] {
        for member in std::fs::read_dir(root.join(dir)).unwrap() {
            let manifest = member.unwrap().path().join("Cargo.toml");
            if manifest.exists() {
                manifests.push(manifest);
            }
        }
    }
    let lines: Vec<String> = manifests
        .iter()
        .flat_map(|manifest| {
            let text = std::fs::read_to_string(manifest).unwrap();
            let named: Vec<String> = text
                .lines()
                .filter(|line| line.contains("crossbeam-epoch"))
                .map(|line| format!("{}: {line}", manifest.display()))
                .collect();
            named
        })
        .collect();
    assert!(lines.is_empty(), "manifests still name the epoch shim:\n{}", lines.join("\n"));
}
