//! Exhaustive model checks of the store's shard commit path: commit safety
//! on every schedule, the asymmetric liveness guarantee (Theorem 3
//! flavor) — every fair schedule with a VIP participant terminates, while
//! guest-only schedules admit a fair livelock — the **seal race**: a seal
//! (a checkpoint, a split's topology bump or a merge's drain, which place
//! alike) proposed through the same consensus path as client batches
//! places exactly once on every schedule (no committed op dropped or
//! replayed twice), also when two seals race each other, and VIP
//! fair-termination survives it — the cross-log merge, driven from any
//! port, whose adoption never precedes its drain — and the **read path**:
//! a reader bounded by the tail it loaded observes exactly a prefix of the
//! log containing everything that had completed, against batches alone and
//! against a seal, and terminates in every schedule —
//! and the **segment hand-off**: placers and a reader crossing from one
//! segment of the log to the next walk on in the segment the link decided,
//! and a placer that keeps the segment it built is caught.

use asymmetric_progress::model::explore::{
    Agreement, ExploreConfig, Explorer, Invariant, NoFaults, ValidityIn,
};
use asymmetric_progress::model::fairness::{fair_livelocks, fair_termination, StateGraph};
use asymmetric_progress::model::{ObjectId, Op, Program, ProgramAction};
use asymmetric_progress::model::{ProcessId, ProcessSet, Runner, Schedule, Value};
use asymmetric_progress::store::model::{
    merge_adopt_system, proposed_batches, seal_commit_system, segmented_commit_system,
    segmented_sync_read_system, shard_commit_system, sync_read_system, LogCells, LogPlaceProgram,
    MergeOrder, PlacementSafety, ADOPT_BASE, MODEL_SEGMENT_CELLS, SEAL_BASE, SEGMENT_BASE,
};

fn mask_participants(mask: u8, n: usize) -> ProcessSet {
    (0..n).filter(|i| mask & (1 << i) != 0).collect::<Vec<usize>>().into_iter().collect()
}

/// Safety matrix: for every participation pattern of a (3,1) shard cell,
/// every schedule agrees on one committed batch and the committed batch was
/// proposed.
#[test]
fn commit_safety_matrix_3_1_exhaustive() {
    for mask in 1u8..8 {
        let participants = mask_participants(mask, 3);
        let (sys, _) = shard_commit_system(3, 1, 1, participants);
        let explorer = Explorer::new(ExploreConfig::default().with_max_states(300_000));
        let result = explorer.explore(
            &sys,
            &[&Agreement, &ValidityIn::new(proposed_batches(participants)), &NoFaults],
        );
        assert!(result.ok(), "mask {mask:03b}: {:?}", result.violations.first());
        assert!(!result.truncated, "mask {mask:03b} must be exhaustive");
    }
}

/// Safety at (4,2): two VIP ports, two guest ports, all participating.
#[test]
fn commit_safety_4_2_exhaustive() {
    let participants = ProcessSet::first_n(4);
    let (sys, _) = shard_commit_system(4, 2, 1, participants);
    let explorer = Explorer::new(ExploreConfig::default().with_max_states(500_000));
    let result = explorer
        .explore(&sys, &[&Agreement, &ValidityIn::new(proposed_batches(participants)), &NoFaults]);
    assert!(result.ok(), "{:?}", result.violations.first());
    assert!(!result.truncated);
}

/// The asymmetric guarantee, positive half: **any** participation pattern
/// containing a VIP port terminates under every fair schedule.
#[test]
fn vip_schedules_always_terminate() {
    for (ports, vips) in [(3usize, 1usize), (4, 2)] {
        for mask in 1u8..(1 << ports) {
            let participants = mask_participants(mask, ports);
            let has_vip = participants.iter().any(|p| p.index() < vips);
            if !has_vip {
                continue;
            }
            let (sys, _) = shard_commit_system(ports, vips, 1, participants);
            let graph = StateGraph::build(&sys, 500_000);
            assert!(!graph.truncated(), "({ports},{vips}) mask {mask:04b} truncated");
            let verdict = fair_termination(&graph, |pid| participants.contains(pid));
            assert!(verdict.holds(), "({ports},{vips}) mask {mask:04b}: {verdict:?}");
        }
    }
}

/// The asymmetric guarantee, negative half: guest-only schedules can
/// livelock — the checker exhibits the lockstep starvation as a positive
/// witness in which every guest keeps stepping yet none ever commits.
#[test]
fn guest_only_schedules_admit_livelock() {
    for (ports, vips, guest_mask) in [(3usize, 1usize, 0b110u8), (4, 2, 0b1100)] {
        let participants = mask_participants(guest_mask, ports);
        let (sys, _) = shard_commit_system(ports, vips, 1, participants);
        let graph = StateGraph::build(&sys, 500_000);
        assert!(!graph.truncated());
        let witnesses = fair_livelocks(&graph);
        assert!(
            !witnesses.is_empty(),
            "({ports},{vips}) guests {guest_mask:04b}: lockstep livelock witness expected"
        );
        // The witness starves exactly the participating guests.
        assert!(witnesses.iter().any(|w| w.live.iter().all(|p| participants.contains(p))));
        let verdict = fair_termination(&graph, |pid| participants.contains(pid));
        assert!(!verdict.holds(), "guest-only termination must not be guaranteed");
    }
}

/// The seal race matrix, exhaustively: for a (3,1) shard, every committer
/// participation pattern racing a seal from every non-committing port
/// satisfies [`PlacementSafety`] on **every** schedule — no committed batch
/// is dropped by a checkpoint, a split's migration or a merge's drain,
/// nothing (batch or seal) is agreed by two log cells (no op replays into
/// both sides of a split), and terminal states place every participant.
/// This is the model-checked core of the safety claims of
/// [`Store::checkpoint`], [`Store::split_shard`] and the child-side half of
/// [`Store::merge_shard`]: the three place one seal alike, so the race is
/// checked once, under the checkpoint's name.
#[test]
fn checkpoint_install_race_safety_matrix_exhaustive() {
    for committer_mask in 0u8..8 {
        for sealer in 0usize..3 {
            if committer_mask & (1 << sealer) != 0 {
                continue; // the sealer does not also commit a batch
            }
            assert_seal_race_safe(3, 1, committer_mask, 1 << sealer, 400_000);
        }
    }
}

/// Checks [`PlacementSafety`] on every schedule of a `(ports,vips)` shard
/// whose `committer_mask` ports commit batches while its `sealer_mask`
/// ports seal.
fn assert_seal_race_safe(
    ports: usize,
    vips: usize,
    committer_mask: u8,
    sealer_mask: u8,
    max_states: usize,
) {
    let committers = mask_participants(committer_mask, ports);
    let sealers = mask_participants(sealer_mask, ports).into_iter().map(|p| p.index());
    let (sys, cells, proposals) = seal_commit_system(ports, vips, 1, committers, sealers);
    let safety = PlacementSafety {
        log: LogCells::flat(cells),
        participants: mask_participants(committer_mask | sealer_mask, ports),
        proposals,
    };
    let explorer = Explorer::new(ExploreConfig::default().with_max_states(max_states));
    let result = explorer.explore(&sys, &[&safety, &NoFaults]);
    let race =
        format!("({ports},{vips}) committers {committer_mask:04b} + seals {sealer_mask:04b}");
    assert!(result.ok(), "{race}: {:?}", result.violations.first());
    assert!(!result.truncated, "{race} must be exhaustive");
}

/// At (4,2): both VIPs and a guest commit while the other guest seals —
/// still safe on every schedule.
#[test]
fn checkpoint_race_4_2_exhaustive() {
    assert_seal_race_safe(4, 2, 0b0111, 0b1000, 2_000_000);
}

/// Two seals racing each other as well as batches: a split's seal carries
/// its operation, so a checkpoint racing it does not stop at it, and both
/// must place. For a (3,1) shard, every pair of sealing ports, with the
/// third port committing or idle, is safe on every schedule — neither seal
/// drops the other or a batch, and none places twice.
#[test]
fn split_install_race_safety_matrix_exhaustive() {
    for sealer_mask in [0b011u8, 0b101, 0b110] {
        for committer_mask in [0, 0b111 & !sealer_mask] {
            assert_seal_race_safe(3, 1, committer_mask, sealer_mask, 400_000);
        }
    }
}

/// At (4,2): both VIPs commit while both guests seal, one splitting and one
/// checkpointing — still safe on every schedule.
#[test]
fn split_race_4_2_exhaustive() {
    assert_seal_race_safe(4, 2, 0b0011, 0b1100, 2_000_000);
}

/// Liveness, positive half: a VIP committing while a guest seals terminates
/// on every fair schedule — the seal rides the guest tier and obeys the
/// helping rule, so it cannot block the wait-free class, and once the VIP
/// is done the sealer places in isolation.
#[test]
fn vip_commit_racing_checkpoint_terminates_fairly() {
    assert_vip_terminates_fairly(3, 1, &[0], &[2]);
}

/// VIP wait-freedom survives two guests sealing against each other — a
/// split and a checkpoint — as well as against its batch: the VIP decides
/// on every fair schedule. The two seals themselves are only lock-free:
/// once the VIP is done they race each other in lockstep, and the checker
/// exhibits that livelock.
#[test]
fn vip_commit_racing_split_terminates_fairly() {
    let (sys, _, _) = seal_commit_system(3, 1, 1, ProcessSet::from_indices([0]), [1, 2]);
    let graph = StateGraph::build(&sys, 2_000_000);
    assert!(!graph.truncated());
    let verdict = fair_termination(&graph, |pid| pid.index() == 0);
    assert!(verdict.holds(), "{verdict:?}");
    let verdict = fair_termination(&graph, |_| true);
    assert!(!verdict.holds(), "two guest seals racing each other must admit a livelock");
}

/// Both VIPs committing against a guest's seal also terminate fairly at
/// (4,2) — the wait-free tier's guarantee is per-class, not per-port.
#[test]
fn both_vips_racing_split_terminate_fairly_4_2() {
    assert_vip_terminates_fairly(4, 2, &[0, 1], &[3]);
}

/// Checks that every fair schedule of `committers` racing `sealers` on a
/// `(ports,vips)` shard terminates.
fn assert_vip_terminates_fairly(
    ports: usize,
    vips: usize,
    committers: &[usize],
    sealers: &[usize],
) {
    let (sys, _, _) = seal_commit_system(
        ports,
        vips,
        1,
        ProcessSet::from_indices(committers.iter().copied()),
        sealers.iter().copied(),
    );
    let graph = StateGraph::build(&sys, 2_000_000);
    assert!(!graph.truncated());
    let participants: ProcessSet = committers.iter().chain(sealers).copied().collect();
    let verdict = fair_termination(&graph, |pid| participants.contains(pid));
    assert!(verdict.holds(), "({ports},{vips}) {committers:?} + seals {sealers:?}: {verdict:?}");
}

/// Liveness, negative half: placing a seal is lock-free but not wait-free —
/// a guest sealer and a guest committer can starve each other in lockstep,
/// which the checker exhibits as a fair-livelock witness. This is why the
/// store's checkpoints, splits and merges ride the guest tier and are
/// documented as lock-free.
#[test]
fn guest_checkpointer_racing_guest_committer_admits_livelock() {
    assert_seal_race_admits_livelock(3, 1, 1, 2);
}

/// The lockstep livelock does not depend on the shard's shape: at (4,2),
/// with both VIP ports idle, the two guests — one committing, one
/// splitting — still starve each other.
#[test]
fn guest_splitter_racing_guest_committer_admits_livelock() {
    assert_seal_race_admits_livelock(4, 2, 2, 3);
}

/// Checks that a guest `committer` racing a guest `sealer` on a
/// `(ports,vips)` shard admits a fair livelock.
fn assert_seal_race_admits_livelock(ports: usize, vips: usize, committer: usize, sealer: usize) {
    let committers = ProcessSet::from_indices([committer]);
    let (sys, _, _) = seal_commit_system(ports, vips, 1, committers, Some(sealer));
    let graph = StateGraph::build(&sys, 500_000);
    assert!(!graph.truncated());
    let witnesses = fair_livelocks(&graph);
    assert!(!witnesses.is_empty(), "lockstep guests must admit a livelock witness");
}

/// The **cross-log merge matrix**: both halves of the merge — the child
/// drain and the parent adoption — racing committers on *each* log, for
/// every placement of the two other ports as committers across the two
/// logs, with the guest port 2 merging. Placement safety holds over the
/// union of both logs' cells (in particular, no batch ever places into
/// both sides of the merge) and the adoption never precedes the drain, on
/// every schedule.
#[test]
fn merge_adopt_race_matrix_exhaustive() {
    assert_merge_adopt_matrix_safe(2);
}

/// The cross-log merge matrix with the merger on every other port: the VIP
/// port 0 and the guest port 1 — so a merge driven through the wait-free
/// tier is checked as well as one through the guest tier.
#[test]
fn merge_install_race_safety_matrix_exhaustive() {
    for merger in [0, 1] {
        assert_merge_adopt_matrix_safe(merger);
    }
}

/// Checks the cross-log merge at (3,1) with `merger` driving it, for every
/// placement of the two other ports: on the child log, on the parent log,
/// or absent.
fn assert_merge_adopt_matrix_safe(merger: usize) {
    let others: Vec<usize> = (0..3).filter(|&p| p != merger).collect();
    for w0 in 0u8..3 {
        for w1 in 0u8..3 {
            // 0 = absent, 1 = commits on the child log, 2 = on the parent.
            let mut child: Vec<usize> = Vec::new();
            let mut parent: Vec<usize> = Vec::new();
            for (pid, which) in [(others[0], w0), (others[1], w1)] {
                match which {
                    1 => child.push(pid),
                    2 => parent.push(pid),
                    _ => {}
                }
            }
            assert_merge_adopt_safe(3, 1, &child, &parent, merger, 2_000_000);
        }
    }
}

/// At (4,2): both VIPs and a guest commit — two on the child log, one on
/// the parent's — while the other guest merges the two; safe and ordered
/// on every schedule.
#[test]
fn merge_race_4_2_exhaustive() {
    assert_merge_adopt_safe(4, 2, &[0, 2], &[1], 3, 4_000_000);
}

/// Checks [`PlacementSafety`] over both logs and [`MergeOrder`] on every
/// schedule of `merger` merging a `(ports,vips)` shard's `child` ports'
/// log into the `parent` ports' log.
fn assert_merge_adopt_safe(
    ports: usize,
    vips: usize,
    child: &[usize],
    parent: &[usize],
    merger: usize,
    max_states: usize,
) {
    let child_committers = ProcessSet::from_indices(child.iter().copied());
    let parent_committers = ProcessSet::from_indices(parent.iter().copied());
    let (sys, child_cells, parent_cells, proposals) =
        merge_adopt_system(ports, vips, 1, child_committers, parent_committers, merger);
    let all_cells: Vec<ObjectId> = child_cells.iter().chain(parent_cells.iter()).copied().collect();
    let participants: ProcessSet = child.iter().chain(parent).copied().chain([merger]).collect();
    let safety = PlacementSafety { log: LogCells::flat(all_cells), participants, proposals };
    let order = MergeOrder {
        child_cells,
        parent_cells,
        drain: Value::Num(SEAL_BASE + merger as u32),
        adopt: Value::Num(ADOPT_BASE + merger as u32),
    };
    let explorer = Explorer::new(ExploreConfig::default().with_max_states(max_states));
    let result = explorer.explore(&sys, &[&safety, &order, &NoFaults]);
    let race = format!("merger {merger}, child {child:?} / parent {parent:?}");
    assert!(result.ok(), "{race}: {:?}", result.violations.first());
    assert!(!result.truncated, "{race} must be exhaustive");
}

/// VIP wait-freedom survives a merge's two logs: a VIP committing on the
/// child log while a guest drives the dual-log retirement terminates on
/// every fair schedule — the merge obeys the helping rule on both logs, so
/// it cannot block the wait-free class. (The single-log half, a VIP against
/// the drain alone, is [`vip_commit_racing_checkpoint_terminates_fairly`].)
#[test]
fn vip_commit_racing_merge_terminates_fairly() {
    let (sys, _, _, _) =
        merge_adopt_system(3, 1, 1, ProcessSet::from_indices([0]), ProcessSet::EMPTY, 2);
    let graph = StateGraph::build(&sys, 2_000_000);
    assert!(!graph.truncated());
    let participants = ProcessSet::from_indices([0, 2]);
    let verdict = fair_termination(&graph, |pid| participants.contains(pid));
    assert!(verdict.holds(), "cross-log: {verdict:?}");
}

/// The livelock carries over to the cross-log merge: a guest merger and a
/// guest committing on the child log can starve each other in lockstep on
/// the drain, so the merge, like every seal, is lock-free and not
/// wait-free.
#[test]
fn guest_merger_racing_guest_committer_admits_livelock() {
    let (sys, _, _, _) =
        merge_adopt_system(3, 1, 1, ProcessSet::from_indices([1]), ProcessSet::EMPTY, 2);
    let graph = StateGraph::build(&sys, 2_000_000);
    assert!(!graph.truncated());
    let witnesses = fair_livelocks(&graph);
    assert!(!witnesses.is_empty(), "lockstep guests must admit a livelock witness");
}

/// The read-path safety matrix at (3,1), exhaustively: every choice of
/// reading port, every committer pattern over the other two, alone and
/// racing a seal from a third port.
/// On **every** schedule the tail never passes an undecided cell, the
/// reader's observation is exactly cells `[0, T)` for the tail `T` it
/// loaded, and it contains the value of every placer that had finished
/// before the reader's first event.
#[test]
fn sync_read_prefix_safety_matrix_3_1_exhaustive() {
    for reader in 0usize..3 {
        for committer_mask in 0u8..8 {
            if committer_mask & (1 << reader) != 0 {
                continue; // the reader does not also place
            }
            let committers = mask_participants(committer_mask, 3);
            let idle = (0usize..3).find(|&p| p != reader && committer_mask & (1 << p) == 0);
            for sealed in [false, true] {
                let sealer = match (sealed, idle) {
                    (false, _) => None,
                    (true, Some(port)) => Some(port),
                    (true, None) => continue, // no port left to seal
                };
                let (sys, safety) = sync_read_system(3, 1, 1, committers, sealer, reader);
                let explorer = Explorer::new(ExploreConfig::default().with_max_states(400_000));
                let result = explorer.explore(&sys, &[&safety, &NoFaults]);
                assert!(
                    result.ok(),
                    "reader {reader}, committers {committer_mask:03b}, sealer {sealer:?}: {:?}",
                    result.violations.first()
                );
                assert!(!result.truncated, "reader {reader} / {committer_mask:03b} / {sealer:?}");
            }
        }
    }
}

/// At (4,2): both VIPs and a guest place while the other guest reads, and
/// both VIPs place while one guest seals and the other reads — still a
/// prefix on every schedule.
#[test]
fn sync_read_prefix_safety_4_2_exhaustive() {
    let cases =
        [(ProcessSet::from_indices([0, 1, 2]), None), (ProcessSet::from_indices([0, 1]), Some(2))];
    for (committers, sealer) in cases {
        let (sys, safety) = sync_read_system(4, 2, 1, committers, sealer, 3);
        let explorer = Explorer::new(ExploreConfig::default().with_max_states(2_000_000));
        let result = explorer.explore(&sys, &[&safety, &NoFaults]);
        assert!(result.ok(), "sealer {sealer:?}: {:?}", result.violations.first());
        assert!(!result.truncated, "sealer {sealer:?} must be exhaustive");
    }
}

/// One read race's liveness: no step of the reader lies on a cycle of the
/// state graph — so it is done once scheduled often enough, in **every**
/// schedule, fair or not — and whether the placers can livelock is as
/// `placers_livelock` says (never with the reader among the starved).
fn assert_reader_always_terminates(
    (ports, vips): (usize, usize),
    committers: &[usize],
    sealer: Option<usize>,
    reader: usize,
    placers_livelock: bool,
) {
    let committers = ProcessSet::from_indices(committers.iter().copied());
    let (sys, _) = sync_read_system(ports, vips, 1, committers, sealer, reader);
    let graph = StateGraph::build(&sys, 2_000_000);
    assert!(!graph.truncated());
    let case = format!("({ports},{vips}) reader {reader} vs {committers} + sealer {sealer:?}");

    let mut scc_of = vec![0; graph.states().len()];
    for (i, scc) in graph.sccs().iter().enumerate() {
        for &state in scc {
            scc_of[state] = i;
        }
    }
    let on_a_cycle =
        graph.edges().iter().find(|e| e.pid.index() == reader && scc_of[e.from] == scc_of[e.to]);
    assert!(on_a_cycle.is_none(), "{case}: a reader step can repeat: {on_a_cycle:?}");
    let verdict = fair_termination(&graph, |pid| pid.index() == reader);
    assert!(verdict.holds(), "{case}: {verdict:?}");

    let witnesses = fair_livelocks(&graph);
    assert_eq!(!witnesses.is_empty(), placers_livelock, "{case}: placer livelock");
    assert!(witnesses.iter().all(|w| !w.live.iter().any(|p| p.index() == reader)), "{case}");
}

/// The reader's class: it terminates in every schedule, whatever the
/// placers do. That includes the guest-only lockstep schedules in which
/// the placers starve each other forever (the same graphs exhibit that
/// livelock): the reader never proposes, so there is nothing to obstruct.
#[test]
fn sync_read_terminates_in_every_schedule() {
    // A VIP reads, then a guest reads, while two guests can lock step.
    assert_reader_always_terminates((3, 1), &[1, 2], None, 0, true);
    assert_reader_always_terminates((4, 1), &[1, 2], None, 3, true);
    // A guest batch against a guest's seal can lock step too.
    assert_reader_always_terminates((3, 1), &[1], Some(2), 0, true);
    // With a VIP placing, everybody finishes.
    assert_reader_always_terminates((3, 1), &[0], Some(1), 2, false);
    assert_reader_always_terminates((4, 2), &[0, 1, 2], None, 3, false);
}

/// The seal (a checkpoint's among them) and adoption marker values and the
/// segment ids are namespaced away from batch ids (and from each other), so
/// none can be confused in a decision.
#[test]
fn checkpoint_values_are_disjoint_from_batches() {
    let batches = proposed_batches(ProcessSet::first_n(64));
    for pid in 0..64u32 {
        let markers = [SEAL_BASE + pid, ADOPT_BASE + pid, SEGMENT_BASE + pid];
        for marker in markers {
            assert!(!batches.contains(&Value::Num(marker)));
        }
        for (i, a) in markers.iter().enumerate() {
            for b in &markers[i + 1..] {
                assert_ne!(a, b, "marker namespaces must not collide");
            }
        }
    }
}

/// Obstruction-freedom still holds: each guest, running solo from the
/// initial state, commits — the livelock needs *contention*, not merely
/// the absence of a VIP.
#[test]
fn every_solo_guest_commits() {
    for guest in [1usize, 2] {
        let (sys, _) = shard_commit_system(3, 1, 2, ProcessSet::from_indices([guest]));
        let mut runner = Runner::new(sys);
        runner.run_until_terminated(&Schedule::solo(ProcessId::new(guest), 1), 200);
        assert_eq!(
            runner.system().decision(ProcessId::new(guest)),
            Some(Value::Num(100 + guest as u32)),
            "solo guest {guest} must commit its own batch"
        );
    }
}

/// The port patterns of a (3,1) race: every committer mask, alone and
/// racing a seal from a port that neither commits nor is `reader`.
fn race_patterns(reader: Option<usize>) -> Vec<(ProcessSet, Option<usize>)> {
    let mut patterns = Vec::new();
    for committer_mask in 0u8..8 {
        if reader.is_some_and(|r| committer_mask & (1 << r) != 0) {
            continue; // the reader does not also place
        }
        let committers = mask_participants(committer_mask, 3);
        let idle = (0usize..3).find(|&p| Some(p) != reader && committer_mask & (1 << p) == 0);
        patterns.push((committers, None));
        if idle.is_some() {
            patterns.push((committers, idle));
        }
    }
    patterns
}

/// The segment hand-off, placement half, exhaustively: (3,1) placers —
/// every committer pattern, alone and racing a seal — in a log of
/// two-cell segments that starts at a segment's first cell or at its last.
/// A placer that absorbs a segment's last cell proposes the segment it built
/// to the link and walks on in the one the link decided; on **every**
/// schedule [`PlacementSafety`] holds over the log the links decide.
#[test]
fn segment_handoff_placement_safety_3_1_exhaustive() {
    for start in 0..MODEL_SEGMENT_CELLS {
        for (committers, sealer) in race_patterns(None) {
            if committers.is_empty() && sealer.is_none() {
                continue;
            }
            let (sys, safety) = segmented_commit_system(3, 1, 1, committers, sealer, start, |p| p);
            let explorer = Explorer::new(ExploreConfig::default().with_max_states(2_000_000));
            let result = explorer.explore(&sys, &[&safety, &NoFaults]);
            let case = format!("start {start}, committers {committers} + sealer {sealer:?}");
            assert!(result.ok(), "{case}: {:?}", result.violations.first());
            assert!(!result.truncated, "{case} must be exhaustive");
        }
    }
}

/// A placer that loses a segment's last cell crosses into the segment the
/// link decided — the one the first crosser built — and places there.
#[test]
fn a_placer_walks_on_in_the_segment_the_link_decided() {
    // Started at its first segment's last cell: every placer crosses.
    let committers = ProcessSet::from_indices([0, 2]);
    let (sys, safety) = segmented_commit_system(3, 1, 1, committers, None, 1, |p| p);
    let mut runner = Runner::new(sys);
    // The VIP places in cell 0 and crosses first: its segment is linked.
    runner.run_until_terminated(&Schedule::solo(ProcessId::new(0), 1), 100);
    // The guest loses cell 0, crosses, and places in the VIP's segment.
    runner.run_until_terminated(&Schedule::solo(ProcessId::new(2), 1), 100);
    let sys = runner.system();
    let placed: Vec<Value> = safety
        .log
        .linked_cells(sys)
        .iter()
        .filter_map(|c| sys.object(*c).consensus_decision())
        .collect();
    assert_eq!(placed, [Value::Num(100), Value::Num(102)]);
    assert_eq!(sys.decision(ProcessId::new(2)), Some(Value::Num(102)));
    assert_eq!(safety.check(sys), Ok(()));
}

/// The segment hand-off, read half, exhaustively: every reading port and
/// every pattern of (3,1) placers over the other two, alone and racing a
/// seal, in a log of two-cell segments started at either cell. Placers
/// cross before they raise the tail, so on **every** schedule the reader
/// finds each link below its tail decided and observes exactly a prefix
/// holding everything that had completed ([`PrefixSafety`]).
#[test]
fn segment_handoff_read_race_prefix_safety_exhaustive() {
    for start in 0..MODEL_SEGMENT_CELLS {
        for reader in 0usize..3 {
            for (committers, sealer) in race_patterns(Some(reader)) {
                let (sys, safety) =
                    segmented_sync_read_system(3, 1, 1, committers, sealer, reader, start);
                let explorer = Explorer::new(ExploreConfig::default().with_max_states(2_000_000));
                let result = explorer.explore(&sys, &[&safety, &NoFaults]);
                let case = format!("start {start}, reader {reader}, {committers} + {sealer:?}");
                assert!(result.ok(), "{case}: {:?}", result.violations.first());
                assert!(!result.truncated, "{case} must be exhaustive");
            }
        }
    }
}

/// The mutant the hand-off model must reject: a placer that, crossing a
/// boundary, carries on in the segment it proposed there, whatever the link
/// decided.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct KeepsItsOwnSegment {
    placer: LogPlaceProgram,
    built: Option<Value>,
}

impl Program for KeepsItsOwnSegment {
    fn resume(&mut self, last: Option<Value>) -> ProgramAction {
        let last = self.built.take().or(last);
        let action = self.placer.resume(last);
        if let ProgramAction::Invoke(Op::Propose(_, built @ Value::Num(id))) = action {
            if (SEGMENT_BASE..SEGMENT_BASE + 64).contains(&id) {
                self.built = Some(built);
            }
        }
        action
    }
}

/// Three placers that each keep the segment they built: whichever loses a
/// link places its value in a segment no link decided, outside the log, and
/// [`PlacementSafety`] rejects the schedule — at either start.
#[test]
fn a_placer_that_keeps_its_own_segment_is_rejected() {
    let mutant = |placer| KeepsItsOwnSegment { placer, built: None };
    for start in 0..MODEL_SEGMENT_CELLS {
        let (sys, safety) =
            segmented_commit_system(3, 1, 1, ProcessSet::first_n(3), None, start, mutant);
        let explorer = Explorer::new(ExploreConfig::default().with_max_states(2_000_000));
        let result = explorer.explore(&sys, &[&safety, &NoFaults]);
        let violation = result.violations.first();
        assert!(
            violation.is_some_and(|v| v.message.contains("no cell agreed on it")),
            "start {start}: the mutant must be rejected: {violation:?}"
        );
    }
}
