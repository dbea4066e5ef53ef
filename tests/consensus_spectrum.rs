//! Cross-crate integration: the whole liveness spectrum of consensus
//! objects under real-thread stress, checked with the history tools.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use asymmetric_progress::core::consensus::{
    AsymmetricConsensus, CasConsensus, Consensus, ObstructionFreeConsensus,
};
use asymmetric_progress::core::liveness::Liveness;
use asymmetric_progress::model::history::{assert_consensus, ProposeRecord};
use asymmetric_progress::model::linearize::{is_linearizable, CompleteOp, ConsensusSpec};
use asymmetric_progress::model::ProcessSet;
use asymmetric_progress::universal::seq::{Counter, CounterOp};
use asymmetric_progress::universal::{AsymmetricFactory, Universal};

fn stress<C: Consensus<u64>>(make: impl Fn() -> C, n: usize, rounds: usize) {
    for round in 0..rounds {
        let cons = make();
        let records = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for pid in 0..n {
                let cons = &cons;
                let records = &records;
                s.spawn(move || {
                    let proposed = (round * 1000 + pid) as u64;
                    let returned = cons.propose(pid, proposed).unwrap();
                    records.lock().unwrap().push(ProposeRecord { pid, proposed, returned });
                });
            }
        });
        let records = records.into_inner().unwrap();
        assert_eq!(records.len(), n);
        assert_consensus(&records);
    }
}

#[test]
fn cas_consensus_stress() {
    stress(|| CasConsensus::new(Liveness::new_first_n(8, 8)), 8, 50);
}

#[test]
fn obstruction_free_consensus_stress() {
    let spec = Liveness::obstruction_free(ProcessSet::first_n(4)).unwrap();
    stress(move || ObstructionFreeConsensus::new(spec), 4, 30);
}

#[test]
fn asymmetric_consensus_stress_various_x() {
    for x in [0, 1, 3, 6] {
        stress(move || AsymmetricConsensus::new(Liveness::new_first_n(6, x.min(6))), 6, 25);
    }
}

/// Full linearizability (Wing–Gong) of a concurrent consensus history,
/// with invocation/response timestamps from a shared logical clock.
#[test]
fn consensus_history_is_linearizable() {
    for _ in 0..50 {
        let n = 4;
        let cons = CasConsensus::new(Liveness::new_first_n(n, n));
        let clock = AtomicU64::new(0);
        let ops = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for pid in 0..n {
                let cons = &cons;
                let clock = &clock;
                let ops = &ops;
                s.spawn(move || {
                    let invoked_at = clock.fetch_add(1, Ordering::SeqCst);
                    let returned = cons.propose(pid, pid as u64 + 10).unwrap();
                    let responded_at = clock.fetch_add(1, Ordering::SeqCst);
                    ops.lock().unwrap().push(CompleteOp {
                        op: pid as u64 + 10,
                        resp: returned,
                        invoked_at,
                        responded_at,
                    });
                });
            }
        });
        let history = ops.into_inner().unwrap();
        assert!(is_linearizable(&ConsensusSpec, &history), "history not linearizable: {history:?}");
    }
}

/// The wait-free path of an asymmetric object is bounded: even with guests
/// contending, the wait-free member's propose is two atomic operations. We
/// check it completes even when the guests never get isolation (they are
/// suspended mid-protocol by holding them on a barrier).
#[test]
fn wait_free_member_unblocks_everyone() {
    use std::sync::Barrier;
    let n = 5;
    let cons = AsymmetricConsensus::new(Liveness::new_first_n(n, 1));
    let barrier = Barrier::new(n);
    let records = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for pid in 1..n {
            let cons = &cons;
            let barrier = &barrier;
            let records = &records;
            s.spawn(move || {
                barrier.wait();
                let returned = cons.propose(pid, pid as u64).unwrap();
                records.lock().unwrap().push(ProposeRecord { pid, proposed: pid as u64, returned });
            });
        }
        let cons = &cons;
        let barrier = &barrier;
        let records = &records;
        s.spawn(move || {
            barrier.wait();
            let returned = cons.propose(0, 0).unwrap();
            records.lock().unwrap().push(ProposeRecord { pid: 0, proposed: 0, returned });
        });
    });
    assert_consensus(&records.into_inner().unwrap());
}

/// peek() never contradicts any propose() return value.
#[test]
fn peek_is_consistent_with_decisions() {
    for _ in 0..50 {
        let cons = AsymmetricConsensus::new(Liveness::new_first_n(4, 2));
        let peeked = Mutex::new(Vec::new());
        let decided = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for pid in 0..4 {
                let cons = &cons;
                let decided = &decided;
                s.spawn(move || {
                    let d = cons.propose(pid, pid as u64).unwrap();
                    decided.lock().unwrap().push(d);
                });
            }
            let cons = &cons;
            let peeked = &peeked;
            s.spawn(move || {
                for _ in 0..100 {
                    if let Some(v) = cons.peek() {
                        peeked.lock().unwrap().push(v);
                    }
                }
            });
        });
        let decided = decided.into_inner().unwrap();
        let final_value = decided[0];
        for d in &decided {
            assert_eq!(*d, final_value);
        }
        for p in peeked.into_inner().unwrap() {
            assert_eq!(p, final_value, "peek contradicted the decision");
        }
    }
}

/// E8, in steps — the VIP's replay is flat in the number of guests: on an
/// `(n,1)`-live universal counter, whether 1, 4 or 16 guest handles apply
/// the `L` ops that land between two VIP operations, the second VIP
/// `apply` consumes exactly `L + 1` cells — the guests' `L` and its own —
/// and nothing that scales with who wrote them.
#[test]
fn vip_replay_is_flat_in_the_number_of_guests() {
    const L: u64 = 32;
    for guests in [1usize, 4, 16] {
        let n = guests + 1;
        let spec = Liveness::new_first_n(n, 1);
        let obj = Arc::new(Universal::new(Counter, AsymmetricFactory::new(spec), n));
        let mut vip = obj.owned_handle(0).unwrap();
        assert_eq!(vip.apply(CounterOp::Add(1)), 1);
        let before = vip.replay_steps();
        let per_guest = L / guests as u64;
        std::thread::scope(|s| {
            for pid in 1..n {
                let mut guest = obj.owned_handle(pid).unwrap();
                s.spawn(move || {
                    for _ in 0..per_guest {
                        guest.apply(CounterOp::Add(1));
                    }
                });
            }
        });
        assert_eq!(vip.apply(CounterOp::Add(1)), L + 2, "{guests} guests");
        assert_eq!(vip.replay_steps() - before, L + 1, "{guests} guests");
    }
}
