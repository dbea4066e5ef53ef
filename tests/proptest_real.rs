//! Property-based tests on the real (threaded) substrate: registers, the
//! linearizability checker, and liveness-spec algebra.

use proptest::prelude::*;

use asymmetric_progress::core::liveness::Liveness;
use asymmetric_progress::model::linearize::{
    is_linearizable, CompleteOp, ConsensusSpec, RegOp, RegisterSpec,
};
use asymmetric_progress::model::ProcessSet;
use asymmetric_progress::registers::PackedRegister;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// PackedRegister's sequential semantics match an Option<u64> oracle.
    #[test]
    fn packed_register_matches_reference(ops in proptest::collection::vec(0u8..3, 1..60)) {
        let packed = PackedRegister::new();
        let mut reference: Option<u64> = None;
        for (i, op) in ops.into_iter().enumerate() {
            let v = i as u64;
            match op {
                0 => {
                    packed.store(v);
                    reference = Some(v);
                }
                1 => {
                    let won = packed.set_if_bot(v);
                    prop_assert_eq!(won, reference.is_none());
                    if won {
                        reference = Some(v);
                    }
                }
                _ => {
                    packed.clear();
                    reference = None;
                }
            }
            prop_assert_eq!(packed.load(), reference);
        }
    }

    /// Any actually-sequential history is linearizable; bumping one read's
    /// value out of band makes it non-linearizable.
    #[test]
    fn linearizability_checker_on_sequential_histories(
        writes in proptest::collection::vec(1u64..50, 1..8)
    ) {
        let mut history = Vec::new();
        let mut t = 0u64;
        let mut current = 0u64;
        for w in &writes {
            history.push(CompleteOp { op: RegOp::Write(*w), resp: None, invoked_at: t, responded_at: t + 1 });
            t += 2;
            current = *w;
            history.push(CompleteOp { op: RegOp::Read, resp: Some(current), invoked_at: t, responded_at: t + 1 });
            t += 2;
        }
        prop_assert!(is_linearizable(&RegisterSpec, &history));
        // Corrupt the final read.
        if let Some(last) = history.last_mut() {
            last.resp = Some(current + 999);
        }
        prop_assert!(!is_linearizable(&RegisterSpec, &history));
    }

    /// Consensus histories: everyone returning the same proposed value while
    /// overlapping is linearizable iff the "winner" was someone's proposal.
    #[test]
    fn consensus_linearizability(proposals in proptest::collection::vec(1u64..20, 2..6), winner_idx in 0usize..6) {
        let winner = proposals[winner_idx % proposals.len()];
        // All operations mutually overlap.
        let history: Vec<CompleteOp<u64, u64>> = proposals
            .iter()
            .enumerate()
            .map(|(i, &p)| CompleteOp {
                op: p,
                resp: winner,
                invoked_at: i as u64,
                responded_at: 100 + i as u64,
            })
            .collect();
        prop_assert!(is_linearizable(&ConsensusSpec, &history));
        // A value nobody proposed can never be the outcome.
        let rogue: Vec<CompleteOp<u64, u64>> = history
            .iter()
            .map(|c| CompleteOp { op: c.op, resp: 777, invoked_at: c.invoked_at, responded_at: c.responded_at })
            .collect();
        prop_assert!(!is_linearizable(&ConsensusSpec, &rogue));
    }

    /// Liveness-spec algebra: restriction (Theorem 3's tool) never increases
    /// the consensus number, and the hierarchy relation is a total preorder
    /// consistent with consensus numbers.
    #[test]
    fn liveness_restriction_monotone(y in 2usize..10, x in 0usize..10, keep_mask in 1u64..1024) {
        let x = x.min(y);
        let spec = Liveness::new_first_n(y, x);
        let keep: ProcessSet = (0..10usize).filter(|i| keep_mask & (1 << i) != 0).collect();
        if let Ok(restricted) = spec.restrict(keep) {
            prop_assert!(restricted.y() <= spec.y());
            prop_assert!(restricted.x() <= spec.x());
            prop_assert!(restricted.consensus_number() <= spec.consensus_number().max(restricted.y()));
        }
    }

    /// Theorem 3 arithmetic: consensus number is x+1 below the top, y at the
    /// top two rungs.
    #[test]
    fn consensus_number_formula(y in 1usize..20, x in 0usize..20) {
        let x = x.min(y);
        let spec = Liveness::new_first_n(y, x);
        let expected = if x + 1 >= y { y } else { x + 1 };
        prop_assert_eq!(spec.consensus_number(), expected);
    }
}
