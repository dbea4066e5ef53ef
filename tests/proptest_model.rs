//! Property-based tests: consensus safety under *arbitrary* schedules and
//! crash patterns, for every protocol in the repository's model form.

use proptest::prelude::*;

use asymmetric_progress::core::arbiter::model::arbiter_system;
use asymmetric_progress::core::consensus::model::register_consensus_system;
use asymmetric_progress::core::group::model::group_system;
use asymmetric_progress::core::group::GroupLayout;
use asymmetric_progress::model::programs::ProposeProgram;
use asymmetric_progress::model::{
    ProcessId, ProcessSet, Runner, Schedule, ScheduleEvent, System, SystemBuilder, Value,
};

/// An arbitrary schedule over `n` processes: steps with occasional crashes.
fn schedule_strategy(n: usize, len: usize) -> impl Strategy<Value = Schedule> {
    proptest::collection::vec((0..n, prop::bool::weighted(0.03)), len).prop_map(move |events| {
        let mut crashed = Vec::new();
        events
            .into_iter()
            .map(|(pid, crash)| {
                if crash && !crashed.contains(&pid) && crashed.len() + 1 < n {
                    crashed.push(pid);
                    ScheduleEvent::Crash(ProcessId::new(pid))
                } else {
                    ScheduleEvent::Step(ProcessId::new(pid))
                }
            })
            .collect()
    })
}

fn check_agreement_validity(
    decisions: &[(ProcessId, Value)],
    valid: impl Fn(Value) -> bool,
) -> Result<(), TestCaseError> {
    for pair in decisions.windows(2) {
        prop_assert_eq!(pair[0].1, pair[1].1, "agreement violated");
    }
    for (pid, v) in decisions {
        prop_assert!(valid(*v), "validity violated at {}: {}", pid, v);
    }
    Ok(())
}

/// Four processes, each proposing its index to one `(4,x)`-live object
/// whose wait-free set is `0..x`.
fn live_consensus_system(x: usize, window: u8) -> System<ProposeProgram> {
    let mut b = SystemBuilder::new(4);
    let cons = b.add_live_consensus(ProcessSet::first_n(4), ProcessSet::first_n(x), window);
    b.build(|pid| ProposeProgram::new(cons, Value::Num(pid.index() as u32)))
}

/// The steps a VIP running alone takes to decide: the `c` of bounded
/// wait-freedom, measured on the object rather than written down.
fn solo_vip_steps(x: usize, window: u8) -> usize {
    let mut runner = Runner::new(live_consensus_system(x, window));
    let vip = ProcessId::new(0);
    (1..=64)
        .find(|_| {
            runner.execute(ScheduleEvent::Step(vip));
            runner.system().decision(vip).is_some()
        })
        .expect("a VIP running alone decides")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// E7, in steps — bounded wait-freedom: under any schedule and crash
    /// pattern, every VIP that has taken `c` of its own steps has decided,
    /// where `c` is what it takes alone. Guests may interleave anywhere;
    /// they never add a step to a VIP's propose.
    #[test]
    fn vip_decides_within_its_solo_step_count(
        schedule in schedule_strategy(4, 120),
        x in 1usize..=4,
        window in 1u8..4,
    ) {
        let c = solo_vip_steps(x, window);
        let mut runner = Runner::new(live_consensus_system(x, window));
        let mut own_steps = [0usize; 4];
        for &event in schedule.events() {
            if let ScheduleEvent::Step(pid) = event {
                if runner.system().status(pid).is_live() {
                    own_steps[pid.index()] += 1;
                }
            }
            runner.execute(event);
            for (vip, &steps) in own_steps.iter().enumerate().take(x) {
                prop_assert!(
                    steps < c || runner.system().decision(ProcessId::new(vip)).is_some(),
                    "VIP p{} took {} steps (solo bound {}) and has not decided", vip, steps, c
                );
            }
        }
    }

    /// (y,x)-live base objects: agreement + validity under arbitrary
    /// schedules and crashes, for every x.
    #[test]
    fn live_consensus_safety(
        schedule in schedule_strategy(4, 120),
        x in 0usize..=4,
    ) {
        let mut runner = Runner::new(live_consensus_system(x, 1));
        runner.run(&schedule);
        check_agreement_validity(&runner.system().decisions(), |v| {
            matches!(v, Value::Num(k) if k < 4)
        })?;
        prop_assert!(!runner.system().any_faulted());
    }

    /// Register-based round consensus: safety under arbitrary schedules.
    #[test]
    fn register_consensus_safety(schedule in schedule_strategy(3, 400)) {
        let (sys, _) = register_consensus_system(&[Some(0), Some(1), Some(2)], 8);
        let mut runner = Runner::new(sys);
        runner.run(&schedule);
        check_agreement_validity(&runner.system().decisions(), |v| {
            matches!(v, Value::Num(k) if k < 3)
        })?;
        prop_assert!(!runner.system().any_faulted());
    }

    /// Group-based consensus (Figure 5): safety under arbitrary schedules,
    /// crashes and participation patterns, across layouts.
    #[test]
    fn group_consensus_safety(
        schedule in schedule_strategy(4, 500),
        mask in 1u8..16,
        x in 1usize..=4,
    ) {
        let layout = GroupLayout::new(4, x).unwrap();
        let participants: ProcessSet =
            (0..4usize).filter(|i| mask & (1 << i) != 0).collect();
        let (sys, _) = group_system(layout, participants);
        let mut runner = Runner::new(sys);
        runner.run(&schedule);
        check_agreement_validity(&runner.system().decisions(), |v| {
            participants.iter().any(|p| v == Value::Num(100 + p.index() as u32))
        })?;
        prop_assert!(!runner.system().any_faulted());
    }

    /// The arbiter (Figure 4): agreement + validity under arbitrary
    /// schedules, crashes and splits.
    #[test]
    fn arbiter_safety(
        schedule in schedule_strategy(4, 200),
        owner_mask in 1u8..15,
    ) {
        let owners: ProcessSet = (0..4usize).filter(|i| owner_mask & (1 << i) != 0).collect();
        let guests = ProcessSet::first_n(4).difference(owners);
        let (sys, _) = arbiter_system(4, owners, guests);
        let mut runner = Runner::new(sys);
        runner.run(&schedule);
        let decisions = runner.system().decisions();
        for pair in decisions.windows(2) {
            prop_assert_eq!(pair[0].1, pair[1].1, "arbiter agreement violated");
        }
        // Validity: the winning camp has a participant (both camps are
        // non-empty by construction of the masks — owner wins need owners,
        // guest wins need guests).
        if let Some((_, v)) = decisions.first() {
            let owner_win = *v == Value::Num(0);
            let camp_nonempty = if owner_win { !owners.is_empty() } else { !guests.is_empty() };
            prop_assert!(camp_nonempty, "winning camp has no participant");
        }
        prop_assert!(!runner.system().any_faulted());
    }

    /// Solo runs always decide own value, for any (y,x)-live object and any
    /// window — obstruction-free termination, the possibility half.
    #[test]
    fn solo_guest_always_decides(
        window in 0u8..6,
        pid in 0usize..4,
        steps in 16usize..64,
    ) {
        let mut runner = Runner::new(live_consensus_system(0, window));
        runner.run(&Schedule::solo(ProcessId::new(pid), steps.max(window as usize + 3)));
        prop_assert_eq!(
            runner.system().decision(ProcessId::new(pid)),
            Some(Value::Num(pid as u32))
        );
    }
}
