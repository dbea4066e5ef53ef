//! The `Moved` re-plan loop as a pure state machine.
//!
//! A shard that split or merged after a request planned against it
//! bounces the sub-batch whole with [`StoreResp::Moved`] — nothing applied
//! — and exactly the bounced operations must be planned again against a
//! newer topology. What "again" may cost is the envelope's own business:
//! every [`Request`] brings a retry budget and a deadline, several
//! envelopes may share one round, and a topology that never publishes
//! must end in a typed error, not a hang.
//!
//! That bookkeeping lives here, once, with no store behind it. The driver
//! (`Store::replan`) owns the clock, the views and the commits; after
//! every round it tells [`Replan::advance`] what it saw and how to read the
//! time that has passed, and is told to run another round or that it is
//! done. Only a deadline needs the time: a run whose envelopes carry none
//! reads no clock at all ([`Replan::has_deadline`]). The
//! request arms differ only in the closures they hand that driver, which
//! is where each arm's progress class is stated.

use std::time::Duration;

use apc_progress_macros::progress;

use crate::api::{Request, Response, StoreError};
use crate::ops::{StoreOp, StoreResp};

/// One envelope's part in a run: the results it is owed and its terms.
#[derive(Debug)]
struct Envelope {
    ops: usize,
    /// One past its last slot. Slots are handed out envelope by envelope,
    /// so these are non-decreasing and a refused envelope's range is empty.
    end: usize,
    /// `Some`: refused up front. The envelope owns no slot and every one
    /// of its operations is answered with this error.
    refusal: Option<StoreError>,
    /// The budget the envelope arrived with (echoed by the 429).
    budget: u32,
    /// Re-plan rounds it can still pay for.
    left: u32,
    deadline_ms: Option<u32>,
}

/// What the driver observed since the last transition.
#[derive(Debug)]
pub(crate) enum Input {
    /// A round ran over [`Replan::due_ops`].
    Landed {
        /// One response per operation of the round, in order.
        resps: Vec<StoreResp>,
        /// The operation behind each response that bounced, in order: the
        /// round handed the operations over, and hands back those the
        /// next round must carry.
        bounced: Vec<StoreOp>,
    },
    /// No round ran: the topology the bounced slots need is not published
    /// yet, and the view source does not wait.
    NotYet,
    /// No round ran and none will: the view source waited out its bound.
    Never,
}

/// The engine's answer to an [`Input`].
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Transition {
    /// Run the due slots again, planned against a topology of at least
    /// version `need` (the highest epoch any of them bounced with).
    Retry { need: u64 },
    /// Every slot is settled; collect [`Replan::into_responses`].
    Done,
}

/// A run's envelopes, the first held inline: a run of one envelope — every
/// request arm but the coalesced guest one, and a guest turn of one frame
/// on the wire — builds no list.
#[derive(Debug, Default)]
struct Envelopes {
    first: Option<Envelope>,
    rest: Vec<Envelope>,
}

impl Envelopes {
    fn push(&mut self, env: Envelope) {
        match self.first {
            None => self.first = Some(env),
            Some(_) => self.rest.push(env),
        }
    }

    fn iter(&self) -> impl Iterator<Item = &Envelope> {
        self.first.iter().chain(&self.rest)
    }

    fn last(&self) -> Option<&Envelope> {
        self.rest.last().or(self.first.as_ref())
    }
}

impl std::ops::Index<usize> for Envelopes {
    type Output = Envelope;

    fn index(&self, e: usize) -> &Envelope {
        match e {
            0 => self.first.as_ref().expect("envelope 0 of an empty run"),
            e => &self.rest[e - 1],
        }
    }
}

impl std::ops::IndexMut<usize> for Envelopes {
    fn index_mut(&mut self, e: usize) -> &mut Envelope {
        match e {
            0 => self.first.as_mut().expect("envelope 0 of an empty run"),
            e => &mut self.rest[e - 1],
        }
    }
}

impl IntoIterator for Envelopes {
    type Item = Envelope;
    type IntoIter = std::iter::Chain<std::option::IntoIter<Envelope>, std::vec::IntoIter<Envelope>>;

    fn into_iter(self) -> Self::IntoIter {
        self.first.into_iter().chain(self.rest)
    }
}

/// One run of the re-plan loop over the combined operations of its
/// envelopes. A *slot* is an index into that combined list.
#[derive(Debug)]
pub(crate) struct Replan {
    envelopes: Envelopes,
    /// The next round's operations, one per due slot: every operation
    /// until the first round takes them, then those handed back bounced.
    ops: Vec<StoreOp>,
    /// Per slot, once the first round has landed: `Err(Moved)` while the
    /// slot is bounced. Empty until then, when every slot is due.
    results: Vec<Result<StoreResp, StoreError>>,
    /// The bounced slots of the last round, ascending.
    due: Vec<usize>,
}

impl Replan {
    /// A run over `envelopes`, each with the refusal (if any) that keeps
    /// it out of the rounds. Every slot is due.
    pub(crate) fn new(envelopes: impl IntoIterator<Item = (Request, Option<StoreError>)>) -> Self {
        let mut plan = Replan {
            envelopes: Envelopes::default(),
            ops: Vec::new(),
            results: Vec::new(),
            due: Vec::new(),
        };
        for (req, refusal) in envelopes {
            let ops = req.ops.len();
            match refusal {
                Some(_) => {}
                None if plan.ops.is_empty() => plan.ops = req.ops, // one envelope: no copy
                None => plan.ops.extend(req.ops),
            }
            plan.envelopes.push(Envelope {
                ops,
                end: plan.ops.len(),
                refusal,
                budget: req.retry_budget,
                left: req.retry_budget,
                deadline_ms: req.deadline_ms,
            });
        }
        plan
    }

    /// Whether an envelope of the run carries a deadline: only then does
    /// the driver need a clock.
    #[progress(wait_free)]
    pub(crate) fn has_deadline(&self) -> bool {
        self.envelopes.iter().any(|env| env.deadline_ms.is_some())
    }

    /// The operations of the due slots, in slot order: the next round.
    /// They move into the round; the round's [`Input::Landed`] hands back
    /// the ones it bounced.
    #[progress(wait_free)]
    pub(crate) fn due_ops(&mut self) -> Vec<StoreOp> {
        std::mem::take(&mut self.ops)
    }

    /// Absorbs `input`, then settles every slot still bounced against its
    /// own envelope's terms: a passed deadline outranks a spent budget
    /// (the caller's *time* ran out, so re-sending with the same deadline
    /// is pointless), and an envelope is charged one budget unit per round
    /// it still takes part in — never when all its operations landed. That
    /// holds for [`UNBOUNDED_RETRIES`](crate::api::UNBOUNDED_RETRIES) too: it is a budget no waiting arm
    /// lives to spend, and the step bound of an arm that does not wait.
    ///
    /// `elapsed` is the time since the run's first round. It is called at
    /// most once, and only if a slot still bounced belongs to an envelope
    /// with a deadline.
    #[progress(wait_free)]
    pub(crate) fn advance(
        &mut self,
        input: Input,
        mut elapsed: impl FnMut() -> Duration,
    ) -> Transition {
        let Replan { envelopes, ops, results, due } = self;
        let land = |resp| match resp {
            StoreResp::Moved { epoch } => Err(StoreError::Moved { epoch }),
            landed => Ok(landed),
        };
        match input {
            Input::Landed { resps, bounced } => {
                if results.is_empty() {
                    let slots = envelopes.last().map_or(0, |env| env.end);
                    debug_assert_eq!(resps.len(), slots, "one response per slot");
                    *results = resps.into_iter().map(land).collect();
                    due.extend((0..results.len()).filter(|&slot| results[slot].is_err()));
                } else {
                    debug_assert_eq!(resps.len(), due.len(), "one response per due slot");
                    for (&slot, resp) in due.iter().zip(resps) {
                        results[slot] = land(resp);
                    }
                    due.retain(|&slot| results[slot].is_err());
                }
                debug_assert_eq!(bounced.len(), due.len(), "one operation per bounced slot");
                *ops = bounced;
            }
            Input::NotYet => {}
            Input::Never => {
                for slot in due.drain(..) {
                    if let Err(StoreError::Moved { epoch }) = results[slot] {
                        results[slot] = Err(StoreError::Unavailable { version: epoch });
                    }
                }
                ops.clear();
                return Transition::Done;
            }
        }
        // `ops` runs beside `due`: the slot judged `at`-th owns `ops[at]`,
        // and a slot that stays due moves it to `ops[kept]`.
        let (mut need, mut e, mut next, mut kept) = (0, 0, 0, 0);
        let mut now = None;
        let mut charged: Vec<usize> = Vec::new();
        due.retain(|&slot| {
            let at = next;
            next += 1;
            let Err(StoreError::Moved { epoch }) = results[slot] else { return false };
            while slot >= envelopes[e].end {
                e += 1; // `due` ascends, and so do the envelopes' slot ranges
            }
            let env = &envelopes[e];
            let expired = env.deadline_ms.filter(|&ms| {
                *now.get_or_insert_with(&mut elapsed) >= Duration::from_millis(u64::from(ms))
            });
            let gave_up = match expired {
                Some(deadline_ms) => Some(StoreError::DeadlineExceeded { deadline_ms }),
                None if env.left == 0 => {
                    Some(StoreError::RetryBudgetExhausted { budget: env.budget })
                }
                None => None,
            };
            if let Some(err) = gave_up {
                results[slot] = Err(err);
                return false;
            }
            need = need.max(epoch);
            if charged.last() != Some(&e) {
                charged.push(e);
            }
            ops.swap(kept, at);
            kept += 1;
            true
        });
        ops.truncate(kept);
        for e in charged {
            envelopes[e].left -= 1;
        }
        if due.is_empty() {
            Transition::Done
        } else {
            Transition::Retry { need }
        }
    }

    /// One response per envelope, in envelope order, each with its results
    /// in invocation order, built as they are taken: no list of them.
    pub(crate) fn into_responses(self) -> Responses {
        let Replan { envelopes, results, .. } = self;
        // One envelope that owns every slot takes the run's results whole.
        let (whole, slots) = match (&envelopes.first, envelopes.rest.is_empty()) {
            (Some(Envelope { refusal: None, .. }), true) => (Some(results), Vec::new()),
            _ => (None, results),
        };
        Responses { envelopes: envelopes.into_iter(), whole, slots: slots.into_iter() }
    }
}

/// The responses of a request run, one per envelope, in envelope order,
/// each with its results in invocation order. Each is built as it is
/// taken, so a caller that answers as it goes (the wire's reactor) holds
/// no list of them.
#[derive(Debug)]
pub struct Responses {
    envelopes: <Envelopes as IntoIterator>::IntoIter,
    /// A one-envelope run's results, taken whole by its one response.
    whole: Option<Vec<Result<StoreResp, StoreError>>>,
    /// Every other run's results, slot by slot.
    slots: std::vec::IntoIter<Result<StoreResp, StoreError>>,
}

impl Iterator for Responses {
    type Item = Response;

    fn next(&mut self) -> Option<Response> {
        let env = self.envelopes.next()?;
        Some(match env.refusal {
            Some(err) => Response::fail_all(env.ops, err),
            None => Response {
                results: match self.whole.take() {
                    Some(results) => results,
                    None => self.slots.by_ref().take(env.ops).collect(),
                },
            },
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.envelopes.size_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::UNBOUNDED_RETRIES;
    use proptest::prelude::*;

    /// One scripted driver step, `((dt_ms, view), (bounce, epoch))`: the
    /// time that passes before the engine is stepped, what the view source
    /// says next (`0..=5` published, `6..=8` `NotYet`, above that `Never`),
    /// and the ops a round now bounces (bit `id % 64`) to epoch `1 + epoch`.
    /// Past the script's end everything is published and lands.
    type Step = ((u64, u8), (u64, u64));

    /// Scripted ops carry an id, so a script addresses the same op
    /// whichever slot it occupies in a run.
    fn request(ids: &[u64], budget: u32, deadline_ms: Option<u32>) -> Request {
        let ops = ids.iter().map(|&id| StoreOp::Put(String::new(), id)).collect();
        Request { deadline_ms, ..Request::new(ops).retry_budget(budget) }
    }

    fn id_of(op: &StoreOp) -> u64 {
        match op {
            StoreOp::Put(_, id) => *id,
            other => panic!("scripted runs only issue puts: {other:?}"),
        }
    }

    /// Drives a run through `script` with no store behind it, checking the
    /// per-step invariants on the way. Returns the responses.
    fn run(envelopes: Vec<(Request, Option<StoreError>)>, script: &[Step]) -> Vec<Response> {
        let mut plan = Replan::new(envelopes);
        let owner = |plan: &Replan, slot| plan.envelopes.iter().position(|e| slot < e.end).unwrap();
        let ids: Vec<u64> = plan.ops.iter().map(id_of).collect();
        let mut applied = vec![false; plan.ops.len()];
        let mut round: Vec<usize> = (0..plan.ops.len()).collect();
        let mut steps = script.iter().copied().chain(std::iter::repeat(((0, 0), (0, 0))));
        let mut now = Duration::ZERO;
        let mut view = 0;
        loop {
            let ((dt_ms, next_view), (bounce, epoch)) = steps.next().unwrap();
            now += Duration::from_millis(dt_ms);
            let input = match view {
                0..=5 => {
                    let (mut resps, mut bounced) = (Vec::new(), Vec::new());
                    let ops = plan.due_ops();
                    assert_eq!(ops.len(), round.len(), "one operation per due slot");
                    for (op, &slot) in ops.into_iter().zip(&round) {
                        assert_eq!(id_of(&op), ids[slot], "slot {slot} is issued its own op");
                        assert!(!applied[slot], "slot {slot} landed and was issued again");
                        applied[slot] = bounce >> (id_of(&op) % 64) & 1 == 0;
                        if applied[slot] {
                            resps.push(StoreResp::Value(Some(id_of(&op))));
                        } else {
                            resps.push(StoreResp::Moved { epoch: 1 + epoch });
                            bounced.push(op);
                        }
                    }
                    Input::Landed { resps, bounced }
                }
                6..=8 => Input::NotYet,
                _ => Input::Never,
            };
            let gave_up = matches!(input, Input::Never);
            let due_before = std::mem::take(&mut round);
            let left_before: Vec<u32> = plan.envelopes.iter().map(|e| e.left).collect();
            let transition = plan.advance(input, || now);

            for (e, env) in plan.envelopes.iter().enumerate() {
                let in_next = plan.due.iter().any(|&slot| owner(&plan, slot) == e);
                assert_eq!(left_before[e] - env.left, u32::from(in_next), "envelope {e} charge");
            }
            for &slot in &due_before {
                let e = owner(&plan, slot);
                let env = &plan.envelopes[e];
                let expired = env.deadline_ms.is_some_and(|ms| now.as_millis() >= u128::from(ms));
                match &plan.results[slot] {
                    Ok(resp) => assert!(applied[slot] && !matches!(resp, StoreResp::Moved { .. })),
                    Err(StoreError::Moved { .. }) => {
                        assert!(plan.due.contains(&slot) && !expired && left_before[e] > 0)
                    }
                    Err(StoreError::DeadlineExceeded { .. }) => assert!(expired && !gave_up),
                    Err(StoreError::RetryBudgetExhausted { budget }) => {
                        assert!(!expired && !gave_up, "time-out outranks budget-out");
                        assert_eq!((*budget, left_before[e]), (env.budget, 0));
                    }
                    Err(StoreError::Unavailable { .. }) => assert!(gave_up),
                    Err(other) => panic!("slot {slot} settled as {other:?}"),
                }
                assert!(!applied[slot] || plan.results[slot].is_ok(), "an applied slot stays Ok");
            }
            let bounced_to = |&slot: &usize| match plan.results[slot] {
                Err(StoreError::Moved { epoch }) => epoch,
                _ => panic!("due slot {slot} is not bounced"),
            };
            match plan.due.iter().map(bounced_to).max() {
                Some(need) => assert_eq!(transition, Transition::Retry { need }),
                None => {
                    assert_eq!(transition, Transition::Done);
                    return plan.into_responses().collect();
                }
            }
            (view, round) = (next_view, plan.due.clone());
        }
    }

    #[test]
    fn each_way_out_of_the_loop_is_its_own_typed_error() {
        // Every op bounces to epoch 7; then the topology is not yet there.
        let script = [((1, 6), (u64::MAX, 6)), ((1, 6), (0, 0)), ((1, 0), (0, 0))];
        // Budget 2: bounced, charged; not yet published, charged; spent.
        let got = run(vec![(request(&[0], 2, None), None)], &script);
        assert_eq!(got[0].results, vec![Err(StoreError::RetryBudgetExhausted { budget: 2 })]);
        // The same script against a 2 ms deadline: time runs out first.
        let got = run(vec![(request(&[0], 2, Some(2)), None)], &script);
        assert_eq!(got[0].results, vec![Err(StoreError::DeadlineExceeded { deadline_ms: 2 })]);
        // A view source that gives up names the version that never came.
        let waiting = request(&[0], UNBOUNDED_RETRIES, None);
        let got = run(vec![(waiting, None)], &[((1, 9), (u64::MAX, 6))]);
        assert_eq!(got[0].results, vec![Err(StoreError::Unavailable { version: 7 })]);
        // Only the bounced op is retried, and a refused envelope owns no
        // slot but keeps its place.
        let envelopes = vec![
            (request(&[0, 1], 1, None), None),
            (request(&[2], 1, None), Some(StoreError::GuestTier)),
            (request(&[3], 0, None), None),
        ];
        let got = run(envelopes, &[((0, 0), (0b10, 0))]);
        assert_eq!(
            got[0].results,
            vec![Ok(StoreResp::Value(Some(0))), Ok(StoreResp::Value(Some(1)))]
        );
        assert_eq!(got[1].results, vec![Err(StoreError::GuestTier)]);
        assert_eq!(got[2].results, vec![Ok(StoreResp::Value(Some(3)))]);
    }

    #[test]
    fn an_unbounded_budget_is_still_a_step_bound() {
        // Bumped but never published, no deadline, a view source that does
        // not wait: every round is charged, so the bounded arms terminate.
        let mut plan = Replan::new([(request(&[0], UNBOUNDED_RETRIES, None), None)]);
        let round =
            Input::Landed { resps: vec![StoreResp::Moved { epoch: 3 }], bounced: plan.due_ops() };
        assert_eq!(plan.advance(round, || Duration::ZERO), Transition::Retry { need: 3 });
        for _ in 0..1000 {
            assert_eq!(
                plan.advance(Input::NotYet, || Duration::ZERO),
                Transition::Retry { need: 3 }
            );
        }
        assert_eq!(plan.envelopes[0].left, UNBOUNDED_RETRIES - 1001);
        assert_eq!(plan.ops.len(), 1, "rounds that never ran keep the bounced op");
        plan.envelopes[0].left = 0; // … and 4e9 rounds later
        assert_eq!(plan.advance(Input::NotYet, || Duration::ZERO), Transition::Done);
        let spent = StoreError::RetryBudgetExhausted { budget: UNBOUNDED_RETRIES };
        assert_eq!(plan.into_responses().next().unwrap().results, vec![Err(spent)]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any script, any mix of envelopes: `run`'s per-step invariants
        /// hold (an applied slot is never issued again, an envelope pays
        /// one unit per round it has a slot in the next of, time-out
        /// outranks budget-out, `Unavailable` only when the view source
        /// gave up), and every slot ends in exactly one typed outcome.
        #[test]
        fn every_slot_ends_in_exactly_one_typed_outcome(
            shapes in proptest::collection::vec(
                ((0u64..4, 0u8..8), (0u32..4, 0u8..3, 0u32..6)),
                1..6,
            ),
            script in proptest::collection::vec(
                ((0u64..3, 0u8..10), (0u64..u64::MAX, 0u64..4)),
                0..12,
            ),
        ) {
            let mut next_id = 0;
            let envelopes: Vec<_> = shapes
                .iter()
                .map(|&((ops, refused), (budget, deadline_tag, deadline_ms))| {
                    let ids: Vec<u64> = (next_id..next_id + ops).collect();
                    next_id += ops;
                    let budget = if budget == 3 { UNBOUNDED_RETRIES } else { budget };
                    let req = request(&ids, budget, (deadline_tag == 0).then_some(deadline_ms));
                    (req, (refused == 0).then_some(StoreError::GuestTier))
                })
                .collect();
            let got = run(envelopes.clone(), &script);
            prop_assert_eq!(got.len(), envelopes.len());
            for (resp, (req, refusal)) in got.iter().zip(&envelopes) {
                prop_assert_eq!(resp.results.len(), req.ops.len());
                for (result, op) in resp.results.iter().zip(&req.ops) {
                    let terminal = match (refusal, result) {
                        (Some(err), got) => got == &Err(err.clone()),
                        (None, Ok(StoreResp::Value(Some(id)))) => *id == id_of(op),
                        (None, Err(StoreError::DeadlineExceeded { deadline_ms })) => {
                            Some(*deadline_ms) == req.deadline_ms
                        }
                        (None, Err(StoreError::RetryBudgetExhausted { budget })) => {
                            *budget == req.retry_budget
                        }
                        (None, Err(StoreError::Unavailable { version })) => *version >= 1,
                        _ => false,
                    };
                    prop_assert!(terminal, "{:?} is no terminal outcome of {:?}", result, op);
                }
            }
        }

        /// Coalescing is invisible to an envelope: `n` one-op envelopes in
        /// one run end exactly as `n` runs of one envelope each under the
        /// same script.
        #[test]
        fn n_envelopes_of_one_op_equal_n_single_runs(
            terms in proptest::collection::vec((0u32..4, 0u8..3, 0u32..6), 1..8),
            script in proptest::collection::vec(
                ((0u64..3, 0u8..10), (0u64..u64::MAX, 0u64..4)),
                0..12,
            ),
        ) {
            let singles: Vec<Request> = (0..)
                .zip(&terms)
                .map(|(id, &(budget, deadline_tag, deadline_ms))| {
                    request(&[id], budget, (deadline_tag == 0).then_some(deadline_ms))
                })
                .collect();
            let together = run(singles.iter().cloned().map(|req| (req, None)).collect(), &script);
            for (req, coalesced) in singles.into_iter().zip(together) {
                prop_assert_eq!(run(vec![(req, None)], &script), vec![coalesced]);
            }
        }
    }
}
