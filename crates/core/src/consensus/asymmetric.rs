//! The `(y,x)`-live consensus object: wait-free for `X`, obstruction-free
//! for the rest.

use std::fmt;

use apc_progress_macros::progress;
use apc_registers::OnceBox;

use crate::consensus::obstruction_free::Rounds;
use crate::consensus::{Consensus, ProposeOnce};
use crate::error::ConsensusError;
use crate::liveness::Liveness;

/// A real-thread `(y,x)`-live consensus object (§2 of the paper).
///
/// * Processes in the **wait-free set `X`** decide with one CAS and one read
///   on the decision slot — a bounded number of their own steps, no matter
///   what the other processes do.
/// * The **guests `Y \ X`** run the register-based round protocol of
///   [`ObstructionFreeConsensus`](crate::consensus::ObstructionFreeConsensus)
///   *among themselves*, on the decision slot itself: a round that commits
///   installs its value there with a CAS-from-`⊥`, and they return as soon
///   as any decision exists (the §2 remark). Their termination is
///   guaranteed when they run long enough in isolation — and not otherwise,
///   which is the entire point.
///
/// Agreement holds because the decision slot is written at most once;
/// validity holds because both paths only install proposed values.
///
/// # What a decided object retains
///
/// Only the decision. The guests' rounds are a way to reach it, and the
/// guests take them down: round 0 — which holds the link to any later
/// rounds — counts the guests inside it, and the last guest out frees it,
/// chain and all, if it finds the slot decided. A guest that gives up
/// undecided (`propose_bounded` → `Ok(None)`) leaves it for the next
/// decided guest to free. A late racer whose entry finds round 0 freed
/// builds nothing: a freed round 0 always means a decided slot, so it
/// reads the decision. So once an object's last proposer has returned it
/// holds no round object — a guest-decided object keeps what a
/// VIP-decided one keeps. In the universal construction's log that is the
/// object itself, inline in its 64-cell segment, and one boxed record per
/// cell. The rounds sit inline as one word until a guest runs one; there
/// is no second decision slot, no second port check and no second
/// at-most-once mask behind it.
///
/// The decision slot is an [`OnceBox`]: installed by one CAS-from-`⊥`, never
/// cleared or replaced, and freed only with the object. So a reader needs
/// nothing to hold it: [`Consensus::peek_with`] lends the decided value out
/// with one load and no clone, which is how a replica replays a decided
/// cell. A VIP still pays one CAS and one read.
///
/// Safety does not rest on the rounds once the slot is decided:
///
/// * *agreement* — every proposer, VIP or guest, returns what the slot's
///   CAS-from-`⊥` holds, and the slot is never cleared;
/// * *validity* — what the rounds output is some guest's proposal, and the
///   slot only ever receives a proposal or a round output;
/// * *obstruction-freedom* — a guest running alone either finds the slot
///   decided (and escapes) or reaches a round nobody else touches and
///   commits its estimate there.
///
/// The order — decided, then freed — is what makes a freed round protocol
/// mean a decided object. The rounds' one job is to carry a value
/// committed in round `r` into every estimate that enters round `r + 1`
/// until the slot holds a decision; freed before the slot is decided, a
/// guest stalled between the two steps would leave an undecided object
/// whose committed round is gone, and a latecomer would start over at a
/// fresh round 0 instead of adopting that value. There is no inner
/// decision to free: a round that commits installs its value in the slot
/// itself, which is the only decision there is.
///
/// This is the object the paper proves *cannot* be built for `x ≥ 1` from
/// `(n−1,n−1)`-live objects and registers (Theorem 1) — here it is built
/// from **compare-and-swap**, which has consensus number ∞, so no
/// impossibility applies. The simulated counterpart with *exactly* the
/// `(y,x)`-live guarantee is `apc_model`'s `LiveConsensus` base object.
///
/// # Examples
///
/// ```
/// use apc_core::consensus::{AsymmetricConsensus, Consensus};
/// use apc_core::liveness::Liveness;
///
/// // (3,1)-live: process 0 is wait-free, processes 1 and 2 obstruction-free.
/// let cons = AsymmetricConsensus::new(Liveness::new_first_n(3, 1));
/// assert_eq!(cons.propose(0, 'a').unwrap(), 'a');
/// assert_eq!(cons.propose(2, 'c').unwrap(), 'a');
/// ```
pub struct AsymmetricConsensus<T> {
    spec: Liveness,
    /// The decision slot: set once, by the VIP's CAS or a guest round's
    /// commit, and lent out to every later reader without a clone.
    decision: OnceBox<T>,
    /// The guests' round protocol; one word, `⊥` unless a guest is running
    /// it.
    rounds: Rounds<T>,
    once: ProposeOnce,
}

impl<T: Clone + Eq + Send + Sync> AsymmetricConsensus<T> {
    /// Creates a `(y,x)`-live consensus object with the given specification.
    pub fn new(spec: Liveness) -> Self {
        AsymmetricConsensus {
            spec,
            decision: OnceBox::new(),
            rounds: Rounds::new(),
            once: ProposeOnce::new(),
        }
    }

    /// The liveness specification.
    pub fn spec(&self) -> Liveness {
        self.spec
    }

    /// Guest-path proposal that gives up after `max_rounds` obstruction-free
    /// rounds without any decision, returning `Ok(None)`.
    ///
    /// Wait-free callers never need this (their path is bounded); for guests
    /// it makes non-termination under contention observable.
    ///
    /// # Errors
    ///
    /// * [`ConsensusError::NotAPort`] if `pid` is not a port;
    /// * [`ConsensusError::AlreadyProposed`] on a second proposal.
    #[progress(obstruction_free)]
    pub fn propose_bounded(
        &self,
        pid: usize,
        value: T,
        max_rounds: usize,
    ) -> Result<Option<T>, ConsensusError> {
        if !self.spec.is_port(pid) {
            return Err(ConsensusError::NotAPort { pid });
        }
        if self.spec.is_wait_free_for(pid) {
            return self.propose(pid, value).map(Some);
        }
        self.once.claim(pid)?;
        Ok(self.propose_as_guest(pid, value, Some(max_rounds)))
    }

    /// The guest path, after the port and at-most-once checks:
    /// obstruction-free rounds among the guests on the decision slot —
    /// polled before each round (§2 remark: as soon as any value is decided,
    /// any process can decide the very same value), a commit installed with
    /// a CAS-from-`⊥` — leaving round 0 on the way out, and freeing it if
    /// last out with the slot decided. `None` only if `max_rounds` ran out
    /// undecided.
    #[progress(obstruction_free)]
    fn propose_as_guest(&self, pid: usize, value: T, max_rounds: Option<usize>) -> Option<T> {
        self.rounds.run(pid, value, self.spec.guests(), max_rounds, &self.decision)
    }
}

impl<T: Clone + Eq + Send + Sync> Consensus<T> for AsymmetricConsensus<T> {
    /// The class below is the *VIP* guarantee: a pid in `X` decides in a
    /// bounded number of its own steps. Guest pids take the waived
    /// obstruction-free branch — that asymmetry is the object's contract.
    #[progress(bounded_wait_free)]
    fn propose(&self, pid: usize, value: T) -> Result<T, ConsensusError> {
        if !self.spec.is_port(pid) {
            return Err(ConsensusError::NotAPort { pid });
        }
        self.once.claim(pid)?;
        if self.spec.is_wait_free_for(pid) {
            // Wait-free path: one CAS + one read.
            return Ok(self.decision.decide(value).clone());
        }
        // APC-LINT: allow(progress): guest-pid branch only — VIP pids returned above; guests are obstruction-free by specification (y,x)-liveness
        let decided = self.propose_as_guest(pid, value, None);
        // APC-LINT: allow(panic): with no round bound the guest path has none to exhaust — it returns only on a decision, so this arm is unreachable by construction, not an environmental failure
        Ok(decided.expect("unbounded guest rounds end only on a decision"))
    }

    #[progress(wait_free)]
    fn peek(&self) -> Option<T> {
        // Only the decision slot counts: the rounds have no decision of
        // their own. A guest's commit decides nothing until its CAS wins the
        // slot — a wait-free proposal may win it first with another value,
        // and peek must never contradict a later propose return.
        self.decision.get().cloned()
    }

    #[progress(wait_free)]
    fn peek_with<R>(&self, f: impl FnOnce(Option<&T>) -> R) -> R {
        f(self.decision.get())
    }
}

impl<T: Clone + Eq + fmt::Debug> fmt::Debug for AsymmetricConsensus<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AsymmetricConsensus")
            .field("spec", &self.spec)
            .field("decided", &self.decision.get())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apc_model::history::{assert_consensus, ProposeRecord};
    use std::sync::Mutex;

    #[test]
    fn wait_free_member_decides_immediately() {
        let cons = AsymmetricConsensus::new(Liveness::new_first_n(4, 2));
        assert_eq!(cons.propose(1, 10u32).unwrap(), 10);
        // One CAS on the slot: no round object was built on the way.
        assert!(cons.rounds.hold_nothing());
        assert_eq!(cons.peek(), Some(10));
    }

    #[test]
    fn a_vip_decided_object_never_enters_the_guest_protocol() {
        // The wait-free class pays for its own assumptions only: no round
        // runs, so no round object and no segment is ever built.
        let cons = AsymmetricConsensus::new(Liveness::new_first_n(8, 2));
        assert_eq!(cons.propose(0, 1u32).unwrap(), 1);
        assert!(cons.rounds.hold_nothing());
        // A guest arriving later learns it before its first round — even
        // one allowed no round at all.
        assert_eq!(cons.propose_bounded(5, 2, 0).unwrap(), Some(1));
        assert_eq!(cons.propose(6, 3).unwrap(), 1);
        assert!(cons.rounds.hold_nothing());
    }

    #[test]
    fn guest_alone_decides_its_value() {
        let cons = AsymmetricConsensus::new(Liveness::new_first_n(4, 2));
        // A guest decides through the rounds, not the slot's CAS: allowed no
        // round, it cannot decide alone.
        assert_eq!(cons.propose_bounded(2, 20u32, 0).unwrap(), None);
        assert_eq!(cons.propose(3, 30).unwrap(), 30);
        // It ran round 0 and freed it on its way out: the object keeps its
        // decision and nothing of the guest protocol.
        assert!(cons.rounds.hold_nothing());
        assert_eq!(cons.peek(), Some(30));
    }

    #[test]
    fn guest_after_wait_free_sees_decision() {
        let cons = AsymmetricConsensus::new(Liveness::new_first_n(3, 1));
        assert_eq!(cons.propose(0, 1u32).unwrap(), 1);
        assert_eq!(cons.propose(2, 9).unwrap(), 1);
    }

    #[test]
    fn wait_free_after_guest_sees_decision() {
        let cons = AsymmetricConsensus::new(Liveness::new_first_n(3, 1));
        assert_eq!(cons.propose(1, 5u32).unwrap(), 5);
        assert_eq!(cons.propose(0, 2).unwrap(), 5);
    }

    #[test]
    fn port_and_double_checks() {
        let cons = AsymmetricConsensus::new(Liveness::new_first_n(2, 1));
        assert_eq!(cons.propose(7, 0u8), Err(ConsensusError::NotAPort { pid: 7 }));
        cons.propose(0, 1).unwrap();
        assert_eq!(cons.propose(0, 1), Err(ConsensusError::AlreadyProposed { pid: 0 }));
    }

    #[test]
    fn fully_wait_free_spec_never_runs_a_round() {
        let cons = AsymmetricConsensus::new(Liveness::new_first_n(3, 3));
        assert_eq!(cons.propose(2, 5u8).unwrap(), 5);
        assert_eq!(cons.propose(1, 6).unwrap(), 5);
        assert!(cons.rounds.hold_nothing());
    }

    #[test]
    fn bounded_guest_gives_up_without_decision() {
        let cons = AsymmetricConsensus::new(Liveness::new_first_n(3, 1));
        assert_eq!(cons.propose_bounded(1, 7u32, 0).unwrap(), None);
        assert_eq!(cons.peek(), None);
    }

    #[test]
    fn a_guest_that_gives_up_frees_nothing() {
        let cons = AsymmetricConsensus::new(Liveness::new_first_n(5, 1));
        // No round allowed: it gives up before building anything.
        assert_eq!(cons.propose_bounded(1, 10u32, 0).unwrap(), None);
        assert!(cons.rounds.hold_nothing());
        // Guest 4 commits 40 in round 0 and stalls before its CAS reaches
        // the slot...
        let guests = cons.spec.guests();
        let stalled = cons.rounds.stall_after_round_zero(4, 40, guests);
        // ...so guest 2 adopts 40 there and runs out of rounds undecided. It
        // must leave the protocol as it found it.
        assert_eq!(cons.propose_bounded(2, 20, 1).unwrap(), None);
        assert_eq!(cons.peek(), None);
        assert!(!cons.rounds.hold_nothing(), "an undecided guest freed the rounds");
        // Guest 4 resumes: its CAS decides the slot, and it is the last one
        // out, so it frees round 0 — the next decided proposer after the one
        // that gave up.
        assert_eq!(*cons.decision.decide(40), 40);
        stalled.leave(true);
        assert!(cons.rounds.hold_nothing());
        // A guest arriving now reads the decision and builds nothing.
        assert_eq!(cons.propose(3, 30).unwrap(), 40);
        assert_eq!(cons.propose(0, 0).unwrap(), 40);
        assert_eq!(cons.rounds.census(), (1, 1));
    }

    #[test]
    fn a_guest_that_gave_up_leaves_round_zero_for_the_next_decided_guest() {
        let cons = AsymmetricConsensus::new(Liveness::new_first_n(5, 1));
        let guests = cons.spec.guests();
        // Guest 4 commits 40 in round 0 and stalls; guest 2 adopts it and
        // gives up, the last one out with the slot still `⊥`.
        let stalled = cons.rounds.stall_after_round_zero(4, 40, guests);
        assert_eq!(cons.propose_bounded(2, 20, 1).unwrap(), None);
        stalled.leave(false);
        assert!(!cons.rounds.hold_nothing(), "round 0 was freed undecided");
        // Guest 3 adopts 40 in round 0, commits it in round 1, installs it,
        // and — last out, decided — frees round 0 and its chain.
        assert_eq!(cons.propose(3, 30).unwrap(), 40);
        assert!(cons.rounds.hold_nothing());
        assert_eq!(cons.rounds.census(), (1, 1));
    }

    #[test]
    fn contended_objects_keep_only_their_decision() {
        // Per object: four guests started first, so they are usually inside
        // the rounds when the VIP lands; a watcher checks, while they run,
        // that a freed round protocol always means a decided object; once
        // every proposer has returned, no round object or segment is left,
        // and every round 0 built — the installed one and any a racer lost
        // — was dropped. (There is no inner decision to leave: a round's
        // commit goes straight to the slot.)
        const GUESTS: usize = 4;
        for object in 0..200u64 {
            let cons = AsymmetricConsensus::new(Liveness::new_first_n(GUESTS + 1, 1));
            let records = Mutex::new(Vec::new());
            std::thread::scope(|s| {
                s.spawn(|| {
                    let mut built = false;
                    while cons.peek().is_none() {
                        let empty = cons.rounds.hold_nothing();
                        if built && empty {
                            assert!(
                                cons.peek().is_some(),
                                "object {object}: the rounds were freed before the decision"
                            );
                        }
                        built |= !empty;
                    }
                });
                let propose = |pid: usize| {
                    let proposed = object * 100 + pid as u64;
                    let returned = cons.propose(pid, proposed).unwrap();
                    records.lock().unwrap().push(ProposeRecord { pid, proposed, returned });
                };
                for pid in 1..=GUESTS {
                    s.spawn(move || propose(pid));
                }
                s.spawn(move || propose(0));
            });
            assert_consensus(&records.into_inner().unwrap());
            assert!(cons.rounds.hold_nothing(), "object {object} kept guest protocol state");
            let (built, dropped) = cons.rounds.census();
            assert_eq!(dropped, built, "object {object} built {built} round 0s, dropped {dropped}");
        }
    }

    #[test]
    fn bounded_wait_free_never_gives_up() {
        let cons = AsymmetricConsensus::new(Liveness::new_first_n(3, 1));
        assert_eq!(cons.propose_bounded(0, 7u32, 0).unwrap(), Some(7));
    }

    #[test]
    fn peek_surfaces_a_guest_decision() {
        let cons = AsymmetricConsensus::new(Liveness::new_first_n(3, 1));
        cons.propose(1, 4u32).unwrap();
        assert_eq!(cons.peek(), Some(4));
    }

    #[test]
    fn concurrent_mixed_agreement_stress() {
        for round in 0..40 {
            let n = 6;
            let x = 2;
            let cons = AsymmetricConsensus::new(Liveness::new_first_n(n, x));
            let records = Mutex::new(Vec::new());
            std::thread::scope(|s| {
                for pid in 0..n {
                    let cons = &cons;
                    let records = &records;
                    s.spawn(move || {
                        let proposed = (round * 100 + pid) as u64;
                        let returned = cons.propose(pid, proposed).unwrap();
                        records.lock().unwrap().push(ProposeRecord { pid, proposed, returned });
                    });
                }
            });
            assert_consensus(&records.into_inner().unwrap());
        }
    }

    #[test]
    fn wait_free_path_is_bounded_even_under_guest_contention() {
        // Spawn guests first (they spin in rounds), then a wait-free member:
        // it must return promptly and unblock everyone.
        let cons = AsymmetricConsensus::new(Liveness::new_first_n(5, 1));
        let records = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for pid in 1..5 {
                let cons = &cons;
                let records = &records;
                s.spawn(move || {
                    let returned = cons.propose(pid, pid as u64).unwrap();
                    records.lock().unwrap().push(ProposeRecord {
                        pid,
                        proposed: pid as u64,
                        returned,
                    });
                });
            }
            let cons = &cons;
            let records = &records;
            s.spawn(move || {
                let returned = cons.propose(0, 0).unwrap();
                records.lock().unwrap().push(ProposeRecord { pid: 0, proposed: 0, returned });
            });
        });
        assert_consensus(&records.into_inner().unwrap());
    }
}
