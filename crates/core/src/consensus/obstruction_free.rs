//! Round-based obstruction-free consensus from registers.
//!
//! This is the possibility result the paper builds on (§1.2, citing
//! Herlihy–Luchangco–Moir): an `(n,0)`-live consensus object — safe always,
//! terminating for a process that runs long enough in isolation — using
//! **registers only** on its decision path.
//!
//! The construction runs an unbounded sequence of [`AdoptCommit`] rounds:
//!
//! ```text
//! estimate ← v; r ← 0
//! loop {
//!     if D ≠ ⊥       → return D                      // paper's §2 remark
//!     (flag, w) ← AC[r].adopt_commit(i, estimate)
//!     if flag = commit → D ← w; return w
//!     estimate ← w; r ← r + 1
//! }
//! ```
//!
//! *Safety*: coherence of adopt-commit means a committed value in round `r`
//! is everyone's estimate entering round `r+1`; convergence then keeps it
//! committed forever — so all decisions agree across rounds.
//! *Obstruction-free termination*: a process running solo eventually reaches
//! a round no other process has touched, where its own input converges and
//! commits.
//!
//! The unbounded round sequence is materialized where it is used: one
//! pointer in the object holds round 0, allocated by the first process to
//! run a round, and round 0 holds the link to rounds `1..` — a lock-free
//! chain of fixed-size segments whose first link is allocated by the first
//! process that leaves round 0. Every slot (and every link) is initialized
//! on first use with a CAS-from-`⊥` — allocation happens off the
//! register-protocol itself. An object decided in round 0 owns no segment,
//! and one never proposed to owns no round at all.
//!
//! **Whose decision `D` is.** The rounds (`Rounds`, crate-private) decide a
//! slot they do not own: the loop above polls it and installs a commit in it
//! with a CAS-from-`⊥`. A slot is an [`OnceBox`]: set once, never cleared,
//! so a poll is one load and `peek_with` borrows the decision without an
//! epoch pin or a clone. The one register retiring clears — the pointer to
//! round 0 — stays an `AtomicCell`, since a retire replaces it under
//! readers. Everything behind it is set once: a round's adopt-commit
//! registers ([`OnceBox`]es: each process writes each at most once), a
//! segment's round slots and the links between segments ([`OnceArc`]). A
//! proposer loads round 0 once, after its first poll finds `D` `⊥`, and
//! reaches every later round from the round 0 it holds, so its rounds pin
//! no epoch past that load. This object runs the
//! rounds on its own slot — what `peek` and every later proposer read —
//! and keeps slot and rounds for as long as it lives.
//! [`crate::consensus::AsymmetricConsensus`] runs the same rounds on its
//! outer slot, so there the outer slot *is* `D`: nothing else is
//! installed. Once `D` is decided the rounds have no use there, and every
//! guest that ran them *retires* them on its way out — round 0, and with it
//! the segment chain, back to `⊥`, reclaimed once no process still holds
//! it. A process that asks for a round after a retire
//! re-creates it lazily and retires it on its own way out, so once the last
//! proposer of a composed object has returned, it holds no round object. A
//! retire is safe only once `D` is decided; the argument is on
//! [`crate::consensus::AsymmetricConsensus`].

use std::fmt;
use std::sync::Arc;

use apc_model::ProcessSet;
use apc_progress_macros::progress;
use apc_registers::{AtomicCell, OnceArc, OnceBox};

use crate::consensus::adopt_commit::AdoptCommit;
use crate::consensus::{Consensus, ProposeOnce};
use crate::error::ConsensusError;
use crate::liveness::Liveness;

/// Rounds per lazily-allocated segment.
const SEGMENT_ROUNDS: usize = 8;

/// `SEGMENT_ROUNDS` consecutive rounds past round 0, and the link to the
/// segment after them. Each round's adopt-commit object is created by the
/// first process to reach the round. Both are set once and never cleared
/// alone: retiring drops the whole chain with the round 0 it hangs off.
struct Segment<T> {
    rounds: [OnceArc<AdoptCommit<T>>; SEGMENT_ROUNDS],
    next: OnceArc<Segment<T>>,
}

/// Round 0 — the only round an uncontended proposal runs — and the link to
/// rounds `1..`, in segments; `⊥` until some process leaves round 0.
struct RoundZero<T> {
    round: AdoptCommit<T>,
    later: OnceArc<Segment<T>>,
}

impl<T: Clone + Eq + Send + Sync> RoundZero<T> {
    /// Round `r ≥ 1`'s object, on the chain that hangs off this round 0.
    fn later_round(&self, r: usize, ports: ProcessSet) -> Arc<AdoptCommit<T>> {
        let new_segment = || Arc::new(Segment { rounds: Default::default(), next: OnceArc::new() });
        let mut segment = self.later.load_or_init(new_segment);
        for _ in 0..(r - 1) / SEGMENT_ROUNDS {
            segment = segment.next.load_or_init(new_segment);
        }
        segment.rounds[(r - 1) % SEGMENT_ROUNDS].load_or_init(|| Arc::new(new_round(ports)))
    }
}

/// An adopt-commit object whose registers are allocated for the maximum
/// index in `ports` + 1.
fn new_round<T: Clone + Eq + Send + Sync>(ports: ProcessSet) -> AdoptCommit<T> {
    AdoptCommit::new(ports.iter().map(|p| p.index() + 1).max().unwrap_or(1))
}

/// The round protocol: the unbounded sequence of adopt-commit rounds, built
/// on first use, deciding a slot its caller owns (see the module docs).
pub(crate) struct Rounds<T> {
    /// Round 0, which owns the chain of later rounds; `⊥` until a process
    /// runs a round, and again once the rounds are retired.
    round0: AtomicCell<Arc<RoundZero<T>>>,
}

impl<T: Clone + Eq + Send + Sync> Rounds<T> {
    pub(crate) fn new() -> Self {
        Rounds { round0: AtomicCell::new() }
    }

    /// Round 0 and the chain behind it, built first if they are `⊥`.
    fn round_zero(&self, ports: ProcessSet) -> Arc<RoundZero<T>> {
        self.round0
            .load_or_init(|| Arc::new(RoundZero { round: new_round(ports), later: OnceArc::new() }))
    }

    /// Runs rounds as `pid` (one of `ports`) from `estimate` until
    /// `decision` holds a value, and returns that value: `decision` is
    /// polled before every round, and a round that commits installs its
    /// value there with a CAS-from-`⊥`. Gives up with `None` after
    /// `max_rounds` rounds without a decision.
    ///
    /// Round 0 is loaded only after the first poll finds `decision` `⊥`,
    /// and every later round is reached from the round 0 this run holds, so
    /// a retire in between does not move the run to another chain.
    pub(crate) fn run(
        &self,
        pid: usize,
        mut estimate: T,
        ports: ProcessSet,
        max_rounds: Option<usize>,
        decision: &OnceBox<T>,
    ) -> Option<T> {
        let mut held = None;
        let mut r = 0usize;
        loop {
            if let Some(d) = OnceBox::get(decision) {
                return Some(d.clone());
            }
            if max_rounds.is_some_and(|max| r >= max) {
                return None;
            }
            let zero = held.get_or_insert_with(|| self.round_zero(ports));
            let outcome = match r {
                0 => zero.round.adopt_commit(pid, estimate),
                r => zero.later_round(r, ports).adopt_commit(pid, estimate),
            };
            let (flag, w) = outcome.expect("each pid visits each round at most once");
            if flag.is_commit() {
                return Some(decision.decide(w).clone());
            }
            estimate = w;
            r += 1;
        }
    }

    /// Round `r ≥ 1`'s object, on the chain behind the current round 0.
    #[cfg(test)]
    fn round_object(&self, r: usize, ports: ProcessSet) -> Arc<AdoptCommit<T>> {
        self.round_zero(ports).later_round(r, ports)
    }

    /// Takes the rounds down: round 0, and with it the segment chain, back
    /// to `⊥`, reclaimed once no process still holds it.
    ///
    /// Only for a caller whose `decision` slot is already decided, and that
    /// keeps that slot — a standalone [`ObstructionFreeConsensus`] never
    /// retires.
    #[progress(wait_free)]
    pub(crate) fn retire(&self) {
        self.round0.clear();
    }

    /// Whether no round object and no segment is held — what retired rounds,
    /// or rounds nobody ran, look like.
    #[cfg(test)]
    pub(crate) fn hold_nothing(&self) -> bool {
        self.round0.is_bot()
    }
}

/// Obstruction-free consensus for up to `n` processes from registers.
///
/// Implements the `(n,0)`-live end of the paper's spectrum. Also exposes
/// [`ObstructionFreeConsensus::propose_bounded`] for callers (tests,
/// adversaries) that need to observe *non*-termination under contention
/// instead of spinning forever.
///
/// # Examples
///
/// ```
/// use apc_core::consensus::{Consensus, ObstructionFreeConsensus};
/// use apc_core::liveness::Liveness;
/// use apc_model::ProcessSet;
///
/// let spec = Liveness::obstruction_free(ProcessSet::first_n(3)).unwrap();
/// let cons = ObstructionFreeConsensus::new(spec);
/// // Running alone: decides its own value.
/// assert_eq!(cons.propose(2, 9u32).unwrap(), 9);
/// ```
pub struct ObstructionFreeConsensus<T> {
    spec: Liveness,
    rounds: Rounds<T>,
    /// `D`: set once, by the first round that commits.
    decision: OnceBox<T>,
    once: ProposeOnce,
}

impl<T: Clone + Eq + Send + Sync> ObstructionFreeConsensus<T> {
    /// Creates an obstruction-free consensus object for the ports of `spec`.
    ///
    /// Ports may be any subset of `0..64`; each round's registers are
    /// allocated for the maximum port index + 1.
    pub fn new(spec: Liveness) -> Self {
        ObstructionFreeConsensus {
            spec,
            rounds: Rounds::new(),
            decision: OnceBox::new(),
            once: ProposeOnce::new(),
        }
    }

    /// The liveness specification.
    pub fn spec(&self) -> Liveness {
        self.spec
    }

    /// Like [`Consensus::propose`], but gives up (returning `Ok(None)`)
    /// after `max_rounds` adopt-commit rounds without a decision.
    ///
    /// `Ok(None)` models the paper's "the invocation has not terminated
    /// (yet)" — it is how experiments *observe* that obstruction-freedom
    /// provides no guarantee under contention. Like `propose`, it may be
    /// invoked at most once per process.
    ///
    /// # Errors
    ///
    /// Same as [`Consensus::propose`].
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
        self.once.claim(pid)?;
        Ok(self.run_rounds(pid, value, Some(max_rounds)))
    }

    fn run_rounds(&self, pid: usize, value: T, max_rounds: Option<usize>) -> Option<T> {
        let ports = self.spec.ports();
        self.rounds.run(pid, value, ports, max_rounds, &self.decision)
    }
}

impl<T: Clone + Eq + Send + Sync> Consensus<T> for ObstructionFreeConsensus<T> {
    /// Proposes `value`. **Blocks** (keeps running rounds) until a decision
    /// is reached — per the obstruction-free contract this is guaranteed
    /// only if the caller eventually runs in isolation. Use
    /// [`ObstructionFreeConsensus::propose_bounded`] when non-termination
    /// must be observable.
    #[progress(obstruction_free)]
    fn propose(&self, pid: usize, value: T) -> Result<T, ConsensusError> {
        if !self.spec.is_port(pid) {
            return Err(ConsensusError::NotAPort { pid });
        }
        self.once.claim(pid)?;
        let decided = self.run_rounds(pid, value, None);
        // APC-LINT: allow(panic): with `max_rounds: None` the round loop has no bound to exhaust — it returns only on a decision, so this arm is unreachable by construction, not an environmental failure
        Ok(decided.expect("unbounded rounds end only on decision"))
    }

    #[progress(wait_free)]
    fn peek(&self) -> Option<T> {
        self.decision.get().cloned()
    }

    #[progress(wait_free)]
    fn peek_with<R>(&self, f: impl FnOnce(Option<&T>) -> R) -> R {
        f(self.decision.get())
    }
}

impl<T: Clone + Eq + fmt::Debug> fmt::Debug for ObstructionFreeConsensus<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObstructionFreeConsensus")
            .field("spec", &self.spec)
            .field("decided", &self.decision.get())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consensus::AcOutcome;
    use apc_model::history::{assert_consensus, ProposeRecord};
    use std::sync::Mutex;

    fn of_spec(n: usize) -> Liveness {
        Liveness::obstruction_free(ProcessSet::first_n(n)).unwrap()
    }

    #[test]
    fn solo_proposal_decides_own_value() {
        let cons = ObstructionFreeConsensus::new(of_spec(4));
        assert_eq!(cons.propose(0, 7u32).unwrap(), 7);
        assert_eq!(cons.peek(), Some(7));
    }

    #[test]
    fn later_proposals_see_decision() {
        let cons = ObstructionFreeConsensus::new(of_spec(3));
        assert_eq!(cons.propose(1, 5u32).unwrap(), 5);
        assert_eq!(cons.propose(0, 6).unwrap(), 5);
        assert_eq!(cons.propose(2, 8).unwrap(), 5);
    }

    #[test]
    fn non_port_and_double_propose_rejected() {
        let cons = ObstructionFreeConsensus::new(of_spec(2));
        assert_eq!(cons.propose(5, 0u8), Err(ConsensusError::NotAPort { pid: 5 }));
        cons.propose(0, 1).unwrap();
        assert_eq!(cons.propose(0, 2), Err(ConsensusError::AlreadyProposed { pid: 0 }));
    }

    #[test]
    fn bounded_propose_gives_up_cleanly() {
        let cons = ObstructionFreeConsensus::new(of_spec(2));
        // Zero rounds allowed and no decision: must return None.
        assert_eq!(cons.propose_bounded(0, 1u32, 0).unwrap(), None);
    }

    #[test]
    fn rounds_decide_the_slot_they_are_given() {
        let rounds: Rounds<u32> = Rounds::new();
        let ports = ProcessSet::first_n(3);
        let slot = OnceBox::new();
        // A commit is installed in the slot the caller passed in.
        assert_eq!(rounds.run(0, 7, ports, None, &slot), Some(7));
        assert_eq!(slot.get(), Some(&7));
        // A decided slot is returned before any round runs, so rounds that
        // find it decided build nothing...
        let untouched: Rounds<u32> = Rounds::new();
        assert_eq!(untouched.run(1, 8, ports, None, &slot), Some(7));
        assert!(untouched.hold_nothing());
        // ...and a bound that runs out undecided gives up.
        assert_eq!(rounds.run(2, 9, ports, Some(0), &OnceBox::new()), None);
    }

    #[test]
    fn retiring_clears_every_round() {
        let rounds: Rounds<u32> = Rounds::new();
        let ports = ProcessSet::first_n(2);
        assert_eq!(rounds.run(0, 5, ports, None, &OnceBox::new()), Some(5));
        rounds.round_object(SEGMENT_ROUNDS + 1, ports);
        assert!(rounds.round0.load().is_some_and(|zero| zero.later.load().is_some()));
        rounds.retire();
        assert!(rounds.hold_nothing());
        // Retired rounds are rounds nobody ran: asking re-creates them.
        assert_eq!(rounds.round_zero(ports).round.n(), 2);
    }

    #[test]
    fn segment_growth_past_one_segment() {
        // Force many rounds by bounding and retrying with distinct pids...
        // Simplest: look up a deep round object directly.
        let rounds: Rounds<u8> = Rounds::new();
        let deep = rounds.round_object(SEGMENT_ROUNDS * 3 + 2, ProcessSet::first_n(2));
        assert_eq!(deep.n(), 2);
    }

    #[test]
    fn an_object_that_never_left_round_zero_owns_no_segment() {
        // Untouched — all a VIP-decided asymmetric cell ever holds of its
        // guest protocol: no round object, no segment.
        let cons: ObstructionFreeConsensus<u32> = ObstructionFreeConsensus::new(of_spec(6));
        assert!(cons.rounds.hold_nothing());
        // Decided uncontended: round 0's object, and still no segment, also
        // after a latecomer learned the decision.
        assert_eq!(cons.propose(4, 7).unwrap(), 7);
        assert_eq!(cons.propose(2, 9).unwrap(), 7);
        assert!(cons.rounds.round0.load().is_some_and(|zero| zero.later.load().is_none()));
        // Only a process that leaves round 0 builds the first segment.
        cons.rounds.round_object(1, cons.spec.ports());
        assert!(cons.rounds.round0.load().is_some_and(|zero| zero.later.load().is_some()));
    }

    /// Round `r` as an asker holds it: round 0, and round `r` itself when it
    /// is a later one.
    type Held = (Arc<RoundZero<u64>>, Option<Arc<AdoptCommit<u64>>>);

    fn held_round(rounds: &Rounds<u64>, r: usize, ports: ProcessSet) -> Held {
        let zero = rounds.round_zero(ports);
        let later = (r > 0).then(|| zero.later_round(r, ports));
        (zero, later)
    }

    fn object((zero, later): &Held) -> &AdoptCommit<u64> {
        later.as_deref().unwrap_or(&zero.round)
    }

    #[test]
    fn the_lazy_chain_hands_every_asker_the_same_round_object() {
        // Rounds 0 ..= 2·SEGMENT_ROUNDS: round 0, then every slot of the
        // first two segments — two boundaries, each opened by a race.
        let rounds: Rounds<u64> = Rounds::new();
        let ports = ProcessSet::first_n(2);
        for r in 0..=2 * SEGMENT_ROUNDS {
            let barrier = std::sync::Barrier::new(2);
            let (a, b) = std::thread::scope(|s| {
                let ask = || {
                    barrier.wait();
                    held_round(&rounds, r, ports)
                };
                let a = s.spawn(ask);
                let b = s.spawn(ask);
                (a.join().unwrap(), b.join().unwrap())
            });
            let (a, b) = (object(&a), object(&b));
            assert!(std::ptr::eq(a, b), "round {r} resolved to two objects");
            let again = held_round(&rounds, r, ports);
            assert!(std::ptr::eq(a, object(&again)), "round {r} moved");
            // The object is a working adopt-commit: a solo run commits, and
            // the second process adopts what was committed.
            let input = r as u64;
            assert_eq!(a.adopt_commit(0, input).unwrap(), (AcOutcome::Commit, input));
            assert_eq!(b.adopt_commit(1, input + 100).unwrap(), (AcOutcome::Adopt, input));
        }
    }

    #[test]
    fn a_late_guest_past_a_retire_rebuilds_round_zero_and_its_chain_then_retires_them() {
        let rounds: Rounds<u64> = Rounds::new();
        let ports = ProcessSet::first_n(3);
        // Guest 0 decides in round 0 and retires the rounds on its way out.
        let decision = OnceBox::new();
        assert_eq!(rounds.run(0, 1, ports, None, &decision), Some(1));
        let retired = rounds.round0.load().unwrap();
        rounds.retire();
        assert!(rounds.hold_nothing());
        // Two guests polled the slot while it was `⊥` and stalled (here:
        // their rounds run on a slot of their own). Guest 2 resumes first,
        // re-creates round 0 and its chain, and proposes a value of its own
        // in rounds 0 ..= SEGMENT_ROUNDS + 1 before it stalls again...
        let stalled = OnceBox::new();
        let zero = rounds.round_zero(ports);
        assert!(!Arc::ptr_eq(&zero, &retired), "a retired round 0 came back");
        zero.round.adopt_commit(2, 100).unwrap();
        for r in 1..=SEGMENT_ROUNDS + 1 {
            zero.later_round(r, ports).adopt_commit(2, 100 + r as u64).unwrap();
        }
        // ...so guest 1 adopts guest 2's value in each of those rounds and
        // commits the last one alone in the next, inside the second segment.
        let last = 100 + SEGMENT_ROUNDS as u64 + 1;
        assert_eq!(rounds.run(1, 7, ports, None, &stalled), Some(last));
        assert!(zero.later.load().is_some_and(|first| first.next.load().is_some()));
        // Its retire takes the re-created round 0 down with its whole chain.
        rounds.retire();
        assert!(rounds.hold_nothing());
    }

    #[test]
    fn concurrent_agreement_validity_stress() {
        // Under real concurrency the *blocking* propose may interleave
        // arbitrarily; threads do terminate in practice because the OS
        // scheduler provides isolation windows, and every decision must be
        // safe. 30 rounds keep the test fast.
        for round in 0..30 {
            let n = 4;
            let cons = ObstructionFreeConsensus::new(of_spec(n));
            let records = Mutex::new(Vec::new());
            std::thread::scope(|s| {
                for pid in 0..n {
                    let cons = &cons;
                    let records = &records;
                    s.spawn(move || {
                        let proposed = (round * 10 + pid) as u64;
                        let returned = cons.propose(pid, proposed).unwrap();
                        records.lock().unwrap().push(ProposeRecord { pid, proposed, returned });
                    });
                }
            });
            assert_consensus(&records.into_inner().unwrap());
        }
    }

    #[test]
    fn sparse_port_set_works() {
        let spec = Liveness::obstruction_free(ProcessSet::from_indices([1, 5])).unwrap();
        let cons = ObstructionFreeConsensus::new(spec);
        assert_eq!(cons.propose(5, 50u32).unwrap(), 50);
        assert_eq!(cons.propose(1, 10).unwrap(), 50);
        assert_eq!(cons.propose(0, 0), Err(ConsensusError::NotAPort { pid: 0 }));
    }
}
