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
//! The unbounded round sequence is materialized where it is used: round 0
//! sits behind one word of the object, built by the first process to run
//! a round, and holds the link to rounds `1..` — a lock-free chain of
//! fixed-size segments whose first link is allocated by the first process
//! that leaves round 0. Every slot (and every link) is initialized on
//! first use with a CAS-from-`⊥` — allocation happens off the
//! register-protocol itself. An object decided in round 0 owns no segment,
//! and one never proposed to owns no round at all.
//!
//! **Whose decision `D` is.** The rounds (`Rounds`, crate-private) decide a
//! slot they do not own: the loop above polls it and installs a commit in it
//! with a CAS-from-`⊥`. A slot is an [`OnceBox`]: set once, never cleared,
//! so a poll is one load and `peek_with` borrows the decision without a
//! clone. Everything behind round 0 is set once too: a round's adopt-commit
//! registers (each process writes each at most once), a segment's round
//! slots and the links between segments ([`OnceArc`]).
//!
//! **Who frees the rounds.** Round 0 is a [`Scaffold`]: one `AtomicU64`
//! holding its address, the count of processes running rounds, and a
//! terminal `FREED` bit. A proposer whose first poll finds `D` `⊥` enters
//! it (one `fetch_add`, and a CAS to install round 0 if nobody built it
//! yet), reaches every later round from the round 0 it holds, and leaves
//! with one `fetch_sub`. The last proposer out, if it finds `D` decided,
//! swings the word to `FREED` and frees round 0 and the chain behind it.
//! `FREED` always means decided, so a late proposer whose entry finds it
//! reads `D` and touches nothing; a proposer that gives up undecided
//! leaves round 0 for the next decided proposer to free. So once an
//! object's last proposer has returned, a decided object holds no round
//! object, whether it is this one or
//! [`crate::consensus::AsymmetricConsensus`], which runs the same rounds on
//! its outer slot. The order — decided, then freed — is the one the
//! argument on [`crate::consensus::AsymmetricConsensus`] needs: a round
//! that committed is only ever taken down with the decision in `D`.

use std::fmt;
use std::sync::Arc;

use apc_model::ProcessSet;
use apc_progress_macros::progress;
use apc_registers::{Inside, OnceArc, OnceBox, Scaffold};

use crate::consensus::adopt_commit::AdoptCommit;
use crate::consensus::{Consensus, ProposeOnce};
use crate::error::ConsensusError;
use crate::liveness::Liveness;

/// Rounds per lazily-allocated segment.
const SEGMENT_ROUNDS: usize = 8;

/// `SEGMENT_ROUNDS` consecutive rounds past round 0, and the link to the
/// segment after them. Each round's adopt-commit object is created by the
/// first process to reach the round. Both are set once and never cleared
/// alone: freeing round 0 drops the whole chain that hangs off it.
struct Segment<T> {
    rounds: [OnceArc<AdoptCommit<T>>; SEGMENT_ROUNDS],
    next: OnceArc<Segment<T>>,
}

/// Round 0 — the only round an uncontended proposal runs — and the link to
/// rounds `1..`, in segments; `⊥` until some process leaves round 0.
pub(crate) struct RoundZero<T> {
    round: AdoptCommit<T>,
    later: OnceArc<Segment<T>>,
    /// Counts this round 0's drop, for the tests that count builds.
    #[cfg(test)]
    census: Arc<RoundCensus>,
}

impl<T: Clone + Eq + Send + Sync> RoundZero<T> {
    /// Round `r ≥ 1`'s object, on the chain that hangs off this round 0.
    fn later_round(&self, r: usize, ports: ProcessSet) -> Arc<AdoptCommit<T>> {
        let new_segment = || Arc::new(Segment { rounds: Default::default(), next: OnceArc::new() });
        let mut segment = OnceArc::load_or_init(&self.later, new_segment);
        for _ in 0..(r - 1) / SEGMENT_ROUNDS {
            segment = OnceArc::load_or_init(&segment.next, new_segment);
        }
        let round = &segment.rounds[(r - 1) % SEGMENT_ROUNDS];
        OnceArc::load_or_init(round, || Arc::new(new_round(ports)))
    }

    /// Runs rounds as `pid` from `estimate` until `decision` holds a value
    /// (see [`Rounds::run`]), on the chain this round 0 holds.
    fn run(
        &self,
        pid: usize,
        mut estimate: T,
        ports: ProcessSet,
        max_rounds: Option<usize>,
        decision: &OnceBox<T>,
    ) -> Option<T> {
        let mut r = 0usize;
        loop {
            if let Some(d) = OnceBox::get(decision) {
                return Some(T::clone(d));
            }
            if max_rounds.is_some_and(|max| r >= max) {
                return None;
            }
            let outcome = match r {
                0 => self.round.adopt_commit(pid, estimate),
                r => self.later_round(r, ports).adopt_commit(pid, estimate),
            };
            let (flag, w) = outcome.expect("each pid visits each round at most once");
            if flag.is_commit() {
                return Some(T::clone(decision.decide(w)));
            }
            estimate = w;
            r += 1;
        }
    }
}

/// How many round 0s a [`Rounds`] built and how many were dropped.
#[cfg(test)]
#[derive(Default)]
pub(crate) struct RoundCensus {
    pub(crate) built: std::sync::atomic::AtomicUsize,
    pub(crate) dropped: std::sync::atomic::AtomicUsize,
}

#[cfg(test)]
impl<T> Drop for RoundZero<T> {
    fn drop(&mut self) {
        self.census.dropped.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    }
}

/// An adopt-commit object whose registers are allocated for the maximum
/// index in `ports` + 1.
fn new_round<T: Clone + Eq + Send + Sync>(ports: ProcessSet) -> AdoptCommit<T> {
    AdoptCommit::new(ports.iter().map(|p| p.index() + 1).max().unwrap_or(1))
}

/// The round protocol: the unbounded sequence of adopt-commit rounds, built
/// on first use, deciding a slot its caller owns (see the module docs).
/// One `Rounds` decides one slot: every run of it is given the same one.
pub(crate) struct Rounds<T> {
    /// Round 0, which owns the chain of later rounds; `⊥` until a process
    /// runs a round, and taken down for good once the slot is decided and
    /// the last process running rounds has left.
    round0: Scaffold<RoundZero<T>>,
    #[cfg(test)]
    census: Arc<RoundCensus>,
}

impl<T: Clone + Eq + Send + Sync> Rounds<T> {
    pub(crate) fn new() -> Self {
        Rounds {
            round0: Scaffold::new(),
            #[cfg(test)]
            census: Arc::default(),
        }
    }

    /// Enters round 0, building it first if nobody has; `None` if it was
    /// taken down, which happens only once the slot is decided.
    fn enter(&self, ports: ProcessSet) -> Option<Inside<'_, RoundZero<T>>> {
        self.round0.enter(|| {
            #[cfg(test)]
            self.census.built.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            RoundZero {
                round: new_round(ports),
                later: OnceArc::new(),
                #[cfg(test)]
                census: Arc::clone(&self.census),
            }
        })
    }

    /// Runs rounds as `pid` (one of `ports`) from `estimate` until
    /// `decision` holds a value, and returns that value: `decision` is
    /// polled before every round, and a round that commits installs its
    /// value there with a CAS-from-`⊥`. Gives up with `None` after
    /// `max_rounds` rounds without a decision.
    ///
    /// Round 0 is entered only after the first poll finds `decision` `⊥`,
    /// and every later round is reached from the round 0 this run holds.
    /// On its way out the run leaves round 0, and frees it if it is the
    /// last one out and `decision` is decided.
    pub(crate) fn run(
        &self,
        pid: usize,
        estimate: T,
        ports: ProcessSet,
        max_rounds: Option<usize>,
        decision: &OnceBox<T>,
    ) -> Option<T> {
        let entered = match OnceBox::get(decision) {
            None if max_rounds != Some(0) => self.enter(ports),
            _ => None,
        };
        // Decided, allowed no round, or round 0 taken down — which happens
        // only with the slot decided: the slot is the answer.
        let Some(zero) = entered else { return OnceBox::get(decision).cloned() };
        // Spelled by path: apc-lint resolves an untyped method call by name.
        let decided = RoundZero::run(&zero, pid, estimate, ports, max_rounds, decision);
        Inside::leave(zero, OnceBox::get(decision).is_some());
        decided
    }

    /// Whether no round object and no segment is held — what rounds taken
    /// down, or rounds nobody ran, look like.
    #[cfg(test)]
    pub(crate) fn hold_nothing(&self) -> bool {
        self.round0.holds_nothing()
    }

    /// Round 0 as a process that stalls inside the rounds holds it, for
    /// tests that stop a proposer mid-protocol.
    #[cfg(test)]
    pub(crate) fn stall(&self, ports: ProcessSet) -> Inside<'_, RoundZero<T>> {
        self.enter(ports).expect("the rounds were taken down")
    }

    /// Stalls `pid` right after it ran round 0 with `value`, before it
    /// polls the slot again.
    #[cfg(test)]
    pub(crate) fn stall_after_round_zero(
        &self,
        pid: usize,
        value: T,
        ports: ProcessSet,
    ) -> Inside<'_, RoundZero<T>> {
        let zero = self.stall(ports);
        zero.round.adopt_commit(pid, value).expect("a fresh pid in round 0");
        zero
    }

    /// Round 0s built, and round 0s dropped, so far.
    #[cfg(test)]
    pub(crate) fn census(&self) -> (usize, usize) {
        use std::sync::atomic::Ordering::SeqCst;
        (self.census.built.load(SeqCst), self.census.dropped.load(SeqCst))
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
    fn the_last_decided_proposer_out_frees_every_round() {
        let rounds: Rounds<u32> = Rounds::new();
        let ports = ProcessSet::first_n(3);
        let decision = OnceBox::new();
        // Guest 2 stalls inside the rounds, far down the chain...
        let stalled = rounds.stall(ports);
        stalled.later_round(SEGMENT_ROUNDS + 1, ports);
        // ...so guest 0, deciding in round 0, leaves it standing.
        assert_eq!(rounds.run(0, 5, ports, None, &decision), Some(5));
        assert!(stalled.later.load().is_some_and(|first| first.next.load().is_some()));
        assert!(!rounds.hold_nothing(), "freed with a proposer inside");
        // Guest 2 resumes, finds the slot decided, and is the last one out:
        // round 0 and its whole chain go.
        assert_eq!(stalled.run(2, 9, ports, None, &decision), Some(5));
        stalled.leave(true);
        assert!(rounds.hold_nothing());
        assert_eq!(rounds.census(), (1, 1));
    }

    #[test]
    fn segment_growth_past_one_segment() {
        let rounds: Rounds<u8> = Rounds::new();
        let ports = ProcessSet::first_n(2);
        let zero = rounds.stall(ports);
        let deep = zero.later_round(SEGMENT_ROUNDS * 3 + 2, ports);
        assert_eq!(deep.n(), 2);
    }

    #[test]
    fn an_object_that_never_left_round_zero_owns_no_segment() {
        // Untouched — all a VIP-decided asymmetric cell ever holds of its
        // guest protocol: no round object, no segment.
        let cons: ObstructionFreeConsensus<u32> = ObstructionFreeConsensus::new(of_spec(6));
        assert!(cons.rounds.hold_nothing());
        // Decided uncontended while another proposer is inside: round 0's
        // object, and still no segment, also after a latecomer learned the
        // decision.
        let ports = cons.spec.ports();
        let inside = cons.rounds.stall(ports);
        assert_eq!(cons.propose(4, 7).unwrap(), 7);
        assert_eq!(cons.propose(2, 9).unwrap(), 7);
        assert!(inside.later.load().is_none());
        // Only a process that leaves round 0 builds the first segment.
        inside.later_round(1, ports);
        assert!(inside.later.load().is_some());
        inside.leave(true);
        assert!(cons.rounds.hold_nothing());
    }

    #[test]
    fn the_lazy_chain_hands_every_asker_the_same_round_object() {
        // Round 0 built by two racers, then rounds 1 ..= 2·SEGMENT_ROUNDS:
        // every slot of the first two segments — two boundaries, each
        // opened by a race.
        let rounds: Rounds<u64> = Rounds::new();
        let ports = ProcessSet::first_n(2);
        let barrier = std::sync::Barrier::new(2);
        let (a, b) = std::thread::scope(|s| {
            let ask = || {
                barrier.wait();
                rounds.stall(ports)
            };
            let a = s.spawn(ask);
            let b = s.spawn(ask);
            (a.join().unwrap(), b.join().unwrap())
        });
        assert!(std::ptr::eq(&*a, &*b), "round 0 resolved to two objects");
        let (built, dropped) = rounds.census();
        assert_eq!(built - dropped, 1, "a losing round 0 was kept");
        // The round 0 object is a working adopt-commit: a solo run commits,
        // and the second process adopts what was committed.
        assert_eq!(a.round.adopt_commit(0, 0).unwrap(), (AcOutcome::Commit, 0));
        assert_eq!(b.round.adopt_commit(1, 100).unwrap(), (AcOutcome::Adopt, 0));
        for r in 1..=2 * SEGMENT_ROUNDS {
            let ask = |zero: &RoundZero<u64>| {
                barrier.wait();
                zero.later_round(r, ports)
            };
            let (ra, rb) = std::thread::scope(|s| {
                let ra = s.spawn(|| ask(&a));
                let rb = s.spawn(|| ask(&b));
                (ra.join().unwrap(), rb.join().unwrap())
            });
            assert!(Arc::ptr_eq(&ra, &rb), "round {r} resolved to two objects");
            assert!(Arc::ptr_eq(&ra, &a.later_round(r, ports)), "round {r} moved");
            let input = r as u64;
            assert_eq!(ra.adopt_commit(0, input).unwrap(), (AcOutcome::Commit, input));
            assert_eq!(rb.adopt_commit(1, input + 100).unwrap(), (AcOutcome::Adopt, input));
        }
    }

    #[test]
    fn a_late_guest_past_the_take_down_reads_the_decision_and_builds_nothing() {
        let rounds: Rounds<u64> = Rounds::new();
        let ports = ProcessSet::first_n(3);
        // Guest 0 decides in round 0 and, the last one out, frees it.
        let decision = OnceBox::new();
        assert_eq!(rounds.run(0, 1, ports, None, &decision), Some(1));
        assert!(rounds.hold_nothing());
        assert_eq!(rounds.census(), (1, 1));
        // Guest 2 polled the slot while it was `⊥` and stalled; it resumes
        // at its entry, which finds round 0 taken down: it builds nothing
        // and reads the decision instead.
        assert!(rounds.enter(ports).is_none(), "a freed round 0 came back");
        assert_eq!(rounds.run(2, 100, ports, None, &decision), Some(1));
        assert!(rounds.hold_nothing());
        assert_eq!(rounds.census(), (1, 1), "a late guest built a round 0");
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
