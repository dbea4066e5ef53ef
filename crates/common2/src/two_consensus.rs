//! Two-process consensus from Test&Set — consensus number 2, constructively.
//!
//! The classic algorithm: each process publishes its proposal in its own
//! register, then races on a test-and-set bit. The winner decides its own
//! value; the loser reads the winner's register. For two processes the
//! loser knows who won (the *other* process); for three or more it does not
//! — the naive extension is **incorrect**, and
//! [`naive_three_process_system`] packages it so the exhaustive explorer
//! can find the agreement violation (see the crate tests).

use std::sync::atomic::Ordering;

use apc_progress_macros::progress;

use apc_model::{
    MaybeParticipant, ObjectId, Op, Program, ProgramAction, System, SystemBuilder, Value,
};
use apc_registers::OnceBox;

use crate::tas::TestAndSet;

/// Errors of the two-process consensus object.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum TwoConsensusError {
    /// `pid` was not 0 or 1.
    NotAPort {
        /// The offending process index.
        pid: usize,
    },
    /// The process proposed twice.
    AlreadyProposed {
        /// The offending process index.
        pid: usize,
    },
}

impl std::fmt::Display for TwoConsensusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TwoConsensusError::NotAPort { pid } => {
                write!(f, "process {pid} is not a port (2-process object)")
            }
            TwoConsensusError::AlreadyProposed { pid } => {
                write!(f, "process {pid} already proposed")
            }
        }
    }
}

impl std::error::Error for TwoConsensusError {}

/// Wait-free consensus for **two** processes from one [`TestAndSet`] and two
/// registers — the textbook witness that Test&Set has consensus number ≥ 2.
///
/// # Examples
///
/// ```
/// use apc_common2::two_consensus::TasConsensus;
/// let cons: TasConsensus<&str> = TasConsensus::new();
/// assert_eq!(cons.propose(1, "b").unwrap(), "b");
/// assert_eq!(cons.propose(0, "a").unwrap(), "b");
/// ```
pub struct TasConsensus<T> {
    reg: [OnceBox<T>; 2],
    tas: TestAndSet,
    proposed: [std::sync::atomic::AtomicBool; 2],
}

impl<T: Clone + Send + Sync> TasConsensus<T> {
    /// Creates the object.
    pub fn new() -> Self {
        TasConsensus {
            reg: [OnceBox::new(), OnceBox::new()],
            tas: TestAndSet::new(),
            proposed: [
                std::sync::atomic::AtomicBool::new(false),
                std::sync::atomic::AtomicBool::new(false),
            ],
        }
    }

    /// Proposes `value` as process `pid ∈ {0, 1}`; returns the decision.
    ///
    /// # Errors
    ///
    /// [`TwoConsensusError::NotAPort`] for `pid ∉ {0,1}`;
    /// [`TwoConsensusError::AlreadyProposed`] on a second call.
    #[progress(wait_free)]
    pub fn propose(&self, pid: usize, value: T) -> Result<T, TwoConsensusError> {
        if pid > 1 {
            return Err(TwoConsensusError::NotAPort { pid });
        }
        if self.proposed[pid].swap(true, Ordering::SeqCst) {
            return Err(TwoConsensusError::AlreadyProposed { pid });
        }
        // Publish the proposal, then race. The write must precede the TAS
        // in the global order (the loser reads the winner's register), so
        // both the register store and the TAS are SeqCst-ordered.
        // `proposed` admitted `pid` once, so its register is still `⊥`.
        let fresh = OnceBox::set(&self.reg[pid], value.clone()).is_ok();
        debug_assert!(fresh, "a process sets its register once");
        std::sync::atomic::fence(Ordering::SeqCst);
        if self.tas.test_and_set() {
            Ok(value)
        } else {
            // The winner published its value before winning the TAS, so the
            // load is non-`⊥`; the fallback to our own (published, valid)
            // proposal merely keeps this path total.
            Ok(OnceBox::get(&self.reg[1 - pid]).cloned().unwrap_or(value))
        }
    }
}

impl<T: Clone + Send + Sync> Default for TasConsensus<T> {
    fn default() -> Self {
        TasConsensus::new()
    }
}

/// Model form of the TAS consensus protocol, generalized to `n` processes
/// with the *naive* loser rule "read the register of process
/// `(pid + 1) mod n`".
///
/// For `n = 2` the rule is exactly "read the other process" and the
/// protocol is correct (verified exhaustively in the tests). For `n = 3` it
/// is wrong — a loser may read another **loser**'s register — and the
/// explorer exhibits the agreement violation. This pair of facts is the
/// constructive content of "Test&Set has consensus number exactly 2"
/// (§3.5's Common2 background).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct TasConsensusProgram {
    regs: Vec<ObjectId>,
    tas: ObjectId,
    pid: u8,
    value: u32,
    state: TcState,
}

#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
enum TcState {
    /// Next: write own register.
    Start,
    /// Awaiting the register write; next: race on the TAS.
    WroteReg,
    /// Awaiting the TAS outcome.
    GotTas,
    /// Awaiting the read of the "winner" register (naive rule).
    GotOther,
}

impl TasConsensusProgram {
    /// A participant proposing `value`.
    pub fn new(regs: Vec<ObjectId>, tas: ObjectId, pid: usize, value: u32) -> Self {
        TasConsensusProgram { regs, tas, pid: pid as u8, value, state: TcState::Start }
    }
}

impl Program for TasConsensusProgram {
    fn resume(&mut self, last: Option<Value>) -> ProgramAction {
        match self.state {
            TcState::Start => {
                self.state = TcState::WroteReg;
                ProgramAction::Invoke(Op::Write(
                    self.regs[self.pid as usize],
                    Value::Num(self.value),
                ))
            }
            TcState::WroteReg => {
                self.state = TcState::GotTas;
                ProgramAction::Invoke(Op::TestAndSet(self.tas))
            }
            TcState::GotTas => {
                let lost = last.expect("TAS returns the old bit").expect_bit("TAS");
                if lost {
                    // Naive loser rule: read the next process's register.
                    self.state = TcState::GotOther;
                    let next = (self.pid as usize + 1) % self.regs.len();
                    ProgramAction::Invoke(Op::Read(self.regs[next]))
                } else {
                    ProgramAction::Decide(Value::Num(self.value))
                }
            }
            TcState::GotOther => {
                let v = last.expect("read returns a value");
                if v.is_bot() {
                    // The naive rule can even read a register that was never
                    // written; spin (for n = 2 this cannot happen).
                    let next = (self.pid as usize + 1) % self.regs.len();
                    ProgramAction::Invoke(Op::Read(self.regs[next]))
                } else {
                    ProgramAction::Decide(v)
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "tas-consensus"
    }
}

/// Builds the `n`-process naive TAS-consensus model system
/// (process `i` proposes `10 + i`).
pub fn tas_consensus_system(n: usize) -> System<MaybeParticipant<TasConsensusProgram>> {
    let mut builder = SystemBuilder::new(n);
    let regs: Vec<ObjectId> = (0..n).map(|_| builder.add_register(Value::Bot)).collect();
    let tas = builder.add_test_and_set();
    builder.build(|pid| {
        MaybeParticipant::Present(TasConsensusProgram::new(
            regs.clone(),
            tas,
            pid.index(),
            10 + pid.index() as u32,
        ))
    })
}

/// The deliberately broken 3-process instance (see module docs).
pub fn naive_three_process_system() -> System<MaybeParticipant<TasConsensusProgram>> {
    tas_consensus_system(3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apc_model::explore::{Agreement, ExploreConfig, Explorer, NoFaults, ValidityIn};
    use apc_model::history::{assert_consensus, ProposeRecord};
    use std::sync::Mutex;

    #[test]
    fn real_sequential() {
        let cons = TasConsensus::new();
        assert_eq!(cons.propose(0, 5u32).unwrap(), 5);
        assert_eq!(cons.propose(1, 9).unwrap(), 5);
    }

    #[test]
    fn real_rejects_bad_usage() {
        let cons: TasConsensus<u8> = TasConsensus::new();
        assert_eq!(cons.propose(2, 0), Err(TwoConsensusError::NotAPort { pid: 2 }));
        cons.propose(0, 1).unwrap();
        assert_eq!(cons.propose(0, 1), Err(TwoConsensusError::AlreadyProposed { pid: 0 }));
    }

    #[test]
    fn real_concurrent_agreement() {
        for round in 0..300 {
            let cons = TasConsensus::new();
            let records = Mutex::new(Vec::new());
            std::thread::scope(|s| {
                for pid in 0..2 {
                    let cons = &cons;
                    let records = &records;
                    s.spawn(move || {
                        let proposed = round * 2 + pid as u64;
                        let returned = cons.propose(pid, proposed).unwrap();
                        records.lock().unwrap().push(ProposeRecord { pid, proposed, returned });
                    });
                }
            });
            assert_consensus(&records.into_inner().unwrap());
        }
    }

    /// The 2-process protocol is correct under EVERY schedule and crash
    /// pattern: Test&Set solves 2-consensus.
    #[test]
    fn model_two_process_exhaustive() {
        let sys = tas_consensus_system(2);
        let explorer = Explorer::new(
            ExploreConfig::default().with_crashes(1, apc_model::ProcessSet::first_n(2)),
        );
        let result = explorer.explore(
            &sys,
            &[&Agreement, &ValidityIn::new([Value::Num(10), Value::Num(11)]), &NoFaults],
        );
        assert!(result.ok(), "2-process TAS consensus must be correct: {:?}", result.violations);
        assert!(!result.truncated);
    }

    /// The naive 3-process extension is WRONG: the explorer finds an
    /// agreement violation. (This is the constructive boundary of consensus
    /// number 2 — no rule fixes it, by Herlihy's hierarchy.)
    #[test]
    fn model_three_process_violates_agreement() {
        let sys = naive_three_process_system();
        let explorer = Explorer::new(ExploreConfig::default());
        let result = explorer.explore(&sys, &[&Agreement]);
        assert!(!result.ok(), "the naive 3-process extension must violate agreement somewhere");
        let violation = &result.violations[0];
        assert!(!violation.path.is_empty(), "violation comes with a reproducing schedule");
    }
}
