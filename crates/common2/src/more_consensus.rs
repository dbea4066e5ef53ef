//! More consensus-number-2 witnesses: 2-process consensus from Swap and
//! from Fetch&Add.
//!
//! Together with [`crate::two_consensus::TasConsensus`] these show
//! constructively that every Common2 flagship object reaches — and the
//! exhaustive 3-process refutations show *only* reaches — consensus
//! number 2, which is what §3.5 of the paper leans on.

use apc_progress_macros::progress;
use std::sync::atomic::{AtomicBool, Ordering};

use apc_model::{
    MaybeParticipant, ObjectId, Op, Program, ProgramAction, System, SystemBuilder, Value,
};
use apc_registers::OnceBox;

use crate::faa::FetchAndAdd;
use crate::swap::SwapCell;
use crate::two_consensus::TwoConsensusError;

/// Wait-free 2-process consensus from one **swap** register and two
/// proposal registers.
///
/// Both processes swap a token into a shared cell: whoever gets `⊥` back
/// went first and wins; the other adopts the winner's published value.
///
/// # Examples
///
/// ```
/// use apc_common2::SwapConsensus;
/// let cons: SwapConsensus<u32> = SwapConsensus::new();
/// assert_eq!(cons.propose(0, 5).unwrap(), 5);
/// assert_eq!(cons.propose(1, 9).unwrap(), 5);
/// ```
pub struct SwapConsensus<T> {
    reg: [OnceBox<T>; 2],
    token: SwapCell,
    proposed: [AtomicBool; 2],
}

impl<T: Clone + Send + Sync> SwapConsensus<T> {
    /// Creates the object.
    pub fn new() -> Self {
        SwapConsensus {
            reg: [OnceBox::new(), OnceBox::new()],
            token: SwapCell::new(),
            proposed: [AtomicBool::new(false), AtomicBool::new(false)],
        }
    }

    /// Proposes `value` as process `pid ∈ {0, 1}`.
    ///
    /// # Errors
    ///
    /// [`TwoConsensusError`] on a bad pid or a double proposal.
    #[progress(wait_free)]
    pub fn propose(&self, pid: usize, value: T) -> Result<T, TwoConsensusError> {
        if pid > 1 {
            return Err(TwoConsensusError::NotAPort { pid });
        }
        if self.proposed[pid].swap(true, Ordering::SeqCst) {
            return Err(TwoConsensusError::AlreadyProposed { pid });
        }
        // `proposed` admitted `pid` once, so its register is still `⊥`.
        let fresh = OnceBox::set(&self.reg[pid], value.clone()).is_ok();
        debug_assert!(fresh, "a process sets its register once");
        std::sync::atomic::fence(Ordering::SeqCst);
        match self.token.swap(pid as u64) {
            None => Ok(value), // got ⊥ back: went first, wins
            // The winner published before swapping, so the load is non-`⊥`;
            // falling back to our own published proposal keeps this total.
            Some(_) => Ok(OnceBox::get(&self.reg[1 - pid]).cloned().unwrap_or(value)),
        }
    }
}

impl<T: Clone + Send + Sync> Default for SwapConsensus<T> {
    fn default() -> Self {
        SwapConsensus::new()
    }
}

/// Wait-free 2-process consensus from one **fetch-and-add** counter and two
/// proposal registers: the process whose `fetch_add(1)` returns `0` wins.
///
/// # Examples
///
/// ```
/// use apc_common2::FaaConsensus;
/// let cons: FaaConsensus<&str> = FaaConsensus::new();
/// assert_eq!(cons.propose(1, "b").unwrap(), "b");
/// assert_eq!(cons.propose(0, "a").unwrap(), "b");
/// ```
pub struct FaaConsensus<T> {
    reg: [OnceBox<T>; 2],
    counter: FetchAndAdd,
    proposed: [AtomicBool; 2],
}

impl<T: Clone + Send + Sync> FaaConsensus<T> {
    /// Creates the object.
    pub fn new() -> Self {
        FaaConsensus {
            reg: [OnceBox::new(), OnceBox::new()],
            counter: FetchAndAdd::new(0),
            proposed: [AtomicBool::new(false), AtomicBool::new(false)],
        }
    }

    /// Proposes `value` as process `pid ∈ {0, 1}`.
    ///
    /// # Errors
    ///
    /// [`TwoConsensusError`] on a bad pid or a double proposal.
    #[progress(wait_free)]
    pub fn propose(&self, pid: usize, value: T) -> Result<T, TwoConsensusError> {
        if pid > 1 {
            return Err(TwoConsensusError::NotAPort { pid });
        }
        if self.proposed[pid].swap(true, Ordering::SeqCst) {
            return Err(TwoConsensusError::AlreadyProposed { pid });
        }
        // `proposed` admitted `pid` once, so its register is still `⊥`.
        let fresh = OnceBox::set(&self.reg[pid], value.clone()).is_ok();
        debug_assert!(fresh, "a process sets its register once");
        std::sync::atomic::fence(Ordering::SeqCst);
        if self.counter.fetch_add(1) == 0 {
            Ok(value)
        } else {
            // The winner published its value before the fetch-and-add, so
            // the load is non-`⊥`; the fallback keeps this path total.
            Ok(OnceBox::get(&self.reg[1 - pid]).cloned().unwrap_or(value))
        }
    }
}

impl<T: Clone + Send + Sync> Default for FaaConsensus<T> {
    fn default() -> Self {
        FaaConsensus::new()
    }
}

/// Model form of the swap-based 2-process consensus, generalized naively to
/// `n` processes (loser reads the *next* process's register) — correct for
/// `n = 2`, exhaustively refuted for `n = 3` in the tests.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct SwapConsensusProgram {
    regs: Vec<ObjectId>,
    token: ObjectId,
    pid: u8,
    value: u32,
    state: ScState,
}

#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
enum ScState {
    Start,
    WroteReg,
    GotToken,
    GotOther,
}

impl SwapConsensusProgram {
    /// A participant proposing `value`.
    pub fn new(regs: Vec<ObjectId>, token: ObjectId, pid: usize, value: u32) -> Self {
        SwapConsensusProgram { regs, token, pid: pid as u8, value, state: ScState::Start }
    }
}

impl Program for SwapConsensusProgram {
    fn resume(&mut self, last: Option<Value>) -> ProgramAction {
        match self.state {
            ScState::Start => {
                self.state = ScState::WroteReg;
                ProgramAction::Invoke(Op::Write(
                    self.regs[self.pid as usize],
                    Value::Num(self.value),
                ))
            }
            ScState::WroteReg => {
                self.state = ScState::GotToken;
                ProgramAction::Invoke(Op::Swap(self.token, Value::Num(self.pid as u32)))
            }
            ScState::GotToken => {
                let old = last.expect("swap returns the old value");
                if old.is_bot() {
                    ProgramAction::Decide(Value::Num(self.value))
                } else {
                    self.state = ScState::GotOther;
                    let next = (self.pid as usize + 1) % self.regs.len();
                    ProgramAction::Invoke(Op::Read(self.regs[next]))
                }
            }
            ScState::GotOther => {
                let v = last.expect("read returns a value");
                if v.is_bot() {
                    let next = (self.pid as usize + 1) % self.regs.len();
                    ProgramAction::Invoke(Op::Read(self.regs[next]))
                } else {
                    ProgramAction::Decide(v)
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "swap-consensus"
    }
}

/// Builds the `n`-process naive swap-consensus model system
/// (process `i` proposes `20 + i`).
pub fn swap_consensus_system(n: usize) -> System<MaybeParticipant<SwapConsensusProgram>> {
    let mut builder = SystemBuilder::new(n);
    let regs: Vec<ObjectId> = (0..n).map(|_| builder.add_register(Value::Bot)).collect();
    let token = builder.add_swap(Value::Bot);
    builder.build(|pid| {
        MaybeParticipant::Present(SwapConsensusProgram::new(
            regs.clone(),
            token,
            pid.index(),
            20 + pid.index() as u32,
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use apc_model::explore::{Agreement, ExploreConfig, Explorer, NoFaults, ValidityIn};
    use apc_model::history::{assert_consensus, ProposeRecord};
    use apc_model::ProcessSet;
    use std::sync::Mutex;

    #[test]
    fn swap_sequential() {
        let cons = SwapConsensus::new();
        assert_eq!(cons.propose(0, 1u8).unwrap(), 1);
        assert_eq!(cons.propose(1, 2).unwrap(), 1);
    }

    #[test]
    fn faa_sequential() {
        let cons = FaaConsensus::new();
        assert_eq!(cons.propose(1, 2u8).unwrap(), 2);
        assert_eq!(cons.propose(0, 1).unwrap(), 2);
    }

    #[test]
    fn both_reject_bad_usage() {
        let s: SwapConsensus<u8> = SwapConsensus::new();
        assert_eq!(s.propose(3, 0), Err(TwoConsensusError::NotAPort { pid: 3 }));
        s.propose(0, 1).unwrap();
        assert_eq!(s.propose(0, 1), Err(TwoConsensusError::AlreadyProposed { pid: 0 }));

        let f: FaaConsensus<u8> = FaaConsensus::new();
        assert_eq!(f.propose(2, 0), Err(TwoConsensusError::NotAPort { pid: 2 }));
        f.propose(1, 1).unwrap();
        assert_eq!(f.propose(1, 1), Err(TwoConsensusError::AlreadyProposed { pid: 1 }));
    }

    #[test]
    fn swap_concurrent_agreement() {
        for round in 0..200 {
            let cons = SwapConsensus::new();
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

    #[test]
    fn faa_concurrent_agreement() {
        for round in 0..200 {
            let cons = FaaConsensus::new();
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

    /// The 2-process swap protocol is correct under every schedule + crash.
    #[test]
    fn model_two_process_exhaustive() {
        let sys = swap_consensus_system(2);
        let explorer =
            Explorer::new(ExploreConfig::default().with_crashes(1, ProcessSet::first_n(2)));
        let result = explorer.explore(
            &sys,
            &[&Agreement, &ValidityIn::new([Value::Num(20), Value::Num(21)]), &NoFaults],
        );
        assert!(result.ok(), "{:?}", result.violations.first());
        assert!(!result.truncated);
    }

    /// The naive 3-process extension fails — Swap, like TAS, stops at
    /// consensus number 2.
    #[test]
    fn model_three_process_fails() {
        let sys = swap_consensus_system(3);
        let explorer = Explorer::new(ExploreConfig::default());
        let result = explorer.explore(&sys, &[&Agreement]);
        assert!(!result.ok(), "naive 3-process swap consensus must violate agreement");
    }
}
