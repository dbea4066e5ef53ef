//! Wait-free adopt-commit from registers (Gafni-style, two collect phases).
//!
//! Adopt-commit is the *safety half* of consensus that registers **can**
//! implement wait-free. It is the building block of the round-based
//! obstruction-free consensus (the possibility result `(n,0)`-liveness from
//! registers, which the paper's §1.2 takes as its starting point).
//!
//! Properties of `adopt_commit(pid, v)` returning `(flag, w)`:
//!
//! * **Validity** — `w` is some process's input.
//! * **Coherence** — if any process returns `(Commit, u)`, every process
//!   returns `(_, u)`.
//! * **Convergence** — if all inputs equal `v`, every process returns
//!   `(Commit, v)`; in particular a process running solo commits.
//! * **Wait-free termination** — two stores and two collects, regardless of
//!   contention.

use std::fmt;
use std::sync::atomic::{fence, AtomicU8, Ordering};

use apc_progress_macros::progress;
use apc_registers::OnceBox;

use crate::consensus::ProposeOnce;
use crate::error::ConsensusError;

/// Result flag of an adopt-commit round.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum AcOutcome {
    /// The value is decided: it is safe to return it from a consensus.
    Commit,
    /// The value must be adopted as the new estimate and retried.
    Adopt,
}

impl AcOutcome {
    /// Whether this outcome commits.
    pub fn is_commit(self) -> bool {
        matches!(self, AcOutcome::Commit)
    }
}

impl fmt::Display for AcOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AcOutcome::Commit => write!(f, "commit"),
            AcOutcome::Adopt => write!(f, "adopt"),
        }
    }
}

/// A wait-free register-based adopt-commit object for `n` processes.
///
/// # Examples
///
/// ```
/// use apc_core::consensus::{AdoptCommit, AcOutcome};
///
/// let ac: AdoptCommit<u32> = AdoptCommit::new(2);
/// let (flag, value) = ac.adopt_commit(0, 7).unwrap();
/// assert_eq!(flag, AcOutcome::Commit); // ran alone: converges
/// assert_eq!(value, 7);
/// ```
pub struct AdoptCommit<T> {
    /// One entry per process, side by side — an object is one slice,
    /// allocated once, however many of its registers are ever written.
    slots: Box<[Registers<T>]>,
    once: ProposeOnce,
}

/// The two single-writer registers of one process. Each is written at
/// most once — `ProposeOnce` admits one `adopt_commit` per process.
struct Registers<T> {
    /// Phase 1: the proposal, set once, so a collect borrows it with one
    /// load.
    proposal: OnceBox<T>,
    /// Phase 2: the `(flag, value)` announcement, as a flag and the pid
    /// whose proposal the value is — every phase-2 value is a proposal
    /// its announcer collected (or its own), and a proposal is never
    /// replaced, so naming it is as good as copying it. `UNSET` until
    /// written.
    announced: AtomicU8,
}

/// An `announced` register not written yet.
const UNSET: u8 = 0;
/// Set in every written `announced` register.
const WRITTEN: u8 = 0x80;
/// Set in an `announced` register whose flag is commit.
const COMMIT: u8 = 0x40;

impl<T: Clone + Eq + Send + Sync> AdoptCommit<T> {
    /// Creates an adopt-commit object for processes `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > 64`.
    pub fn new(n: usize) -> Self {
        assert!((1..=64).contains(&n), "n must be in 1..=64");
        AdoptCommit {
            slots: (0..n)
                .map(|_| Registers { proposal: OnceBox::new(), announced: AtomicU8::new(UNSET) })
                .collect(),
            once: ProposeOnce::new(),
        }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.slots.len()
    }

    /// One adopt-commit operation by `pid` with input `value`.
    ///
    /// Wait-free: 2 stores + 2 collects (`O(n)` register operations). The
    /// first store moves `value` into `pid`'s set-once proposal — the one
    /// allocation — and the second writes one byte naming a proposal; a
    /// collect reads the registers one by one in index order with one load
    /// each and borrows each value where it sits, pinning nothing. Only the
    /// value returned is cloned.
    ///
    /// # Errors
    ///
    /// * [`ConsensusError::NotAPort`] if `pid ≥ n`;
    /// * [`ConsensusError::AlreadyProposed`] on a second call by `pid`.
    #[progress(wait_free)]
    pub fn adopt_commit(&self, pid: usize, value: T) -> Result<(AcOutcome, T), ConsensusError> {
        if pid >= self.n() {
            return Err(ConsensusError::NotAPort { pid });
        }
        self.once.claim(pid)?;
        // Register reads and value clones are spelled by path (`OnceBox::get`,
        // `T::clone`): apc-lint resolves a method call on a value it cannot
        // type by name alone, to every `get` or `clone` in the workspace.

        // Phase 1: publish the proposal, then collect.
        //
        // The correctness argument ("two processes cannot both see only
        // their own value") is a store-buffering pattern: each process
        // writes its slot and then reads the others'. That reasoning needs a
        // total store order, which acquire/release alone does not give —
        // hence the SeqCst fence between the store and the collect.
        // `once` admitted `pid` once, so its registers are still `⊥`.
        let mine = OnceBox::decide(&self.slots[pid].proposal, value);
        fence(Ordering::SeqCst);
        let mut unanimous = true;
        let mut collected_any = false;
        // The first proposal collected, kept only if it differs from ours.
        let mut first_other = None;
        for (j, slot) in self.slots.iter().enumerate() {
            let Some(seen) = OnceBox::get(&slot.proposal) else { continue };
            if seen != mine {
                unanimous = false;
                if !collected_any {
                    first_other = Some(j);
                }
            }
            collected_any = true;
        }
        // Mixed proposals: flag adopt, carrying the first value collected
        // (deterministic choice; any collected value is valid) — which is
        // ours when no other came first.
        let (flag, source) =
            if unanimous { (COMMIT, pid) } else { (0, first_other.unwrap_or(pid)) };

        // Phase 2: publish the flagged value, then collect (same
        // store-buffering pattern, same fence). Release: a collector that
        // reads the byte also sees the proposal it names, which this
        // process read (or wrote) before.
        self.slots[pid].announced.store(WRITTEN | flag | source as u8, Ordering::Release);
        fence(Ordering::SeqCst);
        let mut all_commit = true;
        // The pid of the first commit-flagged value collected. All committed
        // values are equal (at most one commit value can exist, see module
        // docs).
        let mut committed = None;
        for slot in self.slots.iter() {
            let announced = slot.announced.load(Ordering::Acquire);
            if announced == UNSET {
                continue;
            }
            if announced & COMMIT == 0 {
                all_commit = false;
            } else if committed.is_none() {
                committed = Some(usize::from(announced & !(WRITTEN | COMMIT)));
            }
        }
        let (flag, source) = match committed {
            // Everyone observed unanimity: commit.
            Some(j) if all_commit => (AcOutcome::Commit, j),
            // Someone flagged commit: adopt that (unique) value.
            Some(j) => (AcOutcome::Adopt, j),
            // No commit flags seen: adopt own phase-2 value.
            None => (AcOutcome::Adopt, source),
        };
        let value = OnceBox::get(&self.slots[source].proposal);
        debug_assert!(value.is_some(), "an announcement names a proposal that was set");
        Ok((flag, value.map_or_else(|| T::clone(mine), T::clone)))
    }
}

impl<T: Clone + Eq + fmt::Debug> fmt::Debug for AdoptCommit<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AdoptCommit").field("n", &self.slots.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn solo_run_commits_own_value() {
        let ac = AdoptCommit::new(3);
        assert_eq!(ac.adopt_commit(1, 42).unwrap(), (AcOutcome::Commit, 42));
    }

    #[test]
    fn unanimous_inputs_commit() {
        let ac = AdoptCommit::new(2);
        let (f0, v0) = ac.adopt_commit(0, 5).unwrap();
        let (f1, v1) = ac.adopt_commit(1, 5).unwrap();
        assert!(f0.is_commit() && f1.is_commit());
        assert_eq!((v0, v1), (5, 5));
    }

    #[test]
    fn sequential_mixed_inputs_are_coherent() {
        // p0 runs alone and commits; p1 arriving later must adopt p0's value.
        let ac = AdoptCommit::new(2);
        let (f0, v0) = ac.adopt_commit(0, 1).unwrap();
        assert_eq!((f0, v0), (AcOutcome::Commit, 1));
        let (f1, v1) = ac.adopt_commit(1, 2).unwrap();
        assert_eq!(v1, 1, "p1 must adopt the committed value");
        assert_eq!(f1, AcOutcome::Adopt);
    }

    #[test]
    fn out_of_range_pid_rejected() {
        let ac: AdoptCommit<u8> = AdoptCommit::new(2);
        assert_eq!(ac.adopt_commit(5, 0), Err(ConsensusError::NotAPort { pid: 5 }));
    }

    #[test]
    fn double_call_rejected() {
        let ac = AdoptCommit::new(2);
        ac.adopt_commit(0, 1).unwrap();
        assert_eq!(ac.adopt_commit(0, 1), Err(ConsensusError::AlreadyProposed { pid: 0 }));
    }

    /// Coherence under real concurrency: if anyone commits `u`, everyone
    /// returns `u`.
    #[test]
    fn concurrent_coherence_stress() {
        for round in 0..200 {
            let n = 4;
            let ac = AdoptCommit::new(n);
            let results = Mutex::new(Vec::new());
            std::thread::scope(|s| {
                for pid in 0..n {
                    let ac = &ac;
                    let results = &results;
                    s.spawn(move || {
                        let input = (pid % 2) as u64 + round; // two distinct inputs
                        let out = ac.adopt_commit(pid, input).unwrap();
                        results.lock().unwrap().push(out);
                    });
                }
            });
            let results = results.into_inner().unwrap();
            let committed: Vec<u64> =
                results.iter().filter(|(f, _)| f.is_commit()).map(|(_, v)| *v).collect();
            if let Some(&u) = committed.first() {
                for (_, w) in &results {
                    assert_eq!(*w, u, "coherence violated in round {round}: {results:?}");
                }
            }
            // Validity: all outputs are inputs.
            for (_, w) in &results {
                assert!(*w == round || *w == round + 1, "validity violated: {w}");
            }
        }
    }

    #[test]
    fn convergence_stress_all_same_input() {
        for _ in 0..100 {
            let n = 6;
            let ac = AdoptCommit::new(n);
            let results = Mutex::new(Vec::new());
            std::thread::scope(|s| {
                for pid in 0..n {
                    let ac = &ac;
                    let results = &results;
                    s.spawn(move || {
                        results.lock().unwrap().push(ac.adopt_commit(pid, 9u8).unwrap());
                    });
                }
            });
            for (f, v) in results.into_inner().unwrap() {
                assert_eq!((f, v), (AcOutcome::Commit, 9), "convergence violated");
            }
        }
    }
}
