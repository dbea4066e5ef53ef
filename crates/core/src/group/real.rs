//! Group-based asymmetric consensus over threads (Figure 5, real form).

use std::fmt;

use apc_progress_macros::progress;
use apc_registers::OnceBox;

use crate::arbiter::{Arbiter, Role};
use crate::consensus::{CasConsensus, Consensus};
use crate::error::GroupError;
use crate::group::GroupLayout;
use crate::liveness::Liveness;

/// The consensus object of Figure 5: `n` processes, `(x,x)`-live consensus
/// objects and registers, guaranteeing the **group-based asymmetric progress
/// condition** (§6.2):
///
/// > If `y` is the first group with a participant and a correct process of
/// > group `y` participates, then every correct participating process
/// > decides.
///
/// Internally (all arrays 1-based in the paper, 0-based here):
///
/// * `GXCONS[g]` — an `(x,x)`-live consensus object per group (here:
///   [`CasConsensus`] restricted to the group's ports — CAS is how real
///   hardware provides small-cardinality wait-free consensus);
/// * `VAL[g]` — the value decided inside group `g`;
/// * `ARBITER[g]` — an arbiter owned by group `g`, guested by groups
///   `g+1..m`;
/// * `ARB_VAL[g]` — the value agreed by groups `g..m`; `ARB_VAL[1]` is the
///   final decision.
///
/// The paper's task `T2` (return as soon as `ARB_VAL[1] ≠ ⊥`) is realized
/// by threading an early-return check through every waiting point: the
/// operation returns the moment a final decision exists, even mid-cascade.
///
/// # Examples
///
/// ```
/// use apc_core::group::GroupConsensus;
///
/// // 4 processes, (2,2)-live objects → 2 groups.
/// let cons: GroupConsensus<u64> = GroupConsensus::new(4, 2).unwrap();
/// // A group-1 process participates and is correct → everyone decides.
/// assert_eq!(cons.propose(0, 10).unwrap(), 10);
/// assert_eq!(cons.propose(3, 40).unwrap(), 10);
/// ```
pub struct GroupConsensus<T> {
    layout: GroupLayout,
    /// `VAL[g]` at index `g-1`. Set once: every member of group `g` writes
    /// what `GXCONS[g]` decided, so every write carries the same value.
    val: Vec<OnceBox<T>>,
    /// `ARB_VAL[g]` at index `g-1`. Set once: it has several writers, but
    /// any two writes of an entry carry the same value (the §6.3 remark),
    /// so the first installs it and a later one finds it there.
    arb_val: Vec<OnceBox<T>>,
    /// `GXCONS[g]` at index `g-1`.
    gxcons: Vec<CasConsensus<T>>,
    /// `ARBITER[g]` at index `g-1` (length `m-1`).
    arbiters: Vec<Arbiter>,
}

impl<T: Clone + Eq + Send + Sync> GroupConsensus<T> {
    /// Creates the object for `n` processes using `(x,x)`-live consensus
    /// objects.
    ///
    /// # Errors
    ///
    /// Propagates [`GroupLayout::new`]'s validation errors.
    pub fn new(n: usize, x: usize) -> Result<Self, GroupError> {
        let layout = GroupLayout::new(n, x)?;
        let m = layout.m();
        let gxcons = (1..=m)
            .map(|g| {
                let spec = Liveness::wait_free(layout.members(g))
                    .expect("group member sets are non-empty");
                CasConsensus::new(spec)
            })
            .collect();
        let arbiters = (1..m).map(|g| Arbiter::new(layout.members(g))).collect();
        Ok(GroupConsensus {
            layout,
            val: (0..m).map(|_| OnceBox::new()).collect(),
            arb_val: (0..m).map(|_| OnceBox::new()).collect(),
            gxcons,
            arbiters,
        })
    }

    /// The group partition in use.
    pub fn layout(&self) -> GroupLayout {
        self.layout
    }

    /// The final decision, if one exists yet (`ARB_VAL[1]`).
    #[progress(wait_free)]
    pub fn peek(&self) -> Option<T> {
        OnceBox::get(&self.arb_val[0]).cloned()
    }

    /// The decision computed *inside* group `g`, if any (`VAL[g]`).
    ///
    /// # Panics
    ///
    /// Panics if `g` is not in `1..=m`.
    #[progress(wait_free)]
    pub fn group_value(&self, g: usize) -> Option<T> {
        assert!(g >= 1 && g <= self.layout.m());
        OnceBox::get(&self.val[g - 1]).cloned()
    }

    /// A snapshot of the full `ARB_VAL[1..m]` array — the paper's §6.3
    /// remark: "if needed by an application, the full array `ARB_VAL[1..m]`
    /// could be returned as result".
    ///
    /// Due to asynchrony, two processes may observe different arrays, but
    /// the remark's guarantees hold and are tested: entry 1 (index 0) is
    /// the common decision once set, and any two non-`⊥` observations of
    /// the same entry are equal.
    #[progress(wait_free)]
    pub fn arb_val_array(&self) -> Vec<Option<T>> {
        self.arb_val.iter().map(|cell| OnceBox::get(cell).cloned()).collect()
    }

    /// Spin-reads `cell` until non-`⊥`, with the task-`T2` escape: returns
    /// early if `ARB_VAL[1]` becomes set.
    ///
    /// The waits this helper implements are exactly the reads the paper's
    /// proofs show to be immediately satisfied (Lemma 10's case analysis) —
    /// the loop is defensive, the escape is `T2`.
    #[progress(blocking)]
    fn await_cell(&self, cell: &OnceBox<T>) -> Await<T> {
        loop {
            if let Some(v) = OnceBox::get(cell) {
                return Await::Value(v.clone());
            }
            if let Some(d) = self.peek() {
                return Await::FinalDecision(d);
            }
            std::hint::spin_loop();
            std::thread::yield_now();
        }
    }

    /// `propose(v)` — Figure 5.
    ///
    /// Blocks until a decision is available; the paper's asymmetric
    /// termination property states exactly when that is guaranteed. Returns
    /// the single decided value.
    ///
    /// # Errors
    ///
    /// * [`GroupError::UnknownProcess`] if `pid ≥ n`;
    /// * [`GroupError::AlreadyProposed`] on a second proposal by `pid`
    ///   (surfaced via the group's internal consensus object);
    /// * consensus/arbiter errors on protocol misuse.
    #[progress(blocking)]
    pub fn propose(&self, pid: usize, value: T) -> Result<T, GroupError> {
        if pid >= self.layout.n() {
            return Err(GroupError::UnknownProcess { pid });
        }
        let m = self.layout.m();
        // (01) let y = group(i).
        let y = self.layout.group_of(pid);

        // (02) VAL[y] ← GXCONS[y].propose(v_i).
        let val_y = match self.gxcons[y - 1].propose(pid, value) {
            Ok(v) => v,
            Err(crate::error::ConsensusError::AlreadyProposed { pid }) => {
                return Err(GroupError::AlreadyProposed { pid });
            }
            Err(e) => return Err(e.into()),
        };
        write_once(&self.val[y - 1], val_y.clone());

        // Competition #1 (lines 03–09): deposit into ARB_VAL[y].
        if y == m {
            // (03) last group: no competition below.
            write_once(&self.arb_val[m - 1], val_y);
        } else {
            // (04) winner ← ARBITER[y].arbitrate(owner).
            let winner = self.arbiters[y - 1]
                .arbitrate_cancelable(pid, Role::Owner, || self.peek().is_some())?;
            let Some(winner) = winner else {
                return Ok(self.peek().expect("cancel fires only on a final decision"));
            };
            if winner == Role::Owner {
                // (06) ARB_VAL[y] ← VAL[y].
                write_once(&self.arb_val[y - 1], val_y);
            } else {
                // (07) ARB_VAL[y] ← ARB_VAL[y+1] (non-⊥ by Lemma 10).
                match self.await_cell(&self.arb_val[y]) {
                    Await::Value(v) => write_once(&self.arb_val[y - 1], v),
                    Await::FinalDecision(d) => return Ok(d),
                }
            }
        }

        // Competition #2 (lines 10–18): cascade down to ARB_VAL[1].
        for level in (1..y).rev() {
            // (12) winner ← ARBITER[ℓ].arbitrate(guest).
            let winner = self.arbiters[level - 1]
                .arbitrate_cancelable(pid, Role::Guest, || self.peek().is_some())?;
            let Some(winner) = winner else {
                return Ok(self.peek().expect("cancel fires only on a final decision"));
            };
            let carried = if winner == Role::Guest {
                // (14) ARB_VAL[ℓ] ← ARB_VAL[ℓ+1] (we wrote it ourselves).
                self.await_cell(&self.arb_val[level])
            } else {
                // (15) ARB_VAL[ℓ] ← VAL[ℓ] (owner wrote it before arbitrating).
                self.await_cell(&self.val[level - 1])
            };
            match carried {
                Await::Value(v) => write_once(&self.arb_val[level - 1], v),
                Await::FinalDecision(d) => return Ok(d),
            }
        }

        // Task T2: wait(ARB_VAL[1] ≠ ⊥); return it. At this point the
        // cascade above has written it (y = 1 writes it in competition #1).
        match self.await_cell(&self.arb_val[0]) {
            Await::Value(v) | Await::FinalDecision(v) => Ok(v),
        }
    }
}

/// Writes a `VAL`/`ARB_VAL` entry: the first write installs `value`, and a
/// later one — which carries the same value, by the §6.3 remark — leaves it.
fn write_once<T: Eq>(cell: &OnceBox<T>, value: T) {
    if let Err(lost) = OnceBox::set(cell, value) {
        debug_assert!(
            OnceBox::get(cell) == Some(&lost),
            "two writes of a group register carried different values"
        );
    }
}

enum Await<T> {
    /// The awaited cell produced a value.
    Value(T),
    /// `ARB_VAL[1]` was set first: final decision available (task `T2`).
    FinalDecision(T),
}

impl<T: Clone + Eq + fmt::Debug> fmt::Debug for GroupConsensus<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GroupConsensus")
            .field("layout", &self.layout)
            .field("decision", &OnceBox::get(&self.arb_val[0]))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apc_model::history::{assert_consensus, ProposeRecord};
    use std::sync::Mutex;

    #[test]
    fn single_group_behaves_like_consensus() {
        let cons: GroupConsensus<u32> = GroupConsensus::new(3, 3).unwrap();
        assert_eq!(cons.layout().m(), 1);
        assert_eq!(cons.propose(1, 11).unwrap(), 11);
        assert_eq!(cons.propose(0, 22).unwrap(), 11);
        assert_eq!(cons.propose(2, 33).unwrap(), 11);
    }

    #[test]
    fn group_one_first_wins_sequentially() {
        let cons: GroupConsensus<u32> = GroupConsensus::new(4, 2).unwrap();
        assert_eq!(cons.propose(0, 100).unwrap(), 100);
        // Later processes of any group adopt group 1's value.
        assert_eq!(cons.propose(2, 300).unwrap(), 100);
        assert_eq!(cons.propose(3, 400).unwrap(), 100);
        assert_eq!(cons.peek(), Some(100));
    }

    #[test]
    fn last_group_alone_decides_its_value() {
        // Only group 2 participates: its value must be decided (fairness of
        // the algorithm: any process's value can win under some pattern).
        let cons: GroupConsensus<u32> = GroupConsensus::new(4, 2).unwrap();
        assert_eq!(cons.propose(3, 40).unwrap(), 40);
        assert_eq!(cons.group_value(2), Some(40));
        assert_eq!(cons.peek(), Some(40));
    }

    #[test]
    fn middle_group_alone_decides() {
        let cons: GroupConsensus<u32> = GroupConsensus::new(6, 2).unwrap(); // 3 groups
        assert_eq!(cons.propose(2, 33).unwrap(), 33);
        assert_eq!(cons.peek(), Some(33));
    }

    #[test]
    fn unknown_process_rejected() {
        let cons: GroupConsensus<u8> = GroupConsensus::new(2, 1).unwrap();
        assert!(matches!(cons.propose(5, 0), Err(GroupError::UnknownProcess { pid: 5 })));
    }

    #[test]
    fn double_propose_rejected() {
        let cons: GroupConsensus<u8> = GroupConsensus::new(2, 1).unwrap();
        cons.propose(1, 1).unwrap();
        assert!(matches!(cons.propose(1, 2), Err(GroupError::AlreadyProposed { pid: 1 })));
    }

    #[test]
    fn concurrent_all_participate_agreement() {
        for round in 0..30 {
            let n = 6;
            let cons: GroupConsensus<u64> = GroupConsensus::new(n, 2).unwrap();
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
    fn concurrent_suffix_groups_agreement() {
        // Only groups 2 and 3 participate; the first participating group's
        // correctness guarantees termination; everyone agrees.
        for _ in 0..30 {
            let n = 6;
            let cons: GroupConsensus<u64> = GroupConsensus::new(n, 2).unwrap();
            let records = Mutex::new(Vec::new());
            std::thread::scope(|s| {
                for pid in 2..n {
                    let cons = &cons;
                    let records = &records;
                    s.spawn(move || {
                        let proposed = pid as u64 * 7;
                        let returned = cons.propose(pid, proposed).unwrap();
                        records.lock().unwrap().push(ProposeRecord { pid, proposed, returned });
                    });
                }
            });
            let records = records.into_inner().unwrap();
            assert_eq!(records.len(), 4);
            assert_consensus(&records);
        }
    }

    #[test]
    fn fairness_any_group_value_can_win() {
        // For each group g, a pattern exists where g's value is decided:
        // schedule only group g (run its member alone first).
        for g in 1..=3usize {
            let cons: GroupConsensus<u64> = GroupConsensus::new(6, 2).unwrap();
            let pid = (g - 1) * 2;
            let got = cons.propose(pid, 1000 + g as u64).unwrap();
            assert_eq!(got, 1000 + g as u64, "group {g}'s value wins when it runs first");
        }
    }

    /// The §6.3 remark: the full ARB_VAL array is coherent — entry 1 is the
    /// decision, and concurrent observers never see conflicting non-⊥
    /// entries.
    #[test]
    fn arb_val_array_coherent() {
        for _ in 0..20 {
            let n = 6;
            let cons: GroupConsensus<u64> = GroupConsensus::new(n, 2).unwrap();
            let arrays = Mutex::new(Vec::new());
            std::thread::scope(|s| {
                for pid in 0..n {
                    let cons = &cons;
                    let arrays = &arrays;
                    s.spawn(move || {
                        let decided = cons.propose(pid, pid as u64).unwrap();
                        let snapshot = cons.arb_val_array();
                        arrays.lock().unwrap().push((decided, snapshot));
                    });
                }
            });
            let arrays = arrays.into_inner().unwrap();
            for (decided, snapshot) in &arrays {
                // Entry 1 is set by the time any propose returns, and equals
                // the decision.
                assert_eq!(snapshot[0].as_ref(), Some(decided));
            }
            // Pairwise: non-⊥ entries agree across observers.
            for i in 0..arrays.len() {
                for j in i + 1..arrays.len() {
                    for (a, b) in arrays[i].1.iter().zip(arrays[j].1.iter()) {
                        if let (Some(a), Some(b)) = (a, b) {
                            assert_eq!(a, b, "ARB_VAL entries must agree when both set");
                        }
                    }
                }
            }
        }
    }

    /// The set-once registers hold the §6.3 remark to account: a second
    /// write of an entry with a different value is a bug, not a race.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "two writes of a group register carried different values")]
    fn a_second_different_write_to_a_group_register_panics() {
        let cons: GroupConsensus<u32> = GroupConsensus::new(4, 2).unwrap();
        write_once(&cons.arb_val[1], 7);
        write_once(&cons.arb_val[1], 7);
        assert_eq!(cons.arb_val_array(), vec![None, Some(7)]);
        write_once(&cons.arb_val[1], 8);
    }

    #[test]
    fn singleton_groups_x_equals_one() {
        let cons: GroupConsensus<u32> = GroupConsensus::new(3, 1).unwrap();
        assert_eq!(cons.layout().m(), 3);
        assert_eq!(cons.propose(1, 20).unwrap(), 20);
        assert_eq!(cons.propose(2, 30).unwrap(), 20);
        assert_eq!(cons.propose(0, 10).unwrap(), 20);
    }
}
