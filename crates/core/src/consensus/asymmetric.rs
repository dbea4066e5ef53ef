//! The `(y,x)`-live consensus object: wait-free for `X`, obstruction-free
//! for the rest.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use apc_progress_macros::progress;
use apc_registers::AtomicCell;

use crate::consensus::{Consensus, ObstructionFreeConsensus, ProposeOnce};
use crate::error::ConsensusError;
use crate::liveness::Liveness;

/// A real-thread `(y,x)`-live consensus object (§2 of the paper).
///
/// * Processes in the **wait-free set `X`** decide with one CAS and one read
///   on the decision slot — a bounded number of their own steps, no matter
///   what the other processes do.
/// * The **guests `Y \ X`** run the register-based round protocol
///   ([`ObstructionFreeConsensus`]) *among themselves* and install its
///   outcome into the decision slot with a CAS-from-`⊥`; they also return as
///   soon as any decision exists (the §2 remark). Their termination is
///   guaranteed when they run long enough in isolation — and not otherwise,
///   which is the entire point.
///
/// Agreement holds because the decision slot is written at most once;
/// validity holds because both paths only install proposed values.
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
    decision: AtomicCell<T>,
    guests: Option<ObstructionFreeConsensus<T>>,
    once: ProposeOnce,
    wait_free_proposals: AtomicU64,
    guest_proposals: AtomicU64,
}

impl<T: Clone + Eq + Send + Sync> AsymmetricConsensus<T> {
    /// Creates a `(y,x)`-live consensus object with the given specification.
    pub fn new(spec: Liveness) -> Self {
        let guest_spec = Liveness::obstruction_free(spec.guests()).ok();
        AsymmetricConsensus {
            spec,
            decision: AtomicCell::new(),
            guests: guest_spec.map(ObstructionFreeConsensus::new),
            once: ProposeOnce::new(),
            wait_free_proposals: AtomicU64::new(0),
            guest_proposals: AtomicU64::new(0),
        }
    }

    /// The liveness specification.
    pub fn spec(&self) -> Liveness {
        self.spec
    }

    /// Diagnostic: `(wait-free proposals, guest proposals)` seen so far.
    #[progress(wait_free)]
    pub fn path_stats(&self) -> (u64, u64) {
        // RELAXED: diagnostic counters; stale reads fine, nothing ordered.
        (
            self.wait_free_proposals.load(Ordering::Relaxed),
            self.guest_proposals.load(Ordering::Relaxed),
        )
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
        // RELAXED: diagnostic counter; decision safety comes from the slot.
        self.guest_proposals.fetch_add(1, Ordering::Relaxed);
        if let Some(d) = self.decision.load() {
            return Ok(Some(d));
        }
        // A guest pid implies a non-empty guest set; stay total anyway.
        let Some(inner) = self.guests.as_ref() else {
            return Err(ConsensusError::NotAPort { pid });
        };
        match inner.propose_bounded(pid, value, max_rounds)? {
            Some(w) => Ok(Some(self.decision.decide(w))),
            None => Ok(self.decision.load()),
        }
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
            // RELAXED: diagnostic counter; the decision slot's CAS carries
            // all the ordering the protocol needs.
            self.wait_free_proposals.fetch_add(1, Ordering::Relaxed);
            return Ok(self.decision.decide(value));
        }
        // Guest path: obstruction-free rounds among the guests, polling the
        // decision slot between rounds (§2 remark: as soon as any value is
        // decided, any process can decide the very same value).
        // RELAXED: diagnostic counter; see the wait-free arm above.
        self.guest_proposals.fetch_add(1, Ordering::Relaxed);
        if let Some(d) = self.decision.load() {
            return Ok(d);
        }
        // A guest pid implies a non-empty guest set; stay total anyway.
        let Some(inner) = self.guests.as_ref() else {
            return Err(ConsensusError::NotAPort { pid });
        };
        // APC-LINT: allow(progress): guest-pid branch only — VIP pids returned above; guests are obstruction-free by specification (y,x)-liveness
        let w = inner.propose_with_escape(pid, value, &|| self.decision.load())?;
        Ok(self.decision.decide(w))
    }

    #[progress(wait_free)]
    fn peek(&self) -> Option<T> {
        // Only the outer decision slot counts. An inner guest-protocol
        // decision that has not yet been installed must NOT be reported: a
        // wait-free proposal could still win the slot with a different
        // value, and peek must never contradict a later propose return.
        self.decision.load()
    }
}

impl<T: Clone + Eq + fmt::Debug> fmt::Debug for AsymmetricConsensus<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AsymmetricConsensus")
            .field("spec", &self.spec)
            .field("decided", &self.decision.load())
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
        assert_eq!(cons.path_stats(), (1, 0));
    }

    #[test]
    fn a_vip_decided_object_never_enters_the_guest_protocol() {
        // The wait-free class pays for its own assumptions only: no round
        // runs, so no round object and no segment is ever built.
        let cons = AsymmetricConsensus::new(Liveness::new_first_n(8, 2));
        assert_eq!(cons.propose(0, 1u32).unwrap(), 1);
        assert_eq!(cons.propose(5, 2).unwrap(), 1, "a guest arriving later learns it");
        assert_eq!(cons.guests.as_ref().unwrap().rounds_executed(), 0);
    }

    #[test]
    fn guest_alone_decides_its_value() {
        let cons = AsymmetricConsensus::new(Liveness::new_first_n(4, 2));
        assert_eq!(cons.propose(3, 30u32).unwrap(), 30);
        assert_eq!(cons.path_stats(), (0, 1));
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
    fn fully_wait_free_spec_has_no_guest_protocol() {
        let cons = AsymmetricConsensus::new(Liveness::new_first_n(3, 3));
        assert!(cons.guests.is_none());
        assert_eq!(cons.propose(2, 5u8).unwrap(), 5);
    }

    #[test]
    fn bounded_guest_gives_up_without_decision() {
        let cons = AsymmetricConsensus::new(Liveness::new_first_n(3, 1));
        assert_eq!(cons.propose_bounded(1, 7u32, 0).unwrap(), None);
        assert_eq!(cons.peek(), None);
    }

    #[test]
    fn bounded_wait_free_never_gives_up() {
        let cons = AsymmetricConsensus::new(Liveness::new_first_n(3, 1));
        assert_eq!(cons.propose_bounded(0, 7u32, 0).unwrap(), Some(7));
    }

    #[test]
    fn peek_surfaces_inner_guest_decision() {
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
