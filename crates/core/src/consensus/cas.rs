//! Wait-free consensus from compare-and-swap.

use std::fmt;

use apc_progress_macros::progress;
use apc_registers::OnceBox;

use crate::consensus::{Consensus, ProposeOnce};
use crate::error::ConsensusError;
use crate::liveness::Liveness;

/// Wait-free consensus from a single compare-and-swap decision slot.
///
/// Compare-and-swap has consensus number ∞ (§1.1 of the paper, citing
/// Herlihy), so this object is wait-free for *all* its ports: it realizes a
/// `(y,y)`-live consensus object. It is the real-thread stand-in for the
/// paper's `(x,x)`-live base objects — e.g. the `XCONS` object inside the
/// arbiter (Figure 4) and the `GXCONS[g]` objects of the group algorithm
/// (Figure 5).
///
/// Every `propose` performs one CAS and one read: the first CAS wins; all
/// later proposals observe the winner. The slot is an
/// [`OnceBox`](apc_registers::OnceBox), never replaced once set, so
/// [`Consensus::peek_with`] borrows the decision with one load.
///
/// # Examples
///
/// ```
/// use apc_core::consensus::{CasConsensus, Consensus};
/// use apc_core::liveness::Liveness;
///
/// let cons = CasConsensus::new(Liveness::new_first_n(2, 2));
/// assert_eq!(cons.propose(0, "a").unwrap(), "a");
/// assert_eq!(cons.propose(1, "b").unwrap(), "a");
/// ```
pub struct CasConsensus<T> {
    spec: Liveness,
    /// The decision slot, set once by the first CAS.
    slot: OnceBox<T>,
    once: ProposeOnce,
}

impl<T> CasConsensus<T> {
    /// Creates a consensus object for the given port set.
    ///
    /// The wait-free set of `spec` is ignored in the sense that CAS gives
    /// wait-freedom to *everyone*; the ports are still enforced. (An object
    /// may always be *more* live than its specification.)
    pub fn new(spec: Liveness) -> Self {
        CasConsensus { spec, slot: OnceBox::new(), once: ProposeOnce::new() }
    }

    /// The liveness specification this object was declared with.
    pub fn spec(&self) -> Liveness {
        self.spec
    }
}

impl<T: Clone + Send + Sync> Consensus<T> for CasConsensus<T> {
    #[progress(wait_free)]
    fn propose(&self, pid: usize, value: T) -> Result<T, ConsensusError> {
        if !self.spec.is_port(pid) {
            return Err(ConsensusError::NotAPort { pid });
        }
        self.once.claim(pid)?;
        Ok(self.slot.decide(value).clone())
    }

    #[progress(wait_free)]
    fn peek(&self) -> Option<T> {
        self.slot.get().cloned()
    }

    #[progress(wait_free)]
    fn peek_with<R>(&self, f: impl FnOnce(Option<&T>) -> R) -> R {
        f(self.slot.get())
    }
}

impl<T: Clone + fmt::Debug> fmt::Debug for CasConsensus<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CasConsensus")
            .field("spec", &self.spec)
            .field("decided", &self.slot.get())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apc_model::history::{assert_consensus, ProposeRecord};
    use std::sync::Mutex;

    #[test]
    fn first_proposal_wins_sequentially() {
        let cons = CasConsensus::new(Liveness::new_first_n(3, 3));
        assert_eq!(cons.peek(), None);
        assert_eq!(cons.propose(1, 11).unwrap(), 11);
        assert_eq!(cons.propose(0, 22).unwrap(), 11);
        assert_eq!(cons.propose(2, 33).unwrap(), 11);
        assert_eq!(cons.peek(), Some(11));
    }

    #[test]
    fn non_port_rejected() {
        let cons = CasConsensus::new(Liveness::new_first_n(2, 2));
        assert_eq!(cons.propose(2, 5), Err(ConsensusError::NotAPort { pid: 2 }));
    }

    #[test]
    fn double_propose_rejected() {
        let cons = CasConsensus::new(Liveness::new_first_n(2, 2));
        cons.propose(0, 1).unwrap();
        assert_eq!(cons.propose(0, 2), Err(ConsensusError::AlreadyProposed { pid: 0 }));
    }

    #[test]
    fn concurrent_agreement_and_validity() {
        for round in 0..50 {
            let n = 8;
            let cons = CasConsensus::new(Liveness::new_first_n(n, n));
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
    fn spec_accessor() {
        let spec = Liveness::new_first_n(4, 4);
        let cons: CasConsensus<u8> = CasConsensus::new(spec);
        assert_eq!(cons.spec(), spec);
    }
}
