//! Consensus objects under symmetric and asymmetric progress conditions.
//!
//! | Type | Progress | Base objects |
//! |------|----------|--------------|
//! | [`CasConsensus`] | wait-free (`(y,y)`-live) | compare-and-swap |
//! | [`ObstructionFreeConsensus`] | obstruction-free (`(y,0)`-live) | registers only |
//! | [`AsymmetricConsensus`] | `(y,x)`-live | CAS for `X`, registers + CAS decision slot for guests |
//! | [`AdoptCommit`] | wait-free (not consensus — the safety half) | registers only |
//!
//! The asymmetric object realizes the paper's definition directly: processes
//! in `X` decide in a bounded number of their own steps no matter what; the
//! remaining ports run a register-based round protocol that terminates when
//! they run long enough in isolation (or as soon as any decision exists —
//! the paper's remark in §2).

mod adopt_commit;
mod asymmetric;
mod cas;
mod obstruction_free;

pub mod model;

pub use adopt_commit::{AcOutcome, AdoptCommit};
pub use asymmetric::AsymmetricConsensus;
pub use cas::CasConsensus;
pub use obstruction_free::ObstructionFreeConsensus;

use crate::error::ConsensusError;

/// A single-shot consensus object: each port proposes at most once; every
/// completed `propose` returns the single decided value.
///
/// Implementations must be linearizable and satisfy (§2):
///
/// * **Validity** — the decision is some process's proposal;
/// * **Agreement** — all `propose` calls return the same value;
/// * the termination guarantee of the object's [`crate::liveness::Liveness`]
///   specification.
pub trait Consensus<T>: Send + Sync {
    /// Proposes `value` as process `pid`; returns the decided value.
    ///
    /// # Errors
    ///
    /// * [`ConsensusError::NotAPort`] if `pid` is not a port;
    /// * [`ConsensusError::AlreadyProposed`] on a second proposal by `pid`.
    fn propose(&self, pid: usize, value: T) -> Result<T, ConsensusError>;

    /// The decided value, if any process has already decided.
    ///
    /// The paper (§2, remark): "as soon as a value has been decided by a
    /// process, any process can decide the very same value."
    fn peek(&self) -> Option<T>;

    /// Answers `f` from the decided value **without cloning it**: `f`
    /// borrows the decision (`None` while undecided) and returns what it
    /// needs of it. The default answers from [`Consensus::peek`]'s clone;
    /// the objects of this module lend out their decision slot, which is
    /// never replaced once set, so the borrow costs one load.
    #[apc_progress_macros::progress(wait_free)]
    fn peek_with<R>(&self, f: impl FnOnce(Option<&T>) -> R) -> R
    where
        Self: Sized,
    {
        f(self.peek().as_ref())
    }
}

/// Tracks the at-most-once `propose` discipline for up to 64 ports.
#[derive(Debug, Default)]
pub(crate) struct ProposeOnce {
    mask: std::sync::atomic::AtomicU64,
}

impl ProposeOnce {
    pub(crate) fn new() -> Self {
        ProposeOnce { mask: std::sync::atomic::AtomicU64::new(0) }
    }

    /// Registers a proposal by `pid`.
    ///
    /// # Errors
    ///
    /// Returns [`ConsensusError::AlreadyProposed`] if `pid` already proposed.
    #[apc_progress_macros::progress(wait_free)]
    pub(crate) fn claim(&self, pid: usize) -> Result<(), ConsensusError> {
        debug_assert!(pid < 64);
        let bit = 1u64 << pid;
        let prev = self.mask.fetch_or(bit, std::sync::atomic::Ordering::AcqRel);
        if prev & bit != 0 {
            Err(ConsensusError::AlreadyProposed { pid })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn propose_once_allows_first_claim_only() {
        let once = ProposeOnce::new();
        assert!(once.claim(3).is_ok());
        assert_eq!(once.claim(3), Err(ConsensusError::AlreadyProposed { pid: 3 }));
        assert!(once.claim(4).is_ok());
    }

    #[test]
    fn propose_once_is_independent_across_pids() {
        let once = ProposeOnce::new();
        for pid in 0..64 {
            assert!(once.claim(pid).is_ok());
        }
        for pid in 0..64 {
            assert!(once.claim(pid).is_err());
        }
    }
}
