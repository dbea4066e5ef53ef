//! Fixture: **wait-free arms that reach the lock-free seal walk**. A VIP
//! commit promised bounded wait-freedom calls the log's `checkpoint`, and
//! a wait-free tail read reaches the sealing walk through an unannotated
//! helper. Both callees are only lock-free: a walker racing other sealers
//! may never place its seal, so an arm that waits on one is only
//! lock-free itself. No blocking primitive is anywhere in reach.
//!
//! The calls the class order allows are here too: the two wait-free
//! classes call each other (one level: steps are not counted), and a
//! lock-free fn calls a lock-free one.
//!
//! Never compiled — consumed by `tests/fixtures.rs` through
//! [`apc_lint::analyze_files`]. Expected findings: exactly two `progress`
//! violations (`Client::commit_vip → Log::checkpoint` and
//! `Client::tail → Client::settle → Log::place_seal`).

pub struct Log {
    cells: Vec<u64>,
}

impl Log {
    #[apc_progress_macros::progress(bounded_wait_free)]
    pub fn apply(&self, op: u64) -> u64 {
        self.replay() + op
    }

    #[apc_progress_macros::progress(wait_free)]
    fn replay(&self) -> u64 {
        self.next_cell()
    }

    #[apc_progress_macros::progress(bounded_wait_free)]
    fn next_cell(&self) -> u64 {
        self.cells.len() as u64
    }

    #[apc_progress_macros::progress(lock_free)]
    pub fn checkpoint(&self) -> u64 {
        self.place_seal()
    }

    #[apc_progress_macros::progress(lock_free)]
    fn place_seal(&self) -> u64 {
        self.cells.iter().sum()
    }
}

pub struct Client {
    log: Log,
}

impl Client {
    #[apc_progress_macros::progress(bounded_wait_free)]
    pub fn commit_vip(&self, op: u64) -> u64 {
        self.log.apply(op) + self.log.checkpoint()
    }

    #[apc_progress_macros::progress(wait_free)]
    pub fn tail(&self) -> u64 {
        self.settle()
    }

    fn settle(&self) -> u64 {
        self.log.place_seal()
    }
}
