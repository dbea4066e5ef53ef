//! The announce-and-help universal construction (Herlihy [7]), extended
//! with **seal cells**.
//!
//! **One walk, one handle.** An [`OwnedHandle`] does one thing to the log:
//! make sure the cell at its cursor is decided (`decide_current_cell`,
//! helping rule included) and absorb the agreed record (`absorb`). Absorbing
//! borrows the record where the cell's decision slot holds it — no clone,
//! no count — applies its operation if there is one, notes it in
//! `applied`, moves the cursor, and raises the tail if the record seals a
//! state. Only the walker's own operation is applied with
//! [`SequentialSpec::apply`], for the response it is waiting on; every other
//! record is *replayed* ([`SequentialSpec::replay`]) for its effect on the
//! replica alone, so a lagging replica pays one state change per foreign
//! write and builds no response for it. `apply`, `sync_read` and the
//! sealing walk (`place_seal`, behind `checkpoint` and `reconfigure`) are
//! loops over that step which differ only in what they propose and when
//! they stop, so what a cell does to a replica cannot depend on which of
//! them crossed it.
//!
//! Seals ride the same consensus path as operations: any port may propose
//! a [`SealRecord`] — its fully-replayed state, after an operation of its
//! own (a reconfiguration) or none (a checkpoint) — into the next free
//! cell. Once a seal is agreed, it changes nothing for replicas that
//! absorb it (by determinism its sealed state equals their replica past
//! the cell), but it becomes the **anchor** for everyone arriving later:
//! fresh handles bootstrap from the latest published seal and replay only
//! the suffix after it, so handle creation costs O(delta) instead of
//! O(history), and the sealed prefix of the log becomes *reclaimable*. The
//! anchor has one writer at a time: the walker whose `checkpoint` or
//! `reconfigure` returns a seal publishes it, under a `try_lock` that
//! skips a contended publish (the next seal publishes). A walker that only
//! crosses a seal leaves the anchor alone.
//!
//! **The log is a chain of segments.** A segment is `SEGMENT_CELLS` (64)
//! consensus objects in one allocation, built whole by the first handle to
//! step past the segment before it, and linked to its successor by a
//! set-once link (a CAS from `⊥`, as `Rounds` builds its round segments in
//! `apc-core`). A cursor is a segment and the absolute index of a cell in
//! it: moving to the next cell inside a segment is an index increment, with
//! no `Arc` clone and no drop; only a boundary crossing
//! touches the link.
//!
//! **A replica is shared until written.** A handle's state is an
//! `Arc`: a new handle shares the anchor's, a checkpoint seals the
//! walker's own (no copy), and `absorb` writes through `Arc::make_mut`
//! once per cell that carries an operation, so the first write after a
//! share copies the state and every later one finds it its own.
//!
//! **Reclaiming is re-basing.** A segment is freed when the last `Arc` to
//! it goes, and every handle's cursor — and the anchor — pins its segment,
//! so up to 63 cells before the cursor, and, through the links, every
//! segment after it. A handle that walks keeps moving its pin forward; one
//! that goes idle behind the anchor would keep the whole prefix from its
//! segment on alive. [`OwnedHandle::rebase`], an admin step, moves such a
//! handle onto the anchor — segment, index, `applied` and state, the state
//! shared — and hands back what it let go of, to be dropped where the free
//! burst belongs. So memory = cells since the slowest cursor still in use
//! × bytes per cell + one replica per handle that wrote since the anchor
//! it shares (the anchor's own state counts once). An object nobody
//! checkpoints still retains every cell it agreed on: a store commit never
//! seals on its own, so a store bounds its shards with a seal cadence, an
//! admin step that checkpoints a shard whose log holds `SEAL_EVERY` cells
//! past its anchor and that a store server runs on a thread of its own.
//! A handle whose owner keeps it from being re-based and leaves it idle (a
//! store's admitted VIP) still pins every cell from its segment on (ROADMAP
//! item 9). The bytes per cell are a cell's share of its segment
//! plus its agreed record, which with the store's `(n,x)`-live cells is
//! the same whichever class decided the cell: the last guest out of a
//! cell's round protocol frees it once the cell is decided.
//! For a one-op write that is 40 B of segment (1/64 of ~2.6 KB) and the
//! record's box, the batch's ops slice and its key: ~176 requested bytes
//! in 3 + 1/64 allocations, and a retired cell frees as many. For the
//! store a replica is keys × ~21 B per 8-byte key in a full leaf of its
//! packed map (~72 B in the `BTreeMap<String, u64>` it replaced), and the
//! copy a first write makes of a shared one is a few `memcpy`s per 64
//! keys.
//! `tests/alloc_budget.rs` holds the per-unit figures.
//!
//! An announcement lives only until its owner's next one: the
//! announcements are [`HazardSlots`], one single-writer slot per pid,
//! which a helper reads under its own handle's hazard pointer (one store,
//! one re-load, one clear), and an owner that announces frees what it
//! displaced unless a helper's hazard holds it — then its next announcement
//! does. Nothing is deferred to an epoch, and nothing is locked.
//!
//! Progress: operation placement keeps its original guarantee (wait-free
//! for the factory's wait-free set via the helping rule, obstruction-free
//! otherwise). Seal placement is **lock-free** for every port — seals are
//! not announced, so nobody helps them, but each failed placement attempt
//! means some other record committed instead (system-wide progress). Seal
//! proposers still obey the helping rule, so they never undermine the
//! wait-free bound of the privileged set.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use apc_core::consensus::Consensus;
use apc_core::error::ConsensusError;
use apc_progress_macros::progress;
use apc_registers::{HazardSlots, OnceArc, SlotClaim};

use crate::factory::ConsensusFactory;
use crate::seq::SequentialSpec;

/// Errors of the universal object.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum UniversalError {
    /// The process index is not a port of the underlying consensus spec.
    NotAPort {
        /// The offending process index.
        pid: usize,
    },
    /// A handle for this process was already taken (one handle per process).
    HandleTaken {
        /// The offending process index.
        pid: usize,
    },
    /// The handle does not hold this process: it is neither the handle's
    /// own pid nor its voice ([`OwnedHandle::apply_as`]).
    NotHeld {
        /// The offending process index.
        pid: usize,
    },
}

impl fmt::Display for UniversalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UniversalError::NotAPort { pid } => {
                write!(f, "process {pid} is not a port of the universal object")
            }
            UniversalError::HandleTaken { pid } => {
                write!(f, "a handle for process {pid} already exists")
            }
            UniversalError::NotHeld { pid } => {
                write!(f, "this handle does not hold process {pid}")
            }
        }
    }
}

impl std::error::Error for UniversalError {}

/// An operation stamped with its invoker and per-invoker sequence number.
///
/// Appears inside [`LogRecord`]; its fields are an implementation detail.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OpRecord<O> {
    pid: u8,
    seq: u64,
    op: O,
}

/// An agreed **seal**: the object state at a log index, with or without an
/// operation applied just before it.
///
/// A seal without an operation is a **checkpoint**: its `state` is exactly
/// the result of replaying the cells before it. A seal with one is a
/// **reconfiguration**, the topology-bump record of service layers: its
/// operation is applied through the ordinary spec at the cell's position in
/// the log, and `state` is the state after it. Either way the sealed state
/// is what a replica holds once it has absorbed the cell, so it becomes the
/// bootstrap anchor. One cell for both is what makes a live reconfiguration
/// linearizable in one step: the proposer learns exactly which operations
/// committed before the bump — the sealed state — and every replica applies
/// the bump at the same log index.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SealRecord<O, T> {
    pid: u8,
    /// The operation's sequence number of `pid` (0 without an operation).
    seq: u64,
    /// The operation applied before the seal, through the ordinary spec.
    op: Option<O>,
    /// The state after the cell. Proposed speculatively from the
    /// proposer's replayed state; correct whenever the record is the one
    /// agreed (the proposer's cursor state *is* the agreed prefix state, and
    /// `apply` is deterministic). `Arc`-shared: the seal is immutable once
    /// proposed, and consensus cells clone records on every propose/peek —
    /// sharing keeps those clones O(1) instead of O(state size).
    state: Arc<T>,
}

impl<O, T> SealRecord<O, T> {
    /// The operation applied before the seal; `None` for a checkpoint.
    pub fn op(&self) -> Option<&O> {
        self.op.as_ref()
    }

    /// The sealed state.
    pub fn state(&self) -> &T {
        &self.state
    }
}

/// The value one log cell agrees on: an operation, or a seal.
///
/// This is the value type of the [`ConsensusFactory`] bound of
/// [`Universal`] (see [`LogRecordOf`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LogRecord<O, T> {
    /// A client operation (the common case).
    Op(OpRecord<O>),
    /// A sealed state, after an operation or not (see [`SealRecord`]).
    Seal(SealRecord<O, T>),
}

/// The record type agreed on by each log cell for spec `S`.
pub type LogRecordOf<S> = LogRecord<<S as SequentialSpec>::Op, <S as SequentialSpec>::State>;

/// A per-process announcement: "my operation `seq` is `op`, please help".
#[derive(Clone, PartialEq, Eq, Debug)]
struct Announce<O> {
    seq: u64,
    op: O,
}

/// Cells per log segment.
const SEGMENT_CELLS: usize = 64;

/// Where log cell `index` sits in its segment. Segments are aligned to
/// absolute indices, so a log recovered mid-segment starts part-way into
/// its first one.
fn offset(index: u64) -> usize {
    (index % SEGMENT_CELLS as u64) as usize
}

/// `SEGMENT_CELLS` consecutive cells of the operation log, and the link to
/// the segment after them.
struct Segment<C> {
    cells: [C; SEGMENT_CELLS],
    next: OnceArc<Segment<C>>,
}

impl<C> Segment<C> {
    fn new(mut create: impl FnMut() -> C) -> Self {
        Segment { cells: std::array::from_fn(|_| create()), next: OnceArc::new() }
    }
}

impl<C> Drop for Segment<C> {
    fn drop(&mut self) {
        // Unlink the tail iteratively: once a checkpoint retires a long
        // prefix, the naive recursive drop (segment 0 drops segment 1 drops
        // …) would overflow the stack. Each hop either owns the next
        // segment alone (takes its link and keeps walking) or stops at a
        // segment someone else still references.
        let mut cur = self.next.take_mut();
        while let Some(mut segment) = cur {
            cur = Arc::get_mut(&mut segment).and_then(|s| s.next.take_mut());
        }
    }
}

/// The latest published seal: where fresh handles bootstrap. Its log
/// index is [`Universal`]'s `anchor_index`.
struct Anchor<T, C> {
    state: Arc<T>,
    applied: Vec<u64>,
    /// The segment holding the cell at the anchor's index.
    segment: Arc<Segment<C>>,
}

/// A linearizable shared object built from a sequential specification and a
/// consensus factory (see the crate docs).
///
/// Operations go through per-process [`OwnedHandle`]s (one per process
/// index), which carry the replayed local copy of the state.
pub struct Universal<S, F>
where
    S: SequentialSpec,
    F: ConsensusFactory<LogRecordOf<S>>,
{
    spec: S,
    factory: F,
    n: usize,
    /// Each process's latest announcement, one single-writer slot per pid,
    /// written by the handle that holds the pid and read by every handle
    /// under its own hazard pointer. Its claims are the handles: a pid's
    /// slot is claimed once, by the handle made for it.
    announce: HazardSlots<Announce<S::Op>>,
    /// Latest published seal (initially the empty prefix at the head).
    /// Written only by a walker whose `checkpoint` or `reconfigure` returned
    /// a seal, and read only by [`Universal::owned_handle`]. Monotone in
    /// `anchor_index`.
    anchor: Mutex<Anchor<S::State, F::Object>>,
    /// The anchor's log index: the first cell a bootstrapping replay
    /// consumes. Stored under `anchor`'s lock, and loaded without it by
    /// [`Universal::anchor_index`].
    anchor_index: AtomicU64,
    /// A log index every cell below which is decided, and past every cell
    /// whose effect a caller has been shown. Raised to the walker's cursor
    /// once per call, not per cell: by [`OwnedHandle::apply`] before it
    /// returns its response, and by `absorb` for every seal it crosses —
    /// which is how `reconfigure` and `checkpoint` raise it before they
    /// publish the anchor and return. So **every response or publication
    /// that depends on cell `i` happens after `tail > i`**, and whenever
    /// none of its operations is running, a handle's cursor is at most
    /// `tail`. This is what [`OwnedHandle::sync_read`] catches up to.
    tail: AtomicU64,
}

impl<S, F> Universal<S, F>
where
    S: SequentialSpec,
    F: ConsensusFactory<LogRecordOf<S>>,
{
    /// Creates a universal object for `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > 64`.
    pub fn new(spec: S, factory: F, n: usize) -> Self {
        let init = spec.init();
        Self::recovered(spec, factory, n, init, 0)
    }

    /// Creates a universal object whose log *starts* at `index` with the
    /// given `state` — the recovery constructor.
    ///
    /// The cells `[0, index)` are not materialized: the object behaves as if
    /// a checkpoint sealing `state` had been agreed at `index`, so fresh
    /// handles begin replay there. This is how a persistence layer rebuilds
    /// an object from a durable snapshot taken at log index `index`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > 64`.
    pub fn recovered(
        spec: S,
        factory: F,
        n: usize,
        state: impl Into<Arc<S::State>>,
        index: u64,
    ) -> Self {
        assert!((1..=64).contains(&n), "n must be in 1..=64");
        let head = Arc::new(Segment::new(|| factory.create()));
        let anchor = Anchor { state: state.into(), applied: vec![0; n], segment: head };
        Universal {
            spec,
            factory,
            n,
            announce: HazardSlots::new(n),
            anchor: Mutex::new(anchor),
            anchor_index: AtomicU64::new(index),
            tail: AtomicU64::new(index),
        }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Log index of the latest published seal (the log's first index if none
    /// was ever published): where a fresh handle starts replaying.
    #[progress(wait_free)]
    pub fn anchor_index(&self) -> u64 {
        self.anchor_index.load(Ordering::Acquire)
    }

    /// The log's published tail: every cell below it is decided, and every
    /// response or seal shown so far depends only on cells below it. It is
    /// what [`OwnedHandle::sync_read`] catches up to, so a handle whose
    /// [`OwnedHandle::replayed_cells`] trails it by `k` would replay `k`
    /// cells in its next read. One load; monotone.
    #[progress(wait_free)]
    pub fn tail(&self) -> u64 {
        self.tail.load(Ordering::Acquire)
    }

    /// Takes the (unique) handle for process `pid`: claims the port bit and
    /// starts the handle's replica at the latest published seal, read under
    /// the anchor's lock and shared with the anchor until the handle first
    /// writes (the admin path: a store makes every handle when it builds a
    /// shard). The handle keeps the object alive through an
    /// [`Arc`], so it can be stored next to (or instead of) the object
    /// without borrowing it, e.g. in a pool of per-port slots.
    ///
    /// # Errors
    ///
    /// * [`UniversalError::NotAPort`] if `pid` is not a port of the
    ///   factory's liveness spec;
    /// * [`UniversalError::HandleTaken`] if the handle was already taken.
    #[progress(blocking)]
    pub fn owned_handle(self: &Arc<Self>, pid: usize) -> Result<OwnedHandle<S, F>, UniversalError> {
        self.owned_pair(pid, pid)
    }

    /// Takes one handle for **two** processes run one after the other by
    /// the same owner: `pid` and its `voice`. Both bits are claimed at once
    /// (or neither), and the two share one cursor, one replica and one
    /// `applied` vector, so no cell is ever absorbed twice on the owner's
    /// side. [`OwnedHandle::apply`] acts as `pid`,
    /// [`OwnedHandle::apply_as`] as either; each keeps its own sequence
    /// number and proposes under its own pid, so each keeps its own class
    /// of the factory's liveness spec. `owned_pair(p, p)` is
    /// `owned_handle(p)`.
    ///
    /// # Errors
    ///
    /// As [`Universal::owned_handle`], for whichever of the two fails
    /// first.
    #[progress(blocking)]
    pub fn owned_pair(
        self: &Arc<Self>,
        pid: usize,
        voice: usize,
    ) -> Result<OwnedHandle<S, F>, UniversalError> {
        if let Some(&pid) =
            [pid, voice].iter().find(|&&p| p >= self.n || !self.factory.spec().is_port(p))
        {
            return Err(UniversalError::NotAPort { pid });
        }
        let claim = self
            .announce
            .claim(&[pid, voice])
            .map_err(|pid| UniversalError::HandleTaken { pid })?;
        let anchor = self.anchor.lock().unwrap_or_else(PoisonError::into_inner);
        Ok(OwnedHandle {
            obj: Arc::clone(self),
            pid,
            seq: 0,
            voice,
            voice_seq: 0,
            claim,
            segment: Arc::clone(&anchor.segment),
            cell_index: self.anchor_index.load(Ordering::Acquire),
            state: Arc::clone(&anchor.state),
            applied: anchor.applied.clone(),
            steps: 0,
        })
    }
}

impl<S, F> fmt::Debug for Universal<S, F>
where
    S: SequentialSpec,
    F: ConsensusFactory<LogRecordOf<S>>,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Universal")
            .field("n", &self.n)
            .field("anchor_index", &self.anchor_index())
            .finish()
    }
}

/// What [`OwnedHandle::absorb`] crossed.
struct Absorbed<R, T> {
    /// The author and sequence number of the cell's operation; `None` if
    /// the cell carried none (a checkpoint).
    author: Option<(usize, u64)>,
    /// The state the cell sealed, if it sealed one.
    seal: Option<Arc<T>>,
    /// Log index of the absorbed cell.
    index: u64,
    /// The walker's own operation, answered at this cell; `None` for every
    /// other record, which is replayed and not answered.
    resp: Option<R>,
}

/// A per-process handle on a [`Universal`] object, created by
/// [`Universal::owned_handle`].
///
/// Holds the process's replay cursor and local state copy, and co-owns the
/// object through an [`Arc`], so it can be stored in long-lived structures
/// (port pools, per-client sessions) without a borrow. `apply` is
/// linearizable across handles, with the progress condition of the
/// underlying consensus factory (wait-free for the factory's wait-free set,
/// obstruction-free for the rest). A handle made by
/// [`Universal::owned_pair`] holds two processes, each committing under its
/// own pid and class, over the one replica.
pub struct OwnedHandle<S, F>
where
    S: SequentialSpec,
    F: ConsensusFactory<LogRecordOf<S>>,
{
    obj: Arc<Universal<S, F>>,
    pid: usize,
    /// Sequence number of my most recent operation.
    seq: u64,
    /// The second process this handle acts as ([`Universal::owned_pair`]);
    /// `pid` itself for a handle of one process.
    voice: usize,
    /// Sequence number of the voice's most recent operation.
    voice_seq: u64,
    /// The right to announce as `pid` and `voice`, and to read
    /// announcements under `pid`'s hazard pointer.
    claim: SlotClaim,
    /// The segment holding the cursor cell, `cell_index`.
    segment: Arc<Segment<F::Object>>,
    /// Absolute log index of the cursor: the next undecided-or-unapplied
    /// cell.
    cell_index: u64,
    /// Local replayed state, shared until written: with the anchor it
    /// started or was re-based at, or with the seals it proposed. `absorb`
    /// writes through [`Arc::make_mut`], so the first write after a share
    /// copies and every later one finds the replica its own.
    state: Arc<S::State>,
    /// `applied[p]` = highest sequence number of `p` applied so far.
    applied: Vec<u64>,
    /// Log cells this handle consumed itself (excludes the checkpointed
    /// prefix it bootstrapped from) — the replay-work meter.
    steps: u64,
}

impl<S, F> OwnedHandle<S, F>
where
    S: SequentialSpec,
    F: ConsensusFactory<LogRecordOf<S>>,
{
    /// The process this handle belongs to.
    pub fn pid(&self) -> usize {
        self.pid
    }

    /// Applies `op` to the shared object, returning its response at its
    /// linearization point.
    ///
    /// Progress: wait-free if `pid` is in the factory's wait-free set
    /// (placement within ~2·n cells by the helping rule); otherwise
    /// obstruction-free.
    #[progress(bounded_wait_free)]
    pub fn apply(&mut self, op: S::Op) -> S::Resp {
        self.seq += 1;
        self.commit(self.pid, self.seq, op)
    }

    /// [`Self::apply`] as process `pid`, which must be this handle's own
    /// pid or its voice ([`Universal::owned_pair`]): `op` is announced and
    /// proposed as `pid`, under `pid`'s own sequence number, so it has
    /// `pid`'s class of the factory's liveness spec. The walk is the same
    /// one, on the same replica, whichever pid acts.
    ///
    /// # Errors
    ///
    /// [`UniversalError::NotHeld`] if the handle does not hold `pid`;
    /// nothing is announced or proposed then.
    #[progress(bounded_wait_free)]
    pub fn apply_as(&mut self, pid: usize, op: S::Op) -> Result<S::Resp, UniversalError> {
        let seq = if pid == self.pid {
            &mut self.seq
        } else if pid == self.voice {
            &mut self.voice_seq
        } else {
            return Err(UniversalError::NotHeld { pid });
        };
        *seq += 1;
        let seq = *seq;
        Ok(self.commit(pid, seq, op))
    }

    /// The body of [`Self::apply`] and [`Self::apply_as`]: announces `op`
    /// as operation `seq` of `pid`, a process this handle holds, and walks
    /// until it is answered.
    fn commit(&mut self, pid: usize, seq: u64, op: S::Op) -> S::Resp {
        let me = (pid, seq);
        self.obj.announce.store(&mut self.claim, pid, Announce { seq, op: op.clone() });
        loop {
            self.decide_current_cell(pid, |_| {
                LogRecord::Op(OpRecord { pid: pid as u8, seq, op: op.clone() })
            });
            if let Some(Absorbed { resp: Some(resp), .. }) = self.absorb(Some(me)) {
                self.raise_tail();
                return resp;
            }
        }
    }

    /// Applies `op` **and** seals the post-op state in a single agreed
    /// [`SealRecord`] cell, returning the cell's log index and the op's
    /// response at its linearization point.
    ///
    /// This is the live-reconfiguration primitive: the op observes exactly
    /// the operations that committed before the bump, every replica applies
    /// it at the same log index, and fresh handles bootstrap from the sealed
    /// post-state (the cell doubles as a checkpoint anchor, which this call
    /// publishes as [`Self::checkpoint`] does). It stops at its own seal.
    ///
    /// Progress: lock-free, as [`Self::checkpoint`].
    #[progress(lock_free)]
    pub fn reconfigure(&mut self, op: S::Op) -> (u64, S::Resp) {
        self.place_seal(Some(op), |resp| resp)
    }

    /// Seals this handle's fully-replayed state into a checkpoint cell —
    /// a [`SealRecord`] without an operation — agreed through the same
    /// consensus path as operations; returns the log index of the
    /// checkpoint cell.
    ///
    /// After agreement this call publishes the seal as the anchor (unless
    /// it finds the anchor's lock held, and skips the publish): fresh
    /// handles bootstrap from it and replay only the post-checkpoint suffix
    /// (O(delta) instead of O(history)), and the pre-checkpoint cells
    /// become reclaimable. It stops at the first checkpoint agreed at its
    /// cursor, whoever proposed it.
    ///
    /// Progress: lock-free. Seals are not announced, so nobody helps them,
    /// but each failed placement attempt is another port's record
    /// committing; the walk absorbs it and re-seals at the next index, so
    /// the sealed state stays exact. The proposer still obeys the helping
    /// rule, so it never undermines the wait-free bound of the privileged
    /// set.
    #[progress(lock_free)]
    pub fn checkpoint(&mut self) -> u64 {
        self.place_seal(None, |_| Some(())).0
    }

    /// **The sealing walk**, the body of [`Self::checkpoint`] (`op` is
    /// `None`) and [`Self::reconfigure`]: wherever the helping rule leaves
    /// the cursor cell to it, proposes a [`SealRecord`] of this replica
    /// after `op`; absorbs whatever the cell agreed; and stops at the first
    /// seal whose operation is its own — for a reconfiguration its own seal,
    /// for a checkpoint any seal without an operation, whoever proposed it,
    /// since by determinism such a seal at my cursor seals exactly my
    /// replica. A seal with someone else's operation is crossed like any
    /// record. Absorbing the seal raised the tail; the walk publishes it and
    /// returns its index and what `answer` makes of the cell's response
    /// (the reconfiguration's own; nothing, for a checkpoint).
    #[progress(lock_free)]
    fn place_seal<R>(
        &mut self,
        op: Option<S::Op>,
        answer: impl Fn(Option<S::Resp>) -> Option<R>,
    ) -> (u64, R) {
        let me = op.is_some().then(|| {
            self.seq += 1;
            (self.pid, self.seq)
        });
        loop {
            self.decide_current_cell(self.pid, |handle| {
                // Speculate the sealed state from the fully-replayed
                // prefix; exact whenever this record is the one agreed. A
                // checkpoint seals the replica itself, shared; a
                // reconfiguration seals a copy with its operation applied.
                let state = match &op {
                    None => Arc::clone(&handle.state),
                    Some(op) => {
                        let mut state = S::State::clone(&handle.state);
                        let _ = handle.obj.spec.apply(&mut state, op);
                        Arc::new(state)
                    }
                };
                LogRecord::Seal(SealRecord {
                    pid: handle.pid as u8,
                    seq: me.map_or(0, |(_, seq)| seq),
                    op: op.clone(),
                    state,
                })
            });
            if let Some(Absorbed { author, seal: seal @ Some(_), index, resp }) = self.absorb(me) {
                // The stop rule: the first seal carrying the operation I
                // place, which for a checkpoint is none.
                if let Some(answer) = answer(resp).filter(|_| author == me) {
                    self.publish_anchor(seal);
                    return (index, answer);
                }
            }
        }
    }

    /// Answers `f` from this handle's replica after catching it up to the
    /// log tail observed **at invocation** — a **linearizable read that
    /// appends nothing**: no announce, no proposal, no log cell, nothing for
    /// the other handles to replay. `f` must not need to change the state;
    /// anything that does goes through [`Self::apply`].
    ///
    /// Progress: the step bound is `tail − cursor`, fixed by the one load
    /// below — the same shape as [`Self::apply`]'s placement bound — so a
    /// wait-free port keeps its class however fast the log grows meanwhile
    /// ("peek until the first undecided cell" would chase the log and is
    /// only lock-free), and the read never proposes, so it cannot be
    /// obstructed either.
    ///
    /// Linearizability: cells decide in order, so after the loop the
    /// replica is exactly the prefix `[0, tail)`. Any operation that
    /// completed before this call was invoked had raised `tail` past its
    /// cell, so the read observes it; a decided cell at or past `tail` that
    /// nobody has absorbed yet has produced no response, so ordering the
    /// read before it is legal.
    #[progress(bounded_wait_free)]
    pub fn sync_read<R>(&mut self, f: impl FnOnce(&S::State) -> R) -> R {
        let tail = self.obj.tail();
        // Every cell below `tail` is decided; stay total regardless.
        while self.cell_index < tail && self.absorb(None).is_some() {}
        f(&self.state)
    }

    /// The cursor cell's consensus object.
    #[cfg(test)]
    fn cell(&self) -> &F::Object {
        &self.segment.cells[offset(self.cell_index)]
    }

    /// Makes sure the cursor cell is decided, proposing to it as `pid` if it
    /// is not. `fallback` builds the record to propose from the handle
    /// when the helping rule yields no candidate. What was decided is
    /// `absorb`'s to read.
    fn decide_current_cell(&mut self, pid: usize, fallback: impl FnOnce(&Self) -> LogRecordOf<S>) {
        let cell = &self.segment.cells[offset(self.cell_index)];
        if cell.peek_with(|decided| decided.is_some()) {
            return;
        }
        // Helping rule: cell k prefers the announcement of process k mod n,
        // if it is pending (announced and not yet applied in my replay —
        // which is exact for all cells before this one). Only a pending
        // announcement is cloned. An announcement stored over while it is
        // read reads as none: its owner announces again only once the
        // operation before was applied, so what the read missed was
        // announced after this step began.
        let slot = (self.cell_index as usize) % self.obj.n;
        let done = self.applied[slot];
        let candidate = self.obj.announce.read(&mut self.claim, slot, |a| {
            let a = a.filter(|a| a.seq > done)?;
            Some(LogRecord::Op(OpRecord { pid: slot as u8, seq: a.seq, op: a.op.clone() }))
        });
        let proposal = candidate.unwrap_or_else(|| fallback(self));
        // APC-LINT: allow(progress): dynamic dispatch through the factory's consensus object; its class is the factory's liveness spec (wait-free for the VIP set), checked at the object, not here
        match cell.propose(pid, proposal) {
            // A proposed-to cell that rejects a re-proposal has decided too.
            Ok(_) | Err(ConsensusError::AlreadyProposed { .. }) => {}
            Err(ConsensusError::NotAPort { pid }) => {
                unreachable!("handle creation verified port membership for {pid}")
            }
        }
    }

    /// **The walk's one step**: absorbs the decided record of the cursor
    /// cell, whoever proposed it and whichever operation is walking; `None`
    /// (and nothing absorbed) if the cell is undecided. The record is
    /// borrowed from the cell. Its operation, if it carries one, is applied
    /// for a response if it is the one the walker `awaited` (its author and
    /// sequence number), and replayed for its effect otherwise; either way
    /// it is noted in `applied`. Then the cursor moves, and — if the record
    /// seals a state (a checkpoint its prefix, a reconfiguration its own
    /// post-state) — the tail is raised and the seal handed back, for a
    /// sealing caller to publish. By determinism the seal equals the local
    /// replica here, so it is shared straight out of the record, never
    /// cloned. A cell that carries an operation writes the replica through
    /// one [`Arc::make_mut`]: a copy if the replica is still shared (with
    /// an anchor or a seal), nothing but a count check once it is its own.
    fn absorb(&mut self, awaited: Option<(usize, u64)>) -> Option<Absorbed<S::Resp, S::State>> {
        let index = self.cell_index;
        let Self { obj, segment, state, applied, .. } = self;
        let (author, resp, seal) = segment.cells[offset(index)].peek_with(|decided| {
            let (author, op, seal) = match decided? {
                LogRecord::Op(rec) => ((rec.pid, rec.seq), Some(&rec.op), None),
                LogRecord::Seal(rec) => ((rec.pid, rec.seq), rec.op.as_ref(), Some(&rec.state)),
            };
            let author = op.map(|_| (usize::from(author.0), author.1));
            let resp = op.zip(author).and_then(|(op, author)| {
                applied[author.0] = author.1;
                let state = Arc::make_mut(state);
                if awaited == Some(author) {
                    Some(obj.spec.apply(state, op))
                } else {
                    obj.spec.replay(state, op);
                    None
                }
            });
            Some((author, resp, seal.map(Arc::clone)))
        })?;
        self.advance();
        if let Some(state) = &seal {
            debug_assert!(**state == *self.state, "a sealed state matches the replica");
            self.raise_tail();
        }
        Some(Absorbed { author, seal, index, resp })
    }

    /// Publishes `seal`, which this walker just absorbed in the cell before
    /// its cursor, as the anchor for handles created from now on. A publish
    /// that finds the anchor's lock held is skipped, and the next seal
    /// publishes; so is one that finds it poisoned (a panic while
    /// `owned_handle` cloned the state), which leaves an earlier seal in
    /// place: as correct, at more replay for a later handle. One behind the
    /// anchor changes nothing, so the anchor never moves backward.
    fn publish_anchor(&self, seal: Option<Arc<S::State>>) {
        let mut segment = Arc::clone(&self.segment);
        let (Some(mut state), Ok(mut anchor)) = (seal, self.obj.anchor.try_lock()) else { return };
        if self.obj.anchor_index.load(Ordering::Acquire) < self.cell_index {
            anchor.applied.clone_from(&self.applied);
            std::mem::swap(&mut anchor.state, &mut state);
            std::mem::swap(&mut anchor.segment, &mut segment);
            self.obj.anchor_index.store(self.cell_index, Ordering::Release);
        }
        // The displaced state and segment drop after the guard: nothing
        // under the lock runs a destructor, so no publish poisons it.
    }

    /// **Re-bases** a handle that trails the published anchor: the handle
    /// takes over the anchor's segment, index, `applied` vector and state
    /// (shared, not copied), read under the anchor's lock as
    /// [`Universal::owned_pair`] reads them, and keeps its pids, both
    /// sequence numbers, its claim and its [`Self::replay_steps`] meter.
    /// Every operation of its own is below its cursor, so below the anchor,
    /// and the anchor's `applied` already counts it. A handle at or past
    /// the anchor is left as it is, and `None` comes back.
    ///
    /// Otherwise the handle's old segment and replica come back as a
    /// [`Displaced`]: it is what kept the sealed prefix alive, and dropping
    /// it may free every cell from its segment up to the anchor's. A caller
    /// that holds a lock over the handle drops it after letting go.
    ///
    /// Progress: blocking (the anchor's lock). This is an admin step: a
    /// store re-bases its idle ports after each seal, never on a commit.
    #[progress(blocking)]
    pub fn rebase(&mut self) -> Option<Displaced<S, F>> {
        let anchor = self.obj.anchor.lock().unwrap_or_else(PoisonError::into_inner);
        let index = self.obj.anchor_index.load(Ordering::Acquire);
        if self.cell_index >= index {
            return None;
        }
        self.applied.clone_from(&anchor.applied);
        self.cell_index = index;
        Some(Displaced {
            _segment: std::mem::replace(&mut self.segment, Arc::clone(&anchor.segment)),
            _state: std::mem::replace(&mut self.state, Arc::clone(&anchor.state)),
        })
    }

    /// Makes the local replica this handle's own: copies it if it is
    /// shared (with an anchor or a seal), and does nothing if it is not. A
    /// handle whose owner must never pay for a copy on a commit calls this
    /// beforehand; nothing shares a replica afterwards but a seal this
    /// handle proposes or a re-base.
    pub fn own_replica(&mut self) {
        Arc::make_mut(&mut self.state);
    }

    /// Moves the cursor to the next cell: the next one in its segment, or,
    /// past the segment's last cell, the first of the linked segment,
    /// building that segment if nobody has yet.
    fn advance(&mut self) {
        self.cell_index += 1;
        if offset(self.cell_index) == 0 {
            let next = self
                .segment
                .next
                .load_or_init(|| Arc::new(Segment::new(|| self.obj.factory.create())));
            self.segment = next;
        }
        self.steps += 1;
    }

    /// Raises the object's `tail` to this handle's cursor: every cell before
    /// it is decided and absorbed here.
    fn raise_tail(&self) {
        // Release: pairs with the Acquire load in `sync_read`, so a reader
        // that sees `tail > i` also sees cell `i` decided and its successor
        // linked.
        self.obj.tail.fetch_max(self.cell_index, Ordering::Release);
    }

    /// The absolute log index of this handle's replay cursor (all cells
    /// before it are reflected in [`Self::local_state`]).
    pub fn replayed_cells(&self) -> u64 {
        self.cell_index
    }

    /// Log cells this handle has consumed itself — the replay-work meter.
    ///
    /// A handle bootstrapped from a checkpoint does **not** count the sealed
    /// prefix: this is the regression guard for the O(delta) replay claim.
    pub fn replay_steps(&self) -> u64 {
        self.steps
    }

    /// Read-only access to the local replica (exact as of the last `apply`
    /// or `sync_read`).
    pub fn local_state(&self) -> &S::State {
        &self.state
    }

    /// The local replica as a shared pointer: a second owner of the same
    /// state, made without a copy (a checkpoint's snapshot is one). The
    /// handle's next write then copies it first.
    pub fn replica(&self) -> &Arc<S::State> {
        &self.state
    }
}

/// What [`OwnedHandle::rebase`] took off a handle: its old cursor segment
/// and its old replica. While it lives it keeps them, and through the
/// segment's links every segment after it; dropping it frees whatever
/// nobody else holds.
#[must_use = "dropping this frees the handle's old prefix: drop it where that cost belongs"]
pub struct Displaced<S, F>
where
    S: SequentialSpec,
    F: ConsensusFactory<LogRecordOf<S>>,
{
    _segment: Arc<Segment<F::Object>>,
    _state: Arc<S::State>,
}

impl<S, F> fmt::Debug for OwnedHandle<S, F>
where
    S: SequentialSpec,
    F: ConsensusFactory<LogRecordOf<S>>,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OwnedHandle")
            .field("pid", &self.pid)
            .field("voice", &self.voice)
            .field("replayed_cells", &self.cell_index)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factory::{AsymmetricFactory, CasFactory};
    use crate::seq::{Counter, CounterOp, KvOp, KvStore, Queue, QueueOp};
    use apc_core::liveness::Liveness;
    use std::sync::Mutex;

    fn wait_free_counter(n: usize) -> Arc<Universal<Counter, CasFactory>> {
        Arc::new(Universal::new(Counter, CasFactory::new(Liveness::new_first_n(n, n)), n))
    }

    #[test]
    fn sequential_counter() {
        let obj = wait_free_counter(2);
        let mut h = obj.owned_handle(0).unwrap();
        assert_eq!(h.apply(CounterOp::Add(5)), 5);
        assert_eq!(h.apply(CounterOp::Add(5)), 10);
        assert_eq!(h.apply(CounterOp::Get), 10);
        assert_eq!(h.replayed_cells(), 3);
    }

    #[test]
    fn two_handles_see_each_other() {
        let obj = wait_free_counter(2);
        let mut h0 = obj.owned_handle(0).unwrap();
        let mut h1 = obj.owned_handle(1).unwrap();
        h0.apply(CounterOp::Add(1));
        h1.apply(CounterOp::Add(2));
        assert_eq!(h0.apply(CounterOp::Get), 3);
    }

    #[test]
    fn one_handle_per_pid() {
        let obj = wait_free_counter(2);
        let _h = obj.owned_handle(0).unwrap();
        assert_eq!(obj.owned_handle(0).unwrap_err(), UniversalError::HandleTaken { pid: 0 });
        assert_eq!(obj.owned_handle(9).unwrap_err(), UniversalError::NotAPort { pid: 9 });
    }

    #[test]
    fn a_pair_claims_both_bits_or_neither() {
        let obj = wait_free_counter(4);
        let _pair = obj.owned_pair(0, 3).unwrap();
        assert_eq!(obj.owned_handle(3).unwrap_err(), UniversalError::HandleTaken { pid: 3 });
        assert_eq!(obj.owned_handle(0).unwrap_err(), UniversalError::HandleTaken { pid: 0 });
        // A pair one of whose bits is taken claims neither.
        assert_eq!(obj.owned_pair(1, 3).unwrap_err(), UniversalError::HandleTaken { pid: 3 });
        assert_eq!(obj.owned_pair(1, 9).unwrap_err(), UniversalError::NotAPort { pid: 9 });
        assert!(obj.owned_handle(1).is_ok(), "the failed pairs left pid 1 free");
    }

    #[test]
    fn a_pid_the_handle_does_not_hold_is_refused() {
        let obj = wait_free_counter(4);
        let mut pair = obj.owned_pair(0, 3).unwrap();
        let mut other = obj.owned_handle(1).unwrap();
        assert_eq!(pair.apply_as(1, CounterOp::Add(5)), Err(UniversalError::NotHeld { pid: 1 }));
        assert_eq!(other.apply_as(3, CounterOp::Add(5)), Err(UniversalError::NotHeld { pid: 3 }));
        assert_eq!(obj.tail(), 0, "a refused op takes no cell");
        assert_eq!(other.apply_as(1, CounterOp::Add(1)), Ok(1), "a handle holds its own pid");
        assert_eq!(pair.apply_as(3, CounterOp::Add(2)), Ok(3));
        assert_eq!(pair.apply(CounterOp::Get), 3);
    }

    #[test]
    fn a_pair_interleaves_its_two_pids_on_one_replica_under_contention() {
        // (5,1)-live cells: pid 0 is the VIP, pids 1–3 race as guests, and
        // pid 4 is the VIP's guest voice. One thread runs the pair, taking
        // turns between its two pids, while three handles add concurrently.
        let (n, per_thread) = (5, 60u64);
        let obj = Arc::new(Universal::new(
            Counter,
            AsymmetricFactory::new(Liveness::new_first_n(n, 1)),
            n,
        ));
        let pair = std::thread::scope(|s| {
            for pid in 1..4 {
                let obj = &obj;
                s.spawn(move || {
                    let mut h = obj.owned_handle(pid).unwrap();
                    for _ in 0..per_thread {
                        h.apply(CounterOp::Add(1));
                    }
                });
            }
            let obj = &obj;
            s.spawn(move || {
                let mut pair = obj.owned_pair(0, 4).unwrap();
                let mut last = 0;
                for i in 0..per_thread {
                    let total = if i % 2 == 0 {
                        pair.apply(CounterOp::Add(1))
                    } else {
                        pair.apply_as(4, CounterOp::Add(1)).unwrap()
                    };
                    assert!(total > last, "the pair's two pids see one history");
                    last = total;
                }
                pair
            })
            .join()
            .unwrap()
        });
        let mut pair = pair;
        assert_eq!(pair.apply(CounterOp::Get), 4 * per_thread, "no add lost or doubled");
        assert_eq!(pair.applied[0], per_thread / 2 + 1, "the VIP's own sequence");
        assert_eq!(pair.applied[4], per_thread / 2, "the voice's own sequence");
        // One cursor: every cell the pair crossed is counted once.
        assert_eq!(pair.replay_steps(), pair.replayed_cells());
        assert_eq!(pair.replayed_cells(), obj.tail());
    }

    #[test]
    fn concurrent_counter_total_is_exact() {
        // n−1 workers increment concurrently; a late reader must observe the
        // exact total (no lost updates).
        let n = 6;
        let per_thread = 50;
        let obj = wait_free_counter(n);
        std::thread::scope(|s| {
            for pid in 0..n - 1 {
                let obj = &obj;
                s.spawn(move || {
                    let mut h = obj.owned_handle(pid).unwrap();
                    for _ in 0..per_thread {
                        h.apply(CounterOp::Add(1));
                    }
                });
            }
        });
        let mut late = obj.owned_handle(n - 1).unwrap();
        assert_eq!(late.apply(CounterOp::Get), ((n - 1) * per_thread) as u64);
    }

    #[test]
    fn queue_is_fifo_under_concurrency() {
        // Concurrent enqueues then a drain: the drain must see every element
        // exactly once, and per-producer subsequences must stay ordered.
        let n = 4;
        let per_thread = 25u64;
        let obj = Arc::new(Universal::new(Queue, CasFactory::new(Liveness::new_first_n(n, n)), n));
        std::thread::scope(|s| {
            for pid in 0..n - 1 {
                let obj = &obj;
                s.spawn(move || {
                    let mut h = obj.owned_handle(pid).unwrap();
                    for i in 0..per_thread {
                        h.apply(QueueOp::Enqueue(pid as u64 * 1000 + i));
                    }
                });
            }
        });
        let mut consumer = obj.owned_handle(n - 1).unwrap();
        let mut seen: Vec<u64> = Vec::new();
        while let Some(v) = consumer.apply(QueueOp::Dequeue) {
            seen.push(v);
        }
        assert_eq!(seen.len(), (n - 1) * per_thread as usize);
        // Per-producer order is preserved.
        for pid in 0..(n - 1) as u64 {
            let mine: Vec<u64> = seen.iter().copied().filter(|v| v / 1000 == pid).collect();
            let mut sorted = mine.clone();
            sorted.sort_unstable();
            assert_eq!(mine, sorted, "producer {pid} order violated");
        }
    }

    #[test]
    fn kv_store_linearizes_puts() {
        let n = 4;
        let obj =
            Arc::new(Universal::new(KvStore, CasFactory::new(Liveness::new_first_n(n, n)), n));
        std::thread::scope(|s| {
            for pid in 0..n - 1 {
                let obj = &obj;
                s.spawn(move || {
                    let mut h = obj.owned_handle(pid).unwrap();
                    h.apply(KvOp::Put(format!("k{pid}"), pid as u64));
                });
            }
        });
        let mut reader = obj.owned_handle(n - 1).unwrap();
        for pid in 0..n - 1 {
            assert_eq!(reader.apply(KvOp::Get(format!("k{pid}"))), Some(pid as u64));
        }
        assert_eq!(reader.apply(KvOp::Get("missing".into())), None);
    }

    #[test]
    fn asymmetric_factory_wait_free_members_progress_under_contention() {
        // (4,1)-live cells: pid 0 is wait-free. Guests hammer the object
        // while pid 0 performs operations; pid 0 must complete all of them.
        let n = 4;
        let obj = Arc::new(Universal::new(
            Counter,
            AsymmetricFactory::new(Liveness::new_first_n(n, 1)),
            n,
        ));
        let done = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for pid in 1..n {
                let obj = &obj;
                s.spawn(move || {
                    let mut h = obj.owned_handle(pid).unwrap();
                    for _ in 0..20 {
                        h.apply(CounterOp::Add(1));
                    }
                });
            }
            let obj = &obj;
            let done = &done;
            s.spawn(move || {
                let mut h = obj.owned_handle(0).unwrap();
                for _ in 0..20 {
                    let v = h.apply(CounterOp::Add(1));
                    done.lock().unwrap().push(v);
                }
            });
        });
        let done = done.into_inner().unwrap();
        assert_eq!(done.len(), 20, "the wait-free member completed every operation");
        // Counter responses are strictly increasing (linearizable Adds).
        for w in done.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn local_state_reflects_replay() {
        let obj = wait_free_counter(2);
        let mut h = obj.owned_handle(0).unwrap();
        h.apply(CounterOp::Add(7));
        assert_eq!(*h.local_state(), 7);
    }

    #[test]
    fn checkpoint_seals_state_and_ops_continue() {
        let obj = wait_free_counter(2);
        let mut h = obj.owned_handle(0).unwrap();
        h.apply(CounterOp::Add(3));
        h.apply(CounterOp::Add(4));
        let index = h.checkpoint();
        assert_eq!(index, 2, "two op cells precede the checkpoint cell");
        assert_eq!(obj.anchor_index(), 3, "anchor points past the checkpoint cell");
        // Operations after the checkpoint see the sealed state.
        assert_eq!(h.apply(CounterOp::Add(1)), 8);
        let mut h1 = obj.owned_handle(1).unwrap();
        assert_eq!(h1.apply(CounterOp::Get), 8);
    }

    #[test]
    fn fresh_handle_after_checkpoint_replays_o_delta() {
        let n = 3;
        let history = 200u64;
        let obj = wait_free_counter(n);
        let mut h0 = obj.owned_handle(0).unwrap();
        for _ in 0..history {
            h0.apply(CounterOp::Add(1));
        }
        h0.checkpoint();
        // A few post-checkpoint ops: the delta.
        let delta = 5u64;
        for _ in 0..delta {
            h0.apply(CounterOp::Add(1));
        }
        // The fresh handle must bootstrap from the checkpoint, not replay
        // the whole history.
        let mut h1 = obj.owned_handle(1).unwrap();
        assert_eq!(h1.apply(CounterOp::Get), history + delta);
        assert!(
            h1.replay_steps() <= delta + 2,
            "fresh handle replayed {} cells for a delta of {}",
            h1.replay_steps(),
            delta
        );
        // But its absolute position covers the whole log.
        assert_eq!(h1.replayed_cells(), history + delta + 2);
    }

    #[test]
    fn replay_steps_meter_counts_own_work() {
        let obj = wait_free_counter(2);
        let mut h = obj.owned_handle(0).unwrap();
        assert_eq!(h.replay_steps(), 0);
        h.apply(CounterOp::Add(1));
        h.apply(CounterOp::Add(1));
        assert_eq!(h.replay_steps(), 2);
    }

    #[test]
    fn checkpoint_races_with_concurrent_ops_keep_totals_exact() {
        // Workers hammer the counter while one port checkpoints repeatedly:
        // no committed Add may be dropped or double-applied, and a late
        // reader (which bootstraps from whatever anchor the race produced)
        // must observe the exact total.
        let n = 5;
        let workers = 3u64;
        let per_thread = 60u64;
        let obj = wait_free_counter(n);
        std::thread::scope(|s| {
            for pid in 0..workers as usize {
                let obj = &obj;
                s.spawn(move || {
                    let mut h = obj.owned_handle(pid).unwrap();
                    for _ in 0..per_thread {
                        h.apply(CounterOp::Add(1));
                    }
                });
            }
            let obj = &obj;
            s.spawn(move || {
                let mut h = obj.owned_handle(3).unwrap();
                for _ in 0..10 {
                    h.checkpoint();
                }
            });
        });
        assert!(obj.anchor_index() > 0, "at least one checkpoint installed");
        let mut reader = obj.owned_handle(4).unwrap();
        assert_eq!(reader.apply(CounterOp::Get), workers * per_thread);
    }

    #[test]
    fn checkpoints_may_be_taken_by_any_port_and_stack() {
        let obj = wait_free_counter(3);
        let mut h0 = obj.owned_handle(0).unwrap();
        let mut h1 = obj.owned_handle(1).unwrap();
        h0.apply(CounterOp::Add(2));
        let first = h0.checkpoint();
        h1.apply(CounterOp::Add(5));
        let second = h1.checkpoint();
        assert!(second > first, "later checkpoint seals a longer prefix");
        assert_eq!(obj.anchor_index(), second + 1);
        let mut h2 = obj.owned_handle(2).unwrap();
        assert_eq!(h2.apply(CounterOp::Get), 7);
        assert!(h2.replay_steps() <= 2, "bootstrapped from the latest anchor");
    }

    #[test]
    fn reconfigure_applies_and_seals_in_one_cell() {
        let obj = wait_free_counter(3);
        let mut h = obj.owned_handle(0).unwrap();
        h.apply(CounterOp::Add(3));
        h.apply(CounterOp::Add(4));
        let (index, resp) = h.reconfigure(CounterOp::Add(10));
        assert_eq!(index, 2, "two op cells precede the reconfig cell");
        assert_eq!(resp, 17, "the op observed everything committed before the bump");
        assert_eq!(obj.anchor_index(), 3, "anchor points past the reconfig cell");
        // Fresh handles bootstrap from the sealed post-reconfig state.
        let mut h1 = obj.owned_handle(1).unwrap();
        assert_eq!(h1.apply(CounterOp::Get), 17);
        assert!(h1.replay_steps() <= 1, "the reconfig cell doubles as a checkpoint");
    }

    #[test]
    fn reconfigure_races_with_concurrent_ops_keep_totals_exact() {
        // Workers hammer the counter while one port installs reconfig bumps
        // (each adding a marker amount): no committed Add may be dropped or
        // double-applied, and the bump responses are exact prefix sums.
        let n = 5;
        let workers = 3u64;
        let per_thread = 40u64;
        let bumps = 4u64;
        let obj = wait_free_counter(n);
        std::thread::scope(|s| {
            for pid in 0..workers as usize {
                let obj = &obj;
                s.spawn(move || {
                    let mut h = obj.owned_handle(pid).unwrap();
                    for _ in 0..per_thread {
                        h.apply(CounterOp::Add(1));
                    }
                });
            }
            let obj = &obj;
            s.spawn(move || {
                let mut h = obj.owned_handle(3).unwrap();
                let mut last = 0;
                for _ in 0..bumps {
                    let (_, total) = h.reconfigure(CounterOp::Add(1_000));
                    assert!(total > last, "bump responses are strictly increasing");
                    last = total;
                }
            });
        });
        assert!(obj.anchor_index() > 0, "at least one reconfig anchor installed");
        let mut reader = obj.owned_handle(4).unwrap();
        assert_eq!(reader.apply(CounterOp::Get), workers * per_thread + bumps * 1_000);
    }

    #[test]
    fn checkpoint_after_reconfig_reseals_cleanly() {
        let obj = wait_free_counter(2);
        let mut h = obj.owned_handle(0).unwrap();
        h.apply(CounterOp::Add(1));
        let (bump_index, _) = h.reconfigure(CounterOp::Add(2));
        let ck_index = h.checkpoint();
        assert!(ck_index > bump_index);
        assert_eq!(obj.anchor_index(), ck_index + 1);
        let mut h1 = obj.owned_handle(1).unwrap();
        assert_eq!(h1.apply(CounterOp::Get), 3);
    }

    #[test]
    fn recovered_object_starts_at_the_given_index_and_state() {
        let obj = Arc::new(Universal::recovered(
            Counter,
            CasFactory::new(Liveness::new_first_n(2, 2)),
            2,
            41,
            100,
        ));
        assert_eq!(obj.anchor_index(), 100);
        let mut h = obj.owned_handle(0).unwrap();
        assert_eq!(h.replayed_cells(), 100, "cursor starts at the recovery index");
        assert_eq!(h.apply(CounterOp::Add(1)), 42, "recovered state is live");
        assert_eq!(h.replay_steps(), 1, "no pre-recovery replay work");
    }

    #[test]
    fn long_compacted_log_drops_without_stack_overflow() {
        // Build a long log, checkpoint it, drop every strong reference to
        // the prefix: the iterative Segment drop must unwind it safely.
        let n = 2;
        let obj = wait_free_counter(n);
        let mut h = obj.owned_handle(0).unwrap();
        for _ in 0..50_000 {
            h.apply(CounterOp::Add(1));
        }
        h.checkpoint();
        drop(h);
        drop(obj);
    }

    #[test]
    fn sync_read_catches_up_without_appending() {
        let obj = wait_free_counter(2);
        let mut writer = obj.owned_handle(0).unwrap();
        let mut reader = obj.owned_handle(1).unwrap();
        for _ in 0..10 {
            writer.apply(CounterOp::Add(1));
        }
        // The reader starts at cursor 0 with the tail at 10: exactly
        // tail − cursor cells replayed, none consumed.
        assert_eq!((obj.tail(), reader.replayed_cells()), (10, 0));
        assert_eq!(reader.sync_read(|s| *s), 10);
        assert_eq!(reader.replay_steps(), 10);
        assert_eq!(*reader.local_state(), 10);
        // A caught-up replica answers in zero steps.
        assert_eq!(reader.sync_read(|s| *s), 10);
        assert_eq!(reader.replay_steps(), 10);
        // No cell was taken by either read: the next op lands in cell 10.
        writer.apply(CounterOp::Add(1));
        assert_eq!(writer.replayed_cells(), 11);
        assert_eq!(reader.sync_read(|s| *s), 11);
        assert_eq!(obj.tail(), 11, "a read never moves the tail");
    }

    #[test]
    fn sync_read_crosses_checkpoint_and_reconfig_cells() {
        let obj = wait_free_counter(3);
        let mut writer = obj.owned_handle(0).unwrap();
        let mut reader = obj.owned_handle(1).unwrap();
        writer.apply(CounterOp::Add(1));
        writer.checkpoint();
        writer.reconfigure(CounterOp::Add(10));
        writer.apply(CounterOp::Add(100));
        assert_eq!(reader.sync_read(|s| *s), 111);
        assert_eq!(reader.replayed_cells(), 4, "op, checkpoint, reconfig, op");
        // A handle bootstrapped from the reconfig anchor replays the suffix only.
        let mut late = obj.owned_handle(2).unwrap();
        assert_eq!(late.sync_read(|s| *s), 111);
        assert_eq!(late.replay_steps(), 1);
    }

    #[test]
    fn absorbed_effect_does_not_depend_on_who_absorbs_it() {
        type Port = OwnedHandle<Counter, CasFactory>;
        type Foreign = fn(&Port) -> LogRecordOf<Counter>;
        type Driver = fn(&mut Port);
        let foreign: [(&str, Foreign); 3] = [
            ("op", |a| LogRecord::Op(OpRecord { pid: 0, seq: a.seq + 1, op: CounterOp::Add(10) })),
            ("checkpoint", |a| {
                LogRecord::Seal(SealRecord {
                    pid: 0,
                    seq: 0,
                    op: None,
                    state: Arc::clone(&a.state),
                })
            }),
            ("reconfiguration", |a| {
                LogRecord::Seal(SealRecord {
                    pid: 0,
                    seq: a.seq + 1,
                    op: Some(CounterOp::Add(10)),
                    state: Arc::new(*a.state + 10),
                })
            }),
        ];
        let drivers: [(&str, Driver); 4] = [
            ("apply", |h| _ = h.apply(CounterOp::Add(100))),
            ("reconfigure", |h| _ = h.reconfigure(CounterOp::Add(100))),
            ("checkpoint", |h| _ = h.checkpoint()),
            ("sync_read", |h| h.sync_read(|_| ())),
        ];
        // The foreign record sits in cell 1, and in a segment's last cell,
        // where absorbing it also crosses into the next segment.
        for at in [1, SEGMENT_CELLS as u64 - 1] {
            for (kind, record) in foreign {
                for (name, drive) in drivers {
                    // What port 1 and the object look like after port 1 met
                    // the foreign record at its cursor under `drive` —
                    // having first crossed it with `sync_read` if
                    // `witness`. A checkpoint agreed at a checkpointer's
                    // cursor is the one it came for: it stops there, and so
                    // does its witness.
                    let stops = (name, kind) == ("checkpoint", "checkpoint");
                    let crossed = |witness: bool| {
                        let obj = wait_free_counter(2);
                        let mut author = obj.owned_handle(0).unwrap();
                        let mut port = obj.owned_handle(1).unwrap();
                        for _ in 0..at {
                            author.apply(CounterOp::Add(1));
                        }
                        // The author agrees its record into cell `at` and
                        // moves past it — the tail is raised, nothing is
                        // published yet — so whoever crosses the cell next
                        // does so alone.
                        let foreign = record(&author);
                        author.decide_current_cell(0, |_| foreign.clone());
                        assert_eq!(author.cell().peek(), Some(foreign));
                        author.advance();
                        author.raise_tail();
                        if witness {
                            port.sync_read(|_| ());
                        }
                        if !(witness && stops) {
                            drive(&mut port);
                        }
                        ((*port.state, port.applied.clone(), port.cell_index), obj.anchor_index())
                    };
                    let (alone, anchor) = crossed(false);
                    let case = format!("{name} absorbing a foreign {kind} in cell {at}");
                    assert_eq!(alone, crossed(true).0, "{case}");
                    // Only a walker whose own call returns a seal publishes.
                    let seals = matches!(name, "checkpoint" | "reconfigure");
                    assert_eq!(anchor > at, seals, "{case}: published iff it returned a seal");
                }
            }
        }
    }

    #[test]
    fn a_lagging_checkpointer_stops_only_at_a_seal_without_an_operation() {
        // Port 0 writes three cells and agrees a seal of its own into the
        // fourth — a checkpoint, or a reconfiguration adding 10 — while port
        // 1, still at cell 0, checkpoints: it walks the three writes and
        // meets the foreign seal at its cursor.
        for reconfiguration in [false, true] {
            let obj = wait_free_counter(3);
            let mut author = obj.owned_handle(0).unwrap();
            let mut lagging = obj.owned_handle(1).unwrap();
            for _ in 0..3 {
                author.apply(CounterOp::Add(1));
            }
            let at = author.cell_index;
            let (seq, op, sealed) = match reconfiguration {
                false => (0, None, 3),
                true => (author.seq + 1, Some(CounterOp::Add(10)), 13),
            };
            let foreign = LogRecord::Seal(SealRecord { pid: 0, seq, op, state: Arc::new(sealed) });
            author.decide_current_cell(0, |_| foreign.clone());
            author.advance();
            author.raise_tail();
            let index = lagging.checkpoint();
            if reconfiguration {
                // A seal with an operation is crossed like any record: the
                // checkpointer seals the next cell, after the operation.
                assert_eq!(index, at + 1, "a checkpoint stopped at a reconfiguration");
                let own = SealRecord { pid: 1, seq: 0, op: None, state: Arc::new(13) };
                assert_eq!(author.cell().peek(), Some(LogRecord::Seal(own)));
            } else {
                // Any checkpoint at the cursor seals exactly this replica:
                // the checkpointer returns its index and proposes nothing.
                assert_eq!(index, at, "a checkpoint walked past a foreign checkpoint");
                assert_eq!(lagging.cell().peek(), None, "a checkpoint proposed past its stop");
            }
            assert_eq!(lagging.replayed_cells(), index + 1);
            assert_eq!(obj.tail(), index + 1);
            assert_eq!(obj.anchor_index(), index + 1, "the returned seal is published");
            assert_eq!(*obj.owned_handle(2).unwrap().local_state(), sealed);
        }
    }

    #[test]
    fn a_replaying_replica_ends_where_an_applying_one_does() {
        // One port agrees a log of KV operations from three authors, with
        // checkpoint and reconfiguration cells among them, and absorbs
        // every record as its author would: applying the operation for its
        // response. Another port only ever replays (`sync_read`), at ragged
        // points along the way. Both must end with the same state, the same
        // `applied` vector and the same cursor; the applier's responses must
        // be a sequential run's.
        type Port = OwnedHandle<KvStore, AsymmetricFactory>;
        let obj = Arc::new(Universal::new(
            KvStore,
            AsymmetricFactory::new(Liveness::new_first_n(3, 1)),
            3,
        ));
        let mut reader: Port = obj.owned_handle(0).unwrap();
        let mut applier: Port = obj.owned_handle(1).unwrap();
        let mut oracle = KvStore.init();
        let mut seqs = [0u64; 3];
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..600u64 {
            rng =
                rng.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let key = format!("k{}", (rng >> 33) % 11);
            let op = match (rng >> 20) % 4 {
                0 => KvOp::Get(key),
                1 => KvOp::Remove(key),
                _ => KvOp::Put(key, i),
            };
            let pid = ((rng >> 40) % 3) as u8;
            let record = match i % 29 {
                13 => LogRecord::Seal(SealRecord {
                    pid,
                    seq: 0,
                    op: None,
                    state: Arc::clone(&applier.state),
                }),
                27 => {
                    let mut post = (*applier.state).clone();
                    KvStore.apply(&mut post, &op);
                    seqs[usize::from(pid)] += 1;
                    let seq = seqs[usize::from(pid)];
                    LogRecord::Seal(SealRecord {
                        pid,
                        seq,
                        op: Some(op.clone()),
                        state: Arc::new(post),
                    })
                }
                _ => {
                    seqs[usize::from(pid)] += 1;
                    let seq = seqs[usize::from(pid)];
                    LogRecord::Op(OpRecord { pid, seq, op: op.clone() })
                }
            };
            let author = match &record {
                LogRecord::Op(r) => Some((usize::from(r.pid), r.seq)),
                LogRecord::Seal(r) => r.op.as_ref().map(|_| (usize::from(r.pid), r.seq)),
            };
            applier.decide_current_cell(1, |_| record.clone());
            assert_eq!(applier.cell().peek(), Some(record), "cell {i} took the record");
            let crossed = applier.absorb(author).expect("a decided cell is absorbed");
            match author {
                Some(_) => {
                    let expected = KvStore.apply(&mut oracle, &op);
                    assert_eq!(crossed.resp, Some(expected), "cell {i} answered as its author");
                }
                None => assert_eq!(crossed.resp, None, "a checkpoint answers nothing"),
            }
            applier.raise_tail();
            if rng.is_multiple_of(5) {
                reader.sync_read(|_| ());
            }
        }
        reader.sync_read(|_| ());
        assert_eq!(*reader.state, oracle);
        assert_eq!(
            (&reader.state, &reader.applied, reader.cell_index),
            (&applier.state, &applier.applied, applier.cell_index)
        );
        assert_eq!(reader.applied, seqs.to_vec(), "every authored record is noted");
        assert_eq!(obj.anchor_index(), 0, "absorbing a seal publishes nothing");
    }

    #[test]
    fn racing_handles_resolve_a_boundary_to_one_segment() {
        // Two handles stand on a segment's last cell and both checkpoint:
        // one seal is agreed there, and both absorb it and cross the
        // boundary at once. Three boundaries, each opened by a race.
        let obj = wait_free_counter(2);
        let mut h0 = obj.owned_handle(0).unwrap();
        let mut h1 = obj.owned_handle(1).unwrap();
        for b in 1..=3u64 {
            let last = b * SEGMENT_CELLS as u64 - 1;
            while h0.replayed_cells() < last {
                h0.apply(CounterOp::Add(1));
            }
            h1.sync_read(|_| ());
            let barrier = std::sync::Barrier::new(2);
            let sealed = std::thread::scope(|s| {
                let a = s.spawn(|| {
                    barrier.wait();
                    h0.checkpoint()
                });
                let b = s.spawn(|| {
                    barrier.wait();
                    h1.checkpoint()
                });
                (a.join().unwrap(), b.join().unwrap())
            });
            assert_eq!(sealed, (last, last), "both absorbed the seal agreed in cell {last}");
            assert_eq!((h0.replayed_cells(), h1.replayed_cells()), (last + 1, last + 1));
            assert!(Arc::ptr_eq(&h0.segment, &h1.segment), "boundary {b} resolved to two segments");
        }
        // The one segment is the log: what one handle places, the other reads.
        h0.apply(CounterOp::Add(1));
        assert_eq!(h1.sync_read(|s| *s), 3 * SEGMENT_CELLS as u64 - 2);
    }

    #[test]
    fn a_log_recovered_mid_segment_works_across_the_next_boundary() {
        // Segments are aligned to absolute indices, so a log recovered at
        // 100 starts 36 cells into the segment [64, 128).
        let obj = Arc::new(Universal::recovered(
            Counter,
            CasFactory::new(Liveness::new_first_n(3, 3)),
            3,
            41,
            100,
        ));
        let mut writer = obj.owned_handle(0).unwrap();
        let mut sealer = obj.owned_handle(1).unwrap();
        let boundary = 2 * SEGMENT_CELLS as u64;
        // Placement fills the segment up to its last cell, and a checkpoint
        // takes that one: the anchor is the next segment's first cell.
        while writer.replayed_cells() < boundary - 1 {
            writer.apply(CounterOp::Add(1));
        }
        assert_eq!(sealer.checkpoint(), boundary - 1);
        assert_eq!(sealer.replay_steps(), boundary - 100, "27 ops and the seal");
        assert_eq!(obj.anchor_index(), boundary);
        // Placement and replay carry on past the boundary.
        for _ in 0..3 {
            writer.apply(CounterOp::Add(1));
        }
        assert_eq!(writer.replayed_cells(), boundary + 3);
        assert_eq!(sealer.sync_read(|s| *s), 41 + 27 + 3);
        // A seal in mid-segment, and a fresh handle that bootstraps there.
        let mid = sealer.checkpoint();
        assert_eq!(offset(mid + 1), 4, "the anchor is in mid-segment");
        let mut fresh = obj.owned_handle(2).unwrap();
        assert_eq!(fresh.replayed_cells(), mid + 1);
        assert!(Arc::ptr_eq(&fresh.segment, &sealer.segment), "the anchor pins the seal's segment");
        assert_eq!(fresh.apply(CounterOp::Get), 71);
        assert_eq!(fresh.replay_steps(), 1, "no replay before the anchor");
    }

    #[test]
    fn sync_read_on_a_recovered_object_starts_at_its_index() {
        let obj = Arc::new(Universal::recovered(
            Counter,
            CasFactory::new(Liveness::new_first_n(2, 2)),
            2,
            41,
            100,
        ));
        let mut h = obj.owned_handle(0).unwrap();
        assert_eq!(h.sync_read(|s| *s), 41);
        assert_eq!(h.replay_steps(), 0, "the tail starts at the recovery index");
    }

    #[test]
    fn sync_read_sees_every_completed_apply_and_is_monotone() {
        // Guests flood (4,1)-live cells while the VIP port only reads. A
        // writer counts an op in `started` before it applies and in
        // `completed` after `apply` returns, so every read is bracketed:
        // completed-before ≤ value ≤ started-after, and never goes back.
        let n = 4;
        let per_thread = 300u64;
        let obj = Arc::new(Universal::new(
            Counter,
            AsymmetricFactory::new(Liveness::new_first_n(n, 1)),
            n,
        ));
        let started = AtomicU64::new(0);
        let completed = AtomicU64::new(0);
        let go = std::sync::Barrier::new(n);
        std::thread::scope(|s| {
            for pid in 1..n {
                let (obj, started, completed, go) = (&obj, &started, &completed, &go);
                s.spawn(move || {
                    let mut h = obj.owned_handle(pid).unwrap();
                    go.wait();
                    for _ in 0..per_thread {
                        started.fetch_add(1, Ordering::SeqCst);
                        h.apply(CounterOp::Add(1));
                        completed.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
            let (obj, started, completed, go) = (&obj, &started, &completed, &go);
            s.spawn(move || {
                let mut h = obj.owned_handle(0).unwrap();
                let total = (n as u64 - 1) * per_thread;
                let mut last = 0;
                go.wait();
                while last < total {
                    let before = completed.load(Ordering::SeqCst);
                    let steps = h.replay_steps();
                    let value = h.sync_read(|s| *s);
                    let after = started.load(Ordering::SeqCst);
                    assert!(value >= before, "missed a completed op: {value} < {before}");
                    assert!(value <= after, "saw an op nobody started: {value} > {after}");
                    assert!(value >= last, "went backwards: {value} < {last}");
                    // One cell per op and nothing else in this log.
                    assert_eq!(h.replay_steps() - steps, value - last);
                    assert!(h.replayed_cells() <= after, "ran past the tail");
                    last = value;
                }
            });
        });
    }

    #[test]
    fn racing_sealers_never_move_the_anchor_backward() {
        // Three ports seal over and over while two write; a watcher reads
        // the anchor throughout. Afterwards a fresh handle starts at the
        // published anchor and reads the exact total.
        let (n, writers, per_writer) = (6, 2u64, 300u64);
        let obj = wait_free_counter(n);
        let sealing = AtomicU64::new(3);
        std::thread::scope(|s| {
            for pid in 0..writers as usize {
                let obj = &obj;
                s.spawn(move || {
                    let mut h = obj.owned_handle(pid).unwrap();
                    for _ in 0..per_writer {
                        h.apply(CounterOp::Add(1));
                    }
                });
            }
            for pid in 2..5 {
                let (obj, sealing) = (&obj, &sealing);
                s.spawn(move || {
                    let mut h = obj.owned_handle(pid).unwrap();
                    for i in 0..40 {
                        if i % 2 == 0 {
                            h.checkpoint();
                        } else {
                            h.reconfigure(CounterOp::Add(0));
                        }
                    }
                    sealing.fetch_sub(1, Ordering::SeqCst);
                });
            }
            let (obj, sealing) = (&obj, &sealing);
            s.spawn(move || {
                let mut last = 0;
                while sealing.load(Ordering::SeqCst) > 0 {
                    let index = obj.anchor_index();
                    assert!(index >= last, "the anchor went back from {last} to {index}");
                    last = index;
                }
            });
        });
        let anchor = obj.anchor_index();
        assert!(anchor > 0, "some seal was published");
        assert!(anchor <= obj.tail.load(Ordering::SeqCst), "the anchor is past no raised tail");
        let mut fresh = obj.owned_handle(5).unwrap();
        assert_eq!(fresh.replayed_cells(), anchor, "a fresh handle starts at the anchor");
        assert_eq!(fresh.sync_read(|s| *s), writers * per_writer);
        assert_eq!(fresh.replay_steps(), fresh.replayed_cells() - anchor);
    }

    #[test]
    fn a_replaying_walker_leaves_the_anchor_where_the_sealer_put_it() {
        let obj = wait_free_counter(4);
        let mut sealer = obj.owned_handle(0).unwrap();
        let mut walker = obj.owned_handle(1).unwrap();
        sealer.apply(CounterOp::Add(1));
        let sealed = sealer.checkpoint() + 1;
        assert_eq!(obj.anchor_index(), sealed);
        // A seal whose publish finds the lock held is skipped, not queued.
        let held = obj.anchor.lock().unwrap();
        sealer.apply(CounterOp::Add(2));
        sealer.reconfigure(CounterOp::Add(3));
        sealer.checkpoint();
        drop(held);
        assert_eq!(obj.anchor_index(), sealed, "a contended publish was skipped");
        // A publish from behind the anchor changes nothing.
        walker.publish_anchor(Some(Arc::new(0)));
        assert_eq!(obj.anchor_index(), sealed, "the anchor moved backward");
        // A walker that crosses both seals, by reading and by applying,
        // publishes neither.
        assert_eq!(walker.sync_read(|s| *s), 6);
        assert_eq!(walker.apply(CounterOp::Add(4)), 10);
        assert_eq!(obj.anchor_index(), sealed, "a replaying walker moved the anchor");
        // A fresh handle starts at the published seal and replays the rest.
        let mut fresh = obj.owned_handle(2).unwrap();
        assert_eq!(fresh.replayed_cells(), sealed);
        assert_eq!(fresh.sync_read(|s| *s), 10);
        assert_eq!(fresh.replay_steps(), 4, "op, reconfiguration, checkpoint, op");
        // The next seal publishes.
        let next = walker.checkpoint() + 1;
        assert_eq!(obj.anchor_index(), next);
        assert_eq!(obj.owned_handle(3).unwrap().replayed_cells(), next);
    }

    #[test]
    fn a_rebased_handle_pins_no_sealed_segment_and_places_each_op_once() {
        // A pair (pid 1, voice 3) writes once under each pid and goes idle
        // at cell 2, while port 0 writes three segments' worth and seals.
        let obj = wait_free_counter(4);
        let mut sealer = obj.owned_handle(0).unwrap();
        let mut idle = obj.owned_pair(1, 3).unwrap();
        idle.apply(CounterOp::Add(1));
        idle.apply_as(3, CounterOp::Add(1)).unwrap();
        while sealer.replayed_cells() < 3 * SEGMENT_CELLS as u64 {
            sealer.apply(CounterOp::Add(1));
        }
        let sealed = sealer.checkpoint() + 1;
        assert_eq!(obj.anchor_index(), sealed);
        // The segments from the idle cursor's up to the anchor's are sealed,
        // and the idle handle is what keeps them.
        let anchor = Arc::clone(&obj.anchor.lock().unwrap().segment);
        let mut segment = Arc::clone(&idle.segment);
        let mut sealed_segments = Vec::new();
        while !Arc::ptr_eq(&segment, &anchor) {
            sealed_segments.push(Arc::downgrade(&segment));
            segment = segment.next.load().expect("the log is linked up to the anchor");
        }
        drop((segment, anchor));
        assert_eq!(sealed_segments.len(), 3);
        let steps = idle.replay_steps();
        let displaced = idle.rebase().expect("a handle behind the anchor is re-based");
        assert_eq!(idle.replayed_cells(), sealed, "a re-based handle starts at the anchor");
        assert_eq!(idle.replay_steps(), steps, "and keeps its meter");
        let shared = Arc::ptr_eq(idle.replica(), &obj.anchor.lock().unwrap().state);
        assert!(shared, "a re-based handle shares the anchor's state");
        assert!(sealed_segments.iter().all(|s| s.upgrade().is_some()), "kept until dropped");
        drop(displaced);
        assert!(
            sealed_segments.iter().all(|s| s.upgrade().is_none()),
            "a sealed segment is pinned"
        );
        // Its next operation under each pid takes one cell and is answered
        // once, under the pid's next sequence number.
        let before = *idle.local_state();
        assert_eq!(idle.apply(CounterOp::Add(10)), before + 10);
        assert_eq!(idle.apply_as(3, CounterOp::Add(100)), Ok(before + 110));
        assert_eq!(idle.replayed_cells(), sealed + 2, "one cell each");
        let mut fresh = obj.owned_handle(2).unwrap();
        assert_eq!(fresh.sync_read(|s| *s), before + 110);
        assert_eq!(fresh.replay_steps(), 2, "nothing else was placed");
        assert_eq!((fresh.applied[1], fresh.applied[3]), (2, 2), "each pid's second operation");
    }

    #[test]
    fn a_handle_at_or_past_the_anchor_is_not_rebased() {
        let obj = wait_free_counter(4);
        let mut sealer = obj.owned_handle(0).unwrap();
        let mut reader = obj.owned_handle(1).unwrap();
        let mut writer = obj.owned_handle(2).unwrap();
        let mut behind = obj.owned_handle(3).unwrap();
        sealer.apply(CounterOp::Add(1));
        let sealed = sealer.checkpoint() + 1;
        // At the anchor: the sealer, whose replica the anchor shares, and a
        // reader that crossed the seal with a replica of its own. Past it:
        // a writer.
        assert_eq!(reader.sync_read(|s| *s), 1);
        assert_eq!(writer.apply(CounterOp::Add(2)), 3);
        assert!(!Arc::ptr_eq(reader.replica(), &obj.anchor.lock().unwrap().state));
        for (name, h) in [("sealer", &mut sealer), ("reader", &mut reader), ("writer", &mut writer)]
        {
            let (cursor, replica) = (h.replayed_cells(), Arc::as_ptr(h.replica()));
            assert!(h.rebase().is_none(), "the {name} was re-based from {cursor}, anchor {sealed}");
            assert_eq!((h.replayed_cells(), Arc::as_ptr(h.replica())), (cursor, replica));
        }
        // Behind it: re-based, and it reads what the others do.
        assert!(behind.rebase().is_some());
        assert_eq!(behind.replayed_cells(), sealed);
        assert_eq!(behind.sync_read(|s| *s), 3);
        assert_eq!(reader.sync_read(|s| *s), 3);
    }

    #[test]
    fn a_new_handle_shares_the_anchors_state_until_its_first_applying_cell() {
        let recovered: std::collections::BTreeMap<String, u64> =
            (0..16).map(|k| (format!("k{k}"), k)).collect();
        let obj = Arc::new(Universal::recovered(
            KvStore,
            CasFactory::new(Liveness::new_first_n(3, 3)),
            3,
            recovered.clone(),
            10,
        ));
        let anchor = || Arc::clone(&obj.anchor.lock().unwrap().state);
        let mut pair = obj.owned_pair(0, 2).unwrap();
        let mut other = obj.owned_handle(1).unwrap();
        assert!(Arc::ptr_eq(pair.replica(), &anchor()), "a new handle copied the anchor's state");
        // A checkpoint carries no operation: it seals the replica itself,
        // and crossing it writes nothing.
        other.checkpoint();
        assert!(Arc::ptr_eq(other.replica(), &anchor()), "a checkpoint copied its replica");
        pair.sync_read(|_| ());
        assert_eq!(pair.replayed_cells(), obj.anchor_index());
        assert!(Arc::ptr_eq(pair.replica(), &anchor()), "crossing a checkpoint copied");
        // The first cell with an operation, even a read, writes a copy.
        other.apply(KvOp::Get("k1".into()));
        assert_eq!(pair.sync_read(|s| s.len()), 16);
        assert!(!Arc::ptr_eq(pair.replica(), &anchor()), "a written replica is its own");
        assert_eq!(pair.apply_as(2, KvOp::Put("k1".into(), 99)), Ok(Some(1)));
        assert_eq!(*anchor(), recovered, "the anchor's state was written through a handle");
    }

    #[test]
    fn asymmetric_checkpoint_respects_helping() {
        // A guest checkpoints while the VIP operates: the VIP's operations
        // all complete (the checkpointer helps pending announcements).
        let n = 3;
        let obj = Arc::new(Universal::new(
            Counter,
            AsymmetricFactory::new(Liveness::new_first_n(n, 1)),
            n,
        ));
        std::thread::scope(|s| {
            let obj = &obj;
            s.spawn(move || {
                let mut vip = obj.owned_handle(0).unwrap();
                for _ in 0..30 {
                    vip.apply(CounterOp::Add(1));
                }
            });
            s.spawn(move || {
                let mut g = obj.owned_handle(1).unwrap();
                for _ in 0..5 {
                    g.checkpoint();
                }
            });
        });
        let mut reader = obj.owned_handle(2).unwrap();
        assert_eq!(reader.apply(CounterOp::Get), 30);
    }
}
