//! Op-granular write-ahead log: the durability layer between checkpoints.
//!
//! The [`persist`](crate::persist) layer's guarantee is *prefix consistency
//! as of the last snapshot flush* — every commit since the last checkpoint
//! dies with the process. This module closes that window with an
//! append-only, segmented WAL that logs the **resolved effects** of every
//! mutating batch between checkpoints, and — the paper's thesis extended
//! to durability — makes durability an **asymmetric progress class of its
//! own**:
//!
//! * **guest / default** ([`DurabilityClass::Group`]): a commit enqueues
//!   its frame into the coalescing buffer and returns; a background
//!   flusher (or the next [`Wal::sync`] caller) writes and fsyncs many
//!   frames per cycle — the group-commit win. A crash may lose the frames
//!   buffered since the last cycle, and recovery restores a *consistent
//!   per-shard prefix* of what was logged;
//! * **VIP opt-in** ([`DurabilityClass::Sync`], via
//!   [`Client::request`](crate::store::Client::request)):
//!   the commit returns only after its frame — and everything enqueued
//!   before it — is fsync'd. Acknowledged sync commits survive a kill at
//!   any point. Only the VIP tier may opt in: hard guarantees are bounded,
//!   exactly as the admission layer bounds the wait-free tier.
//!
//! ## Why effects, not operations
//!
//! A frame records what a batch **did** (`key → Some(value)` /
//! `key → None`), with compare-and-set resolved at its linearization
//! point. Effects are absolute, so replay is idempotent (last writer wins
//! per key) and re-applying an effect already captured by a snapshot is
//! harmless. Each frame is stamped with the committing shard's
//! `(epoch, shard, cell)` — the cell index comes from the committing
//! port's own replay cursor, which is exact at commit time — so recovery
//! can sort frames into per-shard linearization order even when two ports
//! of one shard raced to the buffer in the wrong order. Effects are
//! re-applied **by key** through fresh routing, which makes replay
//! indifferent to splits and merges that happened after the snapshot.
//!
//! ## On-disk format (version 1, little-endian)
//!
//! ```text
//! segment file "wal-{seq:016x}.apcw":
//!   header: "APCW" | version u32 | segment_seq u64          (16 bytes)
//!   frame ×N: payload_len u32 | payload | fnv1a64(payload) u64
//!     payload: epoch u64 | shard u32 | cell u64 | class u8 |
//!              effect_count u32 |
//!              effect ×count: tag u8 (0 = set, 1 = delete) |
//!                             key_len u32 | key bytes |
//!                             value u64 (tag 0 only)
//! ```
//!
//! Frames and primitives are [`frame`]'s, shared with the wire codec.
//!
//! Segments rotate at [`WalConfig::segment_bytes`] and are truncated at
//! each checkpoint seal: [`Persister`](crate::persist::Persister) rotates
//! to a fresh segment *before* sealing, writes the snapshot, and deletes
//! every segment older than the rotation point — safe because any frame
//! in an older segment logs a cell below its shard's seal index, so its
//! effect is inside the snapshot (and re-applying it would be a no-op
//! anyway).
//!
//! ## Group commit and lock order
//!
//! The WAL is the store's one group commit. A frame's generation is its
//! place in the buffer. One **flush lock**, the *log* lock over the open
//! segment and the ledger of cycles, is held across a whole
//! write-and-fsync cycle. Under it, [`Wal::sync`] either finds its
//! generation taken by another caller's cycle (coalesced) and returns that
//! cycle's outcome, or runs the next cycle itself, taking every frame
//! buffered so far. The flusher, the `Sync` waiters and a checkpoint's
//! rotation all race for this lock, so each cycle's take and outcome go
//! into the ledger under it, and a sync is `Ok` iff **the cycle that took
//! its frames** succeeded: a later success never acknowledges an earlier
//! failure, whose frames were dropped. A cycle that panics leaves its take
//! unsettled and the lock poisoned; the lock is recovered from poison and
//! the ledger reads an unsettled take as failed, so a panic costs its own
//! frames an `Err` and wedges nobody. The *buffer* lock covers only what
//! [`Wal::enqueue`] touches, and a cycle holds it just long enough to take
//! the buffer, so an enqueue never waits on an fsync.
//!
//! Locks are taken in one order: persister flush → WAL log → WAL buffer (a
//! checkpoint seal rotates the WAL under the persister's flush lock), and
//! admin → port → WAL buffer (a commit enqueues its frame under its port
//! lock); the waiting arm takes admin holding nothing. No port lock is
//! held across [`Wal::sync`]. Every lock is recovered from poison.
//!
//! ## Failure policy
//!
//! Decoding fails closed with typed [`PersistError`]s. A **torn tail** —
//! the unique suffix a crash can tear, with no valid frame anywhere after
//! it — is expected damage: the valid prefix is recovered and the tear is
//! counted ([`WalRecovery::torn_tail`]). A bad frame **followed by a
//! valid one** (a bit flip in the middle of the log) is not crash damage
//! and recovery refuses it outright.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, PoisonError, Weak};
use std::time::Duration;

use apc_obs::MetricsSnapshot;
use apc_progress_macros::progress;

use crate::frame::{self, put_str, put_u32, put_u64, Cursor, Next};
use crate::metrics::{elapsed_ns, WalMetrics};
use crate::ops::{Key, StoreOp, StoreResp};
use crate::persist::{lock_unpoisoned, PersistError};

/// Magic bytes opening every WAL segment file.
pub const WAL_MAGIC: [u8; 4] = *b"APCW";

/// Current WAL segment format version.
pub const WAL_VERSION: u32 = 1;

/// Segment header size: magic + version + segment sequence number.
const SEGMENT_HEADER: usize = 16;

/// Upper bound on one frame's payload — a decode-time sanity cap so a
/// corrupted length field cannot make the reader attempt a huge
/// allocation.
const MAX_FRAME_PAYLOAD: u32 = 16 << 20;

/// The durability class of one commit — the paper's asymmetric progress
/// conditions applied to the durability axis.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum DurabilityClass {
    /// Ride the coalesced group-commit flusher (the default): the commit
    /// returns as soon as its frame is buffered; a crash may lose frames
    /// buffered since the last flush cycle.
    #[default]
    Group,
    /// Synchronous durability (VIP opt-in): the commit returns only after
    /// its frame is fsync'd. See
    /// [`Client::request`](crate::store::Client::request).
    Sync,
}

/// Flush cadence of the background flusher: the longest a buffered
/// group-commit frame waits before a write-and-fsync cycle.
const FLUSH_INTERVAL: Duration = Duration::from_millis(2);

/// The flusher is nudged early once this many frames are buffered — the
/// largest coalescing window of one group commit.
const MAX_COALESCED_FRAMES: u64 = 128;

/// The WAL's settings: its segment size and whether a background flusher
/// runs. [`Persister`](crate::persist::Persister) carries them via
/// [`Persister::with_wal`](crate::persist::Persister::with_wal).
#[derive(Copy, Clone, Debug)]
pub struct WalConfig {
    /// Rotate to a fresh segment once the current one exceeds this many
    /// bytes (checkpoint seals also rotate, regardless of size).
    pub segment_bytes: u64,
    /// Spawn the background flusher thread. Without it, frames are only
    /// flushed by [`Wal::sync`] callers (sync commits and checkpoint
    /// rotations) — useful for deterministic tests.
    pub background_flusher: bool,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig { segment_bytes: 4 << 20, background_flusher: true }
    }
}

/// One logged commit: the resolved effects of a mutating batch, stamped
/// with its per-shard linearization position.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WalFrame {
    /// The committing shard instance's creation/split epoch
    /// ([`ShardState::epoch`](crate::ops::ShardState::epoch)) — the major
    /// replay sort key: a key's writes on an earlier shard instance all
    /// precede its writes on a later one.
    pub epoch: u64,
    /// The shard id the batch committed on.
    pub shard: u32,
    /// The committing port's replay cursor right after the append — one
    /// past the batch's own log cell, exact and monotone per shard.
    pub cell: u64,
    /// The durability class the commit was issued under.
    pub class: DurabilityClass,
    /// Resolved effects in batch order: `Some(v)` writes, `None` deletes.
    /// Failed CAS and read-only ops contribute nothing.
    pub effects: Vec<(Key, Option<u64>)>,
}

/// Everything [`Wal::open`] recovered from the segments already on disk,
/// consumed by
/// [`StoreBuilder::recover_with_wal`](crate::StoreBuilder::recover_with_wal).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct WalRecovery {
    /// Every decoded frame, in file order.
    pub frames: Vec<WalFrame>,
    /// Whether a torn tail was cut off (expected crash damage; the frames
    /// above are the valid prefix).
    pub torn_tail: bool,
    /// Segments scanned.
    pub segments: u64,
}

impl WalRecovery {
    /// Collapses the recovered frames into one final effect per key, in
    /// per-shard linearization order: frames sort by
    /// `(epoch, shard, cell)` — exact within a shard instance, and
    /// instance-ordered for keys that migrated across a split or merge —
    /// then fold left, last writer per key winning.
    pub fn collapsed_effects(&self) -> BTreeMap<Key, Option<u64>> {
        let mut ordered: Vec<&WalFrame> = self.frames.iter().collect();
        ordered.sort_by_key(|f| (f.epoch, f.shard, f.cell));
        let mut out = BTreeMap::new();
        for frame in ordered {
            for (key, effect) in &frame.effects {
                out.insert(key.clone(), *effect);
            }
        }
        out
    }
}

/// Resolves the effects of one committed batch from its `(op, response)`
/// pairs, as decided at the batch's linearization point: a `Put` sets, a
/// `Remove` deletes, a *successful* `Cas` sets its new value; reads,
/// failed CAS, and bounced (`Moved`) operations have no effect. The
/// result is what a [`WalFrame`] records — absolute last-writer-wins
/// effects, which is what makes replay idempotent.
pub fn resolved_effects(ops: &[StoreOp], resps: &[StoreResp]) -> Vec<(Key, Option<u64>)> {
    ops.iter()
        .zip(resps)
        .filter_map(|(op, resp)| match (op, resp) {
            (_, StoreResp::Moved { .. }) => None,
            (StoreOp::Put(key, value), _) => Some((key.clone(), Some(*value))),
            (StoreOp::Remove(key), _) => Some((key.clone(), None)),
            (StoreOp::Cas { key, new, .. }, StoreResp::Cas { ok: true, .. }) => {
                Some((key.clone(), Some(*new)))
            }
            _ => None,
        })
        .collect()
}

/// The write half of one open segment.
struct SegmentWriter {
    file: fs::File,
    /// Bytes written so far, header included (the rotation meter).
    bytes: u64,
}

/// What [`Wal::enqueue`] touches, behind the buffer lock: a cycle holds
/// this lock only to take the buffer, so an enqueue never waits on an
/// fsync.
#[derive(Default)]
struct Buffer {
    /// Encoded frames awaiting their write-and-fsync cycle.
    pending: Vec<u8>,
    /// Frames inside `pending`.
    pending_frames: u64,
    /// Generation of the newest enqueued frame.
    appended: u64,
    /// Set by [`Wal::simulate_crash`]: enqueues become no-ops and the
    /// flusher exits.
    shutdown: bool,
}

/// The WAL's flush lock: the open segment and the ledger of every
/// write-and-fsync cycle, held across the write and the fsync.
struct Log {
    /// The segment directory.
    dir: PathBuf,
    /// The size threshold that rolls to the next segment.
    segment_bytes: u64,
    /// The open segment.
    writer: SegmentWriter,
    /// Sequence number of the open segment.
    seg_seq: u64,
    /// Which generations each cycle took, and how it ended.
    ledger: Ledger,
}

/// The channel between the WAL and its background flusher thread. Kept
/// outside [`Wal`] (its own `Arc`) so the thread can sleep without holding
/// the WAL alive — a dropped WAL must actually drop.
struct FlusherSignal {
    state: Mutex<FlusherNudge>,
    cv: Condvar,
}

#[derive(Default)]
struct FlusherNudge {
    nudged: bool,
    shutdown: bool,
}

/// The op-granular write-ahead log: an append-only sequence of effect
/// frames in rotated, checksummed segment files, with a coalescing
/// group-commit flusher. See the [module docs](self).
pub struct Wal {
    dir: PathBuf,
    cfg: WalConfig,
    buffer: Mutex<Buffer>,
    log: Mutex<Log>,
    signal: Arc<FlusherSignal>,
    /// WAL instruments — atomics outside both locks, so scraping never
    /// queues behind an in-flight fsync.
    metrics: WalMetrics,
    /// Frames recovered from pre-existing segments at open, taken once by
    /// [`StoreBuilder::recover_with_wal`](crate::StoreBuilder::recover_with_wal).
    recovered: Mutex<Option<WalRecovery>>,
}

impl fmt::Debug for Wal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Wal").field("dir", &self.dir).field("cfg", &self.cfg).finish()
    }
}

impl Wal {
    /// Opens a WAL in `dir` (created if missing): scans any segments a
    /// previous process left behind (fail-closed; see the
    /// [module docs](self) failure policy), then starts a **fresh**
    /// segment after the highest existing sequence — an old segment is
    /// never appended to, so recovery never has to distinguish two
    /// processes' writes inside one file.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] if the directory or segment cannot be
    /// created, any decode variant if the existing segments are corrupt
    /// beyond a torn tail.
    pub fn open(dir: impl Into<PathBuf>, cfg: WalConfig) -> Result<Arc<Wal>, PersistError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let (recovery, next_seq) = read_segments(&dir)?;
        let metrics = WalMetrics::new();
        metrics.set_replay_frames(recovery.frames.len() as u64);
        if recovery.torn_tail {
            metrics.record_torn_tail();
        }
        let writer = open_segment(&dir, next_seq)?;
        let wal = Arc::new(Wal {
            buffer: Mutex::new(Buffer::default()),
            log: Mutex::new(Log {
                dir: dir.clone(),
                segment_bytes: cfg.segment_bytes,
                writer,
                seg_seq: next_seq,
                ledger: Ledger::default(),
            }),
            dir,
            cfg,
            signal: Arc::new(FlusherSignal {
                state: Mutex::new(FlusherNudge::default()),
                cv: Condvar::new(),
            }),
            metrics,
            recovered: Mutex::new(Some(recovery)),
        });
        if cfg.background_flusher {
            let weak = Arc::downgrade(&wal);
            let signal = Arc::clone(&wal.signal);
            std::thread::spawn(move || flusher_loop(weak, signal));
        }
        Ok(wal)
    }

    /// Takes the frames recovered from pre-existing segments (once).
    pub(crate) fn take_recovered(&self) -> Option<WalRecovery> {
        lock_unpoisoned(&self.recovered).take()
    }

    /// A wait-free scrape of the WAL's metric series (appends, flush
    /// cycles, fsync latency, group sizes, rotations, truncations). A
    /// store built with this WAL appends them to its own
    /// [`Store::scrape`](crate::Store::scrape). Reads atomics
    /// only — never a WAL lock — so a dashboard poller cannot queue
    /// behind an in-flight fsync.
    #[progress(wait_free)]
    pub fn scrape(&self) -> MetricsSnapshot {
        MetricsSnapshot { samples: self.metrics.samples() }
    }

    /// The WAL's instrument registry (commit-path counters live here so
    /// the store can record sync denials without locking).
    pub(crate) fn metrics(&self) -> &WalMetrics {
        &self.metrics
    }

    /// Enqueues one frame into the group-commit buffer and returns its
    /// generation (a ticket [`Wal::sync`] can wait on). Never blocks on
    /// I/O: the critical section is an encode-and-append under the buffer
    /// lock. Frames enqueued after [`Wal::simulate_crash`] are silently
    /// discarded — a crashed log writes nothing.
    ///
    /// Durability is classless here: the *frame* records the commit's
    /// class for recovery accounting, but blocking-until-fsync is the
    /// caller's choice, made by following up with [`Wal::sync`].
    #[progress(blocking)]
    pub fn enqueue(&self, frame: &WalFrame) -> u64 {
        let mut buf = lock_unpoisoned(&self.buffer);
        if buf.shutdown {
            return buf.appended;
        }
        let before = buf.pending.len();
        encode_frame(&mut buf.pending, frame);
        let bytes = (buf.pending.len() - before) as u64;
        buf.pending_frames += 1;
        buf.appended += 1;
        let gen = buf.appended;
        let nudge = buf.pending_frames >= MAX_COALESCED_FRAMES;
        drop(buf);
        self.metrics.record_append(bytes, frame.class);
        if nudge {
            // The buffer reached the coalescing cap: wake the flusher early.
            self.signal_flusher(|sig| sig.nudged = true);
        }
        gen
    }

    /// Blocks until every frame enqueued before this call is fsync'd —
    /// the synchronous-durability wait. Concurrent callers coalesce: under
    /// the flush lock, a caller whose frames another caller's cycle
    /// already took returns that cycle's outcome, and any other runs the
    /// next cycle itself.
    ///
    /// # Errors
    ///
    /// `Ok` iff the cycle that took this call's frames succeeded — then
    /// they are durably on disk. `Err` with that cycle's error otherwise
    /// (its frames were dropped), or if that cycle panicked.
    #[progress(blocking)]
    pub fn sync(&self) -> Result<(), PersistError> {
        let gen = lock_unpoisoned(&self.buffer).appended;
        let mut log = lock_unpoisoned(&self.log);
        match log.ledger.outcome(gen) {
            Some(outcome) => outcome,
            None => log.write_cycle(&self.buffer, &self.metrics),
        }
    }

    /// Rotates to a fresh segment and returns its sequence number — the
    /// checkpoint-coordination point: the caller seals its snapshot
    /// *after* rotating, then calls [`Wal::truncate_before`] with the
    /// returned sequence once the snapshot is durably renamed. Pending
    /// frames are flushed (and fsync'd) into the old segment first, so
    /// the rotation point cleanly separates pre-seal from post-seal
    /// frames.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] if the flush or the new segment's creation
    /// fails (the WAL stays usable on its old segment).
    #[progress(blocking)]
    pub(crate) fn rotate(&self) -> Result<u64, PersistError> {
        let mut log = lock_unpoisoned(&self.log);
        log.write_cycle(&self.buffer, &self.metrics)?;
        log.roll_segment(&self.metrics)
    }

    /// Deletes every segment with a sequence number below `seq` (parsed
    /// from the file names this module writes; foreign files are left
    /// alone). Returns how many were removed. Called by the
    /// [`Persister`](crate::persist::Persister) after its snapshot rename
    /// lands — see [`Wal::rotate`] for why this is safe.
    #[progress(blocking)]
    pub(crate) fn truncate_before(&self, seq: u64) -> u64 {
        let mut deleted = 0;
        let Ok(entries) = fs::read_dir(&self.dir) else { return 0 };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(s) = name.to_str().and_then(segment_seq_of) else { continue };
            if s < seq && fs::remove_file(entry.path()).is_ok() {
                deleted += 1;
            }
        }
        if deleted > 0 {
            self.metrics.record_truncation(deleted);
        }
        deleted
    }

    /// Frames buffered but not yet flushed (test/diagnostic visibility).
    #[progress(blocking)]
    pub fn pending_frames(&self) -> u64 {
        lock_unpoisoned(&self.buffer).pending_frames
    }

    /// Fault-injection hook: model a process kill. The buffer is
    /// discarded un-written (exactly what a crash does to it), the
    /// flusher is stopped, and every later enqueue is a no-op. The
    /// segment files are left as the "dead process" wrote them, ready to
    /// be recovered — or further mutilated — by a test.
    pub fn simulate_crash(&self) {
        {
            let mut buf = lock_unpoisoned(&self.buffer);
            buf.shutdown = true;
            buf.pending.clear();
            buf.pending_frames = 0;
        }
        self.signal_flusher(|sig| sig.shutdown = true);
    }

    /// Sets a flag for the background flusher and wakes it.
    fn signal_flusher(&self, set: impl FnOnce(&mut FlusherNudge)) {
        set(&mut lock_unpoisoned(&self.signal.state));
        self.signal.cv.notify_all();
    }
}

impl Log {
    /// One write-and-fsync cycle, run under the flush lock: takes every
    /// buffered frame, records their generations in the ledger, writes
    /// and fsyncs them, and settles the ledger with the outcome. `Ok` at
    /// once if nothing is buffered.
    fn write_cycle(
        &mut self,
        buffer: &Mutex<Buffer>,
        metrics: &WalMetrics,
    ) -> Result<(), PersistError> {
        let (batch, frames, target) = {
            let mut buf = lock_unpoisoned(buffer);
            let frames = std::mem::take(&mut buf.pending_frames);
            (std::mem::take(&mut buf.pending), frames, buf.appended)
        };
        if frames == 0 {
            return Ok(());
        }
        self.ledger.take_through(target);
        let start = std::time::Instant::now();
        let outcome = self.write_batch(&batch, metrics);
        metrics.record_flush(elapsed_ns(start), frames, outcome.is_ok());
        self.ledger.settle(outcome.clone());
        outcome
    }

    /// Writes one batch to the open segment and fsyncs it, rolling to the
    /// next segment first if this one is over its size threshold.
    fn write_batch(&mut self, batch: &[u8], metrics: &WalMetrics) -> Result<(), PersistError> {
        if self.writer.bytes >= self.segment_bytes {
            // The full segment was fsync'd by the cycle that filled it.
            self.roll_segment(metrics)?;
        }
        self.writer.file.write_all(batch)?;
        self.writer.file.sync_all()?;
        self.writer.bytes += batch.len() as u64;
        Ok(())
    }

    /// Opens the next segment and makes it the one written to; returns its
    /// sequence number. On failure the open segment stays in use.
    fn roll_segment(&mut self, metrics: &WalMetrics) -> Result<u64, PersistError> {
        let next = self.seg_seq + 1;
        self.writer = open_segment(&self.dir, next)?;
        self.seg_seq = next;
        metrics.record_rotation();
        Ok(next)
    }
}

/// The record of the WAL's group-commit cycles: which generations each
/// cycle took and how it ended. Read and written only under the log lock,
/// so the one take a reader can find unsettled is a take whose cycle
/// panicked.
#[derive(Debug, Default)]
struct Ledger {
    /// Highest generation any cycle has taken.
    taken: u64,
    /// Highest generation whose cycle has settled; below `taken` only
    /// while the newest take is open.
    settled: u64,
    /// The failed ranges `(lo, hi]`, oldest first, each with its cycle's
    /// error. At most [`LEDGER_FAILURES`] of them.
    failed: Vec<(u64, u64, PersistError)>,
    /// Cycles taken.
    cycles: u64,
}

/// How many failed ranges a [`Ledger`] keeps apart. Past it the two oldest
/// merge into one, which can make a success between them read `Err` to a
/// caller that asks that late: conservative, never a false `Ok`.
const LEDGER_FAILURES: usize = 64;

impl Ledger {
    /// A cycle starts, covering every generation up to `target`. A take
    /// that never settled (its cycle panicked) is settled as failed first.
    fn take_through(&mut self, target: u64) {
        if self.settled < self.taken {
            self.settle(Err(abandoned()));
        }
        self.taken = self.taken.max(target);
        self.cycles += 1;
    }

    /// The cycle that took last ends with `result`.
    fn settle(&mut self, result: Result<(), PersistError>) {
        if let Err(e) = result {
            if self.failed.len() == LEDGER_FAILURES {
                let (_, hi, _) = self.failed.remove(1);
                self.failed[0].1 = hi;
            }
            self.failed.push((self.settled, self.taken, e));
        }
        self.settled = self.taken;
    }

    /// How the cycle that took `gen` ended: `None` until some cycle takes
    /// it, `Err` if that cycle failed or was abandoned, `Ok` otherwise. A
    /// later success never turns an earlier failure into `Ok`.
    fn outcome(&self, gen: u64) -> Option<Result<(), PersistError>> {
        if gen > self.taken {
            return None;
        }
        if gen > self.settled {
            return Some(Err(abandoned()));
        }
        let i = self.failed.partition_point(|&(_, hi, _)| hi < gen);
        Some(match self.failed.get(i) {
            Some((lo, _, e)) if *lo < gen => Err(e.clone()),
            _ => Ok(()),
        })
    }
}

/// The error of a generation whose cycle panicked before it settled.
fn abandoned() -> PersistError {
    PersistError::Io {
        kind: io::ErrorKind::Other,
        msg: "the flush cycle that took this request panicked".into(),
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        // Stop the flusher, then make a clean shutdown durable (a crash
        // never runs this — tests model one with `simulate_crash`).
        self.signal_flusher(|sig| sig.shutdown = true);
        if self.buffer.get_mut().unwrap_or_else(PoisonError::into_inner).shutdown {
            return;
        }
        let log = self.log.get_mut().unwrap_or_else(PoisonError::into_inner);
        let _ = log.write_cycle(&self.buffer, &self.metrics);
    }
}

/// The background flusher: sleeps on its own signal (holding only a
/// [`Weak`] to the WAL, so a dropped WAL actually drops), wakes on the
/// cadence or an early nudge, and runs one flush cycle if there is work.
fn flusher_loop(weak: Weak<Wal>, signal: Arc<FlusherSignal>) {
    loop {
        {
            let mut sig = lock_unpoisoned(&signal.state);
            if !sig.nudged && !sig.shutdown {
                sig = signal
                    .cv
                    .wait_timeout(sig, FLUSH_INTERVAL)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
            if sig.shutdown {
                return;
            }
            sig.nudged = false;
        }
        let Some(wal) = weak.upgrade() else { return };
        if lock_unpoisoned(&wal.buffer).shutdown {
            return;
        }
        let _ = lock_unpoisoned(&wal.log).write_cycle(&wal.buffer, &wal.metrics);
        // `wal` drops here: the thread never holds the Arc across a sleep.
    }
}

/// Opens (creates) segment `seq` and writes its header; best-effort
/// fsyncs the directory so the creation itself survives a crash.
fn open_segment(dir: &Path, seq: u64) -> Result<SegmentWriter, PersistError> {
    let path = dir.join(segment_name(seq));
    let mut file = fs::File::create(&path)?;
    let mut header = Vec::with_capacity(SEGMENT_HEADER);
    header.extend_from_slice(&WAL_MAGIC);
    put_u32(&mut header, WAL_VERSION);
    put_u64(&mut header, seq);
    file.write_all(&header)?;
    file.sync_all()?;
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(SegmentWriter { file, bytes: SEGMENT_HEADER as u64 })
}

/// The file name of segment `seq`.
pub(crate) fn segment_name(seq: u64) -> String {
    format!("wal-{seq:016x}.apcw")
}

/// Parses a segment sequence number back out of a file name written by
/// [`segment_name`]; `None` for foreign files.
fn segment_seq_of(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("wal-")?.strip_suffix(".apcw")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// Appends one frame to `buf`.
fn encode_frame(buf: &mut Vec<u8>, frame: &WalFrame) {
    let start = frame::begin(buf);
    put_u64(buf, frame.epoch);
    put_u32(buf, frame.shard);
    put_u64(buf, frame.cell);
    buf.push(match frame.class {
        DurabilityClass::Group => 0,
        DurabilityClass::Sync => 1,
    });
    put_u32(buf, frame.effects.len() as u32);
    for (key, effect) in &frame.effects {
        buf.push(match effect {
            Some(_) => 0,
            None => 1,
        });
        put_str(buf, key);
        if let Some(value) = effect {
            put_u64(buf, *value);
        }
    }
    frame::seal(buf, start);
}

/// Decodes one frame's payload.
fn decode_payload(payload: &[u8]) -> Result<WalFrame, PersistError> {
    let mut r = Cursor::new(payload);
    let epoch = r.u64()?;
    let shard = r.u32()?;
    let cell = r.u64()?;
    let class = match r.u8()? {
        0 => DurabilityClass::Group,
        1 => DurabilityClass::Sync,
        _ => return Err(PersistError::Corrupt("unknown durability class tag")),
    };
    let count = r.u32()? as usize;
    let mut effects = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        let tag = r.u8()?;
        let key = r.str()?.to_owned();
        let effect = match tag {
            0 => Some(r.u64()?),
            1 => None,
            _ => return Err(PersistError::Corrupt("unknown WAL effect tag")),
        };
        effects.push((key, effect));
    }
    r.finish()?;
    Ok(WalFrame { epoch, shard, cell, class, effects })
}

/// One segment's parse result: the frames that decoded cleanly, and the
/// first failure (if any) with whether any *valid* frame follows it.
struct SegmentScan {
    seq: u64,
    frames: Vec<WalFrame>,
    failure: Option<PersistError>,
    /// A valid frame decodes *after* the failure — mid-log corruption,
    /// never crash damage.
    valid_after_failure: bool,
}

/// Parses one segment file.
fn scan_segment(path: &Path) -> Result<SegmentScan, PersistError> {
    let mut bytes = Vec::new();
    fs::File::open(path)?.read_to_end(&mut bytes)?;
    let mut header = Cursor::new(&bytes);
    let (Ok(magic), Ok(version), Ok(seq)) = (header.take(4), header.u32(), header.u64()) else {
        // A header torn mid-write: structurally empty. Whether that is
        // tolerable (tail) or not (middle) is the caller's call.
        return Ok(SegmentScan {
            seq: u64::MAX,
            frames: Vec::new(),
            failure: Some(PersistError::Truncated {
                needed: SEGMENT_HEADER,
                available: bytes.len(),
            }),
            valid_after_failure: false,
        });
    };
    if magic != WAL_MAGIC {
        return Err(PersistError::BadMagic);
    }
    if version == 0 || version > WAL_VERSION {
        return Err(PersistError::UnsupportedVersion { found: version });
    }
    let (mut frames, mut pos, mut failure) = (Vec::new(), header.pos(), None);
    while pos < bytes.len() && failure.is_none() {
        match scan_frame(&bytes, pos) {
            Ok((frame, next)) => {
                frames.push(frame);
                pos = next;
            }
            Err(failed) => failure = Some(failed),
        }
    }
    // Look past the failure: if the bad frame's extent was still readable,
    // a valid frame right after it proves mid-log corruption.
    let valid_after_failure = matches!(failure, Some((_, end))
        if end > 0 && end < bytes.len() && scan_frame(&bytes, end).is_ok());
    Ok(SegmentScan { seq, frames, failure: failure.map(|(e, _)| e), valid_after_failure })
}

/// Decodes the frame starting at `pos`. On success returns the frame and
/// the next frame's offset; on failure, the error and the offset just
/// past the frame's claimed extent (0 when even that is unknowable —
/// i.e. the tear reaches the end of the file).
fn scan_frame(bytes: &[u8], pos: usize) -> Result<(WalFrame, usize), (PersistError, usize)> {
    let available = bytes.len() - pos;
    match frame::next(&bytes[pos..], MAX_FRAME_PAYLOAD) {
        Next::Frame(payload, end) => {
            decode_payload(payload).map(|frame| (frame, pos + end)).map_err(|e| (e, pos + end))
        }
        Next::Short(short) => {
            Err((PersistError::Truncated { needed: available + short, available }, 0))
        }
        Next::OverCap(_) => {
            Err((PersistError::Corrupt("WAL frame length exceeds the sanity cap"), 0))
        }
        Next::BadChecksum(end) => Err((PersistError::ChecksumMismatch { shard: None }, pos + end)),
    }
}

/// Scans every segment in `dir`, applying the failure policy from the
/// [module docs](self): a failure qualifies as a torn tail only when no
/// valid frame exists anywhere after it — in its own segment or a later
/// one. Returns the recovery and the sequence number the next fresh
/// segment should use.
fn read_segments(dir: &Path) -> Result<(WalRecovery, u64), PersistError> {
    let mut paths: Vec<(u64, PathBuf)> = Vec::new();
    for entry in fs::read_dir(dir)?.flatten() {
        let name = entry.file_name();
        if let Some(seq) = name.to_str().and_then(segment_seq_of) {
            paths.push((seq, entry.path()));
        }
    }
    paths.sort();
    let mut recovery = WalRecovery::default();
    let mut next_seq = 1;
    let mut tear: Option<PersistError> = None;
    for (name_seq, path) in &paths {
        let scan = scan_segment(path)?;
        if scan.seq != u64::MAX && scan.seq != *name_seq {
            return Err(PersistError::Corrupt("WAL segment header disagrees with its file name"));
        }
        recovery.segments += 1;
        next_seq = name_seq + 1;
        if tear.is_some() && (!scan.frames.is_empty() || scan.failure.is_some()) {
            // Frames (or further damage) after an earlier segment's tear:
            // one crash cannot tear the middle of the log.
            return Err(tear.take().expect("tear is some"));
        }
        recovery.frames.extend(scan.frames);
        if let Some(e) = scan.failure {
            if scan.valid_after_failure {
                return Err(e);
            }
            tear = Some(e);
        }
    }
    recovery.torn_tail = tear.is_some();
    Ok((recovery, next_seq))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scratch directory under the workspace target dir, unique per
    /// test, cleared of any previous run's leftovers.
    fn scratch(name: &str) -> PathBuf {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp-unit-tests/wal-unit")
            .join(name);
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn no_flusher() -> WalConfig {
        WalConfig { background_flusher: false, ..WalConfig::default() }
    }

    fn frame(shard: u32, cell: u64, effects: &[(&str, Option<u64>)]) -> WalFrame {
        WalFrame {
            epoch: 0,
            shard,
            cell,
            class: DurabilityClass::Group,
            effects: effects.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    /// Lowercase hex of `bytes`, for the format pin.
    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Format pin: the exact bytes of a segment holding one frame with a
    /// set and a delete effect — the header, the length prefix, the
    /// payload and its checksum.
    #[test]
    fn format_pin_segment_header_and_one_frame() {
        let dir = scratch("format-pin");
        let wal = Wal::open(&dir, no_flusher()).unwrap();
        let logged = WalFrame {
            epoch: 3,
            shard: 2,
            cell: 17,
            class: DurabilityClass::Sync,
            effects: vec![("set".into(), Some(7)), ("gone".into(), None)],
        };
        wal.enqueue(&logged);
        wal.sync().unwrap();
        drop(wal);
        let bytes = fs::read(dir.join(segment_name(1))).unwrap();
        let pin = concat!(
            "41504357",         // "APCW"
            "01000000",         // version 1
            "0100000000000000", // segment 1
            "32000000",         // payload_len 50
            "0300000000000000", // epoch 3
            "02000000",         // shard 2
            "1100000000000000", // cell 17
            "01",               // Sync
            "02000000",         // two effects
            "00",
            "03000000",
            "736574",
            "0700000000000000", // set "set" = 7
            "01",
            "04000000",
            "676f6e65",         // delete "gone"
            "8cc05628bd3bedff", // fnv1a64(payload)
        );
        assert_eq!(hex(&bytes), pin);
        let reopened = Wal::open(&dir, no_flusher()).unwrap();
        assert_eq!(reopened.take_recovered().unwrap().frames, vec![logged]);
    }

    #[test]
    fn enqueue_sync_replay_roundtrip() {
        let dir = scratch("roundtrip");
        let wal = Wal::open(&dir, no_flusher()).unwrap();
        assert_eq!(wal.take_recovered().unwrap(), WalRecovery::default());
        wal.enqueue(&frame(0, 1, &[("a", Some(1)), ("b", Some(2))]));
        wal.enqueue(&frame(1, 1, &[("c", None)]));
        assert_eq!(wal.pending_frames(), 2);
        wal.sync().unwrap();
        assert_eq!(wal.pending_frames(), 0);
        drop(wal);
        let reopened = Wal::open(&dir, no_flusher()).unwrap();
        let rec = reopened.take_recovered().unwrap();
        assert!(!rec.torn_tail);
        assert_eq!(rec.frames.len(), 2);
        assert_eq!(rec.frames[0].effects, vec![("a".to_string(), Some(1)), ("b".into(), Some(2))]);
        assert_eq!(rec.frames[1].effects, vec![("c".to_string(), None)]);
    }

    #[test]
    fn clean_drop_flushes_pending() {
        let dir = scratch("drop-flush");
        let wal = Wal::open(&dir, no_flusher()).unwrap();
        wal.enqueue(&frame(0, 1, &[("k", Some(9))]));
        drop(wal); // no sync: the Drop impl writes the tail out
        let reopened = Wal::open(&dir, no_flusher()).unwrap();
        assert_eq!(reopened.take_recovered().unwrap().frames.len(), 1);
    }

    #[test]
    fn simulated_crash_loses_exactly_the_unsynced_buffer() {
        let dir = scratch("crash-buffer");
        let wal = Wal::open(&dir, no_flusher()).unwrap();
        wal.enqueue(&frame(0, 1, &[("durable", Some(1))]));
        wal.sync().unwrap();
        wal.enqueue(&frame(0, 2, &[("lost", Some(2))]));
        wal.simulate_crash();
        drop(wal);
        let reopened = Wal::open(&dir, no_flusher()).unwrap();
        let rec = reopened.take_recovered().unwrap();
        assert!(!rec.torn_tail, "an un-written buffer is not a torn file");
        assert_eq!(rec.frames.len(), 1);
        assert_eq!(rec.frames[0].effects[0].0, "durable");
    }

    #[test]
    fn torn_tail_recovers_valid_prefix_at_every_truncation_offset() {
        let dir = scratch("torn-tail");
        let wal = Wal::open(&dir, no_flusher()).unwrap();
        wal.enqueue(&frame(0, 1, &[("a", Some(1))]));
        wal.enqueue(&frame(0, 2, &[("b", Some(2))]));
        wal.enqueue(&frame(0, 3, &[("c", Some(3))]));
        wal.sync().unwrap();
        wal.simulate_crash();
        let seg = dir.join(segment_name(1));
        let good = fs::read(&seg).unwrap();
        drop(wal);
        for cut in SEGMENT_HEADER..good.len() {
            fs::write(&seg, &good[..cut]).unwrap();
            let (rec, _) = read_segments(&dir).unwrap_or_else(|e| {
                panic!("truncation to {cut} bytes must stay recoverable, got {e}")
            });
            assert!(
                rec.frames.len() < 3 || cut == good.len(),
                "a cut at {cut} cannot keep all frames"
            );
            // The prefix property: recovered frames are exactly the first k.
            for (i, f) in rec.frames.iter().enumerate() {
                assert_eq!(f.cell, (i + 1) as u64, "cut {cut} recovered out of order");
            }
        }
    }

    #[test]
    fn mid_log_bit_flip_fails_closed() {
        let dir = scratch("bit-flip");
        let wal = Wal::open(&dir, no_flusher()).unwrap();
        wal.enqueue(&frame(0, 1, &[("a", Some(1))]));
        wal.enqueue(&frame(0, 2, &[("b", Some(2))]));
        wal.enqueue(&frame(0, 3, &[("c", Some(3))]));
        wal.sync().unwrap();
        wal.simulate_crash();
        drop(wal);
        let seg = dir.join(segment_name(1));
        let good = fs::read(&seg).unwrap();
        // Flip one byte inside the FIRST frame's payload: frames 2 and 3
        // still decode after it, so this is corruption, not a tear.
        let mut bad = good.clone();
        bad[SEGMENT_HEADER + 6] ^= 0x40;
        fs::write(&seg, &bad).unwrap();
        let err = read_segments(&dir).expect_err("mid-log corruption must fail closed");
        assert_eq!(err, PersistError::ChecksumMismatch { shard: None });
        // The same flip in the LAST frame is a tear: prefix recovered.
        let mut tail = good.clone();
        let last_len = tail.len();
        tail[last_len - 9] ^= 0x40; // inside the last frame's payload/crc
        fs::write(&seg, &tail).unwrap();
        let (rec, _) = read_segments(&dir).expect("tail damage recovers the prefix");
        assert!(rec.torn_tail);
        assert_eq!(rec.frames.len(), 2);
    }

    #[test]
    fn rotation_and_truncation_manage_segments() {
        let dir = scratch("rotate");
        let wal = Wal::open(&dir, no_flusher()).unwrap();
        wal.enqueue(&frame(0, 1, &[("old", Some(1))]));
        wal.sync().unwrap();
        let cut = wal.rotate().unwrap();
        assert_eq!(cut, 2);
        wal.enqueue(&frame(0, 2, &[("new", Some(2))]));
        wal.sync().unwrap();
        assert_eq!(wal.truncate_before(cut), 1, "exactly the pre-rotation segment goes");
        drop(wal);
        let reopened = Wal::open(&dir, no_flusher()).unwrap();
        let rec = reopened.take_recovered().unwrap();
        assert_eq!(rec.frames.len(), 1);
        assert_eq!(rec.frames[0].effects[0].0, "new");
    }

    #[test]
    fn size_threshold_rotates_automatically() {
        let dir = scratch("auto-rotate");
        let cfg = WalConfig { segment_bytes: 64, ..no_flusher() };
        let wal = Wal::open(&dir, cfg).unwrap();
        for i in 0..8 {
            wal.enqueue(&frame(0, i + 1, &[("key-with-some-length", Some(i))]));
            wal.sync().unwrap();
        }
        drop(wal);
        let segs = fs::read_dir(&dir).unwrap().count();
        assert!(segs > 1, "64-byte threshold must have rotated, found {segs} segment(s)");
        let reopened = Wal::open(&dir, no_flusher()).unwrap();
        assert_eq!(reopened.take_recovered().unwrap().frames.len(), 8);
    }

    #[test]
    fn frames_after_a_torn_segment_fail_closed() {
        let dir = scratch("torn-middle");
        let wal = Wal::open(&dir, no_flusher()).unwrap();
        wal.enqueue(&frame(0, 1, &[("a", Some(1))]));
        wal.sync().unwrap();
        wal.rotate().unwrap();
        wal.enqueue(&frame(0, 2, &[("b", Some(2))]));
        wal.sync().unwrap();
        wal.simulate_crash();
        drop(wal);
        // Tear the FIRST segment: frames live in the second, so the tear
        // is mid-log.
        let seg1 = dir.join(segment_name(1));
        let bytes = fs::read(&seg1).unwrap();
        fs::write(&seg1, &bytes[..bytes.len() - 3]).unwrap();
        assert!(read_segments(&dir).is_err(), "a torn middle segment must fail closed");
    }

    #[test]
    fn collapsed_effects_order_by_epoch_shard_cell() {
        let rec = WalRecovery {
            frames: vec![
                // Same shard, cells out of file order: cell order wins.
                WalFrame {
                    epoch: 0,
                    shard: 0,
                    cell: 5,
                    class: DurabilityClass::Group,
                    effects: vec![("k".into(), Some(2))],
                },
                WalFrame {
                    epoch: 0,
                    shard: 0,
                    cell: 4,
                    class: DurabilityClass::Group,
                    effects: vec![("k".into(), Some(1))],
                },
                // A later shard instance (epoch 3) writes last.
                WalFrame {
                    epoch: 3,
                    shard: 2,
                    cell: 1,
                    class: DurabilityClass::Sync,
                    effects: vec![("k".into(), Some(9)), ("gone".into(), None)],
                },
            ],
            torn_tail: false,
            segments: 1,
        };
        let effects = rec.collapsed_effects();
        assert_eq!(effects.get("k"), Some(&Some(9)));
        assert_eq!(effects.get("gone"), Some(&None));
    }

    #[test]
    fn background_flusher_makes_group_commits_durable() {
        let dir = scratch("flusher");
        let wal = Wal::open(&dir, WalConfig::default()).unwrap();
        wal.enqueue(&frame(0, 1, &[("k", Some(1))]));
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while wal.pending_frames() > 0 {
            assert!(std::time::Instant::now() < deadline, "flusher never drained the buffer");
            std::thread::sleep(Duration::from_millis(1));
        }
        wal.simulate_crash(); // buffer already empty: nothing to lose
        drop(wal);
        let reopened = Wal::open(&dir, no_flusher()).unwrap();
        assert_eq!(reopened.take_recovered().unwrap().frames.len(), 1);
    }

    #[test]
    fn foreign_files_are_ignored_everywhere() {
        let dir = scratch("foreign");
        let wal = Wal::open(&dir, no_flusher()).unwrap();
        fs::write(dir.join("notes.txt"), b"not a segment").unwrap();
        fs::write(dir.join("wal-zzzz.apcw"), b"bad name").unwrap();
        wal.enqueue(&frame(0, 1, &[("k", Some(1))]));
        wal.sync().unwrap();
        let cut = wal.rotate().unwrap();
        wal.truncate_before(cut);
        assert!(dir.join("notes.txt").exists());
        assert!(dir.join("wal-zzzz.apcw").exists());
        drop(wal);
        let reopened = Wal::open(&dir, no_flusher()).unwrap();
        assert_eq!(reopened.take_recovered().unwrap().frames.len(), 0);
    }

    #[test]
    fn unsupported_version_and_bad_magic_are_typed() {
        let dir = scratch("bad-header");
        fs::create_dir_all(&dir).unwrap();
        let seg = dir.join(segment_name(1));
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WAL_MAGIC);
        bytes.extend_from_slice(&99u32.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes());
        fs::write(&seg, &bytes).unwrap();
        assert_eq!(
            read_segments(&dir).unwrap_err(),
            PersistError::UnsupportedVersion { found: 99 }
        );
        bytes[..4].copy_from_slice(b"XXXX");
        bytes[4..8].copy_from_slice(&WAL_VERSION.to_le_bytes());
        fs::write(&seg, &bytes).unwrap();
        assert_eq!(read_segments(&dir).unwrap_err(), PersistError::BadMagic);
    }

    #[test]
    fn resolved_effects_capture_exactly_the_mutations() {
        let ops = vec![
            StoreOp::Get("r".into()),
            StoreOp::Put("p".into(), 1),
            StoreOp::Remove("d".into()),
            StoreOp::Cas { key: "won".into(), expect: None, new: 7 },
            StoreOp::Cas { key: "lost".into(), expect: None, new: 8 },
            StoreOp::Put("bounced".into(), 9),
            StoreOp::Scan { from: "".into(), to: "z".into() },
        ];
        let resps = vec![
            StoreResp::Value(None),
            StoreResp::Value(None),
            StoreResp::Value(Some(3)),
            StoreResp::Cas { ok: true, actual: None },
            StoreResp::Cas { ok: false, actual: Some(2) },
            StoreResp::Moved { epoch: 4 },
            StoreResp::Entries(Vec::new()),
        ];
        assert_eq!(
            resolved_effects(&ops, &resps),
            vec![("p".to_string(), Some(1)), ("d".to_string(), None), ("won".to_string(), Some(7)),],
            "reads, failed CAS, and bounced ops have no effect"
        );
    }

    /// A distinct error per failed cycle, so a read-back names its cycle.
    fn failed(cycle: usize) -> PersistError {
        PersistError::Io { kind: io::ErrorKind::Other, msg: format!("cycle {cycle} failed") }
    }

    /// A cycle to 5 fails, then a cycle to 6 succeeds: generation 5 keeps
    /// its own cycle's error. A failed WAL cycle drops its frames, so
    /// reading 5 as `Ok` once 6 landed would acknowledge a lost write.
    #[test]
    fn ledger_keeps_a_failure_after_a_later_success() {
        let mut ledger = Ledger::default();
        assert_eq!(ledger.outcome(0), Some(Ok(())), "generation 0 asks for nothing");
        assert_eq!(ledger.outcome(1), None);
        ledger.take_through(5);
        ledger.settle(Err(failed(5)));
        ledger.take_through(6);
        ledger.settle(Ok(()));
        for gen in 1..=5 {
            assert_eq!(ledger.outcome(gen), Some(Err(failed(5))), "generation {gen}");
        }
        assert_eq!(ledger.outcome(6), Some(Ok(())));
        assert_eq!(ledger.outcome(7), None);
        assert_eq!(ledger.cycles, 2);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The ledger against a per-generation oracle. A script step takes
        /// up to `taken + d` (abandoning the open take, if any), settles
        /// the open take `Ok`, or settles it `Err`; after every step every
        /// generation reads what the cycle that took it ended with, an
        /// open take reading as abandoned.
        #[test]
        fn ledger_matches_a_per_generation_oracle(
            script in proptest::collection::vec((0u8..4, 0u64..4), 1..48),
        ) {
            let mut ledger = Ledger::default();
            // oracle[g]: None until taken, then the outcome a reader sees.
            let mut oracle: Vec<Option<Result<(), PersistError>>> = vec![Some(Ok(()))];
            let mut open: Option<std::ops::Range<usize>> = None;
            let mut takes = 0;
            for (step, &(kind, d)) in script.iter().enumerate() {
                match (kind, open.clone()) {
                    (0 | 1, _) => {
                        let from = oracle.len();
                        let target = from - 1 + d as usize;
                        ledger.take_through(target as u64);
                        oracle.resize(target + 1, Some(Err(abandoned())));
                        open = Some(from..target + 1);
                        takes += 1;
                    }
                    (2, Some(range)) => {
                        ledger.settle(Ok(()));
                        oracle[range].fill(Some(Ok(())));
                        open = None;
                    }
                    (3, Some(range)) => {
                        ledger.settle(Err(failed(step)));
                        oracle[range].fill(Some(Err(failed(step))));
                        open = None;
                    }
                    _ => {} // nothing open to settle
                }
                for gen in 0..oracle.len() + 2 {
                    let expected = oracle.get(gen).cloned().flatten();
                    proptest::prop_assert_eq!(
                        ledger.outcome(gen as u64), expected, "generation {} after step {}", gen, step
                    );
                }
                proptest::prop_assert_eq!(ledger.cycles, takes);
            }
        }
    }

    /// Past [`LEDGER_FAILURES`] failed ranges the oldest merge: a success
    /// between them may then read `Err`, but a failure never reads `Ok`,
    /// and the newest failures stay exact.
    #[test]
    fn ledger_merges_old_failures_conservatively() {
        let mut ledger = Ledger::default();
        let cycles = 4 * LEDGER_FAILURES;
        for cycle in 1..=cycles {
            ledger.take_through(cycle as u64);
            ledger.settle(if cycle % 2 == 1 { Err(failed(cycle)) } else { Ok(()) });
        }
        assert_eq!(ledger.failed.len(), LEDGER_FAILURES);
        for gen in 1..=cycles {
            let read = ledger.outcome(gen as u64).expect("taken");
            if gen % 2 == 1 {
                assert!(read.is_err(), "failed generation {gen} read Ok");
            } else if gen > cycles - LEDGER_FAILURES {
                assert_eq!(read, Ok(()), "recent generation {gen}");
            }
        }
    }

    /// A write cycle that panics while holding the flush lock, after it
    /// took the buffer, wedges nobody: a sync of the frames it took
    /// returns `Err` at once, and a sync of a new frame runs its own cycle
    /// and reads `Ok`.
    #[test]
    fn a_poisoned_flush_lock_wedges_no_sync() {
        let dir = scratch("poisoned");
        let wal = Wal::open(&dir, no_flusher()).unwrap();
        wal.enqueue(&frame(0, 1, &[("lost", Some(1))]));
        wal.enqueue(&frame(0, 2, &[("lost", Some(2))]));
        let joined = std::thread::scope(|s| {
            s.spawn(|| {
                let mut log = wal.log.lock().unwrap();
                let target = {
                    let mut buf = lock_unpoisoned(&wal.buffer);
                    buf.pending.clear();
                    buf.pending_frames = 0;
                    buf.appended
                };
                log.ledger.take_through(target);
                panic!("the write cycle panics");
            })
            .join()
        });
        assert!(joined.is_err() && wal.log.is_poisoned());
        assert!(wal.sync().is_err(), "the abandoned frames are not acknowledged");
        wal.enqueue(&frame(0, 3, &[("kept", Some(3))]));
        wal.sync().unwrap();
        {
            let log = lock_unpoisoned(&wal.log);
            assert!(matches!(log.ledger.outcome(1), Some(Err(_))));
            assert!(matches!(log.ledger.outcome(2), Some(Err(_))));
            assert_eq!(log.ledger.outcome(3), Some(Ok(())));
        }
        assert_eq!(wal.rotate().unwrap(), 2, "rotation works under the recovered lock");
        drop(wal);
        let reopened = Wal::open(&dir, no_flusher()).unwrap();
        let rec = reopened.take_recovered().unwrap();
        assert_eq!(rec.frames.len(), 1);
        assert_eq!(rec.frames[0].effects[0].0, "kept");
    }
}
