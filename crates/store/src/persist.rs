//! Durable snapshot persistence: sealed shard states on disk, one seal
//! cycle per flush, crash recovery.
//!
//! The persistence model is **checkpoint = durability point**: a flush
//! seals a checkpoint cell on every shard log (through the same consensus
//! path as client operations, see [`Store::checkpoint`]) and writes the
//! sealed states to disk as one atomically-renamed, versioned, checksummed
//! snapshot file. Recovery ([`StoreBuilder::recover`](crate::StoreBuilder::recover))
//! decodes the file and rebuilds each shard log at its checkpointed index
//! via `Universal::recovered`, so boot costs O(delta), never O(history).
//! Operations committed after the last flush are not durable — the
//! recovery guarantee is *prefix consistency*: the recovered store is
//! exactly the store as of the last successful flush.
//!
//! # One cycle per call
//!
//! Each [`Persister::persist`] call runs one seal cycle of its own under
//! the persister's **flush lock**, so concurrent calls take turns and each
//! returns its own cycle's outcome. Nothing is coalesced here: the
//! durability layer's one group commit is the [`Wal`](crate::wal::Wal)'s.
//! The flush lock is recovered from poison, so a cycle that panics costs
//! only its own caller and wedges nobody.
//!
//! # File format (version 3, little-endian)
//!
//! ```text
//! header:  "APCS" | version u32 | shard_count u32
//! topology:
//!          topo_version u64
//!          node ×shard_count: seed u64 | parent u32 (u32::MAX = root) |
//!                             created_at u64 |
//!                             retired_at u64 (u64::MAX = live)
//!          topo_checksum u64           (FNV-1a of the section before it)
//! frame ×shard_count:
//!          log_index u64 | epoch u64 | entry_count u64 | payload_len u64
//!          payload (entry ×entry_count: key_len u32 | key bytes | value u64)
//!          frame_checksum u64          (FNV-1a of the frame before it)
//! footer:  file_checksum u64           (FNV-1a of everything before it)
//! ```
//!
//! Integers, strings and the checksum are [`frame`](crate::frame)'s; the
//! sections and their nested checksums are this module's own.
//!
//! The topology section and the per-frame `epoch` are there because a
//! snapshot taken after live shard splits must restore the **split tree**
//! (rendezvous seeds, parents, creation versions) or recovered routing
//! would disagree with the recovered data placement; the per-node
//! `retired_at` **tombstone** because a snapshot taken after live merges
//! must remember which children were retired back into their parents —
//! recovery rebuilds tombstoned slots empty and keeps routing around them.
//! This build reads version 3 only: a header carrying any other version,
//! older or newer, fails closed with [`PersistError::UnsupportedVersion`].
//! Tombstones are validated structurally on read — a retired root, a
//! retirement version outside the topology's range, a live child under a
//! tombstone, or a tombstoned frame that still carries entries each fail
//! closed with their own typed [`PersistError::Corrupt`] message.
//!
//! Every decode failure is a typed [`PersistError`] — corruption and
//! truncation are detected by checksums and bounds checks, never by a
//! panic or silent partial state.

use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use apc_obs::MetricsSnapshot;
use apc_progress_macros::progress;

use crate::admission::AdmissionError;
use crate::frame::{fnv1a64, put_str, put_u32, put_u64, Cursor, Fault};
use crate::metrics::{elapsed_ns, PersistMetrics};
use crate::ops::ShardState;
use crate::router::{ShardTopology, TopoRecord, TopologyError};
use crate::store::Store;

/// Magic bytes opening every snapshot file.
pub const MAGIC: [u8; 4] = *b"APCS";

/// Current snapshot format version.
pub const VERSION: u32 = 3;

/// Errors of the persistence layer. Every failure mode is typed; decoding
/// never panics on corrupt input.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PersistError {
    /// An I/O operation failed (kind + rendered message; cloneable so one
    /// WAL cycle's outcome can answer every sync whose frames it took).
    Io {
        /// The failed operation's [`io::ErrorKind`].
        kind: io::ErrorKind,
        /// Human-readable description.
        msg: String,
    },
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The file's format version is not the one this build reads.
    UnsupportedVersion {
        /// The version found in the header.
        found: u32,
    },
    /// The file ends before a complete record could be read.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// A checksum did not match its bytes.
    ChecksumMismatch {
        /// The shard frame that failed, or `None` for the whole-file
        /// envelope checksum.
        shard: Option<u32>,
    },
    /// Structurally invalid content (e.g. trailing bytes after the footer).
    Corrupt(&'static str),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io { kind, msg } => write!(f, "snapshot I/O failed ({kind:?}): {msg}"),
            PersistError::BadMagic => f.write_str("not a snapshot file (bad magic)"),
            PersistError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported snapshot version {found} (this build reads version {VERSION})"
                )
            }
            PersistError::Truncated { needed, available } => {
                write!(f, "snapshot truncated: needed {needed} bytes, {available} available")
            }
            PersistError::ChecksumMismatch { shard: Some(s) } => {
                write!(f, "checksum mismatch in shard frame {s}")
            }
            PersistError::ChecksumMismatch { shard: None } => f.write_str("file checksum mismatch"),
            PersistError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io { kind: e.kind(), msg: e.to_string() }
    }
}

impl From<Fault> for PersistError {
    fn from(fault: Fault) -> Self {
        match fault {
            Fault::Truncated { needed, available } => PersistError::Truncated { needed, available },
            Fault::BadUtf8 => PersistError::Corrupt("key is not valid UTF-8"),
            Fault::TrailingBytes { .. } => {
                PersistError::Corrupt("trailing bytes after the last frame")
            }
        }
    }
}

/// Errors of [`StoreBuilder::recover`](crate::StoreBuilder::recover):
/// decoding the snapshot or realizing the admission sizing.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RecoverError {
    /// The snapshot file could not be read or decoded.
    Persist(PersistError),
    /// The builder's admission sizing is unrealizable.
    Admission(AdmissionError),
}

impl fmt::Display for RecoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoverError::Persist(e) => write!(f, "recovery failed: {e}"),
            RecoverError::Admission(e) => write!(f, "recovery failed: {e}"),
        }
    }
}

impl std::error::Error for RecoverError {}

impl From<PersistError> for RecoverError {
    fn from(e: PersistError) -> Self {
        RecoverError::Persist(e)
    }
}

impl From<AdmissionError> for RecoverError {
    fn from(e: AdmissionError) -> Self {
        RecoverError::Admission(e)
    }
}

/// One shard's sealed state: the result of replaying its log prefix
/// `[0, log_index)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ShardSnapshot {
    /// The checkpointed log index (number of sealed prefix cells).
    pub log_index: u64,
    /// The sealed key→value state, shared with the shard's replicas that
    /// hold it: taking a snapshot copies no map.
    pub state: Arc<ShardState>,
}

/// A whole-store snapshot: the shard topology plus one sealed
/// [`ShardSnapshot`] per shard, in shard-id order. Produced by
/// [`Store::checkpoint`], serialized by [`StoreSnapshot::write_to`],
/// decoded by [`StoreSnapshot::read_from`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StoreSnapshot {
    /// The shard topology (split tree, rendezvous seeds, version) the
    /// states were sealed under.
    pub topology: ShardTopology,
    /// Per-shard sealed states, indexed by shard id.
    pub shards: Vec<ShardSnapshot>,
}

impl StoreSnapshot {
    /// Total live keys across all shards.
    pub fn entries(&self) -> u64 {
        self.shards.iter().map(|s| s.state.entries().len() as u64).sum()
    }

    /// Serializes the snapshot into the version-3 frame format.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64 + self.shards.len() * 64);
        buf.extend_from_slice(&MAGIC);
        put_u32(&mut buf, VERSION);
        put_u32(&mut buf, self.shards.len() as u32);
        let topo_start = buf.len();
        put_u64(&mut buf, self.topology.version());
        for s in 0..self.topology.shards() {
            let node = self.topology.node(s);
            put_u64(&mut buf, node.seed);
            put_u32(&mut buf, node.parent.unwrap_or(u32::MAX));
            put_u64(&mut buf, node.created_at);
            put_u64(&mut buf, node.retired_at.unwrap_or(u64::MAX));
        }
        let topo_checksum = fnv1a64(&buf[topo_start..]);
        put_u64(&mut buf, topo_checksum);
        for shard in &self.shards {
            let frame_start = buf.len();
            put_u64(&mut buf, shard.log_index);
            put_u64(&mut buf, shard.state.epoch());
            put_u64(&mut buf, shard.state.entries().len() as u64);
            let payload_len_at = buf.len();
            put_u64(&mut buf, 0); // payload_len, patched below
            let payload_start = buf.len();
            for (key, value) in shard.state.entries().iter() {
                put_str(&mut buf, key);
                put_u64(&mut buf, value);
            }
            let payload_len = (buf.len() - payload_start) as u64;
            buf[payload_len_at..payload_len_at + 8].copy_from_slice(&payload_len.to_le_bytes());
            let frame_checksum = fnv1a64(&buf[frame_start..]);
            put_u64(&mut buf, frame_checksum);
        }
        let file_checksum = fnv1a64(&buf);
        put_u64(&mut buf, file_checksum);
        buf
    }

    /// Decodes a snapshot from its serialized bytes.
    ///
    /// # Errors
    ///
    /// Any [`PersistError`] decode variant; never panics on corrupt input.
    pub fn decode(bytes: &[u8]) -> Result<Self, PersistError> {
        // Envelope first: the trailing file checksum covers everything, so
        // arbitrary corruption is caught before structural parsing.
        let (body, footer) = bytes
            .split_last_chunk()
            .ok_or(PersistError::Truncated { needed: 8, available: bytes.len() })?;
        if fnv1a64(body) != u64::from_le_bytes(*footer) {
            return Err(PersistError::ChecksumMismatch { shard: None });
        }
        let mut r = Cursor::new(body);
        if r.take(4)? != MAGIC {
            return Err(PersistError::BadMagic);
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(PersistError::UnsupportedVersion { found: version });
        }
        let shard_count = r.u32()? as usize;
        let topo_start = r.pos();
        let topo_version = r.u64()?;
        let mut records = Vec::with_capacity(shard_count.min(1024));
        for _ in 0..shard_count {
            let seed = r.u64()?;
            let parent = r.u32()?;
            let created_at = r.u64()?;
            let retired = r.u64()?;
            records.push(TopoRecord {
                seed,
                parent: (parent != u32::MAX).then_some(parent),
                created_at,
                retired_at: (retired != u64::MAX).then_some(retired),
            });
        }
        let topo_expected = fnv1a64(&body[topo_start..r.pos()]);
        if r.u64()? != topo_expected {
            return Err(PersistError::Corrupt("topology section checksum mismatch"));
        }
        let topology = ShardTopology::from_nodes(topo_version, &records).map_err(topology_error)?;
        let mut shards = Vec::with_capacity(shard_count.min(1024));
        for shard_id in 0..shard_count {
            let frame_start = r.pos();
            let log_index = r.u64()?;
            let epoch = r.u64()?;
            let entry_count = r.u64()?;
            let payload_len = r.u64()? as usize;
            let payload_end = r
                .pos()
                .checked_add(payload_len)
                .ok_or(PersistError::Corrupt("payload length overflows"))?;
            // Borrowed from the file's bytes: the state copies each key
            // once, into its leaf. An entry is at least 12 bytes, which
            // bounds what a lying `entry_count` can make this reserve.
            let mut entries = Vec::with_capacity((entry_count as usize).min(payload_len / 12));
            for _ in 0..entry_count {
                entries.push((r.str()?, r.u64()?));
            }
            if r.pos() != payload_end {
                return Err(PersistError::Corrupt("payload length disagrees with entries"));
            }
            let expected = fnv1a64(&body[frame_start..r.pos()]);
            if r.u64()? != expected {
                return Err(PersistError::ChecksumMismatch { shard: Some(shard_id as u32) });
            }
            if epoch > topo_version {
                return Err(PersistError::Corrupt("shard epoch exceeds the topology version"));
            }
            if shard_id < topology.shards() && !topology.is_live(shard_id) && !entries.is_empty() {
                // A merge drains the child before tombstoning it, so a
                // tombstoned frame with entries means the file lies about
                // where data lives — those keys would be unreachable.
                return Err(PersistError::Corrupt("retired shard frame still carries entries"));
            }
            shards.push(ShardSnapshot {
                log_index,
                state: ShardState::with_entries(entries, epoch).into(),
            });
        }
        r.finish()?;
        Ok(StoreSnapshot { topology, shards })
    }

    /// Writes the snapshot durably to `path`: encode, write to a sibling
    /// temp file, fsync, atomically rename over `path`, fsync the parent
    /// directory (best-effort). A crash at any point leaves either the old
    /// snapshot or the new one — never a torn file.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on any filesystem failure.
    pub fn write_to(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        // Unique per writer: concurrent flushes to one path must never share
        // a temp file, or one writer's truncate would tear the other's bytes
        // before its rename.
        static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let path = path.as_ref();
        let mut tmp_name = path.file_name().unwrap_or_default().to_owned();
        tmp_name.push(format!(
            ".{}-{}.tmp",
            std::process::id(),
            // RELAXED: only uniqueness matters, which atomicity provides.
            TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let tmp = path.with_file_name(tmp_name);
        let publish = || -> Result<(), PersistError> {
            {
                let mut file = fs::File::create(&tmp)?;
                file.write_all(&self.encode())?;
                file.sync_all()?;
            }
            fs::rename(&tmp, path)?;
            Ok(())
        };
        let result = publish();
        if result.is_err() {
            // Don't leak the uniquely-named temp file (retry loops would
            // otherwise accumulate one orphan per failed flush).
            let _ = fs::remove_file(&tmp);
            return result;
        }
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            // Durability of the rename itself; non-fatal where unsupported.
            if let Ok(d) = fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    /// Reads and decodes a snapshot from `path`.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] if the file cannot be read, otherwise any
    /// decode variant.
    pub fn read_from(path: impl AsRef<Path>) -> Result<Self, PersistError> {
        Self::decode(&fs::read(path)?)
    }
}

/// Snapshot flusher: one seal-and-fsync cycle per [`Persister::persist`]
/// call, the calls serialized by one flush lock (see the
/// [module docs](self)).
///
/// # Examples
///
/// ```no_run
/// use apc_store::{StoreBuilder, persist::Persister};
///
/// let store = StoreBuilder::new().build().unwrap();
/// let persister = Persister::new("store.snapshot");
/// store.client(store.admit_guest()).put("k", 1);
/// persister.persist(&store).unwrap();
/// let recovered = StoreBuilder::new().recover("store.snapshot").unwrap();
/// ```
#[derive(Debug)]
pub struct Persister {
    path: PathBuf,
    /// The flush lock, held across a whole seal cycle: two cycles never
    /// race each other's WAL rotation or truncation.
    flush: Mutex<()>,
    /// Flush instruments — atomics outside the flush lock, so scraping
    /// never queues behind an in-flight fsync.
    metrics: PersistMetrics,
    /// The op-granular WAL this persister coordinates with
    /// ([`Persister::with_wal`]): each checkpoint seal rotates it first
    /// and truncates the pre-rotation segments once the snapshot rename
    /// lands.
    wal: Option<std::sync::Arc<crate::wal::Wal>>,
}

impl Persister {
    /// A persister flushing snapshots to `path`.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Persister {
            path: path.into(),
            flush: Mutex::new(()),
            metrics: PersistMetrics::new(),
            wal: None,
        }
    }

    /// Couples this persister to an op-granular [`Wal`](crate::wal::Wal):
    /// every checkpoint seal rotates the WAL to a fresh segment *before*
    /// sealing and truncates the pre-rotation segments once the snapshot
    /// rename is durable — so the WAL only ever holds the delta since the
    /// last successful snapshot, and recovery is snapshot + short replay.
    ///
    /// Safe ordering argument: a frame in a pre-rotation segment logs a
    /// commit whose log cell is at or below the index this cycle seals, so
    /// its effect is inside the snapshot (and replaying it anyway would be
    /// an idempotent no-op). If the snapshot write *fails*, nothing is
    /// truncated and the frames stay replayable.
    pub fn with_wal(mut self, wal: std::sync::Arc<crate::wal::Wal>) -> Self {
        self.wal = Some(wal);
        self
    }

    /// The attached WAL, if any.
    pub fn wal(&self) -> Option<&std::sync::Arc<crate::wal::Wal>> {
        self.wal.as_ref()
    }

    /// A wait-free scrape of the persister's metric series (flush cycles,
    /// failures, flush latency), ready to
    /// [`merge`](MetricsSnapshot::merge) into a
    /// [`Store::scrape`](crate::Store::scrape) snapshot. An attached WAL's
    /// series are the store's to scrape, not this one's. Reads atomics
    /// only — never the flush lock — so a dashboard poller cannot queue
    /// behind an in-flight fsync.
    #[progress(wait_free)]
    pub fn scrape(&self) -> MetricsSnapshot {
        MetricsSnapshot { samples: self.metrics.samples() }
    }

    /// Seal cycles run so far, failed ones included: one per
    /// [`Persister::persist`] call that returned. Reads the
    /// `store_persist_flushes_total` counter, never the flush lock.
    #[progress(wait_free)]
    pub fn flushes(&self) -> u64 {
        self.metrics.flushes()
    }

    /// Makes the store's current state durable: under the flush lock,
    /// seals a checkpoint on every shard and writes the snapshot file. On
    /// `Ok`, every operation that committed before this call is on disk.
    ///
    /// Returns the number of flush cycles performed so far, this one
    /// included.
    ///
    /// # Errors
    ///
    /// This call's own cycle's error: the snapshot did not land, and the
    /// file keeps the last one that did (snapshots are whole-store and
    /// atomically renamed). The caller may retry.
    #[progress(blocking)]
    pub fn persist(&self, store: &Store) -> Result<u64, PersistError> {
        let _cycle = lock_unpoisoned(&self.flush);
        let start = std::time::Instant::now();
        let outcome = self.seal_cycle(store);
        self.metrics.record_flush(elapsed_ns(start), outcome.is_ok());
        outcome.map(|()| self.flushes())
    }

    /// One physical seal cycle. With a WAL attached: rotate it to a fresh
    /// segment, seal and write the snapshot, then truncate the
    /// pre-rotation segments — strictly in that order, so a failure at
    /// any point leaves every un-snapshotted frame replayable (see
    /// [`Persister::with_wal`]).
    #[progress(blocking)]
    fn seal_cycle(&self, store: &Store) -> Result<(), PersistError> {
        let cut = match &self.wal {
            Some(wal) => Some(wal.rotate()?),
            None => None,
        };
        store.checkpoint().write_to(&self.path)?;
        if let (Some(wal), Some(cut)) = (&self.wal, cut) {
            wal.truncate_before(cut);
        }
        Ok(())
    }
}

/// Locks `m`, taking the guard back if a holder panicked: every critical
/// section of the durability layer leaves its state usable when it
/// unwinds (the WAL's ledger reads an unsettled take as failed), so a
/// poisoned lock is neither a panic nor a hang.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Removes orphaned `<snapshot>.<pid>-<seq>.tmp` siblings that a crash
/// mid-[`StoreSnapshot::write_to`] left next to `path` — a temp file that
/// was written but never renamed. Such a file is garbage by construction
/// (a completed write renames its temp away atomically), so recovery must
/// neither trust it nor trip over it; it is swept before the snapshot is
/// read. Returns how many files were removed.
///
/// Only safe at boot, before any concurrent flusher targets `path`: a
/// live [`Persister`]'s in-flight temp file would match the pattern too.
pub(crate) fn sweep_orphan_tmps(path: &Path) -> u64 {
    let Some(name) = path.file_name().and_then(|n| n.to_str()) else { return 0 };
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let prefix = format!("{name}.");
    let Ok(entries) = fs::read_dir(&dir) else { return 0 };
    let mut swept = 0;
    for entry in entries.flatten() {
        let file_name = entry.file_name();
        let Some(s) = file_name.to_str() else { continue };
        if s.starts_with(&prefix) && s.ends_with(".tmp") && fs::remove_file(entry.path()).is_ok() {
            swept += 1;
        }
    }
    swept
}

/// Maps a structural topology defect to its typed decode error, keeping
/// tombstone corruption distinguishable from a malformed split forest.
fn topology_error(e: TopologyError) -> PersistError {
    PersistError::Corrupt(match e {
        TopologyError::Empty => "a snapshot needs at least one shard",
        TopologyError::ForwardParent => "topology nodes do not form a split forest",
        TopologyError::CreatedBeyondVersion => "node creation version exceeds the topology version",
        TopologyError::RetiredRoot => "tombstone on a root shard",
        TopologyError::RetiredOutOfRange => "tombstone outside the topology's version range",
        TopologyError::LiveChildOfTombstone => "live shard parented to a tombstone",
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An empty shard whose last split was at `epoch`.
    fn empty_at(epoch: u64) -> ShardState {
        ShardState::with_entries(Vec::<(String, u64)>::new(), epoch)
    }

    fn sample() -> StoreSnapshot {
        let a = ShardState::with_entries([("alpha", 1), ("beta", 2)], 0);
        let b = ShardState::with_entries([("γλώσσα", 3)], 0); // multi-byte UTF-8 keys round-trip
        StoreSnapshot {
            topology: ShardTopology::fresh(2),
            shards: vec![
                ShardSnapshot { log_index: 7, state: a.into() },
                ShardSnapshot { log_index: 11, state: b.into() },
            ],
        }
    }

    /// Lowercase hex of `bytes`, for the format pin.
    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Format pin: the exact bytes of a two-shard snapshot whose second
    /// shard is a tombstone — header, topology section and its checksum,
    /// both shard frames with their checksums, and the file checksum.
    #[test]
    fn format_pin_two_shards_with_a_tombstone() {
        let (split, child) = ShardTopology::fresh(1).split(0).unwrap();
        let (merged, _) = split.merge(child).unwrap();
        let snap = StoreSnapshot {
            topology: merged,
            shards: vec![
                ShardSnapshot {
                    log_index: 5,
                    state: ShardState::with_entries([("a", 1), ("bb", 2)], 0).into(),
                },
                ShardSnapshot { log_index: 3, state: empty_at(2).into() },
            ],
        };
        let bytes = snap.encode();
        let pin = concat!(
            "41504353", // "APCS"
            "03000000", // version 3
            "02000000", // two shards
            // topology: version 2, a root and its retired child
            "0200000000000000",
            "095b2647591318c2",
            "ffffffff",
            "0000000000000000",
            "ffffffffffffffff",
            "3bf9d75c781cde96",
            "00000000",
            "0100000000000000",
            "0200000000000000",
            "2a662e238602c9bb", // topology checksum
            // shard 0: log_index 5, epoch 0, two entries, 27 payload bytes
            "0500000000000000",
            "0000000000000000",
            "0200000000000000",
            "1b00000000000000",
            "01000000",
            "61",
            "0100000000000000",
            "02000000",
            "6262",
            "0200000000000000",
            "c677a989278cd456", // shard 0 checksum
            // shard 1, the tombstone: log_index 3, epoch 2, empty
            "0300000000000000",
            "0200000000000000",
            "0000000000000000",
            "0000000000000000",
            "6461ad75e7708bc4", // shard 1 checksum
            "20906c67ac45374b", // file checksum
        );
        assert_eq!(hex(&bytes), pin);
        assert_eq!(StoreSnapshot::decode(&bytes).unwrap(), snap);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let snap = sample();
        let decoded = StoreSnapshot::decode(&snap.encode()).unwrap();
        assert_eq!(decoded, snap);
        assert_eq!(decoded.entries(), 3);
    }

    #[test]
    fn empty_store_roundtrip() {
        let snap = StoreSnapshot {
            topology: ShardTopology::fresh(1),
            shards: vec![ShardSnapshot { log_index: 0, state: ShardState::new().into() }],
        };
        assert_eq!(StoreSnapshot::decode(&snap.encode()).unwrap(), snap);
    }

    #[test]
    fn split_topology_and_epochs_roundtrip() {
        // A post-split snapshot: 3 shards, shard 0 split once (child = 2),
        // parent and child carrying the split epoch.
        let (topology, child) = ShardTopology::fresh(2).split(0).unwrap();
        let mut parent_state = std::collections::BTreeMap::new();
        parent_state.insert("kept".to_string(), 1u64);
        let mut child_state = std::collections::BTreeMap::new();
        child_state.insert("moved".to_string(), 2u64);
        let snap = StoreSnapshot {
            topology: topology.clone(),
            shards: vec![
                ShardSnapshot {
                    log_index: 9,
                    state: ShardState::with_entries(parent_state, 1).into(),
                },
                ShardSnapshot { log_index: 4, state: ShardState::new().into() },
                ShardSnapshot {
                    log_index: 0,
                    state: ShardState::with_entries(child_state, 1).into(),
                },
            ],
        };
        let decoded = StoreSnapshot::decode(&snap.encode()).unwrap();
        assert_eq!(decoded, snap);
        assert_eq!(decoded.topology.version(), 1);
        assert_eq!(decoded.topology.node(child).parent, Some(0));
        assert_eq!(decoded.shards[0].state.epoch(), 1);
        assert_eq!(decoded.shards[2].state.epoch(), 1);
        // Routing through the decoded topology matches the original.
        for key in ["kept", "moved", "other/17"] {
            assert_eq!(decoded.topology.shard_of(key), topology.shard_of(key));
        }
    }

    #[test]
    fn merged_tree_snapshot_roundtrips() {
        // Split shard 0 twice, merge the later child back: the snapshot
        // must carry the tombstone and decode to the identical topology.
        let (t1, c1) = ShardTopology::fresh(2).split(0).unwrap();
        let (t2, c2) = t1.split(0).unwrap();
        let (t3, parent) = t2.merge(c2).expect("last live child merges");
        assert_eq!(parent, 0);
        let mut parent_state = std::collections::BTreeMap::new();
        parent_state.insert("returned".to_string(), 9u64);
        let snap = StoreSnapshot {
            topology: t3.clone(),
            shards: vec![
                ShardSnapshot {
                    log_index: 12,
                    state: ShardState::with_entries(parent_state, 2).into(),
                },
                ShardSnapshot { log_index: 4, state: ShardState::new().into() },
                ShardSnapshot { log_index: 7, state: empty_at(1).into() },
                // The tombstoned child: empty, epoch = its retirement.
                ShardSnapshot { log_index: 3, state: empty_at(3).into() },
            ],
        };
        let decoded = StoreSnapshot::decode(&snap.encode()).unwrap();
        assert_eq!(decoded, snap);
        assert_eq!(decoded.topology.version(), 3);
        assert!(!decoded.topology.is_live(c2), "the tombstone survives the roundtrip");
        assert_eq!(decoded.topology.live_shards(), 3);
        for key in ["returned", "a", "zz/17"] {
            assert_eq!(decoded.topology.shard_of(key), t3.shard_of(key));
        }
        let _ = c1;
    }

    #[test]
    fn tombstone_corruption_fails_closed_with_typed_errors() {
        // Re-seal the topology + file checksums around hand-crafted
        // tombstone defects: each must surface its own Corrupt message,
        // not a checksum error and not a panic.
        let encode_with_topology = |records: &[(u64, u32, u64, u64)], topo_version: u64| {
            let mut buf = Vec::new();
            buf.extend_from_slice(&MAGIC);
            put_u32(&mut buf, VERSION);
            put_u32(&mut buf, records.len() as u32);
            let topo_start = buf.len();
            put_u64(&mut buf, topo_version);
            for &(seed, parent, created_at, retired_at) in records {
                put_u64(&mut buf, seed);
                put_u32(&mut buf, parent);
                put_u64(&mut buf, created_at);
                put_u64(&mut buf, retired_at);
            }
            let topo_checksum = fnv1a64(&buf[topo_start..]);
            put_u64(&mut buf, topo_checksum);
            for _ in records {
                let frame_start = buf.len();
                put_u64(&mut buf, 0); // log_index
                put_u64(&mut buf, 0); // epoch
                put_u64(&mut buf, 0); // entry_count
                put_u64(&mut buf, 0); // payload_len
                let frame_checksum = fnv1a64(&buf[frame_start..]);
                put_u64(&mut buf, frame_checksum);
            }
            let file_checksum = fnv1a64(&buf);
            put_u64(&mut buf, file_checksum);
            buf
        };
        // A retired root.
        let bytes = encode_with_topology(&[(1, u32::MAX, 0, 1)], 1);
        assert_eq!(
            StoreSnapshot::decode(&bytes).unwrap_err(),
            PersistError::Corrupt("tombstone on a root shard")
        );
        // Retirement beyond the topology version.
        let bytes = encode_with_topology(&[(1, u32::MAX, 0, u64::MAX), (2, 0, 1, 9)], 2);
        assert_eq!(
            StoreSnapshot::decode(&bytes).unwrap_err(),
            PersistError::Corrupt("tombstone outside the topology's version range")
        );
        // A live child under a tombstone.
        let bytes = encode_with_topology(
            &[(1, u32::MAX, 0, u64::MAX), (2, 0, 1, 3), (3, 1, 2, u64::MAX)],
            3,
        );
        assert_eq!(
            StoreSnapshot::decode(&bytes).unwrap_err(),
            PersistError::Corrupt("live shard parented to a tombstone")
        );

        // A tombstoned frame that still carries entries.
        let (t1, c) = ShardTopology::fresh(1).split(0).unwrap();
        let (t2, _) = t1.merge(c).unwrap();
        let mut orphan = std::collections::BTreeMap::new();
        orphan.insert("ghost".to_string(), 1u64);
        let snap = StoreSnapshot {
            topology: t2,
            shards: vec![
                ShardSnapshot { log_index: 1, state: ShardState::new().into() },
                ShardSnapshot { log_index: 1, state: ShardState::with_entries(orphan, 2).into() },
            ],
        };
        assert_eq!(
            StoreSnapshot::decode(&snap.encode()).unwrap_err(),
            PersistError::Corrupt("retired shard frame still carries entries")
        );
    }

    #[test]
    fn corrupt_topology_section_is_distinguishable() {
        // Flip a byte inside the topology node records and reseal the
        // envelope: the error must point at the topology section, not the
        // whole-file checksum.
        let mut bytes = sample().encode();
        bytes[20] ^= 0x10; // inside the topology section (after the 12-byte header)
        let cut = bytes.len() - 8;
        bytes.truncate(cut);
        let sum = fnv1a64(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        assert_eq!(
            StoreSnapshot::decode(&bytes).unwrap_err(),
            PersistError::Corrupt("topology section checksum mismatch")
        );
    }

    #[test]
    fn epoch_beyond_topology_version_is_corrupt() {
        let mut snap = sample();
        snap.shards[0] = ShardSnapshot { log_index: 7, state: empty_at(5).into() };
        assert_eq!(
            StoreSnapshot::decode(&snap.encode()).unwrap_err(),
            PersistError::Corrupt("shard epoch exceeds the topology version")
        );
    }

    #[test]
    fn every_flipped_byte_is_detected() {
        let snap = sample();
        let good = snap.encode();
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            let err = StoreSnapshot::decode(&bad)
                .expect_err(&format!("flip at byte {i} must not decode"));
            // The envelope checksum catches every single-byte flip.
            assert_eq!(err, PersistError::ChecksumMismatch { shard: None });
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let good = sample().encode();
        for len in 0..good.len() {
            let err = StoreSnapshot::decode(&good[..len])
                .expect_err(&format!("truncation to {len} bytes must not decode"));
            assert!(
                matches!(
                    err,
                    PersistError::Truncated { .. } | PersistError::ChecksumMismatch { .. }
                ),
                "truncation to {len} gave {err:?}"
            );
        }
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        // Re-seal the envelope so the header checks themselves are hit.
        let reseal = |mut body: Vec<u8>| {
            let cut = body.len() - 8;
            body.truncate(cut);
            let sum = fnv1a64(&body);
            body.extend_from_slice(&sum.to_le_bytes());
            body
        };
        let mut bad_magic = sample().encode();
        bad_magic[0] = b'X';
        assert_eq!(StoreSnapshot::decode(&reseal(bad_magic)).unwrap_err(), PersistError::BadMagic);
        // Nothing writes a pre-v3 file and nothing reads one: versions 1 and
        // 2 fail closed exactly like an unknown future version.
        for found in [0, 1, 2, VERSION + 1, 99] {
            let mut bad_version = sample().encode();
            bad_version[4..8].copy_from_slice(&found.to_le_bytes());
            assert_eq!(
                StoreSnapshot::decode(&reseal(bad_version)).unwrap_err(),
                PersistError::UnsupportedVersion { found }
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample().encode();
        // Insert junk between the last frame and the footer, resealing.
        let cut = bytes.len() - 8;
        bytes.truncate(cut);
        bytes.extend_from_slice(b"junk");
        let sum = fnv1a64(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        assert_eq!(
            StoreSnapshot::decode(&bytes).unwrap_err(),
            PersistError::Corrupt("trailing bytes after the last frame")
        );
    }

    #[test]
    fn errors_render() {
        let io: PersistError = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        assert!(io.to_string().contains("gone"));
        assert!(PersistError::BadMagic.to_string().contains("magic"));
        assert!(PersistError::ChecksumMismatch { shard: Some(3) }.to_string().contains('3'));
        assert!(RecoverError::from(PersistError::BadMagic).to_string().contains("recovery"));
        assert!(RecoverError::from(AdmissionError::BadConfig("x")).to_string().contains("x"));
    }

    /// A seal cycle that panics while holding the flush lock wedges
    /// nobody: the next `persist` takes the recovered lock, runs its own
    /// cycle and reads `Ok`, and the file it writes recovers.
    #[test]
    fn a_poisoned_flush_lock_wedges_no_persister() {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp-unit-tests/persist-unit/poisoned");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.snapshot");
        let store = crate::StoreBuilder::new().shards(2).build().unwrap();
        store.client(store.admit_guest()).put("k", 1);
        let persister = Persister::new(&path);
        let joined = std::thread::scope(|s| {
            s.spawn(|| {
                let _cycle = persister.flush.lock().unwrap();
                panic!("the seal cycle panics");
            })
            .join()
        });
        assert!(joined.is_err() && persister.flush.is_poisoned());
        assert_eq!(persister.persist(&store), Ok(1), "the panicked cycle recorded nothing");
        assert_eq!(persister.persist(&store), Ok(2));
        assert_eq!(persister.flushes(), 2);
        let recovered = crate::StoreBuilder::new().recover(&path).unwrap();
        assert_eq!(recovered.client(recovered.admit_guest()).get("k"), Some(1));
    }
}
