//! The append-only log store: sequential records across rotating segments,
//! with crash recovery, an in-memory locator index, and a hot/cold tiered
//! layout.
//!
//! This is the durable backing for the Offchain Node's log ("The log entry
//! is then persisted to local storage", paper §4.3). Records are addressed
//! by a dense `u64` sequence number assigned at append time.
//!
//! # Tiers
//!
//! Records live in one of two tiers:
//!
//! * **Hot** — `.wlog` segments, including the active tail being appended
//!   to. Locators live in memory and (for non-tail segments) in the
//!   `index.widx` sidecar written by [`LogStore::write_index_checkpoint`].
//! * **Cold** — `.wcold` segments produced by [`LogStore::seal_up_to`] once
//!   the node reports every record in a segment blockchain-committed. Cold
//!   segments are read-only, carry an embedded locator block, and are read
//!   through a cached `pread` handle — never touching the tail lock.
//!
//! [`LogStore::retire_up_to`] deletes whole cold segments below the
//! retention frontier (the punishment window); reads below the frontier
//! fail with [`StorageError::RecordRetired`].
//!
//! Lock order (outermost first): `maint` → `tail` → `tiers` → `group`.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, RwLock};

use crate::cold::{cold_path, sync_dir, ColdSegment};
use crate::error::StorageError;
use crate::segment::{
    read_record_at, read_record_from, scan_segment, segment_path, SegmentId, SegmentWriter,
    TailState, HEADER_LEN,
};
use crate::sidecar::{
    load_gc_marker, load_index_sidecar, remove_stray_tmp_files, write_gc_marker,
    write_index_sidecar, SegmentHint,
};

/// When appended records are made durable: group commit, the one policy.
///
/// Every append is flushed to the OS before its sequence number is
/// published, so a reader never needs the tail lock. The fsyncs of
/// pipeline-adjacent appends are coalesced into one `sync_data`: a sync is
/// triggered inline once `max_batches` appends are pending, and
/// [`LogStore::ensure_durable`] bounds the wait at `max_delay`. Callers
/// must hold replies until it returns (reply ⇒ durable).
///
/// `max_batches: 1` syncs every append inline, so `ensure_durable` returns
/// at once. A caller that never calls `ensure_durable` gets durability at
/// every `max_batches`-th append, at rotation, and on [`LogStore::sync`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SyncPolicy {
    /// Coalesce the fsyncs of up to `max_batches` appends.
    GroupCommit {
        /// Pending appends that trigger a sync inline.
        max_batches: usize,
        /// Longest a waiting [`LogStore::ensure_durable`] defers the sync
        /// hoping for more batches to share it.
        max_delay: Duration,
    },
}

impl Default for SyncPolicy {
    fn default() -> Self {
        SyncPolicy::GroupCommit {
            max_batches: 8,
            max_delay: Duration::from_millis(2),
        }
    }
}

/// Configuration for a [`LogStore`].
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Rotate to a new segment once the current one exceeds this size.
    pub max_segment_bytes: u64,
    /// Reject payloads larger than this.
    pub max_record_bytes: usize,
    /// Durability policy.
    pub sync: SyncPolicy,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            max_segment_bytes: 64 * 1024 * 1024,
            max_record_bytes: 16 * 1024 * 1024,
            sync: SyncPolicy::default(),
        }
    }
}

/// Locates a record on disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Locator {
    segment: SegmentId,
    offset: u64,
}

/// Where a resolved record lives.
enum Resolved {
    /// In a sealed cold segment (shared cached handle).
    Cold(Arc<ColdSegment>),
    /// In a hot `.wlog` segment.
    Hot(Locator),
}

/// The two-tier locator index. One lock guards both tiers so a reader's
/// view of a seal/retire transition is atomic.
struct Tiers {
    /// Oldest live sequence number (> 0 once the retention policy has
    /// deleted cold segments).
    start: u64,
    /// Sealed segments, ascending and contiguous: they cover
    /// `[start, hot_base)`.
    cold: Vec<Arc<ColdSegment>>,
    /// Sequence number of the first hot record.
    hot_base: u64,
    /// Locators for hot records; `hot[i]` holds `hot_base + i`.
    hot: Vec<Locator>,
}

impl Tiers {
    fn len(&self) -> u64 {
        self.hot_base + self.hot.len() as u64
    }

    fn resolve(&self, id: u64) -> Result<Resolved, StorageError> {
        if id >= self.len() {
            return Err(StorageError::RecordNotFound {
                id,
                len: self.len(),
            });
        }
        if id >= self.hot_base {
            let rel = (id - self.hot_base) as usize;
            return match self.hot.get(rel) {
                Some(&locator) => Ok(Resolved::Hot(locator)),
                None => Err(StorageError::RecordNotFound {
                    id,
                    len: self.len(),
                }),
            };
        }
        if id < self.start {
            return Err(StorageError::RecordRetired {
                id,
                oldest: self.start,
            });
        }
        let at = self.cold.partition_point(|c| c.end_seq() <= id);
        match self.cold.get(at) {
            Some(segment) if segment.contains(id) => Ok(Resolved::Cold(segment.clone())),
            _ => Err(StorageError::CorruptRecord {
                id,
                what: "cold tier does not cover a sequence it should",
            }),
        }
    }
}

/// Append side: the active segment writer.
struct Tail {
    writer: SegmentWriter,
}

/// Group-commit bookkeeping. Lock order: this mutex is innermost —
/// it is taken while holding the tail and/or tiers locks, and never the
/// other way around.
struct GroupState {
    /// Appends (batched or single) flushed to the OS but not yet covered by
    /// an fsync.
    pending_batches: u64,
    /// When the oldest pending append arrived; anchors `max_delay`.
    first_pending_at: Option<Instant>,
    /// Records `[0, durable_len)` are known to be on stable storage.
    durable_len: u64,
}

/// Counters describing the store's sync behaviour (sampled, monotonic).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SyncStats {
    /// `sync_data` calls issued.
    pub fsyncs: u64,
    /// Appends whose durability rode a neighbouring batch's fsync instead
    /// of paying their own (each sync covering `k` pending appends counts
    /// `k - 1` here).
    pub fsyncs_coalesced: u64,
}

/// Work done by [`LogStore::open`] to recover the index — the observable
/// measure of O(tail) restart.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Cold segments admitted by parsing their embedded locator block
    /// (no record scan).
    pub cold_segments: u64,
    /// Hot segments admitted from a matching `index.widx` entry
    /// (no record scan).
    pub hinted_segments: u64,
    /// Segments that had to be scanned record-by-record (always at least
    /// the tail, when one exists).
    pub scanned_segments: u64,
    /// Records read and CRC-verified during those scans.
    pub scanned_records: u64,
}

/// Tiering counters (current sizes and monotonic totals since open).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Cold segments currently live.
    pub cold_segments: u64,
    /// Hot segments currently live (including the tail).
    pub hot_segments: u64,
    /// Segments sealed by [`LogStore::seal_up_to`] since open.
    pub segments_sealed: u64,
    /// Cold segments deleted by [`LogStore::retire_up_to`] since open.
    pub segments_retired: u64,
    /// Records served from the cold tier since open.
    pub cold_reads: u64,
    /// Oldest sequence number still readable.
    pub oldest_live: u64,
}

/// A durable append-only record log.
///
/// Appends are serialized; reads are concurrent and lock the tiers index
/// only briefly. Hot reads open their own file handle (readers never
/// contend with the writer on file position); cold reads share the sealed
/// segment's cached `pread` handle.
pub struct LogStore {
    dir: PathBuf,
    config: StoreConfig,
    tiers: RwLock<Tiers>,
    tail: Mutex<Tail>,
    /// Mirror of `tail.writer.id()`, updated under the tail lock — lets
    /// maintenance and stats name the tail without taking its mutex.
    tail_seg: AtomicU32,
    /// Serializes structural maintenance: seal, retire, index checkpoint,
    /// truncate. Never taken on the append or read paths.
    maint: Mutex<()>,
    group: Mutex<GroupState>,
    group_cv: Condvar,
    fsyncs: AtomicU64,
    fsyncs_coalesced: AtomicU64,
    cold_reads: AtomicU64,
    sealed_total: AtomicU64,
    retired_total: AtomicU64,
    recovery: RecoveryStats,
}

impl LogStore {
    /// Opens (or creates) a store in `dir`, recovering any existing
    /// segments. A torn tail record (interrupted write) is truncated away;
    /// genuine corruption — bad magic or a CRC mismatch on a fully present
    /// record — fails the open with [`StorageError::CorruptRecord`].
    ///
    /// Recovery cost is proportional to what lacks a trusted locator
    /// source: cold segments contribute one footer read each, hot non-tail
    /// segments with a matching `index.widx` entry are admitted without a
    /// scan, and only the remainder (always including the tail) is scanned
    /// record-by-record. [`LogStore::recovery_stats`] reports the split.
    pub fn open(dir: impl AsRef<Path>, config: StoreConfig) -> Result<LogStore, StorageError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        remove_stray_tmp_files(&dir)?;
        let marker_start = load_gc_marker(&dir);

        // Discover segment files of both tiers.
        let mut cold_ids: Vec<SegmentId> = Vec::new();
        let mut wlog_ids: Vec<SegmentId> = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let Ok(name) = entry?.file_name().into_string() else {
                continue;
            };
            if let Some(id) = name.strip_prefix("seg-") {
                if let Some(id) = id.strip_suffix(".wlog") {
                    if let Ok(id) = id.parse::<SegmentId>() {
                        wlog_ids.push(id);
                    }
                } else if let Some(id) = id.strip_suffix(".wcold") {
                    if let Ok(id) = id.parse::<SegmentId>() {
                        cold_ids.push(id);
                    }
                }
            }
        }
        cold_ids.sort_unstable();
        wlog_ids.sort_unstable();
        // A crash between a seal's rename and its .wlog unlink leaves both
        // files: the cold copy is complete and checksummed, so it wins.
        wlog_ids.retain(|id| {
            if cold_ids.binary_search(id).is_ok() {
                let _ = std::fs::remove_file(segment_path(&dir, *id));
                false
            } else {
                true
            }
        });
        if let (Some(last_cold), Some(first_wlog)) = (cold_ids.last(), wlog_ids.first()) {
            if last_cold >= first_wlog {
                return Err(StorageError::CorruptRecord {
                    id: *last_cold as u64,
                    what: "cold segment found after a hot segment",
                });
            }
        }

        let mut recovery = RecoveryStats::default();
        let mut cold: Vec<Arc<ColdSegment>> = Vec::new();
        for &id in &cold_ids {
            cold.push(Arc::new(ColdSegment::open(&dir, id)?));
        }
        // A crash between a retention pass's marker write and its unlinks
        // leaves cold segments wholly below the marker: delete them now.
        let mut start = marker_start;
        while cold.first().is_some_and(|c| c.end_seq() <= start) {
            let seg = cold.remove(0);
            let _ = std::fs::remove_file(seg.path());
        }
        if let Some(first) = cold.first() {
            start = first.first_seq();
        }
        let mut running = start;
        for seg in &cold {
            if seg.first_seq() != running {
                return Err(StorageError::CorruptRecord {
                    id: seg.id() as u64,
                    what: "cold segments are not sequence-contiguous",
                });
            }
            running = seg.end_seq();
        }
        recovery.cold_segments = cold.len() as u64;
        let hot_base = running;

        let hints = load_index_sidecar(&dir);
        let mut hot: Vec<Locator> = Vec::new();
        let mut tail_writer = None;
        let mut seq = hot_base;
        if let Some((&last, full_segments)) = wlog_ids.split_last() {
            for &id in full_segments {
                let file_len = std::fs::metadata(segment_path(&dir, id))?.len();
                let hint = hints.get(&id).filter(|h| {
                    h.first_seq == seq && h.valid_len == file_len && !h.offsets.is_empty()
                });
                if let Some(hint) = hint {
                    hot.extend(hint.offsets.iter().map(|&offset| Locator {
                        segment: id,
                        offset,
                    }));
                    seq += hint.offsets.len() as u64;
                    recovery.hinted_segments += 1;
                    continue;
                }
                let scan = scan_segment(&dir, id)?;
                // Non-tail segments must be fully intact: mid-log corruption
                // cannot be silently dropped without creating a hole.
                if scan.has_trailing_bytes() {
                    return Err(StorageError::CorruptRecord {
                        id: id as u64,
                        what: "corruption in a sealed (non-tail) segment",
                    });
                }
                hot.extend(scan.records.iter().map(|&(offset, _)| Locator {
                    segment: id,
                    offset,
                }));
                seq += scan.records.len() as u64;
                recovery.scanned_segments += 1;
                recovery.scanned_records += scan.records.len() as u64;
            }
            let scan = scan_segment(&dir, last)?;
            // A torn write at the tail is the expected crash artifact and is
            // truncated; corrupt bytes (bad magic / CRC mismatch with the
            // payload fully present) mean tampering or bit rot and fail the
            // open rather than silently shortening the log.
            if let TailState::Corrupt { offset, what } = scan.tail {
                return Err(StorageError::CorruptRecord { id: offset, what });
            }
            hot.extend(scan.records.iter().map(|&(offset, _)| Locator {
                segment: last,
                offset,
            }));
            recovery.scanned_segments += 1;
            recovery.scanned_records += scan.records.len() as u64;
            tail_writer = Some(SegmentWriter::open_at(&dir, last, scan.valid_len)?);
        }
        let writer = match tail_writer {
            Some(w) => w,
            None => {
                let id = cold.last().map(|c| c.id() + 1).unwrap_or(0);
                SegmentWriter::create(&dir, id)?
            }
        };
        let tiers = Tiers {
            start,
            cold,
            hot_base,
            hot,
        };
        let durable_len = tiers.len();
        let tail_seg = writer.id();
        Ok(LogStore {
            dir,
            config,
            tiers: RwLock::new(tiers),
            tail: Mutex::new(Tail { writer }),
            tail_seg: AtomicU32::new(tail_seg),
            maint: Mutex::new(()),
            group: Mutex::new(GroupState {
                pending_batches: 0,
                first_pending_at: None,
                // Recovered records were read back from disk, so they are
                // durable by construction.
                durable_len,
            }),
            group_cv: Condvar::new(),
            fsyncs: AtomicU64::new(0),
            fsyncs_coalesced: AtomicU64::new(0),
            cold_reads: AtomicU64::new(0),
            sealed_total: AtomicU64::new(0),
            retired_total: AtomicU64::new(0),
            recovery,
        })
    }

    /// Flushes and fsyncs the tail, then publishes the new durable frontier
    /// and wakes [`LogStore::ensure_durable`] waiters. Caller holds the tail
    /// lock; lock order is tail → tiers → group.
    fn sync_tail(&self, tail: &mut Tail) -> Result<(), StorageError> {
        tail.writer.sync()?;
        let durable = self.tiers.read().len();
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        let mut group = self.group.lock();
        self.fsyncs_coalesced
            .fetch_add(group.pending_batches.saturating_sub(1), Ordering::Relaxed);
        group.pending_batches = 0;
        group.first_pending_at = None;
        if durable > group.durable_len {
            group.durable_len = durable;
        }
        drop(group);
        self.group_cv.notify_all();
        Ok(())
    }

    /// Group-commit accounting after an append made it into the index:
    /// counts the pending batch and performs the covering fsync inline once
    /// `max_batches` are waiting. Caller holds the tail lock.
    fn note_appended(&self, tail: &mut Tail) -> Result<(), StorageError> {
        let SyncPolicy::GroupCommit { max_batches, .. } = self.config.sync;
        let should_sync = {
            let mut group = self.group.lock();
            group.pending_batches += 1;
            if group.first_pending_at.is_none() {
                group.first_pending_at = Some(Instant::now());
            }
            group.pending_batches >= max_batches.max(1) as u64
        };
        if should_sync {
            self.sync_tail(tail)?;
        }
        Ok(())
    }

    /// Blocks until record `seq` is covered by an fsync.
    ///
    /// This is the reply-release gate: a caller may acknowledge `seq` only
    /// after this returns. The wait is bounded — if no neighbouring batch
    /// triggers the sync within `max_delay` of the oldest pending append,
    /// the caller performs it itself.
    pub fn ensure_durable(&self, seq: u64) -> Result<(), StorageError> {
        let SyncPolicy::GroupCommit { max_delay, .. } = self.config.sync;
        loop {
            let mut group = self.group.lock();
            if seq < group.durable_len {
                return Ok(());
            }
            // If nothing is pending there is no upcoming group sync to wait
            // for: fall through to the self-performed sync + recheck, which
            // either observes durability or proves the record absent.
            if let Some(first) = group.first_pending_at {
                let deadline = first + max_delay;
                let now = Instant::now();
                if now < deadline {
                    // Wait for a threshold-triggered sync to cover us (or
                    // for the delay budget to run out). Spurious wakeups
                    // only cause a re-check.
                    self.group_cv.wait_for(&mut group, deadline - now);
                    continue;
                }
            }
            drop(group);
            // Delay budget exhausted: perform the covering fsync ourselves.
            {
                let mut tail = self.tail.lock();
                self.sync_tail(&mut tail)?;
            }
            let group = self.group.lock();
            if seq < group.durable_len {
                return Ok(());
            }
            // Even a fresh fsync did not cover `seq`: the record is not in
            // the store, and waiting longer cannot make it durable.
            return Err(StorageError::RecordNotFound {
                id: seq,
                len: group.durable_len,
            });
        }
    }

    /// Sync-behaviour counters (monotonic since open).
    pub fn sync_stats(&self) -> SyncStats {
        SyncStats {
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            fsyncs_coalesced: self.fsyncs_coalesced.load(Ordering::Relaxed),
        }
    }

    /// Recovery work done by the open that produced this store.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery
    }

    /// Tiering counters (current sizes and monotonic totals since open).
    pub fn tier_stats(&self) -> TierStats {
        let tail_id = self.tail_seg.load(Ordering::Acquire);
        let tiers = self.tiers.read();
        let mut hot_segments = 0u64;
        let mut last: Option<SegmentId> = None;
        for locator in &tiers.hot {
            if last != Some(locator.segment) {
                hot_segments += 1;
                last = Some(locator.segment);
            }
        }
        if last != Some(tail_id) {
            hot_segments += 1;
        }
        TierStats {
            cold_segments: tiers.cold.len() as u64,
            hot_segments,
            segments_sealed: self.sealed_total.load(Ordering::Relaxed),
            segments_retired: self.retired_total.load(Ordering::Relaxed),
            cold_reads: self.cold_reads.load(Ordering::Relaxed),
            oldest_live: tiers.start,
        }
    }

    /// Appends a record; returns its sequence number.
    pub fn append(&self, payload: &[u8]) -> Result<u64, StorageError> {
        if payload.len() > self.config.max_record_bytes {
            return Err(StorageError::RecordTooLarge {
                size: payload.len(),
                max: self.config.max_record_bytes,
            });
        }
        let mut tail = self.tail.lock();
        // Rotate if the current segment is full (never rotate an empty one —
        // a single oversized record may exceed max_segment_bytes).
        if tail.writer.len() + (HEADER_LEN + payload.len()) as u64 > self.config.max_segment_bytes
            && !tail.writer.is_empty()
        {
            self.sync_tail(&mut tail)?;
            let next_id = tail.writer.id() + 1;
            tail.writer = SegmentWriter::create(&self.dir, next_id)?;
            self.tail_seg.store(next_id, Ordering::Release);
        }
        let offset = tail.writer.append(payload)?;
        tail.writer.flush()?;
        let locator = Locator {
            segment: tail.writer.id(),
            offset,
        };
        let seq = {
            let mut tiers = self.tiers.write();
            tiers.hot.push(locator);
            tiers.len() - 1
        };
        self.note_appended(&mut tail)?;
        Ok(seq)
    }

    /// Appends several records as one batch, flushing once. Returns the
    /// sequence number of the first record.
    pub fn append_batch<D: AsRef<[u8]>>(&self, payloads: &[D]) -> Result<u64, StorageError> {
        let mut tail = self.tail.lock();
        let mut locators = Vec::with_capacity(payloads.len());
        for payload in payloads {
            let payload = payload.as_ref();
            if payload.len() > self.config.max_record_bytes {
                return Err(StorageError::RecordTooLarge {
                    size: payload.len(),
                    max: self.config.max_record_bytes,
                });
            }
            if tail.writer.len() + (HEADER_LEN + payload.len()) as u64
                > self.config.max_segment_bytes
                && !tail.writer.is_empty()
            {
                self.sync_tail(&mut tail)?;
                let next_id = tail.writer.id() + 1;
                tail.writer = SegmentWriter::create(&self.dir, next_id)?;
                self.tail_seg.store(next_id, Ordering::Release);
            }
            let offset = tail.writer.append(payload)?;
            locators.push(Locator {
                segment: tail.writer.id(),
                offset,
            });
        }
        tail.writer.flush()?;
        let first = {
            let mut tiers = self.tiers.write();
            let first = tiers.len();
            tiers.hot.extend(locators);
            first
        };
        self.note_appended(&mut tail)?;
        Ok(first)
    }

    /// Reads record `id`.
    ///
    /// Cold records are served through the sealed segment's cached handle;
    /// hot records through a fresh handle. Neither takes the tail lock:
    /// every append is flushed to the OS before its sequence number is
    /// published, so an indexed record is always readable from the file.
    pub fn read(&self, id: u64) -> Result<Vec<u8>, StorageError> {
        let resolved = self.tiers.read().resolve(id)?;
        match resolved {
            Resolved::Cold(segment) => {
                self.cold_reads.fetch_add(1, Ordering::Relaxed);
                segment.read(id)
            }
            Resolved::Hot(locator) => self.read_hot(id, locator),
        }
    }

    fn read_hot(&self, id: u64, locator: Locator) -> Result<Vec<u8>, StorageError> {
        match read_record_at(&self.dir, locator.segment, locator.offset) {
            Err(StorageError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                // The segment was sealed between resolve and open — the
                // records are intact in the cold tier; re-resolve once.
                let resolved = self.tiers.read().resolve(id)?;
                match resolved {
                    Resolved::Cold(segment) => {
                        self.cold_reads.fetch_add(1, Ordering::Relaxed);
                        segment.read(id)
                    }
                    Resolved::Hot(l) => read_record_at(&self.dir, l.segment, l.offset),
                }
            }
            other => other,
        }
    }

    /// Reads records `[start, start + count)` in order.
    ///
    /// The locator lookup is batched (one tiers-lock acquisition for the
    /// whole range), and records are read through per-segment cached
    /// handles instead of re-opening the file per record.
    pub fn read_range(&self, start: u64, count: u64) -> Result<Vec<Vec<u8>>, StorageError> {
        if count == 0 {
            return Ok(Vec::new());
        }
        let end = start
            .checked_add(count)
            .ok_or(StorageError::RecordNotFound {
                id: u64::MAX,
                len: self.len(),
            })?;
        let resolved: Vec<Resolved> = {
            let tiers = self.tiers.read();
            let mut resolved = Vec::with_capacity(count as usize);
            for id in start..end {
                resolved.push(tiers.resolve(id)?);
            }
            resolved
        };
        let mut out = Vec::with_capacity(count as usize);
        let mut cached: Option<(SegmentId, File)> = None;
        for (i, resolved) in resolved.into_iter().enumerate() {
            let id = start + i as u64;
            match resolved {
                Resolved::Cold(segment) => {
                    self.cold_reads.fetch_add(1, Ordering::Relaxed);
                    out.push(segment.read(id)?);
                }
                Resolved::Hot(locator) => {
                    if cached.as_ref().map(|(s, _)| *s) != Some(locator.segment) {
                        cached = match File::open(segment_path(&self.dir, locator.segment)) {
                            Ok(file) => Some((locator.segment, file)),
                            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
                            Err(e) => return Err(e.into()),
                        };
                    }
                    match cached.as_ref() {
                        Some((_, file)) => match read_record_from(file, locator.offset) {
                            Ok(payload) => out.push(payload),
                            // A concurrent truncation can shrink the file
                            // under us; the slow path re-resolves.
                            Err(StorageError::Io(_)) => out.push(self.read(id)?),
                            Err(e) => return Err(e),
                        },
                        // Sealed underneath us — the slow path re-resolves
                        // to the cold tier.
                        None => out.push(self.read(id)?),
                    }
                }
            }
        }
        Ok(out)
    }

    /// Number of records ever appended (retired records still count: the
    /// sequence space is dense and never reused).
    pub fn len(&self) -> u64 {
        self.tiers.read().len()
    }

    /// Oldest sequence number still readable (> 0 once the retention policy
    /// has deleted cold segments).
    pub fn oldest(&self) -> u64 {
        self.tiers.read().start
    }

    /// True when no records are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Forces the tail to stable storage.
    pub fn sync(&self) -> Result<(), StorageError> {
        let mut tail = self.tail.lock();
        self.sync_tail(&mut tail)
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of live segments (cold + hot, including the active tail).
    /// Counts actual on-disk segments, so it stays truthful across
    /// sealing, retention, and tail truncation.
    pub fn segment_count(&self) -> u32 {
        let stats = self.tier_stats();
        (stats.cold_segments + stats.hot_segments) as u32
    }

    /// Iterates over all live records in sequence order, starting at
    /// [`LogStore::oldest`]. Records are fetched in small chunks through
    /// the batched [`LogStore::read_range`] path (no large resident
    /// buffers); errors surface per record.
    pub fn iter(&self) -> impl Iterator<Item = Result<Vec<u8>, StorageError>> + '_ {
        const CHUNK: u64 = 16;
        let end = self.len();
        let mut next = self.oldest();
        let mut buffered: std::collections::VecDeque<Result<Vec<u8>, StorageError>> =
            std::collections::VecDeque::new();
        std::iter::from_fn(move || {
            if buffered.is_empty() {
                if next >= end {
                    return None;
                }
                let n = (end - next).min(CHUNK);
                match self.read_range(next, n) {
                    Ok(records) => buffered.extend(records.into_iter().map(Ok)),
                    // Keep the per-record error granularity of the old
                    // one-read-per-item iterator.
                    Err(_) => buffered.extend((next..next + n).map(|id| self.read(id))),
                }
                next += n;
            }
            buffered.pop_front()
        })
    }

    /// Seals every hot segment whose records all lie below `frontier` (the
    /// blockchain-committed boundary, exclusive) into the cold tier.
    /// Returns the number of segments sealed.
    ///
    /// The active tail segment is never sealed. Sealing verifies every
    /// record CRC, writes the `.wcold` atomically, switches readers over,
    /// and only then deletes the `.wlog` — a crash at any point is
    /// recovered by [`LogStore::open`].
    pub fn seal_up_to(&self, frontier: u64) -> Result<u32, StorageError> {
        let _maint = self.maint.lock();
        let mut sealed = 0u32;
        loop {
            let candidate = {
                let tiers = self.tiers.read();
                match tiers.hot.first() {
                    Some(first) if first.segment != self.tail_seg.load(Ordering::Acquire) => {
                        let segment = first.segment;
                        let count = tiers
                            .hot
                            .iter()
                            .take_while(|l| l.segment == segment)
                            .count();
                        if tiers.hot_base + count as u64 <= frontier {
                            Some((segment, tiers.hot_base, count))
                        } else {
                            None
                        }
                    }
                    _ => None,
                }
            };
            let Some((segment, first_seq, count)) = candidate else {
                break;
            };
            // File work happens without any store lock: the segment is
            // immutable (non-tail) and `maint` keeps other maintenance out.
            let cold = ColdSegment::seal(&self.dir, segment, first_seq)?;
            if cold.record_count() != count as u64 {
                return Err(StorageError::CorruptRecord {
                    id: segment as u64,
                    what: "sealed record count disagrees with the index",
                });
            }
            {
                let mut tiers = self.tiers.write();
                tiers.hot.drain(..count);
                tiers.hot_base += count as u64;
                tiers.cold.push(Arc::new(cold));
            }
            // Readers now resolve to the cold copy; the source can go. A
            // reader that raced the swap re-resolves on NotFound.
            let _ = std::fs::remove_file(segment_path(&self.dir, segment));
            self.sealed_total.fetch_add(1, Ordering::Relaxed);
            sealed += 1;
        }
        if sealed > 0 {
            sync_dir(&self.dir)?;
        }
        Ok(sealed)
    }

    /// Deletes whole cold segments whose records all lie below `upto` (the
    /// retention frontier, exclusive) — the punishment-window GC. Returns
    /// the number of segments deleted. Subsequent reads below the new
    /// [`LogStore::oldest`] fail with [`StorageError::RecordRetired`].
    pub fn retire_up_to(&self, upto: u64) -> Result<u32, StorageError> {
        let _maint = self.maint.lock();
        let removable: Vec<Arc<ColdSegment>> = {
            let tiers = self.tiers.read();
            tiers
                .cold
                .iter()
                .take_while(|c| c.end_seq() <= upto)
                .cloned()
                .collect()
        };
        let Some(last) = removable.last() else {
            return Ok(0);
        };
        let new_start = last.end_seq();
        // Marker first: a crash after this point leaves files the next open
        // recognises as retired and deletes.
        write_gc_marker(&self.dir, new_start)?;
        {
            let mut tiers = self.tiers.write();
            tiers.cold.drain(..removable.len());
            tiers.start = new_start;
        }
        // In-flight readers holding the Arc keep the unlinked data readable
        // through the cached handle; new resolves report RecordRetired.
        for segment in &removable {
            let _ = std::fs::remove_file(segment.path());
        }
        sync_dir(&self.dir)?;
        self.retired_total
            .fetch_add(removable.len() as u64, Ordering::Relaxed);
        Ok(removable.len() as u32)
    }

    /// Writes the `index.widx` sidecar: a checkpoint of the locators of
    /// every full (non-tail) hot segment, so the next open admits them
    /// without a record scan. Cold segments carry their own locator blocks
    /// and the tail is always scanned, so a fresh sidecar makes open
    /// O(tail).
    pub fn write_index_checkpoint(&self) -> Result<(), StorageError> {
        let _maint = self.maint.lock();
        let tail_id = self.tail_seg.load(Ordering::Acquire);
        let mut hints: Vec<SegmentHint> = Vec::new();
        {
            let tiers = self.tiers.read();
            for (seq, locator) in (tiers.hot_base..).zip(tiers.hot.iter()) {
                if locator.segment == tail_id {
                    // Hot locators are segment-ordered; everything from the
                    // first tail locator on is tail.
                    break;
                }
                match hints.last_mut() {
                    Some(hint) if hint.id == locator.segment => hint.offsets.push(locator.offset),
                    _ => hints.push(SegmentHint {
                        id: locator.segment,
                        first_seq: seq,
                        valid_len: 0,
                        offsets: vec![locator.offset],
                    }),
                }
            }
        }
        // Fill in the exact on-disk lengths (rotated segments are fully
        // flushed, so the metadata length is the scan-valid length).
        let mut complete = Vec::with_capacity(hints.len());
        for mut hint in hints {
            if let Ok(meta) = std::fs::metadata(segment_path(&self.dir, hint.id)) {
                hint.valid_len = meta.len();
                complete.push(hint);
            }
        }
        write_index_sidecar(&self.dir, &complete)
    }

    /// Simulates the paper's extreme omission attack for tests: removes the
    /// newest `count` records from the index *and* truncates them from disk
    /// — across segment and even tier boundaries (later cold segments are
    /// deleted; a partially-kept cold segment is unsealed back into the
    /// tail). Returns the new length.
    ///
    /// Truncating into the retired region (below [`LogStore::oldest`])
    /// fails with [`StorageError::RecordRetired`]: deleted data cannot be
    /// resurrected.
    pub fn truncate_tail(&self, count: u64) -> Result<u64, StorageError> {
        let _maint = self.maint.lock();
        let mut tail = self.tail.lock();
        let mut tiers = self.tiers.write();
        let len = tiers.len();
        let new_len = len.saturating_sub(count);
        if new_len < tiers.start {
            return Err(StorageError::RecordRetired {
                id: new_len,
                oldest: tiers.start,
            });
        }
        if new_len == len {
            return Ok(new_len);
        }
        if new_len >= tiers.hot_base {
            // Boundary within the hot tier (the pre-tiering behaviour).
            let keep = (new_len - tiers.hot_base) as usize;
            let removed: Vec<Locator> = tiers.hot.drain(keep..).collect();
            if let Some(first) = removed.first() {
                tail.writer.sync()?;
                // Remove whole later segments, then truncate within the one
                // holding the first removed record.
                for segment in (first.segment + 1)..=tail.writer.id() {
                    let _ = std::fs::remove_file(segment_path(&self.dir, segment));
                }
                tail.writer = SegmentWriter::open_at(&self.dir, first.segment, first.offset)?;
                self.tail_seg.store(first.segment, Ordering::Release);
            }
        } else {
            // Boundary within the cold tier: every hot segment file goes,
            // later cold segments are deleted, and the boundary cold
            // segment is unsealed back into an appendable tail.
            let mut doomed_hot: Vec<SegmentId> = Vec::new();
            for locator in &tiers.hot {
                if doomed_hot.last() != Some(&locator.segment) {
                    doomed_hot.push(locator.segment);
                }
            }
            let tail_id = tail.writer.id();
            if doomed_hot.last() != Some(&tail_id) {
                doomed_hot.push(tail_id);
            }
            tiers.hot.clear();
            let keep_full = tiers.cold.partition_point(|c| c.end_seq() <= new_len);
            let doomed_cold: Vec<Arc<ColdSegment>> = tiers.cold.drain(keep_full..).collect();
            let boundary = doomed_cold
                .first()
                .cloned()
                .ok_or(StorageError::CorruptRecord {
                    id: new_len,
                    what: "truncation boundary outside every tier",
                })?;
            for segment in &doomed_hot {
                let _ = std::fs::remove_file(segment_path(&self.dir, *segment));
            }
            if boundary.first_seq() == new_len {
                // Clean edge: the whole boundary segment goes too; the tail
                // restarts as a fresh segment reusing its id.
                tail.writer = SegmentWriter::create(&self.dir, boundary.id())?;
                tiers.hot_base = new_len;
            } else {
                // Partial: copy the kept prefix back into a .wlog tail.
                let cut = boundary
                    .offset_of(new_len)
                    .ok_or(StorageError::CorruptRecord {
                        id: new_len,
                        what: "truncation boundary missing from the cold locator",
                    })?;
                boundary.unseal_prefix_len(&self.dir, cut)?;
                let mut restored = Vec::new();
                for seq in boundary.first_seq()..new_len {
                    let offset = boundary.offset_of(seq).ok_or(StorageError::CorruptRecord {
                        id: seq,
                        what: "kept record missing from the cold locator",
                    })?;
                    restored.push(Locator {
                        segment: boundary.id(),
                        offset,
                    });
                }
                tiers.hot = restored;
                tiers.hot_base = boundary.first_seq();
                tail.writer = SegmentWriter::open_at(&self.dir, boundary.id(), cut)?;
            }
            self.tail_seg.store(tail.writer.id(), Ordering::Release);
            for segment in &doomed_cold {
                let _ = std::fs::remove_file(cold_path(&self.dir, segment.id()));
            }
        }
        // The durable frontier cannot exceed the truncated length.
        let mut group = self.group.lock();
        if group.durable_len > new_len {
            group.durable_len = new_len;
        }
        Ok(new_len)
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "wedge-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn append_read_roundtrip() {
        let store = LogStore::open(tempdir("rt"), StoreConfig::default()).unwrap();
        let a = store.append(b"alpha").unwrap();
        let b = store.append(b"beta").unwrap();
        assert_eq!((a, b), (0, 1));
        assert_eq!(store.read(0).unwrap(), b"alpha");
        assert_eq!(store.read(1).unwrap(), b"beta");
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn missing_record_is_error() {
        let store = LogStore::open(tempdir("miss"), StoreConfig::default()).unwrap();
        assert!(matches!(
            store.read(0),
            Err(StorageError::RecordNotFound { id: 0, len: 0 })
        ));
    }

    #[test]
    fn oversized_record_rejected() {
        let config = StoreConfig {
            max_record_bytes: 8,
            ..Default::default()
        };
        let store = LogStore::open(tempdir("big"), config).unwrap();
        assert!(matches!(
            store.append(b"123456789"),
            Err(StorageError::RecordTooLarge { size: 9, max: 8 })
        ));
    }

    #[test]
    fn rotation_spreads_segments() {
        let config = StoreConfig {
            max_segment_bytes: 64,
            ..Default::default()
        };
        let dir = tempdir("rot");
        let store = LogStore::open(&dir, config).unwrap();
        for i in 0..20u32 {
            store
                .append(format!("record-number-{i:04}").as_bytes())
                .unwrap();
        }
        assert!(store.segment_count() > 1, "expected rotation");
        for i in 0..20u32 {
            assert_eq!(
                store.read(i as u64).unwrap(),
                format!("record-number-{i:04}").as_bytes()
            );
        }
    }

    #[test]
    fn batch_append_is_dense_and_ordered() {
        let store = LogStore::open(tempdir("batch"), StoreConfig::default()).unwrap();
        store.append(b"pre").unwrap();
        let first = store
            .append_batch(&[b"b0".as_slice(), b"b1", b"b2"])
            .unwrap();
        assert_eq!(first, 1);
        assert_eq!(store.read(2).unwrap(), b"b1");
        assert_eq!(store.len(), 4);
    }

    #[test]
    fn recovery_restores_index() {
        let dir = tempdir("rec");
        let config = StoreConfig {
            max_segment_bytes: 128,
            ..Default::default()
        };
        {
            let store = LogStore::open(&dir, config.clone()).unwrap();
            for i in 0..30u32 {
                store.append(format!("persisted-{i}").as_bytes()).unwrap();
            }
            store.sync().unwrap();
        }
        let store = LogStore::open(&dir, config).unwrap();
        assert_eq!(store.len(), 30);
        for i in 0..30u32 {
            assert_eq!(
                store.read(i as u64).unwrap(),
                format!("persisted-{i}").as_bytes()
            );
        }
        // And appends continue from the recovered tail.
        assert_eq!(store.append(b"after-recovery").unwrap(), 30);
    }

    #[test]
    fn recovery_truncates_torn_tail() {
        let dir = tempdir("torn");
        let config = StoreConfig::default();
        {
            let store = LogStore::open(&dir, config.clone()).unwrap();
            store.append(b"complete-1").unwrap();
            store.append(b"complete-2").unwrap();
            store.append(b"torn-record").unwrap();
            store.sync().unwrap();
        }
        // Tear the last record.
        let seg = segment_path(&dir, 0);
        let len = std::fs::metadata(&seg).unwrap().len();
        let file = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
        file.set_len(len - 3).unwrap();
        drop(file);
        let store = LogStore::open(&dir, config).unwrap();
        assert_eq!(store.len(), 2, "torn record dropped");
        // The torn slot is reused by the next append.
        assert_eq!(store.append(b"rewritten").unwrap(), 2);
        assert_eq!(store.read(2).unwrap(), b"rewritten");
    }

    #[test]
    fn sealed_segment_corruption_fails_open() {
        let dir = tempdir("sealed");
        let config = StoreConfig {
            max_segment_bytes: 64,
            ..Default::default()
        };
        {
            let store = LogStore::open(&dir, config.clone()).unwrap();
            for i in 0..10u32 {
                store
                    .append(format!("record-number-{i:04}").as_bytes())
                    .unwrap();
            }
            store.sync().unwrap();
            assert!(store.segment_count() > 1);
        }
        // Corrupt a byte in the middle of segment 0 (sealed).
        let seg = segment_path(&dir, 0);
        let mut data = std::fs::read(&seg).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0xFF;
        std::fs::write(&seg, &data).unwrap();
        assert!(matches!(
            LogStore::open(&dir, config),
            Err(StorageError::CorruptRecord { .. })
        ));
    }

    #[test]
    fn garbage_tail_fails_open() {
        // Regression: garbage appended to a segment (full header's worth of
        // bytes with a bad magic) must fail recovery with `CorruptRecord`,
        // not be dropped like a torn write.
        let dir = tempdir("garbage");
        let config = StoreConfig::default();
        {
            let store = LogStore::open(&dir, config.clone()).unwrap();
            store.append(b"intact-1").unwrap();
            store.append(b"intact-2").unwrap();
            store.sync().unwrap();
        }
        let seg = segment_path(&dir, 0);
        let mut data = std::fs::read(&seg).unwrap();
        data.extend_from_slice(&[
            0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66,
        ]);
        std::fs::write(&seg, &data).unwrap();
        assert!(matches!(
            LogStore::open(&dir, config),
            Err(StorageError::CorruptRecord {
                what: "bad magic",
                ..
            })
        ));
    }

    #[test]
    fn crc_mismatched_tail_fails_open() {
        // Regression: a fully present tail record whose CRC does not match
        // is corruption, not a torn write — recovery must refuse it.
        let dir = tempdir("crcmm");
        let config = StoreConfig::default();
        {
            let store = LogStore::open(&dir, config.clone()).unwrap();
            store.append(b"intact").unwrap();
            store.append(b"to-be-flipped").unwrap();
            store.sync().unwrap();
        }
        let seg = segment_path(&dir, 0);
        let mut data = std::fs::read(&seg).unwrap();
        let tail_offset = (HEADER_LEN + b"intact".len()) as u64;
        // Flip a byte inside the second record's payload.
        let idx = tail_offset as usize + HEADER_LEN;
        data[idx] ^= 0xFF;
        std::fs::write(&seg, &data).unwrap();
        match LogStore::open(&dir, config) {
            Err(StorageError::CorruptRecord { id, what }) => {
                assert_eq!(id, tail_offset);
                assert_eq!(what, "checksum mismatch");
            }
            other => panic!("expected CorruptRecord, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn sync_policies_all_roundtrip() {
        for (tag, max_batches) in [("every", 1), ("default", 8), ("never", usize::MAX)] {
            let config = StoreConfig {
                sync: SyncPolicy::GroupCommit {
                    max_batches,
                    max_delay: Duration::from_millis(5),
                },
                ..Default::default()
            };
            let store = LogStore::open(tempdir(&format!("sp-{tag}")), config).unwrap();
            store.append(b"x").unwrap();
            assert_eq!(store.read(0).unwrap(), b"x");
        }
    }

    #[test]
    fn group_commit_threshold_coalesces_fsyncs() {
        let config = StoreConfig {
            sync: SyncPolicy::GroupCommit {
                max_batches: 3,
                max_delay: Duration::from_secs(5),
            },
            ..Default::default()
        };
        let store = LogStore::open(tempdir("gc-thresh"), config).unwrap();
        store.append_batch(&[b"a0".as_slice(), b"a1"]).unwrap();
        store.append_batch(&[b"b0".as_slice()]).unwrap();
        // Two pending appends: nothing synced yet.
        assert_eq!(store.sync_stats().fsyncs, 0);
        // Third append crosses max_batches and performs one covering fsync.
        store.append_batch(&[b"c0".as_slice(), b"c1"]).unwrap();
        let stats = store.sync_stats();
        assert_eq!(stats.fsyncs, 1);
        assert_eq!(stats.fsyncs_coalesced, 2, "two appends rode the sync");
        // Everything indexed so far is durable: ensure_durable is instant.
        store.ensure_durable(4).unwrap();
        assert_eq!(store.sync_stats().fsyncs, 1, "no extra fsync needed");
    }

    #[test]
    fn group_commit_max_delay_bounds_the_wait() {
        let config = StoreConfig {
            sync: SyncPolicy::GroupCommit {
                max_batches: 64,
                max_delay: Duration::from_millis(20),
            },
            ..Default::default()
        };
        let store = LogStore::open(tempdir("gc-delay"), config).unwrap();
        store.append_batch(&[b"only".as_slice()]).unwrap();
        let start = Instant::now();
        store.ensure_durable(0).unwrap();
        let waited = start.elapsed();
        assert!(store.sync_stats().fsyncs >= 1, "caller performed the sync");
        assert!(
            waited < Duration::from_secs(2),
            "wait must be bounded by max_delay, took {waited:?}"
        );
        // A sequence that does not exist can never become durable.
        assert!(matches!(
            store.ensure_durable(99),
            Err(StorageError::RecordNotFound { id: 99, .. })
        ));
    }

    #[test]
    fn ensure_durable_returns_at_once_when_every_append_syncs() {
        let config = StoreConfig {
            sync: SyncPolicy::GroupCommit {
                max_batches: 1,
                max_delay: Duration::from_secs(5),
            },
            ..Default::default()
        };
        let store = LogStore::open(tempdir("ed-every"), config).unwrap();
        store.append(b"x").unwrap();
        assert_eq!(store.sync_stats().fsyncs, 1, "the append synced inline");
        let start = Instant::now();
        store.ensure_durable(0).unwrap();
        assert!(start.elapsed() < Duration::from_secs(1));
        assert_eq!(store.sync_stats().fsyncs, 1, "no extra fsync needed");
    }

    #[test]
    fn truncate_tail_removes_records() {
        let dir = tempdir("trunc");
        let config = StoreConfig::default();
        let store = LogStore::open(&dir, config.clone()).unwrap();
        for i in 0..10u32 {
            store.append(format!("e{i}").as_bytes()).unwrap();
        }
        assert_eq!(store.truncate_tail(4).unwrap(), 6);
        assert_eq!(store.len(), 6);
        assert!(store.read(6).is_err());
        assert_eq!(store.read(5).unwrap(), b"e5");
        // Truncation is durable across recovery.
        drop(store);
        let store = LogStore::open(&dir, config).unwrap();
        assert_eq!(store.len(), 6);
    }

    #[test]
    fn concurrent_reads_while_appending() {
        let store =
            std::sync::Arc::new(LogStore::open(tempdir("conc"), StoreConfig::default()).unwrap());
        for i in 0..100u32 {
            store.append(format!("seed-{i}").as_bytes()).unwrap();
        }
        let mut handles = Vec::new();
        for t in 0..4 {
            let store = store.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100u64 {
                    let data = store.read(i).unwrap();
                    assert_eq!(data, format!("seed-{i}").as_bytes(), "thread {t}");
                }
            }));
        }
        for i in 100..200u32 {
            store.append(format!("seed-{i}").as_bytes()).unwrap();
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.len(), 200);
    }
}

#[cfg(test)]
mod iter_tests {
    use super::*;

    #[test]
    fn iterator_yields_all_records_in_order() {
        let dir = std::env::temp_dir().join(format!(
            "wedge-store-iter-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = LogStore::open(&dir, StoreConfig::default()).unwrap();
        for i in 0..25u32 {
            store.append(format!("it-{i}").as_bytes()).unwrap();
        }
        let collected: Vec<Vec<u8>> = store.iter().map(|r| r.unwrap()).collect();
        assert_eq!(collected.len(), 25);
        for (i, record) in collected.iter().enumerate() {
            assert_eq!(record, format!("it-{i}").as_bytes());
        }
        // Empty store yields nothing.
        let empty_dir = dir.join("empty");
        let empty = LogStore::open(&empty_dir, StoreConfig::default()).unwrap();
        assert_eq!(empty.iter().count(), 0);
    }
}

#[cfg(test)]
mod tier_tests {
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "wedge-tier-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_seg_config() -> StoreConfig {
        StoreConfig {
            max_segment_bytes: 96,
            ..Default::default()
        }
    }

    fn fill(store: &LogStore, n: u32) {
        for i in 0..n {
            store
                .append(format!("tier-record-{i:05}").as_bytes())
                .unwrap();
        }
        store.sync().unwrap();
    }

    #[test]
    fn seal_moves_segments_to_the_cold_tier() {
        let dir = tempdir("seal");
        let store = LogStore::open(&dir, small_seg_config()).unwrap();
        fill(&store, 30);
        let before = store.segment_count();
        assert!(before > 2, "need several segments, got {before}");
        let sealed = store.seal_up_to(store.len()).unwrap();
        assert!(sealed >= 2, "sealed {sealed}");
        // Segment count is unchanged: every sealed .wlog became one .wcold.
        assert_eq!(store.segment_count(), before);
        let stats = store.tier_stats();
        assert_eq!(stats.segments_sealed, sealed as u64);
        assert_eq!(stats.cold_segments, sealed as u64);
        // The tail segment is never sealed, even when the frontier covers it.
        assert!(stats.hot_segments >= 1);
        // Every record still reads back, hot and cold alike.
        for i in 0..30u64 {
            assert_eq!(
                store.read(i).unwrap(),
                format!("tier-record-{i:05}").as_bytes()
            );
        }
        assert!(store.tier_stats().cold_reads > 0);
        // No leftover .wlog for sealed segments.
        for seg in 0..sealed {
            assert!(!segment_path(&dir, seg).exists(), "wlog {seg} remains");
            assert!(cold_path(&dir, seg).exists(), "wcold {seg} missing");
        }
        // Appends continue normally after sealing.
        let next = store.append(b"after-seal").unwrap();
        assert_eq!(store.read(next).unwrap(), b"after-seal");
    }

    #[test]
    fn seal_respects_the_frontier() {
        let dir = tempdir("frontier");
        let store = LogStore::open(&dir, small_seg_config()).unwrap();
        fill(&store, 30);
        // A frontier of zero seals nothing.
        assert_eq!(store.seal_up_to(0).unwrap(), 0);
        // A mid-log frontier seals only segments wholly below it.
        let sealed = store.seal_up_to(10).unwrap();
        let stats = store.tier_stats();
        assert_eq!(stats.cold_segments, sealed as u64);
        let covered: u64 = (0..sealed)
            .map(|id| {
                ColdSegment::open(&dir, id)
                    .map(|c| c.record_count())
                    .unwrap()
            })
            .sum();
        assert!(covered <= 10, "sealed past the frontier: {covered}");
        // Raising the frontier seals more.
        assert!(store.seal_up_to(store.len()).unwrap() > 0);
    }

    #[test]
    fn sealed_store_reopens_without_scanning_cold() {
        let dir = tempdir("reopen");
        {
            let store = LogStore::open(&dir, small_seg_config()).unwrap();
            fill(&store, 30);
            store.seal_up_to(store.len()).unwrap();
        }
        let store = LogStore::open(&dir, small_seg_config()).unwrap();
        let rec = store.recovery_stats();
        assert!(rec.cold_segments >= 2, "cold segments admitted: {rec:?}");
        // Only hot segments (at most the tail + rotated-but-unsealed ones)
        // were scanned.
        assert!(
            rec.scanned_records < 30,
            "cold records were rescanned: {rec:?}"
        );
        assert_eq!(store.len(), 30);
        for i in 0..30u64 {
            assert_eq!(
                store.read(i).unwrap(),
                format!("tier-record-{i:05}").as_bytes()
            );
        }
        assert_eq!(store.append(b"post-reopen").unwrap(), 30);
    }

    #[test]
    fn retire_deletes_cold_segments() {
        let dir = tempdir("retire");
        let store = LogStore::open(&dir, small_seg_config()).unwrap();
        fill(&store, 30);
        store.seal_up_to(store.len()).unwrap();
        let cold_before = store.tier_stats().cold_segments;
        assert!(cold_before >= 3);
        let retired = store.retire_up_to(10).unwrap();
        assert!(retired >= 1, "retired {retired}");
        let stats = store.tier_stats();
        assert_eq!(stats.segments_retired, retired as u64);
        assert_eq!(stats.cold_segments, cold_before - retired as u64);
        let oldest = store.oldest();
        assert!(oldest > 0 && oldest <= 10);
        // Reads below the retention frontier fail with RecordRetired...
        assert!(matches!(
            store.read(0),
            Err(StorageError::RecordRetired { id: 0, oldest: o }) if o == oldest
        ));
        // ...and reads at/above it still work.
        assert_eq!(
            store.read(oldest).unwrap(),
            format!("tier-record-{oldest:05}").as_bytes()
        );
        // len() keeps counting retired records: sequence space is dense.
        assert_eq!(store.len(), 30);
        // Retirement survives reopen (gc.wmark).
        drop(store);
        let store = LogStore::open(&dir, small_seg_config()).unwrap();
        assert_eq!(store.oldest(), oldest);
        assert_eq!(store.len(), 30);
        assert!(matches!(
            store.read(0),
            Err(StorageError::RecordRetired { .. })
        ));
        assert_eq!(store.append(b"post-retire").unwrap(), 30);
        // iter starts at the oldest live record.
        assert_eq!(store.iter().count() as u64, 31 - oldest);
    }

    #[test]
    fn index_checkpoint_makes_reopen_o_tail() {
        let dir = tempdir("widx");
        {
            let store = LogStore::open(&dir, small_seg_config()).unwrap();
            fill(&store, 30);
            store.write_index_checkpoint().unwrap();
        }
        let store = LogStore::open(&dir, small_seg_config()).unwrap();
        let rec = store.recovery_stats();
        assert!(rec.hinted_segments >= 2, "hints unused: {rec:?}");
        assert_eq!(rec.scanned_segments, 1, "only the tail scans: {rec:?}");
        assert_eq!(store.len(), 30);
        for i in 0..30u64 {
            assert_eq!(
                store.read(i).unwrap(),
                format!("tier-record-{i:05}").as_bytes()
            );
        }
        // A stale hint (file grew after the checkpoint) falls back to scan.
        for i in 30..40u32 {
            store
                .append(format!("tier-record-{i:05}").as_bytes())
                .unwrap();
        }
        store.sync().unwrap();
        drop(store);
        let store = LogStore::open(&dir, small_seg_config()).unwrap();
        assert_eq!(store.len(), 40);
        for i in 0..40u64 {
            assert_eq!(
                store.read(i).unwrap(),
                format!("tier-record-{i:05}").as_bytes()
            );
        }
    }

    #[test]
    fn truncate_across_cold_boundary_partial_segment() {
        // Satellite regression: truncation that lands inside a sealed cold
        // segment unseals the kept prefix and keeps segment_count truthful.
        let dir = tempdir("trunc-cold");
        let store = LogStore::open(&dir, small_seg_config()).unwrap();
        fill(&store, 30);
        store.seal_up_to(20).unwrap();
        assert!(store.tier_stats().cold_segments >= 2);
        // Truncate down to 5 records: well inside the cold tier.
        assert_eq!(store.truncate_tail(25).unwrap(), 5);
        assert_eq!(store.len(), 5);
        for i in 0..5u64 {
            assert_eq!(
                store.read(i).unwrap(),
                format!("tier-record-{i:05}").as_bytes()
            );
        }
        assert!(store.read(5).is_err());
        // segment_count agrees with the files actually on disk.
        let on_disk = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                let name = e.as_ref().unwrap().file_name();
                let name = name.to_str().unwrap();
                name.ends_with(".wlog") || name.ends_with(".wcold")
            })
            .count() as u32;
        assert_eq!(store.segment_count(), on_disk);
        // Appends continue at the truncated position...
        assert_eq!(store.append(b"regrown").unwrap(), 5);
        assert_eq!(store.read(5).unwrap(), b"regrown");
        // ...and everything survives a reopen.
        drop(store);
        let store = LogStore::open(&dir, small_seg_config()).unwrap();
        assert_eq!(store.len(), 6);
        assert_eq!(store.read(5).unwrap(), b"regrown");
        assert_eq!(store.read(2).unwrap(), b"tier-record-00002".as_slice());
    }

    #[test]
    fn truncate_to_exact_cold_edge() {
        let dir = tempdir("trunc-edge");
        let store = LogStore::open(&dir, small_seg_config()).unwrap();
        fill(&store, 30);
        store.seal_up_to(store.len()).unwrap();
        // Find a cold segment edge to land on exactly.
        let first_cold_count = ColdSegment::open(&dir, 0).unwrap().record_count();
        let new_len = first_cold_count; // keep exactly cold segment 0
        store.truncate_tail(30 - new_len).unwrap();
        assert_eq!(store.len(), new_len);
        for i in 0..new_len {
            assert_eq!(
                store.read(i).unwrap(),
                format!("tier-record-{i:05}").as_bytes()
            );
        }
        assert_eq!(store.append(b"edge-append").unwrap(), new_len);
        drop(store);
        let store = LogStore::open(&dir, small_seg_config()).unwrap();
        assert_eq!(store.len(), new_len + 1);
        assert_eq!(store.read(new_len).unwrap(), b"edge-append");
    }

    #[test]
    fn truncate_into_retired_region_is_refused() {
        let store = LogStore::open(tempdir("trunc-retired"), small_seg_config()).unwrap();
        fill(&store, 30);
        store.seal_up_to(store.len()).unwrap();
        store.retire_up_to(10).unwrap();
        let oldest = store.oldest();
        assert!(oldest > 0);
        // Truncating everything would reach below the retired frontier.
        assert!(matches!(
            store.truncate_tail(30),
            Err(StorageError::RecordRetired { .. })
        ));
        // Truncating within the live region still works.
        let live = store.len() - oldest;
        assert_eq!(store.truncate_tail(live).unwrap(), oldest);
    }

    #[test]
    fn interrupted_seal_is_recovered_on_open() {
        // Crash window: the .wcold was renamed into place but the .wlog was
        // not yet unlinked. The next open prefers the cold copy.
        let dir = tempdir("seal-crash");
        {
            let store = LogStore::open(&dir, small_seg_config()).unwrap();
            fill(&store, 30);
        }
        // Seal segment 0 by hand, leaving the .wlog behind.
        let sealed = ColdSegment::seal(&dir, 0, 0).unwrap();
        let count = sealed.record_count();
        assert!(segment_path(&dir, 0).exists());
        let store = LogStore::open(&dir, small_seg_config()).unwrap();
        assert!(!segment_path(&dir, 0).exists(), "leftover wlog not removed");
        assert_eq!(store.len(), 30);
        assert_eq!(store.tier_stats().cold_segments, 1);
        for i in 0..count {
            assert_eq!(
                store.read(i).unwrap(),
                format!("tier-record-{i:05}").as_bytes()
            );
        }
    }

    #[test]
    fn concurrent_reads_while_sealing_and_retiring() {
        let store =
            std::sync::Arc::new(LogStore::open(tempdir("conc-seal"), small_seg_config()).unwrap());
        for i in 0..200u32 {
            store
                .append(format!("tier-record-{i:05}").as_bytes())
                .unwrap();
        }
        store.sync().unwrap();
        let mut handles = Vec::new();
        for _ in 0..3 {
            let store = store.clone();
            handles.push(std::thread::spawn(move || {
                for round in 0..5 {
                    for i in 0..200u64 {
                        match store.read(i) {
                            Ok(data) => {
                                assert_eq!(
                                    data,
                                    format!("tier-record-{i:05}").as_bytes(),
                                    "round {round}"
                                );
                            }
                            // Retirement may outrun us; that error is the
                            // only acceptable one.
                            Err(StorageError::RecordRetired { .. }) => {}
                            Err(e) => panic!("read {i} failed: {e}"),
                        }
                    }
                }
            }));
        }
        store.seal_up_to(150).unwrap();
        store.retire_up_to(40).unwrap();
        store.write_index_checkpoint().unwrap();
        for h in handles {
            h.join().unwrap();
        }
        let stats = store.tier_stats();
        assert!(stats.segments_sealed > 0);
        assert!(stats.segments_retired > 0);
    }

    #[test]
    fn iter_spans_cold_and_hot_tiers() {
        let store = LogStore::open(tempdir("iter-tiers"), small_seg_config()).unwrap();
        fill(&store, 30);
        store.seal_up_to(15).unwrap();
        let collected: Vec<Vec<u8>> = store.iter().map(|r| r.unwrap()).collect();
        assert_eq!(collected.len(), 30);
        for (i, record) in collected.iter().enumerate() {
            assert_eq!(record, format!("tier-record-{i:05}").as_bytes());
        }
        // A direct range read spans both tiers and the record just
        // appended to the tail; wrong ranges still error.
        let next = store.append(b"fresh").unwrap();
        let range = store.read_range(10, next - 9).unwrap();
        assert_eq!(range[..20], collected[10..]);
        assert_eq!(range[20], b"fresh");
        assert!(store.read_range(25, 10).is_err());
        assert!(store.read_range(0, 0).unwrap().is_empty());
    }
}
