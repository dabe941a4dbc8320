//! The Offchain Node (paper §4.3): batched stage-1 ingestion, asynchronous
//! stage-2 digest commitment, and the verified read/audit service.
//!
//! State is split across two planes (see `docs/architecture.md`): readers
//! load an immutable `Snapshot` with a single atomic version check — no
//! `RwLock` read guard is held on any hot read path — while the stage-1
//! pipeline and stage-2 committer mutate the write plane through
//! `Shared::mutate`, which publishes a fresh snapshot exactly once per
//! batch registration or group commit.

mod batcher;
mod checkpoint;
mod epoch;
mod snapshot;
mod stage2;
mod state;
mod stats;

pub use stats::NodeStats;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Sender};
use parking_lot::Mutex;
use wedge_chain::{Address, Chain};
use wedge_crypto::signer::Identity;
use wedge_crypto::PublicKey;
use wedge_merkle::RangeProof;
use wedge_storage::{LogStore, Replicator};

use crate::config::{NodeBehavior, NodeConfig, Stage2Mode};
use crate::error::CoreError;
use crate::types::{AppendRequest, CommitPhase, EntryId, SignedResponse};
use snapshot::{Snapshot, SnapshotCell, WritePlane};
use state::CommitInfo;

/// How a stage-1 outcome is delivered back to the submitter: invoked exactly
/// once, either with the signed response or a rejection reason. A callback
/// (rather than a channel) lets transports tag and route replies — the TCP
/// server forwards them onto sockets, local publishers into channels.
pub type ReplyFn = Box<dyn FnOnce(Result<SignedResponse, String>) + Send>;

/// A queued append with its reply continuation.
pub(crate) struct IngestMsg {
    pub request: AppendRequest,
    pub reply: ReplyFn,
}

/// State shared between the node's public API and its worker threads.
pub(crate) struct Shared {
    pub identity: Identity,
    pub config: NodeConfig,
    pub store: LogStore,
    /// Read plane: the current immutable snapshot. Load it once per
    /// request; never hold any lock across store reads or proof generation.
    pub read_plane: SnapshotCell,
    /// Write plane: mutate only through [`Shared::mutate`] so every change
    /// is published. The L6 lint forbids holding this guard across storage
    /// I/O, signing, or channel sends.
    pub write_plane: Mutex<WritePlane>,
    pub chain: Arc<Chain>,
    pub root_record: Address,
    pub stats: Mutex<NodeStats>,
    pub replicator: Option<Replicator>,
    /// Directory holding the two-plane checkpoints (`<data_dir>/checkpoints`).
    pub ckpt_dir: PathBuf,
    /// Oldest record cursor still covered by a kept checkpoint file — the
    /// retention policy never deletes records at or above this, so a
    /// restart can always restore from what is on disk.
    pub ckpt_floor: AtomicU64,
    /// Shared work pool for signature verification, Merkle construction,
    /// and response signing — sized to `worker_threads`, capped at the
    /// machine's parallelism.
    pub pool: wedge_pool::WorkPool,
    /// Tier maintenance cadence (seal/checkpoint/retire), driven by
    /// whichever path advances the blockchain-committed frontier: the
    /// direct stage-2 committer or the cluster `epoch_commit` path.
    pub maintenance: Mutex<stage2::TierMaintenance>,
    /// Stale-epoch guard for cluster mode: `last acknowledged epoch + 1`
    /// (0 = none yet). An `epoch_commit` for an older epoch is rejected —
    /// its group was re-reported under a newer epoch and acknowledging it
    /// would bind those positions to a superseded root-of-roots.
    pub epoch_seen: AtomicU64,
}

impl Shared {
    /// The current read-plane snapshot (one atomic version load on the hot
    /// path — see [`SnapshotCell::load`]).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.read_plane.load()
    }

    /// Applies `f` to the write plane and publishes the resulting snapshot.
    ///
    /// Publication happens *while the plane guard is still held*: the guard
    /// serializes the two writers (stage-1 deliver stage, stage-2
    /// committer), so an older snapshot can never overwrite a newer one.
    /// `f` must not perform storage I/O, signing, or channel sends — the
    /// guard would stall every other writer (enforced lexically by lint
    /// L6 for closure bodies inside `.mutate(`).
    pub fn mutate<R>(&self, f: impl FnOnce(&mut WritePlane) -> R) -> R {
        let mut plane = self.write_plane.lock();
        let out = f(&mut plane);
        self.read_plane.publish(plane.freeze());
        drop(plane);
        self.stats.lock().snapshot_publishes += 1;
        out
    }

    /// Writes a durable checkpoint of the current snapshot (plus the
    /// store's locator-index sidecar) so the next restart replays only
    /// records past the checkpoint cursor. Works off the read plane — no
    /// write-plane lock is held across the file I/O.
    pub fn write_checkpoint(&self) -> Result<(), CoreError> {
        self.store.write_index_checkpoint()?;
        let snap = self.snapshot();
        checkpoint::write(&self.ckpt_dir, &snap)?;
        self.ckpt_floor
            .store(checkpoint::floor(&self.ckpt_dir), Ordering::Release);
        self.stats.lock().checkpoint_writes += 1;
        Ok(())
    }
}

/// The Offchain Node. Create with [`OffchainNode::start`]; share via `Arc`.
///
/// Dropping the node flushes any partial batch, drains the stage-2 queue,
/// and joins the worker threads.
pub struct OffchainNode {
    shared: Arc<Shared>,
    /// `None` once shutdown has begun; behind a mutex so
    /// [`OffchainNode::begin_shutdown`] works through a shared reference
    /// (e.g. while reader threads still borrow the node).
    ingest: Mutex<Option<Sender<IngestMsg>>>,
    handles: Vec<JoinHandle<()>>,
}

impl OffchainNode {
    /// Starts an Offchain Node: opens (or recovers) the store under
    /// `data_dir`, restores in-memory state from disk, and spawns the
    /// stage-1 pipeline and stage-2 committer threads.
    ///
    /// `root_record` must be a deployed [`wedge_contracts::RootRecord`]
    /// whose `offchain_address` is this node's identity.
    pub fn start(
        identity: Identity,
        config: NodeConfig,
        chain: Arc<Chain>,
        root_record: Address,
        data_dir: impl AsRef<Path>,
    ) -> Result<OffchainNode, CoreError> {
        let data_dir = data_dir.as_ref();
        let store = LogStore::open(data_dir.join("log"), config.store.clone())?;
        let ckpt_dir = data_dir.join("checkpoints");
        // O(tail) restart: restore the newest valid checkpoint and replay
        // only the records past its cursor. Without one, replay everything
        // (only valid while retention has not yet deleted any records —
        // retention is floor-bounded by the kept checkpoints, so reaching
        // this fallback with a retired prefix means the checkpoint files
        // were lost).
        let (mut plane, replayed) = match checkpoint::restore(&ckpt_dir, &store) {
            Some(restored) => {
                let mut plane = restored.plane;
                let replayed = state::replay_tail(&store, &mut plane, restored.cursor)?;
                (plane, replayed)
            }
            None => {
                if store.oldest() > 0 {
                    return Err(CoreError::RequestRejected(
                        "retention deleted records but no valid checkpoint covers them",
                    ));
                }
                let mut plane = WritePlane::default();
                let replayed = state::replay_tail(&store, &mut plane, 0)?;
                (plane, replayed)
            }
        };
        let replicator = if config.replicas > 0 {
            Some(Replicator::spawn(
                data_dir.join("replicas"),
                config.replicas,
                config.store.clone(),
                config.replica_link_delay,
            )?)
        } else {
            None
        };

        // Stage-2 resynchronization after a restart: positions the Root
        // Record already holds are marked committed; recovered-but-
        // uncommitted positions are re-queued for commitment (without this,
        // a crash between stage 1 and stage 2 would leave entries off-chain
        // forever). The write plane is still thread-private here, so it is
        // mutated directly; the first published snapshot below already
        // carries the reconciled state.
        //
        // In `Stage2Mode::Epoch` there is no per-node committer and the
        // node's RootRecord is not written: commits restore from the
        // checkpoint, and recovered-but-uncommitted positions simply stay
        // pending — the epoch coordinator re-collects them with the next
        // `epoch_report`, which derives the group from the same snapshot.
        let (stage2_tx, stage2_rx) = unbounded::<stage2::Stage2Task>();
        if config.stage2_mode == Stage2Mode::Direct {
            use wedge_contracts::RootRecord;
            let onchain_tail = chain
                .view(root_record, &RootRecord::get_tail_calldata())
                .ok()
                .and_then(|out| RootRecord::decode_tail(&out))
                .unwrap_or(0);
            let now = chain.clock().now();
            let recovered = plane.batches.len() as u64;
            for log_id in 0..recovered.min(onchain_tail) {
                plane.commits.insert_if_absent(
                    log_id,
                    CommitInfo {
                        tx_hash: wedge_crypto::Hash32::ZERO, // pre-restart tx, unknown
                        block_number: 0,
                        stage2_latency: Duration::ZERO,
                    },
                );
            }
            for log_id in onchain_tail..recovered {
                let Some(honest_root) = plane.batches.get(log_id as usize).map(|b| b.tree.root())
                else {
                    break;
                };
                if let Some(root) = stage2::stage2_root_for(config.behavior, log_id, honest_root) {
                    let _ = stage2_tx.send(stage2::Stage2Task {
                        log_id,
                        root,
                        stage1_done: now,
                    });
                }
            }
        }

        let pool = wedge_pool::WorkPool::new(config.worker_threads);
        let ckpt_floor = AtomicU64::new(checkpoint::floor(&ckpt_dir));
        let maintenance = Mutex::new(stage2::TierMaintenance::new(chain.clock().now()));
        let stats = NodeStats {
            restart_replayed_records: replayed,
            ..NodeStats::default()
        };
        let shared = Arc::new(Shared {
            identity,
            config,
            store,
            read_plane: SnapshotCell::new(plane.freeze()),
            write_plane: Mutex::new(plane),
            chain,
            root_record,
            stats: Mutex::new(stats),
            replicator,
            ckpt_dir,
            ckpt_floor,
            pool,
            maintenance,
            epoch_seen: AtomicU64::new(0),
        });

        let (ingest_tx, ingest_rx) = unbounded::<IngestMsg>();
        let batcher_shared = Arc::clone(&shared);
        let batcher = std::thread::Builder::new()
            .name("wedge-batcher".into())
            .spawn(move || batcher::run(batcher_shared, ingest_rx, stage2_tx))
            // lint: allow(panic) — thread spawn fails only under resource
            // exhaustion during node startup
            .expect("spawn batcher");
        let mut handles = vec![batcher];
        if shared.config.stage2_mode == Stage2Mode::Direct {
            let committer_shared = Arc::clone(&shared);
            let committer = std::thread::Builder::new()
                .name("wedge-stage2".into())
                .spawn(move || stage2::run(committer_shared, stage2_rx))
                // lint: allow(panic) — thread spawn fails only under resource
                // exhaustion during node startup
                .expect("spawn committer");
            handles.push(committer);
        } else {
            // Epoch mode: no committer thread. Dropping the receiver makes
            // the batcher's stage-2 hand-off a no-op (its send result is
            // ignored); pending roots are pulled via `epoch_report` instead.
            drop(stage2_rx);
        }

        Ok(OffchainNode {
            shared,
            ingest: Mutex::new(Some(ingest_tx)),
            handles,
        })
    }

    /// The node's address (must match the Root Record's
    /// `offchain_address`).
    pub fn address(&self) -> Address {
        self.shared.identity.address()
    }

    /// The node's public key, for client-side response verification.
    pub fn public_key(&self) -> PublicKey {
        *self.shared.identity.public_key()
    }

    /// Submits one append request; the signed response (or a rejection
    /// string) is delivered on `reply` once the containing batch flushes.
    pub fn submit(
        &self,
        request: AppendRequest,
        reply: Sender<Result<SignedResponse, String>>,
    ) -> Result<(), CoreError> {
        self.submit_with(
            request,
            Box::new(move |outcome| {
                let _ = reply.send(outcome);
            }),
        )
    }

    /// Submits one append request with an arbitrary reply continuation
    /// (invoked exactly once at flush time).
    pub fn submit_with(&self, request: AppendRequest, reply: ReplyFn) -> Result<(), CoreError> {
        // Clone the sender out of the guard so the send happens lock-free.
        let sender = self.ingest.lock().clone().ok_or(CoreError::NodeStopped)?;
        sender
            .send(IngestMsg { request, reply })
            .map_err(|_| CoreError::NodeStopped)
    }

    /// Reads one entry from a given snapshot. All multi-entry read paths
    /// funnel through this with a *single* snapshot so a batch can never
    /// appear (or vanish) mid-iteration.
    fn read_on(&self, snap: &Snapshot, id: EntryId) -> Result<SignedResponse, CoreError> {
        let meta = snap
            .batches
            .get(id.log_id as usize)
            .ok_or(CoreError::EntryNotFound(id))?;
        if id.offset >= meta.count {
            return Err(CoreError::EntryNotFound(id));
        }
        let record = self
            .shared
            .store
            .read(meta.first_record + id.offset as u64)?;
        let mut leaf = state::decode_leaf(&record)?;
        let proof = meta
            .tree
            .prove(id.offset as usize)
            .map_err(|_| CoreError::EntryNotFound(id))?;
        let root = meta.tree.root();
        if let NodeBehavior::TamperResponses { .. } = self.shared.config.behavior {
            if self.shared.config.behavior.affects(id.log_id) {
                tamper(&mut leaf);
            }
        }
        Ok(SignedResponse::sign(
            self.shared.identity.secret_key(),
            id,
            root,
            proof,
            leaf,
        ))
    }

    /// Reads one entry, returning a freshly signed response (paper §4.3,
    /// read requests carry the same tuple format as append responses).
    pub fn read(&self, id: EntryId) -> Result<SignedResponse, CoreError> {
        self.read_on(&self.shared.snapshot(), id)
    }

    /// Reads a group of entries in one operation (paper §4.2: "a group of
    /// indices together in one operation"). The whole group is served from
    /// one snapshot: entries visible to the first lookup stay visible to
    /// the last, regardless of concurrent flushes.
    pub fn read_many(&self, ids: &[EntryId]) -> Vec<Result<SignedResponse, CoreError>> {
        let snap = self.shared.snapshot();
        ids.iter().map(|id| self.read_on(&snap, *id)).collect()
    }

    /// Looks an entry up by `(publisher, sequence)` (the paper's sequence
    /// number read path). Lookup and read share one snapshot.
    pub fn read_by_sequence(
        &self,
        publisher: Address,
        sequence: u64,
    ) -> Result<SignedResponse, CoreError> {
        let snap = self.shared.snapshot();
        let id = snap
            .seq
            .get(publisher, sequence)
            .ok_or(CoreError::SequenceNotFound {
                publisher,
                sequence,
            })?;
        self.read_on(&snap, id)
    }

    /// Reads every entry of one log position (the auditor's scan unit)
    /// against one snapshot.
    pub fn read_log_position(&self, log_id: u64) -> Result<Vec<SignedResponse>, CoreError> {
        let snap = self.shared.snapshot();
        let count = snap
            .batches
            .get(log_id as usize)
            .ok_or(CoreError::EntryNotFound(EntryId { log_id, offset: 0 }))?
            .count;
        (0..count)
            .map(|offset| self.read_on(&snap, EntryId { log_id, offset }))
            .collect()
    }

    /// Number of entries in one log position, if it exists.
    pub fn read_log_position_len(&self, log_id: u64) -> Option<u32> {
        self.shared
            .snapshot()
            .batches
            .get(log_id as usize)
            .map(|b| b.count)
    }

    /// One-snapshot metadata read: `(log positions, total entries, entry
    /// count of `log_id` if it exists)`. Backs the wire `Meta` request so a
    /// single reply is internally consistent.
    pub fn meta(&self, log_id: u64) -> (u64, u64, Option<u32>) {
        let snap = self.shared.snapshot();
        (
            snap.batches.len() as u64,
            snap.entry_count,
            snap.batches.get(log_id as usize).map(|b| b.count),
        )
    }

    /// Extension API: scans `[start, start+count)` within one log position
    /// returning the raw leaves plus a single [`RangeProof`] — far cheaper
    /// to verify than per-entry proofs for large audits.
    pub fn scan_range(
        &self,
        log_id: u64,
        start: u32,
        count: u32,
    ) -> Result<(Vec<Vec<u8>>, RangeProof, wedge_crypto::Hash32), CoreError> {
        let snap = self.shared.snapshot();
        let meta = snap
            .batches
            .get(log_id as usize)
            .ok_or(CoreError::EntryNotFound(EntryId {
                log_id,
                offset: start,
            }))?;
        // `checked_add`: `start + count` wraps on u32 overflow in release
        // builds, which would bypass the bounds check entirely.
        let end = match start.checked_add(count) {
            Some(end) if end <= meta.count && count != 0 => end,
            _ => {
                return Err(CoreError::EntryNotFound(EntryId {
                    log_id,
                    offset: start,
                }))
            }
        };
        let proof =
            RangeProof::generate(&meta.tree, start as usize, count as usize).map_err(|_| {
                CoreError::EntryNotFound(EntryId {
                    log_id,
                    offset: start,
                })
            })?;
        let root = meta.tree.root();
        let first = meta.first_record;
        let mut leaves = Vec::with_capacity(count as usize);
        for offset in start..end {
            leaves.push(state::decode_leaf(
                &self.shared.store.read(first + offset as u64)?,
            )?);
        }
        Ok((leaves, proof, root))
    }

    /// The commit phase of a log position.
    pub fn commit_phase(&self, log_id: u64) -> CommitPhase {
        let snap = self.shared.snapshot();
        if snap.commits.contains(log_id) {
            CommitPhase::BlockchainCommitted
        } else if (log_id as usize) < snap.batches.len() {
            CommitPhase::OffchainCommitted
        } else {
            CommitPhase::Pending
        }
    }

    /// Stage-2 info for a committed position.
    pub fn commit_info(&self, log_id: u64) -> Option<CommitInfo> {
        self.shared.snapshot().commits.get(log_id)
    }

    /// Number of flushed log positions.
    pub fn log_positions(&self) -> u64 {
        self.shared.snapshot().batches.len() as u64
    }

    /// Total entries stored (a running counter in the snapshot — O(1), not
    /// a sum over batches).
    pub fn entry_count(&self) -> u64 {
        self.shared.snapshot().entry_count
    }

    /// The replica fan-out, when configured (exposed for liveness tests and
    /// fault injection).
    pub fn replicator(&self) -> Option<&Replicator> {
        self.shared.replicator.as_ref()
    }

    /// Snapshot of the node's metrics. The store-, pool- and hash-derived
    /// counters (`fsyncs`, `fsyncs_coalesced`, `oversubscription_avoided`,
    /// `hashes_computed`, `hash_batches_x4`) are sampled at call time.
    pub fn stats(&self) -> NodeStats {
        let mut stats = self.shared.stats.lock().clone();
        let sync = self.shared.store.sync_stats();
        stats.fsyncs = sync.fsyncs;
        stats.fsyncs_coalesced = sync.fsyncs_coalesced;
        stats.oversubscription_avoided = wedge_pool::oversubscription_avoided();
        stats.hashes_computed = wedge_crypto::hash::hashes_computed();
        stats.hash_batches_x4 = wedge_crypto::hash::hash_batches_x4();
        let tier = self.shared.store.tier_stats();
        stats.segments_sealed = tier.segments_sealed;
        stats.gc_deleted_segments = tier.segments_retired;
        stats
    }

    /// Blocks until every flushed log position up to the current tail is
    /// blockchain-committed (or `timeout` of *simulated* time passes).
    pub fn wait_stage2_idle(&self, timeout: Duration) -> Result<(), CoreError> {
        let clock = self.shared.chain.clock().clone();
        let start = clock.now();
        loop {
            {
                let snap = self.shared.snapshot();
                let flushed = snap.batches.len() as u64;
                let committed = snap.commits.len();
                let omitted = match self.shared.config.behavior {
                    NodeBehavior::OmitStage2 { from_log } => flushed.saturating_sub(from_log),
                    _ => 0,
                };
                if committed + omitted >= flushed {
                    return Ok(());
                }
            }
            if clock.now().since(start) > timeout {
                return Err(CoreError::NotYetBlockchainCommitted {
                    log_id: self.shared.snapshot().commits.len(),
                });
            }
            clock.sleep(Duration::from_millis(200));
        }
    }

    /// Simulates the paper's extreme omission attack (§4.7): destroys the
    /// newest `entries` from local storage and memory. For liveness tests.
    pub fn destroy_tail(&self, entries: u64) -> Result<(), CoreError> {
        // Mutate (and publish) the plane first, truncate the store after:
        // readers racing this call then see a snapshot whose batches are
        // all still backed by store records. The guard is never held across
        // the truncation (L6).
        let records_to_drop = self.shared.mutate(|plane| {
            let mut remaining = entries;
            let mut records = 0u64;
            while remaining > 0 {
                let Some((count, log_id)) =
                    plane.batches.last().map(|b| (b.count as u64, b.log_id))
                else {
                    break;
                };
                let take = count.min(remaining);
                // Partial destruction of a batch is modelled as dropping the
                // whole batch (+1 for its header record) — simpler and
                // strictly worse for the node.
                plane.batches.pop();
                plane.entry_count = plane.entry_count.saturating_sub(count);
                plane.commits.remove(log_id);
                records += count + 1;
                remaining = remaining.saturating_sub(take);
            }
            if records > 0 {
                // Batches are popped from the tail, so survivors are exactly
                // the log ids below the new length.
                let kept = plane.batches.len() as u64;
                plane.seq.retain(|id| id.log_id < kept);
            }
            records
        });
        if records_to_drop > 0 {
            self.shared.store.truncate_tail(records_to_drop)?;
        }
        Ok(())
    }

    /// Closes the ingest channel through a shared reference: the stage-1
    /// pipeline drains every queued request (delivering all replies exactly
    /// once) and the workers exit. Safe to call while other threads still
    /// read from the node; call [`OffchainNode::shutdown`] (or drop) to
    /// join the workers afterwards. Idempotent.
    pub fn begin_shutdown(&self) {
        let _ = self.ingest.lock().take();
    }

    /// Stops the node: flushes the partial batch, completes queued stage-2
    /// work, joins threads, and writes a final checkpoint so the next start
    /// replays nothing. Called automatically on drop.
    pub fn shutdown(&mut self) {
        self.begin_shutdown();
        let had_workers = !self.handles.is_empty();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
        let _ = self.shared.store.sync();
        if had_workers {
            let _ = self.shared.write_checkpoint();
        }
    }
}

impl Drop for OffchainNode {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Flips a payload byte — the canonical "tamper" used by
/// [`NodeBehavior::TamperResponses`].
pub(crate) fn tamper(leaf: &mut [u8]) {
    if let Some(last) = leaf.last_mut() {
        *last ^= 0xFF;
    }
}
