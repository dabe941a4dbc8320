//! The stage-1 flush pipeline (paper §4.3, append requests).
//!
//! Requests accumulate into the *current batch*; a batch flushes when it
//! reaches `batch_size` or after `batch_linger` of quiet. A flushed batch
//! then flows through three pipelined stages connected by bounded channels
//! (depth [`crate::NodeConfig::pipeline_depth`]), so batch N+1's signature
//! verification overlaps batch N's fsync and replication:
//!
//! 1. **collect** — batch requests, verify publisher signatures
//!    (parallel), reject invalid ones;
//! 2. **persist** — build the batch's Merkle tree (parallel above
//!    [`wedge_merkle::PARALLEL_CUTOFF`]), kick off the replica fan-out,
//!    persist header + leaves to the local store (link #2 of Figure 2)
//!    while the replicas work, then join both — the stage pays
//!    max(local, replication) instead of the sum;
//! 3. **deliver** — sign one response per request (parallel), wait for the
//!    group-commit fsync covering the batch, register the batch in
//!    the write plane (publishing a new read snapshot), deliver the
//!    replies (completing link #1 — stage-1 / off-chain commitment), and
//!    hand the `(log_id, MRoot)` pair to the stage-2 committer (link #3).
//!
//! Shutdown drains exactly-once by construction: when the ingest channel
//! disconnects, collect flushes its partial batch and drops its sender;
//! persist drains, exits, and drops *its* sender; deliver drains and exits.
//! Every accepted request gets exactly one reply — success from deliver, or
//! an error from deliver when its batch failed to persist.

use std::sync::Arc;

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use wedge_merkle::{MerkleTree, PARALLEL_CUTOFF};

use crate::config::NodeBehavior;
use crate::types::{EntryId, SignedResponse};

use super::stage2::Stage2Task;
use super::state::{encode_header, encode_leaf, BatchMeta};
use super::{tamper, IngestMsg, Shared};

/// A signature-verified batch, bound for the persist stage.
struct VerifiedBatch {
    msgs: Vec<IngestMsg>,
    /// Leaf encodings, index-aligned with `msgs`.
    leaves: Vec<Vec<u8>>,
}

/// A persist-stage outcome, bound for the deliver stage. Failures travel
/// the same channel so replies stay in submission order.
enum PersistOutcome {
    /// Durable on the local store (and replicated, when configured).
    Persisted {
        msgs: Vec<IngestMsg>,
        tree: MerkleTree,
        log_id: u64,
        first_record: u64,
    },
    /// The local append failed; `log_id` was not consumed.
    Failed { msgs: Vec<IngestMsg>, error: String },
}

/// Batcher main loop: runs the three pipeline stages on scoped threads and
/// returns once all of them have drained and exited.
pub(crate) fn run(shared: Arc<Shared>, rx: Receiver<IngestMsg>, stage2: Sender<Stage2Task>) {
    let depth = shared.config.pipeline_depth.max(1);
    let (persist_tx, persist_rx) = bounded::<VerifiedBatch>(depth);
    let (deliver_tx, deliver_rx) = bounded::<PersistOutcome>(depth);
    let shared = &shared;
    let _ = crossbeam::thread::scope(move |scope| {
        scope.spawn(move |_| collect_stage(shared, rx, persist_tx));
        scope.spawn(move |_| persist_stage(shared, persist_rx, deliver_tx));
        scope.spawn(move |_| deliver_stage(shared, deliver_rx, stage2));
    });
}

/// Hands a value downstream, counting a `pipeline_stalls` when the bounded
/// queue is full and the send has to block. Returns the value when the
/// receiving stage is gone (unreachable while the scope is alive — each
/// receiver outlives its senders — but never silently dropped).
fn send_downstream<T>(shared: &Shared, tx: &Sender<T>, value: T) -> Result<(), T> {
    match tx.try_send(value) {
        Ok(()) => Ok(()),
        Err(TrySendError::Full(value)) => {
            shared.stats.lock().pipeline_stalls += 1;
            tx.send(value).map_err(|e| e.0)
        }
        Err(TrySendError::Disconnected(value)) => Err(value),
    }
}

/// Stage 1: accumulate requests into batches, verify signatures, reject
/// invalid requests, and hand verified batches to the persist stage.
fn collect_stage(shared: &Shared, rx: Receiver<IngestMsg>, persist_tx: Sender<VerifiedBatch>) {
    let mut current: Vec<IngestMsg> = Vec::with_capacity(shared.config.batch_size);
    loop {
        match rx.recv_timeout(shared.config.batch_linger) {
            Ok(msg) => {
                current.push(msg);
                if current.len() >= shared.config.batch_size {
                    verify_and_forward(shared, &mut current, &persist_tx);
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if !current.is_empty() {
                    verify_and_forward(shared, &mut current, &persist_tx);
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                if !current.is_empty() {
                    verify_and_forward(shared, &mut current, &persist_tx);
                }
                break; // drops persist_tx: the persist stage drains and exits
            }
        }
    }
}

/// Verifies one batch's publisher signatures (parallel), replies to the
/// rejects, and forwards the survivors.
fn verify_and_forward(
    shared: &Shared,
    current: &mut Vec<IngestMsg>,
    persist_tx: &Sender<VerifiedBatch>,
) {
    let mut batch = std::mem::take(current);
    if shared.config.verify_requests {
        let requests: Vec<&crate::types::AppendRequest> =
            batch.iter().map(|m| &m.request).collect();
        let verdicts = shared.pool.map(&requests, |req| req.verify().is_ok());
        let mut kept = Vec::with_capacity(batch.len());
        let mut rejected = Vec::new();
        for (msg, ok) in batch.into_iter().zip(verdicts) {
            if ok {
                kept.push(msg);
            } else {
                rejected.push(msg);
            }
        }
        if !rejected.is_empty() {
            // Count before replying so observers never see a rejection
            // reply ahead of its counter.
            shared.stats.lock().requests_rejected += rejected.len() as u64;
            for msg in rejected {
                (msg.reply)(Err("invalid request signature".into()));
            }
        }
        batch = kept;
    }
    if batch.is_empty() {
        return;
    }
    let leaves: Vec<Vec<u8>> = batch.iter().map(|m| m.request.leaf_bytes()).collect();
    if let Err(lost) = send_downstream(
        shared,
        persist_tx,
        VerifiedBatch {
            msgs: batch,
            leaves,
        },
    ) {
        for msg in lost.msgs {
            (msg.reply)(Err("node pipeline stopped".into()));
        }
    }
}

/// Stage 2: Merkle tree, durable local append, replica fan-out. Owns the
/// log-position counter — a position is consumed only by a successful
/// append, so a persist failure leaves the sequence gapless.
fn persist_stage(
    shared: &Shared,
    persist_rx: Receiver<VerifiedBatch>,
    deliver_tx: Sender<PersistOutcome>,
) {
    // The only writer of new positions; seeded once from the recovered
    // state. Registration (deliver stage) trails this counter by at most
    // the pipeline depth.
    let mut next_log_id = shared.snapshot().batches.len() as u64;
    while let Ok(VerifiedBatch { msgs, leaves }) = persist_rx.recv() {
        // `msgs` was checked non-empty by the collect stage, the only
        // failure mode of the builder.
        let merkle_start = std::time::Instant::now();
        let (tree, par_chunks) =
            MerkleTree::from_leaves_parallel_counted(&leaves, &shared.pool, PARALLEL_CUTOFF)
                // lint: allow(panic) — non-empty batch invariant upheld upstream
                .expect("non-empty batch");
        let merkle_elapsed = merkle_start.elapsed();
        let root = tree.root();
        let log_id = next_log_id;

        let mut records = Vec::with_capacity(leaves.len() + 1);
        records.push(encode_header(log_id, leaves.len() as u32, &root));
        records.extend(leaves.iter().map(|l| encode_leaf(l)));
        let records = Arc::new(records);

        // Overlap: hand the batch to the replicas *before* paying for local
        // durability, then join both below — the stage costs
        // max(local, replication) instead of the sum. Should the local
        // append then fail, the replicas hold a superset of the primary
        // log; they are crash-recovery copies, not the ground truth, so a
        // never-acknowledged batch on a replica is harmless.
        let replication = shared
            .replicator
            .as_ref()
            .map(|replicator| (replicator, replicator.replicate_begin(Arc::clone(&records))));
        let local_start = std::time::Instant::now();
        let append_result = shared.store.append_batch(&records[..]);
        let local_elapsed = local_start.elapsed();

        let outcome = match append_result {
            Ok(header_record) => {
                next_log_id += 1;
                // Replicate before acknowledging (the paper's
                // stronger-liveness configuration waits for replica acks).
                if let Some((replicator, handle)) = replication {
                    if handle.wait() < replicator.replica_count() {
                        shared.stats.lock().replication_shortfalls += 1;
                    }
                }
                PersistOutcome::Persisted {
                    msgs,
                    tree,
                    log_id,
                    first_record: header_record + 1,
                }
            }
            Err(err) => {
                // Storage is the node's ground truth: without a durable copy
                // no stage-1 response may be signed. Reject the batch (via
                // the deliver stage, keeping reply order) instead of taking
                // the node down.
                PersistOutcome::Failed {
                    msgs,
                    error: format!("local log append failed: {err}"),
                }
            }
        };
        {
            let mut stats = shared.stats.lock();
            stats.merkle_par_chunks += par_chunks;
            stats.merkle_hash_ns += merkle_elapsed.as_nanos() as u64;
            if shared.replicator.is_some() {
                // Local persistence time that ran concurrently with the
                // in-flight replica sends.
                stats.replication_overlap_ns += local_elapsed.as_nanos() as u64;
            }
        }
        if let Err(lost) = send_downstream(shared, &deliver_tx, outcome) {
            let (msgs, error) = match lost {
                PersistOutcome::Persisted { msgs, .. } => (msgs, "node pipeline stopped".into()),
                PersistOutcome::Failed { msgs, error } => (msgs, error),
            };
            for msg in msgs {
                (msg.reply)(Err(error.clone()));
            }
        }
    }
    // deliver_tx drops here: the deliver stage drains and exits.
}

/// Stage 3: sign responses, register the batch (publishing a new read
/// snapshot *before* any reply goes out, so a read issued right after a
/// response always succeeds), deliver replies, queue stage-2 work.
fn deliver_stage(
    shared: &Shared,
    deliver_rx: Receiver<PersistOutcome>,
    stage2: Sender<Stage2Task>,
) {
    let mut rng = SmallRng::seed_from_u64(0x5745_4447_4542_4c4b); // "WEDGEBLK"
    while let Ok(outcome) = deliver_rx.recv() {
        let (batch, tree, log_id, first_record) = match outcome {
            PersistOutcome::Persisted {
                msgs,
                tree,
                log_id,
                first_record,
            } => (msgs, tree, log_id, first_record),
            PersistOutcome::Failed { msgs, error } => {
                shared.stats.lock().requests_rejected += msgs.len() as u64;
                for msg in msgs {
                    (msg.reply)(Err(error.clone()));
                }
                continue;
            }
        };
        let root = tree.root();

        // Assemble proofs and leaves in parallel, then batch-sign the
        // response digests — the batch path shares one scalar and one field
        // inversion per chunk and emits signature bytes identical to
        // per-item signing.
        let tampering = matches!(shared.config.behavior, NodeBehavior::TamperResponses { .. })
            && shared.config.behavior.affects(log_id);
        let node_key = *shared.identity.secret_key();
        let responses: Vec<SignedResponse> = {
            let tree = &tree;
            let items: Vec<(usize, &crate::types::AppendRequest)> =
                batch.iter().map(|m| &m.request).enumerate().collect();
            let prepared = shared.pool.map(&items, move |(offset, request)| {
                let mut leaf = request.leaf_bytes();
                if tampering {
                    tamper(&mut leaf);
                }
                // lint: allow(panic) — `offset` enumerates the same batch
                // the tree was built from, so it is always in range
                let proof = tree.prove(*offset).expect("offset in range");
                (
                    EntryId {
                        log_id,
                        offset: *offset as u32,
                    },
                    root,
                    proof,
                    leaf,
                )
            });
            SignedResponse::sign_batch(&node_key, prepared, shared.pool.workers())
        };

        // Optional simulated response-network delay (one message per flush).
        let delay = {
            use rand::Rng as _;
            let _ = rng.gen::<u8>(); // keep rng state moving even for Zero
            shared
                .config
                .response_latency
                .sample(&mut rng, responses.iter().map(|r| r.leaf.len()).sum())
        };
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }

        // Group-commit reply-release rule: no reply (and no snapshot
        // registration) may be released before the fsync covering the
        // batch's records completed. Signing above already overlapped the
        // wait.
        let last_record = first_record + batch.len() as u64 - 1;
        let durable = shared.store.ensure_durable(last_record);

        // Register the batch in the write plane — one publication makes the
        // whole batch (metadata + sequence entries + entry count) visible
        // atomically; readers see all of it or none of it.
        let entries: Vec<((wedge_chain::Address, u64), u32)> = batch
            .iter()
            .enumerate()
            .map(|(offset, msg)| ((msg.request.publisher, msg.request.sequence), offset as u32))
            .collect();
        let count = batch.len() as u32;
        shared.mutate(move |plane| {
            plane.register_batch(
                BatchMeta {
                    log_id,
                    first_record,
                    count,
                    tree,
                },
                entries,
            );
        });
        {
            let mut stats = shared.stats.lock();
            stats.entries_ingested += batch.len() as u64;
            stats.bytes_ingested += batch
                .iter()
                .map(|m| m.request.payload.len() as u64)
                .sum::<u64>();
            stats.batches_flushed += 1;
        }

        match durable {
            Ok(()) => {
                for (msg, response) in batch.into_iter().zip(responses) {
                    (msg.reply)(Ok(response));
                }
            }
            Err(err) => {
                // The batch stays registered (log positions must remain
                // dense) but was never confirmed durable; acknowledging it
                // would break the reply ⇒ durable invariant. Fail the
                // replies instead — to a client this is indistinguishable
                // from a node crash before the response.
                let error = format!("durability sync failed: {err}");
                shared.stats.lock().requests_rejected += batch.len() as u64;
                for msg in batch {
                    (msg.reply)(Err(error.clone()));
                }
            }
        }

        // Stage 2 hand-off (omitted under the omission attack).
        if let Some(stage2_root) =
            super::stage2::stage2_root_for(shared.config.behavior, log_id, root)
        {
            let _ = stage2.send(Stage2Task {
                log_id,
                root: stage2_root,
                stage1_done: shared.chain.clock().now(),
            });
        }
    }
}
