//! Per-layer metrics for the traced run: deltas of the program's public
//! counters over the measured window, and replays that time one layer's
//! public functions on the workload's own batch shape.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use wedge_core::{AppendRequest, EntryId, NodeStats, OffchainNode, SignedResponse};
use wedge_merkle::MerkleTree;
use wedge_net::{NetStats, NodeServer};
use wedge_pool::WorkPool;
use wedge_storage::{LogStore, Replicator, SyncPolicy};

use crate::report::Report;
use crate::stats::{self, Samples};
use crate::world::node_config;

/// The counters at one instant.
pub struct Probe {
    node: NodeStats,
    hashes: u64,
    x4: u64,
    oversubscription: u64,
    cpu_s: f64,
    at: Instant,
    net: Option<NetStats>,
}

impl Probe {
    pub fn take(node: &OffchainNode, server: Option<&NodeServer>) -> Probe {
        Probe {
            node: node.stats(),
            hashes: wedge_crypto::hash::hashes_computed(),
            x4: wedge_crypto::hash::hash_batches_x4(),
            oversubscription: wedge_pool::oversubscription_avoided(),
            cpu_s: stats::cpu_seconds(),
            at: Instant::now(),
            net: server.map(NodeServer::stats),
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Records the counter-derived layer metrics for the window `a..b`, in
/// which the workload completed `ops` operations; stage-2 counters run on
/// to `settled`, taken once the window's positions are committed. Returns
/// the mean entries per flushed batch (the workload's batch shape for the
/// replays).
pub fn counters(r: &mut Report, a: &Probe, b: &Probe, settled: &Probe, ops: u64) -> f64 {
    let (x, y) = (&a.node, &b.node);
    let wall = b.at.duration_since(a.at).as_secs_f64();
    let batches = (y.batches_flushed - x.batches_flushed) as f64;
    let entries = (y.entries_ingested - x.entries_ingested) as f64;
    let ops = ops as f64;
    let batch_fill = ratio(entries, batches);
    r.metric("node.batch_fill", batch_fill, "count");
    r.metric("node.batches_per_s", ratio(batches, wall), "1/s");
    let stalls = (y.pipeline_stalls - x.pipeline_stalls) as f64;
    r.metric(
        "node.pipeline_stalls_per_batch",
        ratio(stalls, batches),
        "ratio",
    );
    let publishes = (y.snapshot_publishes - x.snapshot_publishes) as f64;
    r.metric(
        "node.snapshot_publishes_per_s",
        ratio(publishes, wall),
        "1/s",
    );
    let rejected = (y.requests_rejected - x.requests_rejected) as f64;
    r.metric("node.requests_rejected", rejected, "count");

    let merkle_ms = (y.merkle_hash_ns - x.merkle_hash_ns) as f64 / 1e6;
    r.metric("merkle.hash_ms_per_batch", ratio(merkle_ms, batches), "ms");
    let chunks = (y.merkle_par_chunks - x.merkle_par_chunks) as f64;
    r.metric(
        "merkle.par_chunks_per_batch",
        ratio(chunks, batches),
        "ratio",
    );

    let hashes = (b.hashes - a.hashes) as f64;
    r.metric("crypto.hashes_per_op", ratio(hashes, ops), "ratio");
    let x4 = (b.x4 - a.x4) as f64;
    r.metric("crypto.x4_share", ratio(4.0 * x4, hashes), "ratio");

    let coalesced = (y.fsyncs_coalesced - x.fsyncs_coalesced) as f64;
    r.metric(
        "storage.fsyncs_coalesced_per_batch",
        ratio(coalesced, batches),
        "ratio",
    );
    let overlap_ms = (y.replication_overlap_ns - x.replication_overlap_ns) as f64 / 1e6;
    r.metric(
        "storage.replication_overlap_ms_per_batch",
        ratio(overlap_ms, batches),
        "ms",
    );
    r.metric("storage.segments_sealed", y.segments_sealed as f64, "count");
    r.metric(
        "storage.checkpoint_writes",
        y.checkpoint_writes as f64,
        "count",
    );

    let z = &settled.node;
    let txs = (z.stage2_txs_submitted - x.stage2_txs_submitted) as f64;
    r.metric("chain.txs_per_batch", ratio(txs, batches), "ratio");
    let gas = (z.stage2_gas.0 - x.stage2_gas.0) as f64;
    r.metric("chain.gas_per_tx", ratio(gas, txs), "gas");
    let retries = (z.stage2_retries - x.stage2_retries) as f64;
    r.metric("chain.stage2_retries", retries, "count");

    let (frames, rx, tx, per_write, hit_rate, shed) = match (&a.net, &b.net) {
        (Some(p), Some(q)) => (
            ratio((q.frames_rx - p.frames_rx) as f64, ops),
            ratio((q.rx_bytes - p.rx_bytes) as f64, ops),
            ratio((q.tx_bytes - p.tx_bytes) as f64, ops),
            ratio(
                (q.replies_sent - p.replies_sent) as f64,
                (q.writes_issued - p.writes_issued) as f64,
            ),
            ratio(
                (q.buffer_pool_hits - p.buffer_pool_hits) as f64,
                (q.buffer_pool_hits + q.buffer_pool_misses
                    - p.buffer_pool_hits
                    - p.buffer_pool_misses) as f64,
            ),
            (q.queue_shed + q.slow_client_kills + q.connections_shed
                - p.queue_shed
                - p.slow_client_kills
                - p.connections_shed) as f64,
        ),
        // In-process workloads bypass the net layer.
        _ => (0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    };
    r.metric("net.frames_rx_per_op", frames, "ratio");
    r.metric("net.rx_bytes_per_op", rx, "B");
    r.metric("net.tx_bytes_per_op", tx, "B");
    r.metric("net.replies_per_write", per_write, "ratio");
    r.metric("net.buffer_pool_hit_rate", hit_rate, "ratio");
    r.metric("net.shed_or_killed", shed, "count");

    r.metric(
        "pool.oversubscription_avoided",
        (b.oversubscription - a.oversubscription) as f64,
        "count",
    );
    r.metric(
        "proc.cpu_busy_frac",
        ratio(b.cpu_s - a.cpu_s, wall * crate::nproc() as f64),
        "ratio",
    );
    batch_fill
}

/// Replays the node's crypto and storage steps on `batch` requests of the
/// workload's entry size, with the node's own worker count, store and
/// replication settings. Crypto records the median per-op time of 5 reps.
/// Storage records the mean per-batch time over one group-commit cycle:
/// replicas append without `ensure_durable`, so only every `max_batches`-th
/// append syncs, and pays for the whole group.
pub fn replays(r: &mut Report, scratch: &Path, seed: u64, batch: usize, value_bytes: usize) {
    const REPS: usize = 5;
    let batch = batch.max(1);
    let config = node_config();
    let pool = WorkPool::new(config.worker_threads);
    let signer = crate::gen::identity(seed, "replay", 0);
    let requests = crate::gen::presigned(
        seed,
        1 << 40,
        std::slice::from_ref(&signer),
        0..batch as u64,
        value_bytes,
    );
    let per_op = |d: std::time::Duration| d.as_secs_f64() * 1e6 / batch as f64;

    let mut verify = Samples::default();
    for _ in 0..REPS {
        let t = Instant::now();
        let ok = pool.map(&requests, |q: &AppendRequest| q.verify().is_ok());
        verify.push(per_op(t.elapsed()));
        if ok.iter().any(|ok| !ok) {
            r.wrong("replayed request failed verification");
        }
    }
    r.metric("crypto.node_verify_us_per_op", verify.median(), "us");

    let leaves: Vec<Vec<u8>> = requests.iter().map(AppendRequest::leaf_bytes).collect();
    let tree = MerkleTree::from_leaves(&leaves).expect("non-empty replay batch");
    let root = tree.root();
    let items: Vec<_> = leaves
        .iter()
        .enumerate()
        .map(|(i, leaf)| {
            let id = EntryId {
                log_id: 0,
                offset: i as u32,
            };
            (
                id,
                root,
                tree.prove(i).expect("offset in range"),
                leaf.clone(),
            )
        })
        .collect();
    let mut sign = Samples::default();
    for _ in 0..REPS {
        let items = items.clone();
        let t = Instant::now();
        let signed = SignedResponse::sign_batch(signer.secret_key(), items, pool.workers());
        sign.push(per_op(t.elapsed()));
        std::hint::black_box(signed);
    }
    r.metric("crypto.node_sign_us_per_op", sign.median(), "us");

    // Records as the node writes them: one header, then one tagged,
    // length-prefixed record per leaf.
    let mut records = vec![vec![0u8; 53]];
    records.extend(leaves.iter().map(|l| {
        let mut rec = Vec::with_capacity(5 + l.len());
        rec.push(2);
        rec.extend_from_slice(&(l.len() as u32).to_le_bytes());
        rec.extend_from_slice(l);
        rec
    }));
    let cycle = match config.store.sync {
        SyncPolicy::GroupCommit { max_batches, .. } => max_batches.max(1),
        _ => REPS,
    };
    let mut append = Samples::default();
    match LogStore::open(scratch.join("replay-store"), config.store.clone()) {
        Ok(store) => {
            for _ in 0..cycle {
                let t = Instant::now();
                let durable = store
                    .append_batch(&records)
                    .and_then(|first| store.ensure_durable(first + records.len() as u64 - 1));
                append.push_ms(t.elapsed());
                if let Err(e) = durable {
                    r.wrong(format!("replayed store append failed: {e}"));
                }
            }
        }
        Err(e) => r.wrong(format!("replay store: {e}")),
    }
    r.metric("storage.append_durable_ms_per_batch", append.mean(), "ms");

    let mut replicate = Samples::default();
    match Replicator::spawn(
        scratch.join("replay-replicas"),
        config.replicas,
        config.store.clone(),
        config.replica_link_delay,
    ) {
        Ok(replicator) => {
            let shared = Arc::new(records);
            for _ in 0..cycle {
                let t = Instant::now();
                let acked = replicator.replicate_begin(Arc::clone(&shared)).wait();
                replicate.push_ms(t.elapsed());
                if acked != config.replicas {
                    r.wrong("replayed replication lost an acknowledgement");
                }
            }
        }
        Err(e) => r.wrong(format!("replay replicas: {e}")),
    }
    r.metric("storage.replicate_ms_per_batch", replicate.mean(), "ms");
}
