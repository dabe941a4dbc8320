//! Node-side metrics, the raw material for the paper's figures.

use std::time::Duration;

use wedge_chain::{Gas, Wei};

/// Counters and samples collected by the Offchain Node.
#[derive(Clone, Debug, Default)]
pub struct NodeStats {
    /// Append requests accepted into batches.
    pub entries_ingested: u64,
    /// Raw payload bytes accepted.
    pub bytes_ingested: u64,
    /// Requests dropped for invalid signatures.
    pub requests_rejected: u64,
    /// Batches flushed (log positions created).
    pub batches_flushed: u64,
    /// `Update-Records` transactions submitted.
    pub stage2_txs_submitted: u64,
    /// Log positions confirmed on-chain.
    pub stage2_committed: u64,
    /// Log positions abandoned after the retry policy's `max_attempts`
    /// consecutive failures — *not* first-attempt failures, which are
    /// retried (see [`crate::Stage2RetryPolicy`]).
    pub stage2_failed: u64,
    /// Stage-2 re-submissions performed (attempt ≥ 2 of a group).
    pub stage2_retries: u64,
    /// Log positions re-queued into the retry backlog (one position
    /// counted once per failed attempt of its group).
    pub stage2_requeued: u64,
    /// Failed stage-2 submissions classified as submission errors
    /// (transaction never reached the mempool).
    pub stage2_submission_errors: u64,
    /// Failed stage-2 submissions classified as on-chain reverts.
    pub stage2_reverts: u64,
    /// Failed stage-2 submissions classified as receipt timeouts.
    pub stage2_timeouts: u64,
    /// Per-attempt backoff histogram: `stage2_backoff_hist[k]` counts the
    /// retries scheduled after attempt `k + 1` failed.
    pub stage2_backoff_hist: Vec<u64>,
    /// Sum of the simulated stage-1→stage-2 latencies of the positions the
    /// node's own committer confirmed.
    pub stage2_latency_total: Duration,
    /// Positions summed into `stage2_latency_total`. Not `stage2_committed`:
    /// epoch-mode commits count there but carry no latency.
    pub stage2_latency_samples: u64,
    /// Total gas spent on stage-2 commitments.
    pub stage2_gas: Gas,
    /// Total fees spent on stage-2 commitments.
    pub stage2_fees: Wei,
    /// Batches that received fewer replica acknowledgements than
    /// configured (a replica is down or lagging).
    pub replication_shortfalls: u64,
    /// Read-plane snapshots published (one per batch registration, stage-2
    /// group commit, or destructive mutation).
    pub snapshot_publishes: u64,
    /// Times a stage-1 pipeline stage blocked handing a batch downstream
    /// (the bounded inter-stage queue was full). A persistently high rate
    /// means the persist/deliver stages are the bottleneck; consider a
    /// deeper [`crate::NodeConfig::pipeline_depth`].
    pub pipeline_stalls: u64,
    /// Parallel chunks dispatched while building batch Merkle trees
    /// (0 ⇒ every tree was built serially, e.g. below
    /// [`wedge_merkle::PARALLEL_CUTOFF`] leaves or on a single-core
    /// machine).
    pub merkle_par_chunks: u64,
    /// `sync_data` calls the local store issued (sampled from the store
    /// when stats are read).
    pub fsyncs: u64,
    /// Batches whose durability rode a neighbouring batch's group-commit
    /// fsync instead of paying their own (sampled from the store when
    /// stats are read).
    pub fsyncs_coalesced: u64,
    /// Nanoseconds of local persistence (Merkle + `append_batch` + fsync)
    /// that ran while replica sends were already in flight — the persist
    /// stage's overlap win. 0 when there are no replicas.
    pub replication_overlap_ns: u64,
    /// Worker threads *not* spawned because the shared pool caps
    /// parallelism at the machine's core count (process-wide, sampled from
    /// [`wedge_pool::oversubscription_avoided`] when stats are read).
    pub oversubscription_avoided: u64,
    /// Keccak-256 digests computed, all paths (process-wide, sampled from
    /// [`wedge_crypto::hash::hashes_computed`] when stats are read).
    pub hashes_computed: u64,
    /// ×4 lane-interleaved Keccak groups executed — each one produced four
    /// digests in roughly one permutation's time (process-wide, sampled
    /// from [`wedge_crypto::hash::hash_batches_x4`] when stats are read).
    pub hash_batches_x4: u64,
    /// Nanoseconds the persist stage spent building batch Merkle trees
    /// (leaf hashing + level folding) — where digest time goes once
    /// signing is amortized.
    pub merkle_hash_ns: u64,
    /// Hot segments sealed into read-only cold segments since this node
    /// started (sampled from the store when stats are read).
    pub segments_sealed: u64,
    /// Two-plane checkpoints written (periodic and final-on-shutdown).
    pub checkpoint_writes: u64,
    /// Store records replayed during this node's start — records past the
    /// newest valid checkpoint's cursor, or the whole log when no
    /// checkpoint was usable. The observable measure of O(tail) restart.
    pub restart_replayed_records: u64,
    /// Cold segments deleted by the retention policy since this node
    /// started (sampled from the store when stats are read).
    pub gc_deleted_segments: u64,
    /// Non-empty `epoch_report` groups handed to a cluster epoch
    /// coordinator (shard nodes in [`crate::Stage2Mode::Epoch`] only).
    pub epoch_reports: u64,
    /// Cluster epoch acknowledgements applied via `epoch_commit`.
    pub epoch_commits: u64,
    /// `epoch_commit` calls rejected because a later epoch was already
    /// acknowledged — the stale-epoch guard the cluster protocol model
    /// checks.
    pub epoch_stale_rejected: u64,
}

impl NodeStats {
    /// Records one scheduled retry after attempt `attempt` (1-based)
    /// failed, growing the histogram as needed.
    pub(crate) fn record_backoff(&mut self, attempt: u32) {
        let idx = attempt.saturating_sub(1) as usize;
        if self.stage2_backoff_hist.len() <= idx {
            self.stage2_backoff_hist.resize(idx + 1, 0);
        }
        self.stage2_backoff_hist[idx] = self.stage2_backoff_hist[idx].saturating_add(1);
    }

    /// Adds one committed position's stage-1→stage-2 latency.
    pub(crate) fn record_stage2_latency(&mut self, latency: Duration) {
        self.stage2_latency_total = self.stage2_latency_total.saturating_add(latency);
        self.stage2_latency_samples += 1;
    }

    /// Mean stage-2 latency (simulated), if any commitments completed.
    pub fn mean_stage2_latency(&self) -> Option<Duration> {
        self.mean_stage2_latency_since(&NodeStats::default())
    }

    /// Mean stage-2 latency of the positions committed after `earlier`
    /// was sampled from the same node, if any.
    pub fn mean_stage2_latency_since(&self, earlier: &NodeStats) -> Option<Duration> {
        let samples = self
            .stage2_latency_samples
            .checked_sub(earlier.stage2_latency_samples)
            .filter(|&n| n > 0)?;
        let total = self
            .stage2_latency_total
            .saturating_sub(earlier.stage2_latency_total);
        Some(Duration::from_nanos(
            (total.as_nanos() / u128::from(samples)) as u64,
        ))
    }

    /// On-chain cost per ingested operation, in wei.
    pub fn cost_per_op(&self) -> Wei {
        if self.entries_ingested == 0 {
            return Wei::ZERO;
        }
        Wei(self.stage2_fees.0 / self.entries_ingested as u128)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let mut s = NodeStats::default();
        assert!(s.mean_stage2_latency().is_none());
        assert_eq!(s.cost_per_op(), Wei::ZERO);
        s.record_stage2_latency(Duration::from_secs(40));
        let earlier = s.clone();
        s.record_stage2_latency(Duration::from_secs(46));
        assert_eq!(s.mean_stage2_latency(), Some(Duration::from_secs(43)));
        assert_eq!(
            s.mean_stage2_latency_since(&earlier),
            Some(Duration::from_secs(46))
        );
        assert!(s.mean_stage2_latency_since(&s).is_none());
        s.entries_ingested = 1000;
        s.stage2_fees = Wei(5_000_000);
        assert_eq!(s.cost_per_op(), Wei(5_000));
    }
}
