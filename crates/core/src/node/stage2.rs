//! The stage-2 committer (paper §4.3, blockchain commitment), rebuilt as a
//! fault-tolerant retry subsystem.
//!
//! Runs lazily in the background. It keeps no copy of the pending work:
//! the read-plane snapshot is the only record of it. Flushed positions not
//! yet in `commits` are pending. The committer reads the next contiguous run
//! of them from the committed frontier ([`pending_range`]), groups it into a
//! single `Update-Records` transaction (amortizing the 21k base cost — the
//! minimum-writing lever of Figure 3 right), submits, and waits for the
//! confirmed receipt before recording the positions as blockchain-committed.
//! The deliver stage rings a one-slot doorbell after each batch
//! registration, so an idle committer wakes without polling.
//!
//! Every group goes to the chain through a [`Lander`]: it classifies a
//! failed attempt, reconciles against the Root Record's tail (a timed-out
//! transaction may well have landed, and those positions are marked
//! committed rather than re-sent), and retries with bounded, jittered
//! backoff (see [`crate::config::Stage2RetryPolicy`]). A group is abandoned
//! — counting `stage2_failed` — only once `max_attempts` consecutive
//! attempts failed: `stage2_failed` means "retries exhausted", not "first
//! attempt unlucky". The same tail reconcile runs once at node start,
//! before any thread spawns.

use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crossbeam::channel::Receiver;
use wedge_chain::{Gas, Receipt};
use wedge_contracts::RootRecord;
use wedge_crypto::hash::Hash32;
use wedge_sim::SimInstant;

use super::snapshot::Snapshot;
use super::state::CommitInfo;
use super::Shared;
use crate::config::NodeBehavior;
use crate::lander::{Failure, Lander, Next};

/// The next stage-2 group in `snap`: the first run of flushed-but-
/// uncommitted log positions at or above the committed frontier, restricted
/// to `eligible` and capped at `max_group` positions.
///
/// Already-committed positions at the start of the window are skipped. The
/// run stops before the next committed position: the Root Record writes
/// strictly sequentially, so a position beyond a gap must never share the
/// group's `start_idx` in `update_records_calldata(start_idx, …)`. Empty
/// when nothing is pending.
pub(crate) fn pending_range(snap: &Snapshot, eligible: Range<u64>, max_group: usize) -> Range<u64> {
    let flushed = (snap.batches.len() as u64).min(eligible.end);
    let mut start = snap.commits.contiguous().max(eligible.start);
    while start < flushed && snap.commits.contains(start) {
        start += 1;
    }
    let cap = start.saturating_add(max_group.max(1) as u64).min(flushed);
    let mut end = start;
    while end < cap && !snap.commits.contains(end) {
        end += 1;
    }
    start..end
}

/// The first log position `behavior` never blockchain-commits: the
/// omission attack's `from_log`, `u64::MAX` otherwise.
pub(crate) fn stage2_limit(behavior: NodeBehavior) -> u64 {
    match behavior {
        NodeBehavior::OmitStage2 { from_log } => from_log,
        _ => u64::MAX,
    }
}

/// The root a (possibly malicious) node blockchain-commits for `log_id`,
/// given the honest root. Applied once, when the committer forms a group,
/// so a configured behaviour holds for live and recovered positions alike.
fn stage2_root_for(behavior: NodeBehavior, log_id: u64, honest_root: Hash32) -> Hash32 {
    match behavior {
        NodeBehavior::CommitWrongRoot { .. } if behavior.affects(log_id) => {
            Hash32::keccak(&[honest_root.as_bytes().as_slice(), b"equivocation"].concat())
        }
        _ => honest_root,
    }
}

/// The committer's state: the lander carrying the head group's retry
/// schedule, and the watermark of abandoned positions. The pending
/// positions themselves live only in the snapshot.
pub(crate) struct Committer {
    shared: Arc<Shared>,
    lander: Lander,
    /// Positions below this were committed or abandoned after exhausting
    /// their retries; group formation never revisits them.
    abandoned_upto: u64,
    /// Earliest simulated instant the next submission may happen.
    next_due: SimInstant,
}

/// Post-group-commit tier maintenance state, shared by the direct stage-2
/// committer and the cluster `epoch_commit` path (whichever advances the
/// blockchain-committed frontier drives sealing/checkpoint/retention).
pub(crate) struct TierMaintenance {
    /// Group commits since the last two-plane checkpoint.
    groups_since_ckpt: u64,
    /// When the last checkpoint was written (simulated time).
    last_ckpt: SimInstant,
}

impl TierMaintenance {
    pub(crate) fn new(now: SimInstant) -> TierMaintenance {
        TierMaintenance {
            groups_since_ckpt: 0,
            last_ckpt: now,
        }
    }

    /// Every blockchain-committed position's records are immutable (the
    /// paper's two-plane commitment makes the frontier explicit), so this
    /// is where hot segments are sealed cold, the two-plane checkpoint
    /// cadence ticks, and cold segments past the punishment window are
    /// retired. All I/O happens on the calling (committer or epoch-commit)
    /// thread — never under the write-plane guard, never on the stage-1 or
    /// read paths.
    pub(crate) fn after_group_commit(&mut self, shared: &Shared) {
        let tier = shared.config.tier;
        let snap = shared.snapshot();
        // The committed frontier in *record* space: every record of every
        // contiguously-committed position is immutable.
        let frontier_log = snap.commits.contiguous();
        let frontier_record = match frontier_log
            .checked_sub(1)
            .and_then(|id| snap.batches.get(id as usize))
        {
            Some(batch) => batch.first_record + batch.count as u64,
            None => 0,
        };
        if tier.seal_on_commit && frontier_record > 0 {
            // Sealing verifies CRCs as it copies; an error here is a disk
            // problem the next group commit will retry.
            let _ = shared.store.seal_up_to(frontier_record);
        }
        self.groups_since_ckpt += 1;
        let now = shared.chain.clock().now();
        let due_by_groups = tier.checkpoint_every_groups > 0
            && self.groups_since_ckpt >= tier.checkpoint_every_groups;
        let due_by_time = now.since(self.last_ckpt) >= tier.checkpoint_interval;
        if (due_by_groups || due_by_time) && shared.write_checkpoint().is_ok() {
            self.groups_since_ckpt = 0;
            self.last_ckpt = now;
        }
        if let Some(retain) = tier.retain_groups {
            // Retire records of positions more than `retain` groups behind
            // the frontier — but never past what the kept checkpoints can
            // restore (a restart must always find its state on disk).
            let keep_from_log = frontier_log.saturating_sub(retain);
            let retain_record = snap
                .batches
                .get(keep_from_log as usize)
                .map(|batch| batch.first_record)
                .unwrap_or(0);
            let upto = retain_record.min(shared.ckpt_floor.load(Ordering::Acquire));
            if upto > 0 {
                let _ = shared.store.retire_up_to(upto);
            }
        }
    }
}

impl Committer {
    /// Builds the committer and resynchronizes it with the chain: positions
    /// the Root Record already holds (committed before a restart, but
    /// missing from the restored state) are marked committed. Runs on the
    /// starting thread, before any worker spawns, so the first reader sees
    /// the reconciled state. Everything still pending is picked up from the
    /// snapshot by [`Committer::run`].
    pub(crate) fn recover(shared: Arc<Shared>) -> Committer {
        let lander = Lander::new(
            Arc::clone(&shared.chain),
            shared.identity.clone(),
            shared.root_record,
            RootRecord::get_tail_calldata(),
            RootRecord::decode_tail,
            shared.config.stage2_retry,
            0x5354_4147_4532_5254, // "STAGE2RT"
        );
        let mut c = Committer {
            next_due: shared.chain.clock().now(),
            shared,
            lander,
            abandoned_upto: 0,
        };
        let snap = c.shared.snapshot();
        let tail = c.lander.tail().unwrap_or(0);
        c.commit_group(
            snap.commits.contiguous()..tail.min(snap.batches.len() as u64),
            None,
        );
        c
    }

    /// Committer main loop: commits pending groups until none is left, then
    /// sleeps on the doorbell. Exits once the deliver stage has hung up and
    /// every pending position is committed or abandoned.
    pub(crate) fn run(mut self, doorbell: Receiver<()>) {
        loop {
            if self.next_group(&self.shared.snapshot()).is_empty() {
                // The deliver stage rings only after publishing a batch, so
                // a ring (or a hang-up) observed here covers every position
                // registered since the snapshot above was loaded.
                if doorbell.recv().is_err() {
                    break;
                }
                continue;
            }
            // Honour the backoff deadline; positions flushed meanwhile join
            // the group formed after it.
            let now = self.shared.chain.clock().now();
            if now < self.next_due {
                self.shared.chain.clock().sleep(self.next_due.since(now));
            }
            self.attempt_head_group();
        }
    }

    /// The next group to submit: pending positions past the abandoned
    /// watermark, short of the omission cut.
    fn next_group(&self, snap: &Snapshot) -> Range<u64> {
        let eligible = self.abandoned_upto..stage2_limit(self.shared.config.behavior);
        pending_range(snap, eligible, self.shared.config.stage2_max_group)
    }

    /// Lands one `Update-Records` attempt for the head group and books the
    /// outcome: landed positions are committed, the rest is scheduled for
    /// retry or — after `max_attempts` — abandoned.
    fn attempt_head_group(&mut self) {
        let snap = self.shared.snapshot();
        let group = self.next_group(&snap);
        if group.is_empty() {
            return;
        }
        let behavior = self.shared.config.behavior;
        let roots: Vec<Hash32> = group
            .clone()
            .filter_map(|id| {
                let batch = snap.batches.get(id as usize)?;
                Some(stage2_root_for(behavior, id, batch.tree.root()))
            })
            .collect();
        let calldata = RootRecord::update_records_calldata(group.start, &roots);
        // 21k base + calldata + 20k per fresh word + margin.
        let gas_limit = Gas(120_000 + 25_000 * roots.len() as u64);
        let landing = self.lander.land(group.clone(), calldata, gas_limit);
        {
            let mut stats = self.shared.stats.lock();
            stats.stage2_txs_submitted += 1;
            if landing.retry {
                stats.stage2_retries += 1;
            }
            match landing.failure {
                None => {}
                Some(Failure::Submission) => stats.stage2_submission_errors += 1,
                Some(Failure::Revert) => stats.stage2_reverts += 1,
                Some(Failure::Timeout) => stats.stage2_timeouts += 1,
            }
        }
        self.commit_group(landing.landed.clone(), landing.receipt.as_ref());
        let rest = group.end - landing.landed.end;
        let now = self.shared.chain.clock().now();
        self.next_due = now;
        match landing.next {
            Next::Done => {}
            Next::Retry { attempt, backoff } => {
                let mut stats = self.shared.stats.lock();
                stats.stage2_requeued += rest;
                stats.record_backoff(attempt);
                self.next_due = now.add(backoff);
            }
            Next::Abandon => {
                // Retries exhausted: only now does the commitment count as
                // failed.
                self.abandoned_upto = group.end;
                self.shared.stats.lock().stage2_failed += rest;
            }
        }
    }

    /// Marks every not-yet-committed position of `group` blockchain-
    /// committed under `receipt`, whose gas and fee go to the stats. With
    /// no receipt (landed through a transaction the lander cannot see) the
    /// commitment is recorded without per-tx provenance.
    fn commit_group(&mut self, group: Range<u64>, receipt: Option<&Receipt>) {
        if group.is_empty() {
            return;
        }
        let committed_at = self.shared.chain.clock().now();
        let (tx_hash, block_number) =
            receipt.map_or((Hash32::ZERO, 0), |r| (r.tx_hash, r.block_number));
        // One write-plane mutation (and one published snapshot) for the
        // whole group. Stage-2 latency runs from the batch's registration
        // (or, for a recovered batch, from the restart) to now.
        let latencies = self.shared.mutate(|plane| {
            let mut latencies = Vec::with_capacity(group.clone().count());
            for log_id in group {
                if plane.commits.contains(log_id) {
                    continue;
                }
                let Some(batch) = plane.batches.get(log_id as usize) else {
                    break;
                };
                let latency = committed_at.since(batch.flushed_at);
                plane.commits.insert(
                    log_id,
                    CommitInfo {
                        tx_hash,
                        block_number,
                        stage2_latency: latency,
                    },
                );
                latencies.push(latency);
            }
            latencies
        });
        if latencies.is_empty() {
            return;
        }
        {
            let mut stats = self.shared.stats.lock();
            stats.stage2_committed += latencies.len() as u64;
            if let Some(receipt) = receipt {
                stats.stage2_gas = stats.stage2_gas.saturating_add(receipt.gas_used);
                stats.stage2_fees = stats.stage2_fees.saturating_add(receipt.fee);
            }
            for latency in latencies {
                stats.record_stage2_latency(latency);
            }
        }
        self.shared
            .maintenance
            .lock()
            .after_group_commit(&self.shared);
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::node::snapshot::WritePlane;
    use crate::node::state::BatchMeta;
    use wedge_merkle::MerkleTree;

    /// A snapshot with `flushed` one-entry batches, of which `committed`
    /// are blockchain-committed.
    fn snapshot(flushed: u64, committed: &[u64]) -> Arc<Snapshot> {
        let mut plane = WritePlane::default();
        for log_id in 0..flushed {
            let meta = BatchMeta {
                log_id,
                first_record: 2 * log_id + 1,
                count: 1,
                tree: MerkleTree::from_leaves(&[vec![log_id as u8]]).unwrap(),
                flushed_at: SimInstant::EPOCH,
            };
            plane.register_batch(meta, std::iter::empty());
        }
        for &log_id in committed {
            plane.commits.insert(
                log_id,
                CommitInfo {
                    tx_hash: Hash32::ZERO,
                    block_number: 0,
                    stage2_latency: Duration::ZERO,
                },
            );
        }
        plane.freeze()
    }

    const ALL: Range<u64> = 0..u64::MAX;

    #[test]
    fn head_group_is_contiguous_run() {
        // Pending 3, 4, 5 behind a committed 0..3 head.
        let snap = snapshot(6, &[0, 1, 2]);
        assert_eq!(pending_range(&snap, ALL, 16), 3..6);
        assert_eq!(pending_range(&snap, ALL, 2), 3..5, "max_group caps");
        assert_eq!(pending_range(&snap, ALL, 0), 3..4, "a group holds ≥ 1");
        // Nothing pending.
        assert!(pending_range(&snapshot(3, &[0, 1, 2]), ALL, 16).is_empty());
        assert!(pending_range(&snapshot(0, &[]), ALL, 16).is_empty());
    }

    /// Regression: a position beyond a gap must be deferred to a later
    /// group — an early committer pushed it into the group *before*
    /// checking contiguity, binding its root to the wrong on-chain index
    /// inside `update_records_calldata(start_idx, …)`.
    #[test]
    fn non_contiguous_task_deferred_to_next_group() {
        // Pending 0, 1, 5: 2..5 are already committed.
        let snap = snapshot(6, &[2, 3, 4]);
        assert_eq!(pending_range(&snap, ALL, 16), 0..2, "5 must wait");
        // Pending 7, 9: 9 never shares 7's start_idx.
        let snap = snapshot(10, &[0, 1, 2, 3, 4, 5, 6, 8]);
        assert_eq!(pending_range(&snap, ALL, 16), 7..8);
    }

    #[test]
    fn omission_cuts_the_range() {
        let limit = stage2_limit(NodeBehavior::OmitStage2 { from_log: 4 });
        let snap = snapshot(6, &[0, 1]);
        assert_eq!(pending_range(&snap, 0..limit, 16), 2..4);
        let done = snapshot(6, &[0, 1, 2, 3]);
        assert!(pending_range(&done, 0..limit, 16).is_empty());
        for honest in [
            NodeBehavior::Honest,
            NodeBehavior::CommitWrongRoot { from_log: 0 },
        ] {
            assert_eq!(stage2_limit(honest), u64::MAX);
        }
    }

    #[test]
    fn abandoned_positions_are_skipped() {
        // 2..4 exhausted their retries: the next group starts at 4.
        let snap = snapshot(8, &[0, 1]);
        assert_eq!(pending_range(&snap, 4..u64::MAX, 16), 4..8);
        // Positions committed above the watermark are skipped too.
        let snap = snapshot(8, &[0, 1, 4, 5]);
        assert_eq!(pending_range(&snap, 4..u64::MAX, 16), 6..8);
        // A watermark below the frontier changes nothing.
        assert_eq!(pending_range(&snap, 1..u64::MAX, 16), 2..4);
    }
}
