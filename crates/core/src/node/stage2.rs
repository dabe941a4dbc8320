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
//! LMT's safety story rests on every flushed position *eventually* reaching
//! the Root Record, so a failed transaction is never dropped on first
//! contact. Instead the committer:
//!
//! 1. **classifies** the failure — submission error (never reached the
//!    mempool), on-chain revert, or receipt timeout;
//! 2. **reconciles** against the contract's on-chain tail — a timed-out
//!    transaction may well have landed, and those positions are marked
//!    committed rather than re-sent (the Root Record's single-write
//!    invariant would reject a duplicate anyway). The same reconcile runs
//!    once at node start, before any thread spawns;
//! 3. **retries** what remains with bounded exponential backoff + jitter
//!    (see [`crate::config::Stage2RetryPolicy`]);
//! 4. abandons a group — counting `stage2_failed` — only once
//!    `max_attempts` consecutive attempts failed: `stage2_failed` means
//!    "retries exhausted", not "first attempt unlucky".

use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::Receiver;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use wedge_chain::{ChainError, Gas, Receipt, TxHash};
use wedge_contracts::RootRecord;
use wedge_crypto::hash::Hash32;
use wedge_sim::SimInstant;

use super::snapshot::Snapshot;
use super::state::CommitInfo;
use super::Shared;
use crate::config::NodeBehavior;

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

/// How one `Update-Records` attempt failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum FailureKind {
    /// The transaction never entered the mempool.
    Submission,
    /// The transaction was mined but reverted.
    Revert,
    /// No confirmed receipt within the chain's patience window — the
    /// transaction may or may not have landed.
    Timeout,
}

/// The committer's state: the retry schedule for the head group and the
/// watermark of abandoned positions. The pending positions themselves live
/// only in the snapshot.
pub(crate) struct Committer {
    shared: Arc<Shared>,
    /// Positions below this were committed or abandoned after exhausting
    /// their retries; group formation never revisits them.
    abandoned_upto: u64,
    /// Failed attempts of the current head group.
    attempt: u32,
    /// The log id `attempt` refers to; progress at the head resets it.
    attempt_head: Option<u64>,
    /// Earliest simulated instant the next submission may happen.
    next_due: SimInstant,
    /// Seeded jitter source (deterministic across runs).
    rng: SmallRng,
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
        let next_due = shared.chain.clock().now();
        let mut c = Committer {
            shared,
            abandoned_upto: 0,
            attempt: 0,
            attempt_head: None,
            next_due,
            rng: SmallRng::seed_from_u64(0x5354_4147_4532_5254), // "STAGE2RT"
        };
        let snap = c.shared.snapshot();
        c.reconcile_tail(snap.commits.contiguous()..snap.batches.len() as u64, None);
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

    /// Submits one `Update-Records` transaction for the head group and
    /// handles the outcome.
    fn attempt_head_group(&mut self) {
        let snap = self.shared.snapshot();
        let group = self.next_group(&snap);
        if group.is_empty() {
            return;
        }
        let start_idx = group.start;
        // Progress at the head (including partial progress from a
        // reconciled timeout) starts a fresh attempt budget.
        if self.attempt_head != Some(start_idx) {
            self.attempt = 0;
            self.attempt_head = Some(start_idx);
        }
        let behavior = self.shared.config.behavior;
        let roots: Vec<Hash32> = group
            .clone()
            .filter_map(|id| {
                let batch = snap.batches.get(id as usize)?;
                Some(stage2_root_for(behavior, id, batch.tree.root()))
            })
            .collect();
        let calldata = RootRecord::update_records_calldata(start_idx, &roots);
        // 21k base + calldata + 20k per fresh word + margin.
        let gas_limit = Gas(120_000 + 25_000 * roots.len() as u64);
        {
            let mut stats = self.shared.stats.lock();
            stats.stage2_txs_submitted += 1;
            if self.attempt > 0 {
                stats.stage2_retries += 1;
            }
        }
        let submit = self.shared.chain.call_contract(
            self.shared.identity.secret_key(),
            self.shared.root_record,
            wedge_chain::Wei::ZERO,
            calldata,
            gas_limit,
        );
        let failure = match submit {
            // A `call_contract` error means the transaction never reached
            // the mempool — a submission-side failure whatever the cause.
            Err(_) => (FailureKind::Submission, None),
            Ok(hash) => match self.shared.chain.wait_for_receipt(hash) {
                Ok(receipt) if receipt.status.is_success() => {
                    self.commit_group(group, &receipt, true);
                    self.next_due = self.shared.chain.clock().now();
                    return;
                }
                Ok(_) => (FailureKind::Revert, Some(hash)),
                Err(ChainError::ReceiptTimeout(_)) => (FailureKind::Timeout, Some(hash)),
                Err(_) => (FailureKind::Submission, Some(hash)),
            },
        };
        self.handle_failure(group, failure.0, failure.1);
    }

    /// Marks every not-yet-committed position of `group` blockchain-
    /// committed under `receipt`. `charge` controls whether the receipt's
    /// gas/fee are added to the stats (false for a placeholder receipt).
    fn commit_group(&mut self, group: Range<u64>, receipt: &Receipt, charge: bool) {
        let committed_at = self.shared.chain.clock().now();
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
                        tx_hash: receipt.tx_hash,
                        block_number: receipt.block_number,
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
            if charge {
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

    /// Reconciles `range` against the Root Record's on-chain tail: the
    /// positions below it already landed (through a timed-out-but-mined
    /// transaction, or one sent before a restart) and are marked committed
    /// instead of being re-sent. Returns the tail.
    fn reconcile_tail(&mut self, range: Range<u64>, tx_hash: Option<TxHash>) -> u64 {
        let tail = self.onchain_tail();
        let landed = range.start..range.end.min(tail);
        if !landed.is_empty() {
            // Recover the landing receipt when we know the transaction;
            // its gas/fee were genuinely paid and belong in the stats.
            let receipt = tx_hash
                .and_then(|h| self.shared.chain.receipt(h))
                .filter(|r| r.status.is_success());
            match receipt {
                Some(receipt) => self.commit_group(landed, &receipt, true),
                // Landed through a transaction we cannot identify
                // (pre-restart, or a competing submission): record the
                // commitment without per-tx provenance.
                None => self.commit_group(landed, &synthetic_receipt(), false),
            }
        }
        tail
    }

    /// Classifies a failed attempt, reconciles against the on-chain tail
    /// (a timed-out transaction may have landed), and either schedules the
    /// remainder for retry with backoff or — after `max_attempts` —
    /// abandons it.
    fn handle_failure(&mut self, group: Range<u64>, kind: FailureKind, tx_hash: Option<TxHash>) {
        {
            let mut stats = self.shared.stats.lock();
            match kind {
                FailureKind::Submission => stats.stage2_submission_errors += 1,
                FailureKind::Revert => stats.stage2_reverts += 1,
                FailureKind::Timeout => stats.stage2_timeouts += 1,
            }
        }
        let tail = self.reconcile_tail(group.clone(), tx_hash);
        let remaining = group.start.max(tail)..group.end;
        let now = self.shared.chain.clock().now();
        if remaining.is_empty() {
            // The whole group landed after all — no retry needed.
            self.next_due = now;
            return;
        }
        self.attempt = self.attempt.saturating_add(1);
        let policy = self.shared.config.stage2_retry;
        if self.attempt >= policy.max_attempts.max(1) {
            // Retries exhausted: only now does the commitment count as
            // failed.
            self.abandoned_upto = remaining.end;
            self.shared.stats.lock().stage2_failed += remaining.end - remaining.start;
            self.attempt = 0;
            self.attempt_head = None;
            self.next_due = now;
            return;
        }
        let backoff = self.jittered(policy.backoff_for(self.attempt));
        {
            let mut stats = self.shared.stats.lock();
            stats.stage2_requeued += remaining.end - remaining.start;
            stats.record_backoff(self.attempt);
        }
        self.next_due = now.add(backoff);
    }

    /// The Root Record's current tail index (0 when unreadable).
    fn onchain_tail(&self) -> u64 {
        self.shared
            .chain
            .view(self.shared.root_record, &RootRecord::get_tail_calldata())
            .ok()
            .and_then(|out| RootRecord::decode_tail(&out))
            .unwrap_or(0)
    }

    /// Applies the policy's relative jitter to a backoff duration.
    fn jittered(&mut self, backoff: Duration) -> Duration {
        let jitter = self.shared.config.stage2_retry.jitter;
        if jitter <= 0.0 {
            return backoff;
        }
        let jitter = jitter.min(0.95);
        let factor = 1.0 + self.rng.gen_range(-jitter..=jitter);
        Duration::from_secs_f64((backoff.as_secs_f64() * factor).max(0.0))
    }
}

/// A placeholder receipt for positions that landed through a transaction
/// the committer cannot identify.
fn synthetic_receipt() -> Receipt {
    Receipt {
        tx_hash: Hash32::ZERO,
        status: wedge_chain::ExecStatus::Success,
        gas_used: Gas::ZERO,
        fee: wedge_chain::Wei::ZERO,
        block_number: 0,
        output: Vec::new(),
        logs: Vec::new(),
        contract_address: None,
    }
}

#[cfg(test)]
mod tests {
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
