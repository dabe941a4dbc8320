//! The stage-2 committer (paper §4.3, blockchain commitment), rebuilt as a
//! fault-tolerant retry subsystem.
//!
//! Runs lazily in the background: drains `(log_id, MRoot)` pairs from the
//! batcher into an ordered backlog, groups contiguous runs into a single
//! `Update-Records` transaction (amortizing the 21k base cost — the
//! minimum-writing lever of Figure 3 right), submits, and waits for the
//! confirmed receipt before recording the position as blockchain-committed.
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
//!    invariant would reject a duplicate anyway);
//! 3. **re-queues** what remains with bounded exponential backoff + jitter
//!    (see [`crate::config::Stage2RetryPolicy`]);
//! 4. abandons a group — counting `stage2_failed` — only once
//!    `max_attempts` consecutive attempts failed: `stage2_failed` means
//!    "retries exhausted", not "first attempt unlucky".

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{Receiver, TryRecvError};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use wedge_chain::{ChainError, Gas, Receipt, TxHash};
use wedge_contracts::RootRecord;
use wedge_crypto::hash::Hash32;
use wedge_sim::SimInstant;

use super::state::CommitInfo;
use super::Shared;

/// One batch's pending stage-2 commitment.
pub(crate) struct Stage2Task {
    pub log_id: u64,
    pub root: Hash32,
    pub stage1_done: SimInstant,
}

/// The root a (possibly malicious) node will blockchain-commit for
/// `log_id`, given the honest root. Shared by the live batcher and the
/// restart-recovery path so a configured behaviour survives restarts.
pub(crate) fn stage2_root_for(
    behavior: crate::config::NodeBehavior,
    log_id: u64,
    honest_root: Hash32,
) -> Option<Hash32> {
    use crate::config::NodeBehavior;
    match behavior {
        NodeBehavior::OmitStage2 { .. } if behavior.affects(log_id) => None,
        NodeBehavior::CommitWrongRoot { .. } if behavior.affects(log_id) => Some(Hash32::keccak(
            &[honest_root.as_bytes().as_slice(), b"equivocation"].concat(),
        )),
        _ => Some(honest_root),
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

/// The contiguous run of log ids at the head of the backlog, capped at
/// `max_group`. Positions beyond a gap are deferred to a later group: the
/// Root Record writes strictly sequentially, so committing them under
/// `update_records_calldata(start_idx, …)` would bind their roots to the
/// wrong on-chain indices.
fn contiguous_head(pending: &BTreeMap<u64, Stage2Task>, max_group: usize) -> Vec<u64> {
    let mut ids = Vec::new();
    for (&id, _) in pending.iter().take(max_group.max(1)) {
        match ids.last() {
            Some(&last) if id != last + 1 => break,
            _ => ids.push(id),
        }
    }
    ids
}

/// The committer's mutable state: the ordered backlog plus the retry
/// schedule for its head group.
struct Committer<'a> {
    shared: &'a Shared,
    /// Flushed-but-uncommitted positions, ordered by log id.
    pending: BTreeMap<u64, Stage2Task>,
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

/// Committer main loop: exits when the batcher hangs up, the queue is
/// drained, and every backlog entry is committed or exhausted.
pub(crate) fn run(shared: Arc<Shared>, rx: Receiver<Stage2Task>) {
    let mut c = Committer {
        shared: &shared,
        pending: BTreeMap::new(),
        attempt: 0,
        attempt_head: None,
        next_due: shared.chain.clock().now(),
        rng: SmallRng::seed_from_u64(0x5354_4147_4532_5254), // "STAGE2RT"
    };
    let mut rx_open = true;
    loop {
        if c.pending.is_empty() {
            if !rx_open {
                break;
            }
            // Idle: block until the batcher hands over work or hangs up.
            match rx.recv() {
                Ok(task) => {
                    c.pending.insert(task.log_id, task);
                }
                Err(_) => break,
            }
        }
        // Opportunistically drain whatever else is queued.
        rx_open = drain(&rx, &mut c.pending, rx_open);
        // Honour the backoff deadline, still accepting new work meanwhile.
        loop {
            let now = shared.chain.clock().now();
            if now >= c.next_due {
                break;
            }
            let quantum = c.next_due.since(now).min(Duration::from_millis(100));
            shared.chain.clock().sleep(quantum);
            rx_open = drain(&rx, &mut c.pending, rx_open);
        }
        c.attempt_head_group();
    }
}

/// Drains every queued task without blocking; returns whether the channel
/// is still open.
fn drain(rx: &Receiver<Stage2Task>, pending: &mut BTreeMap<u64, Stage2Task>, open: bool) -> bool {
    if !open {
        return false;
    }
    loop {
        match rx.try_recv() {
            Ok(task) => {
                pending.insert(task.log_id, task);
            }
            Err(TryRecvError::Empty) => return true,
            Err(TryRecvError::Disconnected) => return false,
        }
    }
}

impl Committer<'_> {
    /// Submits one `Update-Records` transaction for the head group and
    /// handles the outcome.
    fn attempt_head_group(&mut self) {
        let group = contiguous_head(&self.pending, self.shared.config.stage2_max_group);
        let Some(&start_idx) = group.first() else {
            return;
        };
        // Progress at the head (including partial progress from a
        // reconciled timeout) starts a fresh attempt budget.
        if self.attempt_head != Some(start_idx) {
            self.attempt = 0;
            self.attempt_head = Some(start_idx);
        }
        let roots: Vec<Hash32> = group
            .iter()
            .filter_map(|id| self.pending.get(id).map(|t| t.root))
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
                    self.commit_group(&group, &receipt, true);
                    self.next_due = self.shared.chain.clock().now();
                    return;
                }
                Ok(_) => (FailureKind::Revert, Some(hash)),
                Err(ChainError::ReceiptTimeout(_)) => (FailureKind::Timeout, Some(hash)),
                Err(_) => (FailureKind::Submission, Some(hash)),
            },
        };
        self.handle_failure(&group, failure.0, failure.1);
    }

    /// Marks every position of `group` blockchain-committed under
    /// `receipt`, removing it from the backlog. `charge` controls whether
    /// the receipt's gas/fee are added to the stats (false when the same
    /// receipt was already charged by an earlier reconciliation).
    fn commit_group(&mut self, group: &[u64], receipt: &Receipt, charge: bool) {
        let committed_at = self.shared.chain.clock().now();
        let tasks: Vec<Stage2Task> = group
            .iter()
            .filter_map(|id| self.pending.remove(id))
            .collect();
        // One write-plane mutation (and one published snapshot) for the
        // whole group.
        self.shared.mutate(|plane| {
            for task in &tasks {
                plane.commits.insert(
                    task.log_id,
                    CommitInfo {
                        tx_hash: receipt.tx_hash,
                        block_number: receipt.block_number,
                        stage2_latency: committed_at.since(task.stage1_done),
                    },
                );
            }
        });
        {
            let mut stats = self.shared.stats.lock();
            stats.stage2_committed += tasks.len() as u64;
            if charge {
                stats.stage2_gas = stats.stage2_gas.saturating_add(receipt.gas_used);
                stats.stage2_fees = stats.stage2_fees.saturating_add(receipt.fee);
            }
            for task in &tasks {
                stats.record_stage2_latency(committed_at.since(task.stage1_done));
            }
        }
        self.shared
            .maintenance
            .lock()
            .after_group_commit(self.shared);
    }

    /// Classifies a failed attempt, reconciles against the on-chain tail
    /// (a timed-out transaction may have landed), and either re-queues the
    /// remainder with backoff or — after `max_attempts` — abandons it.
    fn handle_failure(&mut self, group: &[u64], kind: FailureKind, tx_hash: Option<TxHash>) {
        {
            let mut stats = self.shared.stats.lock();
            match kind {
                FailureKind::Submission => stats.stage2_submission_errors += 1,
                FailureKind::Revert => stats.stage2_reverts += 1,
                FailureKind::Timeout => stats.stage2_timeouts += 1,
            }
        }
        // Partial progress: positions below the contract's tail already
        // landed (e.g. via a timed-out-but-mined transaction, or a
        // pre-restart one) — split them off instead of re-sending.
        let tail = self.onchain_tail();
        let landed: Vec<u64> = group.iter().copied().filter(|id| *id < tail).collect();
        if !landed.is_empty() {
            // Recover the landing receipt when we know the transaction;
            // its gas/fee were genuinely paid and belong in the stats.
            let receipt = tx_hash
                .and_then(|h| self.shared.chain.receipt(h))
                .filter(|r| r.status.is_success());
            match receipt {
                Some(receipt) => self.commit_group(&landed, &receipt, true),
                None => {
                    // Landed through a transaction we cannot identify
                    // (pre-restart, or a competing submission): record the
                    // commitment without per-tx provenance.
                    let synthetic = synthetic_receipt();
                    self.commit_group(&landed, &synthetic, false);
                }
            }
        }
        let remaining: Vec<u64> = group.iter().copied().filter(|id| *id >= tail).collect();
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
            for id in &remaining {
                self.pending.remove(id);
            }
            self.shared.stats.lock().stage2_failed += remaining.len() as u64;
            self.attempt = 0;
            self.attempt_head = None;
            self.next_due = now;
            return;
        }
        let backoff = self.jittered(policy.backoff_for(self.attempt));
        {
            let mut stats = self.shared.stats.lock();
            stats.stage2_requeued += remaining.len() as u64;
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
/// the committer cannot identify (mirrors the restart-recovery path).
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

    fn task(log_id: u64) -> Stage2Task {
        Stage2Task {
            log_id,
            root: Hash32([log_id as u8; 32]),
            stage1_done: SimInstant::EPOCH,
        }
    }

    fn backlog(ids: &[u64]) -> BTreeMap<u64, Stage2Task> {
        ids.iter().map(|&id| (id, task(id))).collect()
    }

    #[test]
    fn head_group_is_contiguous_run() {
        assert_eq!(contiguous_head(&backlog(&[3, 4, 5]), 16), vec![3, 4, 5]);
        assert_eq!(contiguous_head(&backlog(&[3, 4, 5]), 2), vec![3, 4]);
        assert_eq!(contiguous_head(&BTreeMap::new(), 16), Vec::<u64>::new());
    }

    /// Regression (PR 2 satellite): a non-contiguous task must be deferred
    /// to a later group — the old committer pushed it into the group
    /// *before* checking contiguity, binding its root to the wrong
    /// on-chain index inside `update_records_calldata(start_idx, …)`.
    #[test]
    fn non_contiguous_task_deferred_to_next_group() {
        let group = contiguous_head(&backlog(&[0, 1, 5]), 16);
        assert_eq!(group, vec![0, 1], "5 must wait for 2..=4");
        let group = contiguous_head(&backlog(&[7, 9]), 16);
        assert_eq!(group, vec![7], "9 never shares 7's start_idx");
    }
}
