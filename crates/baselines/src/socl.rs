//! SOCL: synchronous off-chain logging (paper's BPAL-style baseline).
//!
//! The architecture is WedgeBlock's — raw entries off-chain, digests in the
//! Root Record contract — but without lazy trust: a client considers nothing
//! committed until the digest is on-chain. Cost therefore matches
//! WedgeBlock's; latency matches the chain's.

use std::sync::Arc;
use std::time::Duration;

use wedge_chain::{Address, Chain};
use wedge_core::{CoreError, OffchainNode, Publisher, Stage2Verdict};
use wedge_crypto::signer::Identity;

use crate::CommitCosts;

/// Result of a SOCL commit run.
#[derive(Clone, Debug)]
pub struct SoclOutcome {
    /// Cost summary (stage-2 fees of the underlying node).
    pub costs: CommitCosts,
    /// Simulated time from submission until every digest confirmed — the
    /// client-visible commit latency under synchronous trust.
    pub commit_latency: Duration,
    /// Wall time of the off-chain (stage-1) part, for reference.
    pub stage1_wall: Duration,
}

impl SoclOutcome {
    /// Committed throughput in MB per (simulated) second.
    pub fn throughput_mb_s(&self) -> f64 {
        if self.commit_latency.is_zero() {
            return 0.0;
        }
        self.costs.bytes as f64 / 1e6 / self.commit_latency.as_secs_f64()
    }
}

/// The SOCL system: an Offchain Node plus a publisher that refuses lazy
/// trust.
pub struct SoclSystem {
    #[allow(dead_code)]
    chain: Arc<Chain>,
    node: Arc<OffchainNode>,
    publisher: Publisher,
}

impl SoclSystem {
    /// Wraps an existing node deployment in synchronous-trust clothing.
    pub fn new(
        chain: Arc<Chain>,
        node: Arc<OffchainNode>,
        client: Identity,
        root_record: Address,
    ) -> SoclSystem {
        let publisher = Publisher::new(
            client,
            Arc::clone(&node),
            Arc::clone(&chain),
            root_record,
            None,
        );
        SoclSystem {
            chain,
            node,
            publisher,
        }
    }

    /// Appends `payloads` and blocks until every log position they landed in
    /// is blockchain-committed (the SOCL trust criterion).
    ///
    /// Commit latency composes the two time domains explicitly: the real
    /// wall time of the off-chain stage-1 work plus the node's measured
    /// per-batch stage-2 latency in *simulated* seconds (flush →
    /// confirmation). On a compressed clock the chain overlaps real compute
    /// almost entirely, so reading one clock across both phases would
    /// under-report the wait a real SOCL client experiences.
    pub fn append_and_commit(&mut self, payloads: Vec<Vec<u8>>) -> Result<SoclOutcome, CoreError> {
        let before = self.node.stats();
        let bytes: u64 = payloads.iter().map(|p| p.len() as u64).sum();
        let operations = payloads.len() as u64;
        let outcome = self.publisher.append_batch(payloads)?;
        let stage1_wall = outcome.stage1_commit;
        // Synchronous trust: wait for the *last* entry's digest (and verify
        // one response per distinct log position).
        let mut last_verdict = Stage2Verdict::NotYet;
        if let Some(last) = outcome.responses.last() {
            last_verdict = self
                .publisher
                .wait_blockchain_commit(last, Duration::from_secs(3600))?;
        }
        if last_verdict != Stage2Verdict::Committed {
            return Err(CoreError::NotYetBlockchainCommitted {
                log_id: outcome
                    .responses
                    .last()
                    .map(|r| r.entry_id.log_id)
                    .unwrap_or(0),
            });
        }
        for response in &outcome.responses {
            if self.publisher.verify_blockchain_commit(response)? != Stage2Verdict::Committed {
                // Earlier positions commit before later ones; by the time the
                // last is committed all must be. A miss here is a real error.
                return Err(CoreError::NotYetBlockchainCommitted {
                    log_id: response.entry_id.log_id,
                });
            }
        }
        // The view check above can race the node's own receipt bookkeeping;
        // settle the committer before reading its latency samples.
        self.node.wait_stage2_idle(Duration::from_secs(3600))?;
        let stats = self.node.stats();
        // Mean flush→confirmation latency of the batches this run created.
        let stage2_mean = stats.mean_stage2_latency_since(&before).unwrap_or_default();
        Ok(SoclOutcome {
            costs: CommitCosts {
                bytes,
                operations,
                fees: stats.stage2_fees.saturating_sub(before.stage2_fees),
            },
            commit_latency: stage1_wall + stage2_mean,
            stage1_wall,
        })
    }
}
