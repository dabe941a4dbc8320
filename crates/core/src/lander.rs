//! Landing one write on a sequential single-write contract, exactly once.
//!
//! The Root Record (stage 2, paper §4.3) and the cluster's `ClusterRoot`
//! share one shape: writes land strictly in index order, each index at
//! most once, and a view returns the tail — the next index to write. LMT's
//! safety needs every write to reach such a contract exactly once even when
//! the chain drops, reverts or delays transactions (§4.7), so a failed
//! attempt is never dropped on first contact. A [`Lander`] drives one write
//! at a time:
//!
//! 1. it submits the write and waits for the confirmed receipt;
//! 2. on failure it **classifies** the attempt ([`Failure`]);
//! 3. it **reconciles** against the contract's tail: a timed-out or
//!    reverted attempt may sit behind an earlier attempt of the same write
//!    that did land, and the positions below the tail are reported landed
//!    rather than re-sent (the single-write rule would revert a duplicate
//!    anyway). The landing receipt is the successful one among *every*
//!    attempt sent for the write — never merely the latest attempt, which
//!    may have reverted;
//! 4. it schedules a retry with seeded, jittered exponential backoff
//!    ([`Stage2RetryPolicy`]), and gives the write up only once
//!    `max_attempts` consecutive attempts at its start failed.
//!
//! A fault-free write costs one submission and one receipt wait, and no
//! tail view.

use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use wedge_chain::{Address, Chain, ChainError, Gas, Receipt, TxHash, Wei};
use wedge_crypto::signer::Identity;

use crate::config::Stage2RetryPolicy;

/// How one attempt failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Failure {
    /// The transaction never reached the mempool (also any chain error
    /// other than a revert or a receipt timeout).
    Submission,
    /// The transaction was mined but reverted.
    Revert,
    /// No confirmed receipt within the chain's patience window: the
    /// transaction may or may not have landed.
    Timeout,
}

/// What becomes of a write's positions the attempt did not land.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Next {
    /// None are left: the whole write is on chain.
    Done,
    /// Retry them after `backoff`; `attempt` attempts at this start have
    /// failed so far.
    Retry {
        /// Failed attempts at the write's start (1-based).
        attempt: u32,
        /// Jittered delay before the next attempt.
        backoff: Duration,
    },
    /// The attempt budget is spent: the caller gives them up.
    Abandon,
}

/// The outcome of one [`Lander::land`] attempt.
#[derive(Clone, Debug)]
pub struct Landing {
    /// Whether an earlier attempt at the same start had failed.
    pub retry: bool,
    /// How the attempt failed; `None` when its own transaction landed.
    pub failure: Option<Failure>,
    /// The write's positions now on chain (a prefix of the write; empty
    /// when none landed).
    pub landed: Range<u64>,
    /// The successful receipt among every attempt sent for this write;
    /// `None` when nothing landed, or when the positions landed through a
    /// transaction this lander did not send (one from before a restart).
    pub receipt: Option<Receipt>,
    /// What becomes of the rest.
    pub next: Next,
}

/// Lands writes on one sequential single-write contract (see the module
/// docs).
pub struct Lander {
    chain: Arc<Chain>,
    identity: Identity,
    contract: Address,
    tail_calldata: Vec<u8>,
    decode_tail: fn(&[u8]) -> Option<u64>,
    policy: Stage2RetryPolicy,
    rng: SmallRng,
    /// The write start the attempt budget and `sent` belong to.
    start: Option<u64>,
    /// Failed attempts at `start`.
    failed: u32,
    /// Every transaction that reached the mempool for the write at `start`.
    sent: Vec<TxHash>,
}

impl Lander {
    /// A lander writing to `contract` as `identity`. The contract's tail
    /// is read with the view `tail_calldata` and `decode_tail`; `seed`
    /// fixes the backoff jitter sequence.
    pub fn new(
        chain: Arc<Chain>,
        identity: Identity,
        contract: Address,
        tail_calldata: Vec<u8>,
        decode_tail: fn(&[u8]) -> Option<u64>,
        policy: Stage2RetryPolicy,
        seed: u64,
    ) -> Lander {
        Lander {
            chain,
            identity,
            contract,
            tail_calldata,
            decode_tail,
            policy,
            rng: SmallRng::seed_from_u64(seed),
            start: None,
            failed: 0,
            sent: Vec::new(),
        }
    }

    /// The contract's tail, `None` when unreadable.
    pub fn tail(&self) -> Option<u64> {
        let out = self.chain.view(self.contract, &self.tail_calldata).ok()?;
        (self.decode_tail)(&out)
    }

    /// Makes one attempt to land the write covering contract positions
    /// `write` (non-empty; `calldata` writes exactly them at
    /// `write.start`). The caller acts on [`Landing::next`], and re-forms
    /// the write from its own state before the next attempt: once the tail
    /// moves past `write.start` the next write starts with a fresh budget.
    pub fn land(&mut self, write: Range<u64>, calldata: Vec<u8>, gas_limit: Gas) -> Landing {
        if self.start != Some(write.start) {
            self.start = Some(write.start);
            self.failed = 0;
            self.sent.clear();
        }
        let retry = self.failed > 0;
        let key = self.identity.secret_key();
        let outcome = self
            .chain
            .call_contract(key, self.contract, Wei::ZERO, calldata, gas_limit)
            .and_then(|hash| {
                self.sent.push(hash);
                self.chain.wait_for_receipt(hash)
            });
        let failure = match &outcome {
            Ok(receipt) if receipt.status.is_success() => None,
            Ok(_) => Some(Failure::Revert),
            Err(ChainError::ReceiptTimeout(_)) => Some(Failure::Timeout),
            Err(_) => Some(Failure::Submission),
        };
        // Reconcile a failed attempt: positions below the tail landed,
        // through this attempt or an earlier one of the same write.
        let landed = match failure {
            None => write.clone(),
            Some(_) => write.start..self.tail().unwrap_or(0).clamp(write.start, write.end),
        };
        let receipt = match outcome {
            Ok(receipt) if failure.is_none() => Some(receipt),
            _ if landed.is_empty() => None,
            _ => self
                .sent
                .iter()
                .filter_map(|hash| self.chain.receipt(*hash))
                .find(|receipt| receipt.status.is_success()),
        };
        let next = if landed.end == write.end {
            Next::Done
        } else {
            self.failed = self.failed.saturating_add(1);
            if self.failed >= self.policy.max_attempts.max(1) {
                // Abandonment ends the write: a later attempt at the same
                // start gets a fresh budget.
                self.start = None;
                Next::Abandon
            } else {
                Next::Retry {
                    attempt: self.failed,
                    backoff: self.jittered(self.policy.backoff_for(self.failed)),
                }
            }
        };
        Landing {
            retry,
            failure,
            landed,
            receipt,
            next,
        }
    }

    /// Applies the policy's relative jitter to a backoff duration.
    fn jittered(&mut self, backoff: Duration) -> Duration {
        let jitter = self.policy.jitter;
        if jitter <= 0.0 {
            return backoff;
        }
        let jitter = jitter.min(0.95);
        let factor = 1.0 + self.rng.gen_range(-jitter..=jitter);
        Duration::from_secs_f64((backoff.as_secs_f64() * factor).max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::thread::{self, JoinHandle};

    use parking_lot::Mutex;
    use wedge_chain::ChainConfig;
    use wedge_contracts::{ClusterRoot, RootRecord};
    use wedge_crypto::hash::Hash32;
    use wedge_sim::Clock;

    use super::*;

    const GAS: Gas = Gas(500_000);
    /// Simulated receipt patience; 300 ms of wall time at 2000×.
    const TIMEOUT: Duration = Duration::from_secs(600);

    /// The two sequential single-write contracts.
    #[derive(Clone, Copy, Debug)]
    enum Kind {
        RootRecord,
        ClusterRoot,
    }

    const KINDS: [Kind; 2] = [Kind::RootRecord, Kind::ClusterRoot];

    /// A chain with one deployed contract of `kind`. While `mining` is set
    /// a helper thread mines every pending transaction at once
    /// (confirmations 0), so a receipt wait succeeds unless a fault hides
    /// it; clearing `mining` makes the next attempt time out unmined.
    struct World {
        chain: Arc<Chain>,
        identity: Identity,
        contract: Address,
        kind: Kind,
        /// Held by the helper while it mines, so once a test has cleared
        /// it no block is mined until it is set again.
        mining: Arc<Mutex<bool>>,
        stop: Arc<AtomicBool>,
        miner: Option<JoinHandle<()>>,
    }

    impl World {
        fn new(kind: Kind) -> World {
            let chain = Chain::new(
                Clock::compressed(2000.0),
                ChainConfig {
                    confirmations: 0,
                    receipt_poll: Duration::from_secs(1),
                    receipt_timeout: TIMEOUT,
                    ..ChainConfig::default()
                },
            );
            let identity = Identity::from_seed(format!("lander-{kind:?}").as_bytes());
            chain.fund(identity.address(), Wei::from_eth(1_000));
            let (contract, code_len): (Box<dyn wedge_chain::Contract>, usize) = match kind {
                Kind::RootRecord => (
                    Box::new(RootRecord::new(identity.address())),
                    RootRecord::CODE_LEN,
                ),
                Kind::ClusterRoot => (
                    Box::new(ClusterRoot::new(identity.address())),
                    ClusterRoot::CODE_LEN,
                ),
            };
            let (contract, _) = chain
                .deploy(identity.secret_key(), contract, Wei::ZERO, code_len)
                .unwrap();
            chain.mine_block();
            let mining = Arc::new(Mutex::new(true));
            let stop = Arc::new(AtomicBool::new(false));
            let miner = {
                let (chain, mining, stop) = (Arc::clone(&chain), mining.clone(), stop.clone());
                thread::spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        let on = mining.lock();
                        if *on && chain.pending_count() > 0 {
                            chain.mine_block();
                        }
                        drop(on);
                        thread::sleep(Duration::from_micros(200));
                    }
                })
            };
            World {
                chain,
                identity,
                contract,
                kind,
                mining,
                stop,
                miner: Some(miner),
            }
        }

        fn lander(&self, policy: Stage2RetryPolicy, seed: u64) -> Lander {
            let (chain, identity) = (Arc::clone(&self.chain), self.identity.clone());
            match self.kind {
                Kind::RootRecord => Lander::new(
                    chain,
                    identity,
                    self.contract,
                    RootRecord::get_tail_calldata(),
                    RootRecord::decode_tail,
                    policy,
                    seed,
                ),
                Kind::ClusterRoot => Lander::new(
                    chain,
                    identity,
                    self.contract,
                    ClusterRoot::get_tail_epoch_calldata(),
                    ClusterRoot::decode_u64,
                    policy,
                    seed,
                ),
            }
        }

        /// Calldata writing `write` (one root per position; the Cluster
        /// Root takes one epoch per write).
        fn calldata(&self, write: Range<u64>) -> Vec<u8> {
            let roots: Vec<Hash32> = write
                .clone()
                .map(|i| Hash32::keccak(&i.to_be_bytes()))
                .collect();
            match self.kind {
                Kind::RootRecord => RootRecord::update_records_calldata(write.start, &roots),
                Kind::ClusterRoot => ClusterRoot::commit_epoch_calldata(write.start, &roots),
            }
        }

        fn land(&self, lander: &mut Lander, write: Range<u64>) -> Landing {
            lander.land(write.clone(), self.calldata(write), GAS)
        }

        /// Transactions our identity has sent (deploy included).
        fn sent(&self) -> u64 {
            self.chain.next_nonce(self.identity.address())
        }

        /// The one receipt in the newest block.
        fn newest_receipt(&self) -> Receipt {
            let mut receipts = self.chain.block_receipts(self.chain.block_number());
            assert_eq!(receipts.len(), 1);
            receipts.remove(0)
        }
    }

    impl Drop for World {
        fn drop(&mut self) {
            self.stop.store(true, Ordering::Release);
            if let Some(miner) = self.miner.take() {
                let _ = miner.join();
            }
        }
    }

    fn policy(max_attempts: u32) -> Stage2RetryPolicy {
        Stage2RetryPolicy {
            max_attempts,
            base_backoff: Duration::from_secs(2),
            max_backoff: Duration::from_secs(60),
            jitter: 0.2,
        }
    }

    #[test]
    fn dropped_submission_is_classified_and_retried() {
        for kind in KINDS {
            let w = World::new(kind);
            let mut lander = w.lander(policy(8), 1);
            w.chain.faults().drop_next_submissions(1);
            let first = w.land(&mut lander, 0..1);
            assert!(!first.retry);
            assert_eq!(first.failure, Some(Failure::Submission), "{kind:?}");
            assert!(first.landed.is_empty() && first.receipt.is_none());
            assert!(matches!(first.next, Next::Retry { attempt: 1, .. }));

            let second = w.land(&mut lander, 0..1);
            assert!(second.retry);
            assert_eq!(second.failure, None, "{kind:?}");
            assert_eq!(second.landed, 0..1);
            assert_eq!(second.next, Next::Done);
            assert!(second.receipt.expect("landing receipt").status.is_success());
            assert_eq!(lander.tail(), Some(1));
            assert_eq!(w.chain.faults().submissions_dropped(), 1);
        }
    }

    #[test]
    fn revert_after_our_own_landing_is_reconciled_not_resent() {
        for kind in KINDS {
            let w = World::new(kind);
            let mut lander = w.lander(policy(8), 1);
            // Attempt 1 times out before it is mined...
            *w.mining.lock() = false;
            let first = w.land(&mut lander, 0..1);
            assert_eq!(first.failure, Some(Failure::Timeout), "{kind:?}");
            assert!(first.landed.is_empty());
            assert!(matches!(first.next, Next::Retry { attempt: 1, .. }));
            // ...then lands, and the retry is forced to revert.
            w.chain.mine_block();
            let landed_by = w.newest_receipt();
            assert!(landed_by.status.is_success());
            w.chain.faults().revert_next_calls(1);
            *w.mining.lock() = true;
            let sent = w.sent();

            let second = w.land(&mut lander, 0..1);
            assert_eq!(second.failure, Some(Failure::Revert), "{kind:?}");
            assert_eq!(w.chain.faults().calls_reverted(), 1);
            assert_eq!(second.landed, 0..1);
            assert_eq!(second.next, Next::Done, "landed: nothing to re-send");
            let receipt = second.receipt.expect("attempt 1's receipt");
            assert_eq!(receipt.tx_hash, landed_by.tx_hash, "never the revert");
            assert_eq!(w.sent(), sent + 1, "only the reverted retry was sent");
        }
    }

    #[test]
    fn hidden_receipt_past_the_timeout_is_reconciled() {
        for kind in KINDS {
            let w = World::new(kind);
            let mut lander = w.lander(policy(8), 1);
            w.chain.faults().delay_next_receipts(1, TIMEOUT * 2);
            let sent = w.sent();
            let landing = w.land(&mut lander, 0..1);
            assert_eq!(w.chain.faults().receipts_delayed(), 1);
            assert_eq!(landing.failure, Some(Failure::Timeout), "{kind:?}");
            assert_eq!(landing.landed, 0..1);
            assert_eq!(landing.next, Next::Done);
            let receipt = landing.receipt.expect("the hidden receipt");
            assert_eq!(receipt.tx_hash, w.newest_receipt().tx_hash);
            assert_eq!(w.sent(), sent + 1, "not re-sent");
        }
    }

    #[test]
    fn max_attempts_exhaust_into_abandoned() {
        for kind in KINDS {
            let w = World::new(kind);
            let mut lander = w.lander(policy(3), 1);
            w.chain.faults().drop_next_submissions(1_000);
            let outcomes: Vec<Next> = (0..3).map(|_| w.land(&mut lander, 0..1).next).collect();
            assert!(matches!(outcomes[0], Next::Retry { attempt: 1, .. }));
            assert!(matches!(outcomes[1], Next::Retry { attempt: 2, .. }));
            assert_eq!(outcomes[2], Next::Abandon, "{kind:?}");
            // Abandonment ends the write: the same start later gets a
            // fresh budget.
            w.chain.faults().clear();
            let again = w.land(&mut lander, 0..1);
            assert!(!again.retry);
            assert_eq!(again.next, Next::Done);
        }
    }

    #[test]
    fn budget_resets_when_the_start_moves_forward() {
        let w = World::new(Kind::RootRecord);
        let mut lander = w.lander(policy(8), 1);
        w.chain.faults().drop_next_submissions(1);
        assert!(matches!(
            w.land(&mut lander, 0..2).next,
            Next::Retry { attempt: 1, .. }
        ));
        assert_eq!(w.land(&mut lander, 0..2).next, Next::Done);

        // A group that grew between attempts lands partially: its first
        // attempt (2..3) is mined late, the regrown retry (2..5) reverts.
        *w.mining.lock() = false;
        let first = w.land(&mut lander, 2..3);
        assert!(!first.retry, "a new start begins a fresh budget");
        assert!(matches!(first.next, Next::Retry { attempt: 1, .. }));
        w.chain.mine_block();
        let landed_by = w.newest_receipt();
        *w.mining.lock() = true;
        let regrown = w.land(&mut lander, 2..5);
        assert_eq!(regrown.failure, Some(Failure::Revert));
        assert_eq!(regrown.landed, 2..3);
        assert_eq!(regrown.receipt.map(|r| r.tx_hash), Some(landed_by.tx_hash));
        assert!(matches!(regrown.next, Next::Retry { attempt: 2, .. }));

        // The start moved to 3: a fresh budget again.
        w.chain.faults().drop_next_submissions(1);
        let moved = w.land(&mut lander, 3..5);
        assert!(!moved.retry);
        assert!(matches!(moved.next, Next::Retry { attempt: 1, .. }));
        assert_eq!(w.land(&mut lander, 3..5).next, Next::Done);
        assert_eq!(lander.tail(), Some(5));
    }

    #[test]
    fn same_seed_gives_the_same_backoff_sequence() {
        let backoffs = |seed: u64| -> Vec<Duration> {
            let w = World::new(Kind::ClusterRoot);
            let mut lander = w.lander(policy(8), seed);
            w.chain.faults().drop_next_submissions(1_000);
            (0..7)
                .map(|_| match w.land(&mut lander, 0..1).next {
                    Next::Retry { backoff, .. } => backoff,
                    other => panic!("expected a retry, got {other:?}"),
                })
                .collect()
        };
        let run = backoffs(7);
        assert_eq!(run, backoffs(7), "same seed, same sequence");
        assert_ne!(run, backoffs(8), "the seed drives the jitter");
        for (i, backoff) in run.iter().enumerate() {
            let base = policy(8).backoff_for(i as u32 + 1).as_secs_f64();
            let ratio = backoff.as_secs_f64() / base;
            assert!((0.8..=1.2).contains(&ratio), "attempt {}: {ratio}", i + 1);
        }
    }
}
