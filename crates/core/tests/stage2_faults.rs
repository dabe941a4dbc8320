//! Stage-2 fault-tolerance tests: injected chain failures (dropped
//! submissions, forced reverts, hidden receipts) during sustained ingestion
//! must never silently lose a flushed commitment — every position reaches
//! `CommitPhase::BlockchainCommitted` exactly once short of retry
//! exhaustion.

use std::sync::Arc;
use std::time::Duration;

use wedge_chain::{Chain, ChainConfig, Wei};
use wedge_contracts::Punishment;
use wedge_contracts::RootRecord;
use wedge_core::{
    deploy_service, CommitPhase, NodeBehavior, NodeConfig, OffchainNode, Publisher, ServiceConfig,
    Stage2RetryPolicy, Stage2Verdict,
};
use wedge_crypto::signer::Identity;
use wedge_sim::Clock;

struct World {
    chain: Arc<Chain>,
    node: Arc<OffchainNode>,
    node_identity: Identity,
    publisher: Publisher,
    root_record: wedge_chain::Address,
    punishment: wedge_chain::Address,
    _miner: wedge_chain::MinerHandle,
    dir: std::path::PathBuf,
}

fn retry_policy() -> Stage2RetryPolicy {
    Stage2RetryPolicy {
        max_attempts: 8,
        base_backoff: Duration::from_secs(1),
        max_backoff: Duration::from_secs(15),
        jitter: 0.2,
    }
}

fn node_config(batch_size: usize) -> NodeConfig {
    NodeConfig {
        batch_size,
        batch_linger: Duration::from_millis(5),
        stage2_max_group: 4,
        stage2_retry: retry_policy(),
        ..Default::default()
    }
}

fn world(tag: &str, chain_config: ChainConfig, config: NodeConfig) -> World {
    // 2000x compression: 13 s blocks every 6.5 ms of wall time.
    let clock = Clock::compressed(2000.0);
    let chain = Chain::new(clock, chain_config);
    let node_identity = Identity::from_seed(format!("s2f-node-{tag}").as_bytes());
    let client_identity = Identity::from_seed(format!("s2f-client-{tag}").as_bytes());
    chain.fund(node_identity.address(), Wei::from_eth(1000));
    chain.fund(client_identity.address(), Wei::from_eth(1000));
    let miner = chain.start_miner();
    let deployment = deploy_service(
        &chain,
        &node_identity,
        client_identity.address(),
        &ServiceConfig {
            escrow: Wei::from_eth(32),
            payment_terms: None,
        },
    )
    .expect("deploy contracts");
    let dir = std::env::temp_dir().join(format!("wedge-s2f-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let node = Arc::new(
        OffchainNode::start(
            node_identity.clone(),
            config,
            Arc::clone(&chain),
            deployment.root_record,
            &dir,
        )
        .expect("start node"),
    );
    let publisher = Publisher::new(
        client_identity,
        Arc::clone(&node),
        Arc::clone(&chain),
        deployment.root_record,
        Some(deployment.punishment),
    );
    World {
        chain,
        node,
        node_identity,
        publisher,
        root_record: deployment.root_record,
        punishment: deployment.punishment,
        _miner: miner,
        dir,
    }
}

fn payloads(n: usize) -> Vec<Vec<u8>> {
    (0..n).map(|i| format!("entry-{i}").into_bytes()).collect()
}

fn onchain_tail(chain: &Chain, root_record: wedge_chain::Address) -> u64 {
    let out = chain
        .view(root_record, &RootRecord::get_tail_calldata())
        .expect("tail view");
    RootRecord::decode_tail(&out).expect("tail decode")
}

/// Asserts every flushed position is blockchain-committed exactly once:
/// present in the node's commit map, and covered by the on-chain tail (the
/// contract's single-write invariant rules out a second landing).
fn assert_all_committed_exactly_once(
    chain: &Chain,
    node: &OffchainNode,
    root_record: wedge_chain::Address,
) {
    let positions = node.log_positions();
    assert!(positions > 0, "test ingested nothing");
    assert_eq!(
        onchain_tail(chain, root_record),
        positions,
        "on-chain tail must cover every flushed position"
    );
    for log_id in 0..positions {
        assert_eq!(
            node.commit_phase(log_id),
            CommitPhase::BlockchainCommitted,
            "position {log_id} lost"
        );
        assert!(node.commit_info(log_id).is_some());
    }
    let stats = node.stats();
    assert_eq!(
        stats.stage2_committed, positions,
        "each position committed exactly once"
    );
    assert_eq!(stats.stage2_failed, 0, "no commitment abandoned");
}

/// The PR's acceptance scenario: N consecutive chain failures (submission
/// drops and forced reverts) during sustained ingestion. All flushed
/// positions must still land, each exactly once, with `stage2_retries > 0`
/// and `stage2_failed == 0`.
#[test]
fn consecutive_chain_failures_never_lose_commitments() {
    let mut w = world("sustained", ChainConfig::default(), node_config(10));
    // Round 1: 2 dropped submissions, then 2 forced reverts, while the
    // publisher keeps ingesting.
    w.chain.faults().drop_next_submissions(2);
    w.chain.faults().revert_next_calls(2);
    w.publisher.append_batch(payloads(40)).expect("round 1");
    // Round 2: more faults arrive mid-stream, more ingestion on top.
    w.chain.faults().drop_next_submissions(1);
    w.publisher.append_batch(payloads(30)).expect("round 2");
    w.node
        .wait_stage2_idle(Duration::from_secs(3600))
        .expect("all positions must eventually commit");
    assert_all_committed_exactly_once(&w.chain, &w.node, w.root_record);
    let stats = w.node.stats();
    assert!(
        stats.stage2_retries > 0,
        "faults fired, so retries must have happened: {stats:?}"
    );
    assert!(stats.stage2_requeued > 0);
    assert!(stats.stage2_submission_errors >= 3);
    assert!(stats.stage2_reverts >= 1);
    assert!(
        !stats.stage2_backoff_hist.is_empty() && stats.stage2_backoff_hist[0] > 0,
        "backoff histogram records first-retry waits: {:?}",
        stats.stage2_backoff_hist
    );
    // Every armed fault actually fired.
    assert_eq!(w.chain.faults().submissions_dropped(), 3);
    assert_eq!(w.chain.faults().calls_reverted(), 2);
    let _ = std::fs::remove_dir_all(&w.dir);
}

/// A receipt hidden past the patience window looks like a timeout while the
/// transaction in fact landed. The committer must reconcile against the
/// on-chain tail and skip the landed positions instead of re-sending them.
#[test]
fn timed_out_but_landed_group_is_reconciled_not_resent() {
    let chain_config = ChainConfig {
        // Short patience so the hidden receipt turns into a timeout quickly.
        receipt_timeout: Duration::from_secs(60),
        ..Default::default()
    };
    let mut w = world("timeout", chain_config, node_config(10));
    // Hide the first Update-Records receipt for 4 simulated minutes.
    w.chain
        .faults()
        .delay_next_receipts(1, Duration::from_secs(240));
    w.publisher.append_batch(payloads(10)).expect("append");
    w.node
        .wait_stage2_idle(Duration::from_secs(3600))
        .expect("the landed group must be reconciled");
    assert_all_committed_exactly_once(&w.chain, &w.node, w.root_record);
    let stats = w.node.stats();
    assert!(stats.stage2_timeouts >= 1, "{stats:?}");
    assert_eq!(
        stats.stage2_txs_submitted, 1,
        "the landed transaction must not be re-sent"
    );
    let _ = std::fs::remove_dir_all(&w.dir);
}

/// Restart recovery under faults: the node crashes between stage 1 and
/// stage 2 (modelled via the omission behaviour), restarts honest, and the
/// chain reverts its first re-submission. Every recovered position must
/// still land on-chain exactly once.
#[test]
fn restart_recovery_survives_reverted_resubmission() {
    let w = world(
        "recovery",
        ChainConfig::default(),
        NodeConfig {
            behavior: NodeBehavior::OmitStage2 { from_log: 0 },
            ..node_config(10)
        },
    );
    let World {
        chain,
        node,
        node_identity,
        publisher,
        root_record,
        _miner,
        dir,
        ..
    } = w;
    let mut publisher = publisher;
    publisher.append_batch(payloads(30)).expect("append");
    let flushed = node.log_positions();
    assert_eq!(flushed, 3);
    assert_eq!(onchain_tail(&chain, root_record), 0, "nothing committed");
    // "Crash" between stage 1 and stage 2.
    drop(node);
    drop(publisher);
    // Restart honest, with the chain reverting the first re-submission.
    chain.faults().revert_next_calls(1);
    let node = Arc::new(
        OffchainNode::start(
            node_identity.clone(),
            node_config(10),
            Arc::clone(&chain),
            root_record,
            &dir,
        )
        .expect("restart node"),
    );
    assert_eq!(node.log_positions(), flushed, "state recovered");
    node.wait_stage2_idle(Duration::from_secs(3600))
        .expect("recovered positions must commit despite the revert");
    assert_eq!(onchain_tail(&chain, root_record), flushed);
    let stats = node.stats();
    assert_eq!(stats.stage2_failed, 0);
    assert!(stats.stage2_retries >= 1, "{stats:?}");
    assert_eq!(
        stats.stage2_committed, flushed,
        "each recovered position lands exactly once"
    );
    for log_id in 0..flushed {
        assert_eq!(node.commit_phase(log_id), CommitPhase::BlockchainCommitted);
    }
    assert_eq!(chain.faults().calls_reverted(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A dishonest node stays punishable across a restart: positions flushed
/// under the omission attack and recovered by a node that commits wrong
/// roots must land on-chain with the *wrong* root — the behaviour applies
/// on the recovery path exactly as on the live one — and the publisher's
/// signed response must then win the punishment.
#[test]
fn recovered_positions_commit_the_restarted_behaviours_root() {
    let w = world(
        "wrong-root",
        ChainConfig::default(),
        NodeConfig {
            behavior: NodeBehavior::OmitStage2 { from_log: 0 },
            ..node_config(10)
        },
    );
    let World {
        chain,
        node,
        node_identity,
        publisher,
        root_record,
        punishment,
        _miner,
        dir,
        ..
    } = w;
    let mut publisher = publisher;
    let outcome = publisher.append_batch(payloads(20)).expect("append");
    let flushed = node.log_positions();
    assert_eq!(flushed, 2);
    assert_eq!(onchain_tail(&chain, root_record), 0, "nothing committed");
    drop(publisher);
    drop(node);
    let node = Arc::new(
        OffchainNode::start(
            node_identity,
            NodeConfig {
                behavior: NodeBehavior::CommitWrongRoot { from_log: 0 },
                ..node_config(10)
            },
            Arc::clone(&chain),
            root_record,
            &dir,
        )
        .expect("restart node"),
    );
    node.wait_stage2_idle(Duration::from_secs(3600))
        .expect("recovered positions must commit");
    assert_eq!(onchain_tail(&chain, root_record), flushed);
    let client = Identity::from_seed(b"s2f-client-wrong-root");
    let publisher = Publisher::new(
        client,
        Arc::clone(&node),
        Arc::clone(&chain),
        root_record,
        Some(punishment),
    );
    for response in [&outcome.responses[0], &outcome.responses[19]] {
        assert_eq!(
            publisher
                .wait_blockchain_commit(response, Duration::from_secs(600))
                .expect("verdict"),
            Stage2Verdict::Mismatch,
            "position {} must carry the wrong root",
            response.entry_id.log_id
        );
    }
    let receipt = publisher
        .punish(&outcome.responses[0])
        .expect("punish call");
    assert!(receipt.status.is_success());
    assert_eq!(
        Punishment::decode_invoke_result(&receipt.output),
        Some(true),
        "the restarted node's equivocation must be punishable"
    );
    assert_eq!(chain.balance(punishment), Wei::ZERO, "escrow paid out");
    drop(publisher);
    drop(node);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `stage2_failed` now means "retries exhausted", not "first attempt
/// unlucky": only a fault burst longer than the whole retry budget loses
/// the group, and the loss is visible in the stats.
#[test]
fn exhausted_retries_are_counted_as_failed() {
    let config = NodeConfig {
        stage2_retry: Stage2RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(500),
            max_backoff: Duration::from_secs(2),
            jitter: 0.0,
        },
        ..node_config(10)
    };
    let mut w = world("exhaust", ChainConfig::default(), config);
    // More drops than the retry budget can absorb.
    w.chain.faults().drop_next_submissions(1_000);
    w.publisher.append_batch(payloads(10)).expect("append");
    assert!(
        w.node.wait_stage2_idle(Duration::from_secs(300)).is_err(),
        "the position can never commit"
    );
    // Give the committer time to burn through its attempts.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    while w.node.stats().stage2_failed == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let stats = w.node.stats();
    assert_eq!(stats.stage2_failed, 1, "{stats:?}");
    assert_eq!(stats.stage2_committed, 0);
    assert_eq!(
        stats.stage2_retries, 2,
        "3 attempts = 1 initial + 2 retries: {stats:?}"
    );
    w.chain.faults().clear();
    let _ = std::fs::remove_dir_all(&w.dir);
}
