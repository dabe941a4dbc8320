//! Node-level coverage for the fsync group-commit + overlapped-replication
//! persist stage: a node — the default one included — must retain every
//! replied-to entry across a restart, and the pipeline counters
//! (`fsyncs_coalesced`, `replication_overlap_ns`, `merkle_par_chunks`) must
//! be observable through `NodeStats`.

use std::sync::Arc;
use std::time::Duration;

use wedge_chain::{Chain, ChainConfig, Wei};
use wedge_core::{deploy_service, NodeConfig, NodeStats, OffchainNode, Publisher, ServiceConfig};
use wedge_crypto::signer::Identity;
use wedge_merkle::PARALLEL_CUTOFF;
use wedge_sim::Clock;
use wedge_storage::{StoreConfig, SyncPolicy};

fn group_commit_config(batch_size: usize) -> NodeConfig {
    NodeConfig {
        batch_size,
        batch_linger: Duration::from_millis(5),
        // Keep the collect stage cheap so the persist stage can run ahead
        // and actually accumulate a group (with verification on, collect is
        // the pipeline bottleneck and batches arrive one at a time).
        verify_requests: false,
        replicas: 2,
        replica_link_delay: Duration::from_micros(100),
        store: StoreConfig {
            sync: SyncPolicy::GroupCommit {
                max_batches: 4,
                // Generous delay budget: the covering sync should come from
                // the max_batches threshold, not per-batch deadline syncs.
                max_delay: Duration::from_millis(50),
            },
            ..Default::default()
        },
        ..Default::default()
    }
}

struct World {
    chain: Arc<Chain>,
    node_identity: Identity,
    client_identity: Identity,
    root_record: wedge_chain::Address,
    _miner: wedge_chain::MinerHandle,
    dir: std::path::PathBuf,
}

fn world(tag: &str) -> World {
    let clock = Clock::compressed(2000.0);
    let chain = Chain::new(clock, ChainConfig::default());
    let node_identity = Identity::from_seed(format!("gc-node-{tag}").as_bytes());
    let client_identity = Identity::from_seed(format!("gc-client-{tag}").as_bytes());
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
    let dir = std::env::temp_dir().join(format!("wedge-gc-node-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    World {
        chain,
        node_identity,
        client_identity,
        root_record: deployment.root_record,
        _miner: miner,
        dir,
    }
}

fn start_node(w: &World, config: NodeConfig) -> Arc<OffchainNode> {
    Arc::new(
        OffchainNode::start(
            w.node_identity.clone(),
            config,
            Arc::clone(&w.chain),
            w.root_record,
            &w.dir,
        )
        .expect("start node"),
    )
}

fn payloads(n: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| format!("gc-entry-{i}").into_bytes())
        .collect()
}

/// Appends `total` entries through a node built from `config`, returns its
/// stats as sampled right after the last reply, then restarts the node over
/// the same directory and checks that every replied entry is still there.
fn replied_entries_survive_restart(w: &World, config: NodeConfig, total: usize) -> NodeStats {
    let stats = {
        let node = start_node(w, config.clone());
        let mut p = Publisher::new(
            w.client_identity.clone(),
            Arc::clone(&node),
            Arc::clone(&w.chain),
            w.root_record,
            None,
        );
        // append_batch only returns once every reply arrived — i.e. once the
        // node promised durability for all `total` entries.
        p.append_batch(payloads(total)).expect("append");
        // Sampled before shutdown, whose final sync would hide a reply
        // released ahead of its fsync.
        let stats = node.stats();
        node.wait_stage2_idle(Duration::from_secs(3600)).unwrap();
        stats
    };

    // Restart over the same directory: every replied entry must be there.
    let node = start_node(w, config);
    assert_eq!(node.entry_count(), total as u64, "entries lost on restart");
    for log_id in 0..node.log_positions() {
        let responses = node.read_log_position(log_id).expect("position readable");
        for resp in &responses {
            let req = resp.request().expect("payload decodes");
            assert!(req.payload.starts_with(b"gc-entry-"));
        }
    }
    stats
}

/// Every entry a group-commit node replied to must survive a node restart:
/// the deliver stage only releases replies after `ensure_durable`, so a
/// reply *is* a durability promise even though fsyncs are coalesced.
#[test]
fn group_commit_node_retains_all_replied_entries_across_restart() {
    let w = world("restart");
    let total = 64usize;
    let stats = replied_entries_survive_restart(&w, group_commit_config(8), total);
    assert_eq!(stats.entries_ingested, total as u64);
    // 64 entries / batch_size 8 = 8 batches through a max_batches=4
    // group: at least one fsync must have been coalesced away.
    assert!(
        stats.fsyncs_coalesced > 0,
        "expected coalesced fsyncs, stats: {stats:?}"
    );
    // Replication (2 replicas) overlapped the local persist work.
    assert!(
        stats.replication_overlap_ns > 0,
        "expected overlap accounting, stats: {stats:?}"
    );
    let _ = std::fs::remove_dir_all(&w.dir);
}

/// The same reply ⇒ durable check on an unmodified default node: its
/// replies must already be covered by an fsync when they arrive.
#[test]
fn default_node_replies_are_durable() {
    let w = world("default");
    let total = 64usize;
    let stats = replied_entries_survive_restart(&w, NodeConfig::default(), total);
    assert_eq!(stats.entries_ingested, total as u64);
    assert!(
        stats.fsyncs > 0,
        "replies were released before any fsync, stats: {stats:?}"
    );
    let _ = std::fs::remove_dir_all(&w.dir);
}

/// Batches below [`PARALLEL_CUTOFF`] leaves build their Merkle tree
/// serially; batches at or above it dispatch parallel chunks when the pool
/// has more than one worker. On single-core machines the pool clamps to one
/// worker and the counter legitimately stays 0, so the positive half only
/// asserts when parallelism is actually available.
#[test]
fn merkle_cutoff_governs_chunk_accounting() {
    let w = world("cutoff");
    let mut chunks = Vec::new();
    for batch in [PARALLEL_CUTOFF - 1, 2 * PARALLEL_CUTOFF] {
        let _ = std::fs::remove_dir_all(&w.dir);
        let node = start_node(&w, group_commit_config(batch));
        let mut p = Publisher::new(
            w.client_identity.clone(),
            Arc::clone(&node),
            Arc::clone(&w.chain),
            w.root_record,
            None,
        );
        p.append_batch(payloads(batch)).expect("append");
        node.wait_stage2_idle(Duration::from_secs(3600)).unwrap();
        chunks.push(node.stats().merkle_par_chunks);
    }
    assert_eq!(chunks[0], 0, "batches below the cutoff build serially");
    if std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        > 1
    {
        assert!(
            chunks[1] > 0,
            "batches above the cutoff must dispatch parallel chunks"
        );
    } else {
        assert_eq!(chunks[1], 0, "single-core pool stays inline");
    }
    let _ = std::fs::remove_dir_all(&w.dir);
}
