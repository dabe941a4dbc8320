//! The deployment every workload runs against: a simulated chain with the
//! WedgeBlock contracts, one Offchain Node in a scratch directory, and the
//! chain-side view of its stage-2 commits.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wedge_chain::{Address, Chain, ChainConfig, Decoder, MinerHandle, Wei};
use wedge_contracts::RootRecord;
use wedge_core::{deploy_service, NodeConfig, OffchainNode, ServiceConfig};
use wedge_crypto::signer::Identity;
use wedge_crypto::Hash32;
use wedge_sim::Clock;
use wedge_storage::{StoreConfig, SyncPolicy};

/// Simulated seconds per wall second. Low enough that a few milliseconds of
/// thread-scheduling delay on a busy host stay well under a simulated
/// second, high enough that a 13 s block arrives every 65 ms of wall time.
pub const COMPRESSION: f64 = 200.0;

/// The one node configuration every workload uses: the paper's batch
/// defaults with a durable group-commit store and two replicas, so every
/// reply the benchmark times is durable in the node's own log.
pub fn node_config() -> NodeConfig {
    NodeConfig {
        replicas: 2,
        store: StoreConfig {
            sync: SyncPolicy::GroupCommit {
                max_batches: 8,
                max_delay: Duration::from_millis(2),
            },
            ..StoreConfig::default()
        },
        ..NodeConfig::default()
    }
}

/// A human-readable description of [`node_config`] for the run record.
pub fn node_config_record() -> String {
    let c = node_config();
    format!(
        "batch_size={} batch_linger_ms={} verify_requests={} worker_threads={} \
         pipeline_depth={} replicas={} stage2_max_group={} sync={:?} \
         max_segment_bytes={} seal_on_commit={} flush=size-or-idle-linger",
        c.batch_size,
        c.batch_linger.as_millis(),
        c.verify_requests,
        c.worker_threads,
        c.pipeline_depth,
        c.replicas,
        c.stage2_max_group,
        c.store.sync,
        c.store.max_segment_bytes,
        c.tier.seal_on_commit,
    )
}

/// Chain, contracts and a running node under a scratch directory.
pub struct World {
    pub chain: Arc<Chain>,
    pub clock: Clock,
    pub node: Arc<OffchainNode>,
    pub root_record: Address,
    miner: Option<MinerHandle>,
    dir: PathBuf,
}

impl World {
    /// Deploys the contracts and starts a node under `dir` (which must not
    /// exist yet).
    pub fn start(dir: &Path, seed: u64) -> Result<World, String> {
        let clock = Clock::compressed(COMPRESSION);
        let chain = Chain::new(clock.clone(), ChainConfig::default());
        let node_identity = Identity::from_seed(b"perfbench-node");
        let client = crate::gen::identity(seed, "client", 0);
        chain.fund(node_identity.address(), Wei::from_eth(1_000_000));
        chain.fund(client.address(), Wei::from_eth(1_000_000));
        let miner = chain.start_miner();
        let deployment = deploy_service(
            &chain,
            &node_identity,
            client.address(),
            &ServiceConfig {
                escrow: Wei::from_eth(32),
                payment_terms: None,
            },
        )
        .map_err(|e| format!("deploy contracts: {e}"))?;
        let node = OffchainNode::start(
            node_identity,
            node_config(),
            Arc::clone(&chain),
            deployment.root_record,
            dir,
        )
        .map_err(|e| format!("start node: {e}"))?;
        Ok(World {
            chain,
            clock,
            node: Arc::new(node),
            root_record: deployment.root_record,
            miner: Some(miner),
            dir: dir.to_path_buf(),
        })
    }

    /// Current simulated time, in seconds.
    pub fn sim_now(&self) -> f64 {
        self.clock.now().elapsed().as_secs_f64()
    }

    /// Simulated time at a past wall-clock instant.
    pub fn sim_at(&self, at: Instant) -> f64 {
        self.sim_now() - at.elapsed().as_secs_f64() * COMPRESSION
    }

    /// Waits until every flushed log position is blockchain-committed.
    pub fn settle(&self) -> Result<(), String> {
        self.node
            .wait_stage2_idle(Duration::from_secs(24 * 3600))
            .map_err(|e| format!("stage 2 did not settle: {e}"))
    }

    /// Bytes under the node's directory (log, replicas, checkpoints).
    pub fn disk_bytes(&self) -> u64 {
        dir_bytes(&self.dir)
    }

    /// Sealed cold segments currently on disk.
    pub fn cold_segments(&self) -> usize {
        count_files(&self.dir.join("log"), "wcold")
    }

    /// Every `RecordsUpdated` event of the Root Record, read back from the
    /// chain's blocks: log position → (times committed, simulated second at
    /// which the commit was confirmed).
    pub fn onchain_commits(&self) -> Result<BTreeMap<u64, (u32, f64)>, String> {
        let confirmations = self.chain.config().confirmations;
        let head = self.chain.block_number();
        let blocks = self.chain.block_range(0, head);
        let mut commits: BTreeMap<u64, (u32, f64)> = BTreeMap::new();
        for block in &blocks {
            for receipt in self.chain.block_receipts(block.number) {
                for log in &receipt.logs {
                    if log.contract != self.root_record || log.name != "RecordsUpdated" {
                        continue;
                    }
                    let mut dec = Decoder::new(&log.data);
                    let (start, count) = match (dec.u64(), dec.u64()) {
                        (Ok(s), Ok(c)) => (s, c),
                        _ => return Err("malformed RecordsUpdated event".into()),
                    };
                    // A commit is final once the configured confirmations
                    // sit on top of its block.
                    let confirmed = blocks
                        .get((block.number + confirmations) as usize)
                        .map_or(f64::NAN, |b| b.timestamp as f64);
                    for position in start..start + count {
                        let entry = commits.entry(position).or_insert((0, confirmed));
                        entry.0 += 1;
                    }
                }
            }
        }
        Ok(commits)
    }

    /// The Root Record's tail index: positions written so far.
    pub fn onchain_tail(&self) -> Result<u64, String> {
        let out = self
            .chain
            .view(self.root_record, &RootRecord::get_tail_calldata())
            .map_err(|e| format!("view tail: {e}"))?;
        RootRecord::decode_tail(&out).ok_or_else(|| "malformed tail".to_string())
    }

    /// The root the Root Record holds for `position`, if any.
    pub fn onchain_root(&self, position: u64) -> Result<Option<Hash32>, String> {
        let out = self
            .chain
            .view(self.root_record, &RootRecord::get_root_calldata(position))
            .map_err(|e| format!("view root: {e}"))?;
        Ok(RootRecord::decode_root(&out))
    }

    /// Stops the node (while blocks still flow, so nothing waits on the
    /// chain), then the miner. The caller must have dropped every other
    /// handle on the node. The directory stays: deleting it is left to the
    /// end of the whole run, so no deletion overlaps a measured window.
    pub fn teardown(self) {
        let World { node, miner, .. } = self;
        match Arc::try_unwrap(node) {
            Ok(node) => drop(node),
            Err(_) => eprintln!("perfbench: node still shared at teardown"),
        }
        drop(miner);
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn count_files(dir: &Path, extension: &str) -> usize {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| e.path().extension().is_some_and(|x| x == extension))
                .count()
        })
        .unwrap_or(0)
}
