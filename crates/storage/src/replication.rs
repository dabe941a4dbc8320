//! Batch replication to follower stores.
//!
//! The paper's Figure 3/5 "replicated" curves forward each received batch to
//! two other machines before (or while) building the Merkle tree, for a
//! stronger liveness guarantee (§4.7). Here each replica is a thread owning
//! its own [`LogStore`]; the primary fans batches out over channels and can
//! either wait for acknowledgements (synchronous replication) or continue
//! immediately.

use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{bounded, Receiver, Sender};

use crate::error::StorageError;
use crate::store::{LogStore, StoreConfig};

/// A batch shipped to replicas: shared, immutable payloads.
pub type Batch = Arc<Vec<Vec<u8>>>;

/// In-flight replication started by [`Replicator::replicate_begin`].
///
/// The sends have already been handed to every replica; [`wait`] collects
/// the acknowledgements. Dropping the handle abandons the wait without
/// cancelling the sends (the replicas still apply the batch).
///
/// [`wait`]: ReplicationHandle::wait
#[must_use = "dropping the handle abandons the acknowledgements"]
pub struct ReplicationHandle {
    acks: Vec<Receiver<Result<(), String>>>,
}

impl ReplicationHandle {
    /// Blocks until every replica has acknowledged (or hung up); returns
    /// the number that confirmed the write.
    pub fn wait(self) -> usize {
        self.acks
            .into_iter()
            .filter(|rx| matches!(rx.recv(), Ok(Ok(()))))
            .count()
    }

    /// Replicas the batch was handed to (upper bound on [`wait`]'s result).
    ///
    /// [`wait`]: ReplicationHandle::wait
    pub fn expected(&self) -> usize {
        self.acks.len()
    }
}

enum Command {
    Replicate {
        batch: Batch,
        ack: Sender<Result<(), String>>,
    },
    Shutdown,
}

/// Handle to one replica thread.
struct Replica {
    commands: Sender<Command>,
    handle: Option<JoinHandle<()>>,
}

/// Fans append batches out to `n` follower stores.
pub struct Replicator {
    replicas: Vec<Replica>,
    /// Simulated per-batch link delay applied by each replica before
    /// acknowledging (models the network the paper's prototype crossed).
    link_delay: Duration,
}

impl Replicator {
    /// Spawns `n` replica threads, each with a store under
    /// `base_dir/replica-<i>`.
    pub fn spawn(
        base_dir: impl Into<PathBuf>,
        n: usize,
        config: StoreConfig,
        link_delay: Duration,
    ) -> Result<Replicator, StorageError> {
        let base_dir = base_dir.into();
        let mut replicas = Vec::with_capacity(n);
        for i in 0..n {
            let dir = base_dir.join(format!("replica-{i}"));
            let store = LogStore::open(&dir, config.clone())?;
            let (tx, rx): (Sender<Command>, Receiver<Command>) = bounded(16);
            let handle = std::thread::Builder::new()
                .name(format!("wedge-replica-{i}"))
                .spawn(move || {
                    while let Ok(cmd) = rx.recv() {
                        match cmd {
                            Command::Replicate { batch, ack } => {
                                if !link_delay.is_zero() {
                                    std::thread::sleep(link_delay);
                                }
                                let result = store
                                    .append_batch(&batch[..])
                                    .map(|_| ())
                                    .map_err(|e| e.to_string());
                                let _ = ack.send(result);
                            }
                            Command::Shutdown => break,
                        }
                    }
                })?;
            replicas.push(Replica {
                commands: tx,
                handle: Some(handle),
            });
        }
        Ok(Replicator {
            replicas,
            link_delay,
        })
    }

    /// Ships a batch to every replica and returns immediately with a
    /// [`ReplicationHandle`] for collecting the acknowledgements later.
    ///
    /// This is the overlap primitive: the caller can run its local
    /// `append_batch` + fsync while the replicas work, then `wait`, paying
    /// max(local, replication) instead of the sum.
    pub fn replicate_begin(&self, batch: Batch) -> ReplicationHandle {
        let mut acks = Vec::with_capacity(self.replicas.len());
        for replica in &self.replicas {
            let (ack_tx, ack_rx) = bounded(1);
            if replica
                .commands
                .send(Command::Replicate {
                    batch: batch.clone(),
                    ack: ack_tx,
                })
                .is_ok()
            {
                acks.push(ack_rx);
            }
        }
        ReplicationHandle { acks }
    }

    /// Ships a batch without waiting for acknowledgements (lazy fan-out).
    pub fn replicate_async(&self, batch: Vec<Vec<u8>>) {
        let batch: Batch = Arc::new(batch);
        for replica in &self.replicas {
            let (ack_tx, _ack_rx) = bounded(1);
            let _ = replica.commands.send(Command::Replicate {
                batch: batch.clone(),
                ack: ack_tx,
            });
        }
    }

    /// Number of replicas.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Fault injection: stops replica `idx`'s thread (it stops acking).
    /// Subsequent [`ReplicationHandle::wait`] calls report the shortfall.
    pub fn stop_replica(&self, idx: usize) {
        if let Some(replica) = self.replicas.get(idx) {
            let _ = replica.commands.send(Command::Shutdown);
        }
    }

    /// The configured link delay.
    pub fn link_delay(&self) -> Duration {
        self.link_delay
    }
}

impl Drop for Replicator {
    fn drop(&mut self) {
        for replica in &self.replicas {
            let _ = replica.commands.send(Command::Shutdown);
        }
        for replica in &mut self.replicas {
            if let Some(handle) = replica.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wedge-repl-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn sync_replication_acks_all() {
        let dir = tempdir("sync");
        let repl = Replicator::spawn(&dir, 2, StoreConfig::default(), Duration::ZERO).unwrap();
        let acked = repl
            .replicate_begin(Arc::new(vec![b"r0".to_vec(), b"r1".to_vec()]))
            .wait();
        assert_eq!(acked, 2);
        drop(repl);
        // Each replica persisted the batch.
        for i in 0..2 {
            let store =
                LogStore::open(dir.join(format!("replica-{i}")), StoreConfig::default()).unwrap();
            assert_eq!(store.len(), 2);
            assert_eq!(store.read(1).unwrap(), b"r1");
        }
    }

    #[test]
    fn async_replication_eventually_lands() {
        let dir = tempdir("async");
        let repl = Replicator::spawn(&dir, 1, StoreConfig::default(), Duration::ZERO).unwrap();
        repl.replicate_async(vec![b"lazy".to_vec()]);
        drop(repl); // drop joins threads, draining the queue
        let store = LogStore::open(dir.join("replica-0"), StoreConfig::default()).unwrap();
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn begin_then_wait_overlaps_with_local_work() {
        let dir = tempdir("begin");
        let repl =
            Replicator::spawn(&dir, 2, StoreConfig::default(), Duration::from_millis(5)).unwrap();
        let batch: Batch = Arc::new(vec![b"o0".to_vec(), b"o1".to_vec()]);
        let handle = repl.replicate_begin(batch);
        assert_eq!(handle.expected(), 2);
        // "Local work" happens here while the replicas apply the batch.
        let marker = std::time::Instant::now();
        assert_eq!(handle.wait(), 2);
        // wait() blocked at most ~link_delay + append, not per-replica sums.
        assert!(marker.elapsed() < Duration::from_secs(2));
        drop(repl);
        for i in 0..2 {
            let store =
                LogStore::open(dir.join(format!("replica-{i}")), StoreConfig::default()).unwrap();
            assert_eq!(store.len(), 2);
        }
    }

    #[test]
    fn zero_replicas_is_noop() {
        let repl =
            Replicator::spawn(tempdir("zero"), 0, StoreConfig::default(), Duration::ZERO).unwrap();
        assert_eq!(
            repl.replicate_begin(Arc::new(vec![b"x".to_vec()])).wait(),
            0
        );
        assert_eq!(repl.replica_count(), 0);
    }

    #[test]
    fn multiple_batches_ordered() {
        let dir = tempdir("order");
        let repl = Replicator::spawn(&dir, 1, StoreConfig::default(), Duration::ZERO).unwrap();
        for b in 0..5u32 {
            let batch = (0..3).map(|i| format!("b{b}-{i}").into_bytes()).collect();
            assert_eq!(repl.replicate_begin(Arc::new(batch)).wait(), 1);
        }
        drop(repl);
        let store = LogStore::open(dir.join("replica-0"), StoreConfig::default()).unwrap();
        assert_eq!(store.len(), 15);
        assert_eq!(store.read(7).unwrap(), b"b2-1");
    }
}
