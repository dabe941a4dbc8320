//! Stage-2 hand-off: deliver stage → committer through a one-slot doorbell.
//!
//! Mirrors `crates/core/src/node/batcher.rs::deliver_stage` and
//! `crates/core/src/node/stage2.rs::Committer::run`. The committer keeps no
//! queue of pending work: it reads the pending positions (`flushed` minus
//! `committed`) from the shared snapshot, commits them in groups of at most
//! `MAX_GROUP`, and sleeps on a `bounded(1)` doorbell when none is left.
//! The deliver stage publishes each position under the write-plane mutex
//! and *then* rings with `try_send(())` — a full doorbell already holds a
//! ring the committer has yet to consume. When the deliver stage hangs up,
//! the committer exits once nothing is pending.
//!
//! Invariants asserted in every interleaving:
//! - **exactly once, in order**: each position is committed once, and the
//!   commits come out as `0, 1, …, POSITIONS - 1`;
//! - **no stranded position**: when both threads have exited, every
//!   published position is committed;
//! - **termination**: the committer never sleeps forever (a wedge shows up
//!   as a deadlock, which the checker reports).
//!
//! `broken: true` rings the doorbell *before* publishing. The committer can
//! then consume the ring, read a snapshot without the new position, and go
//! back to sleep — a lost wake-up that strands the last position.

use std::sync::Arc;

use crate::channel::{bounded, Receiver, Sender};
use crate::sync::Mutex;
use crate::{explore, thread, Config, Report};

const POSITIONS: u64 = 3;
const MAX_GROUP: u64 = 2;

/// The node's two-plane state, reduced to what stage 2 reads: positions
/// flushed so far and the commits, in commit order.
#[derive(Default)]
struct Plane {
    flushed: u64,
    committed: Vec<u64>,
}

/// The deliver stage: registers each position, rings, then hangs up.
fn deliver(plane: &Mutex<Plane>, doorbell: Sender<()>, broken: bool) {
    for _ in 0..POSITIONS {
        if broken {
            // The hazard: the ring can be consumed before the position is
            // visible in the snapshot.
            let _ = doorbell.try_send(());
            plane.lock().flushed += 1;
        } else {
            plane.lock().flushed += 1;
            let _ = doorbell.try_send(());
        }
    }
    // `doorbell` drops here: the deliver stage has hung up.
}

/// The committer: commits the pending range read from the snapshot; sleeps
/// on the doorbell when it is empty; exits on hang-up.
fn committer(plane: &Mutex<Plane>, doorbell: Receiver<()>) {
    loop {
        // Load the snapshot (one lock), derive the pending range from it.
        let (frontier, flushed) = {
            let plane = plane.lock();
            (plane.committed.len() as u64, plane.flushed)
        };
        let end = flushed.min(frontier + MAX_GROUP);
        if frontier < end {
            // Commit the group in one write-plane mutation.
            let mut plane = plane.lock();
            for id in frontier..end {
                assert!(
                    !plane.committed.contains(&id),
                    "position {id} committed twice"
                );
                plane.committed.push(id);
            }
            continue;
        }
        if doorbell.recv().is_err() {
            break;
        }
    }
}

fn model(broken: bool) {
    let plane = Arc::new(Mutex::new(Plane::default()));
    let (bell_tx, bell_rx) = bounded::<()>(1);

    let deliver_thread = {
        let plane = plane.clone();
        thread::spawn(move || deliver(&plane, bell_tx, broken))
    };
    let committer_thread = {
        let plane = plane.clone();
        thread::spawn(move || committer(&plane, bell_rx))
    };
    deliver_thread.join();
    committer_thread.join();

    let plane = plane.lock();
    let expected: Vec<u64> = (0..plane.flushed).collect();
    assert_eq!(
        plane.committed, expected,
        "lost wake-up: a flushed position was stranded uncommitted"
    );
}

/// Explores the stage-2 doorbell model under `config`.
pub fn run(broken: bool, config: Config) -> Report {
    explore(config, move || model(broken))
}
