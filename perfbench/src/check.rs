//! End-of-run correctness: every acknowledged entry accounted for, log
//! positions gapless, and each position committed on-chain exactly once
//! with the root the node signed.

use std::collections::BTreeMap;
use std::time::Instant;

use crossbeam::channel::Sender;
use wedge_core::node::ReplyFn;
use wedge_core::{AppendRequest, SignedResponse};
use wedge_crypto::secp256k1::AffineTable;
use wedge_crypto::Hash32;

use crate::world::World;

/// One append reply as its submit callback saw it.
pub struct Reply {
    /// Index of the request in the workload's request list.
    pub index: usize,
    pub outcome: Result<SignedResponse, String>,
    pub at: Instant,
}

/// A reply callback forwarding the outcome of request `index`, stamped
/// with its arrival time.
pub fn reply_to(tx: &Sender<Reply>, index: usize) -> ReplyFn {
    let tx = tx.clone();
    Box::new(move |outcome| {
        let _ = tx.send(Reply {
            index,
            outcome,
            at: Instant::now(),
        });
    })
}

/// Whether `response` is the node's signed, proven commitment to exactly
/// `request`.
pub fn reply_matches(
    response: &SignedResponse,
    request: &AppendRequest,
    node_table: &AffineTable,
) -> bool {
    response.verify_with_table(node_table).is_ok() && response.leaf == request.leaf_bytes()
}

/// What the benchmark saw acknowledged, per log position.
struct PositionAcks {
    root: Hash32,
    seen: Vec<bool>,
    /// Simulated second of the position's first reply.
    first_reply: f64,
    /// First acknowledged during the measured window, not by set-up.
    measured: bool,
}

/// Every verified reply of a run, by log position.
#[derive(Default)]
pub struct Ledger {
    positions: BTreeMap<u64, PositionAcks>,
    /// Acknowledged entries.
    pub acked: u64,
    /// Payload bytes of the acknowledged entries.
    pub payload_bytes: u64,
}

impl Ledger {
    /// Records one verified reply. Two replies for one slot, or two roots
    /// for one position, are wrong outputs.
    pub fn record(
        &mut self,
        response: &SignedResponse,
        payload_len: usize,
        reply_sim: f64,
        measured: bool,
    ) -> Result<(), String> {
        let id = response.entry_id;
        let acks = self
            .positions
            .entry(id.log_id)
            .or_insert_with(|| PositionAcks {
                root: response.merkle_root,
                seen: Vec::new(),
                first_reply: reply_sim,
                measured,
            });
        if acks.root != response.merkle_root {
            return Err(format!("two roots signed for log position {}", id.log_id));
        }
        let offset = id.offset as usize;
        if acks.seen.len() <= offset {
            acks.seen.resize(offset + 1, false);
        }
        if std::mem::replace(&mut acks.seen[offset], true) {
            return Err(format!("entry {id} acknowledged twice"));
        }
        acks.first_reply = acks.first_reply.min(reply_sim);
        self.acked += 1;
        self.payload_bytes += payload_len as u64;
        Ok(())
    }

    /// After settle: checks the node and the chain against the ledger and
    /// returns the stage-2 latency (simulated seconds from first reply to
    /// confirmed Root Record commit) of every position first acknowledged in
    /// the measured window.
    pub fn check(&self, world: &World) -> Result<Vec<f64>, String> {
        let node = &world.node;
        let positions = node.log_positions();
        if node.entry_count() != self.acked {
            return Err(format!(
                "node holds {} entries, {} were acknowledged",
                node.entry_count(),
                self.acked
            ));
        }
        if self.positions.len() as u64 != positions
            || self
                .positions
                .keys()
                .next_back()
                .is_some_and(|&p| p + 1 != positions)
        {
            return Err(format!(
                "acknowledged positions do not cover 0..{positions} gaplessly"
            ));
        }
        let tail = world.onchain_tail()?;
        if tail != positions {
            return Err(format!("Root Record tail {tail} != {positions} positions"));
        }
        let commits = world.onchain_commits()?;
        if commits.keys().next_back().is_some_and(|&p| p >= positions) {
            return Err("Root Record commits a position the node never flushed".into());
        }
        let mut stage2 = Vec::new();
        for (&position, acks) in &self.positions {
            let len = node.read_log_position_len(position).unwrap_or(0) as usize;
            if acks.seen.len() != len || acks.seen.iter().any(|s| !s) {
                return Err(format!(
                    "position {position}: {len} entries, not all acknowledged once"
                ));
            }
            if world.onchain_root(position)? != Some(acks.root) {
                return Err(format!("position {position}: on-chain root differs"));
            }
            match commits.get(&position) {
                Some(&(1, confirmed)) if confirmed.is_finite() => {
                    if acks.measured {
                        stage2.push(confirmed - acks.first_reply);
                    }
                }
                Some(&(n, _)) if n != 1 => {
                    return Err(format!("position {position} committed {n} times"))
                }
                _ => return Err(format!("position {position} has no confirmed commit")),
            }
        }
        let failed = node.stats().stage2_failed;
        if failed != 0 {
            return Err(format!("{failed} stage-2 commitments abandoned"));
        }
        Ok(stage2)
    }
}
