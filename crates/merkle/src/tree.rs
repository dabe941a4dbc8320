//! Merkle tree construction (paper §2.1).
//!
//! The tree is built over the hashes of a batch's data objects; the root
//! (`MRoot`) is the digest committed on-chain by stage-2 commitment. All
//! levels are retained so per-leaf proof generation is O(log n) with no
//! rehashing — the hot path for stage-1 responses.
//!
//! Hashing is domain-separated (`0x00 || data` for leaves, `0x01 || l || r`
//! for internal nodes) to rule out second-preimage splices between levels.
//! An odd trailing node is promoted unchanged to the next level.

use wedge_crypto::hash::{
    keccak256_batch_prefixed, keccak256_prefixed, keccak256_x4_prefixed, Hash32,
};

use crate::proof::{MerkleProof, ProofNode, Side};
use crate::MerkleError;

/// Leaves per parallel work item: big enough that each pool task runs
/// several ×4 permutation groups, small enough to spread across workers.
const LEAF_GROUP: usize = 32;

/// Domain tag for leaf hashes.
pub(crate) const LEAF_TAG: u8 = 0x00;
/// Domain tag for internal-node hashes.
pub(crate) const NODE_TAG: u8 = 0x01;

/// Hashes a leaf's raw data.
///
/// The tagged message `0x00 || data` takes the fused single-permutation
/// path whenever it fits inside the Keccak rate (any leaf under 135 bytes
/// — every fixed digest in the workspace), falling back to the streaming
/// sponge above that.
pub fn hash_leaf(data: &[u8]) -> Hash32 {
    Hash32(keccak256_prefixed(&[LEAF_TAG], data))
}

/// Hashes two child digests into their parent.
///
/// The 65-byte preimage `0x01 || left || right` is always sub-rate, so
/// this is exactly one Keccak permutation — no sponge state machine.
pub fn hash_node(left: &Hash32, right: &Hash32) -> Hash32 {
    let mut buf = [0u8; 64];
    let (l, r) = buf.split_at_mut(32);
    l.copy_from_slice(left.as_bytes());
    r.copy_from_slice(right.as_bytes());
    Hash32(keccak256_prefixed(&[NODE_TAG], &buf))
}

/// Hashes four sibling pairs (eight child digests, `pairs.len() == 8`)
/// with one ×4 lane-interleaved permutation — four parents for the price
/// of roughly one scalar [`hash_node`]. Byte-identical to calling
/// [`hash_node`] on each pair.
pub fn hash_node_x4(pairs: &[Hash32]) -> [Hash32; 4] {
    debug_assert_eq!(pairs.len(), 8, "hash_node_x4 takes four sibling pairs");
    let mut bufs = [[0u8; 64]; 4];
    for (buf, pair) in bufs.iter_mut().zip(pairs.chunks_exact(2)) {
        let (l, r) = buf.split_at_mut(32);
        l.copy_from_slice(pair[0].as_bytes());
        r.copy_from_slice(pair[1].as_bytes());
    }
    let d = keccak256_x4_prefixed(&[NODE_TAG], [&bufs[0], &bufs[1], &bufs[2], &bufs[3]]);
    [Hash32(d[0]), Hash32(d[1]), Hash32(d[2]), Hash32(d[3])]
}

/// Hashes a slice of raw leaves through the ×4 batch path (groups of four
/// same-block-count leaves per permutation, scalar remainder), preserving
/// order. Byte-identical to mapping [`hash_leaf`].
pub fn hash_leaves<D: AsRef<[u8]>>(leaves: &[D]) -> Vec<Hash32> {
    let refs: Vec<&[u8]> = leaves.iter().map(|d| d.as_ref()).collect();
    keccak256_batch_prefixed(&[LEAF_TAG], &refs)
}

/// Folds an even-length run of sibling nodes into their parents: full
/// octets (four pairs) go through the ×4 permutation, the remaining ≤ 3
/// pairs through scalar [`hash_node`]. This is the shared level-fold core
/// of the serial and pool-parallel builders.
pub(crate) fn fold_pairs(nodes: &[Hash32]) -> Vec<Hash32> {
    debug_assert!(
        nodes.len().is_multiple_of(2),
        "fold_pairs takes whole pairs"
    );
    let mut out = Vec::with_capacity(nodes.len() / 2);
    let mut octets = nodes.chunks_exact(8);
    for oct in octets.by_ref() {
        out.extend_from_slice(&hash_node_x4(oct));
    }
    for pair in octets.remainder().chunks_exact(2) {
        out.push(hash_node(&pair[0], &pair[1]));
    }
    out
}

/// Leaf/level count at or above which Merkle construction uses the work
/// pool; below it the serial builder wins on dispatch overhead.
pub const PARALLEL_CUTOFF: usize = 256;

/// An immutable Merkle tree with all levels retained.
#[derive(Clone, Debug)]
pub struct MerkleTree {
    /// `levels[0]` = leaf hashes; the last level has exactly one node (the
    /// root).
    levels: Vec<Vec<Hash32>>,
}

impl MerkleTree {
    /// Builds a tree from raw leaf data.
    ///
    /// Returns [`MerkleError::EmptyTree`] for an empty batch — WedgeBlock
    /// never commits an empty log position.
    pub fn from_leaves<D: AsRef<[u8]>>(leaves: &[D]) -> Result<MerkleTree, MerkleError> {
        MerkleTree::from_leaf_hashes(hash_leaves(leaves))
    }

    /// Builds a tree from precomputed leaf hashes.
    pub fn from_leaf_hashes(hashes: Vec<Hash32>) -> Result<MerkleTree, MerkleError> {
        if hashes.is_empty() {
            return Err(MerkleError::EmptyTree);
        }
        let mut levels = Vec::new();
        let mut current = hashes;
        while current.len() > 1 {
            // Fold the even prefix (×4 octets + scalar remainder pairs);
            // an odd trailing node is promoted unchanged.
            let even_len = current.len() & !1;
            let (even, odd) = current.split_at(even_len);
            let mut next = fold_pairs(even);
            if let [promoted] = odd {
                next.push(*promoted);
            }
            levels.push(current);
            current = next;
        }
        levels.push(current);
        Ok(MerkleTree { levels })
    }

    /// Builds a tree from raw leaf data, hashing leaves and interior
    /// levels on `pool` when a level holds at least `cutoff` nodes.
    ///
    /// Produces a tree **bit-identical** to [`MerkleTree::from_leaves`]:
    /// same levels, same odd-node promotion, same root, same proofs. The
    /// cutoff exists because below a few hundred nodes the serial builder
    /// wins; production passes [`PARALLEL_CUTOFF`], and tests pass other
    /// values to drive either path on small trees.
    pub fn from_leaves_parallel<D: AsRef<[u8]> + Sync>(
        leaves: &[D],
        pool: &wedge_pool::WorkPool,
        cutoff: usize,
    ) -> Result<MerkleTree, MerkleError> {
        MerkleTree::from_leaves_parallel_counted(leaves, pool, cutoff).map(|(tree, _)| tree)
    }

    /// [`MerkleTree::from_leaves_parallel`] plus the number of parallel
    /// chunks dispatched (0 means the build ran fully serial) — the raw
    /// material for the node's `merkle_par_chunks` stat.
    pub fn from_leaves_parallel_counted<D: AsRef<[u8]> + Sync>(
        leaves: &[D],
        pool: &wedge_pool::WorkPool,
        cutoff: usize,
    ) -> Result<(MerkleTree, u64), MerkleError> {
        if leaves.is_empty() {
            return Err(MerkleError::EmptyTree);
        }
        let mut chunks = 0u64;
        let hashes: Vec<Hash32> = if leaves.len() >= cutoff.max(2) && pool.workers() > 1 {
            // Map over *groups* of leaves so each worker drives the ×4
            // batch path instead of one scalar digest per item. Groups
            // are contiguous and order-preserving, so the concatenation
            // is byte-identical to the serial hash_leaves.
            let groups: Vec<&[D]> = leaves.chunks(LEAF_GROUP).collect();
            chunks += pool.planned_chunks(groups.len()) as u64;
            pool.map(&groups, |group| hash_leaves(group)).concat()
        } else {
            hash_leaves(leaves)
        };
        let (tree, level_chunks) = MerkleTree::build_parallel(hashes, pool, cutoff);
        Ok((tree, chunks + level_chunks))
    }

    /// Builds a tree from precomputed leaf hashes, constructing each
    /// interior level on `pool` while the level holds at least `cutoff`
    /// nodes. Bit-identical to [`MerkleTree::from_leaf_hashes`].
    pub fn from_leaf_hashes_parallel(
        hashes: Vec<Hash32>,
        pool: &wedge_pool::WorkPool,
        cutoff: usize,
    ) -> Result<MerkleTree, MerkleError> {
        if hashes.is_empty() {
            return Err(MerkleError::EmptyTree);
        }
        let (tree, _) = MerkleTree::build_parallel(hashes, pool, cutoff);
        Ok(tree)
    }

    /// Level-by-level construction mirroring [`MerkleTree::from_leaf_hashes`]
    /// exactly: full pairs are hashed (in parallel above the cutoff), an odd
    /// trailing node is promoted unchanged. Returns the tree and how many
    /// parallel chunks were dispatched across all levels.
    fn build_parallel(
        hashes: Vec<Hash32>,
        pool: &wedge_pool::WorkPool,
        cutoff: usize,
    ) -> (MerkleTree, u64) {
        let cutoff = cutoff.max(2);
        let mut chunks_dispatched = 0u64;
        let mut levels = Vec::new();
        let mut current = hashes;
        while current.len() > 1 {
            let even_len = current.len() & !1;
            let (even, odd) = current.split_at(even_len);
            let mut next = if current.len() >= cutoff && pool.workers() > 1 {
                // Map over octets (four sibling pairs) so each worker runs
                // the ×4 node permutation; an even-length ragged tail
                // chunk folds its pairs serially inside fold_pairs.
                let octets: Vec<&[Hash32]> = even.chunks(8).collect();
                chunks_dispatched += pool.planned_chunks(octets.len()) as u64;
                pool.map(&octets, |oct| fold_pairs(oct)).concat()
            } else {
                fold_pairs(even)
            };
            if let [promoted] = odd {
                // Odd trailing node is promoted unchanged, as in the serial
                // builder.
                next.push(*promoted);
            }
            levels.push(current);
            current = next;
        }
        levels.push(current);
        (MerkleTree { levels }, chunks_dispatched)
    }

    /// The Merkle root (`MRoot`).
    pub fn root(&self) -> Hash32 {
        match self.levels.last().and_then(|top| top.first()) {
            Some(h) => *h,
            None => {
                // lint: allow(panic) — constructors reject empty input, so a
                // tree always carries at least the leaf level
                unreachable!("tree has a root level")
            }
        }
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.levels[0].len()
    }

    /// The hash of leaf `index`.
    pub fn leaf_hash(&self, index: usize) -> Option<Hash32> {
        self.levels[0].get(index).copied()
    }

    /// Tree height (number of levels including the leaf level).
    pub fn height(&self) -> usize {
        self.levels.len()
    }

    /// Generates the inclusion proof for leaf `index`.
    pub fn prove(&self, index: usize) -> Result<MerkleProof, MerkleError> {
        let leaf_count = self.leaf_count();
        if index >= leaf_count {
            return Err(MerkleError::LeafOutOfRange { index, leaf_count });
        }
        let mut path = Vec::with_capacity(self.height());
        let mut i = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling = i ^ 1;
            if sibling < level.len() {
                let side = if sibling < i { Side::Left } else { Side::Right };
                path.push(ProofNode {
                    hash: level[sibling],
                    side,
                });
            }
            // Promoted odd nodes keep their position at index/2 with no
            // sibling contribution.
            i /= 2;
        }
        Ok(MerkleProof {
            leaf_index: index as u64,
            leaf_count: leaf_count as u64,
            path,
        })
    }

    /// Generates proofs for every leaf (the stage-1 response fan-out).
    pub fn prove_all(&self) -> Vec<MerkleProof> {
        (0..self.leaf_count())
            // lint: allow(panic) — iterating 0..leaf_count keeps every index
            // in range by construction
            .map(|i| self.prove(i).expect("index in range"))
            .collect()
    }

    /// Read access to a whole level (testing/inspection).
    pub fn level(&self, depth: usize) -> Option<&[Hash32]> {
        self.levels.get(depth).map(|v| v.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("leaf-{i}").into_bytes()).collect()
    }

    #[test]
    fn empty_rejected() {
        assert!(matches!(
            MerkleTree::from_leaves::<&[u8]>(&[]),
            Err(MerkleError::EmptyTree)
        ));
    }

    #[test]
    fn single_leaf_root_is_leaf_hash() {
        let tree = MerkleTree::from_leaves(&[b"only".as_slice()]).unwrap();
        assert_eq!(tree.root(), hash_leaf(b"only"));
        assert_eq!(tree.height(), 1);
    }

    #[test]
    fn two_leaves_root() {
        let tree = MerkleTree::from_leaves(&[b"a".as_slice(), b"b"]).unwrap();
        let expect = hash_node(&hash_leaf(b"a"), &hash_leaf(b"b"));
        assert_eq!(tree.root(), expect);
    }

    #[test]
    fn odd_leaf_promotion() {
        // Three leaves: root = H(H(l0,l1), l2) with l2 promoted.
        let tree = MerkleTree::from_leaves(&leaves(3)).unwrap();
        let l: Vec<Hash32> = leaves(3).iter().map(|d| hash_leaf(d)).collect();
        let expect = hash_node(&hash_node(&l[0], &l[1]), &l[2]);
        assert_eq!(tree.root(), expect);
    }

    #[test]
    fn root_changes_with_any_leaf() {
        let base = MerkleTree::from_leaves(&leaves(8)).unwrap();
        for i in 0..8 {
            let mut data = leaves(8);
            data[i].push(b'!');
            let tree = MerkleTree::from_leaves(&data).unwrap();
            assert_ne!(tree.root(), base.root(), "leaf {i} change must alter root");
        }
    }

    #[test]
    fn root_changes_with_order() {
        // Order captured by concatenation (paper §2.1).
        let a = MerkleTree::from_leaves(&[b"x".as_slice(), b"y"]).unwrap();
        let b = MerkleTree::from_leaves(&[b"y".as_slice(), b"x"]).unwrap();
        assert_ne!(a.root(), b.root());
    }

    #[test]
    fn leaf_and_node_domains_differ() {
        // A leaf holding exactly "0x01 || h || h" must not collide with the
        // internal node over (h, h).
        let h = hash_leaf(b"inner");
        let mut fake = vec![NODE_TAG];
        fake.extend_from_slice(h.as_bytes());
        fake.extend_from_slice(h.as_bytes());
        assert_ne!(hash_leaf(&fake), hash_node(&h, &h));
    }

    #[test]
    fn heights() {
        for (n, h) in [(1, 1), (2, 2), (3, 3), (4, 3), (5, 4), (1000, 11)] {
            let tree = MerkleTree::from_leaves(&leaves(n)).unwrap();
            assert_eq!(tree.height(), h, "n = {n}");
        }
    }

    #[test]
    fn out_of_range_proof_rejected() {
        let tree = MerkleTree::from_leaves(&leaves(4)).unwrap();
        assert!(matches!(
            tree.prove(4),
            Err(MerkleError::LeafOutOfRange {
                index: 4,
                leaf_count: 4
            })
        ));
    }
}
