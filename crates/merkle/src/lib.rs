//! # wedge-merkle
//!
//! Merkle tree substrate for WedgeBlock (paper §2.1): batch digests
//! (`MRoot`), per-leaf inclusion proofs for stage-1 responses, and range
//! multiproofs for auditor scans.
//!
//! ```
//! use wedge_merkle::{MerkleTree, RangeProof};
//!
//! let batch = vec![b"op-1".to_vec(), b"op-2".to_vec(), b"op-3".to_vec()];
//! let tree = MerkleTree::from_leaves(&batch).unwrap();
//! let root = tree.root();
//!
//! // Per-leaf proof (stage-1 response):
//! let proof = tree.prove(1).unwrap();
//! proof.verify(b"op-2", &root).unwrap();
//!
//! // Range proof (auditor):
//! let scan = RangeProof::generate(&tree, 0, 3).unwrap();
//! scan.verify(&batch, &root).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod composed;
mod multiproof;
mod proof;
mod tree;

pub use builder::TreeBuilder;
pub use composed::ComposedProof;
pub use multiproof::RangeProof;
pub use proof::{MerkleProof, ProofNode, Side};
pub use tree::{hash_leaf, hash_leaves, hash_node, hash_node_x4, MerkleTree, PARALLEL_CUTOFF};

use wedge_crypto::hash::Hash32;

/// Errors for tree construction and proof verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MerkleError {
    /// A tree cannot be built over zero leaves.
    EmptyTree,
    /// A range proof over zero leaves is meaningless.
    EmptyRange,
    /// A leaf index exceeded the tree size.
    LeafOutOfRange {
        /// Offending index.
        index: usize,
        /// Leaves in the tree.
        leaf_count: usize,
    },
    /// The recomputed root did not match the trusted root.
    RootMismatch {
        /// Root recomputed from the proof.
        computed: Hash32,
        /// The trusted root.
        expected: Hash32,
    },
    /// A serialized proof was structurally invalid.
    MalformedProof(&'static str),
}

impl core::fmt::Display for MerkleError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MerkleError::EmptyTree => write!(f, "cannot build a Merkle tree over zero leaves"),
            MerkleError::EmptyRange => write!(f, "range proof over zero leaves"),
            MerkleError::LeafOutOfRange { index, leaf_count } => {
                write!(f, "leaf index {index} out of range for {leaf_count} leaves")
            }
            MerkleError::RootMismatch { computed, expected } => {
                write!(f, "root mismatch: computed {computed}, expected {expected}")
            }
            MerkleError::MalformedProof(what) => write!(f, "malformed proof: {what}"),
        }
    }
}

impl std::error::Error for MerkleError {}
