//! Seeded workload inputs. Every key, payload and read sequence is a pure
//! function of the workload seed, so a run can regenerate any payload to
//! check what the node returns.

use std::ops::Range;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use wedge_core::{parallel_map, AppendRequest};
use wedge_crypto::signer::Identity;

/// Bytes of every entry's key (the paper's 64 B keys).
pub const KEY_BYTES: usize = 64;

/// SplitMix64 finaliser: decorrelates the (seed, stream, index) triple.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded random stream for one purpose (`stream`) of one run.
pub fn rng(seed: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(mix(seed ^ mix(stream.wrapping_add(0x9e37_79b9_7f4a_7c15))))
}

/// A client identity derived from the seed.
pub fn identity(seed: u64, role: &str, index: u64) -> Identity {
    Identity::from_seed(format!("perfbench/{seed}/{role}/{index}").as_bytes())
}

/// The payload a publisher appends at `sequence`: a 64 B key whose first
/// bytes name (stream, sequence), then `value_bytes` of seeded noise.
pub fn payload(seed: u64, stream: u64, sequence: u64, value_bytes: usize) -> Vec<u8> {
    let mut bytes = vec![0u8; KEY_BYTES + value_bytes];
    let mut rng = SmallRng::seed_from_u64(mix(seed ^ mix(stream << 48 ^ sequence)));
    rng.fill(&mut bytes[16..]);
    bytes[..8].copy_from_slice(&stream.to_le_bytes());
    bytes[8..16].copy_from_slice(&sequence.to_le_bytes());
    bytes
}

/// Requests signed ahead of time (set-up work, not measured), for the
/// open-loop generators: requests `indices` spread round-robin over
/// `publishers`, each publisher numbering its own sequences from 0.
pub fn presigned(
    seed: u64,
    stream: u64,
    publishers: &[Identity],
    indices: Range<u64>,
    value_bytes: usize,
) -> Vec<AppendRequest> {
    let n = publishers.len() as u64;
    let items: Vec<u64> = indices.collect();
    parallel_map(&items, crate::nproc(), |&i| {
        let publisher = &publishers[(i % n) as usize];
        let sequence = i / n;
        let stream = stream + i % n;
        AppendRequest::new(
            publisher.secret_key(),
            sequence,
            payload(seed, stream, sequence, value_bytes),
        )
    })
}
