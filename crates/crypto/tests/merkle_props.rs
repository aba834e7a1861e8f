//! Property tests for the Merkle tree: `prove`/`verify_inclusion`
//! round-trips over arbitrary item sets (odd-leaf duplication edge
//! cases included), and any single-byte tamper — in the item, in any
//! proof step, or in the root — is rejected. These are the proofs the
//! chunked snapshot transfer trusts state bytes on, so the rejection
//! side is as important as the round-trip.

use proptest::prelude::*;
use spotless_crypto::merkle::{proof_index, verify_inclusion, MerkleTree};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every leaf of every tree proves, verifies, and reports its own
    /// index through the proof's direction bits. Lengths 1..40 make odd
    /// counts as likely as even ones, so the duplicate-the-last-node
    /// promotion path is exercised at every level.
    #[test]
    fn prove_verify_roundtrips_for_arbitrary_items(
        items in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..24), 1..40),
    ) {
        let tree = MerkleTree::build(&items);
        prop_assert_eq!(tree.len(), items.len());
        for (i, item) in items.iter().enumerate() {
            let proof = tree.prove(i).expect("index in range");
            prop_assert!(verify_inclusion(item, &proof, &tree.root()), "leaf {i}");
            prop_assert_eq!(proof_index(&proof), i, "direction bits must encode the index");
        }
        prop_assert!(tree.prove(items.len()).is_none(), "out of range has no proof");
    }

    /// Flipping one bit of the proven item is rejected.
    #[test]
    fn tampered_item_is_rejected(
        items in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..24), 1..40),
        pick in any::<u64>(),
        at in any::<u64>(),
        bit in 0u8..8,
    ) {
        let tree = MerkleTree::build(&items);
        let i = (pick % items.len() as u64) as usize;
        let proof = tree.prove(i).expect("in range");
        let mut tampered = items[i].clone();
        if tampered.is_empty() {
            tampered.push(1); // no byte to flip: grow it instead
        } else {
            let at = (at % tampered.len() as u64) as usize;
            tampered[at] ^= 1 << bit;
        }
        prop_assert!(!verify_inclusion(&tampered, &proof, &tree.root()));
    }

    /// Flipping one bit of any proof step's sibling hash is rejected.
    /// (A single-leaf tree has an empty proof — nothing to tamper.)
    #[test]
    fn tampered_proof_sibling_is_rejected(
        items in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..24), 2..40),
        pick in any::<u64>(),
        step_pick in any::<u64>(),
        at in any::<u64>(),
        bit in 0u8..8,
    ) {
        let tree = MerkleTree::build(&items);
        let i = (pick % items.len() as u64) as usize;
        let mut proof = tree.prove(i).expect("in range");
        prop_assert!(!proof.is_empty(), "trees with ≥2 leaves have non-empty proofs");
        let s = (step_pick % proof.len() as u64) as usize;
        proof[s].sibling.0[(at % 32) as usize] ^= 1 << bit;
        prop_assert!(!verify_inclusion(&items[i], &proof, &tree.root()));
    }

    /// Flipping a proof step's direction bit is rejected whenever
    /// direction can matter — i.e. unless that step pairs the running
    /// hash with itself (the odd-leaf duplication case, where both
    /// orderings are byte-identical by construction).
    #[test]
    fn flipped_direction_bit_is_rejected(
        items in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..24), 2..40),
        pick in any::<u64>(),
        step_pick in any::<u64>(),
    ) {
        let tree = MerkleTree::build(&items);
        let i = (pick % items.len() as u64) as usize;
        let proof = tree.prove(i).expect("in range");
        let s = (step_pick % proof.len() as u64) as usize;
        let mut flipped = proof.clone();
        flipped[s].sibling_on_right = !flipped[s].sibling_on_right;
        if verify_inclusion(&items[i], &flipped, &tree.root()) {
            // Only legal when the step is a self-pairing (duplicated
            // odd node): swapping identical halves changes nothing.
            // Verify that is indeed the case by recomputing the running
            // hash up to this step and comparing it with the sibling.
            // A single-leaf tree's root is exactly the leaf hash.
            let mut acc = MerkleTree::build(&[items[i].clone()]).root();
            for step in &proof[..s] {
                acc = combine(&acc, step.sibling, step.sibling_on_right);
            }
            prop_assert_eq!(
                acc, proof[s].sibling,
                "a direction flip may only verify on a self-paired (odd-duplicate) step"
            );
        }
    }

    /// Flipping one bit of the root is rejected.
    #[test]
    fn tampered_root_is_rejected(
        items in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..24), 1..40),
        pick in any::<u64>(),
        at in any::<u64>(),
        bit in 0u8..8,
    ) {
        let tree = MerkleTree::build(&items);
        let i = (pick % items.len() as u64) as usize;
        let proof = tree.prove(i).expect("in range");
        let mut root = tree.root();
        root.0[(at % 32) as usize] ^= 1 << bit;
        prop_assert!(!verify_inclusion(&items[i], &proof, &root));
    }

    /// A proof never verifies a *different* leaf's payload at its
    /// position (unless the payloads are byte-identical).
    #[test]
    fn proof_is_position_bound(
        items in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..24), 2..40),
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let tree = MerkleTree::build(&items);
        let i = (a % items.len() as u64) as usize;
        let j = (b % items.len() as u64) as usize;
        if items[i] != items[j] {
            let proof = tree.prove(i).expect("in range");
            prop_assert!(!verify_inclusion(&items[j], &proof, &tree.root()));
        }
    }

    /// A tree kept alive through any sequence of in-place leaf updates
    /// is the tree `build` makes over the final leaves: same root, same
    /// proof for every leaf. Widths 1..=130 cover a lone leaf, odd
    /// widths at every level, and both sides of the 128-leaf shard tree
    /// the state root maintains this way.
    #[test]
    fn leaf_updates_match_a_rebuild_over_the_final_leaves(
        items in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..24), 1..131),
        rounds in prop::collection::vec(
            prop::collection::vec((any::<u64>(), prop::collection::vec(any::<u8>(), 0..24)), 0..12),
            1..6,
        ),
    ) {
        let mut leaves = items.clone();
        let mut tree = MerkleTree::build(&items);
        for round in rounds {
            let changes: Vec<(usize, Vec<u8>)> = round
                .into_iter()
                .map(|(pick, item)| ((pick % leaves.len() as u64) as usize, item))
                .collect();
            tree.update(&changes);
            for (i, item) in changes {
                leaves[i] = item;
            }
            let rebuilt = MerkleTree::build(&leaves);
            prop_assert_eq!(tree.root(), rebuilt.root());
            for i in 0..leaves.len() {
                prop_assert_eq!(tree.prove(i), rebuilt.prove(i), "leaf {}", i);
            }
        }
    }

    /// Changing any item changes the root (collision-freedom smoke
    /// test at the structure level).
    #[test]
    fn any_item_change_moves_the_root(
        items in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..24), 1..40),
        pick in any::<u64>(),
    ) {
        let tree = MerkleTree::build(&items);
        let i = (pick % items.len() as u64) as usize;
        let mut changed = items.clone();
        changed[i].push(0xA5);
        let other = MerkleTree::build(&changed);
        prop_assert_ne!(tree.root(), other.root());
    }
}

/// The interior-node combiner, re-derived for the direction-flip test
/// (domain byte 0x01 ‖ left ‖ right, matching `merkle::node_hash`).
fn combine(
    left_or_acc: &spotless_types::Digest,
    sibling: spotless_types::Digest,
    sibling_on_right: bool,
) -> spotless_types::Digest {
    let mut h = spotless_crypto::Sha256::new();
    h.update(&[0x01]);
    if sibling_on_right {
        h.update(&left_or_acc.0);
        h.update(&sibling.0);
    } else {
        h.update(&sibling.0);
        h.update(&left_or_acc.0);
    }
    spotless_types::Digest(h.finalize())
}
