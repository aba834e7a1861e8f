//! Merkle trees over batch transactions.
//!
//! ResilientDB-style ledgers prove membership of a single transaction in
//! a committed batch without shipping the batch (§6.1's "strong data
//! provenance"). We build a standard binary Merkle tree over transaction
//! digests with domain-separated leaf/node hashing (guarding against the
//! classic leaf/interior second-preimage confusion).

use crate::sha256::digest_parts;
use serde::bin::Reader;
use serde::{Deserialize, Error, Serialize};
use spotless_types::Digest;

// Both shapes are one-shot: a node is always 65 bytes and a leaf over a
// digest 33, so each is assembled in its padded blocks on the stack and
// compressed in one call (see `sha256::digest_parts`).

fn leaf_hash(data: &[u8]) -> Digest {
    Digest(digest_parts(&[&[0x00], data])) // leaf domain
}

fn node_hash(left: &Digest, right: &Digest) -> Digest {
    Digest(digest_parts(&[&[0x01], &left.0, &right.0])) // interior domain
}

/// Node `p` of the level above `level`: the hash of its two children,
/// an odd last node promoting by pairing with itself.
fn parent_hash(level: &[Digest], p: usize) -> Digest {
    let left = &level[2 * p];
    node_hash(left, level.get(2 * p + 1).unwrap_or(left))
}

/// Upper bound on inclusion-proof length, shared by the prover and
/// [`ProofStep`]'s decoder, which every list of steps on the wire goes
/// through. A binary tree with more than `2^64` leaves cannot exist in
/// this address space, so a longer proof is a malformed frame by
/// definition — the decoder rejects it before allocating, and
/// [`MerkleTree::prove`] never emits one. Keeping the two sides on one
/// named constant is what stops the bound from silently drifting apart.
pub const MAX_PROOF_DEPTH: usize = 64;

/// One step of a Merkle inclusion proof. Encodes as the sibling's 32
/// bytes, then the side as a `0`/`1` byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct ProofStep {
    /// The sibling hash at this level.
    pub sibling: Digest,
    /// True iff the sibling sits to the right of the running hash.
    pub sibling_on_right: bool,
}

/// The derived layout, plus the bound: a `Vec<ProofStep>` longer than
/// [`MAX_PROOF_DEPTH`] fails at its length prefix, before it is reserved.
impl Deserialize for ProofStep {
    fn de_bin(r: &mut Reader<'_>) -> Result<Self, Error> {
        Ok(ProofStep {
            sibling: Digest::de_bin(r)?,
            sibling_on_right: bool::de_bin(r)?,
        })
    }

    fn de_bin_slice(r: &mut Reader<'_>) -> Result<Vec<Self>, Error> {
        let len = r.len()?;
        if len > MAX_PROOF_DEPTH {
            return Err(Error::custom("proof deeper than MAX_PROOF_DEPTH"));
        }
        Self::de_bin_elems(r, len)
    }
}

/// A Merkle tree over a batch's transactions.
#[derive(Clone)]
pub struct MerkleTree {
    /// levels[0] = leaves; last level = [root]. Empty input ⇒ one level
    /// holding the zero digest.
    levels: Vec<Vec<Digest>>,
}

impl MerkleTree {
    /// Builds a tree over the given leaf payloads.
    pub fn build<T: AsRef<[u8]>>(items: &[T]) -> MerkleTree {
        if items.is_empty() {
            return MerkleTree {
                levels: vec![vec![Digest::ZERO]],
            };
        }
        let mut levels = vec![items
            .iter()
            .map(|item| leaf_hash(item.as_ref()))
            .collect::<Vec<_>>()];
        while levels.last().expect("non-empty").len() > 1 {
            let prev = levels.last().expect("non-empty");
            let next = (0..prev.len().div_ceil(2))
                .map(|p| parent_hash(prev, p))
                .collect();
            levels.push(next);
        }
        MerkleTree { levels }
    }

    /// Replaces the payloads of the given leaves in place and re-hashes
    /// only their ancestor paths — each shared ancestor once — so a
    /// long-lived tree pays `O(changed · log leaves)` per update instead
    /// of a rebuild. The result is indistinguishable from
    /// [`build`](MerkleTree::build) over the final payloads: same root,
    /// same proofs. Indices may repeat (the last payload wins); one out
    /// of range panics before any leaf is written — the leaf count of a
    /// tree is fixed for life — so a caught panic leaves the tree as it
    /// was.
    pub fn update<T: AsRef<[u8]>>(&mut self, changes: &[(usize, T)]) {
        if changes.is_empty() {
            return;
        }
        assert!(!self.is_empty(), "the empty tree has no leaf to update");
        assert!(
            changes.iter().all(|(index, _)| *index < self.len()),
            "leaf index out of range for a tree of {} leaves",
            self.len()
        );
        let mut touched: Vec<usize> = Vec::with_capacity(changes.len());
        for (index, item) in changes {
            self.levels[0][*index] = leaf_hash(item.as_ref());
            touched.push(*index);
        }
        touched.sort_unstable();
        for level in 1..self.levels.len() {
            // Children are ascending, so equal parents are adjacent.
            for t in &mut touched {
                *t /= 2;
            }
            touched.dedup();
            let (below, above) = self.levels.split_at_mut(level);
            for &p in &touched {
                above[0][p] = parent_hash(&below[level - 1], p);
            }
        }
    }

    /// The root digest.
    pub fn root(&self) -> Digest {
        self.levels.last().expect("non-empty")[0]
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.levels[0].len()
    }

    /// True iff the tree was built over no items.
    pub fn is_empty(&self) -> bool {
        self.levels.len() == 1 && self.levels[0][0] == Digest::ZERO
    }

    /// Inclusion proof for leaf `index`. Never longer than
    /// [`MAX_PROOF_DEPTH`] steps (the tree height is `⌈log₂ leaves⌉`,
    /// and `leaves` is bounded by the address space) — the same bound
    /// wire decoders enforce when parsing proofs.
    pub fn prove(&self, index: usize) -> Option<Vec<ProofStep>> {
        if index >= self.levels[0].len() || self.is_empty() {
            return None;
        }
        debug_assert!(
            self.levels.len() - 1 <= MAX_PROOF_DEPTH,
            "tree deeper than MAX_PROOF_DEPTH cannot exist"
        );
        let mut proof = Vec::with_capacity(self.levels.len());
        let mut at = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling_index = at ^ 1;
            let sibling = *level.get(sibling_index).unwrap_or(&level[at]);
            proof.push(ProofStep {
                sibling,
                sibling_on_right: sibling_index > at,
            });
            at /= 2;
        }
        Some(proof)
    }
}

/// The leaf index a proof's direction bits encode: step `k`'s sibling
/// sits to the right exactly when bit `k` of the index is 0. Verifiers
/// that must pin an item to a *specific* position (e.g. a state-chunk
/// bucket, whose contents are only meaningful at their own index)
/// compare this against the claimed index in addition to running
/// [`verify_inclusion`] — a valid proof for the wrong slot is rejected.
pub fn proof_index(proof: &[ProofStep]) -> usize {
    let mut index = 0usize;
    for (level, step) in proof.iter().enumerate() {
        if !step.sibling_on_right {
            index |= 1 << level;
        }
    }
    index
}

/// The domain-separated leaf digest of an item — the value a proof
/// folds up from. Exposed so multi-level verifiers (a shard tree whose
/// roots are themselves leaves of a top tree) can compose proofs with
/// [`fold_proof`]; plain single-tree checks should keep calling
/// [`verify_inclusion`].
pub fn leaf_digest(item: &[u8]) -> Digest {
    leaf_hash(item)
}

/// The root of the tree whose leaf digests ([`leaf_digest`]) are
/// `level`, folded in place — for small fixed-shape trees whose root is
/// wanted often and whose proofs are wanted rarely. Equal to
/// [`MerkleTree::build`]'s root over the same leaves; `level` is
/// scratch afterwards.
pub fn root_of_leaf_digests(level: &mut [Digest]) -> Digest {
    let mut width = level.len();
    if width == 0 {
        return Digest::ZERO;
    }
    while width > 1 {
        let parents = width.div_ceil(2);
        for p in 0..parents {
            level[p] = parent_hash(&level[..width], p);
        }
        width = parents;
    }
    level[0]
}

/// Folds a digest up through a proof's steps, returning the root the
/// proof implies. `start` must already be a leaf digest
/// ([`leaf_digest`]) or an interior node — folding raw item bytes here
/// would reintroduce the leaf/interior confusion the domains exist to
/// prevent.
pub fn fold_proof(start: Digest, proof: &[ProofStep]) -> Digest {
    let mut acc = start;
    for step in proof {
        acc = if step.sibling_on_right {
            node_hash(&acc, &step.sibling)
        } else {
            node_hash(&step.sibling, &acc)
        };
    }
    acc
}

/// Verifies an inclusion proof: does `item` at some position hash up to
/// `root` through `proof`?
pub fn verify_inclusion(item: &[u8], proof: &[ProofStep], root: &Digest) -> bool {
    fold_proof(leaf_hash(item), proof) == *root
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use serde::bin;

    fn items(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("txn-{i}").into_bytes()).collect()
    }

    #[test]
    fn proof_lists_decode_up_to_max_proof_depth() {
        let step = ProofStep {
            sibling: Digest::from_u64(5),
            sibling_on_right: true,
        };
        let at_bound = vec![step; MAX_PROOF_DEPTH];
        let enc = bin::to_vec(&at_bound);
        assert_eq!(bin::from_slice::<Vec<ProofStep>>(&enc), Ok(at_bound));
        let too_deep = bin::to_vec(&vec![step; MAX_PROOF_DEPTH + 1]);
        assert!(bin::from_slice::<Vec<ProofStep>>(&too_deep).is_err());
    }

    #[test]
    fn single_leaf_root_is_leaf_hash() {
        let tree = MerkleTree::build(&items(1));
        assert_eq!(tree.root(), leaf_hash(b"txn-0"));
        assert_eq!(tree.len(), 1);
    }

    #[test]
    fn proofs_verify_for_every_leaf_and_size() {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 100] {
            let data = items(n);
            let tree = MerkleTree::build(&data);
            for (i, item) in data.iter().enumerate() {
                let proof = tree.prove(i).expect("in range");
                assert!(verify_inclusion(item, &proof, &tree.root()), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn wrong_item_or_position_fails() {
        let data = items(8);
        let tree = MerkleTree::build(&data);
        let proof = tree.prove(3).unwrap();
        assert!(!verify_inclusion(b"txn-4", &proof, &tree.root()));
        let other = tree.prove(4).unwrap();
        assert!(!verify_inclusion(b"txn-3", &other, &tree.root()));
    }

    #[test]
    fn tampered_root_fails() {
        let data = items(4);
        let tree = MerkleTree::build(&data);
        let proof = tree.prove(0).unwrap();
        let mut bad_root = tree.root();
        bad_root.0[0] ^= 1;
        assert!(!verify_inclusion(b"txn-0", &proof, &bad_root));
    }

    #[test]
    fn out_of_range_proof_is_none() {
        let tree = MerkleTree::build(&items(4));
        assert!(tree.prove(4).is_none());
    }

    #[test]
    fn proof_index_recovers_the_leaf_position() {
        for n in [1usize, 2, 3, 5, 8, 100] {
            let tree = MerkleTree::build(&items(n));
            for i in 0..n {
                let proof = tree.prove(i).expect("in range");
                assert_eq!(proof_index(&proof), i, "n={n} i={i}");
            }
        }
    }

    #[test]
    fn leaf_and_interior_domains_differ() {
        // H(leaf x) must differ from H(node(x, x))'s preimage structure:
        // build two trees where confusion would collide.
        let a = MerkleTree::build(&[b"x".to_vec()]);
        let b = MerkleTree::build(&[b"x".to_vec(), b"x".to_vec()]);
        assert_ne!(a.root(), b.root());
    }

    #[test]
    fn empty_tree_has_zero_root_and_no_proofs() {
        let tree = MerkleTree::build::<Vec<u8>>(&[]);
        assert!(tree.is_empty());
        assert_eq!(tree.root(), Digest::ZERO);
        assert!(tree.prove(0).is_none());
    }

    #[test]
    fn two_level_proofs_compose_via_fold() {
        // A bottom tree per group, a top tree over the group roots:
        // folding a leaf through its bottom proof must yield exactly
        // the digest whose top-tree inclusion proof verifies — and a
        // naive verify_inclusion of the composed chain must NOT (the
        // top tree re-applies the leaf domain to the sub-root bytes).
        let groups: Vec<Vec<Vec<u8>>> = (0..4)
            .map(|g| {
                (0..5)
                    .map(|i| format!("g{g}-item{i}").into_bytes())
                    .collect()
            })
            .collect();
        let bottoms: Vec<MerkleTree> = groups.iter().map(|g| MerkleTree::build(g)).collect();
        let top_leaves: Vec<Vec<u8>> = bottoms.iter().map(|t| t.root().0.to_vec()).collect();
        let top = MerkleTree::build(&top_leaves);
        for (g, group) in groups.iter().enumerate() {
            let top_proof = top.prove(g).expect("group in range");
            assert_eq!(proof_index(&top_proof), g);
            for (i, item) in group.iter().enumerate() {
                let bottom_proof = bottoms[g].prove(i).expect("item in range");
                let sub_root = fold_proof(leaf_digest(item), &bottom_proof);
                assert_eq!(sub_root, bottoms[g].root());
                assert!(verify_inclusion(&sub_root.0, &top_proof, &top.root()));
                // Concatenated steps through one verify_inclusion call
                // must fail: levels are domain-separated on purpose.
                let mut joined = bottom_proof.clone();
                joined.extend_from_slice(&top_proof);
                assert!(!verify_inclusion(item, &joined, &top.root()));
            }
        }
    }

    #[test]
    fn in_place_update_matches_a_rebuild() {
        for n in [1usize, 2, 3, 5, 8, 9, 128] {
            let mut data = items(n);
            let mut tree = MerkleTree::build(&data);
            // Two leaves sharing ancestors, one of them written twice.
            let changes = [
                (n - 1, b"last".to_vec()),
                (0, b"first".to_vec()),
                (n - 1, b"again".to_vec()),
            ];
            tree.update(&changes);
            for (i, item) in &changes {
                data[*i] = item.clone();
            }
            let rebuilt = MerkleTree::build(&data);
            assert_eq!(tree.root(), rebuilt.root(), "n={n}");
            for i in 0..n {
                assert_eq!(tree.prove(i), rebuilt.prove(i), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn out_of_range_update_panics_before_writing_any_leaf() {
        let data = items(5);
        let mut tree = MerkleTree::build(&data);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tree.update(&[
                (0, b"written first".to_vec()),
                (5, b"no such leaf".to_vec()),
            ]);
        }));
        assert!(caught.is_err());
        let intact = MerkleTree::build(&data);
        assert_eq!(tree.root(), intact.root());
        assert_eq!(tree.prove(0), intact.prove(0));
    }

    #[test]
    fn folded_root_matches_the_built_tree() {
        assert_eq!(root_of_leaf_digests(&mut []), Digest::ZERO);
        for n in [1usize, 2, 3, 5, 8, 9, 100] {
            let data = items(n);
            let mut level: Vec<Digest> = data.iter().map(|d| leaf_digest(d)).collect();
            assert_eq!(
                root_of_leaf_digests(&mut level),
                MerkleTree::build(&data).root(),
                "n={n}"
            );
        }
    }

    proptest! {
        /// Each fixed-shape hasher — interior node, leaf (over a
        /// digest, and over anything up to and past two blocks), chain
        /// link, and a keyed record through `digest_fields` — equals
        /// the portable kernel over the bytes it is defined to hash.
        #[test]
        fn fixed_shape_hashers_hash_their_concatenated_bytes(
            digests in prop::collection::vec(any::<u8>(), 64..65),
            key in any::<u64>(),
            value in prop::collection::vec(any::<u8>(), 0..300),
        ) {
            let oracle = |parts: &[&[u8]]| Digest(crate::sha256::portable_digest(&parts.concat()));
            let (left, right) = digests.split_at(32);
            let l = Digest(left.try_into().expect("32 bytes"));
            let r = Digest(right.try_into().expect("32 bytes"));
            prop_assert_eq!(node_hash(&l, &r), oracle(&[&[0x01], left, right]));
            prop_assert_eq!(leaf_digest(left), oracle(&[&[0x00], left]));
            prop_assert_eq!(leaf_digest(&value), oracle(&[&[0x00], &value]));
            prop_assert_eq!(crate::digest_chained(&l, &r), oracle(&[left, right]));
            let key = key.to_be_bytes();
            prop_assert_eq!(
                crate::digest_fields(&[&key, &value]),
                oracle(&[
                    &8u64.to_be_bytes(),
                    &key,
                    &(value.len() as u64).to_be_bytes(),
                    &value,
                ])
            );
        }
    }

    #[test]
    fn distinct_batches_distinct_roots() {
        let a = MerkleTree::build(&items(5));
        let mut data = items(5);
        data[2] = b"txn-TAMPERED".to_vec();
        let b = MerkleTree::build(&data);
        assert_ne!(a.root(), b.root());
    }
}
