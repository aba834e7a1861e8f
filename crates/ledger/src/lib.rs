//! The immutable blockchain ledger (the ResilientDB substrate of §6.1:
//! "each replica maintains an immutable blockchain ledger that holds an
//! ordered copy of all executed transactions … and strong cryptographic
//! proofs of their acceptance").
//!
//! Blocks are appended in the total execution order SpotLess produces
//! (`(view, instance)` across instances); each block chains over its
//! predecessor's hash and carries a commit-certificate summary. The
//! ledger supports integrity verification of the tail above its base
//! and provenance queries over it (which block holds a given batch; the
//! proof path for an auditor).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;

pub use audit::{batch_root, prove_transaction, verify_provenance, ProvenanceProof};

use serde::{Deserialize, Serialize};
use spotless_crypto::{KeyStore, VerifyError};
use spotless_types::{
    BatchId, CertPhase, ClusterConfig, Digest, InstanceId, ReplicaId, Signature, View,
    VoteStatement,
};
use std::collections::VecDeque;

/// The consensus proof behind a block: which replicas certified it, and
/// their signatures over the vote statement, so any third party holding
/// the cluster's public keys can re-check the quorum after the fact.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommitProof {
    /// The instance whose chain decided the block.
    pub instance: InstanceId,
    /// The view the certifying votes were cast in.
    pub view: View,
    /// Which quorum rule `signers` satisfies (strong `n − f` or weak
    /// `f + 1`); [`verify_proof`] enforces the matching minimum.
    pub phase: CertPhase,
    /// The digest the certifying votes were cast for (a proposal or
    /// block digest — the protocol's voting object, not necessarily the
    /// batch digest the block binds).
    pub voted: Digest,
    /// Log position bound by the votes, for protocols whose voted
    /// digest does not itself bind one (PBFT sequence numbers); zero
    /// elsewhere.
    pub slot: u64,
    /// Replicas whose signed votes certify the decision.
    pub signers: Vec<ReplicaId>,
    /// Each signer's Ed25519 signature over [`CommitProof::statement`],
    /// parallel to `signers`.
    pub sigs: Vec<Signature>,
}

impl CommitProof {
    /// The statement every signature in this proof covers.
    pub fn statement(&self) -> VoteStatement {
        VoteStatement {
            instance: self.instance,
            view: self.view,
            slot: self.slot,
            digest: self.voted,
        }
    }
}

/// Quorum arithmetic a [`CommitProof`] is verified against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProofRules {
    /// Cluster size: every signer id must be below this.
    pub n: u32,
    /// Minimum signer count for [`CertPhase::Strong`] proofs (`n − f`).
    pub strong: u32,
    /// Minimum signer count for [`CertPhase::Weak`] proofs (`f + 1`).
    pub weak: u32,
}

impl ProofRules {
    /// The rules for `cluster` (strong = `n − f`, weak = `f + 1`).
    pub fn for_cluster(cluster: &ClusterConfig) -> ProofRules {
        ProofRules {
            n: cluster.n,
            strong: cluster.quorum(),
            weak: cluster.weak_quorum(),
        }
    }
}

/// Why a [`CommitProof`] was rejected by [`verify_proof`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProofError {
    /// The signer set is empty.
    Empty,
    /// The signature list is not parallel to the signer list.
    SignatureCount {
        /// Number of signers listed.
        signers: u32,
        /// Number of signatures carried.
        sigs: u32,
    },
    /// A signer id is not a replica of the cluster.
    UnknownSigner(ReplicaId),
    /// A signer appears more than once.
    DuplicateSigner(ReplicaId),
    /// Fewer signers than the proof's phase requires.
    BelowQuorum {
        /// Distinct valid signers found.
        got: u32,
        /// The phase's minimum.
        need: u32,
    },
    /// At least one signature does not verify over the proof's vote
    /// statement (batch verification does not attribute blame; the
    /// inner error says how verification failed).
    BadSignature(VerifyError),
}

impl std::fmt::Display for ProofError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProofError::Empty => write!(f, "commit proof has no signers"),
            ProofError::SignatureCount { signers, sigs } => {
                write!(
                    f,
                    "commit proof lists {signers} signers but {sigs} signatures"
                )
            }
            ProofError::UnknownSigner(r) => {
                write!(f, "commit proof names unknown replica {}", r.0)
            }
            ProofError::DuplicateSigner(r) => {
                write!(f, "commit proof lists replica {} twice", r.0)
            }
            ProofError::BelowQuorum { got, need } => {
                write!(f, "commit proof has {got} signers, quorum needs {need}")
            }
            ProofError::BadSignature(e) => {
                write!(f, "commit proof signature rejected: {e}")
            }
        }
    }
}

impl std::error::Error for ProofError {}

/// The structural and quorum rules of a commit proof — everything
/// [`verify_proof`] checks short of a signature: non-empty, signature
/// list parallel to the signer list, every id a real replica, no
/// duplicates, at least the phase's quorum of distinct signers.
///
/// On its own this is only enough for a proof whose every (signer,
/// signature) pair the caller has *already* verified over
/// [`CommitProof::statement`] — the runtime's live path, where the
/// event loop's check of each vote decides which votes survive into
/// the proof, and re-verifying the survivors would check the same
/// signatures twice. Anything received from a peer goes through
/// [`verify_proof`].
pub fn verify_proof_rules(proof: &CommitProof, rules: &ProofRules) -> Result<(), ProofError> {
    if proof.signers.is_empty() {
        return Err(ProofError::Empty);
    }
    if proof.sigs.len() != proof.signers.len() {
        return Err(ProofError::SignatureCount {
            signers: proof.signers.len() as u32,
            sigs: proof.sigs.len() as u32,
        });
    }
    let mut seen = spotless_types::ReplicaSet::new(rules.n);
    for &r in &proof.signers {
        if r.0 >= rules.n {
            return Err(ProofError::UnknownSigner(r));
        }
        if !seen.insert(r) {
            return Err(ProofError::DuplicateSigner(r));
        }
    }
    let need = match proof.phase {
        CertPhase::Strong => rules.strong,
        CertPhase::Weak => rules.weak,
    };
    if seen.len() < need {
        return Err(ProofError::BelowQuorum {
            got: seen.len(),
            need,
        });
    }
    Ok(())
}

/// Verifies a commit proof against the cluster's quorum rules **and**
/// key material: [`verify_proof_rules`] first — cheap, and a proof that
/// fails them should be reported as malformed rather than as a
/// signature failure — then every signature verifies (via
/// [`KeyStore::verify_quorum`]) over the proof's vote statement. The
/// runtime calls this on every block received via state transfer
/// before it reaches durable storage, so a forged quorum is rejected
/// even when its signer *identities* look plausible; locally decided
/// blocks get the same two checks, the signature pass coming from the
/// event loop's vote memo.
pub fn verify_proof(
    proof: &CommitProof,
    rules: &ProofRules,
    keys: &KeyStore,
) -> Result<(), ProofError> {
    verify_proof_rules(proof, rules)?;
    let votes: Vec<(ReplicaId, Signature)> = proof
        .signers
        .iter()
        .copied()
        .zip(proof.sigs.iter().copied())
        .collect();
    keys.verify_quorum(&proof.statement().signing_bytes(), &votes)
        .map_err(ProofError::BadSignature)
}

/// One ledger block: an executed batch plus its consensus proof and the
/// post-execution state commitment (header v3).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Block {
    /// Position in the ledger (0 = first block).
    pub height: u64,
    /// Hash of the previous block (zero for the first block).
    pub parent: Digest,
    /// The executed batch's digest.
    pub batch_digest: Digest,
    /// The executed batch's id.
    pub batch_id: BatchId,
    /// Number of transactions in the batch.
    pub txns: u32,
    /// Merkle root over the replicated store's contents **after**
    /// executing this block (the workload crate's bucketed state tree).
    /// Anchoring execution state in the chain is what lets a snapshot
    /// receiver verify every transferred byte against the chain itself
    /// rather than against the serving peer's word. Execution order is
    /// therefore consensus-critical: blocks are sealed execute-first,
    /// and two replicas that executed the same committed sequence carry
    /// identical roots.
    pub state_root: Digest,
    /// Consensus proof summary.
    pub proof: CommitProof,
    /// This block's hash: `H(parent ‖ fields)`.
    pub hash: Digest,
}

impl Block {
    #[allow(clippy::too_many_arguments)]
    fn compute_hash(
        height: u64,
        parent: &Digest,
        batch_digest: &Digest,
        batch_id: BatchId,
        txns: u32,
        state_root: &Digest,
        proof: &CommitProof,
    ) -> Digest {
        // The hash binds the **canonical chain content**: position,
        // parent, batch identity, the post-execution state root, and
        // the consensus slot (instance, view) the batch was decided in.
        // It deliberately does NOT bind the certificate's phase, signer
        // set, signatures, or voted digest/slot: those are this
        // replica's *evidence* for the decision — different honest
        // replicas legitimately collect different (all valid) quorums
        // for the same decision, and folding them into the hash would
        // make replicas' chains diverge byte-wise despite identical
        // ordered content. Certificates are instead validated
        // independently by [`verify_proof`] wherever a block crosses a
        // trust boundary — and since [`verify_proof`] re-verifies the
        // signatures over the vote statement (voted digest and slot
        // included), tampering with the evidence is caught
        // cryptographically rather than by the chain hash. The domain
        // string is versioned: v2 blocks (no state root) hash under a
        // different domain, so the two header generations can never
        // collide.
        spotless_crypto::digest_fields(&[
            b"spotless-ledger-block-v3",
            &height.to_be_bytes(),
            &parent.0,
            &batch_digest.0,
            &batch_id.0.to_be_bytes(),
            &txns.to_be_bytes(),
            &state_root.0,
            &u64::from(proof.instance.0).to_be_bytes(),
            &proof.view.0.to_be_bytes(),
        ])
    }

    /// True iff this block's stored hash recomputes from its canonical
    /// content (see `Block::compute_hash`: the certificate's signer
    /// set is evidence, not content, and is verified separately).
    pub fn verify_hash(&self) -> bool {
        Block::compute_hash(
            self.height,
            &self.parent,
            &self.batch_digest,
            self.batch_id,
            self.txns,
            &self.state_root,
            &self.proof,
        ) == self.hash
    }
}

/// Errors surfaced by ledger verification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LedgerError {
    /// A block's stored hash does not match its contents.
    HashMismatch {
        /// Height of the offending block.
        height: u64,
    },
    /// A block's parent pointer does not match the previous block.
    BrokenChain {
        /// Height of the offending block.
        height: u64,
    },
    /// A pre-built block was appended at the wrong height.
    HeightMismatch {
        /// The block's stored height.
        got: u64,
        /// The height the chain head expected.
        expected: u64,
    },
}

impl std::fmt::Display for LedgerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LedgerError::HashMismatch { height } => {
                write!(f, "block {height}: stored hash does not match contents")
            }
            LedgerError::BrokenChain { height } => {
                write!(f, "block {height}: parent pointer broken")
            }
            LedgerError::HeightMismatch { got, expected } => {
                write!(
                    f,
                    "appended block has height {got}, chain head expects {expected}"
                )
            }
        }
    }
}

impl std::error::Error for LedgerError {}

/// An append-only, hash-chained ledger: the tail of the chain above
/// its base.
///
/// A ledger normally starts at genesis ([`Ledger::new`]); a replica that
/// recovers from a snapshot instead starts at the snapshot's base
/// ([`Ledger::with_base`]). Either way it holds only the tail above its
/// base, and [`Ledger::truncate_below`] moves the base up — the blocks
/// below it are summarized by the base hash, the way a snapshot
/// summarizes the log segments it lets the store prune (DESIGN.md §7.5
/// deviation 5).
#[derive(Default)]
pub struct Ledger {
    /// Height of the first block this ledger holds (0 at genesis).
    base_height: u64,
    /// Hash of the block just below the base (zero at genesis).
    base_hash: Digest,
    /// The tail, oldest first: `blocks[i]` sits at `base_height + i`.
    blocks: VecDeque<Block>,
}

impl Ledger {
    /// An empty ledger starting at genesis.
    pub fn new() -> Ledger {
        Ledger::default()
    }

    /// A ledger resuming from a trusted base: `base_height` blocks are
    /// summarized by `base_hash` (typically a snapshot's head hash) and
    /// are not materialized.
    pub fn with_base(base_height: u64, base_hash: Digest) -> Ledger {
        Ledger {
            base_height,
            base_hash,
            blocks: VecDeque::new(),
        }
    }

    /// Height of the first block this ledger materializes.
    pub fn base_height(&self) -> u64 {
        self.base_height
    }

    /// Ledger height (total number of blocks, including the pruned
    /// prefix below the base).
    pub fn height(&self) -> u64 {
        self.base_height + self.blocks.len() as u64
    }

    /// Hash of the newest block (the base hash when no block has been
    /// appended above the base).
    pub fn head_hash(&self) -> Digest {
        self.blocks.back().map_or(self.base_hash, |b| b.hash)
    }

    /// Appends an executed batch, sealing `state_root` — the store's
    /// Merkle commitment *after* executing the batch — into the block.
    /// Callers must therefore execute before appending (execute-then-
    /// seal); the runtime's pipeline asserts that ordering.
    pub fn append(
        &mut self,
        batch_id: BatchId,
        batch_digest: Digest,
        txns: u32,
        state_root: Digest,
        proof: CommitProof,
    ) -> &Block {
        let height = self.height();
        let parent = self.head_hash();
        let hash = Block::compute_hash(
            height,
            &parent,
            &batch_digest,
            batch_id,
            txns,
            &state_root,
            &proof,
        );
        self.blocks.push_back(Block {
            height,
            parent,
            batch_digest,
            batch_id,
            txns,
            state_root,
            proof,
            hash,
        });
        self.blocks.back().expect("just pushed")
    }

    /// Appends a block that was built elsewhere (decoded from the
    /// durable log, or received via state transfer), validating that it
    /// extends the current head: right height, right parent pointer,
    /// and a hash that recomputes from its contents.
    pub fn append_existing(&mut self, block: Block) -> Result<(), LedgerError> {
        let expected = self.height();
        if block.height != expected {
            return Err(LedgerError::HeightMismatch {
                got: block.height,
                expected,
            });
        }
        if block.parent != self.head_hash() {
            return Err(LedgerError::BrokenChain {
                height: block.height,
            });
        }
        if !block.verify_hash() {
            return Err(LedgerError::HashMismatch {
                height: block.height,
            });
        }
        self.blocks.push_back(block);
        Ok(())
    }

    /// Moves the base up to `height` (at most the head), dropping the
    /// blocks below it, and returns the block just below the new base —
    /// `None` when the base does not move.
    pub fn truncate_below(&mut self, height: u64) -> Option<Block> {
        let drop = height.min(self.height()).saturating_sub(self.base_height);
        let below = self.blocks.drain(..drop as usize).next_back()?;
        self.base_height = below.height + 1;
        self.base_hash = below.hash;
        Some(below)
    }

    /// The block at `height` (`None` outside the tail: below the base,
    /// or above the head).
    pub fn block(&self, height: u64) -> Option<&Block> {
        let idx = height.checked_sub(self.base_height)?;
        self.blocks.get(idx as usize)
    }

    /// Provenance: the block in the tail that holds `batch`, searched
    /// newest first.
    pub fn find_batch(&self, batch: BatchId) -> Option<&Block> {
        self.blocks.iter().rev().find(|b| b.batch_id == batch)
    }

    /// Provenance proof: the hash path from `height` to the head. An
    /// auditor holding only the head hash can verify the path binds the
    /// block to the chain.
    pub fn proof_path(&self, height: u64) -> Option<Vec<Digest>> {
        if height >= self.height() {
            return None;
        }
        let idx = height.checked_sub(self.base_height)?;
        Some(self.blocks.range(idx as usize..).map(|b| b.hash).collect())
    }

    /// Verifies the materialized chain: every hash recomputes and every
    /// parent pointer links, starting from the base hash.
    pub fn verify(&self) -> Result<(), LedgerError> {
        let mut parent = self.base_hash;
        for (b, expected) in self.blocks.iter().zip(self.base_height..) {
            if b.height != expected {
                return Err(LedgerError::HeightMismatch {
                    got: b.height,
                    expected,
                });
            }
            if b.parent != parent {
                return Err(LedgerError::BrokenChain { height: b.height });
            }
            if !b.verify_hash() {
                return Err(LedgerError::HashMismatch { height: b.height });
            }
            parent = b.hash;
        }
        Ok(())
    }

    /// Iterates blocks in order.
    pub fn iter(&self) -> impl Iterator<Item = &Block> {
        self.blocks.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proof(view: u64) -> CommitProof {
        CommitProof {
            instance: InstanceId(0),
            view: View(view),
            phase: CertPhase::Strong,
            voted: Digest::from_u64(view * 31 + 5),
            slot: 0,
            signers: vec![ReplicaId(0), ReplicaId(1), ReplicaId(2)],
            sigs: vec![spotless_types::Signature::ZERO; 3],
        }
    }

    /// Key stores for the 4-replica test cluster the proof fixtures
    /// name their signers from.
    fn stores() -> Vec<KeyStore> {
        KeyStore::cluster(b"ledger-proof-tests", 4)
    }

    /// A [`proof`] whose signatures actually verify under [`stores`].
    fn signed_proof(view: u64) -> CommitProof {
        let mut p = proof(view);
        sign(&mut p);
        p
    }

    /// Replaces `p`'s signatures with real ones from [`stores`].
    fn sign(p: &mut CommitProof) {
        let stores = stores();
        let stmt = p.statement();
        p.sigs = p
            .signers
            .iter()
            .map(|&r| stores[r.0 as usize].sign_vote(&stmt))
            .collect();
    }

    fn sample_ledger(blocks: u64) -> Ledger {
        let mut ledger = Ledger::new();
        for i in 0..blocks {
            ledger.append(
                BatchId(i),
                Digest::from_u64(i),
                100,
                Digest::from_u64(i * 1000 + 7),
                proof(i),
            );
        }
        ledger
    }

    #[test]
    fn append_links_blocks() {
        let ledger = sample_ledger(3);
        assert_eq!(ledger.height(), 3);
        assert_eq!(
            ledger.block(1).unwrap().parent,
            ledger.block(0).unwrap().hash
        );
        assert_eq!(ledger.head_hash(), ledger.block(2).unwrap().hash);
        ledger.verify().expect("valid chain");
    }

    #[test]
    fn tampering_with_contents_is_detected() {
        let mut ledger = sample_ledger(3);
        ledger.blocks[1].txns = 999;
        assert_eq!(
            ledger.verify(),
            Err(LedgerError::HashMismatch { height: 1 })
        );
    }

    #[test]
    fn tampering_with_links_is_detected() {
        let mut ledger = sample_ledger(3);
        ledger.blocks[2].parent = Digest::from_u64(12345);
        assert_eq!(ledger.verify(), Err(LedgerError::BrokenChain { height: 2 }));
    }

    #[test]
    fn batch_provenance_lookup() {
        let ledger = sample_ledger(5);
        let block = ledger.find_batch(BatchId(3)).expect("present");
        assert_eq!(block.height, 3);
        assert!(ledger.find_batch(BatchId(99)).is_none());
    }

    #[test]
    fn proof_paths_reach_the_head() {
        let ledger = sample_ledger(5);
        let path = ledger.proof_path(2).expect("exists");
        assert_eq!(path.len(), 3); // blocks 2, 3, 4
        assert_eq!(*path.last().unwrap(), ledger.head_hash());
        assert!(ledger.proof_path(9).is_none());
    }

    #[test]
    fn empty_ledger_verifies() {
        assert!(Ledger::new().verify().is_ok());
        assert_eq!(Ledger::new().head_hash(), Digest::ZERO);
    }

    #[test]
    fn error_messages_are_descriptive() {
        let e = LedgerError::HashMismatch { height: 7 };
        assert!(e.to_string().contains("block 7"));
        let e = LedgerError::HeightMismatch {
            got: 9,
            expected: 4,
        };
        assert!(e.to_string().contains('9') && e.to_string().contains('4'));
    }

    #[test]
    fn append_existing_accepts_blocks_built_elsewhere() {
        let source = sample_ledger(4);
        let mut replayed = Ledger::new();
        for b in source.iter() {
            replayed.append_existing(b.clone()).expect("valid block");
        }
        assert_eq!(replayed.height(), 4);
        assert_eq!(replayed.head_hash(), source.head_hash());
        replayed.verify().expect("replayed chain verifies");
    }

    #[test]
    fn append_existing_rejects_wrong_height() {
        let source = sample_ledger(4);
        let mut replayed = Ledger::new();
        let err = replayed
            .append_existing(source.block(2).unwrap().clone())
            .unwrap_err();
        assert_eq!(
            err,
            LedgerError::HeightMismatch {
                got: 2,
                expected: 0
            }
        );
    }

    #[test]
    fn append_existing_rejects_broken_parent() {
        let source = sample_ledger(2);
        let mut replayed = Ledger::new();
        let mut b = source.block(0).unwrap().clone();
        b.parent = Digest::from_u64(999);
        assert_eq!(
            replayed.append_existing(b),
            Err(LedgerError::BrokenChain { height: 0 })
        );
    }

    #[test]
    fn append_existing_rejects_tampered_hash() {
        let source = sample_ledger(2);
        let mut replayed = Ledger::new();
        let mut b = source.block(0).unwrap().clone();
        b.txns = 12345; // hash no longer recomputes
        assert_eq!(
            replayed.append_existing(b),
            Err(LedgerError::HashMismatch { height: 0 })
        );
    }

    #[test]
    fn based_ledger_resumes_above_a_snapshot() {
        // Build a full chain, then rebuild just the tail above height 3
        // the way snapshot recovery does.
        let full = sample_ledger(6);
        let base_hash = full.block(2).unwrap().hash;
        let mut tail = Ledger::with_base(3, base_hash);
        assert_eq!(tail.height(), 3);
        assert_eq!(tail.head_hash(), base_hash);
        for h in 3..6 {
            tail.append_existing(full.block(h).unwrap().clone())
                .expect("tail block links");
        }
        assert_eq!(tail.height(), 6);
        assert_eq!(tail.head_hash(), full.head_hash());
        tail.verify().expect("tail verifies from base");
        // Pruned heights are absent; materialized heights resolve.
        assert!(tail.block(1).is_none());
        assert_eq!(tail.block(4).unwrap().height, 4);
        assert!(tail.proof_path(1).is_none());
        assert_eq!(tail.proof_path(4).unwrap().len(), 2);
    }

    #[test]
    fn based_ledger_rejects_tail_that_does_not_link() {
        let full = sample_ledger(6);
        let mut tail = Ledger::with_base(3, Digest::from_u64(424242));
        assert_eq!(
            tail.append_existing(full.block(3).unwrap().clone()),
            Err(LedgerError::BrokenChain { height: 3 })
        );
    }

    #[test]
    fn based_ledger_appends_fresh_batches() {
        // After recovery a replica keeps executing: fresh appends chain
        // over the recovered head exactly like genesis-rooted appends.
        let full = sample_ledger(3);
        let mut tail = Ledger::with_base(3, full.head_hash());
        let block = tail.append(
            BatchId(77),
            Digest::from_u64(77),
            50,
            Digest::from_u64(7777),
            proof(9),
        );
        assert_eq!(block.height, 3);
        assert_eq!(block.parent, full.head_hash());
        tail.verify().expect("chains over the base");
        assert_eq!(tail.find_batch(BatchId(77)).unwrap().height, 3);
    }

    #[test]
    fn truncating_moves_the_base_up_and_the_tail_still_verifies() {
        let full = sample_ledger(6);
        let mut tail = sample_ledger(6);
        assert_eq!(tail.truncate_below(0), None, "the base is already 0");
        assert_eq!(tail.truncate_below(4).as_ref(), full.block(3));
        assert_eq!((tail.base_height(), tail.height()), (4, 6));
        assert_eq!(tail.head_hash(), full.head_hash());
        assert!(tail.block(3).is_none());
        assert!(tail.find_batch(BatchId(3)).is_none(), "only the tail");
        assert_eq!(tail.find_batch(BatchId(4)).unwrap().height, 4);
        tail.verify().expect("verifies from the new base");
        assert_eq!(tail.truncate_below(2), None, "the base never moves down");
        // Past the head the base stops at the head, and the next block
        // chains over the one just dropped.
        assert_eq!(tail.truncate_below(99).as_ref(), full.block(5));
        assert_eq!(
            (tail.base_height(), tail.head_hash()),
            (6, full.head_hash())
        );
        let next = tail.append(BatchId(6), Digest::from_u64(6), 1, Digest::ZERO, proof(6));
        assert_eq!(next.parent, full.head_hash());
        tail.verify().expect("chains over the moved base");
    }

    fn rules_n4() -> ProofRules {
        ProofRules {
            n: 4,
            strong: 3,
            weak: 2,
        }
    }

    #[test]
    fn verify_proof_accepts_valid_quorums() {
        let rules = rules_n4();
        let keys = &stores()[0];
        verify_proof(&signed_proof(1), &rules, keys)
            .expect("strong quorum of 3 distinct known signers");
        let mut weak = CommitProof {
            instance: InstanceId(0),
            view: View(1),
            phase: CertPhase::Weak,
            voted: Digest::from_u64(36),
            slot: 0,
            signers: vec![ReplicaId(3), ReplicaId(1)],
            sigs: Vec::new(),
        };
        sign(&mut weak);
        verify_proof(&weak, &rules, keys).expect("weak quorum of 2");
    }

    #[test]
    fn verify_proof_rejects_empty_signer_sets() {
        let mut p = proof(1);
        p.signers.clear();
        p.sigs.clear();
        assert_eq!(
            verify_proof(&p, &rules_n4(), &stores()[0]),
            Err(ProofError::Empty)
        );
    }

    #[test]
    fn verify_proof_rejects_unparallel_signature_lists() {
        let mut p = signed_proof(1);
        p.sigs.pop();
        assert_eq!(
            verify_proof(&p, &rules_n4(), &stores()[0]),
            Err(ProofError::SignatureCount {
                signers: 3,
                sigs: 2
            })
        );
    }

    #[test]
    fn verify_proof_rejects_duplicate_signers() {
        // Four entries — enough to pass a naive count-style check — but
        // only three distinct replicas padded with a repeat.
        let mut p = proof(1);
        p.signers = vec![ReplicaId(0), ReplicaId(1), ReplicaId(1), ReplicaId(2)];
        sign(&mut p);
        assert_eq!(
            verify_proof(&p, &rules_n4(), &stores()[0]),
            Err(ProofError::DuplicateSigner(ReplicaId(1)))
        );
    }

    #[test]
    fn verify_proof_rejects_unknown_replica_ids() {
        let mut p = proof(1);
        p.signers = vec![ReplicaId(0), ReplicaId(1), ReplicaId(9)];
        assert_eq!(
            verify_proof(&p, &rules_n4(), &stores()[0]),
            Err(ProofError::UnknownSigner(ReplicaId(9)))
        );
    }

    #[test]
    fn verify_proof_enforces_phase_minimums() {
        let rules = rules_n4();
        let keys = &stores()[0];
        let mut p = proof(1);
        p.signers = vec![ReplicaId(0), ReplicaId(1)];
        sign(&mut p);
        // Two signers miss the strong quorum of 3…
        assert_eq!(
            verify_proof(&p, &rules, keys),
            Err(ProofError::BelowQuorum { got: 2, need: 3 })
        );
        // …but satisfy a weak (f + 1) certificate.
        p.phase = CertPhase::Weak;
        verify_proof(&p, &rules, keys).expect("weak minimum is 2");
        p.signers = vec![ReplicaId(0)];
        sign(&mut p);
        assert_eq!(
            verify_proof(&p, &rules, keys),
            Err(ProofError::BelowQuorum { got: 1, need: 2 })
        );
    }

    #[test]
    fn verify_proof_rejects_forged_signatures() {
        let rules = rules_n4();
        let keys = &stores()[0];
        // One signature flipped: the identities still form a perfect
        // quorum, but the cryptographic re-check refuses the proof —
        // the exact forgery the identity-only checker used to admit.
        let mut p = signed_proof(1);
        p.sigs[1].0[17] ^= 0x40;
        assert!(matches!(
            verify_proof(&p, &rules, keys),
            Err(ProofError::BadSignature(_))
        ));
        // All-zero placeholders (simulation fixtures) never verify.
        let mut p = signed_proof(1);
        p.sigs[2] = spotless_types::Signature::ZERO;
        assert!(matches!(
            verify_proof(&p, &rules, keys),
            Err(ProofError::BadSignature(_))
        ));
        // Valid signatures over a *different* statement do not transfer:
        // tampering with the voted digest (or slot) invalidates them.
        let mut p = signed_proof(1);
        p.voted = Digest::from_u64(999);
        assert!(matches!(
            verify_proof(&p, &rules, keys),
            Err(ProofError::BadSignature(_))
        ));
        let mut p = signed_proof(1);
        p.slot = 7;
        assert!(matches!(
            verify_proof(&p, &rules, keys),
            Err(ProofError::BadSignature(_))
        ));
    }

    #[test]
    fn rules_pass_checks_structure_and_quorum_but_no_signature() {
        let rules = rules_n4();
        // The rules alone say nothing about signatures: a forged one
        // passes them and only the full check objects.
        let mut forged = signed_proof(1);
        forged.sigs[0] = spotless_types::Signature::ZERO;
        assert_eq!(verify_proof_rules(&forged, &rules), Ok(()));
        assert!(verify_proof(&forged, &rules, &stores()[0]).is_err());
        // Every structural rejection is theirs, with the same error
        // the full check reports.
        let mut short = signed_proof(1);
        short.signers.truncate(2);
        short.sigs.truncate(2);
        assert_eq!(
            verify_proof_rules(&short, &rules),
            Err(ProofError::BelowQuorum { got: 2, need: 3 })
        );
        assert_eq!(
            verify_proof(&short, &rules, &stores()[0]),
            verify_proof_rules(&short, &rules)
        );
    }

    #[test]
    fn proof_rules_come_from_cluster_arithmetic() {
        let rules = ProofRules::for_cluster(&ClusterConfig::new(7));
        assert_eq!(
            rules,
            ProofRules {
                n: 7,
                strong: 5,
                weak: 3
            }
        );
    }

    #[test]
    fn block_hash_binds_content_but_not_the_evidence() {
        let ledger = sample_ledger(2);
        let mut b = ledger.block(1).unwrap().clone();
        assert!(b.verify_hash());
        b.txns = 999;
        assert!(!b.verify_hash(), "content tampering must break the hash");
        let mut b = ledger.block(1).unwrap().clone();
        b.proof.view = View(77);
        assert!(!b.verify_hash(), "slot tampering must break the hash");
        let mut b = ledger.block(1).unwrap().clone();
        b.state_root = Digest::from_u64(666);
        assert!(
            !b.verify_hash(),
            "state-root tampering must break the hash — the chain anchors execution state"
        );
        // The signer set is per-replica *evidence*, not chain content:
        // two honest replicas may hold different valid quorums for the
        // same decision, so the hash must not bind it — `verify_proof`
        // validates it instead wherever a block crosses a trust
        // boundary.
        let mut b = ledger.block(1).unwrap().clone();
        b.proof.signers = vec![ReplicaId(1), ReplicaId(2), ReplicaId(3)];
        b.proof.phase = CertPhase::Strong;
        assert!(
            b.verify_hash(),
            "a different valid quorum must hash identically"
        );
        // Same for the signatures and the statement fields they cover
        // (voted digest, slot): they live on the evidence side of the
        // split, guarded by `verify_proof`'s cryptographic re-check
        // rather than by the chain hash.
        let mut b = ledger.block(1).unwrap().clone();
        b.proof.sigs = vec![spotless_types::Signature([7u8; 64]); 3];
        b.proof.voted = Digest::from_u64(31337);
        assert!(
            b.verify_hash(),
            "certificate evidence must not feed the chain hash"
        );
    }

    #[test]
    fn verify_catches_height_gaps() {
        let mut ledger = sample_ledger(3);
        ledger.blocks[2].height = 7;
        assert!(matches!(
            ledger.verify(),
            Err(LedgerError::HeightMismatch {
                got: 7,
                expected: 2
            })
        ));
    }
}
