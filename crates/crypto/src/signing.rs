//! Digital signatures and the cluster key store.
//!
//! Signed messages (`⟨v⟩_p` in the paper's notation) are required whenever
//! a message may be forwarded — proposals, `Sync` claims used in
//! certificates, and client requests (§2). Key generation is
//! deterministic from seeds so test clusters are reproducible.
//!
//! # Real Ed25519
//!
//! Signatures are RFC 8032 Ed25519, implemented from scratch in the
//! workspace's `compat/ed25519` crate (the build environment has no
//! crates.io access, so `ed25519-dalek` is out — the same situation that
//! produced `compat/sha2`). This replaced an earlier keyed-hash
//! stand-in that anyone holding a public key could forge under; with
//! real asymmetric signatures, a quorum certificate is now evidence
//! that the named replicas actually voted, which is what lets
//! `spotless-ledger` re-verify `CommitProof` signatures at append time
//! and state transfer reject forged chain extensions.
//!
//! The API is shaped by what real signatures need and the stand-in
//! couldn't express:
//!
//! * verification returns a typed [`VerifyError`] instead of `bool`
//!   (callers migrating from the old API: `verify(...)` →
//!   `verify(...).is_ok()` is the mechanical translation, but prefer
//!   propagating the error — it says *why* a certificate was rejected);
//! * [`PublicKey::from_bytes`] is fallible: point decompression rejects
//!   non-canonical encodings, and small-order (torsion) points are
//!   refused outright since signatures by them say nothing about who
//!   signed;
//! * [`Keypair`] holds an actual secret scalar — only the seed holder
//!   can sign;
//! * [`KeyStore`] verifies from precomputed tables: every signature a
//!   replica checks is by one of the `n` cluster keys, so each key gets
//!   a 30 KiB table of its multiples (built on first use, shared by
//!   every store and clone of the cluster) and a verification is two
//!   table walks instead of a 253-step doubling chain — ≈ 25–30 µs
//!   where the generic computation ([`PublicKey::verify`], kept as the
//!   test and bench reference) takes ≈ 65 µs;
//! * [`KeyStore::verify_batch_refs`] folds a batch by signer, so an
//!   ingress run of envelopes, with the votes their messages carry,
//!   costs two table walks per signer in it plus a short shared chain
//!   for the nonce points. A certificate's
//!   signers are distinct, so [`KeyStore::verify_quorum`] is a loop
//!   over [`KeyStore::verify`].
//!
//! One caveat survives from the stand-in era: the underlying arithmetic
//! is variable-time. Verification only ever touches public data, but a
//! production deployment signing high-value keys adjacent to untrusted
//! timers would want a constant-time signer.

use std::sync::{Arc, OnceLock};

use crate::sha256::Sha256;
use spotless_types::{ReplicaId, Signature, VoteStatement};

pub use spotless_types::SIGNATURE_LEN;

/// Why a key or signature was rejected. Ordered roughly by how early in
/// the pipeline the rejection happens: key parsing, signature parsing,
/// then the verification equation itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// 32 bytes that are not the canonical encoding of a curve point
    /// (a non-canonical y ≥ p, an x that is not on the curve, or a
    /// "−0" sign bit).
    MalformedKey,
    /// A public key whose point has small order (divides the cofactor
    /// 8): any signature verifies ambiguously under such a key.
    WeakKey,
    /// The signature's R half is not a canonical curve point encoding.
    MalformedSignature,
    /// The signature's S half is ≥ the group order L (RFC 8032 forbids
    /// this; accepting it would make signatures malleable).
    NonCanonicalScalar,
    /// The verification equation does not hold: the signature was not
    /// produced by this key over this message.
    BadSignature,
    /// The claimed signer is outside the cluster's key set.
    UnknownSigner(ReplicaId),
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::MalformedKey => write!(f, "malformed public key encoding"),
            VerifyError::WeakKey => write!(f, "small-order public key"),
            VerifyError::MalformedSignature => write!(f, "malformed signature R point"),
            VerifyError::NonCanonicalScalar => write!(f, "signature scalar S out of range"),
            VerifyError::BadSignature => write!(f, "signature does not verify"),
            VerifyError::UnknownSigner(r) => write!(f, "unknown signer {r}"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Maps a low-level Ed25519 error in *signature* position (never key
/// position — key errors are handled at [`PublicKey::from_bytes`]).
fn sig_error(e: ed25519::Error) -> VerifyError {
    match e {
        ed25519::Error::MalformedPoint => VerifyError::MalformedSignature,
        ed25519::Error::NonCanonicalScalar => VerifyError::NonCanonicalScalar,
        // A small-order R is legal per RFC 8032; the ed25519 crate only
        // reports SmallOrderKey for keys, which we validated earlier.
        ed25519::Error::SmallOrderKey | ed25519::Error::BadSignature => VerifyError::BadSignature,
    }
}

/// A verifying (public) key: a validated point on edwards25519.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PublicKey(ed25519::VerifyingKey);

impl PublicKey {
    /// Verifies `sig` over `message` the generic way — one fresh
    /// double-scalar multiplication, no table. This is the reference
    /// [`KeyStore::verify`] is tested and benchmarked against; the
    /// key store itself never calls it.
    pub fn verify(&self, message: &[u8], sig: &Signature) -> Result<(), VerifyError> {
        self.0.verify(message, &sig.0).map_err(sig_error)
    }

    /// The compressed 32-byte key encoding.
    pub fn to_bytes(&self) -> [u8; 32] {
        self.0.to_bytes()
    }

    /// Parses and validates 32 bytes of key material. Fails with
    /// [`VerifyError::MalformedKey`] on anything that is not a
    /// canonical point encoding and [`VerifyError::WeakKey`] on
    /// small-order points.
    pub fn from_bytes(bytes: &[u8; 32]) -> Result<PublicKey, VerifyError> {
        match ed25519::VerifyingKey::from_bytes(bytes) {
            Ok(vk) => Ok(PublicKey(vk)),
            Err(ed25519::Error::SmallOrderKey) => Err(VerifyError::WeakKey),
            Err(_) => Err(VerifyError::MalformedKey),
        }
    }
}

/// A signing keypair holding a real secret scalar; only the seed holder
/// can produce signatures.
#[derive(Clone)]
pub struct Keypair {
    signing: ed25519::SigningKey,
    public: PublicKey,
}

impl Keypair {
    /// Builds a keypair deterministically from a 32-byte seed
    /// (RFC 8032 seed expansion).
    pub fn from_seed(seed: [u8; 32]) -> Keypair {
        let signing = ed25519::SigningKey::from_seed(&seed);
        let public = PublicKey(*signing.verifying_key());
        Keypair { signing, public }
    }

    /// Derives the keypair for participant `label`/`index` from a cluster
    /// master secret (test and simulation deployments).
    pub fn derive(master: &[u8], label: &str, index: u64) -> Keypair {
        // Length-prefix each component so distinct (master, label)
        // splits can never concatenate to the same byte string.
        let mut material = Vec::with_capacity(master.len() + label.len() + 24);
        material.extend_from_slice(&(master.len() as u64).to_be_bytes());
        material.extend_from_slice(master);
        material.extend_from_slice(&(label.len() as u64).to_be_bytes());
        material.extend_from_slice(label.as_bytes());
        material.extend_from_slice(&index.to_be_bytes());
        Keypair::from_seed(Sha256::digest(&material))
    }

    /// The matching public key.
    pub fn public(&self) -> PublicKey {
        self.public
    }

    /// Signs `message`.
    pub fn sign(&self, message: &[u8]) -> Signature {
        Signature(self.signing.sign(message))
    }
}

/// One replica's public key and, once anything has been verified under
/// it, the key's precomputed table.
struct Signer {
    key: PublicKey,
    /// Built on the first verification under `key` (≈ 0.4 ms, 30 KiB)
    /// and never again: the cell lives behind the `Arc` every store of
    /// the cluster shares.
    table: OnceLock<ed25519::PrecomputedKey>,
}

/// Per-replica view of the cluster's key material: everyone's public keys
/// plus this replica's own signing key.
///
/// Every verification runs against one of `n + 1` points known when the
/// store is built — the basepoint and the `n` replica keys — so each key
/// gets an `ed25519::PrecomputedKey` (a 30 KiB table of its multiples)
/// and `[S]B + [−k]A` is two table walks with no doubling chain. A table
/// is built lazily, on the first signature checked under its key, so
/// `cluster` costs no more than key derivation however large `n` is; all
/// stores returned by one `cluster` call, and all their clones, share
/// one table per signer.
#[derive(Clone)]
pub struct KeyStore {
    me: ReplicaId,
    keypair: Keypair,
    signers: Arc<[Signer]>,
}

impl KeyStore {
    /// Builds key stores for a full cluster of `n` replicas from a master
    /// secret. Returns one store per replica.
    pub fn cluster(master: &[u8], n: u32) -> Vec<KeyStore> {
        let keypairs: Vec<Keypair> = (0..n)
            .map(|i| Keypair::derive(master, "replica", u64::from(i)))
            .collect();
        let signers: Arc<[Signer]> = keypairs
            .iter()
            .map(|keypair| Signer {
                key: keypair.public(),
                table: OnceLock::new(),
            })
            .collect();
        keypairs
            .into_iter()
            .enumerate()
            .map(|(i, keypair)| KeyStore {
                me: ReplicaId(i as u32),
                keypair,
                signers: Arc::clone(&signers),
            })
            .collect()
    }

    /// The precomputed key of `signer`, built on first use.
    fn signer(&self, signer: ReplicaId) -> Result<&ed25519::PrecomputedKey, VerifyError> {
        let entry = self
            .signers
            .get(signer.as_usize())
            .ok_or(VerifyError::UnknownSigner(signer))?;
        Ok(entry
            .table
            .get_or_init(|| ed25519::PrecomputedKey::new(&entry.key.0)))
    }

    /// This replica's identity.
    pub fn me(&self) -> ReplicaId {
        self.me
    }

    /// Number of replicas whose keys this store holds.
    pub fn n(&self) -> usize {
        self.signers.len()
    }

    /// Signs with this replica's key.
    pub fn sign(&self, message: &[u8]) -> Signature {
        self.keypair.sign(message)
    }

    /// Signs a vote statement with this replica's key.
    pub fn sign_vote(&self, statement: &VoteStatement) -> Signature {
        self.sign(&statement.signing_bytes())
    }

    /// [`sign`](KeyStore::sign) over each message in turn: every
    /// signature walks the fixed-base table, so a batch buys nothing a
    /// single call lacks. Kept only because the deployment benchmark
    /// (`benchmark/src/replay.rs`) times it.
    pub fn sign_batch(&self, messages: &[&[u8]]) -> Vec<Signature> {
        messages.iter().map(|message| self.sign(message)).collect()
    }

    /// Verifies a signature attributed to `signer`.
    pub fn verify(
        &self,
        signer: ReplicaId,
        message: &[u8],
        sig: &Signature,
    ) -> Result<(), VerifyError> {
        self.signer(signer)?
            .verify(message, &sig.0)
            .map_err(sig_error)
    }

    /// Verifies a vote signature attributed to `signer`.
    pub fn verify_vote(
        &self,
        signer: ReplicaId,
        statement: &VoteStatement,
        sig: &Signature,
    ) -> Result<(), VerifyError> {
        self.verify(signer, &statement.signing_bytes(), sig)
    }

    /// Verifies a quorum's signatures over one shared `message` (the
    /// vote statement everyone signed), one [`verify`](KeyStore::verify)
    /// each: a certificate's signers are distinct, so a batch would have
    /// nothing to fold. `Ok` iff *every* vote checks out, else the first
    /// failure's error — this is the entry point `ledger::verify_proof`
    /// uses to re-verify `CommitProof` signatures at append time.
    pub fn verify_quorum(
        &self,
        message: &[u8],
        votes: &[(ReplicaId, Signature)],
    ) -> Result<(), VerifyError> {
        votes
            .iter()
            .try_for_each(|(signer, sig)| self.verify(*signer, message, sig))
    }

    /// Which of `votes` verify over `message`, in one serial pass: the
    /// sanitizing counterpart to [`verify_quorum`] for live
    /// certificates, where a Byzantine replica may have attached garbage
    /// alongside honest votes and all-or-nothing rejection would poison
    /// honest commits.
    ///
    /// [`verify_quorum`]: KeyStore::verify_quorum
    pub fn filter_valid(&self, message: &[u8], votes: &[(ReplicaId, Signature)]) -> Vec<bool> {
        votes
            .iter()
            .map(|(signer, sig)| self.verify(*signer, message, sig).is_ok())
            .collect()
    }

    /// Public key of `replica`.
    pub fn public_of(&self, replica: ReplicaId) -> Option<&PublicKey> {
        self.signers.get(replica.as_usize()).map(|s| &s.key)
    }

    /// Batch-verifies independent `(signer, message, sig)` triples,
    /// borrowing the messages where they lie (the ingress task's
    /// received buffers). `Ok` iff every triple
    /// verifies (empty is `Ok`); an unknown signer fails the whole batch
    /// with [`VerifyError::UnknownSigner`].
    ///
    /// What a batch buys over calling [`verify`](KeyStore::verify) on
    /// each: all signatures by one signer share a single walk of that
    /// signer's table, and all of them share one walk of the
    /// basepoint's; only the nonce points `R` ride a common doubling
    /// chain. Short batches, where that chain costs more than it
    /// saves, are verified serially inside `ed25519::verify_batch` —
    /// callers need no size check of their own. Failure does not
    /// attribute blame — re-verify serially to find the culprits.
    pub fn verify_batch_refs(
        &self,
        items: &[(ReplicaId, &[u8], &Signature)],
    ) -> Result<(), VerifyError> {
        let refs = items
            .iter()
            .map(|(signer, message, sig)| Ok((self.signer(*signer)?, *message, &sig.0)))
            .collect::<Result<Vec<_>, VerifyError>>()?;
        ed25519::verify_batch(&refs).map_err(sig_error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_roundtrip() {
        let kp = Keypair::from_seed([42u8; 32]);
        let sig = kp.sign(b"propose v7");
        assert!(kp.public().verify(b"propose v7", &sig).is_ok());
        assert_eq!(
            kp.public().verify(b"propose v8", &sig),
            Err(VerifyError::BadSignature)
        );
    }

    #[test]
    fn derivation_is_deterministic_and_distinct() {
        let a1 = Keypair::derive(b"master", "replica", 0);
        let a2 = Keypair::derive(b"master", "replica", 0);
        let b = Keypair::derive(b"master", "replica", 1);
        assert_eq!(a1.public().to_bytes(), a2.public().to_bytes());
        assert_ne!(a1.public().to_bytes(), b.public().to_bytes());
    }

    #[test]
    fn public_key_byte_roundtrip() {
        let kp = Keypair::from_seed([9u8; 32]);
        let bytes = kp.public().to_bytes();
        let back = PublicKey::from_bytes(&bytes).unwrap();
        let sig = kp.sign(b"x");
        assert!(back.verify(b"x", &sig).is_ok());
    }

    #[test]
    fn from_bytes_rejects_non_canonical_encodings() {
        // y = p: a non-canonical encoding of y = 0.
        let mut non_canonical = [0xffu8; 32];
        non_canonical[0] = 0xed;
        non_canonical[31] = 0x7f;
        assert_eq!(
            PublicKey::from_bytes(&non_canonical),
            Err(VerifyError::MalformedKey)
        );
        // An x that is not on the curve.
        let mut off_curve = [0u8; 32];
        off_curve[0] = 2;
        assert_eq!(
            PublicKey::from_bytes(&off_curve),
            Err(VerifyError::MalformedKey)
        );
    }

    #[test]
    fn from_bytes_rejects_small_order_points() {
        // The identity (0, 1).
        let mut ident = [0u8; 32];
        ident[0] = 1;
        assert_eq!(PublicKey::from_bytes(&ident), Err(VerifyError::WeakKey));
        // The order-2 point (0, −1).
        let mut order2 = [0xffu8; 32];
        order2[0] = 0xec;
        order2[31] = 0x7f;
        assert_eq!(PublicKey::from_bytes(&order2), Err(VerifyError::WeakKey));
    }

    #[test]
    fn cluster_stores_cross_verify() {
        let stores = KeyStore::cluster(b"secret", 4);
        assert_eq!(stores.len(), 4);
        let sig = stores[2].sign(b"sync v3");
        for store in &stores {
            assert!(store.verify(ReplicaId(2), b"sync v3", &sig).is_ok());
            assert_eq!(
                store.verify(ReplicaId(1), b"sync v3", &sig),
                Err(VerifyError::BadSignature)
            );
            assert_eq!(
                store.verify(ReplicaId(9), b"sync v3", &sig),
                Err(VerifyError::UnknownSigner(ReplicaId(9)))
            );
        }
    }

    #[test]
    fn one_table_per_signer_shared_by_every_store_and_clone() {
        let stores = KeyStore::cluster(b"shared-tables", 4);
        let clone = stores[3].clone();
        for store in stores.iter().chain([&clone]) {
            assert!(Arc::ptr_eq(&store.signers, &stores[0].signers));
        }
        // Nothing is built until something is verified …
        assert!(stores[0].signers.iter().all(|s| s.table.get().is_none()));
        let sig = stores[2].sign(b"first use");
        stores[1].verify(ReplicaId(2), b"first use", &sig).unwrap();
        // … then exactly the signer that was used, seen by everyone,
        let built = stores[0].signers[2]
            .table
            .get()
            .expect("built by stores[1]");
        assert!(stores[0].signers[0].table.get().is_none());
        // and a later verification through another store reuses it.
        clone.verify(ReplicaId(2), b"first use", &sig).unwrap();
        assert!(std::ptr::eq(
            built,
            clone.signers[2].table.get().expect("still there")
        ));
        assert_eq!(
            built.verifying_key().to_bytes(),
            stores[2].keypair.public().to_bytes()
        );
    }

    #[test]
    fn tampered_signature_rejected() {
        let kp = Keypair::from_seed([1u8; 32]);
        let mut sig = kp.sign(b"msg");
        sig.0[10] ^= 0xff;
        assert!(kp.public().verify(b"msg", &sig).is_err());
    }

    /// `(signers[i], msgs[i], sigs[i])` triples borrowing all three.
    fn triples<'a>(
        signers: &[ReplicaId],
        msgs: &'a [Vec<u8>],
        sigs: &'a [Signature],
    ) -> Vec<(ReplicaId, &'a [u8], &'a Signature)> {
        signers
            .iter()
            .zip(msgs)
            .zip(sigs)
            .map(|((signer, msg), sig)| (*signer, msg.as_slice(), sig))
            .collect()
    }

    #[test]
    fn verify_batch_refs_accepts_valid_and_rejects_one_bad() {
        let stores = KeyStore::cluster(b"batch", 7);
        let signers: Vec<ReplicaId> = stores.iter().map(KeyStore::me).collect();
        let msgs: Vec<Vec<u8>> = (0..7).map(|i| format!("vote {i}").into_bytes()).collect();
        let mut sigs: Vec<Signature> = stores
            .iter()
            .zip(&msgs)
            .map(|(store, msg)| store.sign(msg))
            .collect();
        stores[0]
            .verify_batch_refs(&triples(&signers, &msgs, &sigs))
            .unwrap();

        sigs[3].0[40] ^= 1;
        assert_eq!(
            stores[0].verify_batch_refs(&triples(&signers, &msgs, &sigs)),
            Err(VerifyError::BadSignature)
        );
    }

    #[test]
    fn verify_batch_refs_folds_a_single_sender_run_and_names_unknown_signers() {
        // A one-sender ingress run: 32 distinct payloads.
        let stores = KeyStore::cluster(b"lane", 4);
        let payloads: Vec<Vec<u8>> = (0..32u8).map(|i| vec![i; 40]).collect();
        let mut sigs: Vec<Signature> = payloads.iter().map(|p| stores[2].sign(p)).collect();
        let from = |r: u32| vec![ReplicaId(r); 32];
        stores[0]
            .verify_batch_refs(&triples(&from(2), &payloads, &sigs))
            .unwrap();
        assert_eq!(
            stores[0].verify_batch_refs(&triples(&from(1), &payloads, &sigs)),
            Err(VerifyError::BadSignature)
        );
        assert_eq!(
            stores[0].verify_batch_refs(&triples(&from(4), &payloads, &sigs)),
            Err(VerifyError::UnknownSigner(ReplicaId(4)))
        );
        sigs[31].0[2] ^= 0x10;
        assert!(stores[0]
            .verify_batch_refs(&triples(&from(2), &payloads, &sigs))
            .is_err());
    }

    #[test]
    fn batch_signing_is_byte_identical_to_serial_signing() {
        let stores = KeyStore::cluster(b"batch-sign", 2);
        let msgs: Vec<Vec<u8>> = (0..9u8).map(|i| vec![i; 5 + i as usize]).collect();
        let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
        let batched = stores[0].sign_batch(&refs);
        assert_eq!(batched.len(), msgs.len());
        for (m, sig) in msgs.iter().zip(&batched) {
            assert_eq!(*sig, stores[0].sign(m));
            stores[1].verify(stores[0].me(), m, sig).unwrap();
        }
    }

    #[test]
    fn verify_quorum_checks_every_vote() {
        let stores = KeyStore::cluster(b"quorum", 4);
        let statement = b"commit view 9 digest abc";
        let mut votes: Vec<(ReplicaId, Signature)> =
            stores.iter().map(|s| (s.me(), s.sign(statement))).collect();
        stores[0].verify_quorum(statement, &votes).unwrap();
        // Swap one vote for a forgery: the whole quorum check fails.
        votes[2].1 = Signature([7u8; SIGNATURE_LEN]);
        assert!(stores[0].verify_quorum(statement, &votes).is_err());
        // filter_valid attributes the blame.
        let mask = stores[0].filter_valid(statement, &votes);
        assert_eq!(mask, vec![true, true, false, true]);
    }

    #[test]
    fn vote_statement_signing_round_trips() {
        use spotless_types::{Digest, InstanceId, View};
        let stores = KeyStore::cluster(b"votes", 4);
        let st = VoteStatement::new(InstanceId(1), View(4), Digest::from_u64(77));
        let sig = stores[1].sign_vote(&st);
        stores[0].verify_vote(ReplicaId(1), &st, &sig).unwrap();
        let other = VoteStatement::new(InstanceId(1), View(5), Digest::from_u64(77));
        assert_eq!(
            stores[0].verify_vote(ReplicaId(1), &other, &sig),
            Err(VerifyError::BadSignature)
        );
    }
}
