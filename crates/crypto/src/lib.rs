//! Cryptographic substrate for the SpotLess reproduction.
//!
//! The paper's authentication model (§2) uses two mechanisms:
//!
//! * **MACs** for messages that are never forwarded (cheap; one symmetric
//!   operation) — implemented from scratch as HMAC-SHA256 in [`hmac`],
//!   over the SHA-256 in [`sha256`]: written out from FIPS 180-4, one
//!   block-oriented implementation whose compression runs on the
//!   x86-64 SHA extensions where the CPU has them and on the portable
//!   transcription everywhere else (and in the tests, as the oracle);
//! * **digital signatures** for forwardable messages (proposals, `Sync`
//!   claims inside certificates, client requests) — real RFC 8032
//!   Ed25519 over each message's SHA-256 signing digest
//!   ([`signing::signing_digest`]) in [`signing`], built on the
//!   workspace's from-scratch `compat/ed25519` crate (the offline build
//!   environment rules out `ed25519-dalek`), with typed verification
//!   errors, per-signer precomputed tables in the [`KeyStore`], and
//!   batch verification folded by signer.
//!
//! Under the discrete-event simulator, cryptography is *charged* rather
//! than computed: message types report their verification/signing costs
//! through `spotless_types::node::ProtocolMessage` and the simulator's CPU
//! model accounts for them. The real tokio transport uses the primitives
//! in this crate directly. Both paths share the digest helpers in
//! [`digest`], and the fixed-shape hashes that dominate sealing — a
//! Merkle node, a leaf over a digest, a chain link, a small record —
//! are assembled in their padded blocks on the stack and compressed in
//! one call ([`sha256`]'s module docs have the shapes).
//!
//! # Unsafe policy
//!
//! Every other crate of the workspace is `#![forbid(unsafe_code)]`.
//! This one is `#![deny(unsafe_code)]` with exactly one private
//! `#[allow(unsafe_code)]` module, `sha256::ni`: the SHA intrinsics are
//! `#[target_feature]` functions, and calling one from code compiled
//! without the feature is the one thing safe Rust cannot express. The
//! module exposes a single safe function that checks the CPU before it
//! makes that call; its one `unsafe` block carries a `// SAFETY:` line
//! (clippy's `undocumented_unsafe_blocks` is denied here), and CI fails
//! if `unsafe` appears in any other file under `crates/`.

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod digest;
pub mod hmac;
pub mod merkle;
pub mod sha256;
pub mod signing;

pub use digest::{digest_bytes, digest_chained, digest_fields};
pub use hmac::{hmac_sha256, MacKey, TAG_LEN};
pub use merkle::{
    fold_proof, leaf_digest, proof_index, root_of_leaf_digests, verify_inclusion, MerkleTree,
    ProofStep, MAX_PROOF_DEPTH,
};
pub use sha256::Sha256;
pub use signing::{KeyStore, Keypair, PublicKey, VerifyError, SIGNATURE_LEN};
pub use spotless_types::Signature;
