//! Property tests for the Ed25519 stack, bottom to top: field and
//! scalar byte round-trips plus algebraic identities; the equivalence
//! of the precomputed-table paths with the generic ones (table `mul` =
//! wNAF `mul`; `KeyStore::verify` = `PublicKey::verify` down to the
//! error kind, whatever is done to the signature); and the equivalence
//! the verification API leans on — a batch accepts iff serial
//! verification of every member accepts, and with exactly one bad
//! signature the serial pass blames exactly that index. The ingress
//! task's batch pass is built on that last equivalence, so it is
//! load-bearing, not decorative; the runtime's live-certificate check
//! and `KeyStore::verify_quorum` are serial loops over
//! `KeyStore::verify`.

use ed25519::edwards::{basepoint_table, PointTable, BASEPOINT};
use ed25519::field::FieldElement;
use ed25519::scalar::Scalar;
use proptest::prelude::*;
use spotless_crypto::VerifyError;
use spotless_crypto::{KeyStore, Keypair};
use spotless_types::{ReplicaId, Signature};

/// 32 bytes assembled from four u64 limbs (the stand-in proptest has
/// no array strategy).
fn bytes32(limbs: (u64, u64, u64, u64)) -> [u8; 32] {
    let mut out = [0u8; 32];
    out[..8].copy_from_slice(&limbs.0.to_le_bytes());
    out[8..16].copy_from_slice(&limbs.1.to_le_bytes());
    out[16..24].copy_from_slice(&limbs.2.to_le_bytes());
    out[24..].copy_from_slice(&limbs.3.to_le_bytes());
    out
}

/// The group order L, little-endian.
const L_BYTES: [u8; 32] = [
    0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58, 0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde, 0x14,
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x10,
];

/// Replaces the signature's S by S + L: the same residue, encoded out
/// of range (no overflow: S < L < 2^253).
fn add_group_order(sig: &mut Signature) {
    let mut carry = 0u16;
    for (s, l) in sig.0[32..].iter_mut().zip(L_BYTES) {
        let t = u16::from(*s) + u16::from(l) + carry;
        *s = t as u8;
        carry = t >> 8;
    }
    assert_eq!(carry, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Canonical field encodings survive a decode/encode round-trip
    /// bit-exactly. Masking the top two bits keeps the value below
    /// 2^254 < p, so every generated encoding is canonical.
    #[test]
    fn field_bytes_roundtrip(limbs in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>())) {
        let mut bytes = bytes32(limbs);
        bytes[31] &= 0x3f;
        let fe = FieldElement::from_bytes_canonical(&bytes).expect("< 2^254 is canonical");
        prop_assert_eq!(fe.to_bytes(), bytes);
    }

    /// Field arithmetic identities: additive inverse, multiplicative
    /// identity and commutativity, and `a · a⁻¹ = 1` for nonzero `a`.
    #[test]
    fn field_algebra_holds(
        a in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        b in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
    ) {
        let (mut ab, mut bb) = (bytes32(a), bytes32(b));
        ab[31] &= 0x3f;
        bb[31] &= 0x3f;
        let x = FieldElement::from_bytes_canonical(&ab).unwrap();
        let y = FieldElement::from_bytes_canonical(&bb).unwrap();
        prop_assert_eq!(((x + y) - y).to_bytes(), x.to_bytes());
        prop_assert_eq!((x * FieldElement::ONE).to_bytes(), x.to_bytes());
        prop_assert_eq!((x * y).to_bytes(), (y * x).to_bytes());
        if !x.is_zero() {
            prop_assert_eq!((x * x.invert()).to_bytes(), FieldElement::ONE.to_bytes());
        }
    }

    /// `from_bytes_mod_order` always lands on a canonical encoding:
    /// its `to_bytes` re-parses via the strict path to the same value,
    /// and reducing again is a no-op.
    #[test]
    fn scalar_reduction_is_canonical(limbs in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>())) {
        let s = Scalar::from_bytes_mod_order(&bytes32(limbs));
        let encoded = s.to_bytes();
        let strict = Scalar::from_canonical_bytes(&encoded)
            .expect("reduced scalars re-parse strictly");
        prop_assert_eq!(strict.to_bytes(), encoded);
        prop_assert_eq!(Scalar::from_bytes_mod_order(&encoded).to_bytes(), encoded);
    }

    /// Scalar arithmetic matches u128 arithmetic on small inputs, and
    /// `s + (−s) = 0` for arbitrary reduced scalars.
    #[test]
    fn scalar_algebra_holds(
        a in any::<u64>(),
        b in any::<u64>(),
        limbs in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
    ) {
        let (sa, sb) = (Scalar::from_u128(a as u128), Scalar::from_u128(b as u128));
        let sum = Scalar::from_u128(a as u128 + b as u128);
        let product = Scalar::from_u128(a as u128 * b as u128);
        prop_assert_eq!((sa + sb).to_bytes(), sum.to_bytes());
        prop_assert_eq!((sa * sb).to_bytes(), product.to_bytes());
        let s = Scalar::from_bytes_mod_order(&bytes32(limbs));
        prop_assert!((s + s.neg()).is_zero());
    }

    /// Sign/verify round-trips for arbitrary seeds and messages, and
    /// any single-bit flip in the signature is rejected.
    #[test]
    fn sign_verify_roundtrip_and_bitflip_rejection(
        seed in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        message in prop::collection::vec(any::<u8>(), 0..64),
        flip in 0usize..512,
    ) {
        let kp = Keypair::from_seed(bytes32(seed));
        let sig = kp.sign(&message);
        prop_assert!(kp.public().verify(&message, &sig).is_ok());
        let mut bad = sig;
        bad.0[flip / 8] ^= 1 << (flip % 8);
        prop_assert!(kp.public().verify(&message, &bad).is_err());
    }

    /// A precomputed table multiplies like the generic wNAF ladder:
    /// the shared basepoint table and a table built for a random
    /// point, on random scalars.
    #[test]
    fn table_mul_matches_generic_mul(
        point in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        scalar in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
    ) {
        let s = Scalar::from_bytes_mod_order(&bytes32(scalar));
        prop_assert_eq!(basepoint_table().mul(&s), BASEPOINT.mul(&s));
        let p = BASEPOINT.mul(&Scalar::from_bytes_mod_order(&bytes32(point)));
        prop_assert_eq!(PointTable::new(&p).mul(&s), p.mul(&s));
    }

    /// `KeyStore::verify` (two table walks) returns the same `Result`
    /// as `PublicKey::verify` (the generic double-scalar reference),
    /// error kind included, over random keys and messages and every
    /// way of spoiling the signature that needs no secret key. (A
    /// torsion component added to R needs the nonce; `compat/ed25519`'s
    /// unit tests cover it.)
    #[test]
    fn precomputed_verify_matches_generic_under_mutation(
        master in any::<u64>(),
        message in prop::collection::vec(any::<u8>(), 1..64),
        mutation in 0u32..8,
        flip in 0usize..256,
    ) {
        let stores = KeyStore::cluster(&master.to_le_bytes(), 2);
        let mut signer = ReplicaId(1);
        let mut message = message;
        let mut sig = stores[1].sign(&message);
        let expected = match mutation {
            0 => Some(Ok(())),
            // A bit flipped in R, then in S: malformed or merely wrong.
            1 => { sig.0[flip / 8] ^= 1 << (flip % 8); None }
            2 => { sig.0[32 + flip / 8] ^= 1 << (flip % 8); None }
            3 => {
                let at = flip % (message.len() * 8);
                message[at / 8] ^= 1 << (at % 8);
                Some(Err(VerifyError::BadSignature))
            }
            4 => { signer = ReplicaId(0); Some(Err(VerifyError::BadSignature)) }
            5 => { add_group_order(&mut sig); Some(Err(VerifyError::NonCanonicalScalar)) }
            // R = y-coordinate p + 1, a non-canonical encoding of 1.
            6 => {
                sig.0[..32].copy_from_slice(&[0xff; 32]);
                sig.0[0] = 0xee;
                sig.0[31] = 0x7f;
                Some(Err(VerifyError::MalformedSignature))
            }
            // R = the identity: small order, canonically encoded.
            _ => {
                sig.0[..32].copy_from_slice(&[0; 32]);
                sig.0[0] = 1;
                Some(Err(VerifyError::BadSignature))
            }
        };
        let generic = stores[0].public_of(signer).unwrap().verify(&message, &sig);
        prop_assert_eq!(stores[0].verify(signer, &message, &sig), generic);
        match expected {
            Some(result) => prop_assert_eq!(generic, result),
            None => prop_assert!(generic.is_err()),
        }
    }

    /// Batch acceptance ⇔ serial acceptance. All-valid batches verify;
    /// corrupting exactly one signature fails the batch, and the serial
    /// pass blames exactly that index.
    #[test]
    fn batch_matches_serial_with_one_bad_signature(
        n in 4u32..9,
        message in prop::collection::vec(any::<u8>(), 1..48),
        bad_index in 0u32..4,
    ) {
        let stores = KeyStore::cluster(b"signing-props", n);
        let votes: Vec<(ReplicaId, Signature)> = (0..n)
            .map(|r| (ReplicaId(r), stores[r as usize].sign(&message)))
            .collect();
        // Each vote verified on its own.
        let serial = |votes: &[(ReplicaId, Signature)]| -> Vec<bool> {
            votes
                .iter()
                .map(|(r, sig)| stores[0].verify(*r, &message, sig).is_ok())
                .collect()
        };

        // All valid: batch and serial agree on acceptance. Every vote
        // appears twice, so the batch has repeated signers and takes
        // the folded path; `verify_quorum` below sees each once.
        let items: Vec<(ReplicaId, &[u8], &Signature)> = votes
            .iter()
            .chain(&votes)
            .map(|(r, sig)| (*r, message.as_slice(), sig))
            .collect();
        prop_assert!(stores[0].verify_batch_refs(&items).is_ok());
        prop_assert!(stores[0].verify_quorum(&message, &votes).is_ok());
        prop_assert_eq!(serial(&votes), vec![true; n as usize]);

        // One forged member: the batch rejects as a whole; the serial
        // mask singles out the culprit and only the culprit.
        let bad_index = (bad_index % n) as usize;
        let mut forged = votes.clone();
        forged[bad_index].1 .0[0] ^= 0x01;
        let items: Vec<(ReplicaId, &[u8], &Signature)> = forged
            .iter()
            .chain(&forged)
            .map(|(r, sig)| (*r, message.as_slice(), sig))
            .collect();
        prop_assert!(stores[0].verify_batch_refs(&items).is_err());
        prop_assert!(stores[0].verify_quorum(&message, &forged).is_err());
        let mask = serial(&forged);
        for (i, ok) in mask.iter().enumerate() {
            prop_assert_eq!(*ok, i != bad_index, "blame must land on index {bad_index} alone");
        }
    }
}
