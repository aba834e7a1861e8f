//! Offline stand-in for an Ed25519 crate: RFC 8032 signatures built
//! from scratch (the build environment has no crates.io access, the
//! same situation that produced `compat/sha2`).
//!
//! What this provides:
//!
//! * [`SigningKey`] / [`VerifyingKey`] with RFC 8032 deterministic
//!   signing and *cofactored* verification (`[8]([S]B − [k]A − R) = O`),
//! * strict encoding validation — non-canonical field elements and
//!   scalars are rejected, and [`VerifyingKey::from_bytes`] also
//!   rejects small-order (torsion) points,
//! * [`PrecomputedKey`]: a verifying key plus a 30 KiB table of its
//!   point's multiples ([`edwards::PointTable`]). A deployment verifies
//!   against a fixed, small key set, so `[S]B + [−k]A` becomes two
//!   table walks (≈ 120 mixed additions, 8 doublings) instead of a
//!   253-step doubling chain with two throw-away wNAF tables — about
//!   2.6× faster, same checks, same accept set. Signing takes `[r]B`
//!   from the basepoint's table the same way.
//!   [`VerifyingKey::verify`] keeps the generic computation as the
//!   reference the tables are tested and benchmarked against,
//! * [`verify_batch`]: a random-linear-combination batch verifier whose
//!   accept set is *identical* to serial verification (both sides are
//!   cofactored, so a batch never accepts or rejects differently than
//!   checking each signature alone — modulo the 2⁻¹²⁸ coefficient
//!   collision bound). It folds the combination by signer — one table
//!   walk per distinct key, one for the basepoint, a short shared chain
//!   for the nonce points only — and verifies serially when too few
//!   signers repeat for that to pay,
//! * SHA-512 (the workspace's `compat/sha2` only has SHA-256).
//!
//! What this deliberately is **not**: constant-time. Scalar
//! multiplication is variable-time (wNAF, and table walks that skip
//! zero digits), fine for verification (public inputs) and for this
//! workspace's reproducible test clusters, but a production signer
//! handling secret keys near an adversary's stopwatch needs a hardened
//! implementation.
//!
//! **Memory.** One [`edwards::PointTable`] is 30 720 B. The basepoint's
//! is process-wide (built on first use); each [`PrecomputedKey`] owns
//! one more, so a verifier of `n` signers holds `(n + 1) × 30 KiB`.

pub mod edwards;
pub mod field;
pub mod scalar;
pub mod sha512;

use edwards::{basepoint_table, multiscalar_mul, ExtendedPoint, PointTable, BASEPOINT};
use scalar::Scalar;
pub use sha512::{sha512, Sha512};

/// Length of a signature (R ‖ S).
pub const SIGNATURE_LENGTH: usize = 64;
/// Length of a compressed public key.
pub const PUBLIC_KEY_LENGTH: usize = 32;
/// Length of a private seed.
pub const SECRET_KEY_LENGTH: usize = 32;

/// Why a key or signature was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Error {
    /// A 32-byte string that is not the canonical encoding of any
    /// curve point (y ≥ p, x not on the curve, or a −0 sign bit).
    MalformedPoint,
    /// A public key whose point has order dividing 8: signatures by
    /// such a key say nothing about who signed.
    SmallOrderKey,
    /// The signature's S half is ≥ the group order (RFC 8032 requires
    /// 0 ≤ S < L; accepting larger S makes signatures malleable).
    NonCanonicalScalar,
    /// The verification equation does not hold.
    BadSignature,
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::MalformedPoint => write!(f, "not a canonical curve point encoding"),
            Error::SmallOrderKey => write!(f, "public key is a small-order point"),
            Error::NonCanonicalScalar => write!(f, "signature scalar out of range"),
            Error::BadSignature => write!(f, "signature verification failed"),
        }
    }
}

impl std::error::Error for Error {}

/// An Ed25519 public key: the compressed encoding plus the decompressed
/// point (validated once at construction).
#[derive(Clone, Copy, Debug)]
pub struct VerifyingKey {
    compressed: [u8; 32],
    point: ExtendedPoint,
}

impl PartialEq for VerifyingKey {
    fn eq(&self, other: &VerifyingKey) -> bool {
        self.compressed == other.compressed
    }
}

impl Eq for VerifyingKey {}

impl VerifyingKey {
    /// Parses and validates a compressed public key. Fails on
    /// non-canonical encodings ([`Error::MalformedPoint`]) and on
    /// small-order points ([`Error::SmallOrderKey`]).
    pub fn from_bytes(bytes: &[u8; 32]) -> Result<VerifyingKey, Error> {
        let point = ExtendedPoint::decompress(bytes).ok_or(Error::MalformedPoint)?;
        if point.is_small_order() {
            return Err(Error::SmallOrderKey);
        }
        Ok(VerifyingKey {
            compressed: *bytes,
            point,
        })
    }

    /// The compressed 32-byte encoding.
    pub fn to_bytes(&self) -> [u8; 32] {
        self.compressed
    }

    /// Cofactored RFC 8032 verification: `[8]([S]B − [k]A − R) = O` with
    /// k = SHA-512(R ‖ A ‖ M) mod L, computed the generic way: one
    /// double-scalar multiplication over a fresh doubling chain. This is
    /// the reference [`PrecomputedKey::verify`] is tested and timed
    /// against; a caller that verifies under the same key more than a
    /// handful of times wants the precomputed form.
    pub fn verify(&self, message: &[u8], signature: &[u8; 64]) -> Result<(), Error> {
        let parsed = ParsedSignature::parse(signature)?;
        let k = challenge_scalar(&parsed.r_bytes, &self.compressed, message);
        let sb_ka = multiscalar_mul(&[(parsed.s, BASEPOINT), (k.neg(), self.point)]);
        parsed.check(&sb_ka)
    }
}

/// A [`VerifyingKey`] together with the [`PointTable`] of its point, so
/// verification under it walks two tables — `[S]B` from the shared
/// basepoint table, `[−k]A` from this one — instead of a doubling
/// chain. Costs 30 KiB and a few hundred µs to build, repaid within a
/// dozen verifications.
///
/// The only constructor takes the key, so a table can never be paired
/// with a key it was not built from.
pub struct PrecomputedKey {
    key: VerifyingKey,
    table: PointTable,
}

impl PrecomputedKey {
    /// Builds the table for `key`.
    pub fn new(key: &VerifyingKey) -> PrecomputedKey {
        PrecomputedKey {
            key: *key,
            table: PointTable::new(&key.point),
        }
    }

    /// The key this table was built from.
    pub fn verifying_key(&self) -> &VerifyingKey {
        &self.key
    }

    /// Cofactored RFC 8032 verification, the same checks and the same
    /// accept set as [`VerifyingKey::verify`]: canonical R and S,
    /// `[8]([S]B + [−k]A − R) = O`.
    pub fn verify(&self, message: &[u8], signature: &[u8; 64]) -> Result<(), Error> {
        self.verify_parsed(message, &ParsedSignature::parse(signature)?)
    }

    fn verify_parsed(&self, message: &[u8], parsed: &ParsedSignature) -> Result<(), Error> {
        let k = challenge_scalar(&parsed.r_bytes, &self.key.compressed, message);
        let sb_ka = basepoint_table()
            .mul(&parsed.s)
            .add(&self.table.mul(&k.neg()));
        parsed.check(&sb_ka)
    }
}

/// An Ed25519 private key (seed-expanded), able to sign.
#[derive(Clone)]
pub struct SigningKey {
    /// The clamped secret scalar a.
    a: Scalar,
    /// The nonce-derivation prefix (second half of SHA-512(seed)).
    prefix: [u8; 32],
    verifying: VerifyingKey,
}

impl SigningKey {
    /// Deterministic key expansion from a 32-byte seed (RFC 8032 §5.1.5).
    pub fn from_seed(seed: &[u8; 32]) -> SigningKey {
        let h = sha512(seed);
        let mut a_bytes: [u8; 32] = h[..32].try_into().unwrap();
        a_bytes[0] &= 248;
        a_bytes[31] &= 127;
        a_bytes[31] |= 64;
        // B has order L, so reducing the clamped integer mod L changes
        // neither A = [a]B nor S = r + k·a (mod L).
        let a = Scalar::from_bytes_mod_order(&a_bytes);
        let point = basepoint_table().mul(&a);
        let verifying = VerifyingKey {
            compressed: point.compress(),
            point,
        };
        SigningKey {
            a,
            prefix: h[32..].try_into().unwrap(),
            verifying,
        }
    }

    /// This key's public half.
    pub fn verifying_key(&self) -> &VerifyingKey {
        &self.verifying
    }

    /// Deterministic RFC 8032 signature: `R = [r]B` with
    /// r = SHA-512(prefix ‖ M), S = r + SHA-512(R ‖ A ‖ M)·a. The nonce
    /// commitment walks the shared fixed-base table
    /// ([`edwards::basepoint_table`]) — at most 64 additions and no
    /// doubling chain.
    pub fn sign(&self, message: &[u8]) -> [u8; 64] {
        let mut h = Sha512::new();
        h.update(&self.prefix);
        h.update(message);
        let r = Scalar::from_wide_bytes(&h.finalize());
        let r_bytes = basepoint_table().mul(&r).compress();
        let k = challenge_scalar(&r_bytes, &self.verifying.compressed, message);
        let s = r + k * self.a;
        let mut sig = [0u8; 64];
        sig[..32].copy_from_slice(&r_bytes);
        sig[32..].copy_from_slice(&s.to_bytes());
        sig
    }
}

/// k = SHA-512(R ‖ A ‖ M) mod L.
fn challenge_scalar(r: &[u8; 32], a: &[u8; 32], message: &[u8]) -> Scalar {
    let mut h = Sha512::new();
    h.update(r);
    h.update(a);
    h.update(message);
    Scalar::from_wide_bytes(&h.finalize())
}

/// A signature split into its validated halves.
struct ParsedSignature {
    r: ExtendedPoint,
    r_bytes: [u8; 32],
    s: Scalar,
}

impl ParsedSignature {
    fn parse(signature: &[u8; 64]) -> Result<ParsedSignature, Error> {
        let r_bytes: [u8; 32] = signature[..32].try_into().unwrap();
        let s_bytes: [u8; 32] = signature[32..].try_into().unwrap();
        // R may be small-order (RFC 8032 permits it; cofactored
        // verification neutralizes the torsion component) but must be
        // canonically encoded.
        let r = ExtendedPoint::decompress(&r_bytes).ok_or(Error::MalformedPoint)?;
        let s = Scalar::from_canonical_bytes(&s_bytes).ok_or(Error::NonCanonicalScalar)?;
        Ok(ParsedSignature { r, r_bytes, s })
    }

    /// The verification equation given `[S]B − [k]A`: subtract R,
    /// clear the cofactor, test for the identity.
    fn check(&self, sb_ka: &ExtendedPoint) -> Result<(), Error> {
        if sb_ka.add(&self.r.neg()).mul_by_cofactor().is_identity() {
            Ok(())
        } else {
            Err(Error::BadSignature)
        }
    }
}

/// A batch is folded only when at least this many of its signatures
/// are by a signer the batch has already seen; otherwise
/// [`verify_batch`] verifies it serially.
///
/// Folding pays a fixed cost — the 128-step doubling chain the `Rᵢ`
/// terms share, about one serial verification — plus a throw-away wNAF
/// table per `Rᵢ`, and saves one basepoint walk per signature and one
/// key walk per *repeat*. `sig_verify`'s rows, measured with the
/// cutover disabled (µs per signature, serial ≈ 24):
///
/// | batch         | 2  | 4  | 8  | 16 | 32 | 64 |
/// |---------------|----|----|----|----|----|----|
/// | one signer    | 32 | 24 | 18 | 16 | 15 |    |
/// | all distinct  |    | 30 |    | 24 |    | 24 |
///
/// One signer breaks even at 4 signatures (3 repeats); distinct signers
/// never do better than level, so they stay serial at every size.
const FOLD_MIN_REPEATS: usize = 3;

/// Batch verification by random linear combination: checks
///
/// ```text
/// [8]( [−Σ zᵢSᵢ]B + Σ [zᵢ]Rᵢ + Σ [zᵢkᵢ]Aᵢ ) = O
/// ```
///
/// for deterministic Fiat–Shamir coefficients zᵢ derived from the whole
/// batch. The sum is folded by fixed point: the basepoint term is one
/// walk of its table, the terms of all signatures *by one key* collapse
/// into one scalar `Σ zᵢkᵢ` and one walk of that key's table, and only
/// the `[zᵢ]Rᵢ` terms — fresh points, 128-bit coefficients — share a
/// doubling chain. A batch from a single signer therefore costs two
/// table walks in total where serial verification costs two per
/// signature. A batch with fewer than three (`FOLD_MIN_REPEATS`) repeated
/// signers, where the chain costs more than the walks it replaces,
/// verifies serially.
///
/// Accepts exactly when every signature verifies serially (both sides
/// cofactored), except for coefficient collisions at probability
/// ≈ 2⁻¹²⁸. Malformed signatures are reported first
/// ([`Error::MalformedPoint`], [`Error::NonCanonicalScalar`]), whatever
/// the batch's shape; on [`Error::BadSignature`] at least one signature
/// is bad but the batch cannot say which — fall back to serial
/// verification to attribute blame.
///
/// Each item is `(key, message, signature)`. An empty batch is `Ok`.
pub fn verify_batch(items: &[(&PrecomputedKey, &[u8], &[u8; 64])]) -> Result<(), Error> {
    let parsed = items
        .iter()
        .map(|(_, _, signature)| ParsedSignature::parse(signature))
        .collect::<Result<Vec<_>, Error>>()?;

    // One accumulator per distinct key; `slot[i]` is item i's.
    let mut by_key: Vec<(&PrecomputedKey, Scalar)> = Vec::new();
    let slot: Vec<usize> = items
        .iter()
        .map(|(key, _, _)| {
            by_key
                .iter()
                .position(|(seen, _)| seen.key == key.key)
                .unwrap_or_else(|| {
                    by_key.push((key, Scalar::ZERO));
                    by_key.len() - 1
                })
        })
        .collect();
    if items.len() - by_key.len() < FOLD_MIN_REPEATS {
        return items
            .iter()
            .zip(&parsed)
            .try_for_each(|((key, message, _), sig)| key.verify_parsed(message, sig));
    }

    // Bind the coefficients to the entire batch: any change to any key,
    // message, or signature changes every zᵢ.
    let mut transcript = Sha512::new();
    transcript.update(b"ed25519-batch-v1");
    transcript.update(&(items.len() as u64).to_le_bytes());
    for ((key, message, _), sig) in items.iter().zip(&parsed) {
        transcript.update(&key.key.compressed);
        transcript.update(&sig.r_bytes);
        transcript.update(&sig.s.to_bytes());
        // Fixed-length message binding.
        transcript.update(&sha512(message));
    }
    let seed = transcript.finalize();

    let mut r_terms = Vec::with_capacity(items.len());
    let mut b_coeff = Scalar::ZERO;
    for (i, ((key, message, _), sig)) in items.iter().zip(&parsed).enumerate() {
        let mut zh = Sha512::new();
        zh.update(&seed);
        zh.update(&(i as u64).to_le_bytes());
        let z = Scalar::from_u128(u128::from_le_bytes(zh.finalize()[..16].try_into().unwrap()));
        let k = challenge_scalar(&sig.r_bytes, &key.key.compressed, message);
        b_coeff = b_coeff + z * sig.s;
        r_terms.push((z, sig.r));
        by_key[slot[i]].1 = by_key[slot[i]].1 + z * k;
    }

    let mut sum = multiscalar_mul(&r_terms).add(&basepoint_table().mul(&b_coeff.neg()));
    for (key, coeff) in by_key {
        sum = sum.add(&key.table.mul(&coeff));
    }
    if sum.mul_by_cofactor().is_identity() {
        Ok(())
    } else {
        Err(Error::BadSignature)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn unhex32(s: &str) -> [u8; 32] {
        unhex(s).try_into().unwrap()
    }

    fn unhex64(s: &str) -> [u8; 64] {
        unhex(s).try_into().unwrap()
    }

    /// One known-answer vector: (seed, public key, message, signature).
    type KatVector = ([u8; 32], [u8; 32], Vec<u8>, [u8; 64]);

    /// RFC 8032 §7.1 TEST 1–3 plus two locally generated vectors
    /// cross-checked against an independent reference implementation.
    fn kat_vectors() -> Vec<KatVector> {
        vec![
            (
                unhex32("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60"),
                unhex32("d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a"),
                vec![],
                unhex64(
                    "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155\
                     5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b",
                ),
            ),
            (
                unhex32("4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb"),
                unhex32("3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c"),
                vec![0x72],
                unhex64(
                    "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da\
                     085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00",
                ),
            ),
            (
                unhex32("c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7"),
                unhex32("fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025"),
                vec![0xaf, 0x82],
                unhex64(
                    "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac\
                     18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a",
                ),
            ),
            (
                unhex32("0707070707070707070707070707070707070707070707070707070707070707"),
                unhex32("ea4a6c63e29c520abef5507b132ec5f9954776aebebe7b92421eea691446d22c"),
                b"spotless vote statement".to_vec(),
                unhex64(
                    "95c26165f243e715dd8f4aa28e37575feaab987a827c3fc69dcd2bac8b16c326\
                     2d5c3ae2369edce26c0fc3884c948947edb8c484047a680090c5dcccae826a0a",
                ),
            ),
            (
                unhex32("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"),
                unhex32("03a107bff3ce10be1d70dd18e74bc09967e4d6309ba50d5f1ddc8664125531b8"),
                (0..200u8).collect(),
                unhex64(
                    "2e2dbd7439d8a00986fa2ff9aa0afd788e4426c57f5dc4936bb0ab21f7549a50\
                     54f3d4cadb93b1e5acaf7619baf02c3298704b83cf85230ea890955920a67609",
                ),
            ),
        ]
    }

    #[test]
    fn rfc8032_known_answer_tests() {
        for (i, (seed, pk, msg, sig)) in kat_vectors().into_iter().enumerate() {
            let sk = SigningKey::from_seed(&seed);
            assert_eq!(sk.verifying_key().to_bytes(), pk, "vector {i}: public key");
            assert_eq!(sk.sign(&msg), sig, "vector {i}: signature");
            let vk = VerifyingKey::from_bytes(&pk).unwrap();
            vk.verify(&msg, &sig)
                .unwrap_or_else(|e| panic!("vector {i}: verify: {e}"));
        }
    }

    #[test]
    fn tampered_message_rejected() {
        let sk = SigningKey::from_seed(&[9u8; 32]);
        let sig = sk.sign(b"original");
        assert_eq!(
            sk.verifying_key().verify(b"tampered", &sig),
            Err(Error::BadSignature)
        );
    }

    #[test]
    fn tampered_signature_rejected() {
        let sk = SigningKey::from_seed(&[9u8; 32]);
        let mut sig = sk.sign(b"msg");
        sig[5] ^= 1; // corrupt R
        assert!(sk.verifying_key().verify(b"msg", &sig).is_err());
        let mut sig = sk.sign(b"msg");
        sig[40] ^= 1; // corrupt S
        assert_eq!(
            sk.verifying_key().verify(b"msg", &sig),
            Err(Error::BadSignature)
        );
    }

    #[test]
    fn wrong_key_rejected() {
        let sk1 = SigningKey::from_seed(&[1u8; 32]);
        let sk2 = SigningKey::from_seed(&[2u8; 32]);
        let sig = sk1.sign(b"msg");
        assert_eq!(
            sk2.verifying_key().verify(b"msg", &sig),
            Err(Error::BadSignature)
        );
    }

    #[test]
    fn high_s_signature_rejected_as_non_canonical() {
        // S' = S + L verifies under a sloppy verifier; RFC 8032 says no.
        let sk = SigningKey::from_seed(&[3u8; 32]);
        let mut sig = sk.sign(b"msg");
        add_group_order(&mut sig);
        assert_eq!(
            sk.verifying_key().verify(b"msg", &sig),
            Err(Error::NonCanonicalScalar)
        );
    }

    /// S + L: the same residue, a non-canonical encoding.
    fn add_group_order(sig: &mut [u8; 64]) {
        let l = [
            0x5812631a5cf5d3edu64,
            0x14def9dea2f79cd6,
            0,
            0x1000000000000000,
        ];
        let mut carry = 0u64;
        for i in 0..4 {
            let s_limb = u64::from_le_bytes(sig[32 + i * 8..40 + i * 8].try_into().unwrap());
            let t = s_limb as u128 + l[i] as u128 + carry as u128;
            sig[32 + i * 8..40 + i * 8].copy_from_slice(&(t as u64).to_le_bytes());
            carry = (t >> 64) as u64;
        }
        // S + L < 2^256 for any canonical S, so no final carry.
        assert_eq!(carry, 0);
    }

    /// Runs the generic and the precomputed verifier on one input and
    /// insists on the same `Result`, error kind included.
    fn verify_both(key: &PrecomputedKey, message: &[u8], sig: &[u8; 64]) -> Result<(), Error> {
        let generic = key.verifying_key().verify(message, sig);
        assert_eq!(key.verify(message, sig), generic, "paths disagree");
        generic
    }

    #[test]
    fn precomputed_verify_matches_generic_under_every_mutation() {
        // A point of order exactly 8.
        let torsion = ExtendedPoint::decompress(&unhex32(
            "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
        ))
        .unwrap();
        assert!(torsion.is_small_order());
        assert!(!torsion.double().double().is_identity());

        for i in 0..12u8 {
            let sk = SigningKey::from_seed(sha512(&[i])[..32].try_into().unwrap());
            let other = SigningKey::from_seed(sha512(&[i, i])[..32].try_into().unwrap());
            let key = PrecomputedKey::new(sk.verifying_key());
            let message = sha512(&[i, 0xfe])[..5 + 4 * usize::from(i)].to_vec();
            let sig = sk.sign(&message);
            let bit = 1u8 << (i % 8);
            let at = usize::from(i) * 5 % 32;

            assert_eq!(verify_both(&key, &message, &sig), Ok(()));

            // A bit flipped in R: off the curve or the wrong point.
            let mut bad = sig;
            bad[at] ^= bit;
            assert!(verify_both(&key, &message, &bad).is_err());

            // A bit flipped in S: out of range or the wrong scalar.
            let mut bad = sig;
            bad[32 + at] ^= bit;
            assert!(verify_both(&key, &message, &bad).is_err());

            // A bit flipped in the message.
            let mut tampered = message.clone();
            tampered[at % message.len()] ^= bit;
            assert_eq!(verify_both(&key, &tampered, &sig), Err(Error::BadSignature));

            // The wrong signer.
            let wrong = PrecomputedKey::new(other.verifying_key());
            assert_eq!(
                verify_both(&wrong, &message, &sig),
                Err(Error::BadSignature)
            );

            // S + L.
            let mut bad = sig;
            add_group_order(&mut bad);
            assert_eq!(
                verify_both(&key, &message, &bad),
                Err(Error::NonCanonicalScalar)
            );

            // R encoded with y = p + 1 (≡ 1, non-canonical).
            let mut bad = sig;
            bad[..32].copy_from_slice(&[0xff; 32]);
            bad[0] = 0xee;
            bad[31] = 0x7f;
            assert_eq!(
                verify_both(&key, &message, &bad),
                Err(Error::MalformedPoint)
            );

            // A small-order R parses (RFC 8032 permits it) and fails
            // the equation.
            let mut bad = sig;
            bad[..32].copy_from_slice(&torsion.compress());
            assert_eq!(verify_both(&key, &message, &bad), Err(Error::BadSignature));

            // A signature whose R carries a torsion component: built
            // like `sign` but with R' = [r]B + T. The cofactored
            // equation accepts it on both paths — if either stopped
            // clearing the cofactor, the accept set would have drifted.
            let mut h = Sha512::new();
            h.update(&sk.prefix);
            h.update(&message);
            let r = Scalar::from_wide_bytes(&h.finalize());
            let r_bytes = BASEPOINT.mul(&r).add(&torsion).compress();
            let k = challenge_scalar(&r_bytes, &sk.verifying.compressed, &message);
            let mut twisted = [0u8; 64];
            twisted[..32].copy_from_slice(&r_bytes);
            twisted[32..].copy_from_slice(&(r + k * sk.a).to_bytes());
            assert_ne!(twisted, sig);
            assert_eq!(verify_both(&key, &message, &twisted), Ok(()));
        }
    }

    #[test]
    fn public_key_validation_rejects_garbage() {
        // All-0xFF: y ≥ p.
        assert_eq!(
            VerifyingKey::from_bytes(&[0xff; 32]),
            Err(Error::MalformedPoint)
        );
        // Identity point: small order.
        let mut ident = [0u8; 32];
        ident[0] = 1;
        assert_eq!(VerifyingKey::from_bytes(&ident), Err(Error::SmallOrderKey));
    }

    /// `signers` keys × `per_signer` signatures each, interleaved by
    /// signer, every message distinct.
    struct BatchFixture {
        keys: Vec<PrecomputedKey>,
        msgs: Vec<Vec<u8>>,
        sigs: Vec<[u8; 64]>,
    }

    impl BatchFixture {
        fn new(signers: usize, per_signer: usize) -> BatchFixture {
            let signing: Vec<SigningKey> = (0..signers)
                .map(|i| SigningKey::from_seed(sha512(&[i as u8, 0xba])[..32].try_into().unwrap()))
                .collect();
            let msgs: Vec<Vec<u8>> = (0..signers * per_signer)
                .map(|i| vec![i as u8; 1 + i % 40])
                .collect();
            let sigs = msgs
                .iter()
                .enumerate()
                .map(|(i, m)| signing[i % signers].sign(m))
                .collect();
            let keys = signing
                .iter()
                .map(|sk| PrecomputedKey::new(sk.verifying_key()))
                .collect();
            BatchFixture { keys, msgs, sigs }
        }

        /// The first `len` triples.
        fn items(&self, len: usize) -> Vec<(&PrecomputedKey, &[u8], &[u8; 64])> {
            (0..len)
                .map(|i| {
                    (
                        &self.keys[i % self.keys.len()],
                        self.msgs[i].as_slice(),
                        &self.sigs[i],
                    )
                })
                .collect()
        }
    }

    #[test]
    fn batch_accepts_all_valid() {
        let fixture = BatchFixture::new(8, 1);
        verify_batch(&fixture.items(8)).unwrap();
    }

    #[test]
    fn batch_rejects_one_bad_signature() {
        let mut fixture = BatchFixture::new(8, 1);
        fixture.sigs[5][33] ^= 0x40; // corrupt one S
        assert_eq!(verify_batch(&fixture.items(8)), Err(Error::BadSignature));
    }

    #[test]
    fn batch_of_one_and_empty_batch() {
        verify_batch(&[]).unwrap();
        let sk = SigningKey::from_seed(&[42u8; 32]);
        let key = PrecomputedKey::new(sk.verifying_key());
        let sig = sk.sign(b"solo");
        verify_batch(&[(&key, b"solo".as_slice(), &sig)]).unwrap();
        let bad = sk.sign(b"other");
        assert!(verify_batch(&[(&key, b"solo".as_slice(), &bad)]).is_err());
    }

    /// The folded batch against serial verification on batches with
    /// repeated signers — everything from one signer (an ingress
    /// lane's batch), 4 signers × 8, 64 distinct (a certificate, which
    /// never folds), 64 signers × 2 (64 key walks in one fold) — at
    /// sizes that put the number of repeats below, at and above the
    /// cutover, all valid and with one bad signature first, in the
    /// middle and last.
    #[test]
    fn folded_batch_agrees_with_serial_on_repeated_signers() {
        for (signers, per_signer) in [(1, 64), (4, 8), (64, 1), (64, 2)] {
            let total = signers * per_signer;
            let at = signers + FOLD_MIN_REPEATS;
            for len in [at - 1, at, at + 1, 2 * at + 1, total] {
                if len > total {
                    continue;
                }
                let good = BatchFixture::new(signers, per_signer);
                assert_eq!(verify_batch(&good.items(len)), Ok(()), "{signers}×, {len}");
                for bad_at in [0, len / 2, len - 1] {
                    let mut fixture = BatchFixture::new(signers, per_signer);
                    fixture.sigs[bad_at][40] ^= 1;
                    let items = fixture.items(len);
                    let serial = items.iter().try_for_each(|(k, m, s)| k.verify(m, s));
                    assert_eq!(serial, Err(Error::BadSignature));
                    assert_eq!(
                        verify_batch(&items),
                        serial,
                        "{signers} signers, batch {len}, bad at {bad_at}"
                    );
                }
            }
        }
    }

    /// A signature valid under one signer but attributed to another of
    /// the batch's signers must not slip through the per-key fold.
    #[test]
    fn folded_batch_rejects_a_signature_swapped_between_signers() {
        let mut fixture = BatchFixture::new(4, 8);
        fixture.sigs.swap(0, 1);
        assert_eq!(verify_batch(&fixture.items(32)), Err(Error::BadSignature));
        // Malformed input is reported as such at any size.
        let mut fixture = BatchFixture::new(1, 64);
        add_group_order(&mut fixture.sigs[63]);
        for len in [1, FOLD_MIN_REPEATS, 63] {
            assert_eq!(verify_batch(&fixture.items(len)), Ok(()));
        }
        assert_eq!(
            verify_batch(&fixture.items(64)),
            Err(Error::NonCanonicalScalar)
        );
    }
}
