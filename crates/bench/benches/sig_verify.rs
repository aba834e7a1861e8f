//! **Signature-verification micro-bench** — serial vs. batch Ed25519
//! over the vote statements certificates actually carry.
//!
//! Every committed block re-verifies its certificate's signatures at
//! the trust boundaries (live append, catch-up, manifest heads), so
//! per-signature verification cost sits directly on the commit path.
//! The redesigned API routes quorum checks through one
//! [`BatchVerifier`] pass (random linear combination, one shared
//! doubling chain over the whole batch) instead of `k` independent
//! verifications; this bench measures both on identical inputs and
//! **asserts** the win instead of just printing it: at quorum-scale
//! batches the batch path must deliver ≥ 2× the per-signature
//! throughput of the serial path. The simnet cost model's
//! `CryptoCosts` (sign 35 µs, verify 80 µs) describes the same
//! operations — the `sign_ns`/`serial_ns` columns let the two be
//! eyeballed against each other.
//!
//! Quick scale finishes in a couple of seconds (CI runs it in the
//! bench-smoke job); `SPOTLESS_FULL=1` multiplies the iteration count.

use ed25519::edwards::BASEPOINT;
use ed25519::scalar::Scalar;
use ed25519::{sha512, Sha512};
use spotless_bench::FigureTable;
use spotless_crypto::{KeyStore, Keypair};
use spotless_types::{Digest, InstanceId, ReplicaId, Signature, View, VoteStatement};
use std::hint::black_box;
use std::time::Instant;

fn iters() -> u32 {
    if std::env::var("SPOTLESS_FULL").is_ok_and(|v| v == "1") {
        200
    } else {
        20
    }
}

/// The floor the redesign is held to at quorum-scale batches.
const BATCH_SPEEDUP_FLOOR: f64 = 2.0;

/// The signing floor: the fixed-base table walk must deliver at least
/// this multiple of the generic double-and-add chain's per-signature
/// throughput. The theoretical edge is larger (≈ 4× fewer point
/// operations on the nonce commitment), but SHA-512 and compression
/// are shared costs, so the floor is set below the ~3× measured where
/// honest noise cannot flip it.
const SIGN_FLOOR: f64 = 2.0;

fn main() {
    let n: u32 = 64;
    let stores = KeyStore::cluster(b"sig-verify-bench", n);
    let reps = iters();

    let mut table = FigureTable::new(
        "sig_verify",
        &[
            "batch",
            "sign_ns",
            "serial_ns_per_sig",
            "batch_ns_per_sig",
            "speedup",
        ],
    );

    let mut headline_speedup = 0.0;
    for &k in &[4u32, 16, 64] {
        // One distinct vote statement per batch size, signed by the
        // first k replicas — the exact shape `verify_quorum` sees when
        // a certificate crosses a trust boundary.
        let statement = VoteStatement {
            instance: InstanceId(0),
            view: View(u64::from(k)),
            slot: 0,
            digest: Digest::from_u64(u64::from(k) * 31),
        };
        let message = statement.signing_bytes();

        let start = Instant::now();
        for _ in 0..reps {
            for store in stores.iter().take(k as usize) {
                black_box(store.sign_vote(black_box(&statement)));
            }
        }
        let sign_ns = start.elapsed().as_nanos() as f64 / f64::from(reps * k);

        let votes: Vec<(ReplicaId, Signature)> = stores
            .iter()
            .take(k as usize)
            .map(|s| (s.me(), s.sign_vote(&statement)))
            .collect();

        let start = Instant::now();
        for _ in 0..reps {
            for (r, sig) in &votes {
                stores[0]
                    .verify(*r, black_box(&message), sig)
                    .expect("genuine signature");
            }
        }
        let serial_ns = start.elapsed().as_nanos() as f64 / f64::from(reps * k);

        let start = Instant::now();
        for _ in 0..reps {
            stores[0]
                .verify_quorum(black_box(&message), &votes)
                .expect("genuine quorum");
        }
        let batch_ns = start.elapsed().as_nanos() as f64 / f64::from(reps * k);

        let speedup = serial_ns / batch_ns;
        headline_speedup = speedup;
        table.row(&[
            format!("{k}"),
            format!("{sign_ns:10.0}"),
            format!("{serial_ns:10.0}"),
            format!("{batch_ns:10.0}"),
            format!("{speedup:5.2} x"),
        ]);
    }

    // The floor is asserted at the largest batch, where the shared
    // doubling chain amortizes best; small batches are informational.
    assert!(
        headline_speedup >= BATCH_SPEEDUP_FLOOR,
        "batch verification must deliver ≥ {BATCH_SPEEDUP_FLOOR}× serial per-signature \
         throughput at batch 64 (got {headline_speedup:.2}×)"
    );

    // ── Signing: table-based `sign` against a generic reference ─────
    //
    // `KeyStore::sign` computes its nonce commitment `[r]B` from the
    // fixed-base table (≤ 64 additions, no doublings). The reference
    // is RFC 8032 signing written out here from `ed25519`'s public
    // pieces with a generic double-and-add `[r]B` — what `sign` did
    // before the table. Signatures must be byte-identical; the floor
    // is on per-signature time at the sealer's drain sizes.
    // `sign_batch` is a loop over `sign`, so its row is printed to
    // show the two are level, not gated.
    let mut sign_table = FigureTable::new(
        "sig_sign",
        &[
            "batch",
            "generic_ns_per_sig",
            "sign_ns_per_sig",
            "sign_batch_ns_per_sig",
            "speedup",
        ],
    );
    let seed = [0x5eu8; 32];
    let keypair = Keypair::from_seed(seed);
    let reference = ReferenceSigner::from_seed(&seed);
    let mut sign_headline = 0.0;
    for &k in &[4u32, 32] {
        // Distinct messages, like distinct outbound envelopes.
        let messages: Vec<Vec<u8>> = (0..k)
            .map(|i| format!("seal-queue-envelope-{k}-{i}").into_bytes())
            .collect();
        let refs: Vec<&[u8]> = messages.iter().map(|m| m.as_slice()).collect();

        let start = Instant::now();
        for _ in 0..reps {
            for m in &refs {
                black_box(reference.sign(black_box(m)));
            }
        }
        let generic_ns = start.elapsed().as_nanos() as f64 / f64::from(reps * k);

        let start = Instant::now();
        for _ in 0..reps {
            for m in &refs {
                black_box(keypair.sign(black_box(m)));
            }
        }
        let sign_ns = start.elapsed().as_nanos() as f64 / f64::from(reps * k);

        let start = Instant::now();
        for _ in 0..reps {
            black_box(keypair.sign_batch(black_box(&refs)));
        }
        let batched_ns = start.elapsed().as_nanos() as f64 / f64::from(reps * k);

        // Byte-identical signatures — peers cannot tell the paths apart.
        let batched = keypair.sign_batch(&refs);
        for (m, sig) in refs.iter().zip(&batched) {
            assert_eq!(keypair.sign(m), *sig, "sign_batch must match sign");
            assert_eq!(reference.sign(m), sig.0, "sign must match the reference");
        }

        let speedup = generic_ns / sign_ns;
        sign_headline = speedup;
        sign_table.row(&[
            format!("{k}"),
            format!("{generic_ns:10.0}"),
            format!("{sign_ns:10.0}"),
            format!("{batched_ns:10.0}"),
            format!("{speedup:5.2} x"),
        ]);
    }
    assert!(
        sign_headline >= SIGN_FLOOR,
        "table-based signing must deliver ≥ {SIGN_FLOOR}× the generic reference's \
         per-signature throughput (got {sign_headline:.2}×)"
    );
}

/// RFC 8032 §5.1.6 signing from `ed25519`'s public pieces, with the
/// nonce commitment computed by the generic wNAF `mul`: the oracle the
/// table-based `sign` is timed and byte-compared against.
struct ReferenceSigner {
    a: Scalar,
    prefix: [u8; 32],
    public: [u8; 32],
}

impl ReferenceSigner {
    fn from_seed(seed: &[u8; 32]) -> ReferenceSigner {
        let h = sha512(seed);
        let mut a_bytes: [u8; 32] = h[..32].try_into().unwrap();
        a_bytes[0] &= 248;
        a_bytes[31] &= 127;
        a_bytes[31] |= 64;
        let a = Scalar::from_bytes_mod_order(&a_bytes);
        ReferenceSigner {
            a,
            prefix: h[32..].try_into().unwrap(),
            public: BASEPOINT.mul(&a).compress(),
        }
    }

    fn sign(&self, message: &[u8]) -> [u8; 64] {
        let mut h = Sha512::new();
        h.update(&self.prefix);
        h.update(message);
        let r = Scalar::from_wide_bytes(&h.finalize());
        let r_bytes = BASEPOINT.mul(&r).compress();
        let mut h = Sha512::new();
        h.update(&r_bytes);
        h.update(&self.public);
        h.update(message);
        let k = Scalar::from_wide_bytes(&h.finalize());
        let mut sig = [0u8; 64];
        sig[..32].copy_from_slice(&r_bytes);
        sig[32..].copy_from_slice(&(r + k * self.a).to_bytes());
        sig
    }
}
