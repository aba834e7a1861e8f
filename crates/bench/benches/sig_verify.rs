//! **Signature micro-bench** — Ed25519 over a fixed key set, every
//! table-based path against the generic computation it replaced.
//!
//! A replica signs with one key and verifies against `n`, all known
//! when its `KeyStore` is built, so `compat/ed25519` keeps a 30 KiB
//! table of multiples per fixed point (the basepoint, each signer) and
//! both operations walk tables instead of doubling chains. Three
//! tables, each **asserting** its floor instead of just printing it:
//!
//! * `sig_verify` — `KeyStore::verify` (two table walks) against
//!   `PublicKey::verify` (generic double-scalar multiplication, kept as
//!   the reference): ≥ 1.6× at 4 signers *and* at 64 rotating ones,
//!   where 1.9 MiB of tables compete for cache. Tables are built before
//!   any clock starts.
//! * `sig_verify_batch` — `verify_batch_refs` against serial table
//!   verification on the shape ingress produces: a one-sender run
//!   (2–32 envelopes; folds into two table walks, ≥ 1.25× at 32). The
//!   rows at 2 / 4 / 8 / 16 / 32 are what `FOLD_MIN_REPEATS` in
//!   `compat/ed25519` was fixed from. A certificate's signers are
//!   distinct, so `verify_quorum` is a loop over `verify` and has no
//!   row of its own.
//! * `sig_sign` — `sign` (fixed-base table) against an RFC 8032
//!   reference signer written out below with the generic `[r]B`, over
//!   the same `signing_digest(m)`: ≥ 2×, byte-identical signatures.
//! * `sig_size` — what signing the SHA-256 signing digest instead of
//!   the message buys as messages grow: plain RFC 8032 over `m` (two
//!   software SHA-512 passes over it to sign, one to verify; both on
//!   tables) against `Keypair::sign` / `KeyStore::verify` (one SHA-256
//!   pass, then Ed25519 over 32 bytes), at 64 B, a `Sync` (432 B), a
//!   4 KiB message and a 34 000-byte proposal envelope. At 34 000 B:
//!   sign ≥ 4×, verify ≥ 2× (measured 5.0–6.5× and 2.3–2.8× where
//!   SHA-256 runs on the SHA extensions; the floors apply only with
//!   that kernel).
//!
//! The simnet cost model's `CryptoCosts` (sign 35 µs, verify 80 µs)
//! describes the same operations and is now ≈ 2.5× above the measured
//! `sign_ns_per_sig` / `table_ns` columns (ROADMAP item 8).
//!
//! Quick scale finishes in a couple of seconds (CI runs it in the
//! bench-smoke job); `SPOTLESS_FULL=1` multiplies the iteration count.

use ed25519::edwards::BASEPOINT;
use ed25519::scalar::Scalar;
use ed25519::{sha512, Sha512};
use spotless_bench::FigureTable;
use spotless_crypto::signing::signing_digest;
use spotless_crypto::{sha256, KeyStore, Keypair};
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

/// The floor per-signer tables are held to against the generic
/// double-scalar reference, at 4 signers and at 64 rotating ones
/// (measured 2.2–2.7×).
const VERIFY_FLOOR: f64 = 1.6;

/// A full ingress-lane batch (32 envelopes, one sender) against serial
/// table verification (measured 1.6–1.7×).
const LANE_BATCH_FLOOR: f64 = 1.25;

/// Per-signature nanoseconds of `serial` and of `batch` over the same
/// `items`, `rounds` times each.
fn time_pair<'a>(
    rounds: u32,
    k: usize,
    items: &[(ReplicaId, &'a [u8], &'a Signature)],
    serial: impl Fn(&[(ReplicaId, &'a [u8], &'a Signature)]),
    batch: impl Fn(&[(ReplicaId, &'a [u8], &'a Signature)]),
) -> (f64, f64) {
    let per_sig =
        |elapsed: std::time::Duration| elapsed.as_nanos() as f64 / (f64::from(rounds) * k as f64);
    // One untimed pass each, so neither column pays for cold tables.
    serial(items);
    batch(items);
    let start = Instant::now();
    for _ in 0..rounds {
        serial(black_box(items));
    }
    let serial_ns = per_sig(start.elapsed());
    let start = Instant::now();
    for _ in 0..rounds {
        batch(black_box(items));
    }
    (serial_ns, per_sig(start.elapsed()))
}

/// The signing floor: the fixed-base table walk must deliver at least
/// this multiple of the generic double-and-add chain's per-signature
/// throughput. The theoretical edge is larger (≈ 4× fewer point
/// operations on the nonce commitment), but SHA-512 and compression
/// are shared costs, so the floor is set below the ~3× measured where
/// honest noise cannot flip it.
const SIGN_FLOOR: f64 = 2.0;

/// What signing a 34 000-byte message's digest must save over signing
/// the message itself, under the hardware SHA-256 kernel (measured
/// 5.0–6.5× sign, 2.3–2.8× verify).
const DIGEST_SIGN_FLOOR: f64 = 4.0;
const DIGEST_VERIFY_FLOOR: f64 = 2.0;

/// Message sizes of the `sig_size` table: a short vote-sized message,
/// a `Sync` envelope, 4 KiB, and a `tcp-durable-large` proposal
/// envelope.
const SIZES: [usize; 4] = [64, 432, 4096, 34_000];

fn main() {
    let n: u32 = 64;
    let stores = KeyStore::cluster(b"sig-verify-bench", n);
    let reps = iters();

    // One vote statement signed by all 64 replicas — the shape a
    // certificate carries across a trust boundary.
    let statement = VoteStatement {
        instance: InstanceId(0),
        view: View(64),
        slot: 0,
        digest: Digest::from_u64(64 * 31),
    };
    let message = statement.signing_bytes();
    let votes: Vec<(ReplicaId, Signature)> = stores
        .iter()
        .map(|s| (s.me(), s.sign_vote(&statement)))
        .collect();
    // Build every signer's table before any clock starts: 20 reps over
    // 64 signers would otherwise time 64 table builds.
    for (r, sig) in &votes {
        stores[0]
            .verify(*r, &message, sig)
            .expect("genuine signature");
    }

    // ── Single verification: per-signer tables against the generic
    //    double-scalar reference ────────────────────────────────────
    //
    // 64 verifications per rep, rotating through `signers` keys: 4 is
    // the deployed cluster (tables stay in L1/L2), 64 is 1.9 MiB of
    // tables fighting for cache — the case a roomier table layout lost.
    let mut table = FigureTable::new(
        "sig_verify",
        &["signers", "generic_ns", "table_ns", "speedup"],
    );
    for &signers in &[4usize, 64] {
        let rotation: Vec<&(ReplicaId, Signature)> = (0..64).map(|i| &votes[i % signers]).collect();

        let start = Instant::now();
        for _ in 0..reps {
            for (r, sig) in &rotation {
                stores[0]
                    .public_of(*r)
                    .expect("known signer")
                    .verify(black_box(&message), sig)
                    .expect("genuine signature");
            }
        }
        let generic_ns = start.elapsed().as_nanos() as f64 / f64::from(reps * 64);

        let start = Instant::now();
        for _ in 0..reps {
            for (r, sig) in &rotation {
                stores[0]
                    .verify(*r, black_box(&message), sig)
                    .expect("genuine signature");
            }
        }
        let table_ns = start.elapsed().as_nanos() as f64 / f64::from(reps * 64);

        let speedup = generic_ns / table_ns;
        table.row(&[
            format!("{signers}"),
            format!("{generic_ns:10.0}"),
            format!("{table_ns:10.0}"),
            format!("{speedup:5.2} x"),
        ]);
        assert!(
            speedup >= VERIFY_FLOOR,
            "table-based verification must deliver ≥ {VERIFY_FLOOR}× the generic \
             reference at {signers} rotating signers (got {speedup:.2}×)"
        );
    }

    // ── Batch verification against serial, both on tables ──────────
    //
    // The `one` shape: a one-sender ingress run (distinct payloads).
    let mut batch_table = FigureTable::new(
        "sig_verify_batch",
        &[
            "batch",
            "signers",
            "serial_ns_per_sig",
            "batch_ns_per_sig",
            "speedup",
        ],
    );
    let payloads: Vec<Vec<u8>> = (0..32u32)
        .map(|i| format!("ingress-lane-envelope-{i:04}-{}", "x".repeat(24)).into_bytes())
        .collect();
    let sender_sigs: Vec<Signature> = payloads.iter().map(|p| stores[1].sign(p)).collect();
    let mut lane_speedup = 0.0;
    let serial = |items: &[(ReplicaId, &[u8], &Signature)]| {
        for (r, m, sig) in items {
            stores[0].verify(*r, m, sig).expect("genuine signature");
        }
    };
    for &k in &[2usize, 4, 8, 16, 32] {
        let items: Vec<(ReplicaId, &[u8], &Signature)> = payloads
            .iter()
            .zip(&sender_sigs)
            .take(k)
            .map(|(p, sig)| (ReplicaId(1), p.as_slice(), sig))
            .collect();
        let batch = |items: &[(ReplicaId, &[u8], &Signature)]| {
            stores[0].verify_batch_refs(items).expect("genuine batch");
        };
        // Same number of signatures per row whatever the batch size.
        let rounds = reps * (64 / k as u32);
        let (serial_ns, batch_ns) = time_pair(rounds, k, &items, serial, batch);
        lane_speedup = serial_ns / batch_ns;
        batch_table.row(&[
            format!("{k}"),
            "one".into(),
            format!("{serial_ns:10.0}"),
            format!("{batch_ns:10.0}"),
            format!("{:5.2} x", serial_ns / batch_ns),
        ]);
    }
    // The floor at the last row: a full lane batch folds into two
    // table walks and must beat serial outright.
    assert!(
        lane_speedup >= LANE_BATCH_FLOOR,
        "a 32-envelope single-sender batch must deliver ≥ {LANE_BATCH_FLOOR}× serial \
         per-signature throughput (got {lane_speedup:.2}×)"
    );

    // ── Signing: table-based `sign` against a generic reference ─────
    //
    // `KeyStore::sign` computes its nonce commitment `[r]B` from the
    // fixed-base table (≤ 64 additions, no doublings). The reference
    // is RFC 8032 signing written out here from `ed25519`'s public
    // pieces with a generic double-and-add `[r]B` — what `sign` did
    // before the table — over the same signing digest. Signatures must
    // be byte-identical; the floor is on per-signature time at batch
    // sizes 4 and 32.
    let mut sign_table = FigureTable::new(
        "sig_sign",
        &["batch", "generic_ns_per_sig", "sign_ns_per_sig", "speedup"],
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
                black_box(reference.sign(&signing_digest(black_box(m))));
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

        // Byte-identical signatures — peers cannot tell the paths apart.
        for m in &refs {
            assert_eq!(
                reference.sign(&signing_digest(m)),
                keypair.sign(m).0,
                "sign must match the reference over the signing digest"
            );
        }

        let speedup = generic_ns / sign_ns;
        sign_headline = speedup;
        sign_table.row(&[
            format!("{k}"),
            format!("{generic_ns:10.0}"),
            format!("{sign_ns:10.0}"),
            format!("{speedup:5.2} x"),
        ]);
    }
    assert!(
        sign_headline >= SIGN_FLOOR,
        "table-based signing must deliver ≥ {SIGN_FLOOR}× the generic reference's \
         per-signature throughput (got {sign_headline:.2}×)"
    );

    size_table(&stores, &seed, reps);
}

/// The `sig_size` table: per-message sign and verify time of RFC 8032
/// over the message itself (`ed25519`'s table-based `sign` and
/// `PrecomputedKey::verify`, what this crate did before it signed
/// digests) against `Keypair::sign` and `KeyStore::verify` over the
/// same message. Floors at the largest size under the hardware SHA-256
/// kernel.
fn size_table(stores: &[KeyStore], seed: &[u8; 32], reps: u32) {
    let mut table = FigureTable::new(
        "sig_size",
        &[
            "bytes",
            "message_sign_ns",
            "digest_sign_ns",
            "sign_speedup",
            "message_verify_ns",
            "digest_verify_ns",
            "verify_speedup",
        ],
    );
    let raw = ed25519::SigningKey::from_seed(seed);
    let raw_table = ed25519::PrecomputedKey::new(raw.verifying_key());
    let keypair = Keypair::from_seed(*seed);
    // `stores[1]`'s table is built (the first section verified under
    // it), so `KeyStore::verify` below times no table build.
    let signer = ReplicaId(1);
    let (mut sign_speedup, mut verify_speedup) = (0.0, 0.0);
    for bytes in SIZES {
        // Four distinct messages per size; fewer rounds at the larger
        // sizes keep the quick scale quick.
        let messages: Vec<Vec<u8>> = (0..4u8)
            .map(|i| (0..bytes).map(|j| (j as u8).wrapping_mul(31) ^ i).collect())
            .collect();
        let rounds = reps * (4096 / bytes.min(4096)) as u32;
        let per_op = |elapsed: std::time::Duration| {
            elapsed.as_nanos() as f64 / (f64::from(rounds) * messages.len() as f64)
        };
        // Per-operation nanoseconds of `op` over message `i`, every
        // message `rounds` times.
        let time = |op: &dyn Fn(usize)| {
            let start = Instant::now();
            for _ in 0..rounds {
                for i in 0..messages.len() {
                    op(black_box(i));
                }
            }
            per_op(start.elapsed())
        };
        let message_sign_ns = time(&|i| {
            black_box(raw.sign(&messages[i]));
        });
        let digest_sign_ns = time(&|i| {
            black_box(keypair.sign(&messages[i]));
        });
        let raw_sigs: Vec<[u8; 64]> = messages.iter().map(|m| raw.sign(m)).collect();
        let sigs: Vec<Signature> = messages.iter().map(|m| stores[1].sign(m)).collect();
        let message_verify_ns = time(&|i| {
            raw_table
                .verify(&messages[i], &raw_sigs[i])
                .expect("genuine signature");
        });
        let digest_verify_ns = time(&|i| {
            stores[0]
                .verify(signer, &messages[i], &sigs[i])
                .expect("genuine signature");
        });
        sign_speedup = message_sign_ns / digest_sign_ns;
        verify_speedup = message_verify_ns / digest_verify_ns;
        table.row(&[
            format!("{bytes}"),
            format!("{message_sign_ns:10.0}"),
            format!("{digest_sign_ns:10.0}"),
            format!("{sign_speedup:5.2} x"),
            format!("{message_verify_ns:10.0}"),
            format!("{digest_verify_ns:10.0}"),
            format!("{verify_speedup:5.2} x"),
        ]);
    }
    println!("sha-256 kernel: {}", sha256::kernel());
    if sha256::kernel() == "sha-ni" {
        assert!(
            sign_speedup >= DIGEST_SIGN_FLOOR,
            "signing a 34 000-byte message's digest must be ≥ {DIGEST_SIGN_FLOOR}× faster \
             than signing the message (got {sign_speedup:.2}×)"
        );
        assert!(
            verify_speedup >= DIGEST_VERIFY_FLOOR,
            "verifying over a 34 000-byte message's digest must be ≥ {DIGEST_VERIFY_FLOOR}× \
             faster than over the message (got {verify_speedup:.2}×)"
        );
    }
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
