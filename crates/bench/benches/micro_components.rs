//! Criterion microbenchmarks for the substrates: from-scratch crypto,
//! proposal hashing, quorum bitsets, YCSB generation, and the simulator
//! event loop.
//!
//! The hashing rows run on whichever SHA-256 kernel the CPU selected
//! (printed first) next to the portable kernel called directly; when
//! the hardware kernel is the one in use, the bench **asserts** it is
//! ≥ 3× the portable one on a 5 400-byte proposal and ≥ 2.5× on a
//! 65-byte Merkle node, so a kernel that silently stopped being
//! selected — or a small-message path that lost its advantage to
//! set-up cost — fails here instead of in a throughput graph.

use criterion::{criterion_group, criterion_main, Criterion};
use spotless_bench::{run, Protocol, RunSpec};
use spotless_crypto::sha256::{kernel, portable_digest};
use spotless_crypto::{digest_bytes, fold_proof, hmac_sha256, MerkleTree, ProofStep, Sha256};
use spotless_types::{ReplicaId, ReplicaSet, SimDuration};
use spotless_workload::{WorkloadGen, YcsbConfig};
use std::hint::black_box;
use std::time::Instant;

/// Hardware kernel over portable kernel, bulk (measured 5–6×).
const BULK_FLOOR: f64 = 3.0;

/// The same on one 65-byte Merkle node, where per-call set-up is a
/// visible share of two compressions (measured 4–5×).
const NODE_FLOOR: f64 = 2.5;

/// Nanoseconds per call of `routine`: the fastest of five timed runs of
/// `calls` back-to-back calls (the criterion stand-in times single
/// calls, and a clock read costs a third of a 65-byte hash), printed
/// as a `bench` row.
fn per_call_ns<O>(name: &str, calls: u32, mut routine: impl FnMut() -> O) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..5 {
        let start = Instant::now();
        for _ in 0..calls {
            black_box(routine());
        }
        best = best.min(start.elapsed().as_nanos() as f64 / f64::from(calls));
    }
    println!("bench {name:<40} {best:>12.0} ns/iter");
    best
}

fn bench_crypto(c: &mut Criterion) {
    println!("sha256 kernel: {}", kernel());
    let data = vec![0xA5u8; 5400]; // one proposal's worth
    let bulk = per_call_ns("sha256_5400B", 2_000, || Sha256::digest(black_box(&data)));
    let bulk_portable = per_call_ns("sha256_5400B_portable", 2_000, || {
        portable_digest(black_box(&data))
    });
    let block = [0xA5u8; 64]; // a chain link: two compressions
    per_call_ns("sha256_64B", 100_000, || Sha256::digest(black_box(&block)));

    // One interior node, `H(0x01 ‖ left ‖ right)`, as a proof step folds
    // it — and the same 65 bytes through the portable kernel.
    let (left, right) = (digest_bytes(b"left"), digest_bytes(b"right"));
    let step = [ProofStep {
        sibling: right,
        sibling_on_right: true,
    }];
    let node = per_call_ns("merkle_node_65B", 100_000, || {
        fold_proof(black_box(left), black_box(&step))
    });
    let mut node_bytes = vec![0x01];
    node_bytes.extend_from_slice(&left.0);
    node_bytes.extend_from_slice(&right.0);
    assert_eq!(fold_proof(left, &step).0, portable_digest(&node_bytes));
    let node_portable = per_call_ns("merkle_node_65B_portable", 100_000, || {
        portable_digest(black_box(&node_bytes))
    });

    // One dirty bucket in a shard's 128-leaf tree: a leaf and its seven
    // ancestors.
    let leaves: Vec<[u8; 32]> = (0..128u8).map(|i| [i; 32]).collect();
    let mut tree = MerkleTree::build(&leaves);
    let mut turn = 0u8;
    per_call_ns("merkle_update_128x1", 20_000, || {
        turn = turn.wrapping_add(1);
        tree.update(&[(usize::from(turn % 128), [turn; 32])]);
        tree.root()
    });

    if kernel() == "sha-ni" {
        let (bulk_ratio, node_ratio) = (bulk_portable / bulk, node_portable / node);
        println!("sha-ni over portable: {bulk_ratio:.1}x at 5400 B, {node_ratio:.1}x per node");
        assert!(
            bulk_ratio >= BULK_FLOOR,
            "sha-ni only {bulk_ratio:.2}x portable on 5400 B (floor {BULK_FLOOR}x)"
        );
        assert!(
            node_ratio >= NODE_FLOOR,
            "sha-ni only {node_ratio:.2}x portable on a 65-byte node (floor {NODE_FLOOR}x)"
        );
    }

    let key = [7u8; 32];
    let msg = vec![0x5Au8; 432]; // one Sync message
    c.bench_function("hmac_sha256_432B", |b| {
        b.iter(|| hmac_sha256(black_box(&key), black_box(&msg)))
    });
}

fn bench_replica_set(c: &mut Criterion) {
    c.bench_function("replica_set_quorum_count_128", |b| {
        b.iter(|| {
            let mut s = ReplicaSet::new(128);
            for i in 0..86u32 {
                s.insert(ReplicaId(i * 3 % 128));
            }
            black_box(s.len())
        })
    });
}

fn bench_ycsb(c: &mut Criterion) {
    c.bench_function("ycsb_batch_100", |b| {
        let mut generator = WorkloadGen::new(YcsbConfig::default(), 1);
        b.iter(|| black_box(generator.next_batch(100)))
    });
}

fn bench_simulation(c: &mut Criterion) {
    c.bench_function("sim_spotless_n4_300ms", |b| {
        b.iter(|| {
            let mut spec = RunSpec::new(Protocol::SpotLess, 4);
            spec.duration = SimDuration::from_millis(300);
            spec.warmup = SimDuration::from_millis(100);
            black_box(run(&spec).txns)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_crypto, bench_replica_set, bench_ycsb, bench_simulation
}
criterion_main!(benches);
