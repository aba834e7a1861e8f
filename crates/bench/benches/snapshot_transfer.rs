//! **Snapshot transfer micro-bench**, at quick scale: what do both ends
//! of a verified, chunked state transfer cost?
//!
//! Two measurements over a populated KV store:
//!
//! * `chunked_encode` — the serving side of the v3 path: canonical
//!   bucket chunks plus the Merkle state tree and per-bucket inclusion
//!   proofs.
//! * `chunked_verify_decode` — the receiving side: per-chunk proof
//!   verification against the state root, decoding, reassembly, and the
//!   final audit-root check — i.e. the *verified* install.
//!
//! Quick scale finishes in seconds (CI runs it in the bench-smoke job);
//! `SPOTLESS_FULL=1` scales the store up an order of magnitude.

use criterion::{criterion_group, criterion_main, Criterion};
use spotless_types::SNAPSHOT_CHUNK_BYTES;
use spotless_workload::{
    shard_of_bucket, verify_bucket, KvStore, StateChunk, WorkloadGen, YcsbConfig,
};
use std::hint::black_box;

fn records() -> u64 {
    if std::env::var("SPOTLESS_FULL").is_ok_and(|v| v == "1") {
        200_000
    } else {
        20_000
    }
}

/// A store with `records()` populated keys plus a writeback workload on
/// top (so values differ and buckets are non-uniform).
fn populated() -> KvStore {
    let mut store = KvStore::initialized(records(), 128);
    let mut generator = WorkloadGen::new(YcsbConfig::default(), 42);
    store.execute_batch(&generator.next_batch(2_000));
    store
}

fn bench_transfer(c: &mut Criterion) {
    let mut store = populated();
    let root = store.state_root();
    // Quick scale uses a smaller chunk budget so the bench exercises a
    // multi-chunk plan at test-sized state; full scale uses the real
    // frame-derived budget.
    let budget = if std::env::var("SPOTLESS_FULL").is_ok_and(|v| v == "1") {
        SNAPSHOT_CHUNK_BYTES
    } else {
        256 * 1024
    };

    c.bench_function("snapshot_chunked_encode", |b| {
        b.iter(|| {
            let prover = store.state_prover();
            let mut frames = 0usize;
            for chunk in store.to_chunks(budget) {
                black_box(prover.prove_shard(shard_of_bucket(chunk.first_bucket as usize)));
                for off in 0..chunk.buckets.len() {
                    black_box(prover.prove_bucket(chunk.first_bucket as usize + off));
                }
                black_box(chunk.encode());
                frames += 1;
            }
            black_box(frames)
        })
    });

    // Pre-build the wire artifacts once; the bench measures the
    // receiver.
    type Proofs = Vec<(
        Vec<spotless_crypto::ProofStep>,
        Vec<spotless_crypto::ProofStep>,
    )>;
    let prover = store.state_prover();
    let chunks: Vec<(Vec<u8>, Proofs)> = store
        .to_chunks(budget)
        .into_iter()
        .map(|chunk| {
            let proofs = (0..chunk.buckets.len())
                .map(|off| {
                    prover
                        .prove_bucket(chunk.first_bucket as usize + off)
                        .unwrap()
                })
                .collect();
            (chunk.encode(), proofs)
        })
        .collect();
    let meta = store.transfer_meta();
    c.bench_function("snapshot_chunked_verify_decode", |b| {
        b.iter(|| {
            let mut decoded = Vec::with_capacity(chunks.len());
            for (bytes, proofs) in &chunks {
                let chunk = StateChunk::decode(black_box(bytes)).expect("decodes");
                for (off, (bucket, (shard_proof, top_proof))) in
                    chunk.buckets.iter().zip(proofs).enumerate()
                {
                    let b = chunk.first_bucket as usize + off;
                    assert!(verify_bucket(b, bucket, shard_proof, top_proof, &root));
                }
                decoded.push(chunk);
            }
            let back = KvStore::from_transfer(&meta, &decoded).expect("assembles");
            assert_eq!(back.rebuild_state_root(), root);
            black_box(back.len())
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_transfer
}
criterion_main!(benches);
