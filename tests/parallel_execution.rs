//! Serial-vs-parallel execution equivalence: the determinism contract
//! of the conflict-aware executor, pinned byte-for-byte.
//!
//! Execute-then-seal makes execution order consensus-critical — the
//! `state_root` a block seals must be the same no matter how the
//! runtime schedules the commit group. These proptests drive
//! `execute_group` (inline and through a real worker pool) against the
//! serial `KvStore::execute_batch` reference over random batch mixes —
//! conflicting, disjoint, cross-shard, read-only, and empty — and
//! require identical per-batch state digests AND identical per-batch
//! two-level state roots. Any scheduling bug that reorders observable
//! effects shows up here as a digest mismatch, not as a rare cluster
//! divergence.

use proptest::prelude::*;
use spotless::runtime::{execute_group, ExecutorPool};
use spotless::types::Digest;
use spotless::workload::{
    batch_bucket_footprint, batch_footprint, bucket_of, shard_of_key, KvStore, Operation,
    Transaction,
};

/// One generated operation: `(write?, key-seed, value length)`. Keys
/// stay small-ish so batches collide on buckets often enough to
/// exercise conflict serialization, not just disjoint fan-out.
fn operations() -> impl Strategy<Value = Vec<(bool, u64, u8)>> {
    prop::collection::vec((any::<bool>(), 0u64..50_000, any::<u8>()), 0..24)
}

/// A commit group: up to 8 batches, each either an empty
/// (simulation-style) payload or a transaction list.
fn groups() -> impl Strategy<Value = Vec<Option<Vec<(bool, u64, u8)>>>> {
    prop::collection::vec(prop::option::of(operations()), 0..8)
}

fn to_txns(ops: &[(bool, u64, u8)], batch: usize) -> Vec<Transaction> {
    ops.iter()
        .enumerate()
        .map(|(i, &(write, key, len))| Transaction {
            id: (batch as u64) << 32 | i as u64,
            op: if write {
                Operation::Update {
                    key,
                    value: vec![key as u8; usize::from(len) % 64],
                }
            } else {
                Operation::Read { key }
            },
        })
        .collect()
}

/// The serial reference: per-batch `(state_digest, state_root)` via
/// one `execute_batch` call per batch, in commit order.
fn serial_reference(
    mut kv: KvStore,
    batches: &[Option<Vec<Transaction>>],
) -> (Vec<(Digest, Digest)>, KvStore) {
    let mut sealed = Vec::new();
    for b in batches {
        let digest = match b {
            Some(txns) => kv.execute_batch(txns),
            None => kv.state_digest(),
        };
        sealed.push((digest, kv.state_root()));
    }
    (sealed, kv)
}

/// Runs `group` through `execute_group` and through the serial
/// reference, each over its own copy of `store()`, and requires the
/// same seals and the same final store.
fn assert_matches_serial_over(
    store: fn() -> KvStore,
    group: Vec<Option<Vec<(bool, u64, u8)>>>,
    pool: Option<&mut ExecutorPool>,
) {
    let batches: Vec<Option<Vec<Transaction>>> = group
        .iter()
        .enumerate()
        .map(|(i, ops)| ops.as_ref().map(|o| to_txns(o, i)))
        .collect();
    let (expect, mut serial_kv) = serial_reference(store(), &batches);
    let mut kv = store();
    let got: Vec<(Digest, Digest)> = execute_group(pool, &mut kv, batches)
        .into_iter()
        .map(|s| (s.state_digest, s.state_root))
        .collect();
    assert_eq!(
        got, expect,
        "per-batch sealed digests/roots must match serial"
    );
    assert_eq!(kv.state_root(), serial_kv.state_root());
    assert_eq!(kv.state_root(), kv.rebuild_state_root());
    assert_eq!(kv.state_digest(), serial_kv.state_digest());
    assert_eq!(kv.writes_applied(), serial_kv.writes_applied());
    assert_eq!(kv.reads_served(), serial_kv.reads_served());
}

fn assert_matches_serial(
    group: Vec<Option<Vec<(bool, u64, u8)>>>,
    pool: Option<&mut ExecutorPool>,
) {
    assert_matches_serial_over(KvStore::new, group, pool);
}

/// A store whose every bucket already holds records and whose shard
/// trees are sealed: the group's writes land as in-place path updates
/// over existing leaves, not as first fills of an empty tree.
fn populated() -> KvStore {
    let mut kv = KvStore::initialized(4096, 16);
    kv.state_root();
    kv
}

proptest! {
    /// Inline scheduling (no pool): the grouping/fold logic alone.
    #[test]
    fn inline_execution_matches_serial(group in groups()) {
        assert_matches_serial(group, None);
    }

    /// Through a real worker pool: disjoint components genuinely run
    /// on other threads, and the commit-order fold must still seal
    /// serial roots.
    #[test]
    fn pooled_execution_matches_serial(group in groups()) {
        let mut pool = ExecutorPool::spawn(3);
        assert_matches_serial(group, Some(&mut pool));
    }

    /// The same random groups over a populated, already-sealed store,
    /// inline: the commit-order fold starts from live shard trees.
    #[test]
    fn inline_execution_matches_serial_on_a_populated_store(group in groups()) {
        assert_matches_serial_over(populated, group, None);
    }

    /// And through a real (work-stealing) pool: contested shards split
    /// into slices, idle workers steal queued components, and the fold's
    /// tree copies must still seal the serial roots.
    #[test]
    fn pooled_execution_matches_serial_on_a_populated_store(group in groups()) {
        let mut pool = ExecutorPool::spawn(3);
        assert_matches_serial_over(populated, group, Some(&mut pool));
    }
}

/// Deterministic worst cases the random mixes may under-sample: every
/// batch conflicting on one shard, and a cross-shard batch bridging
/// two otherwise-independent components.
#[test]
fn full_conflict_and_bridge_groups_match_serial() {
    let key_in = |s: usize, salt: u64| -> u64 {
        (0..)
            .map(|i| salt.wrapping_mul(7919) + i)
            .find(|&k| shard_of_key(k) == s)
            .unwrap()
    };
    let write = |id: u64, key: u64| (true, key, id as u8);

    // All eight batches pile onto shard 2: one component, commit order.
    let hot: Vec<Option<Vec<(bool, u64, u8)>>> = (0..8)
        .map(|i| Some(vec![write(i, key_in(2, i)), (false, key_in(2, i + 1), 0)]))
        .collect();
    let mut pool = ExecutorPool::spawn(2);
    assert_matches_serial(hot, Some(&mut pool));

    // Shards 1 and 6 run independently until a bridge batch links them.
    let bridged = vec![
        Some(vec![write(1, key_in(1, 1))]),
        Some(vec![write(2, key_in(6, 2))]),
        Some(vec![write(3, key_in(1, 3)), write(4, key_in(6, 4))]),
        Some(vec![write(5, key_in(6, 5))]),
    ];
    let all: u8 = bridged
        .iter()
        .flatten()
        .map(|ops| batch_footprint(&to_txns(ops, 0)))
        .fold(0, |a, b| a | b);
    assert!(
        all.count_ones() == 2,
        "fixture must span exactly two shards"
    );
    assert_matches_serial(bridged, Some(&mut pool));
}

/// The refinement bucket-level footprints buy: batches that share a
/// shard but not a bucket stay independent components (the contested
/// shard splits into slices) and must still seal serial roots.
#[test]
fn same_shard_distinct_buckets_split_and_match_serial() {
    let mut first = None;
    let mut pair = None;
    for k in 0..1_000_000u64 {
        if shard_of_key(k) != 4 {
            continue;
        }
        match first {
            None => first = Some(k),
            Some(ka) if bucket_of(k) != bucket_of(ka) => {
                pair = Some((ka, k));
                break;
            }
            _ => {}
        }
    }
    let (ka, kb) = pair.expect("two shard-4 keys in distinct buckets");
    let write = |id: u64, key: u64| (true, key, id as u8);
    let group: Vec<Option<Vec<(bool, u64, u8)>>> = (0..6u64)
        .map(|i| Some(vec![write(i, if i % 2 == 0 { ka } else { kb })]))
        .collect();
    // The fixture really is same-shard, distinct-bucket.
    let fa = batch_bucket_footprint(&to_txns(group[0].as_ref().unwrap(), 0));
    let fb = batch_bucket_footprint(&to_txns(group[1].as_ref().unwrap(), 1));
    assert_eq!(fa.shard_mask(), fb.shard_mask(), "same shard");
    assert!(!fa.intersects(&fb), "distinct buckets");
    let mut pool = ExecutorPool::spawn(2);
    assert_matches_serial(group.clone(), Some(&mut pool));
    assert_matches_serial_over(populated, group, Some(&mut pool));
}
