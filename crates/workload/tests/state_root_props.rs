//! The incrementally maintained state root against its audit
//! reference: whatever mix of serial batches, detached-slice execution,
//! shard hand-offs and snapshot/transfer round-trips a store goes
//! through, `state_root()` — long-lived shard trees, dirty-path
//! updates — must equal `rebuild_state_root()`, which recomputes from
//! nothing but the table contents.

use proptest::prelude::*;
use spotless_workload::{
    batch_bucket_footprint, execute_on_parts, shard_of_bucket, KvStore, Operation, Transaction,
    EXEC_SHARDS,
};

/// One step: what to do, and the operations `(write?, key, value
/// length)` it does it with.
type Step = (u8, Vec<(bool, u64, u8)>);

fn steps() -> impl Strategy<Value = Vec<Step>> {
    let ops = prop::collection::vec((any::<bool>(), 0u64..3_000, any::<u8>()), 0..16);
    prop::collection::vec((0u8..4, ops), 1..12)
}

fn to_txns(ops: &[(bool, u64, u8)], step: usize) -> Vec<Transaction> {
    ops.iter()
        .enumerate()
        .map(|(i, &(write, key, len))| Transaction {
            id: (step as u64) << 32 | i as u64,
            op: if write {
                Operation::Update {
                    key,
                    value: vec![len; usize::from(len) % 40],
                }
            } else {
                Operation::Read { key }
            },
        })
        .collect()
}

/// Executes `txns` the way the bucket-level executor does when every
/// shard is contested: each touched shard gives up a slice of exactly
/// the touched buckets, the batch runs on the slices alone, and the
/// slices come home before the effect is absorbed.
fn execute_on_slices(kv: &mut KvStore, txns: &[Transaction]) {
    let touched: Vec<usize> = batch_bucket_footprint(txns).buckets().collect();
    let mut shards = kv.take_shards();
    let mut slices = Vec::new();
    for shard in &mut shards {
        let own: Vec<usize> = touched
            .iter()
            .copied()
            .filter(|&g| shard_of_bucket(g) == shard.id())
            .collect();
        if !own.is_empty() {
            slices.push(shard.detach_slice(&own));
        }
    }
    let effect = execute_on_parts(&mut [], &mut slices, txns);
    for slice in slices {
        shards[slice.shard()].attach_slice(slice);
    }
    kv.restore_shards(shards);
    kv.absorb_effect(&effect);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn incremental_root_tracks_the_audit_rebuild(steps in steps(), warm in any::<bool>()) {
        let mut kv = if warm { KvStore::initialized(2_000, 12) } else { KvStore::new() };
        // A twin that only ever executes serially: every other path
        // must leave the store exactly where this one is.
        let mut serial = if warm { KvStore::initialized(2_000, 12) } else { KvStore::new() };
        for (i, (kind, ops)) in steps.iter().enumerate() {
            let txns = to_txns(ops, i);
            serial.execute_batch(&txns);
            match kind {
                0 => {
                    kv.execute_batch(&txns);
                }
                1 => execute_on_slices(&mut kv, &txns),
                2 => {
                    // Shards leave and come back in another order.
                    let mut shards = kv.take_shards();
                    prop_assert!(kv.is_empty());
                    shards.rotate_left(i % EXEC_SHARDS);
                    kv.restore_shards(shards);
                    kv.execute_batch(&txns);
                }
                _ => {
                    kv.execute_batch(&txns);
                    let chunks = kv.to_chunks(256);
                    kv = KvStore::from_transfer(&kv.transfer_meta(), &chunks).expect("assembles");
                }
            }
            prop_assert_eq!(kv.state_root(), kv.rebuild_state_root(), "step {} kind {}", i, kind);
            prop_assert_eq!(kv.state_root(), serial.state_root(), "step {} kind {}", i, kind);
        }
        prop_assert_eq!(kv.state_digest(), serial.state_digest());
    }
}
