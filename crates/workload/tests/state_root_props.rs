//! The incrementally maintained state root against its audit
//! reference: whatever mix of batches and snapshot/transfer
//! round-trips a store goes through, `state_root()` — long-lived shard
//! trees, dirty-path updates — must equal `rebuild_state_root()`,
//! which recomputes from nothing but the table contents.

use proptest::prelude::*;
use spotless_workload::{KvStore, Operation, Transaction};

/// One step: whether the store then round-trips through a state
/// transfer, and the operations `(write?, key, value length)` it
/// executes first.
type Step = (bool, Vec<(bool, u64, u8)>);

fn steps() -> impl Strategy<Value = Vec<Step>> {
    let ops = prop::collection::vec((any::<bool>(), 0u64..3_000, any::<u8>()), 0..16);
    prop::collection::vec((any::<bool>(), ops), 1..12)
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn incremental_root_tracks_the_audit_rebuild(steps in steps(), warm in any::<bool>()) {
        let mut kv = if warm { KvStore::initialized(2_000, 12) } else { KvStore::new() };
        // A twin that never goes through a transfer: the round trips
        // must leave the store exactly where this one is.
        let mut serial = if warm { KvStore::initialized(2_000, 12) } else { KvStore::new() };
        for (i, (transfer, ops)) in steps.iter().enumerate() {
            let txns = to_txns(ops, i);
            serial.execute_batch(&txns);
            kv.execute_batch(&txns);
            if *transfer {
                let chunks = kv.to_chunks(256);
                kv = KvStore::from_transfer(&kv.transfer_meta(), &chunks).expect("assembles");
            }
            prop_assert_eq!(kv.state_root(), kv.rebuild_state_root(), "step {} transfer {}", i, transfer);
            prop_assert_eq!(kv.state_root(), serial.state_root(), "step {} transfer {}", i, transfer);
        }
        prop_assert_eq!(kv.state_digest(), serial.state_digest());
    }
}
