//! Execution of committed batches: serially, in commit order, on the
//! pipeline thread.
//!
//! SpotLess's concurrent instances parallelize *ordering*; their output
//! is one total order, and a replica applies it in sequence. Each batch
//! runs through [`KvStore::execute_batch`] and then seals
//! [`KvStore::state_root`], so the root a block seals is a function of
//! the exact chain prefix below it.

use spotless_types::Digest;
use spotless_workload::{KvStore, Transaction};

/// Placeholder kept for `benchmark/src/replay.rs`, which still spawns
/// one and passes it to [`execute_group`]. It starts nothing and holds
/// nothing; ROADMAP item 1(a) deletes it with that call site.
#[doc(hidden)]
pub struct ExecutorPool;

impl ExecutorPool {
    /// Starts nothing; the argument is ignored.
    pub fn spawn(_workers: usize) -> ExecutorPool {
        ExecutorPool
    }
}

/// One sealed batch of an executed group, in commit order: the
/// post-batch state digest (the client-visible result) and the state
/// root the batch's block seals.
pub struct SealedBatch {
    /// Rolling state digest after this batch (what informs carry).
    pub state_digest: Digest,
    /// Two-level Merkle root after this batch (what the block seals).
    pub state_root: Digest,
}

/// Executes a commit-ordered group of decoded batches against `kv` and
/// returns each batch's sealed `(state_digest, state_root)` pair in
/// commit order. `None` entries are empty (simulation-style) payloads:
/// they execute nothing and seal the unchanged root. The pool argument
/// is ignored (see [`ExecutorPool`]).
pub fn execute_group(
    _pool: Option<&mut ExecutorPool>,
    kv: &mut KvStore,
    batches: Vec<Option<Vec<Transaction>>>,
) -> Vec<SealedBatch> {
    batches
        .into_iter()
        .map(|txns| {
            if let Some(txns) = txns {
                kv.execute_batch(&txns);
            }
            SealedBatch {
                state_digest: kv.state_digest(),
                state_root: kv.state_root(),
            }
        })
        .collect()
}
