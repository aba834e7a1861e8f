//! Deterministic conflict-aware parallel execution of committed
//! batches.
//!
//! SpotLess's concurrent instances parallelize *ordering*, but until
//! this module every committed batch still funneled through one serial
//! `KvStore::execute_batch` call on the pipeline thread. The keyspace
//! is partitioned into [`EXEC_SHARDS`] shards over the
//! consensus-visible 1024-bucket layout; each batch's conflict
//! footprint is computed from its transactions at **bucket**
//! granularity ([`BucketFootprint`], 1024 bits), and batches whose
//! footprints do not overlap execute concurrently on a work-stealing
//! worker pool — while the sealed per-block `state_root` stays
//! byte-identical to serial execution.
//!
//! ## Determinism contract
//!
//! Execute-then-seal makes execution order consensus-critical: the
//! root a block seals is a function of the exact chain prefix below
//! it. Parallel execution preserves it by construction:
//!
//! * **Conflicts serialize.** Batches are grouped into connected
//!   components by shared *buckets* (union-find over bucket
//!   footprints). Every component's batches run in one job, serially,
//!   in commit order — so each bucket observes exactly the writes, in
//!   exactly the order, serial execution would have applied. Two
//!   batches that share a shard but no bucket land in different
//!   components: the shard is **contested**, and each component
//!   receives a detached [`ShardSlice`] owning exactly its buckets.
//! * **Disjoint components commute.** Components touch disjoint
//!   bucket sets, so their table effects are independent; running
//!   them on different workers reorders nothing observable.
//! * **Sealing is a commit-order fold.** Jobs snapshot, after each
//!   batch, the sub-roots of whole shards they own and the leaf
//!   digests of slice-owned buckets the batch touched. The caller
//!   walks the batches in commit order, absorbing each batch's
//!   [`BatchEffect`], overlaying sub-root snapshots onto the running
//!   shard-root vector and writing bucket digests into its copy of
//!   each contested shard's tree (`MerkleTree::update`: the touched
//!   leaves' paths, not a rebuild); [`top_state_root`] over the result
//!   reproduces, per block, exactly the root serial execution would
//!   have sealed. The serial-vs-parallel equivalence proptests in the
//!   facade crate pin this byte-for-byte, inline and pooled.
//!
//! ## Work stealing
//!
//! Jobs are distributed round-robin across per-worker queues, but a
//! worker whose queue runs dry steals a whole queued component from
//! the back of the longest other queue. A commit group dominated by
//! one giant component no longer serializes the trailing small ones
//! behind it — they migrate to idle workers. Stealing moves whole
//! components, so the per-component serial order is untouched.
//!
//! The single-component and `workers == 0` cases run *the same
//! routine* (`run_component`) inline on the caller's thread — there
//! is one execution code path, not a serial one and a parallel one
//! that could drift apart.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

use spotless_crypto::MerkleTree;
use spotless_types::Digest;
use spotless_workload::{
    batch_bucket_footprint, execute_on_parts, shard_of_bucket, top_state_root, BatchEffect,
    BucketFootprint, KvStore, Shard, ShardSlice, Transaction, EXEC_SHARDS, SHARD_BUCKETS,
};

/// What executing one batch produced, keyed back to its commit-order
/// position by the caller.
struct BatchOutcome {
    /// Commit-order index of the batch within the submitted group.
    index: usize,
    /// Per-batch digest/counter summary to absorb in commit order.
    effect: BatchEffect,
    /// `(shard, sub-root after this batch)` for every **whole shard**
    /// this job owns that the batch touched.
    shard_roots: Vec<(usize, Digest)>,
    /// `(global bucket, leaf digest after this batch)` for every
    /// **slice-owned** bucket the batch touched — the fold writes
    /// these into its copy of the contested shard's tree.
    bucket_roots: Vec<(usize, Digest)>,
}

/// A conflict component's batches, each tagged with its commit-order
/// index within the submitted group.
type IndexedBatches = Vec<(usize, Vec<Transaction>)>;

/// A worker's reply: the whole shards and slices handed back plus one
/// outcome per batch.
struct ExecDone {
    shards: Vec<Shard>,
    slices: Vec<ShardSlice>,
    outcomes: Vec<BatchOutcome>,
}

/// Executes a conflict component: its batches serially, in commit
/// order, against the whole shards and shard slices it owns — the one
/// execution routine both the inline path and the pooled workers run.
fn run_component(
    mut shards: Vec<Shard>,
    mut slices: Vec<ShardSlice>,
    batches: IndexedBatches,
) -> ExecDone {
    let mut outcomes = Vec::with_capacity(batches.len());
    for (index, txns) in batches {
        let fine = batch_bucket_footprint(&txns);
        let effect = execute_on_parts(&mut shards, &mut slices, &txns);
        // Snapshot the touched shards'/buckets' roots NOW: within the
        // component, later batches may touch them again, and the
        // commit-order fold needs the root as of *this* batch.
        let mask = fine.shard_mask();
        let mut shard_roots = Vec::new();
        for shard in shards.iter_mut() {
            if mask & (1 << shard.id()) != 0 {
                shard_roots.push((shard.id(), shard.sub_root()));
            }
        }
        let mut bucket_roots = Vec::new();
        for g in fine.buckets() {
            if let Some(slice) = slices.iter().find(|sl| sl.owns_bucket(g)) {
                bucket_roots.push((g, slice.bucket_digest(g)));
            }
        }
        outcomes.push(BatchOutcome {
            index,
            effect,
            shard_roots,
            bucket_roots,
        });
    }
    ExecDone {
        shards,
        slices,
        outcomes,
    }
}

/// A queued unit of pool work. Closures rather than a concrete job
/// struct so the stealing mechanics are testable in isolation.
type PoolTask = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    /// One queue per worker; jobs are submitted round-robin and
    /// stolen from the back of the longest queue.
    queues: Vec<VecDeque<PoolTask>>,
    /// Lifetime count of stolen jobs (observability / tests).
    steals: u64,
    closed: bool,
}

/// A pool of persistent execution workers (thread-backed tasks, same
/// compat/tokio style as the ingress verification pool) with
/// work-stealing between their queues. Jobs are whole conflict
/// components; replies return over a per-group synchronous channel
/// because the pipeline's flush is synchronous code on its own task.
pub struct ExecutorPool {
    shared: Arc<(Mutex<PoolState>, Condvar)>,
    /// Round-robin submission cursor.
    next: usize,
}

impl ExecutorPool {
    /// Spawns `workers` (≥ 1) persistent execution workers. Must be
    /// called inside a tokio runtime context.
    pub fn spawn(workers: usize) -> ExecutorPool {
        let workers = workers.max(1);
        let shared = Arc::new((
            Mutex::new(PoolState {
                queues: (0..workers).map(|_| VecDeque::new()).collect(),
                steals: 0,
                closed: false,
            }),
            Condvar::new(),
        ));
        for w in 0..workers {
            let shared = Arc::clone(&shared);
            tokio::spawn(async move { worker_loop(w, shared) });
        }
        ExecutorPool { shared, next: 0 }
    }

    /// Enqueues one job on the next queue (round-robin).
    fn submit(&mut self, task: PoolTask) {
        let (lock, cvar) = &*self.shared;
        let mut state = lock.lock().unwrap();
        let lane = self.next % state.queues.len();
        self.next = self.next.wrapping_add(1);
        state.queues[lane].push_back(task);
        drop(state);
        cvar.notify_all();
    }

    /// Number of jobs that have run on a worker other than the one
    /// they were queued for.
    pub fn steals(&self) -> u64 {
        self.shared.0.lock().unwrap().steals
    }
}

impl Drop for ExecutorPool {
    fn drop(&mut self) {
        let (lock, cvar) = &*self.shared;
        lock.lock().unwrap().closed = true;
        cvar.notify_all();
    }
}

fn worker_loop(w: usize, shared: Arc<(Mutex<PoolState>, Condvar)>) {
    let (lock, cvar) = &*shared;
    let mut state = lock.lock().unwrap();
    loop {
        // Own queue first, front to back (submission order).
        if let Some(task) = state.queues[w].pop_front() {
            drop(state);
            task();
            state = lock.lock().unwrap();
            continue;
        }
        // Idle: steal one whole component from the back of the
        // longest other queue.
        let victim = (0..state.queues.len())
            .filter(|&v| v != w && !state.queues[v].is_empty())
            .max_by_key(|&v| state.queues[v].len());
        if let Some(v) = victim {
            let task = state.queues[v].pop_back().expect("victim queue non-empty");
            state.steals += 1;
            drop(state);
            task();
            state = lock.lock().unwrap();
            continue;
        }
        if state.closed {
            return;
        }
        state = cvar.wait(state).unwrap();
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

/// Executes a commit-ordered group of decoded batches against `kv` —
/// in parallel across conflict components when `pool` is available —
/// and returns each batch's sealed `(state_digest, state_root)` pair
/// in commit order. `None` entries are empty (simulation-style)
/// payloads: they execute nothing and seal the unchanged root.
///
/// Byte-equivalent to calling `kv.execute_batch` + `kv.state_root`
/// per batch in order; see the module docs for why.
pub fn execute_group(
    pool: Option<&mut ExecutorPool>,
    kv: &mut KvStore,
    batches: Vec<Option<Vec<Transaction>>>,
) -> Vec<SealedBatch> {
    let n = batches.len();
    let footprints: Vec<BucketFootprint> = batches
        .iter()
        .map(|b| {
            b.as_ref()
                .map_or(BucketFootprint::EMPTY, |txns| batch_bucket_footprint(txns))
        })
        .collect();

    // Conflict components: union-find over batch indices, linked
    // through a per-bucket owner table (two batches sharing a bucket
    // merge).
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]]; // path halving
            x = parent[x];
        }
        x
    }
    let mut owner = vec![usize::MAX; spotless_workload::STATE_BUCKETS];
    for (i, fp) in footprints.iter().enumerate() {
        for b in fp.buckets() {
            if owner[b] == usize::MAX {
                owner[b] = i;
            } else {
                let r1 = find(&mut parent, owner[b]);
                let r2 = find(&mut parent, i);
                if r1 != r2 {
                    parent[r1] = r2;
                }
            }
        }
    }

    // Group batches (commit order within each component) and union
    // each component's footprint.
    let mut comp_of_root = vec![usize::MAX; n];
    let mut comp_batches: Vec<IndexedBatches> = Vec::new();
    let mut comp_footprints: Vec<BucketFootprint> = Vec::new();
    let mut batch_slots: Vec<Option<Vec<Transaction>>> = batches;
    for i in 0..n {
        if footprints[i].is_empty() {
            continue;
        }
        let r = find(&mut parent, i);
        if comp_of_root[r] == usize::MAX {
            comp_of_root[r] = comp_batches.len();
            comp_batches.push(Vec::new());
            comp_footprints.push(BucketFootprint::EMPTY);
        }
        let c = comp_of_root[r];
        comp_batches[c].push((i, batch_slots[i].take().expect("non-empty footprint")));
        comp_footprints[c].union_with(&footprints[i]);
    }
    let n_comps = comp_batches.len();

    // Classify each shard by how many components touch it: zero →
    // stays home; one → that component owns the whole shard; two or
    // more → contested, each component detaches a slice of exactly
    // its buckets.
    let mut comps_of_shard: [Vec<usize>; EXEC_SHARDS] = Default::default();
    for (c, fp) in comp_footprints.iter().enumerate() {
        let mask = fp.shard_mask();
        for (s, comps) in comps_of_shard.iter_mut().enumerate() {
            if mask & (1 << s) != 0 {
                comps.push(c);
            }
        }
    }

    // Seed the commit-order fold BEFORE shards leave the store: the
    // running shard-root vector, plus — for contested shards — a copy
    // of the shard's tree for the bucket overlays to write into.
    let mut roots = kv.shard_sub_roots();
    let mut contested_trees: [Option<MerkleTree>; EXEC_SHARDS] = Default::default();
    for (s, comps) in comps_of_shard.iter().enumerate() {
        if comps.len() >= 2 {
            contested_trees[s] = Some(kv.shard_tree(s));
        }
    }

    let mut home: Vec<Option<Shard>> = kv.take_shards().into_iter().map(Some).collect();
    home.sort_by_key(|s| s.as_ref().map(Shard::id));
    let mut comp_shards: Vec<Vec<Shard>> = (0..n_comps).map(|_| Vec::new()).collect();
    let mut comp_slices: Vec<Vec<ShardSlice>> = (0..n_comps).map(|_| Vec::new()).collect();
    for (s, comps) in comps_of_shard.iter().enumerate() {
        match comps.as_slice() {
            [] => {}
            [c] => comp_shards[*c].push(home[s].take().expect("shard present")),
            contested => {
                // The remainder shard stays parked in `home[s]` — no
                // read or hash touches it until every slice returns.
                let shard = home[s].as_mut().expect("shard present");
                for &c in contested {
                    let buckets: Vec<usize> = comp_footprints[c]
                        .buckets()
                        .filter(|&g| shard_of_bucket(g) == s)
                        .collect();
                    comp_slices[c].push(shard.detach_slice(&buckets));
                }
            }
        }
    }
    let jobs: Vec<(Vec<Shard>, Vec<ShardSlice>, IndexedBatches)> = comp_shards
        .into_iter()
        .zip(comp_slices)
        .zip(comp_batches)
        .map(|((shards, slices), batches)| (shards, slices, batches))
        .collect();

    // Execute every component (inline when there is nothing to
    // overlap — a single component, or no pool — pooled otherwise).
    let dones: Vec<ExecDone> = match pool {
        Some(pool) if jobs.len() > 1 => {
            let (reply_tx, reply_rx) = std::sync::mpsc::channel::<ExecDone>();
            let n_jobs = jobs.len();
            for (shards, slices, batches) in jobs {
                let reply = reply_tx.clone();
                pool.submit(Box::new(move || {
                    let _ = reply.send(run_component(shards, slices, batches));
                }));
            }
            drop(reply_tx);
            (0..n_jobs)
                .map(|_| reply_rx.recv().expect("executor worker replied"))
                .collect()
        }
        _ => jobs
            .into_iter()
            .map(|(shards, slices, batches)| run_component(shards, slices, batches))
            .collect(),
    };
    let mut outcomes: Vec<Option<BatchOutcome>> = (0..n).map(|_| None).collect();
    for done in dones {
        for shard in done.shards {
            let s = shard.id();
            debug_assert!(home[s].is_none(), "whole shard returned twice");
            home[s] = Some(shard);
        }
        for slice in done.slices {
            home[slice.shard()]
                .as_mut()
                .expect("contested shard parked home")
                .attach_slice(slice);
        }
        for o in done.outcomes {
            let index = o.index;
            outcomes[index] = Some(o);
        }
    }
    kv.restore_shards(home.into_iter().map(|s| s.expect("complete")).collect());

    // Commit-order fold: absorb each batch's effect, overlay its
    // sub-root and bucket-digest snapshots, seal its root. Empty
    // batches seal the then-current root unchanged — same as serial
    // execution.
    let mut sealed = Vec::with_capacity(n);
    for slot in outcomes {
        if let Some(outcome) = slot {
            kv.absorb_effect(&outcome.effect);
            for (s, r) in outcome.shard_roots {
                roots[s] = r;
            }
            // Buckets ascend, so one shard's leaves are adjacent and
            // go into its tree as one update.
            let same_shard = |a: &(usize, Digest), b: &(usize, Digest)| {
                shard_of_bucket(a.0) == shard_of_bucket(b.0)
            };
            for leaves in outcome.bucket_roots.chunk_by(same_shard) {
                let s = shard_of_bucket(leaves[0].0);
                let tree = contested_trees[s].as_mut().expect("contested shard seeded");
                let changes: Vec<(usize, [u8; 32])> = leaves
                    .iter()
                    .map(|(g, d)| (g % SHARD_BUCKETS, d.0))
                    .collect();
                tree.update(&changes);
                roots[s] = tree.root();
            }
        }
        sealed.push(SealedBatch {
            state_digest: kv.state_digest(),
            state_root: top_state_root(&roots, &kv.transfer_meta()),
        });
    }
    if let Some(last) = sealed.last() {
        debug_assert_eq!(
            last.state_root,
            kv.state_root(),
            "commit-order fold must land on the store's own root"
        );
    }
    sealed
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotless_workload::{bucket_of, shard_of_key, Operation};

    /// A key guaranteed to live in shard `s` (probed; bucket layout is
    /// a fixed hash).
    fn key_in_shard(s: usize, salt: u64) -> u64 {
        (0..)
            .map(|i| salt.wrapping_mul(1019) + i)
            .find(|&k| shard_of_key(k) == s)
            .unwrap()
    }

    /// Two keys in the same shard but different buckets.
    fn contested_pair(s: usize) -> (u64, u64) {
        let a = key_in_shard(s, 1);
        let b = (0..)
            .map(|i| 7919u64.wrapping_mul(i))
            .find(|&k| shard_of_key(k) == s && bucket_of(k) != bucket_of(a))
            .unwrap();
        (a, b)
    }

    fn write(id: u64, key: u64) -> Transaction {
        Transaction {
            id,
            op: Operation::Update {
                key,
                value: vec![id as u8; 16],
            },
        }
    }

    fn read(id: u64, key: u64) -> Transaction {
        Transaction {
            id,
            op: Operation::Read { key },
        }
    }

    /// Runs the same group serially and through `execute_group`,
    /// asserting identical per-batch digests and roots.
    fn assert_equivalent(batches: Vec<Option<Vec<Transaction>>>, pool: Option<&mut ExecutorPool>) {
        let mut serial = KvStore::new();
        let mut expect = Vec::new();
        for b in &batches {
            let state_digest = match b {
                Some(txns) => serial.execute_batch(txns),
                None => serial.state_digest(),
            };
            expect.push((state_digest, serial.state_root()));
        }
        let mut parallel = KvStore::new();
        let sealed = execute_group(pool, &mut parallel, batches);
        let got: Vec<(Digest, Digest)> = sealed
            .into_iter()
            .map(|s| (s.state_digest, s.state_root))
            .collect();
        assert_eq!(got, expect);
        assert_eq!(parallel.state_digest(), serial.state_digest());
        assert_eq!(parallel.state_root(), serial.state_root());
        assert_eq!(parallel.writes_applied(), serial.writes_applied());
        assert_eq!(parallel.reads_served(), serial.reads_served());
    }

    #[test]
    fn disjoint_batches_match_serial_inline() {
        let batches = vec![
            Some(vec![
                write(1, key_in_shard(0, 1)),
                write(2, key_in_shard(0, 2)),
            ]),
            Some(vec![
                write(3, key_in_shard(3, 3)),
                read(4, key_in_shard(3, 1)),
            ]),
            Some(vec![write(5, key_in_shard(7, 4))]),
        ];
        assert_equivalent(batches, None);
    }

    #[test]
    fn contested_shard_splits_into_slices_and_matches_serial() {
        // Three batches: two share shard 2 but not a bucket (separate
        // components, each on its own slice), one lives in shard 5.
        let (ka, kb) = contested_pair(2);
        let batches = vec![
            Some(vec![write(1, ka), read(2, ka), write(3, ka)]),
            Some(vec![write(4, kb), write(5, kb)]),
            Some(vec![write(6, key_in_shard(5, 6))]),
        ];
        assert_equivalent(batches, None);
    }

    #[tokio::test(flavor = "multi_thread")]
    async fn mixed_group_matches_serial_through_the_pool() {
        let mut pool = ExecutorPool::spawn(3);
        // Conflicting (same key twice), contested (shard 2, two
        // buckets), disjoint (shard 5), cross-shard (2+5, merging
        // components), an empty payload, and a read-only batch.
        let (ka, kb) = contested_pair(2);
        let batches = vec![
            Some(vec![write(1, ka)]),
            Some(vec![write(2, kb)]),
            Some(vec![write(3, key_in_shard(5, 2))]),
            None,
            Some(vec![write(4, ka), write(5, key_in_shard(5, 4))]),
            Some(vec![read(6, ka), read(7, key_in_shard(6, 6))]),
            Some(vec![write(8, key_in_shard(1, 7))]),
        ];
        assert_equivalent(batches, Some(&mut pool));
    }

    #[tokio::test(flavor = "multi_thread")]
    async fn empty_and_all_empty_groups_are_fine() {
        let mut pool = ExecutorPool::spawn(2);
        assert_equivalent(vec![], Some(&mut pool));
        assert_equivalent(vec![None, None], Some(&mut pool));
    }

    #[tokio::test(flavor = "multi_thread")]
    async fn idle_workers_steal_queued_components() {
        // Round-robin puts tasks 0 and 2 on worker 0's queue and task
        // 1 on worker 1's. Task 0 blocks until task 2 has run — which
        // can only happen if worker 1 (idle after the trivial task 1)
        // steals task 2. No stealing → deadlock; the test completing
        // at all proves the steal, and the counter confirms it.
        let mut pool = ExecutorPool::spawn(2);
        let (unblock_tx, unblock_rx) = std::sync::mpsc::channel::<()>();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<u32>();
        let d0 = done_tx.clone();
        pool.submit(Box::new(move || {
            unblock_rx.recv().unwrap();
            d0.send(0).unwrap();
        }));
        let d1 = done_tx.clone();
        pool.submit(Box::new(move || {
            d1.send(1).unwrap();
        }));
        pool.submit(Box::new(move || {
            unblock_tx.send(()).unwrap();
            done_tx.send(2).unwrap();
        }));
        let mut got: Vec<u32> = (0..3).map(|_| done_rx.recv().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2]);
        assert!(pool.steals() >= 1, "completion requires at least one steal");
    }
}
