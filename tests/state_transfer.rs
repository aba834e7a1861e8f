//! End-to-end tests of the chunked, chain-verified snapshot state
//! transfer: a recovering replica whose peers pruned its history
//! installs a multi-chunk snapshot verified chunk-by-chunk against the
//! head block's `state_root`, resumes a mid-transfer crash from the
//! install journal, and ends block-for-block and KV-equal with the
//! cluster.

use spotless::core::{ReplicaConfig, SpotLessReplica};
use spotless::runtime::StorageConfig;
use spotless::storage::{DurableLedger, DurableLedgerOptions};
use spotless::transport::InProcCluster;
use spotless::types::{
    BatchId, ClientBatch, ClientId, ClusterConfig, ReplicaId, SimTime, SIMPLE_FRAME_LIMIT,
};
use spotless::workload::{encode_txns, Operation, Transaction};

/// A batch writing `keys.len()` records of `value_size` bytes each
/// (distinct, id-derived contents so any mixup corrupts digests).
fn bulk_batch(id: u64, keys: &[u64], value_size: usize) -> ClientBatch {
    let txns: Vec<Transaction> = keys
        .iter()
        .enumerate()
        .map(|(k, &key)| {
            let mut value = format!("batch-{id}-key-{key}-").into_bytes();
            value.resize(value_size, (id as u8) ^ (k as u8));
            Transaction {
                id: id * 1000 + k as u64,
                op: Operation::Update { key, value },
            }
        })
        .collect();
    let payload = encode_txns(&txns);
    let digest = spotless::crypto::digest_bytes(&payload);
    ClientBatch {
        id: BatchId(id),
        origin: ClientId(9),
        digest,
        txns: txns.len() as u32,
        txn_size: value_size as u32,
        created_at: SimTime::ZERO,
        payload,
    }
}

fn storage_configs(dirs: &[tempfile::TempDir], snapshot_every: u64) -> Vec<Option<StorageConfig>> {
    dirs.iter()
        .map(|d| {
            let mut cfg = StorageConfig::new(d.path());
            cfg.options.snapshot_every = snapshot_every;
            Some(cfg)
        })
        .collect()
}

async fn wait_all_synced(handles: &[spotless::runtime::ReplicaHandle]) {
    for h in handles {
        let id = h.id();
        wait_until(&format!("replica {id:?} syncs"), || h.is_synced()).await;
    }
}

fn assert_no_divergence(commits: &[spotless::transport::CommittedEntry]) {
    let mut per_batch: std::collections::HashMap<BatchId, spotless::types::Digest> =
        std::collections::HashMap::new();
    for entry in commits {
        let d = per_batch
            .entry(entry.info.batch.id)
            .or_insert(entry.state_digest);
        assert_eq!(
            *d, entry.state_digest,
            "divergence at {:?} on {:?}",
            entry.replica, entry.info
        );
    }
}

/// Post-mortem: both chains verify, share the head, and agree
/// block-for-block (state roots included — the hash binds them) on
/// everything both still materialize.
fn assert_chains_equal(survivor_dir: &std::path::Path, recovered_dir: &std::path::Path) {
    let opts = DurableLedgerOptions::default();
    let (survivor, _) = DurableLedger::open(survivor_dir, opts).unwrap();
    let (recovered, _) = DurableLedger::open(recovered_dir, opts).unwrap();
    survivor.ledger().verify().expect("survivor chain verifies");
    recovered
        .ledger()
        .verify()
        .expect("recovered chain verifies");
    assert_eq!(
        survivor.ledger().height(),
        recovered.ledger().height(),
        "both chains reach the same head"
    );
    assert_eq!(
        survivor.ledger().head_hash(),
        recovered.ledger().head_hash(),
        "head hashes must agree (they chain over the whole history, state roots included)"
    );
    let base = survivor
        .ledger()
        .base_height()
        .max(recovered.ledger().base_height());
    for h in base..survivor.ledger().height() {
        assert_eq!(
            survivor.ledger().block(h).unwrap().hash,
            recovered.ledger().block(h).unwrap().hash,
            "divergent block at height {h}"
        );
    }
}

/// Acceptance (chunked transfer at size): a replica recovering from
/// all-pruned peers installs a snapshot whose state is deliberately
/// sized past one wire frame — impossible to ship monolithically — in
/// multiple chunks, each verified against the head block's
/// `state_root`, and ends block-for-block and KV-equal with the
/// cluster without re-executing the pruned range.
#[tokio::test(flavor = "multi_thread")]
async fn multi_chunk_snapshot_recovers_state_larger_than_a_frame() {
    const VALUE_SIZE: usize = 768 * 1024;
    const PHASE1: u64 = 2;
    const PHASE2: u64 = 10;
    // The whole point: the transferred state cannot fit one frame.
    assert!(
        (PHASE1 + PHASE2) as usize * VALUE_SIZE > SIMPLE_FRAME_LIMIT as usize,
        "test must size the state past the frame limit"
    );

    let cluster = ClusterConfig::new(4);
    let dirs: Vec<tempfile::TempDir> = (0..4).map(|_| tempfile::tempdir().unwrap()).collect();
    // Aggressive snapshot cadence: every peer empties its chain tail
    // and log segments every 2 blocks, so the victim's range is gone by
    // the time it returns.
    let storage = storage_configs(&dirs, 2);
    let c = cluster.clone();
    let handle = InProcCluster::spawn_with(cluster.clone(), storage, vec![false; 4], move |r| {
        SpotLessReplica::new(ReplicaConfig::honest(c.clone(), r))
    })
    .expect("durable inproc cluster");
    let handles: Vec<_> = (0..4).map(|r| handle.handle(ReplicaId(r))).collect();
    wait_all_synced(&handles).await;

    // Phase 1: a prefix the victim fully executes.
    for i in 0..PHASE1 {
        let result = handle
            .client
            .submit(bulk_batch(i, &[i], VALUE_SIZE), ReplicaId((i % 4) as u32))
            .await;
        assert_ne!(result, spotless::types::Digest::ZERO);
    }
    let victim = ReplicaId(3);
    wait_until("victim executes the phase-1 batches", || {
        let entries = handle.commits.snapshot();
        (0..PHASE1).all(|id| {
            entries
                .iter()
                .any(|e| e.replica == victim && e.info.batch.id == BatchId(id))
        })
    })
    .await;

    // Phase 2: kill the victim, then grow the state past one frame.
    handle.stop(victim);
    for i in 0..PHASE2 {
        let id = 100 + i;
        let result = handle
            .client
            .submit(
                bulk_batch(id, &[1000 + i], VALUE_SIZE),
                ReplicaId((i % 3) as u32),
            )
            .await;
        assert_ne!(result, spotless::types::Digest::ZERO, "phase-2 batch {id}");
    }

    // Phase 3: the victim returns; only the chunked snapshot path can
    // serve it. Coarse snapshot cadence on restart so the installed
    // snapshot stays the newest one for the post-mortem below.
    let restarted = handle
        .restart(
            victim,
            Some({
                let mut s = StorageConfig::new(dirs[3].path());
                s.options.snapshot_every = 1000;
                s
            }),
            SpotLessReplica::new(ReplicaConfig::honest(cluster.clone(), victim)),
        )
        .await
        .expect("restart victim");
    wait_until("victim reports synced", || restarted.is_synced()).await;

    // Fresh traffic executes on the restored state; matching state
    // digests prove the transfer restored the KV store exactly (the
    // digest rolls over the *entire* write history).
    for i in 0..3u64 {
        let result = handle
            .client
            .submit(bulk_batch(500 + i, &[2000 + i], 64), ReplicaId(0))
            .await;
        assert_ne!(result, spotless::types::Digest::ZERO);
    }
    wait_until("victim executes post-recovery batches", || {
        let entries = handle.commits.snapshot();
        (500..503u64).all(|id| {
            entries
                .iter()
                .any(|e| e.replica == victim && e.info.batch.id == BatchId(id))
        })
    })
    .await;
    let entries = handle.commits.snapshot();
    assert_no_divergence(&entries);
    // Snapshot-path signature: the pruned range was installed, never
    // re-executed.
    assert!(
        (100..100 + PHASE2).all(|id| {
            !entries
                .iter()
                .any(|e| e.replica == victim && e.info.batch.id == BatchId(id))
        }),
        "victim must have skipped the pruned range via snapshot, not replayed it"
    );
    handle.shutdown().await;

    assert_chains_equal(dirs[0].path(), dirs[3].path());
    // The installed snapshot really was multi-chunk: reopen the
    // victim's store and count the chunks of its newest snapshot.
    let (_, report) = DurableLedger::open(dirs[3].path(), DurableLedgerOptions::default()).unwrap();
    assert!(
        report.app_chunks.len() > 1,
        "a state past the frame limit must have transferred in multiple chunks, got {}",
        report.app_chunks.len()
    );
    let total: usize = report.app_chunks.iter().map(|c| c.len()).sum();
    assert!(
        total > SIMPLE_FRAME_LIMIT as usize,
        "installed state must exceed one frame, got {total} bytes"
    );
}

/// Acceptance (resume after mid-transfer crash): a replica crashes in
/// the middle of a chunked transfer; on restart the install journal
/// already holds the verified chunks, recovery reports them, and the
/// transfer completes by fetching only the remainder — ending
/// block-for-block and KV-equal with the cluster.
#[tokio::test(flavor = "multi_thread")]
async fn interrupted_chunked_transfer_resumes_from_journal() {
    let cluster = ClusterConfig::new(4);
    let dirs: Vec<tempfile::TempDir> = (0..4).map(|_| tempfile::tempdir().unwrap()).collect();
    let storage = storage_configs(&dirs, 2);
    let c = cluster.clone();
    // Tiny chunk budget: the transfer needs hundreds of chunks (each
    // journaled with an fsync), which opens a wide, reliable window to
    // crash inside.
    let handle = InProcCluster::spawn_tuned(
        cluster.clone(),
        storage,
        vec![false; 4],
        |cfg| cfg.chunk_budget = 1024,
        move |r| SpotLessReplica::new(ReplicaConfig::honest(c.clone(), r)),
    )
    .expect("durable inproc cluster");
    let handles: Vec<_> = (0..4).map(|r| handle.handle(ReplicaId(r))).collect();
    wait_all_synced(&handles).await;

    // Phase 1: spread writes over many buckets (12 keys × 2 KiB per
    // batch) so the chunk plan is long.
    for i in 0..20u64 {
        let keys: Vec<u64> = (0..12).map(|k| i * 12 + k).collect();
        let result = handle
            .client
            .submit(bulk_batch(i, &keys, 2048), ReplicaId((i % 4) as u32))
            .await;
        assert_ne!(result, spotless::types::Digest::ZERO);
    }
    let victim = ReplicaId(3);
    wait_until("victim executes phase-1 batches", || {
        let entries = handle.commits.snapshot();
        (0..20u64).all(|id| {
            entries
                .iter()
                .any(|e| e.replica == victim && e.info.batch.id == BatchId(id))
        })
    })
    .await;

    // Phase 2: kill the victim; peers snapshot + prune past its range.
    handle.stop(victim);
    for i in 0..6u64 {
        let id = 100 + i;
        let keys: Vec<u64> = (0..12).map(|k| 4000 + i * 12 + k).collect();
        let result = handle
            .client
            .submit(bulk_batch(id, &keys, 2048), ReplicaId((i % 3) as u32))
            .await;
        assert_ne!(result, spotless::types::Digest::ZERO);
    }

    // Phase 3: restart; wait until the journal holds some — but not
    // all — verified chunks, then crash mid-transfer.
    let journal_dir = dirs[3].path().join("incoming");
    let blob_count = |dir: &std::path::Path| -> usize {
        std::fs::read_dir(dir)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok())
                    .filter(|e| {
                        e.file_name()
                            .to_str()
                            .is_some_and(|n| n.starts_with("chunk-") && n.ends_with(".blob"))
                    })
                    .count()
            })
            .unwrap_or(0)
    };
    let mid = handle
        .restart(
            victim,
            Some({
                let mut s = StorageConfig::new(dirs[3].path());
                s.options.snapshot_every = 1000;
                s
            }),
            SpotLessReplica::new(ReplicaConfig::honest(cluster.clone(), victim)),
        )
        .await
        .expect("restart victim (first attempt)");
    // Poll fast: the transfer journals hundreds of chunks, each behind
    // an fsync, so partial progress is observable for a long stretch.
    let mut observed = 0;
    for _ in 0..20_000 {
        observed = blob_count(&journal_dir);
        if observed >= 2 || mid.is_synced() {
            break;
        }
        tokio::time::sleep(std::time::Duration::from_millis(1)).await;
    }
    assert!(
        !mid.is_synced(),
        "the transfer must not complete before the crash (observed {observed} chunks)"
    );
    assert!(
        observed >= 2,
        "expected partial journal progress before crashing, observed {observed}"
    );
    handle.stop(victim);
    wait_until("victim stops mid-transfer", || mid.is_stopped()).await;
    let persisted = blob_count(&journal_dir);
    assert!(
        persisted >= 2,
        "journal must retain verified chunks across the crash, got {persisted}"
    );

    // Phase 4: restart again — recovery must find the journal and
    // resume, not restart.
    let restarted = handle
        .restart(
            victim,
            Some({
                let mut s = StorageConfig::new(dirs[3].path());
                s.options.snapshot_every = 1000;
                s
            }),
            SpotLessReplica::new(ReplicaConfig::honest(cluster.clone(), victim)),
        )
        .await
        .expect("restart victim (resume)");
    let recovery = restarted.recovery().expect("durable recovery info").clone();
    assert!(
        recovery.pending_install_chunks >= 2,
        "recovery must resume from the journal's verified chunks, found {}",
        recovery.pending_install_chunks
    );
    wait_until("victim completes the resumed transfer", || {
        restarted.is_synced()
    })
    .await;
    assert!(
        !journal_dir.exists(),
        "the journal must be wiped after a successful install"
    );

    // The resumed replica serves fresh traffic identically.
    for i in 0..3u64 {
        let result = handle
            .client
            .submit(bulk_batch(600 + i, &[9000 + i], 64), ReplicaId(0))
            .await;
        assert_ne!(result, spotless::types::Digest::ZERO);
    }
    wait_until("victim executes post-resume batches", || {
        let entries = handle.commits.snapshot();
        (600..603u64).all(|id| {
            entries
                .iter()
                .any(|e| e.replica == victim && e.info.batch.id == BatchId(id))
        })
    })
    .await;
    assert_no_divergence(&handle.commits.snapshot());
    handle.shutdown().await;
    assert_chains_equal(dirs[0].path(), dirs[3].path());
}

/// Acceptance (concurrent transfers from cached slots): two replicas
/// recover *at the same time* from peers that pruned their history.
/// The serving side freezes per-height outgoing snapshot slots, so the
/// second requester is served from an already-frozen manifest instead
/// of stalling behind (or evicting) the first transfer. Both end
/// block-for-block and KV-equal with the cluster, and neither
/// re-executes the pruned range.
///
/// The cluster is n = 7 (f = 2, quorum = 5): exactly the size where
/// the five surviving replicas still commit while both victims are
/// down, so the victims' range really is pruned before they return.
#[tokio::test(flavor = "multi_thread")]
async fn two_replicas_catch_up_concurrently_from_cached_slots() {
    const N: usize = 7;
    let cluster = ClusterConfig::new(N as u32);
    assert_eq!(
        cluster.quorum(),
        N as u32 - 2,
        "n=7 commits with two replicas down"
    );
    let dirs: Vec<tempfile::TempDir> = (0..N).map(|_| tempfile::tempdir().unwrap()).collect();
    // Aggressive snapshot cadence so the victims' range is pruned
    // everywhere by the time they return.
    let storage = storage_configs(&dirs, 2);
    let c = cluster.clone();
    let handle = InProcCluster::spawn_with(cluster.clone(), storage, vec![false; N], move |r| {
        SpotLessReplica::new(ReplicaConfig::honest(c.clone(), r))
    })
    .expect("durable inproc cluster");
    let handles: Vec<_> = (0..N as u32).map(|r| handle.handle(ReplicaId(r))).collect();
    wait_all_synced(&handles).await;

    // Phase 1: a prefix both victims fully execute.
    const PHASE1: u64 = 3;
    for i in 0..PHASE1 {
        let keys: Vec<u64> = (0..8).map(|k| i * 8 + k).collect();
        let result = handle
            .client
            .submit(bulk_batch(i, &keys, 2048), ReplicaId((i % N as u64) as u32))
            .await;
        assert_ne!(result, spotless::types::Digest::ZERO);
    }
    let victims = [ReplicaId(5), ReplicaId(6)];
    wait_until("both victims execute the phase-1 batches", || {
        let entries = handle.commits.snapshot();
        victims.iter().all(|v| {
            (0..PHASE1).all(|id| {
                entries
                    .iter()
                    .any(|e| e.replica == *v && e.info.batch.id == BatchId(id))
            })
        })
    })
    .await;

    // Phase 2: both victims go down together; the remaining five (an
    // exact quorum) keep committing and prune past the victims' range.
    for v in victims {
        handle.stop(v);
    }
    const PHASE2: u64 = 8;
    for i in 0..PHASE2 {
        let id = 100 + i;
        let keys: Vec<u64> = (0..8).map(|k| 4000 + i * 8 + k).collect();
        let result = handle
            .client
            .submit(bulk_batch(id, &keys, 2048), ReplicaId((i % 5) as u32))
            .await;
        assert_ne!(result, spotless::types::Digest::ZERO, "phase-2 batch {id}");
    }

    // Phase 3: both victims return at once and race through catch-up —
    // their peer rotation converges on shared servers, so the second
    // manifest request for a height hits the already-frozen slot.
    // Coarse snapshot cadence on restart so the installed snapshot
    // stays the newest one for the post-mortem.
    let mut restarted = Vec::new();
    for v in victims {
        let r = handle
            .restart(
                v,
                Some({
                    let mut s = StorageConfig::new(dirs[v.as_usize()].path());
                    s.options.snapshot_every = 1000;
                    s
                }),
                SpotLessReplica::new(ReplicaConfig::honest(cluster.clone(), v)),
            )
            .await
            .expect("restart victim");
        restarted.push(r);
    }
    wait_all_synced(&restarted).await;

    // Fresh traffic executes on both restored states; matching state
    // digests prove both transfers restored the KV store exactly.
    for i in 0..3u64 {
        let result = handle
            .client
            .submit(bulk_batch(500 + i, &[9000 + i], 64), ReplicaId(0))
            .await;
        assert_ne!(result, spotless::types::Digest::ZERO);
    }
    wait_until("both victims execute post-recovery batches", || {
        let entries = handle.commits.snapshot();
        victims.iter().all(|v| {
            (500..503u64).all(|id| {
                entries
                    .iter()
                    .any(|e| e.replica == *v && e.info.batch.id == BatchId(id))
            })
        })
    })
    .await;
    let entries = handle.commits.snapshot();
    assert_no_divergence(&entries);
    // Snapshot-path signature: the pruned range was installed, never
    // re-executed — by either victim.
    for v in victims {
        assert!(
            (100..100 + PHASE2).all(|id| {
                !entries
                    .iter()
                    .any(|e| e.replica == v && e.info.batch.id == BatchId(id))
            }),
            "{v:?} must have skipped the pruned range via snapshot, not replayed it"
        );
    }
    handle.shutdown().await;

    assert_chains_equal(dirs[0].path(), dirs[5].path());
    assert_chains_equal(dirs[0].path(), dirs[6].path());
}

/// Polls `cond` (about thirty seconds at most) instead of sleeping a
/// fixed worst case.
async fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    for _ in 0..2400 {
        if cond() {
            return;
        }
        tokio::time::sleep(std::time::Duration::from_millis(25)).await;
    }
    panic!("timed out waiting until {what}");
}
