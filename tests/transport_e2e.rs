//! End-to-end tests of the deployment path: any protocol on the shared
//! `ReplicaRuntime`, over the in-process and TCP fabrics, with real
//! wall clock, signed envelopes (the simulation-grade keyed-hash
//! scheme — see `crypto/src/signing.rs`), real KV execution, durable
//! storage, and crash–restart recovery.

use spotless::baselines::PbftReplica;
use spotless::core::{ReplicaConfig, SpotLessReplica};
use spotless::runtime::StorageConfig;
use spotless::storage::{DurableLedger, DurableLedgerOptions};
use spotless::transport::{InProcCluster, TcpCluster};
use spotless::types::{
    BatchId, ByzantineBehavior, ClientBatch, ClientId, ClusterConfig, ReplicaId, SimTime,
};
use spotless::workload::{encode_txns, Operation, Transaction};

fn real_batch(id: u64, key: u64) -> ClientBatch {
    let txns = vec![Transaction {
        id,
        op: Operation::Update {
            key,
            value: format!("value-{id}").into_bytes(),
        },
    }];
    let payload = encode_txns(&txns);
    let digest = spotless::crypto::digest_bytes(&payload);
    ClientBatch {
        id: BatchId(id),
        origin: ClientId(9),
        digest,
        txns: 1,
        txn_size: 32,
        created_at: SimTime::ZERO,
        payload,
    }
}

#[tokio::test(flavor = "multi_thread")]
async fn honest_cluster_serves_clients() {
    let cluster = ClusterConfig::new(4);
    let handle = InProcCluster::spawn(cluster, None);
    for i in 0..5u64 {
        let result = handle
            .client
            .submit(real_batch(i, i), ReplicaId((i % 4) as u32))
            .await;
        // The result digest is the KV state digest — non-zero after any
        // write has been applied.
        assert_ne!(result, spotless::types::Digest::ZERO, "batch {i}");
    }
    // Replicas must agree per batch.
    let commits = handle.commits.snapshot();
    let mut per_batch: std::collections::HashMap<BatchId, spotless::types::Digest> =
        std::collections::HashMap::new();
    for entry in &commits {
        let d = per_batch
            .entry(entry.info.batch.id)
            .or_insert(entry.state_digest);
        assert_eq!(*d, entry.state_digest, "divergence at {:?}", entry.info);
    }
    handle.shutdown().await;
}

#[tokio::test(flavor = "multi_thread")]
async fn live_commits_reach_the_pipeline_witnessed() {
    // Ingress verifies every foreign vote a message lists and the
    // protocol signs its own, so by the time a batch commits the event
    // loop's vote memo vouches for the whole certificate and the
    // pipeline appends it without a second signature pass.
    // `witness_counts` is the debug counter of exactly that; a
    // fault-free cluster witnesses (nearly) everything. The loop
    // itself verifies nothing: a vote the protocol checks but its
    // message does not list (`carried_votes`) would show up in
    // `loop_vote_misses`.
    let handle = InProcCluster::spawn(ClusterConfig::new(4), None);
    for i in 0..60u64 {
        handle
            .client
            .submit(real_batch(i, i), ReplicaId((i % 4) as u32))
            .await;
    }
    for r in 0..4 {
        let replica = handle.handle(ReplicaId(r));
        let (witnessed, commits) = replica.witness_counts();
        assert!(commits >= 55, "replica {r} announced {commits} commits");
        assert!(
            witnessed * 100 >= commits * 95,
            "replica {r} witnessed {witnessed} of {commits} commits"
        );
        assert_eq!(
            replica.loop_vote_misses(),
            0,
            "replica {r}'s event loop verified votes itself"
        );
        assert!(replica.net().votes_verified() > 0);
    }
    handle.shutdown().await;
}

#[tokio::test(flavor = "multi_thread")]
async fn cluster_survives_one_crashed_replica() {
    let cluster = ClusterConfig::new(4); // f = 1
    let behaviors = vec![
        ByzantineBehavior::Honest,
        ByzantineBehavior::Honest,
        ByzantineBehavior::Honest,
        ByzantineBehavior::Crash,
    ];
    let handle = InProcCluster::spawn(cluster, Some(behaviors));
    for i in 0..3u64 {
        // Submit to live replicas; the dead one's primary slots are
        // rotated past via RVS timeouts.
        let result = handle
            .client
            .submit(real_batch(100 + i, i), ReplicaId((i % 3) as u32))
            .await;
        assert_ne!(result, spotless::types::Digest::ZERO);
    }
    handle.shutdown().await;
}

#[tokio::test(flavor = "multi_thread")]
async fn equivocating_replica_cannot_cause_divergence() {
    let cluster = ClusterConfig::new(4);
    let behaviors = vec![
        ByzantineBehavior::Honest,
        ByzantineBehavior::Honest,
        ByzantineBehavior::Honest,
        ByzantineBehavior::Equivocate,
    ];
    let handle = InProcCluster::spawn(cluster, Some(behaviors));
    for i in 0..3u64 {
        let _ = handle
            .client
            .submit(real_batch(200 + i, i), ReplicaId((i % 3) as u32))
            .await;
    }
    let commits = handle.commits.snapshot();
    // Honest replicas (0..3) must agree on every batch's state digest.
    let mut per_batch: std::collections::HashMap<BatchId, spotless::types::Digest> =
        std::collections::HashMap::new();
    for entry in commits.iter().filter(|e| e.replica.0 < 3) {
        let d = per_batch
            .entry(entry.info.batch.id)
            .or_insert(entry.state_digest);
        assert_eq!(
            *d, entry.state_digest,
            "honest divergence at {:?}",
            entry.info
        );
    }
    handle.shutdown().await;
}

/// Reserves `count` loopback addresses by binding ephemeral listeners
/// and immediately releasing them (the established pattern for test
/// endpoints; a lost race just fails loudly at bind time).
async fn free_addrs(count: usize) -> Vec<String> {
    let mut addrs = Vec::with_capacity(count);
    for _ in 0..count {
        let listener = tokio::net::TcpListener::bind("127.0.0.1:0").await.unwrap();
        addrs.push(listener.local_addr().unwrap().to_string());
    }
    addrs
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

/// Waits until every replica reports synced. Durable replicas boot in
/// catch-up (a height-0 store cannot prove freshness) and are held out
/// of consensus until a weak quorum of peers confirms their head — at
/// a genuinely fresh boot that resolves in a couple of round trips.
async fn wait_all_synced(handles: &[spotless::runtime::ReplicaHandle]) {
    for h in handles {
        let id = h.id();
        wait_until(&format!("replica {id:?} syncs"), || h.is_synced()).await;
    }
}

/// Asserts every replica reported the same state digest per batch.
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

/// Acceptance: two different protocols — SpotLess and the PBFT baseline
/// — deploy through the same `ReplicaRuntime` over the TCP fabric with
/// durable storage enabled, serve clients, and leave verifiable chains
/// on disk.
#[tokio::test(flavor = "multi_thread")]
async fn spotless_and_pbft_deploy_over_tcp_with_durable_storage() {
    // ── SpotLess over TCP ───────────────────────────────────────────
    let cluster = ClusterConfig::new(4);
    let dirs: Vec<tempfile::TempDir> = (0..4).map(|_| tempfile::tempdir().unwrap()).collect();
    let c = cluster.clone();
    let handle = TcpCluster::spawn_with(
        cluster.clone(),
        free_addrs(4).await,
        storage_configs(&dirs, 4),
        move |r| SpotLessReplica::new(ReplicaConfig::honest(c.clone(), r)),
    )
    .await
    .expect("spotless tcp cluster");
    let handles: Vec<_> = (0..4).map(|r| handle.handle(ReplicaId(r))).collect();
    wait_all_synced(&handles).await;
    for i in 0..4u64 {
        let result = handle
            .client
            .submit(real_batch(i, i), ReplicaId((i % 4) as u32))
            .await;
        assert_ne!(result, spotless::types::Digest::ZERO, "spotless batch {i}");
    }
    // The client resolves on f + 1 informs; wait for the replica whose
    // disk we inspect below to execute everything.
    wait_until("replica 0 executes all spotless batches", || {
        let entries = handle.commits.snapshot();
        (0..4u64).all(|id| {
            entries
                .iter()
                .any(|e| e.replica == ReplicaId(0) && e.info.batch.id == BatchId(id))
        })
    })
    .await;
    assert_no_divergence(&handle.commits.snapshot());
    handle.shutdown().await;

    // The chains are on disk: reopen one store and verify it.
    let (led, report) = DurableLedger::open(dirs[0].path(), DurableLedgerOptions::default())
        .expect("reopen spotless store");
    assert!(
        led.ledger().height() >= 4,
        "all four batches must be durable, height {}",
        led.ledger().height()
    );
    led.ledger().verify().expect("spotless chain verifies");
    assert_eq!(
        report.snapshot_height + report.replayed_blocks,
        led.ledger().height()
    );

    // ── PBFT (single-instance baseline) over TCP ────────────────────
    let cluster = ClusterConfig::with_instances(4, 1);
    let dirs: Vec<tempfile::TempDir> = (0..4).map(|_| tempfile::tempdir().unwrap()).collect();
    let c = cluster.clone();
    let handle = TcpCluster::spawn_with(
        cluster.clone(),
        free_addrs(4).await,
        storage_configs(&dirs, 4),
        move |r| PbftReplica::new(c.clone(), r),
    )
    .await
    .expect("pbft tcp cluster");
    let handles: Vec<_> = (0..4).map(|r| handle.handle(ReplicaId(r))).collect();
    wait_all_synced(&handles).await;
    for i in 0..4u64 {
        // Any replica accepts a request; non-primaries relay to the
        // primary — exactly what the runtime's generic client needs.
        let result = handle
            .client
            .submit(real_batch(1000 + i, i), ReplicaId((i % 4) as u32))
            .await;
        assert_ne!(result, spotless::types::Digest::ZERO, "pbft batch {i}");
    }
    wait_until("replica 1 executes all pbft batches", || {
        let entries = handle.commits.snapshot();
        (1000..1004u64).all(|id| {
            entries
                .iter()
                .any(|e| e.replica == ReplicaId(1) && e.info.batch.id == BatchId(id))
        })
    })
    .await;
    assert_no_divergence(&handle.commits.snapshot());
    handle.shutdown().await;

    let (led, _) = DurableLedger::open(dirs[1].path(), DurableLedgerOptions::default())
        .expect("reopen pbft store");
    assert!(led.ledger().height() >= 4);
    led.ledger().verify().expect("pbft chain verifies");
}

/// Acceptance: a replica killed mid-run restarts from its segmented log
/// + snapshot, rejoins via the runtime's catch-up exchange, and
/// recommits nothing inconsistent — its recovered-and-caught-up chain
/// and execution digests agree with the replicas that never crashed.
#[tokio::test(flavor = "multi_thread")]
async fn replica_restarts_from_durable_log_and_catches_up() {
    let cluster = ClusterConfig::new(4);
    let dirs: Vec<tempfile::TempDir> = (0..4).map(|_| tempfile::tempdir().unwrap()).collect();
    // The victim snapshots every 4 blocks so the crash lands above a
    // real snapshot and recovery exercises snapshot + log replay +
    // catch-up together; the survivors keep everything materialized so
    // the post-mortem can compare chains block-by-block.
    let mut storage = storage_configs(&dirs, 1000);
    storage[3].as_mut().unwrap().options.snapshot_every = 4;
    let c = cluster.clone();
    let handle = InProcCluster::spawn_with(cluster.clone(), storage, vec![false; 4], move |r| {
        SpotLessReplica::new(ReplicaConfig::honest(c.clone(), r))
    })
    .expect("durable inproc cluster");
    let handles: Vec<_> = (0..4).map(|r| handle.handle(ReplicaId(r))).collect();
    wait_all_synced(&handles).await;

    // Phase 1: commits everywhere.
    for i in 0..6u64 {
        let result = handle
            .client
            .submit(real_batch(i, i), ReplicaId((i % 4) as u32))
            .await;
        assert_ne!(result, spotless::types::Digest::ZERO);
    }
    // Wait until the victim has executed (and group-committed) at least
    // one batch so its restart genuinely recovers from disk.
    let victim = ReplicaId(3);
    wait_until("victim executes phase-1 batches", || {
        handle
            .commits
            .snapshot()
            .iter()
            .filter(|e| e.replica == victim)
            .count()
            >= 4
    })
    .await;

    // Phase 2: kill the victim; the cluster (n = 4, f = 1) keeps going.
    handle.stop(victim);
    let down_ids: Vec<u64> = (100..106).collect();
    for (k, &id) in down_ids.iter().enumerate() {
        let result = handle
            .client
            .submit(real_batch(id, id), ReplicaId((k % 3) as u32))
            .await;
        assert_ne!(result, spotless::types::Digest::ZERO);
    }

    // Phase 3: restart from the same directory (coarse cadence now, so
    // the post-mortem below still sees the materialized tail).
    let mut storage = StorageConfig::new(dirs[3].path());
    storage.options.snapshot_every = 1000;
    let c = cluster.clone();
    let restarted = handle
        .restart(
            victim,
            Some(storage),
            SpotLessReplica::new(ReplicaConfig::honest(c, victim)),
        )
        .await
        .expect("restart from durable state");
    let recovery = restarted.recovery().expect("durable recovery info").clone();
    assert!(
        recovery.chain_height >= 4,
        "restart must recover the pre-crash chain from disk, got height {}",
        recovery.chain_height
    );
    assert!(
        recovery.snapshot_height >= 4,
        "the pre-crash snapshot must anchor recovery, got {}",
        recovery.snapshot_height
    );

    // Keep traffic flowing so the cluster stays live while the
    // restarted replica catches up.
    for i in 0..3u64 {
        let result = handle
            .client
            .submit(real_batch(200 + i, i), ReplicaId((i % 3) as u32))
            .await;
        assert_ne!(result, spotless::types::Digest::ZERO);
    }

    // The victim must re-acquire every batch committed while it was
    // down — via its durable log for the prefix, via peer catch-up for
    // the gap — without diverging from the survivors.
    wait_until("victim catches up on the missed batches", || {
        let entries = handle.commits.snapshot();
        down_ids.iter().all(|&id| {
            entries
                .iter()
                .any(|e| e.replica == victim && e.info.batch.id == BatchId(id))
        })
    })
    .await;
    // Synced flips only after a weak quorum of peers confirms the
    // victim stands at their head — a couple more round trips after the
    // last block applies, so poll rather than assert the instant state.
    wait_until("victim reports synced", || restarted.is_synced()).await;
    assert_no_divergence(&handle.commits.snapshot());
    handle.shutdown().await;

    // Post-mortem on disk: the victim's chain must be a verified chain
    // that agrees block-for-block with a survivor's on the common
    // materialized prefix.
    let opts = DurableLedgerOptions::default();
    let (survivor, _) = DurableLedger::open(dirs[0].path(), opts).unwrap();
    let (recovered, _) = DurableLedger::open(dirs[3].path(), opts).unwrap();
    survivor.ledger().verify().expect("survivor chain verifies");
    recovered
        .ledger()
        .verify()
        .expect("recovered chain verifies");
    let common = survivor.ledger().height().min(recovered.ledger().height());
    let base = survivor
        .ledger()
        .base_height()
        .max(recovered.ledger().base_height());
    assert!(
        common > base,
        "chains must share a materialized prefix (base {base}, common {common})"
    );
    for h in base..common {
        assert_eq!(
            survivor.ledger().block(h).unwrap().hash,
            recovered.ledger().block(h).unwrap().hash,
            "recovered replica recommitted inconsistently at height {h}"
        );
    }
}

/// Multi-shard batch for the parallel-execution tests: 16 writes whose
/// keys spread over the execution shards, so commit groups genuinely
/// fan out across the executor pool instead of collapsing into one
/// conflict component.
fn wide_batch(id: u64) -> ClientBatch {
    let txns: Vec<Transaction> = (0..16u64)
        .map(|i| Transaction {
            id: id * 100 + i,
            op: Operation::Update {
                key: id * 977 + i * 131,
                value: vec![id as u8; 40],
            },
        })
        .collect();
    let payload = encode_txns(&txns);
    let digest = spotless::crypto::digest_bytes(&payload);
    ClientBatch {
        id: BatchId(id),
        origin: ClientId(9),
        digest,
        txns: 16,
        txn_size: 48,
        created_at: SimTime::ZERO,
        payload,
    }
}

/// Acceptance (parallel execution + crash recovery): a durable cluster
/// executing committed batches through the conflict-aware parallel
/// executor commits multi-shard batches, loses a replica mid-run, and
/// the restarted replica — re-executing its log and the catch-up gap,
/// also in parallel — ends block-for-block and KV-equal with the
/// survivors. Execute-then-seal makes this sharp: had parallel
/// scheduling reordered anything observable, the recovered replica's
/// re-executed two-level state roots would mismatch the sealed chain
/// and it could never rejoin.
#[tokio::test(flavor = "multi_thread")]
async fn parallel_execution_cluster_recovers_block_for_block() {
    let cluster = ClusterConfig::new(4);
    let dirs: Vec<tempfile::TempDir> = (0..4).map(|_| tempfile::tempdir().unwrap()).collect();
    // The victim snapshots aggressively so the crash lands above a real
    // v5 snapshot and recovery exercises snapshot restore + log replay
    // + catch-up, all through the parallel executor.
    let mut storage = storage_configs(&dirs, 1000);
    storage[3].as_mut().unwrap().options.snapshot_every = 4;
    let c = cluster.clone();
    let handle = InProcCluster::spawn_tuned(
        cluster.clone(),
        storage,
        vec![false; 4],
        |cfg| cfg.exec_pool = 3,
        move |r| SpotLessReplica::new(ReplicaConfig::honest(c.clone(), r)),
    )
    .expect("durable parallel cluster");
    let handles: Vec<_> = (0..4).map(|r| handle.handle(ReplicaId(r))).collect();
    wait_all_synced(&handles).await;

    // Phase 1: multi-shard commits everywhere.
    for i in 0..6u64 {
        let result = handle
            .client
            .submit(wide_batch(i), ReplicaId((i % 4) as u32))
            .await;
        assert_ne!(result, spotless::types::Digest::ZERO);
    }
    let victim = ReplicaId(3);
    wait_until("victim executes phase-1 batches", || {
        handle
            .commits
            .snapshot()
            .iter()
            .filter(|e| e.replica == victim)
            .count()
            >= 4
    })
    .await;

    // Phase 2: kill the victim; the survivors keep committing.
    handle.stop(victim);
    let down_ids: Vec<u64> = (100..106).collect();
    for (k, &id) in down_ids.iter().enumerate() {
        let result = handle
            .client
            .submit(wide_batch(id), ReplicaId((k % 3) as u32))
            .await;
        assert_ne!(result, spotless::types::Digest::ZERO);
    }

    // Phase 3: restart from the same directory (the default runtime
    // config also executes in parallel; coarse snapshot cadence keeps
    // the tail materialized for the post-mortem).
    let mut storage = StorageConfig::new(dirs[3].path());
    storage.options.snapshot_every = 1000;
    let c = cluster.clone();
    let restarted = handle
        .restart(
            victim,
            Some(storage),
            SpotLessReplica::new(ReplicaConfig::honest(c, victim)),
        )
        .await
        .expect("restart from durable state");
    let recovery = restarted.recovery().expect("durable recovery info").clone();
    assert!(
        recovery.chain_height >= 4,
        "restart must recover the pre-crash chain from disk, got height {}",
        recovery.chain_height
    );

    // Keep traffic flowing so the cluster stays live during catch-up.
    for i in 0..3u64 {
        let result = handle
            .client
            .submit(wide_batch(200 + i), ReplicaId((i % 3) as u32))
            .await;
        assert_ne!(result, spotless::types::Digest::ZERO);
    }

    wait_until("victim catches up on the missed batches", || {
        let entries = handle.commits.snapshot();
        down_ids.iter().all(|&id| {
            entries
                .iter()
                .any(|e| e.replica == victim && e.info.batch.id == BatchId(id))
        })
    })
    .await;
    wait_until("victim reports synced", || restarted.is_synced()).await;
    // KV-equal: every replica, the recovered one included, reported the
    // same post-batch execution digest for every batch it committed.
    assert_no_divergence(&handle.commits.snapshot());
    handle.shutdown().await;

    // Post-mortem on disk: block-for-block agreement on the common
    // materialized prefix. Block hashes bind the sealed two-level state
    // roots, so this also pins serial-free execution to the exact
    // state every survivor sealed.
    let opts = DurableLedgerOptions::default();
    let (survivor, _) = DurableLedger::open(dirs[0].path(), opts).unwrap();
    let (recovered, _) = DurableLedger::open(dirs[3].path(), opts).unwrap();
    survivor.ledger().verify().expect("survivor chain verifies");
    recovered
        .ledger()
        .verify()
        .expect("recovered chain verifies");
    let common = survivor.ledger().height().min(recovered.ledger().height());
    let base = survivor
        .ledger()
        .base_height()
        .max(recovered.ledger().base_height());
    assert!(
        common > base,
        "chains must share a materialized prefix (base {base}, common {common})"
    );
    for h in base..common {
        assert_eq!(
            survivor.ledger().block(h).unwrap().hash,
            recovered.ledger().block(h).unwrap().hash,
            "recovered replica recommitted inconsistently at height {h}"
        );
    }
}

/// Acceptance (snapshot state transfer): a replica whose peers have all
/// pruned past its height recovers via snapshot shipping — not block
/// replay — and ends block-for-block and KV-state equal with the
/// survivors.
#[tokio::test(flavor = "multi_thread")]
async fn snapshot_state_transfer_recovers_from_pruned_peers() {
    let cluster = ClusterConfig::new(4);
    let dirs: Vec<tempfile::TempDir> = (0..4).map(|_| tempfile::tempdir().unwrap()).collect();
    // Aggressive snapshot cadence: every peer snapshots (and prunes its
    // chain tail + log segments) every 2 blocks, so by the time the
    // victim returns nobody retains the block range it is missing.
    let storage = storage_configs(&dirs, 2);
    let c = cluster.clone();
    let handle = InProcCluster::spawn_with(cluster.clone(), storage, vec![false; 4], move |r| {
        SpotLessReplica::new(ReplicaConfig::honest(c.clone(), r))
    })
    .expect("durable inproc cluster");
    let handles: Vec<_> = (0..4).map(|r| handle.handle(ReplicaId(r))).collect();
    wait_all_synced(&handles).await;

    // Phase 1: a short common prefix, fully executed at the victim.
    for i in 0..4u64 {
        let result = handle
            .client
            .submit(real_batch(i, i), ReplicaId((i % 4) as u32))
            .await;
        assert_ne!(result, spotless::types::Digest::ZERO);
    }
    let victim = ReplicaId(3);
    wait_until("victim executes the phase-1 batches", || {
        let entries = handle.commits.snapshot();
        (0..4u64).all(|id| {
            entries
                .iter()
                .any(|e| e.replica == victim && e.info.batch.id == BatchId(id))
        })
    })
    .await;

    // Phase 2: kill the victim, then commit enough that every survivor
    // snapshots and prunes far past the victim's height.
    handle.stop(victim);
    for i in 0..8u64 {
        let result = handle
            .client
            .submit(real_batch(100 + i, 10 + i), ReplicaId((i % 3) as u32))
            .await;
        assert_ne!(result, spotless::types::Digest::ZERO);
    }

    // Phase 3: the victim returns. Block replay cannot serve it — the
    // peers pruned its range — so recovery must go through the
    // snapshot path.
    let restarted = handle
        .restart(
            victim,
            Some({
                let mut s = StorageConfig::new(dirs[3].path());
                s.options.snapshot_every = 2;
                s
            }),
            SpotLessReplica::new(ReplicaConfig::honest(cluster.clone(), victim)),
        )
        .await
        .expect("restart victim");
    wait_until("victim reports synced", || restarted.is_synced()).await;

    // Fresh traffic executes on the restored state; matching state
    // digests prove the snapshot restored the KV store exactly (the
    // digest rolls over the *entire* write history, so any divergence
    // in the transferred state would surface here).
    for i in 0..3u64 {
        let result = handle
            .client
            .submit(real_batch(200 + i, 20 + i), ReplicaId(0))
            .await;
        assert_ne!(result, spotless::types::Digest::ZERO);
    }
    wait_until("victim executes post-recovery batches", || {
        let entries = handle.commits.snapshot();
        (200..203u64).all(|id| {
            entries
                .iter()
                .any(|e| e.replica == victim && e.info.batch.id == BatchId(id))
        })
    })
    .await;
    let entries = handle.commits.snapshot();
    assert_no_divergence(&entries);
    // The signature of the snapshot path: the victim's state covers the
    // blocks it missed, but it never *re-executed* them — block replay
    // would have produced per-batch commit entries for the gap;
    // snapshot shipping installs the state wholesale instead.
    assert!(
        (100..108u64).all(|id| {
            !entries
                .iter()
                .any(|e| e.replica == victim && e.info.batch.id == BatchId(id))
        }),
        "victim must have skipped the pruned range via snapshot, not replayed it"
    );
    handle.shutdown().await;

    // Post-mortem on disk: both chains verify, reach the same certified
    // head (the head hash chains over the entire history, transferred
    // certificates included), and agree on every block they both still
    // materialize.
    let opts = DurableLedgerOptions::default();
    let (survivor, _) = DurableLedger::open(dirs[0].path(), opts).unwrap();
    let (recovered, _) = DurableLedger::open(dirs[3].path(), opts).unwrap();
    survivor.ledger().verify().expect("survivor chain verifies");
    recovered
        .ledger()
        .verify()
        .expect("recovered chain verifies");
    assert!(
        recovered.ledger().base_height() >= 12,
        "victim must be rooted past the pruned history, base {}",
        recovered.ledger().base_height()
    );
    assert_eq!(
        survivor.ledger().height(),
        recovered.ledger().height(),
        "both chains reach the same head"
    );
    assert_eq!(
        survivor.ledger().head_hash(),
        recovered.ledger().head_hash(),
        "head hashes must agree (they chain over the whole history)"
    );
    let base = survivor
        .ledger()
        .base_height()
        .max(recovered.ledger().base_height());
    for h in base..survivor.ledger().height() {
        // Hashes bind the canonical chain content; the commit
        // certificates may legitimately differ per replica (each
        // persists the quorum evidence it collected).
        assert_eq!(
            survivor.ledger().block(h).unwrap().hash,
            recovered.ledger().block(h).unwrap().hash,
            "divergent block at height {h}"
        );
    }
}

/// Acceptance (participation gating): a recovering replica whose peers
/// cannot confirm its head — here, because they are all down — must
/// not vote, propose, or commit anything; it sits in recovery until a
/// weak quorum of peers returns.
#[tokio::test(flavor = "multi_thread")]
async fn recovering_replica_stays_out_of_consensus_until_confirmed() {
    let cluster = ClusterConfig::new(4);
    let dirs: Vec<tempfile::TempDir> = (0..4).map(|_| tempfile::tempdir().unwrap()).collect();
    let c = cluster.clone();
    let handle = InProcCluster::spawn_with(
        cluster.clone(),
        storage_configs(&dirs, 1000),
        vec![false; 4],
        move |r| SpotLessReplica::new(ReplicaConfig::honest(c.clone(), r)),
    )
    .expect("durable inproc cluster");
    let handles: Vec<_> = (0..4).map(|r| handle.handle(ReplicaId(r))).collect();
    wait_all_synced(&handles).await;
    for i in 0..2u64 {
        let result = handle
            .client
            .submit(real_batch(i, i), ReplicaId(i as u32))
            .await;
        assert_ne!(result, spotless::types::Digest::ZERO);
    }

    // Stop the whole cluster.
    for r in 0..4u32 {
        handle.stop(ReplicaId(r));
    }
    for h in &handles {
        wait_until("replica stops", || h.is_stopped()).await;
    }
    let commits_before = handle.commits.len();

    // Restart replica 0 alone: nobody can confirm its head, so it must
    // stay in recovery — unsynced, casting no votes, committing
    // nothing — rather than rejoin on its own authority.
    let lone = handle
        .restart(
            ReplicaId(0),
            Some(StorageConfig::new(dirs[0].path())),
            SpotLessReplica::new(ReplicaConfig::honest(cluster.clone(), ReplicaId(0))),
        )
        .await
        .expect("restart replica 0");
    tokio::time::sleep(std::time::Duration::from_millis(700)).await;
    assert!(
        !lone.is_synced(),
        "a lone recovering replica must not declare itself synced"
    );
    assert_eq!(
        handle.commits.len(),
        commits_before,
        "a recovering replica must not commit anything"
    );

    // Two peers return: now a weak quorum (f + 1 = 2) can confirm each
    // other's heads; everyone syncs and the cluster (3 of 4 = quorum)
    // serves clients again.
    for r in 1..3u32 {
        let c = cluster.clone();
        handle
            .restart(
                ReplicaId(r),
                Some(StorageConfig::new(dirs[r as usize].path())),
                SpotLessReplica::new(ReplicaConfig::honest(c, ReplicaId(r))),
            )
            .await
            .expect("restart peer");
    }
    wait_until("replica 0 syncs once peers return", || lone.is_synced()).await;
    let result = handle.client.submit(real_batch(50, 5), ReplicaId(0)).await;
    assert_ne!(result, spotless::types::Digest::ZERO);
    assert_no_divergence(&handle.commits.snapshot());
    handle.shutdown().await;
}

/// Acceptance (verifiable commits): every block each of the **five**
/// protocols persists through the deployment path carries a non-empty
/// commit certificate that independently passes the ledger's quorum
/// verification (distinct, known signers meeting the phase minimum).
#[tokio::test(flavor = "multi_thread")]
async fn all_five_protocols_persist_verified_certificates() {
    use spotless::baselines::{HotStuffReplica, RccReplica};
    use spotless::ledger::{verify_proof, ProofRules};

    async fn commit_and_audit<N, F>(name: &str, cluster: ClusterConfig, ids: [u64; 3], make: F)
    where
        N: spotless::types::Node + Send + 'static,
        N::Message: serde::Serialize + serde::Deserialize + Send + 'static,
        F: FnMut(ReplicaId) -> N,
    {
        let n = cluster.n as usize;
        let dirs: Vec<tempfile::TempDir> = (0..n).map(|_| tempfile::tempdir().unwrap()).collect();
        let handle = InProcCluster::spawn_with(
            cluster.clone(),
            storage_configs(&dirs, 1000),
            vec![false; n],
            make,
        )
        .unwrap_or_else(|e| panic!("{name}: spawn failed: {e}"));
        let handles: Vec<_> = (0..cluster.n)
            .map(|r| handle.handle(ReplicaId(r)))
            .collect();
        wait_all_synced(&handles).await;
        // Fire-and-forget to every replica: protocols without a
        // forward-to-leader path (HotStuff) still propose each batch as
        // soon as any leader holds it; duplicate decisions dedup at
        // execution.
        for (k, &id) in ids.iter().enumerate() {
            let batch = real_batch(id, 30 + k as u64);
            for h in &handles {
                h.submit(batch.clone());
            }
        }
        // Generous budget: HotStuff's tail commits ride pacemaker
        // timeouts (exponential backoff), and the suite's other
        // clusters compete for CPU when tests run in parallel. A slow
        // drip of filler batches keeps chained protocols advancing —
        // the three-chain rule only commits a block once two more
        // blocks build on it, which idle no-op views provide slowly but
        // fresh traffic provides immediately (their intended regime).
        let mut filler = 0u64;
        for round in 0..2400 {
            let entries = handle.commits.snapshot();
            if ids.iter().all(|&id| {
                entries
                    .iter()
                    .any(|e| e.replica == ReplicaId(0) && e.info.batch.id == BatchId(id))
            }) {
                break;
            }
            if round % 20 == 19 {
                let batch = real_batch(ids[2] + 1000 + filler, 60 + filler);
                filler += 1;
                for h in &handles {
                    h.submit(batch.clone());
                }
            }
            tokio::time::sleep(std::time::Duration::from_millis(25)).await;
        }
        let entries = handle.commits.snapshot();
        assert!(
            ids.iter().all(|&id| {
                entries
                    .iter()
                    .any(|e| e.replica == ReplicaId(0) && e.info.batch.id == BatchId(id))
            }),
            "{name}: batches did not all commit at replica 0"
        );
        // Every vote each protocol checks is one its message lists, so
        // ingress verified them all and no event loop did.
        for (r, h) in handles.iter().enumerate() {
            assert_eq!(h.loop_vote_misses(), 0, "{name}: replica {r}");
        }
        handle.shutdown().await;

        // Reopen replica 0's store and audit every persisted block.
        let (led, _) = DurableLedger::open(dirs[0].path(), DurableLedgerOptions::default())
            .unwrap_or_else(|e| panic!("{name}: reopen failed: {e}"));
        led.ledger()
            .verify()
            .unwrap_or_else(|e| panic!("{name}: chain verification failed: {e}"));
        let rules = ProofRules::for_cluster(&cluster);
        // Same master seed the in-proc cluster derives its replica
        // keys from — the audit re-verifies every persisted Ed25519
        // signature against the cluster's public keys.
        let keys = spotless::crypto::KeyStore::cluster(b"spotless-inproc-cluster", cluster.n)
            .into_iter()
            .next()
            .unwrap();
        let mut audited = 0;
        for block in led.ledger().iter() {
            assert!(
                !block.proof.signers.is_empty(),
                "{name}: block {} has an empty signer set",
                block.height
            );
            verify_proof(&block.proof, &rules, &keys)
                .unwrap_or_else(|e| panic!("{name}: block {} proof rejected: {e}", block.height));
            audited += 1;
        }
        assert!(
            audited >= ids.len(),
            "{name}: expected at least {} durable blocks, found {audited}",
            ids.len()
        );
    }

    let c4 = ClusterConfig::new(4);

    let c = c4.clone();
    commit_and_audit("SpotLess", c4.clone(), [300, 301, 302], move |r| {
        SpotLessReplica::new(ReplicaConfig::honest(c.clone(), r))
    })
    .await;

    let c1 = ClusterConfig::with_instances(4, 1);
    let c = c1.clone();
    commit_and_audit("PBFT", c1, [310, 311, 312], move |r| {
        PbftReplica::new(c.clone(), r)
    })
    .await;

    let cr = ClusterConfig::with_instances(4, 4);
    let c = cr.clone();
    commit_and_audit("RCC", cr, [320, 321, 322], move |r| {
        RccReplica::new(c.clone(), r)
    })
    .await;

    let c = c4.clone();
    commit_and_audit("HotStuff", c4.clone(), [330, 331, 332], move |r| {
        HotStuffReplica::new(c.clone(), r)
    })
    .await;

    let c = c4.clone();
    commit_and_audit("Narwhal-HS", c4, [340, 341, 342], move |r| {
        HotStuffReplica::narwhal(c.clone(), r)
    })
    .await;
}

/// Polls `cond` (about ten seconds at most) instead of sleeping a fixed
/// worst case.
async fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    for _ in 0..400 {
        if cond() {
            return;
        }
        tokio::time::sleep(std::time::Duration::from_millis(25)).await;
    }
    panic!("timed out waiting until {what}");
}
