//! Cross-crate durability: consensus commits → durable ledger → crash →
//! recovery, exercising `spotless-core`, `spotless-simnet`,
//! `spotless-ledger`, and `spotless-storage` together.
//!
//! The paper's testbed (§6.1) keeps an immutable ledger of executed
//! transactions on every replica. These tests drive a real simulated
//! cluster, capture each replica's execution-order commit stream, and
//! check that (a) the streams are prefix-consistent across replicas
//! (the consensus guarantee the ledger records), and (b) persisting the
//! stream through `DurableLedger` survives crashes with byte-identical
//! chains.

use spotless::core::{ReplicaConfig, SpotLessReplica};
use spotless::ledger::CommitProof;
use spotless::simnet::{ClosedLoopDriver, SimConfig, Simulation};
use spotless::storage::log::{LogOptions, SyncPolicy};
use spotless::storage::{DurableLedger, DurableLedgerOptions};
use spotless::types::{BatchId, ClusterConfig, CommitInfo, InstanceId, SimDuration, View};
use spotless::workload::{encode_txns, KvStore, WorkloadGen, YcsbConfig};

/// Runs a 4-replica, 4-instance cluster and returns the per-replica
/// commit logs (execution order, no-ops included).
fn run_cluster(n: u32) -> Vec<Vec<CommitInfo>> {
    let cluster = ClusterConfig::with_instances(n, n);
    let nodes: Vec<SpotLessReplica> = cluster
        .replicas()
        .map(|r| SpotLessReplica::new(ReplicaConfig::honest(cluster.clone(), r)))
        .collect();
    let mut cfg = SimConfig::new(cluster);
    cfg.warmup = SimDuration::from_millis(200);
    cfg.duration = SimDuration::from_millis(1000);
    cfg.record_commits = true;
    let mut sim = Simulation::new(cfg, nodes, ClosedLoopDriver::new(24));
    sim.run();
    (0..n).map(|i| sim.commit_log(i).to_vec()).collect()
}

fn key(c: &CommitInfo) -> (u64, u32, u64) {
    (c.view.0, c.instance.0, c.batch.id.0)
}

#[test]
fn commit_streams_are_prefix_consistent_across_replicas() {
    let logs = run_cluster(4);
    for log in &logs {
        assert!(
            log.len() > 8,
            "each replica should execute a useful number of slots, got {}",
            log.len()
        );
    }
    for (i, a) in logs.iter().enumerate() {
        for b in logs.iter().skip(i + 1) {
            let common = a.len().min(b.len());
            for k in 0..common {
                assert_eq!(
                    key(&a[k]),
                    key(&b[k]),
                    "replicas diverge at execution slot {k}"
                );
            }
        }
    }
}

/// Builds a durable ledger from a commit stream, optionally crashing
/// (dropping the store) every `crash_every` appends.
fn persist(
    dir: &std::path::Path,
    commits: &[CommitInfo],
    crash_every: Option<usize>,
) -> (u64, spotless::types::Digest) {
    let opts = DurableLedgerOptions {
        log: LogOptions {
            max_segment_bytes: 2048,
            sync: SyncPolicy::Always,
        },
        snapshot_every: 16,
    };
    let mut appended = 0usize;
    let mut led_open: Option<DurableLedger> = None;
    for c in commits {
        if c.batch.is_noop() {
            continue; // no-ops keep execution moving but are not ledger data
        }
        if led_open.is_none() {
            let (led, report) = DurableLedger::open(dir, opts).unwrap();
            // Every reopen must land exactly where the last session left off.
            assert_eq!(
                led.ledger().height(),
                report.snapshot_height + report.replayed_blocks
            );
            led_open = Some(led);
        }
        let led = led_open.as_mut().unwrap();
        // Simulation batches carry no payload: the sealed root is a
        // deterministic function of the slot (the real execute-then-
        // seal path is exercised by the runtime tests).
        led.append_batch(
            c.batch.id,
            c.batch.digest,
            c.batch.txns,
            spotless::types::Digest::from_u64(appended as u64 + 1),
            CommitProof {
                instance: c.instance,
                view: c.view,
                phase: c.cert.phase,
                voted: c.cert.voted,
                slot: c.cert.slot,
                signers: c.cert.signers.clone(),
                sigs: c.cert.sigs.clone(),
            },
            &c.batch.payload,
        )
        .unwrap();
        led.maybe_snapshot(format!("exec-{appended}").as_bytes(), &[])
            .unwrap();
        appended += 1;
        if crash_every.is_some_and(|k| appended.is_multiple_of(k)) {
            led_open = None; // crash: drop without any shutdown protocol
        }
    }
    let (led, _) = DurableLedger::open(dir, opts).unwrap();
    led.ledger().verify().unwrap();
    (led.ledger().height(), led.ledger().head_hash())
}

#[test]
fn crashed_and_uncrashed_persistence_produce_identical_chains() {
    let logs = run_cluster(4);
    let stream = &logs[0];
    let clean_dir = tempfile::tempdir().unwrap();
    let crashy_dir = tempfile::tempdir().unwrap();
    let (h1, hash1) = persist(clean_dir.path(), stream, None);
    let (h2, hash2) = persist(crashy_dir.path(), stream, Some(5));
    assert!(h1 > 0, "stream must contain real batches");
    assert_eq!(h1, h2, "crashes must not lose acknowledged blocks");
    assert_eq!(hash1, hash2, "chains must be byte-identical");
}

#[test]
fn two_replicas_ledgers_agree_on_their_common_prefix() {
    let logs = run_cluster(4);
    let common = logs[0].len().min(logs[1].len());
    let d0 = tempfile::tempdir().unwrap();
    let d1 = tempfile::tempdir().unwrap();
    let (h0, _) = persist(d0.path(), &logs[0][..common], None);
    let (h1, _) = persist(d1.path(), &logs[1][..common], None);
    assert_eq!(h0, h1, "same slots ⇒ same number of ledger blocks");
    // Reopen both and compare block-by-block.
    let opts = DurableLedgerOptions {
        log: LogOptions {
            max_segment_bytes: 2048,
            sync: SyncPolicy::Always,
        },
        snapshot_every: 16,
    };
    let (l0, _) = DurableLedger::open(d0.path(), opts).unwrap();
    let (l1, _) = DurableLedger::open(d1.path(), opts).unwrap();
    assert_eq!(l0.ledger().head_hash(), l1.ledger().head_hash());
    let base = l0.ledger().base_height().max(l1.ledger().base_height());
    for h in base..h0 {
        assert_eq!(
            l0.ledger().block(h).unwrap(),
            l1.ledger().block(h).unwrap(),
            "block {h} differs between replicas"
        );
    }
}

/// The replica runtime's full recovery recipe, exercised crate-by-crate
/// without a cluster: execute YCSB batches against the KV store while
/// persisting blocks through `DurableLedger`, snapshot the serialized
/// KV state on the storage cadence, crash at arbitrary points, and
/// restore execution state from `RecoveryReport::app_state` plus
/// re-execution of the payloads logged above the snapshot. The restored
/// run must end bit-identical to an uninterrupted one.
#[test]
fn kv_state_recovers_from_snapshot_plus_payload_replay() {
    let mut generator = WorkloadGen::new(YcsbConfig::default(), 4242);
    let payloads: Vec<Vec<u8>> = (0..40)
        .map(|_| encode_txns(&generator.next_batch(5)))
        .collect();

    // Reference: uninterrupted execution.
    let mut reference = KvStore::new();
    for payload in &payloads {
        let txns = spotless::workload::decode_txns(payload).unwrap();
        reference.execute_batch(&txns);
    }

    // Crashy run: reopen every 7 appends, restoring KV state exactly the
    // way `spotless-runtime` does at spawn.
    let dir = tempfile::tempdir().unwrap();
    let opts = DurableLedgerOptions {
        log: LogOptions {
            max_segment_bytes: 1024,
            sync: SyncPolicy::Always,
        },
        snapshot_every: 5,
    };
    let mut kv = KvStore::new();
    let mut kv_height = 0u64;
    let mut session: Option<DurableLedger> = None;
    for (i, payload) in payloads.iter().enumerate() {
        if session.is_none() {
            let (led, report) = DurableLedger::open(dir.path(), opts).unwrap();
            kv = if report.app_meta.is_empty() {
                KvStore::new()
            } else {
                let chunks: Vec<spotless::workload::StateChunk> = report
                    .app_chunks
                    .iter()
                    .map(|c| spotless::workload::StateChunk::decode(c).expect("valid chunk"))
                    .collect();
                KvStore::from_transfer(&report.app_meta, &chunks).expect("valid KV snapshot")
            };
            kv_height = report.snapshot_height;
            // Re-execute the payloads the log holds above the snapshot
            // (the runtime fetches these from peers or its own cache).
            for h in kv_height..led.ledger().height() {
                let block = led.ledger().block(h).unwrap();
                assert_eq!(block.batch_id, BatchId(h));
                let txns = spotless::workload::decode_txns(&payloads[h as usize]).unwrap();
                kv.execute_batch(&txns);
            }
            // (kv_height re-converges with the chain height at the
            // append below.)
            session = Some(led);
        }
        let led = session.as_mut().unwrap();
        let txns = spotless::workload::decode_txns(payload).unwrap();
        kv.execute_batch(&txns);
        led.append_batch(
            BatchId(i as u64),
            spotless::crypto::digest_bytes(payload),
            txns.len() as u32,
            kv.state_root(),
            CommitProof {
                instance: InstanceId(0),
                view: View(i as u64),
                phase: spotless::types::CertPhase::Strong,
                voted: spotless::crypto::digest_bytes(payload),
                slot: 0,
                signers: vec![
                    spotless::types::ReplicaId(0),
                    spotless::types::ReplicaId(1),
                    spotless::types::ReplicaId(2),
                ],
                sigs: vec![spotless::types::Signature::ZERO; 3],
            },
            payload,
        )
        .unwrap();
        kv_height = led.ledger().height();
        if led.snapshot_due() {
            let chunks: Vec<Vec<u8>> = kv.to_chunks(1 << 20).iter().map(|c| c.encode()).collect();
            led.force_snapshot(&kv.transfer_meta(), &chunks).unwrap();
        }
        if (i + 1) % 7 == 0 {
            session = None; // crash: no shutdown protocol
        }
    }

    assert_eq!(kv_height, payloads.len() as u64);
    assert_eq!(
        kv.state_digest(),
        reference.state_digest(),
        "recovered execution state must match uninterrupted execution"
    );
    assert_eq!(kv.writes_applied(), reference.writes_applied());

    // And the chain itself survived all crashes.
    let (led, _) = DurableLedger::open(dir.path(), opts).unwrap();
    led.ledger().verify().unwrap();
    assert_eq!(led.ledger().height(), payloads.len() as u64);
}
