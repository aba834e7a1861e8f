//! **Deployment-path throughput** — not a paper figure: this bench
//! drives the *real* replica runtime (`ReplicaRuntime` over the
//! in-process fabric) instead of the discrete-event simulator, so the
//! hot path it measures is the one a deployment runs: signed envelopes
//! serialized once and `Arc`-shared across the broadcast fan-out, the
//! bounded commit queue, group-commit fsync batching in the durable
//! configuration, KV execution, and client informs. Its job is to
//! catch pipeline regressions (a lost `Arc` share, a broken commit
//! group, a certificate-verification slowdown) that the simulator
//! benches cannot see.
//!
//! Quick scale finishes in seconds (CI runs it in the bench-smoke
//! job); `SPOTLESS_FULL=1` drives an order of magnitude more batches.

use spotless_baselines::PbftReplica;
use spotless_bench::FigureTable;
use spotless_core::{ReplicaConfig, SpotLessReplica};
use spotless_runtime::StorageConfig;
use spotless_transport::InProcCluster;
use spotless_types::{BatchId, ClientBatch, ClientId, ClusterConfig, ReplicaId, SimTime};
use spotless_workload::{encode_txns, Operation, Transaction};
use std::time::Instant;

/// Transactions per batch (the ResilientDB default is 100; 32 keeps
/// quick mode quick — chosen in the JSON-wire era and kept so the
/// before/after throughput and `wire_sent` columns stay comparable).
const TXNS_PER_BATCH: u32 = 32;

fn batches() -> u64 {
    if std::env::var("SPOTLESS_FULL").is_ok_and(|v| v == "1") {
        2000
    } else {
        200
    }
}

fn real_batch(id: u64) -> ClientBatch {
    let txns: Vec<Transaction> = (0..u64::from(TXNS_PER_BATCH))
        .map(|i| Transaction {
            id: id * 1000 + i,
            op: Operation::Update {
                key: (id * 31 + i) % 4096,
                value: vec![0xCD; 48],
            },
        })
        .collect();
    let payload = encode_txns(&txns);
    let digest = spotless_crypto::digest_bytes(&payload);
    ClientBatch {
        id: BatchId(id),
        origin: ClientId(0),
        digest,
        txns: TXNS_PER_BATCH,
        txn_size: 48,
        created_at: SimTime::ZERO,
        payload,
    }
}

/// Runs the prepared batches through a deployed cluster and returns
/// the elapsed seconds from first submission to the last batch
/// committed (and durably acknowledged) at replica 0.
async fn drive(handle: &InProcCluster, batches: Vec<ClientBatch>) -> f64 {
    let count = batches.len() as u64;
    let start = Instant::now();
    // Fire-and-forget through the replica handles: the mempool and the
    // bounded commit queue provide the pipelining; awaiting each batch
    // serially would measure round trips, not throughput.
    for (id, batch) in batches.into_iter().enumerate() {
        handle.handle(ReplicaId((id % 4) as u32)).submit(batch);
    }
    let deadline = Instant::now() + std::time::Duration::from_secs(120);
    loop {
        let done = handle
            .commits
            .snapshot()
            .iter()
            .filter(|e| e.replica == ReplicaId(0))
            .count() as u64;
        if done >= count {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "deployment bench stalled at {done}/{count} commits"
        );
        tokio::time::sleep(std::time::Duration::from_millis(5)).await;
    }
    start.elapsed().as_secs_f64()
}

fn storage_for(dirs: &[tempfile::TempDir]) -> Vec<Option<StorageConfig>> {
    dirs.iter()
        .map(|d| Some(StorageConfig::new(d.path())))
        .collect()
}

/// Cluster-wide wire traffic, per the runtime's `NetStats` counters:
/// encoded envelope payload bytes sent — the column that shows the
/// binary codec's ~2× shrink against the JSON-era numbers instead of
/// asserting it — and envelopes sent per committed batch, which shows
/// how many protocol messages the egress lanes bundle under one
/// signature.
fn wire(handle: &InProcCluster, batches: u64) -> [String; 2] {
    let nets: Vec<_> = (0..4)
        .map(|r| handle.handle(ReplicaId(r)).net().clone())
        .collect();
    let bytes: u64 = nets.iter().map(|net| net.bytes_sent()).sum();
    let envelopes: u64 = nets.iter().map(|net| net.msgs_sent()).sum();
    [
        format!("{:7.2} MiB", bytes as f64 / (1024.0 * 1024.0)),
        format!("{:6.1}", envelopes as f64 / batches.max(1) as f64),
    ]
}

#[tokio::main]
async fn main() {
    let mut table = FigureTable::new(
        "deploy_runtime",
        &[
            "configuration",
            "batches",
            "throughput",
            "wire_sent",
            "envelopes_per_batch",
        ],
    );
    let count = batches();
    let total_txns = (count * u64::from(TXNS_PER_BATCH)) as f64;
    // SpotLess, in-memory chain: the pure pipeline hot path.
    {
        let cluster = ClusterConfig::new(4);
        let c = cluster.clone();
        let handle = InProcCluster::spawn_with(cluster, vec![None; 4], vec![false; 4], move |r| {
            SpotLessReplica::new(ReplicaConfig::honest(c.clone(), r))
        })
        .expect("in-memory cluster");
        let secs = drive(&handle, (0..count).map(real_batch).collect()).await;
        let [sent, per_batch] = wire(&handle, count);
        table.row(&[
            "SpotLess inproc (mem)".into(),
            format!("{count}"),
            format!("{:8.1} ktxn/s", total_txns / secs / 1_000.0),
            sent,
            per_batch,
        ]);
        handle.shutdown().await;
    }

    // SpotLess, durable: group commit + certificate-verified appends.
    {
        let cluster = ClusterConfig::new(4);
        let dirs: Vec<tempfile::TempDir> = (0..4).map(|_| tempfile::tempdir().unwrap()).collect();
        let c = cluster.clone();
        let handle =
            InProcCluster::spawn_with(cluster, storage_for(&dirs), vec![false; 4], move |r| {
                SpotLessReplica::new(ReplicaConfig::honest(c.clone(), r))
            })
            .expect("durable cluster");
        let secs = drive(&handle, (0..count).map(real_batch).collect()).await;
        let [sent, per_batch] = wire(&handle, count);
        table.row(&[
            "SpotLess inproc (durable)".into(),
            format!("{count}"),
            format!("{:8.1} ktxn/s", total_txns / secs / 1_000.0),
            sent,
            per_batch,
        ]);
        handle.shutdown().await;
    }

    // PBFT baseline through the same runtime, for cross-protocol
    // pipeline coverage.
    {
        let cluster = ClusterConfig::with_instances(4, 1);
        let c = cluster.clone();
        let handle = InProcCluster::spawn_with(cluster, vec![None; 4], vec![false; 4], move |r| {
            PbftReplica::new(c.clone(), r)
        })
        .expect("pbft cluster");
        let secs = drive(&handle, (0..count).map(real_batch).collect()).await;
        let [sent, per_batch] = wire(&handle, count);
        table.row(&[
            "PBFT inproc (mem)".into(),
            format!("{count}"),
            format!("{:8.1} ktxn/s", total_txns / secs / 1_000.0),
            sent,
            per_batch,
        ]);
        handle.shutdown().await;
    }
}
