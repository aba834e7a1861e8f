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
use spotless_runtime::{NetStats, StorageConfig};
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

/// Ceiling on envelopes sent per committed batch, cluster-wide, on the
/// SpotLess in-memory row. The event loop bundles each run of messages
/// it emits for one fan-out until its event queue runs dry
/// (`egress::Outbox`); when the egress lane bundled instead, only the
/// messages already queued behind its head job shared an envelope. On a
/// 2-vCPU box this row read 10.2–12.8 envelopes per batch with lane
/// bundling (9 runs) and 6.9–8.7 with loop bundling (9 runs), so the
/// ceiling sits between the two: a return to lane-style bundling fails
/// the bench.
const SPOTLESS_MEM_ENVELOPES_PER_BATCH_MAX: f64 = 9.5;

/// Cluster-wide wire traffic, per the runtime's `NetStats` counters:
/// encoded envelope payload bytes sent — the column that shows the
/// binary codec's ~2× shrink against the JSON-era numbers instead of
/// asserting it — envelopes sent per committed batch, and protocol
/// messages per envelope, which shows how many messages the event loop
/// bundles under one signature.
struct Wire {
    mib: f64,
    envelopes_per_batch: f64,
    msgs_per_envelope: f64,
}

impl Wire {
    fn of(handle: &InProcCluster, batches: u64) -> Wire {
        let nets: Vec<_> = (0..4)
            .map(|r| handle.handle(ReplicaId(r)).net().clone())
            .collect();
        let sum =
            |count: fn(&NetStats) -> u64| -> f64 { nets.iter().map(count).sum::<u64>() as f64 };
        let envelopes = sum(|net| net.msgs_sent());
        Wire {
            mib: sum(|net| net.bytes_sent()) / (1024.0 * 1024.0),
            envelopes_per_batch: envelopes / batches.max(1) as f64,
            msgs_per_envelope: sum(|net| net.protocol_msgs_sent()) / envelopes.max(1.0),
        }
    }

    /// The table cells: bytes sent, envelopes per batch, messages per
    /// envelope.
    fn cells(&self) -> [String; 3] {
        [
            format!("{:7.2} MiB", self.mib),
            format!("{:6.1}", self.envelopes_per_batch),
            format!("{:5.2}", self.msgs_per_envelope),
        ]
    }
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
            "msgs_per_envelope",
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
        let wire = Wire::of(&handle, count);
        let [sent, per_batch, per_envelope] = wire.cells();
        table.row(&[
            "SpotLess inproc (mem)".into(),
            format!("{count}"),
            format!("{:8.1} ktxn/s", total_txns / secs / 1_000.0),
            sent,
            per_batch,
            per_envelope,
        ]);
        handle.shutdown().await;
        assert!(
            wire.envelopes_per_batch <= SPOTLESS_MEM_ENVELOPES_PER_BATCH_MAX,
            "{:.1} envelopes per committed batch, above the ceiling of {}",
            wire.envelopes_per_batch,
            SPOTLESS_MEM_ENVELOPES_PER_BATCH_MAX
        );
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
        let [sent, per_batch, per_envelope] = Wire::of(&handle, count).cells();
        table.row(&[
            "SpotLess inproc (durable)".into(),
            format!("{count}"),
            format!("{:8.1} ktxn/s", total_txns / secs / 1_000.0),
            sent,
            per_batch,
            per_envelope,
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
        let [sent, per_batch, per_envelope] = Wire::of(&handle, count).cells();
        table.row(&[
            "PBFT inproc (mem)".into(),
            format!("{count}"),
            format!("{:8.1} ktxn/s", total_txns / secs / 1_000.0),
            sent,
            per_batch,
            per_envelope,
        ]);
        handle.shutdown().await;
    }
}
