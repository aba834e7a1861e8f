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
use spotless_workload::{encode_txns, Operation, Transaction, WorkloadGen, YcsbConfig};
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

/// Transactions per batch for the executor sweep — heavier than
/// [`TXNS_PER_BATCH`] so KV execution and per-shard sub-root hashing
/// are a meaningful share of the commit path (that is the work the
/// parallel executor spreads across its pool).
const EXEC_TXNS_PER_BATCH: u32 = 128;

/// A batch drawn from the YCSB generator: `shard_affinity` is the
/// contention dial — 0.0 spreads batches across the eight execution
/// shards (commit groups fan out across the worker pool), 1.0 pins
/// every operation to one hot shard so all batches conflict and the
/// scheduler degenerates to commit order.
fn ycsb_batch(generator: &mut WorkloadGen, id: u64) -> ClientBatch {
    let txns = generator.next_batch(EXEC_TXNS_PER_BATCH as usize);
    let payload = encode_txns(&txns);
    let digest = spotless_crypto::digest_bytes(&payload);
    ClientBatch {
        id: BatchId(id),
        origin: ClientId(0),
        digest,
        txns: EXEC_TXNS_PER_BATCH,
        txn_size: 256,
        created_at: SimTime::ZERO,
        payload,
    }
}

/// One executor-sweep configuration: committed-txn/s and wire traffic
/// for the given contention level and executor pool size (0 = inline
/// serial execution on the pipeline thread). Best of two trials —
/// single runs on a loaded CI host are noisy enough to flip the
/// floors below, and the floors compare capability, not variance.
async fn exec_run(count: u64, shard_affinity: f64, exec_pool: usize) -> (f64, [String; 2]) {
    let mut best = (0.0f64, Default::default());
    for trial in 0..2 {
        let cluster = ClusterConfig::new(4);
        let c = cluster.clone();
        let handle = InProcCluster::spawn_tuned(
            cluster,
            vec![None; 4],
            vec![false; 4],
            |cfg| cfg.exec_pool = exec_pool,
            move |r| SpotLessReplica::new(ReplicaConfig::honest(c.clone(), r)),
        )
        .expect("in-memory cluster (executor sweep)");
        let mut generator = WorkloadGen::new(
            YcsbConfig {
                value_size: 256,
                shard_affinity,
                ..YcsbConfig::default()
            },
            42 + trial,
        );
        let batches = (0..count)
            .map(|id| ycsb_batch(&mut generator, id))
            .collect();
        let secs = drive(&handle, batches).await;
        let wire = wire(&handle, count);
        handle.shutdown().await;
        let tps = (count * u64::from(EXEC_TXNS_PER_BATCH)) as f64 / secs;
        if tps > best.0 {
            best = (tps, wire);
        }
    }
    best
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
    // Reported with the executor floors below: each is a
    // bounded-overhead check, and how close pooled runs to serial
    // depends on whether a second core exists.
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());

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

    // Executor sweep: the conflict-aware parallel executor against the
    // inline serial baseline, at both ends of the YCSB contention dial.
    // Low affinity spreads batch footprints over the eight execution
    // shards so commit groups fan out across the pool; full affinity
    // makes every batch pair conflict, so the scheduler serializes and
    // the comparison measures pure scheduling overhead.
    let exec_count = count / 2;
    let mut exec_row = |table: &mut FigureTable, label: &str, tps: f64, wire: [String; 2]| {
        let [sent, per_batch] = wire;
        table.row(&[
            label.into(),
            format!("{exec_count}"),
            format!("{:8.1} ktxn/s", tps / 1_000.0),
            sent,
            per_batch,
        ]);
    };
    let (par_low, w) = exec_run(exec_count, 0.0, 2).await;
    exec_row(&mut table, "SpotLess exec=2 (spread)", par_low, w);
    let (ser_low, w) = exec_run(exec_count, 0.0, 0).await;
    exec_row(&mut table, "SpotLess exec=serial (spread)", ser_low, w);
    let (par_hot, w) = exec_run(exec_count, 1.0, 2).await;
    exec_row(&mut table, "SpotLess exec=2 (hot shard)", par_hot, w);
    let (ser_hot, w) = exec_run(exec_count, 1.0, 0).await;
    exec_row(&mut table, "SpotLess exec=serial (hot shard)", ser_hot, w);

    // CI floors for the executor: bounded overhead at every core count.
    // Scheduling, footprint analysis and shard hand-off must cost less
    // than 20 % against inline execution, at low contention and at
    // full. The floor used to demand a strict win on ≥ 2 cores; since
    // sealing became proportional to what a batch wrote, most of the
    // work the pool overlapped is gone and serial wins on 2 cores.
    // Both rows stay in the table; whether the pool keeps its place is
    // a paired-run decision (ROADMAP item 6), not this floor's.
    assert!(
        par_low > ser_low * 0.80,
        "at low contention on {cores} cores the executor must stay within 20 % of \
         serial: parallel {par_low:.0} tx/s vs serial {ser_low:.0} tx/s"
    );
    assert!(
        par_hot > ser_hot * 0.80,
        "under full contention the executor degenerates to commit order and \
         must stay within 20 % of serial: parallel {par_hot:.0} tx/s vs \
         serial {ser_hot:.0} tx/s"
    );

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
