//! The process's thread count under load stays within the budget
//! `ReplicaRuntime::spawn` documents. Alone in this file, hence alone
//! in its process: every thread counted belongs to this one cluster.
//! Reads `/proc/self/status`, so Linux only.
#![cfg(target_os = "linux")]

use spotless::transport::InProcCluster;
use spotless::types::{BatchId, ClientBatch, ClientId, ClusterConfig, ReplicaId, SimTime};
use spotless::workload::{encode_txns, Operation, Transaction};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Threads per replica (see the *Thread budget* section of
/// `ReplicaRuntime::spawn`).
const PER_REPLICA: usize = 4;
/// The harness's own: its main thread, this test's, the cluster
/// client's collector and the sampler — and room to spare.
const HARNESS: usize = 8;
const BATCHES: u64 = 300;
const WINDOW: u64 = 32;

fn batch(id: u64) -> ClientBatch {
    let txns = vec![Transaction {
        id,
        op: Operation::Update {
            key: id,
            value: id.to_le_bytes().to_vec(),
        },
    }];
    let payload = encode_txns(&txns);
    ClientBatch {
        id: BatchId(id),
        origin: ClientId(9),
        digest: spotless::crypto::digest_bytes(&payload),
        txns: 1,
        txn_size: 32,
        created_at: SimTime::ZERO,
        payload,
    }
}

fn threads_now() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("a Threads: line");
    line.trim().parse().expect("a thread count")
}

#[tokio::test]
async fn a_committing_cluster_stays_within_its_thread_budget() {
    let peak = Arc::new(AtomicUsize::new(0));
    let done = Arc::new(AtomicBool::new(false));
    let sampler = {
        let (peak, done) = (peak.clone(), done.clone());
        std::thread::spawn(move || {
            while !done.load(Ordering::Relaxed) {
                peak.fetch_max(threads_now(), Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(10));
            }
        })
    };

    let cluster = InProcCluster::spawn(ClusterConfig::new(4), None);
    // Keep a window of batches in flight at every replica without a
    // client task (a thread) per batch: fire them at the handles and
    // watch the shared commit log fill.
    let began = Instant::now();
    let mut submitted = 0;
    while submitted < BATCHES {
        for id in submitted..(submitted + WINDOW).min(BATCHES) {
            cluster.handle(ReplicaId((id % 4) as u32)).submit(batch(id));
        }
        submitted = (submitted + WINDOW).min(BATCHES);
        while (cluster.commits.len() as u64) < 4 * submitted {
            assert!(
                began.elapsed() < Duration::from_secs(120),
                "stalled at {} of {} commits",
                cluster.commits.len(),
                4 * submitted
            );
            tokio::time::sleep(Duration::from_millis(5)).await;
        }
    }
    done.store(true, Ordering::Relaxed);
    sampler.join().expect("sampler");
    cluster.shutdown().await;

    let peak = peak.load(Ordering::Relaxed);
    let budget = 4 * PER_REPLICA + HARNESS;
    assert!(
        peak <= budget,
        "{peak} threads at the peak; the budget is {budget}"
    );
    assert!(peak >= 4 * PER_REPLICA, "the sampler saw the cluster");
}
