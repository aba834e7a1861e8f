//! The replay step of a traced run: the envelopes, messages, committed
//! batches and certificates the traced pass **recorded** are fed again
//! through the public functions of the layers the wrappers cannot see
//! into, one timed call at a time. Unit costs from here, multiplied by
//! the counts from the live trace, give the CPU attribution.

use crate::cluster::{cluster_config, KEY_SALT, N};
use crate::trace::SAMPLE;
use crate::workloads::{FabricKind, Workload};
use spotless_core::{Message, ReplicaConfig, SpotLessReplica};
use spotless_crypto::{digest_bytes, KeyStore};
use spotless_ledger::{verify_proof, CommitProof, Ledger, ProofRules};
use spotless_runtime::envelope::{decode_protocol_body, decode_ref, encode_protocol_into};
use spotless_runtime::{execute_group, CommittedEntry, Envelope, ExecutorPool, WireMsgRef};
use spotless_simnet::{ClosedLoopDriver, SimConfig, Simulation};
use spotless_storage::log::SyncPolicy;
use spotless_storage::{DurableLedger, DurableLedgerOptions};
use spotless_transport::tcp::{decode_frame, encode_frame};
use spotless_transport::FrameRef;
use spotless_workload::{
    batch_bucket_footprint, bucket_of, decode_txns, BucketFootprint, KvStore, Operation,
    Transaction,
};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Batches per replayed commit group: one view's cut across the four
/// instances (live group boundaries are not visible from outside).
const REPLAY_GROUP: usize = 4;
/// Appends per fsync in the storage replay (`RuntimeConfig::group_commit`).
const GROUP_COMMIT: usize = 64;

/// Unit costs and ratios measured by replay.
#[derive(Debug, Default)]
pub struct Replay {
    pub envelope_sign_us: f64,
    pub envelope_verify_us: f64,
    pub sign_batch32_us_per_sig: f64,
    pub verify_batch32_us_per_sig: f64,
    pub digest_mib_per_s: f64,
    pub encode_ns_per_kib: f64,
    pub decode_ns_per_kib: f64,
    /// Mean encode + decode cost of one sampled message, µs (attribution).
    pub codec_us_per_msg: f64,
    pub execute_us_per_txn: f64,
    pub components_per_group: f64,
    pub kv_execute_us_per_txn: f64,
    pub state_root_us_per_batch: f64,
    pub bucket_bytes_rehashed_per_write: f64,
    pub verify_proof_us: f64,
    pub ledger_append_us: f64,
    pub storage_append_us_per_block: f64,
    pub storage_sync_ms: f64,
    pub frame_encode_ns_per_kib: f64,
    pub frame_decode_ns_per_kib: f64,
    /// Mean frame encode + decode cost of one sampled envelope, µs.
    pub frame_us_per_msg: f64,
    pub simnet_msgs_per_commit: f64,
    pub simnet_views_per_commit: f64,
    pub simnet_events_per_s: f64,
    /// Replayed execution reproduced every recorded state digest.
    pub state_matches: bool,
}

fn us(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64 / 1e3
}

fn kib(bytes: usize) -> f64 {
    (bytes as f64 / 1024.0).max(f64::MIN_POSITIVE)
}

/// Runs every replay measurement.
pub fn run(
    spec: &Workload,
    seed: u64,
    envelopes: &[Envelope],
    messages: &[Message],
    commits: &[CommittedEntry],
    scratch: &Path,
) -> Replay {
    let mut out = Replay::default();
    let keys = KeyStore::cluster(KEY_SALT, N);
    crypto(&mut out, &keys, envelopes);
    codec(&mut out, messages);
    if spec.fabric == FabricKind::Tcp {
        tcp_frames(&mut out, envelopes);
    }
    let recorded = split(commits, spec.setup_batches());
    if !recorded.timed.is_empty() {
        execution(&mut out, &recorded);
        ledger(&mut out, &keys[0], &recorded);
        if spec.durable {
            storage(&mut out, &recorded, scratch);
        }
    }
    simulator(&mut out, spec, seed);
    out
}

fn crypto(out: &mut Replay, keys: &[KeyStore], envelopes: &[Envelope]) {
    if envelopes.is_empty() {
        return;
    }
    let start = Instant::now();
    for env in envelopes {
        let signer = &keys[env.from.as_usize()];
        black_box(Envelope::seal_payload(signer, env.payload.clone()));
    }
    out.envelope_sign_us = us(start) / envelopes.len() as f64;
    let start = Instant::now();
    for env in envelopes {
        black_box(env.verify(&keys[0])).expect("recorded envelopes carry valid signatures");
    }
    out.envelope_verify_us = us(start) / envelopes.len() as f64;

    // Batches of 32, the size the sealer and verify lanes drain at most.
    let (mut signed, mut verified) = (0usize, 0usize);
    let (mut sign_us, mut verify_us) = (0.0, 0.0);
    for chunk in envelopes.chunks(32) {
        let from = chunk[0].from;
        let own: Vec<&[u8]> = chunk
            .iter()
            .filter(|e| e.from == from)
            .map(|e| e.payload.as_slice())
            .collect();
        let start = Instant::now();
        black_box(keys[from.as_usize()].sign_batch(&own));
        sign_us += us(start);
        signed += own.len();
        let items: Vec<_> = chunk
            .iter()
            .map(|e| (e.from, e.payload.as_slice(), &e.sig))
            .collect();
        let start = Instant::now();
        black_box(keys[0].verify_batch_refs(&items)).expect("recorded signatures verify");
        verify_us += us(start);
        verified += items.len();
    }
    out.sign_batch32_us_per_sig = sign_us / signed.max(1) as f64;
    out.verify_batch32_us_per_sig = verify_us / verified.max(1) as f64;

    // Hash the recorded payloads until at least 4 MiB went through.
    let (mut hashed, start) = (0usize, Instant::now());
    while hashed < 4 << 20 {
        for env in envelopes {
            black_box(digest_bytes(&env.payload));
            hashed += env.payload.len();
        }
    }
    out.digest_mib_per_s = hashed as f64 / (1 << 20) as f64 / start.elapsed().as_secs_f64();
}

fn codec(out: &mut Replay, messages: &[Message]) {
    if messages.is_empty() {
        return;
    }
    // Timed pass into one reused buffer (the egress path's pooled
    // buffers), then an untimed pass that keeps the bytes for decoding.
    let mut buf = Vec::new();
    let start = Instant::now();
    for msg in messages {
        buf = encode_protocol_into(black_box(msg), buf);
    }
    let encode_us = us(start);
    let encoded: Vec<Vec<u8>> = messages
        .iter()
        .map(|msg| encode_protocol_into(msg, Vec::new()))
        .collect();
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    let start = Instant::now();
    for payload in &encoded {
        let Some(WireMsgRef::Protocol(body)) = decode_ref(black_box(payload)) else {
            panic!("an encoded protocol message decodes as one");
        };
        black_box(decode_protocol_body::<Message>(body)).expect("body decodes");
    }
    let decode_us = us(start);
    out.encode_ns_per_kib = encode_us * 1e3 / kib(bytes);
    out.decode_ns_per_kib = decode_us * 1e3 / kib(bytes);
    out.codec_us_per_msg = (encode_us + decode_us) / messages.len() as f64;
}

fn tcp_frames(out: &mut Replay, envelopes: &[Envelope]) {
    if envelopes.is_empty() {
        return;
    }
    let frame_of = |env: &Envelope, buf: &mut Vec<u8>| {
        let frame = FrameRef {
            from: env.from.0,
            payload: &env.payload,
            sig: &env.sig.0,
        };
        encode_frame(black_box(&frame), buf).expect("recorded envelopes fit a frame");
    };
    // Timed pass into one reused buffer (a connection's write buffer),
    // then an untimed pass that keeps the frames for decoding.
    let mut buf = Vec::new();
    let start = Instant::now();
    for env in envelopes {
        frame_of(env, &mut buf);
    }
    let encode_us = us(start);
    let frames: Vec<Vec<u8>> = envelopes
        .iter()
        .map(|env| {
            let mut frame = Vec::new();
            frame_of(env, &mut frame);
            frame
        })
        .collect();
    let bytes: usize = frames.iter().map(Vec::len).sum();
    let start = Instant::now();
    for frame in &frames {
        black_box(decode_frame(black_box(&frame[4..]))).expect("frame decodes");
    }
    let decode_us = us(start);
    out.frame_encode_ns_per_kib = encode_us * 1e3 / kib(bytes);
    out.frame_decode_ns_per_kib = decode_us * 1e3 / kib(bytes);
    out.frame_us_per_msg = (encode_us + decode_us) / envelopes.len() as f64;
}

/// The recorded commits, decoded and split at the first batch of the
/// workload's own shape submitted after set-up.
struct Recorded<'a> {
    /// Everything before the split: replayed untimed to rebuild state.
    prefix: Vec<Vec<Transaction>>,
    /// Up to [`SAMPLE`] batches from the split on: timed.
    timed: Vec<(&'a CommittedEntry, Vec<Transaction>)>,
}

fn split(commits: &[CommittedEntry], setup_batches: u64) -> Recorded<'_> {
    let first = commits
        .iter()
        .position(|e| e.info.batch.id.0 > setup_batches)
        .unwrap_or(commits.len());
    let decode = |e: &CommittedEntry| decode_txns(&e.info.batch.payload).expect("executed payload");
    Recorded {
        prefix: commits[..first].iter().map(decode).collect(),
        timed: commits[first..]
            .iter()
            .take(SAMPLE)
            .map(|e| (e, decode(e)))
            .collect(),
    }
}

fn store_after(prefix: &[Vec<Transaction>]) -> KvStore {
    let mut kv = KvStore::new();
    for txns in prefix {
        kv.execute_batch(txns);
    }
    kv
}

/// Conflict components of a group, by the executor's own relation:
/// batches sharing a bucket are one component.
fn components(group: &[BucketFootprint]) -> usize {
    let mut merged: Vec<BucketFootprint> = Vec::new();
    for fp in group {
        let mut acc = *fp;
        merged.retain(|m| {
            let hit = m.intersects(&acc);
            if hit {
                acc.union_with(m);
            }
            !hit
        });
        merged.push(acc);
    }
    merged.len()
}

fn execution(out: &mut Replay, recorded: &Recorded<'_>) {
    let Recorded { prefix, timed } = recorded;
    let txn_count: usize = timed.iter().map(|(_, t)| t.len()).sum();

    // The executor path, as the pipeline calls it (default pool of 2).
    let mut kv = store_after(prefix);
    let mut pool = ExecutorPool::spawn(2);
    out.state_matches = true;
    let (mut groups, mut comps, mut exec_us) = (0usize, 0usize, 0.0);
    for group in timed.chunks(REPLAY_GROUP) {
        let footprints: Vec<BucketFootprint> = group
            .iter()
            .map(|(_, t)| batch_bucket_footprint(t))
            .collect();
        comps += components(&footprints);
        groups += 1;
        let batches = group.iter().map(|(_, t)| Some(t.clone())).collect();
        let start = Instant::now();
        let sealed = execute_group(Some(&mut pool), &mut kv, batches);
        exec_us += us(start);
        out.state_matches &= sealed
            .iter()
            .zip(group)
            .all(|(s, (e, _))| s.state_digest == e.state_digest);
    }
    out.execute_us_per_txn = exec_us / txn_count as f64;
    out.components_per_group = comps as f64 / groups as f64;

    // The workload layer alone: serial execute, then the root.
    let mut kv = store_after(prefix);
    let (mut kv_us, mut root_us) = (0.0, 0.0);
    let (mut rehashed, mut writes) = (0usize, 0usize);
    for (_, txns) in timed {
        let start = Instant::now();
        black_box(kv.execute_batch(txns));
        kv_us += us(start);
        let start = Instant::now();
        black_box(kv.state_root());
        root_us += us(start);
        let dirty: BTreeSet<usize> = txns
            .iter()
            .filter(|t| t.op.is_write())
            .map(|t| bucket_of(t.op.key()))
            .collect();
        rehashed += dirty
            .iter()
            .map(|b| kv.encode_bucket(*b).len())
            .sum::<usize>();
        writes += txns
            .iter()
            .filter(|t| matches!(t.op, Operation::Update { .. }))
            .count();
    }
    out.kv_execute_us_per_txn = kv_us / txn_count as f64;
    out.state_root_us_per_batch = root_us / timed.len() as f64;
    out.bucket_bytes_rehashed_per_write = rehashed as f64 / writes.max(1) as f64;
}

fn proof_of(e: &CommittedEntry) -> CommitProof {
    CommitProof {
        instance: e.info.instance,
        view: e.info.view,
        phase: e.info.cert.phase,
        voted: e.info.cert.voted,
        slot: e.info.cert.slot,
        signers: e.info.cert.signers.clone(),
        sigs: e.info.cert.sigs.clone(),
    }
}

fn ledger(out: &mut Replay, keys: &KeyStore, recorded: &Recorded<'_>) {
    let timed = &recorded.timed;
    let rules = ProofRules::for_cluster(&cluster_config());
    let mut chain = Ledger::new();
    let (mut verify_us, mut append_us) = (0.0, 0.0);
    for (e, _) in timed {
        let proof = proof_of(e);
        let start = Instant::now();
        black_box(verify_proof(&proof, &rules, keys)).expect("recorded certificates verify");
        verify_us += us(start);
        let b = &e.info.batch;
        let start = Instant::now();
        black_box(chain.append(b.id, b.digest, b.txns, e.state_digest, proof));
        append_us += us(start);
    }
    out.verify_proof_us = verify_us / timed.len() as f64;
    out.ledger_append_us = append_us / timed.len() as f64;
}

fn storage(out: &mut Replay, recorded: &Recorded<'_>, scratch: &Path) {
    let timed = &recorded.timed;
    let mut options = DurableLedgerOptions::default();
    options.log.sync = SyncPolicy::Manual; // the pipeline owns fsync cadence
    let Ok((mut store, _)) = DurableLedger::open(&scratch.join("replay-store"), options) else {
        return;
    };
    let (mut append_us, mut sync_us, mut syncs) = (0.0, 0.0, 0usize);
    for (i, (e, _)) in timed.iter().enumerate() {
        let b = &e.info.batch;
        let proof = proof_of(e);
        let start = Instant::now();
        let appended =
            store.append_batch(b.id, b.digest, b.txns, e.state_digest, proof, &b.payload);
        append_us += us(start);
        if appended.is_err() {
            return;
        }
        if (i + 1) % GROUP_COMMIT == 0 || i + 1 == timed.len() {
            let start = Instant::now();
            if store.sync().is_err() {
                return;
            }
            sync_us += us(start);
            syncs += 1;
        }
    }
    out.storage_append_us_per_block = append_us / timed.len().max(1) as f64;
    out.storage_sync_ms = sync_us / 1e3 / syncs.max(1) as f64;
}

/// One seeded n = 4 simulator run of the same cluster shape. Message
/// and view counts per commit repeat exactly for a seed, so later
/// count-based claims have a base that does not depend on the machine.
fn simulator(out: &mut Replay, spec: &Workload, seed: u64) {
    let cluster = cluster_config();
    let mut cfg = SimConfig::new(cluster.clone());
    cfg.seed = seed;
    cfg.record_commits = true;
    if spec.silent.is_some() {
        cfg = cfg.with_crashed(1);
    }
    let nodes: Vec<SpotLessReplica> = cluster
        .replicas()
        .map(|r| SpotLessReplica::new(ReplicaConfig::honest(cluster.clone(), r)))
        .collect();
    let mut sim = Simulation::new(cfg, nodes, ClosedLoopDriver::new(8));
    let start = Instant::now();
    let report = sim.run();
    let wall = start.elapsed().as_secs_f64();
    let log = sim.commit_log(0);
    let real = log.iter().filter(|c| !c.batch.is_noop()).count();
    let mut last_view = vec![0u64; cluster.m as usize];
    for c in log {
        let v = &mut last_view[c.instance.as_usize()];
        *v = (*v).max(c.view.0);
    }
    out.simnet_msgs_per_commit = report.msgs_per_decision;
    out.simnet_views_per_commit = last_view.iter().sum::<u64>() as f64 / real.max(1) as f64;
    out.simnet_events_per_s = report.events as f64 / wall;
}
