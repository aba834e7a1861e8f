//! **Wire-codec micro-bench** — the binary codec's encoded size and
//! encode+decode time across representative `WireMsg` shapes.
//!
//! Shapes measured:
//!
//! * `propose_100txn` — a SpotLess proposal carrying a 100 × 48 B YCSB
//!   batch: the payload-heavy message consensus throughput rides on.
//! * `sync_cp3` — a `Sync` with a 3-entry CP set: the small
//!   control-plane message sent O(n) per view.
//! * `pbft_preprepare` — the PBFT baseline's batch-carrying message.
//! * `catchup_block` — one ledger block + payload as state transfer
//!   replays them.
//!
//! The run **asserts** that every shape round-trips through the binary
//! codec. The exact byte layout itself is pinned separately by the
//! golden-vector tests (`tests/wire_format.rs`).
//!
//! Quick scale finishes in a couple of seconds (CI runs it in the
//! bench-smoke job); `SPOTLESS_FULL=1` multiplies the iteration count.

use spotless_baselines::PbftMessage;
use spotless_bench::FigureTable;
use spotless_core::messages::{Justification, Message, Proposal, ProposalRef, SyncMsg};
use spotless_ledger::{CommitProof, Ledger};
use spotless_types::{
    BatchId, CertPhase, ClientBatch, ClientId, Digest, InstanceId, ReplicaId, Signature, SimTime,
    View,
};
use spotless_workload::{encode_txns, Operation, Transaction};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

fn iters() -> u32 {
    if std::env::var("SPOTLESS_FULL").is_ok_and(|v| v == "1") {
        20_000
    } else {
        2_000
    }
}

fn ycsb_batch(id: u64, txns: u32) -> ClientBatch {
    let list: Vec<Transaction> = (0..u64::from(txns))
        .map(|i| Transaction {
            id: id * 1000 + i,
            op: Operation::Update {
                key: (id * 31 + i) % 4096,
                value: vec![0xCD; 48],
            },
        })
        .collect();
    let payload = encode_txns(&list);
    let digest = spotless_crypto::digest_bytes(&payload);
    ClientBatch {
        id: BatchId(id),
        origin: ClientId(0),
        digest,
        txns,
        txn_size: 48,
        created_at: SimTime::ZERO,
        payload,
    }
}

fn propose() -> Message {
    Message::Propose(Arc::new(Proposal::new(
        InstanceId(2),
        View(7),
        ycsb_batch(42, 100),
        Justification::certificate(ProposalRef {
            view: View(6),
            digest: Digest::from_u64(41),
        }),
    )))
}

fn sync() -> Message {
    let entry = |v: u64| ProposalRef {
        view: View(v),
        digest: Digest::from_u64(v * 13),
    };
    Message::Sync(SyncMsg {
        instance: InstanceId(1),
        view: View(9),
        claim: Some(entry(9)),
        cp: vec![entry(7), entry(8), entry(9)],
        upsilon: false,
        claim_sig: Signature([0x5A; 64]),
        cp_sigs: vec![Signature([0x5B; 64]); 3],
    })
}

fn preprepare() -> PbftMessage {
    PbftMessage::PrePrepare {
        view: View(3),
        seq: 17,
        batch: ycsb_batch(17, 100),
    }
}

fn catchup_block() -> (spotless_ledger::Block, Vec<u8>) {
    let batch = ycsb_batch(5, 100);
    let mut ledger = Ledger::new();
    ledger.append(
        batch.id,
        batch.digest,
        batch.txns,
        Digest::from_u64(99),
        CommitProof {
            instance: InstanceId(0),
            view: View(5),
            phase: CertPhase::Strong,
            voted: Digest::from_u64(5),
            slot: 0,
            signers: vec![ReplicaId(0), ReplicaId(1), ReplicaId(2)],
            sigs: vec![Signature::ZERO; 3],
        },
    );
    (ledger.block(0).unwrap().clone(), batch.payload)
}

/// One measured shape: encode+decode a fixed message `iters` times;
/// returns (encoded bytes, ns per round trip).
fn measure<T, E>(value: &T, check: E) -> (usize, f64)
where
    T: serde::Serialize + serde::Deserialize,
    E: Fn(&T, &T) -> bool,
{
    let n = iters();
    let len = serde::bin::to_vec(value).len();

    let start = Instant::now();
    for _ in 0..n {
        let bytes = serde::bin::to_vec(black_box(value));
        let back: T = serde::bin::from_slice(black_box(&bytes)).expect("decodes");
        black_box(&back);
    }
    let ns = start.elapsed().as_nanos() as f64 / f64::from(n);

    // Correctness gate: the codec must reproduce the value.
    let back: T = serde::bin::from_slice(&serde::bin::to_vec(value)).unwrap();
    assert!(check(value, &back), "binary round-trip diverged");

    (len, ns)
}

fn main() {
    let mut table = FigureTable::new("wire_codec", &["shape", "bin_bytes", "bin_ns"]);

    let sync_eq = |a: &Message, b: &Message| match (a, b) {
        (Message::Sync(x), Message::Sync(y)) => x == y,
        (Message::Propose(x), Message::Propose(y)) => x == y,
        _ => false,
    };
    let pbft_eq = |a: &PbftMessage, b: &PbftMessage| match (a, b) {
        (
            PbftMessage::PrePrepare {
                view: va,
                seq: sa,
                batch: ba,
            },
            PbftMessage::PrePrepare {
                view: vb,
                seq: sb,
                batch: bb,
            },
        ) => va == vb && sa == sb && ba == bb,
        _ => false,
    };
    let shapes = [
        ("propose_100txn", measure(&propose(), sync_eq)),
        ("sync_cp3", measure(&sync(), sync_eq)),
        ("pbft_preprepare", measure(&preprepare(), pbft_eq)),
        ("catchup_block", measure(&catchup_block(), |a, b| a == b)),
    ];

    for (name, (len, ns)) in shapes {
        table.row(&[name.into(), format!("{len}"), format!("{ns:10.0}")]);
    }

    // The envelope glue adds two bytes (version + tag) and nothing
    // else; prove it stays decodable end-to-end.
    let env_payload = spotless_runtime::envelope::encode_protocol(&propose());
    assert_eq!(env_payload.len(), serde::bin::to_vec(&propose()).len() + 2);
    match spotless_runtime::envelope::decode::<Message>(&env_payload) {
        Some(spotless_runtime::WireMsg::Protocol(msgs)) => {
            assert!(matches!(msgs[..], [Message::Propose(_)]));
        }
        _ => panic!("an encoded proposal must decode"),
    }
}
