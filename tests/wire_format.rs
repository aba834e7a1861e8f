//! Wire-format pinning: golden byte vectors for every `WireMsg`
//! variant, plus proptest round trips through the binary codec and
//! equivalence of the owning envelope decoder's protocol-body loop with
//! the bundle reader ingress uses.
//!
//! The golden vectors are the contract: the binary layout documented in
//! README §"Wire format" cannot drift silently under a codec refactor —
//! any byte-level change fails here and must be shipped as a
//! `WIRE_VERSION` bump (old and new clusters then fail closed against
//! each other instead of misreading frames). Everything in the
//! fixtures is deterministic (tag-digests, no randomness, no clocks),
//! so the expected hex is stable across runs and machines.

use proptest::prelude::*;
use spotless::core::messages::{Justification, Message, Proposal, ProposalRef, SyncMsg};
use spotless::crypto::KeyStore;
use spotless::crypto::ProofStep;
use spotless::ledger::{Block, CommitProof, Ledger};
use spotless::runtime::envelope::{
    decode, decode_protocol_bundle, decode_ref, encode_catchup_manifest, encode_catchup_req,
    encode_catchup_resp, encode_chunk, encode_chunk_req, encode_protocol, MAX_BUNDLE,
    TAG_CATCHUP_CHUNK, TAG_CATCHUP_CHUNK_REQ, TAG_CATCHUP_MANIFEST, TAG_CATCHUP_REQ,
    TAG_CATCHUP_RESP, TAG_PROTOCOL, WIRE_VERSION,
};
use spotless::runtime::{
    CatchUpBlock, ChunkInfo, ChunkTransfer, Envelope, TransferManifest, WireMsg, WireMsgRef,
};
use spotless::storage::log::{BlockLog, LogOptions};
use spotless::storage::segment::{scan_segment, segment_file_name};
use spotless::types::{
    BatchId, CertPhase, ClientBatch, ClientId, Digest, InstanceId, ReplicaId, Signature, SimTime,
    View,
};
use std::sync::OnceLock;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

// ── deterministic fixtures ──────────────────────────────────────────

fn sample_block() -> Block {
    let mut ledger = Ledger::new();
    ledger.append(
        BatchId(7),
        Digest::from_u64(77),
        2,
        Digest::from_u64(500),
        CommitProof {
            instance: InstanceId(0),
            view: View(3),
            phase: CertPhase::Strong,
            voted: Digest::from_u64(77),
            slot: 0,
            signers: vec![ReplicaId(0), ReplicaId(1), ReplicaId(2)],
            sigs: vec![
                Signature([0xAA; 64]),
                Signature([0xBB; 64]),
                Signature([0xCC; 64]),
            ],
        },
    );
    ledger.block(0).unwrap().clone()
}

fn sample_sync() -> Message {
    Message::Sync(SyncMsg {
        instance: InstanceId(1),
        view: View(300),
        claim: Some(ProposalRef {
            view: View(299),
            digest: Digest::from_u64(9),
        }),
        cp: vec![ProposalRef {
            view: View(300),
            digest: Digest::from_u64(10),
        }],
        upsilon: true,
        claim_sig: Signature([0xDD; 64]),
        cp_sigs: vec![Signature([0xEE; 64])],
    })
}

fn sample_ask() -> Message {
    Message::Ask {
        instance: InstanceId(1),
        target: ProposalRef {
            view: View(299),
            digest: Digest::from_u64(9),
        },
    }
}

/// `msgs` as one protocol payload: the header, then each message's
/// encoding in turn.
fn bundle(msgs: &[Message]) -> Vec<u8> {
    let mut payload = vec![WIRE_VERSION, TAG_PROTOCOL];
    for msg in msgs {
        payload.extend_from_slice(&encode_protocol(msg)[2..]);
    }
    payload
}

/// The messages of a decoded protocol payload (none for any other
/// shape).
fn protocol(msg: &WireMsg<Vec<Message>>) -> &[Message] {
    match msg {
        WireMsg::Protocol(msgs) => msgs,
        _ => &[],
    }
}

fn sample_manifest() -> TransferManifest {
    TransferManifest {
        height: 1,
        peer_height: 4,
        head: sample_block(),
        recent_ids: vec![BatchId(6), BatchId(7)],
        app_meta: b"meta".to_vec(),
        meta_proof: vec![ProofStep {
            sibling: Digest::from_u64(11),
            sibling_on_right: true,
        }],
        chunks: vec![ChunkInfo {
            first_bucket: 0,
            buckets: 1024,
            part: 0,
            parts: 1,
            digest: Digest::from_u64(12),
        }],
    }
}

fn sample_chunk() -> ChunkTransfer {
    ChunkTransfer {
        height: 1,
        index: 0,
        chunk: b"chunk-bytes".to_vec(),
        proofs: vec![vec![ProofStep {
            sibling: Digest::from_u64(13),
            sibling_on_right: false,
        }]],
        top_proof: vec![ProofStep {
            sibling: Digest::from_u64(14),
            sibling_on_right: true,
        }],
    }
}

// ── golden vectors: the pinned binary layout ────────────────────────
//
// Layout recap (README §"Wire format"): `0xB7` version byte, tag byte,
// then the body in the streaming binary codec — canonical LEB128
// varints, raw byte slices, structs field-by-field in declaration
// order, enum variants by declaration index. A protocol body is one to
// `MAX_BUNDLE` messages back to back.

#[test]
fn golden_protocol_sync() {
    let enc = encode_protocol(&sample_sync());
    assert_eq!(enc[0], 0xB7, "wire version");
    assert_eq!(enc[1], TAG_PROTOCOL);
    assert_eq!(
        hex(&enc),
        "b7000101ac0201ab0200000000000000090000000000000000000000\
         0000000000000000000000000001ac02000000000000000a00000000\
         000000000000000000000000000000000000000001dddddddddddddd\
         dddddddddddddddddddddddddddddddddddddddddddddddddddddddd\
         dddddddddddddddddddddddddddddddddddddddddddddddddddddddd\
         dd01eeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee\
         eeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee\
         eeeeeeeeeeeeeeeeeeee"
    );
    // Readable anatomy: variant 1 (Sync) ‖ instance 1 ‖ view 300
    // (0xac02) ‖ Some(claim: view 299, digest tag 9) ‖ 1-entry CP
    // (view 300, digest tag 10) ‖ upsilon=true ‖ 64-byte claim
    // signature (0xDD…) ‖ 1-entry cp_sigs (0xEE…).
    match decode::<Message>(&enc).as_ref().map(protocol) {
        Some([Message::Sync(s)]) => {
            assert_eq!(s.view, View(300));
            assert_eq!(s.cp.len(), 1);
            assert!(s.upsilon);
        }
        _ => panic!("golden protocol payload failed to decode"),
    }
}

#[test]
fn golden_protocol_bundle() {
    let enc = bundle(&[sample_sync(), sample_ask()]);
    assert_eq!(enc[..2], [0xB7, TAG_PROTOCOL]);
    assert_eq!(
        hex(&enc),
        "b7000101ac0201ab0200000000000000090000000000000000000000\
         0000000000000000000000000001ac02000000000000000a00000000\
         000000000000000000000000000000000000000001dddddddddddddd\
         dddddddddddddddddddddddddddddddddddddddddddddddddddddddd\
         dddddddddddddddddddddddddddddddddddddddddddddddddddddddd\
         dd01eeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee\
         eeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee\
         eeeeeeeeeeeeeeeeeeee0201ab020000000000000009000000000000\
         000000000000000000000000000000000000"
    );
    // Anatomy: the golden Sync payload above, unchanged ‖ variant 2
    // (Ask) ‖ instance 1 ‖ target view 299 (0xab02), digest tag 9. No
    // count and no lengths: the codec is self-delimiting.
    match decode::<Message>(&enc).as_ref().map(protocol) {
        Some([Message::Sync(s), Message::Ask { instance, target }]) => {
            assert_eq!(s.view, View(300));
            assert_eq!((*instance, target.view), (InstanceId(1), View(299)));
        }
        _ => panic!("golden protocol bundle failed to decode"),
    }
}

#[test]
fn golden_catchup_req() {
    let enc = encode_catchup_req(300);
    assert_eq!(enc[1], TAG_CATCHUP_REQ);
    assert_eq!(hex(&enc), "b701ac02");
    assert!(matches!(
        decode::<u64>(&enc),
        Some(WireMsg::CatchUpReq { from_height: 300 })
    ));
}

#[test]
fn golden_catchup_resp() {
    let blocks = [CatchUpBlock {
        block: sample_block(),
        payload: b"txn-bytes".to_vec(),
    }];
    let enc = encode_catchup_resp(4, &blocks);
    assert_eq!(enc[1], TAG_CATCHUP_RESP);
    assert_eq!(
        hex(&enc),
        "b7020401000000000000000000000000000000000000000000000000\
         000000000000000000000000000000004d0000000000000000000000\
         00000000000000000000000000070200000000000001f40000000000\
         00000000000000000000000000000000000000000300000000000000\
         004d0000000000000000000000000000000000000000000000000003\
         00010203aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\
         aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\
         aaaaaaaaaaaaaaaaaaaaaaaabbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb\
         bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb\
         bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbcccccccccccccccc\
         cccccccccccccccccccccccccccccccccccccccccccccccccccccccc\
         cccccccccccccccccccccccccccccccccccccccccccccccccccccccc\
         e816fdb9aded7d3c9886db890f7ce7ab1fb97d17d2c3fecaf41d4a5a\
         9743a8420974786e2d6279746573"
    );
    // Anatomy: peer_height 4 ‖ 1 block (height 0 ‖ zero parent ‖
    // batch digest tag 77 = 0x4d ‖ batch id 7 ‖ 2 txns ‖ state root
    // tag 500 = 0x01f4 ‖ proof {instance 0, view 3, Strong, voted tag
    // 77, slot 0, signers 0,1,2, three 64-byte signatures 0xAA/0xBB/
    // 0xCC} ‖ block hash) ‖ 9-byte payload "txn-bytes".
    match decode::<u64>(&enc) {
        Some(WireMsg::CatchUpResp {
            peer_height: 4,
            blocks: got,
        }) => assert_eq!(got, blocks),
        _ => panic!("golden catch-up response failed to decode"),
    }
}

/// A block has one byte form: the durable log writes the record a
/// catch-up response carries on the wire.
#[test]
fn durable_log_record_is_the_catchup_block_encoding() {
    let block = sample_block();
    let payload = b"txn-bytes";
    let dir = tempfile::tempdir().unwrap();
    let (mut log, _) = BlockLog::open(dir.path(), LogOptions::default(), 0).unwrap();
    log.append(&block, payload).unwrap();
    drop(log);
    let scan = scan_segment(&dir.path().join(segment_file_name(0))).unwrap();
    let record = &scan.records[0];
    let block_bytes = serde::bin::to_vec(&block);
    assert_eq!(record[..block_bytes.len()], block_bytes[..]);
    // The response is version ‖ tag ‖ peer height ‖ block count, then
    // each block with its payload — byte for byte the log record.
    let resp = encode_catchup_resp(
        4,
        &[CatchUpBlock {
            block,
            payload: payload.to_vec(),
        }],
    );
    assert_eq!(resp[..4], [WIRE_VERSION, TAG_CATCHUP_RESP, 4, 1]);
    assert_eq!(resp[4..], record[..]);
}

#[test]
fn golden_manifest() {
    let m = sample_manifest();
    let enc = encode_catchup_manifest(&m);
    assert_eq!(enc[1], TAG_CATCHUP_MANIFEST);
    assert_eq!(
        hex(&enc),
        "b7030104000000000000000000000000000000000000000000000000\
         000000000000000000000000000000004d0000000000000000000000\
         00000000000000000000000000070200000000000001f40000000000\
         00000000000000000000000000000000000000000300000000000000\
         004d0000000000000000000000000000000000000000000000000003\
         00010203aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\
         aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\
         aaaaaaaaaaaaaaaaaaaaaaaabbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb\
         bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb\
         bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbcccccccccccccccc\
         cccccccccccccccccccccccccccccccccccccccccccccccccccccccc\
         cccccccccccccccccccccccccccccccccccccccccccccccccccccccc\
         e816fdb9aded7d3c9886db890f7ce7ab1fb97d17d2c3fecaf41d4a5a\
         9743a842020607046d65746101000000000000000b00000000000000\
         00000000000000000000000000000000000101008008000100000000\
         0000000c000000000000000000000000000000000000000000000000"
    );
    // Anatomy: height 1 ‖ peer_height 4 ‖ head block ‖ recent ids
    // [6, 7] ‖ 4-byte app meta ‖ 1-step meta proof (sibling tag 11,
    // on-right) ‖ 1 chunk {first_bucket 0, buckets 1024 = 0x8008
    // varint, part 0, parts 1, digest tag 12}.
    match decode::<u64>(&enc) {
        Some(WireMsg::Manifest(got)) => assert_eq!(*got, m),
        _ => panic!("golden manifest failed to decode"),
    }
}

#[test]
fn golden_chunk_req() {
    let enc = encode_chunk_req(300, 3);
    assert_eq!(enc[1], TAG_CATCHUP_CHUNK_REQ);
    assert_eq!(hex(&enc), "b704ac0203");
    assert!(matches!(
        decode::<u64>(&enc),
        Some(WireMsg::ChunkReq {
            height: 300,
            index: 3
        })
    ));
}

#[test]
fn golden_chunk() {
    let c = sample_chunk();
    let enc = encode_chunk(&c);
    assert_eq!(enc[1], TAG_CATCHUP_CHUNK);
    assert_eq!(
        hex(&enc),
        "b70501000b6368756e6b2d62797465730101000000000000000d0000\
         00000000000000000000000000000000000000000000000100000000\
         0000000e000000000000000000000000000000000000000000000000\
         01"
    );
    // Anatomy: height 1 ‖ index 0 ‖ 11-byte chunk ‖ 1 proof of 1 step
    // (sibling tag 13, on-left) ‖ 1-step top proof (sibling tag 14,
    // on-right).
    match decode::<u64>(&enc) {
        Some(WireMsg::Chunk(got)) => assert_eq!(*got, c),
        _ => panic!("golden chunk failed to decode"),
    }
}

// ── derive edge cases ───────────────────────────────────────────────

#[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
struct Marker;

#[test]
fn unit_structs_cost_one_byte_and_survive_in_sequences() {
    // Unit structs encode as one marker byte, never zero bytes —
    // sequence decoding bounds element counts by the remaining input,
    // which requires every element to cost at least one byte.
    let v = vec![Marker, Marker, Marker];
    let enc = serde::bin::to_vec(&v);
    assert_eq!(enc, vec![3, 0, 0, 0]);
    let back: Vec<Marker> = serde::bin::from_slice(&enc).unwrap();
    assert_eq!(back, v);
}

// ── proptest: decoder equivalence and codec round trips ─────────────

fn digests() -> impl Strategy<Value = Digest> {
    any::<u64>().prop_map(Digest::from_u64)
}

fn proposal_refs() -> impl Strategy<Value = ProposalRef> {
    (any::<u64>(), digests()).prop_map(|(v, digest)| ProposalRef {
        view: View(v),
        digest,
    })
}

fn batches() -> impl Strategy<Value = ClientBatch> {
    (
        any::<u64>(),
        any::<u64>(),
        prop::collection::vec(any::<u8>(), 0..200),
    )
        .prop_map(|(id, dg, payload)| ClientBatch {
            id: BatchId(id),
            origin: ClientId(1),
            digest: Digest::from_u64(dg),
            txns: payload.len() as u32,
            txn_size: 8,
            created_at: SimTime::ZERO,
            payload,
        })
}

fn proof_steps() -> impl Strategy<Value = Vec<ProofStep>> {
    prop::collection::vec(
        (any::<u64>(), any::<bool>()).prop_map(|(tag, right)| ProofStep {
            sibling: Digest::from_u64(tag),
            sibling_on_right: right,
        }),
        0..12,
    )
}

fn messages() -> impl Strategy<Value = Message> {
    prop_oneof![
        (any::<u32>(), any::<u64>(), batches(), proposal_refs()).prop_map(
            |(i, v, batch, parent)| {
                Message::Propose(std::sync::Arc::new(Proposal::new(
                    InstanceId(i),
                    View(v),
                    batch,
                    Justification::certificate(parent),
                )))
            }
        ),
        (
            any::<u32>(),
            any::<u64>(),
            prop::option::of(proposal_refs()),
            prop::collection::vec(proposal_refs(), 0..5),
            any::<bool>(),
        )
            .prop_map(|(i, v, claim, cp, upsilon)| {
                // cp_sigs must stay parallel to cp (the decoder drops
                // frames where the lengths disagree); byte patterns
                // derived from the generated values keep the fixture
                // deterministic without a second RNG stream.
                let cp_sigs = cp.iter().map(|r| Signature([r.view.0 as u8; 64])).collect();
                Message::Sync(SyncMsg {
                    instance: InstanceId(i),
                    view: View(v),
                    claim,
                    cp,
                    upsilon,
                    claim_sig: Signature([v as u8; 64]),
                    cp_sigs,
                })
            }),
        (any::<u32>(), proposal_refs()).prop_map(|(i, target)| Message::Ask {
            instance: InstanceId(i),
            target,
        }),
    ]
}

/// A short chain of structurally valid blocks with arbitrary content.
fn block_chains() -> impl Strategy<Value = Vec<(Block, Vec<u8>)>> {
    prop::collection::vec(
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            prop::collection::vec(any::<u8>(), 0..64),
        ),
        0..4,
    )
    .prop_map(|specs| {
        let mut ledger = Ledger::new();
        let mut payloads = Vec::with_capacity(specs.len());
        for (i, (id, dg, root, payload)) in specs.into_iter().enumerate() {
            ledger.append(
                BatchId(id),
                Digest::from_u64(dg),
                payload.len() as u32,
                Digest::from_u64(root),
                CommitProof {
                    instance: InstanceId(0),
                    view: View(i as u64),
                    phase: CertPhase::Strong,
                    voted: Digest::from_u64(dg),
                    slot: id % 7,
                    signers: vec![ReplicaId(0), ReplicaId(1), ReplicaId(2)],
                    sigs: vec![Signature([dg as u8; 64]); 3],
                },
            );
            payloads.push(payload);
        }
        (0..payloads.len())
            .map(|h| (ledger.block(h as u64).unwrap().clone(), payloads[h].clone()))
            .collect()
    })
}

/// Encoded payloads covering every `WireMsg` shape — the input space
/// over which the two decoders must agree.
fn wire_payloads() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        messages().prop_map(|m| encode_protocol(&m)),
        prop::collection::vec(messages(), 0..MAX_BUNDLE + 2).prop_map(|msgs| bundle(&msgs)),
        // The edge of the cap, so both readers meet it every run.
        (messages(), any::<bool>())
            .prop_map(|(m, over)| { bundle(&vec![m; MAX_BUNDLE + usize::from(over)]) }),
        any::<u64>().prop_map(encode_catchup_req),
        (any::<u64>(), block_chains()).prop_map(|(ph, chain)| {
            let blocks: Vec<CatchUpBlock> = chain
                .into_iter()
                .map(|(block, payload)| CatchUpBlock { block, payload })
                .collect();
            encode_catchup_resp(ph, &blocks)
        }),
        (
            any::<u64>(),
            prop::collection::vec(any::<u8>(), 0..64),
            proof_steps(),
        )
            .prop_map(|(height, app_meta, meta_proof)| {
                let mut m = sample_manifest();
                m.height = height;
                m.app_meta = app_meta;
                m.meta_proof = meta_proof;
                encode_catchup_manifest(&m)
            }),
        (any::<u64>(), any::<u32>()).prop_map(|(h, i)| encode_chunk_req(h, i)),
        (
            any::<u64>(),
            any::<u32>(),
            prop::collection::vec(any::<u8>(), 0..128),
            prop::collection::vec(proof_steps(), 0..3),
        )
            .prop_map(|(height, index, chunk, mut proofs)| {
                let top_proof = proofs.pop().unwrap_or_default();
                encode_chunk(&ChunkTransfer {
                    height,
                    index,
                    chunk,
                    proofs,
                    top_proof,
                })
            }),
    ]
}

/// Value equality for decoded wire messages. Transfer variants derive
/// `PartialEq`; protocol messages don't, so byte-stable re-encoding is
/// the equality proxy (the binary codec is injective by construction).
fn wire_eq(a: &WireMsg<Vec<Message>>, b: &WireMsg<Vec<Message>>) -> bool {
    match (a, b) {
        (WireMsg::Protocol(x), WireMsg::Protocol(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|(x, y)| serde::bin::to_vec(x) == serde::bin::to_vec(y))
        }
        (WireMsg::CatchUpReq { from_height: x }, WireMsg::CatchUpReq { from_height: y }) => x == y,
        (
            WireMsg::CatchUpResp {
                peer_height: ph,
                blocks: bs,
            },
            WireMsg::CatchUpResp {
                peer_height: qh,
                blocks: cs,
            },
        ) => ph == qh && bs == cs,
        (WireMsg::Manifest(x), WireMsg::Manifest(y)) => x == y,
        (
            WireMsg::ChunkReq {
                height: h,
                index: i,
            },
            WireMsg::ChunkReq {
                height: g,
                index: j,
            },
        ) => h == g && i == j,
        (WireMsg::Chunk(x), WireMsg::Chunk(y)) => x == y,
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The borrowing decoder (`decode_ref`, its protocol body read by
    /// `decode_protocol_bundle`) accepts exactly the same payloads as
    /// the owning decoder (`decode`, whose protocol-body loop is its
    /// own) and produces the same values — on every `WireMsg` shape,
    /// and still under truncation and single-byte corruption (where
    /// both must fail closed together). Transfer bodies have one
    /// reader, so what this checks there is that both decoders use it.
    #[test]
    fn borrowing_decoder_matches_owning_on_all_shapes(
        payload in wire_payloads(),
        flip_pos in any::<usize>(),
        flip_val in any::<u8>(),
    ) {
        let check = |bytes: &[u8]| -> Result<(), TestCaseError> {
            let owned = decode::<Message>(bytes);
            let borrowed = decode_ref(bytes)
                .and_then(|r| r.try_map_protocol(decode_protocol_bundle::<Message>));
            match (&owned, &borrowed) {
                (Some(a), Some(b)) => prop_assert!(wire_eq(a, b), "decoders disagree on value"),
                (None, None) => {}
                _ => return Err(TestCaseError::fail(format!(
                    "decoders disagree on acceptance: owned={} borrowed={}",
                    owned.is_some(),
                    borrowed.is_some(),
                ))),
            }
            Ok(())
        };
        check(&payload)?;
        for cut in [payload.len() / 2, payload.len().saturating_sub(1)] {
            check(&payload[..cut])?;
        }
        let mut mutated = payload.clone();
        let pos = flip_pos % mutated.len();
        mutated[pos] ^= flip_val | 1; // always flips at least one bit
        check(&mutated)?;
    }

    /// Bundles of 1..=MAX_BUNDLE protocol messages round-trip end to
    /// end — sealed and verified, then read by the owning decoder and
    /// by the borrowing one plus the body decoder — in order.
    #[test]
    fn envelope_protocol_roundtrip(
        msgs in prop::collection::vec(messages(), 1..MAX_BUNDLE + 1),
        cut_at in any::<usize>(),
    ) {
        static KEYS: OnceLock<Vec<KeyStore>> = OnceLock::new();
        let keys = KEYS.get_or_init(|| KeyStore::cluster(b"wire-format-bundles", 2));
        let env = Envelope::seal(&keys[1], bundle(&msgs));
        prop_assert!(env.verify(&keys[0]).is_ok());
        let payload = env.payload.as_slice();
        let want: Vec<Vec<u8>> = msgs.iter().map(serde::bin::to_vec).collect();
        let encoded = |got: &[Message]| got.iter().map(serde::bin::to_vec).collect::<Vec<_>>();
        match decode::<Message>(payload) {
            Some(WireMsg::Protocol(back)) => prop_assert_eq!(encoded(&back), want.clone()),
            _ => return Err(TestCaseError::fail("protocol payload did not decode")),
        }
        let Some(WireMsgRef::Protocol(body)) = decode_ref(payload) else {
            return Err(TestCaseError::fail("decode_ref did not see a protocol body"));
        };
        let back = decode_protocol_bundle::<Message>(body);
        prop_assert_eq!(back.as_deref().map(encoded), Some(want.clone()));
        // A truncated payload decodes only if the cut falls between
        // messages, and then to exactly the messages before it; the
        // envelope signature is what rejects such a prefix on the wire.
        let mut ends = vec![2];
        for m in &want {
            ends.push(ends.last().unwrap() + m.len());
        }
        for cut in [payload.len() / 2, payload.len() - 1, cut_at % payload.len()] {
            let got = decode::<Message>(&payload[..cut]);
            match ends[1..].iter().position(|&end| end == cut) {
                Some(i) => prop_assert_eq!(
                    got.as_ref().map(|m| encoded(protocol(m))),
                    Some(want[..=i].to_vec())
                ),
                None => prop_assert!(got.is_none(), "cut at {} of {}", cut, payload.len()),
            }
        }
    }

    /// Catch-up responses round-trip for arbitrary short chains.
    #[test]
    fn envelope_catchup_resp_roundtrip(
        peer_height in any::<u64>(),
        chain in block_chains(),
    ) {
        let blocks: Vec<CatchUpBlock> = chain
            .into_iter()
            .map(|(block, payload)| CatchUpBlock { block, payload })
            .collect();
        let enc = encode_catchup_resp(peer_height, &blocks);
        match decode::<u64>(&enc) {
            Some(WireMsg::CatchUpResp { peer_height: ph, blocks: got }) => {
                prop_assert_eq!(ph, peer_height);
                prop_assert_eq!(got, blocks);
            }
            _ => return Err(TestCaseError::fail("catch-up response did not decode")),
        }
    }

    /// Manifests round-trip for arbitrary contents (structural
    /// validation of the chunk plan is the pipeline's job, not the
    /// codec's).
    #[test]
    fn envelope_manifest_roundtrip(
        height in any::<u64>(),
        peer_height in any::<u64>(),
        ids in prop::collection::vec(any::<u64>(), 0..8),
        meta in prop::collection::vec(any::<u8>(), 0..64),
        meta_proof in proof_steps(),
        chunk_spec in prop::collection::vec((any::<u32>(), any::<u32>(), any::<u64>()), 0..6),
    ) {
        let m = TransferManifest {
            height,
            peer_height,
            head: sample_block(),
            recent_ids: ids.into_iter().map(BatchId).collect(),
            app_meta: meta,
            meta_proof,
            chunks: chunk_spec
                .into_iter()
                .map(|(first_bucket, buckets, tag)| ChunkInfo {
                    first_bucket,
                    buckets,
                    part: tag as u32 & 0x3,
                    parts: (tag >> 2) as u32 & 0x3,
                    digest: Digest::from_u64(tag),
                })
                .collect(),
        };
        let enc = encode_catchup_manifest(&m);
        match decode::<u64>(&enc) {
            Some(WireMsg::Manifest(got)) => prop_assert_eq!(*got, m),
            _ => return Err(TestCaseError::fail("manifest did not decode")),
        }
    }

    /// Chunk transfers round-trip for arbitrary contents.
    #[test]
    fn envelope_chunk_roundtrip(
        height in any::<u64>(),
        index in any::<u32>(),
        chunk in prop::collection::vec(any::<u8>(), 0..256),
        proofs in prop::collection::vec(proof_steps(), 0..4),
        top_proof in proof_steps(),
    ) {
        let c = ChunkTransfer { height, index, chunk, proofs, top_proof };
        let enc = encode_chunk(&c);
        match decode::<u64>(&enc) {
            Some(WireMsg::Chunk(got)) => prop_assert_eq!(*got, c),
            _ => return Err(TestCaseError::fail("chunk did not decode")),
        }
    }

    /// Any mutation of the leading version byte fails closed — no
    /// payload from another wire generation can be misread, a
    /// revision-5 (`0xB5`) reader facing a bundle and a revision-6
    /// (`0xB6`) one facing digest-scheme signatures included.
    #[test]
    fn version_byte_mutations_fail_closed(
        height in any::<u64>(),
        msgs in prop::collection::vec(messages(), 1..4),
        bad in any::<u8>(),
    ) {
        for mut enc in [encode_catchup_req(height), bundle(&msgs)] {
            for bad in [bad, 0xB5, 0xB6] {
                if bad != enc[0] {
                    enc[0] = bad;
                    prop_assert!(decode::<Message>(&enc).is_none());
                    prop_assert!(decode_ref(&enc).is_none());
                }
            }
        }
    }
}
