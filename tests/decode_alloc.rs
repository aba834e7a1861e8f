//! How much a hostile length prefix can make the binary decoder
//! reserve. A test binary of its own, because it swaps in a counting
//! `#[global_allocator]` that records the largest single request made
//! on the test's thread while a probe is armed.
//!
//! Ingress decodes a protocol bundle before it checks the envelope
//! signature (the bundle's votes join that signature's batch), so a
//! sender holding no key can hand the decoder any frame under
//! `SIMPLE_FRAME_LIMIT`. The probe bodies are the worst such frames: a
//! list whose length prefix equals the bytes left, over bytes no
//! element decodes from. The decoder must fail on them having reserved
//! no more than a small multiple of the input — not element size ×
//! frame bytes, which was a 319 MiB request for an 8 MiB `Sync`.
//!
//! Transfer bodies (catch-up and state transfer) decode after the
//! signature check, but a faulty peer signs its own. Their lists are
//! bounded at `MAX_TRANSFER_ITEMS`; the probes put that many elements
//! over bytes no element decodes from, and hold the same bound.

use serde::bin;
use spotless::baselines::PbftMessage;
use spotless::core::{Message, SyncMsg};
use spotless::ledger::{CommitProof, Ledger};
use spotless::runtime::envelope::{
    decode_protocol_bundle, decode_ref, encode_catchup_manifest, encode_catchup_resp, encode_chunk,
    ChunkTransfer, TransferManifest, MAX_TRANSFER_ITEMS,
};
use spotless::types::{
    BatchId, CertPhase, Digest, InstanceId, Signature, View, SIMPLE_FRAME_LIMIT,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, recording the largest request made on a
/// thread whose probe is armed.
struct Counting;

thread_local! {
    /// The largest request on this thread since its probe was armed;
    /// `None` while it is not. Per thread, so tests running in parallel
    /// cannot see each other's requests.
    static LARGEST: Cell<Option<usize>> = const { Cell::new(None) };
}

fn record(size: usize) {
    LARGEST.with(|largest| {
        if let Some(so_far) = largest.get() {
            largest.set(Some(so_far.max(size)));
        }
    });
}

// SAFETY: every call is forwarded unchanged to `System`; the wrapper
// only reads the requested size.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: the caller's contract for `realloc` is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The largest single allocation `f` requests on this thread.
fn largest_allocation(f: impl FnOnce()) -> usize {
    LARGEST.with(|largest| largest.set(Some(0)));
    f();
    LARGEST.with(Cell::take).expect("armed above")
}

/// `head` (a message encoded up to, not including, one list's length
/// prefix), then a prefix naming `count` elements, then `0xFF`s, which
/// no element decodes from (a varint of ten of them overflows), up to a
/// body of `SIMPLE_FRAME_LIMIT` bytes.
fn hostile_list(head: &[u8], count: usize) -> Vec<u8> {
    let mut body = head.to_vec();
    bin::write_varint(count as u64, &mut body);
    body.resize(SIMPLE_FRAME_LIMIT as usize, 0xFF);
    body
}

/// [`hostile_list`] whose count is every byte left after it.
fn hostile_body(head: &[u8]) -> Vec<u8> {
    let left = SIMPLE_FRAME_LIMIT as usize - head.len() - 4;
    let body = hostile_list(head, left);
    assert_eq!(
        body[head.len() + 4..].len(),
        left,
        "an 8 MiB count is four varint bytes"
    );
    body
}

/// Runs `decode` on `body`, which must fail, and asserts that no single
/// allocation on the way exceeded twice the body.
fn assert_bounded(what: &str, body: &[u8], decode: impl FnOnce(&[u8]) -> bool) {
    let largest = largest_allocation(|| {
        assert!(!decode(body), "{what} decoded");
    });
    assert!(
        largest <= 2 * body.len(),
        "{what}: a {} B body made a {largest} B allocation",
        body.len()
    );
}

#[test]
fn a_hostile_list_length_reserves_at_most_twice_the_input() {
    // A `Sync` whose `cp` (40-byte `ProposalRef`s in memory, 33 bytes
    // at least on the wire) claims the whole frame.
    let sync = bin::to_vec(&Message::Sync(SyncMsg {
        instance: InstanceId(0),
        view: View(0),
        claim: None,
        cp: Vec::new(),
        upsilon: false,
        claim_sig: Signature::ZERO,
        cp_sigs: Vec::new(),
    }));
    // Variant `Sync`, instance 0, view 0, no claim, then `cp`'s length.
    assert_eq!(sync[..5], [1, 0, 0, 0, 0]);
    assert_bounded("Sync", &hostile_body(&sync[..4]), |b| {
        decode_protocol_bundle::<Message>(b).is_some()
    });

    // A PBFT `NewView` whose re-proposals (a slot and a whole
    // `ClientBatch` each, ≈ 100 bytes in memory) claim the whole frame.
    let new_view = bin::to_vec(&PbftMessage::NewView {
        view: View(0),
        reproposals: Vec::new(),
    });
    // Variant `NewView`, view 0, then the re-proposals' length.
    assert_eq!(new_view[1..], [0, 0]);
    assert_bounded("NewView", &hostile_body(&new_view[..2]), |b| {
        decode_protocol_bundle::<PbftMessage>(b).is_some()
    });
}

/// `payload` with the list whose zero count is its `tail`-th last byte
/// (the bytes after it all zero counts too) swapped for a hostile list
/// of `MAX_TRANSFER_ITEMS` elements, held to [`assert_bounded`] through
/// `decode_ref`.
fn assert_transfer_bounded(what: &str, payload: &[u8], tail: usize) {
    let (head, zeros) = payload.split_at(payload.len() - tail);
    assert!(zeros.iter().all(|&b| b == 0), "{what}: {zeros:?}");
    let body = hostile_list(head, MAX_TRANSFER_ITEMS);
    assert_bounded(what, &body, |b| decode_ref(b).is_some());
}

/// A manifest payload with every list empty: it ends in the counts of
/// `recent_ids`, `app_meta`, `meta_proof` and `chunks`.
fn empty_manifest() -> Vec<u8> {
    let mut ledger = Ledger::new();
    ledger.append(
        BatchId(0),
        Digest::from_u64(1),
        1,
        Digest::from_u64(2),
        CommitProof {
            instance: InstanceId(0),
            view: View(0),
            phase: CertPhase::Strong,
            voted: Digest::from_u64(1),
            slot: 0,
            signers: Vec::new(),
            sigs: Vec::new(),
        },
    );
    encode_catchup_manifest(&TransferManifest {
        height: 1,
        peer_height: 1,
        head: ledger.block(0).unwrap().clone(),
        recent_ids: Vec::new(),
        app_meta: Vec::new(),
        meta_proof: Vec::new(),
        chunks: Vec::new(),
    })
}

#[test]
fn hostile_catchup_blocks_reserve_at_most_twice_the_input() {
    // A response with no blocks ends in their count.
    assert_transfer_bounded("catch-up blocks", &encode_catchup_resp(0, &[]), 1);
}

#[test]
fn hostile_manifest_recent_ids_reserve_at_most_twice_the_input() {
    assert_transfer_bounded("manifest recent_ids", &empty_manifest(), 4);
}

#[test]
fn hostile_manifest_chunks_reserve_at_most_twice_the_input() {
    // `ChunkInfo` is 48 bytes in memory.
    assert_transfer_bounded("manifest chunks", &empty_manifest(), 1);
}

#[test]
fn hostile_chunk_proofs_reserve_at_most_twice_the_input() {
    // An empty chunk ends in the lengths of its bytes, its `proofs` and
    // its `top_proof`; a proof is a 24-byte `Vec` in memory.
    let chunk = encode_chunk(&ChunkTransfer {
        height: 1,
        index: 0,
        chunk: Vec::new(),
        proofs: Vec::new(),
        top_proof: Vec::new(),
    });
    assert_transfer_bounded("chunk proofs", &chunk, 2);
}
