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

use serde::bin;
use spotless::baselines::PbftMessage;
use spotless::core::{Message, SyncMsg};
use spotless::runtime::envelope::decode_protocol_bundle;
use spotless::types::{InstanceId, Signature, View, SIMPLE_FRAME_LIMIT};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, recording the largest request made on a
/// thread whose probe is armed.
struct Counting;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn record(size: usize) {
    if ARMED.with(Cell::get) {
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
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
    LARGEST.store(0, Ordering::Relaxed);
    ARMED.with(|armed| armed.set(true));
    f();
    ARMED.with(|armed| armed.set(false));
    LARGEST.load(Ordering::Relaxed)
}

/// `head` (a message encoded up to, not including, one list's length
/// prefix), then a prefix naming as many elements as there are bytes
/// left, then those bytes: `0xFF`s, which no element decodes from (a
/// varint of ten of them overflows). The whole body is just under
/// `SIMPLE_FRAME_LIMIT`.
fn hostile_body(head: &[u8]) -> Vec<u8> {
    let left = SIMPLE_FRAME_LIMIT as usize - head.len() - 4;
    let mut body = head.to_vec();
    bin::write_varint(left as u64, &mut body);
    assert_eq!(
        body.len(),
        head.len() + 4,
        "an 8 MiB count is four varint bytes"
    );
    body.resize(body.len() + left, 0xFF);
    body
}

/// Decodes `body` as a bundle of `M`, which must fail, and asserts that
/// no single allocation on the way exceeded twice the body.
fn assert_bounded<M: serde::Deserialize>(what: &str, body: &[u8]) {
    let largest = largest_allocation(|| {
        assert!(
            decode_protocol_bundle::<M>(body).is_none(),
            "{what} decoded"
        );
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
    assert_bounded::<Message>("Sync", &hostile_body(&sync[..4]));

    // A PBFT `NewView` whose re-proposals (a slot and a whole
    // `ClientBatch` each, ≈ 100 bytes in memory) claim the whole frame.
    let new_view = bin::to_vec(&PbftMessage::NewView {
        view: View(0),
        reproposals: Vec::new(),
    });
    // Variant `NewView`, view 0, then the re-proposals' length.
    assert_eq!(new_view[1..], [0, 0]);
    assert_bounded::<PbftMessage>("NewView", &hostile_body(&new_view[..2]));
}
