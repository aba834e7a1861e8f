//! `#[serde(max_len = N)]`: a derived decoder takes `N` elements and
//! rejects `N + 1` before it reserves anything. A test binary of its
//! own, because it swaps in a counting `#[global_allocator]` that
//! records the largest single request made on the test's thread while a
//! probe is armed.

use serde::{bin, Deserialize, Serialize};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

const N: usize = 4;

/// A 256-byte element: a reservation for even one of them is larger
/// than anything a rejected decode needs (its error message).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
struct Wide([u64; 32]);

#[derive(Debug, PartialEq, Eq, Serialize, Deserialize)]
struct Bounded {
    tag: u64,
    #[serde(max_len = N)]
    items: Vec<Wide>,
    rest: Vec<u8>,
}

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

fn bounded(items: usize) -> Bounded {
    Bounded {
        tag: 7,
        items: (0..items as u64).map(|i| Wide([i; 32])).collect(),
        rest: b"tail".to_vec(),
    }
}

#[test]
fn max_len_accepts_the_bound_and_round_trips() {
    for items in 0..=N {
        let value = bounded(items);
        let enc = bin::to_vec(&value);
        assert_eq!(bin::from_slice::<Bounded>(&enc), Ok(value), "{items} items");
    }
}

#[test]
fn max_len_leaves_the_layout_alone() {
    // The bound is a decode-time check: the bytes are the plain
    // struct's, a varint count and the elements.
    let value = bounded(2);
    let mut want = bin::to_vec(&value.tag);
    want.extend(bin::to_vec(&value.items));
    want.extend(bin::to_vec(&value.rest));
    assert_eq!(bin::to_vec(&value), want);
}

#[test]
fn max_len_rejects_one_more_before_reserving() {
    // Well-formed but for the count: every element is there to decode.
    let enc = bin::to_vec(&bounded(N + 1));
    let largest = largest_allocation(|| {
        assert!(bin::from_slice::<Bounded>(&enc).is_err());
    });
    assert!(
        largest < std::mem::size_of::<Wide>(),
        "a rejected list made a {largest} B allocation"
    );
}

#[test]
fn byte_arrays_decode_without_allocating() {
    // Digests and signatures are `[u8; N]`: they copy straight from the
    // input into the array.
    let value: [u8; 64] = std::array::from_fn(|i| i as u8);
    let enc = bin::to_vec(&value);
    let largest = largest_allocation(|| {
        assert_eq!(bin::from_slice::<[u8; 64]>(&enc), Ok(value));
    });
    assert_eq!(largest, 0, "decoding a [u8; 64] allocated {largest} B");
}
