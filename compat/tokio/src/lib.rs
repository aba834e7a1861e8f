//! Offline stand-in for `tokio`.
//!
//! The build environment has no crates.io access, so this crate provides
//! the small slice of tokio's API the workspace uses, backed by **one OS
//! thread per task** instead of a work-stealing reactor:
//!
//! - [`spawn`] runs the future on a dedicated thread via [`block_on`];
//! - channel/`sleep`/socket futures **block inside `poll`** (safe here
//!   precisely because every task owns its thread — nothing else is
//!   scheduled on it);
//! - [`time::timeout`] / [`time::timeout_at`] bound an `mpsc` receive
//!   by a deadline without a timer thread: the blocked receive waits on
//!   its condition variable only until the deadline (see [`time`]);
//! - `#[tokio::main]` / `#[tokio::test]` wrap the body in [`block_on`].
//!
//! The async *interfaces* are identical, so the transport code compiles
//! unchanged and can move back to real tokio by flipping one manifest
//! line. Task `abort` is cooperative-only: a thread blocked in `poll`
//! finishes its current wait (all uses in this workspace shut down via
//! explicit messages first).

pub use tokio_macros::{main, test};

pub mod io;
pub mod net;
pub mod sync;
pub mod task;
pub mod time;

use std::future::Future;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::thread;

struct ThreadWaker(thread::Thread);

impl Wake for ThreadWaker {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }
}

/// Drives `fut` to completion on the current thread.
pub fn block_on<F: Future>(fut: F) -> F::Output {
    let mut fut = Box::pin(fut);
    let waker = Waker::from(Arc::new(ThreadWaker(thread::current())));
    let mut cx = Context::from_waker(&waker);
    loop {
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(out) => return out,
            Poll::Pending => thread::park(),
        }
    }
}

/// Spawns `fut` onto its own OS thread; the handle resolves to the
/// future's output (or a [`task::JoinError`] if it panicked).
pub fn spawn<F>(fut: F) -> task::JoinHandle<F::Output>
where
    F: Future + Send + 'static,
    F::Output: Send + 'static,
{
    task::spawn_thread(fut)
}
