//! Wall-clock time utilities.
//!
//! There is no timer driver: [`sleep`] blocks its task's thread, and
//! [`timeout`] / [`timeout_at`] publish their deadline in a
//! thread-local the blocking `mpsc` receives consult — a receive under
//! a timeout waits on its channel's condition variable *until the
//! deadline* and yields `Pending` once it has passed, which the
//! [`Timeout`] future turns into [`error::Elapsed`]. No thread or task
//! exists per timer. Futures that block without consulting the deadline
//! (`sleep`, `oneshot`, join handles, sockets) run to completion under
//! a timeout and report `Elapsed` only if they return `Pending`.

use std::cell::Cell;
use std::future::Future;
use std::ops::Add;
use std::pin::Pin;
use std::sync::{Condvar, MutexGuard};
use std::task::{Context, Poll};
use std::time::Duration;

/// Re-exported monotonic instant (tokio wraps std's too).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Instant(std::time::Instant);

impl Instant {
    /// The current instant.
    pub fn now() -> Instant {
        Instant(std::time::Instant::now())
    }

    /// Time elapsed since this instant.
    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }

    /// Duration since an earlier instant.
    pub fn duration_since(&self, earlier: Instant) -> Duration {
        self.0.duration_since(earlier.0)
    }
}

impl Add<Duration> for Instant {
    type Output = Instant;

    fn add(self, rhs: Duration) -> Instant {
        Instant(self.0 + rhs)
    }
}

/// Sleeps for `duration` (blocks this task's thread).
pub async fn sleep(duration: Duration) {
    std::thread::sleep(duration);
}

/// Time-related errors.
pub mod error {
    /// A [`timeout`](super::timeout) deadline passed before its future
    /// completed.
    #[derive(Debug, PartialEq, Eq)]
    pub struct Elapsed(pub(super) ());

    impl std::fmt::Display for Elapsed {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "deadline has elapsed")
        }
    }

    impl std::error::Error for Elapsed {}
}

thread_local! {
    /// The earliest deadline of the [`Timeout`]s being polled on this
    /// thread, if any.
    static DEADLINE: Cell<Option<std::time::Instant>> = const { Cell::new(None) };
}

/// Publishes a [`Timeout`]'s deadline for the length of one poll and
/// restores the enclosing one when it ends, unwinding included.
struct DeadlineScope {
    outer: Option<std::time::Instant>,
    /// What is published: the earlier of this deadline and `outer`.
    earliest: std::time::Instant,
}

impl DeadlineScope {
    fn enter(deadline: std::time::Instant) -> DeadlineScope {
        let outer = DEADLINE.get();
        let earliest = outer.map_or(deadline, |outer| outer.min(deadline));
        DEADLINE.set(Some(earliest));
        DeadlineScope { outer, earliest }
    }
}

impl Drop for DeadlineScope {
    fn drop(&mut self) {
        DEADLINE.set(self.outer);
    }
}

/// One bounded wait of a blocking receive: `Err` with the guard —
/// without waiting — once the deadline of the [`Timeout`] being polled
/// on this thread has passed, otherwise `Ok` with the guard back after
/// a notification, a spurious wake-up or that deadline. The caller
/// re-checks its queue either way, so a value that arrives at the
/// deadline is taken or left queued, never lost.
pub(crate) fn wait_in_deadline<'a, T>(
    ready: &Condvar,
    guard: MutexGuard<'a, T>,
) -> Result<MutexGuard<'a, T>, MutexGuard<'a, T>> {
    let Some(deadline) = DEADLINE.get() else {
        return Ok(ready.wait(guard).unwrap());
    };
    let left = deadline.saturating_duration_since(std::time::Instant::now());
    if left.is_zero() {
        return Err(guard);
    }
    Ok(ready.wait_timeout(guard, left).unwrap().0)
}

/// Future returned by [`timeout`] and [`timeout_at`].
pub struct Timeout<F> {
    future: Pin<Box<F>>,
    deadline: std::time::Instant,
}

impl<F: Future> Future for Timeout<F> {
    type Output = Result<F::Output, error::Elapsed>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let scope = DeadlineScope::enter(self.deadline);
        loop {
            if let Poll::Ready(out) = self.future.as_mut().poll(cx) {
                return Poll::Ready(Ok(out));
            }
            let now = std::time::Instant::now();
            if now >= self.deadline {
                return Poll::Ready(Err(error::Elapsed(())));
            }
            // An enclosing timeout's deadline may be the earlier one;
            // once that has passed the verdict is the encloser's.
            if now >= scope.earliest {
                return Poll::Pending;
            }
            // Pending for a reason of the future's own: wait — on this
            // task's own thread, like every other wait here — for its
            // waker or the deadline.
            std::thread::park_timeout(scope.earliest - now);
        }
    }
}

/// Requires `future` to complete before `deadline`.
pub fn timeout_at<F: Future>(deadline: Instant, future: F) -> Timeout<F> {
    Timeout {
        future: Box::pin(future),
        deadline: deadline.0,
    }
}

/// Requires `future` to complete within `duration`.
pub fn timeout<F: Future>(duration: Duration, future: F) -> Timeout<F> {
    timeout_at(Instant::now() + duration, future)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_on;
    use crate::sync::mpsc;
    use std::thread;

    const SOON: Duration = Duration::from_millis(20);
    const FAR: Duration = Duration::from_secs(30);

    #[test]
    fn a_send_that_beats_the_deadline_is_returned_on_both_receivers() {
        let began = Instant::now();
        let (tx, mut rx) = mpsc::unbounded_channel::<u32>();
        let sender = thread::spawn(move || {
            thread::sleep(SOON);
            tx.send(7).unwrap();
        });
        assert_eq!(block_on(timeout(FAR, rx.recv())), Ok(Some(7)));
        sender.join().unwrap();

        let (tx, mut rx) = mpsc::channel::<u32>(1);
        let sender = thread::spawn(move || {
            thread::sleep(SOON);
            block_on(tx.send(8)).unwrap();
        });
        assert_eq!(block_on(timeout_at(began + FAR, rx.recv())), Ok(Some(8)));
        sender.join().unwrap();
        assert!(
            began.elapsed() < FAR / 2,
            "the send, not the deadline, woke the receive"
        );
    }

    #[test]
    fn an_idle_receive_elapses_at_the_deadline_on_both_receivers() {
        let (_tx, mut rx) = mpsc::unbounded_channel::<u32>();
        let began = Instant::now();
        assert!(block_on(timeout_at(began + SOON, rx.recv())).is_err());
        assert!(began.elapsed() >= SOON);

        let (_tx, mut rx) = mpsc::channel::<u32>(1);
        let began = Instant::now();
        assert!(block_on(timeout(SOON, rx.recv())).is_err());
        assert!(began.elapsed() >= SOON);
        // The deadline belonged to that poll only: a bare receive on
        // the same thread blocks until its value again.
        let (tx, mut rx) = mpsc::unbounded_channel::<u32>();
        let sender = thread::spawn(move || {
            thread::sleep(2 * SOON);
            tx.send(9).unwrap();
        });
        assert_eq!(block_on(rx.recv()), Some(9));
        sender.join().unwrap();
    }

    #[test]
    fn a_closed_channel_ends_the_wait_before_the_deadline() {
        let (tx, mut rx) = mpsc::unbounded_channel::<u32>();
        drop(tx);
        assert_eq!(block_on(timeout(FAR, rx.recv())), Ok(None));
    }

    #[test]
    fn a_value_queued_at_an_expired_deadline_is_still_taken() {
        let past = Instant::now();
        let (tx, mut rx) = mpsc::unbounded_channel::<u32>();
        tx.send(1).unwrap();
        assert_eq!(block_on(timeout_at(past, rx.recv())), Ok(Some(1)));
        let (tx, mut rx) = mpsc::channel::<u32>(1);
        tx.try_send(2).unwrap();
        assert_eq!(block_on(timeout_at(past, rx.recv())), Ok(Some(2)));
    }

    #[test]
    fn no_message_sent_around_the_deadline_is_lost() {
        // Each round races one send against the receive's deadline;
        // whichever wins, the value comes out of this receive or the
        // next one — exactly once.
        let (tx, mut rx) = mpsc::unbounded_channel::<u32>();
        let (btx, mut brx) = mpsc::channel::<u32>(1);
        for round in 0..200u32 {
            let deadline = Instant::now() + Duration::from_micros(300);
            let (tx, btx) = (tx.clone(), btx.clone());
            let sender = thread::spawn(move || {
                while Instant::now() < deadline {
                    std::hint::spin_loop();
                }
                tx.send(round).unwrap();
                block_on(btx.send(round)).unwrap();
            });
            let got = match block_on(timeout_at(deadline, rx.recv())) {
                Ok(value) => value,
                Err(_) => block_on(rx.recv()),
            };
            assert_eq!(got, Some(round));
            let got = match block_on(timeout_at(deadline, brx.recv())) {
                Ok(value) => value,
                Err(_) => block_on(brx.recv()),
            };
            assert_eq!(got, Some(round));
            sender.join().unwrap();
        }
    }

    #[test]
    fn nested_timeouts_obey_the_earlier_deadline() {
        let (_tx, mut rx) = mpsc::unbounded_channel::<u32>();
        let began = Instant::now();
        let out = block_on(timeout(FAR, timeout(SOON, rx.recv())));
        assert_eq!(out, Ok(Err(error::Elapsed(()))));
        let out = block_on(timeout(SOON, timeout(FAR, rx.recv())));
        assert!(out.is_err());
        assert!(began.elapsed() < FAR / 2);
    }
}
