//! `mpsc` (bounded + unbounded) and `oneshot` channels whose send and
//! receive futures block inside `poll` — each task owns a thread, so
//! blocking is harmless. The two `mpsc` receives bound their wait by
//! the deadline of an enclosing [`crate::time::timeout`]. An `mpsc`
//! send wakes the receiver only when it is parked, and a bounded
//! receive wakes a sender only when one is blocked on a full queue.

/// Multi-producer single-consumer channels.
pub mod mpsc {
    use crate::time::wait_in_deadline;
    use std::collections::VecDeque;
    use std::future::poll_fn;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::task::Poll;

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receiver_alive: bool,
        /// The receiver is waiting on `ready` (see [`park`]). A send
        /// notifies only then: every notify is a futex syscall.
        parked: bool,
        /// Bounded senders waiting on `space` for room in a full queue.
        /// A receive notifies only while one is, for the same reason.
        blocked: usize,
    }

    impl<T> State<T> {
        fn new() -> State<T> {
            State {
                queue: VecDeque::new(),
                senders: 1,
                receiver_alive: true,
                parked: false,
                blocked: 0,
            }
        }
    }

    /// One bounded wait of a receive (see [`wait_in_deadline`]), with
    /// `parked` raised for exactly its length. The flag is read and
    /// written under the lock, and the wait releases the lock
    /// atomically, so a sender that sees it clear knows the receiver
    /// will re-check the queue before it next waits. `None` once the
    /// deadline has passed.
    fn park<'a, T>(
        ready: &Condvar,
        mut state: MutexGuard<'a, State<T>>,
    ) -> Option<MutexGuard<'a, State<T>>> {
        state.parked = true;
        let (mut state, waited) = match wait_in_deadline(ready, state) {
            Ok(state) => (state, true),
            Err(state) => (state, false),
        };
        state.parked = false;
        waited.then_some(state)
    }

    struct Chan<T> {
        state: Mutex<State<T>>,
        ready: Condvar,
    }

    /// Sending half.
    pub struct UnboundedSender<T> {
        chan: Arc<Chan<T>>,
    }

    /// Receiving half.
    pub struct UnboundedReceiver<T> {
        chan: Arc<Chan<T>>,
    }

    /// The receiver was dropped; the value comes back.
    #[derive(Debug)]
    pub struct SendError<T>(pub T);

    impl<T> std::fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "channel closed")
        }
    }

    /// Creates an unbounded channel.
    pub fn unbounded_channel<T>() -> (UnboundedSender<T>, UnboundedReceiver<T>) {
        let chan = Arc::new(Chan {
            state: Mutex::new(State::new()),
            ready: Condvar::new(),
        });
        (
            UnboundedSender { chan: chan.clone() },
            UnboundedReceiver { chan },
        )
    }

    impl<T> UnboundedSender<T> {
        /// Enqueues `value`; fails iff the receiver is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut state = self.chan.state.lock().unwrap();
            if !state.receiver_alive {
                return Err(SendError(value));
            }
            state.queue.push_back(value);
            if state.parked {
                self.chan.ready.notify_one();
            }
            Ok(())
        }
    }

    impl<T> Clone for UnboundedSender<T> {
        fn clone(&self) -> Self {
            self.chan.state.lock().unwrap().senders += 1;
            UnboundedSender {
                chan: self.chan.clone(),
            }
        }
    }

    impl<T> Drop for UnboundedSender<T> {
        fn drop(&mut self) {
            let mut state = self.chan.state.lock().unwrap();
            state.senders -= 1;
            if state.senders == 0 {
                self.chan.ready.notify_all();
            }
        }
    }

    impl<T> UnboundedReceiver<T> {
        /// Waits for the next value; `None` once all senders are dropped
        /// and the queue is drained. Under [`crate::time::timeout`] the
        /// wait ends at the deadline with the queue untouched.
        pub async fn recv(&mut self) -> Option<T> {
            poll_fn(|_| {
                let mut state = self.chan.state.lock().unwrap();
                loop {
                    if let Some(value) = state.queue.pop_front() {
                        return Poll::Ready(Some(value));
                    }
                    if state.senders == 0 {
                        return Poll::Ready(None);
                    }
                    match park(&self.chan.ready, state) {
                        Some(woken) => state = woken,
                        None => return Poll::Pending,
                    }
                }
            })
            .await
        }

        /// Non-blocking variant.
        pub fn try_recv(&mut self) -> Option<T> {
            self.chan.state.lock().unwrap().queue.pop_front()
        }
    }

    impl<T> Drop for UnboundedReceiver<T> {
        fn drop(&mut self) {
            let mut state = self.chan.state.lock().unwrap();
            state.receiver_alive = false;
            // Like tokio, what is still queued goes with the receiver
            // rather than with the last (possibly long-lived) sender.
            let queued = std::mem::take(&mut state.queue);
            drop(state);
            drop(queued);
        }
    }

    struct BoundedChan<T> {
        state: Mutex<State<T>>,
        capacity: usize,
        /// Signalled when the queue gains an item (wakes the receiver).
        ready: Condvar,
        /// Signalled when the queue loses an item while a sender is
        /// blocked on it.
        space: Condvar,
    }

    impl<T> BoundedChan<T> {
        /// Wakes a blocked sender, if any, after an item left `state`.
        fn freed(&self, state: &State<T>) {
            if state.blocked > 0 {
                self.space.notify_one();
            }
        }
    }

    /// Sending half of a bounded channel.
    pub struct Sender<T> {
        chan: Arc<BoundedChan<T>>,
    }

    /// Receiving half of a bounded channel.
    pub struct Receiver<T> {
        chan: Arc<BoundedChan<T>>,
    }

    /// [`Sender::try_send`] failure.
    #[derive(Debug)]
    pub enum TrySendError<T> {
        /// The queue is at capacity; the value comes back.
        Full(T),
        /// The receiver was dropped; the value comes back.
        Closed(T),
    }

    /// Creates a bounded channel holding at most `capacity` queued values.
    /// Sends block (the calling task's thread) while the queue is full —
    /// the backpressure a bounded queue exists to provide.
    pub fn channel<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        assert!(capacity > 0, "bounded channel needs capacity >= 1");
        let chan = Arc::new(BoundedChan {
            state: Mutex::new(State::new()),
            capacity,
            ready: Condvar::new(),
            space: Condvar::new(),
        });
        (Sender { chan: chan.clone() }, Receiver { chan })
    }

    impl<T> Sender<T> {
        /// Enqueues `value`, waiting while the queue is full; fails iff
        /// the receiver is gone.
        pub async fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut state = self.chan.state.lock().unwrap();
            loop {
                if !state.receiver_alive {
                    return Err(SendError(value));
                }
                if state.queue.len() < self.chan.capacity {
                    state.queue.push_back(value);
                    if state.parked {
                        self.chan.ready.notify_one();
                    }
                    return Ok(());
                }
                // Counted under the lock, which the wait releases
                // atomically: a receive that sees the count finds this
                // sender waiting.
                state.blocked += 1;
                state = self.chan.space.wait(state).unwrap();
                state.blocked -= 1;
            }
        }

        /// Non-blocking send: fails with [`TrySendError::Full`] instead
        /// of waiting.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let mut state = self.chan.state.lock().unwrap();
            if !state.receiver_alive {
                return Err(TrySendError::Closed(value));
            }
            if state.queue.len() >= self.chan.capacity {
                return Err(TrySendError::Full(value));
            }
            state.queue.push_back(value);
            if state.parked {
                self.chan.ready.notify_one();
            }
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.chan.state.lock().unwrap().senders += 1;
            Sender {
                chan: self.chan.clone(),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.chan.state.lock().unwrap();
            state.senders -= 1;
            if state.senders == 0 {
                self.chan.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Waits for the next value; `None` once all senders are dropped
        /// and the queue is drained. Under [`crate::time::timeout`] the
        /// wait ends at the deadline with the queue untouched.
        pub async fn recv(&mut self) -> Option<T> {
            poll_fn(|_| {
                let mut state = self.chan.state.lock().unwrap();
                loop {
                    if let Some(value) = state.queue.pop_front() {
                        self.chan.freed(&state);
                        return Poll::Ready(Some(value));
                    }
                    if state.senders == 0 {
                        return Poll::Ready(None);
                    }
                    match park(&self.chan.ready, state) {
                        Some(woken) => state = woken,
                        None => return Poll::Pending,
                    }
                }
            })
            .await
        }

        /// Non-blocking variant.
        pub fn try_recv(&mut self) -> Option<T> {
            let mut state = self.chan.state.lock().unwrap();
            let value = state.queue.pop_front();
            if value.is_some() {
                self.chan.freed(&state);
            }
            value
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.chan.state.lock().unwrap().receiver_alive = false;
            // Senders blocked on a full queue must observe the closure.
            self.chan.space.notify_all();
        }
    }

    #[cfg(test)]
    mod tests {
        #[test]
        fn bounded_channel_backpressures_and_drains() {
            let (tx, mut rx) = super::channel::<u32>(2);
            tx.try_send(1).unwrap();
            tx.try_send(2).unwrap();
            assert!(matches!(tx.try_send(3), Err(super::TrySendError::Full(3))));
            assert_eq!(rx.try_recv(), Some(1));
            tx.try_send(3).unwrap();
            assert_eq!(rx.try_recv(), Some(2));
            assert_eq!(rx.try_recv(), Some(3));
            assert_eq!(rx.try_recv(), None);
        }

        #[test]
        fn bounded_send_blocks_until_space() {
            let (tx, mut rx) = super::channel::<u32>(1);
            crate::block_on(tx.send(1)).unwrap();
            let tx2 = tx.clone();
            let t = std::thread::spawn(move || crate::block_on(tx2.send(2)));
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert_eq!(crate::block_on(rx.recv()), Some(1));
            t.join().unwrap().unwrap();
            assert_eq!(crate::block_on(rx.recv()), Some(2));
        }

        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        const SENDERS: usize = 3;
        const PER_SENDER: u64 = 2_000;

        /// Per sender, how many of its values the receiver has taken.
        type Acks = Arc<[AtomicU64; SENDERS]>;

        /// Starts `SENDERS` threads that each push `PER_SENDER` values
        /// through `send`. After every other value a sender waits until
        /// the receiver has taken it, so the receiver keeps running dry
        /// and parking — and a wake-up it misses leaves every thread
        /// waiting.
        fn spawn_senders<S: Clone + Send + 'static>(
            tx: S,
            send: fn(&S, u64),
            acks: &Acks,
        ) -> Vec<std::thread::JoinHandle<()>> {
            (0..SENDERS)
                .map(|s| {
                    let (tx, acks) = (tx.clone(), acks.clone());
                    std::thread::spawn(move || {
                        for i in 0..PER_SENDER {
                            send(&tx, s as u64 * PER_SENDER + i);
                            if i % 2 == 0 {
                                while acks[s].load(Ordering::Acquire) <= i {
                                    std::thread::yield_now();
                                }
                            }
                        }
                    })
                })
                .collect()
        }

        /// Receives every value, cycling `take` through its modes by
        /// round, on a thread given a minute: a lost wake-up leaves a
        /// bare receive blocked for good, which fails the test instead
        /// of hanging it. Checks each sender's values arrive complete
        /// and in order, acknowledging each.
        fn receive_all(acks: Acks, mut take: impl FnMut(u64) -> Option<u64> + Send + 'static) {
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let mut left = SENDERS as u64 * PER_SENDER;
                let mut round = 0;
                while left > 0 {
                    round += 1;
                    let Some(v) = take(round) else { continue };
                    let (s, i) = ((v / PER_SENDER) as usize, v % PER_SENDER);
                    assert_eq!(
                        i,
                        acks[s].load(Ordering::Relaxed),
                        "sender {s} out of order"
                    );
                    acks[s].store(i + 1, Ordering::Release);
                    left -= 1;
                }
                done_tx.send(()).unwrap();
            });
            done_rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .expect("the receiver failed, or a lost wake-up left it blocked");
        }

        /// A deadline short enough that many receives time out while
        /// parked.
        fn soon() -> crate::time::Instant {
            crate::time::Instant::now() + std::time::Duration::from_micros(30)
        }

        /// Sends notify only a parked receiver. Against a receiver that
        /// by turns polls busily (never parked), parks in a bare
        /// receive, and parks under a deadline that often passes first,
        /// every value must still arrive.
        #[test]
        fn no_wake_up_is_lost_to_a_receiver_that_parks_and_unparks() {
            use crate::block_on;
            use crate::time::timeout_at;

            let acks = Acks::default();
            let (tx, mut rx) = super::unbounded_channel::<u64>();
            let senders = spawn_senders(tx, |tx, v| tx.send(v).unwrap(), &acks);
            receive_all(acks, move |round| match round % 3 {
                0 => rx.try_recv(),
                1 => block_on(rx.recv()),
                _ => block_on(timeout_at(soon(), rx.recv())).ok().flatten(),
            });
            senders.into_iter().for_each(|t| t.join().unwrap());

            let acks = Acks::default();
            let (tx, mut rx) = super::channel::<u64>(8);
            let senders = spawn_senders(tx, |tx, v| block_on(tx.send(v)).unwrap(), &acks);
            receive_all(acks, move |round| match round % 3 {
                0 => rx.try_recv(),
                1 => block_on(rx.recv()),
                _ => block_on(timeout_at(soon(), rx.recv())).ok().flatten(),
            });
            senders.into_iter().for_each(|t| t.join().unwrap());
        }

        /// Receives notify `space` only while a sender is blocked on
        /// it. A sender blocked on a full queue must still wake, whether
        /// the receiver takes the value with `recv` or `try_recv`.
        #[test]
        fn a_sender_blocked_on_a_full_queue_wakes_on_either_receive() {
            for via_try in [false, true] {
                let (tx, mut rx) = super::channel::<u32>(1);
                tx.try_send(1).unwrap();
                let tx2 = tx.clone();
                let (done_tx, done_rx) = std::sync::mpsc::channel();
                std::thread::spawn(move || {
                    done_tx.send(crate::block_on(tx2.send(2))).unwrap();
                });
                while tx.chan.state.lock().unwrap().blocked == 0 {
                    std::thread::yield_now();
                }
                let first = if via_try {
                    rx.try_recv()
                } else {
                    crate::block_on(rx.recv())
                };
                assert_eq!(first, Some(1));
                done_rx
                    .recv_timeout(std::time::Duration::from_secs(10))
                    .expect("the blocked sender never woke")
                    .unwrap();
                assert_eq!(rx.try_recv(), Some(2));
                assert_eq!(tx.chan.state.lock().unwrap().blocked, 0);
            }
        }

        #[test]
        fn bounded_send_fails_once_receiver_drops() {
            let (tx, rx) = super::channel::<u32>(1);
            drop(rx);
            assert!(crate::block_on(tx.send(7)).is_err());
            assert!(matches!(
                tx.try_send(8),
                Err(super::TrySendError::Closed(8))
            ));
        }
    }
}

/// One-shot value channel.
pub mod oneshot {
    use std::future::Future;
    use std::pin::Pin;
    use std::sync::{Arc, Condvar, Mutex};
    use std::task::{Context, Poll};

    struct State<T> {
        value: Option<T>,
        sender_alive: bool,
        receiver_alive: bool,
    }

    struct Chan<T> {
        state: Mutex<State<T>>,
        ready: Condvar,
    }

    /// Sending half (consumed by [`Sender::send`]).
    pub struct Sender<T> {
        chan: Arc<Chan<T>>,
        sent: bool,
    }

    /// Receiving half; awaiting it yields `Result<T, RecvError>`.
    pub struct Receiver<T> {
        chan: Arc<Chan<T>>,
    }

    /// The sender was dropped without sending.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    impl std::fmt::Display for RecvError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "oneshot sender dropped")
        }
    }

    impl std::error::Error for RecvError {}

    /// Creates a oneshot channel.
    pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            state: Mutex::new(State {
                value: None,
                sender_alive: true,
                receiver_alive: true,
            }),
            ready: Condvar::new(),
        });
        (
            Sender {
                chan: chan.clone(),
                sent: false,
            },
            Receiver { chan },
        )
    }

    impl<T> Sender<T> {
        /// Delivers `value`; fails (returning it) if the receiver is gone.
        pub fn send(mut self, value: T) -> Result<(), T> {
            let mut state = self.chan.state.lock().unwrap();
            if !state.receiver_alive {
                return Err(value);
            }
            state.value = Some(value);
            self.sent = true;
            self.chan.ready.notify_all();
            Ok(())
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if !self.sent {
                self.chan.state.lock().unwrap().sender_alive = false;
                self.chan.ready.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.chan.state.lock().unwrap().receiver_alive = false;
        }
    }

    impl<T> Future for Receiver<T> {
        type Output = Result<T, RecvError>;

        fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
            let mut state = self.chan.state.lock().unwrap();
            loop {
                if let Some(value) = state.value.take() {
                    return Poll::Ready(Ok(value));
                }
                if !state.sender_alive {
                    return Poll::Ready(Err(RecvError));
                }
                state = self.chan.ready.wait(state).unwrap();
            }
        }
    }
}
