//! Off-thread ingress verification: a small worker pool that checks
//! inbound [`Envelope`] signatures *before* they reach the event loop.
//!
//! Every envelope carries a real Ed25519 signature; checking it on the
//! event-loop thread would put a ≈ 30 µs verification (two walks of
//! the keystore's per-signer tables) in series with ordering,
//! execution handoff, and outbound sealing for every inbound message.
//! This stage moves that cost onto `verify_pool` dedicated worker
//! tasks (thread-backed, see `compat/tokio`) and claws most of it back
//! twice over:
//!
//! * **off the critical path** — the event loop receives only
//!   pre-verified envelopes and never touches a signature again;
//! * **batched** — each worker drains a claimed sender queue
//!   opportunistically and verifies up to [`MAX_VERIFY_BATCH`]
//!   envelopes in one [`KeyStore::verify_batch_refs`] call. A claimed
//!   queue holds one sender's envelopes, which is the batch verifier's
//!   best case: the whole run shares one walk of that sender's table
//!   and one of the basepoint's. A lone envelope takes the same call —
//!   `verify_batch` itself verifies short batches serially — and the
//!   worker falls back to per-envelope checks only when a batch fails,
//!   to attribute blame (mirroring `KeyStore::filter_valid`).
//!
//! ## Work stealing
//!
//! Envelopes queue **per sender**, and workers claim whole sender
//! queues from a shared ready list: any idle worker takes the next
//! ready sender, drains up to a batch from it, verifies, forwards, and
//! releases the claim. A hot sender therefore no longer serializes the
//! pool the way static `from % workers` sharding did — while one
//! worker is busy verifying a hot sender's batch, the others keep
//! claiming every other sender, and the hot sender's *next* batch is
//! picked up by whichever worker goes idle first.
//!
//! **Ordering contract:** per-sender FIFO is preserved end to end. A
//! sender's queue is claimed by at most one worker at a time, that
//! worker forwards its batch in arrival order *before* releasing the
//! claim, and the next claim (by any worker) can only see envelopes
//! that arrived later. Cross-sender order is *not* preserved — it
//! never was; fabrics make no cross-sender guarantee — and consensus
//! protocols tolerate that by construction.
//!
//! **Failure contract:** a forged, corrupted, or unknown-signer
//! envelope is dropped here, counted in [`NetStats::msgs_rejected`],
//! and nothing downstream ever sees it — a flood of garbage costs
//! worker-pool time, never event-loop time, and cannot reorder a
//! sender's valid traffic (the claimed queue keeps draining in order
//! around the drops).

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};

use crate::envelope::Envelope;
use crate::observe::NetStats;
use crate::runtime::Event;
use spotless_crypto::{KeyStore, Signature};
use spotless_types::ReplicaId;
use tokio::sync::mpsc;

/// Most envelopes folded into one batch verification. Bounds both the
/// latency a queue's head envelope can accrue behind its batch and the
/// work thrown away when a batch contains one bad signature — and,
/// since a claim spans one batch, how long a hot sender can hold one
/// worker before the queue is back up for grabs.
pub(crate) const MAX_VERIFY_BATCH: usize = 32;

/// One sender's pending envelopes plus its scheduling state.
#[derive(Default)]
struct SenderQueue {
    queue: VecDeque<Envelope>,
    /// A worker is currently verifying a batch from this queue.
    claimed: bool,
    /// This sender is in the shared ready list (invariant: set iff
    /// unclaimed with a non-empty queue).
    ready: bool,
}

#[derive(Default)]
struct IngressState {
    senders: HashMap<usize, SenderQueue>,
    /// Senders with unclaimed, non-empty queues, in the order they
    /// became ready.
    ready: VecDeque<usize>,
    closed: bool,
}

/// Spawns the ingress verification stage: one dispatcher task reading
/// the fabric's inbound channel plus `workers` verification lanes, all
/// feeding pre-verified envelopes into `events`. Counts every arrival
/// into `net` (received) and every drop (rejected).
pub(crate) fn spawn_verify_pool<M: Send + 'static>(
    workers: usize,
    keystore: KeyStore,
    mut envelopes: mpsc::UnboundedReceiver<Envelope>,
    events: mpsc::UnboundedSender<Event<M>>,
    net: NetStats,
) {
    let workers = workers.max(1);
    let shared = Arc::new((Mutex::new(IngressState::default()), Condvar::new()));
    for _ in 0..workers {
        let shared = Arc::clone(&shared);
        let keystore = keystore.clone();
        let events = events.clone();
        let net = net.clone();
        tokio::spawn(async move { verify_worker(shared, keystore, events, net) });
    }
    tokio::spawn(async move {
        while let Some(env) = envelopes.recv().await {
            net.record_recv(env.payload.len());
            let (lock, cvar) = &*shared;
            let mut state = lock.lock().unwrap();
            let st = &mut *state;
            let sender = env.from.as_usize();
            let sq = st.senders.entry(sender).or_default();
            sq.queue.push_back(env);
            if !sq.claimed && !sq.ready {
                sq.ready = true;
                st.ready.push_back(sender);
                cvar.notify_one();
            }
        }
        let (lock, cvar) = &*shared;
        lock.lock().unwrap().closed = true;
        cvar.notify_all();
    });
}

/// One verification worker: claim a ready sender, drain a batch,
/// verify, forward in order, release — repeat.
fn verify_worker<M: Send + 'static>(
    shared: Arc<(Mutex<IngressState>, Condvar)>,
    keystore: KeyStore,
    events: mpsc::UnboundedSender<Event<M>>,
    net: NetStats,
) {
    let (lock, cvar) = &*shared;
    let mut state = lock.lock().unwrap();
    loop {
        if let Some(sender) = state.ready.pop_front() {
            let sq = state.senders.get_mut(&sender).expect("ready sender exists");
            sq.ready = false;
            sq.claimed = true;
            let take = sq.queue.len().min(MAX_VERIFY_BATCH);
            let batch: Vec<Envelope> = sq.queue.drain(..take).collect();
            drop(state);
            let alive = verify_and_forward(&keystore, &events, &net, batch);
            state = lock.lock().unwrap();
            let st = &mut *state;
            let sq = st.senders.get_mut(&sender).expect("claimed sender exists");
            sq.claimed = false;
            if !sq.queue.is_empty() {
                // More arrived while we verified: back to the ready
                // list for whichever worker is idle first.
                sq.ready = true;
                st.ready.push_back(sender);
                cvar.notify_one();
            }
            if !alive {
                return;
            }
            continue;
        }
        if state.closed {
            return;
        }
        state = cvar.wait(state).unwrap();
    }
}

/// Verifies one claimed batch in a single [`KeyStore::verify_batch_refs`]
/// call, borrowing payload bytes in place, and forwards the survivors
/// in arrival order. A claim holds one sender's envelopes, so the call
/// folds them into one walk of that sender's table; how few envelopes
/// make that worth a shared chain is `verify_batch`'s decision, not
/// this function's. A single bad signature fails the batch, and only
/// then does the worker pay serial verification to attribute blame.
/// Returns false once the event queue is gone.
fn verify_and_forward<M: Send + 'static>(
    keystore: &KeyStore,
    events: &mpsc::UnboundedSender<Event<M>>,
    net: &NetStats,
    mut batch: Vec<Envelope>,
) -> bool {
    let all_ok = {
        let refs: Vec<(ReplicaId, &[u8], &Signature)> = batch
            .iter()
            .map(|e| (e.from, e.payload.as_slice(), &e.sig))
            .collect();
        keystore.verify_batch_refs(&refs).is_ok()
    };
    for env in batch.drain(..) {
        if all_ok || env.verify(keystore).is_ok() {
            if events.send(Event::Envelope(env)).is_err() {
                return false;
            }
        } else {
            net.record_rejected(env.payload.len());
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::encode_catchup_req;
    use spotless_crypto::Signature;

    /// Drives a pool directly: interleaved valid and forged envelopes
    /// from the same sender must come out with exactly the valid ones,
    /// in their original relative order, and the forgeries counted.
    #[tokio::test(flavor = "multi_thread")]
    async fn flood_of_forgeries_neither_reorders_nor_leaks() {
        let stores = KeyStore::cluster(b"ingress-pool-test", 4);
        let (in_tx, in_rx) = mpsc::unbounded_channel::<Envelope>();
        let (ev_tx, mut ev_rx) = mpsc::unbounded_channel::<Event<u64>>();
        let net = NetStats::default();
        spawn_verify_pool(3, stores[0].clone(), in_rx, ev_tx, net.clone());

        // 200 envelopes from sender 2: even heights genuine, odd
        // heights forged (garbage signature over the same payload).
        let mut expected = Vec::new();
        for h in 0..200u64 {
            let mut env = Envelope::seal(&stores[2], encode_catchup_req(h));
            if h % 2 == 1 {
                env.sig = Signature([0xAB; 64]);
            } else {
                expected.push(h);
            }
            in_tx.send(env).unwrap();
        }
        // Interleave a second sender to exercise claim interleaving.
        for h in 1000..1050u64 {
            in_tx
                .send(Envelope::seal(&stores[3], encode_catchup_req(h)))
                .unwrap();
        }

        let mut got_from_2 = Vec::new();
        let mut got_from_3 = 0usize;
        while got_from_2.len() < 100 || got_from_3 < 50 {
            let Some(Event::Envelope(env)) = ev_rx.recv().await else {
                panic!("pool closed early");
            };
            assert!(env.verify(&stores[0]).is_ok(), "forged envelope leaked");
            let height = match crate::envelope::decode::<u64>(&env.payload) {
                Some(crate::envelope::WireMsg::CatchUpReq { from_height }) => from_height,
                _ => panic!("unexpected payload"),
            };
            if env.from == ReplicaId(2) {
                got_from_2.push(height);
            } else {
                assert_eq!(env.from, ReplicaId(3));
                got_from_3 += 1;
            }
        }
        assert_eq!(got_from_2, expected, "per-sender FIFO order must survive");
        assert_eq!(net.msgs_rejected(), 100);
        assert_eq!(net.msgs_recv(), 250);
    }

    /// One hot sender floods the pool while others trickle: the hot
    /// sender's queue bounces between workers batch by batch (claim,
    /// drain ≤ [`MAX_VERIFY_BATCH`], release — any idle worker may
    /// claim next), and its FIFO order must still hold exactly, as
    /// must every cold sender's.
    #[tokio::test(flavor = "multi_thread")]
    async fn hot_sender_fifo_survives_queue_stealing() {
        let stores = KeyStore::cluster(b"ingress-steal-test", 4);
        let (in_tx, in_rx) = mpsc::unbounded_channel::<Envelope>();
        let (ev_tx, mut ev_rx) = mpsc::unbounded_channel::<Event<u64>>();
        let net = NetStats::default();
        spawn_verify_pool(3, stores[0].clone(), in_rx, ev_tx, net.clone());

        // Sender 1 is hot: 10+ batches' worth, interleaved with cold
        // traffic from senders 2 and 3 so claims genuinely contend.
        const HOT: u64 = 12 * MAX_VERIFY_BATCH as u64;
        let mut sent = 0u64;
        for h in 0..HOT {
            in_tx
                .send(Envelope::seal(&stores[1], encode_catchup_req(h)))
                .unwrap();
            sent += 1;
            if h % 16 == 0 {
                for cold in [2usize, 3] {
                    in_tx
                        .send(Envelope::seal(
                            &stores[cold],
                            encode_catchup_req(10_000 + h),
                        ))
                        .unwrap();
                    sent += 1;
                }
            }
        }

        let mut hot_heights = Vec::new();
        let mut cold_heights: HashMap<ReplicaId, Vec<u64>> = HashMap::new();
        for _ in 0..sent {
            let Some(Event::Envelope(env)) = ev_rx.recv().await else {
                panic!("pool closed early");
            };
            let height = match crate::envelope::decode::<u64>(&env.payload) {
                Some(crate::envelope::WireMsg::CatchUpReq { from_height }) => from_height,
                _ => panic!("unexpected payload"),
            };
            if env.from == ReplicaId(1) {
                hot_heights.push(height);
            } else {
                cold_heights.entry(env.from).or_default().push(height);
            }
        }
        let expect_hot: Vec<u64> = (0..HOT).collect();
        assert_eq!(hot_heights, expect_hot, "hot sender FIFO must survive");
        for (_, heights) in cold_heights {
            assert!(
                heights.windows(2).all(|w| w[0] < w[1]),
                "cold sender FIFO must survive"
            );
        }
        assert_eq!(net.msgs_rejected(), 0);
    }

    /// An envelope claiming an out-of-range sender is an
    /// `UnknownSigner` rejection, not a panic or a leak.
    #[tokio::test(flavor = "multi_thread")]
    async fn unknown_signer_is_rejected() {
        let stores = KeyStore::cluster(b"ingress-pool-test", 4);
        let (in_tx, in_rx) = mpsc::unbounded_channel::<Envelope>();
        let (ev_tx, mut ev_rx) = mpsc::unbounded_channel::<Event<u64>>();
        let net = NetStats::default();
        spawn_verify_pool(2, stores[0].clone(), in_rx, ev_tx, net.clone());

        let mut env = Envelope::seal(&stores[1], encode_catchup_req(7));
        env.from = ReplicaId(99);
        in_tx.send(env).unwrap();
        // A genuine envelope behind it still flows.
        in_tx
            .send(Envelope::seal(&stores[1], encode_catchup_req(8)))
            .unwrap();
        let Some(Event::Envelope(env)) = ev_rx.recv().await else {
            panic!("pool closed early");
        };
        assert_eq!(env.from, ReplicaId(1));
        assert_eq!(net.msgs_rejected(), 1);
    }
}
