//! Ingress verification: the one task that reads a replica's inbound
//! fabric channel checks every [`Envelope`] signature *before* the
//! envelope reaches the event loop.
//!
//! Every envelope carries a real Ed25519 signature; checking it on the
//! event-loop thread would put a ≈ 30 µs verification in series with
//! ordering, execution handoff and outbound sealing for every inbound
//! message. The ingress task takes that cost off the loop and batches
//! it: it awaits one envelope, takes whatever else is already queued up
//! to [`MAX_VERIFY_BATCH`], and checks the run in one
//! [`KeyStore::verify_batch_refs`] call, which folds repeated signers
//! into one walk of each signer's table. A lone envelope takes the same
//! call — `verify_batch` itself verifies short batches serially — and
//! the task falls back to per-envelope checks only when a batch fails,
//! to attribute blame.
//!
//! **Ordering contract:** arrival order is preserved globally, not just
//! per sender. One task reads, verifies and forwards, so the event loop
//! sees the surviving envelopes in exactly the order the fabric
//! delivered them.
//!
//! **Failure contract:** a forged, corrupted, or unknown-signer
//! envelope is dropped here, counted in [`NetStats::msgs_rejected`]
//! before anything that arrived after it is forwarded, and nothing
//! downstream ever sees it — a flood of garbage costs ingress time,
//! never event-loop time, and cannot reorder the valid traffic around
//! it.

use crate::envelope::Envelope;
use crate::observe::NetStats;
use crate::runtime::Event;
use spotless_crypto::{KeyStore, Signature};
use spotless_types::ReplicaId;
use tokio::sync::mpsc;

/// Most envelopes folded into one batch verification. Bounds both the
/// latency the first envelope of a run accrues behind the rest and the
/// work thrown away when a batch contains one bad signature.
pub(crate) const MAX_VERIFY_BATCH: usize = 32;

/// Spawns the ingress task: drains the fabric's inbound channel in runs
/// of at most [`MAX_VERIFY_BATCH`], verifies each run, and feeds the
/// survivors into `events` in arrival order. Counts every arrival into
/// `net` (received) and every drop (rejected).
pub(crate) fn spawn_ingress<M: Send + 'static>(
    keystore: KeyStore,
    mut envelopes: mpsc::UnboundedReceiver<Envelope>,
    events: mpsc::UnboundedSender<Event<M>>,
    net: NetStats,
) {
    tokio::spawn(async move {
        let mut batch = Vec::with_capacity(MAX_VERIFY_BATCH);
        while let Some(env) = envelopes.recv().await {
            batch.push(env);
            while batch.len() < MAX_VERIFY_BATCH {
                let Some(env) = envelopes.try_recv() else {
                    break;
                };
                batch.push(env);
            }
            for env in &batch {
                net.record_recv(env.payload.len());
            }
            if !verify_and_forward(&keystore, &events, &net, &mut batch) {
                return;
            }
        }
    });
}

/// Verifies one run in a single [`KeyStore::verify_batch_refs`] call,
/// borrowing payload bytes in place, and forwards the survivors in
/// arrival order, leaving `batch` empty. A single bad signature fails
/// the call, and only then does the task pay serial verification to
/// attribute blame. Returns false once the event queue is gone.
fn verify_and_forward<M: Send + 'static>(
    keystore: &KeyStore,
    events: &mpsc::UnboundedSender<Event<M>>,
    net: &NetStats,
    batch: &mut Vec<Envelope>,
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
    use crate::envelope::{decode, encode_catchup_req, WireMsg};

    /// A running ingress task over a fresh channel pair, verifying as
    /// replica 0 of a 4-replica cluster.
    struct Harness {
        stores: Vec<KeyStore>,
        input: mpsc::UnboundedSender<Envelope>,
        output: mpsc::UnboundedReceiver<Event<u64>>,
        net: NetStats,
    }

    impl Harness {
        fn spawn(salt: &[u8]) -> Harness {
            let stores = KeyStore::cluster(salt, 4);
            let (input, envelopes) = mpsc::unbounded_channel();
            let (events, output) = mpsc::unbounded_channel();
            let net = NetStats::default();
            spawn_ingress(stores[0].clone(), envelopes, events, net.clone());
            Harness {
                stores,
                input,
                output,
                net,
            }
        }

        /// Sends `height` as a catch-up request sealed by `from`,
        /// forged (a garbage signature over the same payload) if asked.
        fn send(&self, from: usize, height: u64, forged: bool) {
            let mut env = Envelope::seal(&self.stores[from], encode_catchup_req(height));
            if forged {
                env.sig = Signature([0xAB; 64]);
            }
            self.input.send(env).unwrap();
        }

        /// The next forwarded envelope's sender and height, checked to
        /// carry a signature replica 0 accepts.
        async fn next(&mut self) -> (ReplicaId, u64) {
            let Some(Event::Envelope(env)) = self.output.recv().await else {
                panic!("ingress closed early");
            };
            assert!(
                env.verify(&self.stores[0]).is_ok(),
                "forged envelope leaked"
            );
            match decode::<u64>(&env.payload) {
                Some(WireMsg::CatchUpReq { from_height }) => (env.from, from_height),
                _ => panic!("unexpected payload"),
            }
        }
    }

    /// The height every test sends last. The ingress task counts each
    /// rejection before it forwards anything that arrived later, so once
    /// the sentinel is out the counters are final.
    const SENTINEL: u64 = u64::MAX;

    /// Forged envelopes interleaved with valid ones from the same
    /// sender: exactly the valid ones come out, in their original
    /// order, and every forgery is counted.
    #[tokio::test(flavor = "multi_thread")]
    async fn flood_of_forgeries_neither_reorders_nor_leaks() {
        let mut h = Harness::spawn(b"ingress-forgery-test");
        let mut expected = Vec::new();
        for height in 0..200u64 {
            let forged = height % 2 == 1;
            h.send(2, height, forged);
            if !forged {
                expected.push((ReplicaId(2), height));
            }
        }
        h.send(3, SENTINEL, false);
        expected.push((ReplicaId(3), SENTINEL));

        let mut got = Vec::new();
        while got.last() != Some(&(ReplicaId(3), SENTINEL)) {
            got.push(h.next().await);
        }
        assert_eq!(got, expected, "valid traffic must survive in order");
        assert_eq!(h.net.msgs_rejected(), 100);
        assert_eq!(h.net.msgs_recv(), 201);
    }

    /// Three senders interleaved over several batches' worth of
    /// envelopes come out in arrival order — globally, hence FIFO per
    /// sender.
    #[tokio::test(flavor = "multi_thread")]
    async fn interleaved_senders_keep_arrival_order() {
        let mut h = Harness::spawn(b"ingress-order-test");
        let mut expected = Vec::new();
        for height in 0..(5 * MAX_VERIFY_BATCH as u64) {
            // An uneven rotation, so runs mix senders unevenly.
            let from = [1, 1, 2, 3, 1, 3][height as usize % 6];
            h.send(from, height, false);
            expected.push((ReplicaId(from as u32), height));
        }
        let mut got = Vec::new();
        for _ in 0..expected.len() {
            got.push(h.next().await);
        }
        assert_eq!(got, expected);
        assert_eq!(h.net.msgs_rejected(), 0);
    }

    /// An envelope claiming an out-of-range sender is an
    /// `UnknownSigner` rejection, not a panic or a leak, and the valid
    /// envelope behind it still flows.
    #[tokio::test(flavor = "multi_thread")]
    async fn unknown_signer_is_rejected() {
        let mut h = Harness::spawn(b"ingress-unknown-test");
        let mut env = Envelope::seal(&h.stores[1], encode_catchup_req(7));
        env.from = ReplicaId(99);
        h.input.send(env).unwrap();
        h.send(1, SENTINEL, false);
        assert_eq!(h.next().await, (ReplicaId(1), SENTINEL));
        assert_eq!(h.net.msgs_rejected(), 1);
        assert_eq!(h.net.msgs_recv(), 2);
    }
}
