//! Off-thread egress sealing: the outbound counterpart of the ingress
//! verification stage.
//!
//! Every envelope a replica emits is Ed25519-signed, and until this
//! stage that signing ran inline on the event-loop thread — serial
//! with ordering steps and inbound deliveries, exactly the cost the
//! ingress pool removed from the receive side. The sealer pool moves
//! it onto `seal_pool` dedicated worker lanes:
//!
//! * **off the critical path** — the event loop encodes the payload
//!   (into a recycled [`BufferPool`] buffer, wrapped once as a
//!   refcounted [`Payload`]), submits a seal job, and returns to the
//!   next event without touching the signature;
//! * **one job at a time** — a lane signs each payload as it arrives
//!   and replies at once. A signature computes its nonce commitment
//!   from the fixed-base table (≈ 20 µs, see
//!   `spotless-crypto::signing`) whether it is alone or one of many,
//!   so draining the queue into a batch would buy no arithmetic and
//!   only hold the head job's envelope back behind the jobs drained
//!   with it.
//!
//! **Ordering contract:** sends leave the replica in submission order
//! — globally, hence per destination. Seal jobs fan out round-robin
//! across lanes and complete in any order, but a single **emitter**
//! task holds the submission-order queue of completion handles and
//! performs the actual [`Fabric::send`] fan-out strictly in that
//! order. A destination therefore observes exactly the sequence the
//! protocol emitted, same as inline sealing. Loopback self-delivery
//! never enters this stage (it carries no signature at all).
//!
//! **Failure contract:** if a sealer lane dies mid-job (its reply
//! channel drops unresolved), the emitter **skips that envelope and
//! moves on** — a lane failure drops its envelope, it never reorders
//! or stalls a destination. Consensus retransmission (Υ retries, Ask
//! recovery, client timeouts) owns end-to-end delivery, exactly as it
//! does for fabric-level loss.
//!
//! The sealed frame is handed to the transport with **zero copies**:
//! the payload bytes are encoded once into the pooled buffer, the
//! [`Payload`] view is refcounted through signing, the emitter, and
//! every per-destination [`Envelope`] clone, and the buffer returns to
//! the pool when the last send completes.

use crate::envelope::{BufferPool, Envelope, Payload};
use crate::fabric::Fabric;
use spotless_crypto::KeyStore;
use spotless_types::ReplicaId;
use tokio::sync::{mpsc, oneshot};

/// Where a sealed envelope goes.
pub(crate) enum Fanout {
    /// One peer.
    To(ReplicaId),
    /// Every peer but this replica (self-delivery is a loopback event,
    /// never a sealed frame).
    Broadcast,
}

/// One payload awaiting a signature on a sealer lane.
struct SealJob {
    payload: Payload,
    reply: oneshot::Sender<Envelope>,
}

/// One submitted send, queued at the emitter in submission order.
struct PendingSend {
    ready: oneshot::Receiver<Envelope>,
    fanout: Fanout,
}

/// The egress sealing stage: `seal_pool` signer lanes plus one ordered
/// emitter. Owned by the event loop; dropping it closes the lanes and
/// the emitter drains what was already submitted.
pub(crate) struct EgressPool {
    lanes: Vec<mpsc::UnboundedSender<SealJob>>,
    /// Round-robin lane cursor.
    next: usize,
    ordered: mpsc::UnboundedSender<PendingSend>,
    /// Recycled payload buffers: encode → sign → send → back here.
    pub(crate) buffers: BufferPool,
}

impl EgressPool {
    /// Spawns `workers` (≥ 1) sealer lanes and the ordered emitter.
    /// Must be called inside a tokio runtime context.
    pub(crate) fn spawn<F: Fabric>(
        workers: usize,
        keystore: KeyStore,
        fabric: F,
        me: ReplicaId,
        n: u32,
    ) -> EgressPool {
        let workers = workers.max(1);
        let mut lanes = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = mpsc::unbounded_channel::<SealJob>();
            lanes.push(tx);
            tokio::spawn(seal_lane(keystore.clone(), rx));
        }
        let (ordered, ordered_rx) = mpsc::unbounded_channel::<PendingSend>();
        tokio::spawn(emitter(fabric, me, n, ordered_rx));
        EgressPool {
            lanes,
            next: 0,
            ordered,
            buffers: BufferPool::default(),
        }
    }

    /// Submits one encoded payload for sealing and eventual fan-out.
    /// Non-blocking; the send happens in submission order once a lane
    /// has signed it.
    pub(crate) fn submit(&mut self, payload: Payload, fanout: Fanout) {
        let (reply, ready) = oneshot::channel();
        // Emitter first: the ordered queue position is claimed before
        // the job can possibly complete.
        let _ = self.ordered.send(PendingSend { ready, fanout });
        let lane = self.next % self.lanes.len();
        self.next = self.next.wrapping_add(1);
        let _ = self.lanes[lane].send(SealJob { payload, reply });
    }
}

/// One sealer lane: sign each job as it arrives, reply per job.
async fn seal_lane(keystore: KeyStore, mut rx: mpsc::UnboundedReceiver<SealJob>) {
    while let Some(job) = rx.recv().await {
        let env = Envelope::seal_payload(&keystore, job.payload);
        let _ = job.reply.send(env);
    }
}

/// The ordered emitter: awaits each submitted job's envelope in
/// submission order and performs the fabric fan-out. A dropped reply
/// (dead lane) skips that envelope — drop, never reorder.
async fn emitter<F: Fabric>(
    fabric: F,
    me: ReplicaId,
    n: u32,
    mut rx: mpsc::UnboundedReceiver<PendingSend>,
) {
    while let Some(pending) = rx.recv().await {
        // A RecvError means the sealer lane died: drop this envelope
        // only — the next pending send still emits in order.
        let Ok(env) = pending.ready.await else {
            continue;
        };
        match pending.fanout {
            Fanout::To(to) => fabric.send(to, env),
            Fanout::Broadcast => {
                for r in 0..n {
                    if r != me.0 {
                        fabric.send(ReplicaId(r), env.clone());
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::encode_catchup_req;
    use std::sync::{Arc, Mutex};

    /// A fabric that records every delivery in arrival order.
    #[derive(Clone, Default)]
    struct RecordingFabric {
        sent: Arc<Mutex<Vec<(ReplicaId, Envelope)>>>,
    }

    impl Fabric for RecordingFabric {
        fn send(&self, to: ReplicaId, env: Envelope) {
            self.sent.lock().unwrap().push((to, env));
        }
    }

    /// Sends submitted across many lanes must hit the fabric in
    /// submission order, per destination and globally, every envelope
    /// carrying a signature its peers accept.
    #[tokio::test(flavor = "multi_thread")]
    async fn sealed_sends_arrive_in_submission_order() {
        let stores = KeyStore::cluster(b"egress-test", 4);
        let fabric = RecordingFabric::default();
        let mut pool = EgressPool::spawn(3, stores[1].clone(), fabric.clone(), ReplicaId(1), 4);

        const SENDS: u64 = 200;
        for h in 0..SENDS {
            let payload = Payload::new(encode_catchup_req(h));
            let fanout = if h % 5 == 0 {
                Fanout::Broadcast
            } else {
                Fanout::To(ReplicaId((h % 3) as u32 * 2 % 4)) // peers 0 and 2
            };
            pool.submit(payload, fanout);
        }

        // The emitter drains in order; poll until everything arrived.
        let expect_total: usize = (0..SENDS).map(|h| if h % 5 == 0 { 3 } else { 1 }).sum();
        for _ in 0..500 {
            if fabric.sent.lock().unwrap().len() >= expect_total {
                break;
            }
            tokio::time::sleep(std::time::Duration::from_millis(2)).await;
        }

        let sent = fabric.sent.lock().unwrap();
        assert_eq!(sent.len(), expect_total);
        // Global submission order: the decoded heights are
        // non-decreasing (broadcast fan-out repeats a height).
        let mut last = 0u64;
        for (_, env) in sent.iter() {
            assert!(env.verify(&stores[0]).is_ok(), "bad egress signature");
            let h = match crate::envelope::decode::<u64>(&env.payload) {
                Some(crate::envelope::WireMsg::CatchUpReq { from_height }) => from_height,
                _ => panic!("unexpected payload"),
            };
            assert!(h >= last, "send order violated: {h} after {last}");
            last = h;
        }
        // A broadcast from replica 1 in a 4-cluster reaches 0, 2, 3.
        let bcast: Vec<ReplicaId> = sent
            .iter()
            .filter(|(_, e)| {
                matches!(
                    crate::envelope::decode::<u64>(&e.payload),
                    Some(crate::envelope::WireMsg::CatchUpReq { from_height: 0 })
                )
            })
            .map(|(to, _)| *to)
            .collect();
        assert_eq!(bcast, vec![ReplicaId(0), ReplicaId(2), ReplicaId(3)]);
    }

    /// A seal job whose lane never replies (dropped sender) is skipped:
    /// later sends still flow, in order, and nothing stalls.
    #[tokio::test(flavor = "multi_thread")]
    async fn dropped_seal_job_is_skipped_not_reordered() {
        let stores = KeyStore::cluster(b"egress-drop-test", 4);
        let fabric = RecordingFabric::default();
        let (ordered, ordered_rx) = mpsc::unbounded_channel::<PendingSend>();
        tokio::spawn(emitter(fabric.clone(), ReplicaId(1), 4, ordered_rx));

        // Job 0: reply dropped without sealing (simulated dead lane).
        let (dead_reply, dead_ready) = oneshot::channel::<Envelope>();
        drop(dead_reply);
        assert!(ordered
            .send(PendingSend {
                ready: dead_ready,
                fanout: Fanout::To(ReplicaId(0)),
            })
            .is_ok());
        // Job 1: sealed normally.
        let (reply, ready) = oneshot::channel::<Envelope>();
        reply
            .send(Envelope::seal(&stores[1], encode_catchup_req(7)))
            .ok()
            .unwrap();
        assert!(ordered
            .send(PendingSend {
                ready,
                fanout: Fanout::To(ReplicaId(2)),
            })
            .is_ok());

        for _ in 0..500 {
            if !fabric.sent.lock().unwrap().is_empty() {
                break;
            }
            tokio::time::sleep(std::time::Duration::from_millis(2)).await;
        }
        let sent = fabric.sent.lock().unwrap();
        assert_eq!(sent.len(), 1, "dead job dropped, live job delivered");
        assert_eq!(sent[0].0, ReplicaId(2));
    }
}
