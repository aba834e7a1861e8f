//! Egress sealing: the one lane that signs a replica's outbound
//! envelopes and hands them to the fabric, off the event-loop thread.
//!
//! Every envelope a replica emits is Ed25519-signed. The event loop
//! encodes the payload (into a recycled [`BufferPool`] buffer, wrapped
//! once as a refcounted [`Payload`]), submits it with its fan-out, and
//! returns to the next event without touching the signature. The lane
//! signs each job as it arrives — a signature computes its nonce
//! commitment from the fixed-base table (≈ 20 µs, see
//! `spotless-crypto::signing`) whether it is alone or one of many, so
//! there is nothing to batch — and performs the [`Fabric::send`]
//! fan-out itself.
//!
//! **Ordering contract:** sends leave the replica in submission order
//! — globally, hence per destination. One lane signs and sends in the
//! order the loop submitted, so a destination observes exactly the
//! sequence the protocol emitted. Loopback self-delivery never enters
//! this stage (it carries no signature at all).
//!
//! **Failure contract:** signing cannot fail and [`Fabric::send`] is
//! fire-and-forget, so the lane reports nothing back; a frame the
//! fabric loses is recovered by consensus retransmission (Υ retries,
//! Ask recovery, client timeouts), as for any lost packet.
//!
//! The sealed frame is handed to the transport with **zero copies**:
//! the payload bytes are encoded once into the pooled buffer, the
//! [`Payload`] view is refcounted through signing and every
//! per-destination [`Envelope`] clone, and the buffer returns to the
//! pool when the last send completes.

use crate::envelope::{BufferPool, Envelope, Payload};
use crate::fabric::Fabric;
use spotless_crypto::KeyStore;
use spotless_types::ReplicaId;
use tokio::sync::mpsc;

/// Where a sealed envelope goes.
pub(crate) enum Fanout {
    /// One peer.
    To(ReplicaId),
    /// Every peer but this replica (self-delivery is a loopback event,
    /// never a sealed frame).
    Broadcast,
}

/// The egress stage: one lane fed in submission order. Owned by the
/// event loop; dropping it closes the lane once it has sent what was
/// already submitted.
pub(crate) struct Egress {
    jobs: mpsc::UnboundedSender<(Payload, Fanout)>,
    /// Recycled payload buffers: encode → sign → send → back here.
    pub(crate) buffers: BufferPool,
}

impl Egress {
    /// Spawns the lane. Must be called inside a tokio runtime context.
    pub(crate) fn spawn<F: Fabric>(keystore: KeyStore, fabric: F, me: ReplicaId, n: u32) -> Egress {
        let (jobs, rx) = mpsc::unbounded_channel();
        tokio::spawn(lane(keystore, fabric, me, n, rx));
        Egress {
            jobs,
            buffers: BufferPool::default(),
        }
    }

    /// Submits one encoded payload for sealing and fan-out.
    /// Non-blocking.
    pub(crate) fn submit(&self, payload: Payload, fanout: Fanout) {
        let _ = self.jobs.send((payload, fanout));
    }
}

/// The lane: sign each job as it arrives and fan it out.
async fn lane<F: Fabric>(
    keystore: KeyStore,
    fabric: F,
    me: ReplicaId,
    n: u32,
    mut jobs: mpsc::UnboundedReceiver<(Payload, Fanout)>,
) {
    while let Some((payload, fanout)) = jobs.recv().await {
        let env = Envelope::seal_payload(&keystore, payload);
        match fanout {
            Fanout::To(to) => fabric.send(to, env),
            Fanout::Broadcast => {
                for r in (0..n).filter(|&r| r != me.0) {
                    fabric.send(ReplicaId(r), env.clone());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::{decode, encode_catchup_req, WireMsg};
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

    /// Sends must hit the fabric in submission order, per destination
    /// and globally, every envelope carrying a signature its peers
    /// accept.
    #[tokio::test(flavor = "multi_thread")]
    async fn sealed_sends_arrive_in_submission_order() {
        let stores = KeyStore::cluster(b"egress-test", 4);
        let fabric = RecordingFabric::default();
        let egress = Egress::spawn(stores[1].clone(), fabric.clone(), ReplicaId(1), 4);

        const SENDS: u64 = 200;
        for h in 0..SENDS {
            let payload = Payload::new(encode_catchup_req(h));
            let fanout = if h % 5 == 0 {
                Fanout::Broadcast
            } else {
                Fanout::To(ReplicaId((h % 3) as u32 * 2 % 4)) // peers 0 and 2
            };
            egress.submit(payload, fanout);
        }

        // The lane drains in order; poll until everything arrived.
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
            let h = match decode::<u64>(&env.payload) {
                Some(WireMsg::CatchUpReq { from_height }) => from_height,
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
                    decode::<u64>(&e.payload),
                    Some(WireMsg::CatchUpReq { from_height: 0 })
                )
            })
            .map(|(to, _)| *to)
            .collect();
        assert_eq!(bcast, vec![ReplicaId(0), ReplicaId(2), ReplicaId(3)]);
    }
}
