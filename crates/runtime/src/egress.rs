//! Egress sealing: the one lane that signs a replica's outbound
//! envelopes and hands them to the fabric, off the event-loop thread.
//!
//! Every envelope a replica emits is Ed25519-signed. The event loop
//! encodes each message (into a recycled [`BufferPool`] buffer, wrapped
//! once as a refcounted [`Payload`]), submits it with its fan-out, and
//! returns to the next event without touching the signature. A
//! signature costs ≈ 20 µs (its nonce commitment comes from the
//! fixed-base table, see `spotless-crypto::signing`) plus a hash of what
//! it covers, and every receiver pays one verification per envelope, so
//! the lane signs as few envelopes as the queue allows: after taking a
//! job it appends every protocol message already queued behind it for
//! the same fan-out — `Broadcast` joins `Broadcast`, `To(r)` joins
//! `To(r)` — up to [`MAX_BUNDLE`] messages or [`BUNDLE_BYTES`], signs
//! the bundle once and performs the [`Fabric::send`] fan-out itself. It never waits for
//! more jobs: a lone message leaves as soon as the lane is free, in a
//! payload byte-identical to [`encode_protocol`]'s.
//!
//! **Ordering contract:** sends leave the replica in submission order
//! — globally, hence per destination. One lane signs and sends in the
//! order the loop submitted, and a bundle joins only jobs that were
//! adjacent in the queue, so a destination observes exactly the
//! sequence the protocol emitted. Loopback self-delivery never enters
//! this stage (it carries no signature at all).
//!
//! **Failure contract:** signing cannot fail and [`Fabric::send`] is
//! fire-and-forget, so the lane reports nothing back; a frame the
//! fabric loses is recovered by consensus retransmission (Υ retries,
//! Ask recovery, client timeouts), as for any lost packet.
//!
//! A lone message is handed to the transport with **zero copies**: the
//! payload bytes are encoded once into the pooled buffer, the
//! [`Payload`] view is refcounted through signing and every
//! per-destination [`Envelope`] clone, and the buffer returns to the
//! pool when the last send completes. A bundle copies its messages once
//! into one pooled buffer.
//!
//! [`encode_protocol`]: crate::envelope::encode_protocol

use crate::envelope::{
    append_protocol, payload_tag, BufferPool, Envelope, Payload, MAX_BUNDLE, TAG_PROTOCOL,
};
use crate::fabric::Fabric;
use spotless_crypto::KeyStore;
use spotless_types::ReplicaId;
use tokio::sync::mpsc;

/// Most payload bytes a bundle grows to: the budget the runtime
/// already sends in one catch-up response or state chunk, well inside
/// the frame limit. A message that would push a bundle past it starts
/// the next envelope instead; a message larger on its own still leaves
/// alone, as it always did.
const BUNDLE_BYTES: usize = spotless_types::SNAPSHOT_CHUNK_BYTES;

/// Where a sealed envelope goes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Fanout {
    /// One peer.
    To(ReplicaId),
    /// Every peer but this replica (self-delivery is a loopback event,
    /// never a sealed frame).
    Broadcast,
}

/// One submitted payload and where it goes.
type Job = (Payload, Fanout);

/// The egress stage: one lane fed in submission order. Owned by the
/// event loop; dropping it closes the lane once it has sent what was
/// already submitted.
pub(crate) struct Egress {
    jobs: mpsc::UnboundedSender<Job>,
    /// Recycled payload buffers: encode → sign → send → back here.
    pub(crate) buffers: BufferPool,
}

impl Egress {
    /// Spawns the lane. Must be called inside a tokio runtime context.
    pub(crate) fn spawn<F: Fabric>(keystore: KeyStore, fabric: F, me: ReplicaId, n: u32) -> Egress {
        let (jobs, rx) = mpsc::unbounded_channel();
        let buffers = BufferPool::default();
        tokio::spawn(lane(keystore, fabric, me, n, buffers.clone(), rx));
        Egress { jobs, buffers }
    }

    /// Submits one encoded payload for sealing and fan-out.
    /// Non-blocking.
    pub(crate) fn submit(&self, payload: Payload, fanout: Fanout) {
        let _ = self.jobs.send((payload, fanout));
    }
}

/// The lane: take a job, bundle what is queued behind it, sign once and
/// fan out.
async fn lane<F: Fabric>(
    keystore: KeyStore,
    fabric: F,
    me: ReplicaId,
    n: u32,
    buffers: BufferPool,
    mut jobs: mpsc::UnboundedReceiver<Job>,
) {
    // The job that ended the previous bundle without joining it.
    let mut held = None;
    loop {
        let first = match held.take() {
            Some(job) => job,
            None => match jobs.recv().await {
                Some(job) => job,
                None => return,
            },
        };
        let ((payload, fanout), next) = bundle(first, &mut jobs, &buffers);
        held = next;
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

/// Appends to `first` every protocol message queued behind it for the
/// same fan-out, up to [`MAX_BUNDLE`] messages and [`BUNDLE_BYTES`].
/// Returns the payload to seal, and the queued job that stopped the
/// bundle, if one did. Never waits: only what is already queued joins.
fn bundle(
    first: Job,
    jobs: &mut mpsc::UnboundedReceiver<Job>,
    buffers: &BufferPool,
) -> (Job, Option<Job>) {
    let (payload, fanout) = first;
    let protocol = |p: &Payload| payload_tag(p) == Some(TAG_PROTOCOL);
    if !protocol(&payload) {
        return ((payload, fanout), None);
    }
    let mut rest = Vec::new();
    let mut bytes = payload.len();
    let mut stopper = None;
    while 1 + rest.len() < MAX_BUNDLE {
        let Some((next, to)) = jobs.try_recv() else {
            break;
        };
        if to != fanout || !protocol(&next) || bytes + next.len() > BUNDLE_BYTES {
            stopper = Some((next, to));
            break;
        }
        bytes += next.len();
        rest.push(next);
    }
    if rest.is_empty() {
        return ((payload, fanout), stopper);
    }
    let mut joined = buffers.take();
    joined.extend_from_slice(&payload);
    for next in &rest {
        append_protocol(&mut joined, next);
    }
    let len = joined.len();
    ((Payload::pooled(joined, buffers, 0, len), fanout), stopper)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::{decode, encode_catchup_req, encode_protocol, WireMsg, WIRE_VERSION};
    use std::collections::{BTreeMap, HashSet};
    use std::sync::{Arc, Condvar, Mutex};

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

    /// A recording fabric whose first send blocks until the test opens
    /// its gate, so the jobs submitted meanwhile are all queued when the
    /// lane next looks.
    #[derive(Clone, Default)]
    struct GatedFabric {
        sent: Arc<Mutex<Vec<(ReplicaId, Envelope)>>>,
        /// (a send has begun, the gate is open).
        gate: Arc<(Mutex<(bool, bool)>, Condvar)>,
    }

    impl GatedFabric {
        fn entered(&self) -> bool {
            self.gate.0.lock().unwrap().0
        }

        fn open(&self) {
            self.gate.0.lock().unwrap().1 = true;
            self.gate.1.notify_all();
        }
    }

    impl Fabric for GatedFabric {
        fn send(&self, to: ReplicaId, env: Envelope) {
            let (lock, opened) = &*self.gate;
            let mut gate = lock.lock().unwrap();
            gate.0 = true;
            while !gate.1 {
                gate = opened.wait(gate).unwrap();
            }
            drop(gate);
            self.sent.lock().unwrap().push((to, env));
        }
    }

    /// What a destination received, one entry per message.
    #[derive(Clone, Debug, PartialEq)]
    enum Got {
        /// A protocol message: its sequence number and fan-out code.
        Msg(u64, u64),
        /// A catch-up request.
        CatchUp(u64),
    }

    /// The fan-out a job's message records in its low byte: 0 for a
    /// broadcast, `1 + r` for `To(r)`.
    fn code(fanout: Fanout) -> u64 {
        match fanout {
            Fanout::Broadcast => 0,
            Fanout::To(r) => 1 + u64::from(r.0),
        }
    }

    /// Jobs queued behind a busy lane leave in bundles: runs of one
    /// fan-out merge up to `MAX_BUNDLE`, different fan-outs and
    /// non-protocol payloads never do, every bundle verifies, and each
    /// destination decodes exactly the submission order.
    #[tokio::test(flavor = "multi_thread")]
    async fn queued_runs_coalesce_and_keep_order() {
        let stores = KeyStore::cluster(b"egress-bundle-test", 4);
        let fabric = GatedFabric::default();
        let egress = Egress::spawn(stores[1].clone(), fabric.clone(), ReplicaId(1), 4);
        let to = |r| Some(Fanout::To(ReplicaId(r)));
        let broadcast = Some(Fanout::Broadcast);
        // Runs of (fan-out, jobs); `None` is a catch-up request to
        // replica 2, between two runs of protocol messages to it.
        let runs = [
            (to(2), 1),
            (broadcast, MAX_BUNDLE + 4),
            (to(2), 3),
            (to(3), 2),
            (to(2), 1),
            (None, 1),
            (to(2), 2),
            (broadcast, 1),
            (to(0), 2),
        ];

        let mut expected: BTreeMap<u32, Vec<Got>> = BTreeMap::new();
        let mut jobs = 0;
        for (run, &(fanout, k)) in runs.iter().enumerate() {
            for _ in 0..k {
                let seq = jobs as u64;
                let (payload, fanout, got) = match fanout {
                    Some(f) => (
                        encode_protocol(&(seq << 8 | code(f))),
                        f,
                        Got::Msg(seq, code(f)),
                    ),
                    None => (
                        encode_catchup_req(seq),
                        Fanout::To(ReplicaId(2)),
                        Got::CatchUp(seq),
                    ),
                };
                let dests = match fanout {
                    Fanout::To(r) => vec![r.0],
                    Fanout::Broadcast => vec![0, 2, 3],
                };
                for d in dests {
                    expected.entry(d).or_default().push(got.clone());
                }
                egress.submit(Payload::new(payload), fanout);
                jobs += 1;
            }
            if run == 0 {
                // The lane is now blocked sending the first job, so
                // everything after it queues up behind.
                while !fabric.entered() {
                    tokio::time::sleep(std::time::Duration::from_millis(1)).await;
                }
            }
        }
        fabric.open();

        let deliveries: usize = expected.values().map(Vec::len).sum();
        let mut got: BTreeMap<u32, Vec<Got>> = BTreeMap::new();
        let mut sent = Vec::new();
        for _ in 0..2000 {
            sent = fabric.sent.lock().unwrap().clone();
            got.clear();
            for (to, env) in &sent {
                let mine = got.entry(to.0).or_default();
                match decode::<u64>(&env.payload) {
                    Some(WireMsg::Protocol(msgs)) => {
                        assert!(msgs.len() <= MAX_BUNDLE, "{} messages", msgs.len());
                        let codes: HashSet<u64> = msgs.iter().map(|m| m & 0xFF).collect();
                        assert_eq!(codes.len(), 1, "fan-outs merged: {msgs:?}");
                        mine.extend(msgs.iter().map(|m| Got::Msg(m >> 8, m & 0xFF)));
                    }
                    Some(WireMsg::CatchUpReq { from_height }) => {
                        mine.push(Got::CatchUp(from_height))
                    }
                    _ => panic!("unexpected payload"),
                }
            }
            if got.values().map(Vec::len).sum::<usize>() >= deliveries {
                break;
            }
            tokio::time::sleep(std::time::Duration::from_millis(2)).await;
        }
        for (_, env) in &sent {
            assert!(env.verify(&stores[0]).is_ok(), "bad egress signature");
        }
        let envelopes: HashSet<[u8; 64]> = sent.iter().map(|(_, env)| env.sig.0).collect();
        assert_eq!(got, expected, "per-destination submission order");
        // The first job alone, the broadcast run split at MAX_BUNDLE,
        // then one envelope per run: the catch-up request splits the
        // two runs to replica 2 around it.
        assert_eq!((jobs, envelopes.len()), (MAX_BUNDLE + 17, 10));
    }

    /// A message that would take a bundle past `BUNDLE_BYTES` starts
    /// the next envelope.
    #[test]
    fn a_bundle_stops_at_its_byte_budget() {
        let (jobs, mut queue) = mpsc::unbounded_channel();
        for fill in 0..3u8 {
            let mut half = vec![WIRE_VERSION, TAG_PROTOCOL];
            half.resize(BUNDLE_BYTES / 2, fill);
            jobs.send((Payload::new(half), Fanout::Broadcast)).unwrap();
        }
        let first = queue.try_recv().unwrap();
        let ((payload, _), stopper) = bundle(first, &mut queue, &BufferPool::default());
        assert_eq!(payload.len(), BUNDLE_BYTES - 2, "two halves, one header");
        let Some((third, _)) = stopper else {
            panic!("the third half must stop the bundle");
        };
        assert_eq!(third[2], 2);
    }
}
