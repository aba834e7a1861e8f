//! Outbound traffic: the event loop's bundle buffer ([`Outbox`]) and
//! the one lane that signs a replica's envelopes and hands them to the
//! fabric, off the event-loop thread.
//!
//! Every envelope a replica emits is Ed25519-signed. A signature costs
//! ≈ 20 µs (its nonce commitment comes from the fixed-base table, see
//! `spotless-crypto::signing`) plus a hash of what it covers, and every
//! receiver pays one verification per envelope, so a replica sends as
//! few envelopes as its traffic allows. The event loop encodes each
//! outbound protocol message straight into one open bundle buffer
//! ([`Outbox::push`]): consecutive messages for the same fan-out —
//! `Broadcast` after `Broadcast`, `To(r)` after `To(r)` — share it. The
//! bundle is closed and handed to the lane when
//!
//! * it holds [`MAX_BUNDLE`] messages, or [`BUNDLE_BYTES`] of payload;
//! * the next message has a different fan-out, or would take it past
//!   [`BUNDLE_BYTES`];
//! * the loop flushes ([`Outbox::flush`]): its event queue ran dry, or
//!   it is about to block on the commit queue (see `crate::runtime`);
//! * it has waited out [`FLUSH_EVENTS`] events ([`Outbox::handled`]).
//!
//! The loop submits closed bundles to the lane after each step, through
//! a bounded queue. The lane signs each bundle once and performs the
//! [`Fabric::send`] fan-out itself. A one-message bundle is byte-identical to
//! [`encode_protocol`]'s payload.
//!
//! **Ordering contract:** messages leave the replica in the order the
//! loop pushes them (each step's unicasts, then its broadcasts) —
//! globally, hence per destination. A bundle holds only messages pushed
//! back to back, bundles are submitted in the order they were opened,
//! and one lane signs and sends them in that order, so a destination
//! decodes exactly the sequence the loop pushed.
//! Loopback self-delivery never enters this stage (it carries no
//! signature at all).
//!
//! **Failure contract:** signing cannot fail and [`Fabric::send`] is
//! fire-and-forget, so the lane reports nothing back; a frame the
//! fabric loses is recovered by consensus retransmission (Υ retries,
//! Ask recovery, client timeouts), as for any lost packet.
//!
//! A message is handed to the transport with **zero copies**: it is
//! encoded once, into the bundle's recycled [`BufferPool`] buffer, the
//! [`Payload`] view of that buffer is refcounted through signing and
//! every per-destination [`Envelope`] clone, and the buffer returns to
//! the pool when the last send completes. Only a message that overflows
//! the byte budget is copied once, into the next bundle.
//!
//! [`encode_protocol`]: crate::envelope::encode_protocol

use crate::envelope::{open_protocol, push_protocol, BufferPool, Envelope, Payload, MAX_BUNDLE};
use crate::fabric::Fabric;
use crate::ingress::MAX_VERIFY_BATCH;
use crate::observe::NetStats;
use serde::Serialize;
use spotless_crypto::KeyStore;
use spotless_types::ReplicaId;
use tokio::sync::mpsc;

/// Most payload bytes a bundle grows to: the budget the runtime
/// already sends in one catch-up response or state chunk, well inside
/// the frame limit. A message that would push a bundle past it starts
/// the next envelope instead; a message larger on its own still leaves
/// alone.
pub(crate) const BUNDLE_BYTES: usize = spotless_types::SNAPSHOT_CHUNK_BYTES;

/// Most events the loop handles while a bundle stays open: the bundle
/// leaves after the event that opened it and the next
/// `FLUSH_EVENTS − 1`, even if the event queue never runs dry. A full
/// ingress run forwards at least this many events (one envelope carries
/// one message or more), so a held message never waits behind more than
/// one ingress run. A fixed property of the loop, not a setting.
pub(crate) const FLUSH_EVENTS: usize = MAX_VERIFY_BATCH;

/// Bundles the egress queue holds. Overflow policy: the event loop
/// waits (backpressure) while the lane is this many bundles behind, so
/// a replica whose signing falls behind slows its own emission instead
/// of queueing without bound. The lane never waits on the loop —
/// [`Fabric::send`] only queues — so the wait always ends.
const EGRESS_QUEUE: usize = 64;

/// Where a sealed envelope goes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Fanout {
    /// One peer.
    To(ReplicaId),
    /// Every peer but this replica (self-delivery is a loopback event,
    /// never a sealed frame).
    Broadcast,
}

/// One closed bundle: its payload, where it goes, and how many
/// protocol messages it carries.
type Job = (Payload, Fanout, usize);

/// The lane: sign each bundle once and fan it out.
async fn lane<F: Fabric>(
    keystore: KeyStore,
    fabric: F,
    me: ReplicaId,
    n: u32,
    net: NetStats,
    mut jobs: mpsc::Receiver<Job>,
) {
    while let Some((payload, fanout, msgs)) = jobs.recv().await {
        let env = Envelope::seal_payload(&keystore, payload);
        match fanout {
            Fanout::To(to) => {
                net.record_protocol_sent(msgs);
                fabric.send(to, env);
            }
            Fanout::Broadcast => {
                for r in (0..n).filter(|&r| r != me.0) {
                    net.record_protocol_sent(msgs);
                    fabric.send(ReplicaId(r), env.clone());
                }
            }
        }
    }
}

/// The bundle being filled.
struct Open {
    /// Its payload so far: the protocol header and each message.
    buf: Vec<u8>,
    fanout: Fanout,
    msgs: usize,
    /// Events handled since it opened, the opening one included.
    events: usize,
}

/// The event loop's outbound buffer: at most one open bundle, and the
/// closed ones not yet handed to the egress lane (see the module docs).
/// Encoding never waits; [`submit`](Outbox::submit) does, and the loop
/// calls it after each step. Dropping the outbox closes the lane once
/// it has sent what was already submitted.
pub(crate) struct Outbox {
    /// The lane's queue, in submission order.
    jobs: mpsc::Sender<Job>,
    /// Recycled bundle buffers: encode → sign → send → back here.
    buffers: BufferPool,
    open: Option<Open>,
    /// Closed bundles, in the order they were opened.
    closed: Vec<Job>,
}

impl Outbox {
    /// Spawns the egress lane. Must be called inside a tokio runtime
    /// context.
    pub(crate) fn spawn<F: Fabric>(
        keystore: KeyStore,
        fabric: F,
        me: ReplicaId,
        n: u32,
        net: NetStats,
    ) -> Outbox {
        let (jobs, rx) = mpsc::channel(EGRESS_QUEUE);
        tokio::spawn(lane(keystore, fabric, me, n, net, rx));
        Outbox {
            jobs,
            buffers: BufferPool::default(),
            open: None,
            closed: Vec::new(),
        }
    }

    /// Encodes `msg` into the open bundle, first closing it if it goes
    /// elsewhere, and closes the bundle once it is full.
    pub(crate) fn push<M: Serialize>(&mut self, msg: &M, fanout: Fanout) {
        if self.open.as_ref().is_some_and(|open| open.fanout != fanout) {
            self.close();
        }
        let buffers = &self.buffers;
        let open = self.open.get_or_insert_with(|| Open {
            buf: open_protocol(buffers.take()),
            fanout,
            msgs: 0,
            events: 0,
        });
        let mark = open.buf.len();
        push_protocol(&mut open.buf, msg);
        open.msgs += 1;
        if open.msgs > 1 && open.buf.len() > BUNDLE_BYTES {
            // Over budget: the message starts the next bundle instead.
            let mut next = open_protocol(self.buffers.take());
            next.extend_from_slice(&open.buf[mark..]);
            open.buf.truncate(mark);
            open.msgs -= 1;
            self.close();
            self.open = Some(Open {
                buf: next,
                fanout,
                msgs: 1,
                events: 0,
            });
        }
        if self
            .open
            .as_ref()
            .is_some_and(|open| open.msgs == MAX_BUNDLE || open.buf.len() >= BUNDLE_BYTES)
        {
            self.close();
        }
    }

    /// Counts one handled event against the open bundle's hold, closing
    /// it once it has waited [`FLUSH_EVENTS`] events, and submits what
    /// is closed.
    pub(crate) async fn handled(&mut self) {
        if let Some(open) = &mut self.open {
            open.events += 1;
            if open.events >= FLUSH_EVENTS {
                self.close();
            }
        }
        self.submit().await;
    }

    /// Closes the open bundle, if any, and submits every closed one.
    pub(crate) async fn flush(&mut self) {
        self.close();
        self.submit().await;
    }

    /// Hands the closed bundles to the egress lane, in order, waiting
    /// while it is [`EGRESS_QUEUE`] bundles behind.
    pub(crate) async fn submit(&mut self) {
        for job in self.closed.drain(..) {
            // Fails only once the lane has stopped.
            let _ = self.jobs.send(job).await;
        }
    }

    fn close(&mut self) {
        if let Some(Open {
            buf, fanout, msgs, ..
        }) = self.open.take()
        {
            let len = buf.len();
            let payload = Payload::pooled(buf, &self.buffers, 0, len);
            self.closed.push((payload, fanout, msgs));
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::envelope::{decode, WireMsg};
    use std::collections::{BTreeMap, HashSet};
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    /// A fabric that records every delivery in arrival order.
    #[derive(Clone, Default)]
    pub(crate) struct RecordingFabric {
        pub(crate) sent: Arc<Mutex<Vec<(ReplicaId, Envelope)>>>,
    }

    impl Fabric for RecordingFabric {
        fn send(&self, to: ReplicaId, env: Envelope) {
            self.sent.lock().unwrap().push((to, env));
        }
    }

    impl RecordingFabric {
        /// Waits until `deliveries` envelopes have reached the fabric,
        /// then returns them.
        pub(crate) async fn wait_for(&self, deliveries: usize) -> Vec<(ReplicaId, Envelope)> {
            for _ in 0..5000 {
                if self.sent.lock().unwrap().len() >= deliveries {
                    break;
                }
                tokio::time::sleep(Duration::from_millis(2)).await;
            }
            self.sent.lock().unwrap().clone()
        }
    }

    /// Replica 1's outbox in a 4-cluster, over `fabric`, counting into
    /// `net`.
    fn outbox(stores: &[KeyStore], fabric: &RecordingFabric, net: &NetStats) -> Outbox {
        Outbox::spawn(
            stores[1].clone(),
            fabric.clone(),
            ReplicaId(1),
            4,
            net.clone(),
        )
    }

    /// The peers a fan-out from replica 1 reaches.
    fn dests(fanout: Fanout) -> Vec<u32> {
        match fanout {
            Fanout::To(r) => vec![r.0],
            Fanout::Broadcast => vec![0, 2, 3],
        }
    }

    /// Every envelope verifies and carries a legal bundle of
    /// `(sequence, fan-out code)` messages. Returns what each
    /// destination received, and the distinct envelopes sealed.
    fn received(
        stores: &[KeyStore],
        sent: &[(ReplicaId, Envelope)],
    ) -> (BTreeMap<u32, Vec<u64>>, usize) {
        let mut got: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
        for (to, env) in sent {
            assert!(env.verify(&stores[0]).is_ok(), "bad egress signature");
            let Some(WireMsg::Protocol(msgs)) = decode::<(u64, u64)>(&env.payload) else {
                panic!("unexpected payload");
            };
            assert!(msgs.len() <= MAX_BUNDLE, "{} messages", msgs.len());
            let codes: HashSet<u64> = msgs.iter().map(|&(_, code)| code).collect();
            assert_eq!(codes.len(), 1, "fan-outs merged: {msgs:?}");
            got.entry(to.0)
                .or_default()
                .extend(msgs.iter().map(|&(seq, _)| seq));
        }
        let envelopes: HashSet<[u8; 64]> = sent.iter().map(|(_, env)| env.sig.0).collect();
        (got, envelopes.len())
    }

    /// The fan-out a message records: 0 for a broadcast, `1 + r` for
    /// `To(r)`.
    fn code(fanout: Fanout) -> u64 {
        match fanout {
            Fanout::Broadcast => 0,
            Fanout::To(r) => 1 + u64::from(r.0),
        }
    }

    /// Runs of one fan-out share an envelope up to `MAX_BUNDLE`; a new
    /// fan-out or a flush closes it. Across interleaved `To(r)` and
    /// `Broadcast` runs, each destination decodes exactly the emission
    /// order, every bundle verifies, and `protocol_msgs_sent` counts
    /// each message once per destination.
    #[tokio::test(flavor = "multi_thread")]
    async fn interleaved_fanouts_keep_per_destination_order() {
        let stores = KeyStore::cluster(b"outbox-order-test", 4);
        let fabric = RecordingFabric::default();
        let net = NetStats::default();
        let mut outbox = outbox(&stores, &fabric, &net);
        let to = |r| Fanout::To(ReplicaId(r));
        let broadcast = Fanout::Broadcast;
        // Runs of (fan-out, messages); `None` flushes.
        let runs = [
            (Some(to(2)), 1),
            (Some(broadcast), MAX_BUNDLE + 4),
            (Some(to(2)), 3),
            (Some(to(3)), 2),
            (Some(to(2)), 1),
            (None, 0),
            (Some(to(2)), 2),
            (Some(broadcast), 1),
            (Some(to(0)), 2),
            (None, 0),
        ];
        let mut expected: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
        let mut seq = 0;
        for (fanout, k) in runs {
            let Some(fanout) = fanout else {
                outbox.flush().await;
                continue;
            };
            for _ in 0..k {
                outbox.push(&(seq, code(fanout)), fanout);
                for d in dests(fanout) {
                    expected.entry(d).or_default().push(seq);
                }
                seq += 1;
            }
        }
        // Three broadcast envelopes reach three peers each, six
        // unicast ones one peer.
        let (got, envelopes) = received(&stores, &fabric.wait_for(3 * 3 + 6).await);
        assert_eq!(got, expected, "per-destination emission order");
        let deliveries = expected.values().map(Vec::len).sum::<usize>();
        assert_eq!(net.protocol_msgs_sent(), deliveries as u64);
        // The broadcast run splits at MAX_BUNDLE; the first flush
        // splits the two runs to replica 2 around it; every other run
        // is one envelope.
        assert_eq!((seq as usize, envelopes), (MAX_BUNDLE + 16, 9));
    }

    /// No bundle passes `MAX_BUNDLE` messages, and none passes
    /// `BUNDLE_BYTES` unless it carries one message alone; nothing is
    /// lost or reordered at either bound.
    #[tokio::test(flavor = "multi_thread")]
    async fn no_bundle_passes_its_count_or_byte_bound() {
        let stores = KeyStore::cluster(b"outbox-bound-test", 4);
        let fabric = RecordingFabric::default();
        let mut outbox = outbox(&stores, &fabric, &NetStats::default());
        // Small messages, then thirds and halves of the byte budget,
        // then one message over it on its own.
        let sizes = [0; MAX_BUNDLE * 2 + 3]
            .into_iter()
            .chain([BUNDLE_BYTES / 3; 4])
            .chain([0, BUNDLE_BYTES / 2, BUNDLE_BYTES / 2, 0])
            .chain([BUNDLE_BYTES + 10, 0]);
        let mut want = Vec::new();
        for (seq, size) in sizes.enumerate() {
            outbox.push(
                &(seq as u64, vec![seq as u8; size]),
                Fanout::To(ReplicaId(2)),
            );
            want.push(seq as u64);
        }
        outbox.flush().await;
        let mut got = Vec::new();
        let mut shapes = Vec::new();
        for (_, env) in fabric.wait_for(8).await {
            assert!(env.verify(&stores[0]).is_ok());
            let Some(WireMsg::Protocol(msgs)) = decode::<(u64, Vec<u8>)>(&env.payload) else {
                panic!("unexpected payload")
            };
            assert!(msgs.len() <= MAX_BUNDLE);
            assert!(msgs.len() == 1 || env.payload.len() <= BUNDLE_BYTES);
            shapes.push(msgs.len());
            got.extend(msgs.into_iter().map(|(seq, _)| seq));
        }
        assert_eq!(got, want, "every message once, in order");
        // 35 small ones: two full bundles, and three that the first two
        // thirds join; the third would overflow, so it opens the next
        // with the fourth and a small one; each half overflows the
        // bundle before it; the small one joins the second half; the
        // oversized one leaves alone, then the last small one.
        assert_eq!(shapes, [16, 16, 5, 3, 1, 2, 1, 1]);
    }

    /// An open bundle leaves after `FLUSH_EVENTS` handled events, the
    /// one that opened it included, with no flush and no further
    /// message.
    #[tokio::test(flavor = "multi_thread")]
    async fn a_held_bundle_leaves_after_flush_events() {
        assert_eq!(FLUSH_EVENTS, 32, "a fixed property of the loop");
        let stores = KeyStore::cluster(b"outbox-hold-test", 4);
        let fabric = RecordingFabric::default();
        let mut outbox = outbox(&stores, &fabric, &NetStats::default());
        outbox.handled().await; // nothing open: counts nothing
        outbox.push(&(0u64, 0u64), Fanout::Broadcast);
        for _ in 1..FLUSH_EVENTS {
            outbox.handled().await;
            assert!(outbox.open.is_some(), "left early");
        }
        outbox.handled().await;
        assert!(outbox.open.is_none(), "held past FLUSH_EVENTS");
        let (got, envelopes) = received(&stores, &fabric.wait_for(3).await);
        assert_eq!((got.len(), envelopes), (3, 1));
    }
}
