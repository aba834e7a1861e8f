//! Ingress verification: the one task that reads a replica's inbound
//! fabric channel decodes the messages of each envelope and checks every
//! signature they carry — the [`Envelope`]'s and that of each vote a
//! message lists ([`ProtocolMessage::carried_votes`]) — *before* any of
//! them reaches the event loop.
//!
//! Every envelope carries a real Ed25519 signature, and a SpotLess
//! `Sync` carries one more per vote (its claim and each `CP`
//! endorsement); checking them on the event-loop thread would put
//! ≈ 30 µs per signature in series with ordering, execution handoff and
//! outbound sealing. The ingress task takes that cost off the loop and
//! batches it: it awaits one envelope, takes whatever else is already
//! queued up to [`MAX_VERIFY_BATCH`], decodes the protocol messages
//! among them — a protocol envelope bundles one to [`MAX_BUNDLE`] of
//! them under its one signature — and checks the envelopes together
//! with every vote their messages carry that it holds no verdict for in
//! **one**
//! [`KeyStore::verify_batch_refs`] call. That call folds repeated
//! signers into one walk of each signer's table, and a message's votes
//! are mostly signed by its own sender, so the votes make almost every
//! run fold. Verdicts stay in a two-generation cache ([`VoteMemo`]), so
//! a `CP` endorsement re-carried view after view is verified once, and
//! travel with the message ([`Event::Deliver`]) into the event loop's
//! memo, where the protocol's `verify_vote` finds them.
//!
//! A failed batch is re-verified in two steps: the envelopes, then the
//! votes carried by those that passed. Each step makes one call per
//! envelope sender, and checks serially only the signatures of a sender
//! whose own call fails. A replica that seals genuine envelopes around
//! garbage votes therefore cannot push its peers' traffic onto serial
//! checks. A forged envelope's votes are never checked or cached beyond
//! the failed batch. They cannot be many: a message lists only what its
//! handler may count (a `Sync` at most its claim and `CP_CAP`
//! endorsements, a QC distinct signers), and a list naming a signer
//! this replica does not know is ignored whole.
//!
//! **Ordering contract:** arrival order is preserved globally, not just
//! per sender. One task reads, verifies and forwards — a bundle's
//! messages one [`Event::Deliver`] each, in payload order — so the
//! event loop sees the surviving messages in exactly the order the
//! fabric delivered them and their senders emitted them.
//!
//! **Failure contract:** a forged, corrupted, or unknown-signer
//! envelope is dropped here, counted in [`NetStats::msgs_rejected`]
//! before anything that arrived after it is forwarded, and nothing
//! downstream ever sees it — a flood of garbage costs ingress time,
//! never event-loop time, and cannot reorder the valid traffic around
//! it. A genuine envelope that is malformed — a protocol body that is
//! empty, longer than [`MAX_BUNDLE`], or holds one message that does not
//! decode, or a message carrying a client batch whose payload does not
//! hash to the batch's digest ([`ProtocolMessage::carried_batches`]) —
//! is dropped whole and counted in [`NetStats::msgs_malformed`]: none of
//! its messages is delivered and none of their votes is checked.
//! Consensus votes on a batch's digest alone, and the simulator's
//! batches carry no payload, so this check lives here and nowhere in
//! the protocols: without it one primary could show two replicas two
//! payloads under one digest, and both would commit and execute
//! different transactions. A genuine envelope whose message carries a
//! bad vote is forwarded with a `false` verdict on that vote, so the
//! protocol never counts it.
//!
//! [`MAX_BUNDLE`]: crate::envelope::MAX_BUNDLE

use crate::envelope::{decode_protocol_bundle, payload_tag, Envelope, TAG_PROTOCOL};
use crate::observe::NetStats;
use crate::runtime::{Event, VoteKey, VoteMemo};
use serde::Deserialize;
use spotless_crypto::{digest_bytes, KeyStore, Signature};
use spotless_types::node::ProtocolMessage;
use spotless_types::ReplicaId;
use std::collections::{HashMap, HashSet};
use tokio::sync::mpsc;

/// Most envelopes taken into one run. Bounds both the latency the
/// first envelope of a run accrues behind the rest and the work thrown
/// away when a batch contains one bad signature. It counts envelopes,
/// not messages or signatures: a run holds at most
/// `MAX_VERIFY_BATCH × MAX_BUNDLE` (512) messages, and verifies one
/// signature per envelope plus every fresh vote those messages carry —
/// up to 4 608 for SpotLess `Sync`s (a claim and `CP_CAP` endorsements
/// each), more than the verdict cache keeps across a rotation. Every
/// message is therefore forwarded with verdicts from the run's own
/// table, never from the cache, so no run is large enough to push a
/// listed vote's check onto the event loop. It also bounds, in events,
/// how long the event loop holds an open outbound bundle
/// (`egress::FLUSH_EVENTS`).
pub(crate) const MAX_VERIFY_BATCH: usize = 32;

/// Spawns the ingress task: drains the fabric's inbound channel in runs
/// of at most [`MAX_VERIFY_BATCH`], decodes and verifies each run, and
/// feeds the survivors into `events` in arrival order. Counts every
/// arrival into `net` (received), every drop (rejected) and every
/// fresh vote verification.
pub(crate) fn spawn_ingress<M>(
    keystore: KeyStore,
    mut envelopes: mpsc::UnboundedReceiver<Envelope>,
    events: mpsc::UnboundedSender<Event<M>>,
    net: NetStats,
) where
    M: ProtocolMessage + Deserialize + Send + 'static,
{
    tokio::spawn(async move {
        let mut ingress = Ingress {
            keystore,
            events,
            net,
            verdicts: VoteMemo::default(),
        };
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
                ingress.net.record_recv(env.payload.len());
            }
            if !ingress.verify_and_forward(&mut batch) {
                return;
            }
        }
    });
}

/// The ingress task's state.
struct Ingress<M> {
    keystore: KeyStore,
    events: mpsc::UnboundedSender<Event<M>>,
    net: NetStats,
    /// Verdicts on the votes this task has verified.
    verdicts: VoteMemo,
}

/// What one envelope of a run holds, read before anything is verified.
enum Body<M> {
    /// Protocol messages in payload order, each with the votes it lists.
    Protocol(Vec<(M, Vec<VoteKey>)>),
    /// The state-transfer family, forwarded undecoded.
    Transfer,
    /// Neither: dropped whole once its envelope is checked.
    Malformed,
}

/// One signature to check: signer, signed bytes, signature.
type SigRef<'a> = (ReplicaId, &'a [u8], &'a Signature);

/// A signature to check, with the envelope sender who answers for it
/// if its batch fails.
type Check<'a> = (ReplicaId, SigRef<'a>);

impl<M: ProtocolMessage + Deserialize> Ingress<M> {
    /// Decodes one run, verifies its envelopes and the votes their
    /// messages carry, and forwards the survivors in arrival order,
    /// leaving `batch` empty. Returns false once the event queue is
    /// gone.
    fn verify_and_forward(&mut self, batch: &mut Vec<Envelope>) -> bool {
        let bodies: Vec<Body<M>> = batch.iter().map(|env| self.read(env)).collect();
        let (envelope_ok, known) = self.verify_run(batch, &bodies);
        for ((env, body), ok) in batch.drain(..).zip(bodies).zip(envelope_ok) {
            if !ok {
                self.net.record_rejected(env.payload.len());
                continue;
            }
            match body {
                Body::Protocol(msgs) => {
                    for (msg, carried) in msgs {
                        // Every listed vote of a genuine envelope now has
                        // a verdict in the run's table `known`.
                        let votes = carried
                            .into_iter()
                            .filter_map(|key| Some((key, *known.get(&key)?)))
                            .collect();
                        let event = Event::Deliver {
                            from: env.from,
                            msg,
                            votes,
                        };
                        if self.events.send(event).is_err() {
                            return false;
                        }
                    }
                }
                Body::Transfer => {
                    if self.events.send(Event::Envelope(env)).is_err() {
                        return false;
                    }
                }
                Body::Malformed => self.net.record_malformed(),
            }
        }
        true
    }

    /// Decodes `env`'s body and lists the votes each of its messages
    /// carries.
    fn read(&self, env: &Envelope) -> Body<M> {
        match payload_tag(&env.payload) {
            Some(TAG_PROTOCOL) => {}
            Some(_) => return Body::Transfer,
            None => return Body::Malformed,
        }
        let Some(msgs) = decode_protocol_bundle::<M>(&env.payload[2..]) else {
            return Body::Malformed;
        };
        if !payloads_match_digests(&msgs) {
            return Body::Malformed;
        }
        let msgs = msgs
            .into_iter()
            .map(|msg| {
                let mut carried = Vec::new();
                msg.carried_votes(env.from, &mut carried);
                // A vote by a replica this keystore does not know cannot
                // verify, and would fail every batch it joined; a message
                // naming one is malformed, so none of its votes is
                // checked.
                if carried
                    .iter()
                    .any(|&(signer, ..)| self.keystore.public_of(signer).is_none())
                {
                    carried.clear();
                }
                (msg, carried)
            })
            .collect();
        Body::Protocol(msgs)
    }

    /// Verifies a run's envelopes, and the fresh votes carried by those
    /// that pass, caching each vote's verdict; returns each envelope's
    /// verdict and the run's table of verdicts on every vote the
    /// passing envelopes' messages list. One
    /// [`KeyStore::verify_batch_refs`] call covers the whole run. Only
    /// if it fails are the envelopes re-verified alone, and then the
    /// votes of the genuine ones, each step by sender
    /// ([`verify_by_sender`]).
    fn verify_run(&mut self, batch: &[Envelope], bodies: &[Body<M>]) -> (Vec<bool>, Verdicts) {
        let envelopes: Vec<Check> = batch
            .iter()
            .map(|env| (env.from, (env.from, env.payload.as_slice(), &env.sig)))
            .collect();
        let mut known = Verdicts::new();
        let fresh = self.fresh_votes(batch, bodies, |_| true, &mut known);
        let statements = signing_bytes(&fresh);
        let run: Vec<SigRef> = envelopes
            .iter()
            .chain(&vote_checks(&fresh, &statements))
            .map(|&(_, sig)| sig)
            .collect();
        if self.keystore.verify_batch_refs(&run).is_ok() {
            self.remember(&fresh, &vec![true; fresh.len()], &mut known);
            return (vec![true; batch.len()], known);
        }
        let envelope_ok = verify_by_sender(&self.keystore, &envelopes);
        known.clear();
        let fresh = self.fresh_votes(batch, bodies, |i| envelope_ok[i], &mut known);
        let statements = signing_bytes(&fresh);
        let vote_ok = verify_by_sender(&self.keystore, &vote_checks(&fresh, &statements));
        self.remember(&fresh, &vote_ok, &mut known);
        (envelope_ok, known)
    }

    /// The votes the messages of the run's `passing` envelopes list that
    /// no verdict is cached for, each once, with the sender of the first
    /// envelope that carried it. The cached verdicts on the others go
    /// into `known`.
    fn fresh_votes(
        &mut self,
        batch: &[Envelope],
        bodies: &[Body<M>],
        passing: impl Fn(usize) -> bool,
        known: &mut Verdicts,
    ) -> Vec<(ReplicaId, VoteKey)> {
        let mut seen = HashSet::new();
        let mut fresh = Vec::new();
        for (i, (env, body)) in batch.iter().zip(bodies).enumerate() {
            let Body::Protocol(msgs) = body else {
                continue;
            };
            if !passing(i) {
                continue;
            }
            for key in msgs.iter().flat_map(|(_, carried)| carried) {
                match self.verdicts.recall(key) {
                    Some(ok) => {
                        known.insert(*key, ok);
                    }
                    None if seen.insert(*key) => fresh.push((env.from, *key)),
                    None => {}
                }
            }
        }
        fresh
    }

    /// Caches the verdicts `ok` on `fresh`'s votes, adds them to the
    /// run's table `known`, and counts them.
    fn remember(&mut self, fresh: &[(ReplicaId, VoteKey)], ok: &[bool], known: &mut Verdicts) {
        for (&(_, key), &ok) in fresh.iter().zip(ok) {
            self.verdicts.insert(key, ok);
            known.insert(key, ok);
        }
        self.net.record_votes_verified(fresh.len());
    }
}

/// One run's verdicts on the votes its genuine messages list.
type Verdicts = HashMap<VoteKey, bool>;

/// Whether every batch `msgs` carry in full, no-ops aside (they execute
/// nothing), has a payload that hashes to its digest.
fn payloads_match_digests<M: ProtocolMessage>(msgs: &[M]) -> bool {
    let mut batches = Vec::new();
    for msg in msgs {
        msg.carried_batches(&mut batches);
    }
    batches
        .iter()
        .all(|batch| batch.is_noop() || digest_bytes(&batch.payload) == batch.digest)
}

/// The statement bytes each of `fresh`'s votes signs.
fn signing_bytes(fresh: &[(ReplicaId, VoteKey)]) -> Vec<[u8; 68]> {
    fresh
        .iter()
        .map(|(_, (_, statement, _))| statement.signing_bytes())
        .collect()
}

/// `fresh`'s votes as checks over their `statements`.
fn vote_checks<'a>(
    fresh: &'a [(ReplicaId, VoteKey)],
    statements: &'a [[u8; 68]],
) -> Vec<Check<'a>> {
    fresh
        .iter()
        .zip(statements)
        .map(|((sender, (signer, _, sig)), bytes)| (*sender, (*signer, bytes.as_slice(), sig)))
        .collect()
}

/// Verdicts on `checks`, in order: one [`KeyStore::verify_batch_refs`]
/// call per answering sender, and one-by-one checks only of the
/// signatures of a sender whose call fails.
fn verify_by_sender(keystore: &KeyStore, checks: &[Check]) -> Vec<bool> {
    let mut senders: Vec<ReplicaId> = checks.iter().map(|&(sender, _)| sender).collect();
    senders.sort_unstable();
    senders.dedup();
    let mut ok = vec![true; checks.len()];
    for sender in senders {
        let mine: Vec<usize> = (0..checks.len())
            .filter(|&k| checks[k].0 == sender)
            .collect();
        let run: Vec<SigRef> = mine.iter().map(|&k| checks[k].1).collect();
        if keystore.verify_batch_refs(&run).is_err() {
            for k in mine {
                let (signer, message, sig) = checks[k].1;
                ok[k] = keystore.verify(signer, message, sig).is_ok();
            }
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::{
        decode, encode_catchup_req, encode_protocol, open_protocol, push_protocol, WireMsg,
        MAX_BUNDLE,
    };
    use spotless_core::{Message, ProposalRef, SyncMsg};
    use spotless_types::{Digest, InstanceId, View, VoteStatement};

    /// An ingress task over a fresh channel pair, verifying as replica
    /// 0 of a 4-replica cluster.
    struct Harness {
        stores: Vec<KeyStore>,
        input: mpsc::UnboundedSender<Envelope>,
        output: mpsc::UnboundedReceiver<Event<Message>>,
        net: NetStats,
        /// The task's ends of the channels until it is started.
        idle: Option<(
            mpsc::UnboundedReceiver<Envelope>,
            mpsc::UnboundedSender<Event<Message>>,
        )>,
    }

    /// A forwarded `Sync`: its sender and view, and the verdicts it
    /// came with.
    type Delivered = (ReplicaId, View, Vec<(VoteKey, bool)>);

    /// The proposal of view `v` (its digest is a function of `v`).
    fn proposal(v: u64) -> ProposalRef {
        ProposalRef {
            view: View(v),
            digest: Digest::from_u64(v),
        }
    }

    fn statement(v: u64) -> VoteStatement {
        VoteStatement::new(InstanceId(0), View(v), Digest::from_u64(v))
    }

    impl Harness {
        fn spawn(salt: &[u8]) -> Harness {
            let mut h = Harness::idle(salt);
            h.start();
            h
        }

        /// A harness whose task is not yet running, so what is sent
        /// before [`start`](Harness::start) is already queued when it
        /// takes its first run.
        fn idle(salt: &[u8]) -> Harness {
            let (input, envelopes) = mpsc::unbounded_channel();
            let (events, output) = mpsc::unbounded_channel();
            Harness {
                stores: KeyStore::cluster(salt, 4),
                input,
                output,
                net: NetStats::default(),
                idle: Some((envelopes, events)),
            }
        }

        fn start(&mut self) {
            let (envelopes, events) = self.idle.take().expect("started twice");
            spawn_ingress(self.stores[0].clone(), envelopes, events, self.net.clone());
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

        /// `from`'s view-`view` `Sync`: a claim for that view's
        /// proposal — under a garbage signature if `forge_claim` — and
        /// a `CP` endorsing the proposals of `cp`'s views.
        fn sync(&self, from: usize, view: u64, cp: &[u64], forge_claim: bool) -> SyncMsg {
            let keys = &self.stores[from];
            let claim_sig = if forge_claim {
                Signature([0xCD; 64])
            } else {
                keys.sign_vote(&statement(view))
            };
            SyncMsg {
                instance: InstanceId(0),
                view: View(view),
                claim: Some(proposal(view)),
                cp: cp.iter().map(|&v| proposal(v)).collect(),
                upsilon: false,
                claim_sig,
                cp_sigs: cp.iter().map(|&v| keys.sign_vote(&statement(v))).collect(),
            }
        }

        /// Sends `sync` in an envelope sealed by `from`, forged (a
        /// garbage envelope signature) if asked.
        fn send_sealed(&self, from: usize, sync: SyncMsg, forged: bool) {
            let mut env = Envelope::seal(&self.stores[from], encode_protocol(&Message::Sync(sync)));
            if forged {
                env.sig = Signature([0xAB; 64]);
            }
            self.input.send(env).unwrap();
        }

        /// Sends `payload` in a genuine envelope sealed by `from`.
        fn send_payload(&self, from: usize, payload: Vec<u8>) {
            self.input
                .send(Envelope::seal(&self.stores[from], payload))
                .unwrap();
        }

        /// Sends a genuine envelope from `from` holding its
        /// [`sync`](Harness::sync).
        fn send_sync(&self, from: usize, view: u64, cp: &[u64], forge_claim: bool) {
            self.send_sealed(from, self.sync(from, view, cp, forge_claim), false);
        }

        /// The next forwarded envelope's sender and height, checked to
        /// carry a signature replica 0 accepts.
        async fn next(&mut self) -> (ReplicaId, u64) {
            let Some(Event::Envelope(env)) = self.output.recv().await else {
                panic!("ingress closed early or forwarded a protocol message");
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

        /// The next forwarded `Sync`.
        async fn next_sync(&mut self) -> Delivered {
            match self.output.recv().await {
                Some(Event::Deliver {
                    from,
                    msg: Message::Sync(s),
                    votes,
                }) => (from, s.view, votes),
                _ => panic!("expected a delivered Sync"),
            }
        }
    }

    /// `msgs` as one protocol payload.
    fn bundle(msgs: &[Message]) -> Vec<u8> {
        let mut payload = open_protocol(Vec::new());
        for msg in msgs {
            push_protocol(&mut payload, msg);
        }
        payload
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

    /// A `CP` endorsement re-carried by later `Sync`s is verified the
    /// first time only, and every delivery still comes with its
    /// verdict.
    #[tokio::test(flavor = "multi_thread")]
    async fn a_re_carried_cp_signature_is_not_verified_again() {
        let mut h = Harness::spawn(b"ingress-recarry-test");
        h.send_sync(1, 5, &[4], false);
        let (_, _, first) = h.next_sync().await;
        assert_eq!(first.len(), 2);
        assert!(first.iter().all(|&(_, ok)| ok));
        assert_eq!(h.net.votes_verified(), 2, "claim 5 and CP entry 4");

        for view in 6..9 {
            h.send_sync(1, view, &[4], false);
            let (from, got_view, votes) = h.next_sync().await;
            assert_eq!((from, got_view), (ReplicaId(1), View(view)));
            let cp = (
                ReplicaId(1),
                statement(4),
                h.stores[1].sign_vote(&statement(4)),
            );
            assert!(votes.contains(&(cp, true)), "view {view}: {votes:?}");
            assert!(votes.iter().all(|&(_, ok)| ok));
        }
        assert_eq!(
            h.net.votes_verified(),
            2 + 3,
            "each later Sync verifies its new claim only"
        );
    }

    /// A sender that seals genuine envelopes around garbage claim
    /// signatures, interleaved with two honest senders: its forged
    /// votes come out `false`, every honest vote `true`, no envelope is
    /// rejected (they are all genuine), and arrival order holds.
    #[tokio::test(flavor = "multi_thread")]
    async fn forged_votes_are_blamed_on_their_sender_alone() {
        let mut h = Harness::spawn(b"ingress-blame-test");
        let mut expected = Vec::new();
        for view in 10..(10 + 3 * MAX_VERIFY_BATCH as u64) {
            let from = [1, 2, 3, 2, 1, 3, 3][view as usize % 7];
            h.send_sync(from, view, &[view - 2, view - 1], from == 1);
            expected.push((ReplicaId(from as u32), View(view)));
        }
        let mut got = Vec::new();
        for _ in 0..expected.len() {
            let (from, view, votes) = h.next_sync().await;
            assert_eq!(votes.len(), 3);
            for ((signer, statement, _), ok) in votes {
                assert_eq!(signer, from);
                let is_claim = statement.view == view;
                let forged = from == ReplicaId(1) && is_claim;
                assert_eq!(ok, !forged, "{from:?} view {view:?}: {statement:?}");
            }
            got.push((from, view));
        }
        assert_eq!(got, expected, "arrival order");
        assert_eq!(h.net.msgs_rejected(), 0, "every envelope is genuine");
    }

    /// A forged envelope's votes are neither verdicted nor cached, even
    /// when a genuine envelope re-carries one of them; only the genuine
    /// envelope's two votes are verified.
    #[tokio::test(flavor = "multi_thread")]
    async fn a_forged_envelopes_votes_are_not_verified() {
        let mut h = Harness::spawn(b"ingress-forged-votes-test");
        h.send_sealed(1, h.sync(1, 5, &[4], false), true);
        h.send_sync(1, 6, &[4], false);
        let (from, view, votes) = h.next_sync().await;
        assert_eq!((from, view), (ReplicaId(1), View(6)));
        assert_eq!(votes.len(), 2);
        assert!(votes.iter().all(|&(_, ok)| ok));
        assert_eq!(h.net.msgs_rejected(), 1);
        assert_eq!(h.net.votes_verified(), 2, "claim 6 and CP entry 4");
    }

    /// A `Sync` advertising more than `CP_CAP` endorsements does not
    /// decode: a forged one is rejected, a genuine one is dropped whole
    /// as malformed, and neither costs a vote verification however
    /// long its `CP`.
    #[tokio::test(flavor = "multi_thread")]
    async fn an_oversized_cp_is_never_verified() {
        let mut h = Harness::spawn(b"ingress-oversized-cp-test");
        let mut big = h.sync(1, 5, &[], false);
        big.cp = (0..10_000).map(proposal).collect();
        big.cp_sigs = vec![Signature([0xEE; 64]); big.cp.len()];
        h.send_sealed(1, big.clone(), true);
        h.send_sealed(1, big, false);
        h.send_sync(1, 6, &[4], false);
        let (_, view, votes) = h.next_sync().await;
        assert_eq!((view, votes.len()), (View(6), 2));
        assert_eq!(h.net.msgs_rejected(), 1);
        assert_eq!(h.net.msgs_malformed(), 1);
        assert_eq!(h.net.votes_verified(), 2, "the last Sync's only");
    }

    /// A HotStuff QC naming a replica the keystore does not know is one
    /// its handler discards unchecked: ingress lists none of its votes,
    /// not even the genuine ones, and the envelope still passes.
    #[tokio::test(flavor = "multi_thread")]
    async fn a_qc_naming_an_unknown_signer_lists_no_votes() {
        use spotless_baselines::{HsMessage, QcRef};
        let stores = KeyStore::cluster(b"ingress-unknown-qc-signer-test", 4);
        let (input, envelopes) = mpsc::unbounded_channel();
        let (events, mut output) = mpsc::unbounded_channel::<Event<HsMessage>>();
        let net = NetStats::default();
        spawn_ingress(stores[0].clone(), envelopes, events, net.clone());
        let qc = |signers: &[u32]| QcRef {
            view: View(4),
            digest: Digest::from_u64(4),
            signers: signers.iter().map(|&r| ReplicaId(r)).collect(),
            sigs: signers
                .iter()
                .map(|&r| match stores.get(r as usize) {
                    Some(keys) => keys.sign_vote(&statement(4)),
                    None => Signature([0x99; 64]),
                })
                .collect(),
        };
        for signers in [&[1, 2, 99][..], &[1, 2, 3]] {
            let msg = HsMessage::NewView {
                view: View(5),
                high_qc: Some(qc(signers)),
            };
            let env = Envelope::seal(&stores[1], encode_protocol(&msg));
            input.send(env).unwrap();
        }
        for listed in [0, 3] {
            let Some(Event::Deliver { votes, .. }) = output.recv().await else {
                panic!("expected a delivered NewView");
            };
            assert_eq!(votes.len(), listed);
            assert!(votes.iter().all(|&(_, ok)| ok));
        }
        assert_eq!(net.msgs_rejected(), 0);
        assert_eq!(net.votes_verified(), 3);
    }

    /// A bundle's messages come out one delivery each, in payload
    /// order, each with the verdicts on its own votes; the envelope
    /// counts once.
    #[tokio::test(flavor = "multi_thread")]
    async fn a_bundle_is_delivered_message_by_message() {
        let mut h = Harness::spawn(b"ingress-bundle-test");
        let syncs: Vec<Message> = (5..8)
            .map(|v| Message::Sync(h.sync(2, v, &[v - 1], false)))
            .collect();
        h.send_payload(2, bundle(&syncs));
        for view in 5..8 {
            let (from, got, votes) = h.next_sync().await;
            assert_eq!((from, got), (ReplicaId(2), View(view)));
            assert_eq!(votes.len(), 2);
            assert!(votes.iter().all(|&(_, ok)| ok));
        }
        assert_eq!(h.net.msgs_recv(), 1);
        assert_eq!(h.net.votes_verified(), 4, "claims 5, 6, 7 and CP entry 4");
    }

    /// A genuine bundle whose second message is garbage is dropped
    /// whole and counted: nothing is delivered, and the first message's
    /// votes are neither verified nor cached — the same message sent
    /// alone afterwards is verified afresh.
    #[tokio::test(flavor = "multi_thread")]
    async fn a_bundle_with_a_bad_message_is_dropped_whole() {
        let mut h = Harness::spawn(b"ingress-bad-bundle-test");
        let sync = Message::Sync(h.sync(1, 5, &[4], false));
        let mut payload = bundle(std::slice::from_ref(&sync));
        payload.push(0x7F); // no message has variant 127
        h.send_payload(1, payload);
        h.send(1, SENTINEL, false);
        assert_eq!(h.next().await, (ReplicaId(1), SENTINEL));
        assert_eq!(h.net.msgs_malformed(), 1);
        assert_eq!(h.net.msgs_rejected(), 0, "the envelope is genuine");
        assert_eq!(h.net.votes_verified(), 0);

        h.send_payload(1, bundle(&[sync]));
        let (_, view, votes) = h.next_sync().await;
        assert_eq!((view, votes.len()), (View(5), 2));
        assert_eq!(h.net.votes_verified(), 2, "nothing was cached before");
    }

    /// A proposal whose payload does not hash to its batch's digest is
    /// dropped whole, however genuine its envelope and its digest: the
    /// honest primary's proposal and a forged-payload copy carry the
    /// same batch digest, and only the first is delivered. A no-op
    /// batch (no payload, zero digest) is exempt.
    #[tokio::test(flavor = "multi_thread")]
    async fn a_payload_that_does_not_hash_to_its_digest_is_malformed() {
        use spotless_core::{Justification, Proposal};
        use spotless_types::{BatchId, ClientBatch, ClientId, SimTime};
        use std::sync::Arc;
        let mut h = Harness::spawn(b"ingress-forged-payload-test");
        let payload = b"transfer 10 from alice to bob".to_vec();
        let honest = ClientBatch {
            id: BatchId(7),
            origin: ClientId(1),
            digest: digest_bytes(&payload),
            txns: 1,
            txn_size: payload.len() as u32,
            created_at: SimTime::ZERO,
            payload,
        };
        let mut forged = honest.clone();
        forged.payload = b"transfer 10 from alice to eve".to_vec();
        let propose = |view: u64, batch: ClientBatch| {
            Message::Propose(Arc::new(Proposal::new(
                InstanceId(0),
                View(view),
                batch,
                Justification::genesis(),
            )))
        };
        // The forged copy rides behind a good message in one bundle:
        // the whole envelope goes.
        let sync = Message::Sync(h.sync(1, 4, &[], false));
        h.send_payload(1, bundle(&[sync, propose(5, forged)]));
        h.send_payload(1, bundle(&[propose(5, honest)]));
        h.send_payload(1, bundle(&[propose(6, ClientBatch::noop(SimTime::ZERO))]));
        for view in [5, 6] {
            match h.output.recv().await {
                Some(Event::Deliver {
                    msg: Message::Propose(p),
                    ..
                }) => {
                    assert_eq!(p.view, View(view));
                    assert_eq!(p.batch.is_noop(), view == 6);
                }
                _ => panic!("expected the view-{view} proposal"),
            }
        }
        assert_eq!(h.net.msgs_malformed(), 1);
        assert_eq!(h.net.msgs_rejected(), 0, "every envelope is genuine");
        assert_eq!(
            h.net.votes_verified(),
            0,
            "the dropped Sync's claim is not checked"
        );
    }

    /// A protocol payload with no message at all is malformed.
    #[tokio::test(flavor = "multi_thread")]
    async fn an_empty_protocol_body_is_malformed() {
        let mut h = Harness::spawn(b"ingress-empty-bundle-test");
        h.send_payload(1, bundle(&[]));
        h.send(1, SENTINEL, false);
        assert_eq!(h.next().await, (ReplicaId(1), SENTINEL));
        assert_eq!(h.net.msgs_malformed(), 1);
        assert_eq!(h.net.msgs_recv(), 2);
    }

    /// One message more than `MAX_BUNDLE` makes the whole envelope
    /// malformed before any of its votes is verified.
    #[tokio::test(flavor = "multi_thread")]
    async fn an_oversized_bundle_is_never_verified() {
        let mut h = Harness::spawn(b"ingress-oversized-bundle-test");
        let syncs: Vec<Message> = (0..=MAX_BUNDLE as u64)
            .map(|i| Message::Sync(h.sync(3, 10 + i, &[9 + i], false)))
            .collect();
        h.send_payload(3, bundle(&syncs));
        h.send(3, SENTINEL, false);
        assert_eq!(h.next().await, (ReplicaId(3), SENTINEL));
        assert_eq!(h.net.msgs_malformed(), 1);
        assert_eq!(h.net.votes_verified(), 0);

        // The same messages less the last are a legal bundle.
        h.send_payload(3, bundle(&syncs[..MAX_BUNDLE]));
        for i in 0..MAX_BUNDLE as u64 {
            assert_eq!(h.next_sync().await.1, View(10 + i));
        }
        assert_eq!(h.net.msgs_malformed(), 1);
    }

    /// Runs as large as the wire allows — `MAX_VERIFY_BATCH` bundles of
    /// `MAX_BUNDLE` `Sync`s, each carrying a claim and a full `CP` of
    /// eight endorsements — arriving when the verdict cache is close to
    /// a rotation: the second run's fresh votes rotate it twice, yet
    /// every message comes out with a verdict on each vote it lists, so
    /// the event loop checks none of them itself.
    #[tokio::test(flavor = "multi_thread")]
    async fn a_full_run_of_maximal_bundles_forwards_every_verdict() {
        const VOTES: usize = 9; // a claim and eight `CP` entries
        let mut h = Harness::idle(b"ingress-full-run-test");
        let mut view = 0;
        let mut expected = Vec::new();
        // Queued before the task starts, so each `MAX_VERIFY_BATCH`
        // envelopes form one run: a first of 14-message bundles
        // (4 032 fresh votes, just short of a rotation), then a full one.
        for per_bundle in [14, MAX_BUNDLE] {
            for e in 0..MAX_VERIFY_BATCH {
                let from = 1 + e % 3;
                let syncs: Vec<Message> = (0..per_bundle)
                    .map(|_| {
                        view += VOTES as u64;
                        let cp: Vec<u64> = (view - 8..view).collect();
                        expected.push((ReplicaId(from as u32), View(view)));
                        Message::Sync(h.sync(from, view, &cp, false))
                    })
                    .collect();
                h.send_payload(from, bundle(&syncs));
            }
        }
        h.start();
        for &(from, view) in &expected {
            let (got_from, got_view, votes) = h.next_sync().await;
            assert_eq!((got_from, got_view), (from, view));
            assert_eq!(votes.len(), VOTES, "view {view:?} lost a verdict");
            assert!(votes.iter().all(|&(_, ok)| ok));
        }
        assert_eq!(h.net.votes_verified(), (expected.len() * VOTES) as u64);
        assert_eq!(h.net.msgs_malformed() + h.net.msgs_rejected(), 0);
    }
}
