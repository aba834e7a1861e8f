//! SpotLess wire messages (§3.1): `Propose`, `Sync`, `Ask`, and the
//! `Forward` reply that answers an `Ask`.
//!
//! Authentication model (§2): proposals are digitally signed by their
//! primary (they are forwarded via `Ask`/`Forward`); `Sync` messages carry
//! *both* a MAC and a signature, but receivers verify only the MAC in the
//! normal case — signatures matter only when a certificate is assembled
//! during recovery. The [`ProtocolMessage`] impl encodes exactly those
//! rules for the simulator's CPU model, and the size rules of §6.1 for its
//! NIC model.

use serde::{Deserialize, Serialize};
use spotless_types::node::ProtocolMessage;
use spotless_types::{
    ClientBatch, CryptoCosts, Digest, InstanceId, ReplicaId, Signature, SizeModel, View,
    VoteStatement, SIGNATURE_LEN,
};
use std::sync::Arc;

/// A (view, digest) reference to a proposal — the content of a `claim(P)`
/// and of the `CP` entries inside `Sync` messages (§3.1/§3.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ProposalRef {
    /// View the referenced proposal was made in.
    pub view: View,
    /// Digest of the referenced proposal.
    pub digest: Digest,
}

/// How a proposal justifies extending its parent (§3.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum JustificationKind {
    /// The first proposal of an instance, extending the genesis.
    Genesis,
    /// **E1** — the primary holds `cert(P′)`: `n − f` signed `Sync`
    /// claims for the parent from the parent's view.
    Certificate,
    /// **E2** — the primary saw `n − f` `Sync` messages whose `CP` sets
    /// contain the parent (`claim(P′)` evidence; no certificate shipped).
    ClaimEvidence,
}

/// A proposal's link to its predecessor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Justification {
    /// E1/E2/genesis discriminator.
    pub kind: JustificationKind,
    /// The parent (`None` iff `kind` is `Genesis`).
    pub parent: Option<ProposalRef>,
}

impl Justification {
    /// The genesis justification.
    pub fn genesis() -> Justification {
        Justification {
            kind: JustificationKind::Genesis,
            parent: None,
        }
    }

    /// A certificate-backed (E1) justification.
    pub fn certificate(parent: ProposalRef) -> Justification {
        Justification {
            kind: JustificationKind::Certificate,
            parent: Some(parent),
        }
    }

    /// A claim-evidence (E2) justification.
    pub fn claim(parent: ProposalRef) -> Justification {
        Justification {
            kind: JustificationKind::ClaimEvidence,
            parent: Some(parent),
        }
    }
}

/// A SpotLess proposal `P := Propose(v, τ, cert|claim(P′))` (§3.1).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Proposal {
    /// The chained-consensus instance this proposal belongs to.
    pub instance: InstanceId,
    /// The view it was proposed in.
    pub view: View,
    /// The client batch `τ`.
    pub batch: ClientBatch,
    /// Link to the preceding proposal.
    pub justification: Justification,
    /// This proposal's digest (computed at construction; binds instance,
    /// view, batch digest, and parent).
    pub digest: Digest,
}

impl Proposal {
    /// Builds a proposal, computing its digest.
    pub fn new(
        instance: InstanceId,
        view: View,
        batch: ClientBatch,
        justification: Justification,
    ) -> Proposal {
        let digest = Proposal::digest_of(instance, view, &batch, &justification);
        Proposal {
            instance,
            view,
            batch,
            justification,
            digest,
        }
    }

    /// The digest a proposal with these fields carries. It reads only
    /// the batch's digest and id, so a receiver re-checks a forwarded
    /// body without copying its payload.
    pub fn digest_of(
        instance: InstanceId,
        view: View,
        batch: &ClientBatch,
        justification: &Justification,
    ) -> Digest {
        let mut parent = [0u8; 40];
        let parent: &[u8] = match &justification.parent {
            Some(p) => {
                parent[..8].copy_from_slice(&p.view.0.to_be_bytes());
                parent[8..].copy_from_slice(&p.digest.0);
                &parent
            }
            None => &[],
        };
        spotless_crypto::digest_fields(&[
            b"spotless-proposal",
            &u64::from(instance.0).to_be_bytes(),
            &view.0.to_be_bytes(),
            &batch.digest.0,
            &batch.id.0.to_be_bytes(),
            parent,
        ])
    }

    /// The (view, digest) reference to this proposal. (Named `reference`
    /// to avoid shadowing `Arc::as_ref` on `Arc<Proposal>`.)
    pub fn reference(&self) -> ProposalRef {
        ProposalRef {
            view: self.view,
            digest: self.digest,
        }
    }

    /// The parent reference, if not genesis-rooted.
    pub fn parent(&self) -> Option<ProposalRef> {
        self.justification.parent
    }
}

/// A `Sync(v, claim, CP[, Υ])` message (§3.1, §3.4).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SyncMsg {
    /// Instance the view belongs to.
    pub instance: InstanceId,
    /// The view being claimed about.
    pub view: View,
    /// `Some(claim(P))` — the unique well-formed proposal the sender
    /// accepted in `view` — or `None` for `claim(∅)` (§3.1).
    pub claim: Option<ProposalRef>,
    /// The sender's `CP` set: its lock plus every conditionally prepared
    /// proposal with a view ≥ the lock's view (§3.3), newest
    /// [`CP_CAP`] (8) at most. A longer list does not decode.
    #[serde(max_len = CP_CAP)]
    pub cp: Vec<ProposalRef>,
    /// The Υ flag: asks receivers to retransmit their own view-`view`
    /// `Sync` to the sender (§3.4's catch-up rule).
    pub upsilon: bool,
    /// Signature over the claim's [`VoteStatement`] — the "digital
    /// signature on the `Sync`" of §3.1 that certificates are later
    /// assembled from. [`Signature::ZERO`] for `claim(∅)`, whose votes
    /// never enter a certificate.
    ///
    /// [`VoteStatement`]: spotless_types::VoteStatement
    pub claim_sig: Signature,
    /// Per-entry signatures over each `cp[i]`'s vote statement, parallel
    /// to `cp`. A `Sync` whose `cp_sigs` length disagrees with `cp`, or
    /// whose `cp` exceeds [`CP_CAP`] (8), is malformed and dropped whole:
    /// on the wire an over-long list fails to decode, and `on_sync`
    /// drops one the simulator delivers undecoded.
    #[serde(max_len = CP_CAP)]
    pub cp_sigs: Vec<Signature>,
}

/// Maximum `CP` entries advertised per `Sync` (newest first). The set is
/// `{lock} ∪ {prepared ≥ lock}`, which is 2–3 entries in steady state.
pub const CP_CAP: usize = 8;

/// The full SpotLess message alphabet.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Message {
    /// A primary's proposal broadcast.
    Propose(Arc<Proposal>),
    /// A backup's per-view vote/synchronization message.
    Sync(SyncMsg),
    /// Request for the full body of a proposal known only by reference
    /// (§3.3's recovery mechanism).
    Ask {
        /// Instance the proposal belongs to.
        instance: InstanceId,
        /// Which proposal is wanted.
        target: ProposalRef,
    },
    /// Reply to an `Ask`: the recorded proposal, forwarded verbatim
    /// (possible because proposals are signed by their primary).
    Forward(Arc<Proposal>),
}

impl Message {
    /// The instance a message belongs to (for routing inside a replica).
    pub fn instance(&self) -> InstanceId {
        match self {
            Message::Propose(p) | Message::Forward(p) => p.instance,
            Message::Sync(s) => s.instance,
            Message::Ask { instance, .. } => *instance,
        }
    }
}

impl ProtocolMessage for Message {
    fn wire_size(&self, sizes: &SizeModel) -> u64 {
        match self {
            // A proposal carries the batch body (content dissemination is
            // folded into the proposal, §6.1) plus fixed framing. The
            // justification travels as a compact claim reference; the
            // certificate's signatures are the already-broadcast Sync
            // signatures, which receivers hold (see DESIGN.md §6).
            Message::Propose(p) | Message::Forward(p) => {
                sizes.proposal(p.batch.txns, p.batch.txn_size)
            }
            Message::Sync(s) => {
                // 432 B covers the fixed fields and a typical 2–3-entry CP
                // set; unusually long CP sets (post-recovery) pay extra
                // (each extra entry ships its reference and its vote
                // signature).
                let extra = (s.cp.len() as u64).saturating_sub(3)
                    * (8 + sizes.digest + SIGNATURE_LEN as u64);
                sizes.protocol_msg + extra
            }
            Message::Ask { .. } => sizes.protocol_msg,
        }
    }

    fn verify_cost(&self, costs: &CryptoCosts) -> u64 {
        match self {
            // Proposals: one primary signature plus hashing the batch body
            // to check the batch digest.
            Message::Propose(p) | Message::Forward(p) => {
                let body = u64::from(p.batch.txns) * u64::from(p.batch.txn_size);
                costs.verify_ns + costs.hash_ns_per_byte * body
            }
            // §3.1: "the MACs of Sync messages are always verified,
            // whereas digital signatures are only verified where recovery
            // is necessary" — the normal-case cost is one MAC.
            Message::Sync(_) => costs.mac_ns,
            Message::Ask { .. } => costs.mac_ns,
        }
    }

    fn sign_cost(&self, costs: &CryptoCosts) -> u64 {
        match self {
            // The primary signs each proposal once.
            Message::Propose(_) => costs.sign_ns,
            // Sync messages carry a signature (for later certificates)
            // plus per-destination MACs (charged by the runtime).
            Message::Sync(_) => costs.sign_ns,
            // Asks are MAC-only; forwards reuse the primary's signature.
            Message::Ask { .. } | Message::Forward(_) => 0,
        }
    }

    /// A `Sync` carries its sender's claim and one endorsement per `CP`
    /// entry; a malformed one (`cp_sigs` not parallel to `cp`, or more
    /// than `CP_CAP` (8) entries) carries nothing, as `on_sync` drops it
    /// whole.
    fn carried_votes(&self, from: ReplicaId, out: &mut Vec<(ReplicaId, VoteStatement, Signature)>) {
        let Message::Sync(s) = self else {
            return;
        };
        if s.cp_sigs.len() != s.cp.len() || s.cp.len() > CP_CAP {
            return;
        }
        let vote = |r: &ProposalRef, sig: Signature| {
            (from, VoteStatement::new(s.instance, r.view, r.digest), sig)
        };
        out.extend(s.claim.iter().map(|c| vote(c, s.claim_sig)));
        out.extend(s.cp.iter().zip(&s.cp_sigs).map(|(e, &sig)| vote(e, sig)));
    }

    /// A proposal carries its batch, whether proposed or forwarded. A
    /// `Sync` or an `Ask` names proposals by reference only.
    fn carried_batches<'a>(&'a self, out: &mut Vec<&'a ClientBatch>) {
        if let Message::Propose(p) | Message::Forward(p) = self {
            out.push(&p.batch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotless_types::{BatchId, ClientId, SimTime};

    fn batch(id: u64) -> ClientBatch {
        ClientBatch {
            id: BatchId(id),
            origin: ClientId(0),
            digest: Digest::from_u64(id),
            txns: 100,
            txn_size: 48,
            created_at: SimTime::ZERO,
            payload: Vec::new(),
        }
    }

    #[test]
    fn proposal_digest_binds_all_fields() {
        let j = Justification::genesis();
        let p1 = Proposal::new(InstanceId(0), View(1), batch(1), j);
        let p2 = Proposal::new(InstanceId(0), View(2), batch(1), j);
        let p3 = Proposal::new(InstanceId(1), View(1), batch(1), j);
        let p4 = Proposal::new(InstanceId(0), View(1), batch(2), j);
        let p5 = Proposal::new(
            InstanceId(0),
            View(1),
            batch(1),
            Justification::certificate(p1.reference()),
        );
        let digests = [p1.digest, p2.digest, p3.digest, p4.digest, p5.digest];
        for i in 0..digests.len() {
            for j in i + 1..digests.len() {
                assert_ne!(digests[i], digests[j], "{i} vs {j}");
            }
        }
    }

    /// `digest_of` hashes the same bytes `Proposal::new` always has,
    /// for both parent shapes, and never reads the payload.
    #[test]
    fn proposal_digests_are_pinned_and_ignore_the_payload() {
        let hex = |d: Digest| d.0.iter().map(|x| format!("{x:02x}")).collect::<String>();
        let mut b = batch(7);
        b.digest = Digest::from_u64(9);
        b.payload = vec![1, 2, 3];
        let g = Proposal::new(InstanceId(2), View(5), b.clone(), Justification::genesis());
        let j = Justification::certificate(g.reference());
        let c = Proposal::new(InstanceId(2), View(6), b.clone(), j);
        assert_eq!(
            hex(g.digest),
            "2557a8f5c9c82c0c5f4e61cb84fa2d65969351fc320c1b129ea49ce2ab98974e"
        );
        assert_eq!(
            hex(c.digest),
            "ea33a3e1cb740b2a25d16e96da44176ee84f81beab1f35d5a40054ed4a3ff550"
        );
        b.payload.clear();
        assert_eq!(Proposal::digest_of(c.instance, c.view, &b, &j), c.digest);
    }

    #[test]
    fn proposal_digest_is_deterministic() {
        let j = Justification::genesis();
        let a = Proposal::new(InstanceId(0), View(1), batch(1), j);
        let b = Proposal::new(InstanceId(0), View(1), batch(1), j);
        assert_eq!(a.digest, b.digest);
    }

    #[test]
    fn wire_sizes_match_paper_constants() {
        let sizes = SizeModel::default();
        let p = Message::Propose(Arc::new(Proposal::new(
            InstanceId(0),
            View(1),
            batch(1),
            Justification::genesis(),
        )));
        let got = p.wire_size(&sizes);
        assert!((5300..=5500).contains(&got), "proposal wire size {got}");
        let s = Message::Sync(SyncMsg {
            instance: InstanceId(0),
            view: View(1),
            claim: None,
            cp: vec![],
            upsilon: false,
            claim_sig: Signature::ZERO,
            cp_sigs: vec![],
        });
        assert_eq!(s.wire_size(&sizes), 432);
    }

    #[test]
    fn long_cp_sets_cost_extra_bytes() {
        let sizes = SizeModel::default();
        let entry = ProposalRef {
            view: View(0),
            digest: Digest::ZERO,
        };
        let s = Message::Sync(SyncMsg {
            instance: InstanceId(0),
            view: View(1),
            claim: None,
            cp: vec![entry; 10],
            upsilon: false,
            claim_sig: Signature::ZERO,
            cp_sigs: vec![Signature::ZERO; 10],
        });
        assert!(s.wire_size(&sizes) > 432);
    }

    #[test]
    fn sync_verification_is_mac_cheap() {
        let costs = CryptoCosts::default();
        let s = Message::Sync(SyncMsg {
            instance: InstanceId(0),
            view: View(1),
            claim: None,
            cp: vec![],
            upsilon: false,
            claim_sig: Signature::ZERO,
            cp_sigs: vec![],
        });
        assert_eq!(s.verify_cost(&costs), costs.mac_ns);
        let p = Message::Propose(Arc::new(Proposal::new(
            InstanceId(0),
            View(1),
            batch(1),
            Justification::genesis(),
        )));
        assert!(p.verify_cost(&costs) >= costs.verify_ns);
    }

    #[test]
    fn a_sync_carries_its_claim_and_every_cp_endorsement() {
        let entry = |v: u64| ProposalRef {
            view: View(v),
            digest: Digest::from_u64(v),
        };
        let mut s = SyncMsg {
            instance: InstanceId(2),
            view: View(9),
            claim: Some(entry(9)),
            cp: vec![entry(7), entry(8)],
            upsilon: false,
            claim_sig: Signature([9; 64]),
            cp_sigs: vec![Signature([7; 64]), Signature([8; 64])],
        };
        let votes = |s: &SyncMsg| {
            let mut out = Vec::new();
            Message::Sync(s.clone()).carried_votes(ReplicaId(3), &mut out);
            out
        };
        let listed = votes(&s);
        let expected: Vec<_> = [9, 7, 8]
            .map(|v| {
                let statement = VoteStatement::new(InstanceId(2), View(v), Digest::from_u64(v));
                (ReplicaId(3), statement, Signature([v as u8; 64]))
            })
            .into();
        assert_eq!(listed, expected);
        // claim(∅) carries no vote; a malformed Sync carries none at all.
        s.claim = None;
        assert_eq!(votes(&s).len(), 2);
        s.cp_sigs.pop();
        assert!(votes(&s).is_empty());
        s.cp = (0..=CP_CAP as u64).map(entry).collect();
        s.cp_sigs = vec![Signature([1; 64]); s.cp.len()];
        assert!(votes(&s).is_empty(), "more than CP_CAP entries");
        s.cp.pop();
        s.cp_sigs.pop();
        assert_eq!(votes(&s).len(), CP_CAP);
    }

    #[test]
    fn message_routing_by_instance() {
        let m = Message::Ask {
            instance: InstanceId(7),
            target: ProposalRef {
                view: View(0),
                digest: Digest::ZERO,
            },
        };
        assert_eq!(m.instance(), InstanceId(7));
    }
}
