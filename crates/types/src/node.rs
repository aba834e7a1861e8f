//! The sans-IO node model.
//!
//! Every protocol in this workspace — SpotLess itself and the four
//! baselines — is implemented as an I/O-free state machine that consumes
//! [`Input`]s and produces effects through a [`Context`]. Neither the
//! discrete-event simulator (`spotless-simnet`) nor the tokio transport
//! (`spotless-transport`) contains any protocol logic; they only shuttle
//! inputs and effects. Benchmarks therefore exercise exactly the code that
//! runs in a real deployment.
//!
//! Conventions:
//!
//! * `broadcast` delivers to **all replicas including the sender** (the
//!   paper's Remark 3.1 presentation). Self-delivery is a local loopback
//!   and is free of network cost in the simulator.
//! * Timers are never cancelled; a protocol must ignore stale
//!   [`TimerId`]s (they carry the instance and view they were armed for,
//!   which makes staleness checks O(1)).
//! * `commit` announces a consensus decision; execution and client
//!   `Inform` replies are the runtime's job (the simulator charges the
//!   sequential-execution and reply-bandwidth model, the tokio transport
//!   executes against the key-value store and answers clients).

use crate::costs::{CryptoCosts, SizeModel};
use crate::ids::{BatchId, ClientId, Digest, InstanceId, NodeId, ReplicaId, View};
use crate::sig::{Signature, VoteStatement};
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A batch of client transactions — the unit that primaries propose.
///
/// In simulation the payload is empty and only the size model matters; the
/// tokio transport carries the serialized transactions in `payload`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClientBatch {
    /// Unique identifier of this batch within a run.
    pub id: BatchId,
    /// The client (or client pool) that produced the batch.
    pub origin: ClientId,
    /// Digest of the batch contents; proposals reference batches by digest
    /// (§6.1: primaries disseminate contents ahead of proposing digests).
    pub digest: Digest,
    /// Number of transactions in the batch.
    pub txns: u32,
    /// Size in bytes of each individual transaction (YCSB record write).
    pub txn_size: u32,
    /// When the client created the batch; latency is measured from here.
    pub created_at: SimTime,
    /// Serialized transactions (empty under simulation).
    pub payload: Vec<u8>,
}

impl ClientBatch {
    /// A no-op batch proposed by a starved primary so execution of other
    /// instances' proposals does not stall (§5).
    pub fn noop(created_at: SimTime) -> ClientBatch {
        ClientBatch {
            id: BatchId(u64::MAX),
            origin: ClientId(u64::MAX),
            digest: Digest::ZERO,
            txns: 0,
            txn_size: 0,
            created_at,
            payload: Vec::new(),
        }
    }

    /// True iff this is a no-op filler batch.
    #[inline]
    pub fn is_noop(&self) -> bool {
        self.id == BatchId(u64::MAX)
    }

    /// Bytes this batch occupies inside a proposal.
    #[inline]
    pub fn body_size(&self, sizes: &SizeModel) -> u64 {
        u64::from(self.txns) * (u64::from(self.txn_size) + sizes.per_txn_overhead)
    }
}

/// What a protocol timer was armed for. Kinds are shared across protocols;
/// each protocol interprets only the kinds it arms.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TimerKind {
    /// SpotLess ST1: waiting for an acceptable proposal (`t_R`).
    Recording,
    /// SpotLess ST3: waiting for `n − f` matching claims (`t_A`).
    Certifying,
    /// Periodic retransmission of unanswered `Sync(Υ)`/`Ask` messages (§3.5).
    Retransmit,
    /// HotStuff-style pacemaker / PBFT view-change timer.
    ViewChange,
    /// Client-side response timeout.
    Client,
    /// Harness-defined timers (load generation, fault injection).
    Custom(u16),
}

/// Identifies one armed timer. Carries enough context (instance + view)
/// for the protocol to recognise stale fires without a cancel facility.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId {
    /// What the timer is for.
    pub kind: TimerKind,
    /// The consensus instance it belongs to (instance 0 for single-instance
    /// protocols and client timers).
    pub instance: InstanceId,
    /// The view the timer was armed in.
    pub view: View,
}

impl TimerId {
    /// Convenience constructor.
    pub fn new(kind: TimerKind, instance: InstanceId, view: View) -> TimerId {
        TimerId {
            kind,
            instance,
            view,
        }
    }
}

/// The strength class of a commit certificate: which quorum rule the
/// signer set satisfied at the replica that announced the commit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CertPhase {
    /// A strong quorum certified the decision (`n − f` signers): a
    /// SpotLess same-claim `Sync` quorum, a PBFT commit-phase quorum,
    /// or a HotStuff quorum certificate.
    Strong,
    /// Weak-quorum evidence (`f + 1` signers, guaranteeing at least one
    /// honest member): SpotLess prepares driven by `CP`-set
    /// endorsements on a recovering replica.
    Weak,
}

/// The certificate behind a consensus decision: which replicas' signed
/// votes the announcing replica holds for it, and the signatures
/// themselves. This is what makes a commit *verifiable* after the
/// fact — the runtime copies it into the durable block's `CommitProof`,
/// the ledger refuses to append a block whose certificate does not
/// satisfy the quorum rules **or whose signatures do not check out**,
/// and state transfer re-verifies it on every received block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommitCertificate {
    /// The view the certifying votes were cast in. Usually the
    /// committed proposal's own view; a straggler that commits an
    /// ancestor transitively (three-chain rule) records the certifying
    /// descendant's view instead.
    pub view: View,
    /// Which quorum rule `signers` satisfies.
    pub phase: CertPhase,
    /// The digest the certifying votes were cast *for* — the voted
    /// proposal/block digest. Under the three-chain rule this is the
    /// certifying descendant's digest, not the committed batch's.
    pub voted: Digest,
    /// Log position bound by the votes, for protocols whose voted
    /// digest does not itself bind one (PBFT sequence numbers); zero
    /// elsewhere.
    pub slot: u64,
    /// The replicas whose votes certify the decision. Must be
    /// duplicate-free and within the cluster; size must meet the
    /// phase's quorum (`n − f` strong, `f + 1` weak).
    pub signers: Vec<ReplicaId>,
    /// Each signer's signature over the vote statement
    /// `(instance, view, slot, voted)`, parallel to `signers`.
    /// All-zero placeholders under pure simulation (the default
    /// [`Context`] oracle); real Ed25519 under the runtime.
    pub sigs: Vec<Signature>,
}

impl CommitCertificate {
    /// A strong (`n − f`) certificate.
    pub fn strong(
        view: View,
        voted: Digest,
        signers: Vec<ReplicaId>,
        sigs: Vec<Signature>,
    ) -> CommitCertificate {
        CommitCertificate {
            view,
            phase: CertPhase::Strong,
            voted,
            slot: 0,
            signers,
            sigs,
        }
    }

    /// A weak (`f + 1`) certificate.
    pub fn weak(
        view: View,
        voted: Digest,
        signers: Vec<ReplicaId>,
        sigs: Vec<Signature>,
    ) -> CommitCertificate {
        CommitCertificate {
            view,
            phase: CertPhase::Weak,
            voted,
            slot: 0,
            signers,
            sigs,
        }
    }

    /// The statement every signature in this certificate covers.
    pub fn statement(&self, instance: InstanceId) -> VoteStatement {
        VoteStatement {
            instance,
            view: self.view,
            slot: self.slot,
            digest: self.voted,
        }
    }
}

/// A consensus decision announced by a replica.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommitInfo {
    /// The instance whose chain the decision extends.
    pub instance: InstanceId,
    /// The view in which the committed proposal was made.
    pub view: View,
    /// Chain depth of the committed proposal (genesis = depth 0).
    pub depth: u64,
    /// The batch decided at this position.
    pub batch: ClientBatch,
    /// Who certified the decision (travels into durable storage as the
    /// block's `CommitProof`).
    pub cert: CommitCertificate,
}

/// Inputs driven into a protocol state machine by the runtime.
#[derive(Clone, Debug)]
pub enum Input<M> {
    /// The node has been started; arm initial timers, propose if primary.
    Start,
    /// A message arrived from `from` (authenticity already charged by the
    /// runtime's cost model; forged messages are modelled by Byzantine
    /// senders, not by the transport).
    Deliver {
        /// The sending node.
        from: NodeId,
        /// The message.
        msg: M,
    },
    /// A previously armed timer fired. Stale fires are the receiver's
    /// responsibility to ignore.
    Timer(TimerId),
    /// A client batch arrived at this replica for proposing.
    Request(ClientBatch),
}

/// The effect interface protocols write to.
pub trait Context {
    /// The protocol's wire message type.
    type Message;

    /// Current logical time.
    fn now(&self) -> SimTime;

    /// This node's own identity.
    fn id(&self) -> NodeId;

    /// Sends `msg` to a single node.
    fn send(&mut self, to: NodeId, msg: Self::Message);

    /// Sends `msg` to every replica, **including this one** (Remark 3.1).
    fn broadcast(&mut self, msg: Self::Message);

    /// Arms a timer to fire `after` from now.
    fn set_timer(&mut self, id: TimerId, after: SimDuration);

    /// Announces a consensus decision at this replica.
    fn commit(&mut self, info: CommitInfo);

    /// Signs `statement` with this replica's vote key.
    ///
    /// The default returns the all-zero placeholder: under the
    /// discrete-event simulator there is no key material and signature
    /// CPU is *charged* by the cost model, not computed. The runtime
    /// overrides this with the cluster key store so certificates carry
    /// real Ed25519 signatures.
    fn sign_vote(&mut self, statement: &VoteStatement) -> Signature {
        let _ = statement;
        Signature::ZERO
    }

    /// Verifies `signer`'s vote signature over `statement`.
    ///
    /// The default accepts everything, mirroring [`sign_vote`]'s
    /// placeholder: simulation models forgery through Byzantine sender
    /// behaviour, not through the byte-level signature check. The
    /// runtime overrides this with real verification, so protocol code
    /// must call it before counting a vote toward a certificate.
    ///
    /// [`sign_vote`]: Context::sign_vote
    fn verify_vote(
        &mut self,
        signer: ReplicaId,
        statement: &VoteStatement,
        sig: &Signature,
    ) -> bool {
        let _ = (signer, statement, sig);
        true
    }
}

/// An I/O-free protocol state machine.
pub trait Node {
    /// The protocol's wire message type.
    type Message: ProtocolMessage;

    /// Processes one input, emitting effects through `ctx`.
    fn on_input(
        &mut self,
        input: Input<Self::Message>,
        ctx: &mut dyn Context<Message = Self::Message>,
    );
}

/// Resource-model hooks every wire message must provide so the simulator
/// can charge network and CPU costs faithfully.
pub trait ProtocolMessage: Clone {
    /// Bytes this message occupies on the wire.
    fn wire_size(&self, sizes: &SizeModel) -> u64;

    /// Single-core CPU nanoseconds the **receiver** spends authenticating
    /// this message before the protocol handler may run. This is where the
    /// MAC-vs-signature distinction of §2 shows up: SpotLess `Sync`
    /// messages cost one MAC verification, HotStuff certificates cost
    /// `n − f` signature verifications, and so on.
    fn verify_cost(&self, costs: &CryptoCosts) -> u64;

    /// Single-core CPU nanoseconds the **sender** spends authenticating
    /// this message (signing happens once per message; per-destination MAC
    /// generation is charged by the runtime).
    fn sign_cost(&self, costs: &CryptoCosts) -> u64;

    /// Appends to `out` the votes this message, received from `from`,
    /// asks its receiver to count: `(signer, statement, signature)`,
    /// as the handler would pass them to [`Context::verify_vote`].
    /// List at most the votes the handler may check — nothing for a
    /// message it discards before checking any, so the list stays
    /// bounded by what an honest message carries. The runtime verifies
    /// the listed votes together with the envelope signatures, off the
    /// event loop, so a vote a handler checks but its message does not
    /// list costs a serial verification on the loop; a list naming a
    /// signer the receiver does not know is ignored whole. The default
    /// lists none.
    fn carried_votes(&self, from: ReplicaId, out: &mut Vec<(ReplicaId, VoteStatement, Signature)>) {
        let _ = (from, out);
    }

    /// Appends to `out` every [`ClientBatch`] this message carries in
    /// full, payload included: each batch a receiver may come to
    /// execute from this message. Consensus votes on a batch's digest
    /// alone, so the runtime's ingress drops a message whose listed
    /// non-no-op batch has a payload that does not hash to its digest —
    /// otherwise one primary could show two replicas two payloads under
    /// one digest, and both would commit and execute different
    /// transactions. A batch a message names only by digest or id (a
    /// vote, a `Sync`'s references, an ack) is not listed: what it
    /// refers to was checked when it arrived in full. The default lists
    /// none.
    fn carried_batches<'a>(&'a self, out: &mut Vec<&'a ClientBatch>) {
        let _ = out;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ReplicaId;

    #[test]
    fn noop_batches_are_marked() {
        let b = ClientBatch::noop(SimTime::ZERO);
        assert!(b.is_noop());
        assert_eq!(b.txns, 0);
        assert_eq!(b.body_size(&SizeModel::default()), 0);
    }

    #[test]
    fn batch_body_size_scales_with_txn_size() {
        let sizes = SizeModel::default();
        let b = ClientBatch {
            id: BatchId(1),
            origin: ClientId(0),
            digest: Digest::ZERO,
            txns: 100,
            txn_size: 48,
            created_at: SimTime::ZERO,
            payload: Vec::new(),
        };
        assert_eq!(b.body_size(&sizes), 100 * (48 + sizes.per_txn_overhead));
    }

    #[test]
    fn timer_ids_carry_staleness_context() {
        let t = TimerId::new(TimerKind::Recording, InstanceId(2), View(7));
        assert_eq!(t.instance, InstanceId(2));
        assert_eq!(t.view, View(7));
        let _ = NodeId::Replica(ReplicaId(0));
    }
}
