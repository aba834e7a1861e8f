//! PBFT (Castro & Liskov) — the classical primary-backup baseline.
//!
//! Mirrors the paper's §6.2 setup: a *heavily optimized, out-of-order,
//! MAC-authenticated* implementation. The primary may have up to `window`
//! consensus slots in flight simultaneously (this is the out-of-order
//! processing that chained protocols cannot use, §4), each slot running
//! the classic three-phase pre-prepare → prepare → commit exchange with
//! `2f + 1` quorums. Execution is sequential in slot order.
//!
//! The view-change protocol is implemented in simplified form (complaint
//! quorum → next primary re-proposes unexecuted slots). The paper's
//! experiments never depose a PBFT primary — crashes hit backups — so
//! this path exists for completeness and liveness, not performance
//! fidelity; see DESIGN.md.

use crate::util::ReplicaSet;
use serde::{Deserialize, Serialize};
use spotless_types::node::ProtocolMessage;
use spotless_types::{
    BatchId, CertPhase, ClientBatch, ClusterConfig, CommitCertificate, CommitInfo, Context,
    CryptoCosts, Digest, Input, InstanceId, Node, NodeId, ReplicaId, Signature, SimDuration,
    SizeModel, TimerId, TimerKind, View, VoteStatement,
};
use std::collections::{BTreeMap, HashSet, VecDeque};

/// How many slots may be in flight beyond the last executed one.
pub const DEFAULT_WINDOW: u64 = 192;

/// PBFT wire messages. All are MAC-authenticated (§6.2: the optimized
/// implementation uses MACs, not signatures).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum PbftMessage {
    /// Primary assigns `batch` to slot `seq` in `view`.
    PrePrepare {
        /// Current view.
        view: View,
        /// Slot number.
        seq: u64,
        /// The proposed batch.
        batch: ClientBatch,
    },
    /// Backup echo of the assignment.
    Prepare {
        /// Current view.
        view: View,
        /// Slot number.
        seq: u64,
        /// Digest of the pre-prepared batch.
        digest: Digest,
    },
    /// Second-phase vote.
    Commit {
        /// Current view.
        view: View,
        /// Slot number.
        seq: u64,
        /// Digest of the pre-prepared batch.
        digest: Digest,
        /// Signature over the vote statement `(instance, view, seq,
        /// digest)`. The wire stays MAC-authenticated per §6.2 — this
        /// detached signature exists so the commit-phase quorum can be
        /// persisted as a third-party-checkable `CommitProof`; the
        /// simulator's cost model still charges MACs only.
        sig: Signature,
    },
    /// A backup relays a client batch to the current primary.
    Forward {
        /// The relayed batch.
        batch: ClientBatch,
    },
    /// Vote to depose the current primary.
    ViewChange {
        /// The proposed new view.
        new_view: View,
    },
    /// The new primary re-proposes unexecuted slots.
    NewView {
        /// The new view.
        view: View,
        /// Slots to re-run under the new view.
        reproposals: Vec<(u64, ClientBatch)>,
    },
}

impl ProtocolMessage for PbftMessage {
    fn wire_size(&self, sizes: &SizeModel) -> u64 {
        match self {
            PbftMessage::PrePrepare { batch, .. } | PbftMessage::Forward { batch } => {
                sizes.proposal(batch.txns, batch.txn_size)
            }
            PbftMessage::NewView { reproposals, .. } => {
                let body: u64 = reproposals
                    .iter()
                    .map(|(_, b)| sizes.proposal(b.txns, b.txn_size))
                    .sum();
                sizes.protocol_msg + body
            }
            _ => sizes.protocol_msg,
        }
    }

    fn verify_cost(&self, costs: &CryptoCosts) -> u64 {
        match self {
            PbftMessage::PrePrepare { batch, .. } | PbftMessage::Forward { batch } => {
                costs.mac_ns
                    + costs.hash_ns_per_byte * u64::from(batch.txns) * u64::from(batch.txn_size)
            }
            _ => costs.mac_ns,
        }
    }

    fn sign_cost(&self, _costs: &CryptoCosts) -> u64 {
        0 // MAC-only; per-destination MACs are charged by the runtime.
    }

    /// Plain PBFT runs instance 0.
    fn carried_votes(&self, from: ReplicaId, out: &mut Vec<(ReplicaId, VoteStatement, Signature)>) {
        self.commit_vote(InstanceId(0), from, out);
    }

    /// A `PrePrepare` or `Forward` carries its batch, and a `NewView`
    /// each batch it re-proposes (they go through `on_preprepare`).
    /// `Prepare` and `Commit` name the batch by digest only.
    fn carried_batches<'a>(&'a self, out: &mut Vec<&'a ClientBatch>) {
        match self {
            PbftMessage::PrePrepare { batch, .. } | PbftMessage::Forward { batch } => {
                out.push(batch);
            }
            PbftMessage::NewView { reproposals, .. } => {
                out.extend(reproposals.iter().map(|(_, batch)| batch));
            }
            _ => {}
        }
    }
}

impl PbftMessage {
    /// The vote a `Commit` from `from` carries, over its statement in
    /// `instance` (the message does not name its instance; RCC's
    /// envelope does).
    pub(crate) fn commit_vote(
        &self,
        instance: InstanceId,
        from: ReplicaId,
        out: &mut Vec<(ReplicaId, VoteStatement, Signature)>,
    ) {
        if let PbftMessage::Commit {
            view,
            seq,
            digest,
            sig,
        } = self
        {
            let statement = VoteStatement {
                instance,
                view: *view,
                slot: *seq,
                digest: *digest,
            };
            out.push((from, statement, *sig));
        }
    }
}

#[derive(Default)]
struct Slot {
    batch: Option<ClientBatch>,
    digest: Option<Digest>,
    view: View,
    prepares: ReplicaSet,
    commits: ReplicaSet,
    /// Verified `(signer, signature)` pairs behind `commits`, in
    /// arrival order — the material for the slot's `CommitProof`.
    commit_sigs: Vec<(ReplicaId, Signature)>,
    sent_prepare: bool,
    sent_commit: bool,
    committed: bool,
    executed: bool,
}

/// A PBFT replica (single consensus instance; RCC composes many).
pub struct PbftReplica {
    cfg: ClusterConfig,
    me: ReplicaId,
    /// Reported as this instance in `CommitInfo` (RCC sets it per
    /// instance; plain PBFT uses instance 0).
    instance: InstanceId,
    window: u64,
    view: View,
    slots: BTreeMap<u64, Slot>,
    next_seq: u64,
    next_exec: u64,
    /// Sequence of the last commit emitted (deterministic-execution
    /// assertion; see `execute_ready`).
    last_emitted: Option<u64>,
    mempool: VecDeque<ClientBatch>,
    seen: HashSet<BatchId>,
    vc_votes: BTreeMap<View, ReplicaSet>,
    vc_sent_for: Option<View>,
    /// `next_exec` at the last progress-check timer fire.
    last_progress_mark: u64,
    progress_interval: SimDuration,
}

impl PbftReplica {
    /// A PBFT replica for `cluster` with the default window.
    pub fn new(cluster: ClusterConfig, me: ReplicaId) -> PbftReplica {
        PbftReplica::with_instance(cluster, me, InstanceId(0), DEFAULT_WINDOW)
    }

    /// A PBFT replica labelled as `instance` (used by RCC).
    pub fn with_instance(
        cluster: ClusterConfig,
        me: ReplicaId,
        instance: InstanceId,
        window: u64,
    ) -> PbftReplica {
        let progress_interval = cluster.client_timeout.halved();
        PbftReplica {
            cfg: cluster,
            me,
            instance,
            window,
            view: View::ZERO,
            slots: BTreeMap::new(),
            next_seq: 0,
            next_exec: 0,
            last_emitted: None,
            mempool: VecDeque::new(),
            seen: HashSet::new(),
            vc_votes: BTreeMap::new(),
            vc_sent_for: None,
            last_progress_mark: 0,
            progress_interval,
        }
    }

    /// Proposes no-op slots up to and including `target` (after first
    /// exhausting real mempool work). RCC uses this to unblock its
    /// round-interleaved execution barrier when this instance is idle
    /// while others have committed work waiting — the same role §5's
    /// no-op proposals play in SpotLess.
    pub fn fill_noops_to(&mut self, target: u64, ctx: &mut dyn Context<Message = PbftMessage>) {
        if !self.is_primary() {
            return;
        }
        self.try_propose(ctx);
        if self.next_seq < self.next_exec {
            self.next_seq = self.next_exec;
        }
        while self.next_seq <= target {
            let seq = self.next_seq;
            self.next_seq += 1;
            ctx.broadcast(PbftMessage::PrePrepare {
                view: self.view,
                seq,
                batch: ClientBatch::noop(ctx.now()),
            });
        }
    }

    /// Disables the view-change progress checker. RCC replaces deposition
    /// with complaint-based instance suspension, so its embedded PBFT
    /// instances never rotate primaries.
    pub fn disable_view_change(&mut self) {
        self.progress_interval = SimDuration::from_secs(1 << 20);
    }

    /// The fixed primary of `view` for plain PBFT. RCC overrides the base
    /// so instance `i` starts at primary `i`.
    fn primary_of(&self, view: View) -> ReplicaId {
        ReplicaId(((u64::from(self.instance.0) + view.0) % u64::from(self.cfg.n)) as u32)
    }

    fn is_primary(&self) -> bool {
        self.primary_of(self.view) == self.me
    }

    /// Current view (observability).
    pub fn view(&self) -> View {
        self.view
    }

    /// Executed slot count (observability).
    pub fn executed(&self) -> u64 {
        self.next_exec
    }

    /// Mempool depth (observability).
    pub fn mempool_len(&self) -> usize {
        self.mempool.len()
    }

    /// Submit a batch locally (used by RCC routing).
    pub fn enqueue(&mut self, batch: ClientBatch, ctx: &mut dyn Context<Message = PbftMessage>) {
        if batch.is_noop() || !self.seen.insert(batch.id) {
            return;
        }
        if self.is_primary() {
            self.mempool.push_back(batch);
            self.try_propose(ctx);
        } else {
            // Relay to the current primary (clients may not know it).
            let primary = self.primary_of(self.view);
            ctx.send(primary.into(), PbftMessage::Forward { batch });
        }
    }

    /// Drives the node; exposed so RCC can embed PBFT replicas.
    pub fn handle(
        &mut self,
        input: Input<PbftMessage>,
        ctx: &mut dyn Context<Message = PbftMessage>,
    ) {
        match input {
            Input::Start => {
                ctx.set_timer(
                    TimerId::new(TimerKind::ViewChange, self.instance, self.view),
                    self.progress_interval,
                );
            }
            Input::Request(batch) => self.enqueue(batch, ctx),
            Input::Deliver { from, msg } => {
                let NodeId::Replica(from) = from else { return };
                self.on_message(from, msg, ctx);
            }
            Input::Timer(id) => {
                if id.kind == TimerKind::ViewChange {
                    self.on_progress_timer(ctx);
                }
            }
        }
    }

    fn on_message(
        &mut self,
        from: ReplicaId,
        msg: PbftMessage,
        ctx: &mut dyn Context<Message = PbftMessage>,
    ) {
        match msg {
            PbftMessage::PrePrepare { view, seq, batch } => {
                self.on_preprepare(from, view, seq, batch, ctx)
            }
            PbftMessage::Prepare { view, seq, digest } => {
                self.on_prepare(from, view, seq, digest, ctx)
            }
            PbftMessage::Commit {
                view,
                seq,
                digest,
                sig,
            } => self.on_commit(from, view, seq, digest, sig, ctx),
            PbftMessage::Forward { batch } => {
                if self.is_primary() && !batch.is_noop() && self.seen.insert(batch.id) {
                    self.mempool.push_back(batch);
                    self.try_propose(ctx);
                }
            }
            PbftMessage::ViewChange { new_view } => self.on_view_change(from, new_view, ctx),
            PbftMessage::NewView { view, reproposals } => {
                self.on_new_view(from, view, reproposals, ctx)
            }
        }
    }

    /// Out-of-order proposing: fill every free slot in the window.
    fn try_propose(&mut self, ctx: &mut dyn Context<Message = PbftMessage>) {
        if !self.is_primary() {
            return;
        }
        if self.next_seq < self.next_exec {
            self.next_seq = self.next_exec;
        }
        while self.next_seq < self.next_exec + self.window {
            let Some(batch) = self.mempool.pop_front() else {
                return;
            };
            let seq = self.next_seq;
            self.next_seq += 1;
            ctx.broadcast(PbftMessage::PrePrepare {
                view: self.view,
                seq,
                batch,
            });
        }
    }

    fn on_preprepare(
        &mut self,
        from: ReplicaId,
        view: View,
        seq: u64,
        batch: ClientBatch,
        ctx: &mut dyn Context<Message = PbftMessage>,
    ) {
        if view != self.view || from != self.primary_of(view) || seq < self.next_exec {
            return;
        }
        let n = self.cfg.n;
        let slot = self.slots.entry(seq).or_default();
        if slot.batch.is_some() && slot.view == view {
            return; // only one pre-prepare per (view, seq)
        }
        let digest = batch.digest;
        slot.view = view;
        slot.digest = Some(digest);
        slot.batch = Some(batch);
        if slot.prepares.is_empty() {
            slot.prepares = ReplicaSet::new(n);
            slot.commits = ReplicaSet::new(n);
        }
        if !slot.sent_prepare {
            slot.sent_prepare = true;
            ctx.broadcast(PbftMessage::Prepare { view, seq, digest });
        }
        self.check_slot(seq, ctx);
    }

    fn on_prepare(
        &mut self,
        from: ReplicaId,
        view: View,
        seq: u64,
        digest: Digest,
        ctx: &mut dyn Context<Message = PbftMessage>,
    ) {
        if view != self.view || seq < self.next_exec {
            return;
        }
        let n = self.cfg.n;
        let slot = self.slots.entry(seq).or_default();
        if slot.prepares.is_empty() {
            slot.prepares = ReplicaSet::new(n);
            slot.commits = ReplicaSet::new(n);
        }
        if slot.digest.is_some_and(|d| d != digest) {
            return;
        }
        slot.prepares.insert(from);
        self.check_slot(seq, ctx);
    }

    fn on_commit(
        &mut self,
        from: ReplicaId,
        view: View,
        seq: u64,
        digest: Digest,
        sig: Signature,
        ctx: &mut dyn Context<Message = PbftMessage>,
    ) {
        if view != self.view || seq < self.next_exec {
            return;
        }
        // A commit vote counts toward the quorum — and into the slot's
        // durable certificate — only if its signature over the slot's
        // vote statement verifies.
        let stmt = VoteStatement {
            instance: self.instance,
            view,
            slot: seq,
            digest,
        };
        if !ctx.verify_vote(from, &stmt, &sig) {
            return;
        }
        let n = self.cfg.n;
        let slot = self.slots.entry(seq).or_default();
        if slot.prepares.is_empty() {
            slot.prepares = ReplicaSet::new(n);
            slot.commits = ReplicaSet::new(n);
        }
        if slot.digest.is_some_and(|d| d != digest) {
            return;
        }
        if slot.commits.insert(from) {
            slot.commit_sigs.push((from, sig));
        }
        self.check_slot(seq, ctx);
    }

    /// Advances one slot through prepared → committed → executed.
    fn check_slot(&mut self, seq: u64, ctx: &mut dyn Context<Message = PbftMessage>) {
        let quorum = self.cfg.quorum();
        let view = self.view;
        let Some(slot) = self.slots.get_mut(&seq) else {
            return;
        };
        // Prepared: pre-prepare + 2f matching prepares (counting self).
        if slot.batch.is_some() && !slot.sent_commit && slot.prepares.len() >= quorum {
            slot.sent_commit = true;
            let digest = slot.digest.expect("digest set with batch");
            let sig = ctx.sign_vote(&VoteStatement {
                instance: self.instance,
                view,
                slot: seq,
                digest,
            });
            ctx.broadcast(PbftMessage::Commit {
                view,
                seq,
                digest,
                sig,
            });
        }
        if slot.batch.is_some() && !slot.committed && slot.commits.len() >= quorum {
            slot.committed = true;
        }
        self.execute_ready(ctx);
    }

    fn execute_ready(&mut self, ctx: &mut dyn Context<Message = PbftMessage>) {
        let mut advanced = false;
        while let Some(slot) = self.slots.get_mut(&self.next_exec) {
            if !slot.committed || slot.executed {
                break;
            }
            slot.executed = true;
            let batch = slot.batch.clone().expect("committed slot has batch");
            let view = slot.view;
            let seq = self.next_exec;
            // The commit-phase quorum is the certificate: the 2f + 1
            // replicas whose `Commit` votes sealed the slot (the set
            // can only have grown since the threshold was crossed),
            // with their verified signatures over `(view, seq, digest)`.
            let digest = slot.digest.expect("committed slot has digest");
            let (signers, sigs) = slot.commit_sigs.iter().copied().unzip();
            let cert = CommitCertificate {
                view,
                phase: CertPhase::Strong,
                voted: digest,
                slot: seq,
                signers,
                sigs,
            };
            // Execution order is consensus-critical (the runtime seals
            // the post-execution state root into each block): commits
            // must leave this replica in gapless sequence order across
            // every execute_ready call — any view-change or window
            // bookkeeping bug that rewound or skipped the cursor would
            // fork the chain.
            debug_assert_eq!(
                seq,
                self.last_emitted.map_or(0, |l| l + 1),
                "PBFT execution order regressed or skipped a slot"
            );
            self.last_emitted = Some(seq);
            self.next_exec += 1;
            advanced = true;
            ctx.commit(CommitInfo {
                instance: self.instance,
                view,
                depth: seq,
                batch,
                cert,
            });
        }
        if advanced {
            // Free window space: keep proposing, drop old slots.
            let floor = self.next_exec.saturating_sub(8);
            while let Some((&s, _)) = self.slots.first_key_value() {
                if s >= floor {
                    break;
                }
                self.slots.pop_first();
            }
            self.try_propose(ctx);
        }
    }

    // ------------------------------------------------------------------
    // View change (simplified; see module docs)
    // ------------------------------------------------------------------

    fn on_progress_timer(&mut self, ctx: &mut dyn Context<Message = PbftMessage>) {
        let stuck = self.next_exec == self.last_progress_mark
            && (self
                .slots
                .values()
                .any(|s| s.batch.is_some() && !s.executed)
                || !self.mempool.is_empty());
        self.last_progress_mark = self.next_exec;
        if stuck {
            let target = self.view.next();
            if self.vc_sent_for != Some(target) {
                self.vc_sent_for = Some(target);
                ctx.broadcast(PbftMessage::ViewChange { new_view: target });
            }
        }
        ctx.set_timer(
            TimerId::new(TimerKind::ViewChange, self.instance, self.view),
            self.progress_interval,
        );
    }

    fn on_view_change(
        &mut self,
        from: ReplicaId,
        new_view: View,
        ctx: &mut dyn Context<Message = PbftMessage>,
    ) {
        if new_view <= self.view {
            return;
        }
        let n = self.cfg.n;
        let votes = self
            .vc_votes
            .entry(new_view)
            .or_insert_with(|| ReplicaSet::new(n));
        votes.insert(from);
        let count = votes.len();
        // Join a view change once f + 1 replicas demand it.
        if count >= self.cfg.weak_quorum() && self.vc_sent_for != Some(new_view) {
            self.vc_sent_for = Some(new_view);
            ctx.broadcast(PbftMessage::ViewChange { new_view });
        }
        if count >= self.cfg.quorum() {
            self.enter_view(new_view, ctx);
        }
    }

    fn enter_view(&mut self, view: View, ctx: &mut dyn Context<Message = PbftMessage>) {
        self.view = view;
        self.vc_votes = self.vc_votes.split_off(&view.next());
        self.vc_sent_for = None;
        // Reset consensus state of unexecuted slots; the new primary
        // re-proposes them.
        let unexecuted: Vec<(u64, Option<ClientBatch>)> = self
            .slots
            .iter()
            .filter(|(_, s)| !s.executed)
            .map(|(&seq, s)| (seq, s.batch.clone()))
            .collect();
        for (seq, _) in &unexecuted {
            self.slots.remove(seq);
        }
        if self.is_primary() {
            let reproposals: Vec<(u64, ClientBatch)> = unexecuted
                .into_iter()
                .filter_map(|(seq, b)| b.map(|b| (seq, b)))
                .collect();
            self.next_seq = self
                .next_exec
                .max(reproposals.iter().map(|(s, _)| s + 1).max().unwrap_or(0));
            ctx.broadcast(PbftMessage::NewView { view, reproposals });
            self.try_propose(ctx);
        }
    }

    fn on_new_view(
        &mut self,
        from: ReplicaId,
        view: View,
        reproposals: Vec<(u64, ClientBatch)>,
        ctx: &mut dyn Context<Message = PbftMessage>,
    ) {
        if view < self.view || from != self.primary_of(view) {
            return;
        }
        if view > self.view {
            self.view = view;
            self.vc_sent_for = None;
        }
        for (seq, batch) in reproposals {
            self.on_preprepare(from, view, seq, batch, ctx);
        }
    }
}

impl Node for PbftReplica {
    type Message = PbftMessage;

    fn on_input(
        &mut self,
        input: Input<PbftMessage>,
        ctx: &mut dyn Context<Message = PbftMessage>,
    ) {
        self.handle(input, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotless_types::ClientId;
    use spotless_types::SimTime;

    fn batch(id: u64) -> ClientBatch {
        ClientBatch {
            id: BatchId(id),
            origin: ClientId(0),
            digest: Digest::from_u64(id),
            txns: 10,
            txn_size: 48,
            created_at: SimTime::ZERO,
            payload: Vec::new(),
        }
    }

    struct Ctx {
        sent: Vec<(Option<NodeId>, PbftMessage)>,
        commits: Vec<CommitInfo>,
    }
    impl Ctx {
        fn new() -> Ctx {
            Ctx {
                sent: vec![],
                commits: vec![],
            }
        }
    }
    impl Context for Ctx {
        type Message = PbftMessage;
        fn now(&self) -> SimTime {
            SimTime::ZERO
        }
        fn id(&self) -> NodeId {
            NodeId::Replica(ReplicaId(0))
        }
        fn send(&mut self, to: NodeId, msg: PbftMessage) {
            self.sent.push((Some(to), msg));
        }
        fn broadcast(&mut self, msg: PbftMessage) {
            self.sent.push((None, msg));
        }
        fn set_timer(&mut self, _id: TimerId, _after: SimDuration) {}
        fn commit(&mut self, info: CommitInfo) {
            self.commits.push(info);
        }
    }

    #[test]
    fn primary_proposes_out_of_order() {
        let cluster = ClusterConfig::new(4);
        let mut p = PbftReplica::new(cluster, ReplicaId(0));
        let mut ctx = Ctx::new();
        for i in 0..5 {
            p.handle(Input::Request(batch(i)), &mut ctx);
        }
        let preprepares = ctx
            .sent
            .iter()
            .filter(|(_, m)| matches!(m, PbftMessage::PrePrepare { .. }))
            .count();
        // All five in flight at once — no waiting for earlier decisions.
        assert_eq!(preprepares, 5);
    }

    #[test]
    fn backup_forwards_requests_to_primary() {
        let cluster = ClusterConfig::new(4);
        let mut p = PbftReplica::new(cluster, ReplicaId(2));
        let mut ctx = Ctx::new();
        p.handle(Input::Request(batch(1)), &mut ctx);
        match &ctx.sent[0] {
            (Some(NodeId::Replica(r)), PbftMessage::Forward { .. }) => {
                assert_eq!(*r, ReplicaId(0))
            }
            other => panic!("expected forward to primary, got {other:?}"),
        }
    }

    #[test]
    fn slot_commits_after_quorums() {
        let cluster = ClusterConfig::new(4);
        let mut p = PbftReplica::new(cluster, ReplicaId(1));
        let mut ctx = Ctx::new();
        let b = batch(1);
        let d = b.digest;
        p.handle(
            Input::Deliver {
                from: ReplicaId(0).into(),
                msg: PbftMessage::PrePrepare {
                    view: View(0),
                    seq: 0,
                    batch: b,
                },
            },
            &mut ctx,
        );
        // Own prepare broadcast happened.
        assert!(ctx
            .sent
            .iter()
            .any(|(_, m)| matches!(m, PbftMessage::Prepare { .. })));
        for r in [0u32, 1, 2] {
            p.handle(
                Input::Deliver {
                    from: ReplicaId(r).into(),
                    msg: PbftMessage::Prepare {
                        view: View(0),
                        seq: 0,
                        digest: d,
                    },
                },
                &mut ctx,
            );
        }
        assert!(ctx
            .sent
            .iter()
            .any(|(_, m)| matches!(m, PbftMessage::Commit { .. })));
        for r in [0u32, 1, 2] {
            p.handle(
                Input::Deliver {
                    from: ReplicaId(r).into(),
                    msg: PbftMessage::Commit {
                        view: View(0),
                        seq: 0,
                        digest: d,
                        sig: Signature::ZERO,
                    },
                },
                &mut ctx,
            );
        }
        assert_eq!(ctx.commits.len(), 1);
        assert_eq!(p.executed(), 1);
    }

    #[test]
    fn mismatched_digest_votes_are_ignored() {
        let cluster = ClusterConfig::new(4);
        let mut p = PbftReplica::new(cluster, ReplicaId(1));
        let mut ctx = Ctx::new();
        let b = batch(1);
        p.handle(
            Input::Deliver {
                from: ReplicaId(0).into(),
                msg: PbftMessage::PrePrepare {
                    view: View(0),
                    seq: 0,
                    batch: b,
                },
            },
            &mut ctx,
        );
        for r in [0u32, 2, 3] {
            p.handle(
                Input::Deliver {
                    from: ReplicaId(r).into(),
                    msg: PbftMessage::Prepare {
                        view: View(0),
                        seq: 0,
                        digest: Digest::from_u64(999), // wrong digest
                    },
                },
                &mut ctx,
            );
        }
        assert!(
            !ctx.sent
                .iter()
                .any(|(_, m)| matches!(m, PbftMessage::Commit { .. })),
            "must not commit on conflicting-digest prepares"
        );
    }

    #[test]
    fn view_change_rotates_primary() {
        let cluster = ClusterConfig::new(4);
        let mut p = PbftReplica::new(cluster, ReplicaId(1));
        let mut ctx = Ctx::new();
        for r in [0u32, 2, 3] {
            p.handle(
                Input::Deliver {
                    from: ReplicaId(r).into(),
                    msg: PbftMessage::ViewChange { new_view: View(1) },
                },
                &mut ctx,
            );
        }
        assert_eq!(p.view(), View(1));
        // Replica 1 is the view-1 primary and must announce NewView.
        assert!(ctx
            .sent
            .iter()
            .any(|(_, m)| matches!(m, PbftMessage::NewView { .. })));
    }
}
