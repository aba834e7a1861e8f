//! RCC — Resilient Concurrent Consensus (Gupta et al., ICDE 2021).
//!
//! RCC turns PBFT into a concurrent consensus protocol: `m` PBFT
//! instances run in parallel, instance `i` permanently coordinated by
//! replica `i` (no rotation — the opposite of SpotLess's design choice).
//! Committed slots are interleaved deterministically by `(round,
//! instance)`. Failure handling is complaint-based: when an instance
//! blocks the execution round, replicas complain; `f + 1` complaints
//! suspend the instance for an **exponentially increasing** penalty
//! (§1: "RCC shuts down faulty primaries for an exponentially increasing
//! number of rounds after receiving sufficient complaints") — this is
//! precisely what produces the throughput oscillations of Figure 12.
//!
//! Scope note (DESIGN.md): suspension bookkeeping is per-replica and
//! time-based — a faithful *performance* model of RCC's recovery, not a
//! re-verified safety argument (the paper's own RCC implementation is the
//! authority there). Batches stranded in a suspended instance are
//! re-routed when clients retry.

use crate::pbft::{PbftMessage, PbftReplica};
use crate::util::ReplicaSet;
use serde::{Deserialize, Serialize};
use spotless_types::node::ProtocolMessage;
use spotless_types::{
    ClientBatch, ClusterConfig, CommitInfo, Context, CryptoCosts, Input, InstanceId, Node, NodeId,
    ReplicaId, Signature, SimDuration, SimTime, SizeModel, TimerId, TimerKind, VoteStatement,
};
use std::collections::BTreeMap;

/// Base suspension penalty; doubles per consecutive suspension.
const BASE_PENALTY: SimDuration = SimDuration::from_millis(500);

/// Cap on the penalty exponent (2^10 · 500 ms ≈ 8.5 min).
const MAX_PENALTY_EXP: u32 = 10;

/// RCC wire messages: an inner PBFT message tagged with its instance, or
/// an instance complaint.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum RccMessage {
    /// A message of instance `instance`'s PBFT run.
    Inner {
        /// Which concurrent instance.
        instance: InstanceId,
        /// The PBFT payload.
        inner: PbftMessage,
    },
    /// A complaint that `instance` is blocking execution.
    Complaint {
        /// The accused instance.
        instance: InstanceId,
        /// Complaint epoch (suspension count) to separate rounds of
        /// complaints about the same instance.
        epoch: u32,
    },
}

impl ProtocolMessage for RccMessage {
    fn wire_size(&self, sizes: &SizeModel) -> u64 {
        match self {
            RccMessage::Inner { inner, .. } => inner.wire_size(sizes),
            RccMessage::Complaint { .. } => sizes.protocol_msg,
        }
    }

    fn verify_cost(&self, costs: &CryptoCosts) -> u64 {
        match self {
            RccMessage::Inner { inner, .. } => inner.verify_cost(costs),
            RccMessage::Complaint { .. } => costs.mac_ns,
        }
    }

    fn sign_cost(&self, costs: &CryptoCosts) -> u64 {
        match self {
            RccMessage::Inner { inner, .. } => inner.sign_cost(costs),
            RccMessage::Complaint { .. } => 0,
        }
    }

    fn carried_votes(&self, from: ReplicaId, out: &mut Vec<(ReplicaId, VoteStatement, Signature)>) {
        if let RccMessage::Inner { instance, inner } = self {
            inner.commit_vote(*instance, from, out);
        }
    }

    /// The batches of the wrapped PBFT message; a complaint carries none.
    fn carried_batches<'a>(&'a self, out: &mut Vec<&'a ClientBatch>) {
        if let RccMessage::Inner { inner, .. } = self {
            inner.carried_batches(out);
        }
    }
}

/// Context adapter: routes an instance's PBFT effects through the outer
/// RCC context, capturing commits for the cross-instance executor.
struct InstanceCtx<'a, 'b> {
    outer: &'a mut dyn Context<Message = RccMessage>,
    instance: InstanceId,
    commits: &'b mut Vec<CommitInfo>,
}

impl Context for InstanceCtx<'_, '_> {
    type Message = PbftMessage;

    fn now(&self) -> SimTime {
        self.outer.now()
    }
    fn id(&self) -> NodeId {
        self.outer.id()
    }
    fn send(&mut self, to: NodeId, msg: PbftMessage) {
        self.outer.send(
            to,
            RccMessage::Inner {
                instance: self.instance,
                inner: msg,
            },
        );
    }
    fn broadcast(&mut self, msg: PbftMessage) {
        self.outer.broadcast(RccMessage::Inner {
            instance: self.instance,
            inner: msg,
        });
    }
    fn set_timer(&mut self, id: TimerId, after: SimDuration) {
        self.outer.set_timer(id, after);
    }
    fn commit(&mut self, info: CommitInfo) {
        self.commits.push(info);
    }
    // Forward the vote-signing oracle: without this, embedded PBFT
    // instances would fall back to the default no-op oracle and RCC
    // commit certificates would carry unverifiable placeholder
    // signatures even under the real runtime.
    fn sign_vote(&mut self, statement: &VoteStatement) -> Signature {
        self.outer.sign_vote(statement)
    }
    fn verify_vote(
        &mut self,
        signer: ReplicaId,
        statement: &VoteStatement,
        sig: &Signature,
    ) -> bool {
        self.outer.verify_vote(signer, statement, sig)
    }
}

struct InstanceMeta {
    /// Committed-but-not-executed slots, keyed by slot number.
    ready: BTreeMap<u64, CommitInfo>,
    /// Suspended until this time (exponential penalty).
    suspended_until: Option<SimTime>,
    /// How many times this instance has been suspended.
    suspensions: u32,
    /// Complaint votes for the next suspension epoch.
    complaints: ReplicaSet,
    /// Whether we already complained this epoch.
    complained: bool,
}

/// An RCC replica: `m` embedded PBFT instances plus the round-interleaved
/// executor and complaint machinery.
pub struct RccReplica {
    cfg: ClusterConfig,
    instances: Vec<PbftReplica>,
    meta: Vec<InstanceMeta>,
    round: u64,
    /// `round` at the last complaint-timer fire (stall detection).
    last_round_mark: u64,
    check_interval: SimDuration,
}

impl RccReplica {
    /// Builds an RCC replica with `cluster.m` concurrent PBFT instances.
    pub fn new(cluster: ClusterConfig, me: ReplicaId) -> RccReplica {
        let _ = me; // identity lives inside the embedded PBFT instances
        let m = cluster.m;
        let instances = (0..m)
            .map(|i| {
                let mut p = PbftReplica::with_instance(
                    cluster.clone(),
                    me,
                    InstanceId(i),
                    crate::pbft::DEFAULT_WINDOW,
                );
                // RCC replaces PBFT's view change with suspension.
                p.disable_view_change();
                p
            })
            .collect();
        let meta = (0..m)
            .map(|_| InstanceMeta {
                ready: BTreeMap::new(),
                suspended_until: None,
                suspensions: 0,
                complaints: ReplicaSet::new(cluster.n),
                complained: false,
            })
            .collect();
        let check_interval = cluster.client_timeout.halved();
        RccReplica {
            cfg: cluster,
            instances,
            meta,
            round: 0,
            last_round_mark: 0,
            check_interval,
        }
    }

    /// Current execution round (observability).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Whether instance `i` is currently suspended at `now`.
    pub fn is_suspended(&self, i: InstanceId, now: SimTime) -> bool {
        self.meta[i.as_usize()]
            .suspended_until
            .is_some_and(|until| now < until)
    }

    fn with_instance(
        &mut self,
        i: usize,
        ctx: &mut dyn Context<Message = RccMessage>,
        f: impl FnOnce(&mut PbftReplica, &mut InstanceCtx<'_, '_>),
    ) {
        let mut commits = Vec::new();
        {
            let mut ictx = InstanceCtx {
                outer: ctx,
                instance: InstanceId(i as u32),
                commits: &mut commits,
            };
            f(&mut self.instances[i], &mut ictx);
        }
        for info in commits {
            self.meta[i].ready.insert(info.depth, info);
        }
        self.drain(ctx);
    }

    /// Executes rounds in `(round, instance)` order; a round completes
    /// when every non-suspended instance has its slot (suspended
    /// instances are skipped — their rounds execute as gaps).
    fn drain(&mut self, ctx: &mut dyn Context<Message = RccMessage>) {
        let now = ctx.now();
        loop {
            let mut all_present = true;
            let mut any_live = false;
            for meta in &self.meta {
                let suspended = meta.suspended_until.is_some_and(|u| now < u);
                if suspended {
                    continue;
                }
                any_live = true;
                if !meta.ready.contains_key(&self.round) {
                    all_present = false;
                    break;
                }
            }
            if !any_live {
                return;
            }
            if !all_present {
                self.fill_noops(ctx);
                return;
            }
            let mut last_instance: Option<u32> = None;
            for meta in self.meta.iter_mut() {
                if let Some(info) = meta.ready.remove(&self.round) {
                    // Round-interleaved order, asserted: within a round
                    // the instances emit in id order, and the round
                    // barrier guarantees rounds never interleave.
                    // Execution order is consensus-critical now that
                    // the runtime seals the post-execution state root
                    // into each block.
                    debug_assert!(
                        last_instance.is_none_or(|l| l < info.instance.0),
                        "RCC round {} emitted instances out of order",
                        self.round
                    );
                    last_instance = Some(info.instance.0);
                    ctx.commit(info);
                }
            }
            self.round += 1;
        }
    }

    /// When the round barrier is blocked by an idle instance while other
    /// instances have committed work waiting, the idle instance's primary
    /// proposes no-op slots up to the barrier (the RCC counterpart of
    /// SpotLess §5's no-op rule). Idempotent: filling advances the inner
    /// sequence counter, so repeated calls do nothing new.
    fn fill_noops(&mut self, ctx: &mut dyn Context<Message = RccMessage>) {
        let round = self.round;
        let now = ctx.now();
        let someone_waiting = self.meta.iter().any(|m| m.ready.contains_key(&round));
        if !someone_waiting {
            return; // fully idle: no no-op churn
        }
        let blockers: Vec<usize> = self
            .meta
            .iter()
            .enumerate()
            .filter(|(_, m)| {
                m.suspended_until.is_none_or(|u| now >= u) && !m.ready.contains_key(&round)
            })
            .map(|(i, _)| i)
            .collect();
        for i in blockers {
            let mut commits = Vec::new();
            {
                let mut ictx = InstanceCtx {
                    outer: ctx,
                    instance: InstanceId(i as u32),
                    commits: &mut commits,
                };
                self.instances[i].fill_noops_to(round, &mut ictx);
            }
            for info in commits {
                self.meta[i].ready.insert(info.depth, info);
            }
        }
    }

    /// Complaint logic: if the execution round stalled since the last
    /// check and some live instance is the blocker, complain about it.
    fn on_check_timer(&mut self, ctx: &mut dyn Context<Message = RccMessage>) {
        let now = ctx.now();
        // Revive expired suspensions' complaint state.
        for meta in self.meta.iter_mut() {
            if meta.suspended_until.is_some_and(|u| now >= u) {
                meta.suspended_until = None;
                meta.complained = false;
                meta.complaints = ReplicaSet::new(self.cfg.n);
            }
        }
        let stalled = self.round == self.last_round_mark;
        self.last_round_mark = self.round;
        if stalled {
            let round = self.round;
            let accusations: Vec<(InstanceId, u32)> = self
                .meta
                .iter()
                .enumerate()
                .filter(|(_, meta)| {
                    meta.suspended_until.is_none()
                        && !meta.complained
                        && !meta.ready.contains_key(&round)
                })
                .map(|(i, meta)| (InstanceId(i as u32), meta.suspensions))
                .collect();
            for (instance, epoch) in accusations {
                self.meta[instance.as_usize()].complained = true;
                ctx.broadcast(RccMessage::Complaint { instance, epoch });
            }
        }
        ctx.set_timer(
            TimerId::new(TimerKind::Custom(1), InstanceId(0), spotless_types::View(0)),
            self.check_interval,
        );
        self.drain(ctx);
    }

    fn on_complaint(
        &mut self,
        from: ReplicaId,
        instance: InstanceId,
        epoch: u32,
        ctx: &mut dyn Context<Message = RccMessage>,
    ) {
        let i = instance.as_usize();
        if i >= self.meta.len() {
            return;
        }
        let weak = self.cfg.weak_quorum();
        let meta = &mut self.meta[i];
        if meta.suspensions != epoch || meta.suspended_until.is_some() {
            return; // stale epoch or already suspended
        }
        meta.complaints.insert(from);
        if meta.complaints.len() >= weak {
            // Suspend with exponential penalty (§1's description of RCC).
            let exp = meta.suspensions.min(MAX_PENALTY_EXP);
            let penalty = BASE_PENALTY.saturating_mul(1u64 << exp);
            meta.suspended_until = Some(ctx.now() + penalty);
            meta.suspensions += 1;
            meta.complaints = ReplicaSet::new(self.cfg.n);
            meta.complained = false;
            self.drain(ctx);
        }
    }

    /// Routes a batch to its instance, detouring around suspension.
    fn route(&mut self, batch: ClientBatch, ctx: &mut dyn Context<Message = RccMessage>) {
        let m = self.cfg.m;
        let now = ctx.now();
        let home = self.cfg.instance_for_digest(batch.digest.as_u64_tag());
        let mut target = home;
        for hop in 0..m {
            let candidate = InstanceId((home.0 + hop) % m);
            if !self.is_suspended(candidate, now) {
                target = candidate;
                break;
            }
        }
        let i = target.as_usize();
        self.with_instance(i, ctx, |p, ictx| p.enqueue(batch, ictx));
    }
}

impl Node for RccReplica {
    type Message = RccMessage;

    fn on_input(&mut self, input: Input<RccMessage>, ctx: &mut dyn Context<Message = RccMessage>) {
        match input {
            Input::Start => {
                for i in 0..self.instances.len() {
                    self.with_instance(i, ctx, |p, ictx| p.handle(Input::Start, ictx));
                }
                ctx.set_timer(
                    TimerId::new(TimerKind::Custom(1), InstanceId(0), spotless_types::View(0)),
                    self.check_interval,
                );
            }
            Input::Request(batch) => self.route(batch, ctx),
            Input::Deliver { from, msg } => match msg {
                RccMessage::Inner { instance, inner } => {
                    let i = instance.as_usize();
                    if i < self.instances.len() {
                        self.with_instance(i, ctx, |p, ictx| {
                            p.handle(Input::Deliver { from, msg: inner }, ictx)
                        });
                    }
                }
                RccMessage::Complaint { instance, epoch } => {
                    let NodeId::Replica(from) = from else { return };
                    self.on_complaint(from, instance, epoch, ctx);
                }
            },
            Input::Timer(id) => {
                if id.kind == TimerKind::Custom(1) {
                    self.on_check_timer(ctx);
                } else {
                    let i = id.instance.as_usize();
                    if i < self.instances.len() {
                        self.with_instance(i, ctx, |p, ictx| p.handle(Input::Timer(id), ictx));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotless_types::{BatchId, ClientId, Digest, View};

    fn batch(id: u64, tag: u64) -> ClientBatch {
        ClientBatch {
            id: BatchId(id),
            origin: ClientId(0),
            digest: Digest::from_u64(tag),
            txns: 10,
            txn_size: 48,
            created_at: SimTime::ZERO,
            payload: Vec::new(),
        }
    }

    #[test]
    fn a_commit_vote_is_stated_in_its_instance() {
        let commit = PbftMessage::Commit {
            view: View(2),
            seq: 9,
            digest: Digest::from_u64(9),
            sig: Signature([9; 64]),
        };
        let statement = |instance| VoteStatement {
            instance,
            view: View(2),
            slot: 9,
            digest: Digest::from_u64(9),
        };
        let mut plain = Vec::new();
        commit.carried_votes(ReplicaId(1), &mut plain);
        assert_eq!(
            plain,
            vec![(ReplicaId(1), statement(InstanceId(0)), Signature([9; 64]))]
        );
        let mut wrapped = Vec::new();
        RccMessage::Inner {
            instance: InstanceId(3),
            inner: commit,
        }
        .carried_votes(ReplicaId(1), &mut wrapped);
        assert_eq!(
            wrapped,
            vec![(ReplicaId(1), statement(InstanceId(3)), Signature([9; 64]))]
        );
        let mut none = Vec::new();
        RccMessage::Inner {
            instance: InstanceId(3),
            inner: PbftMessage::Prepare {
                view: View(2),
                seq: 9,
                digest: Digest::from_u64(9),
            },
        }
        .carried_votes(ReplicaId(1), &mut none);
        assert!(none.is_empty());
    }

    struct Ctx {
        now: SimTime,
        sent: Vec<RccMessage>,
        commits: Vec<CommitInfo>,
    }
    impl Context for Ctx {
        type Message = RccMessage;
        fn now(&self) -> SimTime {
            self.now
        }
        fn id(&self) -> NodeId {
            NodeId::Replica(ReplicaId(0))
        }
        fn send(&mut self, _to: NodeId, msg: RccMessage) {
            self.sent.push(msg);
        }
        fn broadcast(&mut self, msg: RccMessage) {
            self.sent.push(msg);
        }
        fn set_timer(&mut self, _id: TimerId, _after: SimDuration) {}
        fn commit(&mut self, info: CommitInfo) {
            self.commits.push(info);
        }
    }

    #[test]
    fn requests_route_by_digest_to_instances() {
        let cluster = ClusterConfig::with_instances(4, 4);
        let mut r = RccReplica::new(cluster, ReplicaId(0));
        let mut ctx = Ctx {
            now: SimTime::ZERO,
            sent: vec![],
            commits: vec![],
        };
        // Digest tag 0 → instance 0, whose primary is replica 0 (us):
        // a pre-prepare must go out.
        r.on_input(Input::Request(batch(1, 0)), &mut ctx);
        assert!(ctx.sent.iter().any(|m| matches!(
            m,
            RccMessage::Inner {
                instance: InstanceId(0),
                inner: PbftMessage::PrePrepare { .. }
            }
        )));
        // Digest tag 1 → instance 1, primary is replica 1: forwarded.
        r.on_input(Input::Request(batch(2, 1)), &mut ctx);
        assert!(ctx.sent.iter().any(|m| matches!(
            m,
            RccMessage::Inner {
                instance: InstanceId(1),
                inner: PbftMessage::Forward { .. }
            }
        )));
    }

    #[test]
    fn complaints_suspend_with_exponential_penalty() {
        let cluster = ClusterConfig::with_instances(4, 4);
        let mut r = RccReplica::new(cluster, ReplicaId(0));
        let mut ctx = Ctx {
            now: SimTime(1),
            sent: vec![],
            commits: vec![],
        };
        for from in [1u32, 2] {
            r.on_complaint(ReplicaId(from), InstanceId(3), 0, &mut ctx);
        }
        assert!(r.is_suspended(InstanceId(3), SimTime(2)));
        let until1 = r.meta[3].suspended_until.unwrap();
        // After it expires, a second epoch suspends for twice as long.
        let mut ctx2 = Ctx {
            now: until1 + SimDuration::from_millis(1),
            sent: vec![],
            commits: vec![],
        };
        r.on_check_timer(&mut ctx2); // revives, clears epoch state
        assert!(!r.is_suspended(InstanceId(3), ctx2.now));
        for from in [1u32, 2] {
            r.on_complaint(ReplicaId(from), InstanceId(3), 1, &mut ctx2);
        }
        let until2 = r.meta[3].suspended_until.unwrap();
        let first = until1.since(SimTime(1));
        let second = until2.since(ctx2.now);
        assert!(
            second.as_nanos() >= 2 * first.as_nanos() - 1,
            "penalty must grow: {first:?} → {second:?}"
        );
    }

    #[test]
    fn stale_epoch_complaints_are_ignored() {
        let cluster = ClusterConfig::with_instances(4, 4);
        let mut r = RccReplica::new(cluster, ReplicaId(0));
        let mut ctx = Ctx {
            now: SimTime(1),
            sent: vec![],
            commits: vec![],
        };
        for from in [1u32, 2] {
            r.on_complaint(ReplicaId(from), InstanceId(2), 5, &mut ctx); // wrong epoch
        }
        assert!(!r.is_suspended(InstanceId(2), SimTime(2)));
    }

    #[test]
    fn suspended_instances_are_skipped_for_routing() {
        let cluster = ClusterConfig::with_instances(4, 4);
        let mut r = RccReplica::new(cluster, ReplicaId(0));
        let mut ctx = Ctx {
            now: SimTime(1),
            sent: vec![],
            commits: vec![],
        };
        for from in [1u32, 2] {
            r.on_complaint(ReplicaId(from), InstanceId(1), 0, &mut ctx);
        }
        // Tag 1 would go to instance 1, but it is suspended → detour.
        r.on_input(Input::Request(batch(9, 1)), &mut ctx);
        let routed_to_1 = ctx.sent.iter().any(|m| {
            matches!(
                m,
                RccMessage::Inner {
                    instance: InstanceId(1),
                    inner: PbftMessage::Forward { .. } | PbftMessage::PrePrepare { .. }
                }
            )
        });
        assert!(!routed_to_1, "must detour around suspended instance");
    }

    #[test]
    fn timer_kind_view_is_unused_placeholder() {
        // Document the Custom(1) timer convention.
        let id = TimerId::new(TimerKind::Custom(1), InstanceId(0), View(0));
        assert_eq!(id.kind, TimerKind::Custom(1));
    }
}
