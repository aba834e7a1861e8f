//! The SpotLess replica: `m` concurrent chained-consensus instances plus
//! the cross-instance total order (§4, §5).
//!
//! * Client batches are admitted to the mempool of the single instance
//!   allowed to propose them (`digest mod m`, §5).
//! * Each instance independently runs the §3 protocol; the replica routes
//!   messages and timers by instance id.
//! * Committed proposals are *not* executed immediately: execution order
//!   is `(view, instance)` and view `v` executes only once **every**
//!   instance has settled view `v` (§4.1/Figure 6). Primaries starved of
//!   transactions propose no-ops so execution never stalls on an idle
//!   instance (§5).

use crate::instance::{InstanceState, Outbox, Shared};
use crate::mempool::Mempool;
use crate::messages::{Message, Proposal};
use spotless_types::{
    ByzantineBehavior, ClientBatch, ClusterConfig, CommitCertificate, CommitInfo, Context, Input,
    InstanceId, Node, NodeId, ReplicaId, View,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// How many views an instance may run ahead of the slowest sibling
/// before a starved primary holds its proposal instead of filling the
/// view with a no-op (§4.1: execution is gated on the slowest instance,
/// so views burned ahead of it are pure waste). Within the slack,
/// no-ops flow freely so the execution cut never deadlocks.
///
/// The slack is a jitter buffer between instances that meet at the
/// execution cut, and it has to be small. Every view an instance is
/// ahead adds one view time to the latency of its real batches; its
/// clients then return later, its views carry more no-ops and get
/// cheaper, and it stays pinned at the slack. With a flat 16 that
/// drift took tens of seconds to build on the n = m = 4 runtime and
/// moved closed-loop throughput by a quarter within one run; at 4 the
/// instances stay within a commit chain of each other. The buffer
/// still has to absorb the spread of the slowest of `m` instances:
/// simulated n = m = 16 under light load loses a tenth of its
/// throughput at 4 and nothing at 8, hence half of `m` between the two
/// ends.
fn instance_slack(m: usize) -> u64 {
    (m as u64 / 2).clamp(4, 16)
}

/// Construction-time configuration of one replica.
#[derive(Clone, Debug)]
pub struct ReplicaConfig {
    /// Cluster shape and protocol timeouts.
    pub cluster: ClusterConfig,
    /// This replica's identity.
    pub me: ReplicaId,
    /// How this replica behaves (§6.3's attack taxonomy).
    pub behavior: ByzantineBehavior,
    /// Which replicas are faulty — colluding attackers know their peers;
    /// honest replicas never read this.
    pub faulty: Vec<bool>,
}

impl ReplicaConfig {
    /// An honest replica in an all-honest cluster.
    pub fn honest(cluster: ClusterConfig, me: ReplicaId) -> ReplicaConfig {
        let n = cluster.n as usize;
        ReplicaConfig {
            cluster,
            me,
            behavior: ByzantineBehavior::Honest,
            faulty: vec![false; n],
        }
    }
}

/// Deterministic cross-instance execution ordering (§4.1).
///
/// Committed proposals from instance `i` arrive in chain order. A view
/// `v` is *settled* for instance `i` once `i` has committed a proposal
/// with view ≥ `v` (chain linearity makes skipped views permanently
/// empty). Proposals execute in `(view, instance)` order up to the
/// minimum settled view across instances.
struct Executor {
    settled: Vec<Option<View>>,
    ready: Vec<BTreeMap<View, (Arc<Proposal>, CommitCertificate)>>,
    executed_per_instance: Vec<u64>,
    /// Batches already executed. The propose-by-peek mempool can (rarely)
    /// let the same batch commit at two views — the first proposal
    /// commits late, after a re-proposal already succeeded; execution is
    /// where the duplicate is squashed (the slot still advances, only
    /// the effect and the client `Inform` are suppressed).
    executed_batches: std::collections::HashSet<spotless_types::BatchId>,
    /// The `(view, instance)` slot of the last emitted commit.
    /// Execution order is **consensus-critical** now that the runtime
    /// seals each block with the post-execution state root: every
    /// replica must emit commits in the identical total order or their
    /// chains diverge byte-wise. The drain asserts slots strictly
    /// increase lexicographically.
    last_slot: Option<(View, InstanceId)>,
}

impl Executor {
    fn new(m: usize) -> Executor {
        Executor {
            settled: vec![None; m],
            ready: vec![BTreeMap::new(); m],
            executed_per_instance: vec![0; m],
            executed_batches: std::collections::HashSet::new(),
            last_slot: None,
        }
    }

    fn on_committed(&mut self, p: Arc<Proposal>, cert: CommitCertificate) {
        let i = p.instance.as_usize();
        if self.settled[i].is_none_or(|s| p.view > s) {
            self.settled[i] = Some(p.view);
        }
        self.ready[i].insert(p.view, (p, cert));
    }

    fn drain(&mut self, ctx: &mut dyn Context<Message = Message>) {
        // The global cut: all instances must have settled the view.
        let mut cut = View(u64::MAX);
        for s in &self.settled {
            match s {
                None => return,
                Some(v) => cut = cut.min(*v),
            }
        }
        loop {
            // Next view with anything executable under the cut.
            let mut next: Option<View> = None;
            for q in &self.ready {
                if let Some((&v, _)) = q.first_key_value() {
                    if v <= cut && next.is_none_or(|n| v < n) {
                        next = Some(v);
                    }
                }
            }
            let Some(v) = next else { break };
            // Figure 6: within a view, instances execute in id order.
            for i in 0..self.ready.len() {
                let head = self.ready[i].first_key_value().map(|(&hv, _)| hv);
                if head == Some(v) {
                    let (_, (p, cert)) = self.ready[i].pop_first().expect("head checked");
                    self.executed_per_instance[i] += 1;
                    if !p.batch.is_noop() && !self.executed_batches.insert(p.batch.id) {
                        continue; // duplicate commit of a re-proposed batch
                    }
                    // Figure 6's total order, asserted: `(view,
                    // instance)` slots must strictly increase — the
                    // runtime seals the post-execution state root into
                    // each block, so any reordering forks the chain.
                    debug_assert!(
                        self.last_slot.is_none_or(|s| s < (p.view, p.instance)),
                        "execution order regressed: {:?} after {:?}",
                        (p.view, p.instance),
                        self.last_slot
                    );
                    self.last_slot = Some((p.view, p.instance));
                    ctx.commit(CommitInfo {
                        instance: p.instance,
                        view: p.view,
                        depth: self.executed_per_instance[i],
                        batch: p.batch.clone(),
                        cert,
                    });
                }
            }
        }
    }
}

/// A full SpotLess replica (the [`Node`] the simulator and the tokio
/// transport drive).
pub struct SpotLessReplica {
    cfg: ReplicaConfig,
    instances: Vec<InstanceState>,
    mempool: Mempool,
    executor: Executor,
}

impl SpotLessReplica {
    /// Builds a replica with `m` instances at view 0.
    pub fn new(cfg: ReplicaConfig) -> SpotLessReplica {
        let m = cfg.cluster.m as usize;
        let instances = (0..m)
            .map(|i| InstanceState::new(InstanceId(i as u32), &cfg.cluster))
            .collect();
        SpotLessReplica {
            instances,
            mempool: Mempool::new(m),
            executor: Executor::new(m),
            cfg,
        }
    }

    /// This replica's id.
    pub fn id(&self) -> ReplicaId {
        self.cfg.me
    }

    /// Read-only access to an instance (tests/observability).
    pub fn instance(&self, i: InstanceId) -> &InstanceState {
        &self.instances[i.as_usize()]
    }

    /// Pending mempool depth of one instance (observability).
    pub fn mempool_len(&self, i: InstanceId) -> usize {
        self.mempool.len(i)
    }

    /// Admission/rejection counters of the request pool.
    pub fn mempool_stats(&self) -> crate::mempool::MempoolStats {
        self.mempool.stats()
    }

    /// Re-proposes for instances whose primary was holding (§4.1): a
    /// hold is released when a batch arrived for the instance or when
    /// the sibling instances caught up to within the slack. Runs after
    /// every input, so a release is never delayed past the event that
    /// enabled it.
    fn release_held_instances(&mut self, ctx: &mut dyn Context<Message = Message>) {
        let slack = instance_slack(self.instances.len());
        loop {
            let min_view = self
                .instances
                .iter()
                .map(|inst| inst.view())
                .min()
                .expect("at least one instance");
            let due: Vec<usize> = (0..self.instances.len())
                .filter(|&i| {
                    self.instances[i].held()
                        && (self.mempool.len(InstanceId(i as u32)) > 0
                            || self.instances[i].view().0 <= min_view.0 + slack)
                })
                .collect();
            if due.is_empty() {
                return;
            }
            for i in due {
                self.with_instance(i, ctx, |inst, sh, out, pick| {
                    inst.retry_propose(sh, out, pick)
                });
            }
            // Releasing one instance can advance views and commit work,
            // which may make further holds releasable — loop until
            // quiescent (bounded: each release clears a held flag).
        }
    }

    /// Runs `f` against instance `i` with the shared context, the
    /// instance's batch picker, and a commit collector; then forwards the
    /// newly committed proposals through the total-order executor.
    fn with_instance(
        &mut self,
        i: usize,
        ctx: &mut dyn Context<Message = Message>,
        f: impl FnOnce(
            &mut InstanceState,
            &Shared<'_>,
            &mut Outbox<'_, '_>,
            &mut dyn FnMut(spotless_types::SimTime) -> Option<ClientBatch>,
        ),
    ) {
        let min_view = self
            .instances
            .iter()
            .map(|inst| inst.view())
            .min()
            .expect("at least one instance");
        let mut committed = Vec::new();
        {
            let shared = Shared {
                cfg: &self.cfg.cluster,
                me: self.cfg.me,
                behavior: self.cfg.behavior,
                faulty: &self.cfg.faulty,
            };
            let mut out = Outbox {
                ctx,
                committed: &mut committed,
            };
            let pool = &mut self.mempool;
            let instance = InstanceId(i as u32);
            // §4.1 instance prioritization at the proposing seam: a
            // starved primary may fill its view with a no-op only while
            // its instance is not ahead of the slowest sibling — ahead
            // instances hold instead (execution is gated on the slowest
            // instance, so racing ahead with no-ops only burns views).
            let within_slack =
                self.instances[i].view().0 <= min_view.0 + instance_slack(self.instances.len());
            let mut pick = move |now: spotless_types::SimTime| -> Option<ClientBatch> {
                match pool.pick_real(instance) {
                    Some(b) => Some(b),
                    None if within_slack => Some(pool.noop(now)),
                    None => None,
                }
            };
            f(&mut self.instances[i], &shared, &mut out, &mut pick);
        }
        if !committed.is_empty() {
            for (p, cert) in committed {
                self.mempool.mark_decided(p.batch.id);
                self.executor.on_committed(p, cert);
            }
            self.executor.drain(ctx);
        }
    }
}

impl Node for SpotLessReplica {
    type Message = Message;

    fn on_input(&mut self, input: Input<Message>, ctx: &mut dyn Context<Message = Message>) {
        match input {
            Input::Start => {
                for i in 0..self.instances.len() {
                    self.with_instance(i, ctx, |inst, sh, out, pick| inst.start(sh, out, pick));
                }
            }
            Input::Deliver { from, msg } => {
                let NodeId::Replica(from) = from else {
                    return; // clients speak through Input::Request
                };
                if from.0 >= self.cfg.cluster.n {
                    return;
                }
                let i = msg.instance().as_usize();
                if i >= self.instances.len() {
                    return;
                }
                self.with_instance(i, ctx, |inst, sh, out, pick| {
                    inst.on_message(from, msg, sh, out, pick)
                });
            }
            Input::Timer(id) => {
                let i = id.instance.as_usize();
                if i >= self.instances.len() {
                    return;
                }
                self.with_instance(i, ctx, |inst, sh, out, pick| {
                    inst.on_timer(id, sh, out, pick)
                });
            }
            Input::Request(batch) => {
                // Dedup, decided-suppression, digest routing, and
                // capacity are the mempool's job; rejections need no
                // reply (the client's retry loop covers loss anyway).
                let _ = self.mempool.offer(&self.cfg.cluster, batch);
            }
        }
        self.release_held_instances(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::Justification;
    use spotless_types::{BatchId, ClientId, Digest, Signature, SimTime};

    fn batch(id: u64, instance_tag: u64) -> ClientBatch {
        ClientBatch {
            id: BatchId(id),
            origin: ClientId(0),
            digest: Digest::from_u64(instance_tag),
            txns: 10,
            txn_size: 48,
            created_at: SimTime::ZERO,
            payload: Vec::new(),
        }
    }

    fn proposal(instance: u32, view: u64, id: u64) -> Arc<Proposal> {
        Arc::new(Proposal::new(
            InstanceId(instance),
            View(view),
            batch(id, 0),
            Justification::genesis(),
        ))
    }

    fn cert(view: u64) -> CommitCertificate {
        CommitCertificate::strong(
            View(view),
            Digest::from_u64(view),
            vec![ReplicaId(0), ReplicaId(1), ReplicaId(2)],
            vec![Signature::ZERO; 3],
        )
    }

    struct NullCtx {
        commits: Vec<CommitInfo>,
    }
    impl Context for NullCtx {
        type Message = Message;
        fn now(&self) -> SimTime {
            SimTime::ZERO
        }
        fn id(&self) -> NodeId {
            NodeId::Replica(ReplicaId(0))
        }
        fn send(&mut self, _to: NodeId, _msg: Message) {}
        fn broadcast(&mut self, _msg: Message) {}
        fn set_timer(&mut self, _id: spotless_types::TimerId, _after: spotless_types::SimDuration) {
        }
        fn commit(&mut self, info: CommitInfo) {
            self.commits.push(info);
        }
    }

    #[test]
    fn executor_waits_for_all_instances() {
        let mut ex = Executor::new(2);
        let mut ctx = NullCtx { commits: vec![] };
        ex.on_committed(proposal(0, 0, 1), cert(0));
        ex.drain(&mut ctx);
        // Instance 1 has not settled anything: nothing executes (§5's
        // motivation for no-op proposals).
        assert!(ctx.commits.is_empty());
        ex.on_committed(proposal(1, 0, 2), cert(0));
        ex.drain(&mut ctx);
        assert_eq!(ctx.commits.len(), 2);
        // (view 0, I0) then (view 0, I1) — Figure 6's order.
        assert_eq!(ctx.commits[0].instance, InstanceId(0));
        assert_eq!(ctx.commits[1].instance, InstanceId(1));
    }

    #[test]
    fn executor_orders_views_before_instances() {
        let mut ex = Executor::new(2);
        let mut ctx = NullCtx { commits: vec![] };
        ex.on_committed(proposal(1, 0, 1), cert(0));
        ex.on_committed(proposal(0, 0, 2), cert(0));
        ex.on_committed(proposal(0, 1, 3), cert(1));
        ex.on_committed(proposal(1, 1, 4), cert(1));
        ex.drain(&mut ctx);
        let order: Vec<(u64, u32)> = ctx
            .commits
            .iter()
            .map(|c| (c.view.0, c.instance.0))
            .collect();
        assert_eq!(order, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
    }

    #[test]
    fn executor_tolerates_view_gaps() {
        let mut ex = Executor::new(2);
        let mut ctx = NullCtx { commits: vec![] };
        // Instance 0 skipped view 1 (failed primary): commits v0 then v2.
        ex.on_committed(proposal(0, 0, 1), cert(0));
        ex.on_committed(proposal(0, 2, 2), cert(2));
        ex.on_committed(proposal(1, 0, 3), cert(0));
        ex.on_committed(proposal(1, 1, 4), cert(1));
        ex.on_committed(proposal(1, 2, 5), cert(2));
        ex.drain(&mut ctx);
        let order: Vec<(u64, u32)> = ctx
            .commits
            .iter()
            .map(|c| (c.view.0, c.instance.0))
            .collect();
        assert_eq!(order, vec![(0, 0), (0, 1), (1, 1), (2, 0), (2, 1)]);
    }

    #[test]
    fn requests_route_to_instance_by_digest() {
        let cluster = ClusterConfig::with_instances(4, 4);
        let mut replica = SpotLessReplica::new(ReplicaConfig::honest(cluster, ReplicaId(0)));
        let mut ctx = NullCtx { commits: vec![] };
        for tag in 0..8u64 {
            replica.on_input(Input::Request(batch(tag, tag)), &mut ctx);
        }
        for i in 0..4u32 {
            assert_eq!(replica.mempool_len(InstanceId(i)), 2, "instance {i}");
        }
        // Duplicate submission is ignored.
        replica.on_input(Input::Request(batch(0, 0)), &mut ctx);
        assert_eq!(replica.mempool_len(InstanceId(0)), 2);
    }
}
