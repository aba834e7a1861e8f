//! White-box tests of the Rapid View Synchronization rules (§3.4–3.5),
//! driving a single replica with hand-crafted message schedules.

use spotless_core::messages::{Justification, Message, Proposal, SyncMsg};
use spotless_core::{Phase, ReplicaConfig, SpotLessReplica};
use spotless_crypto::KeyStore;
use spotless_types::{
    BatchId, ClientBatch, ClientId, ClusterConfig, CommitInfo, Context, Digest, Input, InstanceId,
    Node as _, NodeId, ReplicaId, Signature, SimDuration, SimTime, TimerId, TimerKind, View,
    VoteStatement,
};
use std::collections::HashMap;
use std::sync::Arc;

struct Ctx {
    now: SimTime,
    sent: Vec<(Option<NodeId>, Message)>,
    timers: Vec<(TimerId, SimDuration)>,
    commits: Vec<CommitInfo>,
    /// Vote key, when the test wants real signatures; the simulation
    /// placeholder otherwise.
    keys: Option<KeyStore>,
    /// `sign_vote` calls per statement.
    signed: HashMap<VoteStatement, u32>,
}

impl Ctx {
    fn new() -> Ctx {
        Ctx {
            now: SimTime::ZERO,
            sent: Vec::new(),
            timers: Vec::new(),
            commits: Vec::new(),
            keys: None,
            signed: HashMap::new(),
        }
    }

    fn syncs(&self) -> Vec<&SyncMsg> {
        self.sent
            .iter()
            .filter_map(|(_, m)| match m {
                Message::Sync(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    fn asks(&self) -> usize {
        self.sent
            .iter()
            .filter(|(_, m)| matches!(m, Message::Ask { .. }))
            .count()
    }
}

impl Context for Ctx {
    type Message = Message;
    fn now(&self) -> SimTime {
        self.now
    }
    fn id(&self) -> NodeId {
        NodeId::Replica(ReplicaId(0))
    }
    fn send(&mut self, to: NodeId, msg: Message) {
        self.sent.push((Some(to), msg));
    }
    fn broadcast(&mut self, msg: Message) {
        self.sent.push((None, msg));
    }
    fn set_timer(&mut self, id: TimerId, after: SimDuration) {
        self.timers.push((id, after));
    }
    fn commit(&mut self, info: CommitInfo) {
        self.commits.push(info);
    }
    fn sign_vote(&mut self, statement: &VoteStatement) -> Signature {
        *self.signed.entry(*statement).or_default() += 1;
        match &self.keys {
            Some(keys) => keys.sign_vote(statement),
            None => Signature::ZERO,
        }
    }
}

fn batch(id: u64) -> ClientBatch {
    ClientBatch {
        id: BatchId(id),
        origin: ClientId(0),
        digest: Digest::from_u64(id),
        txns: 1,
        txn_size: 48,
        created_at: SimTime::ZERO,
        payload: Vec::new(),
    }
}

/// Replica 3 of a single-instance n = 4 cluster (f = 1), never primary
/// in the views these tests use until view 3.
fn replica() -> (SpotLessReplica, Ctx) {
    let cluster = ClusterConfig::with_instances(4, 1);
    let mut r = SpotLessReplica::new(ReplicaConfig::honest(cluster, ReplicaId(3)));
    let mut ctx = Ctx::new();
    r.on_input(Input::Start, &mut ctx);
    (r, ctx)
}

fn sync(view: u64, claim: Option<&Proposal>, cp: Vec<&Proposal>, upsilon: bool) -> Message {
    let cp: Vec<_> = cp.into_iter().map(|p| p.reference()).collect();
    // Zero signatures throughout: the harness ctx is the simulation
    // oracle, whose verify_vote accepts every placeholder.
    let cp_sigs = vec![spotless_types::Signature::ZERO; cp.len()];
    Message::Sync(SyncMsg {
        instance: InstanceId(0),
        view: View(view),
        claim: claim.map(|p| p.reference()),
        cp,
        upsilon,
        claim_sig: spotless_types::Signature::ZERO,
        cp_sigs,
    })
}

fn deliver(r: &mut SpotLessReplica, ctx: &mut Ctx, from: u32, msg: Message) {
    r.on_input(
        Input::Deliver {
            from: ReplicaId(from).into(),
            msg,
        },
        ctx,
    );
}

#[test]
fn acceptable_proposal_triggers_single_claim_vote() {
    let (mut r, mut ctx) = replica();
    let p = Arc::new(Proposal::new(
        InstanceId(0),
        View(0),
        batch(1),
        Justification::genesis(),
    ));
    deliver(&mut r, &mut ctx, 0, Message::Propose(p.clone()));
    let votes = ctx.syncs();
    assert_eq!(votes.len(), 1, "exactly one Sync per view");
    assert_eq!(votes[0].claim, Some(p.reference()));
    assert_eq!(r.instance(InstanceId(0)).phase(), Phase::Syncing);
    // A second (conflicting) proposal in the same view: no second vote.
    let p2 = Arc::new(Proposal::new(
        InstanceId(0),
        View(0),
        batch(2),
        Justification::genesis(),
    ));
    deliver(&mut r, &mut ctx, 0, Message::Propose(p2));
    assert_eq!(ctx.syncs().len(), 1, "one claim per view (Theorem 3.2)");
}

#[test]
fn proposal_from_wrong_primary_is_ignored() {
    let (mut r, mut ctx) = replica();
    let p = Arc::new(Proposal::new(
        InstanceId(0),
        View(0),
        batch(1),
        Justification::genesis(),
    ));
    // View 0's primary is replica 0; replica 1 impersonating is dropped
    // (S1 well-formedness via authenticated channels).
    deliver(&mut r, &mut ctx, 1, Message::Propose(p));
    assert!(ctx.syncs().is_empty());
    assert_eq!(r.instance(InstanceId(0)).phase(), Phase::Recording);
}

#[test]
fn recording_timeout_claims_empty_and_grows_timer() {
    let (mut r, mut ctx) = replica();
    let t0 = r.instance(InstanceId(0)).t_r();
    ctx.now = SimTime::ZERO + t0;
    r.on_input(
        Input::Timer(TimerId::new(TimerKind::Recording, InstanceId(0), View(0))),
        &mut ctx,
    );
    let votes = ctx.syncs();
    assert_eq!(votes.len(), 1);
    assert_eq!(votes[0].claim, None, "claim(∅) on failure (Figure 3 l.19)");
    assert_eq!(r.instance(InstanceId(0)).phase(), Phase::Syncing);
    // §3.5 (literal): an *isolated* timeout does not grow the timer —
    // only consecutive timeouts in consecutive views do.
    assert_eq!(r.instance(InstanceId(0)).t_r(), t0);
    // Drive view 0 to completion on a claim(∅) quorum…
    for from in 0..3 {
        deliver(&mut r, &mut ctx, from, sync(0, None, vec![], false));
    }
    assert_eq!(r.instance(InstanceId(0)).view(), View(1));
    // …and time out view 1 as well: now the growth rule applies.
    ctx.now += t0;
    r.on_input(
        Input::Timer(TimerId::new(TimerKind::Recording, InstanceId(0), View(1))),
        &mut ctx,
    );
    assert!(
        r.instance(InstanceId(0)).t_r() > t0,
        "consecutive timeouts add ε"
    );
}

#[test]
fn fast_acceptable_proposal_halves_recording_timer() {
    let (mut r, mut ctx) = replica();
    let t0 = r.instance(InstanceId(0)).t_r();
    // Proposal arrives after a small but positive delay « t_R/2. (A
    // zero-delay arrival would be treated as a pre-buffered proposal and
    // deliberately excluded from timer adaptation — see DESIGN.md §7.5.)
    ctx.now = SimTime::ZERO + SimDuration::from_millis(2);
    let p = Arc::new(Proposal::new(
        InstanceId(0),
        View(0),
        batch(1),
        Justification::genesis(),
    ));
    deliver(&mut r, &mut ctx, 0, Message::Propose(p));
    assert!(
        r.instance(InstanceId(0)).t_r() < t0,
        "halving rule must shrink t_R"
    );
}

#[test]
fn stale_timers_are_ignored() {
    let (mut r, mut ctx) = replica();
    let p = Arc::new(Proposal::new(
        InstanceId(0),
        View(0),
        batch(1),
        Justification::genesis(),
    ));
    deliver(&mut r, &mut ctx, 0, Message::Propose(p));
    assert_eq!(r.instance(InstanceId(0)).phase(), Phase::Syncing);
    let before = ctx.syncs().len();
    // The Recording timer for view 0 fires late: must do nothing.
    r.on_input(
        Input::Timer(TimerId::new(TimerKind::Recording, InstanceId(0), View(0))),
        &mut ctx,
    );
    assert_eq!(ctx.syncs().len(), before);
    assert_eq!(r.instance(InstanceId(0)).phase(), Phase::Syncing);
}

#[test]
fn n_minus_f_syncs_move_to_certifying_then_advance() {
    let (mut r, mut ctx) = replica();
    let p = Arc::new(Proposal::new(
        InstanceId(0),
        View(0),
        batch(1),
        Justification::genesis(),
    ));
    deliver(&mut r, &mut ctx, 0, Message::Propose(p.clone()));
    // Two more Syncs (with our own, that's n − f = 3 senders) with the
    // same claim: certify and enter view 1.
    deliver(&mut r, &mut ctx, 3, sync(0, Some(&p), vec![&p], false));
    deliver(&mut r, &mut ctx, 0, sync(0, Some(&p), vec![&p], false));
    deliver(&mut r, &mut ctx, 1, sync(0, Some(&p), vec![&p], false));
    assert_eq!(r.instance(InstanceId(0)).view(), View(1));
    // The parent is now conditionally prepared; lock is still empty
    // (locks need a prepared *child*).
    assert!(r.instance(InstanceId(0)).lock().is_none());
}

#[test]
fn view_jump_on_f_plus_1_higher_syncs() {
    let (mut r, mut ctx) = replica();
    // f + 1 = 2 distinct replicas seen at view 10.
    deliver(&mut r, &mut ctx, 0, sync(10, None, vec![], false));
    assert_eq!(
        r.instance(InstanceId(0)).view(),
        View(0),
        "one is not enough"
    );
    deliver(&mut r, &mut ctx, 1, sync(10, None, vec![], false));
    assert_eq!(
        r.instance(InstanceId(0)).view(),
        View(10),
        "f+1 rule jumps to view 10"
    );
    // The jumper joins the target view with voting rights (Recording).
    assert_eq!(r.instance(InstanceId(0)).phase(), Phase::Recording);
    // The jump broadcast Υ-flagged claim(∅) Syncs for the backfill span
    // (strictly below the target — the view-10 vote is preserved).
    let upsilons = ctx.syncs().iter().filter(|s| s.upsilon).count();
    assert!(upsilons >= 1, "jump must ask for retransmissions");
    assert!(
        ctx.syncs().iter().all(|s| s.view < View(10)),
        "no pre-broadcast ∅ claim for the joined view"
    );
}

#[test]
fn one_view_of_lag_does_not_trigger_a_jump() {
    // Being a single view behind is the normal condition of the replicas
    // farthest from the quorum; they must keep their vote and catch up
    // through the ordinary Sync flow instead of jumping (DESIGN.md §7.5).
    let (mut r, mut ctx) = replica();
    deliver(&mut r, &mut ctx, 0, sync(1, None, vec![], false));
    deliver(&mut r, &mut ctx, 1, sync(1, None, vec![], false));
    deliver(&mut r, &mut ctx, 2, sync(1, None, vec![], false));
    assert_eq!(
        r.instance(InstanceId(0)).view(),
        View(0),
        "one view behind: no jump"
    );
    // Two views is a real gap: the jump fires.
    deliver(&mut r, &mut ctx, 0, sync(2, None, vec![], false));
    deliver(&mut r, &mut ctx, 1, sync(2, None, vec![], false));
    assert_eq!(r.instance(InstanceId(0)).view(), View(2));
}

#[test]
fn upsilon_requests_get_our_old_sync_back() {
    let (mut r, mut ctx) = replica();
    let p = Arc::new(Proposal::new(
        InstanceId(0),
        View(0),
        batch(1),
        Justification::genesis(),
    ));
    deliver(&mut r, &mut ctx, 0, Message::Propose(p.clone()));
    assert_eq!(ctx.syncs().len(), 1);
    // Replica 2 asks for view-0 retransmission.
    deliver(&mut r, &mut ctx, 2, sync(0, None, vec![], true));
    let directed: Vec<_> = ctx
        .sent
        .iter()
        .filter(|(to, m)| {
            *to == Some(NodeId::Replica(ReplicaId(2))) && matches!(m, Message::Sync(_))
        })
        .collect();
    assert_eq!(directed.len(), 1, "Υ service resends our own view-0 Sync");
}

#[test]
fn f_plus_1_matching_claims_echo_and_ask() {
    let (mut r, mut ctx) = replica();
    // We never received the proposal, but 2 = f+1 replicas claim it.
    let p = Arc::new(Proposal::new(
        InstanceId(0),
        View(0),
        batch(1),
        Justification::genesis(),
    ));
    deliver(&mut r, &mut ctx, 0, sync(0, Some(&p), vec![], false));
    deliver(&mut r, &mut ctx, 1, sync(0, Some(&p), vec![], false));
    // Echo: our own Sync with the same claim, despite no proposal body.
    let echoes = ctx
        .syncs()
        .iter()
        .filter(|s| s.claim == Some(p.reference()))
        .count();
    assert!(echoes >= 1, "echo rule fired");
    assert!(ctx.asks() >= 1, "unknown body triggers Ask");
}

#[test]
fn ask_is_answered_with_forward() {
    let (mut r, mut ctx) = replica();
    let p = Arc::new(Proposal::new(
        InstanceId(0),
        View(0),
        batch(1),
        Justification::genesis(),
    ));
    deliver(&mut r, &mut ctx, 0, Message::Propose(p.clone()));
    deliver(
        &mut r,
        &mut ctx,
        2,
        Message::Ask {
            instance: InstanceId(0),
            target: p.reference(),
        },
    );
    let forwards = ctx
        .sent
        .iter()
        .filter(|(to, m)| {
            *to == Some(NodeId::Replica(ReplicaId(2))) && matches!(m, Message::Forward(_))
        })
        .count();
    assert_eq!(forwards, 1);
}

#[test]
fn forwarded_body_must_match_its_digest() {
    let (mut r, mut ctx) = replica();
    let good = Proposal::new(InstanceId(0), View(0), batch(1), Justification::genesis());
    let mut forged = good.clone();
    forged.batch = batch(99); // body no longer matches digest
    deliver(&mut r, &mut ctx, 2, Message::Forward(Arc::new(forged)));
    // The forged body is not recorded: an Ask for it stays unanswered.
    deliver(
        &mut r,
        &mut ctx,
        1,
        Message::Ask {
            instance: InstanceId(0),
            target: good.reference(),
        },
    );
    let forwards = ctx
        .sent
        .iter()
        .filter(|(_, m)| matches!(m, Message::Forward(_)))
        .count();
    assert_eq!(forwards, 0, "forged forward must be rejected");
}

#[test]
fn certificate_justification_prepares_parent() {
    let (mut r, mut ctx) = replica();
    // We missed views 0–1 entirely. View 2's proposal carries cert(P1):
    // we must conditionally prepare P1 (by reference), vote for P2, and
    // fetch P1's unknown body via Ask.
    let p0 = Arc::new(Proposal::new(
        InstanceId(0),
        View(0),
        batch(1),
        Justification::genesis(),
    ));
    let p1 = Arc::new(Proposal::new(
        InstanceId(0),
        View(1),
        batch(2),
        Justification::certificate(p0.reference()),
    ));
    let p2 = Arc::new(Proposal::new(
        InstanceId(0),
        View(2),
        batch(3),
        Justification::certificate(p1.reference()),
    ));
    // Move to view 2 first (f+1 jump; two views behind qualifies).
    deliver(&mut r, &mut ctx, 0, sync(2, None, vec![], false));
    deliver(&mut r, &mut ctx, 1, sync(2, None, vec![], false));
    assert_eq!(r.instance(InstanceId(0)).view(), View(2));
    // View-2 primary is replica 2; the jump landed us in Recording, so
    // the certificate both prepares the parent and lets us vote.
    let votes_before = ctx.syncs().iter().filter(|s| s.view == View(2)).count();
    deliver(&mut r, &mut ctx, 2, Message::Propose(p2.clone()));
    let votes_after = ctx
        .syncs()
        .iter()
        .filter(|s| s.view == View(2) && s.claim == Some(p2.reference()))
        .count();
    assert!(
        votes_after > votes_before.saturating_sub(1) && votes_after >= 1,
        "jumper keeps its vote in the target view"
    );
    assert!(ctx.asks() >= 1, "cert-prepared parent without body → Ask");
}

#[test]
fn three_consecutive_views_commit_and_cascade() {
    let (mut r, mut ctx) = replica();
    let p0 = Arc::new(Proposal::new(
        InstanceId(0),
        View(0),
        batch(1),
        Justification::genesis(),
    ));
    let p1 = Arc::new(Proposal::new(
        InstanceId(0),
        View(1),
        batch(2),
        Justification::certificate(p0.reference()),
    ));
    let p2 = Arc::new(Proposal::new(
        InstanceId(0),
        View(2),
        batch(3),
        Justification::certificate(p1.reference()),
    ));
    for (primary, p) in [(0u32, &p0), (1, &p1), (2, &p2)] {
        deliver(&mut r, &mut ctx, primary, Message::Propose(p.clone()));
        for q in [0u32, 1, 2] {
            deliver(&mut r, &mut ctx, q, sync(p.view.0, Some(p), vec![p], false));
        }
    }
    // Preparing P2 (view 2) with chain P2→P1→P0 over consecutive views
    // commits P0 (Definition 3.3).
    assert_eq!(ctx.commits.len(), 1);
    assert_eq!(ctx.commits[0].batch.id, BatchId(1));
    // The lock is P1 (highest conditionally committed).
    assert_eq!(
        r.instance(InstanceId(0)).lock().map(|l| l.view),
        Some(View(1))
    );
}

#[test]
fn gap_in_views_does_not_commit() {
    let (mut r, mut ctx) = replica();
    let p0 = Arc::new(Proposal::new(
        InstanceId(0),
        View(0),
        batch(1),
        Justification::genesis(),
    ));
    // View 1 failed; view 2 extends P0 directly.
    let p2 = Arc::new(Proposal::new(
        InstanceId(0),
        View(2),
        batch(3),
        Justification::claim(p0.reference()),
    ));
    let p3 = Arc::new(Proposal::new(
        InstanceId(0),
        View(3),
        batch(4),
        Justification::certificate(p2.reference()),
    ));
    for (primary, p) in [(0u32, &p0), (2, &p2), (3, &p3)] {
        deliver(&mut r, &mut ctx, primary, Message::Propose(p.clone()));
        for q in [0u32, 1, 2] {
            deliver(&mut r, &mut ctx, q, sync(p.view.0, Some(p), vec![p], false));
        }
    }
    // P3@3 → P2@2 → P0@0: views 2,3 are consecutive but 0,2 are not;
    // nothing commits yet (the three-consecutive-view rule).
    assert!(
        ctx.commits.is_empty(),
        "commit across a view gap violates Definition 3.3: {:?}",
        ctx.commits
    );
}

/// Four replicas of a single-instance cluster wired back to back: every
/// message a replica emits is delivered at once, in emission order,
/// except across `cut` (a replica whose links are down); timers fire
/// only when nothing is left to deliver.
struct Wired {
    replicas: Vec<SpotLessReplica>,
    ctxs: Vec<Ctx>,
    delivered: Vec<usize>,
    cut: Option<usize>,
}

impl Wired {
    fn start() -> Wired {
        let cluster = ClusterConfig::with_instances(4, 1);
        let keys = KeyStore::cluster(b"rvs-rules-sign-once", 4);
        let mut replicas = Vec::new();
        let mut ctxs = Vec::new();
        for (r, keys) in cluster.replicas().zip(keys) {
            let mut replica = SpotLessReplica::new(ReplicaConfig::honest(cluster.clone(), r));
            let mut ctx = Ctx::new();
            ctx.keys = Some(keys);
            replica.on_input(Input::Start, &mut ctx);
            replicas.push(replica);
            ctxs.push(ctx);
        }
        Wired {
            replicas,
            ctxs,
            delivered: vec![0; 4],
            cut: None,
        }
    }

    fn view(&self, r: usize) -> u64 {
        self.replicas[r].instance(InstanceId(0)).view().0
    }

    /// Delivers until replica `r` has reached `view`.
    fn run_until(&mut self, r: usize, view: u64) {
        while self.view(r) < view {
            let mut moved = false;
            for from in 0..4 {
                let Some((to, msg)) = self.ctxs[from].sent.get(self.delivered[from]).cloned()
                else {
                    continue;
                };
                self.delivered[from] += 1;
                moved = true;
                let to: Vec<usize> = match to {
                    None => (0..4).collect(),
                    Some(NodeId::Replica(to)) => vec![to.as_usize()],
                    Some(_) => continue,
                };
                for to in to {
                    if from != to && (self.cut == Some(from) || self.cut == Some(to)) {
                        continue;
                    }
                    deliver(
                        &mut self.replicas[to],
                        &mut self.ctxs[to],
                        from as u32,
                        msg.clone(),
                    );
                }
            }
            if !moved {
                self.fire_timers();
            }
        }
    }

    /// Nothing left to deliver: time passes, and every armed timer
    /// fires (the protocol ignores the stale ones).
    fn fire_timers(&mut self) {
        let wait = self
            .ctxs
            .iter()
            .flat_map(|ctx| ctx.timers.iter().map(|&(_, after)| after))
            .max()
            .expect("a quiet cluster has timers armed");
        for (replica, ctx) in self.replicas.iter_mut().zip(&mut self.ctxs) {
            ctx.now += wait;
            for (id, _) in std::mem::take(&mut ctx.timers) {
                replica.on_input(Input::Timer(id), ctx);
            }
        }
    }
}

#[test]
fn every_vote_is_signed_once_and_every_sync_carries_the_fresh_signatures() {
    let mut net = Wired::start();
    net.run_until(0, 20);
    // Replica 3 drops off while the others run 30 views ahead, then
    // hears them again: an f + 1 jump with its Υ backfill.
    net.cut = Some(3);
    net.run_until(0, 50);
    assert!(net.view(3) <= 21);
    net.cut = None;
    net.run_until(3, 50);
    let backfill = net.ctxs[3]
        .syncs()
        .iter()
        .filter(|s| s.upsilon && s.claim.is_none())
        .count();
    assert!(backfill >= 1, "replica 3 rejoined by a backfilled jump");
    net.run_until(3, 300);

    for (r, ctx) in net.ctxs.iter().enumerate() {
        let keys = ctx.keys.as_ref().expect("wired replicas sign for real");
        let statement = |p: spotless_core::messages::ProposalRef| {
            VoteStatement::new(InstanceId(0), p.view, p.digest)
        };
        let mut slots = 0;
        for sync in ctx.syncs() {
            let mut fresh = sync.clone();
            fresh.claim_sig = match sync.claim {
                Some(c) => keys.sign_vote(&statement(c)),
                None => Signature::ZERO,
            };
            fresh.cp_sigs = sync
                .cp
                .iter()
                .map(|&e| keys.sign_vote(&statement(e)))
                .collect();
            assert_eq!(sync, &fresh, "replica {r}, view {:?}", sync.view);
            slots += usize::from(sync.claim.is_some()) + sync.cp.len();
        }
        assert!(ctx.signed.len() >= 250, "replica {r} voted in most views");
        assert!(
            ctx.signed.values().all(|&calls| calls == 1),
            "replica {r} signed some statement twice"
        );
        assert!(
            slots >= 2 * ctx.signed.len(),
            "replica {r}: {slots} signature slots from {} signatures",
            ctx.signed.len()
        );
        // `gc()` collects them with the instance's other per-view state.
        let held = net.replicas[r].instance(InstanceId(0)).own_sigs_len();
        assert!(held <= 100, "replica {r} still holds {held} signatures");
    }
}
