//! One chained-consensus instance of SpotLess (§3).
//!
//! An instance proceeds through views `v = 0, 1, 2, …`, each coordinated
//! by primary `(instance + v) mod n`. Per view, a replica passes through
//! the three Rapid View Synchronization states (§3.4):
//!
//! * **ST1 Recording** — waiting for an acceptable proposal until timer
//!   `t_R` fires; an acceptable proposal (A1 ∧ (A2 ∨ A3)) or the timeout
//!   triggers the replica's single `Sync` broadcast for the view;
//! * **ST2 Syncing** — waiting for `Sync` messages from `n − f` distinct
//!   replicas (no timer; §3.5's Υ retransmission loop covers message
//!   loss);
//! * **ST3 Certifying** — waiting for `n − f` `Sync`s with the *same*
//!   claim until timer `t_A` fires; either outcome advances the view.
//!
//! Conditional prepares arise three ways (§3.3): a same-claim quorum in
//! the claim's view, a certificate embedded in a later proposal, or `f+1`
//! `Sync`s carrying the proposal in their `CP` sets. A conditional
//! prepare of a direct child conditionally commits (and locks) the
//! parent; a direct three-consecutive-view chain `v, v+1, v+2` commits
//! (Definition 3.3 — Example 3.6's two-view counterexample is a test in
//! `tests/safety_example_3_6.rs`).
//!
//! The RVS catch-up rules are all here: the `f+1`-higher-views jump, the
//! Υ flag, the `f+1`-matching-claims echo, and `Ask`/`Forward` body
//! recovery, plus §3.5's adaptive (±ε / halving) timeout management.

use crate::messages::{
    Justification, JustificationKind, Message, Proposal, ProposalRef, SyncMsg, CP_CAP,
};
use crate::util::ReplicaSet;
use spotless_types::{
    ByzantineBehavior, CertPhase, ClientBatch, ClusterConfig, CommitCertificate, Context,
    InstanceId, ReplicaId, Signature, SimDuration, SimTime, TimerId, TimerKind, View,
    VoteStatement,
};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// How many views below a jump target the catching-up replica backfills
/// with `Sync(u, claim(∅), CP, Υ)` broadcasts. The paper backfills the
/// whole gap; bounding it keeps a rejoining replica from flooding the
/// network after a long absence — recovery still succeeds because the
/// `CP`-based prepare rule and `Ask` fetch the chain head directly.
const JUMP_BACKFILL: u64 = 8;

/// Views of bookkeeping kept below the committed head before garbage
/// collection.
const GC_WINDOW: u64 = 64;

/// Lower bound for the adaptive timers (halving never goes below this).
const TIMER_FLOOR: SimDuration = SimDuration::from_millis(1);

/// How many replicas an `Ask` is sent to per attempt.
const ASK_FANOUT: usize = 2;

/// The RVS per-view state (§3.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// ST1: waiting for an acceptable proposal (timer `t_R`).
    Recording,
    /// ST2: waiting for `n − f` `Sync`s of the current view (no timer).
    Syncing,
    /// ST3: waiting for `n − f` matching claims (timer `t_A`).
    Certifying,
}

/// Read-only per-replica context shared by all instances.
pub(crate) struct Shared<'a> {
    pub cfg: &'a ClusterConfig,
    pub me: ReplicaId,
    pub behavior: ByzantineBehavior,
    /// Which replicas are faulty — known to colluding Byzantine replicas
    /// (A2 victim selection, A4 primary discrimination); never consulted
    /// on honest paths.
    pub faulty: &'a [bool],
}

impl Shared<'_> {
    fn quorum(&self) -> u32 {
        self.cfg.quorum()
    }
    fn weak(&self) -> u32 {
        self.cfg.weak_quorum()
    }
    fn n(&self) -> u32 {
        self.cfg.n
    }
}

/// Effect sink for one instance invocation: protocol messages go out
/// through the context; newly committed proposals are collected for the
/// replica-level total-order executor.
pub(crate) struct Outbox<'a, 'c> {
    pub ctx: &'a mut dyn Context<Message = Message>,
    /// Proposals committed by this invocation, in chain order, each
    /// paired with the signer evidence that certified its commit.
    pub committed: &'c mut Vec<(Arc<Proposal>, CommitCertificate)>,
}

impl Outbox<'_, '_> {
    fn now(&self) -> SimTime {
        self.ctx.now()
    }
    fn send(&mut self, to: ReplicaId, msg: Message) {
        self.ctx.send(to.into(), msg);
    }
    fn broadcast(&mut self, msg: Message) {
        self.ctx.broadcast(msg);
    }
    fn timer(&mut self, id: TimerId, after: SimDuration) {
        self.ctx.set_timer(id, after);
    }
}

#[derive(Default)]
struct ViewSyncs {
    /// Distinct senders of `Sync`s for this view (ST2's n − f rule).
    senders: ReplicaSet,
    /// Claim → claimants (ST3's same-claim rule; `None` is `claim(∅)`).
    claims: HashMap<Option<ProposalRef>, ReplicaSet>,
}

/// State of one chained-consensus instance at one replica.
pub struct InstanceState {
    id: InstanceId,
    view: View,
    phase: Phase,
    /// When the current phase started (for the timeout-halving rule).
    phase_started: SimTime,
    /// When the current view was entered (proposal-delay tracking).
    view_entered: SimTime,
    /// EWMA of how long an accepted proposal takes to arrive after view
    /// entry — the live-view component of the "calculated average view
    /// duration" the paper calibrates timeouts against (§6.3). Twice
    /// this is the adaptive lower bound for t_R/t_A halving: it prevents
    /// the halving rule from driving timeouts below the network's actual
    /// delivery delay (which would make every view fail on high-latency
    /// links), without absorbing the long durations of timed-out views
    /// (which would make failure recovery sluggish).
    view_ewma: SimDuration,
    /// Upper-envelope of how long it takes to hear `Sync`s from `n − f`
    /// replicas after view entry (the Syncing→Certifying transition).
    /// Unlike `view_ewma` this is observable even in views that fail,
    /// so it discovers the topology's far mode when far-led views are
    /// timing out — the missing signal that made the halving floor
    /// collapse on WAN topologies once ε growth became
    /// consecutive-only (§3.5 literal).
    round_ewma: SimDuration,
    /// Adaptive Recording timeout `t_R`.
    t_r: SimDuration,
    /// Adaptive Certifying timeout `t_A`.
    t_a: SimDuration,
    /// View of the last Recording timeout (§3.5: only *consecutive*
    /// timeouts in consecutive views grow `t_R`).
    last_t_r_timeout: Option<View>,
    /// View of the last Certifying timeout (same rule for `t_A`).
    last_t_a_timeout: Option<View>,
    /// Constant ε added on timeout (§3.5).
    epsilon: SimDuration,
    retransmit_interval: SimDuration,

    /// Recorded proposal bodies by digest.
    proposals: HashMap<spotless_types::Digest, Arc<Proposal>>,
    /// Recorded proposal digests per view (multiple on equivocation).
    by_view: BTreeMap<View, Vec<spotless_types::Digest>>,
    /// Our own `Sync` per view (Υ retransmission service + dedup).
    own_syncs: BTreeMap<View, SyncMsg>,
    /// Received `Sync` bookkeeping per view.
    syncs: BTreeMap<View, ViewSyncs>,
    /// Highest view each replica has been seen in (jump rule).
    highest_view_of: Vec<View>,
    /// Conditionally prepared proposal per view (unique per Theorem 3.2).
    prepared: BTreeMap<View, spotless_types::Digest>,
    prepared_set: HashSet<spotless_types::Digest>,
    /// `CP`-set endorsements per proposal (f+1 ⇒ conditional prepare).
    cp_endorsers: HashMap<ProposalRef, ReplicaSet>,
    /// Verified vote signatures per proposal and voter. A claim vote and
    /// a `CP` endorsement of the same proposal sign the *same*
    /// [`VoteStatement`] — `(instance, r.view, r.digest)` — so one store
    /// backs both evidence routes, and `signer_evidence` can hand the
    /// ledger a certificate whose signatures third parties can re-check.
    vote_sigs: HashMap<ProposalRef, HashMap<ReplicaId, Signature>>,
    /// This replica's own vote signatures. A proposal stays in `CP` for
    /// several views, and every `Sync` of those views re-carries the
    /// endorsement: it is signed the first time and copied afterwards
    /// (Ed25519 is deterministic, so the bytes are the same either way).
    own_sigs: HashMap<ProposalRef, Signature>,
    /// Prepared by reference, body still missing (recovered via `Ask`).
    pending_body: HashSet<ProposalRef>,
    /// Outstanding `Ask` retry counters.
    asked: HashMap<ProposalRef, u32>,
    /// `P_lock`: the highest conditionally committed proposal.
    lock: Option<ProposalRef>,
    /// Committed proposal digests.
    committed: HashSet<spotless_types::Digest>,
    /// Highest committed proposal.
    committed_head: Option<ProposalRef>,
    /// Floor below which state has been garbage-collected.
    gc_floor: View,
    /// True while this replica is the current view's primary but is
    /// holding its proposal: the mempool had no batch for this instance
    /// and the instance is ahead of its siblings (§4.1 prioritization).
    pending_propose: bool,
}

impl InstanceState {
    /// Fresh instance state at view 0.
    pub fn new(id: InstanceId, cfg: &ClusterConfig) -> InstanceState {
        InstanceState {
            id,
            view: View::ZERO,
            phase: Phase::Recording,
            phase_started: SimTime::ZERO,
            view_entered: SimTime::ZERO,
            view_ewma: SimDuration::ZERO,
            round_ewma: SimDuration::ZERO,
            t_r: cfg.recording_timeout,
            t_a: cfg.certifying_timeout,
            last_t_r_timeout: None,
            last_t_a_timeout: None,
            epsilon: cfg.timeout_epsilon,
            retransmit_interval: cfg.retransmit_interval,
            proposals: HashMap::new(),
            by_view: BTreeMap::new(),
            own_syncs: BTreeMap::new(),
            syncs: BTreeMap::new(),
            highest_view_of: vec![View::ZERO; cfg.n as usize],
            prepared: BTreeMap::new(),
            prepared_set: HashSet::new(),
            cp_endorsers: HashMap::new(),
            vote_sigs: HashMap::new(),
            own_sigs: HashMap::new(),
            pending_body: HashSet::new(),
            asked: HashMap::new(),
            lock: None,
            committed: HashSet::new(),
            committed_head: None,
            gc_floor: View::ZERO,
            pending_propose: false,
        }
    }

    /// True while the primary is holding its proposal (§4.1
    /// prioritization; see the `pending_propose` field docs).
    pub fn held(&self) -> bool {
        self.pending_propose
    }

    /// Releases a held proposal: called by the replica when a batch
    /// arrived for this instance or when the sibling instances caught
    /// up. No-op unless the instance is actually holding.
    pub(crate) fn retry_propose(
        &mut self,
        sh: &Shared<'_>,
        out: &mut Outbox<'_, '_>,
        pick: &mut dyn FnMut(SimTime) -> Option<ClientBatch>,
    ) {
        if self.pending_propose && self.phase == Phase::Recording {
            self.pending_propose = false;
            self.propose(sh, out, pick);
        }
    }

    /// How many of this replica's own vote signatures the instance
    /// holds (observability/testing).
    pub fn own_sigs_len(&self) -> usize {
        self.own_sigs.len()
    }

    /// Current view (observability/testing).
    pub fn view(&self) -> View {
        self.view
    }

    /// Current RVS phase (observability/testing).
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// The current lock `P_lock` (observability/testing).
    pub fn lock(&self) -> Option<ProposalRef> {
        self.lock
    }

    /// Highest committed proposal (observability/testing).
    pub fn committed_head(&self) -> Option<ProposalRef> {
        self.committed_head
    }

    /// Current Recording timeout (observability/testing).
    pub fn t_r(&self) -> SimDuration {
        self.t_r
    }

    /// Current adaptive Certifying timeout (observability).
    pub fn t_a_dbg(&self) -> SimDuration {
        self.t_a
    }

    /// Diagnostic dump of the chain tail (hidden; used by repro tools).
    #[doc(hidden)]
    pub fn debug_tail(&self, window: u64) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let from = View(self.view.0.saturating_sub(window));
        for (&v, &d) in self.prepared.range(from..) {
            let parent = self
                .proposals
                .get(&d)
                .and_then(|p| p.parent())
                .map(|p| format!("{:?}", p.view))
                .unwrap_or_else(|| "?".into());
            let _ = write!(out, " p{}<-{}", v.0, parent);
        }
        let _ = write!(
            out,
            " | props@tail:{}",
            self.by_view
                .range(from..)
                .map(|(v, ds)| format!("{}x{}", v.0, ds.len()))
                .collect::<Vec<_>>()
                .join(",")
        );
        out
    }

    /// The adaptive halving floor: never shrink a timeout below the
    /// measured average view duration (§6.3's calibration), nor below
    /// the absolute floor.
    fn timer_floor(&self) -> SimDuration {
        let slowest = self.view_ewma.max(self.round_ewma);
        let doubled = slowest.saturating_mul(2);
        if doubled > TIMER_FLOOR {
            doubled
        } else {
            TIMER_FLOOR
        }
    }

    /// Feeds the quorum-round envelope (see `round_ewma`). `delay` is
    /// measured from this replica's own `Sync` broadcast (Syncing
    /// entry), so it captures the cluster's dispersion rather than this
    /// replica's wait for a proposal; it is capped at the configured
    /// base Recording timeout so a long partition stall (which is not a
    /// topology property) cannot poison the floor.
    fn observe_round(&mut self, delay: SimDuration, cap: SimDuration) {
        if delay == SimDuration::ZERO {
            return;
        }
        let delay = delay.min(cap);
        self.round_ewma = if self.round_ewma == SimDuration::ZERO {
            delay
        } else {
            let decayed =
                SimDuration::from_nanos((self.round_ewma.as_nanos() * 7 + delay.as_nanos()) / 8);
            decayed.max(delay)
        };
    }

    /// Enters view 0 (called once at node start).
    pub(crate) fn start(
        &mut self,
        sh: &Shared<'_>,
        out: &mut Outbox<'_, '_>,
        pick: &mut dyn FnMut(SimTime) -> Option<ClientBatch>,
    ) {
        self.enter_view(View::ZERO, sh, out, pick);
    }

    /// Routes one delivered message.
    pub(crate) fn on_message(
        &mut self,
        from: ReplicaId,
        msg: Message,
        sh: &Shared<'_>,
        out: &mut Outbox<'_, '_>,
        pick: &mut dyn FnMut(SimTime) -> Option<ClientBatch>,
    ) {
        match msg {
            Message::Propose(p) => self.on_propose(from, p, sh, out, pick),
            Message::Sync(s) => self.on_sync(from, s, sh, out, pick),
            Message::Ask { target, .. } => self.on_ask(from, target, out),
            Message::Forward(p) => self.on_forward(p, sh, out, pick),
        }
    }

    /// Handles a fired timer belonging to this instance.
    pub(crate) fn on_timer(
        &mut self,
        timer: TimerId,
        sh: &Shared<'_>,
        out: &mut Outbox<'_, '_>,
        pick: &mut dyn FnMut(SimTime) -> Option<ClientBatch>,
    ) {
        match timer.kind {
            TimerKind::Recording
                // Stale unless we are still Recording the armed view.
                if timer.view == self.view && self.phase == Phase::Recording => {
                    self.on_recording_timeout(sh, out, pick);
                }
            TimerKind::Certifying
                if timer.view == self.view && self.phase == Phase::Certifying => {
                    // §3.5: t_A += ε only when the timer also expired in
                    // the *previous* view. With rotating primaries, the
                    // isolated timeouts caused by each crashed primary
                    // must not ratchet the timeout upward — the paper's
                    // consecutive-timeouts wording is what keeps view
                    // duration (and hence failure-case throughput)
                    // stable, so it is implemented literally.
                    if self.last_t_a_timeout == Some(View(self.view.0.wrapping_sub(1))) {
                        self.t_a += self.epsilon;
                    }
                    self.last_t_a_timeout = Some(self.view);
                    self.enter_view(self.view.next(), sh, out, pick);
                }
            TimerKind::Retransmit
                if timer.view == self.view => {
                    self.on_retransmit(sh, out);
                    out.timer(
                        TimerId::new(TimerKind::Retransmit, self.id, self.view),
                        self.retransmit_interval,
                    );
                }
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // View lifecycle
    // ------------------------------------------------------------------

    fn enter_view(
        &mut self,
        v: View,
        sh: &Shared<'_>,
        out: &mut Outbox<'_, '_>,
        pick: &mut dyn FnMut(SimTime) -> Option<ClientBatch>,
    ) {
        self.view = v;
        self.phase = Phase::Recording;
        self.phase_started = out.now();
        self.view_entered = out.now();
        out.timer(TimerId::new(TimerKind::Recording, self.id, v), self.t_r);
        out.timer(
            TimerId::new(TimerKind::Retransmit, self.id, v),
            self.retransmit_interval,
        );
        self.pending_propose = false;
        if sh.cfg.primary_of(self.id, v) == sh.me {
            self.propose(sh, out, pick);
        }
        self.maybe_vote(sh, out);
        self.maybe_progress(sh, out, pick);
        self.gc();
    }

    /// Primary role (§3.1 step 1 / Figure 3 lines 12–14).
    fn propose(
        &mut self,
        sh: &Shared<'_>,
        out: &mut Outbox<'_, '_>,
        pick: &mut dyn FnMut(SimTime) -> Option<ClientBatch>,
    ) {
        let justification = self.highest_extendable(sh);
        // `None` = no batch available and this instance is ahead of its
        // siblings: hold the proposal instead of churning a no-op view
        // (§4.1's instance prioritization, implemented at the proposing
        // seam — see `SpotLessReplica::release_held_instances`). The
        // hold is released by a new request, by the siblings catching
        // up, or by the Recording timeout (which proposes the §5 no-op
        // so execution can never stall indefinitely).
        let Some(batch) = pick(out.now()) else {
            self.pending_propose = true;
            return;
        };
        let proposal = Arc::new(Proposal::new(self.id, self.view, batch, justification));
        match sh.behavior {
            ByzantineBehavior::DarkPrimary => {
                // A2: withhold the proposal from f non-faulty victims.
                let victims = dark_victims(sh);
                for r in 0..sh.n() {
                    let r = ReplicaId(r);
                    if !victims.contains(&r) {
                        out.send(r, Message::Propose(proposal.clone()));
                    }
                }
            }
            ByzantineBehavior::Equivocate => {
                // A3: conflicting proposals to two halves of the replicas.
                let alt = Arc::new(Proposal::new(
                    self.id,
                    self.view,
                    ClientBatch::noop(out.now()),
                    justification,
                ));
                let half = sh.n() / 2;
                for r in 0..sh.n() {
                    let msg = if r < half {
                        Message::Propose(proposal.clone())
                    } else {
                        Message::Propose(alt.clone())
                    };
                    out.send(ReplicaId(r), msg);
                }
            }
            _ => out.broadcast(Message::Propose(proposal)),
        }
    }

    /// Figure 3 lines 5–11: backtrack to the highest conditionally
    /// prepared proposal for which we can justify extension (E1 or E2).
    fn highest_extendable(&self, sh: &Shared<'_>) -> Justification {
        for (&view, &digest) in self.prepared.range(..self.view).rev() {
            let r = ProposalRef { view, digest };
            // E1: n − f signed Sync claims from the proposal's own view.
            let e1 = self
                .syncs
                .get(&view)
                .and_then(|vs| vs.claims.get(&Some(r)))
                .is_some_and(|set| set.len() >= sh.quorum());
            if e1 {
                return Justification::certificate(r);
            }
            // E2: n − f Syncs whose CP sets contain the proposal.
            let e2 = self
                .cp_endorsers
                .get(&r)
                .is_some_and(|set| set.len() >= sh.quorum());
            if e2 {
                return Justification::claim(r);
            }
        }
        Justification::genesis()
    }

    fn on_recording_timeout(
        &mut self,
        sh: &Shared<'_>,
        out: &mut Outbox<'_, '_>,
        pick: &mut dyn FnMut(SimTime) -> Option<ClientBatch>,
    ) {
        // A held primary's hold expires here: propose the §5 no-op so
        // execution of the other instances cannot stall on this one.
        // (Not a failure — the timer growth rule below must not see it.)
        if self.pending_propose {
            self.pending_propose = false;
            let noop = ClientBatch::noop(out.now());
            let justification = self.highest_extendable(sh);
            let proposal = Arc::new(Proposal::new(self.id, self.view, noop, justification));
            out.broadcast(Message::Propose(proposal));
            return; // stay Recording; our vote arrives via loopback
        }
        // §3.5: t_R += ε only on a timeout in consecutive views (see the
        // matching comment on the Certifying timer).
        if self.last_t_r_timeout == Some(View(self.view.0.wrapping_sub(1))) {
            self.t_r += self.epsilon;
        }
        self.last_t_r_timeout = Some(self.view);
        // A4: an anti-primary attacker refuses to participate in views
        // led by non-faulty primaries — it stays silent entirely.
        let primary = sh.cfg.primary_of(self.id, self.view);
        let suppressed = sh.behavior == ByzantineBehavior::AntiPrimary
            && !sh.faulty.get(primary.as_usize()).copied().unwrap_or(false);
        if !suppressed {
            self.send_sync(None, false, sh, out);
        }
        self.phase = Phase::Syncing;
        self.phase_started = out.now();
        self.maybe_progress(sh, out, pick);
    }

    fn on_retransmit(&mut self, _sh: &Shared<'_>, out: &mut Outbox<'_, '_>) {
        // §3.5: periodically retransmit until the needed replies arrive.
        // Certifying is covered too: a dropped claim Sync would otherwise
        // never be resent once all senders are counted, leaving quorums
        // (and the next primary's E1 evidence) one claim short forever.
        if matches!(self.phase, Phase::Syncing | Phase::Certifying) {
            if let Some(own) = self.own_syncs.get(&self.view) {
                let mut again = own.clone();
                again.upsilon = true;
                out.broadcast(Message::Sync(again));
            }
        }
        // Retry unanswered Asks with rotated targets.
        let pending: Vec<ProposalRef> = self.pending_body.iter().copied().collect();
        for r in pending {
            self.send_asks(r, out);
        }
    }

    // ------------------------------------------------------------------
    // Backup role: proposals
    // ------------------------------------------------------------------

    fn on_propose(
        &mut self,
        from: ReplicaId,
        p: Arc<Proposal>,
        sh: &Shared<'_>,
        out: &mut Outbox<'_, '_>,
        pick: &mut dyn FnMut(SimTime) -> Option<ClientBatch>,
    ) {
        // Well-formedness (S1): the signer must be the view's primary.
        if p.instance != self.id || sh.cfg.primary_of(self.id, p.view) != from {
            return;
        }
        if !self.record_proposal(p.clone(), sh, out) {
            return;
        }
        // A certificate-justified proposal conditionally prepares its
        // parent at every receiver (§3.3: "even if R fails to receive
        // sufficient Sync messages … R will conditionally prepare P if it
        // receives a valid certificate cert(P)").
        if p.justification.kind == JustificationKind::Certificate {
            if let Some(parent) = p.parent() {
                self.conditionally_prepare(parent, sh, out);
            }
        }
        self.maybe_vote(sh, out);
        self.maybe_progress(sh, out, pick);
    }

    /// Records a proposal body; returns false if malformed. Completes any
    /// prepare/commit steps that were waiting for this body.
    fn record_proposal(
        &mut self,
        p: Arc<Proposal>,
        sh: &Shared<'_>,
        out: &mut Outbox<'_, '_>,
    ) -> bool {
        if p.view < self.gc_floor {
            return false;
        }
        // Recompute the digest: a forwarded body must match its reference.
        let expect = Proposal::digest_of(p.instance, p.view, &p.batch, &p.justification);
        if expect != p.digest {
            return false;
        }
        if self.proposals.contains_key(&p.digest) {
            return true;
        }
        self.proposals.insert(p.digest, p.clone());
        self.by_view.entry(p.view).or_default().push(p.digest);
        let r = p.reference();
        self.asked.remove(&r);
        if self.pending_body.remove(&r) {
            self.after_prepared_with_body(r, sh, out);
        }
        // A child prepared earlier may have been blocked on this body.
        self.rescan_commits(sh, out);
        true
    }

    /// The acceptance rules A1–A3 (§3.3).
    fn acceptable(&self, p: &Proposal) -> bool {
        let Some(parent) = p.parent() else {
            // Genesis-rooted: A1 holds trivially; A2 requires an empty
            // lock, A3 never holds (no parent view above the lock).
            return self.lock.is_none();
        };
        // A1 (validity): we conditionally prepared the parent.
        if self.prepared.get(&parent.view) != Some(&parent.digest) {
            return false;
        }
        let Some(lock) = self.lock else {
            return true; // no lock: A2 holds vacuously
        };
        // A3 (liveness): the parent is newer than our lock.
        if parent.view > lock.view {
            return true;
        }
        // A2 (safety): the parent's chain passes through our lock.
        let mut cur = parent;
        loop {
            if cur == lock {
                return true;
            }
            if cur.view <= lock.view {
                return false;
            }
            match self.proposals.get(&cur.digest).and_then(|b| b.parent()) {
                Some(prev) => cur = prev,
                None => return false, // hit genesis or a missing body
            }
        }
    }

    fn maybe_vote(&mut self, sh: &Shared<'_>, out: &mut Outbox<'_, '_>) {
        if self.phase != Phase::Recording || self.own_syncs.contains_key(&self.view) {
            return;
        }
        // A4: silent in views led by non-faulty primaries.
        let primary = sh.cfg.primary_of(self.id, self.view);
        if sh.behavior == ByzantineBehavior::AntiPrimary
            && !sh.faulty.get(primary.as_usize()).copied().unwrap_or(false)
        {
            return;
        }
        let Some(digests) = self.by_view.get(&self.view) else {
            return;
        };
        for digest in digests.clone() {
            let Some(p) = self.proposals.get(&digest).cloned() else {
                continue;
            };
            if self.acceptable(&p) {
                // Track how long acceptable proposals take to arrive.
                // A zero delay means the proposal was already buffered
                // when we entered the view (we are the straggler): it
                // says nothing about network delay, and treating it as
                // "instant" would drive the adaptive timeout below the
                // real delivery time — on high-latency links that makes
                // every view fail. Only positive delays adapt the timer.
                let delay = out.now().since(self.view_entered);
                if delay > SimDuration::ZERO {
                    // Upper-envelope tracker, not a mean: with rotating
                    // primaries the delay distribution is bimodal (the
                    // proposal comes from a near or a far replica), and
                    // the timeout must cover the *far* mode. A plain
                    // EWMA is dominated by the near mode and collapses
                    // t_R below the far-primary delivery time, failing
                    // every far-led view (observed on the 3-region
                    // topology: no three-consecutive-view chain ever
                    // formed). Jump to new maxima immediately; decay
                    // 1/8 per accepted view so a regime change back to
                    // fast links is still picked up. Zero-delay accepts
                    // (pre-buffered proposals) say nothing about the
                    // network and are excluded from the floor…
                    self.view_ewma = if self.view_ewma == SimDuration::ZERO {
                        delay
                    } else {
                        let decayed = SimDuration::from_nanos(
                            (self.view_ewma.as_nanos() * 7 + delay.as_nanos()) / 8,
                        );
                        decayed.max(delay)
                    };
                }
                // …but they do halve the timer (§3.5's rule applies to
                // any sufficiently-early arrival): the envelope floor
                // below keeps the halving from undercutting real
                // delivery delays, and without halving on pre-buffered
                // arrivals the +ε of each crashed-primary view would
                // ratchet t_R upward forever on a busy cluster.
                if out.now().since(self.phase_started) < self.t_r.halved() {
                    let halved = self.t_r.halved();
                    let floor = self.timer_floor();
                    self.t_r = if halved > floor { halved } else { floor };
                }
                self.vote(p.reference(), sh, out);
                return;
            }
        }
    }

    /// Broadcasts this replica's single `Sync` for the current view.
    fn vote(&mut self, claim: ProposalRef, sh: &Shared<'_>, out: &mut Outbox<'_, '_>) {
        self.send_sync(Some(claim), false, sh, out);
        self.phase = Phase::Syncing;
        self.phase_started = out.now();
    }

    fn cp_list(&self) -> Vec<ProposalRef> {
        let from = self.lock.map(|l| l.view).unwrap_or(View::ZERO);
        let mut cp: Vec<ProposalRef> = self
            .prepared
            .range(from..)
            .map(|(&view, &digest)| ProposalRef { view, digest })
            .collect();
        if cp.len() > CP_CAP {
            cp.drain(..cp.len() - CP_CAP);
        }
        cp
    }

    /// The statement a vote for `r` signs — shared by claim votes and
    /// `CP` endorsements, so either route yields certificate evidence.
    fn vote_statement(&self, r: ProposalRef) -> VoteStatement {
        VoteStatement::new(self.id, r.view, r.digest)
    }

    /// This replica's signature on the vote for `r`, signed through the
    /// context at most once per proposal.
    fn own_sig(&mut self, r: ProposalRef, out: &mut Outbox<'_, '_>) -> Signature {
        if let Some(&sig) = self.own_sigs.get(&r) {
            return sig;
        }
        let sig = out.ctx.sign_vote(&self.vote_statement(r));
        self.own_sigs.insert(r, sig);
        sig
    }

    fn send_sync(
        &mut self,
        claim: Option<ProposalRef>,
        upsilon: bool,
        sh: &Shared<'_>,
        out: &mut Outbox<'_, '_>,
    ) {
        let cp = self.cp_list();
        let claim_sig = match claim {
            Some(c) => self.own_sig(c, out),
            None => Signature::ZERO, // ∅ claims never enter certificates
        };
        let cp_sigs = cp.iter().map(|&e| self.own_sig(e, out)).collect();
        let msg = SyncMsg {
            instance: self.id,
            view: self.view,
            claim,
            cp,
            upsilon,
            claim_sig,
            cp_sigs,
        };
        self.own_syncs.insert(self.view, msg.clone());
        if sh.behavior == ByzantineBehavior::Equivocate && claim.is_some() {
            // A3: conflicting votes — claim(P) to one half, claim(∅) to
            // the other, attempting divergence.
            let mut empty = msg.clone();
            empty.claim = None;
            let half = sh.n() / 2;
            for r in 0..sh.n() {
                let m = if r < half { msg.clone() } else { empty.clone() };
                out.send(ReplicaId(r), Message::Sync(m));
            }
        } else {
            out.broadcast(Message::Sync(msg));
        }
    }

    // ------------------------------------------------------------------
    // Backup role: Sync processing (the heart of RVS)
    // ------------------------------------------------------------------

    fn on_sync(
        &mut self,
        from: ReplicaId,
        s: SyncMsg,
        sh: &Shared<'_>,
        out: &mut Outbox<'_, '_>,
        pick: &mut dyn FnMut(SimTime) -> Option<ClientBatch>,
    ) {
        if s.instance != self.id || s.view < self.gc_floor {
            return;
        }
        // Malformed: the per-entry signature vector must parallel CP,
        // and no correct replica advertises more than CP_CAP entries.
        if s.cp_sigs.len() != s.cp.len() || s.cp.len() > CP_CAP {
            return;
        }
        if let Some(hv) = self.highest_view_of.get_mut(from.as_usize()) {
            if s.view > *hv {
                *hv = s.view;
            }
        }
        // Υ service: resend our own Sync of that view to the requester.
        if s.upsilon {
            if let Some(own) = self.own_syncs.get(&s.view) {
                let mut reply = own.clone();
                reply.upsilon = false;
                out.send(from, Message::Sync(reply));
            }
        }
        // Vote authenticity gate: a claim or CP endorsement is counted —
        // and its signature retained for later certificates — only if the
        // signature over its statement verifies for the sender. §3.1's
        // "signatures are only verified where recovery is necessary"
        // survives as a *scheduling* statement: the runtime verifies
        // every vote a `Sync` lists (`ProtocolMessage::carried_votes`)
        // in one batch with the envelope signatures before the message
        // reaches the loop, so the hot path here sees one lookup, not
        // one scalar mul. A garbage-signed claim still counts the
        // sender toward ST2's n − f rule (sender authenticity comes
        // from the envelope signature) but never toward a claim quorum
        // or certificate.
        let claim_ok = match s.claim {
            Some(c) => {
                let ok = out
                    .ctx
                    .verify_vote(from, &self.vote_statement(c), &s.claim_sig);
                if ok {
                    self.vote_sigs
                        .entry(c)
                        .or_default()
                        .insert(from, s.claim_sig);
                }
                ok
            }
            None => true,
        };
        let mut cp_ok = vec![false; s.cp.len()];
        for (i, &entry) in s.cp.iter().enumerate() {
            if entry.view < self.gc_floor {
                continue;
            }
            let sig = s.cp_sigs[i];
            if out.ctx.verify_vote(from, &self.vote_statement(entry), &sig) {
                self.vote_sigs.entry(entry).or_default().insert(from, sig);
                cp_ok[i] = true;
            }
        }
        // Bookkeeping: distinct senders and per-claim counts.
        let n = sh.n();
        let vs = self.syncs.entry(s.view).or_default();
        if vs.senders.is_empty() {
            vs.senders = ReplicaSet::new(n);
        }
        vs.senders.insert(from);
        if claim_ok {
            let set = vs
                .claims
                .entry(s.claim)
                .or_insert_with(|| ReplicaSet::new(n));
            let newly_counted = set.insert(from);
            let claim_count = set.len();
            if let Some(c) = s.claim {
                if newly_counted {
                    if claim_count >= sh.quorum() {
                        // n − f concurring votes ⇒ conditional prepare.
                        self.conditionally_prepare(c, sh, out);
                    } else if claim_count >= sh.weak() {
                        self.on_weak_claim_quorum(c, sh, out);
                    }
                }
            }
        }
        // CP endorsements: f + 1 ⇒ conditional prepare (Figure 3 l.22).
        for (i, &entry) in s.cp.iter().enumerate() {
            if !cp_ok[i] {
                continue;
            }
            let endorsers = self
                .cp_endorsers
                .entry(entry)
                .or_insert_with(|| ReplicaSet::new(n));
            if endorsers.insert(from) && endorsers.len() >= sh.weak() {
                self.conditionally_prepare(entry, sh, out);
            }
        }
        // RVS view jump: f + 1 replicas seen at views ≥ w > ours.
        if s.view > self.view {
            self.maybe_jump(sh, out, pick);
        }
        self.maybe_progress(sh, out, pick);
    }

    /// `f + 1` matching claims (Figure 3 lines 24–28): echo the claim if
    /// we have not voted, and fetch the body if we do not know it.
    fn on_weak_claim_quorum(&mut self, c: ProposalRef, sh: &Shared<'_>, out: &mut Outbox<'_, '_>) {
        let body = self.proposals.get(&c.digest).cloned();
        if c.view == self.view
            && self.phase == Phase::Recording
            && !self.own_syncs.contains_key(&self.view)
        {
            // Echo only if the proposal is not known-unacceptable: f+1
            // claimants guarantee one non-faulty acceptor, which makes the
            // claim safe to endorse when the body is unknown.
            let endorse = match &body {
                Some(p) => self.acceptable(p),
                None => true,
            };
            if endorse {
                self.vote(c, sh, out);
            }
        }
        if body.is_none() {
            self.ensure_body(c, out);
        }
    }

    /// The f+1-higher-views jump rule (§3.4 / Figure 4 lines 12–15).
    ///
    /// Two deliberate refinements over the figure's literal text (see
    /// DESIGN.md §7.5):
    ///
    /// * the jump fires only when the replica is **at least two views**
    ///   behind the f+1-attested target. Being one view behind is the
    ///   normal state of the replicas farthest from the current quorum
    ///   (on WAN topologies a whole region runs one view late); jumping
    ///   then would forfeit their votes every view and permanently
    ///   poison same-claim quorums. One view of lag self-heals through
    ///   the ordinary Sync flow, which the paper's own Lemma 3.7
    ///   machinery (Υ retransmission) already covers.
    /// * the jumper backfills `claim(∅)` only for the *strictly skipped*
    ///   views and enters **Recording** of the target, keeping its right
    ///   to vote there. Entering Syncing with a pre-broadcast ∅ claim
    ///   (the figure's literal reading) would make every catch-up
    ///   subtract a vote from the very view the replica is joining.
    fn maybe_jump(
        &mut self,
        sh: &Shared<'_>,
        out: &mut Outbox<'_, '_>,
        pick: &mut dyn FnMut(SimTime) -> Option<ClientBatch>,
    ) {
        // Largest w such that ≥ f+1 replicas were seen at views ≥ w.
        let mut views: Vec<View> = self
            .highest_view_of
            .iter()
            .copied()
            .filter(|&v| v > self.view)
            .collect();
        if (views.len() as u32) < sh.weak() {
            return;
        }
        views.sort_unstable_by(|a, b| b.cmp(a));
        let target = views[(sh.weak() - 1) as usize];
        if target.0 < self.view.0 + 2 {
            return; // ≤ 1 view behind: catch up through normal Syncs
        }
        // Backfill Sync(u, claim(∅), CP, Υ) for the skipped views so
        // others can help us recover (bounded; see JUMP_BACKFILL).
        let lo = self.view.0.max(target.0.saturating_sub(JUMP_BACKFILL - 1));
        for u in lo..target.0 {
            let u = View(u);
            if self.own_syncs.contains_key(&u) {
                continue;
            }
            let cp = self.cp_list();
            let cp_sigs = cp.iter().map(|&e| self.own_sig(e, out)).collect();
            let msg = SyncMsg {
                instance: self.id,
                view: u,
                claim: None,
                cp,
                upsilon: true,
                claim_sig: Signature::ZERO,
                cp_sigs,
            };
            self.own_syncs.insert(u, msg.clone());
            out.broadcast(Message::Sync(msg));
        }
        // Join the target view with full voting rights.
        self.enter_view(target, sh, out, pick);
    }

    /// Phase transitions that depend on accumulated `Sync`s.
    fn maybe_progress(
        &mut self,
        sh: &Shared<'_>,
        out: &mut Outbox<'_, '_>,
        pick: &mut dyn FnMut(SimTime) -> Option<ClientBatch>,
    ) {
        loop {
            match self.phase {
                Phase::Recording => {
                    self.maybe_vote(sh, out);
                    if self.phase == Phase::Recording {
                        return;
                    }
                }
                Phase::Syncing => {
                    let enough = self
                        .syncs
                        .get(&self.view)
                        .is_some_and(|vs| vs.senders.len() >= sh.quorum());
                    if !enough {
                        return;
                    }
                    self.observe_round(
                        out.now().since(self.phase_started),
                        sh.cfg.recording_timeout,
                    );
                    self.phase = Phase::Certifying;
                    self.phase_started = out.now();
                    out.timer(
                        TimerId::new(TimerKind::Certifying, self.id, self.view),
                        self.t_a,
                    );
                }
                Phase::Certifying => {
                    let certified = self
                        .syncs
                        .get(&self.view)
                        .is_some_and(|vs| vs.claims.values().any(|set| set.len() >= sh.quorum()));
                    if !certified {
                        return;
                    }
                    // §3.5 halving on a fast certification.
                    if out.now().since(self.phase_started) < self.t_a.halved() {
                        let halved = self.t_a.halved();
                        let floor = self.timer_floor();
                        self.t_a = if halved > floor { halved } else { floor };
                    }
                    let next = self.view.next();
                    self.enter_view(next, sh, out, pick);
                    return;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Conditional prepare / commit machinery (§3.3)
    // ------------------------------------------------------------------

    fn conditionally_prepare(&mut self, r: ProposalRef, sh: &Shared<'_>, out: &mut Outbox<'_, '_>) {
        if r.view < self.gc_floor {
            return;
        }
        match self.prepared.get(&r.view) {
            Some(existing) if *existing == r.digest => return,
            Some(_) => {
                // Two conflicting prepares in one view would contradict
                // Theorem 3.2; with ≤ f faults this cannot happen.
                debug_assert!(false, "conflicting conditional prepare in {:?}", r.view);
                return;
            }
            None => {}
        }
        self.prepared.insert(r.view, r.digest);
        self.prepared_set.insert(r.digest);
        if self.proposals.contains_key(&r.digest) {
            self.after_prepared_with_body(r, sh, out);
        } else {
            self.ensure_body(r, out);
            self.pending_body.insert(r);
        }
    }

    /// Steps that need the prepared proposal's body: conditional commit
    /// of the parent (locking) and the three-chain commit rule.
    fn after_prepared_with_body(
        &mut self,
        r: ProposalRef,
        sh: &Shared<'_>,
        out: &mut Outbox<'_, '_>,
    ) {
        let Some(body) = self.proposals.get(&r.digest).cloned() else {
            return;
        };
        if let Some(parent) = body.parent() {
            // Definition 3.3: preparing a child conditionally commits the
            // parent; the lock is the highest conditionally committed.
            if self.lock.is_none_or(|l| parent.view > l.view) {
                self.lock = Some(parent);
            }
        }
        self.try_commit_from(r, sh, out);
    }

    /// The signer identities this replica holds certifying that `r` was
    /// accepted: the same-claim `Sync` quorum of `r`'s own view merged
    /// with `r`'s `CP`-set endorsers. Returns `None` below the weak
    /// quorum — sub-`f + 1` evidence proves nothing (every member could
    /// be faulty) and must not be persisted as a certificate.
    fn signer_evidence(&self, r: ProposalRef, sh: &Shared<'_>) -> Option<CommitCertificate> {
        let mut set = ReplicaSet::new(sh.n());
        if let Some(claimants) = self
            .syncs
            .get(&r.view)
            .and_then(|vs| vs.claims.get(&Some(r)))
        {
            for id in claimants.iter() {
                set.insert(id);
            }
        }
        if let Some(endorsers) = self.cp_endorsers.get(&r) {
            for id in endorsers.iter() {
                set.insert(id);
            }
        }
        if set.len() < sh.weak() {
            return None;
        }
        // Pair each counted voter with its retained signature. Every
        // counted voter passed `verify_vote` when its Sync arrived, so a
        // signature is on file; skip (rather than fabricate) any hole so
        // the certificate stays third-party-checkable.
        let sigs_of = self.vote_sigs.get(&r);
        let mut signers = Vec::with_capacity(set.len() as usize);
        let mut sigs = Vec::with_capacity(set.len() as usize);
        for id in set.iter() {
            let Some(sig) = sigs_of.and_then(|m| m.get(&id)) else {
                continue;
            };
            signers.push(id);
            sigs.push(*sig);
        }
        if (signers.len() as u32) < sh.weak() {
            return None;
        }
        let phase = if signers.len() as u32 >= sh.quorum() {
            CertPhase::Strong
        } else {
            CertPhase::Weak
        };
        Some(CommitCertificate {
            view: r.view,
            phase,
            voted: r.digest,
            slot: 0,
            signers,
            sigs,
        })
    }

    /// Commit rule: prepared `X@u` with parent `Y@u−1` whose parent is
    /// `Z@u−2` commits `Z` (three consecutive views, Definition 3.3).
    fn try_commit_from(&mut self, x: ProposalRef, sh: &Shared<'_>, out: &mut Outbox<'_, '_>) {
        let Some(xb) = self.proposals.get(&x.digest).cloned() else {
            return;
        };
        let Some(y) = xb.parent() else {
            return;
        };
        if y.view.next() != x.view {
            return;
        }
        let Some(yb) = self.proposals.get(&y.digest).cloned() else {
            self.ensure_body(y, out);
            return;
        };
        let Some(z) = yb.parent() else {
            return;
        };
        if z.view.next() != y.view {
            return;
        }
        // Fallback certificate for proposals whose own view's evidence
        // this replica never saw (bodies fetched via Ask after a jump):
        // the prepare evidence of the descendant whose three-chain
        // triggers this commit. The commit is transitive — the chain
        // from `x` reaches them — so `x`'s certifying quorum vouches
        // for the whole chain.
        let fallback = self
            .signer_evidence(x, sh)
            .or_else(|| self.signer_evidence(y, sh));
        self.commit_chain(z, fallback, sh, out);
    }

    /// Commits `z` and all its uncommitted ancestors, oldest first,
    /// attaching to each its own signer evidence where held and the
    /// nearest certified descendant's otherwise.
    fn commit_chain(
        &mut self,
        z: ProposalRef,
        fallback: Option<CommitCertificate>,
        sh: &Shared<'_>,
        out: &mut Outbox<'_, '_>,
    ) {
        let mut chain = Vec::new();
        let mut cur = Some(z);
        while let Some(r) = cur {
            if self.committed.contains(&r.digest) {
                break;
            }
            let Some(body) = self.proposals.get(&r.digest).cloned() else {
                if r.view.0 + GC_WINDOW < self.view.0 {
                    // The missing body is older than the cluster-wide GC
                    // horizon: no replica can still serve it, so an Ask
                    // would retry forever. Adopt it as a checkpoint base:
                    // ordering resumes above it; the skipped prefix's
                    // execution state would come from a snapshot transfer
                    // in a full deployment (standard checkpointing, which
                    // the paper leaves to the fabric — DESIGN.md §7.5).
                    self.committed.insert(r.digest);
                    break;
                }
                // Otherwise fetch it and retry when it arrives
                // (record_proposal → rescan_commits).
                self.ensure_body(r, out);
                return;
            };
            cur = body.parent();
            chain.push(body);
        }
        if chain.is_empty() {
            return;
        }
        // Newest-first walk: each element uses its own evidence when this
        // replica holds it, inheriting the nearest certified descendant's
        // certificate otherwise (starting from the commit-triggering
        // prepare's evidence). An entirely evidence-free commit cannot
        // happen on an honest path — every prepare route leaves at least
        // a weak quorum of identities — but if it ever does, the empty
        // certificate is passed through and the runtime's ledger
        // verification refuses to persist the block (fail closed, never
        // fabricate signers).
        let mut certs: Vec<CommitCertificate> = Vec::with_capacity(chain.len());
        let mut last = fallback;
        for body in &chain {
            let own = self.signer_evidence(body.reference(), sh);
            let cert = own.or_else(|| last.clone()).unwrap_or_else(|| {
                debug_assert!(false, "commit without any signer evidence");
                CommitCertificate::weak(body.view, body.digest, Vec::new(), Vec::new())
            });
            last = Some(cert.clone());
            certs.push(cert);
        }
        for (body, cert) in chain.into_iter().zip(certs).rev() {
            self.committed.insert(body.digest);
            out.committed.push((body, cert));
        }
        if self.committed_head.is_none_or(|h| z.view > h.view) {
            self.committed_head = Some(z);
        }
        self.gc();
    }

    /// Re-checks the commit rule for prepared proposals near the head —
    /// called when a missing body arrives.
    fn rescan_commits(&mut self, sh: &Shared<'_>, out: &mut Outbox<'_, '_>) {
        let from = self.committed_head.map(|h| h.view).unwrap_or(View::ZERO);
        let candidates: Vec<ProposalRef> = self
            .prepared
            .range(from..)
            .map(|(&view, &digest)| ProposalRef { view, digest })
            .collect();
        for r in candidates {
            if self.proposals.contains_key(&r.digest) {
                self.try_commit_from(r, sh, out);
            }
        }
    }

    // ------------------------------------------------------------------
    // Ask / Forward body recovery (§3.3)
    // ------------------------------------------------------------------

    fn ensure_body(&mut self, r: ProposalRef, out: &mut Outbox<'_, '_>) {
        if self.proposals.contains_key(&r.digest) {
            return;
        }
        self.send_asks(r, out);
    }

    fn send_asks(&mut self, r: ProposalRef, out: &mut Outbox<'_, '_>) {
        let n = self.highest_view_of.len() as u32;
        let retry = *self.asked.get(&r).unwrap_or(&0);
        // Prefer replicas that claimed the proposal, then CP endorsers.
        let mut holders: Vec<ReplicaId> = self
            .syncs
            .get(&r.view)
            .and_then(|vs| vs.claims.get(&Some(r)))
            .map(|set| set.iter().collect())
            .unwrap_or_default();
        if holders.is_empty() {
            if let Some(endorsers) = self.cp_endorsers.get(&r) {
                holders = endorsers.iter().collect();
            }
        }
        if holders.is_empty() {
            // No claimant or endorser recorded (e.g. the proposal was
            // prepared through a certificate embedded in a child): fall
            // back to the proposal's own primary plus a rotating pick —
            // Lemma 3.4 guarantees f+1 non-faulty replicas hold the body,
            // and the Retransmit loop rotates through candidates.
            let retry = *self.asked.get(&r).unwrap_or(&0);
            let primary = ReplicaId(((u64::from(self.id.0) + r.view.0) % u64::from(n)) as u32);
            holders.push(primary);
            holders.push(ReplicaId((primary.0 + 1 + retry) % n));
        }
        for k in 0..ASK_FANOUT.min(holders.len()) {
            let target = holders[(retry as usize + k) % holders.len()];
            out.send(
                target,
                Message::Ask {
                    instance: self.id,
                    target: r,
                },
            );
        }
        self.asked.insert(r, retry.wrapping_add(1));
    }

    fn on_ask(&mut self, from: ReplicaId, target: ProposalRef, out: &mut Outbox<'_, '_>) {
        if let Some(p) = self.proposals.get(&target.digest) {
            out.send(from, Message::Forward(p.clone()));
        }
    }

    fn on_forward(
        &mut self,
        p: Arc<Proposal>,
        sh: &Shared<'_>,
        out: &mut Outbox<'_, '_>,
        pick: &mut dyn FnMut(SimTime) -> Option<ClientBatch>,
    ) {
        if p.instance != self.id {
            return;
        }
        if self.record_proposal(p, sh, out) {
            self.maybe_vote(sh, out);
            self.maybe_progress(sh, out, pick);
        }
    }

    // ------------------------------------------------------------------
    // Garbage collection
    // ------------------------------------------------------------------

    fn gc(&mut self) {
        let Some(head) = self.committed_head else {
            return;
        };
        let floor = View(head.view.0.saturating_sub(GC_WINDOW));
        if floor <= self.gc_floor {
            return;
        }
        self.gc_floor = floor;
        self.syncs = self.syncs.split_off(&floor);
        self.own_syncs = self.own_syncs.split_off(&floor);
        let dead = std::mem::take(&mut self.by_view);
        let mut keep = dead;
        let drop_views: Vec<View> = keep.range(..floor).map(|(&v, _)| v).collect();
        for v in drop_views {
            if let Some(digests) = keep.remove(&v) {
                for d in digests {
                    self.proposals.remove(&d);
                    self.committed.remove(&d);
                    self.prepared_set.remove(&d);
                }
            }
        }
        self.by_view = keep;
        self.prepared = self.prepared.split_off(&floor);
        self.cp_endorsers.retain(|r, _| r.view >= floor);
        self.vote_sigs.retain(|r, _| r.view >= floor);
        self.own_sigs.retain(|r, _| r.view >= floor);
        self.pending_body.retain(|r| r.view >= floor);
        self.asked.retain(|r, _| r.view >= floor);
    }
}

/// The A2 victim set: the first `f` non-faulty replicas.
fn dark_victims(sh: &Shared<'_>) -> Vec<ReplicaId> {
    let f = sh.cfg.f() as usize;
    (0..sh.n())
        .map(ReplicaId)
        .filter(|r| !sh.faulty.get(r.as_usize()).copied().unwrap_or(false) && *r != sh.me)
        .take(f)
        .collect()
}
