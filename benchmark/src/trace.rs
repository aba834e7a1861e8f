//! The outside-in layer trace: spans recorded from the benchmark's own
//! files around the calls into each layer, using only what the public
//! API allows — a [`Node`] wrapper around the protocol state machine and
//! a [`Fabric`] wrapper around the transport.
//!
//! * [`TracedNode`] times every `on_input` and hands the protocol a
//!   [`Context`] wrapper that counts and times `send` / `broadcast` /
//!   `commit` / `sign_vote` / `verify_vote`.
//! * [`TracedFabric`] times every `Fabric::send`.
//! * A message's three sightings — node emit, `Fabric::send`, the
//!   receiver's `on_input(Deliver)` — are matched **by per-(sender,
//!   receiver) sequence**: the egress and ingress stages promise FIFO
//!   per pair, so the k-th emit is the k-th send is the k-th delivery.
//!
//! Spans live in memory until the run ends; [`Tracer::write_spans`]
//! writes them out and [`Tracer::analyze`] folds them into the
//! per-layer numbers.

use crate::clock::now_ns;
use crate::stats::{mean, median};
use spotless_runtime::envelope::{payload_tag, TAG_PROTOCOL};
use spotless_runtime::{Envelope, Fabric};
use spotless_types::{
    BatchId, CommitInfo, Context, Input, Node, NodeId, ReplicaId, Signature, SimDuration, SimTime,
    TimerId, TimerKind, VoteStatement,
};
use std::collections::HashMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Parent index of a top-level span; also "not written" among file ids.
const NO_PARENT: u32 = u32::MAX;
/// Envelopes, messages and committed batches the replay step measures
/// on; the traced run keeps exactly that many of each.
pub const SAMPLE: usize = 256;
/// A `verify_vote` call shorter than this was answered from the
/// runtime's verified-vote memo (a hash lookup; a real Ed25519
/// verification takes several times longer).
const MEMO_HIT_NS: u64 = 10_000;
/// Spans written to the trace file (the rest are counted, not written).
const SPAN_FILE_CAP: usize = 200_000;

/// What a span measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// `on_input(Start)`.
    Start,
    /// `on_input(Deliver)`; `arg` = sender.
    Deliver,
    /// `on_input(Timer)`; `arg` = timer kind (0 recording, 1 certifying,
    /// 2 retransmit, 3 other).
    Timer,
    /// `on_input(Request)`; `batch` = the client batch.
    Request,
    /// `ctx.send`; `arg` = destination replica (`u32::MAX` for clients).
    Send,
    /// `ctx.broadcast`.
    Broadcast,
    /// `ctx.commit`; `batch` = the decided batch (0 for a no-op), `arg`
    /// = instance, `aux` = view.
    Commit,
    /// `ctx.sign_vote`.
    SignVote,
    /// `ctx.verify_vote`.
    VerifyVote,
}

impl SpanKind {
    fn name(self) -> &'static str {
        match self {
            SpanKind::Start => "core.on_input.start",
            SpanKind::Deliver => "core.on_input.deliver",
            SpanKind::Timer => "core.on_input.timer",
            SpanKind::Request => "core.on_input.request",
            SpanKind::Send => "ctx.send",
            SpanKind::Broadcast => "ctx.broadcast",
            SpanKind::Commit => "ctx.commit",
            SpanKind::SignVote => "crypto.sign_vote",
            SpanKind::VerifyVote => "crypto.verify_vote",
        }
    }

    fn is_input(self) -> bool {
        matches!(
            self,
            SpanKind::Start | SpanKind::Deliver | SpanKind::Timer | SpanKind::Request
        )
    }
}

/// One recorded span. `parent` indexes the same replica's span list.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// What was measured.
    pub kind: SpanKind,
    /// Benchmark-clock start.
    pub start_ns: u64,
    /// Benchmark-clock end.
    pub end_ns: u64,
    /// Index of the enclosing `on_input` span, or [`NO_PARENT`].
    pub parent: u32,
    /// Batch id the span belongs to, 0 if none.
    pub batch: u64,
    /// Kind-specific (see [`SpanKind`]).
    pub arg: u32,
    /// Kind-specific; for inputs, the number of effects emitted.
    pub aux: u64,
}

/// One timed `Fabric::send` of a protocol envelope.
#[derive(Clone, Copy, Debug)]
pub struct FabricSend {
    /// Destination replica.
    pub to: u32,
    /// Benchmark-clock start of the call.
    pub start_ns: u64,
    /// Benchmark-clock end of the call.
    pub end_ns: u64,
}

/// Lets the node wrapper tag `Deliver` spans with the batch a message
/// carries, without knowing the protocol.
pub trait MsgProbe {
    /// The client batch this message carries, if it carries one.
    fn batch_id(&self) -> Option<BatchId>;
}

impl MsgProbe for spotless_core::Message {
    fn batch_id(&self) -> Option<BatchId> {
        match self {
            spotless_core::Message::Propose(p) | spotless_core::Message::Forward(p) => {
                (!p.batch.is_noop()).then_some(p.batch.id)
            }
            _ => None,
        }
    }
}

/// The run's span store, shared by every wrapper.
pub struct Tracer {
    n: u32,
    nodes: Vec<Mutex<Vec<Span>>>,
    fabric: Vec<Mutex<Vec<FabricSend>>>,
    sampling: AtomicBool,
    envelopes: Mutex<Vec<Envelope>>,
}

impl Tracer {
    /// A tracer for an `n`-replica cluster.
    pub fn new(n: u32) -> Arc<Tracer> {
        Arc::new(Tracer {
            n,
            nodes: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
            fabric: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
            sampling: AtomicBool::new(false),
            envelopes: Mutex::new(Vec::new()),
        })
    }

    /// Starts keeping envelope and message samples for the replay step
    /// (called when the window opens, so samples have the window's shape).
    pub fn start_sampling(&self) {
        self.sampling.store(true, Ordering::Relaxed);
    }

    /// The sampled envelopes.
    pub fn take_envelopes(&self) -> Vec<Envelope> {
        std::mem::take(&mut self.envelopes.lock().expect("sample lock"))
    }
}

/// Times the protocol node and its effects. See the module docs.
pub struct TracedNode<N: Node> {
    inner: N,
    me: u32,
    tracer: Arc<Tracer>,
    scratch: Vec<Span>,
    samples: Arc<Mutex<Vec<N::Message>>>,
    sampled: usize,
}

impl<N: Node> TracedNode<N> {
    /// Wraps `inner`, replica `me`; broadcast messages are sampled into
    /// `samples` once the tracer is sampling.
    pub fn new(
        inner: N,
        me: ReplicaId,
        tracer: Arc<Tracer>,
        samples: Arc<Mutex<Vec<N::Message>>>,
    ) -> TracedNode<N> {
        TracedNode {
            inner,
            me: me.0,
            tracer,
            scratch: Vec::new(),
            samples,
            sampled: 0,
        }
    }
}

fn timer_code(kind: TimerKind) -> u32 {
    match kind {
        TimerKind::Recording => 0,
        TimerKind::Certifying => 1,
        TimerKind::Retransmit => 2,
        _ => 3,
    }
}

fn replica_of(node: NodeId) -> u32 {
    match node {
        NodeId::Replica(r) => r.0,
        _ => u32::MAX,
    }
}

impl<N> Node for TracedNode<N>
where
    N: Node,
    N::Message: MsgProbe,
{
    type Message = N::Message;

    fn on_input(
        &mut self,
        input: Input<Self::Message>,
        ctx: &mut dyn Context<Message = Self::Message>,
    ) {
        let (kind, batch, arg) = match &input {
            Input::Start => (SpanKind::Start, 0, 0),
            Input::Deliver { from, msg } => (
                SpanKind::Deliver,
                msg.batch_id().map_or(0, |b| b.0),
                replica_of(*from),
            ),
            Input::Timer(id) => (SpanKind::Timer, 0, timer_code(id.kind)),
            Input::Request(b) => (SpanKind::Request, b.id.0, 0),
        };
        let sample = self.sampled < SAMPLE / self.tracer.n as usize
            && self.tracer.sampling.load(Ordering::Relaxed);
        let mut tctx = TracedCtx {
            inner: ctx,
            children: &mut self.scratch,
            effects: 0,
            samples: sample.then_some(&*self.samples),
            sampled: 0,
        };
        let start_ns = now_ns();
        self.inner.on_input(input, &mut tctx);
        let end_ns = now_ns();
        let effects = tctx.effects;
        self.sampled += tctx.sampled;
        let mut log = self.tracer.nodes[self.me as usize]
            .lock()
            .expect("span lock");
        let parent = log.len() as u32;
        log.push(Span {
            kind,
            start_ns,
            end_ns,
            parent: NO_PARENT,
            batch,
            arg,
            aux: effects,
        });
        for mut child in self.scratch.drain(..) {
            child.parent = parent;
            log.push(child);
        }
    }
}

struct TracedCtx<'a, M> {
    inner: &'a mut dyn Context<Message = M>,
    children: &'a mut Vec<Span>,
    effects: u64,
    samples: Option<&'a Mutex<Vec<M>>>,
    sampled: usize,
}

impl<M> TracedCtx<'_, M> {
    fn child(&mut self, kind: SpanKind, start_ns: u64, batch: u64, arg: u32, aux: u64) {
        self.children.push(Span {
            kind,
            start_ns,
            end_ns: now_ns(),
            parent: NO_PARENT,
            batch,
            arg,
            aux,
        });
    }
}

impl<M: Clone> Context for TracedCtx<'_, M> {
    type Message = M;

    fn now(&self) -> SimTime {
        self.inner.now()
    }
    fn id(&self) -> NodeId {
        self.inner.id()
    }
    fn send(&mut self, to: NodeId, msg: M) {
        self.effects += 1;
        let start = now_ns();
        self.inner.send(to, msg);
        self.child(SpanKind::Send, start, 0, replica_of(to), 0);
    }
    fn broadcast(&mut self, msg: M) {
        self.effects += 1;
        if let Some(samples) = self.samples {
            samples.lock().expect("sample lock").push(msg.clone());
            self.sampled += 1;
        }
        let start = now_ns();
        self.inner.broadcast(msg);
        self.child(SpanKind::Broadcast, start, 0, 0, 0);
    }
    fn set_timer(&mut self, id: TimerId, after: SimDuration) {
        self.effects += 1;
        self.inner.set_timer(id, after);
    }
    fn commit(&mut self, info: CommitInfo) {
        self.effects += 1;
        let batch = if info.batch.is_noop() {
            0
        } else {
            info.batch.id.0
        };
        let (instance, view) = (info.instance.0, info.view.0);
        let start = now_ns();
        self.inner.commit(info);
        self.child(SpanKind::Commit, start, batch, instance, view);
    }
    fn sign_vote(&mut self, statement: &VoteStatement) -> Signature {
        let start = now_ns();
        let sig = self.inner.sign_vote(statement);
        self.child(SpanKind::SignVote, start, 0, 0, 0);
        sig
    }
    fn verify_vote(
        &mut self,
        signer: ReplicaId,
        statement: &VoteStatement,
        sig: &Signature,
    ) -> bool {
        let start = now_ns();
        let ok = self.inner.verify_vote(signer, statement, sig);
        self.child(SpanKind::VerifyVote, start, 0, signer.0, 0);
        ok
    }
}

/// Times every `Fabric::send` of replica `me`'s fabric.
#[derive(Clone)]
pub struct TracedFabric<F: Fabric> {
    inner: F,
    me: u32,
    tracer: Arc<Tracer>,
}

impl<F: Fabric> TracedFabric<F> {
    /// Wraps replica `me`'s fabric.
    pub fn new(inner: F, me: ReplicaId, tracer: Arc<Tracer>) -> TracedFabric<F> {
        TracedFabric {
            inner,
            me: me.0,
            tracer,
        }
    }
}

impl<F: Fabric> Fabric for TracedFabric<F> {
    fn send(&self, to: ReplicaId, env: Envelope) {
        // Only protocol envelopes are node emits; catch-up and transfer
        // traffic leaves through the same fabric but has no emit span
        // to match, so it passes through unrecorded.
        if payload_tag(&env.payload) != Some(TAG_PROTOCOL) {
            return self.inner.send(to, env);
        }
        if self.tracer.sampling.load(Ordering::Relaxed) {
            let mut kept = self.tracer.envelopes.lock().expect("sample lock");
            if kept.len() < SAMPLE {
                kept.push(env.clone());
            }
        }
        let start_ns = now_ns();
        self.inner.send(to, env);
        let end_ns = now_ns();
        self.tracer.fabric[self.me as usize]
            .lock()
            .expect("span lock")
            .push(FabricSend {
                to: to.0,
                start_ns,
                end_ns,
            });
    }
}

/// What the driver saw, joined against the spans by batch id.
pub struct DriverLog {
    /// Window start (benchmark clock).
    pub start_ns: u64,
    /// Window end.
    pub end_ns: u64,
    /// Batches confirmed inside the window.
    pub batches: u64,
    /// `batch id -> (submit time, target replica)`.
    pub submits: HashMap<u64, (u64, u32)>,
    /// Every inform: `(batch id, replica, arrival time)`.
    pub informs: Vec<(u64, u32, u64)>,
    /// `(first matching inform, f + 1-th matching inform)` per batch
    /// confirmed inside the window.
    pub confirmations: Vec<(u64, u64)>,
}

/// The per-layer numbers the live trace yields (replay adds the rest).
#[derive(Debug, Default)]
pub struct LiveTrace {
    pub on_input_us_per_batch: f64,
    pub inputs_per_batch: f64,
    pub msgs_out_per_batch: f64,
    pub noop_commit_share: f64,
    pub views_per_s: f64,
    pub timeouts_per_s: f64,
    pub request_to_commit_ms_p50: f64,
    pub vote_sign_us_per_batch: f64,
    pub vote_verify_us_per_batch: f64,
    pub sig_ops_per_batch: f64,
    pub submit_to_request_ms_p50: f64,
    pub egress_ms_p50: f64,
    pub ingress_ms_p50: f64,
    pub pipeline_ms_p50: f64,
    pub inform_spread_ms_p50: f64,
    pub fabric_send_us: f64,
    /// Node emits in the window (one envelope signature each).
    pub emits: u64,
    /// Wire messages in the window (one envelope verification each).
    pub wire_msgs: u64,
    /// `on_input` self time in the window, all replicas, µs.
    pub core_self_us: f64,
    /// `sign_vote` calls in the window, all replicas.
    pub vote_signs: u64,
    /// `verify_vote` calls in the window that did a real verification
    /// (the runtime memoises verified votes; a memo hit returns in well
    /// under [`MEMO_HIT_NS`]).
    pub vote_verifications: u64,
    /// Non-no-op commits announced in the window, all replicas.
    pub commits: u64,
    /// Messages whose three sightings did not line up in time order —
    /// 0 unless an envelope was dropped between emit and delivery.
    pub match_violations: u64,
}

type PairSeries<T> = HashMap<(u32, u32), Vec<T>>;

/// Every message's three sightings per `(sender, receiver)`, each list
/// in sequence order: the k-th entries belong to one message.
#[derive(Default)]
struct Sightings {
    /// `(when the emitting on_input returned, its index at the sender)`.
    emits: PairSeries<(u64, u32)>,
    /// `(the fabric call, its index in the sender's fabric log)`.
    sends: PairSeries<(FabricSend, u32)>,
    /// `(when the receiver's on_input(Deliver) began, its index there)`.
    delivers: PairSeries<(u64, u32)>,
}

impl Tracer {
    /// Folds the spans inside the driver's window into [`LiveTrace`].
    pub fn analyze(&self, drv: &DriverLog) -> LiveTrace {
        let in_window = |t: u64| t >= drv.start_ns && t < drv.end_ns;
        let per_batch = |x: f64| x / drv.batches.max(1) as f64;
        let secs = (drv.end_ns - drv.start_ns) as f64 / 1e9;
        let mut out = LiveTrace::default();

        // (replica, batch) -> Request input time / commit time.
        let mut requests: HashMap<(u32, u64), u64> = HashMap::new();
        let mut commits: HashMap<(u32, u64), u64> = HashMap::new();
        let mut views: HashMap<(u32, u32), (u64, u64)> = HashMap::new();
        let (mut inputs, mut noops, mut all_commits) = (0u64, 0u64, 0u64);
        let (mut sign_ns, mut verify_ns, mut timeouts) = (0u64, 0u64, 0u64);
        let mut self_ns = 0u64;

        for r in 0..self.n {
            let log = self.nodes[r as usize].lock().expect("span lock");
            let mut i = 0;
            while i < log.len() {
                let input = log[i];
                debug_assert!(input.kind.is_input());
                let mut j = i + 1;
                while j < log.len() && log[j].parent == i as u32 {
                    j += 1;
                }
                let children = &log[i + 1..j];
                let counted = in_window(input.start_ns);
                for c in children {
                    match c.kind {
                        SpanKind::Send if counted && c.arg != r && c.arg < self.n => {
                            out.emits += 1;
                            out.wire_msgs += 1;
                        }
                        SpanKind::Broadcast if counted => {
                            out.emits += 1;
                            out.wire_msgs += u64::from(self.n - 1);
                        }
                        SpanKind::Commit => {
                            if c.batch != 0 {
                                commits.entry((r, c.batch)).or_insert(c.start_ns);
                            }
                            if counted {
                                all_commits += 1;
                                noops += u64::from(c.batch == 0);
                                out.commits += u64::from(c.batch != 0);
                                let v = views.entry((r, c.arg)).or_insert((c.aux, c.aux));
                                v.0 = v.0.min(c.aux);
                                v.1 = v.1.max(c.aux);
                            }
                        }
                        SpanKind::SignVote if counted => {
                            sign_ns += c.end_ns - c.start_ns;
                            out.vote_signs += 1;
                        }
                        SpanKind::VerifyVote if counted => {
                            verify_ns += c.end_ns - c.start_ns;
                            out.vote_verifications +=
                                u64::from(c.end_ns - c.start_ns >= MEMO_HIT_NS);
                        }
                        _ => {}
                    }
                }
                match input.kind {
                    SpanKind::Request => {
                        requests.entry((r, input.batch)).or_insert(input.start_ns);
                    }
                    SpanKind::Timer if counted && input.arg <= 1 && input.aux > 0 => {
                        // Timers are never cancelled, so most fires are
                        // stale and do nothing; one that produced
                        // effects is a real Recording/Certifying timeout.
                        timeouts += 1;
                    }
                    _ => {}
                }
                if counted {
                    inputs += 1;
                    let crypto: u64 = children
                        .iter()
                        .filter(|c| matches!(c.kind, SpanKind::SignVote | SpanKind::VerifyVote))
                        .map(|c| c.end_ns - c.start_ns)
                        .sum();
                    self_ns += (input.end_ns - input.start_ns).saturating_sub(crypto);
                }
                i = j;
            }
        }

        out.core_self_us = self_ns as f64 / 1e3;
        out.on_input_us_per_batch = per_batch(out.core_self_us);
        out.inputs_per_batch = per_batch(inputs as f64);
        out.msgs_out_per_batch = per_batch(out.wire_msgs as f64);
        out.noop_commit_share = noops as f64 / all_commits.max(1) as f64;
        out.timeouts_per_s = timeouts as f64 / secs;
        out.vote_sign_us_per_batch = per_batch(sign_ns as f64 / 1e3);
        out.vote_verify_us_per_batch = per_batch(verify_ns as f64 / 1e3);
        // One signature per emit, one verification per wire message,
        // plus the votes the protocol signs and really verifies itself.
        out.sig_ops_per_batch =
            per_batch((out.emits + out.wire_msgs + out.vote_signs + out.vote_verifications) as f64);
        // Views advanced per second, summed over instances, as seen by
        // the lowest-numbered replica that committed anything.
        if let Some(r) = (0..self.n).find(|r| views.keys().any(|(vr, _)| vr == r)) {
            let advanced: u64 = views
                .iter()
                .filter(|((vr, _), _)| *vr == r)
                .map(|(_, (lo, hi))| hi - lo)
                .sum();
            out.views_per_s = advanced as f64 / secs;
        }

        // Emit -> Fabric::send -> Deliver, matched by per-pair sequence.
        let seen = self.sightings();
        let (mut egress, mut ingress, mut fabric_ns) = (Vec::new(), Vec::new(), Vec::new());
        for (pair, sent) in &seen.sends {
            let emitted = seen.emits.get(pair).map_or(&[][..], Vec::as_slice);
            let delivered = seen.delivers.get(pair).map_or(&[][..], Vec::as_slice);
            for (k, (s, _)) in sent.iter().enumerate() {
                if !in_window(s.start_ns) {
                    continue;
                }
                fabric_ns.push((s.end_ns - s.start_ns) as f64);
                if let Some((e, _)) = emitted.get(k) {
                    match s.start_ns.checked_sub(*e) {
                        Some(d) => egress.push(d as f64 / 1e6),
                        None => out.match_violations += 1,
                    }
                }
                if let Some((d, _)) = delivered.get(k) {
                    match d.checked_sub(s.start_ns) {
                        Some(d) => ingress.push(d as f64 / 1e6),
                        None => out.match_violations += 1,
                    }
                }
            }
        }
        out.fabric_send_us = mean(&fabric_ns) / 1e3;
        out.egress_ms_p50 = median(&egress);
        out.ingress_ms_p50 = median(&ingress);

        // Per-batch joins against what the driver saw.
        let (mut s2r, mut r2c) = (Vec::new(), Vec::new());
        for (batch, (submit_ns, target)) in &drv.submits {
            let Some(req) = requests.get(&(*target, *batch)) else {
                continue;
            };
            if in_window(*submit_ns) {
                s2r.push(req.saturating_sub(*submit_ns) as f64 / 1e6);
            }
            if let Some(c) = commits.get(&(*target, *batch)) {
                if in_window(*c) {
                    r2c.push(c.saturating_sub(*req) as f64 / 1e6);
                }
            }
        }
        out.submit_to_request_ms_p50 = median(&s2r);
        out.request_to_commit_ms_p50 = median(&r2c);
        let pipeline: Vec<f64> = drv
            .informs
            .iter()
            .filter(|(_, _, at)| in_window(*at))
            .filter_map(|(batch, from, at)| {
                commits
                    .get(&(*from, *batch))
                    .map(|c| at.saturating_sub(*c) as f64 / 1e6)
            })
            .collect();
        out.pipeline_ms_p50 = median(&pipeline);
        let spread: Vec<f64> = drv
            .confirmations
            .iter()
            .map(|(first, last)| (last - first) as f64 / 1e6)
            .collect();
        out.inform_spread_ms_p50 = median(&spread);
        out
    }

    /// Every message's three sightings, per pair, in sequence order.
    fn sightings(&self) -> Sightings {
        let mut seen = Sightings::default();
        for r in 0..self.n {
            let log = self.nodes[r as usize].lock().expect("span lock");
            for (i, s) in log.iter().enumerate() {
                // All of one step's emits leave when `on_input` returns
                // (the runtime buffers effects), so they share its end
                // time — which also makes their order within the step
                // irrelevant to the per-pair sequence.
                let emitted_at = |parent: u32| (log[parent as usize].end_ns, parent);
                match s.kind {
                    SpanKind::Send if s.arg != r && s.arg < self.n => {
                        let at = emitted_at(s.parent);
                        seen.emits.entry((r, s.arg)).or_default().push(at);
                    }
                    SpanKind::Broadcast => {
                        for d in (0..self.n).filter(|d| *d != r) {
                            let at = emitted_at(s.parent);
                            seen.emits.entry((r, d)).or_default().push(at);
                        }
                    }
                    SpanKind::Deliver if s.arg != r && s.arg < self.n => {
                        let at = (s.start_ns, i as u32);
                        seen.delivers.entry((s.arg, r)).or_default().push(at);
                    }
                    _ => {}
                }
            }
            let sent = self.fabric[r as usize].lock().expect("span lock");
            for (j, s) in sent.iter().enumerate() {
                seen.sends
                    .entry((r, s.to))
                    .or_default()
                    .push((*s, j as u32));
            }
        }
        seen
    }

    /// Writes the spans recorded inside `[start_ns, end_ns)` as JSON:
    /// `{name, replica, start_ns, end_ns, parent, batch}` per span. A
    /// span's id is its position in the `spans` array; `parent` is the
    /// id of the span that caused it — the enclosing `on_input` for a
    /// context call, the emitting `on_input` for a fabric send, the
    /// fabric send for the receiver's `on_input(Deliver)`. When the
    /// window holds more than the file's cap, the file covers its first
    /// part, on every replica alike. Returns `(written, in window)`.
    pub fn write_spans(
        &self,
        path: &std::path::Path,
        workload: &str,
        start_ns: u64,
        end_ns: u64,
    ) -> std::io::Result<(usize, usize)> {
        let nodes: Vec<Vec<Span>> = (0..self.n as usize)
            .map(|r| self.nodes[r].lock().expect("span lock").clone())
            .collect();
        let fabric: Vec<Vec<FabricSend>> = (0..self.n as usize)
            .map(|r| self.fabric[r].lock().expect("span lock").clone())
            .collect();
        // A node span belongs to the time of its enclosing input.
        let input_start = |r: usize, i: usize| {
            let s = &nodes[r][i];
            if s.kind.is_input() {
                s.start_ns
            } else {
                nodes[r][s.parent as usize].start_ns
            }
        };
        let within = |t: u64, until: u64| t >= start_ns && t < until;
        let total = (0..nodes.len())
            .map(|r| {
                (0..nodes[r].len())
                    .filter(|i| within(input_start(r, *i), end_ns))
                    .count()
                    + fabric[r]
                        .iter()
                        .filter(|s| within(s.start_ns, end_ns))
                        .count()
            })
            .sum::<usize>();
        let until = if total > SPAN_FILE_CAP {
            start_ns + ((end_ns - start_ns) as u128 * SPAN_FILE_CAP as u128 / total as u128) as u64
        } else {
            end_ns
        };

        // Pass 1: ids, in writing order.
        let mut next = 0u32;
        let mut take = |keep: bool| {
            if keep {
                next += 1;
                next - 1
            } else {
                NO_PARENT
            }
        };
        let node_ids: Vec<Vec<u32>> = (0..nodes.len())
            .map(|r| {
                (0..nodes[r].len())
                    .map(|i| take(within(input_start(r, i), until)))
                    .collect()
            })
            .collect();
        let fabric_ids: Vec<Vec<u32>> = fabric
            .iter()
            .map(|log| {
                log.iter()
                    .map(|s| take(within(s.start_ns, until)))
                    .collect()
            })
            .collect();

        // Causes across layers, by per-pair sequence.
        let seen = self.sightings();
        let mut send_cause: HashMap<(u32, u32), u32> = HashMap::new();
        let mut deliver_cause: HashMap<(u32, u32), u32> = HashMap::new();
        for ((from, to), sent) in &seen.sends {
            let emitted = seen.emits.get(&(*from, *to));
            let delivered = seen.delivers.get(&(*from, *to));
            for (k, (_, j)) in sent.iter().enumerate() {
                if let Some((_, i)) = emitted.and_then(|e| e.get(k)) {
                    send_cause.insert((*from, *j), node_ids[*from as usize][*i as usize]);
                }
                if let Some((_, i)) = delivered.and_then(|d| d.get(k)) {
                    deliver_cause.insert((*to, *i), fabric_ids[*from as usize][*j as usize]);
                }
            }
        }

        // Pass 2: write.
        let id_or_null = |id: Option<u32>| match id {
            Some(id) if id != NO_PARENT => id.to_string(),
            _ => "null".to_string(),
        };
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"workload\":\"{workload}\",\"clock\":\"ns since benchmark start\",\
             \"window_ns\":[{start_ns},{end_ns}],\"covers_ns\":[{start_ns},{until}],\"spans\":["
        )?;
        let mut written = 0usize;
        for (r, log) in nodes.iter().enumerate() {
            for (i, s) in log.iter().enumerate() {
                if node_ids[r][i] == NO_PARENT {
                    continue;
                }
                let parent = if s.kind.is_input() {
                    id_or_null(deliver_cause.get(&(r as u32, i as u32)).copied())
                } else {
                    id_or_null(Some(node_ids[r][s.parent as usize]))
                };
                let batch = if s.batch == 0 {
                    "null".to_string()
                } else {
                    s.batch.to_string()
                };
                let sep = if written > 0 { "," } else { "" };
                write!(
                    out,
                    "{sep}\n{{\"name\":\"{}\",\"replica\":{r},\"start_ns\":{},\"end_ns\":{},\
                     \"parent\":{parent},\"batch\":{batch}}}",
                    s.kind.name(),
                    s.start_ns,
                    s.end_ns
                )?;
                written += 1;
            }
        }
        for (r, log) in fabric.iter().enumerate() {
            for (j, s) in log.iter().enumerate() {
                if fabric_ids[r][j] == NO_PARENT {
                    continue;
                }
                let parent = id_or_null(send_cause.get(&(r as u32, j as u32)).copied());
                let sep = if written > 0 { "," } else { "" };
                write!(
                    out,
                    "{sep}\n{{\"name\":\"transport.fabric_send\",\"replica\":{r},\"to\":{},\
                     \"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"batch\":null}}",
                    s.to, s.start_ns, s.end_ns
                )?;
                written += 1;
            }
        }
        write!(
            out,
            "\n],\"spans_written\":{written},\"spans_in_window\":{total}}}\n"
        )?;
        out.flush()?;
        Ok((written, total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotless_types::{ClientBatch, InstanceId, View};

    /// Broadcasts once per request and commits what it is told to.
    struct Echo;

    #[derive(Clone)]
    struct Ping;
    impl MsgProbe for Ping {
        fn batch_id(&self) -> Option<BatchId> {
            None
        }
    }
    impl spotless_types::node::ProtocolMessage for Ping {
        fn wire_size(&self, _: &spotless_types::SizeModel) -> u64 {
            0
        }
        fn verify_cost(&self, _: &spotless_types::CryptoCosts) -> u64 {
            0
        }
        fn sign_cost(&self, _: &spotless_types::CryptoCosts) -> u64 {
            0
        }
    }

    impl Node for Echo {
        type Message = Ping;
        fn on_input(&mut self, input: Input<Ping>, ctx: &mut dyn Context<Message = Ping>) {
            if let Input::Request(batch) = input {
                ctx.broadcast(Ping);
                ctx.sign_vote(&VoteStatement::new(
                    InstanceId(0),
                    View(1),
                    spotless_types::Digest::ZERO,
                ));
                ctx.commit(CommitInfo {
                    instance: InstanceId(0),
                    view: View(1),
                    depth: 1,
                    batch,
                    cert: spotless_types::CommitCertificate::strong(
                        View(1),
                        spotless_types::Digest::ZERO,
                        vec![],
                        vec![],
                    ),
                });
            }
        }
    }

    #[derive(Default)]
    struct Sink {
        broadcasts: usize,
        commits: usize,
    }
    impl Context for Sink {
        type Message = Ping;
        fn now(&self) -> SimTime {
            SimTime::ZERO
        }
        fn id(&self) -> NodeId {
            NodeId::Replica(ReplicaId(0))
        }
        fn send(&mut self, _: NodeId, _: Ping) {}
        fn broadcast(&mut self, _: Ping) {
            self.broadcasts += 1;
        }
        fn set_timer(&mut self, _: TimerId, _: SimDuration) {}
        fn commit(&mut self, _: CommitInfo) {
            self.commits += 1;
        }
    }

    #[test]
    fn node_wrapper_forwards_effects_and_records_parented_spans() {
        let tracer = Tracer::new(4);
        let mut node = TracedNode::new(Echo, ReplicaId(0), tracer.clone(), Arc::default());
        let mut sink = Sink::default();
        let batch = ClientBatch {
            id: BatchId(9),
            ..ClientBatch::noop(SimTime::ZERO)
        };
        let before = now_ns();
        node.on_input(Input::Request(batch), &mut sink);
        node.on_input(Input::Start, &mut sink);
        assert_eq!((sink.broadcasts, sink.commits), (1, 1));
        let log = tracer.nodes[0].lock().unwrap().clone();
        let kinds: Vec<SpanKind> = log.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![
                SpanKind::Request,
                SpanKind::Broadcast,
                SpanKind::SignVote,
                SpanKind::Commit,
                SpanKind::Start
            ]
        );
        assert_eq!((log[0].parent, log[0].batch, log[0].aux), (NO_PARENT, 9, 2));
        assert!(log[1..4].iter().all(|c| c.parent == 0));
        assert_eq!((log[3].batch, log[3].aux), (9, 1));
        assert!(log[0].start_ns >= before && log[0].end_ns >= log[3].end_ns);

        // One broadcast = three wire messages, one commit, one vote op.
        let drv = DriverLog {
            start_ns: before,
            end_ns: now_ns() + 1,
            batches: 1,
            submits: HashMap::from([(9, (before, 0))]),
            informs: vec![(9, 0, now_ns())],
            confirmations: vec![],
        };
        let live = tracer.analyze(&drv);
        assert_eq!((live.emits, live.wire_msgs, live.commits), (1, 3, 1));
        assert_eq!(live.inputs_per_batch, 2.0);
        assert_eq!((live.vote_signs, live.sig_ops_per_batch), (1, 5.0));
        assert_eq!(live.noop_commit_share, 0.0);
        assert_eq!(live.match_violations, 0);
    }

    #[derive(Clone)]
    struct NullFabric;
    impl Fabric for NullFabric {
        fn send(&self, _: ReplicaId, _: Envelope) {}
    }

    #[test]
    fn sightings_match_by_pair_sequence_and_the_file_links_causes() {
        let tracer = Tracer::new(4);
        let mut sender = TracedNode::new(Echo, ReplicaId(0), tracer.clone(), Arc::default());
        let mut receiver = TracedNode::new(Echo, ReplicaId(1), tracer.clone(), Arc::default());
        let fabric = TracedFabric::new(NullFabric, ReplicaId(0), tracer.clone());
        let keys = spotless_crypto::KeyStore::cluster(b"trace-test", 4);
        let ask = spotless_core::Message::Ask {
            instance: InstanceId(0),
            target: spotless_core::ProposalRef {
                view: View(1),
                digest: spotless_types::Digest::ZERO,
            },
        };
        let envelope =
            || Envelope::seal(&keys[0], spotless_runtime::envelope::encode_protocol(&ask));
        let mut sink = Sink::default();
        let start = now_ns();
        // Replica 0 broadcasts twice; the fabric carries both to replica
        // 1 (and, unrecorded, a transfer payload); replica 1 takes them.
        for id in [7, 8] {
            let batch = ClientBatch {
                id: BatchId(id),
                ..ClientBatch::noop(SimTime::ZERO)
            };
            sender.on_input(Input::Request(batch), &mut sink);
            fabric.send(ReplicaId(1), envelope());
        }
        fabric.send(
            ReplicaId(1),
            Envelope::seal(&keys[0], spotless_runtime::envelope::encode_catchup_req(0)),
        );
        for _ in 0..2 {
            let from = NodeId::Replica(ReplicaId(0));
            receiver.on_input(Input::Deliver { from, msg: Ping }, &mut sink);
        }
        let end = now_ns() + 1;

        assert_eq!(
            tracer.fabric[0].lock().unwrap().len(),
            2,
            "protocol envelopes only"
        );
        let seen = tracer.sightings();
        let pair = (0, 1);
        assert_eq!(seen.emits[&pair].len(), 2);
        for k in 0..2 {
            let (emit, send, deliver) = (
                seen.emits[&pair][k],
                seen.sends[&pair][k],
                seen.delivers[&pair][k],
            );
            assert!(emit.0 <= send.0.start_ns && send.0.end_ns <= deliver.0);
        }

        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spans.json");
        let (written, total) = tracer.write_spans(&path, "test", start, end).unwrap();
        assert_eq!((written, total), (12, 12)); // 2 x (request + 3 children), 2 delivers, 2 sends
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let doc: serde::Value = serde_json::from_str(&text).expect("valid JSON");
        let spans = doc.get("spans").and_then(|s| s.as_array()).unwrap();
        let name = |i: usize| spans[i].get("name").and_then(|n| n.as_str()).unwrap();
        let parent = |i: usize| spans[i].get("parent").and_then(|p| p.as_u64());
        // Ids: 0-3 first request and children, 4-7 second, 8-9 delivers,
        // 10-11 fabric sends.
        assert_eq!((name(0), parent(0)), ("core.on_input.request", None));
        assert_eq!((name(1), parent(1)), ("ctx.broadcast", Some(0)));
        assert_eq!((name(10), parent(10)), ("transport.fabric_send", Some(0)));
        assert_eq!((name(11), parent(11)), ("transport.fabric_send", Some(4)));
        assert_eq!((name(8), parent(8)), ("core.on_input.deliver", Some(10)));
        assert_eq!((name(9), parent(9)), ("core.on_input.deliver", Some(11)));
        assert_eq!(spans[0].get("batch").and_then(|b| b.as_u64()), Some(7));
    }
}
