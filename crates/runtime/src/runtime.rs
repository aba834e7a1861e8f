//! The replica runtime: one event loop per replica driving any sans-IO
//! protocol [`Node`] over any [`Fabric`].
//!
//! The loop is deliberately a pipeline, not a straight line:
//!
//! * **ordering** runs on the event-loop task (the protocol state
//!   machine steps on deliveries, timers, and client requests);
//! * **durability + execution + replies** run on the commit worker
//!   (`crate::pipeline`), fed through a bounded queue — consensus
//!   never waits for an fsync, and execution of slot `k` overlaps with
//!   ordering of slot `k + j`;
//! * **inbound signatures** — each envelope's and each vote its message
//!   carries — are verified in one batch by the ingress task, which
//!   also decodes the message, before it reaches the loop
//!   (`crate::ingress`);
//! * **outbound traffic** is serialized once per message on the loop,
//!   then signed and fanned out by the egress lane (`crate::egress`);
//!   broadcast fan-out shares the bytes via `Arc` (see
//!   [`crate::envelope`]).
//!
//! Restart story: give the runtime the same storage directory it had
//! before the crash and it recovers the hash-chained ledger from the
//! segmented log, the KV state from the newest snapshot, and then runs
//! the two-mode state-transfer exchange against its peers — block
//! replay while some peer retains the missing range, a chunked
//! snapshot transfer (manifest + per-chunk Merkle verification against
//! the head block's `state_root`, resumable from the install journal)
//! once every peer has pruned or restarted past it — until it rejoins
//! the cluster's head. Crucially,
//! a recovering replica is **held out of consensus** the whole time:
//! the protocol node is not even started (no votes, no proposals, no
//! request intake) until a weak quorum of peers confirms the replica
//! stands at their heads, so the commit pipeline cannot accumulate a
//! live-commit buffer that grows with catch-up duration. See
//! `tests/transport_e2e.rs` (facade crate) for the end-to-end
//! crash–restart and pruned-history recovery proofs.

use crate::egress::{Egress, Fanout};
use crate::envelope::{encode_protocol_into, Envelope, Payload};
use crate::fabric::{Fabric, MeteredFabric};
use crate::observe::{CommitLog, Inform, NetStats, SnapshotStats};
use crate::pipeline::{live_proof, Pipeline, PipelineCmd, VerifiedProof};
use serde::{Deserialize, Serialize};
use spotless_crypto::KeyStore;
use spotless_storage::log::SyncPolicy;
use spotless_storage::transfer::InstallJournal;
use spotless_storage::{DurableLedger, DurableLedgerOptions, RecoveryReport, StorageError};
use spotless_types::{
    ClientBatch, ClusterConfig, CommitInfo, Context, Input, InstanceId, Node, NodeId, ReplicaId,
    Signature, SimDuration, SimTime, TimerId, TimerKind, View, VoteStatement,
};
use spotless_workload::KvStore;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use tokio::sync::mpsc;
use tokio::time::{timeout_at, Instant};

/// Timer kind reserved for the runtime's catch-up retry tick. Protocols
/// must not arm `Custom(0xCA7C)` themselves (none in this workspace do;
/// `Custom` is otherwise harness territory).
pub const CATCHUP_TICK: TimerKind = TimerKind::Custom(0xCA7C);

/// Durability settings for one replica.
#[derive(Clone, Debug)]
pub struct StorageConfig {
    /// Directory holding the segmented log and snapshots.
    pub dir: PathBuf,
    /// Log/snapshot tuning. The log's sync policy is overridden to
    /// [`SyncPolicy::Manual`]: the commit pipeline owns fsync cadence
    /// (one per commit group), which is the whole point of group commit.
    pub options: DurableLedgerOptions,
}

impl StorageConfig {
    /// Default options rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> StorageConfig {
        StorageConfig {
            dir: dir.into(),
            options: DurableLedgerOptions::default(),
        }
    }
}

/// Per-replica runtime construction parameters.
pub struct RuntimeConfig {
    /// Cluster shape and protocol timeouts.
    pub cluster: ClusterConfig,
    /// This replica's identity.
    pub me: ReplicaId,
    /// Key material for envelope signing/verification.
    pub keystore: KeyStore,
    /// Durable storage; `None` runs the same chain store in memory
    /// ([`DurableLedger::in_memory`]): no file, no snapshot, and the
    /// replica starts synced.
    pub storage: Option<StorageConfig>,
    /// Retry period for the catch-up exchange while behind.
    pub catchup_interval: SimDuration,
    /// Raw-byte budget per snapshot-transfer chunk. Defaults to
    /// [`spotless_types::SNAPSHOT_CHUNK_BYTES`] (derived from the
    /// fabric's frame limit); tests shrink it to force multi-chunk
    /// transfers at small state sizes.
    pub chunk_budget: usize,
    /// Crash-faulty deployment: consume inputs, emit nothing (the A1
    /// behaviour at transport level).
    pub silent: bool,
    /// Committed-batch execution workers: the pipeline schedules each
    /// commit group over the KV store's shard footprints and runs
    /// non-conflicting batches on this many dedicated tasks (the
    /// `executor` module), sealing state roots in commit order. `0`
    /// executes every group inline on the pipeline thread (the serial
    /// baseline — also what benchmarks compare against). Signatures
    /// have no such knob: one ingress task verifies inbound envelopes
    /// and the votes they carry, and one egress lane signs outbound
    /// envelopes, each off the event-loop thread (the `ingress` and
    /// `egress` modules).
    pub exec_pool: usize,
}

impl RuntimeConfig {
    /// Defaults: in-memory chain, a 150 ms catch-up tick, frame-sized
    /// transfer chunks, two executor workers. The commit queue (256
    /// deep) and the fsync group (64 commits) are fixed; the replica's
    /// counters are read from its [`ReplicaHandle`].
    pub fn new(cluster: ClusterConfig, me: ReplicaId, keystore: KeyStore) -> RuntimeConfig {
        RuntimeConfig {
            cluster,
            me,
            keystore,
            storage: None,
            catchup_interval: SimDuration::from_millis(150),
            chunk_budget: spotless_types::SNAPSHOT_CHUNK_BYTES,
            silent: false,
            exec_pool: 2,
        }
    }
}

/// Depth of the bounded consensus → storage/execution queue (the "ack
/// queue"). When the pipeline falls this far behind, consensus blocks —
/// bounded lag by construction.
const COMMIT_QUEUE: usize = 256;

/// Most commits folded into one fsync group.
const GROUP_COMMIT: usize = 64;

/// What recovery found on disk when the runtime started.
#[derive(Clone, Debug)]
pub struct RecoveryInfo {
    /// Height covered by the snapshot the KV state was restored from.
    pub snapshot_height: u64,
    /// Chain height after log replay.
    pub chain_height: u64,
    /// Blocks replayed from the log above the snapshot.
    pub replayed_blocks: u64,
    /// Whether a torn tail was truncated from the newest segment.
    pub truncated_tail: bool,
    /// Verified chunks of an interrupted snapshot transfer found in the
    /// install journal — the transfer resumes from them instead of
    /// re-fetching (0 when no transfer was in progress).
    pub pending_install_chunks: u32,
}

/// Control-plane messages (untyped: usable by clients and harnesses
/// without naming the protocol's message type).
pub enum ControlMsg {
    /// Submit a client batch to this replica.
    Request(ClientBatch),
    /// Stop the replica's tasks.
    Shutdown,
}

/// Handle to a spawned replica: submit requests, observe recovery,
/// shut down. Cloneable; all clones address the same replica.
#[derive(Clone)]
pub struct ReplicaHandle {
    me: ReplicaId,
    /// Puts a control message on the replica's event queue. Erased to a
    /// closure because the queue's element type names the protocol's
    /// message type and the handle does not.
    control: Arc<dyn Fn(ControlMsg) + Send + Sync>,
    recovery: Option<Arc<RecoveryInfo>>,
    synced: Arc<AtomicBool>,
    stopped: Arc<AtomicBool>,
    net: NetStats,
    snap: SnapshotStats,
    debug: Arc<DebugCounts>,
}

/// The event loop's debug counters: how many live non-no-op commits it
/// announced, how many of them it could witness from the vote memo,
/// and how many votes it had to verify itself.
#[derive(Default)]
struct DebugCounts {
    commits: AtomicU64,
    witnessed: AtomicU64,
    vote_misses: AtomicU64,
}

impl ReplicaHandle {
    /// This replica's identity.
    pub fn id(&self) -> ReplicaId {
        self.me
    }

    /// Submits a client batch to this replica (fire-and-forget; the
    /// inform path carries the result).
    pub fn submit(&self, batch: ClientBatch) {
        (self.control)(ControlMsg::Request(batch));
    }

    /// Asks the replica to stop. Idempotent.
    pub fn shutdown(&self) {
        (self.control)(ControlMsg::Shutdown);
    }

    /// What recovery reconstructed at spawn (None without storage).
    pub fn recovery(&self) -> Option<&RecoveryInfo> {
        self.recovery.as_deref()
    }

    /// True once the replica has rejoined the cluster head (always true
    /// for replicas that started fresh).
    pub fn is_synced(&self) -> bool {
        self.synced.load(Ordering::Relaxed)
    }

    /// True once the replica's pipeline has fully stopped and released
    /// its durable store. A harness restarting a replica on the same
    /// storage directory must wait for this — two live stores on one
    /// directory corrupt the log.
    pub fn is_stopped(&self) -> bool {
        self.stopped.load(Ordering::Relaxed)
    }

    /// This replica's wire-traffic counters (encoded payload bytes and
    /// message counts, by direction).
    pub fn net(&self) -> &NetStats {
        &self.net
    }

    /// This replica's snapshot-delta counters (durable snapshots
    /// written; shards serialized vs reused per snapshot).
    pub fn snapshots(&self) -> &SnapshotStats {
        &self.snap
    }

    /// Debug counter, not a metric: `(witnessed, commits)` — of the
    /// live non-no-op commits announced so far, how many reached the
    /// pipeline with a passing verdict on every vote already in the
    /// event loop's memo and so skipped the sanitizer's signature pass.
    #[doc(hidden)]
    pub fn witness_counts(&self) -> (u64, u64) {
        (
            self.debug.witnessed.load(Ordering::Relaxed),
            self.debug.commits.load(Ordering::Relaxed),
        )
    }

    /// Debug counter, not a metric: the vote signatures the event loop
    /// verified itself because its memo held no verdict — a vote the
    /// message did not list in `carried_votes`, or one rotated out.
    /// Ingress verifies every listed vote, so a fault-free cluster
    /// keeps this at 0.
    #[doc(hidden)]
    pub fn loop_vote_misses(&self) -> u64 {
        self.debug.vote_misses.load(Ordering::Relaxed)
    }
}

/// One vote as the memo keys it: signer, statement and signature.
pub(crate) type VoteKey = (ReplicaId, VoteStatement, Signature);

/// Verdicts the vote memo holds at most.
const VOTE_MEMO_MAX: usize = 8192;

/// A record of which votes this replica's keystore has checked, and
/// with what verdict. Serial Ed25519 verification from per-signer
/// tables is ≈ 24 µs; protocols legitimately re-see the same vote
/// (retransmission, Sync summaries that re-carry `CP` endorsements
/// view after view), and the memo turns every re-check into a hash
/// lookup. The ingress task keeps one as its verdict cache; the event
/// loop keeps another, filled from the verdicts ingress forwards with
/// each message and from the votes the replica signs itself.
///
/// Bounded by two generations rather than an LRU: verdicts enter
/// `current`; when that holds half the cap it becomes `previous`,
/// whose old content is dropped; lookups consult both, and a
/// [`recall`](VoteMemo::recall) found only in `previous` moves back
/// into `current`. The newest `VOTE_MEMO_MAX / 2` verdicts therefore
/// survive every rotation, and so does any vote still being re-seen —
/// the live `CP` entries and the certificates of commits in flight.
#[derive(Default)]
pub(crate) struct VoteMemo {
    current: HashMap<VoteKey, bool>,
    previous: HashMap<VoteKey, bool>,
}

impl VoteMemo {
    /// The recorded verdict on `key`, if it is still remembered.
    pub(crate) fn get(&self, key: &VoteKey) -> Option<bool> {
        self.current
            .get(key)
            .or_else(|| self.previous.get(key))
            .copied()
    }

    /// [`get`](VoteMemo::get) for a vote being seen again: a verdict
    /// about to rotate out is renewed.
    pub(crate) fn recall(&mut self, key: &VoteKey) -> Option<bool> {
        if let Some(&ok) = self.current.get(key) {
            return Some(ok);
        }
        let ok = *self.previous.get(key)?;
        self.insert(*key, ok);
        Some(ok)
    }

    /// Signs `statement` as `keys`' own replica. What this replica
    /// signed verifies, and is remembered so: its own `Sync` coming
    /// back through the loopback is a memo hit, not a signature check.
    fn sign(&mut self, keys: &KeyStore, statement: &VoteStatement) -> Signature {
        let sig = keys.sign_vote(statement);
        self.insert((keys.me(), *statement, sig), true);
        sig
    }

    pub(crate) fn insert(&mut self, key: VoteKey, ok: bool) {
        if self.current.len() >= VOTE_MEMO_MAX / 2 {
            self.previous = std::mem::take(&mut self.current);
        }
        self.current.insert(key, ok);
    }
}

/// Buffered effect collector handed to the protocol on each step.
/// Carries the replica's [`KeyStore`] so the protocol's
/// [`Context::sign_vote`] / [`Context::verify_vote`] hooks produce and
/// check **real Ed25519** signatures (the trait's defaults are
/// simulation placeholders), plus the event loop's vote memo, which
/// already holds a verdict on every vote a delivered message listed.
struct RuntimeCtx<'a, M> {
    start: Instant,
    me: NodeId,
    keystore: &'a KeyStore,
    votes: &'a mut VoteMemo,
    /// Counts the verifications a memo miss costs the loop.
    debug: &'a DebugCounts,
    sends: Vec<(NodeId, M)>,
    broadcasts: Vec<M>,
    timers: Vec<(TimerId, SimDuration)>,
    commits: Vec<CommitInfo>,
}

impl<M> Context for RuntimeCtx<'_, M> {
    type Message = M;

    fn now(&self) -> SimTime {
        SimTime(self.start.elapsed().as_nanos() as u64)
    }
    fn id(&self) -> NodeId {
        self.me
    }
    fn send(&mut self, to: NodeId, msg: M) {
        self.sends.push((to, msg));
    }
    fn broadcast(&mut self, msg: M) {
        self.broadcasts.push(msg);
    }
    fn set_timer(&mut self, id: TimerId, after: SimDuration) {
        self.timers.push((id, after));
    }
    fn commit(&mut self, info: CommitInfo) {
        self.commits.push(info);
    }
    fn sign_vote(&mut self, statement: &VoteStatement) -> Signature {
        self.votes.sign(self.keystore, statement)
    }
    fn verify_vote(
        &mut self,
        signer: ReplicaId,
        statement: &VoteStatement,
        sig: &Signature,
    ) -> bool {
        let key = (signer, *statement, *sig);
        if let Some(ok) = self.votes.recall(&key) {
            return ok;
        }
        // A vote the message did not list (`carried_votes`), or one no
        // longer remembered: the one Ed25519 check the loop still does.
        self.debug.vote_misses.fetch_add(1, Ordering::Relaxed);
        let ok = self.keystore.verify_vote(signer, statement, sig).is_ok();
        self.votes.insert(key, ok);
        ok
    }
}

/// The event loop's armed timers: a min-heap on deadline, ties broken
/// by arming order. Nothing is ever cancelled — a [`TimerId`] carries
/// its instance and view, and protocols recognise a stale fire by them.
#[derive(Default)]
struct TimerHeap {
    heap: BinaryHeap<Reverse<(Instant, u64, TimerId)>>,
    /// Timers armed so far (the tie-break sequence).
    armed: u64,
}

impl TimerHeap {
    /// Arms `id` to come due `after` from `now`.
    fn arm(&mut self, id: TimerId, now: Instant, after: SimDuration) {
        let deadline = now + std::time::Duration::from_nanos(after.as_nanos());
        self.heap.push(Reverse((deadline, self.armed, id)));
        self.armed += 1;
    }

    fn next_deadline(&self) -> Option<Instant> {
        self.heap.peek().map(|Reverse((deadline, ..))| *deadline)
    }

    /// Takes the earliest timer if its deadline is at or before `now`.
    fn pop_due(&mut self, now: Instant) -> Option<TimerId> {
        if self.next_deadline()? > now {
            return None;
        }
        self.heap.pop().map(|Reverse((.., id))| id)
    }
}

/// Internal event-loop alphabet.
pub(crate) enum Event<M> {
    /// A protocol message: from the fabric, decoded by the ingress task
    /// after its envelope verified, with a verdict on every vote it
    /// lists ([`ProtocolMessage::carried_votes`]); or this replica's own
    /// (broadcast includes the sender, Remark 3.1), delivered locally
    /// without serialization or verification — its votes are the
    /// replica's own, already in the memo, so it carries no verdicts.
    ///
    /// [`ProtocolMessage::carried_votes`]: spotless_types::node::ProtocolMessage::carried_votes
    Deliver {
        from: ReplicaId,
        msg: M,
        votes: Vec<(VoteKey, bool)>,
    },
    /// A verified envelope of the state-transfer family, for the
    /// pipeline to decode.
    Envelope(Envelope),
    /// A client batch arrived.
    Request(ClientBatch),
    /// Stop.
    Shutdown,
}

/// The protocol-agnostic replica runtime. See the module docs; spawn
/// one per replica with [`ReplicaRuntime::spawn`].
pub struct ReplicaRuntime;

impl ReplicaRuntime {
    /// Opens storage (recovering whatever a previous process left),
    /// spawns the event-loop and pipeline tasks, and returns the
    /// replica's handle. `envelopes` is the inbound half the fabric
    /// writes to; `commits`/`informs` are the observation and client
    /// reply paths (typically shared across a cluster).
    ///
    /// Must be called inside a tokio runtime.
    ///
    /// # Thread budget
    ///
    /// Every task is a thread under the thread-backed `tokio` stand-in,
    /// and a replica's count is fixed at spawn — timers live on the
    /// event loop's deadline heap and the handle writes to the event
    /// queue directly, so nothing is spawned afterwards. Per replica:
    /// the event loop, the commit pipeline, the ingress task, the
    /// egress lane and the `exec_pool` workers (2) — **6** at the
    /// default pool size; `exec_pool == 0` drops the workers. A silent
    /// replica's ingress task drains and drops envelopes without
    /// verifying them. The TCP fabric adds its own per replica: one
    /// acceptor and, per peer, one reader and one sender task.
    pub fn spawn<N, F>(
        node: N,
        cfg: RuntimeConfig,
        fabric: F,
        envelopes: mpsc::UnboundedReceiver<Envelope>,
        commits: CommitLog,
        informs: mpsc::UnboundedSender<Inform>,
    ) -> Result<ReplicaHandle, StorageError>
    where
        N: Node + Send + 'static,
        N::Message: Serialize + Deserialize + Send + 'static,
        F: Fabric,
    {
        // 1. Open the chain store (before any task runs), recovering
        //    whatever a previous process left in the storage directory.
        //    An interrupted snapshot transfer resumes from its journal:
        //    chunks verified before the crash are not re-fetched.
        let (store, report, journal) = match &cfg.storage {
            Some(storage) => {
                let mut options = storage.options;
                // Group commit owns fsync cadence; see StorageConfig docs.
                options.log.sync = SyncPolicy::Manual;
                let (store, report) = DurableLedger::open(&storage.dir, options)?;
                (store, report, InstallJournal::open(&storage.dir))
            }
            None => (
                DurableLedger::in_memory(),
                RecoveryReport::default(),
                InstallJournal::in_memory(),
            ),
        };
        let mut kv = KvStore::new();
        let mut kv_height = 0;
        if !report.app_meta.is_empty() {
            let chunks: Option<Vec<spotless_workload::StateChunk>> = report
                .app_chunks
                .iter()
                .map(|c| spotless_workload::StateChunk::decode(c))
                .collect();
            kv = chunks
                .and_then(|chunks| KvStore::from_transfer(&report.app_meta, &chunks))
                .ok_or_else(|| StorageError::Corrupt {
                    path: store.dir().map(Path::to_path_buf).unwrap_or_default(),
                    offset: 0,
                    detail: "snapshot app state is not a KV chunk set",
                })?;
            kv_height = report.snapshot_height;
        }
        let recovery = cfg.storage.as_ref().map(|_| {
            Arc::new(RecoveryInfo {
                snapshot_height: report.snapshot_height,
                chain_height: store.ledger().height(),
                replayed_blocks: report.replayed_blocks,
                truncated_tail: report.truncated_tail,
                pending_install_chunks: journal.chunks_present(),
            })
        });

        let (events_tx, events_rx) = mpsc::unbounded_channel::<Event<N::Message>>();
        let (pipeline_tx, pipeline_rx) = mpsc::channel::<PipelineCmd>(COMMIT_QUEUE);
        let synced = Arc::new(AtomicBool::new(true));
        // Every outbound envelope — consensus, catch-up, state transfer
        // — leaves through Fabric::send; metering the fabric once here
        // covers the event loop and the pipeline alike.
        let net = NetStats::default();
        let snap = SnapshotStats::default();
        let fabric = MeteredFabric {
            inner: fabric,
            stats: net.clone(),
        };

        // 2. The commit pipeline (durability + execution + replies).
        let pipeline = Pipeline::new(
            cfg.me,
            cfg.cluster.clone(),
            cfg.keystore.clone(),
            fabric.clone(),
            store,
            kv,
            kv_height,
            journal,
            cfg.chunk_budget,
            cfg.exec_pool,
            commits,
            informs,
            synced.clone(),
            !cfg.silent,
            snap.clone(),
        );
        let stopped = Arc::new(AtomicBool::new(false));
        let stopped_signal = stopped.clone();
        tokio::spawn(async move {
            // `run` owns the durable store; it is dropped (closed) when
            // the future completes, and only then is `stopped` raised —
            // the restart path relies on that ordering.
            pipeline.run(pipeline_rx, GROUP_COMMIT).await;
            stopped_signal.store(true, Ordering::Relaxed);
        });

        // 3. Ingress: fabric envelopes and the control plane both feed
        //    the single typed event queue — the handle writes to it
        //    directly. The ingress task decodes protocol messages and
        //    batch-verifies envelope and vote signatures, so only
        //    verified envelopes and vote verdicts reach the queue. A
        //    silent replica, which would drop them anyway, drains its
        //    fabric channel without verifying.
        if cfg.silent {
            let mut envelopes = envelopes;
            let recv_net = net.clone();
            tokio::spawn(async move {
                while let Some(env) = envelopes.recv().await {
                    recv_net.record_recv(env.payload.len());
                }
            });
        } else {
            crate::ingress::spawn_ingress(
                cfg.keystore.clone(),
                envelopes,
                events_tx.clone(),
                net.clone(),
            );
        }
        let ctl_events = events_tx.clone();
        let control = Arc::new(move |msg| {
            // Fails only once the loop has stopped; nothing to tell then.
            let _ = ctl_events.send(match msg {
                ControlMsg::Request(batch) => Event::Request(batch),
                ControlMsg::Shutdown => Event::Shutdown,
            });
        });

        // 4. Egress: outbound envelopes are signed and fanned out in
        //    submission order by one lane off the loop.
        let egress = Egress::spawn(cfg.keystore.clone(), fabric, cfg.me, cfg.cluster.n);

        // 5. The event loop.
        let debug = Arc::new(DebugCounts::default());
        let event_loop = EventLoop {
            me: cfg.me,
            node,
            keystore: cfg.keystore,
            egress,
            events_tx,
            pipeline_tx,
            synced: synced.clone(),
            catchup_interval: cfg.catchup_interval,
            timers: TimerHeap::default(),
            start: Instant::now(),
            silent: cfg.silent,
            votes: VoteMemo::default(),
            debug: debug.clone(),
        };
        tokio::spawn(event_loop.run(events_rx));

        Ok(ReplicaHandle {
            me: cfg.me,
            control,
            recovery,
            synced,
            stopped,
            net,
            snap,
            debug,
        })
    }
}

struct EventLoop<N: Node> {
    me: ReplicaId,
    node: N,
    keystore: KeyStore,
    /// Signs and sends outbound envelopes, in submission order.
    egress: Egress,
    events_tx: mpsc::UnboundedSender<Event<N::Message>>,
    pipeline_tx: mpsc::Sender<PipelineCmd>,
    synced: Arc<AtomicBool>,
    catchup_interval: SimDuration,
    /// Every armed timer, the catch-up tick included; `run` sleeps no
    /// further than its earliest deadline.
    timers: TimerHeap,
    start: Instant,
    silent: bool,
    /// Verdicts on votes, shared across steps.
    votes: VoteMemo,
    debug: Arc<DebugCounts>,
}

impl<N> EventLoop<N>
where
    N: Node + Send + 'static,
    N::Message: Serialize + Deserialize + Send + 'static,
{
    async fn run(mut self, mut events: mpsc::UnboundedReceiver<Event<N::Message>>) {
        if self.silent {
            // A1: consume and drop everything until shutdown.
            while let Some(ev) = events.recv().await {
                if matches!(ev, Event::Shutdown) {
                    return;
                }
            }
            return;
        }
        // Consensus participation is gated on recovery: a replica that
        // boots behind (durable storage to catch up from) does not
        // start its protocol node — no votes, no proposals — until the
        // pipeline's state transfer completes. This is what keeps the
        // live-commit buffer from growing with catch-up duration, and
        // what makes a snapshot install safe (no buffered commit can
        // predate the installed height). Protocol traffic arriving
        // meanwhile is dropped — retransmission (Υ, Ask, client
        // retries) recovers it, and SpotLess's RVS jump rule brings the
        // fresh node to the cluster's current view in one weak quorum
        // of Syncs. Client requests are *held*, not dropped (the
        // runtime client has no retransmit loop): they replay into the
        // node the moment it starts, and the mempool applies its normal
        // admission rules then.
        let mut started = false;
        let mut held_requests: Vec<ClientBatch> = Vec::new();
        if self.synced.load(Ordering::Relaxed) {
            self.step(Input::Start).await;
            started = true;
        }
        // The runtime tick runs for the replica's whole life, not just
        // while behind: the pipeline uses it to drive catch-up retries
        // when catching up *and* serving-side maintenance when synced
        // (aging out a frozen outgoing snapshot whose requester
        // vanished mid-transfer).
        self.arm_catchup_tick();
        loop {
            // Wait for the next event or the earliest deadline,
            // whichever comes first — a quiet cluster's timeouts do not
            // depend on traffic.
            let ev = match self.timers.next_deadline() {
                Some(deadline) => timeout_at(deadline, events.recv()).await.ok(),
                None => Some(events.recv().await),
            };
            // Checked on every wake-up and before the event in hand is
            // looked at: the first protocol message to arrive after
            // catch-up completes must find the node started.
            if !started && self.synced.load(Ordering::Relaxed) {
                self.step(Input::Start).await;
                started = true;
                for batch in held_requests.drain(..) {
                    self.step(Input::Request(batch)).await;
                }
            }
            // Due timers step before the event, earliest deadline
            // first. `now` is read once, so a timer armed by one of
            // these steps waits for the next pass and queued events are
            // never starved.
            let now = Instant::now();
            while let Some(id) = self.timers.pop_due(now) {
                if id.kind == CATCHUP_TICK {
                    // While behind, the tick drives catch-up retries
                    // (and doubles as the start signal via the check
                    // above, so a quiet cluster still starts the node
                    // promptly); while synced it drives the pipeline's
                    // serving-side maintenance. Always re-armed — the
                    // tick is the replica's heartbeat.
                    let _ = self.pipeline_tx.send(PipelineCmd::Tick).await;
                    self.arm_catchup_tick();
                } else if started {
                    self.step(Input::Timer(id)).await;
                }
            }
            let ev = match ev {
                Some(Some(ev)) => ev,
                Some(None) => return, // every sender is gone
                None => continue,     // woken by a deadline
            };
            match ev {
                // Protocol traffic before the node starts is dropped
                // (retransmission recovers it).
                Event::Deliver { from, msg, votes } => {
                    if started {
                        // Ingress has verified every vote the message
                        // lists; recording the verdicts makes each of
                        // the protocol's checks a lookup.
                        for (key, ok) in votes {
                            self.votes.insert(key, ok);
                        }
                        self.step(Input::Deliver {
                            from: from.into(),
                            msg,
                        })
                        .await;
                    }
                }
                // The transfer family ships to the pipeline as raw
                // verified bytes and is decoded borrowed there, off
                // this thread.
                Event::Envelope(env) => {
                    let _ = self
                        .pipeline_tx
                        .send(PipelineCmd::Transfer {
                            from: env.from,
                            payload: env.payload,
                        })
                        .await;
                }
                Event::Request(batch) => {
                    if started {
                        self.step(Input::Request(batch)).await;
                    } else {
                        held_requests.push(batch);
                    }
                }
                Event::Shutdown => return,
            }
        }
    }

    /// Steps the protocol once and applies its effects: commits into
    /// the bounded pipeline, timers onto the deadline heap, messages
    /// sealed once and fanned out through the fabric.
    async fn step(&mut self, input: Input<N::Message>) {
        let mut ctx = RuntimeCtx {
            start: self.start,
            me: self.me.into(),
            keystore: &self.keystore,
            votes: &mut self.votes,
            debug: &self.debug,
            sends: Vec::new(),
            broadcasts: Vec::new(),
            timers: Vec::new(),
            commits: Vec::new(),
        };
        self.node.on_input(input, &mut ctx);
        // Move the effect buffers out (releasing ctx's borrow of the
        // keystore and vote memo) before applying them against `self`.
        let RuntimeCtx {
            sends,
            broadcasts,
            timers,
            commits,
            ..
        } = ctx;
        for info in commits {
            // The memo is the record of which votes this replica's
            // keystore has verified: a certificate made only of those
            // goes to the pipeline witnessed and is not checked again
            // at append. No-ops persist nothing and need no witness.
            let witness = if info.batch.is_noop() {
                None
            } else {
                let witness = VerifiedProof::witnessed(live_proof(&info), &self.votes);
                self.debug.commits.fetch_add(1, Ordering::Relaxed);
                self.debug
                    .witnessed
                    .fetch_add(u64::from(witness.is_some()), Ordering::Relaxed);
                witness
            };
            // Bounded: consensus blocks here iff the storage/execution
            // pipeline is `COMMIT_QUEUE` slots behind (the ack queue).
            let _ = self
                .pipeline_tx
                .send(PipelineCmd::Commit(info, witness))
                .await;
        }
        // One clock read per step: timers armed together with equal
        // durations share a deadline and fire in arming order.
        let now = Instant::now();
        for (id, after) in timers {
            self.timers.arm(id, now, after);
        }
        for (to, msg) in sends {
            let NodeId::Replica(to) = to else {
                continue; // client replies travel the inform path
            };
            if to == self.me {
                self.loopback(msg);
            } else {
                self.emit(&msg, Fanout::To(to));
            }
        }
        for msg in broadcasts {
            // Serialize + sign once; every peer shares the same Arc'd
            // bytes. Self-delivery is a local loopback (Remark 3.1) —
            // it never enters the egress stage.
            self.emit(&msg, Fanout::Broadcast);
            self.loopback(msg);
        }
    }

    /// Queues `msg` for delivery to this replica itself.
    fn loopback(&self, msg: N::Message) {
        let _ = self.events_tx.send(Event::Deliver {
            from: self.me,
            msg,
            votes: Vec::new(),
        });
    }

    /// Encodes one outbound protocol message into a pooled buffer and
    /// hands it to the egress lane, which seals it and fans it out in
    /// submission order.
    fn emit(&self, msg: &N::Message, fanout: Fanout) {
        let buffers = &self.egress.buffers;
        let enc = encode_protocol_into(msg, buffers.take());
        let len = enc.len();
        self.egress
            .submit(Payload::pooled(enc, buffers, 0, len), fanout);
    }

    fn arm_catchup_tick(&mut self) {
        self.timers.arm(
            TimerId::new(CATCHUP_TICK, InstanceId(0), View(0)),
            Instant::now(),
            self.catchup_interval,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::time::Duration;

    /// A fabric that drops everything: these replicas have no peers.
    #[derive(Clone)]
    struct NullFabric;

    impl Fabric for NullFabric {
        fn send(&self, _to: ReplicaId, _env: Envelope) {}
    }

    type Fired = Arc<Mutex<Vec<(TimerId, Instant)>>>;

    /// A node that does nothing but arm the timers its script names —
    /// `(trigger, timer, milliseconds)`, the trigger being `None` for
    /// `Start` or the timer whose firing arms this one — and log every
    /// fire.
    struct Scripted {
        script: Vec<(Option<TimerId>, TimerId, u64)>,
        fired: Fired,
    }

    impl Node for Scripted {
        type Message = spotless_core::Message;

        fn on_input(
            &mut self,
            input: Input<Self::Message>,
            ctx: &mut dyn Context<Message = Self::Message>,
        ) {
            let trigger = match input {
                Input::Start => None,
                Input::Timer(id) => {
                    self.fired.lock().push((id, Instant::now()));
                    Some(id)
                }
                _ => return,
            };
            for &(when, id, ms) in &self.script {
                if when == trigger {
                    ctx.set_timer(id, SimDuration::from_millis(ms));
                }
            }
        }
    }

    fn timer(k: u64) -> TimerId {
        TimerId::new(TimerKind::Custom(1), InstanceId(0), View(k))
    }

    /// A lone memory-only replica running `script`, with the catch-up
    /// heartbeat pushed out of the way so the script's timers are the
    /// only deadlines and nothing else ever wakes the loop. The
    /// returned senders keep its inbound channels open.
    fn spawn_scripted(
        script: Vec<(Option<TimerId>, TimerId, u64)>,
    ) -> (ReplicaHandle, Fired, impl Sized) {
        let fired = Fired::default();
        let node = Scripted {
            script,
            fired: fired.clone(),
        };
        let keystore = KeyStore::cluster(b"timer-heap-test", 4).remove(0);
        let mut cfg = RuntimeConfig::new(ClusterConfig::new(4), ReplicaId(0), keystore);
        cfg.catchup_interval = SimDuration::from_secs(3600);
        let (env_tx, env_rx) = mpsc::unbounded_channel();
        let (inform_tx, inform_rx) = mpsc::unbounded_channel();
        let handle = ReplicaRuntime::spawn(
            node,
            cfg,
            NullFabric,
            env_rx,
            CommitLog::default(),
            inform_tx,
        )
        .expect("memory-only spawn cannot fail");
        (handle, fired, (env_tx, inform_rx))
    }

    async fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
        let began = Instant::now();
        while !done() {
            assert!(
                began.elapsed() < Duration::from_secs(10),
                "timed out: {what}"
            );
            tokio::time::sleep(Duration::from_millis(2)).await;
        }
    }

    #[test]
    fn the_vote_memo_rotates_generations_instead_of_forgetting_everything() {
        const HALF: u64 = VOTE_MEMO_MAX as u64 / 2;
        let key = |i: u64| {
            let statement =
                VoteStatement::new(InstanceId(0), View(i), spotless_types::Digest::from_u64(i));
            (ReplicaId(0), statement, Signature::ZERO)
        };
        let mut memo = VoteMemo::default();
        for i in 0..6 * HALF {
            memo.insert(key(i), i % 2 == 0);
            // Whatever the rotation phase, the newest half-cap of
            // verdicts is remembered and the whole stays within the cap.
            let oldest = i.saturating_sub(HALF - 1);
            assert_eq!(memo.get(&key(oldest)), Some(oldest % 2 == 0), "at {i}");
            assert_eq!(memo.get(&key(i)), Some(i % 2 == 0));
            assert!(memo.current.len() + memo.previous.len() <= VOTE_MEMO_MAX);
        }
        assert_eq!(memo.get(&key(0)), None, "old verdicts are forgotten");
    }

    #[test]
    fn a_vote_recalled_every_generation_is_never_forgotten() {
        let key = |i: u64| {
            let statement =
                VoteStatement::new(InstanceId(0), View(i), spotless_types::Digest::from_u64(i));
            (ReplicaId(1), statement, Signature::ZERO)
        };
        let lock = key(u64::MAX);
        let mut memo = VoteMemo::default();
        memo.insert(lock, true);
        // A CP endorsement re-carried view after view, while a stream
        // of fresh votes rotates the memo many times over.
        for i in 0..(3 * VOTE_MEMO_MAX as u64) {
            memo.insert(key(i), true);
            if i % 1000 == 0 {
                assert_eq!(memo.recall(&lock), Some(true), "at {i}");
            }
        }
        assert_eq!(memo.recall(&key(0)), None);
    }

    #[tokio::test]
    async fn due_timers_step_in_deadline_then_arming_order() {
        // Armed in one step, so equal durations are equal deadlines.
        let script = [(5, 60), (1, 20), (2, 20), (4, 40), (3, 20)]
            .map(|(k, ms)| (None, timer(k), ms))
            .to_vec();
        let (handle, fired, _open) = spawn_scripted(script);
        wait_for("five timers", || fired.lock().len() == 5).await;
        let order: Vec<u64> = fired.lock().iter().map(|(id, _)| id.view.0).collect();
        assert_eq!(order, [1, 2, 3, 4, 5]);
        handle.shutdown();
    }

    #[tokio::test]
    async fn a_timer_on_an_idle_loop_fires_without_any_traffic() {
        // No envelope, request or heartbeat arrives: only the deadline
        // itself can wake the loop, as for a quiet cluster's Recording
        // timeout.
        const AFTER: Duration = Duration::from_millis(250);
        let armed = Instant::now();
        let (handle, fired, _open) =
            spawn_scripted(vec![(None, timer(1), AFTER.as_millis() as u64)]);
        wait_for("the lone timer", || !fired.lock().is_empty()).await;
        let at = fired.lock()[0].1.duration_since(armed);
        assert!(at >= AFTER, "fired early, after {at:?}");
        assert!(at < 2 * AFTER, "fired late, after {at:?}");
        handle.shutdown();
    }

    #[tokio::test]
    async fn a_timer_armed_from_a_timer_step_is_honoured() {
        let script = vec![(None, timer(1), 20), (Some(timer(1)), timer(2), 30)];
        let (handle, fired, _open) = spawn_scripted(script);
        wait_for("the chained timer", || fired.lock().len() == 2).await;
        let log = fired.lock().clone();
        assert_eq!((log[0].0, log[1].0), (timer(1), timer(2)));
        assert!(log[1].1.duration_since(log[0].1) >= Duration::from_millis(30));
        handle.shutdown();
    }

    #[tokio::test]
    async fn shutdown_with_timers_pending_returns_promptly() {
        let (handle, fired, _open) = spawn_scripted(vec![(None, timer(1), 3_600_000)]);
        let began = Instant::now();
        handle.shutdown();
        wait_for("the replica to stop", || handle.is_stopped()).await;
        assert!(began.elapsed() < Duration::from_secs(2));
        assert!(fired.lock().is_empty());
    }
}
