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
//! * **inbound signatures** — each envelope's and each vote its messages
//!   carry — are verified in one batch by the ingress task, which also
//!   decodes the messages, before they reach the loop
//!   (`crate::ingress`);
//! * **outbound traffic** is encoded once per message on the loop,
//!   straight into the open bundle of its run of one fan-out; the loop
//!   submits the bundle when it fills, when the fan-out changes, when
//!   the event queue runs dry or before the loop blocks, and after at
//!   most `FLUSH_EVENTS` events, and the egress lane signs it once and
//!   fans it out (`crate::egress`); broadcast fan-out shares the bytes
//!   via `Arc` (see [`crate::envelope`]).
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
//! stands at their heads, so no live commit can reach a pipeline that
//! is still catching up. See
//! `tests/transport_e2e.rs` (facade crate) for the end-to-end
//! crash–restart and pruned-history recovery proofs.

use crate::egress::{Fanout, Outbox};
use crate::envelope::Envelope;
use crate::fabric::{Fabric, MeteredFabric};
use crate::observe::{CommitLog, Inform, NetStats};
use crate::pipeline::{Pipeline, PipelineCmd};
use serde::{Deserialize, Serialize};
use spotless_crypto::KeyStore;
use spotless_ledger::CommitProof;
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
use tokio::sync::mpsc::{self, TrySendError};
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
}

impl RuntimeConfig {
    /// Defaults: in-memory chain, a 150 ms catch-up tick, frame-sized
    /// transfer chunks, a live (not silent) replica. The commit queue
    /// (256 deep) and the fsync group (64 commits) are fixed, and there
    /// are no pool sizes to pick: one ingress task verifies, one egress
    /// lane signs, and the pipeline executes committed batches serially
    /// on its own thread. The replica's counters are read from its
    /// [`ReplicaHandle`].
    pub fn new(cluster: ClusterConfig, me: ReplicaId, keystore: KeyStore) -> RuntimeConfig {
        RuntimeConfig {
            cluster,
            me,
            keystore,
            storage: None,
            catchup_interval: SimDuration::from_millis(150),
            chunk_budget: spotless_types::SNAPSHOT_CHUNK_BYTES,
            silent: false,
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
    /// The event loop's [`VoteMemo::misses`].
    vote_misses: Arc<AtomicU64>,
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

    /// Debug counter, not a metric: the vote signatures the event loop
    /// verified itself because its memo held no verdict — a vote the
    /// protocol checks that its message did not list in
    /// `carried_votes`, a certificate vote cast over another statement
    /// than the commit's, or a verdict rotated out. Ingress verifies
    /// every listed vote, so a fault-free cluster keeps this at 0.
    #[doc(hidden)]
    pub fn loop_vote_misses(&self) -> u64 {
        self.vote_misses.load(Ordering::Relaxed)
    }
}

/// One vote as the memo keys it: signer, statement and signature.
pub(crate) type VoteKey = (ReplicaId, VoteStatement, Signature);

/// Verdicts the vote memo holds at most.
pub(crate) const VOTE_MEMO_MAX: usize = 8192;

/// A record of which votes this replica's keystore has checked, and
/// with what verdict. Serial Ed25519 verification from per-signer
/// tables is ≈ 24 µs; protocols legitimately re-see the same vote
/// (retransmission, Sync summaries that re-carry `CP` endorsements
/// view after view), and the memo turns every re-check into a hash
/// lookup. The ingress task keeps one as its verdict cache; the event
/// loop keeps another, filled from the verdicts ingress forwards with
/// each message and from the votes the replica signs itself, and
/// trusts a vote only through [`check`](VoteMemo::check).
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
    /// The votes [`check`](VoteMemo::check) had to verify itself; the
    /// event loop's is its handle's `loop_vote_misses`.
    pub(crate) misses: Arc<AtomicU64>,
}

impl VoteMemo {
    /// The recorded verdict on `key`, if it is still remembered. A
    /// verdict about to rotate out is renewed: the vote is being seen
    /// again.
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

    /// Whether the vote `key` verifies under `keys`: the recorded
    /// verdict, or — for a vote no longer remembered, or never listed
    /// by the message that carried it — one Ed25519 check, remembered
    /// and counted in [`misses`](VoteMemo::misses).
    pub(crate) fn check(&mut self, keys: &KeyStore, key: VoteKey) -> bool {
        if let Some(ok) = self.recall(&key) {
            return ok;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let (signer, statement, sig) = &key;
        let ok = keys.verify_vote(*signer, statement, sig).is_ok();
        self.insert(key, ok);
        ok
    }
}

/// The proof a live commit is persisted under. The one place that says
/// which statement a live certificate's votes are held to, and that
/// statement claims the *commit's* view: a certificate inherited from
/// another view does not verify.
pub(crate) fn live_proof(info: &CommitInfo) -> CommitProof {
    CommitProof {
        instance: info.instance,
        view: info.view,
        phase: info.cert.phase,
        voted: info.cert.voted,
        slot: info.cert.slot,
        signers: info.cert.signers.clone(),
        sigs: info.cert.sigs.clone(),
    }
}

pub(crate) use verified::VerifiedProof;

/// Keeps [`VerifiedProof`]'s field out of reach: [`VerifiedProof::check`]
/// is the only way to make one.
mod verified {
    use super::{CommitProof, KeyStore, VoteMemo};
    use spotless_types::CertPhase;

    /// A live certificate's proof each of whose `(signer, signature)`
    /// pairs has verified at this replica over the statement the proof
    /// itself claims ([`CommitProof::statement`]) — exactly what a third
    /// party (or a catch-up peer) re-verifies later. Lists of unequal
    /// length are the one exception: [`check`](VerifiedProof::check)
    /// passes them through for the rules to reject.
    pub(crate) struct VerifiedProof(CommitProof);

    impl VerifiedProof {
        /// Checks every vote of `proof` through the event loop's memo
        /// ([`VoteMemo::check`]) and drops those that fail; if any did
        /// and the survivors fall below the `strong` quorum, the phase
        /// is downgraded to weak. So one forged vote smuggled into an
        /// otherwise-valid quorum costs that vote, not the replica. A
        /// weak certificate is never upgraded, and the final quorum
        /// check belongs to `verify_proof_rules`, which the pipeline
        /// runs on the result — a certificate stripped below the weak
        /// quorum still poisons it. An unknown signer never verifies.
        pub(crate) fn check(
            mut proof: CommitProof,
            votes: &mut VoteMemo,
            keys: &KeyStore,
            strong: u32,
        ) -> VerifiedProof {
            if proof.signers.len() != proof.sigs.len() {
                return VerifiedProof(proof);
            }
            let statement = proof.statement();
            let cast = proof.signers.len();
            (proof.signers, proof.sigs) = proof
                .signers
                .iter()
                .copied()
                .zip(proof.sigs.iter().copied())
                .filter(|&(signer, sig)| votes.check(keys, (signer, statement, sig)))
                .unzip();
            if proof.signers.len() < cast && proof.signers.len() < strong as usize {
                proof.phase = CertPhase::Weak;
            }
            VerifiedProof(proof)
        }

        pub(crate) fn into_proof(self) -> CommitProof {
            self.0
        }
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
        self.votes.check(self.keystore, (signer, *statement, *sig))
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
    /// the event loop, the commit pipeline (which also executes every
    /// committed batch), the ingress task and the egress lane —
    /// **4**. A silent replica's ingress task drains and drops envelopes
    /// without verifying them. The TCP fabric adds its own per replica: one
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
            commits,
            informs,
            synced.clone(),
            !cfg.silent,
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

        // 4. Egress: the loop's bundles are signed and fanned out in
        //    submission order by one lane off the loop.
        let outbox = Outbox::spawn(
            cfg.keystore.clone(),
            fabric,
            cfg.me,
            cfg.cluster.n,
            net.clone(),
        );

        // 5. The event loop.
        let votes = VoteMemo::default();
        let vote_misses = votes.misses.clone();
        let event_loop = EventLoop {
            me: cfg.me,
            node,
            keystore: cfg.keystore,
            strong: cfg.cluster.quorum(),
            outbox,
            events_tx,
            pipeline_tx,
            synced: synced.clone(),
            catchup_interval: cfg.catchup_interval,
            timers: TimerHeap::default(),
            start: Instant::now(),
            silent: cfg.silent,
            votes,
        };
        tokio::spawn(event_loop.run(events_rx));

        Ok(ReplicaHandle {
            me: cfg.me,
            control,
            recovery,
            synced,
            stopped,
            net,
            vote_misses,
        })
    }
}

struct EventLoop<N: Node> {
    me: ReplicaId,
    node: N,
    keystore: KeyStore,
    /// The strong quorum `n − f` a live certificate's surviving votes
    /// must meet to stay strong.
    strong: u32,
    /// Bundles outbound messages for the egress lane, which signs and
    /// sends them in emission order.
    outbox: Outbox,
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
}

impl<N> EventLoop<N>
where
    N: Node + Send + 'static,
    N::Message: Serialize + Deserialize + Send + 'static,
{
    async fn run(mut self, events: mpsc::UnboundedReceiver<Event<N::Message>>) {
        self.serve(events).await;
        // What the last steps emitted still leaves.
        self.outbox.flush().await;
    }

    async fn serve(&mut self, mut events: mpsc::UnboundedReceiver<Event<N::Message>>) {
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
        // pipeline's state transfer completes. This is what makes a
        // snapshot install safe (no live commit can predate the
        // installed height), and the pipeline relies on it: it raises
        // `synced` only after leaving catch-up and has no buffer for
        // commits that arrive before. Protocol traffic arriving
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
            // Take the next queued event; once the queue runs dry, what
            // the loop has emitted leaves before it waits for the next
            // event or the earliest deadline, whichever comes first — a
            // quiet cluster's timeouts do not depend on traffic.
            let ev = match events.try_recv() {
                Some(ev) => Some(Some(ev)),
                None => {
                    self.outbox.flush().await;
                    match self.timers.next_deadline() {
                        Some(deadline) => timeout_at(deadline, events.recv()).await.ok(),
                        None => Some(events.recv().await),
                    }
                }
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
                    self.send_pipeline(PipelineCmd::Tick).await;
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
                // verified bytes and is decoded there, off this thread.
                Event::Envelope(env) => {
                    self.send_pipeline(PipelineCmd::Transfer {
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
            self.outbox.handled().await;
        }
    }

    /// Steps the protocol once and applies its effects: commits into
    /// the bounded pipeline, timers onto the deadline heap, messages
    /// into the outbox (loopback self-delivery onto the event queue).
    async fn step(&mut self, input: Input<N::Message>) {
        let mut ctx = RuntimeCtx {
            start: self.start,
            me: self.me.into(),
            keystore: &self.keystore,
            votes: &mut self.votes,
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
            // No-ops persist nothing: the pipeline never sees them.
            if info.batch.is_noop() {
                continue;
            }
            // The certificate's one signature pass. The protocol checked
            // each of its votes on arrival, so on a fault-free cluster
            // every check is a memo lookup.
            let proof = VerifiedProof::check(
                live_proof(&info),
                &mut self.votes,
                &self.keystore,
                self.strong,
            );
            self.send_pipeline(PipelineCmd::Commit(info, proof)).await;
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
                self.outbox.push(&msg, Fanout::To(to));
            }
        }
        for msg in broadcasts {
            // Encoded once; every peer shares the bundle's Arc'd bytes.
            // Self-delivery is a local loopback (Remark 3.1) — it never
            // enters the outbox.
            self.outbox.push(&msg, Fanout::Broadcast);
            self.loopback(msg);
        }
        self.outbox.submit().await;
    }

    /// Puts `cmd` on the bounded commit queue. The queue is full iff the
    /// pipeline is `COMMIT_QUEUE` commands behind, and then consensus
    /// blocks here until it catches up (the ack queue) — after the
    /// outbox is flushed, so no emitted message waits out the stall.
    async fn send_pipeline(&mut self, cmd: PipelineCmd) {
        if let Err(TrySendError::Full(cmd)) = self.pipeline_tx.try_send(cmd) {
            self.outbox.flush().await;
            // Fails only once the pipeline has stopped.
            let _ = self.pipeline_tx.send(cmd).await;
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
    use crate::egress::tests::RecordingFabric;
    use crate::egress::FLUSH_EVENTS;
    use parking_lot::Mutex;
    use std::time::Duration;

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

    /// A lone memory-only replica 0 of four running `node` over
    /// `fabric`, with the catch-up heartbeat pushed out of the way so
    /// the node's own timers are the only deadlines. The second value
    /// keeps its inbound channels open.
    fn spawn_alone<N>(node: N, fabric: RecordingFabric) -> (ReplicaHandle, impl Sized)
    where
        N: Node + Send + 'static,
        N::Message: Serialize + Deserialize + Send + 'static,
    {
        let keystore = KeyStore::cluster(b"runtime-loop-test", 4).remove(0);
        let mut cfg = RuntimeConfig::new(ClusterConfig::new(4), ReplicaId(0), keystore);
        cfg.catchup_interval = SimDuration::from_secs(3600);
        let (env_tx, env_rx) = mpsc::unbounded_channel();
        let (inform_tx, inform_rx) = mpsc::unbounded_channel();
        let handle =
            ReplicaRuntime::spawn(node, cfg, fabric, env_rx, CommitLog::default(), inform_tx)
                .expect("memory-only spawn cannot fail");
        (handle, (env_tx, inform_rx))
    }

    /// A lone replica running `script`: nothing but its timers ever
    /// wakes the loop.
    fn spawn_scripted(
        script: Vec<(Option<TimerId>, TimerId, u64)>,
    ) -> (ReplicaHandle, Fired, impl Sized) {
        let fired = Fired::default();
        let node = Scripted {
            script,
            fired: fired.clone(),
        };
        let (handle, open) = spawn_alone(node, RecordingFabric::default());
        (handle, fired, open)
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

    /// What a `Talker` does on its `k`-th request.
    type Script = Box<dyn Fn(usize, &mut dyn Context<Message = spotless_core::Message>) + Send>;

    /// A node that holds `Start` until its gate opens, then runs its
    /// script on every client request.
    struct Talker {
        gate: std::sync::mpsc::Receiver<()>,
        requests: usize,
        script: Script,
    }

    impl Node for Talker {
        type Message = spotless_core::Message;

        fn on_input(
            &mut self,
            input: Input<Self::Message>,
            ctx: &mut dyn Context<Message = Self::Message>,
        ) {
            match input {
                Input::Start => {
                    let _ = self.gate.recv();
                }
                Input::Request(_) => {
                    (self.script)(self.requests, ctx);
                    self.requests += 1;
                }
                _ => {}
            }
        }
    }

    /// A small protocol message for the loop to send.
    fn ask(k: u64) -> spotless_core::Message {
        spotless_core::Message::Ask {
            instance: InstanceId(0),
            target: spotless_core::ProposalRef {
                view: View(k),
                digest: spotless_types::Digest::from_u64(k),
            },
        }
    }

    /// A lone replica running `script` over `fabric`. The returned
    /// gate releases `Start`.
    fn spawn_talker(
        script: Script,
        fabric: &RecordingFabric,
    ) -> (ReplicaHandle, std::sync::mpsc::Sender<()>, impl Sized) {
        let (gate_tx, gate) = std::sync::mpsc::channel();
        let node = Talker {
            gate,
            requests: 0,
            script,
        };
        let (handle, open) = spawn_alone(node, fabric.clone());
        (handle, gate_tx, open)
    }

    /// The last message a step emits before the loop goes quiet leaves
    /// when the event queue runs dry: no further event, timer or
    /// message is needed to push it out.
    #[tokio::test]
    async fn a_lone_message_before_the_loop_goes_quiet_reaches_its_peers() {
        let script: Script = Box::new(|_, ctx| {
            for r in 1..4 {
                ctx.send(NodeId::Replica(ReplicaId(r)), ask(u64::from(r)));
            }
        });
        let fabric = RecordingFabric::default();
        let (handle, gate, _open) = spawn_talker(script, &fabric);
        gate.send(()).unwrap();
        // Let the loop block on its empty queue first.
        tokio::time::sleep(Duration::from_millis(50)).await;
        handle.submit(ClientBatch::noop(SimTime::ZERO));
        let sent = fabric.wait_for(3).await;
        let to: Vec<u32> = sent.iter().map(|(to, _)| to.0).collect();
        assert_eq!(to, [1, 2, 3], "one envelope to each peer, in order");
        handle.shutdown();
    }

    /// A message held while the event queue never runs dry leaves after
    /// `FLUSH_EVENTS` events: the node's step on the event after that
    /// finds it at the fabric, and the step before it does not.
    #[tokio::test]
    async fn a_held_message_leaves_after_flush_events_on_a_busy_loop() {
        let seen: Arc<Mutex<Vec<(usize, bool)>>> = Arc::default();
        let fabric = RecordingFabric::default();
        let (log, script_seen) = (fabric.sent.clone(), seen.clone());
        let script: Script = Box::new(move |k, ctx| {
            let sent = || log.lock().unwrap().len();
            if k == 0 {
                ctx.send(NodeId::Replica(ReplicaId(1)), ask(0));
            } else if k == FLUSH_EVENTS - 1 {
                script_seen.lock().push((k, sent() > 0));
            } else if k == FLUSH_EVENTS {
                let began = Instant::now();
                while sent() == 0 && began.elapsed() < Duration::from_secs(10) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                script_seen.lock().push((k, sent() > 0));
            }
        });
        let (handle, gate, _open) = spawn_talker(script, &fabric);
        // Queue every request while `Start` holds the loop, so the
        // queue stays full for the whole run.
        for _ in 0..2 * FLUSH_EVENTS {
            handle.submit(ClientBatch::noop(SimTime::ZERO));
        }
        gate.send(()).unwrap();
        wait_for("both checks", || seen.lock().len() == 2).await;
        assert_eq!(
            *seen.lock(),
            [(FLUSH_EVENTS - 1, false), (FLUSH_EVENTS, true)]
        );
        handle.shutdown();
    }

    /// The memo's verdict on `key`, looked up without renewing it.
    fn known(memo: &VoteMemo, key: VoteKey) -> Option<bool> {
        memo.current.get(&key).or(memo.previous.get(&key)).copied()
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
            assert_eq!(known(&memo, key(oldest)), Some(oldest % 2 == 0), "at {i}");
            assert_eq!(known(&memo, key(i)), Some(i % 2 == 0));
            assert!(memo.current.len() + memo.previous.len() <= VOTE_MEMO_MAX);
        }
        assert_eq!(known(&memo, key(0)), None, "old verdicts are forgotten");
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
