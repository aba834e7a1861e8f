//! The commit pipeline: ordering → execution → durability → replies,
//! off the consensus thread.
//!
//! Consensus (the protocol state machine in [`crate::ReplicaRuntime`]'s
//! event loop) never touches a file descriptor. Every [`CommitInfo`] it
//! announces is pushed into a **bounded** queue feeding this worker;
//! the bound is the ack-queue depth — if storage or execution fall that
//! far behind, consensus feels backpressure instead of growing an
//! unbounded buffer. The worker drains the queue in groups: each commit
//! is **executed first** against the KV store — the resulting Merkle
//! `state_root` is sealed into the block (header v3, execute-then-seal)
//! — then all appends of a group hit the segmented log with the sync
//! policy forced to manual, **one** fsync covers the whole group (group
//! commit), and only then are results acknowledged upward as client
//! informs — nothing is acknowledged before it is durable. When the
//! store's cadence says a snapshot is due, `maybe_snapshot` writes one
//! of the whole state, chunked by `KvStore::to_chunks` exactly as a
//! chunked transfer serves it.
//!
//! Every block joins the chain through one routine, `Pipeline::extend`,
//! whether it is a live commit, a catch-up block or the recovered log
//! tail: deterministic execution order is consensus-critical under
//! execute-then-seal, and that routine holds "sealed root == re-executed
//! root" on every path, in every build profile.
//!
//! The chain store is one [`DurableLedger`] for every deployment: the
//! runtime opens it on the replica's storage directory, or builds
//! [`DurableLedger::in_memory`] when there is none. The difference stays
//! inside the store — a memory-only one writes nothing, is never due for
//! a snapshot, and syncs at once — and the pipeline asks about it only
//! at construction: a store with a directory boots in catch-up.
//!
//! Every block that reaches storage carries a **verified commit
//! certificate**: the protocol layer surfaces the certifying votes
//! (signer set plus one Ed25519 signature per signer over the vote
//! statement) through `CommitInfo::cert`, this worker copies them into
//! the block's `CommitProof`, and two checks gate the append —
//! non-empty, duplicate-free, known signers meeting the phase's quorum,
//! **and every signature batch-verified against the signer's public
//! key**. Blocks received through state transfer get both from
//! `spotless_ledger::verify_proof`. A live certificate has had its
//! signature pass on the event loop before it gets here: the loop
//! checks each vote through its vote memo — a lookup for every vote the
//! protocol checked as it arrived — drops the pairs that fail and
//! downgrades the phase if the survivors no longer meet the strong
//! quorum, so one forged vote smuggled into an otherwise-valid quorum
//! cannot poison the pipeline. The commit arrives with the result as a
//! [`VerifiedProof`], and only `verify_proof_rules` runs on it here:
//! each vote is verified once per replica.
//!
//! The worker also owns the runtime-level **state-transfer** exchange,
//! which runs in two modes. A replica that restarts from its durable
//! log knows its chain height and its (snapshot-recovered) execution
//! height, but the cluster has moved on. It asks a peer for executed
//! blocks from its execution height. If the peer still holds that
//! range, it answers with **block replay**: responses are verified
//! five ways — payload bytes must hash to the block's batch digest,
//! each block's commit certificate must pass quorum verification,
//! blocks already on the local chain must agree hash-for-hash, new
//! blocks must extend the local head through the hash-chain check, and
//! re-executing each payload must reproduce the block's sealed
//! `state_root` — then applied. Serving replays from the store's
//! chain tail ([`DurableLedger::payload`]). If the peer has pruned
//! past the requested height (its tail starts above it), it
//! opens a **chunked snapshot transfer** instead: a manifest first
//! (certified head block + application meta verified against the
//! head's `state_root` by Merkle inclusion proof + the chunk plan),
//! then ranged chunk fetches — each chunk's buckets verified against
//! the same root before a byte is trusted, out-of-order arrival
//! tolerated, missing chunks re-requested on the periodic tick, the
//! serving peer rotated when it stalls. Verified chunks land in the
//! crash-safe install journal (`spotless_storage::transfer`), so an
//! interrupted transfer **resumes** after a restart instead of
//! starting over. Once complete, the assembled state is audited one
//! final time against the chain's root and installed wholesale.
//!
//! While catching up the replica does not participate in consensus at
//! all: the event loop starts the protocol node only once the shared
//! `synced` flag is raised (see [`crate::ReplicaRuntime`]), and this
//! worker raises it only after it has left catch-up, once a weak quorum
//! of peers confirms we stand at their heads. So every live commit
//! reaches a synced pipeline, and none needs buffering.

use crate::envelope::{
    decode_ref, encode_catchup_manifest, encode_catchup_req, encode_catchup_resp, encode_chunk,
    encode_chunk_req, CatchUpBlock, ChunkInfo, ChunkTransfer, Envelope, TransferManifest, WireMsg,
};
use crate::executor::execute_group;
use crate::fabric::Fabric;
use crate::observe::{CommitLog, CommittedEntry, Inform};
use crate::runtime::VerifiedProof;
use spotless_crypto::{proof_index, verify_inclusion, KeyStore, ProofStep};
use spotless_ledger::{verify_proof, verify_proof_rules, Block, CommitProof, ProofRules};
use spotless_storage::snapshot::Snapshot;
use spotless_storage::transfer::{InstallJournal, InstallManifest};
use spotless_storage::DurableLedger;
use spotless_types::{
    BatchId, ClientBatch, ClientId, ClusterConfig, CommitInfo, Digest, ReplicaId, SimTime,
};
use spotless_workload::{
    decode_txns, shard_of_bucket, verify_bucket, KvStore, StateChunk, Transaction, META_LEAF,
    STATE_BUCKETS,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use tokio::sync::mpsc;

/// Upper bound on blocks per catch-up response; the requester iterates.
const CATCHUP_MAX_BLOCKS: usize = 256;

/// Upper bound on cumulative *payload* bytes per catch-up response.
/// The fabric rejects frames over `SIMPLE_FRAME_LIMIT` — so a
/// block-count bound alone would let realistic batches (hundreds of KB
/// each) build unsendable responses and wedge catch-up forever. The
/// binary wire codec carries payload bytes 1:1 (the JSON-era hex
/// doubling is gone), so an eighth of the frame limit in raw payload
/// keeps the serialized frame comfortably inside it with generous
/// headroom for block metadata.
const CATCHUP_MAX_BYTES: usize = spotless_types::SNAPSHOT_CHUNK_BYTES;

/// Chunk fetches kept in flight at once during a snapshot transfer
/// (bounds the memory a slow receiver commits to unprocessed frames).
const MAX_INFLIGHT_CHUNKS: usize = 4;

/// Catch-up ticks a chunked transfer may stall (no chunk accepted)
/// before the receiver abandons the serving peer and rotates. The
/// journal keeps the verified chunks, so a rotation back to the same
/// transfer resumes rather than restarts.
const TRANSFER_STALL_TICKS: u32 = 4;

/// Ticks a frozen outgoing snapshot slot may sit untouched (no manifest
/// or chunk request against it) before the serving side releases it.
/// Each slot pins a full copy of the state plus every proof; a
/// requester that vanished mid-transfer must not leave it pinned until
/// the next serve. Generous relative to [`TRANSFER_STALL_TICKS`]: a
/// live receiver re-requests every one of its ticks, so only a
/// genuinely dead transfer ages this far. At the default 150 ms tick
/// this is ~10 s of silence. Each slot ages independently.
const OUTGOING_SNAPSHOT_IDLE_TICKS: u32 = 64;

/// Outgoing snapshot slots cached at once. Two slots cover the
/// head-of-line case that matters: one peer mid-transfer at a frozen
/// height while a second peer manifests at the (newer) current height —
/// with a single slot the second request used to evict the first
/// transfer, forcing its receiver to re-manifest and ping-pong. More
/// concurrent *distinct heights* than slots degrade gracefully: the
/// idlest slot is evicted and its receiver re-manifests (its journal
/// keeps verified chunks, so the transfer resumes, not restarts).
/// Deliberately small — each slot pins a full state copy plus proofs.
const OUTGOING_SNAPSHOT_SLOTS: usize = 2;

/// Commands flowing from the event loop into the pipeline.
// `Commit` dwarfs the other variants, but it is also the hot variant —
// boxing it would buy queue-slot bytes with an allocation per commit.
#[allow(clippy::large_enum_variant)]
pub(crate) enum PipelineCmd {
    /// A consensus decision to persist, execute, and acknowledge, under
    /// the proof the event loop checked its certificate into. Never a
    /// no-op: those persist nothing and stay on the loop.
    Commit(CommitInfo, VerifiedProof),
    /// A signature-verified transfer-family envelope (any tag except
    /// `TAG_PROTOCOL`), still encoded. The pipeline decodes it off the
    /// event-loop thread — the event loop ships the refcounted
    /// [`Payload`](crate::envelope::Payload) view it already holds, so
    /// routing a multi-megabyte chunk costs a pointer.
    Transfer {
        from: ReplicaId,
        payload: crate::envelope::Payload,
    },
    /// The runtime's periodic tick. While behind: re-issue the catch-up
    /// request or re-fetch missing chunks (rotating peers when one
    /// stalls). While synced: serving-side maintenance — age out frozen
    /// outgoing snapshot slots whose requesters vanished.
    Tick,
}

enum Mode {
    Synced,
    /// Behind the cluster: the gap in the execution order is being
    /// filled from peers.
    CatchingUp {
        /// Peers that confirmed we stand at (or above) their head. One
        /// lagging peer's word is not enough to declare ourselves
        /// caught up — it might be freshly restarted too; a weak quorum
        /// (`f + 1`) of confirmations guarantees at least one honest,
        /// current peer among them.
        confirmed: std::collections::HashSet<ReplicaId>,
    },
}

/// How one batch of a run joins the chain in `Pipeline::extend`.
// `Seal` dwarfs the others, but it is the hot variant — boxing it would
// buy a smaller run with an allocation per commit (as for `PipelineCmd`).
#[allow(clippy::large_enum_variant)]
enum Join {
    /// A live commit under its checked proof: the block seals the root
    /// the batch executes to and is appended with `append_batch`.
    Seal(CommitInfo, CommitProof),
    /// A peer's block the store lacks: its sealed root must match, then
    /// it is appended with `append_block`.
    Append(CatchUpBlock),
    /// A block the store already holds at this height, from its own log
    /// or resupplied in catch-up: its sealed root must match. Its commit
    /// was acknowledged (if at all) before the restart that left it
    /// unexecuted, so it is not acknowledged again.
    Held,
}

/// Receiving-side state of a chunked snapshot transfer in progress.
/// The durable half (manifest + verified chunk bytes) lives in the
/// [`InstallJournal`]; this is the per-session bookkeeping around it.
struct IncomingTransfer {
    /// The peer serving the chunks.
    peer: ReplicaId,
    /// The wire manifest (carries the chunk plan the journal's digest
    /// list was derived from).
    manifest: TransferManifest,
    /// Chunk indexes requested but not yet received.
    inflight: std::collections::HashSet<u32>,
    /// Consecutive ticks without an accepted chunk.
    stalled_ticks: u32,
}

/// One serving-side outgoing snapshot slot: chunks and proofs frozen
/// at the height the manifest was built for, so a multi-round transfer
/// stays internally consistent while this replica keeps executing. Up
/// to [`OUTGOING_SNAPSHOT_SLOTS`] distinct heights are cached at once
/// (keyed by height — the chunk protocol carries the height on every
/// message), so a second recovering peer manifesting at a newer height
/// is served from a fresh slot instead of evicting a transfer another
/// peer is mid-fetch on. Each slot ages out independently on the tick.
/// One frozen outgoing chunk: descriptor, canonical encoding,
/// per-bucket shard-level proofs (empty for fragments), and the shared
/// top-tree proof of the owning shard's sub-root.
type FrozenChunk = (ChunkInfo, Vec<u8>, Vec<Vec<ProofStep>>, Vec<ProofStep>);

struct OutgoingSnapshot {
    height: u64,
    head: Block,
    recent_ids: Vec<BatchId>,
    app_meta: Vec<u8>,
    meta_proof: Vec<ProofStep>,
    chunks: Vec<FrozenChunk>,
    /// Consecutive ticks without a manifest or chunk request against
    /// this slot (see [`OUTGOING_SNAPSHOT_IDLE_TICKS`]).
    idle_ticks: u32,
}

pub(crate) struct Pipeline<F: Fabric> {
    me: ReplicaId,
    cluster: ClusterConfig,
    /// Quorum rules every `CommitProof` is verified against before any
    /// block — locally decided or transferred — reaches the store.
    rules: ProofRules,
    keystore: KeyStore,
    fabric: F,
    /// The chain store: on the replica's storage directory, or
    /// [`DurableLedger::in_memory`] without one.
    store: DurableLedger,
    kv: KvStore,
    /// Height up to which `kv` reflects executed batches (≤ chain height
    /// when a recovered log tail could not be re-executed in full).
    kv_height: u64,
    commits: CommitLog,
    informs: mpsc::UnboundedSender<Inform>,
    mode: Mode,
    synced: Arc<AtomicBool>,
    /// Peer rotation cursor for catch-up requests.
    catchup_cursor: u32,
    /// Raw chunk budget for outgoing snapshots (derived from the frame
    /// limit by default; tests shrink it to force many chunks).
    chunk_budget: usize,
    /// Crash-safe record of a chunked install in progress (resumes
    /// after a restart).
    journal: InstallJournal,
    /// Live bookkeeping of the transfer the journal describes.
    incoming: Option<IncomingTransfer>,
    /// Frozen outgoing snapshot slots served to recovering peers, at
    /// most [`OUTGOING_SNAPSHOT_SLOTS`], keyed by height.
    outgoing: Vec<OutgoingSnapshot>,
    /// Raised when a consensus-decided commit could not be persisted
    /// verifiably (an unverifiable certificate, a root-divergent
    /// re-execution, or a storage append or fsync that failed after
    /// execution).
    /// Dropping such a block while continuing would silently fork this
    /// replica's chain, so instead the pipeline stops acknowledging
    /// anything, turning the fault into a loud crash-style stall the
    /// cluster already tolerates.
    poisoned: bool,
}

impl<F: Fabric> Pipeline<F> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        me: ReplicaId,
        cluster: ClusterConfig,
        keystore: KeyStore,
        fabric: F,
        store: DurableLedger,
        kv: KvStore,
        kv_height: u64,
        journal: InstallJournal,
        chunk_budget: usize,
        commits: CommitLog,
        informs: mpsc::UnboundedSender<Inform>,
        synced: Arc<AtomicBool>,
        allow_catchup: bool,
    ) -> Pipeline<F> {
        let chain_height = store.ledger().height();
        // Self-contained tail replay: the log persists batch payloads,
        // so the blocks logged above the snapshot re-execute locally —
        // a restarted replica reaches its own chain head without asking
        // anyone (peers are only needed for what it *missed*). Only
        // executable payloads are ever appended, so one that does not
        // decode cannot occur on an intact log; the replay stops short
        // of it and peer catch-up re-fills the rest.
        let tail: Vec<_> = (kv_height..chain_height)
            .map_while(|h| Some((decode_payload(store.payload(h)?).ok()?, Join::Held)))
            .collect();
        // Every durable replica boots in catch-up: a height-0 store
        // cannot prove freshness — the process may have crashed before
        // its first group fsync while the cluster moved on. At a
        // genuinely fresh cluster boot this self-resolves in a couple
        // of round trips (peers confirm height 0 immediately).
        // Memory-only replicas start synced: nothing survives a crash,
        // so "restart" is not a supported operation for them. A silent
        // (crash-faulty) deployment must emit nothing — not even
        // catch-up requests — so it never enters catch-up.
        let behind = allow_catchup && (store.dir().is_some() || chain_height > 0 || kv_height > 0);
        let mode = if behind {
            Mode::CatchingUp {
                confirmed: std::collections::HashSet::new(),
            }
        } else {
            Mode::Synced
        };
        synced.store(!behind, Ordering::Relaxed);
        let mut pipeline = Pipeline {
            me,
            rules: ProofRules::for_cluster(&cluster),
            cluster,
            keystore,
            fabric,
            store,
            kv,
            kv_height,
            commits,
            informs,
            mode,
            synced,
            catchup_cursor: 0,
            chunk_budget: chunk_budget.max(1),
            journal,
            incoming: None,
            outgoing: Vec::new(),
            poisoned: false,
        };
        pipeline.extend(tail); // `Held` blocks: nothing to acknowledge
        pipeline
    }

    pub(crate) async fn run(mut self, mut rx: mpsc::Receiver<PipelineCmd>, group_max: usize) {
        if matches!(self.mode, Mode::CatchingUp { .. }) {
            self.send_catchup_req();
        }
        while let Some(first) = rx.recv().await {
            // Drain opportunistically up to the group bound: everything
            // taken here shares one fsync.
            let mut cmds = vec![first];
            while cmds.len() < group_max {
                match rx.try_recv() {
                    Some(cmd) => cmds.push(cmd),
                    None => break,
                }
            }
            let mut group = Vec::new();
            for cmd in cmds {
                match cmd {
                    PipelineCmd::Commit(info, proof) => group.push((info, proof)),
                    other => {
                        self.flush_group(std::mem::take(&mut group));
                        self.handle(other);
                    }
                }
            }
            self.flush_group(group);
        }
    }

    fn handle(&mut self, cmd: PipelineCmd) {
        match cmd {
            PipelineCmd::Commit(..) => unreachable!("commits are grouped by the caller"),
            PipelineCmd::Transfer { from, payload } => self.on_transfer(from, &payload),
            PipelineCmd::Tick => self.on_tick(),
        }
    }

    /// Decodes a transfer-family envelope payload and dispatches it.
    /// Decoding copies block payloads, chunk bytes and app metadata out
    /// of the received buffer once; the handlers move those copies into
    /// the store, the install journal and the commit log. The event loop
    /// already routed by tag and verified the signature; a payload that
    /// fails to decode here is simply dropped.
    fn on_transfer(&mut self, from: ReplicaId, payload: &[u8]) {
        match decode_ref(payload) {
            Some(WireMsg::CatchUpReq { from_height }) => self.serve_catchup(from, from_height),
            Some(WireMsg::CatchUpResp {
                peer_height,
                blocks,
            }) => self.apply_catchup(from, peer_height, blocks),
            Some(WireMsg::Manifest(manifest)) => self.apply_manifest(from, *manifest),
            Some(WireMsg::ChunkReq { height, index }) => self.serve_chunk(from, height, index),
            Some(WireMsg::Chunk(chunk)) => self.apply_chunk(from, *chunk),
            Some(WireMsg::Protocol(_)) | None => {}
        }
    }

    /// Applies a group of live commits: validates all in commit order,
    /// hands the valid ones to [`Self::extend`] to execute, seal, append
    /// and fsync, and acknowledges them. Live commits reach only a
    /// synced pipeline (see the module docs).
    fn flush_group(&mut self, group: Vec<(CommitInfo, VerifiedProof)>) {
        if group.is_empty() || self.poisoned {
            return;
        }
        debug_assert!(
            matches!(self.mode, Mode::Synced),
            "a live commit reached a pipeline that is still catching up"
        );
        // Execute-then-seal. The roots sealed below are a function of
        // the exact chain prefix executed so far, which makes
        // deterministic execution order consensus-critical — assert the
        // alignment before the group runs.
        debug_assert_eq!(
            self.kv_height,
            self.store.ledger().height(),
            "execute-then-seal requires the KV state to track the chain head exactly"
        );
        // Validate in commit order. Skips batches the store already
        // holds (via catch-up, or covered by a snapshot whose batch-id
        // dedup set remembers it — a rejoining protocol instance
        // re-announces the chain tail it just learned, and re-executing
        // any of it would fork this replica's state), and duplicates
        // *within* this group (appends happen after the whole group
        // executes, so `knows_batch` alone cannot see them). Payloads
        // are decoded before anything executes: the chain only ever
        // holds executable blocks, so a restarted replica can always
        // re-execute its log tail.
        let mut run = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for (info, proof) in group {
            if self.store.knows_batch(info.batch.id) || !seen.insert(info.batch.id) {
                continue;
            }
            let txns = match decode_payload(&info.batch.payload) {
                Ok(txns) => txns,
                Err(()) => continue, // malformed payload: never commit it
            };
            // The protocol's commit certificate becomes the block's
            // durable proof — and it is refused unless the signer set
            // is non-empty, duplicate-free, within the cluster, meets
            // the phase's quorum, and every signature verifies against
            // its signer's key. Every pair left in a `VerifiedProof`
            // has verified on the event loop, so the rules are all that
            // is left to check.
            let proof = proof.into_proof();
            if verify_proof_rules(&proof, &self.rules).is_err() {
                // The batch WAS decided cluster-wide; skipping it while
                // continuing to append later commits would leave a
                // silent hole that forks this replica's chain and
                // state. Poison the pipeline instead (same contract as
                // a failed fsync): the valid prefix gathered so far
                // still commits, then nothing further is appended or
                // acknowledged, and the replica presents as crashed
                // until restarted. Reachable from forged input (a
                // certificate whose surviving votes fall below the
                // weak quorum), so no debug assertion — loud-stalling
                // is the contract, aborting is not.
                self.poisoned = true;
                break;
            }
            run.push((txns, Join::Seal(info, proof)));
        }
        let acked = self.extend(run);
        self.acknowledge(acked);
    }

    /// The one way onto the chain: puts a commit-ordered run of decoded
    /// batches at heights `kv_height..` and returns the commits to
    /// acknowledge, each with its post-batch state digest.
    ///
    /// 1. The whole run executes through [`execute_group`], serially on
    ///    this thread (`None` batches seal the untouched state).
    /// 2. In commit order, a live commit seals the root it executed to;
    ///    any other block must have sealed exactly that root. The first
    ///    that did not — or a failed append — poisons the pipeline (the
    ///    KV state has left the chain; a restart rebuilds it) and
    ///    nothing of the run is acknowledged. A root can come from a
    ///    peer, so this is a stall, never an assertion.
    /// 3. Blocks the store lacks are appended as they pass: live commits
    ///    with `append_batch`, peer blocks with `append_block`.
    /// 4. One fsync covers the appends (group commit). If it fails,
    ///    nothing may be acknowledged — the client would count an ack
    ///    for state a crash can still lose — and the pipeline poisons.
    fn extend(&mut self, run: Vec<(Option<Vec<Transaction>>, Join)>) -> Vec<(CommitInfo, Digest)> {
        if run.is_empty() {
            return Vec::new();
        }
        let (txns, joins): (Vec<_>, Vec<_>) = run.into_iter().unzip();
        let sealed = execute_group(None, &mut self.kv, txns);
        let mut acked = Vec::new();
        for (join, sealed) in joins.into_iter().zip(sealed) {
            let joined = match join {
                Join::Seal(info, proof) => {
                    let ok = self
                        .store
                        .append_batch(
                            info.batch.id,
                            info.batch.digest,
                            info.batch.txns,
                            sealed.state_root,
                            proof,
                            &info.batch.payload,
                        )
                        .is_ok();
                    acked.push((info, sealed.state_digest));
                    ok
                }
                Join::Append(CatchUpBlock { block, payload }) => {
                    let info = commit_info_of(&block, payload);
                    let ok = block.state_root == sealed.state_root
                        && self.store.append_block(block, &info.batch.payload).is_ok();
                    acked.push((info, sealed.state_digest));
                    ok
                }
                Join::Held => self
                    .store
                    .ledger()
                    .block(self.kv_height)
                    .is_some_and(|held| held.state_root == sealed.state_root),
            };
            if !joined {
                self.poisoned = true;
                return Vec::new();
            }
            self.kv_height += 1;
        }
        // Exactly the blocks appended are acknowledged.
        if !acked.is_empty() {
            if self.store.sync().is_err() {
                self.poisoned = true;
                return Vec::new();
            }
            self.maybe_snapshot();
        }
        acked
    }

    /// Reports executed, durable commits to the commit log and, as
    /// informs, to the clients.
    fn acknowledge(&self, acked: Vec<(CommitInfo, Digest)>) {
        for (info, result) in acked {
            let batch = info.batch.id;
            self.commits.push(CommittedEntry {
                replica: self.me,
                info,
                state_digest: result,
            });
            let _ = self.informs.send(Inform {
                from: self.me,
                batch,
                result,
            });
        }
    }

    /// Writes a durable snapshot of the whole state if one is due: the
    /// chunks of `KvStore::to_chunks`, as `build_manifest` serves them.
    /// Chunks are content-addressed on disk, so one that did not change
    /// since the previous snapshot is not rewritten. The snapshot
    /// empties the store's chain tail: peers that need history below it
    /// get the chunked transfer.
    fn maybe_snapshot(&mut self) {
        if !self.store.snapshot_due() {
            return;
        }
        let chunks: Vec<Vec<u8>> = self
            .kv
            .to_chunks(self.chunk_budget)
            .iter()
            .map(StateChunk::encode)
            .collect();
        // A failed snapshot stays due and is retried after the next
        // group; the log still holds every block it would cover.
        let _ = self.store.force_snapshot(&self.kv.transfer_meta(), &chunks);
    }

    // ── state transfer: serving side ────────────────────────────────

    /// Answers a catch-up request in one of two modes: **block replay**
    /// when the store's chain tail still holds the requested height, or
    /// the **manifest of a chunked snapshot transfer** when the
    /// requester wants history below the tail.
    fn serve_catchup(&mut self, to: ReplicaId, from_height: u64) {
        let height = self.store.ledger().height();
        if from_height < height && self.store.payload(from_height).is_none() {
            if let Some(manifest) = self.build_manifest() {
                let env = Envelope::seal(&self.keystore, encode_catchup_manifest(&manifest));
                self.fabric.send(to, env);
                return;
            }
            // No snapshot to offer (nothing executed yet): fall through
            // to an empty block response so the requester rotates on.
        }
        // Note what does NOT happen here: a requester that has
        // installed (or replayed past) a frozen snapshot does not
        // eagerly release its slot. Two recovering peers are routinely
        // served from the *same* frozen height, and the first finisher
        // must not yank the snapshot out from under the second one
        // mid-fetch — that stall-then-re-manifest is exactly the
        // head-of-line blocking the per-height slots remove. The
        // per-slot idle age-out (`on_tick`) bounds how long a slot can
        // pin its full state copy once nobody fetches from it.
        let mut blocks = Vec::new();
        let mut bytes = 0usize;
        for h in from_height..height {
            if blocks.len() >= CATCHUP_MAX_BLOCKS || bytes >= CATCHUP_MAX_BYTES {
                break;
            }
            let (Some(block), Some(payload)) =
                (self.store.ledger().block(h), self.store.payload(h))
            else {
                break;
            };
            bytes += payload.len() + 160; // block overhead estimate
            blocks.push(CatchUpBlock {
                block: block.clone(),
                payload: payload.to_vec(),
            });
        }
        let env = Envelope::seal(&self.keystore, encode_catchup_resp(height, &blocks));
        self.fabric.send(to, env);
    }

    /// Builds (or reuses) a frozen outgoing snapshot slot at the
    /// current execution height and returns its manifest. `None` when
    /// nothing has executed yet (a height-0 "snapshot" carries no
    /// certificate and transfers nothing a fresh boot lacks).
    ///
    /// Slots are keyed by height: a second recovering peer arriving
    /// while the chain has advanced gets its *own* frozen snapshot
    /// instead of evicting the one the first peer is mid-fetch on —
    /// concurrent transfers proceed independently. When all
    /// [`OUTGOING_SNAPSHOT_SLOTS`] are taken, the idlest slot (largest
    /// `idle_ticks`) is evicted; its requester re-manifests on its next
    /// tick and resumes from its journal.
    fn build_manifest(&mut self) -> Option<TransferManifest> {
        let height = self.kv_height;
        let peer_height = self.store.ledger().height();
        if !self.outgoing.iter().any(|o| o.height == height) {
            let head = self.store.block_at(height.checked_sub(1)?)?.clone();
            let prover = self.kv.state_prover();
            // The head block sealed the root of exactly this state: the
            // KV store has not executed anything since (kv_height pins
            // it). A mismatch here is an execute-then-seal bug.
            debug_assert_eq!(prover.root(), head.state_root);
            let meta_proof = prover.prove_meta()?;
            let mut chunks = Vec::new();
            for chunk in self.kv.to_chunks(self.chunk_budget) {
                // One top-tree proof per chunk: a chunk never crosses a
                // shard boundary, so every bucket in it shares the same
                // sub-root.
                let top_proof = prover.prove_shard(shard_of_bucket(chunk.first_bucket as usize))?;
                let mut proofs = Vec::new();
                if chunk.parts == 1 {
                    proofs.reserve(chunk.buckets.len());
                    for off in 0..chunk.buckets.len() {
                        let (shard_proof, _) =
                            prover.prove_bucket(chunk.first_bucket as usize + off)?;
                        proofs.push(shard_proof);
                    }
                }
                // Fragments of an oversized bucket carry no per-bucket
                // proofs: the leaf digest covers the *assembled* bucket,
                // so fragments are pinned by content digest here and the
                // assembled state is audited against the certified root
                // at install.
                let encoded = chunk.encode();
                chunks.push((
                    ChunkInfo {
                        first_bucket: chunk.first_bucket,
                        buckets: chunk.buckets.len() as u32,
                        part: chunk.part,
                        parts: chunk.parts,
                        digest: spotless_crypto::digest_bytes(&encoded),
                    },
                    encoded,
                    proofs,
                    top_proof,
                ));
            }
            if self.outgoing.len() >= OUTGOING_SNAPSHOT_SLOTS {
                // Evict the slot idle longest: it belongs to the
                // transfer most likely already abandoned, and its
                // requester recovers by re-manifesting (journal keeps
                // its verified chunks).
                if let Some(idlest) = self
                    .outgoing
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, o)| o.idle_ticks)
                    .map(|(i, _)| i)
                {
                    self.outgoing.swap_remove(idlest);
                }
            }
            self.outgoing.push(OutgoingSnapshot {
                height,
                head,
                recent_ids: self.store.recent_batches().iter().collect(),
                app_meta: self.kv.transfer_meta(),
                meta_proof,
                chunks,
                idle_ticks: 0,
            });
        }
        let o = self.outgoing.iter_mut().find(|o| o.height == height)?;
        // Serving (or re-serving) the manifest counts as activity on
        // the frozen snapshot — the age-out clock restarts.
        o.idle_ticks = 0;
        Some(TransferManifest {
            height: o.height,
            peer_height,
            head: o.head.clone(),
            recent_ids: o.recent_ids.clone(),
            app_meta: o.app_meta.clone(),
            meta_proof: o.meta_proof.clone(),
            chunks: o.chunks.iter().map(|(info, _, _, _)| *info).collect(),
        })
    }

    /// Serves one chunk of a frozen outgoing snapshot slot. Requests
    /// for a height we are not serving are dropped — the requester's
    /// tick re-requests the manifest and re-synchronizes on whatever
    /// height we can serve next.
    fn serve_chunk(&mut self, to: ReplicaId, height: u64, index: u32) {
        // Not (or no longer) serving that height → drop. If we could
        // serve a fresh snapshot, rebuilding eagerly here would evict a
        // transfer another peer may be mid-fetch on; let the requester
        // re-manifest instead.
        let Some(o) = self.outgoing.iter_mut().find(|o| o.height == height) else {
            return;
        };
        // A fetch against a served height is the liveness signal that
        // slot's age-out watches for.
        o.idle_ticks = 0;
        let Some((_, encoded, proofs, top_proof)) = o.chunks.get(index as usize) else {
            return;
        };
        let transfer = ChunkTransfer {
            height,
            index,
            chunk: encoded.clone(),
            proofs: proofs.clone(),
            top_proof: top_proof.clone(),
        };
        let env = Envelope::seal(&self.keystore, encode_chunk(&transfer));
        self.fabric.send(to, env);
    }

    // ── catch-up: requesting side ───────────────────────────────────

    fn send_catchup_req(&mut self) {
        let n = self.cluster.n;
        if n <= 1 {
            self.finish_catchup();
            return;
        }
        // Rotate over peers, skipping ourselves.
        let offset = 1 + self.catchup_cursor % (n - 1);
        let peer = ReplicaId((self.me.0 + offset) % n);
        let env = Envelope::seal(&self.keystore, encode_catchup_req(self.kv_height));
        self.fabric.send(peer, env);
    }

    /// Applies a block-replay response: checks each block in order,
    /// keeps the prefix that passes, and hands it to [`Self::extend`],
    /// which re-executes it and holds every block to the root it sealed.
    /// A new block's payload moves into the `CommitInfo` the commit log
    /// records; the store's chain tail keeps its own copy.
    fn apply_catchup(&mut self, from: ReplicaId, peer_height: u64, blocks: Vec<CatchUpBlock>) {
        if !matches!(self.mode, Mode::CatchingUp { .. }) || self.poisoned {
            return; // stale response
        }
        let chain_height = self.store.ledger().height();
        // The height and parent the next block must have: the prefix is
        // appended only after it is checked, so a later block links to
        // the previous block in the response, not to the store's head.
        let mut next = self.kv_height;
        let mut parent = self.store.ledger().head_hash();
        let mut run = Vec::new();
        for cb in blocks {
            let h = cb.block.height;
            if h < next {
                continue; // already executed
            }
            if h != next {
                // The response skips ahead of our execution height
                // (genuine blocks we hold but have not re-executed yet,
                // or a gapped reply): executing out of order would seal
                // the wrong state under later roots.
                break;
            }
            // Payload bytes must hash to the batch digest the block
            // commits to — unconditionally, or a Byzantine peer could
            // strip payloads and silently diverge our execution state.
            // (Legitimately empty batches hash the empty byte string.)
            if spotless_crypto::digest_bytes(&cb.payload) != cb.block.batch_digest {
                break; // forged or corrupt: keep what validated so far
            }
            let Ok(txns) = decode_payload(&cb.payload) else {
                break; // undecodable payload: same treatment
            };
            // The block's commit certificate must verify before it may
            // touch our chain — a peer cannot launder an uncertified
            // block through state transfer. (For blocks we already hold
            // the equality check below re-asserts the same thing.)
            if verify_proof(&cb.block.proof, &self.rules, &self.keystore).is_err() {
                break;
            }
            let join = if h < chain_height {
                // We hold this block already (logged before the crash);
                // the peer is only supplying the payload to re-execute.
                // Hashes bind the canonical content — state root
                // included — so equality covers everything; the
                // certificates may legitimately differ (each replica
                // persists the quorum evidence *it* collected).
                match self.store.ledger().block(h) {
                    Some(mine) if mine.hash == cb.block.hash => Join::Held,
                    _ => break, // divergent peer: drop the rest
                }
            } else {
                // New to us: all structural checks BEFORE any state
                // mutation — once we execute, a reject can no longer be
                // clean. The re-executed root is `extend`'s to check:
                // a mismatch means nondeterministic local execution,
                // since forging a chain extension requires forging the
                // certificate `verify_proof` rejected above.
                if cb.block.parent != parent || !cb.block.verify_hash() {
                    break;
                }
                parent = cb.block.hash;
                Join::Append(cb)
            };
            run.push((txns, join));
            next += 1;
        }
        let progressed = !run.is_empty();
        let acked = self.extend(run);
        if self.poisoned {
            return;
        }
        self.acknowledge(acked);
        self.note_peer_head(from, peer_height, progressed);
    }

    // ── chunked snapshot transfer: receiving side ───────────────────

    /// Validates a transfer manifest and begins (or resumes) fetching
    /// its chunks. Everything checkable before chunks flow is checked
    /// here: the head block must sit just below the claimed height, its
    /// hash must recompute, its commit certificate must pass quorum
    /// verification, the application meta must prove against the head's
    /// `state_root` at the meta leaf, and the chunk plan must partition
    /// the bucket space. Anything less and the manifest is ignored (the
    /// periodic tick rotates to another peer).
    ///
    /// A usable snapshot strictly dominates local state: it must cover
    /// more than we have executed and at least as much as we have
    /// logged — our chain is then a verified prefix of what the
    /// certified head summarizes, so replacing it wholesale loses
    /// nothing. (Consensus participation is held off until catch-up
    /// completes, so no live commit can be buffered below the installed
    /// height.)
    fn apply_manifest(&mut self, from: ReplicaId, manifest: TransferManifest) {
        if !matches!(self.mode, Mode::CatchingUp { .. }) || self.poisoned {
            return; // stale
        }
        let chain_height = self.store.ledger().height();
        let usable = manifest.height > self.kv_height && manifest.height >= chain_height;
        if !usable {
            self.note_peer_head(from, manifest.peer_height, false);
            return;
        }
        let head_ok = manifest.head.height.checked_add(1) == Some(manifest.height)
            && manifest.head.verify_hash()
            && verify_proof(&manifest.head.proof, &self.rules, &self.keystore).is_ok();
        let meta_ok = proof_index(&manifest.meta_proof) == META_LEAF
            && verify_inclusion(
                &manifest.app_meta,
                &manifest.meta_proof,
                &manifest.head.state_root,
            );
        let plan_ok = chunk_plan_covers(&manifest.chunks);
        if !head_ok || !meta_ok || !plan_ok {
            return; // Byzantine or corrupt manifest: tick rotates on
        }
        let install = InstallManifest {
            height: manifest.height,
            head_block: manifest.head.clone(),
            recent_ids: manifest.recent_ids.clone(),
            // The journal and the transfer's bookkeeping below each keep
            // the app meta: one copy here, after every check passed.
            app_meta: manifest.app_meta.clone(),
            chunk_digests: manifest.chunks.iter().map(|c| c.digest).collect(),
        };
        // While a transfer is live, a *different* manifest is ignored —
        // accepting it would reset the journal, and an unsolicited
        // stream of fresh manifests from one faulty peer could starve
        // recovery by wiping verified chunks every tick. A manifest for
        // the *same* transfer is welcome from anyone (it just switches
        // the serving peer — useful when the original server died);
        // retargeting to a genuinely newer snapshot happens after the
        // current transfer stalls out and is abandoned (see `on_tick`),
        // at which point `incoming` is `None` and this guard passes.
        // The journal's manifest is the authoritative "current
        // transfer" (it is what a crash resumes from).
        if self.incoming.is_some()
            && self
                .journal
                .manifest()
                .is_some_and(|current| !current.same_transfer(&install))
        {
            return;
        }
        // begin() is a no-op when the journal already tracks the same
        // transfer (the resume path — chunks verified before a crash or
        // peer rotation are kept); a different target resets it.
        if self.journal.begin(install).is_err() {
            return; // journal I/O failure: try again on the next tick
        }
        self.incoming = Some(IncomingTransfer {
            peer: from,
            manifest,
            inflight: std::collections::HashSet::new(),
            stalled_ticks: 0,
        });
        if self.journal.is_complete() {
            self.try_install();
        } else {
            self.request_missing_chunks();
        }
    }

    /// Verifies one arriving chunk against the chain's state root and
    /// journals it; installs when the set completes. The decoded chunk
    /// bytes move into the journal, and only after proving.
    fn apply_chunk(&mut self, from: ReplicaId, chunk: ChunkTransfer) {
        if self.poisoned {
            return;
        }
        let Some(t) = &mut self.incoming else {
            return; // no transfer in progress
        };
        if chunk.height != t.manifest.height || from != t.peer {
            return; // stale or misdirected
        }
        let Some(info) = t.manifest.chunks.get(chunk.index as usize).copied() else {
            return;
        };
        t.inflight.remove(&chunk.index);
        if self.journal.has_chunk(chunk.index) {
            self.request_missing_chunks();
            return; // duplicate
        }
        // Verification order: cheap structure first. A whole chunk then
        // proves every bucket through its shard sub-tree and the shared
        // top proof against the head block's state_root — nothing is
        // journaled, let alone installed, unless every bucket proves
        // membership at its exact leaf index. Fragments of an oversized
        // bucket cannot carry per-arrival proofs (the Merkle leaf
        // covers the *assembled* bucket), so they are pinned to the
        // manifest's content digest here and the assembled state is
        // audited against the certified root in `try_install`.
        let ok = (|| {
            let sc = StateChunk::decode(&chunk.chunk)?;
            if sc.first_bucket != info.first_bucket
                || sc.buckets.len() != info.buckets as usize
                || sc.part != info.part
                || sc.parts != info.parts
            {
                return None;
            }
            if sc.parts > 1 {
                if !chunk.proofs.is_empty()
                    || spotless_crypto::digest_bytes(&chunk.chunk) != info.digest
                {
                    return None;
                }
                return Some(());
            }
            if chunk.proofs.len() != sc.buckets.len() {
                return None;
            }
            let root = &t.manifest.head.state_root;
            for (off, (bucket, proof)) in sc.buckets.iter().zip(&chunk.proofs).enumerate() {
                let b = sc.first_bucket as usize + off;
                if !verify_bucket(b, bucket, proof, &chunk.top_proof, root) {
                    return None;
                }
            }
            Some(())
        })();
        if ok.is_none() {
            // Corrupt or Byzantine chunk: never journaled, never
            // installed. The tick re-requests; persistent garbage from
            // this peer stalls the transfer and rotates us away.
            return;
        }
        t.stalled_ticks = 0;
        if self.journal.put_chunk(chunk.index, chunk.chunk).is_err() {
            return; // journal I/O failure: the tick will re-request
        }
        if self.journal.is_complete() {
            self.try_install();
        } else {
            self.request_missing_chunks();
        }
    }

    /// Keeps up to [`MAX_INFLIGHT_CHUNKS`] fetches outstanding.
    fn request_missing_chunks(&mut self) {
        let Some(t) = &mut self.incoming else { return };
        let height = t.manifest.height;
        let peer = t.peer;
        let mut to_send = Vec::new();
        for index in self.journal.missing() {
            if t.inflight.len() >= MAX_INFLIGHT_CHUNKS {
                break;
            }
            if t.inflight.insert(index) {
                to_send.push(index);
            }
        }
        for index in to_send {
            let env = Envelope::seal(&self.keystore, encode_chunk_req(height, index));
            self.fabric.send(peer, env);
        }
    }

    /// Assembles the completed transfer, audits it against the chain's
    /// root one final time, and installs it wholesale.
    fn try_install(&mut self) {
        let Some(t) = self.incoming.take() else {
            return;
        };
        let Some(encoded_chunks) = self.journal.assembled_chunks() else {
            self.incoming = Some(t);
            return;
        };
        let decoded: Option<Vec<StateChunk>> = encoded_chunks
            .iter()
            .map(|c| StateChunk::decode(c))
            .collect();
        let assembled = decoded
            .and_then(|chunks| KvStore::from_transfer(&t.manifest.app_meta, &chunks))
            .filter(|kv| {
                // The final gate: the assembled store's root — computed
                // from nothing but the received bytes — must equal the
                // root the chain committed. Per-chunk proofs make a
                // failure here practically impossible, but the audit
                // keeps even a buggy journal from poisoning the store.
                kv.rebuild_state_root() == t.manifest.head.state_root
            });
        let Some(mut kv) = assembled else {
            // Assembly failed despite per-chunk verification: discard
            // the journal (its contents are not trustworthy as a set)
            // and let the tick restart the transfer from scratch.
            let _ = self.journal.wipe();
            return;
        };
        kv.state_root(); // warm the incremental caches before going live
        let height = t.manifest.height;
        let snapshot = Snapshot {
            height,
            head_hash: t.manifest.head.hash,
            head_block: Some(t.manifest.head),
            recent_ids: t.manifest.recent_ids,
            app_meta: t.manifest.app_meta,
            app_chunks: encoded_chunks,
        };
        if self.store.install_snapshot(&snapshot).is_err() {
            return; // storage failure: stall (poisoned store contract)
        }
        self.kv = kv;
        self.kv_height = height;
        let _ = self.journal.wipe();
        self.note_peer_head(t.peer, t.manifest.peer_height, true);
    }

    /// The runtime's periodic tick. Serving side (any mode): age out
    /// frozen outgoing snapshot slots no requester has touched for
    /// [`OUTGOING_SNAPSHOT_IDLE_TICKS`] ticks — a receiver that
    /// vanished mid-transfer must not pin a full state copy until the
    /// next serve. Each slot ages independently: one active transfer
    /// must not keep an abandoned one alive. Requesting side (while
    /// behind): re-request missing chunks of a live transfer (rotating
    /// the serving peer when it stalls), or re-issue the catch-up
    /// request to the next peer.
    fn on_tick(&mut self) {
        for o in &mut self.outgoing {
            o.idle_ticks += 1;
        }
        // A requester that went quiet for the whole window dropped its
        // slot. If it comes back it re-manifests (its own tick
        // re-requests on silence), and the journal on its side keeps
        // already-verified chunks, so the restarted transfer resumes
        // rather than restarts.
        self.outgoing
            .retain(|o| o.idle_ticks <= OUTGOING_SNAPSHOT_IDLE_TICKS);
        if !matches!(self.mode, Mode::CatchingUp { .. }) {
            return;
        }
        if let Some(t) = &mut self.incoming {
            t.stalled_ticks += 1;
            if t.stalled_ticks <= TRANSFER_STALL_TICKS {
                // Re-request everything missing (lost frames leave
                // stale inflight entries behind; clearing re-arms them).
                t.inflight.clear();
                self.request_missing_chunks();
                return;
            }
            // The serving peer went quiet. Abandon the session — the
            // journal keeps every verified chunk, so if another peer
            // serves the same snapshot the transfer resumes where it
            // stopped.
            self.incoming = None;
        }
        self.catchup_cursor += 1; // previous peer did not get us there
        self.send_catchup_req();
    }

    /// Confirmation bookkeeping shared by both transfer modes.
    ///
    /// "At this peer's head" must also mean our *own* chain is fully
    /// executed: after a restart the log can be ahead of the KV
    /// snapshot, and declaring ourselves synced before re-executing
    /// those logged blocks would hide the gap forever (live-commit
    /// dedup skips blocks already on the chain).
    fn note_peer_head(&mut self, from: ReplicaId, peer_height: u64, progressed: bool) {
        let chain_height = self.store.ledger().height();
        let at_peer_head = self.kv_height >= chain_height && chain_height >= peer_height;
        let weak_quorum = self.cluster.weak_quorum() as usize;
        let quorum_confirmed = {
            let Mode::CatchingUp { confirmed, .. } = &mut self.mode else {
                return;
            };
            if progressed {
                // The cluster head moved under us; earlier
                // confirmations are stale.
                confirmed.clear();
            }
            if !at_peer_head {
                // More to fetch: keep pulling from the same peer.
                None
            } else {
                // This peer has nothing above us. One lagging peer
                // proves nothing (it may be freshly restarted itself);
                // collect a weak quorum of such confirmations before
                // declaring ourselves caught up.
                confirmed.insert(from);
                Some(confirmed.len() >= weak_quorum)
            }
        };
        match quorum_confirmed {
            Some(true) => self.finish_catchup(),
            Some(false) => {
                self.catchup_cursor += 1;
                self.send_catchup_req();
            }
            // Re-request immediately only when this response moved us
            // forward (pulling a long chain in capped slices). A
            // zero-progress response (peer pruned our range, or is
            // behind us) must NOT re-request in a tight loop — the
            // periodic tick retries and rotates peers instead.
            None if progressed => self.send_catchup_req(),
            None => {}
        }
    }

    fn finish_catchup(&mut self) {
        // In this order: the event loop starts the protocol node once it
        // sees `synced`, and its commits must find the pipeline synced.
        self.mode = Mode::Synced;
        self.synced.store(true, Ordering::Relaxed);
    }
}

/// Validates that a manifest's chunk plan partitions the bucket space:
/// whole chunks cover consecutive bucket ranges, and an oversized
/// bucket appears as one complete in-order fragment series (`parts`
/// consecutive chunks of that single bucket, `part` running `0..parts`).
/// Mirrors the assembly rules `KvStore::from_transfer` enforces at
/// install, so a plan accepted here cannot fail assembly structurally.
fn chunk_plan_covers(chunks: &[ChunkInfo]) -> bool {
    let mut next_bucket = 0u64;
    let mut i = 0usize;
    while i < chunks.len() {
        let c = chunks[i];
        if u64::from(c.first_bucket) != next_bucket || c.buckets == 0 {
            return false;
        }
        if c.parts <= 1 {
            if c.part != 0 || c.parts != 1 {
                return false;
            }
            next_bucket += u64::from(c.buckets);
            i += 1;
            continue;
        }
        // Fragment series of one oversized bucket.
        for part in 0..c.parts {
            let Some(f) = chunks.get(i) else {
                return false;
            };
            if f.first_bucket != c.first_bucket
                || f.buckets != 1
                || f.parts != c.parts
                || f.part != part
            {
                return false;
            }
            i += 1;
        }
        next_bucket += 1;
    }
    next_bucket == STATE_BUCKETS as u64
}

/// Decodes a batch payload: `Ok(None)` for the empty (simulation-style)
/// payload, `Ok(Some(txns))` when it parses, `Err(())` when malformed.
fn decode_payload(payload: &[u8]) -> Result<Option<Vec<Transaction>>, ()> {
    if payload.is_empty() {
        return Ok(None);
    }
    decode_txns(payload).map(Some).ok_or(())
}

/// Reconstructs commit metadata for a block appended via catch-up. The
/// original client batch envelope is gone; what matters downstream is the batch
/// identity, digest, payload, and the (re-verified) commit certificate
/// the block carried.
fn commit_info_of(block: &Block, payload: Vec<u8>) -> CommitInfo {
    CommitInfo {
        instance: block.proof.instance,
        view: block.proof.view,
        depth: block.height,
        cert: spotless_types::CommitCertificate {
            view: block.proof.view,
            phase: block.proof.phase,
            voted: block.proof.voted,
            slot: block.proof.slot,
            signers: block.proof.signers.clone(),
            sigs: block.proof.sigs.clone(),
        },
        batch: ClientBatch {
            id: block.batch_id,
            origin: ClientId(u64::MAX),
            digest: block.batch_digest,
            txns: block.txns,
            txn_size: 0,
            created_at: SimTime::ZERO,
            payload,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{live_proof, VoteMemo, VOTE_MEMO_MAX};
    use spotless_types::{CertPhase, ClusterConfig, CommitCertificate, InstanceId, View};

    /// A fabric that drops everything — these tests drive the pipeline
    /// directly and only inspect its internal state.
    #[derive(Clone)]
    struct NullFabric;

    impl Fabric for NullFabric {
        fn send(&self, _to: ReplicaId, _env: Envelope) {}
    }

    /// The key stores the test pipeline's cluster signs with — must
    /// match `synced_pipeline()`'s master seed, or `verify_proof`
    /// rejects every test certificate.
    fn test_stores() -> Vec<KeyStore> {
        KeyStore::cluster(b"pipeline-ageout-test", 4)
    }

    /// A strong commit whose certificate carries genuine signatures
    /// from `signer_ids` over the vote statement binding `digest`.
    fn signed_commit_info(id: u64, digest: Digest, signer_ids: &[u32]) -> CommitInfo {
        let stores = test_stores();
        let signers: Vec<ReplicaId> = signer_ids.iter().map(|&r| ReplicaId(r)).collect();
        let statement = spotless_types::VoteStatement {
            instance: InstanceId(0),
            view: View(id),
            slot: 0,
            digest,
        };
        let sigs = signers
            .iter()
            .map(|r| stores[r.0 as usize].sign_vote(&statement))
            .collect();
        CommitInfo {
            instance: InstanceId(0),
            view: View(id),
            depth: id,
            batch: ClientBatch {
                id: BatchId(id),
                origin: ClientId(0),
                digest,
                txns: 0,
                txn_size: 0,
                created_at: SimTime::ZERO,
                payload: Vec::new(),
            },
            cert: CommitCertificate {
                view: View(id),
                phase: CertPhase::Strong,
                voted: digest,
                slot: 0,
                signers,
                sigs,
            },
        }
    }

    fn commit_info(id: u64) -> CommitInfo {
        signed_commit_info(id, Digest::from_u64(id), &[0, 1, 2])
    }

    /// A synced pipeline for replica 0 of a 4-cluster over `store`, from
    /// an empty KV state, reporting to `commits` and to the returned
    /// inform receiver.
    fn pipeline_over(
        store: DurableLedger,
        commits: CommitLog,
    ) -> (Pipeline<NullFabric>, mpsc::UnboundedReceiver<Inform>) {
        let (informs, inform_rx) = mpsc::unbounded_channel();
        let pipeline = Pipeline::new(
            ReplicaId(0),
            ClusterConfig::new(4),
            test_stores()[0].clone(),
            NullFabric,
            store,
            KvStore::new(),
            0,
            InstallJournal::in_memory(),
            1 << 16,
            commits,
            informs,
            Arc::new(AtomicBool::new(true)),
            false,
        );
        (pipeline, inform_rx)
    }

    /// A synced, in-memory pipeline for replica 0 of a 4-cluster.
    fn synced_pipeline() -> Pipeline<NullFabric> {
        pipeline_over(DurableLedger::in_memory(), CommitLog::default()).0
    }

    /// What the event loop of `synced_pipeline()`'s replica sends for
    /// `info`, its certificate checked through `memo`.
    fn announced(info: CommitInfo, memo: &mut VoteMemo) -> (CommitInfo, VerifiedProof) {
        let strong = ClusterConfig::new(4).quorum();
        let proof = VerifiedProof::check(live_proof(&info), memo, &test_stores()[0], strong);
        (info, proof)
    }

    /// Commits `infos` in one group, as the event loop announces them
    /// from a memo that has seen none of their votes.
    fn commit(p: &mut Pipeline<NullFabric>, infos: Vec<CommitInfo>) {
        let mut memo = VoteMemo::default();
        let group = infos
            .into_iter()
            .map(|info| announced(info, &mut memo))
            .collect();
        p.flush_group(group);
    }

    #[test]
    fn frozen_outgoing_snapshot_ages_out_on_idle_ticks() {
        let mut p = synced_pipeline();
        commit(&mut p, vec![commit_info(1), commit_info(2)]);
        assert_eq!(p.kv_height, 2, "both commits executed");
        // A manifest request freezes an outgoing snapshot slot…
        assert!(p.build_manifest().is_some());
        assert!(!p.outgoing.is_empty());
        // …and a requester that vanishes leaves it untouched: the tick
        // keeps it for the whole idle window, then releases it.
        for _ in 0..OUTGOING_SNAPSHOT_IDLE_TICKS {
            p.on_tick();
        }
        assert!(!p.outgoing.is_empty(), "still within the idle window");
        p.on_tick();
        assert!(
            p.outgoing.is_empty(),
            "one tick past the window releases the slot"
        );
    }

    #[test]
    fn chunk_fetches_keep_the_outgoing_snapshot_alive() {
        let mut p = synced_pipeline();
        commit(&mut p, vec![commit_info(1)]);
        let m = p.build_manifest().expect("manifest freezes a snapshot");
        for round in 0..3 {
            for _ in 0..OUTGOING_SNAPSHOT_IDLE_TICKS {
                p.on_tick();
            }
            // One fetch against the served height resets the clock.
            p.serve_chunk(ReplicaId(2), m.height, 0);
            assert!(
                !p.outgoing.is_empty(),
                "round {round}: fetch keeps it alive"
            );
        }
        // A requester that finished (catch-up request at or above the
        // snapshot height) does NOT release the slot — another peer may
        // still be mid-fetch on the same frozen height. Only the idle
        // age-out frees it.
        p.serve_catchup(ReplicaId(2), m.height);
        assert!(
            !p.outgoing.is_empty(),
            "a finished requester leaves the slot for concurrent peers"
        );
        for _ in 0..=OUTGOING_SNAPSHOT_IDLE_TICKS {
            p.on_tick();
        }
        assert!(p.outgoing.is_empty(), "idle age-out is the sole release");
    }

    #[test]
    fn two_recovering_peers_hold_independent_snapshot_slots() {
        let mut p = synced_pipeline();
        commit(&mut p, vec![commit_info(1)]);
        let first = p.build_manifest().expect("first slot freezes");
        assert_eq!(first.height, 1);
        // The chain advances while peer A is mid-fetch; peer B arrives
        // and must get its own frozen slot, not evict A's.
        commit(&mut p, vec![commit_info(2)]);
        let second = p.build_manifest().expect("second slot freezes");
        assert_eq!(second.height, 2);
        assert_eq!(p.outgoing.len(), 2, "both transfers frozen concurrently");
        // Re-requesting a manifest for the older in-flight height
        // serves the already-frozen slot — same content, no rebuild.
        commit(&mut p, vec![commit_info(3)]);
        assert_eq!(p.outgoing.len(), 2);
        assert!(p.outgoing.iter().any(|o| o.height == first.height));
        // Chunk fetches against either height keep that slot alive
        // while the other ages independently.
        for _ in 0..=OUTGOING_SNAPSHOT_IDLE_TICKS {
            p.on_tick();
            p.serve_chunk(ReplicaId(2), second.height, 0);
        }
        assert_eq!(p.outgoing.len(), 1, "idle slot aged out alone");
        assert_eq!(p.outgoing[0].height, second.height);
        // A third height with both slots busy evicts the idlest.
        let third = p.build_manifest().expect("third slot freezes");
        assert_eq!(third.height, 3);
        p.outgoing[0].idle_ticks = 5; // mark one slot idler
        let idle_height = p.outgoing[0].height;
        commit(&mut p, vec![commit_info(4)]);
        assert!(p.build_manifest().is_some());
        assert_eq!(p.outgoing.len(), OUTGOING_SNAPSHOT_SLOTS);
        assert!(
            p.outgoing.iter().all(|o| o.height != idle_height),
            "the idlest slot was the one evicted"
        );
    }

    #[test]
    fn fully_forged_certificate_poisons_instead_of_committing() {
        let mut p = synced_pipeline();
        let mut info = commit_info(1);
        // A valid signer set, but every signature is forged: the check
        // drops all three votes, the survivor count falls below even
        // the weak quorum, and the rules reject.
        for s in &mut info.cert.sigs {
            *s = spotless_types::Signature::ZERO;
        }
        commit(&mut p, vec![info]);
        assert!(p.poisoned, "an unverifiable decided commit must loud-stall");
        assert_eq!(p.store.ledger().height(), 0, "nothing appended");
        assert_eq!(p.kv_height, 0, "rejected before execution");
    }

    #[test]
    fn a_forged_vote_is_dropped_and_the_strong_quorum_kept() {
        // Four votes, one forged: the three genuine survivors still
        // meet the strong quorum (n − f = 3), so the commit lands
        // strong — the forgery costs the forged vote, nothing else.
        let mut info = signed_commit_info(1, Digest::from_u64(1), &[0, 1, 2, 3]);
        info.cert.sigs[3] = spotless_types::Signature([0x55; 64]);
        // Whether the memo knows the forgery for what it is or never
        // saw the certificate at all.
        for (mut memo, misses) in [(memo_after_checking(&info), 0), (VoteMemo::default(), 4)] {
            let mut p = synced_pipeline();
            p.flush_group(vec![announced(info.clone(), &mut memo)]);
            assert_eq!(memo.misses.load(Ordering::Relaxed), misses);
            assert!(!p.poisoned);
            let block = p.store.ledger().block(0).expect("committed");
            assert_eq!(block.proof.phase, CertPhase::Strong);
            assert_eq!(
                block.proof.signers,
                vec![ReplicaId(0), ReplicaId(1), ReplicaId(2)],
                "only the genuine votes are persisted"
            );
        }
    }

    #[test]
    fn a_forged_vote_below_the_strong_quorum_downgrades_to_weak() {
        let mut p = synced_pipeline();
        // Exactly a strong quorum with one vote forged: two survivors
        // make only the weak quorum (f + 1 = 2), so the certificate is
        // persisted weak rather than rejected outright.
        let mut info = commit_info(1);
        info.cert.sigs[2] = spotless_types::Signature([0x55; 64]);
        commit(&mut p, vec![info]);
        assert!(!p.poisoned);
        let block = p.store.ledger().block(0).expect("committed");
        assert_eq!(block.proof.phase, CertPhase::Weak);
        assert_eq!(block.proof.signers, vec![ReplicaId(0), ReplicaId(1)]);
    }

    /// The vote memo as the event loop of `synced_pipeline()`'s replica
    /// would hold it after the protocol checked every vote of `info`'s
    /// certificate on arrival — over the statement each was cast in.
    fn memo_after_checking(info: &CommitInfo) -> VoteMemo {
        let mut memo = VoteMemo::default();
        let cast_over = spotless_types::VoteStatement {
            instance: info.instance,
            view: info.cert.view,
            slot: info.cert.slot,
            digest: info.cert.voted,
        };
        for (&signer, &sig) in info.cert.signers.iter().zip(&info.cert.sigs) {
            let ok = test_stores()[0]
                .verify_vote(signer, &cast_over, &sig)
                .is_ok();
            memo.insert((signer, cast_over, sig), ok);
        }
        memo
    }

    #[test]
    fn a_memo_hit_and_a_memo_miss_persist_the_same_block() {
        let info = signed_commit_info(1, Digest::from_u64(1), &[0, 1, 2, 3]);
        let mut hit = memo_after_checking(&info);
        let mut miss = VoteMemo::default();
        let mut blocks = Vec::new();
        for memo in [&mut hit, &mut miss] {
            let mut p = synced_pipeline();
            p.flush_group(vec![announced(info.clone(), memo)]);
            assert!(!p.poisoned);
            blocks.push(p.store.ledger().block(0).expect("committed").clone());
        }
        assert_eq!(hit.misses.load(Ordering::Relaxed), 0, "every vote is a hit");
        assert_eq!(
            miss.misses.load(Ordering::Relaxed),
            4,
            "every vote is verified"
        );
        assert_eq!(blocks[0], blocks[1], "the persisted block is the same");
        assert_eq!(blocks[0].proof.signers.len(), 4);
    }

    #[test]
    fn a_verdict_rotated_out_is_verified_again_and_the_commit_persists() {
        let info = commit_info(1);
        let mut memo = memo_after_checking(&info);
        // A cap's worth of other verdicts pushes the certificate's out
        // of both generations.
        let mut other = live_proof(&info).statement();
        for round in 0..VOTE_MEMO_MAX as u64 {
            other.view = View(1_000 + round);
            memo.insert(
                (ReplicaId(1), other, spotless_types::Signature::ZERO),
                false,
            );
        }
        let mut p = synced_pipeline();
        p.flush_group(vec![announced(info, &mut memo)]);
        assert_eq!(
            memo.misses.load(Ordering::Relaxed),
            3,
            "each vote is verified on the loop"
        );
        assert!(!p.poisoned);
        assert_eq!(p.store.ledger().height(), 1, "committed");
    }

    #[test]
    fn certificate_from_another_view_poisons_and_persists_nothing() {
        let mut p = synced_pipeline();
        // Genuine votes, but over the certificate's own view while the
        // commit is reported (and would be persisted) under a later
        // one — a straggler's inherited certificate. The persisted
        // proof claims `info.view`: the memo's verdicts, recorded under
        // the view the votes were cast in, do not answer for it, none of
        // the votes verifies over it, so nothing survives and the rules
        // reject. Only pairs verified over the persisted statement ever
        // reach disk.
        let mut info = commit_info(1);
        let mut memo = memo_after_checking(&info);
        info.view = View(2);
        assert_ne!(info.cert.view, info.view);
        p.flush_group(vec![announced(info, &mut memo)]);
        assert_eq!(
            memo.misses.load(Ordering::Relaxed),
            3,
            "no verdict is reused"
        );
        assert!(p.poisoned, "an unverifiable decided commit must loud-stall");
        assert_eq!(p.store.ledger().height(), 0, "nothing appended");
        assert_eq!(p.kv_height, 0, "rejected before execution");
    }

    #[test]
    fn forged_catchup_extension_is_rejected_then_honest_replay_lands() {
        // A peer commits two blocks under fully valid certificates.
        // The batch digest must hash the (empty) payload here, unlike
        // the live-path fixtures: catch-up re-checks payload bytes
        // against the digest the block binds.
        let empty_digest = spotless_crypto::digest_bytes(b"");
        let mut peer = synced_pipeline();
        commit(
            &mut peer,
            vec![
                signed_commit_info(1, empty_digest, &[0, 1, 2]),
                signed_commit_info(2, empty_digest, &[0, 1, 2]),
            ],
        );
        assert_eq!(peer.store.ledger().height(), 2);
        let cb = |h: u64| CatchUpBlock {
            block: peer.store.ledger().block(h).expect("peer holds it").clone(),
            payload: Vec::new(),
        };
        let mut victim = synced_pipeline();
        victim.mode = Mode::CatchingUp {
            confirmed: Default::default(),
        };
        // The serving peer forges a certificate signature on the
        // extension block. The chain hash deliberately does not bind
        // the evidence, so only signature re-verification can object.
        let mut forged = cb(1);
        forged.block.proof.sigs[0] = spotless_types::Signature([0x55; 64]);
        assert!(
            forged.block.verify_hash(),
            "hash check alone cannot catch evidence tampering"
        );
        victim.apply_catchup(ReplicaId(1), 2, vec![cb(0), forged]);
        assert_eq!(
            victim.store.ledger().height(),
            1,
            "the valid prefix lands; the forged extension does not"
        );
        assert!(!victim.poisoned, "a bad peer frame is not a local fault");
        // An honest peer then serves the same block with its genuine
        // certificate, and replay completes.
        victim.apply_catchup(ReplicaId(2), 2, vec![cb(1)]);
        assert_eq!(victim.store.ledger().height(), 2);
        assert_eq!(victim.kv_height, 2);
    }

    #[test]
    fn chunked_transfer_installs_into_the_in_memory_store() {
        let mut peer = synced_pipeline();
        commit(
            &mut peer,
            vec![commit_info(1), commit_info(2), commit_info(3)],
        );
        let manifest = peer.build_manifest().expect("peer serves a snapshot");
        let mut victim = synced_pipeline();
        victim.mode = Mode::CatchingUp {
            confirmed: Default::default(),
        };
        victim.on_transfer(ReplicaId(1), &encode_catchup_manifest(&manifest));
        assert!(victim.incoming.is_some(), "the manifest verified");
        let slot = &peer.outgoing[0];
        for (index, (_, chunk, proofs, top_proof)) in slot.chunks.iter().enumerate() {
            let transfer = ChunkTransfer {
                height: slot.height,
                index: index as u32,
                chunk: chunk.clone(),
                proofs: proofs.clone(),
                top_proof: top_proof.clone(),
            };
            victim.on_transfer(ReplicaId(1), &encode_chunk(&transfer));
        }
        assert!(victim.incoming.is_none(), "the transfer completed");
        assert!(!victim.poisoned);
        assert_eq!(victim.kv_height, 3);
        assert_eq!(victim.store.ledger().base_height(), 3);
        assert_eq!(victim.store.block_at(2), Some(&manifest.head));
        assert!(victim.store.knows_batch(BatchId(1)), "transferred id");
        assert_eq!(victim.kv.state_root(), manifest.head.state_root);
    }

    #[test]
    fn a_manifest_head_at_the_top_height_is_ignored() {
        // `head.height + 1` has no value here: the manifest must be
        // dropped like any other whose head does not sit just below
        // its height, not overflow.
        let mut peer = synced_pipeline();
        commit(&mut peer, vec![commit_info(1)]);
        let mut manifest = peer.build_manifest().expect("peer serves a snapshot");
        manifest.head.height = u64::MAX;
        let mut victim = synced_pipeline();
        victim.mode = Mode::CatchingUp {
            confirmed: Default::default(),
        };
        victim.on_transfer(ReplicaId(1), &encode_catchup_manifest(&manifest));
        assert!(victim.incoming.is_none(), "the manifest was ignored");
        assert!(victim.journal.manifest().is_none(), "nothing journaled");
        assert!(!victim.poisoned);
    }

    #[test]
    fn a_divergent_log_tail_boots_poisoned_and_acknowledges_nothing() {
        let dir = tempfile::tempdir().unwrap();
        let opts = spotless_storage::DurableLedgerOptions::default();
        {
            // Four logged blocks, each one update; the block at height 2
            // seals a root its payload does not execute to.
            let (mut store, _) = DurableLedger::open(dir.path(), opts).unwrap();
            let mut kv = KvStore::new();
            for h in 0..4u64 {
                let txns = vec![Transaction {
                    id: h,
                    op: spotless_workload::Operation::Update {
                        key: h,
                        value: vec![h as u8; 8],
                    },
                }];
                let payload = spotless_workload::encode_txns(&txns);
                kv.execute_batch(&txns);
                let root = if h == 2 {
                    Digest::from_u64(0xBAD)
                } else {
                    kv.state_root()
                };
                let info = commit_info(h + 1);
                let digest = spotless_crypto::digest_bytes(&payload);
                store
                    .append_batch(info.batch.id, digest, 1, root, live_proof(&info), &payload)
                    .unwrap();
            }
            store.sync().unwrap();
        }
        let (store, report) = DurableLedger::open(dir.path(), opts).unwrap();
        assert_eq!(report.replayed_blocks, 4);
        let commits = CommitLog::default();
        let (p, mut informs) = pipeline_over(store, commits.clone());
        assert!(
            p.poisoned,
            "a log tail off its sealed roots must loud-stall"
        );
        assert_eq!(p.kv_height, 2, "executed up to the divergent height");
        assert!(commits.is_empty(), "nothing acknowledged");
        assert!(informs.try_recv().is_none(), "no inform sent");
    }
}
