//! Durable storage for the SpotLess ledger.
//!
//! Apache ResilientDB (the paper's testbed, §6.1) keeps "an immutable
//! blockchain ledger that holds an ordered copy of all executed
//! transactions". `spotless-ledger` provides that chain in memory; this
//! crate makes it survive restarts:
//!
//! * [`crc32`] — CRC-32C, implemented from scratch, framing every byte
//!   written;
//! * [`codec`] — a pinned, fail-closed binary format for block records;
//! * [`segment`] — append-only segment files with torn-tail detection;
//! * [`log`] — the segmented block log with rotation and pruning;
//! * [`snapshot`] — atomic state snapshots (manifest + content-addressed
//!   chunks, format v6) bounding replay and enabling pruning;
//! * [`transfer`] — the crash-safe partial-install journal a chunked
//!   state transfer resumes from after an interruption;
//! * [`DurableLedger`] — the assembled store: the chain's tail in
//!   memory, whose appends are persisted before they are acknowledged,
//!   with crash recovery on open.
//!
//! The store keeps one tail of the chain: the blocks above a base and,
//! height for height, the batch payloads they commit
//! ([`DurableLedger::payload`]), which the runtime re-executes and
//! serves catch-up from. One rule bounds it — from the newest snapshot,
//! or [`TAIL_MAX`] blocks below the head, whichever is higher — so a
//! running store holds what it would reopen as. A [`RecentBatches`]
//! dedup set of committed batch ids rides along in every snapshot.
//!
//! The runtime keeps one chain store for every deployment. A replica
//! without a storage directory runs [`DurableLedger::in_memory`]: the
//! same tail, base block, dedup set and snapshot install, with no
//! directory behind them — no file is written, no snapshot is ever
//! due, and `sync` has nothing to flush.
//!
//! The design follows the write-ahead-log discipline of LSM stores
//! (LevelDB/RocksDB): framed records behind checksums, truncate-on-torn-
//! tail, snapshot-then-prune. Recovery is exercised heavily in tests,
//! including randomized crash injection (see `tests/crash_recovery.rs`).
//!
//! ```
//! use spotless_storage::{DurableLedger, DurableLedgerOptions};
//! use spotless_ledger::CommitProof;
//! use spotless_types::{BatchId, CertPhase, Digest, InstanceId, ReplicaId, Signature, View};
//!
//! let dir = tempfile::tempdir().unwrap();
//! let proof = CommitProof {
//!     instance: InstanceId(0),
//!     view: View(1),
//!     phase: CertPhase::Strong,
//!     voted: Digest::from_u64(7),
//!     slot: 0,
//!     signers: vec![ReplicaId(0), ReplicaId(1), ReplicaId(2)],
//!     sigs: vec![Signature::ZERO; 3],
//! };
//! // First run: append a block (sealing the post-execution state
//! // root), then "crash" (drop).
//! {
//!     let (mut led, _) =
//!         DurableLedger::open(dir.path(), DurableLedgerOptions::default()).unwrap();
//!     led.append_batch(BatchId(1), Digest::from_u64(1), 100, Digest::from_u64(7), proof, b"txns")
//!         .unwrap();
//! }
//! // Second run: the block is still there and the chain verifies.
//! let (led, report) =
//!     DurableLedger::open(dir.path(), DurableLedgerOptions::default()).unwrap();
//! assert_eq!(led.ledger().height(), 1);
//! assert_eq!(report.replayed_blocks, 1);
//! assert_eq!(led.payload(0), Some(&b"txns"[..]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod crc32;
pub mod log;
pub mod segment;
pub mod snapshot;
pub mod transfer;

use crate::log::{BlockLog, LogOptions};
use crate::snapshot::{latest_snapshot, prune_snapshots, write_snapshot, Snapshot};
use spotless_ledger::{Block, CommitProof, Ledger, LedgerError};
use spotless_types::{BatchId, Digest};
use std::collections::{HashSet, VecDeque};
use std::fmt;
use std::path::{Path, PathBuf};

/// Everything that can go wrong in the storage layer.
#[derive(Debug)]
pub enum StorageError {
    /// An operating-system I/O failure.
    Io {
        /// File or directory involved.
        path: PathBuf,
        /// What was being attempted.
        op: &'static str,
        /// The underlying error.
        source: std::io::Error,
    },
    /// On-disk bytes that cannot be data written by this crate.
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// Approximate byte offset of the problem.
        offset: u64,
        /// Human-readable diagnosis.
        detail: &'static str,
    },
    /// A file written by a newer (or unknown) format version.
    UnsupportedVersion {
        /// The offending file.
        path: PathBuf,
        /// The version found.
        version: u32,
    },
    /// A record frame was intact but its payload did not decode.
    Codec {
        /// The offending file.
        path: PathBuf,
        /// The decode failure.
        source: codec::CodecError,
    },
    /// A block was appended out of height order.
    HeightGap {
        /// The block's height.
        got: u64,
        /// The height the log expected.
        expected: u64,
    },
    /// Replayed blocks failed chain verification.
    Ledger {
        /// The underlying chain error.
        source: LedgerError,
    },
    /// A memory-only store was asked for something only a directory
    /// can hold.
    InMemory {
        /// What was being attempted.
        op: &'static str,
    },
}

impl StorageError {
    pub(crate) fn io(path: &Path, op: &'static str, source: std::io::Error) -> StorageError {
        StorageError::Io {
            path: path.to_path_buf(),
            op,
            source,
        }
    }

    pub(crate) fn corrupt(path: &Path, offset: u64, detail: &'static str) -> StorageError {
        StorageError::Corrupt {
            path: path.to_path_buf(),
            offset,
            detail,
        }
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io { path, op, source } => {
                write!(f, "{op} on {}: {source}", path.display())
            }
            StorageError::Corrupt {
                path,
                offset,
                detail,
            } => write!(
                f,
                "{} is corrupt near byte {offset}: {detail}",
                path.display()
            ),
            StorageError::UnsupportedVersion { path, version } => write!(
                f,
                "{} uses unsupported format version {version}",
                path.display()
            ),
            StorageError::Codec { path, source } => {
                write!(
                    f,
                    "{} holds an undecodable record: {source}",
                    path.display()
                )
            }
            StorageError::HeightGap { got, expected } => {
                write!(
                    f,
                    "append out of order: block {got}, log expects {expected}"
                )
            }
            StorageError::Ledger { source } => {
                write!(f, "replayed chain failed verification: {source}")
            }
            StorageError::InMemory { op } => {
                write!(
                    f,
                    "{op} needs a storage directory; this store is memory-only"
                )
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io { source, .. } => Some(source),
            StorageError::Codec { source, .. } => Some(source),
            StorageError::Ledger { source } => Some(source),
            _ => None,
        }
    }
}

impl From<LedgerError> for StorageError {
    fn from(source: LedgerError) -> StorageError {
        StorageError::Ledger { source }
    }
}

/// Tuning knobs for [`DurableLedger`].
#[derive(Clone, Copy, Debug)]
pub struct DurableLedgerOptions {
    /// Block-log options (segment size, sync policy).
    pub log: LogOptions,
    /// Write a snapshot (and prune) every this many blocks. `0`
    /// disables automatic snapshots.
    pub snapshot_every: u64,
}

impl Default for DurableLedgerOptions {
    fn default() -> DurableLedgerOptions {
        DurableLedgerOptions {
            log: LogOptions::default(),
            snapshot_every: 1024,
        }
    }
}

/// What [`DurableLedger::open`] reconstructed besides the chain and its
/// payloads, which the store holds (nothing, by default — what a
/// memory-only store starts from).
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Height covered by the snapshot recovery started from (0 = none).
    pub snapshot_height: u64,
    /// Application meta bytes carried by that snapshot (empty when none).
    pub app_meta: Vec<u8>,
    /// Application state chunks carried by that snapshot, in order
    /// (empty when none).
    pub app_chunks: Vec<Vec<u8>>,
    /// Blocks replayed from the log above the snapshot; the store holds
    /// every one of them, payload included, until its next append.
    pub replayed_blocks: u64,
    /// Whether a torn tail was truncated from the newest segment.
    pub truncated_tail: bool,
}

/// A crash-safe ledger: every append is persisted to the segmented log
/// before it is visible, and periodic snapshots bound both recovery
/// time and disk usage. [`DurableLedger::in_memory`] is the same chain
/// store without a directory: nothing is written, nothing is
/// snapshotted, and [`sync`](DurableLedger::sync) has nothing to do.
pub struct DurableLedger {
    /// The directory, block log and snapshot cadence; `None` for a
    /// memory-only store.
    disk: Option<Disk>,
    /// The tail's blocks, above their base.
    ledger: Ledger,
    /// The tail's batch payloads: `payloads[i]` is committed by the
    /// ledger's block at `base_height + i`, so the two hold the same
    /// heights.
    payloads: VecDeque<Vec<u8>>,
    /// The block just below the tail's base (after a snapshot, its head
    /// block). Retained so the snapshot — head certificate included —
    /// can be served to a recovering peer, and so the newest block a cap
    /// dropped can still be named.
    base_block: Option<Block>,
    /// Committed batch ids, persisted with every snapshot: the one
    /// batch-id index, and the dedup filter that stops a rejoining
    /// protocol instance from re-executing a batch the tail or a
    /// snapshot already covers.
    recent: RecentBatches,
}

/// The most blocks the tail keeps after an append; this bounds stores
/// that never snapshot (memory-only ones, `snapshot_every = 0`).
/// Opening a store keeps the whole log tail, however long, until the
/// next append.
pub const TAIL_MAX: usize = 4096;

/// How many recent batch ids a [`RecentBatches`] set retains: must
/// exceed the deepest tail any protocol can re-announce after a rejoin
/// (SpotLess: at most `m` instances × its 64-view GC window), and
/// should span well over a client's retry horizon at the rate the
/// runtime commits — at ≈ 800 batches/s, 8 192 ids was ten seconds.
/// Costs 8 B per id in every snapshot and ≤ 9 B per id in a
/// state-transfer manifest (256 KiB and 288 KiB at this cap); half of
/// the snapshot decoder's sanity bound.
pub const RECENT_BATCHES_CAP: usize = 32_768;

// Every batch id in a capped tail is in the dedup set.
const _: () = assert!(TAIL_MAX <= RECENT_BATCHES_CAP);

/// A bounded, ordered set of the most recently committed batch ids.
///
/// Why it exists: a snapshot (recovery or state transfer) re-bases the
/// chain with everything below the base pruned. A replica whose fresh
/// protocol instance re-announces a recently committed batch (SpotLess
/// re-commits the chain tail inside its GC window when a node rejoins)
/// would re-execute it — silently forking its KV state — unless
/// something remembers the ids the snapshot already covers. This set
/// travels with every snapshot, bounded because protocols only ever
/// re-announce a bounded tail of history.
#[derive(Clone, Debug, Default)]
pub struct RecentBatches {
    order: VecDeque<BatchId>,
    set: HashSet<BatchId>,
}

impl RecentBatches {
    /// An empty set.
    pub fn new() -> RecentBatches {
        RecentBatches::default()
    }

    /// Records `id` as committed (oldest ids fall out past the cap).
    pub fn push(&mut self, id: BatchId) {
        if !self.set.insert(id) {
            return;
        }
        self.order.push_back(id);
        if self.order.len() > RECENT_BATCHES_CAP {
            if let Some(old) = self.order.pop_front() {
                self.set.remove(&old);
            }
        }
    }

    /// True iff `id` is in the set.
    pub fn contains(&self, id: BatchId) -> bool {
        self.set.contains(&id)
    }

    /// The ids in commit order (oldest first).
    pub fn iter(&self) -> impl Iterator<Item = BatchId> + '_ {
        self.order.iter().copied()
    }
}

/// The on-disk half of a [`DurableLedger`].
struct Disk {
    dir: PathBuf,
    log: BlockLog,
    /// Write a snapshot every this many blocks (`0` = never).
    snapshot_every: u64,
    /// Height of the newest snapshot.
    last_snapshot: u64,
}

/// What a memory-only store names as the offending "file" in errors.
const IN_MEMORY: &str = "(in-memory store)";

impl DurableLedger {
    /// A memory-only store starting at genesis: no file is ever
    /// written, [`snapshot_due`](DurableLedger::snapshot_due) is always
    /// false, and [`sync`](DurableLedger::sync) succeeds at once.
    /// Nothing survives the process.
    pub fn in_memory() -> DurableLedger {
        DurableLedger {
            disk: None,
            ledger: Ledger::new(),
            payloads: VecDeque::new(),
            base_block: None,
            recent: RecentBatches::new(),
        }
    }

    /// Opens the store in `dir`, recovering from whatever a previous
    /// process (or crash) left behind.
    pub fn open(
        dir: &Path,
        opts: DurableLedgerOptions,
    ) -> Result<(DurableLedger, RecoveryReport), StorageError> {
        std::fs::create_dir_all(dir).map_err(|e| StorageError::io(dir, "create dir", e))?;
        let snap = latest_snapshot(dir)?.map_or_else(Snapshot::default, |(_, s)| s);
        let resume_height = snap.height;
        let (mut log, recovery) = BlockLog::open(dir, opts.log, resume_height)?;
        if log.next_height() < resume_height {
            // The whole log predates the snapshot: a crash interrupted a
            // snapshot install after the snapshot became durable but
            // before the log reset finished. The snapshot wins — finish
            // the reset now.
            log.reset(resume_height)?;
        }
        let mut ledger = Ledger::with_base(resume_height, snap.head_hash);
        let mut recent = RecentBatches::new();
        for id in snap.recent_ids {
            recent.push(id);
        }
        let mut payloads = VecDeque::new();
        for (block, payload) in recovery.blocks {
            if block.height < resume_height {
                continue; // older than the snapshot: not yet pruned, skip
            }
            recent.push(block.batch_id);
            ledger.append_existing(block)?;
            payloads.push_back(payload);
        }
        let report = RecoveryReport {
            snapshot_height: resume_height,
            app_meta: snap.app_meta,
            app_chunks: snap.app_chunks,
            replayed_blocks: payloads.len() as u64,
            truncated_tail: recovery.truncated_tail,
        };
        Ok((
            DurableLedger {
                disk: Some(Disk {
                    dir: dir.to_path_buf(),
                    log,
                    snapshot_every: opts.snapshot_every,
                    last_snapshot: resume_height,
                }),
                ledger,
                payloads,
                base_block: snap.head_block,
                recent,
            },
            report,
        ))
    }

    /// The tail's blocks.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// The block just below the tail's base — the newest snapshot's head
    /// block, or the newest block a cap dropped — if the base has moved.
    pub fn base_block(&self) -> Option<&Block> {
        self.base_block.as_ref()
    }

    /// The bounded set of recently committed batch ids (everything
    /// appended plus whatever the newest snapshot carried).
    pub fn recent_batches(&self) -> &RecentBatches {
        &self.recent
    }

    /// True iff `id` is known committed: it sits in the dedup set, which
    /// holds every id in the tail and remembers what a snapshot
    /// (recovered or transferred) carried over. A rejoining protocol
    /// instance that re-announces recent history is checked against
    /// this before anything re-executes.
    pub fn knows_batch(&self, id: BatchId) -> bool {
        self.recent.contains(id)
    }

    /// The block at `height`, looking through the tail's base: the
    /// block just below it is retained for serving the newest
    /// snapshot's certificate.
    pub fn block_at(&self, height: u64) -> Option<&Block> {
        self.ledger
            .block(height)
            .or_else(|| self.base_block.as_ref().filter(|b| b.height == height))
    }

    /// The batch payload of the block at `height`: `Some` exactly where
    /// [`ledger`](DurableLedger::ledger)`().block(height)` is.
    pub fn payload(&self, height: u64) -> Option<&[u8]> {
        let index = height.checked_sub(self.ledger.base_height())?;
        self.payloads.get(index as usize).map(Vec::as_slice)
    }

    /// Appends an executed batch: the block — and the batch payload it
    /// commits, which the log persists for self-contained recovery and
    /// the tail keeps — is written to the log (honouring the sync
    /// policy). `state_root` is the application state's Merkle
    /// commitment *after* executing the batch (execute-then-seal —
    /// header v3).
    #[allow(clippy::too_many_arguments)]
    pub fn append_batch(
        &mut self,
        batch_id: BatchId,
        batch_digest: Digest,
        txns: u32,
        state_root: Digest,
        proof: CommitProof,
        payload: &[u8],
    ) -> Result<(), StorageError> {
        self.ledger
            .append(batch_id, batch_digest, txns, state_root, proof);
        self.log_head(payload)
    }

    /// Appends a block that was built elsewhere — decoded from a peer's
    /// catch-up response or replayed from another log — validating (via
    /// [`Ledger::append_existing`]) that it extends the current head
    /// before it is persisted. The write honours the sync policy exactly
    /// like [`append_batch`](DurableLedger::append_batch).
    pub fn append_block(&mut self, block: Block, payload: &[u8]) -> Result<(), StorageError> {
        self.ledger.append_existing(block)?;
        self.log_head(payload)
    }

    /// Records the block just appended to the ledger — its batch id,
    /// its `payload` and its log record — then applies the tail's
    /// retention rule.
    fn log_head(&mut self, payload: &[u8]) -> Result<(), StorageError> {
        let head = self.ledger.height() - 1;
        let block = self.ledger.block(head).expect("just appended");
        self.recent.push(block.batch_id);
        self.payloads.push_back(payload.to_vec());
        if let Some(disk) = &mut self.disk {
            // A failed write leaves the block in the tail. There is no
            // pop API on Ledger by design (it is append-only), so fail
            // closed: the caller must drop this DurableLedger and
            // re-open.
            disk.log.append(block, payload)?;
        }
        self.retain_tail();
        Ok(())
    }

    /// The tail's one retention rule: the tail starts at the newest
    /// snapshot, or [`TAIL_MAX`] blocks below the head, whichever is
    /// higher. Blocks leave with their payloads, and the newest block to
    /// leave becomes the base block. Appends and snapshots apply it;
    /// [`open`](DurableLedger::open) does not, so the boot replay sees
    /// the whole logged tail until the next append.
    fn retain_tail(&mut self) {
        let snapshot = self.disk.as_ref().map_or(0, |d| d.last_snapshot);
        let base = snapshot.max(self.ledger.height().saturating_sub(TAIL_MAX as u64));
        let dropped = base.saturating_sub(self.ledger.base_height()) as usize;
        if let Some(below) = self.ledger.truncate_below(base) {
            self.payloads.drain(..dropped);
            self.base_block = Some(below);
        }
    }

    /// True iff enough blocks have accumulated since the last snapshot
    /// that [`maybe_snapshot`](DurableLedger::maybe_snapshot) would write
    /// one. Callers with an expensive-to-serialize application state can
    /// check this before materializing the state bytes. Never true for
    /// a memory-only store.
    pub fn snapshot_due(&self) -> bool {
        self.disk.as_ref().is_some_and(|d| {
            d.snapshot_every != 0 && self.ledger.height() >= d.last_snapshot + d.snapshot_every
        })
    }

    /// Writes a snapshot of the application state (meta bytes + state
    /// chunks) at the current height if one is due under
    /// `snapshot_every`, pruning old segments and snapshots. Returns
    /// the snapshot height if one was written.
    ///
    /// Call this after executing blocks, passing the serialized
    /// application state that reflects every block up to
    /// `ledger().height()`. Chunks are stored content-addressed, so
    /// chunks unchanged since the previous snapshot are not rewritten.
    pub fn maybe_snapshot(
        &mut self,
        app_meta: &[u8],
        app_chunks: &[Vec<u8>],
    ) -> Result<Option<u64>, StorageError> {
        if !self.snapshot_due() {
            return Ok(None);
        }
        self.force_snapshot(app_meta, app_chunks).map(Some)
    }

    /// Unconditionally snapshots the application state at the current
    /// height and prunes. See
    /// [`maybe_snapshot`](DurableLedger::maybe_snapshot). A memory-only
    /// store has nowhere to write one and returns
    /// [`StorageError::InMemory`].
    pub fn force_snapshot(
        &mut self,
        app_meta: &[u8],
        app_chunks: &[Vec<u8>],
    ) -> Result<u64, StorageError> {
        let height = self.ledger.height();
        // With no block above the base since the last snapshot, the
        // previous snapshot's head block is still the head.
        let head_block = height
            .checked_sub(1)
            .and_then(|h| self.block_at(h))
            .cloned();
        let Some(disk) = &mut self.disk else {
            return Err(StorageError::InMemory { op: "snapshot" });
        };
        // Order matters for crash safety: (1) the log must be durable up
        // to `height`, (2) the snapshot must be durable, (3) only then
        // may pruning delete the data the snapshot replaces.
        disk.log.sync()?;
        write_snapshot(
            &disk.dir,
            &Snapshot {
                height,
                head_hash: self.ledger.head_hash(),
                head_block,
                recent_ids: self.recent.iter().collect(),
                app_meta: app_meta.to_vec(),
                app_chunks: app_chunks.to_vec(),
            },
        )?;
        disk.log.prune_below(height)?;
        prune_snapshots(&disk.dir, height)?;
        disk.last_snapshot = height;
        // The snapshot is at the head, so the tail it starts is empty:
        // the store now holds what it would reopen as, and peers below
        // it get the snapshot instead of blocks.
        self.retain_tail();
        Ok(height)
    }

    /// Installs a state-transfer snapshot received from a peer,
    /// replacing this store's chain and state wholesale: the snapshot
    /// is made durable, the block log is reset to resume at
    /// `snap.height`, and the in-memory ledger restarts from the
    /// snapshot's head. A memory-only store only rebases its ledger.
    /// The caller is responsible for having verified the snapshot
    /// (head-block hash + commit certificate) — the store only enforces
    /// structural consistency between the fields.
    ///
    /// Used by the runtime's snapshot state transfer when every peer
    /// has pruned the history this replica is missing; the local blocks
    /// (a verified prefix of what the snapshot covers) are discarded in
    /// favour of the certified snapshot head.
    pub fn install_snapshot(&mut self, snap: &Snapshot) -> Result<(), StorageError> {
        let path = self.dir().unwrap_or(Path::new(IN_MEMORY));
        let Some(head) = &snap.head_block else {
            return Err(StorageError::corrupt(
                path,
                0,
                "state-transfer snapshot carries no head block",
            ));
        };
        if head.height + 1 != snap.height || head.hash != snap.head_hash {
            return Err(StorageError::corrupt(
                path,
                0,
                "state-transfer snapshot head block disagrees with its height/hash",
            ));
        }
        if snap.height < self.ledger.height() {
            return Err(StorageError::corrupt(
                path,
                0,
                "state-transfer snapshot is older than the local chain",
            ));
        }
        if let Some(disk) = &mut self.disk {
            // Durability order: snapshot first, then the log reset — a
            // crash in between recovers from the new snapshot and
            // ignores the stale log tail below it (blocks under the
            // snapshot height are skipped on replay exactly like pruned
            // history).
            write_snapshot(&disk.dir, snap)?;
            disk.log.reset(snap.height)?;
            prune_snapshots(&disk.dir, snap.height)?;
            disk.last_snapshot = snap.height;
        }
        self.ledger = Ledger::with_base(snap.height, snap.head_hash);
        self.base_block = snap.head_block.clone();
        for id in &snap.recent_ids {
            self.recent.push(*id);
        }
        self.payloads.clear();
        Ok(())
    }

    /// Flushes and fsyncs the log (for [`log::SyncPolicy::Manual`]);
    /// `Ok` at once for a memory-only store.
    pub fn sync(&mut self) -> Result<(), StorageError> {
        match &mut self.disk {
            Some(disk) => disk.log.sync(),
            None => Ok(()),
        }
    }

    /// Diagnostic: number of segment files currently on disk (0 for a
    /// memory-only store).
    pub fn segment_count(&self) -> usize {
        self.disk.as_ref().map_or(0, |d| d.log.segment_count())
    }

    /// The directory this store lives in; `None` for a memory-only
    /// store.
    pub fn dir(&self) -> Option<&Path> {
        self.disk.as_ref().map(|d| d.dir.as_path())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotless_types::{InstanceId, ReplicaId, View};

    fn proof(view: u64) -> CommitProof {
        CommitProof {
            instance: InstanceId(0),
            view: View(view),
            phase: spotless_types::CertPhase::Strong,
            voted: Digest::from_u64(view * 7 + 1),
            slot: 0,
            signers: vec![ReplicaId(0), ReplicaId(1), ReplicaId(2)],
            sigs: vec![spotless_types::Signature::ZERO; 3],
        }
    }

    #[test]
    fn append_block_persists_foreign_blocks() {
        let src_dir = tempfile::tempdir().unwrap();
        let dst_dir = tempfile::tempdir().unwrap();
        let opts = DurableLedgerOptions::default();
        let (mut src, _) = DurableLedger::open(src_dir.path(), opts).unwrap();
        for i in 0..5 {
            src.append_batch(
                BatchId(i),
                Digest::from_u64(i),
                10,
                Digest::from_u64(i + 500),
                proof(i),
                b"payload",
            )
            .unwrap();
        }
        {
            let (mut dst, _) = DurableLedger::open(dst_dir.path(), opts).unwrap();
            for b in src.ledger().iter() {
                dst.append_block(b.clone(), b"payload").unwrap();
            }
        }
        // The replica crashes; reopening replays the foreign blocks.
        let (dst, report) = DurableLedger::open(dst_dir.path(), opts).unwrap();
        assert_eq!(report.replayed_blocks, 5);
        assert_eq!(dst.ledger().head_hash(), src.ledger().head_hash());
    }

    /// Appends `n` blocks (batch ids and views `0..n`) to `led`.
    fn append_n(led: &mut DurableLedger, n: u64) {
        for i in 0..n {
            led.append_batch(
                BatchId(i),
                Digest::from_u64(i),
                10,
                Digest::from_u64(i + 500),
                proof(i),
                b"payload",
            )
            .unwrap();
        }
    }

    #[test]
    fn append_block_rejects_blocks_that_do_not_extend_the_head() {
        let dir = tempfile::tempdir().unwrap();
        let (durable, _) =
            DurableLedger::open(dir.path(), DurableLedgerOptions::default()).unwrap();
        for mut led in [durable, DurableLedger::in_memory()] {
            append_n(&mut led, 1);
            // Height 0 again: wrong height for the current head.
            let stale = led.ledger().block(0).unwrap().clone();
            assert!(matches!(
                led.append_block(stale, b"payload"),
                Err(StorageError::Ledger { .. })
            ));
            assert_eq!(led.ledger().height(), 1);
        }
    }

    #[test]
    fn in_memory_store_appends_and_takes_foreign_blocks() {
        let mut src = DurableLedger::in_memory();
        append_n(&mut src, 5);
        let mut dst = DurableLedger::in_memory();
        for b in src.ledger().iter() {
            dst.append_block(b.clone(), b"payload").unwrap();
        }
        assert_eq!(dst.ledger().height(), 5);
        assert_eq!(dst.ledger().head_hash(), src.ledger().head_hash());
        assert!(dst.knows_batch(BatchId(4)));
        assert!(!dst.knows_batch(BatchId(5)));
        assert_eq!(dst.block_at(2).map(|b| b.height), Some(2));
        dst.ledger().verify().unwrap();
    }

    #[test]
    fn in_memory_store_writes_nothing_and_never_snapshots() {
        let mut led = DurableLedger::in_memory();
        assert_eq!(led.dir(), None);
        append_n(&mut led, 2048);
        assert!(!led.snapshot_due(), "no disk, no snapshot cadence");
        assert_eq!(led.maybe_snapshot(b"meta", &[]).unwrap(), None);
        assert!(matches!(
            led.force_snapshot(b"meta", &[]),
            Err(StorageError::InMemory { .. })
        ));
        led.sync().unwrap();
        assert_eq!(led.segment_count(), 0);
        assert_eq!(led.base_block(), None);
    }

    #[test]
    fn in_memory_store_installs_a_snapshot() {
        let mut peer = DurableLedger::in_memory();
        append_n(&mut peer, 8);
        let head = peer.ledger().block(7).unwrap().clone();
        let transferred = Snapshot {
            height: 8,
            head_hash: head.hash,
            head_block: Some(head.clone()),
            recent_ids: (0..8).map(BatchId).collect(),
            app_meta: b"kv-meta".to_vec(),
            app_chunks: vec![b"kv-bytes".to_vec()],
        };
        let mut led = DurableLedger::in_memory();
        append_n(&mut led, 3);
        led.install_snapshot(&transferred).unwrap();
        // The ledger rebases onto the certified head…
        assert_eq!(led.ledger().base_height(), 8);
        assert_eq!(led.ledger().height(), 8);
        assert_eq!(led.ledger().head_hash(), head.hash);
        // …the head block is served from below the base…
        assert!(led.ledger().block(7).is_none());
        assert_eq!(led.block_at(7), Some(&head));
        assert_eq!(led.block_at(6), None);
        // …and a transferred id below the base is still known.
        assert!(led.ledger().find_batch(BatchId(5)).is_none());
        assert!(led.knows_batch(BatchId(5)));
        // New appends chain over the installed head.
        led.append_batch(
            BatchId(100),
            Digest::from_u64(100),
            10,
            Digest::from_u64(600),
            proof(100),
            b"payload",
        )
        .unwrap();
        assert_eq!(led.ledger().height(), 9);
        led.ledger().verify().unwrap();
        // An older snapshot no longer installs.
        assert!(matches!(
            led.install_snapshot(&transferred),
            Err(StorageError::Corrupt { .. })
        ));
    }

    #[test]
    fn install_snapshot_replaces_chain_and_survives_reopen() {
        // A "peer" builds a chain and snapshots it.
        let peer_dir = tempfile::tempdir().unwrap();
        let (mut peer, _) =
            DurableLedger::open(peer_dir.path(), DurableLedgerOptions::default()).unwrap();
        for i in 0..8 {
            peer.append_batch(
                BatchId(i),
                Digest::from_u64(i),
                10,
                Digest::from_u64(i + 500),
                proof(i),
                b"payload",
            )
            .unwrap();
        }
        let transferred = Snapshot {
            height: 8,
            head_hash: peer.ledger().head_hash(),
            head_block: Some(peer.ledger().block(7).unwrap().clone()),
            recent_ids: (0..8).map(BatchId).collect(),
            app_meta: b"kv-meta".to_vec(),
            app_chunks: vec![b"kv-bytes".to_vec()],
        };

        // A laggard holding an older prefix installs the snapshot.
        let dir = tempfile::tempdir().unwrap();
        let (mut led, _) =
            DurableLedger::open(dir.path(), DurableLedgerOptions::default()).unwrap();
        for i in 0..3 {
            led.append_batch(
                BatchId(i),
                Digest::from_u64(i),
                10,
                Digest::from_u64(i + 500),
                proof(i),
                b"payload",
            )
            .unwrap();
        }
        led.install_snapshot(&transferred).unwrap();
        assert_eq!(led.ledger().height(), 8);
        assert_eq!(led.ledger().base_height(), 8);
        assert_eq!(led.ledger().head_hash(), peer.ledger().head_hash());
        assert_eq!(led.base_block().unwrap().height, 7);

        // New appends chain over the installed head and survive reopen.
        led.append_batch(
            BatchId(100),
            Digest::from_u64(100),
            10,
            Digest::from_u64(600),
            proof(100),
            b"payload",
        )
        .unwrap();
        led.sync().unwrap();
        drop(led);
        let (led, report) =
            DurableLedger::open(dir.path(), DurableLedgerOptions::default()).unwrap();
        assert_eq!(report.snapshot_height, 8);
        assert_eq!(report.app_meta, b"kv-meta");
        assert_eq!(report.app_chunks, vec![b"kv-bytes".to_vec()]);
        assert_eq!(led.ledger().height(), 9);
        assert_eq!(led.base_block().unwrap().height, 7);
        led.ledger().verify().unwrap();
    }

    #[test]
    fn install_snapshot_rejects_inconsistent_artifacts() {
        let dir = tempfile::tempdir().unwrap();
        let (mut led, _) =
            DurableLedger::open(dir.path(), DurableLedgerOptions::default()).unwrap();
        let headless = Snapshot {
            height: 5,
            head_hash: Digest::from_u64(5),
            head_block: None,
            recent_ids: Vec::new(),
            app_meta: Vec::new(),
            app_chunks: Vec::new(),
        };
        assert!(matches!(
            led.install_snapshot(&headless),
            Err(StorageError::Corrupt { .. })
        ));
        // Head block at the wrong height.
        let other = {
            let d = tempfile::tempdir().unwrap();
            let (mut l, _) =
                DurableLedger::open(d.path(), DurableLedgerOptions::default()).unwrap();
            l.append_batch(
                BatchId(0),
                Digest::from_u64(0),
                10,
                Digest::from_u64(500),
                proof(0),
                b"payload",
            )
            .unwrap();
            l.ledger().block(0).unwrap().clone()
        };
        let mismatched = Snapshot {
            height: 5,
            head_hash: other.hash,
            head_block: Some(other),
            recent_ids: Vec::new(),
            app_meta: Vec::new(),
            app_chunks: Vec::new(),
        };
        assert!(matches!(
            led.install_snapshot(&mismatched),
            Err(StorageError::Corrupt { .. })
        ));
        assert_eq!(led.ledger().height(), 0, "failed installs change nothing");
    }

    #[test]
    fn force_snapshot_retains_its_head_block_across_pruning() {
        let dir = tempfile::tempdir().unwrap();
        let opts = DurableLedgerOptions {
            log: LogOptions {
                max_segment_bytes: 256,
                sync: crate::log::SyncPolicy::Always,
            },
            snapshot_every: 4,
        };
        let (mut led, _) = DurableLedger::open(dir.path(), opts).unwrap();
        for i in 0..4 {
            led.append_batch(
                BatchId(i),
                Digest::from_u64(i),
                10,
                Digest::from_u64(i + 500),
                proof(i),
                b"payload",
            )
            .unwrap();
        }
        led.maybe_snapshot(b"meta", &[b"state".to_vec()]).unwrap();
        let head = led.base_block().expect("snapshot kept its head block");
        assert_eq!(head.height, 3);
        assert_eq!(head.hash, led.ledger().head_hash());
        // The head block survives reopen even though the log pruned it.
        drop(led);
        let (led, _) = DurableLedger::open(dir.path(), opts).unwrap();
        assert_eq!(led.base_block().unwrap().height, 3);
        assert!(led.ledger().block(3).is_none(), "chain tail was pruned");
    }

    #[test]
    fn snapshot_due_tracks_the_cadence() {
        let dir = tempfile::tempdir().unwrap();
        let opts = DurableLedgerOptions {
            log: LogOptions::default(),
            snapshot_every: 3,
        };
        let (mut led, _) = DurableLedger::open(dir.path(), opts).unwrap();
        for i in 0..3 {
            assert!(!led.snapshot_due(), "not due before block {i}");
            led.append_batch(
                BatchId(i),
                Digest::from_u64(i),
                10,
                Digest::from_u64(i + 500),
                proof(i),
                b"payload",
            )
            .unwrap();
        }
        assert!(led.snapshot_due());
        led.maybe_snapshot(b"meta", &[b"state".to_vec()]).unwrap();
        assert!(!led.snapshot_due());
        // Disabled cadence is never due.
        let dir2 = tempfile::tempdir().unwrap();
        let opts2 = DurableLedgerOptions {
            log: LogOptions::default(),
            snapshot_every: 0,
        };
        let (mut led2, _) = DurableLedger::open(dir2.path(), opts2).unwrap();
        led2.append_batch(
            BatchId(0),
            Digest::from_u64(0),
            10,
            Digest::from_u64(500),
            proof(0),
            b"payload",
        )
        .unwrap();
        assert!(!led2.snapshot_due());
    }

    /// Appends batches `ids`, each with its id's bytes as payload.
    fn append_ids(led: &mut DurableLedger, ids: std::ops::Range<u64>) {
        for i in ids {
            led.append_batch(
                BatchId(i),
                Digest::from_u64(i),
                10,
                Digest::from_u64(i + 500),
                proof(i),
                &i.to_be_bytes(),
            )
            .unwrap();
        }
    }

    /// Log options that never fsync on their own and never snapshot.
    fn unsynced() -> DurableLedgerOptions {
        DurableLedgerOptions {
            log: LogOptions {
                sync: crate::log::SyncPolicy::Manual,
                ..LogOptions::default()
            },
            snapshot_every: 0,
        }
    }

    /// Asserts that `led` holds a block exactly where it holds a payload,
    /// over every height up to one past the head.
    fn assert_blocks_match_payloads(led: &DurableLedger) {
        for h in 0..=led.ledger().height() {
            assert_eq!(
                led.ledger().block(h).is_some(),
                led.payload(h).is_some(),
                "height {h}"
            );
        }
    }

    #[test]
    fn payloads_survive_reopen_including_a_tail_longer_than_the_cap() {
        let dir = tempfile::tempdir().unwrap();
        let n = TAIL_MAX as u64 + 3;
        let (mut led, _) = DurableLedger::open(dir.path(), unsynced()).unwrap();
        append_ids(&mut led, 0..n);
        // Appends cap the tail at the newest TAIL_MAX.
        assert_eq!(led.payload(2), None);
        assert_eq!(led.payload(3), Some(&3u64.to_be_bytes()[..]));
        assert_eq!(led.payload(n - 1), Some(&(n - 1).to_be_bytes()[..]));
        assert_eq!(led.payload(n), None, "nothing above the head");
        assert_blocks_match_payloads(&led);
        led.sync().unwrap();
        drop(led);
        // Reopening keeps the whole log tail, however long…
        let (mut led, report) = DurableLedger::open(dir.path(), unsynced()).unwrap();
        assert_eq!(report.replayed_blocks, n);
        for h in 0..n {
            assert_eq!(led.payload(h), Some(&h.to_be_bytes()[..]), "height {h}");
        }
        assert_eq!(led.payload(n), None);
        assert_blocks_match_payloads(&led);
        // …until the next append caps it again.
        append_ids(&mut led, n..n + 1);
        assert_eq!(led.payload(3), None);
        assert_eq!(led.payload(4), Some(&4u64.to_be_bytes()[..]));
        assert_eq!(led.payload(n), Some(&n.to_be_bytes()[..]));
        assert_eq!(led.ledger().base_height(), 4);
        assert_eq!(led.block_at(3).map(|b| b.height), Some(3));
        assert_blocks_match_payloads(&led);
    }

    #[test]
    fn a_snapshot_empties_the_tail() {
        let dir = tempfile::tempdir().unwrap();
        let (mut led, _) = DurableLedger::open(dir.path(), unsynced()).unwrap();
        append_ids(&mut led, 0..3);
        assert_eq!(led.payload(0), Some(&0u64.to_be_bytes()[..]));
        led.force_snapshot(b"meta", &[b"state".to_vec()]).unwrap();
        for h in 0..4 {
            assert_eq!(led.payload(h), None, "the snapshot covers height {h}");
            assert_eq!(
                led.ledger().block(h),
                None,
                "the snapshot covers height {h}"
            );
        }
        assert_eq!(led.ledger().base_height(), 3);
        assert_eq!(led.base_block().map(|b| b.height), Some(2));
        append_ids(&mut led, 3..4);
        assert_eq!(led.payload(2), None);
        assert_eq!(led.payload(3), Some(&3u64.to_be_bytes()[..]));
        // Reopening replays only the tail above the snapshot.
        led.sync().unwrap();
        drop(led);
        let (led, _) = DurableLedger::open(dir.path(), unsynced()).unwrap();
        assert_eq!(led.payload(2), None);
        assert_eq!(led.payload(3), Some(&3u64.to_be_bytes()[..]));
    }

    /// A fresh directory holding a copy of every file in `from`.
    fn copy_dir(from: &Path) -> tempfile::TempDir {
        let to = tempfile::tempdir().unwrap();
        for entry in std::fs::read_dir(from).unwrap() {
            let path = entry.unwrap().path();
            std::fs::copy(&path, to.path().join(path.file_name().unwrap())).unwrap();
        }
        to
    }

    #[test]
    fn a_running_store_holds_what_it_reopens_as() {
        let dir = tempfile::tempdir().unwrap();
        let (mut running, _) = DurableLedger::open(dir.path(), unsynced()).unwrap();
        append_ids(&mut running, 0..6);
        running
            .force_snapshot(b"meta", &[b"state".to_vec()])
            .unwrap();
        append_ids(&mut running, 6..8);
        running.sync().unwrap();
        let copy = copy_dir(dir.path());
        let (reopened, report) = DurableLedger::open(copy.path(), unsynced()).unwrap();
        assert_eq!((report.snapshot_height, report.replayed_blocks), (6, 2));
        let (a, b) = (&running, &reopened);
        assert_eq!(a.ledger().base_height(), b.ledger().base_height());
        assert_eq!(a.ledger().head_hash(), b.ledger().head_hash());
        assert_eq!(a.base_block(), b.base_block());
        for h in 0..=8 {
            assert_eq!(a.ledger().block(h), b.ledger().block(h), "block {h}");
            assert_eq!(a.payload(h), b.payload(h), "payload {h}");
        }
        for id in (0..9).map(BatchId) {
            assert_eq!(a.knows_batch(id), b.knows_batch(id), "{id:?}");
        }
        assert!(a.knows_batch(BatchId(0)) && !a.knows_batch(BatchId(8)));
    }

    #[test]
    fn installing_a_snapshot_clears_the_tail() {
        let mut peer = DurableLedger::in_memory();
        append_ids(&mut peer, 0..8);
        let head = peer.ledger().block(7).unwrap().clone();
        let transferred = Snapshot {
            height: 8,
            head_hash: head.hash,
            head_block: Some(head),
            recent_ids: (0..8).map(BatchId).collect(),
            app_meta: b"kv-meta".to_vec(),
            app_chunks: vec![b"kv-bytes".to_vec()],
        };
        let dir = tempfile::tempdir().unwrap();
        let (durable, _) = DurableLedger::open(dir.path(), unsynced()).unwrap();
        for mut led in [durable, DurableLedger::in_memory()] {
            append_ids(&mut led, 0..3);
            led.install_snapshot(&transferred).unwrap();
            for h in 0..9 {
                assert_eq!(led.payload(h), None, "height {h}");
            }
            append_ids(&mut led, 8..9);
            assert_eq!(led.payload(8), Some(&8u64.to_be_bytes()[..]));
            assert_blocks_match_payloads(&led);
        }
    }

    #[test]
    fn a_memory_only_store_caps_blocks_and_payloads_together() {
        let n = TAIL_MAX as u64 + 5;
        let mut led = DurableLedger::in_memory();
        append_ids(&mut led, 0..n);
        assert_blocks_match_payloads(&led);
        assert_eq!(led.ledger().base_height(), 5);
        assert_eq!(led.payload(4), None, "below the tail");
        assert_eq!(led.payload(5), Some(&5u64.to_be_bytes()[..]));
        assert_eq!(led.payload(n - 1), Some(&(n - 1).to_be_bytes()[..]));
        assert_eq!(led.payload(n), None, "above the head");
        led.ledger().verify().expect("verifies from the moved base");
        // The last block dropped is the base block…
        let below = led.block_at(4).expect("the base block");
        assert_eq!(below.batch_id, BatchId(4));
        assert_eq!(led.ledger().block(5).unwrap().parent, below.hash);
        assert_eq!(led.block_at(3), None);
        // …and a dropped batch is still known committed, through the
        // dedup set alone.
        assert!(led.knows_batch(BatchId(0)));
        assert!(led.ledger().find_batch(BatchId(0)).is_none());
        // A foreign block's payload joins the tail too; a rejected
        // block's does not.
        let mut src = DurableLedger::in_memory();
        append_ids(&mut src, 0..1);
        let foreign = src.ledger().block(0).unwrap().clone();
        let mut dst = DurableLedger::in_memory();
        dst.append_block(foreign.clone(), b"foreign").unwrap();
        assert!(dst.append_block(foreign, b"again").is_err());
        assert_eq!(dst.payload(0), Some(&b"foreign"[..]));
        assert_eq!(dst.payload(1), None);
        assert_blocks_match_payloads(&dst);
    }
}
