//! The segmented block log: a directory of [`segment`](crate::segment)
//! files holding the ledger's blocks in height order.
//!
//! The log is the durability backbone of [`DurableLedger`](crate::DurableLedger)
//! (crate root): every committed block is appended (and optionally
//! fsynced) before the commit is acknowledged upward. Segments rotate at
//! a size threshold so pruning can reclaim space in whole-file units —
//! deleting a segment never rewrites live data.
//!
//! Recovery contract (checked by [`BlockLog::open`]):
//!
//! * segment sequence numbers are contiguous — a missing middle segment
//!   is unrecoverable corruption (blocks would be silently skipped);
//! * only the **newest** segment may end in a torn tail; a defect in an
//!   older segment is corruption (fsync ordering guarantees older
//!   segments were complete before newer ones were created);
//! * block heights decode contiguously; each segment's header
//!   `base_height` must match the first block it holds.
//!
//! A record is `serde::bin` of `(block, payload)`: the block's bytes are
//! exactly the ones it has in a catch-up response on the wire, and the
//! batch payload follows as a length-prefixed byte string.

use crate::segment::{
    parse_segment_file_name, scan_segment, segment_file_name, SegmentHeader, SegmentWriter,
};
use crate::{check_parallel_proof, StorageError};
use serde::Serialize;
use spotless_ledger::Block;
use std::fs;
use std::path::{Path, PathBuf};

/// When appends are fsynced.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// fsync after every append — maximum durability, the default.
    #[default]
    Always,
    /// Never fsync automatically; the caller invokes
    /// [`BlockLog::sync`] at its own checkpoints.
    Manual,
}

/// Tuning knobs for the block log.
#[derive(Clone, Copy, Debug)]
pub struct LogOptions {
    /// Rotate to a new segment once the active one reaches this size.
    pub max_segment_bytes: u64,
    /// Append durability policy.
    pub sync: SyncPolicy,
}

impl Default for LogOptions {
    fn default() -> LogOptions {
        LogOptions {
            max_segment_bytes: 4 * 1024 * 1024,
            sync: SyncPolicy::Always,
        }
    }
}

/// Metadata for one closed (non-active) segment.
#[derive(Clone, Debug)]
struct ClosedSegment {
    path: PathBuf,
    seq: u64,
    /// Height of the first block in the segment.
    base_height: u64,
    /// Height one past the last block in the segment.
    end_height: u64,
}

/// What [`BlockLog::open`] found on disk.
#[derive(Debug)]
pub struct LogRecovery {
    /// Every intact block in the log, in height order, paired with its
    /// batch payload (the log persists payloads so recovery can
    /// re-execute — and re-serve — the chain tail without peers).
    pub blocks: Vec<(Block, Vec<u8>)>,
    /// Whether a torn tail was truncated from the newest segment.
    pub truncated_tail: bool,
}

/// A directory of block segments with one active writer.
#[derive(Debug)]
pub struct BlockLog {
    dir: PathBuf,
    opts: LogOptions,
    closed: Vec<ClosedSegment>,
    active: SegmentWriter,
    /// Height the next appended block must have.
    next_height: u64,
}

/// Encodes one log record: the block, then its batch payload. The
/// payload is *not* part of the block's hash — the block already binds
/// it through `batch_digest`.
fn encode_record(block: &Block, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(256 + 68 * block.proof.signers.len() + payload.len());
    (block, payload).ser_bin(&mut out);
    out
}

/// Decodes one log record. Structure only: chain linkage and hashes are
/// verified when recovery replays the blocks into a ledger.
fn decode_record(data: &[u8]) -> Result<(Block, Vec<u8>), serde::Error> {
    let (block, payload): (Block, Vec<u8>) = serde::bin::from_slice(data)?;
    check_parallel_proof(&block)?;
    Ok((block, payload))
}

impl BlockLog {
    /// Opens (or initializes) the log in `dir`, scanning all segments
    /// and returning every intact block for replay.
    ///
    /// `resume_height` is the height replay starts at (the snapshot
    /// height, or 0): blocks below it may already be pruned, so the
    /// first segment is allowed to start at or below `resume_height`
    /// but not above it.
    pub fn open(
        dir: &Path,
        opts: LogOptions,
        resume_height: u64,
    ) -> Result<(BlockLog, LogRecovery), StorageError> {
        fs::create_dir_all(dir).map_err(|e| StorageError::io(dir, "create log dir", e))?;
        let mut seqs: Vec<(u64, PathBuf)> = Vec::new();
        let entries = fs::read_dir(dir).map_err(|e| StorageError::io(dir, "list log dir", e))?;
        for entry in entries {
            let entry = entry.map_err(|e| StorageError::io(dir, "list log dir", e))?;
            if let Some(seq) = entry.file_name().to_str().and_then(parse_segment_file_name) {
                seqs.push((seq, entry.path()));
            }
        }
        seqs.sort_unstable_by_key(|(s, _)| *s);

        if seqs.is_empty() {
            // Fresh log: create segment 0 rooted at the resume height.
            let header = SegmentHeader {
                seq: 0,
                base_height: resume_height,
            };
            let active = SegmentWriter::create(dir.join(segment_file_name(0)), header)?;
            let log = BlockLog {
                dir: dir.to_path_buf(),
                opts,
                closed: Vec::new(),
                active,
                next_height: resume_height,
            };
            return Ok((
                log,
                LogRecovery {
                    blocks: Vec::new(),
                    truncated_tail: false,
                },
            ));
        }

        for pair in seqs.windows(2) {
            if pair[1].0 != pair[0].0 + 1 {
                return Err(StorageError::corrupt(
                    &pair[1].1,
                    0,
                    "segment sequence gap: an intermediate segment file is missing",
                ));
            }
        }

        let mut blocks: Vec<(Block, Vec<u8>)> = Vec::new();
        let mut closed = Vec::new();
        let mut truncated_tail = false;
        let mut expected_height: Option<u64> = None;
        let last_idx = seqs.len() - 1;
        let mut active: Option<SegmentWriter> = None;

        for (idx, (seq, path)) in seqs.iter().enumerate() {
            let scan = scan_segment(path)?;
            if scan.header.seq != *seq {
                return Err(StorageError::corrupt(
                    path,
                    12,
                    "segment header seq disagrees with file name",
                ));
            }
            if let Some(defect) = &scan.defect {
                if idx != last_idx {
                    return Err(StorageError::corrupt(
                        path,
                        scan.valid_len,
                        "defect in a non-final segment — log is corrupt, not torn",
                    ));
                }
                // Torn tail in the newest segment: recoverable.
                let _ = defect;
                truncated_tail = true;
            }
            let base = scan.header.base_height;
            if let Some(expected) = expected_height {
                if base != expected {
                    return Err(StorageError::corrupt(
                        path,
                        20,
                        "segment base height does not continue the previous segment",
                    ));
                }
            } else if base > resume_height {
                return Err(StorageError::corrupt(
                    path,
                    20,
                    "oldest segment starts above the snapshot height — blocks are missing",
                ));
            }
            let mut h = base;
            let record_count = scan.records.len() as u64;
            for record in &scan.records {
                let (block, payload) = decode_record(record).map_err(|e| StorageError::Codec {
                    path: path.clone(),
                    source: e,
                })?;
                if block.height != h {
                    return Err(StorageError::corrupt(
                        path,
                        0,
                        "block height out of sequence inside segment",
                    ));
                }
                h += 1;
                blocks.push((block, payload));
            }
            expected_height = Some(h);
            if idx == last_idx {
                active = Some(SegmentWriter::reopen(
                    path.clone(),
                    scan.header,
                    scan.valid_len,
                    record_count,
                )?);
            } else {
                closed.push(ClosedSegment {
                    path: path.clone(),
                    seq: *seq,
                    base_height: base,
                    end_height: h,
                });
            }
        }

        let next_height = expected_height.expect("at least one segment scanned");
        let log = BlockLog {
            dir: dir.to_path_buf(),
            opts,
            closed,
            active: active.expect("last segment reopened"),
            next_height,
        };
        Ok((
            log,
            LogRecovery {
                blocks,
                truncated_tail,
            },
        ))
    }

    /// Height the next appended block must carry.
    pub fn next_height(&self) -> u64 {
        self.next_height
    }

    /// Number of segment files (closed + active).
    pub fn segment_count(&self) -> usize {
        self.closed.len() + 1
    }

    /// Appends `block` and its batch payload (the block must sit exactly
    /// at [`next_height`]) and applies the sync policy. On success the
    /// record is in the OS page cache at minimum; with
    /// [`SyncPolicy::Always`] it is on disk.
    ///
    /// [`next_height`]: BlockLog::next_height
    pub fn append(&mut self, block: &Block, payload: &[u8]) -> Result<(), StorageError> {
        if block.height != self.next_height {
            return Err(StorageError::HeightGap {
                got: block.height,
                expected: self.next_height,
            });
        }
        if self.active.len() >= self.opts.max_segment_bytes && !self.active.is_empty() {
            self.rotate()?;
        }
        self.active.append(&encode_record(block, payload))?;
        self.next_height += 1;
        if self.opts.sync == SyncPolicy::Always {
            self.active.sync()?;
        }
        Ok(())
    }

    /// Flushes and fsyncs the active segment.
    pub fn sync(&mut self) -> Result<(), StorageError> {
        self.active.sync()
    }

    fn rotate(&mut self) -> Result<(), StorageError> {
        // The outgoing segment must be durable before the new one
        // exists, or recovery's "defects only in the newest segment"
        // invariant would not hold after a crash between the two steps.
        self.active.sync()?;
        let old_header = self.active.header();
        let new_header = SegmentHeader {
            seq: old_header.seq + 1,
            base_height: self.next_height,
        };
        let new_path = self.dir.join(segment_file_name(new_header.seq));
        let new_writer = SegmentWriter::create(new_path, new_header)?;
        let old = std::mem::replace(&mut self.active, new_writer);
        self.closed.push(ClosedSegment {
            path: old.path().to_path_buf(),
            seq: old_header.seq,
            base_height: old_header.base_height,
            end_height: self.next_height,
        });
        Ok(())
    }

    /// Discards **every** block in the log and restarts it at
    /// `resume_height` (snapshot state transfer: a received snapshot
    /// replaces the whole local chain).
    ///
    /// Crash safety: old segments are deleted newest-first, so whatever
    /// survives a crash is always a contiguous prefix of the old log —
    /// never a sequence gap — and the fresh segment is only created
    /// after every old file is gone. A caller that made the
    /// durable snapshot covering `resume_height` *before* calling this
    /// (see `DurableLedger::install_snapshot`) recovers from any
    /// intermediate state: the reopened log is then older than the
    /// snapshot and gets reset again on open.
    pub fn reset(&mut self, resume_height: u64) -> Result<(), StorageError> {
        // Newest first: the active segment, then closed ones in
        // descending sequence order. Deleting the active file while the
        // writer still holds it open is fine on POSIX (the inode lives
        // until the handle drops; we never write to it again).
        let active_path = self.active.path().to_path_buf();
        fs::remove_file(&active_path)
            .map_err(|e| StorageError::io(&active_path, "remove reset segment", e))?;
        self.closed
            .sort_unstable_by_key(|s| std::cmp::Reverse(s.seq));
        for seg in self.closed.drain(..) {
            fs::remove_file(&seg.path)
                .map_err(|e| StorageError::io(&seg.path, "remove reset segment", e))?;
        }
        let header = SegmentHeader {
            seq: 0,
            base_height: resume_height,
        };
        let new_writer = SegmentWriter::create(self.dir.join(segment_file_name(0)), header)?;
        self.active = new_writer;
        self.next_height = resume_height;
        Ok(())
    }

    /// Deletes closed segments whose blocks all sit below `height`
    /// (after a snapshot covering `height` is durable). Returns the
    /// number of segments removed. The active segment is never removed.
    pub fn prune_below(&mut self, height: u64) -> Result<usize, StorageError> {
        let mut removed = 0;
        let mut keep = Vec::with_capacity(self.closed.len());
        for seg in self.closed.drain(..) {
            if seg.end_height <= height {
                fs::remove_file(&seg.path)
                    .map_err(|e| StorageError::io(&seg.path, "remove pruned segment", e))?;
                removed += 1;
            } else {
                keep.push(seg);
            }
        }
        self.closed = keep;
        Ok(removed)
    }

    /// Oldest block height still materialized in the log.
    pub fn oldest_height(&self) -> u64 {
        self.closed
            .first()
            .map(|s| s.base_height)
            .unwrap_or_else(|| self.active.header().base_height)
    }

    /// The directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Diagnostic snapshot of segment layout: `(seq, base_height)` per
    /// closed segment, then the active one.
    pub fn layout(&self) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self.closed.iter().map(|s| (s.seq, s.base_height)).collect();
        let h = self.active.header();
        v.push((h.seq, h.base_height));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotless_ledger::Ledger;
    use spotless_types::{BatchId, Digest, InstanceId, ReplicaId, View};
    use tempfile::tempdir;

    fn build_blocks(count: u64) -> Vec<Block> {
        let mut ledger = Ledger::new();
        for i in 0..count {
            ledger.append(
                BatchId(i),
                Digest::from_u64(i),
                100,
                Digest::from_u64(i * 3 + 2),
                spotless_ledger::CommitProof {
                    phase: spotless_types::CertPhase::Strong,
                    instance: InstanceId((i % 4) as u32),
                    view: View(i),
                    voted: Digest::from_u64(i),
                    slot: i,
                    signers: vec![ReplicaId(0), ReplicaId(1), ReplicaId(2)],
                    sigs: vec![spotless_types::Signature::ZERO; 3],
                },
            );
        }
        ledger.iter().cloned().collect()
    }

    fn tiny_opts() -> LogOptions {
        LogOptions {
            max_segment_bytes: 256, // force frequent rotation in tests
            sync: SyncPolicy::Always,
        }
    }

    #[test]
    fn fresh_log_starts_empty() {
        let dir = tempdir().unwrap();
        let (log, rec) = BlockLog::open(dir.path(), LogOptions::default(), 0).unwrap();
        assert!(rec.blocks.is_empty());
        assert!(!rec.truncated_tail);
        assert_eq!(log.next_height(), 0);
        assert_eq!(log.segment_count(), 1);
    }

    #[test]
    fn append_reopen_replays_everything() {
        let dir = tempdir().unwrap();
        let blocks = build_blocks(20);
        {
            let (mut log, _) = BlockLog::open(dir.path(), tiny_opts(), 0).unwrap();
            for b in &blocks {
                log.append(b, b"payload").unwrap();
            }
            assert!(log.segment_count() > 1, "rotation must have happened");
        }
        let (log, rec) = BlockLog::open(dir.path(), tiny_opts(), 0).unwrap();
        let got: Vec<Block> = rec.blocks.iter().map(|(b, _)| b.clone()).collect();
        assert_eq!(got, blocks);
        assert!(rec.blocks.iter().all(|(_, p)| p == b"payload"));
        assert!(!rec.truncated_tail);
        assert_eq!(log.next_height(), 20);
    }

    #[test]
    fn height_gap_is_rejected() {
        let dir = tempdir().unwrap();
        let blocks = build_blocks(3);
        let (mut log, _) = BlockLog::open(dir.path(), LogOptions::default(), 0).unwrap();
        log.append(&blocks[0], b"payload").unwrap();
        let err = log.append(&blocks[2], b"payload").unwrap_err();
        assert!(matches!(
            err,
            StorageError::HeightGap {
                got: 2,
                expected: 1
            }
        ));
    }

    #[test]
    fn torn_tail_in_newest_segment_is_truncated() {
        let dir = tempdir().unwrap();
        let blocks = build_blocks(5);
        {
            let (mut log, _) = BlockLog::open(dir.path(), LogOptions::default(), 0).unwrap();
            for b in &blocks {
                log.append(b, b"payload").unwrap();
            }
        }
        // Simulate a crash mid-append on the newest segment.
        let newest = dir.path().join(segment_file_name(0));
        {
            use std::io::Write;
            let mut f = fs::OpenOptions::new().append(true).open(&newest).unwrap();
            f.write_all(&[0x13, 0x37, 0x00]).unwrap();
        }
        let (mut log, rec) = BlockLog::open(dir.path(), LogOptions::default(), 0).unwrap();
        let got: Vec<Block> = rec.blocks.iter().map(|(b, _)| b.clone()).collect();
        assert_eq!(got, blocks);
        assert!(rec.blocks.iter().all(|(_, p)| p == b"payload"));
        assert!(rec.truncated_tail);
        // And the log keeps working after truncation.
        let more = {
            let mut ledger = Ledger::with_base(5, blocks.last().unwrap().hash);
            ledger
                .append(
                    BatchId(100),
                    Digest::from_u64(100),
                    10,
                    Digest::from_u64(1000),
                    spotless_ledger::CommitProof {
                        phase: spotless_types::CertPhase::Strong,
                        instance: InstanceId(0),
                        view: View(50),
                        voted: Digest::from_u64(50),
                        slot: 0,
                        signers: vec![ReplicaId(1)],
                        sigs: vec![spotless_types::Signature::ZERO; 1],
                    },
                )
                .clone()
        };
        log.append(&more, b"payload").unwrap();
        let (_, rec) = BlockLog::open(dir.path(), LogOptions::default(), 0).unwrap();
        assert_eq!(rec.blocks.len(), 6);
    }

    #[test]
    fn defect_in_old_segment_is_corruption() {
        let dir = tempdir().unwrap();
        let blocks = build_blocks(20);
        {
            let (mut log, _) = BlockLog::open(dir.path(), tiny_opts(), 0).unwrap();
            for b in &blocks {
                log.append(b, b"payload").unwrap();
            }
            assert!(log.segment_count() >= 3);
        }
        // Flip a payload byte in the middle of segment 1 (not the newest).
        let victim = dir.path().join(segment_file_name(1));
        let mut data = fs::read(&victim).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0x80;
        fs::write(&victim, &data).unwrap();
        let err = BlockLog::open(dir.path(), tiny_opts(), 0).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn missing_middle_segment_is_corruption() {
        let dir = tempdir().unwrap();
        {
            let (mut log, _) = BlockLog::open(dir.path(), tiny_opts(), 0).unwrap();
            for b in &build_blocks(20) {
                log.append(b, b"payload").unwrap();
            }
            assert!(log.segment_count() >= 3);
        }
        fs::remove_file(dir.path().join(segment_file_name(1))).unwrap();
        let err = BlockLog::open(dir.path(), tiny_opts(), 0).unwrap_err();
        assert!(err.to_string().contains("sequence gap"), "{err}");
    }

    #[test]
    fn prune_removes_only_fully_covered_segments() {
        let dir = tempdir().unwrap();
        let blocks = build_blocks(20);
        let (mut log, _) = BlockLog::open(dir.path(), tiny_opts(), 0).unwrap();
        for b in &blocks {
            log.append(b, b"payload").unwrap();
        }
        let before = log.segment_count();
        assert!(before >= 3);
        let removed = log.prune_below(10).unwrap();
        assert!(removed >= 1);
        assert!(log.oldest_height() <= 10);
        // Everything at or above height 10 must still replay; reopening
        // with resume_height = oldest is fine.
        let oldest = log.oldest_height();
        drop(log);
        let (_, rec) = BlockLog::open(dir.path(), tiny_opts(), oldest).unwrap();
        let replayed_from = rec.blocks.first().unwrap().0.height;
        assert!(replayed_from <= 10);
        assert_eq!(rec.blocks.last().unwrap().0.height, 19);
    }

    #[test]
    fn reopen_after_prune_respects_resume_height() {
        let dir = tempdir().unwrap();
        let blocks = build_blocks(20);
        let (mut log, _) = BlockLog::open(dir.path(), tiny_opts(), 0).unwrap();
        for b in &blocks {
            log.append(b, b"payload").unwrap();
        }
        log.prune_below(10).unwrap();
        let oldest = log.oldest_height();
        drop(log);
        // Opening with a resume height *below* what survives must fail
        // loudly — blocks the caller expects to replay are gone.
        if oldest > 0 {
            let err = BlockLog::open(dir.path(), tiny_opts(), oldest - 1).unwrap_err();
            assert!(err.to_string().contains("missing"), "{err}");
        }
    }

    #[test]
    fn layout_reports_rotation_points() {
        let dir = tempdir().unwrap();
        let (mut log, _) = BlockLog::open(dir.path(), tiny_opts(), 0).unwrap();
        for b in &build_blocks(20) {
            log.append(b, b"payload").unwrap();
        }
        let layout = log.layout();
        assert_eq!(layout.len(), log.segment_count());
        assert!(layout.windows(2).all(|w| w[0].0 + 1 == w[1].0));
        assert!(layout.windows(2).all(|w| w[0].1 < w[1].1));
    }
}
