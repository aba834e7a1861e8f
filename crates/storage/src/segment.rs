//! The on-disk segment format of the block log.
//!
//! A segment is one append-only file holding a header followed by framed
//! records:
//!
//! ```text
//! header   := magic[8] version:u32 seq:u64 base_height:u64 crc:u32   (32 B)
//! record   := len:u32 crc:u32 payload[len]
//! ```
//!
//! `crc` is CRC-32C over the payload (for the header: over the preceding
//! 28 bytes). A crash can leave a partially written record at the end of
//! the newest segment; the scan reports it as a [`TailDefect`] with the
//! byte offset of the last intact record so recovery can truncate the
//! torn tail and resume appending — the same contract as the LevelDB /
//! RocksDB log readers. Anything after the first defect is unreachable
//! (frame boundaries are lost), so the scan stops there.

use crate::crc32::crc32c;
use crate::StorageError;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every segment file.
pub const MAGIC: [u8; 8] = *b"SPLSSEG1";
/// Current format version. Version 2 changed the record payload: block
/// records gained the commit certificate's phase byte and the embedded
/// batch payload. Version 3
/// added the block's `state_root` digest (ledger header v3 — execution
/// state anchored in the chain). Version 4 extended the commit proof
/// with its vote statement (voted digest + slot) and one Ed25519
/// signature per signer, making persisted certificates re-checkable by
/// third parties. Version 5 made the sealed `state_root` the root of a
/// two-level tree (per-shard sub-trees under a top tree, enabling
/// deterministic parallel execution) — the byte layout is unchanged but
/// every root differs from version 4's single-level tree, so replaying
/// an old log would fail its seal checks. Version 6 did the same again
/// one layer down: a bucket's leaf became the digest of its per-record
/// digests (state-root definition v2) — same layout, different roots.
/// Version 7 writes each record as `serde::bin` of `(block, payload)`,
/// the block's wire encoding, instead of a storage-only codec.
/// Version 8 keeps that layout, but each certificate signature covers
/// the SHA-256 signing digest of its vote statement rather than the
/// statement itself, so no peer could verify a version-7 log's proofs.
/// There is no in-place upgrade:
/// a store written by an older version fails with a clean
/// [`StorageError::UnsupportedVersion`](crate::StorageError) rather
/// than a misleading corruption diagnosis, and the operator recovers
/// the replica via state transfer from its peers.
pub const VERSION: u32 = 8;
/// Size of the fixed segment header.
pub const HEADER_LEN: u64 = 32;
/// Per-record framing overhead (length + CRC).
pub const RECORD_OVERHEAD: u64 = 8;
/// Upper bound on a single record payload. Larger prefixes are treated
/// as corruption: the biggest legitimate record (a block with thousands
/// of signers) is far below this.
pub const MAX_RECORD_LEN: u32 = 16 * 1024 * 1024;

/// Identifying metadata of a segment, parsed from its header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentHeader {
    /// Monotonic sequence number of the segment within the log.
    pub seq: u64,
    /// Height of the first block recorded in this segment.
    pub base_height: u64,
}

impl SegmentHeader {
    fn encode(&self) -> [u8; 32] {
        let mut h = [0u8; 32];
        h[..8].copy_from_slice(&MAGIC);
        h[8..12].copy_from_slice(&VERSION.to_le_bytes());
        h[12..20].copy_from_slice(&self.seq.to_le_bytes());
        h[20..28].copy_from_slice(&self.base_height.to_le_bytes());
        let crc = crc32c(&h[..28]);
        h[28..32].copy_from_slice(&crc.to_le_bytes());
        h
    }

    fn decode(h: &[u8; 32], path: &Path) -> Result<SegmentHeader, StorageError> {
        if h[..8] != MAGIC {
            return Err(StorageError::corrupt(path, 0, "bad segment magic"));
        }
        let version = u32::from_le_bytes([h[8], h[9], h[10], h[11]]);
        if version != VERSION {
            return Err(StorageError::UnsupportedVersion {
                path: path.to_path_buf(),
                version,
            });
        }
        let crc = u32::from_le_bytes([h[28], h[29], h[30], h[31]]);
        if crc != crc32c(&h[..28]) {
            return Err(StorageError::corrupt(
                path,
                28,
                "segment header CRC mismatch",
            ));
        }
        Ok(SegmentHeader {
            seq: u64::from_le_bytes([h[12], h[13], h[14], h[15], h[16], h[17], h[18], h[19]]),
            base_height: u64::from_le_bytes([
                h[20], h[21], h[22], h[23], h[24], h[25], h[26], h[27],
            ]),
        })
    }
}

/// File name for segment `seq` (fixed-width hex so lexicographic order
/// is numeric order).
pub fn segment_file_name(seq: u64) -> String {
    format!("seg-{seq:016x}.log")
}

/// Parses a segment sequence number back out of a file name.
pub fn parse_segment_file_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("seg-")?.strip_suffix(".log")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// An open segment being appended to.
#[derive(Debug)]
pub struct SegmentWriter {
    path: PathBuf,
    file: BufWriter<File>,
    /// Bytes of intact data (header + complete records) written so far.
    len: u64,
    header: SegmentHeader,
    records: u64,
}

impl SegmentWriter {
    /// Creates a fresh segment file at `path` and writes its header.
    pub fn create(path: PathBuf, header: SegmentHeader) -> Result<SegmentWriter, StorageError> {
        let file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
            .map_err(|e| StorageError::io(&path, "create segment", e))?;
        let mut w = SegmentWriter {
            file: BufWriter::new(file),
            path,
            len: 0,
            header,
            records: 0,
        };
        w.write_all(&header.encode())?;
        w.len = HEADER_LEN;
        Ok(w)
    }

    /// Reopens an existing segment for appending after recovery decided
    /// `valid_len` bytes are intact. The file is truncated to that length
    /// first, discarding any torn tail.
    pub fn reopen(
        path: PathBuf,
        header: SegmentHeader,
        valid_len: u64,
        records: u64,
    ) -> Result<SegmentWriter, StorageError> {
        let file = OpenOptions::new()
            .write(true)
            .read(true)
            .open(&path)
            .map_err(|e| StorageError::io(&path, "reopen segment", e))?;
        file.set_len(valid_len)
            .map_err(|e| StorageError::io(&path, "truncate torn tail", e))?;
        use std::io::Seek;
        let mut file = file;
        file.seek(std::io::SeekFrom::End(0))
            .map_err(|e| StorageError::io(&path, "seek to end", e))?;
        Ok(SegmentWriter {
            file: BufWriter::new(file),
            path,
            len: valid_len,
            header,
            records,
        })
    }

    fn write_all(&mut self, data: &[u8]) -> Result<(), StorageError> {
        self.file
            .write_all(data)
            .map_err(|e| StorageError::io(&self.path, "append", e))
    }

    /// Appends one framed record. The data is buffered; call [`sync`]
    /// (or rely on the log's sync policy) to make it durable.
    ///
    /// [`sync`]: SegmentWriter::sync
    pub fn append(&mut self, payload: &[u8]) -> Result<(), StorageError> {
        debug_assert!(payload.len() as u64 <= u64::from(MAX_RECORD_LEN));
        let len = payload.len() as u32;
        let crc = crc32c(payload);
        self.write_all(&len.to_le_bytes())?;
        self.write_all(&crc.to_le_bytes())?;
        self.write_all(payload)?;
        self.len += RECORD_OVERHEAD + u64::from(len);
        self.records += 1;
        Ok(())
    }

    /// Flushes buffers and fsyncs the file.
    pub fn sync(&mut self) -> Result<(), StorageError> {
        self.file
            .flush()
            .map_err(|e| StorageError::io(&self.path, "flush", e))?;
        self.file
            .get_ref()
            .sync_data()
            .map_err(|e| StorageError::io(&self.path, "fsync", e))
    }

    /// Bytes of intact data written (header + complete records).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the segment holds no records.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Number of records appended.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// This segment's header metadata.
    pub fn header(&self) -> SegmentHeader {
        self.header
    }

    /// The segment's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Why a scan stopped before the end of the file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TailDefect {
    /// Fewer bytes remained than one record frame requires — the classic
    /// torn write.
    TruncatedRecord {
        /// Bytes that remained past the last intact record.
        trailing: u64,
    },
    /// A complete frame was present but its CRC did not match.
    CrcMismatch,
    /// A length prefix exceeded [`MAX_RECORD_LEN`].
    AbsurdLength {
        /// The decoded length.
        got: u32,
    },
}

/// Result of scanning one segment file.
#[derive(Debug)]
pub struct SegmentScan {
    /// Parsed header.
    pub header: SegmentHeader,
    /// Every intact record payload, in order.
    pub records: Vec<Vec<u8>>,
    /// Bytes of intact data (header + complete records).
    pub valid_len: u64,
    /// Present when the file ends in a defect; recovery truncates to
    /// `valid_len` iff the defect is in the newest segment.
    pub defect: Option<TailDefect>,
}

/// Reads and validates a whole segment file.
pub fn scan_segment(path: &Path) -> Result<SegmentScan, StorageError> {
    let mut file = File::open(path).map_err(|e| StorageError::io(path, "open segment", e))?;
    let mut data = Vec::new();
    file.read_to_end(&mut data)
        .map_err(|e| StorageError::io(path, "read segment", e))?;
    if data.len() < HEADER_LEN as usize {
        return Err(StorageError::corrupt(
            path,
            0,
            "segment shorter than header",
        ));
    }
    let mut header_bytes = [0u8; 32];
    header_bytes.copy_from_slice(&data[..32]);
    let header = SegmentHeader::decode(&header_bytes, path)?;

    let mut records = Vec::new();
    let mut pos = HEADER_LEN as usize;
    let mut defect = None;
    while pos < data.len() {
        let remaining = data.len() - pos;
        if remaining < RECORD_OVERHEAD as usize {
            defect = Some(TailDefect::TruncatedRecord {
                trailing: remaining as u64,
            });
            break;
        }
        let len = u32::from_le_bytes([data[pos], data[pos + 1], data[pos + 2], data[pos + 3]]);
        if len > MAX_RECORD_LEN {
            defect = Some(TailDefect::AbsurdLength { got: len });
            break;
        }
        let crc = u32::from_le_bytes([data[pos + 4], data[pos + 5], data[pos + 6], data[pos + 7]]);
        let body_start = pos + RECORD_OVERHEAD as usize;
        if data.len() - body_start < len as usize {
            defect = Some(TailDefect::TruncatedRecord {
                trailing: remaining as u64,
            });
            break;
        }
        let body = &data[body_start..body_start + len as usize];
        if crc32c(body) != crc {
            defect = Some(TailDefect::CrcMismatch);
            break;
        }
        records.push(body.to_vec());
        pos = body_start + len as usize;
    }
    Ok(SegmentScan {
        header,
        records,
        valid_len: pos as u64,
        defect,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempfile::tempdir;

    fn header(seq: u64) -> SegmentHeader {
        SegmentHeader {
            seq,
            base_height: seq * 100,
        }
    }

    #[test]
    fn file_names_roundtrip_and_sort() {
        assert_eq!(parse_segment_file_name(&segment_file_name(0)), Some(0));
        assert_eq!(
            parse_segment_file_name(&segment_file_name(u64::MAX)),
            Some(u64::MAX)
        );
        assert!(segment_file_name(9) < segment_file_name(10));
        assert!(segment_file_name(255) < segment_file_name(4096));
        assert_eq!(parse_segment_file_name("seg-xyz.log"), None);
        assert_eq!(parse_segment_file_name("snapshot-3.snap"), None);
    }

    #[test]
    fn write_then_scan_roundtrips() {
        let dir = tempdir().unwrap();
        let path = dir.path().join(segment_file_name(3));
        let mut w = SegmentWriter::create(path.clone(), header(3)).unwrap();
        for i in 0..10u8 {
            w.append(&vec![i; 10 + i as usize]).unwrap();
        }
        w.sync().unwrap();
        let scan = scan_segment(&path).unwrap();
        assert_eq!(scan.header, header(3));
        assert_eq!(scan.records.len(), 10);
        assert_eq!(scan.records[4], vec![4u8; 14]);
        assert_eq!(scan.defect, None);
        assert_eq!(scan.valid_len, w.len());
    }

    #[test]
    fn torn_tail_is_reported_with_valid_prefix() {
        let dir = tempdir().unwrap();
        let path = dir.path().join(segment_file_name(0));
        let mut w = SegmentWriter::create(path.clone(), header(0)).unwrap();
        w.append(b"first").unwrap();
        w.append(b"second").unwrap();
        w.sync().unwrap();
        let intact = w.len();
        // Simulate a crash mid-append: write half a record frame.
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&20u32.to_le_bytes()).unwrap();
            f.write_all(&[0xAB; 3]).unwrap();
        }
        let scan = scan_segment(&path).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.valid_len, intact);
        assert!(matches!(
            scan.defect,
            Some(TailDefect::TruncatedRecord { trailing: 7 })
        ));
    }

    #[test]
    fn corrupted_record_body_stops_the_scan() {
        let dir = tempdir().unwrap();
        let path = dir.path().join(segment_file_name(0));
        let mut w = SegmentWriter::create(path.clone(), header(0)).unwrap();
        w.append(b"aaaa").unwrap();
        w.append(b"bbbb").unwrap();
        w.sync().unwrap();
        // Flip a byte in the second record's payload.
        let mut data = std::fs::read(&path).unwrap();
        let second_body = data.len() - 1;
        data[second_body] ^= 0x01;
        std::fs::write(&path, &data).unwrap();
        let scan = scan_segment(&path).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.defect, Some(TailDefect::CrcMismatch));
    }

    #[test]
    fn absurd_length_prefix_is_a_defect_not_an_allocation() {
        let dir = tempdir().unwrap();
        let path = dir.path().join(segment_file_name(0));
        let w = SegmentWriter::create(path.clone(), header(0)).unwrap();
        drop(w);
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&u32::MAX.to_le_bytes()).unwrap();
            f.write_all(&0u32.to_le_bytes()).unwrap();
        }
        let scan = scan_segment(&path).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(
            scan.defect,
            Some(TailDefect::AbsurdLength { got: u32::MAX })
        );
    }

    #[test]
    fn reopen_truncates_and_appends_cleanly() {
        let dir = tempdir().unwrap();
        let path = dir.path().join(segment_file_name(1));
        let mut w = SegmentWriter::create(path.clone(), header(1)).unwrap();
        w.append(b"keep").unwrap();
        w.sync().unwrap();
        let valid = w.len();
        drop(w);
        // Torn garbage at the end.
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0xFF; 5]).unwrap();
        }
        let mut w = SegmentWriter::reopen(path.clone(), header(1), valid, 1).unwrap();
        w.append(b"appended-after-recovery").unwrap();
        w.sync().unwrap();
        let scan = scan_segment(&path).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[1], b"appended-after-recovery");
        assert_eq!(scan.defect, None);
    }

    #[test]
    fn header_tampering_is_detected() {
        let dir = tempdir().unwrap();
        let path = dir.path().join(segment_file_name(0));
        let w = SegmentWriter::create(path.clone(), header(0)).unwrap();
        drop(w);
        let mut data = std::fs::read(&path).unwrap();
        data[14] ^= 0x01; // flip a bit in the seq field
        std::fs::write(&path, &data).unwrap();
        let err = scan_segment(&path).unwrap_err();
        assert!(err.to_string().contains("CRC"), "{err}");
    }

    #[test]
    fn wrong_version_is_a_distinct_error() {
        let dir = tempdir().unwrap();
        let path = dir.path().join(segment_file_name(0));
        let w = SegmentWriter::create(path.clone(), header(0)).unwrap();
        drop(w);
        let mut data = std::fs::read(&path).unwrap();
        data[8..12].copy_from_slice(&99u32.to_le_bytes());
        let crc = crc32c(&data[..28]);
        data[28..32].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &data).unwrap();
        match scan_segment(&path).unwrap_err() {
            StorageError::UnsupportedVersion { version, .. } => assert_eq!(version, 99),
            e => panic!("expected UnsupportedVersion, got {e}"),
        }
    }
}
