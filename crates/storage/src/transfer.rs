//! The partial-install journal for chunked snapshot state transfer.
//!
//! A replica receiving a chunked snapshot verifies each chunk against
//! the head block's `state_root` as it arrives and records it here —
//! under `<storage dir>/incoming/` for durable deployments — so that a
//! crash mid-transfer **resumes** instead of restarting: on reopen the
//! journal reports which chunks are already present and verified, and
//! the runtime fetches only the rest.
//!
//! Layout: a `manifest.inst` file holding the **snapshot manifest** of
//! the transfer's target, in [`crate::snapshot`]'s format (magic,
//! version, CRC framing and all): the target height, the certified head
//! block (whose hash is the manifest's head hash), the recent-id
//! window, the application meta bytes, and the expected chunk digest
//! list; plus one content-addressed blob per received chunk (the same
//! blob helpers as snapshots). Chunk blobs are written atomically (tmp
//! file, rename, fsync), so a torn write never masquerades as a
//! verified chunk; on load every blob is re-verified against its
//! content address and silently dropped if it does not match. The
//! journal is only a *progress cache*: the final install re-verifies the
//! assembled state against the chain's committed root, so even a
//! corrupted journal cannot poison the store — it can only cost a
//! re-fetch. A manifest that does not decode (corrupt, or written in
//! another format) opens as "no transfer", and the next
//! [`InstallJournal::begin`] wipes `incoming/`.

use crate::snapshot::{
    chunk_file_name, decode_manifest, encode_manifest, read_chunk_blob, write_atomic,
    write_chunk_blob, Manifest,
};
use crate::StorageError;
use spotless_ledger::Block;
use spotless_types::{BatchId, Digest};
use std::fs;
use std::path::{Path, PathBuf};

/// Name of the journal manifest inside the journal directory.
const MANIFEST_FILE: &str = "manifest.inst";
/// Name of the journal directory inside a replica's storage directory.
pub const JOURNAL_DIR: &str = "incoming";

/// Everything a chunked transfer must agree on before chunks flow: the
/// target of the install and the content addresses of its pieces.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InstallManifest {
    /// Ledger height the snapshot covers.
    pub height: u64,
    /// The certified block at `height − 1`; its `state_root` is what
    /// every chunk is verified against.
    pub head_block: Block,
    /// Recent-batch-id window the snapshot carries.
    pub recent_ids: Vec<BatchId>,
    /// Opaque application meta bytes (verified against the state root
    /// by the runtime via the meta-leaf inclusion proof).
    pub app_meta: Vec<u8>,
    /// Content addresses of the chunks, in order.
    pub chunk_digests: Vec<Digest>,
}

impl InstallManifest {
    /// True iff `other` describes the same transfer: same target block
    /// and the same chunking. A journal begun under one manifest resumes
    /// only under an equal one.
    pub fn same_transfer(&self, other: &InstallManifest) -> bool {
        self.height == other.height
            && self.head_block.hash == other.head_block.hash
            && self.chunk_digests == other.chunk_digests
            && self.app_meta == other.app_meta
    }

    /// The snapshot manifest of the transfer's target; the head hash is
    /// the head block's.
    fn encode(&self) -> Vec<u8> {
        encode_manifest(&Manifest {
            height: self.height,
            head_hash: self.head_block.hash,
            head_block: Some(self.head_block.clone()),
            recent_ids: self.recent_ids.clone(),
            app_meta: self.app_meta.clone(),
            chunk_digests: self.chunk_digests.clone(),
        })
    }

    /// Reads back [`encode`](InstallManifest::encode)'s bytes: a
    /// snapshot manifest that carries a head block whose hash is its
    /// head hash.
    fn decode(data: &[u8], path: &Path) -> Result<InstallManifest, StorageError> {
        let m = decode_manifest(data, path)?;
        let Some(head_block) = m.head_block.filter(|b| b.hash == m.head_hash) else {
            return Err(StorageError::corrupt(
                path,
                0,
                "journal manifest head block is missing or not its head hash",
            ));
        };
        Ok(InstallManifest {
            height: m.height,
            head_block,
            recent_ids: m.recent_ids,
            app_meta: m.app_meta,
            chunk_digests: m.chunk_digests,
        })
    }
}

/// The journal itself: an optional on-disk mirror (durable deployments)
/// over an in-memory chunk set. Memory-only deployments run it with
/// `dir = None` — nothing survives their crashes anyway.
pub struct InstallJournal {
    dir: Option<PathBuf>,
    manifest: Option<InstallManifest>,
    /// Received chunk bytes, indexed like `manifest.chunk_digests`.
    chunks: Vec<Option<Vec<u8>>>,
}

impl InstallJournal {
    /// An in-memory journal (no crash durability).
    pub fn in_memory() -> InstallJournal {
        InstallJournal {
            dir: None,
            manifest: None,
            chunks: Vec::new(),
        }
    }

    /// Opens the journal under `storage_dir`, loading whatever a
    /// previous (possibly crashed) transfer left: the manifest, then
    /// every chunk blob that still verifies against its content
    /// address. Blobs that fail verification are dropped (they will be
    /// re-fetched); an unreadable manifest resets the journal entirely.
    pub fn open(storage_dir: &Path) -> InstallJournal {
        let dir = storage_dir.join(JOURNAL_DIR);
        let mut journal = InstallJournal {
            dir: Some(dir.clone()),
            manifest: None,
            chunks: Vec::new(),
        };
        let manifest_path = dir.join(MANIFEST_FILE);
        let Ok(data) = fs::read(&manifest_path) else {
            return journal;
        };
        let Ok(manifest) = InstallManifest::decode(&data, &manifest_path) else {
            return journal; // corrupt: start over on the next transfer
        };
        if !manifest.head_block.verify_hash() {
            return journal;
        }
        let mut chunks = Vec::with_capacity(manifest.chunk_digests.len());
        for d in &manifest.chunk_digests {
            // `read_chunk_blob` re-verifies the content address.
            chunks.push(read_chunk_blob(&dir, d).ok());
        }
        journal.chunks = chunks;
        journal.manifest = Some(manifest);
        journal
    }

    /// The transfer in progress, if any.
    pub fn manifest(&self) -> Option<&InstallManifest> {
        self.manifest.as_ref()
    }

    /// Number of chunks already received and verified.
    pub fn chunks_present(&self) -> u32 {
        self.chunks.iter().filter(|c| c.is_some()).count() as u32
    }

    /// Indexes of the chunks still missing, in order.
    pub fn missing(&self) -> Vec<u32> {
        self.chunks
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_none())
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// True iff a transfer is in progress and every chunk is present.
    pub fn is_complete(&self) -> bool {
        self.manifest.is_some() && self.chunks.iter().all(|c| c.is_some())
    }

    /// True iff chunk `index` is already present.
    pub fn has_chunk(&self, index: u32) -> bool {
        self.chunks.get(index as usize).is_some_and(|c| c.is_some())
    }

    /// Starts (or resumes) a transfer under `manifest`. If the journal
    /// already tracks the **same** transfer, received chunks are kept —
    /// this is the resume path after a crash or a peer rotation. A
    /// different manifest resets the journal: old chunks are deleted and
    /// the new manifest is persisted before any chunk is accepted.
    pub fn begin(&mut self, manifest: InstallManifest) -> Result<(), StorageError> {
        if self
            .manifest
            .as_ref()
            .is_some_and(|m| m.same_transfer(&manifest))
        {
            return Ok(()); // resuming: keep everything
        }
        self.wipe()?;
        if let Some(dir) = &self.dir {
            fs::create_dir_all(dir).map_err(|e| StorageError::io(dir, "create journal dir", e))?;
            write_atomic(dir, MANIFEST_FILE, &manifest.encode(), true)?;
        }
        self.chunks = vec![None; manifest.chunk_digests.len()];
        self.manifest = Some(manifest);
        Ok(())
    }

    /// Records chunk `index`. The bytes must hash to the manifest's
    /// content address for that index (the caller has additionally
    /// verified them against the chain's state root); a mismatch is
    /// rejected without touching the journal.
    pub fn put_chunk(&mut self, index: u32, bytes: Vec<u8>) -> Result<(), StorageError> {
        let Some(manifest) = &self.manifest else {
            return Ok(()); // no transfer in progress: drop silently
        };
        let Some(expected) = manifest.chunk_digests.get(index as usize).copied() else {
            return Ok(());
        };
        if spotless_crypto::digest_bytes(&bytes) != expected {
            return Ok(()); // not the chunk the manifest names
        }
        if let Some(dir) = &self.dir {
            write_chunk_blob(dir, &expected, &bytes)?;
        }
        self.chunks[index as usize] = Some(bytes);
        Ok(())
    }

    /// The received chunks in manifest order; `None` unless
    /// [`is_complete`](InstallJournal::is_complete).
    pub fn assembled_chunks(&self) -> Option<Vec<Vec<u8>>> {
        if !self.is_complete() {
            return None;
        }
        Some(
            self.chunks
                .iter()
                .map(|c| c.clone().expect("complete"))
                .collect(),
        )
    }

    /// Discards the transfer: forgets the manifest and chunks and
    /// removes the on-disk journal directory. Called after a successful
    /// install (the snapshot now owns the state) or when abandoning a
    /// transfer for a different one.
    pub fn wipe(&mut self) -> Result<(), StorageError> {
        self.manifest = None;
        self.chunks.clear();
        if let Some(dir) = &self.dir {
            if dir.exists() {
                fs::remove_dir_all(dir)
                    .map_err(|e| StorageError::io(dir, "remove journal dir", e))?;
            }
        }
        Ok(())
    }
}

/// Reads one journal chunk blob by content address (diagnostics/tests).
pub fn journal_chunk_path(storage_dir: &Path, digest: &Digest) -> PathBuf {
    storage_dir.join(JOURNAL_DIR).join(chunk_file_name(digest))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotless_ledger::{CommitProof, Ledger};
    use spotless_types::{CertPhase, InstanceId, ReplicaId, View};
    use tempfile::tempdir;

    fn head_block() -> Block {
        let mut ledger = Ledger::new();
        ledger.append(
            BatchId(1),
            Digest::from_u64(1),
            10,
            Digest::from_u64(99),
            CommitProof {
                instance: InstanceId(0),
                view: View(1),
                phase: CertPhase::Strong,
                voted: Digest::from_u64(9),
                slot: 0,
                signers: vec![ReplicaId(0), ReplicaId(1), ReplicaId(2)],
                sigs: vec![spotless_types::Signature::ZERO; 3],
            },
        );
        ledger.block(0).unwrap().clone()
    }

    fn manifest_for(chunks: &[&[u8]]) -> InstallManifest {
        InstallManifest {
            height: 1,
            head_block: head_block(),
            recent_ids: vec![BatchId(1)],
            app_meta: b"meta".to_vec(),
            chunk_digests: chunks
                .iter()
                .map(|c| spotless_crypto::digest_bytes(c))
                .collect(),
        }
    }

    #[test]
    fn journal_survives_reopen_with_partial_chunks() {
        let dir = tempdir().unwrap();
        let m = manifest_for(&[b"c0", b"c1", b"c2"]);
        {
            let mut j = InstallJournal::open(dir.path());
            assert!(j.manifest().is_none());
            j.begin(m.clone()).unwrap();
            j.put_chunk(0, b"c0".to_vec()).unwrap();
            j.put_chunk(2, b"c2".to_vec()).unwrap();
            assert_eq!(j.chunks_present(), 2);
            assert_eq!(j.missing(), vec![1]);
            assert!(!j.is_complete());
            // Crash: drop without cleanup.
        }
        let mut j = InstallJournal::open(dir.path());
        assert_eq!(j.manifest(), Some(&m));
        assert_eq!(j.chunks_present(), 2, "verified chunks survive the crash");
        assert_eq!(j.missing(), vec![1]);
        // Resuming under the same manifest keeps progress.
        j.begin(m).unwrap();
        assert_eq!(j.chunks_present(), 2);
        j.put_chunk(1, b"c1".to_vec()).unwrap();
        assert!(j.is_complete());
        assert_eq!(
            j.assembled_chunks().unwrap(),
            vec![b"c0".to_vec(), b"c1".to_vec(), b"c2".to_vec()]
        );
    }

    #[test]
    fn wrong_bytes_and_wrong_index_are_rejected() {
        let dir = tempdir().unwrap();
        let mut j = InstallJournal::open(dir.path());
        j.begin(manifest_for(&[b"c0"])).unwrap();
        j.put_chunk(0, b"not-c0".to_vec()).unwrap();
        assert_eq!(j.chunks_present(), 0, "bytes must match the manifest");
        j.put_chunk(7, b"c0".to_vec()).unwrap();
        assert_eq!(j.chunks_present(), 0, "out-of-range index is dropped");
        j.put_chunk(0, b"c0".to_vec()).unwrap();
        assert!(j.is_complete());
    }

    #[test]
    fn different_manifest_resets_progress() {
        let dir = tempdir().unwrap();
        let mut j = InstallJournal::open(dir.path());
        j.begin(manifest_for(&[b"a", b"b"])).unwrap();
        j.put_chunk(0, b"a".to_vec()).unwrap();
        // The cluster moved on: a new transfer target arrives.
        j.begin(manifest_for(&[b"x", b"y", b"z"])).unwrap();
        assert_eq!(j.chunks_present(), 0);
        assert_eq!(j.missing().len(), 3);
        // And the old chunk blob is gone from disk.
        assert!(
            !journal_chunk_path(dir.path(), &spotless_crypto::digest_bytes(b"a")).exists(),
            "reset must not leave stale blobs behind"
        );
    }

    #[test]
    fn corrupted_blob_is_dropped_on_reopen() {
        let dir = tempdir().unwrap();
        let m = manifest_for(&[b"c0", b"c1"]);
        {
            let mut j = InstallJournal::open(dir.path());
            j.begin(m.clone()).unwrap();
            j.put_chunk(0, b"c0".to_vec()).unwrap();
            j.put_chunk(1, b"c1".to_vec()).unwrap();
            assert!(j.is_complete());
        }
        let blob = journal_chunk_path(dir.path(), &spotless_crypto::digest_bytes(b"c1"));
        fs::write(&blob, b"garbage").unwrap();
        let j = InstallJournal::open(dir.path());
        assert_eq!(j.chunks_present(), 1, "corrupt blob must not count");
        assert_eq!(j.missing(), vec![1]);
    }

    #[test]
    fn wipe_clears_disk_state() {
        let dir = tempdir().unwrap();
        let mut j = InstallJournal::open(dir.path());
        j.begin(manifest_for(&[b"c0"])).unwrap();
        j.put_chunk(0, b"c0".to_vec()).unwrap();
        j.wipe().unwrap();
        assert!(j.manifest().is_none());
        assert!(!dir.path().join(JOURNAL_DIR).exists());
        let j = InstallJournal::open(dir.path());
        assert!(j.manifest().is_none());
    }

    #[test]
    fn journal_manifest_is_a_snapshot_manifest() {
        let dir = tempdir().unwrap();
        let m = manifest_for(&[b"c0"]);
        InstallJournal::open(dir.path()).begin(m.clone()).unwrap();
        let bytes = fs::read(dir.path().join(JOURNAL_DIR).join(MANIFEST_FILE)).unwrap();
        assert_eq!(bytes[..8], crate::snapshot::MAGIC);
        // A snapshot manifest without a head block, or whose head hash
        // is not its head block's, is no journal manifest.
        let path = dir.path().join("other.inst");
        for (head_hash, head_block) in [
            (m.head_block.hash, None),
            (Digest::from_u64(1), Some(m.head_block.clone())),
        ] {
            let bytes = encode_manifest(&Manifest {
                height: m.height,
                head_hash,
                head_block,
                recent_ids: m.recent_ids.clone(),
                app_meta: m.app_meta.clone(),
                chunk_digests: m.chunk_digests.clone(),
            });
            assert!(matches!(
                InstallManifest::decode(&bytes, &path),
                Err(StorageError::Corrupt { .. })
            ));
        }
        assert_eq!(InstallManifest::decode(&m.encode(), &path).unwrap(), m);
    }

    #[test]
    fn old_format_journal_opens_empty_and_begin_wipes_it() {
        let dir = tempdir().unwrap();
        let journal_dir = dir.path().join(JOURNAL_DIR);
        fs::create_dir_all(&journal_dir).unwrap();
        // A journal left by the retired format: its own magic and
        // version, CRC-framed, with one verified chunk blob beside it.
        let mut old = b"SPLSINC1".to_vec();
        old.extend_from_slice(&1u32.to_le_bytes());
        old.extend_from_slice(&[0; 24]);
        let crc = crate::crc32::crc32c(&old);
        old.extend_from_slice(&crc.to_le_bytes());
        fs::write(journal_dir.join(MANIFEST_FILE), &old).unwrap();
        let stale = spotless_crypto::digest_bytes(b"stale");
        write_chunk_blob(&journal_dir, &stale, b"stale").unwrap();
        let mut j = InstallJournal::open(dir.path());
        assert!(j.manifest().is_none(), "an old journal is no transfer");
        assert_eq!(j.chunks_present(), 0);
        j.begin(manifest_for(&[b"c0"])).unwrap();
        assert!(
            !journal_chunk_path(dir.path(), &stale).exists(),
            "begin must not leave the old journal's blobs behind"
        );
        assert_eq!(j.missing(), vec![0]);
    }

    #[test]
    fn in_memory_journal_works_without_disk() {
        let mut j = InstallJournal::in_memory();
        j.begin(manifest_for(&[b"c0", b"c1"])).unwrap();
        j.put_chunk(1, b"c1".to_vec()).unwrap();
        assert_eq!(j.missing(), vec![0]);
        j.put_chunk(0, b"c0".to_vec()).unwrap();
        assert!(j.is_complete());
        j.wipe().unwrap();
        assert!(j.manifest().is_none());
    }
}
