//! Snapshot files: a point-in-time copy of the executed state.
//!
//! A snapshot lets recovery skip replaying the whole block log and lets
//! the log prune segments below the snapshot height (the protocol's GC
//! horizon — DESIGN.md §7.5 deviation 5).
//!
//! Format v3 splits a snapshot into a **manifest** and
//! **content-addressed chunks**:
//!
//! * the manifest (`snap-<height>.snap`) carries the ledger height, the
//!   head hash, the certified head block (whose `state_root` commits to
//!   the application state), the recent-batch-id window, the opaque
//!   application *meta* bytes, and the digest list of the state chunks;
//! * each chunk lives in its own file named by the digest of its
//!   contents (`chunk-<hex>.blob`). Content addressing means a chunk
//!   whose buckets did not change between two snapshots is written
//!   once and shared by both manifests — and a state-transfer receiver
//!   can journal partially fetched chunks under the same names.
//!
//! Write order is crash-safe: chunks first (each fsynced), then the
//! manifest via tmp-write + rename + directory fsync. A crash mid-write
//! leaves either the old snapshot set or the new one — never a manifest
//! naming chunks that do not exist. Invalid snapshots (bad manifest CRC,
//! missing or corrupt chunks) are skipped by [`latest_snapshot`];
//! recovery falls back to the next-best one, so a damaged newest
//! snapshot degrades to a longer log replay instead of an outage.
//! Pruning deletes old manifests and then garbage-collects chunk files
//! no remaining manifest references.

use crate::codec::{decode_block, encode_block, Reader, Writer};
use crate::crc32::crc32c;
use crate::StorageError;
use spotless_ledger::Block;
use spotless_types::{BatchId, Digest};
use std::collections::HashSet;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every snapshot manifest.
pub const MAGIC: [u8; 8] = *b"SPLSSNP1";
/// Current snapshot format version. Version 2 added the certified head
/// block; version 3 replaced the monolithic `app_state` payload with
/// application meta bytes plus content-addressed state chunks, matching
/// the chunked (and chain-verified, via the head block's `state_root`)
/// state-transfer protocol; version 4 extended the head block's commit
/// proof with its vote statement and per-signer Ed25519 signatures;
/// version 5 revved the embedded chunk and meta encodings (chunks
/// gained fragment fields so one oversized bucket can span several
/// chunks, and the head's `state_root` became the root of the
/// two-level sharded state tree); version 6 keeps that layout under
/// state-root definition v2 (bucket leaves over per-record digests), so
/// a version-5 snapshot's state no longer re-seals to its head's
/// `state_root`. Older stores are rejected with a
/// clean [`StorageError::UnsupportedVersion`] — the migration story is
/// state transfer from peers, not in-place upgrade.
pub const VERSION: u32 = 6;

/// A decoded snapshot (by default the empty one at height 0, which a
/// store without a snapshot starts from).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Number of ledger blocks the snapshot covers (the height at which
    /// log replay resumes).
    pub height: u64,
    /// Ledger head hash after block `height - 1` (zero when `height == 0`).
    pub head_hash: Digest,
    /// The block at `height - 1` — the carrier of the head's commit
    /// certificate and `state_root`, retained even after the log prunes
    /// the block so the snapshot can be served to (and verified by) a
    /// recovering peer. `None` only for the empty snapshot at
    /// `height == 0`.
    pub head_block: Option<Block>,
    /// Ids of the most recently committed batches the snapshot covers
    /// (oldest first, bounded by [`crate::RECENT_BATCHES_CAP`]). Seeds
    /// the re-commit dedup filter after recovery or state transfer — see
    /// [`crate::RecentBatches`].
    pub recent_ids: Vec<BatchId>,
    /// Opaque application metadata (the KV store's meta-leaf encoding in
    /// the runtime; the storage layer neither parses nor validates it
    /// beyond the manifest checksum).
    pub app_meta: Vec<u8>,
    /// Opaque application-state chunks, in order. Each is stored
    /// content-addressed; the manifest pins their digests.
    pub app_chunks: Vec<Vec<u8>>,
}

/// File name for a snapshot manifest covering `height` blocks.
pub fn snapshot_file_name(height: u64) -> String {
    format!("snap-{height:016x}.snap")
}

/// Parses the covered height back out of a manifest file name.
pub fn parse_snapshot_file_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("snap-")?.strip_suffix(".snap")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

fn digest_hex(d: &Digest) -> String {
    let mut s = String::with_capacity(64);
    for b in d.0 {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// File name of the content-addressed blob holding a chunk whose
/// contents hash to `digest`.
pub fn chunk_file_name(digest: &Digest) -> String {
    format!("chunk-{}.blob", digest_hex(digest))
}

/// True iff `name` is a chunk blob file name.
fn is_chunk_file_name(name: &str) -> bool {
    name.strip_prefix("chunk-")
        .and_then(|rest| rest.strip_suffix(".blob"))
        .is_some_and(|hex| hex.len() == 64 && hex.bytes().all(|b| b.is_ascii_hexdigit()))
}

/// The one crash-safe file-write protocol every durable artifact in
/// this crate uses: bytes to `<name>.tmp` (fsynced), rename over the
/// final name, optionally fsync the directory inode (required for the
/// rename itself to be durable on POSIX; chunk blobs skip it because
/// the subsequent manifest write syncs the same directory). A crash at
/// any point leaves either the old file or the new one under the final
/// name — never a torn write.
pub(crate) fn write_atomic(
    dir: &Path,
    name: &str,
    bytes: &[u8],
    fsync_dir: bool,
) -> Result<(), StorageError> {
    let final_path = dir.join(name);
    let tmp_path = dir.join(format!("{name}.tmp"));
    {
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)
            .map_err(|e| StorageError::io(&tmp_path, "create tmp", e))?;
        f.write_all(bytes)
            .map_err(|e| StorageError::io(&tmp_path, "write", e))?;
        f.sync_data()
            .map_err(|e| StorageError::io(&tmp_path, "fsync", e))?;
    }
    fs::rename(&tmp_path, &final_path).map_err(|e| StorageError::io(&final_path, "rename", e))?;
    if fsync_dir {
        sync_dir(dir)?;
    }
    Ok(())
}

/// Writes `bytes` as the content-addressed chunk blob for `digest` in
/// `dir`, fsynced. Skips the write when a blob of that name already
/// exists (content addressing: same name ⇒ same bytes).
pub fn write_chunk_blob(dir: &Path, digest: &Digest, bytes: &[u8]) -> Result<(), StorageError> {
    debug_assert_eq!(spotless_crypto::digest_bytes(bytes), *digest);
    if dir.join(chunk_file_name(digest)).exists() {
        return Ok(());
    }
    write_atomic(dir, &chunk_file_name(digest), bytes, false)
}

/// Reads the content-addressed chunk blob for `digest`, verifying its
/// contents actually hash to its name.
pub fn read_chunk_blob(dir: &Path, digest: &Digest) -> Result<Vec<u8>, StorageError> {
    let path = dir.join(chunk_file_name(digest));
    let mut f = File::open(&path).map_err(|e| StorageError::io(&path, "open chunk", e))?;
    let mut data = Vec::new();
    f.read_to_end(&mut data)
        .map_err(|e| StorageError::io(&path, "read chunk", e))?;
    if spotless_crypto::digest_bytes(&data) != *digest {
        return Err(StorageError::corrupt(
            &path,
            0,
            "chunk contents do not hash to the file's content address",
        ));
    }
    Ok(data)
}

/// Sanity bound on a snapshot's recent-id list (see
/// [`crate::RECENT_BATCHES_CAP`]; a larger prefix is corruption, not
/// data).
const MAX_RECENT_IDS: u32 = 1 << 16;
const _: () = assert!(crate::RECENT_BATCHES_CAP <= MAX_RECENT_IDS as usize);
/// Sanity bound on a manifest's chunk count (a state would need to be
/// absurdly large to exceed it; a larger prefix is corruption).
const MAX_CHUNKS: u32 = 1 << 20;

/// Encodes a snapshot manifest. Shared with the install journal
/// ([`crate::transfer`]), whose `manifest.inst` is a manifest of the
/// snapshot being transferred.
pub(crate) fn encode_manifest(
    height: u64,
    head_hash: &Digest,
    head_block: Option<&Block>,
    recent_ids: &[BatchId],
    app_meta: &[u8],
    chunk_digests: &[Digest],
) -> Vec<u8> {
    let block_bytes = head_block.map(encode_block);
    let mut w = Writer::with_capacity(128 + app_meta.len() + chunk_digests.len() * 32);
    w.u64(height);
    w.digest(head_hash);
    w.bytes(block_bytes.as_deref().unwrap_or(&[]));
    w.u32(recent_ids.len() as u32);
    for id in recent_ids {
        w.u64(id.0);
    }
    w.bytes(app_meta);
    w.u32(chunk_digests.len() as u32);
    for d in chunk_digests {
        w.digest(d);
    }
    let body = w.into_bytes();
    let mut buf = Vec::with_capacity(16 + body.len());
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&body);
    let crc = crc32c(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// The manifest half of a snapshot: everything except the chunk bytes.
pub(crate) struct Manifest {
    pub(crate) height: u64,
    pub(crate) head_hash: Digest,
    pub(crate) head_block: Option<Block>,
    pub(crate) recent_ids: Vec<BatchId>,
    pub(crate) app_meta: Vec<u8>,
    pub(crate) chunk_digests: Vec<Digest>,
}

pub(crate) fn decode_manifest(data: &[u8], path: &Path) -> Result<Manifest, StorageError> {
    // magic(8) version(4) [codec-framed body] crc(4); the body reuses
    // the length-checked `codec::Reader` helpers so every field failure
    // names the field instead of re-deriving offset arithmetic here.
    const FRAMING: usize = 8 + 4 + 4;
    if data.len() < FRAMING {
        return Err(StorageError::corrupt(
            path,
            0,
            "snapshot shorter than header",
        ));
    }
    if data[..8] != MAGIC {
        return Err(StorageError::corrupt(path, 0, "bad snapshot magic"));
    }
    let version = u32::from_le_bytes([data[8], data[9], data[10], data[11]]);
    if version != VERSION {
        return Err(StorageError::UnsupportedVersion {
            path: path.to_path_buf(),
            version,
        });
    }
    let body_len = data.len() - 4;
    let stored_crc = u32::from_le_bytes([
        data[body_len],
        data[body_len + 1],
        data[body_len + 2],
        data[body_len + 3],
    ]);
    if crc32c(&data[..body_len]) != stored_crc {
        return Err(StorageError::corrupt(
            path,
            body_len as u64,
            "snapshot CRC mismatch",
        ));
    }
    let codec_err = |source| StorageError::Codec {
        path: path.to_path_buf(),
        source,
    };
    let mut r = Reader::new(&data[12..body_len]);
    let height = r.u64("snapshot.height").map_err(codec_err)?;
    let head_hash = r.digest("snapshot.head_hash").map_err(codec_err)?;
    let block_bytes = r.bytes("snapshot.head_block").map_err(codec_err)?;
    let head_block = if block_bytes.is_empty() {
        None
    } else {
        Some(decode_block(block_bytes).map_err(codec_err)?)
    };
    let ids_len = r.u32("snapshot.recent_ids.len").map_err(codec_err)?;
    if ids_len > MAX_RECENT_IDS {
        return Err(StorageError::corrupt(
            path,
            12,
            "snapshot recent-id list exceeds the sanity bound",
        ));
    }
    let mut recent_ids = Vec::with_capacity(ids_len as usize);
    for _ in 0..ids_len {
        recent_ids.push(BatchId(r.u64("snapshot.recent_ids[]").map_err(codec_err)?));
    }
    let app_meta = r.bytes("snapshot.app_meta").map_err(codec_err)?.to_vec();
    let chunks_len = r.u32("snapshot.chunks.len").map_err(codec_err)?;
    if chunks_len > MAX_CHUNKS {
        return Err(StorageError::corrupt(
            path,
            12,
            "snapshot chunk list exceeds the sanity bound",
        ));
    }
    let mut chunk_digests = Vec::with_capacity(chunks_len as usize);
    for _ in 0..chunks_len {
        chunk_digests.push(r.digest("snapshot.chunks[]").map_err(codec_err)?);
    }
    r.finish("snapshot").map_err(codec_err)?;
    Ok(Manifest {
        height,
        head_hash,
        head_block,
        recent_ids,
        app_meta,
        chunk_digests,
    })
}

pub(crate) fn sync_dir(dir: &Path) -> Result<(), StorageError> {
    // Durability of the rename itself requires fsyncing the directory
    // inode on POSIX systems.
    let d = File::open(dir).map_err(|e| StorageError::io(dir, "open dir", e))?;
    d.sync_all()
        .map_err(|e| StorageError::io(dir, "fsync dir", e))
}

/// Atomically writes `snap` into `dir` (chunks first, then the
/// manifest), returning the manifest path. Chunks already present under
/// their content address are not rewritten.
pub fn write_snapshot(dir: &Path, snap: &Snapshot) -> Result<PathBuf, StorageError> {
    let chunk_digests: Vec<Digest> = snap
        .app_chunks
        .iter()
        .map(|c| spotless_crypto::digest_bytes(c))
        .collect();
    for (bytes, digest) in snap.app_chunks.iter().zip(&chunk_digests) {
        write_chunk_blob(dir, digest, bytes)?;
    }
    let name = snapshot_file_name(snap.height);
    let bytes = encode_manifest(
        snap.height,
        &snap.head_hash,
        snap.head_block.as_ref(),
        &snap.recent_ids,
        &snap.app_meta,
        &chunk_digests,
    );
    write_atomic(dir, &name, &bytes, true)?;
    Ok(dir.join(name))
}

/// Reads and validates one snapshot: the manifest plus every chunk it
/// references (each verified against its content address).
pub fn read_snapshot(path: &Path) -> Result<Snapshot, StorageError> {
    let mut f = File::open(path).map_err(|e| StorageError::io(path, "open snapshot", e))?;
    let mut data = Vec::new();
    f.read_to_end(&mut data)
        .map_err(|e| StorageError::io(path, "read snapshot", e))?;
    let m = decode_manifest(&data, path)?;
    let dir = path.parent().unwrap_or(Path::new("."));
    let mut app_chunks = Vec::with_capacity(m.chunk_digests.len());
    for d in &m.chunk_digests {
        app_chunks.push(read_chunk_blob(dir, d)?);
    }
    Ok(Snapshot {
        height: m.height,
        head_hash: m.head_hash,
        head_block: m.head_block,
        recent_ids: m.recent_ids,
        app_meta: m.app_meta,
        app_chunks,
    })
}

/// Finds the newest *valid* snapshot in `dir`, if any. Manifests with
/// bad checksums, unreadable contents, or missing/corrupt chunks are
/// skipped; leftover `.tmp` files are ignored entirely (they are by
/// definition incomplete).
pub fn latest_snapshot(dir: &Path) -> Result<Option<(PathBuf, Snapshot)>, StorageError> {
    let mut heights: Vec<(u64, PathBuf)> = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| StorageError::io(dir, "list dir", e))?;
    for entry in entries {
        let entry = entry.map_err(|e| StorageError::io(dir, "list dir", e))?;
        let name = entry.file_name();
        if let Some(h) = name.to_str().and_then(parse_snapshot_file_name) {
            heights.push((h, entry.path()));
        }
    }
    heights.sort_unstable_by_key(|(h, _)| std::cmp::Reverse(*h));
    for (_, path) in heights {
        match read_snapshot(&path) {
            Ok(snap) => return Ok(Some((path, snap))),
            Err(StorageError::Io { .. }) | Err(StorageError::Corrupt { .. }) => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(None)
}

/// Deletes snapshot manifests strictly below `keep_height` except the
/// newest of them (one older snapshot is kept as a fallback should the
/// newest turn out unreadable on the next recovery), then
/// garbage-collects chunk blobs no surviving manifest references.
pub fn prune_snapshots(dir: &Path, keep_height: u64) -> Result<usize, StorageError> {
    let mut old: Vec<(u64, PathBuf)> = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| StorageError::io(dir, "list dir", e))?;
    for entry in entries {
        let entry = entry.map_err(|e| StorageError::io(dir, "list dir", e))?;
        if let Some(h) = entry
            .file_name()
            .to_str()
            .and_then(parse_snapshot_file_name)
        {
            if h < keep_height {
                old.push((h, entry.path()));
            }
        }
    }
    old.sort_unstable_by_key(|(h, _)| *h);
    old.pop(); // retain the newest of the old ones as a fallback
    let mut removed = 0;
    for (_, path) in old {
        fs::remove_file(&path).map_err(|e| StorageError::io(&path, "remove snapshot", e))?;
        removed += 1;
    }
    gc_chunks(dir)?;
    Ok(removed)
}

/// Deletes chunk blobs not referenced by any manifest in `dir`. A
/// manifest that still decodes pins its chunks even if some are
/// missing; a manifest too corrupt to decode pins nothing (it cannot be
/// recovered from anyway).
fn gc_chunks(dir: &Path) -> Result<usize, StorageError> {
    let mut referenced: HashSet<String> = HashSet::new();
    let mut blobs: Vec<PathBuf> = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| StorageError::io(dir, "list dir", e))?;
    for entry in entries {
        let entry = entry.map_err(|e| StorageError::io(dir, "list dir", e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if parse_snapshot_file_name(name).is_some() {
            if let Ok(data) = fs::read(entry.path()) {
                if let Ok(m) = decode_manifest(&data, &entry.path()) {
                    for d in &m.chunk_digests {
                        referenced.insert(chunk_file_name(d));
                    }
                }
            }
        } else if is_chunk_file_name(name) {
            blobs.push(entry.path());
        } else if name.ends_with(".tmp")
            && (name.starts_with("chunk-") || name.starts_with("snap-"))
        {
            // A crash between tmp-write and rename orphans the tmp file
            // forever (it never matches a final name), so pruning is
            // the natural place to sweep them — repeated crash cycles
            // must not accumulate dead bytes.
            let path = entry.path();
            fs::remove_file(&path).map_err(|e| StorageError::io(&path, "remove tmp", e))?;
        }
    }
    let mut removed = 0;
    for blob in blobs {
        let name = blob
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        if !referenced.contains(&name) {
            fs::remove_file(&blob).map_err(|e| StorageError::io(&blob, "remove chunk", e))?;
            removed += 1;
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempfile::tempdir;

    fn snap(height: u64, chunks: &[&[u8]]) -> Snapshot {
        Snapshot {
            height,
            head_hash: Digest::from_u64(height * 31),
            head_block: None,
            recent_ids: vec![BatchId(height), BatchId(height + 1)],
            app_meta: format!("meta-{height}").into_bytes(),
            app_chunks: chunks.iter().map(|c| c.to_vec()).collect(),
        }
    }

    #[test]
    fn write_read_roundtrip() {
        let dir = tempdir().unwrap();
        let s = snap(17, &[b"chunk-a", b"chunk-b", b"chunk-c"]);
        let path = write_snapshot(dir.path(), &s).unwrap();
        assert_eq!(read_snapshot(&path).unwrap(), s);
    }

    #[test]
    fn head_block_roundtrips() {
        let mut ledger = spotless_ledger::Ledger::new();
        for i in 0..3u64 {
            ledger.append(
                spotless_types::BatchId(i),
                Digest::from_u64(i),
                10,
                Digest::from_u64(i * 5 + 3),
                spotless_ledger::CommitProof {
                    instance: spotless_types::InstanceId(0),
                    view: spotless_types::View(i),
                    phase: spotless_types::CertPhase::Strong,
                    voted: Digest::from_u64(i),
                    slot: 0,
                    signers: vec![
                        spotless_types::ReplicaId(0),
                        spotless_types::ReplicaId(1),
                        spotless_types::ReplicaId(2),
                    ],
                    sigs: vec![spotless_types::Signature::ZERO; 3],
                },
            );
        }
        let dir = tempdir().unwrap();
        let s = Snapshot {
            height: 3,
            head_hash: ledger.head_hash(),
            head_block: Some(ledger.block(2).unwrap().clone()),
            recent_ids: vec![BatchId(0), BatchId(1), BatchId(2)],
            app_meta: b"meta".to_vec(),
            app_chunks: vec![b"state".to_vec()],
        };
        let path = write_snapshot(dir.path(), &s).unwrap();
        let back = read_snapshot(&path).unwrap();
        assert_eq!(back, s);
        let head = back.head_block.unwrap();
        assert!(head.verify_hash());
        assert_eq!(head.state_root, Digest::from_u64(2 * 5 + 3));
    }

    #[test]
    fn empty_chunk_list_roundtrips() {
        let dir = tempdir().unwrap();
        let s = snap(0, &[]);
        let path = write_snapshot(dir.path(), &s).unwrap();
        assert_eq!(read_snapshot(&path).unwrap(), s);
    }

    #[test]
    fn latest_picks_the_highest_valid() {
        let dir = tempdir().unwrap();
        write_snapshot(dir.path(), &snap(5, &[b"old"])).unwrap();
        write_snapshot(dir.path(), &snap(12, &[b"new"])).unwrap();
        let (_, got) = latest_snapshot(dir.path()).unwrap().unwrap();
        assert_eq!(got.height, 12);
    }

    #[test]
    fn corrupted_newest_manifest_falls_back_to_older() {
        let dir = tempdir().unwrap();
        write_snapshot(dir.path(), &snap(5, &[b"old"])).unwrap();
        let newest = write_snapshot(dir.path(), &snap(12, &[b"new"])).unwrap();
        let mut data = fs::read(&newest).unwrap();
        let last = data.len() - 10;
        data[last] ^= 0xFF;
        fs::write(&newest, &data).unwrap();
        let (_, got) = latest_snapshot(dir.path()).unwrap().unwrap();
        assert_eq!(got.height, 5);
        assert_eq!(got.app_chunks, vec![b"old".to_vec()]);
    }

    #[test]
    fn missing_or_corrupt_chunk_falls_back_to_older() {
        let dir = tempdir().unwrap();
        write_snapshot(dir.path(), &snap(5, &[b"old"])).unwrap();
        write_snapshot(dir.path(), &snap(12, &[b"unique-new-chunk"])).unwrap();
        let victim = dir
            .path()
            .join(chunk_file_name(&spotless_crypto::digest_bytes(
                b"unique-new-chunk",
            )));
        // Corrupt the chunk contents: the content address no longer
        // matches, so the newest snapshot must be skipped.
        fs::write(&victim, b"tampered").unwrap();
        let (_, got) = latest_snapshot(dir.path()).unwrap().unwrap();
        assert_eq!(got.height, 5);
        // Delete it outright: same fallback.
        fs::remove_file(&victim).unwrap();
        let (_, got) = latest_snapshot(dir.path()).unwrap().unwrap();
        assert_eq!(got.height, 5);
    }

    #[test]
    fn content_addressing_dedups_unchanged_chunks() {
        let dir = tempdir().unwrap();
        // Two snapshots sharing one chunk: only three blobs on disk.
        write_snapshot(dir.path(), &snap(5, &[b"shared", b"only-5"])).unwrap();
        write_snapshot(dir.path(), &snap(9, &[b"shared", b"only-9"])).unwrap();
        let blobs = fs::read_dir(dir.path())
            .unwrap()
            .filter(|e| {
                is_chunk_file_name(e.as_ref().unwrap().file_name().to_str().unwrap_or_default())
            })
            .count();
        assert_eq!(blobs, 3, "the shared chunk must be stored once");
    }

    #[test]
    fn leftover_tmp_files_are_ignored() {
        let dir = tempdir().unwrap();
        write_snapshot(dir.path(), &snap(5, &[b"good"])).unwrap();
        fs::write(
            dir.path().join(format!("{}.tmp", snapshot_file_name(99))),
            b"half-written garbage",
        )
        .unwrap();
        let (_, got) = latest_snapshot(dir.path()).unwrap().unwrap();
        assert_eq!(got.height, 5);
    }

    #[test]
    fn empty_dir_has_no_snapshot() {
        let dir = tempdir().unwrap();
        assert!(latest_snapshot(dir.path()).unwrap().is_none());
    }

    #[test]
    fn prune_keeps_one_fallback_and_gcs_chunks() {
        let dir = tempdir().unwrap();
        for h in [3u64, 7, 11, 15] {
            write_snapshot(dir.path(), &snap(h, &[format!("state-{h}").as_bytes()])).unwrap();
        }
        let removed = prune_snapshots(dir.path(), 15).unwrap();
        // 3, 7, 11 are below 15; 11 is kept as fallback.
        assert_eq!(removed, 2);
        assert!(read_snapshot(&dir.path().join(snapshot_file_name(11))).is_ok());
        assert!(read_snapshot(&dir.path().join(snapshot_file_name(15))).is_ok());
        assert!(!dir.path().join(snapshot_file_name(3)).exists());
        assert!(!dir.path().join(snapshot_file_name(7)).exists());
        // The pruned snapshots' chunks were garbage-collected; the
        // survivors' chunks remain readable.
        for h in [3u64, 7] {
            let d = spotless_crypto::digest_bytes(format!("state-{h}").as_bytes());
            assert!(!dir.path().join(chunk_file_name(&d)).exists());
        }
        for h in [11u64, 15] {
            let d = spotless_crypto::digest_bytes(format!("state-{h}").as_bytes());
            assert!(dir.path().join(chunk_file_name(&d)).exists());
        }
    }

    #[test]
    fn truncated_manifest_is_corrupt() {
        let dir = tempdir().unwrap();
        let path = write_snapshot(dir.path(), &snap(4, &[b"state"])).unwrap();
        let data = fs::read(&path).unwrap();
        fs::write(&path, &data[..data.len() - 3]).unwrap();
        assert!(matches!(
            read_snapshot(&path).unwrap_err(),
            StorageError::Corrupt { .. }
        ));
    }

    #[test]
    fn version_bump_is_reported() {
        let dir = tempdir().unwrap();
        let path = write_snapshot(dir.path(), &snap(4, &[b"state"])).unwrap();
        let mut data = fs::read(&path).unwrap();
        data[8..12].copy_from_slice(&99u32.to_le_bytes());
        // Recompute the CRC so only the version differs.
        let body = data.len() - 4;
        let crc = crc32c(&data[..body]);
        data[body..].copy_from_slice(&crc.to_le_bytes());
        fs::write(&path, &data).unwrap();
        assert!(matches!(
            read_snapshot(&path).unwrap_err(),
            StorageError::UnsupportedVersion { version: 99, .. }
        ));
    }
}
