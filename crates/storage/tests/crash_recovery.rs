//! Randomized crash-recovery tests for the durable ledger.
//!
//! The model under test: a process appends blocks, fsyncs at arbitrary
//! points, and crashes at an arbitrary moment — which on a real disk
//! means the log file retains some prefix of the unsynced suffix, plus
//! possibly a torn final write. Recovery must (a) never lose a block
//! that was acknowledged as synced, (b) never invent or reorder blocks,
//! and (c) leave the store appendable.

use proptest::prelude::*;
use spotless_ledger::{CommitProof, Ledger};
use spotless_storage::log::{BlockLog, LogOptions, SyncPolicy};
use spotless_storage::segment::{parse_segment_file_name, segment_file_name};
use spotless_storage::{DurableLedger, DurableLedgerOptions, StorageError};
use spotless_types::{BatchId, Digest, InstanceId, ReplicaId, View};
use std::fs;
use std::path::Path;

fn proof(view: u64) -> CommitProof {
    CommitProof {
        phase: spotless_types::CertPhase::Strong,
        instance: InstanceId((view % 4) as u32),
        view: View(view),
        voted: Digest::from_u64(view * 3),
        slot: view,
        signers: vec![ReplicaId(0), ReplicaId(1), ReplicaId(2)],
        sigs: vec![spotless_types::Signature::ZERO; 3],
    }
}

fn build_chain(count: u64) -> Vec<spotless_ledger::Block> {
    let mut ledger = Ledger::new();
    for i in 0..count {
        ledger.append(
            BatchId(i),
            Digest::from_u64(i * 13 + 1),
            100,
            Digest::from_u64(i * 5 + 2),
            proof(i),
        );
    }
    ledger.iter().cloned().collect()
}

/// The newest segment file in `dir`.
fn newest_segment(dir: &Path) -> std::path::PathBuf {
    let mut seqs: Vec<u64> = fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| {
            e.unwrap()
                .file_name()
                .to_str()
                .and_then(parse_segment_file_name)
        })
        .collect();
    seqs.sort_unstable();
    dir.join(segment_file_name(*seqs.last().expect("a segment exists")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Crash after an arbitrary cut into the *unsynced* suffix of the
    /// newest segment: recovery keeps every synced block, keeps blocks
    /// in order, and the store still appends.
    #[test]
    fn crash_recovers_every_synced_block(
        total in 4u64..40,
        sync_at_frac in 0.0f64..1.0,
        cut_frac in 0.0f64..1.0,
    ) {
        let dir = tempfile::tempdir().unwrap();
        let blocks = build_chain(total);
        let sync_at = ((total as f64) * sync_at_frac) as u64; // blocks known durable
        let opts = LogOptions {
            max_segment_bytes: 300, // several rotations per run
            sync: SyncPolicy::Manual,
        };
        let synced_segment;
        let synced_len;
        {
            let (mut log, _) = BlockLog::open(dir.path(), opts, 0).unwrap();
            for b in &blocks[..sync_at as usize] {
                log.append(b, b"payload").unwrap();
            }
            log.sync().unwrap();
            synced_segment = newest_segment(dir.path());
            synced_len = fs::metadata(&synced_segment).unwrap().len();
            for b in &blocks[sync_at as usize..] {
                log.append(b, b"payload").unwrap();
            }
            log.sync().unwrap(); // flush so the file holds all bytes
        }
        // Crash: the newest segment retains an arbitrary prefix of its
        // unsynced suffix. Rotation fsyncs the outgoing segment before
        // creating the next, so everything older than the newest segment
        // is durable; within the newest one, the durable floor is the
        // sync point if it is the same file, else just its header
        // (the file was created entirely after the sync).
        let newest = newest_segment(dir.path());
        let full_len = fs::metadata(&newest).unwrap().len();
        let floor = if newest == synced_segment {
            synced_len
        } else {
            spotless_storage::segment::HEADER_LEN
        };
        let keep = floor + ((full_len - floor) as f64 * cut_frac) as u64;
        let newest = newest_segment(dir.path());
        let f = fs::OpenOptions::new().write(true).open(&newest).unwrap();
        f.set_len(keep).unwrap();
        drop(f);

        let (mut log, rec) = BlockLog::open(dir.path(), opts, 0).unwrap();
        // (a) nothing synced is lost;
        prop_assert!(rec.blocks.len() as u64 >= sync_at,
            "lost synced blocks: {} < {}", rec.blocks.len(), sync_at);
        // (b) what survives is exactly a prefix of what was written;
        prop_assert!(rec.blocks.len() as u64 <= total);
        let recovered: Vec<spotless_ledger::Block> =
            rec.blocks.iter().map(|(b, _)| b.clone()).collect();
        prop_assert_eq!(&recovered[..], &blocks[..recovered.len()]);
        prop_assert!(rec.blocks.iter().all(|(_, p)| p == b"payload"),
            "payloads must survive recovery");
        // (c) the store still appends where it left off.
        let resume = rec.blocks.len() as u64;
        if resume < total {
            log.append(&blocks[resume as usize], b"payload").unwrap();
            prop_assert_eq!(log.next_height(), resume + 1);
        }
    }

    /// A flipped byte anywhere in the newest segment never panics and
    /// never yields out-of-order or altered blocks: recovery returns a
    /// correct prefix or reports the file as corrupt/unreadable.
    #[test]
    fn corruption_in_newest_segment_never_yields_wrong_blocks(
        total in 1u64..24,
        byte_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let dir = tempfile::tempdir().unwrap();
        let blocks = build_chain(total);
        let opts = LogOptions { max_segment_bytes: 1 << 20, sync: SyncPolicy::Always };
        {
            let (mut log, _) = BlockLog::open(dir.path(), opts, 0).unwrap();
            for b in &blocks {
                log.append(b, b"payload").unwrap();
            }
        }
        let newest = newest_segment(dir.path());
        let mut data = fs::read(&newest).unwrap();
        let idx = ((data.len() - 1) as f64 * byte_frac) as usize;
        data[idx] ^= 1 << bit;
        fs::write(&newest, &data).unwrap();

        match BlockLog::open(dir.path(), opts, 0) {
            Ok((_, rec)) => {
                let recovered: Vec<spotless_ledger::Block> =
                    rec.blocks.iter().map(|(b, _)| b.clone()).collect();
                prop_assert_eq!(&recovered[..], &blocks[..recovered.len()]);
            }
            Err(StorageError::Corrupt { .. })
            | Err(StorageError::UnsupportedVersion { .. })
            | Err(StorageError::Codec { .. }) => {}
            Err(e) => return Err(TestCaseError::fail(format!("unexpected error: {e}"))),
        }
    }

    /// End-to-end: append, snapshot at random cadence, crash, recover —
    /// the durable ledger's chain always verifies and covers every
    /// acknowledged block (sync policy Always: acknowledged = durable).
    #[test]
    fn durable_ledger_roundtrip_with_snapshots(
        total in 1u64..60,
        snapshot_every in 1u64..16,
    ) {
        let dir = tempfile::tempdir().unwrap();
        let opts = DurableLedgerOptions {
            log: LogOptions { max_segment_bytes: 512, sync: SyncPolicy::Always },
            snapshot_every,
        };
        let mut head = Digest::ZERO;
        {
            let (mut led, _) = DurableLedger::open(dir.path(), opts).unwrap();
            for i in 0..total {
                led.append_batch(
                    BatchId(i),
                    Digest::from_u64(i * 7 + 3),
                    50,
                    Digest::from_u64(i + 900),
                    proof(i),
                    b"payload",
                ).unwrap();
                let state = format!("executed-through-{i}");
                led.maybe_snapshot(state.as_bytes(), &[b"chunk".to_vec()]).unwrap();
                head = led.ledger().head_hash();
            }
        } // crash
        let (led, report) = DurableLedger::open(dir.path(), opts).unwrap();
        prop_assert_eq!(led.ledger().height(), total);
        prop_assert_eq!(led.ledger().head_hash(), head);
        led.ledger().verify().unwrap();
        // Recovery replayed exactly the blocks above the snapshot.
        prop_assert_eq!(report.snapshot_height + report.replayed_blocks, total);
        // Snapshotted state, when present, names a block that exists.
        if report.snapshot_height > 0 {
            let s = String::from_utf8(report.app_meta.clone()).unwrap();
            prop_assert_eq!(s, format!("executed-through-{}", report.snapshot_height - 1));
        }
    }
}

#[test]
fn repeated_crashes_and_reopens_accumulate_correctly() {
    // Ten sessions; each appends a few blocks and crashes. Heights and
    // hashes must accumulate exactly as a single uninterrupted run.
    let dir = tempfile::tempdir().unwrap();
    let opts = DurableLedgerOptions {
        log: LogOptions {
            max_segment_bytes: 256,
            sync: SyncPolicy::Always,
        },
        snapshot_every: 7,
    };
    let mut reference = Ledger::new();
    let mut next = 0u64;
    for session in 0..10 {
        let (mut led, report) = DurableLedger::open(dir.path(), opts).unwrap();
        assert_eq!(led.ledger().height(), next, "session {session} lost blocks");
        assert_eq!(led.ledger().head_hash(), reference.head_hash());
        let _ = report;
        for _ in 0..3 {
            led.append_batch(
                BatchId(next),
                Digest::from_u64(next),
                10,
                Digest::from_u64(next + 700),
                proof(next),
                b"payload",
            )
            .unwrap();
            let r = reference.append(
                BatchId(next),
                Digest::from_u64(next),
                10,
                Digest::from_u64(next + 700),
                proof(next),
            );
            assert_eq!(
                led.ledger().block(next),
                Some(r),
                "durable and reference chains diverged"
            );
            next += 1;
            led.maybe_snapshot(format!("s{next}").as_bytes(), &[])
                .unwrap();
        }
    }
    let (led, _) = DurableLedger::open(dir.path(), opts).unwrap();
    assert_eq!(led.ledger().height(), 30);
    assert_eq!(led.ledger().head_hash(), reference.head_hash());
}

#[test]
fn snapshot_prunes_segments_and_bounds_replay() {
    let dir = tempfile::tempdir().unwrap();
    let opts = DurableLedgerOptions {
        log: LogOptions {
            max_segment_bytes: 256,
            sync: SyncPolicy::Always,
        },
        snapshot_every: 0, // manual snapshots only
    };
    let (mut led, _) = DurableLedger::open(dir.path(), opts).unwrap();
    for i in 0..40u64 {
        led.append_batch(
            BatchId(i),
            Digest::from_u64(i),
            10,
            Digest::from_u64(i + 800),
            proof(i),
            b"payload",
        )
        .unwrap();
    }
    let segments_before = led.segment_count();
    assert!(segments_before > 2);
    led.force_snapshot(b"state-at-40", &[b"c0".to_vec(), b"c1".to_vec()])
        .unwrap();
    assert!(
        led.segment_count() < segments_before,
        "snapshot must prune covered segments"
    );
    drop(led);
    let (led, report) = DurableLedger::open(dir.path(), opts).unwrap();
    assert_eq!(report.snapshot_height, 40);
    assert_eq!(report.app_meta, b"state-at-40");
    assert_eq!(report.app_chunks, vec![b"c0".to_vec(), b"c1".to_vec()]);
    // Replay was bounded: only blocks above the snapshot replay (those
    // in the partially-covered active segment do not count).
    assert_eq!(report.replayed_blocks, 0);
    assert_eq!(led.ledger().height(), 40);
    led.ledger().verify().unwrap();
}

#[test]
fn recovery_report_flags_truncated_tail() {
    let dir = tempfile::tempdir().unwrap();
    let opts = DurableLedgerOptions::default();
    {
        let (mut led, _) = DurableLedger::open(dir.path(), opts).unwrap();
        for i in 0..3u64 {
            led.append_batch(
                BatchId(i),
                Digest::from_u64(i),
                10,
                Digest::from_u64(i + 800),
                proof(i),
                b"payload",
            )
            .unwrap();
        }
    }
    // Torn write at the tail.
    let newest = newest_segment(dir.path());
    {
        use std::io::Write;
        let mut f = fs::OpenOptions::new().append(true).open(&newest).unwrap();
        f.write_all(&[0xDE, 0xAD]).unwrap();
    }
    let (led, report) = DurableLedger::open(dir.path(), opts).unwrap();
    assert!(report.truncated_tail);
    assert_eq!(led.ledger().height(), 3);
}

/// Rewrites the format version in a segment or snapshot-manifest file
/// (both carry it at bytes 8..12) and re-seals the CRC that covers it,
/// so the file is exactly what the older writer would have produced.
fn stamp_version(path: &Path, version: u32, crc_at: impl Fn(usize) -> usize) {
    let mut data = fs::read(path).unwrap();
    data[8..12].copy_from_slice(&version.to_le_bytes());
    let at = crc_at(data.len());
    let crc = spotless_storage::crc32::crc32c(&data[..at]);
    data[at..at + 4].copy_from_slice(&crc.to_le_bytes());
    fs::write(path, data).unwrap();
}

#[test]
fn a_version_5_store_is_refused_not_replayed() {
    // Version 5 and 6 share every byte layout; what changed is the
    // state-root definition the sealed roots were computed under. A v5
    // directory must therefore stop recovery with a clean
    // `UnsupportedVersion` — replaying it would "succeed" structurally
    // and then fail every seal check one layer up.
    assert_old_store_refused(5);
}

#[test]
fn a_version_7_store_is_refused_not_replayed() {
    // Version 7 and 8 share every byte layout; what changed is what a
    // certificate signature covers (the SHA-256 signing digest of the
    // vote statement, not the statement). A v7 store's proofs verify
    // nowhere, so it must not open either.
    assert_old_store_refused(7);
}

/// A log, and a snapshot manifest beside a current log, stamped with
/// an older format `version` both fail to open with
/// `UnsupportedVersion { version }`.
fn assert_old_store_refused(version: u32) {
    let opts = DurableLedgerOptions {
        snapshot_every: 0,
        ..DurableLedgerOptions::default()
    };
    let fill = |dir: &Path, snapshot: bool| {
        let (mut led, _) = DurableLedger::open(dir, opts).unwrap();
        for i in 0..5u64 {
            led.append_batch(
                BatchId(i),
                Digest::from_u64(i),
                10,
                Digest::from_u64(i + 800),
                proof(i),
                b"payload",
            )
            .unwrap();
        }
        if snapshot {
            led.force_snapshot(b"meta", &[b"chunk".to_vec()]).unwrap();
        }
    };

    // An old log.
    let dir = tempfile::tempdir().unwrap();
    fill(dir.path(), false);
    stamp_version(&newest_segment(dir.path()), version, |_| 28);
    match DurableLedger::open(dir.path(), opts) {
        Err(StorageError::UnsupportedVersion { version: v, .. }) if v == version => {}
        Err(e) => panic!("expected UnsupportedVersion, got {e}"),
        Ok(_) => panic!("a v{version} log must not open"),
    }

    // An old snapshot manifest (beside a current log).
    let dir = tempfile::tempdir().unwrap();
    fill(dir.path(), true);
    let manifest = fs::read_dir(dir.path())
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .and_then(spotless_storage::snapshot::parse_snapshot_file_name)
                .is_some()
        })
        .expect("a snapshot manifest exists");
    stamp_version(&manifest, version, |len| len - 4);
    match DurableLedger::open(dir.path(), opts) {
        Err(StorageError::UnsupportedVersion { version: v, .. }) if v == version => {}
        Err(e) => panic!("expected UnsupportedVersion, got {e}"),
        Ok(_) => panic!("a v{version} snapshot must not open"),
    }
}
