//! Observation types shared by every deployment: the per-cluster commit
//! log tests assert against, the client-bound inform records, and the
//! per-replica wire-traffic counters benches report.

use parking_lot::Mutex;
use spotless_types::{BatchId, CommitInfo, Digest, ReplicaId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A committed, executed entry observed at a replica (exposed for
/// assertions in examples and tests).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommittedEntry {
    /// Which replica executed it.
    pub replica: ReplicaId,
    /// The commit metadata.
    pub info: CommitInfo,
    /// KV state digest after executing the batch.
    pub state_digest: Digest,
}

/// Shared observation log for examples/tests. One log is typically
/// shared by every replica of a cluster; entries carry the replica id.
#[derive(Clone, Default)]
pub struct CommitLog {
    entries: Arc<Mutex<Vec<CommittedEntry>>>,
}

impl CommitLog {
    /// Snapshot of everything committed so far.
    pub fn snapshot(&self) -> Vec<CommittedEntry> {
        self.entries.lock().clone()
    }

    /// Number of committed entries (across all replicas).
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// True iff nothing has committed yet.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }

    pub(crate) fn push(&self, entry: CommittedEntry) {
        self.entries.lock().push(entry);
    }
}

/// Per-replica wire-traffic counters: envelope payload bytes (the
/// serialized, signed content — framing and signature overhead
/// excluded) and message counts, split by direction. Maintained at the
/// two choke points every byte passes — the metered fabric on send,
/// the envelope ingress on receive — so no protocol or transfer path
/// can bypass them. Cheap enough to be always on (two relaxed atomic
/// adds per message); benches read them to report what the binary wire
/// codec actually puts on the wire rather than asserting it.
#[derive(Clone, Default)]
pub struct NetStats {
    inner: Arc<NetCounters>,
}

#[derive(Default)]
struct NetCounters {
    msgs_sent: AtomicU64,
    protocol_msgs_sent: AtomicU64,
    bytes_sent: AtomicU64,
    msgs_recv: AtomicU64,
    bytes_recv: AtomicU64,
    msgs_rejected: AtomicU64,
    bytes_rejected: AtomicU64,
    msgs_malformed: AtomicU64,
    votes_verified: AtomicU64,
}

impl NetStats {
    pub(crate) fn record_sent(&self, bytes: usize) {
        self.inner.msgs_sent.fetch_add(1, Ordering::Relaxed);
        self.inner
            .bytes_sent
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_protocol_sent(&self, msgs: usize) {
        self.inner
            .protocol_msgs_sent
            .fetch_add(msgs as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_recv(&self, bytes: usize) {
        self.inner.msgs_recv.fetch_add(1, Ordering::Relaxed);
        self.inner
            .bytes_recv
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_rejected(&self, bytes: usize) {
        self.inner.msgs_rejected.fetch_add(1, Ordering::Relaxed);
        self.inner
            .bytes_rejected
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_malformed(&self) {
        self.inner.msgs_malformed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_votes_verified(&self, votes: usize) {
        self.inner
            .votes_verified
            .fetch_add(votes as u64, Ordering::Relaxed);
    }

    /// Envelopes handed to the fabric.
    pub fn msgs_sent(&self) -> u64 {
        self.inner.msgs_sent.load(Ordering::Relaxed)
    }

    /// Protocol messages handed to the fabric, counted once per
    /// envelope that carries them, as [`msgs_sent`](NetStats::msgs_sent)
    /// counts envelopes: the ratio of the two is the messages an
    /// envelope bundles under its one signature.
    pub fn protocol_msgs_sent(&self) -> u64 {
        self.inner.protocol_msgs_sent.load(Ordering::Relaxed)
    }

    /// Encoded payload bytes handed to the fabric (a broadcast counts
    /// once per destination — that is what crosses the wire, even
    /// though the bytes themselves are `Arc`-shared in memory).
    pub fn bytes_sent(&self) -> u64 {
        self.inner.bytes_sent.load(Ordering::Relaxed)
    }

    /// Envelopes received from the fabric (before signature checks).
    pub fn msgs_recv(&self) -> u64 {
        self.inner.msgs_recv.load(Ordering::Relaxed)
    }

    /// Encoded payload bytes received from the fabric.
    pub fn bytes_recv(&self) -> u64 {
        self.inner.bytes_recv.load(Ordering::Relaxed)
    }

    /// Envelopes dropped at ingress because their signature failed to
    /// verify (a `VerifyError` from the ingress verification stage —
    /// forged, corrupted, or attributed to an unknown signer). Rejected
    /// envelopes are counted in `msgs_recv` too: they were received,
    /// then refused.
    pub fn msgs_rejected(&self) -> u64 {
        self.inner.msgs_rejected.load(Ordering::Relaxed)
    }

    /// Encoded payload bytes of rejected envelopes.
    pub fn bytes_rejected(&self) -> u64 {
        self.inner.bytes_rejected.load(Ordering::Relaxed)
    }

    /// Genuinely signed envelopes dropped at ingress as malformed: an
    /// unknown version or tag, or a protocol body that is empty, holds
    /// more than [`MAX_BUNDLE`](crate::envelope::MAX_BUNDLE) messages,
    /// has one that fails to decode, or has one carrying a client batch
    /// whose payload does not hash to its digest. The whole envelope
    /// goes; none of its messages is delivered. Counted in `msgs_recv`
    /// too, not in `msgs_rejected`.
    pub fn msgs_malformed(&self) -> u64 {
        self.inner.msgs_malformed.load(Ordering::Relaxed)
    }

    /// Vote signatures the ingress task verified: the votes inbound
    /// messages carry, each counted the first time its
    /// `(signer, statement, signature)` arrives — a vote re-carried
    /// while its verdict is still cached is not verified again.
    pub fn votes_verified(&self) -> u64 {
        self.inner.votes_verified.load(Ordering::Relaxed)
    }
}

/// A replica's execution report for one batch, flowing back to the
/// client collector ([`crate::ClusterClient`] resolves a submission
/// once `f + 1` replicas report the same result).
pub struct Inform {
    /// The reporting replica.
    pub from: ReplicaId,
    /// The executed batch.
    pub batch: BatchId,
    /// KV state digest after execution.
    pub result: Digest,
}
