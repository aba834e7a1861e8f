//! The key-value execution engine: the replicated service SpotLess
//! orders transactions for.
//!
//! Each replica holds an identical copy of the YCSB table (§6: "each
//! replica is initialized with an identical copy of the YCSB table") and
//! executes committed transactions deterministically. The store exposes
//! two commitments over its contents:
//!
//! * a cheap **rolling digest** over the applied batch sequence
//!   ([`KvStore::state_digest`]) — the per-batch divergence check tests
//!   and client informs use;
//! * a **Merkle state root** ([`KvStore::state_root`]) over the store's
//!   *contents* — the commitment every ledger block seals, which lets a
//!   snapshot receiver verify transferred state byte-for-byte against
//!   the chain itself.
//!
//! # Sharded layout and the two-level root
//!
//! Keys are partitioned into [`STATE_BUCKETS`] fixed buckets by a
//! multiplicative hash ([`bucket_of`]); buckets are grouped into
//! [`EXEC_SHARDS`] contiguous **execution shards** of [`SHARD_BUCKETS`]
//! buckets each ([`shard_of_bucket`]). Each shard holds its part of the
//! table — its keys, its bucket digests, its dirty flags — and the
//! Merkle tree over its buckets. Committed batches execute one after
//! another, in commit order, through [`KvStore::execute_batch`].
//!
//! The state root commits to the table in four layers (definition v2):
//!
//! 1. a **record digest** per key, `digest_fields([key_be, value])`
//!    ([`record_digest`]) — the same digest a write folds into the
//!    batch's write chain, cached beside the value;
//! 2. a **bucket leaf** per bucket, `digest_fields([domain, count,
//!    d₁‖…‖dₙ])` over its record digests in ascending key order
//!    ([`bucket_leaf_digest`]);
//! 3. a **shard tree** per shard over its [`SHARD_BUCKETS`] bucket
//!    leaves, whose root is the shard's sub-root;
//! 4. the **top tree** over the [`EXEC_SHARDS`] sub-roots plus the meta
//!    leaf ([`META_LEAF`]) — its root is what a block seals.
//!
//! A bucket proves into the root through a two-part proof — shard-level
//! steps, then the shard's top-level steps — composed via
//! `spotless_crypto::fold_proof` ([`verify_bucket`], which recomputes
//! the record digests from the received bucket bytes). Each shard keeps
//! its 128-leaf tree alive for life: a write hashes its own value once
//! and marks its bucket dirty, and sealing a block re-hashes, per dirty
//! bucket, 32 B per record in it, then the bucket's ancestor path in
//! its shard's tree (`MerkleTree::update`), then the 9-leaf top tree —
//! work proportional to what the block wrote, not to the bytes stored
//! beside it. [`KvStore::rebuild_state_root`] recomputes everything
//! from the table contents alone as the audit path.
//!
//! The **rolling digest** chains one summary per committed batch that
//! wrote: the fold, from the zero digest, of the [`record_digest`] of
//! each of the batch's writes in transaction order, chained into the
//! store digest in commit order by [`KvStore::execute_batch`].
//!
//! The bucket partition is also the unit of **chunked state transfer**:
//! a chunk is a bucket range in canonical encoding ([`StateChunk`]) that
//! never crosses a shard boundary, and a single bucket that outgrows the
//! chunk budget is split into digest-addressed *fragments*
//! (`part`/`parts`) — so no single bucket ever has to fit one wire
//! frame, lifting the old ~1 GiB practical state bound.

use crate::ycsb::{Operation, Transaction};
use spotless_crypto::{MerkleTree, ProofStep};
use spotless_types::Digest;
use std::collections::{BTreeSet, HashMap};
use std::sync::OnceLock;

/// Number of fixed state buckets the key space is partitioned into.
/// **Consensus-critical**: every replica must use the same count (and
/// [`bucket_of`] placement) or their state roots — and therefore their
/// block hashes — diverge despite identical contents.
pub const STATE_BUCKETS: usize = 1024;

/// Number of execution shards the bucket space is divided into — the
/// leaf count of the top state tree (plus [`META_LEAF`]).
/// **Consensus-critical**: shard boundaries decide sub-root layout.
pub const EXEC_SHARDS: usize = 8;

/// Buckets per execution shard (shards are contiguous bucket ranges).
pub const SHARD_BUCKETS: usize = STATE_BUCKETS / EXEC_SHARDS;

/// Leaf index of the store's metadata (rolling digest + counters) in
/// the **top** state tree: one past the last shard sub-root.
pub const META_LEAF: usize = EXEC_SHARDS;

/// The bucket a key belongs to. Fibonacci multiplicative hashing spreads
/// the YCSB key space (dense small integers) evenly over the buckets.
/// **Consensus-critical** — see [`STATE_BUCKETS`].
pub fn bucket_of(key: u64) -> usize {
    const SHIFT: u32 = 64 - STATE_BUCKETS.trailing_zeros();
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> SHIFT) as usize
}

/// The execution shard a bucket belongs to.
pub fn shard_of_bucket(bucket: usize) -> usize {
    bucket / SHARD_BUCKETS
}

/// The execution shard a key belongs to.
pub fn shard_of_key(key: u64) -> usize {
    shard_of_bucket(bucket_of(key))
}

/// Bitmap words in a [`BucketFootprint`].
const FOOTPRINT_WORDS: usize = STATE_BUCKETS / 64;

/// A batch's **bucket-level** footprint: one bit per global state
/// bucket. Two batches conflict exactly when their footprints
/// intersect. Nothing in execution reads it; the deployment benchmark
/// counts conflict components with it, and ROADMAP item 1(a) deletes
/// it with that metric.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BucketFootprint([u64; FOOTPRINT_WORDS]);

impl BucketFootprint {
    /// True iff the two footprints share any bucket — the conflict test.
    pub fn intersects(&self, other: &BucketFootprint) -> bool {
        self.0.iter().zip(&other.0).any(|(a, b)| a & b != 0)
    }

    /// Folds `other`'s buckets into this footprint.
    pub fn union_with(&mut self, other: &BucketFootprint) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a |= b;
        }
    }
}

/// The bucket-level footprint of a batch: bit `b` set iff some
/// transaction reads or writes a key in global bucket `b`.
pub fn batch_bucket_footprint(txns: &[Transaction]) -> BucketFootprint {
    let mut fp = BucketFootprint::default();
    for txn in txns {
        let b = bucket_of(txn.op.key());
        fp.0[b / 64] |= 1 << (b % 64);
    }
    fp
}

/// Domain prefix of a bucket digest (a shard-tree Merkle leaf payload).
/// v2: the leaf covers the bucket's record digests, not its encoding.
const BUCKET_DOMAIN: &[u8] = b"spotless-kv-bucket-v2";
/// Magic prefix of the canonical metadata encoding (the meta leaf).
/// v2: the rolling digest chains per-batch write summaries instead of
/// per-write entries.
const META_MAGIC: &[u8] = b"spotless-kv-meta-v2";

/// Result of executing one transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecResult {
    /// A read returning the value's digestible summary (length + first
    /// bytes); carrying full values out of the engine is the RPC layer's
    /// concern.
    Read {
        /// Digest of the read value (zero digest if the key is absent).
        value_digest: Digest,
    },
    /// A completed write.
    Written,
}

/// One chunk of a state transfer: the canonical encodings of a bucket
/// range that never crosses a shard boundary. Each whole bucket inside
/// verifies independently against the chain's state root via its
/// two-part Merkle inclusion proof ([`verify_bucket`]).
///
/// A bucket whose encoding exceeds the chunk budget travels as a series
/// of **fragments**: `parts > 1` chunks for the same `first_bucket`,
/// `part` = 0..parts, each carrying one byte slice of the encoding.
/// Fragments are content-digest addressed in the manifest and verified
/// cryptographically when the assembled store's rebuilt root is gated
/// against the certified head at install time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StateChunk {
    /// Index of the first bucket in the chunk.
    pub first_bucket: u32,
    /// Canonical encodings of buckets `first_bucket..first_bucket + len`
    /// (whole chunks), or exactly one fragment byte slice (`parts > 1`).
    pub buckets: Vec<Vec<u8>>,
    /// Fragment index within a split bucket; 0 for whole chunks.
    pub part: u32,
    /// Total fragments the bucket was split into; 1 for whole chunks.
    pub parts: u32,
}

impl StateChunk {
    /// A whole (non-fragment) chunk.
    pub fn whole(first_bucket: u32, buckets: Vec<Vec<u8>>) -> StateChunk {
        StateChunk {
            first_bucket,
            buckets,
            part: 0,
            parts: 1,
        }
    }

    /// Canonical byte encoding (also the content-address preimage):
    /// `first:u32 count:u32 part:u32 parts:u32 (len:u32 bytes)*`,
    /// little-endian.
    pub fn encode(&self) -> Vec<u8> {
        let total: usize = self.buckets.iter().map(|b| 8 + b.len()).sum();
        let mut out = Vec::with_capacity(16 + total);
        out.extend_from_slice(&self.first_bucket.to_le_bytes());
        out.extend_from_slice(&(self.buckets.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.part.to_le_bytes());
        out.extend_from_slice(&self.parts.to_le_bytes());
        for b in &self.buckets {
            out.extend_from_slice(&(b.len() as u32).to_le_bytes());
            out.extend_from_slice(b);
        }
        out
    }

    /// Decodes [`encode`](StateChunk::encode) output. Fail-closed: any
    /// structural defect (trailing bytes, a bucket range leaving
    /// `0..STATE_BUCKETS`, inconsistent fragment fields) yields `None`.
    pub fn decode(bytes: &[u8]) -> Option<StateChunk> {
        use spotless_types::bytes::take;
        let mut rest = bytes;
        let first_bucket = u32::from_le_bytes(take(&mut rest, 4)?.try_into().ok()?);
        let count = u32::from_le_bytes(take(&mut rest, 4)?.try_into().ok()?);
        let part = u32::from_le_bytes(take(&mut rest, 4)?.try_into().ok()?);
        let parts = u32::from_le_bytes(take(&mut rest, 4)?.try_into().ok()?);
        if count == 0 || (first_bucket as u64 + count as u64) > STATE_BUCKETS as u64 {
            return None;
        }
        if parts == 0 || part >= parts || parts > MAX_BUCKET_FRAGMENTS {
            return None;
        }
        if parts > 1 && count != 1 {
            return None; // a fragment carries exactly one byte slice
        }
        let mut buckets = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let len = u32::from_le_bytes(take(&mut rest, 4)?.try_into().ok()?) as usize;
            buckets.push(take(&mut rest, len)?.to_vec());
        }
        if !rest.is_empty() {
            return None;
        }
        Some(StateChunk {
            first_bucket,
            buckets,
            part,
            parts,
        })
    }

    /// Content address: digest of the canonical encoding. Snapshot
    /// manifests and install journals reference chunks by this.
    pub fn content_digest(&self) -> Digest {
        spotless_crypto::digest_bytes(&self.encode())
    }
}

/// Sanity cap on how many fragments one bucket may split into — 2^16
/// fragments at any realistic budget is far past any state size this
/// system can hold in memory; a larger claim is a malformed frame.
pub const MAX_BUCKET_FRAGMENTS: u32 = 1 << 16;

/// Digest of one record — what a write contributes to its batch's
/// write chain (see [`KvStore::execute_batch`]) and to its bucket's
/// leaf.
/// For a value of up to 95 bytes the length-prefixed message fits two
/// SHA-256 blocks and `digest_fields` hashes it in one call from the
/// stack. **Consensus-critical.**
pub fn record_digest(key: u64, value: &[u8]) -> Digest {
    spotless_crypto::digest_fields(&[&key.to_be_bytes(), value])
}

/// Digest of one bucket — the shard-tree Merkle leaf payload for that
/// bucket's index: `digest_fields([domain, count:u32 le, d₁‖…‖dₙ])`
/// over the [`record_digest`]s of its records in ascending key order.
/// A flat list, not a tree: buckets hold a few dozen records at most.
/// **Consensus-critical** — the one definition every path (dirty-bucket
/// refresh, the audit rebuild, chunk verification) goes through.
pub fn bucket_leaf_digest<I>(record_digests: I) -> Digest
where
    I: IntoIterator<Item = Digest>,
    I::IntoIter: ExactSizeIterator,
{
    let record_digests = record_digests.into_iter();
    let count = record_digests.len();
    // `digest_fields`' encoding — each field behind its u64 big-endian
    // length — streamed, so the digest list is never materialised on
    // the heap; staged through a stack buffer so the hasher is handed
    // runs of whole blocks rather than 32-byte halves.
    let mut h = spotless_crypto::Sha256::new();
    let mut stage = [0u8; 512];
    let mut staged = 0;
    for part in [
        &(BUCKET_DOMAIN.len() as u64).to_be_bytes()[..],
        BUCKET_DOMAIN,
        &4u64.to_be_bytes(),
        &(count as u32).to_le_bytes(),
        &(32 * count as u64).to_be_bytes(),
    ] {
        stage[staged..staged + part.len()].copy_from_slice(part);
        staged += part.len();
    }
    let mut streamed = 0;
    for d in record_digests {
        if staged + d.0.len() > stage.len() {
            h.update(&stage[..staged]);
            staged = 0;
        }
        stage[staged..staged + d.0.len()].copy_from_slice(&d.0);
        staged += d.0.len();
        streamed += 1;
    }
    assert_eq!(streamed, count, "the iterator misreported its length");
    h.update(&stage[..staged]);
    Digest(h.finalize())
}

/// Parses one canonically encoded bucket without copying values,
/// enforcing the canonical form: keys strictly ascending, every key
/// placed in bucket `b` by [`bucket_of`], no trailing bytes. `None` on
/// any violation.
fn parse_bucket(b: usize, bytes: &[u8]) -> Option<Vec<(u64, &[u8])>> {
    use spotless_types::bytes::take;
    let mut rest = bytes;
    let count = u32::from_le_bytes(take(&mut rest, 4)?.try_into().ok()?);
    let mut entries = Vec::with_capacity(count.min(1 << 20) as usize);
    let mut last: Option<u64> = None;
    for _ in 0..count {
        let key = u64::from_le_bytes(take(&mut rest, 8)?.try_into().ok()?);
        if bucket_of(key) != b || last.is_some_and(|l| l >= key) {
            return None;
        }
        last = Some(key);
        let len = u32::from_le_bytes(take(&mut rest, 4)?.try_into().ok()?) as usize;
        entries.push((key, take(&mut rest, len)?));
    }
    rest.is_empty().then_some(entries)
}

/// The block-sealed state root implied by per-shard sub-roots plus the
/// canonical meta encoding: the root of the 9-leaf top tree.
fn top_state_root(shard_roots: &[Digest], meta: &[u8]) -> Digest {
    use spotless_crypto::{leaf_digest, root_of_leaf_digests};
    assert_eq!(shard_roots.len(), EXEC_SHARDS);
    let mut level = [Digest::ZERO; EXEC_SHARDS + 1];
    for (leaf, root) in level.iter_mut().zip(shard_roots) {
        *leaf = leaf_digest(&root.0);
    }
    level[META_LEAF] = leaf_digest(meta);
    root_of_leaf_digests(&mut level)
}

/// Verifies bucket `b`'s canonical encoding against a state root
/// through a two-part proof: `shard_proof` carries the bucket to its
/// shard's sub-root, `top_proof` carries that sub-root to the root.
/// The leaf is recomputed from the received bytes — every record's
/// digest from its key and value — so bytes that do not parse as
/// bucket `b`'s canonical encoding fail closed. Position-pinned on both
/// levels — a valid proof for any *other* bucket or shard slot is
/// rejected.
pub fn verify_bucket(
    b: usize,
    encoded_bucket: &[u8],
    shard_proof: &[ProofStep],
    top_proof: &[ProofStep],
    root: &Digest,
) -> bool {
    use spotless_crypto::{fold_proof, leaf_digest, proof_index, verify_inclusion};
    if b >= STATE_BUCKETS
        || proof_index(shard_proof) != b % SHARD_BUCKETS
        || proof_index(top_proof) != shard_of_bucket(b)
    {
        return false;
    }
    let Some(records) = parse_bucket(b, encoded_bucket) else {
        return false;
    };
    let leaf = bucket_leaf_digest(
        records
            .iter()
            .map(|(key, value)| record_digest(*key, value)),
    );
    let sub_root = fold_proof(leaf_digest(&leaf.0), shard_proof);
    verify_inclusion(&sub_root.0, top_proof, root)
}

/// One execution shard: a contiguous [`SHARD_BUCKETS`]-bucket part of
/// the table and the Merkle tree over its bucket leaf digests.
struct Shard {
    table: HashMap<u64, Record>,
    /// Sorted key membership per local bucket (canonical bucket order).
    bucket_keys: Vec<BTreeSet<u64>>,
    /// The tree over the [`SHARD_BUCKETS`] bucket leaf digests, kept for
    /// the shard's life. Leaves flagged `dirty` are stale until the
    /// next [`refresh`](Shard::refresh) re-hashes them and their paths.
    tree: MerkleTree,
    dirty: Vec<bool>,
    any_dirty: bool,
}

/// A stored value and its [`record_digest`], computed once when the
/// value was written.
struct Record {
    value: Vec<u8>,
    digest: Digest,
}

/// The canonical encoding of the bucket holding `keys` (its sorted
/// membership) over `table`: `count:u32` then, per key in ascending
/// order, `key:u64 len:u32 value`, little-endian.
fn encode_records(keys: &BTreeSet<u64>, table: &HashMap<u64, Record>) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + keys.len() * 16);
    out.extend_from_slice(&(keys.len() as u32).to_le_bytes());
    for key in keys {
        let value = &table[key].value;
        out.extend_from_slice(&key.to_le_bytes());
        out.extend_from_slice(&(value.len() as u32).to_le_bytes());
        out.extend_from_slice(value);
    }
    out
}

/// The leaf of the bucket holding `keys`, from the record digests
/// cached in `table`.
fn leaf_of_records(keys: &BTreeSet<u64>, table: &HashMap<u64, Record>) -> Digest {
    bucket_leaf_digest(keys.iter().map(|key| table[key].digest))
}

/// The tree of a shard whose buckets are all empty (every shard starts
/// as a clone of it, clean).
fn empty_shard_tree() -> MerkleTree {
    static EMPTY: OnceLock<MerkleTree> = OnceLock::new();
    EMPTY
        .get_or_init(|| {
            let leaf = bucket_leaf_digest([]);
            MerkleTree::build(&[leaf.0; SHARD_BUCKETS])
        })
        .clone()
}

impl Shard {
    fn new() -> Shard {
        Shard {
            table: HashMap::new(),
            bucket_keys: vec![BTreeSet::new(); SHARD_BUCKETS],
            tree: empty_shard_tree(),
            dirty: vec![false; SHARD_BUCKETS],
            any_dirty: false,
        }
    }

    fn raw_insert(&mut self, key: u64, record: Record) {
        let local = bucket_of(key) % SHARD_BUCKETS;
        self.bucket_keys[local].insert(key);
        self.table.insert(key, record);
        self.dirty[local] = true;
        self.any_dirty = true;
    }

    /// Brings the tree up to date: re-hashes the dirty buckets' record
    /// digest lists and their ancestor paths — nothing else (cheap on
    /// the hot path: only buckets touched since the last call, and no
    /// value bytes).
    fn refresh(&mut self) {
        if !self.any_dirty {
            return;
        }
        let mut changes = Vec::new();
        for local in 0..SHARD_BUCKETS {
            if self.dirty[local] {
                let leaf = leaf_of_records(&self.bucket_keys[local], &self.table);
                changes.push((local, leaf.0));
                self.dirty[local] = false;
            }
        }
        self.tree.update(&changes);
        self.any_dirty = false;
    }

    /// The shard's up-to-date tree over its bucket leaf digests.
    fn tree(&mut self) -> &MerkleTree {
        self.refresh();
        &self.tree
    }

    /// The shard's sub-root — one leaf of the top state tree.
    fn sub_root(&mut self) -> Digest {
        self.tree().root()
    }
}

/// Everything needed to prove buckets and meta into one frozen state
/// root: the per-shard trees plus the top tree. Serving peers build one
/// per outgoing snapshot and derive all chunk proofs from it.
pub struct StateProver {
    shard_trees: Vec<MerkleTree>,
    top: MerkleTree,
}

impl StateProver {
    /// The state root this prover proves into.
    pub fn root(&self) -> Digest {
        self.top.root()
    }

    /// Two-part inclusion proof for bucket `b` (global index):
    /// `(shard_proof, top_proof)` as consumed by [`verify_bucket`].
    pub fn prove_bucket(&self, b: usize) -> Option<(Vec<ProofStep>, Vec<ProofStep>)> {
        if b >= STATE_BUCKETS {
            return None;
        }
        let shard = shard_of_bucket(b);
        let shard_proof = self.shard_trees[shard].prove(b % SHARD_BUCKETS)?;
        let top_proof = self.top.prove(shard)?;
        Some((shard_proof, top_proof))
    }

    /// Top-tree inclusion proof for shard `s`'s sub-root — shared by
    /// every bucket of one shard-aligned chunk.
    pub fn prove_shard(&self, s: usize) -> Option<Vec<ProofStep>> {
        if s >= EXEC_SHARDS {
            return None;
        }
        self.top.prove(s)
    }

    /// Top-tree inclusion proof for the meta leaf ([`META_LEAF`]).
    pub fn prove_meta(&self) -> Option<Vec<ProofStep>> {
        self.top.prove(META_LEAF)
    }
}

/// An in-memory YCSB table, split into [`EXEC_SHARDS`] shards of
/// [`SHARD_BUCKETS`] buckets, with deterministic per-batch state
/// digesting and an incrementally maintained two-level Merkle state
/// root.
pub struct KvStore {
    /// Shard `i` at index `i`, always all [`EXEC_SHARDS`] of them.
    shards: Vec<Shard>,
    /// Rolling digest over the executed batch sequence (see
    /// [`execute_batch`](KvStore::execute_batch)).
    state: Digest,
    writes_applied: u64,
    reads_served: u64,
    /// Cached root; `None` whenever contents or meta changed since the
    /// last computation.
    cached_root: Option<Digest>,
}

impl KvStore {
    /// An empty store.
    pub fn new() -> KvStore {
        KvStore {
            shards: (0..EXEC_SHARDS).map(|_| Shard::new()).collect(),
            state: Digest::ZERO,
            writes_applied: 0,
            reads_served: 0,
            cached_root: None,
        }
    }

    /// A store pre-loaded with `records` identical records of
    /// `value_size` bytes (the paper's initialization step).
    pub fn initialized(records: u64, value_size: u32) -> KvStore {
        let mut store = KvStore::new();
        let value = vec![0xAB; value_size as usize];
        for key in 0..records {
            store.raw_insert(key, value.clone());
        }
        store
    }

    /// Inserts without touching the rolling digest or counters (used by
    /// initialization and snapshot restore).
    fn raw_insert(&mut self, key: u64, value: Vec<u8>) {
        let digest = record_digest(key, &value);
        self.shards[shard_of_key(key)].raw_insert(key, Record { value, digest });
        self.cached_root = None;
    }

    /// Number of records currently stored.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.table.len()).sum()
    }

    /// True iff the table is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.table.is_empty())
    }

    /// Writes applied so far.
    pub fn writes_applied(&self) -> u64 {
        self.writes_applied
    }

    /// Reads served so far.
    pub fn reads_served(&self) -> u64 {
        self.reads_served
    }

    /// The rolling digest over the executed batch sequence. Two replicas
    /// that executed the same committed batch sequence have equal state
    /// digests.
    pub fn state_digest(&self) -> Digest {
        self.state
    }

    /// Executes one transaction as a singleton batch.
    pub fn execute(&mut self, txn: &Transaction) -> ExecResult {
        let result = match &txn.op {
            Operation::Read { key } => {
                let value_digest = self.shards[shard_of_key(*key)]
                    .table
                    .get(key)
                    .map(|r| spotless_crypto::digest_bytes(&r.value))
                    .unwrap_or(Digest::ZERO);
                ExecResult::Read { value_digest }
            }
            Operation::Update { .. } => ExecResult::Written,
        };
        self.execute_batch(std::slice::from_ref(txn));
        result
    }

    /// Executes a whole batch in transaction order, returning the
    /// post-batch state digest. A batch that wrote chains one step onto
    /// the rolling digest: the fold, from the zero digest, of its
    /// writes' [`record_digest`]s. The counters sit in the meta leaf, so
    /// any non-empty batch — even a read-only one — moves the root.
    pub fn execute_batch(&mut self, txns: &[Transaction]) -> Digest {
        if txns.is_empty() {
            return self.state;
        }
        let mut write_chain = Digest::ZERO;
        let mut writes = 0;
        for txn in txns {
            let shard = &mut self.shards[shard_of_key(txn.op.key())];
            match &txn.op {
                Operation::Read { key } => {
                    // The value digest is only surfaced by single-txn
                    // `execute`; batch execution needs just the counter.
                    let _ = shard.table.get(key);
                }
                Operation::Update { key, value } => {
                    writes += 1;
                    // One hash of the value serves both commitments: the
                    // write chain now, the bucket leaf at the next seal.
                    let digest = record_digest(*key, value);
                    write_chain = spotless_crypto::digest_chained(&write_chain, &digest);
                    let record = Record {
                        value: value.clone(),
                        digest,
                    };
                    shard.raw_insert(*key, record);
                }
            }
        }
        self.writes_applied += writes;
        self.reads_served += txns.len() as u64 - writes;
        if writes > 0 {
            self.state = spotless_crypto::digest_chained(&self.state, &write_chain);
        }
        self.cached_root = None;
        self.state
    }

    /// Canonical encoding of bucket `b` (global index): `count:u32`
    /// then, per key in ascending order, `key:u64 len:u32 value`. This
    /// is the transfer payload unit; a receiver derives the bucket's
    /// shard-tree leaf from it record by record ([`verify_bucket`]).
    pub fn encode_bucket(&self, b: usize) -> Vec<u8> {
        let shard = &self.shards[shard_of_bucket(b)];
        encode_records(&shard.bucket_keys[b % SHARD_BUCKETS], &shard.table)
    }

    /// Decodes one canonically encoded bucket, enforcing the canonical
    /// form: keys strictly ascending and every key placed in bucket `b`
    /// by [`bucket_of`]. `None` on any violation — a transfer peer
    /// cannot smuggle a key into the wrong bucket (its inclusion proof
    /// would cover the wrong leaf).
    pub fn decode_bucket(b: usize, bytes: &[u8]) -> Option<Vec<(u64, Vec<u8>)>> {
        let records = parse_bucket(b, bytes)?;
        Some(records.into_iter().map(|(k, v)| (k, v.to_vec())).collect())
    }

    /// Canonical encoding of the meta leaf: rolling digest + counters.
    /// Travels with transfer manifests; verified against the state root
    /// via the [`META_LEAF`] top-tree inclusion proof.
    pub fn transfer_meta(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(META_MAGIC.len() + 48);
        out.extend_from_slice(META_MAGIC);
        out.extend_from_slice(&self.state.0);
        out.extend_from_slice(&self.writes_applied.to_le_bytes());
        out.extend_from_slice(&self.reads_served.to_le_bytes());
        out
    }

    fn decode_meta(meta: &[u8]) -> Option<(Digest, u64, u64)> {
        use spotless_types::bytes::take;
        let mut rest = meta;
        if take(&mut rest, META_MAGIC.len())? != META_MAGIC {
            return None;
        }
        let mut state = Digest::ZERO;
        state.0.copy_from_slice(take(&mut rest, 32)?);
        let writes = u64::from_le_bytes(take(&mut rest, 8)?.try_into().ok()?);
        let reads = u64::from_le_bytes(take(&mut rest, 8)?.try_into().ok()?);
        if !rest.is_empty() {
            return None;
        }
        Some((state, writes, reads))
    }

    /// Freezes the full two-level proof structure — per-shard trees
    /// plus the top tree — for serving chunk inclusion proofs.
    pub fn state_prover(&mut self) -> StateProver {
        let shard_trees: Vec<MerkleTree> =
            self.shards.iter_mut().map(|s| s.tree().clone()).collect();
        let sub_roots: Vec<Digest> = shard_trees.iter().map(MerkleTree::root).collect();
        let meta = self.transfer_meta();
        let mut top_leaves: Vec<&[u8]> = sub_roots.iter().map(|r| &r.0[..]).collect();
        top_leaves.push(&meta);
        StateProver {
            shard_trees,
            top: MerkleTree::build(&top_leaves),
        }
    }

    /// The Merkle commitment over the store's contents — what every
    /// ledger block seals as its `state_root`. Incremental: re-hashes
    /// only dirty buckets, their paths in their shards' trees, and the
    /// 9-leaf top tree.
    pub fn state_root(&mut self) -> Digest {
        if let Some(root) = self.cached_root {
            return root;
        }
        let sub_roots: Vec<Digest> = self.shards.iter_mut().map(|s| s.sub_root()).collect();
        let root = top_state_root(&sub_roots, &self.transfer_meta());
        self.cached_root = Some(root);
        root
    }

    /// Audit path: recomputes the state root from nothing but the keys,
    /// values and meta — no cached record digests, no long-lived trees,
    /// no dirty tracking.
    /// [`state_root`](KvStore::state_root) must always agree with this;
    /// snapshot installation uses it as the final gate on assembled
    /// state.
    pub fn rebuild_state_root(&self) -> Digest {
        let mut sub_roots = Vec::with_capacity(EXEC_SHARDS);
        for shard in &self.shards {
            let mut buckets: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); SHARD_BUCKETS];
            for &key in shard.table.keys() {
                buckets[bucket_of(key) % SHARD_BUCKETS].insert(key);
            }
            let leaves: Vec<[u8; 32]> = buckets
                .iter()
                .map(|keys| {
                    let digests = keys
                        .iter()
                        .map(|&key| record_digest(key, &shard.table[&key].value));
                    bucket_leaf_digest(digests).0
                })
                .collect();
            sub_roots.push(MerkleTree::build(&leaves).root());
        }
        top_state_root(&sub_roots, &self.transfer_meta())
    }

    /// Splits the whole store into transfer chunks: bucket ranges packed
    /// greedily up to `budget` raw bytes each, **never crossing a shard
    /// boundary** (each chunk's buckets share one top-level proof), and
    /// splitting any single bucket that outgrows the budget into
    /// digest-addressed fragments of at most `budget` bytes. The chunks
    /// cover `0..STATE_BUCKETS` exactly; together with
    /// [`transfer_meta`](KvStore::transfer_meta) they are the complete,
    /// verifiable serialization of the store — and because fragments
    /// exist, no single bucket ever has to fit one wire frame (the old
    /// ~1 GiB practical state bound is gone).
    pub fn to_chunks(&self, budget: usize) -> Vec<StateChunk> {
        (0..EXEC_SHARDS)
            .flat_map(|s| self.shard_to_chunks(s, budget))
            .collect()
    }

    /// The chunks of [`to_chunks`](KvStore::to_chunks) covering exactly
    /// one execution shard's buckets.
    fn shard_to_chunks(&self, shard: usize, budget: usize) -> Vec<StateChunk> {
        let budget = budget.max(1);
        let mut chunks = Vec::new();
        let first = shard * SHARD_BUCKETS;
        let mut current = StateChunk::whole(first as u32, Vec::new());
        let mut current_bytes = 0usize;
        for b in first..first + SHARD_BUCKETS {
            let enc = self.encode_bucket(b);
            if !current.buckets.is_empty() && current_bytes + enc.len() > budget {
                let next_first = current.first_bucket + current.buckets.len() as u32;
                chunks.push(std::mem::replace(
                    &mut current,
                    StateChunk::whole(next_first, Vec::new()),
                ));
                current_bytes = 0;
            }
            if enc.len() > budget {
                // Oversized bucket: emit fragments instead of a whole
                // chunk. `current` is empty here and already points at
                // bucket `b`.
                debug_assert!(current.buckets.is_empty());
                let parts = enc.len().div_ceil(budget) as u32;
                for (part, piece) in enc.chunks(budget).enumerate() {
                    chunks.push(StateChunk {
                        first_bucket: b as u32,
                        buckets: vec![piece.to_vec()],
                        part: part as u32,
                        parts,
                    });
                }
                current.first_bucket = b as u32 + 1;
                continue;
            }
            current_bytes += enc.len();
            current.buckets.push(enc);
        }
        if !current.buckets.is_empty() {
            chunks.push(current);
        }
        chunks
    }

    /// Reassembles a store from a complete transfer: `meta` plus chunks
    /// covering every bucket exactly once, with fragment series
    /// (`parts > 1`) arriving in order and concatenating back into one
    /// bucket encoding. Fail-closed on any structural defect — gaps,
    /// overlaps, malformed buckets, keys in the wrong bucket, broken
    /// fragment series. The caller still owns the cryptographic gate:
    /// comparing [`rebuild_state_root`](KvStore::rebuild_state_root)
    /// (or [`state_root`](KvStore::state_root)) of the result against
    /// the chain's committed root.
    pub fn from_transfer(meta: &[u8], chunks: &[StateChunk]) -> Option<KvStore> {
        let (state, writes_applied, reads_served) = KvStore::decode_meta(meta)?;
        let mut store = KvStore::new();
        let mut next_bucket = 0usize;
        let mut i = 0usize;
        while i < chunks.len() {
            let chunk = &chunks[i];
            if chunk.first_bucket as usize != next_bucket {
                return None;
            }
            if chunk.parts > 1 {
                // A fragment series: `parts` consecutive single-slice
                // chunks for the same bucket.
                if chunk.part != 0 || chunk.buckets.len() != 1 {
                    return None;
                }
                let mut enc = chunk.buckets[0].clone();
                for part in 1..chunk.parts {
                    i += 1;
                    let frag = chunks.get(i)?;
                    if frag.first_bucket != chunk.first_bucket
                        || frag.parts != chunk.parts
                        || frag.part != part
                        || frag.buckets.len() != 1
                    {
                        return None;
                    }
                    enc.extend_from_slice(&frag.buckets[0]);
                }
                for (key, value) in KvStore::decode_bucket(next_bucket, &enc)? {
                    store.raw_insert(key, value);
                }
                next_bucket += 1;
            } else {
                if chunk.part != 0 {
                    return None;
                }
                for (off, enc) in chunk.buckets.iter().enumerate() {
                    let b = chunk.first_bucket as usize + off;
                    if b >= STATE_BUCKETS {
                        return None;
                    }
                    for (key, value) in KvStore::decode_bucket(b, enc)? {
                        store.raw_insert(key, value);
                    }
                }
                next_bucket += chunk.buckets.len();
            }
            i += 1;
        }
        if next_bucket != STATE_BUCKETS {
            return None;
        }
        store.state = state;
        store.writes_applied = writes_applied;
        store.reads_served = reads_served;
        Some(store)
    }
}

impl Default for KvStore {
    fn default() -> Self {
        KvStore::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ycsb::{WorkloadGen, YcsbConfig};

    fn write(id: u64, key: u64, value: &[u8]) -> Transaction {
        Transaction {
            id,
            op: Operation::Update {
                key,
                value: value.to_vec(),
            },
        }
    }

    fn read(id: u64, key: u64) -> Transaction {
        Transaction {
            id,
            op: Operation::Read { key },
        }
    }

    /// Buckets covered by a chunk list, counting a fragment series once.
    fn buckets_covered(chunks: &[StateChunk]) -> usize {
        chunks
            .iter()
            .map(|c| {
                if c.parts > 1 {
                    usize::from(c.part == 0)
                } else {
                    c.buckets.len()
                }
            })
            .sum()
    }

    #[test]
    fn shard_layout_is_exact_and_consistent() {
        assert_eq!(EXEC_SHARDS * SHARD_BUCKETS, STATE_BUCKETS);
        assert_eq!(META_LEAF, EXEC_SHARDS);
        for b in 0..STATE_BUCKETS {
            assert!(shard_of_bucket(b) < EXEC_SHARDS);
        }
        for key in 0..10_000u64 {
            assert_eq!(shard_of_key(key), shard_of_bucket(bucket_of(key)));
        }
        // The YCSB key space actually exercises every shard.
        let mut seen = [false; EXEC_SHARDS];
        for key in 0..10_000u64 {
            seen[shard_of_key(key)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn initialization_loads_all_records() {
        let store = KvStore::initialized(1000, 48);
        assert_eq!(store.len(), 1000);
    }

    #[test]
    fn writes_then_reads_roundtrip() {
        let mut store = KvStore::new();
        store.execute(&write(0, 7, b"hello"));
        let r = store.execute(&read(1, 7));
        assert_eq!(
            r,
            ExecResult::Read {
                value_digest: spotless_crypto::digest_bytes(b"hello")
            }
        );
        assert_eq!(store.writes_applied(), 1);
        assert_eq!(store.reads_served(), 1);
    }

    #[test]
    fn missing_keys_read_as_zero_digest() {
        let mut store = KvStore::new();
        let r = store.execute(&read(0, 404));
        assert_eq!(
            r,
            ExecResult::Read {
                value_digest: Digest::ZERO
            }
        );
    }

    #[test]
    fn same_sequence_same_state_digest() {
        let mut generator = WorkloadGen::new(YcsbConfig::default(), 99);
        let txns = generator.next_batch(500);
        let mut a = KvStore::initialized(1000, 8);
        let mut b = KvStore::initialized(1000, 8);
        let da = a.execute_batch(&txns);
        let db = b.execute_batch(&txns);
        assert_eq!(da, db);
        assert_eq!(a.state_root(), b.state_root());
    }

    #[test]
    fn different_order_different_state_digest() {
        let t1 = write(0, 1, b"a");
        let t2 = write(1, 1, b"b");
        let mut a = KvStore::new();
        let mut b = KvStore::new();
        a.execute_batch(&[t1.clone(), t2.clone()]);
        b.execute_batch(&[t2, t1]);
        assert_ne!(a.state_digest(), b.state_digest());
        // The roots differ too: the rolling digest sits in the meta leaf.
        assert_ne!(a.state_root(), b.state_root());
    }

    #[test]
    fn bucket_footprints_conflict_per_bucket() {
        let empty = batch_bucket_footprint(&[]);
        assert_eq!(empty, BucketFootprint::default());
        let mut generator = WorkloadGen::new(YcsbConfig::default(), 7);
        let txns = generator.next_batch(200);
        let fp = batch_bucket_footprint(&txns);
        assert!(!empty.intersects(&fp));
        // Every transaction's own footprint lies inside its batch's.
        for t in &txns {
            assert!(batch_bucket_footprint(std::slice::from_ref(t)).intersects(&fp));
        }
        // Intersection is per bucket, not per shard: two keys in one
        // shard but different buckets do not conflict.
        let (ka, kb) = two_keys_same_shard_different_buckets();
        let mut fa = batch_bucket_footprint(&[write(0, ka, b"a")]);
        let fb = batch_bucket_footprint(&[read(1, kb)]);
        assert!(!fa.intersects(&fb));
        fa.union_with(&fb);
        assert!(fa.intersects(&fb));
    }

    /// Two keys in the same shard but different buckets.
    fn two_keys_same_shard_different_buckets() -> (u64, u64) {
        let mut first = None;
        for key in 0..1_000_000u64 {
            if shard_of_key(key) != 0 {
                continue;
            }
            match first {
                None => first = Some(key),
                Some(a) if bucket_of(key) != bucket_of(a) => return (a, key),
                Some(_) => {}
            }
        }
        unreachable!("shard 0 has more than one populated bucket");
    }

    #[test]
    fn shard_chunks_concatenate_to_store_chunks() {
        let store = KvStore::initialized(400, 32);
        for budget in [64usize, 1024, 1 << 20] {
            let per_shard: Vec<StateChunk> = (0..EXEC_SHARDS)
                .flat_map(|s| store.shard_to_chunks(s, budget))
                .collect();
            assert_eq!(per_shard, store.to_chunks(budget));
            for s in 0..EXEC_SHARDS {
                let chunks = store.shard_to_chunks(s, budget);
                assert_eq!(chunks[0].first_bucket as usize, s * SHARD_BUCKETS);
                assert_eq!(buckets_covered(&chunks), SHARD_BUCKETS);
            }
        }
    }

    #[test]
    fn incremental_root_matches_full_rebuild() {
        let mut generator = WorkloadGen::new(YcsbConfig::default(), 7);
        let mut store = KvStore::initialized(300, 16);
        for _ in 0..5 {
            store.execute_batch(&generator.next_batch(40));
            assert_eq!(
                store.state_root(),
                store.rebuild_state_root(),
                "incremental maintenance must agree with the audit rebuild"
            );
        }
    }

    /// The state-root definition, pinned: any change to the record,
    /// bucket-leaf, shard-tree or top-tree hashing moves this value and
    /// needs a storage and wire version bump alongside it.
    #[test]
    fn state_root_definition_is_pinned() {
        let mut generator = WorkloadGen::new(YcsbConfig::default(), 16);
        let mut store = KvStore::initialized(300, 16);
        store.execute_batch(&generator.next_batch(100));
        let hex: String = store
            .state_root()
            .0
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            hex,
            "9ed3e6f0ab64360e2b3e3c8da55063119379a37a71222242dba8af1643cfb54a"
        );
        assert_eq!(store.state_root(), store.rebuild_state_root());
    }

    #[test]
    fn content_changes_move_the_root() {
        let mut a = KvStore::new();
        let mut b = KvStore::new();
        a.execute(&write(0, 5, b"x"));
        b.execute(&write(0, 5, b"y"));
        assert_ne!(a.state_root(), b.state_root());
        // Reads move the root deterministically (counters are committed
        // state), and identically on both sides.
        let ra = a.state_root();
        a.execute(&read(1, 5));
        assert_ne!(a.state_root(), ra);
    }

    #[test]
    fn bucket_encoding_roundtrips_and_rejects_misplaced_keys() {
        let mut store = KvStore::new();
        for k in 0..200u64 {
            store.execute(&write(k, k, format!("v{k}").as_bytes()));
        }
        for b in 0..STATE_BUCKETS {
            let enc = store.encode_bucket(b);
            let entries = KvStore::decode_bucket(b, &enc).expect("canonical bucket decodes");
            assert!(entries.iter().all(|(k, _)| bucket_of(*k) == b));
            // The same bytes presented as a *different* bucket index
            // must be rejected unless the bucket is empty (an empty
            // encoding is valid anywhere — and hashes identically).
            if !entries.is_empty() {
                let wrong = (b + 1) % STATE_BUCKETS;
                assert!(KvStore::decode_bucket(wrong, &enc).is_none());
            }
        }
    }

    #[test]
    fn chunked_transfer_roundtrips_exactly() {
        let mut generator = WorkloadGen::new(YcsbConfig::default(), 21);
        let mut store = KvStore::initialized(500, 32);
        store.execute_batch(&generator.next_batch(400));
        let root = store.state_root();
        for budget in [64usize, 4096, 1 << 20] {
            let chunks = store.to_chunks(budget);
            assert_eq!(
                buckets_covered(&chunks),
                STATE_BUCKETS,
                "chunks must cover the bucket space (budget {budget})"
            );
            // Wire roundtrip per chunk.
            let decoded: Vec<StateChunk> = chunks
                .iter()
                .map(|c| StateChunk::decode(&c.encode()).expect("chunk decodes"))
                .collect();
            assert_eq!(decoded, chunks);
            let mut back =
                KvStore::from_transfer(&store.transfer_meta(), &decoded).expect("assembles");
            assert_eq!(back.len(), store.len());
            assert_eq!(back.state_digest(), store.state_digest());
            assert_eq!(back.writes_applied(), store.writes_applied());
            assert_eq!(back.reads_served(), store.reads_served());
            assert_eq!(back.state_root(), root);
            assert_eq!(back.rebuild_state_root(), root);
        }
    }

    #[test]
    fn chunks_never_cross_shard_boundaries() {
        let store = KvStore::initialized(2000, 32);
        for budget in [64usize, 4096, 1 << 20] {
            for chunk in store.to_chunks(budget) {
                let first = chunk.first_bucket as usize;
                let last = first + chunk.buckets.len().max(1) - 1;
                assert_eq!(
                    shard_of_bucket(first),
                    shard_of_bucket(last),
                    "chunk {first}..={last} crosses a shard boundary (budget {budget})"
                );
            }
        }
    }

    #[test]
    fn oversized_buckets_fragment_and_reassemble() {
        // Force fragmentation: one bucket's encoding far past the
        // budget. Key 0's bucket gets a 4 KiB value, budget is 512.
        let mut store = KvStore::initialized(200, 16);
        store.execute(&write(0, 0, &vec![0x5A; 4096]));
        let root = store.state_root();
        let budget = 512usize;
        let chunks = store.to_chunks(budget);
        let frags: Vec<&StateChunk> = chunks.iter().filter(|c| c.parts > 1).collect();
        assert!(!frags.is_empty(), "oversized bucket must fragment");
        for f in &frags {
            assert_eq!(f.buckets.len(), 1);
            assert!(f.buckets[0].len() <= budget, "fragment exceeds budget");
        }
        assert_eq!(buckets_covered(&chunks), STATE_BUCKETS);
        let mut back = KvStore::from_transfer(&store.transfer_meta(), &chunks).expect("assembles");
        assert_eq!(back.state_root(), root);
        assert_eq!(back.rebuild_state_root(), root);

        // A broken series fails closed: drop one fragment.
        let mut missing: Vec<StateChunk> = chunks.clone();
        let drop_at = missing
            .iter()
            .position(|c| c.parts > 1 && c.part == 1)
            .expect("series has a second fragment");
        missing.remove(drop_at);
        assert!(KvStore::from_transfer(&store.transfer_meta(), &missing).is_none());

        // Reordered fragments fail closed too.
        let mut swapped = chunks.clone();
        let a = swapped.iter().position(|c| c.parts > 1).expect("fragment");
        swapped.swap(a, a + 1);
        assert!(KvStore::from_transfer(&store.transfer_meta(), &swapped).is_none());
    }

    #[test]
    fn transfer_assembly_is_fail_closed() {
        let mut store = KvStore::initialized(50, 8);
        let meta = store.transfer_meta();
        let chunks = store.to_chunks(1 << 20);
        // Missing coverage.
        assert!(KvStore::from_transfer(&meta, &chunks[..0]).is_none());
        // Tampered meta.
        let mut bad_meta = meta.clone();
        bad_meta[0] ^= 0xff;
        assert!(KvStore::from_transfer(&bad_meta, &chunks).is_none());
        // A tampered bucket byte must break decoding or land keys in the
        // wrong bucket — and in every case move the recomputed root.
        let mut tampered = chunks.clone();
        let victim = tampered
            .iter_mut()
            .flat_map(|c| c.buckets.iter_mut())
            .find(|b| b.len() > 4)
            .expect("some non-empty bucket");
        let last = victim.len() - 1;
        victim[last] ^= 0x01;
        match KvStore::from_transfer(&meta, &tampered) {
            None => {}
            Some(polluted) => {
                assert_ne!(polluted.rebuild_state_root(), store.state_root());
            }
        }
    }

    #[test]
    fn chunk_content_digest_addresses_the_encoding() {
        let store = KvStore::initialized(20, 8);
        let chunks = store.to_chunks(1 << 20);
        let c = &chunks[0];
        assert_eq!(
            c.content_digest(),
            spotless_crypto::digest_bytes(&c.encode())
        );
    }

    #[test]
    fn chunk_decode_rejects_fragment_inconsistencies() {
        let store = KvStore::initialized(20, 8);
        let whole = &store.to_chunks(1 << 20)[0];
        // parts == 0 is malformed.
        let mut zero_parts = whole.clone();
        zero_parts.parts = 0;
        assert!(StateChunk::decode(&zero_parts.encode()).is_none());
        // part >= parts is malformed.
        let mut out_of_range = whole.clone();
        out_of_range.part = 1;
        assert!(StateChunk::decode(&out_of_range.encode()).is_none());
        // A multi-part chunk must carry exactly one slice.
        let mut multi = whole.clone();
        multi.parts = 2;
        assert!(multi.buckets.len() > 1);
        assert!(StateChunk::decode(&multi.encode()).is_none());
        // Absurd fragment counts are rejected before allocation.
        let mut absurd = StateChunk {
            first_bucket: 0,
            buckets: vec![vec![1, 2, 3]],
            part: 0,
            parts: MAX_BUCKET_FRAGMENTS + 1,
        };
        assert!(StateChunk::decode(&absurd.encode()).is_none());
        absurd.parts = 2;
        assert!(StateChunk::decode(&absurd.encode()).is_some());
    }

    #[test]
    fn two_level_prover_proves_buckets_and_meta() {
        use spotless_crypto::{proof_index, verify_inclusion};
        let mut store = KvStore::initialized(200, 16);
        let prover = store.state_prover();
        let root = store.state_root();
        assert_eq!(prover.root(), root);
        for b in [0usize, 1, STATE_BUCKETS / 2, STATE_BUCKETS - 1] {
            let (shard_proof, top_proof) = prover.prove_bucket(b).expect("bucket in range");
            assert_eq!(proof_index(&shard_proof), b % SHARD_BUCKETS);
            assert_eq!(proof_index(&top_proof), shard_of_bucket(b));
            assert!(verify_bucket(
                b,
                &store.encode_bucket(b),
                &shard_proof,
                &top_proof,
                &root
            ));
            // The same proof pair must not verify a different bucket.
            let other = (b + 1) % STATE_BUCKETS;
            assert!(!verify_bucket(
                other,
                &store.encode_bucket(other),
                &shard_proof,
                &top_proof,
                &root
            ));
        }
        // The shared shard proof equals the per-bucket top proof.
        let (_, top_proof) = prover.prove_bucket(3).expect("in range");
        assert_eq!(prover.prove_shard(0).expect("shard 0"), top_proof);
        let meta_proof = prover.prove_meta().expect("meta leaf");
        assert_eq!(proof_index(&meta_proof), META_LEAF);
        assert!(verify_inclusion(&store.transfer_meta(), &meta_proof, &root));
    }

    /// A populated bucket of `store` with its proofs and the root, for
    /// the rejection tests below.
    fn proven_bucket(store: &mut KvStore) -> (usize, Vec<u8>, Vec<ProofStep>, Vec<ProofStep>) {
        let b = (0..STATE_BUCKETS)
            .find(|&b| {
                KvStore::decode_bucket(b, &store.encode_bucket(b)).is_some_and(|e| e.len() >= 2)
            })
            .expect("some bucket holds two records");
        let (shard_proof, top_proof) = store.state_prover().prove_bucket(b).expect("in range");
        (b, store.encode_bucket(b), shard_proof, top_proof)
    }

    #[test]
    fn verify_bucket_fails_closed_on_unparseable_bytes() {
        let mut store = KvStore::initialized(4000, 8);
        let root = store.state_root();
        let (b, enc, shard_proof, top_proof) = proven_bucket(&mut store);
        assert!(verify_bucket(b, &enc, &shard_proof, &top_proof, &root));
        // Truncated anywhere — mid-count, mid-key, mid-value — and with
        // a trailing byte: none of it parses, none of it verifies.
        for cut in [0, 3, 4, 9, enc.len() - 1] {
            assert!(
                !verify_bucket(b, &enc[..cut], &shard_proof, &top_proof, &root),
                "cut {cut}"
            );
        }
        let mut trailing = enc.clone();
        trailing.push(0);
        assert!(!verify_bucket(
            b,
            &trailing,
            &shard_proof,
            &top_proof,
            &root
        ));
    }

    #[test]
    fn verify_bucket_rejects_reordered_keys_and_swapped_values() {
        let mut store = KvStore::initialized(4000, 8);
        let root = store.state_root();
        let (b, enc, shard_proof, top_proof) = proven_bucket(&mut store);
        let entries = KvStore::decode_bucket(b, &enc).expect("canonical");
        let encode = |entries: &[(u64, Vec<u8>)]| {
            let mut out = (entries.len() as u32).to_le_bytes().to_vec();
            for (key, value) in entries {
                out.extend_from_slice(&key.to_le_bytes());
                out.extend_from_slice(&(value.len() as u32).to_le_bytes());
                out.extend_from_slice(value);
            }
            out
        };
        assert_eq!(encode(&entries), enc);
        // The same records, first two out of order: not canonical.
        let mut reordered = entries.clone();
        reordered.swap(0, 1);
        assert!(!verify_bucket(
            b,
            &encode(&reordered),
            &shard_proof,
            &top_proof,
            &root
        ));
        // The same keys and the same record count, one value replaced:
        // parses, but that record's digest — recomputed from the bytes,
        // never taken from the sender — moves the leaf.
        let mut swapped = entries.clone();
        swapped[1].1 = vec![0x5A; swapped[1].1.len()];
        assert!(!verify_bucket(
            b,
            &encode(&swapped),
            &shard_proof,
            &top_proof,
            &root
        ));
        // One record dropped.
        assert!(!verify_bucket(
            b,
            &encode(&entries[1..]),
            &shard_proof,
            &top_proof,
            &root
        ));
    }

    #[test]
    fn verify_bucket_rejects_a_valid_bucket_at_the_wrong_index() {
        let mut store = KvStore::initialized(4000, 8);
        let root = store.state_root();
        let (b, enc, shard_proof, top_proof) = proven_bucket(&mut store);
        let other = (b + 1) % STATE_BUCKETS;
        // Its own bytes under another bucket's index: the keys do not
        // belong there, and the proof's direction bits name `b`.
        assert!(!verify_bucket(other, &enc, &shard_proof, &top_proof, &root));
        // Another bucket's (valid) bytes and index under `b`'s proof.
        let other_enc = store.encode_bucket(other);
        assert!(!verify_bucket(
            other,
            &other_enc,
            &shard_proof,
            &top_proof,
            &root
        ));
        // An empty bucket encodes identically everywhere, so only the
        // proof pins it: present it where a populated bucket lives.
        let empty = 0u32.to_le_bytes();
        assert!(!verify_bucket(b, &empty, &shard_proof, &top_proof, &root));
    }

    #[test]
    fn bucket_leaf_commits_to_count_order_and_content() {
        let d = |i: u64| record_digest(i, b"v");
        assert_ne!(bucket_leaf_digest([]), bucket_leaf_digest([d(1)]));
        assert_ne!(
            bucket_leaf_digest([d(1), d(2)]),
            bucket_leaf_digest([d(2), d(1)])
        );
        assert_ne!(record_digest(1, b"v"), record_digest(1, b"w"));
        assert_ne!(record_digest(1, b"v"), record_digest(2, b"v"));
        // A record digest is SHA-256 over the length-prefixed key and
        // value, whichever side of the two-block bound (95 B of value)
        // the message falls on.
        for len in [0usize, 1, 48, 95, 96, 256] {
            let value = vec![0xC3u8; len];
            let mut bytes = 8u64.to_be_bytes().to_vec();
            bytes.extend_from_slice(&7u64.to_be_bytes());
            bytes.extend_from_slice(&(len as u64).to_be_bytes());
            bytes.extend_from_slice(&value);
            assert_eq!(
                record_digest(7, &value),
                spotless_crypto::digest_bytes(&bytes),
                "{len}-byte value"
            );
        }
        // The streamed leaf is `digest_fields` over the joined list, at
        // zero, one and many records.
        for n in [0u64, 1, 2, 40] {
            let digests: Vec<Digest> = (0..n).map(d).collect();
            let joined: Vec<u8> = digests.iter().flat_map(|d| d.0).collect();
            assert_eq!(
                bucket_leaf_digest(digests),
                spotless_crypto::digest_fields(&[
                    BUCKET_DOMAIN,
                    &(n as u32).to_le_bytes(),
                    &joined
                ]),
                "{n} records"
            );
        }
    }

    #[test]
    fn reads_do_not_change_state_digest() {
        let mut store = KvStore::new();
        store.execute(&write(0, 1, b"x"));
        let before = store.state_digest();
        store.execute(&read(1, 1));
        assert_eq!(store.state_digest(), before);
    }
}
