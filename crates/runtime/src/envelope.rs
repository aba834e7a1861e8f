//! Signed wire envelopes and the runtime's tagged payload format.
//!
//! Every byte string that leaves a replica is serialized **once**,
//! signed **once**, and shared across destinations through an
//! [`Arc`] — a broadcast to `n − 1` peers clones a pointer, not a
//! proposal body. Fabrics ([`crate::Fabric`]) move [`Envelope`]s
//! verbatim; they never look inside.
//!
//! ## Payload layout (wire format v2, binary)
//!
//! ```text
//! payload := WIRE_VERSION (1 byte, 0xB7) ‖ tag (1 byte) ‖ body
//! protocol body := msg₁ ‖ … ‖ msg_k        (1 ≤ k ≤ MAX_BUNDLE)
//! ```
//!
//! Bodies are encoded with the streaming binary codec (`serde::bin`):
//! varint integers, raw byte slices, structs streamed field-by-field —
//! no intermediate value tree, no text. The sealed payload **is** the
//! canonical signed-bytes form: the codec's canonical varints make the
//! encoding of a message injective, so two replicas serializing the
//! same message sign the same bytes.
//!
//! The leading [`WIRE_VERSION`] byte is the fail-closed switch for
//! mixed-format clusters: a v1 (JSON-era) replica reads it as an
//! unknown tag and drops the frame; a v2 replica requires its own
//! revision's byte first and drops anything else — deliberately outside
//! the tag range, so no payload of either generation can be misparsed
//! as the other. Bump it on any layout change. The binary codec is the
//! only one the derives emit: no message has a JSON form.
//!
//! The tag selects the body type:
//!
//! * [`TAG_PROTOCOL`] — one to [`MAX_BUNDLE`] protocol messages
//!   (derived binary encoding), concatenated: the codec is
//!   self-delimiting, so a bundle needs no count or lengths. This is the
//!   only tag consensus traffic uses. The event loop encodes each run of
//!   messages it emits for one fan-out into one such payload, which the
//!   egress lane signs once (see `crate::egress`); a one-message payload
//!   is what [`encode_protocol`] makes.
//! * [`TAG_CATCHUP_REQ`] / [`TAG_CATCHUP_RESP`] — the runtime-level
//!   catch-up exchange a restarted replica uses to close the gap between
//!   its durable log and the cluster's head (see `crate::pipeline`).
//! * [`TAG_CATCHUP_MANIFEST`] / [`TAG_CATCHUP_CHUNK_REQ`] /
//!   [`TAG_CATCHUP_CHUNK`] — the chunked snapshot state transfer: when
//!   the responder has pruned (or never held) the requested history, it
//!   answers with a **manifest** (certified head block, application
//!   meta, chunk digest list); the requester then fetches chunks by
//!   index, each carrying per-bucket Merkle inclusion proofs against
//!   the head block's `state_root`, in any order, re-requesting on
//!   timeout. No frame ever needs to carry the whole state — the frame
//!   limit bounds a single *bucket*, not the store (see the scale note
//!   on `KvStore::to_chunks`), lifting the previous whole-state-per-
//!   frame ceiling by three orders of magnitude.
//!
//! Each body has one reader. [`decode_ref`] reads the header and every
//! transfer body, into the same owned types the encoders take, and
//! hands a protocol body back undecoded; [`decode_protocol_bundle`]
//! reads that. Transfer bodies are derived `serde::bin` types like the
//! protocol messages: their list bounds are declared on the fields
//! (`#[serde(max_len = MAX_TRANSFER_ITEMS)]`), and every proof is
//! bounded by [`ProofStep`]'s own decoder. [`decode`] is [`decode_ref`]
//! plus its own protocol-body loop, kept as the oracle the bundle reader
//! is tested against.
//!
//! Decoding is fail-closed throughout: wrong version, unknown tag,
//! truncation, trailing bytes, non-canonical varints, a protocol body
//! holding no message or more than [`MAX_BUNDLE`], proof chains
//! longer than [`spotless_crypto::MAX_PROOF_DEPTH`], and list lengths
//! no legal frame could hold are all `None` — the caller drops the
//! frame. The exact byte layout is pinned by golden-vector tests below
//! and in the facade suite (`tests/wire_format.rs`).
//!
//! Signatures come from the cluster [`KeyStore`] — real Ed25519 (RFC
//! 8032) over the payload's SHA-256 signing digest
//! (`spotless_crypto::signing::signing_digest`), not the payload bytes,
//! since wire revision 7. Rejection is typed: [`verify`] returns the
//! [`spotless_crypto::VerifyError`] naming *why* a frame failed (unknown
//! signer, malformed point, bad signature, …) so transports can log
//! attributable drops instead of a bare `false`.
//!
//! [`verify`]: Envelope::verify

use serde::bin::{self, Reader};
use serde::{Deserialize, Serialize};
use spotless_crypto::{KeyStore, ProofStep, Signature};
use spotless_ledger::Block;
use spotless_types::{BatchId, Digest, ReplicaId};
use std::sync::Arc;

/// Leading byte of every payload: binary codec, wire revision 7.
/// Chosen outside the tag range so v1 payloads (which started with their
/// tag byte) and later payloads can never be confused — either side
/// drops the other's frames unread. Bump on any layout change;
/// mixed-version clusters then fail closed instead of misinterpreting
/// each other.
///
/// Revision 7 changed no layout: every Ed25519 signature — the
/// envelope's, each vote's, each certificate signer's — now covers the
/// SHA-256 signing digest of its bytes, not the bytes themselves
/// (`spotless_crypto::signing::signing_digest`), so a revision-6 peer's
/// signatures would all fail to verify here and ours there.
///
/// Revision 6 lets a protocol payload carry up to [`MAX_BUNDLE`]
/// messages back to back under one signature. A one-message payload is
/// byte-identical to revision 5's apart from this byte, but a revision-5
/// peer would drop every longer one as trailing bytes, so the two must
/// not share a cluster.
///
/// Revision 5 changed no layout: the bucket leaf chunk proofs start from
/// became the digest of the bucket's per-record digests (state-root
/// definition v2), so a revision-4 peer's chunks and sealed roots would
/// all fail verification.
pub const WIRE_VERSION: u8 = 0xB7;

/// Most protocol messages one payload carries. Bounds the delivery
/// burst a single envelope can cause and the work one bad message
/// throws away (a payload with one undecodable message is dropped
/// whole). Sixteen leaves headroom over the runs of one fan-out the
/// event loop emits between two flushes on a loaded replica: 3.0–3.7
/// messages an envelope in the `deploy_runtime` bench (2 vCPUs).
pub const MAX_BUNDLE: usize = 16;

// The fail-closed argument above requires the version byte to be
// unmistakable for any tag of the previous (tag-first) generation.
const _: () = assert!(WIRE_VERSION > TAG_CATCHUP_CHUNK);

/// Tag byte: protocol message.
pub const TAG_PROTOCOL: u8 = 0;
/// Tag byte: catch-up request.
pub const TAG_CATCHUP_REQ: u8 = 1;
/// Tag byte: catch-up response.
pub const TAG_CATCHUP_RESP: u8 = 2;
/// Tag byte: chunked state-transfer manifest (catch-up from pruned
/// history).
pub const TAG_CATCHUP_MANIFEST: u8 = 3;
/// Tag byte: ranged chunk fetch request.
pub const TAG_CATCHUP_CHUNK_REQ: u8 = 4;
/// Tag byte: one state chunk with its inclusion proofs.
pub const TAG_CATCHUP_CHUNK: u8 = 5;

/// Free inbound frame buffers retained per connection (bounds the
/// memory an idle pool pins; beyond this, returned buffers are freed).
const BUFFER_POOL_MAX: usize = 32;

/// A recycling pool for inbound frame buffers. A transport takes a
/// buffer per frame, reads the frame into it, and hands it to
/// [`Payload::pooled`]; when the last [`Payload`] viewing the buffer
/// drops — after verification, decode, and any pipeline hand-off — the
/// buffer returns here instead of being freed. Steady-state ingress
/// then allocates nothing per frame *and* copies nothing: the payload
/// is a refcounted view into the receive buffer itself.
#[derive(Clone, Debug, Default)]
pub struct BufferPool {
    free: Arc<std::sync::Mutex<Vec<Vec<u8>>>>,
}

impl BufferPool {
    /// A free buffer (capacity from an earlier frame), or a fresh one.
    pub fn take(&self) -> Vec<u8> {
        match self.free.lock() {
            Ok(mut free) => free.pop().unwrap_or_default(),
            Err(_) => Vec::new(),
        }
    }

    /// Returns a buffer to the pool (cleared; dropped if the pool is
    /// full). Called automatically when the last pooled [`Payload`]
    /// view drops; callers use it directly only on error paths where a
    /// taken buffer never became a payload.
    pub fn put(&self, mut buf: Vec<u8>) {
        buf.clear();
        if let Ok(mut free) = self.free.lock() {
            if free.len() < BUFFER_POOL_MAX {
                free.push(buf);
            }
        }
    }
}

/// The backing storage of a [`Payload`]: the raw buffer plus the pool
/// it returns to (if any) when the last view drops.
#[derive(Debug)]
struct PayloadBuf {
    bytes: Vec<u8>,
    pool: Option<BufferPool>,
}

impl Drop for PayloadBuf {
    fn drop(&mut self) {
        if let Some(pool) = &self.pool {
            pool.put(std::mem::take(&mut self.bytes));
        }
    }
}

/// Refcounted view of a payload's bytes — a range of a shared buffer.
/// Cloning clones the `Arc`, never the bytes, so one received frame can
/// flow through signature verification, tag routing, and the pipeline
/// without a single copy. Dereferences to the payload byte slice.
#[derive(Clone, Debug)]
pub struct Payload {
    buf: Arc<PayloadBuf>,
    start: usize,
    end: usize,
}

impl Payload {
    /// A payload owning exactly `bytes` (no pool; frees on last drop).
    pub fn new(bytes: Vec<u8>) -> Payload {
        let end = bytes.len();
        Payload {
            buf: Arc::new(PayloadBuf { bytes, pool: None }),
            start: 0,
            end,
        }
    }

    /// A payload viewing `buf[start..end]` — typically the payload
    /// field of a frame read into `buf` — that recycles `buf` into
    /// `pool` when the last clone drops.
    ///
    /// # Panics
    /// If `start..end` is not a valid range of `buf`.
    pub fn pooled(buf: Vec<u8>, pool: &BufferPool, start: usize, end: usize) -> Payload {
        assert!(
            start <= end && end <= buf.len(),
            "payload range out of buffer"
        );
        Payload {
            buf: Arc::new(PayloadBuf {
                bytes: buf,
                pool: Some(pool.clone()),
            }),
            start,
            end,
        }
    }

    /// The payload bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf.bytes[self.start..self.end]
    }
}

impl std::ops::Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Payload {}

/// A signed, shareable wire frame. Cloning an envelope clones the
/// payload's `Arc`, not its bytes.
#[derive(Clone, Debug)]
pub struct Envelope {
    /// The sending replica.
    pub from: ReplicaId,
    /// Tagged payload bytes, serialized exactly once.
    pub payload: Payload,
    /// Signature over `payload` by `from`.
    pub sig: Signature,
}

impl Envelope {
    /// Serializes-and-signs `payload` as an envelope from `keystore.me()`.
    pub fn seal(keystore: &KeyStore, payload: Vec<u8>) -> Envelope {
        let sig = keystore.sign(&payload);
        Envelope {
            from: keystore.me(),
            payload: Payload::new(payload),
            sig,
        }
    }

    /// Signs an already-wrapped [`Payload`] — the zero-copy seal used
    /// by the egress stage: the payload bytes (typically the pooled
    /// bundle buffer the event loop encoded into) are signed and moved
    /// into the envelope without copying.
    pub fn seal_payload(keystore: &KeyStore, payload: Payload) -> Envelope {
        let sig = keystore.sign(&payload);
        Envelope {
            from: keystore.me(),
            payload,
            sig,
        }
    }

    /// Verifies the signature against the claimed sender, reporting
    /// *why* verification failed so the transport can attribute the
    /// drop (unknown signer vs. forged signature vs. malformed frame).
    pub fn verify(&self, keystore: &KeyStore) -> Result<(), spotless_crypto::VerifyError> {
        keystore.verify(self.from, &self.payload, &self.sig)
    }
}

/// One block of a catch-up response: the ledger block plus the batch
/// payload needed to re-execute it.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CatchUpBlock {
    /// The hash-chained ledger block.
    pub block: Block,
    /// Serialized transactions of the batch the block commits (empty
    /// for simulation-style batches that carry no payload).
    pub payload: Vec<u8>,
}

/// Descriptor of one chunk in a [`TransferManifest`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkInfo {
    /// First bucket index the chunk covers.
    pub first_bucket: u32,
    /// Number of consecutive buckets in the chunk.
    pub buckets: u32,
    /// Fragment index within an oversized bucket's series (0 for whole
    /// chunks). A bucket too large for one frame is split into
    /// `parts` consecutive fragments of the same single bucket.
    pub part: u32,
    /// Total fragments in the series (1 for whole chunks).
    pub parts: u32,
    /// Content address: digest of the chunk's canonical encoding. Lets
    /// the receiver journal chunks by name and detect substitution.
    pub digest: Digest,
}

/// The manifest opening a chunked snapshot state transfer.
///
/// Trust model: everything here is checked against the **head block**
/// before a single chunk is fetched — the block's hash recomputes, its
/// commit certificate passes quorum verification, and `app_meta` (the
/// store's rolling digest and counters) carries a Merkle inclusion
/// proof against the block's `state_root`. Each chunk then proves its
/// buckets against the same root on arrival, so a serving peer cannot
/// pair a given certified head with state that differs from what that
/// head sealed: the first mismatching byte fails its proof and the
/// transfer rotates to another peer.
///
/// The head block's authenticity rests on its commit certificate, and
/// certificates carry one Ed25519 signature per signer over the vote
/// statement `(instance, view, slot, voted)`; the receiver re-verifies
/// every one against the cluster's public keys before trusting the
/// head. Fabricating a head-plus-state pair therefore requires forging
/// a weak quorum of Ed25519 signatures: state roots bind *state to
/// chain*, and the certificate's signatures bind *chain to cluster*.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransferManifest {
    /// Ledger height the snapshot covers (number of executed blocks).
    pub height: u64,
    /// The responder's ledger height when it served the request (the
    /// requester keeps pulling blocks above the snapshot from here).
    pub peer_height: u64,
    /// The block at `height − 1`, carrying the head's commit
    /// certificate and the `state_root` every chunk verifies against.
    pub head: Block,
    /// Ids of the most recently committed batches the snapshot covers
    /// (bounded window; seeds the receiver's re-commit dedup filter so
    /// a rejoining protocol instance cannot re-execute them).
    #[serde(max_len = MAX_TRANSFER_ITEMS)]
    pub recent_ids: Vec<BatchId>,
    /// The application meta bytes (KV meta-leaf encoding).
    pub app_meta: Vec<u8>,
    /// Inclusion proof of `app_meta` at the meta leaf of the state tree.
    pub meta_proof: Vec<ProofStep>,
    /// The chunk plan, in order. Ranges must partition the bucket space.
    #[serde(max_len = MAX_TRANSFER_ITEMS)]
    pub chunks: Vec<ChunkInfo>,
}

/// One chunk answering a [`TAG_CATCHUP_CHUNK_REQ`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkTransfer {
    /// The transfer's target height (matches the manifest).
    pub height: u64,
    /// Index into the manifest's chunk list.
    pub index: u32,
    /// The chunk's canonical encoding (`StateChunk::encode`).
    pub chunk: Vec<u8>,
    /// Per-bucket inclusion proofs into the owning *shard's* sub-tree,
    /// in bucket order within the chunk. Empty for fragment chunks
    /// (fragments are content-digest addressed; the assembled bucket is
    /// audited against the root at install).
    #[serde(max_len = MAX_TRANSFER_ITEMS)]
    pub proofs: Vec<Vec<ProofStep>>,
    /// Inclusion proof of the owning shard's sub-root in the top tree
    /// (one per chunk — a chunk never crosses a shard boundary).
    pub top_proof: Vec<ProofStep>,
}

/// Everything a replica can receive inside an [`Envelope`]. `P` is the
/// form of the protocol body: [`decode`] parses it into its messages
/// (`Vec<M>`), [`decode_ref`] hands it back still encoded
/// ([`WireMsgRef`]). The transfer variants are the same owned values
/// either way, built by the one reader both decoders share.
#[derive(Debug, PartialEq, Eq)]
pub enum WireMsg<P> {
    /// One to [`MAX_BUNDLE`] consensus protocol messages, in the order
    /// the sender emitted them.
    Protocol(P),
    /// "Send me your executed blocks from `from_height` up."
    CatchUpReq {
        /// First height the requester is missing (execution-wise).
        from_height: u64,
    },
    /// A slice of the responder's executed chain.
    CatchUpResp {
        /// The responder's ledger height when it served the request.
        peer_height: u64,
        /// Contiguous blocks starting at the requested height (empty if
        /// the responder cannot serve that range).
        blocks: Vec<CatchUpBlock>,
    },
    /// The responder pruned the requested range: a chunked state
    /// transfer begins with its manifest (boxed: the variant dwarfs the
    /// others).
    Manifest(Box<TransferManifest>),
    /// "Send me chunk `index` of the transfer at `height`."
    ChunkReq {
        /// The transfer's target height.
        height: u64,
        /// Index into the manifest's chunk list.
        index: u32,
    },
    /// One verified-fetchable state chunk.
    Chunk(Box<ChunkTransfer>),
}

/// A [`WireMsg`] whose protocol body is the raw bytes after the tag, so
/// the caller chooses when, and with which message type, to parse it
/// ([`decode_protocol_bundle`], or [`decode_protocol_body`] for a
/// payload known to hold one message). The transfer variants never
/// mention the protocol type, so the pipeline decodes them without
/// knowing it.
pub type WireMsgRef<'a> = WireMsg<&'a [u8]>;

impl<P> WireMsg<P> {
    /// Parses the protocol body with `parse`; every other variant moves
    /// across unchanged. `None` iff `parse` returns `None`.
    pub fn try_map_protocol<Q>(self, parse: impl FnOnce(P) -> Option<Q>) -> Option<WireMsg<Q>> {
        Some(match self {
            WireMsg::Protocol(body) => WireMsg::Protocol(parse(body)?),
            WireMsg::CatchUpReq { from_height } => WireMsg::CatchUpReq { from_height },
            WireMsg::CatchUpResp {
                peer_height,
                blocks,
            } => WireMsg::CatchUpResp {
                peer_height,
                blocks,
            },
            WireMsg::Manifest(m) => WireMsg::Manifest(m),
            WireMsg::ChunkReq { height, index } => WireMsg::ChunkReq { height, index },
            WireMsg::Chunk(c) => WireMsg::Chunk(c),
        })
    }
}

/// A `tag` payload: the version byte, the tag byte, then `body`'s
/// derived encoding.
fn encode_body<B: Serialize + ?Sized>(tag: u8, body: &B) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    out.push(WIRE_VERSION);
    out.push(tag);
    body.ser_bin(&mut out);
    out
}

/// Encodes a one-message protocol payload.
pub fn encode_protocol<M: Serialize>(msg: &M) -> Vec<u8> {
    encode_body(TAG_PROTOCOL, msg)
}

/// Like [`encode_protocol`], but reusing `buf`'s allocation (cleared
/// first).
pub fn encode_protocol_into<M: Serialize>(msg: &M, buf: Vec<u8>) -> Vec<u8> {
    let mut buf = open_protocol(buf);
    push_protocol(&mut buf, msg);
    buf
}

/// Starts a protocol payload in `buf` (cleared first): the header its
/// messages follow back to back ([`push_protocol`]). The event loop's
/// outbox opens every bundle this way, in a [`BufferPool`] buffer.
pub(crate) fn open_protocol(mut buf: Vec<u8>) -> Vec<u8> {
    buf.clear();
    buf.push(WIRE_VERSION);
    buf.push(TAG_PROTOCOL);
    buf
}

/// Appends `msg` to the protocol payload `bundle`: a bundle is its
/// messages' encodings back to back behind one header. The caller keeps
/// the count within [`MAX_BUNDLE`].
pub(crate) fn push_protocol<M: Serialize>(bundle: &mut Vec<u8>, msg: &M) {
    debug_assert_eq!(payload_tag(bundle), Some(TAG_PROTOCOL));
    msg.ser_bin(bundle);
}

/// Encodes a catch-up request payload.
pub fn encode_catchup_req(from_height: u64) -> Vec<u8> {
    encode_body(TAG_CATCHUP_REQ, &from_height)
}

/// Encodes a catch-up response payload: the `(peer_height, blocks)`
/// pair, written straight from the slice.
pub fn encode_catchup_resp(peer_height: u64, blocks: &[CatchUpBlock]) -> Vec<u8> {
    encode_body(TAG_CATCHUP_RESP, &(peer_height, blocks))
}

/// Encodes a state-transfer manifest payload.
pub fn encode_catchup_manifest(m: &TransferManifest) -> Vec<u8> {
    encode_body(TAG_CATCHUP_MANIFEST, m)
}

/// Encodes a chunk fetch request payload.
pub fn encode_chunk_req(height: u64, index: u32) -> Vec<u8> {
    encode_body(TAG_CATCHUP_CHUNK_REQ, &(height, index))
}

/// Encodes a chunk transfer payload.
pub fn encode_chunk(c: &ChunkTransfer) -> Vec<u8> {
    encode_body(TAG_CATCHUP_CHUNK, c)
}

/// Bound on every list in a transfer body — `recent_ids`, `chunks`,
/// `proofs` and the catch-up `blocks` — checked at its length prefix,
/// before the list is reserved: a larger count is a malformed frame, not
/// data. The codec bounds a count only by the input left, at one byte an
/// element, and some of these elements do encode in one byte yet take
/// more in memory: an 8 MiB frame of eight million empty proofs (24
/// bytes each as a `Vec`) would decode into a 192 MiB list.
pub const MAX_TRANSFER_ITEMS: usize = 1 << 20;

/// The catch-up response body: [`WireMsg::CatchUpResp`]'s fields as one
/// derived type, which [`encode_catchup_resp`] writes from a slice.
#[derive(Deserialize)]
struct CatchUpResp {
    peer_height: u64,
    #[serde(max_len = MAX_TRANSFER_ITEMS)]
    blocks: Vec<CatchUpBlock>,
}

/// Decodes a tagged payload, parsing a protocol body into `M`s: the
/// header and transfer bodies are [`decode_ref`]'s, and the protocol
/// body is read here, message by message, by a loop of its own — the
/// oracle the equivalence tests hold [`decode_protocol_bundle`] to.
/// `None` on any structural defect — wrong [`WIRE_VERSION`], unknown
/// tag, truncation, trailing bytes, a bundle of no message or more
/// than [`MAX_BUNDLE`] — the caller drops malformed traffic (the
/// sender is faulty, on an incompatible wire format, or the bytes are
/// corrupt; either way there is nothing to do with them).
pub fn decode<M: Deserialize>(payload: &[u8]) -> Option<WireMsg<Vec<M>>> {
    decode_ref(payload)?.try_map_protocol(|body| {
        let mut r = Reader::new(body);
        let mut msgs = Vec::new();
        while !r.is_empty() && msgs.len() < MAX_BUNDLE {
            msgs.push(M::de_bin(&mut r).ok()?);
        }
        // No message at all, or bytes past the last one: malformed.
        (!msgs.is_empty() && r.is_empty()).then_some(msgs)
    })
}

/// Cheapest possible classification of a sealed payload: its tag byte,
/// iff the version byte matches and the tag is known. The ingress task
/// routes on this — protocol bodies parse there (their votes are
/// verified in the same batch as the envelope), transfer bodies ship
/// through the event loop to the pipeline still encoded and parse there
/// via [`decode_ref`].
pub fn payload_tag(payload: &[u8]) -> Option<u8> {
    match payload {
        [WIRE_VERSION, tag, ..] if *tag <= TAG_CATCHUP_CHUNK => Some(*tag),
        _ => None,
    }
}

/// Parses a protocol body returned by [`WireMsg::Protocol`] that
/// holds exactly one message (requires full consumption, like
/// [`decode`]).
pub fn decode_protocol_body<M: Deserialize>(body: &[u8]) -> Option<M> {
    bin::from_slice(body).ok()
}

/// Parses a protocol body returned by [`WireMsg::Protocol`] into its
/// messages, in payload order. Accepts exactly the bodies [`decode`]
/// accepts: one to [`MAX_BUNDLE`] messages that consume the body
/// completely. Anything else is `None` — a payload is taken or dropped
/// whole. The ingress task reads every protocol payload through this.
pub fn decode_protocol_bundle<M: Deserialize>(body: &[u8]) -> Option<Vec<M>> {
    let mut r = Reader::new(body);
    let mut msgs = Vec::with_capacity(4);
    loop {
        msgs.push(M::de_bin(&mut r).ok()?);
        if r.is_empty() {
            return Some(msgs);
        }
        if msgs.len() == MAX_BUNDLE {
            return None;
        }
    }
}

/// The one reader of payload headers and transfer bodies. Checks the
/// version byte and the tag; hands a protocol body back undecoded (its
/// caller's parse enforces full consumption); decodes a transfer body
/// into the owned types its encoder takes, with the types' derived
/// decoders: every list bounded at [`MAX_TRANSFER_ITEMS`] and every
/// proof at [`spotless_crypto::MAX_PROOF_DEPTH`] steps before it is
/// reserved, and u32 fields out of range, proof direction bytes other
/// than 0 and 1, and trailing bytes rejected. The pipeline reads every
/// transfer message through this, and moves the decoded bytes into
/// storage.
pub fn decode_ref(payload: &[u8]) -> Option<WireMsgRef<'_>> {
    let [WIRE_VERSION, tag, body @ ..] = payload else {
        return None; // truncated, or another format generation: fail closed
    };
    Some(match *tag {
        TAG_PROTOCOL => WireMsg::Protocol(body),
        TAG_CATCHUP_REQ => WireMsg::CatchUpReq {
            from_height: bin::from_slice(body).ok()?,
        },
        TAG_CATCHUP_RESP => {
            let CatchUpResp {
                peer_height,
                blocks,
            } = bin::from_slice(body).ok()?;
            WireMsg::CatchUpResp {
                peer_height,
                blocks,
            }
        }
        TAG_CATCHUP_MANIFEST => WireMsg::Manifest(bin::from_slice(body).ok()?),
        TAG_CATCHUP_CHUNK_REQ => {
            let (height, index) = bin::from_slice(body).ok()?;
            WireMsg::ChunkReq { height, index }
        }
        TAG_CATCHUP_CHUNK => WireMsg::Chunk(bin::from_slice(body).ok()?),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotless_core::{Message, ProposalRef, SyncMsg, CP_CAP};
    use spotless_crypto::MAX_PROOF_DEPTH;
    use spotless_ledger::CommitProof;
    use spotless_types::{BatchId, Digest, InstanceId, View};

    fn sample_block(height: u64) -> Block {
        let mut ledger = spotless_ledger::Ledger::new();
        for i in 0..=height {
            ledger.append(
                BatchId(i),
                Digest::from_u64(i),
                10,
                Digest::from_u64(i * 7 + 3),
                CommitProof {
                    instance: InstanceId(0),
                    view: View(i),
                    phase: spotless_types::CertPhase::Strong,
                    voted: Digest::from_u64(i),
                    slot: 0,
                    signers: vec![ReplicaId(0), ReplicaId(1), ReplicaId(2)],
                    sigs: vec![spotless_types::Signature::ZERO; 3],
                },
            );
        }
        ledger.block(height).unwrap().clone()
    }

    #[test]
    fn seal_verify_roundtrip_and_tamper_rejection() {
        let stores = KeyStore::cluster(b"envelope-test", 4);
        let env = Envelope::seal(&stores[2], encode_catchup_req(7));
        assert_eq!(env.from, ReplicaId(2));
        assert!(env.verify(&stores[0]).is_ok());
        let mut forged = env.clone();
        forged.from = ReplicaId(1);
        assert!(forged.verify(&stores[0]).is_err());
    }

    #[test]
    fn catchup_req_roundtrips() {
        let enc = encode_catchup_req(42);
        match decode::<u64>(&enc) {
            Some(WireMsg::CatchUpReq { from_height: 42 }) => {}
            _ => panic!("wrong decode"),
        }
    }

    #[test]
    fn catchup_resp_roundtrips() {
        let blocks = vec![
            CatchUpBlock {
                block: sample_block(0),
                payload: b"txns-0".to_vec(),
            },
            CatchUpBlock {
                block: sample_block(1),
                payload: Vec::new(),
            },
        ];
        let enc = encode_catchup_resp(9, &blocks);
        match decode::<u64>(&enc) {
            Some(WireMsg::CatchUpResp {
                peer_height,
                blocks: got,
            }) => {
                assert_eq!(peer_height, 9);
                assert_eq!(got, blocks);
            }
            _ => panic!("wrong decode"),
        }
    }

    fn sample_manifest() -> TransferManifest {
        TransferManifest {
            height: 5,
            peer_height: 9,
            head: sample_block(4),
            recent_ids: vec![BatchId(2), BatchId(3), BatchId(4)],
            app_meta: b"meta-bytes".to_vec(),
            meta_proof: vec![
                ProofStep {
                    sibling: Digest::from_u64(1),
                    sibling_on_right: true,
                },
                ProofStep {
                    sibling: Digest::from_u64(2),
                    sibling_on_right: false,
                },
            ],
            chunks: vec![
                ChunkInfo {
                    first_bucket: 0,
                    buckets: 512,
                    part: 0,
                    parts: 1,
                    digest: Digest::from_u64(100),
                },
                ChunkInfo {
                    first_bucket: 512,
                    buckets: 1,
                    part: 1,
                    parts: 3,
                    digest: Digest::from_u64(101),
                },
            ],
        }
    }

    #[test]
    fn manifest_roundtrips() {
        let m = sample_manifest();
        let enc = encode_catchup_manifest(&m);
        match decode::<u64>(&enc) {
            Some(WireMsg::Manifest(got)) => assert_eq!(*got, m),
            _ => panic!("wrong decode"),
        }
        // Truncation fails closed.
        assert!(decode::<u64>(&enc[..enc.len() - 1]).is_none());
        let mut trailing = enc;
        trailing.push(0);
        assert!(decode::<u64>(&trailing).is_none());
    }

    #[test]
    fn chunk_req_and_chunk_roundtrip() {
        let enc = encode_chunk_req(7, 3);
        match decode::<u64>(&enc) {
            Some(WireMsg::ChunkReq {
                height: 7,
                index: 3,
            }) => {}
            _ => panic!("wrong decode"),
        }
        let c = ChunkTransfer {
            height: 7,
            index: 3,
            chunk: b"canonical-chunk-bytes".to_vec(),
            proofs: vec![
                vec![ProofStep {
                    sibling: Digest::from_u64(9),
                    sibling_on_right: false,
                }],
                vec![],
            ],
            top_proof: vec![ProofStep {
                sibling: Digest::from_u64(11),
                sibling_on_right: true,
            }],
        };
        let enc = encode_chunk(&c);
        match decode::<u64>(&enc) {
            Some(WireMsg::Chunk(got)) => assert_eq!(*got, c),
            _ => panic!("wrong decode"),
        }
        assert!(decode::<u64>(&enc[..enc.len() - 1]).is_none());
    }

    /// `k` one-byte `u64` messages `0..k` as one protocol payload.
    fn bundle(k: u64) -> Vec<u8> {
        let mut enc = open_protocol(Vec::new());
        for m in 0..k {
            push_protocol(&mut enc, &m);
        }
        enc
    }

    #[test]
    fn bundles_decode_in_order_up_to_max_bundle() {
        for k in 1..=MAX_BUNDLE as u64 {
            let enc = bundle(k);
            let want: Vec<u64> = (0..k).collect();
            match decode::<u64>(&enc) {
                Some(WireMsg::Protocol(msgs)) => assert_eq!(msgs, want),
                _ => panic!("a {k}-message bundle must decode"),
            }
            let Some(WireMsgRef::Protocol(body)) = decode_ref(&enc) else {
                panic!("wrong decode_ref variant");
            };
            assert_eq!(decode_protocol_bundle::<u64>(body), Some(want));
            assert_eq!(decode_protocol_body::<u64>(body).is_some(), k == 1);
        }
        // One message too many, or none at all: dropped whole.
        let over = bundle(MAX_BUNDLE as u64 + 1);
        assert!(decode::<u64>(&over).is_none());
        assert!(decode_protocol_bundle::<u64>(&over[2..]).is_none());
        assert!(decode::<u64>(&[WIRE_VERSION, TAG_PROTOCOL]).is_none());
        assert!(decode_protocol_bundle::<u64>(&[]).is_none());
        // A bad message anywhere spoils the bundle, and a byte that
        // starts no message spoils a one-message body too.
        for k in [1, 3] {
            let mut bad = bundle(k);
            bad.push(0x80); // an unterminated varint
            assert!(decode::<u64>(&bad).is_none());
            let Some(WireMsgRef::Protocol(body)) = decode_ref(&bad) else {
                panic!("wrong decode_ref variant");
            };
            assert!(decode_protocol_bundle::<u64>(body).is_none());
            assert!(decode_protocol_body::<u64>(body).is_none());
        }
    }

    /// A chunk with two bucket proofs and a top proof.
    fn sample_chunk() -> ChunkTransfer {
        let step = |n| ProofStep {
            sibling: Digest::from_u64(n),
            sibling_on_right: n % 2 == 0,
        };
        ChunkTransfer {
            height: 1,
            index: 0,
            chunk: b"chunk".to_vec(),
            proofs: vec![vec![step(1), step(2)], vec![step(3)]],
            top_proof: vec![step(4)],
        }
    }

    /// `enc` with its one-byte varint at `at` replaced by `value`'s.
    fn with_varint(enc: &[u8], at: usize, value: u64) -> Vec<u8> {
        assert!(enc[at] < 0x80, "a one-byte varint");
        let mut out = enc[..at].to_vec();
        bin::write_varint(value, &mut out);
        out.extend_from_slice(&enc[at + 1..]);
        out
    }

    #[test]
    fn malformed_payloads_decode_to_none() {
        // Every row fails both decoders (`decode` reads through
        // `decode_ref`, so this also pins that neither panics).
        let rejected = |bytes: &[u8]| decode::<u64>(bytes).is_none() && decode_ref(bytes).is_none();
        assert!(rejected(&[]));
        assert!(rejected(&[WIRE_VERSION]), "version only");
        assert!(rejected(&[WIRE_VERSION, 9, 1, 2]), "unknown tag");
        assert!(rejected(&[WIRE_VERSION, TAG_CATCHUP_REQ]), "missing body");
        assert!(
            rejected(&[WIRE_VERSION, TAG_CATCHUP_CHUNK_REQ, 1]),
            "short chunk req"
        );
        let mut resp = encode_catchup_resp(3, &[]);
        resp.push(0);
        assert!(rejected(&resp), "trailing bytes");
        // A proof step with an out-of-range direction byte is rejected.
        let c = ChunkTransfer {
            height: 1,
            index: 0,
            chunk: Vec::new(),
            proofs: vec![],
            top_proof: vec![ProofStep {
                sibling: Digest::from_u64(1),
                sibling_on_right: true,
            }],
        };
        let mut enc = encode_chunk(&c);
        let last = enc.len() - 1;
        enc[last] = 7; // the direction byte of the last step
        assert!(rejected(&enc), "bad direction byte");

        // Every strict prefix of every transfer shape.
        let shapes = [
            encode_catchup_req(300),
            encode_catchup_resp(
                9,
                &[
                    CatchUpBlock {
                        block: sample_block(0),
                        payload: b"txns-0".to_vec(),
                    },
                    CatchUpBlock {
                        block: sample_block(1),
                        payload: b"txns-1".to_vec(),
                    },
                ],
            ),
            encode_catchup_manifest(&sample_manifest()),
            encode_chunk_req(7, 3),
            encode_chunk(&sample_chunk()),
        ];
        for enc in &shapes {
            assert!(decode_ref(enc).is_some());
            for cut in 0..enc.len() {
                assert!(rejected(&enc[..cut]), "tag {} cut at {cut}", enc[1]);
            }
        }

        // A list one longer than MAX_TRANSFER_ITEMS, in an otherwise
        // well-formed payload with a byte of input per element (all
        // that `Reader::len` asks), next to the same list at the bound.
        for (items, ok) in [(MAX_TRANSFER_ITEMS, true), (MAX_TRANSFER_ITEMS + 1, false)] {
            let m = TransferManifest {
                recent_ids: vec![BatchId(0); items],
                ..sample_manifest()
            };
            let c = ChunkTransfer {
                proofs: vec![Vec::new(); items],
                ..sample_chunk()
            };
            for enc in [encode_catchup_manifest(&m), encode_chunk(&c)] {
                assert_eq!(!rejected(&enc), ok, "tag {} with {items} items", enc[1]);
            }
        }

        // A SpotLess `Sync` whose `cp` and `cp_sigs` hold CP_CAP
        // entries, and one with one more each.
        for (items, ok) in [(CP_CAP, true), (CP_CAP + 1, false)] {
            let entry = ProposalRef {
                view: View(3),
                digest: Digest::from_u64(3),
            };
            let sync = Message::Sync(SyncMsg {
                instance: InstanceId(0),
                view: View(4),
                claim: None,
                cp: vec![entry; items],
                upsilon: false,
                claim_sig: Signature::ZERO,
                cp_sigs: vec![Signature::ZERO; items],
            });
            let enc = encode_protocol(&sync);
            assert_eq!(decode::<Message>(&enc).is_some(), ok, "{items} CP entries");
            assert_eq!(
                decode_protocol_bundle::<Message>(&enc[2..]).is_some(),
                ok,
                "{items} CP entries"
            );
        }

        // A chunk index one past u32::MAX, in a request and in a chunk
        // (the index is the varint after the tag and a one-byte height).
        let req = encode_chunk_req(7, 0);
        let chunk = encode_chunk(&sample_chunk());
        for enc in [&req, &chunk] {
            assert!(!rejected(&with_varint(enc, 3, u64::from(u32::MAX))));
            assert!(rejected(&with_varint(enc, 3, u64::from(u32::MAX) + 1)));
        }
    }

    #[test]
    fn wrong_wire_version_fails_closed() {
        // A valid payload re-badged with any other version byte must
        // be dropped unread — this is the mixed-cluster guard. 0xB5 is
        // revision 5 (one message per protocol payload): a cluster
        // mixing it with ours drops each other's frames instead of
        // reading a bundle as trailing bytes. 0xB6 is revision 6, whose
        // signatures cover the raw bytes rather than their digest.
        for enc in [encode_catchup_req(42), bundle(2)] {
            for bad_version in [0u8, 1, TAG_CATCHUP_RESP, 0xB1, 0xB2, 0xB3, 0xB5, 0xB6, 0xFF] {
                let mut reframed = enc.clone();
                reframed[0] = bad_version;
                assert!(decode::<u64>(&reframed).is_none(), "{bad_version:#x}");
                assert!(decode_ref(&reframed).is_none(), "{bad_version:#x}");
            }
        }
        // (That the version byte sits outside the tag range — so a v1
        // tag-first decoder never matches it either — is a compile-time
        // assertion next to WIRE_VERSION.)
    }

    #[test]
    fn oversized_proof_depth_is_rejected() {
        // MAX_PROOF_DEPTH steps decode; one more is a malformed frame.
        let step = ProofStep {
            sibling: Digest::from_u64(3),
            sibling_on_right: true,
        };
        let ok = ChunkTransfer {
            height: 1,
            index: 0,
            chunk: Vec::new(),
            proofs: vec![vec![step; MAX_PROOF_DEPTH]],
            top_proof: vec![step; 3],
        };
        assert!(decode::<u64>(&encode_chunk(&ok)).is_some());
        let too_deep = ChunkTransfer {
            proofs: vec![vec![step; MAX_PROOF_DEPTH + 1]],
            ..ok.clone()
        };
        assert!(decode::<u64>(&encode_chunk(&too_deep)).is_none());
        // The chunk's top proof and the manifest's meta proof, at the
        // bound and one past it.
        for (depth, accepted) in [(MAX_PROOF_DEPTH, true), (MAX_PROOF_DEPTH + 1, false)] {
            let chunk = ChunkTransfer {
                top_proof: vec![step; depth],
                ..ok.clone()
            };
            let manifest = TransferManifest {
                meta_proof: vec![step; depth],
                ..sample_manifest()
            };
            for enc in [encode_chunk(&chunk), encode_catchup_manifest(&manifest)] {
                assert_eq!(
                    decode::<u64>(&enc).is_some(),
                    accepted,
                    "tag {} with a {depth}-step proof",
                    enc[1]
                );
            }
        }
    }
}
