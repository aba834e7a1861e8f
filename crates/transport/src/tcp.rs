//! TCP fabric: replicas as separate network endpoints exchanging
//! length-prefixed, individually signed frames.
//!
//! Like the in-process module, this is a **fabric only**: it moves
//! [`Envelope`]s between endpoints and nothing else. The protocol,
//! signature checks (real Ed25519, batch-verified by the runtime's
//! ingress stage), execution, and durability all live in
//! `spotless-runtime` — swapping channels for sockets is exactly the
//! freedom the sans-IO design buys.
//!
//! Each endpoint binds a listener and keeps one lazily-dialed outbound
//! connection per peer, owned by a dedicated sender task so the
//! consensus loop never blocks on a dial or a slow socket. Send errors
//! are swallowed after one redial — the protocols' retransmission
//! machinery (Υ, `Ask` retries, client timeouts) owns reliability.
//!
//! One frame path each way: [`write_envelope_frame`] encodes every
//! frame, whatever its size, into the connection's reusable buffer and
//! sends it in one write, and [`read_envelope`] receives it into a
//! pooled buffer the payload then views. The dialed socket — the only
//! one that writes — runs with `TCP_NODELAY`. Without it Nagle holds
//! each small frame until the previous segment is acknowledged. On the
//! benchmark's `tcp-durable-large` workload (2 vCPUs, 25 s, paired
//! against the older transport that wrote frames of 4 KiB and more in
//! three writes) this writer without NODELAY lost all three pairs,
//! −14 to −19 % txn/s and +38 to +46 % p90 latency; with NODELAY the
//! median of ten pairs moved 2.5–4 % on txn/s, latency and CPU/txn,
//! the price of copying large payloads once per peer.
//!
//! Scope: loopback/LAN deployments for demonstrations and tests. A
//! production deployment would add TLS, reconnection with backoff, and
//! peer authentication of the *connection* (frames are already
//! individually signed, so a hijacked connection cannot forge traffic).

use serde::{Deserialize, Serialize};
use spotless_crypto::{Signature, SIGNATURE_LEN};
use spotless_runtime::{
    BufferPool, ClusterClient, CommitLog, Envelope, Fabric, Payload, ReplicaHandle, StorageConfig,
};
use spotless_storage::StorageError;
use spotless_types::{ClusterConfig, Node, ReplicaId};
use std::sync::Arc;

/// The frame limit lives in `spotless-types` (re-exported here for
/// callers of the frame codec): the runtime derives its catch-up and
/// snapshot-chunk budgets from the same constant, so nothing it emits
/// can exceed what [`write_envelope_frame`]/[`read_envelope`] enforce.
pub use spotless_types::SIMPLE_FRAME_LIMIT;

use parking_lot::Mutex;
use tokio::io::{AsyncReadExt as _, AsyncWriteExt as _};
use tokio::net::{TcpListener, TcpStream};
use tokio::sync::mpsc;

/// A signed wire frame, borrowing its variable-length fields.
///
/// The sender encodes a frame straight out of the envelope's
/// refcounted payload into its connection's reusable buffer (one copy,
/// no allocation), and the receiver ([`read_envelope`]) hands the
/// receive buffer itself to the stack as a pooled [`Payload`] view — no
/// payload copy at all, and steady-state ingress reuses the same
/// buffers frame after frame.
///
/// Wire layout (after the 4-byte big-endian length prefix):
/// `varint(from) ‖ varint(len) + payload ‖ varint(64) + sig` — byte
/// identical to what the derived `serde::bin` codec produced for the
/// owning struct this replaces, so mixed-version clusters interoperate.
#[derive(Debug, PartialEq, Eq)]
pub struct FrameRef<'a> {
    /// The sending replica.
    pub from: u32,
    /// Serialized (tagged) runtime payload.
    pub payload: &'a [u8],
    /// Signature over `payload` by `from` (64 bytes).
    pub sig: &'a [u8; SIGNATURE_LEN],
}

/// Encodes `frame` as one length-prefixed wire frame into `out`
/// (cleared first — pass the connection's reusable buffer): the bytes
/// [`write_envelope_frame`] puts on the socket, and the one place the
/// frame layout is written. Fails only when the frame exceeds
/// [`SIMPLE_FRAME_LIMIT`].
pub fn encode_frame(frame: &FrameRef<'_>, out: &mut Vec<u8>) -> Result<(), FrameError> {
    out.clear();
    out.extend_from_slice(&[0u8; 4]); // length prefix, patched below
    serde::bin::write_varint(u64::from(frame.from), out);
    serde::bin::write_len(frame.payload.len(), out);
    out.extend_from_slice(frame.payload);
    serde::bin::write_len(frame.sig.len(), out);
    out.extend_from_slice(frame.sig);
    let len = (out.len() - 4) as u64;
    if len > SIMPLE_FRAME_LIMIT {
        return Err(FrameError::TooLarge(len));
    }
    out[..4].copy_from_slice(&(len as u32).to_be_bytes());
    Ok(())
}

/// Decodes one frame body (length prefix already stripped) into views
/// over `bytes`.
pub fn decode_frame(bytes: &[u8]) -> Result<FrameRef<'_>, FrameError> {
    let mut r = serde::bin::Reader::new(bytes);
    let frame = (|| {
        let from = u32::try_from(r.varint().ok()?).ok()?;
        let payload = r.bytes().ok()?;
        let sig: &[u8; SIGNATURE_LEN] = r.bytes().ok()?.try_into().ok()?;
        r.is_empty().then_some(FrameRef { from, payload, sig })
    })();
    frame.ok_or(FrameError::Malformed)
}

/// Frame codec errors.
#[derive(Debug)]
pub enum FrameError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// Frame exceeded the size limit (DoS guard).
    TooLarge(u64),
    /// Payload failed to parse.
    Malformed,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "socket error: {e}"),
            FrameError::TooLarge(n) => write!(f, "frame of {n} bytes exceeds limit"),
            FrameError::Malformed => write!(f, "malformed frame"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one frame for `env` — the fabric's only frame writer. The
/// frame is encoded ([`encode_frame`]) into `buf`, the connection's
/// reusable write buffer (its capacity persists across frames, so
/// steady-state sends allocate nothing), and leaves in one `write_all`,
/// which the socket's `TCP_NODELAY` sends at once (see the module docs
/// for the ablation). The payload's own leading `WIRE_VERSION` byte
/// versions the whole stack: a peer on another format generation
/// produces frames whose payloads fail that check and are dropped after
/// signature verification.
pub async fn write_envelope_frame(
    stream: &mut TcpStream,
    from: ReplicaId,
    env: &Envelope,
    buf: &mut Vec<u8>,
) -> Result<(), FrameError> {
    let frame = FrameRef {
        from: from.0,
        payload: env.payload.as_slice(),
        sig: &env.sig.0,
    };
    encode_frame(&frame, buf)?;
    stream.write_all(buf).await?;
    Ok(())
}

/// Reads one length-prefixed frame — the fabric's only frame reader —
/// into a buffer taken from `pool` and converts it into an [`Envelope`]
/// **without copying the payload**:
/// the envelope's [`Payload`] is a refcounted view of the frame's
/// payload range inside the receive buffer, and the buffer recycles
/// into `pool` when the last view drops (after verification and
/// decode). This kills the historical payload copy at frame decode —
/// the bytes the socket wrote are the bytes the pipeline reads.
pub async fn read_envelope(
    stream: &mut TcpStream,
    pool: &BufferPool,
) -> Result<Envelope, FrameError> {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf).await?;
    let len = u64::from(u32::from_be_bytes(len_buf));
    if len > SIMPLE_FRAME_LIMIT {
        return Err(FrameError::TooLarge(len));
    }
    let mut buf = pool.take();
    buf.clear();
    buf.resize(len as usize, 0);
    if let Err(e) = stream.read_exact(&mut buf).await {
        pool.put(buf);
        return Err(e.into());
    }
    let (from, sig, start, end) = match decode_frame(&buf) {
        Ok(frame) => {
            // Safe pointer arithmetic locates the payload view within
            // the buffer it was decoded from.
            let base = buf.as_ptr() as usize;
            let start = frame.payload.as_ptr() as usize - base;
            (
                ReplicaId(frame.from),
                Signature(*frame.sig),
                start,
                start + frame.payload.len(),
            )
        }
        Err(e) => {
            pool.put(buf);
            return Err(e);
        }
    };
    Ok(Envelope {
        from,
        payload: Payload::pooled(buf, pool, start, end),
        sig,
    })
}

/// A TCP endpoint's sending half: one queue + sender task per peer, so
/// [`Fabric::send`] is a channel push and never a socket write.
#[derive(Clone)]
pub struct TcpFabric {
    peers: Arc<Vec<mpsc::UnboundedSender<Envelope>>>,
    /// Raised by [`close`](TcpFabric::close); the accept loop exits (and
    /// releases its port) on the next connection.
    closing: Arc<std::sync::atomic::AtomicBool>,
    /// The bound listen address, kept for the self-connect wakeup.
    local_addr: std::net::SocketAddr,
}

impl TcpFabric {
    /// Binds `addr`, spawns the accept loop and per-peer sender tasks,
    /// and returns the fabric plus the inbound envelope stream to hand
    /// to this replica's [`ReplicaRuntime`](spotless_runtime::ReplicaRuntime).
    /// `peer_addrs[i]` is replica
    /// `i`'s listen address (the slot for `me` is used for
    /// send-to-self, which loops over TCP like any other peer).
    pub async fn bind(
        me: ReplicaId,
        addr: &str,
        peer_addrs: Vec<String>,
    ) -> std::io::Result<(TcpFabric, mpsc::UnboundedReceiver<Envelope>)> {
        let listener = TcpListener::bind(addr).await?;
        let local_addr = listener.local_addr()?;
        let closing = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let accept_closing = closing.clone();
        let (inbound_tx, inbound_rx) = mpsc::unbounded_channel();
        tokio::spawn(async move {
            loop {
                let Ok((mut stream, _)) = listener.accept().await else {
                    break;
                };
                // The thread-per-task executor cannot interrupt a
                // blocked `accept`; `close` unblocks it with a
                // self-connection and this flag ends the loop, dropping
                // the listener (and freeing its port) instead of
                // leaking the thread until process exit.
                if accept_closing.load(std::sync::atomic::Ordering::SeqCst) {
                    break;
                }
                let tx = inbound_tx.clone();
                tokio::spawn(async move {
                    // A per-connection buffer pool: each frame's
                    // receive buffer becomes the payload the stack
                    // shares (zero copies) and recycles once the last
                    // view drops — steady-state receive allocates
                    // nothing per frame.
                    let pool = BufferPool::default();
                    loop {
                        let env = match read_envelope(&mut stream, &pool).await {
                            Ok(env) => env,
                            Err(FrameError::Malformed) => continue,
                            Err(_) => break,
                        };
                        if tx.send(env).is_err() {
                            break;
                        }
                    }
                });
            }
        });
        let mut peers = Vec::with_capacity(peer_addrs.len());
        for peer_addr in peer_addrs {
            let (tx, rx) = mpsc::unbounded_channel::<Envelope>();
            peers.push(tx);
            tokio::spawn(peer_sender(me, peer_addr, rx));
        }
        Ok((
            TcpFabric {
                peers: Arc::new(peers),
                closing,
                local_addr,
            },
            inbound_rx,
        ))
    }

    /// Shuts the listener down: raises the closing flag and wakes the
    /// blocked accept with a throwaway self-connection so the accept
    /// loop observes it, drops the listener, and releases the port.
    /// Idempotent, and safe to retry: the wakeup connect is attempted
    /// on every call (a transient connect failure would otherwise leak
    /// the listener with no way to try again); once the listener is
    /// gone the connect just fails fast.
    pub async fn close(&self) {
        self.closing
            .store(true, std::sync::atomic::Ordering::SeqCst);
        let _ = TcpStream::connect(self.local_addr).await;
    }
}

impl Fabric for TcpFabric {
    fn send(&self, to: ReplicaId, env: Envelope) {
        if let Some(tx) = self.peers.get(to.as_usize()) {
            let _ = tx.send(env);
        }
    }
}

/// Dials `addr` for sending. `TCP_NODELAY` is set unconditionally: each
/// frame is one write, and with Nagle on a small frame waits for the
/// previous segment's acknowledgement — the module docs record what
/// that cost.
async fn dial(addr: &str) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr).await?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Drains one peer's outbound queue onto its socket, dialing on demand
/// and redialing once per frame on failure. Each frame is encoded from
/// the envelope's `Arc`-shared payload and signature into a write
/// buffer reused across frames.
async fn peer_sender(me: ReplicaId, addr: String, mut rx: mpsc::UnboundedReceiver<Envelope>) {
    let mut stream: Option<TcpStream> = None;
    let mut buf = Vec::new();
    while let Some(env) = rx.recv().await {
        for _attempt in 0..2 {
            if stream.is_none() {
                stream = dial(&addr).await.ok();
            }
            let Some(s) = stream.as_mut() else {
                break; // peer unreachable: drop, retransmission recovers
            };
            match write_envelope_frame(s, me, &env, &mut buf).await {
                Ok(()) => break,
                Err(_) => stream = None, // redial once
            }
        }
    }
}

/// A cluster of [`ReplicaRuntime`](spotless_runtime::ReplicaRuntime)s
/// deployed over TCP, all in this
/// process for tests/demos (each replica still talks to its peers
/// exclusively through its socket endpoint).
pub struct TcpCluster {
    /// Client handle (submit + await `f + 1` matching informs).
    pub client: ClusterClient,
    /// Observation log of all commits.
    pub commits: CommitLog,
    handles: Arc<Mutex<Vec<ReplicaHandle>>>,
    /// Per-replica fabrics, kept so shutdown can close their listeners.
    fabrics: Vec<TcpFabric>,
}

/// What can go wrong assembling a [`TcpCluster`].
#[derive(Debug)]
pub enum DeployError {
    /// Binding or connecting an endpoint failed.
    Io(std::io::Error),
    /// Opening a replica's durable store failed.
    Storage(StorageError),
}

impl std::fmt::Display for DeployError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeployError::Io(e) => write!(f, "endpoint setup failed: {e}"),
            DeployError::Storage(e) => write!(f, "storage recovery failed: {e}"),
        }
    }
}

impl std::error::Error for DeployError {}

impl From<std::io::Error> for DeployError {
    fn from(e: std::io::Error) -> Self {
        DeployError::Io(e)
    }
}

impl From<StorageError> for DeployError {
    fn from(e: StorageError) -> Self {
        DeployError::Storage(e)
    }
}

impl TcpCluster {
    /// Binds one endpoint per replica at `addrs`, spawns the runtimes
    /// (durable where `storage[i]` is set), and wires up the client.
    /// `make` builds each replica's protocol node — any `Node` works.
    pub async fn spawn_with<N, F>(
        cluster: ClusterConfig,
        addrs: Vec<String>,
        storage: Vec<Option<StorageConfig>>,
        make: F,
    ) -> Result<TcpCluster, DeployError>
    where
        N: Node + Send + 'static,
        N::Message: Serialize + Deserialize + Send + 'static,
        F: FnMut(ReplicaId) -> N,
    {
        let n = cluster.n as usize;
        assert_eq!(addrs.len(), n);
        let mut endpoints = Vec::with_capacity(n);
        for (i, addr) in addrs.iter().enumerate() {
            endpoints.push(TcpFabric::bind(ReplicaId(i as u32), addr, addrs.clone()).await?);
        }
        let fabrics: Vec<TcpFabric> = endpoints.iter().map(|(f, _)| f.clone()).collect();
        let parts = spotless_runtime::assemble(
            cluster,
            b"spotless-tcp-cluster",
            endpoints,
            storage,
            vec![false; n],
            |_| {},
            make,
        )?;
        Ok(TcpCluster {
            client: parts.client,
            commits: parts.commits,
            handles: parts.handles,
            fabrics,
        })
    }

    /// Handle of replica `r`.
    pub fn handle(&self, r: ReplicaId) -> ReplicaHandle {
        self.handles.lock()[r.as_usize()].clone()
    }

    /// Stops all replica tasks, waits until every pipeline has released
    /// its durable store — callers reopen the storage directories right
    /// after shutdown, and a still-live store writing concurrently
    /// would corrupt the log — and then closes every endpoint's
    /// listener ([`TcpFabric::close`]'s self-connect wakeup), so the
    /// accept threads exit and the bound ports are released instead of
    /// leaking until process exit. Panics if a replica does not stop
    /// within ten seconds (a wedged harness, not a recoverable
    /// condition).
    pub async fn shutdown(self) {
        let handles = self.handles.lock().clone();
        for handle in &handles {
            handle.shutdown();
        }
        for handle in &handles {
            crate::inproc::wait_stopped(handle, "its durable store is still live").await;
        }
        for fabric in &self.fabrics {
            fabric.close().await;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotless_core::messages::{Message, SyncMsg};
    use spotless_types::{InstanceId, View};

    fn sync_msg() -> Message {
        Message::Sync(SyncMsg {
            instance: InstanceId(0),
            view: View(3),
            claim: None,
            cp: vec![],
            upsilon: false,
            claim_sig: spotless_types::Signature::ZERO,
            cp_sigs: vec![],
        })
    }

    /// A listener on an ephemeral loopback port and its address.
    async fn loopback() -> (TcpListener, String) {
        let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        (listener, addr)
    }

    #[tokio::test]
    async fn frames_roundtrip_over_loopback() {
        let (listener, addr) = loopback().await;
        let server = tokio::spawn(async move {
            let (mut stream, _) = listener.accept().await.unwrap();
            read_envelope(&mut stream, &BufferPool::default())
                .await
                .unwrap()
        });
        let mut client = dial(&addr).await.unwrap();
        let payload = spotless_runtime::envelope::encode_protocol(&sync_msg());
        let env = Envelope {
            from: ReplicaId(2),
            payload: Payload::new(payload.clone()),
            sig: Signature([9; SIGNATURE_LEN]),
        };
        write_envelope_frame(&mut client, ReplicaId(2), &env, &mut Vec::new())
            .await
            .unwrap();
        let got = server.await.unwrap();
        assert_eq!(got.from, ReplicaId(2));
        assert_eq!(*got.payload, payload);
        assert_eq!(got.sig, Signature([9; SIGNATURE_LEN]));
    }

    #[tokio::test]
    async fn borrowed_frame_codec_matches_the_derived_owning_layout() {
        // The hand-rolled `FrameRef` codec must stay byte-identical to
        // what the derived `serde::bin` codec produces for the
        // equivalent owning struct — the wire format predates it.
        #[derive(Serialize, Deserialize)]
        struct OwnedFrame {
            from: u32,
            payload: Vec<u8>,
            sig: Vec<u8>,
        }
        let payload: Vec<u8> = (0..300).map(|i| i as u8).collect();
        let sig = [7u8; SIGNATURE_LEN];
        let derived = serde::bin::to_vec(&OwnedFrame {
            from: 77,
            payload: payload.clone(),
            sig: sig.to_vec(),
        });
        let mut ours = Vec::new();
        encode_frame(
            &FrameRef {
                from: 77,
                payload: &payload,
                sig: &sig,
            },
            &mut ours,
        )
        .unwrap();
        assert_eq!(&ours[4..], &derived[..], "body must match the derive");
        let back = decode_frame(&ours[4..]).unwrap();
        assert_eq!(back.from, 77);
        assert_eq!(back.payload, &payload[..]);
        assert_eq!(back.sig, &sig);
        // Trailing bytes fail closed, like every decoder in the stack.
        let mut padded = ours[4..].to_vec();
        padded.push(0);
        assert!(matches!(decode_frame(&padded), Err(FrameError::Malformed)));
    }

    #[tokio::test]
    async fn the_one_writer_emits_encode_frames_bytes_at_every_size() {
        // Empty, small, either side of the old 4 KiB writer split, and
        // a large odd size: the one writer puts exactly `encode_frame`'s
        // bytes on the wire.
        let keystores = spotless_crypto::KeyStore::cluster(b"tcp-size-sweep", 2);
        for payload_len in [0, 300, 4095, 4096, (256 << 10) + 17] {
            let payload: Vec<u8> = (0..payload_len).map(|i| (i * 31) as u8).collect();
            let env = Envelope::seal(&keystores[0], payload.clone());
            let mut expected = Vec::new();
            encode_frame(
                &FrameRef {
                    from: 0,
                    payload: &payload,
                    sig: &env.sig.0,
                },
                &mut expected,
            )
            .unwrap();

            let (listener, addr) = loopback().await;
            let want = expected.len();
            let server = tokio::spawn(async move {
                let (mut stream, _) = listener.accept().await.unwrap();
                let mut got = vec![0u8; want];
                stream.read_exact(&mut got).await.unwrap();
                got
            });
            let mut client = dial(&addr).await.unwrap();
            write_envelope_frame(&mut client, ReplicaId(0), &env, &mut Vec::new())
                .await
                .unwrap();
            let got = server.await.unwrap();
            assert!(got == expected, "wire bytes diverged at {payload_len}");
            let frame = decode_frame(&got[4..]).unwrap();
            assert_eq!(
                (frame.from, frame.payload, frame.sig),
                (0, &payload[..], &env.sig.0)
            );
        }
    }

    #[tokio::test]
    async fn oversized_frames_are_rejected_outbound() {
        let (_listener, addr) = loopback().await;
        let mut client = dial(&addr).await.unwrap();
        let huge = Envelope {
            from: ReplicaId(0),
            payload: Payload::new(vec![0; (SIMPLE_FRAME_LIMIT as usize) + 1]),
            sig: Signature([0; SIGNATURE_LEN]),
        };
        assert!(matches!(
            write_envelope_frame(&mut client, ReplicaId(0), &huge, &mut Vec::new()).await,
            Err(FrameError::TooLarge(_))
        ));
    }

    #[tokio::test]
    async fn close_releases_the_listener() {
        let probe = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = probe.local_addr().unwrap().to_string();
        drop(probe);
        let (fabric, _rx) = TcpFabric::bind(ReplicaId(0), &addr, vec![addr.clone()])
            .await
            .unwrap();
        // Live listener: connections are accepted.
        assert!(TcpStream::connect(&addr).await.is_ok());
        fabric.close().await;
        // The accept loop has exited and dropped the listener: within a
        // few attempts, connecting must start failing (refused).
        let mut refused = false;
        for _ in 0..100 {
            if TcpStream::connect(&addr).await.is_err() {
                refused = true;
                break;
            }
            tokio::time::sleep(std::time::Duration::from_millis(10)).await;
        }
        assert!(refused, "listener port must be released after close");
        // Idempotent.
        fabric.close().await;
    }

    /// Binds two fabrics on ephemeral ports, cross-connected; returns
    /// replica 0's fabric, replica 1's inbound stream, and replica 1's
    /// fabric (kept alive by the caller).
    async fn two_endpoints() -> (TcpFabric, mpsc::UnboundedReceiver<Envelope>, TcpFabric) {
        let l0 = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let a0 = l0.local_addr().unwrap().to_string();
        drop(l0);
        let l1 = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let a1 = l1.local_addr().unwrap().to_string();
        drop(l1);
        let peers = vec![a0.clone(), a1.clone()];
        let (f0, _rx0) = TcpFabric::bind(ReplicaId(0), &a0, peers.clone())
            .await
            .unwrap();
        let (f1, rx1) = TcpFabric::bind(ReplicaId(1), &a1, peers).await.unwrap();
        (f0, rx1, f1)
    }

    #[tokio::test]
    async fn fabric_delivers_signed_envelopes_between_endpoints() {
        let (f0, mut rx1, _f1) = two_endpoints().await;
        let keystores = spotless_crypto::KeyStore::cluster(b"tcp-fabric-test", 2);
        let payload = spotless_runtime::envelope::encode_protocol(&sync_msg());
        f0.send(ReplicaId(1), Envelope::seal(&keystores[0], payload));
        let env = rx1.recv().await.expect("delivered");
        assert_eq!(env.from, ReplicaId(0));
        // The receiving runtime would verify exactly like this:
        assert!(env.verify(&keystores[1]).is_ok());
        match spotless_runtime::envelope::decode::<Message>(&env.payload) {
            Some(spotless_runtime::WireMsg::Protocol(msgs)) => {
                assert!(matches!(msgs[..], [Message::Sync(_)]));
            }
            _ => panic!("payload did not decode to the sent message"),
        }
    }

    #[tokio::test]
    async fn fabric_delivers_large_payloads_between_endpoints() {
        // Frames the size of large proposals and snapshot chunks,
        // interleaved with small ones on the same connection, arrive in
        // order, byte for byte, still verifying.
        let (f0, mut rx1, _f1) = two_endpoints().await;
        let keystores = spotless_crypto::KeyStore::cluster(b"tcp-fabric-large", 2);
        let sizes = [64 << 10, 0, 300, (256 << 10) + 17, 17, 4096, 64 << 10, 1];
        let payloads: Vec<Vec<u8>> = sizes
            .iter()
            .enumerate()
            .map(|(k, &len)| (0..len).map(|i| (i * 31 + k) as u8).collect())
            .collect();
        for payload in &payloads {
            f0.send(ReplicaId(1), Envelope::seal(&keystores[0], payload.clone()));
        }
        for payload in &payloads {
            let env = rx1.recv().await.expect("delivered");
            assert_eq!(env.from, ReplicaId(0));
            assert_eq!(*env.payload, payload[..]);
            assert!(env.verify(&keystores[1]).is_ok());
        }
    }
}
