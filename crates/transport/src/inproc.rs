//! In-process fabric and cluster assembly: every replica runs as an
//! async task on the shared [`ReplicaRuntime`], connected by channels.
//!
//! Since PR 2 this module contains **no replica logic** — signing,
//! verification, execution, durability, and client replies all live in
//! `spotless-runtime`. What remains is the channel fabric
//! ([`InProcFabric`]) and the wiring that assembles a cluster from `n`
//! runtimes plus a [`ClusterClient`]. The same wiring deploys any
//! protocol implementing the sans-IO `Node` trait; the
//! [`InProcCluster::spawn`] convenience builds the SpotLess cluster the
//! `quickstart` and `byzantine_recovery` examples use.
//!
//! Envelopes carry real Ed25519 signatures (see `spotless-crypto`'s
//! `signing` module), applied by the sending runtime and batch-checked
//! by the receiving runtime's ingress verification stage on every hop
//! — the fabric itself moves bytes and never touches a key.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use spotless_core::{ReplicaConfig, SpotLessReplica};
use spotless_crypto::KeyStore;
use spotless_runtime::{
    ClusterClient, CommitLog, Envelope, Fabric, Inform, ReplicaHandle, ReplicaRuntime,
    RuntimeConfig, StorageConfig,
};
use spotless_storage::StorageError;
use spotless_types::{ByzantineBehavior, ClusterConfig, Node, ReplicaId};
use std::sync::Arc;
use tokio::sync::mpsc;

pub use spotless_runtime::CommittedEntry;

/// The in-process fabric: one envelope channel per replica. Slots are
/// swappable so a restarted replica (fresh channel) can rejoin the
/// same cluster — the crash–recovery tests depend on this.
#[derive(Clone)]
pub struct InProcFabric {
    peers: Arc<Vec<Mutex<mpsc::UnboundedSender<Envelope>>>>,
}

impl InProcFabric {
    /// Builds the fabric and one inbound receiver per replica.
    pub fn new(n: u32) -> (InProcFabric, Vec<mpsc::UnboundedReceiver<Envelope>>) {
        let mut senders = Vec::with_capacity(n as usize);
        let mut receivers = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let (tx, rx) = mpsc::unbounded_channel();
            senders.push(Mutex::new(tx));
            receivers.push(rx);
        }
        (
            InProcFabric {
                peers: Arc::new(senders),
            },
            receivers,
        )
    }

    /// Swaps replica `r`'s inbound channel (used when restarting a
    /// replica), returning the fresh receiver to hand to its runtime.
    pub fn reconnect(&self, r: ReplicaId) -> mpsc::UnboundedReceiver<Envelope> {
        let (tx, rx) = mpsc::unbounded_channel();
        *self.peers[r.as_usize()].lock() = tx;
        rx
    }
}

impl Fabric for InProcFabric {
    fn send(&self, to: ReplicaId, env: Envelope) {
        if let Some(slot) = self.peers.get(to.as_usize()) {
            // A dead replica's channel errors; delivery is best-effort.
            let _ = slot.lock().send(env);
        }
    }
}

/// A running in-process cluster of [`ReplicaRuntime`]s.
pub struct InProcCluster {
    /// Client handle (submit + await `f + 1` matching informs).
    pub client: ClusterClient,
    /// Observation log of all commits.
    pub commits: CommitLog,
    cluster: ClusterConfig,
    fabric: InProcFabric,
    handles: Arc<Mutex<Vec<ReplicaHandle>>>,
    keystores: Vec<KeyStore>,
    informs: mpsc::UnboundedSender<Inform>,
}

impl InProcCluster {
    /// Spawns a SpotLess cluster with the given behaviours (`None` ⇒
    /// all honest), chains in memory only. Must be called inside a
    /// tokio runtime.
    pub fn spawn(
        cluster: ClusterConfig,
        behaviors: Option<Vec<ByzantineBehavior>>,
    ) -> InProcCluster {
        let n = cluster.n as usize;
        let behaviors = behaviors.unwrap_or_else(|| vec![ByzantineBehavior::Honest; n]);
        assert_eq!(behaviors.len(), n);
        let faulty: Vec<bool> = behaviors.iter().map(|b| b.is_faulty()).collect();
        let silent: Vec<bool> = behaviors
            .iter()
            .map(|b| *b == ByzantineBehavior::Crash)
            .collect();
        let storage = vec![None; n];
        let c = cluster.clone();
        InProcCluster::spawn_with(cluster, storage, silent, move |r| {
            SpotLessReplica::new(ReplicaConfig {
                cluster: c.clone(),
                me: r,
                behavior: behaviors[r.as_usize()],
                faulty: faulty.clone(),
            })
        })
        .expect("in-memory spawn cannot fail")
    }

    /// Spawns a cluster of any protocol: `make` builds the node for
    /// each replica, `storage[i]` optionally makes replica `i` durable,
    /// `silent[i]` deploys it crash-faulty (consumes inputs, emits
    /// nothing).
    pub fn spawn_with<N, F>(
        cluster: ClusterConfig,
        storage: Vec<Option<StorageConfig>>,
        silent: Vec<bool>,
        make: F,
    ) -> Result<InProcCluster, StorageError>
    where
        N: Node + Send + 'static,
        N::Message: Serialize + Deserialize + Send + 'static,
        F: FnMut(ReplicaId) -> N,
    {
        InProcCluster::spawn_tuned(cluster, storage, silent, |_| {}, make)
    }

    /// [`spawn_with`](InProcCluster::spawn_with) plus a tuning hook
    /// applied to every replica's [`RuntimeConfig`] before spawn (e.g.
    /// shrinking the snapshot chunk budget so tests exercise multi-chunk
    /// transfers at small state sizes).
    pub fn spawn_tuned<N, F, T>(
        cluster: ClusterConfig,
        storage: Vec<Option<StorageConfig>>,
        silent: Vec<bool>,
        tune: T,
        make: F,
    ) -> Result<InProcCluster, StorageError>
    where
        N: Node + Send + 'static,
        N::Message: Serialize + Deserialize + Send + 'static,
        F: FnMut(ReplicaId) -> N,
        T: Fn(&mut RuntimeConfig),
    {
        let (fabric, receivers) = InProcFabric::new(cluster.n);
        let endpoints = receivers
            .into_iter()
            .map(|rx| (fabric.clone(), rx))
            .collect();
        let parts = spotless_runtime::assemble(
            cluster.clone(),
            b"spotless-inproc-cluster",
            endpoints,
            storage,
            silent,
            tune,
            make,
        )?;
        Ok(InProcCluster {
            client: parts.client,
            commits: parts.commits,
            cluster,
            fabric,
            handles: parts.handles,
            keystores: parts.keystores,
            informs: parts.informs,
        })
    }

    /// Handle of replica `r` (current incarnation).
    pub fn handle(&self, r: ReplicaId) -> ReplicaHandle {
        self.handles.lock()[r.as_usize()].clone()
    }

    /// The cluster's shared fabric. Tests use this to inject envelopes
    /// from *outside* the cluster — e.g. flooding a replica's ingress
    /// with forged signatures to exercise the verification stage.
    pub fn fabric(&self) -> &InProcFabric {
        &self.fabric
    }

    /// Stops replica `r`'s current incarnation (its durable state, if
    /// any, stays on disk for a later [`restart`](InProcCluster::restart)).
    pub fn stop(&self, r: ReplicaId) {
        self.handles.lock()[r.as_usize()].shutdown();
    }

    /// Restarts replica `r` with a fresh node, recovering from
    /// `storage` (pass the same directory it had before the crash) and
    /// catching up from its peers. The fabric slot is swapped so peers
    /// transparently reach the new incarnation. With `storage: None`
    /// the new incarnation rejoins as a *fresh* node without catch-up —
    /// nothing survives a memory-only crash, so that path is only
    /// suitable for protocol-level experiments, not state recovery.
    ///
    /// Waits (shutting it down if needed) until the previous
    /// incarnation's pipeline has released its durable store — two live
    /// stores on one directory would corrupt the log. Panics if it does
    /// not stop within ten seconds (a stuck test harness, not a
    /// recoverable condition).
    pub async fn restart<N>(
        &self,
        r: ReplicaId,
        storage: Option<StorageConfig>,
        node: N,
    ) -> Result<ReplicaHandle, StorageError>
    where
        N: Node + Send + 'static,
        N::Message: Serialize + Deserialize + Send + 'static,
    {
        let old = self.handle(r);
        old.shutdown();
        wait_stopped(
            &old,
            "its previous incarnation's durable store is still live; restarting \
             on the same storage directory would corrupt the log",
        )
        .await;
        let envelopes = self.fabric.reconnect(r);
        let mut cfg = RuntimeConfig::new(
            self.cluster.clone(),
            r,
            self.keystores[r.as_usize()].clone(),
        );
        cfg.storage = storage;
        let handle = ReplicaRuntime::spawn(
            node,
            cfg,
            self.fabric.clone(),
            envelopes,
            self.commits.clone(),
            self.informs.clone(),
        )?;
        self.handles.lock()[r.as_usize()] = handle.clone();
        Ok(handle)
    }

    /// Stops all replica tasks and waits until every pipeline has
    /// released its durable store, so callers may reopen the storage
    /// directories immediately. Panics if a replica does not stop
    /// within ten seconds.
    pub async fn shutdown(self) {
        let handles = self.handles.lock().clone();
        for handle in &handles {
            handle.shutdown();
        }
        for handle in &handles {
            wait_stopped(handle, "its durable store is still live").await;
        }
    }
}

/// Waits until `handle`'s pipeline has released its durable store,
/// polling every 25 ms. Panics, naming the replica and `consequence`, if
/// it does not stop within ten seconds: a wedged harness, not a
/// recoverable condition.
pub(crate) async fn wait_stopped(handle: &ReplicaHandle, consequence: &str) {
    for _ in 0..400 {
        if handle.is_stopped() {
            return;
        }
        tokio::time::sleep(std::time::Duration::from_millis(25)).await;
    }
    assert!(
        handle.is_stopped(),
        "replica {:?} did not stop; {consequence}",
        handle.id()
    );
}
