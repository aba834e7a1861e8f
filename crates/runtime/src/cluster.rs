//! Shared cluster assembly: the transport-independent recipe for
//! standing up `n` [`ReplicaRuntime`]s plus a [`ClusterClient`].
//!
//! Both transports (`spotless-transport`'s in-process and TCP modules)
//! differ only in how they build their fabrics; everything else —
//! key distribution, the shared commit log, the inform channel, the
//! per-replica runtime spawns, the client collector — is this one
//! function, so fixes to the assembly land in every transport at once.

use crate::client::ClusterClient;
use crate::envelope::Envelope;
use crate::fabric::Fabric;
use crate::observe::{CommitLog, Inform};
use crate::runtime::{ReplicaHandle, ReplicaRuntime, RuntimeConfig, StorageConfig};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use spotless_crypto::KeyStore;
use spotless_storage::StorageError;
use spotless_types::{ClusterConfig, Node, ReplicaId};
use std::sync::Arc;
use tokio::sync::mpsc;

/// A deployed cluster's shared plumbing, handed back to the transport
/// layer (which wraps it with transport-specific extras like restart).
pub struct ClusterHandles {
    /// Client handle (submit + await `f + 1` matching informs).
    pub client: ClusterClient,
    /// Observation log of all commits.
    pub commits: CommitLog,
    /// Replica handles; slots are swappable for restarts.
    pub handles: Arc<Mutex<Vec<ReplicaHandle>>>,
    /// The inform sender restarted replicas are wired back into.
    pub informs: mpsc::UnboundedSender<Inform>,
    /// Per-replica key stores (restarts reuse the same identity).
    pub keystores: Vec<KeyStore>,
}

/// Assembles a cluster over pre-built fabric endpoints: `endpoints[i]`
/// is replica `i`'s sending fabric plus its inbound envelope stream.
/// `make` builds each replica's protocol node, `storage[i]` optionally
/// makes replica `i` durable, `silent[i]` deploys it crash-faulty, and
/// `tune` adjusts every replica's [`RuntimeConfig`] before spawn (chunk
/// budget, catch-up interval; tests use it to force multi-chunk
/// snapshot transfers at small state sizes — pass `|_| {}` for the
/// defaults). Must be called inside a tokio runtime.
pub fn assemble<N, F, M, T>(
    cluster: ClusterConfig,
    key_salt: &[u8],
    endpoints: Vec<(F, mpsc::UnboundedReceiver<Envelope>)>,
    storage: Vec<Option<StorageConfig>>,
    silent: Vec<bool>,
    tune: T,
    mut make: M,
) -> Result<ClusterHandles, StorageError>
where
    N: Node + Send + 'static,
    N::Message: Serialize + Deserialize + Send + 'static,
    F: Fabric,
    M: FnMut(ReplicaId) -> N,
    T: Fn(&mut RuntimeConfig),
{
    let n = cluster.n as usize;
    assert_eq!(endpoints.len(), n);
    assert_eq!(storage.len(), n);
    assert_eq!(silent.len(), n);
    let keystores = KeyStore::cluster(key_salt, cluster.n);
    let commits = CommitLog::default();
    let (inform_tx, inform_rx) = mpsc::unbounded_channel::<Inform>();
    let mut handles = Vec::with_capacity(n);
    for (i, (fabric, envelopes)) in endpoints.into_iter().enumerate() {
        let me = ReplicaId(i as u32);
        let mut cfg = RuntimeConfig::new(cluster.clone(), me, keystores[i].clone());
        cfg.storage = storage[i].clone();
        cfg.silent = silent[i];
        tune(&mut cfg);
        handles.push(ReplicaRuntime::spawn(
            make(me),
            cfg,
            fabric,
            envelopes,
            commits.clone(),
            inform_tx.clone(),
        )?);
    }
    let handles = Arc::new(Mutex::new(handles));
    let client = ClusterClient::new(cluster, handles.clone(), inform_rx);
    Ok(ClusterHandles {
        client,
        commits,
        handles,
        informs: inform_tx,
        keystores,
    })
}
