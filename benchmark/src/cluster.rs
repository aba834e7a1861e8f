//! Cluster assembly: four real [`ReplicaRuntime`]s (SpotLess, n = 4,
//! m = 4, f = 1, default [`RuntimeConfig`] pools) over the workload's
//! fabric, spawned directly so the benchmark owns the `Inform` receiver.

use crate::workloads::{FabricKind, Workload};
use spotless_crypto::KeyStore;
use spotless_runtime::{
    CommitLog, Envelope, Fabric, Inform, ReplicaHandle, ReplicaRuntime, RuntimeConfig,
    StorageConfig,
};
use spotless_transport::{InProcFabric, TcpFabric};
use spotless_types::{ClusterConfig, Node, ReplicaId};
use std::path::{Path, PathBuf};
use tokio::sync::mpsc;

/// Replicas in every workload's cluster.
pub const N: u32 = 4;
/// Master secret the replicas' keys derive from (the replay step
/// rebuilds the same key stores to re-verify recorded signatures).
pub const KEY_SALT: &[u8] = b"spotless-benchmark-cluster";

/// Either fabric behind one type, so one spawn routine serves both.
#[derive(Clone)]
pub enum AnyFabric {
    /// Channels.
    InProc(InProcFabric),
    /// Loopback sockets.
    Tcp(TcpFabric),
}

impl Fabric for AnyFabric {
    fn send(&self, to: ReplicaId, env: Envelope) {
        match self {
            AnyFabric::InProc(f) => f.send(to, env),
            AnyFabric::Tcp(f) => f.send(to, env),
        }
    }
}

/// One replica's sending fabric and inbound envelope stream.
pub type Endpoint<F> = (F, mpsc::UnboundedReceiver<Envelope>);

/// The cluster shape every workload runs.
pub fn cluster_config() -> ClusterConfig {
    ClusterConfig::new(N)
}

/// Asks the OS for `n` free loopback ports: bind port 0, read the port,
/// release it. Chosen at run time so repeats and back-to-back runs
/// never collide on a fixed port.
fn free_loopback_addrs(n: u32) -> std::io::Result<Vec<String>> {
    let listeners: Vec<std::net::TcpListener> = (0..n)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<_, _>>()?;
    listeners
        .iter()
        .map(|l| Ok(l.local_addr()?.to_string()))
        .collect()
}

/// Builds the workload's fabric endpoints (binding ports for TCP), and
/// lists the TCP fabrics whose listeners [`Cluster::shutdown`] closes.
pub async fn endpoints(
    spec: &Workload,
) -> std::io::Result<(Vec<Endpoint<AnyFabric>>, Vec<TcpFabric>)> {
    match spec.fabric {
        FabricKind::InProc => {
            let (fabric, receivers) = InProcFabric::new(N);
            let endpoints = receivers
                .into_iter()
                .map(|rx| (AnyFabric::InProc(fabric.clone()), rx))
                .collect();
            Ok((endpoints, Vec::new()))
        }
        FabricKind::Tcp => {
            let addrs = free_loopback_addrs(N)?;
            let (mut endpoints, mut tcp) = (Vec::new(), Vec::new());
            for (i, addr) in addrs.iter().enumerate() {
                let (fabric, rx) =
                    TcpFabric::bind(ReplicaId(i as u32), addr, addrs.clone()).await?;
                tcp.push(fabric.clone());
                endpoints.push((AnyFabric::Tcp(fabric), rx));
            }
            Ok((endpoints, tcp))
        }
    }
}

/// A running cluster.
pub struct Cluster {
    /// Replica handles, by id.
    pub handles: Vec<ReplicaHandle>,
    /// Every replica's executed commits.
    pub commits: CommitLog,
    /// The client reply stream (owned by the driver).
    pub informs: mpsc::UnboundedReceiver<Inform>,
    /// A sender into the same stream, for the driver's wake-up ticks.
    pub inform_tx: mpsc::UnboundedSender<Inform>,
    /// Durable store directories (empty for memory-only workloads).
    pub storage_dirs: Vec<PathBuf>,
    tcp: Vec<TcpFabric>,
}

impl Cluster {
    /// Spawns one runtime per endpoint. `make` builds each replica's
    /// protocol node (plain or traced); `tcp` lists the TCP fabrics to
    /// close at shutdown.
    pub fn spawn<N, F>(
        spec: &Workload,
        endpoints: Vec<Endpoint<F>>,
        tcp: Vec<TcpFabric>,
        run_dir: &Path,
        mut make: impl FnMut(ReplicaId) -> N,
    ) -> Result<Cluster, spotless_storage::StorageError>
    where
        N: Node + Send + 'static,
        N::Message: serde::Serialize + serde::Deserialize + Send + 'static,
        F: Fabric,
    {
        let cluster = cluster_config();
        let keystores = KeyStore::cluster(KEY_SALT, N);
        let commits = CommitLog::default();
        let (inform_tx, informs) = mpsc::unbounded_channel();
        let mut handles = Vec::new();
        let mut storage_dirs = Vec::new();
        for (i, (fabric, envelopes)) in endpoints.into_iter().enumerate() {
            let me = ReplicaId(i as u32);
            let mut cfg = RuntimeConfig::new(cluster.clone(), me, keystores[i].clone());
            if spec.durable {
                let dir = run_dir.join(format!("replica-{i}"));
                cfg.storage = Some(StorageConfig::new(&dir));
                storage_dirs.push(dir);
            }
            cfg.silent = spec.silent == Some(me.0);
            handles.push(ReplicaRuntime::spawn(
                make(me),
                cfg,
                fabric,
                envelopes,
                commits.clone(),
                inform_tx.clone(),
            )?);
        }
        Ok(Cluster {
            handles,
            commits,
            informs,
            inform_tx,
            storage_dirs,
            tcp,
        })
    }

    /// Stops every replica, waits until each pipeline has released its
    /// store, and closes the TCP listeners. Returns false if a replica
    /// did not stop within ten seconds.
    pub async fn shutdown(&self) -> bool {
        for h in &self.handles {
            h.shutdown();
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !self.handles.iter().all(ReplicaHandle::is_stopped) {
            if std::time::Instant::now() > deadline {
                return false;
            }
            tokio::time::sleep(std::time::Duration::from_millis(5)).await;
        }
        for fabric in &self.tcp {
            fabric.close().await;
        }
        true
    }
}
