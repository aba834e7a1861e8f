//! The protocol-agnostic replica runtime: the deployment path of the
//! SpotLess reproduction.
//!
//! The paper's evaluation (§5/§6) assumes replicas that **execute**
//! committed batches against a replicated store, **persist** them to an
//! immutable ledger, and **answer clients** from recoverable state.
//! This crate is that replica, factored so every protocol in the
//! workspace gets it for free: [`ReplicaRuntime`] composes any sans-IO
//! [`Node`](spotless_types::Node) — SpotLess, PBFT, RCC, HotStuff,
//! Narwhal-HS — with
//!
//! * the hash-chained ledger (`spotless-ledger`) behind the durable
//!   segmented log + snapshots (`spotless-storage`),
//! * YCSB key-value execution (`spotless-workload`),
//! * signed wire envelopes serialized once and `Arc`-shared across
//!   broadcast destinations ([`envelope`]),
//! * a commit pipeline that executes each decided batch and seals the
//!   post-execution Merkle `state_root` into its block (execute-then-
//!   seal), group-commits storage appends behind a bounded ack queue so
//!   consensus never blocks on fsync, populates every durable block's
//!   `CommitProof` from the protocol's commit certificate, and refuses
//!   to append a block whose signer set fails quorum verification
//!   (`pipeline`), and
//! * a runtime-level two-mode state-transfer exchange: a recovering
//!   replica — held out of consensus until it has rejoined the head —
//!   replays blocks from peers that still hold them (re-executing each
//!   and checking the sealed `state_root`), or runs a chunked snapshot
//!   transfer when every peer has pruned or restarted past its gap:
//!   manifest first, then ranged chunk fetches verified bucket-by-
//!   bucket against the chain's state root, journaled so a mid-transfer
//!   crash resumes instead of restarting.
//!
//! Transports are reduced to [`Fabric`]s: byte movers with no protocol,
//! crypto, or execution logic. `spotless-transport` provides in-process
//! and TCP fabrics plus cluster-assembly helpers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod cluster;
pub(crate) mod egress;
pub mod envelope;
pub mod executor;
pub mod fabric;
pub(crate) mod ingress;
pub mod observe;
pub(crate) mod pipeline;
pub mod runtime;

pub use client::ClusterClient;
pub use cluster::{assemble, ClusterHandles};
pub use envelope::{
    BufferPool, CatchUpBlock, ChunkInfo, ChunkTransfer, Envelope, Payload, TransferManifest,
    WireMsg, WireMsgRef, WIRE_VERSION,
};
pub use executor::{execute_group, ExecutorPool, SealedBatch};
pub use fabric::Fabric;
pub use observe::{CommitLog, CommittedEntry, Inform, NetStats};
pub use runtime::{
    ControlMsg, RecoveryInfo, ReplicaHandle, ReplicaRuntime, RuntimeConfig, StorageConfig,
    CATCHUP_TICK,
};
