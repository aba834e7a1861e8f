//! **SpotLess**: concurrent rotational BFT consensus made practical
//! through Rapid View Synchronization — the primary contribution of the
//! reproduced paper (ICDE 2024).
//!
//! The protocol in one paragraph: `m ≤ n` chained-consensus instances run
//! concurrently, each rotating its primary every view (`(i + v) mod n`).
//! Within an instance, a view is two steps — the primary's `Propose` and
//! an all-to-all `Sync` exchange — and a proposal commits after a chain
//! of three consecutive-view conditional prepares (§3). Rapid View
//! Synchronization keeps replicas in the same view without a global
//! synchronization time: per-view `Recording → Syncing → Certifying`
//! states, an `f+1`-higher-views jump rule, Υ-flagged retransmission, and
//! `Ask`-based proposal recovery (§3.4–3.5). Committed proposals from all
//! instances are executed in the deterministic `(view, instance)` order
//! (§4), with transactions assigned to instances by digest and no-op
//! proposals preventing execution stalls (§5).
//!
//! Entry points:
//! * [`SpotLessReplica`] — the sans-IO replica node (drive it with the
//!   simulator in `spotless-simnet` or the tokio adapter in
//!   `spotless-transport`);
//! * [`ReplicaConfig`] — per-replica construction (honest or one of the
//!   §6.3 attack behaviours);
//! * [`SpotLessClient`] — the §5 client state machine;
//! * [`messages`] — the wire alphabet (`Propose`/`Sync`/`Ask`/`Forward`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod instance;
pub mod mempool;
pub mod messages;
pub mod replica;
pub mod util;

pub use client::{Completion, SpotLessClient};
pub use instance::{InstanceState, Phase};
pub use mempool::{Admission, Mempool, MempoolStats};
pub use messages::{
    Justification, JustificationKind, Message, Proposal, ProposalRef, SyncMsg, CP_CAP,
};
pub use replica::{ReplicaConfig, SpotLessReplica};
