//! Strongly-typed identifiers.
//!
//! The paper models the system as a fixed set of replicas `ℜ` with
//! `id(R) ∈ [0, n)` plus an open set of clients. We keep each identifier in
//! its own newtype so that views, instances, and replicas cannot be mixed
//! up silently — a classic source of rotational-consensus bugs, since the
//! primary of instance `i` in view `v` is `(i + v) mod n` and every one of
//! those three numbers is "just an integer".

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a replica, `0 ≤ id < n`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ReplicaId(pub u32);

impl ReplicaId {
    /// The replica's position in the identifier space, as a `usize` index.
    #[inline]
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

impl fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// Identifier of a client. Clients are unbounded and untrusted (§2: "all
/// clients can be malicious without affecting SpotLess").
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ClientId(pub u64);

impl fmt::Debug for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// Identifier of a concurrent consensus instance, `0 ≤ id < m ≤ n` (§4.1).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct InstanceId(pub u32);

impl InstanceId {
    /// The instance's position as a `usize` index.
    #[inline]
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "I{}", self.0)
    }
}

/// A view number. Each chained-consensus instance proceeds through views
/// `v = 0, 1, 2, …`; view `v` of instance `i` is coordinated by replica
/// `(i + v) mod n`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default)]
pub struct View(pub u64);

impl View {
    /// The genesis view.
    pub const ZERO: View = View(0);

    /// The next view, `v + 1`.
    #[inline]
    pub fn next(self) -> View {
        View(self.0 + 1)
    }

    /// The previous view, or `None` at genesis.
    #[inline]
    pub fn prev(self) -> Option<View> {
        self.0.checked_sub(1).map(View)
    }

    /// `self + delta` views ahead.
    #[inline]
    pub fn advance(self, delta: u64) -> View {
        View(self.0 + delta)
    }
}

impl fmt::Debug for View {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for View {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Identifier of a client batch of transactions, unique per run. Batches
/// are the unit proposed by primaries (ResilientDB groups ~100 txn/batch).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BatchId(pub u64);

impl fmt::Debug for BatchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

/// A 32-byte cryptographic digest (`digest(v)` in the paper's notation).
///
/// The digest algorithm lives in `spotless-crypto`; this type is only the
/// carrier so that the protocol crates do not depend on the hash
/// implementation. Simulation code builds digests from counters via
/// [`Digest::from_u64`], which preserves uniqueness without hashing cost.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// The all-zero digest, used for genesis and no-op placeholders.
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// Embeds a `u64` tag into a digest (bytes 0..8, big-endian). Distinct
    /// tags yield distinct digests, which is all simulation needs.
    pub fn from_u64(tag: u64) -> Digest {
        let mut d = [0u8; 32];
        d[..8].copy_from_slice(&tag.to_be_bytes());
        Digest(d)
    }

    /// Recovers the `u64` tag from a digest made by [`Digest::from_u64`].
    pub fn as_u64_tag(&self) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.0[..8]);
        u64::from_be_bytes(b)
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#")?;
        for byte in &self.0[..4] {
            write!(f, "{byte:02x}")?;
        }
        write!(f, "…")
    }
}

/// Any addressable participant: a replica or a client.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodeId {
    /// A consensus replica.
    Replica(ReplicaId),
    /// A client (or the simulator's aggregated client sink).
    Client(ClientId),
}

impl NodeId {
    /// Returns the replica id if this node is a replica.
    #[inline]
    pub fn replica(self) -> Option<ReplicaId> {
        match self {
            NodeId::Replica(r) => Some(r),
            NodeId::Client(_) => None,
        }
    }

    /// True iff this node is a replica.
    #[inline]
    pub fn is_replica(self) -> bool {
        matches!(self, NodeId::Replica(_))
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeId::Replica(r) => write!(f, "{r:?}"),
            NodeId::Client(c) => write!(f, "{c:?}"),
        }
    }
}

impl From<ReplicaId> for NodeId {
    fn from(r: ReplicaId) -> Self {
        NodeId::Replica(r)
    }
}

impl From<ClientId> for NodeId {
    fn from(c: ClientId) -> Self {
        NodeId::Client(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_arithmetic() {
        assert_eq!(View::ZERO.next(), View(1));
        assert_eq!(View(5).prev(), Some(View(4)));
        assert_eq!(View::ZERO.prev(), None);
        assert_eq!(View(3).advance(4), View(7));
    }

    #[test]
    fn node_id_conversions() {
        let r: NodeId = ReplicaId(3).into();
        assert!(r.is_replica());
        assert_eq!(r.replica(), Some(ReplicaId(3)));
        let c: NodeId = ClientId(9).into();
        assert!(!c.is_replica());
        assert_eq!(c.replica(), None);
    }

    #[test]
    fn debug_formats_are_compact() {
        assert_eq!(format!("{:?}", ReplicaId(7)), "R7");
        assert_eq!(format!("{:?}", View(2)), "v2");
        assert_eq!(format!("{:?}", InstanceId(1)), "I1");
        assert_eq!(format!("{:?}", BatchId(42)), "B42");
        assert_eq!(format!("{:?}", NodeId::Client(ClientId(0))), "C0");
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(View(2) < View(10));
        assert!(ReplicaId(0) < ReplicaId(1));
    }
}
