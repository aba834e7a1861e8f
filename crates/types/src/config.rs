//! Cluster configuration and quorum arithmetic.
//!
//! The paper assumes `n > 3f` (§2). All quorum sizes used anywhere in the
//! workspace come from this module so the arithmetic is written — and
//! property-tested — exactly once.

use crate::ids::{InstanceId, ReplicaId, View};
use crate::time::SimDuration;

/// Static configuration of one consensus cluster.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Number of replicas, `n`.
    pub n: u32,
    /// Number of concurrent consensus instances, `1 ≤ m ≤ n` (§4.1).
    pub m: u32,
    /// Transactions grouped per client batch (ResilientDB default: 100).
    pub batch_txns: u32,
    /// Size in bytes of an individual transaction (YCSB default: 48 B).
    pub txn_size: u32,
    /// Initial value of the Recording timer `t_R` (ST1).
    pub recording_timeout: SimDuration,
    /// Initial value of the Certifying timer `t_A` (ST3).
    pub certifying_timeout: SimDuration,
    /// The constant `ε` added to a timer after consecutive timeouts (§3.5).
    pub timeout_epsilon: SimDuration,
    /// Period of the §3.5 retransmission loop for unanswered Υ/Ask traffic.
    pub retransmit_interval: SimDuration,
    /// Initial client response timeout `t_C` (§5, doubled per retry).
    pub client_timeout: SimDuration,
}

impl ClusterConfig {
    /// A configuration with `n` replicas and `n` concurrent instances,
    /// using the paper's defaults everywhere else.
    pub fn new(n: u32) -> ClusterConfig {
        ClusterConfig::with_instances(n, n)
    }

    /// A configuration with `n` replicas and `m` concurrent instances.
    pub fn with_instances(n: u32, m: u32) -> ClusterConfig {
        assert!(n >= 4, "consensus requires n > 3f with f >= 1, i.e. n >= 4");
        assert!(m >= 1 && m <= n, "instances must satisfy 1 <= m <= n");
        ClusterConfig {
            n,
            m,
            batch_txns: 100,
            txn_size: 48,
            recording_timeout: SimDuration::from_millis(150),
            certifying_timeout: SimDuration::from_millis(150),
            timeout_epsilon: SimDuration::from_millis(20),
            retransmit_interval: SimDuration::from_millis(100),
            client_timeout: SimDuration::from_millis(1500),
        }
    }

    /// Calibrates the protocol timeouts for a deployment whose largest
    /// one-way link latency is `max_one_way` (§6.3: the authors "set the
    /// timeout length appropriately" from the calculated view duration;
    /// a view needs at least a Propose hop plus a Sync hop, so timers
    /// below a few RTTs time out spuriously on WAN links and collapse
    /// chained progress — see the geo-scale experiments).
    pub fn calibrate_timeouts(&mut self, max_one_way: SimDuration) {
        // A full view is ~2 one-way hops; leave 3x headroom for queueing.
        let view_floor = SimDuration::from_nanos(max_one_way.as_nanos().saturating_mul(6));
        self.recording_timeout = self.recording_timeout.max(view_floor);
        self.certifying_timeout = self.certifying_timeout.max(view_floor);
        self.timeout_epsilon = self
            .timeout_epsilon
            .max(SimDuration::from_nanos(view_floor.as_nanos() / 8));
        self.retransmit_interval = self.retransmit_interval.max(SimDuration::from_nanos(
            max_one_way.as_nanos().saturating_mul(2),
        ));
        // Clients wait for consensus + execution + a reply hop.
        let client_floor = SimDuration::from_nanos(view_floor.as_nanos().saturating_mul(10));
        self.client_timeout = self.client_timeout.max(client_floor);
    }

    /// Maximum number of tolerated faulty replicas, `f = ⌊(n − 1) / 3⌋`
    /// (largest `f` with `n > 3f`).
    #[inline]
    pub fn f(&self) -> u32 {
        (self.n - 1) / 3
    }

    /// The strong quorum `n − f`: enough concurring votes to conditionally
    /// prepare, certify, or (transitively) commit.
    #[inline]
    pub fn quorum(&self) -> u32 {
        self.n - self.f()
    }

    /// The weak quorum `f + 1`: guarantees at least one non-faulty member,
    /// used by the RVS view-jump, echo, and conditional-prepare-by-CP rules.
    #[inline]
    pub fn weak_quorum(&self) -> u32 {
        self.f() + 1
    }

    /// The primary of view `v` in instance `i`: replica `(i + v) mod n`
    /// (§4.1, Figure 5). Single-instance deployments use instance 0 and
    /// recover the paper's §3.1 rule `id(P) = v mod n`.
    #[inline]
    pub fn primary_of(&self, instance: InstanceId, view: View) -> ReplicaId {
        ReplicaId(((u64::from(instance.0) + view.0) % u64::from(self.n)) as u32)
    }

    /// Which instance may propose a batch with digest tag `d`
    /// (§5: instance `i` proposes digests with `d mod m == i`, stated
    /// 1-based in the paper; we use the equivalent 0-based form).
    #[inline]
    pub fn instance_for_digest(&self, digest_tag: u64) -> InstanceId {
        InstanceId((digest_tag % u64::from(self.m)) as u32)
    }

    /// Iterator over all replica ids.
    pub fn replicas(&self) -> impl Iterator<Item = ReplicaId> {
        (0..self.n).map(ReplicaId)
    }

    /// Iterator over all instance ids.
    pub fn instances(&self) -> impl Iterator<Item = InstanceId> {
        (0..self.m).map(InstanceId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrate_timeouts_scales_with_link_latency() {
        let mut c = ClusterConfig::new(16);
        let (t_r0, t_a0) = (c.recording_timeout, c.certifying_timeout);
        // A LAN-scale latency leaves the defaults alone.
        c.calibrate_timeouts(SimDuration::from_micros(250));
        assert_eq!(c.recording_timeout, t_r0);
        assert_eq!(c.certifying_timeout, t_a0);
        // A WAN latency raises every timer to cover the view round-trip.
        c.calibrate_timeouts(SimDuration::from_millis(37));
        assert!(c.recording_timeout >= SimDuration::from_millis(6 * 37));
        assert!(c.certifying_timeout >= SimDuration::from_millis(6 * 37));
        assert!(c.retransmit_interval >= SimDuration::from_millis(2 * 37));
        assert!(c.client_timeout > c.recording_timeout);
    }

    #[test]
    fn calibrate_timeouts_is_monotone_and_idempotent() {
        let mut a = ClusterConfig::new(16);
        a.calibrate_timeouts(SimDuration::from_millis(20));
        let snap = (a.recording_timeout, a.certifying_timeout, a.client_timeout);
        // Re-calibrating with the same latency changes nothing.
        a.calibrate_timeouts(SimDuration::from_millis(20));
        assert_eq!(
            snap,
            (a.recording_timeout, a.certifying_timeout, a.client_timeout)
        );
        // Calibrating with a smaller latency never lowers the timers.
        a.calibrate_timeouts(SimDuration::from_millis(1));
        assert_eq!(
            snap,
            (a.recording_timeout, a.certifying_timeout, a.client_timeout)
        );
    }

    #[test]
    fn quorum_arithmetic_matches_paper() {
        // n = 4: f = 1, quorum = 3, weak = 2 — the classical minimum.
        let c = ClusterConfig::new(4);
        assert_eq!((c.f(), c.quorum(), c.weak_quorum()), (1, 3, 2));
        // n = 128 (the paper's largest deployment): f = 42.
        let c = ClusterConfig::new(128);
        assert_eq!(c.f(), 42);
        assert_eq!(c.quorum(), 86);
        assert_eq!(c.weak_quorum(), 43);
    }

    #[test]
    fn n_greater_than_3f_always_holds() {
        for n in 4..=200 {
            let c = ClusterConfig::new(n);
            assert!(c.n > 3 * c.f(), "n={n}");
            // Two strong quorums intersect in at least f + 1 replicas:
            // the core of every safety argument (Theorem 3.2).
            assert!(2 * c.quorum() >= c.n + c.weak_quorum(), "n={n}");
        }
    }

    #[test]
    fn primary_rotation_matches_figure_5() {
        // Figure 5: four replicas, four instances. Replica r is primary of
        // instance i in view v iff r = (i + v) mod 4.
        let c = ClusterConfig::new(4);
        assert_eq!(c.primary_of(InstanceId(0), View(0)), ReplicaId(0));
        assert_eq!(c.primary_of(InstanceId(3), View(0)), ReplicaId(3));
        assert_eq!(c.primary_of(InstanceId(0), View(1)), ReplicaId(1));
        assert_eq!(c.primary_of(InstanceId(3), View(1)), ReplicaId(0));
        assert_eq!(c.primary_of(InstanceId(2), View(2)), ReplicaId(0));
    }

    #[test]
    fn every_view_assigns_distinct_primaries_per_instance() {
        let c = ClusterConfig::new(7);
        for v in 0..20 {
            let mut seen = std::collections::HashSet::new();
            for i in c.instances() {
                assert!(seen.insert(c.primary_of(i, View(v))));
            }
        }
    }

    #[test]
    fn digest_assignment_load_balances() {
        let c = ClusterConfig::with_instances(8, 4);
        let mut counts = [0u32; 4];
        for d in 0..4000u64 {
            counts[c.instance_for_digest(d).as_usize()] += 1;
        }
        for count in counts {
            assert_eq!(count, 1000);
        }
    }

    #[test]
    #[should_panic(expected = "instances must satisfy")]
    fn too_many_instances_rejected() {
        let _ = ClusterConfig::with_instances(4, 5);
    }
}
