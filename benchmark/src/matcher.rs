//! The client side of §5's reply rule: a batch is confirmed once
//! `f + 1` distinct replicas report the same execution result.
//!
//! The matcher is also the closed loop's slot accounting: the number of
//! outstanding batches *is* the number of tracked entries, so an inform
//! for a batch that is not tracked (already confirmed, expired, or
//! never submitted) cannot free a slot.

use spotless_types::{BatchId, Digest, ReplicaId};
use std::collections::HashMap;

struct Pending {
    seq: u64,
    slot: usize,
    txns: u32,
    submitted_ns: u64,
    informs: Vec<(ReplicaId, Digest, u64)>,
}

/// A batch that reached `f + 1` matching informs.
#[derive(Debug, PartialEq, Eq)]
pub struct Confirmed {
    /// The batch.
    pub id: BatchId,
    /// Its position among the run's submissions.
    pub seq: u64,
    /// The closed-loop slot it occupied.
    pub slot: usize,
    /// Transactions it carried.
    pub txns: u32,
    /// The result `f + 1` replicas agreed on.
    pub result: Digest,
    /// When it was submitted.
    pub submitted_ns: u64,
    /// When the first of the matching informs arrived.
    pub first_inform_ns: u64,
    /// When the `f + 1`-th matching inform arrived.
    pub confirmed_ns: u64,
}

/// Tracks submitted batches until they are confirmed or expire.
pub struct Matcher {
    weak_quorum: usize,
    pending: HashMap<BatchId, Pending>,
}

impl Matcher {
    /// A matcher confirming at `weak_quorum` (= `f + 1`) matching informs.
    pub fn new(weak_quorum: usize) -> Matcher {
        Matcher {
            weak_quorum,
            pending: HashMap::new(),
        }
    }

    /// Batches submitted and neither confirmed nor expired.
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }

    /// Starts tracking the run's `seq`-th submission, made at `now_ns`
    /// from closed-loop slot `slot`.
    pub fn track(&mut self, id: BatchId, seq: u64, slot: usize, txns: u32, now_ns: u64) {
        let prev = self.pending.insert(
            id,
            Pending {
                seq,
                slot,
                txns,
                submitted_ns: now_ns,
                informs: Vec::with_capacity(4),
            },
        );
        assert!(prev.is_none(), "batch ids are unique within a run");
    }

    /// Feeds one inform. Returns the confirmation when this inform is
    /// the `f + 1`-th from distinct replicas carrying the same result.
    pub fn on_inform(
        &mut self,
        from: ReplicaId,
        id: BatchId,
        result: Digest,
        now_ns: u64,
    ) -> Option<Confirmed> {
        let entry = self.pending.get_mut(&id)?;
        if entry.informs.iter().any(|(r, _, _)| *r == from) {
            return None; // one vote per replica
        }
        entry.informs.push((from, result, now_ns));
        let matching = entry.informs.iter().filter(|(_, d, _)| *d == result);
        if matching.clone().count() < self.weak_quorum {
            return None;
        }
        let first_inform_ns = matching.map(|(_, _, at)| *at).min().unwrap_or(now_ns);
        let done = self.pending.remove(&id).expect("entry exists");
        Some(Confirmed {
            id,
            seq: done.seq,
            slot: done.slot,
            txns: done.txns,
            result,
            submitted_ns: done.submitted_ns,
            first_inform_ns,
            confirmed_ns: now_ns,
        })
    }

    /// Drops every batch submitted more than `timeout_ns` ago and
    /// returns their `(id, seq, slot)`: they count as failed.
    pub fn expire(&mut self, now_ns: u64, timeout_ns: u64) -> Vec<(BatchId, u64, usize)> {
        let expired: Vec<(BatchId, u64, usize)> = self
            .pending
            .iter()
            .filter(|(_, p)| now_ns.saturating_sub(p.submitted_ns) > timeout_ns)
            .map(|(id, p)| (*id, p.seq, p.slot))
            .collect();
        for (id, ..) in &expired {
            self.pending.remove(id);
        }
        expired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Digest = Digest([0xAA; 32]);
    const B: Digest = Digest([0xBB; 32]);

    #[test]
    fn confirms_at_weak_quorum_of_matching_results() {
        let mut m = Matcher::new(2);
        m.track(BatchId(1), 0, 5, 32, 100);
        assert_eq!(m.on_inform(ReplicaId(0), BatchId(1), A, 150), None);
        let c = m
            .on_inform(ReplicaId(2), BatchId(1), A, 180)
            .expect("second matching inform confirms");
        assert_eq!(
            (c.submitted_ns, c.first_inform_ns, c.confirmed_ns),
            (100, 150, 180)
        );
        assert_eq!((c.seq, c.slot, c.txns, c.result), (0, 5, 32, A));
        assert_eq!(m.outstanding(), 0);
    }

    #[test]
    fn different_digests_do_not_confirm() {
        let mut m = Matcher::new(2);
        m.track(BatchId(1), 0, 0, 32, 0);
        assert_eq!(m.on_inform(ReplicaId(0), BatchId(1), A, 1), None);
        assert_eq!(m.on_inform(ReplicaId(1), BatchId(1), B, 2), None);
        assert_eq!(m.outstanding(), 1);
        // A third replica siding with B confirms B, timed from B's first inform.
        let c = m
            .on_inform(ReplicaId(2), BatchId(1), B, 3)
            .expect("B has f + 1");
        assert_eq!((c.result, c.first_inform_ns), (B, 2));
    }

    #[test]
    fn duplicate_informs_from_one_replica_count_once() {
        let mut m = Matcher::new(2);
        m.track(BatchId(1), 0, 0, 32, 0);
        for at in 1..5 {
            assert_eq!(m.on_inform(ReplicaId(3), BatchId(1), A, at), None);
        }
        assert_eq!(m.outstanding(), 1);
    }

    #[test]
    fn late_and_unknown_informs_never_free_a_slot() {
        let mut m = Matcher::new(2);
        m.track(BatchId(1), 0, 0, 256, 0); // e.g. a preload batch
        m.track(BatchId(2), 1, 1, 32, 0);
        m.on_inform(ReplicaId(0), BatchId(1), A, 1);
        assert!(m.on_inform(ReplicaId(1), BatchId(1), A, 2).is_some());
        assert_eq!(m.outstanding(), 1);
        // Replicas 2 and 3 report the already-confirmed batch, someone
        // reports a batch that was never submitted: batch 2 keeps its slot.
        assert_eq!(m.on_inform(ReplicaId(2), BatchId(1), A, 3), None);
        assert_eq!(m.on_inform(ReplicaId(3), BatchId(1), A, 4), None);
        assert_eq!(m.on_inform(ReplicaId(0), BatchId(99), A, 5), None);
        assert_eq!(m.outstanding(), 1);
    }

    #[test]
    fn expiry_fails_old_batches_and_ignores_their_late_informs() {
        let mut m = Matcher::new(2);
        m.track(BatchId(1), 0, 0, 32, 0);
        m.track(BatchId(2), 1, 7, 32, 900);
        assert_eq!(m.expire(1_000, 500), vec![(BatchId(1), 0, 0)]);
        assert_eq!(m.outstanding(), 1);
        assert_eq!(m.on_inform(ReplicaId(0), BatchId(1), A, 1_001), None);
        assert_eq!(m.on_inform(ReplicaId(1), BatchId(1), A, 1_002), None);
        assert_eq!(m.outstanding(), 1);
    }
}
