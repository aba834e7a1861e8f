//! The four workloads and the seeded batch generator.
//!
//! Every workload runs over a **fixed keyspace that is preloaded through
//! consensus** before timing starts: the KV store is at its steady size
//! for the whole window, which is what keeps throughput from drifting
//! inside a run (the default 500 k-record YCSB keyspace keeps growing
//! for minutes, so a short window's number depends on where it sits).

use spotless_types::{BatchId, ClientBatch, ClientId, ClusterConfig, SimTime};
use spotless_workload::{encode_txns, Operation, Transaction};
use std::collections::VecDeque;

/// How the replicas are connected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FabricKind {
    /// Channels inside the process (`InProcFabric`).
    InProc,
    /// Loopback sockets on ports chosen free at run time (`TcpFabric`).
    Tcp,
}

/// One workload: the shape of its batches and of its cluster.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name used by `--workload` and `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists (which layers it loads).
    pub why: &'static str,
    /// Transactions per batch.
    pub txns_per_batch: u32,
    /// Bytes per written value.
    pub value_size: u32,
    /// Share of writes, in percent.
    pub write_pct: u32,
    /// Keys `0..keyspace`, all preloaded, drawn uniformly.
    pub keyspace: u64,
    /// Batches kept outstanding by the closed loop (`K`).
    pub outstanding: usize,
    /// Warm-up batches of the workload's own shape confirmed before the
    /// window opens. A fixed *count* makes set-up CPU-bound work whose
    /// duration tracks the system's speed rather than thread-spawn jitter.
    pub warmup_batches: u64,
    /// Transport between replicas.
    pub fabric: FabricKind,
    /// Whether each replica runs a `DurableLedger` (group fsync).
    pub durable: bool,
    /// Replica deployed crash-faulty from the start, if any.
    pub silent: Option<u32>,
}

/// Transactions per preload batch (sequential keys).
pub const PRELOAD_TXNS: u64 = 256;

/// The benchmark's workloads. Later issues name these.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ordering-small",
        why: "small batches over few tiny records: consensus messages (crypto, core, runtime lanes) dominate; storage and tcp idle",
        txns_per_batch: 32,
        value_size: 48,
        write_pct: 90,
        keyspace: 4096,
        outstanding: 64,
        warmup_batches: 256,
        fabric: FabricKind::InProc,
        durable: false,
        silent: None,
    },
    Workload {
        name: "exec-heavy",
        why: "large half-read batches over 8 MiB of state: KV execution and dirty-bucket re-hashing dominate; consensus cost amortised",
        txns_per_batch: 128,
        value_size: 256,
        write_pct: 50,
        keyspace: 32768,
        outstanding: 16,
        warmup_batches: 64,
        fabric: FabricKind::InProc,
        durable: false,
        silent: None,
    },
    Workload {
        name: "tcp-durable-large",
        why: "1 KiB values over loopback TCP with per-replica durable logs: the only workload where tcp framing, large payloads and append/fsync run",
        txns_per_batch: 32,
        value_size: 1024,
        write_pct: 90,
        keyspace: 4096,
        outstanding: 32,
        warmup_batches: 128,
        fabric: FabricKind::Tcp,
        durable: true,
        silent: None,
    },
    Workload {
        name: "one-silent",
        why: "ordering-small's batches with replica 3 silent from the start: Recording/Certifying timeouts, RVS and weak certificates carry the tail",
        txns_per_batch: 32,
        value_size: 48,
        write_pct: 90,
        keyspace: 4096,
        // Not ordering-small's 64: with a silent primary in every view,
        // batches queued behind a timeout spread the latency body so
        // thin that p50 moved 25 % between runs of one commit. At 16
        // (about one batch per replica-instance queue) p50 is the fast
        // path, p90 the timeouts, and both repeat.
        outstanding: 16,
        warmup_batches: 256,
        fabric: FabricKind::InProc,
        durable: false,
        silent: Some(3),
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Batches needed to write every key once.
    pub fn preload_batches(&self) -> u64 {
        self.keyspace.div_ceil(PRELOAD_TXNS)
    }

    /// Batches confirmed during set-up (preload, then warm-up).
    pub fn setup_batches(&self) -> u64 {
        self.preload_batches() + self.warmup_batches
    }

    /// Replicas that accept client batches (all but the silent one).
    pub fn targets(&self, n: u32) -> Vec<u32> {
        (0..n).filter(|r| Some(*r) != self.silent).collect()
    }
}

/// SplitMix64: the whole input stream is a function of the seed.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn value(&mut self, len: u32) -> Vec<u8> {
        let mut out = Vec::with_capacity(len as usize + 8);
        while out.len() < len as usize {
            out.extend_from_slice(&self.next().to_le_bytes());
        }
        out.truncate(len as usize);
        out
    }
}

/// Produces the run's batches in sequence: first the preload (every key
/// once, in order), then batches of the workload's shape, without end.
/// Keys, values and the read/write draw all derive from the seed.
pub struct Generator {
    spec: &'static Workload,
    rng: SplitMix64,
    next_seq: u64,
}

impl Generator {
    /// A generator for `spec` seeded with `seed`.
    pub fn new(spec: &'static Workload, seed: u64) -> Generator {
        Generator {
            spec,
            rng: SplitMix64(seed),
            next_seq: 0,
        }
    }

    /// Whether the next batch is still a preload batch.
    pub fn preloading(&self) -> bool {
        self.next_seq < self.spec.preload_batches()
    }

    /// The next batch and its sequence number (0-based; batch ids are
    /// `seq + 1` so they never collide with the no-op id or id 0).
    pub fn next_batch(&mut self) -> (u64, ClientBatch) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let txns: Vec<Transaction> = if seq < self.spec.preload_batches() {
            let first = seq * PRELOAD_TXNS;
            (first..(first + PRELOAD_TXNS).min(self.spec.keyspace))
                .map(|key| Transaction {
                    id: key,
                    op: Operation::Update {
                        key,
                        value: self.rng.value(self.spec.value_size),
                    },
                })
                .collect()
        } else {
            (0..u64::from(self.spec.txns_per_batch))
                .map(|i| {
                    let draw = self.rng.next();
                    let key = (draw >> 8) % self.spec.keyspace;
                    let op = if (draw & 0xFF) * 100 < u64::from(self.spec.write_pct) * 256 {
                        Operation::Update {
                            key,
                            value: self.rng.value(self.spec.value_size),
                        }
                    } else {
                        Operation::Read { key }
                    };
                    Transaction {
                        id: (seq << 16) | i,
                        op,
                    }
                })
                .collect()
        };
        let payload = encode_txns(&txns);
        let batch = ClientBatch {
            id: BatchId(seq + 1),
            origin: ClientId(0),
            digest: spotless_crypto::digest_bytes(&payload),
            txns: txns.len() as u32,
            txn_size: self.spec.value_size,
            created_at: SimTime::ZERO,
            payload,
        };
        (seq, batch)
    }
}

/// Shaped batches generated ahead of need, all instances together
/// (never all up front).
const AHEAD: usize = 32;
/// Most batches kept ahead for one instance.
const AHEAD_PER_INSTANCE: usize = 16;

/// Hands each closed-loop client its next batch.
///
/// §5's digest rule decides which consensus instance may propose a
/// batch, and a replica proposes a batch only in the views it leads
/// that instance. A loop that sends the next generated batch wherever a
/// slot frees lets the K outstanding batches drift between the
/// n × m (replica, instance) queues like customers of a closed queueing
/// network: some queues run dry and fill their views with no-ops while
/// others back up, for seconds at a time. The benchmark's K clients are
/// therefore each bound to one entry replica *and* one instance for the
/// whole run: a client's next batch is the next generated batch whose
/// digest falls to its instance, so every queue holds its share of the
/// load throughout. On `ordering-small` (8 runs each way, alternating)
/// that cut the run-to-run quartile spread of throughput from 4.9 % to
/// 3.0 % and of CPU per transaction from 4.7 % to 2.7 %, and p90
/// latency fell from 614 to 565 ms. The generator's stream stays a
/// function of the seed alone; batches for other instances wait in
/// bounded per-instance rings.
pub struct Supply {
    generator: Generator,
    cluster: ClusterConfig,
    ahead: Vec<VecDeque<ClientBatch>>,
}

impl Supply {
    /// A supply of `spec`'s batches, seeded with `seed`, for `cluster`.
    pub fn new(spec: &'static Workload, seed: u64, cluster: ClusterConfig) -> Supply {
        Supply {
            generator: Generator::new(spec, seed),
            ahead: vec![VecDeque::new(); cluster.m as usize],
            cluster,
        }
    }

    fn instance_of(&self, batch: &ClientBatch) -> usize {
        self.cluster
            .instance_for_digest(batch.digest.as_u64_tag())
            .as_usize()
    }

    /// Keeps `batch` for its instance's clients (dropped if that
    /// instance already has its fill waiting).
    fn keep(&mut self, batch: ClientBatch) {
        let ring = self.instance_of(&batch);
        if self.ahead[ring].len() < AHEAD_PER_INSTANCE {
            self.ahead[ring].push_back(batch);
        }
    }

    /// The next batch for a client bound to `instance`. Preload batches
    /// go out in key order whatever their digest.
    pub fn take(&mut self, instance: usize) -> ClientBatch {
        if self.generator.preloading() {
            return self.generator.next_batch().1;
        }
        if let Some(batch) = self.ahead[instance].pop_front() {
            return batch;
        }
        loop {
            let batch = self.generator.next_batch().1;
            if self.instance_of(&batch) == instance {
                return batch;
            }
            self.keep(batch);
        }
    }

    /// Generates one batch ahead of need. Returns `false` when there is
    /// nothing to generate (the preload is still going out, or enough
    /// batches wait already).
    pub fn generate_ahead(&mut self) -> bool {
        let waiting: usize = self.ahead.iter().map(VecDeque::len).sum();
        if self.generator.preloading() || waiting >= AHEAD {
            return false;
        }
        let batch = self.generator.next_batch().1;
        self.keep(batch);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotless_workload::decode_txns;

    #[test]
    fn same_seed_same_batches_other_seed_other_batches() {
        let spec = by_name("exec-heavy").expect("workload exists");
        let mut a = Generator::new(spec, 7);
        let mut b = Generator::new(spec, 7);
        let mut c = Generator::new(spec, 8);
        let mut differs = false;
        for _ in 0..spec.preload_batches() + 5 {
            let (sa, ba) = a.next_batch();
            let (sb, bb) = b.next_batch();
            let (_, bc) = c.next_batch();
            assert_eq!(sa, sb);
            assert_eq!(ba, bb);
            differs |= ba.payload != bc.payload;
        }
        assert!(differs, "the seed must reach the payload");
    }

    #[test]
    fn supply_serves_each_client_its_instance() {
        let spec = by_name("ordering-small").expect("workload exists");
        let cluster = ClusterConfig::new(4);
        let mut supply = Supply::new(spec, 9, cluster.clone());
        let instance_of = |b: &ClientBatch| {
            cluster
                .instance_for_digest(b.digest.as_u64_tag())
                .as_usize()
        };
        // The preload goes out in key order whatever the client's instance.
        assert!(!supply.generate_ahead(), "nothing ahead of the preload");
        for seq in 0..spec.preload_batches() {
            assert_eq!(supply.take(3).id, BatchId(seq + 1));
        }
        // Then every client gets batches of its own instance only, ids
        // stay unique, and what waits for the others stays bounded.
        let mut ids = std::collections::HashSet::new();
        for round in 0..200 {
            let instance = if round < 150 { round % 4 } else { 2 };
            let batch = supply.take(instance);
            assert_eq!(instance_of(&batch), instance);
            assert_eq!(batch.txns, spec.txns_per_batch);
            assert!(ids.insert(batch.id));
        }
        while supply.generate_ahead() {}
        let waiting: usize = supply.ahead.iter().map(VecDeque::len).sum();
        assert!((AHEAD..=4 * AHEAD_PER_INSTANCE).contains(&waiting));
        assert!(supply.ahead.iter().all(|r| r.len() <= AHEAD_PER_INSTANCE));
    }

    #[test]
    fn preload_covers_the_keyspace_once_then_shape_follows_the_spec() {
        for spec in &WORKLOADS {
            let mut g = Generator::new(spec, 1);
            let mut keys = Vec::new();
            for _ in 0..spec.preload_batches() {
                let (_, b) = g.next_batch();
                for t in decode_txns(&b.payload).expect("decodes") {
                    assert!(t.op.is_write());
                    keys.push(t.op.key());
                }
            }
            assert_eq!(keys, (0..spec.keyspace).collect::<Vec<_>>());
            let mut writes = 0u32;
            let mut total = 0u32;
            for _ in 0..50 {
                let (seq, b) = g.next_batch();
                assert_eq!(b.id, BatchId(seq + 1));
                assert_eq!(b.txns, spec.txns_per_batch);
                assert_eq!(b.digest, spotless_crypto::digest_bytes(&b.payload));
                for t in decode_txns(&b.payload).expect("decodes") {
                    assert!(t.op.key() < spec.keyspace);
                    total += 1;
                    if let Operation::Update { value, .. } = &t.op {
                        assert_eq!(value.len() as u32, spec.value_size);
                        writes += 1;
                    }
                }
            }
            let share = f64::from(writes) / f64::from(total) * 100.0;
            assert!(
                (share - f64::from(spec.write_pct)).abs() < 6.0,
                "{}: {share}% writes",
                spec.name
            );
        }
    }
}
