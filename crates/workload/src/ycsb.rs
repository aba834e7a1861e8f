//! YCSB workload generation (§6: "each client transaction queries a YCSB
//! table with half a million active records and 90 % of the transactions
//! write and modify records", via the Blockbench macro benchmarks).
//!
//! Key selection uses the classical Zipfian generator of Gray et al.
//! (as in the original YCSB driver) with a uniform fallback; values are
//! fixed-size byte strings matching the transaction-size experiments.

use rand::Rng as _;
use rand_chacha::ChaCha12Rng;

/// YCSB workload parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct YcsbConfig {
    /// Active records in the table (paper: 500 000).
    pub records: u64,
    /// Fraction of write (update) operations (paper: 0.9).
    pub write_ratio: f64,
    /// Value size in bytes per record write (paper sweeps 48–1600 B).
    pub value_size: u32,
    /// Zipfian skew θ; 0 means uniform. YCSB's default is 0.99; the
    /// Blockbench driver uses a mild skew — we default to 0.9.
    pub zipf_theta: f64,
}

impl Default for YcsbConfig {
    fn default() -> Self {
        YcsbConfig {
            records: 500_000,
            write_ratio: 0.9,
            value_size: 48,
            zipf_theta: 0.9,
        }
    }
}

/// One YCSB operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Operation {
    /// Read the record at `key`.
    Read {
        /// Record key.
        key: u64,
    },
    /// Overwrite the record at `key` with `value`.
    Update {
        /// Record key.
        key: u64,
        /// New record value.
        value: Vec<u8>,
    },
}

impl Operation {
    /// The key this operation touches.
    pub fn key(&self) -> u64 {
        match self {
            Operation::Read { key } | Operation::Update { key, .. } => *key,
        }
    }

    /// True iff the operation modifies state.
    pub fn is_write(&self) -> bool {
        matches!(self, Operation::Update { .. })
    }
}

/// One client transaction: a single YCSB operation with an id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Transaction {
    /// Unique transaction id within a run.
    pub id: u64,
    /// The operation.
    pub op: Operation,
}

/// Zipfian key chooser (Gray et al. / YCSB's `ZipfianGenerator`).
#[derive(Clone, Debug)]
struct Zipfian {
    items: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    fn new(items: u64, theta: f64) -> Zipfian {
        assert!(items > 0);
        let zetan = Self::zeta(items, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / items as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipfian {
            items,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Direct summation; items is fixed per run so this happens once.
        // For 500k records this is ~500k flops — microseconds.
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    fn next(&self, rng: &mut ChaCha12Rng) -> u64 {
        let u: f64 = rng.random();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let spread = (self.eta * u - self.eta + 1.0).powf(self.alpha);
        ((self.items as f64) * spread) as u64 % self.items
    }
}

/// Deterministic YCSB transaction stream.
pub struct WorkloadGen {
    cfg: YcsbConfig,
    rng: ChaCha12Rng,
    zipf: Option<Zipfian>,
    next_id: u64,
}

impl WorkloadGen {
    /// A generator seeded for reproducibility.
    pub fn new(cfg: YcsbConfig, seed: u64) -> WorkloadGen {
        use rand::SeedableRng as _;
        let zipf = if cfg.zipf_theta > 0.0 {
            Some(Zipfian::new(cfg.records, cfg.zipf_theta))
        } else {
            None
        };
        WorkloadGen {
            rng: ChaCha12Rng::seed_from_u64(seed),
            zipf,
            next_id: 0,
            cfg,
        }
    }

    /// The workload configuration.
    pub fn config(&self) -> &YcsbConfig {
        &self.cfg
    }

    fn next_key(&mut self) -> u64 {
        match &self.zipf {
            Some(z) => z.next(&mut self.rng),
            None => self.rng.random_range(0..self.cfg.records),
        }
    }

    /// Generates the next transaction.
    pub fn next_txn(&mut self) -> Transaction {
        let id = self.next_id;
        self.next_id += 1;
        let key = self.next_key();
        let op = if self.rng.random::<f64>() < self.cfg.write_ratio {
            let mut value = vec![0u8; self.cfg.value_size as usize];
            // Cheap deterministic fill; contents only matter for digests.
            for (i, b) in value.iter_mut().enumerate() {
                *b = (id as u8).wrapping_add(i as u8).wrapping_mul(31);
            }
            Operation::Update { key, value }
        } else {
            Operation::Read { key }
        };
        Transaction { id, op }
    }

    /// Generates a batch of `count` transactions.
    pub fn next_batch(&mut self, count: usize) -> Vec<Transaction> {
        (0..count).map(|_| self.next_txn()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_ratio_close_to_configured() {
        let mut generator = WorkloadGen::new(YcsbConfig::default(), 7);
        let txns = generator.next_batch(10_000);
        let writes = txns.iter().filter(|t| t.op.is_write()).count();
        let ratio = writes as f64 / txns.len() as f64;
        assert!((0.88..=0.92).contains(&ratio), "write ratio {ratio}");
    }

    #[test]
    fn keys_stay_in_range() {
        let cfg = YcsbConfig {
            records: 1000,
            ..YcsbConfig::default()
        };
        let mut generator = WorkloadGen::new(cfg, 3);
        for t in generator.next_batch(5000) {
            assert!(t.op.key() < 1000);
        }
    }

    #[test]
    fn zipfian_is_skewed_uniform_is_not() {
        let head_mass = |theta: f64| -> f64 {
            let cfg = YcsbConfig {
                records: 10_000,
                zipf_theta: theta,
                ..YcsbConfig::default()
            };
            let mut generator = WorkloadGen::new(cfg, 11);
            let txns = generator.next_batch(20_000);
            let hot = txns.iter().filter(|t| t.op.key() < 100).count();
            hot as f64 / txns.len() as f64
        };
        let skewed = head_mass(0.9);
        let uniform = head_mass(0.0);
        assert!(
            skewed > 3.0 * uniform,
            "zipf head {skewed} vs uniform head {uniform}"
        );
        // Uniform: ~1% of keys ⇒ ~1% of mass.
        assert!((0.005..0.02).contains(&uniform), "{uniform}");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let mut a = WorkloadGen::new(YcsbConfig::default(), 5);
        let mut b = WorkloadGen::new(YcsbConfig::default(), 5);
        assert_eq!(a.next_batch(100), b.next_batch(100));
        let mut c = WorkloadGen::new(YcsbConfig::default(), 6);
        assert_ne!(a.next_batch(100), c.next_batch(100));
    }

    #[test]
    fn value_size_matches_config() {
        let cfg = YcsbConfig {
            value_size: 1600,
            write_ratio: 1.0,
            ..YcsbConfig::default()
        };
        let mut generator = WorkloadGen::new(cfg, 1);
        match generator.next_txn().op {
            Operation::Update { value, .. } => assert_eq!(value.len(), 1600),
            op => panic!("expected update, got {op:?}"),
        }
    }

    #[test]
    fn transaction_ids_are_sequential() {
        let mut generator = WorkloadGen::new(YcsbConfig::default(), 1);
        let txns = generator.next_batch(5);
        let ids: Vec<u64> = txns.iter().map(|t| t.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }
}
