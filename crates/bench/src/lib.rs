//! Shared machinery for the figure-reproduction benchmarks.
//!
//! Every table and figure of the paper's §6 has one `[[bench]]` target
//! (harness = false) in this crate; each target sweeps the figure's
//! parameter, runs every protocol involved on the discrete-event
//! simulator, prints the figure's rows, and appends machine-readable
//! JSON to `crates/bench/target/spotless-bench/<name>.jsonl`.
//!
//! **Scaling.** The paper's runs are 130 s on 128 cloud machines; the
//! default ("quick") mode scales each experiment to laptop runtimes
//! (smaller `n` standing in for 128, shorter measured windows) while
//! preserving every *relative* comparison. Set `SPOTLESS_FULL=1` for
//! paper-scale parameters (hours of simulation). EXPERIMENTS.md records
//! the mode used for every recorded number.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use spotless_baselines::{HotStuffReplica, PbftReplica, RccReplica};
use spotless_core::{ReplicaConfig, SpotLessReplica};
use spotless_simnet::{
    ClosedLoopDriver, Driver, Injector, SimConfig, SimReport, Simulation, Topology,
};
use spotless_types::{
    ByzantineBehavior, ClientBatch, ClusterConfig, ReplicaId, ResourceModel, SimDuration, SimTime,
};
use std::io::Write as _;

/// The five protocols of the evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Protocol {
    /// This paper's protocol.
    SpotLess,
    /// Out-of-order MAC-based PBFT.
    Pbft,
    /// Concurrent PBFT (RCC).
    Rcc,
    /// Chained HotStuff.
    HotStuff,
    /// Narwhal-HS.
    Narwhal,
}

impl Protocol {
    /// Display name as used in the paper's legends.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::SpotLess => "SpotLess",
            Protocol::Pbft => "PBFT",
            Protocol::Rcc => "RCC",
            Protocol::HotStuff => "HotStuff",
            Protocol::Narwhal => "Narwhal-HS",
        }
    }

    /// All five, in the paper's legend order.
    pub fn all() -> [Protocol; 5] {
        [
            Protocol::SpotLess,
            Protocol::HotStuff,
            Protocol::Rcc,
            Protocol::Pbft,
            Protocol::Narwhal,
        ]
    }
}

/// One experiment point.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// Protocol under test.
    pub protocol: Protocol,
    /// Replica count `n`.
    pub n: u32,
    /// Concurrent instances `m` (SpotLess/RCC; ignored by the others).
    pub m: u32,
    /// Transactions per batch.
    pub batch_txns: u32,
    /// Bytes per transaction.
    pub txn_size: u32,
    /// Client batches kept outstanding per replica (offered load).
    pub load: u32,
    /// Replicas crashed from t = 0 (non-responsive, A1).
    pub crashes: u32,
    /// Crash the same replicas at this time instead of t = 0 (Figure 12).
    pub crash_at: Option<SimDuration>,
    /// Byzantine behaviour of the faulty replicas (A2–A4; `Crash` means
    /// plain A1 non-responsiveness).
    pub attack: ByzantineBehavior,
    /// CPU cores per replica (Figure 14(a)).
    pub cores: u32,
    /// NIC bandwidth in Mbit/s (Figure 14(b)).
    pub bandwidth_mbps: u64,
    /// Cloud regions the replicas spread over (Figure 14(c,d)).
    pub regions: u32,
    /// Warm-up excluded from measurement.
    pub warmup: SimDuration,
    /// Measured window.
    pub duration: SimDuration,
    /// Timeline bucket (Figure 12).
    pub timeline_bucket: SimDuration,
    /// RNG seed.
    pub seed: u64,
}

impl RunSpec {
    /// A default-quick spec for `protocol` at `n` replicas.
    pub fn new(protocol: Protocol, n: u32) -> RunSpec {
        RunSpec {
            protocol,
            n,
            m: n,
            batch_txns: 100,
            txn_size: 48,
            load: 8,
            crashes: 0,
            crash_at: None,
            attack: ByzantineBehavior::Crash,
            cores: 16,
            bandwidth_mbps: 4000,
            regions: 1,
            warmup: SimDuration::from_millis(400),
            duration: measure_window(),
            timeline_bucket: SimDuration::from_secs(5),
            seed: 0xC0FFEE,
        }
    }

    fn cluster(&self) -> ClusterConfig {
        let m = self.m.clamp(1, self.n);
        let mut c = ClusterConfig::with_instances(self.n, m);
        c.batch_txns = self.batch_txns;
        c.txn_size = self.txn_size;
        if self.regions > 1 {
            // §6.3: timeouts are calibrated to the deployment's view
            // duration; WAN links need them scaled with the RTT.
            c.calibrate_timeouts(Topology::global(self.n, self.regions).max_one_way_latency());
        }
        c
    }

    fn sim_config(&self) -> SimConfig {
        let cluster = self.cluster();
        let mut cfg = SimConfig::new(cluster);
        cfg.resources = ResourceModel::default()
            .with_cores(self.cores)
            .with_bandwidth_mbps(self.bandwidth_mbps);
        cfg.topology = if self.regions > 1 {
            Topology::global(self.n, self.regions)
        } else {
            Topology::lan(self.n)
        };
        cfg.warmup = self.warmup;
        cfg.duration = self.duration;
        cfg.timeline_bucket = self.timeline_bucket;
        cfg.seed = self.seed;
        // Faults: the last `crashes` ids misbehave (replica 0 stays
        // honest so PBFT's base primary survives, as in the paper).
        let at = self
            .crash_at
            .map(|d| SimTime::ZERO + d)
            .unwrap_or(SimTime::ZERO);
        if self.attack == ByzantineBehavior::Crash {
            for i in 0..self.crashes.min(self.n) {
                cfg.crash_at[(self.n - 1 - i) as usize] = Some(at);
            }
        }
        cfg
    }

    fn faulty_mask(&self) -> Vec<bool> {
        (0..self.n).map(|r| r >= self.n - self.crashes).collect()
    }
}

/// Window length for the measured period (quick vs full).
pub fn measure_window() -> SimDuration {
    if is_full() {
        SimDuration::from_secs(10)
    } else {
        SimDuration::from_secs_f64(1.2)
    }
}

/// True when `SPOTLESS_FULL=1` requests paper-scale runs.
pub fn is_full() -> bool {
    std::env::var("SPOTLESS_FULL")
        .map(|v| v != "0" && !v.is_empty())
        .unwrap_or(false)
}

/// The stand-in for the paper's 128-replica deployments: 128 in full
/// mode, 16 in quick mode (every protocol keeps its relative standing;
/// see EXPERIMENTS.md for quick-vs-full calibration).
pub fn big_n() -> u32 {
    if is_full() {
        128
    } else {
        16
    }
}

/// Saturation load in client batches per primary: enough outstanding
/// work to keep every instance's mempool non-empty (the paper drives
/// its throughput experiments at 100+ batches per primary; Figure 10
/// sweeps this knob explicitly).
pub fn sat_load() -> u32 {
    if is_full() {
        200
    } else {
        64
    }
}

/// The scalability sweep of Figure 7(a).
pub fn n_sweep() -> Vec<u32> {
    if is_full() {
        vec![4, 16, 32, 64, 96, 128]
    } else {
        vec![4, 8, 16, 32]
    }
}

/// Closed-loop driver that homes every batch at replica 0 — the load
/// pattern for single-primary PBFT (clients know the primary, §6.2).
#[derive(Clone, Debug)]
pub struct LeaderLoopDriver {
    outstanding: u32,
}

impl LeaderLoopDriver {
    /// Keeps `outstanding` batches in flight at the leader.
    pub fn new(outstanding: u32) -> LeaderLoopDriver {
        LeaderLoopDriver { outstanding }
    }
}

impl Driver for LeaderLoopDriver {
    fn start(&mut self, inj: &mut Injector<'_>) {
        for _ in 0..self.outstanding {
            let batch = inj.new_batch(ReplicaId(0));
            inj.submit(ReplicaId(0), batch);
        }
    }

    fn batch_complete(
        &mut self,
        _batch: &ClientBatch,
        _latency: SimDuration,
        inj: &mut Injector<'_>,
    ) {
        let fresh = inj.new_batch(ReplicaId(0));
        inj.submit(ReplicaId(0), fresh);
    }

    fn batch_timeout(&mut self, batch: &ClientBatch, attempts: u32, inj: &mut Injector<'_>) {
        let n = inj.cluster().n;
        let next = ReplicaId((attempts + 1) % n);
        inj.resend(next, batch.clone(), attempts + 1);
    }
}

/// Runs one experiment point.
pub fn run(spec: &RunSpec) -> SimReport {
    let cluster = spec.cluster();
    let cfg = spec.sim_config();
    let faulty = spec.faulty_mask();
    match spec.protocol {
        Protocol::SpotLess => {
            let nodes: Vec<SpotLessReplica> = cluster
                .replicas()
                .map(|r| {
                    let behavior = if faulty[r.as_usize()] {
                        spec.attack
                    } else {
                        ByzantineBehavior::Honest
                    };
                    SpotLessReplica::new(ReplicaConfig {
                        cluster: cluster.clone(),
                        me: r,
                        behavior,
                        faulty: faulty.clone(),
                    })
                })
                .collect();
            Simulation::new(cfg, nodes, ClosedLoopDriver::new(spec.load)).run()
        }
        Protocol::Pbft => {
            let nodes: Vec<PbftReplica> = cluster
                .replicas()
                .map(|r| PbftReplica::new(cluster.clone(), r))
                .collect();
            let total = spec.load * spec.n;
            Simulation::new(cfg, nodes, LeaderLoopDriver::new(total)).run()
        }
        Protocol::Rcc => {
            let nodes: Vec<RccReplica> = cluster
                .replicas()
                .map(|r| RccReplica::new(cluster.clone(), r))
                .collect();
            Simulation::new(cfg, nodes, ClosedLoopDriver::new(spec.load)).run()
        }
        Protocol::HotStuff | Protocol::Narwhal => {
            let narwhal = spec.protocol == Protocol::Narwhal;
            let nodes: Vec<HotStuffReplica> = cluster
                .replicas()
                .map(|r| {
                    if faulty[r.as_usize()] && spec.attack != ByzantineBehavior::Crash {
                        HotStuffReplica::with_behavior(
                            cluster.clone(),
                            r,
                            spec.attack,
                            faulty.clone(),
                        )
                    } else if narwhal {
                        HotStuffReplica::narwhal(cluster.clone(), r)
                    } else {
                        HotStuffReplica::new(cluster.clone(), r)
                    }
                })
                .collect();
            Simulation::new(cfg, nodes, ClosedLoopDriver::new(spec.load)).run()
        }
    }
}

/// Table printer that mirrors the figure's rows and records JSONL.
///
/// Besides the append-per-row `<name>.jsonl`, dropping the table writes
/// a self-contained `BENCH_<name>.json` snapshot (name, scale mode,
/// columns, all rows) — the machine-readable artifact CI's bench-smoke
/// job uploads so the performance trajectory survives across PRs.
pub struct FigureTable {
    name: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
    sink: Option<std::fs::File>,
}

impl FigureTable {
    /// Starts a table for figure `name` with the given columns.
    pub fn new(name: &str, columns: &[&str]) -> FigureTable {
        println!(
            "\n=== {name} {}===",
            if is_full() {
                "(FULL scale) "
            } else {
                "(quick scale) "
            }
        );
        let header = columns.join(" | ");
        println!("{header}");
        println!("{}", "-".repeat(header.len()));
        let sink = std::fs::create_dir_all("target/spotless-bench")
            .ok()
            .and_then(|()| {
                std::fs::File::create(format!("target/spotless-bench/{name}.jsonl")).ok()
            });
        FigureTable {
            name: name.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            sink,
        }
    }

    /// Adds one row (stringified cells, aligned with the columns).
    pub fn row(&mut self, cells: &[String]) {
        println!("{}", cells.join(" | "));
        if let Some(f) = &mut self.sink {
            let obj: serde_json::Map<String, serde_json::Value> = self
                .columns
                .iter()
                .zip(cells)
                .map(|(c, v)| (c.clone(), serde_json::Value::String(v.clone())))
                .collect();
            let mut line =
                serde_json::to_string(&serde_json::Value::Object(obj)).unwrap_or_default();
            line.push('\n');
            let _ = f.write_all(line.as_bytes());
        }
        self.rows.push(cells.to_vec());
    }

    /// The figure's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn snapshot_json(&self) -> serde_json::Value {
        let rows: Vec<serde_json::Value> = self
            .rows
            .iter()
            .map(|cells| {
                let obj: serde_json::Map<String, serde_json::Value> = self
                    .columns
                    .iter()
                    .zip(cells)
                    .map(|(c, v)| (c.clone(), serde_json::Value::String(v.clone())))
                    .collect();
                serde_json::Value::Object(obj)
            })
            .collect();
        let mut top = serde_json::Map::new();
        top.insert("bench".into(), serde_json::Value::String(self.name.clone()));
        top.insert(
            "mode".into(),
            serde_json::Value::String(if is_full() { "full" } else { "quick" }.into()),
        );
        top.insert("rows".into(), serde_json::Value::Array(rows));
        serde_json::Value::Object(top)
    }
}

impl Drop for FigureTable {
    fn drop(&mut self) {
        // Written on drop, not per row, so the snapshot is complete even
        // when a bench adds rows after interleaved work. Assertion
        // failures still produce the rows recorded so far — useful when
        // diagnosing a tripped floor from the artifact alone.
        if std::fs::create_dir_all("target/spotless-bench").is_err() {
            return;
        }
        let path = format!("target/spotless-bench/BENCH_{}.json", self.name);
        if let Ok(mut f) = std::fs::File::create(path) {
            let mut text = serde_json::to_string(&self.snapshot_json()).unwrap_or_default();
            text.push('\n');
            let _ = f.write_all(text.as_bytes());
        }
    }
}

/// Throughput cell: `ktxn/s` with one decimal.
pub fn ktps(report: &SimReport) -> String {
    format!("{:8.1} ktxn/s", report.throughput_tps / 1_000.0)
}

/// Latency cell: seconds with 3 decimals.
pub fn lat(report: &SimReport) -> String {
    format!("{:6.3} s", report.avg_latency_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_defaults() {
        if !is_full() {
            assert_eq!(big_n(), 16);
            assert!(n_sweep().contains(&4));
        }
    }

    #[test]
    fn spec_builds_valid_configs() {
        let spec = RunSpec::new(Protocol::SpotLess, 8);
        let cluster = spec.cluster();
        assert_eq!(cluster.n, 8);
        assert_eq!(cluster.m, 8);
        let cfg = spec.sim_config();
        assert_eq!(cfg.crash_at.len(), 8);
    }

    #[test]
    fn crashes_mark_highest_ids() {
        let mut spec = RunSpec::new(Protocol::SpotLess, 8);
        spec.crashes = 2;
        let cfg = spec.sim_config();
        assert!(cfg.crash_at[7].is_some());
        assert!(cfg.crash_at[6].is_some());
        assert!(cfg.crash_at[0].is_none());
        assert_eq!(
            spec.faulty_mask(),
            vec![false, false, false, false, false, false, true, true]
        );
    }

    #[test]
    fn tiny_runs_for_every_protocol() {
        for protocol in Protocol::all() {
            let mut spec = RunSpec::new(protocol, 4);
            spec.duration = SimDuration::from_millis(600);
            spec.load = 6;
            let report = run(&spec);
            assert!(
                report.txns > 0,
                "{} made no progress: {report:?}",
                protocol.name()
            );
        }
    }
}
