//! One run: set-up → measured window → drain → correctness gate.
//!
//! **Load model.** Closed loop: a BFT client waits for `f + 1` matching
//! replies (§5), so `K` clients keep one batch outstanding each and a
//! confirmed batch immediately admits that client's next. Every client
//! is bound to one entry replica and one consensus instance (see
//! [`Supply`]). One thread generates, submits and collects for all of
//! them; it owns the `Inform` receiver, so it can hold `K` batches
//! outstanding without a thread per batch. No message delay is injected
//! between replicas: latency is processor time only.

use crate::clock::now_ns;
use crate::cluster::{self, Cluster, N};
use crate::matcher::Matcher;
use crate::proc;
use crate::speed::{SpeedProbe, REFERENCE_KERNEL_NS};
use crate::stats::{Window, WindowSummary};
use crate::trace::{DriverLog, TracedFabric, TracedNode, Tracer};
use crate::workloads::{Supply, Workload};
use spotless_core::{Message, ReplicaConfig, SpotLessReplica};
use spotless_runtime::{CommittedEntry, Inform};
use spotless_storage::{DurableLedger, DurableLedgerOptions};
use spotless_types::{BatchId, Digest, ReplicaId};
use std::collections::{HashMap, HashSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A batch unconfirmed this long after submission has failed: it counts
/// in `attempted`, frees its slot, and fails the run on a fault-free
/// workload.
const FAIL_AFTER_NS: u64 = 10_000_000_000;
/// Period of the wake-up ticks that let the collector notice timeouts
/// and window edges while no inform arrives.
const TICK: Duration = Duration::from_millis(10);

/// Per-run scratch directory under `benchmark/out/`, removed on drop so
/// repeats and back-to-back runs never see each other's files.
pub struct RunDir(PathBuf);

impl RunDir {
    /// Creates `out_dir/run-<pid>-<clock>`.
    pub fn create(out_dir: &Path) -> std::io::Result<RunDir> {
        let dir = out_dir.join(format!("run-{}-{}", std::process::id(), now_ns()));
        std::fs::create_dir_all(&dir)?;
        Ok(RunDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What the traced pass hands to the replay step.
pub struct TraceCapture {
    /// The span store.
    pub tracer: Arc<Tracer>,
    /// Sampled broadcast messages.
    pub messages: Vec<Message>,
    /// What the driver saw, for the joins.
    pub log: DriverLog,
    /// One honest replica's executed commits, in commit order.
    pub commits: Vec<CommittedEntry>,
}

/// Everything one run measured.
#[derive(Default)]
pub struct RunResult {
    /// Start of set-up to the last warm-up batch confirmed, seconds as
    /// measured.
    pub setup_s: f64,
    /// Median speed-probe kernel time over set-up, ns.
    pub setup_kernel_ns: f64,
    /// The window's slices as measured.
    pub window: WindowSummary,
    /// Process user + system CPU consumed in each slice, µs.
    pub slice_cpu_us: Vec<u64>,
    /// Envelopes handed to the fabrics in each slice, all replicas.
    pub slice_net_msgs: Vec<u64>,
    /// Median speed-probe kernel time in each slice, ns.
    pub slice_kernel_ns: Vec<f64>,
    /// Process CPU over the window, µs.
    pub cpu_us: u64,
    /// Window length, seconds.
    pub seconds: f64,
    /// Batches submitted (set-up, window and drain).
    pub attempted: u64,
    /// Batches that expired unconfirmed.
    pub failed: u64,
    /// Correctness violations; empty means correct.
    pub violations: Vec<String>,
    /// Longest a free slot waited for the generator inside the window, ms.
    pub generator_lag_ms_max: f64,
    /// Context switches over the window.
    pub ctx_switches: u64,
    /// Peak resident set at the end of the window, MiB.
    pub peak_rss_mb: f64,
    /// Most threads alive at a slice boundary.
    pub threads: u64,
    /// Envelopes handed to the fabrics over the window, all replicas.
    pub net_msgs: u64,
    /// Payload bytes handed to the fabrics over the window.
    pub net_bytes: u64,
    /// Growth of the durable stores over the window, bytes.
    pub log_bytes: u64,
    /// Present on traced runs.
    pub trace: Option<TraceCapture>,
}

fn honest_node(me: ReplicaId) -> SpotLessReplica {
    SpotLessReplica::new(ReplicaConfig::honest(cluster::cluster_config(), me))
}

fn dir_bytes(dirs: &[PathBuf]) -> u64 {
    fn walk(dir: &Path) -> u64 {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return 0;
        };
        entries
            .flatten()
            .map(|e| match e.metadata() {
                Ok(m) if m.is_dir() => walk(&e.path()),
                Ok(m) => m.len(),
                Err(_) => 0,
            })
            .sum()
    }
    dirs.iter().map(|d| walk(d)).sum()
}

/// Counters read at both edges of the window.
struct Edge {
    usage: proc::Usage,
    net_msgs: u64,
    net_bytes: u64,
}

fn edge(cluster: &Cluster) -> Edge {
    Edge {
        usage: proc::usage(),
        net_msgs: cluster.handles.iter().map(|h| h.net().msgs_sent()).sum(),
        net_bytes: cluster.handles.iter().map(|h| h.net().bytes_sent()).sum(),
    }
}

/// The collector half of the loop: informs in, confirmations and freed
/// slots out.
struct Collector {
    traced: bool,
    setup_total: u64,
    matcher: Matcher,
    confirmed: Vec<(BatchId, Digest)>,
    setup_done: u64,
    failed: u64,
    window: Option<Window>,
    /// The free closed-loop slots and when each was freed.
    free: VecDeque<(usize, u64)>,
    drv: DriverLog,
}

impl Collector {
    fn collect(&mut self, inform: Inform) {
        if inform.from.0 == u32::MAX {
            return; // wake-up tick
        }
        let now = now_ns();
        if self.traced {
            self.drv.informs.push((inform.batch.0, inform.from.0, now));
        }
        let Some(done) = self
            .matcher
            .on_inform(inform.from, inform.batch, inform.result, now)
        else {
            return;
        };
        self.free.push_back((done.slot, now));
        self.confirmed.push((done.id, done.result));
        if done.seq < self.setup_total {
            self.setup_done += 1;
        }
        if let Some(w) = self.window.as_mut() {
            let latency_ms = (done.confirmed_ns - done.submitted_ns) as f64 / 1e6;
            if w.record(done.confirmed_ns, done.txns, latency_ms) && self.traced {
                self.drv
                    .confirmations
                    .push((done.first_inform_ns, done.confirmed_ns));
            }
        }
    }

    fn expire(&mut self, now: u64) {
        for (_, seq, slot) in self.matcher.expire(now, FAIL_AFTER_NS) {
            self.failed += 1;
            self.free.push_back((slot, now));
            if seq < self.setup_total {
                self.setup_done += 1; // a lost set-up batch must not hang the run
            }
        }
    }
}

/// Runs `spec` once with inputs derived from `seed`, measuring for
/// `seconds`. `warmup_div` shrinks the warm-up for `--smoke`.
pub async fn run_once(
    spec: &'static Workload,
    seed: u64,
    seconds: f64,
    warmup_div: u64,
    traced: bool,
    out_dir: &Path,
) -> Result<RunResult, String> {
    let setup_start_ns = now_ns();
    let probe = SpeedProbe::start();
    let run_dir = RunDir::create(out_dir).map_err(|e| format!("create run dir: {e}"))?;
    let (endpoints, tcp) = cluster::endpoints(spec)
        .await
        .map_err(|e| format!("fabric set-up: {e}"))?;
    let tracer = traced.then(|| Tracer::new(N));
    let samples: Arc<Mutex<Vec<Message>>> = Arc::default();
    let spawned = match &tracer {
        None => Cluster::spawn(spec, endpoints, tcp, run_dir.path(), honest_node),
        Some(t) => {
            let endpoints = endpoints
                .into_iter()
                .enumerate()
                .map(|(i, (f, rx))| (TracedFabric::new(f, ReplicaId(i as u32), t.clone()), rx))
                .collect();
            Cluster::spawn(spec, endpoints, tcp, run_dir.path(), |me| {
                TracedNode::new(honest_node(me), me, t.clone(), samples.clone())
            })
        }
    };
    let mut cluster = spawned.map_err(|e| format!("spawn: {e}"))?;

    // Wake-up ticks: an inform for a batch nobody tracks.
    let stop_ticks = Arc::new(AtomicBool::new(false));
    let ticker = {
        let stop = stop_ticks.clone();
        let tx = cluster.inform_tx.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(TICK);
                let tick = Inform {
                    from: ReplicaId(u32::MAX),
                    batch: BatchId(0),
                    result: Digest::ZERO,
                };
                if tx.send(tick).is_err() {
                    break;
                }
            }
        })
    };

    let cfg = cluster::cluster_config();
    let targets = spec.targets(N);
    let warmup = (spec.warmup_batches / warmup_div).max(1);
    let mut supply = Supply::new(spec, seed, cfg.clone());
    // The K closed-loop clients, each bound to an entry replica and an
    // instance (see `Supply`): client c enters at `targets[c mod |targets|]`.
    let slots: Vec<(u32, usize)> = (0..spec.outstanding)
        .map(|c| {
            (
                targets[c % targets.len()],
                c / targets.len() % cfg.m as usize,
            )
        })
        .collect();
    let mut st = Collector {
        traced,
        setup_total: spec.preload_batches() + warmup,
        matcher: Matcher::new(cfg.weak_quorum() as usize),
        confirmed: Vec::new(),
        setup_done: 0,
        failed: 0,
        window: None,
        free: (0..spec.outstanding).map(|c| (c, setup_start_ns)).collect(),
        drv: DriverLog {
            start_ns: 0,
            end_ns: 0,
            batches: 0,
            submits: HashMap::new(),
            informs: Vec::new(),
            confirmations: Vec::new(),
        },
    };
    let mut attempted = 0u64;
    let mut setup_s = 0.0;
    // Counters at the start of every slice and at the end of the window.
    let mut edges: Vec<Edge> = Vec::new();
    let mut closed = false;
    let mut lag_ns_max = 0u64;
    let mut threads = 0u64;
    let (mut log_bytes, mut last_dir_bytes, mut next_sample_ns) = (0u64, 0u64, u64::MAX);
    let mut last_expiry_ns = setup_start_ns;

    loop {
        // 1. Everything the replicas have reported so far.
        while let Some(inform) = cluster.informs.try_recv() {
            st.collect(inform);
        }
        let now = now_ns();
        if now - last_expiry_ns > 100_000_000 {
            last_expiry_ns = now;
            st.expire(now);
        }

        // 2. Window edges.
        if st.window.is_none() && st.setup_done >= st.setup_total {
            setup_s = (now - setup_start_ns) as f64 / 1e9;
            if let Some(t) = &tracer {
                t.start_sampling();
            }
            last_dir_bytes = dir_bytes(&cluster.storage_dirs);
            next_sample_ns = now;
            st.window = Some(Window::new(now, seconds));
        }
        if let Some(w) = &st.window {
            if !closed && now >= w.end_ns() {
                closed = true;
                edges.push(edge(&cluster));
                log_bytes += dir_bytes(&cluster.storage_dirs).saturating_sub(last_dir_bytes);
            }
            while !closed && now >= next_sample_ns {
                // At the start of each slice (every slice, should the
                // whole process have stalled across one): the counters,
                // the thread count, and store growth summed over slices
                // (pruning after a snapshot shrinks the directory; only
                // growth is bytes written).
                next_sample_ns += w.slice_ns();
                edges.push(edge(&cluster));
                threads = threads.max(proc::threads());
                let bytes = dir_bytes(&cluster.storage_dirs);
                log_bytes += bytes.saturating_sub(last_dir_bytes);
                last_dir_bytes = bytes;
            }
        }
        let submitting = !closed;
        if !submitting && st.matcher.outstanding() == 0 {
            break;
        }

        // 3. Every free slot's client submits its next batch.
        let ready = if submitting { st.free.len() } else { 0 };
        for (slot, free_at) in st.free.drain(..ready) {
            let (target, instance) = slots[slot];
            let batch = supply.take(instance);
            let at = now_ns();
            if st.window.as_ref().is_some_and(|w| at < w.end_ns()) {
                lag_ns_max = lag_ns_max.max(at - free_at);
            }
            st.matcher.track(batch.id, attempted, slot, batch.txns, at);
            if traced {
                st.drv.submits.insert(batch.id.0, (at, target));
            }
            attempted += 1;
            cluster.handles[target as usize].submit(batch);
        }

        // 4. Generate ahead while there is nothing to collect; block
        //    (until an inform or a tick) only once enough batches wait.
        if submitting && supply.generate_ahead() {
            continue;
        }
        if let Some(inform) = cluster.informs.recv().await {
            st.collect(inform);
        }
    }

    stop_ticks.store(true, Ordering::Relaxed);
    let peak_rss_mb = proc::usage().peak_rss_mb;
    let stopped = cluster.shutdown().await;
    let _ = ticker.join();

    let Collector {
        window,
        confirmed,
        failed,
        mut drv,
        ..
    } = st;
    let window = window.expect("loop exits only after the window closed");
    let (start_ns, end_ns, slice_ns) = (window.start_ns(), window.end_ns(), window.slice_ns());
    let summary = window.summarize();
    let (opened, closed) = (&edges[0], &edges[edges.len() - 1]);
    let cpu_us = closed.usage.cpu_us - opened.usage.cpu_us;
    let slice_cpu_us = edges
        .windows(2)
        .map(|e| e[1].usage.cpu_us - e[0].usage.cpu_us)
        .collect();
    let slice_net_msgs = edges
        .windows(2)
        .map(|e| e[1].net_msgs - e[0].net_msgs)
        .collect();
    // A slice (or a set-up) without a probe sample is taken at reference
    // speed; the probe runs every few milliseconds, so that is a window
    // shorter than any the benchmark is measured with.
    let kernel_ns = |from, to| probe.kernel_ns(from, to).unwrap_or(REFERENCE_KERNEL_NS);
    let slice_kernel_ns = (0..summary.slices.len() as u64)
        .map(|i| kernel_ns(start_ns + i * slice_ns, start_ns + (i + 1) * slice_ns))
        .collect();
    let setup_kernel_ns = kernel_ns(setup_start_ns, start_ns);
    drop(probe);

    // Correctness gate.
    let mut violations = Vec::new();
    if !stopped {
        violations.push("a replica did not stop within 10 s".to_string());
    }
    if failed > 0 && spec.silent.is_none() {
        violations.push(format!("{failed} batches failed on a fault-free workload"));
    }
    let entries = cluster.commits.snapshot();
    let reference = check_commit_logs(spec, &entries, &confirmed, &mut violations);
    if spec.durable {
        check_stores(&cluster.storage_dirs, &confirmed, &mut violations);
    }

    let trace = tracer.map(|tracer| {
        drv.start_ns = start_ns;
        drv.end_ns = end_ns;
        drv.batches = summary.batches;
        TraceCapture {
            tracer,
            messages: std::mem::take(&mut samples.lock().expect("sample lock")),
            log: drv,
            commits: entries
                .into_iter()
                .filter(|e| Some(e.replica.0) == reference)
                .collect(),
        }
    });

    Ok(RunResult {
        setup_s,
        setup_kernel_ns,
        slice_cpu_us,
        slice_net_msgs,
        slice_kernel_ns,
        cpu_us,
        seconds,
        window: summary,
        attempted,
        failed,
        violations,
        generator_lag_ms_max: lag_ns_max as f64 / 1e6,
        ctx_switches: closed.usage.ctx_switches - opened.usage.ctx_switches,
        peak_rss_mb,
        threads,
        net_msgs: closed.net_msgs - opened.net_msgs,
        net_bytes: closed.net_bytes - opened.net_bytes,
        log_bytes,
        trace,
    })
}

/// Every honest replica must show the same batch order with the same
/// state digest per position, execute no batch twice, and hold every
/// client-confirmed batch with the digest the client was told. Returns
/// the replica with the longest log (the replay step's reference).
fn check_commit_logs(
    spec: &Workload,
    entries: &[CommittedEntry],
    confirmed: &[(BatchId, Digest)],
    violations: &mut Vec<String>,
) -> Option<u32> {
    let mut logs: Vec<Vec<(BatchId, Digest)>> = vec![Vec::new(); N as usize];
    for e in entries {
        logs[e.replica.as_usize()].push((e.info.batch.id, e.state_digest));
    }
    if let Some(r) = spec.silent {
        if !logs[r as usize].is_empty() {
            violations.push(format!("silent replica {r} executed batches"));
        }
    }
    let honest: Vec<u32> = spec.targets(N);
    let reference = honest
        .iter()
        .copied()
        .max_by_key(|r| logs[*r as usize].len())?;
    let longest = &logs[reference as usize];
    for r in &honest {
        let log = &logs[*r as usize];
        let mut seen = HashSet::new();
        if let Some((id, _)) = log.iter().find(|(id, _)| !seen.insert(*id)) {
            violations.push(format!("replica {r} executed batch {id:?} twice"));
        }
        if let Some(at) = (0..log.len()).find(|i| log[*i] != longest[*i]) {
            violations.push(format!(
                "replica {r} diverges from replica {reference} at position {at}"
            ));
        }
    }
    let executed: HashMap<BatchId, Digest> = longest.iter().copied().collect();
    let wrong = confirmed
        .iter()
        .filter(|(id, result)| executed.get(id) != Some(result))
        .count();
    if wrong > 0 {
        violations.push(format!(
            "{wrong} confirmed batches are missing from the commit log or carry another digest"
        ));
    }
    Some(reference)
}

/// Reopens every durable store: the chain must verify and hold every
/// confirmed batch (in the ledger, or — once a snapshot pruned the
/// blocks — in the persisted recent-batch window).
fn check_stores(dirs: &[PathBuf], confirmed: &[(BatchId, Digest)], violations: &mut Vec<String>) {
    let mut holders = vec![0u32; confirmed.len()];
    for dir in dirs {
        let store = match DurableLedger::open(dir, DurableLedgerOptions::default()) {
            Ok((store, _)) => store,
            Err(e) => {
                violations.push(format!("reopen {}: {e}", dir.display()));
                continue;
            }
        };
        if let Err(e) = store.ledger().verify() {
            violations.push(format!("{}: chain does not verify: {e}", dir.display()));
        }
        for (held, (id, _)) in holders.iter_mut().zip(confirmed) {
            if store.ledger().find_batch(*id).is_some() || store.recent_batches().contains(*id) {
                *held += 1;
            }
        }
    }
    // f + 1 replicas acknowledged each batch after their fsync.
    let weak = cluster::cluster_config().weak_quorum();
    let missing = holders.iter().filter(|h| **h < weak).count();
    if missing > 0 {
        violations.push(format!(
            "{missing} confirmed batches are on fewer than {weak} reopened stores"
        ));
    }
}
