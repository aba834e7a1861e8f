//! The deployment benchmark: drives the real `ReplicaRuntime` cluster
//! through one of four closed-loop workloads and prints every metric by
//! name and unit. See `benchmark/README.md`.
//!
//! ```text
//! spotless-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--repeat N]
//! spotless-benchmark --smoke
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1` an untraced
//! pass (whose end-to-end metrics are printed too) is followed by a
//! traced pass of the same window, and the metrics are the per-layer
//! ones.

mod clock;
mod cluster;
mod driver;
mod matcher;
mod metrics;
mod proc;
mod replay;
mod speed;
mod stats;
mod trace;
mod workloads;

use driver::RunResult;
use metrics::Value;
use std::path::PathBuf;
use workloads::Workload;

/// Window length when `--seconds` is not given: `run_seconds` in
/// `BENCHMARK.json`, the window the recorded baseline was measured with.
const DEFAULT_SECONDS: f64 = 25.0;
/// Window length of `--smoke` runs.
const SMOKE_SECONDS: f64 = 3.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: 1,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value.to_string()),
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(args.seconds >= 0.5 && args.seconds <= 600.0) {
                    return Err(bad("between 0.5 and 600"));
                }
            }
            "--trace" => {
                args.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--repeat" => {
                args.repeat = value.parse().map_err(|_| bad("a whole number"))?;
                if args.repeat == 0 {
                    return Err(bad("at least 1"));
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.trace && args.repeat > 1 {
        return Err("--repeat compares untraced runs; it cannot be combined with --trace 1".into());
    }
    Ok(args)
}

/// `benchmark/out/`: span files and per-run scratch directories.
fn out_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")));
    base.join("out")
}

fn print_values(title: &str, values: &[Value]) {
    println!("{title}");
    for (name, unit, value) in values {
        println!("  {name:<44} {value:>16.4} {unit}");
    }
}

fn print_run(spec: &Workload, seed: u64, label: &str, run: &RunResult) {
    println!(
        "[{}] {label}: seed {seed}, window {} s in {} slices, K = {} outstanding, \
         no injected message delay (latency is processor time only)",
        spec.name,
        run.seconds,
        run.window.slices.len(),
        spec.outstanding
    );
    println!("  why: {}", spec.why);
    println!(
        "  attempted {} batches, failed {}; {} batches / {} txns confirmed in the window",
        run.attempted, run.failed, run.window.batches, run.window.txns
    );
    println!(
        "  wire: {:.1} msgs/batch, {:.0} B/txn; process CPU {:.2} cores busy over the window",
        run.net_msgs as f64 / run.window.batches.max(1) as f64,
        run.net_bytes as f64 / run.window.txns.max(1) as f64,
        run.cpu_us as f64 / 1e6 / run.seconds
    );
    println!(
        "  set-up {:.3} s at relative machine speed {:.3}",
        run.setup_s,
        metrics::relative_speed(run.setup_kernel_ns)
    );
    println!(
        "  slices as measured (mid = midmean, the reported median estimate; \
         p90 keeps >= 10 samples beyond it from 100 samples per slice):"
    );
    println!(
        "    slice     txn/s   p50 ms   mid ms   p90 ms  samples  cpu us/txn  msgs/batch  machine speed"
    );
    for (i, s) in run.window.slices.iter().enumerate() {
        println!(
            "    {i:>5} {:>9.1} {:>8.2} {:>8.2} {:>8.2} {:>8} {:>11.2} {:>11.2} {:>14.3}",
            s.txn_per_s,
            s.p50_ms,
            s.mid_ms,
            s.p90_ms,
            s.samples,
            run.slice_cpu_us[i] as f64 / s.txns.max(1) as f64,
            run.slice_net_msgs[i] as f64 / s.samples.max(1) as f64,
            metrics::relative_speed(run.slice_kernel_ns[i])
        );
    }
    for v in &run.violations {
        println!("  VIOLATION: {v}");
    }
}

/// A value as the JSON line names it (`--smoke` prefixes the workload).
type Named = (String, &'static str, f64);

fn named(values: Vec<Value>) -> Vec<Named> {
    values
        .into_iter()
        .map(|(name, unit, v)| (name.to_string(), unit, v))
        .collect()
}

fn json_line(correct: bool, attempted: u64, failed: u64, values: &[Named]) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// One invocation's outcome: what the JSON line reports.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    values: Vec<Named>,
}

/// `--trace 0`: one untraced run, end-to-end metrics.
async fn untraced(
    spec: &'static Workload,
    seed: u64,
    seconds: f64,
    warmup_div: u64,
) -> Result<Outcome, String> {
    let run = driver::run_once(spec, seed, seconds, warmup_div, false, &out_dir()).await?;
    print_run(spec, seed, "untraced run", &run);
    let values = metrics::end_to_end(&run);
    print_values("end-to-end metrics:", &values);
    Ok(Outcome {
        correct: run.violations.is_empty(),
        attempted: run.attempted,
        failed: run.failed,
        values: named(values),
    })
}

/// `--trace 1`: the untraced run, then a second, traced pass over the
/// same window with the replay step; per-layer metrics.
async fn traced(spec: &'static Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let out = out_dir();
    let base = driver::run_once(spec, seed, seconds, 1, false, &out).await?;
    print_run(spec, seed, "untraced pass", &base);
    print_values(
        "end-to-end metrics (untraced pass):",
        &metrics::end_to_end(&base),
    );
    let mut run = driver::run_once(spec, seed, seconds, 1, true, &out).await?;
    print_run(spec, seed, "traced pass", &run);
    let capture = run.trace.take().expect("traced run captures");

    let live = capture.tracer.analyze(&capture.log);
    let span_file = out.join(format!("{}.trace.json", spec.name));
    let (written, total) = capture
        .tracer
        .write_spans(
            &span_file,
            spec.name,
            capture.log.start_ns,
            capture.log.end_ns,
        )
        .map_err(|e| format!("write {}: {e}", span_file.display()))?;
    println!(
        "  wrote {written} of {total} window spans to {}; {} sightings out of order",
        span_file.display(),
        live.match_violations
    );

    let scratch = driver::RunDir::create(&out).map_err(|e| format!("replay scratch: {e}"))?;
    let replay = replay::run(
        spec,
        seed,
        &capture.tracer.take_envelopes(),
        &capture.messages,
        &capture.commits,
        scratch.path(),
    );
    let mut correct = base.violations.is_empty() && run.violations.is_empty();
    if !replay.state_matches {
        println!("  VIOLATION: replayed execution did not reproduce the recorded state digests");
        correct = false;
    }

    let values = metrics::per_layer(&base, &run, &live, &replay);
    print_values("per-layer metrics (traced pass + replay):", &values);
    let (overhead, spread) = (
        metrics::trace_overhead_pct(&base, &run),
        metrics::slice_spread(&base) * 100.0,
    );
    if overhead < spread {
        println!(
            "  bench.trace_overhead_pct is UNRESOLVED: {overhead:.2} % is not above the untraced \
             pass's own slice-to-slice spread of {spread:.2} %"
        );
    }
    let layers = metrics::attribution(&run, &live, &replay);
    let measured_us = run.cpu_us as f64;
    println!(
        "CPU attribution over the traced window (count x replayed unit cost; measured process CPU {:.0} ms):",
        measured_us / 1e3
    );
    let explained: f64 = layers.iter().map(|(_, us)| us).sum();
    let rest = (
        "unexplained (queues, wake-ups, timer threads, allocation, the generator)",
        measured_us - explained,
    );
    for (layer, us) in layers.iter().chain([&rest]) {
        println!(
            "  {:>10.1} ms  {:>5.1} %  {layer}",
            us / 1e3,
            us / measured_us * 100.0
        );
    }
    Ok(Outcome {
        correct,
        attempted: base.attempted + run.attempted,
        failed: base.failed + run.failed,
        values: named(values),
    })
}

/// `--repeat N`: N untraced runs on consecutive seeds; per-run values,
/// spread and the verdict against each metric's bound.
async fn repeat(spec: &'static Workload, args: &Args) -> Result<Outcome, String> {
    let mut runs: Vec<Outcome> = Vec::new();
    for i in 0..args.repeat {
        runs.push(untraced(spec, args.seed + i as u64, args.seconds, 1).await?);
    }
    println!("[{}] {} runs, seeds {}..", spec.name, runs.len(), args.seed);
    let mut medians = Vec::new();
    for (i, m) in metrics::END_TO_END.iter().enumerate() {
        let values: Vec<f64> = runs.iter().map(|r| r.values[i].2).collect();
        let spread = stats::quartile_spread(&values);
        // A spread under a third of the bound leaves room for the
        // medians of two sets of runs to agree within the bound.
        let verdict = if spread <= m.bound / 3.0 {
            "steady"
        } else if spread <= m.bound {
            "within bound"
        } else {
            "UNRESOLVED: spread exceeds bound"
        };
        let shown: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
        let better = if m.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        println!(
            "  {:<18} median {:>12.3} {:<4} ({better} is better) spread {:>5.2} % of bound {:>4.1} %  {verdict}\n    runs: [{}]",
            m.name,
            stats::median(&values),
            m.unit,
            spread * 100.0,
            m.bound * 100.0,
            shown.join(", ")
        );
        medians.push((m.name.to_string(), m.unit, stats::median(&values)));
    }
    Ok(Outcome {
        correct: runs.iter().all(|r| r.correct),
        attempted: runs.iter().map(|r| r.attempted).sum(),
        failed: runs.iter().map(|r| r.failed).sum(),
        values: medians,
    })
}

/// `--smoke`: every workload once, short window, quarter warm-up — a
/// quick check that everything runs and is correct, not a measurement.
async fn smoke(seed: u64) -> Result<Outcome, String> {
    let mut all = Outcome {
        correct: true,
        attempted: 0,
        failed: 0,
        values: Vec::new(),
    };
    for spec in &workloads::WORKLOADS {
        let one = untraced(spec, seed, SMOKE_SECONDS, 4).await?;
        all.correct &= one.correct;
        all.attempted += one.attempted;
        all.failed += one.failed;
        all.values.extend(
            one.values
                .into_iter()
                .map(|(name, unit, v)| (format!("{}.{name}", spec.name), unit, v)),
        );
    }
    Ok(all)
}

#[tokio::main]
async fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&argv) {
        Err(e) => Err(e),
        Ok(args) if args.smoke => smoke(args.seed).await,
        Ok(args) => match args.workload.as_deref().map(workloads::by_name) {
            None => Err("--workload is required (or --smoke)".to_string()),
            Some(None) => Err(format!(
                "unknown workload; choose one of: {}",
                workloads::WORKLOADS.map(|w| w.name).join(", ")
            )),
            Some(Some(spec)) if args.repeat > 1 => repeat(spec, &args).await,
            Some(Some(spec)) if args.trace => traced(spec, args.seed, args.seconds).await,
            Some(Some(spec)) => untraced(spec, args.seed, args.seconds, 1).await,
        },
    };
    match outcome {
        Ok(o) => {
            println!("{}", json_line(o.correct, o.attempted, o.failed, &o.values));
            // Timer threads may still be asleep; exiting ends them.
            std::process::exit(if o.correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("spotless-benchmark: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arguments_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload exec-heavy --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("exec-heavy"));
        assert_eq!((a.seed, a.seconds, a.trace, a.repeat), (7, 12.0, true, 1));
        assert!(parse_args(&argv("--smoke")).unwrap().smoke);
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--bogus 1")).is_err());
        assert!(parse_args(&argv("--workload exec-heavy --trace 1 --repeat 3")).is_err());
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let line = json_line(true, 10, 0, &[("latency_p50_ms".to_string(), "ms", 1.25)]);
        let v: serde::Value = serde_json::from_str(&line).expect("valid JSON");
        assert_eq!(v.get("correct").and_then(|c| c.as_bool()), Some(true));
        assert_eq!(v.get("attempted").and_then(|c| c.as_u64()), Some(10));
        assert_eq!(v.get("failed").and_then(|c| c.as_u64()), Some(0));
        let m = v
            .get("metrics")
            .and_then(|m| m.get("latency_p50_ms"))
            .expect("metric");
        assert_eq!(m.get("value").and_then(|x| x.as_f64()), Some(1.25));
        assert_eq!(m.get("unit").and_then(|x| x.as_str()), Some("ms"));
    }

    /// `BENCHMARK.json` names exactly the workloads and metrics the
    /// code produces, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let v: serde::Value = serde_json::from_str(&text).expect("valid JSON");
        let names = |key: &str, field: &str| -> Vec<String> {
            v.get(key)
                .and_then(|a| a.as_array())
                .expect("array")
                .iter()
                .map(|e| {
                    e.get(field)
                        .and_then(|n| n.as_str())
                        .expect("string")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(
            names("workloads", "name"),
            workloads::WORKLOADS.map(|w| w.name)
        );
        assert_eq!(
            names("end_to_end", "name"),
            metrics::END_TO_END
                .iter()
                .map(|m| m.name)
                .collect::<Vec<_>>()
        );
        assert_eq!(
            names("end_to_end", "unit"),
            metrics::END_TO_END
                .iter()
                .map(|m| m.unit)
                .collect::<Vec<_>>()
        );
        let better: Vec<&str> = metrics::END_TO_END
            .iter()
            .map(|m| {
                if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                }
            })
            .collect();
        assert_eq!(names("end_to_end", "better"), better);
        let bounds: Vec<f64> = v
            .get("end_to_end")
            .and_then(|a| a.as_array())
            .expect("array")
            .iter()
            .map(|e| e.get("bound").and_then(|b| b.as_f64()).expect("bound"))
            .collect();
        assert_eq!(
            bounds,
            metrics::END_TO_END
                .iter()
                .map(|m| m.bound)
                .collect::<Vec<_>>()
        );

        let run = RunResult::default();
        let layer = metrics::per_layer(&run, &run, &Default::default(), &Default::default());
        assert_eq!(
            names("per_layer", "name"),
            layer.iter().map(|l| l.0).collect::<Vec<_>>()
        );
        assert_eq!(
            names("per_layer", "unit"),
            layer.iter().map(|l| l.1).collect::<Vec<_>>()
        );
    }

    /// `--smoke` end to end: all four workloads run, confirm batches,
    /// pass the correctness gate and report every end-to-end metric.
    #[tokio::test]
    async fn smoke_runs_all_workloads_correctly() {
        let outcome = smoke(3).await.expect("smoke runs");
        assert!(outcome.correct);
        assert!(outcome.attempted > 0);
        assert_eq!(
            outcome.values.len(),
            workloads::WORKLOADS.len() * metrics::END_TO_END.len()
        );
        assert!(outcome.values[0].0.starts_with("ordering-small."));
        assert!(outcome.values.iter().all(|(_, _, v)| *v > 0.0));
    }
}
