//! The metric tables: names, units, directions and regression bounds.
//! `BENCHMARK.json` at the repo root lists the same names (a unit test
//! keeps the two in step); later issues refer to metrics by these names.

use crate::driver::RunResult;
use crate::replay::Replay;
use crate::speed::REFERENCE_KERNEL_NS;
use crate::stats::{middle_mean, quartile_spread};
use crate::trace::LiveTrace;

/// An end-to-end metric: what a client of the cluster sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The five end-to-end metrics, per workload, with their regression
/// bounds. ISSUE 14 asked for 5 / 8 / 10 / 5 / 10 %; the benchmark check
/// refused them, because on the shared 2-vCPU box ten runs of one commit
/// spread (first to third quartile ÷ median) up to 9.6 % on throughput
/// and CPU per transaction and up to 12.8 % on the latencies, whatever
/// the estimator (the speed calibration in `speed.rs`, means over the
/// middle slices and the midmean are all still in place). A bound has to
/// be at least three times the spread for two sets of runs of one commit
/// to agree within it, so each bound is the smaller of 20 % and 25 % (the
/// most the check allows) that is about three times the largest spread
/// the baseline in the README shows for that metric on any workload.
/// `--repeat` reports a metric whose run-to-run spread exceeds its bound
/// as UNRESOLVED; a later change makes its case with paired runs.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "commit_txn_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.20,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p90_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_txn",
        unit: "us",
        higher_is_better: false,
        bound: 0.20,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
];

/// A named, united value.
pub type Value = (&'static str, &'static str, f64);

/// How fast the machine ran while the speed probe's kernel took
/// `kernel_ns`, relative to the reference speed (above 1: faster).
pub fn relative_speed(kernel_ns: f64) -> f64 {
    REFERENCE_KERNEL_NS / kernel_ns
}

/// Each slice's confirmed txn/s at reference machine speed.
fn slice_rates(run: &RunResult) -> Vec<f64> {
    run.window
        .per_slice(|i, s| s.txn_per_s / relative_speed(run.slice_kernel_ns[i]))
}

/// The end-to-end values of one untraced run, in table order, **at
/// reference machine speed**: each slice's rate is divided, and each of
/// its times multiplied, by the machine's relative speed during that
/// slice (see `speed.rs`) before the mean over the middle slices is
/// taken.
pub fn end_to_end(run: &RunResult) -> Vec<Value> {
    let speed = |i: usize| relative_speed(run.slice_kernel_ns[i]);
    let w = &run.window;
    let values = [
        middle_mean(&slice_rates(run)),
        middle_mean(&w.per_slice(|i, s| s.mid_ms * speed(i))),
        middle_mean(&w.per_slice(|i, s| s.p90_ms * speed(i))),
        middle_mean(&w.per_slice(|i, s| run.slice_cpu_us[i] as f64 / s.txns as f64 * speed(i))),
        run.setup_s * relative_speed(run.setup_kernel_ns),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| (m.name, m.unit, v))
        .collect()
}

/// How much slower the traced pass confirmed transactions than the
/// untraced pass, in percent, both at reference machine speed.
pub fn trace_overhead_pct(untraced: &RunResult, traced: &RunResult) -> f64 {
    let base = middle_mean(&slice_rates(untraced));
    if base > 0.0 {
        (1.0 - middle_mean(&slice_rates(traced)) / base) * 100.0
    } else {
        0.0
    }
}

/// Quartile spread of a run's own slice rates: what one pass's
/// throughput is uncertain by.
pub fn slice_spread(run: &RunResult) -> f64 {
    quartile_spread(&slice_rates(run))
}

/// Σ(count × replayed unit cost) per layer over the traced window, in
/// µs of CPU — to be read beside the measured `traced.cpu_us`.
pub fn attribution(
    traced: &RunResult,
    live: &LiveTrace,
    replay: &Replay,
) -> Vec<(&'static str, f64)> {
    let emits = live.emits as f64;
    let wire = live.wire_msgs as f64;
    let commits = live.commits as f64; // every replica executes every batch
    let txns_per_batch = traced.window.txns as f64 / traced.window.batches.max(1) as f64;
    let per_encode = replay.codec_us_per_msg / 2.0;
    vec![
        (
            // One batched signature per emit, one batched verification
            // per wire message, and the protocol's own votes one by one
            // (counts x unit cost: the live vote spans are wall time and
            // include preemption on a saturated box).
            "crypto",
            emits * replay.sign_batch32_us_per_sig
                + wire * replay.verify_batch32_us_per_sig
                + live.vote_signs as f64 * replay.envelope_sign_us
                + live.vote_verifications as f64 * replay.envelope_verify_us,
        ),
        ("core", live.core_self_us),
        (
            // Encode once per emit, decode once per delivery.
            "runtime.envelope",
            emits * per_encode + wire * per_encode,
        ),
        (
            "executor+workload",
            commits * txns_per_batch * replay.execute_us_per_txn,
        ),
        (
            // The pipeline checks a certificate twice per commit:
            // sanitising it, then `verify_proof` before the append.
            "ledger",
            commits * (2.0 * replay.verify_proof_us + replay.ledger_append_us),
        ),
        ("storage", commits * replay.storage_append_us_per_block),
        (
            "transport",
            wire * (live.fabric_send_us + replay.frame_us_per_msg),
        ),
    ]
}

/// Every per-layer metric of a traced run, in table order. `untraced`
/// is the same run's untraced pass (the base of the tracing overhead).
pub fn per_layer(
    untraced: &RunResult,
    traced: &RunResult,
    live: &LiveTrace,
    replay: &Replay,
) -> Vec<Value> {
    let batches = traced.window.batches.max(1) as f64;
    let txns = traced.window.txns.max(1) as f64;
    let slices = &traced.window.slices;
    let drift = match (slices.first(), slices.last()) {
        (Some(first), Some(last)) if first.txn_per_s > 0.0 => last.txn_per_s / first.txn_per_s,
        _ => 0.0,
    };
    let overhead = trace_overhead_pct(untraced, traced);
    vec![
        (
            "core.on_input_us_per_batch",
            "us",
            live.on_input_us_per_batch,
        ),
        ("core.inputs_per_batch", "count", live.inputs_per_batch),
        ("core.msgs_out_per_batch", "count", live.msgs_out_per_batch),
        ("core.noop_commit_share", "ratio", live.noop_commit_share),
        ("core.views_per_s", "1/s", live.views_per_s),
        ("core.timeouts_per_s", "1/s", live.timeouts_per_s),
        (
            "core.request_to_commit_ms_p50",
            "ms",
            live.request_to_commit_ms_p50,
        ),
        ("crypto.envelope_sign_us", "us", replay.envelope_sign_us),
        ("crypto.envelope_verify_us", "us", replay.envelope_verify_us),
        (
            "crypto.sign_batch32_us_per_sig",
            "us",
            replay.sign_batch32_us_per_sig,
        ),
        (
            "crypto.verify_batch32_us_per_sig",
            "us",
            replay.verify_batch32_us_per_sig,
        ),
        (
            "crypto.vote_sign_us_per_batch",
            "us",
            live.vote_sign_us_per_batch,
        ),
        (
            "crypto.vote_verify_us_per_batch",
            "us",
            live.vote_verify_us_per_batch,
        ),
        ("crypto.sig_ops_per_batch", "count", live.sig_ops_per_batch),
        ("crypto.digest_mib_per_s", "MiB/s", replay.digest_mib_per_s),
        (
            "runtime.submit_to_request_ms_p50",
            "ms",
            live.submit_to_request_ms_p50,
        ),
        ("runtime.egress_ms_p50", "ms", live.egress_ms_p50),
        ("runtime.ingress_ms_p50", "ms", live.ingress_ms_p50),
        ("runtime.pipeline_ms_p50", "ms", live.pipeline_ms_p50),
        (
            "runtime.inform_spread_ms_p50",
            "ms",
            live.inform_spread_ms_p50,
        ),
        (
            "envelope.encode_ns_per_kib",
            "ns/KiB",
            replay.encode_ns_per_kib,
        ),
        (
            "envelope.decode_ns_per_kib",
            "ns/KiB",
            replay.decode_ns_per_kib,
        ),
        (
            "executor.execute_us_per_txn",
            "us",
            replay.execute_us_per_txn,
        ),
        (
            "executor.components_per_group",
            "count",
            replay.components_per_group,
        ),
        (
            "workload.kv_execute_us_per_txn",
            "us",
            replay.kv_execute_us_per_txn,
        ),
        (
            "workload.state_root_us_per_batch",
            "us",
            replay.state_root_us_per_batch,
        ),
        (
            "workload.bucket_bytes_rehashed_per_write",
            "B",
            replay.bucket_bytes_rehashed_per_write,
        ),
        ("ledger.verify_proof_us", "us", replay.verify_proof_us),
        ("ledger.append_us", "us", replay.ledger_append_us),
        (
            "storage.append_us_per_block",
            "us",
            replay.storage_append_us_per_block,
        ),
        ("storage.sync_ms", "ms", replay.storage_sync_ms),
        (
            "storage.log_bytes_per_txn",
            "B",
            traced.log_bytes as f64 / txns,
        ),
        (
            "transport.msgs_per_batch",
            "count",
            traced.net_msgs as f64 / batches,
        ),
        (
            "transport.wire_bytes_per_txn",
            "B",
            traced.net_bytes as f64 / txns,
        ),
        ("transport.fabric_send_us", "us", live.fabric_send_us),
        (
            "transport.tcp.frame_encode_ns_per_kib",
            "ns/KiB",
            replay.frame_encode_ns_per_kib,
        ),
        (
            "transport.tcp.frame_decode_ns_per_kib",
            "ns/KiB",
            replay.frame_decode_ns_per_kib,
        ),
        (
            "simnet.msgs_per_commit",
            "count",
            replay.simnet_msgs_per_commit,
        ),
        (
            "simnet.views_per_commit",
            "count",
            replay.simnet_views_per_commit,
        ),
        ("simnet.events_per_s", "1/s", replay.simnet_events_per_s),
        ("proc.peak_rss_mb", "MiB", traced.peak_rss_mb),
        ("proc.threads", "count", traced.threads as f64),
        (
            "proc.ctx_switches_per_batch",
            "count",
            traced.ctx_switches as f64 / batches,
        ),
        ("bench.slice_drift_ratio", "ratio", drift),
        (
            "bench.generator_lag_ms_max",
            "ms",
            traced.generator_lag_ms_max,
        ),
        ("bench.trace_overhead_pct", "%", overhead),
    ]
}
