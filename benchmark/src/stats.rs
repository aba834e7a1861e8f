//! Slice and percentile statistics.
//!
//! The measured window is cut into equal slices; each end-to-end number
//! is the **mean over the middle slices** of the slice's own value
//! ([`middle_mean`]), so a slice disturbed by a noisy neighbour (or by
//! the one durable snapshot a run takes) is left out of the report.

/// Length of a window slice, seconds. The window is cut into as many
/// whole slices of this length as fit (at least one; a `--smoke`
/// window is a single short slice).
pub const SLICE_SECONDS: f64 = 5.0;

/// Slices in a window of `seconds`.
pub fn slice_count(seconds: f64) -> usize {
    ((seconds / SLICE_SECONDS) as usize).max(1)
}

/// Median of `values` (mean of the middle pair for even counts).
/// Returns 0 for an empty input.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean; 0 for an empty input.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Mean of the middle of `values`: the lowest and the highest fifth
/// (rounded down: one value each of five or six) are left out, so one
/// disturbed slice on either side moves nothing, and the rest are
/// averaged, which scatters less than a plain median of five.
/// Returns 0 for an empty input.
pub fn middle_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 5;
    mean(&v[cut..v.len() - cut])
}

/// Nearest-rank percentile (`p` in `0..=1`) of an ascending slice.
/// Returns 0 for an empty input.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Mean of the samples between the first and the third quartile of an
/// ascending slice (the midmean). It estimates the same centre as the
/// median, but where the median of a two-humped latency distribution
/// jumps from one hump to the other when a few samples change sides,
/// the midmean moves by a few samples' worth. Returns 0 for an empty
/// input.
pub fn midmean(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n < 4 {
        return mean(sorted);
    }
    mean(&sorted[n / 4..n - n / 4])
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) does, so
/// `--repeat` reports the spread the acceptance check computes.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the
/// median — the run-to-run spread each metric's bound is judged by.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med
    }
}

#[derive(Clone, Default)]
struct Slice {
    txns: u64,
    latencies_ms: Vec<f64>,
}

/// Accumulates confirmations into the window's slices.
pub struct Window {
    start_ns: u64,
    slice_ns: u64,
    slices: Vec<Slice>,
}

/// One slice as measured, before any scaling.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SliceStats {
    /// Transactions confirmed in the slice.
    pub txns: u64,
    /// Batches confirmed in the slice (its latency samples).
    pub samples: usize,
    /// Confirmed txn/s.
    pub txn_per_s: f64,
    /// Median submit-to-confirm latency, nearest rank, ms (shown).
    pub p50_ms: f64,
    /// Median latency as reported: the [`midmean`], ms.
    pub mid_ms: f64,
    /// 90th-percentile latency, ms.
    pub p90_ms: f64,
}

/// What a finished window reports.
#[derive(Clone, Debug, Default)]
pub struct WindowSummary {
    /// The slices, in time order.
    pub slices: Vec<SliceStats>,
    /// Batches confirmed inside the window.
    pub batches: u64,
    /// Transactions confirmed inside the window.
    pub txns: u64,
}

impl WindowSummary {
    /// `value(slice index, slice)` of every slice that confirmed
    /// something, in time order.
    pub fn per_slice(&self, value: impl Fn(usize, &SliceStats) -> f64) -> Vec<f64> {
        self.slices
            .iter()
            .enumerate()
            .filter(|(_, s)| s.samples > 0)
            .map(|(i, s)| value(i, s))
            .collect()
    }
}

impl Window {
    /// A window of `seconds` starting at `start_ns` (benchmark clock).
    pub fn new(start_ns: u64, seconds: f64) -> Window {
        let slices = slice_count(seconds);
        Window {
            start_ns,
            slice_ns: ((seconds * 1e9) as u64 / slices as u64).max(1),
            slices: vec![Slice::default(); slices],
        }
    }

    /// When the window starts (benchmark clock).
    pub fn start_ns(&self) -> u64 {
        self.start_ns
    }

    /// Length of one slice, ns.
    pub fn slice_ns(&self) -> u64 {
        self.slice_ns
    }

    /// When the window ends (benchmark clock).
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.slice_ns * self.slices.len() as u64
    }

    /// Records a batch confirmed at `at_ns`; confirmations outside the
    /// window are ignored. Returns whether it was counted.
    pub fn record(&mut self, at_ns: u64, txns: u32, latency_ms: f64) -> bool {
        if at_ns < self.start_ns || at_ns >= self.end_ns() {
            return false;
        }
        let slice = &mut self.slices[((at_ns - self.start_ns) / self.slice_ns) as usize];
        slice.txns += u64::from(txns);
        slice.latencies_ms.push(latency_ms);
        true
    }

    /// The slices' own rates and percentiles.
    pub fn summarize(mut self) -> WindowSummary {
        let secs = self.slice_ns as f64 / 1e9;
        let slices: Vec<SliceStats> = self
            .slices
            .iter_mut()
            .map(|slice| {
                slice.latencies_ms.sort_by(f64::total_cmp);
                SliceStats {
                    txns: slice.txns,
                    samples: slice.latencies_ms.len(),
                    txn_per_s: slice.txns as f64 / secs,
                    p50_ms: percentile(&slice.latencies_ms, 0.50),
                    mid_ms: midmean(&slice.latencies_ms),
                    p90_ms: percentile(&slice.latencies_ms, 0.90),
                }
            })
            .collect();
        WindowSummary {
            batches: slices.iter().map(|s| s.samples as u64).sum(),
            txns: slices.iter().map(|s| s.txns).sum(),
            slices,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.50), 50.0);
        assert_eq!(percentile(&sorted, 0.90), 90.0);
        assert_eq!(percentile(&sorted, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn midmean_sits_at_the_median_and_does_not_jump() {
        assert_eq!(midmean(&[]), 0.0);
        assert_eq!(midmean(&[1.0, 2.0, 6.0]), 3.0, "too few to cut");
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(midmean(&sorted), 50.5); // mean of 26..=75
                                            // Two humps, 10 and 20, half the samples each: one sample
                                            // changing sides moves the median by the whole gap and the
                                            // midmean by a twenty-fifth of it.
        let humps = |low: usize| -> Vec<f64> {
            (0..100)
                .map(|i| if i < low { 10.0 } else { 20.0 })
                .collect()
        };
        assert_eq!(percentile(&humps(50), 0.5), 10.0);
        assert_eq!(percentile(&humps(49), 0.5), 20.0);
        assert!((midmean(&humps(50)) - 15.0).abs() < 1e-9);
        assert!((midmean(&humps(49)) - 15.2).abs() < 1e-9);
    }

    #[test]
    fn middle_mean_leaves_out_the_extremes() {
        assert_eq!(middle_mean(&[]), 0.0);
        assert_eq!(middle_mean(&[4.0]), 4.0);
        assert_eq!(middle_mean(&[1.0, 3.0]), 2.0, "too few to leave any out");
        assert_eq!(middle_mean(&[900.0, 2.0, 3.0, 4.0, 0.0]), 3.0);
        assert_eq!(middle_mean(&[900.0, 2.0, 3.0, 4.0, 5.0, 0.0]), 3.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40, 70, 110], n=4) == [15, 40, 90]
        assert_eq!(
            quartiles(&[110.0, 10.0, 40.0, 20.0, 70.0]),
            [15.0, 40.0, 90.0]
        );
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn window_reports_every_slice() {
        assert_eq!(slice_count(3.0), 1);
        assert_eq!(slice_count(25.0), 5);
        assert_eq!(slice_count(29.9), 5);
        let mut w = Window::new(1_000, 30.0); // six 5 s slices
        let s_ns = w.slice_ns();
        assert_eq!(s_ns, 5_000_000_000);
        assert!(!w.record(999, 10, 1.0), "before the window");
        assert!(!w.record(w.end_ns(), 10, 1.0), "at the end of the window");
        // Slice i confirms i + 1 batches of 10 txns, latency i + 1 ms;
        // the last slice is disturbed (one slow batch only).
        for i in 0..5u64 {
            for _ in 0..=i {
                assert!(w.record(1_000 + i * s_ns + 500, 10, (i + 1) as f64));
            }
        }
        assert!(w.record(w.end_ns() - 1, 10, 500.0));
        let s = w.summarize();
        assert_eq!(s.batches, 16);
        assert_eq!(s.txns, 160);
        let samples: Vec<usize> = s.slices.iter().map(|x| x.samples).collect();
        assert_eq!(samples, vec![1, 2, 3, 4, 5, 1]);
        assert_eq!(
            s.per_slice(|_, x| x.txn_per_s),
            vec![2.0, 4.0, 6.0, 8.0, 10.0, 2.0]
        );
        // Per-slice p50: 1, 2, 3, 4, 5, 500 -> the middle four average
        // 3.5: the outlier slice is left out, whatever its size.
        assert_eq!(middle_mean(&s.per_slice(|_, x| x.p50_ms)), 3.5);
        assert_eq!(s.slices[4].mid_ms, 5.0);
        // The slice index reaches the value.
        assert_eq!(s.per_slice(|i, x| x.p50_ms * i as f64)[5], 2500.0);
    }
}
