//! Order statistics the benchmark reports: medians and quartile spreads over
//! units, and the rule that picks a latency tail percentile.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN: both are benchmark bugs.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a measured series"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) computes
/// them, so the spread printed here is the spread the driver sees.
///
/// # Panics
///
/// Panics with fewer than two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a measured series"));
    let n = v.len();
    let at = |i: usize| {
        // Position i*(n+1)/4 in 1-based ranks, clamped to the data.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Distance between the first and third quartile as a share of the median.
pub fn iqr_frac(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// The highest of {p99.9, p99} that leaves at least ten of `samples` beyond
/// it, or `None` when even p99 does not.
pub fn supported_tail(samples: usize) -> Option<f64> {
    [99.9, 99.0].into_iter().find(|&p| samples_beyond(samples, p) >= 10)
}

/// How many of `samples` lie strictly beyond the nearest-rank `p`-th
/// percentile, with the rank computed exactly as
/// `regular_sim::LatencyRecorder::percentile` computes it — floating-point
/// rounding included (p99.9 of 10 000 samples is rank 9 991, not 9 990) — so
/// the count describes the value the recorder actually returns.
pub fn samples_beyond(samples: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * samples as f64).ceil() as usize;
    samples - rank.clamp(0, samples)
}
