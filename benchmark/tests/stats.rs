//! The order statistics the benchmark reports, pinned against hand-computed
//! values and against Python's `statistics.quantiles(values, n=4)`, which is
//! what the driver uses.

use rss_benchmark::stats::{iqr_frac, median, quartiles, samples_beyond, supported_tail};

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[7.0]), 7.0);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), (2.75, 8.25));
    // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
    assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
    // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
    assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
}

#[test]
fn spread_is_the_quartile_distance_over_the_median() {
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(iqr_frac(&ten), 1.0);
    assert_eq!(iqr_frac(&[5.0, 5.0, 5.0, 5.0]), 0.0);
}

#[test]
fn samples_beyond_counts_past_the_nearest_rank() {
    // Nearest rank of p99 in 1 000 samples is the 990th: ten lie beyond.
    assert_eq!(samples_beyond(1_000, 99.0), 10);
    // 99.9 / 100 * 1 000 is 999.000…01 in floating point, which rounds up to
    // the last rank: the recorder returns the maximum, nothing lies beyond.
    assert_eq!(samples_beyond(1_000, 99.9), 0);
    assert_eq!(samples_beyond(10_000, 99.9), 9);
    assert_eq!(samples_beyond(11_000, 99.9), 10);
    assert_eq!(samples_beyond(1_275, 99.0), 12);
    assert_eq!(samples_beyond(0, 99.0), 0);
}

#[test]
fn the_tail_is_the_highest_percentile_with_ten_samples_beyond() {
    assert_eq!(supported_tail(50_000), Some(99.9));
    assert_eq!(supported_tail(10_001), Some(99.9));
    assert_eq!(supported_tail(10_000), Some(99.0));
    assert_eq!(supported_tail(1_000), Some(99.0));
    assert_eq!(supported_tail(999), None);
}
