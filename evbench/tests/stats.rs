//! The percentile rule and the median/quartile helpers.

use evbench::stats::{
    max_reportable_percentile, median, percentile, quartiles, samples_beyond, samples_needed,
    MIN_TAIL_SAMPLES,
};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-12
}

#[test]
fn p95_needs_exactly_two_hundred_samples() {
    assert_eq!(MIN_TAIL_SAMPLES, 10);
    assert_eq!(samples_needed(95), 200);
    assert_eq!(max_reportable_percentile(200), Some(95));
    assert_eq!(samples_beyond(200, 95.0), 10);
    // One sample short: p95 would have only 9 beyond it.
    assert_eq!(samples_beyond(199, 95.0), 9);
    assert_eq!(max_reportable_percentile(199), Some(94));
}

#[test]
fn percentile_rule_at_the_edges() {
    // Ten samples leave fewer than ten beyond any percentile.
    assert_eq!(max_reportable_percentile(10), None);
    assert_eq!(max_reportable_percentile(0), None);
    // Eleven: the 9th percentile is rank 1, ten beyond it.
    assert_eq!(max_reportable_percentile(11), Some(9));
    assert_eq!(max_reportable_percentile(1000), Some(99));
    assert_eq!(samples_needed(99), 1000);
    assert_eq!(samples_needed(50), 20);
}

#[test]
fn nearest_rank_percentiles() {
    let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    assert_eq!(percentile(&xs, 95.0), 95.0);
    assert_eq!(percentile(&xs, 50.0), 50.0);
    assert_eq!(percentile(&xs, 100.0), 100.0);
    assert_eq!(percentile(&xs, 0.5), 1.0);
    assert_eq!(percentile(&[7.0], 95.0), 7.0);
    assert_eq!(percentile(&[], 95.0), 0.0);
}

#[test]
fn median_of_odd_and_even_samples() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Expected values from Python's statistics.quantiles(xs, n=4).
    let cases: [(&[f64], (f64, f64)); 5] = [
        (&[1.0, 2.0], (0.75, 2.25)),
        (&[1.0, 2.0, 3.0], (1.0, 3.0)),
        (
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
            (2.75, 8.25),
        ),
        (&[5.0, 1.0, 4.0, 2.0, 3.0], (1.5, 4.5)),
        (&[0.5, 9.25, 3.0, 7.5, 1.25, 6.0], (1.0625, 7.9375)),
    ];
    for (xs, (q1, q3)) in cases {
        let (a, b) = quartiles(xs).unwrap();
        assert!(close(a, q1) && close(b, q3), "{xs:?}: got ({a}, {b})");
    }
    assert_eq!(quartiles(&[1.0]), None);
}
