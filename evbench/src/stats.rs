//! Order statistics for latency samples and run-to-run spreads.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count);
/// 0.0 for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method).
/// Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    if xs.len() < 2 {
        return None;
    }
    let s = sorted(xs);
    let ld = s.len();
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `xs`; 0.0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    s[rank(s.len(), p) - 1]
}

/// Samples that lie beyond the nearest-rank `p`-th percentile of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// The highest whole percentile of `n` samples that still has at least
/// [`MIN_TAIL_SAMPLES`] samples beyond it, or `None` when even the 1st
/// percentile has fewer (n < 11).
pub fn max_reportable_percentile(n: usize) -> Option<u32> {
    (1..=99u32)
        .rev()
        .find(|&p| samples_beyond(n, p as f64) >= MIN_TAIL_SAMPLES)
}

/// Smallest sample count for which percentile `p` is reportable.
pub fn samples_needed(p: u32) -> usize {
    (1..)
        .find(|&n| max_reportable_percentile(n).is_some_and(|m| m >= p))
        .unwrap_or(usize::MAX)
}

fn rank(n: usize, p: f64) -> usize {
    // Integer arithmetic on p×n avoids 0.95×200 = 189.999… style rounding.
    let scaled = (p * 100.0).round() as u128 * n as u128;
    let r = scaled.div_ceil(10_000) as usize;
    r.clamp(1, n)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}
