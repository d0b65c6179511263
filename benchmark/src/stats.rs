//! The estimators: per-op minimum over replayed passes, percentiles taken
//! across ops, and the quartile spread the acceptance rule uses.
//!
//! Every workload is one deterministic op sequence replayed many times, so
//! op *i* does identical work in every pass and the only thing that differs
//! between its samples is what the host added (preemption, cache state, a
//! noisy neighbour). Noise on a shared host only ever *adds* time, so the
//! minimum over passes is the estimate of the op's own cost, and it
//! converges from above as passes are added. Percentiles are then taken
//! across ops — they describe how cost varies with the *input*, which is
//! what a change to the code moves.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Column-wise minimum of a passes × ops matrix: element *i* is the fastest
/// observation of op *i*.
///
/// # Panics
///
/// Panics when the matrix is empty or its rows differ in length — either
/// means passes replayed different op sequences, a bug in the caller.
#[must_use]
pub fn per_op_min(passes: &[Vec<u64>]) -> Vec<u64> {
    let first = passes.first().expect("at least one pass");
    let mut min = first.clone();
    for pass in &passes[1..] {
        assert_eq!(pass.len(), min.len(), "every pass replays the same ops");
        for (m, &v) in min.iter_mut().zip(pass) {
            *m = (*m).min(v);
        }
    }
    min
}

/// Nearest-rank percentile `q` (in `0.0..1.0`) of an ascending slice.
///
/// # Errors
///
/// Refuses a percentile with fewer than [`MIN_TAIL_SAMPLES`] samples beyond
/// it (or beyond its mirror image for `q < 0.5`): such a tail is set by a
/// handful of ops and does not repeat.
pub fn percentile(sorted: &[u64], q: f64) -> Result<u64, String> {
    assert!((0.0..1.0).contains(&q), "percentile {q} outside 0..1");
    let n = sorted.len();
    let tail = (n as f64 * q.min(1.0 - q)).floor() as usize;
    if tail < MIN_TAIL_SAMPLES {
        return Err(format!(
            "p{} of {n} samples leaves {tail} beyond it; {MIN_TAIL_SAMPLES} are required",
            q * 100.0
        ));
    }
    // Nearest rank: the smallest value with at least q·n samples at or
    // below it.
    let rank = ((n as f64 * q).ceil() as usize).clamp(1, n);
    Ok(sorted[rank - 1])
}

/// Median of a non-empty slice (mean of the middle pair when even).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// (the default *exclusive* method) computes them — the rule the benchmark
/// is accepted under, so `--repeat` must use the same one.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        // Position i·(n+1)/4 on the 1-based sorted list, clamped inside it.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median.
#[must_use]
pub fn quartile_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_op_min_is_columnwise() {
        // Pass 1 was hit by noise on op 0, pass 2 on op 2.
        let passes = vec![vec![90, 20, 30], vec![10, 25, 95], vec![11, 21, 31]];
        assert_eq!(per_op_min(&passes), vec![10, 20, 30]);
    }

    #[test]
    #[should_panic(expected = "same ops")]
    fn per_op_min_rejects_ragged_matrix() {
        let _ = per_op_min(&[vec![1, 2], vec![1]]);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.50), Ok(500));
        assert_eq!(percentile(&v, 0.99), Ok(990)); // 10 samples above
        assert!(percentile(&v, 0.999).is_err()); // 1 sample above
        let short: Vec<u64> = (1..=999).collect();
        assert!(percentile(&short, 0.99).is_err()); // 9 samples above
        assert!(percentile(&short[..19], 0.5).is_err()); // 9 on each side
        assert!(percentile(&short[..20], 0.5).is_ok());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((median(&v) - 5.5).abs() < 1e-12);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2, 10, 7], n=4) == [1.5, 3.0, 8.5]
        let (q1, q3) = quartiles(&[3.0, 1.0, 2.0, 10.0, 7.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 8.5).abs() < 1e-12);
    }
}
