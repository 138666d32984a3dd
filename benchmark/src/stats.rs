//! Order statistics the benchmark reports, and the run-to-run spread the
//! A/A mode checks them with.

/// Nearest-rank percentile of an ascending-sorted sample, `p` in (0, 1).
///
/// Returns `None` when fewer than ten samples lie beyond the percentile:
/// a tail read off one or two stragglers is a property of the scheduler,
/// not of the program.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || (n as f64) * (1.0 - p) < 10.0 {
        return None;
    }
    let rank = ((n as f64) * p).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// Samples per block of [`blocked_percentile`]: the fewest that leave ten
/// beyond a 95th percentile.
pub const BLOCK: usize = 200;

/// A percentile that one stall cannot move: the samples, in the order
/// they completed, are cut into equal consecutive blocks of at least
/// [`BLOCK`], each block yields its own nearest-rank percentile, and the
/// median of those is reported.
///
/// On a shared machine a single 300 ms hiccup backs an open loop up for
/// hundreds of statements; over a 10 s window that alone took a whole-window
/// p95 from 0.6 ms to 5 ms. It lands in one or two blocks and leaves the
/// median of blocks where it was. A slowdown that lasts, which is what a
/// regression is, moves every block. `None` below one full block.
pub fn blocked_percentile(in_completion_order: &[f64], p: f64) -> Option<f64> {
    let n = in_completion_order.len();
    let blocks = n / BLOCK;
    let per_block: Option<Vec<f64>> = (0..blocks)
        .map(|i| {
            let mut block = in_completion_order[i * n / blocks..(i + 1) * n / blocks].to_vec();
            block.sort_by(f64::total_cmp);
            percentile(&block, p)
        })
        .collect();
    per_block.filter(|v| !v.is_empty()).map(|v| median(&v))
}

/// Median of an unsorted sample (mean of the middle pair for even sizes);
/// 0 for an empty one.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Mean; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The three quartile cut points, as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives them.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    assert!(m >= 2, "quartiles need at least two values");
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Run-to-run spread of a metric as a share of its median: the distance
/// between the first and third quartile from four values up, the full
/// range below that (two or three repeats have no quartiles worth the
/// name).
pub fn spread(values: &[f64]) -> f64 {
    let mid = median(values);
    if values.len() < 2 || mid == 0.0 {
        return 0.0;
    }
    let width = if values.len() >= 4 {
        let q = quartiles(values);
        q[2] - q[0]
    } else {
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        hi - lo
    };
    (width / mid).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_on_known_vectors() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), Some(500.0));
        assert_eq!(percentile(&v, 0.95), Some(950.0));
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), Some(190.0));
    }

    #[test]
    fn percentile_refuses_a_tail_of_fewer_than_ten() {
        let v: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), None, "9.95 samples beyond p95");
        assert_eq!(percentile(&v, 0.99), None);
        assert!(percentile(&v, 0.50).is_some());
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn blocked_percentile_shrugs_off_one_stall_but_not_a_lasting_slowdown() {
        let steady: Vec<f64> = (0..1000)
            .map(|i| 1.0 + f64::from(i % 100) / 100.0)
            .collect();
        let p95 = blocked_percentile(&steady, 0.95).unwrap();
        assert!((1.9..2.0).contains(&p95), "{p95}");
        // 8 % of the window backed up behind one stall: the whole-window
        // p95 explodes, the median of five blocks does not move.
        let mut stalled = steady.clone();
        for v in &mut stalled[400..480] {
            *v += 300.0;
        }
        let mut sorted = stalled.clone();
        sorted.sort_by(f64::total_cmp);
        assert!(percentile(&sorted, 0.95).unwrap() > 300.0);
        assert_eq!(blocked_percentile(&stalled, 0.95), Some(p95));
        // Everything 20 % slower: every block moves.
        let slower: Vec<f64> = steady.iter().map(|v| v * 1.2).collect();
        let moved = blocked_percentile(&slower, 0.95).unwrap();
        assert!((moved / p95 - 1.2).abs() < 1e-9);
        assert_eq!(blocked_percentile(&steady[..BLOCK - 1], 0.95), None);
        assert!(blocked_percentile(&steady[..BLOCK], 0.95).is_some());
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40, 80], n=4) == [12.5, 30.0, 70.0]
        assert_eq!(quartiles(&[80.0, 10.0, 40.0, 20.0]), [12.5, 30.0, 70.0]);
    }

    #[test]
    fn spread_is_iqr_over_median_or_range_for_small_k() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert!((spread(&[100.0, 110.0]) - 10.0 / 105.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
        assert_eq!(spread(&[7.0, 7.0, 7.0]), 0.0);
    }
}
