//! Order statistics the benchmark reports: medians, quartiles, the tail
//! percentile that still has ten samples beyond it, and the paired
//! comparison rule of the choosing-metrics guide (§8).

/// Median of a sample (mean of the two middle values when even); `0` for
/// an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the exclusive method), so
/// the spreads printed here are the ones the benchmark driver computes.
/// A sample of one has no spread: all three are that value.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return [0.0; 3];
    }
    if n == 1 {
        return [v[0]; 3];
    }
    let at = |k: usize| {
        // Exclusive method: the k-th quartile sits at rank k(n+1)/4
        // (1-based), clamped to the sample and linearly interpolated.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    [at(1), at(2), at(3)]
}

/// Distance between the quartiles as a share of the median (the spread
/// the acceptance rules compare with a metric's bound).
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The percentile ladder tails are chosen from, lowest first.
const TAIL_LADDER: [f64; 6] = [75.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// A tail value with the percentile it was taken at and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
}

/// The highest ladder percentile that still has at least ten samples
/// beyond it (nearest-rank value). A sample too small for even the
/// lowest rung reports its median as percentile 50.
pub fn tail(values: &[f64]) -> Tail {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let pick = TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0);
    match pick {
        Some(p) => {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            Tail {
                percentile: p,
                value: v[rank.clamp(1, n) - 1],
                samples: n,
            }
        }
        None => Tail {
            percentile: 50.0,
            value: median(&v),
            samples: n,
        },
    }
}

/// Verdict of the paired rule: of `pairs` (a, b) runs, `b` is *flagged
/// slower* when `a` wins at least nine tenths of the pairs (ties count
/// for neither side) and the medians differ by more than the distance
/// between `a`'s own quartiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairVerdict {
    pub a_wins: usize,
    pub b_wins: usize,
    pub median_a: f64,
    pub median_b: f64,
    pub iqr_a: f64,
    pub flagged: bool,
}

/// Applies the paired rule to lower-is-better values.
pub fn pair_rule(pairs: &[(f64, f64)]) -> PairVerdict {
    let a: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let b: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let a_wins = pairs.iter().filter(|(x, y)| x < y).count();
    let b_wins = pairs.iter().filter(|(x, y)| y < x).count();
    let [q1, median_a, q3] = quartiles(&a);
    let median_b = median(&b);
    let iqr_a = q3 - q1;
    let flagged = a_wins * 10 >= pairs.len() * 9 && (median_b - median_a) > iqr_a;
    PairVerdict {
        a_wins,
        b_wins,
        median_a,
        median_b,
        iqr_a,
        flagged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_medians_on_fixed_vectors() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // Five repetitions, each a median of its own samples.
        let reps: Vec<f64> = [
            vec![7.0, 7.2, 9.9],
            vec![7.1, 7.3, 7.4],
            vec![6.9, 7.0, 7.1],
            vec![7.4, 7.5, 30.0],
            vec![7.2, 7.2, 7.2],
        ]
        .iter()
        .map(|r| median(r))
        .collect();
        assert_eq!(reps, vec![7.2, 7.3, 7.0, 7.5, 7.2]);
        assert_eq!(median(&reps), 7.2);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
        assert!((iqr_share(&ten) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_the_percentile() {
        let n = |n: usize| -> Vec<f64> { (1..=n).map(|i| i as f64).collect() };
        // 150 samples: p95 leaves 7.5 beyond, p90 leaves 15.
        let t = tail(&n(150));
        assert_eq!((t.percentile, t.value, t.samples), (90.0, 135.0, 150));
        // 2500 samples: p99 leaves 25 beyond, p99.9 leaves 2.5.
        let t = tail(&n(2500));
        assert_eq!((t.percentile, t.value), (99.0, 2475.0));
        // 100 000 samples reach the top rung.
        assert_eq!(tail(&n(100_000)).percentile, 99.99);
        // 40 samples: exactly ten beyond p75.
        assert_eq!(tail(&n(40)).percentile, 75.0);
        // Too few for any rung: the median, labelled as such.
        let t = tail(&n(9));
        assert_eq!((t.percentile, t.value), (50.0, 5.0));
    }

    #[test]
    fn pair_rule_needs_both_wins_and_a_gap_beyond_the_spread() {
        // A clear 10 % slowdown with tight spread: flagged.
        let slow: Vec<(f64, f64)> = (0..10).map(|i| (7.0 + 0.01 * i as f64, 7.7)).collect();
        assert!(pair_rule(&slow).flagged);
        // Coin-flip wins: not flagged even though medians differ a little.
        let noise: Vec<(f64, f64)> = (0..10)
            .map(|i| if i % 2 == 0 { (7.0, 7.1) } else { (7.1, 7.0) })
            .collect();
        assert!(!pair_rule(&noise).flagged);
        // Nine wins but a gap inside the parent's own spread: not flagged.
        let wide: Vec<(f64, f64)> = (0..10).map(|i| (5.0 + i as f64, 5.5 + i as f64)).collect();
        let v = pair_rule(&wide);
        assert_eq!(v.a_wins, 10);
        assert!(!v.flagged);
    }
}
