//! Order statistics across runs and steps, and ratios that carry their
//! base.

use std::fmt;

/// Median of `xs` (mean of the two middle values for an even count;
/// 0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs)[1]
}

/// First quartile, median and third quartile of `xs`, by the
/// "exclusive" method that Python's `statistics.quantiles(xs, n=4)`
/// uses, so a spread computed here matches one computed from the
/// printed values. One sample gives that sample three times; an empty
/// slice gives zeros.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut data = xs.to_vec();
    data.sort_by(f64::total_cmp);
    match data.len() {
        0 => return [0.0; 3],
        1 => return [data[0]; 3],
        _ => {}
    }
    let ld = data.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// The median of each position across `series`: a repeated sequence
/// of the same steps becomes one sequence of per-step medians. Only
/// positions every series has are kept.
pub fn step_medians(series: &[&[f64]]) -> Vec<f64> {
    let len = series.iter().map(|s| s.len()).min().unwrap_or(0);
    (0..len)
        .map(|i| median(&series.iter().map(|s| s[i]).collect::<Vec<_>>()))
        .collect()
}

/// The candidate tail percentiles in hundredths of a percent, highest
/// last (integers, so nearest ranks carry no rounding error).
const TAIL_LADDER: [usize; 6] = [5000, 9000, 9500, 9900, 9990, 9999];

/// A tail latency: the highest percentile of [`TAIL_LADDER`] that
/// still has at least ten samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported (50, 90, 95, 99, ...).
    pub percentile: f64,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// The tail of `xs`: the highest ladder percentile whose nearest-rank
/// sample has at least ten samples ranked above it. `None` when even
/// the median has fewer than ten beyond it (under 20 samples).
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let mut data = xs.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    TAIL_LADDER.iter().rev().find_map(|&p| {
        // Nearest rank, 1-based: the smallest rank covering p of n.
        let rank = (p * n).div_ceil(10_000).max(1);
        let beyond = n.checked_sub(rank)?;
        (beyond >= 10).then(|| Tail {
            percentile: p as f64 / 100.0,
            value: data[rank - 1],
            beyond,
            samples: n,
        })
    })
}

/// A ratio kept with its numerator and denominator, so it is always
/// printed with its base.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Ratio {
    /// Numerator.
    pub num: f64,
    /// Denominator (the base).
    pub den: f64,
}

impl Ratio {
    /// `num / den`.
    pub fn new(num: f64, den: f64) -> Ratio {
        Ratio { num, den }
    }

    /// The quotient; 0 when the base is 0.
    pub fn value(&self) -> f64 {
        if self.den == 0.0 {
            0.0
        } else {
            self.num / self.den
        }
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6} ({} / {})", self.value(), self.num, self.den)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[8.0, 4.0, 2.0, 1.0]), [1.25, 3.0, 7.0]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert_eq!(quartiles(&[]), [0.0; 3]);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn step_medians_take_each_position_across_repetitions() {
        let a = [1.0, 10.0, 5.0];
        let b = [3.0, 20.0, 7.0, 99.0];
        let c = [2.0, 30.0, 6.0];
        assert_eq!(step_medians(&[&a, &b, &c]), vec![2.0, 20.0, 6.0]);
        assert_eq!(step_medians(&[&a]), a.to_vec());
        assert!(step_medians(&[]).is_empty());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1..=100: p90 is 90 with exactly ten beyond; p95 would leave five.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.samples),
            (90.0, 90.0, 10, 100)
        );
        // 1000 samples reach p99 (rank 990, ten beyond).
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));
        // 20 samples only support the median; 19 support nothing.
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs).unwrap().percentile, 50.0);
        assert_eq!(tail(&xs[..19]), None);
    }

    #[test]
    fn ratio_prints_its_base() {
        let r = Ratio::new(3.0, 4.0);
        assert_eq!(r.value(), 0.75);
        assert_eq!(r.to_string(), "0.750000 (3 / 4)");
        assert_eq!(Ratio::new(1.0, 0.0).value(), 0.0);
    }
}
