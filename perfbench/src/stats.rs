//! Order statistics over the benchmark's own raw samples.
//!
//! Every quantile the report prints is computed here, by nearest rank
//! over the sorted samples, never read off a log2 histogram's bucket
//! edges. A tail quantile is only reported when at least
//! [`MIN_BEYOND`] samples lie beyond it; otherwise the next lower
//! percentile that qualifies is used, and the report states which one.

/// Samples that must lie strictly beyond a tail percentile for it to be
/// reported.
pub const MIN_BEYOND: usize = 10;

/// Percentiles tried, highest first, when a tail percentile does not
/// have enough samples beyond it.
const LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// A set of raw samples (seconds, bytes per second, … — the caller
/// decides the unit).
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
}

/// A quantile together with the evidence behind it.
#[derive(Clone, Copy, Debug)]
pub struct Quantile {
    /// The percentile actually reported (0–100).
    pub pct: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// How many samples the quantile was computed from.
    pub n: usize,
    /// How many samples lie beyond it.
    pub beyond: usize,
}

impl Samples {
    pub fn new() -> Self {
        Samples::default()
    }

    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        self.sum() / self.len() as f64
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The nearest-rank `pct` percentile. `NaN` when there are no samples.
    pub fn quantile(&self, pct: f64) -> Quantile {
        let sorted = self.sorted();
        let n = sorted.len();
        if n == 0 {
            return Quantile {
                pct,
                value: f64::NAN,
                n,
                beyond: 0,
            };
        }
        let rank = ((pct / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
        Quantile {
            pct,
            value: sorted[rank - 1],
            n,
            beyond: n - rank,
        }
    }

    pub fn median(&self) -> f64 {
        self.quantile(50.0).value
    }

    /// The highest percentile, at most `want`, with at least
    /// [`MIN_BEYOND`] samples beyond it. With too few samples for any
    /// rung of the ladder, the median is returned (its `beyond` then
    /// says how thin the evidence is).
    pub fn tail(&self, want: f64) -> Quantile {
        LADDER
            .iter()
            .filter(|&&p| p <= want)
            .map(|&p| self.quantile(p))
            .find(|q| q.beyond >= MIN_BEYOND)
            .unwrap_or_else(|| self.quantile(50.0))
    }
}

/// Geometric mean of positive values; `NaN` for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(values: impl IntoIterator<Item = f64>) -> Samples {
        let mut s = Samples::new();
        for v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn nearest_rank_quantiles() {
        let s = samples((1..=100).map(f64::from));
        assert_eq!(s.median(), 50.0);
        let p99 = s.quantile(99.0);
        assert_eq!((p99.value, p99.beyond), (99.0, 1));
        assert_eq!(s.quantile(100.0).value, 100.0);
    }

    #[test]
    fn tail_falls_back_until_ten_samples_lie_beyond() {
        let s = samples((1..=100).map(f64::from));
        let q = s.tail(99.0);
        assert_eq!((q.pct, q.value, q.beyond), (90.0, 90.0, 10));
        let big = samples((1..=1000).map(f64::from));
        assert_eq!(big.tail(99.0).pct, 99.0);
        let tiny = samples([3.0, 1.0, 2.0]);
        assert_eq!(tiny.tail(99.0).value, 2.0);
    }

    #[test]
    fn geomean_of_equal_values_is_the_value() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
