//! Order statistics of timing samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! "exclusive" method), so the spread this benchmark prints is the spread
//! an outside checker computes from the same values.

/// Median, extremes and quartiles of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarises `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        let (q1, q3) = if n < 2 {
            (v[0], v[0])
        } else {
            (quantile(&v, 1), quantile(&v, 3))
        };
        Some(Summary {
            n,
            median,
            min: v[0],
            max: v[n - 1],
            q1,
            q3,
        })
    }

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    /// Interquartile range as a share of the median.
    pub fn iqr_share(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            self.iqr() / self.median.abs()
        }
    }
}

/// The `i`-th quartile cut (1 or 3) of sorted `v`, `v.len() >= 2`.
fn quantile(v: &[f64], i: usize) -> f64 {
    let n = v.len();
    let m = n + 1;
    let j = (i * m / 4).clamp(1, n - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_element_is_its_own_median_and_quartiles() {
        let s = Summary::of(&[3.5]).unwrap();
        assert_eq!(
            (s.n, s.median, s.q1, s.q3, s.iqr()),
            (1, 3.5, 3.5, 3.5, 0.0)
        );
    }

    #[test]
    fn odd_and_even_medians() {
        assert_eq!(Summary::of(&[5.0, 1.0, 3.0]).unwrap().median, 3.0);
        assert_eq!(Summary::of(&[4.0, 1.0, 3.0, 2.0]).unwrap().median, 2.5);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let s = Summary::of(&[4.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.q3), (1.0, 4.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        let s = Summary::of(&[1.0, 3.0]).unwrap();
        assert_eq!((s.q1, s.q3), (0.5, 3.5));
    }
}
