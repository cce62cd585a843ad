//! Aggregation of repeated measurements.

/// Median of `values` (mean of the two middle elements for even counts).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Linear-interpolated percentile `p` in `[0, 100]` over `values`.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// First quartile, median and third quartile.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    (
        percentile(values, 25.0),
        median(values),
        percentile(values, 75.0),
    )
}

/// The repetitions of one timed section.
///
/// Interference on a shared host only ever adds time, so the timing
/// metrics are taken from the fastest repetition; the quartiles are
/// printed beside it as a diagnostic of how noisy the host was.
#[derive(Clone, Debug, Default)]
pub struct Reps {
    /// Wall time of each repetition, seconds, in run order.
    pub walls: Vec<f64>,
}

impl Reps {
    /// Record one repetition.
    pub fn push(&mut self, wall_s: f64) {
        self.walls.push(wall_s);
    }

    /// Fastest repetition.
    ///
    /// # Panics
    ///
    /// Panics when no repetition was recorded.
    pub fn best(&self) -> f64 {
        assert!(!self.walls.is_empty(), "best of no repetitions");
        self.walls.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// `best / q1 / median / q3 / max over n` on one line.
    pub fn describe(&self) -> String {
        let (q1, med, q3) = quartiles(&self.walls);
        let max = self.walls.iter().copied().fold(0.0, f64::max);
        format!(
            "best {:.4}s q1 {q1:.4}s median {med:.4}s q3 {q3:.4}s max {max:.4}s over {} reps",
            self.best(),
            self.walls.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentiles_interpolate_and_clamp() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 50.0);
        assert_eq!(percentile(&v, 25.0), 20.0);
        assert_eq!(percentile(&v, 90.0), 46.0);
        assert_eq!(percentile(&v, 150.0), 50.0);
    }

    #[test]
    fn quartiles_bracket_the_median() {
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(quartiles(&v), (3.0, 5.0, 7.0));
    }

    #[test]
    fn best_of_reps_ignores_slow_outliers() {
        let mut r = Reps::default();
        for w in [2.0, 1.5, 9.0, 1.6] {
            r.push(w);
        }
        assert_eq!(r.best(), 1.5);
        assert!(r.describe().contains("over 4 reps"));
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_input_panics() {
        median(&[]);
    }
}
