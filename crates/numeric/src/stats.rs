//! Descriptive statistics used throughout the evaluation.
//!
//! The paper reports thermal stability as average temperature, max–min spread
//! and temperature *variance* (the "6× reduction in variance" headline),
//! prediction quality as mean absolute percentage error, and power/performance
//! as relative savings/loss. All of those reductions live here so every crate
//! computes them identically.

/// Summary statistics of a scalar time series.
///
/// # Example
///
/// ```
/// use numeric::Summary;
///
/// let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(s.mean, 2.5);
/// assert_eq!(s.max - s.min, 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population variance.
    pub variance: f64,
    /// Standard deviation (square root of the population variance).
    pub std_dev: f64,
    /// Minimum sample.
    pub min: f64,
    /// Maximum sample.
    pub max: f64,
}

impl Summary {
    /// Computes summary statistics of the given samples.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "cannot summarise an empty series");
        let count = samples.len();
        let mean = samples.iter().sum::<f64>() / count as f64;
        let variance = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / count as f64;
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Summary {
            count,
            mean,
            variance,
            std_dev: variance.sqrt(),
            min,
            max,
        }
    }

    /// Max–min spread of the series (the paper's thermal-stability metric).
    pub fn range(&self) -> f64 {
        self.max - self.min
    }
}

/// Streaming (single-pass) accumulator for the [`Summary`] statistics:
/// Welford's online mean/variance recurrence plus running min/max.
///
/// Folding a series sample-by-sample produces the same mean/min/max as the
/// two-pass [`Summary::of`] (bit-identical for min/max) and a variance within
/// numerical noise of it, while retaining O(1) state — the building block the
/// simulation crate's online run metrics use to summarise a run without
/// keeping its per-interval trace in memory.
///
/// # Example
///
/// ```
/// use numeric::stats::Welford;
///
/// let mut w = Welford::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     w.push(x);
/// }
/// assert_eq!(w.mean(), 2.5);
/// assert_eq!(w.max() - w.min(), 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Welford {
    count: usize,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Welford {
        Welford {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Folds one sample into the running statistics.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples folded in so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Returns `true` if no samples have been folded in.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Running arithmetic mean; 0 for an empty accumulator.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Running population variance; 0 for fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Running minimum; `+∞` for an empty accumulator.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Running maximum; `−∞` for an empty accumulator.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Sum of squared deviations from the running mean (the raw `M2` term of
    /// Welford's recurrence; population variance is `m2 / count`). Exposed so
    /// checkpoint/merge wire formats can persist an accumulator exactly —
    /// pair with [`Welford::from_parts`] to reconstruct it.
    pub fn m2(&self) -> f64 {
        self.m2
    }

    /// Reassembles an accumulator from its raw state, the inverse of reading
    /// `count`/`mean`/[`Welford::m2`]/`min`/`max` — the bit-exact
    /// round-trip used by campaign checkpoint files. The parts are trusted:
    /// feeding back anything other than a previously observed state produces
    /// an accumulator that never arose from pushes.
    pub fn from_parts(count: usize, mean: f64, m2: f64, min: f64, max: f64) -> Welford {
        Welford {
            count,
            mean,
            m2,
            min,
            max,
        }
    }

    /// Merges two accumulators into the statistics of their combined sample
    /// streams (Chan et al.'s parallel combination of mean and `M2`, plus
    /// plain min/max folds), the building block for sharded campaigns.
    ///
    /// The combination formula is not floating-point symmetric in its
    /// operands, so `merge` first orders the pair by a fixed total order
    /// over their raw state (count, then the bit patterns of mean/m2/
    /// min/max) and always applies the formula to the ordered pair. That
    /// makes the operation **exactly commutative** — `a.merge(&b)` is
    /// bit-identical to `b.merge(&a)` — which is what lets shard aggregates
    /// be independent of arrival order. Associativity holds only up to
    /// floating-point rounding; order-sensitive pipelines should fold in a
    /// canonical sequence (as the campaign merge sink does).
    ///
    /// Count, min and max combine exactly; the merged mean agrees with a
    /// sequential feed of both streams to within rounding and the merged
    /// variance to within numerical noise.
    ///
    /// # Example
    ///
    /// ```
    /// use numeric::stats::Welford;
    ///
    /// let mut left = Welford::new();
    /// let mut right = Welford::new();
    /// for x in [1.0, 2.0] {
    ///     left.push(x);
    /// }
    /// for x in [3.0, 4.0] {
    ///     right.push(x);
    /// }
    /// let merged = left.merge(&right);
    /// assert_eq!(merged.count(), 4);
    /// assert_eq!(merged.mean(), 2.5);
    /// assert_eq!(merged, right.merge(&left));
    /// ```
    pub fn merge(&self, other: &Welford) -> Welford {
        // The fp-stable ordering rule: a total order over the raw state so
        // both argument orders apply the formula to the same (a, b) pair.
        let key = |w: &Welford| {
            (
                w.count,
                w.mean.to_bits(),
                w.m2.to_bits(),
                w.min.to_bits(),
                w.max.to_bits(),
            )
        };
        let (a, b) = if key(self) <= key(other) {
            (self, other)
        } else {
            (other, self)
        };
        if a.count == 0 {
            return *b;
        }
        let count = a.count + b.count;
        let (na, nb, n) = (a.count as f64, b.count as f64, count as f64);
        let delta = b.mean - a.mean;
        Welford {
            count,
            mean: a.mean + delta * (nb / n),
            m2: a.m2 + b.m2 + delta * delta * na * (nb / n),
            min: a.min.min(b.min),
            max: a.max.max(b.max),
        }
    }

    /// The accumulated statistics as a [`Summary`].
    ///
    /// # Panics
    ///
    /// Panics if the accumulator is empty, mirroring [`Summary::of`].
    pub fn summary(&self) -> Summary {
        assert!(self.count > 0, "cannot summarise an empty series");
        let variance = self.variance();
        Summary {
            count: self.count,
            mean: self.mean,
            variance,
            std_dev: variance.sqrt(),
            min: self.min,
            max: self.max,
        }
    }
}

impl Default for Welford {
    fn default() -> Self {
        Welford::new()
    }
}

/// Arithmetic mean of the samples; returns 0 for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Population variance of the samples; returns 0 for fewer than two samples.
pub fn variance(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let m = mean(samples);
    samples.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / samples.len() as f64
}

/// Root-mean-square error between two equally long series.
///
/// # Panics
///
/// Panics if the series lengths differ or are zero.
pub fn rmse(predicted: &[f64], actual: &[f64]) -> f64 {
    assert_eq!(predicted.len(), actual.len(), "rmse length mismatch");
    assert!(!predicted.is_empty(), "rmse of empty series");
    let sum: f64 = predicted
        .iter()
        .zip(actual)
        .map(|(p, a)| (p - a) * (p - a))
        .sum();
    (sum / predicted.len() as f64).sqrt()
}

/// Mean absolute error between two equally long series.
///
/// # Panics
///
/// Panics if the series lengths differ or are zero.
pub fn mean_absolute_error(predicted: &[f64], actual: &[f64]) -> f64 {
    assert_eq!(predicted.len(), actual.len(), "mae length mismatch");
    assert!(!predicted.is_empty(), "mae of empty series");
    predicted
        .iter()
        .zip(actual)
        .map(|(p, a)| (p - a).abs())
        .sum::<f64>()
        / predicted.len() as f64
}

/// Mean absolute percentage error (in percent) between predictions and actual
/// values. Samples whose actual value is zero are skipped.
///
/// This is the metric behind the paper's "average prediction error is less
/// than 3%" claim (with temperatures expressed in °C).
///
/// # Panics
///
/// Panics if the series lengths differ.
pub fn mean_absolute_percentage_error(predicted: &[f64], actual: &[f64]) -> f64 {
    assert_eq!(predicted.len(), actual.len(), "mape length mismatch");
    let mut total = 0.0;
    let mut count = 0usize;
    for (p, a) in predicted.iter().zip(actual) {
        if a.abs() > f64::EPSILON {
            total += ((p - a) / a).abs();
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        100.0 * total / count as f64
    }
}

/// Maximum absolute error between two equally long series.
///
/// # Panics
///
/// Panics if the series lengths differ.
pub fn max_absolute_error(predicted: &[f64], actual: &[f64]) -> f64 {
    assert_eq!(predicted.len(), actual.len(), "max error length mismatch");
    predicted
        .iter()
        .zip(actual)
        .map(|(p, a)| (p - a).abs())
        .fold(0.0, f64::max)
}

/// Normalised fit percentage, `100·(1 − ‖y − ŷ‖ / ‖y − mean(y)‖)`, the metric
/// reported by MATLAB's `compare` for identified models. 100 means a perfect
/// fit, 0 means no better than predicting the mean.
///
/// # Panics
///
/// Panics if the series lengths differ or are zero.
pub fn fit_percentage(predicted: &[f64], actual: &[f64]) -> f64 {
    assert_eq!(predicted.len(), actual.len(), "fit length mismatch");
    assert!(!predicted.is_empty(), "fit of empty series");
    let mean_actual = mean(actual);
    let err: f64 = predicted
        .iter()
        .zip(actual)
        .map(|(p, a)| (p - a) * (p - a))
        .sum::<f64>()
        .sqrt();
    let denom: f64 = actual
        .iter()
        .map(|a| (a - mean_actual) * (a - mean_actual))
        .sum::<f64>()
        .sqrt();
    if denom <= f64::EPSILON {
        if err <= f64::EPSILON {
            100.0
        } else {
            0.0
        }
    } else {
        100.0 * (1.0 - err / denom)
    }
}

/// Relative change from `baseline` to `value` in percent. Positive means
/// `value` is larger than the baseline.
///
/// Returns 0 if the baseline is zero.
pub fn relative_change_percent(baseline: f64, value: f64) -> f64 {
    if baseline.abs() <= f64::EPSILON {
        0.0
    } else {
        100.0 * (value - baseline) / baseline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_simple_series() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count, 8);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.variance, 4.0);
        assert_eq!(s.std_dev, 2.0);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.range(), 7.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn summary_of_empty_panics() {
        Summary::of(&[]);
    }

    #[test]
    fn mean_and_variance_edge_cases() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
        assert_eq!(variance(&[1.0, 3.0]), 1.0);
    }

    #[test]
    fn rmse_and_mae() {
        let p = [1.0, 2.0, 3.0];
        let a = [1.0, 2.0, 5.0];
        assert!((rmse(&p, &a) - (4.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert!((mean_absolute_error(&p, &a) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(max_absolute_error(&p, &a), 2.0);
    }

    #[test]
    fn mape_skips_zero_actuals() {
        let p = [1.1, 2.0, 50.0];
        let a = [1.0, 2.0, 0.0];
        // Only the first two points count: (10% + 0%) / 2 = 5%.
        assert!((mean_absolute_percentage_error(&p, &a) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn mape_all_zero_actuals_is_zero() {
        assert_eq!(mean_absolute_percentage_error(&[1.0], &[0.0]), 0.0);
    }

    #[test]
    fn fit_percentage_perfect_and_mean_prediction() {
        let actual = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(fit_percentage(&actual, &actual), 100.0);
        let mean_pred = [2.5, 2.5, 2.5, 2.5];
        assert!(fit_percentage(&mean_pred, &actual).abs() < 1e-9);
    }

    #[test]
    fn fit_percentage_constant_actual() {
        assert_eq!(fit_percentage(&[5.0, 5.0], &[5.0, 5.0]), 100.0);
        assert_eq!(fit_percentage(&[4.0, 6.0], &[5.0, 5.0]), 0.0);
    }

    #[test]
    fn welford_matches_two_pass_summary() {
        // Deterministic pseudo-random series (LCG), a few magnitudes.
        let mut x = 0x2545F4914F6CDD1Du64;
        for scale in [1.0, 60.0, 1e6] {
            let mut samples = Vec::new();
            let mut w = Welford::new();
            for _ in 0..1000 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let v = scale * (x >> 11) as f64 / (1u64 << 53) as f64;
                samples.push(v);
                w.push(v);
            }
            let two_pass = Summary::of(&samples);
            let online = w.summary();
            assert_eq!(online.count, two_pass.count);
            assert_eq!(online.min, two_pass.min, "min is a plain running fold");
            assert_eq!(online.max, two_pass.max, "max is a plain running fold");
            assert!(
                (online.mean - two_pass.mean).abs() <= 1e-12 * scale,
                "mean {} vs {}",
                online.mean,
                two_pass.mean
            );
            assert!(
                (online.variance - two_pass.variance).abs() <= 1e-9 * scale * scale,
                "variance {} vs {}",
                online.variance,
                two_pass.variance
            );
        }
    }

    #[test]
    fn welford_edge_cases() {
        let w = Welford::new();
        assert!(w.is_empty());
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.min(), f64::INFINITY);
        assert_eq!(w.max(), f64::NEG_INFINITY);
        let mut w = Welford::default();
        w.push(3.0);
        assert_eq!(w.count(), 1);
        assert_eq!(w.mean(), 3.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!((w.min(), w.max()), (3.0, 3.0));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn welford_summary_of_empty_panics() {
        Welford::new().summary();
    }

    #[test]
    fn welford_merge_matches_sequential_feed() {
        let samples: Vec<f64> = (0..500)
            .map(|k| 40.0 + (k as f64 * 0.37).sin() * 15.0)
            .collect();
        for split in [0, 1, 17, 250, 499, 500] {
            let mut all = Welford::new();
            let mut left = Welford::new();
            let mut right = Welford::new();
            for (k, &x) in samples.iter().enumerate() {
                all.push(x);
                if k < split {
                    left.push(x);
                } else {
                    right.push(x);
                }
            }
            let merged = left.merge(&right);
            assert_eq!(merged.count(), all.count(), "split {split}");
            assert_eq!(merged.min(), all.min(), "split {split}: min is exact");
            assert_eq!(merged.max(), all.max(), "split {split}: max is exact");
            assert!(
                (merged.mean() - all.mean()).abs() <= 1e-12 * all.mean().abs().max(1.0),
                "split {split}: mean {} vs {}",
                merged.mean(),
                all.mean()
            );
            assert!(
                (merged.variance() - all.variance()).abs() <= 1e-9 * all.variance().abs().max(1.0),
                "split {split}: variance {} vs {}",
                merged.variance(),
                all.variance()
            );
        }
    }

    #[test]
    fn welford_merge_is_exactly_commutative_and_empty_is_identity() {
        let mut a = Welford::new();
        let mut b = Welford::new();
        for x in [3.0, -1.5, 62.25, 0.125] {
            a.push(x);
        }
        for x in [41.0, 40.5, 58.0] {
            b.push(x);
        }
        assert_eq!(a.merge(&b), b.merge(&a), "bit-identical either way round");
        assert_eq!(a.merge(&Welford::new()), a, "empty right identity");
        assert_eq!(Welford::new().merge(&a), a, "empty left identity");
        assert_eq!(Welford::new().merge(&Welford::new()), Welford::new());
    }

    #[test]
    fn welford_parts_round_trip() {
        let mut w = Welford::new();
        for x in [55.0, 57.5, 56.25, 58.0] {
            w.push(x);
        }
        let back = Welford::from_parts(w.count(), w.mean(), w.m2(), w.min(), w.max());
        assert_eq!(back, w, "raw-state round trip is bit-exact");
        // An empty accumulator (±∞ sentinels) round-trips too — the case
        // JSON-style serialisation would mangle.
        let empty = Welford::new();
        let back = Welford::from_parts(
            empty.count(),
            empty.mean(),
            empty.m2(),
            empty.min(),
            empty.max(),
        );
        assert_eq!(back, empty);
    }

    #[test]
    fn relative_change() {
        assert_eq!(relative_change_percent(2.0, 1.0), -50.0);
        assert_eq!(relative_change_percent(0.0, 1.0), 0.0);
        assert_eq!(relative_change_percent(4.0, 5.0), 25.0);
    }
}
