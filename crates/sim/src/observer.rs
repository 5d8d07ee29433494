//! Streaming per-run observation: the [`RunObserver`] seam and its built-in
//! implementations.
//!
//! Before this module existed every run *accumulated*: the control loop
//! retained one [`TraceRecord`] per 100 ms interval and analysis happened
//! post-hoc on the full [`Trace`], so a sweep's memory grew as
//! scenarios × intervals — the batched engines could advance far more
//! scenarios than a campaign could afford to remember. The observer seam
//! turns the result path around: the executor *streams* every absorbed
//! interval through a [`RunObserver`], and what a run retains is whatever its
//! observer chose to keep.
//!
//! Two observers cover the spectrum:
//!
//! * [`Trace`] itself implements [`RunObserver`] — full per-interval
//!   retention, the classic [`crate::SimulationResult`] path.
//! * [`OnlineRunStats`] retains nothing per-interval: it folds each record
//!   into O(1) state (Welford mean/variance and running min/max via
//!   [`numeric::Welford`], running power sum, intervention/residency
//!   counters) and can produce the [`crate::metrics::StabilityReport`] and
//!   [`crate::metrics::BenchmarkComparison`] inputs of a run — the same
//!   numbers the post-hoc analysis computes from a retained trace, to within
//!   the Welford-vs-two-pass variance rounding (≤ 1e-9; mean power, min and
//!   max are bit-identical).
//!
//! The control loop *always* maintains an [`OnlineRunStats`] — it costs a
//! handful of flops per interval against the plant's thousands — so every
//! run produces a [`crate::metrics::RunSummary`]; [`TracePolicy`] (a knob
//! on [`crate::Experiment`], [`crate::ScenarioSweep`] and the campaign
//! runner) decides whether it retains a [`Trace`] besides.

use crate::metrics::StabilityReport;
use crate::trace::{Trace, TraceRecord};

/// Per-run streaming observation: one callback per absorbed control interval,
/// one at retirement.
///
/// The control-loop executor ([`crate::Experiment`], the lockstep runner and
/// every sweep/campaign path — they all share one executor) folds every
/// absorbed interval's [`TraceRecord`] into the run's [`OnlineRunStats`]
/// through this seam, and pushes it onto the run's [`Trace`] when it retains
/// one. Both implement it, so one record stream can feed either or both;
/// [`RunObserver::finish`] hands back whatever trajectory an observer
/// retained.
pub trait RunObserver: std::fmt::Debug + Send {
    /// Called once per absorbed control interval, in time order.
    fn on_interval(&mut self, record: &TraceRecord);

    /// Called once when the run retires (benchmark complete, duration cap, or
    /// error); hands back the retained trajectory, if any. The observer is
    /// spent afterwards.
    fn finish(&mut self) -> Option<Trace> {
        None
    }
}

/// Full per-interval retention: the trace *is* the observer.
impl RunObserver for Trace {
    fn on_interval(&mut self, record: &TraceRecord) {
        self.push(*record);
    }

    fn finish(&mut self) -> Option<Trace> {
        Some(std::mem::take(self))
    }
}

/// The online-metrics observer: O(1) state per run, no per-interval
/// retention.
///
/// Folds each interval into streaming accumulators and produces the inputs
/// of the evaluation's figures — [`StabilityReport`] (Welford mean/variance
/// and running min/max of the per-interval maximum core temperature), mean
/// platform power (plain running sum, bit-identical to
/// [`Trace::mean_platform_power_w`] over the same records), and the
/// intervention/residency rates. An optional absolute warm-up skip excludes
/// the first `skip` intervals from the *stability* window only (mean power
/// and the rates always cover the whole run), the streaming analogue of
/// [`StabilityReport::of_steady_portion`]'s prefix skip.
#[derive(Debug, Clone)]
pub struct OnlineRunStats {
    skip: usize,
    intervals: usize,
    power_sum_w: f64,
    max_temp: numeric::Welford,
    intervened: usize,
    little_intervals: usize,
}

impl OnlineRunStats {
    /// Statistics over the whole run (no warm-up skip).
    pub fn new() -> OnlineRunStats {
        OnlineRunStats::with_skipped_intervals(0)
    }

    /// Statistics whose *stability* window excludes the first `skip`
    /// intervals (mean power and the rates still cover every interval).
    pub fn with_skipped_intervals(skip: usize) -> OnlineRunStats {
        OnlineRunStats {
            skip,
            intervals: 0,
            power_sum_w: 0.0,
            max_temp: numeric::Welford::new(),
            intervened: 0,
            little_intervals: 0,
        }
    }

    /// Intervals folded in so far.
    pub fn intervals(&self) -> usize {
        self.intervals
    }

    /// Mean measured platform power, watts; 0 before the first interval
    /// (mirroring [`Trace::mean_platform_power_w`]).
    pub fn mean_platform_power_w(&self) -> f64 {
        if self.intervals == 0 {
            0.0
        } else {
            self.power_sum_w / self.intervals as f64
        }
    }

    /// Thermal stability over the (post-warm-up) stability window.
    ///
    /// # Panics
    ///
    /// Panics if the stability window is empty (no intervals past the
    /// configured skip), mirroring [`Trace::temperature_summary`].
    pub fn stability(&self) -> StabilityReport {
        let summary = self.max_temp.summary();
        StabilityReport {
            mean_temp_c: summary.mean,
            temp_range_c: summary.range(),
            temp_variance: summary.variance,
            peak_temp_c: summary.max,
        }
    }

    /// Fraction of intervals in which the DTPM policy intervened.
    pub fn intervention_rate(&self) -> f64 {
        if self.intervals == 0 {
            0.0
        } else {
            self.intervened as f64 / self.intervals as f64
        }
    }

    /// Fraction of intervals spent on the little cluster.
    pub fn little_cluster_residency(&self) -> f64 {
        if self.intervals == 0 {
            0.0
        } else {
            self.little_intervals as f64 / self.intervals as f64
        }
    }
}

impl Default for OnlineRunStats {
    fn default() -> Self {
        OnlineRunStats::new()
    }
}

impl RunObserver for OnlineRunStats {
    fn on_interval(&mut self, record: &TraceRecord) {
        self.power_sum_w += record.platform_power_w;
        if self.intervals >= self.skip {
            self.max_temp.push(record.max_core_temp_c());
        }
        if record.dtpm_intervened {
            self.intervened += 1;
        }
        if record.active_cluster == soc_model::ClusterKind::Little {
            self.little_intervals += 1;
        }
        self.intervals += 1;
    }
}

/// What a run retains per interval — the memory/fidelity knob of every
/// execution path ([`crate::Experiment`], [`crate::ScenarioSweep`], the
/// campaign runner).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePolicy {
    /// Retain the full per-interval trace (the [`crate::SimulationResult`]
    /// path). Memory per run is O(intervals).
    Full,
    /// Retain nothing per interval; the run reports only its streamed
    /// [`crate::metrics::RunSummary`]. Memory per run is O(1).
    SummaryOnly,
}

#[cfg(test)]
mod tests {
    use super::*;
    use power_model::DomainPower;
    use soc_model::{ClusterKind, FanLevel};

    fn record(k: usize) -> TraceRecord {
        let temp = 50.0 + (k % 13) as f64 * 0.7;
        TraceRecord {
            time_s: (k + 1) as f64 * 0.1,
            core_temps_c: [temp, temp - 1.0, temp - 0.5, temp - 1.5],
            active_cluster: if k.is_multiple_of(4) {
                ClusterKind::Little
            } else {
                ClusterKind::Big
            },
            frequency_mhz: 1600,
            online_cores: 4,
            gpu_frequency_mhz: 177,
            fan_level: FanLevel::Off,
            domain_power: DomainPower::new(3.0, 0.05, 0.1, 0.4),
            platform_power_w: 5.0 + (k % 7) as f64 * 0.21,
            progress: k as f64 / 100.0,
            predicted_peak_c: None,
            dtpm_intervened: k.is_multiple_of(5),
        }
    }

    fn replay(observer: &mut dyn RunObserver, count: usize) {
        for k in 0..count {
            observer.on_interval(&record(k));
        }
    }

    #[test]
    fn trace_observer_retains_everything() {
        let mut trace = Trace::new();
        replay(&mut trace, 37);
        let kept = trace.finish().expect("full retention");
        assert_eq!(kept.len(), 37);
        assert_eq!(kept.records()[36], record(36));
    }

    #[test]
    fn online_stats_match_the_retained_trace() {
        let mut trace = Trace::new();
        let mut stats = OnlineRunStats::new();
        replay(&mut trace, 211);
        replay(&mut stats, 211);
        assert_eq!(stats.intervals(), 211);
        assert_eq!(stats.finish(), None, "stats retain no trace");
        // The running power sum is the same left fold `Iterator::sum` does.
        assert_eq!(stats.mean_platform_power_w(), trace.mean_platform_power_w());
        assert_eq!(stats.intervention_rate(), trace.intervention_rate());
        assert_eq!(
            stats.little_cluster_residency(),
            trace.little_cluster_residency()
        );
        let online = stats.stability();
        let summary = trace.temperature_summary();
        assert_eq!(online.peak_temp_c, summary.max);
        assert_eq!(online.temp_range_c, summary.range());
        assert!((online.mean_temp_c - summary.mean).abs() < 1e-12);
        assert!((online.temp_variance - summary.variance).abs() < 1e-9);
    }

    #[test]
    fn online_stats_skip_excludes_only_the_stability_window() {
        let mut all = OnlineRunStats::new();
        let mut skipped = OnlineRunStats::with_skipped_intervals(50);
        replay(&mut all, 120);
        replay(&mut skipped, 120);
        // Whole-run quantities are unaffected by the warm-up skip.
        assert_eq!(all.mean_platform_power_w(), skipped.mean_platform_power_w());
        assert_eq!(all.intervention_rate(), skipped.intervention_rate());
        // The stability window is the suffix: recompute it directly.
        let mut reference = numeric::Welford::new();
        for k in 50..120 {
            reference.push(record(k).max_core_temp_c());
        }
        let stability = skipped.stability();
        assert_eq!(stability.peak_temp_c, reference.max());
        assert!((stability.mean_temp_c - reference.mean()).abs() < 1e-12);
        assert!((stability.temp_variance - reference.variance()).abs() < 1e-12);
    }

    #[test]
    fn empty_online_stats_are_neutral() {
        let stats = OnlineRunStats::default();
        assert_eq!(stats.mean_platform_power_w(), 0.0);
        assert_eq!(stats.intervention_rate(), 0.0);
        assert_eq!(stats.little_cluster_residency(), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_stability_window_panics() {
        OnlineRunStats::new().stability();
    }
}
