//! Streaming per-run observation: the [`RunObserver`] seam and the
//! [`OnlineRunStats`] observer.
//!
//! A run does not retain one [`TraceRecord`] per 100 ms interval to report
//! its figures: the control loop folds every absorbed interval into an
//! [`OnlineRunStats`], which keeps O(1) state (Welford mean/variance and
//! running min/max via [`numeric::Welford`], running power sum,
//! intervention/residency counters) and produces the
//! [`crate::metrics::StabilityReport`], mean power and rates of the run's
//! [`crate::metrics::RunSummary`]. Mean power, min and max are bit-identical
//! to the two-pass statistics of a retained trace; the Welford mean and
//! variance agree with them to within rounding (≤ 1e-9).
//!
//! The stats cost a handful of flops per interval against the plant's
//! thousands, so every run path reports its summary; [`TracePolicy`] (a
//! knob on [`crate::Experiment`], [`crate::ScenarioSweep`] and the campaign
//! runner) decides whether the control loop also pushes each record onto a
//! [`crate::Trace`].

use crate::metrics::StabilityReport;
use crate::trace::TraceRecord;

/// Per-run streaming observation: one callback per absorbed control interval.
///
/// The control loop folds every absorbed interval's [`TraceRecord`] into the
/// run's [`OnlineRunStats`] through this seam; any other consumer of the
/// record stream can implement it too.
pub trait RunObserver: std::fmt::Debug + Send {
    /// Called once per absorbed control interval, in time order.
    fn on_interval(&mut self, record: &TraceRecord);
}

/// The online-metrics observer: O(1) state per run, no per-interval
/// retention.
///
/// Folds each interval into streaming accumulators and produces the inputs
/// of the evaluation's figures — [`StabilityReport`] (Welford mean/variance
/// and running min/max of the per-interval maximum core temperature), mean
/// platform power (plain running sum, bit-identical to
/// [`Trace::mean_platform_power_w`] over the same records), and the
/// intervention/residency rates, all over the whole run.
///
/// [`Trace::mean_platform_power_w`]: crate::Trace::mean_platform_power_w
#[derive(Debug, Clone)]
pub struct OnlineRunStats {
    intervals: usize,
    power_sum_w: f64,
    max_temp: numeric::Welford,
    intervened: usize,
    little_intervals: usize,
}

impl OnlineRunStats {
    /// Empty statistics, before the run's first interval.
    pub fn new() -> OnlineRunStats {
        OnlineRunStats {
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
    ///
    /// [`Trace::mean_platform_power_w`]: crate::Trace::mean_platform_power_w
    pub fn mean_platform_power_w(&self) -> f64 {
        if self.intervals == 0 {
            0.0
        } else {
            self.power_sum_w / self.intervals as f64
        }
    }

    /// Thermal stability over every interval folded in so far.
    ///
    /// # Panics
    ///
    /// Panics before the first interval, mirroring
    /// [`StabilityReport::of_steady_portion`] on an empty trace.
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
        self.max_temp.push(record.max_core_temp_c());
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
    /// Retain the full per-interval trace in the run's
    /// [`crate::RunReport::trace`]. Memory per run is O(intervals).
    Full,
    /// Retain nothing per interval; the run reports only its streamed
    /// [`crate::metrics::RunSummary`]. Memory per run is O(1).
    SummaryOnly,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;
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
    fn online_stats_match_the_retained_trace() {
        let mut trace = Trace::new();
        let mut stats = OnlineRunStats::new();
        for k in 0..211 {
            trace.push(record(k));
        }
        replay(&mut stats, 211);
        assert_eq!(stats.intervals(), 211);
        // The running power sum is the same left fold `Iterator::sum` does.
        assert_eq!(stats.mean_platform_power_w(), trace.mean_platform_power_w());
        assert_eq!(stats.intervention_rate(), trace.intervention_rate());
        assert_eq!(
            stats.little_cluster_residency(),
            trace.little_cluster_residency()
        );
        let online = stats.stability();
        let summary = numeric::Summary::of(&trace.max_temp_series());
        assert_eq!(online.peak_temp_c, summary.max);
        assert_eq!(online.temp_range_c, summary.range());
        assert!((online.mean_temp_c - summary.mean).abs() < 1e-12);
        assert!((online.temp_variance - summary.variance).abs() < 1e-9);
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
