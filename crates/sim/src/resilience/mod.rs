//! The robustness layer for long campaigns: checkpoint/resume, deterministic
//! merge, and cell-level fault containment.
//!
//! A production-scale campaign (the ROADMAP's million-cell fleet sweeps)
//! runs for hours; without this module a single panicking cell, a runaway
//! run, or a killed process throws the whole campaign away. The grid
//! substrate already provides everything containment needs — cells are
//! addressed by linear index with order-independent SplitMix64 seeds
//! ([`crate::campaign::SweepSpec`]) — so resilience is purely additive:
//!
//! * **Containment** (hooks in the sweep executor, policy here): every
//!   per-cell control-loop call in the worker loop runs under
//!   `catch_unwind`, so a panicking cell retires with a structured
//!   [`crate::SimError::Panicked`] instead of unwinding the worker (and the
//!   result sink recovers from mutex poisoning rather than deadlocking
//!   siblings). A [`ResiliencePolicy`] adds bounded deterministic retry —
//!   the cell is re-admitted from scratch with its seed-stable
//!   configuration, no RNG state involved — and poison-cell quarantine when
//!   the retry budget is spent, plus a cooperative per-cell deadline
//!   (interval-count watchdog) that cancels runaway cells cleanly with
//!   [`crate::SimError::Deadline`].
//! * **Checkpoint/resume** ([`checkpoint`]): a [`CheckpointSink`] wraps any
//!   [`crate::ResultSink`] and atomically (temp file + rename) persists a
//!   [`CampaignCheckpoint`] — completed-cell bitmap plus merged
//!   summary/Welford partials and incident counts — every N completed
//!   cells. [`crate::CampaignRunner::resume_from`] skips completed cells;
//!   because the merge folds per-cell stats in canonical index order, the
//!   resumed campaign's merged output is bit-identical to an uninterrupted
//!   run no matter where the kill landed.
//! * **Merge** ([`merge`]): a [`MergeSink`] folds per-cell outcomes in
//!   canonical index order whatever order they arrive in, and
//!   [`MergeSink::merge_all`] combines sinks over disjoint cell ranges —
//!   via the exactly-commutative [`numeric::stats::Welford::merge`], folded
//!   in canonical range order — into aggregates independent of arrival
//!   order.
//!
//! Determinism is the design invariant throughout: retries re-derive the
//! identical cell (seeds are a pure function of the campaign seed and cell
//! index), merges fold in canonical cell order, and checkpoints store
//! floats as exact bit patterns (the binary format of
//! [`crate::distributed::codec`]) — so "resumed", "distributed" and
//! "uninterrupted" describe the same numbers.

use crate::error::SimError;

pub mod checkpoint;
pub mod merge;
pub(crate) mod v1;

pub use checkpoint::{CampaignCheckpoint, CellBitmap, CheckpointSink};
pub use merge::{CampaignAggregate, CellFailure, CellOutcome, CellStats, MergeSink};

/// Containment policy for a sweep or campaign: how many times a transiently
/// failing cell is retried before quarantine, and the cooperative per-cell
/// deadline. The default (no retries, no deadline) keeps every existing
/// sweep bit-identical — panic containment itself is always on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResiliencePolicy {
    /// How many times a cell that failed with a retryable error
    /// ([`SimError::Panicked`] / [`SimError::Deadline`]) is re-admitted
    /// from scratch before being quarantined with its final error. Retries
    /// are deterministic: the cell's configuration (and therefore its seed)
    /// is re-derived identically — no RNG state is consulted.
    pub max_retries: u32,
    /// Cooperative per-cell deadline in control intervals: a cell still
    /// running after this many absorbed intervals is cancelled with
    /// [`SimError::Deadline`] at the next interval boundary (`None`: no
    /// deadline). This is the watchdog for runaway cells whose duration cap
    /// is far larger than their expected run length.
    pub deadline_intervals: Option<usize>,
}

impl ResiliencePolicy {
    /// A policy retrying retryable failures up to `max_retries` times.
    #[must_use]
    pub fn with_max_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// A policy cancelling cells after `intervals` absorbed control
    /// intervals.
    #[must_use]
    pub fn with_deadline_intervals(mut self, intervals: usize) -> Self {
        self.deadline_intervals = Some(intervals);
        self
    }

    /// Whether a failure is worth re-running the cell for: contained panics
    /// and deadline cancellations are (they may be environmental); model and
    /// configuration errors are deterministic and are not.
    pub fn is_retryable(error: &SimError) -> bool {
        matches!(error, SimError::Panicked(_) | SimError::Deadline { .. })
    }

    /// Whether a cell that has absorbed `intervals` intervals has exceeded
    /// the deadline.
    pub(crate) fn exceeds_deadline(&self, intervals: usize) -> bool {
        self.deadline_intervals
            .is_some_and(|deadline| intervals >= deadline)
    }
}

/// Deterministic executor-fault injection for testing the containment
/// machinery — the control-flow analogue of [`crate::faults::FaultPlan`]
/// (which corrupts sensor data, never control flow). A plan makes the
/// cell's control loop panic at a declared interval, optionally "healing"
/// after a number of retry attempts so bounded retry can be exercised
/// end-to-end. Entirely inert by default and on every healthy cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosPlan {
    /// Panic when the control loop stages the decision of this interval.
    pub panic_at_interval: Option<usize>,
    /// The injected failure stops firing once `attempt` reaches this count
    /// (0: already healed, `u32::MAX`: never heals). Lets tests model a
    /// transient fault that a retry survives.
    pub heal_after_attempts: u32,
    /// Which execution attempt of the cell this is; stamped by the sweep's
    /// retry machinery (0 on first admission, 1 on the first retry, …).
    pub attempt: u32,
}

impl ChaosPlan {
    /// A plan that panics at the given interval on every attempt.
    pub fn panic_at(interval: usize) -> ChaosPlan {
        ChaosPlan {
            panic_at_interval: Some(interval),
            heal_after_attempts: u32::MAX,
            attempt: 0,
        }
    }

    /// The same plan healed after the given number of failed attempts: the
    /// fault stops firing once that many attempts have failed, so a retry
    /// budget of at least `attempts` lets the cell complete.
    #[must_use]
    pub fn healing_after(mut self, attempts: u32) -> ChaosPlan {
        self.heal_after_attempts = attempts;
        self
    }

    /// Fires the injected panic if this interval (and attempt) is faulted.
    pub(crate) fn maybe_panic(&self, interval: usize) {
        if self.attempt < self.heal_after_attempts && self.panic_at_interval == Some(interval) {
            panic!(
                "chaos plan: injected panic at interval {interval} (attempt {})",
                self.attempt
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::{decode_sink, encode_sink};

    #[test]
    fn policy_defaults_are_inert() {
        let policy = ResiliencePolicy::default();
        assert_eq!(policy.max_retries, 0);
        assert_eq!(policy.deadline_intervals, None);
        assert!(!policy.exceeds_deadline(usize::MAX));
        let armed = ResiliencePolicy::default()
            .with_max_retries(2)
            .with_deadline_intervals(10);
        assert!(armed.exceeds_deadline(10));
        assert!(!armed.exceeds_deadline(9));
    }

    #[test]
    fn retryability_is_limited_to_containment_errors() {
        assert!(ResiliencePolicy::is_retryable(&SimError::Panicked(
            "boom".into()
        )));
        assert!(ResiliencePolicy::is_retryable(&SimError::Deadline {
            intervals: 5
        }));
        assert!(!ResiliencePolicy::is_retryable(&SimError::Thermal(
            "diverged".into()
        )));
        assert!(!ResiliencePolicy::is_retryable(&SimError::InvalidConfig(
            "bad"
        )));
    }

    #[test]
    fn chaos_plans_fire_and_heal_deterministically() {
        let plan = ChaosPlan::panic_at(3);
        plan.maybe_panic(2); // other intervals never fire
        let healed = ChaosPlan::panic_at(3).healing_after(1);
        let mut retried = healed;
        retried.attempt = 1;
        retried.maybe_panic(3); // attempt past the healing bound: inert
        assert!(ChaosPlan::default().panic_at_interval.is_none());
    }

    #[test]
    #[should_panic(expected = "injected panic at interval 3")]
    fn chaos_plans_panic_inside_the_window() {
        ChaosPlan::panic_at(3).maybe_panic(3);
    }

    #[test]
    fn wire_round_trips_are_bit_exact() {
        // Cell 0 never reports, so every outcome stays pending and travels
        // verbatim: special floats and awkward strings included.
        let floats = [
            0.0,
            -0.0,
            1.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            std::f64::consts::PI,
            f64::NAN,
        ];
        let strings = ["", "plain", "with spaces\nand newlines", "ünïcode"];
        let failed_at = |k: usize| 1 + floats.len() + k;
        let mut sink = MergeSink::new(0..failed_at(strings.len()));
        for (k, &x) in floats.iter().enumerate() {
            let stats = CellStats {
                completed: true,
                execution_time_s: x,
                intervals: k,
                energy_j: x,
                mean_platform_power_w: x,
                mean_temp_c: x,
                peak_temp_c: x,
                intervention_rate: x,
                escalations: 0,
                sensor_faults: 0,
                shut_down: false,
            };
            sink.offer(1 + k, CellOutcome::Completed(stats));
        }
        for (k, error) in strings.iter().enumerate() {
            let failure = CellFailure {
                index: failed_at(k),
                error: (*error).to_owned(),
            };
            sink.offer(failed_at(k), CellOutcome::Failed(failure));
        }
        let bytes = encode_sink(&sink);
        let back = decode_sink(&bytes).expect("round trip");
        // Compared by re-encoding: NaN != NaN under PartialEq.
        assert_eq!(encode_sink(&back), bytes);
        for (k, &x) in floats.iter().enumerate() {
            let CellOutcome::Completed(stats) = &back.pending_outcomes()[&(1 + k)] else {
                panic!("cell {} lost its stats", 1 + k);
            };
            assert_eq!(stats.energy_j.to_bits(), x.to_bits(), "{x}");
        }
        for (k, error) in strings.iter().enumerate() {
            let CellOutcome::Failed(failure) = &back.pending_outcomes()[&failed_at(k)] else {
                panic!("cell {} lost its failure", failed_at(k));
            };
            assert_eq!(failure.error, *error);
        }
        assert!(decode_sink(b"xyz").is_err());
    }
}
