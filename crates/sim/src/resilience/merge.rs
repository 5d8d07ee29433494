//! Deterministic, order-independent merging of campaign result streams.
//!
//! Floating-point accumulation is order-sensitive, so "merge results from
//! wherever they arrive" and "bit-identical aggregates" only coexist with a
//! canonical fold order. The [`MergeSink`] provides one: it buffers
//! arriving per-cell statistics and folds them into its running
//! [`CampaignAggregate`] strictly in cell-index order — cells are globally
//! indexed by the grid ([`crate::SweepSpec::cell`]), so the fold order is a
//! property of the campaign, not of scheduling, kill points, or shard
//! arrival. Across shards, whole aggregates combine through the exactly
//! commutative [`numeric::stats::Welford::merge`] in canonical range order
//! ([`MergeSink::merge_all`]), giving the same bits for every shard
//! arrival permutation.

use std::collections::BTreeMap;
use std::ops::Range;

use numeric::stats::Welford;

use crate::distributed::codec::{self, malformed};
use crate::error::SimError;
use crate::experiment::{ResultSink, RunReport};
use crate::metrics::RunSummary;

/// How many quarantined-cell failures a sink retains verbatim (the count is
/// always exact; only the retained details are capped, so a pathological
/// campaign cannot grow the checkpoint without bound).
const RETAINED_FAILURES: usize = 64;

/// The O(1) aggregation projection of one completed cell's [`RunSummary`]:
/// everything the campaign-level statistics fold over, nothing per-interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellStats {
    /// Whether the benchmark ran to completion within its duration cap.
    pub completed: bool,
    /// Execution time, seconds.
    pub execution_time_s: f64,
    /// Absorbed control intervals.
    pub intervals: usize,
    /// Total platform energy, joules.
    pub energy_j: f64,
    /// Mean platform power, watts.
    pub mean_platform_power_w: f64,
    /// Mean hot-spot temperature, °C.
    pub mean_temp_c: f64,
    /// Peak hot-spot temperature, °C.
    pub peak_temp_c: f64,
    /// Fraction of intervals the policy intervened in.
    pub intervention_rate: f64,
    /// Safety-ladder escalations recorded by the run.
    pub escalations: usize,
    /// Sensor-fault episodes recorded by the run.
    pub sensor_faults: usize,
    /// Whether the safety ladder's terminal rung retired the run.
    pub shut_down: bool,
}

impl From<&RunSummary> for CellStats {
    fn from(summary: &RunSummary) -> CellStats {
        CellStats {
            completed: summary.completed,
            execution_time_s: summary.execution_time_s,
            intervals: summary.intervals,
            energy_j: summary.energy_j,
            mean_platform_power_w: summary.mean_platform_power_w,
            mean_temp_c: summary.stability.mean_temp_c,
            peak_temp_c: summary.stability.peak_temp_c,
            intervention_rate: summary.intervention_rate,
            escalations: summary.incidents.escalations(),
            sensor_faults: summary.incidents.sensor_faults(),
            shut_down: summary.incidents.shut_down(),
        }
    }
}

/// A quarantined cell: the structured record a failing cell leaves behind
/// while the campaign continues without it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    /// The cell's linear grid index.
    pub index: usize,
    /// The final [`SimError`] rendered as text (the error after the retry
    /// budget was spent, for retryable failures).
    pub error: String,
}

/// One cell's terminal outcome in the merge stream.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome {
    /// The cell ran; its aggregation projection.
    Completed(CellStats),
    /// The cell was quarantined with a structured failure.
    Failed(CellFailure),
}

impl CellOutcome {
    /// The canonical projection from a run outcome to a cell outcome —
    /// every sink that feeds a merge fold (in-process or over a distributed
    /// transport) funnels through here, so the folded bits cannot depend on
    /// where the cell ran.
    pub(crate) fn from_run(index: usize, outcome: Result<RunReport, SimError>) -> CellOutcome {
        match outcome {
            Ok(report) => CellOutcome::Completed(CellStats::from(&report.summary)),
            Err(error) => CellOutcome::Failed(CellFailure {
                index,
                error: error.to_string(),
            }),
        }
    }
}

/// Campaign-level merged statistics: counts, totals, and Welford
/// accumulators over the per-cell summaries, maintained by [`MergeSink`] in
/// canonical cell order. Two aggregates over disjoint index ranges combine
/// exactly commutatively through [`CampaignAggregate::merge`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CampaignAggregate {
    /// Cells folded into this aggregate (successes and failures).
    pub cells: usize,
    /// Cells whose benchmark ran to completion.
    pub completed_runs: usize,
    /// Cells quarantined with a failure.
    pub failed_cells: usize,
    /// Cells retired by the safety ladder's terminal rung.
    pub shutdowns: usize,
    /// Total absorbed control intervals across all folded cells.
    pub total_intervals: usize,
    /// Total safety-ladder escalations across all folded cells.
    pub escalations: usize,
    /// Total sensor-fault episodes across all folded cells.
    pub sensor_faults: usize,
    /// Total platform energy across all folded cells, joules.
    pub total_energy_j: f64,
    /// Per-cell energy distribution, joules.
    pub energy_j: Welford,
    /// Per-cell mean-platform-power distribution, watts.
    pub mean_power_w: Welford,
    /// Per-cell execution-time distribution, seconds.
    pub execution_time_s: Welford,
    /// Per-cell peak-temperature distribution, °C.
    pub peak_temp_c: Welford,
    /// Per-cell mean-temperature distribution, °C.
    pub mean_temp_c: Welford,
}

impl CampaignAggregate {
    /// Folds one cell outcome into the running statistics. The caller fixes
    /// the fold order (the merge sink folds strictly by cell index).
    pub fn fold_cell(&mut self, outcome: &CellOutcome) {
        self.cells += 1;
        match outcome {
            CellOutcome::Completed(stats) => {
                if stats.completed {
                    self.completed_runs += 1;
                }
                if stats.shut_down {
                    self.shutdowns += 1;
                }
                self.total_intervals += stats.intervals;
                self.escalations += stats.escalations;
                self.sensor_faults += stats.sensor_faults;
                self.total_energy_j += stats.energy_j;
                self.energy_j.push(stats.energy_j);
                self.mean_power_w.push(stats.mean_platform_power_w);
                self.execution_time_s.push(stats.execution_time_s);
                self.peak_temp_c.push(stats.peak_temp_c);
                self.mean_temp_c.push(stats.mean_temp_c);
            }
            CellOutcome::Failed(_) => self.failed_cells += 1,
        }
    }

    /// Combines two aggregates over disjoint cell sets (Chan et al. merge on
    /// every Welford accumulator, exact sums elsewhere). Exactly commutative
    /// — [`Welford::merge`] canonicalises its operands and f64 addition is
    /// commutative — so pairwise shard combination gives the same bits in
    /// either order; [`MergeSink::merge_all`] additionally fixes the fold
    /// order across *many* shards by sorting on range start.
    #[must_use]
    pub fn merge(&self, other: &CampaignAggregate) -> CampaignAggregate {
        CampaignAggregate {
            cells: self.cells + other.cells,
            completed_runs: self.completed_runs + other.completed_runs,
            failed_cells: self.failed_cells + other.failed_cells,
            shutdowns: self.shutdowns + other.shutdowns,
            total_intervals: self.total_intervals + other.total_intervals,
            escalations: self.escalations + other.escalations,
            sensor_faults: self.sensor_faults + other.sensor_faults,
            total_energy_j: self.total_energy_j + other.total_energy_j,
            energy_j: self.energy_j.merge(&other.energy_j),
            mean_power_w: self.mean_power_w.merge(&other.mean_power_w),
            execution_time_s: self.execution_time_s.merge(&other.execution_time_s),
            peak_temp_c: self.peak_temp_c.merge(&other.peak_temp_c),
            mean_temp_c: self.mean_temp_c.merge(&other.mean_temp_c),
        }
    }
}

/// A [`ResultSink`] that folds the per-cell reports of one contiguous
/// cell-index range into a [`CampaignAggregate`] in canonical (index)
/// order, regardless of arrival order: out-of-order arrivals are buffered
/// in an index-ordered pending map and drained the moment the next-in-order
/// cell lands, so the retained state stays proportional to the in-flight
/// spread, not the campaign size.
///
/// Usually one sink covers the whole grid; sinks over disjoint ranges
/// combine through [`MergeSink::merge_all`]. The
/// sink's full state round-trips bit-exactly through
/// [`crate::distributed::encode_sink`]/[`crate::distributed::decode_sink`]
/// — the binary format also embedded in campaign checkpoints.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeSink {
    start: usize,
    end: usize,
    /// The next cell index the in-order fold is waiting for; cells in
    /// `[start, next)` are folded into `aggregate`.
    next: usize,
    aggregate: CampaignAggregate,
    /// Arrived-but-not-yet-foldable outcomes, keyed by cell index.
    pending: BTreeMap<usize, CellOutcome>,
    /// The first [`RETAINED_FAILURES`] quarantined cells, in fold order
    /// (the aggregate's `failed_cells` count is always exact).
    failures: Vec<CellFailure>,
}

impl MergeSink {
    /// A sink accepting exactly the cells of `range` (global grid indices).
    ///
    /// # Panics
    ///
    /// Panics on an inverted range.
    pub fn new(range: Range<usize>) -> MergeSink {
        assert!(range.start <= range.end, "inverted cell range");
        MergeSink {
            start: range.start,
            end: range.end,
            next: range.start,
            aggregate: CampaignAggregate::default(),
            pending: BTreeMap::new(),
            failures: Vec::new(),
        }
    }

    /// The cell-index range this sink covers.
    pub fn range(&self) -> Range<usize> {
        self.start..self.end
    }

    /// Cells folded into the aggregate so far (the contiguous prefix).
    pub fn folded(&self) -> usize {
        self.next - self.start
    }

    /// Cells that have reported (folded prefix plus buffered arrivals).
    pub fn completed_cells(&self) -> usize {
        self.folded() + self.pending.len()
    }

    /// Whether the given cell has already reported into this sink.
    pub fn is_cell_complete(&self, index: usize) -> bool {
        index < self.next || self.pending.contains_key(&index)
    }

    /// Whether every cell of the range has reported (and is folded: a full
    /// range leaves nothing pending).
    pub fn is_complete(&self) -> bool {
        self.next == self.end && self.pending.is_empty()
    }

    /// The canonical-order aggregate over the folded prefix (`[start,
    /// next)`). For a [complete](MergeSink::is_complete) sink this is the
    /// whole range's aggregate, bit-identical however the cells arrived.
    pub fn aggregate(&self) -> &CampaignAggregate {
        &self.aggregate
    }

    /// The retained quarantined-cell records, in cell order (capped at an
    /// internal limit; `aggregate().failed_cells` is the exact count).
    pub fn failures(&self) -> &[CellFailure] {
        &self.failures
    }

    /// Offers one cell's terminal outcome. Folds immediately if `index` is
    /// next in canonical order (draining any buffered successors), buffers
    /// it otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `index` is outside the sink's range or was already offered
    /// — the sweep contract delivers each cell exactly once.
    pub fn offer(&mut self, index: usize, outcome: CellOutcome) {
        assert!(
            (self.start..self.end).contains(&index),
            "cell {index} outside the sink range {}..{}",
            self.start,
            self.end
        );
        assert!(!self.is_cell_complete(index), "cell {index} reported twice");
        self.pending.insert(index, outcome);
        while let Some(outcome) = self.pending.remove(&self.next) {
            self.fold_next(&outcome);
        }
    }

    /// Folds the outcome of cell `next` (in canonical order).
    fn fold_next(&mut self, outcome: &CellOutcome) {
        self.aggregate.fold_cell(outcome);
        if let CellOutcome::Failed(failure) = outcome {
            if self.failures.len() < RETAINED_FAILURES {
                self.failures.push(failure.clone());
            }
        }
        self.next += 1;
    }

    /// Combines any number of completed shard sinks into the campaign-level
    /// aggregate, independent of the order the shards are handed over in:
    /// sinks are sorted by range start and their aggregates folded pairwise
    /// in that canonical order.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if any sink is incomplete or two
    /// sinks' ranges overlap.
    pub fn merge_all(
        shards: impl IntoIterator<Item = MergeSink>,
    ) -> Result<CampaignAggregate, SimError> {
        let mut shards: Vec<MergeSink> = shards.into_iter().collect();
        shards.sort_by_key(|sink| (sink.start, sink.end));
        let mut merged = CampaignAggregate::default();
        let mut covered_to: Option<usize> = None;
        for shard in &shards {
            if !shard.is_complete() {
                return Err(SimError::InvalidConfig(
                    "cannot merge an incomplete shard sink",
                ));
            }
            if covered_to.is_some_and(|end| shard.start < end) {
                return Err(SimError::InvalidConfig("shard cell ranges overlap"));
            }
            covered_to = Some(shard.end);
            merged = merged.merge(&shard.aggregate);
        }
        Ok(merged)
    }

    /// The sink's full state as the lowercase hex of its binary encoding
    /// ([`crate::distributed::encode_sink`]): equal strings mean
    /// bit-identical folds, so this is the key for bit-identity checks and
    /// logs.
    pub fn encode(&self) -> String {
        use std::fmt::Write as _;
        let bytes = codec::encode_sink(self);
        let mut hex = String::with_capacity(2 * bytes.len());
        for byte in bytes {
            let _ = write!(hex, "{byte:02x}");
        }
        hex
    }

    /// The fold cursor: the next cell index the in-order fold is waiting
    /// for. Crate-internal, for the codec.
    pub(crate) fn next_index(&self) -> usize {
        self.next
    }

    /// The buffered out-of-order arrivals, keyed by cell index.
    /// Crate-internal, for the codec.
    pub(crate) fn pending_outcomes(&self) -> &BTreeMap<usize, CellOutcome> {
        &self.pending
    }

    /// Reassembles a sink from its raw state, validating every structural
    /// invariant the field encoders cannot express: the range is ordered,
    /// the fold cursor lies inside it, the aggregate's cell count matches
    /// the folded prefix, and every pending outcome sits in the unfolded
    /// tail. Every decoder funnels through here, so they all reject exactly
    /// the same inconsistencies.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Io`] on any violated invariant.
    pub(crate) fn from_parts(
        start: usize,
        end: usize,
        next: usize,
        aggregate: CampaignAggregate,
        pending: BTreeMap<usize, CellOutcome>,
        failures: Vec<CellFailure>,
    ) -> Result<MergeSink, SimError> {
        if start > end {
            return Err(malformed("inverted cell range"));
        }
        if next < start || next > end {
            return Err(malformed("fold cursor outside the cell range"));
        }
        if aggregate.cells != next - start {
            return Err(malformed("aggregate cell count disagrees with cursor"));
        }
        if let Some((&index, _)) = pending
            .iter()
            .find(|(&index, _)| index < next || index >= end)
        {
            return Err(malformed(format!(
                "pending cell {index} outside the unfolded range"
            )));
        }
        Ok(MergeSink {
            start,
            end,
            next,
            aggregate,
            pending,
            failures,
        })
    }
}

impl ResultSink for MergeSink {
    fn accept(&mut self, index: usize, outcome: Result<RunReport, SimError>) {
        let outcome = CellOutcome::from_run(index, outcome);
        self.offer(index, outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(x: f64) -> CellStats {
        CellStats {
            completed: true,
            execution_time_s: 10.0 + x,
            intervals: 100 + x as usize,
            energy_j: 40.0 * x,
            mean_platform_power_w: 4.0 + x * 0.01,
            mean_temp_c: 50.0 + x,
            peak_temp_c: 60.0 + x,
            intervention_rate: 0.25,
            escalations: 1,
            sensor_faults: 0,
            shut_down: false,
        }
    }

    fn failure(index: usize) -> CellOutcome {
        CellOutcome::Failed(CellFailure {
            index,
            error: format!("cell panicked (contained): boom {index}"),
        })
    }

    #[test]
    fn folds_in_index_order_regardless_of_arrival_order() {
        let outcomes: Vec<CellOutcome> = (0..12)
            .map(|k| {
                if k == 5 {
                    failure(5)
                } else {
                    CellOutcome::Completed(stats(k as f64))
                }
            })
            .collect();
        let mut in_order = MergeSink::new(0..12);
        for (k, outcome) in outcomes.iter().enumerate() {
            in_order.offer(k, outcome.clone());
        }
        assert!(in_order.is_complete());

        // A scrambled arrival order (deterministic permutation).
        let mut scrambled = MergeSink::new(0..12);
        for &k in &[7, 0, 11, 3, 5, 1, 2, 10, 4, 9, 6, 8] {
            assert!(!scrambled.is_cell_complete(k));
            scrambled.offer(k, outcomes[k].clone());
            assert!(scrambled.is_cell_complete(k));
        }
        assert!(scrambled.is_complete());
        assert_eq!(scrambled, in_order, "bit-identical state either way");
        assert_eq!(scrambled.aggregate().cells, 12);
        assert_eq!(scrambled.aggregate().failed_cells, 1);
        assert_eq!(scrambled.failures().len(), 1);
        assert_eq!(scrambled.failures()[0].index, 5);
    }

    #[test]
    fn pending_is_bounded_by_the_arrival_spread() {
        let mut sink = MergeSink::new(10..20);
        sink.offer(12, CellOutcome::Completed(stats(2.0)));
        sink.offer(11, CellOutcome::Completed(stats(1.0)));
        assert_eq!(sink.folded(), 0, "still waiting on cell 10");
        assert_eq!(sink.completed_cells(), 2);
        sink.offer(10, CellOutcome::Completed(stats(0.0)));
        assert_eq!(sink.folded(), 3, "in-order arrival drains the buffer");
        assert!(!sink.is_complete());
    }

    #[test]
    fn shard_merge_is_arrival_order_independent() {
        let outcomes: Vec<CellOutcome> = (0..30)
            .map(|k| {
                if k % 13 == 7 {
                    failure(k)
                } else {
                    CellOutcome::Completed(stats(k as f64))
                }
            })
            .collect();
        let shard = |range: Range<usize>| {
            let mut sink = MergeSink::new(range.clone());
            for k in range {
                sink.offer(k, outcomes[k].clone());
            }
            sink
        };
        let (a, b, c) = (shard(0..9), shard(9..21), shard(21..30));
        let orders: [[&MergeSink; 3]; 3] = [[&a, &b, &c], [&c, &a, &b], [&b, &c, &a]];
        let merged: Vec<CampaignAggregate> = orders
            .iter()
            .map(|order| {
                MergeSink::merge_all(order.iter().map(|s| (*s).clone())).expect("shards merge")
            })
            .collect();
        assert_eq!(merged[0], merged[1]);
        assert_eq!(merged[1], merged[2]);
        assert_eq!(merged[0].cells, 30);
        assert_eq!(merged[0].failed_cells, 2, "cells 7 and 20 fail");
        // Counts and min/max agree exactly with a single whole-range fold;
        // the distribution moments agree to numerical noise.
        let whole = shard(0..30);
        let reference = whole.aggregate();
        assert_eq!(merged[0].completed_runs, reference.completed_runs);
        assert_eq!(merged[0].total_intervals, reference.total_intervals);
        assert_eq!(merged[0].peak_temp_c.min(), reference.peak_temp_c.min());
        assert_eq!(merged[0].peak_temp_c.max(), reference.peak_temp_c.max());
        assert!(
            (merged[0].energy_j.variance() - reference.energy_j.variance()).abs()
                <= 1e-9 * reference.energy_j.variance().max(1.0)
        );
    }

    #[test]
    fn merge_all_rejects_incomplete_and_overlapping_shards() {
        let mut incomplete = MergeSink::new(0..2);
        incomplete.offer(0, CellOutcome::Completed(stats(0.0)));
        assert!(MergeSink::merge_all([incomplete]).is_err());
        let full = |range: Range<usize>| {
            let mut sink = MergeSink::new(range.clone());
            for k in range {
                sink.offer(k, CellOutcome::Completed(stats(k as f64)));
            }
            sink
        };
        assert!(MergeSink::merge_all([full(0..3), full(2..5)]).is_err());
        assert!(
            MergeSink::merge_all([full(0..3), full(5..8)]).is_ok(),
            "gaps are fine"
        );
        assert_eq!(
            MergeSink::merge_all(std::iter::empty()).expect("empty merge"),
            CampaignAggregate::default()
        );
    }

    #[test]
    fn wire_round_trip_is_bit_exact_mid_flight() {
        let mut sink = MergeSink::new(3..40);
        for k in [3, 4, 5, 9, 12, 11, 30] {
            let outcome = if k == 9 {
                failure(9)
            } else {
                CellOutcome::Completed(stats(k as f64))
            };
            sink.offer(k, outcome);
        }
        let decoded = codec::decode_sink(&codec::encode_sink(&sink)).expect("round trip");
        assert_eq!(decoded, sink);
        // And for a complete sink.
        let mut sink = MergeSink::new(0..4);
        for k in 0..4 {
            sink.offer(k, CellOutcome::Completed(stats(k as f64)));
        }
        let decoded = codec::decode_sink(&codec::encode_sink(&sink)).expect("round trip");
        assert_eq!(decoded, sink);
        // Malformed inputs are rejected, not mis-parsed.
        assert!(codec::decode_sink(b"nonsense").is_err());
        let inverted = MergeSink::from_parts(
            5,
            2,
            5,
            CampaignAggregate::default(),
            BTreeMap::new(),
            Vec::new(),
        );
        assert!(inverted.is_err());
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn duplicate_cells_are_rejected() {
        let mut sink = MergeSink::new(0..2);
        sink.offer(0, CellOutcome::Completed(stats(0.0)));
        sink.offer(0, CellOutcome::Completed(stats(0.0)));
    }
}
