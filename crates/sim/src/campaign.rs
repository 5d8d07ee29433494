//! Declarative sweep campaigns: a grid specification expanded lazily into
//! experiment configurations and streamed through the lane-compacting
//! sweep.
//!
//! The paper's evaluation is itself a grid — {baseline, reactive, DTPM} ×
//! 15 benchmarks × ambient/fan conditions (Figures 6.5/6.9/6.10) — and the
//! calibration/characterisation studies of the related work explore the
//! power–temperature state space over exactly such grids. [`SweepSpec`]
//! declares one: a cartesian product of configuration axes
//! (ExperimentKinds × benchmarks × ambients × DTPM variants × fault
//! scenarios × replicates) with deterministic per-cell seed derivation, so a
//! campaign is a small value that can be stored
//! ([`crate::distributed::encode_spec`]), reviewed, and re-run
//! bit-identically. The fault axis (default: a single fault-free entry)
//! injects [`FaultPlan`] sensor-fault scenarios into whole slices of the
//! grid, turning robustness studies into ordinary campaign cells.
//!
//! Three properties matter at scale:
//!
//! * **Lazy expansion.** A cell's [`ExperimentConfig`] is materialised by
//!   [`SweepSpec::cell`] from its linear index on demand — workers claim an
//!   index and build the cell; a million-cell campaign never holds a
//!   million configs.
//! * **Order-independent seeding.** Cell seeds are
//!   [`splitmix64`]`(campaign_seed + cell_index)`: a bijective hash of the
//!   cell's coordinates, not a sequentially-stepped RNG — so every cell's
//!   seed is distinct, stable across runs, and independent of the order (or
//!   subset) in which cells execute.
//! * **Streaming results.** [`CampaignRunner::run_into`] drives the grid
//!   through the compacting sweep scheduler into a
//!   [`crate::experiment::ResultSink`], summaries-only by default: retained
//!   memory is O(cells), never O(cells × intervals).

use dtpm::DtpmConfig;
use numeric::codec::ByteWriter;
use workload::BenchmarkId;

use crate::calibrate::Calibration;
use crate::distributed::codec::put_spec;
use crate::engine::EnginePrecision;
use crate::error::SimError;
use crate::experiment::{sweep_stream, ExperimentConfig, ExperimentKind, ResultSink};
use crate::faults::FaultPlan;
use crate::observer::TracePolicy;
use crate::plant::PlantPowerParams;
use crate::resilience::{CampaignCheckpoint, ChaosPlan, ResiliencePolicy};

/// SplitMix64: the finalising mix of a 64-bit counter into a well-distributed
/// 64-bit value (Steele et al., *Fast splittable pseudorandom number
/// generators*). It is a bijection on `u64`, which is exactly the property
/// grid seeding needs: distinct cell indices provably derive distinct seeds.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// 64-bit FNV-1a over `bytes`.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// One point on a campaign's DTPM-variant axis: the prediction horizon and
/// the temperature constraint, the two knobs the paper's sensitivity
/// discussions vary. Non-DTPM kinds ignore this axis — declare a single
/// variant when mixing kinds, or the grid runs redundant baseline cells.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DtpmVariant {
    /// Prediction horizon in control intervals.
    pub horizon_steps: usize,
    /// Maximum permissible hotspot temperature, °C.
    pub constraint_c: f64,
}

impl Default for DtpmVariant {
    /// The paper's evaluated configuration: 10 × 100 ms horizon, 63 °C.
    fn default() -> Self {
        let base = DtpmConfig::default();
        DtpmVariant {
            horizon_steps: base.prediction_horizon_steps,
            constraint_c: base.temperature_constraint_c,
        }
    }
}

impl DtpmVariant {
    /// This variant applied over a base DTPM configuration.
    pub fn apply(self, mut base: DtpmConfig) -> DtpmConfig {
        base.prediction_horizon_steps = self.horizon_steps;
        base.temperature_constraint_c = self.constraint_c;
        base
    }
}

/// A declarative sweep campaign: the cartesian product of configuration
/// axes, expanded lazily into [`ExperimentConfig`]s with deterministic
/// per-cell seeds (see the [module docs](self)).
///
/// Cells are ordered kind-major: the linear index decomposes as
/// kinds × benchmarks × ambients × variants × fault plans × replicates,
/// with the replicate axis fastest. Every cell shares the campaign's scalar
/// parameters (control period, duration cap, plant, sensors), so a whole
/// grid steps in lockstep through the batched engines.
///
/// # Example
///
/// ```no_run
/// use platform_sim::{CalibrationCampaign, CollectSink, ExperimentKind, SweepSpec};
/// use workload::BenchmarkId;
///
/// # fn main() -> Result<(), platform_sim::SimError> {
/// let calibration = CalibrationCampaign::default().run(7)?;
/// let spec = SweepSpec::new(
///     vec![ExperimentKind::DefaultWithFan, ExperimentKind::Dtpm],
///     BenchmarkId::paper_set().collect(),
/// )
/// .with_ambients_c(vec![24.0, 28.0, 32.0])
/// .with_replicates(4);
/// assert_eq!(spec.cells(), 2 * 15 * 3 * 4);
/// let mut sink = CollectSink::new(spec.cells());
/// spec.runner().with_lanes(8).run_into(&calibration, &mut sink);
/// // Summaries only: no run retained its per-interval trace.
/// assert!(sink
///     .into_reports()
///     .iter()
///     .all(|r| r.as_ref().map(|r| r.trace.is_none()).unwrap_or(true)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// The thermal-management configurations to run (grid axis 1).
    pub kinds: Vec<ExperimentKind>,
    /// The benchmarks to run (grid axis 2).
    pub benchmarks: Vec<BenchmarkId>,
    /// Ambient temperatures, °C (grid axis 3).
    pub ambients_c: Vec<f64>,
    /// DTPM algorithm variants (grid axis 4; ignored by non-DTPM kinds).
    pub dtpm_variants: Vec<DtpmVariant>,
    /// Sensor fault scenarios (grid axis 5): each entry is a fault plan to
    /// inject into every run of that slice of the grid, with `None` the
    /// fault-free baseline. Defaults to a single fault-free entry, which
    /// leaves the cell indexing (and therefore every derived seed) of
    /// pre-fault-axis campaigns unchanged.
    pub fault_plans: Vec<Option<FaultPlan>>,
    /// Replicate runs per grid point (grid axis 6, the seed axis): each
    /// replicate derives a distinct per-cell seed.
    pub replicates: usize,
    /// Campaign master seed every cell seed is derived from.
    pub campaign_seed: u64,
    /// Base DTPM configuration the variants override.
    pub base_dtpm: DtpmConfig,
    /// Control interval shared by every cell, seconds.
    pub control_period_s: f64,
    /// Duration cap shared by every cell, seconds.
    pub max_duration_s: f64,
    /// Plant (true silicon) parameters shared by every cell.
    pub plant: PlantPowerParams,
    /// Use ideal (noise-free) sensors in every cell.
    pub ideal_sensors: bool,
    /// Plant-engine element precision shared by every cell (default
    /// [`EnginePrecision::F64`]).
    pub precision: EnginePrecision,
    /// Deterministic executor-fault injection pinned to specific cells:
    /// each `(cell index, plan)` entry makes that cell's control loop carry
    /// the [`ChaosPlan`] — the containment/retry test hook, now a campaign
    /// property so distributed and in-process executions of the same spec
    /// inject identical faults. Empty (the default) is entirely inert.
    pub chaos_cells: Vec<(usize, ChaosPlan)>,
}

impl SweepSpec {
    /// A campaign over the given kind and benchmark axes with the paper's
    /// defaults everywhere else: one ambient (28 °C), one (default) DTPM
    /// variant, one replicate, campaign seed 1.
    pub fn new(kinds: Vec<ExperimentKind>, benchmarks: Vec<BenchmarkId>) -> SweepSpec {
        let defaults = ExperimentConfig::new(ExperimentKind::Dtpm, BenchmarkId::Basicmath);
        SweepSpec {
            kinds,
            benchmarks,
            ambients_c: vec![defaults.ambient_c],
            dtpm_variants: vec![DtpmVariant::default()],
            fault_plans: vec![None],
            replicates: 1,
            campaign_seed: 1,
            base_dtpm: defaults.dtpm,
            control_period_s: defaults.control_period_s,
            max_duration_s: defaults.max_duration_s,
            plant: defaults.plant,
            ideal_sensors: defaults.ideal_sensors,
            precision: defaults.precision,
            chaos_cells: Vec::new(),
        }
    }

    /// Replaces the ambient-temperature axis.
    #[must_use]
    pub fn with_ambients_c(mut self, ambients_c: Vec<f64>) -> Self {
        self.ambients_c = ambients_c;
        self
    }

    /// Replaces the DTPM-variant axis.
    #[must_use]
    pub fn with_dtpm_variants(mut self, dtpm_variants: Vec<DtpmVariant>) -> Self {
        self.dtpm_variants = dtpm_variants;
        self
    }

    /// Replaces the sensor-fault axis. Each entry applies to a full slice of
    /// the grid (`None` = fault-free); pass `vec![None, Some(plan)]` to run
    /// every scenario both clean and faulted.
    #[must_use]
    pub fn with_fault_plans(mut self, fault_plans: Vec<Option<FaultPlan>>) -> Self {
        self.fault_plans = fault_plans;
        self
    }

    /// Sets the replicate (seed-axis) count.
    #[must_use]
    pub fn with_replicates(mut self, replicates: usize) -> Self {
        self.replicates = replicates;
        self
    }

    /// Sets the campaign master seed.
    #[must_use]
    pub fn with_campaign_seed(mut self, campaign_seed: u64) -> Self {
        self.campaign_seed = campaign_seed;
        self
    }

    /// Sets the per-cell duration cap, seconds.
    #[must_use]
    pub fn with_max_duration_s(mut self, max_duration_s: f64) -> Self {
        self.max_duration_s = max_duration_s;
        self
    }

    /// Uses ideal (noise-free) sensors in every cell.
    #[must_use]
    pub fn with_ideal_sensors(mut self, ideal_sensors: bool) -> Self {
        self.ideal_sensors = ideal_sensors;
        self
    }

    /// Sets the plant-engine precision every cell runs at.
    #[must_use]
    pub fn with_precision(mut self, precision: EnginePrecision) -> Self {
        self.precision = precision;
        self
    }

    /// Pins a [`ChaosPlan`] to one cell of the grid: that cell's control
    /// loop will carry the injected executor fault on every execution of
    /// this spec, wherever (and however often, under retry) the cell runs.
    #[must_use]
    pub fn with_cell_chaos(mut self, index: usize, plan: ChaosPlan) -> Self {
        self.chaos_cells.push((index, plan));
        self
    }

    /// Number of grid cells: the product of every axis length (zero if any
    /// axis is empty).
    pub fn cells(&self) -> usize {
        self.kinds.len()
            * self.benchmarks.len()
            * self.ambients_c.len()
            * self.dtpm_variants.len()
            * self.fault_plans.len()
            * self.replicates
    }

    /// Returns `true` if the grid has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells() == 0
    }

    /// The derived seed of cell `index`: [`splitmix64`] of the campaign seed
    /// plus the cell's linear index — distinct per cell (SplitMix64 is a
    /// bijection), stable across runs, independent of execution order.
    pub fn cell_seed(&self, index: usize) -> u64 {
        splitmix64(self.campaign_seed.wrapping_add(index as u64))
    }

    /// Materialises cell `index` of the grid (kind-major order, replicates
    /// fastest).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn cell(&self, index: usize) -> ExperimentConfig {
        assert!(index < self.cells(), "cell index out of range");
        let mut rem = index;
        let replicate = rem % self.replicates;
        rem /= self.replicates;
        let fault = rem % self.fault_plans.len();
        rem /= self.fault_plans.len();
        let variant = self.dtpm_variants[rem % self.dtpm_variants.len()];
        rem /= self.dtpm_variants.len();
        let ambient_c = self.ambients_c[rem % self.ambients_c.len()];
        rem /= self.ambients_c.len();
        let benchmark = self.benchmarks[rem % self.benchmarks.len()];
        rem /= self.benchmarks.len();
        let kind = self.kinds[rem];
        let _ = replicate; // Distinguished through the derived seed alone.
        let mut config = ExperimentConfig::new(kind, benchmark);
        config.seed = self.cell_seed(index);
        config.ambient_c = ambient_c;
        config.dtpm = variant.apply(self.base_dtpm);
        config.control_period_s = self.control_period_s;
        config.max_duration_s = self.max_duration_s;
        config.plant = self.plant;
        config.ideal_sensors = self.ideal_sensors;
        config.faults = self.fault_plans[fault].clone();
        config.precision = self.precision;
        if let Some((_, plan)) = self.chaos_cells.iter().find(|(cell, _)| *cell == index) {
            config.chaos = Some(*plan);
        }
        config
    }

    /// Lazy iterator over every cell of the grid, in linear-index order.
    pub fn expand(&self) -> impl Iterator<Item = ExperimentConfig> + '_ {
        (0..self.cells()).map(|index| self.cell(index))
    }

    /// A stable 64-bit fingerprint of the grid: FNV-1a over the spec's
    /// canonical binary encoding (the payload of
    /// [`crate::distributed::encode_spec`]), finalised through SplitMix64.
    /// Every axis, seed and shared scalar is encoded — the codec fails to
    /// compile until a new field is — so two specs fingerprint equal exactly
    /// when they would materialise the same cells, and the value changes
    /// only when the format does. Campaign checkpoints are bound to this
    /// value ([`CampaignCheckpoint::fingerprint`]) so a checkpoint cannot
    /// silently resume a different campaign.
    pub fn fingerprint(&self) -> u64 {
        let mut w = ByteWriter::new();
        put_spec(&mut w, self);
        splitmix64(fnv1a(w.as_slice()))
    }

    /// A runner for this campaign (streaming, summaries-only by default).
    pub fn runner(&self) -> CampaignRunner<'_> {
        let parallelism = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        CampaignRunner {
            spec: self,
            threads: parallelism.min(self.cells()).max(1),
            lanes: 1,
            recording: TracePolicy::SummaryOnly,
            resilience: ResiliencePolicy::default(),
        }
    }
}

/// Executes a [`SweepSpec`] through the lane-compacting sweep scheduler into
/// a [`ResultSink`], expanding cells lazily as workers claim them.
///
/// Built by [`SweepSpec::runner`]; defaults to one worker per available CPU,
/// scalar lanes, and [`TracePolicy::SummaryOnly`] — the configuration whose
/// retained memory is O(cells) regardless of run lengths.
#[derive(Debug, Clone)]
pub struct CampaignRunner<'a> {
    spec: &'a SweepSpec,
    threads: usize,
    lanes: usize,
    recording: TracePolicy,
    resilience: ResiliencePolicy,
}

impl CampaignRunner<'_> {
    /// Overrides the worker-thread count (clamped to at least one).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the batch width: every worker drives a panel engine of this many
    /// lanes, refilling freed lanes from the shared cell queue.
    #[must_use]
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        self.lanes = lanes.max(1);
        self
    }

    /// Sets what each cell's run retains per interval (default:
    /// [`TracePolicy::SummaryOnly`]).
    #[must_use]
    pub fn with_recording(mut self, recording: TracePolicy) -> Self {
        self.recording = recording;
        self
    }

    /// The worker-thread count the runner will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The batch width (cells advanced per instruction stream).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The per-run trace-retention policy.
    pub fn recording(&self) -> TracePolicy {
        self.recording
    }

    /// Sets the containment policy: retry budget for panicking/overrunning
    /// cells and the cooperative per-cell interval deadline (default: no
    /// retries, no deadline — panic containment itself is always on).
    #[must_use]
    pub fn with_resilience(mut self, resilience: ResiliencePolicy) -> Self {
        self.resilience = resilience;
        self
    }

    /// The containment policy the runner will apply.
    pub fn resilience(&self) -> ResiliencePolicy {
        self.resilience
    }

    /// Runs every cell of the grid, pushing each cell's report into `sink`
    /// (tagged with the cell's linear index) as its lane retires. Cells are
    /// materialised lazily when claimed; individual cell failures do not
    /// abort the campaign.
    pub fn run_into<S>(&self, calibration: &Calibration, sink: &mut S)
    where
        S: ResultSink + Send + ?Sized,
    {
        let spec = self.spec;
        // Every cell shares the campaign's control period and precision:
        // one lockstep group over the whole grid.
        let groups = [(spec.control_period_s, spec.precision, spec.cells())];
        let provider = |_group: usize, index: usize| -> (usize, ExperimentConfig) {
            (index, spec.cell(index))
        };
        let sink = std::sync::Mutex::new(sink);
        sweep_stream(
            self.threads,
            self.lanes,
            &groups,
            self.recording,
            &provider,
            calibration,
            &self.resilience,
            &sink,
        );
    }

    /// Runs an arbitrary subset of the grid — `indices` are global cell
    /// indices — pushing each report into `sink` tagged with its *global*
    /// index, so sinks see the same addressing as a whole-grid run. The
    /// subset primitive behind worker leases and checkpoint resume.
    ///
    /// # Panics
    ///
    /// Panics (when the cell is claimed) if an index is out of range.
    pub fn run_indices_into<S>(&self, indices: &[usize], calibration: &Calibration, sink: &mut S)
    where
        S: ResultSink + Send + ?Sized,
    {
        let spec = self.spec;
        let groups = [(spec.control_period_s, spec.precision, indices.len())];
        let provider = |_group: usize, k: usize| -> (usize, ExperimentConfig) {
            let index = indices[k];
            (index, spec.cell(index))
        };
        let sink = std::sync::Mutex::new(sink);
        sweep_stream(
            self.threads.min(indices.len()).max(1),
            self.lanes,
            &groups,
            self.recording,
            &provider,
            calibration,
            &self.resilience,
            &sink,
        );
    }

    /// Resumes an interrupted campaign from a checkpoint: verifies the
    /// checkpoint belongs to this grid (fingerprint and cell count), then
    /// runs exactly the cells without a recorded outcome. Stream the results
    /// into a [`crate::resilience::CheckpointSink`] restored from the same
    /// checkpoint and the final merged aggregate is bit-identical to an
    /// uninterrupted run, wherever the interruption landed.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the checkpoint's fingerprint
    /// or cell count disagrees with this campaign's grid.
    pub fn resume_from<S>(
        &self,
        checkpoint: &CampaignCheckpoint,
        calibration: &Calibration,
        sink: &mut S,
    ) -> Result<(), SimError>
    where
        S: ResultSink + Send + ?Sized,
    {
        if checkpoint.fingerprint() != self.spec.fingerprint() {
            return Err(SimError::InvalidConfig(
                "checkpoint fingerprint does not match this campaign's grid",
            ));
        }
        if checkpoint.cells() != self.spec.cells() {
            return Err(SimError::InvalidConfig(
                "checkpoint cell count does not match this campaign's grid",
            ));
        }
        let remaining = checkpoint.remaining();
        if !remaining.is_empty() {
            self.run_indices_into(&remaining, calibration, sink);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SweepSpec {
        SweepSpec::new(
            vec![ExperimentKind::DefaultWithFan, ExperimentKind::Dtpm],
            vec![BenchmarkId::Crc32, BenchmarkId::Qsort, BenchmarkId::Sha],
        )
        .with_ambients_c(vec![24.0, 30.0])
        .with_dtpm_variants(vec![
            DtpmVariant::default(),
            DtpmVariant {
                horizon_steps: 20,
                constraint_c: 60.0,
            },
        ])
        .with_replicates(3)
        .with_campaign_seed(0xC0FFEE)
    }

    #[test]
    fn cell_count_is_the_axis_product() {
        let spec = spec();
        assert_eq!(spec.cells(), 2 * 3 * 2 * 2 * 3);
        assert!(!spec.is_empty());
        assert!(SweepSpec::new(vec![], vec![BenchmarkId::Crc32]).is_empty());
        assert_eq!(spec.expand().count(), spec.cells());
    }

    #[test]
    fn expansion_covers_the_full_cartesian_product() {
        let spec = spec();
        let mut seen = std::collections::HashSet::new();
        for config in spec.expand() {
            // (kind, benchmark, ambient bits, horizon, constraint bits, seed)
            // identifies the coordinates; replicates differ by seed.
            seen.insert((
                config.kind,
                config.benchmark,
                config.ambient_c.to_bits(),
                config.dtpm.prediction_horizon_steps,
                config.dtpm.temperature_constraint_c.to_bits(),
                config.seed,
            ));
            assert_eq!(config.control_period_s, spec.control_period_s);
            assert_eq!(config.max_duration_s, spec.max_duration_s);
        }
        assert_eq!(seen.len(), spec.cells(), "every cell is distinct");
    }

    #[test]
    fn cell_seeds_are_distinct_deterministic_and_order_independent() {
        let spec = spec();
        let forward: Vec<u64> = (0..spec.cells()).map(|i| spec.cell_seed(i)).collect();
        // Distinct (SplitMix64 is a bijection over the index range).
        let unique: std::collections::HashSet<u64> = forward.iter().copied().collect();
        assert_eq!(unique.len(), forward.len());
        // Independent of iteration order: reverse-order derivation agrees.
        for (i, &seed) in forward.iter().enumerate().rev() {
            assert_eq!(spec.cell_seed(i), seed);
            assert_eq!(spec.cell(i).seed, seed);
        }
        // Stable across spec clones (pure function of seed + index).
        let again = spec.clone();
        assert!((0..again.cells()).all(|i| again.cell_seed(i) == forward[i]));
        // A different campaign seed moves every cell.
        let other = spec.with_campaign_seed(0xBEEF);
        assert!((0..other.cells()).all(|i| other.cell_seed(i) != forward[i]));
    }

    #[test]
    fn lazy_and_eager_expansion_agree() {
        let spec = spec();
        let eager: Vec<ExperimentConfig> = spec.expand().collect();
        for (i, config) in eager.iter().enumerate() {
            assert_eq!(&spec.cell(i), config);
        }
    }

    #[test]
    fn variants_apply_over_the_base_dtpm_config() {
        let mut spec = spec();
        spec.base_dtpm.min_big_cores = 1;
        let config = spec.cell(spec.cells() - 1);
        assert_eq!(config.dtpm.min_big_cores, 1, "base carries through");
        assert_eq!(config.dtpm.prediction_horizon_steps, 20, "variant applies");
        assert_eq!(config.dtpm.temperature_constraint_c, 60.0);
    }

    #[test]
    fn fault_axis_defaults_to_fault_free_and_slices_the_grid() {
        use crate::faults::{FaultKind, FaultWindow, SensorChannel};

        // Default axis: one fault-free entry, invisible in the cell count and
        // in every materialised config.
        let clean = spec();
        assert_eq!(clean.fault_plans, vec![None]);
        assert!(clean.expand().all(|config| config.faults.is_none()));

        // A two-entry axis doubles the grid; each half shares its plan, and
        // the seeds of the fault-free half are NOT the same as the
        // corresponding clean-campaign seeds (the axis reindexes cells).
        let plan = FaultPlan::new(9).with_window(FaultWindow {
            channel: SensorChannel::CoreTemp(0),
            kind: FaultKind::Dropped,
            start_s: 1.0,
            end_s: 2.0,
        });
        let faulted = spec().with_fault_plans(vec![None, Some(plan.clone())]);
        assert_eq!(faulted.cells(), clean.cells() * 2);
        let with_plan = faulted
            .expand()
            .filter(|config| config.faults.is_some())
            .count();
        assert_eq!(with_plan, clean.cells());
        assert!(faulted
            .expand()
            .filter_map(|config| config.faults)
            .all(|p| p == plan));
        // Replicates stay fastest: consecutive indices inside one fault slice
        // share a plan.
        let replicates = faulted.replicates;
        for base in (0..faulted.cells()).step_by(replicates * 2) {
            for offset in 1..replicates {
                assert_eq!(
                    faulted.cell(base).faults.is_some(),
                    faulted.cell(base + offset).faults.is_some()
                );
            }
        }
    }

    #[test]
    fn cell_chaos_pins_plans_to_single_cells() {
        let chaotic = spec().with_cell_chaos(5, ChaosPlan::panic_at(3).healing_after(1));
        assert_eq!(
            chaotic.cell(5).chaos,
            Some(ChaosPlan::panic_at(3).healing_after(1))
        );
        assert!(chaotic.cell(4).chaos.is_none());
        assert!(chaotic.cell(6).chaos.is_none());
        // The chaos axis is part of the grid identity.
        assert_ne!(spec().fingerprint(), chaotic.fingerprint());
    }

    #[test]
    fn fingerprints_identify_the_grid() {
        let base = spec().fingerprint();
        assert_eq!(base, spec().fingerprint(), "stable across clones");
        assert_ne!(base, spec().with_campaign_seed(2).fingerprint());
        assert_ne!(base, spec().with_replicates(4).fingerprint());
        assert_ne!(base, spec().with_max_duration_s(9.5).fingerprint());
        assert_ne!(base, spec().with_ambients_c(vec![24.0]).fingerprint());
    }

    #[test]
    fn fingerprint_is_pinned_to_the_canonical_bytes() {
        // Every checkpoint on disk is bound to this value: it may change only
        // with the binary format itself.
        let spec = SweepSpec::new(vec![ExperimentKind::Dtpm], vec![BenchmarkId::Crc32]);
        assert_eq!(spec.fingerprint(), 0x9AAA_45AD_E465_339B);
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_cell_panics() {
        let spec = spec();
        spec.cell(spec.cells());
    }

    #[test]
    fn splitmix64_reference_values() {
        // Canonical SplitMix64 outputs (first outputs of streams seeded at
        // 0, 1 and 1234567).
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
        assert_eq!(splitmix64(1_234_567), 0x599E_D017_FB08_FC85);
        // Bijectivity smoke: consecutive inputs do not collide.
        let outputs: std::collections::HashSet<u64> = (0..10_000u64).map(splitmix64).collect();
        assert_eq!(outputs.len(), 10_000);
    }
}
