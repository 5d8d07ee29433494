//! The crate's one binary format: compact little-endian encodings of the
//! grid, result and checkpoint value types, built on [`numeric::codec`]'s
//! primitives. It is the wire format of distributed campaigns, the on-disk
//! format of checkpoints, and the canonical bytes behind
//! [`SweepSpec::fingerprint`].
//!
//! Two usage tiers share the field encoders below:
//!
//! * **Protocol messages** (`super::protocol`) embed the field encoders
//!   directly inside length-prefixed frames — the transport's framing
//!   bounds the payload, so no per-message checksum is added.
//! * **Standalone blobs** ([`encode_spec`], [`encode_sink`],
//!   [`encode_checkpoint`]) are self-describing: a 4-byte type magic, the
//!   payload, and a trailing CRC32 over everything before it — the format
//!   for payloads that touch disk or cross an untrusted boundary. Their
//!   decoders verify the checksum *first* ([`crate::SimError::Corrupted`]
//!   on mismatch), then the magic, then the structure. [`inspect`] renders
//!   any blob as text for humans (`dtpm-worker inspect FILE`).
//!
//! Floats travel as their 64-bit patterns, so decode∘encode is the
//! identity on every value including NaN payloads, negative zero and
//! infinities — "distributed", "resumed" and "in-process" describe the
//! same bits.
//!
//! Enum variants are encoded as stable tag bytes through exhaustive
//! matches, and decoders build every struct with a full literal, so adding
//! a variant or a field without extending the codec is a compile error, not
//! a silent wire break (or a fingerprint that ignores the new field).

use std::collections::BTreeMap;

use dtpm::DtpmConfig;
use numeric::codec::{crc32, ByteReader, ByteWriter, CodecError};
use numeric::stats::Welford;
use soc_model::PowerDomain;
use workload::BenchmarkId;

use crate::calibrate::CalibrationCampaign;
use crate::campaign::{DtpmVariant, SweepSpec};
use crate::engine::EnginePrecision;
use crate::error::SimError;
use crate::experiment::ExperimentKind;
use crate::faults::{FaultKind, FaultPlan, FaultWindow, SensorChannel};
use crate::plant::PlantPowerParams;
use crate::resilience::{
    CampaignAggregate, CampaignCheckpoint, CellBitmap, CellFailure, CellOutcome, CellStats,
    ChaosPlan, MergeSink, ResiliencePolicy,
};

/// Converts a primitive-codec failure into the crate error type.
pub(crate) fn codec_error(e: CodecError) -> SimError {
    SimError::Io(e.to_string())
}

/// A structural decode failure above the primitive layer (also raised by
/// the value constructors the decoders funnel through).
pub(crate) fn malformed(what: impl std::fmt::Display) -> SimError {
    SimError::Io(format!("malformed payload: {what}"))
}

// ---------------------------------------------------------------------------
// Enum tags (exhaustive matches: a new variant fails to compile here).

fn put_kind(w: &mut ByteWriter, kind: ExperimentKind) {
    w.put_u8(match kind {
        ExperimentKind::DefaultWithFan => 0,
        ExperimentKind::WithoutFan => 1,
        ExperimentKind::Reactive => 2,
        ExperimentKind::Dtpm => 3,
    });
}

fn take_kind(r: &mut ByteReader<'_>) -> Result<ExperimentKind, SimError> {
    Ok(match r.take_u8().map_err(codec_error)? {
        0 => ExperimentKind::DefaultWithFan,
        1 => ExperimentKind::WithoutFan,
        2 => ExperimentKind::Reactive,
        3 => ExperimentKind::Dtpm,
        _ => return Err(malformed("unknown experiment kind tag")),
    })
}

fn put_benchmark(w: &mut ByteWriter, benchmark: BenchmarkId) {
    w.put_u8(match benchmark {
        BenchmarkId::Blowfish => 0,
        BenchmarkId::Sha => 1,
        BenchmarkId::Dijkstra => 2,
        BenchmarkId::Patricia => 3,
        BenchmarkId::Basicmath => 4,
        BenchmarkId::MatrixMult => 5,
        BenchmarkId::Bitcount => 6,
        BenchmarkId::Qsort => 7,
        BenchmarkId::Crc32 => 8,
        BenchmarkId::Gsm => 9,
        BenchmarkId::Fft => 10,
        BenchmarkId::Jpeg => 11,
        BenchmarkId::AngryBirds => 12,
        BenchmarkId::Templerun => 13,
        BenchmarkId::Youtube => 14,
        BenchmarkId::FftMt => 15,
        BenchmarkId::LuMt => 16,
    });
}

fn take_benchmark(r: &mut ByteReader<'_>) -> Result<BenchmarkId, SimError> {
    Ok(match r.take_u8().map_err(codec_error)? {
        0 => BenchmarkId::Blowfish,
        1 => BenchmarkId::Sha,
        2 => BenchmarkId::Dijkstra,
        3 => BenchmarkId::Patricia,
        4 => BenchmarkId::Basicmath,
        5 => BenchmarkId::MatrixMult,
        6 => BenchmarkId::Bitcount,
        7 => BenchmarkId::Qsort,
        8 => BenchmarkId::Crc32,
        9 => BenchmarkId::Gsm,
        10 => BenchmarkId::Fft,
        11 => BenchmarkId::Jpeg,
        12 => BenchmarkId::AngryBirds,
        13 => BenchmarkId::Templerun,
        14 => BenchmarkId::Youtube,
        15 => BenchmarkId::FftMt,
        16 => BenchmarkId::LuMt,
        _ => return Err(malformed("unknown benchmark tag")),
    })
}

fn put_domain(w: &mut ByteWriter, domain: PowerDomain) {
    w.put_u8(match domain {
        PowerDomain::BigCpu => 0,
        PowerDomain::LittleCpu => 1,
        PowerDomain::Gpu => 2,
        PowerDomain::Memory => 3,
    });
}

fn take_domain(r: &mut ByteReader<'_>) -> Result<PowerDomain, SimError> {
    Ok(match r.take_u8().map_err(codec_error)? {
        0 => PowerDomain::BigCpu,
        1 => PowerDomain::LittleCpu,
        2 => PowerDomain::Gpu,
        3 => PowerDomain::Memory,
        _ => return Err(malformed("unknown power domain tag")),
    })
}

fn put_channel(w: &mut ByteWriter, channel: SensorChannel) {
    match channel {
        SensorChannel::CoreTemp(core) => {
            w.put_u8(0);
            w.put_usize(core);
        }
        SensorChannel::DomainPower(domain) => {
            w.put_u8(1);
            put_domain(w, domain);
        }
        SensorChannel::PlatformPower => w.put_u8(2),
    }
}

fn take_channel(r: &mut ByteReader<'_>) -> Result<SensorChannel, SimError> {
    Ok(match r.take_u8().map_err(codec_error)? {
        0 => SensorChannel::CoreTemp(r.take_usize().map_err(codec_error)?),
        1 => SensorChannel::DomainPower(take_domain(r)?),
        2 => SensorChannel::PlatformPower,
        _ => return Err(malformed("unknown sensor channel tag")),
    })
}

fn put_fault_kind(w: &mut ByteWriter, kind: &FaultKind) {
    match kind {
        FaultKind::StuckAt => w.put_u8(0),
        FaultKind::Dropped => w.put_u8(1),
        FaultKind::OffsetDrift {
            initial,
            drift_per_s,
        } => {
            w.put_u8(2);
            w.put_f64(*initial);
            w.put_f64(*drift_per_s);
        }
        FaultKind::Spike {
            magnitude,
            period_intervals,
        } => {
            w.put_u8(3);
            w.put_f64(*magnitude);
            w.put_usize(*period_intervals);
        }
        FaultKind::Delayed { intervals } => {
            w.put_u8(4);
            w.put_usize(*intervals);
        }
    }
}

fn take_fault_kind(r: &mut ByteReader<'_>) -> Result<FaultKind, SimError> {
    Ok(match r.take_u8().map_err(codec_error)? {
        0 => FaultKind::StuckAt,
        1 => FaultKind::Dropped,
        2 => FaultKind::OffsetDrift {
            initial: r.take_f64().map_err(codec_error)?,
            drift_per_s: r.take_f64().map_err(codec_error)?,
        },
        3 => FaultKind::Spike {
            magnitude: r.take_f64().map_err(codec_error)?,
            period_intervals: r.take_usize().map_err(codec_error)?,
        },
        4 => FaultKind::Delayed {
            intervals: r.take_usize().map_err(codec_error)?,
        },
        _ => return Err(malformed("unknown fault kind tag")),
    })
}

fn put_precision(w: &mut ByteWriter, precision: EnginePrecision) {
    w.put_u8(match precision {
        EnginePrecision::F64 => 0,
        EnginePrecision::F32 => 1,
        EnginePrecision::F32Shadow => 2,
    });
}

fn take_precision(r: &mut ByteReader<'_>) -> Result<EnginePrecision, SimError> {
    Ok(match r.take_u8().map_err(codec_error)? {
        0 => EnginePrecision::F64,
        1 => EnginePrecision::F32,
        2 => EnginePrecision::F32Shadow,
        _ => return Err(malformed("unknown engine precision tag")),
    })
}

// ---------------------------------------------------------------------------
// Struct field encoders.

fn put_fault_plan(w: &mut ByteWriter, plan: &FaultPlan) {
    w.put_u64(plan.seed);
    w.put_usize(plan.windows.len());
    for window in &plan.windows {
        put_channel(w, window.channel);
        put_fault_kind(w, &window.kind);
        w.put_f64(window.start_s);
        w.put_f64(window.end_s);
    }
}

fn take_fault_plan(r: &mut ByteReader<'_>) -> Result<FaultPlan, SimError> {
    let seed = r.take_u64().map_err(codec_error)?;
    let count = r.take_usize().map_err(codec_error)?;
    let mut windows = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        windows.push(FaultWindow {
            channel: take_channel(r)?,
            kind: take_fault_kind(r)?,
            start_s: r.take_f64().map_err(codec_error)?,
            end_s: r.take_f64().map_err(codec_error)?,
        });
    }
    Ok(FaultPlan { seed, windows })
}

fn put_chaos(w: &mut ByteWriter, plan: &ChaosPlan) {
    match plan.panic_at_interval {
        Some(interval) => {
            w.put_bool(true);
            w.put_usize(interval);
        }
        None => w.put_bool(false),
    }
    w.put_u32(plan.heal_after_attempts);
    w.put_u32(plan.attempt);
}

fn take_chaos(r: &mut ByteReader<'_>) -> Result<ChaosPlan, SimError> {
    let panic_at_interval = if r.take_bool().map_err(codec_error)? {
        Some(r.take_usize().map_err(codec_error)?)
    } else {
        None
    };
    Ok(ChaosPlan {
        panic_at_interval,
        heal_after_attempts: r.take_u32().map_err(codec_error)?,
        attempt: r.take_u32().map_err(codec_error)?,
    })
}

fn put_plant(w: &mut ByteWriter, plant: &PlantPowerParams) {
    for x in [
        plant.big_core_ceff_f,
        plant.big_uncore_ceff_f,
        plant.little_core_ceff_f,
        plant.little_uncore_ceff_f,
        plant.gpu_ceff_f,
        plant.memory_base_w,
        plant.memory_active_w,
        plant.board_base_w,
        plant.leakage_mismatch,
        plant.gated_leakage_fraction,
        plant.initial_temp_c,
    ] {
        w.put_f64(x);
    }
}

fn take_plant(r: &mut ByteReader<'_>) -> Result<PlantPowerParams, SimError> {
    let mut take = || r.take_f64().map_err(codec_error);
    Ok(PlantPowerParams {
        big_core_ceff_f: take()?,
        big_uncore_ceff_f: take()?,
        little_core_ceff_f: take()?,
        little_uncore_ceff_f: take()?,
        gpu_ceff_f: take()?,
        memory_base_w: take()?,
        memory_active_w: take()?,
        board_base_w: take()?,
        leakage_mismatch: take()?,
        gated_leakage_fraction: take()?,
        initial_temp_c: take()?,
    })
}

fn put_dtpm(w: &mut ByteWriter, dtpm: &DtpmConfig) {
    w.put_f64(dtpm.temperature_constraint_c);
    w.put_usize(dtpm.prediction_horizon_steps);
    w.put_f64(dtpm.hot_core_delta_c);
    w.put_usize(dtpm.min_big_cores);
    w.put_f64(dtpm.prediction_margin_c);
}

fn take_dtpm(r: &mut ByteReader<'_>) -> Result<DtpmConfig, SimError> {
    Ok(DtpmConfig {
        temperature_constraint_c: r.take_f64().map_err(codec_error)?,
        prediction_horizon_steps: r.take_usize().map_err(codec_error)?,
        hot_core_delta_c: r.take_f64().map_err(codec_error)?,
        min_big_cores: r.take_usize().map_err(codec_error)?,
        prediction_margin_c: r.take_f64().map_err(codec_error)?,
    })
}

/// Encodes a [`SweepSpec`]'s every axis and shared scalar.
pub(crate) fn put_spec(w: &mut ByteWriter, spec: &SweepSpec) {
    w.put_usize(spec.kinds.len());
    for &kind in &spec.kinds {
        put_kind(w, kind);
    }
    w.put_usize(spec.benchmarks.len());
    for &benchmark in &spec.benchmarks {
        put_benchmark(w, benchmark);
    }
    w.put_usize(spec.ambients_c.len());
    for &ambient in &spec.ambients_c {
        w.put_f64(ambient);
    }
    w.put_usize(spec.dtpm_variants.len());
    for variant in &spec.dtpm_variants {
        w.put_usize(variant.horizon_steps);
        w.put_f64(variant.constraint_c);
    }
    w.put_usize(spec.fault_plans.len());
    for plan in &spec.fault_plans {
        match plan {
            Some(plan) => {
                w.put_bool(true);
                put_fault_plan(w, plan);
            }
            None => w.put_bool(false),
        }
    }
    w.put_usize(spec.replicates);
    w.put_u64(spec.campaign_seed);
    put_dtpm(w, &spec.base_dtpm);
    w.put_f64(spec.control_period_s);
    w.put_f64(spec.max_duration_s);
    put_plant(w, &spec.plant);
    w.put_bool(spec.ideal_sensors);
    put_precision(w, spec.precision);
    w.put_usize(spec.chaos_cells.len());
    for (index, plan) in &spec.chaos_cells {
        w.put_usize(*index);
        put_chaos(w, plan);
    }
}

/// Decodes a [`SweepSpec`] written by [`put_spec`], bit-exactly.
pub(crate) fn take_spec(r: &mut ByteReader<'_>) -> Result<SweepSpec, SimError> {
    let kind_count = r.take_usize().map_err(codec_error)?;
    let mut kinds = Vec::with_capacity(kind_count.min(1024));
    for _ in 0..kind_count {
        kinds.push(take_kind(r)?);
    }
    let benchmark_count = r.take_usize().map_err(codec_error)?;
    let mut benchmarks = Vec::with_capacity(benchmark_count.min(1024));
    for _ in 0..benchmark_count {
        benchmarks.push(take_benchmark(r)?);
    }
    let ambient_count = r.take_usize().map_err(codec_error)?;
    let mut ambients_c = Vec::with_capacity(ambient_count.min(1024));
    for _ in 0..ambient_count {
        ambients_c.push(r.take_f64().map_err(codec_error)?);
    }
    let variant_count = r.take_usize().map_err(codec_error)?;
    let mut dtpm_variants = Vec::with_capacity(variant_count.min(1024));
    for _ in 0..variant_count {
        dtpm_variants.push(DtpmVariant {
            horizon_steps: r.take_usize().map_err(codec_error)?,
            constraint_c: r.take_f64().map_err(codec_error)?,
        });
    }
    let plan_count = r.take_usize().map_err(codec_error)?;
    let mut fault_plans = Vec::with_capacity(plan_count.min(1024));
    for _ in 0..plan_count {
        fault_plans.push(if r.take_bool().map_err(codec_error)? {
            Some(take_fault_plan(r)?)
        } else {
            None
        });
    }
    let replicates = r.take_usize().map_err(codec_error)?;
    let campaign_seed = r.take_u64().map_err(codec_error)?;
    let base_dtpm = take_dtpm(r)?;
    let control_period_s = r.take_f64().map_err(codec_error)?;
    let max_duration_s = r.take_f64().map_err(codec_error)?;
    let plant = take_plant(r)?;
    let ideal_sensors = r.take_bool().map_err(codec_error)?;
    let precision = take_precision(r)?;
    let chaos_count = r.take_usize().map_err(codec_error)?;
    let mut chaos_cells = Vec::with_capacity(chaos_count.min(1024));
    for _ in 0..chaos_count {
        let index = r.take_usize().map_err(codec_error)?;
        chaos_cells.push((index, take_chaos(r)?));
    }
    Ok(SweepSpec {
        kinds,
        benchmarks,
        ambients_c,
        dtpm_variants,
        fault_plans,
        replicates,
        campaign_seed,
        base_dtpm,
        control_period_s,
        max_duration_s,
        plant,
        ideal_sensors,
        precision,
        chaos_cells,
    })
}

/// Encodes the calibration-campaign parameters a worker re-derives its
/// [`crate::Calibration`] from.
pub(crate) fn put_calibration_campaign(w: &mut ByteWriter, campaign: &CalibrationCampaign) {
    w.put_f64(campaign.ambient_c);
    w.put_f64(campaign.control_period_s);
    w.put_f64(campaign.prbs_duration_s);
    w.put_usize(campaign.prbs_hold_intervals);
    w.put_bool(campaign.run_furnace);
    w.put_f64(campaign.train_fraction);
    put_plant(w, &campaign.plant);
    w.put_bool(campaign.ideal_sensors);
}

/// Decodes a [`CalibrationCampaign`] written by
/// [`put_calibration_campaign`].
pub(crate) fn take_calibration_campaign(
    r: &mut ByteReader<'_>,
) -> Result<CalibrationCampaign, SimError> {
    Ok(CalibrationCampaign {
        ambient_c: r.take_f64().map_err(codec_error)?,
        control_period_s: r.take_f64().map_err(codec_error)?,
        prbs_duration_s: r.take_f64().map_err(codec_error)?,
        prbs_hold_intervals: r.take_usize().map_err(codec_error)?,
        run_furnace: r.take_bool().map_err(codec_error)?,
        train_fraction: r.take_f64().map_err(codec_error)?,
        plant: take_plant(r)?,
        ideal_sensors: r.take_bool().map_err(codec_error)?,
    })
}

/// Encodes a containment policy.
pub(crate) fn put_resilience(w: &mut ByteWriter, policy: &ResiliencePolicy) {
    w.put_u32(policy.max_retries);
    match policy.deadline_intervals {
        Some(intervals) => {
            w.put_bool(true);
            w.put_usize(intervals);
        }
        None => w.put_bool(false),
    }
}

/// Decodes a [`ResiliencePolicy`] written by [`put_resilience`].
pub(crate) fn take_resilience(r: &mut ByteReader<'_>) -> Result<ResiliencePolicy, SimError> {
    let max_retries = r.take_u32().map_err(codec_error)?;
    let deadline_intervals = if r.take_bool().map_err(codec_error)? {
        Some(r.take_usize().map_err(codec_error)?)
    } else {
        None
    };
    Ok(ResiliencePolicy {
        max_retries,
        deadline_intervals,
    })
}

fn put_welford(w: &mut ByteWriter, welford: &Welford) {
    w.put_usize(welford.count());
    w.put_f64(welford.mean());
    w.put_f64(welford.m2());
    w.put_f64(welford.min());
    w.put_f64(welford.max());
}

fn take_welford(r: &mut ByteReader<'_>) -> Result<Welford, SimError> {
    Ok(Welford::from_parts(
        r.take_usize().map_err(codec_error)?,
        r.take_f64().map_err(codec_error)?,
        r.take_f64().map_err(codec_error)?,
        r.take_f64().map_err(codec_error)?,
        r.take_f64().map_err(codec_error)?,
    ))
}

/// Encodes one cell's terminal outcome.
pub(crate) fn put_outcome(w: &mut ByteWriter, outcome: &CellOutcome) {
    match outcome {
        CellOutcome::Completed(stats) => {
            w.put_u8(0);
            w.put_bool(stats.completed);
            w.put_f64(stats.execution_time_s);
            w.put_usize(stats.intervals);
            w.put_f64(stats.energy_j);
            w.put_f64(stats.mean_platform_power_w);
            w.put_f64(stats.mean_temp_c);
            w.put_f64(stats.peak_temp_c);
            w.put_f64(stats.intervention_rate);
            w.put_usize(stats.escalations);
            w.put_usize(stats.sensor_faults);
            w.put_bool(stats.shut_down);
        }
        CellOutcome::Failed(failure) => {
            w.put_u8(1);
            w.put_usize(failure.index);
            w.put_str(&failure.error);
        }
    }
}

/// Decodes a [`CellOutcome`] written by [`put_outcome`].
pub(crate) fn take_outcome(r: &mut ByteReader<'_>) -> Result<CellOutcome, SimError> {
    Ok(match r.take_u8().map_err(codec_error)? {
        0 => CellOutcome::Completed(CellStats {
            completed: r.take_bool().map_err(codec_error)?,
            execution_time_s: r.take_f64().map_err(codec_error)?,
            intervals: r.take_usize().map_err(codec_error)?,
            energy_j: r.take_f64().map_err(codec_error)?,
            mean_platform_power_w: r.take_f64().map_err(codec_error)?,
            mean_temp_c: r.take_f64().map_err(codec_error)?,
            peak_temp_c: r.take_f64().map_err(codec_error)?,
            intervention_rate: r.take_f64().map_err(codec_error)?,
            escalations: r.take_usize().map_err(codec_error)?,
            sensor_faults: r.take_usize().map_err(codec_error)?,
            shut_down: r.take_bool().map_err(codec_error)?,
        }),
        1 => CellOutcome::Failed(CellFailure {
            index: r.take_usize().map_err(codec_error)?,
            error: r.take_str().map_err(codec_error)?.to_owned(),
        }),
        _ => return Err(malformed("unknown cell outcome tag")),
    })
}

fn put_aggregate(w: &mut ByteWriter, a: &CampaignAggregate) {
    w.put_usize(a.cells);
    w.put_usize(a.completed_runs);
    w.put_usize(a.failed_cells);
    w.put_usize(a.shutdowns);
    w.put_usize(a.total_intervals);
    w.put_usize(a.escalations);
    w.put_usize(a.sensor_faults);
    w.put_f64(a.total_energy_j);
    for welford in [
        &a.energy_j,
        &a.mean_power_w,
        &a.execution_time_s,
        &a.peak_temp_c,
        &a.mean_temp_c,
    ] {
        put_welford(w, welford);
    }
}

fn take_aggregate(r: &mut ByteReader<'_>) -> Result<CampaignAggregate, SimError> {
    Ok(CampaignAggregate {
        cells: r.take_usize().map_err(codec_error)?,
        completed_runs: r.take_usize().map_err(codec_error)?,
        failed_cells: r.take_usize().map_err(codec_error)?,
        shutdowns: r.take_usize().map_err(codec_error)?,
        total_intervals: r.take_usize().map_err(codec_error)?,
        escalations: r.take_usize().map_err(codec_error)?,
        sensor_faults: r.take_usize().map_err(codec_error)?,
        total_energy_j: r.take_f64().map_err(codec_error)?,
        energy_j: take_welford(r)?,
        mean_power_w: take_welford(r)?,
        execution_time_s: take_welford(r)?,
        peak_temp_c: take_welford(r)?,
        mean_temp_c: take_welford(r)?,
    })
}

/// Encodes a [`MergeSink`]'s full state (range, cursor, aggregate,
/// retained failures, pending arrivals).
pub(crate) fn put_sink(w: &mut ByteWriter, sink: &MergeSink) {
    let range = sink.range();
    w.put_usize(range.start);
    w.put_usize(range.end);
    w.put_usize(sink.next_index());
    put_aggregate(w, sink.aggregate());
    w.put_usize(sink.failures().len());
    for failure in sink.failures() {
        w.put_usize(failure.index);
        w.put_str(&failure.error);
    }
    let pending = sink.pending_outcomes();
    w.put_usize(pending.len());
    for (&index, outcome) in pending {
        w.put_usize(index);
        put_outcome(w, outcome);
    }
}

/// Decodes a [`MergeSink`] written by [`put_sink`], re-validating every
/// structural invariant through [`MergeSink`]'s checked constructor.
pub(crate) fn take_sink(r: &mut ByteReader<'_>) -> Result<MergeSink, SimError> {
    let start = r.take_usize().map_err(codec_error)?;
    let end = r.take_usize().map_err(codec_error)?;
    let next = r.take_usize().map_err(codec_error)?;
    let aggregate = take_aggregate(r)?;
    let failure_count = r.take_usize().map_err(codec_error)?;
    let mut failures = Vec::with_capacity(failure_count.min(1024));
    for _ in 0..failure_count {
        failures.push(CellFailure {
            index: r.take_usize().map_err(codec_error)?,
            error: r.take_str().map_err(codec_error)?.to_owned(),
        });
    }
    let pending_count = r.take_usize().map_err(codec_error)?;
    let mut pending = BTreeMap::new();
    for _ in 0..pending_count {
        let index = r.take_usize().map_err(codec_error)?;
        let outcome = take_outcome(r)?;
        if pending.insert(index, outcome).is_some() {
            return Err(malformed("pending cell duplicated"));
        }
    }
    MergeSink::from_parts(start, end, next, aggregate, pending, failures)
}

/// Encodes a [`CampaignCheckpoint`] (fingerprint, bitmap, fold).
pub(crate) fn put_checkpoint(w: &mut ByteWriter, checkpoint: &CampaignCheckpoint) {
    w.put_u64(checkpoint.fingerprint());
    let bitmap = checkpoint.bitmap();
    w.put_usize(bitmap.len());
    for &word in bitmap.words() {
        w.put_u64(word);
    }
    put_sink(w, checkpoint.fold());
}

/// Decodes a [`CampaignCheckpoint`] written by [`put_checkpoint`],
/// re-validating the bitmap/fold consistency through the checked
/// constructors.
pub(crate) fn take_checkpoint(r: &mut ByteReader<'_>) -> Result<CampaignCheckpoint, SimError> {
    let fingerprint = r.take_u64().map_err(codec_error)?;
    let cells = r.take_usize().map_err(codec_error)?;
    let word_count = cells.div_ceil(64);
    let mut words = Vec::with_capacity(word_count.min(1 << 20));
    for _ in 0..word_count {
        words.push(r.take_u64().map_err(codec_error)?);
    }
    let bitmap = CellBitmap::from_words(words, cells)?;
    let fold = take_sink(r)?;
    CampaignCheckpoint::from_parts(fingerprint, bitmap, fold)
}

// ---------------------------------------------------------------------------
// Standalone blobs: magic + payload + CRC32.

/// Type magic of a standalone sweep-spec blob.
const SPEC_MAGIC: u32 = u32::from_le_bytes(*b"DSP1");
/// Type magic of a standalone merge-sink blob.
const SINK_MAGIC: u32 = u32::from_le_bytes(*b"DSK1");
/// Type magic of a standalone checkpoint blob.
const CHECKPOINT_MAGIC: u32 = u32::from_le_bytes(*b"DCP1");

/// Seals a payload as a standalone blob: magic, payload, CRC32 over both.
fn seal_blob(magic: u32, fill: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(magic);
    fill(&mut w);
    let crc = crc32(w.as_slice());
    w.put_u32(crc);
    w.into_bytes()
}

/// Opens a standalone blob: verifies the trailing CRC32 first (so any
/// corruption is one structured error, not a partial decode), then the
/// type magic, and returns a reader over the payload.
fn open_blob<'a>(bytes: &'a [u8], magic: u32, what: &str) -> Result<ByteReader<'a>, SimError> {
    if bytes.len() < 8 {
        return Err(SimError::Corrupted(format!(
            "{what} blob shorter than its magic and checksum"
        )));
    }
    let (body, stated) = bytes.split_at(bytes.len() - 4);
    let stated = u32::from_le_bytes(stated.try_into().expect("4 bytes"));
    let computed = crc32(body);
    if stated != computed {
        return Err(SimError::Corrupted(format!(
            "{what} blob crc32 mismatch: trailer says {stated:08x}, \
             content hashes to {computed:08x}"
        )));
    }
    let mut r = ByteReader::new(body);
    let found = r.take_u32().map_err(codec_error)?;
    if found != magic {
        return Err(SimError::Corrupted(format!(
            "{what} blob carries magic {found:08x}, expected {magic:08x}"
        )));
    }
    Ok(r)
}

/// Finishes a blob decode: rejects trailing bytes.
fn finish_blob<T>(r: &ByteReader<'_>, value: T) -> Result<T, SimError> {
    r.finish().map_err(codec_error)?;
    Ok(value)
}

/// Serialises a [`SweepSpec`] as a CRC32-sealed binary blob: a campaign
/// definition that can be stored, shipped and re-run bit-identically.
pub fn encode_spec(spec: &SweepSpec) -> Vec<u8> {
    seal_blob(SPEC_MAGIC, |w| put_spec(w, spec))
}

/// Decodes a blob written by [`encode_spec`], bit-exactly.
///
/// # Errors
///
/// Returns [`SimError::Corrupted`] on checksum/magic mismatch and
/// [`SimError::Io`] on structurally malformed content.
pub fn decode_spec(bytes: &[u8]) -> Result<SweepSpec, SimError> {
    let mut r = open_blob(bytes, SPEC_MAGIC, "sweep-spec")?;
    let spec = take_spec(&mut r)?;
    finish_blob(&r, spec)
}

/// Serialises a [`MergeSink`]'s full state as a CRC32-sealed binary blob
/// (any fold state round-trips, complete or mid-flight).
pub fn encode_sink(sink: &MergeSink) -> Vec<u8> {
    seal_blob(SINK_MAGIC, |w| put_sink(w, sink))
}

/// Decodes a blob written by [`encode_sink`], bit-exactly.
///
/// # Errors
///
/// Returns [`SimError::Corrupted`] on checksum/magic mismatch and
/// [`SimError::Io`] on structurally malformed content.
pub fn decode_sink(bytes: &[u8]) -> Result<MergeSink, SimError> {
    let mut r = open_blob(bytes, SINK_MAGIC, "merge-sink")?;
    let sink = take_sink(&mut r)?;
    finish_blob(&r, sink)
}

/// Serialises a [`CampaignCheckpoint`] as a CRC32-sealed binary blob — the
/// on-disk checkpoint format ([`CampaignCheckpoint::write_atomic`]).
pub fn encode_checkpoint(checkpoint: &CampaignCheckpoint) -> Vec<u8> {
    seal_blob(CHECKPOINT_MAGIC, |w| put_checkpoint(w, checkpoint))
}

/// Decodes a blob written by [`encode_checkpoint`], bit-exactly.
///
/// # Errors
///
/// Returns [`SimError::Corrupted`] on checksum/magic mismatch and
/// [`SimError::Io`] on structurally malformed content.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<CampaignCheckpoint, SimError> {
    let mut r = open_blob(bytes, CHECKPOINT_MAGIC, "checkpoint")?;
    let checkpoint = take_checkpoint(&mut r)?;
    finish_blob(&r, checkpoint)
}

/// Renders a standalone blob as text for humans: what it is, then every
/// field. Floats print in their shortest round-trip decimal form.
///
/// # Errors
///
/// Returns [`SimError::Corrupted`] for bytes that are not an intact blob of
/// a known kind, and the kind's decode error for malformed content.
pub fn inspect(bytes: &[u8]) -> Result<String, SimError> {
    use std::fmt::Write as _;
    let mut out = String::new();
    let magic = bytes
        .get(..4)
        .map(|m| u32::from_le_bytes(m.try_into().expect("4 bytes")));
    match magic {
        Some(SPEC_MAGIC) => {
            let spec = decode_spec(bytes)?;
            let _ = writeln!(
                out,
                "sweep spec: {} cells, fingerprint {:016x}\n{spec:#?}",
                spec.cells(),
                spec.fingerprint()
            );
        }
        Some(SINK_MAGIC) => render_sink(&mut out, &decode_sink(bytes)?),
        Some(CHECKPOINT_MAGIC) => {
            let checkpoint = decode_checkpoint(bytes)?;
            let _ = writeln!(
                out,
                "checkpoint: fingerprint {:016x}, {} of {} cells complete",
                checkpoint.fingerprint(),
                checkpoint.completed(),
                checkpoint.cells()
            );
            render_sink(&mut out, checkpoint.fold());
        }
        _ => {
            return Err(SimError::Corrupted(
                "not a sweep-spec, merge-sink or checkpoint blob".to_owned(),
            ))
        }
    }
    Ok(out)
}

/// The [`inspect`] rendering of a merge fold.
fn render_sink(out: &mut String, sink: &MergeSink) {
    use std::fmt::Write as _;
    let range = sink.range();
    let _ = writeln!(
        out,
        "merge fold over cells {}..{}: {} folded, {} pending",
        range.start,
        range.end,
        sink.folded(),
        sink.pending_outcomes().len()
    );
    let a = sink.aggregate();
    for (name, count) in [
        ("cells", a.cells),
        ("completed_runs", a.completed_runs),
        ("failed_cells", a.failed_cells),
        ("shutdowns", a.shutdowns),
        ("total_intervals", a.total_intervals),
        ("escalations", a.escalations),
        ("sensor_faults", a.sensor_faults),
    ] {
        let _ = writeln!(out, "  {name:<17} {count}");
    }
    let _ = writeln!(out, "  {:<17} {:?}", "total_energy_j", a.total_energy_j);
    for (name, w) in [
        ("energy_j", &a.energy_j),
        ("mean_power_w", &a.mean_power_w),
        ("execution_time_s", &a.execution_time_s),
        ("peak_temp_c", &a.peak_temp_c),
        ("mean_temp_c", &a.mean_temp_c),
    ] {
        let _ = writeln!(
            out,
            "  {name:<17} n={} mean={:?} variance={:?} min={:?} max={:?}",
            w.count(),
            w.mean(),
            w.variance(),
            w.min(),
            w.max()
        );
    }
    for failure in sink.failures() {
        let _ = writeln!(out, "  failed cell {}: {}", failure.index, failure.error);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentKind;

    fn spec() -> SweepSpec {
        SweepSpec::new(
            vec![ExperimentKind::WithoutFan, ExperimentKind::Dtpm],
            vec![BenchmarkId::Crc32, BenchmarkId::MatrixMult],
        )
        .with_ambients_c(vec![24.0, 30.5])
        .with_dtpm_variants(vec![
            DtpmVariant::default(),
            DtpmVariant {
                horizon_steps: 20,
                constraint_c: 60.0,
            },
        ])
        .with_fault_plans(vec![
            None,
            Some(FaultPlan::new(9).with_window(FaultWindow {
                channel: SensorChannel::CoreTemp(2),
                kind: FaultKind::OffsetDrift {
                    initial: 1.5,
                    drift_per_s: -0.25,
                },
                start_s: 1.0,
                end_s: 2.0,
            })),
        ])
        .with_replicates(3)
        .with_campaign_seed(0xC0FF_EE10)
        .with_cell_chaos(5, ChaosPlan::panic_at(4).healing_after(1))
    }

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

    #[test]
    fn spec_blobs_round_trip_bit_exactly() {
        let spec = spec();
        let blob = encode_spec(&spec);
        let decoded = decode_spec(&blob).expect("round trip");
        assert_eq!(decoded, spec);
        // The grid identity survives the wire: same fingerprint both sides.
        assert_eq!(decoded.fingerprint(), spec.fingerprint());
        assert_eq!(encode_spec(&decoded), blob);
    }

    #[test]
    fn sink_blobs_round_trip_mid_flight_state() {
        let mut sink = MergeSink::new(3..40);
        for k in [3, 4, 5, 9, 12, 11, 30] {
            let outcome = if k == 9 {
                CellOutcome::Failed(CellFailure {
                    index: 9,
                    error: "cell panicked (contained): boom".to_owned(),
                })
            } else {
                CellOutcome::Completed(stats(k as f64))
            };
            sink.offer(k, outcome);
        }
        let blob = encode_sink(&sink);
        assert_eq!(decode_sink(&blob).expect("round trip"), sink);
    }

    #[test]
    fn checkpoint_blobs_round_trip_and_match_the_text_format() {
        let mut checkpoint = CampaignCheckpoint::new(0xF00D, 70);
        for k in [0, 2, 64, 69] {
            checkpoint.record(k, Err(SimError::Panicked(format!("boom {k}"))));
        }
        let blob = encode_checkpoint(&checkpoint);
        assert_eq!(decode_checkpoint(&blob).expect("round trip"), checkpoint);
        // A checkpoint in the retired v1 text format carries the same state
        // through the binary form, which is the compact one.
        let text = include_str!("../../tests/data/checkpoint-v1.txt");
        let legacy = crate::resilience::v1::parse(text).expect("v1 fixture parses");
        let blob = encode_checkpoint(&legacy);
        assert_eq!(decode_checkpoint(&blob).expect("round trip"), legacy);
        assert!(
            blob.len() < text.len(),
            "binary blob ({} B) should undercut the text form ({} B)",
            blob.len(),
            text.len()
        );
    }

    #[test]
    fn corrupted_blobs_are_rejected_wholesale() {
        let good = encode_spec(&spec());
        // Any single flipped byte anywhere in the blob is caught.
        for position in [0, 4, good.len() / 2, good.len() - 1] {
            let mut bad = good.clone();
            bad[position] ^= 0x40;
            assert!(
                matches!(decode_spec(&bad), Err(SimError::Corrupted(_))),
                "flip at {position}"
            );
        }
        // Truncation is caught by the checksum too.
        assert!(matches!(
            decode_spec(&good[..good.len() - 5]),
            Err(SimError::Corrupted(_))
        ));
        assert!(matches!(decode_spec(&[]), Err(SimError::Corrupted(_))));
        // A valid sink blob is not a valid spec blob (magic check).
        let sink_blob = encode_sink(&MergeSink::new(0..4));
        assert!(matches!(
            decode_spec(&sink_blob),
            Err(SimError::Corrupted(_))
        ));
    }

    #[test]
    fn inspect_renders_every_blob_kind() {
        let spec = spec();
        let rendered = inspect(&encode_spec(&spec)).expect("spec blob");
        assert!(rendered.starts_with(&format!(
            "sweep spec: {} cells, fingerprint {:016x}",
            spec.cells(),
            spec.fingerprint()
        )));
        let mut checkpoint = CampaignCheckpoint::new(0xF00D, 70);
        checkpoint.record(0, Err(SimError::Panicked("boom".to_owned())));
        let rendered = inspect(&encode_checkpoint(&checkpoint)).expect("checkpoint blob");
        assert!(rendered.starts_with("checkpoint: fingerprint 000000000000f00d, 1 of 70 cells"));
        assert!(rendered.contains("failed cell 0: cell panicked (contained): boom"));
        let rendered = inspect(&encode_sink(checkpoint.fold())).expect("sink blob");
        assert!(rendered.starts_with("merge fold over cells 0..70: 1 folded, 0 pending"));
        assert!(matches!(inspect(b"garbage"), Err(SimError::Corrupted(_))));
    }
}
