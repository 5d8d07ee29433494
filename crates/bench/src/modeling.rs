//! Power- and thermal-modelling experiments (Chapter 4) plus the prediction
//! accuracy sweep of Figure 6.2.

use std::fmt::Write as _;

use platform_sim::{PhysicalPlant, PlantPowerParams, SensorSuite, SimError};
use power_model::{LeakageModel, PowerModel};
use soc_model::{FanLevel, Frequency, PlatformState, PowerDomain, SocSpec, Voltage};
use sysid::{n_step_prediction, IdentificationDataset, PrbsConfig, PrbsSignal};
use workload::{BenchmarkId, WorkloadState};

use crate::ExperimentContext;

/// Figure 4.2 — total big-cluster power logged inside the furnace at each
/// ambient setpoint (40–80 °C).
pub fn fig4_2(context: &ExperimentContext) -> Result<String, SimError> {
    let spec = SocSpec::odroid_xu_e();
    let mut out = String::from(
        "Figure 4.2 — furnace characterisation: mean total big-cluster power per setpoint\n",
    );
    let freq = Frequency::from_mhz(1600);
    let mut state = PlatformState::default_for(&spec);
    state.big_frequency = freq;
    let demand = workload::Demand {
        cpu_streams: 0.5,
        activity_factor: 0.10,
        gpu_utilization: 0.0,
        memory_intensity: 0.1,
        frequency_scalability: 1.0,
    };
    for &setpoint in &LeakageModel::FURNACE_SWEEP_C {
        let mut plant = PhysicalPlant::new(
            spec.clone().with_ambient_c(setpoint),
            PlantPowerParams::default(),
        );
        plant.reset_temps(setpoint);
        let mut sensors = SensorSuite::odroid_defaults(setpoint as u64);
        let steps = if context.quick { 1200 } else { 3200 };
        let mut sum = 0.0;
        let mut count = 0;
        for k in 0..steps {
            let step = plant.step_interval(&state, &demand, FanLevel::Off, setpoint, 0.1)?;
            if k >= steps / 3 {
                let reading =
                    sensors.sample(step.core_temps_c, &step.domain_power, step.platform_power_w);
                sum += reading.domain_power.big_w;
                count += 1;
            }
        }
        let _ = writeln!(
            out,
            "  ambient {setpoint:4.0} degC : mean CPU power {:6.3} W",
            sum / count as f64
        );
    }
    out.push_str(
        "  (shape check: power rises with the furnace setpoint because only leakage grows)\n",
    );
    Ok(out)
}

/// Figure 4.3 — fitted leakage power vs temperature.
pub fn fig4_3(context: &ExperimentContext) -> Result<String, SimError> {
    let leak = context
        .calibration
        .power_model
        .domain(PowerDomain::BigCpu)
        .leakage();
    let v = Voltage::from_volts(1.2);
    let mut out = String::from("Figure 4.3 — leakage power vs temperature (fitted model, 1.2 V)\n");
    for t in (40..=80).step_by(5) {
        let _ = writeln!(out, "  {t:3} degC : {:6.3} W", leak.power_w(v, t as f64));
    }
    Ok(out)
}

/// Figure 4.5 — leakage vs dynamic power over temperature at 1.6 GHz.
pub fn fig4_5(context: &ExperimentContext) -> Result<String, SimError> {
    let model = &context.calibration.power_model;
    let mut trained = model.clone();
    train_activity(&mut trained, 0.31);
    let v = Voltage::from_volts(1.2);
    let f = Frequency::from_mhz(1600);
    let mut out =
        String::from("Figure 4.5 — leakage and dynamic power vs temperature (f = 1.6 GHz)\n");
    for t in (40..=80).step_by(10) {
        let leak = trained.predict_leakage(PowerDomain::BigCpu, t as f64, v);
        let dynamic = trained.predict_dynamic(PowerDomain::BigCpu, v, f);
        let _ = writeln!(
            out,
            "  {t:3} degC : leakage {leak:6.3} W   dynamic {dynamic:6.3} W"
        );
    }
    out.push_str("  (dynamic power is temperature independent; leakage grows exponentially)\n");
    Ok(out)
}

/// Figure 4.6 — leakage vs dynamic power over frequency at constant temperature.
pub fn fig4_6(context: &ExperimentContext) -> Result<String, SimError> {
    let spec = SocSpec::odroid_xu_e();
    let mut trained = context.calibration.power_model.clone();
    train_activity(&mut trained, 0.31);
    let mut out =
        String::from("Figure 4.6 — leakage and dynamic power vs frequency (constant 55 degC)\n");
    for op in spec.big_opps().points() {
        if op.frequency.mhz() % 200 != 0 {
            continue;
        }
        let leak = trained.predict_leakage(PowerDomain::BigCpu, 55.0, op.voltage);
        let dynamic = trained.predict_dynamic(PowerDomain::BigCpu, op.voltage, op.frequency);
        let _ = writeln!(
            out,
            "  {:4} MHz : leakage {leak:6.3} W   dynamic {dynamic:6.3} W",
            op.frequency.mhz()
        );
    }
    out.push_str("  (dynamic power grows ~V^2*f; leakage only through the supply voltage)\n");
    Ok(out)
}

/// Figure 4.7 — power model validation: predicted vs measured total power over
/// a temperature sweep.
pub fn fig4_7(context: &ExperimentContext) -> Result<String, SimError> {
    let spec = SocSpec::odroid_xu_e();
    let mut trained = context.calibration.power_model.clone();
    let freq = Frequency::from_mhz(1600);
    let volts = spec.big_opps().voltage_for(freq)?;
    let mut state = PlatformState::default_for(&spec);
    state.big_frequency = freq;
    let demand = workload::Demand {
        cpu_streams: 0.5,
        activity_factor: 0.10,
        gpu_utilization: 0.0,
        memory_intensity: 0.1,
        frequency_scalability: 1.0,
    };
    let mut out = String::from("Figure 4.7 — power model validation (predicted vs measured)\n");
    let mut worst_rel = 0.0f64;
    for &setpoint in &LeakageModel::FURNACE_SWEEP_C {
        let mut plant = PhysicalPlant::new(
            spec.clone().with_ambient_c(setpoint),
            PlantPowerParams::default(),
        );
        plant.reset_temps(setpoint);
        let mut measured = 0.0;
        let mut temp = setpoint;
        let steps = if context.quick { 600 } else { 1500 };
        for _ in 0..steps {
            let step = plant.step_interval(&state, &demand, FanLevel::Off, setpoint, 0.1)?;
            measured = step.domain_power.big_w;
            temp = step
                .core_temps_c
                .into_iter()
                .fold(f64::NEG_INFINITY, f64::max);
        }
        // Let the run-time estimator observe a couple of samples, then predict.
        for _ in 0..10 {
            trained.observe(PowerDomain::BigCpu, measured, temp, volts, freq);
        }
        let predicted = trained.predict_total(PowerDomain::BigCpu, temp, volts, freq);
        let rel = (predicted - measured).abs() / measured;
        worst_rel = worst_rel.max(rel);
        let _ = writeln!(
            out,
            "  die {temp:5.1} degC : measured {measured:6.3} W   predicted {predicted:6.3} W   ({:+5.1}%)",
            100.0 * (predicted - measured) / measured
        );
    }
    let _ = writeln!(out, "  worst relative error {:.1}%", 100.0 * worst_rel);
    Ok(out)
}

/// Figure 4.8 — PRBS excitation of the big cluster: power signal and core-0
/// temperature response.
pub fn fig4_8(context: &ExperimentContext) -> Result<String, SimError> {
    let spec = SocSpec::odroid_xu_e();
    let duration_s = if context.quick { 300.0 } else { 1050.0 };
    let steps = (duration_s / 0.1) as usize;
    let prbs = PrbsSignal::generate(
        PrbsConfig {
            register_bits: 11,
            hold_intervals: 20,
            low: 0.0,
            high: 1.0,
            seed: 0x23,
        },
        steps,
    )
    .map_err(|e| SimError::Identification(e.to_string()))?;
    let mut plant = PhysicalPlant::new(spec.clone(), PlantPowerParams::default());
    let mut state = PlatformState::default_for(&spec);
    let mut times = Vec::new();
    let mut powers = Vec::new();
    let mut temps = Vec::new();
    for (k, &bit) in prbs.values().iter().enumerate() {
        let high = bit > 0.5;
        state.big_frequency = if high {
            spec.big_opps().highest().frequency
        } else {
            spec.big_opps().lowest().frequency
        };
        let demand = workload::Demand {
            cpu_streams: 4.0,
            activity_factor: if high { 0.75 } else { 0.55 },
            gpu_utilization: 0.0,
            memory_intensity: 0.1,
            frequency_scalability: 1.0,
        };
        let step = plant.step_interval(&state, &demand, FanLevel::Off, 28.0, 0.1)?;
        times.push(k as f64 * 0.1);
        powers.push(step.domain_power.big_w);
        temps.push(step.core_temps_c[0]);
    }
    let mut out = String::from("Figure 4.8 — PRBS test signal for the big cluster\n");
    out.push_str(&crate::format_series(
        "(a) big-cluster power",
        &times,
        &powers,
        steps / 30,
        "W",
    ));
    out.push_str(&crate::format_series(
        "(b) core-0 temperature",
        &times,
        &temps,
        steps / 30,
        "degC",
    ));
    Ok(out)
}

/// Figure 4.9 — thermal model validation: measured vs 1 s-ahead predicted
/// temperature while running Blowfish.
pub fn fig4_9(context: &ExperimentContext) -> Result<String, SimError> {
    let (dataset, _) = benchmark_identification_log(BenchmarkId::Blowfish, context.quick)?;
    let model = context.calibration.predictor.model();
    let report = n_step_prediction(model, dataset.rows(..), 10)
        .map_err(|e| SimError::Identification(e.to_string()))?;
    let mut out = String::from(
        "Figure 4.9 — thermal model validation for Blowfish (1 s prediction interval)\n",
    );
    let _ = writeln!(
        out,
        "  samples {}   mean error {:.2} degC ({:.2}%)   max error {:.2} degC",
        report.samples, report.mean_abs_error_c, report.mean_percent_error, report.max_abs_error_c
    );
    Ok(out)
}

/// Figure 4.10 — average prediction error vs prediction horizon (Templerun).
pub fn fig4_10(context: &ExperimentContext) -> Result<String, SimError> {
    let (dataset, _) = benchmark_identification_log(BenchmarkId::Templerun, context.quick)?;
    let model = context.calibration.predictor.model();
    let mut out =
        String::from("Figure 4.10 — average temperature prediction error vs horizon (Templerun)\n");
    for horizon in [5usize, 10, 20, 30, 40, 50] {
        let report = n_step_prediction(model, dataset.rows(..), horizon)
            .map_err(|e| SimError::Identification(e.to_string()))?;
        let _ = writeln!(
            out,
            "  horizon {:4.1} s : mean error {:5.2}%  ({:4.2} degC)",
            report.horizon_s, report.mean_percent_error, report.mean_abs_error_c
        );
    }
    Ok(out)
}

/// Figure 6.2 — 1 s prediction error for every benchmark of Table 6.4.
pub fn fig6_2(context: &ExperimentContext) -> Result<String, SimError> {
    let model = context.calibration.predictor.model();
    let mut out = String::from(
        "Figure 6.2 — temperature prediction error for all benchmarks (1 s horizon)\n",
    );
    let mut worst: (f64, &str) = (0.0, "-");
    let mut sum = 0.0;
    let mut count = 0.0;
    for benchmark in BenchmarkId::PAPER_SET {
        let (dataset, _) = benchmark_identification_log(benchmark, context.quick)?;
        let report = n_step_prediction(model, dataset.rows(..), 10)
            .map_err(|e| SimError::Identification(e.to_string()))?;
        let _ = writeln!(
            out,
            "  {:<12} mean {:5.2}%   ({:4.2} degC)",
            benchmark.name(),
            report.mean_percent_error,
            report.mean_abs_error_c
        );
        if report.mean_percent_error > worst.0 {
            worst = (report.mean_percent_error, benchmark.name());
        }
        sum += report.mean_percent_error;
        count += 1.0;
    }
    let _ = writeln!(
        out,
        "  average over benchmarks {:.2}%   worst benchmark {} at {:.2}%  (paper: <3% average, <4% worst)",
        sum / count,
        worst.1,
        worst.0
    );
    Ok(out)
}

/// Runs a benchmark under the default (without fan) configuration while
/// logging temperatures/powers through the sensors, producing a dataset for
/// prediction-accuracy evaluation.
fn benchmark_identification_log(
    benchmark: BenchmarkId,
    quick: bool,
) -> Result<(IdentificationDataset, f64), SimError> {
    let spec = SocSpec::odroid_xu_e();
    let mut plant = PhysicalPlant::new(spec.clone(), PlantPowerParams::default());
    let mut sensors = SensorSuite::odroid_defaults(benchmark.name().len() as u64 * 77);
    let mut workload = WorkloadState::new(benchmark, 5);
    let mut dataset = IdentificationDataset::new(4, 4, 0.1, 28.0)
        .map_err(|e| SimError::Identification(e.to_string()))?;
    let state = PlatformState::default_for(&spec);
    let cap_steps = if quick { 900 } else { 2500 };
    let mut time = 0.0;
    for _ in 0..cap_steps {
        let demand = workload.demand();
        let step = plant.step_interval(&state, &demand, FanLevel::Off, 28.0, 0.1)?;
        workload.advance(step.work_done);
        let reading = sensors.sample(step.core_temps_c, &step.domain_power, step.platform_power_w);
        dataset
            .push_row(&reading.core_temps_c, &reading.domain_power.as_array())
            .map_err(|e| SimError::Identification(e.to_string()))?;
        time += 0.1;
        if workload.is_complete() {
            break;
        }
        // Stop early if the unmanaged run is getting dangerously hot, exactly
        // like the paper's without-fan runs.
        if reading.max_core_temp_c() > 82.0 {
            break;
        }
    }
    Ok((dataset, time))
}

/// Figure 1.1 companion helper: trains the activity estimator of a cloned
/// power model so the dynamic component reflects the light characterisation
/// workload.
fn train_activity(model: &mut PowerModel, dynamic_w: f64) {
    let v = Voltage::from_volts(1.2);
    let f = Frequency::from_mhz(1600);
    let leak = model.predict_leakage(PowerDomain::BigCpu, 55.0, v);
    for _ in 0..10 {
        model.observe(PowerDomain::BigCpu, dynamic_w + leak, 55.0, v, f);
    }
}
