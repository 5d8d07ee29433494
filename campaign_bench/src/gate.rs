//! The correctness gate: a campaign's merged aggregate, its per-kind domain
//! outputs and the calibration's validation report, checked against a
//! pinned reference per grid and seed.
//!
//! Integer fields must match exactly and float fields within
//! [`REL_TOLERANCE`]. The tolerance is what lets folds at different lane
//! widths pass: on the paper grid the 1-lane and 8-lane folds differ by one
//! ulp in the energy Welford maximum.

use std::fmt::Write as _;

use numeric::stats::Welford;
use platform_sim::CampaignAggregate;
use sysid::PredictionErrorReport;

use crate::domain::DomainOutputs;
use crate::workloads::Grid;

/// The pinned table, generated with `campaign-bench --pin FIRST LAST`.
const PINNED: &str = include_str!("../reference.tsv");

/// Relative tolerance on float fields.
pub const REL_TOLERANCE: f64 = 1e-9;

/// One checked field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    Int(u64),
    Float(f64),
}

/// Named fields, in a fixed order.
pub type Observation = Vec<(String, Value)>;

fn int(out: &mut Observation, name: &str, value: usize) {
    out.push((name.to_owned(), Value::Int(value as u64)));
}

fn float(out: &mut Observation, name: &str, value: f64) {
    out.push((name.to_owned(), Value::Float(value)));
}

fn welford(out: &mut Observation, name: &str, w: &Welford) {
    int(out, &format!("{name}.count"), w.count());
    float(out, &format!("{name}.mean"), w.mean());
    float(out, &format!("{name}.m2"), w.m2());
    float(out, &format!("{name}.min"), w.min());
    float(out, &format!("{name}.max"), w.max());
}

/// The aggregate's fields.
pub fn observe_aggregate(agg: &CampaignAggregate) -> Observation {
    let mut out = Vec::new();
    int(&mut out, "cells", agg.cells);
    int(&mut out, "completed_runs", agg.completed_runs);
    int(&mut out, "failed_cells", agg.failed_cells);
    int(&mut out, "shutdowns", agg.shutdowns);
    int(&mut out, "total_intervals", agg.total_intervals);
    int(&mut out, "escalations", agg.escalations);
    int(&mut out, "sensor_faults", agg.sensor_faults);
    float(&mut out, "total_energy_j", agg.total_energy_j);
    welford(&mut out, "energy_j", &agg.energy_j);
    welford(&mut out, "mean_power_w", &agg.mean_power_w);
    welford(&mut out, "execution_time_s", &agg.execution_time_s);
    welford(&mut out, "peak_temp_c", &agg.peak_temp_c);
    welford(&mut out, "mean_temp_c", &agg.mean_temp_c);
    out
}

/// The per-kind domain outputs and the calibration's validation fields.
pub fn observe_domain(domain: &DomainOutputs, validation: &PredictionErrorReport) -> Observation {
    let mut out = Vec::new();
    for kind in &domain.kinds {
        let name = kind.kind.name();
        int(&mut out, &format!("{name}.cells"), kind.cells);
        float(&mut out, &format!("{name}.mean_power_w"), kind.mean_power_w);
        float(
            &mut out,
            &format!("{name}.mean_execution_time_s"),
            kind.mean_execution_time_s,
        );
    }
    int(&mut out, "validation.samples", validation.samples);
    float(
        &mut out,
        "validation.mean_percent_error",
        validation.mean_percent_error,
    );
    float(
        &mut out,
        "validation.max_percent_error",
        validation.max_percent_error,
    );
    float(
        &mut out,
        "validation.mean_abs_error_c",
        validation.mean_abs_error_c,
    );
    out
}

/// One reference-table line.
pub fn render(grid: Grid, seed: u64, observation: &Observation) -> String {
    let mut line = format!("{}\t{seed}", grid.name());
    for (name, value) in observation {
        match value {
            Value::Int(v) => write!(line, "\t{name}=i:{v}"),
            Value::Float(v) => write!(line, "\t{name}=f:{v:?}"),
        }
        .expect("string write");
    }
    line
}

/// The pinned reference for `grid` and `seed`, if the table has one.
pub fn pinned(grid: Grid, seed: u64) -> Option<Observation> {
    PINNED.lines().find_map(|line| {
        let mut fields = line.split('\t');
        let line_grid = Grid::parse(fields.next()?)?;
        let line_seed: u64 = fields.next()?.parse().ok()?;
        if line_grid != grid || line_seed != seed {
            return None;
        }
        fields
            .map(|field| {
                let (name, value) = field.split_once('=')?;
                let value = match value.split_once(':')? {
                    ("i", v) => Value::Int(v.parse().ok()?),
                    ("f", v) => Value::Float(v.parse().ok()?),
                    _ => return None,
                };
                Some((name.to_owned(), value))
            })
            .collect()
    })
}

/// Every reference field `observed` misses; empty when the gate passes.
/// Reference fields `observed` does not carry are skipped (a distributed
/// fold has no domain outputs).
pub fn compare(reference: &Observation, observed: &Observation) -> Vec<String> {
    let mut problems = Vec::new();
    for (name, expected) in reference {
        let Some((_, actual)) = observed.iter().find(|(n, _)| n == name) else {
            continue;
        };
        let matches = match (expected, actual) {
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => {
                a.to_bits() == b.to_bits() || (a - b).abs() <= REL_TOLERANCE * a.abs().max(b.abs())
            }
            _ => false,
        };
        if !matches {
            problems.push(format!("{name}: expected {expected:?}, got {actual:?}"));
        }
    }
    problems
}
