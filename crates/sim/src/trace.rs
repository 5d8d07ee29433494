//! Per-interval trace logging and CSV export.

use std::io::{BufWriter, Write};
use std::path::Path;

use power_model::DomainPower;
use soc_model::{ClusterKind, FanLevel};

use crate::SimError;

/// One logged control interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Simulation time at the end of the interval, seconds.
    pub time_s: f64,
    /// Measured big-core temperatures, °C.
    pub core_temps_c: [f64; 4],
    /// Which CPU cluster was active.
    pub active_cluster: ClusterKind,
    /// Frequency of the active cluster, MHz.
    pub frequency_mhz: u32,
    /// Number of online cores in the active cluster.
    pub online_cores: usize,
    /// GPU frequency, MHz.
    pub gpu_frequency_mhz: u32,
    /// Fan level during the interval.
    pub fan_level: FanLevel,
    /// Measured per-domain power, watts.
    pub domain_power: DomainPower,
    /// Total platform power (external meter), watts.
    pub platform_power_w: f64,
    /// Benchmark progress at the end of the interval, 0..1.
    pub progress: f64,
    /// Peak temperature the DTPM policy predicted for the proposed
    /// configuration (only meaningful in the DTPM configuration).
    pub predicted_peak_c: Option<f64>,
    /// Whether the DTPM policy overrode the default decision this interval.
    pub dtpm_intervened: bool,
}

impl TraceRecord {
    /// Maximum measured core temperature of the interval.
    pub fn max_core_temp_c(&self) -> f64 {
        self.core_temps_c
            .into_iter()
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// A complete experiment trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    records: Vec<TraceRecord>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends one record.
    pub fn push(&mut self, record: TraceRecord) {
        self.records.push(record);
    }

    /// The logged records in time order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of logged intervals.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Time series of the maximum core temperature, °C.
    pub fn max_temp_series(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.max_core_temp_c()).collect()
    }

    /// Time series of the active-cluster frequency, MHz.
    pub fn frequency_series(&self) -> Vec<f64> {
        self.records
            .iter()
            .map(|r| r.frequency_mhz as f64)
            .collect()
    }

    /// Time series of total platform power, watts.
    pub fn platform_power_series(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.platform_power_w).collect()
    }

    /// Mean platform power over the trace, watts; 0 for an empty trace.
    pub fn mean_platform_power_w(&self) -> f64 {
        numeric::stats::mean(&self.platform_power_series())
    }

    /// Fraction of intervals in which the DTPM policy intervened.
    pub fn intervention_rate(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().filter(|r| r.dtpm_intervened).count() as f64 / self.records.len() as f64
    }

    /// Fraction of intervals spent on the little cluster.
    pub fn little_cluster_residency(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records
            .iter()
            .filter(|r| r.active_cluster == ClusterKind::Little)
            .count() as f64
            / self.records.len() as f64
    }

    /// Writes the trace as CSV (one row per control interval).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Io`] if the file cannot be written.
    pub fn write_csv(&self, path: &Path) -> Result<(), SimError> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        // Buffer the row-at-a-time writes: a long trace is tens of thousands
        // of small formatted writes, which would otherwise each hit the OS.
        let mut file = BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            file,
            "time_s,temp0_c,temp1_c,temp2_c,temp3_c,max_temp_c,cluster,freq_mhz,online_cores,\
             gpu_freq_mhz,fan,big_w,little_w,gpu_w,mem_w,platform_w,progress,predicted_peak_c,dtpm_intervened"
        )?;
        for r in &self.records {
            writeln!(
                file,
                "{:.1},{:.2},{:.2},{:.2},{:.2},{:.2},{},{},{},{},{},{:.3},{:.3},{:.3},{:.3},{:.3},{:.4},{},{}",
                r.time_s,
                r.core_temps_c[0],
                r.core_temps_c[1],
                r.core_temps_c[2],
                r.core_temps_c[3],
                r.max_core_temp_c(),
                r.active_cluster,
                r.frequency_mhz,
                r.online_cores,
                r.gpu_frequency_mhz,
                r.fan_level,
                r.domain_power.big_w,
                r.domain_power.little_w,
                r.domain_power.gpu_w,
                r.domain_power.memory_w,
                r.platform_power_w,
                r.progress,
                r.predicted_peak_c
                    .map(|v| format!("{v:.2}"))
                    .unwrap_or_default(),
                r.dtpm_intervened
            )?;
        }
        // Surface flush errors here: `BufWriter`'s drop swallows them.
        file.flush()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(time_s: f64, temp: f64, freq: u32, power: f64) -> TraceRecord {
        TraceRecord {
            time_s,
            core_temps_c: [temp, temp - 1.0, temp - 0.5, temp - 1.5],
            active_cluster: ClusterKind::Big,
            frequency_mhz: freq,
            online_cores: 4,
            gpu_frequency_mhz: 177,
            fan_level: FanLevel::Off,
            domain_power: DomainPower::new(power, 0.05, 0.1, 0.4),
            platform_power_w: power + 2.3,
            progress: time_s / 100.0,
            predicted_peak_c: None,
            dtpm_intervened: false,
        }
    }

    #[test]
    fn series_and_summaries() {
        let mut trace = Trace::new();
        assert!(trace.is_empty());
        for k in 0..50 {
            trace.push(record(k as f64 * 0.1, 50.0 + k as f64 * 0.1, 1600, 3.0));
        }
        assert_eq!(trace.len(), 50);
        assert_eq!(trace.max_temp_series().len(), 50);
        let summary = numeric::Summary::of(&trace.max_temp_series());
        assert!(summary.max > summary.min);
        assert!((trace.mean_platform_power_w() - 5.3).abs() < 1e-9);
        assert_eq!(trace.intervention_rate(), 0.0);
        assert_eq!(trace.little_cluster_residency(), 0.0);
        assert_eq!(trace.frequency_series()[0], 1600.0);
    }

    #[test]
    fn intervention_and_residency_rates() {
        let mut trace = Trace::new();
        let mut r = record(0.0, 55.0, 1600, 3.0);
        r.dtpm_intervened = true;
        trace.push(r);
        let mut r = record(0.1, 56.0, 1200, 2.0);
        r.active_cluster = ClusterKind::Little;
        trace.push(r);
        assert_eq!(trace.intervention_rate(), 0.5);
        assert_eq!(trace.little_cluster_residency(), 0.5);
    }

    #[test]
    fn empty_trace_rates_are_zero() {
        let trace = Trace::new();
        assert_eq!(trace.mean_platform_power_w(), 0.0);
        assert_eq!(trace.intervention_rate(), 0.0);
        assert_eq!(trace.little_cluster_residency(), 0.0);
    }

    #[test]
    fn csv_export_writes_all_rows() {
        let mut trace = Trace::new();
        for k in 0..10 {
            trace.push(record(k as f64 * 0.1, 52.0, 1500, 2.5));
        }
        let dir = std::env::temp_dir().join("dtpm_trace_test");
        let path = dir.join("trace.csv");
        trace.write_csv(&path).unwrap();
        let contents = std::fs::read_to_string(&path).unwrap();
        assert_eq!(contents.lines().count(), 11); // header + 10 rows
        assert!(contents.lines().next().unwrap().starts_with("time_s,"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn csv_round_trips_record_count_and_shape() {
        // A long trace exercises the buffered writer across flush boundaries;
        // the exported file must round-trip the record count exactly and keep
        // every row aligned with the header's column count.
        let mut trace = Trace::new();
        for k in 0..4096 {
            let mut r = record(k as f64 * 0.1, 50.0 + (k % 17) as f64 * 0.3, 1600, 3.1);
            if k % 5 == 0 {
                r.predicted_peak_c = Some(61.5);
            }
            trace.push(r);
        }
        let dir = std::env::temp_dir().join("dtpm_trace_roundtrip_test");
        let path = dir.join("trace.csv");
        trace.write_csv(&path).unwrap();
        let contents = std::fs::read_to_string(&path).unwrap();
        let mut lines = contents.lines();
        let header = lines.next().expect("header row");
        let columns = header.split(',').count();
        let mut rows = 0usize;
        for line in lines {
            assert_eq!(
                line.split(',').count(),
                columns,
                "row {rows} column count diverged from the header"
            );
            rows += 1;
        }
        assert_eq!(
            rows,
            trace.len(),
            "exported CSV must round-trip record count"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
