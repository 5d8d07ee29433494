//! Regression of the paper's headline results in *shape*: power savings grow
//! with workload intensity, the performance cost stays small, and the DTPM
//! algorithm keeps the platform inside the thermal constraint (Figures 6.5,
//! 6.9 and the abstract's summary numbers).

#[path = "common/mod.rs"]
mod common;

use platform_sim::{BenchmarkComparison, ExperimentKind};
use workload::{BenchmarkCategory, BenchmarkId};

#[test]
fn power_savings_grow_with_workload_intensity() {
    let calibration = common::quick_calibration();

    // One representative benchmark per category (Figure 6.9 groups them the
    // same way): Dijkstra (low), Patricia (medium), matrix multiplication (high).
    let mut savings = Vec::new();
    for benchmark in [
        BenchmarkId::Dijkstra,
        BenchmarkId::Patricia,
        BenchmarkId::MatrixMult,
    ] {
        let with_fan = common::run(&calibration, ExperimentKind::DefaultWithFan, benchmark);
        let dtpm = common::run(&calibration, ExperimentKind::Dtpm, benchmark);
        let cmp = BenchmarkComparison::against_baseline(&with_fan.summary, &dtpm.summary);
        savings.push((
            benchmark,
            cmp.power_saving_percent,
            cmp.performance_loss_percent,
        ));
    }

    // Savings must be non-trivial for the heavier categories and must increase
    // from low to high activity (3% -> 8% -> 14% in the paper).
    let low = savings[0].1;
    let medium = savings[1].1;
    let high = savings[2].1;
    assert!(
        high > medium && medium > low,
        "savings must grow with intensity: {savings:?}"
    );
    assert!(high > 5.0, "high-activity savings {high:.1}% too small");
    assert!(low > -2.0, "low-activity runs must not cost extra power");

    // Performance losses stay bounded for every category; the low-activity
    // case is essentially free (paper: <1%).
    for &(benchmark, _, loss) in &savings {
        assert!(
            loss < 20.0,
            "{benchmark} performance loss {loss:.1}% too large"
        );
    }
    assert!(
        savings[0].2 < 2.0,
        "low-activity loss {:.2}% too large",
        savings[0].2
    );
}

#[test]
fn dtpm_keeps_every_category_within_the_constraint() {
    let calibration = common::quick_calibration();
    for benchmark in [
        BenchmarkId::Blowfish,
        BenchmarkId::Qsort,
        BenchmarkId::Basicmath,
        BenchmarkId::Templerun,
    ] {
        let summary = common::run(&calibration, ExperimentKind::Dtpm, benchmark).summary;
        let peak = summary.stability.peak_temp_c;
        assert!(
            peak <= 65.0,
            "{benchmark} peaked at {peak:.1} degC under DTPM"
        );
        assert!(summary.completed, "{benchmark} did not complete under DTPM");
    }
}

#[test]
fn multi_threaded_benchmarks_show_the_same_trend_as_figure_6_10() {
    let calibration = common::quick_calibration();
    for benchmark in [BenchmarkId::FftMt, BenchmarkId::LuMt] {
        assert_eq!(benchmark.spec().category, BenchmarkCategory::High);
        let with_fan = common::run(&calibration, ExperimentKind::DefaultWithFan, benchmark);
        let dtpm = common::run(&calibration, ExperimentKind::Dtpm, benchmark);
        let cmp = BenchmarkComparison::against_baseline(&with_fan.summary, &dtpm.summary);
        assert!(
            cmp.power_saving_percent > 3.0,
            "{benchmark}: savings {:.1}% too small",
            cmp.power_saving_percent
        );
        assert!(
            cmp.performance_loss_percent < 25.0,
            "{benchmark}: loss {:.1}% too large",
            cmp.performance_loss_percent
        );
        let peak = dtpm.summary.stability.peak_temp_c;
        assert!(peak <= 65.0, "{benchmark}: DTPM peak {peak:.1}");
    }
}
