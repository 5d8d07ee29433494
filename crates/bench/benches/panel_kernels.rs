//! Criterion microbenchmark for the SIMD panel-kernel dispatch arms.
//!
//! Times the kernel shapes the batched code runs — the per-lane-bias affine
//! step every engine's thermal transition applies, the f64 broadcast-bias
//! affine pair of the batched predictor, and the anchored leakage span —
//! once through the auto-detected vector arm and once through forced scalar,
//! at 8 lanes (one chunk, the per-interval shape) and 32 lanes (the
//! compacted-sweep shape). The bias step and the leakage span also run at
//! f32 width (the mixed-precision engine's panels), and those cells record
//! their f32-over-f64 ratio so the per-op width win is tracked alongside the
//! dispatch win. The headline number is the vector-over-scalar speedup on
//! the 8-lane f64 affine-pair kernel: on an AVX2 host the acceptance floor
//! is ≥ 1.5×, asserted in the full (non `--test`) run.
//!
//! The measured numbers are also written to `BENCH_panel_kernels.json` at the
//! workspace root so sweeps of the bench can be tracked over time.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;

use numeric::simd::PanelKernel;
use numeric::{
    affine_pair_apply_with, affine_panel_bias_apply_elem_with, Elem, Matrix, Panel, PanelT,
};
use power_model::{LeakageModel, LeakagePanel, LeakagePanelF32};

/// The paper's plant is an 8-node model; every hot kernel call is 8×8.
const N: usize = 8;
/// Leakage-driven node rows per scenario in the batched plant.
const LEAK_ROWS: usize = 6;
/// Acceptance floor for the vector arm on the 8-lane affine-pair kernel
/// (only asserted when an AVX2 host provides a vector arm to measure).
const SPEEDUP_FLOOR: f64 = 1.5;

fn test_matrix(seed: f64) -> Matrix {
    let mut m = Matrix::zeros(N, N);
    for i in 0..N {
        for j in 0..N {
            m[(i, j)] = ((i * N + j) as f64).sin() * seed + if i == j { 0.9 } else { 0.0 };
        }
    }
    m
}

/// [`test_matrix`] as a panel at width `E` — the form the bias kernel takes.
fn matrix_panel<E: Elem>(seed: f64) -> PanelT<E> {
    let m = test_matrix(seed);
    let mut p = PanelT::zeros(N, N);
    for i in 0..N {
        for j in 0..N {
            p.set(i, j, E::from_f64(m[(i, j)]));
        }
    }
    p
}

fn test_panel<E: Elem>(rows: usize, lanes: usize, scale: f64) -> PanelT<E> {
    let mut p = PanelT::zeros(rows, lanes);
    for i in 0..rows {
        for l in 0..lanes {
            p.set(i, l, E::from_f64(40.0 + scale * (i * lanes + l) as f64));
        }
    }
    p
}

/// A kernel-shaped operation on a fixture, timed per dispatch arm.
type Op<F> = fn(&mut F, PanelKernel);

/// The f64 fixture: the affine pair's matrices and broadcast bias, the bias
/// kernel's matrix panels and per-lane drive, and a leakage panel.
struct KernelFixture {
    a: Matrix,
    b: Matrix,
    bias: Vec<f64>,
    a_panel: Panel,
    b_panel: Panel,
    drive: Panel,
    x: Panel,
    y: Panel,
    out: Panel,
    leak: LeakagePanel,
    temps: Vec<f64>,
    currents: Vec<f64>,
}

impl KernelFixture {
    fn new(lanes: usize) -> Self {
        let cells = LEAK_ROWS * lanes;
        KernelFixture {
            a: test_matrix(0.2),
            b: test_matrix(0.05),
            bias: (0..N).map(|i| 0.01 * i as f64).collect(),
            a_panel: matrix_panel(0.2),
            b_panel: matrix_panel(0.05),
            drive: test_panel(N, lanes, 0.003),
            x: test_panel(N, lanes, 0.037),
            y: test_panel(N, lanes, 0.011),
            out: Panel::zeros(N, lanes),
            leak: LeakagePanel::filled(LEAK_ROWS, lanes, &LeakageModel::exynos5410_big(), 52.0),
            temps: (0..cells).map(|k| 52.0 + 0.002 * k as f64).collect(),
            currents: vec![0.0; cells],
        }
    }

    fn affine_pair(&mut self, kernel: PanelKernel) {
        affine_pair_apply_with(
            kernel,
            &self.a,
            &self.b,
            &self.bias,
            black_box(&self.x),
            black_box(&self.y),
            &mut self.out,
        )
        .unwrap();
        black_box(&self.out);
    }

    fn affine_panel_bias(&mut self, kernel: PanelKernel) {
        affine_panel_bias_apply_elem_with(
            kernel,
            &self.a_panel,
            &self.b_panel,
            black_box(&self.drive),
            black_box(&self.x),
            black_box(&self.y),
            &mut self.out,
        )
        .unwrap();
        black_box(&self.out);
    }

    fn leakage_span(&mut self, kernel: PanelKernel) {
        self.leak
            .currents_into_with(kernel, black_box(&self.temps), &mut self.currents);
        black_box(&self.currents[0]);
    }
}

/// The f32 fixture (the mixed-precision engine's panels): the bias kernel
/// and the leakage span at half width.
struct KernelFixture32 {
    a: PanelT<f32>,
    b: PanelT<f32>,
    drive: PanelT<f32>,
    x: PanelT<f32>,
    y: PanelT<f32>,
    out: PanelT<f32>,
    leak: LeakagePanelF32,
    temps: Vec<f32>,
    currents: Vec<f32>,
}

impl KernelFixture32 {
    fn new(lanes: usize) -> Self {
        let cells = LEAK_ROWS * lanes;
        KernelFixture32 {
            a: matrix_panel(0.2),
            b: matrix_panel(0.05),
            drive: test_panel(N, lanes, 0.003),
            x: test_panel(N, lanes, 0.037),
            y: test_panel(N, lanes, 0.011),
            out: PanelT::zeros(N, lanes),
            leak: LeakagePanelF32::filled(LEAK_ROWS, lanes, &LeakageModel::exynos5410_big(), 52.0),
            temps: (0..cells).map(|k| 52.0 + 0.002 * k as f32).collect(),
            currents: vec![0.0; cells],
        }
    }

    fn affine_panel_bias(&mut self, kernel: PanelKernel) {
        affine_panel_bias_apply_elem_with(
            kernel,
            &self.a,
            &self.b,
            black_box(&self.drive),
            black_box(&self.x),
            black_box(&self.y),
            &mut self.out,
        )
        .unwrap();
        black_box(&self.out);
    }

    fn leakage_span(&mut self, kernel: PanelKernel) {
        self.leak
            .currents_into_with(kernel, black_box(&self.temps), &mut self.currents);
        black_box(&self.currents[0]);
    }
}

/// A timed op: its name, the f64 form and, where the engines run one, the
/// f32 form.
type KernelOp = (&'static str, Op<KernelFixture>, Option<Op<KernelFixture32>>);

/// Every timed op.
fn ops() -> [KernelOp; 3] {
    [
        ("affine_pair", KernelFixture::affine_pair, None),
        (
            "affine_panel_bias",
            KernelFixture::affine_panel_bias,
            Some(KernelFixture32::affine_panel_bias),
        ),
        (
            "leakage_span",
            KernelFixture::leakage_span,
            Some(KernelFixture32::leakage_span),
        ),
    ]
}

fn bench_panel_kernels(c: &mut Criterion) {
    let active = PanelKernel::active();
    for lanes in [8usize, 32] {
        let mut group = c.benchmark_group(&format!("panel_kernels/{lanes}_lanes"));
        let mut fx = KernelFixture::new(lanes);
        let mut fx32 = KernelFixture32::new(lanes);
        for (name, op, op32) in ops() {
            group.bench_function(&format!("{name}/{}", active.name()), |bench| {
                bench.iter(|| op(&mut fx, active))
            });
            group.bench_function(&format!("{name}/scalar"), |bench| {
                bench.iter(|| op(&mut fx, PanelKernel::Scalar))
            });
            if let Some(op32) = op32 {
                group.bench_function(&format!("{name}_f32/{}", active.name()), |bench| {
                    bench.iter(|| op32(&mut fx32, active))
                });
            }
        }
        group.finish();
    }

    report_speedups();
}

/// Best-of-N nanoseconds per kernel call.
fn time_op(passes: usize, iters: usize, mut op: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..passes {
        let start = Instant::now();
        for _ in 0..iters {
            op();
        }
        best = best.min(start.elapsed().as_secs_f64() * 1e9 / iters as f64);
    }
    best
}

/// Times every (op, lanes, arm) cell, prints the speedup table, asserts the
/// acceptance floor and records `BENCH_panel_kernels.json`.
fn report_speedups() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let passes = if test_mode { 1 } else { 5 };
    let iters = if test_mode { 200 } else { 200_000 };
    let active = PanelKernel::active();

    let mut rows = Vec::new();
    let mut affine8_speedup = None;
    for lanes in [8usize, 32] {
        let mut fx = KernelFixture::new(lanes);
        let mut fx32 = KernelFixture32::new(lanes);
        for (name, op, op32) in ops() {
            let wide_ns = time_op(passes, iters, || op(&mut fx, active));
            let scalar_ns = time_op(passes, iters, || op(&mut fx, PanelKernel::Scalar));
            let speedup = scalar_ns / wide_ns;
            println!(
                "{:<44} {wide_ns:>8.1} ns ({}) vs {scalar_ns:>8.1} ns (scalar)  {speedup:>6.2}x",
                format!("panel_kernels/{name}/{lanes}_lanes"),
                active.name(),
            );
            if name == "affine_pair" && lanes == 8 {
                affine8_speedup = Some(speedup);
            }
            rows.push(format!(
                "    {{ \"op\": \"{name}\", \"elem\": \"f64\", \"lanes\": {lanes}, \
                 \"{}_ns_per_call\": {wide_ns:.1}, \"scalar_ns_per_call\": {scalar_ns:.1}, \
                 \"speedup\": {speedup:.3} }}",
                active.name()
            ));
            let Some(op32) = op32 else {
                continue;
            };
            let wide32_ns = time_op(passes, iters, || op32(&mut fx32, active));
            let scalar32_ns = time_op(passes, iters, || op32(&mut fx32, PanelKernel::Scalar));
            let speedup32 = scalar32_ns / wide32_ns;
            let f32_vs_f64 = wide_ns / wide32_ns;
            println!(
                "{:<44} {wide32_ns:>8.1} ns ({}) vs {scalar32_ns:>8.1} ns (scalar)  {speedup32:>6.2}x  [f32 vs f64: {f32_vs_f64:.2}x]",
                format!("panel_kernels/{name}_f32/{lanes}_lanes"),
                active.name(),
            );
            rows.push(format!(
                "    {{ \"op\": \"{name}\", \"elem\": \"f32\", \"lanes\": {lanes}, \
                 \"{}_ns_per_call\": {wide32_ns:.1}, \"scalar_ns_per_call\": {scalar32_ns:.1}, \
                 \"speedup\": {speedup32:.3}, \"f32_vs_f64_speedup\": {f32_vs_f64:.3} }}",
                active.name()
            ));
        }
    }
    let affine8 = affine8_speedup.expect("affine_pair at 8 lanes was measured");
    println!(
        "panel_kernels/affine_pair_8_lane_speedup  {affine8:>6.2}x \
         (acceptance floor on AVX2 hosts: >= {SPEEDUP_FLOOR}x)"
    );

    if !test_mode {
        write_bench_json(active, affine8, &rows);
        // The floor is a property of the AVX2 arm; on hosts without one the
        // active kernel IS the scalar path and there is nothing to assert.
        if active == PanelKernel::Avx2Fma {
            assert!(
                affine8 >= SPEEDUP_FLOOR,
                "AVX2 affine-pair kernel regressed to {affine8:.2}x over blocked scalar \
                 at 8 lanes (floor: {SPEEDUP_FLOOR}x)"
            );
        }
    }
}

/// Records the measured numbers for tracking (`BENCH_panel_kernels.json`).
fn write_bench_json(active: PanelKernel, affine8: f64, rows: &[String]) {
    let json = format!(
        "{{\n  \"bench\": \"panel_kernels\",\n  \"active_kernel\": \"{}\",\n  \
         \"affine_pair_8_lane_speedup\": {affine8:.3},\n  \
         \"floor\": {SPEEDUP_FLOOR},\n  \"cells\": [\n{}\n  ]\n}}\n",
        active.name(),
        rows.join(",\n")
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_panel_kernels.json"
    );
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("warning: could not write {path}: {e}");
    }
}

criterion_group!(benches, bench_panel_kernels);
criterion_main!(benches);
