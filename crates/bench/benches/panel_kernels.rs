//! Dispatch-arm microbench of the SIMD panel kernels.
//!
//! Times the kernel shapes the batched code runs — the per-lane-bias affine
//! step every engine's thermal transition applies, the f64 broadcast-bias
//! affine pair of the batched predictor, and the anchored leakage span —
//! through forced scalar against the active arm, at 8 lanes (one chunk, the
//! per-interval shape) and 32 lanes (the compacted-sweep shape). The bias
//! step and the leakage span also run at f32 width (the mixed-precision
//! engine's panels). The claim is the vector-over-scalar speed-up of the
//! 8-lane f64 affine pair: at least [`SPEEDUP_FLOOR`] on an AVX2 host. Every
//! other cell is recorded without a bound, in `BENCH_panel_kernels.json`.

use std::hint::black_box;

use bench::microbench::{Bound, Microbench};
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
/// Kernel calls per timed sample in a full run.
const CALLS: usize = 50_000;
/// Pairs per timed cell in a full run.
const PAIRS: usize = 21;

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

/// Times `calls` calls of `op` through forced scalar against the active
/// arm, each arm on its own fixture.
fn speedup<F>(
    bench: &mut Microbench,
    name: &str,
    bound: Option<Bound>,
    calls: usize,
    fixture: impl Fn() -> F,
    op: Op<F>,
) {
    let active = PanelKernel::active();
    let (mut scalar, mut vector) = (fixture(), fixture());
    bench.paired(
        name,
        bound,
        ["scalar", "active"],
        |t| {
            t.time(|| {
                for _ in 0..calls {
                    op(&mut scalar, PanelKernel::Scalar);
                }
            })
        },
        |t| {
            t.time(|| {
                for _ in 0..calls {
                    op(&mut vector, active);
                }
            })
        },
    );
}

fn main() {
    let mut bench = Microbench::from_args("panel_kernels", PAIRS);
    let calls = if bench.test_mode() { 200 } else { CALLS };
    let active = PanelKernel::active();
    bench.config("active_kernel", active.name());
    bench.config("calls_per_sample", calls);
    for lanes in [8usize, 32] {
        for (name, op, op32) in ops() {
            // The floor is a property of the AVX2 arm; on hosts without one
            // the active kernel IS the scalar path and there is nothing to
            // assert.
            let bound = (name == "affine_pair" && lanes == 8 && active == PanelKernel::Avx2Fma)
                .then_some(Bound::Floor(SPEEDUP_FLOOR));
            let cell = format!("{name}_{lanes}_lane_speedup");
            speedup(
                &mut bench,
                &cell,
                bound,
                calls,
                || KernelFixture::new(lanes),
                op,
            );
            if let Some(op32) = op32 {
                let cell = format!("{name}_f32_{lanes}_lane_speedup");
                speedup(
                    &mut bench,
                    &cell,
                    None,
                    calls,
                    || KernelFixture32::new(lanes),
                    op32,
                );
            }
        }
    }
    bench.finish();
}
