//! `campaign-bench`: times whole characterisation campaigns end to end and,
//! in a separate traced run, layer by layer.
//!
//! ```text
//! campaign-bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! campaign-bench --pin FIRST LAST      # print reference-table lines
//! ```
//!
//! Workloads: `paper_grid` and `short_cells_2workers` (see
//! `README.md`). The seed (default [`DEFAULT_SEED`]) is both the campaign
//! seed and the calibration seed. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics untraced, the per-layer metrics traced.

mod domain;
mod gate;
mod passes;
mod probes;
mod trace;
mod workloads;

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use platform_sim::distributed::{decode_checkpoint, decode_sink, encode_checkpoint, encode_sink};
use platform_sim::{
    Calibration, CampaignAggregate, CampaignCheckpoint, EnginePrecision, ExperimentKind,
    LeaseStats, MergeSink, SweepSpec,
};

use crate::domain::DomainOutputs;
use crate::gate::Observation;
use crate::probes::Metric;
use crate::trace::{median, quantile, RunTag, Span, SpanIndex, Tracer};
use crate::workloads::{calibration_recipe, Grid, Workload, CHECKPOINT_EVERY};

/// Workload seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Measuring time when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 40.0;
/// Spanned calibrations of a traced run.
const SETUP_REPS: usize = 5;
/// Campaign passes per untraced run, at least.
const MIN_PASSES: usize = 3;
/// Untraced and traced passes of a traced run.
const TRACED_PASSES: usize = 3;
/// Passes per lane-width/precision arm of a traced run.
const ARM_PASSES: usize = 2;
/// Repetitions of the microsecond-scale codec calls.
const CODEC_REPS: usize = 21;

/// The end-to-end metrics, reported by untraced runs.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("campaign_s", "s"),
    ("sim_intervals_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("completed_cell_ratio", "ratio"),
];

/// The per-layer metrics, reported by traced runs (as in `BENCHMARK.json`).
const PER_LAYER: [(&str, &str); 58] = [
    ("calibrate.run_s", "s"),
    ("distributed.spawn_s", "s"),
    ("distributed.connect_s", "s"),
    ("distributed.run_s", "s"),
    ("distributed.leases", "count"),
    ("distributed.releases", "count"),
    ("distributed.duplicate_cells", "count"),
    ("distributed.lost_workers", "count"),
    ("distributed.cells_per_lease", "ratio"),
    ("codec.sink_bytes", "bytes"),
    ("codec.sink_encode_us", "us"),
    ("codec.sink_decode_us", "us"),
    ("codec.checkpoint_bytes", "bytes"),
    ("codec.checkpoint_encode_us", "us"),
    ("campaign.run_into_s", "s"),
    ("campaign.cell_materialise_us", "us"),
    ("campaign.delivery_gap_us.p50", "us"),
    ("campaign.delivery_gap_us.p99", "us"),
    ("campaign.tail_s", "s"),
    ("campaign.executor_remainder_s", "s"),
    ("resilience.sink_accept_us.total", "us"),
    ("resilience.sink_accept_us.p50", "us"),
    ("resilience.sink_accept_us.p99", "us"),
    ("resilience.merge_offer_us.total", "us"),
    ("resilience.checkpoint_us.total", "us"),
    ("resilience.checkpoint_writes", "count"),
    ("resilience.checkpoint_write_ms.p50", "ms"),
    ("resilience.checkpoint_write_ms.p99", "ms"),
    ("resilience.checkpoint_bytes", "bytes"),
    ("engine.scalar-1.mixed_ambient.ns_per_lane_interval", "ns"),
    ("engine.panel-8.mixed_ambient.ns_per_lane_interval", "ns"),
    ("engine.panel-16.mixed_ambient.ns_per_lane_interval", "ns"),
    ("engine.mixed-16.mixed_ambient.ns_per_lane_interval", "ns"),
    ("engine.scalar-1.shared_ambient.ns_per_lane_interval", "ns"),
    ("engine.panel-8.shared_ambient.ns_per_lane_interval", "ns"),
    ("engine.panel-16.shared_ambient.ns_per_lane_interval", "ns"),
    ("engine.mixed-16.shared_ambient.ns_per_lane_interval", "ns"),
    ("absorb.sample_ns.healthy", "ns"),
    ("absorb.fault_apply_ns.healthy", "ns"),
    ("absorb.screen_ns.healthy", "ns"),
    ("absorb.ladder_ns.healthy", "ns"),
    ("absorb.observer_ns.healthy", "ns"),
    ("absorb.sample_ns.faulted", "ns"),
    ("absorb.fault_apply_ns.faulted", "ns"),
    ("absorb.screen_ns.faulted", "ns"),
    ("absorb.ladder_ns.faulted", "ns"),
    ("absorb.observer_ns.faulted", "ns"),
    ("dtpm.decide_ns", "ns"),
    ("dtpm.batch_classify_ns_per_lane", "ns"),
    ("arm.lanes-1.f64.campaign_s", "s"),
    ("arm.lanes-1.f32.campaign_s", "s"),
    ("arm.lanes-8.f64.campaign_s", "s"),
    ("arm.lanes-8.f32.campaign_s", "s"),
    ("arm.lanes-16.f64.campaign_s", "s"),
    ("arm.lanes-16.f32.campaign_s", "s"),
    ("bench.domain_fold_us.total", "us"),
    ("trace.campaign_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

/// Parsed command line of a measuring run.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

#[derive(Debug)]
enum Mode {
    Run(Args),
    Pin { first: u64, last: u64 },
}

fn parse_args() -> Result<Mode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--pin") {
        let bound = |k: usize| -> Result<u64, String> {
            argv.get(k)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| "--pin takes FIRST and LAST seeds".to_owned())
        };
        return Ok(Mode::Pin {
            first: bound(1)?,
            last: bound(2)?,
        });
    }
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut out = PathBuf::from("campaign_bench/out");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; expected one of {names:?}")
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Mode::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        out,
    }))
}

fn main() -> ExitCode {
    match parse_args() {
        Ok(Mode::Pin { first, last }) => match pin(first, last) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("campaign-bench: {e}");
                ExitCode::FAILURE
            }
        },
        Ok(Mode::Run(args)) => match Run::new(&args).and_then(Run::execute) {
            Ok(correct) if correct => ExitCode::SUCCESS,
            Ok(_) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("campaign-bench: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("campaign-bench: {e}");
            eprintln!(
                "usage: campaign-bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
                 [--out DIR] | --pin FIRST LAST"
            );
            ExitCode::from(2)
        }
    }
}

/// Prints the reference-table lines of both grids for every seed in
/// `first..=last`, from in-process single-lane folds.
fn pin(first: u64, last: u64) -> Result<(), String> {
    for seed in first..=last {
        let calibration = calibrate(seed)?;
        for grid in [Grid::Paper, Grid::Short] {
            let pass = passes::in_process(&grid.spec(seed), &calibration, Some(1), None, None);
            println!(
                "{}",
                gate::render(
                    grid,
                    seed,
                    &observe(pass.fold.aggregate(), &pass.domain.outputs(), &calibration)
                )
            );
        }
        eprintln!("pinned seed {seed}");
    }
    Ok(())
}

/// Every gated field of one in-process campaign.
fn observe(
    aggregate: &CampaignAggregate,
    domain: &DomainOutputs,
    calibration: &Calibration,
) -> Observation {
    let mut fields = gate::observe_aggregate(aggregate);
    fields.extend(gate::observe_domain(domain, &calibration.validation));
    fields
}

/// One measuring run's state.
struct Run<'a> {
    args: &'a Args,
    grid: Grid,
    spec: SweepSpec,
    tracer: Option<Tracer>,
    problems: Vec<String>,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

impl<'a> Run<'a> {
    fn new(args: &'a Args) -> Result<Run<'a>, String> {
        std::fs::create_dir_all(&args.out)
            .map_err(|e| format!("creating {}: {e}", args.out.display()))?;
        let grid = args.workload.grid();
        Ok(Run {
            args,
            grid,
            spec: grid.spec(args.seed),
            tracer: args.trace.then(Tracer::new),
            problems: Vec::new(),
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
        })
    }

    fn problem(&mut self, what: impl Into<String>) {
        let what = what.into();
        eprintln!("campaign-bench: CHECK FAILED: {what}");
        self.problems.push(what);
    }

    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    /// Gates one campaign's fields against the reference and counts its
    /// cells.
    fn gate(
        &mut self,
        what: &str,
        reference: &Observation,
        aggregate: &CampaignAggregate,
        extra: Option<Observation>,
    ) {
        self.attempted += aggregate.cells;
        self.failed += aggregate.failed_cells;
        let mut observed = gate::observe_aggregate(aggregate);
        observed.extend(extra.unwrap_or_default());
        for problem in gate::compare(reference, &observed) {
            self.problem(format!("{what}: {problem}"));
        }
        if aggregate.cells != self.spec.cells() {
            self.problem(format!(
                "{what}: folded {} of {} cells",
                aggregate.cells,
                self.spec.cells()
            ));
        }
    }

    fn execute(mut self) -> Result<bool, String> {
        let args = self.args;
        let threads = std::thread::available_parallelism().map_or(1, usize::from);
        println!(
            "campaign-bench: workload={} seed={} trace={} cells={} available_parallelism={threads}",
            args.workload.name(),
            args.seed,
            u8::from(args.trace),
            self.spec.cells()
        );

        // The calibration behind the reference, the domain outputs and the
        // probes. Measured passes derive their own.
        let calibration = calibrate(args.seed)?;
        let validation = calibration.validation;
        println!(
            "calibration: held-out {:.1} s-ahead prediction error mean {:.3} % (max {:.2} %, \
             mean {:.4} degC, {} samples)",
            validation.horizon_s,
            validation.mean_percent_error,
            validation.max_percent_error,
            validation.mean_abs_error_c,
            validation.samples
        );
        println!(
            "note: the plant is a simulation; nothing here is validated against hardware, \
             since the repository holds no measured reference"
        );

        let reference = match gate::pinned(self.grid, args.seed) {
            Some(pinned) => {
                println!(
                    "reference: pinned ({} grid, seed {})",
                    self.grid.name(),
                    args.seed
                );
                pinned
            }
            None => {
                println!(
                    "reference: computed (seed not pinned): one-thread one-lane in-process fold"
                );
                let pass = passes::in_process(&self.spec, &calibration, Some(1), Some(1), None);
                observe(pass.fold.aggregate(), &pass.domain.outputs(), &calibration)
            }
        };

        if args.trace {
            self.traced(&calibration, &reference)?;
        } else {
            self.untraced(&calibration, &reference)?;
        }
        self.finish()
    }

    /// Prints Fig. 6.9's quantities for one campaign.
    fn print_domain(&mut self, domain: &DomainOutputs) {
        for kind in [ExperimentKind::Dtpm, ExperimentKind::Reactive] {
            if let Some((saving, loss)) = domain.versus_default(kind) {
                let line = format!(
                    "domain: {kind} vs default-with-fan: mean power saving {saving:.3} %, \
                     execution-time loss {loss:.3} %"
                );
                println!("{line}");
                self.notes.push(line);
            }
        }
    }

    /// The measured end-to-end run: tracing off.
    ///
    /// Each in-process pass is one whole request: calibrate, then run the
    /// campaign with that calibration. Spreading the set-up samples over the
    /// run exposes them to the same machine load as the campaign samples.
    fn untraced(
        &mut self,
        calibration: &Calibration,
        reference: &Observation,
    ) -> Result<(), String> {
        let args = self.args;
        let mut setup = Vec::new();
        let mut campaign = Vec::new();
        let mut first_fold: Option<String> = None;
        let mut domain_printed = false;
        let mut comparison: Option<MergeSink> = None;
        let mut intervals = 0;
        let ckpt_path = args.out.join(format!(
            "{}-{}.ckpt",
            args.workload.name(),
            std::process::id()
        ));
        if args.workload == Workload::ShortCells2Workers {
            // The in-process fold at the workers' lane width (the
            // coordinator's default of one) every distributed fold must
            // equal bit for bit, streamed through a checkpoint.
            let pass = passes::checkpointed(&self.spec, calibration, &ckpt_path, None)?;
            self.check_checkpoint_file(&ckpt_path, &pass.checkpoint, &pass.fold);
            let domain = pass.domain.outputs();
            let fields = gate::observe_domain(&domain, &calibration.validation);
            self.gate(
                "in-process comparison fold",
                reference,
                pass.fold.aggregate(),
                Some(fields),
            );
            self.print_domain(&domain);
            domain_printed = true;
            comparison = Some(pass.fold);
        }
        let start = Instant::now();
        while campaign.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
            let pass = campaign.len();
            let derived = match args.workload {
                Workload::ShortCells2Workers => None,
                _ => {
                    let start = Instant::now();
                    let derived = calibrate(args.seed)?;
                    setup.push(start.elapsed().as_secs_f64());
                    if derived.validation != calibration.validation {
                        self.problem(format!("pass {pass}: calibration is not deterministic"));
                    }
                    Some(derived)
                }
            };
            let calibration = derived.as_ref().unwrap_or(calibration);
            let (fold, domain) = match args.workload {
                Workload::PaperGrid => {
                    let run = passes::in_process(&self.spec, calibration, None, None, None);
                    campaign.push(run.campaign_s);
                    (run.fold, Some(run.domain))
                }
                Workload::ShortCells2Workers => {
                    let run = passes::distributed(&self.spec, args.seed, &worker_binary()?, None)?;
                    setup.push(run.setup_s());
                    campaign.push(run.campaign_s());
                    self.check_leases(&run.report);
                    let fold = run.report.into_fold();
                    if comparison.as_ref().map(MergeSink::encode) != Some(fold.encode()) {
                        self.problem(format!(
                            "pass {pass}: distributed fold differs from the in-process fold"
                        ));
                    }
                    (fold, None)
                }
            };
            let extra = domain.map(|d| {
                let outputs = d.outputs();
                if !domain_printed {
                    self.print_domain(&outputs);
                    domain_printed = true;
                }
                gate::observe_domain(&outputs, &calibration.validation)
            });
            self.gate(&format!("pass {pass}"), reference, fold.aggregate(), extra);
            self.sanity(fold.aggregate());
            intervals = fold.aggregate().total_intervals;
            let encoded = fold.encode();
            match &first_fold {
                Some(first) if *first != encoded => {
                    self.problem(format!("pass {pass}: fold differs from pass 0"))
                }
                Some(_) => {}
                None => first_fold = Some(encoded),
            }
        }
        let _ = std::fs::remove_file(&ckpt_path);

        let campaign_s = median(&campaign);
        print_samples("setup_s", &setup);
        print_samples("campaign_s", &campaign);
        let completed = (self.attempted - self.failed) as f64 / self.attempted as f64;
        self.metric("setup_s", median(&setup), "s");
        self.metric("campaign_s", campaign_s, "s");
        self.metric("sim_intervals_per_s", intervals as f64 / campaign_s, "1/s");
        self.metric("peak_rss_mb", peak_rss_mb()?, "MB");
        self.metric("completed_cell_ratio", completed, "ratio");
        self.write_samples(&setup, &campaign)?;
        Ok(())
    }

    /// Checks the snapshot on disk is the returned one and folds the same
    /// campaign as the wrapped merge sink.
    fn check_checkpoint_file(
        &mut self,
        path: &Path,
        checkpoint: &CampaignCheckpoint,
        fold: &MergeSink,
    ) {
        match CampaignCheckpoint::load(path) {
            Ok(loaded) if loaded == *checkpoint => {}
            Ok(_) => self.problem("the checkpoint on disk differs from the final checkpoint"),
            Err(e) => self.problem(format!("loading the final checkpoint: {e}")),
        }
        if !checkpoint.is_complete() || checkpoint.fold().encode() != fold.encode() {
            self.problem("the checkpoint fold differs from the merge sink fold");
        }
    }

    /// Workload sanity checks that must hold on every seed.
    fn sanity(&mut self, aggregate: &CampaignAggregate) {
        if self.grid == Grid::Short && aggregate.sensor_faults == 0 {
            self.problem("the faulted half of the short-cell grid logged no sensor fault");
        }
    }

    /// A healthy pool neither re-leases nor loses anything.
    fn check_leases(&mut self, report: &platform_sim::DistributedReport) {
        let stats = report.stats();
        if stats.releases != 0 || stats.duplicate_cells != 0 || stats.lost_workers != 0 {
            self.problem(format!(
                "unexpected lease recovery in a healthy pool: {stats:?}"
            ));
        }
    }

    /// The traced run: per-layer metrics from spans and probes.
    fn traced(&mut self, calibration: &Calibration, reference: &Observation) -> Result<(), String> {
        let args = self.args;
        let tracer = self.tracer.take().expect("traced runs carry a tracer");
        for _ in 0..SETUP_REPS {
            tracer.span("calibrate.run", || calibrate(args.seed))?;
        }
        let calibrations: Vec<f64> = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "calibrate.run")
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect();
        self.metric("calibrate.run_s", median(&calibrations), "s");

        // Untraced passes, then traced ones: the overhead baseline.
        let ckpt_path = args.out.join(format!(
            "{}-{}.ckpt",
            args.workload.name(),
            std::process::id()
        ));
        let worker = worker_binary()?;
        let mut plain = Vec::new();
        for _ in 0..TRACED_PASSES {
            plain.push(match args.workload {
                Workload::PaperGrid => {
                    passes::in_process(&self.spec, calibration, None, None, None).campaign_s
                }
                Workload::ShortCells2Workers => {
                    passes::distributed(&self.spec, args.seed, &worker, None)?.campaign_s()
                }
            });
        }

        let mut traced: Vec<TracedPass> = Vec::new();
        for pass in 0..TRACED_PASSES {
            let what = format!("traced pass {pass}");
            let (campaign_s, fold, domain, leases) = match args.workload {
                Workload::PaperGrid => {
                    let run = tracer.span("bench.pass", || {
                        passes::in_process(&self.spec, calibration, None, None, Some(&tracer))
                    });
                    (run.campaign_s, run.fold, Some(run.domain), None)
                }
                Workload::ShortCells2Workers => {
                    let run = tracer.span("bench.pass", || {
                        passes::distributed(&self.spec, args.seed, &worker, Some(&tracer))
                    })?;
                    self.check_leases(&run.report);
                    let campaign_s = run.campaign_s();
                    let stats = run.report.stats();
                    (campaign_s, run.report.into_fold(), None, Some(stats))
                }
            };
            let extra = domain.map(|d| gate::observe_domain(&d.outputs(), &calibration.validation));
            self.gate(&what, reference, fold.aggregate(), extra);
            self.sanity(fold.aggregate());
            let spans = tracer.spans();
            let root = last_span(&spans, "bench.pass");
            let index = SpanIndex::new(&spans);
            let mut layers = Vec::new();
            match leases {
                Some(stats) => {
                    distributed_layers(&index, root, stats, fold.aggregate().cells, &mut layers)
                }
                None => self.campaign_layers(&index, root, None, &mut layers),
            }
            traced.push(TracedPass {
                campaign_s,
                root,
                layers,
                fold,
            });
        }
        // The 2-worker run's in-process comparison fold, traced: its
        // campaign, sink and checkpoint layers.
        let mut comparison_checkpoint = None;
        if args.workload == Workload::ShortCells2Workers {
            let run = tracer.span("bench.pass", || {
                passes::checkpointed(&self.spec, calibration, &ckpt_path, Some(&tracer))
            })?;
            self.check_checkpoint_file(&ckpt_path, &run.checkpoint, &run.fold);
            let extra = gate::observe_domain(&run.domain.outputs(), &calibration.validation);
            self.gate(
                "traced comparison fold",
                reference,
                run.fold.aggregate(),
                Some(extra),
            );
            if traced
                .iter()
                .any(|pass| pass.fold.encode() != run.fold.encode())
            {
                self.problem("a traced distributed fold differs from the in-process fold");
            }
            let spans = tracer.spans();
            let index = SpanIndex::new(&spans);
            let mut layers = Vec::new();
            let writes = (run.write_deliveries, run.writes);
            let root = last_span(&spans, "bench.pass");
            self.campaign_layers(&index, root, Some(&writes), &mut layers);
            for pass in &mut traced {
                pass.layers.extend(layers.iter().cloned());
            }
            comparison_checkpoint = Some(run.checkpoint);
        }
        let _ = std::fs::remove_file(&ckpt_path);

        // The median traced pass supplies the span-derived layers.
        traced.sort_by(|a, b| a.campaign_s.total_cmp(&b.campaign_s));
        let chosen = traced.swap_remove(traced.len() / 2);
        let dropped: Vec<u64> = traced.iter().map(|pass| pass.root).collect();
        self.metrics.extend(chosen.layers);
        self.metric("trace.campaign_s", chosen.campaign_s, "s");
        self.metric(
            "trace.overhead_ratio",
            chosen.campaign_s / median(&plain),
            "ratio",
        );
        self.codec_layers(&chosen.fold, comparison_checkpoint.as_ref());
        self.materialise_layer();
        self.arm_layers(calibration, reference);

        let (mixed, shared) = probes::engine(args.seed, &mut self.metrics);
        let faults = probes::absorb(args.seed, &mixed, &shared, &mut self.metrics);
        if faults == 0 {
            self.problem("the absorb probe's fault plan logged no sensor fault");
        }
        probes::dtpm(calibration, &mixed, &mut self.metrics);

        // Layers this workload's path does not have read zero.
        for (name, unit) in PER_LAYER {
            if !self.metrics.iter().any(|m| m.name == name) {
                self.metric(name, 0.0, unit);
            }
        }

        let tag = RunTag {
            workload: args.workload.name(),
            seed: args.seed,
            run_id: run_id(),
        };
        let path = args.out.join(format!(
            "spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        // The span file keeps the median traced pass and everything outside
        // the passes.
        let spans = tracer.spans();
        let kept = SpanIndex::new(&spans).excluding(&dropped);
        trace::write_spans(&path, &tag, &kept)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("spans: {}", path.display());
        Ok(())
    }

    /// Campaign and sink layers of one traced in-process pass under `root`.
    fn campaign_layers(
        &mut self,
        index: &SpanIndex<'_>,
        root: u64,
        writes: Option<&(Vec<usize>, usize)>,
        out: &mut Vec<Metric>,
    ) {
        let Some(run_into) = index.under(root, "campaign.run_into").first().copied() else {
            self.problem("traced pass has no campaign.run_into span");
            return;
        };
        let delivers = index.under(run_into.id, "campaign.deliver");
        let accepts = index.under(root, "resilience.sink_accept");
        let merges = index.under(root, "resilience.merge_offer");
        let us = |ns: u64| ns as f64 * 1e-3;

        // Deliveries run under the sweep's sink lock: they never overlap,
        // so their durations and the executor's remainder add up to the
        // run_into span.
        if delivers.windows(2).any(|w| w[1].start_ns < w[0].end_ns) {
            self.problem("sink deliveries overlap: the sink lock did not serialise them");
        }
        let delivered_ns: u64 = delivers.iter().map(Span::duration_ns).sum();
        let remainder_ns = run_into.duration_ns().saturating_sub(delivered_ns);
        let self_ns: u64 = [&delivers, &accepts, &merges]
            .iter()
            .flat_map(|spans| spans.iter())
            .map(|s| index.self_ns(s))
            .sum();
        if self_ns + remainder_ns != run_into.duration_ns() {
            self.problem(format!(
                "span self times ({self_ns} ns) plus the executor remainder ({remainder_ns} ns) \
                 do not add up to run_into ({} ns)",
                run_into.duration_ns()
            ));
        }

        let starts: Vec<f64> = delivers.iter().map(|s| s.start_ns as f64).collect();
        let gaps: Vec<f64> = starts.windows(2).map(|w| (w[1] - w[0]) * 1e-3).collect();
        let tail_s = match starts.last() {
            Some(last) => (last - quantile(&starts, 0.95)) * 1e-9,
            None => 0.0,
        };
        let accept_us: Vec<f64> = accepts.iter().map(|s| us(s.duration_ns())).collect();
        let mut write_ms: Vec<f64> = Vec::new();
        let mut write_count = 0;
        if let Some((deliveries, total)) = writes {
            write_ms.extend(
                deliveries
                    .iter()
                    .filter_map(|&k| accepts.get(k))
                    .map(|s| s.duration_ns() as f64 * 1e-6),
            );
            write_ms.extend(
                index
                    .under(root, "resilience.checkpoint_finish")
                    .iter()
                    .map(|s| s.duration_ns() as f64 * 1e-6),
            );
            write_count = *total;
            let expected = self.spec.cells() / CHECKPOINT_EVERY + 1;
            if write_count != expected {
                self.problem(format!(
                    "{write_count} checkpoint writes, expected {expected} for {} cells every {CHECKPOINT_EVERY}",
                    self.spec.cells()
                ));
            }
        }
        out.push(Metric::new(
            "campaign.run_into_s",
            run_into.duration_ns() as f64 * 1e-9,
            "s",
        ));
        out.push(Metric::new(
            "campaign.delivery_gap_us.p50",
            quantile(&gaps, 0.5),
            "us",
        ));
        out.push(Metric::new(
            "campaign.delivery_gap_us.p99",
            quantile(&gaps, 0.99),
            "us",
        ));
        out.push(Metric::new("campaign.tail_s", tail_s, "s"));
        out.push(Metric::new(
            "campaign.executor_remainder_s",
            remainder_ns as f64 * 1e-9,
            "s",
        ));
        out.push(Metric::new(
            "bench.domain_fold_us.total",
            delivers.iter().map(|s| us(index.self_ns(s))).sum(),
            "us",
        ));
        out.push(Metric::new(
            "resilience.sink_accept_us.total",
            accept_us.iter().sum(),
            "us",
        ));
        out.push(Metric::new(
            "resilience.sink_accept_us.p50",
            quantile(&accept_us, 0.5),
            "us",
        ));
        out.push(Metric::new(
            "resilience.sink_accept_us.p99",
            quantile(&accept_us, 0.99),
            "us",
        ));
        out.push(Metric::new(
            "resilience.merge_offer_us.total",
            merges.iter().map(|s| us(s.duration_ns())).sum(),
            "us",
        ));
        out.push(Metric::new(
            "resilience.checkpoint_us.total",
            accepts.iter().map(|s| us(index.self_ns(s))).sum(),
            "us",
        ));
        out.push(Metric::new(
            "resilience.checkpoint_writes",
            write_count as f64,
            "count",
        ));
        out.push(Metric::new(
            "resilience.checkpoint_write_ms.p50",
            quantile(&write_ms, 0.5),
            "ms",
        ));
        out.push(Metric::new(
            "resilience.checkpoint_write_ms.p99",
            quantile(&write_ms, 0.99),
            "ms",
        ));
    }

    /// The final fold (and checkpoint) through the binary codec.
    fn codec_layers(&mut self, fold: &MergeSink, checkpoint: Option<&CampaignCheckpoint>) {
        let bytes = encode_sink(fold);
        let encode_us = time_us(|| drop(black_box(encode_sink(black_box(fold)))));
        let decode_us = time_us(|| drop(black_box(decode_sink(black_box(&bytes)))));
        if decode_sink(&bytes).as_ref() != Ok(fold) {
            self.problem("the binary sink codec does not round-trip the final fold");
        }
        self.metric("codec.sink_bytes", bytes.len() as f64, "bytes");
        self.metric("codec.sink_encode_us", encode_us, "us");
        self.metric("codec.sink_decode_us", decode_us, "us");
        if let Some(checkpoint) = checkpoint {
            let bytes = encode_checkpoint(checkpoint);
            let encode_us = time_us(|| drop(black_box(encode_checkpoint(black_box(checkpoint)))));
            if decode_checkpoint(&bytes).as_ref() != Ok(checkpoint) {
                self.problem(
                    "the binary checkpoint codec does not round-trip the final checkpoint",
                );
            }
            self.metric("codec.checkpoint_bytes", bytes.len() as f64, "bytes");
            self.metric("codec.checkpoint_encode_us", encode_us, "us");
            self.metric(
                "resilience.checkpoint_bytes",
                checkpoint.encode().len() as f64,
                "bytes",
            );
        }
    }

    /// `SweepSpec::cell` over every index of the grid.
    fn materialise_layer(&mut self) {
        let spec = &self.spec;
        let samples: Vec<f64> = (0..5)
            .map(|_| {
                let start = Instant::now();
                for index in 0..spec.cells() {
                    black_box(spec.cell(black_box(index)));
                }
                start.elapsed().as_nanos() as f64 * 1e-3
            })
            .collect();
        self.metric("campaign.cell_materialise_us", median(&samples), "us");
    }

    /// The runner-knob table: the grid at each lane width and precision.
    fn arm_layers(&mut self, calibration: &Calibration, reference: &Observation) {
        for lanes in [1, 8, 16] {
            for (label, precision) in [("f64", EnginePrecision::F64), ("f32", EnginePrecision::F32)]
            {
                let spec = self.spec.clone().with_precision(precision);
                let mut samples = Vec::with_capacity(ARM_PASSES);
                for pass in 0..ARM_PASSES {
                    let run = passes::in_process(&spec, calibration, Some(lanes), None, None);
                    samples.push(run.campaign_s);
                    let what = format!("arm lanes={lanes} {label} pass {pass}");
                    if precision == EnginePrecision::F64 {
                        // Lane widths agree within the gate's tolerance.
                        self.gate(&what, reference, run.fold.aggregate(), None);
                    } else {
                        // The f32 engine has its own trajectory budget: only
                        // completeness is gated.
                        self.attempted += run.fold.aggregate().cells;
                        self.failed += run.fold.aggregate().failed_cells;
                        if run.fold.aggregate().cells != spec.cells()
                            || run.fold.aggregate().failed_cells != 0
                        {
                            self.problem(format!("{what}: incomplete or failed cells"));
                        }
                    }
                }
                self.metric(
                    &format!("arm.lanes-{lanes}.{label}.campaign_s"),
                    median(&samples),
                    "s",
                );
            }
        }
    }

    /// Writes the samples behind the end-to-end medians.
    fn write_samples(&self, setup: &[f64], campaign: &[f64]) -> Result<(), String> {
        let list = |xs: &[f64]| {
            xs.iter()
                .map(|x| format!("{x}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let path = self.args.out.join(format!(
            "samples-{}-seed{}.json",
            self.args.workload.name(),
            self.args.seed
        ));
        let notes = self
            .notes
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect::<Vec<_>>()
            .join(", ");
        let body = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"run\": \"{}\", \"setup_s\": [{}], \
             \"campaign_s\": [{}], \"domain\": [{notes}]}}\n",
            self.args.workload.name(),
            self.args.seed,
            run_id(),
            list(setup),
            list(campaign)
        );
        std::fs::write(&path, body).map_err(|e| format!("writing {}: {e}", path.display()))
    }

    /// Checks the metric set and prints the result line.
    fn finish(mut self) -> Result<bool, String> {
        let expected: &[(&str, &str)] = if self.args.trace {
            &PER_LAYER
        } else {
            &END_TO_END
        };
        let mut fields = Vec::with_capacity(expected.len());
        for &(name, unit) in expected {
            let Some(metric) = self.metrics.iter().find(|m| m.name == name) else {
                self.problem(format!("metric {name} was not measured"));
                continue;
            };
            let value = metric.value;
            if metric.unit != unit {
                self.problem(format!(
                    "metric {name} measured in {}, declared in {unit}",
                    metric.unit
                ));
            }
            if !value.is_finite() {
                self.problem(format!("metric {name} is not finite"));
                continue;
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        let correct = self.problems.is_empty();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        );
        Ok(correct)
    }
}

/// One traced campaign pass and what its spans gave.
#[derive(Debug)]
struct TracedPass {
    campaign_s: f64,
    /// The pass's `bench.pass` span.
    root: u64,
    layers: Vec<Metric>,
    fold: MergeSink,
}

/// The span tracked as the most recently closed `name`.
fn last_span(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .rev()
        .find(|s| s.name == name)
        .map_or(0, |s| s.id)
}

/// Coordinator-side layers of one traced distributed pass under `root`.
fn distributed_layers(
    index: &SpanIndex<'_>,
    root: u64,
    stats: LeaseStats,
    cells: usize,
    out: &mut Vec<Metric>,
) {
    let seconds = |name: &str| {
        index
            .under(root, name)
            .iter()
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .sum::<f64>()
    };
    out.push(Metric::new(
        "distributed.spawn_s",
        seconds("distributed.spawn"),
        "s",
    ));
    out.push(Metric::new(
        "distributed.connect_s",
        seconds("distributed.connect"),
        "s",
    ));
    out.push(Metric::new(
        "distributed.run_s",
        seconds("distributed.run"),
        "s",
    ));
    out.push(Metric::new(
        "distributed.leases",
        stats.leases as f64,
        "count",
    ));
    out.push(Metric::new(
        "distributed.releases",
        stats.releases as f64,
        "count",
    ));
    out.push(Metric::new(
        "distributed.duplicate_cells",
        stats.duplicate_cells as f64,
        "count",
    ));
    out.push(Metric::new(
        "distributed.lost_workers",
        stats.lost_workers as f64,
        "count",
    ));
    out.push(Metric::new(
        "distributed.cells_per_lease",
        cells as f64 / stats.leases.max(1) as f64,
        "ratio",
    ));
}

/// Median wall time of `f` in microseconds.
fn time_us(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..CODEC_REPS)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64 * 1e-3
        })
        .collect();
    median(&samples)
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// The worker binary built beside this one.
fn worker_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let worker = exe.with_file_name("dtpm-worker");
    if worker.exists() {
        Ok(worker)
    } else {
        Err(format!("worker binary {} is missing", worker.display()))
    }
}

/// Characterises the platform for `seed`.
fn calibrate(seed: u64) -> Result<Calibration, String> {
    calibration_recipe()
        .run(seed)
        .map_err(|e| format!("calibration of seed {seed} failed: {e}"))
}

/// Identifies this process's run in span and sample files.
fn run_id() -> String {
    let since_epoch = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    format!("{}-{since_epoch}", std::process::id())
}

/// Prints a metric's samples: median, quartiles and count.
fn print_samples(name: &str, samples: &[f64]) {
    println!(
        "{name}: median {:.6} q1 {:.6} q3 {:.6} n={}",
        median(samples),
        quantile(samples, 0.25),
        quantile(samples, 0.75),
        samples.len()
    );
}
