//! The benchmark's own result sink: per-kind power and execution-time
//! statistics, the quantities of the paper's Fig. 6.9, folded beside the
//! library's aggregate so every speed number comes with the domain answer
//! it produced.

use platform_sim::{ExperimentKind, ResultSink, RunReport, SimError};

use crate::workloads::KINDS;

/// One completed cell's contribution.
#[derive(Debug, Clone, Copy)]
struct CellDomain {
    kind: ExperimentKind,
    mean_power_w: f64,
    execution_time_s: f64,
}

/// Forwards every delivery to `inner` after recording the cell's kind, mean
/// platform power and execution time by cell index, so the fold order (and
/// therefore every bit of the outputs) is independent of scheduling.
#[derive(Debug)]
pub struct DomainFold<S> {
    cells: Vec<Option<CellDomain>>,
    inner: S,
}

impl<S> DomainFold<S> {
    pub fn new(cells: usize, inner: S) -> Self {
        DomainFold {
            cells: vec![None; cells],
            inner,
        }
    }

    /// The recorded cells and the wrapped sink.
    pub fn into_parts(self) -> (DomainCells, S) {
        (DomainCells(self.cells), self.inner)
    }
}

/// The per-cell records of one campaign, by cell index.
#[derive(Debug)]
pub struct DomainCells(Vec<Option<CellDomain>>);

impl DomainCells {
    /// Per-kind means, summed in cell-index order.
    pub fn outputs(&self) -> DomainOutputs {
        let mut kinds = Vec::new();
        for kind in KINDS {
            let (mut count, mut power, mut time) = (0usize, 0.0, 0.0);
            for cell in self.0.iter().flatten().filter(|c| c.kind == kind) {
                count += 1;
                power += cell.mean_power_w;
                time += cell.execution_time_s;
            }
            if count > 0 {
                kinds.push(KindStats {
                    kind,
                    cells: count,
                    mean_power_w: power / count as f64,
                    mean_execution_time_s: time / count as f64,
                });
            }
        }
        DomainOutputs { kinds }
    }
}

impl<S: ResultSink> ResultSink for DomainFold<S> {
    fn accept(&mut self, index: usize, outcome: Result<RunReport, SimError>) {
        if let Ok(report) = &outcome {
            self.cells[index] = Some(CellDomain {
                kind: report.summary.config.kind,
                mean_power_w: report.summary.mean_platform_power_w,
                execution_time_s: report.summary.execution_time_s,
            });
        }
        self.inner.accept(index, outcome);
    }
}

/// Per-kind means over the completed cells of one campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct KindStats {
    pub kind: ExperimentKind,
    pub cells: usize,
    pub mean_power_w: f64,
    pub mean_execution_time_s: f64,
}

/// The per-kind statistics of one campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct DomainOutputs {
    pub kinds: Vec<KindStats>,
}

impl DomainOutputs {
    fn stats(&self, kind: ExperimentKind) -> Option<&KindStats> {
        self.kinds.iter().find(|k| k.kind == kind)
    }

    /// `kind`'s mean-power saving and execution-time loss against the
    /// default-with-fan baseline, in percent.
    pub fn versus_default(&self, kind: ExperimentKind) -> Option<(f64, f64)> {
        let base = self.stats(ExperimentKind::DefaultWithFan)?;
        let other = self.stats(kind)?;
        let saving = 100.0 * (base.mean_power_w - other.mean_power_w) / base.mean_power_w;
        let loss = 100.0 * (other.mean_execution_time_s - base.mean_execution_time_s)
            / base.mean_execution_time_s;
        Some((saving, loss))
    }
}
