//! In-memory spans around calls into the library's public functions, and
//! the small statistics the benchmark reports.
//!
//! A span records name, start, end and the span that caused it. Spans opened
//! on a sweep worker thread have no open span of their own thread to hang
//! under; they take the innermost open [`Tracer::scope`] instead (the
//! `run_into` call that spawned the thread).

use std::cell::Cell;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use platform_sim::{ResultSink, RunReport, SimError};

/// One closed span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// The causing span (0: none).
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// The innermost span open on this thread (0: none).
    static OPEN: Cell<u64> = const { Cell::new(0) };
}

/// Collects spans from every thread of the process.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    /// The innermost open scope span, parent of spans on threads that have
    /// none open.
    scope: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            scope: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.record(name, false, f)
    }

    /// Runs `f` inside a span that also parents the spans of threads `f`
    /// spawns.
    pub fn scope<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.record(name, true, f)
    }

    fn record<R>(&self, name: &'static str, scope: bool, f: impl FnOnce() -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = match OPEN.with(Cell::get) {
            0 => self.scope.load(Ordering::SeqCst),
            open => open,
        };
        let outer = OPEN.with(|open| open.replace(id));
        let outer_scope = scope.then(|| self.scope.swap(id, Ordering::SeqCst));
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        if let Some(outer_scope) = outer_scope {
            self.scope.store(outer_scope, Ordering::SeqCst);
        }
        OPEN.with(|open| open.set(outer));
        self.spans
            .lock()
            .expect("a span recorder panicked")
            .push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns,
            });
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Every span closed so far, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a span recorder panicked").clone()
    }
}

/// `f` inside a span when tracing, plain `f` otherwise.
pub fn maybe_span<R>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(tracer) => tracer.span(name, f),
        None => f(),
    }
}

/// `f` inside a [`Tracer::scope`] when tracing, plain `f` otherwise.
pub fn maybe_scope<R>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(tracer) => tracer.scope(name, f),
        None => f(),
    }
}

/// A [`ResultSink`] wrapper that records one span per delivery.
#[derive(Debug)]
pub struct Spanned<'t, S> {
    name: &'static str,
    tracer: Option<&'t Tracer>,
    inner: S,
}

impl<'t, S> Spanned<'t, S> {
    pub fn new(name: &'static str, tracer: Option<&'t Tracer>, inner: S) -> Self {
        Spanned {
            name,
            tracer,
            inner,
        }
    }

    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: ResultSink> ResultSink for Spanned<'_, S> {
    fn accept(&mut self, index: usize, outcome: Result<RunReport, SimError>) {
        let inner = &mut self.inner;
        maybe_span(self.tracer, self.name, || inner.accept(index, outcome));
    }
}

/// Per-name totals derived from a set of spans.
#[derive(Debug)]
pub struct SpanIndex<'a> {
    spans: &'a [Span],
    parents: HashMap<u64, u64>,
    child_ns: HashMap<u64, u64>,
}

impl<'a> SpanIndex<'a> {
    pub fn new(spans: &'a [Span]) -> Self {
        let mut child_ns = HashMap::new();
        for span in spans {
            *child_ns.entry(span.parent).or_insert(0) += span.duration_ns();
        }
        SpanIndex {
            spans,
            parents: spans.iter().map(|s| (s.id, s.parent)).collect(),
            child_ns,
        }
    }

    /// A span's duration minus the time its direct children cover.
    pub fn self_ns(&self, span: &Span) -> u64 {
        span.duration_ns()
            .saturating_sub(self.child_ns.get(&span.id).copied().unwrap_or(0))
    }

    /// Whether span `id` descends from any of `roots`.
    fn descends(&self, mut id: u64, roots: &[u64]) -> bool {
        loop {
            match self.parents.get(&id) {
                Some(parent) if roots.contains(parent) => return true,
                Some(&parent) if parent != 0 => id = parent,
                _ => return false,
            }
        }
    }

    /// Spans named `name` that descend from span `root`, in start order.
    pub fn under(&self, root: u64, name: &str) -> Vec<Span> {
        let mut found: Vec<Span> = self
            .spans
            .iter()
            .filter(|s| s.name == name && self.descends(s.id, &[root]))
            .copied()
            .collect();
        found.sort_by_key(|s| s.start_ns);
        found
    }

    /// Every span except `roots` and their descendants.
    pub fn excluding(&self, roots: &[u64]) -> Vec<Span> {
        self.spans
            .iter()
            .filter(|s| !roots.contains(&s.id) && !self.descends(s.id, roots))
            .copied()
            .collect()
    }
}

/// The identity every span record carries in the span file.
#[derive(Debug, Clone)]
pub struct RunTag {
    pub workload: &'static str,
    pub seed: u64,
    pub run_id: String,
}

/// Writes spans as JSON lines.
pub fn write_spans(path: &Path, tag: &RunTag, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for span in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\
             \"workload\":\"{}\",\"seed\":{},\"run\":\"{}\"}}",
            span.name,
            span.id,
            span.parent,
            span.start_ns,
            span.end_ns,
            tag.workload,
            tag.seed,
            tag.run_id
        )?;
    }
    out.flush()
}

/// The `q`-quantile (nearest rank) of `values`; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}
