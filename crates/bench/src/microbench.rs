//! The one recorder behind every claim microbench in `crates/bench/benches`.
//!
//! A microbench exists for a claim the campaign benchmark cannot show, and
//! states it as a number with a bound: the ratio of two arms' wall clocks
//! (a speed-up over a floor, an overhead under a ceiling) or a
//! deterministic value such as retained bytes. [`Microbench::paired`] times
//! the two arms in alternating order — first then second, then second then
//! first — for a fixed number of pairs and takes the claim from the median
//! of the per-pair ratios: interference on a shared host lands on both arms
//! of a pair, so the ratio spreads far less than either arm.
//!
//! A full run (`cargo bench --bench NAME`) records `BENCH_<name>.json` at
//! the workspace root: the bench's config; each arm's best, median and
//! interquartile range; the median and IQR of the per-pair ratio with the
//! pair count; each bound with its verdict; and the previous record's
//! number. The run fails when a bounded median misses its bound or worsens
//! by more than [`REGRESSION_TOLERANCE`] of the previous record's; a failing
//! run leaves the previous record in place, unless there is none yet in
//! this format. A `--test` run (the CI smoke) times one pair and runs every
//! cross-check the bench makes, but writes nothing and asserts no bound.

use std::fmt;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Fewest pairs a full run may time per ratio.
pub const MIN_PAIRS: usize = 10;

/// How far a bounded median may move the wrong way before a full run
/// fails, as a fraction of the previous record's median.
pub const REGRESSION_TOLERANCE: f64 = 0.25;

/// The bound a recorded number must meet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// At least this much: a speed-up or a retention ratio.
    Floor(f64),
    /// At most this much: an overhead ratio.
    Ceiling(f64),
}

impl Bound {
    /// The record key and the limit.
    fn parts(self) -> (&'static str, f64) {
        match self {
            Bound::Floor(limit) => ("floor", limit),
            Bound::Ceiling(limit) => ("ceiling", limit),
        }
    }

    /// Whether `x` is no worse than `y` in the bound's direction (NaN never
    /// is).
    fn no_worse(self, x: f64, y: f64) -> bool {
        match self {
            Bound::Floor(_) => x >= y,
            Bound::Ceiling(_) => x <= y,
        }
    }

    /// `met` when the worse quartile meets the bound, `not met` when the
    /// better one misses it, `unresolved` when the IQR straddles it.
    fn verdict(self, q1: f64, q3: f64) -> &'static str {
        let limit = self.parts().1;
        let (worse, better) = match self {
            Bound::Floor(_) => (q1, q3),
            Bound::Ceiling(_) => (q3, q1),
        };
        if self.no_worse(worse, limit) {
            "met"
        } else if self.no_worse(better, limit) {
            "unresolved"
        } else {
            "not met"
        }
    }

    /// Whether `x` is worse than `previous` by more than
    /// [`REGRESSION_TOLERANCE`] of it.
    fn regressed(self, x: f64, previous: f64) -> bool {
        let slack = match self {
            Bound::Floor(_) => 1.0 - REGRESSION_TOLERANCE,
            Bound::Ceiling(_) => 1.0 + REGRESSION_TOLERANCE,
        };
        !self.no_worse(x, previous * slack)
    }
}

/// Accumulates the wall clock of an arm's timed region. What an arm does
/// outside [`Timer::time`] (set-up, hand-shakes, keeping results for the
/// cross-checks) is not counted.
#[derive(Debug, Default)]
pub struct Timer(Duration);

impl Timer {
    /// Runs `region` and adds its wall clock to the sample.
    pub fn time<R>(&mut self, region: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = region();
        self.0 += start.elapsed();
        out
    }
}

/// The recorder of one microbench run (see the module docs).
#[derive(Debug)]
pub struct Microbench {
    name: &'static str,
    pairs: usize,
    test_mode: bool,
    /// The record this run replaces; `None` in `--test` mode or when there
    /// is none.
    previous: Option<Json>,
    config: Vec<(String, Json)>,
    results: Vec<(String, Json)>,
    failures: Vec<String>,
}

impl Microbench {
    /// A recorder for bench `name` timing `pairs` pairs per ratio, or one
    /// pair when the command line carries `--test`.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` is below [`MIN_PAIRS`].
    pub fn from_args(name: &'static str, pairs: usize) -> Self {
        assert!(pairs >= MIN_PAIRS, "{name}: fewer than {MIN_PAIRS} pairs");
        let test_mode = std::env::args().any(|a| a == "--test");
        let previous = std::fs::read_to_string(record_path(name))
            .ok()
            .and_then(|text| Json::parse(&text).ok())
            .filter(|_| !test_mode);
        Microbench {
            name,
            pairs: if test_mode { 1 } else { pairs },
            test_mode,
            previous,
            config: Vec::new(),
            results: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// Whether this is the one-pair `--test` smoke run.
    pub fn test_mode(&self) -> bool {
        self.test_mode
    }

    /// Records one config entry of the bench: a size, a duration, a name.
    pub fn config(&mut self, key: &str, value: impl Into<Json>) {
        self.config.push((key.to_owned(), value.into()));
    }

    /// Times `first` and `second` in alternating order and records the
    /// per-pair ratio `first / second` as result `name`, with each arm's
    /// statistics under its name in `arms`. Write a speed-up as
    /// slow-over-fast and an overhead as costly-over-plain.
    pub fn paired(
        &mut self,
        name: &str,
        bound: Option<Bound>,
        arms: [&str; 2],
        mut first: impl FnMut(&mut Timer),
        mut second: impl FnMut(&mut Timer),
    ) {
        let mut samples_ms = [Vec::new(), Vec::new()];
        for pair in 0..self.pairs {
            let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
            for arm in order {
                let mut timer = Timer::default();
                if arm == 0 {
                    first(&mut timer);
                } else {
                    second(&mut timer);
                }
                samples_ms[arm].push(timer.0.as_secs_f64() * 1e3);
            }
        }
        let ratios: Vec<f64> = samples_ms[0]
            .iter()
            .zip(&samples_ms[1])
            .map(|(a, b)| a / b)
            .collect();
        let [_, q1, median, q3] = quartiles(&ratios);
        println!(
            "{:<56} {median:>10.4}x  IQR {q1:.4}–{q3:.4}  ({} pairs)",
            format!("{}/{name}", self.name),
            self.pairs
        );
        let mut arm_stats = Vec::new();
        for (arm, samples) in arms.iter().zip(&samples_ms) {
            let [best, q1, median, q3] = quartiles(samples);
            println!(
                "  {arm:<24} best {best:>9.3} ms  median {median:>9.3} ms  IQR {q1:.3}–{q3:.3} ms"
            );
            let stats = Json::object([
                ("best_ms", best.into()),
                ("median_ms", median.into()),
                ("iqr_ms", Json::Array(vec![q1.into(), q3.into()])),
            ]);
            arm_stats.push(((*arm).to_owned(), stats));
        }
        let fields = vec![
            ("arms".to_owned(), Json::Object(arm_stats)),
            ("pairs".to_owned(), self.pairs.into()),
            ("median".to_owned(), median.into()),
            ("iqr".to_owned(), Json::Array(vec![q1.into(), q3.into()])),
        ];
        self.judge(name, fields, median, (q1, q3), bound);
    }

    /// Records the deterministic number `value` as result `name`.
    pub fn value(&mut self, name: &str, value: f64, bound: Option<Bound>) {
        let text = Json::from(value).to_string();
        println!("{:<56} {text:>10}", format!("{}/{name}", self.name));
        let fields = vec![("value".to_owned(), value.into())];
        self.judge(name, fields, value, (value, value), bound);
    }

    /// Records result `name` with its bound, verdict and previous number
    /// (a `--test` run judges nothing), noting a failure when `median`
    /// misses the bound or regressed against the previous record.
    fn judge(
        &mut self,
        name: &str,
        mut fields: Vec<(String, Json)>,
        median: f64,
        (q1, q3): (f64, f64),
        bound: Option<Bound>,
    ) {
        if !self.test_mode {
            let previous = self
                .previous
                .as_ref()
                .and_then(|r| previous_number(r, name));
            if let Some(bound) = bound {
                let (key, limit) = bound.parts();
                let verdict = bound.verdict(q1, q3);
                println!("  {key} {limit}: {verdict}; previous record {previous:?}");
                if !bound.no_worse(median, limit) {
                    self.failures
                        .push(format!("{name}: median {median} misses the {key} {limit}"));
                }
                if let Some(previous) = previous.filter(|&p| bound.regressed(median, p)) {
                    self.failures.push(format!(
                        "{name}: median {median} is more than {} % worse than the \
                         previous record's {previous}",
                        REGRESSION_TOLERANCE * 100.0
                    ));
                }
                fields.push((key.to_owned(), limit.into()));
                fields.push(("verdict".to_owned(), verdict.into()));
            }
            fields.push((
                "previous".to_owned(),
                previous.map_or(Json::Null, Json::from),
            ));
        }
        self.results.push((name.to_owned(), Json::Object(fields)));
    }

    /// Ends the run. A full run writes `BENCH_<name>.json` when every check
    /// passed, or when no record exists yet: a bench's first record is
    /// written whatever its verdicts, so a claim that is not met is on
    /// record. Any other failing run leaves the old record in place.
    ///
    /// # Panics
    ///
    /// Panics when a full run fails a check or cannot write its record.
    pub fn finish(self) {
        if self.test_mode {
            println!(
                "{}: --test run: no record written, no bound asserted",
                self.name
            );
            return;
        }
        let first = self.previous.is_none();
        let record = Json::object([
            ("bench", self.name.into()),
            ("config", Json::Object(self.config)),
            ("results", Json::Object(self.results)),
        ]);
        let path = record_path(self.name);
        if self.failures.is_empty() || first {
            std::fs::write(&path, format!("{record}\n"))
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
            println!("{}: recorded {}", self.name, path.display());
        } else {
            println!("{record}");
        }
        assert!(
            self.failures.is_empty(),
            "{}: full run failed; {}:\n  {}",
            self.name,
            if first {
                "recorded as the bench's first record"
            } else {
                "the old record is left in place"
            },
            self.failures.join("\n  ")
        );
    }
}

/// Where bench `name` keeps its record: `BENCH_<name>.json` at the
/// workspace root.
fn record_path(name: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(format!("BENCH_{name}.json"))
}

/// The headline number of result `name` in a previous record.
fn previous_number(record: &Json, name: &str) -> Option<f64> {
    let result = record.get("results")?.get(name)?;
    result.get("median").or(result.get("value"))?.as_f64()
}

/// Best, first quartile, median and third quartile of `samples`, the
/// quartiles interpolated linearly between ranks.
///
/// # Panics
///
/// Panics on an empty sample set.
fn quartiles(samples: &[f64]) -> [f64; 4] {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |p: f64| {
        let h = (sorted.len() - 1) as f64 * p;
        let (lo, hi) = (h.floor() as usize, h.ceil() as usize);
        sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
    };
    [sorted[0], at(0.25), at(0.5), at(0.75)]
}

/// A JSON value: the record format, written by [`Microbench`] and read back
/// for the previous record and by the docs check. Strings carry no escapes
/// other than `\"` and `\\`.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`: a missing number.
    Null,
    /// A number; a non-finite one is written as `null`.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in insertion order.
    Object(Vec<(String, Json)>),
}

impl Json {
    fn object<const N: usize>(entries: [(&str, Json); N]) -> Json {
        Json::Object(entries.map(|(k, v)| (k.to_owned(), v)).into())
    }

    /// Parses one JSON document without `true` or `false` (records hold
    /// none).
    ///
    /// # Errors
    ///
    /// Returns the byte offset of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut parser = Parser { text, at: 0 };
        match parser.value() {
            Some(value) if parser.rest().is_empty() => Ok(value),
            _ => Err(format!("JSON syntax error at byte {}", parser.at)),
        }
    }

    /// The value under `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.entries()
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// An object's entries; empty for any other value.
    pub fn entries(&self) -> &[(String, Json)] {
        match self {
            Json::Object(entries) => entries,
            _ => &[],
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(x) => Some(*x),
            _ => None,
        }
    }

    fn write(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        match self {
            Json::Number(x) if x.is_finite() && x.fract() == 0.0 && x.abs() < 1e15 => {
                write!(f, "{}", *x as i64)
            }
            // Five significant digits: plenty for a ratio or a time.
            Json::Number(x) if x.is_finite() => {
                let rounded: f64 = format!("{x:.4e}").parse().expect("a formatted float");
                write!(f, "{rounded}")
            }
            Json::Null | Json::Number(_) => f.write_str("null"),
            Json::String(s) => write!(f, "\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")),
            Json::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    f.write_str(if i == 0 { "" } else { ", " })?;
                    item.write(f, indent)?;
                }
                f.write_str("]")
            }
            Json::Object(entries) => {
                f.write_str("{")?;
                for (i, (key, value)) in entries.iter().enumerate() {
                    f.write_str(if i == 0 { "\n" } else { ",\n" })?;
                    write!(f, "{:1$}{2}: ", "", indent + 2, Json::from(key.as_str()))?;
                    value.write(f, indent + 2)?;
                }
                if entries.is_empty() {
                    f.write_str("}")
                } else {
                    write!(f, "\n{:indent$}}}", "")
                }
            }
        }
    }
}

/// Pretty-printed, two spaces per level; arrays stay on one line.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Number(x)
    }
}

impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Number(x as f64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::String(s.to_owned())
    }
}

/// A recursive-descent reader of the text after byte `at`.
struct Parser<'a> {
    text: &'a str,
    at: usize,
}

impl Parser<'_> {
    /// The unread text, after skipping any whitespace.
    fn rest(&mut self) -> &str {
        let rest = &self.text[self.at..];
        self.at += rest.len() - rest.trim_start().len();
        &self.text[self.at..]
    }

    /// Consumes `token` if the unread text starts with it.
    fn eat(&mut self, token: &str) -> bool {
        let found = self.rest().starts_with(token);
        if found {
            self.at += token.len();
        }
        found
    }

    /// The comma-separated items up to `close`, each read by `item`.
    fn items<T>(&mut self, close: &str, item: impl Fn(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        let mut items = Vec::new();
        if self.eat(close) {
            return Some(items);
        }
        loop {
            items.push(item(self)?);
            if self.eat(close) {
                return Some(items);
            }
            if !self.eat(",") {
                return None;
            }
        }
    }

    fn value(&mut self) -> Option<Json> {
        if self.eat("{") {
            let entry = |p: &mut Self| {
                let key = p.string()?;
                p.eat(":").then_some(())?;
                Some((key, p.value()?))
            };
            self.items("}", entry).map(Json::Object)
        } else if self.eat("[") {
            self.items("]", Self::value).map(Json::Array)
        } else if self.eat("null") {
            Some(Json::Null)
        } else if self.rest().starts_with('"') {
            self.string().map(Json::String)
        } else {
            let rest = self.rest();
            let len = rest
                .find(|c: char| !"+-.eE0123456789".contains(c))
                .unwrap_or(rest.len());
            let number = rest[..len].parse().ok()?;
            self.at += len;
            Some(Json::Number(number))
        }
    }

    fn string(&mut self) -> Option<String> {
        if !self.eat("\"") {
            return None;
        }
        let mut out = String::new();
        let mut chars = self.text[self.at..].char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => {
                    self.at += i + 1;
                    return Some(out);
                }
                '\\' => out.push(chars.next().filter(|(_, e)| matches!(e, '"' | '\\'))?.1),
                c => out.push(c),
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip_through_the_parser() {
        let record = Json::object([
            ("bench", "a \"quoted\" \\ name".into()),
            ("config", Json::object([("lanes", 8usize.into())])),
            ("empty", Json::Object(Vec::new())),
            ("iqr", Json::Array(vec![1.5.into(), (-2.25e-7).into()])),
            ("previous", Json::Null),
        ]);
        assert_eq!(Json::parse(&record.to_string()), Ok(record));
        for bad in ["{\"a\": 1} x", "{\"a\": }", "[1, 2", "\"open", "{\"a\" 1}"] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
        let text = |x: f64| Json::Number(x).to_string();
        assert_eq!(text(1_115_200.0), "1115200");
        assert_eq!(text(1.83333333), "1.8333");
        assert_eq!(text(3.55e-6), "0.00000355");
        assert_eq!(text(1.0 + 2.0 / 100.0), "1.02");
        assert_eq!(text(f64::NAN), "null");
    }

    #[test]
    fn quartiles_interpolate_and_verdicts_read_both_sides_of_the_bound() {
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), [1.0, 2.0, 3.0, 4.0]);
        assert_eq!(quartiles(&[2.0, 1.0]), [1.0, 1.25, 1.5, 1.75]);
        assert_eq!(quartiles(&[7.0]), [7.0; 4]);
        let floor = Bound::Floor(1.5);
        assert_eq!(floor.verdict(1.6, 1.9), "met");
        assert_eq!(floor.verdict(1.4, 1.7), "unresolved");
        assert_eq!(floor.verdict(1.1, 1.4), "not met");
        let ceiling = Bound::Ceiling(1.02);
        assert_eq!(ceiling.verdict(0.99, 1.01), "met");
        assert_eq!(ceiling.verdict(1.01, 1.03), "unresolved");
        assert_eq!(ceiling.verdict(1.03, 1.05), "not met");
        assert!(!floor.no_worse(f64::NAN, 1.5));
        // A quarter of the previous median is the regression tolerance.
        assert!(!Bound::Floor(1.3).regressed(1.7, 2.17));
        assert!(Bound::Floor(1.3).regressed(1.57, 2.17));
        assert!(!Bound::Ceiling(1.15).regressed(1.2, 1.0));
        assert!(Bound::Ceiling(1.15).regressed(1.3, 1.0));
    }

    #[test]
    fn previous_numbers_are_read_from_the_results_object() {
        let current = r#"{"results": {"speedup": {"median": 2.5}, "bytes": {"value": 64}}}"#;
        let current = Json::parse(current).expect("valid record");
        assert_eq!(previous_number(&current, "speedup"), Some(2.5));
        assert_eq!(previous_number(&current, "bytes"), Some(64.0));
        assert_eq!(previous_number(&current, "missing"), None);
    }
}
