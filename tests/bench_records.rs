//! The microbench records and the docs that quote them cannot drift apart.
//!
//! Every bench target in `crates/bench/Cargo.toml` has a `BENCH_<name>.json`
//! at the repository root and every record has a target; every record holds
//! what a full run of `bench::microbench` writes; and each bound a record
//! carries is the one the README's Benchmarks line for that bench quotes.

use std::path::Path;

use bench::microbench::{Json, MIN_PAIRS};

fn read(relative: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every `BENCH_<name>.json` at the repository root, parsed, by name.
fn records() -> Vec<(String, Json)> {
    let root = std::fs::read_dir(env!("CARGO_MANIFEST_DIR")).expect("repository root");
    let mut records: Vec<(String, Json)> = root
        .filter_map(|entry| {
            let file = entry
                .expect("directory entry")
                .file_name()
                .into_string()
                .ok()?;
            let name = file
                .strip_prefix("BENCH_")?
                .strip_suffix(".json")?
                .to_owned();
            let record = Json::parse(&read(&file)).unwrap_or_else(|e| panic!("{file}: {e}"));
            Some((name, record))
        })
        .collect();
    records.sort_by(|a, b| a.0.cmp(&b.0));
    records
}

/// The `floor` and `ceiling` entries among `pairs`, sorted.
fn bounds<'a>(pairs: impl Iterator<Item = (&'a str, f64)>) -> Vec<(String, f64)> {
    let mut bounds: Vec<(String, f64)> = pairs
        .filter(|(key, _)| matches!(*key, "floor" | "ceiling"))
        .map(|(key, value)| (key.to_owned(), value))
        .collect();
    bounds.sort_by(|a, b| a.partial_cmp(b).expect("finite bounds"));
    bounds
}

#[test]
fn every_bench_target_has_a_record_and_every_record_a_target() {
    let manifest = read("crates/bench/Cargo.toml");
    let mut targets: Vec<&str> = manifest
        .split("[[bench]]")
        .skip(1)
        .map(|table| {
            let name = table
                .trim_start()
                .strip_prefix("name = \"")
                .expect("name first");
            &name[..name.find('"').expect("quoted name")]
        })
        .collect();
    targets.sort_unstable();
    let recorded: Vec<String> = records().into_iter().map(|(name, _)| name).collect();
    assert_eq!(recorded, targets);
}

#[test]
fn every_record_holds_a_full_run() {
    for (name, record) in records() {
        assert_eq!(record.get("bench"), Some(&Json::from(name.as_str())));
        assert!(record.get("config").is_some(), "{name}: no config");
        let results = record.get("results").map_or(&[][..], Json::entries);
        assert!(
            results.iter().any(|(_, r)| r.get("pairs").is_some()),
            "{name}: no timed ratio"
        );
        for (result, fields) in results {
            let has = |key: &str| fields.get(key).is_some();
            let keys: &[&str] = match fields.get("pairs").and_then(Json::as_f64) {
                Some(pairs) => {
                    assert!(pairs >= MIN_PAIRS as f64, "{name}/{result}: {pairs} pairs");
                    let arms = fields.get("arms").map_or(&[][..], Json::entries);
                    assert_eq!(arms.len(), 2, "{name}/{result}: two arms");
                    for (arm, stats) in arms {
                        for key in ["best_ms", "median_ms", "iqr_ms"] {
                            assert!(stats.get(key).is_some(), "{name}/{result}/{arm}: {key}");
                        }
                    }
                    &["median", "iqr", "previous"]
                }
                None => &["value", "previous"],
            };
            for key in keys {
                assert!(has(key), "{name}/{result}: no {key}");
            }
            if has("floor") || has("ceiling") {
                let verdicts = ["met", "unresolved", "not met"].map(Json::from);
                let verdict = fields.get("verdict").expect("a bounded result's verdict");
                assert!(verdicts.contains(verdict), "{name}/{result}: {verdict:?}");
            }
        }
    }
}

#[test]
fn the_readme_quotes_every_recorded_bound() {
    let readme = read("README.md");
    let section = readme
        .split("\n## Benchmarks\n")
        .nth(1)
        .and_then(|s| s.split("\n## ").next())
        .expect("README has a Benchmarks section");
    for (name, record) in records() {
        // The bench's bullet: from its "- `name`" marker to the next bullet
        // or blank line.
        let start = section
            .find(&format!("\n- `{name}`"))
            .unwrap_or_else(|| panic!("README Benchmarks has no line for `{name}`"));
        let line = &section[start + 2..];
        let end = [line.find("\n- "), line.find("\n\n")]
            .into_iter()
            .flatten()
            .min();
        let words: Vec<&str> = line[..end.unwrap_or(line.len())]
            .split_whitespace()
            .collect();
        let quoted = bounds(words.windows(2).filter_map(|pair| {
            let number = pair[1].trim_end_matches(|c: char| !c.is_ascii_digit());
            Some((pair[0], number.parse().ok()?))
        }));
        let results = record.get("results").map_or(&[][..], Json::entries);
        let recorded = bounds(results.iter().flat_map(|(_, result)| {
            ["floor", "ceiling"]
                .into_iter()
                .filter_map(|key| Some((key, result.get(key)?.as_f64()?)))
        }));
        assert_eq!(quoted, recorded, "README line for `{name}` vs its record");
    }
}
