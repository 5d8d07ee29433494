//! One-shot migration of checkpoints written in the retired v1 text format
//! (one tagged line per field, floats as 16-hex-digit bit patterns,
//! strings as hex UTF-8, an optional `crc32` footer) to the binary format
//! of [`crate::distributed::codec`].
//!
//! Read-only: nothing writes v1 any more. A v1 checkpoint is bound to its
//! grid by the v1 fingerprint — FNV-1a over the spec's `Debug` rendering —
//! which [`migrate`] re-checks against the caller's spec before re-binding
//! the checkpoint to [`SweepSpec::fingerprint`]. The v1 fingerprint only
//! matches while `SweepSpec`'s `Debug` output is unchanged, so this module
//! and its fixture test go once no v1 checkpoints remain.

use std::collections::BTreeMap;

use numeric::stats::Welford;

use super::checkpoint::{CampaignCheckpoint, CellBitmap};
use super::merge::{CampaignAggregate, CellFailure, CellOutcome, CellStats, MergeSink};
use crate::campaign::{fnv1a, splitmix64, SweepSpec};
use crate::distributed::codec::malformed;
use crate::error::SimError;

/// The first line of every v1 checkpoint.
const HEADER: &str = "dtpm-campaign-checkpoint v1";

/// Whether `bytes` start like a v1 text checkpoint.
pub(crate) fn is_v1(bytes: &[u8]) -> bool {
    bytes.starts_with(HEADER.as_bytes())
}

/// Converts a v1 checkpoint of `spec`'s grid into a current one, bound to
/// [`SweepSpec::fingerprint`].
pub(crate) fn migrate(text: &str, spec: &SweepSpec) -> Result<CampaignCheckpoint, SimError> {
    let legacy = parse(text)?;
    if legacy.fingerprint() != splitmix64(fnv1a(format!("{spec:?}").as_bytes())) {
        return Err(SimError::InvalidConfig(
            "v1 checkpoint fingerprint does not match this campaign's grid",
        ));
    }
    if legacy.cells() != spec.cells() {
        return Err(SimError::InvalidConfig(
            "v1 checkpoint cell count does not match this campaign's grid",
        ));
    }
    let bitmap = legacy.bitmap().clone();
    CampaignCheckpoint::from_parts(spec.fingerprint(), bitmap, legacy.into_fold())
}

/// Parses a v1 checkpoint as written, its v1 fingerprint unchanged. A
/// present `crc32` footer is verified first; footerless files (written
/// before the footer existed) parse unchecked.
pub(crate) fn parse(text: &str) -> Result<CampaignCheckpoint, SimError> {
    let mut lines = Lines(strip_footer(text)?.lines());
    if lines.0.next() != Some(HEADER) {
        return Err(malformed("not a v1 checkpoint"));
    }
    let fingerprint = hex(lines.tagged("fingerprint", Some(1))?[0])?;
    let cells = dec(lines.tagged("cells", Some(1))?[0])?;
    let words = lines.tagged("bitmap", None)?.into_iter().map(hex);
    let bitmap = CellBitmap::from_words(words.collect::<Result<_, _>>()?, cells)?;
    let range = lines.tagged("range", Some(2))?;
    let next = dec(lines.tagged("next", Some(1))?[0])?;
    let agg = lines.tagged("agg", Some(8))?;
    let aggregate = CampaignAggregate {
        cells: dec(agg[0])?,
        completed_runs: dec(agg[1])?,
        failed_cells: dec(agg[2])?,
        shutdowns: dec(agg[3])?,
        total_intervals: dec(agg[4])?,
        escalations: dec(agg[5])?,
        sensor_faults: dec(agg[6])?,
        total_energy_j: float(agg[7])?,
        energy_j: lines.welford("energy")?,
        mean_power_w: lines.welford("power")?,
        execution_time_s: lines.welford("exec")?,
        peak_temp_c: lines.welford("peak")?,
        mean_temp_c: lines.welford("meantemp")?,
    };
    let mut failures = Vec::new();
    for _ in 0..dec(lines.tagged("failures", Some(1))?[0])? {
        let f = lines.tagged("failure", Some(2))?;
        failures.push(CellFailure {
            index: dec(f[0])?,
            error: string(f[1])?,
        });
    }
    let mut pending = BTreeMap::new();
    for _ in 0..dec(lines.tagged("pending", Some(1))?[0])? {
        let f = lines.tagged("cell", None)?;
        let index = dec(f.first().copied().unwrap_or_default())?;
        let outcome = match (f.get(1).copied(), f.len()) {
            (Some("ok"), 13) => CellOutcome::Completed(CellStats {
                completed: f[2] == "1",
                execution_time_s: float(f[3])?,
                intervals: dec(f[4])?,
                energy_j: float(f[5])?,
                mean_platform_power_w: float(f[6])?,
                mean_temp_c: float(f[7])?,
                peak_temp_c: float(f[8])?,
                intervention_rate: float(f[9])?,
                escalations: dec(f[10])?,
                sensor_faults: dec(f[11])?,
                shut_down: f[12] == "1",
            }),
            (Some("err"), 3) => CellOutcome::Failed(CellFailure {
                index,
                error: string(f[2])?,
            }),
            _ => return Err(malformed("v1 checkpoint: unrecognised cell line")),
        };
        if pending.insert(index, outcome).is_some() {
            return Err(malformed(format!("v1 checkpoint: cell {index} twice")));
        }
    }
    if lines.0.next().is_some() {
        return Err(malformed("v1 checkpoint: trailing data"));
    }
    let fold = MergeSink::from_parts(
        dec(range[0])?,
        dec(range[1])?,
        next,
        aggregate,
        pending,
        failures,
    )?;
    CampaignCheckpoint::from_parts(fingerprint, bitmap, fold)
}

/// Verifies and strips a trailing `crc32 XXXXXXXX` line, which covers every
/// byte before it.
fn strip_footer(text: &str) -> Result<&str, SimError> {
    let Some((body, footer)) = text.trim_end_matches('\n').rsplit_once('\n') else {
        return Ok(text);
    };
    let Some(stated) = footer.strip_prefix("crc32 ") else {
        return Ok(text);
    };
    let body = &text[..body.len() + 1];
    let stated = u32::from_str_radix(stated, 16)
        .map_err(|_| SimError::Corrupted(format!("unreadable crc32 footer {stated:?}")))?;
    let computed = numeric::codec::crc32(body.as_bytes());
    if computed != stated {
        return Err(SimError::Corrupted(format!(
            "v1 checkpoint crc32 mismatch: footer says {stated:08x}, \
             content hashes to {computed:08x}"
        )));
    }
    Ok(body)
}

/// The line cursor: each line is a tag followed by whitespace-separated
/// fields.
struct Lines<'a>(std::str::Lines<'a>);

impl<'a> Lines<'a> {
    /// The fields of the next line, which must carry `tag` (and exactly
    /// `arity` fields, when given).
    fn tagged(&mut self, tag: &str, arity: Option<usize>) -> Result<Vec<&'a str>, SimError> {
        let line = self.0.next().unwrap_or_default();
        let mut fields = line.split_whitespace();
        if fields.next() != Some(tag) {
            return Err(malformed(format!("v1 checkpoint: expected a {tag} line")));
        }
        let fields: Vec<&str> = fields.collect();
        if arity.is_some_and(|n| n != fields.len()) {
            return Err(malformed(format!("v1 checkpoint: bad {tag} line")));
        }
        Ok(fields)
    }

    /// A `welford NAME count mean m2 min max` line.
    fn welford(&mut self, name: &str) -> Result<Welford, SimError> {
        let f = self.tagged("welford", Some(6))?;
        if f[0] != name {
            return Err(malformed(format!("v1 checkpoint: expected welford {name}")));
        }
        Ok(Welford::from_parts(
            dec(f[1])?,
            float(f[2])?,
            float(f[3])?,
            float(f[4])?,
            float(f[5])?,
        ))
    }
}

fn dec(s: &str) -> Result<usize, SimError> {
    s.parse()
        .map_err(|_| malformed(format!("v1 checkpoint: bad count {s:?}")))
}

fn hex(s: &str) -> Result<u64, SimError> {
    u64::from_str_radix(s, 16).map_err(|_| malformed(format!("v1 checkpoint: bad hex {s:?}")))
}

/// A float stored as its bit pattern.
fn float(s: &str) -> Result<f64, SimError> {
    hex(s).map(f64::from_bits)
}

/// A string stored as hex UTF-8 bytes (`-` for the empty string).
fn string(s: &str) -> Result<String, SimError> {
    if s == "-" {
        return Ok(String::new());
    }
    let bytes = (0..s.len())
        .step_by(2)
        .map(|k| s.get(k..k + 2).and_then(|b| u8::from_str_radix(b, 16).ok()))
        .collect::<Option<Vec<u8>>>()
        .ok_or_else(|| malformed("v1 checkpoint: bad string field"))?;
    String::from_utf8(bytes).map_err(|_| malformed("v1 checkpoint: string is not UTF-8"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentKind;
    use crate::faults::{FaultKind, FaultPlan, FaultWindow, SensorChannel};
    use workload::BenchmarkId;

    /// The checked-in checkpoint, written by the v1 encoder.
    const FIXTURE: &str = include_str!("../../tests/data/checkpoint-v1.txt");

    /// The grid the fixture was taken of.
    fn fixture_spec() -> SweepSpec {
        SweepSpec::new(
            vec![ExperimentKind::Dtpm, ExperimentKind::Reactive],
            vec![
                BenchmarkId::Crc32,
                BenchmarkId::Qsort,
                BenchmarkId::Basicmath,
            ],
        )
        .with_ambients_c(vec![24.0, 32.5])
        .with_fault_plans(vec![
            None,
            Some(FaultPlan::new(11).with_window(FaultWindow {
                channel: SensorChannel::CoreTemp(1),
                kind: FaultKind::Dropped,
                start_s: 0.5,
                end_s: 1.0,
            })),
        ])
        .with_replicates(3)
        .with_campaign_seed(0x5EED_0001)
        .with_max_duration_s(1.0)
        .with_ideal_sensors(true)
    }

    /// The fixture's fold, rebuilt from the outcomes it recorded.
    fn fixture_fold(cells: usize) -> (CellBitmap, MergeSink) {
        let stats = |k: usize| {
            let x = k as f64;
            CellStats {
                completed: k.is_multiple_of(2),
                execution_time_s: 1.0 + x / 3.0,
                intervals: 10 + k,
                energy_j: 7.0 + x * 0.1,
                mean_platform_power_w: 4.0 + x / 7.0,
                mean_temp_c: 50.0 + x / 9.0,
                peak_temp_c: 55.0 + x * 0.3,
                intervention_rate: if k == 7 { -0.0 } else { x / 11.0 },
                escalations: k % 3,
                sensor_faults: k % 2,
                shut_down: k == 4,
            }
        };
        let failed = |index: usize, error: &str| {
            CellOutcome::Failed(CellFailure {
                index,
                error: error.to_owned(),
            })
        };
        let panicked =
            "cell panicked (contained): chaos plan: injected panic at interval 3 (attempt 0)";
        let mut bitmap = CellBitmap::new(cells);
        let mut fold = MergeSink::new(0..cells);
        for (k, outcome) in [
            (0, CellOutcome::Completed(stats(0))),
            (1, CellOutcome::Completed(stats(1))),
            (9, failed(9, "deadline: \u{fc}ber\nsecond line")),
            (2, failed(2, panicked)),
            (3, CellOutcome::Completed(stats(3))),
            (66, CellOutcome::Completed(stats(66))),
            (4, CellOutcome::Completed(stats(4))),
            (7, CellOutcome::Completed(stats(7))),
        ] {
            bitmap.set(k);
            fold.offer(k, outcome);
        }
        (bitmap, fold)
    }

    #[test]
    fn migrates_the_checked_in_v1_checkpoint() {
        let spec = fixture_spec();
        let migrated = CampaignCheckpoint::migrate_v1(FIXTURE, &spec).expect("migrates");
        let (bitmap, fold) = fixture_fold(spec.cells());
        let expected =
            CampaignCheckpoint::from_parts(spec.fingerprint(), bitmap, fold).expect("consistent");
        assert_eq!(migrated, expected);
        assert_eq!(migrated.remaining().len(), 64);
        // From here on it is an ordinary checkpoint of the binary format.
        let decoded = CampaignCheckpoint::decode(&migrated.encode()).expect("round trip");
        assert_eq!(decoded, migrated);
        // A footerless v1 file (written before the footer existed) migrates
        // to the same state.
        let footerless = FIXTURE
            .lines()
            .filter(|line| !line.starts_with("crc32 "))
            .map(|line| format!("{line}\n"))
            .collect::<String>();
        assert_eq!(
            CampaignCheckpoint::migrate_v1(&footerless, &spec).expect("footerless"),
            migrated
        );
    }

    #[test]
    fn migration_rejects_other_grids_and_damaged_files() {
        let spec = fixture_spec();
        let other = fixture_spec().with_campaign_seed(7);
        assert!(matches!(
            CampaignCheckpoint::migrate_v1(FIXTURE, &other),
            Err(SimError::InvalidConfig(msg)) if msg.contains("fingerprint")
        ));
        let flipped = FIXTURE.replacen("next 5", "next 6", 1);
        assert!(matches!(
            CampaignCheckpoint::migrate_v1(&flipped, &spec),
            Err(SimError::Corrupted(_))
        ));
        assert!(CampaignCheckpoint::migrate_v1(&FIXTURE[..FIXTURE.len() / 2], &spec).is_err());
        assert!(CampaignCheckpoint::migrate_v1("not a checkpoint", &spec).is_err());
    }
}
