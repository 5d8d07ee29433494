//! Campaign checkpointing: durable, atomically-written snapshots of a
//! campaign's progress, and the [`CheckpointSink`] that maintains them as
//! results stream in.
//!
//! A [`CampaignCheckpoint`] is small and closed-form — a completed-cell
//! bitmap plus the canonical-order merge fold ([`MergeSink`]) over the
//! completed cells — so it costs O(cells/8) bytes no matter how much trace
//! data the campaign produced. Snapshots go to disk in the crate's one
//! binary format ([`crate::distributed::codec`], CRC32-sealed) through the
//! classic temp-file + `sync` + rename dance, so a kill at any instant
//! leaves either the previous checkpoint or the new one, never a torn file.
//! Because the embedded fold replays cells in canonical index order and
//! stores floats as exact bit patterns, resuming from any checkpoint
//! reproduces the uninterrupted campaign's merged output bit-for-bit.
//! Checkpoints of the retired v1 text format convert through
//! [`CampaignCheckpoint::migrate_v1`].

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use super::merge::MergeSink;
use super::v1;
use crate::campaign::SweepSpec;
use crate::distributed::codec::{self, malformed};
use crate::error::SimError;
use crate::experiment::{ResultSink, RunReport};

/// A fixed-size bitmap over campaign cell indices: which cells have reported
/// a terminal outcome (success or quarantined failure).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellBitmap {
    words: Vec<u64>,
    len: usize,
}

impl CellBitmap {
    /// An all-clear bitmap over `len` cells.
    pub fn new(len: usize) -> CellBitmap {
        CellBitmap {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// The number of cells the bitmap covers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap covers zero cells.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Marks a cell complete.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set(&mut self, index: usize) {
        assert!(
            index < self.len,
            "cell {index} outside bitmap of {}",
            self.len
        );
        self.words[index / 64] |= 1u64 << (index % 64);
    }

    /// Whether a cell is marked complete.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn get(&self, index: usize) -> bool {
        assert!(
            index < self.len,
            "cell {index} outside bitmap of {}",
            self.len
        );
        self.words[index / 64] & (1u64 << (index % 64)) != 0
    }

    /// The number of cells marked complete.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The indices of cells *not* marked complete, in ascending order.
    pub fn missing(&self) -> Vec<usize> {
        (0..self.len).filter(|&k| !self.get(k)).collect()
    }

    /// The raw 64-bit words backing the bitmap. Crate-internal, for the
    /// codec.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Reassembles a bitmap from its raw words, validating the word count
    /// and that no bit is set past the cell count. Every decoder funnels
    /// through here.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Io`] on any violated invariant.
    pub(crate) fn from_words(words: Vec<u64>, len: usize) -> Result<CellBitmap, SimError> {
        if words.len() != len.div_ceil(64) {
            return Err(malformed("bitmap word count disagrees with cells"));
        }
        if !len.is_multiple_of(64) {
            if let Some(last) = words.last() {
                if last >> (len % 64) != 0 {
                    return Err(malformed("bitmap has bits past the cell count"));
                }
            }
        }
        Ok(CellBitmap { words, len })
    }
}

/// A durable snapshot of a campaign's progress: which cells have reported
/// (bitmap) and the canonical-order merge fold over their outcomes. Bound to
/// its grid by the [`crate::SweepSpec`] fingerprint, so a checkpoint cannot
/// silently resume a different campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCheckpoint {
    fingerprint: u64,
    bitmap: CellBitmap,
    fold: MergeSink,
}

impl CampaignCheckpoint {
    /// A fresh checkpoint for a campaign of `cells` cells whose grid hashes
    /// to `fingerprint` ([`crate::SweepSpec::fingerprint`]).
    pub fn new(fingerprint: u64, cells: usize) -> CampaignCheckpoint {
        CampaignCheckpoint {
            fingerprint,
            bitmap: CellBitmap::new(cells),
            fold: MergeSink::new(0..cells),
        }
    }

    /// The grid fingerprint this checkpoint is bound to.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The number of cells in the campaign grid.
    pub fn cells(&self) -> usize {
        self.bitmap.len()
    }

    /// The number of cells with a recorded terminal outcome.
    pub fn completed(&self) -> usize {
        self.bitmap.count_ones()
    }

    /// Whether the given cell already has a recorded outcome.
    pub fn is_cell_complete(&self, index: usize) -> bool {
        self.bitmap.get(index)
    }

    /// Whether every cell has reported.
    pub fn is_complete(&self) -> bool {
        self.fold.is_complete()
    }

    /// The indices still to run, in ascending order.
    pub fn remaining(&self) -> Vec<usize> {
        self.bitmap.missing()
    }

    /// The canonical-order merge fold over the recorded outcomes.
    pub fn fold(&self) -> &MergeSink {
        &self.fold
    }

    /// The completion bitmap. Crate-internal, for the codec.
    pub(crate) fn bitmap(&self) -> &CellBitmap {
        &self.bitmap
    }

    /// Consumes the checkpoint, returning its merge fold (the campaign's
    /// aggregated result).
    pub fn into_fold(self) -> MergeSink {
        self.fold
    }

    /// Records one cell's terminal outcome.
    ///
    /// # Panics
    ///
    /// Panics if the cell is out of range or already recorded (the sweep
    /// contract delivers each cell exactly once; resume skips completed
    /// cells).
    pub fn record(&mut self, index: usize, outcome: Result<RunReport, SimError>) {
        self.bitmap.set(index);
        self.fold.accept(index, outcome);
    }

    /// Reassembles a checkpoint from its raw parts, validating the
    /// cross-field invariants: the fold covers exactly the bitmap's cells
    /// and the two completion counts agree. Every decoder funnels through
    /// here.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Io`] on any violated invariant.
    pub(crate) fn from_parts(
        fingerprint: u64,
        bitmap: CellBitmap,
        fold: MergeSink,
    ) -> Result<CampaignCheckpoint, SimError> {
        if fold.range() != (0..bitmap.len()) {
            return Err(malformed("fold range disagrees with cell count"));
        }
        if fold.completed_cells() != bitmap.count_ones() {
            return Err(malformed("fold completion count disagrees with bitmap"));
        }
        Ok(CampaignCheckpoint {
            fingerprint,
            bitmap,
            fold,
        })
    }

    /// Serialises the checkpoint in the on-disk format: the CRC32-sealed
    /// binary blob of [`crate::distributed::encode_checkpoint`].
    pub fn encode(&self) -> Vec<u8> {
        codec::encode_checkpoint(self)
    }

    /// Decodes a checkpoint serialised by [`CampaignCheckpoint::encode`],
    /// bit-exactly. The checksum is verified first, so corruption anywhere
    /// is rejected wholesale.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Corrupted`] on a checksum or type mismatch and
    /// [`SimError::Io`] on structurally malformed input — including a
    /// checkpoint of the retired v1 text format, which
    /// [`CampaignCheckpoint::migrate_v1`] converts.
    pub fn decode(bytes: &[u8]) -> Result<CampaignCheckpoint, SimError> {
        if v1::is_v1(bytes) {
            return Err(SimError::Io(
                "checkpoint is in the retired v1 text format; \
                 convert it with CampaignCheckpoint::migrate_v1"
                    .to_owned(),
            ));
        }
        codec::decode_checkpoint(bytes)
    }

    /// Converts a checkpoint written in the retired v1 text format: checks
    /// that it was taken of `spec`'s grid, then binds it to the current
    /// [`SweepSpec::fingerprint`]. Write the result back with
    /// [`CampaignCheckpoint::write_atomic`] and resume as usual.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for a checkpoint of another
    /// grid, [`SimError::Corrupted`] on a checksum mismatch, and
    /// [`SimError::Io`] on malformed text.
    pub fn migrate_v1(text: &str, spec: &SweepSpec) -> Result<CampaignCheckpoint, SimError> {
        v1::migrate(text, spec)
    }

    /// Writes the checkpoint to `path` atomically: the serialised snapshot
    /// goes to a sibling temp file, is synced, and is renamed over `path` —
    /// a kill at any instant leaves either the old checkpoint or the new
    /// one, never a torn file.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Io`] if any filesystem step fails.
    pub fn write_atomic(&self, path: &Path) -> Result<(), SimError> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(&self.encode())?;
            file.sync_all()?;
        }
        fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Loads a checkpoint previously written with
    /// [`CampaignCheckpoint::write_atomic`].
    ///
    /// # Errors
    ///
    /// As [`CampaignCheckpoint::decode`], plus [`SimError::Io`] if the file
    /// cannot be read.
    pub fn load(path: &Path) -> Result<CampaignCheckpoint, SimError> {
        CampaignCheckpoint::decode(&fs::read(path)?)
    }
}

/// A [`ResultSink`] adapter that maintains a [`CampaignCheckpoint`] as
/// results stream in, persisting it atomically every `every` completed
/// cells, while forwarding every result unchanged to the wrapped sink.
///
/// Persistence failures never interrupt the campaign: a failed write is
/// recorded (and retried at the next checkpoint boundary) rather than
/// panicking a worker — losing checkpoint durability is strictly better
/// than losing the campaign. [`CheckpointSink::finish`] performs the final
/// write and surfaces any persistent failure.
#[derive(Debug)]
pub struct CheckpointSink<S: ResultSink> {
    inner: S,
    checkpoint: CampaignCheckpoint,
    path: PathBuf,
    every: usize,
    since_write: usize,
    last_write_error: Option<SimError>,
}

impl<S: ResultSink> CheckpointSink<S> {
    /// A sink for a fresh campaign: `fingerprint`/`cells` describe the grid
    /// ([`crate::SweepSpec::fingerprint`] / cell count), `path` is where
    /// snapshots land, and `every` is the checkpoint cadence in completed
    /// cells (clamped to at least 1).
    pub fn new(
        fingerprint: u64,
        cells: usize,
        path: impl Into<PathBuf>,
        every: usize,
        inner: S,
    ) -> CheckpointSink<S> {
        CheckpointSink::resume(
            CampaignCheckpoint::new(fingerprint, cells),
            path,
            every,
            inner,
        )
    }

    /// A sink continuing from a previously-loaded checkpoint: already
    /// recorded cells stay recorded, new results extend the fold.
    pub fn resume(
        checkpoint: CampaignCheckpoint,
        path: impl Into<PathBuf>,
        every: usize,
        inner: S,
    ) -> CheckpointSink<S> {
        CheckpointSink {
            inner,
            checkpoint,
            path: path.into(),
            every: every.max(1),
            since_write: 0,
            last_write_error: None,
        }
    }

    /// The current checkpoint state.
    pub fn checkpoint(&self) -> &CampaignCheckpoint {
        &self.checkpoint
    }

    /// The wrapped sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The most recent persistence failure, if the last attempted write
    /// failed (`None` once a later write succeeds).
    pub fn last_write_error(&self) -> Option<&SimError> {
        self.last_write_error.as_ref()
    }

    /// Writes the final snapshot and dismantles the adapter, returning the
    /// checkpoint and the wrapped sink.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Io`] (alongside the state, which is never lost)
    /// if the final write fails.
    pub fn finish(self) -> (CampaignCheckpoint, S, Result<(), SimError>) {
        let result = self.checkpoint.write_atomic(&self.path);
        (self.checkpoint, self.inner, result)
    }

    /// Persists the checkpoint, recording rather than propagating failure.
    fn try_write(&mut self) {
        match self.checkpoint.write_atomic(&self.path) {
            Ok(()) => {
                self.since_write = 0;
                self.last_write_error = None;
            }
            Err(error) => {
                // Leave since_write at the threshold so the very next
                // completion retries the write.
                self.last_write_error = Some(error);
            }
        }
    }
}

impl<S: ResultSink> ResultSink for CheckpointSink<S> {
    fn accept(&mut self, index: usize, outcome: Result<RunReport, SimError>) {
        self.checkpoint.record(index, outcome.clone());
        self.inner.accept(index, outcome);
        self.since_write += 1;
        if self.since_write >= self.every {
            self.try_write();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dtpm-checkpoint-{}-{tag}.ckpt", std::process::id()))
    }

    fn failed(index: usize) -> Result<RunReport, SimError> {
        Err(SimError::Panicked(format!("boom {index}")))
    }

    #[test]
    fn bitmap_tracks_cells_across_word_boundaries() {
        let mut bitmap = CellBitmap::new(130);
        assert_eq!(bitmap.len(), 130);
        assert!(!bitmap.is_empty());
        for k in [0, 63, 64, 65, 127, 128, 129] {
            assert!(!bitmap.get(k));
            bitmap.set(k);
            assert!(bitmap.get(k));
        }
        assert_eq!(bitmap.count_ones(), 7);
        assert_eq!(bitmap.missing().len(), 123);
        assert!(CellBitmap::new(0).is_empty());
    }

    #[test]
    #[should_panic(expected = "outside bitmap")]
    fn bitmap_rejects_out_of_range_cells() {
        CellBitmap::new(10).set(10);
    }

    #[test]
    fn checkpoint_round_trips_bit_exactly_through_text_and_disk() {
        let mut checkpoint = CampaignCheckpoint::new(0xDEAD_BEEF_F00D_CAFE, 70);
        for k in [0, 1, 2, 5, 64, 69] {
            checkpoint.record(k, failed(k));
        }
        assert_eq!(checkpoint.completed(), 6);
        assert!(checkpoint.is_cell_complete(64));
        assert!(!checkpoint.is_cell_complete(63));
        assert!(!checkpoint.is_complete());
        assert_eq!(checkpoint.remaining().len(), 64);

        let decoded = CampaignCheckpoint::decode(&checkpoint.encode()).expect("decode");
        assert_eq!(decoded, checkpoint);

        let path = temp_path("round-trip");
        checkpoint.write_atomic(&path).expect("write");
        let loaded = CampaignCheckpoint::load(&path).expect("load");
        assert_eq!(loaded, checkpoint);

        // A checkpoint read from the retired v1 text format lands on disk in
        // the binary format and loads back unchanged.
        let legacy = v1::parse(include_str!("../../tests/data/checkpoint-v1.txt")).expect("v1");
        legacy.write_atomic(&path).expect("write");
        assert_eq!(CampaignCheckpoint::load(&path).expect("load"), legacy);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_rejects_malformed_and_inconsistent_input() {
        assert!(CampaignCheckpoint::decode(b"not a checkpoint").is_err());
        let good = CampaignCheckpoint::new(7, 3).encode();
        assert!(CampaignCheckpoint::decode(&good[..good.len() / 2]).is_err());
        // A correctly sealed blob whose bitmap covers 130 cells but whose
        // fold covers 3: the checksum passes, the consistency check fails.
        let mut w = numeric::codec::ByteWriter::new();
        w.put_u32(u32::from_le_bytes(*b"DCP1"));
        w.put_u64(7);
        w.put_usize(130);
        for _ in 0..3 {
            w.put_u64(0);
        }
        codec::put_sink(&mut w, &MergeSink::new(0..3));
        let crc = numeric::codec::crc32(w.as_slice());
        w.put_u32(crc);
        assert!(matches!(
            CampaignCheckpoint::decode(w.as_slice()),
            Err(SimError::Io(_))
        ));
    }

    #[test]
    fn crc_footer_detects_corruption_and_tolerates_legacy_files() {
        let mut checkpoint = CampaignCheckpoint::new(0xABCD, 70);
        for k in [0, 3, 64] {
            checkpoint.record(k, failed(k));
        }
        let encoded = checkpoint.encode();
        assert_eq!(
            CampaignCheckpoint::decode(&encoded).expect("round trip"),
            checkpoint
        );
        // A flipped bit anywhere — here in the fingerprint, which would
        // parse fine structurally — is caught wholesale by the checksum.
        for position in [4, encoded.len() / 2, encoded.len() - 1] {
            let mut flipped = encoded.clone();
            flipped[position] ^= 0x01;
            assert!(matches!(
                CampaignCheckpoint::decode(&flipped),
                Err(SimError::Corrupted(_))
            ));
        }
        // A legacy v1 text checkpoint is recognised, not misread as
        // corruption: decoding points at the migration, which accepts it.
        let legacy = include_str!("../../tests/data/checkpoint-v1.txt");
        assert!(matches!(
            CampaignCheckpoint::decode(legacy.as_bytes()),
            Err(SimError::Io(msg)) if msg.contains("migrate_v1")
        ));
        assert!(v1::parse(legacy).is_ok());
    }

    #[test]
    fn checkpoint_sink_persists_on_cadence_and_forwards_everything() {
        /// Counts forwarded outcomes.
        struct Counter(usize);
        impl ResultSink for Counter {
            fn accept(&mut self, _index: usize, _outcome: Result<RunReport, SimError>) {
                self.0 += 1;
            }
        }
        let path = temp_path("cadence");
        std::fs::remove_file(&path).ok();
        let mut sink = CheckpointSink::new(42, 10, &path, 4, Counter(0));
        for k in 0..3 {
            sink.accept(k, failed(k));
        }
        assert!(!path.exists(), "below the cadence: nothing written yet");
        sink.accept(3, failed(3));
        let on_disk = CampaignCheckpoint::load(&path).expect("written at cadence");
        assert_eq!(on_disk.completed(), 4);
        for k in 4..7 {
            sink.accept(k, failed(k));
        }
        assert_eq!(
            CampaignCheckpoint::load(&path).expect("load").completed(),
            4,
            "mid-cadence completions stay in memory"
        );
        assert!(sink.last_write_error().is_none());
        assert_eq!(sink.inner().0, 7, "every outcome forwarded");
        let (checkpoint, inner, write) = sink.finish();
        write.expect("final write");
        assert_eq!(inner.0, 7);
        assert_eq!(checkpoint.completed(), 7);
        assert_eq!(
            CampaignCheckpoint::load(&path).expect("load"),
            checkpoint,
            "finish persists the final state"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_aggregate_matches_a_plain_merge_sink() {
        // The checkpoint's embedded fold is a MergeSink over 0..cells: the
        // same outcomes produce the same bits.
        let mut checkpoint = CampaignCheckpoint::new(1, 5);
        let mut reference = MergeSink::new(0..5);
        for k in 0..5 {
            checkpoint.record(k, failed(k));
            reference.accept(k, failed(k));
        }
        assert!(checkpoint.is_complete());
        assert_eq!(checkpoint.fold(), &reference);
    }
}
