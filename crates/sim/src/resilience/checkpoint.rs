//! Campaign checkpointing: durable, atomically-written snapshots of a
//! campaign's progress, and the [`CheckpointSink`] that maintains them as
//! results stream in.
//!
//! A [`CampaignCheckpoint`] is small and closed-form — the grid fingerprint
//! plus the canonical-order merge fold ([`MergeSink`]) over the completed
//! cells, which also knows which cells have reported — so its size tracks
//! how far arrivals run ahead of the fold, not the grid size or how much
//! trace data the campaign produced. Snapshots go to disk in the crate's
//! one binary format ([`crate::distributed::codec`], CRC32-sealed) through
//! the classic temp-file + `sync` + rename dance, so a kill at any instant
//! leaves either the previous checkpoint or the new one, never a torn file.
//! Because the embedded fold replays cells in canonical index order and
//! stores floats as exact bit patterns, resuming from any checkpoint
//! reproduces the uninterrupted campaign's merged output bit-for-bit.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use super::merge::{CellOutcome, MergeSink};
use crate::distributed::codec::{self, malformed};
use crate::error::SimError;
use crate::experiment::{ResultSink, RunReport};

/// A durable snapshot of a campaign's progress: the canonical-order merge
/// fold over the outcomes recorded so far, which also answers which cells
/// have reported. Bound to its grid by the [`crate::SweepSpec`]
/// fingerprint, so a checkpoint cannot silently resume a different
/// campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCheckpoint {
    fingerprint: u64,
    fold: MergeSink,
}

impl CampaignCheckpoint {
    /// A fresh checkpoint for a campaign of `cells` cells whose grid hashes
    /// to `fingerprint` ([`crate::SweepSpec::fingerprint`]).
    pub fn new(fingerprint: u64, cells: usize) -> CampaignCheckpoint {
        CampaignCheckpoint {
            fingerprint,
            fold: MergeSink::new(0..cells),
        }
    }

    /// The grid fingerprint this checkpoint is bound to.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The number of cells in the campaign grid.
    pub fn cells(&self) -> usize {
        self.fold.range().end
    }

    /// The number of cells with a recorded terminal outcome.
    pub fn completed(&self) -> usize {
        self.fold.completed_cells()
    }

    /// Whether the given cell already has a recorded outcome.
    pub fn is_cell_complete(&self, index: usize) -> bool {
        self.fold.is_cell_complete(index)
    }

    /// Whether every cell has reported.
    pub fn is_complete(&self) -> bool {
        self.fold.is_complete()
    }

    /// The indices still to run, in ascending order: the fold's unfolded
    /// range minus the cells it holds pending.
    pub fn remaining(&self) -> Vec<usize> {
        self.fold.unreported().collect()
    }

    /// The canonical-order merge fold over the recorded outcomes.
    pub fn fold(&self) -> &MergeSink {
        &self.fold
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
        self.fold.accept(index, outcome);
    }

    /// Reassembles a checkpoint from its raw parts, validating that the
    /// fold covers a grid from cell 0. Every decoder funnels through here.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Io`] if the fold starts past cell 0.
    pub(crate) fn from_parts(
        fingerprint: u64,
        fold: MergeSink,
    ) -> Result<CampaignCheckpoint, SimError> {
        if fold.range().start != 0 {
            return Err(malformed("checkpoint fold does not start at cell 0"));
        }
        Ok(CampaignCheckpoint { fingerprint, fold })
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
    /// [`SimError::Io`] on structurally malformed input.
    pub fn decode(bytes: &[u8]) -> Result<CampaignCheckpoint, SimError> {
        codec::decode_checkpoint(bytes)
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
/// recorded (and retried at the next checkpoint boundary, `every`
/// completions later) rather than panicking a worker — losing checkpoint
/// durability is strictly better than losing the campaign.
/// [`CheckpointSink::finish`] performs the final write and surfaces any
/// persistent failure.
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
    /// The cadence restarts whatever the outcome, so a persistently failing
    /// write (a missing directory, a full disk) costs what a healthy one
    /// does instead of re-encoding the fold on every completion.
    fn try_write(&mut self) {
        self.since_write = 0;
        self.last_write_error = self.checkpoint.write_atomic(&self.path).err();
    }
}

impl<S: ResultSink> ResultSink for CheckpointSink<S> {
    fn accept(&mut self, index: usize, outcome: Result<RunReport, SimError>) {
        self.checkpoint
            .fold
            .offer(index, CellOutcome::from_run(index, &outcome));
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

    /// Counts forwarded outcomes.
    struct Counter(usize);
    impl ResultSink for Counter {
        fn accept(&mut self, _index: usize, _outcome: Result<RunReport, SimError>) {
            self.0 += 1;
        }
    }

    #[test]
    #[should_panic(expected = "outside the sink range")]
    fn checkpoint_rejects_out_of_range_cells() {
        CampaignCheckpoint::new(1, 10).record(10, failed(10));
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
        // Cells 0..=2 are folded, 5, 64 and 69 wait in the fold's pending
        // map: everything else remains.
        let remaining: Vec<usize> = (3..5).chain(6..64).chain(65..69).collect();
        assert_eq!(checkpoint.remaining(), remaining);

        let decoded = CampaignCheckpoint::decode(&checkpoint.encode()).expect("decode");
        assert_eq!(decoded, checkpoint);

        let path = temp_path("round-trip");
        checkpoint.write_atomic(&path).expect("write");
        let loaded = CampaignCheckpoint::load(&path).expect("load");
        assert_eq!(loaded, checkpoint);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_rejects_malformed_and_inconsistent_input() {
        assert!(CampaignCheckpoint::decode(b"not a checkpoint").is_err());
        let good = CampaignCheckpoint::new(7, 3).encode();
        assert!(CampaignCheckpoint::decode(&good[..good.len() / 2]).is_err());
        let sealed = |magic: &[u8; 4], fill: &dyn Fn(&mut numeric::codec::ByteWriter)| {
            let mut w = numeric::codec::ByteWriter::new();
            w.put_u32(u32::from_le_bytes(*magic));
            fill(&mut w);
            let crc = numeric::codec::crc32(w.as_slice());
            w.put_u32(crc);
            w.into_bytes()
        };
        // A correctly sealed blob whose fold starts at cell 3: the checksum
        // passes, the consistency check fails.
        let offset = sealed(b"DCP2", &|w| {
            w.put_u64(7);
            codec::put_sink(w, &MergeSink::new(3..6));
        });
        assert!(matches!(
            CampaignCheckpoint::decode(&offset),
            Err(SimError::Io(message)) if message.contains("cell 0")
        ));
        // A checkpoint in the retired bitmap format (fingerprint, cell
        // count, bitmap words, fold) fails on its magic, not on its layout.
        let retired = sealed(b"DCP1", &|w| {
            w.put_u64(7);
            w.put_usize(3);
            w.put_u64(0);
            codec::put_sink(w, &MergeSink::new(0..3));
        });
        assert!(matches!(
            CampaignCheckpoint::decode(&retired),
            Err(SimError::Corrupted(message)) if message.contains("magic")
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
        // A checkpoint left over from the retired text format is rejected
        // like any other non-binary input: an error, never a panic.
        let legacy = "dtpm-campaign-checkpoint v1\nfingerprint 1b9529ef5c29d252\ncells 72\n";
        assert!(CampaignCheckpoint::decode(legacy.as_bytes()).is_err());
    }

    #[test]
    fn checkpoint_sink_persists_on_cadence_and_forwards_everything() {
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
    fn a_failed_write_waits_for_the_next_checkpoint_boundary() {
        // A file under a directory that does not exist cannot be created,
        // whoever runs the test.
        let dir = std::env::temp_dir().join(format!(
            "dtpm-checkpoint-{}-missing-dir",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("campaign.ckpt");

        // The directory stays absent: every write fails, the campaign never
        // notices, and `finish` surfaces the failure with the state intact.
        let mut sink = CheckpointSink::new(42, 10, &path, 4, Counter(0));
        for k in 0..10 {
            sink.accept(k, failed(k));
        }
        assert!(sink.last_write_error().is_some());
        let (checkpoint, inner, write) = sink.finish();
        assert!(write.is_err(), "the final write fails too");
        assert_eq!(inner.0, 10, "every outcome forwarded");
        assert_eq!(checkpoint.completed(), 10, "the state is never lost");

        // The directory appears after the 5th accept. The write that failed
        // at the 4th is retried at the next boundary, the 8th, not at every
        // completion in between.
        let mut sink = CheckpointSink::new(42, 10, &path, 4, Counter(0));
        for k in 0..5 {
            sink.accept(k, failed(k));
        }
        assert!(sink.last_write_error().is_some());
        std::fs::create_dir_all(&dir).expect("create the checkpoint directory");
        for k in 5..7 {
            sink.accept(k, failed(k));
            assert!(!path.exists(), "accept {}: written off the cadence", k + 1);
        }
        sink.accept(7, failed(7));
        let on_disk = CampaignCheckpoint::load(&path).expect("written at the next boundary");
        assert_eq!(on_disk.completed(), 8);
        assert!(sink.last_write_error().is_none(), "a good write clears it");
        std::fs::remove_dir_all(&dir).ok();
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
