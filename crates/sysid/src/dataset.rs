//! Logged identification data: synchronous temperature and power time series.

use std::ops::{Bound, RangeBounds};

use numeric::Vector;

use crate::SysIdError;

/// A time-synchronous log of hotspot temperatures and domain powers, sampled
/// at the control-interval rate, used as input to the identification.
///
/// Temperatures are stored as measured (absolute °C); the identification and
/// validation routines work on temperatures *relative to the ambient*
/// (`T − T_amb`), which they compute sample by sample.
///
/// # Layout
///
/// Samples are stored row-major in two flat buffers: sample `k`'s
/// temperatures are `temps()[k * state_count()..(k + 1) * state_count()]`
/// and its powers are `powers()[k * input_count()..(k + 1) * input_count()]`,
/// so `temps().chunks_exact(state_count())` walks the samples in order.
///
/// Identification and validation read a contiguous range of samples in
/// place, through [`IdentificationDataset::rows`]: a train/test split is a
/// row index, not a copy. Several experiments can log into one dataset
/// concurrently, each filling its own block of rows
/// ([`IdentificationDataset::append_blocks`]).
#[derive(Debug, Clone, PartialEq)]
pub struct IdentificationDataset {
    state_count: usize,
    input_count: usize,
    sample_period_s: f64,
    ambient_c: f64,
    temps: Vec<f64>,
    powers: Vec<f64>,
}

impl IdentificationDataset {
    /// Creates an empty dataset for `state_count` hotspots and `input_count`
    /// power inputs.
    ///
    /// # Errors
    ///
    /// Returns [`SysIdError::InvalidConfig`] if either count is zero or the
    /// sample period is not positive.
    pub fn new(
        state_count: usize,
        input_count: usize,
        sample_period_s: f64,
        ambient_c: f64,
    ) -> Result<Self, SysIdError> {
        if state_count == 0 || input_count == 0 {
            return Err(SysIdError::InvalidConfig(
                "state and input counts must be non-zero",
            ));
        }
        if !(sample_period_s > 0.0) || !sample_period_s.is_finite() {
            return Err(SysIdError::InvalidConfig("sample period must be positive"));
        }
        Ok(IdentificationDataset {
            state_count,
            input_count,
            sample_period_s,
            ambient_c,
            temps: Vec::new(),
            powers: Vec::new(),
        })
    }

    /// Appends one synchronous sample (absolute temperatures in °C, powers in
    /// watts).
    ///
    /// # Errors
    ///
    /// Returns [`SysIdError::DimensionMismatch`] if the vectors do not match
    /// the dataset dimensions.
    pub fn push(&mut self, temps_c: Vector, powers_w: Vector) -> Result<(), SysIdError> {
        self.push_row(temps_c.as_slice(), powers_w.as_slice())
    }

    /// Appends one synchronous sample from slices, like
    /// [`IdentificationDataset::push`] without building vectors.
    ///
    /// # Errors
    ///
    /// Returns [`SysIdError::DimensionMismatch`] if the slices do not match
    /// the dataset dimensions.
    pub fn push_row(&mut self, temps_c: &[f64], powers_w: &[f64]) -> Result<(), SysIdError> {
        check_sample(self.state_count, self.input_count, temps_c, powers_w)?;
        self.temps.extend_from_slice(temps_c);
        self.powers.extend_from_slice(powers_w);
        Ok(())
    }

    /// Appends `blocks` blocks of `rows` zeroed samples each and returns a
    /// writer for every block, in order. Each writer fills its block in
    /// place, so independent experiments can log into one preallocated
    /// dataset from different threads. The paper applies a separate PRBS
    /// experiment per power source; logging them into one dataset lets a
    /// single least-squares problem see all of them.
    ///
    /// # Panics
    ///
    /// Panics if the blocks' size overflows `usize` or cannot be allocated.
    pub fn append_blocks(&mut self, blocks: usize, rows: usize) -> Vec<BlockWriter<'_>> {
        let (states, inputs) = (self.state_count, self.input_count);
        let size = |width: usize| {
            blocks
                .checked_mul(rows)
                .and_then(|cells| cells.checked_mul(width))
                .expect("the blocks' size overflows usize")
        };
        let (start_temps, start_powers) = (self.temps.len(), self.powers.len());
        self.temps.reserve_exact(size(states));
        self.temps.resize(start_temps + size(states), 0.0);
        self.powers.reserve_exact(size(inputs));
        self.powers.resize(start_powers + size(inputs), 0.0);
        let mut temps = &mut self.temps[start_temps..];
        let mut powers = &mut self.powers[start_powers..];
        (0..blocks)
            .map(|_| {
                let (block_temps, rest) = std::mem::take(&mut temps).split_at_mut(rows * states);
                temps = rest;
                let (block_powers, rest) = std::mem::take(&mut powers).split_at_mut(rows * inputs);
                powers = rest;
                BlockWriter {
                    temps: block_temps,
                    powers: block_powers,
                    state_count: states,
                    input_count: inputs,
                    filled: 0,
                }
            })
            .collect()
    }

    /// Number of logged samples.
    pub fn len(&self) -> usize {
        self.temps.len() / self.state_count
    }

    /// Returns `true` if nothing has been logged yet.
    pub fn is_empty(&self) -> bool {
        self.temps.is_empty()
    }

    /// Number of hotspot states.
    pub fn state_count(&self) -> usize {
        self.state_count
    }

    /// Number of power inputs.
    pub fn input_count(&self) -> usize {
        self.input_count
    }

    /// Sample period in seconds.
    pub fn sample_period_s(&self) -> f64 {
        self.sample_period_s
    }

    /// Ambient temperature the relative temperatures are referenced to, in °C.
    pub fn ambient_c(&self) -> f64 {
        self.ambient_c
    }

    /// The logged absolute temperatures, row-major (one row of
    /// [`state_count`](Self::state_count) values per sample).
    pub fn temps(&self) -> &[f64] {
        &self.temps
    }

    /// The logged powers, row-major (one row of
    /// [`input_count`](Self::input_count) values per sample).
    pub fn powers(&self) -> &[f64] {
        &self.powers
    }

    /// Samples `range` of the log, borrowed in place (`rows(..)` is the
    /// whole log).
    ///
    /// # Panics
    ///
    /// Panics if the range is decreasing or extends past the last sample,
    /// as slice indexing does.
    pub fn rows(&self, range: impl RangeBounds<usize>) -> DatasetRows<'_> {
        let start = match range.start_bound() {
            Bound::Included(&k) => k,
            Bound::Excluded(&k) => k.saturating_add(1),
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&k) => k.saturating_add(1),
            Bound::Excluded(&k) => k,
            Bound::Unbounded => self.len(),
        };
        assert!(
            start <= end && end <= self.len(),
            "sample range {start}..{end} out of bounds for {} samples",
            self.len()
        );
        DatasetRows {
            state_count: self.state_count,
            input_count: self.input_count,
            sample_period_s: self.sample_period_s,
            ambient_c: self.ambient_c,
            temps: &self.temps[start * self.state_count..end * self.state_count],
            powers: &self.powers[start * self.input_count..end * self.input_count],
        }
    }
}

/// Checks that one sample has `state_count` temperatures and `input_count`
/// powers.
fn check_sample(
    state_count: usize,
    input_count: usize,
    temps_c: &[f64],
    powers_w: &[f64],
) -> Result<(), SysIdError> {
    if temps_c.len() != state_count {
        return Err(SysIdError::DimensionMismatch {
            what: "temperature sample",
            expected: state_count,
            actual: temps_c.len(),
        });
    }
    if powers_w.len() != input_count {
        return Err(SysIdError::DimensionMismatch {
            what: "power sample",
            expected: input_count,
            actual: powers_w.len(),
        });
    }
    Ok(())
}

/// A writer that fills one block of an [`IdentificationDataset`]'s rows in
/// place, from [`IdentificationDataset::append_blocks`].
#[derive(Debug)]
pub struct BlockWriter<'a> {
    temps: &'a mut [f64],
    powers: &'a mut [f64],
    state_count: usize,
    input_count: usize,
    filled: usize,
}

impl BlockWriter<'_> {
    /// Writes the next sample of the block (absolute temperatures in °C,
    /// powers in watts), like [`IdentificationDataset::push_row`].
    ///
    /// # Errors
    ///
    /// Returns [`SysIdError::DimensionMismatch`] if the slices do not match
    /// the dataset dimensions, or [`SysIdError::InsufficientData`] if every
    /// row of the block is already written.
    pub fn push_row(&mut self, temps_c: &[f64], powers_w: &[f64]) -> Result<(), SysIdError> {
        check_sample(self.state_count, self.input_count, temps_c, powers_w)?;
        let rows = self.temps.len() / self.state_count;
        if self.filled == rows {
            return Err(SysIdError::InsufficientData {
                required: rows + 1,
                provided: rows,
            });
        }
        let k = self.filled;
        self.temps[k * self.state_count..][..self.state_count].copy_from_slice(temps_c);
        self.powers[k * self.input_count..][..self.input_count].copy_from_slice(powers_w);
        self.filled += 1;
        Ok(())
    }

    /// Rows of the block not written yet.
    pub fn remaining(&self) -> usize {
        self.temps.len() / self.state_count - self.filled
    }
}

/// A contiguous range of an [`IdentificationDataset`]'s samples, borrowed
/// in place ([`IdentificationDataset::rows`]). Identification and
/// validation read their samples through it.
#[derive(Debug, Clone, Copy)]
pub struct DatasetRows<'a> {
    state_count: usize,
    input_count: usize,
    sample_period_s: f64,
    ambient_c: f64,
    temps: &'a [f64],
    powers: &'a [f64],
}

impl<'a> DatasetRows<'a> {
    /// Number of samples in the range.
    pub fn len(&self) -> usize {
        self.temps.len() / self.state_count
    }

    /// Returns `true` if the range holds no sample.
    pub fn is_empty(&self) -> bool {
        self.temps.is_empty()
    }

    /// Number of hotspot states.
    pub fn state_count(&self) -> usize {
        self.state_count
    }

    /// Number of power inputs.
    pub fn input_count(&self) -> usize {
        self.input_count
    }

    /// Sample period in seconds.
    pub fn sample_period_s(&self) -> f64 {
        self.sample_period_s
    }

    /// Ambient temperature the relative temperatures are referenced to, in °C.
    pub fn ambient_c(&self) -> f64 {
        self.ambient_c
    }

    /// The absolute temperatures of the range, row-major.
    pub fn temps(&self) -> &'a [f64] {
        self.temps
    }

    /// The powers of the range, row-major.
    pub fn powers(&self) -> &'a [f64] {
        self.powers
    }

    /// Sample `k` of the range: its absolute temperatures and its powers.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn sample(&self, k: usize) -> (&'a [f64], &'a [f64]) {
        (
            &self.temps[k * self.state_count..(k + 1) * self.state_count],
            &self.powers[k * self.input_count..(k + 1) * self.input_count],
        )
    }

    /// Temperatures relative to the ambient (`T − T_amb`), the quantity the
    /// linear model is fitted on, in the row-major layout of
    /// [`temps`](Self::temps). This copies the range; the identification
    /// and the n-step validation subtract the ambient sample by sample
    /// instead.
    pub fn relative_temps(&self) -> Vec<f64> {
        self.temps.iter().map(|t| t - self.ambient_c).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dataset(n: usize) -> IdentificationDataset {
        let mut ds = IdentificationDataset::new(2, 3, 0.1, 25.0).unwrap();
        for k in 0..n {
            ds.push(
                Vector::from_slice(&[30.0 + k as f64, 31.0 + k as f64]),
                Vector::from_slice(&[1.0, 0.5, 0.2]),
            )
            .unwrap();
        }
        ds
    }

    #[test]
    fn construction_validates_arguments() {
        assert!(IdentificationDataset::new(0, 1, 0.1, 25.0).is_err());
        assert!(IdentificationDataset::new(1, 0, 0.1, 25.0).is_err());
        assert!(IdentificationDataset::new(1, 1, 0.0, 25.0).is_err());
        assert!(IdentificationDataset::new(4, 4, 0.1, 25.0).is_ok());
    }

    #[test]
    fn push_validates_dimensions() {
        let mut ds = IdentificationDataset::new(2, 2, 0.1, 25.0).unwrap();
        assert!(ds.push(Vector::zeros(3), Vector::zeros(2)).is_err());
        assert!(ds.push(Vector::zeros(2), Vector::zeros(1)).is_err());
        assert!(ds.push_row(&[0.0; 2], &[0.0; 3]).is_err());
        assert!(ds.push(Vector::zeros(2), Vector::zeros(2)).is_ok());
        assert!(ds.push_row(&[1.0, 2.0], &[3.0, 4.0]).is_ok());
        assert_eq!(ds.len(), 2);
        assert!(!ds.is_empty());
        assert_eq!(ds.temps(), [0.0, 0.0, 1.0, 2.0]);
        assert_eq!(ds.powers(), [0.0, 0.0, 3.0, 4.0]);
    }

    #[test]
    fn relative_temps_subtract_ambient() {
        let ds = sample_dataset(3);
        let rel = ds.rows(..).relative_temps();
        assert_eq!(rel, [5.0, 6.0, 6.0, 7.0, 7.0, 8.0]);
        assert_eq!(ds.rows(1..).relative_temps(), [6.0, 7.0, 7.0, 8.0]);
    }

    #[test]
    fn appended_blocks_fill_disjoint_row_ranges() {
        let mut ds = sample_dataset(2);
        let mut blocks = ds.append_blocks(3, 2);
        assert_eq!(blocks.len(), 3);
        // Fill the blocks out of order, as concurrent experiments would.
        for (b, block) in blocks.iter_mut().enumerate().rev() {
            for k in 0..2 {
                let x = (10 * b + k) as f64;
                assert_eq!(block.remaining(), 2 - k);
                block.push_row(&[x, -x], &[x, 0.0, 1.0]).unwrap();
            }
            assert_eq!(block.remaining(), 0);
            assert!(matches!(
                block.push_row(&[0.0; 2], &[0.0; 3]),
                Err(SysIdError::InsufficientData { .. })
            ));
        }
        assert!(blocks[0].push_row(&[0.0; 3], &[0.0; 3]).is_err());
        assert!(blocks[0].push_row(&[0.0; 2], &[0.0; 2]).is_err());
        drop(blocks);
        assert_eq!(ds.len(), 8);
        assert_eq!(&ds.temps()[..4], sample_dataset(2).temps());
        assert_eq!(
            &ds.temps()[4..],
            [0.0, -0.0, 1.0, -1.0, 10.0, -10.0, 11.0, -11.0, 20.0, -20.0, 21.0, -21.0]
        );
        assert_eq!(&ds.powers()[12..18], [10.0, 0.0, 1.0, 11.0, 0.0, 1.0]);
        // Rows appended later follow the blocks.
        ds.push_row(&[1.0, 2.0], &[3.0, 4.0, 5.0]).unwrap();
        assert_eq!(ds.rows(8..).temps(), [1.0, 2.0]);
        assert!(ds.append_blocks(2, 0).iter().all(|b| b.remaining() == 0));
        assert_eq!(ds.len(), 9);
    }

    #[test]
    fn row_ranges_partition_in_place() {
        let ds = sample_dataset(10);
        let (train, test) = (ds.rows(..7), ds.rows(7..));
        assert_eq!(train.len(), 7);
        assert_eq!(test.len(), 3);
        assert_eq!(train.temps(), &ds.temps()[..14]);
        assert_eq!(test.temps(), &ds.temps()[14..]);
        assert_eq!(train.powers(), &ds.powers()[..21]);
        assert_eq!(test.powers(), &ds.powers()[21..]);
        assert_eq!(test.ambient_c(), ds.ambient_c());
        assert_eq!(test.sample_period_s(), ds.sample_period_s());
        assert_eq!(test.sample(1), (&ds.temps()[16..18], &ds.powers()[24..27]));
        assert_eq!(ds.rows(..).len(), 10);
        assert_eq!(ds.rows(2..=4).temps(), &ds.temps()[4..10]);
        assert!(ds.rows(10..).is_empty());
    }

    #[test]
    fn row_ranges_are_bounds_checked() {
        let ds = sample_dataset(3);
        for range in [(0, 4), (2, 1), (4, 4)] {
            let outcome = std::panic::catch_unwind(|| ds.rows(range.0..range.1).len());
            assert!(outcome.is_err(), "rows {range:?} of 3");
        }
        assert!(std::panic::catch_unwind(|| ds.rows(..=usize::MAX).len()).is_err());
    }
}
