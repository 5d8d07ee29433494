//! Logged identification data: synchronous temperature and power time series.

use numeric::Vector;

use crate::SysIdError;

/// A time-synchronous log of hotspot temperatures and domain powers, sampled
/// at the control-interval rate, used as input to the identification.
///
/// Temperatures are stored as measured (absolute °C); the identification and
/// validation routines work on temperatures *relative to the ambient*, which
/// the dataset computes via [`IdentificationDataset::relative_temps`].
///
/// # Layout
///
/// Samples are stored row-major in two flat buffers: sample `k`'s
/// temperatures are `temps()[k * state_count()..(k + 1) * state_count()]`
/// and its powers are `powers()[k * input_count()..(k + 1) * input_count()]`,
/// so `temps().chunks_exact(state_count())` walks the samples in order.
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
        if temps_c.len() != self.state_count {
            return Err(SysIdError::DimensionMismatch {
                what: "temperature sample",
                expected: self.state_count,
                actual: temps_c.len(),
            });
        }
        if powers_w.len() != self.input_count {
            return Err(SysIdError::DimensionMismatch {
                what: "power sample",
                expected: self.input_count,
                actual: powers_w.len(),
            });
        }
        self.temps.extend_from_slice(temps_c);
        self.powers.extend_from_slice(powers_w);
        Ok(())
    }

    /// Appends every sample of `other` to this dataset. The paper applies a
    /// separate PRBS experiment per power source; concatenating the logs lets
    /// a single least-squares problem see all of them.
    ///
    /// # Errors
    ///
    /// Returns [`SysIdError::DimensionMismatch`] if the datasets have
    /// different dimensions, or [`SysIdError::InvalidConfig`] if the sample
    /// periods differ.
    pub fn concatenate(&mut self, other: &IdentificationDataset) -> Result<(), SysIdError> {
        if other.state_count != self.state_count {
            return Err(SysIdError::DimensionMismatch {
                what: "state count",
                expected: self.state_count,
                actual: other.state_count,
            });
        }
        if other.input_count != self.input_count {
            return Err(SysIdError::DimensionMismatch {
                what: "input count",
                expected: self.input_count,
                actual: other.input_count,
            });
        }
        if (other.sample_period_s - self.sample_period_s).abs() > 1e-12 {
            return Err(SysIdError::InvalidConfig(
                "cannot concatenate datasets with different sample periods",
            ));
        }
        self.temps.extend_from_slice(&other.temps);
        self.powers.extend_from_slice(&other.powers);
        Ok(())
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

    /// Temperatures relative to the ambient (`T − T_amb`), the quantity the
    /// linear model is fitted on, in the row-major layout of
    /// [`temps`](Self::temps).
    pub fn relative_temps(&self) -> Vec<f64> {
        self.temps.iter().map(|t| t - self.ambient_c).collect()
    }

    /// Splits the dataset into an identification part (the first
    /// `fraction` of the samples) and a validation part (the rest).
    ///
    /// # Errors
    ///
    /// Returns [`SysIdError::InvalidConfig`] if `fraction` is not strictly
    /// between 0 and 1, or [`SysIdError::InsufficientData`] if either part
    /// would be empty.
    pub fn split(
        &self,
        fraction: f64,
    ) -> Result<(IdentificationDataset, IdentificationDataset), SysIdError> {
        if !(fraction > 0.0 && fraction < 1.0) {
            return Err(SysIdError::InvalidConfig(
                "split fraction must be strictly between 0 and 1",
            ));
        }
        let cut = (self.len() as f64 * fraction).round() as usize;
        if cut == 0 || cut >= self.len() {
            return Err(SysIdError::InsufficientData {
                required: 2,
                provided: self.len(),
            });
        }
        let (train_temps, test_temps) = self.temps.split_at(cut * self.state_count);
        let (train_powers, test_powers) = self.powers.split_at(cut * self.input_count);
        let part = |temps: &[f64], powers: &[f64]| IdentificationDataset {
            temps: temps.to_vec(),
            powers: powers.to_vec(),
            ..*self
        };
        Ok((
            part(train_temps, train_powers),
            part(test_temps, test_powers),
        ))
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
        let rel = ds.relative_temps();
        assert_eq!(rel, [5.0, 6.0, 6.0, 7.0, 7.0, 8.0]);
    }

    #[test]
    fn concatenation_appends_samples() {
        let mut a = sample_dataset(5);
        let b = sample_dataset(7);
        a.concatenate(&b).unwrap();
        assert_eq!(a.len(), 12);
        assert_eq!(&a.temps()[10..], b.temps());
        assert_eq!(&a.powers()[15..], b.powers());

        let mismatched = IdentificationDataset::new(3, 3, 0.1, 25.0).unwrap();
        assert!(a.concatenate(&mismatched).is_err());
        let wrong_period = IdentificationDataset::new(2, 3, 0.2, 25.0).unwrap();
        assert!(a.concatenate(&wrong_period).is_err());
    }

    #[test]
    fn split_partitions_in_order() {
        let ds = sample_dataset(10);
        let (train, test) = ds.split(0.7).unwrap();
        assert_eq!(train.len(), 7);
        assert_eq!(test.len(), 3);
        assert_eq!(train.temps(), &ds.temps()[..14]);
        assert_eq!(test.temps(), &ds.temps()[14..]);
        assert_eq!(train.powers(), &ds.powers()[..21]);
        assert_eq!(test.powers(), &ds.powers()[21..]);
        assert_eq!(test.ambient_c(), ds.ambient_c());
        assert!(ds.split(0.0).is_err());
        assert!(ds.split(1.0).is_err());
    }

    #[test]
    fn split_rejects_tiny_datasets() {
        let ds = sample_dataset(1);
        assert!(ds.split(0.5).is_err());
    }
}
