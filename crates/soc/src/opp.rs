//! Operating performance points (frequency/voltage pairs) and OPP tables.
//!
//! The Exynos 5410 exposes nine discrete frequency levels for the big (A15)
//! cluster, eight for the little (A7) cluster and five for the GPU — Tables
//! 6.1, 6.2 and 6.3 of the paper. Each frequency implies a supply voltage
//! (DVFS), which the power model needs for `P_dyn = αCV²f` and
//! `P_leak = V·I_leak`.

use crate::SocError;

/// A clock frequency, stored in MHz.
///
/// # Example
///
/// ```
/// use soc_model::Frequency;
///
/// let f = Frequency::from_mhz(1600);
/// assert_eq!(f.mhz(), 1600);
/// assert!((f.ghz() - 1.6).abs() < 1e-12);
/// assert!((f.hz() - 1.6e9).abs() < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Frequency(u32);

impl Frequency {
    /// Creates a frequency from a value in MHz.
    pub fn from_mhz(mhz: u32) -> Self {
        Frequency(mhz)
    }

    /// Frequency in MHz.
    pub fn mhz(self) -> u32 {
        self.0
    }

    /// Frequency in GHz.
    pub fn ghz(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Frequency in Hz.
    pub fn hz(self) -> f64 {
        self.0 as f64 * 1.0e6
    }
}

impl std::fmt::Display for Frequency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} MHz", self.0)
    }
}

/// A supply voltage in volts.
///
/// # Example
///
/// ```
/// use soc_model::Voltage;
///
/// let v = Voltage::from_volts(1.1);
/// assert_eq!(v.volts(), 1.1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Voltage(f64);

impl Voltage {
    /// Creates a voltage from a value in volts.
    pub fn from_volts(volts: f64) -> Self {
        Voltage(volts)
    }

    /// Voltage in volts.
    pub fn volts(self) -> f64 {
        self.0
    }
}

impl std::fmt::Display for Voltage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3} V", self.0)
    }
}

/// One operating performance point: a frequency and the voltage it requires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Clock frequency of this operating point.
    pub frequency: Frequency,
    /// Supply voltage required at this frequency.
    pub voltage: Voltage,
}

impl OperatingPoint {
    /// Creates an operating point from a frequency in MHz and a voltage in volts.
    pub fn new(mhz: u32, volts: f64) -> Self {
        OperatingPoint {
            frequency: Frequency::from_mhz(mhz),
            voltage: Voltage::from_volts(volts),
        }
    }
}

/// An ordered table of operating performance points (lowest frequency first).
///
/// # Example
///
/// ```
/// use soc_model::{Frequency, OppTable};
///
/// let table = OppTable::exynos5410_big();
/// assert_eq!(table.len(), 9);                         // Table 6.1
/// assert_eq!(table.lowest().frequency.mhz(), 800);
/// assert_eq!(table.highest().frequency.mhz(), 1600);
///
/// // The DTPM algorithm maps a continuous budget frequency onto the next
/// // lower discrete level.
/// let f = table.floor(Frequency::from_mhz(1234)).unwrap();
/// assert_eq!(f.frequency.mhz(), 1200);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OppTable {
    points: Vec<OperatingPoint>,
}

impl OppTable {
    /// Builds an OPP table from the given points.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidOppTable`] if the table is empty or the
    /// frequencies are not strictly increasing.
    pub fn new(points: Vec<OperatingPoint>) -> Result<Self, SocError> {
        if points.is_empty() {
            return Err(SocError::InvalidOppTable("table must not be empty"));
        }
        if points.windows(2).any(|w| w[1].frequency <= w[0].frequency) {
            return Err(SocError::InvalidOppTable(
                "frequencies must be strictly increasing",
            ));
        }
        if points.iter().any(|p| p.voltage.volts() <= 0.0) {
            return Err(SocError::InvalidOppTable("voltages must be positive"));
        }
        Ok(OppTable { points })
    }

    /// Big (Cortex-A15) cluster table of the Exynos 5410 — Table 6.1 of the
    /// paper (800–1600 MHz in 100 MHz steps) with representative supply
    /// voltages.
    pub fn exynos5410_big() -> Self {
        OppTable::new(vec![
            OperatingPoint::new(800, 0.92),
            OperatingPoint::new(900, 0.95),
            OperatingPoint::new(1000, 0.98),
            OperatingPoint::new(1100, 1.01),
            OperatingPoint::new(1200, 1.04),
            OperatingPoint::new(1300, 1.08),
            OperatingPoint::new(1400, 1.12),
            OperatingPoint::new(1500, 1.16),
            OperatingPoint::new(1600, 1.20),
        ])
        .expect("static table is valid")
    }

    /// Little (Cortex-A7) cluster table — Table 6.2 of the paper
    /// (500–1200 MHz in 100 MHz steps).
    pub fn exynos5410_little() -> Self {
        OppTable::new(vec![
            OperatingPoint::new(500, 0.90),
            OperatingPoint::new(600, 0.92),
            OperatingPoint::new(700, 0.95),
            OperatingPoint::new(800, 0.98),
            OperatingPoint::new(900, 1.02),
            OperatingPoint::new(1000, 1.05),
            OperatingPoint::new(1100, 1.10),
            OperatingPoint::new(1200, 1.15),
        ])
        .expect("static table is valid")
    }

    /// GPU table — Table 6.3 of the paper (177–533 MHz, five levels).
    pub fn exynos5410_gpu() -> Self {
        OppTable::new(vec![
            OperatingPoint::new(177, 0.85),
            OperatingPoint::new(266, 0.90),
            OperatingPoint::new(350, 0.95),
            OperatingPoint::new(480, 1.02),
            OperatingPoint::new(533, 1.05),
        ])
        .expect("static table is valid")
    }

    /// Number of operating points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` if the table has no entries (never the case for a
    /// successfully constructed table).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Operating points, lowest frequency first.
    pub fn points(&self) -> &[OperatingPoint] {
        &self.points
    }

    /// Lowest-frequency operating point.
    pub fn lowest(&self) -> OperatingPoint {
        self.points[0]
    }

    /// Highest-frequency operating point.
    pub fn highest(&self) -> OperatingPoint {
        *self.points.last().expect("table is non-empty")
    }

    /// Index of the operating point with exactly the given frequency.
    pub fn index_of(&self, frequency: Frequency) -> Option<usize> {
        self.points.iter().position(|p| p.frequency == frequency)
    }

    /// Operating point at `index`, if it exists.
    pub fn get(&self, index: usize) -> Option<OperatingPoint> {
        self.points.get(index).copied()
    }

    /// The voltage of the operating point with the given frequency.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::UnsupportedFrequency`] if the frequency is not in
    /// the table.
    pub fn voltage_for(&self, frequency: Frequency) -> Result<Voltage, SocError> {
        self.points
            .iter()
            .find(|p| p.frequency == frequency)
            .map(|p| p.voltage)
            .ok_or(SocError::UnsupportedFrequency {
                target: "opp table",
                requested_mhz: frequency.mhz(),
            })
    }

    /// Highest operating point whose frequency does not exceed `frequency`.
    ///
    /// Returns `None` when `frequency` is below the lowest supported level;
    /// this is the signal the DTPM algorithm uses to conclude that the budget
    /// cannot be met even at `f_min` and that it must drop a core or migrate
    /// to the little cluster.
    pub fn floor(&self, frequency: Frequency) -> Option<OperatingPoint> {
        self.points
            .iter()
            .rev()
            .find(|p| p.frequency <= frequency)
            .copied()
    }

    /// Lowest operating point whose frequency is at least `frequency`
    /// (clamped to the highest level).
    pub fn ceil(&self, frequency: Frequency) -> OperatingPoint {
        self.points
            .iter()
            .find(|p| p.frequency >= frequency)
            .copied()
            .unwrap_or_else(|| self.highest())
    }

    /// The operating point one level below the given frequency, or `None` if
    /// already at (or below) the lowest level.
    pub fn step_down(&self, frequency: Frequency) -> Option<OperatingPoint> {
        let idx = self.index_of(frequency)?;
        if idx == 0 {
            None
        } else {
            Some(self.points[idx - 1])
        }
    }

    /// Returns the operating point closest to scaling `frequency` by `factor`
    /// without exceeding it (used by the reactive throttling heuristic that
    /// cuts the frequency by 18 % / 25 %).
    pub fn scaled_floor(&self, frequency: Frequency, factor: f64) -> OperatingPoint {
        let target = Frequency::from_mhz((frequency.mhz() as f64 * factor).round() as u32);
        self.floor(target).unwrap_or_else(|| self.lowest())
    }

    /// All frequencies in the table, lowest first.
    pub fn frequencies(&self) -> Vec<Frequency> {
        self.points.iter().map(|p| p.frequency).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_tables_have_documented_sizes() {
        assert_eq!(OppTable::exynos5410_big().len(), 9);
        assert_eq!(OppTable::exynos5410_little().len(), 8);
        assert_eq!(OppTable::exynos5410_gpu().len(), 5);
    }

    #[test]
    fn paper_table_frequency_ranges() {
        let big = OppTable::exynos5410_big();
        assert_eq!(big.lowest().frequency.mhz(), 800);
        assert_eq!(big.highest().frequency.mhz(), 1600);
        let little = OppTable::exynos5410_little();
        assert_eq!(little.lowest().frequency.mhz(), 500);
        assert_eq!(little.highest().frequency.mhz(), 1200);
        let gpu = OppTable::exynos5410_gpu();
        assert_eq!(gpu.lowest().frequency.mhz(), 177);
        assert_eq!(gpu.highest().frequency.mhz(), 533);
    }

    #[test]
    fn voltages_increase_with_frequency() {
        for table in [
            OppTable::exynos5410_big(),
            OppTable::exynos5410_little(),
            OppTable::exynos5410_gpu(),
        ] {
            let volts: Vec<f64> = table.points().iter().map(|p| p.voltage.volts()).collect();
            assert!(volts.windows(2).all(|w| w[1] > w[0]), "{volts:?}");
        }
    }

    #[test]
    fn empty_and_unsorted_tables_rejected() {
        assert!(OppTable::new(vec![]).is_err());
        assert!(OppTable::new(vec![
            OperatingPoint::new(1000, 1.0),
            OperatingPoint::new(900, 0.9),
        ])
        .is_err());
        assert!(OppTable::new(vec![
            OperatingPoint::new(900, 0.9),
            OperatingPoint::new(900, 1.0),
        ])
        .is_err());
        assert!(OppTable::new(vec![OperatingPoint::new(900, 0.0)]).is_err());
    }

    #[test]
    fn floor_and_ceil() {
        let t = OppTable::exynos5410_big();
        assert_eq!(
            t.floor(Frequency::from_mhz(1650)).unwrap().frequency.mhz(),
            1600
        );
        assert_eq!(
            t.floor(Frequency::from_mhz(1599)).unwrap().frequency.mhz(),
            1500
        );
        assert_eq!(
            t.floor(Frequency::from_mhz(800)).unwrap().frequency.mhz(),
            800
        );
        assert!(t.floor(Frequency::from_mhz(799)).is_none());
        assert_eq!(t.ceil(Frequency::from_mhz(0)).frequency.mhz(), 800);
        assert_eq!(t.ceil(Frequency::from_mhz(1601)).frequency.mhz(), 1600);
        assert_eq!(t.ceil(Frequency::from_mhz(1250)).frequency.mhz(), 1300);
    }

    #[test]
    fn step_down_moves_one_level() {
        let t = OppTable::exynos5410_little();
        assert!(t.step_down(Frequency::from_mhz(500)).is_none());
        assert_eq!(
            t.step_down(Frequency::from_mhz(1200))
                .unwrap()
                .frequency
                .mhz(),
            1100
        );
        // Frequencies not in the table have no neighbours.
        assert!(t.step_down(Frequency::from_mhz(555)).is_none());
    }

    #[test]
    fn scaled_floor_mimics_reactive_throttling() {
        let t = OppTable::exynos5410_big();
        // 18% throttle from 1600 MHz -> 1312 MHz -> snaps to 1300 MHz.
        let op = t.scaled_floor(Frequency::from_mhz(1600), 0.82);
        assert_eq!(op.frequency.mhz(), 1300);
        // 25% throttle from 1600 MHz -> 1200 MHz exactly.
        let op = t.scaled_floor(Frequency::from_mhz(1600), 0.75);
        assert_eq!(op.frequency.mhz(), 1200);
        // Throttling below the minimum clamps to the minimum.
        let op = t.scaled_floor(Frequency::from_mhz(800), 0.5);
        assert_eq!(op.frequency.mhz(), 800);
    }

    #[test]
    fn voltage_lookup() {
        let t = OppTable::exynos5410_big();
        assert_eq!(
            t.voltage_for(Frequency::from_mhz(1600)).unwrap().volts(),
            1.20
        );
        assert!(matches!(
            t.voltage_for(Frequency::from_mhz(1234)),
            Err(SocError::UnsupportedFrequency { .. })
        ));
    }

    #[test]
    fn index_and_get_round_trip() {
        let t = OppTable::exynos5410_gpu();
        for (i, p) in t.points().iter().enumerate() {
            assert_eq!(t.index_of(p.frequency), Some(i));
            assert_eq!(t.get(i), Some(*p));
        }
        assert_eq!(t.get(100), None);
        assert_eq!(t.index_of(Frequency::from_mhz(1)), None);
    }

    #[test]
    fn frequency_conversions() {
        let f = Frequency::from_mhz(1500);
        assert_eq!(f.ghz(), 1.5);
        assert_eq!(f.hz(), 1.5e9);
        assert_eq!(format!("{f}"), "1500 MHz");
        assert_eq!(format!("{}", Voltage::from_volts(1.05)), "1.050 V");
    }
}
