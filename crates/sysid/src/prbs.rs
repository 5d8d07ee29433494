//! Pseudo-random binary sequence (PRBS) excitation signals.
//!
//! The paper oscillates the frequency of one power source between its minimum
//! and maximum values following a PRBS, because the PRBS spectrum is much
//! broader than anything an ordinary application would excite (Section 4.2.1,
//! Figure 4.8). The sequence here is generated with a maximal-length linear
//! feedback shift register, so it is reproducible from a seed.

use crate::SysIdError;

/// Configuration of a PRBS excitation signal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrbsConfig {
    /// LFSR register length in bits (4..=16). A register of `n` bits yields a
    /// sequence that repeats after `2^n − 1` bits.
    pub register_bits: u32,
    /// How many control intervals each PRBS bit is held for. The paper's
    /// control interval is 100 ms and thermal time constants are seconds, so
    /// holding each bit for several intervals concentrates the excitation in
    /// the thermally relevant band.
    pub hold_intervals: usize,
    /// Signal value when the bit is 0 (e.g. the minimum frequency or power).
    pub low: f64,
    /// Signal value when the bit is 1 (e.g. the maximum frequency or power).
    pub high: f64,
    /// Seed for the LFSR initial state (must not be zero; it is masked to the
    /// register length).
    pub seed: u32,
}

impl Default for PrbsConfig {
    fn default() -> Self {
        PrbsConfig {
            register_bits: 10,
            hold_intervals: 5,
            low: 0.0,
            high: 1.0,
            seed: 0x2f5,
        }
    }
}

/// A generated PRBS signal, one value per control interval.
#[derive(Debug, Clone, PartialEq)]
pub struct PrbsSignal {
    values: Vec<f64>,
    config: PrbsConfig,
}

/// Feedback tap masks producing maximal-length sequences for register lengths
/// 4..=16 (taps from the standard LFSR tables, expressed as XOR masks).
fn taps_for(register_bits: u32) -> Option<u32> {
    let mask = match register_bits {
        4 => 0b1001,
        5 => 0b10010,
        6 => 0b100001,
        7 => 0b1000001,
        8 => 0b10111000,
        9 => 0b100001000,
        10 => 0b1000000100,
        11 => 0b10000000010,
        12 => 0b100000101001,
        13 => 0b1000000001101,
        14 => 0b10000000010101,
        15 => 0b100000000000001,
        16 => 0b1000000000010110,
        _ => return None,
    };
    Some(mask)
}

impl PrbsSignal {
    /// Generates `length` control-interval values according to the config.
    ///
    /// # Errors
    ///
    /// Returns [`SysIdError::InvalidConfig`] if the register length is outside
    /// 4..=16, the hold count is zero, the length is zero, or the high level
    /// is not above the low level.
    pub fn generate(config: PrbsConfig, length: usize) -> Result<Self, SysIdError> {
        let taps = taps_for(config.register_bits).ok_or(SysIdError::InvalidConfig(
            "register length must be in 4..=16",
        ))?;
        if config.hold_intervals == 0 {
            return Err(SysIdError::InvalidConfig(
                "hold interval count must be non-zero",
            ));
        }
        if length == 0 {
            return Err(SysIdError::InvalidConfig("signal length must be non-zero"));
        }
        if !(config.high > config.low) {
            return Err(SysIdError::InvalidConfig(
                "high level must be greater than low level",
            ));
        }
        let register_mask = (1u32 << config.register_bits) - 1;
        let mut state = config.seed & register_mask;
        if state == 0 {
            state = 1;
        }

        let mut values = Vec::with_capacity(length);
        let mut current_bit = (state & 1) == 1;
        let mut hold = 0usize;
        while values.len() < length {
            if hold == 0 {
                // Galois LFSR step.
                let lsb = state & 1;
                state >>= 1;
                if lsb == 1 {
                    state ^= taps >> 1;
                    state |= 1 << (config.register_bits - 1);
                }
                state &= register_mask;
                current_bit = (state & 1) == 1;
                hold = config.hold_intervals;
            }
            values.push(if current_bit { config.high } else { config.low });
            hold -= 1;
        }
        Ok(PrbsSignal { values, config })
    }

    /// The generated values, one per control interval.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The configuration used to generate the signal.
    pub fn config(&self) -> &PrbsConfig {
        &self.config
    }

    /// Number of control intervals.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if the signal is empty (never the case for a generated
    /// signal).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Fraction of intervals spent at the high level.
    pub fn duty_cycle(&self) -> f64 {
        let high = self
            .values
            .iter()
            .filter(|&&v| (v - self.config.high).abs() < f64::EPSILON)
            .count();
        high as f64 / self.values.len() as f64
    }

    /// Number of low/high transitions in the signal.
    pub fn transition_count(&self) -> usize {
        self.values
            .windows(2)
            .filter(|w| (w[0] - w[1]).abs() > f64::EPSILON)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_length_with_two_levels() {
        let cfg = PrbsConfig {
            low: 800.0,
            high: 1600.0,
            ..PrbsConfig::default()
        };
        let signal = PrbsSignal::generate(cfg, 5000).unwrap();
        assert_eq!(signal.len(), 5000);
        assert!(signal.values().iter().all(|&v| v == 800.0 || v == 1600.0));
    }

    #[test]
    fn duty_cycle_is_roughly_balanced() {
        let signal = PrbsSignal::generate(PrbsConfig::default(), 10_000).unwrap();
        let duty = signal.duty_cycle();
        assert!((0.4..0.6).contains(&duty), "duty cycle {duty}");
    }

    #[test]
    fn holds_each_bit_for_the_configured_intervals() {
        let cfg = PrbsConfig {
            hold_intervals: 7,
            ..PrbsConfig::default()
        };
        let signal = PrbsSignal::generate(cfg, 2000).unwrap();
        // Run lengths must be multiples of the hold count (except possibly the
        // last, truncated run).
        let mut run = 1usize;
        let mut runs = Vec::new();
        for w in signal.values().windows(2) {
            if (w[0] - w[1]).abs() > f64::EPSILON {
                runs.push(run);
                run = 1;
            } else {
                run += 1;
            }
        }
        assert!(!runs.is_empty());
        assert!(runs.iter().all(|r| r % 7 == 0), "runs {runs:?}");
    }

    #[test]
    fn is_reproducible_and_seed_sensitive() {
        let a = PrbsSignal::generate(PrbsConfig::default(), 500).unwrap();
        let b = PrbsSignal::generate(PrbsConfig::default(), 500).unwrap();
        assert_eq!(a.values(), b.values());
        let c = PrbsSignal::generate(
            PrbsConfig {
                seed: 0x1ab,
                ..PrbsConfig::default()
            },
            500,
        )
        .unwrap();
        assert_ne!(a.values(), c.values());
    }

    #[test]
    fn has_many_transitions() {
        let signal = PrbsSignal::generate(PrbsConfig::default(), 5000).unwrap();
        // With a hold of 5 the expected number of transitions is ~500.
        assert!(
            signal.transition_count() > 200,
            "{}",
            signal.transition_count()
        );
    }

    #[test]
    fn zero_seed_is_fixed_up() {
        let signal = PrbsSignal::generate(
            PrbsConfig {
                seed: 0,
                ..PrbsConfig::default()
            },
            100,
        )
        .unwrap();
        // A zero seed would lock a plain LFSR at zero; the generator must
        // still produce both levels.
        assert!(signal.transition_count() > 0);
    }

    #[test]
    fn all_register_lengths_produce_balanced_sequences() {
        for bits in 4..=16 {
            let cfg = PrbsConfig {
                register_bits: bits,
                hold_intervals: 1,
                ..PrbsConfig::default()
            };
            let signal = PrbsSignal::generate(cfg, 4000).unwrap();
            let duty = signal.duty_cycle();
            assert!(
                (0.3..0.7).contains(&duty),
                "register {bits} duty cycle {duty}"
            );
        }
    }

    #[test]
    fn rejects_invalid_configs() {
        assert!(PrbsSignal::generate(
            PrbsConfig {
                register_bits: 3,
                ..PrbsConfig::default()
            },
            100
        )
        .is_err());
        assert!(PrbsSignal::generate(
            PrbsConfig {
                hold_intervals: 0,
                ..PrbsConfig::default()
            },
            100
        )
        .is_err());
        assert!(PrbsSignal::generate(PrbsConfig::default(), 0).is_err());
        assert!(PrbsSignal::generate(
            PrbsConfig {
                low: 2.0,
                high: 1.0,
                ..PrbsConfig::default()
            },
            100
        )
        .is_err());
    }
}
