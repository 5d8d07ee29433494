//! Instantaneous resource demand of a running workload.

/// What the running workload asks of the platform during one control interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Demand {
    /// Number of parallel CPU work streams currently runnable (including the
    /// background load). A value of 2.5 means two fully busy cores plus one
    /// half-busy core's worth of work.
    pub cpu_streams: f64,
    /// Switching-activity factor of the executing code, 0..1.
    pub activity_factor: f64,
    /// GPU utilisation, 0..1.
    pub gpu_utilization: f64,
    /// Memory-subsystem intensity, 0..1.
    pub memory_intensity: f64,
    /// How strongly progress scales with CPU frequency, 0..1: 1 means fully
    /// compute bound (halving the clock halves the progress rate), 0 means
    /// fully memory/IO bound (the clock barely matters). Mi-Bench kernels sit
    /// between the two, which is why frequency throttling costs the paper much
    /// less performance than the power it saves.
    pub frequency_scalability: f64,
}

impl Default for Demand {
    fn default() -> Self {
        Demand {
            cpu_streams: 0.0,
            activity_factor: 0.0,
            gpu_utilization: 0.0,
            memory_intensity: 0.0,
            frequency_scalability: 1.0,
        }
    }
}

impl Demand {
    /// A completely idle demand (only meaningful for a finished workload with
    /// no background load).
    pub fn idle() -> Self {
        Demand::default()
    }

    /// Clamps every field to its physical range (streams to `0..=4`,
    /// everything else to `0..=1`).
    pub fn clamped(self) -> Self {
        Demand {
            cpu_streams: self.cpu_streams.clamp(0.0, 4.0),
            activity_factor: self.activity_factor.clamp(0.0, 1.0),
            gpu_utilization: self.gpu_utilization.clamp(0.0, 1.0),
            memory_intensity: self.memory_intensity.clamp(0.0, 1.0),
            frequency_scalability: self.frequency_scalability.clamp(0.0, 1.0),
        }
    }
}

/// The ever-present Android/kernel background load the paper keeps running
/// during all experiments ("all background processes were allowed to run").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackgroundLoad {
    /// Additional CPU work streams contributed by background processes.
    pub cpu_streams: f64,
    /// Activity factor of the background work.
    pub activity_factor: f64,
    /// Memory intensity contributed by background processes.
    pub memory_intensity: f64,
}

impl BackgroundLoad {
    /// The default Android stack background load: a few lightweight services
    /// adding roughly a fifth of a core of low-activity work.
    pub fn android_default() -> Self {
        BackgroundLoad {
            cpu_streams: 0.20,
            activity_factor: 0.25,
            memory_intensity: 0.15,
        }
    }

    /// No background load at all (used by unit tests and the furnace
    /// characterisation, which wants the lightest possible workload).
    pub fn none() -> Self {
        BackgroundLoad {
            cpu_streams: 0.0,
            activity_factor: 0.0,
            memory_intensity: 0.0,
        }
    }

    /// Merges the background load into a foreground demand. Activity factors
    /// combine as a work-weighted average; stream counts add (saturating at
    /// four cores); memory intensities add with clamping.
    pub fn combine(&self, foreground: Demand) -> Demand {
        let total_streams = foreground.cpu_streams + self.cpu_streams;
        let activity = if total_streams > 0.0 {
            (foreground.activity_factor * foreground.cpu_streams
                + self.activity_factor * self.cpu_streams)
                / total_streams
        } else {
            0.0
        };
        Demand {
            cpu_streams: total_streams,
            activity_factor: activity,
            gpu_utilization: foreground.gpu_utilization,
            memory_intensity: foreground.memory_intensity + self.memory_intensity,
            frequency_scalability: foreground.frequency_scalability,
        }
        .clamped()
    }
}

impl Default for BackgroundLoad {
    fn default() -> Self {
        BackgroundLoad::android_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamping_limits_all_fields() {
        let d = Demand {
            cpu_streams: 9.0,
            activity_factor: 1.5,
            gpu_utilization: -0.2,
            memory_intensity: 2.0,
            frequency_scalability: 1.4,
        }
        .clamped();
        assert_eq!(d.cpu_streams, 4.0);
        assert_eq!(d.activity_factor, 1.0);
        assert_eq!(d.gpu_utilization, 0.0);
        assert_eq!(d.memory_intensity, 1.0);
        assert_eq!(d.frequency_scalability, 1.0);
    }

    #[test]
    fn background_combination_adds_streams() {
        let bg = BackgroundLoad::android_default();
        let fg = Demand {
            cpu_streams: 1.0,
            activity_factor: 0.8,
            gpu_utilization: 0.3,
            memory_intensity: 0.4,
            frequency_scalability: 0.7,
        };
        let combined = bg.combine(fg);
        assert!((combined.cpu_streams - 1.2).abs() < 1e-12);
        // Weighted activity sits between the background's and the foreground's.
        assert!(combined.activity_factor < 0.8 && combined.activity_factor > 0.25);
        assert_eq!(combined.gpu_utilization, 0.3);
        assert!((combined.memory_intensity - 0.55).abs() < 1e-12);
        assert_eq!(combined.frequency_scalability, 0.7);
    }

    #[test]
    fn no_background_is_identity() {
        let fg = Demand {
            cpu_streams: 2.0,
            activity_factor: 0.7,
            gpu_utilization: 0.1,
            memory_intensity: 0.2,
            frequency_scalability: 0.9,
        };
        let combined = BackgroundLoad::none().combine(fg);
        assert_eq!(combined, fg.clamped());
    }

    #[test]
    fn idle_foreground_with_background_keeps_background_activity() {
        let combined = BackgroundLoad::android_default().combine(Demand::idle());
        assert!((combined.cpu_streams - 0.2).abs() < 1e-12);
        assert!((combined.activity_factor - 0.25).abs() < 1e-12);
    }
}
