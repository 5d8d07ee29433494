//! Run-time state of an executing workload.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::catalog::{Benchmark, BenchmarkId};
use crate::demand::{BackgroundLoad, Demand};

/// Tracks how far a benchmark has progressed through its work profile.
///
/// The simulator queries [`WorkloadState::demand`] every control interval,
/// computes how much work the platform completed given the current frequency
/// and core configuration, and reports it back via [`WorkloadState::advance`].
/// Execution time is therefore an *output* of the simulation — throttling the
/// platform stretches the run exactly as it would on hardware, which is how
/// the paper measures performance loss.
#[derive(Debug, Clone)]
pub struct WorkloadState {
    benchmark: Benchmark,
    background: BackgroundLoad,
    completed_work: f64,
    /// Per-tick multiplicative jitter applied to the demand, emulating the
    /// natural variability of real applications.
    jitter_amplitude: f64,
    rng: StdRng,
}

impl WorkloadState {
    /// Starts the given benchmark with the default Android background load.
    pub fn new(id: BenchmarkId, seed: u64) -> Self {
        WorkloadState::with_background(id, seed, BackgroundLoad::android_default())
    }

    /// Starts the given benchmark with an explicit background load.
    pub fn with_background(id: BenchmarkId, seed: u64, background: BackgroundLoad) -> Self {
        WorkloadState {
            benchmark: id.spec(),
            background,
            completed_work: 0.0,
            jitter_amplitude: 0.06,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The benchmark being executed.
    pub fn benchmark(&self) -> &Benchmark {
        &self.benchmark
    }

    /// Total work of the benchmark, in work units.
    pub fn total_work_units(&self) -> f64 {
        self.benchmark.total_work_units()
    }

    /// Work completed so far, in work units.
    pub fn completed_work_units(&self) -> f64 {
        self.completed_work
    }

    /// Progress through the benchmark, 0..1.
    pub fn progress(&self) -> f64 {
        (self.completed_work / self.total_work_units()).clamp(0.0, 1.0)
    }

    /// Returns `true` once all work has been completed.
    pub fn is_complete(&self) -> bool {
        self.completed_work >= self.total_work_units()
    }

    /// The phase currently executing (the last phase once complete).
    fn current_phase_index(&self) -> usize {
        let mut boundary = 0.0;
        for (i, phase) in self.benchmark.phases.iter().enumerate() {
            boundary += phase.work_units;
            if self.completed_work < boundary {
                return i;
            }
        }
        self.benchmark.phases.len() - 1
    }

    /// The resource demand for the current control interval, including the
    /// background load and a small amount of seeded random jitter.
    ///
    /// Once the benchmark has completed, only the background load remains.
    pub fn demand(&mut self) -> Demand {
        if self.is_complete() {
            return self.background.combine(Demand::idle());
        }
        let phase = &self.benchmark.phases[self.current_phase_index()];
        let jitter = |rng: &mut StdRng, amplitude: f64| 1.0 + rng.gen_range(-amplitude..amplitude);
        let foreground = Demand {
            cpu_streams: phase.cpu_streams * jitter(&mut self.rng, self.jitter_amplitude),
            activity_factor: phase.activity_factor * jitter(&mut self.rng, self.jitter_amplitude),
            gpu_utilization: if phase.gpu_utilization > 0.0 {
                (phase.gpu_utilization * jitter(&mut self.rng, self.jitter_amplitude)).min(1.0)
            } else {
                0.0
            },
            memory_intensity: phase.memory_intensity * jitter(&mut self.rng, self.jitter_amplitude),
            frequency_scalability: self.benchmark.id.frequency_scalability(),
        };
        self.background.combine(foreground.clamped())
    }

    /// Reports that the platform completed `work_units` of CPU work during the
    /// last control interval. Negative amounts are ignored.
    pub fn advance(&mut self, work_units: f64) {
        if work_units > 0.0 {
            self.completed_work += work_units;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progress_advances_monotonically_to_completion() {
        let mut wl = WorkloadState::new(BenchmarkId::Dijkstra, 1);
        assert_eq!(wl.progress(), 0.0);
        let mut last = 0.0;
        let mut ticks = 0usize;
        while !wl.is_complete() && ticks < 100_000 {
            // One big core at 1.6 GHz fully busy for 100 ms.
            wl.advance(1.6 * 0.1);
            assert!(wl.progress() >= last);
            last = wl.progress();
            ticks += 1;
        }
        assert!(wl.is_complete());
        assert_eq!(wl.progress(), 1.0);
        // Dijkstra has 110 work units: at 0.16 units per tick that is ~690 ticks.
        assert!((600..800).contains(&ticks), "ticks {ticks}");
    }

    #[test]
    fn throttled_execution_takes_longer() {
        let run = |work_per_tick: f64| {
            let mut wl = WorkloadState::new(BenchmarkId::Bitcount, 2);
            let mut ticks = 0usize;
            while !wl.is_complete() && ticks < 1_000_000 {
                wl.advance(work_per_tick);
                ticks += 1;
            }
            ticks
        };
        let full_speed = run(1.6 * 0.1);
        let throttled = run(1.0 * 0.1);
        assert!(throttled as f64 > full_speed as f64 * 1.5);
    }

    #[test]
    fn demand_reflects_phase_profile_with_bounded_jitter() {
        let mut wl = WorkloadState::new(BenchmarkId::MatrixMult, 3);
        for _ in 0..50 {
            let d = wl.demand();
            assert!(
                d.cpu_streams > 3.0 && d.cpu_streams <= 4.0,
                "streams {}",
                d.cpu_streams
            );
            assert!(d.activity_factor > 0.8 && d.activity_factor <= 1.0);
            assert_eq!(d.gpu_utilization, 0.0);
        }
    }

    #[test]
    fn gpu_benchmarks_request_gpu_time() {
        let mut wl = WorkloadState::new(BenchmarkId::Templerun, 4);
        let d = wl.demand();
        assert!(d.gpu_utilization > 0.4);
    }

    #[test]
    fn completed_workload_leaves_only_background() {
        let mut wl = WorkloadState::new(BenchmarkId::Crc32, 5);
        wl.advance(wl.total_work_units() + 1.0);
        assert!(wl.is_complete());
        let d = wl.demand();
        assert!((d.cpu_streams - 0.2).abs() < 1e-9);
        assert_eq!(d.gpu_utilization, 0.0);
    }

    #[test]
    fn negative_advance_is_ignored() {
        let mut wl = WorkloadState::new(BenchmarkId::Sha, 6);
        wl.advance(-10.0);
        assert_eq!(wl.completed_work_units(), 0.0);
    }

    #[test]
    fn phases_are_visited_in_order() {
        let mut wl = WorkloadState::new(BenchmarkId::Patricia, 7);
        let spec = wl.benchmark().clone();
        // Advance into the second phase and check the demand tracks it.
        wl.advance(spec.phases[0].work_units + 1.0);
        let d = wl.demand();
        // Phase 1 of patricia has higher stream count than phase 0.
        assert!(d.cpu_streams > spec.phases[0].cpu_streams - 0.3);
    }

    #[test]
    fn same_seed_gives_identical_demand_sequence() {
        let mut a = WorkloadState::new(BenchmarkId::Gsm, 99);
        let mut b = WorkloadState::new(BenchmarkId::Gsm, 99);
        for _ in 0..20 {
            assert_eq!(a.demand(), b.demand());
            a.advance(0.1);
            b.advance(0.1);
        }
        let mut c = WorkloadState::new(BenchmarkId::Gsm, 100);
        let first_a = WorkloadState::new(BenchmarkId::Gsm, 99).demand();
        assert_ne!(c.demand(), first_a);
    }

    #[test]
    fn no_background_variant_is_lighter() {
        let mut with_bg = WorkloadState::new(BenchmarkId::Blowfish, 8);
        let mut without_bg =
            WorkloadState::with_background(BenchmarkId::Blowfish, 8, BackgroundLoad::none());
        let d_with = with_bg.demand();
        let d_without = without_bg.demand();
        assert!(d_with.cpu_streams > d_without.cpu_streams);
    }
}
