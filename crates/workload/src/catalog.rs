//! The benchmark catalogue (Table 6.4) and per-benchmark work profiles.

/// Relative CPU power intensity category used by the paper to group results
/// (low / medium / high activity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchmarkCategory {
    /// Light activity; the temperature barely approaches the constraint.
    Low,
    /// Moderate activity; occasional thermal throttling.
    Medium,
    /// Heavy activity; sustained operation near or above the constraint.
    High,
}

impl std::fmt::Display for BenchmarkCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchmarkCategory::Low => write!(f, "low"),
            BenchmarkCategory::Medium => write!(f, "medium"),
            BenchmarkCategory::High => write!(f, "high"),
        }
    }
}

/// Benchmark families used in Table 6.4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchmarkType {
    /// Encryption / hashing kernels (Blowfish, SHA).
    Security,
    /// Network kernels (Dijkstra, Patricia).
    Network,
    /// Computational kernels (Basicmath, matrix multiplication, Bitcount, Qsort).
    Computational,
    /// Telecommunication kernels (CRC32, GSM, FFT).
    Telecomm,
    /// Consumer-device codecs (JPEG).
    Consumer,
    /// Android games (Angry Birds, Temple Run).
    Games,
    /// Video playback (YouTube).
    Video,
    /// Explicitly multi-threaded kernels used for Figure 6.10 (FFT, LU).
    MultiThreaded,
}

/// Identifier of every benchmark used in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BenchmarkId {
    Blowfish,
    Sha,
    Dijkstra,
    Patricia,
    Basicmath,
    MatrixMult,
    Bitcount,
    Qsort,
    Crc32,
    Gsm,
    Fft,
    Jpeg,
    AngryBirds,
    Templerun,
    Youtube,
    FftMt,
    LuMt,
}

impl BenchmarkId {
    /// The 15 benchmarks of Table 6.4, in the order they appear in the paper.
    pub const PAPER_SET: [BenchmarkId; 15] = [
        BenchmarkId::Blowfish,
        BenchmarkId::Sha,
        BenchmarkId::Dijkstra,
        BenchmarkId::Patricia,
        BenchmarkId::Basicmath,
        BenchmarkId::MatrixMult,
        BenchmarkId::Bitcount,
        BenchmarkId::Qsort,
        BenchmarkId::Crc32,
        BenchmarkId::Gsm,
        BenchmarkId::Fft,
        BenchmarkId::Jpeg,
        BenchmarkId::AngryBirds,
        BenchmarkId::Templerun,
        BenchmarkId::Youtube,
    ];

    /// The multi-threaded benchmarks of Figure 6.10.
    pub const MULTI_THREADED_SET: [BenchmarkId; 2] = [BenchmarkId::FftMt, BenchmarkId::LuMt];

    /// Every modelled benchmark.
    pub const ALL: [BenchmarkId; 17] = [
        BenchmarkId::Blowfish,
        BenchmarkId::Sha,
        BenchmarkId::Dijkstra,
        BenchmarkId::Patricia,
        BenchmarkId::Basicmath,
        BenchmarkId::MatrixMult,
        BenchmarkId::Bitcount,
        BenchmarkId::Qsort,
        BenchmarkId::Crc32,
        BenchmarkId::Gsm,
        BenchmarkId::Fft,
        BenchmarkId::Jpeg,
        BenchmarkId::AngryBirds,
        BenchmarkId::Templerun,
        BenchmarkId::Youtube,
        BenchmarkId::FftMt,
        BenchmarkId::LuMt,
    ];

    /// Iterator over every modelled benchmark (the 15 of Table 6.4 plus the
    /// two explicitly multi-threaded kernels of Figure 6.10), in
    /// [`BenchmarkId::ALL`] order. This is the benchmark axis of evaluation
    /// grids; use [`BenchmarkId::paper_set`] for the paper's 15-benchmark
    /// sweep specifically.
    pub fn all() -> impl Iterator<Item = BenchmarkId> + Clone {
        BenchmarkId::ALL.into_iter()
    }

    /// Iterator over the paper's 15-benchmark evaluation set (Table 6.4), in
    /// paper order.
    pub fn paper_set() -> impl Iterator<Item = BenchmarkId> + Clone {
        BenchmarkId::PAPER_SET.into_iter()
    }

    /// Short lowercase name used in logs and CSV output.
    pub fn name(self) -> &'static str {
        match self {
            BenchmarkId::Blowfish => "blowfish",
            BenchmarkId::Sha => "sha",
            BenchmarkId::Dijkstra => "dijkstra",
            BenchmarkId::Patricia => "patricia",
            BenchmarkId::Basicmath => "basicmath",
            BenchmarkId::MatrixMult => "matrix-mult",
            BenchmarkId::Bitcount => "bitcount",
            BenchmarkId::Qsort => "qsort",
            BenchmarkId::Crc32 => "crc32",
            BenchmarkId::Gsm => "gsm",
            BenchmarkId::Fft => "fft",
            BenchmarkId::Jpeg => "jpeg",
            BenchmarkId::AngryBirds => "angry-birds",
            BenchmarkId::Templerun => "templerun",
            BenchmarkId::Youtube => "youtube",
            BenchmarkId::FftMt => "fft-mt",
            BenchmarkId::LuMt => "lu-mt",
        }
    }

    /// The full description of this benchmark.
    pub fn spec(self) -> Benchmark {
        Benchmark::of(self)
    }

    /// How strongly the benchmark's progress scales with the CPU clock
    /// frequency (1 = fully compute bound, 0 = fully memory/IO bound). The
    /// values follow the usual Mi-Bench characterisation: the computational
    /// kernels are close to compute bound, while the network/consumer kernels
    /// and the game/video applications spend much of their time waiting on
    /// memory, the GPU or the display pipeline.
    pub fn frequency_scalability(self) -> f64 {
        match self {
            BenchmarkId::Blowfish => 0.60,
            BenchmarkId::Sha => 0.75,
            BenchmarkId::Dijkstra => 0.50,
            BenchmarkId::Patricia => 0.50,
            BenchmarkId::Basicmath => 0.85,
            BenchmarkId::MatrixMult => 0.80,
            BenchmarkId::Bitcount => 0.90,
            BenchmarkId::Qsort => 0.60,
            BenchmarkId::Crc32 => 0.55,
            BenchmarkId::Gsm => 0.75,
            BenchmarkId::Fft => 0.80,
            BenchmarkId::Jpeg => 0.65,
            BenchmarkId::AngryBirds => 0.60,
            BenchmarkId::Templerun => 0.60,
            BenchmarkId::Youtube => 0.40,
            BenchmarkId::FftMt => 0.80,
            BenchmarkId::LuMt => 0.80,
        }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// One execution phase of a benchmark's work profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// Amount of CPU work in this phase, in work units (one unit = what one
    /// fully-utilised big core completes per second at 1 GHz).
    pub work_units: f64,
    /// Number of parallel CPU work streams (1.0 = single-threaded; fractions
    /// model partially parallel sections).
    pub cpu_streams: f64,
    /// Switching-activity factor of the code, 0..1 relative to the most
    /// power-hungry kernel (matrix multiplication ≈ 1).
    pub activity_factor: f64,
    /// GPU utilisation during the phase, 0..1.
    pub gpu_utilization: f64,
    /// Memory-subsystem intensity during the phase, 0..1.
    pub memory_intensity: f64,
}

impl Phase {
    /// Convenience constructor.
    pub fn new(
        work_units: f64,
        cpu_streams: f64,
        activity_factor: f64,
        gpu_utilization: f64,
        memory_intensity: f64,
    ) -> Self {
        Phase {
            work_units,
            cpu_streams,
            activity_factor,
            gpu_utilization,
            memory_intensity,
        }
    }
}

/// Static description of one benchmark: its Table 6.4 classification plus the
/// synthetic work profile used by the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct Benchmark {
    /// Identifier.
    pub id: BenchmarkId,
    /// Benchmark family (Table 6.4 "Types" column).
    pub kind: BenchmarkType,
    /// CPU power category (Table 6.4 "Category" column).
    pub category: BenchmarkCategory,
    /// Whether the benchmark makes significant use of the GPU.
    pub uses_gpu: bool,
    /// Number of application threads (excluding background processes).
    pub thread_count: usize,
    /// Work phases executed in order.
    pub phases: Vec<Phase>,
}

impl Benchmark {
    /// The description of the given benchmark.
    pub fn of(id: BenchmarkId) -> Benchmark {
        use BenchmarkCategory as Cat;
        use BenchmarkId as Id;
        use BenchmarkType as Ty;
        // One work unit = one fully-utilised big core for one second at 1 GHz,
        // so a single-threaded phase of W units takes W / 1.6 seconds at
        // 1.6 GHz. Profiles are sized for nominal (unthrottled) executions of
        // roughly 60-300 s, matching the paper's plots.
        match id {
            Id::Blowfish => Benchmark {
                id,
                kind: Ty::Security,
                category: Cat::Low,
                uses_gpu: false,
                thread_count: 1,
                phases: vec![
                    Phase::new(140.0, 1.1, 0.52, 0.0, 0.30),
                    Phase::new(160.0, 1.1, 0.56, 0.0, 0.35),
                    Phase::new(140.0, 1.1, 0.52, 0.0, 0.30),
                ],
            },
            Id::Sha => Benchmark {
                id,
                kind: Ty::Security,
                category: Cat::Medium,
                uses_gpu: false,
                thread_count: 1,
                phases: vec![
                    Phase::new(120.0, 1.6, 0.72, 0.0, 0.30),
                    Phase::new(140.0, 1.6, 0.75, 0.0, 0.35),
                ],
            },
            Id::Dijkstra => Benchmark {
                id,
                kind: Ty::Network,
                category: Cat::Low,
                uses_gpu: false,
                thread_count: 1,
                phases: vec![
                    Phase::new(60.0, 1.2, 0.55, 0.0, 0.45),
                    Phase::new(50.0, 1.2, 0.58, 0.0, 0.50),
                ],
            },
            Id::Patricia => Benchmark {
                id,
                kind: Ty::Network,
                category: Cat::Medium,
                uses_gpu: false,
                thread_count: 1,
                phases: vec![
                    Phase::new(180.0, 1.9, 0.72, 0.0, 0.50),
                    Phase::new(220.0, 2.0, 0.75, 0.0, 0.55),
                    Phase::new(140.0, 1.8, 0.70, 0.0, 0.50),
                ],
            },
            Id::Basicmath => Benchmark {
                id,
                kind: Ty::Computational,
                category: Cat::High,
                uses_gpu: false,
                thread_count: 2,
                phases: vec![
                    Phase::new(220.0, 2.3, 0.88, 0.0, 0.30),
                    Phase::new(260.0, 2.5, 0.92, 0.0, 0.35),
                    Phase::new(180.0, 2.3, 0.88, 0.0, 0.30),
                ],
            },
            Id::MatrixMult => Benchmark {
                id,
                kind: Ty::Computational,
                category: Cat::High,
                uses_gpu: false,
                thread_count: 4,
                phases: vec![
                    Phase::new(120.0, 3.6, 0.95, 0.0, 0.50),
                    Phase::new(160.0, 3.8, 1.00, 0.0, 0.55),
                    Phase::new(100.0, 3.6, 0.95, 0.0, 0.50),
                ],
            },
            Id::Bitcount => Benchmark {
                id,
                kind: Ty::Computational,
                category: Cat::Medium,
                uses_gpu: false,
                thread_count: 1,
                phases: vec![
                    Phase::new(150.0, 1.5, 0.75, 0.0, 0.20),
                    Phase::new(150.0, 1.5, 0.78, 0.0, 0.20),
                ],
            },
            Id::Qsort => Benchmark {
                id,
                kind: Ty::Computational,
                category: Cat::Medium,
                uses_gpu: false,
                thread_count: 1,
                phases: vec![
                    Phase::new(130.0, 1.7, 0.72, 0.0, 0.45),
                    Phase::new(150.0, 1.7, 0.75, 0.0, 0.50),
                ],
            },
            Id::Crc32 => Benchmark {
                id,
                kind: Ty::Telecomm,
                category: Cat::Low,
                uses_gpu: false,
                thread_count: 1,
                phases: vec![
                    Phase::new(90.0, 1.1, 0.52, 0.0, 0.40),
                    Phase::new(90.0, 1.1, 0.54, 0.0, 0.40),
                ],
            },
            Id::Gsm => Benchmark {
                id,
                kind: Ty::Telecomm,
                category: Cat::Medium,
                uses_gpu: false,
                thread_count: 1,
                phases: vec![
                    Phase::new(160.0, 1.6, 0.72, 0.0, 0.35),
                    Phase::new(180.0, 1.7, 0.75, 0.0, 0.35),
                ],
            },
            Id::Fft => Benchmark {
                id,
                kind: Ty::Telecomm,
                category: Cat::High,
                uses_gpu: false,
                thread_count: 2,
                phases: vec![
                    Phase::new(200.0, 1.9, 0.78, 0.0, 0.45),
                    Phase::new(220.0, 2.0, 0.85, 0.0, 0.50),
                ],
            },
            Id::Jpeg => Benchmark {
                id,
                kind: Ty::Consumer,
                category: Cat::Medium,
                uses_gpu: false,
                thread_count: 1,
                phases: vec![
                    Phase::new(140.0, 1.7, 0.72, 0.05, 0.50),
                    Phase::new(160.0, 1.8, 0.76, 0.05, 0.55),
                ],
            },
            Id::AngryBirds => Benchmark {
                id,
                kind: Ty::Games,
                category: Cat::High,
                uses_gpu: true,
                thread_count: 3,
                // The paper runs matrix multiplication in the background while
                // gaming to overload the CPU, hence the high stream counts.
                phases: vec![
                    Phase::new(180.0, 2.8, 0.80, 0.55, 0.50),
                    Phase::new(220.0, 3.0, 0.85, 0.65, 0.55),
                    Phase::new(160.0, 2.8, 0.80, 0.55, 0.50),
                ],
            },
            Id::Templerun => Benchmark {
                id,
                kind: Ty::Games,
                category: Cat::High,
                uses_gpu: true,
                thread_count: 3,
                phases: vec![
                    Phase::new(150.0, 3.0, 0.85, 0.60, 0.55),
                    Phase::new(200.0, 3.2, 0.90, 0.75, 0.60),
                    Phase::new(150.0, 3.0, 0.85, 0.60, 0.55),
                ],
            },
            Id::Youtube => Benchmark {
                id,
                kind: Ty::Video,
                category: Cat::Low,
                uses_gpu: true,
                thread_count: 2,
                phases: vec![
                    Phase::new(120.0, 1.2, 0.48, 0.30, 0.45),
                    Phase::new(140.0, 1.2, 0.52, 0.35, 0.45),
                ],
            },
            Id::FftMt => Benchmark {
                id,
                kind: Ty::MultiThreaded,
                category: Cat::High,
                uses_gpu: false,
                thread_count: 4,
                phases: vec![
                    Phase::new(200.0, 3.6, 0.82, 0.0, 0.50),
                    Phase::new(240.0, 3.8, 0.88, 0.0, 0.55),
                ],
            },
            Id::LuMt => Benchmark {
                id,
                kind: Ty::MultiThreaded,
                category: Cat::High,
                uses_gpu: false,
                thread_count: 4,
                phases: vec![
                    Phase::new(220.0, 3.7, 0.90, 0.0, 0.55),
                    Phase::new(240.0, 3.8, 0.94, 0.0, 0.60),
                ],
            },
        }
    }

    /// Total CPU work across all phases, in work units.
    pub fn total_work_units(&self) -> f64 {
        self.phases.iter().map(|p| p.work_units).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_set_has_fifteen_benchmarks() {
        assert_eq!(BenchmarkId::PAPER_SET.len(), 15);
        assert_eq!(BenchmarkId::ALL.len(), 17);
        assert_eq!(BenchmarkId::MULTI_THREADED_SET.len(), 2);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = BenchmarkId::ALL.iter().map(|b| b.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), BenchmarkId::ALL.len());
    }

    #[test]
    fn iterators_cover_the_catalogue_in_order() {
        let all: Vec<BenchmarkId> = BenchmarkId::all().collect();
        assert_eq!(all, BenchmarkId::ALL.to_vec());
        let paper: Vec<BenchmarkId> = BenchmarkId::paper_set().collect();
        assert_eq!(paper, BenchmarkId::PAPER_SET.to_vec());
        assert_eq!(paper.len(), 15);
        // Every paper benchmark is in the full iterator.
        for id in BenchmarkId::paper_set() {
            assert!(BenchmarkId::all().any(|b| b == id), "{id} missing");
        }
    }

    #[test]
    fn table_6_4_categories_match_the_paper() {
        use BenchmarkCategory::*;
        assert_eq!(BenchmarkId::Blowfish.spec().category, Low);
        assert_eq!(BenchmarkId::Dijkstra.spec().category, Low);
        assert_eq!(BenchmarkId::Crc32.spec().category, Low);
        assert_eq!(BenchmarkId::Youtube.spec().category, Low);
        assert_eq!(BenchmarkId::Patricia.spec().category, Medium);
        assert_eq!(BenchmarkId::Jpeg.spec().category, Medium);
        assert_eq!(BenchmarkId::Basicmath.spec().category, High);
        assert_eq!(BenchmarkId::MatrixMult.spec().category, High);
        assert_eq!(BenchmarkId::Templerun.spec().category, High);
        assert_eq!(BenchmarkId::AngryBirds.spec().category, High);
    }

    #[test]
    fn games_and_video_use_the_gpu() {
        for id in [
            BenchmarkId::Templerun,
            BenchmarkId::AngryBirds,
            BenchmarkId::Youtube,
        ] {
            assert!(id.spec().uses_gpu, "{id} should use the GPU");
        }
        for id in [
            BenchmarkId::Blowfish,
            BenchmarkId::MatrixMult,
            BenchmarkId::Fft,
        ] {
            assert!(!id.spec().uses_gpu, "{id} should not use the GPU");
        }
    }

    #[test]
    fn profiles_are_physically_sensible() {
        for id in BenchmarkId::ALL {
            let spec = id.spec();
            assert!(!spec.phases.is_empty(), "{id} has no phases");
            for phase in &spec.phases {
                assert!(phase.work_units > 0.0, "{id} phase with no work");
                assert!(
                    phase.cpu_streams > 0.0 && phase.cpu_streams <= 4.0,
                    "{id} streams"
                );
                assert!(
                    (0.0..=1.0).contains(&phase.activity_factor),
                    "{id} activity factor"
                );
                assert!((0.0..=1.0).contains(&phase.gpu_utilization), "{id} gpu");
                assert!((0.0..=1.0).contains(&phase.memory_intensity), "{id} memory");
            }
            assert!(spec.thread_count >= 1 && spec.thread_count <= 4);
        }
    }

    #[test]
    fn high_category_benchmarks_have_higher_activity_than_low() {
        let avg_activity = |id: BenchmarkId| {
            let spec = id.spec();
            let total: f64 = spec.phases.iter().map(|p| p.work_units).sum();
            spec.phases
                .iter()
                .map(|p| p.activity_factor * p.work_units / total)
                .sum::<f64>()
        };
        assert!(avg_activity(BenchmarkId::MatrixMult) > avg_activity(BenchmarkId::Patricia));
        assert!(avg_activity(BenchmarkId::Patricia) > avg_activity(BenchmarkId::Dijkstra));
    }

    #[test]
    fn display_and_category_strings() {
        assert_eq!(BenchmarkId::MatrixMult.to_string(), "matrix-mult");
        assert_eq!(BenchmarkCategory::High.to_string(), "high");
        assert_eq!(BenchmarkCategory::Low.to_string(), "low");
    }
}
