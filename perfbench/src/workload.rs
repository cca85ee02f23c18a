//! The three benchmark workloads: dataset shape, cluster and DFS set-up,
//! and the driver call each one times.

use std::sync::Arc;
use std::time::Instant;

use gmeans::mr::{ExecutionMode, IterationReport, MRGMeans, MultiKMeans};
use gmeans::GMeansConfig;
use gmr_datagen::GaussianMixture;
use gmr_linalg::Dataset;
use gmr_mapreduce::cluster::{ClusterConfig, OutOfCoreConfig};
use gmr_mapreduce::counters::{Counter, Counters};
use gmr_mapreduce::dfs::Dfs;
use gmr_mapreduce::runtime::JobRunner;

/// DFS path of the staged dataset.
pub const INPUT: &str = "points.txt";
/// DFS directory of the on-disk G-means run journal.
pub const CHECKPOINTS: &str = "ckpt";
/// DFS block size of every workload.
pub const BLOCK: usize = 256 * 1024;
/// Largest k the multi-k-means sweep fits (it fits every k in 1..=K_MAX).
pub const MULTIK_K_MAX: usize = 100;
/// Lloyd iterations of the multi-k-means sweep.
pub const MULTIK_ITERATIONS: usize = 3;
/// Algorithm seed of the multi-k-means sweep. Fixed: the workload seed
/// only shapes the dataset.
pub const MULTIK_SEED: u64 = 1;
/// Per-task heap of the spilling workload.
pub const SPILL_HEAP: u64 = 2 << 20;
/// Merge fan-in of the spilling workload.
pub const SPILL_FAN_IN: usize = 4;

/// Which benchmark workload to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// MR G-means re-reading the text dataset every job, journaled.
    GmeansOndisk,
    /// Multi-k-means (every k in 1..=100) over a parsed point cache.
    MultikCached,
    /// MR G-means with a capped heap: spilled, merged, compressed shuffle.
    GmeansSpill,
}

impl Workload {
    /// Every workload, in benchmark order.
    pub const ALL: [Workload; 3] = [
        Workload::GmeansOndisk,
        Workload::MultikCached,
        Workload::GmeansSpill,
    ];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GmeansOndisk => "gmeans_ondisk",
            Workload::MultikCached => "multik_cached",
            Workload::GmeansSpill => "gmeans_spill",
        }
    }

    /// Points in the dataset.
    pub fn points(self) -> usize {
        match self {
            Workload::GmeansOndisk => 15_000,
            Workload::MultikCached => 10_000,
            Workload::GmeansSpill => 10_000,
        }
    }

    /// Real clusters of the generating mixture.
    pub fn clusters(self) -> usize {
        match self {
            Workload::GmeansOndisk => 60,
            Workload::MultikCached => 100,
            Workload::GmeansSpill => 40,
        }
    }

    /// Whether the driver is G-means (as opposed to multi-k-means).
    pub fn is_gmeans(self) -> bool {
        self != Workload::MultikCached
    }

    /// The dataset specification for `seed`.
    pub fn mixture(self, seed: u64) -> GaussianMixture {
        GaussianMixture::paper_r10(self.points(), self.clusters(), seed)
    }
}

/// How a run is configured beyond its workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// The workload as benchmarked.
    Timed,
    /// The spilling workload's reference: buffered shuffle, plain DFS.
    Buffered,
}

/// A staged workload, ready to run.
pub struct Staged {
    /// The workload.
    pub workload: Workload,
    /// The DFS holding the dataset.
    pub dfs: Arc<Dfs>,
    /// The runner the driver uses.
    pub runner: JobRunner,
    /// The generator's true centers.
    pub truth: Dataset,
    /// Seconds `generate_to_dfs` took.
    pub stage_s: f64,
}

/// Generates the dataset into a fresh DFS and builds the runner: all
/// the work before the driver's `run` call.
pub fn stage(workload: Workload, seed: u64, variant: Variant) -> Result<Staged, String> {
    let spilling = workload == Workload::GmeansSpill && variant == Variant::Timed;
    let dfs = Arc::new(Dfs::with_compression(BLOCK, spilling));
    let generation = Instant::now();
    let truth = workload
        .mixture(seed)
        .generate_to_dfs(&dfs, INPUT)
        .map_err(|e| format!("dataset generation: {e}"))?;
    let stage_s = generation.elapsed().as_secs_f64();
    let runner =
        JobRunner::new(Arc::clone(&dfs), cluster(spilling)).map_err(|e| format!("runner: {e}"))?;
    Ok(Staged {
        workload,
        dfs,
        runner,
        truth,
        stage_s,
    })
}

/// The cluster every workload runs on: the default 4 nodes × 8 slots,
/// with the out-of-core policy when `spilling`.
pub fn cluster(spilling: bool) -> ClusterConfig {
    if !spilling {
        return ClusterConfig::default();
    }
    let ooc = OutOfCoreConfig::enabled()
        .with_sort_buffer(SPILL_HEAP / 8)
        .with_merge_fan_in(SPILL_FAN_IN);
    ClusterConfig {
        heap_per_task: SPILL_HEAP,
        ..ClusterConfig::default().with_out_of_core(ooc)
    }
}

/// What a driver run produced, in the shape the benchmark needs.
pub struct Outcome {
    /// Final centers (G-means) or the centers of every model, in k order
    /// (multi-k-means).
    pub models: Vec<Dataset>,
    /// Discovered k (G-means) or the number of models (multi-k-means).
    pub k: usize,
    /// MapReduce jobs launched.
    pub jobs: usize,
    /// Simulated seconds.
    pub sim_s: f64,
    /// Counters over every job.
    pub counters: Counters,
    /// Logical dataset reads.
    pub dataset_reads: u64,
    /// Every G-means iteration (empty for multi-k-means).
    pub iterations: Vec<IterationReport>,
    /// The failure that ended the run early, if any.
    pub failure: Option<String>,
}

impl Outcome {
    /// FNV-1a over the bits of every center coordinate of every model.
    pub fn center_hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for model in &self.models {
            for v in model.flat() {
                for b in v.to_bits().to_le_bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }

    /// A counter's total.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters.get(c)
    }
}

/// Runs the workload's driver once: the call the benchmark times.
pub fn run(staged: &Staged) -> Result<Outcome, String> {
    let runner = staged.runner.clone();
    match staged.workload {
        Workload::GmeansOndisk | Workload::GmeansSpill => {
            let mut driver = MRGMeans::new(runner, GMeansConfig::default())
                .with_execution_mode(ExecutionMode::OnDisk);
            if staged.workload == Workload::GmeansOndisk {
                driver = driver.with_checkpoints(CHECKPOINTS);
            }
            let r = driver.run(INPUT).map_err(|e| format!("run: {e}"))?;
            Ok(Outcome {
                k: r.k(),
                jobs: r.jobs,
                sim_s: r.simulated_secs,
                dataset_reads: r.dataset_reads,
                iterations: r.reports,
                failure: r.failure.as_ref().map(|e| e.to_string()),
                models: vec![r.centers],
                counters: r.counters,
            })
        }
        Workload::MultikCached => {
            let r = MultiKMeans::new(runner, 1, MULTIK_K_MAX, 1, MULTIK_ITERATIONS, MULTIK_SEED)
                .with_execution_mode(ExecutionMode::Cached)
                .run(INPUT)
                .map_err(|e| format!("run: {e}"))?;
            Ok(Outcome {
                k: r.models.len(),
                jobs: r.iteration_timings.len(),
                sim_s: r.simulated_secs,
                dataset_reads: staged.dfs.stats().dataset_reads,
                iterations: Vec::new(),
                failure: None,
                models: r.models.into_iter().map(|m| m.centers).collect(),
                counters: r.counters,
            })
        }
    }
}
