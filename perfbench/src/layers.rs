//! Per-layer numbers of a traced sample.
//!
//! The drivers hide their internal calls, so after the timed `run` the
//! traced sample replays each layer's public entry points on the run's
//! own inputs: the staged dataset and the center sets the run produced.
//! Jobs are replayed through `Submission::submit` wrapped in the
//! tracing adapters of [`crate::trace`]. A value scaled up by the run's
//! own counters (time per pass × passes) is *computed*; counts come
//! straight from the run's `Counter`s. README.md lists every metric with
//! its definition and the end-to-end metric it should move.

use std::sync::Arc;

use gmeans::eval::assign;
use gmeans::mr::{
    CenterSet, FindNewCentersJob, KMeansJob, KernelBackend, MultiKMeansJob, SplitTestSpec,
    TestClustersJob, TestFewClustersJob, TestStrategy,
};
use gmeans::GMeansConfig;
use gmr_datagen::parse_point_dim;
use gmr_linalg::{CentroidAccumulator, Dataset, SegmentProjector};
use gmr_mapreduce::cache::PointCache;
use gmr_mapreduce::checkpoint::RunJournal;
use gmr_mapreduce::compress;
use gmr_mapreduce::counters::Counter;
use gmr_mapreduce::job::{Job, JobConfig, PointMapper};
use gmr_mapreduce::spill::{RunCursor, RunWriter, SpillDir};
use gmr_mapreduce::submit::Submission;
use gmr_mapreduce::Error;

use crate::json::Obj;
use crate::trace::{SpanId, TracedJob, Tracer, COMBINE, MAP_TASK, REDUCE_TASK};
use crate::workload::{Outcome, Staged, INPUT, MULTIK_ITERATIONS};

/// Raw bytes pushed through the spill-run and codec replays.
const REPLAY_BYTES: usize = 4 << 20;

/// Metric name → value, in insertion order.
#[derive(Default)]
pub struct Layers {
    values: Vec<(&'static str, f64)>,
}

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// The metrics as a JSON object.
    pub fn render(&self) -> String {
        let mut obj = Obj::new();
        for (name, value) in &self.values {
            obj.num(name, *value);
        }
        obj.render()
    }
}

/// What one replayed job's span holds. `wall` is the job span; the
/// other parts are thread-seconds over the job's threads.
#[derive(Clone, Copy, Default)]
struct JobSplit {
    wall: f64,
    map_user: f64,
    combine: f64,
    reduce_user: f64,
    framework: f64,
}

impl JobSplit {
    /// Splits a job from its span's parts: `tasks` is the sum of its
    /// task spans, `serial` the span's self time outside every task.
    /// The framework is all task time that is not user code, plus the
    /// serial part.
    fn from_parts(
        wall: f64,
        tasks: f64,
        serial: f64,
        map_user: f64,
        combine: f64,
        reduce_user: f64,
    ) -> JobSplit {
        JobSplit {
            wall,
            map_user,
            combine,
            reduce_user,
            framework: (tasks - map_user - combine - reduce_user).max(0.0) + serial,
        }
    }
}

impl JobSplit {
    fn add_scaled(&mut self, other: JobSplit, times: f64) {
        self.wall += other.wall * times;
        self.map_user += other.map_user * times;
        self.combine += other.combine * times;
        self.reduce_user += other.reduce_user * times;
        self.framework += other.framework * times;
    }
}

fn err(what: &str) -> impl Fn(Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Replays one job through the tracing adapters and splits its span.
fn replay_job<J>(
    tracer: &Arc<Tracer>,
    submission: &Submission<'_>,
    job: J,
    reducers: usize,
) -> Result<JobSplit, String>
where
    J: Job,
    J::Mapper: PointMapper,
{
    let span = tracer.open("runtime.job", None);
    let traced = TracedJob::new(job, Arc::clone(tracer), span);
    let result = submission.submit(&traced, &JobConfig::with_reducers(reducers));
    tracer.close(span);
    result.map_err(err("replayed job"))?;
    Ok(JobSplit::from_parts(
        tracer.duration(span),
        tracer.children_total(span, MAP_TASK) + tracer.children_total(span, REDUCE_TASK),
        tracer.self_time(span),
        tracer.children_user(span, MAP_TASK),
        tracer.children_total(span, COMBINE),
        tracer.children_user(span, REDUCE_TASK),
    ))
}

/// A center set prepared the way the engine prepares one for a job.
fn center_set(centers: &Dataset) -> CenterSet {
    CenterSet::from_dataset(centers).with_backend(KernelBackend::Auto)
}

/// A test vector for each of the first `tested` centers (a unit
/// segment along the first axis), none for the rest.
fn projectors(set: &CenterSet, tested: usize) -> Vec<Option<SegmentProjector>> {
    set.iter()
        .enumerate()
        .map(|(i, (_, c))| {
            let (mut a, mut b) = (c.to_vec(), c.to_vec());
            a[0] -= 0.5;
            b[0] += 0.5;
            (i < tested).then(|| SegmentProjector::new(&a, &b))
        })
        .collect()
}

/// Seconds `f` takes.
fn seconds<T>(tracer: &Tracer, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let (out, span) = tracer.time(name, None, f);
    (out, tracer.duration(span))
}

/// Replays every layer and returns the per-layer metrics. `run` is the
/// span around the driver's `run` call.
pub fn replay(
    staged: &Staged,
    outcome: &Outcome,
    tracer: &Arc<Tracer>,
    run: SpanId,
) -> Result<Layers, String> {
    let mut m = Layers::default();
    let counter = |c: Counter| outcome.counter(c) as f64;
    let dim = staged.truth.dim();
    let passes = outcome.dataset_reads as f64;
    let run_s = tracer.duration(run);
    let dfs = &staged.dfs;

    m.set("engine.run_s", run_s);
    m.set("engine.jobs", outcome.jobs as f64);
    m.set("engine.dataset_reads", passes);
    m.set("datagen.stage_s", staged.stage_s);
    m.set("dfs.input_bytes", counter(Counter::InputBytes));
    m.set("kernel.dist_evals", counter(Counter::DistanceComputations));
    m.set("runtime.attempts", counter(Counter::AttemptsLaunched));
    m.set("shuffle.bytes", counter(Counter::ShuffleBytes));
    m.set(
        "shuffle.map_out_records",
        counter(Counter::MapOutputRecords),
    );
    let combine_in = counter(Counter::CombineInputRecords);
    m.set("shuffle.combine_in_records", combine_in);
    m.set(
        "shuffle.combine_ratio",
        if combine_in > 0.0 {
            counter(Counter::CombineOutputRecords) / combine_in
        } else {
            0.0
        },
    );
    m.set(
        "shuffle.reduce_in_records",
        counter(Counter::ReduceInputRecords),
    );
    m.set("spill.spills", counter(Counter::ShuffleSpills));
    m.set("spill.bytes", counter(Counter::ShuffleSpillBytes));
    m.set("spill.merge_passes", counter(Counter::ShuffleMergePasses));
    // One run file per map-side spill and one per merge pass.
    m.set(
        "spill.files",
        counter(Counter::ShuffleSpills) + counter(Counter::ShuffleMergePasses),
    );
    let codec_bytes = counter(Counter::BytesCompressed) + counter(Counter::BytesDecompressed);
    m.set("compress.bytes", codec_bytes);
    m.set("stats.ad_tests", counter(Counter::AdTests));
    m.set("stats.projections", counter(Counter::Projections));
    m.set("checkpoint.commits", counter(Counter::CheckpointsCommitted));
    m.set("checkpoint.bytes", counter(Counter::CheckpointBytes));

    // dfs: split listing (CRC check, decompression) and line iteration,
    // one pass, times the run's dataset passes.
    let (bytes, read_s) = seconds(tracer, "dfs.read", || -> Result<u64, String> {
        let mut n = 0u64;
        for split in dfs.splits(INPUT).map_err(err("splits"))? {
            n += split.lines().map(|(_, l)| l.len() as u64).sum::<u64>();
        }
        Ok(n)
    });
    std::hint::black_box(bytes?);
    m.set("dfs.read_s", read_s * passes);

    // datagen: the mappers' text parser over one pass, times passes.
    let lines = dfs.read_lines(INPUT).map_err(err("read_lines"))?;
    let (data, parse_s) = seconds(tracer, "datagen.parse", || -> Result<Dataset, String> {
        let mut data = Dataset::with_capacity(dim, lines.len());
        for line in &lines {
            data.push(&parse_point_dim(line, dim).map_err(|e| format!("parse: {e}"))?);
        }
        Ok(data)
    });
    let data = data?;
    drop(lines);
    m.set("datagen.parse_s", parse_s * passes);

    let runner = &staged.runner;
    let mut jobs = JobSplit::default();
    if staged.workload.is_gmeans() {
        replay_gmeans(&mut m, &mut jobs, staged, outcome, tracer, &data)?;
    } else {
        // cache: the one parse of the cached mode.
        let (cache, build_s) = seconds(tracer, "cache.build", || {
            PointCache::build(dfs, INPUT, dim, |line| {
                parse_point_dim(line, dim).map_err(|e| Error::Corrupt(e.to_string()))
            })
        });
        let cache = cache.map_err(err("cache build"))?;
        m.set("cache.build_s", build_s);

        // kernel: every model's blocked scan of the cache, per iteration.
        let sets: Vec<CenterSet> = outcome.models.iter().map(center_set).collect();
        let (evals, block_s) = seconds(tracer, "kernel.block", || {
            let mut evals = 0u64;
            for split in cache.splits() {
                for set in &sets {
                    let rows = set.nearest_block(split.points.flat(), &split.norms);
                    evals += rows.iter().map(|r| r.3).sum::<u64>();
                }
            }
            evals
        });
        std::hint::black_box(evals);
        m.set("kernel.block_s", block_s * MULTIK_ITERATIONS as f64);

        let reducers = runner.cluster().total_reduce_slots().max(1);
        let job = MultiKMeansJob::new(Arc::new(sets));
        let split = replay_job(tracer, &Submission::cached(runner, &cache), job, reducers)?;
        jobs.add_scaled(split, outcome.jobs as f64);
        m.set("runtime.job_s.multi_kmeans", jobs.wall);
    }
    let kernel_s = m.get("kernel.scan_s") + m.get("kernel.block_s");
    m.set(
        "kernel.evals_per_s",
        if kernel_s > 0.0 {
            counter(Counter::DistanceComputations) / kernel_s
        } else {
            0.0
        },
    );

    m.set("runtime.job_s", jobs.wall);
    m.set("runtime.map_user_s", jobs.map_user);
    m.set("runtime.combine_s", jobs.combine);
    m.set("runtime.reduce_user_s", jobs.reduce_user);
    m.set("runtime.framework_s", jobs.framework);

    replay_spill(&mut m, staged, outcome, tracer, &data)?;

    // checkpoint: the run's commits, with payloads of the run's mean size.
    let commits = outcome.counter(Counter::CheckpointsCommitted);
    let bytes = outcome.counter(Counter::CheckpointBytes);
    if let Some(mean_bytes) = bytes.checked_div(commits) {
        let payload = vec![0x5au8; mean_bytes as usize];
        let journal = RunJournal::new(Arc::clone(dfs), "perfbench-replay-ckpt");
        let (done, commit_s) = seconds(tracer, "checkpoint.commit", || {
            (1..=commits).try_for_each(|seq| journal.commit(seq, &payload).map(drop))
        });
        done.map_err(err("checkpoint commit"))?;
        m.set("checkpoint.commit_s", commit_s);
    }

    // The layers that run one after another inside `run`: the jobs, the
    // cache build and the journal commits. The rest of `run` is the
    // driver's own work.
    let replayed = jobs.wall + m.get("cache.build_s") + m.get("checkpoint.commit_s");
    m.set("engine.driver_s", (run_s - replayed).max(0.0));
    m.set("trace.coverage", replayed / run_s);
    Ok(m)
}

/// G-means: every iteration's jobs, replayed at that iteration's center
/// sets and weighted by how many of each kind it ran; the per-point
/// kernel at the same sets; the split test at the final centers.
///
/// An iteration runs `kmeans_iterations_per_round − 1` KMeans jobs, one
/// FindNewCenters job, and, when a cluster was tested, one split-test
/// job (TestClusters or TestFewClusters, as its strategy chose) and
/// maybe a TestClusters retry. Its KMeans and FindNewCenters jobs run
/// at the previous iteration's `centers_after`; the first iteration's
/// at two data points. Its test runs at the parents, approximated by
/// the set before that (the data mean for the first iteration), with a
/// test vector for as many parents as it tested. A retry is replayed
/// like the iteration's test.
fn replay_gmeans(
    m: &mut Layers,
    jobs: &mut JobSplit,
    staged: &Staged,
    outcome: &Outcome,
    tracer: &Arc<Tracer>,
    data: &Dataset,
) -> Result<(), String> {
    let runner = &staged.runner;
    let config = GMeansConfig::default();
    let streaming = Submission::streaming(runner, INPUT);
    let slots = runner.cluster().total_reduce_slots().max(1);
    let reducers = |wanted: usize| wanted.clamp(1, slots);
    let refinements = config.kmeans_iterations_per_round.max(1) - 1;
    let scan = |set: &CenterSet| {
        let (evals, s) = seconds(tracer, "kernel.scan", || {
            data.rows()
                .filter_map(|p| set.nearest_with_cost(p))
                .map(|r| r.3)
                .sum::<u64>()
        });
        std::hint::black_box(evals);
        s
    };

    let replayed: usize = outcome.iterations.iter().map(|r| r.jobs).sum();
    if replayed != outcome.jobs {
        return Err(format!(
            "the iterations report {replayed} jobs, the run {}",
            outcome.jobs
        ));
    }
    let [mut kmeans, mut find, mut test] = [JobSplit::default(); 3];
    let mut scan_s = 0.0;
    let mut parents = Dataset::with_capacity(data.dim(), 1);
    let mut mean = CentroidAccumulator::new(data.dim());
    data.rows().for_each(|p| mean.push(p));
    parents.push(&mean.mean().ok_or("empty dataset")?.into_vec());
    let mut current = Dataset::with_capacity(data.dim(), 2);
    current.push(data.row(0));
    current.push(data.row(data.len() / 2));
    for report in &outcome.iterations {
        let n_kmeans = refinements.min(report.jobs);
        let n_find = (report.jobs - n_kmeans).min(1);
        let n_test = report.jobs - n_kmeans - n_find;
        let set = Arc::new(center_set(&current));
        scan_s += scan(&set) * (n_kmeans + n_find) as f64;
        if n_kmeans > 0 {
            let job = KMeansJob::new(Arc::clone(&set));
            let split = replay_job(tracer, &streaming, job, reducers(set.len()))?;
            kmeans.add_scaled(split, n_kmeans as f64);
        }
        if n_find > 0 {
            let seed = config.seed ^ (report.iteration as u64).wrapping_mul(0x9e37);
            let job = FindNewCentersJob::new(Arc::clone(&set), seed);
            let split = replay_job(tracer, &streaming, job, reducers(set.len()))?;
            find.add_scaled(split, n_find as f64);
        }
        if n_test > 0 {
            let parent_set = Arc::new(center_set(&parents));
            scan_s += scan(&parent_set) * n_test as f64;
            let tested = report.clusters_tested;
            let spec = SplitTestSpec::new(
                Arc::clone(&parent_set),
                Arc::new(projectors(&parent_set, tested)),
                config.ad_test(),
            );
            let split = if report.strategy == Some(TestStrategy::FewClusters) {
                replay_job(
                    tracer,
                    &streaming,
                    TestFewClustersJob::new(spec),
                    reducers(tested),
                )?
            } else {
                replay_job(
                    tracer,
                    &streaming,
                    TestClustersJob::new(spec),
                    reducers(tested),
                )?
            };
            test.add_scaled(split, n_test as f64);
        }
        parents = std::mem::replace(&mut current, report.centers_after.clone());
    }
    m.set("kernel.scan_s", scan_s);
    m.set("runtime.job_s.kmeans", kmeans.wall);
    m.set("runtime.job_s.find_new_centers", find.wall);
    m.set("runtime.job_s.split_test", test.wall);
    for kind in [kmeans, find, test] {
        jobs.add_scaled(kind, 1.0);
    }

    // stats: one Anderson–Darling test per final cluster on its points'
    // projections, scaled to the run's test count.
    let final_centers = &outcome.models[0];
    let set = center_set(final_centers);
    let labels = assign(data, final_centers).labels;
    let projectors = projectors(&set, set.len());
    let ad = config.ad_test();
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); final_centers.len()];
    for (p, &label) in data.rows().zip(&labels) {
        if let Some(proj) = &projectors[label as usize] {
            samples[label as usize].push(proj.project(p));
        }
    }
    let (tested, ad_s) = seconds(tracer, "stats.ad", || {
        samples.iter().filter(|s| ad.test(s).is_ok()).count()
    });
    if tested > 0 {
        m.set(
            "stats.ad_s",
            ad_s / samples.len() as f64 * outcome.counter(Counter::AdTests) as f64,
        );
    }
    Ok(())
}

/// Spill runs and the block codec: bytes per second of `RunWriter`,
/// `RunCursor`, `compress` and `decompress` on the workload's own
/// records, times the run's spilled and coded bytes.
fn replay_spill(
    m: &mut Layers,
    staged: &Staged,
    outcome: &Outcome,
    tracer: &Arc<Tracer>,
    data: &Dataset,
) -> Result<(), String> {
    let spill_bytes = outcome.counter(Counter::ShuffleSpillBytes) as f64;
    if spill_bytes > 0.0 {
        let cfg = staged.runner.cluster().out_of_core;
        let dir = SpillDir::create().map_err(err("spill dir"))?;
        let (written, write_s) = seconds(tracer, "spill.write", || {
            let mut writer = RunWriter::create(&dir, cfg.compress_spills, cfg.spill_block_bytes)?;
            let (mut raw, mut id) = (0usize, 0i64);
            while raw < REPLAY_BYTES {
                for p in data.rows() {
                    writer.push(&id, &(p.to_vec(), 1u64))?;
                    raw += 8 + p.len() * 8 + 16;
                }
                id += 1;
            }
            writer.finish()
        });
        let (run, io) = written.map_err(err("spill write"))?;
        let raw = io.raw_written as f64;
        let (read, read_s) = seconds(tracer, "spill.read", || -> gmr_mapreduce::Result<u64> {
            let mut cursor = RunCursor::open(Arc::new(run))?;
            let mut n = 0u64;
            while cursor.next_record::<i64, (Vec<f64>, u64)>()?.is_some() {
                n += 1;
            }
            Ok(n)
        });
        std::hint::black_box(read.map_err(err("spill read"))?);
        m.set("spill.write_s", write_s / raw * spill_bytes);
        m.set("spill.read_s", read_s / raw * spill_bytes);
    }

    let compressed = outcome.counter(Counter::BytesCompressed) as f64;
    let decompressed = outcome.counter(Counter::BytesDecompressed) as f64;
    if compressed + decompressed > 0.0 {
        let text = staged
            .dfs
            .read_lines(INPUT)
            .map_err(err("read_lines"))?
            .join("\n");
        let text = &text.as_bytes()[..text.len().min(REPLAY_BYTES)];
        let block = staged.runner.cluster().out_of_core.spill_block_bytes.max(1);
        let (blocks, c_s) = seconds(tracer, "compress.compress", || {
            text.chunks(block)
                .map(compress::compress)
                .collect::<Vec<_>>()
        });
        let (plain, d_s) = seconds(tracer, "compress.decompress", || {
            blocks
                .iter()
                .map(|b| compress::decompress(b).map(|v| v.len()))
                .sum::<gmr_mapreduce::Result<usize>>()
        });
        std::hint::black_box(plain.map_err(err("decompress"))?);
        let n = text.len() as f64;
        m.set(
            "compress.codec_s",
            c_s / n * compressed + d_s / n * decompressed,
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn computed_values_scale_every_part_by_the_run_count() {
        let per_job = JobSplit {
            wall: 0.5,
            map_user: 0.25,
            combine: 0.125,
            reduce_user: 0.0625,
            framework: 0.1,
        };
        let mut run = JobSplit::default();
        run.add_scaled(per_job, 4.0);
        run.add_scaled(per_job, 2.0);
        assert_eq!(run.wall, 3.0);
        assert_eq!(run.map_user, 1.5);
        assert_eq!(run.combine, 0.75);
        assert_eq!(run.reduce_user, 0.375);
        assert!((run.framework - 0.6).abs() < 1e-12);
    }

    #[test]
    fn framework_is_task_time_outside_user_code_plus_the_serial_part() {
        // Two tasks of 1.5 s and 2 s, 3 s of it user code (0.5 s of that
        // combining), 1.5 s of the job span outside both tasks.
        let split = JobSplit::from_parts(4.0, 3.5, 1.5, 2.25, 0.5, 0.25);
        assert_eq!(split.wall, 4.0);
        assert!((split.framework - 2.0).abs() < 1e-12);
        // Clock noise cannot make the in-task part negative.
        let split = JobSplit::from_parts(1.0, 0.5, 0.25, 0.5, 0.0, 0.001);
        assert_eq!(split.framework, 0.25);
    }

    #[test]
    fn layers_keep_one_value_per_name_in_order() {
        let mut m = Layers::default();
        m.set("kernel.scan_s", 1.0);
        m.set("engine.jobs", 3.0);
        m.set("kernel.scan_s", 2.5);
        assert_eq!(m.get("kernel.scan_s"), 2.5);
        assert_eq!(m.get("absent"), 0.0);
        assert_eq!(m.render(), r#"{"kernel.scan_s": 2.5, "engine.jobs": 3.0}"#);
    }
}
