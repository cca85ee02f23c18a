//! Job execution: map tasks over input splits, the shuffle, and reduce
//! tasks, on a pool of threads standing in for the cluster's task slots.
//!
//! Execution is faithful to the Hadoop model the paper programs against:
//!
//! * one map task per input split, one reduce task per partition;
//! * map output is sorted, combined (if the job has a combiner) and
//!   **serialized**; reduce input is decoded from those bytes through a
//!   streaming k-way merge — `SHUFFLE_BYTES` measures real serialized
//!   volume;
//! * tasks run concurrently on up to `slots` worker threads and every
//!   task accumulates a [`TaskCost`], from which the job's simulated
//!   makespan is computed per the cluster's [`crate::cost::CostModel`]
//!   (wave-scheduled, as Hadoop would run the tasks);
//! * a task exceeding its simulated heap fails the whole job with
//!   [`crate::error::Error::HeapSpace`] — the behaviour Figure 2 maps;
//! * every task runs as a sequence of **attempts** under the cluster's
//!   [`crate::faults::FaultPlan`]: injected or genuine failures burn an
//!   attempt (and simulated slot time), a bounded retry budget decides
//!   when the job gives up, and abnormally slow tasks get speculative
//!   backup attempts — all deterministically, so a faulty run produces
//!   bit-identical output to a fault-free one, just a longer makespan;
//! * every attempt is **placed on a node**, preferring (for map tasks)
//!   a node that holds a DFS replica of the input block — node-local
//!   first, any-node fallback, counted by `maps_node_local` /
//!   `maps_remote`; a node crash kills the
//!   attempts in flight on it, strands the map outputs it completed
//!   (detected as shuffle-fetch failures and re-executed on survivors
//!   after a heartbeat timeout), and costs the DFS its block replicas;
//!   repeat offenders are blacklisted and the cluster's slot capacity
//!   shrinks.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::cache::{CachedSplit, PointCache};
use crate::cluster::{ClusterConfig, OutOfCoreConfig};
use crate::cost::{makespan, JobTiming, TaskCost};
use crate::counters::{Counter, Counters};
use crate::dfs::{Dfs, InputSplit};
use crate::error::{Error, Result};
use crate::faults::{FaultDecision, FaultPlan, NodeStatus, TaskKind};
use crate::job::{
    Emitter, Job, JobConfig, MapOutput, Mapper, PointMapper, Reducer, TaskContext, Values,
};
use crate::shuffle::{
    detect_fetch_failures, encode_segment, merge_combine_to_run, merge_to_run, sort_and_combine,
    CommitFence, MergeIter, Segment, ShuffleSegment,
};
use crate::spill::{RunWriter, SpillDir, SpillIo};
use crate::writable::{ShuffleKey, ShuffleValue};

/// Points per [`PointMapper::prepare_block`] batch in cached execution:
/// big enough to amortize the blocked kernel's tile sweeps, small enough
/// that a block of precomputed assignments stays cache-resident.
const MAP_BLOCK_POINTS: usize = 256;

/// Heartbeat false positives a single task tolerates before the draws
/// are ignored: fenced attempts never burn the retry budget, so without
/// a cap a pathological plan could zombie-kill one task forever.
const MAX_ZOMBIES_PER_TASK: u32 = 3;

/// Result of one executed job.
#[derive(Debug)]
pub struct JobResult<O> {
    /// Reducer output records, in reduce-partition order.
    pub output: Vec<O>,
    /// The job's counters.
    pub counters: Counters,
    /// Simulated and wall-clock timing.
    pub timing: JobTiming,
}

/// Executes [`Job`]s against a DFS on a simulated cluster.
#[derive(Clone)]
pub struct JobRunner {
    dfs: Arc<Dfs>,
    cluster: ClusterConfig,
    /// 1-based count of jobs this runner has started — the *epoch* that
    /// keys node-crash draws, so an identically configured rerun (or a
    /// resumed driver, which re-syncs the count) sees identical node
    /// weather. Shared across clones.
    epochs: Arc<AtomicU64>,
    /// Scratch directory for out-of-core spill runs; present only when
    /// [`OutOfCoreConfig::spill_enabled`] and removed (with every run
    /// file) when the last runner clone drops.
    spill: Option<Arc<SpillDir>>,
}

struct MapTaskOut {
    segments: Vec<ShuffleSegment>,
    timing: TaskTiming,
}

/// Simulated timing of one completed task, attempts included.
struct TaskTiming {
    /// Effective duration of the winning attempt (straggler slowdown
    /// applied).
    duration: f64,
    /// Duration the same work takes on a healthy node — the speed a
    /// speculative backup attempt runs at.
    base: f64,
    /// Slot time burned by this task's failed attempts.
    failed: Vec<f64>,
    /// Node the winning attempt ran on.
    node: usize,
}

/// Node weather of one job: which nodes take attempts, which die
/// mid-job, and the epoch the draws were keyed on.
struct NodeView {
    epoch: u64,
    status: NodeStatus,
    /// `status.live` minus `status.crashed`: where retries, re-executed
    /// maps and reduce tasks land.
    survivors: Vec<usize>,
}

/// Identity and placement preference of one task's attempt sequence —
/// everything the fault plan keys its draws and placement off.
struct TaskSite<'a> {
    job: &'a str,
    kind: TaskKind,
    index: usize,
    /// DFS replica holders of the task's input block (empty for
    /// reduces, whose input is shuffled, not read from the DFS).
    prefer: &'a [usize],
}

/// Submission-time facts lost-map re-execution keys off: the job's
/// name (placement hash), reducer count (fetch-failure accounting) and
/// each input block's replica holders (locality preference).
struct JobSite<'a> {
    name: &'a str,
    num_reduce_tasks: usize,
    replicas: &'a [Vec<usize>],
}

/// Out-of-core state of one spilling map attempt: the spill trigger,
/// the accumulated runs per partition, and the byte ledgers.
///
/// Bit-identity with buffered execution rests on two invariants this
/// struct maintains:
///
/// * spills write **raw** (uncombined) stably-sorted runs — each run is
///   a consecutive emission window, so the earliest-source-first merge
///   replays the exact per-key value order the buffered path's single
///   final sort produces;
/// * the combiner runs **once**, streaming over the fully merged
///   partition at task end — the same application (and the same
///   combine-counter totals) the buffered path performs.
struct MapSpill {
    dir: Arc<SpillDir>,
    cfg: OutOfCoreConfig,
    /// Effective sort-buffer size: the configured bytes, clamped down
    /// when the attempt is rescuing an injected heap fault.
    sort_buffer: u64,
    /// Per-partition spilled runs, in spill order.
    runs: Vec<Vec<ShuffleSegment>>,
    io: SpillIo,
    /// Raw bytes written to spill and intermediate-merge runs (final
    /// output runs are shuffle bytes, not spill bytes).
    spill_bytes: u64,
    spills: u64,
    /// Sort-buffer bytes currently charged to the task's heap ledger.
    ledger_charged: u64,
}

impl MapSpill {
    fn new(dir: Arc<SpillDir>, cfg: OutOfCoreConfig, forced: bool, num_parts: usize) -> Self {
        let sort_buffer = if forced {
            (cfg.sort_buffer_bytes / 8).max(4096)
        } else {
            cfg.sort_buffer_bytes
        };
        Self {
            dir,
            cfg,
            sort_buffer,
            runs: (0..num_parts).map(|_| Vec::new()).collect(),
            io: SpillIo::default(),
            spill_bytes: 0,
            spills: 0,
            ledger_charged: 0,
        }
    }

    /// Charges newly buffered sort-buffer bytes to the task's heap
    /// ledger and spills when the buffer fills or the heap cannot take
    /// the charge — the task degrades to disk instead of dying with
    /// `HeapSpace`.
    #[allow(clippy::too_many_arguments)]
    fn maybe_spill<K: ShuffleKey, V: ShuffleValue>(
        &mut self,
        emitter: &mut Emitter<K, V>,
        ctx: &mut TaskContext,
        counters: &Counters,
        plan: &FaultPlan,
        job_name: &str,
        index: usize,
        attempt: u32,
    ) -> Result<()> {
        let buffered = emitter.buffered_bytes();
        let mut full = buffered >= self.sort_buffer;
        if !full {
            let delta = buffered.saturating_sub(self.ledger_charged);
            if delta > 0 {
                match ctx.heap.charge(delta) {
                    Ok(()) => self.ledger_charged = buffered,
                    Err(_) => full = true,
                }
            }
        }
        if full {
            self.spill(emitter, ctx, counters, plan, job_name, index, attempt)?;
        }
        Ok(())
    }

    /// Writes every non-empty partition buffer as a raw sorted run,
    /// releases the heap ledger, and resets the sort window.
    #[allow(clippy::too_many_arguments)]
    fn spill<K: ShuffleKey, V: ShuffleValue>(
        &mut self,
        emitter: &mut Emitter<K, V>,
        ctx: &mut TaskContext,
        counters: &Counters,
        plan: &FaultPlan,
        job_name: &str,
        index: usize,
        attempt: u32,
    ) -> Result<()> {
        // One torn-spill draw per spill event; a hit truncates the
        // first run written, for the task's own merge to detect.
        let mut tear_pending =
            plan.torn_spill(job_name, TaskKind::Map, index, attempt, self.spills);
        let mut wrote = false;
        for (p, part) in emitter.partitions_mut().iter_mut().enumerate() {
            if part.is_empty() {
                continue;
            }
            // Raw, stably sorted, uncombined — see the struct docs.
            part.sort_by(|a, b| a.0.cmp(&b.0));
            let mut writer = RunWriter::create(
                &self.dir,
                self.cfg.compress_spills,
                self.cfg.spill_block_bytes,
            )?;
            for (k, v) in part.iter() {
                writer.push(k, v)?;
            }
            let (run, io) = writer.finish()?;
            if std::mem::take(&mut tear_pending) {
                run.tear()?;
            }
            self.spill_bytes += run.raw_len();
            self.io.absorb(&io);
            self.runs[p].push(ShuffleSegment::Disk(Arc::new(run)));
            part.clear();
            wrote = true;
        }
        if wrote {
            self.spills += 1;
            counters.inc(Counter::ShuffleSpills);
        }
        ctx.heap.release(self.ledger_charged);
        self.ledger_charged = 0;
        emitter.reset_spill_window();
        emitter.reset_buffered_bytes();
        Ok(())
    }

    /// Ends a spilled map attempt: folds the still-buffered tail in as
    /// a memory source (Hadoop's final in-memory spill), runs the
    /// bounded-fan-in multi-pass merge per partition, and streams each
    /// partition once through the combiner into its final output run.
    ///
    /// Returns the final per-partition segments, the serialized output
    /// size (the `shuffle_bytes` contribution) and the attempt's spill
    /// I/O totals.
    fn finish<J: Job>(
        mut self,
        job: &J,
        emitter: &mut Emitter<J::Key, J::Value>,
        ctx: &mut TaskContext,
        counters: &Counters,
    ) -> Result<(Vec<ShuffleSegment>, u64, SpillIo)> {
        let mut segments = Vec::with_capacity(self.runs.len());
        let mut shuffle_out = 0u64;
        let runs = std::mem::take(&mut self.runs);
        let parts = emitter.partitions_mut();
        for (p, mut sources) in runs.into_iter().enumerate() {
            let part = &mut parts[p];
            if !part.is_empty() {
                // The unspilled tail joins the merge from memory, as
                // the latest emission window.
                part.sort_by(|a, b| a.0.cmp(&b.0));
                sources.push(ShuffleSegment::Mem(encode_segment(part)));
                part.clear();
            }
            if sources.is_empty() {
                segments.push(ShuffleSegment::Mem(Segment::default()));
                continue;
            }
            while sources.len() > self.cfg.merge_fan_in {
                // Merge the *oldest* runs first and put the result
                // back at the front: nested merges of consecutive
                // sources preserve the flat merge's tie-break order.
                let batch: Vec<ShuffleSegment> = sources.drain(..self.cfg.merge_fan_in).collect();
                let resident: u64 = batch.iter().map(ShuffleSegment::merge_resident_bytes).sum();
                ctx.heap.charge(resident)?;
                let merged = merge_to_run::<J::Key, J::Value>(&self.dir, &self.cfg, batch);
                ctx.heap.release(resident);
                let (run, io) = merged?;
                counters.inc(Counter::ShuffleMergePasses);
                self.spill_bytes += run.raw_len();
                self.io.absorb(&io);
                sources.insert(0, ShuffleSegment::Disk(Arc::new(run)));
            }
            let resident: u64 = sources
                .iter()
                .map(ShuffleSegment::merge_resident_bytes)
                .sum();
            ctx.heap.charge(resident)?;
            let combined = merge_combine_to_run(job, &self.dir, &self.cfg, sources, counters);
            ctx.heap.release(resident);
            let (run, io) = combined?;
            self.io.absorb(&io);
            shuffle_out += run.raw_len();
            segments.push(ShuffleSegment::Disk(Arc::new(run)));
        }
        ctx.heap.release(self.ledger_charged);
        self.ledger_charged = 0;
        counters.add(Counter::ShuffleSpillBytes, self.spill_bytes);
        counters.add(Counter::BytesCompressed, self.io.compressed_raw);
        counters.add(Counter::BytesDecompressed, self.io.decompressed_raw);
        Ok((segments, shuffle_out, self.io))
    }
}

impl NodeView {
    /// Placement domain for one attempt. First attempts of map tasks
    /// schedule over every live node — the scheduler cannot know the
    /// crash yet; retries are placed after the failure is detected, and
    /// the whole reduce phase starts after the map-phase barrier, so
    /// both go to survivors only.
    fn domain(&self, kind: TaskKind, attempt: u32) -> &[usize] {
        if kind == TaskKind::Map && attempt == 0 {
            &self.status.live
        } else {
            &self.survivors
        }
    }
}

impl JobRunner {
    /// Creates a runner; validates the cluster configuration and
    /// attaches the cluster's node topology to the DFS so blocks get
    /// replica placements. The topology spans the full node *universe*
    /// ([`ClusterConfig::peak_nodes`]); under an elastic membership
    /// plan the not-yet-joined nodes start in the DFS down-set so
    /// initial placement avoids them until their join epoch.
    pub fn new(dfs: Arc<Dfs>, cluster: ClusterConfig) -> Result<Self> {
        cluster.validate()?;
        if cluster.membership.is_active() {
            dfs.set_down_nodes(&cluster.unavailable_at(0));
        }
        dfs.attach_topology(cluster.peak_nodes(), cluster.dfs_replication);
        let spill = if cluster.out_of_core.spill_enabled {
            Some(Arc::new(SpillDir::create()?))
        } else {
            None
        };
        Ok(Self {
            dfs,
            cluster,
            epochs: Arc::new(AtomicU64::new(0)),
            spill,
        })
    }

    /// The underlying DFS.
    pub fn dfs(&self) -> &Arc<Dfs> {
        &self.dfs
    }

    /// The cluster this runner simulates.
    pub fn cluster(&self) -> &ClusterConfig {
        &self.cluster
    }

    /// Re-synchronizes the job-epoch counter to `completed_jobs` jobs
    /// already run. The engine calls this with `0` at the start of a
    /// fresh run and with the restored job count on resume, so the
    /// epoch that keys node-crash draws matches the uninterrupted run's
    /// at every job. Under an elastic membership plan it also
    /// reconstructs the DFS down-set the uninterrupted run had at this
    /// point in its membership timeline, so writes issued before the
    /// next job (checkpoint commits, intermediate files) are placed
    /// identically — the membership half of driver-crash resume
    /// bit-identity.
    pub fn sync_job_epochs(&self, completed_jobs: u64) {
        self.epochs.store(completed_jobs, Ordering::Relaxed);
        if self.cluster.membership.is_active() {
            self.dfs
                .set_down_nodes(&self.cluster.unavailable_at(completed_jobs));
        }
    }

    /// Opens the next job epoch: advances the epoch counter, computes
    /// the node weather under the fault *and* membership plans, tells
    /// the DFS which nodes may not hold data this epoch (blacklisted,
    /// decommissioned, not yet joined, and announced revocation
    /// victims), processes membership events (joins and graceful
    /// decommissions rebalance replicas toward the new topology
    /// *before* the schedule's locality snapshot is taken), snapshots
    /// the input's replica map (journaled so a resumed driver replaying
    /// the epoch places identically; taken *before* this epoch's
    /// crashes are processed, because a node that crashes mid-job was
    /// still a preferred target when its attempts were placed),
    /// processes this epoch's crashes and revocations (replica loss +
    /// re-replication), verifies the input's replica checksums under
    /// the corruption plan, and charges the node-level counters.
    /// Degrades to [`Error::Degenerate`] when no node is left to run
    /// tasks.
    fn begin_job(&self, input: &str, counters: &Counters) -> Result<(NodeView, Vec<Vec<usize>>)> {
        let epoch = self.epochs.fetch_add(1, Ordering::Relaxed) + 1;
        let status = self.cluster.node_status(epoch);
        self.dfs.set_down_nodes(&self.cluster.unavailable_at(epoch));
        counters.max(Counter::NodesBlacklisted, status.blacklisted.len() as u64);
        if status.live.is_empty() {
            return Err(Error::Degenerate(format!(
                "all {} cluster nodes are blacklisted at job epoch {epoch}",
                self.cluster.nodes
            )));
        }
        // Membership events first: a join pulls data onto the newcomer
        // and a graceful decommission drains data off the leaver, so
        // the locality snapshot below already sees the epoch's
        // topology. Both are journaled per (epoch, node) — a resumed
        // driver re-moves nothing and the counters replay identically.
        for node in self.cluster.membership.joins_at(epoch) {
            counters.inc(Counter::NodeJoins);
            let moved = self.dfs.node_joined(epoch, node);
            counters.add(Counter::DfsBlocksRebalanced, moved);
        }
        for node in self.cluster.membership.decommissions_at(epoch) {
            counters.inc(Counter::NodesDecommissioned);
            let moved = self.dfs.node_decommissioned(epoch, node);
            counters.add(Counter::DfsBlocksRebalanced, moved);
        }
        let replicas = self.dfs.block_replicas_at(epoch, input);
        for &node in &status.crashed {
            // A spot revocation is a hard kill with different
            // bookkeeping: announced capacity loss, not node fault —
            // it neither advances the blacklist budget (NodeStatus
            // already excludes it from the replay) nor the crash
            // counter.
            if status.revoked.contains(&node) {
                counters.inc(Counter::NodesRevoked);
            } else {
                counters.inc(Counter::NodeCrashes);
            }
            let report = self.dfs.node_lost(epoch, node, &status.crashed);
            counters.add(Counter::DfsBlocksRereplicated, report.rereplicated);
        }
        let detected =
            self.dfs
                .scan_replicas_for_corruption(input, &replicas, &self.cluster.faults)?;
        counters.add(Counter::DfsCorruptBlocksDetected, detected);
        let survivors = status.survivors();
        if survivors.is_empty() {
            return Err(Error::Degenerate(format!(
                "every live node crashed during job epoch {epoch}; no survivor to finish the job"
            )));
        }
        Ok((
            NodeView {
                epoch,
                status,
                survivors,
            },
            replicas,
        ))
    }

    /// Runs one task as a bounded sequence of attempts under the
    /// cluster's fault plan.
    ///
    /// Each attempt is placed on a node of `nodes`' placement domain —
    /// preferring the nodes in `prefer` (the DFS replica holders of a
    /// map task's input block; empty for reduces) when one is in the
    /// domain — then either killed by the plan before doing any work
    /// (injected
    /// transient/heap faults), killed in flight by its node crashing
    /// (detected only after a heartbeat timeout), or executed via
    /// `body`. A failed attempt — injected or genuine — burns simulated
    /// slot time; `body` runs against a private counter bank that is
    /// merged into the job's only on success, so failed attempts leave
    /// no counter residue (Hadoop likewise discards failed-attempt
    /// counters). When the budget is exhausted the last genuine or
    /// injected-heap error surfaces; a purely transient exhaustion
    /// surfaces as [`Error::AttemptsExhausted`].
    fn run_attempts<T>(
        &self,
        nodes: &NodeView,
        site: &TaskSite<'_>,
        counters: &Arc<Counters>,
        mut body: impl FnMut(u32, bool, &Arc<Counters>) -> Result<(T, TaskCost)>,
    ) -> Result<(T, TaskTiming)> {
        let TaskSite {
            job: job_name,
            kind,
            index,
            prefer,
        } = *site;
        let plan = &self.cluster.faults;
        let model = &self.cluster.cost_model;
        let max = plan.max_attempts.max(1);
        let mut failed: Vec<f64> = Vec::new();
        // Failed attempts whose slot time is only computable once a
        // successful attempt reveals the task's base duration: the
        // progress fraction the attempt reached, plus any detection
        // latency (a heartbeat timeout for node-crash kills).
        let mut pending_progress: Vec<(f64, f64)> = Vec::new();
        let mut last_err: Option<Error> = None;
        let mut attempt: u32 = 0;
        let mut failures: u32 = 0;
        // The task's commit fence: every replacement the JobTracker
        // schedules is granted the token, so whichever attempt holds it
        // at commit time is the one whose output becomes visible.
        let fence = CommitFence::new();
        let mut zombies: u32 = 0;
        while failures < max {
            let mut forced_spill = false;
            counters.inc(Counter::AttemptsLaunched);
            let (node, node_local) = plan.place_attempt_preferring(
                nodes.domain(kind, attempt),
                prefer,
                job_name,
                kind,
                index,
                attempt,
            );
            match plan.decide(job_name, kind, index, attempt) {
                FaultDecision::FailTransient => {
                    counters.inc(Counter::AttemptsFailed);
                    pending_progress.push((
                        plan.failed_attempt_progress(job_name, kind, index, attempt),
                        0.0,
                    ));
                    fence.grant(attempt + 1);
                    last_err = None;
                    attempt += 1;
                    failures += 1;
                    continue;
                }
                FaultDecision::FailHeap if self.cluster.out_of_core.spill_enabled => {
                    // With spilling enabled a heap fault degrades the
                    // attempt instead of killing it: the sort buffer is
                    // clamped and the task spills its way through — no
                    // burned attempt, just more disk traffic.
                    counters.inc(Counter::HeapSpillRescues);
                    forced_spill = true;
                }
                FaultDecision::FailHeap => {
                    counters.inc(Counter::AttemptsFailed);
                    pending_progress.push((
                        plan.failed_attempt_progress(job_name, kind, index, attempt),
                        0.0,
                    ));
                    last_err = Some(Error::HeapSpace {
                        task: format!("{}-{index}", kind.label()),
                        attempted: self.cluster.heap_per_task.saturating_add(1),
                        limit: self.cluster.heap_per_task,
                    });
                    fence.grant(attempt + 1);
                    attempt += 1;
                    failures += 1;
                    continue;
                }
                FaultDecision::Run => {}
            }
            // An attempt placed on a node that dies mid-job either
            // finishes before the crash point (its output is computed,
            // stranded on the dead node, and invalidated at
            // shuffle-fetch time) or is killed in flight — noticed only
            // when the node misses its heartbeat. A node-loss kill is
            // KILLED, not FAILED, in Hadoop's taxonomy: it does not
            // count against the task's failure budget (the task did
            // nothing wrong), and its replacement goes to a survivor,
            // so at most one kill can strike a task per epoch.
            if nodes.status.crashed.contains(&node)
                && !plan.attempt_completed_before_crash(
                    job_name,
                    kind,
                    index,
                    attempt,
                    nodes.epoch,
                    node,
                )
            {
                counters.inc(Counter::AttemptsKilled);
                pending_progress.push((
                    plan.failed_attempt_progress(job_name, kind, index, attempt),
                    model.heartbeat_timeout_secs,
                ));
                fence.grant(attempt + 1);
                last_err = None;
                attempt += 1;
                continue;
            }
            // A heartbeat false positive declares a *live* attempt dead:
            // the JobTracker schedules a duplicate and re-grants the
            // task's commit fence to it while the original keeps running
            // as a zombie. The zombie finishes its (deterministic,
            // bit-identical) work and tries to commit — the fence
            // rejects it, so exactly one attempt's output is ever
            // visible. Like a node-loss kill this is KILLED, not FAILED:
            // the task did nothing wrong and its retry budget is
            // untouched.
            if zombies < MAX_ZOMBIES_PER_TASK
                && plan.heartbeat_false_positive(job_name, kind, index, attempt)
            {
                zombies += 1;
                counters.inc(Counter::AttemptsFenced);
                fence.grant(attempt + 1);
                if !fence.try_commit(attempt) {
                    counters.inc(Counter::ZombieCommitsRejected);
                }
                // The zombie held its slot for the full task (progress
                // 1.0) and the duplicate only started once the missed
                // heartbeats were (falsely) confirmed dead.
                pending_progress.push((1.0, model.heartbeat_timeout_secs));
                last_err = None;
                attempt += 1;
                continue;
            }
            let attempt_counters = Arc::new(Counters::new());
            match body(attempt, forced_spill, &attempt_counters) {
                Ok((out, cost)) => {
                    // The winner publishes through the fence. Every kill
                    // path above re-granted the token to its successor,
                    // so the attempt that reaches here always holds it —
                    // but the fence, not the control flow, is the
                    // authority on visibility.
                    if !fence.try_commit(attempt) {
                        counters.inc(Counter::AttemptsFenced);
                        counters.inc(Counter::ZombieCommitsRejected);
                        pending_progress.push((1.0, model.heartbeat_timeout_secs));
                        last_err = None;
                        attempt += 1;
                        continue;
                    }
                    counters.merge(&attempt_counters);
                    // Locality is charged for the winning attempt only:
                    // that is the copy of the work whose input actually
                    // had to reach its node.
                    if kind == TaskKind::Map && !prefer.is_empty() {
                        counters.inc(if node_local {
                            Counter::MapsNodeLocal
                        } else {
                            Counter::MapsRemote
                        });
                    }
                    let base = cost.duration(model);
                    let slowdown = plan.straggler_multiplier(job_name, kind, index, attempt);
                    let setup = model.task_setup_secs;
                    for (p, extra) in pending_progress {
                        let mut charge = setup + p * (base - setup).max(0.0);
                        if extra > 0.0 {
                            charge += extra;
                        }
                        failed.push(charge);
                    }
                    return Ok((
                        out,
                        TaskTiming {
                            duration: base * slowdown,
                            base,
                            failed,
                            node,
                        },
                    ));
                }
                Err(e) => {
                    counters.inc(Counter::AttemptsFailed);
                    // How far a genuine failure got is unknowable here;
                    // charge its setup so the slot time is not free.
                    failed.push(model.task_setup_secs);
                    fence.grant(attempt + 1);
                    last_err = Some(e);
                    attempt += 1;
                    failures += 1;
                }
            }
        }
        Err(last_err.unwrap_or(Error::AttemptsExhausted {
            task: format!("{}-{index}", kind.label()),
            attempts: max,
        }))
    }

    /// Applies speculative execution post hoc and flattens per-task
    /// timings into the duration list the wave scheduler packs: one
    /// entry per winning attempt plus one per failed or losing attempt.
    ///
    /// Speculation is decided from the simulated durations themselves —
    /// a task whose duration exceeds the configured multiple of the
    /// phase median gets a backup attempt launched at that trigger
    /// point, running at the task's healthy-node speed; the first
    /// finisher wins and the loser's slot time is kept in the schedule
    /// as waste. Outputs always come from the primary attempt (both
    /// attempts compute identical results), so speculation never
    /// changes job output — only the simulated schedule.
    fn finalize_phase(&self, timings: Vec<TaskTiming>, counters: &Counters) -> Vec<f64> {
        let plan = &self.cluster.faults;
        // A failure is only detected when the attempt dies, and the
        // replacement attempt starts after that, so every failed
        // attempt serializes in front of the one that finally
        // succeeds: the task's completion is the sum.
        let mut durations: Vec<f64> = timings
            .iter()
            .map(|t| t.failed.iter().sum::<f64>() + t.duration)
            .collect();
        let mut extra: Vec<f64> = Vec::new();
        if plan.speculative_execution && durations.len() >= 2 {
            let mut sorted = durations.clone();
            sorted.sort_by(f64::total_cmp);
            let mid = sorted.len() / 2;
            let median = if sorted.len() % 2 == 0 {
                0.5 * (sorted[mid - 1] + sorted[mid])
            } else {
                sorted[mid]
            };
            let trigger = plan.speculative_slowdown_threshold * median;
            if trigger.is_finite() && trigger > 0.0 {
                for (i, t) in timings.iter().enumerate() {
                    let eff = durations[i];
                    if eff > trigger {
                        counters.inc(Counter::SpeculativeLaunched);
                        counters.inc(Counter::AttemptsLaunched);
                        let backup_total = trigger + t.base;
                        if backup_total < eff {
                            // Backup wins; the primary is killed at the
                            // backup's finish after occupying a slot
                            // the whole time.
                            durations[i] = backup_total;
                            extra.push(backup_total);
                        } else {
                            // Primary wins; the backup's slot time from
                            // launch to the primary's finish is wasted.
                            counters.inc(Counter::SpeculativeWasted);
                            extra.push(eff - trigger);
                        }
                    }
                }
            }
        }
        durations.extend(extra);
        durations
    }

    /// Detects shuffle-fetch failures — maps whose winning attempt ran
    /// on a node that crashed this epoch — and re-executes each lost
    /// map via `rerun`, replacing its stranded segments.
    ///
    /// Re-execution is deterministic: the same split through the same
    /// mapper yields bit-identical segments, so job *output* never
    /// changes — only the schedule. The re-run's counters are charged
    /// to a scratch bank and discarded (the original, stranded attempt
    /// already charged the job), keeping counter totals fault-invariant.
    /// Returns the re-run durations: a heartbeat timeout to notice the
    /// dead node plus the map's healthy-node time, packed as an extra
    /// wave on the survivors' map slots by [`JobRunner::compute_timing`].
    fn reexecute_lost_maps(
        &self,
        nodes: &NodeView,
        site: &JobSite<'_>,
        counters: &Arc<Counters>,
        map_outputs: &mut [MapTaskOut],
        mut rerun: impl FnMut(usize, &Arc<Counters>) -> Result<(Vec<ShuffleSegment>, TaskCost)>,
    ) -> Result<Vec<f64>> {
        if nodes.status.crashed.is_empty() || map_outputs.is_empty() {
            return Ok(Vec::new());
        }
        let model = &self.cluster.cost_model;
        let plan = &self.cluster.faults;
        let winner_nodes: Vec<usize> = map_outputs.iter().map(|m| m.timing.node).collect();
        let lost = detect_fetch_failures(
            &winner_nodes,
            &nodes.status.crashed,
            site.num_reduce_tasks,
            counters,
        );
        let mut durations = Vec::with_capacity(lost.len());
        for i in lost {
            counters.inc(Counter::MapsReexecuted);
            counters.inc(Counter::AttemptsLaunched);
            // Re-executed maps go to survivors, preferring the block's
            // surviving replica holders (the crashed holder has been
            // stripped out by the domain intersection).
            let prefer = site.replicas.get(i).map(Vec::as_slice).unwrap_or(&[]);
            let (node, node_local) =
                plan.place_reexecuted_map(&nodes.survivors, prefer, site.name, i);
            if !prefer.is_empty() {
                counters.inc(if node_local {
                    Counter::MapsNodeLocal
                } else {
                    Counter::MapsRemote
                });
            }
            let scratch = Arc::new(Counters::new());
            let (segments, cost) = rerun(i, &scratch)?;
            map_outputs[i].segments = segments;
            map_outputs[i].timing.node = node;
            durations.push(model.heartbeat_timeout_secs + cost.duration(model));
        }
        Ok(durations)
    }

    /// Applies the plan's network weather to the shuffle: every
    /// `(map output, reduce task)` fetch draws per-try flake decisions
    /// (salt 14). Each flaked try charges one `fetch_retries` and an
    /// exponential-backoff wait (salt-15 jitter) that is added to the
    /// fetching reducer's simulated duration — so the wave scheduler,
    /// and any multi-tenant arbitration consuming the resulting
    /// [`JobTiming`], see the retry delays. A fetch that burns its
    /// whole retry budget declares the map output lost and escalates to
    /// the stranded-output re-execution path, with the same accounting
    /// as a crashed output holder.
    ///
    /// Pure plan arithmetic plus deterministic re-execution, evaluated
    /// single-threaded in the driver: answers and logical counters stay
    /// bit-identical; only the simulated clock and the fault counters
    /// move. Returns the re-execution durations (packed as an extra map
    /// wave) and the per-reduce-partition backoff delays.
    fn apply_network_weather(
        &self,
        nodes: &NodeView,
        site: &JobSite<'_>,
        counters: &Arc<Counters>,
        map_outputs: &mut [MapTaskOut],
        mut rerun: impl FnMut(usize, &Arc<Counters>) -> Result<(Vec<ShuffleSegment>, TaskCost)>,
    ) -> Result<(Vec<f64>, Vec<f64>)> {
        let plan = &self.cluster.faults;
        let mut delays = vec![0.0f64; site.num_reduce_tasks];
        if plan.fetch_flake_prob <= 0.0 || map_outputs.is_empty() {
            return Ok((Vec::new(), delays));
        }
        let model = &self.cluster.cost_model;
        let budget = plan.fetch_retry_budget.max(1);
        let mut retries: u64 = 0;
        let mut backoff_total = 0.0f64;
        let mut exhausted: Vec<usize> = Vec::new();
        for m in 0..map_outputs.len() {
            let mut burned = false;
            for (p, delay) in delays.iter_mut().enumerate() {
                let mut try_no = 0u32;
                while try_no < budget && plan.fetch_flakes(site.name, m, p, try_no) {
                    retries += 1;
                    let wait = plan.fetch_backoff_secs(site.name, m, p, try_no);
                    *delay += wait;
                    backoff_total += wait;
                    try_no += 1;
                }
                if try_no >= budget {
                    burned = true;
                }
            }
            if burned {
                exhausted.push(m);
            }
        }
        counters.add(Counter::FetchRetries, retries);
        counters.add(Counter::FetchBackoffSecs, backoff_total.round() as u64);
        if exhausted.is_empty() {
            return Ok((Vec::new(), delays));
        }
        // Budget burned: the JobTracker treats these outputs exactly
        // like outputs stranded on a crashed node — charged as fetch
        // failures and re-executed on the survivor domain. No heartbeat
        // latency here: the burned backoff above *is* the detection
        // time, already charged to the reducers.
        counters.add(Counter::MapOutputsLost, exhausted.len() as u64);
        counters.add(
            Counter::ShuffleFetchFailures,
            (exhausted.len() * site.num_reduce_tasks) as u64,
        );
        let mut durations = Vec::with_capacity(exhausted.len());
        for i in exhausted {
            counters.inc(Counter::MapsReexecuted);
            counters.inc(Counter::AttemptsLaunched);
            let prefer = site.replicas.get(i).map(Vec::as_slice).unwrap_or(&[]);
            let (node, node_local) =
                plan.place_reexecuted_map(&nodes.survivors, prefer, site.name, i);
            if !prefer.is_empty() {
                counters.inc(if node_local {
                    Counter::MapsNodeLocal
                } else {
                    Counter::MapsRemote
                });
            }
            let scratch = Arc::new(Counters::new());
            let (segments, cost) = rerun(i, &scratch)?;
            map_outputs[i].segments = segments;
            map_outputs[i].timing.node = node;
            durations.push(cost.duration(model));
        }
        Ok((durations, delays))
    }

    /// Computes the job's timing on the cluster's *live* capacity, then
    /// appends the lost-map re-execution wave: those maps run after the
    /// fetch failures surface, on the survivors' map slots, extending
    /// the simulated makespan. With no node faults this reduces exactly
    /// to the full-cluster computation — every duration bit unchanged.
    fn compute_timing(
        &self,
        nodes: &NodeView,
        map_durations: Vec<f64>,
        reduce_durations: Vec<f64>,
        reruns: Vec<f64>,
        wall_secs: f64,
    ) -> JobTiming {
        let mut timing = JobTiming::compute(
            &self.cluster.cost_model,
            map_durations,
            reduce_durations,
            self.cluster.live_map_slots(nodes.status.live.len()),
            self.cluster.live_reduce_slots(nodes.survivors.len()),
            wall_secs,
        );
        if !reruns.is_empty() {
            timing.simulated_secs +=
                makespan(&reruns, self.cluster.live_map_slots(nodes.survivors.len()));
            timing.map_durations.extend(reruns);
        }
        timing
    }

    /// Runs a job over a DFS input file and returns its output,
    /// counters and timing.
    pub fn run<J: Job>(
        &self,
        job: &J,
        input: &str,
        config: &JobConfig,
    ) -> Result<JobResult<J::Output>> {
        if config.num_reduce_tasks == 0 {
            return Err(Error::Config(format!(
                "job {} needs at least one reduce task",
                job.name()
            )));
        }
        let wall_start = Instant::now();
        let splits = self.dfs.splits(input)?;
        self.dfs.begin_dataset_read();
        let counters = Arc::new(Counters::new());
        let (nodes, replicas) = self.begin_job(input, &counters)?;

        // ---------------- map phase ----------------
        let mut map_outputs =
            self.run_map_phase(job, &nodes, &splits, &replicas, config, &counters)?;

        // Maps whose winning attempt finished on a node that then
        // crashed left their output on a dead disk; reducers notice at
        // fetch time and the maps are re-executed on survivors.
        let site = JobSite {
            name: job.name(),
            num_reduce_tasks: config.num_reduce_tasks,
            replicas: &replicas,
        };
        let mut reruns =
            self.reexecute_lost_maps(&nodes, &site, &counters, &mut map_outputs, |i, c| {
                self.run_map_task(job, i, &splits[i], config, 0, false, c)
            })?;
        // Network weather: flaked fetches back off (delaying reducers)
        // and, once a retry budget burns, escalate to the same
        // re-execution path.
        let (weather_reruns, fetch_delays) =
            self.apply_network_weather(&nodes, &site, &counters, &mut map_outputs, |i, c| {
                self.run_map_task(job, i, &splits[i], config, 0, false, c)
            })?;
        reruns.extend(weather_reruns);

        let (map_durations, partitioned) = self.collect_map_outputs(map_outputs, config, &counters);

        // ---------------- reduce phase ----------------
        let (outputs, reduce_durations) =
            self.run_reduce_phase(job, &nodes, partitioned, &fetch_delays, &counters)?;

        let timing = self.compute_timing(
            &nodes,
            map_durations,
            reduce_durations,
            reruns,
            wall_start.elapsed().as_secs_f64(),
        );
        let counters = Arc::try_unwrap(counters).unwrap_or_else(|arc| {
            // All task threads are joined; the Arc is unique in
            // practice. Fall back to a copy if not.
            let c = Counters::new();
            c.merge(&arc);
            c
        });
        Ok(JobResult {
            output: outputs,
            counters,
            timing,
        })
    }

    /// Runs a job over an in-memory [`PointCache`] instead of a DFS
    /// file — the Spark-style iterative mode of the paper's §6 future
    /// work. No dataset read is charged (the cache build already paid
    /// one), no bytes are scanned from the DFS, and no text is parsed;
    /// the map cost is the `secs_per_cached_point` memory-scan term.
    ///
    /// Requires the job's mapper to implement [`PointMapper`]; results
    /// are identical to [`JobRunner::run`] on the text form of the same
    /// points.
    pub fn run_cached<J>(
        &self,
        job: &J,
        cache: &PointCache,
        config: &JobConfig,
    ) -> Result<JobResult<J::Output>>
    where
        J: Job,
        J::Mapper: PointMapper,
    {
        if config.num_reduce_tasks == 0 {
            return Err(Error::Config(format!(
                "job {} needs at least one reduce task",
                job.name()
            )));
        }
        let wall_start = Instant::now();
        // Cached splits mirror the DFS blocks of the cached file, so
        // locality preferences come from the same journaled block map
        // as the streaming path.
        let counters = Arc::new(Counters::new());
        let (nodes, replicas) = self.begin_job(cache.path(), &counters)?;
        let splits = cache.splits();

        let mut map_outputs =
            self.run_cached_map_phase(job, &nodes, splits, &replicas, config, &counters)?;
        let site = JobSite {
            name: job.name(),
            num_reduce_tasks: config.num_reduce_tasks,
            replicas: &replicas,
        };
        let mut reruns =
            self.reexecute_lost_maps(&nodes, &site, &counters, &mut map_outputs, |i, c| {
                self.run_cached_map_task(job, i, &splits[i], config, 0, false, c)
            })?;
        let (weather_reruns, fetch_delays) =
            self.apply_network_weather(&nodes, &site, &counters, &mut map_outputs, |i, c| {
                self.run_cached_map_task(job, i, &splits[i], config, 0, false, c)
            })?;
        reruns.extend(weather_reruns);
        let (map_durations, partitioned) = self.collect_map_outputs(map_outputs, config, &counters);
        let (outputs, reduce_durations) =
            self.run_reduce_phase(job, &nodes, partitioned, &fetch_delays, &counters)?;

        let timing = self.compute_timing(
            &nodes,
            map_durations,
            reduce_durations,
            reruns,
            wall_start.elapsed().as_secs_f64(),
        );
        let counters = Arc::try_unwrap(counters).unwrap_or_else(|arc| {
            let c = Counters::new();
            c.merge(&arc);
            c
        });
        Ok(JobResult {
            output: outputs,
            counters,
            timing,
        })
    }

    fn run_cached_map_phase<J>(
        &self,
        job: &J,
        nodes: &NodeView,
        splits: &[CachedSplit],
        replicas: &[Vec<usize>],
        config: &JobConfig,
        counters: &Arc<Counters>,
    ) -> Result<Vec<MapTaskOut>>
    where
        J: Job,
        J::Mapper: PointMapper,
    {
        let n = splits.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let threads = self
            .cluster
            .execution_threads(self.cluster.live_map_slots(nodes.status.live.len()))
            .min(n);
        let next = AtomicUsize::new(0);
        let failed = AtomicBool::new(false);
        let results: Mutex<Vec<Option<Result<MapTaskOut>>>> =
            Mutex::new((0..n).map(|_| None).collect());

        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    if failed.load(Ordering::Relaxed) {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let prefer = replicas.get(i).map(Vec::as_slice).unwrap_or(&[]);
                    let r = self
                        .run_attempts(
                            nodes,
                            &TaskSite {
                                job: job.name(),
                                kind: TaskKind::Map,
                                index: i,
                                prefer,
                            },
                            counters,
                            |attempt, forced, c| {
                                self.run_cached_map_task(
                                    job, i, &splits[i], config, attempt, forced, c,
                                )
                            },
                        )
                        .map(|(segments, timing)| MapTaskOut { segments, timing });
                    if r.is_err() {
                        failed.store(true, Ordering::Relaxed);
                    }
                    results.lock()[i] = Some(r);
                });
            }
        });

        let mut out = Vec::with_capacity(n);
        for slot in results.into_inner() {
            match slot {
                Some(Ok(m)) => out.push(m),
                Some(Err(e)) => return Err(e),
                None => continue,
            }
        }
        if out.len() < n {
            return Err(Error::Task(format!(
                "job {}: {} cached map task(s) did not run",
                job.name(),
                n - out.len()
            )));
        }
        Ok(out)
    }

    #[allow(clippy::too_many_arguments)]
    fn run_cached_map_task<J>(
        &self,
        job: &J,
        index: usize,
        split: &CachedSplit,
        config: &JobConfig,
        attempt: u32,
        forced_spill: bool,
        counters: &Arc<Counters>,
    ) -> Result<(Vec<ShuffleSegment>, TaskCost)>
    where
        J: Job,
        J::Mapper: PointMapper,
    {
        let mut ctx = TaskContext::new(
            format!("map-{index}"),
            Arc::clone(counters),
            self.cluster.heap_per_task,
        );
        let num_parts = config.num_reduce_tasks;
        let partitioner = |k: &J::Key| job.partition(k, num_parts);
        let mut spill = self.spill.as_ref().map(|dir| {
            MapSpill::new(
                Arc::clone(dir),
                self.cluster.out_of_core,
                forced_spill,
                num_parts,
            )
        });
        let mut emitter: Emitter<J::Key, J::Value> = if spill.is_some() {
            Emitter::with_byte_tracking(num_parts)
        } else {
            Emitter::new(num_parts)
        };
        let mut mapper = job.create_mapper();

        mapper.setup(&mut ctx)?;
        // Hand the mapper whole point blocks (the blocked-kernel fast
        // path), then drive the per-point loop unchanged so spill
        // boundaries and counter order match the unbatched execution.
        let dim = split.points.dim();
        let flat = split.points.flat();
        let block_floats = MAP_BLOCK_POINTS * dim;
        for (block_idx, block) in flat.chunks(block_floats).enumerate() {
            let rows = block.len() / dim;
            let base = block_idx * MAP_BLOCK_POINTS;
            mapper.prepare_block(block, &split.norms[base..base + rows], &mut ctx)?;
            for point in block.chunks_exact(dim) {
                counters.inc(Counter::MapInputRecords);
                let mut out = MapOutput {
                    emitter: &mut emitter,
                    partitioner: &partitioner,
                    counters,
                };
                mapper.map_point(point, &mut out, &mut ctx)?;
                match spill.as_mut() {
                    Some(s) => s.maybe_spill(
                        &mut emitter,
                        &mut ctx,
                        counters,
                        &self.cluster.faults,
                        job.name(),
                        index,
                        attempt,
                    )?,
                    None => {
                        if emitter.records_since_spill() >= config.spill_threshold_records {
                            counters.inc(Counter::Spills);
                            for part in emitter.partitions_mut() {
                                sort_and_combine(job, part, counters);
                            }
                            emitter.reset_spill_window();
                        }
                    }
                }
            }
        }
        {
            let mut out = MapOutput {
                emitter: &mut emitter,
                partitioner: &partitioner,
                counters,
            };
            mapper.close(&mut out, &mut ctx)?;
        }

        let (segments, shuffle_out, spill_io) =
            self.finalize_map_output(job, spill, &mut emitter, &mut ctx, counters)?;
        counters.add(Counter::ShuffleBytes, shuffle_out);
        counters.max(Counter::HeapPeakBytes, ctx.heap.peak());

        Ok((
            segments,
            TaskCost {
                input_bytes: 0,
                cached_points: split.points.len() as u64,
                shuffle_bytes_out: shuffle_out,
                shuffle_bytes_in: 0,
                compute_units: ctx.compute_units(),
                spill_io_bytes: spill_io.disk_bytes(),
                compressed_bytes: spill_io.compressed_raw,
                decompressed_bytes: spill_io.decompressed_raw,
            },
        ))
    }

    /// Shared map-task epilogue: the spilled path merges runs into
    /// final combined output runs; the unspilled (or buffered-mode)
    /// path performs the legacy in-memory sort/combine/serialize —
    /// bit-for-bit the pre-out-of-core behaviour.
    fn finalize_map_output<J: Job>(
        &self,
        job: &J,
        mut spill: Option<MapSpill>,
        emitter: &mut Emitter<J::Key, J::Value>,
        ctx: &mut TaskContext,
        counters: &Arc<Counters>,
    ) -> Result<(Vec<ShuffleSegment>, u64, SpillIo)> {
        if spill.as_ref().is_some_and(|s| s.spills > 0) {
            let s = spill.take().expect("spill state present");
            return s.finish(job, emitter, ctx, counters);
        }
        if let Some(s) = spill.take() {
            // Nothing spilled; give back the sort-buffer charge and
            // fall through to the buffered finalize.
            ctx.heap.release(s.ledger_charged);
        }
        let mut segments = Vec::with_capacity(emitter.partitions_mut().len());
        let mut shuffle_out = 0u64;
        for part in emitter.partitions_mut() {
            sort_and_combine(job, part, counters);
            let seg = encode_segment(part);
            shuffle_out += seg.len() as u64;
            segments.push(ShuffleSegment::Mem(seg));
        }
        Ok((segments, shuffle_out, SpillIo::default()))
    }

    fn run_map_phase<J: Job>(
        &self,
        job: &J,
        nodes: &NodeView,
        splits: &[InputSplit],
        replicas: &[Vec<usize>],
        config: &JobConfig,
        counters: &Arc<Counters>,
    ) -> Result<Vec<MapTaskOut>> {
        let n = splits.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let threads = self
            .cluster
            .execution_threads(self.cluster.live_map_slots(nodes.status.live.len()))
            .min(n);
        let next = AtomicUsize::new(0);
        let failed = AtomicBool::new(false);
        let results: Mutex<Vec<Option<Result<MapTaskOut>>>> =
            Mutex::new((0..n).map(|_| None).collect());

        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    if failed.load(Ordering::Relaxed) {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let prefer = replicas.get(i).map(Vec::as_slice).unwrap_or(&[]);
                    let r = self
                        .run_attempts(
                            nodes,
                            &TaskSite {
                                job: job.name(),
                                kind: TaskKind::Map,
                                index: i,
                                prefer,
                            },
                            counters,
                            |attempt, forced, c| {
                                self.run_map_task(job, i, &splits[i], config, attempt, forced, c)
                            },
                        )
                        .map(|(segments, timing)| MapTaskOut { segments, timing });
                    if r.is_err() {
                        failed.store(true, Ordering::Relaxed);
                    }
                    results.lock()[i] = Some(r);
                });
            }
        });

        let mut out = Vec::with_capacity(n);
        for slot in results.into_inner() {
            match slot {
                Some(Ok(m)) => out.push(m),
                Some(Err(e)) => return Err(e),
                // Skipped after another task failed: only reachable when
                // some earlier slot holds the error, which the loop
                // returns first (results are scanned in order) — unless
                // the failing task has a higher index; scan again below.
                None => continue,
            }
        }
        if out.len() < n {
            // A task was skipped without any stored error: impossible
            // unless a failure happened; find it.
            return Err(Error::Task(format!(
                "job {}: {} map task(s) did not run",
                job.name(),
                n - out.len()
            )));
        }
        Ok(out)
    }

    #[allow(clippy::too_many_arguments)]
    fn run_map_task<J: Job>(
        &self,
        job: &J,
        index: usize,
        split: &InputSplit,
        config: &JobConfig,
        attempt: u32,
        forced_spill: bool,
        counters: &Arc<Counters>,
    ) -> Result<(Vec<ShuffleSegment>, TaskCost)> {
        let mut ctx = TaskContext::new(
            format!("map-{index}"),
            Arc::clone(counters),
            self.cluster.heap_per_task,
        );
        let num_parts = config.num_reduce_tasks;
        let partitioner = |k: &J::Key| job.partition(k, num_parts);
        let mut spill = self.spill.as_ref().map(|dir| {
            MapSpill::new(
                Arc::clone(dir),
                self.cluster.out_of_core,
                forced_spill,
                num_parts,
            )
        });
        let mut emitter: Emitter<J::Key, J::Value> = if spill.is_some() {
            Emitter::with_byte_tracking(num_parts)
        } else {
            Emitter::new(num_parts)
        };
        let mut mapper = job.create_mapper();

        mapper.setup(&mut ctx)?;
        for (offset, line) in split.records() {
            counters.inc(Counter::MapInputRecords);
            let line = match line {
                Ok(line) => line,
                Err(raw) => {
                    ctx.skip_bad_record(raw);
                    continue;
                }
            };
            let mut out = MapOutput {
                emitter: &mut emitter,
                partitioner: &partitioner,
                counters,
            };
            mapper.map(offset, line, &mut out, &mut ctx)?;
            match spill.as_mut() {
                Some(s) => s.maybe_spill(
                    &mut emitter,
                    &mut ctx,
                    counters,
                    &self.cluster.faults,
                    job.name(),
                    index,
                    attempt,
                )?,
                None => {
                    if emitter.records_since_spill() >= config.spill_threshold_records {
                        counters.inc(Counter::Spills);
                        for part in emitter.partitions_mut() {
                            sort_and_combine(job, part, counters);
                        }
                        emitter.reset_spill_window();
                    }
                }
            }
        }
        {
            let mut out = MapOutput {
                emitter: &mut emitter,
                partitioner: &partitioner,
                counters,
            };
            mapper.close(&mut out, &mut ctx)?;
        }

        // Final sort/combine and serialization (merged from spill runs
        // when the task spilled).
        let (segments, shuffle_out, spill_io) =
            self.finalize_map_output(job, spill, &mut emitter, &mut ctx, counters)?;
        counters.add(Counter::ShuffleBytes, shuffle_out);
        counters.add(Counter::InputBytes, split.len() as u64);
        counters.max(Counter::HeapPeakBytes, ctx.heap.peak());
        self.dfs.charge_split_read(split);

        Ok((
            segments,
            TaskCost {
                input_bytes: split.len() as u64,
                cached_points: 0,
                shuffle_bytes_out: shuffle_out,
                shuffle_bytes_in: 0,
                compute_units: ctx.compute_units(),
                spill_io_bytes: spill_io.disk_bytes(),
                compressed_bytes: spill_io.compressed_raw,
                decompressed_bytes: spill_io.decompressed_raw,
            },
        ))
    }

    /// Transposes map outputs into per-partition segment lists and
    /// returns the map task durations (speculation applied, failed
    /// attempts included).
    fn collect_map_outputs(
        &self,
        map_outputs: Vec<MapTaskOut>,
        config: &JobConfig,
        counters: &Counters,
    ) -> (Vec<f64>, Vec<Vec<ShuffleSegment>>) {
        let mut timings = Vec::with_capacity(map_outputs.len());
        let mut partitioned: Vec<Vec<ShuffleSegment>> =
            (0..config.num_reduce_tasks).map(|_| Vec::new()).collect();
        for m in map_outputs {
            timings.push(m.timing);
            for (p, seg) in m.segments.into_iter().enumerate() {
                if !seg.is_empty() {
                    partitioned[p].push(seg);
                }
            }
        }
        (self.finalize_phase(timings, counters), partitioned)
    }

    fn run_reduce_phase<J: Job>(
        &self,
        job: &J,
        nodes: &NodeView,
        partitioned: Vec<Vec<ShuffleSegment>>,
        fetch_delays: &[f64],
        counters: &Arc<Counters>,
    ) -> Result<(Vec<J::Output>, Vec<f64>)> {
        let n = partitioned.len();
        let threads = self
            .cluster
            .execution_threads(self.cluster.live_reduce_slots(nodes.survivors.len()))
            .min(n.max(1));
        let next = AtomicUsize::new(0);
        let failed = AtomicBool::new(false);
        let max_attempts = self.cluster.faults.max_attempts.max(1);
        let inputs: Vec<Mutex<Option<Vec<ShuffleSegment>>>> = partitioned
            .into_iter()
            .map(|p| Mutex::new(Some(p)))
            .collect();
        type ReduceOut<O> = Option<Result<(Vec<O>, TaskTiming)>>;
        let results: Mutex<Vec<ReduceOut<J::Output>>> = Mutex::new((0..n).map(|_| None).collect());

        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    if failed.load(Ordering::Relaxed) {
                        break;
                    }
                    let p = next.fetch_add(1, Ordering::Relaxed);
                    if p >= n {
                        break;
                    }
                    let mut store = inputs[p].lock().take();
                    let r = self.run_attempts(
                        nodes,
                        &TaskSite {
                            job: job.name(),
                            kind: TaskKind::Reduce,
                            index: p,
                            prefer: &[],
                        },
                        counters,
                        |_attempt, _forced, c| {
                            // Retries re-read the shuffled segments; keep
                            // a copy while another attempt may follow.
                            // Kills (node loss, fencing) advance the
                            // attempt number without consuming the
                            // failure budget, so only a budget of one —
                            // where a single genuine failure ends the
                            // task — proves this body runs once.
                            let segments = if max_attempts == 1 {
                                store.take().expect("segments present for sole attempt")
                            } else {
                                store.clone().expect("segments present")
                            };
                            self.run_reduce_task(job, p, segments, c)
                        },
                    );
                    // Backoff waits for flaked fetches delay this
                    // reducer before any attempt can run, whatever node
                    // it lands on: charge the wait to both the effective
                    // and the healthy-node duration, so speculation
                    // never "rescues" a network delay.
                    let r = r.map(|(out, mut timing)| {
                        let wait = fetch_delays.get(p).copied().unwrap_or(0.0);
                        timing.duration += wait;
                        timing.base += wait;
                        (out, timing)
                    });
                    if r.is_err() {
                        failed.store(true, Ordering::Relaxed);
                    }
                    results.lock()[p] = Some(r);
                });
            }
        });

        let mut outputs = Vec::new();
        let mut timings = Vec::with_capacity(n);
        for slot in results.into_inner() {
            match slot {
                Some(Ok((out, timing))) => {
                    timings.push(timing);
                    outputs.extend(out);
                }
                Some(Err(e)) => return Err(e),
                None => continue,
            }
        }
        if timings.len() < n {
            return Err(Error::Task(format!(
                "job {}: {} reduce task(s) did not run",
                job.name(),
                n - timings.len()
            )));
        }
        let durations = self.finalize_phase(timings, counters);
        Ok((outputs, durations))
    }

    fn run_reduce_task<J: Job>(
        &self,
        job: &J,
        partition: usize,
        sources: Vec<ShuffleSegment>,
        counters: &Arc<Counters>,
    ) -> Result<(Vec<J::Output>, TaskCost)> {
        let mut ctx = TaskContext::new(
            format!("reduce-{partition}"),
            Arc::clone(counters),
            self.cluster.heap_per_task,
        );
        let shuffle_in: u64 = sources.iter().map(|s| s.len() as u64).sum();
        let mut reducer = job.create_reducer();
        let mut out: Vec<J::Output> = Vec::new();
        reducer.setup(&mut ctx)?;

        // Out-of-core reduces bound the merge fan-in the same way the
        // map side does: too many sources get pre-merged into raw
        // on-disk runs (consecutive batches from the front, results
        // re-inserted at the front, so the flat tie-break order is
        // preserved), and the final merge's resident footprint is
        // charged to the heap ledger.
        let mut sources = sources;
        let mut io = SpillIo::default();
        let mut merge_charged = 0u64;
        if let Some(dir) = self.spill.as_ref() {
            let cfg = self.cluster.out_of_core;
            while sources.len() > cfg.merge_fan_in {
                let batch: Vec<ShuffleSegment> = sources.drain(..cfg.merge_fan_in).collect();
                let resident: u64 = batch.iter().map(ShuffleSegment::merge_resident_bytes).sum();
                ctx.heap.charge(resident)?;
                let merged = merge_to_run::<J::Key, J::Value>(dir, &cfg, batch);
                ctx.heap.release(resident);
                let (run, pass_io) = merged?;
                counters.inc(Counter::ShuffleMergePasses);
                counters.add(Counter::ShuffleSpillBytes, run.raw_len());
                io.absorb(&pass_io);
                sources.insert(0, ShuffleSegment::Disk(Arc::new(run)));
            }
            merge_charged = sources
                .iter()
                .map(ShuffleSegment::merge_resident_bytes)
                .sum();
            ctx.heap.charge(merge_charged)?;
        }

        let mut merge: MergeIter<J::Key, J::Value> = MergeIter::from_sources(sources)?;
        let mut lookahead: Option<(J::Key, J::Value)> = match merge.next() {
            None => None,
            Some(r) => {
                counters.inc(Counter::ReduceInputRecords);
                Some(r?)
            }
        };
        while let Some((key, first_value)) = lookahead.take() {
            counters.inc(Counter::ReduceInputGroups);
            let group_key = key.clone();
            let mut first = Some(first_value);
            let mut boundary: Option<(J::Key, J::Value)> = None;
            let mut decode_err: Option<Error> = None;
            {
                let mut next_fn = || -> Option<J::Value> {
                    if let Some(v) = first.take() {
                        return Some(v);
                    }
                    if boundary.is_some() || decode_err.is_some() {
                        return None;
                    }
                    match merge.next() {
                        None => None,
                        Some(Err(e)) => {
                            decode_err = Some(e);
                            None
                        }
                        Some(Ok((k, v))) => {
                            counters.inc(Counter::ReduceInputRecords);
                            if k == group_key {
                                Some(v)
                            } else {
                                boundary = Some((k, v));
                                None
                            }
                        }
                    }
                };
                reducer.reduce(
                    key,
                    Values {
                        next_fn: &mut next_fn,
                    },
                    &mut out,
                    &mut ctx,
                )?;
                // Drain any values the reducer did not consume so the
                // next group starts at the right record.
                while next_fn().is_some() {}
            }
            if let Some(e) = decode_err {
                return Err(e);
            }
            lookahead = match boundary {
                Some(pair) => Some(pair),
                None => match merge.next() {
                    None => None,
                    Some(r) => {
                        counters.inc(Counter::ReduceInputRecords);
                        Some(r?)
                    }
                },
            };
        }
        reducer.close(&mut out, &mut ctx)?;
        io.absorb(&merge.io());
        if merge_charged > 0 {
            ctx.heap.release(merge_charged);
        }
        if io.compressed_raw > 0 || io.decompressed_raw > 0 {
            counters.add(Counter::BytesCompressed, io.compressed_raw);
            counters.add(Counter::BytesDecompressed, io.decompressed_raw);
        }
        counters.add(Counter::ReduceOutputRecords, out.len() as u64);
        counters.max(Counter::HeapPeakBytes, ctx.heap.peak());
        Ok((
            out,
            TaskCost {
                input_bytes: 0,
                cached_points: 0,
                shuffle_bytes_out: 0,
                shuffle_bytes_in: shuffle_in,
                compute_units: ctx.compute_units(),
                spill_io_bytes: io.disk_bytes(),
                compressed_bytes: io.compressed_raw,
                decompressed_bytes: io.decompressed_raw,
            },
        ))
    }
}
