//! In-memory spans recorded around calls into the library's public
//! entry points, and the tracing `Job`/`Mapper`/`Reducer` adapters that
//! time user code inside a replayed job.
//!
//! A span is a name, a parent and a `[start, end]` interval in seconds
//! since the tracer started. A span's *self time* is its duration minus
//! the part of its interval that its children cover; children from
//! different task threads may overlap, so the covered part is the union
//! of their intervals.
//!
//! Inside a replayed job, every task attempt records one child span from
//! the creation of its mapper or reducer to its end, carrying the exact
//! sum of the durations of its user-code calls.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use gmr_mapreduce::job::{Job, MapOutput, Mapper, PointMapper, Reducer, TaskContext, Values};
use gmr_mapreduce::Result;

/// Handle of a recorded span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `runtime.map_user`.
    pub name: String,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start, in seconds since the tracer started.
    pub start: f64,
    /// End; equal to `start` while the span is open.
    pub end: f64,
    /// User-code seconds inside the span (task spans only).
    pub user: f64,
}

const POISONED: &str = "a task panicked while recording a span";

/// Collects spans from any thread.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer with no spans; its clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Seconds since the tracer started.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Opens a span starting now.
    pub fn open(&self, name: &str, parent: Option<SpanId>) -> SpanId {
        let now = self.now();
        self.record(name, parent, now, now, 0.0)
    }

    /// Closes an open span at the current time.
    pub fn close(&self, id: SpanId) {
        let now = self.now();
        self.spans.lock().expect(POISONED)[id.0].end = now;
    }

    /// Records a finished span with explicit bounds and user seconds.
    pub fn record(
        &self,
        name: &str,
        parent: Option<SpanId>,
        start: f64,
        end: f64,
        user: f64,
    ) -> SpanId {
        let mut spans = self.spans.lock().expect(POISONED);
        spans.push(Span {
            name: name.to_string(),
            parent,
            start,
            end,
            user,
        });
        SpanId(spans.len() - 1)
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        (out, id)
    }

    /// Duration of one span.
    pub fn duration(&self, id: SpanId) -> f64 {
        let spans = self.spans.lock().expect(POISONED);
        spans[id.0].end - spans[id.0].start
    }

    /// Self time of one span: its duration minus the union of its
    /// children's intervals.
    pub fn self_time(&self, id: SpanId) -> f64 {
        let spans = self.spans.lock().expect(POISONED);
        let span = &spans[id.0];
        let children: Vec<(f64, f64)> = spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start, s.end))
            .collect();
        self_time((span.start, span.end), &children)
    }

    /// Sum of the durations of `parent`'s children named `name`.
    pub fn children_total(&self, parent: SpanId, name: &str) -> f64 {
        self.sum_children(parent, name, |s| s.end - s.start)
    }

    /// Sum of the user seconds of `parent`'s children named `name`.
    pub fn children_user(&self, parent: SpanId, name: &str) -> f64 {
        self.sum_children(parent, name, |s| s.user)
    }

    fn sum_children(&self, parent: SpanId, name: &str, f: impl Fn(&Span) -> f64) -> f64 {
        let spans = self.spans.lock().expect(POISONED);
        spans
            .iter()
            .filter(|s| s.parent == Some(parent) && s.name == name)
            .map(f)
            .sum()
    }
}

/// `span`'s length minus the part of it covered by the union of
/// `children` (which may overlap each other and stick out of `span`).
pub fn self_time(span: (f64, f64), children: &[(f64, f64)]) -> f64 {
    let mut clipped: Vec<(f64, f64)> = children
        .iter()
        .map(|&(s, e)| (s.max(span.0), e.min(span.1)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (s, e) in clipped {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = current {
        covered += ce - cs;
    }
    (span.1 - span.0) - covered
}

/// Times one task attempt (one thread): its extent, from the creation
/// of its mapper or reducer until the task drops it, and the exact sum
/// of its user-code calls. Recorded as one child span of the job's span.
struct TaskClock {
    tracer: Arc<Tracer>,
    parent: SpanId,
    name: &'static str,
    start: f64,
    user: f64,
}

impl TaskClock {
    fn new(tracer: Arc<Tracer>, parent: SpanId, name: &'static str) -> TaskClock {
        let start = tracer.now();
        TaskClock {
            tracer,
            parent,
            name,
            start,
            user: 0.0,
        }
    }

    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.user += start.elapsed().as_secs_f64();
        out
    }
}

impl Drop for TaskClock {
    fn drop(&mut self) {
        let end = self.tracer.now();
        self.tracer
            .record(self.name, Some(self.parent), self.start, end, self.user);
    }
}

/// A job whose mapper, combiner and reducer calls are timed as children
/// of the job's span.
pub struct TracedJob<J> {
    inner: J,
    tracer: Arc<Tracer>,
    span: SpanId,
}

impl<J> TracedJob<J> {
    /// Wraps `inner`; user-code spans become children of `span`.
    pub fn new(inner: J, tracer: Arc<Tracer>, span: SpanId) -> TracedJob<J> {
        TracedJob {
            inner,
            tracer,
            span,
        }
    }
}

/// Span name of a map task attempt; its user seconds are mapper calls.
pub const MAP_TASK: &str = "runtime.map_task";
/// Span name of one combiner call (made inside a map task).
pub const COMBINE: &str = "runtime.combine";
/// Span name of a reduce task attempt; its user seconds are reducer
/// calls.
pub const REDUCE_TASK: &str = "runtime.reduce_task";

/// Mapper adapter of [`TracedJob`].
pub struct TracedMapper<M> {
    inner: M,
    clock: TaskClock,
}

impl<M: Mapper> Mapper for TracedMapper<M> {
    type Key = M::Key;
    type Value = M::Value;

    fn setup(&mut self, ctx: &mut TaskContext) -> Result<()> {
        let inner = &mut self.inner;
        self.clock.time(|| inner.setup(ctx))
    }

    fn map(
        &mut self,
        offset: u64,
        line: &str,
        out: &mut MapOutput<'_, M::Key, M::Value>,
        ctx: &mut TaskContext,
    ) -> Result<()> {
        let inner = &mut self.inner;
        self.clock.time(|| inner.map(offset, line, out, ctx))
    }

    fn close(
        &mut self,
        out: &mut MapOutput<'_, M::Key, M::Value>,
        ctx: &mut TaskContext,
    ) -> Result<()> {
        let inner = &mut self.inner;
        self.clock.time(|| inner.close(out, ctx))
    }
}

impl<M: PointMapper> PointMapper for TracedMapper<M> {
    fn map_point(
        &mut self,
        point: &[f64],
        out: &mut MapOutput<'_, M::Key, M::Value>,
        ctx: &mut TaskContext,
    ) -> Result<()> {
        let inner = &mut self.inner;
        self.clock.time(|| inner.map_point(point, out, ctx))
    }

    fn prepare_block(
        &mut self,
        points: &[f64],
        norms: &[f64],
        ctx: &mut TaskContext,
    ) -> Result<()> {
        let inner = &mut self.inner;
        self.clock.time(|| inner.prepare_block(points, norms, ctx))
    }
}

/// Reducer adapter of [`TracedJob`].
pub struct TracedReducer<R> {
    inner: R,
    clock: TaskClock,
}

impl<R: Reducer> Reducer for TracedReducer<R> {
    type Key = R::Key;
    type Value = R::Value;
    type Output = R::Output;

    fn setup(&mut self, ctx: &mut TaskContext) -> Result<()> {
        let inner = &mut self.inner;
        self.clock.time(|| inner.setup(ctx))
    }

    fn reduce(
        &mut self,
        key: R::Key,
        values: Values<'_, R::Value>,
        out: &mut Vec<R::Output>,
        ctx: &mut TaskContext,
    ) -> Result<()> {
        let inner = &mut self.inner;
        self.clock.time(|| inner.reduce(key, values, out, ctx))
    }

    fn close(&mut self, out: &mut Vec<R::Output>, ctx: &mut TaskContext) -> Result<()> {
        let inner = &mut self.inner;
        self.clock.time(|| inner.close(out, ctx))
    }
}

impl<J: Job> Job for TracedJob<J> {
    type Key = J::Key;
    type Value = J::Value;
    type Output = J::Output;
    type Mapper = TracedMapper<J::Mapper>;
    type Reducer = TracedReducer<J::Reducer>;

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn create_mapper(&self) -> Self::Mapper {
        TracedMapper {
            inner: self.inner.create_mapper(),
            clock: TaskClock::new(Arc::clone(&self.tracer), self.span, MAP_TASK),
        }
    }

    fn create_reducer(&self) -> Self::Reducer {
        TracedReducer {
            inner: self.inner.create_reducer(),
            clock: TaskClock::new(Arc::clone(&self.tracer), self.span, REDUCE_TASK),
        }
    }

    fn has_combiner(&self) -> bool {
        self.inner.has_combiner()
    }

    fn combine(&self, key: &J::Key, values: Vec<J::Value>) -> Vec<J::Value> {
        let start = self.tracer.now();
        let out = self.inner.combine(key, values);
        self.tracer
            .record(COMBINE, Some(self.span), start, self.tracer.now(), 0.0);
        out
    }

    fn partition(&self, key: &J::Key, partitions: usize) -> usize {
        self.inner.partition(key, partitions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_without_children_is_the_duration() {
        assert_eq!(self_time((1.0, 4.0), &[]), 3.0);
    }

    #[test]
    fn overlapping_children_from_two_threads_count_once() {
        // Thread A busy 1–3, thread B busy 2–5, thread A again 6–7:
        // covered 1–5 and 6–7 = 5 s of a 10 s span.
        let children = [(1.0, 3.0), (6.0, 7.0), (2.0, 5.0)];
        assert!((self_time((0.0, 10.0), &children) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn children_outside_the_span_are_clipped() {
        let children = [(-2.0, 1.0), (9.0, 12.0), (20.0, 30.0)];
        assert!((self_time((0.0, 10.0), &children) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn a_child_inside_another_adds_nothing() {
        let children = [(1.0, 9.0), (2.0, 3.0), (4.0, 5.0)];
        assert!((self_time((0.0, 10.0), &children) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn tracer_self_time_uses_recorded_children_from_two_threads() {
        let tracer = Arc::new(Tracer::new());
        let job = tracer.record("runtime.job", None, 0.0, 4.0, 0.0);
        let handles: Vec<_> = [(0.5, 2.0, 1.0), (1.0, 3.0, 1.5)]
            .into_iter()
            .map(|(s, e, user)| {
                let t = Arc::clone(&tracer);
                std::thread::spawn(move || {
                    t.record(MAP_TASK, Some(job), s, e, user);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        tracer.record("unrelated", None, 0.0, 4.0, 9.0);
        assert!((tracer.self_time(job) - 1.5).abs() < 1e-12);
        assert!((tracer.children_total(job, MAP_TASK) - 3.5).abs() < 1e-12);
        assert!((tracer.children_user(job, MAP_TASK) - 2.5).abs() < 1e-12);
        assert_eq!(tracer.children_user(job, REDUCE_TASK), 0.0);
    }

    #[test]
    fn a_task_clock_sums_its_calls_and_not_the_gaps_between_them() {
        let tracer = Arc::new(Tracer::new());
        let job = tracer.open("runtime.job", None);
        let pause = std::time::Duration::from_millis(20);
        let mut clock = TaskClock::new(Arc::clone(&tracer), job, MAP_TASK);
        clock.time(|| std::thread::sleep(pause));
        std::thread::sleep(pause);
        clock.time(|| std::thread::sleep(pause));
        drop(clock);
        tracer.close(job);
        let user = tracer.children_user(job, MAP_TASK);
        let extent = tracer.children_total(job, MAP_TASK);
        assert!(user >= 0.040, "user {user}");
        // The 20 ms gap is in the task's extent but not in its user time.
        assert!(extent - user >= 0.019, "extent {extent}, user {user}");
    }
}
