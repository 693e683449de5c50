//! End-to-end observability primitives: structured tracing spans and a
//! metrics registry.
//!
//! The span side is built around three ideas:
//!
//! * **Zero-cost-when-off.** Tracing flows top-down from an explicit root
//!   span. Roots are only created when the collector is enabled (or a
//!   caller forces one, e.g. `EXPLAIN ANALYZE`); every child-span helper
//!   no-ops on a [`SpanId::NONE`] parent without touching a lock or even
//!   an atomic. The only per-query cost when disabled is one atomic load.
//! * **One source of truth.** An executor reports each operator once, as
//!   one [`OpMetrics`] value that feeds both the span tree and the
//!   executor's per-kind counters, so `EXPLAIN ANALYZE`, Fig. 10 buckets,
//!   and exported operator metrics can never disagree.
//! * **Explicit clock injection.** The collector reads time through the
//!   [`Clock`] trait; tests install a [`ManualClock`] to make span math
//!   deterministic.
//!
//! The metrics side ([`Registry`]) is a point-in-time snapshot builder:
//! counters, gauges, and histograms with fixed label sets, exportable as
//! Prometheus text format and JSON, both of which parse back losslessly.

pub mod registry;

pub use registry::{Histogram, HistogramSnapshot, Metric, MetricValue, Registry};

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Sentinel meaning "exclusive time not explicitly reported; derive it
/// from the children" (inclusive minus the inclusive time of non-worker,
/// non-event children).
const SELF_UNSET: u64 = u64::MAX;

/// A monotonic nanosecond clock, injectable for tests.
pub trait Clock: Send + Sync {
    /// Nanoseconds since an arbitrary (but fixed) origin.
    fn now_ns(&self) -> u64;
}

/// Wall-clock implementation backed by [`Instant`].
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    pub fn new() -> Self {
        MonotonicClock { origin: Instant::now() }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// A hand-cranked clock for deterministic tests.
#[derive(Default)]
pub struct ManualClock {
    now: AtomicU64,
}

impl ManualClock {
    pub fn new() -> Self {
        ManualClock { now: AtomicU64::new(0) }
    }

    /// Sets the absolute time in nanoseconds.
    pub fn set(&self, ns: u64) {
        self.now.store(ns, Ordering::SeqCst);
    }

    /// Advances the clock by `ns` nanoseconds.
    pub fn advance(&self, ns: u64) {
        self.now.fetch_add(ns, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_ns(&self) -> u64 {
        self.now.load(Ordering::SeqCst)
    }
}

/// Identifier of a span within a [`Collector`]. Sequence number, not an
/// index: ids stay valid while other queries' subtrees are extracted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(u32);

impl SpanId {
    /// The absent span: every recording helper no-ops on it.
    pub const NONE: SpanId = SpanId(u32::MAX);

    pub fn is_none(self) -> bool {
        self == SpanId::NONE
    }

    pub fn is_some(self) -> bool {
        self != SpanId::NONE
    }
}

/// What a span describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// A coarse stage: parse, plan, an optimizer pass, execute, a
    /// strategy phase, an nUDF layer.
    Phase,
    /// One physical operator instance in an executed plan.
    Operator,
    /// One morsel batch executed by a pool worker. Worker spans overlap
    /// in wall time and are excluded from exclusive-time derivation.
    Worker,
    /// A point event (cache hit/miss, plan-cache lookup, ...).
    Event,
}

impl SpanKind {
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Phase => "phase",
            SpanKind::Operator => "op",
            SpanKind::Worker => "worker",
            SpanKind::Event => "event",
        }
    }
}

/// One recorded span. All times are clock nanoseconds.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: SpanId,
    pub parent: SpanId,
    pub kind: SpanKind,
    pub name: String,
    /// Free-form annotation (plan node header, cache key class, ...).
    pub detail: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Explicitly reported exclusive (own-work) time; [`SELF_UNSET`]
    /// means "derive from children".
    self_ns: u64,
    /// Summed worker-side busy time (>= exclusive when parallel).
    pub busy_ns: u64,
    /// Times the owner reported work into this span (via `note_op`).
    pub loops: u32,
    pub rows_in: u64,
    pub rows_out: u64,
    pub bytes_not_materialized: u64,
    /// Pool worker that executed this span (Worker spans only).
    pub worker: u32,
}

impl SpanRecord {
    fn new(id: SpanId, parent: SpanId, kind: SpanKind, name: &str, detail: &str, now: u64) -> Self {
        SpanRecord {
            id,
            parent,
            kind,
            name: name.to_string(),
            detail: detail.to_string(),
            start_ns: now,
            end_ns: now,
            self_ns: SELF_UNSET,
            busy_ns: 0,
            loops: 0,
            rows_in: 0,
            rows_out: 0,
            bytes_not_materialized: 0,
            worker: u32::MAX,
        }
    }

    /// Inclusive wall time of this span.
    pub fn inclusive_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Explicitly reported exclusive time, if any.
    pub fn explicit_self_ns(&self) -> Option<u64> {
        if self.self_ns == SELF_UNSET {
            None
        } else {
            Some(self.self_ns)
        }
    }
}

/// Operator-level metrics of one invocation. The executor hands the same
/// value to [`Collector::note_op`] and to its per-kind counters, so the
/// span view and the aggregate view stay in lockstep.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpMetrics {
    pub self_ns: u64,
    pub busy_ns: u64,
    pub rows_in: u64,
    pub rows_out: u64,
    pub bytes_not_materialized: u64,
}

struct Inner {
    records: Vec<SpanRecord>,
    next_id: u32,
}

type Sink = Arc<dyn Fn(&SpanTree) + Send + Sync>;

/// Thread-safe span collector. Cheap when disabled: child helpers no-op
/// on a `NONE` parent before taking any lock.
pub struct Collector {
    enabled: AtomicBool,
    inner: Mutex<Inner>,
    sink: Mutex<Option<Sink>>,
    clock: Arc<dyn Clock>,
}

impl Default for Collector {
    fn default() -> Self {
        Self::new()
    }
}

impl Collector {
    /// A disabled collector on the monotonic wall clock.
    pub fn new() -> Self {
        Self::with_clock(Arc::new(MonotonicClock::new()))
    }

    /// A disabled collector reading time through `clock`.
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        Collector {
            enabled: AtomicBool::new(false),
            inner: Mutex::new(Inner { records: Vec::new(), next_id: 0 }),
            sink: Mutex::new(None),
            clock,
        }
    }

    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Release);
    }

    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Release);
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Release);
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Acquire)
    }

    /// Current clock reading in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Starts a root span unconditionally. Callers gate on
    /// [`Collector::is_enabled`] (or force a root for `EXPLAIN ANALYZE`
    /// and slow-query capture).
    pub fn start_root(&self, name: &str) -> SpanId {
        let now = self.now_ns();
        let mut inner = self.lock();
        let id = SpanId(inner.next_id);
        inner.next_id += 1;
        let record = SpanRecord::new(id, SpanId::NONE, SpanKind::Phase, name, "", now);
        inner.records.push(record);
        id
    }

    /// Starts a child span; no-op (returns `NONE`) when `parent` is
    /// `NONE`, which is how disabled tracing propagates for free.
    pub fn child(&self, parent: SpanId, kind: SpanKind, name: &str, detail: &str) -> SpanId {
        if parent.is_none() {
            return SpanId::NONE;
        }
        let now = self.now_ns();
        let mut inner = self.lock();
        let id = SpanId(inner.next_id);
        inner.next_id += 1;
        let record = SpanRecord::new(id, parent, kind, name, detail, now);
        inner.records.push(record);
        id
    }

    /// Stamps the end time of an open span.
    pub fn finish(&self, id: SpanId) {
        if id.is_none() {
            return;
        }
        let now = self.now_ns();
        let mut inner = self.lock();
        // Spans finish roughly LIFO; scan from the tail.
        if let Some(r) = inner.records.iter_mut().rev().find(|r| r.id == id) {
            r.end_ns = now;
        }
    }

    /// Records a fully-formed span (used for worker/morsel batches and
    /// sub-phases whose start/end were captured by the caller).
    #[allow(clippy::too_many_arguments)]
    pub fn add_complete(
        &self,
        parent: SpanId,
        kind: SpanKind,
        name: &str,
        detail: &str,
        start_ns: u64,
        end_ns: u64,
        worker: u32,
        rows_out: u64,
    ) -> SpanId {
        if parent.is_none() {
            return SpanId::NONE;
        }
        let mut inner = self.lock();
        let id = SpanId(inner.next_id);
        inner.next_id += 1;
        let mut record = SpanRecord::new(id, parent, kind, name, detail, start_ns);
        record.end_ns = end_ns.max(start_ns);
        record.worker = worker;
        record.rows_out = rows_out;
        if kind == SpanKind::Worker {
            record.busy_ns = record.end_ns - record.start_ns;
        }
        inner.records.push(record);
        id
    }

    /// Records a point event under `parent`.
    pub fn event(&self, parent: SpanId, name: &str, detail: &str) {
        if parent.is_none() {
            return;
        }
        let now = self.now_ns();
        self.add_complete(parent, SpanKind::Event, name, detail, now, now, u32::MAX, 0);
    }

    /// Reports operator metrics into a span: the same numbers the
    /// executor adds to its per-kind counters. Accumulates, so phased operators (e.g.
    /// fused build + probe) may call it more than once; `loops` counts
    /// the calls. Renames the span when `name` is non-empty (a `Filter`
    /// span may turn out to be a `UdfEval`).
    pub fn note_op(&self, id: SpanId, name: &str, m: OpMetrics) {
        if id.is_none() {
            return;
        }
        let mut inner = self.lock();
        if let Some(r) = inner.records.iter_mut().rev().find(|r| r.id == id) {
            if !name.is_empty() {
                r.name = name.to_string();
            }
            if r.self_ns == SELF_UNSET {
                r.self_ns = 0;
            }
            r.self_ns += m.self_ns;
            r.busy_ns += m.busy_ns;
            r.rows_in += m.rows_in;
            r.rows_out += m.rows_out;
            r.bytes_not_materialized += m.bytes_not_materialized;
            r.loops += 1;
        }
    }

    /// Sets the annotation of an open span.
    pub fn set_detail(&self, id: SpanId, detail: &str) {
        if id.is_none() {
            return;
        }
        let mut inner = self.lock();
        if let Some(r) = inner.records.iter_mut().rev().find(|r| r.id == id) {
            r.detail = detail.to_string();
        }
    }

    /// Installs a hook invoked with every span tree extracted by
    /// [`Collector::take_tree`] (used by benches to aggregate operator
    /// spans across many queries).
    pub fn set_sink(&self, sink: Option<Sink>) {
        *self.sink.lock().unwrap_or_else(PoisonError::into_inner) = sink;
    }

    /// Extracts the subtree rooted at `root` (removing its records from
    /// the collector; concurrent queries' spans are left untouched) and
    /// returns it as a navigable tree.
    pub fn take_tree(&self, root: SpanId) -> SpanTree {
        let taken = {
            let mut inner = self.lock();
            let mut in_tree: HashMap<u32, bool> = HashMap::new();
            in_tree.insert(root.0, true);
            // Records are appended in start order, so parents precede
            // children and one forward pass settles membership.
            for r in &inner.records {
                if r.id != root && *in_tree.get(&r.parent.0).unwrap_or(&false) {
                    in_tree.insert(r.id.0, true);
                }
            }
            let mut taken = Vec::new();
            inner.records.retain(|r| {
                if *in_tree.get(&r.id.0).unwrap_or(&false) {
                    taken.push(r.clone());
                    false
                } else {
                    true
                }
            });
            taken
        };
        let tree = SpanTree::from_records(taken);
        let sink = self.sink.lock().unwrap_or_else(PoisonError::into_inner).clone();
        if let Some(sink) = sink {
            sink(&tree);
        }
        tree
    }

    /// Number of records currently buffered (tests/diagnostics).
    pub fn pending(&self) -> usize {
        self.lock().records.len()
    }

    /// Drops all buffered records.
    pub fn clear(&self) {
        self.lock().records.clear();
    }
}

/// A process-wide, never-enabled collector: the default tracer for
/// contexts constructed without one.
pub fn disabled() -> &'static Collector {
    static DISABLED: OnceLock<Collector> = OnceLock::new();
    DISABLED.get_or_init(Collector::new)
}

/// Per-operator aggregate: folded out of span trees, or snapshotted from
/// the executor's per-kind counters (the same fields either way).
#[derive(Debug, Clone, Copy, Default)]
pub struct OpAgg {
    pub self_ns: u64,
    pub busy_ns: u64,
    pub loops: u64,
    pub rows_in: u64,
    pub rows_out: u64,
    pub bytes_not_materialized: u64,
}

/// An extracted, navigable span tree.
#[derive(Debug, Clone)]
pub struct SpanTree {
    records: Vec<SpanRecord>,
    children: Vec<Vec<usize>>,
    root: Option<usize>,
}

impl SpanTree {
    /// Builds a tree from records (parents must precede children, which
    /// [`Collector::take_tree`] guarantees).
    pub fn from_records(records: Vec<SpanRecord>) -> Self {
        let index: HashMap<u32, usize> =
            records.iter().enumerate().map(|(i, r)| (r.id.0, i)).collect();
        let mut children = vec![Vec::new(); records.len()];
        let mut root = None;
        for (i, r) in records.iter().enumerate() {
            match index.get(&r.parent.0) {
                Some(&p) if r.parent.is_some() => children[p].push(i),
                _ => {
                    if root.is_none() {
                        root = Some(i);
                    }
                }
            }
        }
        SpanTree { records, children, root }
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Index of the root span, if the tree is non-empty.
    pub fn root(&self) -> Option<usize> {
        self.root
    }

    pub fn record(&self, idx: usize) -> &SpanRecord {
        &self.records[idx]
    }

    pub fn records(&self) -> &[SpanRecord] {
        &self.records
    }

    pub fn children(&self, idx: usize) -> &[usize] {
        &self.children[idx]
    }

    /// Exclusive (own-work) time: the explicitly reported value when the
    /// owner reported one, else inclusive minus the inclusive time of
    /// phase/operator children. Worker spans overlap in wall time and
    /// events are instantaneous, so neither subtracts.
    pub fn exclusive_ns(&self, idx: usize) -> u64 {
        let r = &self.records[idx];
        if let Some(explicit) = r.explicit_self_ns() {
            return explicit;
        }
        let child_ns: u64 = self.children[idx]
            .iter()
            .map(|&c| &self.records[c])
            .filter(|c| matches!(c.kind, SpanKind::Phase | SpanKind::Operator))
            .map(|c| c.inclusive_ns())
            .sum();
        r.inclusive_ns().saturating_sub(child_ns)
    }

    /// Inclusive wall time of a span.
    pub fn inclusive_ns(&self, idx: usize) -> u64 {
        self.records[idx].inclusive_ns()
    }

    /// Sum of exclusive times over operator spans: must never exceed the
    /// root's wall clock (the exclusive-attribution invariant).
    pub fn operator_exclusive_total_ns(&self) -> u64 {
        (0..self.records.len())
            .filter(|&i| self.records[i].kind == SpanKind::Operator)
            .map(|i| self.exclusive_ns(i))
            .sum()
    }

    /// Folds operator spans into per-name aggregates (the span-side view
    /// the Fig. 10 bench consumes).
    pub fn fold_operators(&self, into: &mut HashMap<String, OpAgg>) {
        for (i, r) in self.records.iter().enumerate() {
            if r.kind != SpanKind::Operator {
                continue;
            }
            let agg = into.entry(r.name.clone()).or_default();
            agg.self_ns += self.exclusive_ns(i);
            agg.busy_ns += r.busy_ns.max(self.exclusive_ns(i));
            agg.loops += u64::from(r.loops.max(1));
            agg.rows_in += r.rows_in;
            agg.rows_out += r.rows_out;
            agg.bytes_not_materialized += r.bytes_not_materialized;
        }
    }

    /// First span (pre-order) with the given name, if any.
    pub fn find(&self, name: &str) -> Option<usize> {
        let mut stack = self.root.map(|r| vec![r]).unwrap_or_default();
        while let Some(i) = stack.pop() {
            if self.records[i].name == name {
                return Some(i);
            }
            for &c in self.children[i].iter().rev() {
                stack.push(c);
            }
        }
        None
    }

    /// Renders the full tree, one span per line, indented by depth. The
    /// slow-query log emits this.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if let Some(root) = self.root {
            self.render_into(root, 0, &mut out);
        }
        out
    }

    fn render_into(&self, idx: usize, depth: usize, out: &mut String) {
        let r = &self.records[idx];
        for _ in 0..depth {
            out.push_str("  ");
        }
        match r.kind {
            SpanKind::Event => {
                let _ = write!(out, "! {}", r.name);
                if !r.detail.is_empty() {
                    let _ = write!(out, " [{}]", r.detail);
                }
            }
            SpanKind::Worker => {
                let _ = write!(
                    out,
                    "~ {} worker={} rows={} time={}",
                    r.name,
                    r.worker,
                    r.rows_out,
                    fmt_ns(r.inclusive_ns())
                );
            }
            _ => {
                let _ = write!(out, "{}", r.name);
                if !r.detail.is_empty() {
                    let _ = write!(out, " [{}]", r.detail);
                }
                let _ = write!(
                    out,
                    " time={} self={}",
                    fmt_ns(r.inclusive_ns()),
                    fmt_ns(self.exclusive_ns(idx))
                );
                if r.kind == SpanKind::Operator {
                    let _ = write!(out, " rows={} loops={}", r.rows_out, r.loops.max(1));
                    let excl = self.exclusive_ns(idx);
                    if r.busy_ns > 0 && excl > 0 {
                        let _ = write!(out, " par={:.1}x", r.busy_ns as f64 / excl as f64);
                    }
                    if r.bytes_not_materialized > 0 {
                        let _ = write!(out, " bytes_not_materialized={}", r.bytes_not_materialized);
                    }
                }
            }
        }
        out.push('\n');
        for &c in &self.children[idx] {
            self.render_into(c, depth + 1, out);
        }
    }
}

/// Formats nanoseconds as fractional milliseconds (matching the bench
/// report style).
pub fn fmt_ns(ns: u64) -> String {
    format!("{:.3}ms", ns as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manual() -> (Arc<ManualClock>, Collector) {
        let clock = Arc::new(ManualClock::new());
        let collector = Collector::with_clock(clock.clone());
        collector.enable();
        (clock, collector)
    }

    #[test]
    fn disabled_collector_records_nothing() {
        let c = Collector::new();
        assert!(!c.is_enabled());
        let child = c.child(SpanId::NONE, SpanKind::Operator, "Join", "");
        assert!(child.is_none());
        c.finish(child);
        c.note_op(child, "Join", OpMetrics::default());
        c.event(child, "cache", "hit");
        assert_eq!(c.pending(), 0);
    }

    #[test]
    fn span_tree_nesting_and_exclusive_derivation() {
        let (clock, c) = manual();
        let root = c.start_root("query");
        clock.advance(10);
        let plan = c.child(root, SpanKind::Phase, "plan", "");
        clock.advance(30);
        c.finish(plan);
        let exec = c.child(root, SpanKind::Phase, "execute", "");
        clock.advance(50);
        c.finish(exec);
        clock.advance(10);
        c.finish(root);

        let tree = c.take_tree(root);
        assert_eq!(c.pending(), 0);
        let root_idx = tree.root().unwrap();
        assert_eq!(tree.inclusive_ns(root_idx), 100);
        // Derived exclusive: 100 - (30 + 50).
        assert_eq!(tree.exclusive_ns(root_idx), 20);
        let plan_idx = tree.find("plan").unwrap();
        assert_eq!(tree.inclusive_ns(plan_idx), 30);
    }

    #[test]
    fn note_op_accumulates_and_renames() {
        let (clock, c) = manual();
        let root = c.start_root("query");
        let op = c.child(root, SpanKind::Operator, "Filter", "");
        clock.advance(100);
        c.note_op(
            op,
            "UdfEval",
            OpMetrics { self_ns: 40, busy_ns: 80, rows_out: 7, ..Default::default() },
        );
        c.note_op(op, "", OpMetrics { self_ns: 10, busy_ns: 10, ..Default::default() });
        c.finish(op);
        c.finish(root);
        let tree = c.take_tree(root);
        let idx = tree.find("UdfEval").expect("renamed span");
        assert_eq!(tree.exclusive_ns(idx), 50);
        assert_eq!(tree.record(idx).busy_ns, 90);
        assert_eq!(tree.record(idx).loops, 2);
        assert_eq!(tree.record(idx).rows_out, 7);
    }

    #[test]
    fn worker_spans_do_not_subtract_from_exclusive() {
        let (clock, c) = manual();
        let root = c.start_root("query");
        let op = c.child(root, SpanKind::Operator, "Join", "");
        // Two overlapping morsels on different workers.
        c.add_complete(op, SpanKind::Worker, "morsel", "0", 0, 60, 0, 10);
        c.add_complete(op, SpanKind::Worker, "morsel", "1", 0, 55, 1, 12);
        clock.advance(70);
        c.finish(op);
        c.finish(root);
        let tree = c.take_tree(root);
        let idx = tree.find("Join").unwrap();
        // Exclusive derives from wall, not from the overlapping workers.
        assert_eq!(tree.exclusive_ns(idx), 70);
        let workers: Vec<_> = tree
            .children(idx)
            .iter()
            .map(|&c| (tree.record(c).worker, tree.record(c).rows_out))
            .collect();
        assert_eq!(workers, vec![(0, 10), (1, 12)]);
    }

    #[test]
    fn take_tree_leaves_concurrent_roots_in_place() {
        let (clock, c) = manual();
        let a = c.start_root("a");
        let b = c.start_root("b");
        let a_child = c.child(a, SpanKind::Phase, "a.1", "");
        let b_child = c.child(b, SpanKind::Phase, "b.1", "");
        clock.advance(5);
        for id in [a_child, b_child, a, b] {
            c.finish(id);
        }
        let tree_a = c.take_tree(a);
        assert_eq!(tree_a.len(), 2);
        assert!(tree_a.find("a.1").is_some());
        assert!(tree_a.find("b.1").is_none());
        assert_eq!(c.pending(), 2);
        let tree_b = c.take_tree(b);
        assert_eq!(tree_b.len(), 2);
        assert_eq!(c.pending(), 0);
    }

    #[test]
    fn sink_sees_extracted_trees() {
        let (_clock, c) = manual();
        let seen = Arc::new(Mutex::new(0usize));
        let seen2 = seen.clone();
        c.set_sink(Some(Arc::new(move |t: &SpanTree| {
            *seen2.lock().unwrap() += t.len();
        })));
        let root = c.start_root("query");
        c.child(root, SpanKind::Phase, "p", "");
        c.take_tree(root);
        assert_eq!(*seen.lock().unwrap(), 2);
    }

    #[test]
    fn exclusive_attribution_invariant_under_manual_clock() {
        let (clock, c) = manual();
        let root = c.start_root("query");
        let exec = c.child(root, SpanKind::Phase, "execute", "");
        let join = c.child(exec, SpanKind::Operator, "Join", "");
        let scan = c.child(join, SpanKind::Operator, "Scan", "");
        clock.advance(10);
        c.note_op(scan, "", OpMetrics { self_ns: 10, busy_ns: 10, ..Default::default() });
        c.finish(scan);
        clock.advance(25);
        c.note_op(join, "", OpMetrics { self_ns: 25, busy_ns: 70, ..Default::default() });
        c.finish(join);
        c.finish(exec);
        clock.advance(1);
        c.finish(root);
        let tree = c.take_tree(root);
        let wall = tree.inclusive_ns(tree.root().unwrap());
        assert!(tree.operator_exclusive_total_ns() <= wall);
        assert_eq!(tree.operator_exclusive_total_ns(), 35);
        assert_eq!(wall, 36);
    }

    #[test]
    fn render_is_indented_and_annotated() {
        let (clock, c) = manual();
        let root = c.start_root("query");
        let op = c.child(root, SpanKind::Operator, "JoinAggregate", "fused");
        c.event(op, "plan_cache", "miss");
        clock.advance(1_000_000);
        c.note_op(
            op,
            "",
            OpMetrics {
                self_ns: 1_000_000,
                busy_ns: 2_000_000,
                rows_out: 3,
                bytes_not_materialized: 64,
                ..Default::default()
            },
        );
        c.finish(op);
        c.finish(root);
        let text = c.take_tree(root).render();
        assert!(text.contains("JoinAggregate [fused]"));
        assert!(text.contains("par=2.0x"));
        assert!(text.contains("bytes_not_materialized=64"));
        assert!(text.contains("! plan_cache [miss]"));
    }
}
