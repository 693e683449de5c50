//! Per-kind operator counters. Each statement owns an [`OpCounters`]
//! table, so its numbers never include a concurrent statement's work; when
//! it ends, the database adds the table into the lifetime totals that
//! `Database::metrics_snapshot` exports.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use super::dense::KeyPath;

/// The operator categories reported by paper Fig. 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OperatorKind {
    Scan,
    Filter,
    Project,
    Join,
    GroupBy,
    /// Fused join + group-by: the probe folds aggregate partials directly,
    /// so its time belongs to neither `Join` nor `GroupBy` alone.
    JoinAggregate,
    Sort,
    Limit,
    Update,
    Insert,
    CreateTable,
    UdfEval,
}

impl OperatorKind {
    /// Every kind, in declaration order (the counter table's row order).
    const ALL: [OperatorKind; 12] = [
        OperatorKind::Scan,
        OperatorKind::Filter,
        OperatorKind::Project,
        OperatorKind::Join,
        OperatorKind::GroupBy,
        OperatorKind::JoinAggregate,
        OperatorKind::Sort,
        OperatorKind::Limit,
        OperatorKind::Update,
        OperatorKind::Insert,
        OperatorKind::CreateTable,
        OperatorKind::UdfEval,
    ];

    /// Display label; also the operator span's name.
    pub fn label(&self) -> &'static str {
        match self {
            OperatorKind::Scan => "Scan",
            OperatorKind::Filter => "Filter",
            OperatorKind::Project => "Project",
            OperatorKind::Join => "Join",
            OperatorKind::GroupBy => "GroupBy",
            OperatorKind::JoinAggregate => "JoinAggregate",
            OperatorKind::Sort => "Sort",
            OperatorKind::Limit => "Limit",
            OperatorKind::Update => "Update",
            OperatorKind::Insert => "Insert",
            OperatorKind::CreateTable => "CreateTable",
            OperatorKind::UdfEval => "UdfEval",
        }
    }
}

/// One kind's counters, field for field an [`obs::OpAgg`].
#[derive(Default)]
struct Cells {
    self_ns: AtomicU64,
    busy_ns: AtomicU64,
    loops: AtomicU64,
    rows_in: AtomicU64,
    rows_out: AtomicU64,
    bytes_not_materialized: AtomicU64,
}

impl Cells {
    fn add(&self, a: &obs::OpAgg) {
        self.self_ns.fetch_add(a.self_ns, Relaxed);
        self.busy_ns.fetch_add(a.busy_ns, Relaxed);
        self.loops.fetch_add(a.loops, Relaxed);
        self.rows_in.fetch_add(a.rows_in, Relaxed);
        self.rows_out.fetch_add(a.rows_out, Relaxed);
        self.bytes_not_materialized.fetch_add(a.bytes_not_materialized, Relaxed);
    }

    fn load(&self) -> obs::OpAgg {
        obs::OpAgg {
            self_ns: self.self_ns.load(Relaxed),
            busy_ns: self.busy_ns.load(Relaxed),
            loops: self.loops.load(Relaxed),
            rows_in: self.rows_in.load(Relaxed),
            rows_out: self.rows_out.load(Relaxed),
            bytes_not_materialized: self.bytes_not_materialized.load(Relaxed),
        }
    }
}

/// Lock-free operator counters: one row of atomics per [`OperatorKind`].
/// `loops` counts invocations; `self_ns` is wall time with children
/// excluded; `busy_ns` sums per-worker time (equal to `self_ns` for serial
/// invocations). Next to them, how many join builds and group-id tables
/// took each `KeyPath`.
#[derive(Default)]
pub struct OpCounters {
    kinds: [Cells; OperatorKind::ALL.len()],
    /// Key structures built, indexed by `KeyPath as usize`.
    key_paths: [AtomicU64; 2],
}

impl OpCounters {
    /// Adds one operator invocation.
    pub(crate) fn add(&self, kind: OperatorKind, m: &obs::OpMetrics) {
        self.kinds[kind as usize].add(&obs::OpAgg {
            self_ns: m.self_ns,
            busy_ns: m.busy_ns,
            loops: 1,
            rows_in: m.rows_in,
            rows_out: m.rows_out,
            bytes_not_materialized: m.bytes_not_materialized,
        });
    }

    /// Accumulated counters of one kind (all zero when it never ran).
    pub(crate) fn get(&self, kind: OperatorKind) -> obs::OpAgg {
        self.kinds[kind as usize].load()
    }

    /// Counts one key structure built on `path`.
    pub(crate) fn add_key_path(&self, path: KeyPath) {
        self.key_paths[path as usize].fetch_add(1, Relaxed);
    }

    /// Key structures built on each path: `(dense, hash)`.
    pub(crate) fn key_paths(&self) -> (u64, u64) {
        (
            self.key_paths[KeyPath::Dense as usize].load(Relaxed),
            self.key_paths[KeyPath::Hash as usize].load(Relaxed),
        )
    }

    /// The kinds that ran, with their counters, in declaration order.
    pub(crate) fn snapshot(&self) -> Vec<(OperatorKind, obs::OpAgg)> {
        OperatorKind::ALL
            .into_iter()
            .map(|kind| (kind, self.get(kind)))
            .filter(|(_, agg)| agg.loops > 0)
            .collect()
    }

    /// Adds `other` into `self`, touching only the kinds that ran there.
    pub(crate) fn absorb(&self, other: &OpCounters) {
        for (kind, agg) in other.snapshot() {
            self.kinds[kind as usize].add(&agg);
        }
        for (mine, theirs) in self.key_paths.iter().zip(&other.key_paths) {
            mine.fetch_add(theirs.load(Relaxed), Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serial(self_ns: u64, rows_out: u64) -> obs::OpMetrics {
        obs::OpMetrics { self_ns, busy_ns: self_ns, rows_out, ..Default::default() }
    }

    #[test]
    fn records_accumulate_per_kind() {
        let c = OpCounters::default();
        c.add(OperatorKind::Join, &serial(5, 100));
        c.add(OperatorKind::Join, &serial(7, 50));
        c.add(OperatorKind::Scan, &serial(1, 10));
        let join = c.get(OperatorKind::Join);
        assert_eq!((join.loops, join.rows_out, join.self_ns), (2, 150, 12));
        let kinds: Vec<_> = c.snapshot().into_iter().map(|(k, _)| k).collect();
        assert_eq!(kinds, [OperatorKind::Scan, OperatorKind::Join]);
        assert_eq!(c.get(OperatorKind::Sort).loops, 0);
    }

    #[test]
    fn fused_records_carry_extra_counters() {
        let c = OpCounters::default();
        let fused = |self_ns, busy_ns, rows_in, bytes_not_materialized| obs::OpMetrics {
            self_ns,
            busy_ns,
            rows_in,
            rows_out: 10,
            bytes_not_materialized,
        };
        c.add(OperatorKind::JoinAggregate, &fused(2, 4, 1000, 8192));
        c.add(OperatorKind::JoinAggregate, &fused(1, 1, 500, 4096));
        let s = c.get(OperatorKind::JoinAggregate);
        assert_eq!((s.rows_in, s.rows_out, s.loops), (1500, 20, 2));
        assert_eq!((s.self_ns, s.busy_ns, s.bytes_not_materialized), (3, 5, 12288));
    }

    #[test]
    fn absorb_adds_only_kinds_that_ran() {
        let (total, stmt) = (OpCounters::default(), OpCounters::default());
        total.add(OperatorKind::Sort, &serial(3, 1));
        stmt.add(OperatorKind::Scan, &serial(2, 64));
        total.absorb(&stmt);
        total.absorb(&stmt);
        assert_eq!(total.get(OperatorKind::Scan).rows_out, 128);
        assert_eq!(total.get(OperatorKind::Sort).loops, 1);
        assert_eq!(stmt.get(OperatorKind::Scan).loops, 1, "the statement's own table is unchanged");
        stmt.add_key_path(KeyPath::Dense);
        stmt.add_key_path(KeyPath::Hash);
        stmt.add_key_path(KeyPath::Dense);
        total.absorb(&stmt);
        assert_eq!(total.key_paths(), (2, 1));
    }

    #[test]
    fn labels_cover_all_kinds() {
        assert_eq!(OperatorKind::GroupBy.label(), "GroupBy");
        assert_eq!(OperatorKind::JoinAggregate.label(), "JoinAggregate");
        assert_eq!(OperatorKind::UdfEval.label(), "UdfEval");
        for (i, kind) in OperatorKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "{} indexes its own row", kind.label());
        }
    }
}
