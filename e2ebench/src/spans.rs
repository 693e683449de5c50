//! The benchmark's own spans around calls into each layer.
//!
//! Every timed call goes through [`Spans::time`]. With tracing off it only
//! reads the clock. With tracing on it also opens a span in an
//! `obs::Collector` the benchmark owns: a root for a call made outside any
//! other, a child of the innermost open span otherwise. A root and its
//! children make one operation (a query run, a write batch, a set-up
//! stage). Its tree is taken out of the collector when the root finishes
//! and kept in memory until the run writes the span file.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use obs::{Collector, SpanId, SpanKind, SpanTree};

pub struct Spans {
    on: bool,
    collector: Collector,
    open: RefCell<Vec<SpanId>>,
    trees: RefCell<Vec<SpanTree>>,
}

/// Count, inclusive and self time of every span with one name.
#[derive(Debug, Default, Clone, Copy)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            collector: Collector::new(),
            open: RefCell::new(Vec::new()),
            trees: RefCell::new(Vec::new()),
        }
    }

    /// Runs `f`, returning its output and wall time. When tracing is on
    /// the call is also recorded as a span.
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> (T, Duration) {
        if !self.on {
            let start = Instant::now();
            let out = f();
            return (out, start.elapsed());
        }
        let parent = self.open.borrow().last().copied();
        let id = match parent {
            Some(p) => self.collector.child(p, SpanKind::Phase, name, ""),
            None => self.collector.start_root(name),
        };
        self.open.borrow_mut().push(id);
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed();
        self.open.borrow_mut().pop();
        self.collector.finish(id);
        if parent.is_none() {
            self.trees.borrow_mut().push(self.collector.take_tree(id));
        }
        (out, elapsed)
    }

    pub fn len(&self) -> usize {
        self.trees.borrow().iter().map(SpanTree::len).sum()
    }

    /// Per-name totals; self time is `SpanTree::exclusive_ns`.
    pub fn self_times(&self) -> BTreeMap<String, SelfTime> {
        let mut out: BTreeMap<String, SelfTime> = BTreeMap::new();
        for tree in self.trees.borrow().iter() {
            for (i, r) in tree.records().iter().enumerate() {
                let t = out.entry(r.name.clone()).or_default();
                t.count += 1;
                t.total_ns += r.inclusive_ns();
                t.self_ns += tree.exclusive_ns(i);
            }
        }
        out
    }

    /// Writes every span as one JSON object per line: its operation (the
    /// tree's number), its index in the tree, its parent's index, name,
    /// start and end in nanoseconds since the run began.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (op, tree) in self.trees.borrow().iter().enumerate() {
            let mut parent = vec![None; tree.len()];
            for p in 0..tree.len() {
                for &c in tree.children(p) {
                    parent[c] = Some(p);
                }
            }
            for (id, r) in tree.records().iter().enumerate() {
                let parent = parent[id].map_or("null".to_string(), |p: usize| p.to_string());
                writeln!(
                    out,
                    "{{\"op\":{op},\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                    r.name, r.start_ns, r.end_ns
                )?;
            }
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let spans = Spans::new(true);
        spans.time("outer", || {
            spans.time("inner", || std::thread::sleep(Duration::from_millis(2)));
        });
        spans.time("next", || ());
        let t = spans.self_times();
        assert_eq!(t["outer"].count, 1);
        assert!(t["inner"].total_ns >= 2_000_000);
        assert_eq!(t["outer"].self_ns, t["outer"].total_ns - t["inner"].total_ns);
        let trees = spans.trees.borrow();
        assert_eq!(trees.len(), 2, "one operation per root");
        assert_eq!(trees[0].children(0), &[1]);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let spans = Spans::new(false);
        let (v, _) = spans.time("x", || 7);
        assert_eq!(v, 7);
        assert_eq!(spans.len(), 0);
    }
}
