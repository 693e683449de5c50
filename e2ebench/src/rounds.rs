//! The timed closed loop: one client, rounds until the time is up.
//!
//! A round applies the write batch, then runs the query list under every
//! strategy. Strategies are interleaved query by query, in an order that
//! rotates every query and round, so a few slow seconds on the host fall
//! on all strategies alike. Strategies with short mixes run several passes
//! per round, which gives their medians as many samples as the time allows.

use std::cell::Cell;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use collab::{PreparedCollabQuery, StrategyOutcome};
use workload::QuerySpec;

use crate::check::canonical;
use crate::host::Speed;
use crate::layers::fold_operators;
use crate::spans::Spans;
use crate::workloads::{Env, Plan, Workload, WriteBatch, Writer, STAGING_TABLE, STRATEGIES};

/// Everything the rounds measured. Per-strategy arrays follow
/// [`STRATEGIES`].
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub rounds: usize,
    /// Wall time of the rounds, writes and checks included and calibration
    /// left out, scaled to the reference host speed like every time below
    /// unless it says raw (see [`Plan::speed_elasticity`]).
    pub wall_s: f64,
    pub queries: u64,
    /// The factor of every round (see [`crate::host`]).
    pub speed_factors: Vec<f64>,
    /// One sample per pass over the query list, raw.
    pub raw_mix_ms: [Vec<f64>; 4],
    /// The same, scaled, from untraced rounds.
    pub mix_ms: [Vec<f64>; 4],
    /// The same, scaled, from rounds run with the program's tracer on
    /// (trace runs alternate traced and untraced rounds).
    pub traced_mix_ms: [Vec<f64>; 4],
    pub query_ms: Vec<f64>,
    pub write_ms: Vec<f64>,
    pub insert_ms: Vec<f64>,
    pub update_ms: Vec<f64>,
    /// The loading / inference / relational split, summed per pass, raw.
    pub loading_ms: [Vec<f64>; 4],
    pub inference_ms: [Vec<f64>; 4],
    pub relational_ms: [Vec<f64>; 4],
    pub runs: [u64; 4],
    pub inferences: [f64; 4],
    /// Rows the relational predicates admitted, summed over the runs.
    pub candidates: [f64; 4],
    pub cross_system_bytes: [u64; 4],
    pub traced_runs: u64,
    /// Operator self time folded from the program's span trees.
    pub operator_self_ns: std::collections::BTreeMap<String, u64>,
}

/// Per-query facts the rounds need besides the result.
pub struct QueryInfo {
    /// Floating-point work of one inference of the query's nUDF.
    pub flops_per_inference: u64,
    /// `SELECT count(*)` over the rows the relational predicates admit.
    pub candidate_query: minidb::sql::ast::Query,
    /// Its latest count. Counted at set-up, and again after every write
    /// batch of a traced `ingest_mix` run.
    pub candidates: Cell<u64>,
}

impl QueryInfo {
    pub fn count_candidates(&self, db: &minidb::Database) -> Result<(), String> {
        let t = db.run_query(&self.candidate_query).map_err(|e| e.to_string())?;
        self.candidates.set(t.column(0).i64_at(0) as u64);
        Ok(())
    }
}

/// One run's result in canonical form, or the reason it failed.
type Checked = Result<Vec<String>, String>;

pub struct Loop<'a> {
    pub plan: &'a Plan,
    pub env: &'a Env,
    pub queries: &'a [QuerySpec],
    pub prepared: Vec<Vec<PreparedCollabQuery<'a>>>,
    pub info: Vec<QueryInfo>,
    pub spans: &'a Spans,
    /// Reference result of every query: DB-PyTorch's, run in set-up with
    /// every cache off.
    pub reference: Vec<Vec<String>>,
}

impl<'a> Loop<'a> {
    fn run_one(&self, strategy: usize, query: usize) -> (collab::Result<StrategyOutcome>, f64) {
        let kind = STRATEGIES[strategy];
        let engine_ix = strategy % self.env.engines.len();
        let (out, d) = self.spans.time("collab.run", || self.prepared[engine_ix][query].run(kind));
        (out, d.as_secs_f64() * 1e3)
    }

    /// The untimed first round: every query under every strategy, each
    /// result checked against the reference, before any write. Returns the
    /// number of failed runs.
    pub fn reference_round(&self) -> u64 {
        let mut failed = 0;
        for (qi, q) in self.queries.iter().enumerate() {
            for (s, kind) in STRATEGIES.iter().enumerate() {
                let (out, _) = self.run_one(s, qi);
                if let Err(e) = self.validate(out, s, Some(&self.reference[qi])) {
                    eprintln!("reference round {}: {e}: {}", kind.label(), q.sql);
                    failed += 1;
                }
            }
        }
        failed
    }

    /// Checks one run: it succeeded, a warm query inferred nothing, and the
    /// rows equal `expected` when given.
    fn validate(
        &self,
        out: collab::Result<StrategyOutcome>,
        strategy: usize,
        expected: Option<&Vec<String>>,
    ) -> Checked {
        let o = out.map_err(|e| e.to_string())?;
        if self.plan.workload == Workload::WarmScan && o.sim.inference_flops > 0 {
            return Err(format!("inferred {} flops on a warm query", o.sim.inference_flops));
        }
        let rows = canonical(&o.table);
        if let Some(want) = expected {
            if &rows != want {
                return Err(format!(
                    "result differs from the reference under {}",
                    STRATEGIES[strategy].label()
                ));
            }
        }
        Ok(rows)
    }

    /// Runs rounds until they have taken `seconds` and at least the plan's
    /// minimum number of rounds is done. `trace` alternates rounds with the
    /// program's span collector on and off.
    pub fn run(&self, seconds: f64, trace: bool, writer: &mut Writer) -> Tally {
        let mut t = Tally::default();
        let folded: Arc<Mutex<std::collections::BTreeMap<String, u64>>> = Arc::default();
        if trace {
            for engine in &self.env.engines {
                let sink = Arc::clone(&folded);
                engine.db().tracer().set_sink(Some(Arc::new(move |tree: &obs::SpanTree| {
                    fold_operators(tree, &mut sink.lock().expect("operator fold lock"));
                })));
            }
        }
        let budget = Duration::from_secs_f64(seconds);
        let mut measured = Duration::ZERO;
        while t.rounds < self.plan.min_rounds || measured < budget {
            let start = Instant::now();
            let mut speed = Speed::default();
            speed.sample();
            let (q0, w0) = (t.query_ms.len(), t.write_ms.len());
            let m0: Vec<usize> = t.raw_mix_ms.iter().map(Vec::len).collect();
            let traced = trace && t.rounds % 2 == 0;
            for engine in &self.env.engines {
                engine.db().tracer().set_enabled(traced);
            }
            self.write_round(writer, &mut t, &mut speed);
            if trace && self.plan.ingests() {
                // The benchmark's own queries stay out of the operator fold.
                let db = self.env.engines[0].db();
                db.tracer().set_enabled(false);
                for info in &self.info {
                    if let Err(e) = info.count_candidates(db) {
                        eprintln!("candidate count: {e}");
                        t.failed += 1;
                    }
                }
                db.tracer().set_enabled(traced);
            }
            self.query_round(t.rounds, traced, &mut t, &mut speed);
            t.rounds += 1;
            let elapsed = start.elapsed();
            measured += elapsed;

            t.speed_factors.push(speed.factor());
            let f = speed.factor().powf(self.plan.speed_elasticity);
            t.wall_s += elapsed.saturating_sub(speed.spent).as_secs_f64() * f;
            t.query_ms[q0..].iter_mut().for_each(|x| *x *= f);
            t.write_ms[w0..].iter_mut().for_each(|x| *x *= f);
            let mixes = if traced { &mut t.traced_mix_ms } else { &mut t.mix_ms };
            for (s, raw) in t.raw_mix_ms.iter().enumerate() {
                mixes[s].extend(raw[m0[s]..].iter().map(|x| x * f));
            }
        }
        for engine in &self.env.engines {
            engine.db().tracer().set_enabled(false);
            engine.db().tracer().set_sink(None);
        }
        t.operator_self_ns = std::mem::take(&mut *folded.lock().expect("operator fold lock"));
        t
    }

    /// Applies the round's write batch to every write database. One
    /// sample per round: the batch's time summed over the databases.
    fn write_round(&self, writer: &mut Writer, t: &mut Tally, speed: &mut Speed) {
        let batch = writer.next_batch();
        let (mut write, mut insert, mut update, mut ok) = (0.0, 0.0, 0.0, true);
        for db in self.env.write_dbs() {
            t.attempted += 1;
            if let Err(e) = writer.restore(db) {
                eprintln!("restoring the base tables: {e}");
                t.failed += 1;
                ok = false;
                continue;
            }
            speed.sample_now_and_then();
            let (res, d) = self.spans.time("minidb.write_batch", || apply(db, &batch, self.spans));
            match res {
                Ok((insert_ms, update_ms)) => {
                    write += d.as_secs_f64() * 1e3;
                    insert += insert_ms;
                    update += update_ms;
                }
                Err(e) => {
                    eprintln!("write batch: {e}");
                    t.failed += 1;
                    ok = false;
                }
            }
        }
        if ok {
            t.write_ms.push(write);
            t.insert_ms.push(insert);
            t.update_ms.push(update);
        }
    }

    fn query_round(&self, round: usize, traced: bool, t: &mut Tally, speed: &mut Speed) {
        let n = STRATEGIES.len();
        let max_passes = *self.plan.passes.iter().max().expect("four strategies");
        let mut mix = vec![vec![0.0f64; max_passes]; n];
        let mut split = vec![vec![[0.0f64; 3]; max_passes]; n];
        // First-pass rows by query and strategy, for the agreement check.
        let mut rows: Vec<Vec<Option<Vec<String>>>> = vec![vec![None; n]; self.queries.len()];
        for (qi, q) in self.queries.iter().enumerate() {
            for k in 0..n {
                let s = (k + qi + round) % n;
                for pass in 0..self.plan.passes[s] {
                    speed.sample_now_and_then();
                    let (out, ms) = self.run_one(s, qi);
                    t.attempted += 1;
                    t.queries += 1;
                    t.query_ms.push(ms);
                    mix[s][pass] += ms;
                    let stats = out.as_ref().ok().map(|o| (o.breakdown, o.sim));
                    let expected =
                        if self.plan.ingests() { None } else { Some(&self.reference[qi]) };
                    match self.validate(out, s, expected) {
                        Ok(r) => {
                            if pass == 0 {
                                rows[qi][s] = Some(r);
                            }
                        }
                        Err(e) => {
                            eprintln!("round {round} {}: {e}: {}", STRATEGIES[s].label(), q.sql);
                            t.failed += 1;
                        }
                    }
                    if let Some((b, sim)) = stats {
                        let sp = &mut split[s][pass];
                        sp[0] += b.loading.as_secs_f64() * 1e3;
                        sp[1] += b.inference.as_secs_f64() * 1e3;
                        sp[2] += b.relational.as_secs_f64() * 1e3;
                        t.runs[s] += 1;
                        t.inferences[s] += sim.inference_flops as f64
                            / self.info[qi].flops_per_inference.max(1) as f64;
                        t.candidates[s] += self.info[qi].candidates.get() as f64;
                        t.cross_system_bytes[s] += sim.cross_system_bytes;
                        if traced {
                            t.traced_runs += 1;
                        }
                    }
                }
            }
            if self.plan.ingests() {
                t.failed += disagreements(&rows[qi], q);
            }
        }
        for s in 0..n {
            for pass in 0..self.plan.passes[s] {
                t.raw_mix_ms[s].push(mix[s][pass]);
                t.loading_ms[s].push(split[s][pass][0]);
                t.inference_ms[s].push(split[s][pass][1]);
                t.relational_ms[s].push(split[s][pass][2]);
            }
        }
    }
}

/// Strategies whose rows differ from DB-PyTorch's, the path that runs the
/// reference forward pass outside the database. A run that failed outright
/// (`None`) was counted already and has no rows to compare.
fn disagreements(per_strategy: &[Option<Vec<String>>], q: &QuerySpec) -> u64 {
    let baseline = STRATEGIES.len() - 1;
    let Some(want) = &per_strategy[baseline] else { return 0 };
    let mut n = 0;
    for (s, rows) in per_strategy.iter().enumerate() {
        if rows.as_ref().is_some_and(|r| r != want) {
            eprintln!(
                "{} disagrees with {} on {}",
                STRATEGIES[s].label(),
                STRATEGIES[baseline].label(),
                q.sql
            );
            n += 1;
        }
    }
    n
}

/// Applies one write batch; returns the INSERT and UPDATE statement times.
fn apply(db: &minidb::Database, batch: &WriteBatch, spans: &Spans) -> minidb::Result<(f64, f64)> {
    db.catalog().create_table(STAGING_TABLE, batch.staged_videos.clone(), true)?;
    let (mut insert_ms, mut update_ms) = (0.0, 0.0);
    for sql in &batch.statements {
        let is_update = sql.starts_with("UPDATE");
        let (res, d) = spans
            .time(if is_update { "minidb.update" } else { "minidb.insert" }, || db.execute(sql));
        res?;
        if is_update {
            update_ms += d.as_secs_f64() * 1e3;
        } else {
            insert_ms += d.as_secs_f64() * 1e3;
        }
    }
    Ok((insert_ms, update_ms))
}
