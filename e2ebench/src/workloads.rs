//! The three workloads: sizes, query lists, write batches and set-up.
//!
//! Inputs come only from the seed: the dataset, the model-variant draws
//! and the keyframes of ingested rows. The program receives the generated
//! tables and SQL text, nothing else.

use std::sync::Arc;

use collab::{CollabEngine, ModelRepo, QueryType, StrategyKind};
use minidb::value::parse_date;
use minidb::{Column, DataType, Database, Field, Schema, Table, Value};
use workload::dataset::{date_upper_bound_for_selectivity, keyframe, DATE_EPOCH};
use workload::queries::template;
use workload::{build_dataset, build_repo, DatasetConfig, QuerySpec, RepoConfig};

use crate::host::Speed;
use crate::spans::Spans;

/// The four strategies, in the order their metrics are listed.
pub const STRATEGIES: [StrategyKind; 4] = [
    StrategyKind::Tight,
    StrategyKind::TightOptimized,
    StrategyKind::LooseUdf,
    StrategyKind::Independent,
];

/// Metric-name stem of a strategy.
pub fn key(kind: StrategyKind) -> &'static str {
    match kind {
        StrategyKind::Tight => "dl2sql",
        StrategyKind::TightOptimized => "dl2sql_op",
        StrategyKind::LooseUdf => "db_udf",
        StrategyKind::Independent => "db_pytorch",
    }
}

const KEYFRAME_SHAPE: [usize; 3] = [1, 12, 12];
/// Salts keeping the seed-derived streams apart.
const VARIANT_SALT: u64 = 0x5EED_0001;
const INGEST_SALT: u64 = 0x5EED_0002;
/// The fabric and video tables hold one transaction per ten clips.
const CLIPS_PER_TRANSACTION: usize = 10;
/// The selectivity of the date window write batches append into: the
/// narrowest one the workloads query.
const WINDOW_SELECTIVITY: f64 = 0.0001;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdInfer,
    WarmScan,
    IngestMix,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "cold_infer" => Some(Workload::ColdInfer),
            "warm_scan" => Some(Workload::WarmScan),
            "ingest_mix" => Some(Workload::IngestMix),
            _ => None,
        }
    }
}

/// Everything a workload fixes before the seed is applied.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    pub video_rows: usize,
    /// Relational selectivities the Table-I templates are instantiated at.
    pub selectivities: Vec<f64>,
    /// nUDF result memoization (the paper's default is off).
    pub memo: bool,
    /// Compiled-artifact reuse (the paper's default is off).
    pub artifacts: bool,
    /// Fresh builds per run: the first is kept for the rounds, the others
    /// follow them; `setup_s` is the median of all.
    pub setup_builds: usize,
    /// Passes over the query list per round, by [`STRATEGIES`] index.
    pub passes: [usize; 4],
    /// How strongly the rounds' work follows the calibration kernel: a
    /// round's times are scaled by the host speed factor raised to this
    /// power (see [`crate::host`]). Set-up, mostly inference, is scaled by
    /// the factor itself.
    pub speed_elasticity: f64,
    pub min_rounds: usize,
}

impl Plan {
    pub fn new(workload: Workload, tiny: bool) -> Plan {
        let mut plan = match workload {
            Workload::ColdInfer => Plan {
                workload,
                video_rows: 50,
                selectivities: vec![0.0001],
                memo: false,
                artifacts: false,
                setup_builds: 7,
                passes: [1, 1, 4, 4],
                speed_elasticity: 1.0,
                min_rounds: 3,
            },
            Workload::WarmScan => Plan {
                workload,
                video_rows: 2000,
                selectivities: vec![0.0001, 0.001, 0.01],
                memo: true,
                artifacts: true,
                setup_builds: 5,
                passes: [1, 1, 1, 1],
                // Warm relational work slows less than the kernel does.
                speed_elasticity: 0.45,
                min_rounds: 3,
            },
            Workload::IngestMix => Plan {
                workload,
                video_rows: 1000,
                selectivities: vec![0.0001],
                memo: true,
                // Off: see "Known defect" in `WORKLOADS.md`. Every
                // repository model compiles to the same tables, so a
                // cached artifact runs whichever model was compiled last;
                // the traced run counts the wrong predictions this causes
                // (`core.artifact_reuse_mismatches`).
                artifacts: false,
                setup_builds: 5,
                passes: [1, 1, 1, 1],
                speed_elasticity: 1.0,
                min_rounds: 3,
            },
        };
        if tiny {
            plan.video_rows = plan.video_rows.min(40);
            plan.selectivities.truncate(1);
            plan.setup_builds = 1;
            plan.passes = [1, 1, 1, 1];
            plan.min_rounds = 1;
        }
        plan
    }

    /// Whether the engines take the writes. Such a workload gives every
    /// strategy an engine of its own, so each strategy infers the new
    /// rows through its own path.
    pub fn ingests(&self) -> bool {
        self.workload == Workload::IngestMix
    }
}

/// SplitMix64: a seed-derived stream for the benchmark's own draws.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn variant_suffix(state: &mut u64) -> String {
    match mix(state) % 4 {
        0 => String::new(),
        v => format!("_v{v}"),
    }
}

/// The workload's fixed query list. `cold_infer` draws every query's task
/// variant, as the paper's Sec. V mix does; the others draw one variant
/// per task family, as a dashboard would pin its models.
pub fn queries(plan: &Plan, seed: u64) -> Vec<QuerySpec> {
    let mut state = seed ^ VARIANT_SALT;
    let types = [QueryType::Type1, QueryType::Type2, QueryType::Type3, QueryType::Type4];
    let pinned: Vec<String> = (0..types.len()).map(|_| variant_suffix(&mut state)).collect();
    let mut out = Vec::new();
    for &selectivity in &plan.selectivities {
        for (t, &qtype) in types.iter().enumerate() {
            let suffix = match plan.workload {
                Workload::ColdInfer => variant_suffix(&mut state),
                // Types 2 and 3 share the defect detector.
                _ => pinned[if qtype == QueryType::Type3 { 1 } else { t }].clone(),
            };
            out.push(template(qtype, selectivity, &suffix));
        }
    }
    out
}

/// A built environment: engines over identical data, plus, when the
/// workload's engines take no writes, a separate database that receives
/// the write batches.
pub struct Env {
    pub engines: Vec<CollabEngine>,
    pub write_target: Option<Arc<Database>>,
    pub repo: Arc<ModelRepo>,
    pub base_fabric_rows: usize,
}

impl Env {
    /// Every database that receives the round's write batch.
    pub fn write_dbs(&self) -> Vec<&Database> {
        match &self.write_target {
            Some(db) => vec![db.as_ref()],
            None => self.engines.iter().map(|e| e.db().as_ref()).collect(),
        }
    }
}

/// Wall time of each set-up stage of one build, in milliseconds, raw.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub dataset_ms: f64,
    pub repo_ms: f64,
    pub engine_ms: f64,
    pub warmup_ms: f64,
    /// Scales the build's time to the reference host speed.
    pub speed_factor: f64,
}

impl SetupTimes {
    /// The whole build, scaled to the reference host speed.
    pub fn total_s(&self) -> f64 {
        (self.dataset_ms + self.repo_ms + self.engine_ms + self.warmup_ms) / 1e3 * self.speed_factor
    }
}

/// Calibration samples taken right before and right after each build;
/// one more is taken between stages and every so often during warm-up.
const BUILD_CALIBRATIONS: usize = 5;

fn fresh_db() -> Database {
    Database::builder().parallelism(1).build()
}

fn copy_tables(from: &Database, to: &Database, names: &[&str]) -> minidb::Result<()> {
    for name in names {
        let table = from.catalog().table(name).expect("dataset table exists");
        to.catalog().create_table(name, (*table).clone(), true)?;
    }
    Ok(())
}

/// Builds the dataset, the model repository and the engines, calls
/// `before_warm_up` on the new environment, then turns on the caches the
/// workload keeps and warms them. `before_warm_up` runs with every cache
/// off and its time is not set-up time. Warm-up runs every query through
/// DB-UDF first, the cheapest path, and then, on a shared engine, through
/// the other strategies, so the memo holds every keyframe any strategy
/// reads and the artifact cache every compiled model.
pub fn build(
    plan: &Plan,
    seed: u64,
    queries: &[QuerySpec],
    spans: &Spans,
    before_warm_up: &mut dyn FnMut(&Env) -> Result<(), String>,
) -> Result<(Env, SetupTimes), String> {
    let mut speed = Speed::default();
    (0..BUILD_CALIBRATIONS).for_each(|_| speed.sample());
    let mut times = SetupTimes::default();
    let config = DatasetConfig {
        video_rows: plan.video_rows,
        keyframe_shape: KEYFRAME_SHAPE.to_vec(),
        seed,
        ..Default::default()
    };
    let first = fresh_db();
    let (summary, d) = spans.time("workload.build_dataset", || build_dataset(&first, &config));
    let summary = summary.map_err(|e| format!("dataset: {e}"))?;
    times.dataset_ms = d.as_secs_f64() * 1e3;

    let repo_config = RepoConfig {
        keyframe_shape: KEYFRAME_SHAPE.to_vec(),
        patterns: config.patterns,
        ..Default::default()
    };
    speed.sample();
    let (repo, d) = spans.time("workload.build_repo", || build_repo(&repo_config));
    times.repo_ms = d.as_secs_f64() * 1e3;

    speed.sample();
    let (built, d) = spans.time("collab.engine_new", || -> minidb::Result<_> {
        let mut dbs = vec![first];
        let engines = if plan.ingests() { STRATEGIES.len() } else { 1 };
        for _ in 1..engines {
            let db = fresh_db();
            copy_tables(&dbs[0], &db, &DATASET_TABLES)?;
            dbs.push(db);
        }
        let write_target = if plan.ingests() {
            None
        } else {
            let db = fresh_db();
            copy_tables(&dbs[0], &db, &WRITTEN_TABLES)?;
            Some(Arc::new(db))
        };
        let engines: Vec<CollabEngine> =
            dbs.into_iter().map(|db| CollabEngine::new(Arc::new(db), Arc::clone(&repo))).collect();
        Ok((engines, write_target))
    });
    let (engines, write_target) = built.map_err(|e| format!("engine: {e}"))?;
    times.engine_ms = d.as_secs_f64() * 1e3;

    let env = Env { engines, write_target, repo, base_fabric_rows: summary.fabric_rows };
    before_warm_up(&env)?;
    if plan.memo || plan.artifacts {
        let calibrating = speed.spent;
        let (warm, d) = spans.time("collab.warmup", || warm_up(plan, &env, queries, &mut speed));
        warm?;
        times.warmup_ms = d.saturating_sub(speed.spent - calibrating).as_secs_f64() * 1e3;
    }
    (0..BUILD_CALIBRATIONS).for_each(|_| speed.sample());
    times.speed_factor = speed.factor();
    Ok((env, times))
}

fn warm_up(plan: &Plan, env: &Env, queries: &[QuerySpec], speed: &mut Speed) -> Result<(), String> {
    let order = [
        StrategyKind::LooseUdf,
        StrategyKind::Independent,
        StrategyKind::Tight,
        StrategyKind::TightOptimized,
    ];
    for engine in &env.engines {
        if plan.memo {
            engine.set_inference_cache_capacity(1 << 16);
        }
        if plan.artifacts {
            engine.set_artifact_cache_capacity(32);
        }
        // With an engine per strategy each one infers new rows through
        // its own path later; warm-up fills its memo natively.
        let kinds = if plan.ingests() { &order[..1] } else { &order[..] };
        for q in queries {
            let prepared = engine.prepare(&q.sql).map_err(|e| e.to_string())?;
            for &kind in kinds {
                speed.sample_now_and_then();
                let out =
                    prepared.run(kind).map_err(|e| format!("warm-up {}: {e}", kind.label()))?;
                // A DL2SQL inference here could store a cached artifact's
                // wrong answer in the shared memo (see `WORKLOADS.md`).
                let tight = matches!(kind, StrategyKind::Tight | StrategyKind::TightOptimized);
                if tight && plan.artifacts && out.sim.inference_flops > 0 {
                    return Err(format!("{} inferred during warm-up: {}", kind.label(), q.sql));
                }
            }
        }
    }
    Ok(())
}

/// Statements and staged rows of one round's write batch.
pub struct WriteBatch {
    /// New clips, staged as a table the INSERT … SELECT reads.
    pub staged_videos: Table,
    pub statements: Vec<String>,
}

pub const STAGING_TABLE: &str = "video_batch";
/// The tables `workload::build_dataset` creates.
pub const DATASET_TABLES: [&str; 5] = ["client", "device", "order", "fabric", "video"];
/// The tables a write batch changes.
pub const WRITTEN_TABLES: [&str; 2] = ["fabric", "video"];

/// Generates write batches. A batch appends as many transactions as the
/// base `fabric` table holds in the [`WINDOW_SELECTIVITY`] date window,
/// each with its ten clips, into that window, so the window the queries
/// read doubles and half of its clips have keyframes no cache has seen.
/// The batch is three statements: one `INSERT … VALUES` for the fabric
/// rows, one `INSERT … SELECT` for the clips, staged as a table, and one
/// `UPDATE` moving the new rows' sensor aggregates into the Type-3 window.
/// Every round starts from the base tables, so table sizes, and with them
/// write and scan costs, do not drift with the number of rounds a run fits
/// in; keyframes are new in every round.
pub struct Writer {
    seed: u64,
    base: Vec<(&'static str, Table)>,
    trans0: i64,
    transactions: usize,
    next_video: i64,
}

impl Writer {
    pub fn new(plan: &Plan, env: &Env, seed: u64) -> Writer {
        let db = env.write_dbs()[0];
        let base: Vec<(&'static str, Table)> = WRITTEN_TABLES
            .iter()
            .map(|&n| (n, (*db.catalog().table(n).expect("dataset table exists")).clone()))
            .collect();
        let fabric = &base[0].1;
        let dates = fabric.column_by_name("printdate").expect("fabric has printdate");
        let upper = parse_date(&date_upper_bound_for_selectivity(WINDOW_SELECTIVITY))
            .expect("window bound parses");
        let in_window = (0..fabric.num_rows())
            .filter(|&r| matches!(dates.value(r), Value::Date(d) if d < upper))
            .count();
        Writer {
            seed: seed ^ INGEST_SALT,
            base,
            trans0: env.base_fabric_rows as i64,
            transactions: in_window.max(1),
            next_video: plan.video_rows as i64,
        }
    }

    /// Fabric rows and clips one batch appends.
    pub fn batch_rows(&self) -> (usize, usize) {
        (self.transactions, self.transactions * CLIPS_PER_TRANSACTION)
    }

    /// Puts the base tables back into `db`.
    pub fn restore(&self, db: &Database) -> minidb::Result<()> {
        for (name, table) in &self.base {
            db.catalog().create_table(name, table.clone(), true)?;
        }
        Ok(())
    }

    pub fn next_batch(&mut self) -> WriteBatch {
        let (t0, v0) = (self.trans0, self.next_video);
        let t1 = t0 + self.transactions as i64;
        let v1 = v0 + (self.transactions * CLIPS_PER_TRANSACTION) as i64;
        self.next_video = v1;
        let epoch = parse_date(DATE_EPOCH).expect("epoch parses");

        let mut keyframes = Column::empty(DataType::Blob);
        for v in v0..v1 {
            keyframes
                .push(collab::tensor_to_blob(&keyframe(&KEYFRAME_SHAPE, self.seed, v as u64)))
                .expect("blob column takes blobs");
        }
        let staged_videos = Table::new(
            Schema::new(vec![
                Field::new("videoID", DataType::Int64),
                Field::new("transID", DataType::Int64),
                Field::new("date", DataType::Date),
                Field::new("keyframe", DataType::Blob),
            ]),
            vec![
                Column::Int64((v0..v1).collect()),
                Column::Int64(
                    (v0..v1).map(|v| t0 + (v - v0) / CLIPS_PER_TRANSACTION as i64).collect(),
                ),
                Column::Date(vec![epoch; (v1 - v0) as usize]),
                keyframes,
            ],
        )
        .expect("staged clips match the video schema");

        let fabric_rows: Vec<String> = (t0..t1)
            .map(|t| {
                format!(
                    "({t}, {}, {:.1}, '{DATE_EPOCH}', 50.0, 20.0, 0, 0)",
                    t % 8,
                    1.0 + (t % 5) as f64
                )
            })
            .collect();
        let statements = vec![
            format!("INSERT INTO fabric VALUES {}", fabric_rows.join(", ")),
            format!("INSERT INTO video SELECT * FROM {STAGING_TABLE}"),
            format!(
                "UPDATE fabric SET humidity = 99.999, temperature = 40.0 \
                 WHERE transID >= {t0} and transID < {t1}"
            ),
        ];
        WriteBatch { staged_videos, statements }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_lists_follow_the_seed_only() {
        for w in [Workload::ColdInfer, Workload::WarmScan, Workload::IngestMix] {
            let plan = Plan::new(w, false);
            let a: Vec<String> = queries(&plan, 3).into_iter().map(|q| q.sql).collect();
            let b: Vec<String> = queries(&plan, 3).into_iter().map(|q| q.sql).collect();
            assert_eq!(a, b);
            assert_eq!(a.len(), 4 * plan.selectivities.len());
        }
    }

    #[test]
    fn write_batches_bring_new_clips_every_round() {
        let plan = Plan::new(Workload::IngestMix, true);
        let db = Database::new();
        let config = DatasetConfig { video_rows: 40, ..Default::default() };
        let summary = build_dataset(&db, &config).unwrap();
        let env = Env {
            engines: vec![],
            write_target: Some(Arc::new(db)),
            repo: Arc::new(ModelRepo::new()),
            base_fabric_rows: summary.fabric_rows,
        };
        let mut w = Writer::new(&plan, &env, 1);
        let (transactions, clips) = w.batch_rows();
        assert!(transactions >= 1);
        let first = w.next_batch();
        let second = w.next_batch();
        assert_eq!(first.staged_videos.num_rows(), clips);
        assert_ne!(first.staged_videos.column(3), second.staged_videos.column(3));
        assert_eq!(first.statements.len(), 3);
        assert!(first.statements[1].starts_with("INSERT INTO video SELECT"));
        assert!(first.statements[2].contains(&format!(
            "transID >= {} and transID < {}",
            summary.fabric_rows,
            summary.fabric_rows + transactions
        )));

        let target = env.write_dbs()[0];
        w.restore(target).unwrap();
        target.catalog().create_table(STAGING_TABLE, first.staged_videos, true).unwrap();
        for sql in &first.statements {
            target.execute(sql).unwrap();
        }
        let count = |t: &str| target.catalog().table(t).unwrap().num_rows();
        assert_eq!(count("video"), 40 + clips);
        assert_eq!(count("fabric"), summary.fabric_rows + transactions);
    }
}
