//! The **independent processing** strategy (paper "DB-PyTorch").
//!
//! An application-layer coordinator parses the collaborative query, splits
//! it into a database part and a DL part, and moves intermediate results
//! between the two systems. The DL system runs on its own thread behind a
//! byte channel: every keyframe is *actually serialized*, crosses the
//! channel, is deserialized, batch-predicted, and the predictions travel
//! back the same way — the cross-system I/O and (de)serialization costs
//! the paper attributes to this strategy are physically incurred.
//!
//! Execution pipeline per query:
//!
//! 1. run the relational part (`Q_db`: joins + non-nUDF predicates) in the
//!    database, also projecting every nUDF argument,
//! 2. ship argument blobs to the DL server, get predictions back,
//! 3. materialize an intermediate table (base columns + one `__nudf_i`
//!    column per call) back into the database, as a `TEMP` table of the
//!    query's own session,
//! 4. run the original query, rewritten over the intermediate table with
//!    nUDF calls replaced by their prediction columns.

use std::collections::HashMap;
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use minidb::sql::ast::{Expr, FromItem, Query, SelectItem, TableFactor};
use minidb::{Column, Database, Field, Schema, Table, Value};
use neuro::serialize::tensor_from_bytes;

use crate::cache::{InferenceCache, InferenceKey, Keyframe};
use crate::error::{Error, Result};
use crate::metrics::{CostBreakdown, InferenceMeter, StrategyOutcome};
use crate::nudf::ModelRepo;
use crate::query::nudf_calls_in_query;
use crate::Strategy;

// ---------------------------------------------------------------------------
// the DL-serving component
// ---------------------------------------------------------------------------

struct InferRequest {
    nudf: String,
    payload: Arc<[u8]>,
    /// The requesting query's meter: the server charges its work there.
    meter: Arc<InferenceMeter>,
    /// Receives the serialized predictions: one `u32` class id per input.
    reply: SyncSender<Result<Vec<u8>>>,
}

/// The model-serving process: a thread that owns the model repository's
/// inference side and communicates only via serialized messages.
pub struct DlServer {
    tx: SyncSender<InferRequest>,
    handle: Option<JoinHandle<()>>,
}

impl DlServer {
    /// Spawns the serving thread.
    pub fn start(repo: Arc<ModelRepo>) -> Self {
        let (tx, rx) = sync_channel::<InferRequest>(16);
        let handle = std::thread::spawn(move || {
            while let Ok(req) = rx.recv() {
                let result = serve(&repo, &req.meter, &req.nudf, &req.payload);
                // A dropped reply receiver just means the client gave up.
                let _ = req.reply.send(result);
            }
        });
        DlServer { tx, handle: Some(handle) }
    }

    /// Sends a batch and waits for predictions. The `independent.transfer`
    /// failpoint sits in front of the send so fault-injection tests can
    /// fail or delay the cross-system hop deterministically.
    fn infer(
        &self,
        nudf: &str,
        payload: Arc<[u8]>,
        meter: &Arc<InferenceMeter>,
    ) -> Result<Vec<u8>> {
        govern::failpoints::fire("independent.transfer")
            .map_err(|f| Error::Channel(format!("injected transfer fault: {f:?}")))?;
        let (reply_tx, reply_rx) = sync_channel(1);
        let meter = Arc::clone(meter);
        self.tx
            .send(InferRequest { nudf: nudf.to_string(), payload, meter, reply: reply_tx })
            .map_err(|_| Error::Channel("DL server is down".into()))?;
        reply_rx.recv().map_err(|_| Error::Channel("DL server dropped the request".into()))?
    }
}

impl Drop for DlServer {
    fn drop(&mut self) {
        // Closing the channel stops the loop.
        let (tx, _) = sync_channel(1);
        let _ = std::mem::replace(&mut self.tx, tx);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn serve(repo: &ModelRepo, meter: &InferenceMeter, nudf: &str, payload: &[u8]) -> Result<Vec<u8>> {
    let spec = repo.require(nudf)?;
    // Deserialize the batch. A leading flag byte says whether each item
    // carries a model-selection condition (paper Type 3).
    let mut pos = 0usize;
    if payload.is_empty() {
        return Err(Error::Channel("empty request".into()));
    }
    let conditional = payload[0] == 1;
    pos += 1;
    let mut tensors = Vec::new();
    let mut conditions: Vec<Option<f64>> = Vec::new();
    let count = read_u32(payload, &mut pos)? as usize;
    for _ in 0..count {
        let len = read_u32(payload, &mut pos)? as usize;
        if pos + len > payload.len() {
            return Err(Error::Channel("truncated tensor batch".into()));
        }
        tensors.push(tensor_from_bytes(&payload[pos..pos + len])?);
        pos += len;
        if conditional {
            if pos + 8 > payload.len() {
                return Err(Error::Channel("truncated condition value".into()));
            }
            let bits = u64::from_le_bytes(payload[pos..pos + 8].try_into().expect("8 bytes"));
            conditions.push(Some(f64::from_bits(bits)));
            pos += 8;
        } else {
            conditions.push(None);
        }
    }
    // Each keyframe moves onto the serving system's inference device;
    // one synchronous round trip covers the whole batch.
    meter.clock.charge_round_trip();
    for t in &tensors {
        meter.clock.charge_transfer((t.len() * 4) as u64);
    }
    // Batch inference ("nUDF is performed in a batch manner") across the
    // serving system's workers; each item's condition selects the model
    // variant. `run_indexed` returns predictions in request order, so the
    // reply is identical at any worker count.
    let t0 = Instant::now();
    let workers = taskpool::default_parallelism();
    let classes = taskpool::run_indexed(workers, tensors.len(), |i| {
        spec.select_model(conditions[i])
            .forward_with_clock(&tensors[i], Some(&meter.clock))
            .map(|out| out.argmax())
    })
    .into_iter()
    .collect::<std::result::Result<Vec<usize>, _>>()?;
    meter.add(t0.elapsed());
    // Serialize predictions.
    let mut out = Vec::with_capacity(4 + 4 * classes.len());
    out.extend_from_slice(&(classes.len() as u32).to_le_bytes());
    for c in classes {
        out.extend_from_slice(&(c as u32).to_le_bytes());
    }
    Ok(out)
}

fn read_u32(buf: &[u8], pos: &mut usize) -> Result<u32> {
    if *pos + 4 > buf.len() {
        return Err(Error::Channel("truncated message".into()));
    }
    let v = u32::from_le_bytes(buf[*pos..*pos + 4].try_into().expect("4 bytes"));
    *pos += 4;
    Ok(v)
}

// ---------------------------------------------------------------------------
// the application-layer coordinator
// ---------------------------------------------------------------------------

const INTERMEDIATE_TABLE: &str = "__indep_base";

/// The DB-PyTorch strategy.
pub struct Independent {
    db: Arc<Database>,
    repo: Arc<ModelRepo>,
    server: Arc<DlServer>,
    inference: Arc<InferenceCache>,
}

impl Independent {
    /// Builds the strategy over a shared database, repository and serving
    /// thread.
    pub fn new(db: Arc<Database>, repo: Arc<ModelRepo>, server: Arc<DlServer>) -> Self {
        Independent { db, repo, server, inference: Arc::new(InferenceCache::new(0)) }
    }

    /// Attaches a shared result-memoization cache. Memoized keyframes are
    /// answered at the coordinator — they never cross the channel — so
    /// only cache misses are serialized, shipped and scored.
    pub fn with_inference_cache(mut self, inference: Arc<InferenceCache>) -> Self {
        self.inference = inference;
        self
    }

    /// One transfer with bounded retries: transient channel failures are
    /// retried with the default exponential backoff; anything else
    /// propagates immediately. Returns the reply and how many retries it
    /// took.
    fn transfer(
        &self,
        nudf: &str,
        payload: &Arc<[u8]>,
        meter: &Arc<InferenceMeter>,
    ) -> Result<(Vec<u8>, u32)> {
        let retry = govern::RetryPolicy::default();
        let attempts = retry.max_attempts;
        let mut last: Option<Error> = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(retry.delay(attempt - 1));
            }
            match self.server.infer(nudf, Arc::clone(payload), meter) {
                Ok(resp) => return Ok((resp, attempt)),
                // Channel-level failures (server hiccup, injected fault)
                // are the transient class worth retrying.
                Err(e @ Error::Channel(_)) => last = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(Error::Governance(govern::QueryError::RetryExhausted {
            attempts,
            last: last.map(|e| e.to_string()).unwrap_or_default(),
        }))
    }
}

/// Maps a (qualifier, column) reference onto the intermediate table's
/// flattened `binding__column` namespace.
struct Renamer {
    bindings: Vec<(String, Vec<String>)>,
}

impl Renamer {
    fn rename(&self, qualifier: Option<&str>, name: &str) -> Result<String> {
        let mut found = None;
        for (binding, cols) in &self.bindings {
            let qual_ok = qualifier.is_none_or(|q| binding.eq_ignore_ascii_case(q));
            if qual_ok && cols.iter().any(|c| c.eq_ignore_ascii_case(name)) {
                if found.is_some() {
                    return Err(Error::Coordinator(format!("ambiguous column '{name}'")));
                }
                found = Some(format!("{binding}__{name}"));
            }
        }
        found.ok_or_else(|| Error::Coordinator(format!("cannot resolve column '{name}'")))
    }
}

/// Rewrites an expression onto the intermediate table: column references
/// are renamed, nUDF calls become `__nudf_i` references.
fn rewrite(expr: &Expr, calls: &[Expr], renamer: &Renamer) -> Result<Expr> {
    if let Some(i) = calls.iter().position(|c| c == expr) {
        return Ok(Expr::col(&format!("__nudf_{i}")));
    }
    Ok(match expr {
        Expr::Column { qualifier, name } => Expr::col(&renamer.rename(qualifier.as_deref(), name)?),
        Expr::Literal(_) => expr.clone(),
        Expr::Unary { op, expr } => {
            Expr::Unary { op: *op, expr: Box::new(rewrite(expr, calls, renamer)?) }
        }
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(rewrite(left, calls, renamer)?),
            op: *op,
            right: Box::new(rewrite(right, calls, renamer)?),
        },
        Expr::Function { name, args, star, distinct } => Expr::Function {
            name: name.clone(),
            args: args.iter().map(|a| rewrite(a, calls, renamer)).collect::<Result<_>>()?,
            star: *star,
            distinct: *distinct,
        },
        Expr::Subquery(_) => {
            return Err(Error::Coordinator(
                "scalar subqueries are not supported in collaborative queries".into(),
            ))
        }
    })
}

/// The table binding a keyframe argument belongs to.
fn argument_binding(arg: &Expr, bindings: &[(String, Schema)]) -> Result<String> {
    let Expr::Column { qualifier, name } = arg else {
        return Err(Error::Coordinator("nUDF arguments must be plain keyframe columns".into()));
    };
    if let Some(q) = qualifier {
        return Ok(bindings
            .iter()
            .find(|(b, _)| b.eq_ignore_ascii_case(q))
            .ok_or_else(|| Error::Coordinator(format!("unknown table alias '{q}'")))?
            .0
            .clone());
    }
    let owners: Vec<&String> = bindings
        .iter()
        .filter(|(_, s)| s.fields().iter().any(|f| f.name.eq_ignore_ascii_case(name)))
        .map(|(b, _)| b)
        .collect();
    match owners.as_slice() {
        [one] => Ok((*one).clone()),
        [] => Err(Error::Coordinator(format!("cannot resolve column '{name}'"))),
        _ => Err(Error::Coordinator(format!("ambiguous column '{name}'"))),
    }
}

/// The FROM factor whose binding name is `binding`.
fn find_factor(q: &Query, binding: &str) -> Result<TableFactor> {
    for item in &q.from {
        if item.factor.binding_name().eq_ignore_ascii_case(binding) {
            return Ok(item.factor.clone());
        }
        for j in &item.joins {
            if j.factor.binding_name().eq_ignore_ascii_case(binding) {
                return Ok(j.factor.clone());
            }
        }
    }
    Err(Error::Coordinator(format!("no FROM entry binds '{binding}'")))
}

/// Whether a conjunct references only columns of `binding`.
fn conjunct_local_to(expr: &Expr, binding: &str, bindings: &[(String, Schema)]) -> bool {
    let mut local = true;
    expr.visit(&mut |e| {
        if let Expr::Column { .. } = e {
            match argument_binding(e, bindings) {
                Ok(b) if b.eq_ignore_ascii_case(binding) => {}
                _ => local = false,
            }
        }
    });
    local
}

impl Strategy for Independent {
    fn name(&self) -> &'static str {
        "DB-PyTorch"
    }

    fn execute_query(&self, q: &Query) -> Result<StrategyOutcome> {
        let meter = InferenceMeter::shared();
        // The intermediate table is a TEMP table of this session: private
        // to the query and dropped with it, however the query ends.
        let session = self.db.session();
        let mut loading = Duration::ZERO;
        let mut relational = Duration::ZERO;
        let mut transfer_retries = 0u32;

        let calls = nudf_calls_in_query(q, &self.repo);

        // ---- split the predicate -------------------------------------
        let (db_conjuncts, learn_conjuncts): (Vec<Expr>, Vec<Expr>) = match &q.predicate {
            Some(p) => p
                .conjuncts()
                .into_iter()
                .cloned()
                .partition(|c| !crate::query::contains_nudf(c, &self.repo)),
            None => (vec![], vec![]),
        };

        // ---- bindings & schemas ---------------------------------------
        let mut bindings: Vec<(String, Schema)> = Vec::new();
        let mut collect = |factor: &TableFactor| -> Result<()> {
            let TableFactor::Named { name, .. } = factor else {
                return Err(Error::Coordinator(
                    "the coordinator supports plain table references only".into(),
                ));
            };
            let table = session
                .catalog()
                .table(name)
                .ok_or_else(|| Error::Db(minidb::Error::NotFound(format!("table '{name}'"))))?;
            bindings.push((factor.binding_name().to_string(), table.schema().clone()));
            Ok(())
        };
        for item in &q.from {
            collect(&item.factor)?;
            for j in &item.joins {
                collect(&j.factor)?;
            }
        }

        // ---- phase 1: Q_db --------------------------------------------
        let mut base_projections = Vec::new();
        for (binding, schema) in &bindings {
            for f in schema.fields() {
                base_projections.push(SelectItem::Expr {
                    expr: Expr::qcol(binding, &f.name),
                    alias: Some(format!("{binding}__{}", f.name)),
                });
            }
        }
        for (i, call) in calls.iter().enumerate() {
            let Expr::Function { name, args, .. } = call else {
                unreachable!("calls are functions")
            };
            let spec = self.repo.require(name)?;
            let expected = spec.arg_types().len();
            if args.len() != expected {
                return Err(Error::Coordinator(format!(
                    "{name} takes {expected} argument(s), got {}",
                    args.len()
                )));
            }
            base_projections.push(SelectItem::Expr {
                expr: args[0].clone(),
                alias: Some(format!("__arg_{i}")),
            });
            if spec.is_conditional() {
                base_projections.push(SelectItem::Expr {
                    expr: args[1].clone(),
                    alias: Some(format!("__cond_{i}")),
                });
            }
        }
        let base_query = Query {
            distinct: false,
            projections: base_projections,
            from: q.from.clone(),
            predicate: (!db_conjuncts.is_empty()).then(|| Expr::conjoin(db_conjuncts.clone())),
            group_by: vec![],
            having: None,
            order_by: vec![],
            limit: None,
        };
        let t0 = Instant::now();
        let base = session.run_query(&base_query)?;
        relational += t0.elapsed();

        // ---- phase 2: Q_learning (cross-system) ------------------------
        //
        // The coordination pattern is hand-crafted per query type, as the
        // paper describes ("different collaborative queries usually
        // correspond to different data transformations"):
        //
        // * Types 2 and 3 — `Q_learning` is *gated by* `Q_db`'s output:
        //   the coordinator ships the keyframes of the joined/filtered
        //   rows to the DL system (paying transfer for the intermediate
        //   result),
        // * Types 1 and 4 — no usable dependency: the DL system works
        //   through every keyframe its own table's local predicates admit
        //   (the "unnecessary inference" the DL2SQL-OP hints avoid).
        let qtype = crate::query::classify_query(q, &self.repo);
        let gate_by_qdb =
            matches!(qtype, crate::query::QueryType::Type2 | crate::query::QueryType::Type3);

        let renamer = Renamer {
            bindings: bindings
                .iter()
                .map(|(b, s)| (b.clone(), s.fields().iter().map(|f| f.name.clone()).collect()))
                .collect(),
        };
        let mut prediction_columns: Vec<(String, Column)> = Vec::new();
        for (i, call) in calls.iter().enumerate() {
            let Expr::Function { name, args, .. } = call else { unreachable!() };
            let spec = self.repo.require(name)?;
            let conditional = spec.is_conditional();

            // Build the work list: distinct (keyframe, condition) items,
            // either from the Q_db output or from the nUDF table gated by
            // its own predicates. A conditional nUDF's model choice
            // depends on Q_db output ("Q_learning needs the output of
            // Q_db to determine which neural models should be used"), so
            // it always gates by Q_db. Items are told apart by content
            // (`InferenceKey`), and each base row records its item.
            let gate = gate_by_qdb || conditional;
            let generation = self.repo.generation(name);
            let t_work = Instant::now();
            let arg_col = base.column_by_name(&format!("__arg_{i}"))?;
            let cond_col =
                if conditional { Some(base.column_by_name(&format!("__cond_{i}"))?) } else { None };
            let mut index: HashMap<InferenceKey, usize> = HashMap::new();
            let mut items: Vec<(Value, Option<f64>)> = Vec::new();
            if !gate {
                let arg_binding = argument_binding(&args[0], &bindings)?;
                let arg_factor = find_factor(q, &arg_binding)?;
                let local_conjuncts: Vec<Expr> = db_conjuncts
                    .iter()
                    .filter(|c| conjunct_local_to(c, &arg_binding, &bindings))
                    .cloned()
                    .collect();
                let learning_query = Query {
                    distinct: false,
                    projections: vec![SelectItem::Expr {
                        expr: args[0].clone(),
                        alias: Some("__arg".into()),
                    }],
                    from: vec![FromItem { factor: arg_factor, joins: vec![] }],
                    predicate: (!local_conjuncts.is_empty())
                        .then(|| Expr::conjoin(local_conjuncts)),
                    group_by: vec![],
                    having: None,
                    order_by: vec![],
                    limit: None,
                };
                let work = session.run_query(&learning_query)?;
                let work_col = work.column_by_name("__arg")?;
                for row in 0..work.num_rows() {
                    let value = work_col.value(row);
                    index.entry(InferenceKey::new(generation, None, &value)?).or_insert_with(
                        || {
                            items.push((value, None));
                            items.len() - 1
                        },
                    );
                }
            }
            // Each base row's item. The local work list is a superset of
            // the base's keyframes, so an ungated lookup cannot miss.
            let rows = (0..base.num_rows())
                .map(|row| {
                    let cond = cond_col.map(|c| c.value(row).as_f64()).transpose()?;
                    let value = arg_col.value(row);
                    let key = InferenceKey::new(generation, cond, &value)?;
                    match index.get(&key) {
                        Some(&item) => Ok(item),
                        None if gate => {
                            index.insert(key, items.len());
                            items.push((value, cond));
                            Ok(items.len() - 1)
                        }
                        None => Err(Error::Coordinator(
                            "base row's keyframe missing from the DL work list".into(),
                        )),
                    }
                })
                .collect::<Result<Vec<usize>>>()?;
            relational += t_work.elapsed();

            // Memoized keyframes are answered at the coordinator and never
            // cross the channel; only misses are serialized and shipped.
            // Everything here but the transfer itself is loading.
            let t_score = Instant::now();
            let mut shipped = Duration::ZERO;
            let items: Vec<Keyframe> = items.iter().map(|(value, cond)| (value, *cond)).collect();
            let mut values = Vec::with_capacity(items.len());
            let score = |misses: &[Keyframe]| {
                // Per-query model loading: the serving system receives the
                // model's script file and deserializes it ("the neural
                // model corresponding to a collaborative query is
                // integrated into the system on the fly").
                let script = neuro::serialize::save_model(&spec.model);
                let _loaded = neuro::serialize::load_model(&script)?;
                meter.add_cross_bytes(script.len() as u64);

                // Serialize the work list (data transformation +
                // cross-system I/O). Keyframe blobs already hold the tensor
                // wire format; conditions travel as raw f64 bits.
                let mut payload = vec![conditional as u8];
                payload.extend_from_slice(&(misses.len() as u32).to_le_bytes());
                for &(value, cond) in misses {
                    let Value::Blob(blob) = value else {
                        return Err(Error::Coordinator("keyframe column is not a blob".into()));
                    };
                    payload.extend_from_slice(&(blob.len() as u32).to_le_bytes());
                    payload.extend_from_slice(blob);
                    if let Some(c) = cond {
                        payload.extend_from_slice(&c.to_bits().to_le_bytes());
                    }
                }
                let payload: Arc<[u8]> = payload.into();

                let t_transfer = Instant::now();
                let (response, retries) = self.transfer(name, &payload, &meter)?;
                shipped = t_transfer.elapsed();
                transfer_retries += retries;
                meter.add_cross_bytes((payload.len() + response.len()) as u64);

                // Decode predictions, one per item in request order.
                let mut pos = 0usize;
                let count = read_u32(&response, &mut pos)? as usize;
                (0..count)
                    .map(|_| Ok(spec.output.to_value(read_u32(&response, &mut pos)? as usize)))
                    .collect()
            };
            self.inference.score(&meter, generation, &items, score, |v| values.push(v))?;

            // Attach predictions to the joined base rows.
            let col = Column::from_values(
                spec.output.data_type(),
                rows.into_iter().map(|item| values[item].clone()),
            )?;
            prediction_columns.push((format!("__nudf_{i}"), col));
            loading += t_score.elapsed().saturating_sub(shipped);
        }

        // ---- phase 3: materialize the intermediate table ----------------
        let t_mat = Instant::now();
        let mut fields: Vec<Field> = base.schema().fields().to_vec();
        let mut columns: Vec<Column> = base.columns().to_vec();
        for (name, col) in prediction_columns {
            fields.push(Field::new(name, col.data_type()));
            columns.push(col);
        }
        let intermediate = Table::new(Schema::new(fields), columns)?;
        session.catalog().create_table(INTERMEDIATE_TABLE, intermediate, true)?;
        loading += t_mat.elapsed();

        // ---- phase 4: the rewritten final query --------------------------
        let rewrite_item = |item: &SelectItem| -> Result<SelectItem> {
            Ok(match item {
                SelectItem::Wildcard => {
                    return Err(Error::Coordinator(
                        "SELECT * is not supported in collaborative queries".into(),
                    ))
                }
                SelectItem::Expr { expr, alias } => SelectItem::Expr {
                    expr: rewrite(expr, &calls, &renamer)?,
                    alias: alias.clone(),
                },
            })
        };
        let final_query = Query {
            distinct: q.distinct,
            projections: q.projections.iter().map(rewrite_item).collect::<Result<_>>()?,
            from: vec![FromItem {
                factor: TableFactor::Named { name: INTERMEDIATE_TABLE.into(), alias: None },
                joins: vec![],
            }],
            predicate: if learn_conjuncts.is_empty() {
                None
            } else {
                Some(Expr::conjoin(
                    learn_conjuncts
                        .iter()
                        .map(|c| rewrite(c, &calls, &renamer))
                        .collect::<Result<_>>()?,
                ))
            },
            group_by: q
                .group_by
                .iter()
                .map(|g| rewrite(g, &calls, &renamer))
                .collect::<Result<_>>()?,
            having: q.having.as_ref().map(|h| rewrite(h, &calls, &renamer)).transpose()?,
            order_by: q
                .order_by
                .iter()
                .map(|ob| {
                    Ok(minidb::sql::ast::OrderByItem {
                        expr: rewrite(&ob.expr, &calls, &renamer)?,
                        ascending: ob.ascending,
                    })
                })
                .collect::<Result<_>>()?,
            limit: q.limit,
        };
        let t_final = Instant::now();
        let table = session.run_query(&final_query)?;
        relational += t_final.elapsed();

        Ok(StrategyOutcome {
            cache: meter.cache(),
            trace: None,
            table,
            breakdown: CostBreakdown { loading, inference: meter.total(), relational },
            sim: meter.summary(),
            governance: crate::metrics::GovernanceActivity {
                retries: transfer_retries,
                fell_back_from: None,
            },
        })
    }
}
