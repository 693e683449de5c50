//! Executes compiled models inside the database.
//!
//! The runner separates the paper's cost categories: *loading* (input
//! staging into the state table) and *inference* (the SQL program). Model
//! loading proper happens at [`crate::compiler::compile_model`] time and
//! is measured by callers around that call.
//!
//! Each inference runs in a session of its own: the input, every
//! intermediate `TEMP` table and the output are private to that call and
//! dropped when it returns, so any number of threads can share one
//! runner.

use std::time::{Duration, Instant};

use minidb::sql::{parse_statement, Statement};
use minidb::{Database, PlanSettings, Session};
use neuro::Tensor;

use crate::compiler::{CompiledModel, StepKind};
use crate::error::{Error, Result};
use crate::registry::NeuralRegistry;
use crate::storage;

/// Wall time of one executed step.
#[derive(Debug, Clone)]
pub struct StepTiming {
    pub label: String,
    pub kind: StepKind,
    pub duration: Duration,
}

/// The result of one SQL inference.
#[derive(Debug, Clone)]
pub struct InferenceOutcome {
    /// Predicted class id (argmax of the output state).
    pub predicted_class: usize,
    /// Class probabilities, indexed by class id.
    pub probabilities: Vec<f64>,
    /// Per-step wall times, in program order (paper Fig. 9 input).
    pub step_timings: Vec<StepTiming>,
    /// Time to stage the input tensor into the database.
    pub input_load_time: Duration,
    /// Total time executing the SQL program.
    pub inference_time: Duration,
    /// Layer-boundary span tree (`infer` → load_input / per-step /
    /// predict phases), present when the database's tracer is enabled.
    pub trace: Option<std::sync::Arc<obs::SpanTree>>,
}

/// A prepared executor for one compiled model: statements are parsed once
/// and replayed per inference, each in its own session. Owns shared
/// handles so it can live inside long-lived closures (the tight strategy
/// binds inference as a UDF).
pub struct Runner {
    db: std::sync::Arc<Database>,
    registry: std::sync::Arc<NeuralRegistry>,
    compiled: std::sync::Arc<CompiledModel>,
    parsed_steps: Vec<Vec<Statement>>,
    predict_stmt: Statement,
}

impl Runner {
    /// Prepares a runner (parses the whole program once).
    pub fn new(
        db: std::sync::Arc<Database>,
        registry: std::sync::Arc<NeuralRegistry>,
        compiled: std::sync::Arc<CompiledModel>,
    ) -> Result<Self> {
        let parsed_steps = compiled
            .steps
            .iter()
            .map(|s| {
                s.statements.iter().map(|sql| Ok(parse_statement(sql)?)).collect::<Result<Vec<_>>>()
            })
            .collect::<Result<Vec<_>>>()?;
        let predict_stmt = parse_statement(&compiled.predict_sql)?;
        Ok(Runner { db, registry, compiled, parsed_steps, predict_stmt })
    }

    /// The compiled model this runner executes.
    pub fn compiled(&self) -> &CompiledModel {
        &self.compiled
    }

    /// Runs one inference, planning its statements under the database's
    /// own settings. When the database's tracer is enabled, the run is
    /// wrapped in an `infer` root span with one phase per layer boundary,
    /// and the tree is attached to the outcome.
    pub fn infer(&self, input: &Tensor) -> Result<InferenceOutcome> {
        self.infer_in(&self.db.session(), input)
    }

    /// [`infer`](Self::infer) with the statements planned under `settings`
    /// (the calling strategy's).
    pub fn infer_with(&self, settings: &PlanSettings, input: &Tensor) -> Result<InferenceOutcome> {
        self.infer_in(&self.db.session_with(settings.clone()), input)
    }

    fn infer_in(&self, session: &Session<'_>, input: &Tensor) -> Result<InferenceOutcome> {
        let tracer = self.db.tracer();
        let root = if tracer.is_enabled() { tracer.start_root("infer") } else { obs::SpanId::NONE };
        let out = self.infer_spanned(session, input, root);
        if root.is_none() {
            return out;
        }
        tracer.finish(root);
        let tree = std::sync::Arc::new(tracer.take_tree(root));
        out.map(|mut o| {
            o.trace = Some(tree);
            o
        })
    }

    fn infer_spanned(
        &self,
        session: &Session<'_>,
        input: &Tensor,
        root: obs::SpanId,
    ) -> Result<InferenceOutcome> {
        let tracer = self.db.tracer();
        if input.shape() != self.compiled.input_shape.as_slice() {
            return Err(Error::Geometry(format!(
                "input shape {:?} does not match model input {:?}",
                input.shape(),
                self.compiled.input_shape
            )));
        }

        let load_span = tracer.child(root, obs::SpanKind::Phase, "load_input", "");
        let load_start = Instant::now();
        storage::load_state_table(
            &self.db,
            session.catalog(),
            &self.registry,
            &self.compiled.input_table,
            input,
        )?;
        let input_load_time = load_start.elapsed();
        tracer.finish(load_span);

        let infer_start = Instant::now();
        let mut step_timings = Vec::with_capacity(self.compiled.steps.len());
        for (step, stmts) in self.compiled.steps.iter().zip(&self.parsed_steps) {
            // Layer boundaries are the coarse cancellation points above
            // statement granularity: a cancel lands here even when every
            // individual statement is fast.
            self.db.check_canceled()?;
            let span =
                tracer.child(root, obs::SpanKind::Phase, &step.label, &format!("{:?}", step.kind));
            let t0 = Instant::now();
            for stmt in stmts {
                session.execute_statement(stmt)?;
            }
            tracer.finish(span);
            step_timings.push(StepTiming {
                label: step.label.clone(),
                kind: step.kind,
                duration: t0.elapsed(),
            });
        }

        // Prediction through the SQL path (ORDER BY prob DESC LIMIT 1).
        self.db.check_canceled()?;
        let predict_span = tracer.child(root, obs::SpanKind::Phase, "predict", "");
        let pred = session.execute_statement(&self.predict_stmt)?;
        tracer.finish(predict_span);
        if pred.table().num_rows() != 1 {
            return Err(Error::Geometry("prediction query returned no rows".into()));
        }
        let predicted_class = pred.table().column(0).i64_at(0) as usize;
        let inference_time = infer_start.elapsed();

        // Probabilities, ordered by class id.
        let out = session.catalog().table(&self.compiled.output_table).ok_or_else(|| {
            Error::Db(minidb::Error::NotFound(self.compiled.output_table.clone()))
        })?;
        let mut probabilities = vec![0.0f64; self.compiled.num_classes];
        let ks = out.column_by_name("KernelID")?;
        let vs = out.column_by_name("Value")?;
        for row in 0..out.num_rows() {
            let k = ks.i64_at(row) as usize;
            if k < probabilities.len() {
                probabilities[k] = vs.f64_at(row);
            }
        }

        Ok(InferenceOutcome {
            predicted_class,
            probabilities,
            step_timings,
            input_load_time,
            inference_time,
            trace: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::compile_model;
    use neuro::zoo;
    use std::sync::Arc;

    fn prepared(model: &neuro::Model) -> (Arc<Database>, Runner) {
        let db = Arc::new(Database::new());
        let registry = Arc::new(NeuralRegistry::new());
        let compiled = Arc::new(compile_model(&db, &registry, model).unwrap());
        let runner = Runner::new(Arc::clone(&db), registry, compiled).unwrap();
        (db, runner)
    }

    fn deterministic_input(shape: &[usize], seed: f32) -> Tensor {
        let n: usize = shape.iter().product();
        let data: Vec<f32> = (0..n).map(|i| ((i as f32 * 0.7 + seed) % 3.0) - 1.5).collect();
        Tensor::new(shape.to_vec(), data).unwrap()
    }

    #[test]
    fn student_sql_inference_matches_reference_engine() {
        let model = zoo::student(vec![1, 10, 10], 4, 21);
        let (_db, runner) = prepared(&model);

        for seed in [0.0, 0.3, 1.1] {
            let input = deterministic_input(&[1, 10, 10], seed);
            let sql_out = runner.infer(&input).unwrap();
            let ref_out = model.forward(&input).unwrap();

            assert_eq!(sql_out.predicted_class, ref_out.argmax(), "seed {seed}");
            for (cls, p) in sql_out.probabilities.iter().enumerate() {
                let expected = ref_out.data()[cls] as f64;
                assert!(
                    (p - expected).abs() < 1e-3,
                    "class {cls}: sql {p} vs reference {expected} (seed {seed})"
                );
            }
        }
    }

    #[test]
    fn multi_channel_input_matches_reference() {
        let model = zoo::student(vec![3, 8, 8], 5, 7);
        let (_db, runner) = prepared(&model);
        let input = deterministic_input(&[3, 8, 8], 0.5);
        let sql_out = runner.infer(&input).unwrap();
        assert_eq!(sql_out.predicted_class, model.predict(&input).unwrap());
    }

    #[test]
    fn resnet_sql_inference_matches_reference_engine() {
        let model = zoo::resnet_with_width(5, 4, vec![1, 8, 8], 3, 13);
        let (_db, runner) = prepared(&model);
        let input = deterministic_input(&[1, 8, 8], 0.2);
        let sql_out = runner.infer(&input).unwrap();
        let ref_out = model.forward(&input).unwrap();
        assert_eq!(sql_out.predicted_class, ref_out.argmax());
        for (cls, p) in sql_out.probabilities.iter().enumerate() {
            assert!((p - ref_out.data()[cls] as f64).abs() < 1e-3, "class {cls}");
        }
    }

    #[test]
    fn timings_cover_every_step() {
        let model = zoo::student(vec![1, 8, 8], 2, 3);
        let (_db, runner) = prepared(&model);
        let out = runner.infer(&deterministic_input(&[1, 8, 8], 0.0)).unwrap();
        assert_eq!(out.step_timings.len(), runner.compiled().steps.len());
        assert!(out.inference_time >= out.step_timings.iter().map(|s| s.duration).sum());
    }

    #[test]
    fn wrong_input_shape_is_rejected() {
        let model = zoo::student(vec![1, 8, 8], 2, 3);
        let (_db, runner) = prepared(&model);
        assert!(runner.infer(&Tensor::zeros(vec![1, 9, 9])).is_err());
    }

    #[test]
    fn repeated_inference_reuses_tables() {
        let model = zoo::student(vec![1, 8, 8], 3, 9);
        let (_db, runner) = prepared(&model);
        let a = deterministic_input(&[1, 8, 8], 0.0);
        let b = deterministic_input(&[1, 8, 8], 0.9);
        let outs = [&a, &b, &a].map(|t| runner.infer(t).unwrap());
        assert_eq!(outs[0].predicted_class, outs[2].predicted_class);
        assert_eq!(outs[0].predicted_class, model.predict(&a).unwrap());
        assert_eq!(outs[1].predicted_class, model.predict(&b).unwrap());
    }
}
