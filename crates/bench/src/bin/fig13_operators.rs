//! Paper Fig. 13: estimated vs. actual cost per neural operator (conv,
//! pooling, batch normalization, ReLU, full connection), default model vs.
//! customized model.
//!
//! Expected shape (paper): the customized model returns a more precise
//! estimation for every operator.

use std::sync::Arc;
use std::time::Instant;

use dl2sql::{compile_model, Dl2SqlCostModel, NeuralRegistry, StepKind};
use minidb::{Database, DefaultCostModel};
use neuro::Tensor;

use bench::Report;

const REPS: usize = 10;

fn main() {
    let db = Arc::new(Database::new());
    let registry = NeuralRegistry::shared();
    let model = neuro::zoo::student(vec![1, 16, 16], 6, 7);
    let compiled = compile_model(&db, &registry, &model).expect("student compiles");

    // Materialize the whole pipeline once so every step's inputs exist.
    let input = Tensor::full(vec![1, 16, 16], 0.5);
    dl2sql::storage::load_state_table(&db, db.catalog(), &registry, &compiled.input_table, &input)
        .expect("input stages");
    for step in &compiled.steps {
        for stmt in &step.statements {
            db.execute(stmt).expect("pipeline runs");
        }
    }

    let default_model = DefaultCostModel::clickhouse_like();
    let custom_model = Dl2SqlCostModel::new(Arc::clone(&registry));

    let mut report = Report::new(
        "Fig 13: per-operator estimated vs actual time (ms)",
        &["Operator", "Actual", "Default est.", "Customized est."],
    );
    let mut default_errs = Vec::new();
    let mut custom_errs = Vec::new();
    let mut points: Vec<(String, f64, f64, f64)> = Vec::new();

    // One representative step per operator kind.
    let mut seen = std::collections::HashSet::new();
    for step in &compiled.steps {
        if !matches!(
            step.kind,
            StepKind::Conv | StepKind::Pool | StepKind::BatchNorm | StepKind::Relu | StepKind::Fc
        ) || !seen.insert(step.kind)
        {
            continue;
        }
        // Estimate and time every SELECT-bearing statement of the step;
        // ReLU's UPDATE is measured via its equivalent SELECT.
        let mut actual = 0.0f64;
        let mut default_cost = 0.0f64;
        let mut custom_cost = 0.0f64;
        for stmt in &step.statements {
            let select = if let Some(pos) = stmt.find("SELECT") {
                stmt[pos..].to_string()
            } else if stmt.starts_with("UPDATE") {
                // UPDATE t SET Value = 0 WHERE Value < 0 ≅ one scan + write.
                let table = stmt.split_whitespace().nth(1).expect("UPDATE table");
                format!("SELECT KernelID, TupleID, greatest(Value, 0) AS Value FROM {table}")
            } else {
                continue;
            };
            let t0 = Instant::now();
            for _ in 0..REPS {
                db.execute(&select).expect("step statement runs");
            }
            actual += t0.elapsed().as_secs_f64() / REPS as f64;
            default_cost += db.estimate_with(&select, &default_model).expect("default est").cost;
            custom_cost += db.estimate_with(&select, &custom_model).expect("custom est").cost;
        }
        points.push((step.label.clone(), actual, default_cost, custom_cost));
    }

    // Each model is calibrated once, on the convolution operator (the
    // workload's dominant cost), then asked to predict the others — the
    // cross-operator consistency Fig. 13 tests.
    let (_, conv_actual, conv_default, conv_custom) = points[0].clone();
    let r_default = conv_actual / conv_default.max(1e-12);
    let r_custom = conv_actual / conv_custom.max(1e-12);
    for (i, (label, actual, dc, cc)) in points.iter().enumerate() {
        let default_est = dc * r_default;
        let custom_est = cc * r_custom;
        let derr = (default_est - actual).abs() / actual;
        let cerr = (custom_est - actual).abs() / actual;
        if i > 0 {
            default_errs.push(derr);
            custom_errs.push(cerr);
        }
        report.row(&[
            label.clone(),
            format!("{:.3}", actual * 1e3),
            format!("{:.3}", default_est * 1e3),
            format!("{:.3}", custom_est * 1e3),
        ]);
        report.json(serde_json::json!({
            "experiment": "fig13",
            "operator": label,
            "actual_ms": actual * 1e3,
            "default_ms": default_est * 1e3,
            "custom_ms": custom_est * 1e3,
        }));
    }
    report.print();

    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!(
        "mean relative error: default {:.0}% vs customized {:.0}% — paper: customized is more \
         precise per operator: {}",
        avg(&default_errs) * 100.0,
        avg(&custom_errs) * 100.0,
        if avg(&custom_errs) < avg(&default_errs) { "matches" } else { "MISMATCH" }
    );
}
