//! Paper Fig. 12: estimated vs. actual cost of the convolution query,
//! varying (a) kernel size and (b) input feature-map size, under the
//! default database cost model and the customized DL2SQL model.
//!
//! Cost-model outputs are abstract units; like the paper they are
//! normalized into time with a measured ratio `r`. The paper uses a
//! sequential-scan calibration; in this engine, cost units are
//! row-touches, whose time-per-unit differs between scans and joins, so
//! each model is calibrated once on the smallest configuration of each
//! sweep and then asked to *predict* the remaining configurations — the
//! question Fig. 12 poses is exactly whether the model's cost scales the
//! way the actual running time does.
//!
//! Expected shape (paper): the customized model tracks the actual running
//! time much more closely than the default model across both sweeps.

use std::sync::Arc;
use std::time::Instant;

use dl2sql::{compile_model, Dl2SqlCostModel, NeuralRegistry};
use minidb::{Database, DefaultCostModel};
use neuro::{Model, Tensor};

use bench::Report;

const REPS: usize = 10;

/// One conv layer as a model (output stays a feature map — no head).
fn conv_only_model(fmap: usize, kernel: usize, name: &str) -> Model {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let conv = neuro::zoo::conv_layer(&mut rng, 1, 8, kernel, 1, 0);
    Model::new(name, vec![1, fmap, fmap], 0, vec![conv])
}

struct Point {
    label: String,
    actual_ms: f64,
    default_cost: f64,
    custom_cost: f64,
}

fn measure(db: &Arc<Database>, registry: &Arc<NeuralRegistry>, model: &Model) -> Point {
    let compiled = compile_model(db, registry, model).expect("conv model compiles");
    // Stage the input and materialize the feature map (the Reshape step).
    let input = Tensor::full(model.input_shape.clone(), 0.5);
    dl2sql::storage::load_state_table(db, db.catalog(), registry, &compiled.input_table, &input)
        .expect("input stages");
    for stmt in &compiled.steps[0].statements {
        db.execute(stmt).expect("staging runs");
    }
    // The conv query (Q1) without its CREATE wrapper.
    let create = &compiled.steps[1].statements[0];
    let select = &create[create.find("SELECT").expect("statement embeds a SELECT")..];
    let fm_table = create.split_whitespace().nth(3).map(str::to_string);
    let _ = fm_table;

    // Actual running time (median of REPS).
    let mut times = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t0 = Instant::now();
        db.execute(select).expect("conv query runs");
        times.push(t0.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    let actual = times[REPS / 2];

    let default_cost = db
        .estimate_with(select, &DefaultCostModel::clickhouse_like())
        .expect("default estimate")
        .cost;
    let custom_cost = db
        .estimate_with(select, &Dl2SqlCostModel::new(Arc::clone(registry)))
        .expect("custom estimate")
        .cost;

    Point { label: model.name.clone(), actual_ms: actual * 1e3, default_cost, custom_cost }
}

fn main() {
    let db = Arc::new(Database::new());
    let registry = NeuralRegistry::shared();

    let mut report = Report::new(
        "Fig 12: cost-model estimates vs actual conv time (ms, log-scale in the paper)",
        &["Config", "Actual", "Default est.", "Customized est.", "Default err", "Custom err"],
    );

    let mut default_errs = Vec::new();
    let mut custom_errs = Vec::new();
    // (a) kernel-size sweep at a fixed 16x16 feature map.
    let sweep_a: Vec<Point> = [1usize, 3, 5, 7]
        .iter()
        .map(|&k| measure(&db, &registry, &conv_only_model(16, k, &format!("fig12a_k{k}"))))
        .collect();
    // (b) feature-map sweep at a fixed 3x3 kernel.
    let sweep_b: Vec<Point> = [8usize, 12, 16, 24]
        .iter()
        .map(|&f| measure(&db, &registry, &conv_only_model(f, 3, &format!("fig12b_f{f}"))))
        .collect();

    for sweep in [sweep_a, sweep_b] {
        // Calibrate each model on the sweep's smallest configuration.
        let r_default = sweep[0].actual_ms / sweep[0].default_cost.max(1e-9);
        let r_custom = sweep[0].actual_ms / sweep[0].custom_cost.max(1e-9);
        for (i, p) in sweep.iter().enumerate() {
            let default_ms = p.default_cost * r_default;
            let custom_ms = p.custom_cost * r_custom;
            let derr = (default_ms - p.actual_ms).abs() / p.actual_ms;
            let cerr = (custom_ms - p.actual_ms).abs() / p.actual_ms;
            if i > 0 {
                default_errs.push(derr);
                custom_errs.push(cerr);
            }
            report.row(&[
                p.label.clone(),
                format!("{:.3}", p.actual_ms),
                format!("{default_ms:.3}"),
                format!("{custom_ms:.3}"),
                format!("{:.0}%", derr * 100.0),
                format!("{:.0}%", cerr * 100.0),
            ]);
            report.json(serde_json::json!({
                "experiment": "fig12",
                "config": p.label.clone(),
                "actual_ms": p.actual_ms,
                "default_ms": default_ms,
                "custom_ms": custom_ms,
            }));
        }
    }
    report.print();

    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "mean relative error: default {:.0}% vs customized {:.0}% — paper: the customized \
         model outperforms the default: {}",
        avg(&default_errs) * 100.0,
        avg(&custom_errs) * 100.0,
        if avg(&custom_errs) < avg(&default_errs) { "matches" } else { "MISMATCH" }
    );
}
