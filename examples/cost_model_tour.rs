//! A tour of the customized cost model (paper Sec. IV).
//!
//! Shows EXPLAIN output for the conv query, and compares the default
//! (ClickHouse-like, no column statistics) estimator against the
//! customized DL2SQL model on single-layer and chained-layer queries.
//!
//! ```sh
//! cargo run --release --example cost_model_tour
//! ```

use std::sync::Arc;

use dl2sql::{compile_model, Dl2SqlCostModel, NeuralRegistry};
use minidb::{Database, DefaultCostModel};
use neuro::{zoo, Tensor};

fn main() {
    let db = Arc::new(Database::new());
    let registry = NeuralRegistry::shared();
    let model = zoo::student(vec![1, 12, 12], 4, 7);
    let compiled = compile_model(&db, &registry, &model).expect("compiles");

    // Materialize layer 1's staged feature map so the conv query plans.
    let input = Tensor::full(vec![1, 12, 12], 0.5);
    dl2sql::storage::load_state_table(&db, db.catalog(), &registry, &compiled.input_table, &input)
        .expect("stages");
    for stmt in &compiled.steps[0].statements {
        db.execute(stmt).expect("staging runs");
    }

    let create = &compiled.steps[1].statements[0];
    let conv_sql = &create[create.find("SELECT").expect("embeds SELECT")..];
    println!("-- the convolution query (paper Q1):\n{conv_sql}\n");
    println!("-- its optimized plan:\n{}", db.explain(conv_sql).expect("explains"));

    let default = DefaultCostModel::clickhouse_like();
    let custom = Dl2SqlCostModel::new(Arc::clone(&registry));
    let actual = db.execute(conv_sql).expect("runs").table().num_rows() as f64;
    let d = db.estimate_with(conv_sql, &default).expect("estimates");
    let c = db.estimate_with(conv_sql, &custom).expect("estimates");
    println!("actual output rows:       {actual}");
    println!("default model estimate:   {:.0} rows (cost {:.0})", d.rows, d.cost);
    println!("customized model (Eq. 3-8): {:.0} rows (cost {:.0})", c.rows, c.cost);
    println!(
        "\nthe customized estimate is {:.1}x closer on cardinality",
        (d.rows - actual).abs().max(1.0) / (c.rows - actual).abs().max(1.0)
    );
}
