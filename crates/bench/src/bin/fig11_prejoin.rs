//! Paper Fig. 11: performance of the CNN blocks under the three pre-join
//! strategies.
//!
//! * default — staging join (Q2) + conv join (Q1) + pooling group-by (Q3),
//! * fuse-mapping — the mapping join is fused into the conv statement and
//!   the pooling staging is fused into its aggregate,
//! * pre-join-kernel — kernel weights are pre-joined into the mapping
//!   table offline, removing the feature-map ⋈ kernel join at inference.
//!
//! Expected shape (paper): "avoiding unnecessary joins can effectively
//! improve the performance of CNN blocks" — each successive strategy is
//! faster.

use std::sync::Arc;

use dl2sql::prejoin::compare_strategies;
use dl2sql::NeuralRegistry;
use minidb::Database;
use workload::dataset::keyframe;

use bench::Report;

fn main() {
    let registry = NeuralRegistry::shared();
    // DL2SQL runs under its customized cost model — the fused variants'
    // three-way joins need it to get the join order right.
    let db = Arc::new(
        Database::builder()
            .cost_model(Arc::new(dl2sql::Dl2SqlCostModel::new(Arc::clone(&registry))))
            .build(),
    );
    let model = neuro::zoo::student(vec![1, 12, 12], 6, 7);
    let input = keyframe(&[1, 12, 12], 3, 1);

    let cmp = compare_strategies(&db, &registry, &model, &input, 15).expect("comparison runs");

    let mut report = Report::new(
        "Fig 11: CNN-block time under pre-join strategies (avg ms)",
        &["Strategy", "Total(ms)", "Blocks"],
    );
    for ((strategy, total), (_, blocks)) in cmp.totals.iter().zip(&cmp.per_block) {
        let block_summary: Vec<String> =
            blocks.iter().map(|(l, d)| format!("{l}={:.2}", d.as_secs_f64() * 1e3)).collect();
        report.row(&[
            format!("{strategy:?}"),
            format!("{:.3}", total.as_secs_f64() * 1e3),
            block_summary.join(" "),
        ]);
        report.json(serde_json::json!({
            "experiment": "fig11",
            "strategy": format!("{strategy:?}"),
            "total_ms": total.as_secs_f64() * 1e3,
        }));
    }
    report.print();

    let default = cmp.totals[0].1.as_secs_f64();
    let fuse = cmp.totals[1].1.as_secs_f64();
    let prejoin = cmp.totals[2].1.as_secs_f64();
    println!(
        "default {:.2} ms -> fuse-mapping {:.2} ms -> pre-join-kernel {:.2} ms",
        default * 1e3,
        fuse * 1e3,
        prejoin * 1e3,
    );
    // The paper's claim is the whole progression, not its first step.
    if default > fuse && fuse > prejoin {
        println!(
            "paper shape (default > fuse-mapping > pre-join-kernel: avoiding joins speeds up \
             CNN blocks): matches"
        );
    } else {
        println!(
            "paper shape (default > fuse-mapping > pre-join-kernel) DIVERGES: in this fully \
             in-memory, operator-at-a-time engine, temp-table materialization is a memcpy \
             (ClickHouse pays disk/merge costs for it), so eliminating the staging statements \
             gains little; the pre-joined layout additionally probes ~8x more rows per conv. \
             The mechanism the paper exploits (fewer joins/materializations) is visible in the \
             operator counts, not the wall time. See EXPERIMENTS.md."
        );
    }
    // All strategies agree on the prediction (correctness guard).
    let first = cmp.predictions[0].1;
    assert!(cmp.predictions.iter().all(|(_, p)| *p == first), "strategies disagree");
}
