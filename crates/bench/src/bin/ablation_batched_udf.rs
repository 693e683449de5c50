//! Ablation: row-at-a-time vs batched UDF inference for the loose
//! integration strategy.
//!
//! The paper notes that nUDFs are "performed in a batch manner (a batch of
//! feature maps are fed to the model together)". A stock scalar UDF is
//! invoked per row; a vectorized UDF receives the whole keyframe column at
//! once, amortizing per-call overhead and — crucially on a GPU — the
//! synchronous host↔device round trip. This harness quantifies that
//! design choice, which DESIGN.md lists as an ablation.

use std::sync::Arc;

use collab::loose::LooseUdf;
use collab::metrics::project_to_device_with;
use collab::Strategy;
use neuro::DeviceProfile;
use workload::queries::template;
use workload::{build_dataset, build_repo, DatasetConfig, RepoConfig};

use bench::Report;

const WORKLOAD_SCALE: f64 = (224 * 224 * 3) as f64 / (12 * 12) as f64;

fn main() {
    let db = Arc::new(minidb::Database::new());
    let config = DatasetConfig { video_rows: 1500, ..Default::default() };
    build_dataset(&db, &config).expect("dataset builds");
    let repo = build_repo(&RepoConfig {
        keyframe_shape: config.keyframe_shape.clone(),
        patterns: config.patterns,
        ..Default::default()
    });

    // A Type-3 query whose UDF filter runs over every video row under the
    // stock (hint-free) optimizer — the worst case for per-row calls.
    let spec = template(collab::QueryType::Type3, 0.02, "");

    let mut report = Report::new(
        "Ablation: DB-UDF row-at-a-time vs batched (projected inference ms)",
        &["Variant", "host ms", "server CPU", "server GPU", "round trips"],
    );
    for (label, strategy) in [
        ("row-at-a-time", LooseUdf::new(Arc::clone(&db), Arc::clone(&repo))),
        ("batched", LooseUdf::new_batched(Arc::clone(&db), Arc::clone(&repo))),
    ] {
        let out = strategy.execute(&spec.sql).expect("strategy runs");
        let cpu = project_to_device_with(
            &out.breakdown,
            &out.sim,
            &DeviceProfile::server_cpu(),
            WORKLOAD_SCALE,
            true,
        );
        let gpu = project_to_device_with(
            &out.breakdown,
            &out.sim,
            &DeviceProfile::server_gpu(),
            WORKLOAD_SCALE,
            true,
        );
        report.row(&[
            label.to_string(),
            format!("{:.3}", out.breakdown.inference.as_secs_f64() * 1e3),
            format!("{:.3}", cpu.inference.as_secs_f64() * 1e3),
            format!("{:.3}", gpu.inference.as_secs_f64() * 1e3),
            out.sim.round_trips.to_string(),
        ]);
        report.json(serde_json::json!({
            "experiment": "ablation_batched_udf",
            "variant": label,
            "host_ms": out.breakdown.inference.as_secs_f64() * 1e3,
            "gpu_ms": gpu.inference.as_secs_f64() * 1e3,
            "round_trips": out.sim.round_trips,
        }));
    }
    report.print();
    println!(
        "batching collapses thousands of synchronous GPU round trips into one per query — \
         the mechanism behind DB-PyTorch's GPU advantage over DB-UDF in Fig 8"
    );
}
