//! Shared environment setup for the harness binaries.

use std::sync::Arc;

use collab::CollabEngine;
use minidb::Database;
use workload::{build_dataset, build_repo, DatasetConfig, RepoConfig};

/// The standard harness environment: dataset + 20-model repository +
/// engine, all deterministic.
pub struct Env {
    pub engine: CollabEngine,
    pub dataset: workload::DatasetSummary,
    pub config: DatasetConfig,
}

/// Builds the environment with `video_rows` videos of `keyframe_shape`
/// keyframes.
pub fn env(video_rows: usize, keyframe_shape: Vec<usize>) -> Env {
    let config =
        DatasetConfig { video_rows, keyframe_shape: keyframe_shape.clone(), ..Default::default() };
    let db = Arc::new(Database::new());
    let dataset = build_dataset(&db, &config).expect("dataset builds");
    let repo =
        build_repo(&RepoConfig { keyframe_shape, patterns: config.patterns, ..Default::default() });
    Env { engine: CollabEngine::new(db, repo), dataset, config }
}

/// The default environment used by most figures (2 000 videos, 12×12
/// keyframes).
pub fn default_env() -> Env {
    env(2000, vec![1, 12, 12])
}

/// As [`env()`], with the warm path enabled: nUDF inference memoization and
/// compiled-artifact reuse opted in (the plan cache is on by default).
/// The figure harnesses deliberately do NOT use this — they measure cold
/// costs; it exists for the cache benchmark and ablations.
pub fn cached_env(video_rows: usize, keyframe_shape: Vec<usize>) -> Env {
    let e = env(video_rows, keyframe_shape);
    e.engine.set_inference_cache_capacity(1 << 16);
    e.engine.set_artifact_cache_capacity(32);
    e
}
