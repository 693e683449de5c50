//! Shared helpers for the benchmark harness binaries (one binary per
//! table/figure of the paper's evaluation; see `src/bin/`).

pub mod report;
pub mod setup;

pub use report::{fmt_duration, Report};
pub use setup::{cached_env, default_env, env, Env};

/// Executor width for the A/A overhead guards: the host's available
/// parallelism, capped at the paper's 8-core deployment. More workers than
/// CPUs make the two timed passes compete for cores with everything else on
/// the host, which reads as drift the code under test did not cause.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(8)
}
