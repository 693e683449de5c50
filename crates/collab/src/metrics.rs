//! The loading / inference / relational cost breakdown (paper Fig. 8).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cachekit::CacheStats;
use neuro::{DeviceProfile, SimClock};

/// Measured costs of one collaborative-query execution, split the way the
/// paper reports them:
///
/// * **loading** — moving models and data into position: model
///   compilation/staging, cross-system transfer and (de)serialization,
///   input staging,
/// * **inference** — time spent inside neural-model prediction,
/// * **relational** — everything the database's relational operators do.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostBreakdown {
    pub loading: Duration,
    pub inference: Duration,
    pub relational: Duration,
}

impl CostBreakdown {
    /// Total across the three categories.
    pub fn total(&self) -> Duration {
        self.loading + self.inference + self.relational
    }
}

/// One query's own cache lookups, at the two levels a strategy consults.
/// Each query counts into its own [`InferenceMeter`], so the numbers are
/// exact however many queries share the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheActivity {
    /// nUDF result memoization.
    pub inference: cachekit::StatsSnapshot,
    /// Compiled-artifact reuse (tight strategies).
    pub artifact: cachekit::StatsSnapshot,
}

/// Governance activity observed while producing one outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GovernanceActivity {
    /// DB↔DL transfer attempts that had to be retried (independent
    /// strategy; 0 when every transfer succeeded first try).
    pub retries: u32,
    /// When the engine's fallback chain rescued this query, the strategy
    /// that originally failed. `None` for a first-try success.
    pub fell_back_from: Option<crate::engine::StrategyKind>,
}

/// Result of one strategy execution.
#[derive(Debug, Clone)]
pub struct StrategyOutcome {
    /// The query's result table.
    pub table: minidb::Table,
    /// Measured wall-time breakdown on the host.
    pub breakdown: CostBreakdown,
    /// Simulated device work accumulated during the run (inference flops,
    /// host↔device transfer bytes) for cross-hardware projection.
    pub sim: SimSummary,
    /// This query's own cache lookups at the memo and artifact levels.
    pub cache: CacheActivity,
    /// Strategy-level span tree, present when the database's tracer was
    /// enabled (populated by the engine's prepared-query path).
    pub trace: Option<Arc<obs::SpanTree>>,
    /// Retries and fallbacks behind this result (retries set by the
    /// strategy, the fallback provenance by the engine's prepared-query
    /// path).
    pub governance: GovernanceActivity,
}

/// Simulated-work summary for device projection (see
/// [`crate::metrics::project_to_device`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimSummary {
    /// Floating-point work of all inference during the query.
    pub inference_flops: u64,
    /// Bytes that would cross a host↔accelerator boundary.
    pub transfer_bytes: u64,
    /// Operator dispatches (kernel launches on a GPU).
    pub dispatches: u64,
    /// Synchronous host↔device round trips (unbatched inference calls).
    pub round_trips: u64,
    /// Bytes crossing the database↔DL-system boundary (independent
    /// strategy only: serialized keyframes, predictions, model files).
    pub cross_system_bytes: u64,
}

impl SimSummary {
    /// Snapshot from a [`SimClock`] plus the cross-system byte count.
    pub fn from_clock(clock: &SimClock, cross_system_bytes: u64) -> Self {
        SimSummary {
            inference_flops: clock.flops(),
            transfer_bytes: clock.transfer_bytes(),
            dispatches: clock.dispatches(),
            round_trips: clock.round_trips(),
            cross_system_bytes,
        }
    }
}

/// Projects a measured breakdown onto a device profile: inference time is
/// recomputed from the flop/transfer ledger; loading and relational parts
/// (CPU-side work) scale with the device's CPU throughput relative to the
/// measurement host, which is taken to be [`host_profile`]; cross-system
/// bytes (independent strategy) are priced at the device's memory/IPC
/// bandwidth and added to loading.
///
/// `workload_scale` multiplies the data-dependent quantities (flops,
/// transfer and cross-system bytes). The paper's keyframes are 224×224×3
/// while this reproduction's default is 12×12×1; passing the element
/// ratio projects the measurement to paper scale (convolution flops and
/// keyframe bytes both grow linearly in the pixel count).
pub fn project_to_device(
    measured: &CostBreakdown,
    sim: &SimSummary,
    device: &DeviceProfile,
    workload_scale: f64,
) -> CostBreakdown {
    project_to_device_with(measured, sim, device, workload_scale, true)
}

/// As [`project_to_device`], with control over whether the strategy's
/// inference can actually use the device's accelerator. DL2SQL runs
/// inference as SQL on the database host's CPU, so its "GPU server" bars
/// use the server CPU for inference — exactly the paper's deployment.
pub fn project_to_device_with(
    measured: &CostBreakdown,
    sim: &SimSummary,
    device: &DeviceProfile,
    workload_scale: f64,
    uses_accelerator: bool,
) -> CostBreakdown {
    let host = host_profile();
    let cpu = device_cpu_side(device);
    let cpu_scale = host.flops_per_sec / cpu.flops_per_sec;
    let k = workload_scale.max(0.0);
    let inference_secs = if uses_accelerator {
        sim.inference_flops as f64 * k / device.flops_per_sec
            + sim.transfer_bytes as f64 * k / device.transfer_bytes_per_sec
            + sim.dispatches as f64 * device.dispatch_latency_sec
            + sim.round_trips as f64 * device.round_trip_sec
    } else {
        sim.inference_flops as f64 * k / cpu.flops_per_sec
    };
    let cross_secs = sim.cross_system_bytes as f64 * k / cpu.transfer_bytes_per_sec;
    CostBreakdown {
        loading: scale(measured.loading, cpu_scale) + Duration::from_secs_f64(cross_secs.max(0.0)),
        inference: Duration::from_secs_f64(inference_secs.max(0.0)),
        relational: scale(measured.relational, cpu_scale),
    }
}

/// The profile assumed for the machine the measurements ran on. The
/// server-CPU profile is the calibration anchor (a laptop/server-class
/// x86 core).
pub fn host_profile() -> DeviceProfile {
    DeviceProfile::server_cpu()
}

/// The CPU that surrounds an accelerator: GPU-resident inference still
/// leaves the relational work on the server CPU.
fn device_cpu_side(device: &DeviceProfile) -> DeviceProfile {
    match device.kind {
        neuro::DeviceKind::ServerGpu => DeviceProfile::server_cpu(),
        _ => *device,
    }
}

fn scale(d: Duration, factor: f64) -> Duration {
    Duration::from_secs_f64((d.as_secs_f64() * factor).max(0.0))
}

/// One query's accumulator, which its strategy threads through the nUDF
/// closures (and the DL server): wall time spent inside inference, the
/// simulated-work clock and the query's own cache lookups.
#[derive(Debug, Default)]
pub struct InferenceMeter {
    nanos: AtomicU64,
    cross_bytes: AtomicU64,
    /// This query's own memo lookups.
    pub memo: CacheStats,
    /// This query's own compiled-artifact lookups.
    pub artifacts: CacheStats,
    /// Simulated-work ledger (flops, transfers).
    pub clock: SimClock,
}

impl InferenceMeter {
    /// A fresh shared meter.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Adds inference wall time.
    pub fn add(&self, d: Duration) {
        self.nanos.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Total recorded inference wall time.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::Relaxed))
    }

    /// Records bytes crossing the database↔DL-system boundary.
    pub fn add_cross_bytes(&self, bytes: u64) {
        self.cross_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Total cross-system bytes recorded.
    pub fn cross_bytes(&self) -> u64 {
        self.cross_bytes.load(Ordering::Relaxed)
    }

    /// The cache lookups counted so far.
    pub fn cache(&self) -> CacheActivity {
        CacheActivity { inference: self.memo.snapshot(), artifact: self.artifacts.snapshot() }
    }

    /// A [`SimSummary`] snapshot of this meter.
    pub fn summary(&self) -> SimSummary {
        SimSummary::from_clock(&self.clock, self.cross_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neuro::DeviceProfile;

    #[test]
    fn breakdown_totals() {
        let b = CostBreakdown {
            loading: Duration::from_millis(2),
            inference: Duration::from_millis(3),
            relational: Duration::from_millis(5),
        };
        assert_eq!(b.total(), Duration::from_millis(10));
    }

    #[test]
    fn meter_accumulates() {
        let m = InferenceMeter::shared();
        m.add(Duration::from_micros(5));
        m.add(Duration::from_micros(7));
        m.clock.charge_flops(100);
        assert_eq!(m.total(), Duration::from_micros(12));
        assert_eq!(m.clock.flops(), 100);
    }

    #[test]
    fn edge_projection_slows_cpu_work() {
        let measured = CostBreakdown {
            loading: Duration::from_millis(10),
            inference: Duration::from_millis(1), // replaced by flops anyway
            relational: Duration::from_millis(10),
        };
        let sim = SimSummary { inference_flops: 2_000_000_000, ..Default::default() };
        let edge = project_to_device(&measured, &sim, &DeviceProfile::edge_cpu(), 1.0);
        // Server CPU -> edge CPU is a 20x slowdown in the profiles.
        assert!(edge.relational > measured.relational * 10);
        // 2 GFLOP on a 2 GFLOP/s edge core ~ 1 s.
        assert!((edge.inference.as_secs_f64() - 1.0).abs() < 0.05);
    }

    #[test]
    fn gpu_projection_moves_cost_from_inference_to_transfer() {
        let measured = CostBreakdown::default();
        let sim = SimSummary {
            inference_flops: 1_000_000,
            transfer_bytes: 80_000_000,
            dispatches: 100,
            ..Default::default()
        };
        let gpu = project_to_device(&measured, &sim, &DeviceProfile::server_gpu(), 1.0);
        // Transfer (10 ms) dominates the trivial compute.
        assert!(gpu.inference.as_secs_f64() > 0.009);
    }
}
