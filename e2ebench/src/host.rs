//! Host-speed calibration.
//!
//! On a shared host the CPU itself runs faster or slower for seconds to
//! minutes at a time: on a 2-core cloud VM the same single-threaded query
//! mix took up to 1.7× as long in one run as in another, with no run-queue
//! wait. The benchmark therefore runs a fixed calibration kernel next to
//! the work it times and scales each time by `REFERENCE_MS / kernel time`,
//! reporting times at a fixed reference host speed. The kernel is the
//! benchmark's own code and touches no program state, so a change to the
//! program cannot change it.
//!
//! The kernel allocates small vectors and inserts them into a hash map,
//! then looks each one up: the allocator and hash-table work that the
//! inference paths, joins, aggregates and memo lookups all do. It was
//! chosen over an arithmetic kernel on stack memory, a pointer chase over
//! a 1–8 MiB buffer and a blob-hashing kernel in three five-minute studies
//! on a 2-core VM that timed each kernel next to cold DB-UDF, DB-PyTorch and
//! DL2SQL-OP queries. Their 10-second medians moved by a spread of
//! 0.20–0.58 raw; scaled by this kernel, 0.08–0.24; by the arithmetic one,
//! 0.11–0.38. The slow phases hit cold inference far harder than warm
//! relational queries, which moved by 0.10–0.15 raw and which this kernel
//! over-corrects (0.19–0.25 scaled in the third study). Regressed on the
//! kernel's time in log scale over the third study's 2,202 samples, cold
//! DB-UDF and DB-PyTorch times have slopes of 1.06 and 0.95, cold
//! DL2SQL-OP 0.75, and the three warm queries 0.23–0.36. Regressed on the
//! factor round by round, the four strategies' mixes had slopes of
//! 0.89–1.11 over 70 `ingest_mix` rounds and 0.30–0.56 (0.44 for DL2SQL)
//! over 308 `warm_scan` rounds, in three processes whose factor moved
//! between 0.92 and 1.38. Each workload's round times are therefore scaled
//! by the factor raised to its `Plan::speed_elasticity`: 1 on `cold_infer`
//! and `ingest_mix`, 0.45 on `warm_scan`.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::time::{Duration, Instant};

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread, and every thread it starts from then on, to
/// the last CPU it may run on, and returns that CPU.
///
/// The client waits while the DL-server thread that DB-PyTorch uses works,
/// so one CPU does all the work either way. Unpinned, every hand-over
/// between the two threads may wake the other CPU; on a 2-core VM that
/// added 6–25% to `ingest_mix`'s DB-PyTorch mix, varying from run to run,
/// and in some stretches over 30%. Pinned, DB-PyTorch's and DB-UDF's
/// mixes were within 4% of each other in each of 24 runs.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes, the size of
    // glibc's `cpu_set_t`.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error().to_string());
    }
    let cpu = (0..size * 8)
        .rev()
        .find(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)
        .ok_or("the CPU mask is empty")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error().to_string());
    }
    Ok(cpu)
}

/// The kernel's time on the reference host speed.
pub const REFERENCE_MS: f64 = 0.2;
/// Gap between two samples while timed work runs.
const SAMPLE_EVERY: Duration = Duration::from_millis(10);

fn kernel_ms() -> f64 {
    let start = Instant::now();
    // A fixed hasher keeps the table's layout the same in every run.
    let mut map: HashMap<u64, Vec<u8>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for i in 0..2000u64 {
        map.insert(i.wrapping_mul(0x9E37_79B9), vec![i as u8; 48]);
    }
    let hits: u64 = (0..2000u64)
        .filter_map(|i| map.get(&i.wrapping_mul(0x9E37_79B9)))
        .map(|v| v[0] as u64)
        .sum();
    std::hint::black_box(hits);
    start.elapsed().as_secs_f64() * 1e3
}

/// Returns the kernel's time in milliseconds. An untimed first run puts
/// the kernel's own memory in the caches and its freed blocks at the head
/// of the allocator's free lists, so the timed runs do not depend on what
/// the program did just before; the faster of two timed runs counts.
pub fn calibrate() -> f64 {
    kernel_ms();
    kernel_ms().min(kernel_ms())
}

/// Calibration samples taken next to one stretch of timed work.
#[derive(Debug, Default)]
pub struct Speed {
    samples: Vec<f64>,
    last: Option<Instant>,
    /// Time spent calibrating, to be left out of the stretch's wall time.
    pub spent: Duration,
}

impl Speed {
    pub fn sample(&mut self) {
        let start = Instant::now();
        self.samples.push(calibrate());
        self.last = Some(Instant::now());
        self.spent += start.elapsed();
    }

    /// Samples unless the last sample is less than [`SAMPLE_EVERY`] old,
    /// so short queries are not swamped by calibration.
    pub fn sample_now_and_then(&mut self) {
        if self.last.is_none_or(|t| t.elapsed() >= SAMPLE_EVERY) {
            self.sample();
        }
    }

    /// The factor that scales a time measured in this stretch to the
    /// reference host speed.
    pub fn factor(&self) -> f64 {
        REFERENCE_MS / crate::stats::median(&self.samples)
    }
}
