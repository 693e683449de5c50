//! `govern` — resource governance and fault tolerance primitives.
//!
//! The execution layers (taskpool morsels, `minidb` operators, the
//! `core` SQL-program runner, the `collab` strategies) all share one
//! vocabulary for "this query must stop now":
//!
//! * [`CancelToken`] — cooperative cancellation flag, checked at morsel
//!   boundaries and between layer steps,
//! * [`Governor`] — a token + optional deadline bundled into a single
//!   cheap [`Governor::check`] call (one branch when governance is off),
//! * [`MemoryBudget`] — an atomic reservation tracker charged by the
//!   memory-hungry operators (hash-join builds, group-by tables, fused
//!   accumulators, state-table materialization) that rejects with the
//!   largest live reservations listed instead of OOM-aborting,
//! * [`RetryPolicy`] — bounded exponential backoff for the fragile
//!   cross-system DB↔DL transfer of the independent strategy,
//! * [`failpoints`] — a deterministic fault-injection harness compiled
//!   in only when the `failpoints` cargo feature is on (tests/benches).
//!
//! Every failure is a typed [`QueryError`]; the engine crates embed it
//! unchanged in their own error enums so a cancellation raised ten
//! frames deep in a morsel loop surfaces to the caller untouched.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A typed governance failure. This is the error every layer agrees on;
/// `minidb::Error`, `collab::Error` and `dl2sql::Error` carry it as a
/// variant rather than flattening it to a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The query's [`CancelToken`] was triggered.
    Canceled,
    /// The query ran past its configured deadline.
    TimedOut {
        /// The configured time limit.
        limit: Duration,
    },
    /// A memory reservation would push usage past the budget.
    BudgetExceeded {
        /// Bytes the failing reservation asked for.
        requested: u64,
        /// The configured budget in bytes.
        limit: u64,
        /// Bytes already reserved when the request failed.
        in_use: u64,
        /// The largest live reservations (site label, bytes), largest
        /// first, to make the rejection actionable.
        largest: Vec<(String, u64)>,
    },
    /// A morsel worker panicked; the panic was caught and the pool is
    /// still usable.
    WorkerPanic(String),
    /// A retried operation kept failing until the policy gave up.
    RetryExhausted {
        /// Attempts made (initial try included).
        attempts: u32,
        /// Message of the final failure.
        last: String,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Canceled => write!(f, "query canceled"),
            QueryError::TimedOut { limit } => {
                write!(f, "query exceeded its {limit:?} time limit")
            }
            QueryError::BudgetExceeded { requested, limit, in_use, largest } => {
                write!(
                    f,
                    "memory budget exceeded: requested {requested} B with {in_use}/{limit} B \
                     in use; largest reservations: "
                )?;
                if largest.is_empty() {
                    write!(f, "none")?;
                } else {
                    for (i, (site, bytes)) in largest.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{site}={bytes} B")?;
                    }
                }
                Ok(())
            }
            QueryError::WorkerPanic(msg) => write!(f, "worker panicked: {msg}"),
            QueryError::RetryExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts; last error: {last}")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// Cooperative cancellation flag. Cloning shares the flag; any clone can
/// cancel, every holder observes it at the next check.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    pub fn is_canceled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    /// Clears the flag so the owning handle can be reused for the next
    /// statement.
    pub fn reset(&self) {
        self.flag.store(false, Ordering::Release);
    }
}

/// A per-statement governance checkpoint: cancellation token plus an
/// optional wall-clock deadline, folded into one `check()` call.
///
/// When neither is configured `armed` is false and [`Governor::check`]
/// is a single predictable branch — this is what keeps the
/// disabled-governance path inside the ≤3% overhead budget.
#[derive(Debug, Clone, Default)]
pub struct Governor {
    token: Option<CancelToken>,
    deadline: Option<Instant>,
    limit: Option<Duration>,
    armed: bool,
}

impl Governor {
    /// A governor with no token and no deadline; `check()` always passes.
    pub fn unrestricted() -> Self {
        Self::default()
    }

    /// Builds a governor from an optional token and an optional timeout
    /// measured from now.
    pub fn new(token: Option<CancelToken>, timeout: Option<Duration>) -> Self {
        let deadline = timeout.map(|t| Instant::now() + t);
        let armed = token.is_some() || deadline.is_some();
        Governor { token, deadline, limit: timeout, armed }
    }

    /// True when a token or deadline is attached.
    pub fn is_armed(&self) -> bool {
        self.armed
    }

    /// Returns an error if the query was canceled or ran past its
    /// deadline. Call this at morsel boundaries and on a stride inside
    /// serial loops.
    #[inline]
    pub fn check(&self) -> Result<(), QueryError> {
        if !self.armed {
            return Ok(());
        }
        self.check_armed()
    }

    #[cold]
    fn check_armed(&self) -> Result<(), QueryError> {
        if let Some(token) = &self.token {
            if token.is_canceled() {
                return Err(QueryError::Canceled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(QueryError::TimedOut { limit: self.limit.unwrap_or_default() });
            }
        }
        Ok(())
    }
}

/// An atomic memory-reservation tracker. Operators reserve an estimate
/// before building large state; the reservation releases on drop, so an
/// error path that unwinds mid-operator leaves the budget clean.
#[derive(Debug)]
pub struct MemoryBudget {
    limit: u64,
    used: AtomicU64,
    peak: AtomicU64,
    rejections: AtomicU64,
    next_id: AtomicU64,
    ledger: Mutex<HashMap<u64, (String, u64)>>,
}

impl MemoryBudget {
    /// A budget capped at `limit` bytes. `limit == 0` means "no budget";
    /// prefer not constructing one at all in that case.
    pub fn new(limit: u64) -> Self {
        MemoryBudget {
            limit,
            used: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            rejections: AtomicU64::new(0),
            next_id: AtomicU64::new(0),
            ledger: Mutex::new(HashMap::new()),
        }
    }

    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Bytes currently reserved.
    pub fn in_use(&self) -> u64 {
        self.used.load(Ordering::Acquire)
    }

    /// High-water mark of reserved bytes.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Acquire)
    }

    /// Number of reservations rejected so far.
    pub fn rejections(&self) -> u64 {
        self.rejections.load(Ordering::Acquire)
    }

    /// Reserves `bytes` for `site`, or fails with
    /// [`QueryError::BudgetExceeded`] listing the largest live
    /// reservations. The returned guard releases the bytes on drop.
    pub fn reserve(self: &Arc<Self>, site: &str, bytes: u64) -> Result<Reservation, QueryError> {
        failpoints::fire("budget.reserve").map_err(|fault| {
            self.rejections.fetch_add(1, Ordering::Relaxed);
            match fault {
                failpoints::Fault::OutOfMemory => self.exceeded(bytes),
                other => self.exceeded_with_note(bytes, &format!("{other:?}")),
            }
        })?;
        let mut used = self.used.load(Ordering::Relaxed);
        loop {
            let new = used.saturating_add(bytes);
            if self.limit > 0 && new > self.limit {
                self.rejections.fetch_add(1, Ordering::Relaxed);
                return Err(self.exceeded(bytes));
            }
            match self.used.compare_exchange_weak(used, new, Ordering::AcqRel, Ordering::Relaxed) {
                Ok(_) => {
                    self.peak.fetch_max(new, Ordering::AcqRel);
                    break;
                }
                Err(actual) => used = actual,
            }
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.ledger.lock().expect("budget ledger poisoned").insert(id, (site.to_string(), bytes));
        Ok(Reservation { budget: Arc::clone(self), id, bytes })
    }

    fn exceeded(&self, requested: u64) -> QueryError {
        QueryError::BudgetExceeded {
            requested,
            limit: self.limit,
            in_use: self.in_use(),
            largest: self.largest(3),
        }
    }

    fn exceeded_with_note(&self, requested: u64, note: &str) -> QueryError {
        let mut largest = self.largest(3);
        largest.insert(0, (format!("injected:{note}"), 0));
        QueryError::BudgetExceeded { requested, limit: self.limit, in_use: self.in_use(), largest }
    }

    /// The `k` largest live reservations, largest first.
    pub fn largest(&self, k: usize) -> Vec<(String, u64)> {
        let ledger = self.ledger.lock().expect("budget ledger poisoned");
        let mut entries: Vec<(String, u64)> = ledger.values().cloned().collect();
        entries.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        entries.truncate(k);
        entries
    }

    fn release(&self, id: u64, bytes: u64) {
        self.used.fetch_sub(bytes, Ordering::AcqRel);
        self.ledger.lock().expect("budget ledger poisoned").remove(&id);
    }
}

/// RAII guard for one memory reservation; releases on drop.
#[derive(Debug)]
pub struct Reservation {
    budget: Arc<MemoryBudget>,
    id: u64,
    bytes: u64,
}

impl Reservation {
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        self.budget.release(self.id, self.bytes);
    }
}

/// Bounded exponential backoff for a fallible call.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts including the first (>= 1).
    pub max_attempts: u32,
    /// Delay before the first retry.
    pub base_delay: Duration,
    /// Backoff multiplier applied per retry.
    pub multiplier: f64,
    /// Ceiling on any single delay.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(1),
            multiplier: 2.0,
            max_delay: Duration::from_millis(100),
        }
    }
}

impl RetryPolicy {
    /// Backoff delay before retry number `retry` (0-based: the delay
    /// between the first failure and the second attempt is `delay(0)`).
    pub fn delay(&self, retry: u32) -> Duration {
        let factor = self.multiplier.max(1.0).powi(retry.min(30) as i32);
        let nanos = (self.base_delay.as_nanos() as f64 * factor) as u128;
        Duration::from_nanos(nanos.min(self.max_delay.as_nanos()) as u64)
    }
}

pub mod failpoints {
    //! Deterministic fault injection.
    //!
    //! Call sites are plain `fire("site.name")?` calls compiled into the
    //! engine crates; whether they do anything is decided *here* by the
    //! `failpoints` cargo feature. Release builds (`cargo build
    //! --release`) compile `fire` to an inline `Ok(())`; test and bench
    //! builds (the root package enables the feature from
    //! `[dev-dependencies]`) evaluate the armed [`Schedule`].
    //!
    //! Schedules are deterministic by construction: each rule fires on an
    //! explicit hit window (`skip` hits pass, then `count` hits fault),
    //! and seeded latency jitter uses a fixed LCG over the schedule seed
    //! and the per-site hit counter — the same seed always produces the
    //! same fault sequence.
    //!
    //! Site catalog (see DESIGN.md §11 for the full table):
    //! * `independent.transfer` — the DB↔DL byte-channel round trip,
    //! * `exec.morsel` — start of every operator range in `minidb`, at
    //!   every parallelism (one range per operator at `parallelism = 1`),
    //! * `budget.reserve` — every [`super::MemoryBudget`] reservation.

    use std::time::Duration;

    /// What an armed failpoint does when it triggers.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Fault {
        /// Return an injected error with this message.
        Error(String),
        /// Panic with this message (exercises panic-safety paths).
        Panic(String),
        /// Sleep this long, then succeed (exercises timeout paths).
        Latency(Duration),
        /// Simulate an allocation failure (meaningful at
        /// `budget.reserve`).
        OutOfMemory,
    }

    /// One injection rule: at `site`, let `skip` hits pass, then trigger
    /// `fault` for the next `count` hits (`u32::MAX` = forever).
    #[derive(Debug, Clone)]
    #[cfg_attr(not(feature = "failpoints"), allow(dead_code))]
    struct Rule {
        site: String,
        skip: u32,
        count: u32,
        fault: Fault,
        jitter_max: Option<Duration>,
    }

    /// A deterministic fault schedule. Built once, armed globally with
    /// [`arm`], removed with [`disarm`].
    #[derive(Debug, Clone, Default)]
    #[cfg_attr(not(feature = "failpoints"), allow(dead_code))]
    pub struct Schedule {
        seed: u64,
        rules: Vec<Rule>,
    }

    impl Schedule {
        /// An empty schedule; `seed` drives latency jitter only.
        pub fn new(seed: u64) -> Self {
            Schedule { seed, rules: Vec::new() }
        }

        /// Trigger `fault` on the first `count` hits of `site`.
        pub fn fail(mut self, site: &str, count: u32, fault: Fault) -> Self {
            self.rules.push(Rule {
                site: site.to_string(),
                skip: 0,
                count,
                fault,
                jitter_max: None,
            });
            self
        }

        /// Let `skip` hits of `site` pass, then trigger `fault` for the
        /// next `count` hits.
        pub fn fail_after(mut self, site: &str, skip: u32, count: u32, fault: Fault) -> Self {
            self.rules.push(Rule { site: site.to_string(), skip, count, fault, jitter_max: None });
            self
        }

        /// Add seeded latency jitter in `[0, max]` to the first `count`
        /// hits of `site`; the sequence is a pure function of the
        /// schedule seed.
        pub fn jitter(mut self, site: &str, count: u32, max: Duration) -> Self {
            self.rules.push(Rule {
                site: site.to_string(),
                skip: 0,
                count,
                fault: Fault::Latency(Duration::ZERO),
                jitter_max: Some(max),
            });
            self
        }
    }

    #[cfg(feature = "failpoints")]
    mod active {
        use super::{Fault, Schedule};
        use std::collections::HashMap;
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Mutex;
        use std::time::Duration;

        static ARMED: AtomicBool = AtomicBool::new(false);
        static STATE: Mutex<Option<State>> = Mutex::new(None);

        struct State {
            schedule: Schedule,
            hits: HashMap<String, u64>,
        }

        pub fn arm(schedule: Schedule) {
            *STATE.lock().expect("failpoint state poisoned") =
                Some(State { schedule, hits: HashMap::new() });
            ARMED.store(true, Ordering::Release);
        }

        pub fn disarm() {
            ARMED.store(false, Ordering::Release);
            *STATE.lock().expect("failpoint state poisoned") = None;
        }

        pub fn hits(site: &str) -> u64 {
            STATE
                .lock()
                .expect("failpoint state poisoned")
                .as_ref()
                .and_then(|s| s.hits.get(site).copied())
                .unwrap_or(0)
        }

        pub fn fire(site: &str) -> Result<(), Fault> {
            if !ARMED.load(Ordering::Acquire) {
                return Ok(());
            }
            let action = {
                let mut guard = STATE.lock().expect("failpoint state poisoned");
                let Some(state) = guard.as_mut() else { return Ok(()) };
                let hit = state.hits.entry(site.to_string()).or_insert(0);
                let this_hit = *hit;
                *hit += 1;
                let seed = state.schedule.seed;
                state.schedule.rules.iter().filter(|r| r.site == site).find_map(|r| {
                    let lo = r.skip as u64;
                    let hi = lo.saturating_add(r.count as u64);
                    if this_hit < lo || this_hit >= hi {
                        return None;
                    }
                    match r.jitter_max {
                        Some(max) => Some(Fault::Latency(jittered(seed, site, this_hit, max))),
                        None => Some(r.fault.clone()),
                    }
                })
            };
            match action {
                None => Ok(()),
                Some(Fault::Latency(d)) => {
                    if !d.is_zero() {
                        std::thread::sleep(d);
                    }
                    Ok(())
                }
                Some(Fault::Panic(msg)) => panic!("failpoint {site}: {msg}"),
                Some(fault) => Err(fault),
            }
        }

        /// Deterministic jitter: LCG over (seed, site hash, hit index).
        fn jittered(seed: u64, site: &str, hit: u64, max: Duration) -> Duration {
            let mut x = seed ^ hit.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            for b in site.bytes() {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(b as u64);
            }
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let frac = (x >> 11) as f64 / (1u64 << 53) as f64;
            Duration::from_nanos((max.as_nanos() as f64 * frac) as u64)
        }
    }

    /// Arms `schedule` globally. Tests arming different schedules must
    /// serialize themselves (the robustness suite uses a shared mutex).
    pub fn arm(schedule: Schedule) {
        #[cfg(feature = "failpoints")]
        active::arm(schedule);
        #[cfg(not(feature = "failpoints"))]
        let _ = schedule;
    }

    /// Disarms the active schedule, if any.
    pub fn disarm() {
        #[cfg(feature = "failpoints")]
        active::disarm();
    }

    /// Hits recorded at `site` since the schedule was armed. Always 0
    /// when the `failpoints` feature is off.
    pub fn hits(site: &str) -> u64 {
        #[cfg(feature = "failpoints")]
        return active::hits(site);
        #[cfg(not(feature = "failpoints"))]
        {
            let _ = site;
            0
        }
    }

    /// True when fault injection is compiled in.
    pub fn compiled_in() -> bool {
        cfg!(feature = "failpoints")
    }

    /// Evaluates the failpoint at `site`. `Latency` faults sleep and
    /// succeed; `Panic` faults panic (for panic-safety tests); `Error`
    /// and `OutOfMemory` come back as `Err` for the call site to map
    /// into its own error type. A no-op unless the `failpoints` feature
    /// is enabled *and* a schedule is armed.
    #[inline]
    pub fn fire(site: &str) -> Result<(), Fault> {
        #[cfg(feature = "failpoints")]
        return active::fire(site);
        #[cfg(not(feature = "failpoints"))]
        {
            let _ = site;
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn unarmed_governor_always_passes() {
        let g = Governor::unrestricted();
        assert!(!g.is_armed());
        for _ in 0..10 {
            assert_eq!(g.check(), Ok(()));
        }
    }

    #[test]
    fn canceled_token_trips_governor() {
        let token = CancelToken::new();
        let g = Governor::new(Some(token.clone()), None);
        assert_eq!(g.check(), Ok(()));
        token.cancel();
        assert_eq!(g.check(), Err(QueryError::Canceled));
        token.reset();
        assert_eq!(g.check(), Ok(()));
    }

    #[test]
    fn deadline_trips_governor() {
        let g = Governor::new(None, Some(Duration::from_millis(5)));
        assert_eq!(g.check(), Ok(()));
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(g.check(), Err(QueryError::TimedOut { limit: Duration::from_millis(5) }));
    }

    #[test]
    fn cancel_takes_priority_over_deadline() {
        let token = CancelToken::new();
        token.cancel();
        let g = Governor::new(Some(token), Some(Duration::ZERO));
        assert_eq!(g.check(), Err(QueryError::Canceled));
    }

    #[test]
    fn budget_reserve_and_release() {
        let budget = Arc::new(MemoryBudget::new(1000));
        let a = budget.reserve("join.build", 600).unwrap();
        assert_eq!(budget.in_use(), 600);
        let err = budget.reserve("agg.groups", 500).unwrap_err();
        match err {
            QueryError::BudgetExceeded { requested, limit, in_use, largest } => {
                assert_eq!(requested, 500);
                assert_eq!(limit, 1000);
                assert_eq!(in_use, 600);
                assert_eq!(largest, vec![("join.build".to_string(), 600)]);
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert_eq!(budget.rejections(), 1);
        drop(a);
        assert_eq!(budget.in_use(), 0);
        let _b = budget.reserve("agg.groups", 900).unwrap();
        assert_eq!(budget.peak(), 900);
    }

    #[test]
    fn zero_limit_budget_only_tracks() {
        let budget = Arc::new(MemoryBudget::new(0));
        let _r = budget.reserve("x", u64::MAX / 2).unwrap();
        assert!(budget.reserve("y", u64::MAX / 2).is_ok());
    }

    #[test]
    fn largest_lists_top_k_sorted() {
        let budget = Arc::new(MemoryBudget::new(0));
        let _a = budget.reserve("small", 10).unwrap();
        let _b = budget.reserve("large", 300).unwrap();
        let _c = budget.reserve("mid", 200).unwrap();
        let _d = budget.reserve("tiny", 1).unwrap();
        assert_eq!(
            budget.largest(3),
            vec![("large".to_string(), 300), ("mid".to_string(), 200), ("small".to_string(), 10)]
        );
    }

    #[test]
    fn retry_delay_backs_off_and_caps() {
        let p = RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_millis(2),
            multiplier: 2.0,
            max_delay: Duration::from_millis(5),
        };
        assert_eq!(p.delay(0), Duration::from_millis(2));
        assert_eq!(p.delay(1), Duration::from_millis(4));
        assert_eq!(p.delay(2), Duration::from_millis(5)); // capped
        assert_eq!(p.delay(10), Duration::from_millis(5));
    }

    #[test]
    fn error_display_is_informative() {
        let e = QueryError::BudgetExceeded {
            requested: 64,
            limit: 100,
            in_use: 80,
            largest: vec![("join.build".into(), 80)],
        };
        let msg = e.to_string();
        assert!(msg.contains("64 B"), "{msg}");
        assert!(msg.contains("join.build=80 B"), "{msg}");
        assert!(QueryError::Canceled.to_string().contains("canceled"));
    }

    #[cfg(feature = "failpoints")]
    mod failpoint_tests {
        use super::super::failpoints::{arm, disarm, fire, hits, Fault, Schedule};
        use std::sync::Mutex;

        // Failpoint state is global; serialize the tests that arm it.
        static GATE: Mutex<()> = Mutex::new(());

        #[test]
        fn fail_n_times_then_succeed() {
            let _g = GATE.lock().unwrap();
            arm(Schedule::new(7).fail("t.site", 2, Fault::Error("boom".into())));
            assert_eq!(fire("t.site"), Err(Fault::Error("boom".into())));
            assert_eq!(fire("t.site"), Err(Fault::Error("boom".into())));
            assert_eq!(fire("t.site"), Ok(()));
            assert_eq!(hits("t.site"), 3);
            disarm();
            assert_eq!(fire("t.site"), Ok(()));
        }

        #[test]
        fn fail_after_skips_early_hits() {
            let _g = GATE.lock().unwrap();
            arm(Schedule::new(7).fail_after("t.skip", 1, 1, Fault::OutOfMemory));
            assert_eq!(fire("t.skip"), Ok(()));
            assert_eq!(fire("t.skip"), Err(Fault::OutOfMemory));
            assert_eq!(fire("t.skip"), Ok(()));
            disarm();
        }

        #[test]
        fn jitter_is_deterministic_per_seed() {
            let _g = GATE.lock().unwrap();
            arm(Schedule::new(42).jitter("t.lat", 3, std::time::Duration::from_micros(50)));
            let t0 = std::time::Instant::now();
            for _ in 0..3 {
                assert_eq!(fire("t.lat"), Ok(()));
            }
            let _ = t0.elapsed();
            assert_eq!(hits("t.lat"), 3);
            disarm();
        }
    }
}
