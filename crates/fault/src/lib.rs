//! # perfeval-fault
//!
//! Seeded, deterministic fault injection for the `perfeval` execution
//! stack.
//!
//! The tutorial's "experimental mistakes" catalogue is full of runs that
//! went wrong *silently* — an interrupted measurement, a perturbed clock, a
//! half-written result file. Kalibera & Jones and Touati both show that one
//! undetected bad run corrupts an effect estimate; the only way to trust
//! the recovery machinery (retries, deadlines, quarantine, crash-safe
//! persistence) is to *test it*, and the only way to test it repeatably
//! is to make the faults themselves deterministic.
//!
//! A [`FaultRegistry`] holds a set of [`Failpoint`]s. Production code is
//! threaded with named **sites** (`"exec.unit.run"`, `"store.write"`,
//! `"minidb.execute"`, …); each site call carries a **key** — a stable
//! coordinate such as a run-plan unit index or a statement ordinal — and an
//! **attempt** number. Whether a failpoint fires is a pure function of
//! `(site, key, attempt, seed)`, never of arrival order, so the same fault
//! schedule replays identically across thread counts, run-order policies,
//! and repeated executions. That purity is what makes the retry-determinism
//! proptests in `tests/fault_exec.rs` possible.
//!
//! Supported [`FaultAction`]s:
//!
//! * [`FaultAction::Panic`] — the unit dies (a worker crash).
//! * [`FaultAction::DelayMs`] / [`FaultAction::JitterMs`] — injected
//!   latency, fixed or seeded-pseudorandom (interference).
//! * [`FaultAction::Hang`] — a bounded stall that cooperates with the
//!   scheduler's watchdog: it polls the per-unit cancel token and panics
//!   with [`TimeoutSignal`] when cancelled, so a hung unit becomes
//!   `UnitOutcome::TimedOut` instead of wedging the sweep.
//! * [`FaultAction::SkewClockNs`] — perturbs an attached
//!   [`AtomicClock`](perfeval_measure::AtomicClock), the "someone touched
//!   the clock mid-experiment" scenario.
//! * [`FaultAction::FailIo`] — reported to I/O call sites (`store.write`,
//!   `net.read`, …), which fail that one call with an I/O error instead of
//!   performing it.
//!
//! A registry with no armed failpoints is inert and cheap: every site
//! checks one boolean.
#![warn(missing_docs)]

use perfeval_measure::AtomicClock;
use perfeval_stats::rng::SplitMix64;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Panic payload used by a cancelled [`FaultAction::Hang`]: the scheduler's
/// unit wrapper downcasts to this to classify the unit as timed out (by the
/// watchdog) rather than panicked (by a crash).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeoutSignal;

/// What an armed failpoint does when it fires.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultAction {
    /// Panic with `injected fault: <site>` — a crashed worker/unit.
    Panic,
    /// Sleep a fixed number of milliseconds — injected latency.
    DelayMs(f64),
    /// Sleep a seeded-pseudorandom duration in `[0, max_ms)` — injected
    /// jitter/interference. The duration is a pure function of
    /// `(site, key, attempt, seed)`.
    JitterMs(f64),
    /// Stall for up to `ms`, polling the current cancel token every
    /// millisecond; if the watchdog cancels first, panic with
    /// [`TimeoutSignal`]. The bound keeps un-watched tests terminating.
    Hang {
        /// Maximum stall in milliseconds.
        ms: f64,
    },
    /// Advance the registry's attached [`AtomicClock`] by this many
    /// nanoseconds (no-op without an attached clock).
    SkewClockNs(u64),
    /// Report an I/O failure to the call site (which must consult
    /// [`FaultRegistry::io_fails`]); no side effect by itself.
    FailIo,
}

/// Which `(key, attempt)` coordinates a failpoint fires on. All variants
/// are pure functions of their inputs — no internal counters — so firing
/// is independent of execution order and thread count.
#[derive(Debug, Clone, PartialEq)]
pub enum Trigger {
    /// Fire on every hit.
    Always,
    /// Fire only for this key.
    Key(u64),
    /// Fire for any of these keys.
    Keys(Vec<u64>),
    /// Fire for this key at exactly this attempt — "frame `attempt` of
    /// connection `key`" at the sites whose attempt is an ordinal.
    KeyAttempt {
        /// Matching key.
        key: u64,
        /// Matching 1-based attempt.
        attempt: u32,
    },
    /// Fire when `key % modulus == remainder`.
    KeyModulo {
        /// Divisor (must be non-zero).
        modulus: u64,
        /// Matching remainder.
        remainder: u64,
    },
    /// Fire pseudo-randomly on roughly `permille`/1000 of keys, decided by
    /// a seeded hash of `(site, key)` — deterministic, order-independent.
    Seeded {
        /// Firing rate out of 1000.
        permille: u16,
        /// Extra seed mixed into the decision.
        seed: u64,
    },
}

impl Trigger {
    fn matches(&self, site: &str, key: u64, attempt: u32) -> bool {
        match self {
            Trigger::Always => true,
            Trigger::Key(k) => key == *k,
            Trigger::Keys(ks) => ks.contains(&key),
            Trigger::KeyAttempt { key: k, attempt: a } => key == *k && attempt == *a,
            Trigger::KeyModulo { modulus, remainder } => {
                *modulus != 0 && key % *modulus == *remainder
            }
            Trigger::Seeded { permille, seed } => {
                let mut rng = SplitMix64::split(*seed ^ fnv1a(site.as_bytes()), key);
                rng.next_below(1000) < u64::from(*permille)
            }
        }
    }
}

/// One armed fault: at `site`, for coordinates matched by `trigger`, on
/// attempts below `attempts_below` (None = all attempts), perform `action`.
///
/// The attempt window is what separates *recoverable* faults (fire on the
/// first attempt only — a retry succeeds) from *persistent* ones (fire on
/// every attempt — the unit ends up quarantined).
#[derive(Debug, Clone, PartialEq)]
pub struct Failpoint {
    /// Site name this failpoint is armed at.
    pub site: String,
    /// Coordinate filter.
    pub trigger: Trigger,
    /// Fire only on attempts `< n` when `Some(n)` (attempts are 1-based:
    /// `Some(2)` fires on the first attempt only).
    pub attempts_below: Option<u32>,
    /// The fault to perform.
    pub action: FaultAction,
}

/// FNV-1a 64-bit, the workspace's stable string hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

fn lock_recover<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // A poisoned counter map only means some thread panicked (possibly by
    // our own injected Panic action) — the counts themselves are fine.
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    /// The cancel token of the unit currently executing on this thread,
    /// installed by the scheduler before each attempt. `Hang` polls it.
    static CANCEL: std::cell::RefCell<Option<Arc<AtomicBool>>> =
        const { std::cell::RefCell::new(None) };
}

/// Installs (or clears) the calling thread's unit cancel token. The
/// scheduler sets this before each unit attempt and clears it after;
/// [`FaultAction::Hang`] and user experiments poll it via [`cancelled`].
pub fn set_cancel_token(token: Option<Arc<AtomicBool>>) {
    CANCEL.with(|slot| *slot.borrow_mut() = token);
}

/// True if the watchdog has cancelled the unit currently executing on this
/// thread. Long-running experiment code may poll this to honor deadlines
/// cooperatively (in-process fault injection cannot kill a thread).
pub fn cancelled() -> bool {
    CANCEL.with(|slot| {
        slot.borrow()
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::Relaxed))
    })
}

/// A registry of armed failpoints plus per-site hit/fired accounting.
///
/// Cloneable via `Arc`; all methods take `&self`.
#[derive(Debug, Default)]
pub struct FaultRegistry {
    arms: Vec<Failpoint>,
    seed: u64,
    clock: Option<AtomicClock>,
    hits: Mutex<BTreeMap<String, u64>>,
    fired: Mutex<BTreeMap<String, u64>>,
}

impl FaultRegistry {
    /// An empty registry with a root seed (mixed into `Seeded` triggers and
    /// `JitterMs` durations).
    pub fn new(seed: u64) -> Self {
        FaultRegistry {
            seed,
            ..FaultRegistry::default()
        }
    }

    /// A registry that injects nothing — the default for production runs.
    pub fn disabled() -> Self {
        FaultRegistry::default()
    }

    /// Attaches a clock for [`FaultAction::SkewClockNs`] to perturb.
    pub fn with_clock(mut self, clock: AtomicClock) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Arms a failpoint (builder style).
    pub fn armed(mut self, failpoint: Failpoint) -> Self {
        self.arms.push(failpoint);
        self
    }

    /// Arms a failpoint firing on all attempts at `site` for `trigger`.
    pub fn armed_always(self, site: &str, trigger: Trigger, action: FaultAction) -> Self {
        self.armed(Failpoint {
            site: site.to_owned(),
            trigger,
            attempts_below: None,
            action,
        })
    }

    /// Arms a *recoverable* failpoint: fires only on the first
    /// `attempts - 1` tries, so a scheduler granted `attempts` total
    /// attempts recovers deterministically.
    pub fn armed_transient(
        self,
        site: &str,
        trigger: Trigger,
        attempts: u32,
        action: FaultAction,
    ) -> Self {
        self.armed(Failpoint {
            site: site.to_owned(),
            trigger,
            attempts_below: Some(attempts),
            action,
        })
    }

    /// True if any failpoint is armed (cheap site-side early-out).
    pub fn is_armed(&self) -> bool {
        !self.arms.is_empty()
    }

    /// The root seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Total hits recorded at `site` (fired or not).
    pub fn hits(&self, site: &str) -> u64 {
        lock_recover(&self.hits).get(site).copied().unwrap_or(0)
    }

    /// Total faults fired at `site`.
    pub fn fired(&self, site: &str) -> u64 {
        lock_recover(&self.fired).get(site).copied().unwrap_or(0)
    }

    /// Every site with at least one fired fault, with counts — for the
    /// exhibit's honesty report.
    pub fn fired_summary(&self) -> Vec<(String, u64)> {
        lock_recover(&self.fired)
            .iter()
            .map(|(s, n)| (s.clone(), *n))
            .collect()
    }

    fn record_hit(&self, site: &str) {
        *lock_recover(&self.hits).entry(site.to_owned()).or_insert(0) += 1;
    }

    fn record_fired(&self, site: &str) {
        *lock_recover(&self.fired)
            .entry(site.to_owned())
            .or_insert(0) += 1;
    }

    /// Evaluates `site` at `(key, attempt)` and performs every matching
    /// non-I/O action. Attempts are 1-based; pass `1` for sites without a
    /// retry loop.
    ///
    /// # Panics
    /// Panics when a matching [`FaultAction::Panic`] fires, or when a
    /// matching [`FaultAction::Hang`] is cancelled by the watchdog (with a
    /// [`TimeoutSignal`] payload).
    pub fn fire(&self, site: &str, key: u64, attempt: u32) {
        if !self.is_armed() {
            return;
        }
        self.record_hit(site);
        // Collect first so the counters' lock is released before any
        // sleeping/panicking action runs.
        let matching: Vec<FaultAction> = self
            .arms
            .iter()
            .filter(|fp| {
                fp.site == site
                    && fp.attempts_below.is_none_or(|n| attempt < n)
                    && !matches!(fp.action, FaultAction::FailIo)
                    && fp.trigger.matches(site, key, attempt)
            })
            .map(|fp| fp.action.clone())
            .collect();
        for action in matching {
            self.record_fired(site);
            self.perform(&action, site, key, attempt);
        }
    }

    /// [`FaultRegistry::io_fails_at`] for sites without an ordinal
    /// (attempt 1, as with [`FaultRegistry::fire`]).
    pub fn io_fails(&self, site: &str, key: u64) -> bool {
        self.io_fails_at(site, key, 1)
    }

    /// Evaluates only [`FaultAction::FailIo`] arms at `site` for
    /// `(key, attempt)`; returns true if the I/O operation should be
    /// failed. Never panics or sleeps. The attempt reaches the trigger
    /// only: a `FailIo` arm ignores its failpoint's attempt window.
    pub fn io_fails_at(&self, site: &str, key: u64, attempt: u32) -> bool {
        if !self.is_armed() {
            return false;
        }
        self.record_hit(site);
        let fails = self.arms.iter().any(|fp| {
            fp.site == site
                && matches!(fp.action, FaultAction::FailIo)
                && fp.trigger.matches(site, key, attempt)
        });
        if fails {
            self.record_fired(site);
        }
        fails
    }

    fn perform(&self, action: &FaultAction, site: &str, key: u64, attempt: u32) {
        match action {
            FaultAction::Panic => panic!("injected fault: {site} (key {key}, attempt {attempt})"),
            FaultAction::DelayMs(ms) => sleep_ms(*ms),
            FaultAction::JitterMs(max_ms) => {
                let mut rng = SplitMix64::split(
                    self.seed ^ fnv1a(site.as_bytes()) ^ (u64::from(attempt) << 56),
                    key,
                );
                sleep_ms(rng.next_f64() * *max_ms);
            }
            FaultAction::Hang { ms } => {
                // Sleep in 1 ms slices, cooperating with the watchdog: a
                // cancelled hang panics with TimeoutSignal so the unit
                // wrapper classifies it as TimedOut, not Panicked.
                let deadline = std::time::Instant::now()
                    + std::time::Duration::from_nanos((ms.max(0.0) * 1e6) as u64);
                while std::time::Instant::now() < deadline {
                    if cancelled() {
                        std::panic::panic_any(TimeoutSignal);
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            }
            FaultAction::SkewClockNs(ns) => {
                if let Some(clock) = &self.clock {
                    clock.advance_ns(*ns);
                }
            }
            FaultAction::FailIo => {}
        }
    }
}

fn sleep_ms(ms: f64) {
    if ms > 0.0 {
        std::thread::sleep(std::time::Duration::from_nanos((ms * 1e6) as u64));
    }
}

/// Extracts a human-readable message from a panic payload (`&str` or
/// `String` payloads pass through; anything else is labelled opaquely).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if payload.is::<TimeoutSignal>() {
        return "cancelled by watchdog deadline".to_owned();
    }
    if let Some(s) = payload.downcast_ref::<&str>() {
        return (*s).to_owned();
    }
    if let Some(s) = payload.downcast_ref::<String>() {
        return s.clone();
    }
    "non-string panic payload".to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfeval_measure::Clock;

    #[test]
    fn disabled_registry_is_inert() {
        let r = FaultRegistry::disabled();
        assert!(!r.is_armed());
        r.fire("anything", 0, 1);
        assert!(!r.io_fails("anything", 0));
        assert_eq!(r.hits("anything"), 0, "inert registry records nothing");
    }

    #[test]
    fn keyed_panic_fires_only_on_its_key() {
        let r = FaultRegistry::new(1).armed_always("s", Trigger::Key(3), FaultAction::Panic);
        r.fire("s", 0, 1);
        r.fire("s", 2, 1);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| r.fire("s", 3, 1)))
            .expect_err("key 3 must panic");
        assert!(panic_message(err.as_ref()).contains("injected fault: s"));
        assert_eq!(r.hits("s"), 3);
        assert_eq!(r.fired("s"), 1);
    }

    #[test]
    fn attempt_window_makes_faults_transient() {
        // Fires on attempts < 3 (i.e. attempts 1 and 2); attempt 3 is clean.
        let r = FaultRegistry::new(0).armed_transient("s", Trigger::Always, 3, FaultAction::Panic);
        for attempt in [1, 2] {
            assert!(
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| r.fire("s", 7, attempt)))
                    .is_err(),
                "attempt {attempt} fires"
            );
        }
        r.fire("s", 7, 3); // recovers
        assert_eq!(r.fired("s"), 2);
    }

    #[test]
    fn seeded_trigger_is_deterministic_and_seed_sensitive() {
        let fires = |seed: u64| -> Vec<u64> {
            let t = Trigger::Seeded {
                permille: 250,
                seed,
            };
            (0..200).filter(|&k| t.matches("site", k, 1)).collect()
        };
        assert_eq!(fires(42), fires(42), "pure function of (site, key, seed)");
        assert_ne!(fires(42), fires(43), "different seeds, different schedule");
        let rate = fires(42).len();
        assert!((20..=80).contains(&rate), "~25% of 200 keys, got {rate}");
    }

    #[test]
    fn modulo_and_keys_triggers() {
        let m = Trigger::KeyModulo {
            modulus: 4,
            remainder: 1,
        };
        assert!(m.matches("s", 5, 1) && m.matches("s", 1, 1) && !m.matches("s", 4, 1));
        let ks = Trigger::Keys(vec![2, 9]);
        assert!(ks.matches("s", 9, 1) && !ks.matches("s", 3, 1));
        assert!(
            !Trigger::KeyModulo {
                modulus: 0,
                remainder: 0
            }
            .matches("s", 0, 1),
            "zero modulus never fires instead of dividing by zero"
        );
    }

    #[test]
    fn key_attempt_trigger_fails_io_at_one_ordinal_only() {
        let at = Trigger::KeyAttempt { key: 3, attempt: 5 };
        let r = FaultRegistry::new(0).armed_always("net.write", at, FaultAction::FailIo);
        for attempt in 1..=8 {
            assert_eq!(r.io_fails_at("net.write", 3, attempt), attempt == 5);
            assert!(!r.io_fails_at("net.write", 4, attempt));
        }
        assert!(!r.io_fails("net.write", 3), "no ordinal means attempt 1");
    }

    #[test]
    fn io_failures_are_reported_not_performed() {
        let r =
            FaultRegistry::new(0).armed_always("store.write", Trigger::Key(8), FaultAction::FailIo);
        assert!(r.io_fails("store.write", 8));
        assert!(!r.io_fails("store.write", 9));
        // fire() ignores FailIo arms entirely.
        r.fire("store.write", 8, 1);
        assert_eq!(r.fired("store.write"), 1);
    }

    #[test]
    fn clock_skew_advances_attached_clock() {
        let clock = AtomicClock::new();
        let r = FaultRegistry::new(0)
            .with_clock(clock.clone())
            .armed_always("tick", Trigger::Always, FaultAction::SkewClockNs(500));
        r.fire("tick", 0, 1);
        r.fire("tick", 1, 1);
        assert_eq!(clock.now_ns(), 1000);
    }

    #[test]
    fn hang_is_bounded_and_cancellable() {
        let r = FaultRegistry::new(0).armed_always(
            "h",
            Trigger::Always,
            FaultAction::Hang { ms: 5000.0 },
        );
        let flag = Arc::new(AtomicBool::new(false));
        set_cancel_token(Some(flag.clone()));
        flag.store(true, Ordering::Relaxed); // watchdog already fired
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| r.fire("h", 0, 1)))
            .expect_err("cancelled hang panics");
        assert!(err.is::<TimeoutSignal>(), "payload marks a timeout");
        set_cancel_token(None);
        assert!(!cancelled(), "token cleared");
    }

    #[test]
    fn uncancelled_hang_respects_its_bound() {
        let r =
            FaultRegistry::new(0).armed_always("h", Trigger::Always, FaultAction::Hang { ms: 5.0 });
        set_cancel_token(None);
        let t0 = std::time::Instant::now();
        r.fire("h", 0, 1); // returns after ~5 ms, no watchdog needed
        assert!(t0.elapsed() >= std::time::Duration::from_millis(4));
    }

    #[test]
    fn jitter_is_deterministic_in_duration_choice() {
        // Two registries with the same seed pick the same jitter stream;
        // we can't observe sleep durations directly, but the underlying
        // RNG draw is pure — exercise the path and the accounting.
        let r =
            FaultRegistry::new(9).armed_always("j", Trigger::Always, FaultAction::JitterMs(0.01));
        r.fire("j", 1, 1);
        r.fire("j", 2, 1);
        assert_eq!(r.fired("j"), 2);
    }

    #[test]
    fn panic_message_extracts_strings() {
        assert_eq!(panic_message(&"boom"), "boom");
        assert_eq!(panic_message(&"boom".to_owned()), "boom");
        assert_eq!(
            panic_message(&TimeoutSignal),
            "cancelled by watchdog deadline"
        );
        assert_eq!(panic_message(&42u64), "non-string panic payload");
    }
}
