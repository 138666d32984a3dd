//! Client-side overload etiquette: seeded backoff and a circuit breaker.
//!
//! A server that sheds load ([`Frame::Rejected`](crate::Frame)) only
//! degrades gracefully if its clients cooperate. Two pieces, both
//! deterministic under a seed so tests replay exactly:
//!
//! * [`BackoffPolicy`] — a bounded, jittered exponential backoff with the
//!   same semantics as `perfeval-exec`'s retry policy (base doubles per
//!   retry, capped exponent, plus up to one base of seeded jitter, hard
//!   cap). The delay is a *pure function* of `(seed, key, attempt)`: the
//!   same client retrying the same attempt always waits the same time,
//!   while different clients jitter apart instead of retrying in
//!   lockstep (the thundering-herd failure mode).
//! * [`CircuitBreaker`] — per-connection: after `open_after` consecutive
//!   rejects the breaker opens and the client stops offering work for
//!   `cooldown_ms`, then a half-open probe decides whether to close it.
//!   Time is passed in by the caller (milliseconds on any monotonic
//!   clock), so the state machine itself is fully deterministic.
//!
//! The load harness (`perfeval-load`) drives both; the counters it keeps
//! (retries, rejects, give-ups, breaker opens) are first-class report
//! fields — a shed request is *accounted*, never silently dropped.

use perfeval_stats::backoff_ms;

/// Seeded, jittered, bounded exponential backoff: `perfeval-exec`'s
/// scheduler backoff ([`backoff_ms`]), seeded per caller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackoffPolicy {
    /// Total attempts per request (first try + retries). `1` disables
    /// retrying entirely.
    pub max_attempts: u32,
    /// Base backoff before the first retry, milliseconds. Doubles per
    /// further retry (exponent capped at 6), plus up to one base of
    /// seeded jitter.
    pub base_ms: f64,
    /// Hard cap on any single delay, milliseconds.
    pub cap_ms: f64,
    /// Root seed for the jitter draw.
    pub seed: u64,
}

impl Default for BackoffPolicy {
    /// One attempt, no backoff — retrying is opt-in.
    fn default() -> Self {
        BackoffPolicy {
            max_attempts: 1,
            base_ms: 0.0,
            cap_ms: 250.0,
            seed: 0,
        }
    }
}

impl BackoffPolicy {
    /// A policy allowing `n` retries after the first attempt, with a
    /// 1 ms base backoff and the default 250 ms cap.
    pub fn retries(n: u32) -> Self {
        BackoffPolicy {
            max_attempts: 1 + n,
            base_ms: 1.0,
            ..BackoffPolicy::default()
        }
    }

    /// Sets the base backoff.
    pub fn with_base_ms(mut self, ms: f64) -> Self {
        self.base_ms = ms.max(0.0);
        self
    }

    /// Sets the per-delay cap.
    pub fn with_cap_ms(mut self, ms: f64) -> Self {
        self.cap_ms = ms.max(0.0);
        self
    }

    /// Sets the jitter seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Whether attempt `attempt + 1` may be made (attempts are 1-based:
    /// `attempt` is the number already made).
    pub fn may_retry(&self, attempts_made: u32) -> bool {
        attempts_made < self.max_attempts
    }

    /// The delay before retry attempt `attempt` (2-based, like the exec
    /// scheduler: attempt 2 is the first retry) for the caller identified
    /// by `key` (e.g. a load client id or connection id). Pure function
    /// of `(seed, key, attempt)` — deterministic per caller, decorrelated
    /// across callers.
    pub fn delay_ms(&self, key: u64, attempt: u32) -> f64 {
        backoff_ms(self.base_ms, self.cap_ms, self.seed ^ key, attempt)
    }

    /// Human-readable description for reports.
    pub fn describe(&self) -> String {
        if self.max_attempts <= 1 {
            "no retries".to_owned()
        } else {
            format!(
                "{} attempt(s), {} ms base backoff (cap {} ms, seeded jitter)",
                self.max_attempts, self.base_ms, self.cap_ms
            )
        }
    }
}

/// Breaker state: the classic three-state machine.
#[derive(Debug, Clone, Copy, PartialEq)]
enum BreakerState {
    /// Requests flow; consecutive rejects are counted.
    Closed,
    /// Requests are refused locally until the cooldown passes.
    Open {
        /// Caller-clock instant (ms) at which the breaker half-opens.
        until_ms: f64,
    },
    /// One probe request is in flight; its outcome decides.
    HalfOpen,
}

/// A per-connection circuit breaker over server rejects.
///
/// The caller owns the clock: every method that depends on time takes
/// `now_ms` (milliseconds on any monotonic clock), which keeps the state
/// machine deterministic and unit-testable without sleeping.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    open_after: u32,
    cooldown_ms: f64,
    consecutive_rejects: u32,
    state: BreakerState,
    opens: u64,
}

impl CircuitBreaker {
    /// A breaker that opens after `open_after` consecutive rejects and
    /// half-opens `cooldown_ms` later. `open_after == 0` disables the
    /// breaker (it never opens).
    pub fn new(open_after: u32, cooldown_ms: f64) -> Self {
        CircuitBreaker {
            open_after,
            cooldown_ms: cooldown_ms.max(0.0),
            consecutive_rejects: 0,
            state: BreakerState::Closed,
            opens: 0,
        }
    }

    /// Whether a request may be sent now. An open breaker whose cooldown
    /// has passed transitions to half-open and admits exactly one probe.
    pub fn allows(&mut self, now_ms: f64) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open { until_ms } if now_ms >= until_ms => {
                self.state = BreakerState::HalfOpen;
                true
            }
            BreakerState::Open { .. } => false,
            // One probe at a time: further requests wait for its verdict.
            BreakerState::HalfOpen => false,
        }
    }

    /// Records a server reject for a request this breaker admitted.
    /// In half-open, the failed probe re-opens immediately.
    pub fn on_reject(&mut self, now_ms: f64) {
        self.consecutive_rejects = self.consecutive_rejects.saturating_add(1);
        let trip = match self.state {
            BreakerState::HalfOpen => true,
            BreakerState::Closed => {
                self.open_after > 0 && self.consecutive_rejects >= self.open_after
            }
            BreakerState::Open { .. } => false,
        };
        if trip {
            self.state = BreakerState::Open {
                until_ms: now_ms + self.cooldown_ms,
            };
            self.opens += 1;
        }
    }

    /// Records a successful response: closes the breaker and clears the
    /// reject streak.
    pub fn on_success(&mut self) {
        self.consecutive_rejects = 0;
        self.state = BreakerState::Closed;
    }

    /// True while the breaker refuses requests (open, cooldown pending).
    pub fn is_open(&self) -> bool {
        matches!(self.state, BreakerState::Open { .. })
    }

    /// How many times the breaker has tripped open.
    pub fn opens(&self) -> u64 {
        self.opens
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let p = BackoffPolicy::retries(3).with_base_ms(2.0).with_seed(42);
        for attempt in 2..10 {
            let a = p.delay_ms(7, attempt);
            let b = p.delay_ms(7, attempt);
            assert_eq!(a, b, "same (seed, key, attempt) → same delay");
            assert!(a <= p.cap_ms, "delay {a} exceeds cap");
            assert!(a >= 0.0);
        }
    }

    #[test]
    fn backoff_grows_exponentially_until_the_cap() {
        let p = BackoffPolicy::retries(8)
            .with_base_ms(1.0)
            .with_cap_ms(1e9)
            .with_seed(1);
        // Deterministic floor: base * 2^(attempt-2); jitter adds < one base.
        for attempt in 2..8 {
            let floor = 1.0 * (1u64 << (attempt - 2)) as f64;
            let d = p.delay_ms(0, attempt);
            assert!(d >= floor && d < floor + 1.0, "attempt {attempt}: {d}");
        }
    }

    #[test]
    fn backoff_decorrelates_distinct_keys() {
        let p = BackoffPolicy::retries(2).with_base_ms(100.0).with_seed(9);
        let delays: Vec<f64> = (0..16).map(|k| p.delay_ms(k, 2)).collect();
        let distinct = delays
            .iter()
            .filter(|&&d| delays.iter().filter(|&&e| e == d).count() == 1)
            .count();
        assert!(distinct >= 12, "clients should jitter apart: {delays:?}");
    }

    #[test]
    fn zero_base_never_waits() {
        let p = BackoffPolicy::default();
        assert_eq!(p.delay_ms(3, 2), 0.0);
        assert!(!p.may_retry(1), "default policy is single-attempt");
    }

    #[test]
    fn breaker_opens_after_k_consecutive_rejects() {
        let mut b = CircuitBreaker::new(3, 50.0);
        assert!(b.allows(0.0));
        b.on_reject(0.0);
        b.on_reject(1.0);
        assert!(b.allows(2.0), "two rejects: still closed");
        b.on_reject(2.0);
        assert!(b.is_open(), "third consecutive reject trips it");
        assert!(!b.allows(10.0), "cooldown pending");
        assert_eq!(b.opens(), 1);
    }

    #[test]
    fn success_resets_the_streak() {
        let mut b = CircuitBreaker::new(2, 50.0);
        b.on_reject(0.0);
        b.on_success();
        b.on_reject(1.0);
        assert!(!b.is_open(), "streak was reset by the success");
    }

    #[test]
    fn half_open_probe_closes_on_success_and_reopens_on_reject() {
        let mut b = CircuitBreaker::new(1, 50.0);
        b.on_reject(0.0);
        assert!(b.is_open());
        // Cooldown passes → exactly one probe admitted.
        assert!(b.allows(60.0), "half-open admits the probe");
        assert!(!b.allows(60.0), "but only one at a time");
        b.on_reject(60.0);
        assert!(b.is_open(), "failed probe re-opens");
        assert_eq!(b.opens(), 2);
        // Next cooldown: the probe succeeds and the breaker closes.
        assert!(b.allows(120.0));
        b.on_success();
        assert!(!b.is_open());
        assert!(b.allows(121.0), "closed again");
    }

    #[test]
    fn zero_open_after_disables_the_breaker() {
        let mut b = CircuitBreaker::new(0, 50.0);
        for t in 0..100 {
            b.on_reject(t as f64);
        }
        assert!(!b.is_open());
        assert!(b.allows(1000.0));
    }
}
