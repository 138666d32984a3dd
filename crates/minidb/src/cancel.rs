//! Cooperative query cancellation.
//!
//! Overload protection needs queries that can be *stopped*, not just
//! started: a server shedding load must be able to bound how long a
//! query occupies its shard once a deadline passes. minidb has no
//! preemption — execution is ordinary Rust code on the shard (or pool)
//! threads — so cancellation is cooperative: a [`CancelToken`] travels
//! into the executor and is **polled at operator and morsel
//! boundaries**. That granularity is deliberate:
//!
//! * a morsel is thousands of rows, so the poll (one relaxed atomic
//!   load, plus a clock read only when a deadline is set) is invisible
//!   next to the work it gates — the committed BENCH baseline does not
//!   move;
//! * a morsel is also *small* — a cancelled query frees its workers
//!   within one morsel of work, which is the bounded-time guarantee the
//!   admission layer relies on.
//!
//! Partial work is discarded bit-safely: workers return
//! [`DbError::Cancelled`] instead of a batch, the morsel merge
//! propagates the first error, and nothing half-built escapes — a
//! cancelled query leaves the session exactly as it found it, so the
//! same connection can immediately run the next query and get answers
//! bit-identical to serial execution (pinned by `net`'s tests).

use crate::error::DbError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cheap-to-clone cancellation handle shared between the party that
/// cancels (a server enforcing a deadline, a test, a fault site) and
/// the executor that polls.
///
/// Two independent triggers, whichever fires first:
/// * the **flag** — raised explicitly by [`CancelToken::cancel`];
/// * the **deadline** — a wall-clock instant fixed at construction by
///   [`CancelToken::with_deadline_ms`].
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that only cancels when [`cancel`](Self::cancel) is called.
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that auto-cancels `ms` milliseconds from now (and can
    /// still be cancelled explicitly before that).
    pub fn with_deadline_ms(ms: f64) -> Self {
        CancelToken {
            deadline: Some(Instant::now() + Duration::from_secs_f64((ms / 1e3).max(0.0))),
            ..CancelToken::new()
        }
    }

    /// Raises the cancel flag. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// True once the flag is raised or the deadline has passed.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire) || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// The poll the executor calls at operator and morsel boundaries:
    /// `Ok(())` to keep going, [`DbError::Cancelled`] to unwind. The
    /// error message names which trigger fired.
    pub fn check(&self) -> Result<(), DbError> {
        if self.flag.load(Ordering::Acquire) {
            return Err(DbError::Cancelled("query cancelled".to_owned()));
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(DbError::Cancelled("deadline exceeded".to_owned()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_live() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(t.check().is_ok());
    }

    #[test]
    fn explicit_cancel_is_shared_across_clones() {
        let t = CancelToken::new();
        let clone = t.clone();
        t.cancel();
        assert!(clone.is_cancelled());
        assert_eq!(
            clone.check(),
            Err(DbError::Cancelled("query cancelled".to_owned()))
        );
    }

    #[test]
    fn expired_deadline_cancels_and_names_the_trigger() {
        let t = CancelToken::with_deadline_ms(0.0);
        assert!(t.is_cancelled());
        match t.check() {
            Err(DbError::Cancelled(m)) => assert!(m.contains("deadline"), "{m}"),
            other => panic!("expected deadline cancellation, got {other:?}"),
        }
    }

    #[test]
    fn future_deadline_does_not_cancel_yet() {
        let t = CancelToken::with_deadline_ms(60_000.0);
        assert!(!t.is_cancelled());
    }
}
