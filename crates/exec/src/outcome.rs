//! Failure taxonomy and containment policy for sweep execution.
//!
//! The tutorial's honesty principle applied to execution itself: when a
//! unit of a sweep crashes, stalls, or keeps failing, the sweep must not
//! die, and — just as important — the report must not pretend. Every unit
//! gets a [`UnitReport`] stating what happened and how many attempts it
//! took; a sweep whose cells are not all measured yields a [`SweepResult`]
//! with `table == None` plus the exact list of missing cells and why, so
//! downstream consumers (allocation of variation, effect estimation) can
//! refuse or degrade *explicitly* instead of averaging over holes.

use perfeval_core::runner::ResponseTable;

/// What finally happened to one run-plan unit.
#[derive(Debug, Clone, PartialEq)]
pub enum UnitOutcome {
    /// Freshly measured successfully.
    Measured,
    /// The final attempt panicked; the message is recorded.
    Panicked(String),
    /// The final attempt exceeded the per-unit deadline (watchdog-cancelled
    /// or detected post-hoc).
    TimedOut,
}

impl UnitOutcome {
    /// True if the unit produced a usable response.
    pub fn is_ok(&self) -> bool {
        matches!(self, UnitOutcome::Measured)
    }

    /// Stable lowercase label, used for trace attributes and reports.
    pub fn label(&self) -> &'static str {
        match self {
            UnitOutcome::Measured => "measured",
            UnitOutcome::Panicked(_) => "panicked",
            UnitOutcome::TimedOut => "timed_out",
        }
    }
}

/// Per-unit execution record: the cell coordinates, the final outcome, and
/// the retry accounting. `ExecReport::units` holds one per plan unit, in
/// canonical order — every cell is accounted for, succeeded or not.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitReport {
    /// Canonical unit index in the plan.
    pub unit: usize,
    /// Design run (row).
    pub run: usize,
    /// Replicate within the run.
    pub replicate: usize,
    /// Final outcome.
    pub outcome: UnitOutcome,
    /// Measurement attempts made (1 for a clean first try, more when
    /// retries happened).
    pub attempts: u32,
    /// True if the unit failed on every allowed attempt and was given up
    /// on — its cell is missing from the response table.
    pub quarantined: bool,
}

impl UnitReport {
    /// `run <r> rep <k>: <outcome> after <n> attempt(s)` — one report line.
    pub fn render(&self) -> String {
        let detail = match &self.outcome {
            UnitOutcome::Panicked(msg) => format!("panicked ({msg})"),
            other => other.label().to_owned(),
        };
        format!(
            "run {} rep {}: {detail} after {} attempt(s){}",
            self.run,
            self.replicate,
            self.attempts,
            if self.quarantined {
                " — quarantined"
            } else {
                ""
            }
        )
    }
}

/// Failure-containment policy for one sweep: how many attempts each unit
/// gets, how retries back off, and the per-unit wall-clock deadline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per unit (>= 1). A unit failing all of them is
    /// quarantined.
    pub max_attempts: u32,
    /// Base backoff between attempts, milliseconds. Actual backoff is a
    /// seeded, bounded function of the unit seed and attempt number —
    /// deterministic in its choice, like everything else in the plan.
    pub backoff_ms: f64,
    /// Per-unit wall-clock deadline in milliseconds. A unit still running
    /// past it is cancelled by the watchdog (cooperatively — in-process
    /// containment cannot kill a thread) or classified as timed out when
    /// it finishes; `None` disables deadlines.
    pub deadline_ms: Option<f64>,
}

impl Default for RetryPolicy {
    /// One attempt, no backoff, no deadline — the historical semantics.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff_ms: 0.0,
            deadline_ms: None,
        }
    }
}

impl RetryPolicy {
    /// A policy granting `retries` retries (so `retries + 1` attempts)
    /// with a 1 ms base backoff.
    pub fn retries(retries: u32) -> Self {
        RetryPolicy {
            max_attempts: retries + 1,
            backoff_ms: 1.0,
            ..RetryPolicy::default()
        }
    }

    /// Sets the per-unit deadline.
    ///
    /// # Panics
    /// Panics if `ms` is not positive and finite.
    pub fn with_deadline_ms(mut self, ms: f64) -> Self {
        assert!(ms > 0.0 && ms.is_finite(), "deadline must be positive");
        self.deadline_ms = Some(ms);
        self
    }

    /// One-line description for reports.
    pub fn describe(&self) -> String {
        format!(
            "{} attempt(s) per unit{}{}",
            self.max_attempts,
            if self.backoff_ms > 0.0 {
                format!(", {} ms base backoff", self.backoff_ms)
            } else {
                String::new()
            },
            match self.deadline_ms {
                Some(d) => format!(", {d} ms deadline"),
                None => ", no deadline".to_owned(),
            }
        )
    }
}

/// The outcome of a failure-contained sweep.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Per-unit responses in canonical order; `None` where the unit was
    /// quarantined.
    pub responses: Vec<Option<f64>>,
    /// The assembled table — `Some` iff every cell was measured. A partial
    /// sweep never silently assembles.
    pub table: Option<ResponseTable>,
    /// Execution report with the per-unit failure taxonomy.
    pub report: crate::progress::ExecReport,
}

impl SweepResult {
    /// True if every cell produced a response.
    pub fn is_complete(&self) -> bool {
        self.table.is_some()
    }

    /// Unwraps a complete sweep, preserving the historical fail-fast
    /// contract for callers that cannot degrade.
    ///
    /// # Panics
    /// Panics with the missing-cell taxonomy if any unit was quarantined.
    pub fn expect_complete(self) -> (ResponseTable, crate::progress::ExecReport) {
        match self.table {
            Some(table) => (table, self.report),
            None => {
                let missing: Vec<String> = self
                    .report
                    .missing_cells()
                    .iter()
                    .map(|u| u.render())
                    .collect();
                panic!(
                    "sweep incomplete: {} of {} unit(s) failed every attempt — {}",
                    missing.len(),
                    self.report.total_units,
                    missing.join("; ")
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_classification() {
        assert!(UnitOutcome::Measured.is_ok());
        assert!(!UnitOutcome::Panicked("x".into()).is_ok());
        assert!(!UnitOutcome::TimedOut.is_ok());
        assert_eq!(UnitOutcome::TimedOut.label(), "timed_out");
    }

    #[test]
    fn unit_report_renders_the_story() {
        let r = UnitReport {
            unit: 5,
            run: 2,
            replicate: 1,
            outcome: UnitOutcome::Panicked("injected fault: exec.unit.run".into()),
            attempts: 3,
            quarantined: true,
        };
        let line = r.render();
        assert!(line.contains("run 2 rep 1"));
        assert!(line.contains("injected fault"));
        assert!(line.contains("3 attempt(s)"));
        assert!(line.contains("quarantined"));
    }

    #[test]
    fn default_policy_is_the_historical_contract() {
        let p = RetryPolicy::default();
        assert_eq!(p.max_attempts, 1);
        assert_eq!(p.deadline_ms, None);
        assert!(p.describe().contains("1 attempt(s)"));
    }

    #[test]
    fn retries_and_deadline_builders() {
        let p = RetryPolicy::retries(2).with_deadline_ms(50.0);
        assert_eq!(p.max_attempts, 3);
        assert_eq!(p.deadline_ms, Some(50.0));
        assert!(p.describe().contains("50 ms deadline"));
        assert!(p.describe().contains("backoff"));
    }

    #[test]
    #[should_panic(expected = "deadline must be positive")]
    fn zero_deadline_rejected() {
        let _ = RetryPolicy::default().with_deadline_ms(0.0);
    }
}
