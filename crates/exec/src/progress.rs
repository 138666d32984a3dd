//! Progress and observability for long sweeps.
//!
//! A sweep that runs for hours with no output is indistinguishable from a
//! hung one, and a straggling worker silently stretches wall time. The
//! scheduler emits [`ProgressSnapshot`]s through a caller-supplied hook and
//! summarizes the whole execution as an [`ExecReport`] — completed/total,
//! per-worker throughput, and straggler flags — that `perfeval-harness`
//! renders alongside the scientific results.

use crate::outcome::{UnitOutcome, UnitReport};
use crate::pool::WorkerStats;

/// A point-in-time view of a running sweep, handed to progress hooks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressSnapshot {
    /// Units finished so far (measured or given up on).
    pub completed: usize,
    /// Total units in the plan.
    pub total: usize,
    /// Wall-clock seconds since the sweep started.
    pub elapsed_secs: f64,
}

impl ProgressSnapshot {
    /// Completed fraction in `[0, 1]`.
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.completed as f64 / self.total as f64
        }
    }

    /// Units per second so far.
    pub fn throughput(&self) -> f64 {
        if self.elapsed_secs > 0.0 {
            self.completed as f64 / self.elapsed_secs
        } else {
            0.0
        }
    }

    /// Estimated seconds to completion, extrapolating current throughput;
    /// `None` until at least one unit has finished.
    pub fn eta_secs(&self) -> Option<f64> {
        if self.completed == 0 {
            return None;
        }
        let rate = self.throughput();
        if rate > 0.0 {
            Some((self.total - self.completed) as f64 / rate)
        } else {
            None
        }
    }

    /// `"17/64 (26.6%), 3.1 units/s, ETA 15s"` — the progress line.
    pub fn render(&self) -> String {
        let eta = match self.eta_secs() {
            Some(s) => format!("ETA {s:.0}s"),
            None => "ETA unknown".to_owned(),
        };
        format!(
            "{}/{} ({:.1}%), {:.1} units/s, {eta}",
            self.completed,
            self.total,
            100.0 * self.fraction(),
            self.throughput()
        )
    }
}

/// Summary of one scheduler execution, for inclusion in reports.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecReport {
    /// Worker threads used.
    pub threads: usize,
    /// Units in the plan.
    pub total_units: usize,
    /// Units actually measured this execution.
    pub executed: usize,
    /// Extra measurement attempts beyond each unit's first (the retry
    /// bill of the sweep).
    pub retries: usize,
    /// Canonical indices of units that failed every allowed attempt and
    /// were given up on. Non-empty means the response table is partial.
    pub quarantined: Vec<usize>,
    /// Per-unit execution records in canonical order — the failure
    /// taxonomy. Every cell of the plan appears exactly once.
    pub units: Vec<UnitReport>,
    /// Wall-clock seconds for the whole sweep.
    pub wall_secs: f64,
    /// Per-worker counters, indexed by worker id.
    pub workers: Vec<WorkerStats>,
    /// The order policy description (self-documentation).
    pub order: String,
    /// The plan description (runs × replications, protocol, root seed).
    pub plan: String,
}

impl ExecReport {
    /// Workers whose busy time exceeds `factor` × the median busy time —
    /// the stragglers that deserve a look (NUMA placement, thermal
    /// throttling, an unlucky string of slow units).
    ///
    /// `factor` below 1.0 is treated as 1.0. Needs ≥ 2 workers to be
    /// meaningful; returns empty otherwise.
    pub fn stragglers(&self, factor: f64) -> Vec<usize> {
        if self.workers.len() < 2 {
            return Vec::new();
        }
        let mut busy: Vec<f64> = self.workers.iter().map(|w| w.busy_secs).collect();
        busy.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        let median = busy[busy.len() / 2];
        if median <= 0.0 {
            return Vec::new();
        }
        let threshold = median * factor.max(1.0);
        self.workers
            .iter()
            .enumerate()
            .filter(|(_, w)| w.busy_secs > threshold)
            .map(|(i, _)| i)
            .collect()
    }

    /// Units whose final outcome was a panic.
    pub fn panicked(&self) -> usize {
        self.units
            .iter()
            .filter(|u| matches!(u.outcome, UnitOutcome::Panicked(_)))
            .count()
    }

    /// Units whose final outcome was a deadline timeout.
    pub fn timed_out(&self) -> usize {
        self.units
            .iter()
            .filter(|u| u.outcome == UnitOutcome::TimedOut)
            .count()
    }

    /// Units that needed more than one attempt (whether or not they
    /// eventually succeeded).
    pub fn retried(&self) -> usize {
        self.units.iter().filter(|u| u.attempts > 1).count()
    }

    /// The quarantined units' records — the cells missing from the table.
    pub fn missing_cells(&self) -> Vec<&UnitReport> {
        self.units.iter().filter(|u| u.quarantined).collect()
    }

    /// True if every unit produced a response.
    pub fn is_complete(&self) -> bool {
        self.quarantined.is_empty()
    }

    /// Aggregate units per second of wall-clock time.
    pub fn throughput(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.executed as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// Multi-line human-readable summary (one string per line), the form
    /// `perfeval-harness::report` embeds.
    pub fn render_lines(&self) -> Vec<String> {
        let mut lines = vec![
            format!("plan: {}", self.plan),
            format!("order: {}", self.order),
            format!(
                "execution: {} units on {} thread(s) in {:.3}s ({:.1} units/s)",
                self.total_units,
                self.threads,
                self.wall_secs,
                self.throughput()
            ),
        ];
        // Failure taxonomy: rendered only when something went wrong, but
        // then rendered completely — a partial sweep must read as partial.
        if self.retries > 0 || !self.is_complete() || self.panicked() + self.timed_out() > 0 {
            lines.push(format!(
                "failures: {} panicked, {} timed out; {} unit(s) retried ({} extra attempt(s))",
                self.panicked(),
                self.timed_out(),
                self.retried(),
                self.retries
            ));
        }
        if !self.is_complete() {
            lines.push(format!(
                "quarantined {} unit(s) — response table is PARTIAL: {:?}",
                self.quarantined.len(),
                self.quarantined
            ));
            for u in self.missing_cells() {
                lines.push(format!("  missing {}", u.render()));
            }
        }
        for (i, w) in self.workers.iter().enumerate() {
            lines.push(format!(
                "worker {i}: {} unit(s), {:.3}s busy",
                w.units, w.busy_secs
            ));
        }
        let stragglers = self.stragglers(2.0);
        if !stragglers.is_empty() {
            lines.push(format!(
                "stragglers (>2x median busy time): worker(s) {stragglers:?}"
            ));
        }
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_math() {
        let s = ProgressSnapshot {
            completed: 25,
            total: 100,
            elapsed_secs: 5.0,
        };
        assert_eq!(s.fraction(), 0.25);
        assert_eq!(s.throughput(), 5.0);
        assert_eq!(s.eta_secs(), Some(15.0));
        let line = s.render();
        assert!(line.contains("25/100"));
        assert!(line.contains("ETA 15s"));
    }

    #[test]
    fn snapshot_before_first_completion() {
        let s = ProgressSnapshot {
            completed: 0,
            total: 10,
            elapsed_secs: 1.0,
        };
        assert_eq!(s.eta_secs(), None);
        assert!(s.render().contains("ETA unknown"));
    }

    #[test]
    fn empty_plan_is_complete() {
        let s = ProgressSnapshot {
            completed: 0,
            total: 0,
            elapsed_secs: 0.0,
        };
        assert_eq!(s.fraction(), 1.0);
    }

    fn report(busy: &[f64]) -> ExecReport {
        ExecReport {
            threads: busy.len(),
            total_units: 10,
            executed: 10,
            retries: 0,
            quarantined: Vec::new(),
            units: Vec::new(),
            wall_secs: 1.0,
            workers: busy
                .iter()
                .map(|&b| WorkerStats {
                    units: 1,
                    busy_secs: b,
                })
                .collect(),
            order: "as-designed order".into(),
            plan: "test plan".into(),
        }
    }

    #[test]
    fn straggler_flagging() {
        let r = report(&[1.0, 1.1, 0.9, 5.0]);
        assert_eq!(r.stragglers(2.0), vec![3]);
        assert!(report(&[1.0, 1.0, 1.0]).stragglers(2.0).is_empty());
        assert!(report(&[1.0]).stragglers(2.0).is_empty(), "needs >= 2");
    }

    #[test]
    fn render_lines_cover_the_story() {
        let r = report(&[1.0, 1.1, 0.9, 4.0]);
        let text = r.render_lines().join("\n");
        assert!(text.contains("test plan"));
        assert!(text.contains("as-designed"));
        assert!(text.contains("10 units on 4 thread(s)"));
        assert!(text.contains("worker 0"));
        assert!(text.contains("stragglers"));
        assert!(
            !text.contains("failures:"),
            "clean sweeps render no failure section"
        );
    }

    #[test]
    fn partial_sweep_renders_the_failure_taxonomy() {
        let mut r = report(&[1.0, 1.0]);
        r.retries = 3;
        r.quarantined = vec![4];
        r.units = vec![
            UnitReport {
                unit: 0,
                run: 0,
                replicate: 0,
                outcome: UnitOutcome::Measured,
                attempts: 3,
                quarantined: false,
            },
            UnitReport {
                unit: 4,
                run: 2,
                replicate: 0,
                outcome: UnitOutcome::Panicked("segfault du jour".into()),
                attempts: 2,
                quarantined: true,
            },
            UnitReport {
                unit: 5,
                run: 2,
                replicate: 1,
                outcome: UnitOutcome::TimedOut,
                attempts: 1,
                quarantined: false,
            },
        ];
        assert!(!r.is_complete());
        assert_eq!(r.panicked(), 1);
        assert_eq!(r.timed_out(), 1);
        assert_eq!(r.retried(), 2);
        assert_eq!(r.missing_cells().len(), 1);
        let text = r.render_lines().join("\n");
        assert!(text.contains("failures: 1 panicked, 1 timed out"));
        assert!(text.contains("2 unit(s) retried (3 extra attempt(s))"));
        assert!(text.contains("PARTIAL"));
        assert!(text.contains("segfault du jour"));
    }
}
