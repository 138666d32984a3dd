//! Experiment reports: everything the tutorial says must accompany a
//! number, rendered as one Markdown document.
//!
//! A [`Report`] collects the hardware/software environment (slides
//! 149–156), the run protocol ("be aware and document what you do"), the
//! exact configuration (repeatability), result tables with confidence
//! intervals (slide 142), and free-form conclusions — then renders a
//! self-contained document suitable for a paper appendix or a lab
//! notebook.

use crate::properties::Properties;
use perfeval_exec::ExecReport;
use perfeval_measure::{EnvSpec, SoftwareSpec};
use perfeval_stats::ci::mean_confidence_interval;
use perfeval_stats::Summary;

/// A result table: named rows of replicated measurements.
#[derive(Debug, Clone, Default)]
pub struct ResultTable {
    /// Table caption.
    pub caption: String,
    /// Unit of the measurements ("ms", "queries/s").
    pub unit: String,
    /// (row label, replicated measurements).
    pub rows: Vec<(String, Vec<f64>)>,
}

impl ResultTable {
    /// Creates an empty table.
    pub fn new(caption: &str, unit: &str) -> Self {
        ResultTable {
            caption: caption.to_owned(),
            unit: unit.to_owned(),
            rows: Vec::new(),
        }
    }

    /// Adds a row of replicated measurements.
    pub fn row(&mut self, label: &str, measurements: Vec<f64>) {
        self.rows.push((label.to_owned(), measurements));
    }

    /// Renders the Markdown table: mean, 95% CI (when replicated), n.
    pub fn render(&self) -> String {
        let mut out = format!("**{}** (unit: {})\n\n", self.caption, self.unit);
        out.push_str("| case | mean | 95% CI | n |\n|---|---|---|---|\n");
        for (label, values) in &self.rows {
            let s = Summary::from_slice(values);
            let ci_text = match mean_confidence_interval(values, 0.95) {
                Ok(ci) => format!("[{:.3}, {:.3}]", ci.lower, ci.upper),
                Err(_) => "n/a (unreplicated!)".to_owned(),
            };
            out.push_str(&format!(
                "| {label} | {:.3} | {ci_text} | {} |\n",
                s.mean(),
                s.count()
            ));
        }
        out.push('\n');
        out
    }

    /// True if every row carries at least two replications (the audit
    /// condition of common mistake #1).
    pub fn fully_replicated(&self) -> bool {
        self.rows.iter().all(|(_, v)| v.len() >= 2)
    }
}

/// One tail-latency quantile with its per-replicate-run estimates (the
/// Kalibera–Jones idiom: the replicate, not the request, is the unit of
/// replication for the confidence interval).
#[derive(Debug, Clone)]
pub struct LoadTailRow {
    /// Quantile label ("p50", "p99.9", "max").
    pub quantile: String,
    /// One estimate per replicated run, ms.
    pub per_run_ms: Vec<f64>,
}

/// One load arm's honest summary: offered vs achieved throughput, the
/// tail table, and the failure accounting. Plain data — filled in by
/// `perfeval-load`'s `LoadReport`, rendered here so load runs get the
/// same documentation contract as sweeps.
#[derive(Debug, Clone, Default)]
pub struct LoadSection {
    /// Arm label ("open/64/heavy").
    pub arm: String,
    /// Arrival discipline description ("closed-loop, think 1.0 ms",
    /// "open-loop poisson, 500 q/s offered").
    pub arrival: String,
    /// Concurrent client sessions.
    pub clients: usize,
    /// Offered throughput from the arrival schedule, q/s (open loop only —
    /// a closed loop has no offered rate independent of the system).
    pub offered_qps: Option<f64>,
    /// Achieved throughput per replicate run, q/s.
    pub achieved_qps: Vec<f64>,
    /// Total requests completed (all runs).
    pub requests: u64,
    /// Requests that returned an error.
    pub errors: u64,
    /// Connections revived via the reconnect path.
    pub reconnects: u64,
    /// Client sessions abandoned (could not reconnect) — the arm's
    /// results cover fewer clients than designed.
    pub dropped_sessions: u64,
    /// Retry attempts made beyond each request's first attempt.
    pub retries: u64,
    /// Typed server rejections received (overload shedding, deadlines,
    /// drain mode).
    pub rejects: u64,
    /// Requests abandoned after the retry budget (or an open circuit
    /// breaker) — accounted, never silently dropped.
    pub give_ups: u64,
    /// Times a client's circuit breaker tripped open.
    pub breaker_opens: u64,
    /// High-water mark of concurrently outstanding requests.
    pub max_in_flight: u64,
    /// Tail-latency rows, coordinated-omission-safe (intended-time).
    pub tail: Vec<LoadTailRow>,
}

impl LoadSection {
    /// True when every designed session delivered results and no request
    /// errored — the condition under which the tail table speaks for the
    /// whole arm.
    pub fn is_complete(&self) -> bool {
        self.errors == 0 && self.dropped_sessions == 0
    }

    /// Renders the arm as Markdown.
    pub fn render(&self) -> String {
        let mut out = format!("### {} — {}\n\n", self.arm, self.arrival);
        let achieved = Summary::from_slice(&self.achieved_qps);
        match self.offered_qps {
            Some(offered) => out.push_str(&format!(
                "- offered {offered:.1} q/s vs achieved {:.1} q/s (mean of {} run(s))\n",
                achieved.mean(),
                achieved.count()
            )),
            None => out.push_str(&format!(
                "- closed loop: achieved {:.1} q/s (mean of {} run(s))\n",
                achieved.mean(),
                achieved.count()
            )),
        }
        out.push_str(&format!(
            "- {} client(s), {} request(s), {} error(s), {} reconnect(s), \
             {} dropped session(s), max {} in flight\n",
            self.clients,
            self.requests,
            self.errors,
            self.reconnects,
            self.dropped_sessions,
            self.max_in_flight
        ));
        out.push_str(&format!(
            "- overload etiquette: {} retry(ies), {} reject(s), {} give-up(s), \
             {} breaker open(s)\n\n",
            self.retries, self.rejects, self.give_ups, self.breaker_opens
        ));
        if !self.tail.is_empty() {
            out.push_str("| quantile | mean ms | 95% CI | n |\n|---|---|---|---|\n");
            for row in &self.tail {
                let s = Summary::from_slice(&row.per_run_ms);
                let ci_text = match mean_confidence_interval(&row.per_run_ms, 0.95) {
                    Ok(ci) => format!("[{:.3}, {:.3}]", ci.lower, ci.upper),
                    Err(_) => "n/a (unreplicated!)".to_owned(),
                };
                out.push_str(&format!(
                    "| {} | {:.3} | {ci_text} | {} |\n",
                    row.quantile,
                    s.mean(),
                    s.count()
                ));
            }
            out.push('\n');
        }
        if !self.is_complete() {
            out.push_str(&format!(
                "> ⚠ PARTIAL arm: {} error(s), {} dropped session(s)\n\n",
                self.errors, self.dropped_sessions
            ));
        }
        out
    }
}

/// A complete experiment report.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Report title.
    pub title: String,
    /// What the experiment sets out to show.
    pub goal: String,
    /// Hardware environment.
    pub environment: Option<EnvSpec>,
    /// Software under test.
    pub software: Vec<SoftwareSpec>,
    /// Run protocol description.
    pub protocol: String,
    /// Exact configuration.
    pub config: Option<Properties>,
    /// Result tables.
    pub tables: Vec<ResultTable>,
    /// How the sweep executed (threads, failures, stragglers), when it
    /// ran through the `perfeval-exec` scheduler.
    pub execution: Option<ExecReport>,
    /// Load-harness arms (offered vs achieved, tails, session accounting),
    /// when the experiment drove the server through `perfeval-load`.
    pub loads: Vec<LoadSection>,
    /// Rendered span-tree of the run, when it was traced.
    pub trace: Option<String>,
    /// Free-form analysis / conclusions.
    pub conclusions: String,
}

impl Report {
    /// Starts a report.
    pub fn new(title: &str, goal: &str) -> Self {
        Report {
            title: title.to_owned(),
            goal: goal.to_owned(),
            ..Report::default()
        }
    }

    /// Attaches the environment.
    pub fn environment(mut self, env: EnvSpec) -> Self {
        self.environment = Some(env);
        self
    }

    /// Adds a software spec.
    pub fn software(mut self, sw: SoftwareSpec) -> Self {
        self.software.push(sw);
        self
    }

    /// Sets the protocol description.
    pub fn protocol(mut self, text: &str) -> Self {
        self.protocol = text.to_owned();
        self
    }

    /// Attaches the configuration.
    pub fn config(mut self, props: Properties) -> Self {
        self.config = Some(props);
        self
    }

    /// Adds a result table.
    pub fn table(mut self, table: ResultTable) -> Self {
        self.tables.push(table);
        self
    }

    /// Attaches the scheduler's execution summary. Parallel execution is
    /// part of the protocol — the thread count belongs in the record just
    /// like hot/cold and replication counts.
    pub fn execution(mut self, report: ExecReport) -> Self {
        self.execution = Some(report);
        self
    }

    /// Adds a load-harness arm. Tail tables with CIs and the offered vs
    /// achieved comparison are part of the record, with the same honesty
    /// rules as execution: partial arms flag the whole report.
    pub fn load(mut self, section: LoadSection) -> Self {
        self.loads.push(section);
        self
    }

    /// Attaches a recorded span timeline. The report embeds the
    /// plain-text tree rendering, so the where-did-the-time-go record
    /// travels with the numbers it explains.
    pub fn trace(mut self, trace: &perfeval_trace::Trace) -> Self {
        self.trace = Some(perfeval_trace::render_tree(trace));
        self
    }

    /// Sets the conclusions.
    pub fn conclusions(mut self, text: &str) -> Self {
        self.conclusions = text.to_owned();
        self
    }

    /// The documentation gaps, by section name — empty means the report
    /// satisfies the tutorial's documentation contract.
    pub fn missing_sections(&self) -> Vec<&'static str> {
        let mut missing = Vec::new();
        if self.goal.is_empty() {
            missing.push("goal");
        }
        if self.environment.is_none() {
            missing.push("environment");
        }
        if self.software.is_empty() {
            missing.push("software");
        }
        if self.protocol.is_empty() {
            missing.push("protocol");
        }
        if self.config.is_none() {
            missing.push("config");
        }
        if self.tables.is_empty() {
            missing.push("results");
        }
        if !self.tables.iter().all(ResultTable::fully_replicated) {
            missing.push("replication");
        }
        // A sweep with quarantined units produced a partial response
        // table; a report built on it must say so, loudly.
        if self.execution.as_ref().is_some_and(|e| !e.is_complete()) {
            missing.push("complete-execution");
        }
        // Same rule for load arms: dropped sessions or errored requests
        // mean the tail table does not cover the designed load.
        if !self.loads.iter().all(LoadSection::is_complete) {
            missing.push("complete-load");
        }
        missing
    }

    /// Renders the Markdown document.
    pub fn render(&self) -> String {
        let mut out = format!("# {}\n\n", self.title);
        out.push_str(&format!("**Goal.** {}\n\n", self.goal));
        if let Some(env) = &self.environment {
            out.push_str("## Environment\n\n");
            out.push_str(&format!("{}\n\n", env.render()));
        }
        if !self.software.is_empty() {
            out.push_str("## Software\n\n");
            for sw in &self.software {
                out.push_str(&format!("- {}\n", sw.render()));
            }
            out.push('\n');
        }
        if !self.protocol.is_empty() {
            out.push_str("## Protocol\n\n");
            out.push_str(&format!("{}\n\n", self.protocol));
        }
        if let Some(config) = &self.config {
            out.push_str("## Configuration\n\n```\n");
            out.push_str(&config.store());
            out.push_str("```\n\n");
        }
        if !self.tables.is_empty() {
            out.push_str("## Results\n\n");
            for t in &self.tables {
                out.push_str(&t.render());
            }
        }
        if let Some(exec) = &self.execution {
            out.push_str("## Execution\n\n");
            for line in exec.render_lines() {
                out.push_str(&format!("- {line}\n"));
            }
            out.push('\n');
        }
        if !self.loads.is_empty() {
            out.push_str("## Load\n\n");
            for section in &self.loads {
                out.push_str(&section.render());
            }
        }
        if let Some(tree) = &self.trace {
            out.push_str("## Trace\n\n```\n");
            out.push_str(tree);
            out.push_str("```\n\n");
        }
        if !self.conclusions.is_empty() {
            out.push_str("## Conclusions\n\n");
            out.push_str(&format!("{}\n", self.conclusions));
        }
        let missing = self.missing_sections();
        if !missing.is_empty() {
            out.push_str(&format!(
                "\n> ⚠ incomplete report — missing: {}\n",
                missing.join(", ")
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_report() -> Report {
        let mut table = ResultTable::new("Q1 server time", "ms");
        table.row("hot", vec![3.5, 3.4, 3.6]);
        table.row("cold", vec![13.2, 13.5, 12.9]);
        let mut props = Properties::new();
        props.set("seed", "20080408");
        props.set("sf", "0.01");
        Report::new("Hot vs cold Q1", "quantify the buffer-pool effect")
            .environment(EnvSpec::tutorial_laptop())
            .software(SoftwareSpec::new(
                "minidb",
                "0.1.0",
                "this repository",
                "release, OPT engine",
            ))
            .protocol("hot: measured last of three consecutive runs; cold: flush before each run")
            .config(props)
            .table(table)
            .conclusions("cold runs are dominated by disk waits.")
    }

    #[test]
    fn complete_report_has_no_gaps() {
        let r = full_report();
        assert!(r.missing_sections().is_empty());
        let text = r.render();
        assert!(text.starts_with("# Hot vs cold Q1"));
        assert!(text.contains("## Environment"));
        assert!(text.contains("Pentium"));
        assert!(text.contains("## Configuration"));
        assert!(text.contains("seed=20080408"));
        assert!(text.contains("| hot |"));
        assert!(text.contains("95% CI"));
        assert!(!text.contains("incomplete report"));
    }

    #[test]
    fn missing_sections_are_reported() {
        let r = Report::new("t", "");
        let missing = r.missing_sections();
        for section in [
            "goal",
            "environment",
            "software",
            "protocol",
            "config",
            "results",
        ] {
            assert!(missing.contains(&section), "{section}");
        }
        assert!(r.render().contains("incomplete report"));
    }

    #[test]
    fn unreplicated_rows_flag_the_report() {
        let mut table = ResultTable::new("t", "ms");
        table.row("single", vec![1.0]);
        assert!(!table.fully_replicated());
        let text = table.render();
        assert!(text.contains("unreplicated"));
        let r = full_report().table(table);
        assert!(r.missing_sections().contains(&"replication"));
    }

    #[test]
    fn execution_section_renders_scheduler_summary() {
        let exec = ExecReport {
            threads: 4,
            total_units: 24,
            executed: 24,
            retries: 0,
            quarantined: Vec::new(),
            units: Vec::new(),
            wall_secs: 2.0,
            workers: Vec::new(),
            order: "shuffled order (seed 7)".into(),
            plan: "8 runs x 3 replications = 24 units".into(),
        };
        let text = full_report().execution(exec).render();
        assert!(text.contains("## Execution"));
        assert!(text.contains("24 units on 4 thread(s)"));
        assert!(text.contains("shuffled order (seed 7)"));
        assert!(
            !text.contains("complete-execution"),
            "clean sweeps are not flagged"
        );
    }

    #[test]
    fn partial_sweep_flags_the_report_and_renders_its_taxonomy() {
        use perfeval_exec::{UnitOutcome, UnitReport};
        let exec = ExecReport {
            threads: 2,
            total_units: 6,
            executed: 4,
            retries: 3,
            quarantined: vec![1, 4],
            units: vec![
                UnitReport {
                    unit: 1,
                    run: 0,
                    replicate: 1,
                    outcome: UnitOutcome::Panicked("injected fault: exec.unit.run".into()),
                    attempts: 2,
                    quarantined: true,
                },
                UnitReport {
                    unit: 4,
                    run: 2,
                    replicate: 0,
                    outcome: UnitOutcome::TimedOut,
                    attempts: 2,
                    quarantined: true,
                },
            ],
            wall_secs: 1.0,
            workers: Vec::new(),
            order: "as-designed order".into(),
            plan: "3 runs x 2 replications".into(),
        };
        let r = full_report().execution(exec);
        assert!(r.missing_sections().contains(&"complete-execution"));
        let text = r.render();
        assert!(text.contains("failures: 1 panicked, 1 timed out"));
        assert!(text.contains("PARTIAL"));
        assert!(text.contains("injected fault: exec.unit.run"));
        assert!(text.contains("incomplete report"));
        assert!(text.contains("complete-execution"));
    }

    fn load_section() -> LoadSection {
        LoadSection {
            arm: "open/64/heavy".into(),
            arrival: "open-loop poisson, 500.0 q/s offered".into(),
            clients: 64,
            offered_qps: Some(500.0),
            achieved_qps: vec![478.0, 481.5, 476.2],
            requests: 4300,
            errors: 0,
            reconnects: 1,
            dropped_sessions: 0,
            retries: 1,
            rejects: 0,
            give_ups: 0,
            breaker_opens: 0,
            max_in_flight: 64,
            tail: vec![
                LoadTailRow {
                    quantile: "p50".into(),
                    per_run_ms: vec![1.2, 1.3, 1.25],
                },
                LoadTailRow {
                    quantile: "p99.9".into(),
                    per_run_ms: vec![18.0, 17.4, 19.1],
                },
            ],
        }
    }

    #[test]
    fn load_section_renders_offered_vs_achieved_and_tails() {
        let r = full_report().load(load_section());
        assert!(
            r.missing_sections().is_empty(),
            "{:?}",
            r.missing_sections()
        );
        let text = r.render();
        assert!(text.contains("## Load"));
        assert!(text.contains("offered 500.0 q/s vs achieved 478.6 q/s"));
        assert!(text.contains("| p99.9 |"));
        assert!(text.contains("95% CI"));
        assert!(text.contains("1 reconnect(s)"));
        assert!(!text.contains("PARTIAL"));
    }

    #[test]
    fn closed_loop_arm_has_no_offered_rate() {
        let section = LoadSection {
            arm: "closed/16/light".into(),
            arrival: "closed-loop, think 1.0 ms".into(),
            offered_qps: None,
            ..load_section()
        };
        let text = full_report().load(section).render();
        assert!(text.contains("closed loop: achieved"));
        assert!(!text.contains("offered"));
    }

    #[test]
    fn dropped_sessions_flag_the_report() {
        let section = LoadSection {
            dropped_sessions: 2,
            ..load_section()
        };
        let r = full_report().load(section);
        assert!(r.missing_sections().contains(&"complete-load"));
        let text = r.render();
        assert!(text.contains("PARTIAL arm"));
        assert!(text.contains("2 dropped session(s)"));
        assert!(text.contains("complete-load"));
    }

    #[test]
    fn trace_section_embeds_the_span_tree() {
        let tracer = perfeval_trace::Tracer::new();
        {
            let mut outer = tracer.span("experiment");
            outer.attr("reps", 3usize);
            drop(tracer.span("measure"));
        }
        let text = full_report().trace(&tracer.snapshot()).render();
        assert!(text.contains("## Trace"));
        assert!(text.contains("experiment"));
        assert!(text.contains("measure"));
    }

    #[test]
    fn table_statistics_are_correct() {
        let mut table = ResultTable::new("t", "ms");
        table.row("x", vec![10.0, 12.0, 14.0]);
        let text = table.render();
        assert!(text.contains("| x | 12.000 |"));
        assert!(text.contains("| 3 |"));
    }
}
