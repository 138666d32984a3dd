//! Experiment suites: directory structure, parameter grids, and generated
//! instructions.
//!
//! Slide 198's checklist: a suited directory structure (`source, bin, data,
//! res, graphs`), control loops that generate every point a graph needs
//! under `res/`, and graph generation under `graphs/`. Slide 216 adds the
//! documentation contract: what to install, which script to run, where the
//! graph appears, how long it takes.

use crate::csvio::write_csv;
use crate::gnuplot::GnuplotScript;
use crate::properties::Properties;
use std::path::{Path, PathBuf};

/// A managed experiment directory.
#[derive(Debug, Clone)]
pub struct ExperimentSuite {
    root: PathBuf,
    name: String,
}

impl ExperimentSuite {
    /// Creates (or opens) the suite directory layout under
    /// `root/<name>/{data,res,graphs}`.
    pub fn create(root: &Path, name: &str) -> std::io::Result<ExperimentSuite> {
        let base = root.join(name);
        for sub in ["data", "res", "graphs"] {
            std::fs::create_dir_all(base.join(sub))?;
        }
        Ok(ExperimentSuite {
            root: base,
            name: name.to_owned(),
        })
    }

    /// Suite name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Root directory of the suite.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path under `res/` for a result file.
    pub fn result_path(&self, file: &str) -> PathBuf {
        self.root.join("res").join(file)
    }

    /// Path under `graphs/` for a plot artifact.
    pub fn graph_path(&self, file: &str) -> PathBuf {
        self.root.join("graphs").join(file)
    }

    /// Records the exact configuration used (the repeatability contract:
    /// `seed=… sf=…` next to the results).
    pub fn record_config(&self, props: &Properties) -> std::io::Result<()> {
        std::fs::write(self.root.join("experiment.conf"), props.store())
    }

    /// Writes a result CSV under `res/`.
    pub fn write_result(
        &self,
        file: &str,
        header: &[&str],
        rows: &[Vec<f64>],
    ) -> Result<PathBuf, crate::csvio::CsvError> {
        let path = self.result_path(file);
        write_csv(&path, header, rows)?;
        Ok(path)
    }

    /// Writes a gnuplot script under `graphs/`.
    pub fn write_plot(&self, file: &str, script: &GnuplotScript) -> std::io::Result<PathBuf> {
        let path = self.graph_path(file);
        script.write_to(&path)?;
        Ok(path)
    }

    /// Writes the per-experiment instructions of slide 216.
    pub fn write_instructions(&self, instructions: &Instructions) -> std::io::Result<PathBuf> {
        let path = self.root.join("README.md");
        std::fs::write(&path, instructions.render())?;
        Ok(path)
    }
}

/// The slide-216 documentation contract for one experiment.
#[derive(Debug, Clone, Default)]
pub struct Instructions {
    /// Experiment title.
    pub title: String,
    /// Installation requirements ("Rust 1.80+, 2 GB RAM").
    pub requirements: String,
    /// Extra setup if any.
    pub extra_setup: String,
    /// The command to run.
    pub command: String,
    /// Where the output/graph lands.
    pub output_location: String,
    /// Expected duration ("~40 s on a 2020 laptop").
    pub duration: String,
}

impl Instructions {
    /// Renders the README.
    pub fn render(&self) -> String {
        let mut out = format!("# {}\n\n", self.title);
        out.push_str(&format!("**Requirements:** {}\n\n", self.requirements));
        if !self.extra_setup.is_empty() {
            out.push_str(&format!("**Extra setup:** {}\n\n", self.extra_setup));
        }
        out.push_str(&format!("**Run:**\n\n```\n{}\n```\n\n", self.command));
        out.push_str(&format!("**Output:** {}\n\n", self.output_location));
        out.push_str(&format!("**Expected duration:** {}\n", self.duration));
        out
    }

    /// True if every mandatory section is filled.
    pub fn is_complete(&self) -> bool {
        !self.title.is_empty()
            && !self.requirements.is_empty()
            && !self.command.is_empty()
            && !self.output_location.is_empty()
            && !self.duration.is_empty()
    }
}

/// A parameter grid: the control loop generating "the points needed for
/// each graph". Produces the cartesian product of named value lists, each
/// point as a [`Properties`] overlay.
#[derive(Debug, Clone, Default)]
pub struct ParamGrid {
    axes: Vec<(String, Vec<String>)>,
}

impl ParamGrid {
    /// Creates an empty grid (one empty point).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an axis with string values.
    pub fn axis(mut self, name: &str, values: &[&str]) -> Self {
        self.axes.push((
            name.to_owned(),
            values.iter().map(|v| (*v).to_owned()).collect(),
        ));
        self
    }

    /// Adds a numeric axis.
    pub fn axis_f64(mut self, name: &str, values: &[f64]) -> Self {
        self.axes.push((
            name.to_owned(),
            values.iter().map(|v| format!("{v}")).collect(),
        ));
        self
    }

    /// Number of points in the grid.
    pub fn len(&self) -> usize {
        self.axes.iter().map(|(_, v)| v.len()).product()
    }

    /// True if the grid has no axes.
    pub fn is_empty(&self) -> bool {
        self.axes.is_empty()
    }

    /// Iterates over all points as property overlays, varying the first
    /// axis fastest.
    pub fn points(&self) -> Vec<Properties> {
        let mut points = vec![Properties::new()];
        for (name, values) in &self.axes {
            let mut next = Vec::with_capacity(points.len() * values.len());
            for v in values {
                for p in &points {
                    let mut q = p.clone();
                    q.set(name, v);
                    next.push(q);
                }
            }
            points = next;
        }
        points
    }

    /// Runs `f` over every grid point on `threads` workers (the
    /// `perfeval-exec` pool) and returns the results in [`ParamGrid::points`]
    /// order, regardless of thread count or scheduling.
    pub fn run_parallel<T, F>(&self, threads: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&Properties) -> T + Sync,
    {
        let points = self.points();
        perfeval_exec::parallel_map(points.len(), threads, |i| f(&points[i])).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "perfeval_suite_{}_{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn create_builds_directory_layout() {
        let root = tmp_root();
        let suite = ExperimentSuite::create(&root, "exp1").unwrap();
        assert!(root.join("exp1/data").is_dir());
        assert!(root.join("exp1/res").is_dir());
        assert!(root.join("exp1/graphs").is_dir());
        assert_eq!(suite.name(), "exp1");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn results_and_plots_land_in_the_right_places() {
        let root = tmp_root();
        let suite = ExperimentSuite::create(&root, "exp2").unwrap();
        let csv = suite
            .write_result("times.csv", &["sf", "ms"], &[vec![1.0, 1234.0]])
            .unwrap();
        assert!(csv.starts_with(root.join("exp2/res")));
        assert!(csv.exists());
        let plot = suite
            .write_plot(
                "times.gnu",
                &GnuplotScript::new("t", "sf", "ms", "times.eps").single("../res/times.csv"),
            )
            .unwrap();
        assert!(plot.starts_with(root.join("exp2/graphs")));
        assert!(plot.exists());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn config_recorded_next_to_results() {
        let root = tmp_root();
        let suite = ExperimentSuite::create(&root, "exp3").unwrap();
        let mut props = Properties::new();
        props.set("seed", "42");
        props.set("sf", "0.01");
        suite.record_config(&props).unwrap();
        let text = std::fs::read_to_string(root.join("exp3/experiment.conf")).unwrap();
        assert_eq!(text, "seed=42\nsf=0.01\n");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn instructions_render_and_completeness() {
        let ins = Instructions {
            title: "E3: DBG/OPT sweep".into(),
            requirements: "Rust 1.80+".into(),
            extra_setup: String::new(),
            command: "cargo run --release -p perfeval-bench --bin perfeval-exp -- e3".into(),
            output_location: "res/dbg_opt.csv and graphs/dbg_opt.gnu".into(),
            duration: "~30 s".into(),
        };
        assert!(ins.is_complete());
        let text = ins.render();
        assert!(text.starts_with("# E3"));
        assert!(text.contains("cargo run"));
        assert!(!text.contains("Extra setup"));
        let incomplete = Instructions {
            title: "x".into(),
            ..Default::default()
        };
        assert!(!incomplete.is_complete());
    }

    #[test]
    fn grid_cartesian_product() {
        let grid = ParamGrid::new()
            .axis_f64("sf", &[0.01, 0.1])
            .axis("mode", &["DBG", "OPT"])
            .axis_f64("reps", &[3.0]);
        assert_eq!(grid.len(), 4);
        let points = grid.points();
        assert_eq!(points.len(), 4);
        // Every point carries all three keys.
        for p in &points {
            assert!(p.get("sf").is_some());
            assert!(p.get("mode").is_some());
            assert_eq!(p.get("reps"), Some("3"));
        }
        // First axis varies fastest.
        assert_eq!(points[0].get("sf"), Some("0.01"));
        assert_eq!(points[1].get("sf"), Some("0.1"));
        assert_eq!(points[0].get("mode"), Some("DBG"));
        assert_eq!(points[2].get("mode"), Some("OPT"));
    }

    #[test]
    fn grid_parallel_run_preserves_point_order() {
        let grid = ParamGrid::new()
            .axis_f64("sf", &[0.01, 0.1, 1.0])
            .axis("mode", &["DBG", "OPT"]);
        let serial = grid.run_parallel(1, |p| {
            format!("{}/{}", p.get("sf").unwrap(), p.get("mode").unwrap())
        });
        let parallel = grid.run_parallel(4, |p| {
            format!("{}/{}", p.get("sf").unwrap(), p.get("mode").unwrap())
        });
        assert_eq!(serial, parallel);
        assert_eq!(serial.len(), 6);
        assert_eq!(serial[0], "0.01/DBG");
    }

    #[test]
    fn empty_grid_is_single_point() {
        let grid = ParamGrid::new();
        assert!(grid.is_empty());
        assert_eq!(grid.points().len(), 1);
        assert_eq!(grid.len(), 1);
    }
}
