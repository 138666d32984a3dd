//! Cross-crate integration: workload → engine → measurement → harness,
//! exercising the full pipeline a user of the toolkit would run.

use perfeval::harness::csvio::{read_csv, write_csv};
use perfeval::harness::suite::{ExperimentSuite, Instructions, ParamGrid};
use perfeval::prelude::*;
use perfeval::workload::queries;

fn small_catalog() -> Catalog {
    generate(&GenConfig {
        scale_factor: 0.001,
        ..GenConfig::default()
    })
}

#[test]
fn both_engines_agree_on_the_benchmark_queries() {
    let catalog = small_catalog();
    let mut dbg = Session::new(catalog.clone()).with_mode(ExecMode::Debug);
    let mut opt = Session::new(catalog).with_mode(ExecMode::Optimized);
    for sql in [queries::q1(), queries::q6(), queries::q16()] {
        let a = dbg.query(&sql).run().unwrap();
        let b = opt.query(&sql).run().unwrap();
        assert_eq!(a.rows, b.rows, "{sql}");
        assert_eq!(a.column_names, b.column_names);
    }
}

#[test]
fn optimizer_on_off_preserves_results_across_family() {
    let catalog = small_catalog();
    let mut on = Session::new(catalog.clone());
    let mut off = Session::new(catalog);
    off.set_optimizer(perfeval::minidb::optimizer::OptimizerConfig::none());
    for sql in queries::all_family() {
        let a = on.query(&sql).run().unwrap();
        let b = off.query(&sql).run().unwrap();
        assert_eq!(a.rows, b.rows, "{sql}");
    }
}

#[test]
fn run_protocol_drives_session_hot_and_cold() {
    let dir = std::env::temp_dir().join(format!("perfeval_e2e_hotcold_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    small_catalog().persist(&dir).unwrap();
    let session = std::cell::RefCell::new(Session::new(Catalog::open(&dir).unwrap()));
    let sql = queries::q6();
    let protocol = RunProtocol::last_of_three_hot();
    let result = protocol.execute(
        || session.borrow_mut().flush_caches(),
        || {
            let r = session.borrow_mut().query(&sql).run().unwrap();
            Measurement::from_phases(vec![
                ("user".into(), r.server_user_ms()),
                ("reads".into(), r.store_physical_reads as f64),
            ])
        },
    );
    // First run cold (real segment reads), last run hot (none): the kept
    // measurement is hot.
    assert!(result.all[0].named("reads").unwrap() > 0.0);
    assert_eq!(result.kept[0].named("reads").unwrap(), 0.0);
    assert_eq!(result.protocol_description(), protocol.describe());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn experiment_suite_records_a_repeatable_artifact() {
    let root = std::env::temp_dir().join(format!("perfeval_e2e_{}", std::process::id()));
    std::fs::create_dir_all(&root).unwrap();
    let suite = ExperimentSuite::create(&root, "scaleup").unwrap();

    // Configuration is recorded, not hardcoded.
    let mut props = Properties::with_defaults(&[("seed", "20080408"), ("reps", "2")]);
    props.set("sfs", "0.0005,0.001");
    suite.record_config(&props).unwrap();

    // Control loop over the parameter grid.
    let grid = ParamGrid::new().axis_f64("sf", &[0.0005, 0.001]);
    let mut rows = Vec::new();
    for point in grid.points() {
        let sf: f64 = point.get_f64("sf").unwrap().unwrap();
        let catalog = generate(&GenConfig {
            scale_factor: sf,
            ..GenConfig::default()
        });
        let mut session = Session::new(catalog);
        session.query(&queries::q6()).run().unwrap();
        let ms = session
            .query(&queries::q6())
            .run()
            .unwrap()
            .server_user_ms();
        rows.push(vec![sf, ms]);
    }
    let csv = suite
        .write_result("scaleup.csv", &["sf", "ms"], &rows)
        .unwrap();

    // Graph script generated next to it.
    let plot = suite
        .write_plot(
            "scaleup.gnu",
            &GnuplotScript::new(
                "Q6 scale-up",
                "scale factor",
                "server time (ms)",
                "scaleup.eps",
            )
            .single("../res/scaleup.csv"),
        )
        .unwrap();

    // Instructions complete the repeatability contract.
    let readme = suite
        .write_instructions(&Instructions {
            title: "Q6 scale-up".into(),
            requirements: "Rust 1.80+".into(),
            extra_setup: String::new(),
            command: "cargo test --test end_to_end".into(),
            output_location: "res/scaleup.csv, graphs/scaleup.gnu".into(),
            duration: "seconds".into(),
        })
        .unwrap();

    // Everything readable back, CSV valid (no locale corruption).
    let table = read_csv(&csv).unwrap();
    assert_eq!(table.header, vec!["sf", "ms"]);
    assert_eq!(table.row_count(), 2);
    // Bigger scale factor, more work.
    assert!(table.rows[1][1] > 0.0);
    assert!(plot.exists());
    assert!(std::fs::read_to_string(readme)
        .unwrap()
        .contains("# Q6 scale-up"));
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn csv_written_by_harness_roundtrips_through_validation() {
    let dir = std::env::temp_dir().join(format!("perfeval_e2e_csv_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("times.csv");
    // Realistic replicated timings with decimals.
    let rows = vec![
        vec![1.0, 13.666],
        vec![2.0, 15.0],
        vec![3.0, 12.3333],
        vec![4.0, 13.0],
    ];
    write_csv(&path, &["run", "avg_ms"], &rows).unwrap();
    let table = read_csv(&path).unwrap();
    assert_eq!(table.rows, rows);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn environment_spec_documents_the_machine() {
    use perfeval::measure::{EnvSpec, SpecLevel};
    let mut spec = EnvSpec::capture();
    // Fill in what procfs cannot know — and the API told us what's missing.
    for field in spec.missing_fields() {
        match field {
            "disk" => spec.disk = "simulated 5400RPM laptop disk".into(),
            "cpu_model" => spec.cpu_model = "test".into(),
            "cpu_mhz" => spec.cpu_mhz = 1000.0,
            "cache_kib" => spec.cache_kib = vec![32, 2048],
            "ram_mib" => spec.ram_mib = 2048,
            "os" => spec.os = "Linux".into(),
            other => panic!("unexpected missing field {other}"),
        }
    }
    assert_eq!(spec.spec_level(), SpecLevel::Adequate);
    assert!(spec.render().contains("disk"));
}

#[test]
fn memory_wall_reproduces_with_engine_in_the_loop() {
    // The full E4 story: the same logical scan, five machines, nearly flat
    // total time despite 10x clocks.
    let series = perfeval::memsim::scan::memory_wall_series(100_000);
    let first = series[0].total_ns_per_iter();
    let last = series[4].total_ns_per_iter();
    assert!(first / last < 3.0);
    // And the counters tell the story wall-clock alone cannot.
    for cost in &series[1..] {
        assert!(
            cost.memory_fraction() > 0.5,
            "{} should be memory-bound",
            cost.system
        );
    }
}

#[test]
fn chart_lint_blesses_the_harness_default_plots() {
    use perfeval::harness::chartlint::{lint, ChartKind, ChartSpec};
    let spec = ChartSpec {
        kind: ChartKind::Line,
        series: 2,
        y_label: "execution time (ms)".into(),
        x_label: "scale factor".into(),
        y_axis_start: 0.0,
        y_data_min: 5.0,
        plots_random_quantities: true,
        has_error_bars: true,
    };
    assert!(lint(&spec).is_empty());
}
