//! E4 — the memory wall: `SELECT MAX(column)` across a decade of machines
//! (slides 46 and 51).
//!
//! The paper's figure: elapsed time per scan iteration, stacked into CPU
//! and memory components, for five machines from a 1992 Sun LX (50 MHz) to
//! a 2000 Origin2000 — a 10× clock improvement that buys almost no scan
//! performance, because the memory component never shrinks. Slide 46 shows
//! the puzzle (totals only); slide 51 the counter-assisted dissection.

use crate::Ctx;
use memsim::scan::memory_wall_series;
use perfeval_harness::{write_csv, GnuplotScript};

pub fn run(ctx: &Ctx) {
    let iterations = 200_000;
    println!("simulated scan: {iterations} iterations, 128-byte stride (row layout)\n");

    let series = memory_wall_series(iterations);

    println!(
        "{:<12} {:<14} {:>6}  {:>9} {:>9} {:>9}  {:>7}",
        "system", "CPU type", "MHz", "cpu ns/it", "mem ns/it", "total", "mem %"
    );
    let mut rows = Vec::new();
    for s in &series {
        println!(
            "{:<12} {:<14} {:>6.0}  {:>9.1} {:>9.1} {:>9.1}  {:>6.1}%",
            s.system,
            format!("{} ({})", s.system, s.year),
            s.cpu_mhz,
            s.cpu_ns_per_iter,
            s.mem_ns_per_iter,
            s.total_ns_per_iter(),
            s.memory_fraction() * 100.0
        );
        rows.push(vec![
            s.year as f64,
            s.cpu_ns_per_iter,
            s.mem_ns_per_iter,
            s.total_ns_per_iter(),
        ]);
    }

    // The figure, in the terminal (the publishable version is the gnuplot
    // script below).
    let chart = perfeval_harness::AsciiChart::new(
        "SELECT MAX(column): elapsed time per iteration",
        "machine year",
        "ns per iteration",
    )
    .series(
        "CPU",
        series
            .iter()
            .map(|s| (s.year as f64, s.cpu_ns_per_iter))
            .collect(),
    )
    .series(
        "Memory",
        series
            .iter()
            .map(|s| (s.year as f64, s.mem_ns_per_iter))
            .collect(),
    )
    .series(
        "Total",
        series
            .iter()
            .map(|s| (s.year as f64, s.total_ns_per_iter()))
            .collect(),
    );
    println!("\n{}", chart.render());

    let first = series.first().expect("five machines");
    let fastest_clock = series
        .iter()
        .max_by(|a, b| a.cpu_mhz.partial_cmp(&b.cpu_mhz).expect("finite"))
        .expect("five machines");
    let clock_gain = fastest_clock.cpu_mhz / first.cpu_mhz;
    let scan_gain = first.total_ns_per_iter() / fastest_clock.total_ns_per_iter();
    println!(
        "\nclock improved {clock_gain:.0}x (1992 -> {}), scan improved only {scan_gain:.1}x",
        fastest_clock.year
    );
    println!("the counters explain it: the late machines spend most time in memory —");
    for s in &series {
        let dram = s.counters.get("dram_access");
        println!(
            "  {:<12} dram accesses/iteration: {:.2}",
            s.system,
            dram as f64 / s.iterations as f64
        );
    }

    assert!(clock_gain >= 10.0);
    assert!(
        scan_gain < 3.0,
        "10x clock must NOT give 10x scan (got {scan_gain:.1}x)"
    );
    assert!(series[3].memory_fraction() > 0.8, "Alpha is memory-bound");
    assert!(
        series[0].memory_fraction() < 0.65,
        "Sun LX is still CPU-heavy"
    );

    if let Some(dir) = &ctx.out {
        write_csv(
            &dir.join("memory_wall.csv"),
            &["year", "cpu_ns", "mem_ns", "total_ns"],
            &rows,
        )
        .expect("write csv");
        GnuplotScript::new(
            "SELECT MAX(column): elapsed time per iteration",
            "machine year",
            "elapsed time per iteration (ns)",
            "memory_wall.eps",
        )
        .series(perfeval_harness::gnuplot::Series {
            data_file: "memory_wall.csv".into(),
            x_col: 1,
            y_col: 2,
            title: "CPU".into(),
        })
        .series(perfeval_harness::gnuplot::Series {
            data_file: "memory_wall.csv".into(),
            x_col: 1,
            y_col: 3,
            title: "Memory".into(),
        })
        .write_to(&dir.join("memory_wall.gnu"))
        .expect("write gnuplot");
        println!("\nwrote {}/memory_wall.{{csv,gnu}}", dir.display());
    }
}
