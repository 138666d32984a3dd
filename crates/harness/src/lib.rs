//! # perfeval-harness
//!
//! Repeatability infrastructure — the tutorial's fourth chapter as a
//! library. *"Another human equipped with the appropriate software and
//! hardware can repeat your experiments"* requires:
//!
//! * **parameterizable experiments** ([`properties`]) — a
//!   `java.util.Properties`-style configuration store with defaults,
//!   config-file loading, and `-Dkey=value` command-line overrides
//!   (slides 183–195), so nobody ever has to *"change the value of the
//!   'delta' variable in distribution.DistFreeNode.java"* again;
//! * **a test suite with a directory structure** ([`suite`]) — `data/`,
//!   `res/`, `graphs/`, control loops over parameter grids, and generated
//!   per-experiment instructions (slides 198, 216);
//! * **automatic result files and graphs** ([`csvio`], [`gnuplot`]) — CSV
//!   writing, CSV *reading with locale validation* (the OpenOffice
//!   `13.666 → 13666` corruption of slide 212 is detected, not silently
//!   plotted), and gnuplot script generation matching slide 202 line for
//!   line;
//! * **presentation lint** ([`chartlint`]) — the chart rules of slides
//!   118–146: ≤ 6 curves per line chart, units in axis labels, axes from
//!   zero, the 3/4 height/width ratio;
//! * **the repeatability record** ([`repeatability`]) — a submission
//!   checklist plus the SIGMOD 2008 repeatability outcome data of slides
//!   218–220.
#![warn(missing_docs)]

pub mod asciichart;
pub mod chartlint;
pub mod csvio;
pub mod gnuplot;
pub mod properties;
pub mod repeatability;
pub mod report;
pub mod suite;

pub use asciichart::AsciiChart;
pub use csvio::{read_csv, write_csv, CsvError, CsvTable};
pub use gnuplot::GnuplotScript;
pub use properties::Properties;
pub use report::{LoadSection, LoadTailRow, Report, ResultTable};
pub use suite::ExperimentSuite;
