//! Terminal line charts, for experiment binaries that reproduce *figures*.
//!
//! The tutorial's presentation rules (slides 118–128) apply even to a quick
//! terminal rendering: the y axis starts at zero (or below it, for
//! negative data), axes carry labels with units, and series are labelled
//! with keywords.
//! This is deliberately minimal — the publishable artifact is the generated
//! gnuplot script; the ASCII chart is the "CSI" view for the terminal.

/// A series of (x, y) points with a keyword label.
#[derive(Debug, Clone)]
pub struct AsciiSeries {
    /// Legend keyword ("CPU", "Memory" — never a symbol).
    pub label: String,
    /// Points, assumed x-sorted.
    pub points: Vec<(f64, f64)>,
}

/// A minimal multi-series scatter/line chart rendered to text.
#[derive(Debug, Clone)]
pub struct AsciiChart {
    title: String,
    y_label: String,
    x_label: String,
    series: Vec<AsciiSeries>,
    height: usize,
    width: usize,
}

impl AsciiChart {
    /// Creates a chart; labels should carry units.
    pub fn new(title: &str, x_label: &str, y_label: &str) -> Self {
        AsciiChart {
            title: title.to_owned(),
            y_label: y_label.to_owned(),
            x_label: x_label.to_owned(),
            series: Vec::new(),
            height: 16,
            width: 60,
        }
    }

    /// Adds a series.
    pub fn series(mut self, label: &str, points: Vec<(f64, f64)>) -> Self {
        self.series.push(AsciiSeries {
            label: label.to_owned(),
            points,
        });
        self
    }

    /// Canvas size in characters.
    pub fn size(mut self, width: usize, height: usize) -> Self {
        self.width = width.max(10);
        self.height = height.max(4);
        self
    }

    /// Number of series (≤ 6 per the line-chart rule; not enforced here —
    /// `chartlint` owns the rules).
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    /// Renders the chart.
    pub fn render(&self) -> String {
        const MARKS: [char; 6] = ['*', 'o', '+', 'x', '#', '@'];
        let all: Vec<(f64, f64)> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().copied())
            .collect();
        if all.is_empty() {
            return format!("{}\n(no data)\n", self.title);
        }
        let x_min = all.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
        let x_max = all.iter().map(|p| p.0).fold(f64::NEG_INFINITY, f64::max);
        let y_min = all.iter().map(|p| p.1).fold(0.0, f64::min);
        let y_max = all.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
        let x_span = (x_max - x_min).max(1e-12);
        let y_span = (y_max - y_min).max(1e-12);

        let mut grid = vec![vec![' '; self.width]; self.height];
        for (si, s) in self.series.iter().enumerate() {
            let mark = MARKS[si % MARKS.len()];
            for &(x, y) in &s.points {
                let col = (((x - x_min) / x_span) * (self.width - 1) as f64).round() as usize;
                let row_from_bottom =
                    (((y - y_min) / y_span) * (self.height - 1) as f64).round() as usize;
                let row = self.height - 1 - row_from_bottom.min(self.height - 1);
                grid[row][col.min(self.width - 1)] = mark;
            }
        }
        let mut out = format!("{}\n", self.title);
        for (i, row) in grid.iter().enumerate() {
            let y_here = y_max - y_span * i as f64 / (self.height - 1) as f64;
            let label = if i == 0 || i == self.height - 1 || i == self.height / 2 {
                format!("{y_here:>10.1}")
            } else {
                " ".repeat(10)
            };
            out.push_str(&format!("{label} |{}\n", row.iter().collect::<String>()));
        }
        out.push_str(&format!("{} +{}\n", " ".repeat(10), "-".repeat(self.width)));
        out.push_str(&format!(
            "{}  {:<width$.1}{:>rest$.1}\n",
            " ".repeat(10),
            x_min,
            x_max,
            width = self.width / 2,
            rest = self.width - self.width / 2
        ));
        out.push_str(&format!(
            "{}  x: {}   y: {}\n",
            " ".repeat(10),
            self.x_label,
            self.y_label
        ));
        for (si, s) in self.series.iter().enumerate() {
            out.push_str(&format!(
                "{}  {} {}\n",
                " ".repeat(10),
                MARKS[si % MARKS.len()],
                s.label
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chart() -> AsciiChart {
        AsciiChart::new("scan cost", "year", "ns per iteration")
            .series("CPU", vec![(1992.0, 104.0), (1996.0, 22.0), (2000.0, 10.7)])
            .series(
                "Memory",
                vec![(1992.0, 150.0), (1996.0, 140.0), (2000.0, 120.0)],
            )
    }

    #[test]
    fn renders_marks_and_legend() {
        let text = chart().render();
        assert!(text.starts_with("scan cost"));
        assert!(text.contains('*'), "{text}");
        assert!(text.contains('o'), "{text}");
        assert!(text.contains("* CPU"));
        assert!(text.contains("o Memory"));
        assert!(text.contains("x: year"));
        assert!(text.contains("y: ns per iteration"));
    }

    #[test]
    fn y_axis_starts_at_zero() {
        // The bottom axis label is 0.0.
        let text = chart().render();
        assert!(text.contains("       0.0 |"), "{text}");
    }

    #[test]
    fn empty_chart_degrades_gracefully() {
        let text = AsciiChart::new("t", "x", "y").render();
        assert!(text.contains("no data"));
    }

    #[test]
    fn extreme_points_land_on_canvas_edges() {
        let text = AsciiChart::new("t", "x", "y")
            .series("s", vec![(0.0, 0.0), (10.0, 100.0)])
            .size(20, 5)
            .render();
        let rows: Vec<&str> = text.lines().collect();
        // Max point on the top row, min on the bottom row of the canvas.
        assert!(rows[1].ends_with('*') || rows[1].contains('*'), "{text}");
        assert!(rows[5].contains('*'), "{text}");
    }

    #[test]
    fn size_is_clamped() {
        let c = AsciiChart::new("t", "x", "y").size(1, 1);
        assert_eq!(c.width, 10);
        assert_eq!(c.height, 4);
    }
}
