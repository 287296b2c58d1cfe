//! Tabular output for the experiment binaries.
//!
//! Every per-figure binary prints the same rows/series the paper
//! reports; this module renders aligned text tables and CSV so results
//! are both eyeballable and machine-diffable.

use std::fmt::Write as _;

/// A simple column-aligned table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// The data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Renders CSV (headers + rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Prints the table to stdout, optionally followed by CSV.
    #[expect(
        clippy::print_stdout,
        reason = "the CLI rendering seam the bench binaries call"
    )]
    pub fn print(&self, with_csv: bool) {
        println!("{}", self.render());
        if with_csv {
            println!("--- CSV ---\n{}", self.to_csv());
        }
    }
}

/// A fixed-width text histogram over equal bins spanning `[min, max]`
/// (values outside are clamped into the end bins). Returns a [`Table`]
/// with one row per bin — bin range, count, and a bar — so fleet
/// reports can show e.g. the pairwise interference-margin distribution.
pub fn histogram(title: &str, values: &[f64], bins: usize, min: f64, max: f64) -> Table {
    assert!(bins >= 1, "need at least one bin");
    assert!(max > min, "empty histogram range");
    let mut counts = vec![0usize; bins];
    for &v in values {
        let t = ((v - min) / (max - min) * bins as f64).floor();
        let i = (t.max(0.0) as usize).min(bins - 1);
        counts[i] += 1;
    }
    let peak = counts.iter().copied().max().unwrap_or(0).max(1);
    let width = (max - min) / bins as f64;
    let mut table = Table::new(title, &["bin", "count", ""]);
    for (i, &c) in counts.iter().enumerate() {
        let lo = min + width * i as f64;
        let bar = "#".repeat((c * 40).div_ceil(peak).min(40));
        table.row(&[format!("[{lo:.1}, {:.1})", lo + width), c.to_string(), bar]);
    }
    table
}

/// Formats meters with centimeter precision (the paper's unit style).
pub fn fmt_m(v: f64) -> String {
    format!("{v:.2} m")
}

/// Formats a dB value.
pub fn fmt_db(v: f64) -> String {
    format!("{v:.1} dB")
}

/// Formats a percentage.
pub fn fmt_pct(v: f64) -> String {
    format!("{v:.1} %")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Fig. X", &["distance", "rate"]);
        t.row(&["10 m".to_string(), "100.0 %".to_string()]);
        t.row(&["55 m".to_string(), "75.0 %".to_string()]);
        let s = t.render();
        assert!(s.contains("== Fig. X =="));
        assert!(s.contains("distance"));
        assert!(s.lines().count() >= 5);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(&["x,y".to_string(), "plain".to_string()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\",plain"));
    }

    #[test]
    #[should_panic(expected = "column count")]
    fn mismatched_row_rejected() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(&["only one".to_string()]);
    }

    #[test]
    fn histogram_bins_and_clamps() {
        let t = histogram("margins", &[-5.0, 0.5, 1.5, 1.7, 99.0], 4, 0.0, 4.0);
        assert_eq!(t.len(), 4);
        let csv = t.to_csv();
        // −5 clamps into bin 0 alongside 0.5; 99 clamps into the last.
        assert!(csv.contains("\"[0.0, 1.0)\",2"));
        assert!(csv.contains("\"[1.0, 2.0)\",2"));
        assert!(csv.contains("\"[3.0, 4.0)\",1"));
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_m(0.191), "0.19 m");
        assert_eq!(fmt_db(63.97), "64.0 dB");
        assert_eq!(fmt_pct(74.951), "75.0 %");
    }
}
