//! Plain-text tables and CSV output for the harness binaries.
//!
//! Hand-rolled (no serde) so the only output dependencies are `std`.

use std::fmt::Write as _;

/// A simple column-aligned text table.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Number of data rows.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                let _ = write!(out, "{:>width$}", cell, width = widths[i]);
                if i + 1 < cols {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        };
        fmt_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * cols.saturating_sub(1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(&mut out, row);
        }
        out
    }

    /// Render as CSV (RFC-4180-style quoting for cells containing commas
    /// or quotes).
    pub fn to_csv(&self) -> String {
        let esc = |c: &String| -> String {
            if c.contains(',') || c.contains('"') || c.contains('\n') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.clone()
            }
        };
        let mut out = String::new();
        out.push_str(&self.header.iter().map(esc).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(esc).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Format a f64 with fixed decimals (tables read better than `{:?}`).
pub fn f(x: f64, decimals: usize) -> String {
    format!("{:.*}", decimals, x)
}

/// Format a rate as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.3}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(["cores", "tp"]);
        t.row(["2", "23.0"]);
        t.row(["16", "77.5"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("cores"));
        assert!(lines[2].ends_with("23.0"));
        assert!(lines[3].starts_with("   16"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn zero_column_table_renders_without_panic() {
        let t = Table::new(Vec::<String>::new());
        let s = t.render();
        // Header line + (empty) separator line, no underflow panic.
        assert_eq!(s, "\n\n");
        assert_eq!(t.to_csv(), "\n");
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn csv_escapes_properly() {
        let mut t = Table::new(["name", "note"]);
        t.row(["a,b", "say \"hi\""]);
        let csv = t.to_csv();
        assert_eq!(csv, "name,note\n\"a,b\",\"say \"\"hi\"\"\"\n");
    }

    #[test]
    fn number_helpers() {
        assert_eq!(f(91.78456, 2), "91.78");
        assert_eq!(pct(0.0123456), "1.235%");
    }
}
