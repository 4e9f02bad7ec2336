//! Plain-text and CSV rendering of result tables.

use std::fmt::Write as _;

/// A rendered experiment result: headers plus rows of cells.
///
/// ```
/// use cia_experiments::tables::Table;
/// let mut t = Table::new("Demo", &["a", "b"]);
/// t.row(vec!["1".into(), "2".into()]);
/// assert!(t.to_text().contains("Demo"));
/// assert_eq!(t.to_csv().lines().count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Table title (e.g. "Table II — CIA on FedRecs").
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells, each aligned with `headers`.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(std::string::ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders an aligned monospace table.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for (c, w) in cells.iter().zip(widths) {
                let _ = write!(s, "| {c:w$} ");
            }
            s.push('|');
            s
        };
        out.push_str(&line(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().map(|w| w + 3).sum::<usize>() + 1;
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders RFC-4180-ish CSV (quotes cells containing commas/quotes).
    pub fn to_csv(&self) -> String {
        let esc = |c: &String| -> String {
            if c.contains(',') || c.contains('"') || c.contains('\n') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.clone()
            }
        };
        let mut out = String::new();
        out.push_str(&self.headers.iter().map(esc).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(esc).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}", x * 100.0)
}

/// Formats a float with three decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_render_is_aligned() {
        let mut t = Table::new("T", &["col", "x"]);
        t.row(vec!["aaaa".into(), "1".into()]);
        t.row(vec!["b".into(), "22".into()]);
        let text = t.to_text();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("T"));
        // All data lines have the same width.
        assert_eq!(lines[1].len(), lines[3].len());
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = Table::new("T", &["a"]);
        t.row(vec!["x,y".into()]);
        t.row(vec!["q\"uote".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"q\"\"uote\""));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_is_validated() {
        let mut t = Table::new("T", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.5731), "57.3");
        assert_eq!(f3(0.12345), "0.123");
    }
}
