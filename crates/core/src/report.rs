//! Lightweight table formatting for experiment output.
//!
//! Every experiment driver renders its result through [`Table`], so
//! `repro_all` prints the same row/column layout the paper uses.

use std::fmt;

/// A simple column-aligned text table with a title, and notes printed
/// under the rows.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header's.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "cell count mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Appends a row of displayable items.
    pub fn row_display<T: fmt::Display>(&mut self, cells: &[T]) -> &mut Self {
        let cells: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        self.row(&cells)
    }

    /// Appends a note: a line printed under the rows, such as the
    /// verdict the table supports.
    pub fn note(&mut self, text: impl Into<String>) -> &mut Self {
        self.notes.push(text.into());
        self
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// The rows, as strings.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The column headers.
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// The notes, in order.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// The rows as JSON objects keyed by column header — the machine
    /// companion of the text rendering for `--json` output.
    pub fn to_json_rows(&self) -> serde_json::Value {
        serde_json::Value::Seq(
            self.rows
                .iter()
                .map(|row| {
                    serde_json::Value::Map(
                        self.header
                            .iter()
                            .zip(row)
                            .map(|(h, c)| (h.clone(), serde_json::Value::Str(c.clone())))
                            .collect(),
                    )
                })
                .collect(),
        )
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Column widths.
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        writeln!(f, "{}", self.title)?;
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let padded: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            writeln!(f, "  {}", padded.join("  "))
        };
        line(f, &self.header)?;
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        line(f, &rule)?;
        for row in &self.rows {
            line(f, row)?;
        }
        for note in &self.notes {
            writeln!(f, "  {note}")?;
        }
        Ok(())
    }
}

/// Formats a fraction as a percentage with two decimals (Table II
/// style).
pub fn pct(v: f64) -> String {
    format!("{:.2}", v * 100.0)
}

/// Formats a large count in engineering notation.
pub fn eng(v: f64) -> String {
    if !v.is_finite() {
        return "inf".into();
    }
    if v == 0.0 {
        return "0".into();
    }
    let exp = v.abs().log10().floor();
    if (0.0..6.0).contains(&exp) {
        format!("{v:.0}")
    } else {
        format!("{:.2}e{}", v / 10f64.powf(exp), exp as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_text() {
        let mut t = Table::new("Demo", &["a", "long-header", "c"]);
        t.row_display(&["1", "2", "3"]);
        t.row_display(&["wide-cell", "x", "y"]);
        let s = t.to_string();
        assert!(s.contains("Demo"));
        assert!(s.contains("long-header"));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    fn pct_and_eng() {
        assert_eq!(pct(0.9312), "93.12");
        assert_eq!(eng(1234.0), "1234");
        assert_eq!(eng(0.0), "0");
        assert_eq!(eng(f64::INFINITY), "inf");
        assert!(eng(1.5e12).contains('e'));
    }

    #[test]
    #[should_panic(expected = "cell count mismatch")]
    fn wrong_row_width_panics() {
        Table::new("T", &["a", "b"]).row_display(&[1]);
    }

    #[test]
    fn notes_follow_the_rows() {
        let mut t = Table::new("T", &["x"]);
        t.row_display(&["1"]).note("verdict: ok");
        assert_eq!(t.to_string().lines().last(), Some("  verdict: ok"));
        assert_eq!(t.notes(), ["verdict: ok"]);
    }

    #[test]
    fn json_rows_key_cells_by_header() {
        let mut t = Table::new("T", &["x", "y"]);
        t.row_display(&["1", "a|b"]);
        t.row_display(&["2", "c"]);
        let json = serde_json::to_string(&t.to_json_rows()).unwrap();
        let back: serde_json::Value = serde_json::from_str(&json).unwrap();
        match back {
            serde_json::Value::Seq(rows) => {
                assert_eq!(rows.len(), 2);
                match &rows[0] {
                    serde_json::Value::Map(fields) => {
                        assert_eq!(
                            fields[0],
                            ("x".to_string(), serde_json::Value::Str("1".into()))
                        );
                        assert_eq!(
                            fields[1],
                            ("y".to_string(), serde_json::Value::Str("a|b".into()))
                        );
                    }
                    other => panic!("expected map row, got {other:?}"),
                }
            }
            other => panic!("expected seq, got {other:?}"),
        }
    }
}
