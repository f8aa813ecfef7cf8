//! The one output type of every figure: a [`Table`] is plain data that
//! the runner writes twice from the same strings — as `<name>.csv`
//! under the results directory and as a column-aligned block on stdout
//! with its note underneath — so every figure run is self-describing
//! and no emitter formats its own output.

use std::fmt::Write as _;
use std::fs;
use std::io::{self, Write};
use std::path::Path;

/// One CSV file of a figure and its stdout rendering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// The CSV stem: the table is written to `<name>.csv`.
    pub name: String,
    /// The heading printed above the table on stdout.
    pub title: String,
    /// Column names: the CSV's first line and the printed header.
    pub header: Vec<String>,
    /// Rows of `Display`-formatted values, one string per column.
    pub rows: Vec<Vec<String>>,
    /// Text printed under the table (the paper's reported values or a
    /// reading of the numbers); empty for none.
    pub note: String,
}

impl Table {
    /// An empty table with the given CSV stem, title and header.
    pub fn new(name: impl Into<String>, title: impl Into<String>, header: &[&str]) -> Table {
        Table {
            name: name.into(),
            title: title.into(),
            header: header.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
            note: String::new(),
        }
    }

    /// The same table with `note` printed under it.
    pub fn with_note(mut self, note: impl Into<String>) -> Table {
        self.note = note.into();
        self
    }

    /// The CSV text: the header, then one line per row, fields joined
    /// by commas as given. Nothing is quoted, so a value holding a comma
    /// (two rows of table01 and table02) makes its row ragged; the suite
    /// digest in `perfbench/reference/suite.txt` pins these bytes, so
    /// quoting waits for the next change of that digest.
    pub fn csv(&self) -> String {
        let mut out = String::new();
        for line in std::iter::once(&self.header).chain(&self.rows) {
            for (i, v) in line.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(v);
            }
            out.push('\n');
        }
        out
    }

    /// The stdout rendering: the title, the header and rows in aligned
    /// columns (right-aligned where every row holds a number), the note
    /// and a blank line.
    pub fn render(&self) -> String {
        let lines = || std::iter::once(&self.header).chain(&self.rows);
        let cols = lines().map(Vec::len).max().unwrap_or(0);
        let width = |c: usize| {
            lines()
                .filter_map(|l| l.get(c))
                .map(|v| v.chars().count())
                .max()
                .unwrap_or(0)
        };
        let numeric = |c: usize| {
            self.rows
                .iter()
                .filter_map(|r| r.get(c))
                .all(|v| v.parse::<f64>().is_ok())
        };
        let layout: Vec<(usize, bool)> = (0..cols).map(|c| (width(c), numeric(c))).collect();
        let mut out = format!("{}\n", self.title);
        for line in lines() {
            for (v, &(w, right)) in line.iter().zip(&layout) {
                let _ = if right {
                    write!(out, "{v:>w$}  ")
                } else {
                    write!(out, "{v:<w$}  ")
                };
            }
            out.truncate(out.trim_end_matches(' ').len());
            out.push('\n');
        }
        if !self.note.is_empty() {
            out.push_str(&self.note);
            out.push('\n');
        }
        out.push('\n');
        out
    }
}

/// Write every table to `<dir>/<name>.csv` (creating `dir`) and print
/// its rendering to stdout, one write per file and one per table.
pub fn write_tables(tables: &[Table], dir: &Path) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let mut stdout = io::stdout().lock();
    for t in tables {
        fs::write(dir.join(format!("{}.csv", t.name)), t.csv())?;
        stdout.write_all(t.render().as_bytes())?;
    }
    stdout.flush()
}

/// Format a float with fixed precision for CSV/console output.
pub fn f(v: f64) -> String {
    format!("{v:.4}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("unit", "Unit table", &["name", "value"]);
        t.rows.push(vec!["a".into(), "1.5".into()]);
        t.rows.push(vec!["long name".into(), "10".into()]);
        t.with_note("(note)")
    }

    #[test]
    fn render_aligns_text_left_and_numbers_right() {
        assert_eq!(
            sample().render(),
            "Unit table\nname       value\na            1.5\nlong name     10\n(note)\n\n"
        );
    }

    #[test]
    fn writes_header_and_rows() {
        assert_eq!(sample().csv(), "name,value\na,1.5\nlong name,10\n");
    }

    #[test]
    fn float_formatting_is_stable() {
        assert_eq!(f(0.123456), "0.1235");
        assert_eq!(f(1.0), "1.0000");
    }
}
