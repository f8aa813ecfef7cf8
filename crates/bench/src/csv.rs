//! Minimal CSV writer used by the spec emitters (no external
//! serialization crates needed).

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Writes simple CSV files under a results directory and mirrors every
/// row to stdout so every figure run is self-describing.
#[derive(Debug)]
pub struct CsvWriter {
    path: PathBuf,
    file: File,
}

impl CsvWriter {
    /// Create `results/<name>.csv` relative to the workspace root (or to
    /// `QPRAC_RESULTS_DIR` when set), writing the given header row.
    pub fn create(name: &str, header: &[&str]) -> io::Result<Self> {
        let dir = std::env::var("QPRAC_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
        Self::create_in(Path::new(&dir), name, header)
    }

    /// Create `<dir>/<name>.csv`, writing the given header row. The
    /// explicit-directory form exists so tests can write to a temp dir
    /// without mutating `QPRAC_RESULTS_DIR` (process environment is
    /// shared across `cargo test` threads).
    pub fn create_in(dir: &Path, name: &str, header: &[&str]) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.csv"));
        let mut file = File::create(&path)?;
        writeln!(file, "{}", header.join(","))?;
        Ok(CsvWriter { path, file })
    }

    /// Append one row (values are `Display`-formatted by the caller).
    pub fn row(&mut self, values: &[String]) -> io::Result<()> {
        writeln!(self.file, "{}", values.join(","))
    }

    /// The file path being written.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Format a float with fixed precision for CSV/console output.
pub fn f(v: f64) -> String {
    format!("{v:.4}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_header_and_rows() {
        // `create_in` keeps the test off `QPRAC_RESULTS_DIR`: mutating
        // process env here raced against any concurrently running test
        // (or figure-binary smoke child) reading it.
        let dir = std::env::temp_dir().join(format!("qprac-csv-test-{}", std::process::id()));
        let mut w = CsvWriter::create_in(&dir, "unit", &["a", "b"]).unwrap();
        w.row(&["1".into(), "2".into()]).unwrap();
        assert_eq!(w.path(), dir.join("unit.csv"));
        drop(w);
        let text = std::fs::read_to_string(dir.join("unit.csv")).unwrap();
        assert_eq!(text, "a,b\n1,2\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn float_formatting_is_stable() {
        assert_eq!(f(0.123456), "0.1235");
        assert_eq!(f(1.0), "1.0000");
    }
}
