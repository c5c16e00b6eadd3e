//! Plain-text tables and machine-readable bench artifacts.
//!
//! Everything the workspace prints as a human-facing table goes through
//! [`TextTable`], and everything it persists for scripts goes through
//! [`write_artifact`], which drops a pretty-printed `BENCH_<name>.json`
//! next to the invocation (or under `$PSME_BENCH_DIR` when set, so CI can
//! collect artifacts from a scratch directory).

use crate::json::Json;
use std::io;
use std::path::PathBuf;

/// A right-padded, column-aligned plain-text table.
#[derive(Clone, Debug)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// New table with the given column headers.
    pub fn new(headers: &[&str]) -> TextTable {
        TextTable { headers: headers.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Append a row; missing trailing cells render empty, extra cells are
    /// kept (they get their own unlabeled columns).
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no data rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with a header rule, e.g.:
    ///
    /// ```text
    /// workers  speedup
    /// -------  -------
    /// 1        1.00
    /// ```
    pub fn render(&self) -> String {
        let cols = self
            .rows
            .iter()
            .map(|r| r.len())
            .chain(std::iter::once(self.headers.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        let emit = |out: &mut String, cells: &[String]| {
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                if i + 1 == cols {
                    out.push_str(cell.trim_end());
                } else {
                    out.push_str(&format!("{cell:<w$}  "));
                }
            }
            // Tables stay clean even when a trailing column is empty.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        emit(&mut out, &self.headers);
        let rule: Vec<String> = widths.iter().map(|&w| "-".repeat(w.max(1))).collect();
        emit(&mut out, &rule);
        for r in &self.rows {
            emit(&mut out, r);
        }
        out
    }
}

/// Write `doc` as `BENCH_<name>.json`, pretty-printed with a trailing
/// newline, under `$PSME_BENCH_DIR` when set (created on demand), else the
/// current directory. Returns the path written.
pub fn write_artifact(name: &str, doc: &Json) -> io::Result<PathBuf> {
    // Unset or empty is the empty path: nothing to create, and joining
    // onto it names a file in the current directory.
    let dir = PathBuf::from(std::env::var_os("PSME_BENCH_DIR").unwrap_or_default());
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, doc.pretty())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns_and_trims_trailing_space() {
        let mut t = TextTable::new(&["workers", "speedup"]);
        t.row(vec!["1".into(), "1.00".into()]);
        t.row(vec!["16".into(), "11.41".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "workers  speedup");
        assert_eq!(lines[1], "-------  -------");
        assert_eq!(lines[2], "1        1.00");
        assert_eq!(lines[3], "16       11.41");
        assert!(s.lines().all(|l| !l.ends_with(' ')));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn short_rows_render_empty_cells() {
        let mut t = TextTable::new(&["a", "b", "c"]);
        t.row(vec!["1".into()]);
        let s = t.render();
        assert!(s.lines().nth(2).unwrap().starts_with('1'));
    }

    #[test]
    fn artifact_round_trips_through_disk() {
        let dir = std::env::temp_dir().join("psme-obs-artifact-test");
        std::env::set_var("PSME_BENCH_DIR", &dir);
        let doc = Json::obj([
            ("name", Json::from("fig_6_1")),
            ("speedups", Json::arr([Json::float(1.0), Json::float(7.5)])),
        ]);
        let path = write_artifact("test_rt", &doc).unwrap();
        std::env::remove_var("PSME_BENCH_DIR");
        assert_eq!(path, dir.join("BENCH_test_rt.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.ends_with('\n'));
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.get("name").unwrap().as_str(), Some("fig_6_1"));
        assert_eq!(back.get("speedups").unwrap().at(1).unwrap().as_f64(), Some(7.5));
        std::fs::remove_file(&path).ok();
    }
}
