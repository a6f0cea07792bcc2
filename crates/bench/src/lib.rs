//! Shared helpers for the figure/table harnesses.
//!
//! Five binaries regenerate one table or figure of the paper each (see
//! DESIGN.md's per-experiment index):
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1_loc` | Table I (LOC written with the tool vs direct runtime code) |
//! | `fig3_container_trace` | the Fig. 3 smart-container walkthrough |
//! | `fig5_spmv_hybrid` | Fig. 5 (hybrid SpMV speedups over direct CUDA) |
//! | `fig6_dynamic_scheduling` | Fig. 6a/6b (OpenMP vs CUDA vs TGPA, two platforms) |
//! | `fig7_ode_overhead` | Fig. 7 (ODE solver runtimes; composition overhead) |
//!
//! `task_throughput` measures §V-E's per-task overhead (its
//! `job_independent` and `chain` cells time every task to completion).
//! The others gate the runtime's extensions beyond the paper:
//! `ooc_spmv`, `dmdar_locality`, `p2p_pingpong`, `graph_replay`,
//! `partition_scaling` and `adapt_drift`.

use std::path::{Path, PathBuf};

/// Counts logical source lines: non-blank lines that are not pure
/// comments (Park's SEI counting conventions, as Table I cites).
pub fn logical_loc(source: &str) -> usize {
    source
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .filter(|l| !l.starts_with("//") && !l.starts_with("/*") && !l.starts_with('*'))
        .count()
}

/// Extracts the region between `// LOC:{tag}:BEGIN` and `// LOC:{tag}:END`.
pub fn marked_region(source: &str, tag: &str) -> Option<String> {
    let begin = format!("// LOC:{tag}:BEGIN");
    let end = format!("// LOC:{tag}:END");
    let start = source.find(&begin)? + begin.len();
    let stop = source.find(&end)?;
    Some(source[start..stop].to_string())
}

/// Root of the `peppher-apps` crate sources (resolved relative to this
/// crate so the harness works from any working directory).
pub fn apps_src_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../apps/src")
}

/// An aligned plain-text table printer.
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders with padded columns.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths = vec![0usize; ncols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = h.chars().count();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
                .trim_end()
                .to_string()
        };
        let mut out = fmt_row(&self.header);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Path of a bench binary's machine-readable sidecar,
/// `target/BENCH_<name>.json` at the workspace root.
pub fn bench_json_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../target/BENCH_{name}.json"))
}

/// Minimal JSON string escaping (quotes, backslashes, control chars) —
/// enough for link names and section labels; no external dependency.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Inserts or replaces one named section in the flat JSON-object sidecar
/// at `path`, preserving every other section. Each `fields` value must
/// already be a rendered JSON value (use [`json_str`] for strings). The
/// transfer benches each own one section, so CI can run them in any
/// order and upload a single artifact.
pub fn write_json_section(
    path: &Path,
    name: &str,
    fields: &[(&str, String)],
) -> std::io::Result<()> {
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    let mut sections = parse_flat_object(&existing);
    let body = fields
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect::<Vec<_>>()
        .join(",");
    sections.retain(|(k, _)| k != name);
    sections.push((name.to_string(), format!("{{{body}}}")));
    let rendered = format!(
        "{{{}}}\n",
        sections
            .iter()
            .map(|(k, v)| format!("{}:{v}", json_str(k)))
            .collect::<Vec<_>>()
            .join(",")
    );
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, rendered)
}

/// Splits a flat JSON object (`{"a":{...},"b":{...}}`) into
/// `(key, raw value)` pairs. Tolerant of a missing or malformed file —
/// anything unparseable yields an empty list and the sidecar is rebuilt
/// from scratch. Handles nesting and quoted strings but not every JSON
/// corner (it only ever reads files written by [`write_json_section`]).
fn parse_flat_object(src: &str) -> Vec<(String, String)> {
    let src = src.trim();
    let inner = match src.strip_prefix('{').and_then(|s| s.strip_suffix('}')) {
        Some(i) => i,
        None => return Vec::new(),
    };
    let mut out = Vec::new();
    let bytes: Vec<char> = inner.chars().collect();
    let mut i = 0;
    while i < bytes.len() {
        while i < bytes.len() && (bytes[i].is_whitespace() || bytes[i] == ',') {
            i += 1;
        }
        if i >= bytes.len() {
            break;
        }
        if bytes[i] != '"' {
            return Vec::new();
        }
        i += 1;
        let mut key = String::new();
        while i < bytes.len() && bytes[i] != '"' {
            if bytes[i] == '\\' {
                i += 1;
            }
            if i < bytes.len() {
                key.push(bytes[i]);
            }
            i += 1;
        }
        i += 1; // closing quote
        while i < bytes.len() && (bytes[i].is_whitespace() || bytes[i] == ':') {
            i += 1;
        }
        let start = i;
        let mut depth = 0i32;
        let mut in_str = false;
        while i < bytes.len() {
            let c = bytes[i];
            if in_str {
                if c == '\\' {
                    i += 1;
                } else if c == '"' {
                    in_str = false;
                }
            } else {
                match c {
                    '"' => in_str = true,
                    '{' | '[' => depth += 1,
                    '}' | ']' => depth -= 1,
                    ',' if depth == 0 => break,
                    _ => {}
                }
            }
            i += 1;
        }
        out.push((key, bytes[start..i].iter().collect::<String>()));
    }
    out
}

/// A unicode bar for quick visual comparison in terminal output.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 {
        return String::new();
    }
    let n = ((value / max) * width as f64).round() as usize;
    "█".repeat(n.min(width))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logical_loc_skips_blanks_and_comments() {
        let src = "\n// comment\nlet x = 1;\n\n/* block */\nlet y = 2; // trailing\n";
        assert_eq!(logical_loc(src), 2);
    }

    #[test]
    fn marked_region_extracts() {
        let src = "a\n// LOC:TOOL:BEGIN\nx\ny\n// LOC:TOOL:END\nb";
        assert_eq!(marked_region(src, "TOOL").unwrap().trim(), "x\ny");
        assert!(marked_region(src, "DIRECT").is_none());
    }

    #[test]
    fn apps_sources_are_reachable() {
        assert!(apps_src_dir().join("spmv/mod.rs").exists());
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(&["App", "LOC"]);
        t.row(&["spmv".into(), "293".into()]);
        let s = t.render();
        assert!(s.contains("App"));
        assert!(s.contains("spmv"));
    }

    #[test]
    fn bar_scales() {
        assert_eq!(bar(5.0, 10.0, 10), "█████");
        assert_eq!(bar(20.0, 10.0, 10).chars().count(), 10);
    }

    #[test]
    fn json_sections_round_trip_and_replace() {
        let dir = std::env::temp_dir().join("peppher_bench_json_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("BENCH_transfer.json");

        write_json_section(&path, "alpha", &[("makespan_ns", "42".into())]).unwrap();
        write_json_section(
            &path,
            "beta",
            &[("bytes", "7".into()), ("link", json_str("h2d:1"))],
        )
        .unwrap();
        // Re-writing a section replaces it without touching the others.
        write_json_section(&path, "alpha", &[("makespan_ns", "43".into())]).unwrap();

        let got = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            got.trim(),
            r#"{"beta":{"bytes":7,"link":"h2d:1"},"alpha":{"makespan_ns":43}}"#
        );
        let sections = parse_flat_object(got.trim());
        assert_eq!(sections.len(), 2);
        assert_eq!(sections[1].0, "alpha");
        assert_eq!(sections[1].1, r#"{"makespan_ns":43}"#);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn json_str_escapes() {
        assert_eq!(json_str(r#"a"b\c"#), r#""a\"b\\c""#);
        assert_eq!(json_str("x\ny"), "\"x\\u000ay\"");
    }
}
