//! Plain-text table rendering and JSON result persistence shared by the
//! experiments.

use std::fmt::Write as _;
use std::path::Path;

use serde::Serialize;

/// Renders an aligned plain-text table. `header` and every row must have
/// the same number of columns; shorter rows are padded with empty cells.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let columns = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for c in 0..columns {
            let len = row.get(c).map(String::len).unwrap_or(0);
            if len > widths[c] {
                widths[c] = len;
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let mut line = String::new();
    for (c, h) in header.iter().enumerate() {
        let _ = write!(line, "{:width$}  ", h, width = widths[c]);
    }
    let _ = writeln!(out, "{}", line.trim_end());
    let _ = writeln!(out, "{}", "-".repeat(line.trim_end().len()));
    for row in rows {
        let mut line = String::new();
        for c in 0..columns {
            let cell = row.get(c).map(String::as_str).unwrap_or("");
            let _ = write!(line, "{:width$}  ", cell, width = widths[c]);
        }
        let _ = writeln!(out, "{}", line.trim_end());
    }
    out
}

/// Formats a probability/accuracy as a percentage with two decimals, the
/// style used by the paper's Table 3.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

/// Formats a duration in seconds with three decimals.
pub fn secs(x: f64) -> String {
    format!("{x:.3}s")
}

/// Serialises `value` as pretty JSON into `path` (creating parent
/// directories), returning the serialised string as well. Failures to
/// write are reported but not fatal (the text table is the primary
/// output).
pub fn write_json<T: Serialize>(path: &Path, value: &T) -> std::io::Result<String> {
    let json = serde_json::to_string_pretty(value).map_err(std::io::Error::other)?;
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, &json)?;
    Ok(json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_aligns_columns() {
        let text = render_table(
            "demo",
            &["data set", "accuracy"],
            &[
                vec!["Iris".to_string(), "96.13%".to_string()],
                vec!["JapaneseVowel".to_string(), "87.30%".to_string()],
            ],
        );
        assert!(text.contains("== demo =="));
        assert!(text.contains("data set"));
        // The accuracy column starts at the same offset in both rows.
        let lines: Vec<&str> = text.lines().collect();
        let iris = lines.iter().find(|l| l.starts_with("Iris")).unwrap();
        let jv = lines
            .iter()
            .find(|l| l.starts_with("JapaneseVowel"))
            .unwrap();
        assert_eq!(iris.find("96.13%"), jv.find("87.30%"));
    }

    #[test]
    fn short_rows_are_padded() {
        let text = render_table("t", &["a", "b", "c"], &[vec!["x".to_string()]]);
        assert!(text.lines().count() >= 4);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.8731), "87.31%");
        assert_eq!(secs(1.23456), "1.235s");
    }

    #[test]
    fn json_roundtrip_to_disk() {
        let dir = std::env::temp_dir().join("udt-eval-test");
        let path = dir.join("result.json");
        let json = write_json(&path, &vec![1, 2, 3]).unwrap();
        assert!(json.contains('1'));
        let read = std::fs::read_to_string(&path).unwrap();
        assert_eq!(read, json);
        let _ = std::fs::remove_file(&path);
    }
}
