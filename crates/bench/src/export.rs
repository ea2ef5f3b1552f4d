//! Export of experiment results as CSV for downstream plotting.
//!
//! Hand-rolled writer (no extra dependencies): fields containing
//! commas, quotes or newlines are quoted per RFC 4180.

use crate::experiments::FigureResult;
use std::path::{Path, PathBuf};

/// Escape one CSV field.
fn field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Render rows (first row = header) as CSV text.
pub fn to_csv(rows: &[Vec<String>]) -> String {
    rows.iter()
        .map(|r| r.iter().map(|c| field(c)).collect::<Vec<_>>().join(","))
        .collect::<Vec<_>>()
        .join("\n")
        + "\n"
}

/// The default output directory for experiment CSVs.
pub fn default_dir() -> PathBuf {
    PathBuf::from("target/experiments")
}

/// Write rows to `<dir>/<name>.csv`, creating the directory.
pub fn write_csv(dir: &Path, name: &str, rows: &[Vec<String>]) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.csv"));
    std::fs::write(&path, to_csv(rows))?;
    Ok(path)
}

/// Write an experiment's rows (first row = header) to
/// `target/experiments/<name>.csv` and say so on stderr; a failed export
/// is reported, not fatal — the tables on stdout are the result.
pub(crate) fn export_csv(name: &str, rows: &[Vec<String>]) {
    match write_csv(&default_dir(), name, rows) {
        Ok(path) => eprintln!("csv written to {}", path.display()),
        Err(e) => eprintln!("csv export skipped: {e}"),
    }
}

/// CSV rows for a latency figure.
pub fn figure_csv(result: &FigureResult) -> Vec<Vec<String>> {
    let mut rows = vec![vec![
        "application".to_string(),
        "latency_fault_free_cycles".to_string(),
        "latency_faulty_cycles".to_string(),
        "increase_pct".to_string(),
        "faults_injected".to_string(),
        "packets_delivered".to_string(),
    ]];
    for r in &result.rows {
        rows.push(vec![
            r.app.clone(),
            format!("{:.4}", r.latency_fault_free),
            format!("{:.4}", r.latency_faulty),
            format!("{:.4}", r.increase_pct),
            format!("{:.1}", r.faults_injected),
            format!("{:.0}", r.delivered),
        ]);
    }
    rows.push(vec![
        "OVERALL".to_string(),
        String::new(),
        String::new(),
        format!("{:.4}", result.overall_increase_pct),
        String::new(),
        String::new(),
    ]);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::FigureRow;
    use noc_traffic::Suite;

    #[test]
    fn fields_with_commas_are_quoted() {
        let rows = vec![
            vec!["a".to_string(), "plain".to_string()],
            vec!["b,c".to_string(), "say \"hi\"".to_string()],
        ];
        let csv = to_csv(&rows);
        assert_eq!(csv, "a,plain\n\"b,c\",\"say \"\"hi\"\"\"\n");
    }

    #[test]
    fn figure_csv_shape() {
        let result = FigureResult {
            suite: Suite::Splash2,
            rows: vec![FigureRow {
                app: "fft".to_string(),
                latency_fault_free: 27.0,
                latency_faulty: 32.0,
                increase_pct: 18.5,
                faults_injected: 428.0,
                delivered: 1000.0,
            }],
            overall_increase_pct: 18.5,
        };
        let rows = figure_csv(&result);
        assert_eq!(rows.len(), 3, "header + 1 app + overall");
        assert_eq!(rows[0][0], "application");
        assert_eq!(rows[1][0], "fft");
        assert_eq!(rows[2][0], "OVERALL");
        let csv = to_csv(&rows);
        assert!(csv.contains("18.5000"));
    }

    #[test]
    fn write_csv_roundtrips_to_disk() {
        let dir = std::env::temp_dir().join("shield_noc_csv_test");
        let rows = vec![vec!["x".to_string()], vec!["1".to_string()]];
        let path = write_csv(&dir, "demo", &rows).unwrap();
        let read = std::fs::read_to_string(&path).unwrap();
        assert_eq!(read, "x\n1\n");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
