//! Export of experiment results: CSV for downstream plotting and the
//! single versioned JSON schema shared by every benchmark artefact
//! (the `BENCH_*.json` files and the machine-readable blobs the
//! `benches/` targets print).
//!
//! Hand-rolled writers (no extra dependencies): CSV fields containing
//! commas, quotes or newlines are quoted per RFC 4180; JSON goes
//! through [`noc_telemetry::JsonValue`].

use crate::experiments::FigureResult;
use crate::microbench::Measurement;
use noc_telemetry::JsonValue;
use std::path::{Path, PathBuf};

/// Version stamp of the benchmark JSON schema. Every JSON artefact this
/// workspace emits or commits carries it as a top-level
/// `schema_version` field so downstream tooling can detect layout
/// changes. Bump on any incompatible change to [`bench_envelope`] or
/// the per-measurement row layout.
///
/// History: v1 = original envelope; v2 added the mandatory `topology`
/// field (`mesh` / `torus` / `cutmesh`) when the simulator grew
/// non-mesh topologies.
pub const SCHEMA_VERSION: u64 = 2;

/// Wrap benchmark `data` in the versioned envelope:
/// `{schema_version, name, description, topology, machine_note, data}`.
/// `topology` is the [`noc_types::TopologySpec::tag`] the measurements
/// ran on (`"mesh"` for everything predating the topology layer).
pub fn bench_envelope(
    name: &str,
    description: &str,
    topology: &str,
    machine_note: &str,
    data: JsonValue,
) -> JsonValue {
    JsonValue::Obj(vec![
        ("schema_version".into(), SCHEMA_VERSION.into()),
        ("name".into(), name.into()),
        ("description".into(), description.into()),
        ("topology".into(), topology.into()),
        ("machine_note".into(), machine_note.into()),
        ("data".into(), data),
    ])
}

/// One timing row in the shared schema: the measurement plus the
/// simulated-cycles-per-iteration context that turns `ns/iter` into the
/// `sim_cycles_per_second` / `ns_per_sim_cycle` figures the committed
/// artefacts report.
pub fn measurement_json(m: &Measurement, cycles_per_iter: u64) -> JsonValue {
    let per_cycle = m.ns_per_iter / cycles_per_iter as f64;
    JsonValue::Obj(vec![
        ("bench".into(), m.name.as_str().into()),
        (
            "sim_cycles_per_second".into(),
            ((m.per_second() * cycles_per_iter as f64).round() as u64).into(),
        ),
        ("ns_per_sim_cycle".into(), JsonValue::Num(per_cycle)),
    ])
}

/// Where a bench binary's `BENCH_*.json` goes: a full run re-records
/// the committed artefact in the current directory, a `--quick` smoke
/// writes under [`default_dir`] — CI runs the smokes from the repository
/// root and must not replace full-scale numbers with quick-scale ones.
fn bench_dir(quick: bool) -> PathBuf {
    if quick {
        default_dir()
    } else {
        PathBuf::from(".")
    }
}

/// Write a bench artefact to `<name>.json` in [`bench_dir`]`(quick)`,
/// creating the directory.
pub fn write_json(quick: bool, name: &str, value: &JsonValue) -> std::io::Result<PathBuf> {
    let dir = bench_dir(quick);
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, value.render() + "\n")?;
    Ok(path)
}

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

    #[test]
    fn quick_runs_do_not_write_over_committed_artefacts() {
        assert_eq!(bench_dir(false), Path::new("."));
        assert_eq!(bench_dir(true), default_dir());
        assert!(default_dir().starts_with("target"), "git-ignored");
    }

    #[test]
    fn bench_envelope_is_versioned_and_parses() {
        let m = Measurement {
            name: "mesh_8x8/uniform_0.02".to_string(),
            ns_per_iter: 2_000_000.0,
            iters_per_sample: 10,
            samples: 7,
        };
        let env = bench_envelope(
            "demo",
            "a demo artefact",
            "mesh",
            "test machine",
            JsonValue::Arr(vec![measurement_json(&m, 2_000)]),
        );
        let doc = JsonValue::parse(&env.render()).expect("envelope renders valid JSON");
        assert_eq!(
            doc.get("schema_version").unwrap().as_u64(),
            Some(SCHEMA_VERSION)
        );
        assert_eq!(doc.get("name").unwrap().as_str(), Some("demo"));
        assert_eq!(doc.get("topology").unwrap().as_str(), Some("mesh"));
        let rows = doc.get("data").unwrap().as_array().unwrap();
        // 2ms/iter at 2000 cycles/iter = 1us per simulated cycle.
        assert_eq!(
            rows[0].get("ns_per_sim_cycle").unwrap().as_f64(),
            Some(1000.0)
        );
        assert_eq!(
            rows[0].get("sim_cycles_per_second").unwrap().as_u64(),
            Some(1_000_000)
        );
    }

    #[test]
    fn committed_bench_artefacts_carry_the_schema_version() {
        // The repo-root BENCH_*.json files must stay on the shared
        // schema; this pins them without re-running the benches.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("..");
        for entry in std::fs::read_dir(&root).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().to_string();
            if !name.starts_with("BENCH_") || !name.ends_with(".json") {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let doc = JsonValue::parse(&text)
                .unwrap_or_else(|e| panic!("{name} is not valid JSON: {e:?}"));
            assert_eq!(
                doc.get("schema_version").and_then(|v| v.as_u64()),
                Some(SCHEMA_VERSION),
                "{name} must carry schema_version"
            );
            assert!(
                doc.get("description").is_some(),
                "{name} must carry a description"
            );
            let topo = doc.get("topology").and_then(|v| v.as_str());
            assert!(
                matches!(
                    topo,
                    Some("mesh" | "torus" | "cutmesh" | "chipletmesh" | "chipletstar")
                ),
                "{name} must carry a known topology tag, got {topo:?}"
            );
        }
    }
}
