//! `BENCHMARK.json` at the root of the repository and the ledger's own
//! tables must name the same workloads and metrics, with the same units,
//! and the file must keep within the limits its readers enforce.

use noc_ledger::json::Json;
use noc_ledger::spec::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use noc_ledger::workloads::CLI_WORKLOADS;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is at the repository root");
    assert!(
        text.len() <= 64 * 1024,
        "BENCHMARK.json is larger than 64 KiB"
    );
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn text<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{} has no string `{key}`", v.render()))
}

fn keys(v: &Json) -> Vec<&str> {
    v.as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

/// A name starts with a letter or digit and is at most 64 letters,
/// digits, `_`, `.` and `-`.
fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// A unit is at most 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn assert_declares(section: &[Json], table: &[Metric], with_bound: bool) {
    let declared: Vec<(&str, &str, &str)> = section
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
        .collect();
    let measured: Vec<(&str, &str, &str)> =
        table.iter().map(|m| (m.name, m.unit, m.better)).collect();
    assert_eq!(declared, measured, "BENCHMARK.json and spec.rs disagree");
    for m in section {
        let expected: &[&str] = if with_bound {
            &["name", "unit", "better", "bound"]
        } else {
            &["name", "unit", "better"]
        };
        assert_eq!(keys(m), expected);
        assert!(
            is_name(text(m, "name")),
            "bad metric name {}",
            text(m, "name")
        );
        assert!(is_unit(text(m, "unit")), "bad unit {}", text(m, "unit"));
        assert!(matches!(text(m, "better"), "higher" | "lower"));
    }
}

#[test]
fn file_has_exactly_the_contract_keys_and_limits() {
    let doc = benchmark_json();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let command = doc.get("command").unwrap().as_array().unwrap();
    assert!(!command.is_empty() && command.len() <= 32);
    for arg in command {
        let arg = arg.as_str().expect("command arguments are strings");
        assert!(arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."));
    }
    assert_eq!(doc.get("paths").unwrap().render(), r#"["benchmark"]"#);
    let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
    // The benchmark's reader makes 4 + 22 runs a workload. With 5 s of
    // set-up a run and two builds of 2 minutes they must fit in 3420 s.
    let runs = 4.0 + 22.0 * WORKLOADS.len() as f64;
    assert!(runs * (seconds + 5.0) + 2.0 * 120.0 < 3420.0);
}

#[test]
fn declared_workloads_are_the_measured_ones() {
    let doc = benchmark_json();
    let declared = doc.get("workloads").unwrap().as_array().unwrap();
    assert!((2..=8).contains(&declared.len()));
    let declared: Vec<(&str, &str)> = declared
        .iter()
        .map(|w| {
            assert_eq!(keys(w), ["name", "why"]);
            (text(w, "name"), text(w, "why"))
        })
        .collect();
    let measured: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(declared, measured);
    for (name, why) in measured {
        assert!(is_name(name), "bad workload name {name}");
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "{name}: why is too long"
        );
    }
    // Every workload but the daemon's is one of the CLI workloads.
    for w in &CLI_WORKLOADS {
        assert!(
            WORKLOADS.iter().any(|d| d.name == w.name),
            "{} is undeclared",
            w.name
        );
    }
    assert_eq!(CLI_WORKLOADS.len() + 1, WORKLOADS.len());
}

#[test]
fn declared_metrics_are_the_measured_ones() {
    let doc = benchmark_json();
    let end_to_end = doc.get("end_to_end").unwrap().as_array().unwrap();
    let per_layer = doc.get("per_layer").unwrap().as_array().unwrap();
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));
    assert_declares(end_to_end, &END_TO_END, true);
    assert_declares(per_layer, &PER_LAYER, false);
    for m in end_to_end {
        let bound = m.get("bound").and_then(Json::as_f64).expect("a bound");
        assert!(
            (0.0..=0.25).contains(&bound),
            "{} has bound {bound}",
            text(m, "name")
        );
    }
    let setup = end_to_end
        .iter()
        .find(|m| text(m, "name") == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!((text(setup, "unit"), text(setup, "better")), ("s", "lower"));
    let largest = end_to_end
        .iter()
        .filter_map(|m| m.get("bound").and_then(Json::as_f64))
        .fold(0.0, f64::max);
    assert_eq!(setup.get("bound").and_then(Json::as_f64), Some(largest));
}

#[test]
fn every_name_is_used_once() {
    let mut names: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name))
        .collect();
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");
}
