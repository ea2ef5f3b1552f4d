//! `ledger run`: a set of benchmark runs, every workload at several
//! seeds, written to one file that `ledger compare` reads.
//!
//! Runs are ordered repetition-major (every workload at seed 1, then
//! every workload at seed 2, ...; run `i` of every set has seed `i`, so
//! two sets pair run by run), so that drift of the machine spreads
//! evenly over the workloads and does not land on the last one. Each
//! run is this executable started again with the flags the benchmark
//! contract gives it, so a set measures exactly what a single run does.

use crate::child::run as run_child;
use crate::compare::read_bounds;
use crate::host;
use crate::json::Json;
use crate::run::result_path;
use crate::spec::{metrics_of, WORKLOADS};
use crate::stats::{quartiles, spread};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

struct SetArgs {
    out: String,
    runs: u64,
    seconds: String,
    traces: Vec<bool>,
}

fn parse_args(args: &[String]) -> Result<SetArgs, String> {
    let mut set = SetArgs {
        out: String::new(),
        runs: 10,
        seconds: "20".into(),
        traces: vec![false],
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {value:?} is not a whole number"))
        };
        match flag.as_str() {
            "--out" => set.out = value.clone(),
            "--runs" => set.runs = number()?.max(1),
            "--seconds" => set.seconds = value.clone(),
            "--trace" => {
                set.traces = match value.as_str() {
                    "0" => vec![false],
                    "1" => vec![true],
                    "both" => vec![false, true],
                    _ => return Err(format!("--trace: {value:?} is not 0, 1 or both")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if set.out.is_empty() {
        return Err("ledger run needs --out FILE".into());
    }
    Ok(set)
}

/// Metric name → one value per run.
type Samples = BTreeMap<String, Vec<f64>>;

#[derive(Default)]
struct WorkloadSet {
    end_to_end: Samples,
    per_layer: Samples,
    digests: BTreeMap<u64, String>,
    attempted: f64,
    failed: f64,
}

fn samples_json(samples: &Samples) -> Json {
    Json::obj(
        samples
            .iter()
            .map(|(name, v)| (name.as_str(), Json::nums(v))),
    )
}

pub fn run_set(args: &[String]) -> Result<(), String> {
    let set = parse_args(args)?;
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut sets: BTreeMap<String, WorkloadSet> = BTreeMap::new();
    for seed in 1..=set.runs {
        for workload in WORKLOADS.iter().map(|w| w.name) {
            for &trace in &set.traces {
                let flag = if trace { "1" } else { "0" };
                eprintln!("ledger run: {workload} seed {seed} trace {flag}");
                let mut cmd = Command::new(&exe);
                cmd.args(["--workload", workload, "--seed", &seed.to_string()])
                    .args(["--seconds", &set.seconds, "--trace", flag]);
                let ended = run_child(cmd).map_err(|e| format!("starting a run: {e}"))?;
                if !ended.succeeded() {
                    return Err(format!(
                        "{workload} seed {seed} trace {flag} exited with {:?}: {}",
                        ended.code,
                        ended.stderr.trim()
                    ));
                }
                let result = Json::parse(ended.stdout.lines().last().unwrap_or(""))?;
                let entry = sets.entry(workload.to_string()).or_default();
                entry.attempted += result
                    .get("attempted")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0);
                entry.failed += result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
                let samples = if trace {
                    &mut entry.per_layer
                } else {
                    &mut entry.end_to_end
                };
                for (name, m) in result
                    .get("metrics")
                    .and_then(Json::as_object)
                    .unwrap_or(&[])
                {
                    let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                    samples.entry(name.clone()).or_default().push(value);
                }
                // The digest is not part of the result line; the run
                // left it in its result file.
                let digest = std::fs::read_to_string(result_path(workload, trace))
                    .ok()
                    .and_then(|t| Json::parse(&t).ok())
                    .and_then(|d| d.get("digest")?.as_str().map(str::to_string));
                if let (false, Some(d)) = (trace, digest) {
                    entry.digests.insert(seed, d);
                }
            }
        }
    }

    let doc = Json::obj([
        ("host", host::facts()),
        ("seconds", Json::from(set.seconds.as_str())),
        ("runs", Json::from(set.runs)),
        (
            "workloads",
            Json::obj(sets.iter().map(|(name, w)| {
                (
                    name.as_str(),
                    Json::obj([
                        ("ops_attempted", Json::Num(w.attempted)),
                        ("ops_failed", Json::Num(w.failed)),
                        (
                            "digests",
                            Json::obj(
                                w.digests
                                    .iter()
                                    .map(|(seed, d)| (seed.to_string(), Json::from(d.as_str()))),
                            ),
                        ),
                        ("end_to_end", samples_json(&w.end_to_end)),
                        ("per_layer", samples_json(&w.per_layer)),
                    ]),
                )
            })),
        ),
    ]);
    std::fs::write(&set.out, doc.render()).map_err(|e| format!("writing {}: {e}", set.out))?;

    // The spreads the acceptance check looks at, beside their bounds.
    let bounds = read_bounds(Path::new("BENCHMARK.json")).unwrap_or_default();
    for (name, w) in &sets {
        println!(
            "{name}: ops_attempted {} ops_failed {}",
            w.attempted, w.failed
        );
        for (trace, samples) in [(false, &w.end_to_end), (true, &w.per_layer)] {
            for m in metrics_of(trace) {
                let Some(values) = samples.get(m.name) else {
                    continue;
                };
                let [q1, q2, q3] = quartiles(values);
                let share = spread(values);
                let note = match bounds.get(m.name) {
                    Some(b) if share > b.bound => format!("bound {:.3} EXCEEDED", b.bound),
                    Some(b) if share > b.bound / 3.0 => {
                        format!("bound {:.3}, spread above a third of it", b.bound)
                    }
                    Some(b) => format!("bound {:.3}", b.bound),
                    None => String::new(),
                };
                println!(
                    "  {:<34} median {q2:>14.4} {:<8} q1 {q1:.4} q3 {q3:.4} n={} spread {share:.4} {note}",
                    m.name,
                    m.unit,
                    values.len()
                );
            }
        }
    }
    println!("wrote {}", set.out);
    Ok(())
}
