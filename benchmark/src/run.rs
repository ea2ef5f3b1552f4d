//! One benchmark run: `ledger --workload W --seed S --seconds N --trace T`.
//!
//! With `--trace 0` the programs are driven from outside and the
//! end-to-end metrics reported; with `--trace 1` the workload is re-run
//! inside `ledger-trace` with spans around each layer and the per-layer
//! metrics reported. Either way the last line of standard output is the
//! result object; everything a person reads comes before it.

use crate::checks::{OpStats, Tally};
use crate::child::{clean_env, run as run_child};
use crate::json::Json;
use crate::programs::{self, Programs};
use crate::spans::chrome_trace;
use crate::spec::{self, metrics_of};
use crate::stats::{percentile, quartiles};
use crate::workloads::{cli_workload, Measured};
use crate::{daemon, host};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Where result, trace and spool files go, relative to the checkout so
/// that a path a program echoes is the same in every checkout.
pub const OUT_DIR: &str = "benchmark/out";

#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Parse `--workload W --seed S --seconds N --trace 0|1` (any order;
/// seed, seconds and trace have defaults 1, 20 and 0).
pub fn parse_args(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => run.workload = value.clone(),
            "--seed" => run.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                run.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(run.seconds > 0.0 && run.seconds <= 600.0) {
                    return Err(bad("between 0 and 600"));
                }
            }
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if spec::workload(&run.workload).is_none() {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "--workload must be one of {}; got {:?}",
            names.join(", "),
            run.workload
        ));
    }
    Ok(run)
}

/// The result object: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the metrics being exactly the declared ones with their
/// declared units. An undeclared, missing or non-finite metric is an
/// error, and so is an end-to-end metric of `0`.
pub fn result_line(
    trace: bool,
    metrics: &BTreeMap<String, f64>,
    tally: &Tally,
) -> Result<String, String> {
    let declared = metrics_of(trace);
    if let Some(extra) = metrics
        .keys()
        .find(|k| !declared.iter().any(|m| m.name == k.as_str()))
    {
        return Err(format!("metric {extra:?} is measured but not declared"));
    }
    let mut entries = Vec::with_capacity(declared.len());
    for m in declared {
        let value = *metrics
            .get(m.name)
            .ok_or_else(|| format!("metric {:?} is declared but was not measured", m.name))?;
        if !value.is_finite() || (!trace && value == 0.0) {
            return Err(format!("metric {:?} has the value {value}", m.name));
        }
        entries.push((
            m.name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::from(m.unit))]),
        ));
    }
    Ok(Json::obj([
        ("correct", Json::from(tally.failed == 0)),
        ("attempted", Json::from(tally.attempted)),
        ("failed", Json::from(tally.failed)),
        ("metrics", Json::obj(entries)),
    ])
    .render())
}

/// Run `ledger-trace` on the workload and parse the object it prints.
fn in_process(tracer: &Path, args: &RunArgs, seconds: f64, setup_ms: f64) -> Result<Json, String> {
    let mut cmd = Command::new(tracer);
    cmd.args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--setup-ms", &setup_ms.to_string()])
        .args(["--out-dir", OUT_DIR]);
    clean_env(&mut cmd, &[]);
    let ended = run_child(cmd).map_err(|e| format!("spawning {}: {e}", tracer.display()))?;
    eprint!("{}", ended.stderr);
    if !ended.succeeded() {
        return Err(format!("ledger-trace exited with {:?}", ended.code));
    }
    let line = ended.stdout.lines().last().unwrap_or("");
    Json::parse(line).map_err(|e| format!("ledger-trace output: {e}"))
}

/// An error unless the in-process run simulated what the binary did:
/// the layer numbers describe the end-to-end run only if it is the same
/// simulation.
fn same_simulation(binary: &OpStats, traced: &Json) -> Result<(), String> {
    let check = |key: &str, want: f64, tolerance: f64| {
        let got = traced
            .at(&format!("check/{key}"))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("ledger-trace reported no {key}"))?;
        if (got - want).abs() <= tolerance {
            Ok(())
        } else {
            Err(format!(
                "in-process {key} {got} differs from the binary's {want}"
            ))
        }
    };
    // The CLI prints the mean latency with two decimals.
    check(
        "mean_latency_cycles",
        binary.mean_latency_cycles,
        0.005 + 1e-9,
    )?;
    check("survival_frac", binary.survival_frac, 1e-12)?;
    check("delivered", binary.delivered as f64, 0.0)
}

/// The per-layer run. The in-process half takes most of `--seconds`;
/// one operation of the real binary anchors it.
fn per_layer(programs: &Programs, args: &RunArgs, out_dir: &Path) -> Result<Measured, String> {
    let tracer = programs::build_tracer()?;
    let mut tally = Tally::default();
    // Metrics measured from outside the process; the tracer fills in the
    // rest.
    let (traced, mut metrics) = if let Some(w) = cli_workload(&args.workload) {
        let setup_s = w.setup_s(&programs.cli, args.seed)?;
        let binary = w.operation(&programs.cli, args.seed, out_dir, &mut tally);
        let traced = in_process(&tracer, args, args.seconds, setup_s * 1e3)?;
        if let Some((_, stats)) = binary {
            tally.record(same_simulation(&stats, &traced));
        }
        (traced, BTreeMap::new())
    } else {
        let (outside, spans) = daemon::traced(
            &programs.serviced,
            args.seed,
            args.seconds / 2.0,
            out_dir,
            &mut tally,
        )?;
        let path = out_dir.join(format!("trace_{}_client.json", args.workload));
        std::fs::write(&path, chrome_trace(spans.spans()).render())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        (in_process(&tracer, args, args.seconds / 2.0, 0.0)?, outside)
    };
    let count = |key: &str| traced.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
    tally.attempted += count("attempted");
    tally.failed += count("failed");
    if let Some(e) = traced.get("first_error").and_then(Json::as_str) {
        tally.first_error.get_or_insert(e.to_string());
    }
    let inside = traced
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or("ledger-trace reported no metrics")?;
    for (name, value) in inside {
        let value = value
            .as_f64()
            .ok_or_else(|| format!("metric {name} is not a number"))?;
        // What was measured from outside the process wins over the
        // tracer's placeholder for it.
        metrics.entry(name.clone()).or_insert(value);
    }
    Ok(Measured {
        metrics,
        tally,
        detail: traced.get("detail").cloned().unwrap_or(Json::Null),
    })
}

/// Where a run of `workload` leaves its result file: the result line
/// plus what the line has no room for (host facts, digest, samples).
pub fn result_path(workload: &str, trace: bool) -> PathBuf {
    Path::new(OUT_DIR).join(format!("result_{workload}_t{}.json", u8::from(trace)))
}

/// Run the benchmark once and print its result.
pub fn run(args: &RunArgs) -> Result<(), String> {
    let out_dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(out_dir).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let programs = programs::build()?;
    let measured = if args.trace {
        per_layer(&programs, args, out_dir)?
    } else if let Some(w) = cli_workload(&args.workload) {
        w.measure(&programs.cli, args.seed, args.seconds, out_dir)?
    } else {
        daemon::measure(&programs.serviced, args.seed, args.seconds, out_dir)?
    };
    let line = result_line(args.trace, &measured.metrics, &measured.tally)?;

    let facts = host::facts();
    println!(
        "ledger: workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("  host: {}", facts.render());
    println!(
        "  build_s {:.3} (cargo build of the programs; not a metric)",
        programs.build_s
    );
    for m in metrics_of(args.trace) {
        let clock = if m.exact {
            "repeats exactly"
        } else {
            "host time"
        };
        println!(
            "  {:<34} {:>16.4} {:<8} ({clock}, {} is better)",
            m.name, measured.metrics[m.name], m.unit, m.better
        );
    }
    if let Some(walls) = measured.detail.get("op_wall_ms").and_then(Json::as_array) {
        let walls: Vec<f64> = walls.iter().filter_map(Json::as_f64).collect();
        let [q1, q2, q3] = quartiles(&walls);
        let min = walls.iter().copied().fold(f64::INFINITY, f64::min);
        println!(
            "  operation wall ms: n={} min {min:.3} q1 {q1:.3} median {q2:.3} q3 {q3:.3} p95 {:.3}",
            walls.len(),
            percentile(&walls, 95.0)
        );
    }
    let digest = format!("{:016x}", measured.tally.combined_digest());
    println!(
        "  ops_attempted {} ops_failed {} output digest {digest}{}",
        measured.tally.attempted,
        measured.tally.failed,
        measured
            .tally
            .first_error
            .as_ref()
            .map_or(String::new(), |e| format!(" first error: {e}"))
    );

    let file = Json::obj([
        ("host", facts),
        ("workload", Json::from(args.workload.as_str())),
        ("seed", Json::from(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::from(args.trace)),
        ("build_s", Json::Num(programs.build_s)),
        ("digest", Json::from(digest)),
        (
            "first_error",
            measured
                .tally
                .first_error
                .as_deref()
                .map_or(Json::Null, Json::from),
        ),
        ("detail", measured.detail),
        ("result", Json::parse(&line)?),
    ]);
    let path = result_path(&args.workload, args.trace);
    std::fs::write(&path, file.render()).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("{line}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_contract_flags() {
        let run = parse_args(&strings(&[
            "--workload",
            "sim_light",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            run,
            RunArgs {
                workload: "sim_light".into(),
                seed: 7,
                seconds: 3.0,
                trace: true
            }
        );
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--workload", "sim_light", "--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--workload", "sim_light", "--seconds", "0"])).is_err());
        assert!(parse_args(&strings(&["--workload"])).is_err());
        assert!(parse_args(&[]).is_err());
    }

    fn all_metrics(trace: bool) -> BTreeMap<String, f64> {
        metrics_of(trace)
            .iter()
            .map(|m| (m.name.to_string(), 1.5))
            .collect()
    }

    #[test]
    fn result_line_holds_exactly_the_declared_metrics() {
        for trace in [false, true] {
            let line = result_line(trace, &all_metrics(trace), &Tally::default()).unwrap();
            let doc = Json::parse(&line).unwrap();
            let keys: Vec<&str> = doc
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let printed = doc.get("metrics").unwrap().as_object().unwrap();
            assert_eq!(printed.len(), metrics_of(trace).len());
            for (m, (name, v)) in metrics_of(trace).iter().zip(printed) {
                assert_eq!(m.name, name);
                assert_eq!(v.get("unit").and_then(Json::as_str), Some(m.unit));
                assert_eq!(v.get("value").and_then(Json::as_f64), Some(1.5));
            }
        }
    }

    #[test]
    fn result_line_refuses_missing_undeclared_and_zero_metrics() {
        let mut missing = all_metrics(false);
        missing.remove("setup_s");
        assert!(result_line(false, &missing, &Tally::default()).is_err());
        let mut extra = all_metrics(false);
        extra.insert("made_up".into(), 1.0);
        assert!(result_line(false, &extra, &Tally::default()).is_err());
        let mut zero = all_metrics(false);
        zero.insert("work_per_s".into(), 0.0);
        assert!(result_line(false, &zero, &Tally::default()).is_err());
        // A layer off the workload's path reports 0.
        let mut idle = all_metrics(true);
        idle.insert("sim.par_speedup".into(), 0.0);
        assert!(result_line(true, &idle, &Tally::default()).is_ok());
        let mut nan = all_metrics(true);
        nan.insert("sim.par_speedup".into(), f64::NAN);
        assert!(result_line(true, &nan, &Tally::default()).is_err());
    }

    #[test]
    fn a_failed_operation_makes_the_run_incorrect() {
        let mut tally = Tally::default();
        tally.record(Ok(()));
        tally.record::<()>(Err("misdelivered".into()));
        let doc = Json::parse(&result_line(false, &all_metrics(false), &tally).unwrap()).unwrap();
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(2.0));
        assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(1.0));
    }
}
