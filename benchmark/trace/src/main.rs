//! `ledger-trace`: the half of the perf ledger that links the crates.
//!
//! It re-runs one workload in this process with spans around the calls
//! into each layer's public functions and prints the per-layer metrics
//! as one JSON object on the last line of standard output. `ledger
//! --trace 1` starts it; it is not meant to be started by hand, though
//! nothing stops that.
//!
//! The public functions called here (see the `use` lines of each module)
//! are the benchmark's whole contact surface with the crates. A change
//! that renames one of them needs a change to this package first.

mod campaign;
mod daemon;
mod kernels;
mod sim;

use noc_ledger::checks::Tally;
use noc_ledger::json::Json;
use noc_ledger::spans::{chrome_trace, Recorder};
use noc_ledger::spec::PER_LAYER;
use std::collections::BTreeMap;
use std::time::Instant;

/// What a traced workload hands back.
#[derive(Default)]
pub struct Traced {
    /// Per-layer metric name → value. Names that stay unset are layers
    /// off this workload's path; they are reported as `0`.
    pub metrics: BTreeMap<&'static str, f64>,
    /// The simulated statistics of the in-process run, which `ledger`
    /// holds against those of the real binary.
    pub mean_latency_cycles: f64,
    pub survival_frac: f64,
    pub delivered: u64,
    /// In-process operations run, and those that violated an output check.
    pub tally: Tally,
}

impl Traced {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not declared"
        );
        self.metrics.insert(name, value);
    }

    /// Count one in-process operation and whether its checks held.
    pub fn checked(&mut self, outcome: Result<(), String>) {
        self.tally.record(outcome);
    }
}

/// Wall time of `f` in nanoseconds, and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_nanos() as u64)
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Seconds the in-process runs may take, roughly.
    pub seconds: f64,
    /// Median wall of the real binary's set-up command, for
    /// `cli.overhead_ms`.
    pub setup_ms: f64,
    pub out_dir: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        setup_ms: 0.0,
        out_dir: "benchmark/out".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: bad value {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--setup-ms" => args.setup_ms = value.parse().map_err(|_| bad())?,
            "--out-dir" => args.out_dir = value,
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(args)
}

fn run() -> Result<(), String> {
    // The crates read NOC_SIM_THREADS, NOC_TOPOLOGY, NOC_ROUTING and
    // NOC_SIM_REBALANCE from the environment. None may leak in here:
    // every knob is set explicitly per workload. No thread exists yet.
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("NOC_") {
            std::env::remove_var(name);
        }
    }
    let args = parse_args()?;
    let mut rec = Recorder::new();
    let traced = match args.workload.as_str() {
        "campaign_mesh" => campaign::trace(&args, &mut rec)?,
        "daemon_jobs" => daemon::trace(&args, &mut rec)?,
        name => sim::trace(name, &args, &mut rec)?,
    };

    let path = format!("{}/trace_{}.json", args.out_dir, args.workload);
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("creating {}: {e}", args.out_dir))?;
    std::fs::write(&path, chrome_trace(rec.spans()).render())
        .map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!("ledger-trace: {} spans in {path}", rec.spans().len());

    let metrics = PER_LAYER.iter().map(|m| {
        let value = traced.metrics.get(m.name).copied().unwrap_or(0.0);
        (m.name, Json::Num(value))
    });
    let out = Json::obj([
        ("metrics", Json::obj(metrics)),
        (
            "check",
            Json::obj([
                ("mean_latency_cycles", Json::Num(traced.mean_latency_cycles)),
                ("survival_frac", Json::Num(traced.survival_frac)),
                ("delivered", Json::from(traced.delivered)),
            ]),
        ),
        ("attempted", Json::from(traced.tally.attempted)),
        ("failed", Json::from(traced.tally.failed)),
        (
            "first_error",
            traced
                .tally
                .first_error
                .as_deref()
                .map_or(Json::Null, Json::from),
        ),
    ]);
    println!("{}", out.render());
    Ok(())
}

fn main() -> std::process::ExitCode {
    match run() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ledger-trace: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}
