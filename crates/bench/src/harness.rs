//! Simulation glue: configuration → report, with scale presets and
//! opt-in telemetry (`--trace`, `--sample-every`).

use noc_faults::FaultPlan;
use noc_sim::{NetworkReport, Simulator};
use noc_traffic::{TrafficConfig, TrafficGenerator};
use noc_types::{NetworkConfig, SimConfig, TopologySpec};
use shield_router::RouterKind;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// How big an experiment to run. Binaries map `--quick` to
/// [`ExperimentScale::Quick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentScale {
    /// Short windows, one seed — CI and smoke runs (seconds).
    Quick,
    /// The defaults used for the committed EXPERIMENTS.md numbers.
    Full,
}

impl ExperimentScale {
    /// Parse from process args: `--quick` anywhere selects Quick.
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--quick") {
            ExperimentScale::Quick
        } else {
            ExperimentScale::Full
        }
    }

    /// The simulation window for this scale.
    pub fn sim_config(self, seed: u64) -> SimConfig {
        match self {
            ExperimentScale::Quick => SimConfig {
                warmup_cycles: 1_000,
                measure_cycles: 6_000,
                drain_cycles: 8_000,
                seed,
            },
            ExperimentScale::Full => SimConfig {
                warmup_cycles: 5_000,
                measure_cycles: 30_000,
                drain_cycles: 20_000,
                seed,
            },
        }
    }

    /// Seeds (replicates) per configuration.
    pub fn seeds(self) -> Vec<u64> {
        match self {
            ExperimentScale::Quick => vec![0xC0FFEE],
            ExperimentScale::Full => vec![0xC0FFEE, 0xBEEF, 0xF00D],
        }
    }
}

/// Stepper thread count for experiment binaries: `--threads N` on the
/// command line wins, then the `NOC_SIM_THREADS` environment variable,
/// else serial. `0` means one thread per available CPU. Results are
/// bit-identical at every value (see `noc_sim::Network::set_threads`);
/// the knob only changes wall-clock.
pub fn sim_threads() -> usize {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--threads" {
            if let Some(n) = args.next().and_then(|v| v.parse().ok()) {
                return n;
            }
        }
    }
    std::env::var("NOC_SIM_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// Topology knob for experiment binaries: `--topology
/// mesh|torus|cutmesh<N>[:seed]` rewrites a config still carrying the
/// default [`TopologySpec::MeshK`] into the named topology over the
/// same `mesh_k` grid (the grammar is [`TopologySpec::parse_arg`], the
/// same one the CLI and the campaign service use). Configs that name
/// their topology explicitly win.
pub fn apply_topology_arg(net: NetworkConfig) -> NetworkConfig {
    let mut net = net;
    if net.topology != TopologySpec::MeshK {
        return net;
    }
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--topology" {
            let value = args.next().unwrap_or_default();
            match TopologySpec::parse_arg(&value, net.mesh_k) {
                Ok(spec) => net.topology = spec,
                Err(e) => panic!("--topology: {e}"),
            }
        }
    }
    net
}

/// Telemetry options every experiment binary understands:
///
/// * `--trace <dir>` — record the run into per-shard event rings and
///   write `trace_<n>.jsonl` plus `trace_<n>.chrome.json` (load the
///   latter in `chrome://tracing` / Perfetto) into `<dir>`, one pair
///   per simulation the binary runs;
/// * `--sample-every <cycles>` — attach an epoch time-series sampler
///   ([`noc_sim::NetworkReport::epochs`]); with `--trace` the series is
///   also written as `epochs_<n>.csv`.
///
/// Untouched runs pay nothing: without `--trace` the simulator steps
/// with the compiled-out [`noc_telemetry::NullObserver`].
#[derive(Debug, Clone, Default)]
pub struct TelemetryArgs {
    /// Trace output directory (`--trace <dir>`), `None` = tracing off.
    pub trace_dir: Option<PathBuf>,
    /// Epoch length in cycles (`--sample-every <n>`), `0` = sampling off.
    pub sample_every: u64,
}

impl TelemetryArgs {
    /// Parse from the process arguments.
    pub fn from_args() -> Self {
        let mut out = TelemetryArgs::default();
        let mut args = std::env::args();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--trace" => out.trace_dir = args.next().map(PathBuf::from),
                "--sample-every" => {
                    out.sample_every = args.next().and_then(|v| v.parse().ok()).unwrap_or(0);
                }
                _ => {}
            }
        }
        out
    }
}

/// Event-ring capacity per stepper shard for `--trace` runs. Long
/// experiments overflow it; the rings drop oldest-first and the harness
/// warns with the drop count so a truncated trace is never mistaken
/// for a complete one.
const TRACE_CAPACITY: usize = 1 << 20;

/// Distinguishes the trace files of successive simulations within one
/// binary run (a sweep traces every point it visits).
static TRACE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Run one simulation end to end: build the traffic generator from
/// `traffic`, wire it into the simulator, return the report.
///
/// Honours the global `--threads` / `NOC_SIM_THREADS` knob and the
/// [`TelemetryArgs`] flags.
pub fn run_simulation(
    net: &NetworkConfig,
    sim: &SimConfig,
    traffic: &TrafficConfig,
    kind: RouterKind,
    plan: &FaultPlan,
) -> NetworkReport {
    run_simulation_telemetry(net, sim, traffic, kind, plan, &TelemetryArgs::from_args())
}

/// [`run_simulation`] with explicit [`TelemetryArgs`] (the entry point
/// for callers that don't own the process arguments).
pub fn run_simulation_telemetry(
    net: &NetworkConfig,
    sim: &SimConfig,
    traffic: &TrafficConfig,
    kind: RouterKind,
    plan: &FaultPlan,
    tel: &TelemetryArgs,
) -> NetworkReport {
    let net = apply_topology_arg(*net);
    let mut generator = TrafficGenerator::new(*traffic, net.grid(), sim.seed ^ 0x5EED);
    let simulator = Simulator::new(net, *sim, kind, plan.clone())
        .with_threads(sim_threads())
        .with_sample_every(tel.sample_every);
    let source = |cycle, out: &mut Vec<_>| generator.tick_into(cycle, out);
    match &tel.trace_dir {
        None => simulator.run_with(source).0,
        Some(dir) => {
            let (report, _outcome, tracer) = simulator.run_traced(source, TRACE_CAPACITY);
            if let Err(e) = write_trace(dir, &tracer, &report) {
                eprintln!("warning: failed to write trace into {}: {e}", dir.display());
            }
            report
        }
    }
}

/// Write one traced run's artefacts into `dir`.
fn write_trace(
    dir: &std::path::Path,
    tracer: &noc_telemetry::ShardedTracer,
    report: &NetworkReport,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let n = TRACE_SEQ.fetch_add(1, Ordering::Relaxed);
    if tracer.dropped() > 0 {
        eprintln!(
            "warning: trace {n} overflowed its rings; {} oldest events dropped",
            tracer.dropped()
        );
    }
    let merged = tracer.merged();
    std::fs::write(
        dir.join(format!("trace_{n}.jsonl")),
        noc_telemetry::jsonl(&merged),
    )?;
    std::fs::write(
        dir.join(format!("trace_{n}.chrome.json")),
        noc_telemetry::chrome_trace(&merged, 1),
    )?;
    if let Some(epochs) = &report.epochs {
        std::fs::write(dir.join(format!("epochs_{n}.csv")), epochs.to_csv())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_traffic::SyntheticPattern;

    #[test]
    fn run_simulation_smoke() {
        let mut net = NetworkConfig::paper();
        net.mesh_k = 4;
        let sim = SimConfig::smoke(3);
        let traffic = TrafficConfig::synthetic(SyntheticPattern::UniformRandom, 0.02);
        let report = run_simulation(
            &net,
            &sim,
            &traffic,
            RouterKind::Protected,
            &FaultPlan::none(),
        );
        assert!(report.delivered() > 0);
        assert_eq!(report.flits_dropped, 0);
        assert_eq!(report.misdelivered, 0);
    }

    #[test]
    fn traced_run_writes_jsonl_chrome_and_epoch_files() {
        let dir = std::env::temp_dir().join("shield_noc_trace_test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut net = NetworkConfig::paper();
        net.mesh_k = 4;
        let sim = SimConfig::smoke(7);
        let traffic = TrafficConfig::synthetic(SyntheticPattern::UniformRandom, 0.02);
        let tel = TelemetryArgs {
            trace_dir: Some(dir.clone()),
            sample_every: 100,
        };
        let report = run_simulation_telemetry(
            &net,
            &sim,
            &traffic,
            RouterKind::Protected,
            &FaultPlan::none(),
            &tel,
        );
        assert!(report.delivered() > 0);
        assert!(
            report
                .epochs
                .as_ref()
                .is_some_and(|e| !e.samples.is_empty()),
            "--sample-every must attach an epoch series"
        );
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(names.iter().any(|n| n.ends_with(".jsonl")), "{names:?}");
        assert!(
            names.iter().any(|n| n.ends_with(".chrome.json")),
            "{names:?}"
        );
        assert!(names.iter().any(|n| n.starts_with("epochs_")), "{names:?}");
        let chrome = names.iter().find(|n| n.ends_with(".chrome.json")).unwrap();
        let text = std::fs::read_to_string(dir.join(chrome)).unwrap();
        noc_telemetry::JsonValue::parse(&text).expect("chrome trace file parses");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scale_presets_are_ordered() {
        let q = ExperimentScale::Quick.sim_config(1);
        let f = ExperimentScale::Full.sim_config(1);
        assert!(q.measure_cycles < f.measure_cycles);
        assert!(ExperimentScale::Quick.seeds().len() <= ExperimentScale::Full.seeds().len());
    }
}
