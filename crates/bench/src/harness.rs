//! Simulation glue: configuration → report, with scale presets and the
//! per-run [`Options`] every experiment honours.

use noc_faults::FaultPlan;
use noc_sim::{NetworkReport, Simulator};
use noc_traffic::{TrafficConfig, TrafficGenerator};
use noc_types::{NetworkConfig, SimConfig, TopologySpec};
use shield_router::RouterKind;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// How big an experiment to run; `--quick` selects
/// [`ExperimentScale::Quick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExperimentScale {
    /// Short windows, one seed — CI and smoke runs (seconds).
    Quick,
    /// The defaults used for the committed EXPERIMENTS.md numbers.
    #[default]
    Full,
}

impl ExperimentScale {
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

/// A `--topology` value whose syntax has been checked. It is resolved
/// against each configuration's own `mesh_k` when applied, so one
/// argument serves every grid size an experiment visits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologyArg(String);

impl TopologyArg {
    /// Check `arg` against the [`TopologySpec::parse_arg`] grammar
    /// (shared with the CLI and the campaign service).
    pub fn parse(arg: &str) -> Result<Self, String> {
        TopologySpec::parse_arg(arg, NetworkConfig::paper().mesh_k)?;
        Ok(TopologyArg(arg.to_string()))
    }

    fn spec(&self, mesh_k: u8) -> TopologySpec {
        TopologySpec::parse_arg(&self.0, mesh_k)
            .expect("checked by TopologyArg::parse; the grammar does not depend on the grid side")
    }
}

/// What `noc-bench`'s command line says about *how* to run, parsed once
/// in `main` and passed down to every experiment and simulation.
/// `Options::default()` is a plain full-scale run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Options {
    /// `--quick`: reduced windows and seeds.
    pub scale: ExperimentScale,
    /// `--threads N`: stepper threads (`0` = one per CPU); `None`
    /// leaves [`Simulator::new`]'s `NOC_SIM_THREADS` default. Results
    /// are bit-identical at every value (see
    /// `noc_sim::Network::set_threads`); only wall-clock changes.
    pub threads: Option<usize>,
    /// `--topology mesh|torus|cutmesh<N>[:seed]|…`: rewrites a config
    /// still carrying the default [`TopologySpec::MeshK`] into the named
    /// topology over the same `mesh_k` grid. Configs that name their
    /// topology explicitly win.
    pub topology: Option<TopologyArg>,
    /// `--trace <dir>`: record each simulation into per-shard event
    /// rings and write `trace_<n>.jsonl` plus `trace_<n>.chrome.json`
    /// (load the latter in `chrome://tracing` / Perfetto) into `<dir>`,
    /// one pair per simulation run. Without it the simulator steps with
    /// the compiled-out [`noc_telemetry::NullObserver`].
    pub trace_dir: Option<PathBuf>,
    /// `--sample-every <cycles>`: attach an epoch time-series sampler
    /// ([`noc_sim::NetworkReport::epochs`]); with `--trace` the series
    /// is also written as `epochs_<n>.csv`. `0` = sampling off.
    pub sample_every: u64,
}

/// Event-ring capacity per stepper shard for `--trace` runs. Long
/// experiments overflow it; the rings drop oldest-first and the harness
/// warns with the drop count so a truncated trace is never mistaken
/// for a complete one.
const TRACE_CAPACITY: usize = 1 << 20;

/// Distinguishes the trace files of successive simulations within one
/// process (a sweep traces every point it visits).
static TRACE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Run one simulation end to end: build the traffic generator from
/// `traffic`, wire it into the simulator, return the report. A pure
/// function of its arguments (plus [`Simulator::new`]'s
/// `NOC_SIM_THREADS` default).
pub fn run_simulation(
    net: &NetworkConfig,
    sim: &SimConfig,
    traffic: &TrafficConfig,
    kind: RouterKind,
    plan: &FaultPlan,
) -> NetworkReport {
    run_simulation_with(net, sim, traffic, kind, plan, &Options::default())
}

/// [`run_simulation`] under explicit [`Options`] — what the experiments
/// call.
pub fn run_simulation_with(
    net: &NetworkConfig,
    sim: &SimConfig,
    traffic: &TrafficConfig,
    kind: RouterKind,
    plan: &FaultPlan,
    opts: &Options,
) -> NetworkReport {
    let mut net = *net;
    if let (TopologySpec::MeshK, Some(arg)) = (net.topology, &opts.topology) {
        net.topology = arg.spec(net.mesh_k);
    }
    let mut generator = TrafficGenerator::new(*traffic, net.grid(), sim.seed ^ 0x5EED);
    let mut simulator =
        Simulator::new(net, *sim, kind, plan.clone()).with_sample_every(opts.sample_every);
    if let Some(threads) = opts.threads {
        simulator = simulator.with_threads(threads);
    }
    let source = |cycle, out: &mut Vec<_>| generator.tick_into(cycle, out);
    match &opts.trace_dir {
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
    fn topology_option_rewrites_only_a_default_mesh() {
        let mut net = NetworkConfig::paper();
        net.mesh_k = 4;
        let sim = SimConfig::smoke(5);
        let traffic = TrafficConfig::synthetic(SyntheticPattern::UniformRandom, 0.02);
        let latency = |net: &NetworkConfig, opts: &Options| {
            let plan = FaultPlan::none();
            run_simulation_with(net, &sim, &traffic, RouterKind::Protected, &plan, opts)
                .mean_latency()
        };
        let plain = Options::default();
        let torus = Options {
            topology: Some(TopologyArg::parse("torus").unwrap()),
            ..Options::default()
        };
        let mut explicit_torus = net;
        explicit_torus.topology = TopologySpec::Torus { w: 4, h: 4 };
        assert_eq!(latency(&net, &torus), latency(&explicit_torus, &plain));
        assert_ne!(latency(&net, &torus), latency(&net, &plain));
        // A config that names its topology wins over the option.
        let mut explicit_mesh = net;
        explicit_mesh.topology = TopologySpec::Mesh { w: 4, h: 4 };
        assert_eq!(
            latency(&explicit_mesh, &torus),
            latency(&explicit_mesh, &plain)
        );
        assert!(TopologyArg::parse("klein-bottle").is_err());
    }

    #[test]
    fn traced_run_writes_jsonl_chrome_and_epoch_files() {
        let dir = std::env::temp_dir().join("shield_noc_trace_test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut net = NetworkConfig::paper();
        net.mesh_k = 4;
        let sim = SimConfig::smoke(7);
        let traffic = TrafficConfig::synthetic(SyntheticPattern::UniformRandom, 0.02);
        let opts = Options {
            trace_dir: Some(dir.clone()),
            sample_every: 100,
            ..Options::default()
        };
        let report = run_simulation_with(
            &net,
            &sim,
            &traffic,
            RouterKind::Protected,
            &FaultPlan::none(),
            &opts,
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
