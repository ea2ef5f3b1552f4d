//! The one table of experiments and the one argument parser behind
//! `noc-bench <experiment|all|list> [flags]`. A new experiment is one
//! function and one row here.

use crate::harness::{ExperimentScale, Options, TopologyArg};
use crate::tables::Table;
use crate::{analytic, campaigns, experiments, sweeps};
use noc_types::args::Flags;

/// One row of the experiment table.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The command-line name (`noc-bench <name>`).
    pub name: &'static str,
    /// What it regenerates: the paper artefact, or the extension.
    pub artefact: &'static str,
    /// Whether `noc-bench all` (the paper's evaluation in one run)
    /// includes it.
    pub in_all: bool,
    /// The experiment: prints its tables to stdout.
    pub run: fn(&Options),
}

const fn row(
    name: &'static str,
    artefact: &'static str,
    in_all: bool,
    run: fn(&Options),
) -> Experiment {
    Experiment {
        name,
        artefact,
        in_all,
        run,
    }
}

/// Every experiment, in the order `list` prints and `all` runs them.
#[rustfmt::skip]
pub const EXPERIMENTS: &[Experiment] = &[
    row("table1", "Table I (baseline stage FITs)", true, analytic::table1),
    row("table2", "Table II (correction-circuitry FITs)", true, analytic::table2),
    row("mttf", "Equations 4-7 (MTTF, 6x)", true, analytic::mttf),
    row("table3_spf", "Table III (SPF comparison)", true, analytic::table3_spf),
    row("area_power", "Section VI-A (area 31%, power 30%)", true, analytic::area_power),
    row("critical_path", "Section VI-B (critical path)", true, analytic::critical_path),
    row("fig7_splash2", "Figure 7 (SPLASH-2 latency)", true, experiments::fig7_splash2),
    row("fig8_parsec", "Figure 8 (PARSEC latency)", true, experiments::fig8_parsec),
    row("spf_vc_sweep", "Section VIII-E VC sweep (ablation)", true, analytic::spf_vc_sweep),
    row("radix_sweep", "reliability vs radix (extension)", true, analytic::radix_sweep),
    row("ablation_mechanisms", "per-mechanism latency (ablation)", false, sweeps::ablation_mechanisms),
    row("load_latency", "load-latency curves (extension)", false, sweeps::load_latency),
    row("transient_storm", "transient-upset storms (extension)", false, sweeps::transient_storm),
    row("detection_sweep", "detection-latency sensitivity (extension)", false, sweeps::detection_sweep),
    row("design_sweep", "fault cost vs design point (extension)", false, sweeps::design_sweep),
    row("mttf_conditions", "MTTF vs operating conditions (extension)", false, analytic::mttf_conditions),
    row("topology", "mesh / torus / chiplet load sweep, 4096-router bit-identity (extension)", false, campaigns::topology),
    row("reliability", "static vs adaptive survival curves (extension)", false, campaigns::reliability),
    row("checkpoint-gate", "checkpoint cost stays O(live state); exit status is the gate", false, campaigns::checkpoint_gate),
];

/// What the command line asked for.
#[derive(Debug, Clone, Copy)]
pub enum Command {
    /// Run one experiment.
    Run(&'static Experiment),
    /// Run every `in_all` experiment in table order.
    All,
    /// Print the table.
    List,
}

impl Command {
    /// Carry the command out under `opts`.
    pub fn run(self, opts: &Options) {
        match self {
            Command::Run(e) => (e.run)(opts),
            Command::All => {
                for e in EXPERIMENTS.iter().filter(|e| e.in_all) {
                    println!(
                        "################ {}: {} ################",
                        e.name, e.artefact
                    );
                    (e.run)(opts);
                }
            }
            Command::List => print!("{}", list()),
        }
    }
}

/// The experiment table, rendered.
pub fn list() -> String {
    let mut t = Table::new(
        "noc-bench experiments",
        &["experiment", "regenerates", "in `all`"],
    );
    for e in EXPERIMENTS {
        t.row_str(&[e.name, e.artefact, if e.in_all { "yes" } else { "" }]);
    }
    t.render()
}

/// Usage text: the synopsis plus the table.
pub fn usage() -> String {
    format!(
        "usage: noc-bench <experiment|all|list> [--quick] [--threads N] [--topology T] \
         [--trace DIR] [--sample-every N]\n\n{}",
        list()
    )
}

/// Parse the process arguments (without `argv[0]`). Anything not
/// understood is an error: a mistyped `--quick` must not silently start
/// a full-scale run.
pub fn parse(args: &[String]) -> Result<(Command, Options), String> {
    let mut command = None;
    let mut opts = Options::default();
    let mut flags = Flags::new(args);
    while let Some(arg) = flags.next() {
        match arg {
            "--quick" => opts.scale = ExperimentScale::Quick,
            "--threads" => opts.threads = Some(flags.value(arg)?),
            "--topology" => {
                let topology = TopologyArg::parse(flags.text(arg)?);
                opts.topology = Some(topology.map_err(|e| format!("--topology: {e}"))?);
            }
            "--trace" => opts.trace_dir = Some(flags.value(arg)?),
            "--sample-every" => opts.sample_every = flags.value(arg)?,
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            name if command.is_some() => return Err(format!("unexpected argument {name:?}")),
            "all" => command = Some(Command::All),
            "list" => command = Some(Command::List),
            name => {
                let e = EXPERIMENTS
                    .iter()
                    .find(|e| e.name == name)
                    .ok_or_else(|| format!("unknown experiment {name:?}"))?;
                command = Some(Command::Run(e));
            }
        }
    }
    Ok((command.ok_or("no experiment named")?, opts))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_an_experiment_with_every_flag() {
        let (cmd, opts) = parse(&args(
            "load_latency --quick --threads 2 --topology cutmesh3:9 --trace /tmp/t --sample-every 500",
        ))
        .unwrap();
        assert!(matches!(cmd, Command::Run(e) if e.name == "load_latency"));
        assert_eq!(
            opts,
            Options {
                scale: ExperimentScale::Quick,
                threads: Some(2),
                topology: Some(TopologyArg::parse("cutmesh3:9").unwrap()),
                trace_dir: Some("/tmp/t".into()),
                sample_every: 500,
            }
        );
    }

    #[test]
    fn defaults_are_a_plain_full_scale_run_and_flags_may_come_first() {
        let (cmd, opts) = parse(&args("table1")).unwrap();
        assert!(matches!(cmd, Command::Run(e) if e.name == "table1"));
        assert_eq!(opts, Options::default());
        assert_eq!(opts.scale, ExperimentScale::Full);
        let (cmd, opts) = parse(&args("--quick all")).unwrap();
        assert!(matches!(cmd, Command::All));
        assert_eq!(opts.scale, ExperimentScale::Quick);
        assert!(matches!(parse(&args("list")).unwrap().0, Command::List));
    }

    #[test]
    fn rejects_what_it_does_not_understand() {
        for (bad, names) in [
            ("", "no experiment"),
            ("--quick", "no experiment"),
            ("table9", "table9"),
            ("fig7_splash2 --quik", "--quik"),
            ("table1 table2", "table2"),
            ("load_latency --threads", "--threads"),
            ("load_latency --threads two", "--threads"),
            ("load_latency --sample-every -1", "--sample-every"),
            ("load_latency --trace", "--trace"),
            ("load_latency --topology", "--topology"),
            ("load_latency --topology klein-bottle", "klein-bottle"),
        ] {
            let err = parse(&args(bad)).expect_err(bad);
            assert!(err.contains(names), "{bad:?} -> {err}");
        }
    }
}
