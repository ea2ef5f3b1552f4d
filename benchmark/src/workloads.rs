//! The four workloads that are one `noc-cli` process per operation, and
//! how one run of them is measured from outside.

use crate::checks::{check_campaign, check_simulate, OpStats, Tally};
use crate::child::{clean_env, run, Ended};
use crate::digest::digest;
use crate::json::Json;
use crate::stats::median;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// How often the set-up command runs; `setup_s` is the median.
pub const SETUP_RUNS: usize = 21;

/// A run measures at least this many operations, however short
/// `--seconds` is.
const MIN_OPS: usize = 3;

/// A workload whose operation is one `noc-cli` process.
pub struct CliWorkload {
    pub name: &'static str,
    /// Arguments of one operation; `--seed S` is appended.
    pub op_args: &'static [&'static str],
    /// The same command cut down to what a user pays before the first
    /// simulated cycle.
    pub setup_args: &'static [&'static str],
    /// The only `NOC_*` variables the child sees.
    pub env: &'static [(&'static str, &'static str)],
    /// Units of work one operation completes: simulated cycles
    /// (`--cycles`) or scenario simulations.
    pub work_per_op: f64,
    /// `--scenarios` of a campaign; `None` for `simulate`.
    pub scenarios: Option<u64>,
}

pub const CLI_WORKLOADS: [CliWorkload; 4] = [
    CliWorkload {
        name: "sim_light",
        op_args: &[
            "simulate",
            "--pattern",
            "uniform",
            "--rate",
            "0.02",
            "--cycles",
            "200000",
        ],
        setup_args: &[
            "simulate",
            "--pattern",
            "uniform",
            "--rate",
            "0.02",
            "--cycles",
            "1",
        ],
        env: &[],
        work_per_op: 200_000.0,
        scenarios: None,
    },
    // x264, not canneal: canneal, PARSEC's heaviest application, runs so
    // close to saturation that one unlucky fault placement doubles its
    // mean latency (34 to 58 cycles between seeds 1 and 8), which no
    // bound could gate. x264 is the second heaviest and varies by 3 %.
    CliWorkload {
        name: "sim_faulty",
        op_args: &[
            "simulate",
            "--app",
            "x264",
            "--faults",
            "accumulate",
            "--cycles",
            "30000",
        ],
        setup_args: &[
            "simulate",
            "--app",
            "x264",
            "--faults",
            "accumulate",
            "--cycles",
            "1",
        ],
        env: &[],
        work_per_op: 30_000.0,
        scenarios: None,
    },
    CliWorkload {
        name: "sim_chiplet_par2",
        op_args: &[
            "simulate",
            "--topology",
            "chipletmesh4x8:4:2",
            "--pattern",
            "uniform",
            "--rate",
            "0.02",
            "--cycles",
            "3000",
        ],
        setup_args: &[
            "simulate",
            "--topology",
            "chipletmesh4x8:4:2",
            "--pattern",
            "uniform",
            "--rate",
            "0.02",
            "--cycles",
            "1",
        ],
        env: &[("NOC_SIM_THREADS", "2")],
        work_per_op: 3_000.0,
        scenarios: None,
    },
    CliWorkload {
        name: "campaign_mesh",
        op_args: &[
            "campaign",
            "--topology",
            "mesh",
            "--routing",
            "both",
            "--scenarios",
            "100",
            "--max-faults",
            "2",
            "--threads",
            "1",
        ],
        setup_args: &[
            "campaign",
            "--topology",
            "mesh",
            "--routing",
            "both",
            "--scenarios",
            "1",
            "--max-faults",
            "1",
            "--threads",
            "1",
        ],
        env: &[],
        // scenarios x modes x (fault-free baseline + max_faults)
        work_per_op: 100.0 * 2.0 * 3.0,
        scenarios: Some(100),
    },
];

pub fn cli_workload(name: &str) -> Option<&'static CliWorkload> {
    CLI_WORKLOADS.iter().find(|w| w.name == name)
}

/// What one measured run hands to the reporter.
pub struct Measured {
    /// Metric name → value, in the metric's declared unit.
    pub metrics: BTreeMap<String, f64>,
    pub tally: Tally,
    /// Samples and other detail for the result file.
    pub detail: Json,
}

impl CliWorkload {
    fn command(&self, cli: &Path, args: &[&str], seed: u64, report: Option<&Path>) -> Command {
        let mut cmd = Command::new(cli);
        cmd.args(args).arg("--seed").arg(seed.to_string());
        if let (Some(_), Some(path)) = (self.scenarios, report) {
            cmd.arg("--out").arg(path);
        }
        clean_env(&mut cmd, self.env);
        cmd
    }

    /// Median wall time of [`SETUP_RUNS`] runs of the set-up command,
    /// seconds. A set-up run that fails is an error, not a sample.
    pub fn setup_s(&self, cli: &Path, seed: u64) -> Result<f64, String> {
        let mut walls = Vec::with_capacity(SETUP_RUNS);
        for _ in 0..SETUP_RUNS {
            let ended = run(self.command(cli, self.setup_args, seed, None))
                .map_err(|e| format!("spawning {}: {e}", cli.display()))?;
            if !ended.succeeded() {
                return Err(format!(
                    "{} set-up run exited with {:?}: {}",
                    self.name,
                    ended.code,
                    ended.stderr.trim()
                ));
            }
            walls.push(ended.wall_s);
        }
        Ok(median(&walls))
    }

    /// Run one operation and check what it printed. The report file of
    /// a campaign is read and removed.
    pub fn operation(
        &self,
        cli: &Path,
        seed: u64,
        out_dir: &Path,
        tally: &mut Tally,
    ) -> Option<(Ended, OpStats)> {
        let report = out_dir.join(format!("{}_report_{seed}.json", self.name));
        let outcome = (|| {
            let ended = run(self.command(cli, self.op_args, seed, Some(&report)))
                .map_err(|e| format!("spawning {}: {e}", cli.display()))?;
            if !ended.succeeded() {
                return Err(format!("exit {:?}: {}", ended.code, ended.stderr.trim()));
            }
            let (stats, output) = match self.scenarios {
                None => (check_simulate(&ended.stdout)?, digest(&ended.stdout, &[])),
                Some(scenarios) => {
                    let text = std::fs::read_to_string(&report)
                        .map_err(|e| format!("reading {}: {e}", report.display()))?;
                    let _ = std::fs::remove_file(&report);
                    let stats = check_campaign(&text, scenarios)?;
                    (stats, digest(&(text + &ended.stdout), &[]))
                }
            };
            tally.same_digest(seed, output)?;
            Ok((ended, stats))
        })();
        tally.record(outcome)
    }

    /// The end-to-end run: set-up time, then operations back to back
    /// until `seconds` have passed.
    pub fn measure(
        &self,
        cli: &Path,
        seed: u64,
        seconds: f64,
        out_dir: &Path,
    ) -> Result<Measured, String> {
        let setup_s = self.setup_s(cli, seed)?;
        let mut tally = Tally::default();
        let (mut walls, mut cpus_ms) = (Vec::new(), Vec::new());
        let mut peak_rss_kb = 0u64;
        let mut stats = None;
        let started = Instant::now();
        while walls.len() < MIN_OPS || started.elapsed().as_secs_f64() < seconds {
            if let Some((ended, op_stats)) = self.operation(cli, seed, out_dir, &mut tally) {
                walls.push(ended.wall_s);
                cpus_ms.push(ended.cpu_s * 1e3);
                peak_rss_kb = peak_rss_kb.max(ended.peak_rss_kb);
                stats = Some(op_stats);
            } else if tally.failed >= MIN_OPS as u64 {
                break;
            }
        }
        let stats = stats.ok_or_else(|| {
            format!(
                "{}: no operation succeeded: {}",
                self.name,
                tally.first_error.clone().unwrap_or_default()
            )
        })?;
        let walls_ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
        // The median operation, not the total: on a shared host a few
        // operations of a run land in a neighbour's busy (or idle) spell
        // and take a fifth longer (or less), which moves a mean by
        // several per cent and a median hardly at all.
        let op_ms = median(&walls_ms);
        let metrics = BTreeMap::from([
            ("work_per_s".to_string(), self.work_per_op / (op_ms / 1e3)),
            ("op_latency_ms_p50".to_string(), op_ms),
            ("cpu_ms_per_op".to_string(), median(&cpus_ms)),
            ("peak_rss_mb".to_string(), peak_rss_kb as f64 / 1024.0),
            ("setup_s".to_string(), setup_s),
            ("mean_latency_cycles".to_string(), stats.mean_latency_cycles),
            ("survival_frac".to_string(), stats.survival_frac),
        ]);
        let detail = Json::obj([
            ("op_wall_ms", Json::nums(&walls_ms)),
            ("op_cpu_ms", Json::nums(&cpus_ms)),
            ("work_per_op", Json::Num(self.work_per_op)),
        ]);
        Ok(Measured {
            metrics,
            tally,
            detail,
        })
    }
}
