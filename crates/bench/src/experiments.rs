//! The latency figures (Figures 7 and 8): driver, table and CSV.

use crate::export::{export_csv, figure_csv};
use crate::harness::{run_simulation_with, ExperimentScale, Options};
use noc_faults::{FaultPlan, InjectionConfig};
use noc_sim::run_batch;
use noc_traffic::{AppId, Suite, TrafficConfig};
use noc_types::{NetworkConfig, RouterConfig};
use shield_router::RouterKind;

/// Configuration of a Figure-7/8 style experiment.
#[derive(Debug, Clone, Copy)]
pub struct FigureConfig {
    /// Mesh side (the paper uses 8).
    pub mesh_k: u8,
    /// Mean of the uniform fault inter-arrival, in cycles. `None`
    /// derives a mean that realises the paper's end-state premise —
    /// one fault per (router, stage) arriving at a uniform time inside
    /// the simulated horizon — the accelerated analogue of the paper's
    /// 10M-cycle mean over full benchmark runs (see EXPERIMENTS.md).
    pub fault_mean_cycles: Option<u64>,
}

impl FigureConfig {
    /// The paper's experiment: 8×8 mesh, derived fault mean.
    pub fn paper() -> Self {
        FigureConfig {
            mesh_k: 8,
            fault_mean_cycles: None,
        }
    }

    fn resolved_fault_mean(&self, horizon: u64) -> u64 {
        // mean = horizon/2 ⇒ the first arrival is uniform on the whole
        // horizon, so every (router, stage) carries one fault by the end
        // of the run — the paper's multi-fault end state.
        self.fault_mean_cycles.unwrap_or(horizon / 2)
    }
}

/// One application's result.
#[derive(Debug, Clone)]
pub struct FigureRow {
    /// Application name.
    pub app: String,
    /// Mean end-to-end latency, fault-free (cycles).
    pub latency_fault_free: f64,
    /// Mean end-to-end latency with injected faults (cycles).
    pub latency_faulty: f64,
    /// Percentage increase.
    pub increase_pct: f64,
    /// Faults injected in the faulty runs (mean across seeds).
    pub faults_injected: f64,
    /// Packets delivered (fault-free runs, mean across seeds).
    pub delivered: f64,
}

/// A full figure: all applications of one suite plus the overall row.
#[derive(Debug, Clone)]
pub struct FigureResult {
    /// Which suite (SPLASH-2 → Figure 7, PARSEC → Figure 8).
    pub suite: Suite,
    /// Per-application rows.
    pub rows: Vec<FigureRow>,
    /// Mean per-app latency increase (the paper's "overall" claim:
    /// ≈10% for SPLASH-2, ≈13% for PARSEC).
    pub overall_increase_pct: f64,
}

/// Run a Figure-7/8 experiment: for every application of `suite`,
/// simulate the protected 8×8 mesh fault-free and under the accelerated
/// uniform-random fault process, and report the latency increase.
/// `opts.scale` sets windows and seeds.
pub fn run_figure(suite: Suite, cfg: &FigureConfig, opts: &Options) -> FigureResult {
    let apps: &[AppId] = match suite {
        Suite::Splash2 => &AppId::SPLASH2,
        Suite::Parsec => &AppId::PARSEC,
    };
    let mut net = NetworkConfig::paper();
    net.mesh_k = cfg.mesh_k;
    let seeds = opts.scale.seeds();

    // Jobs: (app, faulty?, seed) — all independent, run in parallel.
    let mut jobs = Vec::new();
    for &app in apps {
        for &seed in &seeds {
            jobs.push((app, false, seed));
            jobs.push((app, true, seed));
        }
    }
    let results = run_batch(jobs.clone(), 0, move |(app, faulty, seed)| {
        let sim = opts.scale.sim_config(seed);
        let horizon = sim.warmup_cycles + sim.measure_cycles;
        let plan = if faulty {
            let inj = InjectionConfig::accelerated_accumulating(
                cfg.resolved_fault_mean(horizon),
                horizon,
            );
            FaultPlan::uniform_random(
                &RouterConfig::paper(),
                (cfg.mesh_k as usize).pow(2),
                &inj,
                seed ^ 0xFA17,
            )
        } else {
            FaultPlan::none()
        };
        let faults = plan.len();
        let report = run_simulation_with(
            &net,
            &sim,
            &TrafficConfig::app(app),
            RouterKind::Protected,
            &plan,
            opts,
        );
        (
            report.mean_latency(),
            report.delivered() as f64,
            faults as f64,
        )
    });

    let mut rows = Vec::new();
    for &app in apps {
        let mut clean = (0.0, 0.0); // (latency sum, delivered sum)
        let mut faulty = (0.0, 0.0); // (latency sum, faults sum)
        let mut n = 0.0;
        for ((japp, jfaulty, _), (lat, delivered, faults)) in jobs.iter().zip(&results) {
            if *japp != app {
                continue;
            }
            if *jfaulty {
                faulty.0 += lat;
                faulty.1 += faults;
            } else {
                clean.0 += lat;
                clean.1 += delivered;
                n += 1.0;
            }
        }
        let latency_fault_free = clean.0 / n;
        let latency_faulty = faulty.0 / n;
        rows.push(FigureRow {
            app: app.name().to_string(),
            latency_fault_free,
            latency_faulty,
            increase_pct: (latency_faulty / latency_fault_free - 1.0) * 100.0,
            faults_injected: faulty.1 / n,
            delivered: clean.1 / n,
        });
    }
    let overall_increase_pct = rows.iter().map(|r| r.increase_pct).sum::<f64>() / rows.len() as f64;
    FigureResult {
        suite,
        rows,
        overall_increase_pct,
    }
}

/// Render a figure result as the table the paper plots.
pub fn figure_table(result: &FigureResult) -> crate::tables::Table {
    let title = match result.suite {
        Suite::Splash2 => {
            "Figure 7: SPLASH-2 latency, fault-free vs fault-injected (protected router, 8x8 mesh)"
        }
        Suite::Parsec => {
            "Figure 8: PARSEC latency, fault-free vs fault-injected (protected router, 8x8 mesh)"
        }
    };
    let mut t = crate::tables::Table::new(
        title,
        &[
            "application",
            "latency fault-free (cyc)",
            "latency faulty (cyc)",
            "increase",
            "faults",
            "packets",
        ],
    );
    for r in &result.rows {
        t.row(&[
            r.app.clone(),
            format!("{:.2}", r.latency_fault_free),
            format!("{:.2}", r.latency_faulty),
            format!("{:+.1}%", r.increase_pct),
            format!("{:.0}", r.faults_injected),
            format!("{:.0}", r.delivered),
        ]);
    }
    t.row(&[
        "OVERALL".to_string(),
        String::new(),
        String::new(),
        format!("{:+.1}%", result.overall_increase_pct),
        String::new(),
        String::new(),
    ]);
    t
}

/// One latency figure end to end: run, print the table and the overall
/// line, export the CSV.
fn figure(suite: Suite, opts: &Options) {
    let (figure, name, paper_pct, csv) = match suite {
        Suite::Splash2 => (7, "SPLASH-2", 10, "fig7_splash2"),
        Suite::Parsec => (8, "PARSEC", 13, "fig8_parsec"),
    };
    let scale = opts.scale;
    let hint = match scale {
        ExperimentScale::Full => " (pass --quick for a fast run)",
        ExperimentScale::Quick => "",
    };
    eprintln!("running Figure {figure} at {scale:?} scale{hint}...");
    let result = run_figure(suite, &FigureConfig::paper(), opts);
    figure_table(&result).print();
    println!(
        "\nOverall {name} latency increase: {:+.1}% (paper: ~{paper_pct}%)",
        result.overall_increase_pct
    );
    export_csv(csv, &figure_csv(&result));
}

/// Regenerates **Figure 7**: impact of faults on NoC latency running
/// SPLASH-2 traffic on an 8×8 mesh of protected routers (paper: overall
/// latency increase ≈10%).
pub(crate) fn fig7_splash2(opts: &Options) {
    figure(Suite::Splash2, opts);
}

/// Regenerates **Figure 8**: impact of faults on NoC latency running
/// PARSEC traffic on an 8×8 mesh of protected routers (paper: overall
/// latency increase ≈13%).
pub(crate) fn fig8_parsec(opts: &Options) {
    figure(Suite::Parsec, opts);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run_simulation;

    #[test]
    fn quick_figure_runs_and_shows_nonnegative_increase() {
        // One light app keeps the smoke test fast.
        let cfg = FigureConfig {
            mesh_k: 4,
            fault_mean_cycles: None,
        };
        // Use the internal pieces directly on a single app.
        let mut net = NetworkConfig::paper();
        net.mesh_k = 4;
        let sim = ExperimentScale::Quick.sim_config(1);
        let clean = run_simulation(
            &net,
            &sim,
            &TrafficConfig::app(AppId::Swaptions),
            RouterKind::Protected,
            &FaultPlan::none(),
        );
        assert!(clean.delivered() > 0);
        let horizon = sim.warmup_cycles + sim.measure_cycles;
        let inj = InjectionConfig::accelerated(cfg.resolved_fault_mean(horizon), horizon);
        let plan = FaultPlan::uniform_random(&RouterConfig::paper(), 16, &inj, 2);
        assert!(!plan.is_empty(), "accelerated plan injects faults");
        let faulty = run_simulation(
            &net,
            &sim,
            &TrafficConfig::app(AppId::Swaptions),
            RouterKind::Protected,
            &plan,
        );
        assert_eq!(faulty.flits_dropped, 0, "protected router never drops");
        assert!(faulty.mean_latency() >= clean.mean_latency() * 0.98);
    }
}
