//! Campaign aggregation and JSON export.
//!
//! The per-scenario results collapse into one faults-to-failure curve
//! per routing mode ([`FaultsToFailureCurve`]), rendered in the same
//! `NetworkReport`-style JSON the rest of the stack emits: flat,
//! versioned, and written by the one [`noc_telemetry::json::JsonWriter`].

use crate::engine::{CampaignRun, Outcome, ScenarioResult};
use noc_reliability::{CurvePoint, FaultsToFailureCurve};
use noc_telemetry::json::{to_tree, JsonValue, JsonWriter};
use noc_topology::Topology;
use noc_types::RoutingMode;

/// Report schema version.
pub const CAMPAIGN_SCHEMA_VERSION: u64 = 1;

/// Per-mode aggregation of a finished campaign.
#[derive(Debug, Clone)]
pub struct ModeSummary {
    /// Routing arm.
    pub mode: RoutingMode,
    /// Survival curve over fault counts.
    pub curve: FaultsToFailureCurve,
    /// Outcome counts per fault point, in curve order:
    /// `(faults, delivered_all, degraded, lost_packets, deadlocked)`.
    pub outcome_counts: Vec<(u32, u32, u32, u32, u32)>,
    /// Mean fault-free latency ×100 across baseline runs.
    pub baseline_latency_x100: u64,
}

/// Aggregate one mode's scenarios into its summary.
fn summarise_mode(run: &CampaignRun, mode: RoutingMode) -> ModeSummary {
    let cc = &run.config;
    let mut points = Vec::new();
    let mut outcome_counts = Vec::new();
    for faults in 1..=cc.max_faults {
        let cell: Vec<&ScenarioResult> = run
            .results
            .iter()
            .filter(|r| r.mode == mode && r.faults == faults)
            .collect();
        let total = cell.len() as u32;
        let survived = cell.iter().filter(|r| r.outcome.survived()).count() as u32;
        let count = |o: Outcome| cell.iter().filter(|r| r.outcome == o).count() as u32;
        let delivered_fraction = if cell.is_empty() {
            0.0
        } else {
            cell.iter()
                .map(|r| {
                    if r.offered == 0 {
                        1.0
                    } else {
                        r.delivered as f64 / r.offered as f64
                    }
                })
                .sum::<f64>()
                / cell.len() as f64
        };
        points.push(CurvePoint {
            faults,
            total,
            survived,
            delivered_fraction,
        });
        outcome_counts.push((
            faults,
            count(Outcome::DeliveredAll),
            count(Outcome::Degraded),
            count(Outcome::LostPackets),
            count(Outcome::Deadlocked),
        ));
    }
    let base: Vec<u64> = run
        .baselines
        .iter()
        .filter(|(m, _)| *m == mode)
        .map(|&(_, l)| l)
        .collect();
    let baseline_latency_x100 = if base.is_empty() {
        0
    } else {
        base.iter().sum::<u64>() / base.len() as u64
    };
    ModeSummary {
        mode,
        curve: FaultsToFailureCurve::from_points(points),
        outcome_counts,
        baseline_latency_x100,
    }
}

/// Aggregate every mode of a finished campaign.
pub fn summarise(run: &CampaignRun) -> Vec<ModeSummary> {
    run.config
        .modes
        .iter()
        .map(|&m| summarise_mode(run, m))
        .collect()
}

/// The campaign report as a tree: the parse of [`encode_report`]'s
/// text.
pub fn report_json(run: &CampaignRun) -> JsonValue {
    to_tree(|w| encode_report(run, w))
}

/// Write the campaign report as one JSON object.
pub fn encode_report(run: &CampaignRun, w: &mut JsonWriter<'_>) {
    let cc = &run.config;
    let topo = Topology::from_spec(&cc.base);
    w.obj(|w| {
        w.field("schema_version").u64(CAMPAIGN_SCHEMA_VERSION);
        w.field("kind").str("fault_campaign");
        w.field("topology").str(topo.tag());
        w.field("mesh_k").u64(u64::from(cc.base.mesh_k));
        w.field("seed").u64(cc.seed);
        w.field("max_faults").u64(u64::from(cc.max_faults));
        w.field("scenarios_per_point")
            .u64(u64::from(cc.scenarios_per_point));
        w.field("inject_cycles").u64(cc.inject_cycles);
        w.field("rate_permille").u64(cc.rate_permille);
        w.field("elapsed_ms").u64(run.elapsed_ms);
        w.field("scenarios_per_sec").num(run.scenarios_per_sec);
        w.field("modes").arr(summarise(run), |w, s| {
            w.obj(|w| {
                w.field("routing").str(s.mode.tag());
                w.field("baseline_latency_x100")
                    .u64(s.baseline_latency_x100);
                w.field("mean_faults_to_failure")
                    .num(s.curve.mean_faults_to_failure());
                let points = s.curve.points.iter().zip(&s.outcome_counts);
                w.field("curve")
                    .arr(points, |w, (p, &(_, ok, deg, lost, dead))| {
                        w.obj(|w| {
                            w.field("faults").u64(u64::from(p.faults));
                            w.field("scenarios").u64(u64::from(p.total));
                            w.field("delivered_all").u64(u64::from(ok));
                            w.field("degraded").u64(u64::from(deg));
                            w.field("lost_packets").u64(u64::from(lost));
                            w.field("deadlocked").u64(u64::from(dead));
                            w.field("survival").num(p.survival());
                            w.field("delivered_fraction").num(p.delivered_fraction);
                        })
                    });
            })
        });
    });
}

/// Render a compact fixed-width table of the curves for terminals.
pub fn render_table(run: &CampaignRun) -> String {
    let mut out = String::new();
    for s in summarise(run) {
        out.push_str(&format!(
            "routing={} (fault-free latency {:.2} cycles, mean faults-to-failure ≥ {:.2})\n",
            s.mode.tag(),
            s.baseline_latency_x100 as f64 / 100.0,
            s.curve.mean_faults_to_failure(),
        ));
        out.push_str("  faults  delivered  degraded  lost  deadlocked  survival  delivered_frac\n");
        for (p, &(faults, ok, deg, lost, dead)) in s.curve.points.iter().zip(&s.outcome_counts) {
            out.push_str(&format!(
                "  {faults:>6}  {ok:>9}  {deg:>8}  {lost:>4}  {dead:>10}  {:>7.1}%  {:>13.1}%\n",
                p.survival() * 100.0,
                p.delivered_fraction * 100.0,
            ));
        }
    }
    out
}
