//! Reliability bench: static versus adaptive routing under mass
//! link-fault campaigns (extension).
//!
//! For each topology point — an 8×8 mesh and a 2×4-chiplet mesh of 4×4
//! dies — the bench runs the full `noc-campaign` engine over both
//! routing modes: thousands of seeded keep-connected link-fault
//! scenarios per fault count, each static scenario paired with the
//! adaptive scenario that sees the exact same fault set and traffic.
//! `BENCH_reliability.json` records one row per (topology, routing,
//! faults) curve point — survival probability, mean delivered fraction
//! and the outcome split — plus per-mode mean-faults-to-failure and the
//! engine's scenarios/sec throughput.
//!
//! `--quick` drops to the campaign engine's quick scale for CI smokes;
//! the committed artefact is a full run (1000 scenarios per curve
//! point). Survival curves are simulation semantics and
//! machine-independent; only scenarios/sec depends on the host.

use noc_bench::{bench_envelope, write_json};
use noc_campaign::{run_campaign, summarise, CampaignConfig};
use noc_telemetry::JsonValue;
use noc_types::{LinkClass, NetworkConfig, RoutingMode, TopologySpec};

fn campaign_rows(label: &str, spec: TopologySpec, quick: bool, rows: &mut Vec<JsonValue>) {
    let mut cfg = NetworkConfig::paper();
    cfg.mesh_k = 8;
    cfg.topology = spec;
    cfg.validate().expect("bench topology is valid");
    let mut cc = if quick {
        CampaignConfig::quick(cfg)
    } else {
        CampaignConfig::new(cfg)
    };
    cc.modes = vec![RoutingMode::Static, RoutingMode::Adaptive];
    cc.seed = 0x5EED_CA3A;
    let run = run_campaign(&cc).expect("campaign runs");
    println!(
        "{label}: {} scenarios in {} ms ({:.1} scenarios/sec)",
        run.results.len(),
        run.elapsed_ms,
        run.scenarios_per_sec
    );
    for summary in summarise(&run) {
        let mode = summary.mode.tag();
        let mttf = summary.curve.mean_faults_to_failure();
        println!("  {mode:<8} mean faults to failure {mttf:.2}");
        for (point, counts) in summary.curve.points.iter().zip(&summary.outcome_counts) {
            let (_faults, delivered_all, degraded, lost, deadlocked) = *counts;
            println!(
                "    faults={:<2} survival {:.3}  delivered fraction {:.4}",
                point.faults,
                point.survival(),
                point.delivered_fraction
            );
            rows.push(JsonValue::Obj(vec![
                ("topology".into(), label.into()),
                ("routing".into(), mode.into()),
                ("faults".into(), u64::from(point.faults).into()),
                ("scenarios".into(), u64::from(point.total).into()),
                ("delivered_all".into(), u64::from(delivered_all).into()),
                ("degraded".into(), u64::from(degraded).into()),
                ("lost_packets".into(), u64::from(lost).into()),
                ("deadlocked".into(), u64::from(deadlocked).into()),
                ("survival".into(), JsonValue::Num(point.survival())),
                (
                    "delivered_fraction".into(),
                    JsonValue::Num(point.delivered_fraction),
                ),
                ("mean_faults_to_failure".into(), JsonValue::Num(mttf)),
                (
                    "scenarios_per_sec".into(),
                    JsonValue::Num(run.scenarios_per_sec),
                ),
            ]));
        }
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut rows = Vec::new();
    campaign_rows("mesh", TopologySpec::MeshK, quick, &mut rows);
    campaign_rows(
        "chipletmesh2x4",
        TopologySpec::ChipletMesh {
            k_chip: 2,
            k_node: 4,
            d2d: LinkClass::D2D_DEFAULT,
        },
        quick,
        &mut rows,
    );

    let doc = bench_envelope(
        "reliability",
        "Static versus adaptive routing under mass keep-connected link-fault \
         campaigns on an 8x8 mesh and a 2x4-chiplet mesh of 4x4 dies \
         (protected routers, paper config, reserved escape VC class for the \
         adaptive mode). Each (topology, routing, faults) row aggregates \
         seeded randomized scenarios — 1000 per curve point in the committed \
         full run — with every static scenario paired against the adaptive \
         scenario seeing the identical fault set and traffic. Survival is the \
         fraction of scenarios that delivered everything or merely degraded; \
         mean_faults_to_failure integrates the survival curve.",
        "mesh",
        "single-CPU container run; survival curves are cycle-accurate \
         simulation semantics and machine-independent, only scenarios/sec \
         would differ on other hosts",
        JsonValue::Arr(rows),
    );
    let path = write_json(quick, "BENCH_reliability", &doc).expect("write BENCH_reliability.json");
    println!("\nwrote {}", path.display());
}
