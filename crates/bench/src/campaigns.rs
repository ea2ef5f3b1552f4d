//! The extension experiments that read a `Network` back after its run,
//! or drive the campaign engine and the checkpoint stream, rather than
//! one `run_simulation` per point: the topology load sweep, the
//! static-vs-adaptive survival curves, and the checkpoint-cost gate.
//! Everything printed and exported is simulation semantics —
//! machine-independent; wall-clock is the perf ledger's business
//! (`benchmark/`).

use crate::export::export_csv;
use crate::harness::{ExperimentScale, Options};
use noc_campaign::{run_campaign, summarise, CampaignConfig};
use noc_faults::{FaultPlan, InjectionConfig};
use noc_service::{CampaignSpec, JsonlStream};
use noc_sim::{MemoryStream, Network, Simulator};
use noc_telemetry::{json::to_text, Snapshot};
use noc_traffic::{SyntheticPattern, TrafficConfig, TrafficGenerator};
use noc_types::{LinkClass, NetworkConfig, RouterConfig, RoutingMode, SimConfig, TopologySpec};
use shield_router::RouterKind;
use std::time::Instant;

const K: u8 = 8;

struct Point {
    offered: f64,
    accepted: f64,
    avg_latency: f64,
}

/// Run one (topology, offered-load) point and return the accepted
/// throughput in packets per node per cycle over the measure window.
fn run_point(spec: TopologySpec, offered: f64, warmup: u64, measure: u64) -> Point {
    let mut cfg = NetworkConfig::paper();
    cfg.mesh_k = K;
    cfg.topology = spec;
    cfg.validate().expect("bench topology is valid");
    let mut net = Network::new(cfg, RouterKind::Protected);
    let traffic = TrafficConfig::synthetic(SyntheticPattern::UniformRandom, offered);
    let mut gen =
        TrafficGenerator::for_topology(traffic, net.topology(), 0x70B0 ^ offered.to_bits());
    // No drain: the run stops with the window, saturated or not.
    let phases = SimConfig {
        warmup_cycles: warmup,
        measure_cycles: measure,
        drain_cycles: 0,
        seed: 0,
    };
    let mut log = MemoryStream::new();
    Simulator::new(cfg, phases, RouterKind::Protected, FaultPlan::none()).run_on(
        &mut net,
        &mut log,
        |cycle, out| gen.tick_into(cycle, out),
    );
    // Accepted load is what left the network inside the window, whenever
    // it was created — not the report's created-in-window count.
    let (accepted, lat_sum) = log
        .entries()
        .iter()
        .filter(|d| d.ejected_at >= warmup)
        .fold((0u64, 0u64), |(n, sum), d| {
            (n + 1, sum + (d.ejected_at - d.created_at))
        });
    Point {
        offered,
        accepted: accepted as f64 / (cfg.nodes() as u64 * measure) as f64,
        avg_latency: lat_sum as f64 / accepted.max(1) as f64,
    }
}

/// Everything the 4096-router campaign compares between the serial and
/// parallel runs: byte-equal on all of it means bit-identical.
#[derive(PartialEq)]
struct CampaignEnd {
    deliveries_debug: String,
    heatmap: String,
    counters: (u64, u64, u64, u64),
    injected: u64,
    dropped: u64,
}

/// One run of the 4096-router chiplet fault campaign at the given
/// thread count.
fn run_campaign_4096(threads: usize, cycles: u64, inject_until: u64) -> CampaignEnd {
    let mut cfg = NetworkConfig::paper();
    cfg.mesh_k = K;
    cfg.topology = TopologySpec::ChipletMesh {
        k_chip: 8,
        k_node: 8,
        d2d: LinkClass::D2D_DEFAULT,
    };
    cfg.validate().expect("4096-router chiplet mesh is valid");
    let nodes = 64usize * 64;
    let plan = FaultPlan::uniform_random(
        &RouterConfig::paper(),
        nodes,
        &InjectionConfig::accelerated_accumulating(300, inject_until),
        0x4096,
    );
    let mut net = Network::with_faults(cfg, RouterKind::Protected, &plan);
    net.set_threads(threads);
    let traffic = TrafficConfig::synthetic(SyntheticPattern::UniformRandom, 0.004);
    let mut gen = TrafficGenerator::for_topology(traffic, net.topology(), 0xD1E5);
    let phases = SimConfig {
        warmup_cycles: 0,
        measure_cycles: inject_until,
        drain_cycles: cycles - inject_until,
        seed: 0,
    };
    let mut log = MemoryStream::new();
    Simulator::new(cfg, phases, RouterKind::Protected, plan).run_on(
        &mut net,
        &mut log,
        |cycle, out| gen.tick_into(cycle, out),
    );
    CampaignEnd {
        deliveries_debug: format!("{:?}", log.entries()),
        heatmap: to_text(|w| net.spatial_grid().encode(w)),
        counters: net.packet_counters(),
        injected: net.flits_injected,
        dropped: net.flits_dropped,
    }
}

/// Topology comparison: flat grids versus hierarchical chiplet graphs
/// (extension).
///
/// 1. **Load sweep** — uniform-random offered load on an 8×8 mesh, an
///    8×8 torus, a 2×2-chiplet mesh of 4×4 dies (same 64-router node
///    count, but every die crossing pays the default d2d link class:
///    4 cycles at half width) and a 2-chiplet star around a hub row.
///    Accepted throughput is reported in packets/node/cycle; the final
///    point offers far more than any of the networks can carry, so it
///    reads out the saturation plateau directly.
/// 2. **4096-router fault campaign** — an 8×8 grid of 8×8-router
///    chiplets (64 dies, 4096 routers) under an accelerated permanent
///    fault campaign, stepped serially and with the sharded parallel
///    stepper cutting along chiplet boundaries. The two runs must be
///    bit-identical (deliveries, counters and the per-router heatmap
///    all byte-equal); the experiment panics if they are not.
pub(crate) fn topology(opts: &Options) {
    let quick = opts.scale == ExperimentScale::Quick;
    let (warmup, measure) = if quick {
        (1_000, 4_000)
    } else {
        (5_000, 30_000)
    };
    // The last point is far past saturation for every network here, so
    // its accepted throughput is the saturation plateau.
    let loads = [0.02, 0.06, 0.10, 0.14, 0.18, 0.24, 0.45];
    let mut rows = vec![[
        "topology",
        "offered_pkts_per_node_cycle",
        "accepted_pkts_per_node_cycle",
        "avg_packet_latency_cycles",
    ]
    .map(String::from)
    .to_vec()];
    for (tag, spec) in [
        ("mesh", TopologySpec::Mesh { w: K, h: K }),
        ("torus", TopologySpec::Torus { w: K, h: K }),
        (
            // Same 64-router count as the flat grids; die crossings pay
            // the default d2d class (4 cycles, half width).
            "chipletmesh2x4",
            TopologySpec::ChipletMesh {
                k_chip: 2,
                k_node: 4,
                d2d: LinkClass::D2D_DEFAULT,
            },
        ),
        (
            "chipletstar2x4",
            TopologySpec::ChipletStar {
                chiplets: 2,
                k_node: 4,
                d2d: LinkClass::D2D_DEFAULT,
                hub: LinkClass::HUB_DEFAULT,
            },
        ),
    ] {
        for &offered in &loads {
            let p = run_point(spec, offered, warmup, measure);
            println!(
                "{tag:15} offered {:.2} -> accepted {:.4} pkt/node/cycle, avg latency {:.1}",
                p.offered, p.accepted, p.avg_latency
            );
            rows.push(vec![
                tag.to_string(),
                p.offered.to_string(),
                p.accepted.to_string(),
                p.avg_latency.to_string(),
            ]);
        }
    }

    // The 4096-router fault campaign: serial reference against the
    // chiplet-boundary-sharded parallel stepper.
    let (cycles, inject_until) = if quick { (500, 350) } else { (2_000, 1_400) };
    let serial = run_campaign_4096(1, cycles, inject_until);
    let parallel = run_campaign_4096(8, cycles, inject_until);
    assert!(
        serial == parallel,
        "serial and 8-thread runs of the 4096-router campaign diverged"
    );
    println!(
        "chipletmesh8x8  4096 routers, {cycles} cycles: {} delivered, \
         serial == 8 threads (bit-identical)",
        serial.counters.2
    );
    export_csv("topology", &rows);
}

fn campaign_rows(label: &str, spec: TopologySpec, quick: bool, rows: &mut Vec<Vec<String>>) {
    let mut cfg = NetworkConfig::paper();
    cfg.mesh_k = K;
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
    println!("{label}: {} scenarios", run.results.len());
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
            rows.push(vec![
                label.to_string(),
                mode.to_string(),
                point.faults.to_string(),
                point.total.to_string(),
                delivered_all.to_string(),
                degraded.to_string(),
                lost.to_string(),
                deadlocked.to_string(),
                point.survival().to_string(),
                point.delivered_fraction.to_string(),
                mttf.to_string(),
            ]);
        }
    }
}

/// Static versus adaptive routing under mass link-fault campaigns
/// (extension).
///
/// For each topology point — an 8×8 mesh and a 2×4-chiplet mesh of 4×4
/// dies — runs the full `noc-campaign` engine over both routing modes:
/// seeded keep-connected link-fault scenarios per fault count (1000 per
/// curve point at full scale), each static scenario paired with the
/// adaptive scenario that sees the exact same fault set and traffic.
/// One row per (topology, routing, faults) curve point: survival
/// probability (delivered everything or merely degraded), mean
/// delivered fraction, the outcome split, and per-mode
/// mean-faults-to-failure (the integral of the survival curve).
pub(crate) fn reliability(opts: &Options) {
    let quick = opts.scale == ExperimentScale::Quick;
    let mut rows = vec![[
        "topology",
        "routing",
        "faults",
        "scenarios",
        "delivered_all",
        "degraded",
        "lost_packets",
        "deadlocked",
        "survival",
        "delivered_fraction",
        "mean_faults_to_failure",
    ]
    .map(String::from)
    .to_vec()];
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
    export_csv("reliability", &rows);
}

/// A scratch directory under the system temp root, removed on drop.
struct Scratch(std::path::PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("noc-bench-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One campaign at the given checkpoint cadence, run exactly like the
/// daemon runs it: deliveries appended to a durable `JsonlStream` at
/// every checkpoint boundary, checkpoint docs (live state + stream
/// offset only) written to disk. Returns (wall seconds, checkpoints
/// written).
fn timed_run(spec: &CampaignSpec, every: u64, dir: &std::path::Path) -> (f64, u64) {
    let sim = spec.simulator(every).expect("valid spec");
    let mut gen = spec.generator().expect("valid spec");
    let path = dir.join(format!("checkpoint-{every}.json"));
    let stream_path = dir.join(format!("deliveries-{every}.jsonl"));
    let _ = std::fs::remove_file(&stream_path);
    let mut stream = JsonlStream::open(&stream_path).expect("open delivery stream");
    let mut written = 0u64;
    let mut text = String::new();
    let start = Instant::now();
    let (_report, _outcome) = sim
        .run_streamed(&mut gen, &mut stream, None, |checkpoint| {
            written += 1;
            text.clear();
            checkpoint.write_document(&mut text);
            std::fs::write(&path, &text).expect("write checkpoint");
            true
        })
        .expect("campaign runs");
    (start.elapsed().as_secs_f64(), written)
}

/// CI regression gate: one long campaign (≥200k measured cycles) at
/// the dense 1k-cycle cadence versus checkpointing off. Before the
/// delivery log moved out of the checkpoint doc this cadence cost
/// +933% on a 100k-cycle campaign and grew with length; with
/// O(live-state) checkpoints it must stay within a pinned ratio.
/// Panics (nonzero exit) on regression so CI fails loudly.
pub(crate) fn checkpoint_gate(_: &Options) {
    const MEASURE: u64 = 200_000;
    const MAX_OVERHEAD_PCT: f64 = 50.0;
    let scratch = Scratch::new("checkpoint-gate");
    let spec = CampaignSpec {
        name: "long-gate".to_string(),
        seed: 7,
        rate: 0.08,
        warmup_cycles: 200,
        measure_cycles: MEASURE,
        drain_cycles: 400,
        ..CampaignSpec::default()
    };
    // Warm caches so the baseline isn't paying first-touch costs.
    let _ = timed_run(&spec, 0, &scratch.0);
    let (base, _) = timed_run(&spec, 0, &scratch.0);
    let (dense, written) = timed_run(&spec, 1_000, &scratch.0);
    let overhead = (dense / base - 1.0) * 100.0;
    println!(
        "long gate ({MEASURE} measured cycles): off {base:.3}s, 1k cadence {dense:.3}s \
         ({written} checkpoints), {overhead:+.1}% overhead (limit +{MAX_OVERHEAD_PCT:.0}%)"
    );
    assert!(
        overhead <= MAX_OVERHEAD_PCT,
        "1k-cadence checkpoint overhead {overhead:+.1}% exceeds the pinned \
         +{MAX_OVERHEAD_PCT:.0}% limit — checkpoint cost has regressed toward \
         O(campaign length)"
    );
}
