//! Topology comparison bench: flat grids versus hierarchical chiplet
//! graphs (extension).
//!
//! Two experiments land in `BENCH_topology.json`:
//!
//! 1. **Load sweep** — uniform-random offered load on an 8×8 mesh, an
//!    8×8 torus, a 2×2-chiplet mesh of 4×4 dies (same 64-router node
//!    count, but every die crossing pays the default d2d link class:
//!    4 cycles at half width) and a 2-chiplet star around a hub row.
//!    Accepted throughput is reported in packets/node/cycle; the final
//!    point offers far more than any of the networks can carry, so it
//!    reads out the saturation plateau directly.
//! 2. **4096-router fault campaign** — an 8×8 grid of 8×8-router
//!    chiplets (64 dies, 4096 routers) under an accelerated permanent
//!    fault campaign, stepped serially and with the sharded parallel
//!    stepper cutting along chiplet boundaries. The row records the
//!    bit-identity of the two runs (deliveries, counters and the
//!    per-router heatmap all byte-equal) and the shard-profile
//!    imbalance actually measured across profiling intervals.
//!
//! `--quick` shortens the windows and writes under `target/experiments/`;
//! the committed `BENCH_topology.json` is a full run. Throughput here is
//! simulation semantics, not wall-clock, so the numbers are
//! machine-independent; the machine note records the host anyway for
//! provenance.

use noc_bench::{bench_envelope, write_json};
use noc_faults::{FaultPlan, InjectionConfig};
use noc_sim::Network;
use noc_telemetry::JsonValue;
use noc_traffic::{SyntheticPattern, TrafficConfig, TrafficGenerator};
use noc_types::{LinkClass, NetworkConfig, RouterConfig, TopologySpec};
use shield_router::RouterKind;

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
    let (w, h) = cfg.dims();
    let mut net = Network::new(cfg, RouterKind::Protected);
    let traffic = TrafficConfig::synthetic(SyntheticPattern::UniformRandom, offered);
    let mut gen =
        TrafficGenerator::for_topology(traffic, net.topology(), 0x70B0 ^ offered.to_bits());
    let mut pkts = Vec::new();
    for cycle in 0..warmup {
        pkts.clear();
        gen.tick_into(cycle, &mut pkts);
        net.offer_packets_from(&mut pkts);
        net.step(cycle);
    }
    let (_, _, ejected_before, _) = net.packet_counters();
    let delivered_before = net.deliveries().len();
    for cycle in warmup..warmup + measure {
        pkts.clear();
        gen.tick_into(cycle, &mut pkts);
        net.offer_packets_from(&mut pkts);
        net.step(cycle);
    }
    let (_, _, ejected_after, _) = net.packet_counters();
    let window = &net.deliveries()[delivered_before..];
    let lat_sum: u64 = window.iter().map(|d| d.ejected_at - d.created_at).sum();
    let nodes = (w as u64 * h as u64) as f64;
    Point {
        offered,
        accepted: (ejected_after - ejected_before) as f64 / (nodes * measure as f64),
        avg_latency: lat_sum as f64 / window.len().max(1) as f64,
    }
}

/// Everything the 4096-router campaign compares between the serial and
/// parallel runs: byte-equal on all of it means bit-identical.
struct CampaignEnd {
    deliveries_debug: String,
    heatmap: String,
    counters: (u64, u64, u64, u64),
    injected: u64,
    dropped: u64,
    profile_intervals: usize,
    max_time_imbalance: f64,
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
    let mut pkts = Vec::new();
    for cycle in 0..cycles {
        if cycle < inject_until {
            pkts.clear();
            gen.tick_into(cycle, &mut pkts);
            net.offer_packets_from(&mut pkts);
        }
        net.step(cycle);
    }
    let profile = net.shard_profile();
    CampaignEnd {
        deliveries_debug: format!("{:?}", net.deliveries()),
        heatmap: net.spatial_grid().to_json().render(),
        counters: net.packet_counters(),
        injected: net.flits_injected,
        dropped: net.flits_dropped,
        profile_intervals: profile.len(),
        max_time_imbalance: profile
            .iter()
            .map(|r| r.time_imbalance())
            .fold(1.0, f64::max),
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (warmup, measure) = if quick {
        (1_000, 4_000)
    } else {
        (5_000, 30_000)
    };
    // The last point is far past saturation for every network here, so
    // its accepted throughput is the saturation plateau.
    let loads = [0.02, 0.06, 0.10, 0.14, 0.18, 0.24, 0.45];
    let mut rows = Vec::new();
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
            rows.push(JsonValue::Obj(vec![
                ("topology".into(), tag.into()),
                (
                    "offered_pkts_per_node_cycle".into(),
                    JsonValue::Num(p.offered),
                ),
                (
                    "accepted_pkts_per_node_cycle".into(),
                    JsonValue::Num(p.accepted),
                ),
                (
                    "avg_packet_latency_cycles".into(),
                    JsonValue::Num(p.avg_latency),
                ),
            ]));
        }
    }

    // The 4096-router fault campaign: serial reference against the
    // chiplet-boundary-sharded parallel stepper.
    let (cycles, inject_until) = if quick { (500, 350) } else { (2_000, 1_400) };
    let serial = run_campaign_4096(1, cycles, inject_until);
    let parallel = run_campaign_4096(8, cycles, inject_until);
    let identical = serial.deliveries_debug == parallel.deliveries_debug
        && serial.heatmap == parallel.heatmap
        && serial.counters == parallel.counters
        && serial.injected == parallel.injected
        && serial.dropped == parallel.dropped;
    assert!(
        identical,
        "serial and 8-thread runs of the 4096-router campaign diverged"
    );
    let delivered = serial.counters.2;
    println!(
        "chipletmesh8x8  4096 routers, {cycles} cycles: {delivered} delivered, \
         serial == 8 threads (bit-identical), {} profile intervals, \
         max time imbalance {:.2}",
        parallel.profile_intervals, parallel.max_time_imbalance
    );
    rows.push(JsonValue::Obj(vec![
        ("topology".into(), "chipletmesh8x8".into()),
        ("experiment".into(), "fault_campaign_4096".into()),
        ("routers".into(), 4096u64.into()),
        ("cycles".into(), cycles.into()),
        ("packets_delivered".into(), delivered.into()),
        ("flits_injected".into(), serial.injected.into()),
        (
            "serial_matches_8_threads".into(),
            JsonValue::Bool(identical),
        ),
        (
            "shard_profile".into(),
            JsonValue::Obj(vec![
                (
                    "profile_intervals".into(),
                    (parallel.profile_intervals as u64).into(),
                ),
                (
                    "max_time_imbalance".into(),
                    JsonValue::Num(parallel.max_time_imbalance),
                ),
            ]),
        ),
    ]));

    let doc = bench_envelope(
        "topology",
        "Uniform-random load sweep on an 8x8 mesh, an 8x8 torus, a 2x2-chiplet \
         mesh of 4x4 dies and a 2-chiplet star at comparable node count \
         (protected routers, 4 VCs, paper config; die crossings pay the \
         default d2d link class: 4 cycles at half width). Accepted throughput \
         in packets/node/cycle; the 0.45 offered point is past saturation for \
         every network, so it reads out the saturation plateau. Plus a \
         4096-router (64 chiplets of 8x8) accelerated fault campaign stepped \
         serially and with 8 chiplet-boundary-aligned shards, pinned \
         bit-identical, with the measured shard-profile imbalance.",
        "mesh",
        "single-CPU container run; throughput and latency are cycle-accurate \
         simulation semantics and machine-independent, only wall-clock would \
         differ on other hosts",
        JsonValue::Arr(rows),
    );
    let path = write_json(quick, "BENCH_topology", &doc).expect("write BENCH_topology.json");
    println!("\nwrote {}", path.display());
}
