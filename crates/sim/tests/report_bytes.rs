//! Byte pins of the run report's counter sections.
//!
//! The checkpoint golden pins each router's counter snapshot, but not
//! how a `NetworkReport` renders them: the network-wide `router_events`
//! sums and the per-router `spatial` grid, with its CSV and ASCII
//! renderings. These pins hold those bytes still for one protected and
//! one baseline 4×4 run under accumulating faults, which between them
//! fire every Shield mechanism counter. A digest changes only when the
//! rendered report does.

use noc_faults::{FaultPlan, InjectionConfig};
use noc_sim::{NetworkReport, Simulator};
use noc_telemetry::{RouterStats, SpatialGrid};
use noc_types::rng::Rng;
use noc_types::{Coord, NetworkConfig, Packet, PacketId, PacketKind, RouterConfig, SimConfig};
use shield_router::RouterKind;

/// The spatial grid's metric names, in CSV column order.
const METRICS: [&str; 9] = [
    "flits_routed",
    "occ_integral",
    "va_grants",
    "va_stalls",
    "sa_grants",
    "sa_stalls",
    "sa_bypass_grants",
    "va_borrows",
    "vc_transfers",
];

/// 64-bit FNV-1a, hex-rendered.
fn fnv1a(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    format!("{h:016x}")
}

/// A 4×4 run at 0.2 packets/node/cycle, one packet in three a 5-flit
/// data packet, under an accelerated accumulating fault plan.
fn run(kind: RouterKind, fault_seed: u64) -> NetworkReport {
    let k = 4u8;
    let mut cfg = NetworkConfig::paper();
    cfg.mesh_k = k;
    let plan = FaultPlan::uniform_random(
        &RouterConfig::paper(),
        usize::from(k) * usize::from(k),
        &InjectionConfig::accelerated_accumulating(60, 1000),
        fault_seed,
    );
    let sim = SimConfig {
        warmup_cycles: 100,
        measure_cycles: 1_000,
        drain_cycles: 500,
        seed: 0,
    };
    let mut rng = Rng::seeded(0xB17E);
    let mut next = 0u64;
    let (report, _) = Simulator::new(cfg, sim, kind, plan).run_with(|cycle, out| {
        for y in 0..k {
            for x in 0..k {
                if rng.next_f64() < 0.2 {
                    let src = Coord::new(x, y);
                    let dst = loop {
                        let d = Coord::new(rng.below(k.into()) as u8, rng.below(k.into()) as u8);
                        if d != src {
                            break d;
                        }
                    };
                    let kind = if next.is_multiple_of(3) {
                        PacketKind::Data
                    } else {
                        PacketKind::Control
                    };
                    next += 1;
                    out.push(Packet::new(PacketId(next), kind, src, dst, cycle));
                }
            }
        }
    });
    report
}

/// Every metric's ASCII rendering, each under its name.
fn all_ascii(grid: &SpatialGrid) -> String {
    METRICS
        .iter()
        .map(|name| format!("{name}\n{}", grid.ascii(name).unwrap()))
        .collect()
}

/// `(report JSON, spatial CSV, spatial ASCII)` digests of one run.
fn digests(report: &NetworkReport) -> [String; 3] {
    let grid = report.spatial.as_ref().expect("a report carries its grid");
    [
        fnv1a(report.to_json().render().as_bytes()),
        fnv1a(grid.to_csv().as_bytes()),
        fnv1a(all_ascii(grid).as_bytes()),
    ]
}

#[test]
fn the_runs_fire_every_mechanism_counter() {
    let p = run(RouterKind::Protected, 0xFA).router_events;
    let b = run(RouterKind::Baseline, 0xFB).router_events;
    for counter in RouterStats::MECHANISMS {
        assert!(
            p.get(counter) + b.get(counter) > 0,
            "{} never fired",
            counter.0
        );
    }
}

#[test]
fn protected_report_bytes_are_pinned() {
    assert_eq!(
        digests(&run(RouterKind::Protected, 0xFA)),
        ["54f90445fb118488", "7f75e58efc90a0dd", "b73e8abb767324c2"]
    );
}

#[test]
fn baseline_report_bytes_are_pinned() {
    assert_eq!(
        digests(&run(RouterKind::Baseline, 0xFB)),
        ["1780654953a934f1", "ce34014d9fe7c2a5", "fc1bcba989a0a998"]
    );
}
