//! Back-compat pin for the heterogeneous link model: a uniform-latency
//! configuration (every link at `NetworkConfig::link_latency`, full
//! width) must produce bit-identical end states to the historical
//! single-ring stepper, on every pre-chiplet topology.
//!
//! The committed artefact `tests/golden/link_backcompat.json` maps each
//! scenario to an FNV-1a digest of the final network snapshot (which
//! covers wires in flight, buffers, credits, counters and delivery
//! totals). It was blessed from the last single-ring commit, **before**
//! the per-link wire wheel landed, so any drift the refactor introduces
//! on uniform configs fails here. Re-bless (only for an intentional
//! behaviour change) with
//! `NOC_BLESS_GOLDEN=1 cargo test -p noc-sim --test link_backcompat`.
//!
//! The digest deliberately hashes a *behavioural projection* of the
//! snapshot: the schema version and fields that exist only for the
//! heterogeneous link model (`link_free`, identically zero on uniform
//! full-width configs) are dropped before rendering, so intentional
//! schema evolution does not fake a behaviour drift and real drift in
//! wires, buffers, credits or deliveries still fails the pin.

use noc_faults::FaultPlan;
use noc_sim::{MemoryStream, Network};
use noc_telemetry::snapshot::Snapshot;
use noc_types::rng::Rng;
use noc_types::{Coord, NetworkConfig, Packet, PacketId, PacketKind, TopologySpec};
use shield_router::RouterKind;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/link_backcompat.json"
);

/// Deterministic uniform source (same shape as the equivalence suite).
struct Source {
    rng: Rng,
    k: u8,
    rate: f64,
    next: u64,
}

impl Source {
    fn tick(&mut self, cycle: u64) -> Vec<Packet> {
        let mut out = Vec::new();
        for y in 0..self.k {
            for x in 0..self.k {
                if self.rng.next_f64() < self.rate {
                    let src = Coord::new(x, y);
                    let dst = loop {
                        let d = Coord::new(
                            self.rng.below(self.k.into()) as u8,
                            self.rng.below(self.k.into()) as u8,
                        );
                        if d != src {
                            break d;
                        }
                    };
                    let kind = if self.next.is_multiple_of(3) {
                        PacketKind::Data
                    } else {
                        PacketKind::Control
                    };
                    self.next += 1;
                    out.push(Packet::new(PacketId(self.next), kind, src, dst, cycle));
                }
            }
        }
        out
    }
}

/// 64-bit FNV-1a, hex-rendered. Stable, dependency-free, and enough to
/// pin a multi-hundred-kilobyte snapshot in a reviewable golden file.
fn fnv1a(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    format!("{h:016x}")
}

/// The pinned scenarios: every pre-chiplet topology, at the historical
/// 1-cycle links and at a slower uniform 3-cycle setting (both flow
/// through the same wire-wheel slots the single ring used).
fn scenarios() -> Vec<(&'static str, TopologySpec, u32)> {
    vec![
        ("mesh/lat1", TopologySpec::MeshK, 1),
        ("mesh/lat3", TopologySpec::MeshK, 3),
        ("torus/lat1", TopologySpec::Torus { w: 6, h: 6 }, 1),
        ("torus/lat3", TopologySpec::Torus { w: 6, h: 6 }, 3),
        (
            "cutmesh/lat1",
            TopologySpec::CutMesh {
                w: 6,
                h: 6,
                cuts: 5,
                seed: 0xC11,
            },
            1,
        ),
        (
            "cutmesh/lat2",
            TopologySpec::CutMesh {
                w: 6,
                h: 6,
                cuts: 5,
                seed: 0xC11,
            },
            2,
        ),
    ]
}

/// Drive one scenario mid-campaign (injection stops before the end so
/// wires, buffers and credits are all in motion at the capture point)
/// and digest the full snapshot plus the delivery log.
fn digest(spec: TopologySpec, link_latency: u32) -> String {
    let mut cfg = NetworkConfig::paper();
    cfg.mesh_k = 6;
    cfg.topology = spec;
    cfg.link_latency = link_latency;
    cfg.validate().expect("scenario config is valid");
    let mut net = Network::with_faults(cfg, RouterKind::Protected, &FaultPlan::none());
    let mut src = Source {
        rng: Rng::seeded(0x11C4),
        k: 6,
        rate: 0.04,
        next: 0,
    };
    for cycle in 0..700u64 {
        if cycle < 520 {
            net.offer_packets(src.tick(cycle));
        }
        net.step(cycle);
    }
    let mut snap = net.snapshot();
    if let noc_telemetry::json::JsonValue::Obj(pairs) = &mut snap {
        pairs.retain(|(k, _)| k != "schema_version" && k != "link_free");
    }
    let mut doc = snap.render();
    doc.push('|');
    let mut log = MemoryStream::new();
    net.hand_on_deliveries(&mut log).unwrap();
    doc.push_str(&format!("{:?}", log.entries()));
    fnv1a(doc.as_bytes())
}

#[test]
fn uniform_latency_end_states_match_the_single_ring_golden() {
    let mut fresh = String::from("{\n");
    for (i, (name, spec, lat)) in scenarios().into_iter().enumerate() {
        if i > 0 {
            fresh.push_str(",\n");
        }
        fresh.push_str(&format!("  \"{name}\": \"{}\"", digest(spec, lat)));
    }
    fresh.push_str("\n}\n");
    if std::env::var_os("NOC_BLESS_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &fresh).expect("bless golden artefact");
        return;
    }
    let committed = std::fs::read_to_string(GOLDEN_PATH)
        .expect("committed golden artefact exists (bless with NOC_BLESS_GOLDEN=1)");
    assert_eq!(
        fresh, committed,
        "uniform-latency behaviour drifted from the single-ring stepper"
    );
}
