//! Properties of the heterogeneous link model (the per-class wire
//! wheel): latency-`d` links hold each flit for exactly `d` cycles,
//! credits ride the reverse link at the same latency (round trip
//! `2d`), narrow links serialise flits at `width_denom`-cycle spacing,
//! and credit conservation holds under randomized mixed-latency
//! wirings.
//!
//! The tests observe the wheel through `Network::snapshot()`: a wire
//! pushed with delay `d` appears in the rendered `wires` array for
//! exactly `d` consecutive post-step snapshots, so summed per-cycle
//! presence counts measure link occupancy without any test-only
//! accessors.

mod common;

use noc_faults::FaultPlan;
use noc_sim::Network;
use noc_telemetry::json::JsonValue;
use noc_telemetry::snapshot::Snapshot;
use noc_types::{Coord, LinkClass, NetworkConfig, Packet, PacketId, PacketKind, TopologySpec};
use shield_router::RouterKind;

/// A `2×2`-chiplet mesh of side-2 dies (4×4 grid) whose single
/// interesting link — East out of `(1, 1)` into `(2, 1)` — is a d2d
/// boundary link of the given class.
fn boundary_cfg(d2d: LinkClass) -> NetworkConfig {
    let mut cfg = NetworkConfig::paper();
    cfg.mesh_k = 4;
    cfg.topology = TopologySpec::ChipletMesh {
        k_chip: 2,
        k_node: 2,
        d2d,
    };
    cfg.validate().expect("boundary config is valid");
    common::replayed(cfg)
}

/// Wires currently in flight that match `tag` and whose `field` names
/// router/node `id`, straight from the rendered snapshot.
fn wires_matching(net: &Network, tag: &str, field: &str, id: u64) -> Vec<JsonValue> {
    let snap = net.snapshot();
    let mut out = Vec::new();
    for slot in snap.get("wires").and_then(|w| w.as_array()).unwrap() {
        for wire in slot.as_array().unwrap() {
            let t = wire.get("t").and_then(|t| t.as_str()).unwrap();
            let dest = wire.get(field).and_then(|r| r.as_u64());
            if t == tag && dest == Some(id) {
                out.push(wire.clone());
            }
        }
    }
    out
}

#[test]
fn a_latency_d_link_holds_flit_and_credit_for_exactly_d_cycles_each() {
    for d in [1u32, 3, 5] {
        let cfg = boundary_cfg(LinkClass::full(d));
        let mut net = Network::with_faults(cfg, RouterKind::Protected, &FaultPlan::none());
        let src = Coord::new(1, 1);
        let dst = Coord::new(2, 1);
        let dst_id = net.mesh().id_of(dst).index() as u64;
        let src_id = net.mesh().id_of(src).index() as u64;
        net.offer_packets(vec![Packet::new(
            PacketId(1),
            PacketKind::Control,
            src,
            dst,
            0,
        )]);
        // XY routes the single flit over exactly one link: East out of
        // the source chiplet into the destination one. Summed per-cycle
        // wheel presence therefore measures that link's occupancy.
        let mut flit_cycles = 0u32;
        let mut credit_cycles = 0u32;
        for cycle in 0..80u64 {
            net.step(cycle);
            flit_cycles += wires_matching(&net, "flit", "router", dst_id).len() as u32;
            credit_cycles += wires_matching(&net, "credit", "router", src_id).len() as u32;
        }
        assert_eq!(net.pending_deliveries().len(), 1, "d={d}: packet delivered");
        assert_eq!(
            flit_cycles, d,
            "d={d}: the flit must occupy the forward link for exactly d cycles"
        );
        assert_eq!(
            credit_cycles, d,
            "d={d}: the credit must occupy the reverse link for exactly d cycles \
             (flit + credit = 2d round trip)"
        );
    }
}

#[test]
fn a_narrow_link_serialises_back_to_back_flits_at_width_denom_spacing() {
    let f = 4u32;
    let cfg = boundary_cfg(LinkClass {
        latency: 2,
        width_denom: f,
    });
    let mut net = Network::with_faults(cfg, RouterKind::Protected, &FaultPlan::none());
    let src = Coord::new(1, 1);
    let dst = Coord::new(2, 1);
    let dst_id = net.mesh().id_of(dst).index() as u64;
    // One 5-flit data packet: its flits share a VC and depart
    // back-to-back (one per cycle while upstream credits last), faster
    // than the quarter-width link can carry them, so the pacing is the
    // bottleneck and must spread arrivals exactly `f` apart.
    net.offer_packets(vec![Packet::new(
        PacketId(1),
        PacketKind::Data,
        src,
        dst,
        0,
    )]);
    let mut present: Vec<u64> = Vec::new();
    let mut arrivals: Vec<(u64, u64)> = Vec::new(); // (arrival cycle, seq)
    for cycle in 0..120u64 {
        net.step(cycle);
        let now: Vec<u64> = wires_matching(&net, "flit", "router", dst_id)
            .iter()
            .map(|w| {
                w.get("flit")
                    .and_then(|fl| fl.get("seq"))
                    .and_then(|s| s.as_u64())
                    .expect("flit wires carry a seq")
            })
            .collect();
        for &seq in &present {
            if !now.contains(&seq) {
                arrivals.push((cycle, seq));
            }
        }
        present = now;
    }
    assert_eq!(net.pending_deliveries().len(), 1, "data packet delivered");
    assert_eq!(arrivals.len(), 5, "all five flits crossed the boundary");
    // In-order per packet (wormhole on one VC), paced `f` apart. The
    // first four depart one per cycle (buffer_depth credits in hand),
    // so their spacing is exactly the serialisation factor; the tail
    // flit waits for a returning credit and may only be later.
    let seqs: Vec<u64> = arrivals.iter().map(|&(_, s)| s).collect();
    assert_eq!(seqs, vec![0, 1, 2, 3, 4], "flits arrive in seq order");
    for i in 0..3 {
        assert_eq!(
            arrivals[i + 1].0 - arrivals[i].0,
            f as u64,
            "arrival gap {i} must equal the serialisation factor"
        );
    }
    assert!(
        arrivals[4].0 - arrivals[3].0 >= f as u64,
        "the credit-gated tail flit still respects the pacing"
    );
}

/// Splitmix-style PRNG, independent of the workspace's `noc_types::rng`
/// streams so the cases stay put when those move.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    fn pick(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[test]
fn credit_conservation_holds_under_randomized_mixed_latency_wirings() {
    let mut rng = Lcg(0x11F0);
    for case in 0..6 {
        let d2d = LinkClass {
            latency: 1 + rng.pick(5) as u32,
            width_denom: 1 + rng.pick(3) as u32,
        };
        let hub = LinkClass {
            latency: 1 + rng.pick(3) as u32,
            width_denom: 1,
        };
        let k_node = 2 + rng.pick(2) as u8;
        let topology = if rng.pick(2) == 0 {
            TopologySpec::ChipletMesh {
                k_chip: 2,
                k_node,
                d2d,
            }
        } else {
            TopologySpec::ChipletStar {
                chiplets: 2 + rng.pick(2) as u8,
                k_node,
                d2d,
                hub,
            }
        };
        let mut cfg = NetworkConfig::paper();
        cfg.mesh_k = 4;
        cfg.topology = topology;
        cfg.validate().expect("randomized chiplet config is valid");
        let cfg = common::replayed(cfg);
        let mut net = Network::with_faults(cfg, RouterKind::Protected, &FaultPlan::none());
        let (w, h) = (net.mesh().w, net.mesh().h);
        let label = format!("case {case}: {topology:?}");

        let mut next_id = 0u64;
        for cycle in 0..260u64 {
            if cycle < 180 && cycle.is_multiple_of(2) {
                // Deterministic cross-die pairs sweeping the grid.
                let sx = (rng.pick(w as u64)) as u8;
                let sy = (rng.pick(h as u64)) as u8;
                let dx = (rng.pick(w as u64)) as u8;
                let dy = (rng.pick(h as u64)) as u8;
                if (sx, sy) != (dx, dy) {
                    next_id += 1;
                    let kind = if next_id.is_multiple_of(3) {
                        PacketKind::Data
                    } else {
                        PacketKind::Control
                    };
                    net.offer_packets(vec![Packet::new(
                        PacketId(next_id),
                        kind,
                        Coord::new(sx, sy),
                        Coord::new(dx, dy),
                        cycle,
                    )]);
                }
            }
            net.step(cycle);
            if cycle.is_multiple_of(10) {
                net.assert_credit_conservation();
            }
        }
        net.assert_credit_conservation();
        assert!(
            !net.pending_deliveries().is_empty(),
            "{label}: cross-die traffic must flow"
        );
        assert_eq!(
            net.in_flight_flits(),
            0,
            "{label}: the network must drain after injection stops"
        );
    }
}
