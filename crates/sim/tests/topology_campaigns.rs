//! End-to-end campaigns on the non-mesh topologies: an 8×8 torus and an
//! 8×8 mesh with cut links both deliver every offered packet with zero
//! loss, and killing a router mid-campaign reroutes all remaining
//! traffic around it.

mod common;

use noc_sim::Network;
use noc_types::rng::Rng;
use noc_types::{
    Coord, Mesh, NetworkConfig, Packet, PacketId, PacketKind, RoutingMode, TopologySpec,
};
use shield_router::RouterKind;
use std::collections::HashSet;

/// Deterministic uniform source over an explicit node set.
struct Source {
    rng: Rng,
    grid: Mesh,
    nodes: Vec<Coord>,
    rate: f64,
    next: u64,
}

impl Source {
    fn new(grid: Mesh, rate: f64, seed: u64) -> Self {
        Source {
            rng: Rng::seeded(seed),
            grid,
            nodes: grid.coords().collect(),
            rate,
            next: 0,
        }
    }

    /// Restrict sources and destinations (after a router kill).
    fn exclude(&mut self, node: Coord) {
        self.nodes.retain(|&c| c != node);
    }

    fn tick(&mut self, cycle: u64) -> Vec<Packet> {
        let mut out = Vec::new();
        for src in self.grid.coords() {
            if !self.nodes.contains(&src) || self.rng.next_f64() >= self.rate {
                continue;
            }
            let dst = loop {
                let d = self.nodes[self.rng.index(self.nodes.len())];
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
        out
    }
}

/// Offer traffic for `inject_cycles`, then step until the network is
/// completely drained (bounded), and return the network.
fn run_to_drain(net: &mut Network, src: &mut Source, inject_cycles: u64, max_cycles: u64) {
    let mut cycle = 0u64;
    while cycle < inject_cycles {
        let refused = net.offer_packets(src.tick(cycle));
        assert_eq!(refused, 0, "NI queues must not overflow at this load");
        net.step(cycle);
        cycle += 1;
    }
    while cycle < max_cycles {
        net.step(cycle);
        cycle += 1;
        if net.in_flight_flits() == 0 && net.queued_packets() == 0 {
            return;
        }
    }
    panic!(
        "network failed to drain within {max_cycles} cycles: {} flits in flight, {} queued",
        net.in_flight_flits(),
        net.queued_packets()
    );
}

fn assert_zero_loss(net: &Network) {
    let (offered, injected, ejected, misdelivered) = net.packet_counters();
    assert_eq!(offered, injected, "every offered packet was injected");
    assert_eq!(ejected, offered, "every packet came out");
    assert_eq!(misdelivered, 0);
    assert_eq!(net.flits_dropped, 0);
    assert_eq!(net.flits_edge_dropped, 0);
    assert_eq!(net.pending_deliveries().len() as u64, offered);
}

#[test]
fn torus_campaign_delivers_every_packet() {
    let mut cfg = NetworkConfig::paper();
    cfg.mesh_k = 8;
    cfg.topology = TopologySpec::Torus { w: 8, h: 8 };
    let cfg = common::replayed(cfg);
    let mut net = Network::new(cfg, RouterKind::Protected);
    let mut src = Source::new(cfg.grid(), 0.04, 0x70B05);
    run_to_drain(&mut net, &mut src, 700, 4_000);
    assert_zero_loss(&net);
    // Wraparound links are real: the torus diameter is 8 links (4+4),
    // versus 14 on the 8×8 mesh. `hops` counts crossbar traversals —
    // one per link plus the ejection at the destination — so the
    // longest possible delivery is 9; a mesh-routed far corner pair
    // would show up as 15.
    // The hop bound pins static minimal-wrap DOR. Replayed under
    // adaptive routing a packet may transfer to the escape class,
    // which routes up*/down* over the non-wrap grid links, so
    // non-minimal deliveries are legal there.
    if cfg.routing == RoutingMode::Static {
        let max_hops = net
            .pending_deliveries()
            .iter()
            .map(|d| d.hops)
            .max()
            .unwrap();
        assert!(
            max_hops <= 9,
            "torus routes must use the wraparound; saw a {max_hops}-hop delivery"
        );
    }
}

#[test]
fn cut_mesh_campaign_delivers_every_packet() {
    let mut cfg = NetworkConfig::paper();
    cfg.mesh_k = 8;
    cfg.topology = TopologySpec::CutMesh {
        w: 8,
        h: 8,
        cuts: 4,
        seed: 0x5C155,
    };
    let cfg = common::replayed(cfg);
    let mut net = Network::new(cfg, RouterKind::Protected);
    assert_eq!(net.topology().tag(), "irregular");
    assert_eq!(
        net.topology().link_count(),
        2 * 8 * 7 - 4,
        "exactly four links cut"
    );
    let mut src = Source::new(cfg.grid(), 0.04, 0xC5EED);
    run_to_drain(&mut net, &mut src, 700, 4_000);
    assert_zero_loss(&net);
}

/// Kill a router mid-campaign: every packet not addressed to it still
/// delivers — including flits already in flight whose old routes pass
/// through the quarantined node (the shared up*/down* orientation keeps
/// mixed old/new paths deadlock-free while new RC decisions detour).
#[test]
fn killing_a_router_mid_campaign_reroutes_everything() {
    let mut cfg = NetworkConfig::paper();
    cfg.mesh_k = 8;
    // Zero cuts: a full mesh, but routed up*/down* so it is survivable.
    cfg.topology = TopologySpec::CutMesh {
        w: 8,
        h: 8,
        cuts: 0,
        seed: 0,
    };
    let cfg = common::replayed(cfg);
    let dead = Coord::new(3, 3);
    let dead_id = cfg.grid().id_of(dead).index();
    let mut net = Network::new(cfg, RouterKind::Protected);
    let mut src = Source::new(cfg.grid(), 0.04, 0xDEAD);
    let kill_at = 300u64;
    let inject_until = 700u64;
    let mut offered_ids: HashSet<u64> = HashSet::new();
    let mut cycle = 0u64;
    while cycle < inject_until {
        if cycle == kill_at {
            net.fail_router(dead_id);
            assert!(!net.topology().is_alive(dead_id));
            // From here on, traffic avoids the dead node entirely.
            src.exclude(dead);
        }
        let pkts = src.tick(cycle);
        for p in &pkts {
            offered_ids.insert(p.id.0);
        }
        let refused = net.offer_packets(pkts);
        assert_eq!(refused, 0);
        net.step(cycle);
        cycle += 1;
    }
    while cycle < 6_000 {
        net.step(cycle);
        cycle += 1;
        if net.in_flight_flits() == 0 && net.queued_packets() == 0 {
            break;
        }
    }
    assert_eq!(
        net.in_flight_flits(),
        0,
        "network must drain after the kill"
    );
    assert_eq!(net.queued_packets(), 0);
    let (_, _, _, misdelivered) = net.packet_counters();
    assert_eq!(misdelivered, 0);
    assert_eq!(net.flits_dropped, 0);
    assert_eq!(net.flits_edge_dropped, 0);
    // Every offered packet delivered at its true destination — the
    // pre-kill packets addressed to the dead router included (it is
    // quarantined as a transit node, not unplugged).
    let delivered: HashSet<u64> = net.pending_deliveries().iter().map(|d| d.id.0).collect();
    assert_eq!(
        delivered, offered_ids,
        "all packets must deliver despite the mid-campaign kill"
    );
    let to_dead = net
        .pending_deliveries()
        .iter()
        .filter(|d| d.dst == dead)
        .count();
    assert!(to_dead > 0, "pre-kill traffic to the dead node still lands");
}
