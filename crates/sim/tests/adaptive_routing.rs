//! End-to-end campaigns under `RoutingMode::Adaptive`: congestion-
//! chosen minimal candidates with an up*/down* escape VC class.
//!
//! Covers the self-healing contract (`Network::fail_link` at cycle 0
//! and mid-campaign), the escape-class deadlock-freedom property over
//! randomized link-fault scenarios on every grid family, the
//! deliberately-broken variant (escape disabled ⇒ the flight recorder
//! finds a circular wait), and the `fail_router` ≡ all-incident-link
//! equivalence pin.

mod common;

use noc_faults::{FaultPlan, LinkFaultEvent};
use noc_sim::Network;
use noc_topology::Topology;
use noc_types::{
    splitmix64, Coord, Direction, Mesh, NetworkConfig, Packet, PacketId, PacketKind, RouterId,
    RoutingMode, TopologySpec,
};
use shield_router::RouterKind;
use std::collections::HashSet;

/// Deterministic uniform source (splitmix64-driven, no external RNG).
struct Source {
    rng: u64,
    grid: Mesh,
    rate_permille: u64,
    next: u64,
}

impl Source {
    fn new(grid: Mesh, rate_permille: u64, seed: u64) -> Self {
        Source {
            rng: seed,
            grid,
            rate_permille,
            next: 0,
        }
    }

    fn tick(&mut self, cycle: u64) -> Vec<Packet> {
        let mut out = Vec::new();
        let n = self.grid.len() as u64;
        for src in self.grid.coords() {
            if splitmix64(&mut self.rng) % 1000 >= self.rate_permille {
                continue;
            }
            let dst = loop {
                let d = self
                    .grid
                    .coord_of(RouterId((splitmix64(&mut self.rng) % n) as u16));
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

fn adaptive_cfg(spec: TopologySpec) -> NetworkConfig {
    let mut cfg = NetworkConfig::paper();
    cfg.mesh_k = 8;
    cfg.topology = spec;
    cfg.routing = RoutingMode::Adaptive;
    common::replayed(cfg)
}

/// Offer traffic for `inject_cycles`, then step until drained. Panics
/// (with the flight record) if the network wedges — the escape-class
/// liveness property every adaptive campaign must uphold.
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
    let record = net.flight_record(max_cycles);
    panic!(
        "adaptive network failed to drain within {max_cycles} cycles:\n{}",
        record.render(),
    );
}

fn assert_zero_loss(net: &Network) {
    let (offered, injected, ejected, misdelivered) = net.packet_counters();
    assert_eq!(offered, injected);
    assert_eq!(
        ejected, offered,
        "every packet came out (misdelivered {misdelivered}, dropped {}, edge-dropped {})",
        net.flits_dropped, net.flits_edge_dropped
    );
    assert_eq!(misdelivered, 0);
    assert_eq!(net.flits_dropped, 0);
    assert_eq!(net.flits_edge_dropped, 0);
    assert_eq!(net.pending_deliveries().len() as u64, offered);
}

#[test]
fn adaptive_mesh_campaign_delivers_every_packet() {
    let cfg = adaptive_cfg(TopologySpec::Mesh { w: 8, h: 8 });
    let mut net = Network::new(cfg, RouterKind::Protected);
    assert!(net.adaptive_escape().is_some());
    let mut src = Source::new(cfg.grid(), 40, 0xADA1);
    run_to_drain(&mut net, &mut src, 700, 6_000);
    assert_zero_loss(&net);
}

#[test]
fn adaptive_torus_campaign_delivers_every_packet() {
    let cfg = adaptive_cfg(TopologySpec::Torus { w: 8, h: 8 });
    let mut net = Network::new(cfg, RouterKind::Protected);
    let mut src = Source::new(cfg.grid(), 40, 0xADA2);
    run_to_drain(&mut net, &mut src, 700, 6_000);
    assert_zero_loss(&net);
}

#[test]
fn adaptive_chiplet_mesh_campaign_delivers_every_packet() {
    let d2d = noc_types::LinkClass {
        latency: 4,
        width_denom: 2,
    };
    let mut cfg = adaptive_cfg(TopologySpec::ChipletMesh {
        k_chip: 2,
        k_node: 4,
        d2d,
    });
    cfg.mesh_k = 8;
    let mut net = Network::new(cfg, RouterKind::Protected);
    let mut src = Source::new(cfg.grid(), 30, 0xADA3);
    run_to_drain(&mut net, &mut src, 700, 8_000);
    assert_zero_loss(&net);
}

/// The self-healing headline: with links already dead at cycle 0,
/// adaptive routing delivers *every* packet while static XY on the
/// same scenario drops everything whose dimension-order path crosses a
/// dead link.
#[test]
fn adaptive_routes_around_link_faults_where_static_xy_loses_packets() {
    let grid = Mesh::rect(8, 8);
    let cuts = [
        (Coord::new(3, 3), Direction::East),
        (Coord::new(4, 2), Direction::South),
        (Coord::new(1, 5), Direction::East),
    ];
    let plan = FaultPlan::none().with_link_faults(
        cuts.iter()
            .map(|&(c, dir)| LinkFaultEvent {
                cycle: 0,
                router: grid.id_of(c),
                dir,
            })
            .collect(),
    );

    let mut cfg = adaptive_cfg(TopologySpec::Mesh { w: 8, h: 8 });
    let mut net = Network::with_faults(cfg, RouterKind::Protected, &plan);
    let mut src = Source::new(cfg.grid(), 40, 0x5EED);
    run_to_drain(&mut net, &mut src, 700, 6_000);
    assert_zero_loss(&net);
    let esc = net.adaptive_escape().expect("adaptive mesh has escape");
    assert_eq!(
        esc.link_count(),
        2 * 8 * 7 - cuts.len(),
        "every scheduled link fault healed into the escape tables"
    );

    // The static contrast arm (pinned static, so never replayed).
    cfg.routing = RoutingMode::Static;
    let mut net = Network::with_faults(cfg, RouterKind::Protected, &plan);
    let mut src = Source::new(cfg.grid(), 40, 0x5EED);
    let mut cycle = 0u64;
    while cycle < 700 {
        net.offer_packets(src.tick(cycle));
        net.step(cycle);
        cycle += 1;
    }
    while cycle < 6_000 && net.in_flight_flits() > 0 {
        net.step(cycle);
        cycle += 1;
    }
    assert!(
        net.flits_edge_dropped > 0,
        "static XY must lose flits on the dead links"
    );
}

/// A link fault landing mid-campaign: traffic on the dying link is
/// lost (and counted), everything else — including packets injected
/// after the fault whose static route would have crossed it — still
/// delivers, and the network fully drains.
#[test]
fn mid_campaign_link_fault_heals_and_drains() {
    let cfg = adaptive_cfg(TopologySpec::Mesh { w: 8, h: 8 });
    let grid = cfg.grid();
    let mut net = Network::new(cfg, RouterKind::Protected);
    let mut src = Source::new(grid, 40, 0xF417);
    let mut cycle = 0u64;
    while cycle < 700 {
        if cycle == 300 {
            net.fail_link(grid.id_of(Coord::new(3, 3)).index(), Direction::East);
            net.fail_link(grid.id_of(Coord::new(5, 1)).index(), Direction::South);
        }
        let refused = net.offer_packets(src.tick(cycle));
        assert_eq!(refused, 0);
        net.step(cycle);
        cycle += 1;
    }
    while cycle < 8_000 {
        net.step(cycle);
        cycle += 1;
        if net.in_flight_flits() == 0 && net.queued_packets() == 0 {
            break;
        }
    }
    assert_eq!(net.in_flight_flits(), 0, "network must drain after healing");
    assert_eq!(net.queued_packets(), 0);
    let (offered, _, ejected, misdelivered) = net.packet_counters();
    assert_eq!(misdelivered, 0);
    // Only flits physically on (or committed to) the dying links may
    // be lost; the overwhelming majority must deliver.
    assert!(
        ejected + 20 >= offered,
        "healing must bound the damage to in-flight traffic: {ejected}/{offered} delivered"
    );
    assert!(
        ejected > offered * 9 / 10,
        "most packets must deliver: {ejected}/{offered}"
    );
}

/// Escape-class acyclicity, property-test style: randomized link-fault
/// scenarios on every adaptive grid family never wedge the network —
/// every campaign drains and the flight recorder never finds a
/// circular wait. This is the Duato argument (one-way transfer into an
/// acyclic up*/down* escape class) checked end to end.
#[test]
fn randomized_link_fault_scenarios_never_trip_the_watchdog() {
    let d2d = noc_types::LinkClass {
        latency: 2,
        width_denom: 1,
    };
    let specs = [
        TopologySpec::Mesh { w: 6, h: 6 },
        TopologySpec::Torus { w: 6, h: 6 },
        TopologySpec::ChipletMesh {
            k_chip: 2,
            k_node: 3,
            d2d,
        },
    ];
    let mut rng = 0xACED_u64;
    for spec in specs {
        for scenario in 0..4 {
            let mut cfg = adaptive_cfg(spec);
            cfg.mesh_k = 6;
            let grid = cfg.grid();
            // 1–3 random link faults at random onset cycles.
            let faults = 1 + (splitmix64(&mut rng) % 3) as usize;
            let mut events = Vec::new();
            for _ in 0..faults {
                let router = RouterId((splitmix64(&mut rng) % grid.len() as u64) as u16);
                let dir = [
                    Direction::North,
                    Direction::East,
                    Direction::South,
                    Direction::West,
                ][(splitmix64(&mut rng) % 4) as usize];
                let cycle = splitmix64(&mut rng) % 400;
                events.push(LinkFaultEvent { cycle, router, dir });
            }
            let plan = FaultPlan::none().with_link_faults(events.clone());
            let mut net = Network::with_faults(cfg, RouterKind::Protected, &plan);
            let mut src = Source::new(grid, 30, splitmix64(&mut rng));
            let mut cycle = 0u64;
            while cycle < 500 {
                net.offer_packets(src.tick(cycle));
                net.step(cycle);
                cycle += 1;
            }
            let mut drained = false;
            while cycle < 8_000 {
                net.step(cycle);
                cycle += 1;
                if net.in_flight_flits() == 0 && net.queued_packets() == 0 {
                    drained = true;
                    break;
                }
            }
            let record = net.flight_record(cycle);
            assert!(
                record.cycle_edges.as_deref().is_none_or(<[_]>::is_empty),
                "{}/{scenario}: escape class must keep the wait-for graph acyclic \
                 (faults {events:?}): {:?}",
                spec.tag(),
                record.cycle_edges
            );
            assert!(
                drained,
                "{}/{scenario}: adaptive network must drain (faults {events:?}): \
                 {} in flight, {} queued",
                spec.tag(),
                net.in_flight_flits(),
                net.queued_packets()
            );
        }
    }
}

/// The deliberately-broken variant: with the escape class disabled,
/// purely-minimal adaptive routing on a torus row ring is a textbook
/// credit cycle — the watchdog condition appears and the flight
/// recorder extracts a non-empty circular wait, proving the deadlock
/// instrumentation actually sees what the escape class prevents.
#[test]
fn disabling_the_escape_class_produces_a_recorded_wait_cycle() {
    let mut cfg = adaptive_cfg(TopologySpec::Torus { w: 4, h: 4 });
    cfg.mesh_k = 4;
    cfg.router.vcs = 2; // one escape VC, one adaptive VC per port
    cfg.router.buffer_depth = 2;
    let grid = cfg.grid();
    let mut net = Network::new(cfg, RouterKind::Protected);
    net.disable_adaptive_escape();
    // Row-ring flood: every router sends two hops East (the minimal
    // wrap tie prefers East), so each row's four East links form a
    // dependency ring with no escape.
    let mut next_id = 0u64;
    let mut cycle = 0u64;
    while cycle < 400 {
        let mut pkts = Vec::new();
        for src in grid.coords() {
            let dst = Coord::new((src.x + 2) % 4, src.y);
            next_id += 1;
            pkts.push(Packet::new(
                PacketId(next_id),
                PacketKind::Data,
                src,
                dst,
                cycle,
            ));
        }
        net.offer_packets(pkts);
        net.step(cycle);
        cycle += 1;
        if net.in_flight_flits() > 0 && cycle > 50 && net.last_activity + 100 < cycle {
            break; // wedged — the whole point
        }
    }
    // Let any stragglers settle, then demand a genuine circular wait.
    for _ in 0..200 {
        net.step(cycle);
        cycle += 1;
    }
    assert!(
        net.in_flight_flits() > 0 && net.last_activity + 100 < cycle,
        "escape-free row-ring flood must wedge (in flight: {}, last activity {} at {cycle})",
        net.in_flight_flits(),
        net.last_activity
    );
    let record = net.flight_record(cycle);
    assert!(
        record.cycle_edges.as_deref().is_some_and(|e| !e.is_empty()),
        "the flight recorder must extract the circular wait"
    );
}

/// `fail_router` shares the quarantine path with `fail_link`: a node
/// fault is the fault of all its incident links. Pinned at the table
/// level — `Topology::with_dead` and the incident-link fold of
/// `Topology::with_cut_link` agree on every alive-pair route — and at
/// the network level in adaptive mode.
#[test]
fn node_fault_equals_the_fault_of_all_its_incident_links() {
    let base = Topology::escape_mesh(6, 6);
    let grid = base.grid();
    let node = grid.id_of(Coord::new(3, 3)).index();
    let dead = base.with_dead(node);
    let mut folded = base.clone();
    for dir in [
        Direction::North,
        Direction::East,
        Direction::South,
        Direction::West,
    ] {
        if folded.link(node, dir).is_some() {
            folded = folded
                .with_cut_link(node, dir)
                .expect("interior incident-link cuts keep the graph routable");
        }
    }
    assert!(!folded.is_alive(node), "last cut quarantines the node");
    for s in 0..grid.len() {
        for d in 0..grid.len() {
            if s == node || d == node || s == d {
                continue;
            }
            assert_eq!(
                dead.route(s, d),
                folded.route(s, d),
                "alive-pair route {s}→{d} must not depend on how the node died"
            );
            assert!(dead.reachable(s, d) && folded.reachable(s, d));
        }
    }

    // Network level, adaptive mode: killing the node and failing each
    // of its incident links leave identical escape tables for alive
    // pairs, and both campaigns deliver all traffic between them.
    let cfg = adaptive_cfg(TopologySpec::Mesh { w: 6, h: 6 });
    let mut by_router = Network::new(cfg, RouterKind::Protected);
    by_router.fail_router(node);
    let mut by_links = Network::new(cfg, RouterKind::Protected);
    for dir in [
        Direction::North,
        Direction::East,
        Direction::South,
        Direction::West,
    ] {
        by_links.fail_link(node, dir);
    }
    let esc_r = by_router.adaptive_escape().unwrap();
    let esc_l = by_links.adaptive_escape().unwrap();
    for s in 0..grid.len() {
        for d in 0..grid.len() {
            if s == node || d == node {
                continue;
            }
            assert_eq!(
                esc_r.route(s, d),
                esc_l.route(s, d),
                "escape route {s}→{d} must not depend on how the node died"
            );
        }
    }
}

/// The credit-conservation invariant holds every cycle across a
/// mid-campaign `fail_link` — the unplug settles the ledgers exactly.
#[test]
fn credit_conservation_survives_link_faults() {
    let mut cfg = adaptive_cfg(TopologySpec::Mesh { w: 4, h: 4 });
    cfg.mesh_k = 4;
    let grid = cfg.grid();
    let mut net = Network::new(cfg, RouterKind::Protected);
    let mut src = Source::new(grid, 60, 0xC0DE);
    for cycle in 0..600u64 {
        if cycle == 200 {
            net.fail_link(grid.id_of(Coord::new(1, 1)).index(), Direction::East);
        }
        if cycle == 350 {
            net.fail_link(grid.id_of(Coord::new(2, 2)).index(), Direction::North);
        }
        if cycle < 400 {
            net.offer_packets(src.tick(cycle));
        }
        net.step(cycle);
        net.assert_credit_conservation();
    }
}

/// Delivered packets never repeat and always land at their true
/// destination under adaptive routing (sanity against duplication by
/// the re-RC path).
#[test]
fn adaptive_deliveries_are_unique_and_correct() {
    let cfg = adaptive_cfg(TopologySpec::Mesh { w: 8, h: 8 });
    let mut net = Network::new(cfg, RouterKind::Protected);
    let mut src = Source::new(cfg.grid(), 40, 0xD15C);
    run_to_drain(&mut net, &mut src, 400, 5_000);
    let mut seen = HashSet::new();
    for d in net.pending_deliveries() {
        assert!(
            seen.insert(d.id.0),
            "duplicate delivery of packet {}",
            d.id.0
        );
    }
    assert_zero_loss(&net);
}

/// 64-bit FNV-1a, folded over one `u64` at a time.
fn fnv1a_extend(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One fixed-seed run on a 6×6 grid: inject for 400 cycles, apply
/// `fault` at cycle 200, step until drained or cycle 4,000, and fold
/// the delivery log (packet id, destination, ejection cycle) into `h`.
fn pinned_run(
    h: u64,
    spec: TopologySpec,
    routing: RoutingMode,
    seed: u64,
    fault: impl Fn(&mut Network),
) -> u64 {
    let mut cfg = NetworkConfig::paper();
    cfg.mesh_k = 6;
    cfg.topology = spec;
    cfg.routing = routing;
    let mut net = Network::new(cfg, RouterKind::Protected);
    let mut src = Source::new(cfg.grid(), 40, seed);
    let mut cycle = 0u64;
    while cycle < 4_000 {
        if cycle == 200 {
            fault(&mut net);
        }
        if cycle < 400 {
            net.offer_packets(src.tick(cycle));
        } else if net.in_flight_flits() == 0 && net.queued_packets() == 0 {
            break;
        }
        net.step(cycle);
        cycle += 1;
    }
    net.pending_deliveries().iter().fold(h, |h, d| {
        let h = fnv1a_extend(h, d.id.0);
        let h = fnv1a_extend(h, u64::from(d.dst.x) << 8 | u64::from(d.dst.y));
        fnv1a_extend(h, d.ejected_at)
    })
}

/// Pins what the three routing paths deliver, packet by packet:
///
/// * an adaptive torus whose **wrap** link dies mid-run — the link is
///   outside the escape graph, so only the adaptive candidate filter
///   knows it is gone;
/// * an adaptive mesh that loses a router mid-run (`fail_router`);
/// * a fault-free, statically routed mesh (plain XY).
///
/// The digest was recorded before routing moved into the topology; a
/// change to any route or liveness decision moves it.
#[test]
fn routing_paths_deliver_the_pinned_log() {
    let grid = Mesh::rect(6, 6);
    let wrap = grid.id_of(Coord::new(5, 2)).index();
    let torus = TopologySpec::Torus { w: 6, h: 6 };
    let mesh = TopologySpec::Mesh { w: 6, h: 6 };
    let h = 0xcbf2_9ce4_8422_2325;
    let h = pinned_run(h, torus, RoutingMode::Adaptive, 0x7012, |net| {
        assert_eq!(
            net.topology().link(wrap, Direction::East),
            Some(grid.id_of(Coord::new(0, 2)).index())
        );
        net.fail_link(wrap, Direction::East);
    });
    let killed = grid.id_of(Coord::new(2, 3)).index();
    let h = pinned_run(h, mesh, RoutingMode::Adaptive, 0x7013, |net| {
        net.fail_router(killed)
    });
    let h = pinned_run(h, mesh, RoutingMode::Static, 0x7014, |_| {});
    assert_eq!(format!("{h:016x}"), "22ad0dd1f68e9ac8");
}
