//! End-to-end tests of the mesh simulator.

use noc_faults::{FaultPlan, FaultSite, InjectionEvent};
use noc_sim::{Network, SimOutcome, Simulator};
use noc_types::rng::Rng;
use noc_types::{
    Coord, Cycle, NetworkConfig, Packet, PacketId, PacketKind, RouterId, SimConfig, VcId,
};
use shield_router::RouterKind;

fn small_net(k: u8) -> NetworkConfig {
    let mut cfg = NetworkConfig::paper();
    cfg.mesh_k = k;
    cfg
}

/// A simple Bernoulli uniform-random source over all nodes.
struct UniformSource {
    rng: Rng,
    k: u8,
    rate: f64,
    next_id: u64,
    data_fraction: f64,
}

impl UniformSource {
    fn new(k: u8, rate: f64, seed: u64) -> Self {
        UniformSource {
            rng: Rng::seeded(seed),
            k,
            rate,
            next_id: 0,
            data_fraction: 0.4,
        }
    }

    fn tick(&mut self, cycle: Cycle) -> Vec<Packet> {
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
                    let kind = if self.rng.next_f64() < self.data_fraction {
                        PacketKind::Data
                    } else {
                        PacketKind::Control
                    };
                    self.next_id += 1;
                    out.push(Packet::new(PacketId(self.next_id), kind, src, dst, cycle));
                }
            }
        }
        out
    }
}

#[test]
fn zero_load_latency_is_exact() {
    // One packet across the diagonal of a 4x4 mesh: 6 hops, 7 routers.
    // Each router contributes 4 cycles (RC,VA,SA,XB) and each link 1:
    // injection at cycle 0, ejection at 7*4 = 28.
    let net = small_net(4);
    let sim = SimConfig {
        warmup_cycles: 0,
        measure_cycles: 10,
        drain_cycles: 200,
        seed: 1,
    };
    let mut sent = false;
    let (report, outcome) =
        Simulator::new(net, sim, RouterKind::Protected, FaultPlan::none()).run(|_cycle| {
            if !sent {
                sent = true;
                vec![Packet::new(
                    PacketId(1),
                    PacketKind::Control,
                    Coord::new(0, 0),
                    Coord::new(3, 3),
                    0,
                )]
            } else {
                Vec::new()
            }
        });
    assert_eq!(outcome, SimOutcome::DrainedEarly);
    assert_eq!(report.delivered(), 1);
    assert_eq!(report.total_latency.mean, 28.0);
    assert_eq!(report.mean_hops, 7.0, "head flit hops through 7 routers");
    assert_eq!(report.in_flight_at_end, 0);
}

#[test]
fn neighbour_packet_latency() {
    // (1,1) -> (2,1): 1 hop, 2 routers → 8 cycles.
    let net = small_net(4);
    let sim = SimConfig {
        warmup_cycles: 0,
        measure_cycles: 5,
        drain_cycles: 100,
        seed: 1,
    };
    let mut sent = false;
    let (report, _) =
        Simulator::new(net, sim, RouterKind::Protected, FaultPlan::none()).run(|_c| {
            if !sent {
                sent = true;
                vec![Packet::new(
                    PacketId(1),
                    PacketKind::Control,
                    Coord::new(1, 1),
                    Coord::new(2, 1),
                    0,
                )]
            } else {
                Vec::new()
            }
        });
    assert_eq!(report.total_latency.mean, 8.0);
}

#[test]
fn data_packet_tail_latency_adds_serialisation() {
    // 5-flit packet, 1 hop: tail leaves 4 cycles after the head → 12.
    let net = small_net(4);
    let sim = SimConfig {
        warmup_cycles: 0,
        measure_cycles: 5,
        drain_cycles: 100,
        seed: 1,
    };
    let mut sent = false;
    let (report, _) =
        Simulator::new(net, sim, RouterKind::Protected, FaultPlan::none()).run(|_c| {
            if !sent {
                sent = true;
                vec![Packet::new(
                    PacketId(1),
                    PacketKind::Data,
                    Coord::new(0, 0),
                    Coord::new(1, 0),
                    0,
                )]
            } else {
                Vec::new()
            }
        });
    assert_eq!(report.delivered(), 1);
    assert_eq!(report.total_latency.mean, 12.0);
}

#[test]
fn uniform_traffic_all_delivered_fault_free() {
    for kind in [RouterKind::Baseline, RouterKind::Protected] {
        let net = small_net(4);
        let sim = SimConfig {
            warmup_cycles: 200,
            measure_cycles: 2_000,
            drain_cycles: 3_000,
            seed: 7,
        };
        let mut src = UniformSource::new(4, 0.02, 99);
        let (report, outcome) =
            Simulator::new(net, sim, kind, FaultPlan::none()).run(|c| src.tick(c));
        assert_eq!(outcome, SimOutcome::DrainedEarly, "{kind:?}");
        assert!(report.delivered() > 100, "{kind:?}: enough samples");
        assert_eq!(report.misdelivered, 0);
        assert_eq!(report.flits_dropped, 0);
        assert_eq!(report.in_flight_at_end, 0);
        assert!(report.total_latency.mean >= 8.0);
        assert!(!report.deadlock_suspected);
    }
}

#[test]
fn baseline_and_protected_match_exactly_when_fault_free() {
    // With no faults the protected router's extra circuitry is inert:
    // the two routers must produce identical latency distributions.
    let run = |kind| {
        let net = small_net(4);
        let sim = SimConfig {
            warmup_cycles: 100,
            measure_cycles: 1_500,
            drain_cycles: 3_000,
            seed: 5,
        };
        let mut src = UniformSource::new(4, 0.03, 1234);
        Simulator::new(net, sim, kind, FaultPlan::none())
            .run(|c| src.tick(c))
            .0
    };
    let b = run(RouterKind::Baseline);
    let p = run(RouterKind::Protected);
    assert_eq!(b.delivered(), p.delivered());
    assert_eq!(b.total_latency, p.total_latency);
}

#[test]
fn protected_network_tolerates_scattered_faults_without_loss() {
    let net = small_net(4);
    let sim = SimConfig {
        warmup_cycles: 200,
        measure_cycles: 2_000,
        drain_cycles: 4_000,
        seed: 3,
    };
    // One fault per stage, spread over central routers (0-indexed ids in
    // a 4x4 mesh: 5, 6, 9, 10).
    let plan = FaultPlan::deterministic(
        vec![
            InjectionEvent {
                cycle: 0,
                router: RouterId(5),
                site: FaultSite::RcPrimary {
                    port: noc_types::Direction::West.port(),
                },
            },
            InjectionEvent {
                cycle: 0,
                router: RouterId(6),
                site: FaultSite::Va1ArbiterSet {
                    port: noc_types::Direction::East.port(),
                    vc: VcId(1),
                },
            },
            InjectionEvent {
                cycle: 0,
                router: RouterId(9),
                site: FaultSite::Sa1Arbiter {
                    port: noc_types::Direction::North.port(),
                },
            },
            InjectionEvent {
                cycle: 0,
                router: RouterId(10),
                site: FaultSite::XbMux {
                    out_port: noc_types::Direction::South.port(),
                },
            },
        ],
        noc_faults::DetectionModel::Ideal,
    );
    let mut src = UniformSource::new(4, 0.02, 42);
    let (report, outcome) =
        Simulator::new(net, sim, RouterKind::Protected, plan).run(|c| src.tick(c));
    assert_eq!(outcome, SimOutcome::DrainedEarly);
    assert_eq!(report.misdelivered, 0);
    assert_eq!(report.flits_dropped, 0);
    assert_eq!(report.flits_edge_dropped, 0);
    assert_eq!(report.in_flight_at_end, 0);
    assert!(report.delivered() > 100);
    let ev = report.router_events;
    assert!(
        ev.sa_bypass_grants > 0 || ev.secondary_path_flits > 0 || ev.va_borrows > 0,
        "correction mechanisms actually exercised: {ev:?}"
    );
}

#[test]
fn faulty_protected_latency_is_at_least_fault_free_latency() {
    let run = |with_faults: bool| {
        let net = small_net(4);
        let sim = SimConfig {
            warmup_cycles: 200,
            measure_cycles: 2_000,
            drain_cycles: 4_000,
            seed: 3,
        };
        let plan = if with_faults {
            FaultPlan::at_start(
                (0..16).map(|r| {
                    (
                        RouterId(r),
                        FaultSite::Sa1Arbiter {
                            port: noc_types::Direction::Local.port(),
                        },
                    )
                }),
                noc_faults::DetectionModel::Ideal,
            )
        } else {
            FaultPlan::none()
        };
        let mut src = UniformSource::new(4, 0.02, 42);
        Simulator::new(net, sim, RouterKind::Protected, plan)
            .run(|c| src.tick(c))
            .0
    };
    let clean = run(false);
    let faulty = run(true);
    assert_eq!(
        clean.delivered(),
        faulty.delivered(),
        "no packets lost either way"
    );
    assert!(
        faulty.total_latency.mean >= clean.total_latency.mean,
        "faults cannot make the network faster: {} vs {}",
        faulty.total_latency.mean,
        clean.total_latency.mean
    );
}

#[test]
fn baseline_crossbar_fault_loses_flits() {
    let net = small_net(4);
    let sim = SimConfig {
        warmup_cycles: 0,
        measure_cycles: 2_000,
        drain_cycles: 1_000,
        seed: 11,
    };
    // Router 5's east mux is dead: eastbound flits through it vanish.
    let plan = FaultPlan::at_start(
        [(
            RouterId(5),
            FaultSite::XbMux {
                out_port: noc_types::Direction::East.port(),
            },
        )],
        noc_faults::DetectionModel::Ideal,
    );
    let mut src = UniformSource::new(4, 0.02, 77);
    let (report, _) = Simulator::new(net, sim, RouterKind::Baseline, plan).run(|c| src.tick(c));
    assert!(report.flits_dropped > 0, "baseline loses flits: {report:?}");
}

#[test]
fn watchdog_detects_blocked_traffic() {
    // A baseline router whose local-port SA arbiter is dead blocks its
    // own injections forever; the watchdog should fire once the rest of
    // the network drains.
    let net = small_net(2);
    let sim = SimConfig {
        warmup_cycles: 0,
        measure_cycles: 100,
        drain_cycles: 20_000,
        seed: 1,
    };
    let plan = FaultPlan::at_start(
        [(
            RouterId(0),
            FaultSite::Sa1Arbiter {
                port: noc_types::Direction::Local.port(),
            },
        )],
        noc_faults::DetectionModel::Ideal,
    );
    let mut sent = false;
    let (report, outcome) = Simulator::new(net, sim, RouterKind::Baseline, plan).run(|_c| {
        if !sent {
            sent = true;
            vec![Packet::new(
                PacketId(1),
                PacketKind::Control,
                Coord::new(0, 0),
                Coord::new(1, 1),
                0,
            )]
        } else {
            Vec::new()
        }
    });
    assert_eq!(outcome, SimOutcome::DeadlockSuspected);
    assert!(report.deadlock_suspected);
    assert_eq!(report.delivered(), 0);
    assert_eq!(report.in_flight_at_end, 1);
}

#[test]
fn network_packet_conservation_counters() {
    let cfg = small_net(3);
    let mut net = Network::new(cfg, RouterKind::Protected);
    let mut src = UniformSource::new(3, 0.05, 5);
    for cycle in 0..500 {
        let pkts = src.tick(cycle);
        net.offer_packets(pkts);
        net.step(cycle);
    }
    for cycle in 500..4_000 {
        net.step(cycle);
    }
    let (offered, injected, ejected, mis) = net.packet_counters();
    assert!(offered > 0);
    assert_eq!(mis, 0);
    assert_eq!(net.in_flight_flits(), 0);
    assert_eq!(net.queued_packets(), 0);
    assert_eq!(offered, injected, "unbounded queues inject everything");
    assert_eq!(injected, ejected, "every injected packet is ejected");
}

#[test]
fn delayed_detection_still_delivers_with_higher_latency() {
    let run = |detection| {
        let net = small_net(4);
        let sim = SimConfig {
            warmup_cycles: 0,
            measure_cycles: 2_000,
            drain_cycles: 6_000,
            seed: 9,
        };
        let plan = FaultPlan::at_start(
            (0..16).map(|r| {
                (
                    RouterId(r),
                    FaultSite::XbMux {
                        out_port: noc_types::Direction::East.port(),
                    },
                )
            }),
            detection,
        );
        let mut src = UniformSource::new(4, 0.015, 31);
        Simulator::new(net, sim, RouterKind::Protected, plan)
            .run(|c| src.tick(c))
            .0
    };
    let ideal = run(noc_faults::DetectionModel::Ideal);
    let delayed = run(noc_faults::DetectionModel::Delayed(2_000));
    assert_eq!(ideal.flits_dropped, 0);
    assert_eq!(delayed.flits_dropped, 0);
    assert!(ideal.delivered() > 0 && delayed.delivered() > 0);
    assert!(
        delayed.total_latency.mean >= ideal.total_latency.mean,
        "latent windows stall traffic: {} vs {}",
        delayed.total_latency.mean,
        ideal.total_latency.mean
    );
}

#[test]
fn link_utilisation_tracks_traffic() {
    let cfg = small_net(3);
    let mut net = Network::new(cfg, RouterKind::Protected);
    // A single stream (0,0) → (2,0): only the eastbound links of the top
    // row carry payload (plus the endpoints' local ports).
    for cycle in 0..400u64 {
        if cycle < 200 && cycle % 4 == 0 {
            net.offer_packets(vec![Packet::new(
                PacketId(cycle),
                PacketKind::Control,
                Coord::new(0, 0),
                Coord::new(2, 0),
                cycle,
            )]);
        }
        net.step(cycle);
    }
    let east = noc_types::Direction::East.port().index();
    let local = noc_types::Direction::Local.port().index();
    assert!(net.link_flits(0)[east] > 0, "router 0 sends east");
    assert!(net.link_flits(1)[east] > 0, "router 1 forwards east");
    assert!(net.link_flits(2)[local] > 0, "router 2 ejects");
    // The bottom row is silent.
    for r in 6..9 {
        assert_eq!(net.link_flits(r).iter().sum::<u64>(), 0, "router {r}");
    }
    let util = net.utilisation();
    assert!(util[0] > util[6]);
    let map = net.utilisation_heatmap();
    assert_eq!(map.lines().count(), 3);
    assert!(
        map.lines().next().unwrap().contains('#'),
        "hot row visible: {map}"
    );
}

#[test]
fn bounded_ni_queues_shed_offered_load_at_saturation() {
    // Tornado traffic far beyond capacity with 2-packet NI queues: the
    // NIs must refuse overflow rather than buffer unboundedly, and
    // everything accepted must still be delivered or in flight.
    let mut cfg = small_net(4);
    cfg.ni_queue_packets = 2;
    let sim = SimConfig {
        warmup_cycles: 0,
        measure_cycles: 1_500,
        drain_cycles: 4_000,
        seed: 21,
    };
    let mut src = UniformSource::new(4, 0.5, 77);
    let (report, _) =
        Simulator::new(cfg, sim, RouterKind::Protected, FaultPlan::none()).run(|c| src.tick(c));
    assert!(
        report.offered > report.injected,
        "overload must be shed: offered {} vs injected {}",
        report.offered,
        report.injected
    );
    assert_eq!(
        report.flits_dropped, 0,
        "shedding happens at the NI, not in-network"
    );
    assert_eq!(report.misdelivered, 0);
    assert!(report.delivered() > 0);
}

/// Dimension-order routes cannot detour, so a statically routed mesh
/// refuses a router kill rather than black-holing every route through
/// the dead router.
#[test]
#[should_panic(expected = "a statically routed mesh cannot detour around a dead router")]
fn fail_router_refuses_a_statically_routed_mesh() {
    Network::new(small_net(4), RouterKind::Protected).fail_router(5);
}
