//! Network-level property tests: conservation and loss-freedom under
//! randomised meshes, loads and tolerated fault campaigns.

use noc_faults::{FaultPlan, InjectionConfig};
use noc_sim::{SimOutcome, Simulator};
use noc_types::rng::Rng;
use noc_types::{Coord, NetworkConfig, Packet, PacketId, PacketKind, RouterConfig, SimConfig};

/// Deterministic uniform source for property runs.
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

/// Fault-free networks of either kind deliver every packet, in
/// bounded time, regardless of mesh size, load point and seed.
#[test]
fn fault_free_network_delivers_everything() {
    let mut pick = Rng::seeded(0xF2EE);
    for case in 0u64..12 {
        let k = 2 + pick.below(4) as u8;
        let rate_milli = 5 + pick.below(35);
        let seed = pick.below(1_000);
        let protected = case % 2 == 0;

        let mut net = NetworkConfig::paper();
        net.mesh_k = k;
        let sim = SimConfig {
            warmup_cycles: 100,
            measure_cycles: 1_200,
            drain_cycles: 4_000,
            seed,
        };
        let kind = if protected {
            shield_router::RouterKind::Protected
        } else {
            shield_router::RouterKind::Baseline
        };
        let mut src = Source {
            rng: Rng::seeded(seed),
            k,
            rate: rate_milli as f64 / 1_000.0,
            next: 0,
        };
        let (report, outcome) =
            Simulator::new(net, sim, kind, FaultPlan::none()).run(|c| src.tick(c));
        let ctx = format!("case {case}: k={k} rate={rate_milli}m seed={seed}");
        assert_eq!(outcome, SimOutcome::DrainedEarly, "{ctx}");
        assert_eq!(report.misdelivered, 0, "{ctx}");
        assert_eq!(report.flits_dropped, 0, "{ctx}");
        assert_eq!(report.in_flight_at_end, 0, "{ctx}");
        assert_eq!(report.offered, report.injected, "{ctx}");
        assert!(!report.deadlock_suspected, "{ctx}");
    }
}

/// A tolerated (accumulating) fault campaign on the protected mesh
/// never loses, misdelivers or deadlocks traffic.
#[test]
fn tolerated_campaigns_never_lose_packets() {
    let mut pick = Rng::seeded(0x70_1E2A);
    for case in 0u64..12 {
        let k = 2 + pick.below(3) as u8;
        let seed = pick.below(1_000);
        let fault_seed = pick.below(1_000);

        let mut net = NetworkConfig::paper();
        net.mesh_k = k;
        let sim = SimConfig {
            warmup_cycles: 100,
            measure_cycles: 1_500,
            drain_cycles: 6_000,
            seed,
        };
        let horizon = sim.warmup_cycles + sim.measure_cycles;
        let inj = InjectionConfig::accelerated_accumulating(horizon / 2, horizon);
        let plan = FaultPlan::uniform_random(
            &RouterConfig::paper(),
            (k as usize).pow(2),
            &inj,
            fault_seed,
        );
        let mut src = Source {
            rng: Rng::seeded(seed),
            k,
            rate: 0.015,
            next: 0,
        };
        let (report, outcome) =
            Simulator::new(net, sim, shield_router::RouterKind::Protected, plan)
                .run(|c| src.tick(c));
        let ctx = format!("case {case}: k={k} seed={seed} fault_seed={fault_seed}");
        assert_eq!(outcome, SimOutcome::DrainedEarly, "{ctx}");
        assert_eq!(report.flits_dropped, 0, "{ctx}");
        assert_eq!(report.misdelivered, 0, "{ctx}");
        assert_eq!(report.in_flight_at_end, 0, "{ctx}");
        assert!(!report.deadlock_suspected, "{ctx}");
    }
}

/// Credit conservation: on every link, the free slots the upstream
/// router believes it has, plus its queued crossbar grants, plus flits
/// and credits in flight on the wires, plus the downstream buffer
/// occupancy, always equals the buffer depth — checked after every
/// cycle, for both router kinds, under fault campaigns that include the
/// baseline's flit-dropping crossbar muxes. A leak anywhere (e.g. a
/// drop path that forgets to restore the slot reserved at SA-grant)
/// trips the assertion within a handful of cycles.
#[test]
fn credits_are_conserved_on_every_link() {
    use noc_faults::FaultSite;
    use noc_sim::Network;
    use noc_types::PortId;
    use shield_router::RouterKind;

    let mut pick = Rng::seeded(0xC4ED17);
    for case in 0u64..10 {
        let k = 2 + pick.below(3) as u8;
        let seed = pick.below(1_000);
        let fault_seed = pick.below(1_000);
        let kind = if case % 2 == 0 {
            RouterKind::Protected
        } else {
            RouterKind::Baseline
        };

        let mut net_cfg = NetworkConfig::paper();
        net_cfg.mesh_k = k;
        let nodes = (k as usize).pow(2);

        let mut net = match kind {
            // Protected: a tolerated accumulating campaign (cancel paths).
            RouterKind::Protected => {
                let inj = InjectionConfig::accelerated_accumulating(400, 800);
                let plan =
                    FaultPlan::uniform_random(&RouterConfig::paper(), nodes, &inj, fault_seed);
                Network::with_faults(net_cfg, kind, &plan)
            }
            // Baseline: faulty crossbar muxes on a few routers, so flits
            // are dropped mid-switch — the headline leak scenario.
            RouterKind::Baseline => {
                let mut net = Network::new(net_cfg, kind);
                let mut rng = Rng::seeded(fault_seed);
                for _ in 0..3 {
                    let id = rng.index(nodes);
                    let out_port = PortId(rng.below(5) as u8);
                    net.router_mut(id)
                        .inject_fault(FaultSite::XbMux { out_port }, 0);
                }
                net
            }
        };

        let mut src = Source {
            rng: Rng::seeded(seed),
            k,
            rate: 0.03,
            next: 0,
        };
        let ctx = format!("case {case}: k={k} kind={kind:?} seed={seed}");
        let mut saw_drop = false;
        for cycle in 0..1_500u64 {
            if cycle < 1_000 {
                net.offer_packets(src.tick(cycle));
            }
            net.step(cycle);
            net.assert_credit_conservation();
            saw_drop |= net.flits_dropped > 0;
        }
        if kind == RouterKind::Baseline {
            assert!(saw_drop, "{ctx}: the faulty muxes must actually drop flits");
        }
    }
}

/// Transient storms on the protected mesh are absorbed without loss.
#[test]
fn transient_storms_are_absorbed() {
    let mut pick = Rng::seeded(0x0005_7083);
    for case in 0u64..12 {
        let k = 2 + pick.below(3) as u8;
        let seed = pick.below(500);
        let duration = 5 + pick.below(95) as u32;

        let mut net = NetworkConfig::paper();
        net.mesh_k = k;
        let sim = SimConfig {
            warmup_cycles: 100,
            measure_cycles: 1_000,
            drain_cycles: 6_000,
            seed,
        };
        let horizon = sim.warmup_cycles + sim.measure_cycles;
        let plan = FaultPlan::transient_storm(
            &RouterConfig::paper(),
            (k as usize).pow(2),
            1.0 / 400.0,
            duration,
            horizon,
            seed ^ 0xA11,
        );
        let mut src = Source {
            rng: Rng::seeded(seed),
            k,
            rate: 0.01,
            next: 0,
        };
        let (report, _) = Simulator::new(net, sim, shield_router::RouterKind::Protected, plan)
            .run(|c| src.tick(c));
        let ctx = format!("case {case}: k={k} seed={seed} duration={duration}");
        assert_eq!(report.flits_dropped, 0, "{ctx}");
        assert_eq!(report.misdelivered, 0, "{ctx}");
        assert_eq!(report.in_flight_at_end, 0, "{ctx}");
    }
}
