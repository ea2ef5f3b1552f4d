//! Equivalence suite for the sharded stepper and the active-router
//! worklist: for identical seeds and fault campaigns, the observable end
//! state of a run must be bit-identical for every shard count — even
//! bands, uneven ones (3 shards on 4 rows, 4 on 6) and a count changed
//! mid-run — and for the worklist on or off.

mod common;

use noc_faults::{DetectionModel, FaultPlan, FaultSite, InjectionConfig};
use noc_sim::{DeliveryTally, Network};
use noc_types::rng::Rng;
use noc_types::{
    Coord, DeliveredPacket, NetworkConfig, Packet, PacketId, PacketKind, PortId, RouterConfig,
    TopologySpec, VcId,
};
use shield_router::{RouterKind, RouterStats};

/// Deterministic uniform source (same shape as the property tests).
struct Source {
    rng: Rng,
    w: u8,
    h: u8,
    rate: f64,
    next: u64,
}

impl Source {
    fn square(seed: u64, k: u8, rate: f64) -> Self {
        Source {
            rng: Rng::seeded(seed),
            w: k,
            h: k,
            rate,
            next: 0,
        }
    }

    /// A source covering exactly the network's grid, so the suite
    /// stays valid when a replay (see `common`) puts a `mesh_k` config
    /// onto a grid of different dimensions (the chiplet star does;
    /// torus/cutmesh preserve them).
    fn for_net(net: &Network, seed: u64, rate: f64) -> Self {
        Source {
            rng: Rng::seeded(seed),
            w: net.mesh().w,
            h: net.mesh().h,
            rate,
            next: 0,
        }
    }

    fn tick(&mut self, cycle: u64) -> Vec<Packet> {
        let mut out = Vec::new();
        for y in 0..self.h {
            for x in 0..self.w {
                if self.rng.next_f64() < self.rate {
                    let src = Coord::new(x, y);
                    let dst = loop {
                        let d = Coord::new(
                            self.rng.below(self.w.into()) as u8,
                            self.rng.below(self.h.into()) as u8,
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

/// Every observable outcome of a run, for exact comparison.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    /// Every delivery (the stepping loops here never hand them on).
    deliveries: Vec<DeliveredPacket>,
    /// And what the reports read of them.
    tally: DeliveryTally,
    event_totals: RouterStats,
    per_router_stats: Vec<RouterStats>,
    link_flits: Vec<[u64; 5]>,
    /// Final credit counters for every (router, out port, vc).
    credits: Vec<u8>,
    packet_counters: (u64, u64, u64, u64),
    flits_dropped: u64,
    flits_edge_dropped: u64,
    flits_injected: u64,
    in_flight: u64,
    queued: u64,
    last_activity: u64,
    /// `(routers_stepped, routers_skipped)` — thread-count-invariant,
    /// but *not* invariant to toggling the worklist itself.
    worklist: (u64, u64),
}

fn fingerprint(net: &Network) -> Fingerprint {
    let n = net.mesh().len();
    let v = net.config().router.vcs;
    let mut credits = Vec::with_capacity(n * 5 * v);
    let mut per_router_stats = Vec::with_capacity(n);
    let mut link_flits = Vec::with_capacity(n);
    for id in 0..n {
        per_router_stats.push(*net.router(id).stats());
        link_flits.push(net.link_flits(id));
        for port in 0..5u8 {
            for vc in 0..v {
                credits.push(
                    net.router(id)
                        .credit(noc_types::PortId(port), VcId(vc as u8)),
                );
            }
        }
    }
    Fingerprint {
        deliveries: net.pending_deliveries().to_vec(),
        tally: net.tally().clone(),
        event_totals: net.router_event_totals(),
        per_router_stats,
        link_flits,
        credits,
        packet_counters: net.packet_counters(),
        flits_dropped: net.flits_dropped,
        flits_edge_dropped: net.flits_edge_dropped,
        flits_injected: net.flits_injected,
        in_flight: net.in_flight_flits(),
        queued: net.queued_packets(),
        last_activity: net.last_activity,
        worklist: (net.routers_stepped(), net.routers_skipped()),
    }
}

/// The paper's config on a `k`×`k` mesh — or on whatever the current
/// CI leg replays the suite on (see `common`).
fn mesh_cfg(k: u8) -> NetworkConfig {
    let mut cfg = NetworkConfig::paper();
    cfg.mesh_k = k;
    common::replayed(cfg)
}

/// The paper's config on a 6×6 grid wired as `spec` (routing mode as
/// replayed).
fn spec_cfg(spec: TopologySpec) -> NetworkConfig {
    let mut cfg = NetworkConfig::paper();
    cfg.mesh_k = 6;
    cfg.topology = spec;
    common::replayed(cfg)
}

/// The campaigns the equivalence matrix runs on `net_cfg`'s grid (sized
/// off the config, so plans stay in range when a replay changes the
/// grid): healthy meshes, permanent campaigns on both router kinds, and
/// a transient storm.
fn campaigns(net_cfg: &NetworkConfig, fault_seed: u64) -> Vec<(String, RouterKind, FaultPlan)> {
    let (w, h) = net_cfg.dims();
    let nodes = w as usize * h as usize;
    let cfg = RouterConfig::paper();
    let inj = InjectionConfig::accelerated_accumulating(300, 600);
    vec![
        (
            "healthy/protected".into(),
            RouterKind::Protected,
            FaultPlan::none(),
        ),
        (
            "healthy/baseline".into(),
            RouterKind::Baseline,
            FaultPlan::none(),
        ),
        (
            "permanent/protected".into(),
            RouterKind::Protected,
            FaultPlan::uniform_random(&cfg, nodes, &inj, fault_seed),
        ),
        (
            "permanent/baseline".into(),
            RouterKind::Baseline,
            FaultPlan::uniform_random(&cfg, nodes, &inj, fault_seed ^ 0xB5),
        ),
        (
            "transient/protected".into(),
            RouterKind::Protected,
            FaultPlan::transient_storm(&cfg, nodes, 1.0 / 300.0, 40, 600, fault_seed ^ 0x7A),
        ),
    ]
}

/// Run one campaign to completion and fingerprint the end state.
fn run(
    k: u8,
    kind: RouterKind,
    plan: &FaultPlan,
    seed: u64,
    rate: f64,
    threads: usize,
    audit: bool,
) -> Fingerprint {
    let mut net = Network::with_faults(mesh_cfg(k), kind, plan);
    net.set_threads(threads);
    net.set_worklist_audit(audit);
    let mut src = Source::for_net(&net, seed, rate);
    for cycle in 0..900u64 {
        if cycle < 600 {
            net.offer_packets(src.tick(cycle));
        }
        net.step(cycle);
    }
    fingerprint(&net)
}

/// The headline guarantee: for every campaign, router kind and tested
/// thread count, the multi-shard end state is bit-identical to the
/// one-shard end state (which the committed goldens pin absolutely).
#[test]
fn parallel_step_matches_serial_for_every_thread_count() {
    for (k, seed) in [(4u8, 0xA11CE), (6u8, 0x5EED)] {
        for (name, kind, plan) in campaigns(&mesh_cfg(k), seed ^ 0xFA) {
            let serial = run(k, kind, &plan, seed, 0.02, 1, false);
            for threads in [2usize, 3, 4, 8] {
                let parallel = run(k, kind, &plan, seed, 0.02, threads, false);
                assert_eq!(
                    serial, parallel,
                    "divergence: k={k} campaign={name} threads={threads}"
                );
            }
        }
    }
}

/// [`Network::set_threads`] may be called at any cycle boundary: a run
/// re-partitioned 1 → 3 → 2 → 4 → 1 shards mid-flight — wires on the
/// wheel, faults pending, packets half-sent — ends in exactly the
/// one-shard run's state, so where the cuts fall is unobservable.
#[test]
fn changing_the_shard_count_mid_run_is_unobservable() {
    for (topology, spec) in [
        ("mesh", TopologySpec::MeshK),
        ("torus", TopologySpec::Torus { w: 6, h: 6 }),
        (
            "chipletmesh",
            TopologySpec::ChipletMesh {
                k_chip: 2,
                k_node: 3,
                d2d: noc_types::LinkClass::D2D_DEFAULT,
            },
        ),
    ] {
        let net_cfg = spec_cfg(spec);
        for (name, kind, plan) in campaigns(&net_cfg, 0x5117) {
            let run_switching = |switches: &[(u64, usize)]| {
                let mut net = Network::with_faults(net_cfg, kind, &plan);
                let mut src = Source::for_net(&net, 0x5EED, 0.03);
                for cycle in 0..900u64 {
                    if let Some(&(_, threads)) = switches.iter().find(|&&(at, _)| at == cycle) {
                        net.set_threads(threads);
                        assert_eq!(net.threads(), threads);
                    }
                    if cycle < 600 {
                        net.offer_packets(src.tick(cycle));
                    }
                    net.step(cycle);
                }
                fingerprint(&net)
            };
            let serial = run_switching(&[]);
            assert!(!serial.deliveries.is_empty(), "{topology}/{name}");
            assert_eq!(
                serial,
                run_switching(&[(150, 3), (350, 2), (500, 4), (700, 1)]),
                "divergence: topology={topology} campaign={name}"
            );
        }
    }
}

/// The worklist is purely an optimisation: identical results with idle
/// skipping on or off, serial and parallel. "Off" is the worklist audit,
/// which steps every router the worklist would skip (asserting each
/// such step is a no-op).
#[test]
fn worklist_on_and_off_are_equivalent() {
    let k = 4u8;
    for (name, kind, plan) in campaigns(&mesh_cfg(k), 0x1D1E) {
        let on = run(k, kind, &plan, 0xBEEF, 0.01, 1, false);
        let mut off = run(k, kind, &plan, 0xBEEF, 0.01, 1, true);
        // The stepped/skipped split is the one observable the toggle
        // legitimately changes; everything else must match exactly.
        assert_eq!(off.worklist.1, 0, "worklist off never skips");
        off.worklist = on.worklist;
        assert_eq!(on, off, "serial worklist divergence: campaign={name}");
        let par_on = run(k, kind, &plan, 0xBEEF, 0.01, 4, false);
        assert_eq!(on, par_on, "parallel worklist divergence: campaign={name}");
    }
}

/// Property test for the worklist invariant: in audit mode the network
/// steps routers the worklist would have skipped and panics if any such
/// step produces output or changes stats, credits or buffered flits.
/// The audit lives in the one router loop, so it runs on one shard and
/// on four.
#[test]
fn worklist_is_sound() {
    let mut pick = Rng::seeded(0x1D7E);
    for case in 0u64..6 {
        let k = 2 + pick.below(4) as u8;
        let seed = pick.below(1_000);
        let (name, kind, plan) = {
            let mut cs = campaigns(&mesh_cfg(k), seed ^ 0xC0);
            let ix = pick.index(cs.len());
            cs.swap_remove(ix)
        };
        for threads in [1usize, 4] {
            let mut net = Network::with_faults(mesh_cfg(k), kind, &plan);
            net.set_threads(threads);
            net.set_worklist_audit(true);
            let mut src = Source::for_net(&net, seed, 0.03);
            for cycle in 0..700u64 {
                if cycle < 500 {
                    net.offer_packets(src.tick(cycle));
                }
                // Panics inside the audit if an "idle" router was
                // observable.
                net.step(cycle);
            }
            assert_eq!(
                net.routers_skipped(),
                0,
                "case {case} ({name}, {threads} threads): the audit steps every router"
            );
        }
    }
}

/// The audit on routers that stay empty while their faults manifest,
/// are detected and clear: the worklist skips them on quiet cycles
/// (their fault clocks do not move there), and the audit — which also
/// compares the active and detected fault maps — proves every edge
/// cycle was stepped.
#[test]
fn worklist_is_sound_on_empty_faulted_routers() {
    let cfg = mesh_cfg(4);
    let (w, h) = cfg.dims();
    let nodes = w as u16 * h as u16;
    let at = |cycle, router: u16, site| noc_faults::InjectionEvent {
        cycle,
        router: noc_types::RouterId(router % nodes),
        site,
    };
    let plan = FaultPlan::deterministic(
        vec![
            at(40, 5, FaultSite::Sa1Arbiter { port: PortId(1) }),
            at(90, 5, FaultSite::RcPrimary { port: PortId(0) }),
            at(
                120,
                10,
                FaultSite::XbMux {
                    out_port: PortId(2),
                },
            ),
        ],
        DetectionModel::Delayed(7),
    )
    .with_transients(vec![noc_faults::TransientEvent {
        cycle: 60,
        duration: 15,
        router: noc_types::RouterId(6 % nodes),
        site: FaultSite::Sa2Arbiter {
            out_port: PortId(3),
        },
    }]);
    for audit in [true, false] {
        let mut net = Network::with_faults(cfg, RouterKind::Protected, &plan);
        net.set_worklist_audit(audit);
        // No traffic at all: every router is empty on every cycle.
        for cycle in 0..200u64 {
            net.step(cycle);
        }
        let detected: usize = (0..nodes as usize)
            .map(|id| net.router(id).faults().detected().len())
            .sum();
        assert_eq!(detected, 3, "audit {audit}: every permanent fault detected");
        if !audit {
            // Only edge cycles (and the first) of the faulted routers
            // are stepped: 0, 40, 47, 90, 97 / 0, 120, 127 / 0, 60, 67, 75.
            assert_eq!(net.routers_stepped(), 5 + 3 + 4, "quiet cycles skipped");
        }
    }
}

/// At low load the worklist must actually engage — most router steps on
/// a lightly loaded mesh are skipped.
#[test]
fn worklist_skips_most_idle_routers_at_low_load() {
    let fp = run(
        6,
        RouterKind::Protected,
        &FaultPlan::none(),
        0x10AD,
        0.005,
        1,
        false,
    );
    drop(fp);
    let mut net = Network::new(mesh_cfg(6), RouterKind::Protected);
    let mut src = Source::for_net(&net, 0x10AD, 0.005);
    for cycle in 0..500u64 {
        net.offer_packets(src.tick(cycle));
        net.step(cycle);
    }
    let stepped = net.routers_stepped();
    let skipped = net.routers_skipped();
    assert_eq!(stepped + skipped, net.mesh().len() as u64 * 500);
    assert!(
        skipped > stepped,
        "expected most steps skipped at 0.5% load, got {stepped} stepped / {skipped} skipped"
    );
}

/// The worklist's effectiveness is a first-class report field: the
/// counters land in [`noc_sim::NetworkReport`] and the derived skip
/// rate is consistent with them.
#[test]
fn report_exposes_worklist_skip_rate() {
    let net_cfg = mesh_cfg(6);
    let sim_cfg = noc_types::SimConfig {
        warmup_cycles: 100,
        measure_cycles: 400,
        drain_cycles: 500,
        seed: 0,
    };
    let (w, h) = net_cfg.dims();
    let nodes = w as u64 * h as u64;
    let mut src = Source {
        rng: Rng::seeded(0x10AD),
        w,
        h,
        rate: 0.005,
        next: 0,
    };
    let sim = noc_sim::Simulator::new(net_cfg, sim_cfg, RouterKind::Protected, FaultPlan::none());
    let (report, _outcome) = sim.run_with(|cycle, out| out.extend(src.tick(cycle)));
    let considered = report.routers_stepped + report.routers_skipped;
    assert_eq!(
        considered,
        nodes * report.cycles_run,
        "every router is either stepped or skipped each cycle"
    );
    let expected = report.routers_skipped as f64 / considered as f64;
    assert!((report.worklist_skip_rate - expected).abs() < 1e-12);
    assert!(
        report.worklist_skip_rate > 0.5,
        "a 0.5%-load mesh should skip most steps, got {}",
        report.worklist_skip_rate
    );
}

/// The serial == N-threads guarantee is topology-generic: the wiring
/// table only changes which ring slots departures land in, never when
/// they are read, so wraparound and cut links shard identically.
#[test]
fn parallel_step_matches_serial_on_torus_and_cut_mesh() {
    for (name, spec) in [
        ("torus", TopologySpec::Torus { w: 6, h: 6 }),
        (
            "cutmesh",
            TopologySpec::CutMesh {
                w: 6,
                h: 6,
                cuts: 5,
                seed: 0xC11,
            },
        ),
    ] {
        let run_spec = |threads: usize| {
            let net_cfg = spec_cfg(spec);
            let mut net = Network::new(net_cfg, RouterKind::Protected);
            net.set_threads(threads);
            let mut src = Source::square(0x7070, 6, 0.03);
            for cycle in 0..800u64 {
                if cycle < 550 {
                    net.offer_packets(src.tick(cycle));
                }
                net.step(cycle);
            }
            fingerprint(&net)
        };
        let serial = run_spec(1);
        for threads in [2usize, 3, 4, 8] {
            assert_eq!(
                serial,
                run_spec(threads),
                "divergence: topology={name} threads={threads}"
            );
        }
    }
}

/// The spatial metrics plane rides the same determinism guarantee as
/// the rest of the stepper: the exported per-router counter grid (the
/// heatmap document) is bit-identical — byte-for-byte in its JSON
/// rendering — between one shard and every thread count, on
/// meshes, tori and cut meshes, healthy and under fault campaigns.
/// Counters are router-owned and merged in fixed shard order, so this
/// holds by construction; the test pins it against regressions.
#[test]
fn spatial_grid_is_bit_identical_across_thread_counts() {
    let cfg = RouterConfig::paper();
    let inj = InjectionConfig::accelerated_accumulating(300, 600);
    let cases: Vec<(&str, TopologySpec, FaultPlan)> = vec![
        (
            "mesh/healthy",
            TopologySpec::Mesh { w: 6, h: 6 },
            FaultPlan::none(),
        ),
        (
            "mesh/permanent",
            TopologySpec::Mesh { w: 6, h: 6 },
            FaultPlan::uniform_random(&cfg, 36, &inj, 0x0B5),
        ),
        (
            "torus/healthy",
            TopologySpec::Torus { w: 6, h: 6 },
            FaultPlan::none(),
        ),
        (
            "cutmesh/transient",
            TopologySpec::CutMesh {
                w: 6,
                h: 6,
                cuts: 5,
                seed: 0xC11,
            },
            FaultPlan::transient_storm(&cfg, 36, 1.0 / 300.0, 40, 600, 0x77A),
        ),
    ];
    for (name, spec, plan) in cases {
        let grid_bytes = |threads: usize| {
            let net_cfg = spec_cfg(spec);
            let mut net = Network::with_faults(net_cfg, RouterKind::Protected, &plan);
            net.set_threads(threads);
            let mut src = Source::square(0x9EA7, 6, 0.03);
            for cycle in 0..800u64 {
                if cycle < 550 {
                    net.offer_packets(src.tick(cycle));
                }
                net.step(cycle);
            }
            net.spatial_grid().to_json().render()
        };
        let serial = grid_bytes(1);
        // A campaign this busy must actually light the heatmap up,
        // stalls included — otherwise "identical" is vacuous.
        let grid = noc_telemetry::SpatialGrid::from_json(
            &noc_telemetry::json::JsonValue::parse(&serial).unwrap(),
        )
        .unwrap();
        for metric in ["flits_routed", "occ_integral", "sa_stalls"] {
            assert!(
                grid.metric(metric).unwrap().iter().sum::<u64>() > 0,
                "{name}: expected nonzero {metric} totals"
            );
        }
        for threads in [2usize, 3, 4, 8] {
            assert_eq!(
                serial,
                grid_bytes(threads),
                "spatial grid divergence: case={name} threads={threads}"
            );
        }
    }
}

/// The cut that is kept is the balanced one, and [`Network::shard_profile`]
/// shows it: on the benchmark's 1024-router chiplet mesh two shards are
/// two die rows each, so under uniform load each executes half the
/// router steps of every interval (a deterministic count). A
/// multi-shard stepper closes an interval every 1024 cycles — the
/// cadence `benchmark/trace` averages `time_imbalance` over — with
/// per-shard wall-clock and step counts and bounds that tile the run;
/// one shard records nothing.
#[test]
fn the_static_cut_is_balanced_and_profiled_every_1024_cycles() {
    let mut net_cfg = NetworkConfig::paper();
    net_cfg.topology = TopologySpec::ChipletMesh {
        k_chip: 4,
        k_node: 8,
        d2d: noc_types::LinkClass::D2D_DEFAULT,
    };
    for seed in [1u64, 2, 3] {
        let mut net = Network::new(net_cfg, RouterKind::Protected);
        net.set_threads(2);
        let mut src = Source::for_net(&net, seed, 0.02);
        for cycle in 0..3_100u64 {
            net.offer_packets(src.tick(cycle));
            net.step(cycle);
        }
        let profile = net.shard_profile();
        let bounds: Vec<(u64, u64)> = profile
            .iter()
            .map(|rec| (rec.start_cycle, rec.end_cycle))
            .collect();
        assert_eq!(
            bounds,
            [(0, 1024), (1024, 2048), (2048, 3072)],
            "seed {seed}"
        );
        for rec in &profile {
            let at = rec.start_cycle;
            assert_eq!(rec.shard_nanos.len(), 2, "seed {seed} interval {at}");
            assert_eq!(rec.shard_steps.len(), 2, "seed {seed} interval {at}");
            assert!(rec.time_imbalance() >= 1.0, "seed {seed} interval {at}");
            let share = rec.shard_steps[0] as f64 / rec.shard_steps.iter().sum::<u64>() as f64;
            assert!(
                (0.45..=0.55).contains(&share),
                "seed {seed} interval {at}: shard 0 executed {share:.2} of the router steps"
            );
        }
    }
    let mut serial = Network::new(mesh_cfg(8), RouterKind::Protected);
    serial.set_threads(1);
    for cycle in 0..1_100u64 {
        serial.step(cycle);
    }
    assert!(serial.shard_profile().is_empty());
}

/// Hierarchical topologies ride the same guarantee: d2d boundary links
/// with latency > 1 and serialised narrow links land departures deeper
/// in the wire wheel, and chiplet-boundary sharding cuts partitions at
/// die edges — none of which may change a single observable versus the
/// one-shard run. The star campaign also kills a hub router mid-run
/// (`fail_router`, which recomputes the up*/down* tables around it) so
/// re-routing around a dead die crossing is part of the equivalence;
/// the XY-routed chiplet mesh cannot detour, so it runs a permanent
/// fault campaign instead.
#[test]
fn parallel_step_matches_serial_on_chiplet_topologies() {
    let d2d = noc_types::LinkClass {
        latency: 4,
        width_denom: 2,
    };
    let hub = noc_types::LinkClass {
        latency: 2,
        width_denom: 1,
    };
    let router_cfg = RouterConfig::paper();
    let inj = InjectionConfig::accelerated_accumulating(300, 600);
    let cases: Vec<(&str, TopologySpec, Option<Coord>, FaultPlan)> = vec![
        (
            "chipletmesh",
            TopologySpec::ChipletMesh {
                k_chip: 2,
                k_node: 3,
                d2d,
            },
            None,
            FaultPlan::uniform_random(&router_cfg, 36, &inj, 0xD1E),
        ),
        (
            "chipletstar",
            TopologySpec::ChipletStar {
                chiplets: 2,
                k_node: 3,
                d2d,
                hub,
            },
            // The end-of-row hub router: killing it mid-campaign forces
            // the up*/down* fabric to carry traffic around it. (An
            // *interior* hub router is an articulation point of the
            // up*/down* orientation — its neighbours could no longer
            // route up — so the end router is the one that can die.)
            Some(Coord::new(0, 3)),
            FaultPlan::none(),
        ),
    ];
    for (name, spec, dead, plan) in cases {
        let run_spec = |threads: usize| {
            let net_cfg = spec_cfg(spec);
            net_cfg.validate().unwrap();
            let (w, h) = net_cfg.dims();
            let mut net = Network::with_faults(net_cfg, RouterKind::Protected, &plan);
            net.set_threads(threads);
            let dead_id = dead.map(|c| net.mesh().id_of(c).index());
            let mut src = Source {
                rng: Rng::seeded(0xC417),
                w,
                h,
                rate: 0.03,
                next: 0,
            };
            for cycle in 0..800u64 {
                if cycle == 400 {
                    if let Some(id) = dead_id {
                        net.fail_router(id);
                    }
                }
                if cycle < 550 {
                    net.offer_packets(src.tick(cycle));
                }
                net.step(cycle);
            }
            fingerprint(&net)
        };
        let serial = run_spec(1);
        assert!(
            !serial.deliveries.is_empty(),
            "{name}: cross-die traffic must actually flow"
        );
        for threads in [2usize, 3, 4, 8] {
            assert_eq!(
                serial,
                run_spec(threads),
                "divergence: topology={name} threads={threads}"
            );
        }
    }
}

/// The exported heatmap document (chiplet-major keys included) is
/// byte-identical between one shard and every thread count on
/// a hierarchical topology.
#[test]
fn chiplet_spatial_grid_is_bit_identical_across_thread_counts() {
    let spec = TopologySpec::ChipletMesh {
        k_chip: 2,
        k_node: 3,
        d2d: noc_types::LinkClass::D2D_DEFAULT,
    };
    let grid_bytes = |threads: usize| {
        let net_cfg = spec_cfg(spec);
        let mut net = Network::new(net_cfg, RouterKind::Protected);
        net.set_threads(threads);
        let mut src = Source::square(0x9EA7, 6, 0.03);
        for cycle in 0..600u64 {
            if cycle < 450 {
                net.offer_packets(src.tick(cycle));
            }
            net.step(cycle);
        }
        net.spatial_grid().to_json().render()
    };
    let serial = grid_bytes(1);
    let grid = noc_telemetry::SpatialGrid::from_json(
        &noc_telemetry::json::JsonValue::parse(&serial).unwrap(),
    )
    .unwrap();
    assert_eq!(
        grid.chiplet_k,
        Some(3),
        "hierarchical grid keeps its die size"
    );
    assert!(grid.metric("flits_routed").unwrap().iter().sum::<u64>() > 0);
    for threads in [2usize, 3, 4, 8] {
        assert_eq!(
            serial,
            grid_bytes(threads),
            "chiplet spatial grid divergence: threads={threads}"
        );
    }
}

/// Adaptive routing rides the same guarantee: congestion-chosen output
/// candidates are computed from router-local state only, and mid-run
/// `fail_link` heals (escape-table swap included) before the next
/// step, so serial and every thread count stay bit-identical — the
/// full fingerprint (delivery stream included) and the exported
/// spatial grid, on meshes and tori, across two staggered link kills.
#[test]
fn parallel_step_matches_serial_under_adaptive_with_mid_run_link_faults() {
    use noc_types::Direction;
    for (name, spec) in [
        ("mesh", TopologySpec::Mesh { w: 6, h: 6 }),
        ("torus", TopologySpec::Torus { w: 6, h: 6 }),
    ] {
        let run_spec = |threads: usize| {
            let mut net_cfg = spec_cfg(spec);
            net_cfg.routing = noc_types::RoutingMode::Adaptive;
            let mut net = Network::new(net_cfg, RouterKind::Protected);
            net.set_threads(threads);
            let mut src = Source::square(0xADA7, 6, 0.03);
            for cycle in 0..900u64 {
                if cycle == 300 {
                    net.fail_link(net.mesh().id_of(Coord::new(2, 2)).index(), Direction::East);
                }
                if cycle == 450 {
                    net.fail_link(net.mesh().id_of(Coord::new(4, 1)).index(), Direction::South);
                }
                if cycle < 600 {
                    net.offer_packets(src.tick(cycle));
                }
                net.step(cycle);
            }
            (fingerprint(&net), net.spatial_grid().to_json().render())
        };
        let (serial, serial_grid) = run_spec(1);
        assert!(
            !serial.deliveries.is_empty(),
            "{name}: adaptive traffic must actually flow"
        );
        for threads in [2usize, 3, 4, 8] {
            let (parallel, grid) = run_spec(threads);
            assert_eq!(
                serial, parallel,
                "divergence: topology={name} threads={threads}"
            );
            assert_eq!(
                serial_grid, grid,
                "spatial grid divergence: topology={name} threads={threads}"
            );
        }
    }
}

/// Thread counts beyond the row count clamp instead of misbehaving, and
/// `set_threads(1)` returns to one shard.
#[test]
fn thread_count_knob_clamps_and_reverts() {
    let mut net = Network::new(mesh_cfg(2), RouterKind::Protected);
    net.set_threads(16);
    let rows = net.mesh().h as usize;
    assert!(
        (2..=rows).contains(&net.threads()),
        "a {rows}-row grid clamps 16 threads to at most {rows} shards, got {}",
        net.threads()
    );
    for cycle in 0..50u64 {
        net.step(cycle);
    }
    net.set_threads(1);
    assert_eq!(net.threads(), 1);
    for cycle in 50..100u64 {
        net.step(cycle);
    }
}
