//! Clone == replay: a network paused mid-run and cloned gives two
//! independent networks that each continue exactly as an uninterrupted
//! run would. Faults scheduled on one copy at the pause make it the run
//! a network built with those faults makes from cycle 0; the other copy
//! stays the fault-free run — which proves the two share no state
//! mutably. Checked on all five topology families, both routing arms,
//! one and two stepper shards, with the faults on either copy. This is
//! the contract the campaign engine forks its scenarios on.

use noc_faults::{FaultPlan, LinkFaultEvent};
use noc_sim::{MemoryStream, Network, NullStream, Simulator};
use noc_telemetry::snapshot::Snapshot;
use noc_telemetry::FlightRecord;
use noc_types::{
    splitmix64, Cycle, DeliveredPacket, Direction, Mesh, NetworkConfig, Packet, PacketId,
    PacketKind, RouterId, RoutingMode, SimConfig, TopologySpec,
};
use shield_router::RouterKind;

/// The cycle the run is paused and forked at.
const PAUSE: Cycle = 120;
const WARMUP: Cycle = 40;
const INJECT_END: Cycle = 300;
const DRAIN: Cycle = 400;

/// A simulator whose injection phase ends at `end`, then drains for
/// `drain` cycles.
fn simulator(cfg: NetworkConfig, end: Cycle, drain: Cycle) -> Simulator {
    let phases = SimConfig {
        warmup_cycles: WARMUP,
        measure_cycles: end - WARMUP,
        drain_cycles: drain,
        seed: 0,
    };
    Simulator::new(cfg, phases, RouterKind::Protected, FaultPlan::none())
}

/// Uniform traffic at 4 % that is a pure function of the cycle, so a
/// forked run needs no source state carried across the fork.
fn traffic(grid: Mesh, cycle: Cycle, out: &mut Vec<Packet>) {
    let n = grid.len() as u64;
    for (i, src) in grid.coords().enumerate() {
        let mut h = 0xF0_4CED ^ (cycle << 20) ^ i as u64;
        if splitmix64(&mut h) % 1000 >= 40 {
            continue;
        }
        let dst = grid.coord_of(RouterId((splitmix64(&mut h) % n) as u16));
        if dst == src {
            continue;
        }
        let kind = if h.is_multiple_of(3) {
            PacketKind::Data
        } else {
            PacketKind::Control
        };
        let id = PacketId(cycle * n + i as u64 + 1);
        out.push(Packet::new(id, kind, src, dst, cycle));
    }
}

/// Two links to cut: one at the pause itself (it applies at the first
/// step after the fork) and one later.
fn cuts(net: &Network) -> Vec<LinkFaultEvent> {
    let topo = net.topology();
    let n = topo.len();
    [
        (n / 3, Direction::East, PAUSE),
        (2 * n / 3, Direction::South, PAUSE + 45),
    ]
    .into_iter()
    .map(|(start, dir, cycle)| {
        let node = (start..n)
            .chain(0..start)
            .find(|&m| topo.link(m, dir).is_some())
            .expect("the topology has a link in this direction");
        LinkFaultEvent {
            cycle,
            router: RouterId(node as u16),
            dir,
        }
    })
    .collect()
}

/// What a finished run is compared by: the rendered report, the
/// delivery log and the flight record at its last cycle.
type Ending = (String, Vec<DeliveredPacket>, FlightRecord);

/// Run `net` from its clock to the end of the phases, appending its
/// deliveries to `log` (which holds those before the clock).
fn finish(cfg: NetworkConfig, net: &mut Network, mut log: MemoryStream) -> Ending {
    let grid = net.mesh();
    let (report, _) = simulator(cfg, INJECT_END, DRAIN)
        .run_on(net, &mut log, |cycle, out| traffic(grid, cycle, out));
    let record = net.flight_record(report.cycles_run);
    (report.to_json().render(), log.into_entries(), record)
}

fn assert_clone_equals_replay(label: &str, cfg: NetworkConfig, threads: usize) {
    let build = |plan: &FaultPlan| {
        let mut net = Network::with_faults(cfg, RouterKind::Protected, plan);
        net.set_threads(threads);
        net
    };
    let mut paused = build(&FaultPlan::none());
    let events = cuts(&paused);
    let faulted = finish(
        cfg,
        &mut build(&FaultPlan::none().with_link_faults(events.clone())),
        MemoryStream::new(),
    );
    let healthy = finish(cfg, &mut build(&FaultPlan::none()), MemoryStream::new());
    assert!(!healthy.1.is_empty(), "{label}: traffic must flow");
    assert_ne!(
        faulted.0, healthy.0,
        "{label}: the cuts must change the run"
    );

    let grid = paused.mesh();
    let mut before_pause = MemoryStream::new();
    simulator(cfg, PAUSE, 0).run_on(&mut paused, &mut before_pause, |cycle, out| {
        traffic(grid, cycle, out)
    });
    let before_pause = before_pause.into_entries();
    assert_eq!(paused.cycle(), PAUSE, "{label}: paused at the fork");
    for faults_on_clone in [false, true] {
        let mut original = paused.clone();
        let mut twin = original.clone();
        assert_eq!(twin.cycle(), PAUSE);
        assert_eq!(twin.shard_count(), original.shard_count());
        let (with_faults, without) = if faults_on_clone {
            (&mut twin, &mut original)
        } else {
            (&mut original, &mut twin)
        };
        with_faults.schedule_link_faults(&events);
        // The faulted copy runs first: had the copies shared any state
        // mutably, the fault-free copy would see its effects.
        let side = if faults_on_clone { "clone" } else { "original" };
        assert!(
            finish(
                cfg,
                with_faults,
                MemoryStream::from_entries(before_pause.clone())
            ) == faulted,
            "{label} threads={threads}: faulted {side} != replay with faults"
        );
        assert!(
            finish(
                cfg,
                without,
                MemoryStream::from_entries(before_pause.clone())
            ) == healthy,
            "{label} threads={threads}: the copy without faults != fault-free run"
        );
    }
}

#[test]
fn a_cloned_network_continues_like_a_replay_on_every_family() {
    let parse = |arg: &str, k: u8| TopologySpec::parse_arg(arg, k).expect("spec parses");
    for (label, k, topology) in [
        ("mesh", 6, TopologySpec::Mesh { w: 6, h: 6 }),
        ("torus", 6, TopologySpec::Torus { w: 6, h: 6 }),
        ("cutmesh", 6, parse("cutmesh3:7", 6)),
        ("chipletmesh", 6, parse("chipletmesh2x3:4:2", 6)),
        ("chipletstar", 6, parse("chipletstar2x3:4:2", 6)),
    ] {
        for routing in [RoutingMode::Static, RoutingMode::Adaptive] {
            let cfg = NetworkConfig {
                mesh_k: k,
                topology,
                routing,
                ..NetworkConfig::paper()
            };
            for threads in [1, 2] {
                assert_clone_equals_replay(&format!("{label}/{routing:?}"), cfg, threads);
            }
        }
    }
}

/// Threads of this process.
fn threads_alive() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("a Linux /proc")
        .count()
}

/// A clone shares its original's worker pool instead of starting its
/// own: 100 clones of a 4-shard network start no thread (a pool each
/// would start 300), and every clone still steps exactly as the
/// original does.
#[test]
fn clones_share_the_worker_pool_and_step_identically() {
    let cfg = NetworkConfig {
        mesh_k: 8,
        ..NetworkConfig::paper()
    };
    let mut original = Network::new(cfg, RouterKind::Protected);
    original.set_threads(4);
    let grid = original.mesh();
    let mut packets = Vec::new();
    let mut step = |net: &mut Network, cycle: Cycle| {
        traffic(grid, cycle, &mut packets);
        net.offer_packets_from(&mut packets);
        net.step(cycle);
    };
    for cycle in 0..PAUSE {
        step(&mut original, cycle);
    }
    let before = threads_alive();
    let mut clones: Vec<Network> = (0..100).map(|_| original.clone()).collect();
    let started = threads_alive().saturating_sub(before);
    // Other tests of this binary start and end threads concurrently;
    // a handful of slack cannot hide a pool per clone.
    assert!(started < 10, "100 clones started {started} threads");
    for cycle in PAUSE..PAUSE + 60 {
        step(&mut original, cycle);
    }
    let expected = original.snapshot().render();
    for (i, clone) in clones.iter_mut().enumerate() {
        assert_eq!(clone.shard_count(), 4);
        for cycle in PAUSE..PAUSE + 60 {
            step(clone, cycle);
        }
        assert!(
            clone.snapshot().render() == expected,
            "clone {i} diverged from its original"
        );
    }
}

#[test]
#[should_panic(expected = "scheduled on a network already at cycle")]
fn a_fault_before_the_clock_is_refused() {
    let cfg = NetworkConfig::paper();
    let mut net = Network::new(cfg, RouterKind::Protected);
    let grid = net.mesh();
    simulator(cfg, 60, 0).run_on(&mut net, &mut NullStream, |cycle, out| {
        traffic(grid, cycle, out)
    });
    net.schedule_link_faults(&[LinkFaultEvent {
        cycle: 59,
        router: RouterId(0),
        dir: Direction::East,
    }]);
}
