//! Forced-deadlock scenario for the flight recorder.
//!
//! XY routing is deadlock-free on meshes, so the only way to deadlock
//! the stock network is to re-route it: every router of a 2x2 mesh is
//! given a table that sends all traffic clockwise around the ring
//! `0 -> 1 -> 3 -> 2 -> 0`. Four nodes streaming 5-flit Data packets
//! (longer than the 4-slot VC buffers) to the diagonally opposite
//! corner then wedge into the textbook circular wait, the watchdog
//! fires, and the run's report must carry a [`noc_telemetry::FlightRecord`]
//! whose wait-for graph names the cycle.

use noc_faults::FaultPlan;
use noc_sim::{Network, NetworkReport, NullStream, SimOutcome, Simulator};
use noc_telemetry::WaitReason;
use noc_types::{Coord, Direction, NetworkConfig, Packet, PacketId, PacketKind, SimConfig};
use shield_router::{RouterKind, RoutingAlgorithm};

/// Build the 2x2 network with every router re-routed onto the
/// clockwise ring table.
fn ring_network(net_cfg: NetworkConfig) -> Network {
    let mut net = Network::new(net_cfg, RouterKind::Protected);
    let mesh = net.mesh();
    // Next clockwise hop for each router id: 0 -> 1 (east), 1 -> 3
    // (south), 3 -> 2 (west), 2 -> 0 (north). A destination equal to
    // the router itself ejects locally; everything else follows the
    // ring until it arrives.
    let hop = [
        Direction::East,
        Direction::South,
        Direction::North,
        Direction::West,
    ];
    for (id, next) in hop.iter().enumerate() {
        let ports = (0..mesh.len())
            .map(|dst| {
                if dst == id {
                    Direction::Local.port()
                } else {
                    next.port()
                }
            })
            .collect();
        net.router_mut(id)
            .set_routing(RoutingAlgorithm::table(mesh, ports));
    }
    net
}

/// Wedge the ring network under `configure`d stall horizon: every node
/// streams Data packets two hops clockwise for 50 cycles, then the run
/// may drain for 11,000.
fn run_wedged(configure: impl FnOnce(Simulator) -> Simulator) -> (NetworkReport, SimOutcome) {
    let mut net_cfg = NetworkConfig::paper();
    net_cfg.mesh_k = 2;
    let mut net = ring_network(net_cfg);

    // Each flow holds one ring link while waiting for the next, which
    // is what closes the cycle once all VCs fill up.
    let pairs = [
        (Coord::new(0, 0), Coord::new(1, 1)),
        (Coord::new(1, 0), Coord::new(0, 1)),
        (Coord::new(1, 1), Coord::new(0, 0)),
        (Coord::new(0, 1), Coord::new(1, 0)),
    ];
    let mut next = 0u64;
    let sim_cfg = SimConfig {
        warmup_cycles: 0,
        measure_cycles: 60,
        drain_cycles: 11_000,
        seed: 0,
    };
    let sim = Simulator::new(net_cfg, sim_cfg, RouterKind::Protected, FaultPlan::none());
    configure(sim).run_on(&mut net, &mut NullStream, |cycle, out| {
        if cycle < 50 {
            for (src, dst) in pairs {
                next += 1;
                out.push(Packet::new(
                    PacketId(next),
                    PacketKind::Data,
                    src,
                    dst,
                    cycle,
                ));
            }
        }
    })
}

/// The campaign engine forwards `stall_cycles − 1` as the stall horizon
/// so that a wedged scenario ends where its own rule — stop once
/// `cycles_run − last_activity > stall_cycles` — always ended it.
#[test]
fn forwarded_stall_horizon_ends_a_wedged_run_on_the_campaign_cycle() {
    const STALL_CYCLES: u64 = 200;
    let (report, outcome) = run_wedged(|sim| sim.with_watchdog(STALL_CYCLES - 1));
    assert_eq!(outcome, SimOutcome::DeadlockSuspected);
    let fr = report.deadlock.as_ref().expect("flight record attached");
    assert_eq!(report.cycles_run - fr.last_activity, STALL_CYCLES + 1);
    assert!(fr.cycle_edges.is_some(), "the record names the wait cycle");
}

#[test]
fn watchdog_dump_names_the_circular_wait() {
    let (report, outcome) = run_wedged(|sim| sim);

    assert_eq!(outcome, SimOutcome::DeadlockSuspected);
    assert!(report.deadlock_suspected);

    let fr = report
        .deadlock
        .as_ref()
        .expect("watchdog attaches a flight record");
    assert_eq!(
        report.cycles_run - fr.last_activity,
        10_002,
        "the default stall horizon is 10,000 cycles"
    );
    assert!(fr.in_flight > 0, "a deadlock holds flits in the network");
    assert!(
        !fr.routers.is_empty(),
        "blocked routers must appear in the dump"
    );
    // The dump carries real VC state: some blocked VC has an allocated
    // downstream VC with zero credits left.
    assert!(
        fr.routers
            .iter()
            .flat_map(|r| &r.vcs)
            .any(|vc| vc.credits == Some(0) && vc.occupancy > 0),
        "expected a credit-starved occupied VC in the dump"
    );

    let cycle = fr
        .cycle_edges
        .as_ref()
        .expect("the wait-for graph contains a circular wait");
    assert!(cycle.len() >= 2, "a circular wait has at least two edges");
    // The cycle is a closed loop over the ring routers.
    for (edge, nxt) in cycle.iter().zip(cycle.iter().cycle().skip(1)) {
        assert_eq!(edge.to, nxt.from, "cycle edges must chain");
        assert!((edge.from.router as usize) < 4);
        assert!(matches!(
            edge.reason,
            WaitReason::CreditStarved | WaitReason::VcAllocBusy
        ));
    }
    // It spans more than one router — a genuine network-level deadlock,
    // not a self-loop.
    let routers: std::collections::BTreeSet<u16> = cycle.iter().map(|e| e.from.router).collect();
    assert!(routers.len() >= 2, "the wait cycle spans multiple routers");

    let text = fr.render();
    assert!(
        text.contains("circular wait"),
        "render names the cycle:\n{text}"
    );
}

/// 64-bit FNV-1a, hex-rendered.
fn fnv1a(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    format!("{h:016x}")
}

/// The wedged ring's whole report, its flight record included, holds
/// its bytes: the record's wait-for graph, cycle and VC dump render as
/// they did when the digest was taken.
#[test]
fn wedged_ring_report_bytes_are_pinned() {
    let (report, _) = run_wedged(|sim| sim);
    let text = report.to_json().render();
    assert!(text.contains("\"cycle_edges\":[{"), "{text}");
    assert_eq!(fnv1a(text.as_bytes()), "98de9086c3747e23");
}
