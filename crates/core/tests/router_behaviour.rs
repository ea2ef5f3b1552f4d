//! Behavioural tests for the baseline and protected routers, exercising
//! every fault-tolerance mechanism of Section V on a standalone router.

use noc_faults::FaultSite;
use noc_types::{
    Coord, Direction, Flit, Mesh, Packet, PacketId, PacketKind, PortId, RouterConfig, VcId,
};
use shield_router::{Departure, Router, RouterKind};

const HERE: Coord = Coord::new(3, 3);

fn router(kind: RouterKind) -> Router {
    Router::new_xy(0, HERE, Mesh::new(8), RouterConfig::paper(), kind)
}

fn packet(id: u64, kind: PacketKind, dst: Coord) -> Vec<Flit> {
    Packet::new(PacketId(id), kind, HERE, dst, 0).segment()
}

const EAST_DST: Coord = Coord::new(5, 3);

/// Drive `router` for `cycles`, feeding flits listed as
/// `(earliest_cycle, port, vc, flit)` through a credit-respecting
/// upstream (one flit per VC per cycle, never beyond the buffer depth)
/// and auto-returning credits for every departure (an ideally-responsive
/// downstream). Returns the departures tagged with their cycle, plus
/// dropped flits.
fn drive(
    router: &mut Router,
    arrivals: Vec<(u64, PortId, VcId, Flit)>,
    cycles: u64,
) -> (Vec<(u64, Departure)>, Vec<Flit>) {
    use std::collections::{HashMap, VecDeque};
    let depth = router.config().buffer_depth as u32;
    let mut queues: HashMap<(PortId, VcId), VecDeque<(u64, Flit)>> = HashMap::new();
    for (t, port, vc, flit) in arrivals {
        queues.entry((port, vc)).or_default().push_back((t, flit));
    }
    let mut upstream_credits: HashMap<(PortId, VcId), u32> = HashMap::new();
    let mut departures = Vec::new();
    let mut dropped = Vec::new();
    for cycle in 0..cycles {
        let mut keys: Vec<_> = queues.keys().copied().collect();
        keys.sort();
        for key in keys {
            let q = queues.get_mut(&key).unwrap();
            let credits = upstream_credits.entry(key).or_insert(depth);
            if *credits > 0 && q.front().is_some_and(|(t, _)| *t <= cycle) {
                let (_, flit) = q.pop_front().unwrap();
                *credits -= 1;
                router.receive_flit(key.0, key.1, flit);
            }
            if q.is_empty() {
                queues.remove(&key);
            }
        }
        let out = router.step(cycle);
        for c in out.credits {
            *upstream_credits.entry((c.in_port, c.vc)).or_insert(depth) += 1;
        }
        for d in out.departures {
            router.receive_credit(d.out_port, d.out_vc);
            departures.push((cycle, d));
        }
        dropped.extend(out.dropped);
    }
    (departures, dropped)
}

fn inject_at_local(flits: Vec<Flit>, vc: u8) -> Vec<(u64, PortId, VcId, Flit)> {
    flits
        .into_iter()
        .enumerate()
        .map(|(i, f)| (i as u64, Direction::Local.port(), VcId(vc), f))
        .collect()
}

// ---------------------------------------------------------------------
// Fault-free pipeline behaviour
// ---------------------------------------------------------------------

#[test]
fn head_flit_takes_four_cycles_through_the_pipeline() {
    for kind in [RouterKind::Baseline, RouterKind::Protected] {
        let mut r = router(kind);
        let arrivals = inject_at_local(packet(1, PacketKind::Control, EAST_DST), 0);
        let (deps, dropped) = drive(&mut r, arrivals, 10);
        assert!(dropped.is_empty());
        assert_eq!(deps.len(), 1);
        let (cycle, d) = &deps[0];
        assert_eq!(*cycle, 3, "RC@0, VA@1, SA@2, XB@3");
        assert_eq!(d.out_port, Direction::East.port());
    }
}

#[test]
fn data_packet_streams_one_flit_per_cycle() {
    let mut r = router(RouterKind::Protected);
    let arrivals = inject_at_local(packet(1, PacketKind::Data, EAST_DST), 0);
    let (deps, _) = drive(&mut r, arrivals, 15);
    assert_eq!(deps.len(), 5);
    let cycles: Vec<u64> = deps.iter().map(|(c, _)| *c).collect();
    assert_eq!(cycles, vec![3, 4, 5, 6, 7]);
    for (_, d) in &deps {
        assert_eq!(d.out_port, Direction::East.port());
        assert_eq!(d.out_vc, deps[0].1.out_vc, "whole packet stays on one VC");
    }
    assert_eq!(r.stats().flits_in, 5);
    assert_eq!(r.stats().flits_out, 5);
    assert_eq!(r.buffered_flits(), 0);
}

#[test]
fn local_delivery_uses_local_port() {
    let mut r = router(RouterKind::Protected);
    let arrivals = vec![(
        0,
        Direction::West.port(),
        VcId(2),
        packet(9, PacketKind::Control, HERE).remove(0),
    )];
    let (deps, _) = drive(&mut r, arrivals, 10);
    assert_eq!(deps.len(), 1);
    assert_eq!(deps[0].1.out_port, Direction::Local.port());
}

#[test]
fn credits_throttle_when_downstream_never_replies() {
    // Buffer depth 4: a 5-flit packet can only send 4 flits without
    // credit returns.
    let mut r = router(RouterKind::Protected);
    let mut flits: Vec<Flit> = packet(1, PacketKind::Data, EAST_DST);
    flits.reverse();
    // Feed respecting the input buffer (4 slots); downstream never
    // returns credits.
    let mut sent = 0;
    for cycle in 0..30 {
        if !flits.is_empty() && r.vc(Direction::Local.port(), VcId(0)).occupancy() < 4 {
            r.receive_flit(Direction::Local.port(), VcId(0), flits.pop().unwrap());
        }
        sent += r.step(cycle).departures.len();
    }
    assert_eq!(sent, 4, "fifth flit must wait for a credit");
    // Returning one credit releases the tail.
    r.receive_credit(Direction::East.port(), VcId(0));
    let mut extra = 0;
    for cycle in 30..40 {
        extra += r.step(cycle).departures.len();
    }
    assert_eq!(extra, 1);
}

#[test]
fn tail_frees_downstream_vc_for_next_packet() {
    let mut r = router(RouterKind::Protected);
    // Two control packets on the same input VC, back to back.
    let mut arrivals = inject_at_local(packet(1, PacketKind::Control, EAST_DST), 0);
    arrivals.push((
        1,
        Direction::Local.port(),
        VcId(0),
        packet(2, PacketKind::Control, EAST_DST).remove(0),
    ));
    let (deps, _) = drive(&mut r, arrivals, 20);
    assert_eq!(deps.len(), 2);
    assert_eq!(deps[0].1.flit.packet, PacketId(1));
    assert_eq!(deps[1].1.flit.packet, PacketId(2));
    assert!(!r.out_vc_busy(Direction::East.port(), deps[1].1.out_vc));
}

#[test]
fn two_ports_contending_for_one_output_serialise() {
    let mut r = router(RouterKind::Protected);
    let f1 = Flit::new(
        PacketId(1),
        noc_types::FlitSeq(0),
        noc_types::FlitKind::Single,
        Coord::new(0, 3),
        EAST_DST,
        0,
    );
    let f2 = Flit::new(
        PacketId(2),
        noc_types::FlitSeq(0),
        noc_types::FlitKind::Single,
        Coord::new(3, 0),
        EAST_DST,
        0,
    );
    let arrivals = vec![
        (0, Direction::West.port(), VcId(0), f1),
        (0, Direction::North.port(), VcId(0), f2),
    ];
    let (deps, _) = drive(&mut r, arrivals, 15);
    assert_eq!(deps.len(), 2);
    assert_eq!(
        deps[0].0 + 1,
        deps[1].0,
        "crossbar sends one flit per output per cycle"
    );
    assert!(deps
        .iter()
        .all(|(_, d)| d.out_port == Direction::East.port()));
}

// ---------------------------------------------------------------------
// RC stage faults (Section V-A)
// ---------------------------------------------------------------------

#[test]
fn protected_rc_fault_uses_duplicate_with_no_latency_penalty() {
    let mut r = router(RouterKind::Protected);
    r.inject_fault(
        FaultSite::RcPrimary {
            port: Direction::Local.port(),
        },
        0,
    );
    let arrivals = inject_at_local(packet(1, PacketKind::Control, EAST_DST), 0);
    let (deps, _) = drive(&mut r, arrivals, 10);
    assert_eq!(deps.len(), 1);
    assert_eq!(deps[0].0, 3, "spatial redundancy: no extra cycles");
    assert_eq!(deps[0].1.out_port, Direction::East.port());
    assert!(r.stats().rc_duplicate_uses >= 1);
    assert_eq!(r.stats().rc_misroutes, 0);
    assert!(!r.is_failed());
}

#[test]
fn baseline_rc_fault_misroutes() {
    let mut r = router(RouterKind::Baseline);
    r.inject_fault(
        FaultSite::RcPrimary {
            port: Direction::Local.port(),
        },
        0,
    );
    let arrivals = inject_at_local(packet(1, PacketKind::Control, EAST_DST), 0);
    let (deps, _) = drive(&mut r, arrivals, 10);
    assert_eq!(deps.len(), 1);
    assert_ne!(deps[0].1.out_port, Direction::East.port(), "misrouted");
    assert_eq!(r.stats().rc_misroutes, 1);
    assert!(r.is_failed());
}

#[test]
fn protected_rc_double_fault_blocks_port_and_fails_router() {
    let mut r = router(RouterKind::Protected);
    let port = Direction::Local.port();
    r.inject_fault(FaultSite::RcPrimary { port }, 0);
    r.inject_fault(FaultSite::RcDuplicate { port }, 0);
    let arrivals = inject_at_local(packet(1, PacketKind::Control, EAST_DST), 0);
    let (deps, _) = drive(&mut r, arrivals, 20);
    assert!(deps.is_empty(), "routing impossible at this port");
    assert!(r.is_failed());
}

// ---------------------------------------------------------------------
// VA stage faults (Section V-B)
// ---------------------------------------------------------------------

#[test]
fn protected_va1_fault_borrows_idle_neighbour_arbiters() {
    let mut r = router(RouterKind::Protected);
    r.inject_fault(
        FaultSite::Va1ArbiterSet {
            port: Direction::Local.port(),
            vc: VcId(0),
        },
        0,
    );
    let arrivals = inject_at_local(packet(1, PacketKind::Control, EAST_DST), 0);
    let (deps, _) = drive(&mut r, arrivals, 10);
    assert_eq!(deps.len(), 1);
    // Scenario 1: lender idle → allocation completes in the normal cycle.
    assert_eq!(deps[0].0, 3);
    assert!(r.stats().va_borrows >= 1);
    assert!(!r.is_failed());
}

#[test]
fn baseline_va1_fault_blocks_the_vc_forever() {
    let mut r = router(RouterKind::Baseline);
    r.inject_fault(
        FaultSite::Va1ArbiterSet {
            port: Direction::Local.port(),
            vc: VcId(0),
        },
        0,
    );
    let arrivals = inject_at_local(packet(1, PacketKind::Control, EAST_DST), 0);
    let (deps, _) = drive(&mut r, arrivals, 40);
    assert!(deps.is_empty());
    assert_eq!(r.buffered_flits(), 1, "flit is stuck, not lost");
}

#[test]
fn protected_va1_all_sets_faulty_fails_router() {
    let mut r = router(RouterKind::Protected);
    for vc in 0..4 {
        r.inject_fault(
            FaultSite::Va1ArbiterSet {
                port: Direction::Local.port(),
                vc: VcId(vc),
            },
            0,
        );
    }
    let arrivals = inject_at_local(packet(1, PacketKind::Control, EAST_DST), 0);
    let (deps, _) = drive(&mut r, arrivals, 30);
    assert!(deps.is_empty());
    assert!(r.is_failed());
    assert!(r.stats().va_borrow_waits > 0);
}

#[test]
fn protected_va2_fault_excludes_downstream_vc() {
    let mut r = router(RouterKind::Protected);
    // Downstream VC 0 of the east port has a faulty stage-2 arbiter.
    r.inject_fault(
        FaultSite::Va2Arbiter {
            out_port: Direction::East.port(),
            out_vc: VcId(0),
        },
        0,
    );
    let arrivals = inject_at_local(packet(1, PacketKind::Control, EAST_DST), 0);
    let (deps, _) = drive(&mut r, arrivals, 10);
    assert_eq!(deps.len(), 1);
    assert_ne!(
        deps[0].1.out_vc,
        VcId(0),
        "faulty downstream VC never allocated"
    );
    assert!(!r.is_failed());
}

#[test]
fn borrow_scenario_two_adds_one_cycle() {
    // VC0's arbiters are faulty; VC1 carries its own packet through VA in
    // the same window, so VC0 must wait for a lendable VC.
    let mut r = router(RouterKind::Protected);
    let port = Direction::Local.port();
    r.inject_fault(FaultSite::Va1ArbiterSet { port, vc: VcId(0) }, 0);
    // Make VCs 2 and 3 unlendable too (faulty), leaving VC1 the only
    // potential lender.
    r.inject_fault(FaultSite::Va1ArbiterSet { port, vc: VcId(2) }, 0);
    r.inject_fault(FaultSite::Va1ArbiterSet { port, vc: VcId(3) }, 0);
    let mut arrivals = inject_at_local(packet(1, PacketKind::Control, EAST_DST), 0);
    arrivals.push((
        0,
        port,
        VcId(1),
        packet(2, PacketKind::Control, Coord::new(3, 5)).remove(0),
    ));
    let (deps, _) = drive(&mut r, arrivals, 20);
    assert_eq!(deps.len(), 2);
    let d_vc1 = deps
        .iter()
        .find(|(_, d)| d.flit.packet == PacketId(2))
        .unwrap();
    let d_vc0 = deps
        .iter()
        .find(|(_, d)| d.flit.packet == PacketId(1))
        .unwrap();
    // The shared RC unit serves VC0 first, so VC1's own pipeline is
    // RC@1, VA@2, SA@3, XB@4.
    assert_eq!(
        d_vc1.0, 4,
        "lender's own packet is unimpeded beyond RC sharing"
    );
    // VC0 waits while VC1 is in VA, borrows once VC1 is active.
    assert!(d_vc0.0 > 4, "borrower pays at least one extra cycle");
    assert!(r.stats().va_borrow_waits >= 1);
    assert!(r.stats().va_borrows >= 1);
}

// ---------------------------------------------------------------------
// SA stage faults (Section V-C)
// ---------------------------------------------------------------------

#[test]
fn protected_sa1_fault_grants_default_winner_via_bypass() {
    let mut r = router(RouterKind::Protected);
    let port = Direction::Local.port();
    r.inject_fault(FaultSite::Sa1Arbiter { port }, 0);
    // Early cycles: default winner of port 0 is VC 0.
    let arrivals = inject_at_local(packet(1, PacketKind::Control, EAST_DST), 0);
    let (deps, _) = drive(&mut r, arrivals, 10);
    assert_eq!(deps.len(), 1);
    assert_eq!(deps[0].0, 3, "default winner needs no extra cycle");
    assert!(r.stats().sa_bypass_grants >= 1);
    assert!(!r.is_failed());
}

#[test]
fn protected_sa1_fault_transfers_nondefault_vc() {
    let mut r = router(RouterKind::Protected);
    let port = Direction::Local.port();
    r.inject_fault(FaultSite::Sa1Arbiter { port }, 0);
    // Packet on VC 1 while the default winner (VC 0) is empty: the flits
    // must be transferred into VC 0, costing one cycle.
    let arrivals: Vec<_> = packet(1, PacketKind::Control, EAST_DST)
        .into_iter()
        .map(|f| (0u64, port, VcId(1), f))
        .collect();
    let (deps, _) = drive(&mut r, arrivals, 12);
    assert_eq!(deps.len(), 1);
    assert_eq!(deps[0].0, 4, "transfer adds exactly one cycle");
    assert_eq!(r.stats().vc_transfers, 1);
    assert!(r.stats().sa_bypass_grants >= 1);
}

#[test]
fn baseline_sa1_fault_blocks_whole_port() {
    let mut r = router(RouterKind::Baseline);
    r.inject_fault(
        FaultSite::Sa1Arbiter {
            port: Direction::Local.port(),
        },
        0,
    );
    let arrivals = inject_at_local(packet(1, PacketKind::Control, EAST_DST), 0);
    let (deps, _) = drive(&mut r, arrivals, 40);
    assert!(deps.is_empty());
    assert_eq!(r.buffered_flits(), 1);
}

#[test]
fn protected_sa1_and_bypass_faults_fail_router() {
    let mut r = router(RouterKind::Protected);
    let port = Direction::Local.port();
    r.inject_fault(FaultSite::Sa1Arbiter { port }, 0);
    r.inject_fault(FaultSite::Sa1Bypass { port }, 0);
    let arrivals = inject_at_local(packet(1, PacketKind::Control, EAST_DST), 0);
    let (deps, _) = drive(&mut r, arrivals, 20);
    assert!(deps.is_empty());
    assert!(r.is_failed());
}

// ---------------------------------------------------------------------
// SA2 / XB faults (Sections V-C2 and V-D)
// ---------------------------------------------------------------------

#[test]
fn protected_xb_mux_fault_takes_secondary_path() {
    let mut r = router(RouterKind::Protected);
    r.inject_fault(
        FaultSite::XbMux {
            out_port: Direction::East.port(),
        },
        0,
    );
    let arrivals = inject_at_local(packet(1, PacketKind::Control, EAST_DST), 0);
    let (deps, _) = drive(&mut r, arrivals, 12);
    assert_eq!(deps.len(), 1);
    assert_eq!(
        deps[0].1.out_port,
        Direction::East.port(),
        "logical destination unchanged"
    );
    assert_eq!(r.stats().secondary_path_flits, 1);
    assert!(!r.is_failed());
}

#[test]
fn protected_sa2_fault_takes_secondary_path() {
    let mut r = router(RouterKind::Protected);
    r.inject_fault(
        FaultSite::Sa2Arbiter {
            out_port: Direction::East.port(),
        },
        0,
    );
    let arrivals = inject_at_local(packet(1, PacketKind::Data, EAST_DST), 0);
    let (deps, _) = drive(&mut r, arrivals, 20);
    assert_eq!(deps.len(), 5);
    assert!(deps
        .iter()
        .all(|(_, d)| d.out_port == Direction::East.port()));
    assert_eq!(r.stats().secondary_path_flits, 5);
}

#[test]
fn baseline_xb_mux_fault_drops_flits() {
    let mut r = router(RouterKind::Baseline);
    r.inject_fault(
        FaultSite::XbMux {
            out_port: Direction::East.port(),
        },
        0,
    );
    let arrivals = inject_at_local(packet(1, PacketKind::Control, EAST_DST), 0);
    let (deps, dropped) = drive(&mut r, arrivals, 12);
    assert!(deps.is_empty());
    assert_eq!(
        dropped.len(),
        1,
        "the baseline crossbar silently loses the flit"
    );
    assert_eq!(r.stats().flits_dropped, 1);
    assert_eq!(r.buffered_flits(), 0);
}

#[test]
fn baseline_xb_mux_drop_restores_the_reserved_credit() {
    // Regression: the drop path used to leak the downstream slot
    // reserved at SA-grant. A dropped flit never reaches the neighbour,
    // so no credit ever comes back for it; the drop itself must restore
    // the reservation or the output wedges after `buffer_depth` drops.
    let mut r = router(RouterKind::Baseline);
    let depth = r.config().buffer_depth as u8;
    let east = Direction::East.port();
    r.inject_fault(FaultSite::XbMux { out_port: east }, 0);

    // A multi-flit data packet: every flit dies in the faulty mux, and
    // with a leak the link would lose one credit per flit — more than
    // the depth, so it would wedge mid-packet.
    let flits = packet(1, PacketKind::Data, EAST_DST);
    let n_flits = flits.len();
    assert!(n_flits > r.config().buffer_depth);
    let arrivals = inject_at_local(flits, 0);
    let (deps, dropped) = drive(&mut r, arrivals, 40);

    assert!(deps.is_empty());
    assert_eq!(dropped.len(), n_flits, "every flit of the packet is lost");
    assert_eq!(r.buffered_flits(), 0);
    for vc in 0..r.config().vcs {
        assert_eq!(
            r.credit(east, VcId(vc as u8)),
            depth,
            "all reserved credits towards East vc{vc} must be restored"
        );
    }
}

#[test]
fn secondary_path_contends_with_primary_traffic_of_source_port() {
    // East (port 2) mux faulty → its flits ride M1 (North's mux). A
    // simultaneous packet for North must share that mux: the two flits
    // leave in consecutive cycles.
    let mut r = router(RouterKind::Protected);
    r.inject_fault(
        FaultSite::XbMux {
            out_port: Direction::East.port(),
        },
        0,
    );
    let north_dst = Coord::new(3, 1);
    let mut arrivals = inject_at_local(packet(1, PacketKind::Control, EAST_DST), 0);
    arrivals.push((
        0,
        Direction::West.port(),
        VcId(0),
        Flit::new(
            PacketId(2),
            noc_types::FlitSeq(0),
            noc_types::FlitKind::Single,
            Coord::new(0, 3),
            north_dst,
            0,
        ),
    ));
    let (deps, _) = drive(&mut r, arrivals, 15);
    assert_eq!(deps.len(), 2);
    assert_ne!(deps[0].0, deps[1].0, "shared mux serialises the two flits");
}

#[test]
fn protected_xb_double_fault_on_secondary_fails_router() {
    let mut r = router(RouterKind::Protected);
    let east = Direction::East.port();
    r.inject_fault(FaultSite::XbMux { out_port: east }, 0);
    r.inject_fault(FaultSite::XbSecondary { out_port: east }, 0);
    let arrivals = inject_at_local(packet(1, PacketKind::Control, EAST_DST), 0);
    let (deps, _) = drive(&mut r, arrivals, 20);
    assert!(deps.is_empty(), "east is unreachable");
    assert!(r.is_failed());
    assert_eq!(r.buffered_flits(), 1, "flit blocked, not lost");
}

#[test]
fn paper_m2_m4_example_still_delivers_everywhere() {
    // 0-indexed muxes 1 and 3 (the paper's M2 and M4) faulty: all five
    // outputs remain reachable.
    let mut r = router(RouterKind::Protected);
    r.inject_fault(
        FaultSite::XbMux {
            out_port: PortId(1),
        },
        0,
    );
    r.inject_fault(
        FaultSite::XbMux {
            out_port: PortId(3),
        },
        0,
    );
    assert!(!r.is_failed());
    // Send one packet to each direction (dst chosen per XY routing).
    let dsts = [
        (Coord::new(3, 1), Direction::North),
        (Coord::new(5, 3), Direction::East),
        (Coord::new(3, 5), Direction::South),
        (Coord::new(1, 3), Direction::West),
    ];
    let mut arrivals = Vec::new();
    for (i, (dst, _)) in dsts.iter().enumerate() {
        arrivals.push((
            (i * 8) as u64,
            Direction::Local.port(),
            VcId(0),
            Packet::new(PacketId(i as u64), PacketKind::Control, HERE, *dst, 0)
                .segment()
                .remove(0),
        ));
    }
    let (deps, dropped) = drive(&mut r, arrivals, 60);
    assert!(dropped.is_empty());
    assert_eq!(deps.len(), 4);
    for ((_, d), (_, dir)) in deps.iter().zip(dsts.iter()) {
        assert_eq!(d.out_port, dir.port());
    }
}

// ---------------------------------------------------------------------
// Multi-fault tolerance: one fault per stage (the paper's headline)
// ---------------------------------------------------------------------

#[test]
fn one_fault_in_every_stage_is_tolerated_simultaneously() {
    let mut r = router(RouterKind::Protected);
    let local = Direction::Local.port();
    r.inject_fault(FaultSite::RcPrimary { port: local }, 0);
    r.inject_fault(
        FaultSite::Va1ArbiterSet {
            port: local,
            vc: VcId(0),
        },
        0,
    );
    r.inject_fault(FaultSite::Sa1Arbiter { port: local }, 0);
    r.inject_fault(
        FaultSite::XbMux {
            out_port: Direction::East.port(),
        },
        0,
    );
    assert!(!r.is_failed());
    let arrivals = inject_at_local(packet(1, PacketKind::Data, EAST_DST), 0);
    let (deps, dropped) = drive(&mut r, arrivals, 40);
    assert!(dropped.is_empty());
    assert_eq!(
        deps.len(),
        5,
        "all five flits delivered despite four faults"
    );
    assert!(deps
        .iter()
        .all(|(_, d)| d.out_port == Direction::East.port()));
    let s = r.stats();
    assert!(s.rc_duplicate_uses >= 1);
    assert!(s.va_borrows >= 1);
    assert!(s.sa_bypass_grants >= 1);
    assert!(s.secondary_path_flits >= 1);
}

#[test]
fn flit_conservation_under_heavy_multi_vc_traffic() {
    let mut r = router(RouterKind::Protected);
    let mut arrivals = Vec::new();
    let mut id = 0u64;
    // Four packets per input port, one per VC, various destinations.
    for port in [
        Direction::Local,
        Direction::North,
        Direction::East,
        Direction::South,
        Direction::West,
    ] {
        for vc in 0..4u8 {
            id += 1;
            let dst = match (id % 4, port) {
                (0, _) => Coord::new(3, 1),
                (1, _) => Coord::new(5, 3),
                (2, _) => Coord::new(3, 6),
                _ => Coord::new(0, 3),
            };
            for (i, f) in Packet::new(PacketId(id), PacketKind::Data, HERE, dst, 0)
                .segment()
                .into_iter()
                .enumerate()
            {
                arrivals.push(((vc as u64) * 2 + i as u64, port.port(), VcId(vc), f));
            }
        }
    }
    let total = arrivals.len() as u64;
    let (deps, dropped) = drive(&mut r, arrivals, 400);
    assert!(dropped.is_empty());
    assert_eq!(deps.len() as u64, total, "every flit eventually departs");
    assert_eq!(r.stats().flits_in, total);
    assert_eq!(r.stats().flits_out, total);
    assert_eq!(r.buffered_flits(), 0);
}

// ---------------------------------------------------------------------
// The idle predicate (the simulator's active-router worklist)
// ---------------------------------------------------------------------

/// A fresh healthy router is idle, stays idle while only stepped, and
/// an idle step produces nothing.
#[test]
fn fresh_router_is_idle_and_idle_steps_are_no_ops() {
    let mut r = router(RouterKind::Protected);
    assert!(r.is_idle());
    for cycle in 0..20 {
        let out = r.step(cycle);
        assert!(out.departures.is_empty() && out.credits.is_empty() && out.dropped.is_empty());
        assert!(r.is_idle());
    }
    assert_eq!(r.stats().flits_out, 0);
}

/// A router holding any part of a packet is non-idle from the first
/// flit until the tail has fully departed, and becomes idle again after.
#[test]
fn router_is_nonidle_exactly_while_it_holds_traffic() {
    let mut r = router(RouterKind::Protected);
    let flits = packet(1, PacketKind::Data, EAST_DST);
    let total = flits.len();
    r.receive_flit(Direction::Local.port(), VcId(0), flits[0]);
    assert!(
        !r.is_idle(),
        "a buffered head flit must mark the router active"
    );
    let mut seen = 0usize;
    let mut cycle = 0u64;
    let mut next = 1usize;
    while seen < total {
        assert!(!r.is_idle(), "mid-packet router went idle at cycle {cycle}");
        let out = r.step(cycle);
        for d in out.departures {
            r.receive_credit(d.out_port, d.out_vc);
            seen += 1;
        }
        if next < total {
            r.receive_flit(Direction::Local.port(), VcId(0), flits[next]);
            next += 1;
        }
        cycle += 1;
    }
    // Credits all returned, tail departed: idle again.
    assert!(r.is_idle(), "drained router must return to idle");
}

/// Any scheduled fault — even one far in the future, or an expired
/// transient — keeps the router out of the worklist's idle set, because
/// its fault clock must keep advancing.
#[test]
fn faulted_routers_are_never_idle() {
    let mut r = router(RouterKind::Protected);
    r.inject_fault(FaultSite::Sa1Arbiter { port: PortId(1) }, 10_000);
    assert!(!r.is_idle());

    let mut t = router(RouterKind::Protected);
    t.inject_transient(FaultSite::Sa1Arbiter { port: PortId(1) }, 5, 3);
    assert!(!t.is_idle());
    for cycle in 0..50 {
        t.step(cycle);
        assert!(!t.is_idle(), "transient schedule keeps the router active");
    }
}

/// The stepper's own test, `is_idle_at`, does skip an empty faulted
/// router — but only on cycles its fault clock is quiet at: every
/// edge (manifestation, detection, a transient's end) and the first
/// step after the schedule changes are stepped.
#[test]
fn empty_faulted_routers_are_skippable_on_quiet_cycles_only() {
    let mut r = router(RouterKind::Protected);
    r.inject_transient(FaultSite::Sa1Arbiter { port: PortId(1) }, 5, 3);
    r.set_detection(noc_faults::DetectionModel::Delayed(1));
    let mut stepped = Vec::new();
    for cycle in 0..20 {
        if !r.is_idle_at(cycle) {
            r.step(cycle);
            stepped.push(cycle);
        }
    }
    // Cycle 0 (the schedule changed), onset 5, detection 6, end 8.
    assert_eq!(stepped, [0, 5, 6, 8]);
    r.inject_fault(FaultSite::RcPrimary { port: PortId(0) }, 30);
    assert!(!r.is_idle_at(20), "a schedule change is stepped at once");
    r.step(20);
    assert!(
        r.is_idle_at(29) && !r.is_idle_at(30) && !r.is_idle(),
        "{r:?}"
    );
}

/// Oversized configurations come back as a clean `Err` from
/// [`Router::try_new`] — the VC state words are `u32`s, so more
/// than 32 VCs (or ports) per router cannot be represented. The limit
/// is enforced once at construction, not by asserts on the hot path.
#[test]
fn oversized_vc_count_is_a_construction_error_not_a_panic() {
    use noc_faults::DetectionModel;
    use shield_router::RoutingAlgorithm;

    let build = |cfg: RouterConfig| {
        Router::try_new(
            0,
            HERE,
            cfg,
            RouterKind::Protected,
            RoutingAlgorithm::topo(std::sync::Arc::new(noc_topology::Topology::mesh(8, 8))),
            DetectionModel::Ideal,
        )
    };

    let mut cfg = RouterConfig::paper();
    cfg.vcs = 33;
    let err = build(cfg).expect_err("33 VCs must be rejected");
    assert!(err.contains("32"), "error names the limit: {err}");

    let mut cfg = RouterConfig::paper();
    cfg.ports = 40;
    assert!(build(cfg).is_err(), "40 ports must be rejected");

    // 8 VCs on a 5-port router overflows the 32-line VA2 request word.
    let mut cfg = RouterConfig::paper();
    cfg.vcs = 8;
    let err = build(cfg).expect_err("5 ports * 8 VCs must be rejected");
    assert!(err.contains("32"), "error names the word width: {err}");

    // The boundary itself is fine: the widest 5-port router (6 VCs,
    // 30 allocator lines) constructs and its top VC flows through.
    let mut cfg = RouterConfig::paper();
    cfg.vcs = 6;
    let mut r = build(cfg).expect("6 VCs is the 5-port maximum");
    r.receive_flit(
        Direction::Local.port(),
        VcId(5),
        packet(1, PacketKind::Control, EAST_DST).remove(0),
    );
    let mut departed = false;
    for cycle in 0..8 {
        departed |= !r.step(cycle).departures.is_empty();
    }
    assert!(departed, "top VC of a 6-VC port flows through the pipeline");

    // Credit counters and buffer ring indices are bytes: 255 flits is
    // the deepest buffer, and 256 would start every output at 0 credits.
    let mut cfg = RouterConfig::paper();
    cfg.buffer_depth = 255;
    let r = build(cfg).expect("depth 255 fits the u8 credit counters");
    assert_eq!(r.credit(Direction::East.port(), VcId(3)), 255);
    assert_eq!(r.vc(Direction::West.port(), VcId(3)).depth(), 255);
    cfg.buffer_depth = 256;
    let err = build(cfg).expect_err("depth 256 must be rejected");
    assert!(err.contains("u8"), "error names the credit counters: {err}");
}

#[test]
#[should_panic(expected = "fault site RC[P200] outside a 5-port 4-VC router")]
fn injecting_a_site_the_router_lacks_panics_at_injection_time() {
    let mut r = router(RouterKind::Protected);
    // Scheduled far in the future: refused now, not at cycle 1,000,000.
    r.inject_fault(FaultSite::RcPrimary { port: PortId(200) }, 1_000_000);
}

#[test]
#[should_panic(expected = "fault site VA1[P2.VC9] outside a 5-port 4-VC router")]
fn scheduling_a_transient_on_a_site_the_router_lacks_panics() {
    let mut r = router(RouterKind::Protected);
    r.inject_transient(
        FaultSite::Va1ArbiterSet {
            port: PortId(2),
            vc: VcId(9),
        },
        600,
        50,
    );
}
