//! White-box checks of the paper's added state fields (Figure 4): the
//! `SP`/`FSP` secondary-path steering fields must hold the documented
//! values while a packet negotiates the pipeline, and clear afterwards.

use noc_faults::FaultSite;
use noc_types::{
    Coord, Direction, Mesh, Packet, PacketId, PacketKind, PortId, RouterConfig, VcGlobalState, VcId,
};
use shield_router::{Router, RouterKind};

const HERE: Coord = Coord::new(3, 3);
const EAST_DST: Coord = Coord::new(5, 3);

fn router_with(fault: Option<FaultSite>) -> Router {
    let mut r = Router::new_xy(
        0,
        HERE,
        Mesh::new(8),
        RouterConfig::paper(),
        RouterKind::Protected,
    );
    if let Some(f) = fault {
        r.inject_fault(f, 0);
    }
    r
}

fn send_east(r: &mut Router) {
    let f = Packet::new(PacketId(1), PacketKind::Control, HERE, EAST_DST, 0)
        .segment()
        .remove(0);
    r.receive_flit(Direction::Local.port(), VcId(0), f);
}

#[test]
fn fsp_and_sp_steer_the_secondary_path() {
    let mut r = router_with(Some(FaultSite::XbMux {
        out_port: Direction::East.port(),
    }));
    send_east(&mut r);
    // Cycle 0: RC. The RC stage pre-computes the secondary-path hint.
    r.step(0);
    let fields = r.vc(Direction::Local.port(), VcId(0)).fields;
    assert_eq!(fields.g, VcGlobalState::VcAlloc);
    assert_eq!(fields.r, Some(Direction::East.port()), "R = logical output");
    assert!(fields.fsp, "FSP raised when the primary path is dead");
    // East is port 2; its secondary source is mux 1 (North).
    assert_eq!(fields.sp, Some(PortId(1)), "SP = port to arbitrate for");

    // The packet still reaches the East link.
    let mut departed = None;
    for cycle in 1..10 {
        for d in r.step(cycle).departures {
            departed = Some((cycle, d.out_port));
        }
    }
    let (_, out) = departed.expect("delivered");
    assert_eq!(out, Direction::East.port());
    // Fields reset once the tail departed.
    let fields = r.vc(Direction::Local.port(), VcId(0)).fields;
    assert_eq!(fields.g, VcGlobalState::Idle);
    assert_eq!(fields.sp, None);
    assert!(!fields.fsp);
}

#[test]
fn fsp_stays_clear_on_the_healthy_primary_path() {
    let mut r = router_with(None);
    send_east(&mut r);
    for cycle in 0..3 {
        r.step(cycle);
        let fields = r.vc(Direction::Local.port(), VcId(0)).fields;
        assert!(!fields.fsp, "no secondary path needed at cycle {cycle}");
        assert_eq!(fields.sp, None);
    }
}

#[test]
fn sp_updates_when_a_fault_manifests_after_routing() {
    // The fault manifests *after* RC ran: the SA stage must recompute
    // the steering fields from the live fault map.
    let mut r = router_with(None);
    r.inject_fault(
        FaultSite::XbMux {
            out_port: Direction::East.port(),
        },
        2, // after RC (cycle 0) and VA (cycle 1)
    );
    send_east(&mut r);
    r.step(0);
    assert!(!r.vc(Direction::Local.port(), VcId(0)).fields.fsp);
    r.step(1);
    r.step(2); // SA sees the detected fault and redirects
    let fields = r.vc(Direction::Local.port(), VcId(0)).fields;
    assert!(fields.fsp, "SA refreshed the steering fields");
    assert_eq!(fields.sp, Some(PortId(1)));
    let mut delivered = false;
    for cycle in 3..12 {
        for d in r.step(cycle).departures {
            assert_eq!(d.out_port, Direction::East.port());
            delivered = true;
        }
    }
    assert!(delivered);
}

#[test]
fn o_field_tracks_the_downstream_vc() {
    let mut r = router_with(None);
    send_east(&mut r);
    r.step(0); // RC
    assert_eq!(r.vc(Direction::Local.port(), VcId(0)).fields.o, None);
    r.step(1); // VA
    let fields = r.vc(Direction::Local.port(), VcId(0)).fields;
    assert_eq!(fields.g, VcGlobalState::Active);
    let ovc = fields.o.expect("O field holds the allocated downstream VC");
    assert!(r.out_vc_busy(Direction::East.port(), ovc));
}
