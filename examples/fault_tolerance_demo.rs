//! Fault-tolerance walk-through: inject one permanent fault into every
//! pipeline stage of a single router (the paper's headline scenario,
//! Section IV) and watch the correction mechanisms keep packets moving —
//! then repeat on the unprotected baseline and watch it fail.
//!
//! ```sh
//! cargo run --release --example fault_tolerance_demo
//! ```

use shield_noc::faults::FaultSite;
use shield_noc::router::{Router, RouterKind};
use shield_noc::types::{Coord, Direction, Mesh, Packet, PacketId, PacketKind, RouterConfig, VcId};

const HERE: Coord = Coord::new(3, 3);

/// Feed one 5-flit data packet into the local port and drive the router
/// until it drains (credits recycled instantly). Returns (delivered,
/// dropped) flit counts.
fn drive_one_packet(router: &mut Router) -> (usize, usize) {
    let packet = Packet::new(
        PacketId(1),
        PacketKind::Data,
        HERE,
        Coord::new(6, 3), // east
        0,
    );
    let mut pending: Vec<_> = packet.segment().into_iter().rev().collect();
    let mut delivered = 0;
    let mut dropped = 0;
    for cycle in 0..60 {
        if let Some(flit) = pending.pop() {
            if router.vc(Direction::Local.port(), VcId(0)).is_full() {
                pending.push(flit);
            } else {
                router.receive_flit(Direction::Local.port(), VcId(0), flit);
            }
        }
        let out = router.step(cycle);
        dropped += out.dropped.len();
        for d in out.departures {
            assert_eq!(d.out_port, Direction::East.port(), "XY routing: eastwards");
            router.receive_credit(d.out_port, d.out_vc);
            delivered += 1;
        }
    }
    (delivered, dropped)
}

fn the_four_faults() -> [FaultSite; 4] {
    [
        // RC: the local port's primary routing unit dies.
        FaultSite::RcPrimary {
            port: Direction::Local.port(),
        },
        // VA: the local port's VC0 loses its whole arbiter set.
        FaultSite::Va1ArbiterSet {
            port: Direction::Local.port(),
            vc: VcId(0),
        },
        // SA: the local port's switch arbiter dies.
        FaultSite::Sa1Arbiter {
            port: Direction::Local.port(),
        },
        // XB: the east output multiplexer dies.
        FaultSite::XbMux {
            out_port: Direction::East.port(),
        },
    ]
}

fn main() {
    println!("=== protected router: one permanent fault in every pipeline stage ===");
    let mut protected = Router::new_xy(
        0,
        HERE,
        Mesh::new(8),
        RouterConfig::paper(),
        RouterKind::Protected,
    );
    for f in the_four_faults() {
        println!("  injecting {f}");
        protected.inject_fault(f, 0);
    }
    assert!(
        !protected.is_failed(),
        "four faults, one per stage: tolerated"
    );
    let (delivered, dropped) = drive_one_packet(&mut protected);
    let s = protected.stats();
    println!("  delivered {delivered}/5 flits, dropped {dropped}");
    println!("  mechanisms engaged:");
    println!("    duplicate RC computations : {}", s.rc_duplicate_uses);
    println!("    VA arbiter borrows        : {}", s.va_borrows);
    println!("    SA bypass grants          : {}", s.sa_bypass_grants);
    println!("    crossbar secondary flits  : {}", s.secondary_path_flits);
    assert_eq!((delivered, dropped), (5, 0));

    println!("\n=== baseline router: the same four faults ===");
    let mut baseline = Router::new_xy(
        0,
        HERE,
        Mesh::new(8),
        RouterConfig::paper(),
        RouterKind::Baseline,
    );
    for f in the_four_faults() {
        baseline.inject_fault(f, 0);
    }
    let (delivered, dropped) = drive_one_packet(&mut baseline);
    let stuck = baseline.buffered_flits();
    println!("  delivered {delivered}/5 flits, dropped {dropped}, stuck in buffers {stuck}");
    println!("  (misroutes: {})", baseline.stats().rc_misroutes);
    assert!(delivered < 5, "the unprotected router cannot cope");

    println!("\nThe protected router tolerates all four faults (the paper's Section IV claim);");
    println!("the baseline router blocks, drops or misroutes the same traffic.");
}
