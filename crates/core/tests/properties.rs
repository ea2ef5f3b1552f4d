//! Property-based tests: the paper's headline tolerance claim, checked
//! against randomised traffic and fault placements.
//!
//! Section IV: “Assuming that each individual pipeline stage is affected
//! by only one permanent fault, the protected router pipeline will be
//! able to tolerate four permanent faults.” We generate seeded-random
//! traffic and one-fault-per-stage placements and assert full, in-order,
//! loss-free delivery.

use noc_faults::FaultSite;
use noc_types::rng::Rng;
use noc_types::{
    Coord, Direction, Flit, Mesh, Packet, PacketId, PacketKind, PortId, RouterConfig, VcId,
};
use shield_router::{Router, RouterKind};
use std::collections::{HashMap, VecDeque};

const HERE: Coord = Coord::new(3, 3);

/// Credit-respecting upstream + ideally-responsive downstream.
fn drive(
    router: &mut Router,
    arrivals: Vec<(u64, PortId, VcId, Flit)>,
    cycles: u64,
) -> (Vec<(u64, noc_types::PortId, Flit)>, Vec<Flit>, usize) {
    let depth = router.config().buffer_depth as u32;
    let mut queues: HashMap<(PortId, VcId), VecDeque<(u64, Flit)>> = HashMap::new();
    for (t, port, vc, flit) in arrivals {
        queues.entry((port, vc)).or_default().push_back((t, flit));
    }
    let mut upstream: HashMap<(PortId, VcId), u32> = HashMap::new();
    let mut delivered = Vec::new();
    let mut dropped = Vec::new();
    for cycle in 0..cycles {
        let mut keys: Vec<_> = queues.keys().copied().collect();
        keys.sort();
        for key in keys {
            let q = queues.get_mut(&key).unwrap();
            let credits = upstream.entry(key).or_insert(depth);
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
            *upstream.entry((c.in_port, c.vc)).or_insert(depth) += 1;
        }
        for d in out.departures {
            router.receive_credit(d.out_port, d.out_vc);
            delivered.push((cycle, d.out_port, d.flit));
        }
        dropped.extend(out.dropped);
    }
    let leftover = queues.values().map(|q| q.len()).sum();
    (delivered, dropped, leftover)
}

#[derive(Debug, Clone)]
struct GenPacket {
    port: u8, // 0..5 input port
    vc: u8,   // 0..4
    data: bool,
    dst_ix: u8, // index into destination pool
    at: u64,
}

fn gen_packet(rng: &mut Rng) -> GenPacket {
    GenPacket {
        port: rng.below(5) as u8,
        vc: rng.below(4) as u8,
        data: rng.next_u64() & 1 == 1,
        dst_ix: rng.below(5) as u8,
        at: rng.below(40),
    }
}

/// Destinations chosen so XY routing leaves HERE in every direction,
/// including local delivery.
const DSTS: [Coord; 5] = [
    Coord::new(3, 1), // north
    Coord::new(6, 3), // east
    Coord::new(3, 6), // south
    Coord::new(0, 3), // west
    Coord::new(3, 3), // local
];

/// One optional fault per stage, as the paper's tolerance premise allows.
#[derive(Debug, Clone)]
struct StageFaults {
    rc_port: Option<u8>,
    va1: Option<(u8, u8)>,
    sa1_port: Option<u8>,
    xb_out: Option<u8>,
}

fn gen_faults(rng: &mut Rng) -> StageFaults {
    let opt =
        |rng: &mut Rng| -> Option<u8> { (rng.next_u64() & 1 == 1).then(|| rng.below(5) as u8) };
    StageFaults {
        rc_port: opt(rng),
        va1: (rng.next_u64() & 1 == 1).then(|| (rng.below(5) as u8, rng.below(4) as u8)),
        sa1_port: opt(rng),
        xb_out: opt(rng),
    }
}

fn apply_faults(r: &mut Router, f: &StageFaults) {
    if let Some(p) = f.rc_port {
        r.inject_fault(FaultSite::RcPrimary { port: PortId(p) }, 0);
    }
    if let Some((p, v)) = f.va1 {
        r.inject_fault(
            FaultSite::Va1ArbiterSet {
                port: PortId(p),
                vc: VcId(v),
            },
            0,
        );
    }
    if let Some(p) = f.sa1_port {
        r.inject_fault(FaultSite::Sa1Arbiter { port: PortId(p) }, 0);
    }
    if let Some(o) = f.xb_out {
        r.inject_fault(
            FaultSite::XbMux {
                out_port: PortId(o),
            },
            0,
        );
    }
}

/// Full, loss-free, in-order delivery with ≤1 fault per stage under
/// arbitrary traffic — the paper's tolerance claim.
#[test]
fn protected_router_delivers_everything_with_one_fault_per_stage() {
    for case in 0u64..64 {
        let mut rng = Rng::seeded(0x9607_EC7E_D000 ^ case);
        let packets: Vec<GenPacket> = (0..1 + rng.index(23))
            .map(|_| gen_packet(&mut rng))
            .collect();
        let faults = gen_faults(&mut rng);

        let mut r = Router::new_xy(
            0,
            HERE,
            Mesh::new(8),
            RouterConfig::paper(),
            RouterKind::Protected,
        );
        apply_faults(&mut r, &faults);
        assert!(!r.is_failed());

        let mut arrivals = Vec::new();
        let mut expected: HashMap<PacketId, (usize, Direction)> = HashMap::new();
        for (i, g) in packets.iter().enumerate() {
            let id = PacketId(i as u64);
            let kind = if g.data {
                PacketKind::Data
            } else {
                PacketKind::Control
            };
            let dst = DSTS[g.dst_ix as usize];
            let dir = Mesh::new(8).xy_route(HERE, dst);
            // A packet cannot depart through the port it arrived on
            // (u-turns are illegal in XY routing); remap those cases to
            // local delivery.
            let (dst, dir) = if dir.port() == PortId(g.port) {
                (HERE, Direction::Local)
            } else {
                (dst, dir)
            };
            expected.insert(id, (kind.flits(), dir));
            for f in Packet::new(id, kind, HERE, dst, g.at).segment() {
                arrivals.push((g.at, PortId(g.port), VcId(g.vc), f));
            }
        }
        let total: usize = expected.values().map(|(n, _)| n).sum();

        let (delivered, dropped, leftover) = drive(&mut r, arrivals, 4_000);
        assert!(dropped.is_empty(), "protected router never drops");
        assert_eq!(leftover, 0, "upstream fully drained");
        assert_eq!(delivered.len(), total, "all flits delivered (case {case})");

        // Per-packet: right output port, sequence strictly ordered.
        let mut seen: HashMap<PacketId, u8> = HashMap::new();
        for (_, out_port, flit) in &delivered {
            let (_, dir) = expected[&flit.packet];
            assert_eq!(*out_port, dir.port(), "flit left on the XY port");
            let next = seen.entry(flit.packet).or_insert(0);
            assert_eq!(flit.seq.0, *next, "in-order within the packet");
            *next += 1;
        }
        assert_eq!(r.buffered_flits(), 0, "router drained");
    }
}

/// The baseline router under the same faults loses or blocks traffic
/// whenever a fault lies on an exercised path — and never *creates*
/// flits.
#[test]
fn baseline_router_never_creates_flits_under_faults() {
    for case in 0u64..64 {
        let mut rng = Rng::seeded(0xBA5E_11E0_0000 ^ case);
        let packets: Vec<GenPacket> = (0..1 + rng.index(15))
            .map(|_| gen_packet(&mut rng))
            .collect();
        let faults = gen_faults(&mut rng);

        let mut r = Router::new_xy(
            0,
            HERE,
            Mesh::new(8),
            RouterConfig::paper(),
            RouterKind::Baseline,
        );
        apply_faults(&mut r, &faults);
        let mut arrivals = Vec::new();
        let mut total = 0usize;
        for (i, g) in packets.iter().enumerate() {
            let id = PacketId(i as u64);
            let kind = if g.data {
                PacketKind::Data
            } else {
                PacketKind::Control
            };
            let dst = DSTS[g.dst_ix as usize];
            total += kind.flits();
            for f in Packet::new(id, kind, HERE, dst, g.at).segment() {
                arrivals.push((g.at, PortId(g.port), VcId(g.vc), f));
            }
        }
        let (delivered, dropped, leftover) = drive(&mut r, arrivals, 2_000);
        let buffered = r.buffered_flits();
        assert_eq!(
            delivered.len() + dropped.len() + buffered + leftover,
            total,
            "conservation: delivered + dropped + stuck + never-injected = injected (case {case})"
        );
    }
}
