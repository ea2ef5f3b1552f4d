//! Kernel probes: the cost of one call into the innermost layers
//! (arbiter, router pipeline, topology), outside any network. They cost
//! the same on every workload; what differs between workloads is how
//! often the simulation calls them, which `sim.routers_stepped` and
//! `core.mech_events_per_kcycle` tell.

use crate::{timed, Traced};
use noc_arbiter::{Arbiter, ArbiterKind, RequestMatrix, RoundRobinArbiter, SeparableAllocator};
use noc_faults::FaultSite;
use noc_ledger::spans::Recorder;
use noc_ledger::stats::median;
use noc_topology::Topology;
use noc_types::{
    Coord, Direction, Mesh, NetworkConfig, Packet, PacketId, PacketKind, RouterConfig, VcId,
};
use shield_router::{Router, RouterKind, StepOutput};
use std::hint::black_box;

/// Median over `batches` batches of `f`'s wall time divided by `calls`,
/// the number of kernel calls `f` makes. Nanoseconds a call.
fn ns_per_call(batches: usize, calls: u64, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..batches)
        .map(|_| timed(&mut f).1 as f64 / calls as f64)
        .collect();
    median(&samples)
}

fn arbiters(out: &mut Traced) {
    const CALLS: u64 = 200_000;
    // Request masks from a linear congruential generator: five request
    // lines, never all idle, so the arbiter always has a grant to find.
    let mut arb = RoundRobinArbiter::new(5);
    let mut lcg = 0x2545_F491_4F6C_DD1Du64;
    out.set(
        "arbiter.rr_arbitrate_ns",
        ns_per_call(9, CALLS, || {
            for _ in 0..CALLS {
                lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let mask = ((lcg >> 40) as u32 & 0x1f) | 1;
                black_box(arb.arbitrate(black_box(mask)));
            }
        }),
    );

    // The VC-allocation shape: 20 requestors x 20 resources, two in
    // three cells requesting.
    let mut alloc = SeparableAllocator::new(20, 20, ArbiterKind::RoundRobin);
    let mut requests = RequestMatrix::new(20, 20);
    for r in 0..20 {
        for c in 0..20 {
            if (r + c) % 3 != 0 {
                requests.request(r, c);
            }
        }
    }
    const ALLOCATIONS: u64 = 20_000;
    out.set(
        "arbiter.separable_allocate_ns",
        ns_per_call(9, ALLOCATIONS, || {
            for _ in 0..ALLOCATIONS {
                black_box(alloc.allocate(black_box(&requests)));
            }
        }),
    );
}

/// Step a lone protected router at (3,3) of an 8x8 mesh for `cycles`
/// under sustained traffic on all five ports, credits returned at once.
fn drive_router(r: &mut Router, cycles: u64) -> u64 {
    let here = Coord::new(3, 3);
    let mesh = Mesh::new(8);
    let dsts = [
        Coord::new(3, 1),
        Coord::new(6, 3),
        Coord::new(3, 6),
        Coord::new(0, 3),
        here,
    ];
    let mut sent = 0;
    let mut id = 0u64;
    let mut occupancy = [[0u32; 4]; 5];
    let mut out = StepOutput::default();
    for cycle in 0..cycles {
        for (p, dir) in Direction::ALL.iter().enumerate() {
            let vc = VcId((cycle % 4) as u8);
            if occupancy[p][vc.index()] < 4 {
                id += 1;
                // A flit never leaves through the port it came in by.
                let dst = dsts[(id as usize + p) % dsts.len()];
                let dst = if mesh.xy_route(here, dst).port() == dir.port() {
                    here
                } else {
                    dst
                };
                let flit = Packet::new(PacketId(id), PacketKind::Control, here, dst, cycle)
                    .segment()
                    .remove(0);
                r.receive_flit(dir.port(), vc, flit);
                occupancy[p][vc.index()] += 1;
            }
        }
        r.step_into(cycle, &mut out);
        sent += out.departures.len() as u64;
        for c in out.credits.drain(..) {
            occupancy[c.in_port.index()][c.vc.index()] -= 1;
        }
        for d in out.departures.drain(..) {
            r.receive_credit(d.out_port, d.out_vc);
        }
    }
    sent
}

fn router_steps(out: &mut Traced) {
    const CYCLES: u64 = 5_000;
    // One fault per pipeline stage, each of which the protected router
    // corrects: duplicate RC unit, borrowed VA arbiter, SA bypass,
    // secondary crossbar path.
    let one_per_stage = [
        FaultSite::RcPrimary {
            port: Direction::Local.port(),
        },
        FaultSite::Va1ArbiterSet {
            port: Direction::Local.port(),
            vc: VcId(0),
        },
        FaultSite::Sa1Arbiter {
            port: Direction::West.port(),
        },
        FaultSite::XbMux {
            out_port: Direction::East.port(),
        },
    ];
    for (name, faults) in [
        ("core.router_step_ns_healthy", &[][..]),
        ("core.router_step_ns_faulted", &one_per_stage[..]),
    ] {
        let ns = ns_per_call(7, CYCLES, || {
            let mut r = Router::new_xy(
                0,
                Coord::new(3, 3),
                Mesh::new(8),
                RouterConfig::paper(),
                RouterKind::Protected,
            );
            for &site in faults {
                r.inject_fault(site, 0);
            }
            assert!(
                black_box(drive_router(&mut r, CYCLES)) > 0,
                "router moved no flit"
            );
        });
        out.set(name, ns);
    }
}

fn topology(net: &NetworkConfig, out: &mut Traced, rec: &mut Recorder) {
    let builds: Vec<f64> = (0..7)
        .map(|_| {
            let span = rec.enter("topology.build");
            let (topo, ns) = timed(|| Topology::from_spec(net));
            rec.exit(span);
            black_box(&topo);
            ns as f64 / 1e3
        })
        .collect();
    out.set("topology.build_us", median(&builds));

    let topo = Topology::from_spec(net);
    let n = topo.len();
    // Every (node, destination) pair; repeated on small graphs so that
    // one batch is long enough to time.
    let passes = (200_000 / (n * n)).max(1);
    let ns = ns_per_call(5, (passes * n * n) as u64, || {
        for _ in 0..passes {
            for node in 0..n {
                for dst in 0..n {
                    black_box(topo.route(black_box(node), dst));
                }
            }
        }
    });
    out.set("topology.route_ns", ns);
}

/// Run every kernel probe; `net` is the workload's network, whose
/// topology is the one built and routed over.
pub fn probe(net: &NetworkConfig, out: &mut Traced, rec: &mut Recorder) {
    rec.span("kernels", |rec| {
        rec.span("arbiter.kernels", |_| arbiters(out));
        rec.span("core.router_step", |_| router_steps(out));
        topology(net, out, rec);
    });
}
