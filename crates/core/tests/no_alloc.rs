//! The per-cycle hot path must be allocation-free in steady state: all
//! scratch the pipeline needs is preallocated at construction and reused
//! (cleared, never reallocated) each cycle. This test wraps the global
//! allocator in a counter, warms a router up under sustained traffic
//! until every buffer has reached its steady capacity, then asserts that
//! further cycles perform zero heap allocations — and that a fresh
//! router needs no warm-up at all.
//!
//! The counter is per thread: the router steps on the test's own
//! thread, and the test harness's threads (its main thread keeps
//! allocating while a test runs) cannot land in the measured window.

use noc_faults::FaultSite;
use noc_types::{Coord, Direction, Flit, FlitKind, FlitSeq, Mesh, PacketId, RouterConfig, VcId};
use shield_router::{Router, RouterKind, StepOutput};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. A `const` cell without a
    /// destructor: touching it never allocates, so the allocator can.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread being torn down still frees and allocates.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations this thread has made so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const HERE: Coord = Coord::new(3, 3);

/// Single-flit packets towards each output; `Flit::new` itself is
/// allocation-free (empty shared payload), so the traffic source adds
/// nothing to the count.
fn flit(id: u64, dst: Coord) -> Flit {
    Flit::new(PacketId(id), FlitSeq(0), FlitKind::Single, HERE, dst, 0)
}

/// Drive `router` under sustained 5-port traffic over `cycles`, reusing
/// one `StepOutput` and recycling credits instantly. `occupancy` is the
/// upstream's credit view and must persist across calls. Returns flits
/// sent.
fn run(
    router: &mut Router,
    out: &mut StepOutput,
    cycles: std::ops::Range<u64>,
    id: &mut u64,
    occupancy: &mut [[u32; 4]; 5],
) -> u64 {
    let dsts = [
        Coord::new(3, 1),
        Coord::new(6, 3),
        Coord::new(3, 6),
        Coord::new(0, 3),
        Coord::new(3, 3),
    ];
    let mesh = Mesh::new(8);
    let mut sent = 0u64;
    for cycle in cycles {
        for (p, dir) in Direction::ALL.iter().enumerate() {
            let vc = VcId((cycle % 4) as u8);
            if occupancy[p][vc.index()] < 4 {
                *id += 1;
                let dst = dsts[(*id as usize + p) % dsts.len()];
                // Avoid u-turns: if XY routing sends the flit back out of
                // its own input port, eject it locally instead.
                let dst = if mesh.xy_route(HERE, dst).port() == dir.port() {
                    HERE
                } else {
                    dst
                };
                router.receive_flit(dir.port(), vc, flit(*id, dst));
                occupancy[p][vc.index()] += 1;
            }
        }
        router.step_into(cycle, out);
        sent += out.departures.len() as u64;
        for c in out.credits.drain(..) {
            occupancy[c.in_port.index()][c.vc.index()] -= 1;
        }
        for d in out.departures.drain(..) {
            router.receive_credit(d.out_port, d.out_vc);
        }
        out.dropped.clear();
    }
    sent
}

#[test]
fn steady_state_router_step_allocates_nothing() {
    let mux = FaultSite::XbMux {
        out_port: Direction::East.port(),
    };
    let west = Direction::West.port();
    for (label, kind, faults, transients) in [
        ("baseline healthy", RouterKind::Baseline, &[][..], &[][..]),
        ("protected healthy", RouterKind::Protected, &[][..], &[][..]),
        (
            // Secondary-path traffic exercises the XB fault machinery.
            "protected faulty mux",
            RouterKind::Protected,
            &[mux][..],
            &[][..],
        ),
        (
            // Every Shield mechanism at once: duplicate RC, a borrowed
            // VA arbiter set, the SA bypass, the secondary path.
            "protected, one fault per stage",
            RouterKind::Protected,
            &[
                FaultSite::RcPrimary {
                    port: Direction::Local.port(),
                },
                FaultSite::Va1ArbiterSet {
                    port: Direction::North.port(),
                    vc: VcId(1),
                },
                FaultSite::Sa1Arbiter { port: west },
                mux,
            ][..],
            &[][..],
        ),
        (
            // A transient that opens and closes inside the measured
            // window: the fault clock crosses two edges there.
            "protected, permanent fault + scheduled transient",
            RouterKind::Protected,
            &[mux][..],
            &[(FaultSite::Sa1Arbiter { port: west }, 600, 50)][..],
        ),
    ] {
        let mut r = Router::new_xy(0, HERE, Mesh::new(8), RouterConfig::paper(), kind);
        for &f in faults {
            r.inject_fault(f, 0);
        }
        for &(site, at, duration) in transients {
            r.inject_transient(site, at, duration);
        }
        let mut out = StepOutput::default();
        let mut id = 0u64;
        let mut occupancy = [[0u32; 4]; 5];

        // Warm-up: scratch vectors, the XB queue and `StepOutput` grow to
        // their steady capacity during the first cycles.
        run(&mut r, &mut out, 0..500, &mut id, &mut occupancy);

        let before = allocations();
        let sent = run(&mut r, &mut out, 500..1000, &mut id, &mut occupancy);
        let after = allocations();

        assert!(sent > 0, "{label}: traffic must actually flow");
        assert_eq!(
            after - before,
            0,
            "{label}: steady-state step performed heap allocations"
        );

        // No warm-up for the buffers: a router's flit store is allocated
        // whole when it is built, so a fresh router is allocation-free
        // from its first flit on. (`out`, whose scratch a network keeps
        // per shard, stays the warmed one.)
        let mut r = Router::new_xy(0, HERE, Mesh::new(8), RouterConfig::paper(), kind);
        for &f in faults {
            r.inject_fault(f, 0);
        }
        let mut occupancy = [[0u32; 4]; 5];
        let before = allocations();
        let sent = run(&mut r, &mut out, 0..300, &mut id, &mut occupancy);
        let after = allocations();
        assert!(sent > 0, "{label}: traffic must actually flow");
        assert_eq!(
            after - before,
            0,
            "{label}: a fresh router allocated after its first flit"
        );
    }
}
