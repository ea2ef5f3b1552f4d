//! Application traffic is allocation-free in steady state: a request's
//! home node is drawn from a near-node list built with the generator,
//! and a released response leaves one FIFO that a later request refills.
//! The counter is per thread, so the test harness's own threads cannot
//! land in the measured window.

use noc_traffic::{AppId, TrafficConfig, TrafficGenerator};
use noc_types::{Mesh, Packet};
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

#[test]
fn steady_state_app_traffic_allocates_nothing() {
    // x264 is the benchmark's faulty-run application; canneal has the
    // highest request rate and the lowest locality.
    for app in [AppId::X264, AppId::Canneal] {
        let mut g = TrafficGenerator::new(TrafficConfig::app(app), Mesh::new(8), 7);
        let mut out: Vec<Packet> = Vec::new();
        let mut tick = |cycle| {
            out.clear();
            g.tick_into(cycle, &mut out);
            out.len()
        };
        // Warm-up: the response FIFO and the caller's buffer grow to
        // their steady capacity.
        for cycle in 0..2_000 {
            tick(cycle);
        }
        let before = ALLOCATIONS.with(Cell::get);
        let packets: usize = (2_000..4_000).map(&mut tick).sum();
        let after = ALLOCATIONS.with(Cell::get);
        assert!(packets > 1_000, "{app}: traffic must flow ({packets})");
        assert_eq!(after - before, 0, "{app}: steady-state tick allocated");
        assert!(g.responses_issued > 0, "{app}: responses were released");
    }
}
