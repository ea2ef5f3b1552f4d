//! Application traffic is allocation-free in steady state: a request's
//! home node is drawn from a near-node list built with the generator,
//! and a released response leaves one FIFO that a later request refills.
//! The heap is metered by `noc-alloc-meter`.

use noc_alloc_meter::measure;
use noc_traffic::{AppId, TrafficConfig, TrafficGenerator};
use noc_types::{Mesh, Packet};

fn main() {
    steady_state_app_traffic_allocates_nothing();
    println!("test steady_state_app_traffic_allocates_nothing ... ok");
}

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
        let (packets, heap) = measure(|| (2_000..4_000).map(&mut tick).sum::<usize>());
        assert!(packets > 1_000, "{app}: traffic must flow ({packets})");
        assert_eq!(
            heap.allocations,
            0,
            "{app}: steady-state tick allocated (sizes: {:?})",
            heap.sizes()
        );
        assert!(g.responses_issued > 0, "{app}: responses were released");
    }
}
