//! The network's per-cycle hot path must be allocation-free in steady
//! state — at every shard count of the one stepper, including its
//! shard profile and the deliveries as they flow: each is counted into
//! the network's tally and handed on, as the run loop does, to a stream
//! that keeps nothing. All scratch (shard buffers, worklists, the
//! profile ring, the pool's job slot, the pending deliveries) is
//! preallocated and reused, and a network that has been cloned keeps
//! stepping allocation-free. A run's heap does not grow with its
//! length either: the high-water mark of a long run is within a few KB
//! of a run a tenth as long.
//!
//! Same shape as the router-level check in `crates/core/tests/no_alloc.rs`:
//! meter the heap (`noc-alloc-meter`), warm the network up under
//! sustained traffic, then assert further cycles — a window crossing
//! the first close of a profiling interval — perform zero heap
//! allocations. The meter counts process-wide, so worker-thread
//! allocations are caught too.
//!
//! The heap a built network holds, per node, is bounded as well.

use noc_alloc_meter::measure;
use noc_faults::FaultPlan;
use noc_sim::{Network, NullStream, Simulator};
use noc_types::{
    Coord, LinkClass, NetworkConfig, Packet, PacketId, PacketKind, PortId, SimConfig, TopologySpec,
    VcId,
};
use shield_router::RouterKind;

fn main() {
    steady_state_network_step_allocates_nothing();
    println!("test steady_state_network_step_allocates_nothing ... ok");
    a_built_chiplet_network_holds_a_bounded_heap_per_node();
    println!("test a_built_chiplet_network_holds_a_bounded_heap_per_node ... ok");
}

/// Tiny splitmix-style generator, inline so the traffic source provably
/// touches no allocator itself.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Uniform-random traffic at ~2% per node per cycle, appended into a
/// caller-owned buffer (`Packet` is a plain value; no per-packet heap).
fn tick(rng: &mut Rng, k: u8, cycle: u64, next_id: &mut u64, out: &mut Vec<Packet>) {
    for y in 0..k {
        for x in 0..k {
            if rng.below(100) < 2 {
                let src = Coord::new(x, y);
                let dst = loop {
                    let d = Coord::new(rng.below(k as u64) as u8, rng.below(k as u64) as u8);
                    if d != src {
                        break d;
                    }
                };
                *next_id += 1;
                let kind = if (*next_id).is_multiple_of(3) {
                    PacketKind::Data
                } else {
                    PacketKind::Control
                };
                out.push(Packet::new(PacketId(*next_id), kind, src, dst, cycle));
            }
        }
    }
}

fn steady_state_network_step_allocates_nothing() {
    // One shard (the default, and the path of four of the five
    // benchmark workloads) covers the SoA router stepper, the wheel
    // turn of phase A and the inline broadcast; it keeps no shard
    // profile. The multi-shard legs cover the shard wheels read across
    // shards, the worker-pool broadcast and the profile ring: the
    // measured window below (cycles 600–1100) crosses the interval
    // close at 1024. The chiplet leg is the configuration the
    // two-thread benchmark runs: the cut on the die seam, so every
    // cross-shard wire rides a d2d link (latency 4, half width), whose
    // pacing grows the wheels past their base length.
    let chiplet = TopologySpec::ChipletMesh {
        k_chip: 2,
        k_node: 4,
        d2d: LinkClass::D2D_DEFAULT,
    };
    for (label, topology, threads) in [
        ("1 shard", TopologySpec::MeshK, 1usize),
        ("2 shards", TopologySpec::MeshK, 2),
        ("4 shards", TopologySpec::MeshK, 4),
        ("chipletmesh, 2 shards", chiplet, 2),
    ] {
        let k = 8u8;
        const WARMUP: u64 = 600;
        let mut cfg = NetworkConfig::paper();
        cfg.mesh_k = k;
        cfg.topology = topology;
        let mut net = Network::new(cfg, RouterKind::Protected);
        net.set_threads(threads);

        let mut rng = Rng(0xA110C);
        let mut next_id = 0u64;
        let mut packets: Vec<Packet> = Vec::new();

        // Warm-up: NI queues, shard scratch, worklists and the pool all
        // grow to steady capacity. Half-way, the network is forked as a
        // campaign forks one at a fault onset, and the clone is kept
        // alive: the network it was taken from must keep stepping
        // allocation-free. (The clone shares the original's worker
        // pool, so the fork starts no thread.)
        let mut fork = None;
        let mut spool = NullStream;
        for cycle in 0..WARMUP {
            if cycle == WARMUP / 2 {
                fork = Some(net.clone());
            }
            tick(&mut rng, k, cycle, &mut next_id, &mut packets);
            net.offer_packets_from(&mut packets);
            net.step(cycle);
            net.hand_on_deliveries(&mut spool).unwrap();
        }

        let delivered_before = net.tally().seen();
        let ((), heap) = measure(|| {
            for cycle in WARMUP..WARMUP + 500 {
                tick(&mut rng, k, cycle, &mut next_id, &mut packets);
                net.offer_packets_from(&mut packets);
                net.step(cycle);
                net.hand_on_deliveries(&mut spool).unwrap();
            }
        });
        let fork = fork.expect("forked during the warm-up");
        assert_eq!(fork.cycle(), WARMUP / 2, "{label}: the fork did not move");
        drop(fork);

        assert!(
            net.tally().seen() > delivered_before,
            "{label}: traffic must actually flow end to end"
        );
        assert!(
            net.pending_deliveries().is_empty(),
            "{label}: all handed on"
        );
        assert_eq!(
            heap.allocations,
            0,
            "{label}: steady-state network step performed heap allocations (sizes: {:?})",
            heap.sizes()
        );

        // The zero-allocation window above must have exercised the
        // spatial counter plane (plain u64 bumps on the routers) and,
        // on the multi-shard legs, the close of a shard-profile
        // interval (a swap into the preallocated ring) — prove both
        // actually ran rather than vacuously not allocating.
        let grid = net.spatial_grid();
        assert!(
            grid.metric("occ_integral").unwrap().iter().sum::<u64>() > 0,
            "{label}: occupancy-integral counters must tick under load"
        );
        assert_eq!(
            net.shard_profile().len(),
            usize::from(threads > 1),
            "{label}: exactly a multi-shard stepper closes the interval \
             ending at cycle 1024"
        );
    }

    // A fork copies each router's flit store in one allocation, so what
    // cloning a network costs does not grow with how full its buffers
    // are: count it on an empty 8×8 mesh and on the same mesh under
    // saturating load, for the whole network and router by router.
    let k = 8u8;
    let mut cfg = NetworkConfig::paper();
    cfg.mesh_k = k;
    let routers = u64::from(k) * u64::from(k);
    let mut net = Network::new(cfg, RouterKind::Protected);
    fn clone_allocations<T: Clone>(x: &T) -> u64 {
        let (copy, heap) = measure(|| x.clone());
        drop(copy);
        heap.allocations
    }
    let per_router = |net: &Network| {
        (0..net.mesh().len())
            .map(|id| clone_allocations(net.router(id)))
            .collect::<Vec<_>>()
    };
    let empty = clone_allocations(&net);
    let empty_routers = per_router(&net);
    let (mut rng, mut next_id, mut packets) = (Rng(0xF0_4C), 0u64, Vec::new());
    for cycle in 0..400 {
        for _ in 0..10 {
            tick(&mut rng, k, cycle, &mut next_id, &mut packets);
        }
        net.offer_packets_from(&mut packets);
        net.step(cycle);
    }
    let loaded = clone_allocations(&net);
    let loaded_routers = per_router(&net);
    // About 16 per router empty (its fixed-size tables, its NI, its
    // wiring); a per-VC queue would add up to 20 more per full router.
    for (what, n) in [("empty", empty), ("loaded", loaded)] {
        assert!(
            n <= 24 * routers,
            "cloning the {what} 8x8 mesh took {n} allocations"
        );
    }
    // Router by router, load adds at most the crossbar grant queue's
    // one allocation; a per-VC queue would add one per non-empty VC.
    let nonempty_vcs = |id: usize| {
        let r = net.router(id);
        PortId::all(cfg.router.ports)
            .flat_map(|p| (0..cfg.router.vcs as u8).map(move |v| (p, VcId(v))))
            .filter(|&(p, v)| !r.vc(p, v).is_empty())
            .count()
    };
    for (id, (&e, &l)) in empty_routers.iter().zip(&loaded_routers).enumerate() {
        assert!(
            l <= e + 1,
            "router {id} with {} non-empty VCs: clone took {l} allocations, {e} empty",
            nonempty_vcs(id)
        );
    }
    let busy = (0..net.mesh().len())
        .filter(|&id| nonempty_vcs(id) >= 2)
        .count();
    assert!(
        busy as u64 > routers / 4,
        "the load must fill the buffers: {busy} routers with two or more non-empty VCs"
    );

    // A run's heap does not grow with its length: the high-water mark
    // of a 200 k-cycle run of the light-load traffic above is within a
    // few KB of a 20 k-cycle run's. (A delivery log would add ~40 bytes
    // a delivery: ~10 MB here.)
    let high_water = |cycles: u64| {
        let phases = SimConfig {
            warmup_cycles: 0,
            measure_cycles: cycles,
            drain_cycles: 0,
            seed: 0,
        };
        let sim = Simulator::new(cfg, phases, RouterKind::Protected, FaultPlan::none());
        let (mut rng, mut next_id) = (Rng(0x11647), 0u64);
        let ((report, _), heap) =
            measure(|| sim.run_with(|cycle, out| tick(&mut rng, k, cycle, &mut next_id, out)));
        assert!(
            report.delivered > cycles,
            "traffic flows: {}",
            report.delivered
        );
        heap.peak_bytes
    };
    let short = high_water(20_000);
    let long = high_water(200_000);
    assert!(
        long < short + 8 * 1024,
        "the heap's high-water mark grew with run length: {short} B at 20 k cycles, \
         {long} B at 200 k"
    );
}

fn a_built_chiplet_network_holds_a_bounded_heap_per_node() {
    // The 1,024-router network of the two-thread benchmark, built as
    // `noc-cli simulate --topology chipletmesh4x8:4:2` builds it. Most
    // of a node is its router's input buffers (P·V·depth = 80 flits),
    // its VA arbiter pointers and its NI.
    let mut cfg = NetworkConfig::paper();
    cfg.topology = TopologySpec::parse_arg("chipletmesh4x8:4:2", cfg.mesh_k).unwrap();
    cfg.validate().unwrap();
    let (net, heap) = measure(|| Network::new(cfg, RouterKind::Protected));
    let held = heap.held_bytes;
    let nodes = net.mesh().len() as u64;
    assert_eq!(nodes, 1024);
    let per_node = held / nodes;
    // 4,635 B measured, rounded up to 256 B. With 40-byte flits, an NI
    // holding a flit buffer per VC and 8-byte VA arbiters it was
    // 7,131 B.
    assert!(
        per_node <= 4_864,
        "a built chipletmesh4x8:4:2 network holds {per_node} B of heap a node \
         ({held} B for {nodes} nodes)"
    );
}
