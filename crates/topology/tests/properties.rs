//! Property tests for the topology layer's routing guarantees: torus
//! dimension-order routes are minimal under the wrap-aware distance,
//! every family's channel-dependency graph is acyclic (the torus by its
//! dateline classes, the table-routed families by up*/down*, also
//! across a router kill), and up*/down* tables deliver every pair on
//! connected graphs. A mixed-path checker covers packets that switch
//! from the old tables to the new ones mid-route, and pins the two
//! router kills where that closes a cycle.

use noc_topology::{dor, Topology, VcClass};
use noc_types::rng::Rng;
use noc_types::{Coord, Direction, LinkClass, NetworkConfig, TopologySpec};
use std::collections::{HashMap, HashSet};

/// A buffer a hop lands in: (node, input port, VC class).
type Buffer = (usize, Direction, VcClass);

/// Walk the route `src → dst` over the topology's routes and links,
/// returning the buffer every hop lands in.
fn hops(t: &Topology, src: usize, dst: usize) -> Vec<Buffer> {
    let mut here = src;
    let mut out = Vec::new();
    while here != dst {
        let (dir, class) = t.route(here, dst);
        assert_ne!(dir, Direction::Local, "{src}→{dst} parked at {here}");
        here = t.link(here, dir).expect("routes follow links");
        out.push((here, dir.opposite(), class));
        assert!(out.len() <= 2 * t.len(), "{src}→{dst} did not terminate");
    }
    out
}

/// The channel-dependency graph of every route of every topology in
/// `ts` (one vertex per buffer, one edge per consecutive hop pair) —
/// with VC classes merged when `classes` is false.
fn cdg(ts: &[&Topology], classes: bool) -> HashSet<(Buffer, Buffer)> {
    let mut edges = HashSet::new();
    for t in ts {
        for src in 0..t.len() {
            for dst in (0..t.len()).filter(|&d| t.reachable(src, d)) {
                let mut path = hops(t, src, dst);
                if !classes {
                    path.iter_mut().for_each(|b| b.2 = VcClass::Any);
                }
                edges.extend(path.windows(2).map(|p| (p[0], p[1])));
            }
        }
    }
    edges
}

/// Kahn's algorithm: a graph is acyclic iff every vertex drains.
fn is_acyclic(edges: &HashSet<(Buffer, Buffer)>) -> bool {
    let mut indegree: HashMap<Buffer, usize> = HashMap::new();
    let mut out: HashMap<Buffer, Vec<Buffer>> = HashMap::new();
    for &(a, b) in edges {
        indegree.entry(a).or_default();
        *indegree.entry(b).or_default() += 1;
        out.entry(a).or_default().push(b);
    }
    let mut queue: Vec<Buffer> = indegree
        .iter()
        .filter(|&(_, &d)| d == 0)
        .map(|(&v, _)| v)
        .collect();
    let mut drained = 0;
    while let Some(v) = queue.pop() {
        drained += 1;
        for m in out.get(&v).into_iter().flatten() {
            let d = indegree.get_mut(m).expect("every endpoint has a degree");
            *d -= 1;
            if *d == 0 {
                queue.push(*m);
            }
        }
    }
    drained == indegree.len()
}

fn assert_acyclic(ts: &[&Topology], label: &str) {
    let edges = cdg(ts, true);
    assert!(!edges.is_empty(), "{label}: no dependencies at all");
    assert!(
        is_acyclic(&edges),
        "channel-dependency cycle on {label} ({} edges)",
        edges.len()
    );
}

fn star(chiplets: u8, k_node: u8) -> Topology {
    Topology::chiplet_star(
        chiplets,
        k_node,
        LinkClass::D2D_DEFAULT,
        LinkClass::HUB_DEFAULT,
    )
}

#[test]
fn torus_routes_are_minimal_for_random_grids() {
    let mut rng = Rng::seeded(0x70B05);
    for _ in 0..12 {
        let w = 2 + rng.below(8) as u8;
        let h = 2 + rng.below(8) as u8;
        let t = Topology::torus(w, h);
        let g = t.grid();
        for _ in 0..200 {
            let src = Coord::new(rng.below(w.into()) as u8, rng.below(h.into()) as u8);
            let dst = Coord::new(rng.below(w.into()) as u8, rng.below(h.into()) as u8);
            let path = hops(&t, g.id_of(src).index(), g.id_of(dst).index());
            assert_eq!(
                path.len() as u32,
                dor::torus_distance(g, src, dst),
                "non-minimal torus route {src}→{dst} on {w}x{h}"
            );
        }
    }
}

/// Mechanical deadlock-freedom check on the torus: without the dateline
/// classes every row and column ring would be a cycle; with them none
/// survives.
#[test]
fn dateline_classes_break_every_ring_cycle() {
    for (w, h) in [(3u8, 3u8), (4, 4), (5, 2), (8, 8), (6, 3)] {
        assert_acyclic(&[&Topology::torus(w, h)], &format!("the {w}x{h} torus"));
    }
}

/// The same graph *without* the class split shows the checker has
/// teeth: a classless ring really is cyclic.
#[test]
fn classless_torus_cdg_is_cyclic() {
    let edges = cdg(&[&Topology::torus(4, 4)], false);
    assert!(
        !is_acyclic(&edges),
        "merging the classes should close the ring cycles"
    );
}

#[test]
fn every_family_has_an_acyclic_channel_dependency_graph() {
    for (w, h) in [(8, 8), (5, 3), (1, 4)] {
        assert_acyclic(&[&Topology::mesh(w, h)], &format!("the {w}x{h} mesh"));
        assert_acyclic(
            &[&Topology::escape_mesh(w, h)],
            &format!("the {w}x{h} escape mesh"),
        );
    }
    for seed in 0..6u64 {
        let (w, h) = (5 + (seed % 3) as u8, 4 + (seed % 4) as u8);
        let t = Topology::cut_mesh(w, h, (w as u16 * h as u16) / 4, seed);
        assert_acyclic(&[&t], &format!("the {w}x{h} cut mesh, seed {seed}"));
    }
    for (k_chip, k_node) in [(2, 4), (3, 2)] {
        let t = Topology::chiplet_mesh(k_chip, k_node, LinkClass::D2D_DEFAULT);
        assert_acyclic(&[&t], &format!("chiplet mesh {k_chip}x{k_node}"));
    }
    for (chiplets, k_node) in [(2, 3), (3, 3), (4, 2)] {
        let label = format!("chiplet star {chiplets}x{k_node}");
        assert_acyclic(&[&star(chiplets, k_node)], &label);
    }
}

/// A router kill keeps the up*/down* orientation, so the routes before
/// and after it together still have an acyclic dependency graph — what
/// lets the simulator swap the tables with old-route packets in flight.
#[test]
fn a_kill_keeps_the_union_of_old_and_new_cdgs_acyclic() {
    let cases = [
        (Topology::cut_mesh(6, 6, 6, 0xD1CE), [(2, 2), (4, 3)]),
        (Topology::cut_mesh(7, 5, 5, 0xBEEF), [(3, 2), (5, 1)]),
        (star(3, 3), [(1, 1), (7, 2)]),
        (star(2, 4), [(2, 2), (5, 1)]),
    ];
    for (before, kills) in cases {
        for (x, y) in kills {
            let node = before.grid().id_of(Coord::new(x, y)).index();
            let after = before.with_dead(node);
            let label = format!("{} killing ({x},{y})", before.tag());
            assert_acyclic(&[&before, &after], &label);
        }
    }
}

/// The channel-dependency graph of every *mixed* path a table swap
/// from `old` to `new` can produce: a packet follows the old tables for
/// its first `i` hops (any `i`, from 0 to the whole route) and the new
/// tables from the node it has reached. Vertices are the buffers hops
/// land in, as in [`cdg`]; edges are the consecutive pairs of every
/// such path — old hops, new hops, and the one hop where the path
/// switches from old to new.
fn mixed_cdg(old: &Topology, new: &Topology) -> HashSet<(Buffer, Buffer)> {
    let mut edges = HashSet::new();
    for src in 0..old.len() {
        for dst in (0..old.len()).filter(|&d| old.reachable(src, d)) {
            let before = hops(old, src, dst);
            for i in 0..=before.len() {
                let here = i.checked_sub(1).map_or(src, |j| before[j].0);
                if here != dst && !new.reachable(here, dst) {
                    continue;
                }
                let path: Vec<Buffer> = before[..i]
                    .iter()
                    .copied()
                    .chain(hops(new, here, dst))
                    .collect();
                edges.extend(path.windows(2).map(|p| (p[0], p[1])));
            }
        }
    }
    edges
}

/// The mixed-path checker reports no cycle when the tables do not
/// change, on every family: each route's suffix is the route from
/// where it stands, so the mixed graph is the plain one.
#[test]
fn mixed_paths_over_unchanged_tables_are_acyclic() {
    let families = [
        Topology::mesh(5, 4),
        Topology::torus(4, 4),
        Topology::torus(5, 3),
        Topology::cut_mesh(6, 6, 6, 0xD1CE),
        Topology::cut_mesh(7, 5, 5, 0xBEEF),
        Topology::chiplet_mesh(2, 3, LinkClass::D2D_DEFAULT),
        star(3, 3),
        Topology::escape_mesh(5, 5),
    ];
    for t in &families {
        let edges = mixed_cdg(t, t);
        assert_eq!(edges, cdg(&[t], true), "{}: suffix-closed routes", t.tag());
        assert!(is_acyclic(&edges), "{}: mixed-path cycle", t.tag());
    }
}

/// The known gap that generation-tagged tables (ROADMAP item 4(b))
/// close: the union of the old and new CDGs across a router kill is
/// acyclic, but a packet that switches tables mid-route can close a
/// cycle. The two kills recorded when the gap was found are cyclic
/// here; the other kills of the union test stay acyclic, which shows
/// the checker tells the two apart. When a swap no longer mixes
/// generations, the two turn into acyclicity assertions.
#[test]
fn mixed_paths_across_the_recorded_kills_are_cyclic() {
    let cases = [
        (
            Topology::cut_mesh(6, 6, 6, 0xD1CE),
            [((4, 3), true), ((2, 2), false)],
        ),
        (
            Topology::cut_mesh(7, 5, 5, 0xBEEF),
            [((3, 2), true), ((5, 1), false)],
        ),
        (star(3, 3), [((1, 1), false), ((7, 2), false)]),
        (
            Topology::escape_mesh(5, 5),
            [((2, 2), false), ((1, 3), false)],
        ),
    ];
    for (before, kills) in cases {
        for ((x, y), cyclic) in kills {
            let node = before.grid().id_of(Coord::new(x, y)).index();
            let after = before.with_dead(node);
            assert!(
                is_acyclic(&cdg(&[&before, &after], true)),
                "the union is acyclic"
            );
            assert_eq!(
                !is_acyclic(&mixed_cdg(&before, &after)),
                cyclic,
                "{} killing ({x},{y}): mixed-path CDG cyclic",
                before.tag()
            );
        }
    }
}

/// Up*/down* tables deliver every (src, dst) pair on randomly cut —
/// but connected — grids, without ever using a cut link, and within the
/// structural 2·n hop bound.
#[test]
fn irregular_routes_always_reach_their_destination() {
    let mut rng = Rng::seeded(0x12E6);
    for case in 0..10 {
        let w = 3 + rng.below(6) as u8;
        let h = 3 + rng.below(6) as u8;
        let max_cuts = (w as u16 - 1) * (h as u16) + (w as u16) * (h as u16 - 1);
        let cuts = rng.at_most((max_cuts / 3).into()) as u16;
        let t = Topology::cut_mesh(w, h, cuts, 0xBADD + case);
        for src in 0..t.len() {
            for dst in 0..t.len() {
                assert!(t.reachable(src, dst), "{src}→{dst} on {w}x{h} cuts={cuts}");
                hops(&t, src, dst);
            }
        }
    }
}

/// End-to-end spec check: a `CutMesh` spec builds a connected irregular
/// topology with exactly the requested number of cuts.
#[test]
fn cutmesh_spec_round_trips_through_from_spec() {
    let mut cfg = NetworkConfig::paper();
    cfg.topology = TopologySpec::CutMesh {
        w: 8,
        h: 8,
        cuts: 4,
        seed: 0xC07,
    };
    cfg.validate().expect("valid spec");
    let t = Topology::from_spec(&cfg);
    assert_eq!(t.tag(), "irregular");
    assert_eq!(t.link_count(), 2 * 8 * 7 - 4);
    for s in 0..t.len() {
        for d in 0..t.len() {
            assert!(t.reachable(s, d));
        }
    }
}
