//! Dimension-order routing, with and without wraparound, and the
//! direction masks adaptive routing builds on it.
//!
//! One helper per dimension decides which way a packet moves along it.
//! Without wrap (mesh, chiplet mesh) it is XY's sign test. With wrap
//! (torus) it takes the shorter way round the ring, ties going
//! East/South so the function stays deterministic on even rings.
//! [`crate::Topology::route`] resolves X fully before Y;
//! [`crate::Topology::candidate_mask`] ORs both dimensions' directions
//! into the *minimal quadrant* adaptive routing chooses from, so static
//! and adaptive modes agree on which links a route may use.
//!
//! **Dateline classes.** Wrapping closes each row and column into a
//! ring, whose channels form a cycle in the channel-dependency graph.
//! The classic fix (Dally & Seitz) is a *dateline* per dimension: the
//! wraparound edge between `x = w-1` and `x = 0` (and `y = h-1` /
//! `y = 0`) in either direction. Downstream buffers are split into two
//! classes, and a hop's class is decided by whether the packet still
//! has the current dimension's dateline ahead of it:
//!
//! * **class 0 (lower VCs)** — the remaining path in this dimension,
//!   *after* the hop lands, still crosses the dateline;
//! * **class 1 (upper VCs)** — the hop crosses the dateline itself, or
//!   the packet's path in this dimension never crosses it.
//!
//! Why this breaks every cycle: within one ring, class-0 buffers only
//! depend on each other along arcs that stop strictly before the
//! dateline edge (a class-0 hop *into* the dateline is impossible — if
//! the dateline is the next edge, the remaining path after it no longer
//! crosses it, making the hop class 1). So the class-0 subgraph is a
//! broken ring: acyclic. A class-1 packet has no dateline ahead, so its
//! remaining arc never wraps, and the class-1 dependencies form chains,
//! not cycles. Transitions only go 0 → 1 (crossing is irreversible), so
//! the combined graph is acyclic. Across dimensions, strict X-before-Y
//! ordering keeps inter-dimension dependencies acyclic exactly as on the
//! mesh. The property suite checks the full channel-dependency graph
//! mechanically.
//!
//! Masks are over [`Direction`] discriminants (bit 1 = North … bit 4 =
//! West; bit 0 / Local is never set), so a router can AND a candidate
//! set against [`crate::Topology::live_mask`] in one instruction. Deadlock freedom
//! of the adaptive candidates is *not* this module's job: they may close
//! quadrant-turn cycles, which the router core breaks with an escape VC
//! class routed up\*/down\* (ARCHITECTURE.md §8).

use crate::VcClass;
use noc_types::{Coord, Direction, Mesh, RouterId};

/// The bit representing `dir` in a candidate/liveness mask.
#[inline]
pub const fn dir_bit(dir: Direction) -> u8 {
    1 << (dir as u8)
}

/// Directions set in `mask`, in fixed N, E, S, W order.
#[inline]
pub fn dirs_in(mask: u8) -> impl Iterator<Item = Direction> {
    crate::SIDES
        .into_iter()
        .filter(move |&d| mask & dir_bit(d) != 0)
}

/// Minimal wrap-aware distance between two coordinates on the torus.
pub fn torus_distance(grid: Mesh, a: Coord, b: Coord) -> u32 {
    let dim = |p: u8, q: u8, k: u8| -> u32 {
        let fwd = (q as u32 + k as u32 - p as u32) % k as u32;
        fwd.min(k as u32 - fwd)
    };
    dim(a.x, b.x, grid.w) + dim(a.y, b.y, grid.h)
}

/// The hop dimension-order routing takes along one dimension of side
/// `k`, from `p` towards `q`: `fwd` (East/South) or `back`
/// (West/North), with its dateline class under `wrap`. `None` once the
/// dimension is resolved.
#[inline]
fn hop(
    (p, q, k): (u8, u8, u8),
    wrap: bool,
    [fwd, back]: [Direction; 2],
) -> Option<(Direction, VcClass)> {
    if p == q {
        return None;
    }
    if !wrap {
        return Some((if q > p { fwd } else { back }, VcClass::Any));
    }
    let (p, q, k) = (u16::from(p), u16::from(q), u16::from(k));
    let ahead = (q + k - p) % k;
    // Class 0 (lower) while the dateline is still ahead after the hop
    // lands, class 1 (upper) from the crossing hop on and for paths
    // that never cross.
    let (dir, dateline_ahead) = if ahead <= k - ahead {
        (fwd, (p + 1) % k > q)
    } else {
        (back, (p + k - 1) % k < q)
    };
    let class = if dateline_ahead {
        VcClass::Lower
    } else {
        VcClass::Upper
    };
    Some((dir, class))
}

/// Both dimensions of a route from `node` to `dst`, X first.
#[inline]
fn dims(grid: Mesh, node: usize, dst: usize) -> [(u8, u8, u8); 2] {
    let here = grid.coord_of(RouterId(node as u16));
    let to = grid.coord_of(RouterId(dst as u16));
    [(here.x, to.x, grid.w), (here.y, to.y, grid.h)]
}

const X: [Direction; 2] = [Direction::East, Direction::West];
const Y: [Direction; 2] = [Direction::South, Direction::North];

/// One routing decision: output direction and downstream VC class for a
/// packet at `node` headed for `dst`. X resolves fully before Y.
#[inline]
pub(crate) fn route(grid: Mesh, node: usize, dst: usize, wrap: bool) -> (Direction, VcClass) {
    let [x, y] = dims(grid, node, dst);
    hop(x, wrap, X)
        .or_else(|| hop(y, wrap, Y))
        .unwrap_or((Direction::Local, VcClass::Any))
}

/// The minimal-quadrant candidate mask: each unresolved dimension's
/// dimension-order direction.
#[inline]
pub(crate) fn candidates(grid: Mesh, node: usize, dst: usize, wrap: bool) -> u8 {
    let [x, y] = dims(grid, node, dst);
    let bit = |h: Option<(Direction, VcClass)>| h.map_or(0, |(dir, _)| dir_bit(dir));
    bit(hop(x, wrap, X)) | bit(hop(y, wrap, Y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Topology;

    /// Walk a torus route, returning `(node, direction, class)` per hop.
    fn walk(t: &Topology, src: Coord, dst: Coord) -> Vec<(Coord, Direction, VcClass)> {
        let g = t.grid();
        let (mut here, dst) = (g.id_of(src).index(), g.id_of(dst).index());
        let mut hops = Vec::new();
        for _ in 0..4 * g.len() {
            let (dir, class) = t.route(here, dst);
            if dir == Direction::Local {
                return hops;
            }
            hops.push((g.coord_of(RouterId(here as u16)), dir, class));
            here = t.link(here, dir).expect("a torus route follows links");
        }
        panic!("route from {src} to {dst} did not terminate");
    }

    #[test]
    fn routes_are_minimal_and_terminate() {
        for (w, h) in [(4u8, 4u8), (5, 3), (2, 6)] {
            let t = Topology::torus(w, h);
            let g = t.grid();
            for src in g.coords() {
                for dst in g.coords() {
                    let hops = walk(&t, src, dst);
                    assert_eq!(
                        hops.len() as u32,
                        torus_distance(g, src, dst),
                        "non-minimal route {src}→{dst} on {w}x{h}"
                    );
                }
            }
        }
    }

    #[test]
    fn x_resolves_before_y() {
        let t = Topology::torus(4, 4);
        for (here, dir, _) in walk(&t, Coord::new(0, 0), Coord::new(2, 2)) {
            if here.x != 2 {
                assert_eq!(dir, Direction::East);
            } else {
                assert_eq!(dir, Direction::South);
            }
        }
    }

    #[test]
    fn wrap_is_taken_when_shorter() {
        let t = Topology::torus(8, 8);
        // 0 → 6 eastwards is 6 hops, westwards (wrapping) is 2.
        assert_eq!(t.route(0, 6).0, Direction::West);
        // Tie on an even ring breaks East.
        assert_eq!(t.route(0, 4).0, Direction::East);
    }

    #[test]
    fn class_becomes_upper_at_the_dateline_crossing() {
        // 3 → 1 on a 5-ring: west is shorter (2 vs 3) and the path
        // 3→2→1 never wraps, so every hop is Upper.
        let hops = walk(&Topology::torus(5, 2), Coord::new(3, 0), Coord::new(1, 0));
        assert!(hops
            .iter()
            .all(|&(_, d, c)| d == Direction::West && c == VcClass::Upper));
        let t = Topology::torus(4, 2);
        // 3 → 0 on a 4-ring: east = 1 (crossing hop) → Upper immediately.
        let hops = walk(&t, Coord::new(3, 0), Coord::new(0, 0));
        assert_eq!(
            hops,
            vec![(Coord::new(3, 0), Direction::East, VcClass::Upper)]
        );
        // 2 → 0 on a 4-ring going east: first hop still has the dateline
        // ahead → Lower, the crossing hop → Upper.
        let hops = walk(&t, Coord::new(2, 0), Coord::new(0, 0));
        assert_eq!(
            hops,
            vec![
                (Coord::new(2, 0), Direction::East, VcClass::Lower),
                (Coord::new(3, 0), Direction::East, VcClass::Upper),
            ]
        );
    }

    #[test]
    fn non_wrapping_paths_use_upper_class_throughout() {
        let t = Topology::torus(6, 6);
        for (_, _, class) in walk(&t, Coord::new(1, 1), Coord::new(3, 3)) {
            assert_eq!(class, VcClass::Upper, "no wrap → dateline never ahead");
        }
    }

    #[test]
    fn mesh_candidates_are_the_minimal_quadrant() {
        let t = Topology::mesh(8, 8);
        let g = t.grid();
        for n in 0..t.len() {
            for d in 0..t.len() {
                let mask = t.candidate_mask(n, d);
                let (xy, _) = t.route(n, d);
                if n == d {
                    assert_eq!(mask, 0);
                    continue;
                }
                assert!(
                    mask & dir_bit(xy) != 0,
                    "XY direction {xy:?} missing from candidates for {n}→{d}"
                );
                assert!(mask.count_ones() <= 2);
                // Every candidate strictly reduces Manhattan distance.
                let here = g.coord_of(RouterId(n as u16));
                let to = g.coord_of(RouterId(d as u16));
                for dir in dirs_in(mask) {
                    let next = here.step(dir, g.w, g.h).expect("candidate stays on grid");
                    assert!(next.manhattan(to) < here.manhattan(to));
                }
            }
        }
    }

    #[test]
    fn torus_candidates_contain_the_static_route_and_shrink_distance() {
        let t = Topology::torus(5, 4);
        let g = t.grid();
        for n in 0..t.len() {
            for d in 0..t.len() {
                let mask = t.candidate_mask(n, d);
                if n == d {
                    assert_eq!(mask, 0);
                    continue;
                }
                let (dir, _class) = t.route(n, d);
                assert!(
                    mask & dir_bit(dir) != 0,
                    "DOR direction {dir:?} missing from candidates for {n}→{d}"
                );
                let here = g.coord_of(RouterId(n as u16));
                let to = g.coord_of(RouterId(d as u16));
                for dir in dirs_in(mask) {
                    let next = here.step_wrapping(dir, g.w, g.h);
                    assert!(
                        torus_distance(g, next, to) < torus_distance(g, here, to),
                        "candidate {dir:?} is non-minimal for {n}→{d}"
                    );
                }
            }
        }
    }

    #[test]
    fn table_routed_families_opt_out() {
        let t = Topology::cut_mesh(4, 4, 2, 7);
        assert!(!t.supports_adaptive());
        for n in 0..t.len() {
            for d in 0..t.len() {
                assert_eq!(t.candidate_mask(n, d), 0);
            }
        }
        assert!(Topology::mesh(8, 8).supports_adaptive());
    }
}
