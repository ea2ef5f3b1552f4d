//! Up\*/down\* routing tables over an arbitrary connected link table.
//!
//! Cut links and dead routers break the regularity dimension-order
//! routing relies on, so table-routed topologies use the classic
//! *up\*/down\** scheme (Autonet): orient every link by a BFS spanning
//! hierarchy — the endpoint with the smaller `(BFS level, id)` is *up* —
//! and restrict every route to zero or more up hops followed by zero or
//! more down hops. Any cycle in the channel-dependency graph would need
//! a down→up turn somewhere, which the restriction forbids, so routing
//! is deadlock-free on a single VC class with no mask.
//!
//! Within the legal paths we route greedily by two distance fields:
//!
//! * `D_down[n][d]` — shortest *down-only* distance from `n` to `d`
//!   (infinite if no down-only path exists);
//! * `D[n][d]` — `D_down` where finite, else `1 + min` over up-
//!   neighbours of their `D` (the best "climb, then descend" cost).
//!
//! A node with finite `D_down` is in *down mode* and commits to
//! descending: its next hop is the down-neighbour minimising
//! `(D_down, id)`. Every such neighbour has finite `D_down` too, so the
//! commitment is statelessly consistent — the packet can never turn
//! back up, which up\*/down\* legality requires. Otherwise the node
//! climbs via the up-neighbour minimising `(D, id)`. `D` strictly
//! decreases while climbing and `D_down` strictly decreases while
//! descending, so every route terminates. The cost of statelessness is
//! that routes are shortest *within the down-commitment*, not always
//! globally shortest among legal paths — see ARCHITECTURE.md §4.
//!
//! **Dead routers.** The distance relaxations never pass *through* a
//! dead router (it can still be a destination, and its own table
//! entries are kept so its buffered flits drain). A kill keeps the BFS
//! orientation ([`crate::Topology::with_dead`]): packets routed under
//! the old tables and packets routed under the new ones must coexist in
//! flight, and sharing one link orientation keeps every mixed path
//! inside the same up\*/down\* legal set, preserving deadlock freedom
//! across the swap.

use crate::{Topology, SIDES};
use noc_types::Direction;

/// Distances use this as infinity; small enough that `1 + INF` cannot
/// wrap.
const INF: u32 = u32::MAX / 4;

/// The up\*/down\* routing rule: an orientation and the tables it
/// yields over one link table and liveness.
#[derive(Debug, Clone)]
pub(crate) struct UpDown {
    /// BFS level of each node in the orientation hierarchy (`u32::MAX`
    /// for a router dead when the orientation was drawn).
    pub(crate) level: Vec<u32>,
    /// `next[n * len + d]`: direction to take at `n` towards `d`
    /// (`Local` when `n == d` or `d` is unreachable from `n`).
    pub(crate) next: Vec<Direction>,
    /// `reach[n * len + d]`: a route from `n` to `d` exists.
    pub(crate) reach: Vec<bool>,
}

/// BFS levels from `root` over the links between alive routers. Dead
/// routers keep `u32::MAX`: every remaining link *into* one is a down
/// hop (it stays addressable for draining) and every link *out* an up
/// hop, preserving acyclicity. Because every alive non-root node keeps
/// an alive BFS parent one level up, every alive pair can climb to the
/// root and descend the BFS tree, so the tables of a fresh orientation
/// route every alive pair by construction.
///
/// # Panics
/// Panics if the alive routers are not connected.
pub(crate) fn levels(topo: &Topology, root: usize) -> Vec<u32> {
    let mut level = vec![u32::MAX; topo.len()];
    let mut queue = std::collections::VecDeque::new();
    level[root] = 0;
    queue.push_back(root);
    while let Some(u) = queue.pop_front() {
        for (_, v) in topo.neighbours(u) {
            if topo.alive[v] && level[v] == u32::MAX {
                level[v] = level[u] + 1;
                queue.push_back(v);
            }
        }
    }
    assert!(
        (0..topo.len()).all(|i| !topo.alive[i] || level[i] != u32::MAX),
        "orientation BFS must reach every alive node of a connected graph"
    );
    level
}

impl UpDown {
    /// The tables of `topo`'s links and liveness under the orientation
    /// `level`.
    pub(crate) fn new(topo: &Topology, level: Vec<u32>) -> UpDown {
        let fields = Fields::of(topo, &level);
        let (d_down, dist) = fields.distances();
        let (next, reach) = fields.next_hops(&d_down, &dist);
        UpDown { level, next, reach }
    }
}

/// What the distance fields and next hops are computed from.
struct Fields<'a> {
    /// Linked neighbours of every node, `usize::MAX` where a side has no
    /// link (one lookup per link instead of one per table entry).
    adj: Vec<[usize; 4]>,
    alive: &'a [bool],
    level: &'a [u32],
}

impl<'a> Fields<'a> {
    /// The fields of `topo`'s links and liveness under `level`.
    fn of(topo: &'a Topology, level: &'a [u32]) -> Self {
        Fields {
            adj: topo
                .links
                .iter()
                .map(|sides| sides.map(|l| l.map_or(usize::MAX, |l| l.to as usize)))
                .collect(),
            alive: &topo.alive,
            level,
        }
    }

    /// `true` if the hop `from → to` goes *up* the orientation hierarchy.
    #[inline]
    fn is_up(&self, from: usize, to: usize) -> bool {
        (self.level[to], to) < (self.level[from], from)
    }

    /// The linked neighbours of `node`.
    fn linked(&self, node: usize) -> impl Iterator<Item = usize> + '_ {
        self.adj[node].into_iter().filter(|&m| m != usize::MAX)
    }

    /// `(D_down, D)`, row-major `node * n + d`, each in one pass.
    ///
    /// `(level, id)` orders the nodes totally, a down hop strictly
    /// increases it and an up hop strictly decreases it: the down edges
    /// and the up edges each form a DAG. `D_down` of a node reads only
    /// its down-neighbours' rows, so one pass in descending `(level, id)`
    /// order finds every row final when it is read; `D` reads only its
    /// up-neighbours' rows (where `D_down` is infinite), so one pass in
    /// ascending order does the same. Each pass computes the unique
    /// solution of its recurrence — the least fixpoint a relaxation
    /// sweep converges to.
    fn distances(&self) -> (Vec<u32>, Vec<u32>) {
        let n = self.adj.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by_key(|&i| (self.level[i], i));

        let mut d_down = vec![INF; n * n];
        for d in 0..n {
            d_down[d * n + d] = 0;
        }
        for &node in order.iter().rev() {
            for m in self.linked(node).filter(|&m| !self.is_up(node, m)) {
                if !self.alive[m] {
                    // Never transit a dead router; it is still a
                    // destination one hop away.
                    d_down[node * n + m] = d_down[node * n + m].min(1);
                    continue;
                }
                let (row, from) = rows(&mut d_down, n, node, m);
                for (x, &y) in row.iter_mut().zip(from) {
                    *x = (*x).min(y + 1);
                }
            }
        }

        // Full metric: climb cost where no down-only path exists.
        let mut dist = d_down.clone();
        for &node in &order {
            let down = &d_down[node * n..][..n];
            for m in self.linked(node).filter(|&m| self.is_up(node, m)) {
                if !self.alive[m] {
                    if down[m] == INF {
                        dist[node * n + m] = dist[node * n + m].min(1);
                    }
                    continue;
                }
                let (row, from) = rows(&mut dist, n, node, m);
                for ((x, &y), &committed) in row.iter_mut().zip(from).zip(down) {
                    // A node in down mode for `d` is committed to it.
                    if committed == INF {
                        *x = (*x).min(y + 1);
                    }
                }
            }
        }
        (d_down, dist)
    }

    /// The next-hop and reachability tables of the distance fields.
    fn next_hops(&self, d_down: &[u32], dist: &[u32]) -> (Vec<Direction>, Vec<bool>) {
        let n = self.adj.len();
        let mut next = vec![Direction::Local; n * n];
        let mut reach = vec![false; n * n];
        for node in 0..n {
            for d in 0..n {
                if node == d {
                    reach[node * n + d] = true;
                    continue;
                }
                let down_mode = d_down[node * n + d] != INF;
                let mut best: Option<(u32, usize, Direction)> = None;
                for (&dir, &m) in SIDES.iter().zip(&self.adj[node]) {
                    if m == usize::MAX || (!self.alive[m] && m != d) {
                        continue;
                    }
                    if self.is_up(node, m) == down_mode {
                        continue; // down mode takes down hops, up mode up hops
                    }
                    let metric = if down_mode {
                        d_down[m * n + d]
                    } else {
                        dist[m * n + d]
                    };
                    if metric == INF {
                        continue;
                    }
                    if best.is_none_or(|(bm, bid, _)| (metric, m) < (bm, bid)) {
                        best = Some((metric, m, dir));
                    }
                }
                if let Some((_, _, dir)) = best {
                    next[node * n + d] = dir;
                    reach[node * n + d] = true;
                }
            }
        }
        (next, reach)
    }
}

/// Row `node` of an `n × n` table for writing beside row `m` for
/// reading (`node != m`).
fn rows(table: &mut [u32], n: usize, node: usize, m: usize) -> (&mut [u32], &[u32]) {
    debug_assert_ne!(node, m);
    if node < m {
        let (lo, hi) = table.split_at_mut(m * n);
        (&mut lo[node * n..][..n], &hi[..n])
    } else {
        let (lo, hi) = table.split_at_mut(node * n);
        (&mut hi[..n], &lo[m * n..][..n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rule;
    use noc_types::{splitmix64, Coord};

    fn tables(t: &Topology) -> &UpDown {
        match &t.rule {
            Rule::UpDown(u) => u,
            Rule::Dor { .. } => panic!("{} is not table-routed", t.tag()),
        }
    }

    fn fields(t: &Topology) -> Fields<'_> {
        Fields::of(t, &tables(t).level)
    }

    fn is_up(t: &Topology, from: usize, to: usize) -> bool {
        fields(t).is_up(from, to)
    }

    /// Follow the tables from `src` to `dst`, returning the node path.
    fn walk(t: &Topology, src: usize, dst: usize) -> Vec<usize> {
        let mut here = src;
        let mut path = vec![src];
        for _ in 0..2 * t.len() + 2 {
            let (dir, _) = t.route(here, dst);
            if dir == Direction::Local {
                assert_eq!(here, dst, "route parked short of the destination");
                return path;
            }
            here = t.link(here, dir).expect("route uses only active links");
            path.push(here);
        }
        panic!("route {src}→{dst} did not terminate: {path:?}");
    }

    fn id(t: &Topology, x: u8, y: u8) -> usize {
        t.grid().id_of(Coord::new(x, y)).index()
    }

    impl Fields<'_> {
        /// The reference for [`Fields::distances`]: relaxation sweeps
        /// over every node, repeated until nothing changes.
        fn swept_distances(&self) -> (Vec<u32>, Vec<u32>) {
            let n = self.adj.len();
            let mut d_down = vec![INF; n * n];
            for d in 0..n {
                d_down[d * n + d] = 0;
            }
            loop {
                let mut changed = false;
                for node in 0..n {
                    for m in self.linked(node).collect::<Vec<_>>() {
                        if self.is_up(node, m) {
                            continue;
                        }
                        for d in 0..n {
                            if !self.alive[m] && m != d {
                                continue;
                            }
                            let cand = 1 + d_down[m * n + d];
                            if cand < d_down[node * n + d] {
                                d_down[node * n + d] = cand;
                                changed = true;
                            }
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
            let mut dist = d_down.clone();
            loop {
                let mut changed = false;
                for node in 0..n {
                    for m in self.linked(node).collect::<Vec<_>>() {
                        if !self.is_up(node, m) {
                            continue;
                        }
                        for d in 0..n {
                            if d_down[node * n + d] != INF || (!self.alive[m] && m != d) {
                                continue;
                            }
                            let cand = 1 + dist[m * n + d];
                            if cand < dist[node * n + d] {
                                dist[node * n + d] = cand;
                                changed = true;
                            }
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
            (d_down, dist)
        }
    }

    /// Assert the one-pass fields, and the tables built from them,
    /// equal the sweep's.
    fn assert_matches_sweep(t: &Topology, label: &str) {
        let f = fields(t);
        let (d_down, dist) = f.swept_distances();
        assert!(
            f.distances() == (d_down.clone(), dist.clone()),
            "{label}: distance fields differ from the sweep"
        );
        let (next, reach) = f.next_hops(&d_down, &dist);
        let u = tables(t);
        assert!(
            next == u.next && reach == u.reach,
            "{label}: tables differ from the sweep"
        );
    }

    fn star(chiplets: u8, k_node: u8) -> Topology {
        let (d2d, hub) = (
            noc_types::LinkClass::D2D_DEFAULT,
            noc_types::LinkClass::HUB_DEFAULT,
        );
        Topology::chiplet_star(chiplets, k_node, d2d, hub)
    }

    #[test]
    fn one_pass_tables_equal_the_sweep_on_full_meshes() {
        for k in 1..=16u8 {
            assert_matches_sweep(&Topology::escape_mesh(k, k), &format!("{k}x{k}"));
        }
        for (w, h) in [(1, 7), (7, 1), (2, 9), (9, 4), (16, 3)] {
            assert_matches_sweep(&Topology::escape_mesh(w, h), &format!("{w}x{h}"));
        }
    }

    #[test]
    fn one_pass_tables_equal_the_sweep_on_random_cuts_and_stars() {
        for seed in 0..24u64 {
            let (w, h) = (5 + (seed % 4) as u8, 4 + (seed % 5) as u8);
            let cuts = (w as u16 * h as u16) / 4;
            assert_matches_sweep(
                &Topology::cut_mesh(w, h, cuts, seed),
                &format!("{w}x{h} cuts {cuts} seed {seed}"),
            );
        }
        for (chiplets, k_node) in [(1, 2), (2, 2), (3, 3), (4, 4), (5, 3)] {
            assert_matches_sweep(
                &star(chiplets, k_node),
                &format!("star {chiplets}x{k_node}"),
            );
        }
    }

    #[test]
    fn one_pass_tables_equal_the_sweep_after_kills_and_cuts() {
        // A chain of kills: interior routers far enough apart that no
        // kill disconnects the rest.
        let mut t = Topology::escape_mesh(8, 8);
        for c in [(2, 2), (5, 5), (2, 5), (5, 2), (0, 7)] {
            t = t.with_dead(id(&t, c.0, c.1));
            assert_matches_sweep(&t, &format!("kill {c:?}"));
        }
        // The cut sequence that re-roots the orientation.
        let base = Topology::escape_mesh(8, 8);
        let once = base
            .with_cut_link(id(&base, 4, 2), Direction::South)
            .unwrap();
        assert_matches_sweep(&once, "cut (4,2)S");
        let twice = once
            .with_cut_link(id(&base, 3, 3), Direction::East)
            .unwrap();
        assert_ne!(
            tables(&base).level,
            tables(&twice).level,
            "this sequence reorients"
        );
        assert_matches_sweep(&twice, "cut (4,2)S, (3,3)E");
        // Seeded cut sequences, skipping cuts that would split the
        // graph; isolated endpoints are quarantined on the way.
        for seed in 0..6u64 {
            let mut rng = seed ^ 0x5EED;
            let mut t = Topology::escape_mesh(6, 6);
            for step in 0..14 {
                let node = (splitmix64(&mut rng) % 36) as usize;
                let dir = SIDES[(splitmix64(&mut rng) % 4) as usize];
                if let Ok(next) = t.with_cut_link(node, dir) {
                    t = next;
                    assert_matches_sweep(&t, &format!("seed {seed}, cut {step}"));
                }
            }
        }
    }

    #[test]
    fn full_mesh_routes_every_pair() {
        let t = Topology::escape_mesh(4, 3);
        for s in 0..12 {
            for d in 0..12 {
                assert!(t.reachable(s, d));
                walk(&t, s, d);
            }
        }
    }

    #[test]
    fn paths_are_up_then_down() {
        let t = Topology::cut_mesh(5, 5, 6, 0xD1CE);
        for s in 0..25 {
            for d in 0..25 {
                let path = walk(&t, s, d);
                let mut descending = false;
                for hop in path.windows(2) {
                    if !is_up(&t, hop[0], hop[1]) {
                        descending = true;
                    } else {
                        assert!(!descending, "illegal down→up turn in {path:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn explicit_cuts_are_respected() {
        let base = Topology::escape_mesh(4, 4);
        let (a, b) = (id(&base, 1, 1), id(&base, 2, 1));
        let t = base
            .with_cut_link(a, Direction::East)
            .expect("interior cut");
        assert_eq!(t.link(a, Direction::East), None);
        assert_eq!(t.link(b, Direction::West), None);
        assert_eq!(t.link_count(), 24 - 1);
        let path = walk(&t, a, b);
        assert!(path.len() > 2, "route detours around the cut link");
    }

    #[test]
    fn dead_router_is_never_transited() {
        let t = Topology::escape_mesh(5, 5);
        let dead = id(&t, 2, 2);
        let t = t.with_dead(dead);
        for s in 0..25 {
            for d in 0..25 {
                if s == dead {
                    continue;
                }
                if d == dead {
                    // Still reachable as a destination (it drains/accepts).
                    assert!(t.reachable(s, d));
                    continue;
                }
                let path = walk(&t, s, d);
                assert!(
                    !path[..path.len() - 1].contains(&dead),
                    "route {s}→{d} transits the dead router: {path:?}"
                );
            }
        }
    }

    #[test]
    fn dead_router_still_drains_its_own_buffers() {
        let t = Topology::escape_mesh(4, 4).with_dead(5);
        for d in 0..16 {
            if d != 5 {
                let path = walk(&t, 5, d);
                assert_eq!(*path.last().unwrap(), d);
            }
        }
    }

    #[test]
    #[should_panic(expected = "disconnects")]
    fn killing_a_cut_vertex_panics() {
        // On a 1-wide strip every interior node is a cut vertex.
        Topology::escape_mesh(3, 1).with_dead(1);
    }

    #[test]
    fn cut_link_reroutes_and_keeps_orientation() {
        let base = Topology::escape_mesh(4, 4);
        let a = id(&base, 1, 1);
        let t = base
            .with_cut_link(a, Direction::East)
            .expect("interior cut");
        assert_eq!(t.link(a, Direction::East), None);
        assert_eq!(
            tables(&base).level,
            tables(&t).level,
            "BFS orientation is kept"
        );
        for s in 0..16 {
            for d in 0..16 {
                walk(&t, s, d);
            }
        }
        assert!(t.with_cut_link(a, Direction::East).is_err(), "already cut");
    }

    #[test]
    fn cutting_a_last_link_quarantines_the_endpoint() {
        // Sever every link of the far corner (away from the orientation
        // root at node 0); the final cut must auto-quarantine it rather
        // than error.
        let base = Topology::escape_mesh(4, 4);
        let corner = id(&base, 3, 3);
        let t = base
            .with_cut_link(corner, Direction::North)
            .expect("first corner cut keeps the graph connected")
            .with_cut_link(corner, Direction::West)
            .expect("isolating cut quarantines the corner");
        assert!(!t.is_alive(corner));
        for s in 0..16 {
            for d in 0..16 {
                if s == corner || d == corner {
                    continue;
                }
                let path = walk(&t, s, d);
                assert!(!path.contains(&corner));
            }
        }
    }

    #[test]
    fn orientation_failure_reorients_instead_of_erroring() {
        // Cutting (4,2)S and then (3,3)E on an 8×8 mesh leaves (4,3)
        // with only deeper-level neighbours under the original
        // root-at-0 orientation — unreachable without a climb. The
        // heal must recompute the orientation, not refuse.
        let base = Topology::escape_mesh(8, 8);
        let t = base
            .with_cut_link(id(&base, 4, 2), Direction::South)
            .expect("first cut keeps the fixed orientation")
            .with_cut_link(id(&base, 3, 3), Direction::East)
            .expect("orientation failure must heal by re-rooting");
        assert_ne!(
            tables(&base).level,
            tables(&t).level,
            "the orientation was recomputed"
        );
        assert_eq!(t.link_count(), 2 * 8 * 7 - 2);
        for s in 0..64 {
            for d in 0..64 {
                assert!(t.reachable(s, d));
                let path = walk(&t, s, d);
                // Fresh orientation, same up-then-down legality.
                let mut descending = false;
                for hop in path.windows(2) {
                    if is_up(&t, hop[0], hop[1]) {
                        assert!(!descending, "illegal down→up turn in {path:?}");
                    } else {
                        descending = true;
                    }
                }
            }
        }
    }

    #[test]
    fn cutting_a_bridge_between_big_components_errors() {
        // A 1-wide strip: every link is a bridge between multi-node halves.
        let t = Topology::escape_mesh(4, 1);
        assert!(t.with_cut_link(1, Direction::East).is_err());
    }

    #[test]
    fn orientation_survives_a_kill() {
        let base = Topology::cut_mesh(6, 6, 5, 0xFEED);
        let killed = base.with_dead(14);
        assert_eq!(
            tables(&base).level,
            tables(&killed).level,
            "BFS orientation is kept"
        );
    }
}
