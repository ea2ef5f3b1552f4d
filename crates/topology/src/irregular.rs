//! Irregular topologies: arbitrary connected subgraphs of the grid,
//! routed by precomputed up\*/down\* tables.
//!
//! Cut links and dead routers break the regularity XY routing relies
//! on, so irregular graphs use the classic *up\*/down\** scheme
//! (Autonet): orient every link by a BFS spanning hierarchy rooted at
//! node 0 — the endpoint with the smaller `(BFS level, id)` is *up* —
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
//! **Dead routers.** [`Irregular::with_dead`] quarantines a node: the
//! distance relaxations never pass *through* it (it can still be a
//! destination, and the dead router's own table entries are kept so its
//! buffered flits drain). The BFS orientation is deliberately *not*
//! recomputed — packets routed under the old tables and packets routed
//! under the new ones must coexist in flight, and sharing one link
//! orientation keeps every mixed path inside the same up\*/down\* legal
//! set, preserving deadlock freedom across the swap.

use noc_types::{splitmix64, Coord, Direction, Mesh, RouterId};

/// Distances use this as infinity; small enough that `1 + INF` cannot
/// wrap.
const INF: u32 = u32::MAX / 4;

/// An arbitrary connected subgraph of a `w × h` grid with up\*/down\*
/// routing tables. Immutable after construction.
#[derive(Debug, Clone)]
pub struct Irregular {
    grid: Mesh,
    /// `active[n][dir]`: the link out of `n` through `dir` exists.
    active: Vec<[bool; 5]>,
    /// Routers that participate in routing (dead ones stay in the graph
    /// but are never transited).
    alive: Vec<bool>,
    /// BFS level of each node in the orientation hierarchy, fixed at
    /// construction and kept across [`Irregular::with_dead`].
    level: Vec<u32>,
    /// `next[n * len + d]`: direction to take at `n` towards `d`
    /// (`Local` when `n == d` or `d` is unreachable from `n`).
    next: Vec<Direction>,
    /// `reach[n * len + d]`: a route from `n` to `d` exists.
    reach: Vec<bool>,
}

/// The four non-local directions.
const SIDES: [Direction; 4] = [
    Direction::North,
    Direction::East,
    Direction::South,
    Direction::West,
];

impl Irregular {
    /// A full `w × h` mesh as an irregular topology — same links as
    /// [`crate::Topology::Mesh`] but up\*/down\*-routed and therefore
    /// able to survive [`Irregular::with_dead`].
    pub fn from_full_mesh(w: u8, h: u8) -> Self {
        Irregular::mesh_with_cut_links(w, h, &[])
    }

    /// A `w × h` mesh with the given bidirectional links removed. Each
    /// cut is named from either endpoint: `(coord, direction)`.
    ///
    /// # Panics
    /// Panics if a cut names a non-existent link or if the cuts
    /// disconnect the graph.
    pub fn mesh_with_cut_links(w: u8, h: u8, cuts: &[(Coord, Direction)]) -> Self {
        let mut topo = Irregular::with_root(w, h, cuts, 0);
        topo.rebuild_tables();
        topo
    }

    /// The chiplet-star graph of [`crate::Topology::ChipletStar`]:
    /// `chiplets` disjoint `k_node × k_node` meshes side by side in
    /// rows `0 .. k_node` (every horizontal link crossing a chiplet
    /// boundary is absent), plus a hub row at `y = k_node` that every
    /// bottom-row router connects down into and whose routers
    /// interconnect left-to-right.
    ///
    /// The up\*/down\* orientation is rooted at the hub row's centre
    /// router, so "up" always points toward the hub: legal routes
    /// descend from a chiplet into the hub and back out, which is
    /// exactly the star traffic pattern, and the standard up\*/down\*
    /// acyclicity argument covers the cross-die links.
    pub fn star(chiplets: u8, k_node: u8) -> Self {
        assert!(chiplets >= 1 && k_node >= 2, "degenerate chiplet star");
        let w = chiplets * k_node;
        let h = k_node + 1;
        let mut cuts: Vec<(Coord, Direction)> = Vec::new();
        for chip in 1..chiplets {
            let x = chip * k_node - 1;
            for y in 0..k_node {
                cuts.push((Coord::new(x, y), Direction::East));
            }
        }
        let grid = Mesh::rect(w, h);
        let root = grid.id_of(Coord::new(w / 2, k_node)).index();
        let mut topo = Irregular::with_root(w, h, &cuts, root);
        debug_assert!(topo.is_connected());
        topo.rebuild_tables();
        topo
    }

    /// [`Irregular::mesh_with_cut_links`] with an explicit orientation
    /// root (tables left unbuilt — callers rebuild).
    fn with_root(w: u8, h: u8, cuts: &[(Coord, Direction)], root: usize) -> Self {
        let grid = Mesh::rect(w, h);
        let n = grid.len();
        let mut active = vec![[false; 5]; n];
        for c in grid.coords() {
            for dir in SIDES {
                active[grid.id_of(c).index()][dir.port().index()] =
                    grid.neighbour(c, dir).is_some();
            }
        }
        let mut topo = Irregular {
            grid,
            active,
            alive: vec![true; n],
            level: vec![0; n],
            next: Vec::new(),
            reach: Vec::new(),
        };
        for &(c, dir) in cuts {
            topo.cut(c, dir);
        }
        assert!(
            topo.is_connected(),
            "the requested cuts disconnect the {w}x{h} mesh"
        );
        topo.level = topo.bfs_levels(root);
        topo
    }

    /// A `w × h` mesh with `cuts` links removed, chosen deterministically
    /// from `seed` while keeping the graph connected (candidate cuts that
    /// would disconnect it are skipped).
    ///
    /// # Panics
    /// Panics if fewer than `cuts` links can be removed without
    /// disconnecting the graph.
    pub fn random_cuts(w: u8, h: u8, cuts: u16, seed: u64) -> Self {
        let mut topo = Irregular::mesh_with_cut_links(w, h, &[]);
        // Candidate pool: every internal link once (from its west/north
        // endpoint).
        let mut pool: Vec<(Coord, Direction)> = Vec::new();
        for c in topo.grid.coords() {
            for dir in [Direction::East, Direction::South] {
                if topo.grid.neighbour(c, dir).is_some() {
                    pool.push((c, dir));
                }
            }
        }
        let mut rng = seed ^ 0x9E3779B97F4A7C15;
        let mut done = 0u16;
        while done < cuts && !pool.is_empty() {
            let ix = (splitmix64(&mut rng) % pool.len() as u64) as usize;
            let (c, dir) = pool.swap_remove(ix);
            topo.cut(c, dir);
            if topo.is_connected() {
                done += 1;
            } else {
                topo.uncut(c, dir);
            }
        }
        assert!(
            done == cuts,
            "only {done} of {cuts} requested cuts keep the {w}x{h} mesh connected"
        );
        topo.level = topo.bfs_levels(0);
        topo.rebuild_tables();
        topo
    }

    /// A new topology with `node` declared dead (see module docs).
    ///
    /// # Panics
    /// Panics if the quarantine disconnects any pair of *alive* routers
    /// — killing a cut vertex has no deadlock-free answer here.
    pub fn with_dead(&self, node: usize) -> Self {
        assert!(node < self.grid.len(), "dead node id out of range");
        let mut topo = self.clone();
        topo.alive[node] = false;
        topo.rebuild_tables();
        for n in 0..topo.grid.len() {
            for d in 0..topo.grid.len() {
                if topo.alive[n] && topo.alive[d] {
                    assert!(
                        topo.reach[n * topo.grid.len() + d],
                        "declaring router {node} dead disconnects {n} from {d}"
                    );
                }
            }
        }
        topo
    }

    /// A new topology with the bidirectional link `node → dir` removed,
    /// for incremental self-healing after a link fault.
    ///
    /// The BFS orientation is kept when it can be, exactly as in
    /// [`Irregular::with_dead`] and for the same reason: in-flight
    /// packets routed under the old tables then share one up\*/down\*
    /// legal set with the new ones. When the fixed orientation leaves
    /// some alive pair unroutable (a node whose every remaining link
    /// points down cannot climb), the orientation is recomputed from
    /// scratch instead — a fresh BFS over the cut graph always routes
    /// every alive pair, at the cost of a one-shot table swap that
    /// in-flight traffic re-reads at its next hop. If the cut isolates
    /// an endpoint (its last link), that endpoint is quarantined as
    /// dead instead of failing — a node fault *is* the fault of all
    /// its incident links. Errors only when the cut splits the alive
    /// graph into larger pieces.
    pub fn with_cut_link(&self, node: usize, dir: Direction) -> Result<Irregular, String> {
        let Some(other) = self.link(node, dir) else {
            return Err(format!("no active link out of router {node} through {dir}"));
        };
        let mut topo = self.clone();
        let c = topo.grid.coord_of(RouterId(node as u16));
        topo.cut(c, dir);
        for end in [node, other] {
            if topo.alive[end] && !topo.neighbours(end).any(|(_, m)| topo.alive[m]) {
                topo.alive[end] = false;
            }
        }
        if !topo.is_connected() {
            return Err(format!(
                "cutting link {node} {dir} splits the alive graph in two"
            ));
        }
        topo.rebuild_tables();
        let n = topo.grid.len();
        let fixed_ok = (0..n)
            .all(|s| (0..n).all(|d| !topo.alive[s] || !topo.alive[d] || topo.reach[s * n + d]));
        if !fixed_ok {
            topo.reorient();
        }
        Ok(topo)
    }

    /// Recompute the up\*/down\* orientation from scratch: fresh BFS
    /// levels rooted at the lowest-numbered alive router, traversing
    /// alive nodes only, then rebuilt tables. Because every alive
    /// non-root node keeps an alive BFS parent one level up, every
    /// alive pair can climb to the root and descend the BFS tree, so
    /// the rebuilt reach table covers all alive pairs by construction.
    /// Dead routers keep `u32::MAX` levels: every remaining link *into*
    /// one is a down hop (it stays addressable for draining) and every
    /// link *out* an up hop, preserving acyclicity.
    fn reorient(&mut self) {
        let n = self.grid.len();
        let root = (0..n)
            .find(|&i| self.alive[i])
            .expect("reorient on a network with no alive routers");
        let mut level = vec![u32::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        level[root] = 0;
        queue.push_back(root);
        while let Some(u) = queue.pop_front() {
            for (_, v) in self.neighbours(u) {
                if self.alive[v] && level[v] == u32::MAX {
                    level[v] = level[u] + 1;
                    queue.push_back(v);
                }
            }
        }
        debug_assert!(
            (0..n).all(|i| !self.alive[i] || level[i] != u32::MAX),
            "reorient BFS must reach every alive node of a connected graph"
        );
        self.level = level;
        self.rebuild_tables();
        debug_assert!((0..n)
            .all(|s| (0..n).all(|d| !self.alive[s] || !self.alive[d] || self.reach[s * n + d])));
    }

    /// The bounding grid.
    #[inline]
    pub fn grid(&self) -> Mesh {
        self.grid
    }

    /// Whether `node` participates in routing.
    #[inline]
    pub fn is_alive(&self, node: usize) -> bool {
        self.alive[node]
    }

    /// The neighbour reached through `dir`, if that link is active.
    #[inline]
    pub fn link(&self, node: usize, dir: Direction) -> Option<usize> {
        if dir == Direction::Local || !self.active[node][dir.port().index()] {
            return None;
        }
        self.grid
            .neighbour(self.grid.coord_of(RouterId(node as u16)), dir)
            .map(|id| id.index())
    }

    /// Next-hop direction at `node` towards `dst` (`Local` when
    /// `node == dst` or `dst` is unreachable).
    #[inline]
    pub fn route(&self, node: usize, dst: usize) -> Direction {
        self.next[node * self.grid.len() + dst]
    }

    /// Whether a route from `node` to `dst` exists.
    #[inline]
    pub fn reachable(&self, node: usize, dst: usize) -> bool {
        self.reach[node * self.grid.len() + dst]
    }

    /// Number of active bidirectional links.
    pub fn link_count(&self) -> usize {
        let mut n = 0;
        for node in 0..self.grid.len() {
            for dir in [Direction::East, Direction::South] {
                if self.link(node, dir).is_some() {
                    n += 1;
                }
            }
        }
        n
    }

    fn cut(&mut self, c: Coord, dir: Direction) {
        let here = self.grid.id_of(c).index();
        let there = self
            .grid
            .neighbour(c, dir)
            .unwrap_or_else(|| panic!("cut names a non-existent link: {c} {dir}"))
            .index();
        assert!(
            self.active[here][dir.port().index()],
            "link {c} {dir} is already cut"
        );
        self.active[here][dir.port().index()] = false;
        self.active[there][dir.opposite().port().index()] = false;
    }

    fn uncut(&mut self, c: Coord, dir: Direction) {
        let here = self.grid.id_of(c).index();
        let there = self
            .grid
            .neighbour(c, dir)
            .expect("uncut of a grid edge")
            .index();
        self.active[here][dir.port().index()] = true;
        self.active[there][dir.opposite().port().index()] = true;
    }

    /// Active neighbours of `node`, as `(direction, neighbour id)`.
    fn neighbours(&self, node: usize) -> impl Iterator<Item = (Direction, usize)> + '_ {
        SIDES
            .iter()
            .filter_map(move |&dir| self.link(node, dir).map(|m| (dir, m)))
    }

    /// Whether all alive nodes form one connected component over active
    /// links (dead nodes don't count and don't conduct).
    fn is_connected(&self) -> bool {
        let n = self.grid.len();
        let Some(start) = (0..n).find(|&i| self.alive[i]) else {
            return true;
        };
        let mut seen = vec![false; n];
        let mut queue = vec![start];
        seen[start] = true;
        let mut count = 1;
        while let Some(u) = queue.pop() {
            for (_, v) in self.neighbours(u) {
                if self.alive[v] && !seen[v] {
                    seen[v] = true;
                    count += 1;
                    queue.push(v);
                }
            }
        }
        count == (0..n).filter(|&i| self.alive[i]).count()
    }

    /// BFS levels from `root` over active links (alive nodes only at
    /// construction time, when everything is alive).
    fn bfs_levels(&self, root: usize) -> Vec<u32> {
        let n = self.grid.len();
        let mut level = vec![u32::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        level[root] = 0;
        queue.push_back(root);
        while let Some(u) = queue.pop_front() {
            for (_, v) in self.neighbours(u) {
                if level[v] == u32::MAX {
                    level[v] = level[u] + 1;
                    queue.push_back(v);
                }
            }
        }
        assert!(
            level.iter().all(|&l| l != u32::MAX),
            "orientation BFS must reach every node of a connected graph"
        );
        level
    }

    /// `true` if the hop `from → to` goes *up* the orientation hierarchy.
    #[inline]
    fn is_up(&self, from: usize, to: usize) -> bool {
        (self.level[to], to) < (self.level[from], from)
    }

    /// Recompute `D_down`, `D`, and the next-hop/reachability tables from
    /// the current link set, liveness and (fixed) orientation.
    fn rebuild_tables(&mut self) {
        let adj = self.adjacency();
        let (d_down, dist) = self.distance_fields(&adj);
        (self.next, self.reach) = self.next_hops(&adj, &d_down, &dist);
    }

    /// Active neighbours of every node, `usize::MAX` where a side has no
    /// link (one lookup per link instead of one per table entry).
    fn adjacency(&self) -> Vec<[usize; 4]> {
        (0..self.grid.len())
            .map(|node| SIDES.map(|dir| self.link(node, dir).unwrap_or(usize::MAX)))
            .collect()
    }

    /// `(D_down, D)` over the links `adj`, row-major `node * n + d`,
    /// each in one pass.
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
    fn distance_fields(&self, adj: &[[usize; 4]]) -> (Vec<u32>, Vec<u32>) {
        let n = self.grid.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by_key(|&i| (self.level[i], i));

        let mut d_down = vec![INF; n * n];
        for d in 0..n {
            d_down[d * n + d] = 0;
        }
        for &node in order.iter().rev() {
            for &m in adj[node].iter().filter(|&&m| m != usize::MAX) {
                if self.is_up(node, m) {
                    continue; // only down hops
                }
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
            for &m in adj[node].iter().filter(|&&m| m != usize::MAX) {
                if !self.is_up(node, m) {
                    continue; // only up hops
                }
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

    /// The next-hop and reachability tables of the distance fields over
    /// the links `adj`.
    fn next_hops(
        &self,
        adj: &[[usize; 4]],
        d_down: &[u32],
        dist: &[u32],
    ) -> (Vec<Direction>, Vec<bool>) {
        let n = self.grid.len();
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
                for (&dir, &m) in SIDES.iter().zip(&adj[node]) {
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

    /// Follow the tables from `src` to `dst`, returning the node path.
    fn walk(t: &Irregular, src: usize, dst: usize) -> Vec<usize> {
        let mut here = src;
        let mut path = vec![src];
        for _ in 0..2 * t.grid().len() + 2 {
            let dir = t.route(here, dst);
            if dir == Direction::Local {
                assert_eq!(here, dst, "route parked short of the destination");
                return path;
            }
            here = t.link(here, dir).expect("route uses only active links");
            path.push(here);
        }
        panic!("route {src}→{dst} did not terminate: {path:?}");
    }

    impl Irregular {
        /// The reference for [`Irregular::distance_fields`]: relaxation
        /// sweeps over every node, repeated until nothing changes.
        fn swept_distance_fields(&self) -> (Vec<u32>, Vec<u32>) {
            let n = self.grid.len();
            let mut d_down = vec![INF; n * n];
            for d in 0..n {
                d_down[d * n + d] = 0;
            }
            loop {
                let mut changed = false;
                for node in 0..n {
                    for (_, m) in self.neighbours(node).collect::<Vec<_>>() {
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
                    for (_, m) in self.neighbours(node).collect::<Vec<_>>() {
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

        /// Assert the one-pass fields, and the tables built from them,
        /// equal the sweep's.
        fn assert_matches_sweep(&self, label: &str) {
            let adj = self.adjacency();
            let (d_down, dist) = self.swept_distance_fields();
            assert!(
                self.distance_fields(&adj) == (d_down.clone(), dist.clone()),
                "{label}: distance fields differ from the sweep"
            );
            let (next, reach) = self.next_hops(&adj, &d_down, &dist);
            assert!(
                next == self.next && reach == self.reach,
                "{label}: tables differ from the sweep"
            );
        }
    }

    #[test]
    fn one_pass_tables_equal_the_sweep_on_full_meshes() {
        for k in 1..=16u8 {
            Irregular::from_full_mesh(k, k).assert_matches_sweep(&format!("{k}x{k}"));
        }
        for (w, h) in [(1, 7), (7, 1), (2, 9), (9, 4), (16, 3)] {
            Irregular::from_full_mesh(w, h).assert_matches_sweep(&format!("{w}x{h}"));
        }
    }

    #[test]
    fn one_pass_tables_equal_the_sweep_on_random_cuts_and_stars() {
        for seed in 0..24u64 {
            let (w, h) = (5 + (seed % 4) as u8, 4 + (seed % 5) as u8);
            let cuts = (w as u16 * h as u16) / 4;
            Irregular::random_cuts(w, h, cuts, seed)
                .assert_matches_sweep(&format!("{w}x{h} cuts {cuts} seed {seed}"));
        }
        for (chiplets, k_node) in [(1, 2), (2, 2), (3, 3), (4, 4), (5, 3)] {
            Irregular::star(chiplets, k_node)
                .assert_matches_sweep(&format!("star {chiplets}x{k_node}"));
        }
    }

    #[test]
    fn one_pass_tables_equal_the_sweep_after_kills_and_cuts() {
        // A chain of kills: interior routers far enough apart that no
        // kill disconnects the rest.
        let mut t = Irregular::from_full_mesh(8, 8);
        for c in [(2, 2), (5, 5), (2, 5), (5, 2), (0, 7)] {
            t = t.with_dead(t.grid().id_of(Coord::new(c.0, c.1)).index());
            t.assert_matches_sweep(&format!("kill {c:?}"));
        }
        // The cut sequence that re-roots the orientation.
        let base = Irregular::from_full_mesh(8, 8);
        let grid = base.grid();
        let once = base
            .with_cut_link(grid.id_of(Coord::new(4, 2)).index(), Direction::South)
            .unwrap();
        once.assert_matches_sweep("cut (4,2)S");
        let twice = once
            .with_cut_link(grid.id_of(Coord::new(3, 3)).index(), Direction::East)
            .unwrap();
        assert_ne!(base.level, twice.level, "this sequence reorients");
        twice.assert_matches_sweep("cut (4,2)S, (3,3)E");
        // Seeded cut sequences, skipping cuts that would split the
        // graph; isolated endpoints are quarantined on the way.
        for seed in 0..6u64 {
            let mut rng = seed ^ 0x5EED;
            let mut t = Irregular::from_full_mesh(6, 6);
            for step in 0..14 {
                let node = (splitmix64(&mut rng) % 36) as usize;
                let dir = SIDES[(splitmix64(&mut rng) % 4) as usize];
                if let Ok(next) = t.with_cut_link(node, dir) {
                    t = next;
                    t.assert_matches_sweep(&format!("seed {seed}, cut {step}"));
                }
            }
        }
    }

    #[test]
    fn full_mesh_routes_every_pair() {
        let t = Irregular::from_full_mesh(4, 3);
        for s in 0..12 {
            for d in 0..12 {
                assert!(t.reachable(s, d));
                walk(&t, s, d);
            }
        }
    }

    #[test]
    fn paths_are_up_then_down() {
        let t = Irregular::random_cuts(5, 5, 6, 0xD1CE);
        for s in 0..25 {
            for d in 0..25 {
                let path = walk(&t, s, d);
                let mut descending = false;
                for hop in path.windows(2) {
                    let up = t.is_up(hop[0], hop[1]);
                    if !up {
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
        let cut = (Coord::new(1, 1), Direction::East);
        let t = Irregular::mesh_with_cut_links(4, 4, &[cut]);
        let a = t.grid().id_of(Coord::new(1, 1)).index();
        let b = t.grid().id_of(Coord::new(2, 1)).index();
        assert_eq!(t.link(a, Direction::East), None);
        assert_eq!(t.link(b, Direction::West), None);
        assert_eq!(t.link_count(), 24 - 1);
        let path = walk(&t, a, b);
        assert!(path.len() > 2, "route detours around the cut link");
    }

    #[test]
    fn random_cuts_are_deterministic_and_counted() {
        let a = Irregular::random_cuts(8, 8, 4, 42);
        let b = Irregular::random_cuts(8, 8, 4, 42);
        assert_eq!(a.link_count(), b.link_count());
        assert_eq!(a.next, b.next, "same seed, same tables");
        assert_eq!(a.link_count(), 2 * 8 * 7 - 4);
        let c = Irregular::random_cuts(8, 8, 4, 43);
        assert_eq!(c.link_count(), a.link_count(), "same number of cuts");
    }

    #[test]
    #[should_panic(expected = "disconnect")]
    fn disconnecting_cuts_panic() {
        // Cutting both links of a 2x2 corner isolates it.
        Irregular::mesh_with_cut_links(
            2,
            2,
            &[
                (Coord::new(0, 0), Direction::East),
                (Coord::new(0, 0), Direction::South),
            ],
        );
    }

    #[test]
    fn dead_router_is_never_transited() {
        let t = Irregular::from_full_mesh(5, 5);
        let dead = t.grid().id_of(Coord::new(2, 2)).index();
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
        let t = Irregular::from_full_mesh(4, 4).with_dead(5);
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
        Irregular::from_full_mesh(3, 1).with_dead(1);
    }

    #[test]
    fn cut_link_reroutes_and_keeps_orientation() {
        let base = Irregular::from_full_mesh(4, 4);
        let a = base.grid().id_of(Coord::new(1, 1)).index();
        let t = base
            .with_cut_link(a, Direction::East)
            .expect("interior cut");
        assert_eq!(t.link(a, Direction::East), None);
        assert_eq!(base.level, t.level, "BFS orientation is kept");
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
        let base = Irregular::from_full_mesh(4, 4);
        let corner = base.grid().id_of(Coord::new(3, 3)).index();
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
        let base = Irregular::from_full_mesh(8, 8);
        let grid = base.grid();
        let t = base
            .with_cut_link(grid.id_of(Coord::new(4, 2)).index(), Direction::South)
            .expect("first cut keeps the fixed orientation")
            .with_cut_link(grid.id_of(Coord::new(3, 3)).index(), Direction::East)
            .expect("orientation failure must heal by re-rooting");
        assert_ne!(base.level, t.level, "the orientation was recomputed");
        assert_eq!(t.link_count(), 2 * 8 * 7 - 2);
        for s in 0..64 {
            for d in 0..64 {
                assert!(t.reachable(s, d));
                let path = walk(&t, s, d);
                // Fresh orientation, same up-then-down legality.
                let mut descending = false;
                for hop in path.windows(2) {
                    if t.is_up(hop[0], hop[1]) {
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
        let t = Irregular::from_full_mesh(4, 1);
        assert!(t.with_cut_link(1, Direction::East).is_err());
    }

    #[test]
    fn orientation_survives_a_kill() {
        let base = Irregular::random_cuts(6, 6, 5, 0xFEED);
        let killed = base.with_dead(14);
        assert_eq!(base.level, killed.level, "BFS orientation is kept");
    }
}
