//! # noc-topology
//!
//! The network-graph layer of the workspace: which routers exist, which
//! links connect them, and how a packet at one node reaches another.
//!
//! The paper evaluates its router inside an 8×8 XY-routed mesh
//! (Section VII-B) and leaves network-level fault handling to future
//! work. This crate supplies that complement. A [`Topology`] is one
//! struct whatever the family: a rectangular coordinate grid, a
//! per-(node, side) link table naming each neighbour and the link's
//! [`LinkClass`] where it is not the default, liveness bits, and one of
//! two routing rules —
//!
//! * **dimension order** ([`dor`]): XY on the mesh and the chiplet mesh
//!   (the paper's configuration when the grid is 8×8), and the shorter
//!   way round each ring with *dateline* virtual-channel classes on the
//!   torus (ARCHITECTURE.md §4);
//! * **up\*/down\*** tables over whatever links the graph has — the
//!   classic scheme for irregular networks, used by the cut mesh, the
//!   chiplet star and the adaptive escape network, and recomputed when
//!   a router dies or a link is cut.
//!
//! Each family is one constructor ([`Topology::mesh`],
//! [`Topology::torus`], [`Topology::chiplet_mesh`],
//! [`Topology::cut_mesh`], [`Topology::chiplet_star`],
//! [`Topology::escape_mesh`]); [`Topology::from_spec`] maps a
//! configuration onto them. No query dispatches on the family.
//!
//! Routes are `(output direction, VC class)` pairs: the torus restricts
//! the downstream VCs a hop may use; the others leave the class
//! unconstrained. The router core turns the class into a bitmask over
//! its `V` virtual channels.
//!
//! Everything here is pure data + arithmetic: the simulator owns wires
//! and credits, the router core owns the pipeline. A `Topology` is
//! immutable once built — declaring a router dead
//! ([`Topology::with_dead`]) or cutting a link produces a *new* value,
//! with recomputed tables under up\*/down\*, which the simulator swaps
//! in atomically. That value is the network's one record of which
//! links and routers are alive.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dor;
mod family;
mod updown;

use noc_types::{Coord, Direction, LinkClass, Mesh};
use updown::UpDown;

/// Which class of downstream virtual channels a routed hop may use.
///
/// Classes split the `V` VCs of a port into a lower half (`0 .. V/2`)
/// and an upper half (`V/2 .. V`). The torus dateline scheme assigns
/// every hop one of the halves; meshes and irregular graphs don't need
/// the restriction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VcClass {
    /// Any VC of the downstream port.
    Any,
    /// Only VCs `0 .. V/2` (torus: the packet still has the current
    /// dimension's dateline ahead of it).
    Lower,
    /// Only VCs `V/2 .. V` (torus: the packet has crossed — or will
    /// never cross — the current dimension's dateline).
    Upper,
}

impl VcClass {
    /// The bitmask over VC indices `0..vcs` this class permits.
    ///
    /// `Lower`/`Upper` require `vcs >= 2` (validated by
    /// `NetworkConfig::validate` for the torus).
    #[inline]
    pub fn mask(self, vcs: usize) -> u32 {
        debug_assert!((1..=32).contains(&vcs));
        let all = if vcs >= 32 { !0 } else { (1u32 << vcs) - 1 };
        match self {
            VcClass::Any => all,
            VcClass::Lower => (1u32 << (vcs / 2)) - 1,
            VcClass::Upper => all & !((1u32 << (vcs / 2)) - 1),
        }
    }
}

/// The four non-local directions, in link-table column order.
const SIDES: [Direction; 4] = [
    Direction::North,
    Direction::East,
    Direction::South,
    Direction::West,
];

/// The link-table column of `dir` (`None` for `Local`).
#[inline]
fn side(dir: Direction) -> Option<usize> {
    (dir as usize).checked_sub(1)
}

/// The link-table column of a side.
fn slot(dir: Direction) -> usize {
    side(dir).expect("the local port is not a link")
}

/// One link out of a node (16 bytes).
#[derive(Debug, Clone, Copy)]
struct Link {
    /// The node the link reaches.
    to: u32,
    /// The link's class; `None` is the uniform default.
    class: Option<LinkClass>,
}

/// How a topology routes.
#[derive(Debug, Clone)]
enum Rule {
    /// Dimension order over the grid coordinates; `wrap` takes the
    /// shorter way round each ring and adds the dateline classes.
    Dor {
        /// Torus rings rather than mesh lines.
        wrap: bool,
    },
    /// Precomputed up\*/down\* tables over the link table.
    UpDown(UpDown),
}

/// A concrete network graph: nodes embedded in a rectangular grid,
/// links, liveness, and a deterministic deadlock-free routing function.
#[derive(Debug, Clone)]
pub struct Topology {
    grid: Mesh,
    tag: &'static str,
    /// `links[node][side]`: the link out of `node` through a side.
    links: Vec<[Option<Link>; 4]>,
    /// Routers that participate in routing (dead ones stay in the graph
    /// but are never transited).
    alive: Vec<bool>,
    rule: Rule,
}

impl Topology {
    /// The bounding coordinate grid (id ↔ coordinate mapping is always
    /// the grid's row-major one, independent of which links exist).
    #[inline]
    pub fn grid(&self) -> Mesh {
        self.grid
    }

    /// Number of nodes (dead routers included — they keep their id).
    #[inline]
    pub fn len(&self) -> usize {
        self.grid.len()
    }

    /// Whether the topology has no nodes (never: grids are non-empty).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// A short lowercase tag (`mesh` / `torus` / `irregular` /
    /// `chipletmesh` / `chipletstar`).
    pub fn tag(&self) -> &'static str {
        self.tag
    }

    /// The node reached by leaving `node` through `dir`, if such a link
    /// exists. `Local` never has a link.
    #[inline]
    pub fn link(&self, node: usize, dir: Direction) -> Option<usize> {
        self.links[node][side(dir)?].map(|l| l.to as usize)
    }

    /// The non-default link class of the link leaving `node` through
    /// `dir`, if any: `None` means the uniform default
    /// (`NetworkConfig::link_latency`, full width). Links are
    /// symmetric — the reverse hop has the same class — so credits
    /// returning upstream see the same latency as the flits they pay
    /// for.
    pub fn link_class(&self, node: usize, dir: Direction) -> Option<LinkClass> {
        self.links[node][side(dir)?]?.class
    }

    /// Number of bidirectional links.
    pub fn link_count(&self) -> usize {
        self.links.iter().flatten().flatten().count() / 2
    }

    /// Route one hop: the output direction a packet at `node` headed for
    /// `dst` must take, and the class of downstream VCs it may claim.
    ///
    /// Deterministic and total; `node == dst` routes `Local`, and so
    /// does a `dst` the tables cannot reach.
    #[inline]
    pub fn route(&self, node: usize, dst: usize) -> (Direction, VcClass) {
        match &self.rule {
            Rule::Dor { wrap } => dor::route(self.grid, node, dst, *wrap),
            Rule::UpDown(t) => (t.next[node * self.len() + dst], VcClass::Any),
        }
    }

    /// Whether a packet injected at `node` can reach `dst` under this
    /// topology's routing (always true under dimension order).
    #[inline]
    pub fn reachable(&self, node: usize, dst: usize) -> bool {
        match &self.rule {
            Rule::Dor { .. } => true,
            Rule::UpDown(t) => t.reach[node * self.len() + dst],
        }
    }

    /// The minimal-quadrant candidate directions for a packet at `node`
    /// headed to `dst`, as a [`dor::dir_bit`] mask: every dimension
    /// still unresolved contributes the direction dimension-order
    /// routing would take in it. Empty when `node == dst` (the caller
    /// ejects locally) and on table-routed topologies, whose
    /// up\*/down\* tables are already fault-aware and whose up-then-down
    /// legality a quadrant would break.
    #[inline]
    pub fn candidate_mask(&self, node: usize, dst: usize) -> u8 {
        match self.rule {
            Rule::Dor { wrap } => dor::candidates(self.grid, node, dst, wrap),
            Rule::UpDown(_) => 0,
        }
    }

    /// Whether adaptive candidate routing applies (dimension-order
    /// topologies yes; table-routed ones keep their static up\*/down\*
    /// routes even in adaptive mode).
    #[inline]
    pub fn supports_adaptive(&self) -> bool {
        matches!(self.rule, Rule::Dor { .. })
    }

    /// Whether `node` is alive. A dead node is never transited: the
    /// up\*/down\* tables route around it, and adaptive routing stops
    /// offering the links into it ([`Topology::live_mask`]). This is
    /// the network's one record of router deaths on every family,
    /// including the dimension-order ones, whose routes never read it.
    #[inline]
    pub fn is_alive(&self, node: usize) -> bool {
        self.alive[node]
    }

    /// The directions out of `node` whose link is still in the table
    /// and reaches an alive node, as a [`dor::dir_bit`] mask: the links
    /// adaptive routing may offer. A link into a dead node is not live;
    /// a dead node's own links to alive neighbours are, so its buffered
    /// flits can drain.
    #[inline]
    pub fn live_mask(&self, node: usize) -> u8 {
        self.neighbours(node)
            .filter(|&(_, m)| self.alive[m])
            .fold(0, |mask, (dir, _)| mask | dor::dir_bit(dir))
    }

    /// The ids of all alive nodes, in grid (row-major) order — the node
    /// set traffic generators sample from and the canonical order the
    /// sharded stepper partitions.
    pub fn alive_nodes(&self) -> Vec<usize> {
        (0..self.len()).filter(|&n| self.is_alive(n)).collect()
    }

    /// A new topology with `node` declared dead. The dead router keeps
    /// its id and links so packets already queued inside it can drain,
    /// and packets addressed *to* it are still routed toward it where a
    /// path exists.
    ///
    /// Up\*/down\* tables are recomputed with the node excluded as a
    /// transit node, under the *same* orientation, so packets routed
    /// under the old tables and the new ones share one legal set in
    /// flight. Dimension order cannot detour, so there the kill only
    /// clears the node's alive bit: every route stays as it was.
    ///
    /// # Panics
    /// Panics if the node is out of range, or if removing it
    /// disconnects a pair of alive routers under up\*/down\* tables.
    pub fn with_dead(&self, node: usize) -> Topology {
        assert!(node < self.len(), "dead node id out of range");
        let mut topo = self.clone();
        topo.alive[node] = false;
        if let Rule::UpDown(t) = &self.rule {
            topo.orient(t.level.clone());
            if let Some((n, d)) = topo.unrouted_pair() {
                panic!("declaring router {node} dead disconnects {n} from {d}");
            }
        }
        topo
    }

    /// A copy of the topology with the bidirectional link `node → dir`
    /// removed and the routing tables recomputed around it — the
    /// link-fault counterpart of [`Topology::with_dead`].
    ///
    /// The orientation is kept when it can be, for the same reason as
    /// there. When the fixed orientation leaves some alive pair
    /// unroutable (a node whose every remaining link points down cannot
    /// climb), the orientation is recomputed from scratch instead — a
    /// fresh BFS over the cut graph always routes every alive pair, at
    /// the cost of a one-shot table swap that in-flight traffic
    /// re-reads at its next hop. If the cut isolates an endpoint (its
    /// last link), that endpoint is quarantined as dead instead of
    /// failing — a node fault *is* the fault of all its incident links.
    ///
    /// On a dimension-order topology the cut is a wiring-only edit:
    /// its routes never read the link table, so every route stays as it
    /// was, and only [`Topology::link`] and [`Topology::live_mask`]
    /// change. Errors on a link that does not exist, and when the cut
    /// splits an up\*/down\* graph's alive nodes into larger pieces;
    /// callers keep the old topology then.
    pub fn with_cut_link(&self, node: usize, dir: Direction) -> Result<Topology, String> {
        let Some(other) = self.link(node, dir) else {
            return Err(format!("no active link out of router {node} through {dir}"));
        };
        let mut topo = self.clone();
        topo.cut(node, dir);
        let Rule::UpDown(t) = &self.rule else {
            return Ok(topo);
        };
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
        topo.orient(t.level.clone());
        if topo.unrouted_pair().is_some() {
            // Re-root at the lowest-numbered alive router.
            let root = topo.alive.iter().position(|&a| a).expect("a node is alive");
            topo.orient(updown::levels(&topo, root));
            debug_assert!(topo.unrouted_pair().is_none());
        }
        Ok(topo)
    }

    /// The coordinate of `node`.
    #[inline]
    fn coord(&self, node: usize) -> Coord {
        self.grid.coord_of(noc_types::RouterId(node as u16))
    }

    /// Remove the bidirectional link `node → dir`, returning it.
    ///
    /// # Panics
    /// Panics if the link does not exist.
    fn cut(&mut self, node: usize, dir: Direction) -> Link {
        let link = self.links[node][slot(dir)]
            .take()
            .unwrap_or_else(|| panic!("no link {} {dir} to cut", self.coord(node)));
        self.links[link.to as usize][slot(dir.opposite())] = None;
        link
    }

    /// Put back the link [`Topology::cut`] removed from `node → dir`.
    fn uncut(&mut self, node: usize, dir: Direction, link: Link) {
        let back = Link {
            to: node as u32,
            ..link
        };
        self.links[node][slot(dir)] = Some(link);
        self.links[link.to as usize][slot(dir.opposite())] = Some(back);
    }

    /// Linked neighbours of `node`, as `(direction, neighbour id)`.
    fn neighbours(&self, node: usize) -> impl Iterator<Item = (Direction, usize)> + '_ {
        SIDES
            .into_iter()
            .zip(&self.links[node])
            .filter_map(|(dir, l)| l.map(|l| (dir, l.to as usize)))
    }

    /// Whether all alive nodes form one connected component over the
    /// links (dead nodes don't count and don't conduct).
    fn is_connected(&self) -> bool {
        let Some(start) = (0..self.len()).find(|&i| self.alive[i]) else {
            return true;
        };
        let mut seen = vec![false; self.len()];
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
        count == self.alive.iter().filter(|&&a| a).count()
    }

    /// Route by up\*/down\* tables built over the current links and
    /// liveness under the orientation `level`.
    fn orient(&mut self, level: Vec<u32>) {
        self.rule = Rule::UpDown(UpDown::new(self, level));
    }

    /// An alive `(source, destination)` pair the routing cannot serve.
    fn unrouted_pair(&self) -> Option<(usize, usize)> {
        let n = self.len();
        let alive = |i: &usize| self.alive[*i];
        (0..n)
            .filter(alive)
            .flat_map(|s| (0..n).filter(alive).map(move |d| (s, d)))
            .find(|&(s, d)| !self.reachable(s, d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_types::{NetworkConfig, TopologySpec};

    #[test]
    fn vc_class_masks_partition_the_vcs() {
        for vcs in [2usize, 3, 4, 8, 32] {
            let any = VcClass::Any.mask(vcs);
            let lo = VcClass::Lower.mask(vcs);
            let hi = VcClass::Upper.mask(vcs);
            assert_eq!(lo | hi, any, "classes cover all VCs (vcs={vcs})");
            assert_eq!(lo & hi, 0, "classes are disjoint (vcs={vcs})");
            assert!(lo != 0 && hi != 0, "both classes non-empty (vcs={vcs})");
            assert_eq!(any.count_ones() as usize, vcs);
        }
    }

    #[test]
    fn from_spec_builds_each_family() {
        let mut cfg = NetworkConfig::paper();
        assert_eq!(Topology::from_spec(&cfg).tag(), "mesh");
        cfg.topology = TopologySpec::Torus { w: 4, h: 4 };
        assert_eq!(Topology::from_spec(&cfg).tag(), "torus");
        cfg.topology = TopologySpec::CutMesh {
            w: 4,
            h: 4,
            cuts: 2,
            seed: 7,
        };
        let t = Topology::from_spec(&cfg);
        assert_eq!(t.tag(), "irregular");
        assert_eq!(t.len(), 16);
        assert_eq!(t.alive_nodes().len(), 16);
    }

    #[test]
    fn mesh_links_match_grid_neighbours() {
        let cfg = NetworkConfig::paper();
        let t = Topology::from_spec(&cfg);
        let g = t.grid();
        for n in 0..t.len() {
            let c = g.coord_of(noc_types::RouterId(n as u16));
            for d in Direction::ALL {
                assert_eq!(t.link(n, d), g.neighbour(c, d).map(|id| id.index()));
            }
        }
    }

    #[test]
    fn torus_links_wrap_and_are_symmetric() {
        let mut cfg = NetworkConfig::paper();
        cfg.topology = TopologySpec::Torus { w: 4, h: 3 };
        let t = Topology::from_spec(&cfg);
        for n in 0..t.len() {
            for d in SIDES {
                let m = t.link(n, d).expect("every torus port is wired");
                assert_eq!(t.link(m, d.opposite()), Some(n), "symmetric link");
            }
        }
        // Wraparound spot check: (0,0) west → (3,0) = id 3.
        assert_eq!(t.link(0, Direction::West), Some(3));
        assert!(t.supports_adaptive());
    }

    fn chiplet_mesh_cfg(k_chip: u8, k_node: u8) -> NetworkConfig {
        let mut cfg = NetworkConfig::paper();
        cfg.topology = TopologySpec::ChipletMesh {
            k_chip,
            k_node,
            d2d: LinkClass::D2D_DEFAULT,
        };
        cfg
    }

    fn chiplet_star_cfg(chiplets: u8, k_node: u8) -> NetworkConfig {
        let mut cfg = NetworkConfig::paper();
        cfg.topology = TopologySpec::ChipletStar {
            chiplets,
            k_node,
            d2d: LinkClass::D2D_DEFAULT,
            hub: LinkClass::HUB_DEFAULT,
        };
        cfg
    }

    #[test]
    fn chiplet_mesh_is_a_full_mesh_with_classed_boundaries() {
        let t = Topology::from_spec(&chiplet_mesh_cfg(2, 4));
        assert_eq!(t.tag(), "chipletmesh");
        assert_eq!(t.len(), 64);
        let g = t.grid();
        let mut d2d_links = 0;
        for n in 0..t.len() {
            let c = g.coord_of(noc_types::RouterId(n as u16));
            for d in Direction::ALL {
                // Wiring is exactly the full mesh's.
                assert_eq!(t.link(n, d), g.neighbour(c, d).map(|id| id.index()));
                // Link classes are symmetric across every link.
                if let Some(m) = t.link(n, d) {
                    assert_eq!(
                        t.link_class(n, d),
                        t.link_class(m, d.opposite()),
                        "asymmetric class on {n}→{m}"
                    );
                    if t.link_class(n, d).is_some() {
                        d2d_links += 1;
                    }
                }
            }
            // Routing is XY on the global grid.
            for dst in 0..t.len() {
                let to = g.coord_of(noc_types::RouterId(dst as u16));
                assert_eq!(t.route(n, dst), (g.xy_route(c, to), VcClass::Any));
            }
        }
        // 2×2 chiplets of side 4: one 4-wide seam per axis per chiplet
        // pair = 2 seams × 8 links... counted from both endpoints.
        assert_eq!(d2d_links, 2 * 2 * 4 * 2);
        // The seams sit after x = 3 and y = 3, and nowhere else.
        let id = |x, y| g.id_of(Coord::new(x, y)).index();
        let d2d = Some(LinkClass::D2D_DEFAULT);
        assert_eq!(t.link_class(id(3, 1), Direction::East), d2d);
        assert_eq!(t.link_class(id(4, 1), Direction::West), d2d);
        assert_eq!(t.link_class(id(2, 3), Direction::South), d2d);
        assert_eq!(t.link_class(id(2, 4), Direction::North), d2d);
        assert_eq!(t.link_class(id(1, 1), Direction::East), None);
        assert_eq!(t.link_class(id(5, 6), Direction::North), None);
        assert_eq!(t.link_class(id(3, 3), Direction::Local), None);
    }

    #[test]
    fn chiplet_star_routes_between_dies_through_the_hub() {
        let t = Topology::from_spec(&chiplet_star_cfg(3, 3));
        assert_eq!(t.tag(), "chipletstar");
        let g = t.grid();
        assert_eq!((g.w, g.h), (9, 4));
        // No direct chiplet-to-chiplet links.
        for y in 0..3u8 {
            for boundary in [2u8, 5] {
                let n = g.id_of(Coord::new(boundary, y)).index();
                assert_eq!(t.link(n, Direction::East), None);
            }
        }
        // Every cross-die route transits the hub row, and every pair
        // routes (walk the tables like the irregular suite does).
        for s in 0..t.len() {
            for dst in 0..t.len() {
                assert!(t.reachable(s, dst));
                let mut here = s;
                let mut hops = 0;
                let mut saw_hub = false;
                while here != dst {
                    let (dir, _) = t.route(here, dst);
                    here = t.link(here, dir).expect("route follows live links");
                    if g.coord_of(noc_types::RouterId(here as u16)).y == 3 {
                        saw_hub = true;
                    }
                    hops += 1;
                    assert!(hops <= 2 * t.len(), "route {s}→{dst} did not terminate");
                }
                let (cs, cd) = (
                    g.coord_of(noc_types::RouterId(s as u16)),
                    g.coord_of(noc_types::RouterId(dst as u16)),
                );
                if cs.y < 3 && cd.y < 3 && cs.x / 3 != cd.x / 3 {
                    assert!(saw_hub, "cross-die route {s}→{dst} skipped the hub");
                }
            }
        }
        // Link classes: hub row horizontal = hub, verticals into the
        // hub = d2d, intra-chiplet = default.
        let id = |x, y| g.id_of(Coord::new(x, y)).index();
        let hub = Some(LinkClass::HUB_DEFAULT);
        let d2d = Some(LinkClass::D2D_DEFAULT);
        assert_eq!(t.link_class(id(4, 3), Direction::East), hub);
        assert_eq!(t.link_class(id(1, 3), Direction::East), hub);
        assert_eq!(t.link_class(id(4, 3), Direction::North), d2d);
        assert_eq!(t.link_class(id(4, 2), Direction::South), d2d);
        assert_eq!(t.link_class(id(1, 1), Direction::East), None);
        assert_eq!(t.link_class(id(1, 1), Direction::South), None);
    }

    #[test]
    fn chiplet_star_survives_a_mid_die_kill() {
        let t = Topology::from_spec(&chiplet_star_cfg(2, 3));
        let g = t.grid();
        let dead = g.id_of(Coord::new(1, 1)).index();
        let t = t.with_dead(dead);
        assert_eq!(t.tag(), "chipletstar");
        assert!(!t.is_alive(dead));
        for s in 0..t.len() {
            for dst in 0..t.len() {
                if s != dead {
                    assert!(t.reachable(s, dst), "{s}→{dst} lost after kill");
                }
            }
        }
    }

    #[test]
    fn flat_topologies_have_no_classed_links() {
        for t in [
            Topology::mesh(8, 8),
            Topology::torus(4, 3),
            Topology::cut_mesh(5, 5, 4, 1),
            Topology::escape_mesh(3, 3),
        ] {
            for n in 0..t.len() {
                for d in Direction::ALL {
                    assert_eq!(t.link_class(n, d), None);
                }
            }
        }
    }

    #[test]
    fn mesh_route_agrees_with_xy() {
        let cfg = NetworkConfig::paper();
        let t = Topology::from_spec(&cfg);
        let g = t.grid();
        for n in 0..t.len() {
            for d in 0..t.len() {
                let (dir, class) = t.route(n, d);
                let here = g.coord_of(noc_types::RouterId(n as u16));
                let to = g.coord_of(noc_types::RouterId(d as u16));
                assert_eq!(dir, g.xy_route(here, to));
                assert_eq!(class, VcClass::Any);
            }
        }
    }

    /// The three dimension-order families on a 4×4 grid.
    fn grid_families() -> [Topology; 3] {
        [
            Topology::mesh(4, 4),
            Topology::torus(4, 4),
            Topology::chiplet_mesh(2, 2, LinkClass::D2D_DEFAULT),
        ]
    }

    fn assert_same_routes(a: &Topology, b: &Topology) {
        for n in 0..a.len() {
            for d in 0..a.len() {
                assert_eq!(a.route(n, d), b.route(n, d), "{} route {n}→{d}", a.tag());
                assert_eq!(a.candidate_mask(n, d), b.candidate_mask(n, d));
            }
        }
    }

    /// Dimension order cannot detour: a cut on a grid family is a
    /// wiring-only edit. The link is gone from both ends, and every
    /// route is unchanged.
    #[test]
    fn grid_families_refuse_to_detour() {
        for t in grid_families() {
            let cut = t.with_cut_link(5, Direction::East).expect("a wiring edit");
            assert_eq!(cut.link(5, Direction::East), None);
            assert_eq!(cut.link(6, Direction::West), None);
            assert_eq!(cut.link_count(), t.link_count() - 1);
            assert_eq!(
                cut.live_mask(5),
                t.live_mask(5) & !dor::dir_bit(Direction::East)
            );
            assert_same_routes(&t, &cut);
            assert!(
                cut.with_cut_link(5, Direction::East).is_err(),
                "already cut"
            );
        }
    }

    /// A router kill on a grid family clears the node's alive bit and
    /// nothing else: every route is unchanged, the neighbours stop
    /// offering the links into the dead node, and the dead node's own
    /// links stay live so its buffers can drain.
    #[test]
    fn grid_families_record_a_dead_router_without_rerouting() {
        for t in grid_families() {
            let dead = t.with_dead(5);
            assert!(!dead.is_alive(5) && dead.alive_nodes().len() == t.len() - 1);
            assert_same_routes(&t, &dead);
            assert_eq!(dead.live_mask(5), t.live_mask(5));
            for (dir, m) in t.neighbours(5) {
                let back = dor::dir_bit(dir.opposite());
                assert_eq!(t.live_mask(m) & back, back);
                assert_eq!(
                    dead.live_mask(m) & back,
                    0,
                    "{} {m} still offers 5",
                    t.tag()
                );
            }
        }
    }

    #[test]
    fn link_count_counts_each_link_once() {
        assert_eq!(Topology::mesh(8, 8).link_count(), 2 * 8 * 7);
        assert_eq!(Topology::torus(4, 3).link_count(), 2 * 4 * 3);
        assert_eq!(Topology::cut_mesh(8, 8, 4, 42).link_count(), 2 * 8 * 7 - 4);
    }
}
