//! The topology families: one constructor each, and the one map from a
//! configuration onto them.
//!
//! A family is a way of filling the link table — which grid links
//! exist, which of them wrap, which carry a non-default
//! [`LinkClass`] — plus the routing rule that fits it. The link classes
//! are decided here once; the simulator bakes them into its own wiring
//! table at construction, so the hot path never re-derives them.

use crate::{slot, updown, Link, Rule, Topology, SIDES};
use noc_types::{
    splitmix64, Coord, Direction, LinkClass, Mesh, NetworkConfig, RouterId, TopologySpec,
};

impl Topology {
    /// Build the topology a [`NetworkConfig`] describes.
    ///
    /// # Panics
    /// Panics if the config is invalid for its topology (zero-sized
    /// grid, a `CutMesh` whose requested cuts would disconnect it, …).
    pub fn from_spec(cfg: &NetworkConfig) -> Topology {
        let (w, h) = cfg.dims();
        match cfg.topology {
            TopologySpec::MeshK | TopologySpec::Mesh { .. } => Topology::mesh(w, h),
            TopologySpec::Torus { .. } => Topology::torus(w, h),
            TopologySpec::CutMesh { cuts, seed, .. } => Topology::cut_mesh(w, h, cuts, seed),
            TopologySpec::ChipletMesh {
                k_chip,
                k_node,
                d2d,
            } => Topology::chiplet_mesh(k_chip, k_node, d2d),
            TopologySpec::ChipletStar {
                chiplets,
                k_node,
                d2d,
                hub,
            } => Topology::chiplet_star(chiplets, k_node, d2d, hub),
        }
    }

    /// Rectangular `w × h` mesh, XY-routed (the paper's configuration
    /// when `w = h = 8`).
    pub fn mesh(w: u8, h: u8) -> Topology {
        Topology::grid_links(w, h, false, "mesh")
    }

    /// `w × h` torus: wraparound links in both dimensions, dimension
    /// order with the shorter way round each ring, and dateline VC
    /// classes ([`crate::dor`]).
    pub fn torus(w: u8, h: u8) -> Topology {
        Topology::grid_links(w, h, true, "torus")
    }

    /// A `k_chip × k_chip` grid of `k_node × k_node` chiplets: the full
    /// global mesh, XY-routed (deadlock freedom does not depend on
    /// per-link latency), with every link that crosses a chiplet
    /// boundary of class `d2d`.
    pub fn chiplet_mesh(k_chip: u8, k_node: u8, d2d: LinkClass) -> Topology {
        let k = k_chip * k_node;
        let mut topo = Topology::grid_links(k, k, false, "chipletmesh");
        topo.classify(|c, dir| {
            let crosses = match dir {
                Direction::East => (c.x + 1).is_multiple_of(k_node),
                Direction::West => c.x.is_multiple_of(k_node),
                Direction::South => (c.y + 1).is_multiple_of(k_node),
                Direction::North => c.y.is_multiple_of(k_node),
                Direction::Local => false,
            };
            crosses.then_some(d2d)
        });
        topo
    }

    /// A `w × h` mesh with `cuts` links removed, chosen deterministically
    /// from `seed` while keeping the graph connected (candidate cuts that
    /// would disconnect it are skipped), routed up\*/down\* from node 0.
    ///
    /// # Panics
    /// Panics if fewer than `cuts` links can be removed without
    /// disconnecting the graph.
    pub fn cut_mesh(w: u8, h: u8, cuts: u16, seed: u64) -> Topology {
        let mut topo = Topology::mesh(w, h);
        // Candidate pool: every link once, from its west/north endpoint.
        let mut pool: Vec<(usize, Direction)> = (0..topo.len())
            .flat_map(|n| [(n, Direction::East), (n, Direction::South)])
            .filter(|&(n, dir)| topo.link(n, dir).is_some())
            .collect();
        let mut rng = seed ^ 0x9E3779B97F4A7C15;
        let mut done = 0u16;
        while done < cuts && !pool.is_empty() {
            let ix = (splitmix64(&mut rng) % pool.len() as u64) as usize;
            let (n, dir) = pool.swap_remove(ix);
            let link = topo.cut(n, dir);
            if topo.is_connected() {
                done += 1;
            } else {
                topo.uncut(n, dir, link);
            }
        }
        assert!(
            done == cuts,
            "only {done} of {cuts} requested cuts keep the {w}x{h} mesh connected"
        );
        topo.up_down("irregular", 0)
    }

    /// `chiplets` disjoint `k_node × k_node` meshes side by side in rows
    /// `0 .. k_node` (every horizontal link crossing a chiplet boundary
    /// is absent), plus a hub row at `y = k_node` that every bottom-row
    /// router connects down into over a `d2d` link and whose routers
    /// interconnect left-to-right over `hub` links.
    ///
    /// The up\*/down\* orientation is rooted at the hub row's centre
    /// router, so "up" always points toward the hub: legal routes
    /// descend from a chiplet into the hub and back out, which is
    /// exactly the star traffic pattern, and the standard up\*/down\*
    /// acyclicity argument covers the cross-die links.
    pub fn chiplet_star(chiplets: u8, k_node: u8, d2d: LinkClass, hub: LinkClass) -> Topology {
        assert!(chiplets >= 1 && k_node >= 2, "degenerate chiplet star");
        let mut topo = Topology::mesh(chiplets * k_node, k_node + 1);
        for chip in 1..chiplets {
            for y in 0..k_node {
                let seam = Coord::new(chip * k_node - 1, y);
                topo.cut(topo.grid.id_of(seam).index(), Direction::East);
            }
        }
        topo.classify(|c, dir| match dir {
            Direction::East | Direction::West if c.y == k_node => Some(hub),
            Direction::South if c.y + 1 == k_node => Some(d2d),
            Direction::North if c.y == k_node => Some(d2d),
            _ => None,
        });
        let root = topo.grid.id_of(Coord::new(topo.grid.w / 2, k_node));
        topo.up_down("chipletstar", root.index())
    }

    /// A full `w × h` mesh routed up\*/down\* from node 0: the escape
    /// network of adaptive routing, and a mesh that survives
    /// [`Topology::with_dead`].
    pub fn escape_mesh(w: u8, h: u8) -> Topology {
        Topology::mesh(w, h).up_down("irregular", 0)
    }

    /// Every grid link of a `w × h` grid (with the wraparound ones when
    /// `wrap`), default class, dimension-order routed.
    fn grid_links(w: u8, h: u8, wrap: bool, tag: &'static str) -> Topology {
        let grid = Mesh::rect(w, h);
        let links = (0..grid.len())
            .map(|n| {
                let here = RouterId(n as u16);
                let c = grid.coord_of(here);
                SIDES.map(|dir| {
                    let to = if wrap {
                        Some(grid.id_of(c.step_wrapping(dir, w, h)))
                    } else {
                        grid.neighbour(c, dir)
                    };
                    // A 1-wide ring would self-link; the torus validator
                    // forbids those grids, but stay defensive.
                    let to = to.filter(|&id| id != here)?;
                    Some(Link {
                        to: u32::from(to.0),
                        class: None,
                    })
                })
            })
            .collect();
        Topology {
            grid,
            tag,
            links,
            alive: vec![true; grid.len()],
            rule: Rule::Dor { wrap },
        }
    }

    /// Set every existing link's class to `class_of(its source, its
    /// direction)`.
    fn classify(&mut self, class_of: impl Fn(Coord, Direction) -> Option<LinkClass>) {
        for node in 0..self.len() {
            let c = self.coord(node);
            for dir in SIDES {
                if let Some(link) = &mut self.links[node][slot(dir)] {
                    link.class = class_of(c, dir);
                }
            }
        }
    }

    /// This graph routed up\*/down\*, oriented by a BFS from `root`.
    ///
    /// # Panics
    /// Panics if the graph is not connected.
    fn up_down(mut self, tag: &'static str, root: usize) -> Topology {
        let (w, h) = (self.grid.w, self.grid.h);
        assert!(
            self.is_connected(),
            "the requested cuts disconnect the {w}x{h} mesh"
        );
        self.orient(updown::levels(&self, root));
        self.tag = tag;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_cuts_are_deterministic_and_counted() {
        let a = Topology::cut_mesh(8, 8, 4, 42);
        let b = Topology::cut_mesh(8, 8, 4, 42);
        assert_eq!(a.link_count(), 2 * 8 * 7 - 4);
        for n in 0..a.len() {
            for d in 0..a.len() {
                assert_eq!(a.route(n, d), b.route(n, d), "same seed, same tables");
            }
        }
        let c = Topology::cut_mesh(8, 8, 4, 43);
        assert_eq!(c.link_count(), a.link_count(), "same number of cuts");
    }

    #[test]
    #[should_panic(expected = "requested cuts keep the 2x2 mesh connected")]
    fn impossible_cut_counts_panic() {
        // A 2×2 grid has 4 links and needs 3 of them.
        Topology::cut_mesh(2, 2, 2, 0);
    }

    #[test]
    fn an_escape_mesh_is_a_cut_mesh_without_cuts() {
        let (a, b) = (Topology::escape_mesh(5, 4), Topology::cut_mesh(5, 4, 0, 9));
        assert_eq!(a.link_count(), Topology::mesh(5, 4).link_count());
        for n in 0..a.len() {
            for d in 0..a.len() {
                assert_eq!(a.route(n, d), b.route(n, d));
            }
        }
    }
}
