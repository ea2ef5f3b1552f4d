//! Deterministic fault-scenario sampling.
//!
//! A scenario is a set of distinct link faults with onset cycles, drawn
//! from a seeded splitmix64 stream so that the *same* fault set can be
//! replayed under every routing mode: the comparison between static and
//! adaptive routing is paired, not merely distributional.
//!
//! Sampling is rejection-based with a keep-connected filter: a
//! candidate link whose removal (together with the faults already
//! chosen) would disconnect the graph is skipped. Disconnection makes
//! delivery impossible for every routing mode, so such scenarios
//! measure the topology, not the router — the campaign excludes them by
//! construction.

use noc_faults::LinkFaultEvent;
use noc_topology::Topology;
use noc_types::{splitmix64, Cycle, Direction, NetworkConfig, RouterId};

/// The four non-local directions.
const SIDES: [Direction; 4] = [
    Direction::North,
    Direction::East,
    Direction::South,
    Direction::West,
];

/// The sampleable links of one topology, in a canonical order.
pub struct LinkPool {
    topo: Topology,
    /// Each bidirectional link once, named from its canonical endpoint
    /// (the lower router id; a self-wrap tie keeps both directions
    /// distinct, so 2-wide torus double links stay separate).
    links: Vec<(usize, Direction)>,
}

impl LinkPool {
    /// Enumerate the links of the topology `cfg` describes.
    pub fn new(cfg: &NetworkConfig) -> Self {
        let topo = Topology::from_spec(cfg);
        let n = topo.grid().len();
        let mut links = Vec::new();
        for node in 0..n {
            for dir in SIDES {
                if let Some(other) = topo.link(node, dir) {
                    if node < other || (node == other && matches!(dir, Direction::East)) {
                        links.push((node, dir));
                    }
                }
            }
        }
        LinkPool { topo, links }
    }

    /// Number of sampleable links.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether the pool is empty (degenerate single-node topologies).
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Whether removing `cuts` keeps every router connected.
    fn connected_without(&self, cuts: &[(usize, Direction)]) -> bool {
        let n = self.topo.grid().len();
        let is_cut = |node: usize, dir: Direction, other: usize| {
            cuts.iter().any(|&(cn, cd)| {
                (cn == node && cd == dir)
                    || (cn == other && self.topo.link(cn, cd) == Some(node) && cd == dir.opposite())
            })
        };
        let mut seen = vec![false; n];
        let mut queue = vec![0usize];
        seen[0] = true;
        let mut count = 1usize;
        while let Some(u) = queue.pop() {
            for dir in SIDES {
                let Some(v) = self.topo.link(u, dir) else {
                    continue;
                };
                if is_cut(u, dir, v) || seen[v] {
                    continue;
                }
                seen[v] = true;
                count += 1;
                queue.push(v);
            }
        }
        count == n
    }

    /// Draw one scenario: up to `faults` distinct links (fewer if the
    /// keep-connected filter runs out of candidates), each with an
    /// onset cycle uniform in `[0, onset_max)`. Deterministic in
    /// `seed`. A set never holds more faults than the pool has links.
    pub fn sample(&self, seed: u64, faults: usize, onset_max: Cycle) -> Vec<LinkFaultEvent> {
        let mut rng = seed ^ 0x51CA_4D8D_0C95_D1A5;
        let mut chosen: Vec<(usize, Direction)> = Vec::with_capacity(faults.min(self.links.len()));
        let mut tries = 0usize;
        while chosen.len() < faults && tries < 64 * (faults + 1) {
            tries += 1;
            let (node, dir) = self.links[(splitmix64(&mut rng) % self.links.len() as u64) as usize];
            if chosen.contains(&(node, dir)) {
                continue;
            }
            chosen.push((node, dir));
            if !self.connected_without(&chosen) {
                chosen.pop();
            }
        }
        chosen
            .into_iter()
            .map(|(node, dir)| LinkFaultEvent {
                cycle: if onset_max == 0 {
                    0
                } else {
                    splitmix64(&mut rng) % onset_max
                },
                router: RouterId(node as u16),
                dir,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_types::{RoutingMode, TopologySpec};

    fn mesh_cfg(k: u8) -> NetworkConfig {
        let mut cfg = NetworkConfig::paper();
        cfg.mesh_k = k;
        cfg.topology = TopologySpec::Mesh { w: k, h: k };
        cfg.routing = RoutingMode::Adaptive;
        cfg
    }

    #[test]
    fn mesh_pool_counts_every_link_once() {
        let pool = LinkPool::new(&mesh_cfg(4));
        assert_eq!(pool.len(), 2 * 4 * 3);
    }

    #[test]
    fn torus_pool_includes_wrap_links() {
        let mut cfg = mesh_cfg(4);
        cfg.topology = TopologySpec::Torus { w: 4, h: 4 };
        let pool = LinkPool::new(&cfg);
        assert_eq!(pool.len(), 2 * 4 * 4);
    }

    #[test]
    fn sampling_is_deterministic_distinct_and_connected() {
        let pool = LinkPool::new(&mesh_cfg(6));
        let a = pool.sample(0xFEED, 5, 400);
        let b = pool.sample(0xFEED, 5, 400);
        assert_eq!(a, b, "same seed, same scenario");
        assert_eq!(a.len(), 5);
        for (i, x) in a.iter().enumerate() {
            assert!(x.cycle < 400);
            for y in &a[i + 1..] {
                assert!(
                    !(x.router == y.router && x.dir == y.dir),
                    "duplicate fault site"
                );
            }
        }
        let c = pool.sample(0xBEEF, 5, 400);
        assert_ne!(a, c, "different seed, different scenario");
    }

    #[test]
    fn keep_connected_filter_respects_bridges() {
        // A 2×2 mesh is a single 4-cycle: cutting any one link leaves
        // a path graph, and every remaining link is then a bridge. The
        // keep-connected filter must therefore stop at exactly one
        // fault no matter how many were requested.
        let pool = LinkPool::new(&mesh_cfg(2));
        assert_eq!(pool.len(), 4);
        let s = pool.sample(7, 4, 0);
        assert_eq!(
            s.len(),
            1,
            "4 nodes need 3 of the 4 links to stay connected"
        );
    }
}
