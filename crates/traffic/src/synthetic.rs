//! Synthetic destination patterns.
//!
//! The classic NoC evaluation patterns (Dally & Towles, ch. 3). Each
//! pattern maps a source coordinate to a destination; stochastic
//! patterns (uniform, hotspot) take the RNG.

use noc_types::{Coord, Mesh};
use rand::Rng;

/// A synthetic destination pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SyntheticPattern {
    /// Every other node equally likely.
    UniformRandom,
    /// Matrix transpose of the node index (`(x, y) → (y, x)` on square
    /// grids; the index map `y·w + x → x·h + y` in general).
    Transpose,
    /// Bitwise complement of the node index (within the mesh).
    BitComplement,
    /// Bit-reversal of the node index.
    BitReverse,
    /// Perfect shuffle (rotate node-index bits left by one).
    Shuffle,
    /// Half-way around the ring in each dimension.
    Tornado,
    /// Nearest neighbour: `(x+1, y)` with wraparound.
    Neighbour,
    /// A fraction of traffic targets a single hot node; the rest is
    /// uniform.
    Hotspot {
        /// Probability that a packet goes to the hotspot node.
        fraction: f64,
    },
}

impl SyntheticPattern {
    /// The destination for a packet from `src` under this pattern.
    /// Self-addressed results are remapped by the caller (the generator
    /// redraws or skips them).
    pub fn destination(&self, src: Coord, mesh: Mesh, rng: &mut impl Rng) -> Coord {
        let (w, h) = (mesh.w, mesh.h);
        match *self {
            SyntheticPattern::UniformRandom => loop {
                let d = Coord::new(rng.random_range(0..w), rng.random_range(0..h));
                if d != src || mesh.len() == 1 {
                    return d;
                }
            },
            SyntheticPattern::Transpose => {
                let ix = src.x as u16 * h as u16 + src.y as u16;
                mesh.coord_of(noc_types::RouterId(ix))
            }
            SyntheticPattern::BitComplement => {
                let n = mesh.len() as u16;
                let ix = mesh.id_of(src).0;
                mesh.coord_of(noc_types::RouterId((n - 1) ^ ix & (n - 1)))
            }
            SyntheticPattern::BitReverse => {
                let bits = (mesh.len() as f64).log2().round() as u32;
                let ix = mesh.id_of(src).0 as u32;
                let rev = ix.reverse_bits() >> (32 - bits);
                mesh.coord_of(noc_types::RouterId(rev as u16))
            }
            SyntheticPattern::Shuffle => {
                let bits = (mesh.len() as f64).log2().round() as u32;
                let ix = mesh.id_of(src).0 as u32;
                let shuffled = ((ix << 1) | (ix >> (bits - 1))) & ((1 << bits) - 1);
                mesh.coord_of(noc_types::RouterId(shuffled as u16))
            }
            SyntheticPattern::Tornado => Coord::new(
                ((src.x as u16 + (w as u16 - 1) / 2) % w as u16) as u8,
                src.y,
            ),
            SyntheticPattern::Neighbour => Coord::new((src.x + 1) % w, src.y),
            SyntheticPattern::Hotspot { fraction } => {
                let hot = Coord::new(w / 2, h / 2);
                if rng.random::<f64>() < fraction && src != hot {
                    hot
                } else {
                    loop {
                        let d = Coord::new(rng.random_range(0..w), rng.random_range(0..h));
                        if d != src || mesh.len() == 1 {
                            return d;
                        }
                    }
                }
            }
        }
    }

    /// Whether the pattern requires a power-of-two number of nodes.
    pub fn needs_pow2(&self) -> bool {
        matches!(
            self,
            SyntheticPattern::BitComplement
                | SyntheticPattern::BitReverse
                | SyntheticPattern::Shuffle
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mesh() -> Mesh {
        Mesh::new(8)
    }

    #[test]
    fn uniform_never_self_addresses() {
        let mut rng = StdRng::seed_from_u64(1);
        let src = Coord::new(3, 3);
        for _ in 0..500 {
            let d = SyntheticPattern::UniformRandom.destination(src, mesh(), &mut rng);
            assert_ne!(d, src);
        }
    }

    #[test]
    fn transpose_swaps_coordinates() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = SyntheticPattern::Transpose.destination(Coord::new(2, 5), mesh(), &mut rng);
        assert_eq!(d, Coord::new(5, 2));
    }

    #[test]
    fn transpose_is_a_permutation_on_rectangles() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = Mesh::rect(4, 6);
        let dests: std::collections::HashSet<Coord> = m
            .coords()
            .map(|src| SyntheticPattern::Transpose.destination(src, m, &mut rng))
            .collect();
        assert_eq!(dests.len(), m.len(), "index transpose must be a bijection");
    }

    #[test]
    fn uniform_stays_inside_rectangular_grids() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = Mesh::rect(3, 7);
        let src = Coord::new(1, 1);
        for _ in 0..500 {
            let d = SyntheticPattern::UniformRandom.destination(src, m, &mut rng);
            assert!(d.x < 3 && d.y < 7);
            assert_ne!(d, src);
        }
    }

    #[test]
    fn bit_complement_is_involutive() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = mesh();
        for src in m.coords() {
            let d = SyntheticPattern::BitComplement.destination(src, m, &mut rng);
            let back = SyntheticPattern::BitComplement.destination(d, m, &mut rng);
            assert_eq!(back, src);
        }
    }

    #[test]
    fn bit_reverse_stays_in_mesh() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = mesh();
        for src in m.coords() {
            let d = SyntheticPattern::BitReverse.destination(src, m, &mut rng);
            assert!(d.x < 8 && d.y < 8);
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = mesh();
        let dests: std::collections::HashSet<Coord> = m
            .coords()
            .map(|src| SyntheticPattern::Shuffle.destination(src, m, &mut rng))
            .collect();
        assert_eq!(dests.len(), m.len());
    }

    #[test]
    fn tornado_moves_half_ring() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = SyntheticPattern::Tornado.destination(Coord::new(1, 4), mesh(), &mut rng);
        assert_eq!(d, Coord::new(4, 4)); // (1 + 3) % 8
    }

    #[test]
    fn neighbour_wraps_at_edge() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = SyntheticPattern::Neighbour.destination(Coord::new(7, 2), mesh(), &mut rng);
        assert_eq!(d, Coord::new(0, 2));
    }

    #[test]
    fn hotspot_concentrates_traffic() {
        let mut rng = StdRng::seed_from_u64(1);
        let pattern = SyntheticPattern::Hotspot { fraction: 0.5 };
        let hot = Coord::new(4, 4);
        let src = Coord::new(0, 0);
        let hits = (0..1000)
            .filter(|_| pattern.destination(src, mesh(), &mut rng) == hot)
            .count();
        assert!(hits > 350 && hits < 650, "≈50% to the hotspot, got {hits}");
    }
}
