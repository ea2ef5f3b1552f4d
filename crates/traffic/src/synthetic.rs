//! Synthetic destination patterns.
//!
//! The classic NoC evaluation patterns (Dally & Towles, ch. 3). Each
//! pattern maps a source coordinate to a destination; stochastic
//! patterns (uniform, hotspot) take the RNG.

use noc_types::rng::Rng;
use noc_types::{Coord, Mesh};

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
    /// Parse a pattern argument for a network of `nodes` nodes — the one
    /// grammar behind the CLI `--pattern` flag and the service spec
    /// field: `uniform` | `uniform_random`, `transpose`,
    /// `bitcomplement` | `bit_complement`, `bitreverse` | `bit_reverse`,
    /// `shuffle`, `tornado`, `neighbour` | `neighbor`, `hotspot` (a
    /// fifth of the traffic) or `hotspot:<fraction>` with the fraction
    /// in `[0, 1]`. The three patterns that permute node-index bits
    /// address nodes off the grid unless the node count is a power of
    /// two, so they are rejected on any other.
    pub fn parse_arg(arg: &str, nodes: usize) -> Result<SyntheticPattern, String> {
        let pattern = match arg {
            "uniform" | "uniform_random" => SyntheticPattern::UniformRandom,
            "transpose" => SyntheticPattern::Transpose,
            "bitcomplement" | "bit_complement" => SyntheticPattern::BitComplement,
            "bitreverse" | "bit_reverse" => SyntheticPattern::BitReverse,
            "shuffle" => SyntheticPattern::Shuffle,
            "tornado" => SyntheticPattern::Tornado,
            "neighbour" | "neighbor" => SyntheticPattern::Neighbour,
            "hotspot" => SyntheticPattern::Hotspot { fraction: 0.2 },
            other => {
                let fraction = other.strip_prefix("hotspot:").ok_or_else(|| {
                    format!(
                        "unrecognised traffic pattern {other:?} (expected uniform | transpose \
                         | bitcomplement | bitreverse | shuffle | tornado | neighbour \
                         | hotspot[:<fraction>])"
                    )
                })?;
                // NaN is in no range, so it is rejected with the rest.
                match fraction.parse() {
                    Ok(fraction) if (0.0..=1.0).contains(&fraction) => {
                        SyntheticPattern::Hotspot { fraction }
                    }
                    _ => return Err(format!("hotspot fraction in {other:?} is not in [0, 1]")),
                }
            }
        };
        if pattern.needs_pow2() && !nodes.is_power_of_two() {
            return Err(format!(
                "pattern {arg:?} permutes the bits of a node index and needs a \
                 power-of-two node count; this network has {nodes} nodes"
            ));
        }
        Ok(pattern)
    }

    /// The destination for a packet from `src` under this pattern.
    /// Self-addressed results are remapped by the caller (the generator
    /// redraws or skips them).
    pub fn destination(&self, src: Coord, mesh: Mesh, rng: &mut Rng) -> Coord {
        let (w, h) = (mesh.w, mesh.h);
        match *self {
            SyntheticPattern::UniformRandom => uniform_other(src, mesh, rng),
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
                if rng.next_f64() < fraction && src != hot {
                    hot
                } else {
                    uniform_other(src, mesh, rng)
                }
            }
        }
    }

    /// Whether the pattern requires a power-of-two number of nodes.
    fn needs_pow2(&self) -> bool {
        matches!(
            self,
            SyntheticPattern::BitComplement
                | SyntheticPattern::BitReverse
                | SyntheticPattern::Shuffle
        )
    }
}

/// A uniformly drawn node other than `src` (`src` itself on a 1-node
/// mesh), redrawing until one is found.
fn uniform_other(src: Coord, mesh: Mesh, rng: &mut Rng) -> Coord {
    loop {
        let d = Coord::new(
            rng.below(mesh.w.into()) as u8,
            rng.below(mesh.h.into()) as u8,
        );
        if d != src || mesh.len() == 1 {
            return d;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Mesh {
        Mesh::new(8)
    }

    #[test]
    fn uniform_never_self_addresses() {
        let mut rng = Rng::seeded(1);
        let src = Coord::new(3, 3);
        for _ in 0..500 {
            let d = SyntheticPattern::UniformRandom.destination(src, mesh(), &mut rng);
            assert_ne!(d, src);
        }
    }

    #[test]
    fn transpose_swaps_coordinates() {
        let mut rng = Rng::seeded(1);
        let d = SyntheticPattern::Transpose.destination(Coord::new(2, 5), mesh(), &mut rng);
        assert_eq!(d, Coord::new(5, 2));
    }

    #[test]
    fn transpose_is_a_permutation_on_rectangles() {
        let mut rng = Rng::seeded(1);
        let m = Mesh::rect(4, 6);
        let dests: std::collections::HashSet<Coord> = m
            .coords()
            .map(|src| SyntheticPattern::Transpose.destination(src, m, &mut rng))
            .collect();
        assert_eq!(dests.len(), m.len(), "index transpose must be a bijection");
    }

    #[test]
    fn uniform_stays_inside_rectangular_grids() {
        let mut rng = Rng::seeded(3);
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
        let mut rng = Rng::seeded(1);
        let m = mesh();
        for src in m.coords() {
            let d = SyntheticPattern::BitComplement.destination(src, m, &mut rng);
            let back = SyntheticPattern::BitComplement.destination(d, m, &mut rng);
            assert_eq!(back, src);
        }
    }

    #[test]
    fn bit_reverse_stays_in_mesh() {
        let mut rng = Rng::seeded(1);
        let m = mesh();
        for src in m.coords() {
            let d = SyntheticPattern::BitReverse.destination(src, m, &mut rng);
            assert!(d.x < 8 && d.y < 8);
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seeded(1);
        let m = mesh();
        let dests: std::collections::HashSet<Coord> = m
            .coords()
            .map(|src| SyntheticPattern::Shuffle.destination(src, m, &mut rng))
            .collect();
        assert_eq!(dests.len(), m.len());
    }

    #[test]
    fn tornado_moves_half_ring() {
        let mut rng = Rng::seeded(1);
        let d = SyntheticPattern::Tornado.destination(Coord::new(1, 4), mesh(), &mut rng);
        assert_eq!(d, Coord::new(4, 4)); // (1 + 3) % 8
    }

    #[test]
    fn neighbour_wraps_at_edge() {
        let mut rng = Rng::seeded(1);
        let d = SyntheticPattern::Neighbour.destination(Coord::new(7, 2), mesh(), &mut rng);
        assert_eq!(d, Coord::new(0, 2));
    }

    #[test]
    fn parse_arg_accepts_both_spellings_and_checks_the_grid() {
        use SyntheticPattern::*;
        for (a, b, pattern) in [
            ("uniform", "uniform_random", UniformRandom),
            ("bitcomplement", "bit_complement", BitComplement),
            ("bitreverse", "bit_reverse", BitReverse),
            ("neighbour", "neighbor", Neighbour),
            ("hotspot", "hotspot:0.2", Hotspot { fraction: 0.2 }),
        ] {
            assert_eq!(SyntheticPattern::parse_arg(a, 64), Ok(pattern));
            assert_eq!(SyntheticPattern::parse_arg(b, 64), Ok(pattern));
        }
        for ok in ["hotspot:0", "hotspot:1", "transpose", "shuffle", "tornado"] {
            assert!(SyntheticPattern::parse_arg(ok, 16).is_ok(), "{ok}");
        }
        for bad in [
            "hotspot:NaN",
            "hotspot:-1",
            "hotspot:7",
            "hotspot:",
            "zigzag",
            "",
        ] {
            assert!(SyntheticPattern::parse_arg(bad, 64).is_err(), "{bad:?}");
        }
        // 5x5 and 6x6 grids: the bit permutations would leave the grid.
        for nodes in [25, 36] {
            for name in ["bitcomplement", "bit_reverse", "shuffle"] {
                let err = SyntheticPattern::parse_arg(name, nodes).unwrap_err();
                assert!(
                    err.contains(name) && err.contains(&nodes.to_string()),
                    "{err}"
                );
            }
            assert!(SyntheticPattern::parse_arg("transpose", nodes).is_ok());
        }
    }

    #[test]
    fn hotspot_concentrates_traffic() {
        let mut rng = Rng::seeded(1);
        let pattern = SyntheticPattern::Hotspot { fraction: 0.5 };
        let hot = Coord::new(4, 4);
        let src = Coord::new(0, 0);
        let hits = (0..1000)
            .filter(|_| pattern.destination(src, mesh(), &mut rng) == hot)
            .count();
        assert!(hits > 350 && hits < 650, "≈50% to the hotspot, got {hits}");
    }
}
