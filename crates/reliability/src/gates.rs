//! The calibrated component library.
//!
//! Table I gives the FIT of each *fundamental component* (FC); FIT is
//! `transistors × FIT-per-FET` (SOFR over the FETs of the structure), so
//! the paper's numbers pin down the per-component effective transistor
//! counts once the per-FET rate is calibrated (see `forc.rs`). The
//! counts below reproduce every FC row of Tables I and II:
//!
//! | component                | FIT (paper) | eff. transistors |
//! |--------------------------|-------------|------------------|
//! | 6-bit comparator         | 11.7        | 468              |
//! | 4:1 round-robin arbiter  | 7.4         | 296              |
//! | 5:1 round-robin arbiter  | 9.3         | 372              |
//! | 20:1 round-robin arbiter | 36.7        | 1468             |
//! | 2:1 mux (per bit)        | 1.6         | 64               |
//! | n:1 mux (w bits)         | (n−1)·1.6·w | —                |
//! | 1:n demux branch (per bit)| 1.0        | 40               |
//! | DFF (per bit)            | 0.5         | 20               |
//!
//! The mux law `(n−1) × 1.6 × width` reproduces the paper's 4.8 (1-bit
//! 4:1) and 204.8 (32-bit 5:1) exactly — an n:1 mux is a tree of `n−1`
//! 2:1 muxes. Arbiter FITs follow the affine law `0.075 + 1.83125·n`
//! fitted through the paper's 4:1 and 20:1 points (its 5:1 value, 9.3,
//! is then reproduced to 0.8%).

use crate::forc::TddbModel;

/// A component class instantiable in the router.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Component {
    /// An `n`-bit magnitude comparator.
    Comparator {
        /// Comparator width in bits.
        bits: u32,
    },
    /// An `n:1` round-robin arbiter.
    Arbiter {
        /// Number of request inputs.
        inputs: u32,
    },
    /// An `n:1` multiplexer, `width` bits wide.
    Mux {
        /// Number of data inputs.
        inputs: u32,
        /// Datapath width in bits.
        width: u32,
    },
    /// A `1:n` demultiplexer, `width` bits wide.
    Demux {
        /// Number of data outputs.
        outputs: u32,
        /// Datapath width in bits.
        width: u32,
    },
    /// A `width`-bit D flip-flop (state field or register).
    Dff {
        /// Register width in bits.
        width: u32,
    },
    /// An SRAM-style buffer cell array (`bits` storage bits) — used only
    /// by the area/power model; buffers are outside the fault model.
    BufferBits {
        /// Number of storage bits.
        bits: u32,
    },
}

impl Component {
    /// Effective stressed-transistor count (calibrated; see module doc).
    pub fn transistors(&self) -> f64 {
        match *self {
            // 78 effective FETs per comparator bit (6-bit anchor = 468).
            Component::Comparator { bits } => 78.0 * bits as f64,
            // Affine law through the paper's 4:1 and 20:1 points, scaled
            // by 40 transistors per FIT unit (FIT-per-FET = 0.025).
            Component::Arbiter { inputs } => (0.075 + 1.83125 * inputs as f64) * 40.0,
            // A tree of (n−1) two-input muxes, 64 T per bit-mux.
            Component::Mux { inputs, width } => {
                64.0 * (inputs.saturating_sub(1)) as f64 * width as f64
            }
            // (n−1) branch gates per bit, 40 T each.
            Component::Demux { outputs, width } => {
                40.0 * (outputs.saturating_sub(1)) as f64 * width as f64
            }
            Component::Dff { width } => 20.0 * width as f64,
            // 6-T SRAM cell per bit.
            Component::BufferBits { bits } => 6.0 * bits as f64,
        }
    }

    /// Relative layout density: area per transistor relative to random
    /// logic (SRAM packs tighter). Used by the area model.
    pub fn area_density(&self) -> f64 {
        match self {
            Component::BufferBits { .. } => 0.5,
            _ => 1.0,
        }
    }

    /// Switching-activity weight for the dynamic-power model (fraction
    /// of FETs toggling in a typical cycle).
    pub fn activity(&self) -> f64 {
        match self {
            Component::Comparator { .. } => 0.20,
            Component::Arbiter { .. } => 0.15,
            Component::Mux { .. } => 0.25,
            Component::Demux { .. } => 0.25,
            Component::Dff { .. } => 0.10,
            Component::BufferBits { .. } => 0.05,
        }
    }
}

/// The calibrated library: maps components to FIT through the TDDB
/// model.
#[derive(Debug, Clone, Copy)]
pub struct GateLibrary {
    /// The calibrated TDDB model.
    pub tddb: TddbModel,
}

impl GateLibrary {
    /// The library at the paper's operating point.
    pub fn paper() -> Self {
        GateLibrary {
            tddb: TddbModel::calibrated(),
        }
    }

    /// FIT of one component instance.
    pub fn fit(&self, c: Component) -> f64 {
        self.tddb.fit_of(c.transistors())
    }

    /// FIT of a list of `(component, count)` pairs under SOFR.
    pub fn fit_of_inventory(&self, items: &[(Component, u32)]) -> f64 {
        items.iter().map(|&(c, n)| self.fit(c) * n as f64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib() -> GateLibrary {
        GateLibrary::paper()
    }

    #[test]
    fn table_one_component_fits_are_reproduced() {
        let l = lib();
        let close = |a: f64, b: f64, tol: f64| (a - b).abs() <= tol;
        assert!(close(l.fit(Component::Comparator { bits: 6 }), 11.7, 1e-9));
        assert!(close(l.fit(Component::Arbiter { inputs: 4 }), 7.4, 1e-9));
        assert!(close(l.fit(Component::Arbiter { inputs: 20 }), 36.7, 1e-9));
        // The paper's 5:1 arbiter (9.3) via the affine law: 9.23.
        assert!(close(l.fit(Component::Arbiter { inputs: 5 }), 9.3, 0.1));
        assert!(close(
            l.fit(Component::Mux {
                inputs: 4,
                width: 1
            }),
            4.8,
            1e-9
        ));
        assert!(close(
            l.fit(Component::Mux {
                inputs: 5,
                width: 32
            }),
            204.8,
            1e-9
        ));
        assert!(close(l.fit(Component::Dff { width: 1 }), 0.5, 1e-9));
    }

    #[test]
    fn mux_law_matches_two_to_one_tree() {
        let l = lib();
        let m2 = l.fit(Component::Mux {
            inputs: 2,
            width: 1,
        });
        let m5 = l.fit(Component::Mux {
            inputs: 5,
            width: 1,
        });
        assert!((m5 - 4.0 * m2).abs() < 1e-9);
        // Width scales linearly.
        let wide = l.fit(Component::Mux {
            inputs: 2,
            width: 32,
        });
        assert!((wide - 32.0 * m2).abs() < 1e-9);
    }

    #[test]
    fn inventory_fit_is_sofr_sum() {
        let l = lib();
        let inv = [
            (Component::Comparator { bits: 6 }, 10u32),
            (Component::Dff { width: 1 }, 4),
        ];
        let expect = 10.0 * 11.7 + 4.0 * 0.5;
        assert!((l.fit_of_inventory(&inv) - expect).abs() < 1e-9);
    }

    #[test]
    fn degenerate_components_have_zero_fit() {
        let l = lib();
        assert_eq!(
            l.fit(Component::Mux {
                inputs: 1,
                width: 8
            }),
            0.0
        );
        assert_eq!(
            l.fit(Component::Demux {
                outputs: 1,
                width: 8
            }),
            0.0
        );
    }
}
