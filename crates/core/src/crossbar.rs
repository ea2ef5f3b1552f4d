//! The protected crossbar topology (Figure 6).
//!
//! The baseline `P×P` crossbar has one multiplexer `M_i` per output port —
//! a single point of failure per output. The paper adds, for each output,
//! a *secondary path* realised with four demultiplexers (one 1:3, three
//! 1:2 for the 5-port case) and five 2:1 output multiplexers `P_i`.
//!
//! The figure itself only shows the 5×5 instance; we reconstruct the
//! general rule that reproduces every example and count in the paper:
//!
//! * primary path of `out_i` is `M_i` (through `P_i`);
//! * the secondary path of `out_i` taps the output of `M_{i-1}` for
//!   `i ≥ 1`, and of `M_1` for `out_0` (0-indexed);
//! * a flit using the secondary path to `out_i` must win SA-stage-2
//!   arbitration for the *source* port (Section V-D: “the input VC needs
//!   to arbitrate for access to output port 2 in order to gain access to
//!   M2”, for `out_3` with faulty `M3`).
//!
//! Under this rule the 5×5 instance needs exactly one 1:3 demux (on
//! `M_1`, feeding `out_1`, the secondary of `out_0` and the secondary of
//! `out_2`) and three 1:2 demuxes (on `M_0`, `M_2`, `M_3`) — matching the
//! component count of Table II — and reproduces Section VIII-D: with
//! `M_1` and `M_3` (paper's M2/M4) faulty the crossbar still functions,
//! while a third mux fault is fatal.

use noc_faults::FaultMap;
use noc_types::PortId;

/// Which physical path a flit takes through the protected crossbar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XbPath {
    /// Through the output's own multiplexer `M_out`.
    Primary,
    /// Through the neighbouring multiplexer and the demux/2:1-mux pair.
    Secondary,
}

/// Static topology of the protected crossbar for a `P`-port router.
#[derive(Debug, Clone)]
pub struct Crossbar {
    ports: usize,
}

impl Crossbar {
    /// Build the crossbar topology for `ports` outputs.
    pub fn new(ports: usize) -> Self {
        assert!(ports >= 2, "crossbar needs at least two ports");
        Crossbar { ports }
    }

    /// Number of ports.
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// The primary mux whose output feeds the *secondary* path of `out`.
    pub fn secondary_source(&self, out: PortId) -> PortId {
        debug_assert!(out.index() < self.ports);
        noc_faults::canonical_secondary_source(out)
    }

    /// The outputs whose secondary path taps mux `m` (inverse of
    /// [`Crossbar::secondary_source`]).
    pub fn secondary_sinks(&self, m: PortId) -> Vec<PortId> {
        PortId::all(self.ports)
            .filter(|&o| self.secondary_source(o) == m)
            .collect()
    }

    /// Demultiplexer fan-out placed on mux `m`: 1 (no demux needed) +
    /// number of secondary sinks. Used by the reliability inventory.
    pub fn demux_ways(&self, m: PortId) -> usize {
        1 + self.secondary_sinks(m).len()
    }

    /// Whether output `out` is reachable given the fault map, and through
    /// which path. Primary requires `M_out` and the SA2 arbiter of `out`;
    /// secondary requires the secondary circuitry of `out`, the source
    /// mux, and the source port's SA2 arbiter.
    ///
    /// ```
    /// use noc_faults::{FaultMap, FaultSite};
    /// use noc_types::{PortId, RouterConfig};
    /// use shield_router::{Crossbar, crossbar::XbPath};
    ///
    /// let cfg = RouterConfig::paper();
    /// let xb = Crossbar::new(cfg.ports);
    /// let healthy = FaultMap::healthy(&cfg);
    /// assert_eq!(xb.path_to(&healthy, PortId(2)), Some(XbPath::Primary));
    ///
    /// // The paper's example: M3 dead → out3 reached via M2.
    /// let m3_dead = FaultMap::from_sites(&cfg, [FaultSite::XbMux { out_port: PortId(2) }]);
    /// assert_eq!(xb.path_to(&m3_dead, PortId(2)), Some(XbPath::Secondary));
    /// assert_eq!(xb.sa2_target(&m3_dead, PortId(2)), Some(PortId(1)));
    /// ```
    pub fn path_to(&self, faults: &FaultMap, out: PortId) -> Option<XbPath> {
        if !faults.xb_primary_dead(out) {
            return Some(XbPath::Primary);
        }
        let src = self.secondary_source(out);
        let secondary_ok = !faults.xb_secondary_dead(out)
            && !faults.is_faulty(noc_faults::FaultSite::XbMux { out_port: src })
            && !faults.is_faulty(noc_faults::FaultSite::Sa2Arbiter { out_port: src });
        secondary_ok.then_some(XbPath::Secondary)
    }

    /// The SA-stage-2 arbiter a flit headed for `out` must win, given the
    /// fault map: its own under the primary path, the secondary source's
    /// under the secondary path. `None` when `out` is unreachable.
    pub fn sa2_target(&self, faults: &FaultMap, out: PortId) -> Option<PortId> {
        match self.path_to(faults, out)? {
            XbPath::Primary => Some(out),
            XbPath::Secondary => Some(self.secondary_source(out)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_faults::FaultSite;
    use noc_types::RouterConfig;

    fn xb() -> Crossbar {
        Crossbar::new(5)
    }

    fn p(i: u8) -> PortId {
        PortId(i)
    }

    fn faults<const N: usize>(sites: [FaultSite; N]) -> FaultMap {
        FaultMap::from_sites(&RouterConfig::paper(), sites)
    }

    #[test]
    fn secondary_sources_follow_reconstructed_rule() {
        let x = xb();
        assert_eq!(x.secondary_source(p(0)), p(1));
        assert_eq!(x.secondary_source(p(1)), p(0));
        assert_eq!(x.secondary_source(p(2)), p(1));
        assert_eq!(x.secondary_source(p(3)), p(2));
        assert_eq!(x.secondary_source(p(4)), p(3));
    }

    #[test]
    fn demux_inventory_matches_table_ii() {
        // One 1:3 demux (on M1) and three 1:2 demuxes (on M0, M2, M3);
        // M4 feeds no secondary.
        let x = xb();
        let ways: Vec<usize> = (0..5).map(|m| x.demux_ways(p(m))).collect();
        assert_eq!(ways, vec![2, 3, 2, 2, 1]);
        let one_to_three = ways.iter().filter(|&&w| w == 3).count();
        let one_to_two = ways.iter().filter(|&&w| w == 2).count();
        assert_eq!(one_to_three, 1);
        assert_eq!(one_to_two, 3);
    }

    #[test]
    fn healthy_crossbar_uses_primary_everywhere() {
        let x = xb();
        let f = faults([]);
        for o in 0..5 {
            assert_eq!(x.path_to(&f, p(o)), Some(XbPath::Primary));
            assert_eq!(x.sa2_target(&f, p(o)), Some(p(o)));
        }
    }

    #[test]
    fn single_mux_fault_reroutes_to_secondary() {
        // Paper example: M3 (0-indexed M2) faulty → out3 (p(2)) reached
        // via M2 (p(1)) by arbitrating for output port 2 (p(1)).
        let x = xb();
        let f = faults([FaultSite::XbMux { out_port: p(2) }]);
        assert_eq!(x.path_to(&f, p(2)), Some(XbPath::Secondary));
        assert_eq!(x.sa2_target(&f, p(2)), Some(p(1)));
        // Other outputs unaffected.
        assert_eq!(x.path_to(&f, p(1)), Some(XbPath::Primary));
    }

    #[test]
    fn sa2_arbiter_fault_also_takes_secondary() {
        let x = xb();
        let f = faults([FaultSite::Sa2Arbiter { out_port: p(3) }]);
        assert_eq!(x.path_to(&f, p(3)), Some(XbPath::Secondary));
        assert_eq!(x.sa2_target(&f, p(3)), Some(p(2)));
    }

    #[test]
    fn paper_m2_m4_example_is_tolerated_but_third_fault_fatal() {
        let x = xb();
        let mut f = faults([
            FaultSite::XbMux { out_port: p(1) },
            FaultSite::XbMux { out_port: p(3) },
        ]);
        for o in 0..5 {
            assert!(x.path_to(&f, p(o)).is_some(), "out{} reachable", o);
        }
        f.inject(FaultSite::XbMux { out_port: p(2) });
        // out2's primary is dead and its secondary source M1 is dead too.
        assert_eq!(x.path_to(&f, p(2)), None);
    }

    #[test]
    fn secondary_circuit_fault_plus_mux_fault_is_fatal() {
        let x = xb();
        let f = faults([
            FaultSite::XbMux { out_port: p(4) },
            FaultSite::XbSecondary { out_port: p(4) },
        ]);
        assert_eq!(x.path_to(&f, p(4)), None);
    }

    #[test]
    fn secondary_alone_keeps_primary_working() {
        let x = xb();
        let f = faults([FaultSite::XbSecondary { out_port: p(0) }]);
        assert_eq!(x.path_to(&f, p(0)), Some(XbPath::Primary));
    }

    #[test]
    fn sinks_are_inverse_of_source() {
        let x = xb();
        for m in 0..5 {
            for o in x.secondary_sinks(p(m)) {
                assert_eq!(x.secondary_source(o), p(m));
            }
        }
    }
}
