//! Identifier newtypes.
//!
//! All identifiers are small-integer newtypes so that indexing into the
//! dense per-router arrays of the simulator is explicit and cheap, while the
//! type system keeps ports, VCs and routers from being confused with each
//! other (following the “smaller integers” guidance for hot types).

/// Identifies one router in the network.
///
/// Routers in a `k × k` mesh are numbered row-major: `id = y * k + x`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RouterId(pub u16);

impl RouterId {
    /// The raw index, widened for array indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for RouterId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// Identifies one input or output port of a router (`0..P`).
///
/// For the canonical 5-port mesh router the mapping to directions is given
/// by [`crate::geometry::Direction`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId(pub u8);

impl PortId {
    /// The raw index, widened for array indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Iterate over all port ids `0..p`.
    pub fn all(p: usize) -> impl Iterator<Item = PortId> {
        (0..p as u8).map(PortId)
    }
}

impl std::fmt::Display for PortId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Identifies one virtual channel within an input port (`0..V`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VcId(pub u8);

impl VcId {
    /// The raw index, widened for array indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Iterate over all VC ids `0..v`.
    pub fn all(v: usize) -> impl Iterator<Item = VcId> {
        (0..v as u8).map(VcId)
    }
}

impl std::fmt::Display for VcId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "VC{}", self.0)
    }
}

/// Globally unique packet identifier, assigned at injection time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId(pub u64);

impl std::fmt::Display for PacketId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pkt{}", self.0)
    }
}

/// Position of a flit within its packet (head flit has sequence 0).
///
/// One byte: the longest packet kind is five flits (a const assertion
/// in `packet.rs` keeps every kind within `u8`), and the narrow field
/// is what makes a [`crate::Flit`] 32 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlitSeq(pub u8);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_all_yields_each_port_once() {
        let ports: Vec<PortId> = PortId::all(5).collect();
        assert_eq!(
            ports,
            vec![PortId(0), PortId(1), PortId(2), PortId(3), PortId(4)]
        );
    }

    #[test]
    fn vc_all_yields_each_vc_once() {
        let vcs: Vec<VcId> = VcId::all(4).collect();
        assert_eq!(vcs.len(), 4);
        assert_eq!(vcs[3], VcId(3));
    }

    #[test]
    fn ids_are_ordered_and_displayable() {
        assert!(RouterId(3) < RouterId(4));
        assert_eq!(RouterId(7).to_string(), "R7");
        assert_eq!(PortId(2).to_string(), "P2");
        assert_eq!(VcId(1).to_string(), "VC1");
        assert_eq!(PacketId(9).to_string(), "pkt9");
    }

    #[test]
    fn index_widening_matches_raw_value() {
        assert_eq!(RouterId(u16::MAX).index(), 65535);
        assert_eq!(PortId(4).index(), 4);
        assert_eq!(VcId(3).index(), 3);
    }
}
