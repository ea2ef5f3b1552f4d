//! Virtual-channel state fields.
//!
//! A baseline input VC carries the `G`, `R`, `O`, `P`, `C` fields of
//! Figure 3d; the protected router adds the `R2`, `VF`, `ID`, `SP` and
//! `FSP` fields of Figure 4 to support arbiter sharing (VA stage 1) and
//! the crossbar secondary path (SA stage 2 / XB).
//!
//! The `P` (buffer pointers) and `C` (credit count) fields are realised by
//! the owning router model — the buffer is a queue and credits are tracked
//! per downstream VC — so this module carries the remaining architectural
//! state verbatim.

use crate::ids::{PortId, VcId};

/// The `G` (global state) field of an input VC: which pipeline stage the
/// packet occupying this VC is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VcGlobalState {
    /// No packet allocated to this VC.
    Idle,
    /// Head flit buffered, waiting for / in routing computation.
    Routing,
    /// Routed, waiting for / in virtual-channel allocation.
    VcAlloc,
    /// Allocated a downstream VC; flits compete in switch allocation and
    /// traverse the crossbar.
    Active,
}

impl VcGlobalState {
    /// Whether the paper's VA-stage-1 arbiter-sharing protocol may borrow
    /// this VC's arbiters: the lender must be *idle or in switch
    /// allocation* (Section V-B1).
    #[inline]
    pub fn lendable_for_va(self) -> bool {
        matches!(self, VcGlobalState::Idle | VcGlobalState::Active)
    }
}

/// The per-VC architectural state fields (baseline + protected).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VcStateFields {
    /// `G`: pipeline state of the packet in this VC.
    pub g: VcGlobalState,
    /// `R`: output port computed by the RC unit.
    pub r: Option<PortId>,
    /// `O`: downstream VC allocated by the VA unit.
    pub o: Option<VcId>,
    /// `R2` (protected only): RC result deposited by a VC borrowing this
    /// VC's VA arbiters.
    pub r2: Option<PortId>,
    /// `VF` (protected only): this VC's arbiters are currently being used
    /// by a different VC of the same input port.
    pub vf: bool,
    /// `ID` (protected only): identity of the borrowing VC.
    pub id: Option<VcId>,
    /// `SP` (protected only): the output port to arbitrate for in SA in
    /// order to reach the real output through the crossbar secondary path.
    pub sp: Option<PortId>,
    /// `FSP` (protected only): the secondary path must be used.
    pub fsp: bool,
    /// Legal downstream VCs for the routed output, as a bitmask over VC
    /// indices. Deposited by the RC unit alongside `R`; the VA unit only
    /// requests output VCs inside the mask. `!0` (the default) means
    /// unrestricted — topologies with VC-class deadlock avoidance (e.g.
    /// torus datelines) narrow it.
    pub vmask: u32,
}

impl Default for VcStateFields {
    fn default() -> Self {
        VcStateFields {
            g: VcGlobalState::Idle,
            r: None,
            o: None,
            r2: None,
            vf: false,
            id: None,
            sp: None,
            fsp: false,
            vmask: !0,
        }
    }
}

impl VcStateFields {
    /// Reset every field to the idle state (tail flit departed).
    pub fn reset(&mut self) {
        *self = VcStateFields::default();
    }

    /// Clear the borrow-protocol fields after a lent allocation completes
    /// (the VA unit resets `R2`, `ID` and `VF`; Section V-B2).
    pub fn clear_borrow(&mut self) {
        self.r2 = None;
        self.id = None;
        self.vf = false;
    }

    /// The port this VC must present to the switch allocator: the `SP`
    /// field when the secondary-path flag is set, the RC result otherwise.
    #[inline]
    pub fn sa_request_port(&self) -> Option<PortId> {
        if self.fsp {
            self.sp
        } else {
            self.r
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_idle_and_clean() {
        let s = VcStateFields::default();
        assert_eq!(s.g, VcGlobalState::Idle);
        assert!(s.r.is_none() && s.o.is_none() && s.r2.is_none());
        assert!(!s.vf && !s.fsp);
        assert_eq!(s.vmask, !0, "default mask is unrestricted");
    }

    #[test]
    fn lendable_states_match_paper() {
        assert!(VcGlobalState::Idle.lendable_for_va());
        assert!(VcGlobalState::Active.lendable_for_va());
        assert!(!VcGlobalState::Routing.lendable_for_va());
        assert!(!VcGlobalState::VcAlloc.lendable_for_va());
    }

    #[test]
    fn clear_borrow_resets_only_borrow_fields() {
        let mut s = VcStateFields {
            g: VcGlobalState::Active,
            r: Some(PortId(2)),
            o: Some(VcId(1)),
            r2: Some(PortId(3)),
            vf: true,
            id: Some(VcId(0)),
            sp: Some(PortId(1)),
            fsp: true,
            vmask: 0b01,
        };
        s.clear_borrow();
        assert!(s.r2.is_none() && s.id.is_none() && !s.vf);
        assert_eq!(s.r, Some(PortId(2)));
        assert_eq!(s.o, Some(VcId(1)));
        assert!(s.fsp);
        assert_eq!(s.vmask, 0b01, "clear_borrow leaves the VC mask alone");
    }

    #[test]
    fn sa_request_port_prefers_secondary_path() {
        let mut s = VcStateFields {
            r: Some(PortId(3)),
            ..Default::default()
        };
        assert_eq!(s.sa_request_port(), Some(PortId(3)));
        s.sp = Some(PortId(2));
        s.fsp = true;
        assert_eq!(s.sa_request_port(), Some(PortId(2)));
    }

    #[test]
    fn reset_returns_to_default() {
        let mut s = VcStateFields {
            g: VcGlobalState::Routing,
            r: Some(PortId(1)),
            ..Default::default()
        };
        s.reset();
        assert_eq!(s, VcStateFields::default());
    }
}
