//! Flits — the flow-control units that actually traverse the network.
//!
//! A packet is segmented into a head flit, zero or more body flits and a
//! tail flit (Section II-A of the paper); single-flit packets carry a
//! combined head+tail flit.

use crate::geometry::Coord;
use crate::ids::{FlitSeq, PacketId};
use crate::Cycle;

/// The role of a flit within its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlitKind {
    /// First flit: allocates router resources (triggers RC and VA).
    Head,
    /// Payload flit: uses the resources the head allocated.
    Body,
    /// Last flit: frees the resources allocated to the packet.
    Tail,
    /// A single-flit packet: head and tail at once.
    Single,
}

impl FlitKind {
    /// Whether this flit triggers the RC and VA pipeline stages.
    #[inline]
    pub fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::Single)
    }

    /// Whether this flit frees the VC when it leaves a router.
    #[inline]
    pub fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::Single)
    }
}

/// One flit.
///
/// The destination coordinate rides in every flit so the model can assert
/// mis-routing invariants, although only the head flit's copy is consulted
/// by the RC stage (as in the real microarchitecture).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// The packet this flit belongs to.
    pub packet: PacketId,
    /// Position within the packet (head = 0).
    pub seq: FlitSeq,
    /// Role within the packet.
    pub kind: FlitKind,
    /// Source router coordinate.
    pub src: Coord,
    /// Destination router coordinate.
    pub dst: Coord,
    /// Cycle at which the packet entered the source injection queue.
    pub created_at: Cycle,
    /// Cycle at which the flit entered the network (left the NI).
    pub injected_at: Cycle,
    /// Number of routers this flit has traversed so far (for invariants
    /// and hop statistics; not part of the hardware state).
    pub hops: u16,
}

impl Flit {
    /// Construct a flit.
    pub fn new(
        packet: PacketId,
        seq: FlitSeq,
        kind: FlitKind,
        src: Coord,
        dst: Coord,
        created_at: Cycle,
    ) -> Self {
        Flit {
            packet,
            seq,
            kind,
            src,
            dst,
            created_at,
            injected_at: created_at,
            hops: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flit(kind: FlitKind) -> Flit {
        Flit::new(
            PacketId(1),
            FlitSeq(0),
            kind,
            Coord::new(0, 0),
            Coord::new(3, 3),
            10,
        )
    }

    #[test]
    fn head_and_single_trigger_head_stages() {
        assert!(flit(FlitKind::Head).kind.is_head());
        assert!(flit(FlitKind::Single).kind.is_head());
        assert!(!flit(FlitKind::Body).kind.is_head());
        assert!(!flit(FlitKind::Tail).kind.is_head());
    }

    #[test]
    fn tail_and_single_free_resources() {
        assert!(flit(FlitKind::Tail).kind.is_tail());
        assert!(flit(FlitKind::Single).kind.is_tail());
        assert!(!flit(FlitKind::Head).kind.is_tail());
        assert!(!flit(FlitKind::Body).kind.is_tail());
    }

    #[test]
    fn flit_is_small_plain_data() {
        fn assert_copy<T: Copy>() {}
        assert_copy::<Flit>();
        // 80 of these fill a paper router's input buffers.
        assert_eq!(std::mem::size_of::<Flit>(), 32);
        assert!(!std::mem::needs_drop::<Flit>());
    }
}
