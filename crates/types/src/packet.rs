//! Packets and their segmentation into flits.
//!
//! The latency experiments model MOESI-directory coherence traffic
//! (Section IX): short *control* packets (requests, acknowledgements,
//! invalidations) of one flit, and *data* packets (cache-line transfers)
//! of five flits — the GARNET defaults for a 128-bit link.

use crate::flit::{Flit, FlitKind};
use crate::geometry::Coord;
use crate::ids::{FlitSeq, PacketId};
use crate::Cycle;

/// Coherence-level packet class, which determines length in flits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// 1-flit control packet (request / ack / invalidate).
    Control,
    /// 5-flit data packet (cache-line transfer).
    Data,
}

// `Data` is the longest packet kind, and its last flit's sequence
// number must fit `FlitSeq`'s byte.
const _: () = assert!(
    PacketKind::Control.flits() <= PacketKind::Data.flits()
        && PacketKind::Data.flits() <= u8::MAX as usize + 1
);

impl PacketKind {
    /// Packet length in flits.
    #[inline]
    pub const fn flits(self) -> usize {
        match self {
            PacketKind::Control => 1,
            PacketKind::Data => 5,
        }
    }
}

/// A packet, as seen by the network interfaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Unique id assigned at creation.
    pub id: PacketId,
    /// Class (and hence length).
    pub kind: PacketKind,
    /// Source router coordinate.
    pub src: Coord,
    /// Destination router coordinate.
    pub dst: Coord,
    /// Cycle the packet was handed to the source NI.
    pub created_at: Cycle,
}

impl Packet {
    /// Construct a packet.
    pub fn new(id: PacketId, kind: PacketKind, src: Coord, dst: Coord, created_at: Cycle) -> Self {
        Packet {
            id,
            kind,
            src,
            dst,
            created_at,
        }
    }

    /// Packet length in flits.
    #[inline]
    pub fn len_flits(&self) -> usize {
        self.kind.flits()
    }

    /// The `i`-th flit of the packet's segmentation, built without
    /// touching the allocator — injection hot paths call this per flit
    /// instead of materialising the whole sequence.
    ///
    /// # Panics
    /// Panics if `i >= self.len_flits()`.
    pub fn flit(&self, i: usize) -> Flit {
        let n = self.len_flits();
        assert!(i < n, "flit index out of range");
        let kind = if n == 1 {
            FlitKind::Single
        } else if i == 0 {
            FlitKind::Head
        } else if i == n - 1 {
            FlitKind::Tail
        } else {
            FlitKind::Body
        };
        Flit::new(
            self.id,
            FlitSeq(i as u8),
            kind,
            self.src,
            self.dst,
            self.created_at,
        )
    }

    /// Segment the packet into its flit sequence.
    ///
    /// A 1-flit packet yields a single [`FlitKind::Single`] flit; longer
    /// packets yield `Head, Body…, Tail`.
    pub fn segment(&self) -> Vec<Flit> {
        (0..self.len_flits()).map(|i| self.flit(i)).collect()
    }
}

/// Summary of one delivered packet, recorded by the sink-side NI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveredPacket {
    /// The packet id.
    pub id: PacketId,
    /// Class.
    pub kind: PacketKind,
    /// Source coordinate.
    pub src: Coord,
    /// Destination coordinate.
    pub dst: Coord,
    /// Cycle the packet was created at the source.
    pub created_at: Cycle,
    /// Cycle the head flit entered the network.
    pub injected_at: Cycle,
    /// Cycle the tail flit was ejected at the destination.
    pub ejected_at: Cycle,
    /// Hops traversed by the head flit.
    pub hops: u16,
}

impl DeliveredPacket {
    /// End-to-end packet latency including source queueing (cycles).
    #[inline]
    pub fn total_latency(&self) -> Cycle {
        self.ejected_at - self.created_at
    }

    /// In-network latency (injection of head to ejection of tail).
    #[inline]
    pub fn network_latency(&self) -> Cycle {
        self.ejected_at - self.injected_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet(kind: PacketKind) -> Packet {
        Packet::new(PacketId(7), kind, Coord::new(0, 1), Coord::new(4, 4), 100)
    }

    #[test]
    fn control_packet_is_a_single_flit() {
        let flits = packet(PacketKind::Control).segment();
        assert_eq!(flits.len(), 1);
        assert_eq!(flits[0].kind, FlitKind::Single);
        assert!(flits[0].kind.is_head() && flits[0].kind.is_tail());
    }

    #[test]
    fn data_packet_is_head_bodies_tail() {
        let flits = packet(PacketKind::Data).segment();
        assert_eq!(flits.len(), 5);
        assert_eq!(flits[0].kind, FlitKind::Head);
        assert_eq!(flits[4].kind, FlitKind::Tail);
        for f in &flits[1..4] {
            assert_eq!(f.kind, FlitKind::Body);
        }
    }

    #[test]
    fn segmented_flits_share_packet_metadata_and_are_sequenced() {
        let p = packet(PacketKind::Data);
        for (i, f) in p.segment().iter().enumerate() {
            assert_eq!(f.packet, p.id);
            assert_eq!(f.seq, FlitSeq(i as u8));
            assert_eq!(f.src, p.src);
            assert_eq!(f.dst, p.dst);
            assert_eq!(f.created_at, p.created_at);
        }
    }

    #[test]
    fn delivered_packet_latency_accounting() {
        let d = DeliveredPacket {
            id: PacketId(1),
            kind: PacketKind::Data,
            src: Coord::new(0, 0),
            dst: Coord::new(2, 2),
            created_at: 10,
            injected_at: 14,
            ejected_at: 40,
            hops: 4,
        };
        assert_eq!(d.total_latency(), 30);
        assert_eq!(d.network_latency(), 26);
    }
}
