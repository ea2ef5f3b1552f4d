//! Input-port and virtual-channel state (Figures 3d and 4).

use noc_types::{Flit, VcGlobalState, VcId, VcStateFields};
use std::collections::VecDeque;

/// One virtual channel: a FIFO flit buffer plus its architectural state
/// fields. The `P` (pointer) field of the figure is realised by the
/// queue; the `C` (credit) field lives in the router's output-side
/// tracker since credits describe *downstream* space.
#[derive(Debug, Clone)]
pub struct VirtualChannel {
    buffer: VecDeque<Flit>,
    depth: usize,
    /// Architectural state fields (`G R O` + protected `R2 VF ID SP FSP`).
    pub fields: VcStateFields,
}

impl VirtualChannel {
    /// An empty VC with `depth` flit slots.
    pub fn new(depth: usize) -> Self {
        VirtualChannel {
            buffer: VecDeque::with_capacity(depth),
            depth,
            fields: VcStateFields::default(),
        }
    }

    /// Buffer capacity in flits.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Flits currently buffered.
    pub fn occupancy(&self) -> usize {
        self.buffer.len()
    }

    /// Whether the buffer has no flits.
    pub fn is_empty(&self) -> bool {
        self.buffer.is_empty()
    }

    /// Whether the buffer is at capacity.
    pub fn is_full(&self) -> bool {
        self.buffer.len() >= self.depth
    }

    /// Append an arriving flit (buffer write).
    ///
    /// # Panics
    /// Panics if the buffer is full — arrival beyond capacity means the
    /// credit protocol was violated, which is a simulator bug.
    pub fn push(&mut self, flit: Flit) {
        assert!(
            !self.is_full(),
            "VC buffer overflow: credit protocol violated"
        );
        if self.buffer.is_empty() && self.fields.g == VcGlobalState::Idle {
            debug_assert!(
                flit.kind.is_head(),
                "first flit of an idle VC must be a head flit"
            );
            self.fields.g = VcGlobalState::Routing;
        }
        self.buffer.push_back(flit);
    }

    /// The flit at the front of the buffer, if any.
    pub fn front(&self) -> Option<&Flit> {
        self.buffer.front()
    }

    /// Remove and return the front flit (switch traversal).
    ///
    /// On a tail flit the VC state resets; if another packet's head is
    /// already queued behind, the VC re-enters `Routing`.
    pub fn pop(&mut self) -> Option<Flit> {
        let flit = self.buffer.pop_front()?;
        if flit.kind.is_tail() {
            self.fields.reset();
            if let Some(next) = self.buffer.front() {
                debug_assert!(next.kind.is_head(), "flit after a tail must be a head");
                self.fields.g = VcGlobalState::Routing;
            }
        }
        Some(flit)
    }

    /// Move the entire contents and state of `self` into `other`
    /// (Section V-C1: flit transfer between two VCs of the same input
    /// port when the SA bypass path's default winner is empty).
    ///
    /// The receiving VC must be idle and empty; the source becomes idle.
    /// Both flits and state fields move in parallel, so the hardware cost
    /// is a single cycle (charged by the caller).
    pub fn transfer_into(&mut self, other: &mut VirtualChannel) {
        assert!(other.is_empty(), "transfer target must be empty");
        assert_eq!(
            other.fields.g,
            VcGlobalState::Idle,
            "transfer target must be idle"
        );
        assert!(
            self.occupancy() <= other.depth,
            "transfer target too shallow"
        );
        std::mem::swap(&mut self.buffer, &mut other.buffer);
        other.fields = self.fields;
        // Borrow-protocol fields describe the *lender's* arbiters and do
        // not travel with the packet.
        other.fields.clear_borrow();
        self.fields.reset();
    }

    /// Iterate over the buffered flits, front first (diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = &Flit> {
        self.buffer.iter()
    }
}

/// One input port: `V` virtual channels plus a struct-of-arrays mirror
/// of the per-VC `G` states as bitmasks.
///
/// The masks turn the pipeline's per-VC scans into word-wide kernels:
/// each stage walks `mask.trailing_zeros()` over exactly the VCs it can
/// serve (RC walks `routing`, VA walks `vc_alloc`, SA walks
/// `active & nonempty`) instead of branching over every VC. They are a
/// pure function of the per-VC state — bit `i` of each mask reflects
/// `vcs[i].fields.g` (and buffer occupancy for `nonempty`) — kept in
/// sync by [`InputPort::push_flit`] / [`InputPort::pop_flit`] and by
/// [`InputPort::sync_state`], which stage code must call after mutating
/// a VC's `G` field through [`InputPort::vc_mut`].
#[derive(Debug, Clone)]
pub struct InputPort {
    vcs: Vec<VirtualChannel>,
    /// Bit `i` set ⇔ VC `i` is not `Idle`.
    nonidle: u32,
    /// Bit `i` set ⇔ VC `i` is in `Routing` (has an RC request).
    routing: u32,
    /// Bit `i` set ⇔ VC `i` is in `VcAlloc` (VA-eligible).
    vc_alloc: u32,
    /// Bit `i` set ⇔ VC `i` is `Active` (past VA, competing in SA).
    active: u32,
    /// Bit `i` set ⇔ VC `i` has at least one buffered flit.
    nonempty: u32,
    /// Total flits buffered across all VCs, maintained incrementally by
    /// [`InputPort::push_flit`] / [`InputPort::pop_flit`] so the
    /// per-step occupancy integral costs one load instead of a walk
    /// over every VC buffer. Intra-port moves ([`VirtualChannel::
    /// transfer_into`]) leave the total unchanged.
    occupancy: u32,
}

impl InputPort {
    /// Build a port with `vcs` channels of `depth` flits each.
    ///
    /// The VC count is validated by `RouterConfig::validate` before any
    /// port is built (`1..=32`, the mask width); this is only a debug
    /// backstop for direct constructions that bypass the config.
    pub fn new(vcs: usize, depth: usize) -> Self {
        debug_assert!(vcs <= 32, "the per-port VC masks hold at most 32 VCs");
        InputPort {
            vcs: (0..vcs).map(|_| VirtualChannel::new(depth)).collect(),
            nonidle: 0,
            routing: 0,
            vc_alloc: 0,
            active: 0,
            nonempty: 0,
            occupancy: 0,
        }
    }

    /// Bitmask of VCs whose `G` state is anything but `Idle`.
    #[inline]
    pub fn nonidle_mask(&self) -> u32 {
        self.nonidle
    }

    /// Bitmask of VCs in the `Routing` state (RC candidates).
    #[inline]
    pub fn routing_mask(&self) -> u32 {
        self.routing
    }

    /// Bitmask of VCs in the `VcAlloc` state (VA candidates).
    #[inline]
    pub fn vc_alloc_mask(&self) -> u32 {
        self.vc_alloc
    }

    /// Bitmask of VCs in the `Active` state.
    #[inline]
    pub fn active_mask(&self) -> u32 {
        self.active
    }

    /// Bitmask of VCs with at least one buffered flit.
    #[inline]
    pub fn nonempty_mask(&self) -> u32 {
        self.nonempty
    }

    /// Bitmask of VCs that may request switch allocation this cycle:
    /// `Active` with a flit buffered.
    #[inline]
    pub fn sa_candidate_mask(&self) -> u32 {
        self.active & self.nonempty
    }

    /// Re-derive the mask bits of `vc` from its current state. Stage
    /// code must call this after writing `fields.g` through
    /// [`InputPort::vc_mut`]; flit movement through
    /// [`InputPort::push_flit`] / [`InputPort::pop_flit`] syncs
    /// automatically.
    #[inline]
    pub fn sync_state(&mut self, vc: VcId) {
        let i = vc.index();
        let bit = 1u32 << i;
        let ch = &self.vcs[i];
        self.nonidle &= !bit;
        self.routing &= !bit;
        self.vc_alloc &= !bit;
        self.active &= !bit;
        match ch.fields.g {
            VcGlobalState::Idle => {}
            VcGlobalState::Routing => {
                self.nonidle |= bit;
                self.routing |= bit;
            }
            VcGlobalState::VcAlloc => {
                self.nonidle |= bit;
                self.vc_alloc |= bit;
            }
            VcGlobalState::Active => {
                self.nonidle |= bit;
                self.active |= bit;
            }
        }
        if ch.buffer.is_empty() {
            self.nonempty &= !bit;
        } else {
            self.nonempty |= bit;
        }
    }

    /// Append an arriving flit to `vc`, keeping the state masks in
    /// sync. Router code must use this (not `vc_mut().push`) so the
    /// stage-skipping masks stay accurate.
    #[inline]
    pub fn push_flit(&mut self, vc: VcId, flit: Flit) {
        self.vcs[vc.index()].push(flit);
        self.occupancy += 1;
        self.sync_state(vc);
    }

    /// Remove and return the front flit of `vc`, keeping the state
    /// masks in sync.
    #[inline]
    pub fn pop_flit(&mut self, vc: VcId) -> Option<Flit> {
        let flit = self.vcs[vc.index()].pop();
        if flit.is_some() {
            self.occupancy -= 1;
        }
        self.sync_state(vc);
        flit
    }

    /// Shared access to one VC.
    pub fn vc(&self, vc: VcId) -> &VirtualChannel {
        &self.vcs[vc.index()]
    }

    /// Exclusive access to one VC.
    pub fn vc_mut(&mut self, vc: VcId) -> &mut VirtualChannel {
        &mut self.vcs[vc.index()]
    }

    /// Exclusive access to two distinct VCs at once (for transfers and
    /// the borrow protocol).
    pub fn vc_pair_mut(&mut self, a: VcId, b: VcId) -> (&mut VirtualChannel, &mut VirtualChannel) {
        assert_ne!(a, b, "need two distinct VCs");
        let (lo, hi) = if a.index() < b.index() {
            (a, b)
        } else {
            (b, a)
        };
        let (left, right) = self.vcs.split_at_mut(hi.index());
        let (first, second) = (&mut left[lo.index()], &mut right[0]);
        if a.index() < b.index() {
            (first, second)
        } else {
            (second, first)
        }
    }

    /// Total flits buffered across all VCs (O(1): maintained by the
    /// flit push/pop paths, not recomputed).
    pub fn occupancy(&self) -> usize {
        debug_assert_eq!(
            self.occupancy as usize,
            self.vcs.iter().map(|v| v.occupancy()).sum::<usize>(),
            "incremental occupancy out of sync with the VC buffers"
        );
        self.occupancy as usize
    }

    /// Iterate over `(VcId, &VirtualChannel)`.
    pub fn iter(&self) -> impl Iterator<Item = (VcId, &VirtualChannel)> {
        self.vcs.iter().enumerate().map(|(i, v)| (VcId(i as u8), v))
    }
}

// ---------------------------------------------------------------------
// Snapshot / restore
// ---------------------------------------------------------------------

use noc_telemetry::json::{obj, JsonValue};
use noc_telemetry::snapshot::{
    arr_field, decode_field, field, FromSnapshot, Restore, Snapshot, SnapshotError,
};

impl Snapshot for VirtualChannel {
    fn snapshot(&self) -> JsonValue {
        obj([
            ("fields", self.fields.snapshot()),
            (
                "buffer",
                JsonValue::Arr(self.buffer.iter().map(Snapshot::snapshot).collect()),
            ),
        ])
    }
}

impl Restore for VirtualChannel {
    /// Overwrite buffer and state fields directly, bypassing
    /// [`VirtualChannel::push`]'s arrival invariants — a snapshot captures
    /// mid-pipeline states (e.g. a non-head flit at the front of an
    /// `Active` VC) that no single arrival sequence could reconstruct.
    fn restore(&mut self, v: &JsonValue) -> Result<(), SnapshotError> {
        let flits =
            Vec::<Flit>::from_snapshot(field(v, "buffer")?).map_err(|e| e.within("buffer"))?;
        if flits.len() > self.depth {
            return Err(SnapshotError::new(format!(
                "snapshot holds {} flits but the VC depth is {}",
                flits.len(),
                self.depth
            )));
        }
        self.fields = decode_field(v, "fields")?;
        self.buffer.clear();
        self.buffer.extend(flits);
        Ok(())
    }
}

impl Snapshot for InputPort {
    fn snapshot(&self) -> JsonValue {
        // The state masks are a pure function of the per-VC `G` fields
        // and buffers and are resynthesised on restore rather than
        // stored.
        obj([(
            "vcs",
            JsonValue::Arr(self.vcs.iter().map(Snapshot::snapshot).collect()),
        )])
    }
}

impl Restore for InputPort {
    fn restore(&mut self, v: &JsonValue) -> Result<(), SnapshotError> {
        let arr = arr_field(v, "vcs")?;
        if arr.len() != self.vcs.len() {
            return Err(SnapshotError::new(format!(
                "snapshot has {} VCs but the port was built with {}",
                arr.len(),
                self.vcs.len()
            )));
        }
        for (i, (vc, s)) in self.vcs.iter_mut().zip(arr).enumerate() {
            vc.restore(s).map_err(|e| e.within(&format!("vcs[{i}]")))?;
        }
        self.occupancy = self.vcs.iter().map(|v| v.occupancy()).sum::<usize>() as u32;
        for i in 0..self.vcs.len() {
            self.sync_state(VcId(i as u8));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_types::{Coord, FlitKind, FlitSeq, PacketId, PortId};

    fn head(pkt: u64) -> Flit {
        Flit::new(
            PacketId(pkt),
            FlitSeq(0),
            FlitKind::Head,
            Coord::new(0, 0),
            Coord::new(1, 1),
            0,
        )
    }

    fn tail(pkt: u64) -> Flit {
        Flit::new(
            PacketId(pkt),
            FlitSeq(1),
            FlitKind::Tail,
            Coord::new(0, 0),
            Coord::new(1, 1),
            0,
        )
    }

    #[test]
    fn head_arrival_wakes_idle_vc() {
        let mut vc = VirtualChannel::new(4);
        assert_eq!(vc.fields.g, VcGlobalState::Idle);
        vc.push(head(1));
        assert_eq!(vc.fields.g, VcGlobalState::Routing);
        assert_eq!(vc.occupancy(), 1);
    }

    #[test]
    fn tail_pop_resets_state_and_wakes_next_packet() {
        let mut vc = VirtualChannel::new(4);
        vc.push(head(1));
        vc.fields.g = VcGlobalState::Active;
        vc.push(tail(1));
        vc.push(head(2)); // next packet queued behind
        assert_eq!(vc.pop().unwrap().kind, FlitKind::Head);
        assert_eq!(
            vc.fields.g,
            VcGlobalState::Active,
            "non-tail pop keeps state"
        );
        assert_eq!(vc.pop().unwrap().kind, FlitKind::Tail);
        assert_eq!(vc.fields.g, VcGlobalState::Routing, "next head wakes VC");
        assert_eq!(vc.occupancy(), 1);
    }

    #[test]
    fn tail_pop_on_empty_vc_goes_idle() {
        let mut vc = VirtualChannel::new(4);
        vc.push(head(1));
        vc.fields.g = VcGlobalState::Active;
        vc.push(tail(1));
        vc.pop();
        vc.pop();
        assert_eq!(vc.fields.g, VcGlobalState::Idle);
        assert!(vc.is_empty());
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut vc = VirtualChannel::new(1);
        vc.push(head(1));
        vc.push(tail(1));
    }

    #[test]
    fn transfer_moves_flits_and_state() {
        let mut port = InputPort::new(4, 4);
        let (src, dst) = port.vc_pair_mut(VcId(1), VcId(2));
        src.push(head(9));
        src.fields.g = VcGlobalState::Active;
        src.fields.r = Some(PortId(3));
        src.fields.o = Some(VcId(0));
        src.push(tail(9));
        let (src, dst2) = (src, dst);
        src.transfer_into(dst2);
        assert!(src.is_empty());
        assert_eq!(src.fields.g, VcGlobalState::Idle);
        let dst = port.vc(VcId(2));
        assert_eq!(dst.occupancy(), 2);
        assert_eq!(dst.fields.g, VcGlobalState::Active);
        assert_eq!(dst.fields.r, Some(PortId(3)));
        assert_eq!(dst.fields.o, Some(VcId(0)));
    }

    #[test]
    #[should_panic(expected = "target must be empty")]
    fn transfer_into_nonempty_target_panics() {
        let mut port = InputPort::new(2, 4);
        let (a, b) = port.vc_pair_mut(VcId(0), VcId(1));
        a.push(head(1));
        b.push(head(2));
        b.fields.g = VcGlobalState::Idle; // force the empty check to fire first
        a.transfer_into(b);
    }

    #[test]
    fn nonidle_mask_tracks_push_and_pop() {
        let mut port = InputPort::new(4, 4);
        assert_eq!(port.nonidle_mask(), 0);
        port.push_flit(VcId(2), head(1));
        assert_eq!(port.nonidle_mask(), 0b0100);
        port.vc_mut(VcId(2)).fields.g = VcGlobalState::Active;
        port.push_flit(VcId(2), tail(1));
        port.pop_flit(VcId(2));
        assert_eq!(port.nonidle_mask(), 0b0100, "mid-packet stays non-idle");
        port.pop_flit(VcId(2));
        assert_eq!(port.nonidle_mask(), 0, "tail pop emptying the VC goes idle");
    }

    #[test]
    fn state_masks_partition_nonidle() {
        let mut port = InputPort::new(4, 4);
        port.push_flit(VcId(1), head(7));
        assert_eq!(port.routing_mask(), 0b0010);
        assert_eq!(port.vc_alloc_mask(), 0);
        assert_eq!(port.nonempty_mask(), 0b0010);

        port.vc_mut(VcId(1)).fields.g = VcGlobalState::VcAlloc;
        port.sync_state(VcId(1));
        assert_eq!(port.routing_mask(), 0);
        assert_eq!(port.vc_alloc_mask(), 0b0010);

        port.vc_mut(VcId(1)).fields.g = VcGlobalState::Active;
        port.sync_state(VcId(1));
        assert_eq!(port.vc_alloc_mask(), 0);
        assert_eq!(port.active_mask(), 0b0010);
        assert_eq!(port.sa_candidate_mask(), 0b0010);

        // Draining the buffer of an active VC removes it from the SA
        // candidates but not from the active set.
        port.push_flit(VcId(1), tail(7));
        port.pop_flit(VcId(1));
        port.pop_flit(VcId(1));
        assert_eq!(port.active_mask(), 0, "tail pop resets the VC");
        assert_eq!(port.nonidle_mask(), 0);
        assert_eq!(port.sa_candidate_mask(), 0);

        // The union of the per-state masks is always the non-idle mask.
        port.push_flit(VcId(0), head(8));
        port.push_flit(VcId(3), head(9));
        port.vc_mut(VcId(3)).fields.g = VcGlobalState::Active;
        port.sync_state(VcId(3));
        assert_eq!(
            port.routing_mask() | port.vc_alloc_mask() | port.active_mask(),
            port.nonidle_mask()
        );
    }

    #[test]
    fn vc_pair_mut_returns_requested_order() {
        // Flits enter through `push_flit` (the incremental-occupancy
        // contract); `vc_pair_mut` is for in-port moves only.
        let mut port = InputPort::new(4, 4);
        port.push_flit(VcId(3), head(1));
        {
            let (a, b) = port.vc_pair_mut(VcId(3), VcId(0));
            assert_eq!(a.occupancy(), 1);
            assert!(b.is_empty());
        }
        assert_eq!(port.vc(VcId(3)).occupancy(), 1);
        assert_eq!(port.vc(VcId(0)).occupancy(), 0);
        assert_eq!(port.occupancy(), 1);
    }
}
