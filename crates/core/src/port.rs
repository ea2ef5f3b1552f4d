//! Per-port state: one flit store and one control table per router.
//!
//! Input buffers (Figures 3d and 4): every input VC of a router keeps
//! its flits in one contiguous allocation of `P·V·depth` flits, made
//! when the router is built. VC `i = port·V + vc` owns slots
//! `[i·depth, (i + 1)·depth)` as a ring, addressed by a `head`/`len`
//! pair next to its architectural state fields. Nothing on the flit path
//! allocates, and a router clone copies the whole store in one
//! allocation.
//!
//! Control: each port's credits, busy and exclusion words, SA arbiters,
//! RC pointer and bypass register are one cache-line `PortCtl` entry.

use noc_arbiter::RoundRobinArbiter;
use noc_types::{
    Coord, Cycle, Flit, FlitKind, FlitSeq, PacketId, PortId, VcGlobalState, VcStateFields,
};

/// Most VCs a port can have: `RouterConfig::validate` asks for at least
/// two ports and at most 32 (port, VC) pairs.
pub(crate) const MAX_VCS: usize = 16;

/// One port's control state, input and output side, in one cache line.
/// A router keeps its `P` entries in one allocation (`Router::ctl`), so
/// a stage touching port `o` reads one line instead of one line in each
/// of nine per-field vectors.
#[derive(Debug, Clone)]
#[repr(C, align(64))]
pub(crate) struct PortCtl {
    /// Output side, bit `vc` set ⇔ downstream VC `vc` is allocated to a
    /// packet (VA's request mask is one `!`/`&` word op).
    pub(crate) out_vc_busy: u32,
    /// Output side, bit `vc` set ⇔ `credits[vc] > 0`; kept with every
    /// credit mutation so SA tests credit with one mask probe.
    pub(crate) credited: u32,
    /// Output side, the downstream VCs whose VA stage-2 arbiter is *not*
    /// known-faulty (Section V-B3's exclusion; all-ones on a baseline
    /// router; bits above `V` carry no meaning). Recomputed with
    /// `sa2_target` at fault edges.
    pub(crate) va2_ok: u32,
    /// Input side, SA stage 1: a `V:1` arbiter over the port's VCs.
    pub(crate) sa1: RoundRobinArbiter,
    /// Output side, SA stage 2: a `P:1` arbiter over the input ports.
    pub(crate) sa2: RoundRobinArbiter,
    /// Output side, the SA stage-2 arbiter (= crossbar mux) a flit headed
    /// here competes for: the output itself, its secondary source when
    /// the correction logic knows the primary path dead, `None` when
    /// unreachable. A function of the detected fault map (the identity
    /// on a baseline router), recomputed only when
    /// `FaultState::refresh_observed` reports re-derived maps.
    pub(crate) sa2_target: Option<PortId>,
    /// Input side, the rotating RC service pointer.
    pub(crate) rc_pointer: u8,
    /// Input side, the reprogrammed bypass register: the VC, and the
    /// rotation period it holds for in `bypass_period` (0 when unset).
    /// `sa_stage` models the paper's VC-to-VC transfer as a 1-cycle
    /// reprogramming of the default-winner register. (Two fields, not an
    /// `Option<(u8, Cycle)>`, whose tag would cost a second cache line.)
    pub(crate) bypass_vc: Option<u8>,
    pub(crate) bypass_period: Cycle,
    /// Output side, free buffer slots at each downstream VC.
    pub(crate) credits: [u8; MAX_VCS],
}

impl PortCtl {
    /// Port `port` of a fresh `p`-port, `v`-VC router whose downstream
    /// buffers hold `depth` flits.
    pub(crate) fn new(port: PortId, p: usize, v: usize, depth: u8) -> Self {
        let mut credits = [0; MAX_VCS];
        credits[..v].fill(depth);
        PortCtl {
            out_vc_busy: 0,
            credited: crate::router::width_mask(v),
            va2_ok: !0,
            sa1: RoundRobinArbiter::new(v),
            sa2: RoundRobinArbiter::new(p),
            sa2_target: Some(port),
            rc_pointer: 0,
            bypass_vc: None,
            bypass_period: 0,
            credits,
        }
    }
}

/// One input VC's bookkeeping: its architectural fields and its ring
/// in the router's [`FlitStore`]. The `P` (pointer) field of the figure
/// is the ring index; the `C` (credit) field lives in the router's
/// output-side tracker, since credits describe *downstream* space.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct VcSlot {
    /// Architectural state fields (`G R O` + protected `R2 VF ID SP FSP`).
    pub(crate) fields: VcStateFields,
    /// Ring position of the front flit.
    head: u8,
    /// Flits buffered.
    len: u8,
}

/// All input VC buffers of one router. Depth is at most 255
/// (`RouterConfig::validate`), so the ring indices are bytes.
#[derive(Debug, Clone)]
pub(crate) struct FlitStore {
    /// `P·V·depth` flit slots; a slot outside its VC's ring holds a stale
    /// flit that is never read.
    flits: Box<[Flit]>,
    /// One per VC, indexed `port·V + vc`.
    vcs: Box<[VcSlot]>,
    depth: u8,
}

impl FlitStore {
    /// An empty store of `vcs` rings of `depth` flits each.
    pub(crate) fn new(vcs: usize, depth: usize) -> Self {
        let depth = u8::try_from(depth).expect("VC depth is validated to at most 255");
        let blank = Flit::new(
            PacketId(0),
            FlitSeq(0),
            FlitKind::Single,
            Coord::new(0, 0),
            Coord::new(0, 0),
            0,
        );
        FlitStore {
            flits: vec![blank; vcs * usize::from(depth)].into_boxed_slice(),
            vcs: vec![VcSlot::default(); vcs].into_boxed_slice(),
            depth,
        }
    }

    /// Buffer capacity of every VC, in flits.
    #[inline]
    pub(crate) fn depth(&self) -> usize {
        usize::from(self.depth)
    }

    /// VC `i`'s bookkeeping.
    #[inline]
    pub(crate) fn slot(&self, i: usize) -> &VcSlot {
        &self.vcs[i]
    }

    /// VC `i`'s state fields, for writing.
    #[inline]
    pub(crate) fn fields_mut(&mut self, i: usize) -> &mut VcStateFields {
        &mut self.vcs[i].fields
    }

    /// Flits buffered in VC `i`.
    #[inline]
    pub(crate) fn len(&self, i: usize) -> usize {
        usize::from(self.vcs[i].len)
    }

    /// Index into `flits` of the `k`-th flit of VC `i`'s ring.
    #[inline]
    fn at(&self, i: usize, k: usize) -> usize {
        let d = self.depth();
        let pos = usize::from(self.vcs[i].head) + k;
        i * d + if pos >= d { pos - d } else { pos }
    }

    /// The flit at the front of VC `i`, if any.
    #[inline]
    pub(crate) fn front(&self, i: usize) -> Option<&Flit> {
        (self.vcs[i].len != 0).then(|| &self.flits[self.at(i, 0)])
    }

    /// Append an arriving flit to VC `i` (buffer write). The first flit
    /// of an idle, empty VC moves it to `Routing`.
    ///
    /// # Panics
    /// Panics if the ring is full — arrival beyond capacity means the
    /// credit protocol was violated, which is a simulator bug.
    #[inline]
    pub(crate) fn push(&mut self, i: usize, flit: Flit) {
        let len = self.vcs[i].len;
        assert!(
            len < self.depth,
            "VC buffer overflow: credit protocol violated"
        );
        let at = self.at(i, usize::from(len));
        self.flits[at] = flit;
        let slot = &mut self.vcs[i];
        if len == 0 && slot.fields.g == VcGlobalState::Idle {
            debug_assert!(
                flit.kind.is_head(),
                "first flit of an idle VC must be a head flit"
            );
            slot.fields.g = VcGlobalState::Routing;
        }
        slot.len = len + 1;
    }

    /// Remove and return the front flit of VC `i` (switch traversal).
    ///
    /// On a tail flit the VC state resets; if another packet's head is
    /// already queued behind, the VC re-enters `Routing`.
    #[inline]
    pub(crate) fn pop(&mut self, i: usize) -> Option<Flit> {
        if self.vcs[i].len == 0 {
            return None;
        }
        let flit = self.flits[self.at(i, 0)];
        let depth = self.depth;
        let slot = &mut self.vcs[i];
        slot.head = if slot.head + 1 == depth {
            0
        } else {
            slot.head + 1
        };
        slot.len -= 1;
        if flit.kind.is_tail() {
            slot.fields.reset();
            if slot.len != 0 {
                debug_assert!(
                    self.front(i).is_some_and(|f| f.kind.is_head()),
                    "flit after a tail must be a head"
                );
                self.vcs[i].fields.g = VcGlobalState::Routing;
            }
        }
        Some(flit)
    }

    /// A read-only view of VC `i`.
    #[inline]
    pub(crate) fn view(&self, i: usize) -> VcView<'_> {
        let d = self.depth();
        VcView {
            fields: &self.vcs[i].fields,
            ring: &self.flits[i * d..(i + 1) * d],
            head: usize::from(self.vcs[i].head),
            len: usize::from(self.vcs[i].len),
        }
    }

    /// Overwrite VC `i`'s fields and contents directly (snapshot
    /// restore), bypassing [`FlitStore::push`]'s arrival invariants: a
    /// snapshot captures mid-pipeline states (e.g. a non-head flit at
    /// the front of an `Active` VC) that no arrival sequence could
    /// reconstruct. The caller has checked `flits.len() <= depth`.
    pub(crate) fn overwrite(&mut self, i: usize, fields: VcStateFields, flits: &[Flit]) {
        let d = self.depth();
        debug_assert!(flits.len() <= d);
        self.flits[i * d..i * d + flits.len()].copy_from_slice(flits);
        self.vcs[i] = VcSlot {
            fields,
            head: 0,
            len: flits.len() as u8,
        };
    }
}

/// A read-only view of one input VC: its state fields and its buffered
/// flits (diagnostics, flight records, conservation checks and tests).
#[derive(Debug, Clone, Copy)]
pub struct VcView<'a> {
    /// Architectural state fields (`G R O` + protected `R2 VF ID SP FSP`).
    pub fields: &'a VcStateFields,
    ring: &'a [Flit],
    head: usize,
    len: usize,
}

impl<'a> VcView<'a> {
    /// Buffer capacity in flits.
    pub fn depth(&self) -> usize {
        self.ring.len()
    }

    /// Flits currently buffered.
    pub fn occupancy(&self) -> usize {
        self.len
    }

    /// Whether the buffer has no flits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the buffer is at capacity.
    pub fn is_full(&self) -> bool {
        self.len == self.ring.len()
    }

    /// The flit at the front of the buffer, if any.
    pub fn front(&self) -> Option<&'a Flit> {
        self.iter().next()
    }

    /// The buffered flits, front first.
    pub fn iter(&self) -> impl Iterator<Item = &'a Flit> + 'a {
        let (ring, head) = (self.ring, self.head);
        (0..self.len).map(move |k| &ring[(head + k) % ring.len()])
    }
}

// ---------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------

use noc_telemetry::json::{obj, JsonValue};
use noc_telemetry::snapshot::Snapshot;

impl Snapshot for VcView<'_> {
    fn snapshot(&self) -> JsonValue {
        obj([
            ("fields", self.fields.snapshot()),
            (
                "buffer",
                JsonValue::Arr(self.iter().map(Snapshot::snapshot).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_port_control_entry_is_one_cache_line() {
        assert_eq!(std::mem::size_of::<PortCtl>(), 64);
        assert_eq!(std::mem::align_of::<PortCtl>(), 64);
    }

    fn flit(pkt: u64, kind: FlitKind) -> Flit {
        Flit::new(
            PacketId(pkt),
            FlitSeq(0),
            kind,
            Coord::new(0, 0),
            Coord::new(1, 1),
            0,
        )
    }

    #[test]
    fn head_arrival_wakes_idle_vc() {
        let mut s = FlitStore::new(2, 4);
        assert_eq!(s.slot(1).fields.g, VcGlobalState::Idle);
        s.push(1, flit(1, FlitKind::Head));
        assert_eq!(s.slot(1).fields.g, VcGlobalState::Routing);
        assert_eq!((s.len(0), s.len(1)), (0, 1));
    }

    #[test]
    fn tail_pop_resets_state_and_wakes_next_packet() {
        let mut s = FlitStore::new(1, 4);
        s.push(0, flit(1, FlitKind::Head));
        s.fields_mut(0).g = VcGlobalState::Active;
        s.push(0, flit(1, FlitKind::Tail));
        s.push(0, flit(2, FlitKind::Head)); // next packet queued behind
        assert_eq!(s.pop(0).unwrap().kind, FlitKind::Head);
        assert_eq!(
            s.slot(0).fields.g,
            VcGlobalState::Active,
            "non-tail pop keeps state"
        );
        assert_eq!(s.pop(0).unwrap().kind, FlitKind::Tail);
        assert_eq!(
            s.slot(0).fields.g,
            VcGlobalState::Routing,
            "next head wakes VC"
        );
        assert_eq!(s.len(0), 1);
    }

    #[test]
    fn tail_pop_on_empty_vc_goes_idle() {
        let mut s = FlitStore::new(1, 4);
        s.push(0, flit(1, FlitKind::Head));
        s.fields_mut(0).g = VcGlobalState::Active;
        s.push(0, flit(1, FlitKind::Tail));
        s.pop(0);
        s.pop(0);
        assert_eq!(s.slot(0).fields.g, VcGlobalState::Idle);
        assert_eq!(s.pop(0), None);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut s = FlitStore::new(2, 1);
        s.push(0, flit(1, FlitKind::Head));
        s.push(0, flit(1, FlitKind::Tail));
    }

    #[test]
    fn rings_wrap_in_place_and_stay_apart() {
        // Depth 3 (not a power of two): the head walks round each ring
        // many times, and neighbouring rings never see each other's
        // flits.
        let mut s = FlitStore::new(3, 3);
        for i in 0..3 {
            s.fields_mut(i).g = VcGlobalState::Active; // body flits only
        }
        let mut next = [0u64; 3];
        let mut want: [std::collections::VecDeque<u64>; 3] = Default::default();
        for step in 0..60u64 {
            let i = (step % 3) as usize;
            if step % 5 < 3 && s.len(i) < 3 {
                next[i] += 1;
                let id = i as u64 * 1000 + next[i];
                s.push(i, flit(id, FlitKind::Body));
                want[i].push_back(id);
            } else {
                assert_eq!(s.pop(i).map(|f| f.packet.0), want[i].pop_front());
            }
            for (j, w) in want.iter().enumerate() {
                let got: Vec<u64> = s.view(j).iter().map(|f| f.packet.0).collect();
                assert_eq!(got, w.iter().copied().collect::<Vec<_>>(), "ring {j}");
                assert_eq!(s.view(j).front().map(|f| f.packet.0), w.front().copied());
            }
        }
    }
}
