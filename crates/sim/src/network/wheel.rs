//! The wire wheel: [`Wire`]s in flight, by arrival cycle. Each stepper
//! shard owns a [`Wheel`] of the wires its routers sent; a [`Horizon`]
//! bounds how long one can grow.

use super::links::Links;
use noc_telemetry::json::{JsonSink, JsonValue};
use noc_telemetry::snapshot::{
    decode_field, str_field, u64_field, FromSnapshot, Snapshot, SnapshotError,
};
use noc_types::{Cycle, Flit, NetworkConfig, PortId, VcId};

/// A flit or credit in flight on a link.
#[derive(Debug, Clone, Copy)]
pub(super) enum Wire {
    Flit {
        router: usize,
        port: PortId,
        vc: VcId,
        flit: Flit,
    },
    Credit {
        router: usize,
        out_port: PortId,
        vc: VcId,
    },
    /// A flit on its way from a router's local output to the NI.
    Eject { node: usize, flit: Flit },
    /// A credit from the NI back to the router's local output.
    NiCredit { router: usize, vc: VcId },
}

impl Wire {
    /// The router (or node) index this wire is travelling towards — the
    /// key a shard picks its arrivals by.
    pub(super) fn dest(&self) -> usize {
        match self {
            Wire::Flit { router, .. }
            | Wire::Credit { router, .. }
            | Wire::NiCredit { router, .. } => *router,
            Wire::Eject { node, .. } => *node,
        }
    }
}

/// The wires one shard's routers sent that arrive in the same cycle.
#[derive(Debug, Default)]
pub(super) struct Slot {
    /// In emission order: by production cycle, then router id, then the
    /// order the router emitted them.
    pub(super) wires: Vec<Wire>,
    /// One entry per production cycle, ascending: its label and the
    /// index of its first wire. A cycle's label is [`Network::cycle`]
    /// once that cycle has stepped (so at least 1); a wheel loaded at a
    /// cycle boundary is one run per slot labelled 0, before anything
    /// still to be produced. The wires of one slot arrive together, so
    /// it holds at most one run per slot of its wheel.
    pub(super) runs: Vec<(Cycle, u32)>,
    /// Indices of the wires addressed outside the owning shard,
    /// ascending — all another shard reads of this slot.
    pub(super) cross: Vec<u32>,
}

impl Slot {
    pub(super) fn with_capacity(wires: usize, runs: usize) -> Self {
        Slot {
            wires: Vec::with_capacity(wires),
            runs: Vec::with_capacity(runs),
            cross: Vec::with_capacity(wires),
        }
    }

    /// The wires of run `i`.
    pub(super) fn run(&self, i: usize) -> &[Wire] {
        let end = self
            .runs
            .get(i + 1)
            .map_or(self.wires.len(), |&(_, at)| at as usize);
        &self.wires[self.runs[i].1 as usize..end]
    }

    /// Empty the slot, keeping its capacity (`Wire` is `Copy`, so this
    /// is O(1)).
    pub(super) fn clear(&mut self) {
        self.wires.clear();
        self.runs.clear();
        self.cross.clear();
    }
}

/// One shard's wire wheel: the wires its own routers sent, by arrival
/// cycle. Slot `k` arrives `k + 1` cycles after the cycle last stepped.
/// Phase A hands slot 0 over and leaves an empty one in its place; the
/// shard's phase B then moves slot 1's wires into it and turns the rest
/// (see [`Wheel::advance`]). Pacing on narrow links can push a delay
/// past the horizon; the wheel then grows (deterministically — growth
/// is a pure function of the departure sequence, and the canonical
/// length is the longest shard wheel, which is the longest delay ever
/// pushed at any shard count).
pub(super) struct Wheel {
    pub(super) slots: Vec<Slot>,
    /// Empty slots kept for growth.
    spare: Vec<Slot>,
    /// The owning shard's router-id range; a wire addressed outside it
    /// is indexed in [`Slot::cross`].
    lo: usize,
    hi: usize,
    /// Wire capacity of slot 0 and of the arriving slot it trades
    /// places with, which carry the bulk of the traffic (`0` = grow on
    /// demand).
    pub(super) hot_cap: usize,
    /// Wire capacity of every other slot.
    cold_cap: usize,
    /// The most slots a preallocated wheel makes at its first growth —
    /// its horizon's maximum, so pacing never grows it by allocating
    /// again; the base length for a wheel that grows on demand.
    max: usize,
}

impl Wheel {
    /// An empty wheel of `horizon.base` slots for the shard owning
    /// routers `[lo, hi)`. Slot 0 holds `hot_cap` wires before it grows
    /// and every other slot `cold_cap`: past slot 0 a slot only holds
    /// wires on links slower than one cycle, which on the chiplet mesh
    /// is at most one per narrow link; a slot that needs more grows
    /// once. A preallocated wheel (`hot_cap > 0`) reserves room for
    /// `horizon.max` slots.
    pub(super) fn new(
        lo: usize,
        hi: usize,
        horizon: Horizon,
        hot_cap: usize,
        cold_cap: usize,
    ) -> Self {
        let (max, runs) = if hot_cap > 0 {
            (horizon.max, horizon.max)
        } else {
            (horizon.base, 0)
        };
        let cap = |k: usize| if k == 0 { hot_cap } else { cold_cap };
        let mut slots = Vec::with_capacity(max);
        slots.extend((0..horizon.base).map(|k| Slot::with_capacity(cap(k), runs)));
        Wheel {
            slots,
            spare: Vec::new(),
            lo,
            hi,
            hot_cap,
            cold_cap,
            max,
        }
    }

    /// Phase A: slot 0 — arriving now — is swapped out into `arriving`,
    /// an empty slot, which takes its place until [`Wheel::advance`].
    pub(super) fn hand_over(&mut self, arriving: &mut Slot) {
        std::mem::swap(&mut self.slots[0], arriving);
    }

    /// Phase B, before the shard pushes: advance one cycle. Slot 1's
    /// wires move into the empty slot 0, and the emptied slot 1 goes to
    /// the far end. Moving the wires rather than the slot keeps the
    /// bulk of the traffic — wires on latency-1 links, all pushed to
    /// slot 0 — in the two buffers that slot 0 and the arriving slot
    /// trade every cycle, which stay in cache; slot 1 holds only
    /// wires on slower links, a few per cycle.
    pub(super) fn advance(&mut self) {
        let len = self.slots.len();
        let (now, rest) = self.slots.split_first_mut().expect("a wheel has two slots");
        let next = &mut rest[0];
        // `now` is empty; the wheel may have grown while it was handed
        // over, and a slot holds up to one run per slot.
        now.runs.reserve(len);
        now.wires.extend_from_slice(&next.wires);
        now.runs.extend_from_slice(&next.runs);
        now.cross.extend_from_slice(&next.cross);
        next.clear();
        rest.rotate_left(1);
    }

    /// Grow or shrink to `len` slots, through the spares; every slot
    /// then has room for `len` runs. Shrinking drops the far slots,
    /// which must be empty. Short of spares, the wheel makes every slot
    /// it may still need, up to `max`, at once.
    #[cold]
    fn resize(&mut self, len: usize) {
        let keep = len.min(self.slots.len());
        self.spare.extend(self.slots.drain(keep..));
        if self.slots.len() + self.spare.len() < len {
            let (cap, all) = (self.cold_cap, len.max(self.max));
            let make = all - self.slots.len() - self.spare.len();
            self.spare
                .extend((0..make).map(|_| Slot::with_capacity(cap, all)));
        }
        while self.slots.len() < len {
            let slot = self.spare.pop().expect("spares made above");
            self.slots.push(slot);
        }
        for slot in &mut self.slots {
            slot.runs.reserve(len.saturating_sub(slot.runs.len()));
        }
    }

    /// Empty the wheel and resize it to `len` slots.
    pub(super) fn reset(&mut self, len: usize) {
        self.slots.iter_mut().for_each(Slot::clear);
        self.resize(len);
    }

    /// Schedule `w`, produced in the cycle labelled `label`, to arrive
    /// `delay >= 1` cycles from now. Inlined, so each call site's
    /// `Wire::dest` folds to a field.
    #[inline]
    pub(super) fn push(&mut self, delay: u32, label: Cycle, w: Wire) {
        let k = delay as usize - 1;
        if k >= self.slots.len() {
            self.resize(k + 1);
        }
        let slot = &mut self.slots[k];
        let at = slot.wires.len() as u32;
        if slot.runs.last().is_none_or(|&(l, _)| l != label) {
            slot.runs.push((label, at));
        }
        if !(self.lo..self.hi).contains(&w.dest()) {
            slot.cross.push(at);
        }
        slot.wires.push(w);
    }
}

impl Snapshot for Wire {
    fn encode<S: JsonSink>(&self, sink: &mut S) {
        sink.obj(|sink| match self {
            Wire::Flit {
                router,
                port,
                vc,
                flit,
            } => {
                sink.field("t").str("flit");
                sink.field("router").u64(*router as u64);
                port.encode(sink.field("port"));
                vc.encode(sink.field("vc"));
                flit.encode(sink.field("flit"));
            }
            Wire::Credit {
                router,
                out_port,
                vc,
            } => {
                sink.field("t").str("credit");
                sink.field("router").u64(*router as u64);
                out_port.encode(sink.field("out_port"));
                vc.encode(sink.field("vc"));
            }
            Wire::Eject { node, flit } => {
                sink.field("t").str("eject");
                sink.field("node").u64(*node as u64);
                flit.encode(sink.field("flit"));
            }
            Wire::NiCredit { router, vc } => {
                sink.field("t").str("ni_credit");
                sink.field("router").u64(*router as u64);
                vc.encode(sink.field("vc"));
            }
        });
    }
}

impl FromSnapshot for Wire {
    fn from_snapshot(v: &JsonValue) -> Result<Self, SnapshotError> {
        match str_field(v, "t")? {
            "flit" => Ok(Wire::Flit {
                router: u64_field(v, "router")? as usize,
                port: decode_field(v, "port")?,
                vc: decode_field(v, "vc")?,
                flit: decode_field(v, "flit")?,
            }),
            "credit" => Ok(Wire::Credit {
                router: u64_field(v, "router")? as usize,
                out_port: decode_field(v, "out_port")?,
                vc: decode_field(v, "vc")?,
            }),
            "eject" => Ok(Wire::Eject {
                node: u64_field(v, "node")? as usize,
                flit: decode_field(v, "flit")?,
            }),
            "ni_credit" => Ok(Wire::NiCredit {
                router: u64_field(v, "router")? as usize,
                vc: decode_field(v, "vc")?,
            }),
            other => Err(SnapshotError::new(format!("unknown wire tag `{other}`"))),
        }
    }
}

/// How long the wire wheel is: `base` slots at construction — one past
/// the slowest link class and the router→NI latency — and at most
/// `max` once narrow-link pacing has grown it.
#[derive(Debug, Clone, Copy)]
pub(super) struct Horizon {
    pub(super) base: usize,
    pub(super) max: usize,
}

impl Horizon {
    pub(super) fn of(links: &Links, cfg: &NetworkConfig) -> Self {
        let links = || links.targets(..);
        let latency = links().map(|l| l.latency).max().unwrap_or(1);
        let base = latency.max(cfg.link_latency) as usize + 1;
        // A flit queues on a narrow link behind at most the flits the
        // downstream buffers hold credits for — V·depth, `width_denom`
        // cycles each — so it arrives at most V·depth·width_denom +
        // latency − 1 cycles after it departs.
        let credits = (cfg.router.vcs * cfg.router.buffer_depth) as u32;
        let paced = links()
            .filter(|l| l.width_denom > 1)
            .map(|l| credits * u32::from(l.width_denom) + l.latency - 1)
            .max()
            .unwrap_or(0);
        Horizon {
            base,
            max: base.max(paced as usize),
        }
    }
}
