//! The network: routers, links, NIs and the per-cycle update, built
//! from a [`noc_topology::Topology`] (mesh, torus or irregular graph —
//! see [`noc_types::TopologySpec`] and ARCHITECTURE.md §4). Wires,
//! credit links and NI attachment all follow the topology's link set; a
//! missing link (cut, or the edge of a mesh) behaves like the mesh edge
//! always has — a misrouted departure onto it is dropped and its credit
//! restored.
//!
//! # The stepper
//!
//! [`Network::step`] is one stepper whose shard count is the thread
//! count ([`Network::set_threads`]; one shard, no worker threads, by
//! default). The node grid is partitioned into contiguous row bands in
//! topology node order. Each shard owns the wire wheel of the wires its
//! own routers send, and a cycle runs in three phases:
//!
//! * **A** — every shard's wheel hands over the slot arriving now, for
//!   all shards to read (one vector swap per shard);
//! * **B** — each shard, on the calling thread or a persistent
//!   [`crate::WorkerPool`] worker, advances its own wheel, applies the
//!   wires addressed to its routers from every shard's arriving slot,
//!   injects from its NIs and steps its routers, whose outputs go
//!   straight into its own wheel;
//! * **C** — the arriving slots are emptied, and the counters and
//!   deliveries are merged in fixed shard order (= router-id order).
//!
//! Because link latency is ≥ 1 cycle, a router's step never reads
//! another router's same-cycle output, so shards are independent within
//! a cycle. Every shard count is bit-identical — wraparound and cut
//! links included: the wires one link delivers in a cycle sit in one
//! shard's slot in emission order, arrivals on different links commute
//! (buffers per input port, credits are counters), and ejections never
//! leave their shard and are applied in router order. Everything that
//! reads the wheel as a whole — snapshots, clones, re-partitioning, the
//! link-fault scrub, the flit and credit counts — reads it in one
//! canonical order (`Partition::for_each_wire`); see ARCHITECTURE.md
//! §2.1 for the full argument. The stepper is allocation-free in steady
//! state.
//!
//! Independently of the shard count, an **active-router worklist**
//! skips [`shield_router::Router::step_into`] for routers that are
//! provably inert this cycle ([`shield_router::Router::is_idle_at`]):
//! no buffered flits, no pending crossbar grants, and no fault that
//! manifests, is detected or clears this cycle. At
//! the low injection rates that dominate latency–load sweeps this is
//! most of the mesh. [`Network::set_skip_idle`] disables it, and
//! [`Network::set_worklist_audit`] steps idle routers anyway while
//! asserting their step was an observable no-op (used by the
//! `worklist_is_sound` property test).

use crate::ni::NetworkInterface;
use crate::pool::WorkerPool;
use crate::stats::RouterEventTotals;
use noc_faults::{FaultMap, FaultPlan, LinkFaultEvent};
use noc_telemetry::json::{obj, JsonValue};
use noc_telemetry::{
    Event, EventKind, FlightRecord, NullObserver, Observer, RouterDump, SpatialGrid, VcDump,
    WaitEdge, WaitForGraph, WaitNode, WaitReason,
};
use noc_topology::{Irregular, Topology};
use noc_types::{
    Cycle, DeliveredPacket, Direction, Flit, LinkClass, Mesh, NetworkConfig, Packet, PortId,
    RoutingMode, TopologySpec, VcGlobalState, VcId,
};
use shield_router::{Router, RouterKind, RouterStats, RoutingAlgorithm, StepOutput};
use std::sync::Arc;

/// One fully-resolved link out of a router: the downstream router, the
/// port the link enters it through, and the link's physical class —
/// traversal latency and serialization factor — baked in from the
/// topology at construction so the hot path never queries it.
#[derive(Debug, Clone, Copy)]
struct LinkTarget {
    /// Downstream router id.
    down: usize,
    /// Input port our link enters the downstream router through.
    in_port: PortId,
    /// Link traversal latency in cycles (`>= 1`).
    latency: u32,
    /// Serialization factor: cycles of link occupancy per flit (`1` =
    /// full width). A flit departing onto a busy narrow link waits for
    /// the link to free and spends `width_denom` cycles serialising,
    /// so its arrival is delayed accordingly; credits are single
    /// signals and never serialise.
    width_denom: u32,
}

/// One router's outgoing wiring: per output port, the resolved link
/// (`None` = no link — grid edge, cut link, or the local port).
/// Precomputed from the topology so the hot path never recomputes
/// neighbours or link classes.
type WiringRow = [Option<LinkTarget>; 5];

/// A flit or credit in flight on a link.
#[derive(Debug, Clone, Copy)]
enum Wire {
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
    fn dest(&self) -> usize {
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
struct Slot {
    /// In emission order: by production cycle, then router id, then the
    /// order the router emitted them.
    wires: Vec<Wire>,
    /// One entry per production cycle, ascending: its label and the
    /// index of its first wire. A cycle's label is [`Network::cycle`]
    /// once that cycle has stepped (so at least 1); a wheel loaded at a
    /// cycle boundary is one run per slot labelled 0, before anything
    /// still to be produced. The wires of one slot arrive together, so
    /// it holds at most one run per slot of its wheel.
    runs: Vec<(Cycle, u32)>,
    /// Indices of the wires addressed outside the owning shard,
    /// ascending — all another shard reads of this slot.
    cross: Vec<u32>,
}

impl Slot {
    fn with_capacity(wires: usize, runs: usize) -> Self {
        Slot {
            wires: Vec::with_capacity(wires),
            runs: Vec::with_capacity(runs),
            cross: Vec::with_capacity(wires),
        }
    }

    /// The wires of run `i`.
    fn run(&self, i: usize) -> &[Wire] {
        let end = self
            .runs
            .get(i + 1)
            .map_or(self.wires.len(), |&(_, at)| at as usize);
        &self.wires[self.runs[i].1 as usize..end]
    }

    /// Empty the slot, keeping its capacity (`Wire` is `Copy`, so this
    /// is O(1)).
    fn clear(&mut self) {
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
struct Wheel {
    slots: Vec<Slot>,
    /// Empty slots kept for growth.
    spare: Vec<Slot>,
    /// The owning shard's router-id range; a wire addressed outside it
    /// is indexed in [`Slot::cross`].
    lo: usize,
    hi: usize,
    /// Wire capacity of slot 0 and of the arriving slot it trades
    /// places with, which carry the bulk of the traffic (`0` = grow on
    /// demand).
    hot_cap: usize,
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
    fn new(lo: usize, hi: usize, horizon: Horizon, hot_cap: usize, cold_cap: usize) -> Self {
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
    fn hand_over(&mut self, arriving: &mut Slot) {
        std::mem::swap(&mut self.slots[0], arriving);
    }

    /// Phase B, before the shard pushes: advance one cycle. Slot 1's
    /// wires move into the empty slot 0, and the emptied slot 1 goes to
    /// the far end. Moving the wires rather than the slot keeps the
    /// bulk of the traffic — wires on latency-1 links, all pushed to
    /// slot 0 — in the two buffers that slot 0 and the arriving slot
    /// trade every cycle, which stay in cache; slot 1 holds only
    /// wires on slower links, a few per cycle.
    fn advance(&mut self) {
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
    fn reset(&mut self, len: usize) {
        self.slots.iter_mut().for_each(Slot::clear);
        self.resize(len);
    }

    /// Schedule `w`, produced in the cycle labelled `label`, to arrive
    /// `delay >= 1` cycles from now. Inlined, so each call site's
    /// `Wire::dest` folds to a field.
    #[inline]
    fn push(&mut self, delay: u32, label: Cycle, w: Wire) {
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

/// Reusable per-shard working state of the stepper. All buffers keep
/// their capacity across cycles. Aligned to 128 bytes (a pair of cache
/// lines, the unit x86 prefetches) so that no two shards' counters and
/// wheel headers, written throughout phase B, share a line.
#[repr(align(128))]
struct ShardScratch {
    /// The wires this shard's routers sent that have not arrived yet.
    wheel: Wheel,
    /// Packets completed at this shard's NIs this cycle.
    deliveries: Vec<DeliveredPacket>,
    /// Per-shard reusable router step output.
    step_out: StepOutput,
    flits_dropped: u64,
    flits_edge_dropped: u64,
    flits_injected: u64,
    routers_stepped: u64,
    routers_skipped: u64,
    any_departure: bool,
    /// Wall-clock nanoseconds this shard spent in phase B this cycle.
    /// Profiling only — never feeds back into simulation state, so
    /// determinism is untouched.
    step_nanos: u64,
}

impl ShardScratch {
    /// Scratch for the shard owning routers `[lo, hi)` of `wiring`, with
    /// an empty wheel over `horizon`. With `presize`, every buffer is
    /// preallocated — five wires per router in the wheel's hot slots and
    /// one per narrow link in the others, one completed packet per
    /// router: more than sustained traffic produces in a cycle — so the
    /// stepper is allocation-free from the first cycle, but for the
    /// wheel's first growth; without, the buffers grow to steady
    /// capacity during warm-up.
    fn new(lo: usize, hi: usize, wiring: &[WiringRow], horizon: Horizon, presize: bool) -> Self {
        let (nodes, narrow) = if presize {
            let links = wiring[lo..hi].iter().flatten().flatten();
            (hi - lo, links.filter(|l| l.width_denom > 1).count())
        } else {
            (0, 0)
        };
        ShardScratch {
            wheel: Wheel::new(lo, hi, horizon, 5 * nodes, narrow),
            deliveries: Vec::with_capacity(nodes),
            step_out: StepOutput::default(),
            flits_dropped: 0,
            flits_edge_dropped: 0,
            flits_injected: 0,
            routers_stepped: 0,
            routers_skipped: 0,
            any_departure: false,
            step_nanos: 0,
        }
    }
}

/// Cycles per profiling interval of a multi-shard stepper.
const PROFILE_INTERVAL: Cycle = 1024;

/// Profiling intervals retained by the stepper profile ring.
const PROFILE_CAP: usize = 64;

/// Wall-clock profile of one [`PROFILE_INTERVAL`]-cycle interval of a
/// multi-shard stepper: how long each shard's phase B took and how many
/// router steps it executed.
///
/// The timings are wall clock and therefore *nondeterministic*; they
/// exist for bench harnesses and the service progress endpoint, and
/// deliberately never enter [`NetworkReport`]s or checkpoints.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct IntervalProfile {
    /// First cycle of the interval (inclusive).
    pub start_cycle: Cycle,
    /// Last cycle of the interval (exclusive).
    pub end_cycle: Cycle,
    /// Per-shard wall-clock nanoseconds spent in phase B.
    pub shard_nanos: Vec<u64>,
    /// Per-shard router steps executed.
    pub shard_steps: Vec<u64>,
}

impl IntervalProfile {
    /// Wall-clock load imbalance: slowest shard's phase-B time divided
    /// by the mean (1.0 = perfectly balanced).
    pub fn time_imbalance(&self) -> f64 {
        let max = self.shard_nanos.iter().copied().max().unwrap_or(0);
        let total: u64 = self.shard_nanos.iter().sum();
        if total == 0 {
            1.0
        } else {
            max as f64 * self.shard_nanos.len() as f64 / total as f64
        }
    }
}

/// The profile of a multi-shard stepper: the interval being accumulated
/// plus a ring of the last [`PROFILE_CAP`] closed ones. Everything is
/// allocated when the partition is built, per-shard vectors included,
/// so profiling never allocates afterwards.
struct ShardProfile {
    /// The open interval (`start_cycle == end_cycle` until its first
    /// cycle is recorded).
    open: IntervalProfile,
    /// Closed intervals; old ones are overwritten.
    ring: Vec<IntervalProfile>,
    /// Next ring slot to overwrite.
    head: usize,
    /// Closed intervals recorded (saturates at [`PROFILE_CAP`]).
    len: usize,
}

impl ShardProfile {
    fn new(nshards: usize) -> Self {
        let empty = IntervalProfile {
            shard_nanos: vec![0; nshards],
            shard_steps: vec![0; nshards],
            ..IntervalProfile::default()
        };
        ShardProfile {
            ring: vec![empty.clone(); PROFILE_CAP],
            open: empty,
            head: 0,
            len: 0,
        }
    }

    /// Account `cycle` to the open interval — which starts at the first
    /// cycle it sees, so a partition built mid-run reports true bounds —
    /// and close it at every multiple of [`PROFILE_INTERVAL`].
    fn end_cycle(&mut self, cycle: Cycle) {
        if self.open.start_cycle == self.open.end_cycle {
            self.open.start_cycle = cycle;
        }
        self.open.end_cycle = cycle + 1;
        if self.open.end_cycle.is_multiple_of(PROFILE_INTERVAL) {
            // The overwritten slot's vectors become the next open
            // interval's, so nothing is allocated.
            std::mem::swap(&mut self.ring[self.head], &mut self.open);
            self.head = (self.head + 1) % PROFILE_CAP;
            self.len = (self.len + 1).min(PROFILE_CAP);
            self.open.start_cycle = cycle + 1;
            self.open.end_cycle = cycle + 1;
            self.open.shard_nanos.fill(0);
            self.open.shard_steps.fill(0);
        }
    }

    /// Closed intervals, oldest first.
    fn closed(&self) -> Vec<IntervalProfile> {
        let start = (self.head + PROFILE_CAP - self.len) % PROFILE_CAP;
        (0..self.len)
            .map(|i| self.ring[(start + i) % PROFILE_CAP].clone())
            .collect()
    }
}

/// Shard-cut granularity in grid rows: `chiplet_rows` (the chiplet side
/// length) when the topology is hierarchical and the grid holds at
/// least one chiplet-row block per shard, else single rows. Cutting at
/// block granularity aligns shard boundaries with die boundaries, so
/// every wire that crosses shards is one of the slow d2d links; when
/// there are fewer blocks than shards the partitioner falls back to
/// row granularity (correctness never depends on the cut placement).
fn cut_block(chiplet_rows: Option<usize>, h: usize, nshards: usize) -> usize {
    match chiplet_rows {
        Some(k) if k > 0 && h.div_ceil(k) >= nshards => k,
        _ => 1,
    }
}

/// The stepper's shard partition (contiguous row bands over router
/// ids), the worker pool that steps it and the shards' wire wheels.
/// The cut is a function of `(grid, shard count, die size)` alone:
/// after [`Partition::new`] only the shard scratch, the arriving slots
/// and the profile are ever written.
struct Partition {
    /// `shards - 1` background workers; the caller steps a shard too.
    /// Shared by every clone of the network: the pool runs one
    /// broadcast at a time, and a broadcast from inside one of its own
    /// tasks runs inline.
    pool: Arc<WorkerPool>,
    /// Per shard: the `[start, end)` router-id range it owns.
    bounds: Vec<(usize, usize)>,
    shards: Vec<ShardScratch>,
    /// Per shard: the slot of its wheel arriving this cycle, which
    /// every shard reads in phase B. Empty at cycle boundaries.
    arriving: Vec<Slot>,
    /// The wheel's length at construction and its bound.
    horizon: Horizon,
    /// Wall-clock profile; `None` for a lone shard, which has no
    /// imbalance to report and so reads no clock.
    profile: Option<ShardProfile>,
}

impl Partition {
    /// Cut the grid into one even band per thread of `pool` (its
    /// workers and the caller), each with an empty wheel over
    /// `horizon` for its routers' links in `wiring`. `chiplet_rows` is
    /// the chiplet side length on hierarchical topologies (see
    /// [`cut_block`]).
    fn new(
        pool: Arc<WorkerPool>,
        mesh: Mesh,
        chiplet_rows: Option<usize>,
        wiring: &[WiringRow],
        horizon: Horizon,
    ) -> Self {
        let w = mesh.w as usize;
        let h = mesh.h as usize;
        // One band per thread, but never split a grid row and never
        // create an empty shard. Bands follow topology node order
        // (= row-major id order), so the partition is identical for
        // every topology over the same grid. On chiplet grids with
        // enough chiplet-row blocks, bands are whole blocks instead of
        // whole rows, so shard boundaries coincide with die boundaries.
        let nshards = pool.workers() + 1;
        assert!(nshards <= h, "more shards than grid rows");
        let block = cut_block(chiplet_rows, h, nshards);
        let nblocks = h.div_ceil(block);
        let mut bounds = Vec::with_capacity(nshards);
        let mut bstart = 0;
        for s in 0..nshards {
            let blocks = nblocks / nshards + usize::from(s < nblocks % nshards);
            let lo = (bstart * block).min(h);
            let hi = ((bstart + blocks) * block).min(h);
            bounds.push((lo * w, hi * w));
            bstart += blocks;
        }
        // A lone shard's buffers just grow to steady capacity during
        // warm-up, so the short runs of a campaign never pay for a
        // bound they do not reach.
        let presize = nshards > 1;
        let shards: Vec<ShardScratch> = bounds
            .iter()
            .map(|&(lo, hi)| ShardScratch::new(lo, hi, wiring, horizon, presize))
            .collect();
        let runs = if presize { horizon.max } else { 0 };
        Partition {
            arriving: shards
                .iter()
                .map(|s| Slot::with_capacity(s.wheel.hot_cap, runs))
                .collect(),
            shards,
            pool,
            bounds,
            horizon,
            profile: presize.then(|| ShardProfile::new(nshards)),
        }
    }

    /// The wheel's length: the longest shard wheel.
    fn wheel_len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.wheel.slots.len())
            .max()
            .unwrap_or(0)
    }

    /// Visit every wire on the wheel, with its slot index, in the one
    /// canonical order: by slot (slot 0 arrives next), then production
    /// cycle, then source shard, then the order the shard pushed them —
    /// that is, by source router and emission order, since shards are
    /// ascending router ranges stepped in id order. The order is a
    /// merge of the shards' runs by label, so it is the same at every
    /// shard count; everything that reads the wheel as a whole reads it
    /// through here.
    fn for_each_wire(&self, mut f: impl FnMut(usize, &Wire)) {
        for k in 0..self.wheel_len() {
            let slots = || self.shards.iter().filter_map(move |s| s.wheel.slots.get(k));
            let mut next = slots().filter_map(|s| s.runs.first()).map(|r| r.0).min();
            while let Some(label) = next.take() {
                for slot in slots() {
                    for (i, &(l, _)) in slot.runs.iter().enumerate() {
                        if l == label {
                            slot.run(i).iter().for_each(|w| f(k, w));
                        } else if l > label {
                            next = Some(next.map_or(l, |n| n.min(l)));
                            break;
                        }
                    }
                }
            }
        }
    }

    /// Empty every wheel: shard 0's to `len` slots, the others to the
    /// base length (`len >= horizon.base`), so the wheel is `len` long.
    fn reset_wheel(&mut self, len: usize) {
        for (s, shard) in self.shards.iter_mut().enumerate() {
            shard
                .wheel
                .reset(if s == 0 { len } else { self.horizon.base });
        }
    }

    /// Append `w` to slot `k` of a freshly reset wheel, after the wires
    /// loaded there before it. Loaded wires all go to shard 0, as one
    /// run per slot labelled 0, whoever sent them: every shard reads
    /// the wires addressed to it from every shard's slots, and label 0
    /// keeps them ahead of everything produced later in the canonical
    /// order.
    fn load(&mut self, k: usize, w: Wire) {
        self.shards[0].wheel.push(k as u32 + 1, 0, w);
    }

    /// Replace this partition's wheel with a copy of `other`'s, in the
    /// canonical order.
    fn copy_wheel(&mut self, other: &Partition) {
        self.reset_wheel(other.wheel_len());
        other.for_each_wire(|k, w| self.load(k, *w));
    }
}

/// One shard's mutable view of the network for phase B of a cycle:
/// disjoint slices of the routers, NIs and link counters, its scratch
/// (its wheel included), and shared read access to every shard's
/// arriving slot. No two shards alias: a shard writes only its own
/// wheel, and the arriving slots are read-only until phase C.
struct ShardCtx<'a, O: Observer> {
    /// This shard's index.
    me: usize,
    /// Every shard's slot arriving this cycle.
    arriving: &'a [Slot],
    base: usize,
    /// This shard's slice of the network wiring table.
    wiring: &'a [WiringRow],
    skip_idle: bool,
    /// Step idle routers anyway and assert the step was a no-op.
    audit: bool,
    /// Router→NI link latency (the config's uniform `link_latency`).
    local_delay: u32,
    routers: &'a mut [Router],
    nis: &'a mut [NetworkInterface],
    link_flits: &'a mut [[u64; 5]],
    link_free: &'a mut [[Cycle; 5]],
    scratch: &'a mut ShardScratch,
    obs: &'a mut O,
}

impl<O: Observer> ShardCtx<'_, O> {
    /// One shard's share of a cycle — deliver arrivals, inject, step —
    /// whose outputs are labelled `label` on the wheel.
    ///
    /// Arrivals are taken slot by slot in shard order: this shard's own
    /// slot whole, the others' through their cross-shard index. That
    /// differs from the canonical order only between wires on different
    /// links, which commute; ejections are all in one slot in router
    /// order, so the delivery log is appended in router order.
    fn run(&mut self, cycle: Cycle, label: Cycle) {
        let ShardCtx {
            me,
            arriving,
            base,
            wiring,
            skip_idle,
            audit,
            local_delay,
            routers,
            nis,
            link_flits,
            link_free,
            scratch,
            obs,
        } = self;
        let base = *base;
        scratch.wheel.advance();
        let mine = base..base + routers.len();
        for (s, slot) in arriving.iter().enumerate() {
            let mut apply = |w: Wire| {
                apply_arrival(w, base, routers, nis, &mut scratch.deliveries, cycle, *obs);
            };
            if s == *me {
                // Every wire but the indexed cross-shard ones is ours.
                let mut cross = slot.cross.iter().copied().peekable();
                for (i, &w) in slot.wires.iter().enumerate() {
                    if cross.next_if_eq(&(i as u32)).is_none() {
                        apply(w);
                    }
                }
            } else {
                for &i in &slot.cross {
                    let w = slot.wires[i as usize];
                    if mine.contains(&w.dest()) {
                        apply(w);
                    }
                }
            }
        }
        // NI injection (one flit per node per cycle). `inject` on an NI
        // with nothing queued and nothing mid-send is a pure no-op, so
        // the (at light load, vast) idle majority skips the call.
        for local in 0..nis.len() {
            if !nis[local].pending_work() {
                continue;
            }
            if let Some((vc, flit)) = nis[local].inject(cycle) {
                scratch.flits_injected += 1;
                if O::ENABLED {
                    obs.record(Event {
                        cycle,
                        router: (base + local) as u16,
                        kind: EventKind::FlitInject {
                            packet: flit.packet.0,
                            seq: flit.seq.0,
                            vc: vc.0,
                        },
                    });
                }
                routers[local].receive_flit(Direction::Local.port(), vc, flit);
            }
        }
        for local in 0..routers.len() {
            let idle = routers[local].is_idle_at(cycle);
            if idle && *skip_idle && !*audit {
                scratch.routers_skipped += 1;
                continue;
            }
            let before = (idle && *audit).then(|| audit_snapshot(&routers[local]));
            routers[local].step_into_observed(cycle, &mut scratch.step_out, *obs);
            scratch.routers_stepped += 1;
            if let Some(before) = before {
                audit_check(&routers[local], &scratch.step_out, before);
            }
            process_router_outputs(
                base + local,
                cycle,
                label,
                *local_delay,
                &mut routers[local],
                &mut nis[local],
                &wiring[local],
                &mut scratch.step_out,
                &mut scratch.wheel,
                &mut link_flits[local],
                &mut link_free[local],
                &mut scratch.flits_dropped,
                &mut scratch.flits_edge_dropped,
                &mut scratch.any_departure,
            );
        }
    }
}

/// The raw-parts view of the mesh that phase B of a cycle hands to
/// [`WorkerPool::broadcast`]: base pointers into the network's
/// per-router arrays plus the shard bounds. Carving each shard's slices
/// out through raw pointers — instead of building a per-cycle `Vec` of
/// pre-split, `Mutex`-wrapped contexts — keeps the phase allocation-free
/// (the `no_alloc` suite pins this).
///
/// # Safety
///
/// `run(i)` materialises `&mut` slices from the base pointers. That is
/// sound because the one caller (`Network::step_observed`) upholds:
///
/// * `bounds` are disjoint, ascending `[lo, hi)` intervals within every
///   pointed-to array (`routers`, `nis`, `link_flits`, `link_free`,
///   `wiring`), so two shards never overlap;
/// * `obs` and `shards` hold at least `bounds.len()` elements and shard
///   `i` touches only index `i` of each;
/// * [`WorkerPool::broadcast`] invokes each index exactly once per
///   call, so no slice is materialised twice;
/// * the pointed-to arrays outlive the broadcast (they are `Network`
///   fields borrowed across it, and nothing else touches them until
///   the broadcast returns).
///
/// The arriving slots every shard reads are a shared borrow of a
/// separate array, never reached through `shards`.
///
/// The `Sync` impl is what lets the pool share `&ShardTasks` across
/// worker threads; it is safe for exactly the reasons above.
struct ShardTasks<'a, O: Observer> {
    cycle: Cycle,
    /// The wheel label of this cycle's outputs.
    label: Cycle,
    skip_idle: bool,
    audit: bool,
    local_delay: u32,
    bounds: &'a [(usize, usize)],
    arriving: &'a [Slot],
    wiring: &'a [WiringRow],
    routers: *mut Router,
    nis: *mut NetworkInterface,
    link_flits: *mut [u64; 5],
    link_free: *mut [Cycle; 5],
    obs: *mut O,
    shards: *mut ShardScratch,
}

#[allow(unsafe_code)]
unsafe impl<O: Observer> Sync for ShardTasks<'_, O> {}

impl<O: Observer> ShardTasks<'_, O> {
    /// Run shard `i`'s share of the cycle.
    ///
    /// # Safety
    /// `i < self.bounds.len()`, each `i` used at most once per
    /// broadcast, and the type-level contract above holds.
    #[allow(unsafe_code)]
    unsafe fn run(&self, i: usize) {
        let (lo, hi) = self.bounds[i];
        let len = hi - lo;
        // Phase-B time only feeds the shard profile, which a lone shard
        // does not keep.
        let started = (self.bounds.len() > 1).then(std::time::Instant::now);
        ShardCtx {
            me: i,
            arriving: self.arriving,
            base: lo,
            wiring: &self.wiring[lo..hi],
            skip_idle: self.skip_idle,
            audit: self.audit,
            local_delay: self.local_delay,
            routers: std::slice::from_raw_parts_mut(self.routers.add(lo), len),
            nis: std::slice::from_raw_parts_mut(self.nis.add(lo), len),
            link_flits: std::slice::from_raw_parts_mut(self.link_flits.add(lo), len),
            link_free: std::slice::from_raw_parts_mut(self.link_free.add(lo), len),
            scratch: &mut *self.shards.add(i),
            obs: &mut *self.obs.add(i),
        }
        .run(self.cycle, self.label);
        if let Some(started) = started {
            (*self.shards.add(i)).step_nanos += started.elapsed().as_nanos() as u64;
        }
    }
}

/// What the worklist audit compares across an idle router's step:
/// stats, every output credit counter, buffered flits, and the active
/// and detected fault maps.
type AuditState = (RouterStats, Vec<u8>, usize, FaultMap, FaultMap);

/// Snapshot the observable state of one router for the worklist audit.
fn audit_snapshot(r: &Router) -> AuditState {
    let v = r.config().vcs;
    let mut credits = Vec::with_capacity(5 * v);
    for dir in Direction::ALL {
        for vc in 0..v {
            credits.push(r.credit(dir.port(), VcId(vc as u8)));
        }
    }
    let faults = r.faults();
    (
        *r.stats(),
        credits,
        r.buffered_flits(),
        *faults.active(),
        *faults.detected(),
    )
}

/// Assert that stepping an idle router changed nothing observable.
fn audit_check(r: &Router, out: &StepOutput, before: AuditState) {
    let id = r.id();
    assert!(
        out.departures.is_empty() && out.credits.is_empty() && out.dropped.is_empty(),
        "worklist audit: idle router {id} produced output"
    );
    assert_eq!(
        before,
        audit_snapshot(r),
        "worklist audit: idle router {id} changed state"
    );
}

/// Deliver one arriving wire to its router or NI. `base` is the id of
/// `routers[0]`/`nis[0]` (the shard's first router).
fn apply_arrival<O: Observer>(
    w: Wire,
    base: usize,
    routers: &mut [Router],
    nis: &mut [NetworkInterface],
    deliveries: &mut Vec<DeliveredPacket>,
    cycle: Cycle,
    obs: &mut O,
) {
    match w {
        Wire::Flit {
            router,
            port,
            vc,
            flit,
        } => routers[router - base].receive_flit(port, vc, flit),
        Wire::Credit {
            router,
            out_port,
            vc,
        } => routers[router - base].receive_credit(out_port, vc),
        Wire::Eject { node, flit } => {
            if O::ENABLED {
                obs.record(Event {
                    cycle,
                    router: node as u16,
                    kind: EventKind::FlitEject {
                        packet: flit.packet.0,
                        seq: flit.seq.0,
                    },
                });
            }
            // The matching local-output credit was scheduled at
            // departure time (it names the local-output VC).
            let ni = &mut nis[node - base];
            if let Some(d) = ni.eject(flit, cycle) {
                if d.dst == ni.node() {
                    deliveries.push(d);
                }
            }
        }
        Wire::NiCredit { router, vc } => {
            routers[router - base].receive_credit(Direction::Local.port(), vc)
        }
    }
}

/// Turn one router's [`StepOutput`] into wire traffic and counters:
/// each wire goes straight onto its shard's `wheel`, labelled `label`,
/// at its arrival delay.
///
/// Delays follow the link class baked into `wiring_row`:
///
/// * A flit on a full-width link (`width_denom == 1`) arrives exactly
///   `latency` cycles later. On a narrow link it first waits for the
///   link to free (`link_free_row` tracks the cycle each output's link
///   next accepts a flit), then spends `width_denom` cycles
///   serialising, arriving `wait + latency + width_denom - 1` cycles
///   out.
/// * A credit is a single reverse-direction signal on the (symmetric)
///   link it answers: it takes that link's `latency` and never
///   serialises, so a flit+credit round trip over a latency-`d` link
///   is exactly `2d` cycles.
/// * NI traffic (`Eject`/`NiCredit`) keeps the uniform `local_delay`
///   (the config's `link_latency`).
#[allow(clippy::too_many_arguments)]
fn process_router_outputs(
    id: usize,
    cycle: Cycle,
    label: Cycle,
    local_delay: u32,
    router: &mut Router,
    ni: &mut NetworkInterface,
    wiring_row: &WiringRow,
    out: &mut StepOutput,
    wheel: &mut Wheel,
    link_row: &mut [u64; 5],
    link_free_row: &mut [Cycle; 5],
    flits_dropped: &mut u64,
    flits_edge_dropped: &mut u64,
    any_departure: &mut bool,
) {
    if !out.departures.is_empty() {
        *any_departure = true;
    }
    *flits_dropped += out.dropped.len() as u64;
    for d in &out.departures {
        link_row[d.out_port.index()] += 1;
    }
    for d in out.departures.drain(..) {
        if d.out_port == Direction::Local.port() {
            // Local link to the NI; the NI returns the credit for the
            // local-output VC one link-latency later.
            wheel.push(
                local_delay,
                label,
                Wire::Eject {
                    node: id,
                    flit: d.flit,
                },
            );
            wheel.push(
                local_delay,
                label,
                Wire::NiCredit {
                    router: id,
                    vc: d.out_vc,
                },
            );
        } else {
            match wiring_row[d.out_port.index()] {
                Some(l) => {
                    let delay = if l.width_denom == 1 {
                        l.latency
                    } else {
                        // Narrow link: wait for it to free, then hold
                        // it for `width_denom` serialisation cycles.
                        let start = cycle.max(link_free_row[d.out_port.index()]);
                        link_free_row[d.out_port.index()] = start + l.width_denom as Cycle;
                        (start - cycle) as u32 + l.latency + (l.width_denom - 1)
                    };
                    wheel.push(
                        delay,
                        label,
                        Wire::Flit {
                            router: l.down,
                            port: l.in_port,
                            vc: d.out_vc,
                            flit: d.flit,
                        },
                    );
                }
                None => {
                    // Misrouted onto a missing link — the grid edge or a
                    // cut link (baseline RC faults): the flit is lost;
                    // restore the consumed credit so the counter stays
                    // sane.
                    *flits_edge_dropped += 1;
                    router.receive_credit(d.out_port, d.out_vc);
                }
            }
        }
    }
    for c in out.credits.drain(..) {
        if c.in_port == Direction::Local.port() {
            // Slot freed at the local input: credit to the NI.
            ni.credit(c.vc);
        } else if let Some(l) = wiring_row[c.in_port.index()] {
            // Links are symmetric: the port our link enters the
            // neighbour through is also the neighbour's output port
            // facing us, which is where the credit belongs — and the
            // return path shares the forward link's latency.
            wheel.push(
                l.latency,
                label,
                Wire::Credit {
                    router: l.down,
                    out_port: l.in_port,
                    vc: c.vc,
                },
            );
        }
    }
}

/// The simulated network: a grid of routers wired by a [`Topology`].
pub struct Network {
    cfg: NetworkConfig,
    /// The bounding coordinate grid (id ↔ coordinate mapping).
    mesh: Mesh,
    /// The network graph: links, liveness, route computation.
    topo: Arc<Topology>,
    /// Per router, per output port: downstream router and entry port.
    wiring: Vec<WiringRow>,
    routers: Vec<Router>,
    nis: Vec<NetworkInterface>,
    /// Per router, per output port: the first cycle the outgoing link
    /// accepts another flit — the serialisation pacing state of narrow
    /// (`width_denom > 1`) links. Full-width links neither consult nor
    /// advance it (their entries stay 0).
    link_free: Vec<[Cycle; 5]>,
    deliveries: Vec<DeliveredPacket>,
    /// Flits sent per router per output port (`[router][port]`) —
    /// the link-utilisation matrix behind congestion heatmaps.
    link_flits: Vec<[u64; 5]>,
    /// Cycles stepped so far (denominator for utilisation).
    cycles_stepped: u64,
    /// Skip provably idle routers (the active-router worklist).
    skip_idle: bool,
    /// Step idle routers anyway and assert the step was a no-op.
    worklist_audit: bool,
    /// Router steps actually executed (worklist observability).
    routers_stepped: u64,
    /// Router steps skipped by the worklist.
    routers_skipped: u64,
    /// Adaptive mode's shared escape topology: up\*/down\* tables over
    /// the surviving non-wrap grid links, swapped network-wide when a
    /// link fault heals (`None` under static routing, and on families
    /// that keep their fault-aware static tables even in adaptive
    /// mode).
    escape: Option<Arc<Irregular>>,
    /// Scheduled link faults not yet applied, in *reverse* canonical
    /// `(cycle, router, dir)` order so the next due event pops off the
    /// end at each cycle boundary.
    pending_link_faults: Vec<LinkFaultEvent>,
    /// The shard partition the stepper runs over (one shard by default),
    /// which holds the wire wheel: in-flight wire traffic by arrival
    /// cycle, sized for the slowest link class at construction and
    /// grown on demand when serialisation pacing pushes an arrival past
    /// the horizon.
    part: Partition,
    /// Flits that fell off the mesh edge after a misroute.
    pub flits_edge_dropped: u64,
    /// Flits destroyed inside faulty baseline crossbars.
    pub flits_dropped: u64,
    /// Flits the NIs have injected into local input ports.
    pub flits_injected: u64,
    /// Cycle of the most recent flit movement (watchdog).
    pub last_activity: Cycle,
}

/// An independent network in the same state at the same cycle: stepping
/// either copy leaves the other untouched, and each continues exactly as
/// the original would have. The topology and the adaptive escape tables
/// stay shared behind their `Arc`s, which is safe because a fault edge
/// swaps a new `Arc` in ([`Network::fail_link`], [`Network::fail_router`])
/// and never mutates a shared one. The shard partition is rebuilt at the
/// same shard count on the same worker pool, with fresh scratch and
/// profile, and the wire wheel is copied into it in its canonical order.
/// Everything else is copied — and only its occupied part: std
/// `Vec`/`VecDeque` clones allocate `len`, not capacity, so a clone of a
/// lightly loaded network is much smaller than the network it was taken
/// from, and grows its buffers back as it steps.
impl Clone for Network {
    fn clone(&self) -> Self {
        Network {
            cfg: self.cfg,
            mesh: self.mesh,
            topo: Arc::clone(&self.topo),
            wiring: self.wiring.clone(),
            routers: self.routers.clone(),
            nis: self.nis.clone(),
            link_free: self.link_free.clone(),
            deliveries: self.deliveries.clone(),
            link_flits: self.link_flits.clone(),
            cycles_stepped: self.cycles_stepped,
            skip_idle: self.skip_idle,
            worklist_audit: self.worklist_audit,
            routers_stepped: self.routers_stepped,
            routers_skipped: self.routers_skipped,
            escape: self.escape.clone(),
            pending_link_faults: self.pending_link_faults.clone(),
            part: self.repartition(Arc::clone(&self.part.pool)),
            flits_edge_dropped: self.flits_edge_dropped,
            flits_dropped: self.flits_dropped,
            flits_injected: self.flits_injected,
            last_activity: self.last_activity,
        }
    }
}

impl Network {
    /// Build a fault-free network of the given router kind.
    pub fn new(cfg: NetworkConfig, kind: RouterKind) -> Self {
        Network::with_faults(cfg, kind, &FaultPlan::none())
    }

    /// Build a network and pre-apply a fault campaign (each event
    /// manifests at its scheduled cycle).
    pub fn with_faults(cfg: NetworkConfig, kind: RouterKind, plan: &FaultPlan) -> Self {
        cfg.validate().expect("invalid network configuration");
        let mesh = cfg.grid();
        let topo = Arc::new(Topology::from_spec(&cfg));
        let wiring = build_wiring(&topo, cfg.link_latency);
        // Adaptive mode pairs congestion-chosen minimal candidates with
        // an escape VC class routed up*/down* over the (non-wrap) grid
        // links; the escape tables are shared by every router and
        // swapped network-wide when a link fault heals. Families that
        // already route by fault-aware static tables (cut-mesh,
        // chiplet-star) keep those tables even in adaptive mode.
        let escape = (cfg.routing == RoutingMode::Adaptive
            && noc_topology::adaptive::supports_adaptive(&topo))
        .then(|| Arc::new(Irregular::from_full_mesh(mesh.w, mesh.h)));
        let mut routers: Vec<Router> = (0..mesh.len())
            .map(|i| {
                let coord = mesh.coord_of(noc_types::RouterId(i as u16));
                // Meshes keep the two-comparator XY algorithm (the
                // paper's configuration and the hot path) — the chiplet
                // mesh is a full grid and routes the same way; the
                // other topologies route through the shared topology.
                let mut r = if let Some(esc) = &escape {
                    Router::new(
                        i as u16,
                        coord,
                        cfg.router,
                        kind,
                        RoutingAlgorithm::adaptive(Arc::clone(&topo), Arc::clone(esc), i),
                        noc_faults::DetectionModel::Ideal,
                    )
                } else {
                    match &*topo {
                        Topology::Mesh(_) | Topology::ChipletMesh { .. } => {
                            Router::new_xy(i as u16, coord, mesh, cfg.router, kind)
                        }
                        _ => Router::new(
                            i as u16,
                            coord,
                            cfg.router,
                            kind,
                            RoutingAlgorithm::topo(Arc::clone(&topo), i),
                            noc_faults::DetectionModel::Ideal,
                        ),
                    }
                };
                r.set_detection(plan.detection());
                r
            })
            .collect();
        for ev in plan.events() {
            routers[ev.router.index()].inject_fault(ev.site, ev.cycle);
        }
        for t in plan.transients() {
            routers[t.router.index()].inject_transient(t.site, t.cycle, t.duration);
        }
        let nis = (0..mesh.len())
            .map(|i| {
                NetworkInterface::new(
                    mesh.coord_of(noc_types::RouterId(i as u16)),
                    cfg.router.vcs,
                    cfg.router.buffer_depth,
                    cfg.ni_queue_packets,
                )
            })
            .collect();
        let part = Partition::new(
            Arc::new(WorkerPool::new(0)),
            mesh,
            cfg.topology.chiplet_k().map(usize::from),
            &wiring,
            Horizon::of(&wiring, &cfg),
        );
        let mut net = Network {
            cfg,
            mesh,
            topo,
            wiring,
            routers,
            nis,
            link_free: vec![[0; 5]; mesh.len()],
            deliveries: Vec::new(),
            link_flits: vec![[0; 5]; mesh.len()],
            cycles_stepped: 0,
            skip_idle: true,
            worklist_audit: false,
            routers_stepped: 0,
            routers_skipped: 0,
            escape,
            pending_link_faults: Vec::new(),
            part,
            flits_edge_dropped: 0,
            flits_dropped: 0,
            flits_injected: 0,
            last_activity: 0,
        };
        net.schedule_link_faults(plan.link_faults());
        net
    }

    /// Cycles stepped so far: the cycle the next [`Network::step`] runs.
    /// A fresh network is at 0; a clone is at its original's.
    pub fn cycle(&self) -> Cycle {
        self.cycles_stepped
    }

    /// Schedule link faults on this network, replacing any still
    /// pending. Each event fails its link at the boundary before its
    /// cycle is stepped, in the canonical `(cycle, router, dir)` order
    /// whatever order `events` lists them in — the order
    /// [`FaultPlan::with_link_faults`] keeps, so scheduling a plan's
    /// events here on a fresh network is what
    /// [`Network::with_faults`] does.
    ///
    /// # Panics
    /// Panics on an event before [`Network::cycle`]: its cycle has been
    /// stepped already, so it would apply late and the run would
    /// diverge silently from one that scheduled it in time.
    pub fn schedule_link_faults(&mut self, events: &[LinkFaultEvent]) {
        let now = self.cycle();
        if let Some(late) = events.iter().find(|f| f.cycle < now) {
            panic!(
                "link fault at cycle {} scheduled on a network already at cycle {now}",
                late.cycle
            );
        }
        // Next due event last, so it pops off cheaply at each boundary.
        let mut pending = events.to_vec();
        pending.sort_by_key(|f| std::cmp::Reverse((f.cycle, f.router.0, f.dir as u8)));
        self.pending_link_faults = pending;
    }

    /// The bounding grid geometry (row-major id ↔ coordinate mapping;
    /// which links actually exist is the topology's business).
    pub fn mesh(&self) -> Mesh {
        self.mesh
    }

    /// The network graph the wires were built from.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Declare a router dead at the routing level: rebuild the topology
    /// with the node quarantined ([`Topology::with_dead`]) and swap the
    /// new routing tables into every router. Routes already computed
    /// (VCs past RC) keep their old output port — the up*/down*
    /// orientation is shared across the swap, so mixed old/new paths
    /// remain deadlock-free (see `noc_topology::irregular`).
    ///
    /// The dead router's pipeline keeps running: it drains its buffered
    /// flits and still accepts packets addressed *to* it; it is only
    /// removed as a transit node.
    ///
    /// # Panics
    /// Panics on non-irregular topologies (XY/dimension-order routing
    /// cannot detour; use a `CutMesh` spec — possibly with zero cuts —
    /// to make a mesh survivable), or if the kill disconnects alive
    /// routers.
    pub fn fail_router(&mut self, node: usize) {
        if self.escape.is_some() {
            // Shared quarantine path, adaptive flavour: a node fault is
            // the fault of all its incident links as the neighbours see
            // it — their live masks stop offering the node as an
            // adaptive candidate, and the escape tables quarantine it
            // as a transit node. The node's own candidates and table
            // entries survive so its buffered flits drain — the same
            // drain contract as `Irregular::with_dead`, whose
            // alive-pair tables a test pins equal to the incident-link
            // fold of `with_cut_link`.
            for dir in Direction::ALL {
                if dir == Direction::Local {
                    continue;
                }
                if let Some(m) = self.topo.link(node, dir) {
                    self.routers[m].adaptive_cut_link(dir.opposite());
                }
            }
            let healed = self
                .escape
                .as_ref()
                .expect("adaptive mode has escape tables")
                .with_dead(node);
            self.swap_escape(healed);
        } else {
            self.swap_static_topo(self.topo.with_dead(node));
        }
    }

    /// Permanently fail the bidirectional link out of `node` through
    /// `dir`, at a cycle boundary. Two layers share one quarantine
    /// path with [`Network::fail_router`]:
    ///
    /// * **routing-level self-healing** — in adaptive mode both
    ///   endpoints drop the link from their live candidate masks and
    ///   the shared escape tables are recomputed around the cut
    ///   ([`Irregular::with_cut_link`]) and swapped into every router;
    ///   statically-routed irregular topologies recompute their
    ///   up\*/down\* tables the same way. A cut the fixed orientation
    ///   cannot survive keeps the old tables — flits whose route
    ///   crosses the dead link then fall off it, which the campaign
    ///   engine counts as packet loss rather than failing the build.
    ///   Statically-routed grid families (XY / DOR) cannot detour at
    ///   all, so there the fault is purely physical.
    /// * **the physical unplug** — both wiring directions are nulled,
    ///   traffic in flight on the link is destroyed (flits counted in
    ///   [`Network::flits_edge_dropped`]) and the upstream credit
    ///   ledgers are settled for every slot whose credit return can no
    ///   longer travel, so the credit-conservation invariant keeps
    ///   holding around the dead link.
    ///
    /// Failing an already-dead link (or a grid edge) is a no-op, so
    /// scheduled campaigns may name both endpoints of one link.
    pub fn fail_link(&mut self, node: usize, dir: Direction) {
        assert!(dir != Direction::Local, "the local port is not a link");
        let Some(l) = self.wiring[node][dir.port().index()] else {
            return; // grid edge, or already failed
        };
        let other = l.down;
        let back = dir.opposite();
        // Routing-level self-healing (the path `fail_router` shares).
        if let Some(esc) = self.escape.clone() {
            self.routers[node].adaptive_cut_link(dir);
            self.routers[other].adaptive_cut_link(back);
            // Wrap links (torus) live outside the escape graph; only
            // grid links recompute the shared escape tables.
            if esc.link(node, dir).is_some() {
                if let Ok(healed) = esc.with_cut_link(node, dir) {
                    self.swap_escape(healed);
                }
            }
        } else if let Ok(healed) = self.topo.with_cut_link(node, dir) {
            self.swap_static_topo(healed);
        }
        // Physical unplug, both directions, with the ledgers settled.
        self.wiring[node][dir.port().index()] = None;
        self.wiring[other][back.port().index()] = None;
        self.scrub_dead_link(node, dir.port(), other, back.port());
        self.scrub_dead_link(other, back.port(), node, dir.port());
    }

    /// Swap healed escape tables into every adaptive router.
    fn swap_escape(&mut self, escape: Irregular) {
        let esc = Arc::new(escape);
        for r in &mut self.routers {
            r.set_adaptive_escape(Arc::clone(&esc));
        }
        self.escape = Some(esc);
    }

    /// Swap recomputed static routing tables into every router.
    fn swap_static_topo(&mut self, topo: Topology) {
        let t = Arc::new(topo);
        self.topo = Arc::clone(&t);
        for (i, r) in self.routers.iter_mut().enumerate() {
            r.set_routing(RoutingAlgorithm::topo(Arc::clone(&t), i));
        }
    }

    /// Settle one direction of a freshly-unplugged link (`up --out-->
    /// down.in_port`): traffic in flight on it is destroyed, and the
    /// upstream output's credit counters recover every slot whose
    /// credit can no longer return — in-flight flits (they will never
    /// occupy the downstream buffer), in-flight credits (their wire is
    /// gone; applied now) and flits already buffered downstream (they
    /// drain normally, but their credit returns would travel the
    /// nulled wire and be dropped). The wheel is read in its canonical
    /// order and the survivors loaded back in it.
    fn scrub_dead_link(&mut self, up: usize, out: PortId, down: usize, in_port: PortId) {
        let v = self.cfg.router.vcs;
        let mut restore = vec![0u32; v];
        let mut lost = 0u64;
        let mut kept = Vec::new();
        self.part.for_each_wire(|k, w| match *w {
            Wire::Flit {
                router, port, vc, ..
            } if router == down && port == in_port => {
                lost += 1;
                restore[vc.index()] += 1;
            }
            Wire::Credit {
                router,
                out_port,
                vc,
            } if router == up && out_port == out => restore[vc.index()] += 1,
            _ => kept.push((k, *w)),
        });
        self.part.reset_wheel(self.part.wheel_len());
        for (k, w) in kept {
            self.part.load(k, w);
        }
        self.flits_edge_dropped += lost;
        for (vc_idx, &restored) in restore.iter().enumerate().take(v) {
            let vc = VcId(vc_idx as u8);
            let occupied = self.routers[down].vc(in_port, vc).occupancy() as u32;
            for _ in 0..restored + occupied {
                self.routers[up].receive_credit(out, vc);
            }
        }
    }

    /// Apply every scheduled link fault due at this cycle boundary.
    /// Runs before any stepping: boundary state is bit-identical at
    /// every thread count, so the fault application — and everything
    /// downstream of it — is too.
    fn apply_due_link_faults(&mut self, cycle: Cycle) {
        while self
            .pending_link_faults
            .last()
            .is_some_and(|f| f.cycle <= cycle)
        {
            let f = self.pending_link_faults.pop().expect("checked non-empty");
            self.fail_link(f.router.index(), f.dir);
        }
    }

    /// The adaptive escape tables currently in force (`None` under
    /// static routing).
    pub fn adaptive_escape(&self) -> Option<&Irregular> {
        self.escape.as_deref()
    }

    /// Test hook: switch every adaptive router's escape commitment off,
    /// leaving packets purely on congestion-chosen minimal candidates.
    /// This deliberately re-opens the quadrant-turn cycles the escape
    /// class exists to break — the deadlock property test uses it to
    /// prove the watchdog and flight recorder actually surface a
    /// circular wait once the safety argument is removed.
    ///
    /// # Panics
    /// Panics when the network is not routing adaptively.
    pub fn disable_adaptive_escape(&mut self) {
        assert!(
            self.escape.is_some(),
            "escape can only be disabled in adaptive mode"
        );
        for r in &mut self.routers {
            r.disable_adaptive_escape();
        }
    }

    /// The configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.cfg
    }

    /// Access one router.
    pub fn router(&self, id: usize) -> &Router {
        &self.routers[id]
    }

    /// Mutable access to one router (tests, ad-hoc fault injection).
    pub fn router_mut(&mut self, id: usize) -> &mut Router {
        &mut self.routers[id]
    }

    /// Access one NI.
    pub fn ni(&self, id: usize) -> &NetworkInterface {
        &self.nis[id]
    }

    /// Set how many OS threads step the mesh each cycle, one shard each
    /// (`0` = one per available CPU, `1` = the calling thread alone).
    /// Thread counts beyond the mesh's row count are clamped — shards
    /// are even bands of whole rows, of whole dies on a chiplet grid
    /// with at least one die row per shard — and the cut is fixed until
    /// the next call. Results are bit-identical for every thread count;
    /// see the module docs. Can be changed at any cycle boundary.
    pub fn set_threads(&mut self, threads: usize) {
        let t = if threads == 0 {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        } else {
            threads
        };
        let t = t.min(self.mesh.h as usize).max(1);
        if self.threads() != t {
            // The caller participates in every broadcast, so `t` shards
            // need only `t - 1` background workers.
            self.part = self.repartition(Arc::new(WorkerPool::new(t - 1)));
        }
    }

    /// A fresh partition of the grid into one shard per thread of
    /// `pool`, holding a copy of the current wire wheel.
    fn repartition(&self, pool: Arc<WorkerPool>) -> Partition {
        let chiplet_rows = self.cfg.topology.chiplet_k().map(usize::from);
        let mut part = Partition::new(
            pool,
            self.mesh,
            chiplet_rows,
            &self.wiring,
            self.part.horizon,
        );
        part.copy_wheel(&self.part);
        part
    }

    /// Threads stepping the mesh (= shards).
    pub fn threads(&self) -> usize {
        self.part.shards.len()
    }

    /// Enable or disable the active-router worklist (default: enabled).
    /// Disabling it steps every router every cycle; results are
    /// identical either way.
    pub fn set_skip_idle(&mut self, on: bool) {
        self.skip_idle = on;
    }

    /// Whether the active-router worklist is enabled.
    pub fn skip_idle(&self) -> bool {
        self.skip_idle
    }

    /// Test hook: step idle routers anyway (at every shard count) and
    /// panic if any "idle" step turns out to be observable — i.e. it
    /// produced departures, credits or drops, or changed the router's
    /// stats, credit counters or buffered-flit count. Used by the
    /// worklist soundness property test; costs a heap snapshot per idle
    /// router per cycle, so leave it off outside tests.
    pub fn set_worklist_audit(&mut self, on: bool) {
        self.worklist_audit = on;
    }

    /// Router steps executed so far (i.e. not skipped by the worklist).
    pub fn routers_stepped(&self) -> u64 {
        self.routers_stepped
    }

    /// Router steps skipped by the active-router worklist so far.
    pub fn routers_skipped(&self) -> u64 {
        self.routers_skipped
    }

    /// The completed-delivery log (correct destinations only).
    pub fn deliveries(&self) -> &[DeliveredPacket] {
        &self.deliveries
    }

    /// Replace the delivery log wholesale. Restore path only: network
    /// snapshots exclude the log (it lives in the append-only delivery
    /// stream, see [`crate::delivery`]), so a resume loads the stream
    /// prefix at the checkpointed offset back in through here.
    pub fn set_deliveries(&mut self, deliveries: Vec<DeliveredPacket>) {
        self.deliveries = deliveries;
    }

    /// Total packets offered / injected / ejected / misdelivered.
    pub fn packet_counters(&self) -> (u64, u64, u64, u64) {
        let offered = self.nis.iter().map(|n| n.offered).sum();
        let injected = self.nis.iter().map(|n| n.injected).sum();
        let ejected = self.nis.iter().map(|n| n.ejected).sum();
        let mis = self.nis.iter().map(|n| n.misdelivered).sum();
        (offered, injected, ejected, mis)
    }

    /// Flits currently inside routers, NIs or on wires.
    pub fn in_flight_flits(&self) -> u64 {
        let in_routers: usize = self.routers.iter().map(|r| r.buffered_flits()).sum();
        let in_nis: usize = self.nis.iter().map(|n| n.pending_flits()).sum();
        let mut on_wires = 0;
        self.part.for_each_wire(|_, w| {
            on_wires += usize::from(matches!(w, Wire::Flit { .. } | Wire::Eject { .. }));
        });
        (in_routers + in_nis + on_wires) as u64
    }

    /// Packets waiting in NI injection queues.
    pub fn queued_packets(&self) -> u64 {
        self.nis.iter().map(|n| n.queued() as u64).sum()
    }

    /// Total flits ejected at NIs so far (any destination).
    pub fn flits_ejected(&self) -> u64 {
        self.nis.iter().map(|n| n.flits_ejected).sum()
    }

    /// Fraction of all VC buffer slots currently occupied.
    pub fn buffer_occupancy(&self) -> f64 {
        let buffered: usize = self.routers.iter().map(|r| r.buffered_flits()).sum();
        let slots = self.routers.len() * 5 * self.cfg.router.vcs * self.cfg.router.buffer_depth;
        buffered as f64 / slots.max(1) as f64
    }

    /// Capture a deadlock flight record: every non-idle VC's pipeline
    /// state plus the wait-for graph over blocked VCs, with the first
    /// circular wait (if any) already extracted.
    ///
    /// Two kinds of wait-for edges are recorded, both pointing at the
    /// downstream input VC whose buffer space the blocked VC needs:
    ///
    /// * an `Active` VC whose allocated downstream VC has zero credits
    ///   is *credit-starved* by that VC;
    /// * a `VcAlloc` VC all of whose candidate downstream VCs are
    ///   already allocated is *VA-busy* on each of them (the wait is
    ///   disjunctive — any one draining unblocks it — so a cycle
    ///   through such an edge names one witness, not the only one).
    pub fn flight_record(&self, cycle: Cycle) -> FlightRecord {
        let v = self.cfg.router.vcs;
        let mut routers = Vec::new();
        let mut graph = WaitForGraph::default();
        for (id, r) in self.routers.iter().enumerate() {
            let mut vcs = Vec::new();
            for dir in Direction::ALL {
                let port = dir.port();
                for vc_idx in 0..v {
                    let vc_id = VcId(vc_idx as u8);
                    let ch = r.vc(port, vc_id);
                    let state = ch.fields.g;
                    if state == VcGlobalState::Idle && ch.is_empty() {
                        continue;
                    }
                    let route = ch.fields.r;
                    let out_vc = ch.fields.o;
                    let credits = match (route, out_vc) {
                        (Some(o), Some(ov)) => Some(r.credit(o, ov)),
                        _ => None,
                    };
                    vcs.push(VcDump {
                        port: port.0,
                        vc: vc_id.0,
                        state,
                        occupancy: ch.occupancy(),
                        route: route.map(|p| p.0),
                        out_vc: out_vc.map(|x| x.0),
                        credits,
                        head_packet: ch.front().map(|f| f.packet.0),
                    });
                    let from = WaitNode {
                        router: id as u16,
                        port: port.0,
                        vc: vc_id.0,
                    };
                    // Downstream of the local port is the NI, which
                    // always drains — never part of a circular wait.
                    // Missing links (grid edge, cut) have no downstream
                    // buffer either, so they never carry a wait edge.
                    let downstream = |out: PortId| -> Option<(u16, u8)> {
                        if out == Direction::Local.port() {
                            return None;
                        }
                        let l = self.wiring[id][out.index()]?;
                        Some((l.down as u16, l.in_port.0))
                    };
                    match state {
                        VcGlobalState::Active => {
                            if let (Some(out), Some(ov)) = (route, out_vc) {
                                if r.credit(out, ov) == 0 {
                                    if let Some((down, in_port)) = downstream(out) {
                                        graph.edges.push(WaitEdge {
                                            from,
                                            to: WaitNode {
                                                router: down,
                                                port: in_port,
                                                vc: ov.0,
                                            },
                                            reason: WaitReason::CreditStarved,
                                        });
                                    }
                                }
                            }
                        }
                        VcGlobalState::VcAlloc => {
                            if let Some(out) = route {
                                // Only the RC-legal downstream VCs can
                                // unblock this VC; a free-but-illegal
                                // one (e.g. an escape VC the adaptive
                                // class may not claim here) must not
                                // hide the wait.
                                let legal: Vec<usize> = (0..v)
                                    .filter(|ov| ch.fields.vmask & (1 << ov) != 0)
                                    .collect();
                                let all_busy = !legal.is_empty()
                                    && legal.iter().all(|&ov| r.out_vc_busy(out, VcId(ov as u8)));
                                if all_busy {
                                    if let Some((down, in_port)) = downstream(out) {
                                        for &ov in &legal {
                                            graph.edges.push(WaitEdge {
                                                from,
                                                to: WaitNode {
                                                    router: down,
                                                    port: in_port,
                                                    vc: ov as u8,
                                                },
                                                reason: WaitReason::VcAllocBusy,
                                            });
                                        }
                                    }
                                }
                            }
                        }
                        _ => {}
                    }
                }
            }
            if !vcs.is_empty() {
                routers.push(RouterDump {
                    router: id as u16,
                    buffered_flits: r.buffered_flits() as u64,
                    vcs,
                });
            }
        }
        let cycle_edges = graph.find_cycle();
        FlightRecord {
            cycle,
            last_activity: self.last_activity,
            in_flight: self.in_flight_flits(),
            queued: self.queued_packets(),
            routers,
            graph,
            cycle_edges,
        }
    }

    /// Sum router event counters across the mesh.
    pub fn router_event_totals(&self) -> RouterEventTotals {
        let mut t = RouterEventTotals::default();
        for r in &self.routers {
            let s = r.stats();
            t.rc_duplicate_uses += s.rc_duplicate_uses;
            t.rc_misroutes += s.rc_misroutes;
            t.va_borrows += s.va_borrows;
            t.va_borrow_waits += s.va_borrow_waits;
            t.sa_bypass_grants += s.sa_bypass_grants;
            t.vc_transfers += s.vc_transfers;
            t.secondary_path_flits += s.secondary_path_flits;
        }
        t
    }

    /// Offer packets to their source NIs. Returns the number refused by
    /// bounded queues.
    pub fn offer_packets(&mut self, packets: Vec<Packet>) -> u64 {
        let mut packets = packets;
        self.offer_packets_from(&mut packets)
    }

    /// Drain `packets` into their source NIs, leaving the vector empty
    /// but with its capacity intact (allocation-free injection loops).
    /// Returns the number refused by bounded queues.
    pub fn offer_packets_from(&mut self, packets: &mut Vec<Packet>) -> u64 {
        let mut refused = 0;
        for p in packets.drain(..) {
            let node = self.mesh.id_of(p.src).index();
            if !self.nis[node].offer(p) {
                refused += 1;
            }
        }
        refused
    }

    /// Flits sent by `router` through each of its five output ports.
    pub fn link_flits(&self, router: usize) -> [u64; 5] {
        self.link_flits[router]
    }

    /// Per-router total output utilisation (flits per cycle, all ports),
    /// the basis for congestion heatmaps.
    pub fn utilisation(&self) -> Vec<f64> {
        let cycles = self.cycles_stepped.max(1) as f64;
        self.link_flits
            .iter()
            .map(|ports| ports.iter().sum::<u64>() as f64 / cycles)
            .collect()
    }

    /// Render the per-router utilisation as a text heatmap
    /// (one character per router: `.` idle → `#` busiest).
    pub fn utilisation_heatmap(&self) -> String {
        let util = self.utilisation();
        let max = util.iter().cloned().fold(0.0_f64, f64::max).max(1e-12);
        const RAMP: [char; 6] = ['.', ':', '-', '=', '+', '#'];
        let w = self.mesh.w as usize;
        let h = self.mesh.h as usize;
        let mut out = String::new();
        for y in 0..h {
            for x in 0..w {
                let u = util[y * w + x] / max;
                let ix = ((u * (RAMP.len() - 1) as f64).round() as usize).min(RAMP.len() - 1);
                out.push(RAMP[ix]);
            }
            out.push('\n');
        }
        out
    }

    /// The spatial metrics plane: every router's event counters laid
    /// out on the coordinate grid. Each counter is owned by the one
    /// router (and thus the one shard) that steps it and the grid reads
    /// them in row-major id order, so the result is bit-identical for
    /// every thread count (ARCHITECTURE.md §3).
    pub fn spatial_grid(&self) -> SpatialGrid {
        let mut grid = SpatialGrid::new(self.mesh.w as usize, self.mesh.h as usize);
        grid.chiplet_k = self.cfg.topology.chiplet_k().map(usize::from);
        for (r, cell) in self.routers.iter().zip(grid.cells.iter_mut()) {
            let s = r.stats();
            *cell = noc_telemetry::CellStats {
                flits_routed: s.flits_out,
                occ_integral: s.occ_integral,
                va_grants: s.va_grants,
                va_stalls: s.va_stalls,
                sa_grants: s.sa_grants,
                sa_stalls: s.sa_stalls,
                sa_bypass_grants: s.sa_bypass_grants,
                va_borrows: s.va_borrows,
                vc_transfers: s.vc_transfers,
            };
        }
        grid
    }

    /// Routers that are not provably idle right now (cycle-boundary
    /// state, so deterministic across thread counts).
    pub fn active_routers(&self) -> u64 {
        self.routers.iter().filter(|r| !r.is_idle()).count() as u64
    }

    /// Spatial load-imbalance ratio: max over grid rows of the row
    /// weight `1 +` (non-idle routers in the row), divided by the mean
    /// row weight. `1.0` = perfectly balanced.
    /// A pure function of cycle-boundary router state — deterministic
    /// across thread counts, unlike the wall-clock
    /// [`Network::shard_profile`].
    pub fn load_imbalance(&self) -> f64 {
        let w = self.mesh.w as usize;
        let h = self.mesh.h as usize;
        let mut max = 0usize;
        let mut total = 0usize;
        for row in 0..h {
            let weight = 1 + self.routers[row * w..(row + 1) * w]
                .iter()
                .filter(|r| !r.is_idle())
                .count();
            max = max.max(weight);
            total += weight;
        }
        if total == 0 {
            1.0
        } else {
            max as f64 * h as f64 / total as f64
        }
    }

    /// Closed profiling intervals of the stepper, oldest first (at most
    /// the last 64): per-shard phase-B wall-clock time and router steps.
    /// A multi-shard stepper closes one at every multiple of 1024
    /// cycles; empty with one shard or before the first close, and
    /// [`Network::set_threads`] starts it afresh. Wall-clock data —
    /// excluded from reports and checkpoints.
    pub fn shard_profile(&self) -> Vec<IntervalProfile> {
        self.part
            .profile
            .as_ref()
            .map_or_else(Vec::new, ShardProfile::closed)
    }

    /// Number of stepper shards. This is how many observers
    /// [`Network::step_observed`] needs; it only changes when
    /// [`Network::set_threads`] does.
    pub fn shard_count(&self) -> usize {
        self.part.shards.len()
    }

    /// Advance the whole network by one cycle.
    pub fn step(&mut self, cycle: Cycle) {
        // A `Vec` of zero-sized observers never allocates, so the
        // untraced hot path stays allocation-free.
        let mut nulls = vec![NullObserver; self.shard_count()];
        self.step_observed(cycle, &mut nulls);
    }

    /// Advance one cycle while recording telemetry events.
    ///
    /// `obs` must hold at least [`Network::shard_count`] observers;
    /// shard `s` records into `obs[s]`. Hand each shard one ring of a
    /// [`noc_telemetry::ShardedTracer`] and merge afterwards; the
    /// merged stream is identical for every thread count.
    ///
    /// This is the one stepper; the module docs describe its phases.
    pub fn step_observed<O: Observer + Send>(&mut self, cycle: Cycle, obs: &mut [O]) {
        assert!(
            obs.len() >= self.shard_count(),
            "step_observed needs one observer per shard ({} < {})",
            obs.len(),
            self.shard_count()
        );
        self.apply_due_link_faults(cycle);
        self.cycles_stepped += 1;

        let Network {
            cfg,
            wiring,
            routers,
            nis,
            deliveries,
            link_flits,
            link_free,
            cycles_stepped,
            skip_idle,
            worklist_audit,
            routers_stepped,
            routers_skipped,
            part,
            flits_edge_dropped,
            flits_dropped,
            flits_injected,
            last_activity,
            ..
        } = self;
        let Partition {
            pool,
            bounds,
            shards,
            arriving,
            profile,
            ..
        } = part;

        // Phase A: every shard's wheel hands over the slot arriving now,
        // in exchange for its arriving slot emptied last cycle, so both
        // keep their capacity as they circulate.
        for (scratch, slot) in shards.iter_mut().zip(arriving.iter_mut()) {
            scratch.wheel.hand_over(slot);
        }

        // Phase B: hand each shard its disjoint slice of the mesh (and
        // its own observer — shard `s` records into `obs[s]`), carved
        // through `ShardTasks`'s raw pointers so the phase allocates
        // nothing, plus every shard's arriving slot to read. The safety
        // contract on `ShardTasks` holds here: `bounds` are disjoint
        // ascending row bands covering the mesh, the length assert
        // above guarantees per-shard observers, and the borrowed arrays
        // are untouched until the broadcast returns.
        let tasks = ShardTasks {
            cycle,
            label: *cycles_stepped,
            skip_idle: *skip_idle,
            audit: *worklist_audit,
            local_delay: cfg.link_latency,
            bounds,
            arriving,
            wiring,
            routers: routers.as_mut_ptr(),
            nis: nis.as_mut_ptr(),
            link_flits: link_flits.as_mut_ptr(),
            link_free: link_free.as_mut_ptr(),
            obs: obs.as_mut_ptr(),
            shards: shards.as_mut_ptr(),
        };
        #[allow(unsafe_code)]
        pool.broadcast(tasks.bounds.len(), &|i| unsafe { tasks.run(i) });

        // Phase C: every shard has read the arriving slots, so empty
        // them, and merge in fixed shard order (= router-id order).
        for (s, (scratch, slot)) in shards.iter_mut().zip(arriving.iter_mut()).enumerate() {
            slot.clear();
            deliveries.append(&mut scratch.deliveries);
            *flits_dropped += std::mem::take(&mut scratch.flits_dropped);
            *flits_edge_dropped += std::mem::take(&mut scratch.flits_edge_dropped);
            *flits_injected += std::mem::take(&mut scratch.flits_injected);
            let stepped = std::mem::take(&mut scratch.routers_stepped);
            *routers_stepped += stepped;
            if let Some(profile) = profile {
                profile.open.shard_steps[s] += stepped;
                profile.open.shard_nanos[s] += std::mem::take(&mut scratch.step_nanos);
            }
            *routers_skipped += std::mem::take(&mut scratch.routers_skipped);
            if std::mem::take(&mut scratch.any_departure) {
                *last_activity = cycle;
            }
        }
        if let Some(profile) = profile {
            profile.end_cycle(cycle);
        }
    }

    /// Check the credit-conservation invariant on every link and panic
    /// with a diagnostic on the first violation.
    ///
    /// Called between cycles, for every upstream router `u`, output
    /// `(out_port, vc)`:
    ///
    /// ```text
    ///   u.credits[out][vc]            free slots as seen upstream
    /// + u queued XB grants to (out,vc)  slots reserved at SA-grant
    /// + flits in flight on the link
    /// + credits in flight back to u
    /// + downstream input-VC occupancy
    /// == buffer_depth
    /// ```
    ///
    /// and symmetrically for each NI→router local-input link. Any leak —
    /// e.g. a drop path that forgets to restore a reserved credit —
    /// breaks the equation permanently.
    ///
    /// The in-flight terms are tallied in one pass over the wire ring,
    /// then every link is checked in O(1) — so property tests that call
    /// this every cycle cost O(links + in-flight wires) per cycle, not
    /// O(links × in-flight wires).
    pub fn assert_credit_conservation(&self) {
        let depth = self.cfg.router.buffer_depth;
        let v = self.cfg.router.vcs;
        let n = self.routers.len();
        let at =
            |router: usize, port: PortId, vc: VcId| (router * 5 + port.index()) * v + vc.index();
        // In-flight flits keyed by (destination router, input port, vc);
        // in-flight credits keyed by (upstream router, output port, vc);
        // NI credits keyed by (router, local-output vc).
        let mut flits_in_flight = vec![0u32; n * 5 * v];
        let mut credits_in_flight = vec![0u32; n * 5 * v];
        let mut ni_credits_in_flight = vec![0u32; n * v];
        self.part.for_each_wire(|_, w| match w {
            Wire::Flit {
                router, port, vc, ..
            } => flits_in_flight[at(*router, *port, *vc)] += 1,
            Wire::Credit {
                router,
                out_port,
                vc,
            } => credits_in_flight[at(*router, *out_port, *vc)] += 1,
            Wire::NiCredit { router, vc } => ni_credits_in_flight[*router * v + vc.index()] += 1,
            Wire::Eject { .. } => {}
        });
        for id in 0..n {
            for dir in Direction::ALL {
                let out_port = dir.port();
                for vc_idx in 0..v {
                    let vc = VcId(vc_idx as u8);
                    let credits = self.routers[id].credit(out_port, vc) as usize;
                    let queued = self.routers[id].queued_to(out_port, vc);
                    let (flits_in, credits_in, downstream_occ) = if dir == Direction::Local {
                        // Link to the NI: ejection is instantaneous on
                        // arrival; the slot travels back as a NiCredit.
                        (0, ni_credits_in_flight[id * v + vc_idx] as usize, 0)
                    } else {
                        match self.wiring[id][out_port.index()] {
                            Some(l) => (
                                flits_in_flight[at(l.down, l.in_port, vc)] as usize,
                                credits_in_flight[at(id, out_port, vc)] as usize,
                                self.routers[l.down].vc(l.in_port, vc).occupancy(),
                            ),
                            // Missing link (grid edge or cut): no
                            // downstream exists. Drops onto it restore
                            // their credit immediately, so only queued
                            // grants can be out.
                            None => (0, 0, 0),
                        }
                    };
                    let total = credits + queued + flits_in + credits_in + downstream_occ;
                    assert_eq!(
                        total, depth,
                        "credit leak on router {id} {dir:?} vc{vc_idx}: credits={credits} \
                         queued={queued} flits_in_flight={flits_in} \
                         credits_in_flight={credits_in} occupancy={downstream_occ}"
                    );
                }
            }
        }
        // NI→router local-input links: injection and credit return are
        // both immediate, so the equation has no in-flight terms.
        for id in 0..self.nis.len() {
            let in_port = Direction::Local.port();
            for vc_idx in 0..v {
                let vc = VcId(vc_idx as u8);
                let credits = self.nis[id].credit_count(vc) as usize;
                let occ = self.routers[id].vc(in_port, vc).occupancy();
                assert_eq!(
                    credits + occ,
                    depth,
                    "credit leak on NI {id} vc{vc_idx}: credits={credits} occupancy={occ}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Snapshot / restore
// ---------------------------------------------------------------------

use noc_telemetry::snapshot::{
    arr_field, decode_field, field, hex, str_field, u64_field, FromSnapshot, Restore, Snapshot,
    SnapshotError, SNAPSHOT_SCHEMA_VERSION,
};

impl Snapshot for Wire {
    fn snapshot(&self) -> JsonValue {
        match self {
            Wire::Flit {
                router,
                port,
                vc,
                flit,
            } => obj([
                ("t", "flit".into()),
                ("router", (*router as u64).into()),
                ("port", port.snapshot()),
                ("vc", vc.snapshot()),
                ("flit", flit.snapshot()),
            ]),
            Wire::Credit {
                router,
                out_port,
                vc,
            } => obj([
                ("t", "credit".into()),
                ("router", (*router as u64).into()),
                ("out_port", out_port.snapshot()),
                ("vc", vc.snapshot()),
            ]),
            Wire::Eject { node, flit } => obj([
                ("t", "eject".into()),
                ("node", (*node as u64).into()),
                ("flit", flit.snapshot()),
            ]),
            Wire::NiCredit { router, vc } => obj([
                ("t", "ni_credit".into()),
                ("router", (*router as u64).into()),
                ("vc", vc.snapshot()),
            ]),
        }
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

/// Canonical rendering of the construction parameters a [`Network`]
/// snapshot was taken under. Stored in the snapshot and compared (as
/// rendered bytes) on restore: a snapshot only restores into a network
/// built from the *same* configuration.
fn config_fingerprint(cfg: &NetworkConfig, kind: RouterKind) -> JsonValue {
    let class = |c: LinkClass| {
        obj([
            ("latency", (c.latency as u64).into()),
            ("width_denom", (c.width_denom as u64).into()),
        ])
    };
    let topology = match cfg.topology {
        TopologySpec::MeshK => obj([("kind", "mesh_k".into())]),
        TopologySpec::Mesh { w, h } => obj([
            ("kind", "mesh".into()),
            ("w", (w as u64).into()),
            ("h", (h as u64).into()),
        ]),
        TopologySpec::Torus { w, h } => obj([
            ("kind", "torus".into()),
            ("w", (w as u64).into()),
            ("h", (h as u64).into()),
        ]),
        TopologySpec::CutMesh { w, h, cuts, seed } => obj([
            ("kind", "cutmesh".into()),
            ("w", (w as u64).into()),
            ("h", (h as u64).into()),
            ("cuts", (cuts as u64).into()),
            ("seed", hex(seed)),
        ]),
        TopologySpec::ChipletMesh {
            k_chip,
            k_node,
            d2d,
        } => obj([
            ("kind", "chipletmesh".into()),
            ("k_chip", (k_chip as u64).into()),
            ("k_node", (k_node as u64).into()),
            ("d2d", class(d2d)),
        ]),
        TopologySpec::ChipletStar {
            chiplets,
            k_node,
            d2d,
            hub,
        } => obj([
            ("kind", "chipletstar".into()),
            ("chiplets", (chiplets as u64).into()),
            ("k_node", (k_node as u64).into()),
            ("d2d", class(d2d)),
            ("hub", class(hub)),
        ]),
    };
    let mut fp = obj([
        ("mesh_k", (cfg.mesh_k as u64).into()),
        ("topology", topology),
        ("ports", (cfg.router.ports as u64).into()),
        ("vcs", (cfg.router.vcs as u64).into()),
        ("buffer_depth", (cfg.router.buffer_depth as u64).into()),
        (
            "flit_width_bits",
            (cfg.router.flit_width_bits as u64).into(),
        ),
        ("link_latency", (cfg.link_latency as u64).into()),
        ("ni_queue_packets", (cfg.ni_queue_packets as u64).into()),
        ("router_kind", kind.tag().into()),
    ]);
    // The routing mode joined the config after the v4 golden
    // checkpoints were recorded; fingerprint it only when it departs
    // from the default so those checkpoints keep restoring byte-for-
    // byte.
    if cfg.routing != RoutingMode::Static {
        if let JsonValue::Obj(pairs) = &mut fp {
            pairs.push(("routing".to_string(), cfg.routing.tag().into()));
        }
    }
    fp
}

impl Network {
    /// The router kind this network was built with (uniform by
    /// construction).
    pub fn kind(&self) -> RouterKind {
        self.routers[0].kind()
    }
}

/// How long the wire wheel is: `base` slots at construction — one past
/// the slowest link class and the router→NI latency — and at most
/// `max` once narrow-link pacing has grown it.
#[derive(Debug, Clone, Copy)]
struct Horizon {
    base: usize,
    max: usize,
}

impl Horizon {
    fn of(wiring: &[WiringRow], cfg: &NetworkConfig) -> Self {
        let links = || wiring.iter().flatten().flatten();
        let latency = links().map(|l| l.latency).max().unwrap_or(1);
        let base = latency.max(cfg.link_latency) as usize + 1;
        // A flit queues on a narrow link behind at most the flits the
        // downstream buffers hold credits for — V·depth, `width_denom`
        // cycles each — so it arrives at most V·depth·width_denom +
        // latency − 1 cycles after it departs.
        let credits = (cfg.router.vcs * cfg.router.buffer_depth) as u32;
        let paced = links()
            .filter(|l| l.width_denom > 1)
            .map(|l| credits * l.width_denom + l.latency - 1)
            .max()
            .unwrap_or(0);
        Horizon {
            base,
            max: base.max(paced as usize),
        }
    }
}

impl Snapshot for Network {
    /// The network's complete resumable state at a cycle boundary:
    /// every router and NI, the wire wheel in its canonical order (slot
    /// 0 first — the slot arriving next cycle), the link-utilisation
    /// matrix and the global counters. Excluded as rebuildable from
    /// configuration:
    /// the topology, the wiring table, the shard partition (thread
    /// count is a performance knob — results are bit-identical for any
    /// value, see the module docs) and the empty per-cycle scratch
    /// buffers. Also excluded — deliberately — is the delivery log: it
    /// grows with campaign length and lives in the append-only
    /// delivery stream instead ([`crate::delivery`]), keeping snapshot
    /// cost O(live network state). Checkpoint envelopes record a
    /// stream offset; [`Network::set_deliveries`] reloads the prefix
    /// on restore.
    fn snapshot(&self) -> JsonValue {
        let mut wires = vec![Vec::new(); self.part.wheel_len()];
        self.part.for_each_wire(|k, w| wires[k].push(w.snapshot()));
        obj([
            ("schema_version", SNAPSHOT_SCHEMA_VERSION.into()),
            ("config", config_fingerprint(&self.cfg, self.kind())),
            ("cycles_stepped", self.cycles_stepped.into()),
            ("routers_stepped", self.routers_stepped.into()),
            ("routers_skipped", self.routers_skipped.into()),
            ("skip_idle", self.skip_idle.into()),
            ("flits_edge_dropped", self.flits_edge_dropped.into()),
            ("flits_dropped", self.flits_dropped.into()),
            ("flits_injected", self.flits_injected.into()),
            ("last_activity", self.last_activity.into()),
            (
                "wires",
                JsonValue::Arr(wires.into_iter().map(JsonValue::Arr).collect()),
            ),
            ("routers", self.routers.snapshot()),
            ("nis", self.nis.snapshot()),
            (
                "link_flits",
                JsonValue::Arr(
                    self.link_flits
                        .iter()
                        .map(|row| JsonValue::Arr(row.iter().map(|&x| x.into()).collect()))
                        .collect(),
                ),
            ),
            (
                "link_free",
                JsonValue::Arr(
                    self.link_free
                        .iter()
                        .map(|row| JsonValue::Arr(row.iter().map(|&x| x.into()).collect()))
                        .collect(),
                ),
            ),
        ])
    }
}

impl Restore for Network {
    fn restore(&mut self, v: &JsonValue) -> Result<(), SnapshotError> {
        let version = u64_field(v, "schema_version")?;
        if version != SNAPSHOT_SCHEMA_VERSION {
            return Err(SnapshotError::new(format!(
                "snapshot schema version {version} != supported {SNAPSHOT_SCHEMA_VERSION}"
            )));
        }
        let expected = config_fingerprint(&self.cfg, self.kind()).render();
        let got = field(v, "config")?.render();
        if got != expected {
            return Err(SnapshotError::new(format!(
                "configuration mismatch: snapshot taken under {got}, restoring into {expected}"
            )));
        }
        let routers = arr_field(v, "routers")?;
        if routers.len() != self.routers.len() {
            return Err(SnapshotError::new("`routers` length mismatch"));
        }
        for (i, (r, s)) in self.routers.iter_mut().zip(routers).enumerate() {
            r.restore(s)
                .map_err(|e| e.within(&format!("routers[{i}]")))?;
        }
        let nis = arr_field(v, "nis")?;
        if nis.len() != self.nis.len() {
            return Err(SnapshotError::new("`nis` length mismatch"));
        }
        for (i, (n, s)) in self.nis.iter_mut().zip(nis).enumerate() {
            n.restore(s).map_err(|e| e.within(&format!("nis[{i}]")))?;
        }
        // The wheel's base length is fixed by the link classes (which
        // the config fingerprint pinned above), but serialisation
        // pacing may have grown it past that; adopt the snapshot's
        // horizon so in-flight wires land in the slots they left from.
        let wires = arr_field(v, "wires")?;
        let min_slots = self.part.horizon.base;
        if wires.len() < min_slots {
            return Err(SnapshotError::new(format!(
                "`wires` has {} slots but the slowest link class needs {}",
                wires.len(),
                min_slots,
            )));
        }
        self.part.reset_wheel(wires.len());
        for (k, s) in wires.iter().enumerate() {
            for w in Vec::<Wire>::from_snapshot(s).map_err(|e| e.within(&format!("wires[{k}]")))? {
                self.part.load(k, w);
            }
        }
        // The delivery log is not in the snapshot (it lives in the
        // delivery stream); clear any stale entries so a restore into a
        // used network cannot leak them. Callers resuming a checkpoint
        // reload the stream prefix via `set_deliveries` afterwards.
        self.deliveries.clear();
        let link_flits = arr_field(v, "link_flits")?;
        if link_flits.len() != self.link_flits.len() {
            return Err(SnapshotError::new("`link_flits` length mismatch"));
        }
        for (row, s) in self.link_flits.iter_mut().zip(link_flits) {
            let arr = s
                .as_array()
                .filter(|a| a.len() == 5)
                .ok_or_else(|| SnapshotError::new("`link_flits` row is not a 5-entry array"))?;
            for (slot, e) in row.iter_mut().zip(arr) {
                *slot = e
                    .as_u64()
                    .ok_or_else(|| SnapshotError::new("`link_flits` entry is not a number"))?;
            }
        }
        let link_free = arr_field(v, "link_free")?;
        if link_free.len() != self.link_free.len() {
            return Err(SnapshotError::new("`link_free` length mismatch"));
        }
        for (row, s) in self.link_free.iter_mut().zip(link_free) {
            let arr = s
                .as_array()
                .filter(|a| a.len() == 5)
                .ok_or_else(|| SnapshotError::new("`link_free` row is not a 5-entry array"))?;
            for (slot, e) in row.iter_mut().zip(arr) {
                *slot = e
                    .as_u64()
                    .ok_or_else(|| SnapshotError::new("`link_free` entry is not a number"))?;
            }
        }
        self.cycles_stepped = u64_field(v, "cycles_stepped")?;
        if self.cycles_stepped == 0 {
            for r in self.routers.iter_mut() {
                r.mark_unstepped();
            }
        }
        self.routers_stepped = u64_field(v, "routers_stepped")?;
        self.routers_skipped = u64_field(v, "routers_skipped")?;
        self.skip_idle = match field(v, "skip_idle")? {
            JsonValue::Bool(b) => *b,
            _ => return Err(SnapshotError::new("`skip_idle` is not a bool")),
        };
        self.flits_edge_dropped = u64_field(v, "flits_edge_dropped")?;
        self.flits_dropped = u64_field(v, "flits_dropped")?;
        self.flits_injected = u64_field(v, "flits_injected")?;
        self.last_activity = u64_field(v, "last_activity")?;
        // The shard cut is left alone (the thread count is orthogonal
        // to state); the wheel it holds was loaded above, and the rest
        // of its scratch is empty at every cycle boundary.
        Ok(())
    }
}

/// Precompute the per-router wiring table from the topology. For every
/// output direction the entry names the downstream router, the input
/// port our link enters it through, and the link's physical class —
/// [`Topology::link_class`] where the topology declares one, the
/// uniform full-width `default_latency` otherwise. Links are symmetric,
/// so the same entry also names where (and how fast) the reverse credit
/// travels. The local port's slot stays `None` — NI traffic takes the
/// dedicated `Eject`/`NiCredit` wires.
fn build_wiring(topo: &Topology, default_latency: u32) -> Vec<WiringRow> {
    (0..topo.len())
        .map(|n| {
            let mut row: WiringRow = [None; 5];
            for dir in Direction::ALL {
                if dir == Direction::Local {
                    continue;
                }
                row[dir.port().index()] = topo.link(n, dir).map(|m| {
                    let class = topo
                        .link_class(n, dir)
                        .unwrap_or(LinkClass::full(default_latency));
                    LinkTarget {
                        down: m,
                        in_port: dir.opposite().port(),
                        latency: class.latency,
                        width_denom: class.width_denom,
                    }
                });
            }
            row
        })
        .collect()
}
