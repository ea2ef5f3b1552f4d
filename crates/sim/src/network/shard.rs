//! The shard machinery of the stepper: the [`Partition`] of the grid
//! into row bands, each shard's scratch and wheel, the wall-clock shard
//! profile, and phase B — one shard's share of a cycle ([`ShardCtx`]),
//! handed to the worker pool through [`ShardTasks`], the raw-pointer view
//! behind the crate's only `unsafe` besides `pool.rs`.

use super::links::{LinkRow, Links};
use super::wheel::{Horizon, Slot, Wheel, Wire};
use crate::ni::NetworkInterface;
use crate::pool::WorkerPool;
use noc_faults::FaultMap;
use noc_telemetry::{Event, EventKind, Observer};
use noc_types::{Cycle, DeliveredPacket, Direction, Mesh, VcId};
use shield_router::{Router, RouterStats, StepOutput};
use std::sync::Arc;

/// Reusable per-shard working state of the stepper. All buffers keep
/// their capacity across cycles. Aligned to 128 bytes (a pair of cache
/// lines, the unit x86 prefetches) so that no two shards' counters and
/// wheel headers, written throughout phase B, share a line.
#[repr(align(128))]
pub(super) struct ShardScratch {
    /// The wires this shard's routers sent that have not arrived yet.
    pub(super) wheel: Wheel,
    /// Packets completed at this shard's NIs this cycle.
    pub(super) deliveries: Vec<DeliveredPacket>,
    /// Per-shard reusable router step output.
    step_out: StepOutput,
    pub(super) flits_dropped: u64,
    pub(super) flits_edge_dropped: u64,
    pub(super) flits_injected: u64,
    pub(super) routers_stepped: u64,
    pub(super) routers_skipped: u64,
    pub(super) any_departure: bool,
    /// Wall-clock nanoseconds this shard spent in phase B this cycle.
    /// Profiling only — never feeds back into simulation state, so
    /// determinism is untouched.
    pub(super) step_nanos: u64,
}

impl ShardScratch {
    /// Scratch for the shard owning routers `[lo, hi)` of `links`, with
    /// an empty wheel over `horizon`. With `presize`, every buffer is
    /// preallocated — five wires per router in the wheel's hot slots and
    /// one per narrow link in the others, one completed packet per
    /// router: more than sustained traffic produces in a cycle — so the
    /// stepper is allocation-free from the first cycle, but for the
    /// wheel's first growth; without, the buffers grow to steady
    /// capacity during warm-up.
    fn new(lo: usize, hi: usize, links: &Links, horizon: Horizon, presize: bool) -> Self {
        let (nodes, narrow) = if presize {
            let narrow = links.targets(lo..hi).filter(|l| l.width_denom > 1);
            (hi - lo, narrow.count())
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

/// Wall-clock profile of one `PROFILE_INTERVAL`-cycle interval of a
/// multi-shard stepper: how long each shard's phase B took and how many
/// router steps it executed.
///
/// The timings are wall clock and therefore *nondeterministic*; they
/// exist for bench harnesses and the service progress endpoint, and
/// deliberately never enter [`crate::NetworkReport`]s or checkpoints.
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
pub(super) struct ShardProfile {
    /// The open interval (`start_cycle == end_cycle` until its first
    /// cycle is recorded).
    pub(super) open: IntervalProfile,
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
    pub(super) fn end_cycle(&mut self, cycle: Cycle) {
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
    pub(super) fn closed(&self) -> Vec<IntervalProfile> {
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
pub(super) struct Partition {
    /// `shards - 1` background workers; the caller steps a shard too.
    /// Shared by every clone of the network: the pool runs one
    /// broadcast at a time, and a broadcast from inside one of its own
    /// tasks runs inline.
    pub(super) pool: Arc<WorkerPool>,
    /// Per shard: the `[start, end)` router-id range it owns.
    pub(super) bounds: Vec<(usize, usize)>,
    pub(super) shards: Vec<ShardScratch>,
    /// Per shard: the slot of its wheel arriving this cycle, which
    /// every shard reads in phase B. Empty at cycle boundaries.
    pub(super) arriving: Vec<Slot>,
    /// The wheel's length at construction and its bound.
    pub(super) horizon: Horizon,
    /// Wall-clock profile; `None` for a lone shard, which has no
    /// imbalance to report and so reads no clock.
    pub(super) profile: Option<ShardProfile>,
}

impl Partition {
    /// Cut the grid into one even band per thread of `pool` (its
    /// workers and the caller), each with an empty wheel over
    /// `horizon` for its routers' links in `links`. `chiplet_rows` is
    /// the chiplet side length on hierarchical topologies (see
    /// [`cut_block`]).
    pub(super) fn new(
        pool: Arc<WorkerPool>,
        mesh: Mesh,
        chiplet_rows: Option<usize>,
        links: &Links,
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
            .map(|&(lo, hi)| ShardScratch::new(lo, hi, links, horizon, presize))
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
    pub(super) fn wheel_len(&self) -> usize {
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
    pub(super) fn for_each_wire(&self, mut f: impl FnMut(usize, &Wire)) {
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
    pub(super) fn reset_wheel(&mut self, len: usize) {
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
    pub(super) fn load(&mut self, k: usize, w: Wire) {
        self.shards[0].wheel.push(k as u32 + 1, 0, w);
    }

    /// Replace this partition's wheel with a copy of `other`'s, in the
    /// canonical order.
    pub(super) fn copy_wheel(&mut self, other: &Partition) {
        self.reset_wheel(other.wheel_len());
        other.for_each_wire(|k, w| self.load(k, *w));
    }
}

/// One shard's mutable view of the network for phase B of a cycle:
/// disjoint slices of the routers, NIs and links, its scratch (its
/// wheel included), and shared read access to every shard's arriving
/// slot. No two shards alias: a shard writes only its own wheel, and the
/// arriving slots are read-only until phase C.
struct ShardCtx<'a, O: Observer> {
    /// This shard's index.
    me: usize,
    /// Every shard's slot arriving this cycle.
    arriving: &'a [Slot],
    base: usize,
    /// Step idle routers anyway and assert the step was a no-op.
    audit: bool,
    /// Router→NI link latency (the config's uniform `link_latency`).
    local_delay: u32,
    routers: &'a mut [Router],
    nis: &'a mut [NetworkInterface],
    links: &'a mut [LinkRow],
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
        let base = self.base;
        self.scratch.wheel.advance();
        let mine = base..base + self.routers.len();
        for (s, slot) in self.arriving.iter().enumerate() {
            let mut apply = |w: Wire| {
                let deliveries = &mut self.scratch.deliveries;
                apply_arrival(w, base, self.routers, self.nis, deliveries, cycle, self.obs);
            };
            if s == self.me {
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
        for local in 0..self.nis.len() {
            if !self.nis[local].pending_work() {
                continue;
            }
            if let Some((vc, flit)) = self.nis[local].inject(cycle) {
                self.scratch.flits_injected += 1;
                if O::ENABLED {
                    self.obs.record(Event {
                        cycle,
                        router: (base + local) as u16,
                        kind: EventKind::FlitInject {
                            packet: flit.packet.0,
                            seq: u16::from(flit.seq.0),
                            vc: vc.0,
                        },
                    });
                }
                self.routers[local].receive_flit(Direction::Local.port(), vc, flit);
            }
        }
        for local in 0..self.routers.len() {
            let router = &mut self.routers[local];
            let idle = router.is_idle_at(cycle);
            if idle && !self.audit {
                self.scratch.routers_skipped += 1;
                continue;
            }
            let before = (idle && self.audit).then(|| audit_snapshot(router));
            router.step_into_observed(cycle, &mut self.scratch.step_out, self.obs);
            self.scratch.routers_stepped += 1;
            if let Some(before) = before {
                audit_check(router, &self.scratch.step_out, before);
            }
            self.process_router_outputs(local, cycle, label);
        }
    }

    /// Turn router `local`'s [`StepOutput`] into wire traffic and
    /// counters: each wire goes straight onto this shard's wheel,
    /// labelled `label`, at its arrival delay.
    ///
    /// Delays follow the link class baked into the router's links:
    ///
    /// * A flit on a full-width link (`width_denom == 1`) arrives exactly
    ///   `latency` cycles later. On a narrow link it first waits for the
    ///   link to free (its `free_at`), then spends `width_denom` cycles
    ///   serialising, arriving `wait + latency + width_denom - 1` cycles
    ///   out.
    /// * A credit is a single reverse-direction signal on the (symmetric)
    ///   link it answers: it takes that link's `latency` and never
    ///   serialises, so a flit+credit round trip over a latency-`d` link
    ///   is exactly `2d` cycles.
    /// * NI traffic (`Eject`/`NiCredit`) keeps the uniform `local_delay`
    ///   (the config's `link_latency`).
    #[inline]
    fn process_router_outputs(&mut self, local: usize, cycle: Cycle, label: Cycle) {
        let id = self.base + local;
        let links = &mut self.links[local];
        let s = &mut *self.scratch;
        let (out, wheel) = (&mut s.step_out, &mut s.wheel);
        s.any_departure |= !out.departures.is_empty();
        s.flits_dropped += out.dropped.len() as u64;
        for d in out.departures.drain(..) {
            let link = &mut links[d.out_port.index()];
            link.flits += 1;
            if d.out_port == Direction::Local.port() {
                // Local link to the NI; the NI returns the credit for the
                // local-output VC one link-latency later.
                let flit = d.flit;
                wheel.push(self.local_delay, label, Wire::Eject { node: id, flit });
                let vc = d.out_vc;
                wheel.push(self.local_delay, label, Wire::NiCredit { router: id, vc });
            } else if let Some(l) = link.to {
                let delay = if l.width_denom == 1 {
                    l.latency
                } else {
                    // Narrow link: wait for it to free, then hold it for
                    // `width_denom` serialisation cycles.
                    let start = cycle.max(link.free_at);
                    link.free_at = start + Cycle::from(l.width_denom);
                    (start - cycle) as u32 + l.latency + u32::from(l.width_denom - 1)
                };
                let flit = Wire::Flit {
                    router: l.down as usize,
                    port: l.in_port,
                    vc: d.out_vc,
                    flit: d.flit,
                };
                wheel.push(delay, label, flit);
            } else {
                // Misrouted onto a missing link — the grid edge or a cut
                // link (baseline RC faults): the flit is lost; restore
                // the consumed credit so the counter stays sane.
                s.flits_edge_dropped += 1;
                self.routers[local].receive_credit(d.out_port, d.out_vc);
            }
        }
        for c in out.credits.drain(..) {
            if c.in_port == Direction::Local.port() {
                // Slot freed at the local input: credit to the NI.
                self.nis[local].credit(c.vc);
            } else if let Some(l) = links[c.in_port.index()].to {
                // Links are symmetric: the port our link enters the
                // neighbour through is also the neighbour's output port
                // facing us, which is where the credit belongs — and the
                // return path shares the forward link's latency.
                let credit = Wire::Credit {
                    router: l.down as usize,
                    out_port: l.in_port,
                    vc: c.vc,
                };
                wheel.push(l.latency, label, credit);
            }
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
///   pointed-to array (`routers`, `nis`, `links`), so two shards never
///   overlap;
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
pub(super) struct ShardTasks<'a, O: Observer> {
    pub(super) cycle: Cycle,
    /// The wheel label of this cycle's outputs.
    pub(super) label: Cycle,
    pub(super) audit: bool,
    pub(super) local_delay: u32,
    pub(super) bounds: &'a [(usize, usize)],
    pub(super) arriving: &'a [Slot],
    pub(super) routers: *mut Router,
    pub(super) nis: *mut NetworkInterface,
    pub(super) links: *mut LinkRow,
    pub(super) obs: *mut O,
    pub(super) shards: *mut ShardScratch,
}

// SAFETY: the pool shares `&ShardTasks` across its threads. Shard `i`
// reaches only its own band of `routers`, `nis` and `links` and index
// `i` of `obs` and `shards` (see `# Safety` above), and `bounds` and
// `arriving` are only read; each shard's observer is used on the
// thread that runs the shard, hence `O: Send`.
#[allow(unsafe_code)]
unsafe impl<O: Observer + Send> Sync for ShardTasks<'_, O> {}

impl<O: Observer> ShardTasks<'_, O> {
    /// Run shard `i`'s share of the cycle.
    ///
    /// # Safety
    /// `i < self.bounds.len()`, each `i` used at most once per
    /// broadcast, and the type-level contract above holds.
    #[allow(unsafe_code)]
    pub(super) unsafe fn run(&self, i: usize) {
        let (lo, hi) = self.bounds[i];
        let len = hi - lo;
        // Phase-B time only feeds the shard profile, which a lone shard
        // does not keep.
        let started = (self.bounds.len() > 1).then(std::time::Instant::now);
        ShardCtx {
            me: i,
            arriving: self.arriving,
            base: lo,
            audit: self.audit,
            local_delay: self.local_delay,
            routers: std::slice::from_raw_parts_mut(self.routers.add(lo), len),
            nis: std::slice::from_raw_parts_mut(self.nis.add(lo), len),
            links: std::slice::from_raw_parts_mut(self.links.add(lo), len),
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
#[inline]
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
                        seq: u16::from(flit.seq.0),
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
