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
//!   deliveries are merged in fixed shard order (= router-id order):
//!   each delivery is counted into the network's [`DeliveryTally`] and
//!   queued until the run loop hands it on to its delivery stream.
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
//! most of the mesh. [`Network::set_worklist_audit`] steps idle routers
//! anyway while asserting their step was an observable no-op (used by
//! the `worklist_is_sound` property test).
//!
//! The per-link state lives in one table (`links`); the wire wheel
//! (`wheel`), the shards that step it (`shard`), fault healing (`heal`)
//! and read-only inspection (`inspect`) each have their own file.

mod heal;
mod inspect;
mod links;
mod shard;
mod wheel;

pub use shard::IntervalProfile;

use crate::delivery::DeliveryStream;
use crate::ni::NetworkInterface;
use crate::pool::WorkerPool;
use crate::tally::DeliveryTally;
use links::Links;
use noc_faults::{FaultPlan, LinkFaultEvent};
use noc_telemetry::json::{to_text, JsonReader, JsonWriter};
use noc_telemetry::snapshot::{
    encode_hex, FromSnapshot, Restore, Snapshot, SnapshotError, SNAPSHOT_SCHEMA_VERSION,
};
use noc_telemetry::{NullObserver, Observer};
use noc_topology::Topology;
use noc_types::{
    Cycle, DeliveredPacket, LinkClass, Mesh, NetworkConfig, Packet, RoutingMode, TopologySpec,
};
use shard::{Partition, ShardProfile, ShardTasks};
use shield_router::{Router, RouterKind, RoutingAlgorithm};
use std::sync::Arc;
use wheel::{Horizon, Wire};

/// The simulated network: a grid of routers wired by a [`Topology`].
pub struct Network {
    cfg: NetworkConfig,
    /// The bounding coordinate grid (id ↔ coordinate mapping).
    mesh: Mesh,
    /// The network graph: links, liveness, route computation. Shared
    /// by every router, and the one record of the links and routers
    /// the faults have left alive.
    topo: Arc<Topology>,
    /// Per router, per output port: where the link goes, its pacing
    /// state and its utilisation.
    links: Links,
    routers: Vec<Router>,
    nis: Vec<NetworkInterface>,
    /// Deliveries not yet handed on to a delivery stream.
    pending: Vec<DeliveredPacket>,
    /// The exact tally of every delivery so far; what reports read.
    tally: DeliveryTally,
    /// Cycles stepped so far (denominator for utilisation).
    cycles_stepped: u64,
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
    escape: Option<Arc<Topology>>,
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
    /// Flits lost on a missing link: misrouted off the mesh edge or onto
    /// a cut link, or destroyed in flight on a link that failed
    /// ([`Network::fail_link`]).
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
/// Everything else — the delivery tally and the deliveries not yet
/// handed on included — is copied, and only its occupied part: std
/// `Vec`/`VecDeque` clones allocate `len`, not capacity, so a clone of a
/// lightly loaded network is much smaller than the network it was taken
/// from, and grows its buffers back as it steps. No copy holds a
/// delivery log: the tally is O(distinct latencies), so a clone — a
/// campaign fork, a checkpoint copy — costs O(live state).
impl Clone for Network {
    fn clone(&self) -> Self {
        Network {
            cfg: self.cfg,
            mesh: self.mesh,
            topo: Arc::clone(&self.topo),
            links: self.links.clone(),
            routers: self.routers.clone(),
            nis: self.nis.clone(),
            pending: self.pending.clone(),
            tally: self.tally.clone(),
            cycles_stepped: self.cycles_stepped,
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
        let links = Links::build(&topo, cfg.link_latency);
        // Adaptive mode pairs congestion-chosen minimal candidates with
        // an escape VC class routed up*/down* over the (non-wrap) grid
        // links; the escape tables are shared by every router and
        // swapped network-wide when a link fault heals. Families that
        // already route by fault-aware static tables (cut-mesh,
        // chiplet-star) keep those tables even in adaptive mode.
        let escape = (cfg.routing == RoutingMode::Adaptive && topo.supports_adaptive())
            .then(|| Arc::new(Topology::escape_mesh(mesh.w, mesh.h)));
        let mut routers: Vec<Router> = (0..mesh.len())
            .map(|i| {
                let coord = mesh.coord_of(noc_types::RouterId(i as u16));
                let route = match &escape {
                    Some(esc) => RoutingAlgorithm::adaptive(Arc::clone(&topo), Arc::clone(esc)),
                    None => RoutingAlgorithm::topo(Arc::clone(&topo)),
                };
                let ideal = noc_faults::DetectionModel::Ideal;
                let mut r = Router::new(i as u16, coord, cfg.router, kind, route, ideal);
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
            &links,
            Horizon::of(&links, &cfg),
        );
        let mut net = Network {
            cfg,
            mesh,
            topo,
            links,
            routers,
            nis,
            pending: Vec::new(),
            tally: DeliveryTally::default(),
            cycles_stepped: 0,
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

    /// The bounding grid geometry (row-major id ↔ coordinate mapping;
    /// which links actually exist is the topology's business).
    pub fn mesh(&self) -> Mesh {
        self.mesh
    }

    /// The network graph: the one the wires were built from, less
    /// every link cut and router kill since.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The adaptive escape tables currently in force (`None` under
    /// static routing).
    pub fn adaptive_escape(&self) -> Option<&Topology> {
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

    /// The router kind this network was built with (uniform by
    /// construction).
    pub fn kind(&self) -> RouterKind {
        self.routers[0].kind()
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
            &self.links,
            self.part.horizon,
        );
        part.copy_wheel(&self.part);
        part
    }

    /// Threads stepping the mesh (= shards).
    pub fn threads(&self) -> usize {
        self.part.shards.len()
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

    /// The exact tally of the deliveries (correct destinations only):
    /// latency counts, hop and flit sums of the packets created in the
    /// window of the run that steps the network — every packet, for a
    /// network stepped by hand.
    pub fn tally(&self) -> &DeliveryTally {
        &self.tally
    }

    /// Deliveries since they were last handed on, in delivery order.
    /// The run loop hands them on every cycle (or at each checkpoint of
    /// a checkpointed run); on a network stepped by hand they pile up
    /// here until [`Network::hand_on_deliveries`].
    pub fn pending_deliveries(&self) -> &[DeliveredPacket] {
        &self.pending
    }

    /// Hand the pending deliveries to `stream` and forget them
    /// ([`DeliveryStream::append_vec`]). A stream that copies them
    /// leaves the buffer its capacity, so a steady-state hand-on
    /// allocates nothing here; one that takes the vector leaves an
    /// empty one. On an error the deliveries stay pending.
    pub fn hand_on_deliveries(
        &mut self,
        stream: &mut dyn DeliveryStream,
    ) -> Result<(), SnapshotError> {
        if !self.pending.is_empty() {
            stream.append_vec(&mut self.pending)?;
        }
        Ok(())
    }

    /// Tally from now on the packets created in `window`.
    ///
    /// # Panics
    /// When the tally already counted deliveries under a window that
    /// classifies some creation cycle before [`Network::cycle`]
    /// differently: continuing it would silently mix two windows.
    pub(crate) fn set_window(&mut self, window: (Cycle, Cycle)) {
        assert!(
            self.tally.admits(window, self.cycles_stepped),
            "a network tallied under window {:?} cannot continue under {window:?} at cycle {}",
            self.tally.window(),
            self.cycles_stepped
        );
        self.tally.set_window(window);
    }

    /// Count one delivery of the retained stream prefix into the tally
    /// (the resume path).
    pub(crate) fn fold_delivery(&mut self, d: &DeliveredPacket) {
        self.tally.record(d);
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

    /// Offer packets to their source NIs. Returns the number refused by
    /// bounded queues.
    pub fn offer_packets(&mut self, mut packets: Vec<Packet>) -> u64 {
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
            links,
            routers,
            nis,
            pending,
            tally,
            cycles_stepped,
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
            audit: *worklist_audit,
            local_delay: cfg.link_latency,
            bounds,
            arriving,
            routers: routers.as_mut_ptr(),
            nis: nis.as_mut_ptr(),
            links: links.rows_mut().as_mut_ptr(),
            obs: obs.as_mut_ptr(),
            shards: shards.as_mut_ptr(),
        };
        // SAFETY: the contract holds as above, and the pool runs each
        // shard index exactly once.
        #[allow(unsafe_code)]
        pool.broadcast(tasks.bounds.len(), &|i| unsafe { tasks.run(i) });

        // Phase C: every shard has read the arriving slots, so empty
        // them, and merge in fixed shard order (= router-id order).
        for (s, (scratch, slot)) in shards.iter_mut().zip(arriving.iter_mut()).enumerate() {
            slot.clear();
            for d in scratch.deliveries.drain(..) {
                tally.record(&d);
                pending.push(d);
            }
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
}

/// Canonical encoding of the construction parameters a [`Network`]
/// snapshot was taken under. Stored in the snapshot and compared (as
/// text, byte for byte) on restore: a snapshot only restores into a network
/// built from the *same* configuration.
fn encode_fingerprint(cfg: &NetworkConfig, kind: RouterKind, sink: &mut JsonWriter<'_>) {
    let class = |sink: &mut JsonWriter<'_>, c: LinkClass| {
        sink.obj(|sink| {
            sink.field("latency").u64(c.latency as u64);
            sink.field("width_denom").u64(c.width_denom as u64);
        });
    };
    let w_h = |sink: &mut JsonWriter<'_>, kind: &str, w: u8, h: u8| {
        sink.field("kind").str(kind);
        sink.field("w").u64(u64::from(w));
        sink.field("h").u64(u64::from(h));
    };
    sink.obj(|sink| {
        sink.field("mesh_k").u64(cfg.mesh_k as u64);
        sink.field("topology").obj(|sink| match cfg.topology {
            TopologySpec::MeshK => sink.field("kind").str("mesh_k"),
            TopologySpec::Mesh { w, h } => w_h(sink, "mesh", w, h),
            TopologySpec::Torus { w, h } => w_h(sink, "torus", w, h),
            TopologySpec::CutMesh { w, h, cuts, seed } => {
                w_h(sink, "cutmesh", w, h);
                sink.field("cuts").u64(cuts as u64);
                encode_hex(sink.field("seed"), seed);
            }
            TopologySpec::ChipletMesh {
                k_chip,
                k_node,
                d2d,
            } => {
                sink.field("kind").str("chipletmesh");
                sink.field("k_chip").u64(k_chip as u64);
                sink.field("k_node").u64(k_node as u64);
                class(sink.field("d2d"), d2d);
            }
            TopologySpec::ChipletStar {
                chiplets,
                k_node,
                d2d,
                hub,
            } => {
                sink.field("kind").str("chipletstar");
                sink.field("chiplets").u64(chiplets as u64);
                sink.field("k_node").u64(k_node as u64);
                class(sink.field("d2d"), d2d);
                class(sink.field("hub"), hub);
            }
        });
        sink.field("ports").u64(cfg.router.ports as u64);
        sink.field("vcs").u64(cfg.router.vcs as u64);
        sink.field("buffer_depth")
            .u64(cfg.router.buffer_depth as u64);
        sink.field("flit_width_bits")
            .u64(cfg.router.flit_width_bits as u64);
        sink.field("link_latency").u64(cfg.link_latency as u64);
        sink.field("ni_queue_packets")
            .u64(cfg.ni_queue_packets as u64);
        sink.field("router_kind").str(kind.tag());
        // The routing mode joined the config after the v4 golden
        // checkpoints were recorded; fingerprint it only when it departs
        // from the default so those checkpoints keep restoring byte-for-
        // byte.
        if cfg.routing != RoutingMode::Static {
            sink.field("routing").str(cfg.routing.tag());
        }
    });
}

impl Snapshot for Network {
    /// The network's complete resumable state at a cycle boundary:
    /// every router and NI, the wire wheel in its canonical order (slot
    /// 0 first — the slot arriving next cycle), the link-utilisation
    /// matrix and the global counters. Excluded as rebuildable from
    /// configuration:
    /// the topology, the link targets, the shard partition (thread
    /// count is a performance knob — results are bit-identical for any
    /// value, see the module docs) and the empty per-cycle scratch
    /// buffers. Also excluded — deliberately — are the deliveries: the
    /// log lives in the append-only delivery stream
    /// ([`crate::delivery`]), keeping snapshot cost O(live network
    /// state), and the tally is rebuilt from it. Checkpoint envelopes
    /// record a stream offset; on restore the simulator truncates the
    /// stream to it and folds the retained prefix into the tally.
    fn encode(&self, sink: &mut JsonWriter<'_>) {
        sink.obj(|sink| {
            sink.field("schema_version").u64(SNAPSHOT_SCHEMA_VERSION);
            encode_fingerprint(&self.cfg, self.kind(), sink.field("config"));
            sink.field("cycles_stepped").u64(self.cycles_stepped);
            sink.field("routers_stepped").u64(self.routers_stepped);
            sink.field("routers_skipped").u64(self.routers_skipped);
            // The worklist is always on; the key stays for the schema.
            sink.field("skip_idle").bool(true);
            sink.field("flits_edge_dropped")
                .u64(self.flits_edge_dropped);
            sink.field("flits_dropped").u64(self.flits_dropped);
            sink.field("flits_injected").u64(self.flits_injected);
            sink.field("last_activity").u64(self.last_activity);
            sink.field("wires")
                .arr(0..self.part.wheel_len(), |sink, k| {
                    sink.begin_arr();
                    self.part.for_each_wire_in(k, |w| w.encode(sink));
                    sink.end_arr();
                });
            self.routers.encode(sink.field("routers"));
            self.nis.encode(sink.field("nis"));
            self.links
                .encode_rows(|l| l.flits, sink.field("link_flits"));
            self.links
                .encode_rows(|l| l.free_at, sink.field("link_free"));
        });
    }
}

impl Network {
    /// Check that wire `w` names a router (or NI), port and VC this
    /// network has: the stepper indexes with them unchecked.
    fn check_wire(&self, w: &Wire) -> Result<(), SnapshotError> {
        let (ports, vcs) = (self.cfg.router.ports, self.cfg.router.vcs);
        let (port, vc) = match *w {
            Wire::Flit { port, vc, .. }
            | Wire::Credit {
                out_port: port, vc, ..
            } => (port.index(), vc.index()),
            Wire::NiCredit { vc, .. } => (0, vc.index()),
            Wire::Eject { .. } => (0, 0),
        };
        let error = match w.dest() {
            at if at >= self.routers.len() => format!("router {at} of {}", self.routers.len()),
            _ if port >= ports => format!("port {port} of {ports}"),
            _ if vc >= vcs => format!("VC {vc} of {vcs}"),
            _ => return Ok(()),
        };
        Err(SnapshotError::new(format!("a wire to {error}")))
    }
}

impl Restore for Network {
    fn restore_from(&mut self, r: &mut JsonReader<'_>) -> Result<(), SnapshotError> {
        r.obj(|r| {
            let version: u64 = r.field("schema_version")?;
            if version != SNAPSHOT_SCHEMA_VERSION {
                return Err(SnapshotError::new(format!(
                    "snapshot schema version {version} != supported {SNAPSHOT_SCHEMA_VERSION}"
                )));
            }
            let expected = to_text(|w| encode_fingerprint(&self.cfg, self.kind(), w));
            let got = r.member("config")?.skip()?;
            if got != expected {
                return Err(SnapshotError::new(format!(
                    "configuration mismatch: snapshot taken under {got}, restoring into {expected}"
                )));
            }
            self.cycles_stepped = r.field("cycles_stepped")?;
            self.routers_stepped = r.field("routers_stepped")?;
            self.routers_skipped = r.field("routers_skipped")?;
            // Written by every snapshot; the value cannot change a result.
            r.member("skip_idle")?
                .bool()
                .map_err(|_| SnapshotError::new("`skip_idle` is not a bool"))?;
            self.flits_edge_dropped = r.field("flits_edge_dropped")?;
            self.flits_dropped = r.field("flits_dropped")?;
            self.flits_injected = r.field("flits_injected")?;
            self.last_activity = r.field("last_activity")?;
            // The wheel's base length is fixed by the link classes (which
            // the config fingerprint pinned above), but serialisation
            // pacing may have grown it past that, up to the horizon's
            // bound; adopt the snapshot's length so in-flight wires land
            // in the slots they left from.
            let mut wires = Vec::new();
            let slots = r.field_with("wires", |r| {
                r.arr(|r, k| {
                    r.arr(|r, _| {
                        let w = Wire::decode(r)?;
                        self.check_wire(&w)?;
                        wires.push((k, w));
                        Ok(())
                    })
                    .map(drop)
                })
            })?;
            let Horizon { base, max } = self.part.horizon;
            if !(base..=max).contains(&slots) {
                return Err(SnapshotError::new(format!(
                    "`wires` has {slots} slots, outside the horizon's {base}..={max}"
                )));
            }
            self.part.reset_wheel(slots);
            for (k, w) in wires {
                self.part.load(k, w);
            }
            r.field_arr_of("routers", &[self.routers.len()], &mut |r, i| {
                self.routers[i].restore_from(r)
            })?;
            if self.cycles_stepped == 0 {
                self.routers.iter_mut().for_each(Router::mark_unstepped);
            }
            r.field_arr_of("nis", &[self.nis.len()], &mut |r, i| {
                self.nis[i].restore_from(r)
            })?;
            self.links.decode_rows(r, "link_flits", |l| &mut l.flits)?;
            self.links.decode_rows(r, "link_free", |l| &mut l.free_at)?;
            // The deliveries are not in the snapshot (the log lives in the
            // delivery stream); clear the tally (keeping its window) and
            // the pending ones so a restore into a used network cannot
            // leak them. A resume folds the stream prefix in afterwards.
            // The shard cut is left alone (the thread count is orthogonal
            // to state), and the rest of its scratch is empty at every
            // cycle boundary.
            self.tally.clear();
            self.pending.clear();
            Ok(())
        })
    }
}
