//! The router model: state, per-cycle orchestration and the XB stage.

use crate::crossbar::Crossbar;
use crate::fault_state::FaultState;
use crate::port::{FlitStore, PortCtl, VcView};
use crate::stages::StageScratch;
use noc_faults::{DetectionModel, FaultSite};
pub use noc_telemetry::RouterStats;
use noc_telemetry::{Event, EventKind, NullObserver, Observer};
use noc_topology::{Topology, VcClass};
use noc_types::{Coord, Cycle, Flit, Mesh, PortId, RouterConfig, VcGlobalState, VcId};

/// Which of the paper's two routers to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterKind {
    /// The unprotected generic router of Section II. Faults manifest
    /// destructively (misroutes, blocked ports, dropped flits).
    Baseline,
    /// The proposed fault-tolerant router of Section V.
    Protected,
}

impl RouterKind {
    /// Stable lower-case tag: the CLI flag value, the service spec
    /// field and the snapshot fingerprint all spell a kind this way.
    pub fn tag(self) -> &'static str {
        match self {
            RouterKind::Baseline => "baseline",
            RouterKind::Protected => "protected",
        }
    }

    /// Parse a `--router` / `router_kind` argument: the inverse of
    /// [`RouterKind::tag`].
    pub fn parse_arg(arg: &str) -> Result<RouterKind, String> {
        match arg {
            "baseline" => Ok(RouterKind::Baseline),
            "protected" => Ok(RouterKind::Protected),
            other => Err(format!(
                "unrecognised router kind {other:?} (expected protected | baseline)"
            )),
        }
    }
}

/// A flit leaving the router this cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Departure {
    /// Logical output port the flit leaves through (the link direction).
    pub out_port: PortId,
    /// Downstream VC the flit is headed to.
    pub out_vc: VcId,
    /// The flit itself.
    pub flit: Flit,
}

/// A credit returned to the upstream router feeding `in_port`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CreditReturn {
    /// The input port whose buffer slot was freed.
    pub in_port: PortId,
    /// The VC whose slot was freed.
    pub vc: VcId,
}

/// Everything a [`Router::step`] call produces.
///
/// For allocation-free stepping, keep one `StepOutput` alive across
/// cycles and pass it to [`Router::step_into`]: the vectors are cleared,
/// not reallocated, so steady state performs no heap allocation. It also
/// carries the VA/SA stages' working storage, so one `StepOutput` per
/// stepper shard serves every router that shard steps.
#[derive(Debug, Default)]
pub struct StepOutput {
    /// Flits that traversed the crossbar this cycle.
    pub departures: Vec<Departure>,
    /// Credits to return upstream.
    pub credits: Vec<CreditReturn>,
    /// Flits destroyed by an unprotected crossbar fault (baseline only).
    pub dropped: Vec<Flit>,
    /// VA/SA scratch, sized by the first step that uses it.
    pub(crate) scratch: StageScratch,
}

impl StepOutput {
    /// Empty all three event lists, keeping their capacity.
    pub fn clear(&mut self) {
        self.departures.clear();
        self.credits.clear();
        self.dropped.clear();
    }
}

/// The routing computation a router's RC units perform, as a closed
/// enum so the per-cycle hot path dispatches statically instead of
/// through a boxed `dyn Fn`.
#[derive(Debug, Clone)]
pub enum RoutingAlgorithm {
    /// An explicit routing table: destination router id → output port.
    /// The route of a standalone router of any radix (Section VI),
    /// whose ports beyond the fifth are not grid directions.
    Table {
        /// Maps destination coordinates to table indices.
        mesh: Mesh,
        /// One output port per destination router id.
        ports: Vec<PortId>,
    },
    /// Route through a shared [`Topology`] from the router's own node,
    /// the grid id of its coordinate. The `Arc` is shared by every
    /// router of a network, so a fault edge (dead router, cut link)
    /// swaps all tables with one allocation, and the topology is the
    /// one record of which links and routers are alive.
    Topo {
        /// The network graph: [`Topology::route`] answers static RC,
        /// and [`Topology::candidate_mask`] filtered by
        /// [`Topology::live_mask`] gives adaptive RC's candidates.
        topo: std::sync::Arc<Topology>,
        /// Adaptive mode: congestion-adaptive minimal routing with the
        /// lower half of every port's VCs reserved as an escape class
        /// routed by these up\*/down\* tables over the surviving
        /// non-wrap grid links (Duato's protocol; see
        /// `Router::route_adaptively` and ARCHITECTURE.md §8). `None`
        /// routes statically.
        escape: Option<std::sync::Arc<Topology>>,
        /// Test hook: `false` removes the escape class entirely,
        /// deliberately reintroducing the adaptive-cycle deadlock the
        /// escape class exists to prevent (the property suite proves
        /// the watchdog catches it).
        escape_on: bool,
    },
}

impl RoutingAlgorithm {
    /// A routing table over `mesh`'s router ids.
    ///
    /// # Panics
    /// Panics if the table does not cover every router in the mesh.
    pub fn table(mesh: Mesh, ports: Vec<PortId>) -> Self {
        assert_eq!(
            ports.len(),
            mesh.len(),
            "routing table must cover every destination"
        );
        RoutingAlgorithm::Table { mesh, ports }
    }

    /// Static routing through a shared [`Topology`].
    pub fn topo(topo: std::sync::Arc<Topology>) -> Self {
        RoutingAlgorithm::Topo {
            topo,
            escape: None,
            escape_on: true,
        }
    }

    /// Congestion-adaptive routing over `topo` with `escape` as the
    /// deadlock-free escape network.
    ///
    /// # Panics
    /// Panics if the topology routes by fault-aware static tables (cut
    /// mesh / chiplet star), where adaptive candidate sets do not apply.
    pub fn adaptive(topo: std::sync::Arc<Topology>, escape: std::sync::Arc<Topology>) -> Self {
        assert!(
            topo.supports_adaptive(),
            "adaptive routing applies to grid families only"
        );
        RoutingAlgorithm::Topo {
            topo,
            escape: Some(escape),
            escape_on: true,
        }
    }

    /// The static route from `here` for a packet headed to `dst`: the
    /// output port and the bitmask of legal downstream VCs (`vcs` = VCs
    /// per port). Tables never restrict the VCs; topology routing maps
    /// a restricting [`VcClass`] onto the lower/upper half of the VCs
    /// (the torus dateline scheme). An unrestricted route deposits the
    /// VC fields' unrestricted default, `!0`. An adaptive router's RC
    /// stage computes its route from its own credit state instead
    /// (`Router::route_adaptively`).
    #[inline]
    pub fn route_masked(&self, here: Coord, dst: Coord, vcs: usize) -> (PortId, u32) {
        match self {
            RoutingAlgorithm::Table { mesh, ports } => (ports[mesh.id_of(dst).index()], !0),
            RoutingAlgorithm::Topo { topo, .. } => {
                let grid = topo.grid();
                match topo.route(grid.id_of(here).index(), grid.id_of(dst).index()) {
                    (dir, VcClass::Any) => (dir.port(), !0),
                    (dir, class) => (dir.port(), class.mask(vcs)),
                }
            }
        }
    }
}

/// A switch-allocation winner waiting to traverse the crossbar next
/// cycle. Captures everything needed so later state changes cannot
/// corrupt the traversal.
#[derive(Debug, Clone, Copy)]
pub(crate) struct XbGrant {
    pub(crate) in_port: PortId,
    pub(crate) in_vc: VcId,
    /// The link the flit leaves on.
    pub(crate) logical_out: PortId,
    /// The primary mux the flit is switched through (differs from
    /// `logical_out` on a secondary path).
    pub(crate) mux: PortId,
    /// Downstream VC (captured at grant time).
    pub(crate) out_vc: VcId,
}

/// How often the SA bypass path's default winner rotates (cycles).
/// Rotation prevents the static-default starvation the paper warns
/// about; the period is long enough for a transferred packet to drain.
pub(crate) const DEFAULT_WINNER_PERIOD: Cycle = 8;

/// A cycle-accurate P-port, V-VC router (baseline or protected).
///
/// A clone is an independent router in the same state; its routing
/// tables stay shared behind their `Arc`s, which are only ever replaced,
/// never mutated.
///
/// `repr(C)` and line-aligned, hot fields first: the VC state words and
/// the fault clock share the first cache line, so the stepper's idle
/// test ([`Router::is_idle_at`]) reads one line per router.
#[derive(Clone)]
#[repr(C, align(64))]
pub struct Router {
    /// The router-wide VC state words: bit `port·V + vc` is one input
    /// VC (`RouterConfig::validate` bounds `P·V` by 32). They are a pure
    /// function of the store — each VC's `G` state and whether its
    /// buffer holds a flit — re-derived one VC at a time by
    /// [`Router::sync_vc`] wherever either changes, and wholesale on
    /// snapshot restore. Each stage's skip test is one word test, and
    /// a stage walks its work word port by port.
    ///
    /// Bit set ⇔ the VC is not `Idle`.
    pub(crate) nonidle: u32,
    /// Bit set ⇔ the VC is in `Routing` (has an RC request).
    pub(crate) routing: u32,
    /// Bit set ⇔ the VC is in `VcAlloc` (VA-eligible).
    pub(crate) vc_alloc: u32,
    /// Bit set ⇔ the VC is `Active` (past VA, competing in SA).
    pub(crate) active: u32,
    /// Bit set ⇔ the VC has at least one buffered flit.
    pub(crate) nonempty: u32,
    /// Total flits buffered across the input ports, maintained at the
    /// flit entry/exit points ([`Router::receive_flit`] and the XB
    /// traversal pops) so the per-step occupancy integral reads one
    /// word. Recomputed on restore.
    pub(crate) port_flits: u32,
    /// Fault schedule and clock; its clock fields lead (see
    /// [`FaultState`]).
    pub(crate) faults: FaultState,
    pub(crate) cfg: RouterConfig,
    /// Every input VC buffer and its state fields, in one allocation.
    pub(crate) store: FlitStore,
    /// Every port's control state — credits, busy and exclusion words,
    /// SA arbiters, RC pointer, bypass register — one cache line a
    /// port, in one allocation, indexed by port.
    pub(crate) ctl: Box<[PortCtl]>,
    /// SA winners awaiting crossbar traversal (filled by SA at cycle t,
    /// drained by XB at t+1).
    pub(crate) xb_queue: Vec<XbGrant>,
    /// VA stage 1: one `V:1` round-robin arbiter over downstream VCs
    /// per `(port, vc, out)`, flat-indexed `(port * V + vc) * P + out`
    /// (the paper's 100 4:1 arbiters). Every arbiter of a stage has the
    /// same width, so only its pointer byte is kept; the stage runs
    /// [`noc_arbiter::round_robin`] over it.
    pub(crate) va1: Box<[u8]>,
    /// VA stage 2: one `(P·V):1` round-robin arbiter per
    /// `(out, out_vc)`, flat-indexed `out * V + out_vc` (the paper's 20
    /// 20:1 arbiters), as pointer bytes like `va1`.
    pub(crate) va2: Box<[u8]>,
    pub(crate) stats: RouterStats,
    pub(crate) route: RoutingAlgorithm,
    pub(crate) id: u16,
    pub(crate) coord: Coord,
    pub(crate) kind: RouterKind,
    pub(crate) xbar: Crossbar,
}

impl Router {
    /// Build a router with an arbitrary routing algorithm, returning a
    /// descriptive error when the configuration is invalid (e.g. more
    /// than 32 VCs in all — the VC state words are `u32`s).
    ///
    /// Validation happens here, once, at construction time; the per-VC
    /// hot path carries no capacity asserts.
    pub fn try_new(
        id: u16,
        coord: Coord,
        cfg: RouterConfig,
        kind: RouterKind,
        route: RoutingAlgorithm,
        detection: DetectionModel,
    ) -> Result<Self, String> {
        cfg.validate()?;
        let p = cfg.ports;
        let v = cfg.vcs;
        Ok(Router {
            id,
            coord,
            cfg,
            kind,
            route,
            store: FlitStore::new(p * v, cfg.buffer_depth),
            nonidle: 0,
            routing: 0,
            vc_alloc: 0,
            active: 0,
            nonempty: 0,
            ctl: PortId::all(p)
                .map(|port| PortCtl::new(port, p, v, cfg.buffer_depth as u8))
                .collect(),
            va1: vec![0; p * v * p].into_boxed_slice(),
            va2: vec![0; p * v].into_boxed_slice(),
            xbar: Crossbar::new(p),
            faults: FaultState::new(&cfg, detection),
            xb_queue: Vec::with_capacity(p),
            port_flits: 0,
            stats: RouterStats::default(),
        })
    }

    /// Build a router with an arbitrary routing algorithm.
    ///
    /// # Panics
    /// Panics on an invalid configuration; use [`Router::try_new`] for a
    /// recoverable error.
    pub fn new(
        id: u16,
        coord: Coord,
        cfg: RouterConfig,
        kind: RouterKind,
        route: RoutingAlgorithm,
        detection: DetectionModel,
    ) -> Self {
        Router::try_new(id, coord, cfg, kind, route, detection)
            .expect("invalid router configuration")
    }

    /// Build a router that XY-routes within `mesh` from its own `coord`:
    /// it routes through its own [`Topology::mesh`] of `mesh`'s shape.
    pub fn new_xy(id: u16, coord: Coord, mesh: Mesh, cfg: RouterConfig, kind: RouterKind) -> Self {
        let topo = std::sync::Arc::new(Topology::mesh(mesh.w, mesh.h));
        let route = RoutingAlgorithm::topo(topo);
        Router::new(id, coord, cfg, kind, route, DetectionModel::Ideal)
    }

    /// The router's id.
    pub fn id(&self) -> u16 {
        self.id
    }

    /// The router's mesh coordinate.
    pub fn coord(&self) -> Coord {
        self.coord
    }

    /// The configuration the router was built with.
    pub fn config(&self) -> &RouterConfig {
        &self.cfg
    }

    /// Baseline or protected.
    pub fn kind(&self) -> RouterKind {
        self.kind
    }

    /// The fault bookkeeping (read-only).
    pub fn faults(&self) -> &FaultState {
        &self.faults
    }

    /// The crossbar topology.
    pub fn crossbar(&self) -> &Crossbar {
        &self.xbar
    }

    /// Event counters.
    pub fn stats(&self) -> &RouterStats {
        &self.stats
    }

    /// Schedule a permanent fault to manifest at `cycle`.
    ///
    /// # Panics
    /// Panics, at injection time, on a site this router does not have
    /// (`FaultSite::in_range`).
    pub fn inject_fault(&mut self, site: FaultSite, cycle: Cycle) {
        self.faults.inject(site, cycle);
    }

    /// Schedule a transient upset on `site` for `[cycle, cycle+duration)`
    /// (extension beyond the paper's permanent-fault scope).
    ///
    /// # Panics
    /// As [`Router::inject_fault`].
    pub fn inject_transient(&mut self, site: FaultSite, cycle: Cycle, duration: u32) {
        self.faults.inject_transient(site, cycle, duration);
    }

    /// Declare that this router has not been stepped since it was
    /// built, so its next step refreshes the fault clock in full. A
    /// restore assumes the snapshot's fault clock was stepped at the
    /// cycle it records; a network restored before its first cycle
    /// calls this, because nothing was.
    pub fn mark_unstepped(&mut self) {
        self.faults.mark_unrefreshed();
    }

    /// Override the detection model (keeps every scheduled fault).
    pub fn set_detection(&mut self, detection: DetectionModel) {
        self.faults.set_detection(detection);
    }

    /// Replace the routing algorithm. Routes already computed (VCs past
    /// RC) keep their old output port; only subsequent computations use
    /// the new algorithm. Exists for topology experiments and for tests
    /// that need deliberately deadlock-prone routing (XY is
    /// deadlock-free on a mesh, so a circular wait cannot be forced
    /// without replacing it).
    pub fn set_routing(&mut self, route: RoutingAlgorithm) {
        self.route = route;
    }

    /// Swap in a network's healed tables after a fault edge: the
    /// topology, and the escape tables in adaptive mode. Keeps the
    /// routing mode and the escape test hook; a no-op under table
    /// routing.
    pub fn set_tables(
        &mut self,
        topology: &std::sync::Arc<Topology>,
        escape_tables: Option<&std::sync::Arc<Topology>>,
    ) {
        if let RoutingAlgorithm::Topo { topo, escape, .. } = &mut self.route {
            *topo = std::sync::Arc::clone(topology);
            if let (Some(e), Some(new)) = (escape, escape_tables) {
                *e = std::sync::Arc::clone(new);
            }
        }
    }

    /// Test hook: turn the escape class off, making every VC adaptive
    /// with no fallback — deliberately deadlock-prone. The acyclicity
    /// property suite uses this to prove the deadlock watchdog would
    /// catch an escape-class regression.
    pub fn disable_adaptive_escape(&mut self) {
        if let RoutingAlgorithm::Topo { escape_on, .. } = &mut self.route {
            *escape_on = false;
        }
    }

    /// Total flits buffered in the router (drain / conservation checks,
    /// occupancy integral). O(1): the port total is maintained at the
    /// flit entry/exit points rather than recomputed.
    pub fn buffered_flits(&self) -> usize {
        debug_assert_eq!(
            self.port_flits as usize,
            (0..self.cfg.ports * self.cfg.vcs)
                .map(|i| self.store.len(i))
                .sum::<usize>(),
            "incremental port-flit total out of sync with the buffers"
        );
        self.port_flits as usize + self.xb_queue.len()
    }

    /// SA grants queued for crossbar traversal that target downstream
    /// `(out, vc)`. Each holds one reserved downstream credit until the
    /// traversal executes, drops or is cancelled (conservation checks).
    pub fn queued_to(&self, out: PortId, vc: VcId) -> usize {
        self.xb_queue
            .iter()
            .filter(|g| g.logical_out == out && g.out_vc == vc)
            .count()
    }

    /// A read-only view of input VC `(port, vc)`: its state fields and
    /// buffered flits (diagnostics, conservation checks, tests).
    pub fn vc(&self, port: PortId, vc: VcId) -> VcView<'_> {
        self.store.view(port.index() * self.cfg.vcs + vc.index())
    }

    /// Whether the protected router has exhausted its tolerance (the
    /// Section VIII failure predicate); for a baseline router, whether
    /// any fault at all has manifested on a baseline circuit.
    pub fn is_failed(&self) -> bool {
        match self.kind {
            RouterKind::Protected => self.faults.protected_router_failed(&self.cfg, &self.xbar),
            RouterKind::Baseline => self
                .faults
                .active()
                .iter()
                .any(|s| !s.is_correction_circuitry()),
        }
    }

    /// Whether stepping this router would be an observable no-op, so a
    /// network-level worklist may skip its [`Router::step_into`] call
    /// entirely.
    ///
    /// A router is idle when:
    ///
    /// * every VC of every input port is in the `Idle` G state — no flit
    ///   is buffered and no packet is mid-flight through the router, so
    ///   RC/VA/SA have no requests (which also implies every `out_vc_busy`
    ///   flag is clear: downstream VCs are released by the tail flit,
    ///   whose pop is what returns the input VC to `Idle`);
    /// * the crossbar grant queue is empty — no traversal is pending; and
    /// * the fault state is inert ([`FaultState::is_inert`]) — skipping
    ///   the per-cycle `faults.refresh` cannot change the active or
    ///   detected maps, now or later. (The stepper's own test,
    ///   [`Router::is_idle_at`], also skips routers whose faults are
    ///   quiet at that cycle.)
    ///
    /// Arbiter pointers, the bypass register and every statistics counter
    /// only move when a stage sees a request — including the occupancy
    /// integral and stall counters, which add `buffered_flits()` (zero
    /// when idle) and ungranted-request counts (zero under the stage
    /// early-outs) — so an idle step touches nothing observable. The
    /// `worklist_is_sound` property test steps idle routers anyway and
    /// asserts exactly that.
    ///
    /// Credits arriving from downstream do *not* wake a router: absorbing
    /// a credit is handled at delivery time by [`Router::receive_credit`]
    /// and needs no pipeline evaluation. A flit arrival flips its VC out
    /// of `Idle`, so the next `is_idle` check sees it.
    pub fn is_idle(&self) -> bool {
        self.nonidle == 0 && self.xb_queue.is_empty() && self.faults.is_inert()
    }

    /// Whether stepping this router at `cycle` would be an observable
    /// no-op: [`Router::is_idle`], except that a router with scheduled
    /// faults also qualifies on a cycle its fault clock is quiet at
    /// ([`FaultState::quiet_at`]). On such a cycle the step's fault
    /// refresh is one range test that changes no map, so only an empty
    /// router's edge cycles — where faults manifest, are detected or
    /// clear, and events are emitted — must be stepped. A skipped
    /// refresh leaves the clock's lower bound behind, exactly as it does
    /// on a fault-free router; the next refresh closes the gap with the
    /// same maps and events.
    ///
    /// The grant queue needs no test of its own here: a queued grant
    /// holds the buffered flit of an `Active` VC until XB sends it, so
    /// `nonidle == 0` implies an empty queue.
    pub fn is_idle_at(&self, cycle: Cycle) -> bool {
        debug_assert!(self.nonidle != 0 || self.xb_queue.is_empty());
        self.nonidle == 0 && (self.faults.is_inert() || self.faults.quiet_at(cycle))
    }

    /// Accept a flit arriving on `(port, vc)` (buffer write).
    pub fn receive_flit(&mut self, port: PortId, vc: VcId, flit: Flit) {
        self.stats.flits_in += 1;
        self.store
            .push(port.index() * self.cfg.vcs + vc.index(), flit);
        self.port_flits += 1;
        self.sync_vc(port.index() * self.cfg.vcs + vc.index());
    }

    /// Re-derive input VC `i = port·V + vc`'s bits of the state words
    /// from its `G` field and occupancy. The one rule that keeps the
    /// words exact: run it wherever a VC's `G` state or emptiness
    /// changes — flit entry ([`Router::receive_flit`]) and exit (the XB
    /// pops), and the stage transitions RC→`VcAlloc` and VA→`Active`.
    #[inline]
    pub(crate) fn sync_vc(&mut self, i: usize) {
        let slot = self.store.slot(i);
        let g = slot.fields.g;
        let set = |word: &mut u32, on: bool| *word = (*word & !(1 << i)) | (u32::from(on) << i);
        set(&mut self.nonidle, g != VcGlobalState::Idle);
        set(&mut self.routing, g == VcGlobalState::Routing);
        set(&mut self.vc_alloc, g == VcGlobalState::VcAlloc);
        set(&mut self.active, g == VcGlobalState::Active);
        set(&mut self.nonempty, self.store.len(i) != 0);
    }

    /// Re-derive every state word and the flit total from the store
    /// (snapshot restore).
    pub(crate) fn sync_all(&mut self) {
        self.port_flits = 0;
        for i in 0..self.cfg.ports * self.cfg.vcs {
            self.sync_vc(i);
            self.port_flits += self.store.len(i) as u32;
        }
    }

    /// Port `port`'s `V` bits of a state word.
    #[inline]
    pub(crate) fn port_bits(&self, word: u32, port: usize) -> u32 {
        let v = self.cfg.vcs;
        (word >> (port * v)) & width_mask(v)
    }

    /// Accept a credit returned by the downstream router of `out_port`.
    pub fn receive_credit(&mut self, out_port: PortId, vc: VcId) {
        let ctl = &mut self.ctl[out_port.index()];
        let c = &mut ctl.credits[vc.index()];
        assert!(
            (*c as usize) < self.cfg.buffer_depth,
            "credit overflow: downstream returned more credits than slots"
        );
        *c += 1;
        ctl.credited |= 1 << vc.index();
    }

    /// Restore one previously reserved credit towards `(out, vc)`
    /// (cancelled or dropped traversal).
    #[inline]
    pub(crate) fn restore_credit(&mut self, out: PortId, vc: VcId) {
        let ctl = &mut self.ctl[out.index()];
        ctl.credits[vc.index()] += 1;
        ctl.credited |= 1 << vc.index();
    }

    /// Consume one credit towards `(out, vc)`, keeping the credited
    /// mask in sync. The caller must have checked availability.
    #[inline]
    pub(crate) fn consume_credit(&mut self, out: PortId, vc: VcId) {
        let ctl = &mut self.ctl[out.index()];
        let c = &mut ctl.credits[vc.index()];
        debug_assert!(*c > 0, "consuming a credit that is not there");
        *c -= 1;
        if *c == 0 {
            ctl.credited &= !(1 << vc.index());
        }
    }

    /// Current credit count towards `(out_port, vc)`.
    pub fn credit(&self, out_port: PortId, vc: VcId) -> u8 {
        self.ctl[out_port.index()].credits[vc.index()]
    }

    /// Whether the downstream VC `(out_port, vc)` is allocated.
    pub fn out_vc_busy(&self, out_port: PortId, vc: VcId) -> bool {
        self.ctl[out_port.index()].out_vc_busy & (1 << vc.index()) != 0
    }

    /// Advance one clock cycle, allocating a fresh [`StepOutput`].
    ///
    /// Convenience wrapper over [`Router::step_into`]; hot loops should
    /// hold a reusable `StepOutput` and call `step_into` instead.
    pub fn step(&mut self, cycle: Cycle) -> StepOutput {
        let mut out = StepOutput::default();
        self.step_into(cycle, &mut out);
        out
    }

    /// Advance one clock cycle, writing this cycle's events into `out`
    /// (cleared first). With a long-lived `out`, steady-state stepping
    /// performs no heap allocation.
    ///
    /// Stages run in reverse pipeline order (XB, SA, VA, RC) so that a
    /// flit advances through at most one stage per call, yielding the
    /// 4-cycle head-flit pipeline of Figure 2.
    pub fn step_into(&mut self, cycle: Cycle, out: &mut StepOutput) {
        self.step_into_observed(cycle, out, &mut NullObserver);
    }

    /// [`Router::step_into`] with a telemetry observer.
    ///
    /// Dispatch is static: with [`NullObserver`] (whose
    /// `Observer::ENABLED` is `false`) every emission site — including
    /// the event construction — is compiled out, so this is exactly the
    /// uninstrumented step. The counting-allocator and
    /// parallel-equivalence suites run through this path and pin that.
    pub fn step_into_observed<O: Observer>(
        &mut self,
        cycle: Cycle,
        out: &mut StepOutput,
        obs: &mut O,
    ) {
        out.clear();
        self.stats.occ_integral += self.buffered_flits() as u64;
        if self.faults.refresh_observed(cycle, self.id, obs) {
            self.refresh_fault_tables();
        }
        self.xb_stage(cycle, out, obs);
        // Size the stage scratch only on a step with SA or VA work; SA
        // moves no VC state, so the words say here whether VA has any.
        if (self.active & self.nonempty) | self.vc_alloc != 0 {
            out.scratch.fit(self.cfg.ports, self.cfg.vcs);
        }
        self.sa_stage(cycle, &mut out.scratch, obs);
        self.va_stage(cycle, &mut out.scratch, obs);
        self.rc_stage(cycle, obs);
    }

    /// Recompute the per-output tables the stages read in place of
    /// per-VC fault queries, from the freshly derived detected map.
    pub(crate) fn refresh_fault_tables(&mut self) {
        if self.kind != RouterKind::Protected {
            return; // the baseline router has no correction logic
        }
        let detected = self.faults.detected();
        for out in PortId::all(self.cfg.ports) {
            let ctl = &mut self.ctl[out.index()];
            ctl.sa2_target = self.xbar.sa2_target(detected, out);
            ctl.va2_ok = !detected.va2_word(out);
        }
    }

    /// XB stage: execute last cycle's SA grants. (`pub(crate)` so the
    /// straight-line reference stepper in `reference` can reuse it.)
    pub(crate) fn xb_stage<O: Observer>(
        &mut self,
        cycle: Cycle,
        out: &mut StepOutput,
        obs: &mut O,
    ) {
        // SA refills the queue only after this drain, so the whole
        // current contents are this cycle's work. `XbGrant` is `Copy`:
        // iterate by index and clear, keeping the queue's capacity.
        if self.xb_queue.is_empty() {
            return;
        }
        // Bit = dead crossbar mux; faults change only at the refresh.
        let dead_mux = self.faults.active().xb_mux_word();
        for i in 0..self.xb_queue.len() {
            let g = self.xb_queue[i];
            // Re-validate the physical path: a fault may have manifested
            // between grant and traversal.
            if dead_mux & (1 << g.mux.index()) != 0 {
                match self.kind {
                    RouterKind::Baseline => {
                        // The baseline router is unaware: the flit is
                        // switched into a dead multiplexer and lost.
                        let flit = self.pop_flit(g.in_port, g.in_vc);
                        let is_tail = flit.kind.is_tail();
                        self.stats.flits_dropped += 1;
                        // The downstream slot reserved at SA-grant time is
                        // never consumed — the flit dies in the mux, so
                        // nothing arrives downstream and no credit will
                        // ever come back for it. Restore it here, exactly
                        // as the protected cancel path does; otherwise the
                        // link leaks one credit per dropped flit until it
                        // wedges at zero.
                        self.restore_credit(g.logical_out, g.out_vc);
                        out.credits.push(CreditReturn {
                            in_port: g.in_port,
                            vc: g.in_vc,
                        });
                        if is_tail {
                            self.ctl[g.logical_out.index()].out_vc_busy &= !(1 << g.out_vc.index());
                        }
                        if O::ENABLED {
                            obs.record(Event {
                                cycle,
                                router: self.id,
                                kind: EventKind::FlitDrop {
                                    packet: flit.packet.0,
                                    seq: u16::from(flit.seq.0),
                                    out_port: g.logical_out.0,
                                },
                            });
                        }
                        out.dropped.push(flit);
                        continue;
                    }
                    RouterKind::Protected => {
                        // The protected router cancels the traversal; the
                        // flit stays buffered and SA will re-arbitrate
                        // with the updated secondary path. Restore the
                        // reserved credit.
                        self.restore_credit(g.logical_out, g.out_vc);
                        continue;
                    }
                }
            }
            let mut flit = self.pop_flit(g.in_port, g.in_vc);
            flit.hops += 1;
            if g.mux != g.logical_out {
                self.stats.secondary_path_flits += 1;
            }
            if flit.kind.is_tail() {
                self.ctl[g.logical_out.index()].out_vc_busy &= !(1 << g.out_vc.index());
            }
            self.stats.flits_out += 1;
            if O::ENABLED {
                obs.record(Event {
                    cycle,
                    router: self.id,
                    kind: EventKind::FlitHop {
                        packet: flit.packet.0,
                        seq: u16::from(flit.seq.0),
                        in_port: g.in_port.0,
                        out_port: g.logical_out.0,
                        secondary: g.mux != g.logical_out,
                    },
                });
            }
            out.credits.push(CreditReturn {
                in_port: g.in_port,
                vc: g.in_vc,
            });
            out.departures.push(Departure {
                out_port: g.logical_out,
                out_vc: g.out_vc,
                flit,
            });
        }
        self.xb_queue.clear();
    }

    /// Remove the front flit of a granted input VC (crossbar traversal
    /// or drop), keeping the flit total and state words exact.
    #[inline]
    fn pop_flit(&mut self, port: PortId, vc: VcId) -> Flit {
        let i = port.index() * self.cfg.vcs + vc.index();
        let flit = self.store.pop(i).expect("granted VC must hold a flit");
        self.port_flits -= 1;
        self.sync_vc(i);
        flit
    }
}

/// All-ones over the low `width` bits.
#[inline]
pub(crate) fn width_mask(width: usize) -> u32 {
    if width >= 32 {
        !0
    } else {
        (1u32 << width) - 1
    }
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("id", &self.id)
            .field("coord", &self.coord)
            .field("kind", &self.kind)
            .field("buffered", &self.buffered_flits())
            .field("faults", &self.faults.count())
            .finish()
    }
}
