//! Straight-line per-VC reference implementations of the RC, VA and SA
//! kernels, plus the differential property test that pins the word-wide
//! bitmask kernels in `stages.rs` to them.
//!
//! The reference functions below are ports of the pre-bitmask stage
//! code: every per-VC decision is taken by scanning VCs one at a time
//! in explicit loops, and every round-robin arbitration is a literal
//! walk of up to `width` positions starting at the pointer — no masks,
//! no `trailing_zeros`, no rotate-and-ffs. The property test drives a
//! real router and a reference-stepped clone with the identical random
//! flit/credit/fault schedule and asserts, cycle by cycle, that both
//! produce the same outputs and byte-identical snapshots — covering
//! both router kinds, VA arbiter lending, the SA bypass default winner
//! (including its re-pointing "transfer" state), latent detection
//! windows and transient upsets — under static and adaptive routing,
//! and at the word edges of the router-wide state (one VC a port over
//! 32 ports; 16 ports of 2 VCs).

use crate::router::{
    Router, RouterKind, RoutingAlgorithm, StepOutput, XbGrant, DEFAULT_WINNER_PERIOD,
};
use noc_arbiter::RoundRobinArbiter;
use noc_faults::{DetectionModel, FaultSite};
use noc_telemetry::snapshot::Snapshot;
use noc_telemetry::NullObserver;
use noc_topology::Topology;
use noc_types::{
    Coord, Cycle, Mesh, Packet, PacketId, PacketKind, PortId, RouterConfig, VcGlobalState, VcId,
};

/// Straight-line round-robin arbitration over a `width`-line arbiter's
/// pointer: scan up to `width` positions from the pointer, grant the
/// first requester, advance the pointer one past the grant. This is the
/// definitional behaviour the rotate-and-ffs `noc_arbiter::round_robin`
/// kernel must reproduce.
fn reference_arbitrate(pointer: &mut u8, width: usize, requests: u32) -> Option<usize> {
    let mask = if width >= 32 {
        !0u32
    } else {
        (1u32 << width) - 1
    };
    let requests = requests & mask;
    let start = usize::from(*pointer);
    let grant = (0..width)
        .map(|k| (start + k) % width)
        .find(|&i| requests & (1 << i) != 0)?;
    *pointer = ((grant + 1) % width) as u8;
    Some(grant)
}

/// [`reference_arbitrate`] on a [`RoundRobinArbiter`]'s pointer (the SA
/// stages keep their arbiters whole).
fn reference_arbiter(arb: &mut RoundRobinArbiter, requests: u32) -> Option<usize> {
    let mut pointer = arb.pointer() as u8;
    let grant = reference_arbitrate(&mut pointer, arb.width(), requests);
    arb.set_pointer(usize::from(pointer));
    grant
}

/// Whether `r` routes adaptively (an escape network is configured).
fn is_adaptive(r: &Router) -> bool {
    matches!(
        r.route,
        RoutingAlgorithm::Topo {
            escape: Some(_),
            ..
        }
    )
}

/// Reference RC stage: per port, scan every VC from the service pointer
/// and serve (or stall on) the first one in `Routing` — or, under
/// adaptive routing, in `VcAlloc` too, which is re-routed.
fn reference_rc_stage(r: &mut Router, cycle: Cycle) {
    let v = r.cfg.vcs;
    let adaptive = is_adaptive(r);
    for port_idx in 0..r.cfg.ports {
        let port_id = PortId(port_idx as u8);
        let start = usize::from(r.ctl[port_idx].rc_pointer);
        for k in 0..v {
            let vc_id = VcId(((start + k) % v) as u8);
            let i = port_idx * v + vc_id.index();
            let g = r.store.slot(i).fields.g;
            let revisit = g == VcGlobalState::VcAlloc;
            if g != VcGlobalState::Routing && !(adaptive && revisit) {
                continue;
            }
            let dst = r
                .store
                .front(i)
                .expect("routing VC holds its head flit")
                .dst;
            let (correct, vmask) = if adaptive {
                r.route_adaptively(dst, cycle, port_idx, vc_id.index(), revisit)
            } else {
                r.route.route_masked(r.coord, dst, v)
            };
            let primary_faulty = r.faults.rc_primary_faulty(port_id);
            let computed = match (r.kind, primary_faulty) {
                (_, false) => Some(correct),
                (RouterKind::Baseline, true) => {
                    r.stats.rc_misroutes += 1;
                    Some(PortId(((correct.0 as usize + 1) % r.cfg.ports) as u8))
                }
                (RouterKind::Protected, true) => {
                    if r.faults.latent(FaultSite::RcPrimary { port: port_id })
                        || r.faults.rc_duplicate_faulty(port_id)
                    {
                        None
                    } else {
                        r.stats.rc_duplicate_uses += 1;
                        Some(correct)
                    }
                }
            };
            if let Some(out) = computed {
                let fields = r.store.fields_mut(i);
                fields.r = Some(out);
                fields.vmask = vmask;
                fields.g = VcGlobalState::VcAlloc;
                fields.fsp = false;
                fields.sp = None;
                if r.kind == RouterKind::Protected && r.faults.detected().xb_primary_dead(out) {
                    let sp = r.xbar.secondary_source(out);
                    let fields = r.store.fields_mut(i);
                    fields.sp = Some(sp);
                    fields.fsp = true;
                }
                r.sync_vc(i);
                r.ctl[port_idx].rc_pointer = ((vc_id.index() + 1) % v) as u8;
            }
            // One RC computation per port per cycle, served or stalled.
            break;
        }
    }
}

/// Reference VA stage: per-VC loops for stage 1 (including the lender
/// scan), an exhaustive `(out, out_vc)` sweep for stage 2.
fn reference_va_stage(r: &mut Router, _cycle: Cycle) {
    let p = r.cfg.ports;
    let v = r.cfg.vcs;
    let adaptive = is_adaptive(r);

    // Stall accounting mirror: requesters (VCs awaiting allocation at
    // stage entry) minus this cycle's grants.
    let va_requests = (0..p)
        .flat_map(|port| (0..v).map(move |vc| (port, vc)))
        .filter(|&(port, vc)| r.store.slot(port * v + vc).fields.g == VcGlobalState::VcAlloc)
        .count() as u64;
    let va_grants_before = r.stats.va_grants;

    // ---- Stage 1: each waiting VC picks one free downstream VC ----
    let mut picks: Vec<(usize, VcId, VcId, PortId, VcId)> = Vec::new();
    for port_idx in 0..p {
        let port_id = PortId(port_idx as u8);
        let mut lent: u32 = 0;
        for vc_idx in 0..v {
            let vc_id = VcId(vc_idx as u8);
            let fields = r.store.slot(port_idx * v + vc_idx).fields;
            if fields.g != VcGlobalState::VcAlloc {
                continue;
            }
            let out = fields.r.expect("VcAlloc implies a routed VC");

            let own_faulty = r.faults.va1_faulty(port_id, vc_id);
            let owner: Option<VcId> = if !own_faulty {
                Some(vc_id)
            } else {
                match r.kind {
                    RouterKind::Baseline => None,
                    RouterKind::Protected => {
                        if r.faults.latent(FaultSite::Va1ArbiterSet {
                            port: port_id,
                            vc: vc_id,
                        }) {
                            None
                        } else {
                            let lender =
                                (1..v).map(|d| VcId(((vc_idx + d) % v) as u8)).find(|&l| {
                                    lent & (1 << l.index()) == 0
                                        && !r.faults.va1_faulty(port_id, l)
                                        && r.store
                                            .slot(port_idx * v + l.index())
                                            .fields
                                            .g
                                            .lendable_for_va()
                                });
                            if lender.is_none() {
                                r.stats.va_borrow_waits += 1;
                            }
                            lender
                        }
                    }
                }
            };
            let Some(owner) = owner else { continue };

            // Request mask over free downstream VCs, one VC at a time.
            let mut req: u32 = 0;
            for ovc in 0..v {
                if r.ctl[out.index()].out_vc_busy & (1 << ovc) != 0 {
                    continue;
                }
                if r.kind == RouterKind::Protected
                    && r.faults.detected().is_faulty(FaultSite::Va2Arbiter {
                        out_port: out,
                        out_vc: VcId(ovc as u8),
                    })
                {
                    continue;
                }
                req |= 1 << ovc;
            }
            req &= fields.vmask;
            // Adaptive routing: a packet that can claim an adaptive-class
            // (upper-half) VC at a router output leaves the escape VCs.
            let upper: u32 = (v / 2..v).fold(0, |m, ovc| m | (1 << ovc));
            if adaptive && out.index() != 0 && req & upper != 0 {
                req &= upper;
            }
            if req == 0 {
                continue;
            }
            let pick = reference_arbitrate(
                &mut r.va1[(port_idx * v + owner.index()) * p + out.index()],
                v,
                req,
            );
            if let Some(ovc) = pick {
                if owner != vc_id {
                    let lender_fields = r.store.fields_mut(port_idx * v + owner.index());
                    lender_fields.r2 = Some(out);
                    lender_fields.id = Some(vc_id);
                    lender_fields.vf = true;
                    lent |= 1 << owner.index();
                    r.stats.va_borrows += 1;
                }
                picks.push((port_idx, vc_id, owner, out, VcId(ovc as u8)));
            }
        }
    }

    // ---- Stage 2: exhaustive sweep over every (out, out_vc) pair ----
    let mut stage2 = vec![0u32; p * v];
    for &(port_idx, vc_id, _owner, out, ovc) in &picks {
        stage2[out.index() * v + ovc.index()] |= 1 << (port_idx * v + vc_id.index());
    }
    for out_idx in 0..p {
        for ovc_idx in 0..v {
            let req = stage2[out_idx * v + ovc_idx];
            if req == 0 {
                continue;
            }
            if r.faults
                .va2_faulty(PortId(out_idx as u8), VcId(ovc_idx as u8))
            {
                continue;
            }
            if let Some(winner) = reference_arbitrate(&mut r.va2[out_idx * v + ovc_idx], p * v, req)
            {
                let fields = r.store.fields_mut(winner);
                fields.o = Some(VcId(ovc_idx as u8));
                fields.g = VcGlobalState::Active;
                r.sync_vc(winner);
                r.ctl[out_idx].out_vc_busy |= 1 << ovc_idx;
                r.stats.va_grants += 1;
            }
        }
    }

    for &(port_idx, _vc, owner, _out, _ovc) in &picks {
        r.store
            .fields_mut(port_idx * v + owner.index())
            .clear_borrow();
    }

    r.stats.va_stalls += va_requests - (r.stats.va_grants - va_grants_before);
}

/// One reference SA request (mirror of the private `SaRequest`).
#[derive(Clone, Copy)]
struct RefSaRequest {
    logical_out: PortId,
    target: PortId,
    out_vc: VcId,
}

/// Reference SA stage: per-VC request formation, per-port stage-1 scan
/// (arbiter or bypass default winner), per-output stage-2 arbitration.
fn reference_sa_stage(r: &mut Router, cycle: Cycle) {
    let p = r.cfg.ports;
    let v = r.cfg.vcs;

    // ---- Form per-VC requests, one VC at a time ----
    let mut requests: Vec<Option<RefSaRequest>> = vec![None; p * v];
    for port_idx in 0..p {
        for vc_idx in 0..v {
            let i = port_idx * v + vc_idx;
            let fields = r.store.slot(i).fields;
            if fields.g != VcGlobalState::Active || r.store.len(i) == 0 {
                continue;
            }
            let out = fields.r.expect("active VC is routed");
            let out_vc = fields.o.expect("active VC holds a downstream VC");
            let target = match r.kind {
                RouterKind::Baseline => Some(out),
                RouterKind::Protected => r.xbar.sa2_target(r.faults.detected(), out),
            };
            {
                let fields = r.store.fields_mut(i);
                let diverted = target.is_some_and(|t| t != out);
                fields.fsp = diverted;
                fields.sp = if diverted { target } else { None };
            }
            let Some(target) = target else { continue };
            if r.ctl[out.index()].credits[out_vc.index()] == 0 {
                continue;
            }
            requests[port_idx * v + vc_idx] = Some(RefSaRequest {
                logical_out: out,
                target,
                out_vc,
            });
        }
    }

    // Stall accounting mirror: formed requests minus this cycle's
    // stage-2 grants.
    let sa_requests = requests.iter().filter(|r| r.is_some()).count() as u64;
    let sa_grants_before = r.stats.sa_grants;

    // ---- Stage 1: per input port, pick one VC ----
    let mut port_winner: Vec<Option<usize>> = vec![None; p];
    for port_idx in 0..p {
        let port_id = PortId(port_idx as u8);
        let req_mask: u32 = (0..v)
            .filter(|&vc| requests[port_idx * v + vc].is_some())
            .fold(0, |m, vc| m | (1 << vc));
        if req_mask == 0 {
            continue;
        }
        if !r.faults.sa1_faulty(port_id) {
            port_winner[port_idx] = reference_arbiter(&mut r.ctl[port_idx].sa1, req_mask);
            continue;
        }
        match r.kind {
            RouterKind::Baseline => {}
            RouterKind::Protected => {
                if r.faults.latent(FaultSite::Sa1Arbiter { port: port_id }) {
                    continue;
                }
                if r.faults.sa1_bypass_faulty(port_id) {
                    continue;
                }
                let period = cycle / DEFAULT_WINNER_PERIOD;
                let rotation_default = (period as usize + port_idx) % v;
                let ctl = &r.ctl[port_idx];
                let effective = match ctl.bypass_vc {
                    Some(vc) if ctl.bypass_period == period => usize::from(vc),
                    _ => rotation_default,
                };
                if req_mask & (1 << effective) != 0 {
                    port_winner[port_idx] = Some(effective);
                    r.stats.sa_bypass_grants += 1;
                } else if let Some(src) = (0..v).find(|&vc| requests[port_idx * v + vc].is_some()) {
                    (r.ctl[port_idx].bypass_vc, r.ctl[port_idx].bypass_period) =
                        (Some(src as u8), period);
                    r.stats.vc_transfers += 1;
                }
            }
        }
    }

    // ---- Stage 2: per target output, pick one input port ----
    let mut stage2 = vec![0u32; p];
    for port_idx in 0..p {
        if let Some(vc) = port_winner[port_idx] {
            let req = requests[port_idx * v + vc].expect("winner had a request");
            stage2[req.target.index()] |= 1 << port_idx;
        }
    }
    for (target_idx, &mask) in stage2.iter().enumerate() {
        if mask == 0 {
            continue;
        }
        if r.faults.sa2_faulty(PortId(target_idx as u8)) {
            continue;
        }
        if let Some(wport) = reference_arbiter(&mut r.ctl[target_idx].sa2, mask) {
            let vc_idx = port_winner[wport].expect("stage-2 winner won stage 1");
            let req = requests[wport * v + vc_idx].expect("winner had a request");
            r.consume_credit(req.logical_out, req.out_vc);
            r.xb_queue.push(XbGrant {
                in_port: PortId(wport as u8),
                in_vc: VcId(vc_idx as u8),
                logical_out: req.logical_out,
                mux: req.target,
                out_vc: req.out_vc,
            });
            r.stats.sa_grants += 1;
        }
    }

    r.stats.sa_stalls += sa_requests - (r.stats.sa_grants - sa_grants_before);
}

/// Reference step: the same reverse-pipeline order as
/// `Router::step_into_observed` — fault refresh, XB (shared real code:
/// the grant queue just executes decisions taken a cycle earlier by the
/// kernels under test), then the reference SA, VA and RC stages.
fn reference_step(r: &mut Router, cycle: Cycle, out: &mut StepOutput) {
    out.clear();
    r.stats.occ_integral += r.buffered_flits() as u64;
    r.faults.refresh_observed(cycle, r.id, &mut NullObserver);
    r.xb_stage(cycle, out, &mut NullObserver);
    reference_sa_stage(r, cycle);
    reference_va_stage(r, cycle);
    reference_rc_stage(r, cycle);
}

// ---------------------------------------------------------------------
// The differential property test
// ---------------------------------------------------------------------

/// Deterministic split-mix style generator (no external crates).
pub(crate) struct Rng(pub(crate) u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let x = self.0;
        (x ^ (x >> 31)).wrapping_mul(0x9E3779B97F4A7C15) >> 16
    }

    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// Per-(port, vc) upstream feeding state.
#[derive(Clone, Default)]
struct Feed {
    /// Flits of the current packet not yet sent (0 = between packets).
    queue: Vec<noc_types::Flit>,
    /// Free downstream (router-side) buffer slots, as flow control sees
    /// them.
    credits: usize,
}

fn random_fault_site(rng: &mut Rng, p: usize, v: usize) -> FaultSite {
    let port = PortId(rng.below(p as u64) as u8);
    let vc = VcId(rng.below(v as u64) as u8);
    match rng.below(9) {
        0 => FaultSite::RcPrimary { port },
        1 => FaultSite::RcDuplicate { port },
        2 => FaultSite::Va1ArbiterSet { port, vc },
        3 => FaultSite::Va2Arbiter {
            out_port: port,
            out_vc: vc,
        },
        4 => FaultSite::Sa1Arbiter { port },
        5 => FaultSite::Sa1Bypass { port },
        6 => FaultSite::Sa2Arbiter { out_port: port },
        7 => FaultSite::XbMux { out_port: port },
        _ => FaultSite::XbSecondary { out_port: port },
    }
}

/// A fault schedule, applied identically to both routers.
#[derive(Default)]
struct Schedule {
    /// Route adaptively over the mesh, with its up*/down* escape mesh.
    adaptive: bool,
    detection: Option<DetectionModel>,
    permanents: Vec<(FaultSite, Cycle)>,
    /// `(site, start, duration)`.
    transients: Vec<(FaultSite, Cycle, u32)>,
}

const CYCLES: Cycle = 192;
const INJECT_UNTIL: Cycle = 150;

/// Drive a real router and a reference-stepped clone with one identical
/// random fault schedule and compare them cycle by cycle.
fn run_differential(kind: RouterKind, cfg: RouterConfig, seed: u64) {
    run_differential_routed(kind, cfg, seed, false);
}

/// [`run_differential`], under adaptive routing when `adaptive`.
fn run_differential_routed(kind: RouterKind, cfg: RouterConfig, seed: u64, adaptive: bool) {
    let mut rng = Rng(seed.wrapping_mul(2654435761).wrapping_add(99991));

    // Fault schedule: a handful of random permanent faults (and one
    // transient) manifesting while traffic flows; half the seeds use
    // delayed detection so latent windows overlap the traffic.
    let mut schedule = Schedule {
        adaptive,
        detection: rng
            .chance(60)
            .then(|| DetectionModel::Delayed(rng.below(12) as u32 + 1)),
        ..Schedule::default()
    };
    for _ in 0..rng.below(4) {
        let site = random_fault_site(&mut rng, cfg.ports, cfg.vcs);
        schedule.permanents.push((site, rng.below(INJECT_UNTIL)));
    }
    if rng.chance(50) {
        let site = random_fault_site(&mut rng, cfg.ports, cfg.vcs);
        schedule
            .transients
            .push((site, rng.below(INJECT_UNTIL), rng.below(20) as u32 + 1));
    }

    // Guaranteed Shield-mechanism coverage on protected routers: a VA1
    // arbiter-set fault (forces lending) and an SA1 arbiter fault
    // (forces the bypass default winner and its re-pointing transfer).
    if kind == RouterKind::Protected {
        schedule.permanents.push((
            FaultSite::Va1ArbiterSet {
                port: PortId(rng.below(cfg.ports as u64) as u8),
                vc: VcId(rng.below(cfg.vcs as u64) as u8),
            },
            rng.below(40),
        ));
        schedule.permanents.push((
            FaultSite::Sa1Arbiter {
                port: PortId(rng.below(cfg.ports as u64) as u8),
            },
            rng.below(40),
        ));
    }
    drive(kind, cfg, rng, &schedule, &format!("seed {seed}"));
}

/// Drive a real router and a reference-stepped clone under `schedule`
/// with identical random traffic from `rng`, comparing outputs and
/// snapshots every cycle. Returns the real router, for checks that a
/// directed schedule exercised what it was written for.
fn drive(
    kind: RouterKind,
    cfg: RouterConfig,
    mut rng: Rng,
    schedule: &Schedule,
    label: &str,
) -> Router {
    let here = Coord::new(1, 1); // interior of a 4x4 mesh: all five ports live
    let mesh = || std::sync::Arc::new(Topology::mesh(4, 4));
    let route = || match schedule.adaptive {
        true => {
            RoutingAlgorithm::adaptive(mesh(), std::sync::Arc::new(Topology::escape_mesh(4, 4)))
        }
        false => RoutingAlgorithm::topo(mesh()),
    };
    let ideal = DetectionModel::Ideal;
    let mut real = Router::new(7, here, cfg, kind, route(), ideal);
    let mut reference = Router::new(7, here, cfg, kind, route(), ideal);
    for r in [&mut real, &mut reference] {
        if let Some(d) = schedule.detection {
            r.set_detection(d);
        }
        for &(site, at) in &schedule.permanents {
            r.inject_fault(site, at);
        }
        for &(site, at, dur) in &schedule.transients {
            r.inject_transient(site, at, dur);
        }
    }

    let mut feeds: Vec<Feed> = vec![
        Feed {
            queue: Vec::new(),
            credits: cfg.buffer_depth,
        };
        cfg.ports * cfg.vcs
    ];
    // Credits travelling back from the (simulated) downstream consumers:
    // (arrival cycle, output port, downstream vc).
    let mut pending_credits: Vec<(Cycle, PortId, VcId)> = Vec::new();
    let mut next_packet = 0u64;

    let mut out_real = StepOutput::default();
    let mut out_ref = StepOutput::default();

    for cycle in 0..CYCLES {
        // Upstream feeding: per input port, at most one flit per cycle
        // (one link), respecting per-VC flow-control credits. The
        // schedule depends only on the RNG and the feed state — never on
        // router internals — so both routers see identical inputs.
        if cycle < INJECT_UNTIL {
            for port in 0..cfg.ports {
                if !rng.chance(65) {
                    continue;
                }
                let vc = rng.below(cfg.vcs as u64) as usize;
                let feed = &mut feeds[port * cfg.vcs + vc];
                if feed.queue.is_empty() && rng.chance(70) {
                    let pkt_kind = if rng.chance(50) {
                        PacketKind::Control
                    } else {
                        PacketKind::Data
                    };
                    let dst = Coord::new(rng.below(4) as u8, rng.below(4) as u8);
                    next_packet += 1;
                    let pkt = Packet::new(PacketId(next_packet), pkt_kind, here, dst, cycle);
                    feed.queue = pkt.segment();
                    feed.queue.reverse(); // pop() sends in order
                }
                let feed = &mut feeds[port * cfg.vcs + vc];
                if feed.credits > 0 {
                    if let Some(flit) = feed.queue.pop() {
                        feed.credits -= 1;
                        let (p_id, v_id) = (PortId(port as u8), VcId(vc as u8));
                        real.receive_flit(p_id, v_id, flit);
                        reference.receive_flit(p_id, v_id, flit);
                    }
                }
            }
        }

        // Downstream credit returns scheduled earlier.
        pending_credits.retain(|&(due, out_port, out_vc)| {
            if due == cycle {
                real.receive_credit(out_port, out_vc);
                reference.receive_credit(out_port, out_vc);
                false
            } else {
                true
            }
        });

        real.step_into_observed(cycle, &mut out_real, &mut NullObserver);
        reference_step(&mut reference, cycle, &mut out_ref);

        assert_eq!(
            out_real.departures, out_ref.departures,
            "departures diverged (kind {kind:?}, {label}, cycle {cycle})"
        );
        assert_eq!(
            out_real.credits, out_ref.credits,
            "credit returns diverged (kind {kind:?}, {label}, cycle {cycle})"
        );
        assert_eq!(
            out_real.dropped, out_ref.dropped,
            "drops diverged (kind {kind:?}, {label}, cycle {cycle})"
        );
        assert_eq!(
            real.snapshot().render(),
            reference.snapshot().render(),
            "router state diverged (kind {kind:?}, {label}, cycle {cycle})"
        );

        // Feed the outputs back as the network would: upstream credit
        // returns free feeder slots immediately; each departed flit is
        // consumed downstream and its credit travels back a little later.
        for c in &out_real.credits {
            feeds[c.in_port.index() * cfg.vcs + c.vc.index()].credits += 1;
        }
        for d in &out_real.departures {
            let delay = rng.below(3) + 1;
            pending_credits.push((cycle + delay, d.out_port, d.out_vc));
        }
        // Dropped flits (baseline crossbar faults) are simply lost.
    }
    real
}

#[test]
fn bitmask_kernels_match_reference_baseline() {
    for seed in 0..6 {
        run_differential(RouterKind::Baseline, RouterConfig::paper(), seed);
    }
}

#[test]
fn bitmask_kernels_match_reference_protected() {
    // The protected router is where fault state reaches the kernels as
    // mask algebra (lender search, VA2 exclusion, blocked-port words,
    // the SA2 target table): more seeds than the baseline gets.
    for seed in 0..40 {
        run_differential(RouterKind::Protected, RouterConfig::paper(), seed);
    }
}

/// Run one directed schedule over several traffic seeds, under ideal
/// and under delayed detection.
fn drive_directed(
    kind: RouterKind,
    label: &str,
    permanents: Vec<(FaultSite, Cycle)>,
    transients: Vec<(FaultSite, Cycle, u32)>,
    mut check: impl FnMut(&Router),
) {
    for detection in [None, Some(DetectionModel::Delayed(5))] {
        let schedule = Schedule {
            detection,
            permanents: permanents.clone(),
            transients: transients.clone(),
            ..Schedule::default()
        };
        for seed in 0..6 {
            let label = format!("{label}, {detection:?}, seed {seed}");
            let router = drive(
                kind,
                RouterConfig::paper(),
                Rng(seed * 31 + 5),
                &schedule,
                &label,
            );
            check(&router);
        }
    }
}

#[test]
fn directed_all_but_one_va1_set_faulty_queues_borrowers_on_one_lender() {
    // Port 0 keeps one healthy arbiter set, port 2 likewise but losing
    // the others one by one while traffic flows: every other VC must
    // borrow from the same lender, one per cycle (borrow-wait).
    let va1 = |port, vc, at| {
        (
            FaultSite::Va1ArbiterSet {
                port: PortId(port),
                vc: VcId(vc),
            },
            at,
        )
    };
    let permanents = vec![
        va1(0, 0, 0),
        va1(0, 1, 0),
        va1(0, 3, 0),
        va1(2, 1, 20),
        va1(2, 2, 45),
        va1(2, 3, 70),
    ];
    let (mut borrows, mut waits) = (0, 0);
    drive_directed(
        RouterKind::Protected,
        "one lender",
        permanents,
        vec![],
        |r| {
            borrows += r.stats().va_borrows;
            waits += r.stats().va_borrow_waits;
        },
    );
    assert!(borrows > 0 && waits > 0, "{borrows} borrows, {waits} waits");
}

#[test]
fn directed_transients_open_and_close_mid_packet() {
    // Short upsets on one component of every stage, back to back, so
    // windows open and close while packets are in the affected stage.
    let mut transients = Vec::new();
    for (i, at) in (10..INJECT_UNTIL).step_by(9).enumerate() {
        let port = PortId((i % 5) as u8);
        let site = match i % 4 {
            0 => FaultSite::RcPrimary { port },
            1 => FaultSite::Va1ArbiterSet {
                port,
                vc: VcId((i % 4) as u8),
            },
            2 => FaultSite::Sa1Arbiter { port },
            _ => FaultSite::XbMux { out_port: port },
        };
        transients.push((site, at, 3 + (i % 6) as u32));
    }
    let mut mechanisms = 0;
    drive_directed(
        RouterKind::Protected,
        "transients",
        vec![],
        transients,
        |r| {
            let s = r.stats();
            mechanisms +=
                s.rc_duplicate_uses + s.va_borrows + s.sa_bypass_grants + s.secondary_path_flits;
        },
    );
    assert!(mechanisms > 0, "no upset met a packet");
}

#[test]
fn directed_dead_ports_and_unreachable_outputs_block_without_diverging() {
    // SA1 arbiter and bypass of the west input both dead: that port can
    // never win switch allocation again. Primary mux of output 2 dead
    // together with its secondary source (mux 1): output 2 unreachable.
    let west = noc_types::Direction::West.port();
    let permanents = vec![
        (FaultSite::Sa1Arbiter { port: west }, 30),
        (FaultSite::Sa1Bypass { port: west }, 60),
        (
            FaultSite::XbMux {
                out_port: PortId(2),
            },
            40,
        ),
        (
            FaultSite::XbMux {
                out_port: PortId(1),
            },
            80,
        ),
    ];
    drive_directed(RouterKind::Protected, "blocked", permanents, vec![], |r| {
        assert!(r.is_failed(), "the schedule exceeds the router's tolerance");
        assert!(r.buffered_flits() > 0, "blocked flits stay buffered");
    });
}

#[test]
fn directed_mux_faults_land_between_sa_grant_and_xb_traversal() {
    // A crossbar mux upset every few cycles on every output in turn:
    // some manifest in the cycle between a grant and its traversal,
    // which the protected router must cancel (and the baseline drops).
    let transients: Vec<_> = (12..INJECT_UNTIL)
        .step_by(5)
        .enumerate()
        .map(|(i, at)| {
            (
                FaultSite::XbMux {
                    out_port: PortId((i % 5) as u8),
                },
                at,
                2,
            )
        })
        .collect();
    let mut dropped = 0;
    drive_directed(
        RouterKind::Baseline,
        "mux upsets",
        vec![],
        transients.clone(),
        |r| {
            dropped += r.stats().flits_dropped;
        },
    );
    assert!(dropped > 0, "no upset met a granted traversal");
    drive_directed(
        RouterKind::Protected,
        "mux upsets",
        vec![],
        transients,
        |r| {
            assert_eq!(r.stats().flits_dropped, 0);
        },
    );
}

#[test]
fn bitmask_kernels_match_reference_odd_configs() {
    // Non-power-of-two VC counts and a shallow buffer keep the rotate
    // wrap paths and credit-exhaustion paths hot.
    let cfg = RouterConfig {
        ports: 5,
        vcs: 3,
        buffer_depth: 2,
        flit_width_bits: 32,
    };
    for seed in 100..104 {
        run_differential(RouterKind::Baseline, cfg, seed);
        run_differential(RouterKind::Protected, cfg, seed);
    }
    let cfg = RouterConfig {
        ports: 5,
        vcs: 6,
        buffer_depth: 1,
        flit_width_bits: 32,
    };
    for seed in 200..204 {
        run_differential(RouterKind::Protected, cfg, seed);
    }
}

#[test]
fn bitmask_kernels_match_reference_across_depths_and_the_widest_router() {
    // The flit store's rings at depth 1 (every push fills the ring), a
    // non-power-of-two depth that wraps unevenly, and a deep one.
    for buffer_depth in [1, 2, 3, 8] {
        let cfg = RouterConfig {
            buffer_depth,
            ..RouterConfig::paper()
        };
        for seed in 300..303 {
            run_differential(RouterKind::Baseline, cfg, seed);
            run_differential(RouterKind::Protected, cfg, seed);
        }
    }
    // P·V = 32: the top VC's bit is the state words' sign bit.
    let cfg = RouterConfig {
        ports: 8,
        vcs: 4,
        buffer_depth: 3,
        flit_width_bits: 32,
    };
    for seed in 400..404 {
        run_differential(RouterKind::Baseline, cfg, seed);
        run_differential(RouterKind::Protected, cfg, seed);
    }
}

#[test]
fn bitmask_kernels_match_reference_under_adaptive_routing() {
    // Adaptive RC serves the `routing | vc_alloc` word — a VC waiting in
    // VcAlloc is re-routed, alternating towards the escape class — and
    // VA keeps a packet that can take an adaptive-class VC off the
    // escape VCs.
    for seed in 500..508 {
        run_differential_routed(RouterKind::Baseline, RouterConfig::paper(), seed, true);
        run_differential_routed(RouterKind::Protected, RouterConfig::paper(), seed, true);
    }
}

#[test]
fn bitmask_kernels_match_reference_at_the_word_edges() {
    // 32 ports of one VC: each port's field of a state word is one bit,
    // the last is the sign bit, and a walk's field clear shifts by 31.
    // 16 ports of two VCs: the same word cut into two-bit fields.
    for (ports, vcs) in [(32, 1), (16, 2)] {
        let cfg = RouterConfig {
            ports,
            vcs,
            buffer_depth: 2,
            flit_width_bits: 32,
        };
        for seed in 600..604 {
            run_differential(RouterKind::Baseline, cfg, seed);
            run_differential(RouterKind::Protected, cfg, seed);
        }
    }
    let cfg = RouterConfig {
        ports: 16,
        vcs: 2,
        buffer_depth: 3,
        flit_width_bits: 32,
    };
    for seed in 610..613 {
        run_differential_routed(RouterKind::Protected, cfg, seed, true);
    }
}

#[test]
fn rotate_and_ffs_matches_straight_line_scan() {
    // The kernel in isolation, on a bare pointer byte (as the VA stages
    // hold it) and inside `RoundRobinArbiter` (as the SA stages hold
    // it): random widths, pointers and request words — every grant and
    // pointer step must match the straight-line scan, including
    // full-width rotations and garbage bits above the width (which the
    // kernel must mask off).
    let mut rng = Rng(0xA5A5_5A5A);
    for _ in 0..2000 {
        let width = rng.below(32) as usize + 1;
        let start = rng.below(width as u64) as u8;
        let mut kernel = start;
        let mut arbiter = RoundRobinArbiter::new(width);
        arbiter.set_pointer(usize::from(start));
        let mut reference = start;
        for _ in 0..8 {
            let requests = rng.next() as u32;
            let expected = reference_arbitrate(&mut reference, width, requests);
            let context = format!("width {width}, requests {requests:#x}");
            assert_eq!(
                noc_arbiter::round_robin(requests, &mut kernel, width),
                expected,
                "{context}"
            );
            assert_eq!(
                noc_arbiter::Arbiter::arbitrate(&mut arbiter, requests),
                expected,
                "{context}"
            );
            assert_eq!(kernel, reference);
            assert_eq!(arbiter.pointer(), usize::from(reference));
        }
    }
}

#[test]
fn unused_local_port_feed_is_inert() {
    // Sanity for the harness itself: a run with zero injection leaves
    // both routers in their freshly-built state.
    let cfg = RouterConfig::paper();
    let mesh = Mesh::new(4);
    let mut real = Router::new_xy(3, Coord::new(2, 2), mesh, cfg, RouterKind::Protected);
    let mut reference = Router::new_xy(3, Coord::new(2, 2), mesh, cfg, RouterKind::Protected);
    let mut out_real = StepOutput::default();
    let mut out_ref = StepOutput::default();
    for cycle in 0..32 {
        real.step_into_observed(cycle, &mut out_real, &mut NullObserver);
        reference_step(&mut reference, cycle, &mut out_ref);
        assert!(out_real.departures.is_empty() && out_ref.departures.is_empty());
        assert_eq!(real.snapshot().render(), reference.snapshot().render());
    }
}
