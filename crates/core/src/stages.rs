//! RC, VA and SA pipeline stages, including every correction mechanism
//! of Section V. (XB lives in `router.rs` next to the grant queue.)

use crate::router::{
    width_mask, Router, RouterKind, RoutingAlgorithm, XbGrant, DEFAULT_WINNER_PERIOD,
};
use noc_arbiter::{round_robin, Arbiter};
use noc_telemetry::{Event, EventKind, Observer};
use noc_topology::dor::dirs_in;
use noc_types::{Coord, Cycle, Direction, PortId, VcGlobalState, VcId};

/// One switch-allocation request, formed per active VC each cycle.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SaRequest {
    /// The link the flit must leave on.
    logical_out: PortId,
    /// The SA2 arbiter / crossbar mux to compete for (differs from
    /// `logical_out` when the secondary path is in use).
    target: PortId,
    /// The allocated downstream VC.
    out_vc: VcId,
}

/// Per-cycle working storage for the VA and SA stages. It lives in the
/// caller's [`crate::StepOutput`], not in the router, so a network holds
/// one per stepper shard rather than one per router, and a forked
/// network copies none. Every vector is sized on the first step through
/// a fresh `StepOutput` that has VA or SA work ([`StageScratch::fit`]),
/// so `Router::step_into` stays off the heap. Nothing is cleared: a
/// stage writes a slot before it reads it, under a set bit of a work
/// word it keeps on the stack.
#[derive(Debug, Default)]
pub(crate) struct StageScratch {
    /// VA stage-2 request masks, indexed `out * v + out_vc`; bit
    /// `port * v + vc` set means that input VC competes. Live where
    /// `va2_touched` has the bit.
    va_stage2: Vec<u32>,
    /// Per-output bitmask of downstream VCs picked in VA stage 1: stage
    /// 2 walks only these instead of every `(out, out_vc)` pair. Live
    /// for the outputs with a pick.
    va2_touched: Vec<u32>,
    /// SA requests, indexed `port * v + vc`. Live where `sa_port_req`
    /// has the bit.
    sa_requests: Vec<SaRequest>,
    /// Per-port bitmask of VCs with an SA request this cycle, built
    /// during request formation (saves stage 1 a per-VC rescan). Live
    /// for the ports with a request.
    sa_port_req: Vec<u32>,
    /// SA stage-1 winner VC per input port. Live for the ports in a
    /// stage-2 request mask.
    sa_port_winner: Vec<usize>,
    /// SA stage-2 request masks per target output (bit = input port).
    /// Live for the targeted outputs.
    sa_stage2: Vec<u32>,
}

impl StageScratch {
    /// Size the buffers for a `p`-port, `v`-VC router; a no-op once they
    /// are (every router of a network shares one shape).
    #[inline]
    pub(crate) fn fit(&mut self, p: usize, v: usize) {
        if self.va_stage2.len() == p * v && self.sa_port_req.len() == p {
            return;
        }
        let blank = SaRequest {
            logical_out: PortId(0),
            target: PortId(0),
            out_vc: VcId(0),
        };
        *self = StageScratch {
            va_stage2: vec![0; p * v],
            va2_touched: vec![0; p],
            sa_requests: vec![blank; p * v],
            sa_port_req: vec![0; p],
            sa_port_winner: vec![0; p],
            sa_stage2: vec![0; p],
        }
    }
}

/// The ports owning a set bit of a router-wide state word (bit
/// `port·v + vc`), ascending: take the lowest set bit, yield its port
/// `bit / v`, clear that port's whole `v`-bit field. A stage that walks
/// its work word this way visits only ports with work, in the port
/// order a full sweep would.
#[inline]
fn ports_in(mut word: u32, v: usize) -> impl Iterator<Item = usize> {
    let field = width_mask(v);
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let port = word.trailing_zeros() as usize / v;
            word &= !(field << (port * v));
            port
        })
    })
}

/// The set bits of a one-bit-per-port word, ascending.
#[inline]
fn bits_in(mut word: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            bit
        })
    })
}

/// Index of the first set bit of `mask` at or after `start`, cyclically
/// (rotate so `start` becomes bit 0, then find-first-set). `mask` must
/// be non-zero and confined to the low `width` bits; `start < width`.
#[inline]
fn first_set_from(mask: u32, start: usize, width: usize) -> usize {
    debug_assert!(mask != 0 && start < width);
    let rotated = if start == 0 {
        mask
    } else {
        // High bits of the `<<` term beyond `width` are harmless: a
        // lower, correctly rotated bit always exists since mask != 0.
        (mask >> start) | (mask << (width - start))
    };
    let first = rotated.trailing_zeros() as usize + start;
    if first >= width {
        first - width
    } else {
        first
    }
}

impl Router {
    // ------------------------------------------------------------------
    // Adaptive route computation (Duato escape protocol)
    // ------------------------------------------------------------------

    /// The adaptive RC decision for the head flit of `(port, vc)` headed
    /// to `dst`: output port plus the legal downstream-VC mask.
    ///
    /// The VC-class rules (lower half of each port's VCs = escape class,
    /// upper half = adaptive class):
    ///
    /// * an **escape-class** input VC (non-local port, lower half) is
    ///   committed to the escape network — up\*/down\* direction, escape
    ///   VCs only downstream. Escape-to-escape dependencies inherit the
    ///   up\*/down\* acyclicity, and nothing below ever requests an
    ///   adaptive VC, so the escape subgraph is deadlock-free on its own;
    /// * an **adaptive-class** input VC (upper half, and every local-port
    ///   VC — injected packets start adaptive) picks the least-congested
    ///   live minimal candidate, scored by the router's own free-VC and
    ///   credit counts. It requests adaptive VCs, plus the escape VCs of
    ///   the escape direction when the pick happens to coincide — the
    ///   one-way adaptive→escape transfer Duato's protocol allows;
    /// * a **stuck** adaptive VC (already `VcAlloc`, re-served by RC) is
    ///   re-routed every service, alternating by `(cycle + node) & 1`
    ///   between the congestion pick and the escape fallback, so a
    ///   waiting packet requests the deadlock-free escape path
    ///   infinitely often — the liveness leg of the protocol.
    ///
    /// Everything read here is fixed for the cycle: the candidate sets
    /// and live links of the shared topology and the escape tables
    /// change only at a cycle boundary's fault edge, and the credits are
    /// the router's own. So the decision is identical at any thread
    /// count.
    ///
    /// A destination unreachable even through the escape graph (severed
    /// by link faults) is aimed at the raw minimal quadrant; the dead
    /// link's nulled wiring edge-drops the flit, which the campaign
    /// engine classifies as a lost packet.
    pub(crate) fn route_adaptively(
        &self,
        dst: Coord,
        cycle: Cycle,
        port_idx: usize,
        vc_idx: usize,
        revisit: bool,
    ) -> (PortId, u32) {
        let RoutingAlgorithm::Topo {
            ref topo,
            escape: Some(ref escape),
            escape_on,
        } = self.route
        else {
            unreachable!("route_adaptively on a non-adaptive router")
        };
        let v = self.cfg.vcs;
        let all = width_mask(v);
        let lower = width_mask(v / 2);
        let upper = all & !lower;
        let grid = topo.grid();
        let (node, dstn) = (grid.id_of(self.coord).index(), grid.id_of(dst).index());
        if dstn == node {
            return (Direction::Local.port(), all);
        }
        let esc_dir = if escape_on && escape.reachable(node, dstn) {
            let (d, _) = escape.route(node, dstn);
            (d != Direction::Local).then_some(d)
        } else {
            None
        };
        if escape_on && port_idx != 0 && vc_idx < v / 2 {
            // Escape class: committed to the up*/down* network.
            return match esc_dir {
                Some(d) => (d.port(), lower),
                None => (self.quadrant_or_local(topo, node, dstn), all),
            };
        }
        let cand = topo.candidate_mask(node, dstn) & topo.live_mask(node);
        let prefer_escape = revisit && (cycle.wrapping_add(node as Cycle)) & 1 == 1;
        if cand != 0 && !(prefer_escape && esc_dir.is_some()) {
            // Least-congested live candidate: most free adaptive VCs
            // first, most buffered credit second, N/E/S/W order on ties.
            let mut best: Option<(u32, u32, Direction)> = None;
            for d in dirs_in(cand) {
                let out = d.port().index();
                let ctl = &self.ctl[out];
                let free = (!ctl.out_vc_busy & upper & ctl.credited).count_ones();
                let credit: u32 = ctl.credits[v / 2..v].iter().map(|&c| u32::from(c)).sum();
                if best.is_none_or(|(bf, bc, _)| (free, credit) > (bf, bc)) {
                    best = Some((free, credit, d));
                }
            }
            let d = best.expect("non-empty candidate set").2;
            let mut vmask = upper;
            if esc_dir == Some(d) {
                vmask |= lower;
            }
            return (d.port(), vmask);
        }
        match esc_dir {
            // Escape fallback out of the adaptive class: escape VCs
            // only, so the one-way transfer actually happens. Offering
            // adaptive VCs too would let the packet stay in the
            // adaptive class after a non-minimal hop, and a fresh
            // minimal decision at the next router could bounce it
            // straight back — a two-router ping-pong livelock the
            // watchdog never sees, because every bounce counts as
            // progress.
            Some(d) => (d.port(), lower),
            None => (
                self.quadrant_or_local(topo, node, dstn),
                if escape_on { all } else { upper },
            ),
        }
    }

    /// First raw minimal-quadrant direction towards an escape-unreachable
    /// destination (the flit edge-drops on the severed link), or `Local`
    /// if even the quadrant is empty (cannot happen on grid families).
    fn quadrant_or_local(&self, topo: &noc_topology::Topology, node: usize, dstn: usize) -> PortId {
        let raw = topo.candidate_mask(node, dstn);
        debug_assert!(raw != 0, "grid candidate set empty for distinct nodes");
        dirs_in(raw)
            .next()
            .map_or(Direction::Local.port(), |d| d.port())
    }

    // ------------------------------------------------------------------
    // RC stage (Section V-A)
    // ------------------------------------------------------------------

    /// Routing computation: one computation per input port per cycle
    /// (each port has one RC unit), served round-robin across VCs.
    ///
    /// The stage walks the ports that own a bit of its service word,
    /// ascending ([`ports_in`]); per port, the VC scan is a
    /// rotate-and-ffs over the port's bits of that word: the first VC
    /// at or after the service pointer is exactly the VC the old per-VC
    /// loop would reach (it skipped unserved VCs and broke on the first
    /// match, served or stalled).
    pub(crate) fn rc_stage<O: Observer>(&mut self, cycle: Cycle, obs: &mut O) {
        if self.routing | self.vc_alloc == 0 {
            return; // no VC awaits routing in any mode: `route` unread
        }
        let v = self.cfg.vcs;
        let adaptive = matches!(
            self.route,
            RoutingAlgorithm::Topo {
                escape: Some(_),
                ..
            }
        );
        // Adaptive RC also re-serves VCs already waiting in VcAlloc: a
        // stuck packet must be re-routed (alternating towards the escape
        // path) or the adaptive candidate cycles could wait forever.
        // Static modes route exactly once. A port's service only moves
        // its own bits, so this snapshot stays exact for later ports.
        let service_word = if adaptive {
            self.routing | self.vc_alloc
        } else {
            self.routing
        };
        if service_word == 0 {
            return; // a static router whose VCs all wait in VA
        }
        // Fault words, bit = input port. A protected port is blocked
        // while its primary-unit fault is still undetected (conservative
        // stall) or once the duplicate is dead too (failure).
        let (active, detected) = (self.faults.active(), self.faults.detected());
        let rc_faulty = active.rc_primary_word();
        let rc_blocked = rc_faulty & (!detected.rc_primary_word() | active.rc_duplicate_word());
        // Bit = output port: primary path known dead (Section V-D hint).
        let primary_dead = match self.kind {
            RouterKind::Baseline => 0,
            RouterKind::Protected => detected.xb_primary_dead_word(),
        };
        for port_idx in ports_in(service_word, v) {
            let port_id = PortId(port_idx as u8);
            let service = self.port_bits(service_word, port_idx);
            let start = usize::from(self.ctl[port_idx].rc_pointer);
            let vc_id = VcId(first_set_from(service, start, v) as u8);
            let revisit = self.port_bits(self.routing, port_idx) & (1 << vc_id.index()) == 0;
            let dst = self
                .store
                .front(port_idx * v + vc_id.index())
                .expect("routing VC holds its head flit")
                .dst;
            let (correct, vmask) = if adaptive {
                self.route_adaptively(dst, cycle, port_idx, vc_id.index(), revisit)
            } else {
                self.route.route_masked(self.coord, dst, v)
            };
            let primary_faulty = rc_faulty & (1 << port_idx) != 0;
            let mut misrouted = false;
            let mut duplicate = false;
            let computed = match (self.kind, primary_faulty) {
                (_, false) => Some(correct),
                (RouterKind::Baseline, true) => {
                    // The unprotected RC unit computes a faulty output
                    // port (Section V-A). We model a deterministic
                    // corruption: the next port, cyclically.
                    self.stats.rc_misroutes += 1;
                    misrouted = true;
                    Some(PortId(((correct.0 as usize + 1) % self.cfg.ports) as u8))
                }
                (RouterKind::Protected, true) => {
                    if rc_blocked & (1 << port_idx) != 0 {
                        None
                    } else {
                        // Switch to the duplicate unit — same result,
                        // no latency penalty (spatial redundancy).
                        self.stats.rc_duplicate_uses += 1;
                        duplicate = true;
                        Some(correct)
                    }
                }
            };
            if let Some(out) = computed {
                if O::ENABLED {
                    obs.record(Event {
                        cycle,
                        router: self.id,
                        kind: if misrouted {
                            EventKind::RcMisroute {
                                port: port_id.0,
                                vc: vc_id.0,
                                out_port: out.0,
                            }
                        } else {
                            EventKind::RcComplete {
                                port: port_id.0,
                                vc: vc_id.0,
                                out_port: out.0,
                                duplicate,
                            }
                        },
                    });
                }
                let fields = self.store.fields_mut(port_idx * v + vc_id.index());
                fields.r = Some(out);
                fields.vmask = vmask;
                fields.g = VcGlobalState::VcAlloc;
                // Pre-compute the secondary-path hint (Section V-D):
                // refreshed again at SA time in case faults manifest
                // later.
                fields.fsp = false;
                fields.sp = None;
                if primary_dead & (1 << out.index()) != 0 {
                    fields.sp = Some(self.xbar.secondary_source(out));
                    fields.fsp = true;
                }
                self.sync_vc(port_idx * v + vc_id.index());
                let next = vc_id.index() + 1;
                self.ctl[port_idx].rc_pointer = if next == v { 0 } else { next as u8 };
            }
            // One RC computation per port per cycle, served or stalled.
        }
    }

    // ------------------------------------------------------------------
    // VA stage (Section V-B)
    // ------------------------------------------------------------------

    /// Virtual-channel allocation: two separable stages with the
    /// protected router's arbiter-borrowing in stage 1 and downstream-VC
    /// exclusion for faulty stage-2 arbiters.
    ///
    /// Stage 1 walks the ports owning a bit of `vc_alloc` ([`ports_in`])
    /// and each port's `VcAlloc` bits with `trailing_zeros()` (ascending
    /// port and VC order — identical to the old per-VC scan, which
    /// skipped every VC not in `VcAlloc`), and forms each request mask
    /// from whole words of the output's [`crate::port::PortCtl`]: free
    /// downstream VCs are `!out_vc_busy`, the topology restriction is
    /// `vmask`, and known-faulty stage-2 arbiters are masked via the
    /// exclusion word `va2_ok` (Section V-B3's
    /// inherent-redundancy tolerance; kept current at fault edges). A
    /// borrower's lender is the first set bit, from the VC after its
    /// own, of the port's lendable-and-healthy-and-not-yet-lent word —
    /// the order a per-VC scan tries them in. Each pick goes straight
    /// into stage 2's request masks, and stage 2 visits only the
    /// `(out, out_vc)` pairs picked, in the same out-major /
    /// ascending-VC order as the old exhaustive sweep.
    pub(crate) fn va_stage<O: Observer>(
        &mut self,
        cycle: Cycle,
        scratch: &mut StageScratch,
        obs: &mut O,
    ) {
        // Whole-stage skip: no VC anywhere awaits allocation — common
        // for routers that are merely forwarding already-active packets.
        // With no stage-1 requests the old code performed no observable
        // work (no arbitration, no borrows, empty stage 2). The same
        // pass yields the requester count for stall accounting
        // (requesters minus this cycle's grants; the snapshot is taken
        // before stage 1, which never changes a VC's G state, so it is
        // exactly the requesting population).
        let va_requests = self.vc_alloc.count_ones();
        if va_requests == 0 {
            return;
        }
        let va_grants_before = self.stats.va_grants;
        let p = self.cfg.ports;
        let v = self.cfg.vcs;
        let all_vcs = width_mask(v);
        // Adaptive mode: a packet that can claim an adaptive-class VC
        // leaves the escape VCs for the packets that need them (the
        // escape class is the deadlock-freedom reserve, not extra
        // capacity). Zero outside adaptive mode = no restriction.
        let adaptive_upper = match self.route {
            RoutingAlgorithm::Topo {
                escape: Some(_), ..
            } => all_vcs & !width_mask(v / 2),
            _ => 0,
        };

        let (active, detected) = (self.faults.active(), self.faults.detected());

        // ---- Stage 1: each waiting VC picks one free downstream VC ----
        // A pick is entered straight into stage 2's request masks. A
        // mask slot is zeroed on its first touch of the cycle, so the
        // scratch is written before it is read and never cleared:
        // bit = output with a pick; per output, bit = picked
        // downstream VC.
        let mut outs_picked: u32 = 0;
        // Bit `port·V + vc`: the arbiter set of this VC was lent.
        let mut lent_sets: u32 = 0;
        for port_idx in ports_in(self.vc_alloc, v) {
            let port_id = PortId(port_idx as u8);
            // Stage 1 never changes a VC's G state (only stage 2 does),
            // so the mask snapshot stays valid across the walk.
            let mut pending = self.port_bits(self.vc_alloc, port_idx);
            // Bit per VC: arbiter set faulty; of those, not yet detected.
            let va1_faulty = active.va1_word(port_id);
            let va1_latent = va1_faulty & !detected.va1_word(port_id);
            // Bit per VC: a possible lender — arbiters healthy and not
            // in use, i.e. G is Idle or Active (past VA, in the SA
            // stage), matching `VcGlobalState::lendable_for_va` and
            // Section V-B1 ("not utilizing its VA arbiters").
            let lenders =
                all_vcs & !(self.port_bits(self.routing, port_idx) | pending) & !va1_faulty;
            // Bit per VC: lender already serving a borrower this cycle
            // (a lender serves one).
            let mut lent: u32 = 0;
            while pending != 0 {
                let vc_idx = pending.trailing_zeros() as usize;
                pending &= pending - 1;
                let vc_id = VcId(vc_idx as u8);
                let fields = self.store.slot(port_idx * v + vc_idx).fields;
                let out = fields.r.expect("VcAlloc implies a routed VC");

                // Whose arbiter set performs the allocation?
                let own_faulty = va1_faulty & (1 << vc_idx) != 0;
                let owner: Option<VcId> = if !own_faulty {
                    Some(vc_id)
                } else {
                    match self.kind {
                        RouterKind::Baseline => None, // blocked for good
                        RouterKind::Protected => {
                            if va1_latent & (1 << vc_idx) != 0 {
                                None // undetected: stall
                            } else {
                                // The faulty VC itself is not in
                                // `lenders`, so the search covers the
                                // other VCs only.
                                let free = lenders & !lent;
                                let lender = (free != 0)
                                    .then(|| VcId(first_set_from(free, (vc_idx + 1) % v, v) as u8));
                                if lender.is_none() {
                                    // Scenario 2: intended lenders busy in
                                    // VA — wait a cycle.
                                    self.stats.va_borrow_waits += 1;
                                    if O::ENABLED {
                                        obs.record(Event {
                                            cycle,
                                            router: self.id,
                                            kind: EventKind::VaBorrowWait {
                                                port: port_id.0,
                                                vc: vc_id.0,
                                            },
                                        });
                                    }
                                }
                                lender
                            }
                        }
                    }
                };
                let Some(owner) = owner else { continue };

                // Request mask over free downstream VCs at `out`,
                // narrowed by the topology VC-class restriction (torus
                // datelines: RC deposited the legal set in `vmask`) and
                // the known-faulty-VA2 exclusion — three word ops.
                let ctl = &self.ctl[out.index()];
                let mut req = !ctl.out_vc_busy & ctl.va2_ok & fields.vmask & all_vcs;
                if adaptive_upper != 0 && out.index() != 0 && req & adaptive_upper != 0 {
                    req &= adaptive_upper;
                }
                if req == 0 {
                    continue; // no empty VC downstream: retry later
                }
                let pointer = &mut self.va1[(port_idx * v + owner.index()) * p + out.index()];
                let pick = round_robin(req, pointer, v);
                if let Some(ovc) = pick {
                    if owner != vc_id {
                        // Borrow protocol bookkeeping (Figure 4): the
                        // borrower deposits its RC result and identity in
                        // the lender's R2/ID fields and raises VF.
                        let lender_fields = self.store.fields_mut(port_idx * v + owner.index());
                        lender_fields.r2 = Some(out);
                        lender_fields.id = Some(vc_id);
                        lender_fields.vf = true;
                        lent |= 1 << owner.index();
                        lent_sets |= 1 << (port_idx * v + owner.index());
                        self.stats.va_borrows += 1;
                        if O::ENABLED {
                            obs.record(Event {
                                cycle,
                                router: self.id,
                                kind: EventKind::VaBorrow {
                                    port: port_id.0,
                                    vc: vc_id.0,
                                    lender_vc: owner.0,
                                },
                            });
                        }
                    }
                    let o = out.index();
                    if outs_picked & (1 << o) == 0 {
                        outs_picked |= 1 << o;
                        scratch.va2_touched[o] = 0;
                    }
                    if scratch.va2_touched[o] & (1 << ovc) == 0 {
                        scratch.va2_touched[o] |= 1 << ovc;
                        scratch.va_stage2[o * v + ovc] = 0;
                    }
                    scratch.va_stage2[o * v + ovc] |= 1 << (port_idx * v + vc_idx);
                }
            }
        }

        // ---- Stage 2: per downstream VC, arbitrate among pickers ----
        for out_idx in bits_in(outs_picked) {
            // Same out-major / ascending-out_vc order as an exhaustive
            // sweep; the mask walk just skips the request-free pairs.
            let mut touched = scratch.va2_touched[out_idx];
            let va2_faulty = self.faults.active().va2_word(PortId(out_idx as u8));
            while touched != 0 {
                let ovc_idx = touched.trailing_zeros() as usize;
                touched &= touched - 1;
                let req = scratch.va_stage2[out_idx * v + ovc_idx];
                // A faulty stage-2 arbiter grants nothing: in the baseline
                // the requestors retry forever; in the protected router
                // (ideal detection) this arbiter receives no requests, and
                // during a latent window it stalls.
                if va2_faulty & (1 << ovc_idx) != 0 {
                    continue;
                }
                if let Some(winner) = round_robin(req, &mut self.va2[out_idx * v + ovc_idx], p * v)
                {
                    let fields = self.store.fields_mut(winner);
                    fields.o = Some(VcId(ovc_idx as u8));
                    fields.g = VcGlobalState::Active;
                    self.sync_vc(winner);
                    self.ctl[out_idx].out_vc_busy |= 1 << ovc_idx;
                    self.stats.va_grants += 1;
                    if O::ENABLED {
                        let (port_idx, vc_idx) = (winner / v, winner % v);
                        obs.record(Event {
                            cycle,
                            router: self.id,
                            kind: EventKind::VaGrant {
                                port: port_idx as u8,
                                vc: vc_idx as u8,
                                out_port: out_idx as u8,
                                out_vc: ovc_idx as u8,
                            },
                        });
                    }
                }
            }
        }

        // The VA unit resets the borrow fields once allocation completes
        // (Section V-B2). Borrows are re-established every cycle and only
        // ever raised on this cycle's lenders, so clearing those is
        // equivalent to sweeping every VC.
        for i in bits_in(lent_sets) {
            self.store.fields_mut(i).clear_borrow();
        }

        self.stats.va_stalls += u64::from(va_requests) - (self.stats.va_grants - va_grants_before);
    }

    // ------------------------------------------------------------------
    // SA stage (Section V-C)
    // ------------------------------------------------------------------

    /// Switch allocation: two separable stages with the protected
    /// router's bypass path (rotating default winner + VC transfer) in
    /// stage 1 and secondary-path redirection for stage 2 / XB faults.
    ///
    /// Each stage walks a word of the ports that have work, ascending —
    /// the candidates `active & nonempty`, then the ports with a formed
    /// request, then the targeted outputs — so the grants, pointers and
    /// events are a full port sweep's. A scratch slot is written before
    /// it is read, under a set bit of those words, so nothing is
    /// cleared.
    pub(crate) fn sa_stage<O: Observer>(
        &mut self,
        cycle: Cycle,
        scratch: &mut StageScratch,
        obs: &mut O,
    ) {
        // Whole-stage skip: no active VC holds a flit, so no requests
        // can form — identical to running the stage (no arbitration,
        // no SP/FSP refresh targets, no bypass action on an empty
        // request mask).
        let candidate_word = self.active & self.nonempty;
        if candidate_word == 0 {
            return;
        }
        let v = self.cfg.vcs;

        // ---- Form per-VC requests ----
        // Candidates are exactly the VCs the old per-VC scan admitted
        // (`Active` with a buffered flit). The per-port request mask is
        // accumulated here so stage 1 need not rescan the requests.
        // Bit = input port with at least one request.
        let mut req_ports: u32 = 0;
        let mut sa_requests: u32 = 0;
        for port_idx in ports_in(candidate_word, v) {
            let mut candidates = self.port_bits(candidate_word, port_idx);
            let mut req_mask: u32 = 0;
            while candidates != 0 {
                let vc_idx = candidates.trailing_zeros() as usize;
                candidates &= candidates - 1;
                let i = port_idx * v + vc_idx;
                let fields = &self.store.slot(i).fields;
                let out = fields.r.expect("active VC is routed");
                let out_vc = fields.o.expect("active VC holds a downstream VC");
                let ctl = &self.ctl[out.index()];
                let (target, credited) = (ctl.sa2_target, ctl.credited);
                // Refresh the SP/FSP observability fields before any
                // skip: a VC stalled on credits, or blocked on an
                // unreachable output, must still report its current
                // secondary-path status rather than last cycle's.
                {
                    let fields = self.store.fields_mut(i);
                    let diverted = target.is_some_and(|t| t != out);
                    fields.fsp = diverted;
                    fields.sp = if diverted { target } else { None };
                }
                let Some(target) = target else {
                    continue; // output unreachable: blocked
                };
                if credited & (1 << out_vc.index()) == 0 {
                    continue; // no downstream space
                }
                scratch.sa_requests[i] = SaRequest {
                    logical_out: out,
                    target,
                    out_vc,
                };
                req_mask |= 1 << vc_idx;
            }
            if req_mask != 0 {
                scratch.sa_port_req[port_idx] = req_mask;
                req_ports |= 1 << port_idx;
                sa_requests += req_mask.count_ones();
            }
        }

        // Stall accounting: formed requests (routed, credited VCs) minus
        // this cycle's stage-2 grants.
        let sa_grants_before = self.stats.sa_grants;

        // ---- Stage 1: per input port, pick one VC ----
        // Fault words, bit = port. A protected port is blocked while its
        // arbiter fault is still undetected (stall) or once the bypass
        // is dead too (failure).
        let (active, detected) = (self.faults.active(), self.faults.detected());
        let sa1_faulty = active.sa1_word();
        let sa1_blocked = sa1_faulty & (!detected.sa1_word() | active.sa1_bypass_word());
        let sa2_faulty = active.sa2_word();
        // Bit = output whose stage-2 arbiter has a request; its mask is
        // zeroed on the first request of the cycle.
        let mut targeted: u32 = 0;
        for port_idx in bits_in(req_ports) {
            let req_mask = scratch.sa_port_req[port_idx];
            let winner = if sa1_faulty & (1 << port_idx) == 0 {
                self.ctl[port_idx].sa1.arbitrate(req_mask)
            } else {
                match self.kind {
                    RouterKind::Baseline => None, // arbiter dead: port blocked
                    RouterKind::Protected if sa1_blocked & (1 << port_idx) != 0 => None,
                    RouterKind::Protected => self.sa_bypass(cycle, port_idx, req_mask, obs),
                }
            };
            let Some(vc) = winner else { continue };
            scratch.sa_port_winner[port_idx] = vc;
            let t = scratch.sa_requests[port_idx * v + vc].target.index();
            if targeted & (1 << t) == 0 {
                targeted |= 1 << t;
                scratch.sa_stage2[t] = 0;
            }
            scratch.sa_stage2[t] |= 1 << port_idx;
        }

        // ---- Stage 2: per target output, pick one input port ----
        // A faulty stage-2 arbiter grants nothing. Protected VCs never
        // target a known-faulty arbiter (`sa2_target` redirects them);
        // during a latent window, or in the baseline, they stall here.
        for target_idx in bits_in(targeted & !sa2_faulty) {
            let mask = scratch.sa_stage2[target_idx];
            if let Some(wport) = self.ctl[target_idx].sa2.arbitrate(mask) {
                let vc_idx = scratch.sa_port_winner[wport];
                let req = scratch.sa_requests[wport * v + vc_idx];
                // Reserve the downstream buffer slot now; XB sends next
                // cycle.
                self.consume_credit(req.logical_out, req.out_vc);
                self.xb_queue.push(XbGrant {
                    in_port: PortId(wport as u8),
                    in_vc: VcId(vc_idx as u8),
                    logical_out: req.logical_out,
                    mux: req.target,
                    out_vc: req.out_vc,
                });
                self.stats.sa_grants += 1;
                if O::ENABLED {
                    obs.record(Event {
                        cycle,
                        router: self.id,
                        kind: EventKind::SaGrant {
                            port: wport as u8,
                            vc: vc_idx as u8,
                            out_port: req.logical_out.0,
                        },
                    });
                }
            }
        }

        self.stats.sa_stalls += u64::from(sa_requests) - (self.stats.sa_grants - sa_grants_before);
    }

    /// SA stage 1 of a protected port whose arbiter is known dead: the
    /// bypass path, whose default winner is chosen without arbitration
    /// (Section V-C1). The register rotates through the VCs (avoiding
    /// the static-default starvation the paper warns about); when the
    /// current default is not requesting, the register is re-pointed at
    /// a requesting VC, costing the same one cycle the paper charges its
    /// flit transfer. (The paper physically moves the flits into the
    /// default VC; re-pointing the register has identical latency and
    /// fault semantics while remaining compatible with credit flow
    /// control for still-arriving packets — see DESIGN.md.)
    fn sa_bypass<O: Observer>(
        &mut self,
        cycle: Cycle,
        port_idx: usize,
        req_mask: u32,
        obs: &mut O,
    ) -> Option<usize> {
        let period = cycle / DEFAULT_WINNER_PERIOD;
        let rotation_default = (period as usize + port_idx) % self.cfg.vcs;
        let ctl = &mut self.ctl[port_idx];
        let effective = match ctl.bypass_vc {
            Some(vc) if ctl.bypass_period == period => usize::from(vc),
            _ => rotation_default,
        };
        if req_mask & (1 << effective) != 0 {
            self.stats.sa_bypass_grants += 1;
            if O::ENABLED {
                obs.record(Event {
                    cycle,
                    router: self.id,
                    kind: EventKind::SaBypassGrant {
                        port: port_idx as u8,
                        vc: effective as u8,
                    },
                });
            }
            return Some(effective);
        }
        // Re-point the register at the first requesting VC; no grant
        // this cycle. (`req_mask != 0`: the port has a request.)
        let src = req_mask.trailing_zeros() as usize;
        (ctl.bypass_vc, ctl.bypass_period) = (Some(src as u8), period);
        self.stats.vc_transfers += 1;
        if O::ENABLED {
            obs.record(Event {
                cycle,
                router: self.id,
                kind: EventKind::VcTransfer {
                    port: port_idx as u8,
                    from_vc: effective as u8,
                    to_vc: src as u8,
                },
            });
        }
        None
    }
}
