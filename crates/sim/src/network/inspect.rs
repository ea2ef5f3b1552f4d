//! Inspection of a network between cycles: the deadlock flight record,
//! the credit-conservation audit, event totals, link utilisation and
//! the spatial views — all read-only, and all pure functions of
//! cycle-boundary state, so deterministic across thread counts.

use super::wheel::Wire;
use super::Network;
use noc_telemetry::spatial::RAMP;
use noc_telemetry::{
    FlightRecord, RouterDump, RouterStats, SpatialGrid, VcDump, WaitEdge, WaitForGraph, WaitNode,
    WaitReason,
};
use noc_types::{Cycle, Direction, PortId, VcGlobalState, VcId};

impl Network {
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
                    // Only the RC-legal downstream VCs can unblock a
                    // `VcAlloc` VC; a free-but-illegal one (e.g. an escape
                    // VC the adaptive class may not claim here) must not
                    // hide the wait.
                    let (out, waits, reason) = match (state, route, out_vc) {
                        (VcGlobalState::Active, Some(out), Some(ov)) if r.credit(out, ov) == 0 => {
                            (out, vec![ov.0], WaitReason::CreditStarved)
                        }
                        (VcGlobalState::VcAlloc, Some(out), _) => {
                            let legal: Vec<u8> = (0..v as u8)
                                .filter(|ov| ch.fields.vmask & (1 << ov) != 0)
                                .collect();
                            let busy = legal.iter().all(|&ov| r.out_vc_busy(out, VcId(ov)));
                            (
                                out,
                                if busy { legal } else { Vec::new() },
                                WaitReason::VcAllocBusy,
                            )
                        }
                        _ => continue,
                    };
                    // Downstream of the local port is the NI, which
                    // always drains — never part of a circular wait.
                    // Missing links (grid edge, cut) have no downstream
                    // buffer either, so they never carry a wait edge.
                    if out == Direction::Local.port() {
                        continue;
                    }
                    let Some(l) = self.links.target(id, out) else {
                        continue;
                    };
                    for vc in waits {
                        let (router, port) = (l.down as u16, l.in_port.0);
                        let to = WaitNode { router, port, vc };
                        graph.edges.push(WaitEdge { from, to, reason });
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

    /// Every router's event counters, summed across the mesh.
    pub fn router_event_totals(&self) -> RouterStats {
        self.routers.iter().map(|r| *r.stats()).sum()
    }

    /// Flits sent by `router` through each of its five output ports.
    pub fn link_flits(&self, router: usize) -> [u64; 5] {
        self.links.flits(router)
    }

    /// Per-router total output utilisation (flits per cycle, all ports),
    /// the basis for congestion heatmaps.
    pub fn utilisation(&self) -> Vec<f64> {
        let cycles = self.cycles_stepped.max(1) as f64;
        self.links
            .rows()
            .iter()
            .map(|row| row.iter().map(|l| l.flits).sum::<u64>() as f64 / cycles)
            .collect()
    }

    /// Render the per-router utilisation as a text heatmap
    /// (one character per router: `.` idle → `#` busiest).
    pub fn utilisation_heatmap(&self) -> String {
        let util = self.utilisation();
        let max = util.iter().cloned().fold(0.0_f64, f64::max).max(1e-12);
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
        SpatialGrid {
            width: self.mesh.w as usize,
            height: self.mesh.h as usize,
            chiplet_k: self.cfg.topology.chiplet_k().map(usize::from),
            cells: self.routers.iter().map(|r| *r.stats()).collect(),
        }
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
                        match self.links.target(id, out_port) {
                            Some(l) => (
                                flits_in_flight[at(l.down as usize, l.in_port, vc)] as usize,
                                credits_in_flight[at(id, out_port, vc)] as usize,
                                self.routers[l.down as usize].vc(l.in_port, vc).occupancy(),
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
