//! Fault healing: scheduled link faults, the two quarantine paths
//! ([`Network::fail_link`], [`Network::fail_router`]) that swap healed
//! routing tables into every router, and the scrub that settles the
//! wheel and the credit ledgers around a dead link.

use super::wheel::Wire;
use super::Network;
use noc_faults::LinkFaultEvent;
use noc_topology::Topology;
use noc_types::{Cycle, Direction, PortId, VcId};
use std::sync::Arc;

impl Network {
    /// Schedule link faults on this network, replacing any still
    /// pending. Each event fails its link at the boundary before its
    /// cycle is stepped, in the canonical `(cycle, router, dir)` order
    /// whatever order `events` lists them in — the order
    /// [`noc_faults::FaultPlan::with_link_faults`] keeps, so scheduling a plan's
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

    /// Declare a router dead at the routing level: record the kill in
    /// the network's topology ([`Topology::with_dead`]), the one record
    /// of which routers and links are alive, and swap it into every
    /// router.
    ///
    /// * Under up\*/down\* tables (cut mesh, chiplet star) the tables
    ///   are recomputed with the node quarantined as a transit node.
    ///   Routes already computed (VCs past RC) keep their old output
    ///   port. The orientation is shared across the swap, so the
    ///   dependency graphs of the old and the new routes together stay
    ///   acyclic (pinned by `noc-topology`'s property suite). A packet
    ///   in flight at the swap that descended under the old tables may
    ///   still have to climb under the new ones; that transient turn is
    ///   outside the pinned union.
    /// * In adaptive mode on a dimension-order topology the kill clears
    ///   the node's alive bit, so the neighbours stop offering it as an
    ///   adaptive candidate ([`Topology::live_mask`]), and the escape
    ///   tables quarantine it the same way. The node's own links and
    ///   table entries survive so its buffered flits drain — the drain
    ///   contract of `Topology::with_dead`, whose alive-pair tables a
    ///   test pins equal to the incident-link fold of `with_cut_link`.
    ///
    /// The dead router's pipeline keeps running: it drains its buffered
    /// flits and still accepts packets addressed *to* it; it is only
    /// removed as a transit node.
    ///
    /// # Panics
    /// Panics on a statically routed dimension-order topology (mesh,
    /// torus, chiplet mesh: it cannot detour; use a `CutMesh` spec —
    /// possibly with zero cuts — to make a mesh survivable), or if the
    /// kill disconnects alive routers.
    pub fn fail_router(&mut self, node: usize) {
        assert!(
            self.escape.is_some() || !self.topo.supports_adaptive(),
            "a statically routed {} cannot detour around a dead router \
             (build a table-routed one, e.g. a zero-cut CutMesh spec)",
            self.topo.tag()
        );
        let escape = self.escape.as_ref().map(|esc| esc.with_dead(node));
        self.swap_tables(self.topo.with_dead(node), escape);
    }

    /// Permanently fail the bidirectional link out of `node` through
    /// `dir`, at a cycle boundary. Two layers share one quarantine
    /// path with [`Network::fail_router`]:
    ///
    /// * **routing-level self-healing** — the cut is recorded in the
    ///   network's topology ([`Topology::with_cut_link`]) and swapped
    ///   into every router. Statically routed irregular topologies
    ///   recompute their up\*/down\* tables around it; a cut the fixed
    ///   orientation cannot survive keeps the old topology — flits
    ///   whose route crosses the dead link then fall off it, which the
    ///   campaign engine counts as packet loss rather than failing the
    ///   build. Dimension-order routes never read the link table, so on
    ///   a grid family the cut only changes the live links adaptive
    ///   routing offers ([`Topology::live_mask`]); statically routed
    ///   there, the fault is purely physical. In adaptive mode a grid
    ///   link's cut also recomputes the shared escape tables the same
    ///   way (wrap links lie outside the escape graph).
    /// * **the physical unplug** — both directions of the link are nulled,
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
        // Physical unplug, both directions; the ledgers are settled below.
        let Some(other) = self.links.unplug(node, dir) else {
            return; // grid edge, or already failed
        };
        let back = dir.opposite();
        // Routing-level self-healing (the path `fail_router` shares).
        let escape = self
            .escape
            .as_ref()
            .and_then(|esc| esc.with_cut_link(node, dir).ok());
        if let Ok(healed) = self.topo.with_cut_link(node, dir) {
            self.swap_tables(healed, escape);
        }
        self.scrub_dead_link(node, dir.port(), other, back.port());
        self.scrub_dead_link(other, back.port(), node, dir.port());
    }

    /// Swap a healed topology, and healed escape tables where given,
    /// into the network and every router.
    fn swap_tables(&mut self, topo: Topology, escape: Option<Topology>) {
        self.topo = Arc::new(topo);
        if let Some(esc) = escape {
            self.escape = Some(Arc::new(esc));
        }
        for r in &mut self.routers {
            r.set_tables(&self.topo, self.escape.as_ref());
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
    pub(super) fn apply_due_link_faults(&mut self, cycle: Cycle) {
        while let Some(f) = self.pending_link_faults.pop_if(|f| f.cycle <= cycle) {
            self.fail_link(f.router.index(), f.dir);
        }
    }
}
