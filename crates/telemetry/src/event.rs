//! The structured event vocabulary emitted by instrumented routers.
//!
//! Every variant of [`EventKind`] that mirrors a counter is emitted at
//! exactly the point where that [`RouterStats`] counter increments (or,
//! for flit movement, where the flit crosses the boundary). So with a
//! lossless ring the [`RouterStats::MECHANISMS`] view of a trace's
//! [`EventCounts::stats`] equals the run report's `router_events`, the
//! same view of the routers' counters summed: that invariant is what
//! the telemetry CI leg checks.

use crate::stats::RouterStats;
use noc_faults::FaultSite;
use noc_types::Cycle;

/// One structured telemetry event.
///
/// `Copy` and fixed-size by design: events are stored in preallocated
/// ring buffers and constructing one must never touch the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Simulation cycle the event occurred on.
    pub cycle: Cycle,
    /// Router the event occurred in (row-major mesh id).
    pub router: u16,
    /// What happened.
    pub kind: EventKind,
}

/// What happened, with the mechanism-specific payload.
///
/// Port/VC fields are raw `u8` rather than `PortId`/`VcId` so the whole
/// event stays `Copy + Eq` without pulling id newtypes through every
/// exporter; the JSON exporters re-label them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Routing computation finished for the head flit of `(port, vc)`.
    /// `duplicate` is set when the protected router served the request
    /// from the duplicate RC unit (paper §V-A); pairs with
    /// `rc_duplicate_uses`.
    RcComplete {
        /// Input port of the VC that was routed.
        port: u8,
        /// VC that was routed.
        vc: u8,
        /// Output port the route selected.
        out_port: u8,
        /// Served by the duplicate RC unit.
        duplicate: bool,
    },
    /// A baseline router with a faulty RC unit deliberately misrouted
    /// `(port, vc)`; pairs with `rc_misroutes`.
    RcMisroute {
        /// Input port of the misrouted VC.
        port: u8,
        /// Misrouted VC.
        vc: u8,
        /// The (wrong) output port assigned.
        out_port: u8,
    },
    /// Stage-2 VA granted `(port, vc)` the downstream VC
    /// `(out_port, out_vc)`; pairs with `va_grants`.
    VaGrant {
        /// Input port of the winning VC.
        port: u8,
        /// Winning VC.
        vc: u8,
        /// Output port of the allocated downstream VC.
        out_port: u8,
        /// Allocated downstream VC.
        out_vc: u8,
    },
    /// `(port, vc)` has a faulty VA1 arbiter set and borrowed the
    /// stage-1 arbiter owned by `lender_vc` (paper §V-B1); pairs with
    /// `va_borrows`.
    VaBorrow {
        /// Input port of the borrowing VC.
        port: u8,
        /// Borrowing VC.
        vc: u8,
        /// VC (same port) whose arbiter was borrowed.
        lender_vc: u8,
    },
    /// `(port, vc)` needed to borrow a VA1 arbiter but no lendable VC
    /// existed this cycle, so it stalled; pairs with `va_borrow_waits`.
    VaBorrowWait {
        /// Input port of the stalled VC.
        port: u8,
        /// Stalled VC.
        vc: u8,
    },
    /// Stage-2 SA granted `(port, vc)` crossbar passage to `out_port`;
    /// pairs with `sa_grants`.
    SaGrant {
        /// Input port of the winning VC.
        port: u8,
        /// Winning VC.
        vc: u8,
        /// Output port the grant traverses to.
        out_port: u8,
    },
    /// The SA stage-1 arbiter of `port` is faulty and the bypass path's
    /// default winner carried `vc` forward (paper §V-C1); pairs with
    /// `sa_bypass_grants`.
    SaBypassGrant {
        /// Input port whose SA1 arbiter is bypassed.
        port: u8,
        /// VC the default-winner register selected.
        vc: u8,
    },
    /// The bypass default-winner register re-pointed from `from_vc` to
    /// `to_vc` on `port` (the rotation that bounds the bypass penalty);
    /// pairs with `vc_transfers`.
    VcTransfer {
        /// Input port whose default winner rotated.
        port: u8,
        /// Previous default-winner VC.
        from_vc: u8,
        /// New default-winner VC.
        to_vc: u8,
    },
    /// A flit traversed the crossbar and departed the router.
    /// `secondary` is set when it left through the secondary path
    /// (paper §V-D); that case pairs with `secondary_path_flits`.
    FlitHop {
        /// Packet the flit belongs to.
        packet: u64,
        /// Flit sequence number within the packet (0 = head).
        seq: u16,
        /// Input port the flit came from.
        in_port: u8,
        /// Logical output port (link or ejection) it left through.
        out_port: u8,
        /// Left through the crossbar secondary path.
        secondary: bool,
    },
    /// A flit was dropped at the crossbar (baseline router, faulty
    /// primary mux); pairs with `flits_dropped` at router scope.
    FlitDrop {
        /// Packet the dropped flit belongs to.
        packet: u64,
        /// Dropped flit's sequence number.
        seq: u16,
        /// Output port whose mux dropped it.
        out_port: u8,
    },
    /// The network interface injected a flit into the local input port.
    FlitInject {
        /// Packet the flit belongs to.
        packet: u64,
        /// Injected flit's sequence number.
        seq: u16,
        /// Input VC the NI claimed for the packet.
        vc: u8,
    },
    /// The network interface ejected a flit at its destination.
    FlitEject {
        /// Packet the flit belongs to.
        packet: u64,
        /// Ejected flit's sequence number.
        seq: u16,
    },
    /// A planned fault became active this cycle.
    FaultActivated {
        /// Component that failed.
        site: FaultSite,
        /// Transient (self-clearing) rather than permanent.
        transient: bool,
    },
    /// The detection model reported an active fault to the router's
    /// configuration logic this cycle.
    FaultDetected {
        /// Component whose fault is now visible to reconfiguration.
        site: FaultSite,
    },
    /// A transient fault's window ended and the component recovered.
    FaultCleared {
        /// Component that recovered.
        site: FaultSite,
    },
}

impl EventKind {
    /// Stable name used by the exporters.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::RcComplete { .. } => "rc_complete",
            EventKind::RcMisroute { .. } => "rc_misroute",
            EventKind::VaGrant { .. } => "va_grant",
            EventKind::VaBorrow { .. } => "va_borrow",
            EventKind::VaBorrowWait { .. } => "va_borrow_wait",
            EventKind::SaGrant { .. } => "sa_grant",
            EventKind::SaBypassGrant { .. } => "sa_bypass_grant",
            EventKind::VcTransfer { .. } => "vc_transfer",
            EventKind::FlitHop { .. } => "flit_hop",
            EventKind::FlitDrop { .. } => "flit_drop",
            EventKind::FlitInject { .. } => "flit_inject",
            EventKind::FlitEject { .. } => "flit_eject",
            EventKind::FaultActivated { .. } => "fault_activated",
            EventKind::FaultDetected { .. } => "fault_detected",
            EventKind::FaultCleared { .. } => "fault_cleared",
        }
    }
}

/// Totals tallied from an event stream.
///
/// The events that mirror a router counter fill that counter of
/// [`EventCounts::stats`]; the rest are counted on their own. With a
/// lossless trace `stats` equals the routers' counters summed, for every
/// counter an event mirrors, which is the cross-check the telemetry
/// tests and CI leg enforce over [`RouterStats::MECHANISMS`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EventCounts {
    /// The mirrored counters: `rc_duplicate_uses` (`RcComplete` with
    /// `duplicate`), `rc_misroutes`, `va_grants`, `va_borrows`,
    /// `va_borrow_waits`, `sa_grants`, `sa_bypass_grants`,
    /// `vc_transfers`, `flits_out` (every `FlitHop`),
    /// `secondary_path_flits` (`FlitHop` with `secondary`) and
    /// `flits_dropped` (`FlitDrop`). The others stay zero.
    pub stats: RouterStats,
    /// `FlitInject` events.
    pub flit_injects: u64,
    /// `FlitEject` events.
    pub flit_ejects: u64,
    /// `FaultActivated` events.
    pub faults_activated: u64,
    /// `FaultDetected` events.
    pub faults_detected: u64,
    /// `FaultCleared` events.
    pub faults_cleared: u64,
    /// Every event, of any kind.
    pub total: u64,
}

impl EventCounts {
    /// Tally an event stream.
    pub fn tally<'a, I: IntoIterator<Item = &'a Event>>(events: I) -> Self {
        let mut c = EventCounts::default();
        for ev in events {
            c.add(ev);
        }
        c
    }

    /// Fold one event into the totals.
    pub fn add(&mut self, ev: &Event) {
        self.total += 1;
        let s = &mut self.stats;
        match ev.kind {
            EventKind::RcComplete { duplicate, .. } => s.rc_duplicate_uses += u64::from(duplicate),
            EventKind::RcMisroute { .. } => s.rc_misroutes += 1,
            EventKind::VaGrant { .. } => s.va_grants += 1,
            EventKind::VaBorrow { .. } => s.va_borrows += 1,
            EventKind::VaBorrowWait { .. } => s.va_borrow_waits += 1,
            EventKind::SaGrant { .. } => s.sa_grants += 1,
            EventKind::SaBypassGrant { .. } => s.sa_bypass_grants += 1,
            EventKind::VcTransfer { .. } => s.vc_transfers += 1,
            EventKind::FlitHop { secondary, .. } => {
                s.flits_out += 1;
                s.secondary_path_flits += u64::from(secondary);
            }
            EventKind::FlitDrop { .. } => s.flits_dropped += 1,
            EventKind::FlitInject { .. } => self.flit_injects += 1,
            EventKind::FlitEject { .. } => self.flit_ejects += 1,
            EventKind::FaultActivated { .. } => self.faults_activated += 1,
            EventKind::FaultDetected { .. } => self.faults_detected += 1,
            EventKind::FaultCleared { .. } => self.faults_cleared += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_pairs_kinds_with_mechanism_counters() {
        let evs = [
            Event {
                cycle: 1,
                router: 0,
                kind: EventKind::RcComplete {
                    port: 0,
                    vc: 0,
                    out_port: 1,
                    duplicate: true,
                },
            },
            Event {
                cycle: 1,
                router: 0,
                kind: EventKind::RcComplete {
                    port: 1,
                    vc: 0,
                    out_port: 2,
                    duplicate: false,
                },
            },
            Event {
                cycle: 2,
                router: 3,
                kind: EventKind::FlitHop {
                    packet: 7,
                    seq: 0,
                    in_port: 0,
                    out_port: 1,
                    secondary: true,
                },
            },
            Event {
                cycle: 2,
                router: 3,
                kind: EventKind::FlitHop {
                    packet: 7,
                    seq: 1,
                    in_port: 0,
                    out_port: 1,
                    secondary: false,
                },
            },
            Event {
                cycle: 3,
                router: 3,
                kind: EventKind::VcTransfer {
                    port: 2,
                    from_vc: 0,
                    to_vc: 1,
                },
            },
        ];
        let c = EventCounts::tally(&evs);
        assert_eq!(c.total, 5);
        assert_eq!(c.stats.rc_duplicate_uses, 1);
        assert_eq!(c.stats.flits_out, 2);
        assert_eq!(c.stats.secondary_path_flits, 1);
        assert_eq!(c.stats.vc_transfers, 1);
        assert_eq!(c.stats.rc_misroutes, 0);
    }
}
