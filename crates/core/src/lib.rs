//! # shield-router
//!
//! The paper's primary contribution: a cycle-accurate model of a
//! virtual-channel NoC router whose four-stage control pipeline
//! (RC → VA → SA → XB) tolerates multiple permanent faults
//! (Poluri & Louri, IPDPS 2014).
//!
//! Two router variants share one implementation, selected by
//! [`RouterKind`]:
//!
//! * **Baseline** — the generic router of Section II. Permanent faults
//!   manifest destructively: a faulty RC unit *misroutes* head flits, a
//!   faulty arbiter never grants (blocking its requestors), and a faulty
//!   crossbar multiplexer silently *drops* the flits switched through it.
//! * **Protected** — the proposed router of Section V. Each stage gains
//!   the paper's correction mechanism: duplicate RC units, VA-arbiter
//!   borrowing between the VCs of an input port (`R2`/`VF`/`ID` fields),
//!   an SA bypass path with a rotating default winner (the paper's
//!   VC-to-VC flit transfer is realised as a one-cycle re-pointing of the
//!   default-winner register — see DESIGN.md §6.1), and a crossbar
//!   secondary path (`SP`/`FSP` fields) that also covers second-stage SA
//!   arbiter faults.
//!
//! The model is *flit-accurate and cycle-accurate*: one [`Router::step`]
//! call advances one clock edge, stages execute in reverse pipeline order
//! so a flit moves through at most one stage per cycle, and the minimal
//! head-flit latency through the router is exactly four cycles.
//!
//! ```
//! use noc_types::{Coord, Mesh, NetworkConfig, Packet, PacketId, PacketKind};
//! use shield_router::{Router, RouterKind};
//!
//! let cfg = NetworkConfig::paper().router;
//! let mesh = Mesh::new(8);
//! let here = Coord::new(3, 3);
//! let mut router = Router::new_xy(0, here, mesh, cfg, RouterKind::Protected);
//!
//! // Inject a packet arriving on the local port, VC 0.
//! let pkt = Packet::new(PacketId(1), PacketKind::Control, here, Coord::new(5, 3), 0);
//! for flit in pkt.segment() {
//!     router.receive_flit(noc_types::Direction::Local.port(), noc_types::VcId(0), flit);
//! }
//! // Four cycles later the flit leaves eastwards.
//! let mut out = None;
//! for cycle in 0..8 {
//!     let step = router.step(cycle);
//!     if let Some(d) = step.departures.into_iter().next() {
//!         out = Some(d);
//!         break;
//!     }
//! }
//! assert_eq!(out.unwrap().out_port, noc_types::Direction::East.port());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crossbar;
pub mod fault_state;
pub mod port;
#[cfg(test)]
mod reference;
pub mod router;
pub mod snapshot;
mod stages;

pub use crossbar::{Crossbar, XbPath};
pub use fault_state::FaultState;
pub use port::VcView;
pub use router::{
    CreditReturn, Departure, Router, RouterKind, RouterStats, RoutingAlgorithm, StepOutput,
};
