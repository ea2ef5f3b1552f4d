//! # shield-noc
//!
//! Umbrella crate for the Rust reproduction of Poluri & Louri,
//! *“An Improved Router Design for Reliable On-Chip Networks”*
//! (IEEE IPDPS 2014) — a fault-tolerant virtual-channel NoC router
//! (later known as **Shield**) together with the cycle-accurate mesh
//! simulator, traffic models and reliability analyses needed to
//! regenerate every table and figure of the paper.
//!
//! This crate simply re-exports the workspace members under stable
//! names; see the individual crates for the actual APIs:
//!
//! * [`types`] — flits, packets, VC state, mesh geometry, configuration.
//! * [`arbiter`] — arbiters and separable allocators.
//! * [`faults`] — permanent-fault sites, injection schedules, detection.
//! * [`router`] — the paper's contribution: baseline + protected router.
//! * [`sim`] — cycle-accurate k×k mesh simulator and statistics.
//! * [`traffic`] — synthetic patterns and SPLASH-2/PARSEC app models.
//! * [`reliability`] — FIT/MTTF/SPF, area, power and critical-path models.
//! * [`telemetry`] — zero-cost-when-off event tracing, epoch sampling
//!   and the deadlock flight recorder.
//! * [`bench`](mod@bench) — the experiment harness behind every table and figure.
//! * [`campaign`] — mass fault-injection campaigns: thousands of seeded
//!   link-fault scenarios per configuration, classified and aggregated
//!   into faults-to-failure curves (static vs adaptive routing).
//! * [`service`] — resumable campaign jobs behind the `noc-serviced`
//!   HTTP daemon (also reachable as `noc-cli serve`).
//!
//! ## Quickstart
//!
//! ```
//! use shield_noc::prelude::*;
//!
//! // An 8x8 mesh of protected routers under light uniform traffic.
//! let net = NetworkConfig::paper();
//! let sim = SimConfig::smoke(42);
//! let traffic = TrafficConfig::synthetic(SyntheticPattern::UniformRandom, 0.05);
//! let report = run_simulation(&net, &sim, &traffic, RouterKind::Protected, &FaultPlan::none());
//! assert!(report.delivered() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use noc_arbiter as arbiter;
pub use noc_bench as bench;
pub use noc_campaign as campaign;
pub use noc_faults as faults;
pub use noc_reliability as reliability;
pub use noc_service as service;
pub use noc_sim as sim;
pub use noc_telemetry as telemetry;
pub use noc_topology as topology;
pub use noc_traffic as traffic;
pub use noc_types as types;
pub use shield_router as router;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use noc_bench::harness::run_simulation;
    pub use noc_faults::FaultPlan;
    pub use noc_sim::{NetworkReport, Simulator};
    pub use noc_traffic::{SyntheticPattern, TrafficConfig};
    pub use noc_types::{Coord, Direction, Mesh, NetworkConfig, RouterConfig, SimConfig};
    pub use shield_router::RouterKind;
}
