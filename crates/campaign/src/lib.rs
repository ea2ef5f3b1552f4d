//! # noc-campaign
//!
//! Mass fault-injection campaigns for the shield-noc reproduction.
//!
//! The paper evaluates its router against *individual* pipeline-stage
//! faults; this crate asks the network-scale question: across
//! thousands of randomized link-fault scenarios, how often does the
//! network keep delivering, and how does self-healing adaptive routing
//! ([`noc_types::RoutingMode::Adaptive`]) shift the curve against
//! static dimension-order routing?
//!
//! * [`scenario`] — deterministic seeded sampling of distinct link
//!   faults with onset cycles, keep-connected by construction, with
//!   identical fault sets replayed under every routing mode (paired
//!   comparison).
//! * [`engine`] — the sweep driver: one cell per (mode × scenario) over
//!   [`noc_sim::run_batch`], each running its fault-free baseline once
//!   and forking it at every faulted sibling's first onset; every run
//!   classified as delivered-all / degraded / lost-packets /
//!   deadlocked (with the flight-recorder wait cycle attached).
//! * [`report`] — aggregation into per-mode faults-to-failure curves
//!   ([`noc_reliability::FaultsToFailureCurve`]) and the versioned
//!   JSON report consumed by the CLI, the daemon and the bench
//!   recorder.
//!
//! Every scenario derives from `(campaign seed, fault count, scenario
//! index)` alone and each simulation is serial, so campaign results
//! are bit-identical at any `threads` setting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod report;
pub mod scenario;

pub use engine::{run_campaign, CampaignConfig, CampaignRun, Outcome, ScenarioResult};
pub use report::{
    encode_report, render_table, report_json, summarise, ModeSummary, CAMPAIGN_SCHEMA_VERSION,
};
pub use scenario::LinkPool;
