//! # noc-bench
//!
//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation from the models in this workspace.
//!
//! One binary, `noc-bench <experiment|all|list>`; every experiment is
//! one function registered once in [`registry::EXPERIMENTS`]. Run
//! `noc-bench list` for the artefact → experiment table. The flags
//! (`--quick`, `--threads`, `--topology`, `--trace`, `--sample-every`)
//! are parsed once, by [`registry::parse`], into the [`Options`] every
//! experiment receives.
//!
//! Wall-clock performance is not measured here: the perf ledger under
//! `benchmark/` is the only source of performance numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analytic;
mod campaigns;
pub mod experiments;
pub mod export;
pub mod harness;
pub mod registry;
mod sweeps;
pub mod tables;

pub use experiments::{FigureConfig, FigureResult, FigureRow};
pub use export::{figure_csv, write_csv};
pub use harness::{run_simulation, run_simulation_with, ExperimentScale, Options, TopologyArg};
pub use tables::Table;
