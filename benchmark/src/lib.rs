//! The perf ledger of shield-noc, std only.
//!
//! `ledger --workload W --seed S --seconds N --trace 0|1` is one
//! benchmark run ([`run`]); `ledger run` makes a set of them ([`set`])
//! and `ledger compare` judges two sets ([`compare`]). With `--trace 0`
//! the real `noc-cli` and `noc-serviced` binaries are built, driven and
//! timed from outside ([`workloads`], [`daemon`]); with `--trace 1` the
//! `trace/` package re-runs the workload in process with [`spans`]
//! around each layer. See `README.md` beside this package.

pub mod checks;
pub mod child;
pub mod compare;
pub mod daemon;
pub mod digest;
pub mod host;
pub mod http;
pub mod json;
pub mod programs;
pub mod run;
pub mod set;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod workloads;
