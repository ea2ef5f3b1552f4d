//! # noc-service
//!
//! The campaign service: long simulation campaigns as **resumable
//! jobs** behind a std-only HTTP daemon (ARCHITECTURE.md §5).
//!
//! The layers, each usable on its own:
//!
//! * [`spec::CampaignSpec`] — the JSON job description and its
//!   translation into `Simulator`/`TrafficGenerator` configuration;
//! * [`scheduler::Scheduler`] — a bounded job queue drained by worker
//!   threads, with every job spooled to disk (spec, periodic
//!   checkpoints, the append-only [`stream::JsonlStream`] delivery
//!   stream, final result) so a killed process recovers on the next
//!   start without losing or changing any result;
//! * [`http`] / [`client`] — a hand-rolled HTTP/1.1 server for the
//!   `noc-serviced` binary, and the matching client used by the CLI
//!   and the tests. `GET /jobs/:id/result` streams partial results
//!   (202 + deliveries-so-far, copied from the spool a piece at a time
//!   as a [`body::Body`]) while a job is still running, and
//!   `GET /jobs/:id/progress` serves the live per-router heatmap and
//!   load-imbalance series from the job's last durable checkpoint;
//! * [`daemon`] — the flags, banner and foreground serve call that
//!   `noc-serviced` and `noc-cli serve` share;
//! * [`obs`] — structured JSONL logs with request/job correlation
//!   ids, per-endpoint HTTP metrics behind `GET /metrics`, and the
//!   Prometheus text-format validator the tests pin `/metrics` with.
//!
//! The whole crate rides on one invariant, pinned by the
//! resume-determinism tests in `noc-sim`: a campaign resumed from a
//! checkpoint produces a **byte-identical** report to the
//! uninterrupted run. Crash recovery is therefore semantically
//! invisible — it only costs wall-clock time.
//!
//! No external dependencies: TCP, threads, files and the project's own
//! JSON live entirely in `std` and the workspace.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod body;
pub mod client;
pub mod daemon;
mod fsio;
pub mod http;
pub mod obs;
pub mod scheduler;
pub mod spec;
pub mod stream;

pub use body::Body;
pub use obs::{validate_prometheus_text, HttpMetrics, ObsLog};
pub use scheduler::{JobPhase, Scheduler, ServiceConfig, SubmitError};
pub use spec::CampaignSpec;
pub use stream::JsonlStream;
