//! # noc-telemetry
//!
//! Observability for the shield-noc stack: structured event tracing,
//! time-series metrics and the deadlock flight recorder.
//!
//! The design constraint, inherited from the allocation-free hot path
//! (PR 1) and the deterministic sharded stepper (PR 2), is that
//! telemetry must cost **nothing when disabled**. The whole subsystem
//! therefore hangs off one statically-dispatched [`Observer`] trait:
//!
//! * every emission site in the router pipeline is guarded by
//!   `if O::ENABLED { obs.record(...) }` where `ENABLED` is an
//!   associated `const` — with [`NullObserver`] the branch and the
//!   event construction are compiled out entirely, so the instrumented
//!   binary is the uninstrumented binary;
//! * with tracing on, events land in preallocated fixed-capacity
//!   [`EventRing`]s (one per stepper shard) that never reallocate, so
//!   steady-state tracing stays off the heap too;
//! * [`ShardedTracer::merged`] produces a **canonical** stream — a
//!   stable sort by `(cycle, router)` — resting on the same ownership
//!   argument that makes the stepper bit-identical at every shard
//!   count: every event of a given `(cycle, router)` is recorded
//!   by the one shard that owns the router, in an order fixed by the
//!   simulation itself, so the merged stream is byte-identical for
//!   every thread count.
//!
//! On top of the event stream sit the exporters ([`export::jsonl`],
//! [`export::chrome_trace`]), the per-epoch [`TimeSeries`] sampler fed
//! by the simulator, and the [`FlightRecord`] the deadlock watchdog
//! dumps instead of a bare boolean.
//!
//! Since PR 5 this crate also hosts the [`snapshot`] layer: the
//! [`Snapshot`]/[`Restore`] traits every stateful component implements
//! so a campaign can be checkpointed and resumed bit-identically
//! (ARCHITECTURE.md §5). They live here because the one JSON writer
//! and reader ([`json`]) do.
//!
//! It also owns [`RouterStats`], the one per-router counter record,
//! whose [`stats`] table names every counter once for the router
//! snapshot, the [`SpatialGrid`] and the run report (ARCHITECTURE.md
//! §3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod flight;
pub mod json;
pub mod observer;
pub mod ring;
pub mod sampler;
pub mod snapshot;
pub mod spatial;
pub mod stats;

pub use event::{Event, EventCounts, EventKind};
pub use export::{chrome_trace, jsonl};
pub use flight::{FlightRecord, RouterDump, VcDump, WaitEdge, WaitForGraph, WaitNode, WaitReason};
pub use json::JsonValue;
pub use observer::{NullObserver, Observer};
pub use ring::{EventRing, ShardedTracer};
pub use sampler::{EpochSample, TimeSeries};
pub use snapshot::{FromSnapshot, Restore, Snapshot, SnapshotError, SNAPSHOT_SCHEMA_VERSION};
pub use spatial::SpatialGrid;
pub use stats::RouterStats;
