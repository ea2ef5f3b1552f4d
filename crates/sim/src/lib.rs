//! # noc-sim
//!
//! A cycle-accurate NoC simulator built around the
//! [`shield_router::Router`] model — the reproduction's substitute for
//! the paper's GEM5 + GARNET infrastructure (Section IX). Networks are
//! wired from a [`noc_topology::Topology`]: the paper's square mesh by
//! default, or rectangular meshes, tori and irregular cut-link graphs
//! via [`noc_types::TopologySpec`] (ARCHITECTURE.md §4).
//!
//! The simulator provides:
//!
//! * [`Network`] — routers wired by the topology with 1-cycle links,
//!   credit-based wormhole flow control and network interfaces;
//! * [`NetworkInterface`] — per-node injection queues (credit- and
//!   VC-aware) and ejection with latency bookkeeping;
//! * [`Simulator`] — warm-up / measure / drain phasing, fault-plan
//!   application and the deadlock watchdog;
//! * [`NetworkReport`] — latency distributions (mean, stddev,
//!   percentiles, log2 histogram), throughput, delivery accounting,
//!   worklist skip rate, optional epoch time series and deadlock
//!   flight record;
//! * [`WorkerPool`] — a persistent std-only thread pool shared by the
//!   sharded stepper ([`Network::set_threads`]) and the batch runner;
//! * [`batch`] — an embarrassingly-parallel batch runner for parameter
//!   sweeps on the shared pool.
//!
//! Packet sources are plain closures `FnMut(Cycle) -> Vec<Packet>`
//! invoked once per cycle. Checkpointable runs use the
//! [`PacketSource`] trait instead (implemented by
//! [`noc_traffic::TrafficGenerator`]): [`Simulator::run_resumable`]
//! emits self-describing JSON checkpoints of the live simulation
//! state — every router, NI, wire, credit and RNG stream — and a run
//! resumed from one produces a byte-identical [`NetworkReport`]
//! (ARCHITECTURE.md §5). The network keeps no delivery log: it keeps an
//! exact [`DeliveryTally`] (latency value → count maps, hop and flit
//! sums), which is all a report reads, so a run's memory does not grow
//! with its length. Delivered packets spool into an append-only
//! [`DeliveryStream`] ([`Simulator::run_streamed`]) instead of the
//! checkpoint itself, so checkpoint cost is O(live state), not
//! O(campaign length); checkpoints record a stream offset and resume
//! truncates the stream back to it, folding the kept prefix into the
//! tally. `run_streamed` hands over each
//! checkpoint as a [`Checkpoint`] — a copy of the network, the epoch
//! sampler and the source's state — so the run steps on while the
//! caller encodes the document elsewhere.
//!
//! Telemetry: [`Network::step_observed`] threads a
//! [`noc_telemetry::Observer`] per stepper shard through every router
//! step, [`Simulator::run_traced`] records a whole run into a
//! [`noc_telemetry::ShardedTracer`], and
//! [`Network::flight_record`] snapshots the blocking structure when
//! the watchdog fires. With the default
//! [`noc_telemetry::NullObserver`] all of it compiles out.

// `pool` needs two well-audited unsafe blocks to hand lifetime-erased
// task references to persistent workers, and the stepper's phase B
// (`network/shard.rs`) carves disjoint per-shard slices through raw
// pointers (see `ShardTasks`); everything else stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod delivery;
pub mod network;
pub mod ni;
pub mod pool;
pub mod simulator;
pub mod stats;
pub mod tally;

pub use batch::run_batch;
pub use delivery::{DeliveryStream, MemoryStream, NullStream};
pub use network::{IntervalProfile, Network};
pub use ni::NetworkInterface;
pub use pool::WorkerPool;
pub use simulator::{Checkpoint, CheckpointHead, PacketSource, SimOutcome, Simulator};
pub use stats::{LatencySummary, NetworkReport, LATENCY_BUCKETS};
pub use tally::{DeliveryTally, LatencyCounts};
