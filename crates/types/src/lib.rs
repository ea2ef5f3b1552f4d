//! # noc-types
//!
//! Fundamental, dependency-light types shared by every crate in the
//! `shield-noc` workspace — the Rust reproduction of Poluri & Louri,
//! *“An Improved Router Design for Reliable On-Chip Networks”* (IPDPS 2014).
//!
//! The crate deliberately contains **data** types only (plus small pure
//! helpers on them): flits and packets, identifier newtypes, rectangular
//! grid geometry with XY routing arithmetic (richer topologies — torus,
//! irregular graphs — are built on top by `noc-topology`), virtual-channel
//! state fields (including the paper's added `R2`/`VF`/`ID`/`SP`/`FSP`
//! fields), and the configuration structs consumed by the router model and
//! the network simulator, including the [`TopologySpec`] selecting which
//! network graph to simulate. Two exceptions live here because every
//! crate already depends on this one: [`args`], the flag reader the
//! binaries share, and [`rng`], the workspace's only random-number
//! generators — the bare [`splitmix64`] step and [`rng::Rng`], a seeded
//! xoshiro256** that traffic, fault plans and the Monte-Carlo estimates
//! draw from.
//!
//! Behaviour — pipelines, arbitration, fault handling — lives in
//! `shield-router`, `noc-arbiter` and `noc-sim`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod config;
pub mod flit;
pub mod geometry;
pub mod ids;
pub mod packet;
pub mod rng;
pub mod vc;

pub use config::{LinkClass, NetworkConfig, RouterConfig, RoutingMode, SimConfig, TopologySpec};
pub use flit::{Flit, FlitKind};
pub use geometry::{Coord, Direction, Mesh};
pub use ids::{FlitSeq, PacketId, PortId, RouterId, VcId};
pub use packet::{DeliveredPacket, Packet, PacketKind};
pub use rng::splitmix64;
pub use vc::{VcGlobalState, VcStateFields};

/// Simulation time, measured in router clock cycles from simulation start.
pub type Cycle = u64;
