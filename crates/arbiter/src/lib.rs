//! # noc-arbiter
//!
//! Arbiters and separable allocators for the shield-noc router models.
//!
//! The control path of a virtual-channel router is built almost entirely
//! out of `n:1` arbiters (Figures 3a/3b of the paper): the VA unit is a
//! two-stage separable allocator over downstream VCs, and the SA unit is a
//! two-stage separable allocator over crossbar ports. This crate provides:
//!
//! * the [`Arbiter`] trait with round-robin, matrix and fixed-priority
//!   implementations,
//! * [`FaultableArbiter`], the unit of permanent-fault injection used by
//!   the protected router (a faulty arbiter produces no grants and must be
//!   routed around, exactly as in Section V of the paper),
//! * a generic two-stage [`SeparableAllocator`] with the matching
//!   invariants the paper's allocators rely on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocator;
pub mod arbiters;

pub use allocator::{RequestMatrix, SeparableAllocator};
pub use arbiters::{
    round_robin, Arbiter, ArbiterKind, FaultableArbiter, FixedPriorityArbiter, MatrixArbiter,
    RoundRobinArbiter,
};
