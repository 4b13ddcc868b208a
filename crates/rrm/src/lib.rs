//! The RRM benchmark suite of the paper (Section II-C) and synthetic
//! radio-resource-management task environments.
//!
//! The suite consists of ten neural networks drawn from the recent RRM
//! literature; the paper evaluates every optimization level on all of
//! them (Table I aggregates the whole suite, Fig. 3 shows per-network
//! speedups). The exact topologies live in the project report \[34\],
//! which is not redistributable — [`suite`] reconstructs representative
//! configurations from the cited source papers, preserving the
//! properties the evaluation depends on (see `DESIGN.md`).
//!
//! Weights are synthetic but deterministic (seeded per network): cycle
//! counts depend only on topology, and the bit-exactness harness needs
//! *some* concrete values to verify against the golden models.
//!
//! The [`env`](mod@env) module provides small deterministic RRM task simulators
//! (downlink power control, multichannel spectrum access) that the
//! examples use to drive the networks with realistic feature streams.
//! Their decision loops get compile-once / run-many inference from
//! [`EngineCache`] (one warm [`rnnasip_core::Engine`] per network and
//! optimization level), the core crate's engine cache re-exported here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod env;
mod nets;
pub mod traffic;
mod weights;

pub use nets::{suite, BenchmarkNet, NetKind};
pub use rnnasip_core::{CacheEngine, EngineCache};
pub use weights::{seeded_fc_layer, seeded_input, seeded_sequence};
