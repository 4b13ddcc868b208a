//! The paper's contribution: RNN-optimized kernels for the extended
//! RISC-V core, at all five optimization levels of Table I.
//!
//! | Level | Table I column | What it adds |
//! |---|---|---|
//! | [`OptLevel::Baseline`] | a | straightforward RV32IMC code (accumulator spilled to memory, byte-wise pointer bumps, software PLA activations) |
//! | [`OptLevel::Xpulp`]    | b | packed-SIMD `pv.sdotsp.h`, hardware loops, post-increment loads |
//! | [`OptLevel::OfmTile`]  | c | output feature-map tiling (one input load shared by N outputs) **and** the `pl.tanh`/`pl.sig` instructions |
//! | [`OptLevel::SdotSp`]   | d | the merged load-and-compute `pl.sdotsp.h.0/1` instruction (Table II schedule) |
//! | [`OptLevel::IfmTile`]  | e | input feature-map tiling (two input pairs per loop iteration, removing the load-use bubble) |
//!
//! [`KernelBackend`] compiles a golden-model layer or [`Network`] into a
//! RISC-V program via [`rnnasip_asm`], stages weights and inputs into the
//! simulator's TCDM, runs it on [`rnnasip_sim`], and returns both the
//! outputs and the per-mnemonic cycle statistics. Every level is
//! **bit-exact** against the [`rnnasip_nn`] fixed-point golden models —
//! the property the integration tests enforce.
//!
//! [`Network`]: rnnasip_nn::Network
//!
//! # Example
//!
//! ```
//! use rnnasip_core::{KernelBackend, OptLevel};
//! use rnnasip_fixed::Q3p12;
//! use rnnasip_nn::{Act, FcLayer, Matrix};
//!
//! # fn main() -> Result<(), rnnasip_core::CoreError> {
//! let layer = FcLayer::new(
//!     Matrix::from_f64(4, 8, &vec![0.125; 32]),
//!     vec![Q3p12::from_f64(0.5); 4],
//!     Act::Relu,
//! );
//! let input = vec![Q3p12::from_f64(1.0); 8];
//!
//! let run = KernelBackend::new(OptLevel::SdotSp).run_fc(&layer, &input)?;
//! assert_eq!(run.outputs, layer.forward_fixed(&input)); // bit-exact
//! println!("{} cycles", run.report.cycles());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod compile;
mod engine;
mod error;
pub mod kernels;
mod layout;
mod optlevel;
mod partition;
mod report;
mod resilience;
mod runner;
pub mod serve;

pub use cache::{CacheEngine, EngineCache};
pub use compile::{CompileStages, CompiledNetwork, InputDesc, OutputDesc};
pub use engine::Engine;
pub use error::CoreError;
pub use kernels::fc8::Int8Kernel;
pub use layout::DataLayout;
pub use optlevel::OptLevel;
pub use partition::{Partition, StageSplit};
pub use report::{CoreReport, RunReport};
pub use resilience::{
    Attempt, RecoveryAction, ResilientEngine, RetryPolicy, RunOutcome, SdcVerdict,
};
pub use runner::{KernelBackend, Layer8Run, LayerRun, NetworkRun, DEFAULT_WATCHDOG_CYCLES};
pub use serve::{
    Arrival, BatchRequest, BatchResponse, EnginePool, Front, FrontConfig, LatencyHistogram,
    OverloadPolicy, TrafficReport,
};
// Fault-injection vocabulary, re-exported so campaign code can target an
// `Engine` without depending on `rnnasip-sim` directly.
pub use rnnasip_sim::{
    Fault, FaultEffect, FaultPlan, FaultRecord, FaultSite, GuardReport, GuardSpec, KernelRegion,
    ParseFaultError, RegionGuard, ShortcutPtr, SimError,
};

/// Locks `m`, recovering the guard from a poisoned lock: a panicked
/// holder must not wedge every other thread, and the shared maps and
/// queues stay structurally consistent across a panic boundary.
pub(crate) fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
