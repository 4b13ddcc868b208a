//! Cycle-approximate instruction-set simulator for the RNN-extended
//! RISC-V core of the RNNASIP reproduction.
//!
//! The simulated machine models the paper's extended RI5CY
//! micro-architecture at the level its evaluation depends on:
//!
//! * single-issue, in-order execution with a **1 cycle / instruction**
//!   base cost,
//! * **+1 cycle** for taken branches and jumps (matching the `bltu` and
//!   `jal` rows of Table I),
//! * a **load-use stall** of one cycle when the instruction immediately
//!   after a load consumes the loaded register — attributed to the *load's*
//!   statistics row, which is how Table I reports `lw!` at 2 432 kcycles
//!   for 1 621 k instructions and how the `pl.sdotsp` bubble of Table II
//!   appears,
//! * **zero-overhead hardware loops** (two nesting levels),
//! * the RNN extension: `pl.sdotsp.h.0/1` with the two special-purpose
//!   registers and their two-instruction visibility latency, and the
//!   single-cycle `pl.tanh` / `pl.sig` unit (shared with the golden models
//!   through [`rnnasip_fixed::pla`]),
//! * a single-cycle, contention-free TCDM data memory.
//!
//! Per-mnemonic instruction and cycle statistics ([`Stats`]) are collected
//! for every run; they are the raw material for the paper's Table I and
//! Fig. 3 reproductions.
//!
//! # Example
//!
//! ```
//! use rnnasip_isa::{AluImmOp, Instr, Reg};
//! use rnnasip_sim::{Machine, Program};
//!
//! // addi a0, zero, 5 ; addi a0, a0, 37 ; ecall
//! let prog = Program::from_instrs(0x0, [
//!     Instr::OpImm { op: AluImmOp::Addi, rd: Reg::A0, rs1: Reg::ZERO, imm: 5 },
//!     Instr::OpImm { op: AluImmOp::Addi, rd: Reg::A0, rs1: Reg::A0, imm: 37 },
//!     Instr::Ecall,
//! ]);
//! let mut m = Machine::new(64 * 1024);
//! m.load_program(&prog);
//! let exit = m.run(1_000)?;
//! assert_eq!(exit, rnnasip_sim::ExitReason::Ecall);
//! assert_eq!(m.core().reg(Reg::A0), 42);
//! # Ok::<(), rnnasip_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod core_state;
mod error;
mod fault;
mod guard;
mod machine;
mod mem;
mod program;
mod shortcut;
mod stats;
mod trace;
mod uop;

pub use cluster::{Cluster, ClusterKernel, ClusterPhase, ClusterProgram, DmaXfer, TcdmConfig};
pub use core_state::{Core, HwLoop};
pub use error::{ExitReason, SimError};
pub use fault::{Fault, FaultEffect, FaultPlan, FaultRecord, FaultSite, ParseFaultError};
pub use guard::{GuardReport, GuardSpec, RegionGuard};
pub use machine::{Machine, StepOutcome};
pub use mem::{MemImage, Memory};
pub use program::{ProgItem, Program};
pub use shortcut::{
    CellUpdate, Dot, KernelRegion, Matvec, RegionKind, RegionMath, ShortcutAct, ShortcutPtr,
    VerifyBreakdown, VerifyCost,
};
pub use stats::{Row, Stats};
pub use trace::TraceEntry;
pub use uop::UopProgram;
