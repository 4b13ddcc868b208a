//! Execution tracing.

use crate::machine::Machine;
use crate::SimError;
use rnnasip_isa::Instr;

/// One retired instruction as seen by a trace callback.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEntry {
    /// Address of the instruction.
    pub pc: u32,
    /// The instruction itself.
    pub instr: Instr,
    /// Cycle counter *after* retiring it.
    pub cycle: u64,
    /// Retired-instruction counter *after* retiring it.
    pub instret: u64,
}

impl Machine {
    /// Runs until halt, invoking `on_retire` after every retired
    /// instruction — the standard way to produce an execution trace or
    /// feed a custom profiler.
    ///
    /// Tracing drives the stepping loop of [`Machine::run_stepping`],
    /// not the fast tiers: hardware-loop bodies that [`Machine::run`]
    /// would execute through the specialized block runner retire here one
    /// instruction at a time, so the callback observes every iteration.
    /// Cycle counts, instret and statistics are bit-identical either way
    /// (see `traced_run_matches_untraced_uop_run`).
    ///
    /// # Errors
    ///
    /// Same as [`Machine::run`].
    ///
    /// # Example
    ///
    /// ```
    /// use rnnasip_isa::{AluImmOp, Instr, Reg};
    /// use rnnasip_sim::{Machine, Program};
    ///
    /// let prog = Program::from_instrs(0, [
    ///     Instr::OpImm { op: AluImmOp::Addi, rd: Reg::A0, rs1: Reg::ZERO, imm: 1 },
    ///     Instr::Ecall,
    /// ]);
    /// let mut m = Machine::new(64);
    /// m.load_program(&prog);
    /// let mut lines = Vec::new();
    /// m.run_with_trace(1_000, |e| lines.push(format!("{:#06x}: {}", e.pc, e.instr)))?;
    /// assert_eq!(lines.len(), 2);
    /// assert!(lines[0].contains("addi"));
    /// # Ok::<(), rnnasip_sim::SimError>(())
    /// ```
    pub fn run_with_trace<F>(
        &mut self,
        max_cycles: u64,
        mut on_retire: F,
    ) -> Result<crate::ExitReason, SimError>
    where
        F: FnMut(&TraceEntry),
    {
        self.run_stepping_with(max_cycles, |m, pc| {
            on_retire(&TraceEntry {
                pc,
                instr: m
                    .fetch_instr(pc)
                    .expect("a retired pc holds an instruction"),
                cycle: m.core().cycle,
                instret: m.core().instret,
            });
        })
    }

    /// Runs until halt and returns the whole disassembled trace as text
    /// (one line per retired instruction) — convenient for debugging
    /// generated kernels and for golden-trace tests.
    ///
    /// # Errors
    ///
    /// Same as [`Machine::run`].
    pub fn run_to_trace_text(&mut self, max_cycles: u64) -> Result<String, SimError> {
        let mut out = String::new();
        self.run_with_trace(max_cycles, |e| {
            out.push_str(&format!("{:>8} {:#010x}  {}\n", e.cycle, e.pc, e.instr));
        })?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Program;
    use rnnasip_isa::{AluImmOp, LoopIdx, Reg};

    fn addi(rd: Reg, rs1: Reg, imm: i32) -> Instr {
        Instr::OpImm {
            op: AluImmOp::Addi,
            rd,
            rs1,
            imm,
        }
    }

    #[test]
    fn trace_sees_loop_iterations() {
        let prog = Program::from_instrs(
            0,
            vec![
                addi(Reg::A0, Reg::ZERO, 3),
                Instr::LpSetup {
                    l: LoopIdx::L0,
                    rs1: Reg::A0,
                    uimm: 4,
                },
                addi(Reg::A1, Reg::A1, 1),
                Instr::Ecall,
            ],
        );
        let mut m = Machine::new(64);
        m.load_program(&prog);
        let mut body_count = 0;
        m.run_with_trace(1000, |e| {
            if e.pc == 8 {
                body_count += 1;
            }
        })
        .unwrap();
        assert_eq!(body_count, 3, "hardware loop body retires three times");
    }

    /// A trace forces per-step execution; `Machine::run` executes the
    /// same hardware loops through the specialized bulk runner. The two
    /// must agree on every architectural counter and statistics row.
    #[test]
    fn traced_run_matches_untraced_uop_run() {
        use rnnasip_isa::{DotOp, LoadOp, SimdSize};
        // A loop body heavy enough to specialize: post-inc load, dot
        // product, mac — 64 iterations dominated by the bulk runner.
        let instrs = vec![
            addi(Reg::A1, Reg::ZERO, 256),
            addi(Reg::A0, Reg::ZERO, 64),
            Instr::LpSetup {
                l: LoopIdx::L0,
                rs1: Reg::A0,
                uimm: 8,
            },
            Instr::LoadPostInc {
                op: LoadOp::Lw,
                rd: Reg::A2,
                rs1: Reg::A1,
                offset: 4,
            },
            Instr::PvDot {
                op: DotOp::SdotSp,
                size: SimdSize::Half,
                rd: Reg::A4,
                rs1: Reg::A2,
                rs2: Reg::A2,
            },
            Instr::Mac {
                rd: Reg::A5,
                rs1: Reg::A2,
                rs2: Reg::A4,
            },
            Instr::Ecall,
        ];
        let prog = Program::from_instrs(0, instrs);

        let mut traced = Machine::new(2048);
        traced.load_program(&prog);
        let mut retired = 0u64;
        let exit_traced = traced.run_with_trace(100_000, |_| retired += 1).unwrap();

        let mut plain = Machine::new(2048);
        plain.load_program(&prog);
        let exit_plain = plain.run(100_000).unwrap();

        assert_eq!(exit_traced, exit_plain);
        assert_eq!(retired, traced.core().instret);
        assert_eq!(traced.core().cycle, plain.core().cycle);
        assert_eq!(traced.core().instret, plain.core().instret);
        for r in Reg::all() {
            assert_eq!(traced.core().reg(r), plain.core().reg(r));
        }
        let rows_t: Vec<_> = traced.stats().iter().collect();
        let rows_p: Vec<_> = plain.stats().iter().collect();
        assert_eq!(rows_t, rows_p);
        assert_eq!(traced.stats().stall_cycles(), plain.stats().stall_cycles());
        assert_eq!(traced.stats().mac_ops(), plain.stats().mac_ops());
    }

    #[test]
    fn trace_text_is_ordered_and_complete() {
        let prog = Program::from_instrs(0, vec![addi(Reg::A0, Reg::ZERO, 7), Instr::Ecall]);
        let mut m = Machine::new(64);
        m.load_program(&prog);
        let text = m.run_to_trace_text(100).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("addi a0, zero, 7"));
        assert!(lines[1].contains("ecall"));
    }
}
