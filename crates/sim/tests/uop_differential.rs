//! Randomized differential test: the pre-decoded micro-op execution path
//! (`Machine::run`) against the per-step reference interpreter
//! (`Machine::run_legacy`).
//!
//! Programs are generated from a vocabulary biased toward the features
//! where the two paths genuinely diverge in mechanism: hardware loops
//! (specializable straight-line bodies, nested loops sharing an end
//! address, bodies with control flow or CSR reads that must fall back),
//! post-increment load/store streams, `pl.sdotsp` SPR pipelines, taken
//! and untaken branches, `jalr`, serial divides, and pointer streams
//! that eventually fault mid-loop. Every seed is run under several cycle
//! budgets so the watchdog fires inside bulk loop runs too.
//!
//! After both paths run the same program on identically staged machines,
//! *everything observable* must match: the `Result`, all 32 registers,
//! PC, cycle and instret counters, hardware-loop and SPR state, every
//! per-mnemonic statistics row, and the full memory image.

use rnnasip_isa::{
    AluImmOp, AluOp, BranchOp, Csr, CsrOp, DotOp, Instr, LoadOp, LoopIdx, MulDivOp, PvAluOp, Reg,
    SimdMode, SimdSize, StoreOp,
};
use rnnasip_rng::StdRng;
use rnnasip_sim::{Fault, FaultPlan, FaultSite, Machine, Memory, Program};

/// Small memory so runaway pointer streams fault within a few hundred
/// iterations instead of never.
const MEM_BYTES: usize = 2048;

const REG_POOL: [Reg; 8] = [
    Reg::A0,
    Reg::A3,
    Reg::A4,
    Reg::T0,
    Reg::T1,
    Reg::S0,
    Reg::S1,
    Reg::ZERO,
];

/// `a1` is the load/`pl.sdotsp` pointer, `a2` the store pointer — kept
/// out of the general pool so streams stay mostly in bounds.
const PTR_LOAD: Reg = Reg::A1;
const PTR_STORE: Reg = Reg::A2;

/// A software loop's counter (or loaded condition word) and bound, out
/// of the general pool so generated bodies never touch them.
const SW_COUNT: Reg = Reg::A5;
const SW_BOUND: Reg = Reg::A6;

struct Gen {
    rng: StdRng,
}

impl Gen {
    fn u(&mut self, n: u32) -> u32 {
        self.rng.gen::<u32>() % n
    }

    fn reg(&mut self) -> Reg {
        REG_POOL[self.u(REG_POOL.len() as u32) as usize]
    }

    fn addi(&mut self, rd: Reg, rs1: Reg, imm: i32) -> Instr {
        let _ = self;
        Instr::OpImm {
            op: AluImmOp::Addi,
            rd,
            rs1,
            imm,
        }
    }

    /// One straight-line (loop-body-eligible) instruction.
    fn body_instr(&mut self) -> Instr {
        match self.u(12) {
            0 | 1 => {
                let (rd, rs1) = (self.reg(), self.reg());
                let imm = self.u(64) as i32 - 32;
                self.addi(rd, rs1, imm)
            }
            2 => Instr::Op {
                op: [AluOp::Add, AluOp::Sub, AluOp::Xor, AluOp::And][self.u(4) as usize],
                rd: self.reg(),
                rs1: self.reg(),
                rs2: self.reg(),
            },
            3 => Instr::Mac {
                rd: self.reg(),
                rs1: self.reg(),
                rs2: self.reg(),
            },
            4 => Instr::PvDot {
                op: [DotOp::SdotSp, DotOp::DotUp, DotOp::SdotUsp][self.u(3) as usize],
                size: if self.u(2) == 0 {
                    SimdSize::Half
                } else {
                    SimdSize::Byte
                },
                rd: self.reg(),
                rs1: self.reg(),
                rs2: self.reg(),
            },
            5 => Instr::PvAlu {
                op: [PvAluOp::Add, PvAluOp::Max, PvAluOp::Sra][self.u(3) as usize],
                size: SimdSize::Half,
                mode: match self.u(3) {
                    0 => SimdMode::Vv,
                    1 => SimdMode::Sc,
                    _ => SimdMode::Sci(self.u(63) as i8 - 31),
                },
                rd: self.reg(),
                rs1: self.reg(),
                rs2: self.reg(),
            },
            6 | 7 => Instr::LoadPostInc {
                op: LoadOp::Lw,
                rd: self.reg(),
                rs1: PTR_LOAD,
                offset: 4,
            },
            8 => Instr::StorePostInc {
                op: StoreOp::Sw,
                rs2: self.reg(),
                rs1: PTR_STORE,
                offset: 4,
            },
            9 => Instr::PlSdotsp {
                spr: self.u(2) as u8,
                size: SimdSize::Half,
                rd: self.reg(),
                rs1: PTR_LOAD,
                rs2: self.reg(),
            },
            10 => Instr::MulDiv {
                op: [MulDivOp::Mul, MulDivOp::Mulh, MulDivOp::Div, MulDivOp::Remu]
                    [self.u(4) as usize],
                rd: self.reg(),
                rs1: self.reg(),
                rs2: self.reg(),
            },
            _ => Instr::PlTanh {
                rd: self.reg(),
                rs1: self.reg(),
            },
        }
    }

    /// A hardware loop over a body of `body_len` generated instructions.
    fn emit_loop(&mut self, out: &mut Vec<Instr>) {
        let body_len = 1 + self.u(4);
        let nested = self.u(4) == 0;
        let poison = self.u(5) == 0; // body gets a fallback-forcing op
        if nested {
            let outer = 1 + self.u(4);
            let inner = 1 + self.u(24);
            // Outer body = inner setup + shared body; both loops end at
            // the same address (the canonical RI5CY nesting pattern).
            out.push(Instr::LpSetupi {
                l: LoopIdx::L1,
                count: outer,
                uimm: 2 + 2 * (body_len + 1),
            });
            out.push(Instr::LpSetupi {
                l: LoopIdx::L0,
                count: inner,
                uimm: 2 + 2 * body_len,
            });
        } else {
            let count = self.u(48);
            let l = if self.u(2) == 0 {
                LoopIdx::L0
            } else {
                LoopIdx::L1
            };
            if self.u(2) == 0 {
                out.push(self.addi(Reg::T2, Reg::ZERO, count as i32));
                out.push(Instr::LpSetup {
                    l,
                    rs1: Reg::T2,
                    uimm: 2 + 2 * body_len,
                });
            } else {
                out.push(Instr::LpSetupi {
                    l,
                    count,
                    uimm: 2 + 2 * body_len,
                });
            }
        }
        for k in 0..body_len {
            if poison && k == body_len / 2 {
                // A branch or CSR read in the body defeats specialization
                // at translate time; the generic path must handle the
                // loop identically.
                out.push(if self.u(2) == 0 {
                    Instr::Branch {
                        op: BranchOp::Bne,
                        rs1: Reg::ZERO,
                        rs2: Reg::ZERO,
                        offset: 8, // never taken
                    }
                } else {
                    Instr::Csr {
                        op: CsrOp::Csrrs,
                        rd: self.reg(),
                        rs1: Reg::ZERO,
                        csr: Csr::Mcycle,
                    }
                });
            } else {
                out.push(self.body_instr());
            }
        }
    }

    fn emit_chunk(&mut self, out: &mut Vec<Instr>) {
        match self.u(10) {
            0..=1 => {
                for _ in 0..=self.u(3) {
                    let i = self.body_instr();
                    out.push(i);
                }
            }
            2 => {
                // Forward branch over filler instructions.
                let skip = 1 + self.u(3);
                out.push(Instr::Branch {
                    op: [BranchOp::Beq, BranchOp::Bne, BranchOp::Blt, BranchOp::Bgeu]
                        [self.u(4) as usize],
                    rs1: self.reg(),
                    rs2: self.reg(),
                    offset: 4 * (1 + skip as i32),
                });
                for _ in 0..=skip {
                    let (rd, rs1) = (self.reg(), self.reg());
                    let i = self.addi(rd, rs1, 1);
                    out.push(i);
                }
            }
            3..=5 => self.emit_loop(out),
            6 => {
                // pl.sdotsp stream with a spacer, the paper's idiom.
                for _ in 0..2 + self.u(3) {
                    out.push(Instr::PlSdotsp {
                        spr: self.u(2) as u8,
                        size: SimdSize::Half,
                        rd: self.reg(),
                        rs1: PTR_LOAD,
                        rs2: self.reg(),
                    });
                    if self.u(2) == 0 {
                        let i = self.addi(Reg::ZERO, Reg::ZERO, 0);
                        out.push(i);
                    }
                }
            }
            7 => {
                // auipc + jalr: a register-indirect jump to a known-good
                // forward target (auipc addr + 8 or + 12).
                let skip = self.u(2); // 0 or 1 filler skipped
                out.push(Instr::Auipc {
                    rd: Reg::T2,
                    imm20: 0,
                });
                out.push(Instr::Jalr {
                    rd: Reg::RA,
                    rs1: Reg::T2,
                    offset: 8 + 4 * skip as i32,
                });
                for _ in 0..=skip {
                    let i = self.addi(Reg::ZERO, Reg::ZERO, 0);
                    out.push(i);
                }
            }
            8 => {
                // Load/store pairs through the pointer regs, with a
                // halfword variant that de-aligns the word stream.
                out.push(Instr::LoadPostInc {
                    op: if self.u(5) == 0 {
                        LoadOp::Lh
                    } else {
                        LoadOp::Lw
                    },
                    rd: self.reg(),
                    rs1: PTR_LOAD,
                    offset: if self.u(5) == 0 { 2 } else { 4 },
                });
                out.push(Instr::Store {
                    op: StoreOp::Sw,
                    rs2: self.reg(),
                    rs1: PTR_STORE,
                    offset: 4 * self.u(8) as i32,
                });
                out.push(Instr::LoadReg {
                    op: LoadOp::Lbu,
                    rd: self.reg(),
                    rs1: PTR_LOAD,
                    rs2: Reg::ZERO,
                });
            }
            _ => match self.u(5) {
                // Rarities: manual loop CSR setup, a degenerate lp.setupi
                // (start >= end -> BadHwLoop), fence, CSR reads, and a
                // backward jal (infinite loop -> watchdog).
                0 => {
                    out.push(Instr::LpCounti {
                        l: LoopIdx::L0,
                        uimm: self.u(4),
                    });
                    out.push(Instr::LpStarti {
                        l: LoopIdx::L0,
                        uimm: self.u(8),
                    });
                    out.push(Instr::LpEndi {
                        l: LoopIdx::L0,
                        uimm: self.u(8),
                    });
                    let i = self.body_instr();
                    out.push(i);
                    let i = self.body_instr();
                    out.push(i);
                }
                1 => out.push(Instr::LpSetupi {
                    l: LoopIdx::L1,
                    count: 1 + self.u(4),
                    uimm: self.u(2),
                }),
                2 => out.push(Instr::Fence),
                3 => out.push(Instr::Csr {
                    op: CsrOp::Csrrs,
                    rd: self.reg(),
                    rs1: Reg::ZERO,
                    csr: [Csr::Mcycle, Csr::Minstret, Csr::LpCount0][self.u(3) as usize],
                }),
                _ => out.push(Instr::Jal {
                    rd: Reg::ZERO,
                    offset: -8,
                }),
            },
        }
    }

    /// A software loop: a generated body closed by a backward
    /// conditional branch — counted (`addi`/`bnez`), pointer (`bltu`
    /// against an end pointer) or data-dependent (`blt`/`bge` on a loaded
    /// word) — sometimes wrapped in a hardware loop ending at the
    /// branch's fall-through (with or without the loop's setup inside),
    /// sometimes with a CSR read that defeats specialization.
    fn emit_sw_loop(&mut self, out: &mut Vec<Instr>) {
        let mut init = Vec::new();
        let mut body: Vec<Instr> = (0..1 + self.u(4)).map(|_| self.body_instr()).collect();
        if self.u(6) == 0 {
            let k = self.u(body.len() as u32) as usize;
            body.insert(
                k,
                Instr::Csr {
                    op: CsrOp::Csrrs,
                    rd: self.reg(),
                    rs1: Reg::ZERO,
                    csr: Csr::Minstret,
                },
            );
        }
        let (op, rs1, rs2) = match self.u(3) {
            0 => {
                let trips = 1 + self.u(40) as i32;
                init.push(self.addi(SW_COUNT, Reg::ZERO, trips));
                body.push(self.addi(SW_COUNT, SW_COUNT, -1));
                (BranchOp::Bne, SW_COUNT, Reg::ZERO)
            }
            1 => {
                let span = 4 * (1 + self.u(40)) as i32;
                init.push(self.addi(SW_BOUND, PTR_LOAD, span));
                body.push(self.addi(PTR_LOAD, PTR_LOAD, 4));
                (BranchOp::Bltu, PTR_LOAD, SW_BOUND)
            }
            _ => {
                // Walk the (random) memory while the loaded word passes
                // the test. Unmasked, the branch reads the load's target
                // directly and stalls on it.
                body.push(Instr::LoadPostInc {
                    op: LoadOp::Lw,
                    rd: SW_COUNT,
                    rs1: PTR_LOAD,
                    offset: 4,
                });
                if self.u(2) == 0 {
                    body.push(Instr::OpImm {
                        op: AluImmOp::Andi,
                        rd: SW_COUNT,
                        rs1: SW_COUNT,
                        imm: 7,
                    });
                }
                init.push(self.addi(SW_BOUND, Reg::ZERO, 1));
                if self.u(2) == 0 {
                    (BranchOp::Blt, Reg::ZERO, SW_COUNT)
                } else {
                    (BranchOp::Bge, SW_COUNT, SW_BOUND)
                }
            }
        };
        let offset = -4 * body.len() as i32;
        body.push(Instr::Branch {
            op,
            rs1,
            rs2,
            offset,
        });
        let wrap = self.u(4) == 0;
        if wrap && self.u(2) == 0 {
            body.splice(0..0, init.drain(..));
        }
        out.extend(init);
        if wrap {
            out.push(Instr::LpSetupi {
                l: LoopIdx::L1,
                count: 1 + self.u(4),
                uimm: 2 + 2 * body.len() as u32,
            });
        }
        out.extend(body);
    }

    fn program(&mut self) -> Program {
        self.program_with(false)
    }

    /// A random program; with `sw_loops`, a third of its chunks are
    /// software loops.
    fn program_with(&mut self, sw_loops: bool) -> Program {
        let mut v = Vec::new();
        // Pointer setup: word-aligned, usually low (streams stay in
        // bounds), sometimes near the top of memory (streams fault).
        let load_base = if self.u(4) == 0 {
            (MEM_BYTES as u32 - 64) & !3
        } else {
            4 * self.u(200)
        };
        v.push(self.addi(PTR_LOAD, Reg::ZERO, load_base as i32));
        let store_base = 4 * (100 + self.u(100)) as i32;
        v.push(self.addi(PTR_STORE, Reg::ZERO, store_base));
        // Seed a couple of pool registers with data.
        for _ in 0..3 {
            let rd = self.reg();
            let imm = self.u(4096) as i32 - 2048;
            let i = self.addi(rd, Reg::ZERO, imm);
            v.push(i);
        }
        for _ in 0..4 + self.u(6) {
            if sw_loops && self.u(3) == 0 {
                self.emit_sw_loop(&mut v);
            } else {
                self.emit_chunk(&mut v);
            }
        }
        v.push(Instr::Ecall);
        Program::from_instrs(0, v)
    }
}

/// Builds a machine with deterministically patterned memory.
fn staged_machine(prog: &Program, seed: u64) -> Machine {
    let mut mem = Memory::new(MEM_BYTES);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD1FF);
    for a in (0..MEM_BYTES as u32).step_by(4) {
        mem.write_u32(a, rng.gen::<u32>()).unwrap();
    }
    // The patterned image is the baseline; the dirty bitmap tracks the
    // program's own writes from here.
    let image = mem.image();
    mem.load_image(&image);
    let mut m = Machine::with_memory(mem);
    m.load_program(prog);
    m
}

fn assert_identical(seed: u64, max_cycles: u64, prog: &Program) {
    assert_identical_with_plan(seed, max_cycles, prog, None);
}

fn assert_identical_with_plan(
    seed: u64,
    max_cycles: u64,
    prog: &Program,
    plan: Option<&FaultPlan>,
) {
    let mut legacy = staged_machine(prog, seed);
    let mut uop = staged_machine(prog, seed);
    if let Some(plan) = plan {
        legacy.arm_faults(plan);
        uop.arm_faults(plan);
    }
    let r_legacy = legacy.run_legacy(max_cycles);
    let r_uop = uop.run(max_cycles);
    let ctx = format!("seed {seed}, budget {max_cycles}");

    assert_eq!(legacy.fault_log(), uop.fault_log(), "fault log ({ctx})");

    assert_eq!(r_legacy, r_uop, "exit ({ctx})");
    let (cl, cu) = (legacy.core(), uop.core());
    assert_eq!(cl.pc, cu.pc, "pc ({ctx})");
    assert_eq!(cl.cycle, cu.cycle, "cycle ({ctx})");
    assert_eq!(cl.instret, cu.instret, "instret ({ctx})");
    for r in Reg::all() {
        assert_eq!(cl.reg(r), cu.reg(r), "reg {r} ({ctx})");
    }
    for l in 0..2 {
        assert_eq!(cl.hwloop[l].start, cu.hwloop[l].start, "lpstart{l} ({ctx})");
        assert_eq!(cl.hwloop[l].end, cu.hwloop[l].end, "lpend{l} ({ctx})");
        assert_eq!(cl.hwloop[l].count, cu.hwloop[l].count, "lpcount{l} ({ctx})");
    }
    assert_eq!(cl.spr, cu.spr, "spr ({ctx})");

    let (sl, su) = (legacy.stats(), uop.stats());
    assert_eq!(sl.cycles(), su.cycles(), "total cycles ({ctx})");
    assert_eq!(sl.instrs(), su.instrs(), "total instrs ({ctx})");
    assert_eq!(sl.stall_cycles(), su.stall_cycles(), "stalls ({ctx})");
    assert_eq!(sl.mac_ops(), su.mac_ops(), "macs ({ctx})");
    for ((name_l, row_l), (name_u, row_u)) in sl.iter().zip(su.iter()) {
        assert_eq!(name_l, name_u, "row order ({ctx})");
        assert_eq!(row_l, row_u, "row {name_l} ({ctx})");
    }

    assert!(legacy.mem().image() == uop.mem().image(), "memory ({ctx})");
}

#[test]
fn randomized_programs_match_reference_bit_exactly() {
    let mut halts = 0u32;
    let mut errors = 0u32;
    for seed in 0..400u64 {
        let mut g = Gen {
            rng: StdRng::seed_from_u64(seed),
        };
        let prog = g.program();
        // Several budgets per program: tiny (watchdog mid-loop, often
        // mid-bulk), small, and ample (normal termination).
        for max_cycles in [60, 700, 20_000] {
            assert_identical(seed, max_cycles, &prog);
        }
        let mut probe = staged_machine(&prog, seed);
        match probe.run(20_000) {
            Ok(_) => halts += 1,
            Err(_) => errors += 1,
        }
    }
    // The generator must keep both populations healthy, or the test
    // quietly stops covering one side.
    assert!(halts >= 100, "only {halts} seeds halted cleanly");
    assert!(errors >= 40, "only {errors} seeds faulted");
}

/// A seeded fault plan aimed at a program of `prog_len` 4-byte
/// instructions based at 0: a few bit-flips across all three site kinds,
/// sometimes with a forced watchdog.
fn fault_plan(seed: u64, prog_len: usize) -> FaultPlan {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFA17);
    let mut u = move |n: u32| rng.gen::<u32>() % n;
    let mut plan = FaultPlan::new();
    for _ in 0..1 + u(3) {
        // Mostly early triggers (many generated programs retire only a
        // few dozen instructions); occasionally deep into a loop.
        let at_instret = u64::from(if u(4) == 0 { u(1500) } else { u(40) });
        let site = match u(4) {
            0 => FaultSite::MemBit {
                // Slightly past the end sometimes, exercising NoTarget.
                addr: u(MEM_BYTES as u32 + 64),
                bit: u(8),
                silent: u(4) == 0,
            },
            1 => FaultSite::RegBit {
                reg: REG_POOL[u(REG_POOL.len() as u32) as usize],
                bit: u(32),
            },
            2 => FaultSite::InstrBit {
                pc: 4 * u(prog_len as u32 + 2),
                bit: u(32),
            },
            _ => FaultSite::MemBit {
                addr: 4 * u(MEM_BYTES as u32 / 4),
                bit: u(8),
                silent: false,
            },
        };
        plan = plan.with_fault(Fault { at_instret, site });
    }
    if u(4) == 0 {
        plan = plan.with_watchdog(u64::from(200 + u(4_000)));
    }
    plan
}

/// Satellite of the fault-injection subsystem: under identical injected
/// fault plans — memory/register bit-flips, instruction corruption,
/// forced watchdogs — both execution paths must report the same error
/// variant, faulting PC, cycle count, fault log, and full machine state.
#[test]
fn fault_plans_match_reference_bit_exactly() {
    let mut applied = 0usize;
    let mut corrupted = 0usize;
    let mut errors = 0u32;
    for seed in 0..150u64 {
        let mut g = Gen {
            rng: StdRng::seed_from_u64(seed),
        };
        let prog = g.program();
        let plan = fault_plan(seed, prog.len());
        for max_cycles in [700, 20_000] {
            assert_identical_with_plan(seed, max_cycles, &prog, Some(&plan));
        }
        let mut probe = staged_machine(&prog, seed);
        probe.arm_faults(&plan);
        if probe.run(20_000).is_err() {
            errors += 1;
        }
        applied += probe.fault_log().len();
        corrupted += probe
            .fault_log()
            .iter()
            .filter(|r| {
                matches!(
                    r.effect,
                    rnnasip_sim::FaultEffect::PatchedInstr { .. }
                        | rnnasip_sim::FaultEffect::RemovedInstr { .. }
                )
            })
            .count();
    }
    // Population health: the plans must actually strike, corrupt code,
    // and produce detected crashes, or the differential stops covering
    // the interesting paths.
    assert!(applied >= 100, "only {applied} faults applied");
    assert!(corrupted >= 10, "only {corrupted} instruction corruptions");
    assert!(errors >= 20, "only {errors} seeds faulted under injection");
}

#[test]
fn specialized_loops_are_actually_exercised() {
    // Guard against the generator drifting to programs whose loops never
    // specialize — the whole point is differential coverage of the bulk
    // runner.
    let mut specialized = 0usize;
    for seed in 0..100u64 {
        let mut g = Gen {
            rng: StdRng::seed_from_u64(seed),
        };
        let prog = g.program();
        let mut m = Machine::new(MEM_BYTES);
        m.load_program(&prog);
        specialized += m.uop_program().loop_bodies();
    }
    assert!(
        specialized >= 50,
        "only {specialized} specialized loop bodies across 100 seeds"
    );
}

/// Seeds for the software-loop generator, disjoint from the others'.
const SW_SEEDS: std::ops::Range<u64> = 1000..1400;

/// `prog` with every backward branch turned into a never-taken forward
/// one: the same layout with no branch-closed loops.
fn without_backward_branches(prog: &Program) -> Program {
    Program::from_instrs(
        prog.entry(),
        prog.iter().map(|item| match item.instr {
            Instr::Branch { offset, .. } if offset < 0 => Instr::Branch {
                op: BranchOp::Bne,
                rs1: Reg::ZERO,
                rs2: Reg::ZERO,
                offset: 4,
            },
            i => i,
        }),
    )
}

#[test]
fn randomized_software_loops_match_reference_bit_exactly() {
    let mut halts = 0u32;
    let mut errors = 0u32;
    for seed in SW_SEEDS {
        let mut g = Gen {
            rng: StdRng::seed_from_u64(seed),
        };
        let prog = g.program_with(true);
        for max_cycles in [60, 700, 20_000] {
            assert_identical(seed, max_cycles, &prog);
        }
        let mut probe = staged_machine(&prog, seed);
        match probe.run(20_000) {
            Ok(_) => halts += 1,
            Err(_) => errors += 1,
        }
    }
    assert!(halts >= 100, "only {halts} seeds halted cleanly");
    assert!(errors >= 40, "only {errors} seeds faulted");
}

#[test]
fn branch_closed_loops_are_actually_exercised() {
    let mut branch_closed = 0usize;
    for seed in SW_SEEDS.take(100) {
        let mut g = Gen {
            rng: StdRng::seed_from_u64(seed),
        };
        let prog = g.program_with(true);
        let bodies = |p: &Program| {
            let mut m = Machine::new(MEM_BYTES);
            m.load_program(p);
            m.uop_program().loop_bodies()
        };
        branch_closed += bodies(&prog) - bodies(&without_backward_branches(&prog));
    }
    assert!(
        branch_closed >= 50,
        "only {branch_closed} branch-closed loop bodies across 100 seeds"
    );
}
