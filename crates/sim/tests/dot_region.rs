//! The level-a dot-product shortcut region on hand-built bodies.
//!
//! Each body is the level-a per-output code: reset the input cursor
//! (`x` a constant or loaded from a pointer cell) and its end bound,
//! seed the spill word with the bias word, then the branch-closed MAC
//! loop `lh; lh; lw spill; addi; mac; sw spill; addi; bltu` — followed by
//! a trailing load of the last input whose consumer sits just past the
//! region, so the exit state includes a pending load. An outer software loop enters the
//! region once per output, with the weight, bias and spill cursors live
//! in registers. A body with its region installed must leave exactly the
//! state of a translate-only machine and of the stepping loop:
//! registers, memory, cycles, instret, per-mnemonic rows and the
//! load-use stall of that pending load.
//!
//! Mutated bodies, whose spill traffic or accumulation no longer is the
//! descriptor's dot product, must fail verification; valid bodies must
//! decline at run time whenever the machine state forbids a native entry,
//! and then raise exactly what the interpreted path raises.

use rnnasip_isa::{AluImmOp, BranchOp, Instr, LoadOp, Reg, StoreOp};
use rnnasip_rng::StdRng;
use rnnasip_sim::{
    Dot, ExitReason, Fault, FaultPlan, FaultSite, KernelRegion, Machine, Memory, Program,
    RegionMath, ShortcutPtr, SimError, UopProgram,
};
use std::sync::Arc;

const CODE: u32 = 0x1000;
/// Weight rows (`OUTPUTS × n_in` halfwords).
const W: u32 = 0x100;
/// Input vector.
const X: u32 = 0x500;
/// Pre-shifted bias words.
const BIAS: u32 = 0x600;
/// The spill word.
const SPILL: u32 = 0x700;
/// Pointer cell for bodies that load their `x` base.
const XCELL: u32 = 0x7F0;
/// Word read as the loop bound of [`Mutation::LoadedBound`].
const BOUND: u32 = 0x7F8;
/// Outputs per run: region entries.
const OUTPUTS: u32 = 3;

const XP: Reg = Reg::A0;
const BP: Reg = Reg::A2;
const WP: Reg = Reg::A3;
const X0: Reg = Reg::T0;
const X1: Reg = Reg::T1;
const ACC: Reg = Reg::T3;
const OUT_CNT: Reg = Reg::T4;
const SPILLP: Reg = Reg::T5;
const XEND: Reg = Reg::T6;

/// A deliberate deviation from the emitted per-output code.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mutation {
    None,
    /// The loop reads the word after the spill word.
    OtherSpill,
    /// The spill word is read before the bias seed is stored to it.
    ReadBeforeSeed,
    /// `p.msu` for `p.mac`.
    Msu,
    /// The partial sum is stored twice per MAC.
    ExtraStore,
    /// The loop bound is loaded from memory, not derived from `x`.
    LoadedBound,
}

fn li(rd: Reg, imm: u32) -> Instr {
    Instr::OpImm {
        op: AluImmOp::Addi,
        rd,
        rs1: Reg::ZERO,
        imm: imm as i32,
    }
}

fn addi(rd: Reg, rs1: Reg, imm: i32) -> Instr {
    Instr::OpImm {
        op: AluImmOp::Addi,
        rd,
        rs1,
        imm,
    }
}

fn load(op: LoadOp, rd: Reg, rs1: Reg, offset: i32) -> Instr {
    Instr::Load {
        op,
        rd,
        rs1,
        offset,
    }
}

fn sw(rs2: Reg, rs1: Reg) -> Instr {
    Instr::Store {
        op: StoreOp::Sw,
        rs2,
        rs1,
        offset: 0,
    }
}

/// One per-output body over `n_in` inputs.
struct Body {
    n_in: u32,
    /// Load the `x` base from [`XCELL`] instead of a constant.
    x_cell: bool,
    /// Initial weight cursor.
    w: u32,
    /// Spill word address.
    spill: u32,
    mutation: Mutation,
}

impl Body {
    fn new(n_in: u32, x_cell: bool) -> Self {
        Self {
            n_in,
            x_cell,
            w: W,
            spill: SPILL,
            mutation: Mutation::None,
        }
    }

    fn mutated(mutation: Mutation) -> Self {
        Self {
            mutation,
            ..Self::new(3, false)
        }
    }

    /// The region's instructions.
    fn region_instrs(&self) -> Vec<Instr> {
        let m = self.mutation;
        let mut v = if self.x_cell {
            vec![li(XP, XCELL), load(LoadOp::Lw, XP, XP, 0)]
        } else {
            vec![li(XP, X)]
        };
        if m == Mutation::LoadedBound {
            v.push(load(LoadOp::Lw, XEND, Reg::ZERO, BOUND as i32));
        } else {
            v.push(addi(XEND, XP, 2 * self.n_in as i32));
        }
        if m == Mutation::ReadBeforeSeed {
            v.push(load(LoadOp::Lw, Reg::S4, SPILLP, 0));
        }
        v.extend([
            load(LoadOp::Lw, ACC, BP, 0),
            addi(BP, BP, 4),
            sw(ACC, SPILLP),
        ]);
        let mut inner = vec![
            load(LoadOp::Lh, X0, WP, 0),
            load(LoadOp::Lh, X1, XP, 0),
            load(
                LoadOp::Lw,
                ACC,
                SPILLP,
                if m == Mutation::OtherSpill { 4 } else { 0 },
            ),
            addi(WP, WP, 2),
            if m == Mutation::Msu {
                Instr::Msu {
                    rd: ACC,
                    rs1: X0,
                    rs2: X1,
                }
            } else {
                Instr::Mac {
                    rd: ACC,
                    rs1: X0,
                    rs2: X1,
                }
            },
            sw(ACC, SPILLP),
        ];
        if m == Mutation::ExtraStore {
            inner.push(sw(ACC, SPILLP));
        }
        inner.push(addi(XP, XP, 2));
        let back = -4 * inner.len() as i32;
        inner.push(Instr::Branch {
            op: BranchOp::Bltu,
            rs1: XP,
            rs2: XEND,
            offset: back,
        });
        v.extend(inner);
        v.push(load(LoadOp::Lh, Reg::S2, XEND, -2));
        v
    }

    /// The whole program: cursor setup, then per output the region, the
    /// trailing load's consumer and the output loop; `ecall`. Returns it
    /// with the region's start and end addresses.
    fn program(&self) -> (Program, u32, u32) {
        let mut v = vec![
            li(WP, self.w),
            li(BP, BIAS),
            li(SPILLP, self.spill),
            li(OUT_CNT, OUTPUTS),
        ];
        let start = CODE + 4 * v.len() as u32;
        v.extend(self.region_instrs());
        let end = CODE + 4 * v.len() as u32;
        // Consumes the trailing load: a load-use stall iff it is pending.
        v.push(addi(Reg::S3, Reg::S2, 1));
        v.push(addi(OUT_CNT, OUT_CNT, -1));
        let back = start as i32 - (CODE + 4 * v.len() as u32) as i32;
        v.push(Instr::Branch {
            op: BranchOp::Bne,
            rs1: OUT_CNT,
            rs2: Reg::ZERO,
            offset: back,
        });
        v.push(Instr::Ecall);
        (Program::from_instrs(CODE, v), start, end)
    }

    fn region(&self, start: u32, end: u32) -> KernelRegion {
        KernelRegion {
            start_addr: start,
            end_addr: end,
            math: RegionMath::Dot(Dot {
                w: ShortcutPtr::Reg(WP),
                x: if self.x_cell {
                    ShortcutPtr::Cell(XCELL)
                } else {
                    ShortcutPtr::Const(X)
                },
                bias32: ShortcutPtr::Reg(BP),
                spill: ShortcutPtr::Reg(SPILLP),
                n_in: self.n_in,
            }),
        }
    }

    /// The program translated with and without the region.
    fn translations(&self) -> (Program, UopProgram, UopProgram) {
        let (prog, start, end) = self.program();
        let with = UopProgram::translate_with_shortcuts(&prog, &[self.region(start, end)]);
        let plain = UopProgram::translate(&prog);
        (prog, with, plain)
    }
}

/// A machine over seeded weights, inputs and biases, with the `x` cell
/// pointing at `X` and the loaded bound at `X + 2·n_in`.
fn machine(prog: &Program, uops: UopProgram, n_in: u32) -> Machine {
    let mut mem = Memory::new(64 * 1024);
    let mut rng = StdRng::seed_from_u64(0xD07_5EED ^ u64::from(n_in));
    for a in (W..X + 2 * n_in).step_by(2) {
        // Full-range halfwords, so the 32-bit sum wraps.
        mem.write_u16(a, rng.gen::<u32>() as u16).unwrap();
    }
    for j in 0..OUTPUTS {
        mem.write_u32(BIAS + 4 * j, rng.gen::<u32>()).unwrap();
    }
    mem.write_u32(XCELL, X).unwrap();
    mem.write_u32(BOUND, X + 2 * n_in).unwrap();
    let image = mem.image();
    mem.load_image(&image);
    let mut m = Machine::with_memory(mem);
    m.load_program_shared(prog, Arc::new(uops));
    m
}

fn assert_same_state(a: &Machine, b: &Machine, tag: &str) {
    let (x, y) = (a.core(), b.core());
    assert_eq!(x.pc, y.pc, "{tag}: pc");
    assert_eq!(x.cycle, y.cycle, "{tag}: cycle");
    assert_eq!(x.instret, y.instret, "{tag}: instret");
    for r in Reg::all() {
        assert_eq!(x.reg(r), y.reg(r), "{tag}: register {r}");
    }
    assert_eq!(a.stats().to_csv(), b.stats().to_csv(), "{tag}: rows");
    assert!(a.stats().iter().eq(b.stats().iter()), "{tag}: rows");
    assert!(a.mem().image() == b.mem().image(), "{tag}: memory");
}

/// Runs `body` with its installed region, translate-only and on the
/// stepping loop under `setup` and `budget`; asserts identical outcomes
/// and returns the shortcut machine's natively retired instructions.
fn run_all(body: &Body, budget: u64, setup: impl Fn(&mut Machine)) -> u64 {
    let (prog, with, plain) = body.translations();
    assert_eq!(with.shortcut_regions(), 1, "the region must install");
    let mut sc = machine(&prog, with.clone(), body.n_in);
    let mut base = machine(&prog, plain, body.n_in);
    let mut step = machine(&prog, with, body.n_in);
    setup(&mut sc);
    setup(&mut base);
    setup(&mut step);
    let (x, y, z) = (sc.run(budget), base.run(budget), step.run_stepping(budget));
    let tag = format!("n_in {} x_cell {}", body.n_in, body.x_cell);
    assert_eq!(format!("{x:?}"), format!("{y:?}"), "{tag}: exit");
    assert_eq!(format!("{x:?}"), format!("{z:?}"), "{tag}: stepping exit");
    assert_eq!(base.shortcut_instrs(), 0);
    assert_eq!(step.shortcut_instrs(), 0);
    assert_same_state(&sc, &base, &tag);
    assert_same_state(&sc, &step, &format!("{tag} stepping"));
    sc.shortcut_instrs()
}

#[test]
fn bodies_are_bit_identical_to_translate_only_and_stepping() {
    for n_in in [1, 2, 3, 64] {
        for x_cell in [false, true] {
            let body = Body::new(n_in, x_cell);
            let native = run_all(&body, 1_000_000, |_| {});
            // Every op of the region retires natively on every entry: the
            // cursor reset (one more op to load `x`), the bias seed, eight
            // ops per MAC and the trailing load.
            let per_entry = 6 + u64::from(x_cell) + 8 * u64::from(n_in);
            assert_eq!(native, u64::from(OUTPUTS) * per_entry, "n_in {n_in}");
        }
    }
}

#[test]
fn mutated_bodies_fail_to_install() {
    for m in [
        Mutation::OtherSpill,
        Mutation::ReadBeforeSeed,
        Mutation::Msu,
        Mutation::ExtraStore,
        Mutation::LoadedBound,
    ] {
        let body = Body::mutated(m);
        let (prog, with, plain) = body.translations();
        assert_eq!(with.shortcut_regions(), 0, "{m:?} installed");
        // Uninstalled, the body still runs exactly as translated.
        let mut sc = machine(&prog, with, body.n_in);
        let mut base = machine(&prog, plain, body.n_in);
        assert_eq!(sc.run(1_000_000).unwrap(), ExitReason::Ecall);
        assert_eq!(base.run(1_000_000).unwrap(), ExitReason::Ecall);
        assert_eq!(sc.shortcut_instrs(), 0);
        assert_same_state(&sc, &base, &format!("{m:?}"));
    }
}

#[test]
fn declines_under_an_armed_fault() {
    let plan = FaultPlan::new().with_fault(Fault {
        at_instret: u64::MAX,
        site: FaultSite::RegBit {
            reg: Reg::S11,
            bit: 0,
        },
    });
    let native = run_all(&Body::new(3, true), 1_000_000, |m| m.arm_faults(&plan));
    assert_eq!(native, 0);
}

#[test]
fn declines_under_a_short_watchdog_budget() {
    // Enough for the setup ops, not for one entry.
    let native = run_all(&Body::new(64, false), 200, |_| {});
    assert_eq!(native, 0);
    let (prog, with, _) = Body::new(64, false).translations();
    let mut m = machine(&prog, with, 64);
    assert!(matches!(m.run(200), Err(SimError::Watchdog { .. })));
}

#[test]
fn declines_when_the_spill_word_aliases_an_operand() {
    // On `x`, every entry declines. On the W rows, the spill word
    // `[W + 4, W + 8)` overlaps the 6-byte rows of outputs 0 and 1:
    // those entries decline and output 2's runs natively.
    for (spill, native_entries) in [(X + 4, 0), (W + 4, 1)] {
        let body = Body {
            spill,
            ..Body::new(3, true)
        };
        let native = run_all(&body, 1_000_000, |_| {});
        assert_eq!(native, native_entries * (7 + 8 * 3), "spill at {spill:#x}");
    }
}

#[test]
fn declines_on_an_odd_weight_cursor_and_faults_as_interpreted() {
    let body = Body {
        w: W + 1,
        ..Body::new(3, false)
    };
    assert_eq!(run_all(&body, 1_000_000, |_| {}), 0);
    let (prog, with, _) = body.translations();
    let mut m = machine(&prog, with, 3);
    assert!(matches!(m.run(1_000_000), Err(SimError::Misaligned { .. })));
}

#[test]
fn verification_walk_does_not_grow_with_the_input_width() {
    // The MAC loop is walked once, watched once, applied in closed form
    // and its last iteration walked again, so 64 inputs walk no more
    // than 5.
    let walked = |n_in| Body::new(n_in, true).translations().1.verify_ops();
    assert_eq!(walked(5), walked(64));
    assert!(walked(64) < 4 * 8 + 10);
}
