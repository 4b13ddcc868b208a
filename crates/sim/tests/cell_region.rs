//! The LSTM cell-update shortcut region on hand-built bodies.
//!
//! Each body is the level c–e update loop (`lp.setup` over 17 ops per
//! row: four gate loads, the in-place `c` read, three Q3.12 products,
//! `clip 16` twice, `pl.tanh`, and the `c` and `h` stores) followed by a
//! trailing load of the first `o` row whose consumer sits just past the
//! region, so the exit state includes a pending load. A body with its shortcut installed must
//! leave exactly the state a translate-only machine leaves: registers
//! (the last row's intermediates too), memory, cycles, instret,
//! per-mnemonic rows and the load-use stall of that pending load.
//!
//! Mutated bodies, whose stores no longer follow the descriptor's
//! formula or order, must fail verification; valid bodies must decline
//! at run time whenever the machine state forbids a native entry.

use rnnasip_isa::{AluImmOp, AluOp, Instr, LoadOp, LoopIdx, MulDivOp, Reg, StoreOp};
use rnnasip_rng::StdRng;
use rnnasip_sim::{
    CellUpdate, ExitReason, Fault, FaultPlan, FaultSite, KernelRegion, Machine, Memory, Program,
    RegionMath, ShortcutPtr, SimError, UopProgram,
};
use std::sync::Arc;

const CODE: u32 = 0x1000;
/// Gate buffers in `o, f, i, g` order, then `c` and `h`, 256 bytes each.
const O: u32 = 0x100;
const F: u32 = 0x200;
const I: u32 = 0x300;
const G: u32 = 0x400;
const C: u32 = 0x500;
const H: u32 = 0x600;
/// Pointer cell for bodies that load their `h` base.
const HCELL: u32 = 0x7F0;
/// Target of the extra store of [`Mutation::ExtraStore`].
const SCRATCH: u32 = 0x7C0;

const OPTR: Reg = Reg::A0;
const FPTR: Reg = Reg::A1;
const IPTR: Reg = Reg::A2;
const GPTR: Reg = Reg::A3;
const CPTR: Reg = Reg::T5;
const HPTR: Reg = Reg::T6;
const CNT: Reg = Reg::T2;
const V0: Reg = Reg::GP;
const V1: Reg = Reg::TP;

/// A deliberate deviation from the emitted update loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mutation {
    None,
    /// `srai 11` in the `f·c` product.
    Srai11,
    /// The `f` and `i` pointers swapped.
    SwapFi,
    /// No `clip` on the new `c`.
    NoClip,
    /// One more `sh` per row.
    ExtraStore,
    /// `h` stored before `c` (same values).
    HBeforeC,
    /// The previous row's `c` read after its store.
    ReadOtherC,
}

fn li(rd: Reg, imm: u32) -> Instr {
    Instr::OpImm {
        op: AluImmOp::Addi,
        rd,
        rs1: Reg::ZERO,
        imm: imm as i32,
    }
}

fn lh(rd: Reg, rs1: Reg, offset: i32) -> Instr {
    Instr::Load {
        op: LoadOp::Lh,
        rd,
        rs1,
        offset,
    }
}

fn lh_post(rd: Reg, rs1: Reg) -> Instr {
    Instr::LoadPostInc {
        op: LoadOp::Lh,
        rd,
        rs1,
        offset: 2,
    }
}

fn sh_post(rs2: Reg, rs1: Reg) -> Instr {
    Instr::StorePostInc {
        op: StoreOp::Sh,
        rs2,
        rs1,
        offset: 2,
    }
}

fn mul(rd: Reg, rs1: Reg, rs2: Reg) -> Instr {
    Instr::MulDiv {
        op: MulDivOp::Mul,
        rd,
        rs1,
        rs2,
    }
}

fn srai(rd: Reg, imm: i32) -> Instr {
    Instr::OpImm {
        op: AluImmOp::Srai,
        rd,
        rs1: rd,
        imm,
    }
}

fn clip16(rd: Reg) -> Instr {
    Instr::Clip {
        rd,
        rs1: rd,
        bits: 16,
    }
}

/// One update-loop body over rows `[row0, row0 + rows)`.
struct Body {
    rows: u32,
    row0: u32,
    /// Load the `h` base from [`HCELL`] instead of a constant.
    h_cell: bool,
    /// Wrap the region in a two-pass outer hardware loop.
    outer_loop: bool,
    mutation: Mutation,
}

impl Body {
    fn new(rows: u32, row0: u32) -> Self {
        Self {
            rows,
            row0,
            h_cell: false,
            outer_loop: false,
            mutation: Mutation::None,
        }
    }

    fn mutated(mutation: Mutation) -> Self {
        Self {
            mutation,
            ..Self::new(3, 1)
        }
    }

    /// The region's instructions.
    fn region_instrs(&self) -> Vec<Instr> {
        let m = self.mutation;
        let at = |base: u32| base + 2 * self.row0;
        let (f, i) = if m == Mutation::SwapFi {
            (I, F)
        } else {
            (F, I)
        };
        let mut v = vec![
            li(OPTR, at(O)),
            li(FPTR, at(f)),
            li(IPTR, at(i)),
            li(GPTR, at(G)),
            li(CPTR, at(C)),
        ];
        if self.h_cell {
            v.push(li(HPTR, HCELL));
            v.push(Instr::Load {
                op: LoadOp::Lw,
                rd: HPTR,
                rs1: HPTR,
                offset: 0,
            });
        } else {
            v.push(li(HPTR, at(H)));
        }
        v.push(li(CNT, self.rows));

        let mut row = vec![
            lh_post(V0, FPTR),
            lh(V1, CPTR, 0),
            mul(Reg::T3, V0, V1),
            srai(Reg::T3, if m == Mutation::Srai11 { 11 } else { 12 }),
            lh_post(V0, IPTR),
            lh_post(V1, GPTR),
            mul(Reg::T4, V0, V1),
            srai(Reg::T4, 12),
            Instr::Op {
                op: AluOp::Add,
                rd: Reg::T3,
                rs1: Reg::T3,
                rs2: Reg::T4,
            },
        ];
        if m != Mutation::NoClip {
            row.push(clip16(Reg::T3));
        }
        let tanh_to_h = |t: Reg| {
            [
                Instr::PlTanh {
                    rd: t,
                    rs1: Reg::T3,
                },
                lh_post(V0, OPTR),
                mul(t, V0, t),
                srai(t, 12),
                clip16(t),
                sh_post(t, HPTR),
            ]
        };
        if m == Mutation::HBeforeC {
            row.extend(tanh_to_h(Reg::S4));
            row.push(sh_post(Reg::T3, CPTR));
        } else {
            row.push(sh_post(Reg::T3, CPTR));
            if m == Mutation::ReadOtherC {
                row.push(lh(Reg::S5, CPTR, -4));
            }
            row.extend(tanh_to_h(Reg::T3));
        }
        if m == Mutation::ExtraStore {
            row.push(Instr::Store {
                op: StoreOp::Sh,
                rs2: Reg::T4,
                rs1: Reg::ZERO,
                offset: SCRATCH as i32,
            });
        }
        v.push(Instr::LpSetup {
            l: LoopIdx::L0,
            rs1: CNT,
            uimm: 2 * (row.len() as u32 + 1),
        });
        v.extend(row);
        v.push(lh(Reg::S2, Reg::ZERO, at(O) as i32));
        v
    }

    /// The whole program: `[outer loop setup,] region, consumer, ecall`.
    /// Returns it with the region's start and end addresses.
    fn program(&self) -> (Program, u32, u32) {
        let region = self.region_instrs();
        let mut v = Vec::new();
        if self.outer_loop {
            v.push(li(Reg::S1, 2));
            v.push(Instr::LpSetup {
                l: LoopIdx::L1,
                rs1: Reg::S1,
                uimm: 2 * (region.len() as u32 + 1),
            });
        }
        let start = CODE + 4 * v.len() as u32;
        v.extend(region);
        let end = CODE + 4 * v.len() as u32;
        // Consumes the trailing load: a load-use stall iff it is pending.
        v.push(Instr::OpImm {
            op: AluImmOp::Addi,
            rd: Reg::S3,
            rs1: Reg::S2,
            imm: 1,
        });
        v.push(Instr::Ecall);
        (Program::from_instrs(CODE, v), start, end)
    }

    fn region(&self, start: u32, end: u32) -> KernelRegion {
        let at = |base: u32| ShortcutPtr::Const(base + 2 * self.row0);
        KernelRegion {
            start_addr: start,
            end_addr: end,
            math: RegionMath::Cell(CellUpdate {
                gates: [at(O), at(F), at(I), at(G)],
                c: at(C),
                h: if self.h_cell {
                    ShortcutPtr::Cell(HCELL)
                } else {
                    at(H)
                },
                rows: self.rows,
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

/// A machine over seeded gate and cell data, with the `h` cell pointing
/// at `h_base`.
fn machine(prog: &Program, uops: UopProgram, h_base: u32) -> Machine {
    let mut mem = Memory::new(64 * 1024);
    let mut rng = StdRng::seed_from_u64(0xCE11_0B0D);
    for a in (O..C).step_by(2) {
        // Gates: sigmoid outputs in [0, 1], g in [-1, 1] (Q3.12).
        let v = if a >= G {
            (rng.gen::<u32>() % 8193) as i32 - 4096
        } else {
            (rng.gen::<u32>() % 4097) as i32
        };
        mem.write_u16(a, v as u16).unwrap();
    }
    for a in (C..H).step_by(2) {
        // Cell state over the whole Q3.12 range, so the clip engages.
        mem.write_u16(a, rng.gen::<u32>() as u16).unwrap();
    }
    mem.write_u32(HCELL, h_base).unwrap();
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
    assert_eq!(x.spr, y.spr, "{tag}: spr");
    for l in 0..2 {
        assert_eq!(x.hwloop[l].count, y.hwloop[l].count, "{tag}: loop {l}");
        assert_eq!(x.hwloop[l].start, y.hwloop[l].start, "{tag}: loop {l}");
        assert_eq!(x.hwloop[l].end, y.hwloop[l].end, "{tag}: loop {l}");
    }
    assert_eq!(a.stats().to_csv(), b.stats().to_csv(), "{tag}: rows");
    assert!(a.stats().iter().eq(b.stats().iter()), "{tag}: rows");
    assert!(a.mem().image() == b.mem().image(), "{tag}: memory");
}

/// Runs `body` with and without its installed region under `setup` and
/// `budget`; asserts identical outcomes and returns the shortcut
/// machine's natively retired instructions.
fn run_both(body: &Body, h_base: u32, budget: u64, setup: impl Fn(&mut Machine)) -> u64 {
    let (prog, with, plain) = body.translations();
    assert_eq!(with.shortcut_regions(), 1, "the region must install");
    let mut sc = machine(&prog, with, h_base);
    let mut base = machine(&prog, plain, h_base);
    setup(&mut sc);
    setup(&mut base);
    let (x, y) = (sc.run(budget), base.run(budget));
    assert_eq!(format!("{x:?}"), format!("{y:?}"), "exit");
    assert_eq!(base.shortcut_instrs(), 0);
    assert_same_state(&sc, &base, &format!("rows {}", body.rows));
    sc.shortcut_instrs()
}

#[test]
fn bodies_are_bit_identical_to_the_translate_only_machine() {
    for (rows, row0) in [(1, 3), (2, 1), (3, 5), (64, 7)] {
        let body = Body::new(rows, row0);
        let native = run_both(&body, 0, 1_000_000, |_| {});
        // Every op of the region retires natively: 8 setup ops, 17 per
        // row and the trailing load.
        assert_eq!(native, 8 + 17 * u64::from(rows) + 1, "rows {rows}");
    }
}

#[test]
fn a_loaded_h_pointer_runs_natively() {
    let body = Body {
        h_cell: true,
        ..Body::new(3, 2)
    };
    assert!(run_both(&body, H + 4, 1_000_000, |_| {}) > 0);
}

#[test]
fn mutated_bodies_fail_to_install() {
    for m in [
        Mutation::Srai11,
        Mutation::SwapFi,
        Mutation::NoClip,
        Mutation::ExtraStore,
        Mutation::HBeforeC,
        Mutation::ReadOtherC,
    ] {
        let (prog, with, plain) = Body::mutated(m).translations();
        assert_eq!(with.shortcut_regions(), 0, "{m:?} installed");
        // Uninstalled, the body still runs exactly as translated.
        let mut sc = machine(&prog, with, 0);
        let mut base = machine(&prog, plain, 0);
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
    let native = run_both(&Body::new(3, 1), 0, 1_000_000, |m| m.arm_faults(&plan));
    assert_eq!(native, 0);
}

#[test]
fn declines_under_a_short_watchdog_budget() {
    // Enough for the setup ops, not for the region.
    let native = run_both(&Body::new(64, 0), 0, 200, |_| {});
    assert_eq!(native, 0);
    let (prog, with, _) = Body::new(64, 0).translations();
    let mut m = machine(&prog, with, 0);
    assert!(matches!(m.run(200), Err(SimError::Watchdog { .. })));
}

#[test]
fn declines_inside_a_live_hardware_loop() {
    let body = Body {
        outer_loop: true,
        ..Body::new(3, 1)
    };
    assert_eq!(run_both(&body, 0, 1_000_000, |_| {}), 0);
}

#[test]
fn declines_when_h_overlaps_a_gate_at_run_time() {
    let body = Body {
        h_cell: true,
        ..Body::new(3, 2)
    };
    // h lands on the o rows the loop still has to read.
    assert_eq!(run_both(&body, O + 6, 1_000_000, |_| {}), 0);
}

#[test]
fn verification_walk_does_not_grow_with_the_row_count() {
    // One row is walked, one watched, the rest applied at once and the
    // last walked again, so 64 rows walk no more than 5.
    let walked = |rows| Body::new(rows, 1).translations().1.verify_ops();
    assert_eq!(walked(5), walked(64));
    assert!(walked(64) < 4 * 17 + 10);
}
