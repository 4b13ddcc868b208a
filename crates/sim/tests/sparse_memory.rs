//! Differential test for the sparse TCDM backing.
//!
//! A memory built from an image is backed only up to the image's
//! footprint; everything between there and its architectural size reads
//! as zeros until a write or a fault flip grows the backing. That must be
//! invisible: every case here runs the same program, fault plan or memory
//! operation on a footprint-backed memory and on one backed over its
//! whole size, and requires the same exit, registers, cycles, `instret`,
//! shortcut and bulk coverage, fault log and memory bytes.
//!
//! - Seeded programs stream loads and stores across the backing's end
//!   (hardware loops, so the bulk tier runs them too), hit absolute
//!   addresses far past it and past the memory's end, under seeded fault
//!   plans whose tracked and silent `MemBit` flips land mostly past the
//!   backing. Each run is followed by an incremental restore, a second
//!   run, a full load and a clear.
//! - A level-a dot-product shortcut region reads an input vector that
//!   straddles the backing's end, with its spill word inside or past it:
//!   the region must run natively on both memories.

use rnnasip_isa::{AluImmOp, AluOp, BranchOp, Instr, LoadOp, LoopIdx, Reg, StoreOp};
use rnnasip_rng::StdRng;
use rnnasip_sim::{
    Dot, Fault, FaultPlan, FaultSite, KernelRegion, Machine, MemImage, Memory, Program, RegionMath,
    ShortcutPtr, SimError, UopProgram,
};
use std::sync::Arc;

/// Architectural size of every memory here.
const SIZE: usize = 8192;

/// Load and store stream pointers, and the base of absolute accesses.
const PL: Reg = Reg::A1;
const PS: Reg = Reg::A2;
const BASE: Reg = Reg::A3;
const POOL: [Reg; 4] = [Reg::T0, Reg::T1, Reg::S0, Reg::S1];

struct Gen {
    rng: StdRng,
    footprint: u32,
}

impl Gen {
    fn u(&mut self, n: u32) -> u32 {
        self.rng.gen::<u32>() % n
    }

    fn reg(&mut self) -> Reg {
        POOL[self.u(POOL.len() as u32) as usize]
    }

    /// A word address around the backing's end, sometimes anywhere.
    fn near_end(&mut self) -> u32 {
        if self.u(4) == 0 {
            4 * self.u(SIZE as u32 / 4)
        } else {
            (self.footprint + 4 * self.u(96)).saturating_sub(192)
        }
    }

    fn program(&mut self) -> Program {
        let mut v = Vec::new();
        for r in POOL {
            let imm = self.u(4096) as i32 - 2048;
            v.push(addi(r, Reg::ZERO, imm));
        }
        for _ in 0..3 + self.u(5) {
            match self.u(3) {
                0 => {
                    // Re-aim the streams.
                    let (l, s) = (self.near_end(), self.near_end());
                    v.extend(li(PL, l));
                    v.extend(li(PS, s));
                }
                1 => {
                    // A hardware loop streaming across the backing's end.
                    let body = [
                        Instr::LoadPostInc {
                            op: [LoadOp::Lw, LoadOp::Lh, LoadOp::Lbu][self.u(3) as usize],
                            rd: self.reg(),
                            rs1: PL,
                            offset: 4,
                        },
                        Instr::Op {
                            op: [AluOp::Add, AluOp::Xor][self.u(2) as usize],
                            rd: self.reg(),
                            rs1: self.reg(),
                            rs2: self.reg(),
                        },
                        Instr::StorePostInc {
                            op: [StoreOp::Sw, StoreOp::Sh, StoreOp::Sb][self.u(3) as usize],
                            rs2: self.reg(),
                            rs1: PS,
                            offset: 4,
                        },
                    ];
                    v.push(Instr::LpSetupi {
                        l: LoopIdx::L0,
                        count: 1 + self.u(31),
                        uimm: 2 + 2 * body.len() as u32,
                    });
                    v.extend(body);
                }
                _ => {
                    // Absolute accesses far past the backing, and
                    // sometimes past the memory's end.
                    let base = if self.u(6) == 0 {
                        SIZE as u32 - 64
                    } else {
                        self.footprint + 4 * self.u(1024)
                    };
                    v.extend(li(BASE, base));
                    for _ in 0..1 + self.u(4) {
                        let offset = 4 * self.u(32) as i32;
                        v.push(if self.u(2) == 0 {
                            Instr::Load {
                                op: [LoadOp::Lw, LoadOp::Lh, LoadOp::Lb][self.u(3) as usize],
                                rd: self.reg(),
                                rs1: BASE,
                                offset,
                            }
                        } else {
                            Instr::Store {
                                op: [StoreOp::Sw, StoreOp::Sh, StoreOp::Sb][self.u(3) as usize],
                                rs2: self.reg(),
                                rs1: BASE,
                                offset,
                            }
                        });
                    }
                }
            }
        }
        v.push(Instr::Ecall);
        Program::from_instrs(0, v)
    }

    /// One to three memory flips, tracked or silent, mostly past the
    /// backing; sometimes inside it or past the memory's end.
    fn fault_plan(&mut self) -> FaultPlan {
        let mut plan = FaultPlan::new();
        for _ in 0..1 + self.u(3) {
            let addr = match self.u(5) {
                0 => self.u(self.footprint),
                1 => SIZE as u32 + self.u(64),
                _ => self.footprint + self.u(SIZE as u32 - self.footprint),
            };
            plan = plan.with_fault(Fault {
                at_instret: u64::from(self.u(60)),
                site: FaultSite::MemBit {
                    addr,
                    bit: self.u(8),
                    silent: self.u(2) == 0,
                },
            });
        }
        plan
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

/// `lui` + `addi` loading `value`.
fn li(rd: Reg, value: u32) -> [Instr; 2] {
    let lo = ((value & 0xFFF) as i32) << 20 >> 20;
    [
        Instr::Lui {
            rd,
            imm20: (value.wrapping_sub(lo as u32) >> 12) as i32,
        },
        addi(rd, rd, lo),
    ]
}

/// `r`'s value, or a panic naming the case.
fn ok<T>(ctx: &str, r: Result<T, SimError>) -> T {
    r.unwrap_or_else(|e| panic!("{ctx}: {e}"))
}

/// Seeded words below `footprint`, frozen into an image of that
/// footprint.
fn staged_image(ctx: &str, rng: &mut StdRng, footprint: u32) -> MemImage {
    let mut mem = Memory::sparse(SIZE);
    let staged = footprint - 4 * (rng.gen::<u32>() % 16);
    for a in (0..staged).step_by(4) {
        ok(ctx, mem.write_u32(a, rng.gen::<u32>()));
    }
    mem.grow(footprint as usize);
    mem.image()
}

/// The same image on a memory backed over its whole size and on one
/// backed up to the image's footprint.
fn machines(ctx: &str, image: &MemImage, load: impl Fn(&mut Machine)) -> [Machine; 2] {
    let mut dense = Memory::new(SIZE);
    dense.load_image(image);
    let sparse = Memory::from_image(image);
    assert!(
        sparse.backing() == image.footprint() && image.footprint() < SIZE,
        "{ctx}: backing {} for footprint {}",
        sparse.backing(),
        image.footprint()
    );
    [dense, sparse].map(|mem| {
        let mut m = Machine::with_memory(mem);
        load(&mut m);
        m
    })
}

fn contents(ctx: &str, mem: &Memory) -> Vec<u8> {
    (0..mem.size() as u32)
        .map(|a| ok(ctx, mem.read_u8(a)))
        .collect()
}

fn assert_same(ctx: &str, [dense, sparse]: &[Machine; 2]) {
    let (d, s) = (dense.core(), sparse.core());
    assert_eq!(d.pc, s.pc, "{ctx}: pc");
    assert_eq!(d.cycle, s.cycle, "{ctx}: cycle");
    assert_eq!(d.instret, s.instret, "{ctx}: instret");
    for r in Reg::all() {
        assert_eq!(d.reg(r), s.reg(r), "{ctx}: register {r}");
    }
    assert_eq!(
        dense.shortcut_instrs(),
        sparse.shortcut_instrs(),
        "{ctx}: shortcut_instrs"
    );
    assert_eq!(
        dense.bulk_instrs(),
        sparse.bulk_instrs(),
        "{ctx}: bulk_instrs"
    );
    assert_eq!(dense.fault_log(), sparse.fault_log(), "{ctx}: fault log");
    assert!(
        contents(ctx, dense.mem()) == contents(ctx, sparse.mem()),
        "{ctx}: memory bytes"
    );
    assert!(dense.mem().image() == sparse.mem().image(), "{ctx}: image");
}

/// Runs both machines; whether the run failed.
fn run_both(ctx: &str, pair: &mut [Machine; 2], stepping: bool) -> bool {
    let [a, b] = pair.each_mut().map(|m| {
        if stepping {
            m.run_stepping(20_000)
        } else {
            m.run(20_000)
        }
    });
    assert_eq!(a, b, "{ctx}: exit");
    assert_same(ctx, pair);
    a.is_err()
}

#[test]
fn programs_and_fault_plans_past_the_backing_match_a_full_backing() {
    let (mut faults, mut errors, mut grown) = (0, 0, 0);
    for seed in 0..300u64 {
        let mut g = Gen {
            rng: StdRng::seed_from_u64(seed),
            footprint: 0,
        };
        g.footprint = 64 * (4 + g.u(29));
        let ctx = format!("seed {seed}");
        let image = staged_image(&ctx, &mut g.rng, g.footprint);
        let prog = g.program();
        let plan = (seed % 2 == 1).then(|| g.fault_plan());
        let stepping = seed % 5 == 0;
        let arm = |m: &mut Machine| {
            if let Some(plan) = &plan {
                m.arm_faults(plan);
            }
        };
        let mut pair = machines(&ctx, &image, |m| {
            m.load_program(&prog);
            arm(m);
        });
        errors += usize::from(run_both(&format!("{ctx}: first run"), &mut pair, stepping));
        faults += pair[0].fault_log().len();
        grown += usize::from(pair[1].mem().backing() > image.footprint());

        // An incremental restore and a rerun, as an engine does; a
        // silent flip survives the restore on both.
        for m in &mut pair {
            m.clear_faults();
            m.rewind(&image);
            arm(m);
        }
        assert_same(&format!("{ctx}: restore"), &pair);
        run_both(&format!("{ctx}: second run"), &mut pair, stepping);

        // A full load, then a clear and a restore over it.
        for m in &mut pair {
            m.mem_mut().load_image(&image);
        }
        assert_same(&format!("{ctx}: load_image"), &pair);
        for m in &mut pair {
            m.mem_mut().clear();
        }
        assert_same(&format!("{ctx}: clear"), &pair);
        for m in &mut pair {
            m.mem_mut().restore_image(&image);
        }
        assert_same(&format!("{ctx}: restore after clear"), &pair);
        assert!(
            contents(&ctx, pair[1].mem()) == contents(&ctx, &Memory::from_image(&image)),
            "{ctx}: restored image"
        );
    }
    // The generator must keep every path it is here for busy.
    assert!(faults >= 100, "seeds 0-299: only {faults} flips applied");
    assert!(errors >= 20, "seeds 0-299: only {errors} runs faulted");
    assert!(
        grown >= 100,
        "seeds 0-299: only {grown} runs grew the backing"
    );
}

/// Dot-product region layout: the input vector straddles the backing's
/// end at [`FOOTPRINT`].
const FOOTPRINT: u32 = 0x400;
const W: u32 = 0x100;
const BIAS: u32 = 0x300;
const X: u32 = 0x3F0;
const N_IN: u32 = 16;
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

/// The level-a per-output dot-product code, entered once per output,
/// with its region descriptor.
fn dot_program(ctx: &str, spill: u32) -> (Program, UopProgram) {
    let load = |op, rd, rs1| Instr::Load {
        op,
        rd,
        rs1,
        offset: 0,
    };
    let sw = |rs2, rs1| Instr::Store {
        op: StoreOp::Sw,
        rs2,
        rs1,
        offset: 0,
    };
    let mut v = vec![
        addi(WP, Reg::ZERO, W as i32),
        addi(BP, Reg::ZERO, BIAS as i32),
    ];
    v.extend(li(SPILLP, spill));
    v.push(addi(OUT_CNT, Reg::ZERO, OUTPUTS as i32));
    let start = 4 * v.len() as u32;
    v.extend([
        addi(XP, Reg::ZERO, X as i32),
        addi(XEND, XP, 2 * N_IN as i32),
        load(LoadOp::Lw, ACC, BP),
        addi(BP, BP, 4),
        sw(ACC, SPILLP),
        load(LoadOp::Lh, X0, WP),
        load(LoadOp::Lh, X1, XP),
        load(LoadOp::Lw, ACC, SPILLP),
        addi(WP, WP, 2),
        Instr::Mac {
            rd: ACC,
            rs1: X0,
            rs2: X1,
        },
        sw(ACC, SPILLP),
        addi(XP, XP, 2),
        Instr::Branch {
            op: BranchOp::Bltu,
            rs1: XP,
            rs2: XEND,
            offset: -28,
        },
    ]);
    let end = 4 * v.len() as u32;
    v.push(addi(OUT_CNT, OUT_CNT, -1));
    v.push(Instr::Branch {
        op: BranchOp::Bne,
        rs1: OUT_CNT,
        rs2: Reg::ZERO,
        offset: start as i32 - end as i32 - 4,
    });
    v.push(Instr::Ecall);
    let prog = Program::from_instrs(0, v);
    let region = KernelRegion {
        start_addr: start,
        end_addr: end,
        math: RegionMath::Dot(Dot {
            w: ShortcutPtr::Reg(WP),
            x: ShortcutPtr::Const(X),
            bias32: ShortcutPtr::Reg(BP),
            spill: ShortcutPtr::Reg(SPILLP),
            n_in: N_IN,
        }),
    };
    let uops = UopProgram::translate_with_shortcuts(&prog, &[region]);
    assert_eq!(uops.shortcut_regions(), 1, "{ctx}: the region must install");
    (prog, uops)
}

#[test]
fn a_shortcut_range_past_the_backing_runs_natively() {
    for seed in 0..8u64 {
        let ctx = format!("seed {seed}");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mem = Memory::sparse(SIZE);
        for a in (W..W + 2 * N_IN * OUTPUTS).step_by(2) {
            ok(&ctx, mem.write_u16(a, rng.gen::<u32>() as u16));
        }
        for j in 0..OUTPUTS {
            ok(&ctx, mem.write_u32(BIAS + 4 * j, rng.gen::<u32>()));
        }
        // The input's backed head; its tail lies past the backing.
        for a in (X..FOOTPRINT).step_by(2) {
            ok(&ctx, mem.write_u16(a, rng.gen::<u32>() as u16));
        }
        mem.grow(FOOTPRINT as usize);
        let image = mem.image();
        // The spill word inside the backing, and past it (its first
        // store grows the backing inside the region).
        for spill in [0x380, 0x1800] {
            let ctx = format!("{ctx}: spill {spill:#x}");
            let (prog, uops) = dot_program(&ctx, spill);
            let uops = Arc::new(uops);
            let mut pair = machines(&ctx, &image, |m| {
                m.load_program_shared(&prog, Arc::clone(&uops))
            });
            assert_eq!(
                pair[1].mem().backing(),
                FOOTPRINT as usize,
                "{ctx}: footprint"
            );
            run_both(&ctx, &mut pair, false);
            assert_eq!(
                pair[1].shortcut_instrs(),
                u64::from(OUTPUTS * (5 + 8 * N_IN)),
                "{ctx}: every region op retires natively"
            );
        }
    }
}
