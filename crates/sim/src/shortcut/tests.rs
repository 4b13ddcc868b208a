//! The native matvec, cell-update and dot-product loops against a
//! formula evaluator, the reference they stand in for.

use super::*;
use rnnasip_rng::StdRng;

/// The address lane `l` reads in row `row`, with the bases resolved to
/// `at`.
fn at_row(l: Lane, row: u32, at: &[u32]) -> u32 {
    at[usize::from(l.s)].wrapping_add(l.step.wrapping_mul(row))
}

impl Formula {
    /// Computes every store, in store order, as `(address, value)` pairs:
    /// row by row, each node of the formula in order, its leaves read
    /// from TCDM and its operation the micro-op's own ([`Node::eval`]).
    /// Stores to one spill word collapse to the last ([`Formula::slot`]).
    /// `None` if a pointer or read falls outside memory.
    fn compute(&self, mem: &Memory, core: &Core, outs: &mut Vec<(u32, i32)>) -> Option<()> {
        let mut at = [0; 6];
        for (a, base) in at.iter_mut().zip(&self.bases) {
            *a = base.resolve(mem, core)?;
        }
        let rows = self.count / self.outs.len() as u32;
        let first = if self.slot(0).is_some() { 0 } else { rows - 1 };
        let mut v = [0; 10];
        for row in first..rows {
            for (i, node) in self.nodes.iter().enumerate() {
                v[i] = node.try_map(|t| self.eval(t, row, &at, mem, &v))?.eval();
            }
            for &(lane, t) in &self.outs {
                let x = self.eval(t, row, &at, mem, &v)?;
                outs.push((at_row(lane, row, &at), x as i32));
            }
        }
        Some(())
    }

    /// Term `t` in row `row` over TCDM, with the operand bases resolved
    /// to `at` and the row's nodes so far evaluated to `v`; `None` if a
    /// read falls outside memory.
    fn eval(&self, t: Term, row: u32, at: &[u32], mem: &Memory, v: &[u32]) -> Option<u32> {
        Some(match t {
            Term::Node(i) => v[usize::from(i)],
            Term::Load(l) => mem.read_u16(at_row(l, row, at)).ok()? as i16 as u32,
            Term::Chain(x) => {
                let ([seed, a, b], (n0, n1)) = self.chains[usize::from(x)];
                let len = 2 * n0.wrapping_add(n1.wrapping_mul(row)) as usize;
                let a = mem.byte_slice(at_row(a, row, at), len).ok()?;
                let b = mem.byte_slice(at_row(b, row, at), len).ok()?;
                dot16(mem.read_u32(at_row(seed, row, at)).ok()?, a, b)
            }
            Term::Const(c) => c,
        })
    }
}

/// Seeded memory: halfwords of both signs up to `scale`, and bias words
/// at 0x100 up to `scale << 10`.
fn memory(seed: u64, scale: u32) -> Memory {
    let mut mem = Memory::new(0x4000);
    let mut rng = StdRng::seed_from_u64(seed);
    for a in (0..0x4000).step_by(2) {
        let v = (rng.next_u64() % (2 * scale as u64)) as i32 - scale as i32;
        mem.write_u16(a, v as u16).unwrap();
    }
    for a in (0x100..0x200).step_by(4) {
        let v = (rng.next_u64() % (2 << (10 + scale.ilog2()))) as i32 - (1 << (10 + scale.ilog2()));
        mem.write_u32(a, v as u32).unwrap();
    }
    mem
}

/// A region's computed stores.
type Stores = Vec<(u32, i32)>;

/// `compute` of `math` natively and through its formula.
fn both(math: RegionMath, mem: &Memory) -> (Stores, Stores) {
    let desc = KernelRegion {
        start_addr: 0,
        end_addr: 4,
        math,
    };
    let core = Core::new(0);
    let at = |p: ShortcutPtr| p.aaddr().resolve(mem, &core);
    let (mut native, mut eval) = (Vec::new(), Vec::new());
    match math {
        RegionMath::Matvec(m) => matvec(&m, mem, at, &mut native),
        RegionMath::Cell(u) => cell_update(&u, mem, at, &mut native),
        RegionMath::Dot(d) => dot(&d, mem, at, &mut native),
    }
    .unwrap();
    Outputs::new(&desc)
        .unwrap()
        .f
        .compute(mem, &core, &mut eval)
        .unwrap();
    (native, eval)
}

#[test]
fn the_native_matvec_is_the_formula() {
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let act = [
            ShortcutAct::None,
            ShortcutAct::Relu,
            ShortcutAct::Tanh,
            ShortcutAct::Sigmoid,
        ][seed as usize % 4];
        let m = Matvec {
            w_base: 0x1000,
            bias32: 0x100,
            x: ShortcutPtr::Const(0x200),
            out: ShortcutPtr::Const(0x3000),
            out_stride: 2 * (1 + rng.next_u64() as u32 % 3),
            n_in: 2 * (1 + rng.next_u64() as u32 % 40),
            n_out: 1 + rng.next_u64() as u32 % 60,
            act,
        };
        // Small values stay inside the clip; large ones saturate it.
        let mem = memory(seed, [512, 16384][seed as usize % 2]);
        let (native, eval) = both(RegionMath::Matvec(m), &mem);
        assert_eq!(native, eval, "seed {seed}: {m:?}");
    }
}

#[test]
fn the_native_cell_update_is_the_formula() {
    for seed in 0..40u64 {
        let rows = 1 + seed as u32 % 64;
        let u = CellUpdate {
            gates: [0x400, 0x600, 0x800, 0xA00].map(ShortcutPtr::Const),
            c: ShortcutPtr::Const(0xC00),
            h: ShortcutPtr::Const(0xE00),
            rows,
        };
        let mem = memory(seed, [4096, 32767][seed as usize % 2]);
        let (native, eval) = both(RegionMath::Cell(u), &mem);
        assert_eq!(native, eval, "seed {seed}: {rows} rows");
    }
}

#[test]
fn the_native_dot_product_is_the_formula() {
    for seed in 0..20u64 {
        let d = Dot {
            w: ShortcutPtr::Const(0x1000),
            x: ShortcutPtr::Const(0x200),
            bias32: ShortcutPtr::Const(0x100 + 4 * (seed as u32 % 8)),
            spill: ShortcutPtr::Const(0x3000),
            n_in: 1 + seed as u32 * 7 % 90,
        };
        let mem = memory(seed, [512, 32767][seed as usize % 2]);
        let (native, eval) = both(RegionMath::Dot(d), &mem);
        assert_eq!(native, eval, "seed {seed}: {d:?}");
    }
}
