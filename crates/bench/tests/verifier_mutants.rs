//! Seeded near-miss kernels against the shortcut verifier.
//!
//! Every region installed in the one-core suite artifacts (10 networks ×
//! levels a–e) gets seeded single-instruction mutations inside its pc
//! range: `pl.sig` and `pl.tanh` swapped, an immediate field moved by
//! ±1, ±2 or ±4, two source-register fields swapped, an op dropped (made
//! a no-op), or two adjacent ops swapped. Each mutated program is
//! translated again with the region's unchanged descriptor. A mutant the
//! verifier still installs must run exactly as the stepping reference
//! (`run_stepping`) runs it: outputs and all memory, cycles, instret and
//! every per-mnemonic row. A mutant it rejects runs interpreted and needs
//! no check.
//!
//! The table prints mutants / installed / diverged per region kind and
//! level; each divergence prints a one-line seed that rebuilds it.

use rnnasip_bench::par;
use rnnasip_core::{CompiledNetwork, KernelBackend, OptLevel};
use rnnasip_isa::{decode, encode, AluImmOp, Instr, Reg};
use rnnasip_rng::StdRng;
use rnnasip_sim::{KernelRegion, Machine, Memory, Program, RegionKind, UopProgram};
use std::sync::Arc;

/// Mutants per installed region.
const PER_REGION: u64 = 50;

/// The mutation kinds; mutant `m` of a region is of kind `m % 5`.
const KINDS: [&str; 5] = ["act", "imm", "regs", "drop", "swap"];

/// Mutates instruction `k` of `region` in `prog` by mutation `kind` and
/// draw `draw`; `None` when the draw does not apply there (no activation
/// op, no field to move, an encoding that does not decode).
fn mutate(prog: &Program, at: &[u32], k: usize, kind: usize, draw: u64) -> Option<Program> {
    let item = *prog.fetch(at[k])?;
    let mut out = prog.clone();
    let word = |i: Instr| (item.size == 4).then(|| encode(&i));
    let mutated = match KINDS[kind] {
        "act" => match item.instr {
            Instr::PlSig { rd, rs1 } => Instr::PlTanh { rd, rs1 },
            Instr::PlTanh { rd, rs1 } => Instr::PlSig { rd, rs1 },
            _ => return None,
        },
        "imm" => {
            // The I-type immediate (bits 31:20) or, for the other
            // formats, the field in the same bits.
            let by = [1i32, 2, 4][(draw % 3) as usize] * if draw & 8 == 0 { 1 } else { -1 };
            let w = word(item.instr)?;
            decode(w.wrapping_add((by as u32) << 20)).ok()?
        }
        "regs" => {
            // The rs1 (19:15) and rs2 (24:20) fields swapped.
            let w = word(item.instr)?;
            let (rs1, rs2) = ((w >> 15) & 31, (w >> 20) & 31);
            if rs1 == rs2 {
                return None;
            }
            decode(w & !(0x3FF << 15) | rs2 << 15 | rs1 << 20).ok()?
        }
        "drop" => Instr::OpImm {
            op: AluImmOp::Addi,
            rd: Reg::ZERO,
            rs1: Reg::ZERO,
            imm: 0,
        },
        _ => {
            let next = *prog.fetch(*at.get(k + 1)?)?;
            if next.size != item.size || next.instr == item.instr {
                return None;
            }
            out.patch(next.addr, item.instr);
            next.instr
        }
    };
    if mutated == item.instr {
        return None;
    }
    out.patch(item.addr, mutated);
    Some(out)
}

/// How one run of `prog` ended: exit, cycles, instret, the rendered
/// statistics rows and all of memory.
type Outcome = (String, u64, u64, String, Vec<u8>);

/// Runs `prog` over the artifact's image with `input` patched in.
fn run(
    c: &CompiledNetwork,
    input: &[u8],
    prog: &Program,
    uops: UopProgram,
    stepping: bool,
) -> Outcome {
    let mut m = Machine::with_memory(Memory::from_image(c.image()));
    m.mem_mut().write_bytes(c.input().base(), input).unwrap();
    m.load_program_shared(prog, Arc::new(uops));
    let exit = if stepping {
        m.run_stepping(c.max_cycles())
    } else {
        m.run(c.max_cycles())
    };
    let image = m.mem().image();
    (
        format!("{exit:?}"),
        m.core().cycle,
        m.core().instret,
        m.stats().to_csv(),
        image.populated().to_vec(),
    )
}

/// Per kind and level: mutants, installed, diverged; and one line per
/// divergence.
type Tally = (Vec<(RegionKind, OptLevel, [u64; 3])>, Vec<String>);

fn campaign(c: &CompiledNetwork, input: &[u8], (i, net): (usize, &str), level: OptLevel) -> Tally {
    let prog = c.program();
    let regions: Vec<KernelRegion> = c.uop_program().installed_regions().copied().collect();
    let (mut counts, mut lines) = (Vec::new(), Vec::new());
    for (r, region) in regions.iter().enumerate() {
        let at: Vec<u32> = prog
            .iter()
            .map(|i| i.addr)
            .filter(|&a| (region.start_addr..region.end_addr).contains(&a))
            .collect();
        let mut n = [0u64; 3];
        for m in 0..PER_REGION {
            let seed = (i as u64) << 56 | (level as u64) << 48 | (r as u64) << 32 | m;
            let mut rng = StdRng::seed_from_u64(seed);
            // Redraw the position until the mutation applies there.
            let kind = (m % KINDS.len() as u64) as usize;
            let Some((desc, mutant)) = (0..64).find_map(|_| {
                let k = (rng.next_u64() % at.len() as u64) as usize;
                let draw = rng.next_u64();
                let p = mutate(prog, &at, k, kind, draw)?;
                Some((format!("{} at {:#x} draw {draw}", KINDS[kind], at[k]), p))
            }) else {
                continue;
            };
            n[0] += 1;
            let uops = UopProgram::translate_with_shortcuts(&mutant, &[*region]);
            if uops.shortcut_regions() == 0 {
                continue;
            }
            n[1] += 1;
            let fast = run(c, input, &mutant, uops, false);
            let slow = run(c, input, &mutant, UopProgram::translate(&mutant), true);
            if fast != slow {
                n[2] += 1;
                lines.push(format!(
                    "seed {seed:#x}: {net} level {} region {r} ({}): {desc} diverges",
                    level.tag(),
                    region.math.kind().name()
                ));
            }
        }
        counts.push((region.math.kind(), level, n));
    }
    (counts, lines)
}

#[test]
fn every_installed_mutant_runs_as_the_stepping_reference() {
    let suite = rnnasip_rrm::suite();
    let cases: Vec<(usize, OptLevel)> = (0..suite.len())
        .flat_map(|i| OptLevel::ALL.into_iter().map(move |l| (i, l)))
        .collect();
    let tallies = par::par_map(&cases, |&(i, level)| {
        let net = &suite[i];
        let c = KernelBackend::new(level)
            .compile_network(&net.network)
            .unwrap_or_else(|e| panic!("{} at {level:?}: {e}", net.id));
        let input: Vec<u8> = net
            .input()
            .iter()
            .flatten()
            .flat_map(|v| (v.raw() as u16).to_le_bytes())
            .collect();
        campaign(&c, &input, (i, net.id), level)
    });
    let mut table: Vec<(RegionKind, OptLevel, [u64; 3])> = Vec::new();
    let mut divergences = Vec::new();
    for (counts, lines) in tallies {
        for (kind, level, n) in counts {
            match table.iter_mut().find(|t| (t.0, t.1) == (kind, level)) {
                Some(t) => (0..3).for_each(|j| t.2[j] += n[j]),
                None => table.push((kind, level, n)),
            }
        }
        divergences.extend(lines);
    }
    println!("kind    level   mutants  installed  diverged");
    for (kind, level, [m, i, d]) in &table {
        println!(
            "{:<7} {:<5} {m:>9} {i:>10} {d:>9}",
            kind.name(),
            level.tag()
        );
    }
    for line in &divergences {
        println!("{line}");
    }
    assert!(
        table.iter().all(|t| t.2[0] > 0),
        "a region kind got no mutants"
    );
    assert!(divergences.is_empty(), "{}", divergences.join("\n"));
}
