//! Text round trips: for every valid instruction word, the disassembly
//! text re-assembles to the identical instruction, and a whole program
//! with labels and pseudo-ops survives reformatting.
//!
//! The decoder is the instruction generator: each case decodes one
//! 32-bit word drawn from a generator seeded with its seed, and every
//! decoded instruction must survive `parse(format(i)) == i`. Every
//! failure message starts with `seed N:` so one case reproduces on its
//! own.

use rnnasip_asm::assemble_text;
use rnnasip_isa::decode;
use rnnasip_rng::StdRng;

/// Cases of the word property.
const CASES: u64 = 4096;

/// A word that once failed to round-trip, checked before the random
/// cases.
const REGRESSION_WORD: u32 = 1_493_691_991;

/// Checks that `word`, if it decodes, re-assembles from its
/// disassembly; returns whether it decoded.
fn check_word(case: &str, word: u32) -> bool {
    let Ok(instr) = decode(word) else {
        return false; // not a valid instruction; nothing to check
    };
    let text = instr.to_string();
    let prog =
        assemble_text(0, &text).unwrap_or_else(|e| panic!("{case}: `{text}` failed to parse: {e}"));
    assert_eq!(
        prog.len(),
        1,
        "{case}: `{text}` produced multiple instructions"
    );
    let reparsed = prog.iter().next().expect("one instruction").instr;
    assert_eq!(reparsed, instr, "{case}: text was `{text}`");
    true
}

#[test]
fn disassembly_reassembles() {
    check_word("regression", REGRESSION_WORD);
    let mut valid = 0;
    for seed in 0..CASES {
        let word = StdRng::seed_from_u64(seed).gen::<u32>();
        valid += u32::from(check_word(&format!("seed {seed}: word {word:#010x}"), word));
    }
    // About 7.5% of uniform words are valid encodings.
    assert!(valid > 200, "only {valid} drawn words decoded");
}

/// Whole-program round trip with labels and pseudo-ops.
#[test]
fn structured_program_survives_reformatting() {
    let source = r"
        li   s0, 0x4000
        li   t0, 16
        lp.setup 0, t0, done
        p.lw a0, 4(s0!)
        pv.sdotsp.h a4, a0, a0
    done:
        pl.sdotsp.b.1 a5, s0, a0
        pv.add.sc.b t1, t2, t3
        pv.sra.sci.h t4, t5, -7
        p.clipu a6, a6, 12
        p.extbz a7, a7
        csrrw zero, lpcount1, a0
        ecall
    ";
    let p1 = assemble_text(0, source).expect("assembles");
    let text: String = p1.iter().map(|i| format!("{}\n", i.instr)).collect();
    let p2 = assemble_text(0, &text).expect("reassembles");
    let a: Vec<_> = p1.iter().map(|i| i.instr).collect();
    let b: Vec<_> = p2.iter().map(|i| i.instr).collect();
    assert_eq!(a, b);
}
