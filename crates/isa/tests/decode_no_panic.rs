//! Total-function guarantees for the decoders: arbitrary bytes — the
//! fault-injection campaign corrupts instruction words with bit flips —
//! must produce `Ok` or `Err`, never a panic.
//!
//! Three deterministic sweeps, no external crates:
//!
//! 1. every 16-bit word through `decode_compressed` (exhaustive),
//! 2. a seeded uniform sample of 32-bit words through `decode`,
//! 3. single-bit flips of *valid* encodings — exactly the corruption
//!    model of `rnnasip_sim::FaultSite::InstrBit`.

use rnnasip_isa::{compress, decode, decode_compressed, encode, is_compressed};
use rnnasip_rng::StdRng;

#[test]
fn every_u16_word_decodes_without_panic() {
    let mut ok = 0u32;
    let mut compressed = 0u32;
    for word in 0..=u16::MAX {
        if is_compressed(word) {
            compressed += 1;
        }
        // Called on *every* word, including ones carrying the 32-bit
        // width marker: the decoder must reject those, not trust the
        // caller to pre-filter.
        match decode_compressed(word) {
            Ok(instr) => {
                ok += 1;
                // A decoded instruction must re-encode without panicking
                // either (compression is allowed to be unavailable).
                let _ = compress(&instr);
                let _ = encode(&instr);
            }
            Err(e) => {
                let _ = e.to_string();
            }
        }
    }
    // Three of the four quadrants are compressed space.
    assert_eq!(compressed, 3 * (1 << 14));
    assert!(ok > 10_000, "suspiciously few valid words: {ok}");
}

#[test]
fn random_u32_words_decode_without_panic() {
    let mut rng = StdRng::seed_from_u64(0xDEC0DE);
    let mut ok = 0u32;
    for _ in 0..2_000_000 {
        let word = rng.gen::<u32>();
        match decode(word) {
            Ok(instr) => {
                ok += 1;
                let _ = encode(&instr);
                let _ = compress(&instr);
            }
            Err(e) => {
                let _ = e.to_string();
            }
        }
    }
    assert!(ok > 1_000, "suspiciously few valid words: {ok}");
}

/// The campaign's exact corruption model: take a valid encoding, flip
/// one bit, decode with the same-width decoder.
#[test]
fn bit_flips_of_valid_encodings_decode_without_panic() {
    // Harvest a corpus of valid 32-bit encodings from the random sweep
    // (the corpus inherits coverage of every implemented opcode that is
    // dense enough to be hit uniformly)...
    let mut rng = StdRng::seed_from_u64(0xF11B_BEEF);
    let mut corpus = Vec::new();
    while corpus.len() < 20_000 {
        let word = rng.gen::<u32>();
        if let Ok(instr) = decode(word) {
            corpus.push(encode(&instr));
        }
    }
    for word in corpus {
        for bit in 0..32 {
            let _ = decode(word ^ (1 << bit));
        }
    }
    // ...and the compressed space exhaustively, since it is small.
    for word in 0..=u16::MAX {
        if decode_compressed(word).is_ok() {
            for bit in 0..16 {
                let _ = decode_compressed(word ^ (1 << bit));
            }
        }
    }
}
