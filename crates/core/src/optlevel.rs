//! The five optimization levels of the paper's Table I.

use core::fmt;

/// Optimization level of the generated kernels, matching Table I's
/// columns a–e.
///
/// Levels are cumulative: each one keeps everything the previous level
/// added. The ISA surface grows along the way — `Baseline` restricts
/// itself to RV32IMC (plus the single-cycle `p.mac` the RI5CY multiplier
/// exposes to the compiler, which the paper's baseline column also
/// counts), `Xpulp` unlocks the stock RI5CY extensions, and `OfmTile`
/// onward use the paper's new RNN instructions.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum OptLevel {
    /// (a) Straightforward RV32IMC implementation.
    Baseline,
    /// (b) + packed SIMD, hardware loops, post-increment loads.
    Xpulp,
    /// (c) + output feature-map tiling and `pl.tanh`/`pl.sig`.
    OfmTile,
    /// (d) + the merged load-and-compute `pl.sdotsp.h` instruction.
    SdotSp,
    /// (e) + input feature-map tiling.
    IfmTile,
}

impl OptLevel {
    /// All levels in Table I order.
    pub const ALL: [OptLevel; 5] = [
        OptLevel::Baseline,
        OptLevel::Xpulp,
        OptLevel::OfmTile,
        OptLevel::SdotSp,
        OptLevel::IfmTile,
    ];

    /// The paper's column label.
    pub const fn column(self) -> &'static str {
        match self {
            OptLevel::Baseline => "a) w/o opt (RV32IMC)",
            OptLevel::Xpulp => "b) +SIMD/HWL (Xpulp)",
            OptLevel::OfmTile => "c) +Out-FM Tile./tanh/sig",
            OptLevel::SdotSp => "d) +pl.sdotsp instruction",
            OptLevel::IfmTile => "e) +Input FM Tiling",
        }
    }

    /// Short machine-friendly tag (`"a"`–`"e"`).
    pub const fn tag(self) -> &'static str {
        match self {
            OptLevel::Baseline => "a",
            OptLevel::Xpulp => "b",
            OptLevel::OfmTile => "c",
            OptLevel::SdotSp => "d",
            OptLevel::IfmTile => "e",
        }
    }

    /// Whether the level may use the single-cycle `pl.tanh`/`pl.sig`
    /// instructions (levels c–e); below that, activations run the
    /// software PLA routine.
    pub const fn has_act_ext(self) -> bool {
        matches!(
            self,
            OptLevel::OfmTile | OptLevel::SdotSp | OptLevel::IfmTile
        )
    }

    /// Whether the level may use Xpulp SIMD / hardware loops /
    /// post-increment addressing (levels b–e).
    pub const fn has_xpulp(self) -> bool {
        !matches!(self, OptLevel::Baseline)
    }

    /// Whether the level uses the merged load-and-compute
    /// `pl.sdotsp.h` instruction (levels d–e).
    pub const fn has_sdotsp_ext(self) -> bool {
        matches!(self, OptLevel::SdotSp | OptLevel::IfmTile)
    }

    /// The next level down the Table I ladder, or `None` at `Baseline`.
    ///
    /// This is the degradation path of the self-healing engine
    /// ([`ResilientEngine`](crate::ResilientEngine)): when retries at one
    /// level keep faulting, the engine recompiles one rung lower —
    /// shedding the most recently added ISA extension first — until it
    /// reaches plain RV32IMC. All levels are bit-exact against the golden
    /// models, so a degraded run still produces the reference outputs.
    pub const fn lower(self) -> Option<OptLevel> {
        match self {
            OptLevel::Baseline => None,
            OptLevel::Xpulp => Some(OptLevel::Baseline),
            OptLevel::OfmTile => Some(OptLevel::Xpulp),
            OptLevel::SdotSp => Some(OptLevel::OfmTile),
            OptLevel::IfmTile => Some(OptLevel::SdotSp),
        }
    }
}

impl fmt::Display for OptLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.column())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered_and_cumulative() {
        assert!(OptLevel::Baseline < OptLevel::Xpulp);
        assert!(OptLevel::Xpulp < OptLevel::OfmTile);
        assert!(OptLevel::OfmTile < OptLevel::SdotSp);
        assert!(OptLevel::SdotSp < OptLevel::IfmTile);
        for pair in OptLevel::ALL.windows(2) {
            // Feature sets only grow.
            assert!(pair[1].has_xpulp() >= pair[0].has_xpulp());
            assert!(pair[1].has_act_ext() >= pair[0].has_act_ext());
            assert!(pair[1].has_sdotsp_ext() >= pair[0].has_sdotsp_ext());
        }
    }

    #[test]
    fn lowering_walks_the_ladder_to_baseline() {
        let mut level = OptLevel::IfmTile;
        let mut seen = vec![level];
        while let Some(next) = level.lower() {
            assert!(next < level, "lower() must strictly descend");
            level = next;
            seen.push(level);
        }
        assert_eq!(level, OptLevel::Baseline);
        seen.reverse();
        assert_eq!(seen, OptLevel::ALL);
    }

    #[test]
    fn tags_match_columns() {
        for level in OptLevel::ALL {
            assert!(level.column().starts_with(level.tag()));
        }
    }
}
