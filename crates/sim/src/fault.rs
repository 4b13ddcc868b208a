//! Deterministic fault injection.
//!
//! A [`FaultPlan`] describes *when* (an `instret` trigger) and *where*
//! (a [`FaultSite`]) to corrupt architectural state, plus an optional
//! forced watchdog budget. Plans are armed on a
//! [`Machine`](crate::Machine) with
//! [`arm_faults`](crate::Machine::arm_faults) and fire at exactly the
//! same instruction boundary on every run path: while a fault is
//! pending the machine retires one micro-op at a time (the bulk runners
//! and the shortcut tier decline), and a due fault is applied before
//! the step's SPR drain and fetch — in [`run`](crate::Machine::run),
//! [`run_stepping`](crate::Machine::run_stepping) and
//! [`step`](crate::Machine::step) alike.
//!
//! Every applied fault leaves a [`FaultRecord`] in the machine's
//! [`fault_log`](crate::Machine::fault_log) stating what was actually
//! hit ([`FaultEffect`]), at which PC/cycle/instret — the campaign
//! runner uses this to attribute downstream crashes to their injection
//! site, and the differential tests assert the logs match across
//! execution paths bit for bit.

use std::fmt;
use std::str::FromStr;

use rnnasip_isa::Reg;

/// Where a single fault strikes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSite {
    /// Flip one bit of the TCDM byte at `addr`.
    ///
    /// A `silent` flip bypasses the dirty-block bitmap — modelling an
    /// upset the write-tracking hardware never saw — so an incremental
    /// rewind cannot undo it; only a full image rebuild can.
    MemBit {
        /// Byte address of the target.
        addr: u32,
        /// Bit index within the byte (taken modulo 8).
        bit: u32,
        /// Skip dirty tracking, evading rewind.
        silent: bool,
    },
    /// Flip one bit of an integer register (writes to `x0` are ignored
    /// by the register file, recorded as [`FaultEffect::NoTarget`]).
    RegBit {
        /// Target register.
        reg: Reg,
        /// Bit index within the 32-bit value (taken modulo 32).
        bit: u32,
    },
    /// Flip one bit of the encoded instruction word at `pc`.
    ///
    /// The corrupted word is re-decoded with the same-width decoder:
    /// a still-valid encoding replaces the instruction in place, while
    /// an invalid one (or a width-class change) turns the slot into a
    /// permanent fetch fault.
    InstrBit {
        /// Address of the instruction to corrupt.
        pc: u32,
        /// Bit index within the encoded word (modulo the encoding width).
        bit: u32,
    },
}

/// One scheduled fault: a [`FaultSite`] fired when the machine's
/// retired-instruction count reaches `at_instret`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fault {
    /// Fire when `instret >= at_instret` (checked at step boundaries).
    pub at_instret: u64,
    /// What to corrupt.
    pub site: FaultSite,
}

/// A seeded, deterministic fault scenario.
///
/// # Example
///
/// ```
/// use rnnasip_sim::{Fault, FaultPlan, FaultSite};
///
/// let plan = FaultPlan::new()
///     .with_fault(Fault {
///         at_instret: 10,
///         site: FaultSite::MemBit { addr: 0x40, bit: 3, silent: false },
///     })
///     .with_watchdog(1_000);
/// assert_eq!(plan.faults.len(), 1);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Faults to arm; applied in `at_instret` order.
    pub faults: Vec<Fault>,
    /// Optional forced watchdog budget (cycles), overriding the run's
    /// requested budget when smaller — models a runaway-firmware guard
    /// firing early.
    pub watchdog: Option<u64>,
}

impl FaultPlan {
    /// An empty plan (no faults, no forced watchdog).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one fault.
    #[must_use]
    pub fn with_fault(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Sets the forced watchdog budget.
    #[must_use]
    pub fn with_watchdog(mut self, cycles: u64) -> Self {
        self.watchdog = Some(cycles);
        self
    }
}

/// What an applied fault actually did to the machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultEffect {
    /// A memory bit was flipped (`silent` mirrors the site).
    FlippedMem {
        /// Byte address that was hit.
        addr: u32,
        /// Whether the flip evaded dirty tracking.
        silent: bool,
    },
    /// A register bit was flipped.
    FlippedReg {
        /// Register that was hit.
        reg: Reg,
    },
    /// An instruction word was corrupted into another valid encoding
    /// and patched in place.
    PatchedInstr {
        /// Address of the corrupted instruction.
        pc: u32,
    },
    /// An instruction word was corrupted into an invalid encoding; the
    /// slot now raises a fetch fault whenever executed.
    RemovedInstr {
        /// Address of the corrupted instruction.
        pc: u32,
    },
    /// The site did not exist (out-of-bounds address, `x0`, or no
    /// instruction at `pc`); nothing changed.
    NoTarget,
}

/// Log entry for one applied fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultRecord {
    /// The fault as scheduled.
    pub fault: Fault,
    /// PC at the moment of application.
    pub pc: u32,
    /// Cycle count at the moment of application.
    pub cycle: u64,
    /// Retired-instruction count at the moment of application.
    pub instret: u64,
    /// What actually happened.
    pub effect: FaultEffect,
}

// ---------------------------------------------------------------------------
// Stable one-line serialization (campaign logs)
// ---------------------------------------------------------------------------
//
// The SDC campaign embeds applied-fault records in its JSON rows as
// strings, so the textual form is part of the bench baseline and must
// stay byte-stable. The grammar is a space-separated `key=value` list:
//
//   site=<site> at=<u64> pc=0x<8 hex> cycle=<u64> instret=<u64> effect=<effect>
//
// with colon-joined site/effect atoms (`mem:0x00000040:3:silent`,
// `reg:a0:7`, `instr:0x00000120:12`, `flipped-mem:0x00000040:silent`,
// `flipped-reg:a0`, `patched-instr:0x00000120`,
// `removed-instr:0x00000120`, `no-target`). `FromStr` accepts exactly
// this grammar back, and the pinning test round-trips every variant.

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultSite::MemBit { addr, bit, silent } => {
                write!(f, "mem:0x{addr:08x}:{bit}")?;
                if silent {
                    write!(f, ":silent")?;
                }
                Ok(())
            }
            FaultSite::RegBit { reg, bit } => write!(f, "reg:{reg}:{bit}"),
            FaultSite::InstrBit { pc, bit } => write!(f, "instr:0x{pc:08x}:{bit}"),
        }
    }
}

impl fmt::Display for FaultEffect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultEffect::FlippedMem { addr, silent } => {
                write!(f, "flipped-mem:0x{addr:08x}")?;
                if silent {
                    write!(f, ":silent")?;
                }
                Ok(())
            }
            FaultEffect::FlippedReg { reg } => write!(f, "flipped-reg:{reg}"),
            FaultEffect::PatchedInstr { pc } => write!(f, "patched-instr:0x{pc:08x}"),
            FaultEffect::RemovedInstr { pc } => write!(f, "removed-instr:0x{pc:08x}"),
            FaultEffect::NoTarget => write!(f, "no-target"),
        }
    }
}

impl fmt::Display for FaultRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "site={} at={} pc=0x{:08x} cycle={} instret={} effect={}",
            self.fault.site, self.fault.at_instret, self.pc, self.cycle, self.instret, self.effect
        )
    }
}

/// Error parsing a [`FaultSite`], [`FaultEffect`] or [`FaultRecord`]
/// from its stable one-line form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseFaultError {
    what: &'static str,
}

impl ParseFaultError {
    fn new(what: &'static str) -> Self {
        Self { what }
    }
}

impl fmt::Display for ParseFaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed fault {}", self.what)
    }
}

impl std::error::Error for ParseFaultError {}

fn parse_hex_u32(s: &str, what: &'static str) -> Result<u32, ParseFaultError> {
    let digits = s
        .strip_prefix("0x")
        .ok_or_else(|| ParseFaultError::new(what))?;
    u32::from_str_radix(digits, 16).map_err(|_| ParseFaultError::new(what))
}

fn parse_dec<T: FromStr>(s: &str, what: &'static str) -> Result<T, ParseFaultError> {
    s.parse().map_err(|_| ParseFaultError::new(what))
}

impl FromStr for FaultSite {
    type Err = ParseFaultError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parts: Vec<&str> = s.split(':').collect();
        match parts.as_slice() {
            ["mem", addr, bit] => Ok(FaultSite::MemBit {
                addr: parse_hex_u32(addr, "site address")?,
                bit: parse_dec(bit, "site bit")?,
                silent: false,
            }),
            ["mem", addr, bit, "silent"] => Ok(FaultSite::MemBit {
                addr: parse_hex_u32(addr, "site address")?,
                bit: parse_dec(bit, "site bit")?,
                silent: true,
            }),
            ["reg", reg, bit] => Ok(FaultSite::RegBit {
                reg: reg.parse().map_err(|_| ParseFaultError::new("register"))?,
                bit: parse_dec(bit, "site bit")?,
            }),
            ["instr", pc, bit] => Ok(FaultSite::InstrBit {
                pc: parse_hex_u32(pc, "site pc")?,
                bit: parse_dec(bit, "site bit")?,
            }),
            _ => Err(ParseFaultError::new("site")),
        }
    }
}

impl FromStr for FaultEffect {
    type Err = ParseFaultError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parts: Vec<&str> = s.split(':').collect();
        match parts.as_slice() {
            ["flipped-mem", addr] => Ok(FaultEffect::FlippedMem {
                addr: parse_hex_u32(addr, "effect address")?,
                silent: false,
            }),
            ["flipped-mem", addr, "silent"] => Ok(FaultEffect::FlippedMem {
                addr: parse_hex_u32(addr, "effect address")?,
                silent: true,
            }),
            ["flipped-reg", reg] => Ok(FaultEffect::FlippedReg {
                reg: reg.parse().map_err(|_| ParseFaultError::new("register"))?,
            }),
            ["patched-instr", pc] => Ok(FaultEffect::PatchedInstr {
                pc: parse_hex_u32(pc, "effect pc")?,
            }),
            ["removed-instr", pc] => Ok(FaultEffect::RemovedInstr {
                pc: parse_hex_u32(pc, "effect pc")?,
            }),
            ["no-target"] => Ok(FaultEffect::NoTarget),
            _ => Err(ParseFaultError::new("effect")),
        }
    }
}

impl FromStr for FaultRecord {
    type Err = ParseFaultError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut fields = s.split(' ');
        let mut take = |key: &'static str| -> Result<&str, ParseFaultError> {
            let tok = fields
                .next()
                .ok_or_else(|| ParseFaultError::new("record"))?;
            tok.strip_prefix(key)
                .and_then(|rest| rest.strip_prefix('='))
                .ok_or_else(|| ParseFaultError::new("record field"))
        };
        let site: FaultSite = take("site")?.parse()?;
        let at_instret: u64 = parse_dec(take("at")?, "at")?;
        let pc = parse_hex_u32(take("pc")?, "pc")?;
        let cycle: u64 = parse_dec(take("cycle")?, "cycle")?;
        let instret: u64 = parse_dec(take("instret")?, "instret")?;
        let effect: FaultEffect = take("effect")?.parse()?;
        if fields.next().is_some() {
            return Err(ParseFaultError::new("record trailer"));
        }
        Ok(FaultRecord {
            fault: Fault { at_instret, site },
            pc,
            cycle,
            instret,
            effect,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(rec: FaultRecord) {
        let line = rec.to_string();
        let back: FaultRecord = line.parse().expect("parse back");
        assert_eq!(back, rec);
    }

    #[test]
    fn record_line_is_pinned() {
        let rec = FaultRecord {
            fault: Fault {
                at_instret: 10,
                site: FaultSite::MemBit {
                    addr: 0x40,
                    bit: 3,
                    silent: true,
                },
            },
            pc: 0x120,
            cycle: 42,
            instret: 10,
            effect: FaultEffect::FlippedMem {
                addr: 0x40,
                silent: true,
            },
        };
        assert_eq!(
            rec.to_string(),
            "site=mem:0x00000040:3:silent at=10 pc=0x00000120 \
             cycle=42 instret=10 effect=flipped-mem:0x00000040:silent"
        );
        roundtrip(rec);
    }

    #[test]
    fn every_site_and_effect_roundtrips() {
        let sites = [
            FaultSite::MemBit {
                addr: 0x1234,
                bit: 7,
                silent: false,
            },
            FaultSite::MemBit {
                addr: 0xffff_fffc,
                bit: 0,
                silent: true,
            },
            FaultSite::RegBit {
                reg: Reg::A0,
                bit: 31,
            },
            FaultSite::InstrBit { pc: 0x100, bit: 12 },
        ];
        let effects = [
            FaultEffect::FlippedMem {
                addr: 0x1234,
                silent: false,
            },
            FaultEffect::FlippedMem {
                addr: 0x1234,
                silent: true,
            },
            FaultEffect::FlippedReg { reg: Reg::T6 },
            FaultEffect::PatchedInstr { pc: 0x100 },
            FaultEffect::RemovedInstr { pc: 0x104 },
            FaultEffect::NoTarget,
        ];
        for site in sites {
            for effect in effects {
                roundtrip(FaultRecord {
                    fault: Fault {
                        at_instret: 999,
                        site,
                    },
                    pc: 0xdead_bee0,
                    cycle: u64::MAX,
                    instret: 12345,
                    effect,
                });
            }
        }
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "",
            "site=mem:40:3 at=1 pc=0x0 cycle=0 instret=0 effect=no-target",
            "site=mem:0x40:3 at=x pc=0x00000000 cycle=0 instret=0 effect=no-target",
            "site=bogus:0x40:3 at=1 pc=0x00000000 cycle=0 instret=0 effect=no-target",
            "site=mem:0x40:3 at=1 pc=0x00000000 cycle=0 instret=0 effect=no-target extra=1",
        ] {
            assert!(bad.parse::<FaultRecord>().is_err(), "accepted: {bad:?}");
        }
    }
}
