//! General-purpose register names.

use core::fmt;

/// One of the 32 general-purpose integer registers `x0`–`x31`.
///
/// Displayed with its ABI name (`zero`, `ra`, `sp`, …, `t6`), which is also
/// what the assembler accepts.
///
/// # Example
///
/// ```
/// use rnnasip_isa::Reg;
///
/// assert_eq!(Reg::A0.to_string(), "a0");
/// assert_eq!(Reg::new(10), Some(Reg::A0));
/// assert_eq!("t3".parse::<Reg>()?, Reg::T3);
/// # Ok::<(), rnnasip_isa::ParseRegError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u8);

/// ABI names indexed by register number.
const ABI_NAMES: [&str; 32] = [
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0", "a1", "a2", "a3", "a4",
    "a5", "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11", "t3", "t4",
    "t5", "t6",
];

macro_rules! reg_consts {
    ($($name:ident = $n:expr;)*) => {
        impl Reg {
            $(
                #[doc = concat!("Register `x", stringify!($n), "`.")]
                pub const $name: Reg = Reg($n);
            )*
        }
    };
}

reg_consts! {
    ZERO = 0; RA = 1; SP = 2; GP = 3; TP = 4;
    T0 = 5; T1 = 6; T2 = 7;
    S0 = 8; S1 = 9;
    A0 = 10; A1 = 11; A2 = 12; A3 = 13; A4 = 14; A5 = 15; A6 = 16; A7 = 17;
    S2 = 18; S3 = 19; S4 = 20; S5 = 21; S6 = 22; S7 = 23; S8 = 24; S9 = 25;
    S10 = 26; S11 = 27;
    T3 = 28; T4 = 29; T5 = 30; T6 = 31;
}

impl Reg {
    /// Creates a register from its number, or `None` if `n > 31`.
    #[inline]
    pub const fn new(n: u8) -> Option<Self> {
        if n < 32 {
            Some(Reg(n))
        } else {
            None
        }
    }

    /// Creates a register from the low 5 bits of `n` (encoding fields).
    #[inline]
    pub const fn from_bits(n: u32) -> Self {
        Reg((n & 0x1f) as u8)
    }

    /// The register number, 0–31.
    #[inline]
    pub const fn num(self) -> u8 {
        self.0
    }

    /// The register's ABI name (e.g. `"a0"`).
    #[inline]
    pub fn abi_name(self) -> &'static str {
        ABI_NAMES[self.0 as usize]
    }

    /// Whether this is the hard-wired zero register `x0`.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Whether this register is encodable in the compressed (RVC) 3-bit
    /// register field (`x8`–`x15`).
    #[inline]
    pub const fn is_compressible(self) -> bool {
        self.0 >= 8 && self.0 <= 15
    }

    /// Iterator over all 32 registers in numeric order.
    pub fn all() -> impl Iterator<Item = Reg> {
        (0u8..32).map(Reg)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abi_name())
    }
}

impl fmt::Debug for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Reg({}/{})", self.0, self.abi_name())
    }
}

/// Error returned when parsing a register name fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRegError {
    name: String,
}

impl fmt::Display for ParseRegError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown register name `{}`", self.name)
    }
}

impl std::error::Error for ParseRegError {}

impl std::str::FromStr for Reg {
    type Err = ParseRegError;

    /// Parses either an ABI name (`a0`, `t3`, `fp`) or a numeric name
    /// (`x17`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "fp" {
            return Ok(Reg::S0);
        }
        if let Some(pos) = ABI_NAMES.iter().position(|&n| n == s) {
            return Ok(Reg(pos as u8));
        }
        if let Some(num) = s.strip_prefix('x') {
            if let Ok(n) = num.parse::<u8>() {
                if let Some(r) = Reg::new(n) {
                    return Ok(r);
                }
            }
        }
        Err(ParseRegError { name: s.to_owned() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abi_names_round_trip() {
        for r in Reg::all() {
            let parsed: Reg = r.abi_name().parse().unwrap();
            assert_eq!(parsed, r);
        }
    }

    #[test]
    fn numeric_names_parse() {
        assert_eq!("x0".parse::<Reg>().unwrap(), Reg::ZERO);
        assert_eq!("x31".parse::<Reg>().unwrap(), Reg::T6);
        assert!("x32".parse::<Reg>().is_err());
        assert!("q1".parse::<Reg>().is_err());
    }

    #[test]
    fn fp_is_s0() {
        assert_eq!("fp".parse::<Reg>().unwrap(), Reg::S0);
    }

    #[test]
    fn compressible_window() {
        assert!(Reg::S0.is_compressible());
        assert!(Reg::A5.is_compressible());
        assert!(!Reg::A6.is_compressible());
        assert!(!Reg::T0.is_compressible());
    }
}
