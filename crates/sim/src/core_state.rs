//! Architectural state of the core.

use rnnasip_isa::Reg;

/// One hardware-loop register set (`lpstart`, `lpend`, `lpcount`).
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct HwLoop {
    /// First instruction of the loop body.
    pub start: u32,
    /// Address just past the last instruction of the body.
    pub end: u32,
    /// Remaining iterations; the loop is inactive when zero.
    pub count: u32,
}

impl HwLoop {
    /// Whether the loop is currently armed.
    pub fn active(&self) -> bool {
        self.count > 0
    }
}

/// Architectural state: GPRs, PC, hardware loops, the RNN extension's
/// special-purpose register pair, and the machine counters.
///
/// Kept separate from the [`Machine`](crate::Machine) so state can be
/// snapshotted, inspected and asserted on in tests without dragging the
/// memory image along.
#[derive(Clone, Debug)]
pub struct Core {
    regs: [u32; 32],
    /// Program counter.
    pub pc: u32,
    /// The two hardware-loop register sets.
    pub hwloop: [HwLoop; 2],
    /// The two special-purpose registers feeding `pl.sdotsp.h.{0,1}`.
    pub spr: [u32; 2],
    /// Cycle counter (`mcycle`).
    pub cycle: u64,
    /// Retired-instruction counter (`minstret`).
    pub instret: u64,
}

impl Core {
    /// Creates a reset core: all registers zero, PC at `entry`.
    pub fn new(entry: u32) -> Self {
        Self {
            regs: [0; 32],
            pc: entry,
            hwloop: [HwLoop::default(); 2],
            spr: [0; 2],
            cycle: 0,
            instret: 0,
        }
    }

    /// Reads a general-purpose register (`x0` always reads zero).
    #[inline]
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.num() as usize]
    }

    /// Writes a general-purpose register (writes to `x0` are ignored).
    #[inline]
    pub fn set_reg(&mut self, r: Reg, value: u32) {
        if !r.is_zero() {
            self.regs[r.num() as usize] = value;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x0_is_hardwired_zero() {
        let mut c = Core::new(0);
        c.set_reg(Reg::ZERO, 123);
        assert_eq!(c.reg(Reg::ZERO), 0);
        c.set_reg(Reg::A0, 123);
        assert_eq!(c.reg(Reg::A0), 123);
    }

    #[test]
    fn loops_inactive_at_reset() {
        let c = Core::new(0x100);
        assert_eq!(c.pc, 0x100);
        assert!(!c.hwloop[0].active());
        assert!(!c.hwloop[1].active());
    }
}
