//! TCDM data-layout planning and staging.

use crate::error::CoreError;
use rnnasip_fixed::pla::{hw_table, PlaFunc};
use rnnasip_fixed::Q3p12;
use rnnasip_nn::Matrix;
use rnnasip_sim::Memory;

/// Bytes of slack after each weight region: the `pl.sdotsp` schedule
/// prefetches one packed pair past the end of the first two rows of the
/// final output tile (the fetched values are never consumed), so regions
/// streamed by it need read-valid padding. The simulator's shortcut tier
/// counts that prefetch word into a matvec's weight span (see
/// [`rnnasip_sim::Matvec`]): each entry bounds it and keeps it clear of
/// the region's stores.
pub const STREAM_SLACK: u32 = 8;

/// A bump allocator planning where weights, biases, activations and
/// look-up tables live in the TCDM, plus staging helpers that copy the
/// values into a [`Memory`], one bulk write per call.
///
/// All regions are word-aligned, so packed `lw`/`pl.sdotsp` streams stay
/// aligned for any even element count.
///
/// # Example
///
/// ```
/// use rnnasip_core::DataLayout;
/// use rnnasip_sim::Memory;
///
/// let mut mem = Memory::new(4096);
/// let mut layout = DataLayout::new(0x100, 4096);
/// let addr = layout.alloc_halves(8)?; // room for 8 Q3.12 values
/// assert_eq!(addr % 4, 0);
/// layout.stage_q(&mut mem, addr, &[rnnasip_fixed::Q3p12::from_f64(1.0); 8])?;
/// # Ok::<(), rnnasip_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DataLayout {
    cursor: u32,
    capacity: u32,
}

impl DataLayout {
    /// Creates a layout allocating upward from `base` within a TCDM of
    /// `capacity` bytes.
    pub fn new(base: u32, capacity: usize) -> Self {
        Self {
            cursor: (base + 3) & !3,
            capacity: capacity as u32,
        }
    }

    /// First unallocated address.
    pub fn cursor(&self) -> u32 {
        self.cursor
    }

    /// Allocates `bytes` bytes, word-aligned.
    ///
    /// # Errors
    ///
    /// [`CoreError::OutOfMemory`] if the region does not fit.
    pub fn alloc(&mut self, bytes: u32) -> Result<u32, CoreError> {
        let addr = self.cursor;
        let end = addr
            .checked_add((bytes + 3) & !3)
            .ok_or(CoreError::OutOfMemory {
                needed: bytes as usize,
                capacity: self.capacity as usize,
            })?;
        if end > self.capacity {
            return Err(CoreError::OutOfMemory {
                needed: end as usize,
                capacity: self.capacity as usize,
            });
        }
        self.cursor = end;
        Ok(addr)
    }

    /// Allocates room for `n` Q3.12 halfwords.
    ///
    /// # Errors
    ///
    /// [`CoreError::OutOfMemory`] if the region does not fit.
    pub fn alloc_halves(&mut self, n: usize) -> Result<u32, CoreError> {
        self.alloc((n as u32) * 2)
    }

    /// Allocates room for `n` 32-bit words.
    ///
    /// # Errors
    ///
    /// [`CoreError::OutOfMemory`] if the region does not fit.
    pub fn alloc_words(&mut self, n: usize) -> Result<u32, CoreError> {
        self.alloc((n as u32) * 4)
    }

    /// Allocates a weight region for a matrix with streaming slack.
    ///
    /// # Errors
    ///
    /// [`CoreError::OutOfMemory`] if the region does not fit.
    pub fn alloc_matrix(&mut self, m: &Matrix) -> Result<u32, CoreError> {
        self.alloc((m.rows() * m.cols()) as u32 * 2 + STREAM_SLACK)
    }

    /// Writes Q3.12 values as consecutive halfwords.
    ///
    /// # Errors
    ///
    /// Propagates simulator memory errors.
    pub fn stage_q(&self, mem: &mut Memory, addr: u32, values: &[Q3p12]) -> Result<(), CoreError> {
        mem.write_q3p12_slice(addr, values)?;
        Ok(())
    }

    /// Writes a matrix row-major (the weight-stream layout).
    ///
    /// # Errors
    ///
    /// Propagates simulator memory errors.
    pub fn stage_matrix(&self, mem: &mut Memory, addr: u32, m: &Matrix) -> Result<(), CoreError> {
        mem.write_q3p12_slice(addr, m.data())?;
        Ok(())
    }

    /// Writes a bias vector pre-shifted left by 12 as 32-bit words — the
    /// accumulator-seed format the tiled kernels `lw` directly.
    ///
    /// # Errors
    ///
    /// Propagates simulator memory errors.
    pub fn stage_bias32(
        &self,
        mem: &mut Memory,
        addr: u32,
        bias: &[Q3p12],
    ) -> Result<(), CoreError> {
        mem.write_le(
            addr,
            bias.iter().map(|b| ((b.raw() as i32) << 12).to_le_bytes()),
        )?;
        Ok(())
    }

    /// Stages the four PLA look-up tables (tanh/sig × slope/intercept)
    /// used by the software activation routine of levels a–b, and returns
    /// their base addresses `(tanh_m, tanh_q, sig_m, sig_q)`. Entries are
    /// i16: slopes in Q1.14, intercepts in Q3.12 — identical values to
    /// the hardware unit, which keeps all levels bit-exact.
    ///
    /// # Errors
    ///
    /// Allocation or memory staging failure.
    pub fn stage_pla_luts(&mut self, mem: &mut Memory) -> Result<(u32, u32, u32, u32), CoreError> {
        let mut stage = |func: PlaFunc| -> Result<(u32, u32), CoreError> {
            let table = hw_table(func);
            let n = table.intervals();
            let m_addr = self.alloc_halves(n as usize)?;
            let q_addr = self.alloc_halves(n as usize)?;
            mem.write_le(
                m_addr,
                (0..n).map(|i| (table.slope(i) as i16).to_le_bytes()),
            )?;
            mem.write_le(
                q_addr,
                (0..n).map(|i| (table.intercept(i) as i16).to_le_bytes()),
            )?;
            Ok((m_addr, q_addr))
        };
        let (tm, tq) = stage(PlaFunc::Tanh)?;
        let (sm, sq) = stage(PlaFunc::Sigmoid)?;
        Ok((tm, tq, sm, sq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_word_aligned() {
        let mut l = DataLayout::new(0x102, 4096);
        let a = l.alloc_halves(3).unwrap(); // 6 bytes, rounded to 8
        let b = l.alloc_halves(1).unwrap();
        assert_eq!(a % 4, 0);
        assert_eq!(b % 4, 0);
        assert_eq!(b - a, 8);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut l = DataLayout::new(0, 64);
        assert!(l.alloc(60).is_ok());
        assert!(matches!(l.alloc(8), Err(CoreError::OutOfMemory { .. })));
    }

    #[test]
    fn bias32_staging_preshifts() {
        let mut mem = Memory::new(256);
        let l = DataLayout::new(0, 256);
        let bias = [Q3p12::from_f64(1.0), Q3p12::from_f64(-0.5)];
        l.stage_bias32(&mut mem, 16, &bias).unwrap();
        assert_eq!(mem.read_u32(16).unwrap() as i32, 4096 << 12);
        assert_eq!(mem.read_u32(20).unwrap() as i32, (-2048) << 12);
    }

    #[test]
    fn pla_luts_match_hardware_tables() {
        let mut mem = Memory::new(1024);
        let mut l = DataLayout::new(0, 1024);
        let (tm, tq, _sm, _sq) = l.stage_pla_luts(&mut mem).unwrap();
        let table = hw_table(PlaFunc::Tanh);
        for i in 0..table.intervals() {
            assert_eq!(
                mem.read_u16(tm + 2 * i).unwrap() as i16 as i32,
                table.slope(i)
            );
            assert_eq!(
                mem.read_u16(tq + 2 * i).unwrap() as i16 as i32,
                table.intercept(i)
            );
        }
    }
}
