//! The tightly-coupled data memory (TCDM).

use crate::error::SimError;
use rnnasip_fixed::Q3p12;
use std::sync::Arc;

/// Granularity of dirty-region tracking, in bytes.
///
/// Every write marks its 64-byte block dirty; restoring from a
/// [`MemImage`] copies only dirty blocks back. 64 bytes keeps the
/// bitset small (one bit per block, 8 KiB of bits for a 4 MiB TCDM)
/// while staying close to the actual footprint of kernel writes
/// (activation buffers, gate buffers, step globals).
const BLOCK_BYTES: usize = 64;
const BLOCK_SHIFT: u32 = 6;

/// An immutable snapshot of a [`Memory`]'s contents.
///
/// A snapshot stores only its *populated prefix* — the bytes up to the
/// last nonzero one — plus the full length; every byte beyond the prefix
/// is zero. A 4 MiB TCDM holding a few KiB of staged network data
/// therefore snapshots and loads in time proportional to those KiB.
/// The prefix is always trimmed to its last nonzero byte, so
/// two snapshots are equal (`==`) exactly when their contents are.
///
/// The bytes are shared behind an [`Arc`], so cloning a snapshot (for
/// example when a compiled-network artifact is cloned per worker) costs
/// a reference count, not a copy. Produce one with [`Memory::image`];
/// restore with [`Memory::restore_image`] (dirty blocks only) or
/// [`Memory::from_image`] / [`Memory::load_image`] (everything).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemImage {
    bytes: Arc<[u8]>,
    len: usize,
}

impl MemImage {
    /// Snapshot size in bytes (the size of the memory it was taken
    /// from, populated or not).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The populated prefix: every byte at or beyond
    /// `populated().len()` is zero.
    pub fn populated(&self) -> &[u8] {
        &self.bytes
    }
}

/// The reusable core of every tracked byte store: a flat byte array
/// plus a dirty-block bitmap (one bit per 64-byte block, set on
/// every write since the last snapshot load/restore).
///
/// [`Memory`] wraps this with bounds/alignment checking and the Q3.12
/// accessors the kernels use; the cluster's banked TCDM shares the same
/// implementation through its [`Memory`] storage, so the bulk-patch and
/// incremental-restore logic exists exactly once. All offsets here are
/// pre-validated `usize` indices — out-of-range access panics, which is
/// why the type only crosses the crate boundary behind checked wrappers.
///
/// The store also tracks an *extent*: outside dirty blocks, every byte
/// at or beyond it is zero. Snapshots and full loads use it (with the
/// highest dirty block) to touch only the populated part of the store.
#[derive(Clone, Debug)]
pub struct TrackedMem {
    bytes: Vec<u8>,
    dirty: Box<[u64]>,
    extent: usize,
}

fn dirty_words(size: usize) -> usize {
    size.div_ceil(BLOCK_BYTES).div_ceil(64)
}

impl TrackedMem {
    /// Creates a zero-initialised store of `size` bytes.
    pub fn new(size: usize) -> Self {
        Self {
            bytes: vec![0; size],
            dirty: vec![0; dirty_words(size)].into(),
            extent: 0,
        }
    }

    /// Creates a store holding `image`'s contents, with no blocks marked
    /// dirty. Only the populated prefix is copied; the rest starts as
    /// fresh zeroed memory.
    pub fn from_image(image: &MemImage) -> Self {
        let mut bytes = vec![0; image.len];
        bytes[..image.bytes.len()].copy_from_slice(&image.bytes);
        Self {
            bytes,
            dirty: vec![0; dirty_words(image.len)].into(),
            extent: image.bytes.len(),
        }
    }

    /// Store size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The raw contents.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// End of the highest dirty block (0 when nothing is dirty).
    fn dirty_end(&self) -> usize {
        self.dirty.iter().rposition(|&w| w != 0).map_or(0, |i| {
            let block = (i << 6) + 63 - self.dirty[i].leading_zeros() as usize;
            ((block + 1) << BLOCK_SHIFT).min(self.bytes.len())
        })
    }

    /// Every byte at or beyond this offset is zero.
    fn populated_end(&self) -> usize {
        self.extent.max(self.dirty_end())
    }

    /// Takes an immutable snapshot of the contents, storing only the
    /// populated prefix.
    pub fn image(&self) -> MemImage {
        let end = self.populated_end();
        let used = self.bytes[..end]
            .iter()
            .rposition(|&b| b != 0)
            .map_or(0, |p| p + 1);
        MemImage {
            bytes: Arc::from(&self.bytes[..used]),
            len: self.bytes.len(),
        }
    }

    /// Marks the block containing `addr` dirty.
    #[inline]
    pub fn mark_dirty(&mut self, addr: usize) {
        let block = addr >> BLOCK_SHIFT;
        self.dirty[block >> 6] |= 1 << (block & 63);
    }

    /// Marks every block touched by `[addr, addr + len)` dirty.
    #[inline]
    pub fn mark_dirty_range(&mut self, addr: usize, len: usize) {
        if len == 0 {
            return;
        }
        for block in (addr >> BLOCK_SHIFT)..=((addr + len - 1) >> BLOCK_SHIFT) {
            self.dirty[block >> 6] |= 1 << (block & 63);
        }
    }

    /// Bulk-copies `src` to `addr`, marking every touched block dirty.
    /// The caller must have bounds-checked the range.
    #[inline]
    pub fn write(&mut self, addr: usize, src: &[u8]) {
        self.bytes[addr..addr + src.len()].copy_from_slice(src);
        self.mark_dirty_range(addr, src.len());
    }

    /// Replaces the whole contents with `image` and clears all dirty
    /// bits. Copies the image's populated prefix and zeroes whatever the
    /// store held beyond it.
    ///
    /// # Panics
    ///
    /// Panics if the image size differs from the store size.
    pub fn load_image(&mut self, image: &MemImage) {
        assert_eq!(image.len, self.bytes.len(), "image size mismatch");
        let src = &image.bytes;
        let end = self.populated_end();
        self.bytes[..src.len()].copy_from_slice(src);
        if end > src.len() {
            self.bytes[src.len()..end].fill(0);
        }
        self.dirty.fill(0);
        self.extent = src.len();
    }

    /// Copies back only the blocks written since the last snapshot
    /// load/restore, clearing the dirty bits. Returns the number of
    /// bytes copied (zero-filled blocks beyond the image's populated
    /// prefix count too). Assumes `image` is the snapshot the store last
    /// started from (otherwise clean-but-divergent blocks stay stale).
    ///
    /// # Panics
    ///
    /// Panics if the image size differs from the store size.
    pub fn restore_image(&mut self, image: &MemImage) -> usize {
        assert_eq!(image.len, self.bytes.len(), "image size mismatch");
        let src = &image.bytes;
        let mut restored = 0;
        for (w, word) in self.dirty.iter_mut().enumerate() {
            let mut bits = *word;
            while bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let start = ((w << 6) + bit) << BLOCK_SHIFT;
                if start >= self.bytes.len() {
                    continue;
                }
                let end = (start + BLOCK_BYTES).min(self.bytes.len());
                if end <= src.len() {
                    self.bytes[start..end].copy_from_slice(&src[start..end]);
                } else {
                    // Past the populated prefix (or straddling its end).
                    let copied = src.len().max(start);
                    if copied > start {
                        self.bytes[start..copied].copy_from_slice(&src[start..copied]);
                    }
                    self.bytes[copied..end].fill(0);
                }
                restored += end - start;
            }
            *word = 0;
        }
        self.extent = self.extent.max(src.len());
        restored
    }

    /// Bytes covered by currently-dirty blocks (an upper bound on what
    /// the next [`restore_image`](Self::restore_image) will copy).
    pub fn dirty_bytes(&self) -> usize {
        let blocks: usize = self.dirty.iter().map(|w| w.count_ones() as usize).sum();
        (blocks * BLOCK_BYTES).min(self.bytes.len())
    }

    /// Fills the store with zeros and marks everything dirty.
    pub fn fill_zero(&mut self) {
        let end = self.populated_end();
        self.bytes[..end].fill(0);
        self.dirty.fill(u64::MAX);
        self.extent = 0;
    }

    /// Flips one bit of the byte at `addr`. Returns `false` (and changes
    /// nothing) when `addr` is out of bounds. A silent flip skips dirty
    /// marking — see [`Memory::flip_bit`] — but still widens the extent,
    /// so snapshots see it.
    pub fn flip_bit(&mut self, addr: usize, bit: u32, silent: bool) -> bool {
        if addr >= self.bytes.len() {
            return false;
        }
        self.bytes[addr] ^= 1 << (bit & 7);
        if silent {
            self.extent = self.extent.max(addr + 1);
        } else {
            self.mark_dirty(addr);
        }
        true
    }
}

/// Byte-addressable, little-endian data memory with single-cycle access.
///
/// RI5CY-class cores sit next to a TCDM with deterministic single-cycle
/// latency; there is no cache model. Accesses are bounds-checked and must
/// be naturally aligned — the optimized kernels never issue misaligned
/// accesses, so an unaligned address indicates a code-generation bug and
/// is reported as an error rather than silently split into two accesses.
///
/// The byte store and its dirty-block bitmap live in a [`TrackedMem`];
/// `Memory` adds the checked, typed access surface.
///
/// # Example
///
/// ```
/// use rnnasip_sim::Memory;
///
/// let mut mem = Memory::new(1024);
/// mem.write_u32(0x10, 0xDEAD_BEEF)?;
/// assert_eq!(mem.read_u16(0x10)?, 0xBEEF);
/// # Ok::<(), rnnasip_sim::SimError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Memory {
    t: TrackedMem,
}

impl Memory {
    /// Creates a zero-initialised memory of `size` bytes.
    pub fn new(size: usize) -> Self {
        Self {
            t: TrackedMem::new(size),
        }
    }

    /// Creates a memory holding `image`'s contents, with no blocks
    /// marked dirty (copies only the image's populated prefix).
    pub fn from_image(image: &MemImage) -> Self {
        Self {
            t: TrackedMem::from_image(image),
        }
    }

    /// Memory size in bytes.
    pub fn size(&self) -> usize {
        self.t.len()
    }

    #[inline]
    fn bytes(&self) -> &[u8] {
        self.t.as_bytes()
    }

    /// Takes an immutable snapshot of the current contents (only the
    /// populated prefix is copied — see [`MemImage`]).
    pub fn image(&self) -> MemImage {
        self.t.image()
    }

    /// Replaces the whole contents with `image` and clears all dirty
    /// bits (a full load, touching the image's populated prefix and
    /// whatever this memory held beyond it — use
    /// [`restore_image`](Self::restore_image) for the incremental path).
    ///
    /// # Panics
    ///
    /// Panics if the image size differs from the memory size.
    pub fn load_image(&mut self, image: &MemImage) {
        self.t.load_image(image);
    }

    /// Copies back only the blocks written since the last snapshot
    /// load/restore, clearing the dirty bits. Returns the number of
    /// bytes copied.
    ///
    /// This assumes `image` is the same snapshot the memory last
    /// started from (otherwise clean-but-divergent blocks stay stale) —
    /// exactly the compile-once / run-many contract.
    ///
    /// # Panics
    ///
    /// Panics if the image size differs from the memory size.
    pub fn restore_image(&mut self, image: &MemImage) -> usize {
        self.t.restore_image(image)
    }

    /// Bytes covered by currently-dirty blocks (an upper bound on what
    /// the next [`restore_image`](Self::restore_image) will copy).
    pub fn dirty_bytes(&self) -> usize {
        self.t.dirty_bytes()
    }

    #[inline]
    fn check(&self, addr: u32, size: u32) -> Result<usize, SimError> {
        let a = addr as usize;
        if !a.is_multiple_of(size as usize) {
            return Err(SimError::Misaligned { addr, size });
        }
        if a + size as usize > self.t.len() {
            return Err(SimError::MemOutOfBounds { addr, size });
        }
        Ok(a)
    }

    /// Reads a byte.
    ///
    /// # Errors
    ///
    /// [`SimError::MemOutOfBounds`] past the end of memory.
    pub fn read_u8(&self, addr: u32) -> Result<u8, SimError> {
        let a = self.check(addr, 1)?;
        Ok(self.bytes()[a])
    }

    /// Reads a little-endian halfword.
    ///
    /// # Errors
    ///
    /// [`SimError::Misaligned`] for odd addresses,
    /// [`SimError::MemOutOfBounds`] past the end of memory.
    pub fn read_u16(&self, addr: u32) -> Result<u16, SimError> {
        let a = self.check(addr, 2)?;
        let b = self.bytes();
        Ok(u16::from_le_bytes([b[a], b[a + 1]]))
    }

    /// Reads a little-endian word.
    ///
    /// # Errors
    ///
    /// [`SimError::Misaligned`] / [`SimError::MemOutOfBounds`].
    #[inline]
    pub fn read_u32(&self, addr: u32) -> Result<u32, SimError> {
        let a = self.check(addr, 4)?;
        let word: [u8; 4] = self.bytes()[a..a + 4].try_into().unwrap();
        Ok(u32::from_le_bytes(word))
    }

    /// Writes a byte.
    ///
    /// # Errors
    ///
    /// [`SimError::MemOutOfBounds`] past the end of memory.
    pub fn write_u8(&mut self, addr: u32, value: u8) -> Result<(), SimError> {
        let a = self.check(addr, 1)?;
        self.t.write(a, &[value]);
        Ok(())
    }

    /// Writes a little-endian halfword.
    ///
    /// # Errors
    ///
    /// [`SimError::Misaligned`] / [`SimError::MemOutOfBounds`].
    pub fn write_u16(&mut self, addr: u32, value: u16) -> Result<(), SimError> {
        let a = self.check(addr, 2)?;
        self.t.write(a, &value.to_le_bytes());
        Ok(())
    }

    /// Writes a little-endian word.
    ///
    /// # Errors
    ///
    /// [`SimError::Misaligned`] / [`SimError::MemOutOfBounds`].
    pub fn write_u32(&mut self, addr: u32, value: u32) -> Result<(), SimError> {
        let a = self.check(addr, 4)?;
        self.t.write(a, &value.to_le_bytes());
        Ok(())
    }

    /// Writes a slice of Q3.12 values as consecutive halfwords.
    ///
    /// This is the layout every kernel expects: element `k` at
    /// `addr + 2k`, so a `lw` pulls elements `2k` and `2k+1` into the two
    /// `v2s` lanes.
    ///
    /// # Errors
    ///
    /// [`SimError::Misaligned`] / [`SimError::MemOutOfBounds`].
    pub fn write_q3p12_slice(&mut self, addr: u32, values: &[Q3p12]) -> Result<(), SimError> {
        for (k, v) in values.iter().enumerate() {
            self.write_u16(addr + 2 * k as u32, v.raw() as u16)?;
        }
        Ok(())
    }

    /// Reads `len` consecutive Q3.12 halfwords.
    ///
    /// # Errors
    ///
    /// [`SimError::Misaligned`] / [`SimError::MemOutOfBounds`].
    pub fn read_q3p12_slice(&self, addr: u32, len: usize) -> Result<Vec<Q3p12>, SimError> {
        let mut out = Vec::with_capacity(len);
        self.read_q3p12_into(addr, len, &mut out)?;
        Ok(out)
    }

    /// Reads `len` consecutive Q3.12 halfwords into a caller-owned
    /// buffer (cleared first), with a single bounds/alignment check for
    /// the whole range — the allocation-free twin of
    /// [`read_q3p12_slice`](Self::read_q3p12_slice) for hot run loops
    /// that read outputs back every inference.
    ///
    /// # Errors
    ///
    /// [`SimError::Misaligned`] / [`SimError::MemOutOfBounds`]; `out` is
    /// cleared but not written on error.
    pub fn read_q3p12_into(
        &self,
        addr: u32,
        len: usize,
        out: &mut Vec<Q3p12>,
    ) -> Result<(), SimError> {
        out.clear();
        if len == 0 {
            return Ok(());
        }
        let a = self.check_range(addr, 2, 2 * len)?;
        out.extend(
            self.bytes()[a..a + 2 * len]
                .chunks_exact(2)
                .map(|h| Q3p12::from_raw(i16::from_le_bytes([h[0], h[1]]))),
        );
        Ok(())
    }

    /// Writes a raw byte slice in one bulk copy, marking every touched
    /// 64-byte block dirty. This is the input-patch fast path: one
    /// bounds check and one `memcpy` instead of a checked halfword write
    /// per element. No alignment is required.
    ///
    /// # Errors
    ///
    /// [`SimError::MemOutOfBounds`] when the range does not fit; memory
    /// is unchanged on error.
    pub fn write_bytes(&mut self, addr: u32, bytes: &[u8]) -> Result<(), SimError> {
        if bytes.is_empty() {
            return Ok(());
        }
        let a = self.check_range(addr, 1, bytes.len())?;
        self.t.write(a, bytes);
        Ok(())
    }

    /// Range twin of [`check`](Self::check): the whole `[addr, addr+len)`
    /// span must fit, and `addr` must be aligned to `align`.
    #[inline]
    /// Borrows `len` raw bytes starting at `addr` — the zero-copy
    /// operand view used by the kernel-shortcut handlers.
    ///
    /// # Errors
    ///
    /// [`SimError::MemOutOfBounds`] when the range runs past the end of
    /// memory.
    pub(crate) fn byte_slice(&self, addr: u32, len: usize) -> Result<&[u8], SimError> {
        let a = self.check_range(addr, 1, len)?;
        Ok(&self.bytes()[a..a + len])
    }

    fn check_range(&self, addr: u32, align: u32, len: usize) -> Result<usize, SimError> {
        let a = addr as usize;
        if !a.is_multiple_of(align as usize) {
            return Err(SimError::Misaligned { addr, size: align });
        }
        if a.checked_add(len).is_none_or(|end| end > self.t.len()) {
            return Err(SimError::MemOutOfBounds {
                addr,
                size: len.min(u32::MAX as usize) as u32,
            });
        }
        Ok(a)
    }

    /// Fills the whole memory with zeros and marks everything dirty.
    pub fn clear(&mut self) {
        self.t.fill_zero();
    }

    /// Flips one bit of the byte at `addr`, as a fault-injection
    /// primitive. Returns `false` (and changes nothing) when `addr` is
    /// out of bounds.
    ///
    /// A *tracked* flip (`silent == false`) marks the containing block
    /// dirty, so [`restore_image`](Self::restore_image) undoes it like
    /// any kernel write. A *silent* flip leaves the dirty bitmap alone —
    /// modelling a particle strike the write-tracking hardware never
    /// saw — and therefore survives an incremental restore; only a full
    /// [`load_image`](Self::load_image) is guaranteed to clear it.
    pub fn flip_bit(&mut self, addr: u32, bit: u32, silent: bool) -> bool {
        self.t.flip_bit(addr as usize, bit, silent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn little_endian_layout() {
        let mut mem = Memory::new(64);
        mem.write_u32(0, 0x0403_0201).unwrap();
        assert_eq!(mem.read_u8(0).unwrap(), 0x01);
        assert_eq!(mem.read_u8(3).unwrap(), 0x04);
        assert_eq!(mem.read_u16(2).unwrap(), 0x0403);
    }

    #[test]
    fn bounds_are_enforced() {
        let mem = Memory::new(16);
        assert!(matches!(
            mem.read_u32(16),
            Err(SimError::MemOutOfBounds { .. })
        ));
        assert!(matches!(mem.read_u32(14), Err(SimError::Misaligned { .. })));
        assert!(mem.read_u16(14).is_ok());
    }

    #[test]
    fn misalignment_is_an_error() {
        let mut mem = Memory::new(64);
        assert!(matches!(
            mem.write_u16(1, 7),
            Err(SimError::Misaligned { .. })
        ));
        assert!(matches!(
            mem.write_u32(2, 7),
            Err(SimError::Misaligned { .. })
        ));
    }

    #[test]
    fn restore_undoes_writes_and_scales_with_dirt() {
        let mut mem = Memory::new(4096);
        mem.write_u32(0x100, 0xAAAA_5555).unwrap();
        let image = mem.image();
        // A fresh snapshot load leaves nothing dirty.
        mem.load_image(&image);
        assert_eq!(mem.dirty_bytes(), 0);
        assert_eq!(mem.restore_image(&image), 0);
        // Scribble over two distant blocks.
        mem.write_u16(0x0, 0xDEAD).unwrap();
        mem.write_u32(0x100, 0).unwrap();
        mem.write_u8(0xFFF, 7).unwrap();
        assert_eq!(mem.dirty_bytes(), 3 * 64);
        let restored = mem.restore_image(&image);
        assert_eq!(restored, 3 * 64);
        assert_eq!(mem.read_u16(0x0).unwrap(), 0);
        assert_eq!(mem.read_u32(0x100).unwrap(), 0xAAAA_5555);
        assert_eq!(mem.read_u8(0xFFF).unwrap(), 0);
        assert_eq!(mem.dirty_bytes(), 0);
    }

    #[test]
    fn from_image_copies_contents_clean() {
        let mut mem = Memory::new(256);
        mem.write_u32(8, 0x0102_0304).unwrap();
        let image = mem.image();
        let copy = Memory::from_image(&image);
        assert_eq!(copy.size(), 256);
        assert_eq!(copy.read_u32(8).unwrap(), 0x0102_0304);
        assert_eq!(copy.dirty_bytes(), 0);
    }

    #[test]
    fn clear_marks_everything_dirty() {
        // 100 bytes: final block is partial, exercising the tail guard.
        let mut mem = Memory::new(100);
        mem.write_u8(42, 9).unwrap();
        let image = mem.image();
        let mut other = Memory::from_image(&image);
        other.clear();
        assert_eq!(other.read_u8(42).unwrap(), 0);
        let restored = other.restore_image(&image);
        assert_eq!(restored, 100);
        assert_eq!(other.read_u8(42).unwrap(), 9);
    }

    /// A multi-halfword store whose data straddles a 64-byte block
    /// boundary must mark *both* blocks dirty — each element write marks
    /// its own block, so nothing on the far side of the boundary can be
    /// left stale for the next restore.
    #[test]
    fn slice_write_across_block_boundary_dirties_both_blocks() {
        let mut mem = Memory::new(256);
        let image = mem.image();
        mem.load_image(&image);
        assert_eq!(mem.dirty_bytes(), 0);
        // Four halfwords at 60, 62, 64, 66: the first two land in block
        // 0, the last two in block 1.
        let vals: Vec<Q3p12> = (1..=4).map(Q3p12::from_raw).collect();
        mem.write_q3p12_slice(60, &vals).unwrap();
        assert_eq!(mem.dirty_bytes(), 2 * 64, "both straddled blocks dirty");
        let restored = mem.restore_image(&image);
        assert_eq!(restored, 2 * 64);
        for k in 0..4 {
            assert_eq!(mem.read_u16(60 + 2 * k).unwrap(), 0, "element {k} undone");
        }
    }

    /// Same edge through the machine: a kernel whose stores straddle a
    /// block boundary is fully undone by [`crate::Machine::rewind`].
    #[test]
    fn rewind_restores_stores_on_both_sides_of_a_block_boundary() {
        use crate::{Machine, Program};
        use rnnasip_isa::{AluImmOp, Instr, Reg, StoreOp};
        // sw at 60 writes bytes 60..64 (block 0); sw at 64 writes bytes
        // 64..68 (block 1): the store data crosses the boundary.
        let prog = Program::from_instrs(
            0,
            vec![
                Instr::OpImm {
                    op: AluImmOp::Addi,
                    rd: Reg::A0,
                    rs1: Reg::ZERO,
                    imm: -1,
                },
                Instr::Store {
                    op: StoreOp::Sw,
                    rs2: Reg::A0,
                    rs1: Reg::ZERO,
                    offset: 60,
                },
                Instr::Store {
                    op: StoreOp::Sw,
                    rs2: Reg::A0,
                    rs1: Reg::ZERO,
                    offset: 64,
                },
                Instr::Ecall,
            ],
        );
        let mut mem = Memory::new(256);
        mem.write_u32(60, 0x1111_1111).unwrap();
        mem.write_u32(64, 0x2222_2222).unwrap();
        let image = mem.image();
        mem.load_image(&image);
        let mut m = Machine::with_memory(mem);
        m.load_program(&prog);
        m.run(1000).unwrap();
        assert_eq!(m.mem().read_u32(60).unwrap(), 0xFFFF_FFFF);
        assert_eq!(m.mem().read_u32(64).unwrap(), 0xFFFF_FFFF);
        assert_eq!(m.mem().dirty_bytes(), 2 * 64);
        let restored = m.rewind(&image);
        assert_eq!(restored, 2 * 64, "both blocks restored");
        assert_eq!(m.mem().read_u32(60).unwrap(), 0x1111_1111);
        assert_eq!(m.mem().read_u32(64).unwrap(), 0x2222_2222);
    }

    fn contents(mem: &Memory) -> Vec<u8> {
        (0..mem.size() as u32)
            .map(|a| mem.read_u8(a).unwrap())
            .collect()
    }

    /// A memory holding exactly `bytes`, built by plain writes.
    fn written(bytes: &[u8]) -> Memory {
        let mut mem = Memory::new(bytes.len());
        mem.write_bytes(0, bytes).unwrap();
        mem
    }

    /// Sparse snapshots keep full-copy semantics. Random writes land on
    /// both sides of the staged extent; after every `from_image`,
    /// `load_image` and `restore_image`, each byte must read as in a
    /// plain full-copy model, and snapshots must compare equal exactly
    /// when their contents do.
    #[test]
    fn sparse_images_match_a_full_copy_model() {
        use rnnasip_rng::StdRng;
        const SIZE: usize = 4096;
        let mut rng = StdRng::seed_from_u64(0x5A4E_1A6E);
        for _ in 0..20 {
            let staged = 1 + rng.gen::<u32>() as usize % 1500;
            let mut model = vec![0u8; SIZE];
            let mut mem = Memory::new(SIZE);
            for _ in 0..64 {
                let a = rng.gen::<u32>() as usize % staged;
                model[a] = rng.gen::<u32>() as u8;
                mem.write_u8(a as u32, model[a]).unwrap();
            }
            let image = mem.image();
            assert_eq!(image.len(), SIZE);
            assert!(image.populated().len() <= staged);
            assert!(
                image == written(&model).image(),
                "snapshots compare by content"
            );

            let mut copy = Memory::from_image(&image);
            assert!(contents(&copy) == model, "from_image");
            assert_eq!(copy.dirty_bytes(), 0);
            for round in 0..12 {
                // Scribble on both sides of the extent, near and far.
                let mut restored = 0;
                for _ in 0..8 {
                    let a = match rng.gen::<u32>() % 3 {
                        0 => rng.gen::<u32>() as usize % SIZE,
                        _ => (staged + rng.gen::<u32>() as usize % 256).saturating_sub(128),
                    };
                    copy.write_u8(a as u32, rng.gen::<u32>() as u8 | 1).unwrap();
                }
                let dirty = copy.dirty_bytes();
                match round % 3 {
                    0 => restored = copy.restore_image(&image),
                    1 => copy.load_image(&image),
                    _ => {
                        // A silent flip beyond the extent survives an
                        // incremental restore, shows in snapshots, and a
                        // full load clears it.
                        restored = copy.restore_image(&image);
                        let a = (staged + rng.gen::<u32>() as usize % 512).min(SIZE - 1);
                        copy.flip_bit(a as u32, 3, true);
                        assert_eq!(copy.restore_image(&image), 0);
                        let mut flipped = model.clone();
                        flipped[a] ^= 8;
                        assert!(contents(&copy) == flipped, "silent flip survives");
                        assert!(copy.image() == written(&flipped).image());
                        copy.load_image(&image);
                    }
                }
                if round % 3 != 1 {
                    assert_eq!(restored, dirty, "restored bytes = dirty bytes");
                }
                assert!(contents(&copy) == model, "round {round}");
                assert_eq!(copy.dirty_bytes(), 0);
                assert!(copy.image() == image);
            }
        }
    }

    #[test]
    fn q3p12_slice_round_trip() {
        let mut mem = Memory::new(64);
        let vals: Vec<Q3p12> = [-1.0, 0.5, 7.75, -8.0]
            .iter()
            .map(|&v| Q3p12::from_f64(v))
            .collect();
        mem.write_q3p12_slice(8, &vals).unwrap();
        assert_eq!(mem.read_q3p12_slice(8, 4).unwrap(), vals);
        // Packed pair view: element 0 in the low half of the word.
        let word = mem.read_u32(8).unwrap();
        assert_eq!(word as u16 as i16, vals[0].raw());
        assert_eq!((word >> 16) as u16 as i16, vals[1].raw());
    }

    #[test]
    fn write_bytes_matches_elementwise_writes_and_dirty_marking() {
        // A bulk write spanning three blocks must leave memory and the
        // dirty bitmap exactly as the per-halfword path would.
        let mut a = Memory::new(512);
        let mut b = Memory::new(512);
        let vals: Vec<Q3p12> = (0..80).map(|k| Q3p12::from_raw(k * 257)).collect();
        let bytes: Vec<u8> = vals
            .iter()
            .flat_map(|v| (v.raw() as u16).to_le_bytes())
            .collect();
        a.write_bytes(60, &bytes).unwrap(); // unaligned block offset
        b.write_q3p12_slice(60, &vals).unwrap();
        assert_eq!(a.read_q3p12_slice(60, vals.len()).unwrap(), vals);
        assert_eq!(a.dirty_bytes(), b.dirty_bytes());
        let image = Memory::new(512).image();
        assert_eq!(a.restore_image(&image), b.restore_image(&image));
    }

    #[test]
    fn write_bytes_rejects_out_of_bounds_without_writing() {
        let mut mem = Memory::new(64);
        assert!(mem.write_bytes(60, &[1, 2, 3, 4, 5]).is_err());
        assert_eq!(mem.dirty_bytes(), 0, "failed write must not touch state");
        assert!(mem.write_bytes(u32::MAX, &[1]).is_err());
        mem.write_bytes(62, &[0xAA, 0xBB]).unwrap(); // exactly to the edge
        assert_eq!(mem.read_u16(62).unwrap(), 0xBBAA);
    }

    #[test]
    fn tracked_mem_restore_and_range_marking() {
        let mut t = TrackedMem::new(200);
        let snap = t.image();
        // A range write straddling blocks 0 and 1 dirties both.
        t.write(60, &[0xAB; 8]);
        assert_eq!(t.dirty_bytes(), 2 * 64);
        assert_eq!(t.restore_image(&snap), 2 * 64);
        assert_eq!(t.as_bytes()[60], 0);
        assert_eq!(t.dirty_bytes(), 0);
        // A zero-length range marks nothing.
        t.mark_dirty_range(100, 0);
        assert_eq!(t.dirty_bytes(), 0);
        // fill_zero dirties the whole (partial-tail) store.
        t.fill_zero();
        assert_eq!(t.restore_image(&snap), 200);
    }

    #[test]
    fn tracked_mem_flip_bit_bounds_and_silence() {
        let mut t = TrackedMem::new(64);
        assert!(!t.flip_bit(64, 0, false), "out of bounds flip is a no-op");
        assert!(t.flip_bit(3, 1, true));
        assert_eq!(t.as_bytes()[3], 2);
        assert_eq!(t.dirty_bytes(), 0, "silent flip leaves bitmap alone");
        assert!(t.flip_bit(3, 1, false));
        assert_eq!(t.dirty_bytes(), 64, "tracked flip marks its block");
    }

    #[test]
    fn read_q3p12_into_reuses_the_buffer() {
        let mut mem = Memory::new(64);
        let vals: Vec<Q3p12> = (0..8).map(|k| Q3p12::from_raw(k - 4)).collect();
        mem.write_q3p12_slice(16, &vals).unwrap();
        let mut out = Vec::new();
        mem.read_q3p12_into(16, 8, &mut out).unwrap();
        assert_eq!(out, vals);
        let cap = out.capacity();
        mem.read_q3p12_into(16, 8, &mut out).unwrap();
        assert_eq!(out, vals);
        assert_eq!(out.capacity(), cap, "re-read must not reallocate");
        // Errors clear the buffer and match the per-element path's kind.
        assert!(mem.read_q3p12_into(15, 2, &mut out).is_err());
        assert!(out.is_empty());
        assert!(mem.read_q3p12_into(60, 4, &mut out).is_err());
    }
}
