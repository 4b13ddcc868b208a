//! Architectural state of the core, and the timing rules that act on
//! the state between two retirements: the hardware-loop jump-back and
//! the [`Pipe`] of in-flight SPR writes and the pending load. The
//! interpreter, the block runner and the shortcut verifier's walk all
//! apply these, so each rule is written here once.

use crate::uop::Uop;
use rnnasip_isa::{MnemonicId, Reg};

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

    /// Whether `lp.setup`/`lp.setupi` may arm this configuration: an
    /// armed loop's body must start before it ends.
    pub(crate) fn valid(&self) -> bool {
        self.count == 0 || self.start < self.end
    }

    /// The zero-overhead jump-back, when the fall-through PC reaches
    /// `next_addr`: the first armed level (inner, 0, first) whose end it
    /// is jumps back to its start, returned with the level. A level on
    /// its last iteration expires instead and falls through, so an outer
    /// level sharing the end address gets its jump-back. `None` levels
    /// (unconfigured, in the verifier's walk) never fire.
    #[inline(always)]
    pub(crate) fn jump_back(
        levels: [Option<&mut HwLoop>; 2],
        next_addr: u32,
    ) -> Option<(usize, u32)> {
        for (level, lp) in levels.into_iter().enumerate() {
            let Some(lp) = lp else { continue };
            if lp.count > 0 && next_addr == lp.end {
                if lp.count > 1 {
                    lp.count -= 1;
                    return Some((level, lp.start));
                }
                lp.count = 0;
            }
        }
        None
    }
}

/// What one retirement leaves for the next ops: the `pl.sdotsp` SPR
/// writes still in flight and the load-use hazard of the last op.
///
/// `T` is a write's payload: the loaded weight word on the machine, the
/// word's abstract address in the shortcut verifier's walk. A write
/// issued by the op retiring at `instret` n becomes visible once
/// `instret` reaches n + 2 (the bubble Table II's schedule hides). Every
/// op that issues [`drain`](Self::drain)s first, so the writes in flight
/// were issued at two different retirements one apart, and
/// [`issue`](Self::issue) into a full pipe is a bug.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Pipe<T> {
    /// In-flight writes, `(landing instret, slot, payload)`, each at the
    /// index its landing point's parity gives, so issuing and landing
    /// move no entry and keep no count the next op must wait for. A
    /// free entry is `(u64::MAX, 0, T::default())`.
    writes: [(u64, usize, T); 2],
    /// The last retired op's load, `(destination, row)`: entering an op
    /// that reads the destination costs one stall cycle, charged to the
    /// load's row.
    pub load: Option<(u8, MnemonicId)>,
}

impl<T: Copy + Default> Default for Pipe<T> {
    fn default() -> Self {
        Self {
            writes: [(u64::MAX, 0, T::default()); 2],
            load: None,
        }
    }
}

impl<T: Copy + Default> Pipe<T> {
    /// Queues the SPR write of a `pl.sdotsp` retiring at `instret`: it
    /// lands at `instret + 2`.
    ///
    /// # Panics
    ///
    /// Panics if the entry its landing point's parity names is taken,
    /// which only a third write in flight can cause.
    #[inline(always)]
    pub(crate) fn issue(&mut self, instret: u64, slot: usize, payload: T) {
        let at = instret + 2;
        let w = &mut self.writes[(at & 1) as usize];
        assert_eq!(w.0, u64::MAX, "a third SPR write in flight");
        *w = (at, slot, payload);
    }

    /// Lands the oldest write if `instret` has reached its landing
    /// point, returning its slot and payload. Called until it returns
    /// `None` before each op executes.
    #[inline(always)]
    pub(crate) fn drain(&mut self, instret: u64) -> Option<(usize, T)> {
        let w = &mut self.writes[usize::from(self.writes[1].0 < self.writes[0].0)];
        if w.0 > instret {
            return None;
        }
        let (_, slot, payload) = std::mem::replace(w, (u64::MAX, 0, T::default()));
        Some((slot, payload))
    }

    /// The load-use stall on entering `u`: takes the pending load and
    /// returns the row to charge the stall cycle to, if `u` reads it.
    #[inline(always)]
    pub(crate) fn stall(&mut self, u: &Uop) -> Option<MnemonicId> {
        u.stall_after(self.load.take())
    }

    /// Retires `u`: its load, if any, becomes the pending load.
    #[inline(always)]
    pub(crate) fn retire(&mut self, u: &Uop) {
        self.load = u.pending_load();
    }

    /// How many writes are in flight.
    pub(crate) fn len(&self) -> usize {
        self.writes.iter().filter(|w| w.0 != u64::MAX).count()
    }

    /// The writes in flight, oldest first, keyed by landing `instret`.
    pub(crate) fn writes(&self) -> impl Iterator<Item = (u64, usize, T)> {
        let [a, b] = self.writes;
        let (x, y) = if a.0 <= b.0 { (a, b) } else { (b, a) };
        [x, y].into_iter().filter(|w| w.0 != u64::MAX)
    }

    /// The writes in flight, oldest first, for the walk to move their
    /// payloads.
    pub(crate) fn writes_mut(&mut self) -> impl Iterator<Item = &mut (u64, usize, T)> {
        let [a, b] = &mut self.writes;
        let (x, y) = if a.0 <= b.0 { (a, b) } else { (b, a) };
        [x, y].into_iter().filter(|w| w.0 != u64::MAX)
    }

    /// Moves every write's landing point `by` retirements later: the walk
    /// skipping summarized iterations, or a shortcut commit turning its
    /// region-relative exit pipe into the machine's at entry `instret`.
    pub(crate) fn rebase(&mut self, by: u64) {
        for w in self.writes_mut() {
            w.0 += by;
        }
        // Each write stays at its landing point's parity.
        if by & 1 == 1 {
            self.writes.swap(0, 1);
        }
    }

    /// The same pipe with every payload mapped through `f`, or `None` if
    /// `f` fails on one.
    pub(crate) fn try_map<U: Copy + Default>(
        &self,
        mut f: impl FnMut(T) -> Option<U>,
    ) -> Option<Pipe<U>> {
        let mut out = Pipe {
            load: self.load,
            ..Pipe::default()
        };
        for (o, &(at, slot, payload)) in out.writes.iter_mut().zip(&self.writes) {
            if at != u64::MAX {
                *o = (at, slot, f(payload)?);
            }
        }
        Some(out)
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
    use rnnasip_rng::StdRng;
    use std::collections::VecDeque;

    /// The reference the pipe replaced: a deque of `(issue instret,
    /// slot, word)`, draining what was issued two or more retirements
    /// ago into the SPR file.
    fn drain_ref(q: &mut VecDeque<(u64, usize, u32)>, spr: &mut [u32; 2], instret: u64) {
        while q.front().is_some_and(|w| w.0 + 2 <= instret) {
            let (_, slot, v) = q.pop_front().unwrap();
            spr[slot] = v;
        }
    }

    fn drain(pipe: &mut Pipe<u32>, spr: &mut [u32; 2], instret: u64) {
        while let Some((slot, v)) = pipe.drain(instret) {
            spr[slot] = v;
        }
    }

    #[test]
    fn pipe_lands_writes_where_a_deque_does() {
        let mut rng = StdRng::seed_from_u64(0x919E);
        let mut regions = 0;
        for _ in 0..300 {
            let (mut pipe, mut spr) = (Pipe::<u32>::default(), [0u32; 2]);
            let (mut q, mut spr_ref) = (VecDeque::new(), [0u32; 2]);
            let mut instret = 0u64;
            while instret < 200 {
                if pipe.len() == 0 && rng.gen::<u32>().is_multiple_of(8) {
                    // A shortcut region: its ops run on a pipe of their
                    // own from instret 0, which the commit rebases to
                    // the entry; what landed inside reaches the SPRs.
                    let (entry, mut inner) = (instret, Pipe::<u32>::default());
                    for j in 0..1 + u64::from(rng.gen::<u32>() % 8) {
                        drain(&mut inner, &mut spr, j);
                        drain_ref(&mut q, &mut spr_ref, entry + j);
                        if !rng.gen::<u32>().is_multiple_of(3) {
                            let (slot, v) = ((rng.gen::<u32>() & 1) as usize, rng.gen());
                            inner.issue(j, slot, v);
                            q.push_back((entry + j, slot, v));
                        }
                        instret += 1;
                    }
                    pipe = inner.try_map(Some).unwrap();
                    pipe.rebase(entry);
                    regions += 1;
                    continue;
                }
                drain(&mut pipe, &mut spr, instret);
                drain_ref(&mut q, &mut spr_ref, instret);
                assert_eq!(spr, spr_ref, "SPRs at instret {instret}");
                assert_eq!(pipe.len(), q.len(), "in flight at {instret}");
                for (w, r) in pipe.writes().zip(&q) {
                    assert_eq!(w, (r.0 + 2, r.1, r.2));
                }
                if !rng.gen::<u32>().is_multiple_of(3) {
                    let (slot, v) = ((rng.gen::<u32>() & 1) as usize, rng.gen());
                    pipe.issue(instret, slot, v);
                    q.push_back((instret, slot, v));
                }
                instret += 1;
            }
        }
        assert!(regions > 500, "{regions} regions");
    }

    #[test]
    #[should_panic]
    fn a_third_write_in_flight_is_a_bug() {
        let mut pipe = Pipe::<u32>::default();
        pipe.issue(0, 0, 1);
        pipe.issue(1, 1, 2);
        pipe.issue(2, 0, 3);
    }

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
