//! The instruction enumeration and its static metadata.

use crate::csr::Csr;
use crate::mnemonic::MnemonicId;
use crate::reg::Reg;

/// Conditional branch comparison.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BranchOp {
    /// `beq` — branch if equal.
    Beq,
    /// `bne` — branch if not equal.
    Bne,
    /// `blt` — branch if less than (signed).
    Blt,
    /// `bge` — branch if greater or equal (signed).
    Bge,
    /// `bltu` — branch if less than (unsigned).
    Bltu,
    /// `bgeu` — branch if greater or equal (unsigned).
    Bgeu,
}

impl BranchOp {
    /// Instruction mnemonic.
    pub const fn mnemonic(self) -> &'static str {
        match self {
            BranchOp::Beq => "beq",
            BranchOp::Bne => "bne",
            BranchOp::Blt => "blt",
            BranchOp::Bge => "bge",
            BranchOp::Bltu => "bltu",
            BranchOp::Bgeu => "bgeu",
        }
    }

    /// The `funct3` field encoding this comparison.
    pub const fn funct3(self) -> u32 {
        match self {
            BranchOp::Beq => 0b000,
            BranchOp::Bne => 0b001,
            BranchOp::Blt => 0b100,
            BranchOp::Bge => 0b101,
            BranchOp::Bltu => 0b110,
            BranchOp::Bgeu => 0b111,
        }
    }
}

/// Memory load width / signedness.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LoadOp {
    /// `lb` — load byte, sign-extended.
    Lb,
    /// `lh` — load halfword, sign-extended.
    Lh,
    /// `lw` — load word.
    Lw,
    /// `lbu` — load byte, zero-extended.
    Lbu,
    /// `lhu` — load halfword, zero-extended.
    Lhu,
}

impl LoadOp {
    /// Instruction mnemonic (base form).
    pub const fn mnemonic(self) -> &'static str {
        match self {
            LoadOp::Lb => "lb",
            LoadOp::Lh => "lh",
            LoadOp::Lw => "lw",
            LoadOp::Lbu => "lbu",
            LoadOp::Lhu => "lhu",
        }
    }

    /// The `funct3` field.
    pub const fn funct3(self) -> u32 {
        match self {
            LoadOp::Lb => 0b000,
            LoadOp::Lh => 0b001,
            LoadOp::Lw => 0b010,
            LoadOp::Lbu => 0b100,
            LoadOp::Lhu => 0b101,
        }
    }

    /// Access size in bytes.
    pub const fn size(self) -> u32 {
        match self {
            LoadOp::Lb | LoadOp::Lbu => 1,
            LoadOp::Lh | LoadOp::Lhu => 2,
            LoadOp::Lw => 4,
        }
    }
}

/// Memory store width.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum StoreOp {
    /// `sb` — store byte.
    Sb,
    /// `sh` — store halfword.
    Sh,
    /// `sw` — store word.
    Sw,
}

impl StoreOp {
    /// Instruction mnemonic (base form).
    pub const fn mnemonic(self) -> &'static str {
        match self {
            StoreOp::Sb => "sb",
            StoreOp::Sh => "sh",
            StoreOp::Sw => "sw",
        }
    }

    /// The `funct3` field.
    pub const fn funct3(self) -> u32 {
        match self {
            StoreOp::Sb => 0b000,
            StoreOp::Sh => 0b001,
            StoreOp::Sw => 0b010,
        }
    }

    /// Access size in bytes.
    pub const fn size(self) -> u32 {
        match self {
            StoreOp::Sb => 1,
            StoreOp::Sh => 2,
            StoreOp::Sw => 4,
        }
    }
}

/// Register–immediate ALU operation (`OP-IMM` major opcode).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AluImmOp {
    /// `addi`
    Addi,
    /// `slti` — set if less than immediate (signed).
    Slti,
    /// `sltiu` — set if less than immediate (unsigned).
    Sltiu,
    /// `xori`
    Xori,
    /// `ori`
    Ori,
    /// `andi`
    Andi,
    /// `slli` — shift left logical immediate.
    Slli,
    /// `srli` — shift right logical immediate.
    Srli,
    /// `srai` — shift right arithmetic immediate.
    Srai,
}

impl AluImmOp {
    /// Instruction mnemonic.
    pub const fn mnemonic(self) -> &'static str {
        match self {
            AluImmOp::Addi => "addi",
            AluImmOp::Slti => "slti",
            AluImmOp::Sltiu => "sltiu",
            AluImmOp::Xori => "xori",
            AluImmOp::Ori => "ori",
            AluImmOp::Andi => "andi",
            AluImmOp::Slli => "slli",
            AluImmOp::Srli => "srli",
            AluImmOp::Srai => "srai",
        }
    }
}

/// Register–register ALU operation (`OP` major opcode, funct7 ∈ {0, 0x20}).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AluOp {
    /// `add`
    Add,
    /// `sub`
    Sub,
    /// `sll`
    Sll,
    /// `slt`
    Slt,
    /// `sltu`
    Sltu,
    /// `xor`
    Xor,
    /// `srl`
    Srl,
    /// `sra`
    Sra,
    /// `or`
    Or,
    /// `and`
    And,
}

impl AluOp {
    /// Instruction mnemonic.
    pub const fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Sll => "sll",
            AluOp::Slt => "slt",
            AluOp::Sltu => "sltu",
            AluOp::Xor => "xor",
            AluOp::Srl => "srl",
            AluOp::Sra => "sra",
            AluOp::Or => "or",
            AluOp::And => "and",
        }
    }
}

/// RV32M multiply/divide operation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MulDivOp {
    /// `mul` — low 32 bits of the product.
    Mul,
    /// `mulh` — high 32 bits of signed×signed.
    Mulh,
    /// `mulhsu` — high 32 bits of signed×unsigned.
    Mulhsu,
    /// `mulhu` — high 32 bits of unsigned×unsigned.
    Mulhu,
    /// `div` — signed division.
    Div,
    /// `divu` — unsigned division.
    Divu,
    /// `rem` — signed remainder.
    Rem,
    /// `remu` — unsigned remainder.
    Remu,
}

impl MulDivOp {
    /// Instruction mnemonic.
    pub const fn mnemonic(self) -> &'static str {
        match self {
            MulDivOp::Mul => "mul",
            MulDivOp::Mulh => "mulh",
            MulDivOp::Mulhsu => "mulhsu",
            MulDivOp::Mulhu => "mulhu",
            MulDivOp::Div => "div",
            MulDivOp::Divu => "divu",
            MulDivOp::Rem => "rem",
            MulDivOp::Remu => "remu",
        }
    }

    /// The `funct3` field.
    pub const fn funct3(self) -> u32 {
        match self {
            MulDivOp::Mul => 0b000,
            MulDivOp::Mulh => 0b001,
            MulDivOp::Mulhsu => 0b010,
            MulDivOp::Mulhu => 0b011,
            MulDivOp::Div => 0b100,
            MulDivOp::Divu => 0b101,
            MulDivOp::Rem => 0b110,
            MulDivOp::Remu => 0b111,
        }
    }
}

/// CSR access operation (`SYSTEM` major opcode).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CsrOp {
    /// `csrrw` — atomic read/write.
    Csrrw,
    /// `csrrs` — atomic read and set bits.
    Csrrs,
    /// `csrrc` — atomic read and clear bits.
    Csrrc,
}

impl CsrOp {
    /// Instruction mnemonic.
    pub const fn mnemonic(self) -> &'static str {
        match self {
            CsrOp::Csrrw => "csrrw",
            CsrOp::Csrrs => "csrrs",
            CsrOp::Csrrc => "csrrc",
        }
    }
}

/// Hardware-loop index: RI5CY provides two nested loop levels.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LoopIdx {
    /// Loop register set 0 (innermost by convention).
    L0,
    /// Loop register set 1.
    L1,
}

impl LoopIdx {
    /// 0 or 1.
    pub const fn index(self) -> usize {
        match self {
            LoopIdx::L0 => 0,
            LoopIdx::L1 => 1,
        }
    }

    /// Constructs from an index bit.
    pub const fn from_bit(bit: u32) -> Self {
        if bit & 1 == 0 {
            LoopIdx::L0
        } else {
            LoopIdx::L1
        }
    }
}

/// SIMD element size for `pv.*` instructions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SimdSize {
    /// `.h` — two 16-bit lanes.
    Half,
    /// `.b` — four 8-bit lanes.
    Byte,
}

impl SimdSize {
    /// Mnemonic suffix (`"h"` or `"b"`).
    pub const fn suffix(self) -> &'static str {
        match self {
            SimdSize::Half => "h",
            SimdSize::Byte => "b",
        }
    }
}

/// SIMD operand mode for `pv.*` ALU instructions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SimdMode {
    /// Vector–vector: both operands are packed registers.
    Vv,
    /// Vector–scalar: the scalar in `rs2[15:0]`/`rs2[7:0]` is replicated.
    Sc,
    /// Vector–immediate: a 6-bit sign-extended immediate is replicated.
    Sci(i8),
}

/// Packed-SIMD ALU operation (lane-wise).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PvAluOp {
    /// `pv.add` — lane-wise add.
    Add,
    /// `pv.sub` — lane-wise subtract.
    Sub,
    /// `pv.avg` — lane-wise signed average (arithmetic shift of sum).
    Avg,
    /// `pv.min` — lane-wise signed minimum.
    Min,
    /// `pv.max` — lane-wise signed maximum.
    Max,
    /// `pv.srl` — lane-wise logical right shift.
    Srl,
    /// `pv.sra` — lane-wise arithmetic right shift.
    Sra,
    /// `pv.sll` — lane-wise left shift.
    Sll,
    /// `pv.or` — lane-wise or.
    Or,
    /// `pv.xor` — lane-wise xor.
    Xor,
    /// `pv.and` — lane-wise and.
    And,
    /// `pv.abs` — lane-wise absolute value (unary; `rs2` ignored).
    Abs,
}

impl PvAluOp {
    /// Base mnemonic without size/mode suffixes.
    pub const fn mnemonic(self) -> &'static str {
        match self {
            PvAluOp::Add => "pv.add",
            PvAluOp::Sub => "pv.sub",
            PvAluOp::Avg => "pv.avg",
            PvAluOp::Min => "pv.min",
            PvAluOp::Max => "pv.max",
            PvAluOp::Srl => "pv.srl",
            PvAluOp::Sra => "pv.sra",
            PvAluOp::Sll => "pv.sll",
            PvAluOp::Or => "pv.or",
            PvAluOp::Xor => "pv.xor",
            PvAluOp::And => "pv.and",
            PvAluOp::Abs => "pv.abs",
        }
    }
}

/// Packed-SIMD dot-product operation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DotOp {
    /// `pv.dotup` — unsigned × unsigned, overwrite `rd`.
    DotUp,
    /// `pv.dotusp` — unsigned × signed, overwrite `rd`.
    DotUsp,
    /// `pv.dotsp` — signed × signed, overwrite `rd`.
    DotSp,
    /// `pv.sdotup` — unsigned × unsigned, accumulate into `rd`.
    SdotUp,
    /// `pv.sdotusp` — unsigned × signed, accumulate into `rd`.
    SdotUsp,
    /// `pv.sdotsp` — signed × signed, accumulate into `rd` (the paper's
    /// workhorse, Equation 7).
    SdotSp,
}

impl DotOp {
    /// Base mnemonic without size suffix.
    pub const fn mnemonic(self) -> &'static str {
        match self {
            DotOp::DotUp => "pv.dotup",
            DotOp::DotUsp => "pv.dotusp",
            DotOp::DotSp => "pv.dotsp",
            DotOp::SdotUp => "pv.sdotup",
            DotOp::SdotUsp => "pv.sdotusp",
            DotOp::SdotSp => "pv.sdotsp",
        }
    }

    /// Whether `rd` is read (accumulating forms).
    pub const fn accumulates(self) -> bool {
        matches!(self, DotOp::SdotUp | DotOp::SdotUsp | DotOp::SdotSp)
    }
}

/// Static functional-unit latency bucket of an instruction — see
/// [`Instr::timing_class`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TimingClass {
    /// Single-cycle issue and retire (everything but the buckets below).
    Single,
    /// High-half multiplies (`mulh`/`mulhsu`/`mulhu`): multi-cycle on
    /// RI5CY's 32×32→64 multiplier.
    HighMultiply,
    /// The serial divider (`div`/`divu`/`rem`/`remu`).
    SerialDivide,
}

/// A decoded instruction of the RNN-extended RISC-V core.
///
/// The enum is organised by instruction *class*; static per-class operand
/// metadata ([`Instr::defs`], [`Instr::uses`], [`Instr::is_control_flow`],
/// …) is what the simulator's timing model and the assembler's formatter
/// consume.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Instr {
    // ------------------------------------------------------------------
    // RV32I
    // ------------------------------------------------------------------
    /// `lui rd, imm20` — load upper immediate.
    Lui {
        /// Destination register.
        rd: Reg,
        /// Upper 20 bits (already shifted left by 12 when applied).
        imm20: i32,
    },
    /// `auipc rd, imm20` — add upper immediate to PC.
    Auipc {
        /// Destination register.
        rd: Reg,
        /// Upper 20 bits.
        imm20: i32,
    },
    /// `jal rd, offset` — jump and link.
    Jal {
        /// Link register.
        rd: Reg,
        /// Signed byte offset from this instruction.
        offset: i32,
    },
    /// `jalr rd, offset(rs1)` — indirect jump and link.
    Jalr {
        /// Link register.
        rd: Reg,
        /// Base register.
        rs1: Reg,
        /// Signed byte offset.
        offset: i32,
    },
    /// Conditional branch `op rs1, rs2, offset`.
    Branch {
        /// Comparison.
        op: BranchOp,
        /// First compared register.
        rs1: Reg,
        /// Second compared register.
        rs2: Reg,
        /// Signed byte offset from this instruction.
        offset: i32,
    },
    /// Load `op rd, offset(rs1)`.
    Load {
        /// Width/signedness.
        op: LoadOp,
        /// Destination register.
        rd: Reg,
        /// Base address register.
        rs1: Reg,
        /// Signed byte offset.
        offset: i32,
    },
    /// Store `op rs2, offset(rs1)`.
    Store {
        /// Width.
        op: StoreOp,
        /// Source register.
        rs2: Reg,
        /// Base address register.
        rs1: Reg,
        /// Signed byte offset.
        offset: i32,
    },
    /// Register–immediate ALU `op rd, rs1, imm`.
    OpImm {
        /// Operation.
        op: AluImmOp,
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs1: Reg,
        /// Immediate (sign-extended; shift amount for shifts).
        imm: i32,
    },
    /// Register–register ALU `op rd, rs1, rs2`.
    Op {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// First source.
        rs1: Reg,
        /// Second source.
        rs2: Reg,
    },
    /// RV32M multiply/divide `op rd, rs1, rs2`.
    MulDiv {
        /// Operation.
        op: MulDivOp,
        /// Destination register.
        rd: Reg,
        /// First source.
        rs1: Reg,
        /// Second source.
        rs2: Reg,
    },
    /// `fence` — memory ordering (a no-op on the single-hart TCDM core).
    Fence,
    /// `ecall` — environment call; the simulator treats it as *halt*.
    Ecall,
    /// `ebreak` — breakpoint trap.
    Ebreak,
    /// CSR access `op rd, csr, rs1`.
    Csr {
        /// Operation.
        op: CsrOp,
        /// Destination (old CSR value).
        rd: Reg,
        /// Source operand.
        rs1: Reg,
        /// Target CSR.
        csr: Csr,
    },

    // ------------------------------------------------------------------
    // Xpulp: post-increment / register-offset memory accesses
    // ------------------------------------------------------------------
    /// `p.lw rd, imm(rs1!)` — load, then `rs1 += imm` (the paper's `lw!`).
    LoadPostInc {
        /// Width/signedness.
        op: LoadOp,
        /// Destination register.
        rd: Reg,
        /// Base register, updated after the access.
        rs1: Reg,
        /// Post-increment amount.
        offset: i32,
    },
    /// `p.lw rd, rs2(rs1)` — register-offset load.
    LoadReg {
        /// Width/signedness.
        op: LoadOp,
        /// Destination register.
        rd: Reg,
        /// Base register.
        rs1: Reg,
        /// Offset register.
        rs2: Reg,
    },
    /// `p.sw rs2, imm(rs1!)` — store, then `rs1 += imm`.
    StorePostInc {
        /// Width.
        op: StoreOp,
        /// Source register.
        rs2: Reg,
        /// Base register, updated after the access.
        rs1: Reg,
        /// Post-increment amount.
        offset: i32,
    },

    // ------------------------------------------------------------------
    // Xpulp: hardware loops (two levels)
    // ------------------------------------------------------------------
    /// `lp.starti l, uimm` — loop start = PC + 2·uimm.
    LpStarti {
        /// Loop level.
        l: LoopIdx,
        /// Unsigned immediate (half-word granularity).
        uimm: u32,
    },
    /// `lp.endi l, uimm` — loop end = PC + 2·uimm.
    LpEndi {
        /// Loop level.
        l: LoopIdx,
        /// Unsigned immediate (half-word granularity).
        uimm: u32,
    },
    /// `lp.count l, rs1` — loop count from register.
    LpCount {
        /// Loop level.
        l: LoopIdx,
        /// Count register.
        rs1: Reg,
    },
    /// `lp.counti l, uimm` — loop count immediate.
    LpCounti {
        /// Loop level.
        l: LoopIdx,
        /// Iteration count.
        uimm: u32,
    },
    /// `lp.setup l, rs1, uimm` — start = next PC, end = PC + 2·uimm,
    /// count = rs1.
    LpSetup {
        /// Loop level.
        l: LoopIdx,
        /// Count register.
        rs1: Reg,
        /// End offset (half-word granularity).
        uimm: u32,
    },
    /// `lp.setupi l, uimmc, uimm` — start = next PC, end = PC + 2·uimm,
    /// count = uimmc.
    LpSetupi {
        /// Loop level.
        l: LoopIdx,
        /// Iteration count (5 bits).
        count: u32,
        /// End offset (half-word granularity).
        uimm: u32,
    },

    // ------------------------------------------------------------------
    // Xpulp: scalar DSP helpers
    // ------------------------------------------------------------------
    /// `p.mac rd, rs1, rs2` — `rd += rs1 * rs2` (32-bit).
    Mac {
        /// Accumulator (read and written).
        rd: Reg,
        /// First factor.
        rs1: Reg,
        /// Second factor.
        rs2: Reg,
    },
    /// `p.msu rd, rs1, rs2` — `rd -= rs1 * rs2` (32-bit).
    Msu {
        /// Accumulator (read and written).
        rd: Reg,
        /// First factor.
        rs1: Reg,
        /// Second factor.
        rs2: Reg,
    },
    /// `p.clip rd, rs1, imm` — clip to `[-2^(imm-1), 2^(imm-1)-1]`.
    Clip {
        /// Destination.
        rd: Reg,
        /// Source.
        rs1: Reg,
        /// Bit width (1–32).
        bits: u8,
    },
    /// `p.clipu rd, rs1, imm` — clip to `[0, 2^(imm-1)-1]`.
    ClipU {
        /// Destination.
        rd: Reg,
        /// Source.
        rs1: Reg,
        /// Bit width (1–32).
        bits: u8,
    },
    /// `p.exths rd, rs1` — sign-extend halfword.
    ExtHs {
        /// Destination.
        rd: Reg,
        /// Source.
        rs1: Reg,
    },
    /// `p.exthz rd, rs1` — zero-extend halfword.
    ExtHz {
        /// Destination.
        rd: Reg,
        /// Source.
        rs1: Reg,
    },
    /// `p.extbs rd, rs1` — sign-extend byte.
    ExtBs {
        /// Destination.
        rd: Reg,
        /// Source.
        rs1: Reg,
    },
    /// `p.extbz rd, rs1` — zero-extend byte.
    ExtBz {
        /// Destination.
        rd: Reg,
        /// Source.
        rs1: Reg,
    },
    /// `p.abs rd, rs1` — absolute value.
    PAbs {
        /// Destination.
        rd: Reg,
        /// Source.
        rs1: Reg,
    },
    /// `p.min rd, rs1, rs2` — signed minimum.
    PMin {
        /// Destination.
        rd: Reg,
        /// First source.
        rs1: Reg,
        /// Second source.
        rs2: Reg,
    },
    /// `p.max rd, rs1, rs2` — signed maximum.
    PMax {
        /// Destination.
        rd: Reg,
        /// First source.
        rs1: Reg,
        /// Second source.
        rs2: Reg,
    },
    /// `p.ff1 rd, rs1` — index of the least-significant set bit
    /// (32 when `rs1` is zero).
    Ff1 {
        /// Destination.
        rd: Reg,
        /// Source.
        rs1: Reg,
    },
    /// `p.fl1 rd, rs1` — index of the most-significant set bit
    /// (32 when `rs1` is zero).
    Fl1 {
        /// Destination.
        rd: Reg,
        /// Source.
        rs1: Reg,
    },
    /// `p.cnt rd, rs1` — population count.
    Cnt {
        /// Destination.
        rd: Reg,
        /// Source.
        rs1: Reg,
    },
    /// `p.clb rd, rs1` — count leading redundant sign bits
    /// (0 when `rs1` is zero, per RI5CY).
    Clb {
        /// Destination.
        rd: Reg,
        /// Source.
        rs1: Reg,
    },
    /// `p.ror rd, rs1, rs2` — rotate `rs1` right by `rs2 & 31`.
    Ror {
        /// Destination.
        rd: Reg,
        /// Rotated value.
        rs1: Reg,
        /// Rotate amount.
        rs2: Reg,
    },

    // ------------------------------------------------------------------
    // Xpulp: packed SIMD
    // ------------------------------------------------------------------
    /// Lane-wise SIMD ALU operation `pv.op[.sc|.sci].{h,b}`.
    PvAlu {
        /// Operation.
        op: PvAluOp,
        /// Lane width.
        size: SimdSize,
        /// Operand mode (vector, replicated scalar, replicated immediate).
        mode: SimdMode,
        /// Destination register.
        rd: Reg,
        /// First source.
        rs1: Reg,
        /// Second source (ignored for `Sci` mode and unary ops).
        rs2: Reg,
    },
    /// SIMD dot product `pv.(s)dot{up,usp,sp}.{h,b}`.
    PvDot {
        /// Operation (dot or accumulate-dot, signedness).
        op: DotOp,
        /// Lane width.
        size: SimdSize,
        /// Destination / accumulator register.
        rd: Reg,
        /// First source.
        rs1: Reg,
        /// Second source.
        rs2: Reg,
    },

    // ------------------------------------------------------------------
    // RNN extension (the paper's contribution)
    // ------------------------------------------------------------------
    /// `pl.sdotsp.{h,b}.S rd, rs1, rs2` — the merged load-and-compute
    /// VLIW instruction (Section III-E, Fig. 1):
    ///
    /// 1. `rd += Σ SPR[S].lane_i * rs2.lane_i` (two 16-bit or four 8-bit
    ///    signed lanes),
    /// 2. in parallel, issue `SPR[S] = mem[rs1]` and `rs1 += 4`
    ///    (visible two instructions later).
    ///
    /// The two special-purpose registers are written and read alternately
    /// (`.0` / `.1` forms) to hide the load latency. The paper defines
    /// only the halfword form; the byte form is this reproduction's
    /// future-work extension for INT8 inference (Section II-A cites
    /// sub-byte quantization as the trend).
    PlSdotsp {
        /// Which SPR supplies the weight operand (0 or 1) and receives
        /// the parallel load.
        spr: u8,
        /// Lane width (the paper's instruction is `Half`).
        size: SimdSize,
        /// Accumulator register (read and written).
        rd: Reg,
        /// Weight-stream pointer, post-incremented by 4.
        rs1: Reg,
        /// Packed input operand.
        rs2: Reg,
    },
    /// `pl.tanh rd, rs1` — single-cycle piecewise-linear hyperbolic tangent
    /// on a Q3.12 operand (Section III-D, Algorithm 2).
    PlTanh {
        /// Destination.
        rd: Reg,
        /// Q3.12 operand.
        rs1: Reg,
    },
    /// `pl.sig rd, rs1` — single-cycle piecewise-linear logistic sigmoid on
    /// a Q3.12 operand (Section III-D, Algorithm 2).
    PlSig {
        /// Destination.
        rd: Reg,
        /// Q3.12 operand.
        rs1: Reg,
    },
}

/// Up to three registers, as returned by [`Instr::defs`] / [`Instr::uses`].
pub type RegList = arrayvec::ArrayVecU8;

/// A tiny fixed-capacity register list (max 3) to avoid allocation in the
/// simulator's hot path.
pub mod arrayvec {
    use crate::reg::Reg;

    /// Fixed-capacity list of at most three registers.
    #[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
    pub struct ArrayVecU8 {
        items: [Option<Reg>; 3],
        len: u8,
    }

    impl ArrayVecU8 {
        /// Empty list.
        pub const fn new() -> Self {
            Self {
                items: [None; 3],
                len: 0,
            }
        }

        /// Creates from a slice (at most 3 entries).
        ///
        /// # Panics
        ///
        /// Panics if `regs.len() > 3`.
        pub fn from_slice(regs: &[Reg]) -> Self {
            assert!(regs.len() <= 3, "register list capacity exceeded");
            let mut v = Self::new();
            for &r in regs {
                v.items[v.len as usize] = Some(r);
                v.len += 1;
            }
            v
        }

        /// Number of registers.
        pub fn len(&self) -> usize {
            self.len as usize
        }

        /// Whether the list is empty.
        pub fn is_empty(&self) -> bool {
            self.len == 0
        }

        /// Iterates the registers.
        pub fn iter(&self) -> impl Iterator<Item = Reg> + '_ {
            self.items
                .iter()
                .take(self.len as usize)
                .map(|r| r.expect("initialized up to len"))
        }

        /// Whether the list contains `reg`.
        pub fn contains(&self, reg: Reg) -> bool {
            self.iter().any(|r| r == reg)
        }
    }
}

impl Instr {
    /// The registers this instruction writes.
    pub fn defs(&self) -> RegList {
        use Instr::*;
        let one = |r: Reg| RegList::from_slice(&[r]);
        match *self {
            Lui { rd, .. }
            | Auipc { rd, .. }
            | Jal { rd, .. }
            | Jalr { rd, .. }
            | Load { rd, .. }
            | LoadReg { rd, .. }
            | OpImm { rd, .. }
            | Op { rd, .. }
            | MulDiv { rd, .. }
            | Csr { rd, .. }
            | Mac { rd, .. }
            | Msu { rd, .. }
            | Clip { rd, .. }
            | ClipU { rd, .. }
            | ExtHs { rd, .. }
            | ExtHz { rd, .. }
            | ExtBs { rd, .. }
            | ExtBz { rd, .. }
            | PAbs { rd, .. }
            | PMin { rd, .. }
            | PMax { rd, .. }
            | Ff1 { rd, .. }
            | Fl1 { rd, .. }
            | Cnt { rd, .. }
            | Clb { rd, .. }
            | Ror { rd, .. }
            | PvAlu { rd, .. }
            | PvDot { rd, .. }
            | PlTanh { rd, .. }
            | PlSig { rd, .. } => one(rd),
            LoadPostInc { rd, rs1, .. } => RegList::from_slice(&[rd, rs1]),
            StorePostInc { rs1, .. } => one(rs1),
            PlSdotsp { rd, rs1, .. } => RegList::from_slice(&[rd, rs1]),
            Branch { .. }
            | Store { .. }
            | Fence
            | Ecall
            | Ebreak
            | LpStarti { .. }
            | LpEndi { .. }
            | LpCount { .. }
            | LpCounti { .. }
            | LpSetup { .. }
            | LpSetupi { .. } => RegList::new(),
        }
    }

    /// The registers this instruction reads.
    pub fn uses(&self) -> RegList {
        use Instr::*;
        match *self {
            Lui { .. }
            | Auipc { .. }
            | Jal { .. }
            | Fence
            | Ecall
            | Ebreak
            | LpStarti { .. }
            | LpEndi { .. }
            | LpCounti { .. }
            | LpSetupi { .. } => RegList::new(),
            Jalr { rs1, .. }
            | Load { rs1, .. }
            | LoadPostInc { rs1, .. }
            | OpImm { rs1, .. }
            | Csr { rs1, .. }
            | Clip { rs1, .. }
            | ClipU { rs1, .. }
            | ExtHs { rs1, .. }
            | ExtHz { rs1, .. }
            | ExtBs { rs1, .. }
            | ExtBz { rs1, .. }
            | PAbs { rs1, .. }
            | Ff1 { rs1, .. }
            | Fl1 { rs1, .. }
            | Cnt { rs1, .. }
            | Clb { rs1, .. }
            | PlTanh { rs1, .. }
            | PlSig { rs1, .. }
            | LpCount { rs1, .. }
            | LpSetup { rs1, .. } => RegList::from_slice(&[rs1]),
            Branch { rs1, rs2, .. }
            | Store { rs2, rs1, .. }
            | StorePostInc { rs2, rs1, .. }
            | Op { rs1, rs2, .. }
            | MulDiv { rs1, rs2, .. }
            | LoadReg { rs1, rs2, .. }
            | PMin { rs1, rs2, .. }
            | PMax { rs1, rs2, .. }
            | Ror { rs1, rs2, .. } => RegList::from_slice(&[rs1, rs2]),
            PvAlu {
                rs1, rs2, mode, op, ..
            } => {
                if matches!(mode, SimdMode::Sci(_)) || matches!(op, PvAluOp::Abs) {
                    RegList::from_slice(&[rs1])
                } else {
                    RegList::from_slice(&[rs1, rs2])
                }
            }
            PvDot {
                op, rd, rs1, rs2, ..
            } => {
                if op.accumulates() {
                    RegList::from_slice(&[rd, rs1, rs2])
                } else {
                    RegList::from_slice(&[rs1, rs2])
                }
            }
            Mac { rd, rs1, rs2 } | Msu { rd, rs1, rs2 } => RegList::from_slice(&[rd, rs1, rs2]),
            PlSdotsp { rd, rs1, rs2, .. } => RegList::from_slice(&[rd, rs1, rs2]),
        }
    }

    /// Whether the instruction may redirect control flow.
    pub fn is_control_flow(&self) -> bool {
        matches!(
            self,
            Instr::Jal { .. } | Instr::Jalr { .. } | Instr::Branch { .. }
        )
    }

    /// Whether the instruction reads data memory.
    pub fn is_load(&self) -> bool {
        matches!(
            self,
            Instr::Load { .. } | Instr::LoadPostInc { .. } | Instr::LoadReg { .. }
        ) || matches!(self, Instr::PlSdotsp { .. })
    }

    /// Whether the instruction writes data memory.
    pub fn is_store(&self) -> bool {
        matches!(self, Instr::Store { .. } | Instr::StorePostInc { .. })
    }

    /// The registers this instruction reads, as a 32-bit mask indexed by
    /// register number (bit `n` set ⇔ `xn` ∈ [`uses`](Self::uses)).
    ///
    /// Equivalent to scanning the `RegList`, pre-flattened for consumers
    /// that test membership on a hot path (the simulator's load-use stall
    /// check is a single `and` against this mask).
    pub fn uses_mask(&self) -> u32 {
        self.uses().iter().fold(0, |m, r| m | (1u32 << r.num()))
    }

    /// The static timing class of this instruction — which functional-unit
    /// latency bucket it retires through on the modelled RI5CY pipeline.
    ///
    /// Dynamic costs (taken-branch penalty, load-use bubbles) are *not*
    /// part of the class; they depend on run-time state and stay with the
    /// simulator. The class captures only what is knowable at decode time,
    /// so a pre-decoding simulator can fold the extra latency into a
    /// per-instruction constant.
    pub fn timing_class(&self) -> TimingClass {
        match self {
            Instr::MulDiv { op, .. } => match op {
                MulDivOp::Mulh | MulDivOp::Mulhsu | MulDivOp::Mulhu => TimingClass::HighMultiply,
                MulDivOp::Div | MulDivOp::Divu | MulDivOp::Rem | MulDivOp::Remu => {
                    TimingClass::SerialDivide
                }
                MulDivOp::Mul => TimingClass::Single,
            },
            _ => TimingClass::Single,
        }
    }

    /// The number of 16-bit multiply-accumulate operations this instruction
    /// performs — the unit the paper's MMAC/s throughput figures count.
    ///
    /// `pv.sdotsp.h` and `pl.sdotsp.h` each perform two 16×16 MACs; the
    /// byte forms perform four; `p.mac` and `mul` (as used by the baseline
    /// kernel's software MAC) count as one.
    pub fn mac_ops(&self) -> u32 {
        match self {
            Instr::Mac { .. } | Instr::Msu { .. } => 1,
            Instr::MulDiv {
                op: MulDivOp::Mul, ..
            } => 1,
            Instr::PvDot { size, .. } => match size {
                SimdSize::Half => 2,
                SimdSize::Byte => 4,
            },
            Instr::PlSdotsp { size, .. } => match size {
                SimdSize::Half => 2,
                SimdSize::Byte => 4,
            },
            _ => 0,
        }
    }

    /// A stable mnemonic string used for statistics binning (Table I rows).
    ///
    /// Post-increment loads/stores get the paper's `!` suffix; all
    /// `pv.sdotsp`-family dot products bin under their base mnemonic.
    pub fn mnemonic(&self) -> &'static str {
        self.mnemonic_id().name()
    }

    /// The dense [`MnemonicId`] of this instruction's stable mnemonic.
    ///
    /// This is the authoritative instruction→mnemonic binning; the
    /// simulator's hot path keys its per-mnemonic counters by this id so
    /// retiring an instruction never touches a string or a map.
    pub fn mnemonic_id(&self) -> MnemonicId {
        use Instr::*;
        use MnemonicId as M;
        match self {
            Lui { .. } => M::Lui,
            Auipc { .. } => M::Auipc,
            Jal { .. } => M::Jal,
            Jalr { .. } => M::Jalr,
            Branch { op, .. } => match op {
                BranchOp::Beq => M::Beq,
                BranchOp::Bne => M::Bne,
                BranchOp::Blt => M::Blt,
                BranchOp::Bge => M::Bge,
                BranchOp::Bltu => M::Bltu,
                BranchOp::Bgeu => M::Bgeu,
            },
            Load { op, .. } => match op {
                LoadOp::Lb => M::Lb,
                LoadOp::Lh => M::Lh,
                LoadOp::Lw => M::Lw,
                LoadOp::Lbu => M::Lbu,
                LoadOp::Lhu => M::Lhu,
            },
            Store { op, .. } => match op {
                StoreOp::Sb => M::Sb,
                StoreOp::Sh => M::Sh,
                StoreOp::Sw => M::Sw,
            },
            OpImm { op, .. } => match op {
                AluImmOp::Addi => M::Addi,
                AluImmOp::Slti => M::Slti,
                AluImmOp::Sltiu => M::Sltiu,
                AluImmOp::Xori => M::Xori,
                AluImmOp::Ori => M::Ori,
                AluImmOp::Andi => M::Andi,
                AluImmOp::Slli => M::Slli,
                AluImmOp::Srli => M::Srli,
                AluImmOp::Srai => M::Srai,
            },
            Op { op, .. } => match op {
                AluOp::Add => M::Add,
                AluOp::Sub => M::Sub,
                AluOp::Sll => M::Sll,
                AluOp::Slt => M::Slt,
                AluOp::Sltu => M::Sltu,
                AluOp::Xor => M::Xor,
                AluOp::Srl => M::Srl,
                AluOp::Sra => M::Sra,
                AluOp::Or => M::Or,
                AluOp::And => M::And,
            },
            MulDiv { op, .. } => match op {
                MulDivOp::Mul => M::Mul,
                MulDivOp::Mulh => M::Mulh,
                MulDivOp::Mulhsu => M::Mulhsu,
                MulDivOp::Mulhu => M::Mulhu,
                MulDivOp::Div => M::Div,
                MulDivOp::Divu => M::Divu,
                MulDivOp::Rem => M::Rem,
                MulDivOp::Remu => M::Remu,
            },
            Fence => M::Fence,
            Ecall => M::Ecall,
            Ebreak => M::Ebreak,
            Csr { op, .. } => match op {
                CsrOp::Csrrw => M::Csrrw,
                CsrOp::Csrrs => M::Csrrs,
                CsrOp::Csrrc => M::Csrrc,
            },
            LoadPostInc { op, .. } => match op {
                LoadOp::Lb => M::PLbPost,
                LoadOp::Lh => M::PLhPost,
                LoadOp::Lw => M::PLwPost,
                LoadOp::Lbu => M::PLbuPost,
                LoadOp::Lhu => M::PLhuPost,
            },
            LoadReg { op, .. } => match op {
                LoadOp::Lb => M::PLb,
                LoadOp::Lh => M::PLh,
                LoadOp::Lw => M::PLw,
                LoadOp::Lbu => M::PLbu,
                LoadOp::Lhu => M::PLhu,
            },
            StorePostInc { op, .. } => match op {
                StoreOp::Sb => M::PSbPost,
                StoreOp::Sh => M::PShPost,
                StoreOp::Sw => M::PSwPost,
            },
            LpStarti { .. } => M::LpStarti,
            LpEndi { .. } => M::LpEndi,
            LpCount { .. } => M::LpCount,
            LpCounti { .. } => M::LpCounti,
            LpSetup { .. } => M::LpSetup,
            LpSetupi { .. } => M::LpSetupi,
            Mac { .. } => M::PMac,
            Msu { .. } => M::PMsu,
            Clip { .. } => M::PClip,
            ClipU { .. } => M::PClipU,
            ExtHs { .. } => M::PExtHs,
            ExtHz { .. } => M::PExtHz,
            ExtBs { .. } => M::PExtBs,
            ExtBz { .. } => M::PExtBz,
            PAbs { .. } => M::PAbs,
            PMin { .. } => M::PMin,
            PMax { .. } => M::PMax,
            Ff1 { .. } => M::PFf1,
            Fl1 { .. } => M::PFl1,
            Cnt { .. } => M::PCnt,
            Clb { .. } => M::PClb,
            Ror { .. } => M::PRor,
            PvAlu { op, .. } => match op {
                PvAluOp::Add => M::PvAdd,
                PvAluOp::Sub => M::PvSub,
                PvAluOp::Avg => M::PvAvg,
                PvAluOp::Min => M::PvMin,
                PvAluOp::Max => M::PvMax,
                PvAluOp::Srl => M::PvSrl,
                PvAluOp::Sra => M::PvSra,
                PvAluOp::Sll => M::PvSll,
                PvAluOp::Or => M::PvOr,
                PvAluOp::Xor => M::PvXor,
                PvAluOp::And => M::PvAnd,
                PvAluOp::Abs => M::PvAbs,
            },
            PvDot { op, .. } => match op {
                DotOp::DotUp => M::PvDotUp,
                DotOp::DotUsp => M::PvDotUsp,
                DotOp::DotSp => M::PvDotSp,
                DotOp::SdotUp => M::PvSdotUp,
                DotOp::SdotUsp => M::PvSdotUsp,
                DotOp::SdotSp => M::PvSdotSp,
            },
            PlSdotsp {
                size: SimdSize::Half,
                ..
            } => M::PlSdotsp,
            PlSdotsp {
                size: SimdSize::Byte,
                ..
            } => M::PlSdotspB,
            PlTanh { .. } => M::PlTanh,
            PlSig { .. } => M::PlSig,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defs_and_uses_of_postinc_load() {
        let i = Instr::LoadPostInc {
            op: LoadOp::Lw,
            rd: Reg::A0,
            rs1: Reg::A1,
            offset: 4,
        };
        assert!(i.defs().contains(Reg::A0));
        assert!(i.defs().contains(Reg::A1));
        assert!(i.uses().contains(Reg::A1));
        assert!(i.is_load());
        assert_eq!(i.mnemonic(), "p.lw!");
    }

    #[test]
    fn sdotsp_reads_accumulator() {
        let i = Instr::PvDot {
            op: DotOp::SdotSp,
            size: SimdSize::Half,
            rd: Reg::T0,
            rs1: Reg::A0,
            rs2: Reg::A1,
        };
        assert!(i.uses().contains(Reg::T0));
        assert_eq!(i.mac_ops(), 2);
    }

    #[test]
    fn plain_dot_does_not_read_accumulator() {
        let i = Instr::PvDot {
            op: DotOp::DotSp,
            size: SimdSize::Half,
            rd: Reg::T0,
            rs1: Reg::A0,
            rs2: Reg::A1,
        };
        assert!(!i.uses().contains(Reg::T0));
    }

    #[test]
    fn pl_sdotsp_metadata() {
        let i = Instr::PlSdotsp {
            spr: 0,
            size: SimdSize::Half,
            rd: Reg::T0,
            rs1: Reg::A2,
            rs2: Reg::A3,
        };
        assert!(i.is_load());
        assert!(i.defs().contains(Reg::T0));
        assert!(i.defs().contains(Reg::A2)); // post-increment
        assert_eq!(i.mac_ops(), 2);
    }

    #[test]
    fn branch_has_no_defs() {
        let i = Instr::Branch {
            op: BranchOp::Bltu,
            rs1: Reg::A0,
            rs2: Reg::A1,
            offset: -8,
        };
        assert!(i.defs().is_empty());
        assert!(i.is_control_flow());
    }
}
