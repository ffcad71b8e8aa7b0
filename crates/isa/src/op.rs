//! Opcodes and their execution-unit classification.
//!
//! The SM back-end (paper §2, fig. 1) has four SIMD groups: two 32-wide
//! multiply-add (MAD) groups, one 8-wide special-function unit (SFU) and one
//! 32-wide load-store unit (LSU). Every opcode maps to exactly one
//! [`UnitClass`], which the schedulers use for structural-hazard checks.

use std::fmt;

/// The functional-unit class an instruction executes on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnitClass {
    /// Multiply-add / general ALU group ("MAD" in the paper).
    Mad,
    /// Special-function unit (transcendentals).
    Sfu,
    /// Load-store unit (one 128-byte L1 port).
    Lsu,
    /// Control instructions (branches, barriers, sync markers) — these issue
    /// but consume no back-end SIMD group.
    Control,
}

/// Comparison operators for `ISetP` / `FSetP`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than (signed / ordered).
    Lt,
    /// Less or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater or equal.
    Ge,
}

impl CmpOp {
    /// Evaluates the comparison on signed 32-bit integers.
    // `#[inline]`: called per lane from `warpweave-core`'s execute loops,
    // and without LTO a cross-crate call there blocks their vectorising.
    #[inline]
    pub fn eval_i32(self, a: i32, b: i32) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }

    /// Evaluates the comparison on `f32` values (IEEE ordered semantics).
    #[inline]
    pub fn eval_f32(self, a: f32, b: f32) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
        };
        f.write_str(s)
    }
}

/// Memory address spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MemSpace {
    /// Off-chip global memory, cached in L1, coalesced into 128-byte blocks.
    #[default]
    Global,
    /// On-chip shared memory (per-block scratchpad); not cached, conflicts
    /// serialise per distinct 32-bit bank word.
    Shared,
}

/// Instruction opcodes.
///
/// Integer values are 32-bit two's complement; floating-point values are
/// IEEE-754 binary32 bit-cast into the 32-bit register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    // --- MAD class: moves, integer & binary32 arithmetic -------------------
    /// `dst = src0` (register, immediate or special register move).
    Mov,
    /// `dst = src0 + src1` (wrapping i32 add).
    IAdd,
    /// `dst = src0 - src1`.
    ISub,
    /// `dst = src0 * src1` (low 32 bits).
    IMul,
    /// `dst = src0 * src1 + src2` (multiply-add).
    IMad,
    /// `dst = min(src0, src1)` signed.
    IMin,
    /// `dst = max(src0, src1)` signed.
    IMax,
    /// `dst = src0 & src1`.
    And,
    /// `dst = src0 | src1`.
    Or,
    /// `dst = src0 ^ src1`.
    Xor,
    /// `dst = !src0` (bitwise not).
    Not,
    /// `dst = src0 << (src1 & 31)`.
    Shl,
    /// `dst = src0 >> (src1 & 31)` (logical).
    Shr,
    /// `dst = src0 >> (src1 & 31)` (arithmetic).
    Sra,
    /// `dst = src0 + src1` (f32).
    FAdd,
    /// `dst = src0 - src1` (f32).
    FSub,
    /// `dst = src0 * src1` (f32).
    FMul,
    /// `dst = src0 * src1 + src2` (fused, f32).
    FFma,
    /// `dst = min(src0, src1)` (f32).
    FMin,
    /// `dst = max(src0, src1)` (f32).
    FMax,
    /// `dst = (f32) (i32) src0`.
    I2F,
    /// `dst = (i32) (f32) src0` (truncating).
    F2I,
    /// `pdst = src0 <cmp> src1` on i32.
    ISetP,
    /// `pdst = src0 <cmp> src1` on f32.
    FSetP,
    /// `dst = psrc ? src0 : src1` (per-thread select on `sel_pred`).
    Sel,

    // --- SFU class: transcendentals (f32) ----------------------------------
    /// `dst = 1 / src0`.
    Rcp,
    /// `dst = sqrt(src0)`.
    Sqrt,
    /// `dst = 1 / sqrt(src0)`.
    Rsqrt,
    /// `dst = sin(src0)`.
    Sin,
    /// `dst = cos(src0)`.
    Cos,
    /// `dst = 2^src0`.
    Ex2,
    /// `dst = log2(src0)`.
    Lg2,

    // --- LSU class ----------------------------------------------------------
    /// `dst = mem[src0 + offset]` (32-bit load).
    Ld,
    /// `mem[src0 + offset] = src1` (32-bit store).
    St,
    /// `mem[src0 + offset] += src1` atomically; `dst` (optional) receives the
    /// old value. Conflicting lanes serialise.
    AtomAdd,

    // --- Control class -------------------------------------------------------
    /// Branch to `target`. Unguarded: uniform jump. Guarded (`@p bra`):
    /// potentially divergent — guard-true threads jump, others fall through.
    Bra,
    /// Reconvergence marker (paper §3.3). Payload is `PCdiv`, the last
    /// instruction of the immediate dominator of this reconvergence point.
    /// Executes as a NOP except under SBI reconvergence constraints, where it
    /// acts as a selective synchronisation barrier between warp-splits.
    Sync,
    /// Block-wide barrier (`bar.sync`): threads wait until every non-exited
    /// thread of the block arrives.
    Bar,
    /// Thread termination.
    Exit,
    /// No operation.
    Nop,
}

impl Op {
    /// Returns the functional-unit class this opcode executes on.
    pub fn unit(self) -> UnitClass {
        use Op::*;
        match self {
            Mov | IAdd | ISub | IMul | IMad | IMin | IMax | And | Or | Xor | Not | Shl | Shr
            | Sra | FAdd | FSub | FMul | FFma | FMin | FMax | I2F | F2I | ISetP | FSetP | Sel => {
                UnitClass::Mad
            }
            Rcp | Sqrt | Rsqrt | Sin | Cos | Ex2 | Lg2 => UnitClass::Sfu,
            Ld | St | AtomAdd => UnitClass::Lsu,
            Bra | Sync | Bar | Exit | Nop => UnitClass::Control,
        }
    }

    /// True for `Bra` (the only PC-changing opcode).
    pub fn is_branch(self) -> bool {
        matches!(self, Op::Bra)
    }

    /// True for memory operations (LSU class).
    pub fn is_memory(self) -> bool {
        self.unit() == UnitClass::Lsu
    }

    /// Lower-case mnemonic used by the disassembler.
    pub fn mnemonic(self) -> &'static str {
        use Op::*;
        match self {
            Mov => "mov",
            IAdd => "iadd",
            ISub => "isub",
            IMul => "imul",
            IMad => "imad",
            IMin => "imin",
            IMax => "imax",
            And => "and",
            Or => "or",
            Xor => "xor",
            Not => "not",
            Shl => "shl",
            Shr => "shr",
            Sra => "sra",
            FAdd => "fadd",
            FSub => "fsub",
            FMul => "fmul",
            FFma => "ffma",
            FMin => "fmin",
            FMax => "fmax",
            I2F => "i2f",
            F2I => "f2i",
            ISetP => "isetp",
            FSetP => "fsetp",
            Sel => "sel",
            Rcp => "rcp",
            Sqrt => "sqrt",
            Rsqrt => "rsqrt",
            Sin => "sin",
            Cos => "cos",
            Ex2 => "ex2",
            Lg2 => "lg2",
            Ld => "ld",
            St => "st",
            AtomAdd => "atom.add",
            Bra => "bra",
            Sync => "sync",
            Bar => "bar.sync",
            Exit => "exit",
            Nop => "nop",
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_classification() {
        assert_eq!(Op::IMad.unit(), UnitClass::Mad);
        assert_eq!(Op::FFma.unit(), UnitClass::Mad);
        assert_eq!(Op::Rcp.unit(), UnitClass::Sfu);
        assert_eq!(Op::Ld.unit(), UnitClass::Lsu);
        assert_eq!(Op::AtomAdd.unit(), UnitClass::Lsu);
        assert_eq!(Op::Bra.unit(), UnitClass::Control);
        assert_eq!(Op::Sync.unit(), UnitClass::Control);
    }

    #[test]
    fn cmp_semantics() {
        assert!(CmpOp::Lt.eval_i32(-1, 0));
        assert!(!CmpOp::Lt.eval_i32(0, -1));
        assert!(CmpOp::Ge.eval_i32(5, 5));
        assert!(CmpOp::Ne.eval_f32(1.0, 2.0));
        assert!(!CmpOp::Eq.eval_f32(f32::NAN, f32::NAN));
    }

    #[test]
    fn branch_and_memory_predicates() {
        assert!(Op::Bra.is_branch());
        assert!(!Op::Sync.is_branch());
        assert!(Op::St.is_memory());
        assert!(!Op::Mov.is_memory());
    }
}
