//! Variable-length macro-instructions.

use crate::reg::ArchReg;
use crate::uop::{Uop, UopKind};
use std::fmt;

/// Maximum byte length of a macro-instruction.
pub const MAX_INST_BYTES: u8 = 8;
/// Maximum number of µ-ops a macro-instruction may expand to.
pub const MAX_UOPS_PER_INST: usize = 3;

/// A static macro-instruction of the synthetic variable-length ISA.
///
/// Like x86, an instruction occupies 1–[`MAX_INST_BYTES`] bytes and expands into
/// 1–[`MAX_UOPS_PER_INST`] µ-ops, possibly producing several register results
/// (e.g. a load-op instruction producing both a loaded value and an ALU result).
///
/// # Example
///
/// ```
/// use bebop_isa::{ArchReg, StaticInst, UopKind};
///
/// // A 4-byte load-op: r1 <- load [r2]; r3 <- r1 + r4  (two results).
/// let inst = StaticInst::load_op(ArchReg::int(1), ArchReg::int(2), ArchReg::int(3), ArchReg::int(4), 4);
/// assert_eq!(inst.uops().len(), 2);
/// assert_eq!(inst.num_results(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticInst {
    len_bytes: u8,
    uops: Vec<Uop>,
}

impl StaticInst {
    /// Creates an instruction from raw parts.
    ///
    /// # Panics
    ///
    /// Panics if `len_bytes` is zero or exceeds [`MAX_INST_BYTES`], if `uops` is
    /// empty, or if it contains more than [`MAX_UOPS_PER_INST`] µ-ops.
    pub fn new(len_bytes: u8, uops: Vec<Uop>) -> Self {
        assert!(
            (1..=MAX_INST_BYTES).contains(&len_bytes),
            "instruction length {len_bytes} out of range"
        );
        assert!(
            !uops.is_empty(),
            "an instruction must have at least one µ-op"
        );
        assert!(
            uops.len() <= MAX_UOPS_PER_INST,
            "too many µ-ops: {}",
            uops.len()
        );
        StaticInst { len_bytes, uops }
    }

    /// A single-µ-op ALU instruction `dst <- op(srcs)`.
    pub fn alu(dst: ArchReg, srcs: &[ArchReg], len_bytes: u8) -> Self {
        StaticInst::new(len_bytes, vec![Uop::new(UopKind::Alu, Some(dst), srcs)])
    }

    /// An integer multiply instruction.
    pub fn mul(dst: ArchReg, srcs: &[ArchReg], len_bytes: u8) -> Self {
        StaticInst::new(len_bytes, vec![Uop::new(UopKind::Mul, Some(dst), srcs)])
    }

    /// An integer divide instruction.
    pub fn div(dst: ArchReg, srcs: &[ArchReg], len_bytes: u8) -> Self {
        StaticInst::new(len_bytes, vec![Uop::new(UopKind::Div, Some(dst), srcs)])
    }

    /// A floating-point add instruction.
    pub fn fp_add(dst: ArchReg, srcs: &[ArchReg], len_bytes: u8) -> Self {
        StaticInst::new(len_bytes, vec![Uop::new(UopKind::FpAdd, Some(dst), srcs)])
    }

    /// A floating-point multiply instruction.
    pub fn fp_mul(dst: ArchReg, srcs: &[ArchReg], len_bytes: u8) -> Self {
        StaticInst::new(len_bytes, vec![Uop::new(UopKind::FpMul, Some(dst), srcs)])
    }

    /// A simple load instruction `dst <- [base]`.
    pub fn load(dst: ArchReg, base: ArchReg, len_bytes: u8) -> Self {
        StaticInst::new(len_bytes, vec![Uop::new(UopKind::Load, Some(dst), &[base])])
    }

    /// A store instruction `[base] <- data`.
    pub fn store(data: ArchReg, base: ArchReg, len_bytes: u8) -> Self {
        StaticInst::new(
            len_bytes,
            vec![Uop::new(UopKind::Store, None, &[base, data])],
        )
    }

    /// A load-op instruction producing two results (x86-style `add dst, [mem]`):
    /// `ld_dst <- [base]; alu_dst <- ld_dst + alu_src`.
    pub fn load_op(
        ld_dst: ArchReg,
        base: ArchReg,
        alu_dst: ArchReg,
        alu_src: ArchReg,
        len_bytes: u8,
    ) -> Self {
        StaticInst::new(
            len_bytes,
            vec![
                Uop::new(UopKind::Load, Some(ld_dst), &[base]),
                Uop::new(UopKind::Alu, Some(alu_dst), &[ld_dst, alu_src]),
            ],
        )
    }

    /// A load-immediate instruction (`mov dst, imm`); handled for free by BeBoP.
    pub fn load_imm(dst: ArchReg, len_bytes: u8) -> Self {
        StaticInst::new(len_bytes, vec![Uop::new(UopKind::LoadImm, Some(dst), &[])])
    }

    /// A conditional branch instruction reading `srcs` (typically the flags).
    pub fn branch(srcs: &[ArchReg], len_bytes: u8) -> Self {
        StaticInst::new(len_bytes, vec![Uop::new(UopKind::Branch, None, srcs)])
    }

    /// A compare-and-branch macro-instruction: one flags-producing ALU µ-op plus a
    /// branch µ-op (models x86 `cmp` + fused `jcc` kept as two µ-ops, since the
    /// evaluation simulator does not fuse µ-ops).
    pub fn cmp_branch(a: ArchReg, b: ArchReg, len_bytes: u8) -> Self {
        StaticInst::new(
            len_bytes,
            vec![
                Uop::new(UopKind::Alu, Some(ArchReg::flags()), &[a, b]),
                Uop::new(UopKind::Branch, None, &[ArchReg::flags()]),
            ],
        )
    }

    /// The byte length of this instruction.
    pub fn len_bytes(&self) -> u8 {
        self.len_bytes
    }

    /// The µ-ops this instruction expands to, in program order.
    pub fn uops(&self) -> &[Uop] {
        &self.uops
    }

    /// The number of register results produced by this instruction.
    pub fn num_results(&self) -> usize {
        self.uops.iter().filter(|u| u.produces_value()).count()
    }

    /// Returns `true` if the instruction ends with a branch µ-op.
    pub fn is_branch(&self) -> bool {
        self.uops
            .last()
            .map(|u| u.kind().is_branch())
            .unwrap_or(false)
    }
}

impl fmt::Display for StaticInst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}B]", self.len_bytes)?;
        for (i, u) in self.uops.iter().enumerate() {
            if i > 0 {
                write!(f, " ;")?;
            }
            write!(f, " {u}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn num_vp_eligible(i: &StaticInst) -> usize {
        i.uops().iter().filter(|u| u.vp_eligible()).count()
    }

    #[test]
    fn alu_inst_shape() {
        let i = StaticInst::alu(ArchReg::int(1), &[ArchReg::int(2), ArchReg::int(3)], 3);
        assert_eq!(i.len_bytes(), 3);
        assert_eq!(i.uops().len(), 1);
        assert_eq!(i.num_results(), 1);
        assert_eq!(num_vp_eligible(&i), 1);
        assert!(!i.is_branch());
    }

    #[test]
    fn load_op_has_two_results() {
        let i = StaticInst::load_op(
            ArchReg::int(1),
            ArchReg::int(2),
            ArchReg::int(3),
            ArchReg::int(4),
            6,
        );
        assert_eq!(i.num_results(), 2);
        assert_eq!(num_vp_eligible(&i), 2);
    }

    #[test]
    fn cmp_branch_shape() {
        let i = StaticInst::cmp_branch(ArchReg::int(1), ArchReg::int(2), 2);
        assert!(i.is_branch());
        assert_eq!(i.uops().len(), 2);
        // Flags producer is not VP-eligible.
        assert_eq!(num_vp_eligible(&i), 0);
        assert_eq!(i.num_results(), 1);
    }

    #[test]
    fn load_imm_not_vp_eligible() {
        let i = StaticInst::load_imm(ArchReg::int(5), 5);
        assert_eq!(i.num_results(), 1);
        assert_eq!(num_vp_eligible(&i), 0);
    }

    #[test]
    fn store_has_no_result() {
        let i = StaticInst::store(ArchReg::int(1), ArchReg::int(2), 4);
        assert_eq!(i.num_results(), 0);
    }

    #[test]
    #[should_panic]
    fn zero_length_panics() {
        let _ = StaticInst::alu(ArchReg::int(0), &[], 0);
    }

    #[test]
    #[should_panic]
    fn too_long_panics() {
        let _ = StaticInst::alu(ArchReg::int(0), &[], MAX_INST_BYTES + 1);
    }
}
