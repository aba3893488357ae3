//! Micro-operation (µ-op) model.

use crate::reg::ArchReg;
use std::fmt;

/// Maximum number of register sources a µ-op may have.
pub const MAX_SRCS: usize = 3;

/// The kind of a µ-op, which determines the functional unit it executes on and
/// whether it is eligible for value prediction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum UopKind {
    /// Single-cycle integer ALU operation.
    Alu,
    /// Integer multiply.
    Mul,
    /// Integer divide (unpipelined).
    Div,
    /// Floating-point add/sub/compare.
    FpAdd,
    /// Floating-point multiply.
    FpMul,
    /// Floating-point divide (unpipelined).
    FpDiv,
    /// Memory load.
    Load,
    /// Memory store (address + data).
    Store,
    /// Conditional or unconditional control flow.
    Branch,
    /// Load-immediate: the produced value is an immediate known at decode.
    ///
    /// BeBoP handles these for free in the front-end (Section II-B3 of the paper):
    /// they need neither prediction nor validation.
    LoadImm,
    /// No-operation (consumes front-end bandwidth only).
    #[default]
    Nop,
}

impl UopKind {
    /// The execution class used for functional-unit assignment and latency.
    pub fn exec_class(self) -> ExecClass {
        match self {
            UopKind::Alu | UopKind::LoadImm | UopKind::Nop => ExecClass::Alu,
            UopKind::Mul => ExecClass::MulDiv,
            UopKind::Div => ExecClass::MulDiv,
            UopKind::FpAdd => ExecClass::Fp,
            UopKind::FpMul => ExecClass::Fp,
            UopKind::FpDiv => ExecClass::FpMulDiv,
            UopKind::Load => ExecClass::Load,
            UopKind::Store => ExecClass::Store,
            UopKind::Branch => ExecClass::Alu,
        }
    }

    /// Returns `true` if this µ-op accesses memory.
    pub fn is_mem(self) -> bool {
        matches!(self, UopKind::Load | UopKind::Store)
    }

    /// Returns `true` if this µ-op is a control-flow instruction.
    pub fn is_branch(self) -> bool {
        matches!(self, UopKind::Branch)
    }
}

impl fmt::Display for UopKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UopKind::Alu => "alu",
            UopKind::Mul => "mul",
            UopKind::Div => "div",
            UopKind::FpAdd => "fpadd",
            UopKind::FpMul => "fpmul",
            UopKind::FpDiv => "fpdiv",
            UopKind::Load => "load",
            UopKind::Store => "store",
            UopKind::Branch => "branch",
            UopKind::LoadImm => "loadimm",
            UopKind::Nop => "nop",
        };
        f.write_str(s)
    }
}

/// Functional-unit class of a µ-op (Table I of the paper: 4 ALU, 1 MulDiv, 2 FP,
/// 2 FPMulDiv, 2 load ports, 1 store port).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecClass {
    /// Simple integer / branch unit, 1-cycle latency.
    Alu,
    /// Integer multiply/divide unit (3-cycle multiply, 25-cycle unpipelined divide).
    MulDiv,
    /// Floating-point add unit, 3-cycle latency.
    Fp,
    /// Floating-point multiply/divide unit (5-cycle multiply, 10-cycle unpipelined divide).
    FpMulDiv,
    /// Load port.
    Load,
    /// Store port.
    Store,
}

/// A static µ-op: operation kind plus architectural register operands.
///
/// # Example
///
/// ```
/// use bebop_isa::{ArchReg, Uop, UopKind};
///
/// let uop = Uop::new(UopKind::Alu, Some(ArchReg::int(1)), &[ArchReg::int(2)]);
/// assert!(uop.produces_value());
/// assert_eq!(uop.srcs().count(), 1);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Uop {
    kind: UopKind,
    dst: Option<ArchReg>,
    srcs: [Option<ArchReg>; MAX_SRCS],
}

impl Uop {
    /// Creates a µ-op.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_SRCS`] sources are given.
    pub fn new(kind: UopKind, dst: Option<ArchReg>, srcs: &[ArchReg]) -> Self {
        assert!(srcs.len() <= MAX_SRCS, "too many sources: {}", srcs.len());
        let mut s = [None; MAX_SRCS];
        for (slot, reg) in s.iter_mut().zip(srcs.iter()) {
            *slot = Some(*reg);
        }
        Uop { kind, dst, srcs: s }
    }

    /// The kind of this µ-op.
    pub fn kind(&self) -> UopKind {
        self.kind
    }

    /// The destination register, if any.
    pub fn dst(&self) -> Option<ArchReg> {
        self.dst
    }

    /// Iterates over the source registers.
    pub fn srcs(&self) -> impl Iterator<Item = ArchReg> + '_ {
        self.srcs.iter().flatten().copied()
    }

    /// Returns `true` if the µ-op writes a register readable by later µ-ops.
    pub fn produces_value(&self) -> bool {
        self.dst.is_some()
    }

    /// Returns `true` if the µ-op is *eligible for value prediction* per the paper:
    /// it produces a 64-bit-or-less register value that a subsequent µ-op can read,
    /// and it is not a load-immediate (those are handled for free in the front-end)
    /// nor a flags-only producer.
    pub fn vp_eligible(&self) -> bool {
        match self.dst {
            Some(d) => !d.is_flags() && self.kind != UopKind::LoadImm,
            None => false,
        }
    }
}

impl fmt::Display for Uop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind)?;
        if let Some(d) = self.dst {
            write!(f, " {d} <-")?;
        }
        for s in self.srcs() {
            write!(f, " {s}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_class_mapping() {
        assert_eq!(UopKind::Alu.exec_class(), ExecClass::Alu);
        assert_eq!(UopKind::Mul.exec_class(), ExecClass::MulDiv);
        assert_eq!(UopKind::Div.exec_class(), ExecClass::MulDiv);
        assert_eq!(UopKind::FpAdd.exec_class(), ExecClass::Fp);
        assert_eq!(UopKind::FpMul.exec_class(), ExecClass::Fp);
        assert_eq!(UopKind::FpDiv.exec_class(), ExecClass::FpMulDiv);
        assert_eq!(UopKind::Load.exec_class(), ExecClass::Load);
        assert_eq!(UopKind::Store.exec_class(), ExecClass::Store);
        assert_eq!(UopKind::Branch.exec_class(), ExecClass::Alu);
    }

    #[test]
    fn mem_and_branch_classification() {
        assert!(UopKind::Load.is_mem());
        assert!(UopKind::Store.is_mem());
        assert!(!UopKind::Alu.is_mem());
        assert!(UopKind::Branch.is_branch());
        assert!(!UopKind::Load.is_branch());
    }

    #[test]
    fn uop_srcs_iteration() {
        let uop = Uop::new(
            UopKind::Alu,
            Some(ArchReg::int(0)),
            &[ArchReg::int(1), ArchReg::int(2)],
        );
        let srcs: Vec<_> = uop.srcs().collect();
        assert_eq!(srcs, vec![ArchReg::int(1), ArchReg::int(2)]);
    }

    #[test]
    fn vp_eligibility() {
        // Register-producing ALU op: eligible.
        let alu = Uop::new(UopKind::Alu, Some(ArchReg::int(0)), &[]);
        assert!(alu.vp_eligible());
        // Flags producer: not eligible.
        let cmp = Uop::new(UopKind::Alu, Some(ArchReg::flags()), &[ArchReg::int(1)]);
        assert!(!cmp.vp_eligible());
        // Load immediate: handled for free, not eligible.
        let li = Uop::new(UopKind::LoadImm, Some(ArchReg::int(0)), &[]);
        assert!(!li.vp_eligible());
        // Store: no destination.
        let st = Uop::new(UopKind::Store, None, &[ArchReg::int(0), ArchReg::int(1)]);
        assert!(!st.vp_eligible());
    }

    #[test]
    #[should_panic]
    fn too_many_sources_panics() {
        let regs = [
            ArchReg::int(0),
            ArchReg::int(1),
            ArchReg::int(2),
            ArchReg::int(3),
        ];
        let _ = Uop::new(UopKind::Alu, None, &regs);
    }
}
