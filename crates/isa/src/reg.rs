//! Architectural register model.

use std::fmt;

/// Number of architectural integer registers.
pub const NUM_INT_REGS: u16 = 16;
/// Number of architectural floating-point registers.
pub const NUM_FP_REGS: u16 = 16;
/// Total number of architectural registers (integer + floating point + flags).
pub const NUM_ARCH_REGS: u16 = NUM_INT_REGS + NUM_FP_REGS + 1;

/// The class of an architectural register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RegClass {
    /// General-purpose integer register (64-bit).
    Int,
    /// Floating-point / SIMD register (treated as 64-bit for value prediction).
    Fp,
    /// The condition-flags register.
    Flags,
}

impl fmt::Display for RegClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegClass::Int => write!(f, "int"),
            RegClass::Fp => write!(f, "fp"),
            RegClass::Flags => write!(f, "flags"),
        }
    }
}

/// An architectural register identifier.
///
/// Registers are numbered densely: `0..NUM_INT_REGS` are integer registers,
/// `NUM_INT_REGS..NUM_INT_REGS + NUM_FP_REGS` are floating-point registers and the
/// last index is the flags register.
///
/// # Example
///
/// ```
/// use bebop_isa::{ArchReg, RegClass};
///
/// let r = ArchReg::int(5);
/// assert_eq!(r.class(), RegClass::Int);
/// assert_eq!(r.index_in_class(), 5);
/// assert!(ArchReg::flags().is_flags());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArchReg(u16);

impl ArchReg {
    /// Creates an integer register.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= NUM_INT_REGS`.
    pub fn int(idx: u16) -> Self {
        assert!(
            idx < NUM_INT_REGS,
            "integer register index {idx} out of range"
        );
        ArchReg(idx)
    }

    /// Creates a floating-point register.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= NUM_FP_REGS`.
    pub fn fp(idx: u16) -> Self {
        assert!(idx < NUM_FP_REGS, "fp register index {idx} out of range");
        ArchReg(NUM_INT_REGS + idx)
    }

    /// Returns the flags register.
    pub fn flags() -> Self {
        ArchReg(NUM_INT_REGS + NUM_FP_REGS)
    }

    /// Creates a register from its dense index.
    ///
    /// # Panics
    ///
    /// Panics if `raw >= NUM_ARCH_REGS`.
    pub fn from_raw(raw: u16) -> Self {
        assert!(raw < NUM_ARCH_REGS, "register index {raw} out of range");
        ArchReg(raw)
    }

    /// The dense index of this register in `0..NUM_ARCH_REGS`.
    pub fn raw(self) -> u16 {
        self.0
    }

    /// The class of this register.
    pub fn class(self) -> RegClass {
        if self.0 < NUM_INT_REGS {
            RegClass::Int
        } else if self.0 < NUM_INT_REGS + NUM_FP_REGS {
            RegClass::Fp
        } else {
            RegClass::Flags
        }
    }

    /// The index of this register within its class.
    pub fn index_in_class(self) -> u16 {
        match self.class() {
            RegClass::Int => self.0,
            RegClass::Fp => self.0 - NUM_INT_REGS,
            RegClass::Flags => 0,
        }
    }

    /// Returns `true` if this is the flags register.
    pub fn is_flags(self) -> bool {
        self.class() == RegClass::Flags
    }

    /// Iterates over every architectural register.
    pub fn all() -> impl Iterator<Item = ArchReg> {
        (0..NUM_ARCH_REGS).map(ArchReg)
    }
}

impl fmt::Display for ArchReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.class() {
            RegClass::Int => write!(f, "r{}", self.index_in_class()),
            RegClass::Fp => write!(f, "f{}", self.index_in_class()),
            RegClass::Flags => write!(f, "flags"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_registers_roundtrip() {
        for i in 0..NUM_INT_REGS {
            let r = ArchReg::int(i);
            assert_eq!(r.class(), RegClass::Int);
            assert_eq!(r.index_in_class(), i);
            assert_eq!(ArchReg::from_raw(r.raw()), r);
        }
    }

    #[test]
    fn fp_registers_roundtrip() {
        for i in 0..NUM_FP_REGS {
            let r = ArchReg::fp(i);
            assert_eq!(r.class(), RegClass::Fp);
            assert_eq!(r.index_in_class(), i);
            assert_eq!(ArchReg::from_raw(r.raw()), r);
        }
    }

    #[test]
    fn flags_register() {
        let r = ArchReg::flags();
        assert!(r.is_flags());
        assert_eq!(r.class(), RegClass::Flags);
        assert_eq!(r.index_in_class(), 0);
    }

    #[test]
    fn all_covers_every_register_exactly_once() {
        let regs: Vec<_> = ArchReg::all().collect();
        assert_eq!(regs.len(), NUM_ARCH_REGS as usize);
        for (i, r) in regs.iter().enumerate() {
            assert_eq!(r.raw() as usize, i);
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(ArchReg::int(3).to_string(), "r3");
        assert_eq!(ArchReg::fp(7).to_string(), "f7");
        assert_eq!(ArchReg::flags().to_string(), "flags");
    }

    #[test]
    #[should_panic]
    fn int_out_of_range_panics() {
        let _ = ArchReg::int(NUM_INT_REGS);
    }

    #[test]
    #[should_panic]
    fn raw_out_of_range_panics() {
        let _ = ArchReg::from_raw(NUM_ARCH_REGS);
    }
}
