//! Dynamic µ-op records.
//!
//! The `bebop-uarch` pipeline simulator is trace driven: workload generators emit a
//! stream of [`DynUop`] records carrying, for each dynamic µ-op, everything the
//! timing model needs — the architectural operation, the value it produced, the
//! memory address it touched and the branch outcome, if any.

use crate::uop::{Uop, UopKind};
use std::fmt;

/// A global sequence number identifying a dynamic µ-op (program order).
pub type SeqNum = u64;

/// The kind of a control-flow transfer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum BranchKind {
    /// Conditional direct branch.
    #[default]
    Conditional,
    /// Unconditional direct branch/jump.
    Unconditional,
    /// Direct call (pushes a return address on the RAS).
    Call,
    /// Return (pops the RAS).
    Return,
    /// Indirect jump or indirect call.
    Indirect,
}

/// The dynamic outcome of a branch µ-op.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct BranchInfo {
    /// The kind of control-flow transfer.
    pub kind: BranchKind,
    /// Whether the branch was taken.
    pub taken: bool,
    /// The target PC if taken (the fall-through PC otherwise).
    pub target: u64,
}

/// A dynamic memory access performed by a load or store µ-op.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct MemAccess {
    /// Effective virtual address.
    pub addr: u64,
    /// Access size in bytes (1–8).
    pub size: u8,
}

/// One dynamic µ-op as it flows through the simulated pipeline.
///
/// # Example
///
/// ```
/// use bebop_isa::{ArchReg, DynUop, Uop, UopKind};
///
/// let uop = Uop::new(UopKind::Alu, Some(ArchReg::int(1)), &[ArchReg::int(2)]);
/// let dyn_uop = DynUop::new(7, 0x1000, 4, 0, 1, uop, 42);
/// assert_eq!(dyn_uop.seq, 7);
/// assert_eq!(dyn_uop.value, 42);
/// assert!(dyn_uop.uop.vp_eligible());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DynUop {
    /// Program-order sequence number of this µ-op.
    pub seq: SeqNum,
    /// PC of the macro-instruction this µ-op belongs to.
    pub pc: u64,
    /// Byte length of the macro-instruction.
    pub inst_len: u8,
    /// Index of this µ-op within its macro-instruction (0-based).
    pub uop_idx: u8,
    /// Total number of µ-ops in the macro-instruction.
    pub inst_num_uops: u8,
    /// The static µ-op (kind, destination, sources).
    pub uop: Uop,
    /// The architectural value produced by this µ-op (0 if it produces none).
    pub value: u64,
    /// Memory access, for loads and stores.
    pub mem: Option<MemAccess>,
    /// Branch outcome, for branch µ-ops.
    pub branch: Option<BranchInfo>,
    /// For load-immediate µ-ops, the immediate is available at decode.
    pub imm_available_at_decode: bool,
    /// `true` if this µ-op lies on the wrong path of a mispredicted branch: it
    /// may be fetched and speculatively executed by the pipeline but never
    /// commits, and its `value` is the bogus wrong-path result. Wrong-path
    /// µ-ops are emitted by trace generators with wrong-path modelling enabled
    /// and are skipped entirely by pipelines that do not simulate them.
    pub wrong_path: bool,
    /// Address-space identifier: which simulated program (context) of a
    /// multi-programmed trace this µ-op belongs to. Single-program traces use
    /// ASID 0 throughout, which is also the default, so everything built for
    /// one context keeps working unchanged. Trace mixers
    /// (`bebop-trace::MixSpec`) tag each interleaved context's µ-ops with its
    /// index so the pipeline can switch contexts at quantum boundaries and
    /// split its statistics per context.
    pub asid: u8,
}

impl DynUop {
    /// Creates a non-memory, non-branch dynamic µ-op.
    pub fn new(
        seq: SeqNum,
        pc: u64,
        inst_len: u8,
        uop_idx: u8,
        inst_num_uops: u8,
        uop: Uop,
        value: u64,
    ) -> Self {
        DynUop {
            seq,
            pc,
            inst_len,
            uop_idx,
            inst_num_uops,
            uop,
            value,
            mem: None,
            branch: None,
            imm_available_at_decode: uop.kind() == UopKind::LoadImm,
            wrong_path: false,
            asid: 0,
        }
    }

    /// Attaches a memory access to this µ-op.
    #[must_use]
    pub fn with_mem(mut self, addr: u64, size: u8) -> Self {
        self.mem = Some(MemAccess { addr, size });
        self
    }

    /// Attaches a branch outcome to this µ-op.
    #[must_use]
    pub fn with_branch(mut self, kind: BranchKind, taken: bool, target: u64) -> Self {
        self.branch = Some(BranchInfo {
            kind,
            taken,
            target,
        });
        self
    }

    /// Marks this µ-op as lying on the wrong path of a mispredicted branch.
    #[must_use]
    pub fn with_wrong_path(mut self) -> Self {
        self.wrong_path = true;
        self
    }

    /// Tags this µ-op with the address-space identifier of its context.
    #[must_use]
    pub fn with_asid(mut self, asid: u8) -> Self {
        self.asid = asid;
        self
    }

    /// Returns `true` if this µ-op is the last of its macro-instruction.
    pub fn is_last_uop(&self) -> bool {
        self.uop_idx + 1 == self.inst_num_uops
    }

    /// The PC of the next sequential macro-instruction.
    pub fn fallthrough_pc(&self) -> u64 {
        self.pc + u64::from(self.inst_len)
    }

    /// The PC that follows this µ-op's macro-instruction in the dynamic stream
    /// (the branch target if this is a taken branch, the fall-through otherwise).
    pub fn next_pc(&self) -> u64 {
        match self.branch {
            Some(b) if b.taken => b.target,
            _ => self.fallthrough_pc(),
        }
    }

    /// Returns `true` if the µ-op is eligible for value prediction (see
    /// [`Uop::vp_eligible`]).
    pub fn vp_eligible(&self) -> bool {
        self.uop.vp_eligible()
    }
}

impl fmt::Display for DynUop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{}{} pc={:#x}.{} {} val={:#x}",
            self.seq,
            if self.wrong_path { " (wp)" } else { "" },
            self.pc,
            self.uop_idx,
            self.uop,
            self.value
        )?;
        if self.asid != 0 {
            write!(f, " asid={}", self.asid)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::ArchReg;

    fn alu_uop() -> Uop {
        Uop::new(UopKind::Alu, Some(ArchReg::int(1)), &[ArchReg::int(2)])
    }

    #[test]
    fn first_and_last_uop_flags() {
        let u0 = DynUop::new(0, 0x100, 4, 0, 2, alu_uop(), 1);
        let u1 = DynUop::new(1, 0x100, 4, 1, 2, alu_uop(), 2);
        assert!(!u0.is_last_uop());
        assert!(u1.is_last_uop());
    }

    #[test]
    fn next_pc_follows_taken_branches() {
        let br = Uop::new(UopKind::Branch, None, &[ArchReg::flags()]);
        let taken =
            DynUop::new(0, 0x100, 2, 0, 1, br, 0).with_branch(BranchKind::Conditional, true, 0x80);
        let not_taken =
            DynUop::new(1, 0x100, 2, 0, 1, br, 0).with_branch(BranchKind::Conditional, false, 0x80);
        assert_eq!(taken.next_pc(), 0x80);
        assert_eq!(not_taken.next_pc(), 0x102);
    }

    #[test]
    fn fallthrough_pc_uses_inst_len() {
        let u = DynUop::new(0, 0x1000, 7, 0, 1, alu_uop(), 0);
        assert_eq!(u.fallthrough_pc(), 0x1007);
        assert_eq!(u.next_pc(), 0x1007);
    }

    #[test]
    fn mem_attachment() {
        let ld = Uop::new(UopKind::Load, Some(ArchReg::int(3)), &[ArchReg::int(4)]);
        let u = DynUop::new(0, 0x1000, 4, 0, 1, ld, 99).with_mem(0xdead0, 8);
        assert_eq!(u.mem.unwrap().addr, 0xdead0);
        assert_eq!(u.mem.unwrap().size, 8);
    }

    #[test]
    fn wrong_path_marker() {
        let u = DynUop::new(0, 0x1000, 4, 0, 1, alu_uop(), 0);
        assert!(!u.wrong_path);
        let wp = u.with_wrong_path();
        assert!(wp.wrong_path);
        assert!(format!("{wp}").contains("(wp)"));
        assert!(!format!("{u}").contains("(wp)"));
    }

    #[test]
    fn asid_tagging() {
        let u = DynUop::new(0, 0x1000, 4, 0, 1, alu_uop(), 0);
        assert_eq!(u.asid, 0, "single-program µ-ops default to ASID 0");
        assert!(!format!("{u}").contains("asid"));
        let tagged = u.with_asid(3);
        assert_eq!(tagged.asid, 3);
        assert!(format!("{tagged}").contains("asid=3"));
    }

    #[test]
    fn load_imm_available_at_decode() {
        let li = Uop::new(UopKind::LoadImm, Some(ArchReg::int(3)), &[]);
        let u = DynUop::new(0, 0x1000, 5, 0, 1, li, 1234);
        assert!(u.imm_available_at_decode);
        let alu = DynUop::new(0, 0x1000, 5, 0, 1, alu_uop(), 1234);
        assert!(!alu.imm_available_at_decode);
    }
}
