//! Static program representation: basic blocks and control flow.
//!
//! Workload generators build a [`Program`] — a small control-flow graph of
//! [`BasicBlock`]s laid out at concrete byte addresses — and then *walk* it to
//! produce a dynamic µ-op stream. Keeping a static layout is important for the
//! BeBoP reproduction: predictor behaviour depends on PC reuse, fetch-block
//! alignment of instructions and branch-history correlation, all of which come
//! from the static code layout.

use crate::inst::StaticInst;
use std::fmt;

/// Identifier of a basic block inside a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BasicBlockId(pub usize);

impl fmt::Display for BasicBlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// How control leaves a basic block.
///
/// The dynamic direction of conditional terminators is decided by the workload
/// generator (e.g. loop trip counts, data-dependent predicates); the static
/// representation only records the possible successors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Terminator {
    /// Fall through to the next block; the block does not end with a branch.
    FallThrough(BasicBlockId),
    /// Conditional branch: taken goes to `taken`, not-taken falls through to `not_taken`.
    Conditional {
        /// Successor when the branch is taken.
        taken: BasicBlockId,
        /// Successor when the branch is not taken.
        not_taken: BasicBlockId,
    },
    /// Unconditional jump to a block.
    Jump(BasicBlockId),
    /// Terminates the walk (end of the region of interest).
    Exit,
}

/// A basic block: a run of instructions ending in (at most) one branch.
#[derive(Debug, Clone)]
pub struct BasicBlock {
    insts: Vec<StaticInst>,
    terminator: Terminator,
}

impl BasicBlock {
    /// Creates a basic block.
    pub fn new(insts: Vec<StaticInst>, terminator: Terminator) -> Self {
        BasicBlock { insts, terminator }
    }

    /// The instructions of this block in program order.
    pub fn insts(&self) -> &[StaticInst] {
        &self.insts
    }

    /// The terminator of this block.
    pub fn terminator(&self) -> Terminator {
        self.terminator
    }

    /// Total byte size of this block.
    pub fn size_bytes(&self) -> u64 {
        self.insts.iter().map(|i| u64::from(i.len_bytes())).sum()
    }

    /// Total number of µ-ops in this block.
    pub fn num_uops(&self) -> usize {
        self.insts.iter().map(|i| i.uops().len()).sum()
    }
}

/// A static program: basic blocks laid out at concrete addresses.
///
/// # Example
///
/// ```
/// use bebop_isa::{ArchReg, ProgramBuilder, StaticInst, Terminator};
///
/// let mut b = ProgramBuilder::new(0x1000);
/// let body = b.reserve();
/// b.define(
///     body,
///     vec![
///         StaticInst::alu(ArchReg::int(1), &[ArchReg::int(1)], 4),
///         StaticInst::cmp_branch(ArchReg::int(1), ArchReg::int(2), 3),
///     ],
///     Terminator::Conditional { taken: body, not_taken: body },
/// );
/// let program = b.build(body);
/// assert_eq!(program.num_blocks(), 1);
/// assert!(program.block_pc(body) >= 0x1000);
/// ```
#[derive(Debug, Clone)]
pub struct Program {
    blocks: Vec<BasicBlock>,
    block_pcs: Vec<u64>,
    entry: BasicBlockId,
}

impl Program {
    /// The entry basic block.
    pub fn entry(&self) -> BasicBlockId {
        self.entry
    }

    /// The number of basic blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The basic block with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn block(&self, id: BasicBlockId) -> &BasicBlock {
        &self.blocks[id.0]
    }

    /// The start PC of the given basic block.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn block_pc(&self, id: BasicBlockId) -> u64 {
        self.block_pcs[id.0]
    }

    /// Iterates over `(id, block, start_pc)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (BasicBlockId, &BasicBlock, u64)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BasicBlockId(i), b, self.block_pcs[i]))
    }
}

/// Builder for [`Program`] values.
///
/// Blocks are first *reserved* (so forward references work), then *defined*, and are
/// laid out contiguously in reservation order starting at the base address.
#[derive(Debug)]
pub struct ProgramBuilder {
    base_pc: u64,
    blocks: Vec<Option<BasicBlock>>,
}

impl ProgramBuilder {
    /// Starts building a program laid out from `base_pc`.
    pub fn new(base_pc: u64) -> Self {
        ProgramBuilder {
            base_pc,
            blocks: Vec::new(),
        }
    }

    /// Reserves a basic-block id for later definition.
    pub fn reserve(&mut self) -> BasicBlockId {
        self.blocks.push(None);
        BasicBlockId(self.blocks.len() - 1)
    }

    /// Defines a previously reserved block.
    ///
    /// # Panics
    ///
    /// Panics if the id was not reserved or was already defined.
    pub fn define(&mut self, id: BasicBlockId, insts: Vec<StaticInst>, terminator: Terminator) {
        let slot = self
            .blocks
            .get_mut(id.0)
            // INVARIANT: documented panic — misuse of the builder API.
            .unwrap_or_else(|| panic!("basic block {id} was never reserved"));
        assert!(slot.is_none(), "basic block {id} defined twice");
        *slot = Some(BasicBlock::new(insts, terminator));
    }

    /// Reserves and immediately defines a block.
    pub fn add(&mut self, insts: Vec<StaticInst>, terminator: Terminator) -> BasicBlockId {
        let id = self.reserve();
        self.define(id, insts, terminator);
        id
    }

    /// Finishes the program with the given entry block.
    ///
    /// # Panics
    ///
    /// Panics if any reserved block was never defined, if a terminator references an
    /// unknown block, or if `entry` is out of range.
    pub fn build(self, entry: BasicBlockId) -> Program {
        let blocks: Vec<BasicBlock> = self
            .blocks
            .into_iter()
            .enumerate()
            .map(|(i, b)| {
                // INVARIANT: documented panic — misuse of the builder API.
                b.unwrap_or_else(|| panic!("basic block bb{i} reserved but never defined"))
            })
            .collect();
        assert!(entry.0 < blocks.len(), "entry block out of range");
        let check = |id: BasicBlockId| {
            assert!(
                id.0 < blocks.len(),
                "terminator references unknown block {id}"
            );
        };
        for b in &blocks {
            match b.terminator() {
                Terminator::FallThrough(t) | Terminator::Jump(t) => check(t),
                Terminator::Conditional { taken, not_taken } => {
                    check(taken);
                    check(not_taken);
                }
                Terminator::Exit => {}
            }
        }
        let mut block_pcs = Vec::with_capacity(blocks.len());
        let mut pc = self.base_pc;
        for b in &blocks {
            block_pcs.push(pc);
            pc += b.size_bytes();
        }
        Program {
            blocks,
            block_pcs,
            entry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::ArchReg;

    fn simple_inst(len: u8) -> StaticInst {
        StaticInst::alu(ArchReg::int(1), &[ArchReg::int(2)], len)
    }

    #[test]
    fn layout_is_contiguous() {
        let mut b = ProgramBuilder::new(0x4000);
        let bb0 = b.add(vec![simple_inst(4), simple_inst(3)], Terminator::Exit);
        let bb1 = b.add(vec![simple_inst(8)], Terminator::Exit);
        let p = b.build(bb0);
        assert_eq!(p.block_pc(bb0), 0x4000);
        assert_eq!(p.block_pc(bb1), 0x4007);
        let code_bytes: u64 = p.iter().map(|(_, block, _)| block.size_bytes()).sum();
        assert_eq!(code_bytes, 15);
    }

    #[test]
    fn forward_references_work() {
        let mut b = ProgramBuilder::new(0);
        let head = b.reserve();
        let body = b.reserve();
        b.define(head, vec![simple_inst(2)], Terminator::Jump(body));
        b.define(body, vec![simple_inst(2)], Terminator::Exit);
        let p = b.build(head);
        assert_eq!(p.num_blocks(), 2);
        assert_eq!(p.entry(), head);
    }

    #[test]
    fn block_uop_count() {
        let bb = BasicBlock::new(
            vec![
                StaticInst::cmp_branch(ArchReg::int(0), ArchReg::int(1), 3),
                simple_inst(4),
            ],
            Terminator::Exit,
        );
        assert_eq!(bb.num_uops(), 3);
        assert_eq!(bb.size_bytes(), 7);
    }

    #[test]
    #[should_panic]
    fn undefined_block_panics() {
        let mut b = ProgramBuilder::new(0);
        let _unused = b.reserve();
        let bb = b.add(vec![simple_inst(1)], Terminator::Exit);
        let _ = b.build(bb);
    }

    #[test]
    #[should_panic]
    fn double_definition_panics() {
        let mut b = ProgramBuilder::new(0);
        let id = b.reserve();
        b.define(id, vec![simple_inst(1)], Terminator::Exit);
        b.define(id, vec![simple_inst(1)], Terminator::Exit);
    }
}
