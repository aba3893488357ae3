//! Synthetic variable-length ISA model for the BeBoP reproduction.
//!
//! The BeBoP paper ([Perais & Seznec, HPCA 2015]) targets an x86-like ISA where
//! instructions have variable byte lengths, may decode into several µ-ops, and may
//! produce more than one result. Those three properties are exactly what makes
//! *block-based* value prediction necessary: there is no cheap way to associate a
//! predictor entry with a precise instruction PC at fetch time.
//!
//! This crate provides a compact synthetic ISA preserving those properties:
//!
//! * [`ArchReg`] — architectural registers (integer, floating point, flags).
//! * [`UopKind`] / [`Uop`] — µ-ops with execution classes and register operands.
//! * [`StaticInst`] — a variable-length macro-instruction (1–8 bytes) expanding to
//!   1–3 µ-ops.
//! * Fetch-block helpers ([`fetch_block_pc`], [`byte_index_in_block`]) —
//!   16-byte fetch-block arithmetic, byte indexes (the tags BeBoP uses to
//!   attribute predictions) and boundary bits.
//! * [`Program`], [`BasicBlock`] — a static control-flow representation that the
//!   workload generators in `bebop-trace` walk to produce dynamic µ-op streams.
//! * [`DynUop`] — one dynamic µ-op record as consumed by the `bebop-uarch`
//!   pipeline simulator (produced value, memory address, branch outcome, …).
//!
//! # Example
//!
//! ```
//! use bebop_isa::{ArchReg, StaticInst, UopKind, fetch_block_pc, byte_index_in_block};
//!
//! // A 5-byte ALU instruction at PC 0x1003 producing r3 = r1 + r2.
//! let inst = StaticInst::alu(ArchReg::int(3), &[ArchReg::int(1), ArchReg::int(2)], 5);
//! assert_eq!(inst.len_bytes(), 5);
//! assert_eq!(inst.uops().len(), 1);
//! assert_eq!(inst.uops()[0].kind(), UopKind::Alu);
//!
//! // Fetch-block arithmetic used by BeBoP.
//! assert_eq!(fetch_block_pc(0x1003, 16), 0x1000);
//! assert_eq!(byte_index_in_block(0x1003, 16), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod block;
mod dynuop;
mod inst;
mod program;
mod reg;
mod seq_queue;
mod state;
mod uop;

pub use block::{byte_index_in_block, fetch_block_pc, fold_bits, DEFAULT_FETCH_BLOCK_BYTES};
pub use dynuop::{BranchInfo, BranchKind, DynUop, MemAccess, SeqNum};
pub use inst::{StaticInst, MAX_INST_BYTES, MAX_UOPS_PER_INST};
pub use program::{BasicBlock, BasicBlockId, Program, ProgramBuilder, Terminator};
pub use reg::{ArchReg, RegClass, NUM_ARCH_REGS, NUM_FP_REGS, NUM_INT_REGS};
pub use seq_queue::{SeqQueue, Sequenced};
pub use state::{
    ensure, restore_snapshot, snapshot, Nested, Snap, StateError, StateReader, StateResult,
    StateWriter, VarVec,
};
pub use uop::{ExecClass, Uop, UopKind, MAX_SRCS};
