//! The interface between the pipeline and a value predictor.
//!
//! The pipeline calls the predictor at three points, always in program order:
//!
//! 1. [`ValuePredictor::predict`] when a VP-eligible µ-op is fetched. The predictor
//!    returns `Some(value)` only when it is confident enough for the pipeline to
//!    *use* the prediction (the pipeline applies every prediction it receives —
//!    confidence filtering is the predictor's job, as in the paper).
//! 2. [`ValuePredictor::train`] when the µ-op retires, with the architectural
//!    value. This is where tables are updated; it happens only once the µ-op's
//!    retirement is architecturally visible to younger fetches, so computational
//!    predictors must bridge the gap with their own speculative window.
//! 3. [`ValuePredictor::squash`] when the pipeline flushes (branch misprediction or
//!    value misprediction at commit), so speculative predictor state can roll back.

use bebop_isa::{restore_snapshot, snap, snap_enum, DynUop, SeqNum, Snap};
use std::fmt::Debug;

/// Front-end context available when a prediction is made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictCtx {
    /// Program-order sequence number of the µ-op being predicted.
    pub seq: SeqNum,
    /// The fetch-block PC (block-aligned) of the µ-op.
    pub fetch_block_pc: u64,
    /// `true` if this µ-op is the first one predicted in its fetch block instance.
    pub new_fetch_block: bool,
    /// Committed global branch history (most recent outcome in bit 0).
    pub global_history: u64,
    /// Folded path history.
    pub path_history: u64,
    /// Address-space identifier of the context being predicted (0 for
    /// single-program traces). Sharing-policy-aware predictors use it to
    /// partition or tag their storage; everything else may ignore it.
    pub asid: u8,
}

/// Why the pipeline flushed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SquashCause {
    /// A branch misprediction detected at execute.
    #[default]
    BranchMispredict,
    /// A value misprediction detected at commit-time validation.
    ValueMispredict,
}

/// Description of a pipeline flush, passed to [`ValuePredictor::squash`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SquashInfo {
    /// Sequence number of the µ-op that triggered the flush (`Iflush` in the
    /// paper); all strictly younger µ-ops are squashed.
    pub flush_seq: SeqNum,
    /// PC of the flushing instruction (`Bflush` is its fetch block).
    pub flush_pc: u64,
    /// PC of the first instruction fetched after the flush (`Inew` / `Bnew`).
    pub next_pc: u64,
    /// The cause of the flush.
    pub cause: SquashCause,
    /// Address-space identifier of the flushing µ-op's context (0 for
    /// single-program traces); sharing-policy-aware predictors need it to
    /// re-derive the context-folded block keys of `flush_pc`/`next_pc`.
    pub asid: u8,
}

impl SquashInfo {
    /// The squash of a mispredicted branch `uop`: everything younger is
    /// flushed and fetch resumes at the branch's actual successor.
    pub fn branch(uop: &DynUop) -> Self {
        SquashInfo {
            flush_seq: uop.seq,
            flush_pc: uop.pc,
            next_pc: uop.next_pc(),
            cause: SquashCause::BranchMispredict,
            asid: uop.asid,
        }
    }

    /// The squash of a value-mispredicted `uop`, detected by validation at
    /// commit: everything younger is flushed, so fetch refetches the µ-op's
    /// own instruction (its remaining µ-ops) unless `uop` is its last µ-op.
    pub fn value(uop: &DynUop) -> Self {
        SquashInfo {
            flush_seq: uop.seq,
            flush_pc: uop.pc,
            next_pc: if uop.is_last_uop() {
                uop.next_pc()
            } else {
                uop.pc
            },
            cause: SquashCause::ValueMispredict,
            asid: uop.asid,
        }
    }
}

snap_enum!(SquashCause {
    BranchMispredict = 0,
    ValueMispredict = 1,
} else "invalid squash cause byte");
snap!(SquashInfo {
    flush_seq: u64,
    flush_pc: u64,
    next_pc: u64,
    cause: SquashCause,
    asid: u8,
});

/// A value predictor as seen by the pipeline.
pub trait ValuePredictor: Debug {
    /// A short human-readable name (used in reports).
    fn name(&self) -> &str;

    /// Predicts the result of `uop`, returning `Some(value)` only when the
    /// prediction is confident enough to be consumed by the pipeline.
    fn predict(&mut self, ctx: &PredictCtx, uop: &DynUop) -> Option<u64>;

    /// Trains the predictor with the retired µ-op's architectural `actual` value.
    /// `predicted` is the value returned by [`ValuePredictor::predict`] for this
    /// µ-op, if any.
    fn train(&mut self, uop: &DynUop, actual: u64, predicted: Option<u64>);

    /// Delivers the (bogus) result of a speculatively executed *wrong-path*
    /// µ-op, under the pipeline's `update_predictor` pollution policy.
    ///
    /// This is the guarded counterpart of [`ValuePredictor::train`]: it is
    /// called immediately at wrong-path execute time — *before* the
    /// mispredicted branch's [`ValuePredictor::squash`] — and out of
    /// retirement order, so implementations must not run their program-order
    /// retirement bookkeeping here. Predictors that model speculative table
    /// updates apply the value through a dedicated path (typically consuming
    /// the in-flight record their own `predict` call just pushed); the
    /// default ignores the update entirely, which is the paper's
    /// commit-time-update baseline.
    fn train_wrong_path(&mut self, uop: &DynUop, actual: u64, predicted: Option<u64>) {
        let _ = (uop, actual, predicted);
    }

    /// Notifies the predictor of a pipeline flush so it can roll back speculative
    /// state. The default does nothing.
    fn squash(&mut self, info: &SquashInfo) {
        let _ = info;
    }

    /// The storage footprint of the predictor in bits (0 if not meaningful).
    fn storage_bits(&self) -> u64 {
        0
    }

    /// Serialises the predictor's *mutable* state (table entries, in-flight
    /// records, RNG state) into a flat byte payload for checkpointing.
    ///
    /// The payload is restored onto a freshly constructed predictor of the
    /// identical configuration via [`ValuePredictor::restore_state`], after
    /// which the pair must behave bit-identically to the original. Stateful
    /// predictors state their layout once as a [`Snap`] field list
    /// (`bebop_isa::snap!`) and implement this as
    /// [`bebop_isa::snapshot`]`(self)`; stateless predictors (the default)
    /// return an empty payload.
    fn save_state(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restores state saved by [`ValuePredictor::save_state`] onto a freshly
    /// constructed predictor of the identical configuration.
    ///
    /// Implementations must reject (return `Err`) rather than panic on a
    /// truncated, corrupt or mismatched payload, leaving the caller free to
    /// discard the checkpoint and fall back to a from-zero run; the [`Snap`]
    /// codec guarantees that, so stateful predictors delegate to
    /// [`restore_predictor`]. The default accepts only the empty payload the
    /// default `save_state` produces.
    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        if bytes.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "predictor '{}' carries no restorable state but the payload has {} bytes",
                self.name(),
                bytes.len()
            ))
        }
    }
}

/// [`ValuePredictor::restore_state`] for a predictor whose state is one
/// [`Snap`] layout: decodes the whole payload onto `p`, naming the predictor
/// in the error.
pub fn restore_predictor<P: ValuePredictor + Snap>(p: &mut P, bytes: &[u8]) -> Result<(), String> {
    restore_snapshot(p, bytes).map_err(|e| format!("{}: {e}", p.name()))
}

/// A predictor that never predicts: plugging it in yields the baseline pipeline.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoValuePredictor;

impl ValuePredictor for NoValuePredictor {
    fn name(&self) -> &str {
        "none"
    }

    fn predict(&mut self, _ctx: &PredictCtx, _uop: &DynUop) -> Option<u64> {
        None
    }

    fn train(&mut self, _uop: &DynUop, _actual: u64, _predicted: Option<u64>) {}
}

/// An oracle predictor that always predicts the correct value: an upper bound on
/// value-prediction benefit, useful for tests and limit studies.
#[derive(Debug, Clone, Copy, Default)]
pub struct PerfectValuePredictor;

impl ValuePredictor for PerfectValuePredictor {
    fn name(&self) -> &str {
        "perfect"
    }

    fn predict(&mut self, _ctx: &PredictCtx, uop: &DynUop) -> Option<u64> {
        Some(uop.value)
    }

    fn train(&mut self, _uop: &DynUop, _actual: u64, _predicted: Option<u64>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use bebop_isa::{ArchReg, Uop, UopKind};

    fn uop() -> DynUop {
        DynUop::new(
            3,
            0x100,
            4,
            0,
            1,
            Uop::new(UopKind::Alu, Some(ArchReg::int(1)), &[]),
            42,
        )
    }

    fn ctx() -> PredictCtx {
        PredictCtx {
            seq: 3,
            fetch_block_pc: 0x100,
            new_fetch_block: true,
            global_history: 0,
            path_history: 0,
            asid: 0,
        }
    }

    #[test]
    fn no_predictor_never_predicts() {
        let mut p = NoValuePredictor;
        assert_eq!(p.predict(&ctx(), &uop()), None);
        assert_eq!(p.storage_bits(), 0);
        assert_eq!(p.name(), "none");
    }

    #[test]
    fn perfect_predictor_always_matches() {
        let mut p = PerfectValuePredictor;
        assert_eq!(p.predict(&ctx(), &uop()), Some(42));
        assert_eq!(p.name(), "perfect");
    }

    #[test]
    fn default_squash_is_noop() {
        let mut p = NoValuePredictor;
        p.squash(&SquashInfo {
            flush_seq: 1,
            flush_pc: 0x100,
            next_pc: 0x104,
            cause: SquashCause::ValueMispredict,
            asid: 0,
        });
    }
}
