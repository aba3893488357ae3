//! The naive VTAGE + 2-delta Stride hybrid ("VTAGE-2d-Stride" in Figure 5a).
//!
//! Both components are trained for every eligible µ-op (which is what makes the
//! hybrid space-inefficient and motivates the tightly coupled D-VTAGE). A simple
//! metapredictor arbitrates: use the confident component; if both are confident but
//! disagree, do not predict.

use crate::stride::StridePredictor;
use crate::vtage::Vtage;
use crate::FpcParams;
use bebop_isa::{snap, snapshot, DynUop, Nested};
use bebop_uarch::{restore_predictor, PredictCtx, SquashInfo, ValuePredictor};

/// A side-by-side hybrid of [`Vtage`] and 2-delta [`StridePredictor`].
#[derive(Debug, Clone)]
pub struct VtageStrideHybrid {
    vtage: Nested<Vtage>,
    stride: Nested<StridePredictor>,
}

impl VtageStrideHybrid {
    /// Builds the hybrid from explicit components.
    pub fn new(vtage: Vtage, stride: StridePredictor) -> Self {
        VtageStrideHybrid {
            vtage: Nested(vtage),
            stride: Nested(stride),
        }
    }

    /// The Figure 5a configuration: a default VTAGE next to an 8K-entry 2-delta
    /// stride predictor.
    pub fn default_config() -> Self {
        VtageStrideHybrid::new(
            Vtage::default_config(),
            StridePredictor::two_delta(13, 8, FpcParams::paper_default()),
        )
    }
}

impl ValuePredictor for VtageStrideHybrid {
    fn name(&self) -> &str {
        "VTAGE-2d-Stride"
    }

    fn predict(&mut self, ctx: &PredictCtx, uop: &DynUop) -> Option<u64> {
        let v = self.vtage.predict(ctx, uop);
        let s = self.stride.predict(ctx, uop);
        match (v, s) {
            (Some(a), Some(b)) if a == b => Some(a),
            (Some(_), Some(_)) => None, // confident but conflicting: do not predict
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        }
    }

    fn train(&mut self, uop: &DynUop, actual: u64, predicted: Option<u64>) {
        self.vtage.train(uop, actual, predicted);
        self.stride.train(uop, actual, predicted);
    }

    fn train_wrong_path(&mut self, uop: &DynUop, actual: u64, predicted: Option<u64>) {
        // Both components are polluted, mirroring how both are trained.
        self.vtage.train_wrong_path(uop, actual, predicted);
        self.stride.train_wrong_path(uop, actual, predicted);
    }

    fn squash(&mut self, info: &SquashInfo) {
        self.vtage.squash(info);
        self.stride.squash(info);
    }

    fn storage_bits(&self) -> u64 {
        self.vtage.storage_bits() + self.stride.storage_bits()
    }

    fn save_state(&self) -> Vec<u8> {
        snapshot(self)
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        restore_predictor(self, bytes)
    }
}

snap!(VtageStrideHybrid {
    vtage: Nested<Vtage>,
    stride: Nested<StridePredictor>,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fpc::FpcParams;
    use crate::vtage::VtageConfig;
    use bebop_isa::{ArchReg, SeqNum, Uop, UopKind};

    fn uop(seq: SeqNum, pc: u64, value: u64) -> DynUop {
        DynUop::new(
            seq,
            pc,
            4,
            0,
            1,
            Uop::new(UopKind::Alu, Some(ArchReg::int(1)), &[]),
            value,
        )
    }

    fn ctx(ghist: u64) -> PredictCtx {
        PredictCtx {
            seq: 0,
            fetch_block_pc: 0,
            new_fetch_block: false,
            global_history: ghist,
            path_history: 0,
            asid: 0,
        }
    }

    fn fast_hybrid() -> VtageStrideHybrid {
        VtageStrideHybrid::new(
            Vtage::new(VtageConfig {
                fpc: FpcParams::deterministic(2),
            }),
            StridePredictor::two_delta(13, 8, FpcParams::deterministic(2)),
        )
    }

    #[test]
    fn covers_both_strided_and_history_correlated_patterns() {
        let mut h = fast_hybrid();
        // Strided µ-op at 0x100, history-correlated µ-op at 0x200.
        let mut strided = 0u64;
        let mut correct_strided = 0;
        let mut correct_ctx = 0;
        let mut total = 0;
        for i in 0..4000u64 {
            strided += 4;
            let ghist = i % 2;
            let ctx_value = if ghist == 0 { 7 } else { 13 };

            let u1 = uop(i * 2, 0x100, strided);
            let u2 = uop(i * 2 + 1, 0x200, ctx_value);
            let p1 = h.predict(&ctx(ghist), &u1);
            let p2 = h.predict(&ctx(ghist), &u2);
            if i > 3000 {
                total += 1;
                if p1 == Some(strided) {
                    correct_strided += 1;
                }
                if p2 == Some(ctx_value) {
                    correct_ctx += 1;
                }
            }
            h.train(&u1, strided, None);
            h.train(&u2, ctx_value, None);
        }
        assert!(correct_strided as f64 / total as f64 > 0.8);
        assert!(correct_ctx as f64 / total as f64 > 0.8);
    }

    #[test]
    fn storage_is_sum_of_components() {
        let h = VtageStrideHybrid::default_config();
        assert_eq!(
            h.storage_bits(),
            Vtage::default_config().storage_bits()
                + StridePredictor::two_delta(13, 8, FpcParams::paper_default()).storage_bits()
        );
    }

    #[test]
    fn name_matches_figure_5a() {
        assert_eq!(
            VtageStrideHybrid::default_config().name(),
            "VTAGE-2d-Stride"
        );
    }
}
