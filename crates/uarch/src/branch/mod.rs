//! Branch prediction: TAGE direction predictor, BTB and return-address stack.

mod btb;
mod tage;

pub use btb::{Btb, ReturnAddressStack};
pub use tage::{Tage, TageConfig};

use bebop_isa::{snap, BranchInfo, BranchKind};

/// Statistics of the branch prediction unit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchStats {
    /// Conditional branches predicted.
    pub cond_branches: u64,
    /// Conditional direction mispredictions.
    pub cond_mispredicts: u64,
    /// Taken branches whose target was absent from the BTB/RAS.
    pub target_mispredicts: u64,
}

/// The front-end branch prediction unit: a TAGE direction predictor, a set
/// associative BTB and a return-address stack, as configured in Table I.
#[derive(Debug, Clone)]
pub struct BranchPredictorUnit {
    tage: Tage,
    btb: Btb,
    ras: ReturnAddressStack,
    stats: BranchStats,
}

impl BranchPredictorUnit {
    /// Creates the unit from a TAGE configuration, BTB entry count and RAS depth.
    pub fn new(tage_cfg: TageConfig, btb_entries: usize, ras_entries: usize) -> Self {
        BranchPredictorUnit {
            tage: Tage::new(tage_cfg),
            btb: Btb::new(btb_entries, 2),
            ras: ReturnAddressStack::new(ras_entries),
            stats: BranchStats::default(),
        }
    }

    /// Predicts the branch at `pc` with actual outcome `actual`, updates the
    /// predictor state and returns `true` if the branch was *mispredicted*
    /// (direction or target).
    ///
    /// The trace-driven pipeline only needs to know whether a misprediction
    /// happened — the wrong path is never simulated — so prediction and update are
    /// folded into a single call performed in program order.
    pub fn predict_and_update(&mut self, pc: u64, fallthrough: u64, actual: BranchInfo) -> bool {
        match actual.kind {
            BranchKind::Conditional => {
                self.stats.cond_branches += 1;
                let pred = self.tage.predict_and_update(pc, actual.taken);
                let dir_wrong = pred != actual.taken;
                // A correctly predicted taken branch still needs the target: charge a
                // target misprediction if the BTB did not know it.
                let mut target_wrong = false;
                if actual.taken {
                    let btb_target = self.btb.update(pc, actual.target);
                    if !dir_wrong && btb_target != Some(actual.target) {
                        target_wrong = true;
                        self.stats.target_mispredicts += 1;
                    }
                }
                if dir_wrong {
                    self.stats.cond_mispredicts += 1;
                }
                dir_wrong || target_wrong
            }
            BranchKind::Unconditional | BranchKind::Indirect => {
                let btb_target = self.btb.update(pc, actual.target);
                let wrong = btb_target != Some(actual.target);
                if wrong {
                    self.stats.target_mispredicts += 1;
                }
                wrong
            }
            BranchKind::Call => {
                self.ras.push(fallthrough);
                let btb_target = self.btb.update(pc, actual.target);
                let wrong = btb_target != Some(actual.target);
                if wrong {
                    self.stats.target_mispredicts += 1;
                }
                wrong
            }
            BranchKind::Return => {
                let predicted = self.ras.pop();
                let wrong = predicted != Some(actual.target);
                if wrong {
                    self.stats.target_mispredicts += 1;
                }
                wrong
            }
        }
    }

    /// The current (committed) global branch history, most recent outcome in bit 0.
    pub fn global_history(&self) -> u64 {
        self.tage.global_history()
    }

    /// A folded path history suitable for value-predictor indexing.
    pub fn path_history(&self) -> u64 {
        self.tage.path_history()
    }

    /// Prediction statistics.
    pub fn stats(&self) -> BranchStats {
        self.stats
    }
}

snap!(BranchStats {
    cond_branches: u64,
    cond_mispredicts: u64,
    target_mispredicts: u64,
});
snap!(BranchPredictorUnit {
    tage: Tage,
    btb: Btb,
    ras: ReturnAddressStack,
    stats: BranchStats,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> BranchPredictorUnit {
        BranchPredictorUnit::new(TageConfig::default(), 1024, 16)
    }

    fn cond(taken: bool, target: u64) -> BranchInfo {
        BranchInfo {
            kind: BranchKind::Conditional,
            taken,
            target,
        }
    }

    #[test]
    fn always_taken_branch_becomes_predictable() {
        let mut u = unit();
        let mut last_miss = true;
        for _ in 0..128 {
            last_miss = u.predict_and_update(0x1000, 0x1004, cond(true, 0x2000));
        }
        assert!(!last_miss, "an always-taken branch must end up predicted");
        assert!(u.stats().cond_mispredicts < 10);
    }

    #[test]
    fn alternating_branch_is_learned_by_history() {
        let mut u = unit();
        let mut late_misses = 0;
        for i in 0..2000u64 {
            let taken = i % 2 == 0;
            let miss = u.predict_and_update(0x1000, 0x1004, cond(taken, 0x2000));
            if i > 1000 && miss {
                late_misses += 1;
            }
        }
        assert!(
            late_misses < 50,
            "TAGE failed to learn an alternating pattern: {late_misses} late misses"
        );
    }

    #[test]
    fn random_branches_mispredict_often() {
        let mut u = unit();
        // A branch whose direction depends on a pseudo-random sequence with a long
        // period cannot be captured reliably.
        let mut x = 0x12345678u64;
        let mut misses = 0;
        for _ in 0..2000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let taken = (x >> 62) & 1 == 1;
            if u.predict_and_update(0x1000, 0x1004, cond(taken, 0x2000)) {
                misses += 1;
            }
        }
        assert!(
            misses > 400,
            "random branch should mispredict frequently, got {misses}"
        );
    }

    #[test]
    fn unconditional_jump_needs_one_btb_fill() {
        let mut u = unit();
        let j = BranchInfo {
            kind: BranchKind::Unconditional,
            taken: true,
            target: 0x9000,
        };
        assert!(u.predict_and_update(0x500, 0x502, j));
        assert!(!u.predict_and_update(0x500, 0x502, j));
    }

    #[test]
    fn call_return_pair_uses_ras() {
        let mut u = unit();
        let call = BranchInfo {
            kind: BranchKind::Call,
            taken: true,
            target: 0x9000,
        };
        let ret = BranchInfo {
            kind: BranchKind::Return,
            taken: true,
            target: 0x1008,
        };
        // Call from 0x1000 (fallthrough 0x1008), return to 0x1008.
        u.predict_and_update(0x1000, 0x1008, call);
        assert!(
            !u.predict_and_update(0x9100, 0x9102, ret),
            "RAS should predict the return"
        );
    }

    #[test]
    fn global_history_tracks_outcomes() {
        let mut u = unit();
        u.predict_and_update(0x10, 0x12, cond(true, 0x100));
        u.predict_and_update(0x20, 0x22, cond(false, 0x100));
        u.predict_and_update(0x30, 0x32, cond(true, 0x100));
        assert_eq!(u.global_history() & 0b111, 0b101);
    }
}
