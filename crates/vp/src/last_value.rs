//! Last Value Predictor (LVP): predicts that an instruction produces the same value
//! as its previous dynamic instance.

use crate::fpc::{ForwardProbabilisticCounter, FpcParams};
use crate::{inst_key, Lfsr};
use bebop_isa::{snap, snapshot, DynUop, StateResult};
use bebop_uarch::{restore_predictor, PredictCtx, ValuePredictor};

#[derive(Debug, Clone, Copy, Default)]
struct LvpEntry {
    valid: bool,
    tag: u16,
    value: u64,
    conf: ForwardProbabilisticCounter,
}

/// A tagged, direct-mapped last-value predictor.
#[derive(Debug, Clone)]
pub struct LastValuePredictor {
    entries: Vec<LvpEntry>,
    index_mask: u64,
    tag_bits: u32,
    params: FpcParams,
    rng: Lfsr,
}

impl LastValuePredictor {
    /// Creates a predictor with `2^log_entries` entries and `tag_bits`-bit tags.
    pub fn new(log_entries: u32, tag_bits: u32, params: FpcParams) -> Self {
        LastValuePredictor {
            entries: vec![LvpEntry::default(); 1 << log_entries],
            index_mask: (1u64 << log_entries) - 1,
            tag_bits,
            params,
            rng: Lfsr::new(0x01a5_70a1_u64 ^ 0x5eed),
        }
    }

    /// The 8K-entry configuration used as a Figure 5a baseline.
    pub fn default_config() -> Self {
        LastValuePredictor::new(13, 8, FpcParams::paper_default())
    }

    fn index(&self, key: u64) -> usize {
        ((key >> 1) & self.index_mask) as usize
    }

    fn tag(&self, key: u64) -> u16 {
        (((key >> 1) >> self.index_mask.count_ones()) & ((1 << self.tag_bits) - 1)) as u16
    }

    /// Clamps restored confidence levels to the configured saturation.
    fn check_restored(&mut self) -> StateResult<()> {
        for e in &mut self.entries {
            e.conf.set_level(e.conf.level(), &self.params);
        }
        Ok(())
    }
}

snap!(LvpEntry {
    valid: bool,
    tag: u16,
    value: u64,
    conf: ForwardProbabilisticCounter,
});
snap!(LastValuePredictor { entries: Vec<LvpEntry>, rng: Lfsr } validate check_restored);

impl ValuePredictor for LastValuePredictor {
    fn name(&self) -> &str {
        "LVP"
    }

    fn predict(&mut self, _ctx: &PredictCtx, uop: &DynUop) -> Option<u64> {
        let key = inst_key(uop);
        let e = &self.entries[self.index(key)];
        if e.valid && e.tag == self.tag(key) && e.conf.is_confident(&self.params) {
            Some(e.value)
        } else {
            None
        }
    }

    fn train(&mut self, uop: &DynUop, actual: u64, _predicted: Option<u64>) {
        let key = inst_key(uop);
        let idx = self.index(key);
        let tag = self.tag(key);
        let params = &self.params;
        let e = &mut self.entries[idx];
        if e.valid && e.tag == tag {
            if e.value == actual {
                e.conf.on_correct(params, &mut self.rng);
            } else {
                e.conf.on_wrong();
                e.value = actual;
            }
        } else {
            *e = LvpEntry {
                valid: true,
                tag,
                value: actual,
                conf: ForwardProbabilisticCounter::new(),
            };
        }
    }

    fn train_wrong_path(&mut self, uop: &DynUop, actual: u64, predicted: Option<u64>) {
        // The LVP keeps no program-order retirement bookkeeping, so the
        // guarded wrong-path update is a plain (polluting) table write.
        self.train(uop, actual, predicted);
    }

    fn storage_bits(&self) -> u64 {
        // valid + tag + 64-bit value + 3-bit confidence.
        self.entries.len() as u64 * (1 + u64::from(self.tag_bits) + 64 + 3)
    }

    fn save_state(&self) -> Vec<u8> {
        snapshot(self)
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        restore_predictor(self, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bebop_isa::{ArchReg, Uop, UopKind};
    use bebop_uarch::PredictCtx;

    fn uop(pc: u64, value: u64) -> DynUop {
        DynUop::new(
            0,
            pc,
            4,
            0,
            1,
            Uop::new(UopKind::Alu, Some(ArchReg::int(1)), &[]),
            value,
        )
    }

    fn ctx() -> PredictCtx {
        PredictCtx {
            seq: 0,
            fetch_block_pc: 0,
            new_fetch_block: false,
            global_history: 0,
            path_history: 0,
            asid: 0,
        }
    }

    #[test]
    fn constant_value_becomes_confident() {
        let mut p = LastValuePredictor::new(10, 8, FpcParams::deterministic(3));
        // One training to allocate the entry, then three correct ones to saturate
        // the deterministic 3-level confidence counter.
        for _ in 0..4 {
            assert_eq!(p.predict(&ctx(), &uop(0x100, 7)), None);
            p.train(&uop(0x100, 7), 7, None);
        }
        assert_eq!(p.predict(&ctx(), &uop(0x100, 7)), Some(7));
    }

    #[test]
    fn changing_value_resets_confidence() {
        let mut p = LastValuePredictor::new(10, 8, FpcParams::deterministic(2));
        p.train(&uop(0x100, 5), 5, None);
        p.train(&uop(0x100, 5), 5, None);
        p.train(&uop(0x100, 5), 5, None);
        assert_eq!(p.predict(&ctx(), &uop(0x100, 5)), Some(5));
        p.train(&uop(0x100, 9), 9, None);
        assert_eq!(p.predict(&ctx(), &uop(0x100, 9)), None);
    }

    #[test]
    fn different_pcs_do_not_interfere() {
        let mut p = LastValuePredictor::new(10, 8, FpcParams::deterministic(1));
        p.train(&uop(0x100, 1), 1, None);
        p.train(&uop(0x108, 2), 2, None);
        p.train(&uop(0x100, 1), 1, None);
        p.train(&uop(0x108, 2), 2, None);
        assert_eq!(p.predict(&ctx(), &uop(0x100, 0)), Some(1));
        assert_eq!(p.predict(&ctx(), &uop(0x108, 0)), Some(2));
    }

    #[test]
    fn storage_is_reported() {
        let p = LastValuePredictor::default_config();
        assert!(p.storage_bits() > 0);
        // 8K entries of ~76 bits each is roughly 76 KB: in the right ballpark.
        let kb = p.storage_bits() as f64 / 8.0 / 1024.0;
        assert!(kb > 32.0 && kb < 128.0);
    }
}
