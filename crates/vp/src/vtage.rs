//! The VTAGE value predictor: TAGE applied to value prediction.
//!
//! VTAGE predicts the *value* of an instruction from the global branch / path
//! history: a tagless last-value base component plus several partially tagged
//! components indexed with geometrically increasing history lengths. Because the
//! prediction is not computed from a previous (possibly in-flight) prediction,
//! VTAGE needs no speculative window and has no prediction critical path — but it
//! cannot capture strided patterns space-efficiently, which is what motivates
//! D-VTAGE.

use crate::fpc::{ForwardProbabilisticCounter, FpcParams};
use crate::tagged::{FIG5A_LOG_BASE, FIG5A_USEFUL_RESET_PERIOD};
use crate::{inst_key, Lfsr, Slots, TaggedComponents, TaggedGeometry};
use bebop_isa::{ensure, snap, snapshot, DynUop, SeqNum, SeqQueue, StateResult};
use bebop_uarch::{restore_predictor, PredictCtx, SquashInfo, ValuePredictor};

/// The second key shift of VTAGE's tag hash.
const TAG_SHIFT: u32 = 8;

/// Configuration of a VTAGE predictor. The tables have the Figure 5a shape:
/// an 8K-entry base plus six 1K-entry tagged components, 13-bit first tag,
/// histories from 2 to 64, useful bits reset every 512K updates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VtageConfig {
    /// Confidence parameters.
    pub fpc: FpcParams,
}

#[derive(Debug, Clone, Copy, Default)]
struct BaseEntry {
    value: u64,
    conf: ForwardProbabilisticCounter,
}

#[derive(Debug, Clone, Copy, Default)]
struct TaggedEntry {
    valid: bool,
    tag: u16,
    value: u64,
    conf: ForwardProbabilisticCounter,
    useful: bool,
}

/// Prediction-time information remembered until retirement (the role the FIFO
/// update queue plays in hardware).
#[derive(Debug, Clone, Copy, Default)]
struct Inflight {
    /// Provider component (`None` = base) and its index.
    provider: Option<(usize, usize)>,
    base_index: usize,
    /// Index and tag of every tagged component at prediction time.
    slots: Slots,
    /// The value the predictor would predict (regardless of confidence).
    prediction: u64,
    /// The alternate prediction (next hitting component / base).
    alt_prediction: u64,
}

/// The VTAGE predictor.
#[derive(Debug, Clone)]
pub struct Vtage {
    cfg: VtageConfig,
    base: Vec<BaseEntry>,
    tagged: TaggedComponents<Vec<TaggedEntry>>,
    inflight: SeqQueue<(SeqNum, Inflight)>,
    rng: Lfsr,
    updates: u64,
}

impl Vtage {
    /// Creates a VTAGE predictor.
    pub fn new(cfg: VtageConfig) -> Self {
        let geometry = TaggedGeometry::figure_5a();
        let table = vec![TaggedEntry::default(); 1 << geometry.index_bits()];
        Vtage {
            base: vec![BaseEntry::default(); 1 << FIG5A_LOG_BASE],
            tagged: TaggedComponents::new(geometry, table),
            inflight: SeqQueue::default(),
            rng: Lfsr::new(0x7a6e),
            updates: 0,
            cfg,
        }
    }

    /// The Figure 5a configuration (8K base + 6 × 1K tagged).
    pub fn default_config() -> Self {
        Vtage::new(VtageConfig::default())
    }

    /// Computes the prediction context for a µ-op: provider, alternate and slots.
    fn lookup(&mut self, key: u64, ghist: u64, path: u64) -> Inflight {
        let k = key >> 1;
        // CAST: masked to the base table size.
        let base_index = (k & (self.base.len() as u64 - 1)) as usize;
        let slots = self.tagged.slots(k, ghist, path, TAG_SHIFT);
        let (provider, alt) = self.tagged.providers(&slots);
        let base_value = self.base[base_index].value;
        let value = |(c, i): (usize, usize)| self.tagged[c][i].value;
        Inflight {
            provider,
            base_index,
            slots,
            prediction: provider.map_or(base_value, value),
            alt_prediction: alt.map_or(base_value, value),
        }
    }

    fn provider_confident(&self, info: &Inflight) -> bool {
        match info.provider {
            Some((c, i)) => self.tagged[c][i].conf.is_confident(&self.cfg.fpc),
            None => self.base[info.base_index].conf.is_confident(&self.cfg.fpc),
        }
    }

    fn train_with(&mut self, info: Inflight, actual: u64) {
        self.updates += 1;
        let fpc = &self.cfg.fpc;
        let correct = info.prediction == actual;

        match info.provider {
            Some((c, i)) => {
                let alt_matches = info.alt_prediction == actual;
                let e = self.tagged.entry_mut(c, i);
                if correct {
                    e.conf.on_correct(fpc, &mut self.rng);
                    if !alt_matches {
                        self.tagged.set_useful(c, i, true);
                    }
                } else {
                    e.conf.on_wrong();
                    e.value = actual;
                    self.tagged.set_useful(c, i, false);
                }
            }
            None => {
                let e = &mut self.base[info.base_index];
                if correct {
                    e.conf.on_correct(fpc, &mut self.rng);
                } else {
                    e.conf.on_wrong();
                }
                e.value = actual;
            }
        }

        // On a misprediction, allocate in a component using a longer history.
        if !correct {
            if let Some(c) = self
                .tagged
                .victim(&info.slots, info.provider, &mut self.rng)
            {
                let (idx, tag) = info.slots.get(c);
                self.tagged.install(
                    c,
                    idx,
                    TaggedEntry {
                        valid: true,
                        tag,
                        value: actual,
                        conf: ForwardProbabilisticCounter::new(),
                        useful: false,
                    },
                );
            }
        }
        self.tagged
            .reset_useful_if_due(self.updates, FIG5A_USEFUL_RESET_PERIOD);
    }

    /// Clamps restored confidence levels to the configured saturation and
    /// rejects in-flight records indexing outside the tables.
    fn check_restored(&mut self) -> StateResult<()> {
        let fpc = &self.cfg.fpc;
        for e in &mut self.base {
            e.conf.set_level(e.conf.level(), fpc);
        }
        for e in self.tagged.entries_mut() {
            e.conf.set_level(e.conf.level(), fpc);
        }
        for (_, info) in self.inflight.iter() {
            ensure(
                info.base_index < self.base.len() && self.tagged.holds(info.provider, &info.slots),
                "VTAGE in-flight record indexes outside the tables",
            )?;
        }
        Ok(())
    }
}

snap!(BaseEntry {
    value: u64,
    conf: ForwardProbabilisticCounter
});
snap!(TaggedEntry {
    valid: bool,
    tag: u16,
    value: u64,
    conf: ForwardProbabilisticCounter,
    useful: bool,
});
crate::tagged_entry!(TaggedEntry);
snap!(Inflight {
    provider: Option<(usize, usize)>,
    base_index: usize,
    slots: Slots,
    prediction: u64,
    alt_prediction: u64,
});
snap!(Vtage {
    base: Vec<BaseEntry>,
    tagged: TaggedComponents<Vec<TaggedEntry>>,
    inflight: SeqQueue<(SeqNum, Inflight)>,
    rng: Lfsr,
    updates: u64,
} validate check_restored);

impl ValuePredictor for Vtage {
    fn name(&self) -> &str {
        "VTAGE"
    }

    fn predict(&mut self, ctx: &PredictCtx, uop: &DynUop) -> Option<u64> {
        let key = inst_key(uop);
        let info = self.lookup(key, ctx.global_history, ctx.path_history);
        let confident = self.provider_confident(&info);
        let prediction = info.prediction;
        self.inflight.push((uop.seq, info));
        confident.then_some(prediction)
    }

    fn train(&mut self, uop: &DynUop, actual: u64, _predicted: Option<u64>) {
        if let Some((_, info)) = self.inflight.retire(uop.seq) {
            self.train_with(info, actual);
        }
    }

    fn train_wrong_path(&mut self, uop: &DynUop, actual: u64, _predicted: Option<u64>) {
        // Guarded wrong-path update: the polluting table update applies the
        // µ-op's own record, pushed by the predict probe just before.
        if let Some((_, info)) = self.inflight.take_wrong_path(uop.seq) {
            self.train_with(info, actual);
        }
    }

    fn squash(&mut self, info: &SquashInfo) {
        self.inflight.squash(info.flush_seq, drop);
    }

    fn storage_bits(&self) -> u64 {
        // Base: value + confidence. Tagged: valid + value + confidence + useful.
        self.base.len() as u64 * (64 + 3) + self.tagged.storage_bits(1 + 64 + 3 + 1)
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

    fn fast_cfg() -> VtageConfig {
        VtageConfig {
            fpc: FpcParams::deterministic(2),
        }
    }

    #[test]
    fn constant_value_predicted_by_base() {
        let mut v = Vtage::new(fast_cfg());
        for seq in 0..4 {
            let u = uop(seq, 0x100, 99);
            let _ = v.predict(&ctx(0), &u);
            v.train(&u, 99, None);
        }
        assert_eq!(v.predict(&ctx(0), &uop(10, 0x100, 99)), Some(99));
    }

    #[test]
    fn history_correlated_values_predicted_by_tagged_components() {
        // The value alternates with the low bit of the branch history: a pure
        // last-value predictor cannot capture it, VTAGE can.
        let mut v = Vtage::new(fast_cfg());
        let mut correct_late = 0;
        let mut total_late = 0;
        for i in 0..4000u64 {
            let ghist = i % 2;
            let value = if ghist == 0 { 111 } else { 222 };
            let u = uop(i, 0x200, value);
            let p = v.predict(&ctx(ghist), &u);
            if i > 3000 {
                total_late += 1;
                if p == Some(value) {
                    correct_late += 1;
                }
            }
            v.train(&u, value, None);
        }
        assert!(
            correct_late as f64 / total_late as f64 > 0.8,
            "VTAGE should capture history-correlated values ({correct_late}/{total_late})"
        );
    }

    #[test]
    fn strided_values_are_not_captured_well() {
        // A strided sequence occupies a new entry per value: coverage stays low.
        let mut v = Vtage::new(fast_cfg());
        let mut predicted = 0;
        for i in 0..2000u64 {
            let u = uop(i, 0x300, i * 8);
            if v.predict(&ctx(i & 0xff), &u).is_some() {
                predicted += 1;
            }
            v.train(&u, i * 8, None);
        }
        assert!(
            predicted < 200,
            "VTAGE should not confidently predict an endless strided pattern, got {predicted}"
        );
    }

    #[test]
    fn squash_drops_pending_updates() {
        let mut v = Vtage::new(fast_cfg());
        let u = uop(5, 0x400, 1);
        let _ = v.predict(&ctx(0), &u);
        v.squash(&SquashInfo {
            flush_seq: 4,
            flush_pc: 0x400,
            next_pc: 0x404,
            cause: bebop_uarch::SquashCause::BranchMispredict,
            asid: 0,
        });
        // Training after the squash silently ignores the dropped entry.
        v.train(&u, 1, None);
        assert_eq!(v.inflight.len(), 0);
    }

    #[test]
    fn storage_is_hundreds_of_kilobytes_with_full_values() {
        // Full 64-bit values make VTAGE big — the motivation for D-VTAGE.
        let kb = Vtage::default_config().storage_bits() as f64 / 8.0 / 1024.0;
        assert!(
            kb > 100.0,
            "VTAGE with full values should exceed 100 KB, got {kb}"
        );
    }
}
