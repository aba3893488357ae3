//! The instruction-based Differential VTAGE (D-VTAGE) predictor.
//!
//! D-VTAGE stores *strides* instead of full values in its history-indexed
//! components and adds them to the last value of the instruction, held in a Last
//! Value Table (LVT). The base component (VT0) makes it behave as a plain stride
//! predictor when no tagged component hits; the tagged components capture
//! control-flow-dependent strides. Because the prediction is computed from the last
//! value, D-VTAGE needs speculative last values for in-flight instances — here an
//! idealistic per-entry speculative chain; the realistic block-based speculative
//! window is provided by the `bebop` core crate.

use crate::fpc::{ForwardProbabilisticCounter, FpcParams};
use crate::spec_table::{SpecLast, SpecTable};
use crate::tagged::{FIG5A_LOG_BASE, FIG5A_USEFUL_RESET_PERIOD};
use crate::{clamp_stride, inst_key, Lfsr, Slots, TaggedComponents, TaggedGeometry};
use bebop_isa::{ensure, snap, snapshot, DynUop, SeqNum, SeqQueue, StateResult};
use bebop_uarch::{restore_predictor, PredictCtx, SquashInfo, ValuePredictor};

/// The second key shift of D-VTAGE's tag hash.
const TAG_SHIFT: u32 = 8;

/// LVT tag width (the paper uses 5 bits to maximise accuracy).
const LVT_TAG_BITS: u32 = 5;

/// Configuration of an instruction-based D-VTAGE predictor. The tables have
/// the Figure 5a / Section V-B shape: an 8K-entry base (LVT + VT0) with a
/// 5-bit LVT tag, six 1K-entry tagged components, 13-bit first tag,
/// histories from 2 to 64, useful bits reset every 512K updates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DVtageConfig {
    /// Stride width in bits (64, 32, 16 or 8; partial strides shrink storage).
    pub stride_bits: u32,
    /// Confidence parameters.
    pub fpc: FpcParams,
}

impl Default for DVtageConfig {
    fn default() -> Self {
        // 64-bit strides, FPC probabilities {1, 1/16 x4, 1/32 x2}.
        DVtageConfig {
            stride_bits: 64,
            fpc: FpcParams::paper_default(),
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct LvtEntry {
    valid: bool,
    tag: u16,
    last: u64,
    spec_last: u64,
    spec_inflight: u32,
}

impl SpecLast for LvtEntry {
    fn resync(&mut self) {
        self.spec_inflight = 0;
        self.spec_last = self.last;
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Vt0Entry {
    stride: i64,
    conf: ForwardProbabilisticCounter,
}

#[derive(Debug, Clone, Copy, Default)]
struct TaggedEntry {
    valid: bool,
    tag: u16,
    stride: i64,
    conf: ForwardProbabilisticCounter,
    useful: bool,
}

/// Prediction-time information carried to retirement.
#[derive(Debug, Clone, Copy, Default)]
struct Inflight {
    base_index: usize,
    lvt_hit: bool,
    provider: Option<(usize, usize)>,
    slots: Slots,
    prediction: Option<u64>,
    alt_stride: i64,
}

/// The instruction-based Differential VTAGE predictor.
#[derive(Debug, Clone)]
pub struct DVtage {
    cfg: DVtageConfig,
    lvt: SpecTable<LvtEntry>,
    vt0: Vec<Vt0Entry>,
    tagged: TaggedComponents<Vec<TaggedEntry>>,
    inflight: SeqQueue<(SeqNum, Inflight)>,
    rng: Lfsr,
    updates: u64,
}

impl DVtage {
    /// Creates a D-VTAGE predictor.
    pub fn new(cfg: DVtageConfig) -> Self {
        let geometry = TaggedGeometry::figure_5a();
        let table = vec![TaggedEntry::default(); 1 << geometry.index_bits()];
        DVtage {
            lvt: SpecTable::new(LvtEntry::default(), 1 << FIG5A_LOG_BASE),
            vt0: vec![Vt0Entry::default(); 1 << FIG5A_LOG_BASE],
            tagged: TaggedComponents::new(geometry, table),
            inflight: SeqQueue::default(),
            rng: Lfsr::new(0xd7a6e),
            updates: 0,
            cfg,
        }
    }

    /// The Figure 5a configuration (8K base + 6 × 1K tagged, 64-bit strides).
    pub fn default_config() -> Self {
        DVtage::new(DVtageConfig::default())
    }

    /// The predictor's configuration.
    pub fn config(&self) -> &DVtageConfig {
        &self.cfg
    }

    fn lvt_tag(k: u64) -> u16 {
        // CAST: masked to the LVT tag width.
        ((k >> FIG5A_LOG_BASE) & ((1 << LVT_TAG_BITS) - 1)) as u16
    }

    fn clamp(&self, stride: i64) -> i64 {
        clamp_stride(stride, self.cfg.stride_bits)
    }

    fn lookup(&mut self, key: u64, ghist: u64, path: u64) -> Inflight {
        let k = key >> 1;
        // CAST: masked to the base table size.
        let base_index = (k & (self.lvt.len() as u64 - 1)) as usize;
        let lvt = *self.lvt.get_mut(base_index);
        let lvt_hit = lvt.valid && lvt.tag == Self::lvt_tag(k);
        let slots = self.tagged.slots(k, ghist, path, TAG_SHIFT);
        let (provider, alt) = self.tagged.providers(&slots);
        let stride_of = |p: Option<(usize, usize)>| match p {
            Some((c, i)) => self.tagged[c][i].stride,
            None => self.vt0[base_index].stride,
        };
        let prediction = lvt_hit.then(|| {
            let base = if lvt.spec_inflight > 0 {
                lvt.spec_last
            } else {
                lvt.last
            };
            base.wrapping_add_signed(self.clamp(stride_of(provider)))
        });
        Inflight {
            base_index,
            lvt_hit,
            provider,
            slots,
            prediction,
            alt_stride: stride_of(alt),
        }
    }

    fn provider_confident(&self, info: &Inflight) -> bool {
        match info.provider {
            Some((c, i)) => self.tagged[c][i].conf.is_confident(&self.cfg.fpc),
            None => self.vt0[info.base_index].conf.is_confident(&self.cfg.fpc),
        }
    }

    fn train_with(&mut self, info: Inflight, key: u64, actual: u64) {
        self.updates += 1;
        let lvt_tag = Self::lvt_tag(key >> 1);

        // Last Value Table: retire the actual value, unwind one speculative instance.
        let retired_last;
        {
            let lvt = self.lvt.get_mut(info.base_index);
            if lvt.valid && lvt.tag == lvt_tag {
                retired_last = Some(lvt.last);
                lvt.last = actual;
                if lvt.spec_inflight > 0 {
                    lvt.spec_inflight -= 1;
                }
            } else {
                retired_last = None;
                *lvt = LvtEntry {
                    valid: true,
                    tag: lvt_tag,
                    last: actual,
                    spec_last: actual,
                    spec_inflight: 0,
                };
            }
        }

        let correct = info.prediction == Some(actual);
        if !correct {
            // The speculative chain diverged from the architectural values: resync.
            let lvt = self.lvt.get_mut(info.base_index);
            lvt.spec_inflight = 0;
            lvt.spec_last = actual;
        }

        // The stride observed at retirement.
        let observed_stride = retired_last.map(|last| self.clamp(actual.wrapping_sub(last) as i64));

        // Update the providing component.
        match info.provider {
            Some((c, i)) => {
                let alt_would_match = retired_last.is_some_and(|last| {
                    last.wrapping_add_signed(self.clamp(info.alt_stride)) == actual
                });
                let e = &mut self.tagged[c][i];
                if correct {
                    e.conf.on_correct(&self.cfg.fpc, &mut self.rng);
                    if !alt_would_match {
                        e.useful = true;
                    }
                } else {
                    e.conf.on_wrong();
                    if let Some(s) = observed_stride {
                        e.stride = s;
                    }
                    e.useful = false;
                }
            }
            None => {
                let e = &mut self.vt0[info.base_index];
                if correct {
                    e.conf.on_correct(&self.cfg.fpc, &mut self.rng);
                } else {
                    e.conf.on_wrong();
                    if let Some(s) = observed_stride {
                        e.stride = s;
                    }
                }
            }
        }

        // Allocation on a misprediction, as in VTAGE/TAGE.
        if !correct && info.lvt_hit {
            if let Some(c) = self
                .tagged
                .victim(&info.slots, info.provider, &mut self.rng)
            {
                let (idx, tag) = info.slots.get(c);
                self.tagged[c][idx] = TaggedEntry {
                    valid: true,
                    tag,
                    stride: observed_stride.unwrap_or(0),
                    conf: ForwardProbabilisticCounter::new(),
                    useful: false,
                };
            }
        }
        self.tagged
            .reset_useful_if_due(self.updates, FIG5A_USEFUL_RESET_PERIOD);
    }

    /// Clamps restored confidence levels to the configured saturation and
    /// rejects in-flight records indexing outside the tables.
    fn check_restored(&mut self) -> StateResult<()> {
        let fpc = &self.cfg.fpc;
        for e in &mut self.vt0 {
            e.conf.set_level(e.conf.level(), fpc);
        }
        for e in self.tagged.iter_mut().flatten() {
            e.conf.set_level(e.conf.level(), fpc);
        }
        for (_, info) in self.inflight.iter() {
            ensure(
                info.base_index < self.lvt.len() && self.tagged.holds(info.provider, &info.slots),
                "D-VTAGE in-flight record indexes outside the tables",
            )?;
        }
        Ok(())
    }
}

snap!(LvtEntry {
    valid: bool,
    tag: u16,
    last: u64,
    spec_last: u64,
    spec_inflight: u32,
});
snap!(Vt0Entry {
    stride: i64,
    conf: ForwardProbabilisticCounter
});
snap!(TaggedEntry {
    valid: bool,
    tag: u16,
    stride: i64,
    conf: ForwardProbabilisticCounter,
    useful: bool,
});
crate::tagged_entry!(TaggedEntry);
snap!(Inflight {
    base_index: usize,
    lvt_hit: bool,
    provider: Option<(usize, usize)>,
    slots: Slots,
    prediction: Option<u64>,
    alt_stride: i64,
});
snap!(DVtage {
    lvt: SpecTable<LvtEntry>,
    vt0: Vec<Vt0Entry>,
    tagged: TaggedComponents<Vec<TaggedEntry>>,
    inflight: SeqQueue<(SeqNum, Inflight)>,
    rng: Lfsr,
    updates: u64,
} validate check_restored);

impl ValuePredictor for DVtage {
    fn name(&self) -> &str {
        "D-VTAGE"
    }

    fn predict(&mut self, ctx: &PredictCtx, uop: &DynUop) -> Option<u64> {
        let info = self.lookup(inst_key(uop), ctx.global_history, ctx.path_history);
        let confident = self.provider_confident(&info);
        let prediction = info.prediction;
        // Chain the speculative last value regardless of confidence: the hardware
        // pushes every prediction block into the speculative window.
        if let Some(p) = prediction {
            let lvt = self.lvt.get_mut(info.base_index);
            lvt.spec_last = p;
            lvt.spec_inflight += 1;
        }
        self.inflight.push((uop.seq, info));
        match (confident, prediction) {
            (true, Some(p)) => Some(p),
            _ => None,
        }
    }

    fn train(&mut self, uop: &DynUop, actual: u64, _predicted: Option<u64>) {
        if let Some((_, info)) = self.inflight.retire(uop.seq) {
            self.train_with(info, inst_key(uop), actual);
        }
    }

    fn train_wrong_path(&mut self, uop: &DynUop, actual: u64, _predicted: Option<u64>) {
        // Guarded wrong-path update: the polluting table update applies the
        // µ-op's own record, pushed by the predict probe just before.
        if let Some((_, info)) = self.inflight.take_wrong_path(uop.seq) {
            self.train_with(info, inst_key(uop), actual);
        }
    }

    fn squash(&mut self, info: &SquashInfo) {
        self.inflight.squash(info.flush_seq, drop);
        // Idealistic recovery: resynchronise speculative last values with retired
        // state (the realistic checkpointed window lives in the `bebop` crate).
        self.lvt.squash();
    }

    fn storage_bits(&self) -> u64 {
        // LVT: valid + tag + value. VT0: stride + confidence. Tagged: valid +
        // stride + confidence + useful.
        let stride = u64::from(self.cfg.stride_bits);
        let lvt_bits = self.lvt.len() as u64 * (1 + u64::from(LVT_TAG_BITS) + 64);
        let vt0_bits = self.vt0.len() as u64 * (stride + 3);
        lvt_bits + vt0_bits + self.tagged.storage_bits(1 + stride + 3 + 1)
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

    fn fast_cfg() -> DVtageConfig {
        DVtageConfig {
            fpc: FpcParams::deterministic(2),
            ..DVtageConfig::default()
        }
    }

    #[test]
    fn clamp_stride_sign_extends() {
        let mut cfg = DVtageConfig {
            stride_bits: 8,
            ..fast_cfg()
        };
        let d = DVtage::new(cfg.clone());
        assert_eq!(d.clamp(5), 5);
        assert_eq!(d.clamp(-5), -5);
        assert_eq!(d.clamp(127), 127);
        assert_eq!(d.clamp(128), -128);
        cfg.stride_bits = 64;
        assert_eq!(DVtage::new(cfg).clamp(i64::MAX), i64::MAX);
    }

    #[test]
    fn strided_sequence_is_predicted() {
        let mut d = DVtage::new(fast_cfg());
        let mut value = 0u64;
        for seq in 0..6 {
            let u = uop(seq, 0x100, value);
            let _ = d.predict(&ctx(0), &u);
            d.train(&u, value, None);
            value += 16;
        }
        assert_eq!(d.predict(&ctx(0), &uop(10, 0x100, value)), Some(value));
    }

    #[test]
    fn inflight_instances_follow_the_speculative_chain() {
        let mut d = DVtage::new(fast_cfg());
        let mut value = 0u64;
        for seq in 0..6 {
            let u = uop(seq, 0x100, value);
            let _ = d.predict(&ctx(0), &u);
            d.train(&u, value, None);
            value += 8;
        }
        // Three instances in flight before any retires: 48, 56, 64.
        assert_eq!(d.predict(&ctx(0), &uop(20, 0x100, 48)), Some(48));
        assert_eq!(d.predict(&ctx(0), &uop(21, 0x100, 56)), Some(56));
        assert_eq!(d.predict(&ctx(0), &uop(22, 0x100, 64)), Some(64));
    }

    #[test]
    fn control_flow_dependent_strides_are_captured() {
        // The stride alternates with branch history: +1 when the last branch was
        // not taken, +10 when it was. A plain stride predictor cannot become
        // confident; D-VTAGE's tagged components can.
        let mut d = DVtage::new(fast_cfg());
        let mut value = 0u64;
        let mut correct_late = 0;
        let mut total_late = 0;
        for i in 0..6000u64 {
            let ghist = i % 2;
            let stride = if ghist == 1 { 10 } else { 1 };
            value += stride;
            let u = uop(i, 0x200, value);
            let p = d.predict(&ctx(ghist), &u);
            if i > 5000 {
                total_late += 1;
                if p == Some(value) {
                    correct_late += 1;
                }
            }
            d.train(&u, value, None);
        }
        assert!(
            correct_late as f64 / total_late as f64 > 0.6,
            "D-VTAGE should capture control-flow dependent strides ({correct_late}/{total_late})"
        );
    }

    #[test]
    fn partial_strides_shrink_storage_but_lose_large_strides() {
        let full = DVtage::new(fast_cfg());
        let mut cfg8 = fast_cfg();
        cfg8.stride_bits = 8;
        let partial = DVtage::new(cfg8.clone());
        assert!(partial.storage_bits() < full.storage_bits());

        // A stride of 300 does not fit in 8 bits: the partial-stride predictor
        // cannot predict it correctly.
        let mut d = DVtage::new(cfg8);
        let mut value = 0u64;
        let mut any_correct = false;
        for seq in 0..50 {
            let u = uop(seq, 0x300, value);
            if d.predict(&ctx(0), &u) == Some(value) && seq > 5 {
                any_correct = true;
            }
            d.train(&u, value, None);
            value += 300;
        }
        assert!(!any_correct, "8-bit strides cannot represent +300");
    }

    #[test]
    fn storage_matches_paper_order_of_magnitude() {
        // Roughly 290 KB with 64-bit strides for the 8K + 6x1K configuration.
        let kb = DVtage::default_config().storage_bits() as f64 / 8.0 / 1024.0;
        assert!(
            (150.0..400.0).contains(&kb),
            "instruction-based D-VTAGE should be a few hundred KB, got {kb}"
        );
    }

    #[test]
    fn squash_resynchronises_speculation() {
        let mut d = DVtage::new(fast_cfg());
        let mut value = 0u64;
        for seq in 0..6 {
            let u = uop(seq, 0x100, value);
            let _ = d.predict(&ctx(0), &u);
            d.train(&u, value, None);
            value += 8;
        }
        let _ = d.predict(&ctx(0), &uop(20, 0x100, 48));
        let _ = d.predict(&ctx(0), &uop(21, 0x100, 56));
        d.squash(&SquashInfo {
            flush_seq: 20,
            flush_pc: 0x100,
            next_pc: 0x104,
            cause: bebop_uarch::SquashCause::ValueMispredict,
            asid: 0,
        });
        // After the squash the chain restarts from the retired last value (40).
        assert_eq!(d.predict(&ctx(0), &uop(22, 0x100, 48)), Some(48));
    }
}
