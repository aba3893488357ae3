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
use crate::{fold_history, inst_key, CompParams, Lfsr, MAX_TAGGED};
use bebop_isa::{ensure, in_program_order, snap, snapshot, DynUop, SeqNum, StateResult};
use bebop_uarch::{restore_predictor, PredictCtx, SquashInfo, ValuePredictor};
use std::collections::VecDeque;

/// Configuration of an instruction-based D-VTAGE predictor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DVtageConfig {
    /// log2 entries of the LVT / VT0 base component.
    pub log_base: u32,
    /// Number of partially tagged (stride) components.
    pub num_tagged: usize,
    /// log2 entries of each tagged component.
    pub log_tagged: u32,
    /// Tag width of the first tagged component; grows by one bit per component.
    pub first_tag_bits: u32,
    /// LVT tag width (the paper uses 5 bits to maximise accuracy).
    pub lvt_tag_bits: u32,
    /// Shortest global-history length.
    pub min_history: usize,
    /// Longest global-history length.
    pub max_history: usize,
    /// Stride width in bits (64, 32, 16 or 8; partial strides shrink storage).
    pub stride_bits: u32,
    /// Confidence parameters.
    pub fpc: FpcParams,
    /// Period (in updates) of the useful-bit reset.
    pub useful_reset_period: u64,
}

impl Default for DVtageConfig {
    fn default() -> Self {
        // The Figure 5a / Section V-B configuration: 8K-entry base component with
        // six 1K-entry tagged components, 13-bit first tags, histories 2..64,
        // 64-bit strides, FPC probabilities {1, 1/16 x4, 1/32 x2}.
        DVtageConfig {
            log_base: 13,
            num_tagged: 6,
            log_tagged: 10,
            first_tag_bits: 13,
            lvt_tag_bits: 5,
            min_history: 2,
            max_history: 64,
            stride_bits: 64,
            fpc: FpcParams::paper_default(),
            useful_reset_period: 512 * 1024,
        }
    }
}

impl DVtageConfig {
    /// The geometric history length of tagged component `i`.
    pub fn history_length(&self, i: usize) -> usize {
        if self.num_tagged <= 1 {
            return self.min_history;
        }
        let ratio = (self.max_history as f64 / self.min_history as f64)
            .powf(i as f64 / (self.num_tagged - 1) as f64);
        (self.min_history as f64 * ratio).round() as usize
    }

    /// The tag width of tagged component `i`.
    pub fn tag_bits(&self, i: usize) -> u32 {
        (self.first_tag_bits + i as u32).min(16)
    }

    /// Truncates a full stride to the configured partial-stride width
    /// (sign-extended low bits, as stored by the hardware).
    pub fn clamp_stride(&self, stride: i64) -> i64 {
        if self.stride_bits >= 64 {
            return stride;
        }
        let shift = 64 - self.stride_bits;
        (stride << shift) >> shift
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
    slots: [(usize, u16); MAX_TAGGED],
    prediction: Option<u64>,
    alt_stride: i64,
}

/// Memo of the folded-history terms of every tagged component's index and
/// tag hash for one global-history value. The folds are a pure function of
/// `(ghist, component geometry)` and the history only changes at branches,
/// so the ~5–10 µ-ops between branches reuse one computation instead of
/// re-folding `3 × num_tagged` times per prediction. Derived state: never
/// serialised, and stays valid across save/restore because the geometry is
/// fixed at construction.
#[derive(Debug, Clone, Copy, Default)]
struct FoldCache {
    valid: bool,
    ghist: u64,
    /// Per-component folded history for the index hash.
    index_fold: [u64; MAX_TAGGED],
    /// Per-component combined `f1 ^ (f2 << 2)` term of the tag hash.
    tag_fold: [u64; MAX_TAGGED],
}

/// The instruction-based Differential VTAGE predictor.
#[derive(Debug, Clone)]
pub struct DVtage {
    cfg: DVtageConfig,
    lvt: Vec<LvtEntry>,
    vt0: Vec<Vt0Entry>,
    tagged: Vec<Vec<TaggedEntry>>,
    /// Precomputed per-component history/tag parameters (keeps the per-µop lookup
    /// free of the `powf` in [`DVtageConfig::history_length`]).
    comp: [CompParams; MAX_TAGGED],
    /// In-flight prediction records in program order. Predictions are made and
    /// retired in sequence-number order, so a deque pop replaces a hash lookup.
    inflight: VecDeque<(SeqNum, Inflight)>,
    fold_cache: FoldCache,
    rng: Lfsr,
    updates: u64,
}

impl DVtage {
    /// Creates a D-VTAGE predictor.
    ///
    /// # Panics
    ///
    /// Panics if `num_tagged > MAX_TAGGED`.
    pub fn new(cfg: DVtageConfig) -> Self {
        assert!(
            cfg.num_tagged <= MAX_TAGGED,
            "num_tagged {} exceeds MAX_TAGGED {MAX_TAGGED}",
            cfg.num_tagged
        );
        let mut comp = [CompParams::default(); MAX_TAGGED];
        for (c, params) in comp.iter_mut().enumerate().take(cfg.num_tagged) {
            *params = CompParams::new(cfg.history_length(c), cfg.tag_bits(c));
        }
        DVtage {
            lvt: vec![LvtEntry::default(); 1 << cfg.log_base],
            vt0: vec![Vt0Entry::default(); 1 << cfg.log_base],
            tagged: vec![vec![TaggedEntry::default(); 1 << cfg.log_tagged]; cfg.num_tagged],
            comp,
            inflight: VecDeque::new(),
            fold_cache: FoldCache::default(),
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

    fn base_index(&self, key: u64) -> usize {
        ((key >> 1) & ((1 << self.cfg.log_base) - 1)) as usize
    }

    fn lvt_tag(&self, key: u64) -> u16 {
        (((key >> 1) >> self.cfg.log_base) & ((1 << self.cfg.lvt_tag_bits) - 1)) as u16
    }

    /// Refreshes the fold memo for `ghist`. A hit (the common case — history
    /// is unchanged between branches) costs one compare.
    fn refresh_folds(&mut self, ghist: u64) {
        if self.fold_cache.valid && self.fold_cache.ghist == ghist {
            return;
        }
        for comp in 0..self.cfg.num_tagged {
            let p = self.comp[comp];
            self.fold_cache.index_fold[comp] = fold_history(ghist, p.hist_len, self.cfg.log_tagged);
            let f1 = fold_history(ghist, p.hist_len, p.tag_bits);
            let f2 = fold_history(ghist, p.hist_len, p.tag_bits.saturating_sub(3).max(2));
            self.fold_cache.tag_fold[comp] = f1 ^ (f2 << 2);
        }
        self.fold_cache.ghist = ghist;
        self.fold_cache.valid = true;
    }

    fn tagged_index(&self, key: u64, path: u64, comp: usize) -> usize {
        let folded = self.fold_cache.index_fold[comp];
        let idx = (key >> 1) ^ (key >> (1 + self.cfg.log_tagged)) ^ folded ^ (path & 0x3f);
        (idx & ((1 << self.cfg.log_tagged) - 1)) as usize
    }

    fn tagged_tag(&self, key: u64, comp: usize) -> u16 {
        let p = self.comp[comp];
        (((key >> 1) ^ (key >> 9) ^ self.fold_cache.tag_fold[comp]) & p.tag_mask) as u16
    }

    fn lookup(&self, key: u64, path: u64) -> Inflight {
        let base_index = self.base_index(key);
        let lvt_tag = self.lvt_tag(key);
        let lvt = &self.lvt[base_index];
        let lvt_hit = lvt.valid && lvt.tag == lvt_tag;

        let mut slots = [(0usize, 0u16); MAX_TAGGED];
        for (comp, slot) in slots.iter_mut().enumerate().take(self.cfg.num_tagged) {
            *slot = (
                self.tagged_index(key, path, comp),
                self.tagged_tag(key, comp),
            );
        }
        let mut provider = None;
        let mut alt_stride = self.vt0[base_index].stride;
        for comp in (0..self.cfg.num_tagged).rev() {
            let (idx, tag) = slots[comp];
            let e = &self.tagged[comp][idx];
            if e.valid && e.tag == tag {
                if provider.is_none() {
                    provider = Some((comp, idx));
                } else {
                    alt_stride = e.stride;
                    break;
                }
            }
        }
        let stride = match provider {
            Some((c, i)) => self.tagged[c][i].stride,
            None => self.vt0[base_index].stride,
        };
        let prediction = if lvt_hit {
            let base = if lvt.spec_inflight > 0 {
                lvt.spec_last
            } else {
                lvt.last
            };
            Some(base.wrapping_add_signed(self.cfg.clamp_stride(stride)))
        } else {
            None
        };
        Inflight {
            base_index,
            lvt_hit,
            provider,
            slots,
            prediction,
            alt_stride,
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
        let fpc = self.cfg.fpc.clone();
        let lvt_tag = self.lvt_tag(key);

        // Last Value Table: retire the actual value, unwind one speculative instance.
        let retired_last;
        {
            let lvt = &mut self.lvt[info.base_index];
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
            let lvt = &mut self.lvt[info.base_index];
            lvt.spec_inflight = 0;
            lvt.spec_last = actual;
        }

        // The stride observed at retirement.
        let observed_stride =
            retired_last.map(|last| self.cfg.clamp_stride(actual.wrapping_sub(last) as i64));

        // Update the providing component.
        match info.provider {
            Some((c, i)) => {
                let alt_would_match = retired_last
                    .map(|last| {
                        last.wrapping_add_signed(self.cfg.clamp_stride(info.alt_stride)) == actual
                    })
                    .unwrap_or(false);
                let e = &mut self.tagged[c][i];
                if correct {
                    e.conf.on_correct(&fpc, &mut self.rng);
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
                    e.conf.on_correct(&fpc, &mut self.rng);
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
            let start = info.provider.map(|(c, _)| c + 1).unwrap_or(0);
            if start < self.cfg.num_tagged {
                let candidates: Vec<usize> = (start..self.cfg.num_tagged)
                    .filter(|&c| !self.tagged[c][info.slots[c].0].useful)
                    .collect();
                if candidates.is_empty() {
                    for c in start..self.cfg.num_tagged {
                        self.tagged[c][info.slots[c].0].useful = false;
                    }
                } else {
                    // CAST: the modulo bounds pick below candidates.len().
                    let pick = (self.rng.next() as usize) % candidates.len().min(2);
                    let comp = candidates[pick];
                    let (idx, tag) = info.slots[comp];
                    self.tagged[comp][idx] = TaggedEntry {
                        valid: true,
                        tag,
                        stride: observed_stride.unwrap_or(0),
                        conf: ForwardProbabilisticCounter::new(),
                        useful: false,
                    };
                }
            }
        }

        if self.updates % self.cfg.useful_reset_period == 0 {
            for comp in &mut self.tagged {
                for e in comp.iter_mut() {
                    e.useful = false;
                }
            }
        }
    }

    /// Clamps restored confidence levels to the configured saturation and
    /// rejects in-flight records out of program order or indexing outside
    /// the tables.
    fn check_restored(&mut self) -> StateResult<()> {
        let fpc = &self.cfg.fpc;
        for e in &mut self.vt0 {
            e.conf.set_level(e.conf.level(), fpc);
        }
        for e in self.tagged.iter_mut().flatten() {
            e.conf.set_level(e.conf.level(), fpc);
        }
        ensure(
            in_program_order(self.inflight.iter().map(|&(seq, _)| seq), false),
            "D-VTAGE in-flight records out of order",
        )?;
        for (_, info) in &self.inflight {
            ensure(
                info.base_index < self.lvt.len(),
                "D-VTAGE in-flight base index out of range",
            )?;
            ensure(
                info.provider.map_or(true, |(c, i)| {
                    c < self.tagged.len() && i < self.tagged[c].len()
                }),
                "D-VTAGE in-flight provider out of range",
            )?;
            ensure(
                info.slots
                    .iter()
                    .zip(&self.tagged)
                    .all(|(&(idx, _), comp)| idx < comp.len()),
                "D-VTAGE in-flight slot index out of range",
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
snap!(Inflight {
    base_index: usize,
    lvt_hit: bool,
    provider: Option<(usize, usize)>,
    slots: [(usize, u16); MAX_TAGGED],
    prediction: Option<u64>,
    alt_stride: i64,
});
snap!(DVtage {
    lvt: Vec<LvtEntry>,
    vt0: Vec<Vt0Entry>,
    tagged: Vec<Vec<TaggedEntry>>,
    inflight: VecDeque<(SeqNum, Inflight)>,
    rng: Lfsr,
    updates: u64,
} validate check_restored);

impl ValuePredictor for DVtage {
    fn name(&self) -> &str {
        "D-VTAGE"
    }

    fn predict(&mut self, ctx: &PredictCtx, uop: &DynUop) -> Option<u64> {
        let key = inst_key(uop);
        self.refresh_folds(ctx.global_history);
        let info = self.lookup(key, ctx.path_history);
        let confident = self.provider_confident(&info);
        let prediction = info.prediction;
        // Chain the speculative last value regardless of confidence: the hardware
        // pushes every prediction block into the speculative window.
        if let Some(p) = prediction {
            let lvt = &mut self.lvt[info.base_index];
            lvt.spec_last = p;
            lvt.spec_inflight += 1;
        }
        debug_assert!(self.inflight.back().map_or(true, |&(s, _)| s <= uop.seq));
        self.inflight.push_back((uop.seq, info));
        match (confident, prediction) {
            (true, Some(p)) => Some(p),
            _ => None,
        }
    }

    fn train(&mut self, uop: &DynUop, actual: u64, _predicted: Option<u64>) {
        let key = inst_key(uop);
        // Retirement follows program order, so the matching record — if its
        // prediction was not squashed — is at the front of the deque.
        while self.inflight.front().is_some_and(|&(s, _)| s < uop.seq) {
            self.inflight.pop_front();
        }
        if self.inflight.front().is_some_and(|&(s, _)| s == uop.seq) {
            // INVARIANT: is_some_and on front() just returned true.
            let (_, info) = self.inflight.pop_front().expect("front exists");
            self.train_with(info, key, actual);
        }
    }

    fn train_wrong_path(&mut self, uop: &DynUop, actual: u64, _predicted: Option<u64>) {
        // Guarded wrong-path update: consume the µ-op's own in-flight record
        // — pushed by the predict probe immediately before this call — from
        // the *back* of the deque (older correct-path records stay for their
        // own retirements) and apply the polluting table update with it.
        if self.inflight.back().is_some_and(|&(s, _)| s == uop.seq) {
            // INVARIANT: is_some_and on back() just returned true.
            let (_, info) = self.inflight.pop_back().expect("back exists");
            self.train_with(info, inst_key(uop), actual);
        }
    }

    fn squash(&mut self, info: &SquashInfo) {
        while self
            .inflight
            .back()
            .is_some_and(|&(s, _)| s > info.flush_seq)
        {
            self.inflight.pop_back();
        }
        // Idealistic recovery: resynchronise speculative last values with retired
        // state (the realistic checkpointed window lives in the `bebop` crate).
        for e in &mut self.lvt {
            e.spec_inflight = 0;
            e.spec_last = e.last;
        }
    }

    fn storage_bits(&self) -> u64 {
        let lvt_bits = (1u64 << self.cfg.log_base) * (1 + u64::from(self.cfg.lvt_tag_bits) + 64);
        let vt0_bits = (1u64 << self.cfg.log_base) * (u64::from(self.cfg.stride_bits) + 3);
        let mut tagged_bits = 0u64;
        for c in 0..self.cfg.num_tagged {
            tagged_bits += (1u64 << self.cfg.log_tagged)
                * (1 + u64::from(self.cfg.tag_bits(c)) + u64::from(self.cfg.stride_bits) + 3 + 1);
        }
        lvt_bits + vt0_bits + tagged_bits
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
    fn clamp_stride_sign_extends() {
        let mut cfg = DVtageConfig {
            stride_bits: 8,
            ..Default::default()
        };
        assert_eq!(cfg.clamp_stride(5), 5);
        assert_eq!(cfg.clamp_stride(-5), -5);
        assert_eq!(cfg.clamp_stride(127), 127);
        assert_eq!(cfg.clamp_stride(128), -128);
        cfg.stride_bits = 64;
        assert_eq!(cfg.clamp_stride(i64::MAX), i64::MAX);
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
