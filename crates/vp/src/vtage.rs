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
use crate::{fold_history, inst_key, CompParams, Lfsr, MAX_TAGGED};
use bebop_isa::{ensure, in_program_order, snap, snapshot, DynUop, SeqNum, StateResult};
use bebop_uarch::{restore_predictor, PredictCtx, SquashInfo, ValuePredictor};
use std::collections::VecDeque;

/// Configuration of a VTAGE predictor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VtageConfig {
    /// log2 entries of the tagless base (last-value) component.
    pub log_base: u32,
    /// Number of partially tagged components.
    pub num_tagged: usize,
    /// log2 entries of each tagged component.
    pub log_tagged: u32,
    /// Tag width of the first tagged component; grows by one bit per component.
    pub first_tag_bits: u32,
    /// Shortest global-history length.
    pub min_history: usize,
    /// Longest global-history length.
    pub max_history: usize,
    /// Confidence parameters.
    pub fpc: FpcParams,
    /// Period (in updates) of the useful-bit reset.
    pub useful_reset_period: u64,
}

impl Default for VtageConfig {
    fn default() -> Self {
        // The configuration transposed from the paper: 8K-entry base plus six
        // 1K-entry tagged components, 13-bit first tag, histories from 2 to 64.
        VtageConfig {
            log_base: 13,
            num_tagged: 6,
            log_tagged: 10,
            first_tag_bits: 13,
            min_history: 2,
            max_history: 64,
            fpc: FpcParams::paper_default(),
            useful_reset_period: 512 * 1024,
        }
    }
}

impl VtageConfig {
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
    slots: [(usize, u16); MAX_TAGGED],
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
    tagged: Vec<Vec<TaggedEntry>>,
    /// Precomputed per-component history/tag parameters (no `powf` per lookup).
    comp: [CompParams; MAX_TAGGED],
    /// In-flight prediction records in program order (see `DVtage::inflight`).
    inflight: VecDeque<(SeqNum, Inflight)>,
    rng: Lfsr,
    updates: u64,
}

impl Vtage {
    /// Creates a VTAGE predictor.
    ///
    /// # Panics
    ///
    /// Panics if `num_tagged > MAX_TAGGED`.
    pub fn new(cfg: VtageConfig) -> Self {
        assert!(
            cfg.num_tagged <= MAX_TAGGED,
            "num_tagged {} exceeds MAX_TAGGED {MAX_TAGGED}",
            cfg.num_tagged
        );
        let mut comp = [CompParams::default(); MAX_TAGGED];
        for (c, params) in comp.iter_mut().enumerate().take(cfg.num_tagged) {
            *params = CompParams::new(cfg.history_length(c), cfg.tag_bits(c));
        }
        Vtage {
            base: vec![BaseEntry::default(); 1 << cfg.log_base],
            tagged: vec![vec![TaggedEntry::default(); 1 << cfg.log_tagged]; cfg.num_tagged],
            comp,
            inflight: VecDeque::new(),
            rng: Lfsr::new(0x7a6e),
            updates: 0,
            cfg,
        }
    }

    /// The Figure 5a configuration (8K base + 6 × 1K tagged).
    pub fn default_config() -> Self {
        Vtage::new(VtageConfig::default())
    }

    fn base_index(&self, key: u64) -> usize {
        ((key >> 1) & ((1 << self.cfg.log_base) - 1)) as usize
    }

    fn tagged_index(&self, key: u64, ghist: u64, path: u64, comp: usize) -> usize {
        let hl = self.comp[comp].hist_len;
        let folded = fold_history(ghist, hl, self.cfg.log_tagged);
        let idx = (key >> 1) ^ (key >> (1 + self.cfg.log_tagged)) ^ folded ^ (path & 0x3f);
        (idx & ((1 << self.cfg.log_tagged) - 1)) as usize
    }

    fn tagged_tag(&self, key: u64, ghist: u64, comp: usize) -> u16 {
        let p = self.comp[comp];
        let f1 = fold_history(ghist, p.hist_len, p.tag_bits);
        let f2 = fold_history(ghist, p.hist_len, p.tag_bits.saturating_sub(3).max(2));
        (((key >> 1) ^ (key >> 9) ^ f1 ^ (f2 << 2)) & p.tag_mask) as u16
    }

    /// Computes the prediction context for a µ-op: provider, alternates and slots.
    fn lookup(&self, key: u64, ghist: u64, path: u64) -> Inflight {
        let base_index = self.base_index(key);
        let mut slots = [(0usize, 0u16); MAX_TAGGED];
        for (comp, slot) in slots.iter_mut().enumerate().take(self.cfg.num_tagged) {
            *slot = (
                self.tagged_index(key, ghist, path, comp),
                self.tagged_tag(key, ghist, comp),
            );
        }
        let mut provider = None;
        let mut alt = None;
        for comp in (0..self.cfg.num_tagged).rev() {
            let (idx, tag) = slots[comp];
            let e = &self.tagged[comp][idx];
            if e.valid && e.tag == tag {
                if provider.is_none() {
                    provider = Some((comp, idx));
                } else if alt.is_none() {
                    alt = Some(e.value);
                }
            }
        }
        let base_value = self.base[base_index].value;
        let prediction = match provider {
            Some((c, i)) => self.tagged[c][i].value,
            None => base_value,
        };
        Inflight {
            provider,
            base_index,
            slots,
            prediction,
            alt_prediction: alt.unwrap_or(base_value),
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
        let fpc = self.cfg.fpc.clone();
        let correct = info.prediction == actual;

        match info.provider {
            Some((c, i)) => {
                let alt_matches = info.alt_prediction == actual;
                let e = &mut self.tagged[c][i];
                if correct {
                    e.conf.on_correct(&fpc, &mut self.rng);
                    if !alt_matches {
                        e.useful = true;
                    }
                } else {
                    e.conf.on_wrong();
                    e.value = actual;
                    e.useful = false;
                }
            }
            None => {
                let e = &mut self.base[info.base_index];
                if correct {
                    e.conf.on_correct(&fpc, &mut self.rng);
                } else {
                    e.conf.on_wrong();
                }
                e.value = actual;
            }
        }

        // On a misprediction, allocate in a component using a longer history.
        if !correct {
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
                        value: actual,
                        conf: ForwardProbabilisticCounter::new(),
                        useful: false,
                    };
                }
            }
        }

        // Periodic useful-bit reset, as in TAGE/VTAGE.
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
        for e in &mut self.base {
            e.conf.set_level(e.conf.level(), fpc);
        }
        for e in self.tagged.iter_mut().flatten() {
            e.conf.set_level(e.conf.level(), fpc);
        }
        ensure(
            in_program_order(self.inflight.iter().map(|&(seq, _)| seq), false),
            "VTAGE in-flight records out of order",
        )?;
        for (_, info) in &self.inflight {
            ensure(
                info.provider.map_or(true, |(c, i)| {
                    c < self.tagged.len() && i < self.tagged[c].len()
                }),
                "VTAGE in-flight provider out of range",
            )?;
            ensure(
                info.base_index < self.base.len(),
                "VTAGE in-flight base index out of range",
            )?;
            ensure(
                info.slots
                    .iter()
                    .zip(&self.tagged)
                    .all(|(&(idx, _), comp)| idx < comp.len()),
                "VTAGE in-flight slot index out of range",
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
snap!(Inflight {
    provider: Option<(usize, usize)>,
    base_index: usize,
    slots: [(usize, u16); MAX_TAGGED],
    prediction: u64,
    alt_prediction: u64,
});
snap!(Vtage {
    base: Vec<BaseEntry>,
    tagged: Vec<Vec<TaggedEntry>>,
    inflight: VecDeque<(SeqNum, Inflight)>,
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
        debug_assert!(self.inflight.back().map_or(true, |&(s, _)| s <= uop.seq));
        self.inflight.push_back((uop.seq, info));
        if confident {
            Some(prediction)
        } else {
            None
        }
    }

    fn train(&mut self, uop: &DynUop, actual: u64, _predicted: Option<u64>) {
        // Retirement follows program order (see `DVtage::train`).
        while self.inflight.front().is_some_and(|&(s, _)| s < uop.seq) {
            self.inflight.pop_front();
        }
        if self.inflight.front().is_some_and(|&(s, _)| s == uop.seq) {
            // INVARIANT: is_some_and on front() just returned true.
            let (_, info) = self.inflight.pop_front().expect("front exists");
            self.train_with(info, actual);
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
            self.train_with(info, actual);
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
    }

    fn storage_bits(&self) -> u64 {
        let base_bits = (1u64 << self.cfg.log_base) * (64 + 3);
        let mut tagged_bits = 0u64;
        for c in 0..self.cfg.num_tagged {
            tagged_bits +=
                (1u64 << self.cfg.log_tagged) * (1 + u64::from(self.cfg.tag_bits(c)) + 64 + 3 + 1);
        }
        base_bits + tagged_bits
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

    fn fast_cfg() -> VtageConfig {
        VtageConfig {
            fpc: FpcParams::deterministic(2),
            ..VtageConfig::default()
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
    fn geometric_history_lengths() {
        let cfg = VtageConfig::default();
        assert_eq!(cfg.history_length(0), 2);
        assert_eq!(cfg.history_length(cfg.num_tagged - 1), 64);
        for i in 1..cfg.num_tagged {
            assert!(cfg.history_length(i) > cfg.history_length(i - 1));
        }
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
