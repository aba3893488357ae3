//! Stride-based value predictors: the baseline Stride predictor and the 2-delta
//! Stride predictor.
//!
//! Stride predictors are *computational*: the prediction for instance `n + 1` is
//! the value of instance `n` plus a stride. With many instances of the same static
//! µ-op in flight, the "value of instance `n`" has usually not retired yet, so the
//! predictor must keep a speculative last value, updated at prediction time and
//! resynchronised when predictions turn out wrong (an idealistic speculative
//! window; the realistic block-based window is in the `bebop` core crate).

use crate::fpc::{ForwardProbabilisticCounter, FpcParams};
use crate::spec_table::{SpecLast, SpecTable};
use crate::{inst_key, Lfsr};
use bebop_isa::{snap, snapshot, DynUop, SeqNum, SeqQueue, StateResult};
use bebop_uarch::{restore_predictor, PredictCtx, SquashInfo, ValuePredictor};

#[derive(Debug, Clone, Copy, Default)]
struct StrideEntry {
    valid: bool,
    tag: u16,
    /// Last retired value.
    last: u64,
    /// Stride used for prediction.
    stride: i64,
    /// Most recently observed delta (2-delta only).
    last_delta: i64,
    conf: ForwardProbabilisticCounter,
    /// Speculative last value (most recent predicted instance).
    spec_last: u64,
    /// Number of in-flight (not yet retired) instances.
    spec_inflight: u32,
}

impl SpecLast for StrideEntry {
    fn resync(&mut self) {
        self.spec_inflight = 0;
        self.spec_last = self.last;
    }
}

/// A stride predictor: predicts `last value + stride`. The baseline variant
/// ("Stride") adopts the most recently observed delta as its stride; the
/// 2-delta variant ("2d-Stride") only adopts a delta once it has been seen
/// twice in a row, filtering out one-off breaks in a strided pattern. Both
/// variants share every table and path; `two_delta` is the only difference.
#[derive(Debug, Clone)]
pub struct StridePredictor {
    entries: SpecTable<StrideEntry>,
    index_mask: u64,
    tag_bits: u32,
    params: FpcParams,
    rng: Lfsr,
    two_delta: bool,
    /// Internal predictions in flight, so training can know what this
    /// predictor speculated at prediction time.
    inflight: SeqQueue<(SeqNum, u64)>,
}

impl StridePredictor {
    /// A baseline stride predictor with `2^log_entries` entries.
    pub fn new(log_entries: u32, tag_bits: u32, params: FpcParams) -> Self {
        Self::with_policy(log_entries, tag_bits, params, false)
    }

    /// A 2-delta stride predictor with `2^log_entries` entries.
    pub fn two_delta(log_entries: u32, tag_bits: u32, params: FpcParams) -> Self {
        Self::with_policy(log_entries, tag_bits, params, true)
    }

    /// The 8K-entry baseline configuration used in Figure 5a ("Stride").
    pub fn default_config() -> Self {
        Self::new(13, 8, FpcParams::paper_default())
    }

    /// The 8K-entry 2-delta configuration used in Figure 5a ("2d-Stride").
    pub fn two_delta_default() -> Self {
        Self::two_delta(13, 8, FpcParams::paper_default())
    }

    fn with_policy(log_entries: u32, tag_bits: u32, params: FpcParams, two_delta: bool) -> Self {
        StridePredictor {
            entries: SpecTable::new(StrideEntry::default(), 1 << log_entries),
            index_mask: (1u64 << log_entries) - 1,
            tag_bits,
            params,
            rng: Lfsr::new(0x5712de),
            two_delta,
            inflight: SeqQueue::default(),
        }
    }

    fn index(&self, key: u64) -> usize {
        ((key >> 1) & self.index_mask) as usize
    }

    fn tag(&self, key: u64) -> u16 {
        (((key >> 1) >> self.index_mask.count_ones()) & ((1 << self.tag_bits) - 1)) as u16
    }

    /// The table-write half of training: confidence, stride and last-value
    /// update for one retired (or speculatively executed wrong-path) result.
    fn update_entry(&mut self, uop: &DynUop, actual: u64, internal: Option<u64>) {
        let key = inst_key(uop);
        let idx = self.index(key);
        let tag = self.tag(key);
        let params = &self.params;
        let two_delta = self.two_delta;
        let e = self.entries.get_mut(idx);
        if e.valid && e.tag == tag {
            let delta = actual.wrapping_sub(e.last) as i64;
            let was_correct = internal == Some(actual);
            if was_correct {
                e.conf.on_correct(params, &mut self.rng);
            } else {
                e.conf.on_wrong();
            }
            if two_delta {
                // Only adopt a new prediction stride once it has been seen twice.
                if delta == e.last_delta {
                    e.stride = delta;
                }
                e.last_delta = delta;
            } else {
                e.stride = delta;
            }
            e.last = actual;
            if e.spec_inflight > 0 {
                e.spec_inflight -= 1;
            }
            if !was_correct {
                // Resynchronise the speculative chain from the retired value.
                e.spec_inflight = 0;
                e.spec_last = actual;
            }
        } else {
            *e = StrideEntry {
                valid: true,
                tag,
                last: actual,
                stride: 0,
                last_delta: 0,
                conf: ForwardProbabilisticCounter::new(),
                spec_last: actual,
                spec_inflight: 0,
            };
        }
    }

    /// Clamps restored confidence levels to the configured saturation.
    fn check_restored(&mut self) -> StateResult<()> {
        for e in self.entries.iter_mut() {
            e.conf.set_level(e.conf.level(), &self.params);
        }
        Ok(())
    }
}

snap!(StrideEntry {
    valid: bool,
    tag: u16,
    last: u64,
    stride: i64,
    last_delta: i64,
    conf: ForwardProbabilisticCounter,
    spec_last: u64,
    spec_inflight: u32,
});
snap!(StridePredictor {
    entries: SpecTable<StrideEntry>,
    rng: Lfsr,
    inflight: SeqQueue<(SeqNum, u64)>,
} validate check_restored);

impl ValuePredictor for StridePredictor {
    fn name(&self) -> &str {
        if self.two_delta {
            "2d-Stride"
        } else {
            "Stride"
        }
    }

    fn predict(&mut self, _ctx: &PredictCtx, uop: &DynUop) -> Option<u64> {
        let key = inst_key(uop);
        let idx = self.index(key);
        let tag = self.tag(key);
        let e = self.entries.get_mut(idx);
        if !(e.valid && e.tag == tag) {
            return None;
        }
        let base = if e.spec_inflight > 0 {
            e.spec_last
        } else {
            e.last
        };
        let prediction = base.wrapping_add_signed(e.stride);
        // Track the speculative instance regardless of confidence: the hardware
        // inserts every prediction block in the speculative window.
        e.spec_last = prediction;
        e.spec_inflight += 1;
        self.inflight.push((uop.seq, prediction));
        if e.conf.is_confident(&self.params) {
            Some(prediction)
        } else {
            None
        }
    }

    fn train(&mut self, uop: &DynUop, actual: u64, _predicted: Option<u64>) {
        let internal = self.inflight.retire(uop.seq).map(|(_, p)| p);
        self.update_entry(uop, actual, internal);
    }

    /// The guarded wrong-path update: applies `actual` to the µ-op's table
    /// entry *without* the program-order retirement bookkeeping of
    /// `train`, consuming only the µ-op's own record.
    fn train_wrong_path(&mut self, uop: &DynUop, actual: u64, _predicted: Option<u64>) {
        let internal = self.inflight.take_wrong_path(uop.seq).map(|(_, p)| p);
        self.update_entry(uop, actual, internal);
    }

    fn squash(&mut self, info: &SquashInfo) {
        self.inflight.squash(info.flush_seq, drop);
        // Speculative last values computed past the flush point are gone; an
        // idealistic recovery resynchronises every entry with retired state.
        self.entries.squash();
    }

    fn storage_bits(&self) -> u64 {
        // valid + tag + last(64) + stride(64) [+ last_delta for 2-delta] + conf(3).
        let per = 1 + u64::from(self.tag_bits) + 64 + 64 + if self.two_delta { 64 } else { 0 } + 3;
        self.entries.len() as u64 * per
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
    fn learns_a_strided_sequence() {
        let mut p = StridePredictor::new(10, 8, FpcParams::deterministic(2));
        let mut seq = 0;
        let mut value = 100u64;
        // Train back-to-back (predict immediately followed by train).
        for _ in 0..5 {
            let u = uop(seq, 0x200, value);
            let _ = p.predict(&ctx(), &u);
            p.train(&u, value, None);
            seq += 1;
            value += 3;
        }
        let u = uop(seq, 0x200, value);
        assert_eq!(p.predict(&ctx(), &u), Some(value));
    }

    #[test]
    fn speculative_last_value_supports_inflight_instances() {
        // Predict several instances before any of them retires: the predictions
        // must follow the stride chain, not repeat the last retired value.
        let mut p = StridePredictor::new(10, 8, FpcParams::deterministic(1));
        // Warm up with three retired instances: allocate, learn stride 5, then one
        // correct internal prediction saturates the 1-level confidence counter.
        for (i, v) in [(0u64, 5u64), (1, 10), (2, 15)] {
            let u = uop(i, 0x300, v);
            let _ = p.predict(&ctx(), &u);
            p.train(&u, v, None);
        }
        let p1 = p.predict(&ctx(), &uop(3, 0x300, 20));
        let p2 = p.predict(&ctx(), &uop(4, 0x300, 25));
        let p3 = p.predict(&ctx(), &uop(5, 0x300, 30));
        assert_eq!(p1, Some(20));
        assert_eq!(p2, Some(25));
        assert_eq!(p3, Some(30));
    }

    #[test]
    fn two_delta_filters_single_break() {
        let mut p2d = StridePredictor::two_delta(10, 8, FpcParams::deterministic(1));
        let mut seq = 0u64;
        let mut feed = |p: &mut StridePredictor, v: u64| {
            let u = uop(seq, 0x400, v);
            let _ = p.predict(&ctx(), &u);
            p.train(&u, v, None);
            seq += 1;
        };
        // Establish stride 4: 0, 4, 8, 12.
        for v in [0u64, 4, 8, 12] {
            feed(&mut p2d, v);
        }
        // One-off jump to 100 (delta 88), then resume the stride at 104.
        feed(&mut p2d, 100);
        feed(&mut p2d, 104);
        // The prediction stride should still be 4 (the 88 delta was seen only once),
        // so after one correct instance rebuilds confidence the next is predicted.
        let u = uop(seq, 0x400, 108);
        assert_eq!(p2d.predict(&ctx(), &u), Some(108));
    }

    #[test]
    fn squash_resets_speculative_state() {
        let mut p = StridePredictor::new(10, 8, FpcParams::deterministic(1));
        for (i, v) in [(0u64, 5u64), (1, 10), (2, 15)] {
            let u = uop(i, 0x300, v);
            let _ = p.predict(&ctx(), &u);
            p.train(&u, v, None);
        }
        // Speculate two instances, then squash: prediction restarts from retired 15.
        let _ = p.predict(&ctx(), &uop(3, 0x300, 20));
        let _ = p.predict(&ctx(), &uop(4, 0x300, 25));
        p.squash(&SquashInfo {
            flush_seq: 2,
            flush_pc: 0x300,
            next_pc: 0x304,
            cause: bebop_uarch::SquashCause::ValueMispredict,
            asid: 0,
        });
        assert_eq!(p.predict(&ctx(), &uop(5, 0x300, 20)), Some(20));
    }

    #[test]
    fn storage_reported() {
        assert!(StridePredictor::default_config().storage_bits() > 0);
        assert!(
            StridePredictor::two_delta_default().storage_bits()
                > StridePredictor::default_config().storage_bits()
        );
        assert_eq!(StridePredictor::default_config().name(), "Stride");
        assert_eq!(StridePredictor::two_delta_default().name(), "2d-Stride");
    }
}
