//! TAGE conditional branch direction predictor (Seznec & Michaud), as configured in
//! Table I of the paper: a bimodal base predictor plus 12 partially tagged
//! components indexed with geometrically increasing global-history lengths.

use bebop_isa::{ensure, snap, StateResult};

/// Configuration of the TAGE predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TageConfig {
    /// log2 of the number of bimodal (base) entries.
    pub log_base: usize,
    /// Number of partially tagged components.
    pub num_tagged: usize,
    /// log2 of the number of entries of each tagged component.
    pub log_tagged: usize,
    /// Tag width, in bits, of the first tagged component (grows by one bit every
    /// other component, as in common TAGE configurations).
    pub tag_bits: u32,
    /// Shortest history length.
    pub min_history: usize,
    /// Longest history length.
    pub max_history: usize,
    /// Period, in updates, of the useful-counter reset.
    pub useful_reset_period: u64,
}

impl Default for TageConfig {
    fn default() -> Self {
        TageConfig {
            log_base: 13,
            num_tagged: 12,
            log_tagged: 10,
            tag_bits: 8,
            min_history: 4,
            max_history: 640,
            useful_reset_period: 256 * 1024,
        }
    }
}

/// One entry of a tagged component.
#[derive(Debug, Clone, Copy, Default)]
struct TaggedEntry {
    valid: bool,
    tag: u16,
    /// 3-bit signed counter stored with an offset: 0..=7, taken if >= 4.
    ctr: u8,
    useful: u8,
}

/// The valid bit of a tag-lane word; tags are at most 15 bits wide.
const LANE_VALID: u16 = 1 << 15;

/// The tag-lane word of an entry: `LANE_VALID | tag` for a valid entry,
/// 0 for an invalid one. A lookup tag never reaches bit 15, so a valid
/// entry whose (restored) tag does reach it maps to 0 and, as before, never
/// hits.
fn tag_lane_of(e: &TaggedEntry) -> u16 {
    if e.valid && e.tag < LANE_VALID {
        LANE_VALID | e.tag
    } else {
        0
    }
}

/// Most tagged components a [`Tage`] supports (Table I uses 12).
const MAX_TAGE_COMPONENTS: usize = 16;

/// One conditional branch's view of the predictor, computed once and shared
/// by the branch's prediction and its update: every tagged component's index
/// and tag, the provider (longest-history hit) and both predictions.
#[derive(Debug, Clone, Copy)]
struct Lookup {
    /// Per component, the entry's position in the flat `Tage::tagged`.
    idx: [usize; MAX_TAGE_COMPONENTS],
    tag: [u16; MAX_TAGE_COMPONENTS],
    bimodal: usize,
    provider: Option<usize>,
    /// The provider's prediction, or the bimodal one without a provider.
    pred: bool,
    /// What the predictor would say without the provider (used for the
    /// useful counters); equal to `pred` without a provider.
    alt_pred: bool,
}

/// A circular global-history register long enough for the largest history length.
///
/// The hot path never walks this buffer: folded views are maintained
/// incrementally by [`FoldedHistory`] and the most recent 64 outcomes by a plain
/// shift register, both updated in O(1) per branch. The buffer itself only
/// supplies the bit *leaving* each component's history window.
#[derive(Debug, Clone)]
struct HistoryRegister {
    bits: Vec<bool>,
    pos: usize,
    /// The most recent 64 outcomes, bit 0 = most recent.
    recent: u64,
}

impl HistoryRegister {
    fn new(len: usize) -> Self {
        HistoryRegister {
            bits: vec![false; len.max(1)],
            pos: 0,
            recent: 0,
        }
    }

    fn push(&mut self, taken: bool) {
        self.pos = if self.pos + 1 == self.bits.len() {
            0
        } else {
            self.pos + 1
        };
        self.bits[self.pos] = taken;
        self.recent = (self.recent << 1) | u64::from(taken);
    }

    /// The outcome `age` steps ago (0 = most recent).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds, via index wrap-around otherwise) if `age` exceeds
    /// the register length.
    fn bit(&self, age: usize) -> u64 {
        debug_assert!(age < self.bits.len());
        let idx = if age <= self.pos {
            self.pos - age
        } else {
            self.pos + self.bits.len() - age
        };
        u64::from(self.bits[idx])
    }

    /// The most recent `n` outcomes folded by XOR into `out_bits` bits (slow
    /// reference path, kept for tests; the predictor uses [`FoldedHistory`]).
    #[cfg(test)]
    fn folded(&self, n: usize, out_bits: usize) -> u64 {
        if out_bits == 0 {
            return 0;
        }
        let mut acc = 0u64;
        let mut chunk = 0u64;
        let mut chunk_len = 0usize;
        for i in 0..n.min(self.bits.len()) {
            let idx = (self.pos + self.bits.len() - i) % self.bits.len();
            chunk = (chunk << 1) | u64::from(self.bits[idx]);
            chunk_len += 1;
            if chunk_len == out_bits {
                acc ^= chunk;
                chunk = 0;
                chunk_len = 0;
            }
        }
        if chunk_len > 0 {
            acc ^= chunk;
        }
        acc & ((1u64 << out_bits.min(63)) - 1)
    }

    /// The most recent 64 outcomes as a plain shift register (bit 0 = most recent).
    fn raw(&self) -> u64 {
        self.recent
    }

    /// Rejects a restored write position outside the register.
    fn check_restored(&mut self) -> StateResult<()> {
        ensure(
            self.pos < self.bits.len(),
            "TAGE history position out of range",
        )
    }
}

/// An incrementally maintained circular fold of the most recent `orig_len`
/// history bits into `clen` bits (Seznec's folded-history registers). Updating on
/// a new outcome is O(1): shift in the new bit, XOR out the bit leaving the
/// window at its folded position, and wrap the carry.
#[derive(Debug, Clone, Copy, Default)]
struct FoldedHistory {
    folded: u64,
    clen: u32,
    /// `orig_len % clen`: the folded position at which the leaving bit sits.
    outpoint: u32,
    mask: u64,
}

impl FoldedHistory {
    fn new(orig_len: usize, clen: u32) -> Self {
        let clen = clen.clamp(1, 63);
        FoldedHistory {
            folded: 0,
            clen,
            // CAST: history lengths are architectural constants (< 4096).
            outpoint: (orig_len as u32) % clen,
            mask: (1u64 << clen) - 1,
        }
    }

    #[inline]
    fn update(&mut self, new_bit: u64, leaving_bit: u64) {
        self.folded = (self.folded << 1) | new_bit;
        self.folded ^= leaving_bit << self.outpoint;
        self.folded ^= self.folded >> self.clen;
        self.folded &= self.mask;
    }

    /// Masks a restored fold to its configured width.
    fn check_restored(&mut self) -> StateResult<()> {
        self.folded &= self.mask;
        Ok(())
    }
}

/// The TAGE predictor.
#[derive(Debug, Clone)]
pub struct Tage {
    cfg: TageConfig,
    bimodal: Vec<u8>, // 2-bit counters
    /// Every tagged component's entries, component after component.
    tagged: Vec<TaggedEntry>,
    /// [`tag_lane_of`] each entry of `tagged`, at the same positions: the
    /// hit scan of a lookup reads these two bytes per component instead of
    /// the entries. Derived state: written with every allocation, rebuilt on
    /// restore, never serialised.
    tag_lane: Vec<u16>,
    history_lengths: Vec<usize>,
    /// Per-component tag widths, precomputed.
    tag_widths: Vec<u32>,
    /// Per-component incrementally folded histories: index fold plus two tag
    /// folds of different widths.
    idx_fold: Vec<FoldedHistory>,
    tag_fold1: Vec<FoldedHistory>,
    tag_fold2: Vec<FoldedHistory>,
    ghist: HistoryRegister,
    path: u64,
    updates: u64,
    /// The update count at which the useful counters are next aged (derived
    /// from `updates`, never serialised).
    next_reset: u64,
    rand_state: u64,
}

impl Tage {
    /// Creates a TAGE predictor from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has more than 16 tagged components or a
    /// zero useful-reset period.
    pub fn new(cfg: TageConfig) -> Self {
        assert!(
            cfg.num_tagged <= MAX_TAGE_COMPONENTS,
            "num_tagged {} exceeds MAX_TAGE_COMPONENTS {MAX_TAGE_COMPONENTS}",
            cfg.num_tagged
        );
        assert!(
            cfg.useful_reset_period > 0,
            "the useful-reset period must be non-zero"
        );
        let mut history_lengths = Vec::with_capacity(cfg.num_tagged);
        // Geometric series from min_history to max_history.
        for i in 0..cfg.num_tagged {
            let l = if cfg.num_tagged <= 1 {
                cfg.min_history
            } else {
                let ratio = (cfg.max_history as f64 / cfg.min_history as f64)
                    .powf(i as f64 / (cfg.num_tagged - 1) as f64);
                (cfg.min_history as f64 * ratio).round() as usize
            };
            history_lengths.push(l.max(1));
        }
        let tag_widths: Vec<u32> = (0..cfg.num_tagged)
            .map(|c| (cfg.tag_bits + (c as u32) / 2).min(15))
            .collect();
        let idx_fold = history_lengths
            .iter()
            .map(|&hl| FoldedHistory::new(hl, cfg.log_tagged as u32))
            .collect();
        let tag_fold1 = history_lengths
            .iter()
            .zip(&tag_widths)
            .map(|(&hl, &tb)| FoldedHistory::new(hl, tb))
            .collect();
        let tag_fold2 = history_lengths
            .iter()
            .zip(&tag_widths)
            .map(|(&hl, &tb)| FoldedHistory::new(hl, tb.saturating_sub(3).max(2)))
            .collect();
        Tage {
            bimodal: vec![2; 1 << cfg.log_base],
            tagged: vec![TaggedEntry::default(); cfg.num_tagged << cfg.log_tagged],
            tag_lane: vec![0; cfg.num_tagged << cfg.log_tagged],
            history_lengths,
            tag_widths,
            idx_fold,
            tag_fold1,
            tag_fold2,
            ghist: HistoryRegister::new(cfg.max_history + 1),
            path: 0,
            updates: 0,
            next_reset: cfg.useful_reset_period,
            rand_state: 0xdead_beef_1234_5678,
            cfg,
        }
    }

    /// Total storage in bits (for reporting / comparison against Table I's 32 KB).
    pub fn storage_bits(&self) -> u64 {
        let base = (1u64 << self.cfg.log_base) * 2;
        let per_entry = 3 + 2 + u64::from(self.cfg.tag_bits);
        let tagged = self.cfg.num_tagged as u64 * (1u64 << self.cfg.log_tagged) * per_entry;
        base + tagged
    }

    fn bimodal_index(&self, pc: u64) -> usize {
        ((pc >> 2) & ((1 << self.cfg.log_base) - 1)) as usize
    }

    fn tagged_index(&self, pc: u64, comp: usize) -> usize {
        let folded = self.idx_fold[comp].folded;
        let idx = (pc >> 2) ^ (pc >> (2 + self.cfg.log_tagged)) ^ folded ^ (self.path & 0xffff);
        (idx & ((1 << self.cfg.log_tagged) - 1)) as usize
    }

    fn tagged_tag(&self, pc: u64, comp: usize) -> u16 {
        let tag_bits = self.tag_widths[comp] as usize;
        // Two folds of *different widths* so runs of identical outcomes cannot
        // cancel each other (they would with widths w and w-1 shifted by one).
        let folded = self.tag_fold1[comp].folded;
        let folded2 = self.tag_fold2[comp].folded;
        let mix = (pc >> 2) ^ (pc >> (2 + tag_bits)) ^ folded ^ (folded2 << 2);
        (mix & ((1 << tag_bits) - 1)) as u16
    }

    fn rand(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.rand_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rand_state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Computes `pc`'s index and tag in every tagged component, the provider
    /// and alternate hits, and both predictions — everything the branch's
    /// prediction and update read.
    fn lookup(&self, pc: u64) -> Lookup {
        let n = self.cfg.num_tagged;
        let mut l = Lookup {
            idx: [0; MAX_TAGE_COMPONENTS],
            tag: [0; MAX_TAGE_COMPONENTS],
            bimodal: self.bimodal_index(pc),
            provider: None,
            pred: false,
            alt_pred: false,
        };
        for c in 0..n {
            l.idx[c] = c << self.cfg.log_tagged | self.tagged_index(pc, c);
            l.tag[c] = self.tagged_tag(pc, c);
        }
        let mut hits = (0..n)
            .rev()
            .filter(|&c| self.tag_lane[l.idx[c]] == LANE_VALID | l.tag[c]);
        l.provider = hits.next();
        let alt = hits.next();
        let taken = |c: usize| self.tagged[l.idx[c]].ctr >= 4;
        let base = self.bimodal[l.bimodal] >= 2;
        l.pred = l.provider.map_or(base, taken);
        l.alt_pred = match l.provider {
            Some(_) => alt.map_or(base, taken),
            None => l.pred,
        };
        l
    }

    /// Predicts the direction of the conditional branch at `pc`.
    pub fn predict(&self, pc: u64) -> bool {
        self.lookup(pc).pred
    }

    /// Predicts the conditional branch at `pc`, then updates the predictor
    /// with its actual outcome and shifts the global/path histories; returns
    /// the prediction. One lookup serves both halves.
    pub fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        let l = self.lookup(pc);
        self.updates += 1;
        // Update the provider (or the bimodal table).
        match l.provider {
            Some(comp) => {
                let e = &mut self.tagged[l.idx[comp]];
                if taken {
                    e.ctr = (e.ctr + 1).min(7);
                } else {
                    e.ctr = e.ctr.saturating_sub(1);
                }
                if l.pred != l.alt_pred {
                    if l.pred == taken {
                        e.useful = (e.useful + 1).min(3);
                    } else {
                        e.useful = e.useful.saturating_sub(1);
                    }
                }
            }
            None => {
                let ctr = &mut self.bimodal[l.bimodal];
                if taken {
                    *ctr = (*ctr + 1).min(3);
                } else {
                    *ctr = ctr.saturating_sub(1);
                }
            }
        }

        // On a misprediction, allocate an entry in a component with a longer history.
        let n = self.cfg.num_tagged;
        let start = l.provider.map_or(0, |c| c + 1);
        if l.pred != taken && start < n {
            // Find candidates with useful == 0.
            let mut candidates = [0usize; MAX_TAGE_COMPONENTS];
            let mut found = 0;
            for c in start..n {
                if self.tagged[l.idx[c]].useful == 0 {
                    candidates[found] = c;
                    found += 1;
                }
            }
            if found == 0 {
                // Decay usefulness so allocation can succeed later.
                for c in start..n {
                    let e = &mut self.tagged[l.idx[c]];
                    e.useful = e.useful.saturating_sub(1);
                }
            } else {
                // Prefer shorter-history candidates with geometrically decreasing
                // probability (as in the original TAGE).
                // CAST: the modulo bounds pick below found.
                let pick = (self.rand() as usize) % found.clamp(1, 2);
                let comp = candidates[pick.min(found - 1)];
                let entry = TaggedEntry {
                    valid: true,
                    tag: l.tag[comp],
                    ctr: if taken { 4 } else { 3 },
                    useful: 0,
                };
                self.tagged[l.idx[comp]] = entry;
                self.tag_lane[l.idx[comp]] = tag_lane_of(&entry);
            }
        }

        // Periodic useful-counter aging.
        if self.updates == self.next_reset {
            self.next_reset += self.cfg.useful_reset_period;
            for e in &mut self.tagged {
                e.useful >>= 1;
            }
        }

        // History updates: capture each component's leaving bit (the outcome that
        // falls out of its history window) before shifting, then advance the
        // incrementally folded views in O(1) per component.
        let new_bit = u64::from(taken);
        for comp in 0..self.cfg.num_tagged {
            let hl = self.history_lengths[comp];
            let leaving = self.ghist.bit(hl - 1);
            self.idx_fold[comp].update(new_bit, leaving);
            self.tag_fold1[comp].update(new_bit, leaving);
            self.tag_fold2[comp].update(new_bit, leaving);
        }
        self.ghist.push(taken);
        self.path = (self.path << 1) ^ ((pc >> 2) & 0x3f);
        l.pred
    }

    /// Re-derives the next useful-counter aging point from the restored
    /// update count, and the tag lane from the restored entries.
    fn check_restored(&mut self) -> StateResult<()> {
        let period = self.cfg.useful_reset_period;
        self.next_reset = (self.updates / period + 1).saturating_mul(period);
        self.tag_lane = self.tagged.iter().map(tag_lane_of).collect();
        Ok(())
    }

    /// The most recent 64 committed branch outcomes (bit 0 = most recent).
    pub fn global_history(&self) -> u64 {
        self.ghist.raw()
    }

    /// A folded path history.
    pub fn path_history(&self) -> u64 {
        self.path
    }
}

snap!(TaggedEntry {
    valid: bool,
    tag: u16,
    ctr: u8,
    useful: u8,
});
snap!(HistoryRegister { bits: Vec<bool>, pos: usize, recent: u64 } validate check_restored);
snap!(FoldedHistory { folded: u64 } validate check_restored);
snap!(Tage {
    bimodal: Vec<u8>,
    tagged: Vec<TaggedEntry>,
    idx_fold: Vec<FoldedHistory>,
    tag_fold1: Vec<FoldedHistory>,
    tag_fold2: Vec<FoldedHistory>,
    ghist: HistoryRegister,
    path: u64,
    updates: u64,
    rand_state: u64,
} validate check_restored);

#[cfg(test)]
mod tests {
    use super::*;
    use bebop_isa::{restore_snapshot, snapshot};

    #[test]
    fn history_lengths_are_geometric_and_monotone() {
        let t = Tage::new(TageConfig::default());
        for w in t.history_lengths.windows(2) {
            assert!(
                w[1] > w[0],
                "history lengths must increase: {:?}",
                t.history_lengths
            );
        }
        assert_eq!(*t.history_lengths.first().unwrap(), 4);
        assert_eq!(*t.history_lengths.last().unwrap(), 640);
    }

    #[test]
    fn biased_branch_learned_by_bimodal() {
        let mut t = Tage::new(TageConfig::default());
        for _ in 0..64 {
            t.predict_and_update(0x4000, true);
        }
        assert!(t.predict(0x4000));
        for _ in 0..64 {
            t.predict_and_update(0x4000, false);
        }
        assert!(!t.predict(0x4000));
    }

    #[test]
    fn periodic_pattern_learned_by_tagged_components() {
        let mut t = Tage::new(TageConfig::default());
        // Period-4 pattern: T T T N.
        let pattern = [true, true, true, false];
        let mut late_misses = 0;
        for i in 0..4000usize {
            let taken = pattern[i % 4];
            if i > 3000 && t.predict(0x7000) != taken {
                late_misses += 1;
            }
            t.predict_and_update(0x7000, taken);
        }
        assert!(
            late_misses < 30,
            "TAGE should learn a short periodic pattern, {late_misses} late misses"
        );
    }

    #[test]
    fn folded_history_is_bounded() {
        let mut h = HistoryRegister::new(100);
        for i in 0..200 {
            h.push(i % 3 == 0);
        }
        for bits in 1..16 {
            assert!(h.folded(80, bits) < (1 << bits));
        }
        assert_eq!(h.folded(10, 0), 0);
    }

    #[test]
    fn incremental_fold_depends_only_on_its_window() {
        // Feed two FoldedHistory registers different prefixes followed by the same
        // `orig_len` most recent outcomes: the folds must converge bit-for-bit.
        // (This is the invariant that makes the O(1) incremental update a valid
        // replacement for refolding the window from scratch.)
        for (orig_len, clen) in [(7usize, 3u32), (64, 10), (129, 8), (640, 10)] {
            let mut x = 0x1234_5678u64;
            let mut lcg = move || {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 62) & 1 == 1
            };
            let prefix_a: Vec<bool> = (0..1000).map(|_| lcg()).collect();
            let prefix_b: Vec<bool> = (0..777).map(|_| lcg()).collect();
            let suffix: Vec<bool> = (0..orig_len).map(|_| lcg()).collect();

            let run = |prefix: &[bool]| {
                let mut hist = HistoryRegister::new(orig_len + 1);
                let mut fold = FoldedHistory::new(orig_len, clen);
                for &b in prefix.iter().chain(suffix.iter()) {
                    let leaving = hist.bit(orig_len - 1);
                    fold.update(u64::from(b), leaving);
                    hist.push(b);
                }
                fold.folded
            };
            assert_eq!(
                run(&prefix_a),
                run(&prefix_b),
                "fold (len {orig_len}, width {clen}) leaked pre-window history"
            );
        }
    }

    /// The hitting components of `l`, longest history first, by a scan over
    /// the entries: the reference the lane scan must equal.
    fn scan_hits(t: &Tage, l: &Lookup) -> Vec<usize> {
        (0..t.cfg.num_tagged)
            .rev()
            .filter(|&c| {
                let e = &t.tagged[l.idx[c]];
                e.valid && e.tag == l.tag[c]
            })
            .collect()
    }

    /// Seeded random branch streams with snapshot→restore cycles on a small
    /// TAGE (16-entry components, short tags, a short useful-reset period),
    /// so allocations, aliasing hits and useful aging are frequent. At every
    /// step the lane equals the entries word for word, and the lookup's
    /// provider, alternate and predictions equal a scan over the entries.
    #[test]
    fn tag_lane_agrees_with_a_scan_over_the_entries() {
        let cfg = TageConfig {
            log_tagged: 4,
            tag_bits: 4,
            useful_reset_period: 64,
            ..TageConfig::default()
        };
        for seed in 1..=4u64 {
            let mut t = Tage::new(cfg);
            let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut alternates = 0;
            for step in 1..=3_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // A loop of eight branches with periodic outcomes and 1/16
                // noise: histories recur, so entries are allocated, hit and
                // aliased.
                let pc = 0x1000 + (step % 8) * 4;
                let taken = ((step / 8) % 3 != 0) ^ (x % 16 == 0);
                let l = t.lookup(pc);
                let hits = scan_hits(&t, &l);
                alternates += usize::from(hits.len() >= 2);
                assert_eq!(l.provider, hits.first().copied(), "seed {seed} step {step}");
                let dir = |c: usize| t.tagged[l.idx[c]].ctr >= 4;
                let base = t.bimodal[l.bimodal] >= 2;
                let (pred, alt_pred) = match hits[..] {
                    [] => (base, base),
                    [p] => (dir(p), base),
                    [p, a, ..] => (dir(p), dir(a)),
                };
                assert_eq!(
                    (l.pred, l.alt_pred),
                    (pred, alt_pred),
                    "seed {seed} step {step}"
                );
                assert_eq!(t.predict_and_update(pc, taken), pred);
                if step % 700 == 0 {
                    let mut back = Tage::new(cfg);
                    restore_snapshot(&mut back, &snapshot(&t)).unwrap();
                    t = back;
                }
                let lane: Vec<u16> = t.tagged.iter().map(tag_lane_of).collect();
                assert_eq!(t.tag_lane, lane, "seed {seed} step {step}");
            }
            assert!(
                alternates > 300,
                "seed {seed}: {alternates} lookups had an alternate"
            );
        }
    }

    #[test]
    fn storage_is_in_branch_predictor_range() {
        let t = Tage::new(TageConfig::default());
        let kb = t.storage_bits() as f64 / 8.0 / 1024.0;
        // Table I quotes roughly 32KB for the 1+12 component TAGE.
        assert!(
            kb > 16.0 && kb < 64.0,
            "TAGE storage {kb} KB out of expected range"
        );
    }

    #[test]
    fn histories_advance() {
        let mut t = Tage::new(TageConfig::default());
        let h0 = t.global_history();
        t.predict_and_update(0x100, true);
        t.predict_and_update(0x104, false);
        assert_ne!(t.global_history(), h0);
        // Bit 0 holds the most recent outcome (not taken), bit 1 the one before.
        assert_eq!(t.global_history() & 0b11, 0b10);
        assert_ne!(t.path_history(), 0);
    }
}
