//! The tagged-component core shared by VTAGE, D-VTAGE and BeBoP.
//!
//! The paper derives its predictor from VTAGE in two steps: D-VTAGE stores
//! strides in VTAGE's tagged components, and BeBoP makes D-VTAGE block-based.
//! All three therefore share one TAGE skeleton, held here once:
//!
//! * [`TaggedGeometry`] — geometric history lengths, growing tag widths and
//!   the index/tag hash of every component, with a memo of the folded
//!   history;
//! * [`TaggedComponents`] — the component tables with the provider/alternate
//!   scan, the allocation-victim policy and the periodic useful-bit reset;
//!   beside each table it keeps a dense *tag lane*, one `u32` per entry
//!   holding that entry's tag, valid bit and useful bit, so the provider and
//!   victim scans read one lane word per component instead of one entry
//!   (6–80 bytes, one host cache line) per component;
//! * [`clamp_stride`] — the partial-stride truncation.
//!
//! Their prediction-time records travel to retirement in a
//! [`SeqQueue`](bebop_isa::SeqQueue) of `(SeqNum, record)` pairs, as do the
//! stride predictors'.
//!
//! Each predictor keeps only its payload policy: a full value (VTAGE), a
//! stride plus a last-value table (D-VTAGE), or per-slot strides (BeBoP).
//! Entries keep their own structs and checkpoint layouts; the shared code
//! reaches them through the small [`Tagged`] trait.
//!
//! The lanes are derived state. The entries still hold `valid`, `tag` and
//! `useful` and are what checkpoints write; the lanes are never serialised
//! and are rebuilt from the entries on restore. To keep the two in step,
//! every write of those three fields goes through [`TaggedComponents`]:
//! [`install`](TaggedComponents::install),
//! [`set_useful`](TaggedComponents::set_useful),
//! [`reset_useful_if_due`](TaggedComponents::reset_useful_if_due) and the
//! victim policy's useful-bit clearing. Predictors write only payload fields
//! through [`entry_mut`](TaggedComponents::entry_mut), so they read an
//! entry's payload only for the provider and for the entry they update.

use crate::{Lfsr, ShardedTable};
use bebop_isa::{fold_bits, snap, Snap, StateReader, StateResult, StateWriter};
use std::ops::Deref;

/// The maximum number of tagged components (the paper uses 6).
pub const MAX_TAGGED: usize = 8;

/// Per tagged component, the `(index, tag)` a key hashes to. Component
/// indices fit `u16` (a component has at most 2^16 entries), which keeps the
/// in-flight records that carry these pairs small. Checkpoints write the
/// pairs as stored; whether an index lies inside its table is checked by the
/// restoring predictor ([`TaggedComponents::holds`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Slots(pub [(u16, u16); MAX_TAGGED]);

impl Slots {
    /// Component `c`'s `(index, tag)`, with the index widened for table access.
    pub fn get(&self, c: usize) -> (usize, u16) {
        let (idx, tag) = self.0[c];
        (usize::from(idx), tag)
    }
}

snap!(Slots {
    0: [(u16, u16); MAX_TAGGED]
});

/// A hitting tagged entry as `(component, index)`.
pub type Hit = (usize, usize);

/// log2 entries of the base component of the Figure 5a VTAGE and D-VTAGE.
pub(crate) const FIG5A_LOG_BASE: u32 = 13;

/// Period, in updates, of the Figure 5a predictors' useful-bit reset.
pub(crate) const FIG5A_USEFUL_RESET_PERIOD: u64 = 512 * 1024;

/// Sign-extending truncation of a stride to `stride_bits` bits, as stored by
/// partial-stride hardware (64 keeps the full stride).
pub fn clamp_stride(stride: i64, stride_bits: u32) -> i64 {
    if stride_bits >= 64 {
        return stride;
    }
    let shift = 64 - stride_bits;
    (stride << shift) >> shift
}

/// The tag width of tagged component `comp`: one bit more per component,
/// capped at 16.
pub fn tag_width(first_tag_bits: u32, comp: usize) -> u32 {
    // CAST: comp < MAX_TAGGED.
    (first_tag_bits + comp as u32).min(16)
}

/// Folds the `len` most recent bits of a global branch history (bit 0 = most
/// recent) into `bits` bits.
fn fold_history(history: u64, len: usize, bits: u32) -> u64 {
    let recent = if len >= 64 {
        history
    } else {
        history & ((1u64 << len) - 1)
    };
    fold_bits(recent, bits)
}

/// The shape of a set of tagged components: how many, how large, and which
/// history length and tag width each one uses.
#[derive(Debug, Clone)]
pub struct TaggedGeometry {
    num_tagged: usize,
    index_bits: u32,
    hist_len: [usize; MAX_TAGGED],
    tag_bits: [u32; MAX_TAGGED],
    folds: Folds,
}

/// Memo of the folded-history terms of every component's index and tag hash
/// for one global-history value. The folds are a pure function of `(ghist,
/// geometry)` and the history only changes at branches, so the µ-ops between
/// branches reuse one computation. Derived state: never serialised, and
/// valid across save/restore because the geometry is fixed at construction.
#[derive(Debug, Clone, Copy, Default)]
struct Folds {
    valid: bool,
    ghist: u64,
    /// Per-component folded history for the index hash.
    index: [u64; MAX_TAGGED],
    /// Per-component `f1 ^ (f2 << 2)` term of the tag hash.
    tag: [u64; MAX_TAGGED],
}

impl TaggedGeometry {
    /// `num_tagged` components of `2^index_bits` entries, with history lengths
    /// growing geometrically from `min_history` to `max_history` and tags of
    /// [`tag_width`]`(first_tag_bits, i)` bits.
    ///
    /// # Panics
    ///
    /// Panics if `num_tagged > MAX_TAGGED` or `index_bits > 16`.
    pub fn new(
        num_tagged: usize,
        index_bits: u32,
        min_history: usize,
        max_history: usize,
        first_tag_bits: u32,
    ) -> Self {
        assert!(
            num_tagged <= MAX_TAGGED,
            "num_tagged {num_tagged} exceeds MAX_TAGGED {MAX_TAGGED}"
        );
        assert!(
            index_bits <= 16,
            "tagged components hold at most 2^16 entries"
        );
        let mut hist_len = [0; MAX_TAGGED];
        let mut tag_bits = [0; MAX_TAGGED];
        for c in 0..num_tagged {
            hist_len[c] = if num_tagged <= 1 {
                min_history
            } else {
                let ratio = (max_history as f64 / min_history as f64)
                    .powf(c as f64 / (num_tagged - 1) as f64);
                (min_history as f64 * ratio).round() as usize
            };
            tag_bits[c] = tag_width(first_tag_bits, c);
        }
        TaggedGeometry {
            num_tagged,
            index_bits,
            hist_len,
            tag_bits,
            folds: Folds::default(),
        }
    }

    /// The Figure 5a geometry of VTAGE and D-VTAGE: six 1K-entry components,
    /// a 13-bit first tag, histories from 2 to 64.
    pub(crate) fn figure_5a() -> Self {
        TaggedGeometry::new(6, 10, 2, 64, 13)
    }

    /// log2 entries of each component.
    pub(crate) fn index_bits(&self) -> u32 {
        self.index_bits
    }

    /// The tag width of component `comp`, in bits.
    pub fn tag_bits(&self, comp: usize) -> u32 {
        self.tag_bits[comp]
    }

    /// `(1 << tag_bits(comp)) - 1`.
    pub fn tag_mask(&self, comp: usize) -> u64 {
        (1u64 << self.tag_bits[comp]) - 1
    }

    /// The `(index, tag)` of every component for the hashed key `k` under
    /// global history `ghist` and path history `path`. `tag_shift` is the
    /// predictor's second shift of the key in the tag hash.
    pub fn slots(&mut self, k: u64, ghist: u64, path: u64, tag_shift: u32) -> Slots {
        if !(self.folds.valid && self.folds.ghist == ghist) {
            self.folds = self.fold(ghist);
        }
        let index_mask = (1u64 << self.index_bits) - 1;
        let mut slots = Slots::default();
        for (c, slot) in slots.0.iter_mut().enumerate().take(self.num_tagged) {
            let idx = k ^ (k >> self.index_bits) ^ self.folds.index[c] ^ (path & 0x3f);
            let tag = (k ^ (k >> tag_shift) ^ self.folds.tag[c]) & self.tag_mask(c);
            // CAST: both are masked to the table and tag widths (≤ 16 bits).
            *slot = ((idx & index_mask) as u16, tag as u16);
        }
        slots
    }

    fn fold(&self, ghist: u64) -> Folds {
        let mut folds = Folds {
            valid: true,
            ghist,
            ..Folds::default()
        };
        for c in 0..self.num_tagged {
            let (len, bits) = (self.hist_len[c], self.tag_bits[c]);
            folds.index[c] = fold_history(ghist, len, self.index_bits);
            let f1 = fold_history(ghist, len, bits);
            let f2 = fold_history(ghist, len, bits.saturating_sub(3).max(2));
            folds.tag[c] = f1 ^ (f2 << 2);
        }
        folds
    }
}

/// What the shared code needs of a tagged entry: its valid bit, tag and
/// useful bit. Implement it with [`tagged_entry!`](crate::tagged_entry).
pub trait Tagged {
    /// The valid bit.
    fn valid(&self) -> bool;
    /// The tag.
    fn tag(&self) -> u16;
    /// The useful bit.
    fn useful(&self) -> bool;
    /// Sets the useful bit.
    fn set_useful(&mut self, useful: bool);
}

/// Implements [`Tagged`] for an entry struct with `valid: bool`, `tag: u16`
/// and `useful: bool` fields.
#[macro_export]
macro_rules! tagged_entry {
    ($t:ty) => {
        impl $crate::Tagged for $t {
            fn valid(&self) -> bool {
                self.valid
            }
            fn tag(&self) -> u16 {
                self.tag
            }
            fn useful(&self) -> bool {
                self.useful
            }
            fn set_useful(&mut self, useful: bool) {
                self.useful = useful;
            }
        }
    };
}

/// Tag-lane word layout: the tag in the low 16 bits, then the valid bit and
/// the useful bit.
const LANE_VALID: u32 = 1 << 16;
const LANE_USEFUL: u32 = 1 << 17;

/// The lane word of an entry.
fn lane_of<E: Tagged>(e: &E) -> u32 {
    let flag = |set: bool, bit: u32| if set { bit } else { 0 };
    u32::from(e.tag()) | flag(e.valid(), LANE_VALID) | flag(e.useful(), LANE_USEFUL)
}

/// One tagged component's table, seen as its entries in flat-index order: a
/// plain `Vec` (VTAGE, D-VTAGE) or a [`ShardedTable`] (BeBoP).
pub trait Component {
    /// The entry type.
    type Entry: Tagged;
    /// The entries.
    fn entries(&self) -> &[Self::Entry];
    /// The entries, mutably.
    fn entries_mut(&mut self) -> &mut [Self::Entry];
}

impl<E: Tagged> Component for Vec<E> {
    type Entry = E;
    fn entries(&self) -> &[E] {
        self
    }
    fn entries_mut(&mut self) -> &mut [E] {
        self
    }
}

impl<E: Tagged> Component for ShardedTable<E> {
    type Entry = E;
    fn entries(&self) -> &[E] {
        &self.data
    }
    fn entries_mut(&mut self) -> &mut [E] {
        &mut self.data
    }
}

/// The tagged components of a predictor: its geometry, one table per
/// component and the tables' tag lanes. Derefs to the tables for reads, so
/// `components[c]` is component `c`; writes go through the methods below.
#[derive(Debug, Clone)]
pub struct TaggedComponents<C> {
    geometry: TaggedGeometry,
    tables: Vec<C>,
    /// Entries per component: every table is a copy of one template.
    len: usize,
    /// The tag lanes, component after component: entry `i` of component `c`
    /// is `lanes[c * len + i]`, the word [`lane_of`] packs.
    lanes: Vec<u32>,
}

impl<C: Component + Clone> TaggedComponents<C> {
    /// One copy of `table` per component of `geometry`.
    pub fn new(geometry: TaggedGeometry, table: C) -> Self {
        let lane: Vec<u32> = table.entries().iter().map(lane_of).collect();
        TaggedComponents {
            tables: vec![table; geometry.num_tagged],
            len: lane.len(),
            lanes: lane.repeat(geometry.num_tagged),
            geometry,
        }
    }
}

impl<C: Component> TaggedComponents<C> {
    /// The geometry.
    pub fn geometry(&self) -> &TaggedGeometry {
        &self.geometry
    }

    /// The `(index, tag)` of every component (see [`TaggedGeometry::slots`]).
    pub fn slots(&mut self, k: u64, ghist: u64, path: u64, tag_shift: u32) -> Slots {
        self.geometry.slots(k, ghist, path, tag_shift)
    }

    /// Position of component `c`'s entry `idx` in the lanes.
    fn at(&self, c: usize, idx: usize) -> usize {
        debug_assert!(
            idx < self.len,
            "index {idx} outside a {}-entry component",
            self.len
        );
        c * self.len + idx
    }

    /// `true` when component `c`'s entry `idx` is valid and holds `tag`.
    pub fn hits(&self, c: usize, idx: usize, tag: u16) -> bool {
        self.lanes[self.at(c, idx)] & !LANE_USEFUL == LANE_VALID | u32::from(tag)
    }

    /// The provider (the hitting component with the longest history) and
    /// the alternate (the next hitting one), as `(component, index)` pairs.
    pub fn providers(&self, slots: &Slots) -> (Option<Hit>, Option<Hit>) {
        // A hit mask, not an early-exit scan: where such a scan stops is
        // data-dependent and mispredicts on the host.
        let mut hits = 0u32;
        for c in 0..self.tables.len() {
            let (idx, tag) = slots.get(c);
            hits |= u32::from(self.hits(c, idx, tag)) << c;
        }
        // The provider is the highest hit, the alternate the next one.
        let top = hits.checked_ilog2();
        let alt = top.and_then(|c| (hits ^ 1 << c).checked_ilog2());
        // CAST: component numbers are below MAX_TAGGED.
        let hit = |c: u32| (c as usize, slots.get(c as usize).0);
        (top.map(hit), alt.map(hit))
    }

    /// The TAGE allocation policy after a misprediction. The candidates are
    /// the non-useful entries of the components above the provider; one of
    /// the first two is picked at random and its component returned. With no
    /// candidate, every useful bit above the provider is cleared instead and
    /// no random number is drawn.
    pub fn victim(
        &mut self,
        slots: &Slots,
        provider: Option<Hit>,
        rng: &mut Lfsr,
    ) -> Option<usize> {
        let start = provider.map_or(0, |(c, _)| c + 1);
        let mut first = [0usize; 2];
        let mut n = 0;
        for c in start..self.tables.len() {
            if self.lanes[self.at(c, slots.get(c).0)] & LANE_USEFUL == 0 {
                if n < 2 {
                    first[n] = c;
                }
                n += 1;
            }
        }
        if n == 0 {
            for c in start..self.tables.len() {
                self.set_useful(c, slots.get(c).0, false);
            }
            return None;
        }
        // CAST: the modulo bounds the pick below 2.
        Some(first[(rng.next_u64() as usize) % n.min(2)])
    }

    /// Writes `entry` (valid, tag, useful bit and payload) into component
    /// `c` at `idx`.
    pub fn install(&mut self, c: usize, idx: usize, entry: C::Entry) {
        let at = self.at(c, idx);
        self.lanes[at] = lane_of(&entry);
        self.tables[c].entries_mut()[idx] = entry;
    }

    /// Sets the useful bit of component `c`'s entry `idx`.
    pub fn set_useful(&mut self, c: usize, idx: usize, useful: bool) {
        let at = self.at(c, idx);
        if useful {
            self.lanes[at] |= LANE_USEFUL;
        } else {
            self.lanes[at] &= !LANE_USEFUL;
        }
        self.tables[c].entries_mut()[idx].set_useful(useful);
    }

    /// Component `c`'s entry `idx`, for writing its payload. Its valid bit,
    /// tag and useful bit must be written through [`Self::install`] and
    /// [`Self::set_useful`], which keep the lanes in step.
    pub fn entry_mut(&mut self, c: usize, idx: usize) -> &mut C::Entry {
        &mut self.tables[c].entries_mut()[idx]
    }

    /// Every entry, component after component, for writing payloads (see
    /// [`Self::entry_mut`]).
    pub fn entries_mut(&mut self) -> impl Iterator<Item = &mut C::Entry> {
        self.tables.iter_mut().flat_map(C::entries_mut)
    }

    /// The periodic useful-bit reset of TAGE: clears every useful bit when
    /// `updates` is a multiple of `period`.
    pub fn reset_useful_if_due(&mut self, updates: u64, period: u64) {
        if updates % period == 0 {
            for e in self.tables.iter_mut().flat_map(C::entries_mut) {
                e.set_useful(false);
            }
            for lane in &mut self.lanes {
                *lane &= !LANE_USEFUL;
            }
        }
    }

    /// The lane words of the entries as they stand: what the lanes must
    /// equal.
    fn entry_lanes(&self) -> impl Iterator<Item = u32> + '_ {
        self.tables.iter().flat_map(C::entries).map(lane_of)
    }

    /// Storage in bits: per entry, its component's tag plus `payload_bits`.
    pub(crate) fn storage_bits(&self, payload_bits: u64) -> u64 {
        let tag = |c: usize| u64::from(self.geometry.tag_bits(c));
        let entry_bits = |(c, t): (usize, &C)| t.entries().len() as u64 * (tag(c) + payload_bits);
        self.tables.iter().enumerate().map(entry_bits).sum()
    }

    /// `true` when a restored record's provider and slots index inside the
    /// tables.
    pub fn holds(&self, provider: Option<Hit>, slots: &Slots) -> bool {
        let inside = |c: usize, i: usize| self.tables.get(c).is_some_and(|t| i < t.entries().len());
        provider.map_or(true, |(c, i)| inside(c, i))
            && (0..self.tables.len()).all(|c| inside(c, slots.get(c).0))
    }
}

impl<C> Deref for TaggedComponents<C> {
    type Target = [C];
    fn deref(&self) -> &[C] {
        &self.tables
    }
}

impl<E: Tagged + Clone> TaggedComponents<ShardedTable<E>> {
    /// Records a write to component `c`'s entry `idx` by context `asid` in
    /// the component's ownership accounting ([`ShardedTable::note_write`]).
    pub fn note_write(&mut self, c: usize, idx: usize, asid: u8) {
        self.tables[c].note_write(idx, asid);
    }
}

/// The tables only; the geometry is configuration, its fold memo and the
/// lanes derived. A restore rebuilds the lanes from the restored entries
/// (whose table sizes the `Vec` codec has checked). Under the `simcheck`
/// feature a save first checks that every lane word agrees with its entry,
/// so each checkpoint, including the one taken right after a restore,
/// validates the lanes the run has been reading.
impl<C: Snap + Component> Snap for TaggedComponents<C> {
    const MIN_BYTES: usize = <Vec<C>>::MIN_BYTES;

    fn save(&self, w: &mut StateWriter) {
        #[cfg(feature = "simcheck")]
        assert!(
            self.entry_lanes().eq(self.lanes.iter().copied()),
            "simcheck: tagged lanes disagree with their entries"
        );
        self.tables.save(w);
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> StateResult<()> {
        self.tables.restore(r)?;
        self.lanes = self.entry_lanes().collect();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bebop_isa::{restore_snapshot, snap, snapshot, SeqNum, SeqQueue};
    use std::collections::VecDeque;

    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    struct Entry {
        valid: bool,
        tag: u16,
        useful: bool,
    }
    crate::tagged_entry!(Entry);
    snap!(Entry {
        valid: bool,
        tag: u16,
        useful: bool,
    });

    fn components(num_tagged: usize) -> TaggedComponents<Vec<Entry>> {
        TaggedComponents::new(
            TaggedGeometry::new(num_tagged, 4, 2, 64, 13),
            vec![Entry::default(); 16],
        )
    }

    #[test]
    fn geometric_history_lengths() {
        let g = TaggedGeometry::figure_5a();
        assert_eq!(g.num_tagged, 6);
        assert_eq!(g.hist_len[..6], [2, 4, 8, 16, 32, 64]);
        assert_eq!(g.tag_bits[..6], [13, 14, 15, 16, 16, 16]);
        assert_eq!(g.index_bits(), 10);
        assert_eq!(TaggedGeometry::new(1, 4, 5, 64, 13).hist_len[0], 5);
    }

    /// The slots of `k`, folded from scratch.
    fn direct(g: &TaggedGeometry, k: u64, h: u64, path: u64) -> Slots {
        let b = g.index_bits();
        let mut slots = Slots::default();
        for (c, slot) in slots.0.iter_mut().enumerate().take(g.num_tagged) {
            let (len, bits) = (g.hist_len[c], g.tag_bits(c));
            let f2 = fold_history(h, len, bits.saturating_sub(3).max(2));
            let idx = k ^ (k >> b) ^ fold_history(h, len, b) ^ (path & 0x3f);
            let tag = k ^ (k >> 8) ^ fold_history(h, len, bits) ^ (f2 << 2);
            *slot = ((idx & ((1 << b) - 1)) as u16, (tag & g.tag_mask(c)) as u16);
        }
        slots
    }

    #[test]
    fn fold_memo_matches_direct_folds() {
        let mut g = TaggedGeometry::figure_5a();
        let mut rng = Lfsr::new(99);
        let histories: Vec<u64> = (0..64).map(|_| rng.next_u64()).collect();
        for &h in &histories {
            let (k, path) = (rng.next_u64(), rng.next_u64());
            let want = direct(&g, k, h, path);
            // Twice: the second call is served by the memo.
            assert_eq!(g.slots(k, h, path, 8), want);
            assert_eq!(g.slots(k, h, path, 8), want);
        }
        // A clone carries the memo primed for one history; restoring its
        // tables from a snapshot must leave every other history folded
        // afresh.
        let mut t = components(6);
        let _ = t.slots(1, histories[0], 0, 8);
        let mut restored = t.clone();
        restore_snapshot(&mut restored, &snapshot(&t)).unwrap();
        for &h in &histories {
            let want = direct(restored.geometry(), 7, h, 3);
            assert_eq!(restored.slots(7, h, 3, 8), want);
        }
    }

    #[test]
    fn providers_are_the_two_longest_hits() {
        let mut t = components(4);
        let slots = Slots([
            (1, 10),
            (2, 20),
            (3, 30),
            (4, 40),
            (0, 0),
            (0, 0),
            (0, 0),
            (0, 0),
        ]);
        assert_eq!(t.providers(&slots), (None, None));
        for c in [0, 1, 3] {
            let (i, tag) = slots.get(c);
            t.install(
                c,
                i,
                Entry {
                    valid: true,
                    tag,
                    useful: false,
                },
            );
        }
        assert_eq!(t.providers(&slots), (Some((3, 4)), Some((1, 2))));
        let retagged = Entry { tag: 41, ..t[3][4] };
        t.install(3, 4, retagged);
        assert_eq!(t.providers(&slots), (Some((1, 2)), Some((0, 1))));
    }

    #[test]
    fn victim_is_one_of_the_first_two_candidates() {
        let slots = Slots::default();
        let mut seen = [false; 6];
        let mut rng = Lfsr::new(5);
        for _ in 0..64 {
            let mut t = components(6);
            // Components 1 and 3 are useful; the provider is component 0.
            t.set_useful(1, 0, true);
            t.set_useful(3, 0, true);
            let v = t.victim(&slots, Some((0, 0)), &mut rng).unwrap();
            seen[v] = true;
        }
        assert_eq!(seen, [false, false, true, false, true, false]);
    }

    #[test]
    fn without_candidates_useful_bits_clear_and_no_number_is_drawn() {
        let slots = Slots([(3, 0); MAX_TAGGED]);
        let mut t = components(4);
        for c in 0..4 {
            t.set_useful(c, 3, true);
        }
        let mut rng = Lfsr::new(11);
        let before = snapshot(&rng);
        assert_eq!(t.victim(&slots, Some((1, 3)), &mut rng), None);
        assert_eq!(snapshot(&rng), before, "a random number was drawn");
        let useful: Vec<bool> = (0..4).map(|c| t[c][3].useful).collect();
        assert_eq!(useful, [true, true, false, false]);
        // Nothing above the top component: nothing to clear, nothing drawn.
        assert_eq!(t.victim(&slots, Some((3, 3)), &mut rng), None);
        assert_eq!(snapshot(&rng), before);
    }

    #[test]
    fn slots_write_their_u16_pairs() {
        let mut g = TaggedGeometry::figure_5a();
        let slots = g.slots(0x1234_5678, 0xdead_beef, 0x2a, 8);
        assert_eq!(snapshot(&slots), snapshot(&slots.0));
        assert_eq!(Slots::MIN_BYTES, MAX_TAGGED * 4);
        let mut back = Slots::default();
        restore_snapshot(&mut back, &snapshot(&slots)).unwrap();
        assert_eq!(back, slots);
        // Every u16 index decodes; one outside its table is left to `holds`.
        let t = components(6);
        let mut outside = Slots::default();
        assert!(t.holds(None, &outside));
        outside.0[2].0 = 16;
        restore_snapshot(&mut back, &snapshot(&outside)).unwrap();
        assert!(!t.holds(None, &back));
        assert!(
            !t.holds(Some((6, 0)), &Slots::default()),
            "component past num_tagged"
        );
    }

    /// The provider and alternate by a scan over the entries themselves:
    /// the reference the lane scan must equal.
    fn scan_providers(tables: &[Vec<Entry>], slots: &Slots) -> (Option<Hit>, Option<Hit>) {
        let mut hits = (0..tables.len()).rev().filter_map(|c| {
            let (i, tag) = slots.get(c);
            let e = &tables[c][i];
            (e.valid && e.tag == tag).then_some((c, i))
        });
        (hits.next(), hits.next())
    }

    /// The allocation victim by a scan over the entries, clearing their
    /// useful bits when no candidate exists.
    fn scan_victim(
        tables: &mut [Vec<Entry>],
        slots: &Slots,
        provider: Option<Hit>,
        rng: &mut Lfsr,
    ) -> Option<usize> {
        let start = provider.map_or(0, |(c, _)| c + 1);
        let candidates: Vec<usize> = (start..tables.len())
            .filter(|&c| !tables[c][slots.get(c).0].useful)
            .collect();
        if candidates.is_empty() {
            for (c, t) in tables.iter_mut().enumerate().skip(start) {
                t[slots.get(c).0].useful = false;
            }
            return None;
        }
        Some(candidates[(rng.next_u64() as usize) % candidates.len().min(2)])
    }

    /// Seeded random sequences of installs, useful-bit writes, periodic
    /// resets, victim picks and snapshot→restore cycles, mirrored on plain
    /// entry tables: after every step the entries equal the mirror, every
    /// lane word equals its entry's, and the lane-based provider, alternate
    /// and victim equal the scans over the entries.
    #[test]
    fn lanes_agree_with_a_scan_over_the_entries() {
        const N: usize = 6;
        for seed in 1..=8u64 {
            let mut ops = Lfsr::new(seed);
            let mut t = components(N);
            let mut mirror = vec![vec![Entry::default(); 16]; N];
            // Few indices and tags, so hits, aliasing and full victim sets
            // are common.
            let random_slots = |ops: &mut Lfsr| {
                let mut slots = Slots::default();
                for slot in slots.0.iter_mut().take(N) {
                    let r = ops.next_u64();
                    *slot = ((r % 4) as u16, ((r >> 8) % 4) as u16);
                }
                slots
            };
            let mut alloc_rng = Lfsr::new(seed ^ 0x55);
            for step in 1..=2_000u64 {
                let r = ops.next_u64();
                let (c, i) = ((r >> 8) as usize % N, (r >> 16) as usize % 4);
                match r % 5 {
                    0 => {
                        let e = Entry {
                            valid: r & (1 << 24) != 0,
                            tag: ((r >> 25) % 4) as u16,
                            useful: r & (1 << 28) != 0,
                        };
                        t.install(c, i, e);
                        mirror[c][i] = e;
                    }
                    1 => {
                        let useful = r & (1 << 24) != 0;
                        t.set_useful(c, i, useful);
                        mirror[c][i].useful = useful;
                    }
                    2 => {
                        let slots = random_slots(&mut ops);
                        let (provider, _) = scan_providers(&mirror, &slots);
                        let mut reference_rng = alloc_rng.clone();
                        let want = scan_victim(&mut mirror, &slots, provider, &mut reference_rng);
                        assert_eq!(t.victim(&slots, provider, &mut alloc_rng), want);
                        assert_eq!(snapshot(&alloc_rng), snapshot(&reference_rng));
                    }
                    3 => {
                        let mut back = components(N);
                        restore_snapshot(&mut back, &snapshot(&t)).unwrap();
                        t = back;
                    }
                    _ => {}
                }
                t.reset_useful_if_due(step, 97);
                if step % 97 == 0 {
                    mirror.iter_mut().flatten().for_each(|e| e.useful = false);
                }
                for (c, want) in mirror.iter().enumerate() {
                    assert_eq!(&t[c], want, "seed {seed} step {step}: entries");
                    for (i, e) in want.iter().enumerate() {
                        assert_eq!(t.lanes[t.at(c, i)], lane_of(e), "seed {seed} step {step}");
                    }
                }
                let slots = random_slots(&mut ops);
                assert_eq!(t.providers(&slots), scan_providers(&mirror, &slots));
            }
        }
    }

    #[test]
    fn useful_reset_is_periodic() {
        let mut t = components(2);
        t.set_useful(1, 5, true);
        t.reset_useful_if_due(3, 4);
        assert!(t[1][5].useful);
        t.reset_useful_if_due(8, 4);
        assert!(!t[1][5].useful);
    }

    // VTAGE, D-VTAGE and the stride predictors carry their prediction-time
    // records to retirement as `(SeqNum, record)` pairs in a `SeqQueue`.

    /// The record values of an in-flight queue, oldest first.
    fn values(q: &SeqQueue<(SeqNum, u64)>) -> Vec<u64> {
        q.iter().map(|&(_, v)| v).collect()
    }

    #[test]
    fn inflight_queue_protocol() {
        let mut q = SeqQueue::default();
        for seq in [1, 2, 4, 6, 7] {
            q.push((seq, seq * 10));
        }
        // Retiring 4 drops the untrained 1 and 2, then pops 4's own record.
        assert_eq!(q.retire(4), Some((4, 40)));
        assert_eq!(values(&q), [60, 70]);
        // A squashed µ-op has no record left to retire.
        assert_eq!(q.retire(5), None);
        // A wrong-path pop takes only a matching back.
        assert_eq!(q.take_wrong_path(6), None);
        assert_eq!(q.take_wrong_path(7), Some((7, 70)));
        q.push((8, 80));
        q.push((9, 90));
        q.squash(8, drop);
        assert_eq!(values(&q), [60, 80]);
        q.squash(0, drop);
        assert!(q.is_empty());
    }

    #[test]
    fn restore_rejects_out_of_order_records() {
        let mut q = SeqQueue::default();
        q.push((3, 1u64));
        q.push((4, 2));
        q.push((5, 3));
        let bytes = snapshot(&q);
        let mut back: SeqQueue<(SeqNum, u64)> = SeqQueue::default();
        restore_snapshot(&mut back, &bytes).unwrap();
        assert_eq!(values(&back), [1, 2, 3]);
        // Swapped (3, 5, 4) and duplicated (3, 3, 5) sequence numbers.
        for bad in [[(3, 1), (5, 3), (4, 2)], [(3, 1), (3, 2), (5, 3)]] {
            let bad: VecDeque<(SeqNum, u64)> = bad.into_iter().collect();
            let err = restore_snapshot(&mut back, &snapshot(&bad)).unwrap_err();
            assert!(err.to_string().contains("out of program order"), "{err}");
        }
    }

    #[test]
    fn clamp_stride_sign_extends() {
        assert_eq!(clamp_stride(5, 8), 5);
        assert_eq!(clamp_stride(-5, 8), -5);
        assert_eq!(clamp_stride(i64::MAX, 64), i64::MAX);
        let strides = [127i64, 128, -128, -129, 255, -1, i64::MAX, i64::MIN];
        let c8 = strides.map(|s| clamp_stride(s, 8));
        assert_eq!(c8, [127, -128, -128, 127, -1, -1, -1, 0]);
        assert_eq!(strides.map(|s| clamp_stride(s, 64)), strides);
    }
}
