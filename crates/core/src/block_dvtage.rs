//! Block-based D-VTAGE with the BeBoP access scheme — the paper's contribution.
//!
//! One predictor entry is associated with a 16-byte *fetch block* and holds `Npred`
//! prediction slots. The Last Value Table (LVT) holds the retired last values plus
//! per-slot byte-index tags used to attribute predictions to µ-ops after decode;
//! the base component VT0 and the six partially tagged components hold (partial)
//! strides with forward-probabilistic confidence. In-flight last values come from
//! the block-based [`SpeculativeWindow`], and the FIFO update queue (a
//! [`SeqQueue`] of block records keyed by each block's first µ-op) carries every
//! in-flight prediction block until retirement so the tables can be trained.
//!
//! # Hot-path layout
//!
//! This predictor runs once per fetch block inside the simulator's per-µop inner
//! loop, so the implementation is allocation-free in steady state:
//!
//! * prediction slots live in fixed `[_; MAX_NPRED]` arrays (`Npred <= 8` covers
//!   every configuration in the paper), making blocks plain `Copy` data;
//! * the tagged components are the shared [`TaggedComponents`] core of
//!   VTAGE and D-VTAGE: history lengths and tag widths are precomputed at
//!   construction and the history folds are memoised, so the probe is a
//!   straight masked pass with no `powf`/divisions;
//! * retired FIFO update-queue records are recycled through a scratch pool
//!   instead of being reallocated per block instance;
//! * the in-flight records are narrow: a block record holds its LVT index as
//!   `u32`, its provider as a component byte plus a `u16` index, its tagged
//!   slots as `u16` indices, its slot tags as bytes (`NO_TAG` for none) and
//!   its predictions as dense lanes plus a presence mask (about 224 B, down
//!   from 408 B);
//! * the current block holds only its cursor, flags and confidence mask and
//!   reads slot tags and predictions from the newest FIFO record, which is
//!   always its own.
//!
//! Checkpoints keep the layout these records had before they were narrowed:
//! the hand-written `Snap` impls widen on save and check the narrowed
//! ranges on restore.

use crate::recovery::RecoveryPolicy;
use crate::slot_simd;
use crate::spec_window::{SlotPredictions, SpecWindowSize, SpeculativeWindow, MAX_NPRED};
use bebop_isa::{
    byte_index_in_block, ensure, fetch_block_pc, snap, snapshot, DynUop, SeqNum, SeqQueue, Snap,
    StateError, StateReader, StateResult, StateWriter, VarVec,
};
use bebop_uarch::{restore_predictor, PredictCtx, SharingPolicy, SquashInfo, ValuePredictor};
use bebop_vp::{
    clamp_stride, tag_width, tagged_entry, ForwardProbabilisticCounter, FpcParams, Hit, Lfsr,
    ShardCounters, ShardedTable, Slots, TaggedComponents, TaggedGeometry, MAX_TAGGED,
};

/// The second block-number shift of BeBoP's tag hash.
const TAG_SHIFT: u32 = 7;

/// The slot tag of a prediction slot with no byte index. Byte indices are
/// below `fetch_block_bytes` (at most 128), so this exceeds all of them.
const NO_TAG: u8 = 0xFF;

/// The provider component byte of a block record VT0 provided.
const VT0_PROVIDER: u8 = 0xFF;

/// Configuration of a block-based D-VTAGE predictor.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockDVtageConfig {
    /// Number of prediction slots per entry (`Npred`: 4, 6 or 8 in Figure 6a).
    pub npred: usize,
    /// Entries of the base component (LVT + VT0).
    pub base_entries: usize,
    /// LVT tag width in bits (5 in the paper).
    pub lvt_tag_bits: u32,
    /// Number of partially tagged components (6).
    pub num_tagged: usize,
    /// Entries of each tagged component (128 or 256).
    pub tagged_entries: usize,
    /// Tag width of the first tagged component (13; grows by one per component).
    pub first_tag_bits: u32,
    /// Shortest global-history length (2).
    pub min_history: usize,
    /// Longest global-history length (64).
    pub max_history: usize,
    /// Stride width in bits (8, 16, 32 or 64; partial strides shrink storage).
    pub stride_bits: u32,
    /// Speculative window size.
    pub spec_window: SpecWindowSize,
    /// Speculative-window partial tag width (15).
    pub spec_window_tag_bits: u32,
    /// Recovery policy for same-block flushes.
    pub recovery: RecoveryPolicy,
    /// Forward-probabilistic-counter parameters.
    pub fpc: FpcParams,
    /// Fetch block size in bytes (16).
    pub fetch_block_bytes: u64,
    /// Period, in block updates, of the useful-bit reset.
    pub useful_reset_period: u64,
    /// Power-of-two shard count the LVT/VT0/tagged arrays are split into
    /// (1 = the monolithic layout). Sharding is a bijective re-layout of the
    /// same entry space, so under [`SharingPolicy::Shared`] the predictor's
    /// behaviour is bit-identical for every shard count; it buys cache-local
    /// per-shard allocations for large geometries, per-shard
    /// occupancy/steal observability, and the shard-aligned partitions the
    /// partitioned sharing policy confines each context to.
    pub shards: usize,
    /// How predictor storage is divided between the contexts of a
    /// multi-programmed trace. Irrelevant (all policies identical) while
    /// every µ-op carries ASID 0.
    pub sharing: SharingPolicy,
    /// Number of contexts the storage is partitioned between under
    /// [`SharingPolicy::Partitioned`] (power of two, at most `shards` so each
    /// context owns whole shards). Ignored by the other policies.
    pub contexts: usize,
}

impl Default for BlockDVtageConfig {
    fn default() -> Self {
        // The "optimistic" configuration used for the sensitivity studies:
        // 6 predictions per entry, 2K-entry base, six 256-entry tagged components,
        // 64-bit strides, infinite speculative window, DnRDnR recovery.
        BlockDVtageConfig {
            npred: 6,
            base_entries: 2048,
            lvt_tag_bits: 5,
            num_tagged: 6,
            tagged_entries: 256,
            first_tag_bits: 13,
            min_history: 2,
            max_history: 64,
            stride_bits: 64,
            spec_window: SpecWindowSize::Unbounded,
            spec_window_tag_bits: 15,
            recovery: RecoveryPolicy::DnRDnR,
            fpc: FpcParams::paper_default(),
            fetch_block_bytes: 16,
            useful_reset_period: 128 * 1024,
            shards: 1,
            sharing: SharingPolicy::Shared,
            contexts: 1,
        }
    }
}

impl BlockDVtageConfig {
    /// Storage of the predictor in bits, using the same per-field accounting as
    /// Table III (LVT values + byte tags + block tag, VT0/tagged strides +
    /// 3-bit confidence + tags + useful bit, speculative window values + tags).
    pub fn storage_bits(&self) -> u64 {
        let byte_tag_bits = u64::from(self.fetch_block_bytes.trailing_zeros()); // log2(16) = 4
        let np = self.npred as u64;
        let lvt_entry = u64::from(self.lvt_tag_bits) + np * (64 + byte_tag_bits);
        let vt0_entry = np * (u64::from(self.stride_bits) + 3);
        let base = self.base_entries as u64 * (lvt_entry + vt0_entry);
        let mut tagged = 0u64;
        for c in 0..self.num_tagged {
            let tag_bits = tag_width(self.first_tag_bits, c);
            let entry = u64::from(tag_bits) + 1 + np * (u64::from(self.stride_bits) + 3);
            tagged += self.tagged_entries as u64 * entry;
        }
        let window = self.spec_window.entries_for_storage() as u64
            * (u64::from(self.spec_window_tag_bits) + np * 64);
        base + tagged + window
    }

    /// Storage in kilobytes.
    pub fn storage_kb(&self) -> f64 {
        self.storage_bits() as f64 / 8.0 / 1024.0
    }
}

/// Last-value-table entry, slots stored structure-of-arrays: the byte-tag and
/// last-value lanes are read/written as whole arrays by the vectorised block
/// paths, and slot validity is a bitmask so "which slots participate" composes
/// with the lane masks produced by [`slot_simd`].
#[derive(Debug, Clone, Copy)]
struct LvtEntry {
    valid: bool,
    tag: u16,
    /// Bit `i` set when slot `i` holds a retired value.
    slot_valid: u8,
    byte_tags: [u8; MAX_NPRED],
    lasts: [u64; MAX_NPRED],
}

impl LvtEntry {
    fn reset_slots(&mut self) {
        self.slot_valid = 0;
        self.byte_tags = [0; MAX_NPRED];
        self.lasts = [0; MAX_NPRED];
    }
}

/// The per-slot stride/confidence payload of a VT0 or tagged entry, stored
/// structure-of-arrays so the per-slot stride add/compare runs as flat lanes.
#[derive(Debug, Clone, Copy)]
struct SlotStrides {
    strides: [i64; MAX_NPRED],
    conf: [ForwardProbabilisticCounter; MAX_NPRED],
}

impl SlotStrides {
    fn cleared() -> Self {
        SlotStrides {
            strides: [0; MAX_NPRED],
            conf: [ForwardProbabilisticCounter::new(); MAX_NPRED],
        }
    }

    fn conf_levels(&self) -> [u8; MAX_NPRED] {
        let mut out = [0u8; MAX_NPRED];
        for (o, c) in out.iter_mut().zip(&self.conf) {
            *o = c.level();
        }
        out
    }
}

#[derive(Debug, Clone, Copy)]
struct Vt0Entry {
    slots: SlotStrides,
}

#[derive(Debug, Clone, Copy)]
struct TaggedEntry {
    valid: bool,
    tag: u16,
    useful: bool,
    slots: SlotStrides,
}

/// The prediction block currently being attributed to fetched µ-ops. Its
/// slot tags and predictions are those of the newest FIFO record, which is
/// always its own: retirement pops the front only while a younger record
/// follows, and a flush that keeps the block keeps its record.
#[derive(Debug, Clone, Copy, Default)]
struct CurrentBlock {
    block_pc: u64,
    first_seq: SeqNum,
    /// Context the block was predicted for (same-block squash recovery must
    /// not cross contexts of a multi-programmed trace).
    asid: u8,
    cursor: u8,
    /// DnRDnR: predictions of this (re-fetched) block may not be consumed.
    forbid_use: bool,
    /// Bit `i` set when slot `i`'s provider confidence is saturated.
    conf_mask: u8,
}

/// The in-flight record pushed on the FIFO update queue for one block instance.
#[derive(Debug, Clone)]
struct BlockRecord {
    lvt_index: u32,
    lvt_tag: u16,
    /// Context that fetched the block (ownership accounting at update time).
    asid: u8,
    /// The providing tagged component, or [`VT0_PROVIDER`].
    provider_comp: u8,
    provider_idx: u16,
    /// Per tagged component, the (index, tag) computed at prediction time.
    alloc_slots: Slots,
    /// Per slot, the byte index it predicts for, or [`NO_TAG`].
    slot_tags: [u8; MAX_NPRED],
    provider_conf_levels: [u8; MAX_NPRED],
    slot_pred: SlotPredictions,
    provider_strides: [i64; MAX_NPRED],
    /// Retired (byte index, actual value) pairs accumulated for this block.
    results: VarVec<(u8, u64)>,
}

impl Default for BlockRecord {
    fn default() -> Self {
        BlockRecord {
            lvt_index: 0,
            lvt_tag: 0,
            asid: 0,
            provider_comp: VT0_PROVIDER,
            provider_idx: 0,
            alloc_slots: Slots::default(),
            slot_tags: [NO_TAG; MAX_NPRED],
            provider_conf_levels: [0; MAX_NPRED],
            slot_pred: SlotPredictions::NONE,
            provider_strides: [0; MAX_NPRED],
            results: VarVec(Vec::with_capacity(MAX_NPRED)),
        }
    }
}

impl BlockRecord {
    fn lvt_slot(&self) -> usize {
        // CAST: u32 always fits usize on the 32/64-bit targets we build for.
        self.lvt_index as usize
    }

    fn provider(&self) -> Option<Hit> {
        (self.provider_comp != VT0_PROVIDER).then(|| {
            (
                usize::from(self.provider_comp),
                usize::from(self.provider_idx),
            )
        })
    }

    fn set_provider(&mut self, provider: Option<Hit>) {
        // CAST: components are below MAX_TAGGED and indices below 2^16
        // (`TaggedGeometry` bounds both).
        (self.provider_comp, self.provider_idx) = match provider {
            Some((c, i)) => (c as u8, i as u16),
            None => (VT0_PROVIDER, 0),
        };
    }

    /// The slot tags as the `Option<u8>`s the checkpoint layout holds.
    fn tag_options(&self) -> [Option<u8>; MAX_NPRED] {
        self.slot_tags.map(|t| (t != NO_TAG).then_some(t))
    }
}

/// Decodes a checkpointed `[Option<u8>; MAX_NPRED]` into [`NO_TAG`] form.
fn restore_slot_tags(r: &mut StateReader<'_>) -> StateResult<[u8; MAX_NPRED]> {
    let mut tags = [None::<u8>; MAX_NPRED];
    tags.restore(r)?;
    ensure(
        !tags.contains(&Some(NO_TAG)),
        "slot byte tag outside the fetch block",
    )?;
    Ok(tags.map(|t| t.unwrap_or(NO_TAG)))
}

/// Block-based D-VTAGE with BeBoP.
#[derive(Debug, Clone)]
pub struct BlockDVtage {
    cfg: BlockDVtageConfig,
    lvt: ShardedTable<LvtEntry>,
    vt0: ShardedTable<Vt0Entry>,
    tagged: TaggedComponents<ShardedTable<TaggedEntry>>,
    window: SpeculativeWindow,
    fifo: SeqQueue<(SeqNum, BlockRecord)>,
    /// Retired/squashed records recycled to keep the hot loop allocation-free.
    record_pool: Vec<BlockRecord>,
    current: Option<CurrentBlock>,
    force_new_block: bool,
    /// Highest µ-op sequence number seen at retirement (drives eager application of
    /// completed block records).
    last_retired: Option<SeqNum>,
    rng: Lfsr,
    updates: u64,
    window_hits: u64,
    window_lookups: u64,
}

impl BlockDVtage {
    /// Creates a block-based D-VTAGE predictor.
    ///
    /// # Panics
    ///
    /// Panics if `npred` or `num_tagged` is zero, if `npred > MAX_NPRED`, or if
    /// `num_tagged > MAX_TAGGED`; if `base_entries` or `tagged_entries` is not a
    /// power of two; if `useful_reset_period` is zero; if `shards` is not a
    /// power of two dividing both `base_entries` and `tagged_entries`; or if a
    /// partitioned configuration's `contexts` is not a power of two of at most
    /// `shards` (each context must own whole shards).
    pub fn new(cfg: BlockDVtageConfig) -> Self {
        assert!(cfg.npred > 0 && cfg.num_tagged > 0);
        assert!(
            cfg.base_entries.is_power_of_two() && cfg.tagged_entries.is_power_of_two(),
            "base ({}) and tagged ({}) entry counts must be powers of two",
            cfg.base_entries,
            cfg.tagged_entries
        );
        assert!(
            cfg.useful_reset_period > 0,
            "useful_reset_period must be > 0"
        );
        assert!(
            cfg.npred <= MAX_NPRED,
            "npred {} exceeds MAX_NPRED {MAX_NPRED}",
            cfg.npred
        );
        if cfg.sharing == SharingPolicy::Partitioned {
            assert!(
                cfg.contexts.is_power_of_two() && cfg.contexts <= cfg.shards,
                "partitioned sharing needs a power-of-two context count ({}) of at most the \
                 shard count ({}) so every context owns whole shards",
                cfg.contexts,
                cfg.shards
            );
        }
        // `asid` folds into u8 ownership accounting; the top value is reserved.
        assert!(cfg.contexts < 255, "at most 254 contexts are supported");
        // Block records hold LVT indices as u32 and byte indices as u8 with
        // NO_TAG free.
        assert!(
            cfg.base_entries <= 1 << 32,
            "at most 2^32 base entries are supported"
        );
        assert!(
            cfg.fetch_block_bytes.is_power_of_two() && cfg.fetch_block_bytes <= 128,
            "fetch blocks are a power of two of at most 128 bytes"
        );
        let lvt_entry = LvtEntry {
            valid: false,
            tag: 0,
            slot_valid: 0,
            byte_tags: [0; MAX_NPRED],
            lasts: [0; MAX_NPRED],
        };
        let vt0_entry = Vt0Entry {
            slots: SlotStrides::cleared(),
        };
        let tagged_entry = TaggedEntry {
            valid: false,
            tag: 0,
            useful: false,
            slots: SlotStrides::cleared(),
        };
        let geometry = TaggedGeometry::new(
            cfg.num_tagged,
            cfg.tagged_entries.trailing_zeros(),
            cfg.min_history,
            cfg.max_history,
            cfg.first_tag_bits,
        );
        let table = ShardedTable::new(tagged_entry, cfg.tagged_entries, cfg.shards);
        BlockDVtage {
            lvt: ShardedTable::new(lvt_entry, cfg.base_entries, cfg.shards),
            vt0: ShardedTable::new(vt0_entry, cfg.base_entries, cfg.shards),
            tagged: TaggedComponents::new(geometry, table),
            window: SpeculativeWindow::new(cfg.spec_window, cfg.spec_window_tag_bits),
            fifo: SeqQueue::default(),
            record_pool: Vec::new(),
            current: None,
            force_new_block: false,
            last_retired: None,
            rng: Lfsr::from_state(0xb10c_b10c_b10c_b10c),
            updates: 0,
            window_hits: 0,
            window_lookups: 0,
            cfg,
        }
    }

    /// The predictor's configuration.
    pub fn config(&self) -> &BlockDVtageConfig {
        &self.cfg
    }

    /// Fraction of block predictions whose last values were served by the
    /// speculative window (diagnostic).
    pub fn window_hit_rate(&self) -> f64 {
        if self.window_lookups == 0 {
            0.0
        } else {
            self.window_hits as f64 / self.window_lookups as f64
        }
    }

    /// Per-shard occupancy/steal counters of the Last Value Table — the
    /// primary cross-context interference signal of a multi-programmed run.
    pub fn lvt_shard_counters(&self) -> ShardCounters {
        self.lvt.counters()
    }

    /// Total cross-context entry steals across the LVT, VT0 and every tagged
    /// component (0 for single-context runs, and structurally 0 under
    /// [`SharingPolicy::Partitioned`]).
    pub fn total_steals(&self) -> u64 {
        self.lvt.total_steals()
            + self.vt0.total_steals()
            + self.tagged.iter().map(|t| t.total_steals()).sum::<u64>()
    }

    /// Confines a full-table index to the partition owned by `asid` under
    /// [`SharingPolicy::Partitioned`]; the identity under every other policy
    /// (and always for context 0 of a partitioned pair-free run, since
    /// partition 0 starts at slot 0 only when the index already fits — the
    /// remap is still applied so a single-context partitioned run uses a
    /// smaller effective table, by design).
    fn confine(&self, raw: u64, entries: usize, asid: u8) -> usize {
        if self.cfg.sharing == SharingPolicy::Partitioned && self.cfg.contexts > 1 {
            let contexts = self.cfg.contexts as u64;
            let part = entries as u64 / contexts;
            let c = u64::from(asid) % contexts;
            (c * part + raw % part) as usize
        } else {
            raw as usize
        }
    }

    /// The ASID fold XORed into entry tags under [`SharingPolicy::Tagged`]
    /// (zero — the identity — for every other policy and always for ASID 0,
    /// which is what keeps single-context runs bit-identical across policies).
    fn asid_fold(&self, asid: u8, mask: u64) -> u16 {
        if self.cfg.sharing == SharingPolicy::Tagged {
            (u64::from(asid).wrapping_mul(0x9E37_79B9) & mask) as u16
        } else {
            0
        }
    }

    /// The speculative-window key of a block: the raw block PC under
    /// [`SharingPolicy::Shared`] (contexts alias, the stress scenario), the
    /// block PC folded with the ASID otherwise (per-context in-flight state).
    fn window_key(&self, block_pc: u64, asid: u8) -> u64 {
        match self.cfg.sharing {
            SharingPolicy::Shared => block_pc,
            _ => block_pc ^ (u64::from(asid) << 52),
        }
    }

    /// Applies every block record whose µ-ops have all retired (the following
    /// block's first µ-op is at or below the retirement frontier) and prunes the
    /// speculative window down to genuinely in-flight blocks.
    fn drain_completed(&mut self) {
        let Some(retired) = self.last_retired else {
            return;
        };
        while self
            .fifo
            .second_seq()
            .is_some_and(|next| next <= retired + 1)
        {
            if let Some((_, rec)) = self.fifo.pop_front() {
                self.apply_update(rec);
            }
        }
        let horizon = self.fifo.front().map_or(retired + 1, |&(s, _)| s);
        self.window.prune_retired(horizon);
    }

    fn block_number(&self, block_pc: u64) -> u64 {
        block_pc >> self.cfg.fetch_block_bytes.trailing_zeros()
    }

    fn lvt_index(&self, block_pc: u64, asid: u8) -> usize {
        let raw = self.block_number(block_pc) & (self.cfg.base_entries as u64 - 1);
        self.confine(raw, self.cfg.base_entries, asid)
    }

    fn lvt_tag(&self, block_pc: u64, asid: u8) -> u16 {
        let mask = (1u64 << self.cfg.lvt_tag_bits) - 1;
        let above_index = self.block_number(block_pc) >> self.cfg.base_entries.trailing_zeros();
        // CAST: masked to the LVT tag width (≤ 16 bits).
        (above_index & mask) as u16 ^ self.asid_fold(asid, mask)
    }

    /// The `(index, tag)` of every tagged component for a block, confined to
    /// the context's partition and folded with its ASID.
    fn tagged_slots(&mut self, block_pc: u64, ctx: &PredictCtx) -> Slots {
        let bn = self.block_number(block_pc);
        let (ghist, path) = (ctx.global_history, ctx.path_history);
        let mut slots = self.tagged.slots(bn, ghist, path, TAG_SHIFT);
        let geometry = self.tagged.geometry();
        for (c, (idx, tag)) in slots.0.iter_mut().enumerate().take(self.cfg.num_tagged) {
            // CAST: confined below tagged_entries, at most 2^16.
            *idx = self.confine(u64::from(*idx), self.cfg.tagged_entries, ctx.asid) as u16;
            *tag ^= self.asid_fold(ctx.asid, geometry.tag_mask(c));
        }
        slots
    }

    /// Begins a new prediction-block instance for the fetch block at `block_pc`.
    fn start_block(&mut self, ctx: &PredictCtx, block_pc: u64, first_seq: SeqNum) {
        let np = self.cfg.npred;
        let asid = ctx.asid;
        let lvt_index = self.lvt_index(block_pc, asid);
        let lvt_tag = self.lvt_tag(block_pc, asid);

        // Tagged component lookup: one index/tag pass over the components,
        // then a highest-component-wins probe.
        let alloc_slots = self.tagged_slots(block_pc, ctx);
        let (provider, _) = self.tagged.providers(&alloc_slots);

        let lvt = self.lvt.get(lvt_index);
        let lvt_hit = lvt.valid && lvt.tag == lvt_tag;

        // Last values: the speculative window takes precedence over the retired LVT.
        self.window_lookups += 1;
        let wkey = self.window_key(block_pc, asid);
        let win_values = self.window.lookup(wkey).map(|e| e.values);
        if win_values.is_some() {
            self.window_hits += 1;
        }

        // Provider slot payload as flat lanes: one array copy instead of a
        // per-slot provider match.
        let provider_slots = match provider {
            Some((c, idx)) => self.tagged[c].get(idx).slots,
            None => self.vt0.get(lvt_index).slots,
        };
        let provider_strides = provider_slots.strides;
        let provider_conf_levels = provider_slots.conf_levels();
        let confident = slot_simd::confident_mask(&provider_conf_levels, self.cfg.fpc.max_level());

        // Last values: speculative-window lanes take precedence over the
        // retired LVT lanes, then the vectorised stride add produces every
        // slot's prediction at once (truncate each stride lane to the partial
        // width, add onto the last-value lanes).
        let mut lasts = lvt.lasts;
        if let Some(win) = win_values {
            for (i, last) in lasts.iter_mut().enumerate() {
                if win.mask() & (1 << i) != 0 {
                    *last = win.values()[i];
                }
            }
        }
        let clamped = provider_strides.map(|s| clamp_stride(s, self.cfg.stride_bits));
        let preds = slot_simd::add_strides(&lasts, &clamped);

        // CAST: npred <= 8, so the slot mask fits a byte.
        let np_mask = ((1u16 << np) - 1) as u8;
        let present = if lvt_hit { lvt.slot_valid & np_mask } else { 0 };
        let slot_pred = SlotPredictions::masked(&preds, present);
        let mut slot_tags = [NO_TAG; MAX_NPRED];
        for (i, tag) in slot_tags.iter_mut().enumerate() {
            if present & (1 << i) != 0 {
                *tag = lvt.byte_tags[i];
            }
        }

        // Push the prediction block into the speculative window and the FIFO queue,
        // reusing a pooled record so steady state allocates nothing.
        self.window.push(wkey, first_seq, slot_pred);
        let mut rec = self.record_pool.pop().unwrap_or_default();
        // CAST: below base_entries, at most 2^32 (checked at construction).
        rec.lvt_index = lvt_index as u32;
        rec.lvt_tag = lvt_tag;
        rec.asid = asid;
        rec.set_provider(provider);
        rec.alloc_slots = alloc_slots;
        rec.slot_tags = slot_tags;
        rec.slot_pred = slot_pred;
        rec.provider_conf_levels = provider_conf_levels;
        rec.provider_strides = provider_strides;
        debug_assert!(rec.results.is_empty());
        self.fifo.push((first_seq, rec));
        self.current = Some(CurrentBlock {
            block_pc,
            first_seq,
            asid,
            cursor: 0,
            forbid_use: false,
            conf_mask: confident & np_mask,
        });
        self.force_new_block = false;
    }

    /// Applies the retirement update of one block record to the tables and
    /// recycles the record's storage.
    fn apply_update(&mut self, mut rec: BlockRecord) {
        self.updates += 1;
        let np = self.cfg.npred;
        let fpc = &self.cfg.fpc;

        // ---- Attribute retired results to slots --------------------------------
        // Results whose byte index matches a slot tag go to that slot; the rest may
        // claim an unused slot or one with a *greater* byte tag (a greater tag never
        // replaces a lesser one, so entries learn the earliest entry point).
        let mut consumed = [false; MAX_NPRED];
        let mut assignments = [(0usize, 0u8, 0u64); MAX_NPRED];
        let mut num_assigned = 0usize;
        let mut cursor = 0usize;
        for &(b, actual) in rec.results.iter() {
            if let Some(i) = (cursor..np).find(|&i| !consumed[i] && rec.slot_tags[i] == b) {
                consumed[i] = true;
                cursor = i + 1;
                assignments[num_assigned] = (i, b, actual);
                num_assigned += 1;
            } else if let Some(i) = (0..np).find(|&i| {
                // An untagged slot's NO_TAG exceeds every byte index.
                !consumed[i] && rec.slot_tags[i] > b
            }) {
                consumed[i] = true;
                assignments[num_assigned] = (i, b, actual);
                num_assigned += 1;
            }
            // else: more results than Npred slots — dropped (coverage loss).
        }
        if num_assigned == 0 {
            rec.results.clear();
            self.record_pool.push(rec);
            return;
        }

        // ---- LVT: retire last values, learn byte tags -----------------------------
        let lvt_index = rec.lvt_slot();
        let lvt_matched;
        {
            let e = self.lvt.get_mut(lvt_index);
            lvt_matched = e.valid && e.tag == rec.lvt_tag;
            if !lvt_matched {
                e.valid = true;
                e.tag = rec.lvt_tag;
                e.reset_slots();
            }
        }
        // Ownership accounting (side-band, never affects prediction): the
        // retiring context claims — or steals — this LVT entry.
        self.lvt.note_write(lvt_index, rec.asid);

        // Dense actual-value lanes for the vectorised compare / stride diff.
        let mut actuals = [0u64; MAX_NPRED];
        let mut assigned_mask = 0u8;
        for &(i, _, actual) in &assignments[..num_assigned] {
            actuals[i] = actual;
            assigned_mask |= 1 << i;
        }
        let (prev_lasts, prev_valid) = {
            let e = self.lvt.get(lvt_index);
            (e.lasts, if lvt_matched { e.slot_valid } else { 0 })
        };
        // Vectorised slot compare: which assigned slots' block predictions
        // matched the retired values.
        let pred_mask = rec.slot_pred.mask();
        let correct_mask =
            slot_simd::eq_mask(rec.slot_pred.values(), &actuals) & pred_mask & assigned_mask;
        // Vectorised stride observation: actual minus previous last value,
        // truncated to the configured partial width, over all lanes at once.
        let diffs = slot_simd::sub_lanes(&actuals, &prev_lasts);
        let clamped_diffs = diffs.map(|s| clamp_stride(s, self.cfg.stride_bits));

        // Scalar tail: learn byte tags and write back last values per slot.
        // Per assigned slot: (slot index, observed stride, correctness).
        let mut observed = [(0usize, None::<i64>, false); MAX_NPRED];
        for (&(i, b, actual), obs) in assignments[..num_assigned].iter().zip(observed.iter_mut()) {
            let e = self.lvt.get_mut(lvt_index);
            let bit = 1u8 << i;
            if e.slot_valid & bit == 0 {
                e.slot_valid |= bit;
                e.byte_tags[i] = b;
            } else if b < e.byte_tags[i] {
                // A lesser byte index may replace a greater one, never the opposite.
                e.byte_tags[i] = b;
            }
            e.lasts[i] = actual;
            let stride = (prev_valid & bit != 0).then(|| clamped_diffs[i]);
            *obs = (i, stride, correct_mask & bit != 0);
        }
        let observed = &observed[..num_assigned];

        let any_wrong = observed
            .iter()
            .any(|&(i, _, correct)| !correct && pred_mask & (1 << i) != 0);
        let any_correct = observed.iter().any(|(_, _, c)| *c);

        // ---- Update the providing component -----------------------------------------
        let mut entropy = [0u64; MAX_NPRED];
        for e in entropy.iter_mut().take(num_assigned) {
            *e = self.rng.next_u64();
        }
        match rec.provider() {
            Some((c, idx)) => {
                let (_, expected_tag) = rec.alloc_slots.get(c);
                let e = self.tagged[c].get_mut(idx);
                if e.valid && e.tag == expected_tag {
                    for (&(i, stride, correct), &r) in observed.iter().zip(&entropy) {
                        if correct {
                            e.slots.conf[i].on_correct_with(fpc, r);
                        } else {
                            e.slots.conf[i].on_wrong();
                            if let Some(s) = stride {
                                e.slots.strides[i] = s;
                            }
                        }
                    }
                    e.useful = any_correct && !any_wrong;
                    self.tagged[c].note_write(idx, rec.asid);
                }
            }
            None => {
                let e = self.vt0.get_mut(lvt_index);
                for (&(i, stride, correct), &r) in observed.iter().zip(&entropy) {
                    if correct {
                        e.slots.conf[i].on_correct_with(fpc, r);
                    } else {
                        e.slots.conf[i].on_wrong();
                        if let Some(s) = stride {
                            e.slots.strides[i] = s;
                        }
                    }
                }
                self.vt0.note_write(lvt_index, rec.asid);
            }
        }

        // ---- Allocation: on any wrong prediction, allocate a longer-history entry,
        //      propagating the confidence of correct slots (the paper's block policy).
        if any_wrong {
            if let Some(comp) = self
                .tagged
                .victim(&rec.alloc_slots, rec.provider(), &mut self.rng)
            {
                let (idx, tag) = rec.alloc_slots.get(comp);
                let mut slots = SlotStrides::cleared();
                for i in 0..np {
                    // Default: inherit the provider's stride and confidence.
                    slots.strides[i] = rec.provider_strides[i];
                    slots.conf[i].set_level(rec.provider_conf_levels[i], fpc);
                }
                for &(i, stride, correct) in observed {
                    if !correct {
                        slots.strides[i] = stride.unwrap_or(0);
                        slots.conf[i] = ForwardProbabilisticCounter::new();
                    }
                }
                *self.tagged[comp].get_mut(idx) = TaggedEntry {
                    valid: true,
                    tag,
                    useful: false,
                    slots,
                };
                self.tagged[comp].note_write(idx, rec.asid);
            }
        }
        self.tagged
            .reset_useful_if_due(self.updates, self.cfg.useful_reset_period);

        rec.results.clear();
        self.record_pool.push(rec);
    }

    /// Clamps restored confidence levels to the configured saturation,
    /// rejects byte tags outside the fetch block and in-flight block records
    /// indexing outside the tables, and drops recycled records (they hold no
    /// state).
    fn check_restored(&mut self) -> StateResult<()> {
        let fpc = &self.cfg.fpc;
        let vt0 = self.vt0.iter_mut().map(|e| &mut e.slots);
        let tagged = self
            .tagged
            .iter_mut()
            .flat_map(|t| t.iter_mut().map(|e| &mut e.slots));
        for c in vt0.chain(tagged).flat_map(|s| s.conf.iter_mut()) {
            c.set_level(c.level(), fpc);
        }
        let in_block = |b: u8| u64::from(b) < self.cfg.fetch_block_bytes;
        ensure(
            self.lvt
                .iter_mut()
                .all(|e| e.byte_tags.iter().all(|&b| in_block(b))),
            "LVT byte tag outside the fetch block",
        )?;
        for (_, rec) in self.fifo.iter() {
            ensure(
                rec.lvt_slot() < self.cfg.base_entries
                    && self.tagged.holds(rec.provider(), &rec.alloc_slots),
                "block record indexes outside the tables",
            )?;
            ensure(
                rec.slot_tags.iter().all(|&t| t == NO_TAG || in_block(t))
                    && rec.results.iter().all(|&(b, _)| in_block(b)),
                "block record byte tag outside the fetch block",
            )?;
        }
        self.record_pool.clear();
        Ok(())
    }

    /// Writes `current` in its pre-narrowing layout: the slot tags and
    /// predictions come from its record, the newest in the FIFO.
    fn save_current(&self, w: &mut StateWriter) {
        w.bool(self.current.is_some());
        let (Some(cur), Some((_, rec))) = (&self.current, self.fifo.back()) else {
            return;
        };
        w.u64(cur.block_pc);
        w.u8(cur.asid);
        w.u64(cur.first_seq);
        w.u64(u64::from(cur.cursor));
        w.bool(cur.forbid_use);
        rec.tag_options().save(w);
        rec.slot_pred.save(w);
        for i in 0..MAX_NPRED {
            w.bool(cur.conf_mask & (1 << i) != 0);
        }
    }

    /// Reads what [`Self::save_current`] wrote; runs after the FIFO is
    /// restored, and rejects a block whose slots are not its record's.
    fn restore_current(&mut self, r: &mut StateReader<'_>) -> StateResult<()> {
        if !r.bool()? {
            self.current = None;
            return Ok(());
        }
        let block_pc = r.u64()?;
        let asid = r.u8()?;
        let first_seq = r.u64()?;
        let cursor = r.u64()?;
        let forbid_use = r.bool()?;
        let slot_tags = restore_slot_tags(r)?;
        let mut slot_pred = SlotPredictions::NONE;
        slot_pred.restore(r)?;
        let mut conf = [false; MAX_NPRED];
        conf.restore(r)?;
        ensure(
            cursor <= MAX_NPRED as u64,
            "current block cursor out of range",
        )?;
        ensure(
            self.fifo.back().is_some_and(|(seq, rec)| {
                *seq == first_seq && rec.slot_tags == slot_tags && rec.slot_pred == slot_pred
            }),
            "current block is not the newest block record",
        )?;
        let mut conf_mask = 0u8;
        for (i, &c) in conf.iter().enumerate() {
            conf_mask |= u8::from(c) << i;
        }
        self.current = Some(CurrentBlock {
            block_pc,
            first_seq,
            asid,
            // CAST: at most MAX_NPRED (checked above).
            cursor: cursor as u8,
            forbid_use,
            conf_mask,
        });
        Ok(())
    }
}

snap!(LvtEntry {
    valid: bool,
    tag: u16,
    slot_valid: u8,
    byte_tags: [u8; MAX_NPRED],
    lasts: [u64; MAX_NPRED],
});
snap!(SlotStrides {
    strides: [i64; MAX_NPRED],
    conf: [ForwardProbabilisticCounter; MAX_NPRED],
});
snap!(Vt0Entry { slots: SlotStrides });
snap!(TaggedEntry {
    valid: bool,
    tag: u16,
    useful: bool,
    slots: SlotStrides,
});
tagged_entry!(TaggedEntry);

/// The pre-narrowing layout: the LVT index as `u64`, the provider as
/// `Option<(usize, usize)>`, the slot tags as `[Option<u8>; MAX_NPRED]`.
impl Snap for BlockRecord {
    const MIN_BYTES: usize = 8
        + 2
        + 1
        + <Option<Hit>>::MIN_BYTES
        + Slots::MIN_BYTES
        + <[Option<u8>; MAX_NPRED]>::MIN_BYTES
        + SlotPredictions::MIN_BYTES
        + <[u8; MAX_NPRED]>::MIN_BYTES
        + <[i64; MAX_NPRED]>::MIN_BYTES
        + <VarVec<(u8, u64)>>::MIN_BYTES;

    fn save(&self, w: &mut StateWriter) {
        w.u64(u64::from(self.lvt_index));
        w.u16(self.lvt_tag);
        w.u8(self.asid);
        self.provider().save(w);
        self.alloc_slots.save(w);
        self.tag_options().save(w);
        self.slot_pred.save(w);
        self.provider_conf_levels.save(w);
        self.provider_strides.save(w);
        self.results.save(w);
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> StateResult<()> {
        self.lvt_index = u32::try_from(r.u64()?)
            .map_err(|_| StateError("block record LVT index does not fit u32"))?;
        self.lvt_tag = r.u16()?;
        self.asid = r.u8()?;
        let mut provider: Option<Hit> = None;
        provider.restore(r)?;
        if let Some((c, i)) = provider {
            ensure(
                c < MAX_TAGGED,
                "block record provider component out of range",
            )?;
            ensure(
                i <= usize::from(u16::MAX),
                "block record provider index does not fit u16",
            )?;
        }
        self.set_provider(provider);
        self.alloc_slots.restore(r)?;
        self.slot_tags = restore_slot_tags(r)?;
        self.slot_pred.restore(r)?;
        self.provider_conf_levels.restore(r)?;
        self.provider_strides.restore(r)?;
        self.results.restore(r)
    }
}

/// Field by field, except that `current` is written by
/// `BlockDVtage::save_current` in its pre-narrowing layout.
impl Snap for BlockDVtage {
    const MIN_BYTES: usize = <ShardedTable<LvtEntry>>::MIN_BYTES
        + <ShardedTable<Vt0Entry>>::MIN_BYTES
        + <TaggedComponents<ShardedTable<TaggedEntry>>>::MIN_BYTES
        + SpeculativeWindow::MIN_BYTES
        + <SeqQueue<(SeqNum, BlockRecord)>>::MIN_BYTES
        + 1 // current: a presence byte
        + bool::MIN_BYTES
        + <Option<u64>>::MIN_BYTES
        + Lfsr::MIN_BYTES
        + 3 * u64::MIN_BYTES;

    fn save(&self, w: &mut StateWriter) {
        self.lvt.save(w);
        self.vt0.save(w);
        self.tagged.save(w);
        self.window.save(w);
        self.fifo.save(w);
        self.save_current(w);
        self.force_new_block.save(w);
        self.last_retired.save(w);
        self.rng.save(w);
        self.updates.save(w);
        self.window_hits.save(w);
        self.window_lookups.save(w);
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> StateResult<()> {
        self.lvt.restore(r)?;
        self.vt0.restore(r)?;
        self.tagged.restore(r)?;
        self.window.restore(r)?;
        self.fifo.restore(r)?;
        self.restore_current(r)?;
        self.force_new_block.restore(r)?;
        self.last_retired.restore(r)?;
        self.rng.restore(r)?;
        self.updates.restore(r)?;
        self.window_hits.restore(r)?;
        self.window_lookups.restore(r)?;
        self.check_restored()
    }
}

impl ValuePredictor for BlockDVtage {
    fn name(&self) -> &str {
        "BeBoP D-VTAGE"
    }

    fn predict(&mut self, ctx: &PredictCtx, uop: &DynUop) -> Option<u64> {
        let block_pc = fetch_block_pc(uop.pc, self.cfg.fetch_block_bytes);
        let needs_new = self.force_new_block
            || match &self.current {
                Some(cur) => {
                    cur.block_pc != block_pc || cur.asid != ctx.asid || ctx.new_fetch_block
                }
                None => true,
            };
        if needs_new {
            // Retire every fully completed block first, so a new instance of a
            // block whose previous instance already retired reads the Last Value
            // Table rather than a stale speculative-window entry.
            self.drain_completed();
            self.start_block(ctx, block_pc, uop.seq);
        }

        let byte = byte_index_in_block(uop.pc, self.cfg.fetch_block_bytes);
        let np = self.cfg.npred;
        let cur = self
            .current
            .as_mut()
            // INVARIANT: a block was opened above if none was current.
            .expect("a block is always current here");
        let (_, rec) = self
            .fifo
            .back()
            // INVARIANT: the current block's record is the newest in the FIFO.
            .expect("the current block has a record");
        // Attribute the next matching prediction slot to this µ-op.
        let i = (usize::from(cur.cursor)..np).find(|&i| rec.slot_tags[i] == byte)?;
        // CAST: i < npred <= 8.
        cur.cursor = (i + 1) as u8;
        if cur.forbid_use || cur.conf_mask & (1 << i) == 0 {
            None
        } else {
            rec.slot_pred.get(i)
        }
    }

    fn train(&mut self, uop: &DynUop, actual: u64, _predicted: Option<u64>) {
        let seq = uop.seq;
        self.last_retired = Some(self.last_retired.map_or(seq, |s| s.max(seq)));
        // Retire every block that `seq` has moved past.
        while self.fifo.second_seq().is_some_and(|next| seq >= next) {
            if let Some((_, rec)) = self.fifo.pop_front() {
                self.apply_update(rec);
            }
        }
        // Accumulate this retirement into the (now) oldest in-flight block.
        let byte = byte_index_in_block(uop.pc, self.cfg.fetch_block_bytes);
        if let Some((first, rec)) = self.fifo.front_mut() {
            if seq >= *first {
                rec.results.push((byte, actual));
            }
        }
        // Apply any block that is now fully retired and drop its speculative-window
        // entry (its values live in the Last Value Table from here on).
        self.drain_completed();
    }

    fn train_wrong_path(&mut self, uop: &DynUop, actual: u64, _predicted: Option<u64>) {
        // Guarded wrong-path update. The block-based retirement machinery
        // (FIFO update queue, speculative window) is squash-safe by design —
        // wrong-path block records are discarded at the flush, so routing
        // wrong-path results through `train` would pollute nothing (and would
        // corrupt the program-order bookkeeping). What a speculative-update
        // design *does* corrupt is the Last Value Table: the bogus result is
        // written straight into the matching slot's last-value lane, from
        // which every later prediction of the block chains.
        let block_pc = fetch_block_pc(uop.pc, self.cfg.fetch_block_bytes);
        let idx = self.lvt_index(block_pc, uop.asid);
        let tag = self.lvt_tag(block_pc, uop.asid);
        let byte = byte_index_in_block(uop.pc, self.cfg.fetch_block_bytes);
        let np = self.cfg.npred;
        let e = self.lvt.get_mut(idx);
        if e.valid && e.tag == tag {
            for i in 0..np {
                if e.slot_valid & (1 << i) != 0 && e.byte_tags[i] == byte {
                    e.lasts[i] = actual;
                    break;
                }
            }
        }
    }

    fn squash(&mut self, info: &SquashInfo) {
        self.window.squash(info.flush_seq);
        {
            // Split borrows: recycle squashed FIFO records into the scratch pool.
            let Self {
                ref mut fifo,
                ref mut record_pool,
                ..
            } = *self;
            fifo.squash(info.flush_seq, |(_, mut rec)| {
                rec.results.clear();
                record_pool.push(rec);
            });
        }
        // Drop the block being assembled if it is younger than the flush point.
        if let Some(cur) = &self.current {
            if cur.first_seq > info.flush_seq {
                self.current = None;
            }
        }

        let bflush = fetch_block_pc(info.flush_pc, self.cfg.fetch_block_bytes);
        let bnew = fetch_block_pc(info.next_pc, self.cfg.fetch_block_bytes);
        if bnew != bflush {
            return;
        }
        match self.cfg.recovery {
            RecoveryPolicy::Ideal | RecoveryPolicy::DnRR => {
                // Keep the head prediction block; refetched µ-ops reuse it.
            }
            RecoveryPolicy::DnRDnR => {
                if let Some(cur) = &mut self.current {
                    // Same block *of the same context*: another context at the
                    // same PC (multi-programmed traces overlap address spaces)
                    // is not a refetch of this prediction block.
                    if cur.block_pc == bflush && cur.asid == info.asid {
                        cur.forbid_use = true;
                    }
                }
            }
            RecoveryPolicy::Repred => {
                // Discard the head prediction block from the speculative history and
                // generate a fresh one when the block is re-fetched. The FIFO update
                // record of the flushed block is kept so the retirements of its
                // older (not squashed) µ-ops still train the tables consistently.
                let key = self.window_key(bflush, info.asid);
                self.window.drop_newest_if_block(key);
                self.current = None;
                self.force_new_block = true;
            }
        }
    }

    fn storage_bits(&self) -> u64 {
        self.cfg.storage_bits()
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
    use bebop_isa::{restore_snapshot, ArchReg, Uop, UopKind};

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

    fn ctx(seq: SeqNum, pc: u64, new_block: bool) -> PredictCtx {
        PredictCtx {
            seq,
            fetch_block_pc: fetch_block_pc(pc, 16),
            new_fetch_block: new_block,
            global_history: 0,
            path_history: 0,
            asid: 0,
        }
    }

    fn fast_cfg() -> BlockDVtageConfig {
        BlockDVtageConfig {
            fpc: FpcParams::deterministic(2),
            ..BlockDVtageConfig::default()
        }
    }

    /// Runs `n` iterations of a two-block loop body (PCs 0x1000 and 0x2008, i.e.
    /// two distinct fetch blocks) whose values follow the given strides, predicting
    /// then immediately retiring — the lock-step equivalent of a tight loop.
    fn run_loop(d: &mut BlockDVtage, n: u64, strides: (u64, u64)) -> (u64, u64) {
        let mut correct = 0;
        let mut predicted = 0;
        let (mut v1, mut v2) = (100u64, 200u64);
        let mut seq = 0;
        for _ in 0..n {
            let u1 = uop(seq, 0x1000, v1);
            let u2 = uop(seq + 1, 0x2008, v2);
            let p1 = d.predict(&ctx(seq, 0x1000, true), &u1);
            let p2 = d.predict(&ctx(seq + 1, 0x2008, true), &u2);
            for (p, v) in [(p1, v1), (p2, v2)] {
                if let Some(pv) = p {
                    predicted += 1;
                    if pv == v {
                        correct += 1;
                    }
                }
            }
            d.train(&u1, v1, p1);
            d.train(&u2, v2, p2);
            seq += 2;
            v1 += strides.0;
            v2 += strides.1;
        }
        (predicted, correct)
    }

    #[test]
    fn strided_block_is_learned_and_accurate() {
        let mut d = BlockDVtage::new(fast_cfg());
        let (predicted, correct) = run_loop(&mut d, 200, (8, 16));
        assert!(
            predicted > 100,
            "predictor should become confident, got {predicted}"
        );
        assert_eq!(
            predicted, correct,
            "all confident predictions must be correct"
        );
    }

    #[test]
    fn byte_index_tags_prevent_false_sharing() {
        // Two different entry points into the same block: instruction at byte 0
        // (constant 7) and instruction at byte 8 (constant 9). Predictions must not
        // be attributed across entry points.
        let mut d = BlockDVtage::new(fast_cfg());
        let mut seq = 0;
        // Warm up with both instructions fetched.
        for _ in 0..50 {
            let u1 = uop(seq, 0x2000, 7);
            let u2 = uop(seq + 1, 0x2008, 9);
            let p1 = d.predict(&ctx(seq, 0x2000, true), &u1);
            let p2 = d.predict(&ctx(seq + 1, 0x2008, false), &u2);
            d.train(&u1, 7, p1);
            d.train(&u2, 9, p2);
            seq += 2;
        }
        // Now enter the block at byte 8 only: the prediction attributed must be the
        // one tagged with byte 8 (value 9), not the slot for byte 0.
        let u2 = uop(seq, 0x2008, 9);
        let p = d.predict(&ctx(seq, 0x2008, true), &u2);
        assert_eq!(
            p,
            Some(9),
            "entering mid-block must attribute the byte-8 slot"
        );
    }

    #[test]
    fn npred_limits_predictions_per_block() {
        let mut cfg = fast_cfg();
        cfg.npred = 2;
        let mut d = BlockDVtage::new(cfg);
        let mut seq = 0;
        // Three constant-value instructions in one block; only two slots exist.
        for _ in 0..100 {
            let us = [
                uop(seq, 0x3000, 1),
                uop(seq + 1, 0x3004, 2),
                uop(seq + 2, 0x3008, 3),
            ];
            let mut preds = Vec::new();
            for (i, u) in us.iter().enumerate() {
                preds.push(d.predict(&ctx(seq + i as u64, u.pc, i == 0), u));
            }
            for (u, p) in us.iter().zip(&preds) {
                d.train(u, u.value, *p);
            }
            seq += 3;
        }
        let us = [
            uop(seq, 0x3000, 1),
            uop(seq + 1, 0x3004, 2),
            uop(seq + 2, 0x3008, 3),
        ];
        let p0 = d.predict(&ctx(seq, 0x3000, true), &us[0]);
        let p1 = d.predict(&ctx(seq + 1, 0x3004, false), &us[1]);
        let p2 = d.predict(&ctx(seq + 2, 0x3008, false), &us[2]);
        assert_eq!(p0, Some(1));
        assert_eq!(p1, Some(2));
        assert_eq!(
            p2, None,
            "the third result has no prediction slot with Npred=2"
        );
    }

    #[test]
    fn spec_window_needed_for_back_to_back_blocks() {
        // Predict many instances of the same strided block before any retires.
        // With a speculative window the chain stays correct; without it the
        // predictor keeps re-using the stale retired last value.
        let mut with_window = BlockDVtage::new(fast_cfg());
        let mut without_window = BlockDVtage::new(BlockDVtageConfig {
            spec_window: SpecWindowSize::Disabled,
            ..fast_cfg()
        });

        for d in [&mut with_window, &mut without_window] {
            // Warm up (predict + retire immediately) to gain confidence.
            let _ = run_loop(d, 100, (8, 16));
        }

        // Now issue 4 instances back-to-back without retiring.
        let check = |d: &mut BlockDVtage| -> usize {
            let mut good = 0;
            let (mut v1, mut v2) = (100u64 + 100 * 8, 200u64 + 100 * 16);
            let mut seq = 1000;
            for _ in 0..4 {
                let u1 = uop(seq, 0x1000, v1);
                let u2 = uop(seq + 1, 0x2008, v2);
                if d.predict(&ctx(seq, 0x1000, true), &u1) == Some(v1) {
                    good += 1;
                }
                if d.predict(&ctx(seq + 1, 0x2008, true), &u2) == Some(v2) {
                    good += 1;
                }
                seq += 2;
                v1 += 8;
                v2 += 16;
            }
            good
        };
        let good_with = check(&mut with_window);
        let good_without = check(&mut without_window);
        assert!(
            good_with >= 7,
            "window should keep the chain alive, got {good_with}/8"
        );
        assert!(
            good_without <= 3,
            "without a window only the first in-flight instance can be right, got {good_without}/8"
        );
    }

    #[test]
    fn storage_matches_table_iii_medium() {
        // Medium: 256 base entries, 6x256 tagged, 32-entry window, 8-bit strides,
        // 6 predictions per entry => ~32.76 KB in the paper.
        let cfg = BlockDVtageConfig {
            npred: 6,
            base_entries: 256,
            tagged_entries: 256,
            stride_bits: 8,
            spec_window: SpecWindowSize::Entries(32),
            ..BlockDVtageConfig::default()
        };
        let kb = cfg.storage_kb();
        assert!(
            (28.0..38.0).contains(&kb),
            "Medium storage should be ~32.76 KB, got {kb:.2}"
        );
    }

    #[test]
    fn partial_strides_reduce_storage() {
        let full = BlockDVtageConfig::default();
        let partial = BlockDVtageConfig {
            stride_bits: 8,
            ..BlockDVtageConfig::default()
        };
        assert!(partial.storage_bits() < full.storage_bits());
    }

    #[test]
    fn squash_repred_forces_a_fresh_block() {
        let mut d = BlockDVtage::new(BlockDVtageConfig {
            recovery: RecoveryPolicy::Repred,
            ..fast_cfg()
        });
        let _ = run_loop(&mut d, 50, (8, 16));
        let u = uop(10_000, 0x1000, 0);
        let _ = d.predict(&ctx(10_000, 0x1000, true), &u);
        let window_before = d.window.len();
        d.squash(&SquashInfo {
            flush_seq: 10_000,
            flush_pc: 0x1000,
            next_pc: 0x1008,
            cause: bebop_uarch::SquashCause::ValueMispredict,
            asid: 0,
        });
        // Repred drops the head prediction block from the speculative window and
        // will generate a new one on the next fetch of the block.
        assert_eq!(d.window.len() + 1, window_before);
        assert!(d.force_new_block);
        assert!(d.current.is_none());
    }

    #[test]
    fn squash_dnrdnr_forbids_use_in_refetched_block() {
        let mut d = BlockDVtage::new(BlockDVtageConfig {
            recovery: RecoveryPolicy::DnRDnR,
            ..fast_cfg()
        });
        let _ = run_loop(&mut d, 100, (8, 16));
        // New block instance, then a same-block value-misprediction squash.
        let seq = 20_000;
        let u1 = uop(seq, 0x1000, 0);
        let _ = d.predict(&ctx(seq, 0x1000, true), &u1);
        d.squash(&SquashInfo {
            flush_seq: seq,
            flush_pc: 0x1000,
            next_pc: 0x1008,
            cause: bebop_uarch::SquashCause::ValueMispredict,
            asid: 0,
        });
        // The refetched second instruction of the same block must not use its
        // prediction under DnRDnR.
        let u2 = uop(seq + 1, 0x1008, 123);
        assert_eq!(d.predict(&ctx(seq + 1, 0x1008, false), &u2), None);
    }

    #[test]
    fn window_hit_rate_reported() {
        let mut d = BlockDVtage::new(fast_cfg());
        let _ = run_loop(&mut d, 50, (8, 16));
        assert!(d.window_hit_rate() >= 0.0);
        assert!(d.storage_bits() > 0);
        assert_eq!(d.name(), "BeBoP D-VTAGE");
    }

    #[test]
    fn records_are_recycled_through_the_pool() {
        let mut d = BlockDVtage::new(fast_cfg());
        let _ = run_loop(&mut d, 100, (8, 16));
        assert!(
            !d.record_pool.is_empty(),
            "retired block records must return to the scratch pool"
        );
        // The pool is bounded by the number of simultaneously in-flight blocks.
        assert!(d.record_pool.len() <= 8);
    }

    #[test]
    #[should_panic]
    fn npred_above_max_is_rejected() {
        let _ = BlockDVtage::new(BlockDVtageConfig {
            npred: MAX_NPRED + 1,
            ..BlockDVtageConfig::default()
        });
    }

    #[test]
    fn sharded_layout_predicts_identically_to_monolithic() {
        // Sharding is a bijective re-layout: under the shared policy the
        // predictor must behave bit-identically whatever the shard count.
        let mut flat = BlockDVtage::new(fast_cfg());
        let mut sharded = BlockDVtage::new(BlockDVtageConfig {
            shards: 8,
            ..fast_cfg()
        });
        let a = run_loop(&mut flat, 300, (8, 16));
        let b = run_loop(&mut sharded, 300, (8, 16));
        assert_eq!(a, b, "shard count changed prediction behaviour");
        assert_eq!(flat.window_hit_rate(), sharded.window_hit_rate());
        // Single-context runs never steal; occupancy is layout-visible.
        assert_eq!(sharded.total_steals(), 0);
        assert!(sharded.lvt_shard_counters().occupancy.iter().sum::<u64>() > 0);
        assert_eq!(sharded.lvt_shard_counters().occupancy.len(), 8);
    }

    #[test]
    fn single_context_runs_are_policy_invariant() {
        // With every µ-op carrying ASID 0 the three sharing policies are the
        // same predictor: the ASID folds are identity and no partition remap
        // moves context 0 away from partition 0 of a 1-context config.
        let mut results = Vec::new();
        for sharing in SharingPolicy::ALL {
            let mut d = BlockDVtage::new(BlockDVtageConfig {
                shards: 4,
                sharing,
                contexts: 1,
                ..fast_cfg()
            });
            results.push(run_loop(&mut d, 300, (8, 16)));
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
    }

    #[test]
    #[should_panic(expected = "whole shards")]
    fn partitioned_contexts_must_fit_the_shards() {
        let _ = BlockDVtage::new(BlockDVtageConfig {
            shards: 2,
            sharing: SharingPolicy::Partitioned,
            contexts: 4,
            ..BlockDVtageConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "useful_reset_period must be > 0")]
    fn zero_useful_reset_period_is_rejected() {
        let _ = BlockDVtage::new(BlockDVtageConfig {
            useful_reset_period: 0,
            ..BlockDVtageConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "powers of two")]
    fn table_sizes_must_be_powers_of_two() {
        let _ = BlockDVtage::new(BlockDVtageConfig {
            base_entries: 768,
            ..BlockDVtageConfig::default()
        });
    }

    /// `BlockRecord` before its fields were narrowed: the layout its
    /// checkpoint encoding keeps.
    #[derive(Debug, Default)]
    struct OldBlockRecord {
        lvt_index: usize,
        lvt_tag: u16,
        asid: u8,
        provider: Option<(usize, usize)>,
        alloc_slots: [(usize, u16); MAX_TAGGED],
        slot_tags: [Option<u8>; MAX_NPRED],
        slot_pred: [Option<u64>; MAX_NPRED],
        provider_conf_levels: [u8; MAX_NPRED],
        provider_strides: [i64; MAX_NPRED],
        results: VarVec<(u8, u64)>,
    }
    snap!(OldBlockRecord {
        lvt_index: usize,
        lvt_tag: u16,
        asid: u8,
        provider: Option<(usize, usize)>,
        alloc_slots: [(usize, u16); MAX_TAGGED],
        slot_tags: [Option<u8>; MAX_NPRED],
        slot_pred: [Option<u64>; MAX_NPRED],
        provider_conf_levels: [u8; MAX_NPRED],
        provider_strides: [i64; MAX_NPRED],
        results: VarVec<(u8, u64)>,
    });

    /// `CurrentBlock` before it moved its slots to the FIFO record.
    #[derive(Debug, Default, Clone, Copy)]
    struct OldCurrentBlock {
        block_pc: u64,
        asid: u8,
        first_seq: u64,
        cursor: usize,
        forbid_use: bool,
        slot_tags: [Option<u8>; MAX_NPRED],
        slot_pred: [Option<u64>; MAX_NPRED],
        slot_conf: [bool; MAX_NPRED],
    }
    snap!(OldCurrentBlock {
        block_pc: u64,
        asid: u8,
        first_seq: u64,
        cursor: usize,
        forbid_use: bool,
        slot_tags: [Option<u8>; MAX_NPRED],
        slot_pred: [Option<u64>; MAX_NPRED],
        slot_conf: [bool; MAX_NPRED],
    });

    /// A record with every field away from its default, in both layouts.
    fn record_pair() -> (BlockRecord, OldBlockRecord) {
        let mut slots = Slots::default();
        slots.0[0] = (255, 0x1fff);
        slots.0[5] = (7, 3);
        let mut old_slots = [(0usize, 0u16); MAX_TAGGED];
        old_slots[0] = (255, 0x1fff);
        old_slots[5] = (7, 3);
        let levels = [7, 0, 3, 7, 0, 0, 0, 0];
        let strides = [1, -2, 0, i64::MIN, 0, 0, 0, 0];
        let results = VarVec(vec![(0, 10), (15, 99)]);
        let rec = BlockRecord {
            lvt_index: 2047,
            lvt_tag: 0x1f,
            asid: 2,
            provider_comp: 5,
            provider_idx: 255,
            alloc_slots: slots,
            slot_tags: [0, 4, NO_TAG, 15, NO_TAG, NO_TAG, NO_TAG, NO_TAG],
            provider_conf_levels: levels,
            slot_pred: SlotPredictions::masked(&[10, 20, 0, u64::MAX, 0, 0, 0, 0], 0b1011),
            provider_strides: strides,
            results: results.clone(),
        };
        let old = OldBlockRecord {
            lvt_index: 2047,
            lvt_tag: 0x1f,
            asid: 2,
            provider: Some((5, 255)),
            alloc_slots: old_slots,
            slot_tags: [Some(0), Some(4), None, Some(15), None, None, None, None],
            slot_pred: [
                Some(10),
                Some(20),
                None,
                Some(u64::MAX),
                None,
                None,
                None,
                None,
            ],
            provider_conf_levels: levels,
            provider_strides: strides,
            results,
        };
        (rec, old)
    }

    #[test]
    fn block_record_writes_the_pre_narrowing_layout() {
        assert_eq!(BlockRecord::MIN_BYTES, OldBlockRecord::MIN_BYTES);
        let (mut rec, mut old) = record_pair();
        assert_eq!(snapshot(&rec), snapshot(&old));
        let mut back = BlockRecord::default();
        restore_snapshot(&mut back, &snapshot(&old)).unwrap();
        assert_eq!(snapshot(&back), snapshot(&old));
        rec.set_provider(None);
        old.provider = None;
        assert_eq!(snapshot(&rec), snapshot(&old), "VT0-provided record");
    }

    #[test]
    fn current_block_writes_the_pre_narrowing_layout() {
        let mut d = BlockDVtage::new(fast_cfg());
        let bytes = |d: &BlockDVtage| {
            let mut w = StateWriter::new();
            d.save_current(&mut w);
            w.finish()
        };
        assert_eq!(bytes(&d), snapshot(&None::<OldCurrentBlock>));
        let (rec, old_rec) = record_pair();
        d.fifo.push((42, rec));
        d.current = Some(CurrentBlock {
            block_pc: 0x2000,
            first_seq: 42,
            asid: 1,
            cursor: 3,
            forbid_use: true,
            conf_mask: 0b1001,
        });
        let old = OldCurrentBlock {
            block_pc: 0x2000,
            asid: 1,
            first_seq: 42,
            cursor: 3,
            forbid_use: true,
            slot_tags: old_rec.slot_tags,
            slot_pred: old_rec.slot_pred,
            slot_conf: [true, false, false, true, false, false, false, false],
        };
        assert_eq!(bytes(&d), snapshot(&Some(old)));
        let mut back = BlockDVtage::new(fast_cfg());
        restore_snapshot(&mut back, &snapshot(&d)).unwrap();
        assert_eq!(snapshot(&back), snapshot(&d));
    }

    /// A warmed predictor with three blocks predicted and not retired.
    fn inflight_predictor() -> BlockDVtage {
        let mut d = BlockDVtage::new(fast_cfg());
        let _ = run_loop(&mut d, 100, (8, 16));
        for (seq, pc) in [(1_000, 0x1000), (1_001, 0x2008), (1_002, 0x1000)] {
            let _ = d.predict(&ctx(seq, pc, true), &uop(seq, pc, 0));
        }
        d
    }

    /// Restoring `bytes` onto a fresh predictor fails with an error naming
    /// `what`.
    fn assert_rejected(bytes: &[u8], what: &str) {
        let mut back = BlockDVtage::new(fast_cfg());
        let err = restore_snapshot(&mut back, bytes).unwrap_err();
        assert!(err.0.contains(what), "expected {what:?}, got {err}");
    }

    #[test]
    fn hostile_narrowed_fields_are_rejected() {
        let d = inflight_predictor();
        let mut back = BlockDVtage::new(fast_cfg());
        restore_snapshot(&mut back, &snapshot(&d)).unwrap();
        let cfg = fast_cfg();
        let edit = |f: &mut dyn FnMut(&mut BlockDVtage)| {
            let mut bad = d.clone();
            f(&mut bad);
            snapshot(&bad)
        };
        let outside = "block record indexes outside the tables";
        // CAST: test geometry sizes are far below u8/u16.
        let bad = edit(&mut |b| b.fifo.front_mut().unwrap().1.provider_comp = cfg.num_tagged as u8);
        assert_rejected(&bad, outside);
        let bad = edit(&mut |b| {
            b.fifo.front_mut().unwrap().1.alloc_slots.0[2].0 = cfg.tagged_entries as u16
        });
        assert_rejected(&bad, outside);
        let bad = edit(&mut |b| b.fifo.front_mut().unwrap().1.slot_tags[0] = 16);
        assert_rejected(&bad, "byte tag outside the fetch block");
        let bad = edit(&mut |b| b.current.as_mut().unwrap().first_seq += 1);
        assert_rejected(&bad, "not the newest block record");
    }

    #[test]
    fn hostile_current_slots_are_rejected() {
        let d = inflight_predictor();
        let (_, rec) = d.fifo.back().unwrap();
        let cur = d.current.unwrap();
        let old = OldCurrentBlock {
            block_pc: cur.block_pc,
            asid: cur.asid,
            first_seq: cur.first_seq,
            cursor: usize::from(cur.cursor),
            forbid_use: cur.forbid_use,
            slot_tags: rec.tag_options(),
            slot_pred: std::array::from_fn(|i| rec.slot_pred.get(i)),
            slot_conf: std::array::from_fn(|i| cur.conf_mask & (1 << i) != 0),
        };
        assert!(
            old.slot_tags[0].is_some(),
            "the warmed block has tagged slots"
        );
        // `current` follows the FIFO in the payload; splice edited copies in.
        let bytes = snapshot(&d);
        let at = [
            snapshot(&d.lvt),
            snapshot(&d.vt0),
            snapshot(&d.tagged),
            snapshot(&d.window),
            snapshot(&d.fifo),
        ]
        .iter()
        .map(Vec::len)
        .sum::<usize>();
        let len = snapshot(&Some(old)).len();
        assert_eq!(bytes[at..at + len], snapshot(&Some(old)));
        let splice = |c: OldCurrentBlock| {
            let mut b = bytes[..at].to_vec();
            b.extend(snapshot(&Some(c)));
            b.extend(&bytes[at + len..]);
            b
        };
        let mut retagged = old;
        retagged.slot_tags[0] = Some(old.slot_tags[0].unwrap() ^ 1);
        assert_rejected(&splice(retagged), "not the newest block record");
        let mut repredicted = old;
        repredicted.slot_pred[0] = Some(old.slot_pred[0].unwrap_or(0).wrapping_add(1));
        assert_rejected(&splice(repredicted), "not the newest block record");
        let mut far = old;
        far.cursor = MAX_NPRED + 1;
        assert_rejected(&splice(far), "cursor out of range");
    }

    #[test]
    fn hostile_record_encodings_are_rejected() {
        let restore = |old: &OldBlockRecord| {
            let mut rec = BlockRecord::default();
            restore_snapshot(&mut rec, &snapshot(old)).unwrap_err().0
        };
        let (_, old) = record_pair();
        let mut o = OldBlockRecord {
            results: VarVec(Vec::new()),
            ..old
        };
        o.alloc_slots[1].0 = 1 << 16;
        assert!(restore(&o).contains("does not fit u16"));
        let (_, mut o) = record_pair();
        o.provider = Some((0, 1 << 16));
        assert!(restore(&o).contains("does not fit u16"));
        let (_, mut o) = record_pair();
        o.provider = Some((MAX_TAGGED, 0));
        assert!(restore(&o).contains("provider component out of range"));
        let (_, mut o) = record_pair();
        o.lvt_index = 1 << 32;
        assert!(restore(&o).contains("does not fit u32"));
        let (_, mut o) = record_pair();
        o.slot_tags[2] = Some(NO_TAG);
        assert!(restore(&o).contains("byte tag outside the fetch block"));
    }

    #[test]
    fn restored_zero_generator_state_is_coerced_to_one() {
        // The generator state is followed by three u64 counters (updates,
        // window hits, window lookups) at the end of the snapshot. From a
        // zero state xorshift would return zero forever.
        let mut d = BlockDVtage::new(fast_cfg());
        let _ = run_loop(&mut d, 20, (8, 16));
        let mut bytes = snapshot(&d);
        let at = bytes.len() - 32;
        bytes[at..at + 8].fill(0);
        let mut back = BlockDVtage::new(fast_cfg());
        restore_predictor(&mut back, &bytes).unwrap();
        let again = snapshot(&back);
        assert_eq!(again[at..at + 8], 1u64.to_le_bytes());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn shard_count_must_be_a_power_of_two() {
        let _ = BlockDVtage::new(BlockDVtageConfig {
            shards: 3,
            ..BlockDVtageConfig::default()
        });
    }
}
