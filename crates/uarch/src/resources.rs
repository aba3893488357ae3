//! Low-level resource bookkeeping used by the pipeline timing model: per-cycle
//! bandwidth pools and age-ordered occupancy rings.
//!
//! Two pool implementations share identical allocation semantics:
//!
//! * [`SlotPool`] — the scalar single-resource reference, one deque per
//!   resource class. Kept as the differential-testing oracle and for
//!   out-of-tree users.
//! * [`LanePool`] — the structure-of-arrays pool the pipeline uses: all
//!   resource classes live as *lanes* of one generation-counted window, so a
//!   fetch group's worth of allocations walks one contiguous allocation
//!   instead of eleven heap-separated deques, and pruning advances one shared
//!   horizon.
//!
//! Both pools bound their bookkeeping: the dense window never grows past
//! [`MAX_DENSE_SPAN`] cycles, far-future allocations (a pathological latency
//! sum would previously balloon the dense deque unboundedly) spill into an
//! exact sparse overflow, and restore rejects payloads claiming absurd
//! horizons.

use bebop_isa::{ensure, snap, Snap, StateReader, StateResult, StateWriter};
use std::collections::{BTreeMap, VecDeque};

/// Upper bound on the cycle span of a pool's *dense* window. Allocations
/// further than this past the pruning horizon are tracked exactly in a sparse
/// overflow map instead of growing the dense storage — one far-future cycle
/// (a pathological latency sum, or a corrupt restored checkpoint) must cost
/// one map entry, not a quarter-million zero-filled deque slots.
pub const MAX_DENSE_SPAN: u64 = 1 << 18;

/// Sanity bound on simultaneously tracked sparse far-future cycles per
/// resource class. Legitimate simulations keep at most an in-flight window's
/// worth of far-future allocations alive (the pipeline prunes each lane to
/// its monotone floor every 4096 committed µ-ops); crossing this bound means runaway
/// state and dies with a structured panic instead of creeping towards OOM.
pub const MAX_OVERFLOW_TRACKED: usize = 1 << 20;

/// Finds the earliest cycle `>= c` with a free slot given dense counts,
/// a sparse overflow, a width and the dense window base. This is the
/// specification walk: [`SlotPool`] uses it directly, and [`LanePool`]'s
/// hand-scheduled allocate path is held to it by the differential property
/// tests (`prop_lane_pool_matches_slot_pool_bank`).
///
/// Returns the chosen cycle; the caller increments the matching counter.
fn probe(
    base: u64,
    dense: impl Fn(u64) -> u16,
    dense_len: u64,
    far: &BTreeMap<u64, u16>,
    width: u16,
    mut c: u64,
) -> u64 {
    loop {
        let span = c.saturating_sub(base);
        let used = if span < MAX_DENSE_SPAN {
            if span < dense_len {
                dense(span)
            } else {
                0
            }
        } else {
            far.get(&c).copied().unwrap_or(0)
        };
        if used < width {
            return c;
        }
        c += 1;
    }
}

/// A per-cycle slot pool modelling a bandwidth-limited resource (issue ports of one
/// functional-unit class, rename slots, commit slots, …).
///
/// `allocate(t)` finds the earliest cycle `>= t` with a free slot, consumes it and
/// returns the cycle. Cycles below a moving horizon are pruned; allocations below
/// the horizon are clamped up to it (they can never be requested again by the
/// in-order processing loop, which only moves forward).
///
/// This is the scalar reference implementation; the pipeline itself uses the
/// lane-merged [`LanePool`], which is asserted allocation-for-allocation
/// identical to a bank of `SlotPool`s by the differential property tests.
#[derive(Debug, Clone)]
pub struct SlotPool {
    /// Slots available per cycle.
    width: u16,
    /// First cycle represented by `used[0]`.
    base: u64,
    /// Used-slot counts per cycle, starting at `base`; never longer than
    /// [`MAX_DENSE_SPAN`].
    used: VecDeque<u16>,
    /// Exact overflow for allocations at least [`MAX_DENSE_SPAN`] cycles past
    /// `base`: cycle → used count. Empty in every healthy steady state.
    far: BTreeMap<u64, u16>,
}

impl SlotPool {
    /// Creates a pool offering `width` slots per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: u16) -> Self {
        assert!(
            width > 0,
            "a slot pool must have at least one slot per cycle"
        );
        SlotPool {
            width,
            base: 0,
            used: VecDeque::new(),
            far: BTreeMap::new(),
        }
    }

    /// The per-cycle width of this pool.
    pub fn width(&self) -> u16 {
        self.width
    }

    /// Allocates one slot at the earliest cycle `>= cycle`, returning that cycle.
    ///
    /// # Panics
    ///
    /// Panics with a structured `resource:` reason when the pool would track
    /// more than [`MAX_OVERFLOW_TRACKED`] far-future cycles — runaway state
    /// from a pathological configuration, caught before it eats the heap.
    pub fn allocate(&mut self, cycle: u64) -> u64 {
        let c = probe(
            self.base,
            |span| self.used[span as usize],
            self.used.len() as u64,
            &self.far,
            self.width,
            cycle.max(self.base),
        );
        let span = c - self.base;
        if span < MAX_DENSE_SPAN {
            let idx = span as usize;
            if idx >= self.used.len() {
                self.used.resize(idx + 1, 0);
            }
            self.used[idx] += 1;
        } else {
            *self.far.entry(c).or_insert(0) += 1;
            assert!(
                self.far.len() <= MAX_OVERFLOW_TRACKED,
                "resource: slot pool: {} far-future cycles tracked (allocation at cycle {c}, horizon {}) — runaway latency sum or corrupt state",
                self.far.len(),
                self.base
            );
        }
        c
    }

    /// Drops bookkeeping for all cycles strictly below `cycle`. Future allocations
    /// below `cycle` are clamped up to it.
    pub fn prune_below(&mut self, cycle: u64) {
        while self.base < cycle && !self.used.is_empty() {
            self.used.pop_front();
            self.base += 1;
        }
        if self.base < cycle {
            self.base = cycle;
        }
        // Far-future entries now inside the dense window migrate into it so
        // the two storages keep disjoint, exact coverage; entries below the
        // horizon are dropped like any pruned cycle.
        if !self.far.is_empty() {
            let dense_end = self.base.saturating_add(MAX_DENSE_SPAN);
            while let Some((&c, &u)) = self.far.first_key_value() {
                if c >= dense_end {
                    break;
                }
                self.far.pop_first();
                if c < self.base {
                    continue;
                }
                let idx = (c - self.base) as usize;
                if idx >= self.used.len() {
                    self.used.resize(idx + 1, 0);
                }
                self.used[idx] = u;
            }
        }
    }

    /// Number of cycles currently tracked (test/diagnostic aid).
    pub fn tracked_cycles(&self) -> usize {
        self.used.len() + self.far.len()
    }

    /// Validates the pool's conservation invariant: no cycle may have more
    /// slots consumed than the pool's width, and the tracked window must stay
    /// within its growth bounds.
    ///
    /// # Panics
    ///
    /// Panics with a structured `simcheck:` reason on violation. Compiled only
    /// under the `simcheck` feature.
    #[cfg(feature = "simcheck")]
    pub fn check_conservation(&self, name: &str) {
        for (i, &u) in self.used.iter().enumerate() {
            assert!(
                u <= self.width,
                "simcheck: slot pool '{name}': cycle {} uses {u} of {} slots",
                self.base + i as u64,
                self.width
            );
        }
        for (&c, &u) in &self.far {
            assert!(
                u > 0 && u <= self.width,
                "simcheck: slot pool '{name}': far cycle {c} uses {u} of {} slots",
                self.width
            );
        }
        assert!(
            self.used.len() as u64 <= MAX_DENSE_SPAN && self.far.len() <= MAX_OVERFLOW_TRACKED,
            "simcheck: slot pool '{name}': tracked window ({} dense + {} far) exceeds growth bounds",
            self.used.len(),
            self.far.len()
        );
    }
}

/// The resource classes sharing one [`LanePool`]. Each lane is an independent
/// per-cycle bandwidth budget; the enum's discriminants index the pool's
/// cycle-major storage and fix the checkpoint serialisation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Rename/decode slots (front-end width).
    Rename = 0,
    /// Out-of-order issue slots (issue width).
    Issue = 1,
    /// Simple-ALU functional units.
    Alu = 2,
    /// Integer multiply/divide units.
    MulDiv = 3,
    /// FP add units.
    Fp = 4,
    /// FP multiply/divide units.
    FpMulDiv = 5,
    /// Load ports.
    Load = 6,
    /// Store ports.
    Store = 7,
    /// EOLE early-execution slots.
    Early = 8,
    /// EOLE late-execution slots.
    Late = 9,
    /// Commit slots (retirement width).
    Commit = 10,
}

/// Number of lanes in a [`LanePool`].
pub const NUM_POOL_LANES: usize = 11;

impl Lane {
    /// Every lane, in discriminant (and serialisation) order.
    pub const ALL: [Lane; NUM_POOL_LANES] = [
        Lane::Rename,
        Lane::Issue,
        Lane::Alu,
        Lane::MulDiv,
        Lane::Fp,
        Lane::FpMulDiv,
        Lane::Load,
        Lane::Store,
        Lane::Early,
        Lane::Late,
        Lane::Commit,
    ];

    /// Diagnostic name used in simcheck/panic messages.
    pub fn name(self) -> &'static str {
        match self {
            Lane::Rename => "rename",
            Lane::Issue => "issue",
            Lane::Alu => "alu",
            Lane::MulDiv => "muldiv",
            Lane::Fp => "fp",
            Lane::FpMulDiv => "fpmuldiv",
            Lane::Load => "load",
            Lane::Store => "store",
            Lane::Early => "early",
            Lane::Late => "late",
            Lane::Commit => "commit",
        }
    }
}

/// How many dead (pruned) rows the dense storage tolerates before compacting.
/// Compaction copies the live window to the front, so amortised prune cost
/// stays O(1) per pruned cycle while the storage never holds more than
/// `max(live, COMPACT_SLACK)` dead rows.
const COMPACT_SLACK: usize = 4096;

/// All of the pipeline's per-cycle bandwidth resources merged into one
/// structure-of-arrays pool: one shared moving horizon, one dense cycle-major
/// `used` matrix of [`NUM_POOL_LANES`] lanes per cycle row, per-lane sparse
/// overflow for far-future allocations, and per-lane pruning horizons for the
/// lanes whose request streams have monotone floors (commit trails
/// `last_commit`, the execution lanes trail the ROB's oldest release).
///
/// The *generation* counts prune operations: it stamps every checkpoint
/// payload, and a restored pool resumes with the same window and generation a
/// continuous run would carry, so window-shape divergence after resume is
/// detectable rather than silent.
///
/// Allocation semantics are identical to one [`SlotPool`] per lane — the
/// differential property tests in `tests/integration_properties.rs` assert
/// exactly that, allocation for allocation.
#[derive(Debug, Clone)]
pub struct LanePool {
    /// Per-lane slots available per cycle.
    widths: [u16; NUM_POOL_LANES],
    /// First live cycle: dense row `dense.head` holds this cycle's counts.
    base: u64,
    /// Per-lane counts of the cycles within [`MAX_DENSE_SPAN`] of `base`.
    dense: DenseWindow,
    /// Per-lane exact overflow for cycles at least [`MAX_DENSE_SPAN`] past
    /// `base`. Empty in every healthy steady state.
    far: [BTreeMap<u64, u16>; NUM_POOL_LANES],
    /// Per-lane pruning horizon: allocations below it are clamped up, exactly
    /// like a per-lane `prune_below`. Always `>= base` is *not* required —
    /// the effective floor of a lane is `max(base, lane_horizon)`.
    lane_horizon: [u64; NUM_POOL_LANES],
    /// Number of prune operations performed (the pool's *generation*).
    generation: u64,
}

impl LanePool {
    /// Creates a pool with the given per-lane widths.
    ///
    /// # Panics
    ///
    /// Panics if any width is zero.
    pub fn new(widths: [u16; NUM_POOL_LANES]) -> Self {
        assert!(
            widths.iter().all(|&w| w > 0),
            "every lane of a lane pool needs at least one slot per cycle"
        );
        LanePool {
            widths,
            base: 0,
            dense: DenseWindow::default(),
            far: Default::default(),
            lane_horizon: [0; NUM_POOL_LANES],
            generation: 0,
        }
    }

    /// The per-cycle width of `lane`.
    pub fn width(&self, lane: Lane) -> u16 {
        self.widths[lane as usize]
    }

    /// Number of prune operations performed so far.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Live dense rows (cycles) currently stored.
    fn live_rows(&self) -> usize {
        self.dense.live_rows()
    }

    /// Number of cycles currently tracked across dense and overflow storage
    /// (test/diagnostic aid).
    pub fn tracked_cycles(&self) -> usize {
        self.live_rows() + self.far.iter().map(BTreeMap::len).sum::<usize>()
    }

    /// Allocates one `lane` slot at the earliest cycle `>= cycle`, returning
    /// that cycle — bit-identical to `SlotPool::allocate` on a pool of the
    /// same width, horizon and usage history.
    ///
    /// # Panics
    ///
    /// Panics with a structured `resource:` reason when the lane would track
    /// more than [`MAX_OVERFLOW_TRACKED`] far-future cycles.
    pub fn allocate(&mut self, lane: Lane, cycle: u64) -> u64 {
        let li = lane as usize;
        let width = self.widths[li];
        let floor = cycle.max(self.base).max(self.lane_horizon[li]);
        let span = floor - self.base;
        let end = self.dense.used.len();
        if span < (end / NUM_POOL_LANES - self.dense.head) as u64 {
            let mut idx = (self.dense.head + span as usize) * NUM_POOL_LANES + li;
            // Hot path: additive scan over the materialized dense rows. The
            // stride keeps the index congruent to the lane, so no
            // per-iteration multiply, and far coverage starts at
            // `MAX_DENSE_SPAN` — beyond every materialized row — so the
            // overflow map never needs consulting here.
            let mut c = floor;
            while idx < end {
                let slot = &mut self.dense.used[idx];
                if *slot < width {
                    *slot += 1;
                    return c;
                }
                idx += NUM_POOL_LANES;
                c += 1;
            }
            return self.allocate_unmaterialized(lane, c);
        }
        self.allocate_unmaterialized(lane, floor)
    }

    /// Allocation continuation for cycles past the materialized dense rows:
    /// still inside the dense span they are untracked and therefore free;
    /// past it the sparse overflow map is probed. Produces exactly the cycle
    /// the generic [`probe`] walk would.
    fn allocate_unmaterialized(&mut self, lane: Lane, floor: u64) -> u64 {
        let li = lane as usize;
        if floor - self.base < MAX_DENSE_SPAN {
            self.bump(lane, floor, 1);
            return floor;
        }
        let width = self.widths[li];
        let mut c = floor;
        while self.far[li].get(&c).copied().unwrap_or(0) >= width {
            c += 1;
        }
        self.bump(lane, c, 1);
        c
    }

    /// Allocates one `lane` slot per element of `out`, all requesting `cycle`,
    /// exactly as that many successive [`LanePool::allocate`] calls would, and
    /// writes each allocation's cycle to `out`. The common case — a fetch
    /// group's rename slots, whose width equals the front width — fills one
    /// fresh row with a single counter update.
    pub fn allocate_group(&mut self, lane: Lane, cycle: u64, out: &mut [u64]) {
        let li = lane as usize;
        let floor = cycle.max(self.base).max(self.lane_horizon[li]);
        let span = floor.saturating_sub(self.base);
        let n = u16::try_from(out.len())
            .ok()
            .filter(|&n| n <= self.widths[li]);
        if let Some(n) = n {
            if span < MAX_DENSE_SPAN {
                let row = self.dense_row(span);
                let slot = &mut self.dense.used[row * NUM_POOL_LANES + li];
                if *slot + n <= self.widths[li] {
                    *slot += n;
                    out.fill(floor);
                    return;
                }
            }
        }
        for o in out.iter_mut() {
            *o = self.allocate(lane, cycle);
        }
    }

    /// Dense row index for `span`, growing the matrix as needed. Callers
    /// guarantee `span < MAX_DENSE_SPAN`.
    fn dense_row(&mut self, span: u64) -> usize {
        let row = self.dense.head + span as usize;
        let need = (row + 1) * NUM_POOL_LANES;
        if need > self.dense.used.len() {
            self.dense.used.resize(need, 0);
        }
        row
    }

    /// Records `n` allocations of `lane` at cycle `c` (dense or far).
    fn bump(&mut self, lane: Lane, c: u64, n: u16) {
        let li = lane as usize;
        let span = c - self.base;
        if span < MAX_DENSE_SPAN {
            let row = self.dense_row(span);
            self.dense.used[row * NUM_POOL_LANES + li] += n;
        } else {
            *self.far[li].entry(c).or_insert(0) += n;
            assert!(
                self.far[li].len() <= MAX_OVERFLOW_TRACKED,
                "resource: lane pool '{}': {} far-future cycles tracked (allocation at cycle {c}, horizon {}) — runaway latency sum or corrupt state",
                lane.name(),
                self.far[li].len(),
                self.base
            );
        }
    }

    /// Drops bookkeeping for all cycles strictly below `cycle` in every lane.
    /// Future allocations below `cycle` are clamped up to it. Bumps the
    /// generation.
    pub fn prune_below(&mut self, cycle: u64) {
        self.generation += 1;
        if cycle <= self.base {
            return;
        }
        let live = self.live_rows() as u64;
        let advance = (cycle - self.base).min(live) as usize;
        self.dense.head += advance;
        self.base = cycle;
        // Migrate far entries that the advanced horizon pulled inside the
        // dense window, so dense and far coverage stay disjoint and exact.
        let dense_end = self.base.saturating_add(MAX_DENSE_SPAN);
        for li in 0..NUM_POOL_LANES {
            if self.far[li].is_empty() {
                continue;
            }
            while let Some((&c, &u)) = self.far[li].first_key_value() {
                if c >= dense_end {
                    break;
                }
                self.far[li].pop_first();
                if c < self.base {
                    continue;
                }
                let row = self.dense_row(c - self.base);
                self.dense.used[row * NUM_POOL_LANES + li] = u;
            }
        }
        // Compact once the dead prefix dominates: amortised O(1) per pruned
        // cycle, bounded dead space.
        if self.dense.head >= self.live_rows().max(COMPACT_SLACK) {
            self.dense.used.drain(..self.dense.head * NUM_POOL_LANES);
            self.dense.head = 0;
        }
    }

    /// Raises one lane's pruning horizon: bookkeeping for that lane below
    /// `cycle` is dead (dropped from the overflow, clamped in the dense
    /// window), exactly like `SlotPool::prune_below` on the lane's reference
    /// pool. Used for lanes whose request stream has a monotone floor — the
    /// commit lane never requests below `last_commit`, the execution lanes
    /// never below the ROB's oldest outstanding release — so their far-future
    /// clusters stay bounded even when fetch decouples far behind commit.
    pub fn prune_lane_below(&mut self, lane: Lane, cycle: u64) {
        let li = lane as usize;
        if cycle <= self.lane_horizon[li] {
            return;
        }
        self.lane_horizon[li] = cycle;
        while let Some((&c, _)) = self.far[li].first_key_value() {
            if c >= cycle {
                break;
            }
            self.far[li].pop_first();
        }
    }

    /// Rejects restored state the pool could never reach: usage beyond a
    /// lane's width, dense windows beyond [`MAX_DENSE_SPAN`], overflow counts
    /// beyond [`MAX_OVERFLOW_TRACKED`], or overflow cycles that belong in
    /// the dense window.
    fn check_restored(&mut self) -> StateResult<()> {
        ensure(
            self.live_rows() as u64 <= MAX_DENSE_SPAN,
            "lane pool dense span exceeds bound",
        )?;
        ensure(
            self.dense
                .live()
                .chunks_exact(NUM_POOL_LANES)
                .all(|row| row.iter().zip(&self.widths).all(|(u, w)| u <= w)),
            "lane pool usage exceeds lane width",
        )?;
        let dense_end = self.base.saturating_add(MAX_DENSE_SPAN);
        for (far, &width) in self.far.iter().zip(&self.widths) {
            ensure(
                far.len() <= MAX_OVERFLOW_TRACKED,
                "lane pool overflow count exceeds bound",
            )?;
            ensure(
                far.keys().all(|&c| c >= dense_end),
                "lane pool overflow cycle inside dense span",
            )?;
            ensure(
                far.values().all(|&u| u > 0 && u <= width),
                "lane pool overflow usage out of range",
            )?;
        }
        Ok(())
    }

    /// Validates the pool's conservation invariant lane by lane — no cycle may
    /// consume more slots than its lane's width — and that the tracked window
    /// respects the growth bounds ([`MAX_DENSE_SPAN`] dense rows,
    /// [`MAX_OVERFLOW_TRACKED`] overflow entries per lane, dead prefix within
    /// compaction slack).
    ///
    /// # Panics
    ///
    /// Panics with a structured `simcheck:` reason on violation. Compiled only
    /// under the `simcheck` feature.
    #[cfg(feature = "simcheck")]
    pub fn check_conservation(&self) {
        for (i, &u) in self.dense.live().iter().enumerate() {
            let li = i % NUM_POOL_LANES;
            assert!(
                u <= self.widths[li],
                "simcheck: lane pool '{}': cycle {} uses {u} of {} slots",
                Lane::ALL[li].name(),
                self.base + (i / NUM_POOL_LANES) as u64,
                self.widths[li]
            );
        }
        for (li, far) in self.far.iter().enumerate() {
            for (&c, &u) in far {
                assert!(
                    u > 0 && u <= self.widths[li],
                    "simcheck: lane pool '{}': far cycle {c} uses {u} of {} slots",
                    Lane::ALL[li].name(),
                    self.widths[li]
                );
            }
            assert!(
                far.len() <= MAX_OVERFLOW_TRACKED,
                "simcheck: lane pool '{}': {} far-future cycles exceed the growth bound",
                Lane::ALL[li].name(),
                far.len()
            );
        }
        assert!(
            self.live_rows() as u64 <= MAX_DENSE_SPAN,
            "simcheck: lane pool: {} dense rows exceed the growth bound",
            self.live_rows()
        );
    }
}

snap!(LanePool {
    base: u64,
    generation: u64,
    lane_horizon: [u64; NUM_POOL_LANES],
    dense: DenseWindow,
    far: [BTreeMap<u64, u16>; NUM_POOL_LANES],
} validate check_restored);

/// The dense window of a [`LanePool`]: cycle-major per-lane counts, row
/// `head + (c - base)` holding cycle `c`, lane-indexed within the row.
#[derive(Debug, Clone, Default)]
struct DenseWindow {
    /// Dead rows at the front of `used` awaiting compaction.
    head: usize,
    /// Length is always a multiple of [`NUM_POOL_LANES`].
    used: Vec<u16>,
}

impl DenseWindow {
    fn live_rows(&self) -> usize {
        self.used.len() / NUM_POOL_LANES - self.head
    }

    /// The counts of the live rows.
    fn live(&self) -> &[u16] {
        &self.used[self.head * NUM_POOL_LANES..]
    }
}

/// Only the live rows travel: a row count, then their counts. Restoring
/// compacts the window (no dead rows).
impl Snap for DenseWindow {
    const MIN_BYTES: usize = 8;

    fn save(&self, w: &mut StateWriter) {
        w.len_of(self.live_rows());
        self.live().save(w);
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> StateResult<()> {
        let rows = r.len_for::<[u16; NUM_POOL_LANES]>()?;
        self.head = 0;
        self.used.clear();
        self.used.resize(rows * NUM_POOL_LANES, 0);
        self.used[..].restore(r)
    }
}

/// An age-ordered occupancy ring modelling a finite buffer (ROB, IQ, LQ, SQ)
/// allocated at one pipeline stage and released at another.
///
/// When entry `i` is allocated, the allocation cannot happen before the release
/// cycle of entry `i - capacity`; `constrain` returns that lower bound and `push`
/// records the release cycle of the new entry. For fetch-group-batched
/// processing, [`OccupancyRing::release_floor_after`] answers the same
/// question for the *k*-th allocation of a group against the pre-group state,
/// so a whole group's floors can be gathered before any entry is pushed.
#[derive(Debug, Clone)]
pub struct OccupancyRing {
    capacity: usize,
    releases: VecDeque<u64>,
}

impl OccupancyRing {
    /// Creates a ring for a structure with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "structure capacity must be non-zero");
        OccupancyRing {
            capacity,
            releases: VecDeque::with_capacity(capacity),
        }
    }

    /// The structure capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Returns the earliest cycle at which a new entry may be allocated, given that
    /// the allocation wants to happen at `cycle`: if the structure is full, the
    /// oldest outstanding entry must have been released first.
    pub fn constrain(&self, cycle: u64) -> u64 {
        cycle.max(self.release_floor_after(0))
    }

    /// The release-cycle floor the `pushes_since`-th upcoming allocation must
    /// respect, measured against the current ring state: with `k` entries
    /// pushed (and, when full, popped) since this state, the oldest
    /// outstanding release is the entry `len + k - capacity` positions from
    /// the front — or there is no floor (0) while the ring still has room.
    ///
    /// `pushes_since` must be smaller than the capacity: beyond that the
    /// floor would depend on the releases of the entries pushed in between,
    /// which this state cannot know. The pipeline batches at most one fetch
    /// group (≤ front width ≤ any structure capacity) per gather.
    pub fn release_floor_after(&self, pushes_since: usize) -> u64 {
        debug_assert!(pushes_since < self.capacity);
        let virt = self.releases.len() + pushes_since;
        if virt < self.capacity {
            0
        } else {
            self.releases[virt - self.capacity]
        }
    }

    /// Records that the entry just allocated will be released at `release_cycle`.
    pub fn push(&mut self, release_cycle: u64) {
        if self.releases.len() == self.capacity {
            self.releases.pop_front();
        }
        self.releases.push_back(release_cycle);
    }

    /// Records a whole fetch group's release cycles in allocation order —
    /// equivalent to that many [`OccupancyRing::push`] calls, paired with the
    /// floors gathered via [`OccupancyRing::release_floor_after`] before the
    /// group was processed.
    pub fn push_group(&mut self, release_cycles: &[u64]) {
        for &c in release_cycles {
            self.push(c);
        }
    }

    /// Clears all occupancy (used on pipeline flushes: squashed entries release
    /// their slots immediately).
    pub fn clear(&mut self) {
        self.releases.clear();
    }

    /// Rejects a restored ring holding more entries than its capacity.
    fn check_restored(&mut self) -> StateResult<()> {
        ensure(
            self.releases.len() <= self.capacity,
            "occupancy ring overfilled",
        )
    }

    /// Validates that the recorded release cycles are age-ordered
    /// (non-decreasing): entries of an in-order-released structure (ROB, LQ,
    /// SQ) free their slots in allocation order, so a younger entry releasing
    /// before an older one means the ring's bookkeeping leaked.
    ///
    /// # Panics
    ///
    /// Panics with a structured `simcheck:` reason on violation. Compiled only
    /// under the `simcheck` feature.
    #[cfg(feature = "simcheck")]
    pub fn check_monotone(&self, name: &str) {
        let mut prev = 0u64;
        for (i, &c) in self.releases.iter().enumerate() {
            assert!(
                c >= prev,
                "simcheck: occupancy ring '{name}': release {i} at cycle {c} precedes {prev}"
            );
            prev = c;
        }
        assert!(
            self.releases.len() <= self.capacity,
            "simcheck: occupancy ring '{name}': {} entries exceed capacity {}",
            self.releases.len(),
            self.capacity
        );
    }
}

snap!(OccupancyRing { releases: VecDeque<u64> } validate check_restored);

#[cfg(test)]
mod tests {
    use super::*;
    use bebop_isa::{restore_snapshot, snapshot};

    #[test]
    fn slot_pool_respects_width() {
        let mut p = SlotPool::new(2);
        assert_eq!(p.allocate(10), 10);
        assert_eq!(p.allocate(10), 10);
        assert_eq!(p.allocate(10), 11);
        assert_eq!(p.allocate(10), 11);
        assert_eq!(p.allocate(10), 12);
    }

    #[test]
    fn slot_pool_allocates_forward_only() {
        let mut p = SlotPool::new(1);
        assert_eq!(p.allocate(5), 5);
        assert_eq!(p.allocate(3), 3);
        assert_eq!(p.allocate(3), 4);
        assert_eq!(p.allocate(3), 6);
    }

    #[test]
    fn slot_pool_prunes() {
        let mut p = SlotPool::new(1);
        for c in 0..100 {
            p.allocate(c);
        }
        assert!(p.tracked_cycles() >= 100);
        p.prune_below(90);
        assert!(p.tracked_cycles() <= 10);
        // Allocations below the horizon are clamped up.
        assert_eq!(p.allocate(0), 100);
    }

    #[test]
    fn slot_pool_far_future_allocation_is_bounded_and_exact() {
        // One absurdly far allocation must cost one overflow entry, not a
        // MAX_DENSE_SPAN-sized dense resize (the pre-fix behaviour).
        let mut p = SlotPool::new(2);
        let far = 10 * MAX_DENSE_SPAN;
        assert_eq!(p.allocate(far), far);
        assert_eq!(p.allocate(far), far);
        assert_eq!(p.allocate(far), far + 1);
        assert!(
            p.tracked_cycles() <= 3,
            "far-future cycles must be tracked sparsely, got {}",
            p.tracked_cycles()
        );
        // Near allocations still use the dense window.
        assert_eq!(p.allocate(5), 5);
        // Pruning past the far cluster drops it; up to it, keeps it exact.
        p.prune_below(far + 1);
        assert_eq!(p.allocate(0), far + 1);
        assert_eq!(p.allocate(0), far + 2);
    }

    #[test]
    fn slot_pool_prune_migrates_far_entries_into_dense_window() {
        let mut p = SlotPool::new(1);
        let far = MAX_DENSE_SPAN + 10;
        assert_eq!(p.allocate(far), far);
        // After pruning, `far` sits inside the dense window; its usage must
        // survive the migration so the next allocation spills past it.
        p.prune_below(far - 5);
        assert_eq!(p.allocate(far), far + 1);
    }

    #[test]
    #[should_panic]
    fn zero_width_pool_panics() {
        let _ = SlotPool::new(0);
    }

    fn widths() -> [u16; NUM_POOL_LANES] {
        [8, 6, 4, 1, 2, 2, 2, 1, 8, 8, 8]
    }

    #[test]
    fn lane_pool_matches_slot_pool_per_lane() {
        let mut lp = LanePool::new(widths());
        let mut refs: Vec<SlotPool> = widths().iter().map(|&w| SlotPool::new(w)).collect();
        // A deterministic mixed request pattern across all lanes.
        let mut c = 0u64;
        for i in 0..2000u64 {
            let lane = Lane::ALL[(i % NUM_POOL_LANES as u64) as usize];
            let req = c + (i * 7) % 23;
            assert_eq!(
                lp.allocate(lane, req),
                refs[lane as usize].allocate(req),
                "lane {} request {req} diverged",
                lane.name()
            );
            if i % 97 == 0 {
                c += 11;
                lp.prune_below(c);
                for r in refs.iter_mut() {
                    r.prune_below(c);
                }
            }
            if i % 131 == 0 {
                lp.prune_lane_below(Lane::Commit, c + 50);
                refs[Lane::Commit as usize].prune_below(c + 50);
            }
        }
    }

    #[test]
    fn lane_pool_group_allocation_equals_repeated_allocate() {
        let mut a = LanePool::new(widths());
        let mut b = LanePool::new(widths());
        let mut out = [0u64; 8];
        a.allocate_group(Lane::Rename, 40, &mut out);
        let expect: Vec<u64> = (0..8).map(|_| b.allocate(Lane::Rename, 40)).collect();
        assert_eq!(&out[..], &expect[..]);
        // A second group at the same cycle spills exactly like repeated calls.
        let mut out2 = [0u64; 8];
        a.allocate_group(Lane::Rename, 40, &mut out2);
        let expect2: Vec<u64> = (0..8).map(|_| b.allocate(Lane::Rename, 40)).collect();
        assert_eq!(&out2[..], &expect2[..]);
    }

    #[test]
    fn lane_pool_generation_counts_prunes() {
        let mut p = LanePool::new(widths());
        assert_eq!(p.generation(), 0);
        p.allocate(Lane::Alu, 10);
        p.prune_below(5);
        p.prune_below(8);
        assert_eq!(p.generation(), 2);
    }

    #[test]
    fn lane_pool_save_restore_round_trip() {
        let mut p = LanePool::new(widths());
        for i in 0..500u64 {
            p.allocate(Lane::ALL[(i % 11) as usize], i / 3);
        }
        p.allocate(Lane::Commit, 5 * MAX_DENSE_SPAN);
        p.prune_below(40);
        p.prune_lane_below(Lane::Commit, 60);
        let bytes = snapshot(&p);
        let mut q = LanePool::new(widths());
        restore_snapshot(&mut q, &bytes).unwrap();
        assert_eq!(q.generation(), p.generation());
        assert_eq!(q.tracked_cycles(), p.tracked_cycles());
        // Identical future behaviour.
        for i in 0..200u64 {
            let lane = Lane::ALL[(i % 11) as usize];
            assert_eq!(p.allocate(lane, 45 + i / 5), q.allocate(lane, 45 + i / 5));
        }
    }

    #[test]
    fn lane_pool_restore_rejects_absurd_horizons() {
        let mut w = StateWriter::new();
        w.u64(0); // base
        w.u64(0); // generation
        for _ in 0..NUM_POOL_LANES {
            w.u64(0); // lane horizons
        }
        w.len_of(MAX_DENSE_SPAN as usize + 1);
        let bytes = w.finish();
        let mut p = LanePool::new(widths());
        assert!(restore_snapshot(&mut p, &bytes).is_err());
        // An overflow cycle claimed inside the dense span.
        let mut q = LanePool::new(widths());
        q.far[Lane::Commit as usize] = [(150, 1)].into_iter().collect();
        assert!(restore_snapshot(&mut p, &snapshot(&q)).is_err());
    }

    #[test]
    fn lane_pool_prune_lane_below_clamps_like_reference_prune() {
        let mut lp = LanePool::new(widths());
        let mut r = SlotPool::new(widths()[Lane::Commit as usize]);
        lp.prune_lane_below(Lane::Commit, 1000);
        r.prune_below(1000);
        assert_eq!(lp.allocate(Lane::Commit, 3), r.allocate(3));
        // Other lanes are unaffected.
        assert_eq!(lp.allocate(Lane::Alu, 3), 3);
    }

    #[test]
    fn occupancy_ring_blocks_when_full() {
        let mut r = OccupancyRing::new(2);
        // Two entries outstanding, released at cycles 100 and 200.
        assert_eq!(r.constrain(10), 10);
        r.push(100);
        assert_eq!(r.constrain(11), 11);
        r.push(200);
        // Third allocation must wait for the first release.
        assert_eq!(r.constrain(12), 100);
        r.push(300);
        // Fourth must wait for the second release.
        assert_eq!(r.constrain(13), 200);
    }

    #[test]
    fn occupancy_ring_release_floor_after_matches_live_pushes() {
        // The batched floors, gathered before any push, must equal what
        // interleaved constrain/push calls would have returned.
        let releases = [100u64, 200, 300, 400, 500];
        for cap in 1..=4usize {
            let mut live = OccupancyRing::new(cap);
            let mut batched = OccupancyRing::new(cap);
            // Pre-populate both with some outstanding entries.
            for &c in &releases[..cap.min(3)] {
                live.push(c);
                batched.push(c);
            }
            let group = [700u64, 800, 900];
            let floors: Vec<u64> = (0..group.len().min(cap))
                .map(|k| batched.release_floor_after(k))
                .collect();
            for (k, &rel) in group.iter().take(floors.len()).enumerate() {
                assert_eq!(
                    live.constrain(0),
                    floors[k],
                    "cap {cap} position {k} diverged"
                );
                live.push(rel);
            }
            batched.push_group(&group[..floors.len()]);
            assert_eq!(live.constrain(0), batched.constrain(0));
        }
    }

    #[test]
    fn occupancy_ring_clear_resets() {
        let mut r = OccupancyRing::new(1);
        r.push(1000);
        assert_eq!(r.constrain(0), 1000);
        r.clear();
        assert_eq!(r.constrain(0), 0);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_ring_panics() {
        let _ = OccupancyRing::new(0);
    }
}
