//! Low-level resource bookkeeping used by the pipeline timing model: per-cycle
//! bandwidth pools and age-ordered occupancy rings.
//!
//! The bandwidth pool is the [`LanePool`]: every resource class is a *lane*
//! with its own horizon and a power-of-two ring of cycle-tagged counters, so
//! an allocation costs one masked load however far past the horizon it
//! lands, and pruning is a store per lane. Its allocation semantics are
//! those of a scalar slot pool with one deque of per-cycle counts per
//! resource class; that reference model lives in the test support
//! (`tests/support/slot_pool.rs`) as the differential-testing oracle.
//!
//! The pool bounds its bookkeeping: the dense window never grows past
//! [`MAX_DENSE_SPAN`] cycles, far-future allocations (a pathological latency
//! sum would otherwise balloon the dense storage unboundedly) spill into an
//! exact sparse overflow, and restore rejects payloads claiming absurd
//! horizons.

use bebop_isa::{ensure, snap, ExecClass, Snap, StateReader, StateResult, StateWriter};
use std::collections::BTreeMap;

/// Upper bound on the cycle span of a pool's *dense* window. Allocations
/// further than this past the pruning horizon are tracked exactly in a sparse
/// overflow map instead of growing the dense storage — one far-future cycle
/// (a pathological latency sum, or a corrupt restored checkpoint) must cost
/// one map entry, not a quarter-million zero-filled deque slots.
pub const MAX_DENSE_SPAN: u64 = 1 << 18;

/// Sanity bound on simultaneously tracked sparse far-future cycles per
/// resource class. Legitimate simulations keep at most an in-flight window's
/// worth of far-future allocations alive (the pipeline prunes each lane to
/// its monotone floor every fetch group); crossing this bound means runaway
/// state and dies with a structured panic instead of creeping towards OOM.
pub const MAX_OVERFLOW_TRACKED: usize = 1 << 20;

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

    /// The functional-unit lane that executes µ-ops of `class`.
    pub fn for_class(class: ExecClass) -> Lane {
        match class {
            ExecClass::Alu => Lane::Alu,
            ExecClass::MulDiv => Lane::MulDiv,
            ExecClass::Fp => Lane::Fp,
            ExecClass::FpMulDiv => Lane::FpMulDiv,
            ExecClass::Load => Lane::Load,
            ExecClass::Store => Lane::Store,
        }
    }

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

/// Bits of a ring tag holding the slot count; the cycle sits above them.
const COUNT_BITS: u32 = 16;

/// Mask of the slot-count bits of a ring tag.
const COUNT_MASK: u64 = (1 << COUNT_BITS) - 1;

/// First cycle a ring tag cannot hold. No simulation gets near it (2^48
/// cycles is days of simulated time). A horizon within a dense span of it
/// means runaway state: raising one there dies with a structured panic and
/// restore rejects one, so every dense cycle a lane tags lies below it.
const TAG_LIMIT: u64 = 1 << (64 - COUNT_BITS);

/// Ring slots a lane starts with; rings grow by powers of two up to
/// [`MAX_DENSE_SPAN`] and never shrink, so the steady state never allocates.
const INITIAL_RING: usize = 64;

/// One resource class of a [`LanePool`]: its own horizon and a power-of-two
/// ring of cycle-tagged counters.
///
/// Slot `c & (cap - 1)` holds the tag `c << COUNT_BITS | used` of cycle `c`.
/// Every live tag lies in `[base, base + cap)`, so at most one live cycle maps
/// to a slot: a slot whose tag names another cycle — necessarily one below
/// `base` — counts as free. Idle cycles are therefore never zero-filled, and
/// raising the horizon is a single store.
#[derive(Debug, Clone)]
struct LaneRing {
    /// Slots available per cycle.
    width: u16,
    /// The lane's horizon: allocations below it are clamped up to it.
    base: u64,
    /// Tagged counters; the length is a power of two at most
    /// [`MAX_DENSE_SPAN`].
    ring: Vec<u64>,
    /// Exact overflow for cycles at least [`MAX_DENSE_SPAN`] past `base`:
    /// cycle → used count. Empty in every healthy steady state.
    far: BTreeMap<u64, u16>,
}

impl LaneRing {
    fn new(width: u16) -> Self {
        LaneRing {
            width,
            base: 0,
            ring: vec![0; INITIAL_RING],
            far: BTreeMap::new(),
        }
    }

    /// The ring slot of cycle `c`.
    fn slot(&self, c: u64) -> usize {
        // CAST: masked by the power-of-two ring length.
        c as usize & (self.ring.len() - 1)
    }

    /// Slots of cycle `c` already used, for `base <= c < base + MAX_DENSE_SPAN`.
    fn used(&self, c: u64) -> u16 {
        let tag = self.ring[self.slot(c)];
        if tag >> COUNT_BITS == c {
            // CAST: the low COUNT_BITS bits are the count.
            (tag & COUNT_MASK) as u16
        } else {
            0
        }
    }

    /// Sets the count of cycle `c`, `base <= c < base + MAX_DENSE_SPAN`,
    /// growing the ring when `c` lies past it.
    fn set(&mut self, c: u64, used: u16) {
        let span = c - self.base;
        if span >= self.ring.len() as u64 {
            self.grow(span);
        }
        let i = self.slot(c);
        self.ring[i] = c << COUNT_BITS | u64::from(used);
    }

    /// Whether `tag` records usage of a cycle at or above the horizon. A
    /// zero count is never live: fresh slots hold the all-zero tag.
    fn is_live(&self, tag: u64) -> bool {
        tag >> COUNT_BITS >= self.base && tag & COUNT_MASK != 0
    }

    /// Re-homes the live tags in a ring long enough to hold `span`.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, span: u64) {
        // CAST: span < MAX_DENSE_SPAN, far below usize::MAX.
        let cap = (span as usize + 1).next_power_of_two();
        let mut ring = vec![0; cap];
        for &tag in &self.ring {
            if self.is_live(tag) {
                // CAST: masked by the power-of-two ring length.
                ring[(tag >> COUNT_BITS) as usize & (cap - 1)] = tag;
            }
        }
        self.ring = ring;
    }

    /// The live tags in cycle order.
    fn live(&self) -> impl Iterator<Item = u64> + '_ {
        let (tail, head) = self.ring.split_at(self.slot(self.base));
        head.iter()
            .chain(tail)
            .copied()
            .filter(|&tag| self.is_live(tag))
    }

    /// Allocates one slot at the earliest cycle `>= floor` past a full run
    /// of the ring, in the sparse overflow.
    #[cold]
    #[inline(never)]
    fn allocate_far(&mut self, lane: Lane, floor: u64) -> u64 {
        let mut c = floor;
        while self.far.get(&c).is_some_and(|&u| u >= self.width) {
            c += 1;
        }
        *self.far.entry(c).or_insert(0) += 1;
        assert!(
            self.far.len() <= MAX_OVERFLOW_TRACKED,
            "resource: lane pool '{}': {} far-future cycles tracked (allocation at cycle {c}, horizon {}) — runaway latency sum or corrupt state",
            lane.name(),
            self.far.len(),
            self.base
        );
        c
    }

    /// Raises the horizon to `cycle` (never lowers it). Overflow entries the
    /// new horizon pulls inside the dense span move into the ring, entries
    /// below it are dropped, so ring and overflow keep disjoint, exact
    /// coverage.
    fn raise_base(&mut self, cycle: u64) {
        if cycle <= self.base {
            return;
        }
        assert!(
            cycle <= TAG_LIMIT - MAX_DENSE_SPAN,
            "resource: lane pool: horizon {cycle} beyond the tag range — runaway latency sum or corrupt state"
        );
        self.base = cycle;
        if !self.far.is_empty() {
            self.migrate_far();
        }
    }

    /// Moves the overflow entries the raised horizon pulled inside the dense
    /// span into the ring and drops those below it.
    #[cold]
    #[inline(never)]
    fn migrate_far(&mut self) {
        let dense_end = self.base.saturating_add(MAX_DENSE_SPAN);
        while let Some((&c, &u)) = self.far.first_key_value() {
            if c >= dense_end {
                break;
            }
            self.far.pop_first();
            if c >= self.base {
                self.set(c, u);
            }
        }
    }

    /// Rejects a restored lane the pool could never reach.
    fn check_restored(&self, tags: &[u64]) -> StateResult<()> {
        ensure(
            self.base <= TAG_LIMIT - MAX_DENSE_SPAN,
            "lane pool horizon beyond the tag range",
        )?;
        let dense_end = self.base + MAX_DENSE_SPAN;
        ensure(
            tags.iter()
                .all(|&t| (self.base..dense_end).contains(&(t >> COUNT_BITS))),
            "lane pool tag outside the lane's window",
        )?;
        ensure(
            tags.windows(2)
                .all(|w| w[0] >> COUNT_BITS < w[1] >> COUNT_BITS),
            "lane pool tags not in cycle order",
        )?;
        ensure(
            tags.iter()
                .all(|&t| (1..=u64::from(self.width)).contains(&(t & COUNT_MASK))),
            "lane pool usage exceeds lane width",
        )?;
        ensure(
            self.far.len() <= MAX_OVERFLOW_TRACKED,
            "lane pool overflow count exceeds bound",
        )?;
        ensure(
            self.far.keys().all(|&c| c >= dense_end),
            "lane pool overflow cycle inside dense span",
        )?;
        ensure(
            self.far.values().all(|&u| u > 0 && u <= self.width),
            "lane pool overflow usage out of range",
        )
    }
}

/// Only the live tags travel, in cycle order: the horizon, the tag count and
/// tags, then the overflow. Restore rebuilds a ring just long enough for them.
impl Snap for LaneRing {
    const MIN_BYTES: usize = 8 + 8 + 8;

    fn save(&self, w: &mut StateWriter) {
        w.u64(self.base);
        w.len_of(self.live().count());
        for tag in self.live() {
            w.u64(tag);
        }
        self.far.save(w);
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> StateResult<()> {
        self.base = r.u64()?;
        let n = r.len_for::<u64>()?;
        let tags = (0..n).map(|_| r.u64()).collect::<StateResult<Vec<u64>>>()?;
        self.far.restore(r)?;
        self.check_restored(&tags)?;
        self.ring.clear();
        self.ring.resize(INITIAL_RING, 0);
        for &tag in &tags {
            // CAST: check_restored bounded the count by the u16 lane width.
            self.set(tag >> COUNT_BITS, (tag & COUNT_MASK) as u16);
        }
        Ok(())
    }
}

/// All of the pipeline's per-cycle bandwidth resources as *lanes* of one
/// pool. Each lane owns its horizon, a power-of-two ring of cycle-tagged
/// counters covering the cycles just past it (see `LaneRing`), and an exact
/// sparse overflow for allocations at least [`MAX_DENSE_SPAN`] past it.
///
/// A µ-op costs the same whether its allocations land 1 or 10 000 cycles
/// past the horizon: the slot is found by masking the cycle, idle cycles are
/// never materialised, and pruning only raises horizons — so the pipeline
/// prunes every fetch group, which keeps every lane's live window (and with
/// it the ring and the checkpoint payload) as short as the in-flight window.
///
/// The *generation* counts the shared prunes that advanced the shared
/// horizon: it stamps every checkpoint payload, and a restored pool resumes
/// with the same horizons and generation a continuous run would carry, so
/// divergence after resume is detectable rather than silent. Repeating a
/// prune is free and leaves the generation alone, so a fetch group the
/// pipeline processes in two parts (a run stopped mid-group for a
/// checkpoint) ends in the same state as one processed whole.
///
/// Allocation semantics are identical to one scalar slot pool per lane — the
/// differential property tests in `tests/integration_properties.rs` assert
/// exactly that, allocation for allocation.
#[derive(Debug, Clone)]
pub struct LanePool {
    lanes: [LaneRing; NUM_POOL_LANES],
    /// The highest cycle passed to [`LanePool::prune_below`].
    horizon: u64,
    /// Number of shared prunes that advanced `horizon` (the pool's
    /// *generation*).
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
            lanes: widths.map(LaneRing::new),
            horizon: 0,
            generation: 0,
        }
    }

    /// The per-cycle width of `lane`.
    pub fn width(&self, lane: Lane) -> u16 {
        self.lanes[lane as usize].width
    }

    /// Number of shared prunes that advanced the shared horizon so far.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of cycles currently tracked across rings and overflow
    /// (test/diagnostic aid).
    pub fn tracked_cycles(&self) -> usize {
        self.lanes
            .iter()
            .map(|l| l.live().count() + l.far.len())
            .sum()
    }

    /// Allocates one `lane` slot at the earliest cycle `>= cycle`, returning
    /// that cycle — bit-identical to `SlotPool::allocate` on a pool of the
    /// same width, horizon and usage history.
    ///
    /// # Panics
    ///
    /// Panics with a structured `resource:` reason when the lane would track
    /// more than [`MAX_OVERFLOW_TRACKED`] far-future cycles.
    #[inline]
    pub fn allocate(&mut self, lane: Lane, cycle: u64) -> u64 {
        let l = &mut self.lanes[lane as usize];
        let dense_end = l.base.saturating_add(MAX_DENSE_SPAN);
        let mask = l.ring.len() - 1;
        let mut c = cycle.max(l.base);
        while c < dense_end {
            if c - l.base > mask as u64 {
                l.set(c, 1);
                return c;
            }
            // CAST: masked by the power-of-two ring length.
            let i = c as usize & mask;
            let tag = l.ring[i];
            // Branch-free fresh-or-existing test: which one a slot holds is
            // data-dependent, so branching on it mispredicts on the host.
            let used = if tag >> COUNT_BITS == c {
                tag & COUNT_MASK
            } else {
                0
            };
            if used < u64::from(l.width) {
                l.ring[i] = c << COUNT_BITS | (used + 1);
                return c;
            }
            c += 1;
        }
        l.allocate_far(lane, c)
    }

    /// Allocates one `lane` slot per element of `out`, all requesting `cycle`,
    /// exactly as that many successive [`LanePool::allocate`] calls would, and
    /// writes each allocation's cycle to `out`. The common case — a fetch
    /// group's rename slots, whose width equals the front width — fills one
    /// fresh cycle with a single counter update.
    pub fn allocate_group(&mut self, lane: Lane, cycle: u64, out: &mut [u64]) {
        let l = &mut self.lanes[lane as usize];
        let floor = cycle.max(l.base);
        let n = u16::try_from(out.len()).ok().filter(|&n| n <= l.width);
        if let Some(n) = n {
            if floor - l.base < MAX_DENSE_SPAN {
                let used = l.used(floor);
                if used + n <= l.width {
                    l.set(floor, used + n);
                    out.fill(floor);
                    return;
                }
            }
        }
        for o in out.iter_mut() {
            *o = self.allocate(lane, cycle);
        }
    }

    /// Drops bookkeeping for all cycles strictly below `cycle` in every lane.
    /// Future allocations below `cycle` are clamped up to it. Bumps the
    /// generation when `cycle` passes every earlier shared prune (and the
    /// initial horizon 0); otherwise does nothing.
    ///
    /// # Panics
    ///
    /// Panics with a structured `resource:` reason when `cycle` lies within
    /// [`MAX_DENSE_SPAN`] of the 2^48-cycle tag range; so does
    /// [`LanePool::prune_lane_below`].
    pub fn prune_below(&mut self, cycle: u64) {
        if cycle <= self.horizon {
            return;
        }
        self.horizon = cycle;
        self.generation += 1;
        for l in &mut self.lanes {
            l.raise_base(cycle);
        }
    }

    /// Raises one lane's horizon: bookkeeping for that lane below `cycle` is
    /// dead, exactly like `SlotPool::prune_below` on the lane's reference
    /// pool. Used for lanes whose request stream has a monotone floor — the
    /// commit lane never requests below `last_commit`, the execution lanes
    /// never below the ROB's oldest outstanding release — so their live
    /// windows stay as short as the in-flight window even when fetch
    /// decouples far behind commit.
    pub fn prune_lane_below(&mut self, lane: Lane, cycle: u64) {
        self.lanes[lane as usize].raise_base(cycle);
    }

    /// Validates the pool's conservation invariant lane by lane — no cycle may
    /// consume more slots than its lane's width — and its layout: every live
    /// tag inside `[base, base + ring length)`, ring length a power of two
    /// within [`MAX_DENSE_SPAN`], overflow cycles past the dense span and at
    /// most [`MAX_OVERFLOW_TRACKED`] of them.
    ///
    /// # Panics
    ///
    /// Panics with a structured `simcheck:` reason on violation. Compiled only
    /// under the `simcheck` feature.
    #[cfg(feature = "simcheck")]
    pub fn check_conservation(&self) {
        for (l, lane) in self.lanes.iter().zip(Lane::ALL) {
            let name = lane.name();
            let cap = l.ring.len() as u64;
            assert!(
                cap.is_power_of_two() && cap <= MAX_DENSE_SPAN,
                "simcheck: lane pool '{name}': ring length {cap} is not a power of two within the dense span"
            );
            for (i, &tag) in l.ring.iter().enumerate() {
                if !l.is_live(tag) {
                    continue;
                }
                let c = tag >> COUNT_BITS;
                assert!(
                    c - l.base < cap && l.slot(c) == i,
                    "simcheck: lane pool '{name}': tag for cycle {c} in slot {i} outside the window at {}",
                    l.base
                );
                assert!(
                    tag & COUNT_MASK <= u64::from(l.width),
                    "simcheck: lane pool '{name}': cycle {c} uses {} of {} slots",
                    tag & COUNT_MASK,
                    l.width
                );
            }
            for (&c, &u) in &l.far {
                assert!(
                    u > 0 && u <= l.width && c - l.base >= MAX_DENSE_SPAN,
                    "simcheck: lane pool '{name}': far cycle {c} (horizon {}) uses {u} of {} slots",
                    l.base,
                    l.width
                );
            }
            assert!(
                l.far.len() <= MAX_OVERFLOW_TRACKED,
                "simcheck: lane pool '{name}': {} far-future cycles exceed the growth bound",
                l.far.len()
            );
        }
    }
}

snap!(LanePool {
    horizon: u64,
    generation: u64,
    lanes: [LaneRing; NUM_POOL_LANES],
});

/// An age-ordered occupancy ring modelling a finite buffer (ROB, IQ, LQ, SQ)
/// allocated at one pipeline stage and released at another.
///
/// When entry `i` is allocated, the allocation cannot happen before the release
/// cycle of entry `i - capacity`; `constrain` returns that lower bound and `push`
/// records the release cycle of the new entry. For fetch-group-batched
/// processing, [`OccupancyRing::release_floor_after`] answers the same
/// question for the *k*-th allocation of a group against the pre-group state,
/// so a whole group's floors can be gathered before any entry is pushed.
///
/// Storage is a fixed `capacity`-long buffer with a head and a length, so
/// pushing never allocates.
#[derive(Debug, Clone)]
pub struct OccupancyRing {
    /// Release cycles, oldest at `head`; the length is the capacity.
    releases: Vec<u64>,
    head: usize,
    len: usize,
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
            releases: vec![0; capacity],
            head: 0,
            len: 0,
        }
    }

    /// The structure capacity.
    pub fn capacity(&self) -> usize {
        self.releases.len()
    }

    /// Buffer index of the entry `pos` places from the oldest, `pos < 2 * capacity`.
    fn index(&self, pos: usize) -> usize {
        let i = self.head + pos;
        if i >= self.capacity() {
            i - self.capacity()
        } else {
            i
        }
    }

    /// The outstanding release cycles, oldest first.
    fn outstanding(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.len).map(|k| self.releases[self.index(k)])
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
        debug_assert!(pushes_since < self.capacity());
        let virt = self.len + pushes_since;
        if virt < self.capacity() {
            0
        } else {
            self.releases[self.index(virt - self.capacity())]
        }
    }

    /// Records that the entry just allocated will be released at `release_cycle`.
    pub fn push(&mut self, release_cycle: u64) {
        if self.len == self.capacity() {
            self.releases[self.head] = release_cycle;
            self.head = self.index(1);
        } else {
            let i = self.index(self.len);
            self.releases[i] = release_cycle;
            self.len += 1;
        }
    }

    /// Records a whole fetch group's release cycles in allocation order —
    /// equivalent to that many [`OccupancyRing::push`] calls, paired with the
    /// floors gathered via [`OccupancyRing::release_floor_after`] before the
    /// group was processed.
    pub fn push_group(&mut self, release_cycles: &[u64]) {
        let cap = self.capacity();
        if release_cycles.len() > cap {
            release_cycles.iter().for_each(|&c| self.push(c));
            return;
        }
        // Write behind the newest entry, then drop whatever the group pushed
        // past the capacity from the front.
        let mut tail = self.index(self.len);
        for &c in release_cycles {
            self.releases[tail] = c;
            tail = if tail + 1 == cap { 0 } else { tail + 1 };
        }
        let total = self.len + release_cycles.len();
        if total > cap {
            self.head = self.index(total - cap);
            self.len = cap;
        } else {
            self.len = total;
        }
    }

    /// Clears all occupancy (used on pipeline flushes: squashed entries release
    /// their slots immediately).
    pub fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }

    /// Validates that the recorded release cycles are age-ordered
    /// (non-decreasing) and within capacity: entries of an in-order-released
    /// structure (ROB, LQ, SQ) free their slots in allocation order, so a
    /// younger entry releasing before an older one means the ring's
    /// bookkeeping leaked.
    ///
    /// # Panics
    ///
    /// Panics with a structured `simcheck:` reason on violation. Compiled only
    /// under the `simcheck` feature.
    #[cfg(feature = "simcheck")]
    pub fn check_monotone(&self, name: &str) {
        assert!(
            self.len <= self.capacity() && self.head < self.capacity(),
            "simcheck: occupancy ring '{name}': {} entries from slot {} exceed capacity {}",
            self.len,
            self.head,
            self.capacity()
        );
        let mut prev = 0u64;
        for (i, c) in self.outstanding().enumerate() {
            assert!(
                c >= prev,
                "simcheck: occupancy ring '{name}': release {i} at cycle {c} precedes {prev}"
            );
            prev = c;
        }
    }
}

/// The outstanding releases travel oldest first behind a length, the way a
/// `VecDeque<u64>` encodes; restore rejects more than the capacity.
impl Snap for OccupancyRing {
    const MIN_BYTES: usize = 8;

    fn save(&self, w: &mut StateWriter) {
        w.len_of(self.len);
        for c in self.outstanding() {
            w.u64(c);
        }
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> StateResult<()> {
        let n = r.len_for::<u64>()?;
        ensure(n <= self.capacity(), "occupancy ring overfilled")?;
        self.head = 0;
        self.len = n;
        self.releases[..n].restore(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slot_pool::SlotPool;
    use bebop_isa::{restore_snapshot, snapshot};
    use std::collections::VecDeque;

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

    /// A pool payload whose lanes are all empty at horizon 0 except `lane`,
    /// which carries `base`, `tags` and the overflow `far`.
    fn pool_payload(lane: Lane, base: u64, tags: &[u64], far: &[(u64, u16)]) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.u64(0); // horizon
        w.u64(0); // generation
        for l in Lane::ALL {
            if l == lane {
                w.u64(base);
                w.len_of(tags.len());
                for &t in tags {
                    w.u64(t);
                }
                w.len_of(far.len());
                for &(c, u) in far {
                    w.u64(c);
                    w.u16(u);
                }
            } else {
                w.u64(0);
                w.len_of(0);
                w.len_of(0);
            }
        }
        w.finish()
    }

    fn tag(cycle: u64, used: u64) -> u64 {
        cycle << COUNT_BITS | used
    }

    #[test]
    fn lane_pool_restore_rejects_absurd_horizons() {
        let restore = |bytes: &[u8]| restore_snapshot(&mut LanePool::new(widths()), bytes);
        let alu = widths()[Lane::Alu as usize];
        // A well-formed payload restores and re-encodes to the same bytes.
        let good = pool_payload(
            Lane::Alu,
            100,
            &[tag(100, 1), tag(107, u64::from(alu))],
            &[(100 + MAX_DENSE_SPAN, 1)],
        );
        let mut p = LanePool::new(widths());
        restore_snapshot(&mut p, &good).unwrap();
        assert_eq!(snapshot(&p), good);
        assert_eq!(p.allocate(Lane::Alu, 107), 108);
        // A horizon whose dense span runs past the tag range.
        assert!(restore(&pool_payload(Lane::Alu, TAG_LIMIT, &[], &[])).is_err());
        // Tags outside [base, base + MAX_DENSE_SPAN).
        assert!(restore(&pool_payload(Lane::Alu, 100, &[tag(99, 1)], &[])).is_err());
        let past = tag(100 + MAX_DENSE_SPAN, 1);
        assert!(restore(&pool_payload(Lane::Alu, 100, &[past], &[])).is_err());
        // Counts above the lane width, or empty live slots.
        let over = tag(100, u64::from(alu) + 1);
        assert!(restore(&pool_payload(Lane::Alu, 100, &[over], &[])).is_err());
        assert!(restore(&pool_payload(Lane::Alu, 100, &[tag(100, 0)], &[])).is_err());
        // Tags out of cycle order, or one cycle twice.
        let unordered = [tag(105, 1), tag(101, 1)];
        assert!(restore(&pool_payload(Lane::Alu, 100, &unordered, &[])).is_err());
        assert!(restore(&pool_payload(Lane::Alu, 100, &[tag(101, 1); 2], &[])).is_err());
        // An overflow cycle claimed inside the dense span, or over width.
        assert!(restore(&pool_payload(Lane::Commit, 0, &[], &[(150, 1)])).is_err());
        let far_over = [(MAX_DENSE_SPAN, 9)];
        assert!(restore(&pool_payload(Lane::Commit, 0, &[], &far_over)).is_err());
        // A tag count larger than the payload could hold.
        let mut w = StateWriter::new();
        w.u64(0); // horizon
        w.u64(0); // generation
        w.u64(0); // rename lane base
        w.len_of(MAX_DENSE_SPAN as usize + 1);
        assert!(restore(&w.finish()).is_err());
    }

    #[test]
    fn lane_pool_ring_tracks_only_the_live_window() {
        // A lane whose horizon trails its requests keeps a short ring however
        // far the cycles have advanced: slots are found by masking the cycle,
        // never by materialising the cycles in between.
        let mut p = LanePool::new(widths());
        let commit = widths()[Lane::Commit as usize];
        for round in 1..=100u64 {
            let at = round * 10_000;
            p.prune_lane_below(Lane::Commit, at - 10);
            for _ in 0..commit {
                assert_eq!(p.allocate(Lane::Commit, at), at);
            }
            assert_eq!(p.allocate(Lane::Commit, at), at + 1);
            assert_eq!(p.allocate(Lane::Commit, 0), at - 10);
        }
        assert_eq!(p.lanes[Lane::Commit as usize].ring.len(), INITIAL_RING);
        assert_eq!(p.tracked_cycles(), 3);
        p.prune_below(2_000_000);
        assert_eq!(p.tracked_cycles(), 0);
    }

    /// Allocates `n` slots of `lane` at `req` in both pools, checking that
    /// they agree, and returns the last cycle.
    fn allocate_both(lp: &mut LanePool, r: &mut SlotPool, lane: Lane, req: u64, n: u16) -> u64 {
        let mut got = 0;
        for k in 0..n {
            got = lp.allocate(lane, req);
            assert_eq!(got, r.allocate(req), "request {req}, allocation {k}");
        }
        got
    }

    #[test]
    fn lane_pool_allocate_edges_match_slot_pool() {
        let lane = Lane::Alu;
        let w = widths()[lane as usize];
        let mut lp = LanePool::new(widths());
        let mut r = SlotPool::new(w);
        let ring_len = |lp: &LanePool| lp.lanes[lane as usize].ring.len() as u64;
        let prune = |lp: &mut LanePool, r: &mut SlotPool, cycle: u64| {
            lp.prune_lane_below(lane, cycle);
            r.prune_below(cycle);
        };

        // A slot holding a full tag of a cycle below the horizon is free.
        assert_eq!(allocate_both(&mut lp, &mut r, lane, 5, w), 5);
        prune(&mut lp, &mut r, 6);
        let aliased = 5 + INITIAL_RING as u64;
        assert_eq!(lp.lanes[lane as usize].ring[5], tag(5, u64::from(w)));
        assert_eq!(allocate_both(&mut lp, &mut r, lane, aliased, w), aliased);
        // The next cycle lies past the ring, which grows to hold it.
        assert_eq!(
            allocate_both(&mut lp, &mut r, lane, aliased, 1),
            aliased + 1
        );

        // Requests exactly at and one past the ring length grow the ring.
        let base = 200;
        prune(&mut lp, &mut r, base);
        let len = ring_len(&lp);
        let at = base + len;
        assert_eq!(allocate_both(&mut lp, &mut r, lane, at, 1), at);
        assert_eq!(ring_len(&lp), 2 * len);
        let past = base + ring_len(&lp) + 1;
        assert_eq!(allocate_both(&mut lp, &mut r, lane, past, 1), past);
        assert_eq!(ring_len(&lp), 4 * len);
        // A full last ring cycle spills onto the ring length itself.
        let last = base + ring_len(&lp) - 1;
        assert_eq!(allocate_both(&mut lp, &mut r, lane, last, w), last);
        assert_eq!(allocate_both(&mut lp, &mut r, lane, last, 1), last + 1);
        assert_eq!(ring_len(&lp), 8 * len);
        // Growth re-homed the earlier counts.
        assert_eq!(allocate_both(&mut lp, &mut r, lane, at, w - 1), at);
        assert_eq!(allocate_both(&mut lp, &mut r, lane, at, 1), at + 1);

        // A request below the horizon is clamped up to it.
        prune(&mut lp, &mut r, 10_000);
        assert_eq!(allocate_both(&mut lp, &mut r, lane, 3, w), 10_000);
        assert_eq!(allocate_both(&mut lp, &mut r, lane, 3, 1), 10_001);
    }

    #[test]
    #[should_panic(expected = "beyond the tag range")]
    fn lane_pool_refuses_a_horizon_past_the_tag_range() {
        let mut p = LanePool::new(widths());
        p.prune_below(TAG_LIMIT - MAX_DENSE_SPAN);
        p.prune_below(TAG_LIMIT - MAX_DENSE_SPAN + 1);
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

    /// The `VecDeque` occupancy model the fixed ring replaced.
    struct RingRef {
        capacity: usize,
        releases: VecDeque<u64>,
    }

    impl RingRef {
        fn floor_after(&self, k: usize) -> u64 {
            let virt = self.releases.len() + k;
            if virt < self.capacity {
                0
            } else {
                self.releases[virt - self.capacity]
            }
        }

        fn push(&mut self, c: u64) {
            if self.releases.len() == self.capacity {
                self.releases.pop_front();
            }
            self.releases.push_back(c);
        }
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

        // Seeded differential run against the `VecDeque` model: single and
        // group pushes, every floor, clears, and a snapshot round-trip that
        // must restore to a ring in lockstep (and to the same bytes).
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        for case in 0..64 {
            let cap = 1 + next(12) as usize;
            let mut ring = OccupancyRing::new(cap);
            let mut model = RingRef {
                capacity: cap,
                releases: VecDeque::new(),
            };
            let mut release = 0u64;
            for step in 0..200 {
                for k in 0..cap {
                    assert_eq!(
                        ring.release_floor_after(k),
                        model.floor_after(k),
                        "case {case} step {step} floor {k}"
                    );
                }
                match next(16) {
                    0 => {
                        ring.clear();
                        model.releases.clear();
                    }
                    1 => {
                        let copy = ring.clone();
                        let bytes = snapshot(&ring);
                        ring = OccupancyRing::new(cap);
                        restore_snapshot(&mut ring, &bytes).unwrap();
                        assert_eq!(snapshot(&ring), bytes, "case {case} step {step}");
                        assert_eq!(snapshot(&copy), bytes);
                    }
                    2..=7 => {
                        let group: Vec<u64> = (0..1 + next(cap as u64))
                            .map(|_| {
                                release += next(9);
                                release
                            })
                            .collect();
                        ring.push_group(&group);
                        group.iter().for_each(|&c| model.push(c));
                    }
                    _ => {
                        release += next(9);
                        ring.push(release);
                        model.push(release);
                    }
                }
                let expect: Vec<u64> = model.releases.iter().copied().collect();
                assert_eq!(ring.outstanding().collect::<Vec<_>>(), expect);
            }
        }
    }

    #[test]
    fn occupancy_ring_restore_rejects_overfill() {
        let mut w = StateWriter::new();
        w.len_of(3);
        for c in [1u64, 2, 3] {
            w.u64(c);
        }
        let bytes = w.finish();
        assert!(restore_snapshot(&mut OccupancyRing::new(2), &bytes).is_err());
        let mut r = OccupancyRing::new(3);
        restore_snapshot(&mut r, &bytes).unwrap();
        assert_eq!(r.constrain(0), 1);
    }

    #[test]
    fn occupancy_ring_clear_resets() {
        let mut r = OccupancyRing::new(1);
        r.push(1000);
        assert_eq!(r.constrain(0), 1000);
        r.clear();
        assert_eq!(r.constrain(0), 0);
    }

    #[cfg(feature = "simcheck")]
    #[test]
    fn simcheck_accepts_live_pools_and_rings() {
        let mut p = LanePool::new(widths());
        let mut ring = OccupancyRing::new(4);
        for i in 0..5000u64 {
            let lane = Lane::ALL[(i % 11) as usize];
            p.allocate(lane, i / 2 + (i * 7) % 300);
            if i % 50 == 0 {
                p.prune_below(i / 3);
                p.prune_lane_below(Lane::Commit, i / 2);
            }
            ring.push(i);
            p.check_conservation();
            ring.check_monotone("rob");
        }
        p.allocate(Lane::Alu, 3 * MAX_DENSE_SPAN);
        p.check_conservation();
    }

    #[cfg(feature = "simcheck")]
    #[test]
    #[should_panic(expected = "simcheck: lane pool 'alu'")]
    fn simcheck_catches_an_overfull_cycle() {
        let mut p = LanePool::new(widths());
        p.allocate(Lane::Alu, 10);
        let l = &mut p.lanes[Lane::Alu as usize];
        let i = l.slot(10);
        l.ring[i] = tag(10, 5);
        p.check_conservation();
    }

    #[cfg(feature = "simcheck")]
    #[test]
    #[should_panic(expected = "simcheck: lane pool 'commit'")]
    fn simcheck_catches_a_misplaced_tag() {
        let mut p = LanePool::new(widths());
        p.allocate(Lane::Commit, 10);
        let l = &mut p.lanes[Lane::Commit as usize];
        let i = l.slot(11);
        l.ring[i] = tag(10, 1);
        p.check_conservation();
    }

    #[cfg(feature = "simcheck")]
    #[test]
    #[should_panic(expected = "simcheck: lane pool 'load'")]
    fn simcheck_catches_an_overflow_entry_inside_the_dense_span() {
        let mut p = LanePool::new(widths());
        p.lanes[Lane::Load as usize].far.insert(100, 1);
        p.check_conservation();
    }

    #[cfg(feature = "simcheck")]
    #[test]
    #[should_panic(expected = "simcheck: occupancy ring 'rob'")]
    fn simcheck_catches_an_out_of_order_release() {
        let mut ring = OccupancyRing::new(4);
        ring.push_group(&[10, 30, 20]);
        ring.check_monotone("rob");
    }

    #[test]
    #[should_panic]
    fn zero_capacity_ring_panics() {
        let _ = OccupancyRing::new(0);
    }
}
