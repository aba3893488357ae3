//! The scalar slot pool: the reference model `LanePool` is tested against.
//!
//! One deque of per-cycle counts per resource class, plus the exact sparse
//! overflow for far-future cycles. It is test code only, shared by the
//! `bebop-uarch` unit tests and the property tests in
//! `tests/integration_properties.rs` (each includes this file as a module).

use crate::{MAX_DENSE_SPAN, MAX_OVERFLOW_TRACKED};
use std::collections::{BTreeMap, VecDeque};

/// Finds the earliest cycle `>= c` with a free slot given dense counts,
/// a sparse overflow, a width and the dense window base: the specification
/// walk, returning the chosen cycle (the caller increments its counter).
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
/// The pipeline itself uses the lane-merged `LanePool`, which the differential
/// tests hold allocation-for-allocation identical to a bank of `SlotPool`s.
#[derive(Debug, Clone)]
pub struct SlotPool {
    /// Slots available per cycle.
    width: u16,
    /// First cycle represented by `used[0]`.
    base: u64,
    /// Used-slot counts per cycle, starting at `base`; never longer than
    /// `MAX_DENSE_SPAN`.
    used: VecDeque<u16>,
    /// Exact overflow for allocations at least `MAX_DENSE_SPAN` cycles past
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

    /// Allocates one slot at the earliest cycle `>= cycle`, returning that cycle.
    ///
    /// # Panics
    ///
    /// Panics with a structured `resource:` reason when the pool would track
    /// more than `MAX_OVERFLOW_TRACKED` far-future cycles — runaway state
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
}
