//! Sharded predictor storage.
//!
//! Predictor tables were monolithic `Vec<T>`s with no notion of regions or
//! contexts. A [`ShardedTable`] divides the flat entry space into a
//! power-of-two number of contiguous *shards* — shard `s` owns the flat
//! index range `s * slots_per_shard ..`, i.e. the shard is the high bits of
//! the index:
//!
//! * a flat index `i` lives in shard `i / slots_per_shard`, slot
//!   `i % slots_per_shard` — a bijection, so the table's *contents* as a
//!   function of flat index are identical for every shard count and sharding
//!   is purely an observability/partitioning structure (the
//!   `integration_mix` suite asserts simulation bit-identity across shard
//!   counts);
//! * storage stays one flat shard-major allocation, so the simulator's hot
//!   path indexes exactly like the `Vec<T>` it replaces (zero-cost in the
//!   per-µop loop — the per-shard structure is metadata, not an extra
//!   pointer hop), and a shard's slots are contiguous in memory: a context
//!   confined to few shards under a partitioned policy touches a compact,
//!   cache-local region instead of striding across the whole table;
//! * per-shard **occupancy** and **steal** counters make sharing visible:
//!   every ownership-changing write is reported through
//!   [`ShardedTable::note_write`] with the writing context's ASID, and a
//!   write that overwrites another context's entry counts as a steal — the
//!   destructive-aliasing signal the multi-programmed experiments report.
//!
//! Per-context partitioning falls out of the layout for free: under a
//! partitioned sharing policy a context is confined to its own contiguous
//! shard range, which is exactly a sub-slice of flat indices (see
//! `BlockDVtage`'s policy-aware index mapping in the `bebop` core crate).

use bebop_isa::{snap, Snap};

/// Owner marker for a slot nobody has written yet.
const NO_OWNER: u8 = u8::MAX;

/// Per-shard occupancy/steal counters of a [`ShardedTable`], split out so
/// reports can carry them without borrowing the table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardCounters {
    /// Slots currently owned by some context, per shard.
    pub occupancy: Vec<u64>,
    /// Ownership-changing writes that overwrote *another* context's slot,
    /// per shard (cross-context interference).
    pub steals: Vec<u64>,
}

/// A flat table of `T` stored as power-of-two shards, with per-shard
/// occupancy/steal accounting.
///
/// The table is addressed by *flat* index exactly like the `Vec<T>` it
/// replaces; [`ShardedTable::locate`] is the (bijective) flat → `(shard,
/// slot)` mapping. Ownership accounting is entirely side-band: it never
/// affects the stored entries, so two tables with different shard counts hold
/// identical contents after identical writes.
///
/// # Example
///
/// ```
/// use bebop_vp::ShardedTable;
///
/// let mut t: ShardedTable<u64> = ShardedTable::new(0, 64, 4);
/// assert_eq!(t.locate(17), (1, 1)); // 64 entries / 4 shards = 16 slots each
/// *t.get_mut(17) = 99;
/// t.note_write(17, 0);
/// assert_eq!(*t.get(17), 99);
/// assert_eq!(t.counters().occupancy, vec![0, 1, 0, 0]);
/// ```
#[derive(Debug, Clone)]
pub struct ShardedTable<T> {
    /// Flat shard-major storage: shard `s` is `data[s * slots_per_shard ..]`.
    pub(crate) data: Vec<T>,
    /// Per-slot owning ASID (`NO_OWNER` = free), parallel to `data`.
    owners: Vec<u8>,
    num_shards: usize,
    slots_per_shard: usize,
    /// `slots_per_shard - 1` when it is a power of two (mask fast path).
    slot_mask: usize,
    /// `trailing_zeros(slots_per_shard)` when it is a power of two.
    slot_shift: u32,
    pow2_slots: bool,
    occupancy: Vec<u64>,
    steals: Vec<u64>,
}

impl<T: Clone> ShardedTable<T> {
    /// Creates a table of `total` entries filled with `fill`, split into
    /// `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `total` is zero, `shards` is not a power of two, or `shards`
    /// does not divide `total` (shards must be equally sized so the flat →
    /// `(shard, slot)` mapping is a bijection).
    pub fn new(fill: T, total: usize, shards: usize) -> Self {
        assert!(total > 0, "a sharded table cannot be empty");
        assert!(
            shards.is_power_of_two(),
            "shard count {shards} must be a power of two"
        );
        assert_eq!(
            total % shards,
            0,
            "shard count {shards} must divide the entry count {total}"
        );
        let slots_per_shard = total / shards;
        let pow2_slots = slots_per_shard.is_power_of_two();
        ShardedTable {
            data: vec![fill; total],
            owners: vec![NO_OWNER; total],
            num_shards: shards,
            slots_per_shard,
            slot_mask: slots_per_shard.wrapping_sub(1),
            slot_shift: slots_per_shard.trailing_zeros(),
            pow2_slots,
            occupancy: vec![0; shards],
            steals: vec![0; shards],
        }
    }

    /// Total number of entries across all shards.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the table holds no entries (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Entries per shard.
    pub fn slots_per_shard(&self) -> usize {
        self.slots_per_shard
    }

    /// Maps a flat index onto its `(shard, slot)` coordinates. Bijective over
    /// `0..len()`: the property suite checks that distinct flat indices map to
    /// distinct coordinates and that every coordinate is hit.
    #[inline]
    pub fn locate(&self, flat: usize) -> (usize, usize) {
        debug_assert!(flat < self.len(), "flat index {flat} out of bounds");
        if self.pow2_slots {
            (flat >> self.slot_shift, flat & self.slot_mask)
        } else {
            (flat / self.slots_per_shard, flat % self.slots_per_shard)
        }
    }

    /// Reads the entry at a flat index. The storage is one shard-major flat
    /// allocation, so this is a single bounds-checked index — identical in
    /// cost to the monolithic `Vec<T>` the table replaces.
    #[inline]
    pub fn get(&self, flat: usize) -> &T {
        &self.data[flat]
    }

    /// Mutably borrows the entry at a flat index.
    #[inline]
    pub fn get_mut(&mut self, flat: usize) -> &mut T {
        &mut self.data[flat]
    }

    /// Records an ownership-changing write to `flat` by context `asid`:
    /// claiming a free slot bumps the shard's occupancy, overwriting another
    /// context's slot bumps its steal counter. Rewrites by the current owner
    /// change nothing. Pure accounting — the entry itself is untouched.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `asid` is the reserved free marker (`u8::MAX`).
    pub fn note_write(&mut self, flat: usize, asid: u8) {
        debug_assert_ne!(asid, NO_OWNER, "ASID {NO_OWNER} is the free marker");
        let (shard, _) = self.locate(flat);
        let owner = &mut self.owners[flat];
        if *owner == NO_OWNER {
            self.occupancy[shard] += 1;
            *owner = asid;
        } else if *owner != asid {
            self.steals[shard] += 1;
            *owner = asid;
        }
    }

    /// Snapshot of the per-shard occupancy/steal counters.
    pub fn counters(&self) -> ShardCounters {
        ShardCounters {
            occupancy: self.occupancy.clone(),
            steals: self.steals.clone(),
        }
    }

    /// Total cross-context steals across all shards.
    pub fn total_steals(&self) -> u64 {
        self.steals.iter().sum()
    }

    /// Mutably iterates over every entry, shard by shard (flat-index order).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.data.iter_mut()
    }
}

// Entries, ownership map and per-shard counters; the geometry (shard count,
// slot mapping) is configuration, so a restore targets a freshly built table
// of identical shape. The steal counters share the occupancy length prefix.
snap!(impl[T: Snap] ShardedTable<T> {
    data: Vec<T>,
    owners: Vec<u8>,
    occupancy: Vec<u64>,
    steals: [u64],
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locate_is_the_flat_layout_for_one_shard() {
        let t: ShardedTable<u32> = ShardedTable::new(0, 10, 1);
        for i in 0..10 {
            assert_eq!(t.locate(i), (0, i));
        }
        assert_eq!(t.len(), 10);
        assert_eq!(t.num_shards(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn contents_are_shard_count_invariant() {
        // Writing the same values through flat indices must read back
        // identically whatever the shard count — sharding is layout only.
        let mut a: ShardedTable<u64> = ShardedTable::new(0, 256, 1);
        let mut b: ShardedTable<u64> = ShardedTable::new(0, 256, 8);
        for i in 0..256 {
            let v = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            *a.get_mut(i) = v;
            *b.get_mut(i) = v;
        }
        for i in 0..256 {
            assert_eq!(a.get(i), b.get(i), "flat index {i} diverged");
        }
    }

    #[test]
    fn occupancy_and_steals_track_ownership() {
        let mut t: ShardedTable<u8> = ShardedTable::new(0, 16, 4);
        t.note_write(0, 0);
        t.note_write(1, 0);
        t.note_write(0, 0); // same owner: nothing changes
        assert_eq!(t.counters().occupancy, vec![2, 0, 0, 0]);
        assert_eq!(t.total_steals(), 0);
        t.note_write(0, 1); // context 1 steals context 0's slot
        assert_eq!(t.counters().steals, vec![1, 0, 0, 0]);
        assert_eq!(
            t.counters().occupancy,
            vec![2, 0, 0, 0],
            "steals do not change occupancy"
        );
        t.note_write(5, 2);
        assert_eq!(t.counters().occupancy, vec![2, 1, 0, 0]);
    }

    #[test]
    fn iter_mut_visits_every_entry_in_flat_order() {
        let mut t: ShardedTable<usize> = ShardedTable::new(0, 12, 4);
        for (i, e) in t.iter_mut().enumerate() {
            *e = i;
        }
        for i in 0..12 {
            assert_eq!(*t.get(i), i);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_shards_are_rejected() {
        let _: ShardedTable<u8> = ShardedTable::new(0, 12, 3);
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn indivisible_geometry_is_rejected() {
        let _: ShardedTable<u8> = ShardedTable::new(0, 10, 4);
    }
}
