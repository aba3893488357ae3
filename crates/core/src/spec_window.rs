//! The block-based speculative window (Section IV of the paper).
//!
//! D-VTAGE needs the value produced by the *most recent* instance of an instruction
//! to compute the next prediction, and that instance is frequently still in flight.
//! The speculative window holds the prediction blocks of in-flight fetch blocks: it
//! is written as a simple circular buffer (chronological order, no tag match
//! needed) and read associatively by partial tag, with an internal sequence number
//! selecting the most recent matching entry.

use bebop_isa::{ensure, in_program_order, snap, SeqNum, StateResult};
use std::collections::VecDeque;

/// The maximum number of prediction slots per entry (`Npred`) supported by the
/// allocation-free hot path. The paper sweeps 4/6/8 (Figure 6a); fixing the upper
/// bound lets prediction blocks live in copyable arrays instead of heap vectors.
pub const MAX_NPRED: usize = 8;

/// The per-slot speculative values of one prediction block: `None` where no
/// prediction could be computed, and slots at `npred..` always `None`.
pub type SlotPredictions = [Option<u64>; MAX_NPRED];

/// The size of the speculative window (Figure 7b sweeps this from ∞ down to none).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpecWindowSize {
    /// Unbounded window (the idealistic ∞ configuration).
    Unbounded,
    /// A window with the given number of entries.
    Entries(usize),
    /// No speculative window at all ("None" in Figure 7b).
    Disabled,
}

impl SpecWindowSize {
    /// The number of entries used for storage accounting (0 for `Unbounded` and
    /// `Disabled`, which have no defined hardware budget).
    pub fn entries_for_storage(self) -> usize {
        match self {
            SpecWindowSize::Entries(n) => n,
            SpecWindowSize::Unbounded | SpecWindowSize::Disabled => 0,
        }
    }
}

/// One prediction block held in the speculative window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpecWindowEntry {
    /// Partial tag of the fetch block (e.g. 15 bits; false positives are allowed
    /// since value prediction is speculative by nature).
    pub partial_tag: u64,
    /// Sequence number of the first µ-op of the block instance (orders entries).
    pub seq: SeqNum,
    /// The per-slot speculative last values (the predictions made for this block
    /// instance); `None` where no prediction could be computed.
    pub values: SlotPredictions,
}

/// The block-based speculative window.
#[derive(Debug, Clone)]
pub struct SpeculativeWindow {
    entries: VecDeque<SpecWindowEntry>,
    /// Maximum number of entries; `None` models the infinite window of Figure 7b.
    capacity: Option<usize>,
    tag_bits: u32,
}

impl SpeculativeWindow {
    /// Creates a window with the given capacity (`None` = unbounded) and partial
    /// tag width.
    ///
    /// # Panics
    ///
    /// Panics if a capacity of zero is given; use [`SpeculativeWindow::disabled`]
    /// to model the "no speculative window" configuration.
    pub fn new(capacity: Option<usize>, tag_bits: u32) -> Self {
        if let Some(c) = capacity {
            assert!(
                c > 0,
                "use SpeculativeWindow::disabled() for a zero-size window"
            );
        }
        SpeculativeWindow {
            entries: VecDeque::new(),
            capacity,
            tag_bits,
        }
    }

    /// Creates a window from a [`SpecWindowSize`].
    pub fn with_size(size: SpecWindowSize, tag_bits: u32) -> Self {
        match size {
            SpecWindowSize::Unbounded => SpeculativeWindow::new(None, tag_bits),
            SpecWindowSize::Entries(n) => SpeculativeWindow::new(Some(n), tag_bits),
            SpecWindowSize::Disabled => SpeculativeWindow::disabled(tag_bits),
        }
    }

    /// A disabled window: lookups never hit and pushes are dropped ("None" in
    /// Figure 7b).
    pub fn disabled(tag_bits: u32) -> Self {
        SpeculativeWindow {
            entries: VecDeque::new(),
            capacity: Some(usize::MAX),
            tag_bits: u32::MAX - tag_bits.min(1), // marker, see `is_disabled`
        }
    }

    fn is_disabled(&self) -> bool {
        self.tag_bits > 64
    }

    /// The partial tag of a fetch-block PC.
    pub fn partial_tag(&self, block_pc: u64) -> u64 {
        if self.is_disabled() {
            return 0;
        }
        let bits = self.tag_bits.min(63);
        let block_number = block_pc >> 4;
        let mut v = block_number;
        let mask = (1u64 << bits) - 1;
        let mut acc = 0u64;
        while v != 0 {
            acc ^= v & mask;
            v >>= bits;
        }
        acc
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the window holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Pushes the prediction block of a newly predicted fetch-block instance at the
    /// head. If the window is full, the oldest entry is overwritten (head overlaps
    /// tail, as described in the paper).
    pub fn push(&mut self, block_pc: u64, seq: SeqNum, values: SlotPredictions) {
        if self.is_disabled() {
            return;
        }
        let entry = SpecWindowEntry {
            partial_tag: self.partial_tag(block_pc),
            seq,
            values,
        };
        if let Some(cap) = self.capacity {
            if self.entries.len() == cap {
                self.entries.pop_front();
            }
        }
        self.entries.push_back(entry);
    }

    /// Associatively looks up the most recent entry matching `block_pc`.
    pub fn lookup(&self, block_pc: u64) -> Option<&SpecWindowEntry> {
        if self.is_disabled() {
            return None;
        }
        let tag = self.partial_tag(block_pc);
        // Entries are chronologically ordered, so the most recent match is the last.
        self.entries.iter().rev().find(|e| e.partial_tag == tag)
    }

    /// Drops entries older than the oldest in-flight block: their values have
    /// retired into the Last Value Table and the hardware circular buffer would
    /// overwrite them first anyway. Keeps lookups proportional to the number of
    /// blocks actually in flight.
    pub fn prune_retired(&mut self, oldest_inflight_seq: SeqNum) {
        while let Some(front) = self.entries.front() {
            if front.seq < oldest_inflight_seq {
                self.entries.pop_front();
            } else {
                break;
            }
        }
    }

    /// Rolls back the window on a pipeline flush: drops every entry whose sequence
    /// number is strictly greater than `flush_seq`.
    pub fn squash(&mut self, flush_seq: SeqNum) {
        while let Some(back) = self.entries.back() {
            if back.seq > flush_seq {
                self.entries.pop_back();
            } else {
                break;
            }
        }
    }

    /// Removes the most recent entry if it matches `block_pc` (used by the `Repred`
    /// recovery policy, which discards the head block and re-predicts it).
    pub fn drop_newest_if_block(&mut self, block_pc: u64) -> bool {
        if self.is_disabled() {
            return false;
        }
        let tag = self.partial_tag(block_pc);
        if self
            .entries
            .back()
            .map(|e| e.partial_tag == tag)
            .unwrap_or(false)
        {
            self.entries.pop_back();
            true
        } else {
            false
        }
    }

    /// Clears the window entirely.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Rejects restored contents the window could never hold: more entries
    /// than its capacity, any entry in a disabled window, or entry keys not
    /// strictly increasing.
    fn check_restored(&mut self) -> StateResult<()> {
        ensure(
            self.capacity.map_or(true, |cap| self.entries.len() <= cap),
            "speculative window overfilled",
        )?;
        ensure(
            !self.is_disabled() || self.entries.is_empty(),
            "disabled speculative window has entries",
        )?;
        ensure(
            in_program_order(self.entries.iter().map(|e| e.seq), true),
            "speculative window entries out of order",
        )
    }

    /// Invariant check (`simcheck` feature): entry keys — the sequence number
    /// of the first µ-op of each block instance — must be strictly increasing
    /// (and therefore unique), or the associative most-recent-match lookup is
    /// ambiguous.
    #[cfg(feature = "simcheck")]
    pub fn check_unique_keys(&self) {
        let mut prev: Option<SeqNum> = None;
        for e in &self.entries {
            if let Some(p) = prev {
                assert!(
                    e.seq > p,
                    "simcheck: speculative window: duplicate or out-of-order entry key \
                     (seq {} after {p})",
                    e.seq
                );
            }
            prev = Some(e.seq);
        }
    }
}

snap!(SpecWindowEntry {
    partial_tag: u64,
    seq: u64,
    values: SlotPredictions,
});
snap!(SpeculativeWindow { entries: VecDeque<SpecWindowEntry> } validate check_restored);

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(v: u64) -> SlotPredictions {
        let mut values = [None; MAX_NPRED];
        values[0] = Some(v);
        values
    }

    #[test]
    fn lookup_returns_most_recent_matching_entry() {
        let mut w = SpeculativeWindow::new(Some(8), 15);
        w.push(0x1000, 1, vals(10));
        w.push(0x2000, 2, vals(20));
        w.push(0x1000, 3, vals(30));
        let e = w.lookup(0x1000).unwrap();
        assert_eq!(e.seq, 3);
        assert_eq!(e.values, vals(30));
        assert_eq!(w.lookup(0x2000).unwrap().seq, 2);
        assert!(w.lookup(0x3000).is_none());
    }

    #[test]
    fn capacity_overwrites_oldest() {
        let mut w = SpeculativeWindow::new(Some(2), 15);
        w.push(0x1000, 1, vals(1));
        w.push(0x2000, 2, vals(2));
        w.push(0x3000, 3, vals(3));
        assert_eq!(w.len(), 2);
        assert!(w.lookup(0x1000).is_none(), "oldest entry must be evicted");
        assert!(w.lookup(0x3000).is_some());
    }

    #[test]
    fn infinite_window_never_evicts() {
        let mut w = SpeculativeWindow::new(None, 15);
        for i in 0..10_000u64 {
            w.push(0x1000 + i * 16, i, vals(i));
        }
        assert_eq!(w.len(), 10_000);
        assert!(w.lookup(0x1000).is_some());
    }

    #[test]
    fn squash_drops_younger_entries() {
        let mut w = SpeculativeWindow::new(Some(8), 15);
        w.push(0x1000, 1, vals(1));
        w.push(0x2000, 5, vals(2));
        w.push(0x3000, 9, vals(3));
        w.squash(5);
        assert_eq!(w.len(), 2);
        assert!(w.lookup(0x3000).is_none());
        assert!(w.lookup(0x2000).is_some());
    }

    #[test]
    fn drop_newest_if_block_only_matches_head() {
        let mut w = SpeculativeWindow::new(Some(8), 15);
        w.push(0x1000, 1, vals(1));
        w.push(0x2000, 2, vals(2));
        assert!(!w.drop_newest_if_block(0x1000));
        assert!(w.drop_newest_if_block(0x2000));
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn disabled_window_never_hits() {
        let mut w = SpeculativeWindow::disabled(15);
        w.push(0x1000, 1, vals(1));
        assert!(w.lookup(0x1000).is_none());
        assert!(w.is_empty());
    }

    #[test]
    fn partial_tags_are_bounded() {
        let w = SpeculativeWindow::new(Some(4), 15);
        for pc in [0x0u64, 0xffff_ffff_ffff_fff0, 0x1234_5678_9abc_def0] {
            assert!(w.partial_tag(pc) < (1 << 15));
        }
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        let _ = SpeculativeWindow::new(Some(0), 15);
    }

    #[test]
    fn squash_on_empty_window_is_a_noop() {
        let mut w = SpeculativeWindow::new(Some(4), 15);
        w.squash(0);
        w.prune_retired(100);
        assert!(w.is_empty());
    }

    #[test]
    fn squash_everything_then_refill() {
        let mut w = SpeculativeWindow::new(Some(4), 15);
        w.push(0x1000, 10, vals(1));
        w.push(0x2000, 20, vals(2));
        w.squash(5); // flush point older than every entry
        assert!(w.is_empty());
        w.push(0x3000, 30, vals(3));
        assert_eq!(w.lookup(0x3000).unwrap().seq, 30);
    }

    #[test]
    fn squash_at_exact_seq_keeps_the_flushing_block() {
        // The flushing µ-op's own block entry (seq == flush_seq) must survive:
        // only strictly younger state rolls back.
        let mut w = SpeculativeWindow::new(Some(8), 15);
        w.push(0x1000, 1, vals(1));
        w.push(0x1000, 5, vals(2));
        w.push(0x1000, 9, vals(3));
        w.squash(5);
        let e = w.lookup(0x1000).unwrap();
        assert_eq!(e.seq, 5);
        assert_eq!(e.values, vals(2));
    }

    #[test]
    fn full_window_rollback_then_push_reuses_capacity() {
        let mut w = SpeculativeWindow::new(Some(2), 15);
        w.push(0x1000, 1, vals(1));
        w.push(0x2000, 2, vals(2)); // full
        w.squash(1); // back to one entry
        assert_eq!(w.len(), 1);
        w.push(0x3000, 3, vals(3));
        w.push(0x4000, 4, vals(4)); // evicts seq 1
        assert_eq!(w.len(), 2);
        assert!(w.lookup(0x1000).is_none());
        assert!(w.lookup(0x3000).is_some() && w.lookup(0x4000).is_some());
    }

    #[test]
    fn prune_retired_keeps_inflight_entries() {
        let mut w = SpeculativeWindow::new(None, 15);
        w.push(0x1000, 1, vals(1));
        w.push(0x2000, 5, vals(2));
        w.push(0x3000, 9, vals(3));
        w.prune_retired(5);
        assert_eq!(w.len(), 2);
        assert!(w.lookup(0x1000).is_none());
        assert_eq!(w.lookup(0x2000).unwrap().seq, 5);
    }
}
