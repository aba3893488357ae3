//! The block-based speculative window (Section IV of the paper).
//!
//! D-VTAGE needs the value produced by the *most recent* instance of an instruction
//! to compute the next prediction, and that instance is frequently still in flight.
//! The speculative window holds the prediction blocks of in-flight fetch blocks: it
//! is written as a simple circular buffer (chronological order, no tag match
//! needed) and read associatively by partial tag, with an internal sequence number
//! selecting the most recent matching entry.

use bebop_isa::{
    ensure, fold_bits, snap, SeqNum, SeqQueue, Sequenced, Snap, StateReader, StateResult,
    StateWriter,
};

/// The maximum number of prediction slots per entry (`Npred`) supported by the
/// allocation-free hot path. The paper sweeps 4/6/8 (Figure 6a); fixing the upper
/// bound lets prediction blocks live in copyable arrays instead of heap vectors.
pub const MAX_NPRED: usize = 8;

/// The per-slot speculative values of one prediction block: dense value
/// lanes plus a presence mask. A slot without a prediction (always the case
/// for slots at `npred..`) has its mask bit clear and its lane zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotPredictions {
    values: [u64; MAX_NPRED],
    mask: u8,
}

impl SlotPredictions {
    /// No prediction in any slot.
    pub const NONE: SlotPredictions = SlotPredictions {
        values: [0; MAX_NPRED],
        mask: 0,
    };

    /// The lanes of `values` whose bit is set in `mask`.
    pub fn masked(values: &[u64; MAX_NPRED], mask: u8) -> Self {
        let mut out = SlotPredictions {
            values: *values,
            mask,
        };
        for (i, v) in out.values.iter_mut().enumerate() {
            if mask & (1 << i) == 0 {
                *v = 0;
            }
        }
        out
    }

    /// Slot `i`'s prediction.
    pub fn get(&self, i: usize) -> Option<u64> {
        (self.mask & (1 << i) != 0).then_some(self.values[i])
    }

    /// The value lanes (zero where no prediction).
    pub fn values(&self) -> &[u64; MAX_NPRED] {
        &self.values
    }

    /// Bit `i` set when slot `i` holds a prediction.
    pub fn mask(&self) -> u8 {
        self.mask
    }
}

/// The layout of `[Option<u64>; MAX_NPRED]`: per slot a presence byte, then
/// the value when present.
impl Snap for SlotPredictions {
    const MIN_BYTES: usize = <[Option<u64>; MAX_NPRED]>::MIN_BYTES;

    fn save(&self, w: &mut StateWriter) {
        for i in 0..MAX_NPRED {
            self.get(i).save(w);
        }
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> StateResult<()> {
        let mut slots = [None::<u64>; MAX_NPRED];
        slots.restore(r)?;
        let mut mask = 0u8;
        for (i, s) in slots.iter().enumerate() {
            mask |= u8::from(s.is_some()) << i;
        }
        *self = SlotPredictions::masked(&slots.map(|s| s.unwrap_or(0)), mask);
        Ok(())
    }
}

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
    entries: SeqQueue<SpecWindowEntry>,
    /// Maximum number of entries: `usize::MAX` models the infinite window of
    /// Figure 7b, 0 the disabled one.
    capacity: usize,
    tag_bits: u32,
}

impl SpeculativeWindow {
    /// Creates a window of the given size and partial tag width.
    ///
    /// # Panics
    ///
    /// Panics on `SpecWindowSize::Entries(0)`: the "no speculative window"
    /// configuration is [`SpecWindowSize::Disabled`].
    pub fn new(size: SpecWindowSize, tag_bits: u32) -> Self {
        let capacity = match size {
            SpecWindowSize::Unbounded => usize::MAX,
            SpecWindowSize::Entries(n) => {
                assert!(n > 0, "use SpecWindowSize::Disabled for a zero-size window");
                n
            }
            SpecWindowSize::Disabled => 0,
        };
        SpeculativeWindow {
            entries: SeqQueue::default(),
            capacity,
            tag_bits,
        }
    }

    /// The partial tag of a fetch-block PC.
    pub fn partial_tag(&self, block_pc: u64) -> u64 {
        fold_bits(block_pc >> 4, self.tag_bits.min(63))
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
    /// tail, as described in the paper); a disabled window drops the block.
    ///
    /// # Panics
    ///
    /// Panics if `seq` does not exceed the newest entry's sequence number.
    pub fn push(&mut self, block_pc: u64, seq: SeqNum, values: SlotPredictions) {
        if self.capacity == 0 {
            return;
        }
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push(SpecWindowEntry {
            partial_tag: self.partial_tag(block_pc),
            seq,
            values,
        });
    }

    /// Associatively looks up the most recent entry matching `block_pc`.
    pub fn lookup(&self, block_pc: u64) -> Option<&SpecWindowEntry> {
        let tag = self.partial_tag(block_pc);
        // Entries are chronologically ordered, so the most recent match is the last.
        self.entries.iter().rev().find(|e| e.partial_tag == tag)
    }

    /// Drops entries older than the oldest in-flight block: their values have
    /// retired into the Last Value Table and the hardware circular buffer would
    /// overwrite them first anyway. Keeps lookups proportional to the number of
    /// blocks actually in flight.
    pub fn prune_retired(&mut self, oldest_inflight_seq: SeqNum) {
        self.entries.drop_older(oldest_inflight_seq);
    }

    /// Rolls back the window on a pipeline flush: drops every entry whose sequence
    /// number is strictly greater than `flush_seq`.
    pub fn squash(&mut self, flush_seq: SeqNum) {
        self.entries.squash(flush_seq, drop);
    }

    /// Removes the most recent entry if it matches `block_pc` (used by the `Repred`
    /// recovery policy, which discards the head block and re-predicts it).
    pub fn drop_newest_if_block(&mut self, block_pc: u64) -> bool {
        let tag = self.partial_tag(block_pc);
        self.entries.pop_back_if(|e| e.partial_tag == tag).is_some()
    }

    /// Rejects restored contents the window could never hold: more entries
    /// than its capacity (any entry, for a disabled window). The queue itself
    /// rejects entries out of program order.
    fn check_restored(&mut self) -> StateResult<()> {
        ensure(
            self.entries.len() <= self.capacity,
            "speculative window overfilled",
        )
    }
}

impl Sequenced for SpecWindowEntry {
    fn seq(&self) -> SeqNum {
        self.seq
    }
}

snap!(SpecWindowEntry {
    partial_tag: u64,
    seq: u64,
    values: SlotPredictions,
});
snap!(SpeculativeWindow { entries: SeqQueue<SpecWindowEntry> } validate check_restored);

#[cfg(test)]
mod tests {
    use super::*;
    use bebop_isa::{restore_snapshot, snapshot};
    use std::collections::VecDeque;

    fn vals(v: u64) -> SlotPredictions {
        let mut values = [0; MAX_NPRED];
        values[0] = v;
        SlotPredictions::masked(&values, 1)
    }

    #[test]
    fn slot_predictions_keep_lanes_and_mask() {
        let mut values = [7u64; MAX_NPRED];
        values[3] = 0;
        values[7] = u64::MAX;
        let preds = SlotPredictions::masked(&values, 0b1000_1001);
        assert_eq!(preds.mask(), 0b1000_1001);
        assert_eq!(preds.values(), &[7, 0, 0, 0, 0, 0, 0, u64::MAX]);
        assert_eq!(preds.get(0), Some(7));
        assert_eq!(preds.get(3), Some(0), "a zero prediction is still present");
        assert_eq!(preds.get(1), None);
        assert_eq!(SlotPredictions::NONE, SlotPredictions::masked(&values, 0));
    }

    #[test]
    fn slot_predictions_write_the_option_layout() {
        let old: [Option<u64>; MAX_NPRED] = [
            Some(7),
            None,
            None,
            Some(0),
            None,
            None,
            None,
            Some(u64::MAX),
        ];
        let new = SlotPredictions::masked(&old.map(|v| v.unwrap_or(0)), 0b1000_1001);
        assert_eq!(snapshot(&new), snapshot(&old));
        assert_eq!(
            snapshot(&SlotPredictions::NONE),
            snapshot(&[None::<u64>; MAX_NPRED])
        );
        assert_eq!(
            SlotPredictions::MIN_BYTES,
            <[Option<u64>; MAX_NPRED]>::MIN_BYTES
        );
        let mut back = SlotPredictions::NONE;
        restore_snapshot(&mut back, &snapshot(&old)).unwrap();
        assert_eq!(back, new);
    }

    #[test]
    fn lookup_returns_most_recent_matching_entry() {
        let mut w = SpeculativeWindow::new(SpecWindowSize::Entries(8), 15);
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
        let mut w = SpeculativeWindow::new(SpecWindowSize::Entries(2), 15);
        w.push(0x1000, 1, vals(1));
        w.push(0x2000, 2, vals(2));
        w.push(0x3000, 3, vals(3));
        assert_eq!(w.len(), 2);
        assert!(w.lookup(0x1000).is_none(), "oldest entry must be evicted");
        assert!(w.lookup(0x3000).is_some());
    }

    #[test]
    fn infinite_window_never_evicts() {
        let mut w = SpeculativeWindow::new(SpecWindowSize::Unbounded, 15);
        for i in 0..10_000u64 {
            w.push(0x1000 + i * 16, i, vals(i));
        }
        assert_eq!(w.len(), 10_000);
        assert!(w.lookup(0x1000).is_some());
    }

    #[test]
    fn squash_drops_younger_entries() {
        let mut w = SpeculativeWindow::new(SpecWindowSize::Entries(8), 15);
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
        let mut w = SpeculativeWindow::new(SpecWindowSize::Entries(8), 15);
        w.push(0x1000, 1, vals(1));
        w.push(0x2000, 2, vals(2));
        assert!(!w.drop_newest_if_block(0x1000));
        assert!(w.drop_newest_if_block(0x2000));
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn disabled_window_never_hits() {
        let mut w = SpeculativeWindow::new(SpecWindowSize::Disabled, 15);
        w.push(0x1000, 1, vals(1));
        assert!(w.lookup(0x1000).is_none());
        assert!(w.is_empty());
    }

    #[test]
    fn partial_tags_are_bounded() {
        let w = SpeculativeWindow::new(SpecWindowSize::Entries(4), 15);
        for pc in [0x0u64, 0xffff_ffff_ffff_fff0, 0x1234_5678_9abc_def0] {
            assert!(w.partial_tag(pc) < (1 << 15));
        }
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        let _ = SpeculativeWindow::new(SpecWindowSize::Entries(0), 15);
    }

    #[test]
    fn squash_on_empty_window_is_a_noop() {
        let mut w = SpeculativeWindow::new(SpecWindowSize::Entries(4), 15);
        w.squash(0);
        w.prune_retired(100);
        assert!(w.is_empty());
    }

    #[test]
    fn squash_everything_then_refill() {
        let mut w = SpeculativeWindow::new(SpecWindowSize::Entries(4), 15);
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
        let mut w = SpeculativeWindow::new(SpecWindowSize::Entries(8), 15);
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
        let mut w = SpeculativeWindow::new(SpecWindowSize::Entries(2), 15);
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
        let mut w = SpeculativeWindow::new(SpecWindowSize::Unbounded, 15);
        w.push(0x1000, 1, vals(1));
        w.push(0x2000, 5, vals(2));
        w.push(0x3000, 9, vals(3));
        w.prune_retired(5);
        assert_eq!(w.len(), 2);
        assert!(w.lookup(0x1000).is_none());
        assert_eq!(w.lookup(0x2000).unwrap().seq, 5);
    }

    #[test]
    fn restore_rejects_out_of_order_records() {
        let mut w = SpeculativeWindow::new(SpecWindowSize::Entries(4), 15);
        w.push(0x1000, 1, vals(1));
        w.push(0x2000, 5, vals(2));
        let mut back = SpeculativeWindow::new(SpecWindowSize::Entries(4), 15);
        restore_snapshot(&mut back, &snapshot(&w)).unwrap();
        assert_eq!(back.lookup(0x2000).unwrap().seq, 5);
        let entry = |seq| SpecWindowEntry {
            partial_tag: 0,
            seq,
            values: vals(0),
        };
        // Swapped and duplicated entry keys; then more entries than fit.
        for seqs in [&[5, 1][..], &[5, 5], &[1, 2, 3, 4, 5]] {
            let entries: VecDeque<SpecWindowEntry> = seqs.iter().map(|&s| entry(s)).collect();
            assert!(restore_snapshot(&mut back, &snapshot(&entries)).is_err());
        }
        // A disabled window holds nothing.
        let mut off = SpeculativeWindow::new(SpecWindowSize::Disabled, 15);
        let one: VecDeque<SpecWindowEntry> = [entry(1)].into_iter().collect();
        assert!(restore_snapshot(&mut off, &snapshot(&one)).is_err());
    }
}
