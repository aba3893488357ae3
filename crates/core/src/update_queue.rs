//! The FIFO update queue (Section III-D of the paper).
//!
//! Predictions are only used when very confident, but *all* predictions must be
//! remembered until validation/retirement so the predictor can be trained. The
//! FIFO update queue stores one record per in-flight fetch-block instance, pushed
//! at prediction time and popped at retirement. It needs no associative lookup —
//! only rollback on a pipeline flush, for which each record is tagged with the
//! sequence number of the first µ-op of its block.

use bebop_isa::{ensure, in_program_order, snap, SeqNum, Snap, StateResult};
use std::collections::VecDeque;

/// A FIFO of in-flight per-block prediction records tagged with sequence numbers.
#[derive(Debug, Clone)]
pub struct FifoUpdateQueue<T> {
    entries: VecDeque<(SeqNum, T)>,
}

impl<T> Default for FifoUpdateQueue<T> {
    fn default() -> Self {
        FifoUpdateQueue {
            entries: VecDeque::new(),
        }
    }
}

impl<T> FifoUpdateQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of in-flight records.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no records are in flight.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Pushes a record for the block instance whose first µ-op has sequence number
    /// `first_seq`.
    ///
    /// # Panics
    ///
    /// Panics if records are pushed out of order (the queue is chronological by
    /// construction).
    pub fn push(&mut self, first_seq: SeqNum, record: T) {
        if let Some((last, _)) = self.entries.back() {
            assert!(
                *last <= first_seq,
                "update queue must be pushed in program order"
            );
        }
        self.entries.push_back((first_seq, record));
    }

    /// The oldest in-flight record, if any.
    pub fn front(&self) -> Option<(&SeqNum, &T)> {
        self.entries.front().map(|(s, t)| (s, t))
    }

    /// Mutable access to the oldest record.
    pub fn front_mut(&mut self) -> Option<(&SeqNum, &mut T)> {
        self.entries.front_mut().map(|(s, t)| (&*s, t))
    }

    /// The sequence number of the *second* oldest record (the first µ-op of the
    /// next block), used to decide when the oldest block has fully retired.
    pub fn next_block_seq(&self) -> Option<SeqNum> {
        self.entries.get(1).map(|(s, _)| *s)
    }

    /// The newest in-flight record.
    pub fn back(&self) -> Option<(&SeqNum, &T)> {
        self.entries.back().map(|(s, t)| (s, t))
    }

    /// Mutable access to the newest in-flight record.
    pub fn back_mut(&mut self) -> Option<(&SeqNum, &mut T)> {
        self.entries.back_mut().map(|(s, t)| (&*s, t))
    }

    /// The in-flight records, oldest first.
    pub(crate) fn records(&self) -> impl Iterator<Item = &T> {
        self.entries.iter().map(|(_, t)| t)
    }

    /// Pops the oldest record.
    pub fn pop_front(&mut self) -> Option<(SeqNum, T)> {
        self.entries.pop_front()
    }

    /// Removes the newest record (used by the `Repred` recovery policy).
    pub fn pop_back(&mut self) -> Option<(SeqNum, T)> {
        self.entries.pop_back()
    }

    /// Rolls back on a pipeline flush: drops every record whose first µ-op is
    /// strictly younger than `flush_seq`.
    pub fn squash(&mut self, flush_seq: SeqNum) {
        self.squash_with(flush_seq, |_| {});
    }

    /// Like [`FifoUpdateQueue::squash`], but hands every dropped record to
    /// `recycle` so callers can return its heap storage to a scratch pool instead
    /// of freeing it (the figure-regeneration hot loop squashes constantly).
    pub fn squash_with(&mut self, flush_seq: SeqNum, mut recycle: impl FnMut(T)) {
        while let Some((seq, _)) = self.entries.back() {
            if *seq > flush_seq {
                // INVARIANT: while-let on back() just returned Some.
                let (_, record) = self.entries.pop_back().expect("back exists");
                recycle(record);
            } else {
                break;
            }
        }
    }

    /// Rejects restored records out of program order.
    fn check_restored(&mut self) -> StateResult<()> {
        ensure(
            in_program_order(self.entries.iter().map(|&(seq, _)| seq), false),
            "update queue records out of program order",
        )
    }
}

snap!(impl[T: Snap + Default] FifoUpdateQueue<T> {
    entries: VecDeque<(SeqNum, T)>,
} validate check_restored);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_is_preserved() {
        let mut q = FifoUpdateQueue::new();
        q.push(0, "a");
        q.push(5, "b");
        q.push(9, "c");
        assert_eq!(q.len(), 3);
        assert_eq!(q.front(), Some((&0, &"a")));
        assert_eq!(q.next_block_seq(), Some(5));
        assert_eq!(q.pop_front(), Some((0, "a")));
        assert_eq!(q.pop_front(), Some((5, "b")));
        assert_eq!(q.pop_front(), Some((9, "c")));
        assert!(q.is_empty());
    }

    #[test]
    fn squash_drops_younger_blocks() {
        let mut q = FifoUpdateQueue::new();
        q.push(0, 0);
        q.push(10, 1);
        q.push(20, 2);
        q.squash(10);
        assert_eq!(q.len(), 2);
        assert_eq!(q.back(), Some((&10, &1)));
    }

    #[test]
    fn pop_back_removes_newest() {
        let mut q = FifoUpdateQueue::new();
        q.push(0, 'x');
        q.push(4, 'y');
        assert_eq!(q.pop_back(), Some((4, 'y')));
        assert_eq!(q.back(), Some((&0, &'x')));
    }

    #[test]
    fn front_mut_allows_in_place_accumulation() {
        let mut q: FifoUpdateQueue<Vec<u64>> = FifoUpdateQueue::new();
        q.push(0, vec![]);
        q.front_mut().unwrap().1.push(42);
        assert_eq!(q.front().unwrap().1, &vec![42]);
    }

    #[test]
    #[should_panic]
    fn out_of_order_push_panics() {
        let mut q = FifoUpdateQueue::new();
        q.push(10, ());
        q.push(5, ());
    }

    #[test]
    fn drain_of_empty_queue_is_safe() {
        let mut q: FifoUpdateQueue<u64> = FifoUpdateQueue::new();
        assert_eq!(q.pop_front(), None);
        assert_eq!(q.pop_back(), None);
        assert_eq!(q.front(), None);
        assert_eq!(q.back_mut(), None);
        assert_eq!(q.next_block_seq(), None);
        q.squash(0); // no-op
        assert!(q.is_empty());
    }

    #[test]
    fn drain_of_full_queue_preserves_order() {
        let mut q = FifoUpdateQueue::new();
        for i in 0..64u64 {
            q.push(i * 2, i);
        }
        assert_eq!(q.len(), 64);
        let drained: Vec<u64> = std::iter::from_fn(|| q.pop_front().map(|(_, v)| v)).collect();
        assert_eq!(drained, (0..64).collect::<Vec<_>>());
        assert!(q.is_empty());
    }

    #[test]
    fn same_block_squash_keeps_the_flushed_blocks_record() {
        // A same-block flush (Bnew == Bflush) squashes µ-ops strictly younger than
        // the flush point: the record of the block containing the flush point
        // (first_seq <= flush_seq) must stay so its older µ-ops still train.
        let mut q = FifoUpdateQueue::new();
        q.push(0, "blk0");
        q.push(10, "blk1"); // flush happens inside this block...
        q.push(20, "blk2");
        q.squash(12); // ...at seq 12
        assert_eq!(q.len(), 2);
        assert_eq!(q.back(), Some((&10, &"blk1")));
    }

    #[test]
    fn squash_with_recycles_dropped_records() {
        let mut q = FifoUpdateQueue::new();
        q.push(0, vec![0u64; 4]);
        q.push(10, vec![1u64; 4]);
        q.push(20, vec![2u64; 4]);
        let mut pool: Vec<Vec<u64>> = Vec::new();
        q.squash_with(5, |rec| pool.push(rec));
        assert_eq!(q.len(), 1);
        assert_eq!(pool.len(), 2, "both dropped records must reach the pool");
        // Equal seq is kept (strictly-younger semantics), nothing recycled.
        q.squash_with(0, |rec| pool.push(rec));
        assert_eq!(q.len(), 1);
        assert_eq!(pool.len(), 2);
    }
}
