//! Program-order queues of in-flight records.
//!
//! Value predictors carry a record per prediction (per µ-op, or per fetch
//! block for BeBoP) from fetch to retirement, BeBoP's speculative window keeps
//! the prediction blocks of in-flight fetch blocks, and the pipeline defers
//! predictor trainings until their values become visible. All of them follow
//! one rule, held here once by [`SeqQueue`]:
//!
//! * records are pushed in strictly increasing sequence-number order (every
//!   µ-op of a stream, wrong-path µ-ops included, has its own number);
//! * retirement pops the oldest records;
//! * a flush drops every record younger than the flushing µ-op;
//! * a restored queue must be in the same strict order, so a corrupt or
//!   hand-edited checkpoint is rejected instead of replayed out of order.

use crate::dynuop::SeqNum;
use crate::state::{ensure, Snap, StateReader, StateResult, StateWriter};
use std::collections::{vec_deque, VecDeque};

/// A record ordered by the sequence number of the µ-op it belongs to.
pub trait Sequenced {
    /// The sequence number of the record's µ-op (for a fetch-block record,
    /// of the block's first µ-op).
    fn seq(&self) -> SeqNum;
}

/// A bare record tagged with its sequence number.
impl<T> Sequenced for (SeqNum, T) {
    fn seq(&self) -> SeqNum {
        self.0
    }
}

/// In-flight records in program order, oldest at the front.
///
/// ```
/// use bebop_isa::SeqQueue;
///
/// let mut q = SeqQueue::default();
/// for seq in [1, 2, 4, 6] {
///     q.push((seq, seq * 10));
/// }
/// // Retiring 4 drops the never-trained 1 and 2, then takes 4's record.
/// assert_eq!(q.retire(4), Some((4, 40)));
/// // A flush at 5 drops everything younger.
/// q.squash(5, drop);
/// assert!(q.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct SeqQueue<E> {
    records: VecDeque<E>,
}

impl<E> Default for SeqQueue<E> {
    fn default() -> Self {
        SeqQueue {
            records: VecDeque::new(),
        }
    }
}

impl<E: Sequenced> SeqQueue<E> {
    /// Number of records held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if no records are held.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Appends `record`, the youngest so far.
    ///
    /// # Panics
    ///
    /// Panics if `record`'s sequence number does not exceed the newest
    /// record's: a duplicate or reordered record would corrupt every later
    /// retirement and squash.
    pub fn push(&mut self, record: E) {
        if let Some(back) = self.records.back() {
            assert!(
                back.seq() < record.seq(),
                "in-flight record {} pushed after {}: sequence numbers must strictly increase",
                record.seq(),
                back.seq()
            );
        }
        self.records.push_back(record);
    }

    /// The oldest record.
    pub fn front(&self) -> Option<&E> {
        self.records.front()
    }

    /// Mutable access to the oldest record. Its sequence number must not be
    /// changed.
    pub fn front_mut(&mut self) -> Option<&mut E> {
        self.records.front_mut()
    }

    /// The newest record.
    pub fn back(&self) -> Option<&E> {
        self.records.back()
    }

    /// The sequence number of the second-oldest record: for fetch-block
    /// records, the first µ-op of the block after the oldest one.
    pub fn second_seq(&self) -> Option<SeqNum> {
        self.records.get(1).map(Sequenced::seq)
    }

    /// Pops the oldest record.
    pub fn pop_front(&mut self) -> Option<E> {
        self.records.pop_front()
    }

    /// Pops the oldest record if it satisfies `cond`.
    pub fn pop_front_if(&mut self, cond: impl FnOnce(&E) -> bool) -> Option<E> {
        if self.records.front().is_some_and(cond) {
            self.records.pop_front()
        } else {
            None
        }
    }

    /// Pops the newest record if it satisfies `cond`.
    pub fn pop_back_if(&mut self, cond: impl FnOnce(&E) -> bool) -> Option<E> {
        if self.records.back().is_some_and(cond) {
            self.records.pop_back()
        } else {
            None
        }
    }

    /// Drops the records of every µ-op older than `seq`.
    pub fn drop_older(&mut self, seq: SeqNum) {
        while self.pop_front_if(|r| r.seq() < seq).is_some() {}
    }

    /// Retirement of the µ-op `seq`: drops the records of older µ-ops (never
    /// trained) and returns `seq`'s own record unless it was squashed.
    pub fn retire(&mut self, seq: SeqNum) -> Option<E> {
        self.drop_older(seq);
        self.pop_front_if(|r| r.seq() == seq)
    }

    /// Takes the record of the wrong-path µ-op `seq` — pushed by its predict
    /// probe immediately before — from the back, leaving older correct-path
    /// records for their own retirements.
    pub fn take_wrong_path(&mut self, seq: SeqNum) -> Option<E> {
        self.pop_back_if(|r| r.seq() == seq)
    }

    /// Rolls back on a flush at `flush_seq`: drops every record of a strictly
    /// younger µ-op, handing each to `recycle` (pass `drop` to discard them).
    pub fn squash(&mut self, flush_seq: SeqNum, mut recycle: impl FnMut(E)) {
        while let Some(r) = self.pop_back_if(|r| r.seq() > flush_seq) {
            recycle(r);
        }
    }

    /// The records, oldest first.
    pub fn iter(&self) -> vec_deque::Iter<'_, E> {
        self.records.iter()
    }
}

/// `true` when the sequence numbers `seqs` strictly increase.
fn in_program_order(mut seqs: impl Iterator<Item = SeqNum>) -> bool {
    let Some(mut prev) = seqs.next() else {
        return true;
    };
    seqs.all(|seq| std::mem::replace(&mut prev, seq) < seq)
}

/// Encoded exactly like the `VecDeque<E>` it holds; restore rejects records
/// whose sequence numbers do not strictly increase.
impl<E: Sequenced + Snap + Default> Snap for SeqQueue<E> {
    const MIN_BYTES: usize = <VecDeque<E>>::MIN_BYTES;

    fn save(&self, w: &mut StateWriter) {
        self.records.save(w);
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> StateResult<()> {
        self.records.restore(r)?;
        ensure(
            in_program_order(self.records.iter().map(Sequenced::seq)),
            "in-flight records out of program order",
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{restore_snapshot, snapshot};

    #[test]
    fn fifo_order_is_preserved() {
        let mut q = SeqQueue::default();
        q.push((0, "a"));
        q.push((5, "b"));
        q.push((9, "c"));
        assert_eq!(q.len(), 3);
        assert_eq!(q.front(), Some(&(0, "a")));
        assert_eq!(q.second_seq(), Some(5));
        assert_eq!(q.pop_front(), Some((0, "a")));
        assert_eq!(q.pop_front(), Some((5, "b")));
        assert_eq!(q.pop_front(), Some((9, "c")));
        assert!(q.is_empty());
    }

    #[test]
    fn squash_drops_younger_blocks() {
        let mut q = SeqQueue::default();
        q.push((0, 0));
        q.push((10, 1));
        q.push((20, 2));
        q.squash(10, drop);
        assert_eq!(q.len(), 2);
        assert_eq!(q.back(), Some(&(10, 1)));
    }

    #[test]
    fn pop_back_removes_newest() {
        let mut q = SeqQueue::default();
        q.push((0, 'x'));
        q.push((4, 'y'));
        assert_eq!(q.pop_back_if(|_| false), None);
        assert_eq!(q.pop_back_if(|_| true), Some((4, 'y')));
        assert_eq!(q.back(), Some(&(0, 'x')));
    }

    #[test]
    fn front_mut_allows_in_place_accumulation() {
        let mut q: SeqQueue<(SeqNum, Vec<u64>)> = SeqQueue::default();
        q.push((0, vec![]));
        q.front_mut().unwrap().1.push(42);
        assert_eq!(q.front().unwrap().1, vec![42]);
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn out_of_order_push_panics() {
        let mut q = SeqQueue::default();
        q.push((10, ()));
        q.push((5, ()));
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn duplicate_push_panics() {
        let mut q = SeqQueue::default();
        q.push((7, ()));
        q.push((7, ()));
    }

    #[test]
    fn drain_of_empty_queue_is_safe() {
        let mut q: SeqQueue<(SeqNum, u64)> = SeqQueue::default();
        assert_eq!(q.pop_front(), None);
        assert_eq!(q.pop_back_if(|_| true), None);
        assert_eq!(q.front(), None);
        assert_eq!(q.front_mut(), None);
        assert_eq!(q.second_seq(), None);
        assert_eq!(q.retire(3), None);
        assert_eq!(q.take_wrong_path(3), None);
        q.squash(0, drop); // no-op
        assert!(q.is_empty());
    }

    #[test]
    fn drain_of_full_queue_preserves_order() {
        let mut q = SeqQueue::default();
        for i in 0..64u64 {
            q.push((i * 2, i));
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
        let mut q = SeqQueue::default();
        q.push((0, "blk0"));
        q.push((10, "blk1")); // flush happens inside this block...
        q.push((20, "blk2"));
        q.squash(12, drop); // ...at seq 12
        assert_eq!(q.len(), 2);
        assert_eq!(q.back(), Some(&(10, "blk1")));
    }

    #[test]
    fn squash_with_recycles_dropped_records() {
        let mut q = SeqQueue::default();
        q.push((0, vec![0u64; 4]));
        q.push((10, vec![1u64; 4]));
        q.push((20, vec![2u64; 4]));
        let mut pool: Vec<Vec<u64>> = Vec::new();
        q.squash(5, |(_, rec)| pool.push(rec));
        assert_eq!(q.len(), 1);
        assert_eq!(pool, [vec![2u64; 4], vec![1u64; 4]], "youngest first");
        // Equal seq is kept (strictly-younger semantics), nothing recycled.
        q.squash(0, |(_, rec)| pool.push(rec));
        assert_eq!(q.len(), 1);
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn encoding_matches_vecdeque() {
        let mut q = SeqQueue::default();
        q.push((3, 1u64));
        q.push((5, 2));
        let plain: VecDeque<(SeqNum, u64)> = [(3, 1), (5, 2)].into_iter().collect();
        let bytes = snapshot(&q);
        assert_eq!(bytes, snapshot(&plain));
        let mut back: SeqQueue<(SeqNum, u64)> = SeqQueue::default();
        restore_snapshot(&mut back, &bytes).unwrap();
        assert_eq!(back.iter().copied().collect::<Vec<_>>(), [(3, 1), (5, 2)]);
    }
}
