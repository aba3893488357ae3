//! Lazily resynchronised speculative last values.
//!
//! The stride predictors and D-VTAGE keep, per entry, a speculative last
//! value chained through the instances still in flight. Their idealistic
//! recovery resynchronises every entry with its retired last value on each
//! pipeline flush. Rewriting the whole table per flush costs O(entries);
//! [`SpecTable`] instead bumps a squash epoch and resynchronises an entry the
//! next time it is read, which every later prediction and update observes
//! identically.

use bebop_isa::{ensure, Snap, StateReader, StateResult, StateWriter};

/// An entry with a speculative last value that a flush resynchronises.
pub(crate) trait SpecLast: Copy {
    /// Drops the in-flight chain: the speculative last value becomes the
    /// retired one.
    fn resync(&mut self);
}

#[derive(Debug, Clone, Copy)]
struct Stamped<E> {
    entry: E,
    /// The squash epoch the entry was last resynchronised in.
    epoch: u32,
}

/// A fixed-size table of [`SpecLast`] entries with O(1) flush recovery.
///
/// Entries are reached through [`SpecTable::get_mut`], which first applies
/// any flush the entry has not seen yet. The checkpoint layout is that of a
/// plain `Vec<E>` holding every entry already resynchronised.
#[derive(Debug, Clone)]
pub(crate) struct SpecTable<E> {
    entries: Vec<Stamped<E>>,
    epoch: u32,
}

impl<E: SpecLast> SpecTable<E> {
    /// `len` copies of `entry`.
    pub(crate) fn new(entry: E, len: usize) -> Self {
        SpecTable {
            entries: vec![Stamped { entry, epoch: 0 }; len],
            epoch: 0,
        }
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Entry `i`, resynchronised if a flush happened since it was last read.
    #[inline]
    pub(crate) fn get_mut(&mut self, i: usize) -> &mut E {
        let s = &mut self.entries[i];
        if s.epoch != self.epoch {
            s.entry.resync();
            s.epoch = self.epoch;
        }
        &mut s.entry
    }

    /// Every entry, resynchronised.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut E> {
        let epoch = self.epoch;
        self.entries.iter_mut().map(move |s| {
            if s.epoch != epoch {
                s.entry.resync();
                s.epoch = epoch;
            }
            &mut s.entry
        })
    }

    /// Resynchronises every entry at its next read. When the epoch counter
    /// would wrap, every entry is resynchronised at once instead, so a stale
    /// stamp can never read as current.
    pub(crate) fn squash(&mut self) {
        if self.epoch == u32::MAX {
            for s in &mut self.entries {
                s.entry.resync();
                s.epoch = 0;
            }
            self.epoch = 0;
        } else {
            self.epoch += 1;
        }
    }

    fn synced(&self, s: &Stamped<E>) -> E {
        let mut e = s.entry;
        if s.epoch != self.epoch {
            e.resync();
        }
        e
    }
}

/// The layout of `Vec<E>`: a `u64` length, then every entry resynchronised.
impl<E: SpecLast + Snap> Snap for SpecTable<E> {
    const MIN_BYTES: usize = <Vec<E>>::MIN_BYTES;

    fn save(&self, w: &mut StateWriter) {
        w.len_of(self.entries.len());
        for s in &self.entries {
            self.synced(s).save(w);
        }
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> StateResult<()> {
        let n = r.len_for::<E>()?;
        ensure(n == self.entries.len(), "table size mismatch")?;
        let epoch = self.epoch;
        for s in &mut self.entries {
            s.entry.restore(r)?;
            s.epoch = epoch;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bebop_isa::{restore_snapshot, snap, snapshot};

    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    struct Entry {
        last: u64,
        spec_last: u64,
        spec_inflight: u32,
    }

    impl SpecLast for Entry {
        fn resync(&mut self) {
            self.spec_inflight = 0;
            self.spec_last = self.last;
        }
    }

    snap!(Entry {
        last: u64,
        spec_last: u64,
        spec_inflight: u32,
    });

    fn speculating() -> Entry {
        Entry {
            last: 5,
            spec_last: 9,
            spec_inflight: 2,
        }
    }

    fn resynced() -> Entry {
        Entry {
            last: 5,
            spec_last: 5,
            spec_inflight: 0,
        }
    }

    #[test]
    fn a_flush_resyncs_each_entry_at_its_next_read() {
        let mut t = SpecTable::new(speculating(), 4);
        assert_eq!(*t.get_mut(0), speculating(), "no flush yet");
        t.squash();
        assert_eq!(*t.get_mut(1), resynced());
        // Speculation after the flush survives until the next one.
        *t.get_mut(1) = speculating();
        assert_eq!(*t.get_mut(1), speculating());
        t.squash();
        t.squash();
        assert!(t.iter_mut().all(|e| *e == resynced()));
    }

    #[test]
    fn snapshots_match_an_eagerly_resynced_vec() {
        let mut t = SpecTable::new(speculating(), 3);
        t.squash();
        *t.get_mut(2) = speculating();
        let eager = vec![resynced(), resynced(), speculating()];
        assert_eq!(snapshot(&t), snapshot(&eager));
        assert_eq!(SpecTable::<Entry>::MIN_BYTES, <Vec<Entry>>::MIN_BYTES);
        // Restored entries are current: the next read does not resync them.
        let mut back = SpecTable::new(Entry::default(), 3);
        back.squash();
        restore_snapshot(&mut back, &snapshot(&vec![speculating(); 3])).unwrap();
        assert_eq!(*back.get_mut(0), speculating());
        let mut short = SpecTable::new(Entry::default(), 2);
        assert!(restore_snapshot(&mut short, &snapshot(&eager)).is_err());
    }

    #[test]
    fn epoch_wrap_resyncs_everything_at_once() {
        let mut t = SpecTable::new(speculating(), 3);
        // An entry stamped in epoch 0, read again only after the counter wrapped.
        t.epoch = u32::MAX;
        *t.get_mut(1) = speculating();
        t.squash();
        assert_eq!(t.epoch, 0);
        assert!(t.iter_mut().all(|e| *e == resynced()));
        *t.get_mut(0) = speculating();
        assert_eq!(*t.get_mut(0), speculating(), "post-wrap epoch is current");
    }
}
