//! Branch target buffer and return-address stack.

use crate::cache::MruSets;
use bebop_isa::{ensure, snap, StateResult, VarVec};

/// A set-associative branch target buffer (Table I: 2-way, 8K entries).
#[derive(Debug, Clone)]
pub struct Btb {
    sets: MruSets<(u64, u64)>, // (pc tag, target), MRU first
    set_mask: u64,
}

impl Btb {
    /// Creates a BTB with `entries` total entries and `ways` associativity.
    ///
    /// # Panics
    ///
    /// Panics if the resulting number of sets is not a power of two or is zero.
    pub fn new(entries: usize, ways: usize) -> Self {
        assert!(entries > 0 && ways > 0);
        let sets = (entries / ways).max(1);
        assert!(sets.is_power_of_two(), "BTB sets must be a power of two");
        Btb {
            sets: MruSets::new(sets, ways),
            set_mask: sets as u64 - 1,
        }
    }

    fn set_of(&self, pc: u64) -> usize {
        // CAST: masked by the power-of-two set count.
        ((pc >> 2) & self.set_mask) as usize
    }

    /// Looks up the predicted target of the branch at `pc`.
    pub fn lookup(&self, pc: u64) -> Option<u64> {
        self.sets
            .set(self.set_of(pc))
            .iter()
            .find(|(tag, _)| *tag == pc)
            .map(|(_, t)| *t)
    }

    /// Records the target of the branch at `pc`, returning the target the
    /// BTB held for it before (what [`Btb::lookup`] would have predicted).
    pub fn update(&mut self, pc: u64, target: u64) -> Option<u64> {
        self.sets
            .touch(self.set_of(pc), |(tag, _)| *tag == pc, (pc, target))
            .map(|(_, t)| t)
    }
}

snap!(Btb { sets: MruSets<(u64, u64)> });

/// A bounded return-address stack. Pushing onto a full stack drops the oldest
/// entry (wrap-around), as hardware RASes do.
#[derive(Debug, Clone)]
pub struct ReturnAddressStack {
    entries: VarVec<u64>,
    capacity: usize,
}

impl ReturnAddressStack {
    /// Creates a RAS with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        ReturnAddressStack {
            entries: VarVec(Vec::with_capacity(capacity)),
            capacity,
        }
    }

    /// Pushes a return address.
    pub fn push(&mut self, return_addr: u64) {
        if self.entries.len() == self.capacity {
            self.entries.remove(0);
        }
        self.entries.push(return_addr);
    }

    /// Pops the predicted return address, if any.
    pub fn pop(&mut self) -> Option<u64> {
        self.entries.pop()
    }

    /// Current depth.
    pub fn depth(&self) -> usize {
        self.entries.len()
    }

    /// Rejects a restored stack deeper than its capacity.
    fn check_restored(&mut self) -> StateResult<()> {
        ensure(
            self.entries.len() <= self.capacity,
            "RAS depth exceeds capacity",
        )
    }
}

snap!(ReturnAddressStack { entries: VarVec<u64> } validate check_restored);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn btb_roundtrip() {
        let mut b = Btb::new(64, 2);
        assert_eq!(b.lookup(0x1000), None);
        b.update(0x1000, 0x2000);
        assert_eq!(b.lookup(0x1000), Some(0x2000));
        b.update(0x1000, 0x3000);
        assert_eq!(b.lookup(0x1000), Some(0x3000));
    }

    #[test]
    fn btb_evicts_lru_within_set() {
        let mut b = Btb::new(4, 2); // 2 sets of 2 ways
                                    // Three branches mapping to the same set (stride of 2 sets * 4 bytes = 8).
        b.update(0x0, 0xa);
        b.update(0x8, 0xb);
        b.update(0x10, 0xc); // evicts 0x0
        assert_eq!(b.lookup(0x0), None);
        assert_eq!(b.lookup(0x8), Some(0xb));
        assert_eq!(b.lookup(0x10), Some(0xc));
    }

    #[test]
    fn ras_is_lifo() {
        let mut r = ReturnAddressStack::new(4);
        r.push(1);
        r.push(2);
        r.push(3);
        assert_eq!(r.pop(), Some(3));
        assert_eq!(r.pop(), Some(2));
        assert_eq!(r.pop(), Some(1));
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn ras_overflow_drops_oldest() {
        let mut r = ReturnAddressStack::new(2);
        r.push(1);
        r.push(2);
        r.push(3);
        assert_eq!(r.depth(), 2);
        assert_eq!(r.pop(), Some(3));
        assert_eq!(r.pop(), Some(2));
        assert_eq!(r.pop(), None);
    }
}
