//! PC-indexed stride prefetcher (Table I: L2 stride prefetcher, degree 8).

use bebop_isa::snap;

/// One entry of the prefetcher's reference prediction table.
#[derive(Debug, Clone, Copy, Default)]
struct PrefetchEntry {
    pc_tag: u64,
    last_addr: u64,
    stride: i64,
    confidence: u8,
    valid: bool,
}

/// A classic PC-indexed stride prefetcher. Once a load PC has been observed with a
/// stable non-zero stride twice in a row, subsequent accesses trigger `degree`
/// prefetches ahead of the current address.
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    table: Vec<PrefetchEntry>,
    degree: u8,
}

impl StridePrefetcher {
    /// Creates a prefetcher with `entries` table entries (rounded up to a power of
    /// two) and the given prefetch degree.
    pub fn new(entries: usize, degree: u8) -> Self {
        let n = entries.next_power_of_two().max(1);
        StridePrefetcher {
            table: vec![PrefetchEntry::default(); n],
            degree,
        }
    }

    /// Observes an access by the instruction at `pc` to `addr` and returns the
    /// addresses that should be prefetched (line-aligned, possibly none).
    /// `line_bytes` must be a power of two.
    pub fn train(&mut self, pc: u64, addr: u64, line_bytes: u64) -> PrefetchTargets {
        let mut out = PrefetchTargets {
            next: addr,
            stride: 0,
            line_mask: !(line_bytes - 1),
            remaining: 0,
        };
        if self.degree == 0 {
            return out;
        }
        // CAST: masked by the power-of-two table length right after.
        let idx = (pc as usize >> 2) & (self.table.len() - 1);
        let e = &mut self.table[idx];
        if e.valid && e.pc_tag == pc {
            let stride = addr.wrapping_sub(e.last_addr) as i64;
            if stride == e.stride && stride != 0 {
                e.confidence = e.confidence.saturating_add(1);
            } else {
                e.confidence = e.confidence.saturating_sub(1);
                if e.confidence == 0 {
                    e.stride = stride;
                }
            }
            if e.confidence >= 2 && e.stride != 0 {
                out.stride = e.stride;
                out.remaining = self.degree;
            }
            e.last_addr = addr;
        } else {
            *e = PrefetchEntry {
                pc_tag: pc,
                last_addr: addr,
                stride: 0,
                confidence: 0,
                valid: true,
            };
        }
        out
    }
}

/// The prefetch addresses one [`StridePrefetcher::train`] call issues: the
/// line-aligned addresses 1, 2, …, degree strides past the access.
#[derive(Debug, Clone)]
pub struct PrefetchTargets {
    next: u64,
    stride: i64,
    line_mask: u64,
    remaining: u8,
}

impl Iterator for PrefetchTargets {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.next = self.next.wrapping_add_signed(self.stride);
        Some(self.next & self.line_mask)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = usize::from(self.remaining);
        (n, Some(n))
    }
}

impl ExactSizeIterator for PrefetchTargets {}

snap!(PrefetchEntry {
    pc_tag: u64,
    last_addr: u64,
    stride: i64,
    confidence: u8,
    valid: bool,
});
snap!(StridePrefetcher { table: Vec<PrefetchEntry> });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_constant_stride() {
        let mut p = StridePrefetcher::new(16, 4);
        let mut issued = Vec::new();
        for i in 0..8u64 {
            issued = p.train(0x100, 0x1000 + i * 64, 64).collect();
        }
        assert_eq!(issued.len(), 4);
        // Prefetches run ahead of the last address.
        assert_eq!(issued[0], 0x1000 + 8 * 64);
        assert_eq!(issued[3], 0x1000 + 11 * 64);
    }

    #[test]
    fn no_prefetch_for_random_pattern() {
        let mut p = StridePrefetcher::new(16, 4);
        let addrs = [0x1000u64, 0x9030, 0x2200, 0xfff0, 0x0450, 0x7777];
        let mut total = 0;
        for a in addrs {
            total += p.train(0x100, a, 64).len();
        }
        assert_eq!(total, 0);
    }

    #[test]
    fn different_pcs_tracked_separately() {
        let mut p = StridePrefetcher::new(16, 2);
        // PCs chosen not to alias in the 16-entry table.
        for i in 0..6u64 {
            let a = p.train(0x100, 0x1000 + i * 8, 64);
            let b = p.train(0x104, 0x8000 + i * 128, 64);
            if i >= 3 {
                assert_ne!(a.len(), 0);
                assert_ne!(b.len(), 0);
            }
        }
    }

    #[test]
    fn zero_degree_is_disabled() {
        let mut p = StridePrefetcher::new(16, 0);
        for i in 0..8u64 {
            assert_eq!(p.train(0x100, 0x1000 + i * 64, 64).len(), 0);
        }
    }
}
