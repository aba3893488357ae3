//! Set-associative caches and the L1/L2/DRAM hierarchy latency model.

use crate::config::MemConfig;
use crate::prefetch::StridePrefetcher;
use bebop_isa::{ensure, snap, Snap, StateReader, StateResult, StateWriter};

/// Set-associative storage shared by the caches and the BTB: one flat
/// `sets × ways` array holding each set's entries most-recently-used first,
/// plus a per-set fill count. Lookups scan one contiguous run of at most
/// `ways` entries, and replacement shifts within it — nothing allocates.
#[derive(Debug, Clone)]
pub(crate) struct MruSets<T> {
    entries: Vec<T>,
    /// Valid entries per set: one byte each, so the counts of even the L2's
    /// 2048 sets stay cache-resident.
    fill: Vec<u8>,
    ways: usize,
}

impl<T: Copy + Default> MruSets<T> {
    /// Empty storage of `sets` sets of `ways` entries.
    ///
    /// # Panics
    ///
    /// Panics if `ways` exceeds 255.
    pub(crate) fn new(sets: usize, ways: usize) -> Self {
        assert!(
            u8::try_from(ways).is_ok(),
            "associativity {ways} exceeds the supported 255 ways"
        );
        MruSets {
            entries: vec![T::default(); sets * ways],
            fill: vec![0; sets],
            ways,
        }
    }

    /// The valid entries of set `s`, most recently used first.
    pub(crate) fn set(&self, s: usize) -> &[T] {
        let b = s * self.ways;
        &self.entries[b..b + usize::from(self.fill[s])]
    }

    /// Makes `v` the most recently used entry of set `s`: it replaces the
    /// first entry `hit` matches, else fills a free way, else evicts the least
    /// recently used one. Returns the entry `v` replaced, if one matched.
    pub(crate) fn touch(&mut self, s: usize, hit: impl Fn(&T) -> bool, v: T) -> Option<T> {
        let found = self.set(s).iter().position(hit);
        let fill = usize::from(self.fill[s]);
        let pos = match found {
            Some(pos) => pos,
            None if fill < self.ways => {
                self.fill[s] += 1;
                fill
            }
            None => self.ways - 1,
        };
        let b = s * self.ways;
        // A shift loop, not `copy_within`: that is a libc `memmove` call per
        // touch for a run of at most `ways` entries.
        let mut carry = v;
        for e in &mut self.entries[b..=b + pos] {
            carry = std::mem::replace(e, carry);
        }
        found.map(|_| carry)
    }
}

/// Encoded as a list of variable-length sets: the set count (which must
/// match the configuration), then per set its fill and entries, MRU first.
/// Restore rejects a set holding more entries than the associativity.
impl<T: Snap + Copy + Default> Snap for MruSets<T> {
    const MIN_BYTES: usize = 8;

    fn save(&self, w: &mut StateWriter) {
        w.len_of(self.fill.len());
        for s in 0..self.fill.len() {
            w.len_of(self.set(s).len());
            self.set(s).save(w);
        }
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> StateResult<()> {
        let sets = r.len_for::<u64>()?;
        ensure(sets == self.fill.len(), "table size mismatch")?;
        for s in 0..sets {
            let n = r.len_for::<T>()?;
            ensure(n <= self.ways, "set-associative set overfilled")?;
            // CAST: n <= ways, which fits in u8 (checked at construction).
            self.fill[s] = n as u8;
            let b = s * self.ways;
            self.entries[b..b + n].restore(r)?;
        }
        Ok(())
    }
}

/// A set-associative cache with true-LRU replacement, tracking only tags (the
/// simulator needs hit/miss decisions, not data).
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    sets: MruSets<u64>,
    line_shift: u32,
    set_bits: u32,
    set_mask: u64,
    accesses: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Creates a cache of `size_bytes` with `ways` associativity and `line_bytes`
    /// lines.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sizes, a line size or a
    /// number of sets that is not a power of two).
    pub fn new(size_bytes: u64, ways: usize, line_bytes: u64) -> Self {
        assert!(size_bytes > 0 && ways > 0 && line_bytes > 0);
        assert!(
            line_bytes.is_power_of_two(),
            "line size ({line_bytes}) must be a power of two"
        );
        let num_lines = size_bytes / line_bytes;
        let num_sets = (num_lines as usize / ways).max(1);
        assert!(
            num_sets.is_power_of_two(),
            "number of sets ({num_sets}) must be a power of two"
        );
        SetAssocCache {
            sets: MruSets::new(num_sets, ways),
            line_shift: line_bytes.trailing_zeros(),
            set_bits: num_sets.trailing_zeros(),
            set_mask: num_sets as u64 - 1,
            accesses: 0,
            misses: 0,
        }
    }

    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        // CAST: masked by the power-of-two set count.
        ((line & self.set_mask) as usize, line >> self.set_bits)
    }

    /// Accesses `addr`; returns `true` on a hit. Misses allocate the line (LRU
    /// eviction) — the hierarchy model charges latency separately.
    pub fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        let (set, tag) = self.set_and_tag(addr);
        let hit = self.sets.touch(set, |&t| t == tag, tag).is_some();
        if !hit {
            self.misses += 1;
        }
        hit
    }

    /// Installs a line without counting an access or a miss (used by prefetches).
    pub fn fill(&mut self, addr: u64) {
        let (set, tag) = self.set_and_tag(addr);
        self.sets.touch(set, |&t| t == tag, tag);
    }

    /// Returns `true` if the line containing `addr` is present (no LRU update).
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        self.sets.set(set).contains(&tag)
    }

    /// Number of accesses so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Number of misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss ratio (0 when no accesses were made).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

snap!(SetAssocCache { sets: MruSets<u64>, accesses: u64, misses: u64 });

/// Statistics of the memory hierarchy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// L1D accesses.
    pub l1d_accesses: u64,
    /// L1D misses.
    pub l1d_misses: u64,
    /// L2 accesses (L1D misses).
    pub l2_accesses: u64,
    /// L2 misses (DRAM accesses).
    pub l2_misses: u64,
    /// Prefetches issued into L2.
    pub prefetches: u64,
}

/// The L1D / L2 / DRAM latency model with an L2 stride prefetcher.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    l1d: SetAssocCache,
    l2: SetAssocCache,
    prefetcher: StridePrefetcher,
    cfg: MemConfig,
    /// log2 of the (power-of-two) line size.
    line_shift: u32,
    stats: MemStats,
}

impl MemoryHierarchy {
    /// Builds the hierarchy described by `cfg`.
    pub fn new(cfg: MemConfig) -> Self {
        MemoryHierarchy {
            l1d: SetAssocCache::new(cfg.l1d_bytes, cfg.l1d_ways, cfg.line_bytes),
            l2: SetAssocCache::new(cfg.l2_bytes, cfg.l2_ways, cfg.line_bytes),
            prefetcher: StridePrefetcher::new(64, cfg.prefetch_degree),
            line_shift: cfg.line_bytes.trailing_zeros(),
            cfg,
            stats: MemStats::default(),
        }
    }

    /// Performs a data access for the load/store at `pc` touching `addr` and
    /// returns its latency in cycles.
    pub fn access(&mut self, pc: u64, addr: u64) -> u64 {
        self.stats.l1d_accesses += 1;
        let lat = if self.l1d.access(addr) {
            self.cfg.l1d_lat
        } else {
            self.stats.l1d_misses += 1;
            self.stats.l2_accesses += 1;
            if self.l2.access(addr) {
                self.cfg.l1d_lat + self.cfg.l2_lat
            } else {
                self.stats.l2_misses += 1;
                // DRAM latency varies with row-buffer locality; use a deterministic
                // value in [min, max] derived from the address.
                let span = self.cfg.mem_lat_max - self.cfg.mem_lat_min;
                let jitter = if span == 0 {
                    0
                } else {
                    (addr >> self.line_shift).wrapping_mul(0x9e37_79b9) % (span + 1)
                };
                self.cfg.l1d_lat + self.cfg.l2_lat + self.cfg.mem_lat_min + jitter
            }
        };

        // Train the prefetcher on every access; prefetches are installed into L2.
        for pf_addr in self.prefetcher.train(pc, addr, self.cfg.line_bytes) {
            if !self.l2.probe(pf_addr) {
                self.stats.prefetches += 1;
                self.l2.fill(pf_addr);
            }
        }
        lat
    }

    /// Hierarchy statistics.
    pub fn stats(&self) -> MemStats {
        self.stats
    }
}

snap!(MemStats {
    l1d_accesses: u64,
    l1d_misses: u64,
    l2_accesses: u64,
    l2_misses: u64,
    prefetches: u64,
});
snap!(MemoryHierarchy {
    l1d: SetAssocCache,
    l2: SetAssocCache,
    prefetcher: StridePrefetcher,
    stats: MemStats,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_hits_after_fill() {
        let mut c = SetAssocCache::new(1024, 2, 64);
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1030)); // same 64B line
        assert_eq!(c.misses(), 1);
        assert_eq!(c.accesses(), 3);
    }

    #[test]
    fn cache_lru_evicts_oldest() {
        // 2-way, 64B lines, 2 sets (256 B total).
        let mut c = SetAssocCache::new(256, 2, 64);
        // Three lines mapping to the same set (stride = 2 lines = 128 B).
        assert!(!c.access(0x0));
        assert!(!c.access(0x100));
        assert!(!c.access(0x200)); // evicts 0x0
        assert!(!c.access(0x0)); // miss again
        assert!(c.access(0x200)); // still resident
    }

    #[test]
    fn probe_does_not_allocate() {
        let mut c = SetAssocCache::new(1024, 2, 64);
        assert!(!c.probe(0x40));
        c.fill(0x40);
        assert!(c.probe(0x40));
        assert_eq!(c.accesses(), 0);
    }

    /// The reference for [`MruSets::touch`]: one LRU list per set, most
    /// recently used first.
    fn reference_touch(
        set: &mut Vec<(u64, u64)>,
        ways: usize,
        v: (u64, u64),
    ) -> Option<(u64, u64)> {
        let old = set.iter().position(|e| e.0 == v.0).map(|p| set.remove(p));
        if old.is_none() && set.len() == ways {
            set.pop();
        }
        set.insert(0, v);
        old
    }

    #[test]
    fn mru_sets_touch_matches_a_list_per_set() {
        // The caches' and the BTB's associativities.
        for ways in [8usize, 16] {
            let sets = 4;
            let mut m = MruSets::<(u64, u64)>::new(sets, ways);
            let mut lists: Vec<Vec<(u64, u64)>> = vec![Vec::new(); sets];
            let (mut mru_hits, mut lru_hits, mut fills, mut evictions) = (0, 0, 0, 0);
            let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ ways as u64;
            for step in 0..5_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // CAST: reduced modulo the set count.
                let s = (x % sets as u64) as usize;
                // Keys from a pool half again as large as a set: hits,
                // fills and evictions all recur. The value tags the step, so
                // a returned entry shows which touch stored it.
                let v = ((x >> 8) % (ways as u64 * 3 / 2), step);
                let list = &mut lists[s];
                match list.iter().position(|e| e.0 == v.0) {
                    Some(0) => mru_hits += 1,
                    Some(p) if p == ways - 1 => lru_hits += 1,
                    Some(_) => {}
                    None if list.len() < ways => fills += 1,
                    None => evictions += 1,
                }
                let want = reference_touch(list, ways, v);
                let got = m.touch(s, |e| e.0 == v.0, v);
                assert_eq!(got, want, "{ways}-way step {step}");
                assert_eq!(m.set(s), &list[..], "{ways}-way step {step}");
            }
            assert!(
                mru_hits > 0 && lru_hits > 0 && fills == sets * ways && evictions > 0,
                "{ways}-way: {mru_hits} MRU hits, {lru_hits} LRU hits, {fills} fills, {evictions} evictions"
            );
        }
    }

    #[test]
    fn hierarchy_latencies_are_ordered() {
        let cfg = MemConfig::default();
        let mut h = MemoryHierarchy::new(cfg);
        let miss_lat = h.access(0x400, 0x12345000);
        let hit_lat = h.access(0x400, 0x12345000);
        assert!(miss_lat >= cfg.l1d_lat + cfg.l2_lat + cfg.mem_lat_min);
        assert!(miss_lat <= cfg.l1d_lat + cfg.l2_lat + cfg.mem_lat_max);
        assert_eq!(hit_lat, cfg.l1d_lat);
        assert_eq!(h.stats().l1d_misses, 1);
        assert_eq!(h.stats().l2_misses, 1);
    }

    #[test]
    fn streaming_accesses_benefit_from_prefetcher() {
        let cfg = MemConfig::default();
        let mut h = MemoryHierarchy::new(cfg);
        let mut dram_accesses = 0u64;
        // Stream through 4 MB with a 64 B stride from a single PC.
        for i in 0..65536u64 {
            let before = h.stats().l2_misses;
            h.access(0x1000, 0x4000_0000 + i * 64);
            if h.stats().l2_misses > before {
                dram_accesses += 1;
            }
        }
        // The prefetcher should cover the vast majority of line misses in L2.
        assert!(h.stats().prefetches > 1000);
        assert!(
            (dram_accesses as f64) < 0.2 * 65536.0,
            "prefetcher covered too few misses: {dram_accesses}"
        );
    }

    #[test]
    fn miss_ratio_sane() {
        let mut c = SetAssocCache::new(32 * 1024, 8, 64);
        for i in 0..1000u64 {
            c.access(i * 64);
        }
        assert!(c.miss_ratio() > 0.9);
        for i in 0..1000u64 {
            c.access(i * 64 % (16 * 1024));
        }
        assert!(c.miss_ratio() < 0.9);
    }
}
