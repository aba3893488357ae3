//! Property-based tests on the core data structures and cross-crate invariants.
//!
//! The environment is offline, so instead of `proptest` these use a small
//! seeded-case harness: each property is checked against a few hundred
//! deterministic pseudo-random inputs (failures are reproducible by case index).

use bebop::{
    BlockDVtageConfig, MixSpec, ShardedTable, SpecWindowSize, SpeculativeWindow, MAX_NPRED,
};
use bebop_bench::sampling::{cluster_slices, workload_seed};
use bebop_isa::{byte_index_in_block, fetch_block_pc, restore_snapshot, snapshot, SeqQueue};
use bebop_trace::{profile_slices, SliceBbv, TraceBuffer, TraceGenerator, WorkloadSpec};
use bebop_uarch::{
    gmean, Btb, Lane, LanePool, OccupancyRing, SetAssocCache, MAX_DENSE_SPAN, MAX_OVERFLOW_TRACKED,
    NUM_POOL_LANES,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use slot_pool::SlotPool;

#[path = "support/slot_pool.rs"]
mod slot_pool;

const CASES: u64 = 200;

fn rng(case: u64) -> SmallRng {
    SmallRng::seed_from_u64(0x9e37_79b9 ^ case)
}

fn slot_values(v: u64) -> [Option<u64>; MAX_NPRED] {
    let mut vals = [None; MAX_NPRED];
    vals[0] = Some(v);
    vals
}

/// Fetch-block arithmetic: the block PC is aligned, contains the PC, and the
/// byte index is the offset within the block.
#[test]
fn prop_fetch_block_arithmetic() {
    for case in 0..CASES {
        let mut r = rng(case);
        let pc: u64 = r.gen();
        let shift = r.gen_range(3u32..8);
        let block_bytes = 1u64 << shift;
        let block = fetch_block_pc(pc, block_bytes);
        let byte = byte_index_in_block(pc, block_bytes);
        assert_eq!(block % block_bytes, 0);
        assert!(pc >= block && pc < block + block_bytes);
        assert_eq!(block + u64::from(byte), pc, "case {case}");
    }
}

/// The speculative window always returns the most recent matching entry, and a
/// squash removes exactly the entries younger than the flush point.
#[test]
fn prop_spec_window_most_recent_and_squash() {
    for case in 0..CASES {
        let mut r = rng(case);
        let n = r.gen_range(1usize..200);
        let blocks: Vec<u64> = (0..n).map(|_| r.gen_range(0u64..8)).collect();
        let capacity = r.gen_range(1usize..64);
        let flush_at = r.gen_range(0usize..200);

        let mut w = SpeculativeWindow::new(SpecWindowSize::Entries(capacity), 15);
        for (seq, b) in blocks.iter().enumerate() {
            w.push(b * 16, seq as u64, slot_values(seq as u64));
        }
        // Most recent matching entry wins.
        for b in 0u64..8 {
            if let Some(e) = w.lookup(b * 16) {
                let expected = blocks
                    .iter()
                    .enumerate()
                    .rev()
                    .find(|(seq, &blk)| blk == b && *seq >= blocks.len().saturating_sub(capacity))
                    .map(|(seq, _)| seq as u64);
                assert_eq!(Some(e.seq), expected, "case {case}");
            }
        }
        // Squash drops strictly younger entries only.
        let flush_seq = flush_at.min(blocks.len()) as u64;
        w.squash(flush_seq);
        for b in 0u64..8 {
            if let Some(e) = w.lookup(b * 16) {
                assert!(e.seq <= flush_seq, "case {case}");
            }
        }
    }
}

/// The FIFO update queue preserves order and rollback never leaves younger
/// entries behind.
#[test]
fn prop_fifo_order_and_rollback() {
    for case in 0..CASES {
        let mut r = rng(case);
        let n = r.gen_range(1usize..50);
        let seqs: Vec<u64> = (0..n).map(|_| r.gen_range(1u64..50)).collect();
        let flush = r.gen_range(0u64..2000);

        let mut q = SeqQueue::default();
        let mut acc = 0u64;
        let mut pushed = Vec::new();
        for s in seqs {
            acc += s;
            q.push((acc, acc));
            pushed.push(acc);
        }
        q.squash(flush, drop);
        let remaining: Vec<u64> = std::iter::from_fn(|| q.pop_front().map(|(s, _)| s)).collect();
        let expected: Vec<u64> = pushed.into_iter().filter(|&s| s <= flush).collect();
        assert_eq!(remaining, expected, "case {case}");
    }
}

/// Slot pools never exceed their per-cycle width and never go backwards.
#[test]
fn prop_slot_pool_width() {
    for case in 0..CASES {
        let mut r = rng(case);
        let width = r.gen_range(1u16..8);
        let n = r.gen_range(1usize..200);
        let mut pool = SlotPool::new(width);
        let mut per_cycle = std::collections::BTreeMap::new();
        for _ in 0..n {
            let t = r.gen_range(0u64..100);
            let c = pool.allocate(t);
            assert!(c >= t, "case {case}");
            let count = per_cycle.entry(c).or_insert(0u16);
            *count += 1;
            assert!(*count <= width, "case {case}");
        }
    }
}

/// The unified generation-counted `LanePool` is allocation-for-allocation
/// identical to a bank of independent per-class `SlotPool`s across arbitrary
/// width/request/prune sequences — the differential guarantee the pipeline's
/// structure-of-arrays refactor rests on, in the same scalar-reference style
/// as the `slot_simd` equivalence tests. The request stream mixes near
/// cycles, far-future spikes (exercising the sparse overflow and its
/// prune-time migration back into the dense window), shared prunes and
/// per-lane horizon prunes; every case also snapshots the lane pool mid-way
/// and checks the restored copy stays in lockstep.
#[test]
fn prop_lane_pool_matches_slot_pool_bank() {
    for case in 0..CASES {
        let mut r = rng(case);
        let widths: [u16; NUM_POOL_LANES] = std::array::from_fn(|_| r.gen_range(1u16..9));
        let mut pool = LanePool::new(widths);
        let mut bank: Vec<SlotPool> = widths.iter().map(|&w| SlotPool::new(w)).collect();
        let n = r.gen_range(1usize..300);
        let mut horizon = 0u64;
        let mut restored: Option<LanePool> = None;
        for step in 0..n {
            let lane = Lane::ALL[r.gen_range(0usize..NUM_POOL_LANES)];
            // Mostly near-window requests, occasionally a far-future spike:
            // some just past the dense span (exercising the sparse overflow
            // and its prune-time migration back into the dense window), some
            // many spans out (the unbounded-growth bug's trigger — the old
            // pool resized its deque out to the requested cycle).
            let req = if r.gen_range(0u32..20) == 0 {
                horizon + MAX_DENSE_SPAN * r.gen_range(1u64..8) + r.gen_range(0u64..1000)
            } else {
                horizon + r.gen_range(0u64..200)
            };
            let got = pool.allocate(lane, req);
            let want = bank[lane as usize].allocate(req);
            assert_eq!(got, want, "case {case} step {step} lane {}", lane.name());
            if let Some(copy) = restored.as_mut() {
                assert_eq!(
                    copy.allocate(lane, req),
                    want,
                    "case {case} step {step} restored"
                );
            }
            match r.gen_range(0u32..12) {
                0 => {
                    // Shared prune: every lane's horizon advances together.
                    horizon += r.gen_range(0u64..50);
                    pool.prune_below(horizon);
                    if let Some(copy) = restored.as_mut() {
                        copy.prune_below(horizon);
                    }
                    for p in bank.iter_mut() {
                        p.prune_below(horizon);
                    }
                }
                1 => {
                    // Per-lane horizon (the commit / execution-lane trail).
                    let l = Lane::ALL[r.gen_range(0usize..NUM_POOL_LANES)];
                    let h = horizon + r.gen_range(0u64..3000);
                    pool.prune_lane_below(l, h);
                    if let Some(copy) = restored.as_mut() {
                        copy.prune_lane_below(l, h);
                    }
                    bank[l as usize].prune_below(h);
                }
                2 if restored.is_none() => {
                    // Snapshot mid-sequence; the restored pool must continue
                    // in lockstep (window shape, horizons and generation all
                    // round-trip).
                    let mut copy = LanePool::new(widths);
                    restore_snapshot(&mut copy, &snapshot(&pool))
                        .expect("round-trip of a live pool must restore");
                    assert_eq!(copy.generation(), pool.generation(), "case {case}");
                    restored = Some(copy);
                }
                _ => {}
            }
        }
        // Regression lock for the unbounded-growth bug: a far-future request
        // used to resize the dense deque out to the requested cycle — the
        // multi-span spikes above would have grown the window to several
        // times MAX_DENSE_SPAN. Dense storage may legitimately materialise up
        // to the span bound (prune-time migration of a just-past-the-window
        // entry), but never beyond it; everything further is sparse, and the
        // sequence holds at most one far entry per step.
        let bound = MAX_DENSE_SPAN + n as u64;
        assert!(
            (pool.tracked_cycles() as u64) <= bound,
            "case {case}: lane pool window grew past the dense bound ({})",
            pool.tracked_cycles()
        );
        for (li, p) in bank.iter().enumerate() {
            assert!(
                (p.tracked_cycles() as u64) <= bound,
                "case {case}: slot pool {li} window grew past the dense bound ({})",
                p.tracked_cycles()
            );
        }
    }
}

/// A group allocation on one lane is exactly as many successive scalar
/// allocations, whatever residual usage the target cycle already carries.
#[test]
fn prop_lane_pool_group_allocation_is_exact() {
    for case in 0..CASES {
        let mut r = rng(case);
        let widths: [u16; NUM_POOL_LANES] = std::array::from_fn(|_| r.gen_range(1u16..9));
        let mut grouped = LanePool::new(widths);
        let mut scalar = LanePool::new(widths);
        let mut cycle = 0u64;
        for step in 0..r.gen_range(1usize..60) {
            let lane = Lane::ALL[r.gen_range(0usize..NUM_POOL_LANES)];
            cycle += r.gen_range(0u64..4);
            let k = r.gen_range(1usize..9);
            let mut out = vec![0u64; k];
            grouped.allocate_group(lane, cycle, &mut out);
            for (j, &got) in out.iter().enumerate() {
                let want = scalar.allocate(lane, cycle);
                assert_eq!(got, want, "case {case} step {step} slot {j}");
            }
        }
    }
}

/// The batched occupancy-ring floor gather (`release_floor_after(k)` against
/// the pre-group state) equals the scalar interleaved constrain/push
/// sequence for any in-group push count below the capacity.
#[test]
fn prop_occupancy_ring_floor_gather() {
    for case in 0..CASES {
        let mut r = rng(case);
        let capacity = r.gen_range(1usize..16);
        let mut live = OccupancyRing::new(capacity);
        let mut batched = OccupancyRing::new(capacity);
        let mut release = 0u64;
        for _ in 0..r.gen_range(1usize..30) {
            let group_len = r.gen_range(1usize..=capacity);
            let group: Vec<u64> = (0..group_len)
                .map(|_| {
                    release += r.gen_range(1u64..20);
                    release
                })
                .collect();
            for (k, &rel) in group.iter().enumerate() {
                assert_eq!(
                    batched.release_floor_after(k),
                    live.constrain(0),
                    "case {case} position {k}"
                );
                live.push(rel);
            }
            batched.push_group(&group);
        }
    }
}

/// Occupancy rings never allow more in-flight entries than their capacity:
/// the constrained allocation cycle is at or after the release of the entry
/// `capacity` positions earlier.
#[test]
fn prop_occupancy_ring() {
    for case in 0..CASES {
        let mut r = rng(case);
        let capacity = r.gen_range(1usize..16);
        let n = r.gen_range(1usize..100);
        let releases: Vec<u64> = (0..n).map(|_| r.gen_range(1u64..1000)).collect();
        let mut ring = OccupancyRing::new(capacity);
        let mut history: Vec<u64> = Vec::new();
        for (i, rel) in releases.iter().enumerate() {
            let constrained = ring.constrain(0);
            if i >= capacity {
                assert!(constrained >= history[i - capacity], "case {case}");
            }
            let release = constrained + rel;
            ring.push(release);
            history.push(release);
        }
    }
}

/// Per-set most-recently-used-first lists: the set-associative reference the
/// flat `SetAssocCache` and `Btb` storage is held to.
struct MruReference<T> {
    sets: Vec<Vec<T>>,
    ways: usize,
}

impl<T: Copy> MruReference<T> {
    fn new(sets: usize, ways: usize) -> Self {
        MruReference {
            sets: (0..sets).map(|_| Vec::new()).collect(),
            ways,
        }
    }

    fn find(&self, set: usize, hit: impl Fn(&T) -> bool) -> Option<T> {
        self.sets[set].iter().copied().find(hit)
    }

    /// Moves (or inserts, evicting the LRU entry of a full set) `v` to the
    /// front of `set`; returns whether an entry matched.
    fn touch(&mut self, set: usize, hit: impl Fn(&T) -> bool, v: T) -> bool {
        let lines = &mut self.sets[set];
        let found = lines.iter().position(hit);
        match found {
            Some(pos) => {
                lines.remove(pos);
            }
            None if lines.len() == self.ways => {
                lines.pop();
            }
            None => {}
        }
        lines.insert(0, v);
        found.is_some()
    }
}

/// The flat set-associative cache behaves exactly like per-set MRU lists:
/// same hits, same probes, same counters, across seeded streams that
/// overfill and conflict in a few hot sets, with a snapshot round-trip
/// mid-stream that must continue in lockstep.
#[test]
fn prop_flat_cache_matches_mru_list_reference() {
    for case in 0..CASES {
        let mut r = rng(case);
        let line_bytes = 1u64 << r.gen_range(4u32..8);
        let ways = r.gen_range(1usize..9);
        let sets = 1usize << r.gen_range(0u32..5);
        let mut cache = SetAssocCache::new(line_bytes * (sets * ways) as u64, ways, line_bytes);
        let mut reference = MruReference::new(sets, ways);
        let (mut accesses, mut misses) = (0u64, 0u64);
        // Lines drawn from a pool a few times the capacity, half the draws
        // from three hot sets, so sets fill, conflict and evict.
        let pool = (sets * ways * 3) as u64;
        let steps = r.gen_range(1usize..400);
        let round_trip_at = r.gen_range(0..steps);
        for step in 0..steps {
            let line = if r.gen_bool(0.5) {
                r.gen_range(0u64..3) + sets as u64 * r.gen_range(0u64..pool / sets as u64 + 1)
            } else {
                r.gen_range(0..pool)
            };
            let addr = line * line_bytes + r.gen_range(0..line_bytes);
            // CAST: reduced modulo the set count.
            let set = (line % sets as u64) as usize;
            let same = |&l: &u64| l == line;
            match r.gen_range(0u32..4) {
                0 => {
                    cache.fill(addr);
                    reference.touch(set, same, line);
                }
                1 => assert_eq!(
                    cache.probe(addr),
                    reference.find(set, same).is_some(),
                    "case {case} step {step}: probe"
                ),
                _ => {
                    let hit = reference.touch(set, same, line);
                    accesses += 1;
                    misses += u64::from(!hit);
                    assert_eq!(cache.access(addr), hit, "case {case} step {step}: access");
                }
            }
            assert_eq!(
                (cache.accesses(), cache.misses()),
                (accesses, misses),
                "case {case} step {step}: counters"
            );
            if step == round_trip_at {
                let bytes = snapshot(&cache);
                let mut copy =
                    SetAssocCache::new(line_bytes * (sets * ways) as u64, ways, line_bytes);
                restore_snapshot(&mut copy, &bytes).expect("a live cache must restore");
                assert_eq!(snapshot(&copy), bytes, "case {case}: lossy round-trip");
                cache = copy;
            }
        }
        // Every line the reference holds is resident, and nothing else.
        for line in 0..pool {
            let set = (line % sets as u64) as usize;
            assert_eq!(
                cache.probe(line * line_bytes),
                reference.find(set, |&l| l == line).is_some(),
                "case {case}: final contents of line {line}"
            );
        }
    }
}

/// The flat BTB behaves exactly like per-set MRU lists of (pc, target):
/// same lookups (and previous targets returned by updates) across seeded
/// lookup/update streams with retargeted branches, full sets and conflicts,
/// and a mid-stream snapshot round-trip.
#[test]
fn prop_flat_btb_matches_mru_list_reference() {
    for case in 0..CASES {
        let mut r = rng(case);
        let ways = r.gen_range(1usize..5);
        let sets = 1usize << r.gen_range(0u32..4);
        let mut btb = Btb::new(sets * ways, ways);
        let mut reference = MruReference::new(sets, ways);
        let pcs = (sets * ways * 3) as u64;
        let steps = r.gen_range(1usize..300);
        let round_trip_at = r.gen_range(0..steps);
        for step in 0..steps {
            let pc = 4 * r.gen_range(0..pcs) + 0x40_0000;
            // CAST: reduced modulo the set count.
            let set = ((pc >> 2) % sets as u64) as usize;
            let same = |&(p, _): &(u64, u64)| p == pc;
            let want = reference.find(set, same).map(|(_, t)| t);
            assert_eq!(btb.lookup(pc), want, "case {case} step {step}: lookup");
            if r.gen_bool(0.6) {
                let target = r.gen_range(0u64..4) * 0x100;
                assert_eq!(
                    btb.update(pc, target),
                    want,
                    "case {case} step {step}: update"
                );
                reference.touch(set, same, (pc, target));
            }
            if step == round_trip_at {
                let bytes = snapshot(&btb);
                let mut copy = Btb::new(sets * ways, ways);
                restore_snapshot(&mut copy, &bytes).expect("a live BTB must restore");
                assert_eq!(snapshot(&copy), bytes, "case {case}: lossy round-trip");
                btb = copy;
            }
        }
    }
}

/// Storage accounting is monotone in every size parameter.
#[test]
fn prop_storage_monotone() {
    for case in 0..CASES {
        let mut r = rng(case);
        let base = r.gen_range(64usize..1024);
        let tagged = r.gen_range(64usize..512);
        let npred = r.gen_range(1usize..MAX_NPRED);
        let stride_bits = [8u32, 16, 32, 64][r.gen_range(0usize..4)];
        let cfg = BlockDVtageConfig {
            npred,
            base_entries: base,
            tagged_entries: tagged,
            stride_bits,
            spec_window: SpecWindowSize::Entries(32),
            ..BlockDVtageConfig::default()
        };
        let bigger_base = BlockDVtageConfig {
            base_entries: base * 2,
            ..cfg.clone()
        };
        let bigger_tagged = BlockDVtageConfig {
            tagged_entries: tagged * 2,
            ..cfg.clone()
        };
        let more_preds = BlockDVtageConfig {
            npred: npred + 1,
            ..cfg.clone()
        };
        assert!(
            bigger_base.storage_bits() > cfg.storage_bits(),
            "case {case}"
        );
        assert!(
            bigger_tagged.storage_bits() > cfg.storage_bits(),
            "case {case}"
        );
        assert!(
            more_preds.storage_bits() > cfg.storage_bits(),
            "case {case}"
        );
    }
}

/// Trace generation is deterministic and PC-continuous for arbitrary seeds.
#[test]
fn prop_trace_determinism() {
    for case in 0..50 {
        let seed: u64 = rng(case).gen();
        let spec = WorkloadSpec::new("prop", seed);
        let a: Vec<_> = TraceGenerator::new(&spec).take(300).collect();
        let b: Vec<_> = TraceGenerator::new(&spec).take(300).collect();
        assert_eq!(&a, &b, "case {case}");
        for w in a.windows(2) {
            if w[0].is_last_uop() {
                assert_eq!(w[1].pc, w[0].next_pc(), "case {case}");
            } else {
                assert_eq!(w[1].pc, w[0].pc, "case {case}");
            }
        }
    }
}

/// The sharded table's flat → (shard, slot) mapping is a bijection for
/// arbitrary geometries: coordinates stay in bounds, distinct flat indices
/// map to distinct coordinates, every coordinate is hit, and writes through
/// flat indices read back losslessly whatever the shard count.
#[test]
fn prop_sharded_index_mapping_is_a_bijection() {
    for case in 0..CASES {
        let mut r = rng(case);
        let shards = 1usize << r.gen_range(0u32..6);
        let slots = r.gen_range(1usize..48);
        let total = shards * slots;
        let mut t: ShardedTable<u64> = ShardedTable::new(0, total, shards);
        assert_eq!(t.len(), total);
        assert_eq!(t.num_shards(), shards);
        assert_eq!(t.slots_per_shard(), slots);

        let mut seen = vec![false; total];
        for flat in 0..total {
            let (s, i) = t.locate(flat);
            assert!(s < shards && i < slots, "case {case}: out of bounds");
            let coord = s * slots + i;
            assert!(!seen[coord], "case {case}: coordinate hit twice");
            seen[coord] = true;
        }
        assert!(seen.iter().all(|&b| b), "case {case}: coordinate missed");

        // Writes through flat indices are lossless (no aliasing).
        for flat in 0..total {
            *t.get_mut(flat) = flat as u64 ^ 0xABCD;
        }
        for flat in 0..total {
            assert_eq!(*t.get(flat), flat as u64 ^ 0xABCD, "case {case}");
        }
    }
}

/// Mix interleaving conserves every context's µ-op stream: filtering the mix
/// by ASID recovers the plain per-context stream in order (all fields except
/// the global renumbering), global sequence numbers are contiguous, and the
/// committed-µ-op split across contexts is fair to within one quantum.
#[test]
fn prop_mix_interleaving_conserves_per_context_streams() {
    for case in 0..40 {
        let mut r = rng(case);
        let n_ctx = r.gen_range(1usize..4);
        let quantum = r.gen_range(1u64..400);
        let specs: Vec<WorkloadSpec> = (0..n_ctx)
            .map(|i| WorkloadSpec::new(format!("prop-mix-{i}"), r.gen()))
            .collect();
        let mix = MixSpec::new("prop", quantum, specs.clone());
        let stream: Vec<_> = mix.generator().take(3_000).collect();

        let mut committed = vec![0i64; n_ctx];
        for (i, u) in stream.iter().enumerate() {
            assert_eq!(u.seq, i as u64, "case {case}: seq not contiguous");
            assert!((u.asid as usize) < n_ctx, "case {case}: bad ASID");
            if !u.wrong_path {
                committed[u.asid as usize] += 1;
            }
        }
        let (min, max) = (
            *committed.iter().min().unwrap(),
            *committed.iter().max().unwrap(),
        );
        assert!(
            max - min <= quantum as i64,
            "case {case}: unfair split {committed:?} for quantum {quantum}"
        );

        for (asid, spec) in specs.iter().enumerate() {
            let got: Vec<_> = stream
                .iter()
                .filter(|u| u.asid as usize == asid)
                .cloned()
                .collect();
            let want: Vec<_> = TraceGenerator::new(spec).take(got.len()).collect();
            for (g, w) in got.iter().zip(&want) {
                let mut w2 = *w;
                w2.seq = g.seq;
                w2.asid = asid as u8;
                assert_eq!(*g, w2, "case {case}: context {asid} diverged");
            }
        }
    }
}

fn random_slices(case: u64) -> (TraceBuffer, u64, Vec<SliceBbv>) {
    let mut r = rng(case);
    let seed: u64 = r.gen();
    let n: u64 = r.gen_range(400u64..4_000);
    let slice_uops = r.gen_range(50u64..500);
    let buf = TraceBuffer::record(&WorkloadSpec::new("prop-sampling", seed), n);
    let slices = profile_slices(&buf, slice_uops);
    (buf, slice_uops, slices)
}

/// Slice profiling partitions the stream exactly: slices tile the buffer
/// index range with no gap or overlap, every slice but the last carries
/// exactly the configured committed µ-op count, and the per-slice committed
/// counts sum to the buffer's committed length — nothing is dropped or
/// double-counted, wrong-path riders included.
#[test]
fn prop_slice_partition_conserves_the_stream() {
    for case in 0..40 {
        let (buf, slice_uops, slices) = random_slices(case);
        assert!(!slices.is_empty(), "case {case}");
        assert_eq!(slices[0].start, 0, "case {case}");
        assert_eq!(slices.last().unwrap().end, buf.len(), "case {case}");
        for w in slices.windows(2) {
            assert_eq!(w[1].start, w[0].end, "case {case}: gap or overlap");
        }
        for (i, s) in slices.iter().enumerate() {
            assert_eq!(s.index, i, "case {case}");
            if i + 1 < slices.len() {
                assert_eq!(s.committed, slice_uops, "case {case}");
            } else {
                assert!(s.committed > 0 && s.committed <= slice_uops, "case {case}");
            }
        }
        let total: u64 = slices.iter().map(|s| s.committed).sum();
        assert_eq!(total, buf.committed_len() as u64, "case {case}");
    }
}

/// Every behaviour vector is an L1-normalised distribution over the
/// projected fetch-block space: components non-negative, summing to one.
#[test]
fn prop_bbv_vectors_are_l1_normalised() {
    for case in 0..40 {
        let (_, _, slices) = random_slices(case);
        for s in &slices {
            assert!(s.vector.iter().all(|&v| v >= 0.0), "case {case}");
            let sum: f64 = s.vector.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "case {case}: L1 mass {sum}");
        }
    }
}

/// Phase clustering conserves the slice population: assignments are in
/// range, member counts sum to the slice count, each phase's representative
/// really is assigned to that phase, each phase's weight is exactly its
/// members' committed share, and the weights sum to one.
#[test]
fn prop_clustering_conserves_weights_and_members() {
    for case in 0..40 {
        let mut r = rng(case ^ 0x5a5a);
        let (_, _, slices) = random_slices(case);
        let k = r.gen_range(1usize..12);
        let c = cluster_slices(&slices, k, r.gen());
        assert_eq!(c.assignments.len(), slices.len(), "case {case}");
        let members: usize = c.phases.iter().map(|p| p.members).sum();
        assert_eq!(members, slices.len(), "case {case}");
        let total_committed: u64 = slices.iter().map(|s| s.committed).sum();
        for (pi, p) in c.phases.iter().enumerate() {
            assert!(p.members > 0, "case {case}: empty phase");
            assert_eq!(c.assignments[p.representative], pi, "case {case}");
            let phase_committed: u64 = slices
                .iter()
                .zip(&c.assignments)
                .filter(|(_, &a)| a == pi)
                .map(|(s, _)| s.committed)
                .sum();
            assert_eq!(p.committed, phase_committed, "case {case}");
            let want = phase_committed as f64 / total_committed as f64;
            assert!((p.weight - want).abs() < 1e-12, "case {case}");
        }
        let total: f64 = c.phases.iter().map(|p| p.weight).sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "case {case}: weights sum {total}"
        );
    }
}

/// The clusterer is a pure function of (slices, k, seed) — bit-identical
/// when recomputed — and the per-workload seed depends only on the workload
/// *name*, so one benchmark's phase table is invariant under permutations
/// (or subsetting) of the benchmark population around it.
#[test]
fn prop_clustering_deterministic_and_seed_position_independent() {
    for case in 0..20 {
        let mut r = rng(case ^ 0xc3c3);
        let (_, _, slices) = random_slices(case);
        let k = r.gen_range(1usize..10);
        let seed: u64 = r.gen();
        assert_eq!(
            cluster_slices(&slices, k, seed),
            cluster_slices(&slices, k, seed),
            "case {case}"
        );
        let name = format!("prop-seed-{case}");
        let spec_a = WorkloadSpec::new(name.clone(), r.gen());
        let spec_b = WorkloadSpec::new(name, r.gen());
        assert_eq!(
            workload_seed(&spec_a),
            workload_seed(&spec_b),
            "case {case}"
        );
    }
}

/// Requesting at least as many phases as there are slices degenerates
/// cleanly: no phase holds more than one slice (perfect sampling), and the
/// conservation properties still hold.
#[test]
fn prop_k_at_least_slice_count_gives_singleton_phases() {
    for case in 0..20 {
        let mut r = rng(case ^ 0x7e7e);
        let (_, _, slices) = random_slices(case);
        let k = slices.len() + r.gen_range(0usize..5);
        let c = cluster_slices(&slices, k, r.gen());
        assert!(c.phases.len() <= slices.len(), "case {case}");
        for p in &c.phases {
            assert_eq!(p.members, 1, "case {case}: non-singleton phase");
        }
        let members: usize = c.phases.iter().map(|p| p.members).sum();
        assert_eq!(members, slices.len(), "case {case}");
    }
}

/// The geometric mean lies between min and max and is scale-covariant.
#[test]
fn prop_gmean_bounds() {
    for case in 0..CASES {
        let mut r = rng(case);
        let n = r.gen_range(1usize..20);
        let values: Vec<f64> = (0..n).map(|_| 0.1 + r.gen::<f64>() * 9.9).collect();
        let k = 0.1 + r.gen::<f64>() * 9.9;
        let g = gmean(&values);
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(g >= min - 1e-9 && g <= max + 1e-9, "case {case}");
        let scaled: Vec<f64> = values.iter().map(|v| v * k).collect();
        assert!(
            (gmean(&scaled) - g * k).abs() < 1e-6 * g.max(1.0) * k.max(1.0),
            "case {case}"
        );
    }
}
