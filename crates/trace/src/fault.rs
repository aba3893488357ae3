//! Deterministic fault injection for the persistent store and the sweep engine.
//!
//! A service-scale sweep (10⁴–10⁶ cells) *will* meet transient I/O errors,
//! short reads from files truncated by a crash, bit rot, and the occasional
//! configuration that panics the simulator. Those failures are rare enough in
//! the wild that untested recovery code is broken recovery code — so this
//! module makes them injectable on purpose: a [`FaultPlan`] is a seeded,
//! reproducible schedule of faults that the [`crate::TraceStore`] consults on
//! its read/write paths and the `bebop-bench` sweep engine consults per job.
//!
//! Injection is *decision-counter* based: every potential fault site draws the
//! next value of a shared atomic counter and hashes it with the seed, so a
//! serial run makes the identical sequence of decisions on every invocation
//! (parallel runs stay reproducible in aggregate — the same number of draws
//! happens, interleaved by scheduling). Rates are expressed as "one in N"
//! (0 = never), so a plan can be dialled from "occasional hiccup" to "hostile
//! filesystem".

use std::collections::BTreeSet;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::store::{fnv1a, FNV_OFFSET_BASIS};

/// Index of each fault category in the injection counters.
const READ_ERROR: usize = 0;
const WRITE_ERROR: usize = 1;
const SHORT_READ: usize = 2;
const CORRUPTION: usize = 3;

/// A seeded, reproducible schedule of injected faults.
///
/// Attach one to a [`crate::TraceStore`] (via
/// [`crate::TraceStore::set_faults`]) to exercise its healing paths, and/or
/// hand one to the sweep engine to poison specific jobs with a panic.
///
/// # Example
///
/// ```
/// use bebop_trace::FaultPlan;
///
/// let plan = FaultPlan::seeded(7)
///     .with_read_errors(4) // one read in ~4 fails with an I/O error
///     .with_corruption(5) // one read in ~5 has a byte flipped
///     .with_panic_job(3); // job index 3 panics
/// assert!(plan.should_panic(3));
/// assert!(!plan.should_panic(2));
/// ```
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    read_error_1_in: u64,
    write_error_1_in: u64,
    short_read_1_in: u64,
    corrupt_1_in: u64,
    panic_jobs: BTreeSet<u64>,
    stall_jobs: BTreeSet<u64>,
    rolls: AtomicU64,
    injected: [AtomicU64; 4],
}

impl FaultPlan {
    /// A plan that injects nothing until rates are configured.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            read_error_1_in: 0,
            write_error_1_in: 0,
            short_read_1_in: 0,
            corrupt_1_in: 0,
            panic_jobs: BTreeSet::new(),
            stall_jobs: BTreeSet::new(),
            rolls: AtomicU64::new(0),
            injected: Default::default(),
        }
    }

    /// Injects an `io::Error` on roughly one store read in `one_in` (0 = never).
    pub fn with_read_errors(mut self, one_in: u64) -> Self {
        self.read_error_1_in = one_in;
        self
    }

    /// Injects an `io::Error` on roughly one store write in `one_in` (0 = never).
    pub fn with_write_errors(mut self, one_in: u64) -> Self {
        self.write_error_1_in = one_in;
        self
    }

    /// Truncates roughly one read in `one_in` to a prefix (0 = never) — the
    /// signature of a file torn mid-write by a crash.
    pub fn with_short_reads(mut self, one_in: u64) -> Self {
        self.short_read_1_in = one_in;
        self
    }

    /// Flips a byte in roughly one read in `one_in` (0 = never) — bit rot.
    pub fn with_corruption(mut self, one_in: u64) -> Self {
        self.corrupt_1_in = one_in;
        self
    }

    /// Marks job `index` as poisoned: the sweep engine panics inside that
    /// job's isolation boundary, which must quarantine the cell rather than
    /// abort the sweep.
    pub fn with_panic_job(mut self, index: u64) -> Self {
        self.panic_jobs.insert(index);
        self
    }

    /// Marks job `index` as stalled: the sweep engine spins that job without
    /// making progress, which must trip the watchdog and quarantine the cell
    /// as timed out rather than hang the sweep.
    pub fn with_stall_job(mut self, index: u64) -> Self {
        self.stall_jobs.insert(index);
        self
    }

    /// The next deterministic pseudo-random draw.
    fn draw(&self) -> u64 {
        let n = self.rolls.fetch_add(1, Ordering::Relaxed);
        fnv1a(FNV_OFFSET_BASIS ^ self.seed, &n.to_le_bytes())
    }

    /// Decides whether to inject a fault of category `kind` at rate `one_in`.
    fn roll(&self, one_in: u64, kind: usize) -> bool {
        if one_in == 0 {
            return false;
        }
        if self.draw() % one_in == 0 {
            self.injected[kind].fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Filters bytes coming back from a store read: may fail with an injected
    /// I/O error, truncate the bytes (short read), or flip one byte
    /// (corruption). The store treats each outcome exactly as it treats the
    /// real thing — degrade to a miss, or reject-and-regenerate.
    pub fn filter_read(&self, mut bytes: Vec<u8>) -> io::Result<Vec<u8>> {
        if self.roll(self.read_error_1_in, READ_ERROR) {
            return Err(io::Error::other("injected fault: transient read error"));
        }
        if !bytes.is_empty() && self.roll(self.short_read_1_in, SHORT_READ) {
            // CAST: the modulo bounds the draw below bytes.len().
            let keep = (self.draw() % bytes.len() as u64) as usize;
            bytes.truncate(keep);
        }
        if !bytes.is_empty() && self.roll(self.corrupt_1_in, CORRUPTION) {
            // CAST: the modulo bounds the draw below bytes.len().
            let at = (self.draw() % bytes.len() as u64) as usize;
            bytes[at] ^= 0x5A;
        }
        Ok(bytes)
    }

    /// Consulted before a store write; an injected error must be handled like
    /// any real `io::Error` from the filesystem (the store's
    /// `load_or_record_key` retries with backoff, then degrades to an
    /// unsaved in-memory recording).
    pub fn check_write(&self) -> io::Result<()> {
        if self.roll(self.write_error_1_in, WRITE_ERROR) {
            return Err(io::Error::other("injected fault: transient write error"));
        }
        Ok(())
    }

    /// Whether job `index` is poisoned (see [`FaultPlan::with_panic_job`]).
    pub fn should_panic(&self, index: u64) -> bool {
        self.panic_jobs.contains(&index)
    }

    /// Whether job `index` is stalled (see [`FaultPlan::with_stall_job`]).
    pub fn should_stall(&self, index: u64) -> bool {
        self.stall_jobs.contains(&index)
    }

    /// Total faults injected so far, across every category.
    pub fn total_injected(&self) -> u64 {
        self.injected
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// `(read errors, write errors, short reads, corruptions)` injected so far.
    pub fn injected_by_kind(&self) -> (u64, u64, u64, u64) {
        let get = |i: usize| self.injected[i].load(Ordering::Relaxed);
        (
            get(READ_ERROR),
            get(WRITE_ERROR),
            get(SHORT_READ),
            get(CORRUPTION),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rates_inject_nothing() {
        let plan = FaultPlan::seeded(1);
        for _ in 0..100 {
            assert!(plan.check_write().is_ok());
            assert_eq!(plan.filter_read(vec![1, 2, 3]).unwrap(), vec![1, 2, 3]);
        }
        assert_eq!(plan.total_injected(), 0);
        assert!(!plan.should_panic(0));
    }

    #[test]
    fn serial_decision_sequences_are_reproducible() {
        let decisions = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::seeded(seed).with_write_errors(3);
            (0..64).map(|_| plan.check_write().is_err()).collect()
        };
        assert_eq!(decisions(42), decisions(42));
        // A different seed makes different decisions (overwhelmingly likely
        // over 64 draws at rate 1-in-3).
        assert_ne!(decisions(42), decisions(43));
        assert!(decisions(42).iter().any(|&d| d), "rate 1-in-3 must fire");
        assert!(
            !decisions(42).iter().all(|&d| d),
            "rate 1-in-3 must also pass"
        );
    }

    #[test]
    fn short_reads_and_corruption_mutate_the_bytes() {
        let plan = FaultPlan::seeded(9).with_short_reads(2).with_corruption(2);
        let original: Vec<u8> = (0..=255).collect();
        let mut mutated = 0;
        for _ in 0..32 {
            let out = plan.filter_read(original.clone()).unwrap();
            if out != original {
                mutated += 1;
                assert!(out.len() <= original.len());
            }
        }
        assert!(mutated > 0, "aggressive rates must mutate some reads");
        let (_, _, shorts, corruptions) = plan.injected_by_kind();
        assert!(shorts + corruptions > 0);
        assert_eq!(plan.total_injected(), shorts + corruptions);
    }

    #[test]
    fn panic_jobs_are_exact_indices() {
        let plan = FaultPlan::seeded(0).with_panic_job(2).with_panic_job(7);
        let poisoned: Vec<u64> = (0..10).filter(|&j| plan.should_panic(j)).collect();
        assert_eq!(poisoned, vec![2, 7]);
    }

    #[test]
    fn stall_jobs_are_exact_indices() {
        let plan = FaultPlan::seeded(0).with_stall_job(4).with_panic_job(1);
        let stalled: Vec<u64> = (0..10).filter(|&j| plan.should_stall(j)).collect();
        assert_eq!(stalled, vec![4]);
        assert!(
            !plan.should_panic(4),
            "stall and panic sets are independent"
        );
    }
}
