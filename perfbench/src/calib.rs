//! Host-speed calibration of cell and set-up times.
//!
//! On a shared 2-vCPU host the simulator's speed swings by up to 2x over
//! seconds and minutes: another tenant's thread comes and goes on the same
//! physical core. Steal time stays ~0, and latency-bound loops (ALU chains,
//! large pointer chases, streaming reads) barely move. Two small probes do
//! follow it, because the simulator needs what a sibling thread takes away:
//!
//! - a throughput loop of eight independent integer chains (issue ports);
//!   its time per iteration sits in three levels, about 1.6, 2.5 and 3.3 ns
//!   on the calibration host;
//! - a dependent walk around a 256 KiB ring (private L2 capacity and latency).
//!
//! [`HostClock`] reads both before and after every timed call and scales the
//! call's wall time by `(REF / reading) ^ elasticity` for each probe, using
//! the mean of the two readings: the time the call would have taken at a
//! fixed nominal host speed, near that of an uncontended core. Each
//! workload's elasticities are fitted by regressing its cell times (less each
//! cell's mean) on the readings over ~3 minutes; on the held-out half of that
//! log the scaled `uops_per_s` of 25 s windows moved 4-5% where the raw one
//! moved 21-24%. The probes are fixed code of this
//! package, so a change to the simulator moves the scaled time exactly as it
//! moves the raw one at a steady host speed.

use std::hint::black_box;
use std::time::Instant;

/// Sub-readings per reading; a reading is their median, so an interrupt
/// during one of them does not move it.
const SUB_READINGS: usize = 5;
/// Throughput-loop iterations of one sub-reading (~0.3-0.7 ms).
const LOOP_ITERS: u64 = 200_000;
/// Entries of the pointer-chase ring: 256 KiB, resident in a private L2.
const RING_LEN: usize = 1 << 16;
/// Loads of one chase sub-reading (~0.25-0.5 ms).
const CHASE_STEPS: u64 = 40_000;

/// The nominal host speed scaled times are reported at: throughput-loop ns
/// per iteration and chase ns per load, near the readings on an uncontended
/// core of the host the bounds were calibrated on (a 2-vCPU Intel Xeon VM),
/// where the loop reads 1.56 and the chase drifts between 4.7 and 6.2.
pub const REF: Reading = Reading {
    loop_ns: 1.6,
    chase_ns: 6.0,
};

/// How far a workload's times follow each probe's slowdown.
#[derive(Clone, Copy)]
pub struct Elasticity {
    pub loop_ns: f64,
    pub chase_ns: f64,
}

/// Fitted on `table2-pipeline` cells (0.72 and 0.61).
pub const PIPELINE_BOUND: Elasticity = Elasticity {
    loop_ns: 0.72,
    chase_ns: 0.61,
};
/// Fitted on `geometry-sweep` cells (0.47 and 0.33): predictor work, journal
/// and checkpoint I/O follow the host less than the pipeline does.
pub const SWEEP: Elasticity = Elasticity {
    loop_ns: 0.47,
    chase_ns: 0.33,
};

/// One reading of both probes.
#[derive(Clone, Copy)]
pub struct Reading {
    pub loop_ns: f64,
    pub chase_ns: f64,
}

/// Eight independent add/xor/rotate chains: bound by the core's issue width,
/// not by the latency of any one operation.
#[inline(never)]
fn throughput_loop(n: u64) -> u64 {
    let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
    let (mut e, mut f, mut g, mut h) = (5u64, 6u64, 7u64, 8u64);
    for i in 0..n {
        let i = black_box(i);
        a = a.wrapping_add(i ^ b);
        b = b.rotate_left(3) ^ c;
        c = c.wrapping_add(d >> 1);
        d ^= e.wrapping_add(i);
        e = e.wrapping_add(f ^ 7);
        f = f.rotate_right(5).wrapping_add(g);
        g ^= h.wrapping_add(3);
        h = h.wrapping_add(a >> 3);
    }
    a ^ b ^ c ^ d ^ e ^ f ^ g ^ h
}

/// A random single-cycle permutation of `0..RING_LEN`, from a fixed seed.
fn chase_ring() -> Vec<u32> {
    let mut order: Vec<u32> = (0..RING_LEN as u32).collect();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in (1..RING_LEN).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        order.swap(i, (x % (i as u64 + 1)) as usize);
    }
    let mut next = vec![0u32; RING_LEN];
    for k in 0..RING_LEN {
        next[order[k] as usize] = order[(k + 1) % RING_LEN];
    }
    next
}

/// Nanoseconds per unit of `f`, which does `units` units, as the median of
/// [`SUB_READINGS`] runs.
fn sub_median(units: u64, mut f: impl FnMut() -> u64) -> f64 {
    let mut ns: Vec<f64> = (0..SUB_READINGS)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_nanos() as f64 / units as f64
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    ns[SUB_READINGS / 2]
}

/// One timed call: wall seconds, and seconds at the reference host speed.
#[derive(Clone, Copy)]
pub struct Timing {
    pub raw: f64,
    pub scaled: f64,
}

/// Times calls with a reading on either side of each; a call's closing
/// reading is the next call's opening one.
pub struct HostClock {
    elasticity: Elasticity,
    ring: Vec<u32>,
    before: Reading,
    readings: Vec<Reading>,
}

impl HostClock {
    pub fn new(elasticity: Elasticity) -> Self {
        let ring = chase_ring();
        let mut clock = HostClock {
            elasticity,
            ring,
            before: REF,
            readings: Vec::new(),
        };
        clock.before = clock.read();
        clock.readings.push(clock.before);
        clock
    }

    /// Reads both probes now.
    fn read(&self) -> Reading {
        let ring = &self.ring;
        Reading {
            loop_ns: sub_median(LOOP_ITERS, || throughput_loop(black_box(LOOP_ITERS))),
            chase_ns: sub_median(CHASE_STEPS, || {
                let mut i = 0u32;
                for _ in 0..black_box(CHASE_STEPS) {
                    i = ring[i as usize];
                }
                u64::from(i)
            }),
        }
    }

    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, Timing) {
        let start = Instant::now();
        let out = f();
        let raw = start.elapsed().as_secs_f64();
        let after = self.read();
        let (b, e) = (self.before, self.elasticity);
        let loop_speed = 2.0 * REF.loop_ns / (b.loop_ns + after.loop_ns);
        let chase_speed = 2.0 * REF.chase_ns / (b.chase_ns + after.chase_ns);
        let scaled = raw * loop_speed.powf(e.loop_ns) * chase_speed.powf(e.chase_ns);
        self.before = after;
        self.readings.push(after);
        (out, Timing { raw, scaled })
    }

    /// Every reading taken so far.
    pub fn readings(&self) -> &[Reading] {
        &self.readings
    }
}
