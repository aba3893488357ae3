//! Instruction-based value predictors.
//!
//! These are the predictors the BeBoP paper compares in Figure 5a, accessed with an
//! *idealistic* infrastructure (one entry per µ-op, as many ports as needed):
//!
//! * [`LastValuePredictor`] — predicts the previously produced value (LVP).
//! * [`StridePredictor`] — the stride predictors (last value + stride): the
//!   baseline one, and the 2-delta one, whose prediction stride is only
//!   updated once the same stride is observed twice.
//! * [`Vtage`] — the VTAGE context-based predictor (TAGE applied to values).
//! * [`VtageStrideHybrid`] — the naive VTAGE + 2-delta stride hybrid of the
//!   earlier Perais & Seznec work.
//! * [`DVtage`] — the instruction-based Differential VTAGE predictor introduced by
//!   the BeBoP paper (tagged components hold strides rather than full values).
//!
//! All of them implement the [`bebop_uarch::ValuePredictor`] trait and use
//! [`ForwardProbabilisticCounter`] confidence estimation, so they only return a
//! prediction when confidence is saturated (the paper's >99.5% accuracy regime).
//!
//! VTAGE, D-VTAGE and the block-based predictor of the `bebop` core crate share
//! one tagged-component core ([`TaggedComponents`], [`TaggedGeometry`]) and
//! differ only in what their entries hold. Every predictor here carries its
//! prediction-time records to retirement in a [`bebop_isa::SeqQueue`].
//!
//! The block-based BeBoP infrastructure (which makes D-VTAGE implementable) lives
//! in the `bebop` core crate; this crate is about the underlying prediction
//! algorithms.
//!
//! # Example
//!
//! ```
//! use bebop_trace::{TraceGenerator, WorkloadSpec};
//! use bebop_uarch::{Pipeline, PipelineConfig};
//! use bebop_vp::DVtage;
//!
//! let spec = WorkloadSpec::named_demo("vp-demo");
//! let mut predictor = DVtage::default_config();
//! let stats = Pipeline::new(PipelineConfig::baseline_vp_6_60())
//!     .run(TraceGenerator::new(&spec), &mut predictor, 20_000);
//! assert!(stats.vp.accuracy() > 0.95);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod dvtage;
mod fpc;
mod hybrid;
mod last_value;
mod sharded;
mod spec_table;
mod stride;
mod tagged;
mod vtage;

pub use dvtage::{DVtage, DVtageConfig};
pub use fpc::{ForwardProbabilisticCounter, FpcParams};
pub use hybrid::VtageStrideHybrid;
pub use last_value::LastValuePredictor;
pub use sharded::{ShardCounters, ShardedTable};
pub use stride::StridePredictor;
pub use tagged::{
    clamp_stride, tag_width, Component, Hit, Slots, Tagged, TaggedComponents, TaggedGeometry,
    MAX_TAGGED,
};
pub use vtage::{Vtage, VtageConfig};

use bebop_isa::{snap, DynUop, StateResult};

/// The key identifying a static µ-op in instruction-based predictors: the paper
/// XORs the instruction PC with the µ-op index inside the instruction so that the
/// µ-ops of one x86 instruction do not all map to the same entry.
pub(crate) fn inst_key(uop: &DynUop) -> u64 {
    uop.pc ^ u64::from(uop.uop_idx)
}

/// A small deterministic xorshift64* generator used for probabilistic confidence
/// updates and random allocation choices (hardware would use an LFSR).
#[derive(Debug, Clone)]
pub struct Lfsr {
    state: u64,
}

impl Lfsr {
    /// A generator seeded with `seed`, low bit forced so the state is never zero.
    pub(crate) fn new(seed: u64) -> Self {
        Lfsr { state: seed | 1 }
    }

    /// A generator whose state is exactly `state` (zero, from which xorshift
    /// never leaves, becomes 1).
    pub fn from_state(state: u64) -> Self {
        Lfsr {
            state: state.max(1),
        }
    }

    /// Normalises a restored state. A running xorshift state is never zero
    /// but may well be even, so only zero (a corrupt or hand-built
    /// checkpoint) is coerced — forcing the low bit here would silently
    /// perturb every second restored generator.
    fn check_restored(&mut self) -> StateResult<()> {
        self.state = self.state.max(1);
        Ok(())
    }

    /// The next pseudo-random number.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Returns `true` with probability `1 / denom`.
    pub(crate) fn one_in(&mut self, denom: u32) -> bool {
        if denom <= 1 {
            return true;
        }
        (self.next_u64() % u64::from(denom)) == 0
    }
}

snap!(Lfsr { state: u64 } validate check_restored);

#[cfg(test)]
mod tests {
    use super::*;
    use bebop_isa::{restore_snapshot, snapshot};
    use bebop_isa::{ArchReg, Uop, UopKind};

    #[test]
    fn inst_key_distinguishes_uops_of_one_instruction() {
        let u0 = DynUop::new(
            0,
            0x1000,
            4,
            0,
            2,
            Uop::new(UopKind::Load, Some(ArchReg::int(1)), &[]),
            0,
        );
        let u1 = DynUop::new(
            1,
            0x1000,
            4,
            1,
            2,
            Uop::new(UopKind::Alu, Some(ArchReg::int(2)), &[]),
            0,
        );
        assert_ne!(inst_key(&u0), inst_key(&u1));
    }

    #[test]
    fn lfsr_state_round_trips_even_states() {
        // A running xorshift state is even half the time; restoring one must
        // reproduce the exact generator, not a low-bit-coerced neighbour.
        let mut a = Lfsr::new(42);
        let mut seen_even = false;
        for _ in 0..64 {
            a.next_u64();
            let saved = a.state;
            seen_even |= saved % 2 == 0;
            let mut b = Lfsr::new(1);
            restore_snapshot(&mut b, &snapshot(&a)).unwrap();
            assert_eq!(b.state, saved);
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert!(seen_even, "the walk never exercised an even state");
        // Zero (never produced by a healthy generator) is still coerced to a
        // usable state rather than wedging the generator.
        let mut z = Lfsr::new(1);
        restore_snapshot(&mut z, &snapshot(&0u64)).unwrap();
        assert_ne!(z.state, 0);
    }

    #[test]
    fn lfsr_is_deterministic_and_probabilistic() {
        let mut a = Lfsr::new(42);
        let mut b = Lfsr::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Lfsr::new(7);
        let hits = (0..16_000).filter(|_| c.one_in(16)).count();
        let ratio = hits as f64 / 16_000.0;
        assert!(
            (ratio - 1.0 / 16.0).abs() < 0.02,
            "1/16 probability off: {ratio}"
        );
        assert!(Lfsr::new(1).one_in(1));
        assert!(Lfsr::new(1).one_in(0));
    }
}
