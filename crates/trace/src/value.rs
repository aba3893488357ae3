//! Result-value pattern generators.
//!
//! Each static result-producing µ-op of a synthetic workload is assigned a
//! [`ValuePattern`] describing how its result evolves across dynamic instances.
//! The patterns correspond to the predictability classes discussed throughout the
//! value-prediction literature and in the BeBoP paper:
//!
//! * [`ValuePattern::Constant`] — last-value predictable (and trivially
//!   stride-predictable with stride 0).
//! * [`ValuePattern::Strided`] — predictable by Stride/2-delta predictors and by
//!   D-VTAGE's base component; *not* space-efficiently predictable by VTAGE.
//! * [`ValuePattern::PeriodicStrided`] — strided but restarting every `period`
//!   instances (a loop re-entered from outside); exercises the speculative window.
//! * [`ValuePattern::BranchCorrelated`] — the value is a pure function of recent
//!   global branch history; predictable by VTAGE/D-VTAGE tagged components only.
//! * [`ValuePattern::BranchCorrelatedStride`] — the *stride* depends on branch
//!   history (control-flow dependent strided pattern); only D-VTAGE captures this
//!   with one entry.
//! * [`ValuePattern::Random`] — unpredictable; exercises confidence estimation.

use rand::rngs::SmallRng;
use rand::Rng;

/// How a static µ-op's result evolves over its dynamic instances.
#[derive(Debug, Clone, PartialEq)]
pub enum ValuePattern {
    /// Always the same value.
    Constant(u64),
    /// `value_n = base + n * stride` (wrapping arithmetic).
    Strided {
        /// Initial value.
        base: u64,
        /// Per-instance increment.
        stride: i64,
    },
    /// Strided, but the sequence restarts at `base` every `period` instances.
    PeriodicStrided {
        /// Initial value of each period.
        base: u64,
        /// Per-instance increment.
        stride: i64,
        /// Number of instances before the sequence restarts.
        period: u32,
    },
    /// The value is selected from `values` by the low bits of the global branch
    /// history: `value = values[history % values.len()]`.
    BranchCorrelated {
        /// The value table indexed by recent branch history.
        values: Vec<u64>,
    },
    /// The per-instance stride is selected by the global branch history:
    /// `value_{n+1} = value_n + strides[history % strides.len()]`.
    BranchCorrelatedStride {
        /// Initial value.
        base: u64,
        /// The stride table indexed by recent branch history.
        strides: Vec<i64>,
    },
    /// A fresh pseudo-random 64-bit value each instance.
    Random,
}

/// The per-static-µ-op dynamic state needed to emit the next value of a pattern.
#[derive(Debug, Clone)]
pub struct ValueState {
    pattern: ValuePattern,
    instance: u64,
    current: u64,
}

impl ValueState {
    /// Creates the state for one static µ-op.
    pub fn new(pattern: ValuePattern) -> Self {
        let current = match &pattern {
            ValuePattern::Constant(v) => *v,
            ValuePattern::Strided { base, .. }
            | ValuePattern::PeriodicStrided { base, .. }
            | ValuePattern::BranchCorrelatedStride { base, .. } => *base,
            ValuePattern::BranchCorrelated { values } => values.first().copied().unwrap_or(0),
            ValuePattern::Random => 0,
        };
        ValueState {
            pattern,
            instance: 0,
            current,
        }
    }

    /// The pattern driving this state.
    pub fn pattern(&self) -> &ValuePattern {
        &self.pattern
    }

    /// Number of instances generated so far.
    pub fn instances(&self) -> u64 {
        self.instance
    }

    /// Produces the value of the next dynamic instance.
    ///
    /// `branch_history` is the current global branch history (most recent outcome in
    /// the least-significant bit); `rng` supplies entropy for [`ValuePattern::Random`].
    pub fn next_value(&mut self, branch_history: u64, rng: &mut SmallRng) -> u64 {
        let value = match &self.pattern {
            ValuePattern::Constant(v) => *v,
            ValuePattern::Strided { base, stride } => {
                if self.instance == 0 {
                    *base
                } else {
                    self.current.wrapping_add_signed(*stride)
                }
            }
            ValuePattern::PeriodicStrided {
                base,
                stride,
                period,
            } => {
                let p = u64::from((*period).max(1));
                if self.instance % p == 0 {
                    *base
                } else {
                    self.current.wrapping_add_signed(*stride)
                }
            }
            ValuePattern::BranchCorrelated { values } => {
                // Reduce in u64 *before* narrowing: truncating the history
                // first would pick different values on 32-bit targets.
                // CAST: the modulo bounds idx below values.len().
                let idx = (branch_history % values.len().max(1) as u64) as usize;
                values.get(idx).copied().unwrap_or(0)
            }
            ValuePattern::BranchCorrelatedStride { base, strides } => {
                if self.instance == 0 {
                    *base
                } else {
                    // CAST: reduced in u64 first (see BranchCorrelated); the
                    // modulo bounds idx below strides.len().
                    let idx = (branch_history % strides.len().max(1) as u64) as usize;
                    let s = strides.get(idx).copied().unwrap_or(0);
                    self.current.wrapping_add_signed(s)
                }
            }
            ValuePattern::Random => rng.gen::<u64>(),
        };
        self.instance += 1;
        self.current = value;
        value
    }
}

/// The fractions of value-producing µ-ops assigned to each pattern class.
///
/// The fractions are normalised when sampling, so they need not sum to exactly 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValueProfile {
    /// Fraction of constant results.
    pub constant: f64,
    /// Fraction of (full-period) strided results.
    pub strided: f64,
    /// Fraction of periodically restarting strided results.
    pub periodic_strided: f64,
    /// Fraction of branch-history-correlated results.
    pub branch_correlated: f64,
    /// Fraction of branch-history-correlated *stride* results.
    pub branch_correlated_stride: f64,
    /// Fraction of unpredictable results.
    pub random: f64,
    /// Typical stride magnitude (used when instantiating strided patterns). Small
    /// magnitudes keep strides within 8/16-bit partial-stride budgets, matching the
    /// paper's observation that most strides are short.
    pub stride_magnitude: i64,
}

impl ValueProfile {
    /// A profile in which everything is stride-predictable (ideal for stride/D-VTAGE).
    pub fn all_strided() -> Self {
        ValueProfile {
            constant: 0.1,
            strided: 0.8,
            periodic_strided: 0.1,
            branch_correlated: 0.0,
            branch_correlated_stride: 0.0,
            random: 0.0,
            stride_magnitude: 8,
        }
    }

    /// A profile in which nothing is predictable.
    pub fn all_random() -> Self {
        ValueProfile {
            constant: 0.0,
            strided: 0.0,
            periodic_strided: 0.0,
            branch_correlated: 0.0,
            branch_correlated_stride: 0.0,
            random: 1.0,
            stride_magnitude: 8,
        }
    }

    /// A balanced mixed profile.
    pub fn mixed() -> Self {
        ValueProfile {
            constant: 0.15,
            strided: 0.2,
            periodic_strided: 0.1,
            branch_correlated: 0.15,
            branch_correlated_stride: 0.1,
            random: 0.3,
            stride_magnitude: 16,
        }
    }

    /// Total (unnormalised) weight.
    fn total(&self) -> f64 {
        self.constant
            + self.strided
            + self.periodic_strided
            + self.branch_correlated
            + self.branch_correlated_stride
            + self.random
    }

    /// Samples a concrete [`ValuePattern`] according to the profile.
    pub fn sample(&self, rng: &mut SmallRng) -> ValuePattern {
        let total = self.total();
        if total <= 0.0 {
            return ValuePattern::Random;
        }
        let mut x = rng.gen::<f64>() * total;
        let mag = self.stride_magnitude.max(1);
        let small_stride = |rng: &mut SmallRng| -> i64 {
            // Strides are mostly small and positive (array walks), occasionally negative.
            let s = rng.gen_range(1..=mag);
            if rng.gen_bool(0.15) {
                -s
            } else {
                s
            }
        };

        x -= self.constant;
        if x < 0.0 {
            return ValuePattern::Constant(rng.gen::<u32>() as u64);
        }
        x -= self.strided;
        if x < 0.0 {
            return ValuePattern::Strided {
                base: rng.gen::<u32>() as u64,
                stride: small_stride(rng),
            };
        }
        x -= self.periodic_strided;
        if x < 0.0 {
            return ValuePattern::PeriodicStrided {
                base: rng.gen::<u32>() as u64,
                stride: small_stride(rng),
                period: rng.gen_range(16..256),
            };
        }
        x -= self.branch_correlated;
        if x < 0.0 {
            let n = rng.gen_range(2..=8usize);
            let values = (0..n).map(|_| rng.gen::<u32>() as u64).collect();
            return ValuePattern::BranchCorrelated { values };
        }
        x -= self.branch_correlated_stride;
        if x < 0.0 {
            let n = rng.gen_range(2..=4usize);
            let strides = (0..n).map(|_| small_stride(rng)).collect();
            return ValuePattern::BranchCorrelatedStride {
                base: rng.gen::<u32>() as u64,
                strides,
            };
        }
        ValuePattern::Random
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(12345)
    }

    #[test]
    fn branch_correlated_index_reduces_history_before_narrowing() {
        // `history % len` must be computed in u64: truncating the history to
        // usize *first* picks a different slot on 32-bit targets
        // (0x1_0000_0003 truncates to 3, and 3 % 7 = 3, but the full value
        // mod 7 is 0) and would break cross-platform trace bit-identity.
        let values: Vec<u64> = (0..7).map(|i| 1_000 + i).collect();
        let mut st = ValueState::new(ValuePattern::BranchCorrelated { values });
        let mut r = rng();
        let history: u64 = (1 << 32) + 3;
        assert_eq!(
            history % 7,
            0,
            "test premise: full-width mod selects slot 0"
        );
        assert_eq!(st.next_value(history, &mut r), 1_000);
    }

    #[test]
    fn branch_correlated_stride_reduces_history_before_narrowing() {
        // Same property for the stride table (3 entries): (2^32 + 1) % 3 = 2,
        // while the truncated value 1 would select stride slot 1.
        let mut st = ValueState::new(ValuePattern::BranchCorrelatedStride {
            base: 500,
            strides: vec![10, 20, 30],
        });
        let mut r = rng();
        let history: u64 = (1 << 32) + 1;
        assert_eq!(
            history % 3,
            2,
            "test premise: full-width mod selects slot 2"
        );
        assert_eq!(st.next_value(history, &mut r), 500); // instance 0 = base
        assert_eq!(st.next_value(history, &mut r), 530); // base + strides[2]
    }

    #[test]
    fn constant_pattern_is_constant() {
        let mut st = ValueState::new(ValuePattern::Constant(77));
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(st.next_value(0, &mut r), 77);
        }
        assert_eq!(st.instances(), 10);
    }

    #[test]
    fn strided_pattern_increments() {
        let mut st = ValueState::new(ValuePattern::Strided {
            base: 100,
            stride: 3,
        });
        let mut r = rng();
        let vals: Vec<u64> = (0..5).map(|_| st.next_value(0, &mut r)).collect();
        assert_eq!(vals, vec![100, 103, 106, 109, 112]);
    }

    #[test]
    fn negative_stride_wraps() {
        let mut st = ValueState::new(ValuePattern::Strided {
            base: 1,
            stride: -1,
        });
        let mut r = rng();
        assert_eq!(st.next_value(0, &mut r), 1);
        assert_eq!(st.next_value(0, &mut r), 0);
        assert_eq!(st.next_value(0, &mut r), u64::MAX);
    }

    #[test]
    fn periodic_strided_restarts() {
        let mut st = ValueState::new(ValuePattern::PeriodicStrided {
            base: 10,
            stride: 2,
            period: 3,
        });
        let mut r = rng();
        let vals: Vec<u64> = (0..7).map(|_| st.next_value(0, &mut r)).collect();
        assert_eq!(vals, vec![10, 12, 14, 10, 12, 14, 10]);
    }

    #[test]
    fn branch_correlated_follows_history() {
        let values = vec![5, 6, 7, 8];
        let mut st = ValueState::new(ValuePattern::BranchCorrelated {
            values: values.clone(),
        });
        let mut r = rng();
        for h in [0u64, 1, 2, 3, 7, 5] {
            let v = st.next_value(h, &mut r);
            assert_eq!(v, values[(h % 4) as usize]);
        }
    }

    #[test]
    fn branch_correlated_stride_accumulates() {
        let mut st = ValueState::new(ValuePattern::BranchCorrelatedStride {
            base: 0,
            strides: vec![1, 10],
        });
        let mut r = rng();
        assert_eq!(st.next_value(0, &mut r), 0);
        assert_eq!(st.next_value(0, &mut r), 1); // history 0 -> stride 1
        assert_eq!(st.next_value(1, &mut r), 11); // history 1 -> stride 10
        assert_eq!(st.next_value(0, &mut r), 12);
    }

    #[test]
    fn random_pattern_is_deterministic_per_rng_seed() {
        let mut a = ValueState::new(ValuePattern::Random);
        let mut b = ValueState::new(ValuePattern::Random);
        let mut ra = rng();
        let mut rb = rng();
        for _ in 0..16 {
            assert_eq!(a.next_value(0, &mut ra), b.next_value(0, &mut rb));
        }
    }

    #[test]
    fn profile_sampling_respects_zero_weights() {
        let prof = ValueProfile::all_strided();
        let mut r = rng();
        for _ in 0..200 {
            let p = prof.sample(&mut r);
            assert!(
                matches!(
                    p,
                    ValuePattern::Constant(_)
                        | ValuePattern::Strided { .. }
                        | ValuePattern::PeriodicStrided { .. }
                ),
                "all_strided profile produced a non-stride pattern: {p:?}"
            );
        }
    }
}
