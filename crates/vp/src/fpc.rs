//! Forward Probabilistic Counters (FPC) confidence estimation.
//!
//! The paper (and the earlier VTAGE work) uses 3-bit confidence counters that are
//! reset on a wrong prediction and incremented *with some probability* on a correct
//! one. With low forward probabilities, reaching saturation requires a long run of
//! correct predictions, which pushes accuracy above 99.5% while costing only 3 bits
//! per entry. A prediction is used only when the counter is saturated.

use crate::Lfsr;
use bebop_isa::snap;

/// The forward probabilities of an FPC: `probs[i]` is the denominator `d` of the
/// probability `1/d` of moving from confidence `i` to `i + 1` on a correct
/// prediction.
///
/// The paper uses `v = {1, 1/16, 1/16, 1/16, 1/16, 1/32, 1/32}` for D-VTAGE.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FpcParams {
    /// Denominators of the forward probabilities, one per confidence level below
    /// saturation.
    pub denominators: Vec<u32>,
}

impl FpcParams {
    /// The probability vector used by the paper for D-VTAGE:
    /// `{1, 1/16, 1/16, 1/16, 1/16, 1/32, 1/32}` over a 3-bit counter.
    pub fn paper_default() -> Self {
        FpcParams {
            denominators: vec![1, 16, 16, 16, 16, 32, 32],
        }
    }

    /// Deterministic counters (probability 1 everywhere): saturate after N correct
    /// predictions. Useful for tests and ablations.
    pub fn deterministic(levels: usize) -> Self {
        FpcParams {
            denominators: vec![1; levels],
        }
    }

    /// The saturation level (number of forward transitions).
    pub fn max_level(&self) -> u8 {
        // CAST: the FPC ladder has at most a handful of levels (paper: 3).
        self.denominators.len() as u8
    }
}

impl Default for FpcParams {
    fn default() -> Self {
        FpcParams::paper_default()
    }
}

/// A single forward probabilistic confidence counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForwardProbabilisticCounter {
    level: u8,
}

impl ForwardProbabilisticCounter {
    /// A counter at zero confidence.
    pub fn new() -> Self {
        ForwardProbabilisticCounter { level: 0 }
    }

    /// Current confidence level.
    pub fn level(&self) -> u8 {
        self.level
    }

    /// Returns `true` if confidence is saturated and the prediction may be used.
    pub fn is_confident(&self, params: &FpcParams) -> bool {
        self.level >= params.max_level()
    }

    /// Updates the counter after a correct prediction: moves forward one level with
    /// the configured probability.
    pub(crate) fn on_correct(&mut self, params: &FpcParams, rng: &mut Lfsr) {
        if self.level < params.max_level() {
            let denom = params.denominators[self.level as usize];
            if rng.one_in(denom) {
                self.level += 1;
            }
        }
    }

    /// Updates the counter after a correct prediction using caller-supplied
    /// entropy (one draw of a uniform 64-bit value) instead of an internal
    /// generator. Useful for predictors that manage their own pseudo-random state.
    pub fn on_correct_with(&mut self, params: &FpcParams, random: u64) {
        if self.level < params.max_level() {
            let denom = params.denominators[self.level as usize];
            if denom <= 1 || random % u64::from(denom) == 0 {
                self.level += 1;
            }
        }
    }

    /// Resets the counter after a wrong prediction.
    pub fn on_wrong(&mut self) {
        self.level = 0;
    }

    /// Forces the counter to a given level (used when a newly allocated entry
    /// inherits the confidence of the entry it replaces, as in BeBoP's block
    /// allocation policy).
    pub fn set_level(&mut self, level: u8, params: &FpcParams) {
        self.level = level.min(params.max_level());
    }
}

// The raw level: restoring components clamp it to their configured
// saturation level.
snap!(ForwardProbabilisticCounter { level: u8 });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_counter_saturates_after_n() {
        let params = FpcParams::deterministic(3);
        let mut rng = Lfsr::new(1);
        let mut c = ForwardProbabilisticCounter::new();
        assert!(!c.is_confident(&params));
        c.on_correct(&params, &mut rng);
        c.on_correct(&params, &mut rng);
        assert!(!c.is_confident(&params));
        c.on_correct(&params, &mut rng);
        assert!(c.is_confident(&params));
        // Extra correct predictions keep it saturated.
        c.on_correct(&params, &mut rng);
        assert!(c.is_confident(&params));
    }

    #[test]
    fn wrong_prediction_resets() {
        let params = FpcParams::deterministic(2);
        let mut rng = Lfsr::new(1);
        let mut c = ForwardProbabilisticCounter::new();
        c.on_correct(&params, &mut rng);
        c.on_correct(&params, &mut rng);
        assert!(c.is_confident(&params));
        c.on_wrong();
        assert!(!c.is_confident(&params));
        assert_eq!(c.level(), 0);
    }

    #[test]
    fn probabilistic_counter_takes_many_corrects_on_average() {
        let params = FpcParams::paper_default();
        let mut rng = Lfsr::new(123);
        // Average number of correct predictions needed to saturate should be near
        // the sum of denominators (1 + 16*4 + 32*2 = 129).
        let mut total = 0u64;
        let trials = 200;
        for _ in 0..trials {
            let mut c = ForwardProbabilisticCounter::new();
            let mut n = 0u64;
            while !c.is_confident(&params) {
                c.on_correct(&params, &mut rng);
                n += 1;
            }
            total += n;
        }
        let avg = total as f64 / trials as f64;
        assert!(
            (90.0..180.0).contains(&avg),
            "average saturation length {avg} far from expectation (129)"
        );
    }

    #[test]
    fn set_level_clamps() {
        let params = FpcParams::deterministic(3);
        let mut c = ForwardProbabilisticCounter::new();
        c.set_level(200, &params);
        assert!(c.is_confident(&params));
        assert_eq!(c.level(), 3);
    }

    #[test]
    fn paper_default_shape() {
        let p = FpcParams::paper_default();
        assert_eq!(p.max_level(), 7);
        assert_eq!(p.denominators[0], 1);
        assert_eq!(p.denominators[6], 32);
    }
}
