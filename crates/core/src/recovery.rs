//! Recovery policies for the speculative window and FIFO update queue
//! (Section IV-A of the paper).
//!
//! On a pipeline flush, entries younger than the flushing instruction are always
//! discarded. The policies differ in how they treat the block containing the flush
//! point when the first instruction fetched after the flush belongs to that same
//! block (`Bnew == Bflush`), which typically happens on a value misprediction.

use std::fmt;

/// The recovery policy applied when the refetched block equals the flushed block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecoveryPolicy {
    /// Keep predictions older than the flush point and generate new predictions
    /// for refetched µ-ops — per-instruction bookkeeping, always consistent. This
    /// is the idealistic upper bound of Figure 7a.
    Ideal,
    /// Squash the head prediction block and generate a fresh prediction block for
    /// the refetched instructions.
    Repred,
    /// Do not Repredict and do not Reuse: keep the head block, but forbid the
    /// refetched instructions from using their predictions (if one prediction in
    /// the block was wrong, the rest are suspect). The paper's default realistic
    /// policy.
    DnRDnR,
    /// Do not Repredict and Reuse: keep the head block and let refetched
    /// instructions use the predictions generated when the block was first fetched.
    DnRR,
}

impl RecoveryPolicy {
    /// All policies, in the order of Figure 7a.
    pub const ALL: [RecoveryPolicy; 4] = [
        RecoveryPolicy::Ideal,
        RecoveryPolicy::Repred,
        RecoveryPolicy::DnRDnR,
        RecoveryPolicy::DnRR,
    ];
}

impl fmt::Display for RecoveryPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RecoveryPolicy::Ideal => "Ideal",
            RecoveryPolicy::Repred => "Repred",
            RecoveryPolicy::DnRDnR => "DnRDnR",
            RecoveryPolicy::DnRR => "DnRR",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_contains_each_policy_once() {
        assert_eq!(RecoveryPolicy::ALL.len(), 4);
        let mut v = RecoveryPolicy::ALL.to_vec();
        v.dedup();
        assert_eq!(v.len(), 4);
    }

    #[test]
    fn display_names_match_figure_7a() {
        let names: Vec<String> = RecoveryPolicy::ALL.iter().map(|p| p.to_string()).collect();
        assert_eq!(names, vec!["Ideal", "Repred", "DnRDnR", "DnRR"]);
    }
}
