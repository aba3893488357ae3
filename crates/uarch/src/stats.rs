//! Simulation statistics.

use crate::branch::BranchStats;
use crate::cache::MemStats;
use bebop_isa::snap;

/// Value-prediction statistics collected at commit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VpStats {
    /// µ-ops eligible for value prediction.
    pub eligible: u64,
    /// Eligible µ-ops for which the predictor supplied a (confident) prediction.
    pub predicted: u64,
    /// Predictions that turned out to be correct.
    pub correct: u64,
    /// Predictions that turned out to be wrong (each triggers a commit-time squash).
    pub incorrect: u64,
    /// Load-immediate µ-ops whose value was written to the PRF for free in the
    /// front end (BeBoP Section II-B3).
    pub free_load_immediates: u64,
}

impl VpStats {
    /// Coverage: fraction of eligible µ-ops correctly predicted.
    pub fn coverage(&self) -> f64 {
        if self.eligible == 0 {
            0.0
        } else {
            self.correct as f64 / self.eligible as f64
        }
    }

    /// Accuracy: fraction of supplied predictions that were correct.
    pub fn accuracy(&self) -> f64 {
        if self.predicted == 0 {
            0.0
        } else {
            self.correct as f64 / self.predicted as f64
        }
    }
}

/// Wrong-path execution statistics (all zero unless the pipeline runs with a
/// `WrongPathConfig` over a trace carrying wrong-path bursts).
///
/// These counters are the *fetched* side of the committed/fetched distinction:
/// nothing here overlaps with [`SimStats::uops`] or [`VpStats`], which count
/// committed µ-ops only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WrongPathStats {
    /// Mispredicted branches whose wrong-path burst was actually fetched.
    pub bursts: u64,
    /// Wrong-path µ-ops fetched before their branch resolved.
    pub fetched: u64,
    /// Wrong-path µ-ops that reached the out-of-order engine and consumed an
    /// issue slot / functional unit before the squash (wrong-path loads also
    /// access — and pollute — the real cache hierarchy).
    pub executed: u64,
    /// Value predictions supplied for wrong-path µ-ops (predictor probes that
    /// pollute the speculative window; never counted in [`VpStats`]).
    pub vp_predictions: u64,
    /// Polluting predictor updates delivered for wrong-path µ-ops (only under
    /// the `update_predictor` policy).
    pub vp_trains: u64,
    /// Committed value mispredictions that occurred within a short horizon
    /// (64 committed µ-ops) after a polluting wrong-path train. This is an
    /// *attribution heuristic* — a cheap in-run proxy for pollution-induced
    /// mispredictions; the ground truth is the polluted-vs-clean accuracy
    /// delta reported by the `figures --wrong-path` experiment, which runs
    /// both policies over the identical trace.
    pub pollution_mispredicts: u64,
}

/// Number of per-context statistics slots carried by [`SimStats`].
///
/// Multi-programmed traces with more contexts than this fold the surplus into
/// the last slot, so the per-context totals always sum to the aggregate
/// counters regardless of context count. Four covers every mix the harness
/// runs (pairs, plus headroom).
pub const MAX_SIM_CONTEXTS: usize = 4;

/// Per-context slice of a multi-programmed simulation run.
///
/// Every counter here is the per-ASID share of the equally named aggregate
/// [`SimStats`] field: summed over all slots they reproduce the aggregate
/// exactly ([`SimStats::context_totals_consistent`]). Single-context runs
/// accumulate everything in slot 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContextStats {
    /// µ-ops committed by this context.
    pub uops: u64,
    /// Macro-instructions committed by this context.
    pub insts: u64,
    /// Branch-misprediction flushes charged to this context.
    pub branch_flushes: u64,
    /// Value-misprediction flushes charged to this context.
    pub vp_flushes: u64,
    /// Value-prediction statistics of this context's µ-ops.
    pub vp: VpStats,
}

/// EOLE statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EoleStats {
    /// µ-ops executed early (at rename, outside the OoO engine).
    pub early_executed: u64,
    /// µ-ops executed late (just before commit, outside the OoO engine).
    pub late_executed: u64,
    /// µ-ops that went through the out-of-order scheduler.
    pub ooo_executed: u64,
}

/// Aggregate result of one simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimStats {
    /// µ-ops committed.
    pub uops: u64,
    /// Macro-instructions committed.
    pub insts: u64,
    /// Total cycles from first fetch to last commit.
    pub cycles: u64,
    /// Pipeline flushes caused by branch mispredictions.
    pub branch_flushes: u64,
    /// Pipeline flushes caused by value mispredictions (squash at commit).
    pub vp_flushes: u64,
    /// Branch predictor statistics.
    pub branch: BranchStats,
    /// Memory hierarchy statistics.
    pub mem: MemStats,
    /// Value prediction statistics.
    pub vp: VpStats,
    /// EOLE statistics.
    pub eole: EoleStats,
    /// Wrong-path execution statistics.
    pub wrong_path: WrongPathStats,
    /// Context switches observed in the µ-op stream (changes of
    /// [`bebop_isa::DynUop::asid`] between consecutive committed µ-ops; 0 for
    /// single-context traces).
    pub context_switches: u64,
    /// Per-context split of the committed-path counters (see
    /// [`ContextStats`]); context `c` accumulates in slot
    /// `min(c, MAX_SIM_CONTEXTS - 1)`.
    pub contexts: [ContextStats; MAX_SIM_CONTEXTS],
}

impl SimStats {
    /// The statistics slot a context's counters accumulate in.
    pub fn context_slot(asid: u8) -> usize {
        (asid as usize).min(MAX_SIM_CONTEXTS - 1)
    }

    /// Returns `true` when the per-context splits sum exactly to the
    /// aggregate committed-path counters — the invariant the pipeline
    /// maintains by construction, asserted by the mix experiments and CI.
    pub fn context_totals_consistent(&self) -> bool {
        let sum = |f: fn(&ContextStats) -> u64| self.contexts.iter().map(f).sum::<u64>();
        sum(|c| c.uops) == self.uops
            && sum(|c| c.insts) == self.insts
            && sum(|c| c.branch_flushes) == self.branch_flushes
            && sum(|c| c.vp_flushes) == self.vp_flushes
            && sum(|c| c.vp.eligible) == self.vp.eligible
            && sum(|c| c.vp.predicted) == self.vp.predicted
            && sum(|c| c.vp.correct) == self.vp.correct
            && sum(|c| c.vp.incorrect) == self.vp.incorrect
            && sum(|c| c.vp.free_load_immediates) == self.vp.free_load_immediates
    }

    /// Committed µ-ops per cycle.
    pub fn uop_ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.uops as f64 / self.cycles as f64
        }
    }

    /// Committed macro-instructions per cycle (the IPC reported in Table II).
    pub fn inst_ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.insts as f64 / self.cycles as f64
        }
    }

    /// Speedup of this run over a baseline run of the *same trace*: ratio of
    /// baseline cycles to this run's cycles.
    ///
    /// # Panics
    ///
    /// Panics if the two runs committed different µ-op counts (they would not be
    /// comparable).
    pub fn speedup_over(&self, baseline: &SimStats) -> f64 {
        assert_eq!(
            self.uops, baseline.uops,
            "speedup requires runs over the same trace"
        );
        if self.cycles == 0 {
            return 0.0;
        }
        baseline.cycles as f64 / self.cycles as f64
    }

    /// Counter-wise difference `self − earlier`: the statistics of the work
    /// done *between* two snapshots of the same run.
    ///
    /// This is what turns a warm-up prefix into a measurement window for
    /// phase-sampled simulation: simulate warm-up + slice in one pipeline,
    /// snapshot at the warm-up boundary, and subtract. Every field is a
    /// monotone `u64` counter over a run's lifetime, so the subtraction is
    /// exact; it saturates at zero as a guard against snapshots passed in the
    /// wrong order.
    pub fn delta_since(&self, earlier: &SimStats) -> SimStats {
        let vp = |a: &VpStats, b: &VpStats| VpStats {
            eligible: a.eligible.saturating_sub(b.eligible),
            predicted: a.predicted.saturating_sub(b.predicted),
            correct: a.correct.saturating_sub(b.correct),
            incorrect: a.incorrect.saturating_sub(b.incorrect),
            free_load_immediates: a
                .free_load_immediates
                .saturating_sub(b.free_load_immediates),
        };
        let mut contexts = [ContextStats::default(); MAX_SIM_CONTEXTS];
        for (d, (a, b)) in contexts
            .iter_mut()
            .zip(self.contexts.iter().zip(&earlier.contexts))
        {
            *d = ContextStats {
                uops: a.uops.saturating_sub(b.uops),
                insts: a.insts.saturating_sub(b.insts),
                branch_flushes: a.branch_flushes.saturating_sub(b.branch_flushes),
                vp_flushes: a.vp_flushes.saturating_sub(b.vp_flushes),
                vp: vp(&a.vp, &b.vp),
            };
        }
        SimStats {
            uops: self.uops.saturating_sub(earlier.uops),
            insts: self.insts.saturating_sub(earlier.insts),
            cycles: self.cycles.saturating_sub(earlier.cycles),
            branch_flushes: self.branch_flushes.saturating_sub(earlier.branch_flushes),
            vp_flushes: self.vp_flushes.saturating_sub(earlier.vp_flushes),
            branch: BranchStats {
                cond_branches: self
                    .branch
                    .cond_branches
                    .saturating_sub(earlier.branch.cond_branches),
                cond_mispredicts: self
                    .branch
                    .cond_mispredicts
                    .saturating_sub(earlier.branch.cond_mispredicts),
                target_mispredicts: self
                    .branch
                    .target_mispredicts
                    .saturating_sub(earlier.branch.target_mispredicts),
            },
            mem: MemStats {
                l1d_accesses: self
                    .mem
                    .l1d_accesses
                    .saturating_sub(earlier.mem.l1d_accesses),
                l1d_misses: self.mem.l1d_misses.saturating_sub(earlier.mem.l1d_misses),
                l2_accesses: self.mem.l2_accesses.saturating_sub(earlier.mem.l2_accesses),
                l2_misses: self.mem.l2_misses.saturating_sub(earlier.mem.l2_misses),
                prefetches: self.mem.prefetches.saturating_sub(earlier.mem.prefetches),
            },
            vp: vp(&self.vp, &earlier.vp),
            eole: EoleStats {
                early_executed: self
                    .eole
                    .early_executed
                    .saturating_sub(earlier.eole.early_executed),
                late_executed: self
                    .eole
                    .late_executed
                    .saturating_sub(earlier.eole.late_executed),
                ooo_executed: self
                    .eole
                    .ooo_executed
                    .saturating_sub(earlier.eole.ooo_executed),
            },
            wrong_path: WrongPathStats {
                bursts: self
                    .wrong_path
                    .bursts
                    .saturating_sub(earlier.wrong_path.bursts),
                fetched: self
                    .wrong_path
                    .fetched
                    .saturating_sub(earlier.wrong_path.fetched),
                executed: self
                    .wrong_path
                    .executed
                    .saturating_sub(earlier.wrong_path.executed),
                vp_predictions: self
                    .wrong_path
                    .vp_predictions
                    .saturating_sub(earlier.wrong_path.vp_predictions),
                vp_trains: self
                    .wrong_path
                    .vp_trains
                    .saturating_sub(earlier.wrong_path.vp_trains),
                pollution_mispredicts: self
                    .wrong_path
                    .pollution_mispredicts
                    .saturating_sub(earlier.wrong_path.pollution_mispredicts),
            },
            context_switches: self
                .context_switches
                .saturating_sub(earlier.context_switches),
            contexts,
        }
    }
}

snap!(VpStats {
    eligible: u64,
    predicted: u64,
    correct: u64,
    incorrect: u64,
    free_load_immediates: u64,
});
snap!(WrongPathStats {
    bursts: u64,
    fetched: u64,
    executed: u64,
    vp_predictions: u64,
    vp_trains: u64,
    pollution_mispredicts: u64,
});
snap!(ContextStats {
    uops: u64,
    insts: u64,
    branch_flushes: u64,
    vp_flushes: u64,
    vp: VpStats,
});
snap!(EoleStats {
    early_executed: u64,
    late_executed: u64,
    ooo_executed: u64,
});
snap!(SimStats {
    uops: u64,
    insts: u64,
    cycles: u64,
    branch_flushes: u64,
    vp_flushes: u64,
    branch: BranchStats,
    mem: MemStats,
    vp: VpStats,
    eole: EoleStats,
    wrong_path: WrongPathStats,
    context_switches: u64,
    contexts: [ContextStats; MAX_SIM_CONTEXTS],
});

/// The geometric mean of a slice of speedups (the aggregate the paper reports).
///
/// Returns 1.0 for an empty slice.
pub fn gmean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_computation() {
        let s = SimStats {
            uops: 1000,
            insts: 600,
            cycles: 500,
            ..Default::default()
        };
        assert!((s.uop_ipc() - 2.0).abs() < 1e-12);
        assert!((s.inst_ipc() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn zero_cycles_is_zero_ipc() {
        assert_eq!(SimStats::default().uop_ipc(), 0.0);
        assert_eq!(SimStats::default().inst_ipc(), 0.0);
    }

    #[test]
    fn speedup_over_baseline() {
        let base = SimStats {
            uops: 100,
            cycles: 200,
            ..Default::default()
        };
        let fast = SimStats {
            uops: 100,
            cycles: 100,
            ..Default::default()
        };
        assert!((fast.speedup_over(&base) - 2.0).abs() < 1e-12);
        assert!((base.speedup_over(&fast) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn speedup_requires_same_trace() {
        let a = SimStats {
            uops: 100,
            cycles: 10,
            ..Default::default()
        };
        let b = SimStats {
            uops: 200,
            cycles: 10,
            ..Default::default()
        };
        let _ = a.speedup_over(&b);
    }

    #[test]
    fn vp_rates() {
        let v = VpStats {
            eligible: 100,
            predicted: 50,
            correct: 45,
            incorrect: 5,
            free_load_immediates: 3,
        };
        assert!((v.coverage() - 0.45).abs() < 1e-12);
        assert!((v.accuracy() - 0.9).abs() < 1e-12);
        assert_eq!(VpStats::default().coverage(), 0.0);
        assert_eq!(VpStats::default().accuracy(), 0.0);
    }

    #[test]
    fn context_slots_clamp_and_totals_check() {
        assert_eq!(SimStats::context_slot(0), 0);
        assert_eq!(SimStats::context_slot(3), 3);
        assert_eq!(SimStats::context_slot(200), MAX_SIM_CONTEXTS - 1);

        let mut s = SimStats {
            uops: 10,
            insts: 6,
            ..Default::default()
        };
        assert!(!s.context_totals_consistent(), "unsplit counters must fail");
        s.contexts[0].uops = 4;
        s.contexts[1].uops = 6;
        s.contexts[0].insts = 6;
        assert!(s.context_totals_consistent());
        s.contexts[1].vp.correct = 1;
        assert!(!s.context_totals_consistent());
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)] // nested stats are easiest to build by mutation
    fn delta_since_subtracts_every_counter_and_saturates() {
        let mut early = SimStats::default();
        early.uops = 100;
        early.cycles = 40;
        early.vp.correct = 7;
        early.contexts[0].uops = 100;
        let mut late = early;
        late.uops = 250;
        late.cycles = 95;
        late.vp.correct = 19;
        late.mem.l1d_misses = 3;
        late.contexts[0].uops = 250;
        let d = late.delta_since(&early);
        assert_eq!(d.uops, 150);
        assert_eq!(d.cycles, 55);
        assert_eq!(d.vp.correct, 12);
        assert_eq!(d.mem.l1d_misses, 3);
        assert_eq!(d.contexts[0].uops, 150);
        // A full-window delta against the zero snapshot is the identity.
        assert_eq!(late.delta_since(&SimStats::default()), late);
        // Reversed snapshots saturate instead of wrapping.
        assert_eq!(early.delta_since(&late).uops, 0);
    }

    #[test]
    fn gmean_behaviour() {
        assert!((gmean(&[]) - 1.0).abs() < 1e-12);
        assert!((gmean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((gmean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
    }
}
