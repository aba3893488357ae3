//! Shared harness code for regenerating the tables and figures of the BeBoP paper.
//!
//! The `figures` binary (`cargo run -p bebop-bench --release --bin figures -- --all`)
//! calls into this crate. Every experiment of the paper's evaluation (Section VI)
//! has a `run_*` function here that produces the same rows/series the paper
//! reports: per-benchmark speedups plus the `[min, max]` box and geometric mean
//! used in the figures.
//!
//! # Execution model
//!
//! The figures are config sweeps over a fixed workload population, so the
//! harness is built around two cost separations:
//!
//! * **Trace generation is paid once per workload**, not once per run: a
//!   [`TraceSet`] records every workload's µ-op stream into a shared
//!   [`bebop::TraceBuffer`] up front, and every simulation replays it
//!   (bit-identically) instead of regenerating it.
//! * **Baseline simulations are paid once per sweep**, not once per variant:
//!   [`run_sweep`] simulates the common baseline configuration once per
//!   workload and shares the statistics across every variant group, then fans
//!   the whole (variant × workload) product out over the cores.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bebop::{
    configs, par, run_source, BenchResult, PredictorKind, SimStats, SpeedupSummary, UopSource,
};
use bebop_trace::{all_spec_benchmarks, MixSpec, TraceBuffer, WorkloadSpec};
use bebop_uarch::{Pipeline, PipelineConfig, SharingPolicy};

mod trace_set;

pub mod perf_json;
pub mod sampling;
pub mod sweep;

pub use bebop_trace::{FaultPlan, TraceStore, TRACE_FORMAT_VERSION};
pub use trace_set::{TraceCachePolicy, TraceSet};

/// Number of µ-ops simulated per benchmark when regenerating figures
/// (200K µ-ops). The paper simulates 100M instructions per benchmark; the default
/// here is sized so the full figure set completes in minutes even on a laptop —
/// pass `--uops` to the `figures` binary to raise it. Every `run_*` experiment
/// takes the budget as a parameter; nothing is hard-coded to this constant.
pub const DEFAULT_UOPS: u64 = 200_000;

/// Returns the benchmark population: all 36 Table II workloads, or a reduced subset
/// when `subset` is true (the `--subset` flag, used to bound runtime).
pub fn workloads(subset: bool) -> Vec<WorkloadSpec> {
    let all = all_spec_benchmarks();
    if subset {
        // A representative slice: two high-gain FP codes, two moderate, two low-gain.
        let keep = [
            "171.swim",
            "173.applu",
            "401.bzip2",
            "403.gcc",
            "429.mcf",
            "186.crafty",
        ];
        all.into_iter()
            .filter(|s| keep.contains(&s.name.as_str()))
            .collect()
    } else {
        all
    }
}

/// Formats a speedup summary as the `[min, max]` + gmean series the paper's figures
/// report.
pub fn format_summary(label: &str, summary: &SpeedupSummary) -> String {
    format!(
        "{label:<28} gmean {:.3}  min {:.3}  q1 {:.3}  med {:.3}  q3 {:.3}  max {:.3}",
        summary.gmean(),
        summary.min(),
        summary.quantile(0.25),
        summary.quantile(0.5),
        summary.quantile(0.75),
        summary.max()
    )
}

/// Formats per-benchmark rows (benchmark name and speedup), as in Figures 5 and 8.
pub fn format_per_bench(results: &[BenchResult]) -> String {
    let mut out = String::new();
    for r in results {
        out.push_str(&format!("    {:<18} {:.3}\n", r.name, r.speedup()));
    }
    out
}

/// One variant group of a sweep: display label, pipeline and predictor.
pub type SweepVariant = (String, PipelineConfig, PredictorKind);

/// The outcome of [`run_sweep`]: per-group comparison results plus the number
/// of µ-ops actually simulated (baselines are shared across groups, so this is
/// `(1 + groups) × workloads × uops`, not `2 × groups × workloads × uops`).
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// `(label, per-benchmark results)` per variant group, in input order.
    pub groups: Vec<(String, Vec<BenchResult>)>,
    /// Committed µ-ops across every simulation the sweep ran.
    pub simulated_uops: u64,
}

/// Runs a config sweep over the shared trace set: the baseline configuration is
/// simulated once per workload, every `(variant, workload)` pair is fanned out
/// over the cores as one flat task list, and each variant group's results reuse
/// the shared baseline statistics.
///
/// Results are ordering-stable and bit-identical to a serial run (the fan-out
/// is [`par::par_map`]), and — because replay is bit-identical to live
/// generation — to simulating every (configuration, workload) pair live.
pub fn run_sweep(
    set: &TraceSet,
    baseline_pipeline: &PipelineConfig,
    baseline_predictor: &PredictorKind,
    variants: &[SweepVariant],
    uops: u64,
) -> SweepOutcome {
    set.assert_covers(uops);
    let idx: Vec<usize> = (0..set.len()).collect();
    let baselines: Vec<SimStats> = par::par_map(&idx, |&i| {
        run_source(set.source(i), baseline_pipeline, baseline_predictor, uops)
    });

    let tasks: Vec<(usize, usize)> = (0..variants.len())
        .flat_map(|g| (0..set.len()).map(move |i| (g, i)))
        .collect();
    let variant_stats: Vec<SimStats> = par::par_map(&tasks, |&(g, i)| {
        let (_, pipeline, predictor) = &variants[g];
        run_source(set.source(i), pipeline, predictor, uops)
    });

    let groups = variants
        .iter()
        .enumerate()
        .map(|(g, (label, _, _))| {
            let results = (0..set.len())
                .map(|i| BenchResult {
                    name: set.name(i).to_string(),
                    baseline: baselines[i],
                    variant: variant_stats[g * set.len() + i],
                })
                .collect();
            (label.clone(), results)
        })
        .collect();
    SweepOutcome {
        groups,
        simulated_uops: (1 + variants.len() as u64) * set.len() as u64 * uops,
    }
}

/// Figure 5a: speedup of 2d-Stride, VTAGE, VTAGE-2d-Stride and D-VTAGE (idealistic
/// instruction-based infrastructure) on the 6-issue baseline, over `Baseline_6_60`.
pub fn run_fig5a(set: &TraceSet, uops: u64) -> SweepOutcome {
    let vp_pipe = PipelineConfig::baseline_vp_6_60();
    let variants: Vec<SweepVariant> = [
        PredictorKind::TwoDeltaStride,
        PredictorKind::Vtage,
        PredictorKind::VtageStrideHybrid,
        PredictorKind::DVtage,
    ]
    .into_iter()
    .map(|kind| (kind.label(), vp_pipe.clone(), kind))
    .collect();
    run_sweep(
        set,
        &PipelineConfig::baseline_6_60(),
        &PredictorKind::None,
        &variants,
        uops,
    )
}

/// Figure 5b: EOLE_4_60 with instruction-based D-VTAGE over Baseline_VP_6_60,
/// as a one-group sweep labelled `EOLE_4_60 w/ D-VTAGE`.
pub fn run_fig5b(set: &TraceSet, uops: u64) -> SweepOutcome {
    let variants: Vec<SweepVariant> = vec![(
        "EOLE_4_60 w/ D-VTAGE".to_string(),
        PipelineConfig::eole_4_60(),
        PredictorKind::DVtage,
    )];
    run_sweep(
        set,
        &PipelineConfig::baseline_vp_6_60(),
        &PredictorKind::DVtage,
        &variants,
        uops,
    )
}

/// Shared shape of Figures 6/7: BeBoP configurations over the EOLE_4_60 +
/// instruction-based D-VTAGE reference, baseline simulated once for the sweep.
fn run_bebop_sweep(
    set: &TraceSet,
    sweep: Vec<(String, bebop::BlockDVtageConfig)>,
    uops: u64,
) -> SweepOutcome {
    let eole = PipelineConfig::eole_4_60();
    let variants: Vec<SweepVariant> = sweep
        .into_iter()
        .map(|(label, cfg)| (label, eole.clone(), PredictorKind::BlockDVtage(cfg)))
        .collect();
    run_sweep(set, &eole, &PredictorKind::DVtage, &variants, uops)
}

/// Figure 6a: predictions per entry (4/6/8) at roughly constant storage.
pub fn run_fig6a(set: &TraceSet, uops: u64) -> SweepOutcome {
    run_bebop_sweep(set, configs::fig6a_sweep(), uops)
}

/// Figure 6b: base/tagged component sizes with 6 predictions per entry.
pub fn run_fig6b(set: &TraceSet, uops: u64) -> SweepOutcome {
    run_bebop_sweep(set, configs::fig6b_sweep(), uops)
}

/// Section VI-B(a): partial stride widths (64/32/16/8 bits). Each group label
/// carries the configuration's storage budget, e.g. `8-bit strides [37.8 KB]`.
pub fn run_strides(set: &TraceSet, uops: u64) -> SweepOutcome {
    let sweep = configs::stride_sweep()
        .into_iter()
        .map(|(label, cfg)| {
            let label = format!("{label} [{:.1} KB]", cfg.storage_kb());
            (label, cfg)
        })
        .collect();
    run_bebop_sweep(set, sweep, uops)
}

/// Figure 7a: recovery policies with an infinite speculative window.
pub fn run_fig7a(set: &TraceSet, uops: u64) -> SweepOutcome {
    run_bebop_sweep(set, configs::fig7a_sweep(), uops)
}

/// Figure 7b: speculative window sizes under DnRDnR.
pub fn run_fig7b(set: &TraceSet, uops: u64) -> SweepOutcome {
    run_bebop_sweep(set, configs::fig7b_sweep(), uops)
}

/// Table III: the final configurations and their storage budgets in KB.
pub fn run_table3() -> Vec<(String, f64)> {
    configs::table3_configs()
        .into_iter()
        .map(|(name, cfg)| (name.to_string(), cfg.storage_kb()))
        .collect()
}

/// Figure 8: the final configurations (plus Baseline_VP_6_60 and EOLE_4_60 with
/// instruction-based D-VTAGE) over Baseline_6_60. All seven groups share one
/// Baseline_6_60 simulation per workload.
pub fn run_fig8(set: &TraceSet, uops: u64) -> SweepOutcome {
    let eole = PipelineConfig::eole_4_60();
    let mut variants: Vec<SweepVariant> = vec![
        (
            "Baseline_VP_6_60".to_string(),
            PipelineConfig::baseline_vp_6_60(),
            PredictorKind::DVtage,
        ),
        ("EOLE_4_60".to_string(), eole.clone(), PredictorKind::DVtage),
    ];
    for (name, cfg) in configs::table3_configs() {
        variants.push((
            name.to_string(),
            eole.clone(),
            PredictorKind::BlockDVtage(cfg),
        ));
    }
    run_sweep(
        set,
        &PipelineConfig::baseline_6_60(),
        &PredictorKind::None,
        &variants,
        uops,
    )
}

/// Wrong-path burst length used by the `figures --wrong-path` experiment:
/// enough µ-ops that a mispredicted branch keeps the front end busy until it
/// resolves, small enough that trace recordings stay affordable.
pub const WRONG_PATH_BURST: u32 = 8;

/// One benchmark row of the wrong-path pollution experiment: the same
/// wrong-path trace simulated under the three wrong-path policies.
#[derive(Debug, Clone, PartialEq)]
pub struct WrongPathRow {
    /// Benchmark name.
    pub name: String,
    /// Wrong-path execution disabled: bursts are skipped for free (the
    /// paper's model, the reference the other two columns are judged against).
    pub off: SimStats,
    /// Wrong-path execution enabled, probe-only pollution
    /// (`update_predictor = false`): wrong-path µ-ops occupy bandwidth and
    /// pollute caches and the predictor's speculative state, but tables are
    /// only updated at commit.
    pub clean: SimStats,
    /// Wrong-path execution with speculative predictor updates
    /// (`update_predictor = true`): bogus wrong-path results reach the tables.
    pub polluted: SimStats,
}

/// The outcome of [`run_wrong_path`].
#[derive(Debug, Clone)]
pub struct WrongPathOutcome {
    /// Per-benchmark rows, in input order.
    pub rows: Vec<WrongPathRow>,
    /// Committed µ-ops across every simulation the experiment ran.
    pub simulated_uops: u64,
}

impl WrongPathOutcome {
    /// Sums a wrong-path counter over the polluted column.
    pub fn polluted_total(&self, f: impl Fn(&SimStats) -> u64) -> u64 {
        self.rows.iter().map(|r| f(&r.polluted)).sum()
    }

    /// Mean value-prediction accuracy of one column (`0.0..=1.0`).
    ///
    /// Note that a fully confidence-gated predictor driven to zero
    /// predictions by pollution reports accuracy 0.0; read it together with
    /// [`WrongPathOutcome::mean_coverage`].
    pub fn mean_accuracy(&self, col: impl Fn(&WrongPathRow) -> &SimStats) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows.iter().map(|r| col(r).vp.accuracy()).sum::<f64>() / self.rows.len() as f64
    }

    /// Mean value-prediction coverage of one column (`0.0..=1.0`): the
    /// fraction of eligible µ-ops correctly predicted. Pollution of a
    /// confidence-gated predictor shows up here as vanished predictions even
    /// when the (few) surviving predictions stay accurate.
    pub fn mean_coverage(&self, col: impl Fn(&WrongPathRow) -> &SimStats) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows.iter().map(|r| col(r).vp.coverage()).sum::<f64>() / self.rows.len() as f64
    }
}

/// The wrong-path pollution experiment behind `figures --wrong-path`: every
/// workload is re-specified with [`WRONG_PATH_BURST`]-µ-op wrong-path bursts,
/// recorded once, and simulated with D-VTAGE on `Baseline_VP_6_60` under the
/// three wrong-path policies (off / clean / polluted) — all over the identical
/// trace, so the polluted-vs-clean accuracy delta isolates predictor pollution
/// and the clean-vs-off delta isolates bandwidth and cache effects.
///
/// The wrong-path specifications have their own trace-store fingerprints, so a
/// shared `--trace-dir` caches these recordings alongside the plain ones.
pub fn run_wrong_path(
    specs: &[WorkloadSpec],
    uops: u64,
    policy: &TraceCachePolicy,
    store: Option<&TraceStore>,
) -> WrongPathOutcome {
    let wp_specs: Vec<WorkloadSpec> = specs
        .iter()
        .map(|s| s.clone().with_wrong_path(WRONG_PATH_BURST))
        .collect();
    let set = TraceSet::build_with_store(&wp_specs, uops, policy, store);
    set.assert_covers(uops);

    let base = PipelineConfig::baseline_vp_6_60();
    let pipes = [
        base.clone(),
        base.clone().with_wrong_path(false),
        base.with_wrong_path(true),
    ];
    let tasks: Vec<(usize, usize)> = (0..pipes.len())
        .flat_map(|p| (0..set.len()).map(move |i| (p, i)))
        .collect();
    let stats: Vec<SimStats> = par::par_map(&tasks, |&(p, i)| {
        run_source(set.source(i), &pipes[p], &PredictorKind::DVtage, uops)
    });

    let rows = (0..set.len())
        .map(|i| WrongPathRow {
            name: set.name(i).to_string(),
            off: stats[i],
            clean: stats[set.len() + i],
            polluted: stats[2 * set.len() + i],
        })
        .collect();
    WrongPathOutcome {
        rows,
        simulated_uops: 3 * set.len() as u64 * uops,
    }
}

/// Fetch quantum of the `figures --mix` experiment: committed µ-ops each
/// context runs for before the round robin hands the core (and the shared
/// predictor) to the next one. Small enough that a 20K-µop smoke run still
/// switches dozens of times, large enough that a context can warm the
/// predictor within its turn.
pub const MIX_QUANTUM: u64 = 1_000;

/// One sharing policy's outcome over one workload pair's mix trace.
#[derive(Debug, Clone, PartialEq)]
pub struct MixPolicyResult {
    /// The sharing policy the predictor (and pipeline) ran under.
    pub policy: SharingPolicy,
    /// Aggregate + per-context statistics of the run.
    pub stats: SimStats,
    /// Cross-context predictor-entry steals (LVT + VT0 + tagged components);
    /// structurally zero under [`SharingPolicy::Partitioned`].
    pub steals: u64,
}

/// One workload pair of the mix experiment: the identical interleaved trace
/// simulated under every sharing policy.
#[derive(Debug, Clone, PartialEq)]
pub struct MixRow {
    /// Mix name (`a+b`).
    pub name: String,
    /// The context names, in ASID order.
    pub contexts: Vec<String>,
    /// One result per [`SharingPolicy::ALL`] entry, in that order.
    pub per_policy: Vec<MixPolicyResult>,
}

/// The outcome of [`run_mix`].
#[derive(Debug, Clone)]
pub struct MixOutcome {
    /// Per-pair rows, in input order.
    pub rows: Vec<MixRow>,
    /// Committed µ-ops across every simulation the experiment ran.
    pub simulated_uops: u64,
    /// Runs whose per-context statistics were verified to sum to the
    /// aggregate (every run; the sum check is a hard assertion).
    pub sum_checked_runs: usize,
}

impl MixOutcome {
    /// Sums a counter over every (pair, policy) run.
    pub fn total(&self, f: impl Fn(&MixPolicyResult) -> u64) -> u64 {
        self.rows
            .iter()
            .flat_map(|r| r.per_policy.iter())
            .map(f)
            .sum()
    }
}

/// The multi-programmed shared-predictor experiment behind `figures --mix`.
///
/// Consecutive workloads are paired up (`w0+w1`, `w2+w3`, …; an odd trailing
/// workload is dropped), each pair is interleaved round-robin by
/// [`MIX_QUANTUM`] into one ASID-tagged trace (recorded once, cached in the
/// persistent store when one is attached), and the *identical* trace is
/// simulated under each [`SharingPolicy`]: a [`configs::MIX_SHARDS`]-way
/// sharded BeBoP D-VTAGE (Medium) on `Baseline_VP_6_60` with mix-mode context
/// switching. Per-context accuracy/coverage therefore isolates the sharing
/// policy — the stream, the quantum boundaries and the µ-op budget are the
/// same in every column.
///
/// Every run's per-context statistics are asserted to sum to its aggregate
/// counters (the CI smoke step relies on this assertion running).
pub fn run_mix(specs: &[WorkloadSpec], uops: u64, store: Option<&TraceStore>) -> MixOutcome {
    let pairs: Vec<MixSpec> = specs
        .chunks(2)
        .filter(|c| c.len() == 2)
        .map(|c| MixSpec::pair(MIX_QUANTUM, c[0].clone(), c[1].clone()))
        .collect();

    // Record (or load) every pair's interleaved trace once, fanned out.
    let buffers: Vec<TraceBuffer> = par::par_map(&pairs, |mix| match store {
        Some(st) => st.load_or_record_mix(mix, uops).0,
        None => mix.record(uops),
    });

    // One flat (pair × policy) task list over the shared recordings.
    let tasks: Vec<(usize, usize)> = (0..pairs.len())
        .flat_map(|i| (0..SharingPolicy::ALL.len()).map(move |p| (i, p)))
        .collect();
    let results: Vec<MixPolicyResult> = par::par_map(&tasks, |&(i, p)| {
        let policy = SharingPolicy::ALL[p];
        let pipe = PipelineConfig::baseline_vp_6_60().with_mix(policy);
        let mut predictor = PredictorKind::BlockDVtage(configs::medium_mix(policy, 2)).build();
        let stats = Pipeline::new(pipe).run(
            UopSource::Replay(&buffers[i]).stream(),
            &mut predictor,
            uops,
        );
        assert!(
            stats.context_totals_consistent(),
            "per-context stats of {} under {} do not sum to the aggregate",
            pairs[i].name,
            policy.label()
        );
        // A budget at or below one quantum is a degenerate (but valid)
        // single-turn run: the first context never exhausts its quantum, so
        // no switch can occur and none is demanded.
        assert!(
            uops <= MIX_QUANTUM || stats.context_switches > 0,
            "a two-context mix over more than one quantum must switch contexts"
        );
        let steals = predictor
            .as_block_dvtage()
            .map(|d| d.total_steals())
            .unwrap_or(0);
        MixPolicyResult {
            policy,
            stats,
            steals,
        }
    });

    let rows = pairs
        .iter()
        .enumerate()
        .map(|(i, mix)| MixRow {
            name: mix.name.clone(),
            contexts: mix.contexts.iter().map(|s| s.name.clone()).collect(),
            per_policy: results[i * SharingPolicy::ALL.len()..(i + 1) * SharingPolicy::ALL.len()]
                .to_vec(),
        })
        .collect();
    MixOutcome {
        rows,
        simulated_uops: pairs.len() as u64 * SharingPolicy::ALL.len() as u64 * uops,
        sum_checked_runs: pairs.len() * SharingPolicy::ALL.len(),
    }
}

/// Table II reproduction: baseline IPC of every synthetic benchmark on
/// `Baseline_6_60`. Fanned out across cores like every other experiment.
pub fn run_table2(set: &TraceSet, uops: u64) -> Vec<(String, f64)> {
    set.assert_covers(uops);
    let baseline = PipelineConfig::baseline_6_60();
    let idx: Vec<usize> = (0..set.len()).collect();
    par::par_map(&idx, |&i| {
        let stats = run_source(set.source(i), &baseline, &PredictorKind::None, uops);
        (set.name(i).to_string(), stats.inst_ipc())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_set(names: &[&str], uops: u64) -> TraceSet {
        let specs: Vec<WorkloadSpec> = names.iter().map(|n| WorkloadSpec::named_demo(*n)).collect();
        TraceSet::build(&specs, uops, &TraceCachePolicy::default())
    }

    #[test]
    fn subset_is_a_strict_subset() {
        assert_eq!(workloads(false).len(), 36);
        let sub = workloads(true);
        assert_eq!(sub.len(), 6);
    }

    #[test]
    fn table3_has_four_rows_with_expected_budgets() {
        let rows = run_table3();
        assert_eq!(rows.len(), 4);
        assert!(rows
            .iter()
            .any(|(n, kb)| n == "Medium" && (28.0..38.0).contains(kb)));
    }

    #[test]
    fn fig5a_runs_on_a_tiny_population() {
        let set = demo_set(&["tiny"], 3_000);
        let out = run_fig5a(&set, 3_000);
        assert_eq!(out.groups.len(), 4);
        for (_, results) in &out.groups {
            assert_eq!(results.len(), 1);
        }
        // One shared baseline + four variants, one workload.
        assert_eq!(out.simulated_uops, 5 * 3_000);
    }

    #[test]
    fn formatting_helpers_produce_text() {
        let set = demo_set(&["fmt"], 2_000);
        let out = run_fig5b(&set, 2_000);
        let results = &out.groups[0].1;
        let summary = SpeedupSummary::from_results(results);
        assert!(format_summary("x", &summary).contains("gmean"));
        assert!(format_per_bench(results).contains("fmt"));
    }

    #[test]
    fn uops_budget_plumbs_through_every_experiment() {
        // `--uops` must reach every simulation: each run commits exactly the
        // requested budget, for every experiment entry point.
        let uops = 1_500;
        let set = demo_set(&["tiny-a", "tiny-b"], uops);
        for (_, results) in run_fig5a(&set, uops).groups {
            for r in &results {
                assert_eq!(r.baseline.uops, uops);
                assert_eq!(r.variant.uops, uops);
            }
        }
        let fig5b = run_fig5b(&set, uops);
        assert_eq!(fig5b.simulated_uops, 2 * 2 * uops);
        for r in &fig5b.groups[0].1 {
            assert_eq!(r.baseline.uops, uops);
            assert_eq!(r.variant.uops, uops);
        }
        for (_, results) in run_fig7b(&set, uops).groups.into_iter().take(2) {
            for r in &results {
                assert_eq!(r.baseline.uops, uops);
            }
        }
    }

    #[test]
    fn wrong_path_experiment_exercises_all_three_policies() {
        let specs: Vec<WorkloadSpec> = vec![WorkloadSpec::new("wp-bench", 41)];
        let uops = 4_000;
        let out = run_wrong_path(&specs, uops, &TraceCachePolicy::default(), None);
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.simulated_uops, 3 * uops);
        let row = &out.rows[0];
        // All three columns commit the same budget over the same trace.
        assert_eq!(row.off.uops, uops);
        assert_eq!(row.clean.uops, uops);
        assert_eq!(row.polluted.uops, uops);
        // Off: bursts skipped for free. Clean: fetched but never trained.
        // Polluted: trains delivered.
        assert_eq!(row.off.wrong_path.fetched, 0);
        assert!(row.clean.wrong_path.fetched > 0);
        assert_eq!(row.clean.wrong_path.vp_trains, 0);
        assert!(row.polluted.wrong_path.vp_trains > 0);
        assert!(out.polluted_total(|s| s.wrong_path.fetched) > 0);
        let _ = out.mean_accuracy(|r| &r.polluted);
    }

    #[test]
    fn mix_experiment_runs_every_policy_over_one_shared_trace() {
        let specs = vec![
            WorkloadSpec::named_demo("mix-x"),
            bebop_trace::spec_benchmark("429.mcf"),
        ];
        let uops = 6_000;
        let out = run_mix(&specs, uops, None);
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.simulated_uops, 3 * uops);
        assert_eq!(out.sum_checked_runs, 3);
        let row = &out.rows[0];
        assert_eq!(row.name, "mix-x+429.mcf");
        assert_eq!(row.per_policy.len(), 3);
        for p in &row.per_policy {
            // Same trace, same budget in every column.
            assert_eq!(p.stats.uops, uops);
            assert!(p.stats.context_switches > 0);
            assert!(p.stats.contexts[0].uops > 0 && p.stats.contexts[1].uops > 0);
            // MIX_QUANTUM fairness: the split is near-even.
            let diff = p.stats.contexts[0].uops.abs_diff(p.stats.contexts[1].uops);
            assert!(
                diff <= MIX_QUANTUM,
                "unfair split under {}",
                p.policy.label()
            );
        }
        // Partitioning makes cross-context steals structurally impossible.
        let part = &row.per_policy[1];
        assert_eq!(part.policy, SharingPolicy::Partitioned);
        assert_eq!(part.steals, 0, "partitioned contexts cannot steal");
    }

    #[test]
    fn odd_workload_populations_drop_the_trailing_spec() {
        let specs = vec![
            WorkloadSpec::named_demo("odd-a"),
            WorkloadSpec::named_demo("odd-b"),
            WorkloadSpec::named_demo("odd-c"),
        ];
        let out = run_mix(&specs, 2_000, None);
        assert_eq!(out.rows.len(), 1, "only complete pairs run");
    }

    /// Every workload under both configurations, each simulation generating
    /// its trace live: the reference the shared-trace sweep must reproduce.
    fn compare_live(
        specs: &[WorkloadSpec],
        baseline: (&PipelineConfig, &PredictorKind),
        variant: (&PipelineConfig, &PredictorKind),
        uops: u64,
    ) -> Vec<BenchResult> {
        specs
            .iter()
            .map(|spec| BenchResult {
                name: spec.name.clone(),
                baseline: run_source(UopSource::Live(spec), baseline.0, baseline.1, uops),
                variant: run_source(UopSource::Live(spec), variant.0, variant.1, uops),
            })
            .collect()
    }

    #[test]
    fn sweep_matches_the_legacy_per_config_compare_path() {
        // The shared-trace, shared-baseline sweep must reproduce exactly what
        // the legacy path (regenerate + resimulate everything per config)
        // produced: replay is bit-identical to live generation and the
        // baseline statistics are deterministic.
        let uops = 2_500;
        let specs: Vec<WorkloadSpec> = ["sw-a", "sw-b"]
            .iter()
            .map(|n| WorkloadSpec::named_demo(*n))
            .collect();
        let set = TraceSet::build(&specs, uops, &TraceCachePolicy::default());
        let eole = PipelineConfig::eole_4_60();
        let sweep = configs::stride_sweep();

        let outcome = run_strides(&set, uops);
        assert_eq!(outcome.groups.len(), sweep.len());
        for ((label, results), (legacy_label, cfg)) in outcome.groups.iter().zip(sweep) {
            // run_strides appends the storage budget to the legacy label.
            assert!(
                label.starts_with(&legacy_label) && label.ends_with("KB]"),
                "unexpected stride label {label:?}"
            );
            let legacy = compare_live(
                &specs,
                (&eole, &PredictorKind::DVtage),
                (&eole, &PredictorKind::BlockDVtage(cfg)),
                uops,
            );
            assert_eq!(*results, legacy, "sweep diverged for {label}");
        }
    }

    #[test]
    fn sweeps_run_identically_with_and_without_the_trace_cache() {
        let uops = 2_000;
        let specs: Vec<WorkloadSpec> = ["nc-a", "nc-b"]
            .iter()
            .map(|n| WorkloadSpec::named_demo(*n))
            .collect();
        let cached = TraceSet::build(&specs, uops, &TraceCachePolicy::default());
        let streaming = TraceSet::build(&specs, uops, &TraceCachePolicy::disabled());
        let a = run_fig8(&cached, uops);
        let b = run_fig8(&streaming, uops);
        assert_eq!(a.groups, b.groups);
        assert_eq!(a.simulated_uops, b.simulated_uops);
    }

    #[test]
    fn serial_and_parallel_figure_runs_are_bit_identical() {
        // The rayon-style fan-out must not change results: per-workload
        // simulations are independent and reassembled in input order, so a
        // 1-thread run and an all-cores run of the same experiment must produce
        // bit-identical `SimStats`.
        let specs = workloads(true);
        let uops = 3_000;
        let set = TraceSet::build(&specs, uops, &TraceCachePolicy::default());

        bebop::par::set_threads(1);
        let serial = run_fig5b(&set, uops);
        let serial_t2 = run_table2(&set, uops);
        // Force real worker threads even on a single-core machine, so the
        // parallel path is exercised everywhere this test runs.
        bebop::par::set_threads(4);
        let parallel = run_fig5b(&set, uops);
        let parallel_t2 = run_table2(&set, uops);
        bebop::par::set_threads(0);

        assert_eq!(
            serial.groups, parallel.groups,
            "SimStats must match bit-for-bit"
        );
        assert_eq!(serial_t2, parallel_t2);
    }
}
