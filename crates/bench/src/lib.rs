//! Shared harness code for regenerating the tables and figures of the BeBoP paper.
//!
//! The `figures` binary (`cargo run -p bebop-bench --release --bin figures -- --all`)
//! calls into this crate. Every simulating experiment of the paper's evaluation
//! (Section VI) is declared by [`experiments`] as a [`SweepRequest`] whose
//! variant 0 is its baseline; resolved, it gives the rows/series the paper
//! reports: per-benchmark speedups plus the `[min, max]` box and geometric
//! mean used in the figures.
//!
//! # Execution model
//!
//! The figures are config sweeps over a fixed workload population, so the
//! harness is built around two cost separations:
//!
//! * **Trace generation is paid once per workload**, not once per run: a
//!   [`TraceSet`] records every workload's µ-op stream into a shared
//!   [`bebop::TraceBuffer`] up front, and every simulation replays it
//!   (bit-identically) instead of regenerating it. With a [`TraceStore`]
//!   attached it is paid once per machine. Every mode gets its recordings
//!   through [`TraceStore::load_or_record_key`] with one failure policy (a
//!   failed save is retried, then counted unsaved while the run goes on):
//!   the `--all` experiments, `--wrong-path`, `--sample` and `--sweep` via
//!   [`TraceSet::build_with_store`], and `--mix`, whose workloads are
//!   interleaved [`MixSpec`]s, directly.
//! * **Each distinct simulation is paid once per run**, not once per
//!   experiment that declares it: a [`JobTable`] keys every cell on
//!   (workload, [`config_encoding`]), simulates the cells it does not hold yet
//!   in one fan-out per experiment and reuses the rest. The figures share
//!   their reference points (Baseline_6_60, Baseline_VP_6_60 and EOLE_4_60
//!   with D-VTAGE, the optimistic BeBoP configuration), so `figures --all`
//!   simulates 32 of the 47 cells it declares per workload. The wrong-path
//!   grid ([`wrong_path_request`]) resolves through a table of its own, over
//!   its own wrong-path recordings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bebop::{
    configs, par, run_source, BenchResult, PredictorKind, SimStats, SpeedupSummary, UopSource,
};
use bebop_trace::{all_spec_benchmarks, MixSpec, TraceBuffer, TraceKey, WorkloadSpec};
use bebop_uarch::{Pipeline, PipelineConfig, SharingPolicy};
use std::collections::BTreeMap;
use sweep::{config_encoding, SweepJob, SweepRequest};

mod trace_set;

pub mod perf_json;
pub mod sampling;
pub mod sweep;

pub use bebop_trace::{FaultPlan, TraceStore, TRACE_FORMAT_VERSION};
pub use trace_set::{TraceCachePolicy, TraceSet};

/// Number of µ-ops simulated per benchmark when regenerating figures
/// (200K µ-ops). The paper simulates 100M instructions per benchmark; the default
/// here is sized so the full figure set completes in minutes even on a laptop —
/// pass `--uops` to the `figures` binary to raise it. Every experiment takes the
/// budget as a parameter; nothing is hard-coded to this constant.
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

/// One simulating experiment of the paper's evaluation.
#[derive(Debug)]
pub struct Experiment {
    /// Name on the `figures` command line and in the perf report.
    pub name: &'static str,
    /// Heading the experiment prints.
    pub title: &'static str,
    /// Whether the experiment prints a row per benchmark under each group.
    pub per_bench: bool,
    /// The grid it simulates. Variant 0 is the baseline every other variant's
    /// speedup is reported against; a one-variant grid (Table II) reports the
    /// baseline's IPC per benchmark instead.
    pub request: SweepRequest,
}

/// The nine simulating experiments of Section VI, in the order `figures`
/// prints them, each over `workloads` at `uops` committed µ-ops per cell:
/// Table II, Figures 5a/5b/6a/6b, the partial strides, Figures 7a/7b and 8.
pub fn experiments(workloads: &[WorkloadSpec], uops: u64) -> Vec<Experiment> {
    let base = PipelineConfig::baseline_6_60();
    let vp = PipelineConfig::baseline_vp_6_60();
    let eole = PipelineConfig::eole_4_60();
    let no_vp = ("Baseline_6_60".to_string(), base, PredictorKind::None);
    let eole_dvtage = |label: &str| (label.to_string(), eole.clone(), PredictorKind::DVtage);
    let block_dvtage = |label: String, cfg| (label, eole.clone(), PredictorKind::BlockDVtage(cfg));
    // Figures 6 and 7 and the stride study: BeBoP configurations over EOLE_4_60
    // with instruction-based D-VTAGE.
    let bebop_sweep = |sweep: Vec<(String, bebop::BlockDVtageConfig)>| {
        std::iter::once(eole_dvtage("EOLE_4_60 w/ D-VTAGE"))
            .chain(
                sweep
                    .into_iter()
                    .map(|(label, cfg)| block_dvtage(label, cfg)),
            )
            .collect()
    };
    let fig5a = std::iter::once(no_vp.clone())
        .chain(
            [
                PredictorKind::TwoDeltaStride,
                PredictorKind::Vtage,
                PredictorKind::VtageStrideHybrid,
                PredictorKind::DVtage,
            ]
            .map(|kind| (kind.label(), vp.clone(), kind)),
        )
        .collect();
    let vp_dvtage = ("Baseline_VP_6_60".to_string(), vp, PredictorKind::DVtage);
    // Each stride label carries its storage budget, e.g. `8-bit strides [37.8 KB]`.
    let strides = configs::stride_sweep()
        .into_iter()
        .map(|(label, cfg)| (format!("{label} [{:.1} KB]", cfg.storage_kb()), cfg))
        .collect();
    let fig8 = [no_vp.clone(), vp_dvtage.clone(), eole_dvtage("EOLE_4_60")]
        .into_iter()
        .chain(
            configs::table3_configs()
                .into_iter()
                .map(|(name, cfg)| block_dvtage(name.to_string(), cfg)),
        )
        .collect();
    let experiment = |name, title, per_bench, variants| Experiment {
        name,
        title,
        per_bench,
        request: SweepRequest {
            name: name.to_string(),
            workloads: workloads.to_vec(),
            variants,
            uops,
        },
    };
    vec![
        experiment(
            "table2",
            "Table II: baseline IPC per benchmark (Baseline_6_60)",
            true,
            vec![no_vp],
        ),
        experiment(
            "fig5a",
            "Figure 5a: value predictors over Baseline_6_60 (idealistic infrastructure)",
            true,
            fig5a,
        ),
        experiment(
            "fig5b",
            "Figure 5b: EOLE_4_60 (D-VTAGE) over Baseline_VP_6_60",
            true,
            vec![vp_dvtage, eole_dvtage("EOLE_4_60 w/ D-VTAGE")],
        ),
        experiment(
            "fig6a",
            "Figure 6a: predictions per entry (BeBoP D-VTAGE) over EOLE_4_60",
            false,
            bebop_sweep(configs::fig6a_sweep()),
        ),
        experiment(
            "fig6b",
            "Figure 6b: base/tagged component sizes (Npred=6) over EOLE_4_60",
            false,
            bebop_sweep(configs::fig6b_sweep()),
        ),
        experiment(
            "strides",
            "Section VI-B(a): partial strides",
            false,
            bebop_sweep(strides),
        ),
        experiment(
            "fig7a",
            "Figure 7a: speculative window recovery policies over EOLE_4_60",
            false,
            bebop_sweep(configs::fig7a_sweep()),
        ),
        experiment(
            "fig7b",
            "Figure 7b: speculative window size (DnRDnR) over EOLE_4_60",
            false,
            bebop_sweep(configs::fig7b_sweep()),
        ),
        experiment(
            "fig8",
            "Figure 8: final configurations over Baseline_6_60",
            true,
            fig8,
        ),
    ]
}

/// Every simulation the experiments have run over one [`TraceSet`], keyed by
/// (workload index, [`config_encoding`]). Simulation is deterministic, so a
/// cell that several experiments declare (a shared baseline, the optimistic
/// BeBoP working point) is simulated once and reused after.
#[derive(Debug)]
pub struct JobTable<'a> {
    set: &'a TraceSet,
    uops: u64,
    cells: BTreeMap<(usize, String), SimStats>,
    reused: u64,
}

/// One experiment's cells, resolved through a [`JobTable`].
#[derive(Debug, Clone, PartialEq)]
pub struct Resolved {
    /// Statistics of every cell, in [`SweepRequest::expand`] order
    /// (`variant * workloads + workload`).
    pub stats: Vec<SimStats>,
    /// µ-ops of the simulations this resolution ran; cells the table already
    /// held cost none.
    pub simulated_uops: u64,
}

impl Resolved {
    /// Variant `v` against variant 0 for every `v ≥ 1`, per workload: the
    /// pairing [`sweep::SweepReport::variant_speedups`] uses.
    pub fn groups(&self, req: &SweepRequest) -> Vec<(String, Vec<BenchResult>)> {
        let w = req.workloads.len();
        let result = |v: usize, i: usize| BenchResult {
            name: req.workloads[i].name.clone(),
            baseline: self.stats[i],
            variant: self.stats[v * w + i],
        };
        (1..req.variants.len())
            .map(|v| {
                (
                    req.variants[v].0.clone(),
                    (0..w).map(|i| result(v, i)).collect(),
                )
            })
            .collect()
    }
}

impl<'a> JobTable<'a> {
    /// An empty table over `set`, whose cells simulate `uops` µ-ops each.
    pub fn new(set: &'a TraceSet, uops: u64) -> Self {
        set.assert_covers(uops);
        JobTable {
            set,
            uops,
            cells: BTreeMap::new(),
            reused: 0,
        }
    }

    /// Resolves every cell of `req`: the cells not yet in the table run in one
    /// [`par::par_map`] (bit-identical to a serial run), the others are reused.
    ///
    /// # Panics
    ///
    /// Panics if `req` is not over the table's workloads and µ-op budget.
    pub fn resolve(&mut self, req: &SweepRequest) -> Resolved {
        let names = (0..self.set.len()).map(|i| self.set.name(i));
        assert!(
            req.uops == self.uops && req.workloads.iter().map(|s| s.name.as_str()).eq(names),
            "{} is not over the table's workloads and µ-op budget",
            req.name
        );
        let encodings: Vec<String> = req
            .variants
            .iter()
            .map(|(_, pipeline, predictor)| config_encoding(pipeline, predictor))
            .collect();
        let jobs = req.expand();
        let key = |job: &SweepJob| (job.workload, encodings[job.variant].clone());
        let missing: Vec<&SweepJob> = jobs
            .iter()
            .filter(|job| !self.cells.contains_key(&key(job)))
            .collect();
        let (set, uops) = (self.set, self.uops);
        let stats = par::par_map(&missing, |job| {
            let (_, pipeline, predictor) = &req.variants[job.variant];
            run_source(set.source(job.workload), pipeline, predictor, uops)
        });
        for (job, s) in missing.iter().zip(stats) {
            self.cells.insert(key(job), s);
        }
        self.reused += (jobs.len() - missing.len()) as u64;
        Resolved {
            stats: jobs.iter().map(|job| self.cells[&key(job)]).collect(),
            simulated_uops: missing.len() as u64 * uops,
        }
    }

    /// Cells served without simulating, over every resolution so far.
    pub fn reused(&self) -> u64 {
        self.reused
    }
}

/// Table III: the final configurations and their storage budgets in KB.
pub fn run_table3() -> Vec<(String, f64)> {
    configs::table3_configs()
        .into_iter()
        .map(|(name, cfg)| (name.to_string(), cfg.storage_kb()))
        .collect()
}

/// Wrong-path burst length used by the `figures --wrong-path` experiment:
/// enough µ-ops that a mispredicted branch keeps the front end busy until it
/// resolves, small enough that trace recordings stay affordable.
pub const WRONG_PATH_BURST: u32 = 8;

/// The wrong-path pollution experiment behind `figures --wrong-path`: every
/// workload re-specified with [`WRONG_PATH_BURST`]-µ-op wrong-path bursts,
/// simulated with D-VTAGE on `Baseline_VP_6_60` under the three wrong-path
/// policies. Resolved through a [`JobTable`] over a [`TraceSet`] of the
/// request's workloads, every variant replays the identical trace, so the
/// polluted-vs-clean accuracy delta isolates predictor pollution and the
/// clean-vs-off delta isolates bandwidth and cache effects. The variants:
///
/// 0. `off`: wrong-path execution disabled, bursts skipped for free (the
///    paper's model, the reference the other two are judged against);
/// 1. `clean`: wrong-path µ-ops occupy bandwidth and pollute caches and the
///    predictor's speculative state, but tables are only updated at commit
///    (`update_predictor = false`);
/// 2. `polluted`: speculative predictor updates, so bogus wrong-path results
///    reach the tables (`update_predictor = true`).
///
/// The wrong-path specifications have their own trace-store fingerprints, so a
/// shared `--trace-dir` caches these recordings alongside the plain ones.
pub fn wrong_path_request(workloads: &[WorkloadSpec], uops: u64) -> SweepRequest {
    let base = PipelineConfig::baseline_vp_6_60();
    let variant = |label: &str, pipeline| (label.to_string(), pipeline, PredictorKind::DVtage);
    SweepRequest {
        name: "wrongpath".to_string(),
        workloads: workloads
            .iter()
            .map(|s| s.clone().with_wrong_path(WRONG_PATH_BURST))
            .collect(),
        variants: vec![
            variant("off", base.clone()),
            variant("clean", base.clone().with_wrong_path(false)),
            variant("polluted", base.with_wrong_path(true)),
        ],
        uops,
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
        Some(st) => {
            st.load_or_record_key(&TraceKey::for_mix(mix), uops, || mix.record(uops))
                .0
        }
        None => mix.record(uops),
    });

    // One flat (pair × policy) task list over the shared recordings.
    let tasks: Vec<(usize, usize)> = (0..pairs.len())
        .flat_map(|i| (0..SharingPolicy::ALL.len()).map(move |p| (i, p)))
        .collect();
    let results: Vec<MixPolicyResult> = par::par_map(&tasks, |&(i, p)| {
        let policy = SharingPolicy::ALL[p];
        let pipe = PipelineConfig::baseline_vp_6_60().with_mix();
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

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_specs(names: &[&str]) -> Vec<WorkloadSpec> {
        names.iter().map(|n| WorkloadSpec::named_demo(*n)).collect()
    }

    /// Experiment `name` over `set`, resolved through a fresh job table,
    /// with its request.
    fn resolve_alone(
        set: &TraceSet,
        specs: &[WorkloadSpec],
        name: &str,
        uops: u64,
    ) -> (SweepRequest, Resolved) {
        let exp = experiments(specs, uops)
            .into_iter()
            .find(|e| e.name == name)
            .expect("known experiment");
        let out = JobTable::new(set, uops).resolve(&exp.request);
        (exp.request, out)
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
        let specs = demo_specs(&["tiny"]);
        let set = TraceSet::build(&specs, 3_000, &TraceCachePolicy::default());
        let (req, out) = resolve_alone(&set, &specs, "fig5a", 3_000);
        let groups = out.groups(&req);
        assert_eq!(groups.len(), 4);
        for (_, results) in &groups {
            assert_eq!(results.len(), 1);
        }
        // One shared baseline + four variants, one workload.
        assert_eq!(out.simulated_uops, 5 * 3_000);
    }

    #[test]
    fn formatting_helpers_produce_text() {
        let specs = demo_specs(&["fmt"]);
        let set = TraceSet::build(&specs, 2_000, &TraceCachePolicy::default());
        let (req, out) = resolve_alone(&set, &specs, "fig5b", 2_000);
        let groups = out.groups(&req);
        let results = &groups[0].1;
        let summary = SpeedupSummary::from_results(results);
        assert!(format_summary("x", &summary).contains("gmean"));
        assert!(format_per_bench(results).contains("fmt"));
    }

    #[test]
    fn uops_budget_plumbs_through_every_experiment() {
        // `--uops` must reach every simulation: each run commits exactly the
        // requested budget, in every experiment, whether the table simulated
        // the cell for it or reused it.
        let uops = 1_500;
        let specs = demo_specs(&["tiny-a", "tiny-b"]);
        let set = TraceSet::build(&specs, uops, &TraceCachePolicy::default());
        let mut table = JobTable::new(&set, uops);
        for exp in experiments(&specs, uops) {
            assert_eq!(exp.request.uops, uops, "{}", exp.name);
            let out = table.resolve(&exp.request);
            for s in &out.stats {
                assert_eq!(s.uops, uops, "{}", exp.name);
            }
            for (_, results) in out.groups(&exp.request) {
                for r in &results {
                    assert_eq!(r.baseline.uops, uops, "{}", exp.name);
                    assert_eq!(r.variant.uops, uops, "{}", exp.name);
                }
            }
        }
        let (_, fig5b) = resolve_alone(&set, &specs, "fig5b", uops);
        assert_eq!(fig5b.simulated_uops, 2 * 2 * uops);
    }

    #[test]
    fn job_table_simulates_each_distinct_cell_once() {
        let uops = 1_500;
        let specs = demo_specs(&["jt-a", "jt-b"]);
        let set = TraceSet::build(&specs, uops, &TraceCachePolicy::default());
        let exps = experiments(&specs, uops);
        let names: Vec<&str> = exps.iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            ["table2", "fig5a", "fig5b", "fig6a", "fig6b", "strides", "fig7a", "fig7b", "fig8"]
        );

        // Through one shared table, every experiment resolves exactly as it
        // does alone.
        let mut shared = JobTable::new(&set, uops);
        let mut simulated_uops = 0;
        for exp in &exps {
            let out = shared.resolve(&exp.request);
            simulated_uops += out.simulated_uops;
            let mut fresh = JobTable::new(&set, uops);
            let alone = fresh.resolve(&exp.request);
            assert_eq!(out.stats, alone.stats, "{}", exp.name);
            assert_eq!(
                out.groups(&exp.request),
                alone.groups(&exp.request),
                "{}",
                exp.name
            );
            assert_eq!(fresh.reused(), 0, "{} declares a cell twice", exp.name);
        }

        // 47 cells declared per workload, 32 of them distinct.
        let declared: usize = exps.iter().map(|e| e.request.expand().len()).sum();
        assert_eq!(declared, 47 * specs.len());
        assert_eq!(shared.cells.len(), 32 * specs.len());
        assert_eq!(shared.reused(), 15 * specs.len() as u64);
        assert_eq!(simulated_uops, 32 * specs.len() as u64 * uops);

        // A reused cell is the direct simulation of its configuration: Figure
        // 8's Medium group on the second workload, whose Baseline_6_60 side
        // Table II simulated first.
        let fig8 = &exps[8].request;
        let groups = shared.resolve(fig8).groups(fig8);
        let (label, results) = &groups[4];
        assert_eq!(label, "Medium");
        let direct = BenchResult {
            name: specs[1].name.clone(),
            baseline: run_source(
                set.source(1),
                &PipelineConfig::baseline_6_60(),
                &PredictorKind::None,
                uops,
            ),
            variant: run_source(
                set.source(1),
                &PipelineConfig::eole_4_60(),
                &PredictorKind::BlockDVtage(configs::medium()),
                uops,
            ),
        };
        assert_eq!(results[1], direct);
    }

    #[test]
    fn wrong_path_experiment_exercises_all_three_policies() {
        let specs: Vec<WorkloadSpec> = vec![WorkloadSpec::new("wp-bench", 41)];
        let uops = 4_000;
        let req = wrong_path_request(&specs, uops);
        let set = TraceSet::build(&req.workloads, uops, &TraceCachePolicy::default());
        let mut table = JobTable::new(&set, uops);
        let out = table.resolve(&req);
        assert_eq!(out.stats.len(), 3, "one workload under three policies");
        assert_eq!(out.simulated_uops, 3 * uops);
        assert_eq!(table.reused(), 0, "the three policies are distinct cells");
        let [off, clean, polluted] = [&out.stats[0], &out.stats[1], &out.stats[2]];
        // All three columns commit the same budget over the same trace.
        assert_eq!(off.uops, uops);
        assert_eq!(clean.uops, uops);
        assert_eq!(polluted.uops, uops);
        // Off: bursts skipped for free. Clean: fetched but never trained.
        // Polluted: trains delivered.
        assert_eq!(off.wrong_path.fetched, 0);
        assert!(clean.wrong_path.fetched > 0);
        assert_eq!(clean.wrong_path.vp_trains, 0);
        assert!(polluted.wrong_path.vp_trains > 0);
        assert!(polluted.wrong_path.fetched > 0);
        assert!((0.0..=1.0).contains(&polluted.vp.accuracy()));
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

        let (req, out) = resolve_alone(&set, &specs, "strides", uops);
        let groups = out.groups(&req);
        assert_eq!(groups.len(), sweep.len());
        for ((label, results), (legacy_label, cfg)) in groups.iter().zip(sweep) {
            // The strides experiment appends the storage budget to the legacy label.
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
        let (fig8, a) = resolve_alone(&cached, &specs, "fig8", uops);
        let (_, b) = resolve_alone(&streaming, &specs, "fig8", uops);
        assert_eq!(a, b);
        assert_eq!(a.groups(&fig8), b.groups(&fig8));
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

        let run = |name| resolve_alone(&set, &specs, name, uops);
        bebop::par::set_threads(1);
        let (fig5b, serial) = run("fig5b");
        let (_, serial_t2) = run("table2");
        // Force real worker threads even on a single-core machine, so the
        // parallel path is exercised everywhere this test runs.
        bebop::par::set_threads(4);
        let (_, parallel) = run("fig5b");
        let (_, parallel_t2) = run("table2");
        bebop::par::set_threads(0);

        assert_eq!(
            serial.groups(&fig5b),
            parallel.groups(&fig5b),
            "SimStats must match bit-for-bit"
        );
        assert_eq!(serial_t2, parallel_t2);
    }
}
