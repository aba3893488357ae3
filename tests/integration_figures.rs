//! Integration tests asserting the *shape* of the paper's headline results on a
//! reduced scale: who wins, roughly by how much, and where the crossovers are.

use bebop::{
    configs, par, run_source, BenchResult, PredictorKind, SpeedupSummary, UopSource, WorkloadSpec,
};
use bebop_trace::{benchmark_class, spec_benchmark, BenchClass};
use bebop_uarch::PipelineConfig;

// Long enough for the forward-probabilistic confidence counters (~130 correct
// predictions to saturate) to leave their warm-up phase.
const UOPS: u64 = 120_000;

/// A representative slice of Table II: two of each gain class.
fn slice() -> Vec<WorkloadSpec> {
    [
        "171.swim",
        "173.applu",
        "401.bzip2",
        "403.gcc",
        "429.mcf",
        "186.crafty",
    ]
    .iter()
    .map(|n| spec_benchmark(n))
    .collect()
}

/// Every workload under both configurations, generated live and fanned out
/// across cores.
fn compare(
    specs: &[WorkloadSpec],
    baseline_pipeline: &PipelineConfig,
    baseline_predictor: &PredictorKind,
    variant_pipeline: &PipelineConfig,
    variant_predictor: &PredictorKind,
    max_uops: u64,
) -> Vec<BenchResult> {
    par::par_map(specs, |spec| BenchResult {
        name: spec.name.clone(),
        baseline: run_source(
            UopSource::Live(spec),
            baseline_pipeline,
            baseline_predictor,
            max_uops,
        ),
        variant: run_source(
            UopSource::Live(spec),
            variant_pipeline,
            variant_predictor,
            max_uops,
        ),
    })
}

#[test]
fn figure8_shape_final_configs_beat_the_baseline_on_average() {
    let specs = slice();
    let results = compare(
        &specs,
        &PipelineConfig::baseline_6_60(),
        &PredictorKind::None,
        &PipelineConfig::eole_4_60(),
        &PredictorKind::BlockDVtage(configs::medium()),
        UOPS,
    );
    let summary = SpeedupSummary::from_results(&results);
    // Paper: ~1.11 gmean over all 36, with up to ~1.6 peaks; on this slice the
    // gmean must clearly exceed 1 and the best benchmark must gain substantially.
    assert!(
        summary.gmean() > 1.05,
        "Medium + EOLE_4_60 should beat Baseline_6_60 on average, got {:.3}",
        summary.gmean()
    );
    assert!(
        summary.max() > 1.2,
        "at least one benchmark should gain substantially, got max {:.3}",
        summary.max()
    );
}

#[test]
fn figure8_shape_high_gain_class_outperforms_low_gain_class() {
    let specs = slice();
    let results = compare(
        &specs,
        &PipelineConfig::baseline_6_60(),
        &PredictorKind::None,
        &PipelineConfig::eole_4_60(),
        &PredictorKind::BlockDVtage(configs::medium()),
        UOPS,
    );
    let mut high = Vec::new();
    let mut low = Vec::new();
    for r in &results {
        match benchmark_class(&r.name) {
            BenchClass::HighVpGain => high.push(r.speedup()),
            BenchClass::LowVpGain => low.push(r.speedup()),
            BenchClass::ModerateVpGain => {}
        }
    }
    let high_g = bebop_uarch::gmean(&high);
    let low_g = bebop_uarch::gmean(&low);
    assert!(
        high_g > low_g,
        "high-VP-gain benchmarks ({high_g:.3}) must gain more than low-gain ones ({low_g:.3})"
    );
}

#[test]
fn figure5a_shape_dvtage_is_at_least_as_good_as_2d_stride_on_average() {
    let specs = slice();
    let base = PipelineConfig::baseline_6_60();
    let vp = PipelineConfig::baseline_vp_6_60();
    let stride = SpeedupSummary::from_results(&compare(
        &specs,
        &base,
        &PredictorKind::None,
        &vp,
        &PredictorKind::TwoDeltaStride,
        UOPS,
    ));
    let dvtage = SpeedupSummary::from_results(&compare(
        &specs,
        &base,
        &PredictorKind::None,
        &vp,
        &PredictorKind::DVtage,
        UOPS,
    ));
    // The paper reports D-VTAGE on par with or better than 2d-Stride; on this
    // reduced slice and µ-op budget allow a small tolerance for warm-up noise.
    assert!(
        dvtage.gmean() >= stride.gmean() - 0.08,
        "D-VTAGE ({:.3}) should not lose to 2d-Stride ({:.3})",
        dvtage.gmean(),
        stride.gmean()
    );
}

#[test]
fn figure5a_shape_no_predictor_causes_a_large_slowdown() {
    // "First, no slowdown is observed with D-VTAGE" — D-VTAGE must stay close to or
    // above 1.0 on every benchmark of the slice; the simpler predictors are allowed
    // slightly more noise but must not collapse either.
    let specs = slice();
    for (kind, floor) in [
        (PredictorKind::TwoDeltaStride, 0.85),
        (PredictorKind::Vtage, 0.85),
        (PredictorKind::DVtage, 0.93),
    ] {
        let results = compare(
            &specs,
            &PipelineConfig::baseline_6_60(),
            &PredictorKind::None,
            &PipelineConfig::baseline_vp_6_60(),
            &kind,
            UOPS,
        );
        let summary = SpeedupSummary::from_results(&results);
        assert!(
            summary.min() > floor,
            "{} caused a large slowdown: min {:.3}",
            kind.label(),
            summary.min()
        );
    }
}

#[test]
fn figure7a_shape_recovery_policies_are_close_to_each_other() {
    // Paper: "the differences between the realistic policies are marginal".
    let specs = vec![spec_benchmark("401.bzip2"), spec_benchmark("173.applu")];
    let eole = PipelineConfig::eole_4_60();
    let mut gmeans = Vec::new();
    for (_, cfg) in configs::fig7a_sweep() {
        let results = compare(
            &specs,
            &eole,
            &PredictorKind::DVtage,
            &eole,
            &PredictorKind::BlockDVtage(cfg),
            UOPS,
        );
        gmeans.push(SpeedupSummary::from_results(&results).gmean());
    }
    let max = gmeans.iter().cloned().fold(f64::MIN, f64::max);
    let min = gmeans.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        max - min < 0.12,
        "recovery policies should be within a few percent of each other: {gmeans:?}"
    );
}

#[test]
fn table3_storage_and_ordering() {
    let rows: Vec<(String, f64)> = configs::table3_configs()
        .into_iter()
        .map(|(n, c)| (n.to_string(), c.storage_kb()))
        .collect();
    // Small < Medium < Large, and Medium is the ~32 KB headline budget.
    assert!(rows[0].1 < rows[2].1 && rows[1].1 < rows[2].1 && rows[2].1 < rows[3].1);
    assert!((28.0..38.0).contains(&rows[2].1));
}
