//! End-to-end integration tests: workloads → pipeline → predictors, spanning every
//! crate of the workspace.

use bebop::{configs, run_source, PredictorKind, UopSource};
use bebop_trace::{spec_benchmark, WorkloadSpec};
use bebop_uarch::PipelineConfig;

// Long enough for forward-probabilistic confidence (~130 correct predictions per
// entry) to saturate, so realistic predictors are out of their warm-up phase.
const UOPS: u64 = 120_000;

#[test]
fn simulations_are_deterministic_end_to_end() {
    let spec = spec_benchmark("171.swim");
    let cfg = PipelineConfig::eole_4_60();
    let kind = PredictorKind::BlockDVtage(configs::medium());
    let a = run_source(UopSource::Live(&spec), &cfg, &kind, UOPS);
    let b = run_source(UopSource::Live(&spec), &cfg, &kind, UOPS);
    assert_eq!(a, b);
}

#[test]
fn value_prediction_with_real_predictors_never_collapses_performance() {
    // Confidence gating (FPC) must keep accuracy high enough that value prediction
    // does not slow the machine down appreciably on any class of workload.
    for name in ["171.swim", "429.mcf", "186.crafty", "403.gcc"] {
        let spec = spec_benchmark(name);
        let base = run_source(
            UopSource::Live(&spec),
            &PipelineConfig::baseline_6_60(),
            &PredictorKind::None,
            UOPS,
        );
        let vp = run_source(
            UopSource::Live(&spec),
            &PipelineConfig::baseline_vp_6_60(),
            &PredictorKind::DVtage,
            UOPS,
        );
        let speedup = vp.speedup_over(&base);
        assert!(
            speedup > 0.93,
            "{name}: D-VTAGE slowed the pipeline to {speedup:.3}"
        );
        assert!(
            vp.vp.accuracy() > 0.98 || vp.vp.predicted < 100,
            "{name}: accuracy {:.4} too low",
            vp.vp.accuracy()
        );
    }
}

#[test]
fn strided_fp_workload_gains_from_bebop_dvtage() {
    let spec = spec_benchmark("171.swim");
    let base = run_source(
        UopSource::Live(&spec),
        &PipelineConfig::baseline_6_60(),
        &PredictorKind::None,
        UOPS,
    );
    let bebop = run_source(
        UopSource::Live(&spec),
        &PipelineConfig::eole_4_60(),
        &PredictorKind::BlockDVtage(configs::medium()),
        UOPS,
    );
    assert!(
        bebop.speedup_over(&base) > 1.03,
        "swim-like workload should gain from BeBoP D-VTAGE, got {:.3}",
        bebop.speedup_over(&base)
    );
    assert!(bebop.vp.coverage() > 0.05);
}

#[test]
fn unpredictable_branchy_workload_neither_gains_nor_loses_much() {
    let spec = spec_benchmark("186.crafty");
    let base = run_source(
        UopSource::Live(&spec),
        &PipelineConfig::baseline_6_60(),
        &PredictorKind::None,
        UOPS,
    );
    let bebop = run_source(
        UopSource::Live(&spec),
        &PipelineConfig::eole_4_60(),
        &PredictorKind::BlockDVtage(configs::medium()),
        UOPS,
    );
    let s = bebop.speedup_over(&base);
    assert!(
        (0.9..1.3).contains(&s),
        "low-predictability workload should be near 1.0, got {s:.3}"
    );
}

#[test]
fn eole_4_60_tracks_baseline_vp_6_60() {
    // The Figure 5b result: reducing the issue width from 6 to 4 under EOLE loses
    // very little once value prediction is in place.
    let mut slowdowns = Vec::new();
    for name in ["171.swim", "403.gcc", "401.bzip2"] {
        let spec = spec_benchmark(name);
        let base_vp = run_source(
            UopSource::Live(&spec),
            &PipelineConfig::baseline_vp_6_60(),
            &PredictorKind::DVtage,
            UOPS,
        );
        let eole = run_source(
            UopSource::Live(&spec),
            &PipelineConfig::eole_4_60(),
            &PredictorKind::DVtage,
            UOPS,
        );
        slowdowns.push(eole.speedup_over(&base_vp));
    }
    let gmean = bebop_uarch::gmean(&slowdowns);
    assert!(
        gmean > 0.9,
        "EOLE_4_60 should be within ~10% of Baseline_VP_6_60 on average, got {gmean:.3}"
    );
}

#[test]
fn spec_window_sizes_are_ordered_on_a_tight_strided_loop() {
    // Figure 7b's shape: no window < small window <= large window, on a workload
    // dominated by tight strided loops.
    let spec = WorkloadSpec::named_demo("fig7b-shape");
    let pipe = PipelineConfig::eole_4_60();
    let run_with_window = |size: bebop::SpecWindowSize| {
        let cfg = bebop::BlockDVtageConfig {
            spec_window: size,
            ..configs::optimistic_6p()
        };
        run_source(
            UopSource::Live(&spec),
            &pipe,
            &PredictorKind::BlockDVtage(cfg),
            UOPS,
        )
    };
    let none = run_with_window(bebop::SpecWindowSize::Disabled);
    let small = run_with_window(bebop::SpecWindowSize::Entries(32));
    let inf = run_with_window(bebop::SpecWindowSize::Unbounded);
    assert!(
        none.vp.coverage() <= small.vp.coverage() + 0.02,
        "no window should not beat a 32-entry window ({:.3} vs {:.3})",
        none.vp.coverage(),
        small.vp.coverage()
    );
    assert!(
        small.cycles as f64 <= none.cycles as f64 * 1.02,
        "a 32-entry window should not be slower than no window"
    );
    assert!(inf.cycles <= none.cycles);
}

#[test]
fn all_36_benchmarks_run_under_the_headline_configuration() {
    for spec in bebop_trace::all_spec_benchmarks() {
        let stats = run_source(
            UopSource::Live(&spec),
            &PipelineConfig::eole_4_60(),
            &PredictorKind::BlockDVtage(configs::medium()),
            5_000,
        );
        assert_eq!(stats.uops, 5_000, "{} did not complete", spec.name);
        assert!(stats.uop_ipc() > 0.0 && stats.uop_ipc() <= 8.0);
    }
}
