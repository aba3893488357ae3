//! The external surface of the workspace, pinned.
//!
//! `perfbench/` is a separate workspace that links `bebop`, `bebop-bench`,
//! `bebop-trace` and `bebop-uarch` as libraries, so a changed signature there
//! breaks only its own build, which `cargo test` never compiles. The first
//! test coerces every item it calls to its exact signature, turning such a
//! break into a compile error here. The others pin the exit-status contract
//! of the `perf_gate` and `figures` binaries that CI drives.

use bebop::{
    run_fingerprint, run_slice, run_source, run_source_resumable, AnyPredictor, PipelineConfig,
    PredictorKind, RangeError, ResumableRun, ResumeOptions, SimStats, TraceBuffer, TraceStore,
    UopSource, UopStream, WorkloadSpec,
};
use bebop_bench::sampling::{
    cluster_slices, combine_weighted, run_sampled_with, workload_seed, PhaseClustering,
    SampledMetrics, SampledOutcome, SamplingConfig,
};
use bebop_bench::sweep::{run_sweep_jobs, SweepOptions, SweepReport, SweepRequest};
use bebop_bench::{perf_json, TraceCachePolicy};
use bebop_trace::{profile_slices, SliceBbv, TraceCursor};
use bebop_uarch::Pipeline;
use std::path::Path;
use std::process::Command;

/// Compiles only while every item keeps the signature perfbench was built
/// against; running it checks nothing further.
#[allow(clippy::type_complexity)]
fn perfbench_signatures() {
    let _: fn(UopSource<'static>, &PipelineConfig, &PredictorKind, u64) -> SimStats = run_source;
    let _: fn(
        &TraceBuffer,
        &PipelineConfig,
        &PredictorKind,
        usize,
        usize,
        u64,
    ) -> Result<SimStats, RangeError> = run_slice;
    let _: fn(
        UopSource<'static>,
        &PipelineConfig,
        &PredictorKind,
        u64,
        ResumeOptions<'static>,
    ) -> ResumableRun = run_source_resumable;
    let _: fn(&UopSource<'static>, &PipelineConfig, &PredictorKind, u64) -> u64 = run_fingerprint;
    let _: fn(&'static TraceBuffer) -> UopSource<'static> = UopSource::Replay;
    let _: fn(&UopSource<'static>) -> UopStream<'static> = UopSource::stream;
    let _: fn(&PredictorKind) -> AnyPredictor = PredictorKind::build;

    let _: fn() -> TraceCachePolicy = TraceCachePolicy::default;
    let _: fn(
        &[WorkloadSpec],
        u64,
        &SamplingConfig,
        &PipelineConfig,
        &PredictorKind,
        &TraceCachePolicy,
        Option<&TraceStore>,
    ) -> SampledOutcome = run_sampled_with;
    let _: fn(&[SliceBbv], usize, u64) -> PhaseClustering = cluster_slices;
    let _: fn(&WorkloadSpec) -> u64 = workload_seed;
    let _: fn(&[(SimStats, f64)]) -> SampledMetrics = combine_weighted;
    let _: fn(&TraceBuffer, u64) -> Vec<SliceBbv> = profile_slices;
    let _: fn(
        &SweepRequest,
        &Path,
        Option<&TraceStore>,
        &SweepOptions,
    ) -> std::io::Result<SweepReport> = run_sweep_jobs;

    let _: fn(&'static TraceBuffer, usize, usize) -> Result<TraceCursor<'static>, RangeError> =
        TraceBuffer::replay_range;
    let _: fn(&TraceBuffer, usize, u64) -> (usize, u64) = TraceBuffer::warmup_start;
    let _: fn(PipelineConfig) -> Pipeline = Pipeline::new;
    let _: fn(&mut Pipeline, &mut UopStream<'static>, &mut AnyPredictor, u64, &mut u64) =
        Pipeline::run_segment;
    let _: fn(&mut Pipeline, &mut TraceCursor<'static>, &mut AnyPredictor, u64, &mut u64) =
        Pipeline::run_segment;
    let _: fn(&mut Pipeline, &mut TraceCursor<'static>, &mut AnyPredictor, u64, &mut u64) -> u64 =
        Pipeline::warm_functional;
    let _: fn(&Pipeline) -> SimStats = Pipeline::stats_snapshot;
    let _: fn(&Pipeline) -> u64 = Pipeline::committed_uops;
    let _: fn(&Pipeline) -> Vec<u8> = Pipeline::save_state;
    let _: fn(Pipeline, &mut AnyPredictor) -> SimStats = Pipeline::finish;
    let _: fn(&SimStats, &SimStats) -> SimStats = SimStats::delta_since;
}

#[test]
fn perfbench_api_signatures_are_pinned() {
    perfbench_signatures();
}

/// `perf_gate` promises exit 2 on unusable input: a tolerance that does not
/// parse, or is negative or NaN, is a usage error, not a panic (101) and not
/// a gate that runs with a nonsensical threshold.
#[test]
fn perf_gate_rejects_malformed_tolerances_with_exit_2() {
    // A well-formed report, so only the tolerance can make the input unusable.
    let timing = perf_json::Timing {
        name: "fig5b",
        wall_s: 1.0,
        uops: 1_000,
    };
    let report = std::env::temp_dir().join(format!("bebop-perf-gate-{}.json", std::process::id()));
    std::fs::write(&report, perf_json::render(1, 1_000, 1, &[], &[timing])).expect("write report");
    let report = report.to_str().expect("utf-8 temp path");
    let gate = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_perf_gate"))
            .args([report, report])
            .args(args)
            .output()
            .expect("run perf_gate")
    };
    assert_eq!(gate(&["--max-regression", "0.2"]).status.code(), Some(0));
    for flag in ["--max-regression", "--per-experiment"] {
        for value in ["abc", "-0.1", "NaN"] {
            let out = gate(&[flag, value]);
            assert_eq!(
                out.status.code(),
                Some(2),
                "{flag} {value}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains(flag), "{flag} {value}: {stderr}");
        }
    }
    let _ = std::fs::remove_file(report);
}

/// `figures` promises exit 2 on unusable flags: a value that does not parse,
/// a zero budget, phase count, sweep cell count or cell timeout, or an unknown
/// experiment is a usage error that names the flag, not a panic (101) and not
/// a run that prints zeros.
#[test]
fn figures_rejects_unusable_flags_with_exit_2() {
    // Never created: the flags are rejected before the sweep opens it.
    let dir = std::env::temp_dir().join(format!("bebop-flags-{}", std::process::id()));
    let dir = dir.to_str().expect("utf-8 temp path");
    let cases: [(&[&str], &str); 5] = [
        (&["--sample", "--subset", "--uops", "0"], "--uops"),
        (&["--fig5b", "--subset", "--uops", "abc"], "--uops"),
        (
            &["--sample", "--subset", "--sample-phases", "0"],
            "--sample-phases",
        ),
        (&["--fig9"], "fig9"),
        (
            &["--sweep", dir, "--subset", "--sweep-cells", "0"],
            "--sweep-cells",
        ),
    ];
    for (args, flag) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(args)
            .output()
            .expect("run figures");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
    }
    assert!(!Path::new(dir).exists(), "a rejected sweep must not start");
}
