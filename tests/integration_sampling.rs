//! Statistical differential harness for SimPoint-style phase sampling.
//!
//! The sampler (`bebop_bench::sampling`) is a *lossy estimator*: it simulates
//! a handful of representative slices and extrapolates whole-run metrics from
//! phase weights. That is only trustworthy if (a) the estimate lands inside
//! the error bound the reporter itself declares, for every predictor kind,
//! and (b) the whole pipeline — BBV profiling, k-means clustering, functional
//! warming, weighted combination — is exactly deterministic, so a sampled
//! figure in a paper or a perf report can be reproduced bit-for-bit.
//!
//! The tests here check both properties differentially against full-run
//! goldens produced by the ordinary driver, at the same µ-op budgets the
//! `figures` front end uses.

use std::sync::Mutex;

use bebop::{configs, par, run_source, PipelineConfig, PredictorKind, TraceBuffer, UopSource};
use bebop_bench::sampling::{
    cluster_slices, run_sampled_with, workload_seed, SampledOutcome, SamplingConfig,
};
use bebop_bench::{workloads, TraceCachePolicy, TraceStore};
use bebop_trace::{profile_slices, spec_benchmark, WorkloadSpec};

/// `par::set_threads` is process-global; tests that change it must not
/// interleave with each other (the harness runs tests on multiple threads).
static THREADS_LOCK: Mutex<()> = Mutex::new(());

fn pipe() -> PipelineConfig {
    PipelineConfig::baseline_vp_6_60()
}

/// D-VTAGE on `Baseline_VP_6_60`, the configuration `figures --sample` reports.
fn sampled_dvtage(
    specs: &[WorkloadSpec],
    uops: u64,
    cfg: &SamplingConfig,
    store: Option<&TraceStore>,
) -> SampledOutcome {
    run_sampled_with(
        specs,
        uops,
        cfg,
        &pipe(),
        &PredictorKind::DVtage,
        &TraceCachePolicy::default(),
        store,
    )
}

/// The ISSUE acceptance check, verbatim: sampled D-VTAGE accuracy/coverage
/// (and IPC) within the declared confidence interval of the full-run golden
/// for **all** benchmark specs at 200 K µops, under both a serial and a
/// parallel fan-out — and the two fan-outs bit-identical to each other.
#[test]
fn dvtage_within_declared_bounds_on_every_benchmark_serial_and_par() {
    let _guard = THREADS_LOCK.lock().unwrap();
    let specs = workloads(false);
    let uops = 200_000;
    let cfg = SamplingConfig::for_budget(uops);
    let goldens = par::par_map(&specs, |s| {
        run_source(UopSource::Live(s), &pipe(), &PredictorKind::DVtage, uops)
    });

    par::set_threads(1);
    let serial = sampled_dvtage(&specs, uops, &cfg, None);
    par::set_threads(0);
    let parallel = sampled_dvtage(&specs, uops, &cfg, None);

    assert_eq!(
        serial.rows, parallel.rows,
        "serial and parallel sampled runs must be bit-identical"
    );
    assert_eq!(serial.simulated_uops, parallel.simulated_uops);
    assert!(
        serial.simulated_uops * 5 <= serial.full_uops,
        "sampling must simulate at most 1/5 of the full budget: {} vs {}",
        serial.simulated_uops,
        serial.full_uops
    );
    for (row, golden) in serial.rows.iter().zip(&goldens) {
        let violations = row.sampled.bound_violations(golden);
        assert!(
            violations.is_empty(),
            "{}: sampled estimate outside its declared bound: {violations:?}",
            row.name
        );
    }
}

/// Every `PredictorKind` — including the block-based BeBoP configuration —
/// must estimate within its declared bounds on the representative subset at
/// the 200 K µop budget. The bounds are calibrated constants, so a predictor
/// whose warm-up behaviour the sampler cannot capture fails here loudly
/// instead of silently reporting a wrong figure.
#[test]
fn every_predictor_kind_within_declared_bounds_on_the_subset() {
    let specs = workloads(true);
    let uops = 200_000;
    let cfg = SamplingConfig::for_budget(uops);
    let kinds: Vec<PredictorKind> = vec![
        PredictorKind::None,
        PredictorKind::Perfect,
        PredictorKind::LastValue,
        PredictorKind::Stride,
        PredictorKind::TwoDeltaStride,
        PredictorKind::Vtage,
        PredictorKind::VtageStrideHybrid,
        PredictorKind::DVtage,
        PredictorKind::BlockDVtage(configs::medium()),
    ];
    for kind in &kinds {
        let goldens = par::par_map(&specs, |s| {
            run_source(UopSource::Live(s), &pipe(), kind, uops)
        });
        let out = run_sampled_with(
            &specs,
            uops,
            &cfg,
            &pipe(),
            kind,
            &TraceCachePolicy::default(),
            None,
        );
        assert!(out.simulated_uops * 5 <= out.full_uops);
        for (row, golden) in out.rows.iter().zip(&goldens) {
            let violations = row.sampled.bound_violations(golden);
            assert!(
                violations.is_empty(),
                "{kind:?} on {}: {violations:?}",
                row.name
            );
        }
    }
}

/// Phases, weights, and per-phase `SimStats` must be bit-identical whether
/// the slice population fans out over 1, 2, or 8 worker threads (and the
/// auto default). One test covers all counts so the comparisons cannot race
/// on the global thread override.
#[test]
fn phase_tables_weights_and_stats_bit_identical_across_thread_counts() {
    let _guard = THREADS_LOCK.lock().unwrap();
    let specs = workloads(true);
    let uops = 50_000;
    let cfg = SamplingConfig::for_budget(uops);
    let mut outcomes = Vec::new();
    for threads in [1usize, 2, 8, 0] {
        par::set_threads(threads);
        outcomes.push((threads, sampled_dvtage(&specs, uops, &cfg, None)));
    }
    par::set_threads(0);
    let (_, reference) = &outcomes[0];
    for (threads, out) in &outcomes[1..] {
        assert_eq!(
            reference.rows, out.rows,
            "rows diverged at --threads {threads}"
        );
        assert_eq!(reference.simulated_uops, out.simulated_uops);
        assert_eq!(reference.full_uops, out.full_uops);
    }
    // The rows really carry phase structure worth comparing.
    for row in &reference.rows {
        assert!(row.phases >= 1);
        assert_eq!(row.weights.len(), row.phases);
        assert_eq!(row.per_phase.len(), row.phases);
        assert!((row.weights.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}

/// A re-run that replays traces out of the persistent store must reproduce
/// the from-scratch run bit-for-bit: same phase tables, same weights, same
/// sampled statistics — the store is a cache, never an input.
#[test]
fn rerun_from_the_trace_store_is_bit_identical() {
    let dir = std::env::temp_dir().join(format!("bebop-sampling-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = TraceStore::open(&dir).expect("open trace store");
    let specs = workloads(true);
    let uops = 30_000;
    let cfg = SamplingConfig::for_budget(uops);

    let n = specs.len() as u64;
    let cold = sampled_dvtage(&specs, uops, &cfg, Some(&store));
    assert_eq!((store.hits(), store.misses()), (0, n));
    assert_eq!(store.generated_uops(), cold.generated_uops);

    let warm = sampled_dvtage(&specs, uops, &cfg, Some(&store));
    assert_eq!((store.hits(), store.misses()), (n, n));
    assert_eq!(warm.generated_uops, 0);

    assert_eq!(cold.rows, warm.rows);
    assert_eq!(cold.simulated_uops, warm.simulated_uops);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `warm_uops` charges each representative the committed µ-ops of the prefix
/// it warms functionally before its detailed warm-up: the sum must equal a
/// recount over the recording, representative by representative, and be
/// non-zero once a benchmark has phases past its first slice.
#[test]
fn warm_uops_sum_the_functionally_warmed_prefix_of_every_representative() {
    let specs = vec![spec_benchmark("403.gcc"), spec_benchmark("171.swim")];
    let uops = 20_000;
    let cfg = SamplingConfig::for_budget(uops);
    let out = sampled_dvtage(&specs, uops, &cfg, None);

    let mut recount = 0u64;
    for spec in &specs {
        let buf = TraceBuffer::record(spec, uops);
        let slices = profile_slices(&buf, cfg.slice_uops);
        let clustering = cluster_slices(&slices, cfg.max_phases, workload_seed(spec));
        for phase in &clustering.phases {
            let rep = &slices[phase.representative];
            let (warm_start, _) = buf.warmup_start(rep.start, cfg.warmup_uops);
            recount += buf
                .replay()
                .take(warm_start)
                .filter(|u| !u.wrong_path)
                .count() as u64;
        }
    }
    assert!(
        out.rows.iter().any(|r| r.phases > 1),
        "the population must include a multi-phase benchmark"
    );
    assert!(out.warm_uops > 0, "multi-phase benchmarks warm a prefix");
    assert_eq!(out.warm_uops, recount);
}

/// Two invocations of the `figures` binary in `--sample` mode must agree on
/// every output byte apart from wall-clock timings: the human-readable table
/// (filtered exactly like CI filters it) and the JSON report with its timing
/// fields dropped.
#[test]
fn figures_sample_output_is_byte_identical_across_runs() {
    let tmp = std::env::temp_dir().join(format!("bebop-sampling-json-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).expect("create tmp dir");

    let run = |tag: &str| -> (String, String) {
        let json = tmp.join(format!("{tag}.json"));
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_figures"))
            .args([
                "--sample",
                "--subset",
                "--uops",
                "20000",
                "--json",
                json.to_str().expect("utf-8 tmp path"),
            ])
            .output()
            .expect("run figures --sample");
        assert!(
            out.status.success(),
            "figures --sample failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        // Drop the banner/timing lines, exactly as the CI determinism jobs do
        // (`grep -vE '^(BeBoP|Trace)'`), and the timing fields of the JSON.
        let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
        let body: String = stdout
            .lines()
            .filter(|l| !l.starts_with("BeBoP") && !l.starts_with("Trace"))
            .collect::<Vec<_>>()
            .join("\n");
        let report = std::fs::read_to_string(&json).expect("json written");
        let stable: String = report
            .lines()
            .filter(|l| !l.contains("wall_s") && !l.contains("uops_per_sec"))
            .collect::<Vec<_>>()
            .join("\n");
        (body, stable)
    };

    let (body_a, json_a) = run("a");
    let (body_b, json_b) = run("b");
    assert_eq!(body_a, body_b, "sample table must be byte-identical");
    assert_eq!(json_a, json_b, "sample JSON must be byte-identical");
    assert!(json_a.contains("\"sampled_slices\""));
    assert!(json_a.contains("\"sampled_phases\""));
    assert!(json_a.contains("\"sampled_warm_uops\""));
    assert!(
        body_a.contains("declared error bound"),
        "sample output must declare its error bound:\n{body_a}"
    );
    let _ = std::fs::remove_dir_all(&tmp);
}
