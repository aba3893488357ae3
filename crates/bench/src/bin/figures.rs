//! Regenerates every table and figure of the BeBoP paper's evaluation section.
//!
//! ```text
//! cargo run -p bebop-bench --release --bin figures -- --all
//! cargo run -p bebop-bench --release --bin figures -- --fig8 --uops 1000000
//! cargo run -p bebop-bench --release --bin figures -- --all --json BENCH_figures.json
//! cargo run -p bebop-bench --release --bin figures -- --all --trace-dir .trace-store
//! cargo run -p bebop-bench --release --bin figures -- --wrong-path --subset
//! cargo run -p bebop-bench --release --bin figures -- --mix --subset
//! cargo run -p bebop-bench --release --bin figures -- --sample --subset
//! cargo run -p bebop-bench --release --bin figures -- --sweep .sweep --subset
//! cargo run -p bebop-bench --release --bin figures -- --sweep .sweep --resume --subset
//! ```
//!
//! Each experiment prints the series the paper reports: per-benchmark speedups and
//! the `[min, max]` box plus geometric mean.
//!
//! Every workload's µ-op stream is recorded into a shared trace buffer once up
//! front (~6–7 MiB per 200K-µop trace; `--no-trace-cache` streams
//! everything), and every (config, workload) simulation replays the shared
//! recording — so a config sweep pays trace generation once, not once per
//! configuration. The simulating experiments are the `SweepRequest`s of
//! `bebop_bench::experiments`, resolved in print order through one
//! `JobTable`: a (workload, pipeline, predictor) cell an earlier experiment
//! simulated is reused, so `--all` simulates each distinct cell once (the
//! `--json` report counts the reused cells as `figures_jobs_reused`).
//!
//! With `--trace-dir <path>` the recordings are additionally persisted to a
//! versioned, checksummed on-disk store, so a *second* invocation (or a CI job
//! restoring the directory from a cache) loads every trace from disk and
//! generates zero µ-ops; `--trace-dir-mb` bounds the directory with an LRU
//! eviction sweep. The `Trace store:` line prints last, once every mode has
//! used the store: hits, misses and the recordings no save could persist
//! (`; N unsaved`, each also logged on stderr when it happened). Simulations are fanned out across all cores by default;
//! `--serial` forces one thread (the figure output is bit-identical either
//! way), and `--json <path>` writes per-experiment
//! wall-clock and µops/sec so perf regressions are visible across commits (the
//! `perf_gate` binary turns that diff into a CI failure).
//!
//! `--wrong-path` runs the (opt-in, never part of `--all`) wrong-path
//! pollution experiment, `bebop_bench::wrong_path_request` resolved through a
//! job table of its own: every workload is re-traced with wrong-path bursts
//! and simulated under the three wrong-path policies — disabled, clean
//! (probe-only) and polluted (speculative predictor updates) — reporting
//! per-benchmark predictor accuracy under pollution plus the wrong-path
//! fetch/execute/train counters, which also land in the `--json` report.
//!
//! `--mix` runs the (equally opt-in) multi-programmed shared-predictor
//! experiment: consecutive workloads are paired and interleaved round-robin
//! by fetch quantum into one ASID-tagged trace, and the identical trace is
//! simulated under the shared, partitioned and tagged sharing policies of a
//! sharded BeBoP D-VTAGE — reporting per-context accuracy/coverage, the IPC
//! delta of each policy against fully shared storage, context-switch counts
//! and cross-context predictor-entry steals (also landed in the `--json`
//! report as `mix_context_switches` / `mix_shard_steals`).
//!
//! `--sample` runs the (opt-in) SimPoint-style phase-sampling experiment:
//! every workload's recording is partitioned into fixed-length slices
//! summarised as basic-block vectors, a deterministic k-means clusters the
//! slices into phases, and only one representative slice per phase is
//! simulated (with a warm-up prefix), reporting weighted accuracy/coverage/
//! IPC with per-benchmark confidence intervals. `--sample-slice-uops`,
//! `--sample-phases` and `--sample-warmup` override the default geometry;
//! the slice/phase/µ-op totals land in the `--json` report as `sampled_*`.
//!
//! `--sweep <dir>` runs the crash-safe resumable predictor-geometry sweep
//! (see `bebop_bench::sweep`): the grid expands into content-addressed jobs,
//! every completed cell is journaled incrementally into `<dir>`, and a killed
//! run continues with `--resume` re-simulating only in-flight cells. The
//! `--fault-*` flags attach a deterministic fault-injection plan (store I/O
//! errors, short reads, corruption, per-job panics) for robustness testing;
//! sweep cell counts land in the `--json` report as `sweep_cells_*`.

#![forbid(unsafe_code)]

use bebop::{SimStats, SpeedupSummary};
use bebop_bench::perf_json::Timing;
use bebop_bench::sweep::{run_sweep_jobs, SweepOptions, SweepRequest};
use bebop_bench::*;
use bebop_uarch::VpStats;
use std::time::Instant;

struct Options {
    uops: u64,
    subset: bool,
    which: Vec<String>,
    json: Option<String>,
    threads: usize,
    trace_cache: TraceCachePolicy,
    trace_dir: Option<String>,
    trace_dir_mb: Option<u64>,
    sample_slice_uops: Option<u64>,
    sample_phases: Option<usize>,
    sample_warmup: Option<u64>,
    sweep_dir: Option<String>,
    resume: bool,
    sweep_cells: Option<usize>,
    cell_timeout_ms: Option<u64>,
    checkpoint_every: u64,
    fault_seed: Option<u64>,
    fault_read: u64,
    fault_write: u64,
    fault_short: u64,
    fault_corrupt: u64,
    fault_panic_jobs: Vec<u64>,
    fault_stall_jobs: Vec<u64>,
}

/// Exits with a usage error (a bad flag is the caller's mistake, not a crash).
fn fail(msg: &str) -> ! {
    eprintln!("[figures] {msg}");
    std::process::exit(2);
}

/// The next argument of `flag`, parsed; exits with a clear message otherwise.
fn arg_value<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> T {
    match args.next().map(|v| v.parse::<T>()) {
        Some(Ok(v)) => v,
        _ => fail(&format!("{flag} needs {what}")),
    }
}

fn parse_args() -> Options {
    let mut opts = Options {
        uops: DEFAULT_UOPS,
        subset: false,
        which: Vec::new(),
        json: None,
        threads: 0,
        trace_cache: TraceCachePolicy::default(),
        trace_dir: None,
        trace_dir_mb: None,
        sample_slice_uops: None,
        sample_phases: None,
        sample_warmup: None,
        sweep_dir: None,
        resume: false,
        sweep_cells: None,
        cell_timeout_ms: None,
        checkpoint_every: 0,
        fault_seed: None,
        fault_read: 0,
        fault_write: 0,
        fault_short: 0,
        fault_corrupt: 0,
        fault_panic_jobs: Vec::new(),
        fault_stall_jobs: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--uops" => opts.uops = arg_value(&mut args, "--uops", "a number"),
            "--json" => opts.json = Some(arg_value(&mut args, "--json", "a path")),
            "--threads" => opts.threads = arg_value(&mut args, "--threads", "a number"),
            "--serial" => opts.threads = 1,
            "--subset" => opts.subset = true,
            "--no-trace-cache" => opts.trace_cache = TraceCachePolicy::disabled(),
            "--trace-dir" => opts.trace_dir = Some(arg_value(&mut args, "--trace-dir", "a path")),
            "--trace-dir-mb" => {
                opts.trace_dir_mb = Some(arg_value(&mut args, "--trace-dir-mb", "a number of MiB"));
            }
            "--sweep" => opts.sweep_dir = Some(arg_value(&mut args, "--sweep", "a directory")),
            "--resume" => opts.resume = true,
            "--sweep-cells" => {
                opts.sweep_cells = Some(arg_value(&mut args, "--sweep-cells", "a cell count"));
            }
            "--cell-timeout" => {
                opts.cell_timeout_ms = Some(arg_value(
                    &mut args,
                    "--cell-timeout",
                    "a budget in milliseconds",
                ));
            }
            "--checkpoint-every" => {
                opts.checkpoint_every = arg_value(
                    &mut args,
                    "--checkpoint-every",
                    "an interval in committed µ-ops",
                );
            }
            "--fault-seed" => {
                opts.fault_seed = Some(arg_value(&mut args, "--fault-seed", "a seed"));
            }
            "--fault-read-1in" => {
                opts.fault_read = arg_value(&mut args, "--fault-read-1in", "a rate denominator");
            }
            "--fault-write-1in" => {
                opts.fault_write = arg_value(&mut args, "--fault-write-1in", "a rate denominator");
            }
            "--fault-short-read-1in" => {
                opts.fault_short =
                    arg_value(&mut args, "--fault-short-read-1in", "a rate denominator");
            }
            "--fault-corrupt-1in" => {
                opts.fault_corrupt =
                    arg_value(&mut args, "--fault-corrupt-1in", "a rate denominator");
            }
            "--fault-panic-job" => {
                opts.fault_panic_jobs.push(arg_value(
                    &mut args,
                    "--fault-panic-job",
                    "a job index",
                ));
            }
            "--fault-stall-job" => {
                opts.fault_stall_jobs.push(arg_value(
                    &mut args,
                    "--fault-stall-job",
                    "a job index",
                ));
            }
            "--sample-slice-uops" => {
                opts.sample_slice_uops = Some(arg_value(
                    &mut args,
                    "--sample-slice-uops",
                    "a slice length in committed µ-ops",
                ));
            }
            "--sample-phases" => {
                opts.sample_phases = Some(arg_value(&mut args, "--sample-phases", "a phase count"));
            }
            "--sample-warmup" => {
                opts.sample_warmup = Some(arg_value(
                    &mut args,
                    "--sample-warmup",
                    "a warm-up length in committed µ-ops",
                ));
            }
            "--all" => opts.which.push("all".to_string()),
            "--wrong-path" => opts.which.push("wrongpath".to_string()),
            "--mix" => opts.which.push("mix".to_string()),
            "--sample" => opts.which.push("sample".to_string()),
            other => opts.which.push(other.trim_start_matches("--").to_string()),
        }
    }
    // A bare `--sweep <dir>` invocation runs only the sweep; the classic
    // figure set still defaults to `--all` when nothing was selected.
    if opts.which.is_empty() && opts.sweep_dir.is_none() {
        opts.which.push("all".to_string());
    }
    const KNOWN: [&str; 15] = [
        "all",
        "table1",
        "table2",
        "table3",
        "fig5a",
        "fig5b",
        "fig6a",
        "fig6b",
        "strides",
        "fig7a",
        "fig7b",
        "fig8",
        "wrongpath",
        "mix",
        "sample",
    ];
    for w in &opts.which {
        if !KNOWN.contains(&w.as_str()) {
            fail(&format!(
                "unknown experiment '{w}' (known: {})",
                KNOWN.join(", ")
            ));
        }
    }
    if opts.trace_dir_mb.is_some() && opts.trace_dir.is_none() {
        fail("--trace-dir-mb bounds the on-disk store: it requires --trace-dir");
    }
    if opts.sweep_dir.is_none() {
        if opts.resume {
            fail("--resume continues a sweep directory: it requires --sweep <dir>");
        }
        if opts.sweep_cells.is_some() {
            fail("--sweep-cells bounds a sweep run: it requires --sweep <dir>");
        }
        if opts.cell_timeout_ms.is_some() {
            fail("--cell-timeout supervises sweep cells: it requires --sweep <dir>");
        }
        if opts.checkpoint_every != 0 {
            fail("--checkpoint-every snapshots sweep cells: it requires --sweep <dir>");
        }
    }
    let wants_sample = opts.which.iter().any(|w| w == "sample");
    if !wants_sample {
        if opts.sample_slice_uops.is_some() {
            fail("--sample-slice-uops tunes the sampling geometry: it requires --sample");
        }
        if opts.sample_phases.is_some() {
            fail("--sample-phases tunes the sampling geometry: it requires --sample");
        }
        if opts.sample_warmup.is_some() {
            fail("--sample-warmup tunes the sampling geometry: it requires --sample");
        }
    } else if !opts.trace_cache.enabled {
        // Slice replay needs a materialised recording to index into.
        fail("--sample replays slices of a recorded trace: it cannot run with --no-trace-cache");
    }
    if opts.uops == 0 {
        fail("--uops needs a non-zero µ-op budget");
    }
    if opts.sample_phases == Some(0) {
        fail("--sample-phases needs at least one phase");
    }
    if opts.sample_slice_uops == Some(0) {
        fail("--sample-slice-uops needs a non-zero slice length");
    }
    if opts.sweep_cells == Some(0) {
        fail("--sweep-cells needs at least one cell");
    }
    if opts.cell_timeout_ms == Some(0) {
        // A zero budget cancels any cell the watchdog's first scans catch
        // between two heartbeats, so quarantine would follow host scheduling.
        fail("--cell-timeout needs a non-zero budget in milliseconds");
    }
    if !opts.fault_stall_jobs.is_empty() && opts.cell_timeout_ms.is_none() {
        // A stalled cell only exits through the watchdog's cancellation; a
        // stall without a watchdog is a deliberate hang, not a test.
        fail("--fault-stall-job stalls a cell until the watchdog cancels it: it requires --cell-timeout");
    }
    let has_fault_flags = opts.fault_read != 0
        || opts.fault_write != 0
        || opts.fault_short != 0
        || opts.fault_corrupt != 0
        || !opts.fault_panic_jobs.is_empty()
        || !opts.fault_stall_jobs.is_empty();
    if has_fault_flags && opts.fault_seed.is_none() {
        // Panic-job injection is positional and needs no randomness, but one
        // explicit seed for the whole plan keeps every faulty run replayable.
        fail("fault injection is deterministic: the --fault-* flags require --fault-seed");
    }
    opts
}

fn wants(opts: &Options, name: &str) -> bool {
    // The wrong-path, mix and sampling experiments are opt-in only
    // (`--wrong-path` / `--mix` / `--sample`): they are not part of `--all`,
    // so the default figure set stays bit-identical to runs from before the
    // modes existed.
    if name == "wrongpath" || name == "mix" || name == "sample" {
        return opts.which.iter().any(|w| w == name);
    }
    opts.which.iter().any(|w| w == "all" || w == name)
}

/// Runs `f`, printing nothing itself; records wall-clock and the simulated µ-op
/// count `f` reports into the perf report.
fn timed(report: &mut Vec<Timing>, name: &'static str, f: impl FnOnce() -> u64) {
    let start = Instant::now();
    let uops = f();
    report.push(Timing {
        name,
        wall_s: start.elapsed().as_secs_f64(),
        uops,
    });
}

fn main() {
    // Ctrl-C / SIGTERM set a flag the simulation loops poll: in-flight cells
    // write a final checkpoint, the journal keeps every completed cell, and
    // the run exits cleanly for `--resume` to continue.
    bebop::install_shutdown_handler();
    let opts = parse_args();
    bebop::par::set_threads(opts.threads);
    let specs = workloads(opts.subset);
    let uops = opts.uops;
    let mut report: Vec<Timing> = Vec::new();
    // Informational counters for the perf report: each mode pushes its own
    // entries, so a mode that did not run writes none.
    let mut counters: Vec<(&'static str, u64)> = Vec::new();
    println!(
        "BeBoP figure harness: {} benchmarks, {} µ-ops per run, {} worker thread(s)",
        specs.len(),
        uops,
        bebop::par::worker_threads()
    );

    // Record every workload's trace once; all experiments replay the shared
    // buffers. The recording cost shows up as its own perf-report entry so the
    // µops/sec trajectory stays honest. Runs that only print static tables
    // (table1/table3) skip recording entirely.
    let experiments = experiments(&specs, uops);
    let needs_traces = experiments.iter().any(|e| wants(&opts, e.name));
    let store = opts.trace_dir.as_ref().map(|dir| {
        let mut st = bebop_bench::TraceStore::open(dir).unwrap_or_else(|e| {
            eprintln!("[figures] --trace-dir {dir}: cannot open trace store: {e}");
            std::process::exit(1);
        });
        if let Some(seed) = opts.fault_seed {
            st.set_faults(
                FaultPlan::seeded(seed)
                    .with_read_errors(opts.fault_read)
                    .with_write_errors(opts.fault_write)
                    .with_short_reads(opts.fault_short)
                    .with_corruption(opts.fault_corrupt),
            );
        }
        st
    });
    let start = Instant::now();
    let set = if needs_traces {
        TraceSet::build_with_store(&specs, uops, &opts.trace_cache, store.as_ref())
    } else {
        TraceSet::streaming(&specs)
    };
    let tracegen_wall = start.elapsed().as_secs_f64();
    if set.cached_count() > 0 {
        let mib = set.footprint_bytes() as f64 / (1024.0 * 1024.0);
        println!(
            "Trace cache: {}/{} workloads recorded, {:.1} MiB total ({:.1} MiB per {}-uop trace)",
            set.cached_count(),
            set.len(),
            mib,
            mib / set.cached_count() as f64,
            uops
        );
        // The timing entry covers *materialising* the recordings (generated
        // live or deserialised from the store); the JSON additionally carries
        // the generated share and the store hit/miss split so warm-cache
        // speedups stay explicable.
        report.push(Timing {
            name: "tracegen",
            wall_s: tracegen_wall,
            uops: set.materialised_uops(),
        });
        counters.push(("trace_generated_uops", set.generated_uops()));
    } else if needs_traces {
        println!("Trace cache: disabled, workloads stream live generation");
    } else {
        println!("Trace cache: not needed by the requested experiments");
    }
    if wants(&opts, "table1") {
        println!("\n=== Table I: pipeline configuration ===");
        let c = bebop::PipelineConfig::baseline_6_60();
        println!("{c:#?}");
    }

    // Every simulating experiment resolves through one job table: a cell an
    // earlier experiment simulated is reused, so each experiment's perf row
    // counts only the simulations it ran first.
    let mut table = JobTable::new(&set, uops);
    for exp in &experiments {
        if exp.name == "fig8" && wants(&opts, "table3") {
            // Table III precedes Figure 8, as in the paper.
            println!("\n=== Table III: final predictor configurations ===");
            println!(
                "    paper:   Small_4p 17.26 KB, Small_6p 17.18 KB, Medium 32.76 KB, Large 61.65 KB"
            );
            for (name, kb) in run_table3() {
                println!("    modelled {name:<9} {kb:.2} KB");
            }
        }
        if !wants(&opts, exp.name) {
            continue;
        }
        timed(&mut report, exp.name, || {
            let req = &exp.request;
            let out = table.resolve(req);
            println!("\n=== {} ===", exp.title);
            if req.variants.len() == 1 {
                for (spec, stats) in req.workloads.iter().zip(&out.stats) {
                    println!("    {:<18} {:.3}", spec.name, stats.inst_ipc());
                }
            }
            for (label, results) in out.groups(req) {
                println!(
                    "{}",
                    format_summary(&label, &SpeedupSummary::from_results(&results))
                );
                if exp.per_bench {
                    print!("{}", format_per_bench(&results));
                }
            }
            out.simulated_uops
        });
    }
    if needs_traces {
        // Cells declared by more than one experiment, served from the table.
        counters.push(("figures_jobs_reused", table.reused()));
    }

    if wants(&opts, "wrongpath") {
        timed(&mut report, "wrongpath", || {
            let req = wrong_path_request(&specs, uops);
            let wp_set =
                TraceSet::build_with_store(&req.workloads, uops, &opts.trace_cache, store.as_ref());
            let out = JobTable::new(&wp_set, uops).resolve(&req);
            // `Resolved::stats` is variant-major: the off, clean and polluted
            // columns, one entry per workload each.
            let columns: Vec<&[SimStats]> = out.stats.chunks_exact(wp_set.len()).collect();
            let (off, clean, polluted) = (columns[0], columns[1], columns[2]);
            let mean = |col: &[SimStats], metric: fn(&VpStats) -> f64| {
                col.iter().map(|s| metric(&s.vp)).sum::<f64>() / col.len() as f64
            };
            let polluted_total = |f: fn(&SimStats) -> u64| -> u64 { polluted.iter().map(f).sum() };
            println!(
                "\n=== Wrong-path execution: {}-µ-op bursts, D-VTAGE on Baseline_VP_6_60 ===",
                WRONG_PATH_BURST
            );
            println!(
                "    {:<18} {:>8} {:>8} {:>8} {:>8} {:>8}  {:>9} {:>9} {:>9} {:>9}",
                "benchmark",
                "acc-off",
                "acc-cln",
                "acc-pol",
                "cov-off",
                "cov-pol",
                "wp-fetch",
                "wp-exec",
                "wp-train",
                "pol-misp"
            );
            for (i, spec) in req.workloads.iter().enumerate() {
                let p = &polluted[i];
                println!(
                    "    {:<18} {:>8.4} {:>8.4} {:>8.4} {:>8.4} {:>8.4}  {:>9} {:>9} {:>9} {:>9}",
                    spec.name,
                    off[i].vp.accuracy(),
                    clean[i].vp.accuracy(),
                    p.vp.accuracy(),
                    off[i].vp.coverage(),
                    p.vp.coverage(),
                    p.wrong_path.fetched,
                    p.wrong_path.executed,
                    p.wrong_path.vp_trains,
                    p.wrong_path.pollution_mispredicts,
                );
            }
            // Pollution shows up two ways: wrong predictions (accuracy) and —
            // with confidence-gated predictors — vanished predictions
            // (coverage). Both deltas are over the identical trace.
            println!(
                "    mean accuracy: off {:.4}  clean {:.4}  polluted {:.4}  (pollution delta {:+.4})",
                mean(off, VpStats::accuracy),
                mean(clean, VpStats::accuracy),
                mean(polluted, VpStats::accuracy),
                mean(polluted, VpStats::accuracy) - mean(clean, VpStats::accuracy),
            );
            println!(
                "    mean coverage: off {:.4}  clean {:.4}  polluted {:.4}  (pollution delta {:+.4})",
                mean(off, VpStats::coverage),
                mean(clean, VpStats::coverage),
                mean(polluted, VpStats::coverage),
                mean(polluted, VpStats::coverage) - mean(clean, VpStats::coverage),
            );
            // The fetched/executed split plus the polluted run's pollution
            // counters.
            counters.extend([
                (
                    "wrong_path_fetched",
                    polluted_total(|s| s.wrong_path.fetched),
                ),
                (
                    "wrong_path_executed",
                    polluted_total(|s| s.wrong_path.executed),
                ),
                (
                    "wrong_path_vp_trains",
                    polluted_total(|s| s.wrong_path.vp_trains),
                ),
                (
                    "wrong_path_pollution_mispredicts",
                    polluted_total(|s| s.wrong_path.pollution_mispredicts),
                ),
            ]);
            out.simulated_uops
        });
    }

    if wants(&opts, "mix") {
        timed(&mut report, "mix", || {
            let out = run_mix(&specs, uops, store.as_ref());
            println!(
                "\n=== Mix: multi-programmed shared predictor ({}-µ-op quantum, {}-shard BeBoP \
                 D-VTAGE Medium, Baseline_VP_6_60) ===",
                MIX_QUANTUM,
                bebop::configs::MIX_SHARDS
            );
            for row in &out.rows {
                println!("  pair {}", row.name);
                println!(
                    "    {:<12} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9} {:>8}",
                    "policy",
                    "ipc",
                    "d-ipc%",
                    "acc[0]",
                    "cov[0]",
                    "acc[1]",
                    "cov[1]",
                    "switches",
                    "steals"
                );
                let shared_ipc = row.per_policy[0].stats.uop_ipc();
                for p in &row.per_policy {
                    let ipc = p.stats.uop_ipc();
                    println!(
                        "    {:<12} {:>9.4} {:>+7.2}% {:>8.4} {:>8.4} {:>8.4} {:>8.4} {:>9} {:>8}",
                        p.policy.label(),
                        ipc,
                        (ipc / shared_ipc - 1.0) * 100.0,
                        p.stats.contexts[0].vp.accuracy(),
                        p.stats.contexts[0].vp.coverage(),
                        p.stats.contexts[1].vp.accuracy(),
                        p.stats.contexts[1].vp.coverage(),
                        p.stats.context_switches,
                        p.steals,
                    );
                }
            }
            println!(
                "    per-context stats summed to the aggregate in {}/{} runs",
                out.sum_checked_runs,
                out.rows.len() * 3
            );
            // Summed over every (pair, policy) run.
            counters.extend([
                (
                    "mix_context_switches",
                    out.total(|p| p.stats.context_switches),
                ),
                ("mix_shard_steals", out.total(|p| p.steals)),
            ]);
            out.simulated_uops
        });
    }

    if wants(&opts, "sample") {
        timed(&mut report, "sample", || {
            let mut cfg = sampling::SamplingConfig::for_budget(uops);
            if let Some(s) = opts.sample_slice_uops {
                cfg.slice_uops = s;
            }
            if let Some(k) = opts.sample_phases {
                cfg.max_phases = k;
            }
            if let Some(w) = opts.sample_warmup {
                cfg.warmup_uops = w;
            }
            let out = sampling::run_sampled_with(
                &specs,
                uops,
                &cfg,
                &bebop::PipelineConfig::baseline_vp_6_60(),
                &bebop::PredictorKind::DVtage,
                &opts.trace_cache,
                store.as_ref(),
            );
            println!(
                "\n=== Phase sampling: {}-µ-op slices, ≤{} phases, {}-µ-op warm-up, \
                 D-VTAGE on Baseline_VP_6_60 ===",
                cfg.slice_uops, cfg.max_phases, cfg.warmup_uops
            );
            // The `Trace store:` line's generated/loaded split counts the
            // experiments' shared set only, so sampling reports its own
            // population (CI greps "generated 0 µ-ops" here on a warm store).
            println!(
                "    sample trace population: loaded {}, recorded {}, generated {} µ-ops",
                out.loaded_traces, out.recorded_traces, out.generated_uops
            );
            println!(
                "    {:<18} {:>6} {:>6}  {:>8} {:>7}  {:>8} {:>7}  {:>8} {:>7}  {:>9}",
                "benchmark",
                "slices",
                "phases",
                "acc",
                "±ci",
                "cov",
                "±ci",
                "ipc",
                "±ci",
                "samp-µops"
            );
            for r in &out.rows {
                println!(
                    "    {:<18} {:>6} {:>6}  {:>8.4} {:>7.4}  {:>8.4} {:>7.4}  {:>8.4} {:>7.4}  {:>9}",
                    r.name,
                    r.slices,
                    r.phases,
                    r.sampled.accuracy,
                    r.sampled.accuracy_ci,
                    r.sampled.coverage,
                    r.sampled.coverage_ci,
                    r.sampled.uop_ipc,
                    r.sampled.uop_ipc_ci,
                    r.sampled_uops,
                );
            }
            // CI greps this line: the declared bounds are the differential
            // harness's contract, and the budget ratio is the cost contract.
            println!(
                "    declared error bound: accuracy ±{:.2} / coverage ±{:.2} absolute, IPC ±{:.0}% relative (CI floors)",
                sampling::ACCURACY_BOUND_FLOOR,
                sampling::COVERAGE_BOUND_FLOOR,
                sampling::IPC_RELATIVE_BOUND_FLOOR * 100.0
            );
            println!(
                "    sampled {} of {} full-run µ-ops ({:.1}% of the full budget), \
                 after {} functionally warmed µ-ops",
                out.simulated_uops,
                out.full_uops,
                out.simulated_uops as f64 / out.full_uops as f64 * 100.0,
                out.warm_uops
            );
            // The simulated/full split is the cost ledger: sampled runs must
            // stay a small fraction of the full-run budget. The warmed count
            // is the functional-warming cost the detailed split leaves out.
            counters.extend([
                (
                    "sampled_slices",
                    out.rows.iter().map(|r| r.slices as u64).sum(),
                ),
                (
                    "sampled_phases",
                    out.rows.iter().map(|r| r.phases as u64).sum(),
                ),
                ("sampled_simulated_uops", out.simulated_uops),
                ("sampled_warm_uops", out.warm_uops),
                ("sampled_full_uops", out.full_uops),
            ]);
            out.simulated_uops + out.generated_uops
        });
    }

    if let Some(dir) = &opts.sweep_dir {
        let dir = std::path::PathBuf::from(dir);
        // Starting over an existing sweep must be a conscious decision: an
        // accidental re-launch into a half-finished directory is exactly the
        // crash-resume scenario, so demand the flag that names it.
        if dir.join("journal.bbl").exists() && !opts.resume {
            fail(&format!(
                "{} already holds a sweep journal; pass --resume to continue it \
                 (or use a fresh directory)",
                dir.display()
            ));
        }
        let req = SweepRequest::bebop_geometry(specs.clone(), uops);
        let mut sweep_opts = SweepOptions {
            max_cells: opts.sweep_cells,
            cell_timeout: opts.cell_timeout_ms.map(std::time::Duration::from_millis),
            checkpoint_every: opts.checkpoint_every,
            ..SweepOptions::default()
        };
        if let Some(seed) = opts.fault_seed {
            let mut plan = FaultPlan::seeded(seed);
            for &job in &opts.fault_panic_jobs {
                plan = plan.with_panic_job(job);
            }
            for &job in &opts.fault_stall_jobs {
                plan = plan.with_stall_job(job);
            }
            sweep_opts.faults = Some(plan);
        }
        timed(&mut report, "sweep", || {
            let out = run_sweep_jobs(&req, &dir, store.as_ref(), &sweep_opts).unwrap_or_else(|e| {
                eprintln!("[figures] sweep in {} failed: {e}", dir.display());
                std::process::exit(1);
            });
            println!(
                "\n=== Sweep: {} ({} cells = {} workloads × {} variants, {uops} µ-ops each) ===",
                req.name,
                out.total,
                req.workloads.len(),
                req.variants.len()
            );
            println!("    {}", out.summary_line());
            for (cell, kind, reason) in &out.quarantined {
                println!("    quarantined {cell}: {kind:?}: {reason}");
            }
            if out.checkpoint_resumes > 0 {
                // CI greps this line in the kill-resume smoke.
                println!(
                    "    checkpoint resume: {} cell(s) resumed from checkpoints carrying {} committed µ-ops",
                    out.checkpoint_resumes, out.checkpoint_resumed_uops
                );
            }
            if out.complete {
                println!(
                    "    ledger: {} (complete)",
                    // INVARIANT: run_sweep_jobs sets ledger_path whenever complete.
                    out.ledger_path.as_ref().expect("complete sweep").display()
                );
                println!(
                    "    gmean speedup over {} (completed workloads only):",
                    req.variants[0].0
                );
                for (label, speedup, n) in out.variant_speedups(&req) {
                    println!("    {label:<28} gmean {speedup:.3}  ({n} workloads)");
                }
            } else {
                println!(
                    "    sweep incomplete: {} cell(s) remaining — re-run with --resume to continue",
                    out.total - out.resumed - out.executed
                );
            }
            // The resumed/executed split is the crash-safety ledger: resumed
            // cells cost no simulation.
            let timed_out = out
                .quarantined
                .iter()
                .filter(|(_, kind, _)| *kind == bebop_bench::sweep::ReasonKind::Timeout)
                .count();
            counters.extend([
                ("sweep_cells_total", out.total as u64),
                ("sweep_cells_resumed", out.resumed as u64),
                ("sweep_cells_executed", out.executed as u64),
                ("sweep_cells_quarantined", out.quarantined.len() as u64),
                ("sweep_cells_timed_out", timed_out as u64),
                ("sweep_checkpoint_resumes", out.checkpoint_resumes),
                ("sweep_io_retries", out.io_retries),
            ]);
            out.simulated_uops
        });
    }

    if let Some(st) = &store {
        // Store traffic of every mode above, printed after they all ran. The
        // generated/loaded split is the experiments' shared trace set; the
        // unsaved count covers every mode (each failure was also logged on
        // stderr as it happened).
        println!(
            "Trace store: {} hit(s), {} miss(es); generated {} µ-ops, loaded {}/{} recordings ({:.1} MiB on disk at {}); {} unsaved",
            st.hits(),
            st.misses(),
            set.generated_uops(),
            set.loaded_count(),
            set.cached_count(),
            st.disk_bytes() as f64 / (1024.0 * 1024.0),
            st.dir().display(),
            st.unsaved()
        );
        if let Some(mb) = opts.trace_dir_mb {
            match st.sweep(mb * 1024 * 1024) {
                Ok(sw) if sw.files_removed > 0 => println!(
                    "Trace store: evicted {} stale recording(s) ({:.1} MiB) to fit {mb} MiB",
                    sw.files_removed,
                    sw.bytes_removed as f64 / (1024.0 * 1024.0)
                ),
                Ok(_) => {}
                Err(e) => eprintln!("[figures] trace store sweep failed: {e}"),
            }
        }
        // Cache regressions show up as a hit-rate drop here before they show
        // up as wall-clock.
        counters.extend([
            ("trace_store_hits", st.hits()),
            ("trace_store_misses", st.misses()),
            ("trace_store_unsaved", st.unsaved()),
        ]);
    }
    if let Some(path) = &opts.json {
        // The worker-pool width the experiments actually fanned out with (the
        // flattened (config × workload) task lists of the sweeps saturate it).
        let threads = bebop::par::worker_threads();
        let text = perf_json::render(threads, uops, set.len(), &counters, &report);
        if let Err(e) = bebop_trace::write_atomic(path.as_ref(), text.as_bytes()) {
            eprintln!("[figures] cannot write the JSON perf report to {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("[figures] perf report written to {path}");
    }
}
