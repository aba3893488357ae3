//! CI perf gate: compares a fresh `figures --json` report against the
//! committed baseline and fails on a µops/sec regression.
//!
//! ```text
//! cargo run -p bebop-bench --release --bin perf_gate -- \
//!     BENCH_figures.json BENCH_current.json \
//!     --max-regression 0.20 --per-experiment 0.35
//! ```
//!
//! Exit status 0 when throughput is within tolerance of the baseline
//! (improvements always pass), 1 on a regression, 2 on unusable input.
//!
//! By default only the *aggregate* µops/sec gates; per-experiment ratios are
//! printed as context. `--per-experiment <tol>` additionally gates every
//! experiment with its own (looser, noisy-runner-aware) tolerance, so a
//! single-experiment cliff cannot hide inside a passing aggregate — the
//! shape of regression the aggregate-only gate historically waved through.
//! An experiment missing from the current report also fails in that mode.
//! Every counter that is nonzero in either report prints as
//! `name: current (baseline N)`; counters never gate.

#![forbid(unsafe_code)]

use bebop_bench::perf_json;

fn load(path: &str) -> perf_json::PerfReport {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("[perf_gate] cannot read {path}: {e}");
        std::process::exit(2);
    });
    perf_json::parse(&text).unwrap_or_else(|| {
        eprintln!("[perf_gate] {path} is not a bebop-bench-figures/v1 report");
        std::process::exit(2);
    })
}

fn main() {
    let mut paths: Vec<String> = Vec::new();
    let mut tolerance = 0.20f64;
    let mut per_experiment: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--max-regression" => {
                tolerance = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    // INVARIANT: CLI usage error — a gate that cannot parse
                    // its threshold must die loudly, not run with a default.
                    .expect("--max-regression needs a fraction (e.g. 0.20)");
            }
            "--per-experiment" => {
                per_experiment = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        // INVARIANT: CLI usage error — same contract as
                        // --max-regression, die loudly on a bad threshold.
                        .expect("--per-experiment needs a fraction (e.g. 0.35)"),
                );
            }
            other => paths.push(other.to_string()),
        }
    }
    if paths.len() != 2 {
        eprintln!(
            "usage: perf_gate <baseline.json> <current.json> \
             [--max-regression 0.20] [--per-experiment 0.35]"
        );
        std::process::exit(2);
    }

    let baseline = load(&paths[0]);
    let current = load(&paths[1]);
    let diff = perf_json::diff(&baseline, &current, tolerance, per_experiment);
    match per_experiment {
        Some(t) => println!(
            "[perf_gate] {} (baseline) vs {} (current), tolerance {:.0}% aggregate / {:.0}% per experiment:",
            paths[0],
            paths[1],
            tolerance * 100.0,
            t * 100.0
        ),
        None => println!(
            "[perf_gate] {} (baseline) vs {} (current), tolerance {:.0}%:",
            paths[0],
            paths[1],
            tolerance * 100.0
        ),
    }
    for line in &diff.lines {
        println!("{line}");
    }
    match diff.failure {
        Some(msg) => {
            eprintln!("[perf_gate] FAIL: {msg}");
            std::process::exit(1);
        }
        None => println!("[perf_gate] OK"),
    }
}
