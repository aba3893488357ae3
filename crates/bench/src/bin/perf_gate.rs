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
//! `name: current (baseline N)`; counters never gate. An experiment whose
//! µ-op count differs between the reports carries a `job mix changed: A -> B
//! µops` note, since its µops/sec then times different work; notes never
//! gate either.

#![forbid(unsafe_code)]

use bebop_bench::perf_json;

/// Exits with a usage error (unusable input is the caller's mistake, not a
/// regression).
fn fail(msg: &str) -> ! {
    eprintln!("[perf_gate] {msg}");
    std::process::exit(2);
}

/// The next argument of `flag` as a finite, non-negative fraction.
fn fraction(args: &mut impl Iterator<Item = String>, flag: &str, example: &str) -> f64 {
    match args.next().map(|v| v.parse::<f64>()) {
        Some(Ok(v)) if v.is_finite() && v >= 0.0 => v,
        _ => fail(&format!(
            "{flag} needs a non-negative fraction (e.g. {example})"
        )),
    }
}

fn load(path: &str) -> perf_json::PerfReport {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    perf_json::parse(&text)
        .unwrap_or_else(|| fail(&format!("{path} is not a bebop-bench-figures/v1 report")))
}

fn main() {
    let mut paths: Vec<String> = Vec::new();
    let mut tolerance = 0.20f64;
    let mut per_experiment: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--max-regression" => tolerance = fraction(&mut args, "--max-regression", "0.20"),
            "--per-experiment" => {
                per_experiment = Some(fraction(&mut args, "--per-experiment", "0.35"));
            }
            other => paths.push(other.to_string()),
        }
    }
    if paths.len() != 2 {
        fail(
            "usage: perf_gate <baseline.json> <current.json> \
             [--max-regression 0.20] [--per-experiment 0.35]",
        );
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
