//! Writing, reading and diffing the `figures --json` perf reports.
//!
//! The report format is this repository's own (`bebop-bench-figures/v1`,
//! rendered by [`render`] for the `figures` binary), so a dependency-free
//! field scanner is enough: no external JSON crate is available in the offline
//! build image, and none is needed. The `perf_gate` binary uses [`diff`] in CI
//! to fail pull requests whose µops/sec regresses more than the tolerance
//! against the committed `BENCH_figures.json` baseline.
//!
//! Besides throughput, a report carries a `"counters"` object: named `u64`
//! counters the run's modes reported (trace-store hits, reused figure cells,
//! wrong-path traffic, sweep cells, …). A mode that did not run writes no entries, and an absent
//! counter reads as zero, so reports from before a counter existed (the
//! committed baseline among them) parse unchanged. Counters are
//! informational: [`diff`] shows them, only µops/sec gates.

use std::collections::{BTreeMap, BTreeSet};

/// One timed experiment of a perf report.
#[derive(Debug, Clone)]
pub struct Timing {
    /// Experiment name (`table2`, `fig8`, `sweep`, …).
    pub name: &'static str,
    /// Wall-clock seconds the experiment took.
    pub wall_s: f64,
    /// µ-ops the experiment simulated (or recorded, for `tracegen`). A
    /// figure experiment counts only the cells it simulated itself: a cell an
    /// earlier experiment of the same run already simulated is reused from
    /// the job table, costs no time and is counted in the
    /// `figures_jobs_reused` counter instead.
    pub uops: u64,
}

impl Timing {
    /// Simulated µ-ops per wall-clock second (0 for an untimed experiment).
    pub fn uops_per_sec(&self) -> f64 {
        if self.wall_s <= 0.0 {
            0.0
        } else {
            self.uops as f64 / self.wall_s
        }
    }
}

/// One parsed perf report.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Worker threads the run fanned out over.
    pub threads: u64,
    /// µ-ops simulated per run (`--uops`).
    pub uops_per_run: u64,
    /// Aggregate simulation throughput over every experiment.
    pub total_uops_per_sec: f64,
    /// The report's `"counters"` object, by name (empty for reports from
    /// before the object existed).
    pub counters: BTreeMap<String, u64>,
    /// `(experiment name, µops/sec, µops)` rows, in report order.
    pub experiments: Vec<(String, f64, u64)>,
}

impl PerfReport {
    /// Counter `name`, zero when the report does not carry it.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Renders a `bebop-bench-figures/v1` report: the run header, `counters` in
/// the given order, the totals over `timings`, and one row per timing.
pub fn render(
    threads: usize,
    uops_per_run: u64,
    benchmarks: usize,
    counters: &[(&str, u64)],
    timings: &[Timing],
) -> String {
    let total_wall: f64 = timings.iter().map(|t| t.wall_s).sum();
    let total_uops: u64 = timings.iter().map(|t| t.uops).sum();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"bebop-bench-figures/v1\",\n");
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str(&format!("  \"uops_per_run\": {uops_per_run},\n"));
    out.push_str(&format!("  \"benchmarks\": {benchmarks},\n"));
    out.push_str("  \"counters\": {");
    for (i, (name, value)) in counters.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        out.push_str(&format!("{sep}    \"{name}\": {value}"));
    }
    out.push_str(if counters.is_empty() {
        "},\n"
    } else {
        "\n  },\n"
    });
    out.push_str(&format!("  \"total_wall_s\": {total_wall:.6},\n"));
    out.push_str(&format!("  \"total_uops\": {total_uops},\n"));
    out.push_str(&format!(
        "  \"total_uops_per_sec\": {:.1},\n",
        if total_wall > 0.0 {
            total_uops as f64 / total_wall
        } else {
            0.0
        }
    ));
    out.push_str("  \"experiments\": [\n");
    for (i, t) in timings.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"wall_s\": {:.6}, \"uops\": {}, \"uops_per_sec\": {:.1}}}{}\n",
            t.name,
            t.wall_s,
            t.uops,
            t.uops_per_sec(),
            if i + 1 == timings.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The JSON number token following `"key":` in `text`, searching from
/// `from`, plus the offset just past the key.
fn number_after<'a>(text: &'a str, key: &str, from: usize) -> Option<(&'a str, usize)> {
    let pat = format!("\"{key}\"");
    let at = text[from..].find(&pat)? + from + pat.len();
    let rest = text[at..].trim_start_matches([':', ' ', '\t']);
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E')))
        .unwrap_or(rest.len());
    Some((&rest[..end], at))
}

/// Extracts the JSON string following `"key":` in `text`, starting at `from`.
fn string_after(text: &str, key: &str, from: usize) -> Option<(String, usize)> {
    let pat = format!("\"{key}\"");
    let at = text[from..].find(&pat)? + from + pat.len();
    let open = text[at..].find('"')? + at + 1;
    let close = text[open..].find('"')? + open;
    Some((text[open..close].to_string(), close))
}

/// Parses the flat `"counters": { "name": <u64>, ... }` object; an absent
/// object is an empty map, a malformed one is `None`.
fn parse_counters(text: &str) -> Option<BTreeMap<String, u64>> {
    let mut counters = BTreeMap::new();
    let Some(at) = text.find("\"counters\"") else {
        return Some(counters);
    };
    let open = text[at..].find('{')? + at + 1;
    let close = text[open..].find('}')? + open;
    for entry in text[open..close].split(',') {
        if entry.trim().is_empty() {
            continue;
        }
        let (name, value) = entry.split_once(':')?;
        let name = name.trim().strip_prefix('"')?.strip_suffix('"')?;
        counters.insert(name.to_string(), value.trim().parse().ok()?);
    }
    Some(counters)
}

/// Parses a `bebop-bench-figures/v1` report.
///
/// Returns `None` when the schema marker or any required field is missing,
/// or the counters object is malformed, so callers fail loudly on truncated
/// or foreign files instead of gating on garbage.
pub fn parse(text: &str) -> Option<PerfReport> {
    if !text.contains("bebop-bench-figures/v1") {
        return None;
    }
    let threads = number_after(text, "threads", 0)?.0.parse().ok()?;
    let uops_per_run = number_after(text, "uops_per_run", 0)?.0.parse().ok()?;
    let total_uops_per_sec = number_after(text, "total_uops_per_sec", 0)?
        .0
        .parse()
        .ok()?;
    let counters = parse_counters(text)?;

    let exp_at = text.find("\"experiments\"")?;
    let mut experiments = Vec::new();
    let mut cursor = exp_at;
    while let Some((name, after_name)) = string_after(text, "name", cursor) {
        let (uops, after_uops) = number_after(text, "uops", after_name)?;
        let (ups, after_ups) = number_after(text, "uops_per_sec", after_uops)?;
        experiments.push((name, ups.parse().ok()?, uops.parse().ok()?));
        cursor = after_ups;
    }
    if experiments.is_empty() {
        return None;
    }
    Some(PerfReport {
        threads,
        uops_per_run,
        total_uops_per_sec,
        counters,
        experiments,
    })
}

/// The verdict of a baseline-vs-current comparison.
#[derive(Debug, Clone)]
pub struct PerfDiff {
    /// Human-readable comparison rows (one per nonzero counter, one per
    /// experiment, plus the total).
    pub lines: Vec<String>,
    /// `Some(message)` when the aggregate throughput (or, in per-experiment
    /// mode, any single experiment) regressed beyond its tolerance — the
    /// CI-failing condition.
    pub failure: Option<String>,
}

fn ratio_row(name: &str, base: f64, cur: f64, tolerance: f64) -> (String, bool) {
    if base <= 0.0 {
        return (format!("  {name:<12} baseline unusable ({base})"), false);
    }
    let ratio = cur / base;
    let regressed = ratio < 1.0 - tolerance;
    let marker = if regressed { "  << REGRESSION" } else { "" };
    (
        format!("  {name:<12} {base:>12.0} -> {cur:>12.0} uops/s  ({ratio:.2}x){marker}",),
        regressed,
    )
}

/// Compares `current` against `baseline` with a relative `tolerance` on the
/// aggregate µops/sec (0.20 = fail on a >20% drop). Every counter that is
/// nonzero on either side gets one informational line.
///
/// With `per_experiment` = `None` only the aggregate gates; per-experiment
/// regressions are reported as context (single experiments are noisy on
/// shared CI runners, the aggregate is not). With `Some(t)` every experiment
/// also gates individually with relative tolerance `t`, which should be
/// looser than the aggregate tolerance (the historical bug this closes: a
/// one-experiment cliff — e.g. one figure falling to a third of its siblings
/// — hides inside an aggregate that still passes). An experiment present in
/// the baseline but missing from the current report also fails in that mode.
///
/// A row whose µ-op count differs between the reports gets a `job mix
/// changed: A -> B µops` note: its µops/sec then measures a different set of
/// simulations (the job table reuses cells across experiments), not only a
/// different simulator speed. The note never changes the verdict.
pub fn diff(
    baseline: &PerfReport,
    current: &PerfReport,
    tolerance: f64,
    per_experiment: Option<f64>,
) -> PerfDiff {
    let mut lines = Vec::new();
    if baseline.threads != current.threads || baseline.uops_per_run != current.uops_per_run {
        lines.push(format!(
            "  note: baseline ran {} thread(s) x {} uops, current {} thread(s) x {} uops",
            baseline.threads, baseline.uops_per_run, current.threads, current.uops_per_run
        ));
    }
    let names: BTreeSet<&String> = baseline
        .counters
        .keys()
        .chain(current.counters.keys())
        .collect();
    for name in names {
        let (base, cur) = (baseline.counter(name), current.counter(name));
        if base > 0 || cur > 0 {
            lines.push(format!("  {name}: {cur} (baseline {base})"));
        }
    }
    let exp_tolerance = per_experiment.unwrap_or(tolerance);
    let mut exp_failures: Vec<String> = Vec::new();
    for (name, base_ups, base_uops) in &baseline.experiments {
        if let Some((_, cur_ups, cur_uops)) = current.experiments.iter().find(|(n, ..)| n == name) {
            let (mut line, regressed) = ratio_row(name, *base_ups, *cur_ups, exp_tolerance);
            if base_uops != cur_uops {
                line += &format!("  job mix changed: {base_uops} -> {cur_uops} µops");
            }
            lines.push(line);
            if regressed && per_experiment.is_some() {
                exp_failures.push(format!(
                    "{name} regressed >{:.0}%: {base_ups:.0} -> {cur_ups:.0} uops/s",
                    exp_tolerance * 100.0
                ));
            }
        } else {
            lines.push(format!("  {name:<12} missing from the current report"));
            if per_experiment.is_some() {
                exp_failures.push(format!("{name} missing from the current report"));
            }
        }
    }
    let (total_line, regressed) = ratio_row(
        "TOTAL",
        baseline.total_uops_per_sec,
        current.total_uops_per_sec,
        tolerance,
    );
    lines.push(total_line);
    let mut failures: Vec<String> = Vec::new();
    if regressed {
        failures.push(format!(
            "aggregate throughput regressed >{:.0}%: {:.0} -> {:.0} uops/s",
            tolerance * 100.0,
            baseline.total_uops_per_sec,
            current.total_uops_per_sec
        ));
    }
    failures.extend(exp_failures);
    let failure = (!failures.is_empty()).then(|| failures.join("; "));
    PerfDiff { lines, failure }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(total: f64, fig8: f64) -> String {
        format!(
            r#"{{
  "schema": "bebop-bench-figures/v1",
  "threads": 4,
  "uops_per_run": 200000,
  "benchmarks": 36,
  "total_wall_s": 10.5,
  "total_uops": 1000,
  "total_uops_per_sec": {total},
  "experiments": [
    {{"name": "table2", "wall_s": 1.0, "uops": 500, "uops_per_sec": 500.0}},
    {{"name": "fig8", "wall_s": 9.5, "uops": 500, "uops_per_sec": {fig8}}}
  ]
}}
"#
        )
    }

    #[test]
    fn parses_the_report_shape_figures_emits() {
        let r = parse(&report(2843903.0, 3491105.2)).expect("parse");
        assert_eq!(r.threads, 4);
        assert_eq!(r.uops_per_run, 200_000);
        assert!((r.total_uops_per_sec - 2843903.0).abs() < 1e-6);
        assert_eq!(r.experiments.len(), 2);
        assert_eq!(r.experiments[0].0, "table2");
        assert!((r.experiments[1].1 - 3491105.2).abs() < 1e-6);
        assert_eq!(r.experiments[1].2, 500);
    }

    #[test]
    fn parses_the_committed_baseline() {
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_figures.json"
        ))
        .expect("committed baseline exists");
        let r = parse(&text).expect("baseline parses");
        assert!(r.total_uops_per_sec > 0.0);
        assert!(!r.experiments.is_empty());
    }

    #[test]
    fn store_counters_default_to_zero_on_old_reports() {
        // Reports from before the counters object (the committed baseline
        // carries flat per-mode fields instead) read every counter as zero
        // traffic, not as a parse failure.
        let r = parse(&report(1000.0, 1000.0)).expect("parse");
        assert!(r.counters.is_empty());
        assert_eq!(r.counter("trace_store_hits"), 0);
        let committed = include_str!("../../../BENCH_figures.json");
        let r = parse(committed).expect("baseline parses");
        assert!(r.counters.is_empty(), "{:?}", r.counters);
        let lines = diff(&r, &r, 0.20, None).lines;
        assert!(!lines.iter().any(|l| l.contains("trace_generated_uops")));
    }

    /// The counters each `figures` mode can write, each with a distinct
    /// nonzero value (one above 2^53, which an `f64` round trip would corrupt).
    const STORE_COUNTERS: [(&str, u64); 4] = [
        ("trace_store_hits", 36),
        ("trace_store_misses", 2),
        ("trace_store_unsaved", 3),
        ("trace_generated_uops", (1 << 53) + 1),
    ];
    const WRONG_PATH_COUNTERS: [(&str, u64); 4] = [
        ("wrong_path_fetched", 1234),
        ("wrong_path_executed", 1000),
        ("wrong_path_vp_trains", 321),
        ("wrong_path_pollution_mispredicts", 7),
    ];
    const MIX_COUNTERS: [(&str, u64); 2] = [("mix_context_switches", 57), ("mix_shard_steals", 12)];
    const SAMPLED_COUNTERS: [(&str, u64); 4] = [
        ("sampled_slices", 300),
        ("sampled_phases", 48),
        ("sampled_simulated_uops", 240_000),
        ("sampled_full_uops", 1_200_000),
    ];
    const SWEEP_COUNTERS: [(&str, u64); 7] = [
        ("sweep_cells_total", 66),
        ("sweep_cells_resumed", 40),
        ("sweep_cells_executed", 26),
        ("sweep_cells_quarantined", 3),
        ("sweep_cells_timed_out", 1),
        ("sweep_checkpoint_resumes", 5),
        ("sweep_io_retries", 9),
    ];

    /// Every counter `figures` can write.
    fn figures_counters() -> Vec<(&'static str, u64)> {
        [
            &STORE_COUNTERS[..],
            &WRONG_PATH_COUNTERS,
            &MIX_COUNTERS,
            &SAMPLED_COUNTERS,
            &SWEEP_COUNTERS,
        ]
        .concat()
    }

    /// Renders `counters` into a report, parses it back and checks each
    /// value, the diff line it gets against an old report without counters,
    /// and that neither a report without them nor one writing them as zero
    /// shows a line for them.
    fn assert_counters_round_trip(counters: &[(&str, u64)]) {
        let old = parse(&report(1000.0, 1000.0)).expect("parse");
        let timings = [Timing {
            name: "fig8",
            wall_s: 2.0,
            uops: 1000,
        }];
        let quiet = parse(&render(1, 200_000, 6, &[], &timings)).expect("parse");
        assert!(quiet.counters.is_empty());
        let loud = parse(&render(1, 200_000, 6, counters, &timings)).expect("parse");
        assert_eq!(loud.counters.len(), counters.len());
        assert_eq!(loud.experiments, vec![("fig8".to_string(), 500.0, 1000)]);
        let shown = diff(&old, &loud, 0.20, None).lines;
        let zeros: Vec<(&str, u64)> = counters.iter().map(|&(name, _)| (name, 0)).collect();
        let zero = parse(&render(1, 200_000, 6, &zeros, &timings)).expect("parse");
        let silent = diff(&zero, &quiet, 0.20, None).lines;
        let unchanged = diff(&old, &old, 0.20, None).lines;
        for &(name, value) in counters {
            assert_eq!(old.counter(name), 0, "{name}");
            assert_eq!(loud.counter(name), value, "{name}");
            assert_eq!(zero.counters.get(name), Some(&0), "{name}");
            let line = format!("  {name}: {value} (baseline 0)");
            assert!(shown.contains(&line), "{line:?} not in {shown:?}");
            assert!(!silent.iter().any(|l| l.contains(name)), "{silent:?}");
            assert!(!unchanged.iter().any(|l| l.contains(name)), "{unchanged:?}");
        }
    }

    #[test]
    fn store_counters_parse_and_show_in_the_diff() {
        assert_counters_round_trip(&STORE_COUNTERS);
    }

    #[test]
    fn wrong_path_counters_parse_and_default_to_zero() {
        assert_counters_round_trip(&WRONG_PATH_COUNTERS);
    }

    #[test]
    fn mix_counters_parse_and_default_to_zero() {
        assert_counters_round_trip(&MIX_COUNTERS);
    }

    #[test]
    fn sweep_counters_parse_and_default_to_zero() {
        assert_counters_round_trip(&SWEEP_COUNTERS);
    }

    #[test]
    fn sampled_counters_parse_and_default_to_zero() {
        assert_counters_round_trip(&SAMPLED_COUNTERS);
    }

    #[test]
    fn every_figures_counter_round_trips_and_shows_in_the_diff() {
        assert_counters_round_trip(&figures_counters());
    }

    #[test]
    fn rejects_foreign_or_truncated_files() {
        assert!(parse("{}").is_none());
        assert!(parse("{\"schema\": \"bebop-bench-figures/v1\"}").is_none());
        assert!(parse("not json at all").is_none());
        let with_counter = |value: &str| {
            report(1000.0, 1000.0).replacen(
                "\"threads\"",
                &format!("\"counters\": {{\"x\": {value}}},\n  \"threads\""),
                1,
            )
        };
        assert_eq!(parse(&with_counter("1")).map(|r| r.counter("x")), Some(1));
        assert!(parse(&with_counter("-1")).is_none());
        assert!(parse(&with_counter("1.5")).is_none());
        // Every prefix of a real report parses to something or to nothing,
        // never to a panic: the committed baseline, and a report with counters.
        let committed = include_str!("../../../BENCH_figures.json");
        let timings = [Timing {
            name: "fig8",
            wall_s: 1.0,
            uops: 10,
        }];
        let rendered = render(2, 1000, 6, &figures_counters(), &timings);
        for text in [committed, rendered.as_str()] {
            assert!(parse(text).is_some());
            for end in (0..text.len()).filter(|&end| text.is_char_boundary(end)) {
                let _ = parse(&text[..end]);
            }
        }
    }

    #[test]
    fn diff_passes_within_tolerance() {
        let base = parse(&report(1000.0, 1000.0)).unwrap();
        let cur = parse(&report(900.0, 500.0)).unwrap();
        // Total dropped 10% (within 20%); fig8 dropped 50% but only informs.
        let d = diff(&base, &cur, 0.20, None);
        assert!(d.failure.is_none(), "{:?}", d.lines);
        assert!(d.lines.iter().any(|l| l.contains("REGRESSION")));
    }

    #[test]
    fn diff_fails_on_aggregate_regression() {
        let base = parse(&report(1000.0, 1000.0)).unwrap();
        let cur = parse(&report(700.0, 1000.0)).unwrap();
        let d = diff(&base, &cur, 0.20, None);
        assert!(d.failure.is_some());
    }

    #[test]
    fn per_experiment_gate_catches_a_single_outlier() {
        // One experiment falls to half while the aggregate stays within
        // tolerance — the exact shape the aggregate-only gate waved through.
        let base = parse(&report(1000.0, 1000.0)).unwrap();
        let cur = parse(&report(950.0, 500.0)).unwrap();
        assert!(diff(&base, &cur, 0.20, None).failure.is_none());
        let gated = diff(&base, &cur, 0.20, Some(0.35));
        let msg = gated.failure.expect("per-experiment gate must fire");
        assert!(msg.contains("fig8"), "{msg}");
        assert!(!msg.contains("aggregate"), "{msg}");
    }

    #[test]
    fn per_experiment_gate_tolerates_runner_noise() {
        // A 30% single-experiment wobble stays inside the looser 35%
        // per-experiment tolerance even though it would trip the 20%
        // aggregate tolerance if applied per row.
        let base = parse(&report(1000.0, 1000.0)).unwrap();
        let cur = parse(&report(980.0, 700.0)).unwrap();
        assert!(diff(&base, &cur, 0.20, Some(0.35)).failure.is_none());
    }

    #[test]
    fn per_experiment_gate_fails_on_missing_experiment() {
        let base = parse(&report(1000.0, 1000.0)).unwrap();
        let one_exp = r#"{
  "schema": "bebop-bench-figures/v1",
  "threads": 4,
  "uops_per_run": 200000,
  "total_uops_per_sec": 1000.0,
  "experiments": [
    {"name": "table2", "wall_s": 1.0, "uops": 500, "uops_per_sec": 500.0}
  ]
}
"#;
        let cur = parse(one_exp).unwrap();
        // Aggregate-only mode reports the hole but does not gate on it.
        assert!(diff(&base, &cur, 0.20, None).failure.is_none());
        let msg = diff(&base, &cur, 0.20, Some(0.35))
            .failure
            .expect("missing experiment must fail the per-experiment gate");
        assert!(msg.contains("fig8 missing"), "{msg}");
    }

    #[test]
    fn per_experiment_gate_reports_aggregate_and_experiment_failures_together() {
        let base = parse(&report(1000.0, 1000.0)).unwrap();
        let cur = parse(&report(500.0, 100.0)).unwrap();
        let msg = diff(&base, &cur, 0.20, Some(0.35)).failure.unwrap();
        assert!(msg.contains("aggregate"), "{msg}");
        assert!(msg.contains("fig8"), "{msg}");
    }

    #[test]
    fn a_changed_job_mix_is_noted_on_its_row_only_and_never_gates() {
        let base = parse(&report(1000.0, 1000.0)).unwrap();
        let cur = parse(&report(1000.0, 1000.0).replacen(
            "\"uops\": 500, \"uops_per_sec\": 1000",
            "\"uops\": 400, \"uops_per_sec\": 1000",
            1,
        ))
        .unwrap();
        assert_eq!(cur.experiments[1].2, 400, "fig8's row was edited");
        for per_experiment in [None, Some(0.35)] {
            let same = diff(&base, &base, 0.20, per_experiment);
            let changed = diff(&base, &cur, 0.20, per_experiment);
            assert_eq!(same.failure, changed.failure);
            let noted: Vec<&String> = changed
                .lines
                .iter()
                .filter(|l| l.contains("job mix changed"))
                .collect();
            assert_eq!(noted.len(), 1, "{:?}", changed.lines);
            assert!(noted[0].trim_start().starts_with("fig8"), "{}", noted[0]);
            assert!(noted[0].ends_with("job mix changed: 500 -> 400 µops"));
            assert!(!same.lines.iter().any(|l| l.contains("job mix")));
        }
    }

    #[test]
    fn diff_improvements_never_fail() {
        let base = parse(&report(1000.0, 1000.0)).unwrap();
        let cur = parse(&report(5000.0, 5000.0)).unwrap();
        assert!(diff(&base, &cur, 0.20, None).failure.is_none());
    }
}
