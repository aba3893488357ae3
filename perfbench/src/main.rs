//! Host-performance benchmark of the BeBoP simulator.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--bless]
//! ```
//!
//! Runs from the repository root. One run: set the workload up several times
//! (`setup_s` is the median), run one discarded warm-up pass, then run whole
//! passes for about `--seconds`, timing every cell. Every set-up and cell time
//! is scaled to a reference host speed by the host-speed probes of [`calib`].
//! `uops_per_s` is the geometric mean over cells of each cell's program µ-ops
//! over its median scaled time, so a spell of unusual host speed during part
//! of the run cannot dominate. Every cell's output digest is
//! checked against `goldens.txt` (seed 0) or against the warm-up pass (other
//! seeds); `error_rate` is printed from the same count.
//!
//! With `--trace 1` the timed passes alternate between untraced and traced,
//! the layer probes run afterwards, and the per-layer metrics are reported
//! instead of the end-to-end ones. The last line of standard output is one
//! JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
//! `--bless` prints the warm-up pass's digests in `goldens.txt` form instead.

mod calib;
mod probes;
mod spans;
mod workloads;

use bebop::{panic_reason, par};
use calib::{HostClock, Timing};
use spans::Tracer;
use std::collections::BTreeMap;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::Workload;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Timed passes per run at the least, whatever `--seconds` says.
const MIN_TIMED_PASSES: usize = 3;
/// A cell that runs longer than this counts as timed out (failed).
const CELL_TIMEOUT: Duration = Duration::from_secs(60);
/// Pinned per-cell output digests at seed 0: `<workload> <cell> <digest>`.
const GOLDENS: &str = include_str!("../goldens.txt");

const USAGE: &str =
    "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--bless]";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    bless: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut bless) = (None, 0, 10, false, false);
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            bless = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {:?}",
            workloads::NAMES
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        bless,
    })
}

pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or("VmHWM missing from /proc/self/status".to_string())
}

/// Checks cell digests against the goldens (seed 0) or the first pass.
struct Checker {
    expected: Vec<Option<u64>>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn new(workload: &str, cells: usize, pinned: bool) -> Result<Self, String> {
        let mut expected = vec![None; cells];
        if pinned {
            for line in GOLDENS.lines().filter(|l| l.starts_with(workload)) {
                let f: Vec<&str> = line.split_whitespace().collect();
                let parsed = match f[..] {
                    [w, cell, d] if w == workload => cell
                        .parse::<usize>()
                        .ok()
                        .zip(u64::from_str_radix(d, 16).ok()),
                    _ => None,
                };
                match parsed {
                    Some((cell, d)) if cell < cells => expected[cell] = Some(d),
                    _ => return Err(format!("malformed golden line: {line}")),
                }
            }
            if expected.iter().any(Option::is_none) {
                return Err(format!("goldens.txt does not pin every {workload} cell"));
            }
        }
        Ok(Checker {
            expected,
            attempted: 0,
            failed: 0,
        })
    }

    fn record(&mut self, cell: usize, outcome: Result<u64, String>) {
        self.attempted += 1;
        let failure = match outcome {
            Err(e) => Some(e),
            Ok(d) => match self.expected[cell] {
                None => {
                    self.expected[cell] = Some(d);
                    None
                }
                Some(e) if e == d => None,
                Some(e) => Some(format!("digest {d:016x}, expected {e:016x}")),
            },
        };
        if let Some(why) = failure {
            self.failed += 1;
            eprintln!("perfbench: cell {cell} failed: {why}");
        }
    }
}

/// Runs one pass and returns each cell's host seconds.
fn run_pass(
    wl: &mut dyn Workload,
    tr: &mut Tracer,
    clock: &mut HostClock,
    check: &mut Checker,
    pass: usize,
) -> Result<Vec<Timing>, String> {
    wl.begin_pass(pass);
    let mut times = Vec::with_capacity(wl.cells());
    for cell in 0..wl.cells() {
        let work = wl.pass_uops() / wl.cells() as u64;
        let (caught, took) = clock.time(|| {
            catch_unwind(AssertUnwindSafe(|| {
                tr.span("cell", work, |tr| wl.run_cell(cell, tr))
            }))
        });
        let outcome = match caught {
            Ok(r) if took.raw > CELL_TIMEOUT.as_secs_f64() => {
                r.and(Err(format!("timed out after {:.1} s", took.raw)))
            }
            Ok(r) => r,
            Err(p) => Err(format!("panic: {}", panic_reason(p))),
        };
        check.record(cell, outcome);
        times.push(took);
    }
    Ok(times)
}

/// Program µ-ops per host second: the geometric mean over cells of each
/// cell's µ-ops (every cell does the same number) over its median time across
/// `passes`, scaled (`time = |t| t.scaled`) or raw. Timing cells rather than
/// passes, and taking each cell's median, keeps a spell of host speed that the
/// calibration misses, shorter than half the run, from moving the result. The
/// geometric mean keeps the few cells a seed turns into ~2x slower programs
/// from dominating: over 20 seeds, it spread 4% where the summed time spread
/// 7%.
fn uops_per_s(pass_uops: u64, passes: &[Vec<Timing>], time: fn(&Timing) -> f64) -> f64 {
    let cells = passes.first().map_or(0, Vec::len);
    let cell_uops = pass_uops as f64 / cells as f64;
    let log_rate: f64 = (0..cells)
        .map(|c| (cell_uops / median(passes.iter().map(|p| time(&p[c])).collect())).ln())
        .sum();
    (log_rate / cells as f64).exp()
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Units of the per-layer metrics, by name suffix.
fn layer_unit(name: &str) -> &'static str {
    if name.ends_with("ns_per_uop") {
        "ns/uop"
    } else if name.ends_with("ns_per_slice") {
        "ns/slice"
    } else if name.ends_with("ns_per_cell") {
        "ns/cell"
    } else if name.ends_with(".ns") {
        "ns"
    } else if name.ends_with("bytes_per_uop") {
        "bytes/uop"
    } else if name.ends_with("bytes") {
        "bytes"
    } else if name.ends_with("cycles_per_uop") {
        "cycles/uop"
    } else if name.ends_with("per_kuop") {
        "1/kuop"
    } else if name.ends_with("rss_mib") {
        "MiB"
    } else if name.ends_with("uops_per_s") {
        "uops/s"
    } else if name.ends_with("accuracy") || name.ends_with("coverage") || name.ends_with("share") {
        "ratio"
    } else {
        "count"
    }
}

/// Timed passes of one run: per-cell times of the untraced and traced
/// passes, and the traced passes' total wall seconds.
#[derive(Default)]
struct Passes {
    untraced: Vec<Vec<Timing>>,
    traced: Vec<Vec<Timing>>,
    traced_seconds: f64,
}

/// Runs whole passes until about `seconds` have gone, at least
/// [`MIN_TIMED_PASSES`]; with `trace`, every second pass is traced.
fn timed_passes(
    wl: &mut dyn Workload,
    tr: &mut Tracer,
    clock: &mut HostClock,
    check: &mut Checker,
    seconds: u64,
    trace: bool,
) -> Result<Passes, String> {
    let mut passes = Passes::default();
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    for pass in 1.. {
        let tracing = trace && pass % 2 == 0;
        tr.set_on(tracing);
        let pass_start = Instant::now();
        let times = run_pass(wl, tr, clock, check, pass)?;
        if tracing {
            passes.traced_seconds += pass_start.elapsed().as_secs_f64();
            passes.traced.push(times);
        } else {
            passes.untraced.push(times);
        }
        let elapsed = started.elapsed();
        if pass >= MIN_TIMED_PASSES && elapsed + elapsed / pass as u32 > budget {
            break;
        }
    }
    tr.set_on(false);
    Ok(passes)
}

/// The per-layer metrics of a traced run: what the traced passes counted and
/// timed, then the layer probes over the workload's first recordings.
fn layer_metrics(
    wl: Box<dyn Workload>,
    tr: &mut Tracer,
    passes: &Passes,
    pass_mark: usize,
    work: &Path,
) -> Result<(BTreeMap<&'static str, f64>, probes::ProbeReport), String> {
    let mut layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    let untraced = uops_per_s(wl.pass_uops(), &passes.untraced, |t| t.scaled);
    layer.insert("peak_rss_mib", peak_rss_mib()?);
    layer.insert(
        "trace.record.ns_per_uop",
        tr.ns_per_unit_since(0, "trace.record"),
    );
    layer.insert(
        "bench.trace_overhead.uops_per_s",
        uops_per_s(wl.pass_uops(), &passes.traced, |t| t.scaled) - untraced,
    );
    let (warm_ns, _) = tr.totals_since(pass_mark, "uarch.warm");
    layer.insert(
        "uarch.warm.pass_share",
        warm_ns as f64 / 1e9 / passes.traced_seconds,
    );
    let traced_passes = passes.traced.len() as u64;
    for name in [
        "uarch.warm.uops",
        "uarch.slice.uops",
        "vp.dvtage.pass_predictions",
        "core.bebop.pass_predictions",
        "bench.sweep.cells_quarantined",
        "bench.sweep.io_retries",
    ] {
        let total = tr.counts().get(name).copied().unwrap_or(0);
        layer.insert(name, (total / traced_passes) as f64);
    }
    let (specs, budget) = wl.probe_specs();
    let set = workloads::record_probe_set(specs, probes::PROBE_RECORDINGS, budget);
    drop(wl);
    tr.set_on(true);
    let report = probes::run(tr, &set, budget, work);
    tr.set_on(false);
    Ok((layer, report))
}

fn run(args: &Args, work: &Path) -> Result<String, String> {
    let mut wl = workloads::by_name(&args.workload, args.seed, work).ok_or("unknown workload")?;
    let mut tr = Tracer::new();
    fs::create_dir_all(work).map_err(|e| format!("{}: {e}", work.display()))?;

    let mut clock = HostClock::new(wl.elasticity());
    tr.set_on(args.trace);
    let mut setup_times = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        let (done, took) = clock.time(|| wl.setup(&mut tr));
        done?;
        setup_times.push(took);
    }
    tr.set_on(false);

    // The warm-up pass is not timed; at a seed without goldens its digests
    // become the expected ones.
    let pinned = args.seed == 0 && !args.bless;
    let mut check = Checker::new(&args.workload, wl.cells(), pinned)?;
    run_pass(wl.as_mut(), &mut tr, &mut clock, &mut check, 0)?;
    if args.bless {
        let lines: Vec<String> = check
            .expected
            .iter()
            .enumerate()
            .map(|(c, d)| format!("{} {c} {:016x}", args.workload, d.unwrap_or(0)))
            .collect();
        return Ok(lines.join("\n"));
    }

    let pass_mark = tr.mark();
    let passes = timed_passes(
        wl.as_mut(),
        &mut tr,
        &mut clock,
        &mut check,
        args.seconds,
        args.trace,
    )?;
    let (mut attempted, mut failed) = (check.attempted, check.failed);
    println!(
        "workload {} seed {}: {} timed passes of {} cells after one warm-up pass",
        args.workload,
        args.seed,
        passes.untraced.len() + passes.traced.len(),
        wl.cells()
    );
    println!(
        "error_rate {} ratio ({failed} of {attempted} cells failed)",
        failed as f64 / attempted as f64
    );
    let readings = clock.readings();
    println!(
        "host speed: median throughput loop {:.3} ns/iter, chase {:.3} ns/load (reference {}, {}); unscaled uops_per_s {:.0}, setup_s {:.4}",
        median(readings.iter().map(|r| r.loop_ns).collect()),
        median(readings.iter().map(|r| r.chase_ns).collect()),
        calib::REF.loop_ns,
        calib::REF.chase_ns,
        uops_per_s(wl.pass_uops(), &passes.untraced, |t| t.raw),
        median(setup_times.iter().map(|t| t.raw).collect())
    );

    let metrics: Vec<Metric> = if args.trace {
        let (layer, report) = layer_metrics(wl, &mut tr, &passes, pass_mark, work)?;
        attempted += report.attempted;
        failed += report.failed;
        let spans_path = Path::new(".perfbench")
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        fs::write(&spans_path, tr.to_jsonl())
            .map_err(|e| format!("{}: {e}", spans_path.display()))?;
        println!("spans: {}", spans_path.display());
        let all = layer.into_iter().chain(report.metrics);
        all.map(|(name, value)| Metric {
            name,
            value,
            unit: layer_unit(name),
        })
        .collect()
    } else {
        vec![
            Metric {
                name: "uops_per_s",
                value: uops_per_s(wl.pass_uops(), &passes.untraced, |t| t.scaled),
                unit: "uops/s",
            },
            Metric {
                name: "setup_s",
                value: median(setup_times.iter().map(|t| t.scaled).collect()),
                unit: "s",
            },
        ]
    };
    println!("counts (deterministic):");
    for m in metrics.iter().filter(|m| m.unit == "count") {
        println!("  {:<36} {}", m.name, m.value);
    }
    println!("timings and ratios:");
    for m in metrics.iter().filter(|m| m.unit != "count") {
        println!("  {:<36} {:.6} {}", m.name, m.value, m.unit);
    }
    Ok(result_line(failed == 0, attempted, failed, &metrics))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // One simulation worker: the second core takes the OS and harness work.
    par::set_threads(1);
    let work: PathBuf =
        Path::new(".perfbench").join(format!("{}-{}", args.workload, std::process::id()));
    let result = run(&args, &work);
    let _ = fs::remove_dir_all(&work);
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
