//! Layer probes of the traced run.
//!
//! Each probe times calls into one layer's public functions from benchmark
//! code, over recordings of the workload's first specifications. A layer
//! whose cost can only be seen inside a larger call is timed as the
//! difference of two calls that differ by that layer alone (for example
//! `run_source` with and without a value predictor). Every probe repeats
//! [`REPEATS`] times and reports the median; deterministic ratios come from
//! the first repeat.

use crate::median;
use crate::spans::Tracer;
use crate::workloads::slice_traced;
use bebop::{
    configs, run_fingerprint, run_slice, run_source, run_source_resumable, PredictorKind,
    ResumeOptions, RunOutcome, SimCheckpoint, SimStats, TraceBuffer, TraceStore, UopSource,
    WorkloadSpec,
};
use bebop_bench::sampling::{cluster_slices, workload_seed};
use bebop_bench::sweep::{CellRecord, SweepLedger, SweepRequest};
use bebop_isa::fetch_block_pc;
use bebop_trace::profile_slices;
use bebop_uarch::{Pipeline, PipelineConfig, PredictCtx, ValuePredictor, VpStats};
use std::collections::BTreeMap;
use std::fs;
use std::hint::black_box;
use std::path::Path;

/// Recordings the probes run over (the first specifications of the workload).
pub const PROBE_RECORDINGS: usize = 6;
/// Committed µ-ops per recording that the pipeline and predictor probes run.
const PROBE_UOPS: u64 = 100_000;
/// Repeats of every timed probe.
const REPEATS: usize = 3;
/// Checkpoints written per recording by the checkpoint probe.
const CHECKPOINTS: u64 = 3;
/// Slice geometry of the BBV, clustering and slice probes.
const SLICE_UOPS: u64 = 10_000;
const SLICE_INDEX: usize = 5;
const SLICE_WARMUP: u64 = 2_500;
const MAX_PHASES: usize = 8;

/// Per-layer metric values plus the number of probe checks attempted and
/// failed (a failed check is an output that disagrees with the library's
/// own entry point).
#[derive(Default)]
pub struct ProbeReport {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl ProbeReport {
    fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: probe check failed: {what}");
        }
    }
}

/// The BeBoP geometries timed by the direct predictor loop: span name,
/// metric name and predictor.
fn bebop_geometries() -> [(&'static str, &'static str, PredictorKind); 3] {
    [
        (
            "core.bebop.small_4p",
            "core.bebop.small_4p.ns_per_uop",
            PredictorKind::BlockDVtage(configs::small_4p()),
        ),
        (
            "core.bebop.medium",
            "core.bebop.medium.ns_per_uop",
            PredictorKind::BlockDVtage(configs::medium()),
        ),
        (
            "core.bebop.large",
            "core.bebop.large.ns_per_uop",
            PredictorKind::BlockDVtage(configs::large()),
        ),
    ]
}

/// Deterministic totals of the first repeat, over the whole probe set.
#[derive(Default)]
struct Totals {
    uops: u64,
    cycles: u64,
    flushes: u64,
    dvtage: VpStats,
    bebop: VpStats,
    footprint_bytes: u64,
    recorded_uops: u64,
}

fn add_vp(into: &mut VpStats, s: &VpStats) {
    into.eligible += s.eligible;
    into.predicted += s.predicted;
    into.correct += s.correct;
}

/// Drives a predictor directly over a recording: a context built from each
/// committed µ-op, then `predict` and `train` in program order. Returns the
/// number of predictions made.
fn direct_predictor_loop(kind: &PredictorKind, buf: &TraceBuffer, block_bytes: u64) -> u64 {
    let mut p = kind.build();
    let (mut global, mut path, mut last_block, mut made) = (0u64, 0u64, None, 0u64);
    for uop in buf
        .replay()
        .filter(|u| !u.wrong_path)
        .take(PROBE_UOPS as usize)
    {
        let block = fetch_block_pc(uop.pc, block_bytes);
        let new_block = last_block != Some(block);
        last_block = Some(block);
        if uop.vp_eligible() {
            let ctx = PredictCtx {
                seq: uop.seq,
                fetch_block_pc: block,
                new_fetch_block: new_block,
                global_history: global,
                path_history: path,
                asid: uop.asid,
            };
            let predicted = p.predict(&ctx, &uop);
            made += u64::from(predicted.is_some());
            p.train(&uop, uop.value, predicted);
        }
        if let Some(b) = uop.branch {
            global = (global << 1) | u64::from(b.taken);
            path = (path << 1) ^ (uop.pc >> 2);
        }
    }
    made
}

/// Runs a BeBoP Medium pipeline over `buf` and times `CHECKPOINTS` snapshots
/// taken along the way. Returns the bytes of the last one.
fn checkpoint_probe(
    tr: &mut Tracer,
    report: &mut ProbeReport,
    buf: &TraceBuffer,
    path: &Path,
) -> u64 {
    let cfg = PipelineConfig::eole_4_60();
    let kind = PredictorKind::BlockDVtage(configs::medium());
    let source = UopSource::Replay(buf);
    let fingerprint = run_fingerprint(&source, &cfg, &kind, PROBE_UOPS);
    let mut pipe = Pipeline::new(cfg);
    let mut predictor = kind.build();
    let mut stream = source.stream();
    let mut pos = 0u64;
    let mut bytes = 0;
    for k in 1..=CHECKPOINTS {
        pipe.run_segment(
            &mut stream,
            &mut predictor,
            k * PROBE_UOPS / (CHECKPOINTS + 1),
            &mut pos,
        );
        let written = tr.span("core.checkpoint", 1, |_| {
            let ckpt = SimCheckpoint {
                fingerprint,
                committed: pipe.committed_uops(),
                stream_pos: pos,
                pipeline: pipe.save_state(),
                predictor: predictor.save_state(),
            };
            ckpt.write_atomic(path).map(|()| ckpt)
        });
        let ok = written.is_ok_and(|ckpt| {
            bytes = ckpt.encode().len() as u64;
            SimCheckpoint::load(path, fingerprint).is_ok_and(|back| back == ckpt)
        });
        report.check(ok, "checkpoint write/load round trip");
    }
    bytes
}

/// One repeat of every timed probe; records spans into `tr`.
fn probe_once(
    tr: &mut Tracer,
    report: &mut ProbeReport,
    set: &[(WorkloadSpec, TraceBuffer)],
    budget: u64,
    work: &Path,
    first: bool,
) {
    let baseline = PipelineConfig::baseline_6_60();
    let baseline_vp = PipelineConfig::baseline_vp_6_60();
    let eole = PipelineConfig::eole_4_60();
    let medium = PredictorKind::BlockDVtage(configs::medium());
    let mut totals = Totals::default();
    let mut checkpoint_bytes = 0;
    for (spec, buf) in set {
        let src = UopSource::Replay(buf);
        tr.span("trace.replay", PROBE_UOPS, |_| {
            black_box(
                buf.replay()
                    .take(PROBE_UOPS as usize)
                    .fold(0u64, |a, u| a ^ u.value),
            )
        });
        let pipe = tr.span("uarch.pipeline", PROBE_UOPS, |_| {
            run_source(src, &baseline, &PredictorKind::None, PROBE_UOPS)
        });
        tr.span("vp.dvtage", PROBE_UOPS, |_| {
            black_box(direct_predictor_loop(
                &PredictorKind::DVtage,
                buf,
                baseline_vp.fetch_block_bytes,
            ))
        });
        for (name, _, kind) in bebop_geometries() {
            tr.span(name, PROBE_UOPS, |_| {
                black_box(direct_predictor_loop(&kind, buf, eole.fetch_block_bytes))
            });
        }
        tr.span("core.eole_none", PROBE_UOPS, |_| {
            black_box(run_source(src, &eole, &PredictorKind::None, PROBE_UOPS))
        });
        let bebop = tr.span("core.eole_medium", PROBE_UOPS, |_| {
            run_source(src, &eole, &medium, PROBE_UOPS)
        });
        let resumable = tr.span("core.resumable", PROBE_UOPS, |_| {
            run_source_resumable(src, &eole, &medium, PROBE_UOPS, ResumeOptions::default())
        });
        report.check(
            resumable.outcome == RunOutcome::Complete(bebop),
            "run_source_resumable matches run_source",
        );
        checkpoint_bytes = checkpoint_probe(tr, report, buf, &work.join("probe.bbpckpt"));

        let slices = tr.span("trace.bbv", buf.len() as u64, |_| {
            profile_slices(buf, SLICE_UOPS)
        });
        tr.span("bench.cluster", slices.len() as u64, |_| {
            black_box(cluster_slices(&slices, MAX_PHASES, workload_seed(spec)))
        });
        let rep = &slices[SLICE_INDEX.min(slices.len() - 1)];
        let window = (rep.start, rep.end);
        let dvtage = &PredictorKind::DVtage;
        let sliced = slice_traced(tr, buf, &baseline_vp, dvtage, window, SLICE_WARMUP);

        if first {
            let reference = run_slice(buf, &baseline_vp, dvtage, rep.start, rep.end, SLICE_WARMUP);
            report.check(
                matches!((&sliced, &reference), (Ok(a), Ok(b)) if a == b),
                "composed slice run matches run_slice",
            );
            let in_pipeline = run_source(src, &baseline_vp, dvtage, PROBE_UOPS);
            totals.uops += pipe.uops;
            totals.cycles += pipe.cycles;
            totals.flushes += pipe.branch_flushes + pipe.vp_flushes;
            add_vp(&mut totals.dvtage, &in_pipeline.vp);
            add_vp(&mut totals.bebop, &bebop.vp);
            totals.footprint_bytes += buf.footprint_bytes() as u64;
            totals.recorded_uops += buf.len() as u64;
        }
    }

    // Store write and read paths over a fresh directory.
    let store_dir = work.join("probe-store");
    let _ = fs::remove_dir_all(&store_dir);
    match TraceStore::open(&store_dir) {
        Ok(store) => {
            for (spec, buf) in set {
                let saved = tr.span("trace.store.save", buf.len() as u64, |_| {
                    store.save(spec, budget, buf)
                });
                report.check(saved.is_ok(), "trace store save");
            }
            let bytes = store.disk_bytes();
            for (spec, buf) in set {
                let loaded = tr.span("trace.store.load", buf.len() as u64, |_| {
                    store.load(spec, budget)
                });
                report.check(
                    loaded.is_some_and(|l| l.len() == buf.len()),
                    "trace store load returns the saved recording",
                );
            }
            if first {
                report.metrics.insert("trace.store.bytes", bytes as f64);
                report
                    .metrics
                    .insert("trace.store.read_errors", store.read_errors() as f64);
            }
        }
        Err(e) => report.check(false, &format!("trace store open: {e}")),
    }
    let _ = fs::remove_dir_all(&store_dir);

    // Journal appends of one geometry sweep's worth of cell records.
    let journal_dir = work.join("probe-journal");
    let _ = fs::remove_dir_all(&journal_dir);
    let specs: Vec<WorkloadSpec> = set.iter().map(|(s, _)| s.clone()).collect();
    let req = SweepRequest::bebop_geometry(specs, budget);
    let stats = SimStats::default();
    let opened = fs::create_dir_all(&journal_dir).and_then(|()| SweepLedger::open(&journal_dir));
    match opened {
        Ok((ledger, _)) => {
            for job in req.expand() {
                let rec = CellRecord::from_stats(&job, &stats);
                let appended = tr.span("bench.sweep.journal", 1, |_| ledger.append(&rec));
                report.check(appended.is_ok(), "sweep journal append");
            }
        }
        Err(e) => report.check(false, &format!("sweep journal open: {e}")),
    }
    let _ = fs::remove_dir_all(&journal_dir);

    if first {
        let ratio = |n: u64, d: u64| n as f64 / d.max(1) as f64;
        let t = &totals;
        let m = &mut report.metrics;
        m.insert("uarch.pipeline.cycles_per_uop", ratio(t.cycles, t.uops));
        m.insert(
            "uarch.pipeline.flushes_per_kuop",
            1000.0 * ratio(t.flushes, t.uops),
        );
        m.insert("vp.dvtage.coverage", t.dvtage.coverage());
        m.insert("vp.dvtage.accuracy", t.dvtage.accuracy());
        m.insert("core.bebop.coverage", t.bebop.coverage());
        m.insert("core.bebop.accuracy", t.bebop.accuracy());
        m.insert(
            "trace.footprint.bytes_per_uop",
            ratio(t.footprint_bytes, t.recorded_uops),
        );
        m.insert("core.checkpoint.bytes", checkpoint_bytes as f64);
        m.insert(
            "core.checkpoint.count",
            (set.len() as u64 * CHECKPOINTS) as f64,
        );
    }
}

/// Per-repeat timing metrics from the spans recorded since `mark`.
fn timings_since(tr: &Tracer, mark: usize) -> Vec<(&'static str, f64)> {
    let ns = |name: &str| tr.ns_per_unit_since(mark, name);
    let mut out = vec![
        ("trace.replay.ns_per_uop", ns("trace.replay")),
        ("trace.store.save.ns_per_uop", ns("trace.store.save")),
        ("trace.store.load.ns_per_uop", ns("trace.store.load")),
        ("trace.bbv.ns_per_uop", ns("trace.bbv")),
        (
            "uarch.pipeline.ns_per_uop",
            ns("uarch.pipeline") - ns("trace.replay"),
        ),
        ("uarch.warm.ns_per_uop", ns("uarch.warm")),
        ("uarch.slice.ns_per_uop", ns("uarch.slice")),
        ("vp.dvtage.ns_per_uop", ns("vp.dvtage")),
        (
            "core.vp_in_pipeline.ns_per_uop",
            ns("core.eole_medium") - ns("core.eole_none"),
        ),
        (
            "core.resumable.ns_per_uop",
            ns("core.resumable") - ns("core.eole_medium"),
        ),
        ("core.checkpoint.ns", ns("core.checkpoint")),
        ("bench.cluster.ns_per_slice", ns("bench.cluster")),
        ("bench.sweep.journal.ns_per_cell", ns("bench.sweep.journal")),
    ];
    for (span, metric, _) in bebop_geometries() {
        out.push((metric, ns(span)));
    }
    out
}

/// Runs every probe [`REPEATS`] times over `set` and returns the medians.
pub fn run(
    tr: &mut Tracer,
    set: &[(WorkloadSpec, TraceBuffer)],
    budget: u64,
    work: &Path,
) -> ProbeReport {
    let mut report = ProbeReport::default();
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for r in 0..REPEATS {
        let mark = tr.mark();
        tr.span("probes", 0, |tr| {
            probe_once(tr, &mut report, set, budget, work, r == 0)
        });
        for (name, v) in timings_since(tr, mark) {
            samples.entry(name).or_default().push(v);
        }
    }
    for (name, v) in samples {
        report.metrics.insert(name, median(v));
    }
    report
}
