//! The three benchmark workloads.
//!
//! Each workload splits into a set-up (what `setup_s` times) and a pass of
//! independent cells (what `uops_per_s` times, cell by cell). Every cell
//! returns a digest of its simulated output, which the caller checks against
//! the pinned goldens or against the first pass.

use crate::calib::{self, Elasticity};
use crate::spans::Tracer;
use bebop::{
    run_source, PredictorKind, SimStats, TraceBuffer, TraceStore, UopSource, WorkloadSpec,
};
use bebop_bench::sampling::{
    cluster_slices, combine_weighted, run_sampled_with, workload_seed, SampledRow, SamplingConfig,
};
use bebop_bench::sweep::{run_sweep_jobs, CellStatus, SweepOptions, SweepRequest};
use bebop_bench::TraceCachePolicy;
use bebop_trace::{fnv1a, profile_slices, FNV_OFFSET_BASIS};
use bebop_uarch::{Pipeline, PipelineConfig};
use std::fs;
use std::path::{Path, PathBuf};

/// The workload names, as `--workload` takes them.
pub const NAMES: [&str; 3] = ["table2-pipeline", "geometry-sweep", "sample-warm-store"];

/// Committed µ-ops per Table II and sweep cell (the `figures` default).
const CELL_UOPS: u64 = 200_000;
/// Committed µ-ops per sampled benchmark: the full-run budget being estimated.
const SAMPLE_UOPS: u64 = 500_000;
/// Sweep checkpoint interval: three snapshots per 200K-µop cell.
const CHECKPOINT_EVERY: u64 = 50_000;

/// FNV-1a digest of a byte string.
pub fn digest(bytes: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET_BASIS, bytes)
}

/// FNV-1a digest of a value's full `Debug` rendering.
pub fn digest_debug(value: &impl std::fmt::Debug) -> u64 {
    digest(format!("{value:?}").as_bytes())
}

/// The repository's workload specifications with the benchmark seed XORed
/// into each generator seed; every mix, loop, branch and memory profile is
/// kept, and seed 0 leaves the specifications untouched.
fn seeded(subset: bool, seed: u64) -> Vec<WorkloadSpec> {
    let mut specs = bebop_bench::workloads(subset);
    for spec in &mut specs {
        spec.seed ^= seed;
    }
    specs
}

pub trait Workload {
    /// Builds the inputs a pass needs; a repeat replaces the previous ones.
    fn setup(&mut self, tr: &mut Tracer) -> Result<(), String>;
    /// Independent cells per pass.
    fn cells(&self) -> usize;
    /// Program µ-ops one pass reports on (the `uops_per_s` numerator).
    fn pass_uops(&self) -> u64;
    /// Prepares a fresh pass.
    fn begin_pass(&mut self, _pass: usize) {}
    /// Runs one cell and returns the digest of its output.
    fn run_cell(&mut self, cell: usize, tr: &mut Tracer) -> Result<u64, String>;
    /// The specifications and per-recording budget the layer probes use.
    fn probe_specs(&self) -> (&[WorkloadSpec], u64);
    /// How far the workload's times follow the host-speed probes.
    fn elasticity(&self) -> Elasticity;
}

pub fn by_name(name: &str, seed: u64, work: &Path) -> Option<Box<dyn Workload>> {
    match name {
        "table2-pipeline" => Some(Box::new(Table2 {
            specs: seeded(false, seed),
            bufs: Vec::new(),
            pipeline: PipelineConfig::baseline_6_60(),
        })),
        "geometry-sweep" => {
            let specs = seeded(true, seed);
            let rows = specs
                .iter()
                .map(|s| SweepRequest::bebop_geometry(vec![s.clone()], CELL_UOPS))
                .collect();
            Some(Box::new(Sweep {
                specs,
                rows,
                work: work.to_path_buf(),
                store: None,
                dir: work.join("sweep"),
            }))
        }
        "sample-warm-store" => Some(Box::new(Sample {
            specs: seeded(true, seed),
            store: None,
            work: work.to_path_buf(),
            cfg: SamplingConfig::for_budget(SAMPLE_UOPS),
            pipeline: PipelineConfig::baseline_vp_6_60(),
        })),
        _ => None,
    }
}

/// Records every specification and saves it to a fresh store under `work`.
fn fill_store(
    tr: &mut Tracer,
    work: &Path,
    specs: &[WorkloadSpec],
    uops: u64,
) -> Result<TraceStore, String> {
    let dir = work.join("store");
    let _ = fs::remove_dir_all(&dir);
    let store = TraceStore::open(&dir).map_err(|e| format!("trace store: {e}"))?;
    for spec in specs {
        let buf = tr.span("trace.record", uops, |_| TraceBuffer::record(spec, uops));
        tr.span("trace.store.save", buf.len() as u64, |_| {
            store.save(spec, uops, &buf)
        })
        .map_err(|e| format!("saving {}: {e}", spec.name))?;
    }
    Ok(store)
}

/// Checks that a cell read its recording from the store rather than
/// regenerating it.
fn expect_hit(store: &TraceStore, misses_before: u64) -> Result<(), String> {
    if store.misses() == misses_before {
        Ok(())
    } else {
        Err("trace store miss on a warm store".to_string())
    }
}

/// Table II: every specification replayed on `Baseline_6_60` without value
/// prediction.
struct Table2 {
    specs: Vec<WorkloadSpec>,
    bufs: Vec<TraceBuffer>,
    pipeline: PipelineConfig,
}

impl Workload for Table2 {
    fn setup(&mut self, tr: &mut Tracer) -> Result<(), String> {
        self.bufs.clear();
        for spec in &self.specs {
            let buf = tr.span("trace.record", CELL_UOPS, |_| {
                TraceBuffer::record(spec, CELL_UOPS)
            });
            self.bufs.push(buf);
        }
        Ok(())
    }

    fn cells(&self) -> usize {
        self.specs.len()
    }

    fn pass_uops(&self) -> u64 {
        self.specs.len() as u64 * CELL_UOPS
    }

    fn run_cell(&mut self, cell: usize, tr: &mut Tracer) -> Result<u64, String> {
        let buf = &self.bufs[cell];
        let stats = tr.span("core.run_source", CELL_UOPS, |_| {
            run_source(
                UopSource::Replay(buf),
                &self.pipeline,
                &PredictorKind::None,
                CELL_UOPS,
            )
        });
        if stats.uops != CELL_UOPS {
            return Err(format!("committed {} of {CELL_UOPS} µ-ops", stats.uops));
        }
        tr.count("vp.dvtage.pass_predictions", 0);
        tr.count("core.bebop.pass_predictions", 0);
        Ok(digest_debug(&stats))
    }

    fn probe_specs(&self) -> (&[WorkloadSpec], u64) {
        (&self.specs, CELL_UOPS)
    }

    fn elasticity(&self) -> Elasticity {
        calib::PIPELINE_BOUND
    }
}

/// The `figures --sweep` geometry grid with traces loaded from a warm store.
/// Each workload's row of the grid (all 11 variants) is its own sweep in a
/// fresh directory, run one grid cell per `run_sweep_jobs` call (`max_cells`
/// 1), as an interrupted sweep is resumed: a call replays the row's journal,
/// loads the row's trace, simulates one variant with its checkpoints and
/// appends it to the journal. A benchmark cell is one such call, short enough
/// for the host-speed calibration on either side to follow the host.
struct Sweep {
    specs: Vec<WorkloadSpec>,
    rows: Vec<SweepRequest>,
    work: PathBuf,
    store: Option<TraceStore>,
    dir: PathBuf,
}

impl Sweep {
    /// Grid cells per row: the geometry variants.
    fn variants(&self) -> usize {
        self.rows.first().map_or(0, |r| r.variants.len())
    }
}

impl Workload for Sweep {
    fn setup(&mut self, tr: &mut Tracer) -> Result<(), String> {
        self.store = None;
        self.store = Some(fill_store(tr, &self.work, &self.specs, CELL_UOPS)?);
        Ok(())
    }

    fn cells(&self) -> usize {
        self.rows.len() * self.variants()
    }

    fn pass_uops(&self) -> u64 {
        self.cells() as u64 * CELL_UOPS
    }

    fn begin_pass(&mut self, pass: usize) {
        let _ = fs::remove_dir_all(&self.dir);
        self.dir = self.work.join(format!("sweep-{pass}"));
    }

    fn run_cell(&mut self, cell: usize, tr: &mut Tracer) -> Result<u64, String> {
        let store = self.store.as_ref().ok_or("sweep run before set-up")?;
        let (row, step) = (cell / self.variants(), cell % self.variants());
        let req = &self.rows[row];
        let misses = store.misses();
        let opts = SweepOptions {
            checkpoint_every: CHECKPOINT_EVERY,
            max_cells: Some(1),
            ..SweepOptions::default()
        };
        let dir = self.dir.join(row.to_string());
        let report = tr
            .span("bench.run_sweep_jobs", req.uops, |_| {
                run_sweep_jobs(req, &dir, Some(store), &opts)
            })
            .map_err(|e| format!("sweep engine: {e}"))?;
        tr.count(
            "bench.sweep.cells_quarantined",
            report.quarantined.len() as u64,
        );
        tr.count("bench.sweep.io_retries", report.io_retries);
        expect_hit(store, misses)?;
        if let Some((label, kind, reason)) = report.quarantined.first() {
            return Err(format!("quarantined {label}: {kind:?}: {reason}"));
        }
        let rec = match report.cells.get(step) {
            Some(rec)
                if report.executed == 1
                    && report.resumed == step
                    && rec.variant as usize == step
                    && rec.status == CellStatus::Ok =>
            {
                rec
            }
            _ => {
                return Err(format!(
                    "engine executed {} and resumed {} cells at step {step}",
                    report.executed, report.resumed
                ))
            }
        };
        let name = if step == 0 {
            "vp.dvtage.pass_predictions"
        } else {
            "core.bebop.pass_predictions"
        };
        tr.count(name, rec.vp_predicted);
        if step + 1 < self.variants() {
            return Ok(digest_debug(rec));
        }
        let ledger = match (report.complete, &report.ledger_path) {
            (true, Some(path)) => fs::read(path).map_err(|e| format!("reading ledger: {e}"))?,
            _ => return Err("sweep incomplete".to_string()),
        };
        Ok(digest(&ledger))
    }

    fn probe_specs(&self) -> (&[WorkloadSpec], u64) {
        (&self.specs, CELL_UOPS)
    }

    fn elasticity(&self) -> Elasticity {
        calib::SWEEP
    }
}

/// `figures --sample --trace-dir` against a warm store: D-VTAGE on
/// `Baseline_VP_6_60`, one cell per benchmark.
struct Sample {
    specs: Vec<WorkloadSpec>,
    store: Option<TraceStore>,
    work: PathBuf,
    cfg: SamplingConfig,
    pipeline: PipelineConfig,
}

impl Workload for Sample {
    fn setup(&mut self, tr: &mut Tracer) -> Result<(), String> {
        self.store = None;
        self.store = Some(fill_store(tr, &self.work, &self.specs, SAMPLE_UOPS)?);
        Ok(())
    }

    fn cells(&self) -> usize {
        self.specs.len()
    }

    fn pass_uops(&self) -> u64 {
        self.specs.len() as u64 * SAMPLE_UOPS
    }

    fn run_cell(&mut self, cell: usize, tr: &mut Tracer) -> Result<u64, String> {
        let store = self.store.as_ref().ok_or("sampling run before set-up")?;
        let misses = store.misses();
        let row = if tr.is_on() {
            sampled_row_traced(tr, store, &self.specs[cell], &self.cfg, &self.pipeline)?
        } else {
            let out = run_sampled_with(
                &self.specs[cell..=cell],
                SAMPLE_UOPS,
                &self.cfg,
                &self.pipeline,
                &PredictorKind::DVtage,
                &TraceCachePolicy::default(),
                Some(store),
            );
            out.rows.into_iter().next().ok_or("no sampled row")?
        };
        expect_hit(store, misses)?;
        let predicted: u64 = row.per_phase.iter().map(|s| s.vp.predicted).sum();
        tr.count("vp.dvtage.pass_predictions", predicted);
        tr.count("core.bebop.pass_predictions", 0);
        Ok(digest_debug(&row))
    }

    fn probe_specs(&self) -> (&[WorkloadSpec], u64) {
        (&self.specs, SAMPLE_UOPS)
    }

    /// Not fitted: functional warming and detailed slices are pipeline code.
    fn elasticity(&self) -> Elasticity {
        calib::PIPELINE_BOUND
    }
}

/// `run_sampled_with` for one benchmark, composed from the layer calls it
/// makes so that each can be timed: store load, BBV profiling, clustering,
/// and per phase a functionally warmed, then detailed, slice run.
fn sampled_row_traced(
    tr: &mut Tracer,
    store: &TraceStore,
    spec: &WorkloadSpec,
    cfg: &SamplingConfig,
    pipeline: &PipelineConfig,
) -> Result<SampledRow, String> {
    let buf = tr
        .span("trace.store.load", SAMPLE_UOPS, |_| {
            store.load(spec, SAMPLE_UOPS)
        })
        .ok_or("trace store miss on a warm store")?;
    let slices = tr.span("trace.bbv", buf.len() as u64, |_| {
        profile_slices(&buf, cfg.slice_uops)
    });
    let clustering = tr.span("bench.cluster", slices.len() as u64, |_| {
        cluster_slices(&slices, cfg.max_phases, workload_seed(spec))
    });
    let mut per_phase = Vec::with_capacity(clustering.phases.len());
    let mut sampled_uops = 0;
    for phase in &clustering.phases {
        let rep = &slices[phase.representative];
        let stats = slice_traced(
            tr,
            &buf,
            pipeline,
            &PredictorKind::DVtage,
            (rep.start, rep.end),
            cfg.warmup_uops,
        )?;
        sampled_uops += stats.uops + buf.warmup_start(rep.start, cfg.warmup_uops).1;
        per_phase.push(stats);
    }
    let weights: Vec<f64> = clustering.phases.iter().map(|p| p.weight).collect();
    let weighted: Vec<(SimStats, f64)> = per_phase.iter().copied().zip(weights.clone()).collect();
    Ok(SampledRow {
        name: spec.name.clone(),
        slices: slices.len(),
        phases: clustering.phases.len(),
        weights,
        sampled: combine_weighted(&weighted),
        per_phase,
        sampled_uops,
    })
}

/// `bebop::run_slice` composed from its public pipeline calls, with the
/// functional-warming prefix (`uarch.warm`) and the detailed warm-up plus
/// measurement window (`uarch.slice`) in separate spans.
pub fn slice_traced(
    tr: &mut Tracer,
    buf: &TraceBuffer,
    pipeline: &PipelineConfig,
    predictor: &PredictorKind,
    (start, end): (usize, usize),
    warmup_uops: u64,
) -> Result<SimStats, String> {
    buf.replay_range(start, end).map_err(|e| format!("{e:?}"))?;
    let (warm_start, warm_committed) = buf.warmup_start(start, warmup_uops);
    let mut p = predictor.build();
    let mut pipe = Pipeline::new(pipeline.clone());
    let mut pos = 0u64;
    if warm_start > 0 {
        let mut prefix = buf
            .replay_range(0, warm_start)
            .map_err(|e| format!("{e:?}"))?;
        let warmed = tr.span_by(
            "uarch.warm",
            |_| pipe.warm_functional(&mut prefix, &mut p, u64::MAX, &mut pos),
            |&warmed| warmed,
        );
        tr.count("uarch.warm.uops", warmed);
    }
    let mut stream = buf
        .replay_range(warm_start, end)
        .map_err(|e| format!("{e:?}"))?;
    let stats = tr.span_by(
        "uarch.slice",
        |_| {
            pipe.run_segment(&mut stream, &mut p, warm_committed, &mut pos);
            let snapshot = pipe.stats_snapshot();
            pipe.run_segment(&mut stream, &mut p, u64::MAX, &mut pos);
            pipe.finish(&mut p).delta_since(&snapshot)
        },
        |stats| warm_committed + stats.uops,
    );
    tr.count("uarch.slice.uops", warm_committed + stats.uops);
    Ok(stats)
}

/// Records the first `n` specifications at `uops` for the layer probes.
pub fn record_probe_set(
    specs: &[WorkloadSpec],
    n: usize,
    uops: u64,
) -> Vec<(WorkloadSpec, TraceBuffer)> {
    specs
        .iter()
        .take(n)
        .map(|s| (s.clone(), TraceBuffer::record(s, uops)))
        .collect()
}
