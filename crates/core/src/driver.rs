//! The simulation driver: a façade tying workloads, the pipeline model and value
//! predictors together, used by the examples, the integration tests and the
//! benchmark harness that regenerates the paper's figures.

use crate::block_dvtage::{BlockDVtage, BlockDVtageConfig};
use crate::par;
use bebop_isa::DynUop;
use bebop_trace::{RangeError, TraceBuffer, TraceCursor, TraceGenerator, WorkloadSpec};
use bebop_uarch::{
    gmean, NoValuePredictor, PerfectValuePredictor, Pipeline, PipelineConfig, PredictCtx, SimStats,
    SquashInfo, ValuePredictor,
};
use bebop_vp::{
    DVtage, LastValuePredictor, StridePredictor, TwoDeltaStridePredictor, Vtage, VtageStrideHybrid,
};

/// The value predictors that can be plugged into a simulation run.
#[derive(Debug, Clone)]
pub enum PredictorKind {
    /// No value prediction (baseline pipelines).
    None,
    /// Oracle: always predicts correctly (limit study).
    Perfect,
    /// Last Value Predictor.
    LastValue,
    /// Baseline stride predictor.
    Stride,
    /// 2-delta stride predictor (Figure 5a "2d-Stride").
    TwoDeltaStride,
    /// VTAGE (Figure 5a "VTAGE").
    Vtage,
    /// Naive VTAGE + 2-delta stride hybrid (Figure 5a "VTAGE-2d-Stride").
    VtageStrideHybrid,
    /// Instruction-based D-VTAGE (Figure 5a / 5b "D-VTAGE").
    DVtage,
    /// Block-based D-VTAGE with BeBoP (Figures 6–8), with an explicit configuration.
    BlockDVtage(BlockDVtageConfig),
}

impl PredictorKind {
    /// Instantiates the predictor as the statically dispatched [`AnyPredictor`]
    /// enum, which is what the simulation hot loop runs against.
    pub fn build(&self) -> AnyPredictor {
        match self {
            PredictorKind::None => AnyPredictor::None(NoValuePredictor),
            PredictorKind::Perfect => AnyPredictor::Perfect(PerfectValuePredictor),
            PredictorKind::LastValue => {
                AnyPredictor::LastValue(LastValuePredictor::default_config())
            }
            PredictorKind::Stride => AnyPredictor::Stride(StridePredictor::default_config()),
            PredictorKind::TwoDeltaStride => {
                AnyPredictor::TwoDeltaStride(TwoDeltaStridePredictor::default_config())
            }
            PredictorKind::Vtage => AnyPredictor::Vtage(Vtage::default_config()),
            PredictorKind::VtageStrideHybrid => {
                AnyPredictor::VtageStrideHybrid(VtageStrideHybrid::default_config())
            }
            PredictorKind::DVtage => AnyPredictor::DVtage(DVtage::default_config()),
            PredictorKind::BlockDVtage(cfg) => {
                AnyPredictor::BlockDVtage(BlockDVtage::new(cfg.clone()))
            }
        }
    }

    /// Instantiates the predictor behind a trait object, for callers that mix
    /// built-in predictors with out-of-tree [`ValuePredictor`] implementations.
    pub fn build_dyn(&self) -> Box<dyn ValuePredictor> {
        Box::new(self.build())
    }

    /// The display label used in reports and figures.
    pub fn label(&self) -> String {
        match self {
            PredictorKind::None => "none".to_string(),
            PredictorKind::Perfect => "perfect".to_string(),
            PredictorKind::LastValue => "LVP".to_string(),
            PredictorKind::Stride => "Stride".to_string(),
            PredictorKind::TwoDeltaStride => "2d-Stride".to_string(),
            PredictorKind::Vtage => "VTAGE".to_string(),
            PredictorKind::VtageStrideHybrid => "VTAGE-2d-Stride".to_string(),
            PredictorKind::DVtage => "D-VTAGE".to_string(),
            PredictorKind::BlockDVtage(_) => "BeBoP D-VTAGE".to_string(),
        }
    }
}

/// The statically dispatched union of every built-in value predictor.
///
/// # Example
///
/// ```
/// use bebop::{AnyPredictor, PredictorKind};
/// use bebop_uarch::ValuePredictor;
///
/// let mut predictor: AnyPredictor = PredictorKind::TwoDeltaStride.build();
/// assert_eq!(predictor.name(), "2d-Stride");
/// assert!(predictor.storage_bits() > 0);
/// ```
///
/// The per-µop hot loop of [`Pipeline::run`] calls the predictor three times per
/// eligible µ-op; going through `Box<dyn ValuePredictor>` made every one of those
/// calls virtual. `AnyPredictor` keeps the [`ValuePredictor`] trait for
/// extensibility (it implements the trait itself, so it composes with external
/// predictors behind `dyn`) while giving the driver a concrete type: the match
/// below compiles to a jump table and the per-variant bodies inline into the
/// monomorphised pipeline loop.
// One predictor instance exists per simulation run; its inline size is
// irrelevant next to the indirection a Box per variant would add to every call.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum AnyPredictor {
    /// No value prediction (baseline pipelines).
    None(NoValuePredictor),
    /// Oracle predictor.
    Perfect(PerfectValuePredictor),
    /// Last Value Predictor.
    LastValue(LastValuePredictor),
    /// Baseline stride predictor.
    Stride(StridePredictor),
    /// 2-delta stride predictor.
    TwoDeltaStride(TwoDeltaStridePredictor),
    /// VTAGE.
    Vtage(Vtage),
    /// Naive VTAGE + 2-delta stride hybrid.
    VtageStrideHybrid(VtageStrideHybrid),
    /// Instruction-based D-VTAGE.
    DVtage(DVtage),
    /// Block-based D-VTAGE with BeBoP.
    BlockDVtage(BlockDVtage),
}

macro_rules! dispatch {
    ($self:expr, $p:ident => $body:expr) => {
        match $self {
            AnyPredictor::None($p) => $body,
            AnyPredictor::Perfect($p) => $body,
            AnyPredictor::LastValue($p) => $body,
            AnyPredictor::Stride($p) => $body,
            AnyPredictor::TwoDeltaStride($p) => $body,
            AnyPredictor::Vtage($p) => $body,
            AnyPredictor::VtageStrideHybrid($p) => $body,
            AnyPredictor::DVtage($p) => $body,
            AnyPredictor::BlockDVtage($p) => $body,
        }
    };
}

impl AnyPredictor {
    /// The inner block-based BeBoP predictor, when this is one — used by
    /// harnesses that read its sharding counters (per-shard occupancy, cross-
    /// context steals) after a run.
    pub fn as_block_dvtage(&self) -> Option<&BlockDVtage> {
        match self {
            AnyPredictor::BlockDVtage(p) => Some(p),
            _ => None,
        }
    }
}

impl ValuePredictor for AnyPredictor {
    fn name(&self) -> &str {
        dispatch!(self, p => p.name())
    }

    #[inline]
    fn predict(&mut self, ctx: &PredictCtx, uop: &DynUop) -> Option<u64> {
        dispatch!(self, p => p.predict(ctx, uop))
    }

    #[inline]
    fn train(&mut self, uop: &DynUop, actual: u64, predicted: Option<u64>) {
        dispatch!(self, p => p.train(uop, actual, predicted))
    }

    #[inline]
    fn train_wrong_path(&mut self, uop: &DynUop, actual: u64, predicted: Option<u64>) {
        dispatch!(self, p => p.train_wrong_path(uop, actual, predicted))
    }

    #[inline]
    fn squash(&mut self, info: &SquashInfo) {
        dispatch!(self, p => p.squash(info))
    }

    fn storage_bits(&self) -> u64 {
        dispatch!(self, p => p.storage_bits())
    }

    fn save_state(&self) -> Vec<u8> {
        dispatch!(self, p => p.save_state())
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        dispatch!(self, p => p.restore_state(bytes))
    }
}

/// Where a simulation draws its dynamic µ-op stream from.
///
/// The two variants yield bit-identical streams for the same workload (the
/// `integration_replay` suite asserts `SimStats` equality for every
/// [`PredictorKind`]); the difference is pure cost. `Live` pays trace
/// generation inside the simulation loop, which is the right trade for a
/// one-off run. `Replay` walks a pre-recorded [`TraceBuffer`], which is the
/// right trade for config sweeps: the buffer is recorded once and shared by
/// reference across every configuration and worker thread.
#[derive(Debug, Clone, Copy)]
pub enum UopSource<'a> {
    /// Generate the stream live from the workload specification.
    Live(&'a WorkloadSpec),
    /// Replay a shared pre-recorded trace.
    Replay(&'a TraceBuffer),
    /// Replay only the `start..end` lane-index sub-range of a shared
    /// recording — the stream behind a phase-sampling slice run. Construct
    /// with [`UopSource::replay_slice`], which validates the bounds up front
    /// (rejecting out-of-bounds ranges and wrong-path-straddling starts with
    /// a structured [`RangeError`]).
    ReplaySlice {
        /// The shared recording.
        buf: &'a TraceBuffer,
        /// First lane index of the slice (a committed µ-op).
        start: usize,
        /// One-past-last lane index of the slice.
        end: usize,
    },
}

impl<'a> UopSource<'a> {
    /// A validated slice-bounded replay source over `buf[start..end]`.
    ///
    /// The errors of [`TraceBuffer::replay_range`] apply: inverted or
    /// out-of-bounds ranges, empty ranges, and slices starting inside a
    /// wrong-path burst are rejected here, once, so [`UopSource::stream`]
    /// can never fail later (e.g. mid-sweep on a worker thread).
    pub fn replay_slice(
        buf: &'a TraceBuffer,
        start: usize,
        end: usize,
    ) -> Result<Self, RangeError> {
        buf.replay_range(start, end)?;
        Ok(UopSource::ReplaySlice { buf, start, end })
    }

    /// Opens the µ-op stream at its start.
    pub fn stream(&self) -> UopStream<'a> {
        match self {
            UopSource::Live(spec) => UopStream::Live(TraceGenerator::new(spec)),
            UopSource::Replay(buf) => UopStream::Replay(buf.replay()),
            UopSource::ReplaySlice { buf, start, end } => UopStream::Replay(
                buf.replay_range(*start, *end)
                    // INVARIANT: the bounds were validated by
                    // `UopSource::replay_slice` at construction.
                    .expect("slice bounds validated at construction"),
            ),
        }
    }
}

/// The iterator behind a [`UopSource`]: a live generator or a replay cursor.
///
/// An enum rather than `Box<dyn Iterator>` so the pipeline's monomorphised run
/// loop keeps a concrete item-producing type (the match compiles to a branch,
/// not a virtual call per µ-op).
// One stream instance exists per simulation run; its inline size is irrelevant
// next to an indirection on every `next` call.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum UopStream<'a> {
    /// Live trace generation.
    Live(TraceGenerator),
    /// Zero-copy replay of a recorded trace.
    Replay(TraceCursor<'a>),
}

impl Iterator for UopStream<'_> {
    type Item = DynUop;

    #[inline]
    fn next(&mut self) -> Option<DynUop> {
        match self {
            UopStream::Live(g) => g.next(),
            UopStream::Replay(c) => c.next(),
        }
    }
}

/// Runs one µ-op source on one pipeline configuration with one predictor for
/// `max_uops` µ-ops and returns the statistics.
pub fn run_source(
    source: UopSource<'_>,
    pipeline: &PipelineConfig,
    predictor: &PredictorKind,
    max_uops: u64,
) -> SimStats {
    let mut p = predictor.build();
    run_source_with(source, pipeline, &mut p, max_uops)
}

/// [`run_source`] with a caller-owned predictor instance, for harnesses that
/// inspect predictor-internal state (sharding counters, window hit rates)
/// after the run. Behaviour is identical to [`run_source`] for a freshly
/// built predictor.
pub fn run_source_with(
    source: UopSource<'_>,
    pipeline: &PipelineConfig,
    predictor: &mut AnyPredictor,
    max_uops: u64,
) -> SimStats {
    Pipeline::new(pipeline.clone()).run(source.stream(), predictor, max_uops)
}

/// Simulates one phase-sampling slice of a recording and returns the
/// statistics of the measurement window alone.
///
/// The pipeline and predictor start cold at `warmup_uops` *committed* µ-ops
/// before `start` (clamped to the recording start; the warm-up start is
/// always itself a committed µ-op), run through the warm-up to populate
/// caches, branch predictor and value-predictor tables, and then continue
/// through the measurement window `start..end`. The returned statistics are
/// the counter delta across the window ([`bebop_uarch::SimStats::delta_since`]
/// over [`Pipeline::stats_snapshot`]), so warm-up work is simulated but never
/// reported.
///
/// Fails with the structured [`RangeError`] of [`TraceBuffer::replay_range`]
/// when `start..end` is not a valid slice of the recording.
pub fn run_slice(
    buf: &TraceBuffer,
    pipeline: &PipelineConfig,
    predictor: &PredictorKind,
    start: usize,
    end: usize,
    warmup_uops: u64,
) -> Result<SimStats, RangeError> {
    // Validate the *requested* window first so the caller's bounds — not the
    // widened warm-up bounds — are what an error reports.
    buf.replay_range(start, end)?;
    let (warm_start, warm_committed) = buf.warmup_start(start, warmup_uops);
    let mut p = predictor.build();
    let mut pipe = Pipeline::new(pipeline.clone());
    let mut stream_pos = 0u64;
    // SMARTS-style staging: the entire prefix before the detailed warm-up is
    // *functionally* warmed (predictor / branch / cache state only, no cycle
    // timing, not counted against the detailed-simulation budget), then
    // `warmup_uops` committed µ-ops run detailed to refill pipeline-local
    // transients, then the measurement window is the reported delta.
    if warm_start > 0 {
        let mut prefix = buf
            .replay_range(0, warm_start)
            // INVARIANT: a recording starts on the correct path (bursts only
            // ever follow a mispredicted branch) and `warmup_start` returns a
            // committed in-bounds index, so the prefix window is valid.
            .expect("recording prefix is a valid replay window");
        pipe.warm_functional(&mut prefix, &mut p, u64::MAX, &mut stream_pos);
    }
    let mut stream = buf
        .replay_range(warm_start, end)
        // INVARIANT: `warmup_start` only widens a just-validated window and
        // always lands on a committed µ-op.
        .expect("warm-up widening of a validated window");
    pipe.run_segment(&mut stream, &mut p, warm_committed, &mut stream_pos);
    let warm_snapshot = pipe.stats_snapshot();
    pipe.run_segment(&mut stream, &mut p, u64::MAX, &mut stream_pos);
    Ok(pipe.finish(&mut p).delta_since(&warm_snapshot))
}

/// Renders a panic payload as a one-line reason string (the payload of
/// `panic!` is a `&str` or `String` in practice; anything else gets a
/// placeholder rather than a second panic).
pub fn panic_reason(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one workload (generated live) on one pipeline configuration with one
/// predictor for `max_uops` µ-ops and returns the statistics.
///
/// # Example
///
/// ```
/// use bebop::{run_one, PredictorKind};
/// use bebop_trace::WorkloadSpec;
/// use bebop_uarch::PipelineConfig;
///
/// let spec = WorkloadSpec::named_demo("run-one-demo");
/// let stats = run_one(
///     &spec,
///     &PipelineConfig::baseline_vp_6_60(),
///     &PredictorKind::DVtage,
///     5_000,
/// );
/// assert_eq!(stats.uops, 5_000);
/// assert!(stats.uop_ipc() > 0.0);
/// ```
pub fn run_one(
    spec: &WorkloadSpec,
    pipeline: &PipelineConfig,
    predictor: &PredictorKind,
    max_uops: u64,
) -> SimStats {
    run_source(UopSource::Live(spec), pipeline, predictor, max_uops)
}

/// The speedup of one benchmark under a variant configuration relative to a
/// baseline configuration (same trace, same µ-op count).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: String,
    /// Baseline statistics.
    pub baseline: SimStats,
    /// Variant statistics.
    pub variant: SimStats,
}

impl BenchResult {
    /// Speedup of the variant over the baseline (cycles ratio, > 1 is faster).
    pub fn speedup(&self) -> f64 {
        self.variant.speedup_over(&self.baseline)
    }
}

/// A population of per-benchmark speedups with the aggregates the paper reports:
/// geometric mean plus the [min, max] box and quartiles used in the box plots.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupSummary {
    /// `(benchmark name, speedup)` pairs, in input order.
    pub per_bench: Vec<(String, f64)>,
}

impl SpeedupSummary {
    /// Builds a summary from per-benchmark results.
    pub fn from_results(results: &[BenchResult]) -> Self {
        SpeedupSummary {
            per_bench: results
                .iter()
                .map(|r| (r.name.clone(), r.speedup()))
                .collect(),
        }
    }

    /// Geometric mean speedup.
    pub fn gmean(&self) -> f64 {
        gmean(&self.per_bench.iter().map(|(_, s)| *s).collect::<Vec<_>>())
    }

    /// Minimum speedup (worst benchmark).
    pub fn min(&self) -> f64 {
        self.per_bench
            .iter()
            .map(|(_, s)| *s)
            .fold(f64::INFINITY, f64::min)
    }

    /// Maximum speedup (best benchmark).
    pub fn max(&self) -> f64 {
        self.per_bench
            .iter()
            .map(|(_, s)| *s)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The `q`-quantile (0.0..=1.0) of the speedup distribution (nearest rank).
    pub fn quantile(&self, q: f64) -> f64 {
        let mut v: Vec<f64> = self.per_bench.iter().map(|(_, s)| *s).collect();
        if v.is_empty() {
            return 1.0;
        }
        v.sort_by(f64::total_cmp);
        // CAST: nearest-rank result is clamped to 0..len by the q clamp.
        let idx = ((v.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        v[idx]
    }

    /// The benchmark with the highest speedup.
    pub fn best(&self) -> Option<&(String, f64)> {
        self.per_bench.iter().max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// The benchmark with the lowest speedup.
    pub fn worst(&self) -> Option<&(String, f64)> {
        self.per_bench.iter().min_by(|a, b| a.1.total_cmp(&b.1))
    }
}

/// Runs every workload in `specs` under both configurations and returns the
/// per-benchmark comparison. This is the primitive every figure of the evaluation
/// is built from.
///
/// The per-workload simulations are independent (each owns its predictor and
/// pipeline instance), so they are fanned out across cores with
/// [`par::par_map`]; results are ordering-stable and bit-identical to a serial
/// run (`par::set_threads(1)` forces one).
pub fn compare(
    specs: &[WorkloadSpec],
    baseline_pipeline: &PipelineConfig,
    baseline_predictor: &PredictorKind,
    variant_pipeline: &PipelineConfig,
    variant_predictor: &PredictorKind,
    max_uops: u64,
) -> Vec<BenchResult> {
    par::par_map(specs, |spec| BenchResult {
        name: spec.name.clone(),
        baseline: run_one(spec, baseline_pipeline, baseline_predictor, max_uops),
        variant: run_one(spec, variant_pipeline, variant_predictor, max_uops),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs;

    fn demo() -> WorkloadSpec {
        WorkloadSpec::named_demo("driver-demo")
    }

    #[test]
    fn run_one_produces_stats() {
        let stats = run_one(
            &demo(),
            &PipelineConfig::baseline_6_60(),
            &PredictorKind::None,
            5_000,
        );
        assert_eq!(stats.uops, 5_000);
        assert!(stats.cycles > 0);
    }

    #[test]
    fn every_predictor_kind_builds_and_runs() {
        let kinds = [
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
        for kind in kinds {
            let stats = run_one(&demo(), &PipelineConfig::baseline_vp_6_60(), &kind, 2_000);
            assert_eq!(stats.uops, 2_000, "{} failed to run", kind.label());
        }
    }

    #[test]
    fn replay_source_matches_live_source() {
        let spec = demo();
        let buf = bebop_trace::TraceBuffer::record(&spec, 8_000);
        for kind in [
            PredictorKind::None,
            PredictorKind::DVtage,
            PredictorKind::BlockDVtage(configs::medium()),
        ] {
            let live = run_source(
                UopSource::Live(&spec),
                &PipelineConfig::baseline_vp_6_60(),
                &kind,
                8_000,
            );
            let replayed = run_source(
                UopSource::Replay(&buf),
                &PipelineConfig::baseline_vp_6_60(),
                &kind,
                8_000,
            );
            assert_eq!(live, replayed, "{} diverged under replay", kind.label());
        }
    }

    #[test]
    fn slice_source_replays_exactly_its_window() {
        let spec = demo();
        let buf = bebop_trace::TraceBuffer::record(&spec, 8_000);
        let src = UopSource::replay_slice(&buf, 2_000, 5_000).expect("valid slice");
        let got: Vec<_> = src.stream().collect();
        let full: Vec<_> = UopSource::Replay(&buf).stream().collect();
        assert_eq!(got, full[2_000..5_000]);
        // Invalid bounds surface the structured error at construction.
        assert!(matches!(
            UopSource::replay_slice(&buf, 0, 9_000),
            Err(bebop_trace::RangeError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn run_slice_reports_the_measurement_window_only() {
        let spec = demo();
        let buf = bebop_trace::TraceBuffer::record(&spec, 8_000);
        let cfg = PipelineConfig::baseline_vp_6_60();
        let stats = run_slice(&buf, &cfg, &PredictorKind::DVtage, 3_000, 6_000, 1_000)
            .expect("valid slice");
        assert_eq!(stats.uops, 3_000, "window µ-ops only");
        assert!(stats.cycles > 0);
        // Warm-up clamps at the recording start without failing.
        let head =
            run_slice(&buf, &cfg, &PredictorKind::DVtage, 0, 2_000, 1_000).expect("head slice");
        assert_eq!(head.uops, 2_000);
        // With zero warm-up from position 0, a slice over the whole recording
        // is exactly a full run.
        let whole = run_slice(&buf, &cfg, &PredictorKind::DVtage, 0, 8_000, 0).unwrap();
        let full = run_source(UopSource::Replay(&buf), &cfg, &PredictorKind::DVtage, 8_000);
        assert_eq!(whole, full);
        // Errors are structured, not panics.
        assert!(run_slice(&buf, &cfg, &PredictorKind::DVtage, 5, 5, 0).is_err());
    }

    #[test]
    fn summary_aggregates() {
        let results = vec![
            BenchResult {
                name: "a".into(),
                baseline: SimStats {
                    uops: 10,
                    cycles: 100,
                    ..Default::default()
                },
                variant: SimStats {
                    uops: 10,
                    cycles: 50,
                    ..Default::default()
                },
            },
            BenchResult {
                name: "b".into(),
                baseline: SimStats {
                    uops: 10,
                    cycles: 100,
                    ..Default::default()
                },
                variant: SimStats {
                    uops: 10,
                    cycles: 200,
                    ..Default::default()
                },
            },
        ];
        let summary = SpeedupSummary::from_results(&results);
        assert!((summary.max() - 2.0).abs() < 1e-12);
        assert!((summary.min() - 0.5).abs() < 1e-12);
        assert!((summary.gmean() - 1.0).abs() < 1e-12);
        assert_eq!(summary.best().unwrap().0, "a");
        assert_eq!(summary.worst().unwrap().0, "b");
        assert!((summary.quantile(0.0) - 0.5).abs() < 1e-12);
        assert!((summary.quantile(1.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_vp_beats_no_vp_on_the_demo_workload() {
        let specs = vec![demo()];
        let results = compare(
            &specs,
            &PipelineConfig::baseline_6_60(),
            &PredictorKind::None,
            &PipelineConfig::baseline_vp_6_60(),
            &PredictorKind::Perfect,
            20_000,
        );
        assert_eq!(results.len(), 1);
        assert!(results[0].speedup() > 1.0);
    }
}
