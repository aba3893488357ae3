//! Resumable, supervised simulation runs.
//!
//! [`run_source_resumable`] is [`crate::run_source`] wrapped in the
//! robustness layer: it periodically snapshots the complete simulation state
//! to a [`SimCheckpoint`] file, restores from a valid snapshot on startup
//! (replaying the deterministic µ-op stream up to the snapshot position, so
//! the resumed run's final `SimStats` are bit-identical to an uninterrupted
//! run's), publishes a progress heartbeat for watchdog supervision, and
//! reacts to cooperative cancellation and SIGINT/SIGTERM by writing a final
//! checkpoint before returning.
//!
//! The simulation advances in chunks of [`CHUNK_UOPS`] committed µ-ops
//! between control-plane checks, so the heartbeat/cancellation/signal
//! overhead is amortised across ~a thousand µ-ops and the release hot path
//! is unchanged inside a chunk.

use crate::checkpoint::{CheckpointError, SimCheckpoint};
use crate::driver::{AnyPredictor, PredictorKind, UopSource};
use crate::shutdown;
use bebop_trace::{fnv1a, spec_fingerprint, FNV_OFFSET_BASIS};
use bebop_uarch::{Pipeline, PipelineConfig, SimStats, ValuePredictor};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Committed µ-ops simulated between control-plane checks (heartbeat bump,
/// cancellation poll, checkpoint-interval test). Large enough that the checks
/// are amortised to noise; small enough that a stalled cell is detected and a
/// cancellation honoured within milliseconds of simulated work.
pub const CHUNK_UOPS: u64 = 1024;

/// Shared progress/cancellation channel between a simulation run and its
/// supervisor (the sweep watchdog, a signal handler, a test harness).
#[derive(Debug, Default)]
pub struct RunControl {
    /// Monotonically increasing count of committed µ-ops, stored by the run
    /// once per chunk. A supervisor that sees it unchanged across a wall-
    /// clock budget declares the run stalled.
    pub heartbeat: AtomicU64,
    /// Set by a supervisor to request cooperative cancellation; the run
    /// stops at the next chunk boundary.
    pub cancel: AtomicBool,
}

impl RunControl {
    /// A fresh control block (heartbeat 0, not cancelled).
    pub fn new() -> Self {
        Self::default()
    }

    /// The last published committed-µop count.
    pub fn committed(&self) -> u64 {
        self.heartbeat.load(Ordering::Relaxed)
    }

    /// Requests cooperative cancellation.
    pub fn request_cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }
}

/// Checkpoint/supervision options of a resumable run. `Default` disables
/// everything, reducing [`run_source_resumable`] to a chunked `run_source`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ResumeOptions<'a> {
    /// Checkpoint file location. `None` disables persistence entirely.
    pub checkpoint_path: Option<&'a Path>,
    /// Snapshot every this many committed µ-ops (rounded up to chunk
    /// granularity). 0 with a path set means "no periodic snapshots, but
    /// still resume from / final-checkpoint to the file".
    pub checkpoint_every: u64,
    /// Supervisor channel for heartbeat publication and cancellation.
    pub control: Option<&'a RunControl>,
    /// Poll [`shutdown::shutdown_requested`] and stop (with a final
    /// checkpoint) when a termination signal has arrived.
    pub react_to_signals: bool,
}

/// How a resumable run ended.
// One value exists per run, so the size skew between `Complete` and the
// early-stop variants costs nothing; boxing would only tax every caller.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// Ran to its µ-op budget; the statistics are final.
    Complete(SimStats),
    /// Stopped early by cooperative cancellation ([`RunControl::cancel`]).
    Cancelled {
        /// Committed µ-ops at the stop point.
        committed: u64,
    },
    /// Stopped early by SIGINT/SIGTERM (with a final checkpoint written when
    /// a checkpoint path was configured).
    Interrupted {
        /// Committed µ-ops at the stop point.
        committed: u64,
    },
}

/// The result of [`run_source_resumable`].
#[derive(Debug, Clone, PartialEq)]
pub struct ResumableRun {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Committed µ-ops restored from a checkpoint (`None` = from-zero run).
    /// A resumed run re-simulates at most `checkpoint_every + CHUNK_UOPS`
    /// µ-ops of lost progress.
    pub resumed_from: Option<u64>,
    /// Why an existing checkpoint file was rejected and discarded, if one
    /// was (`Missing` is not recorded — a first run is not a rejection).
    pub rejected_checkpoint: Option<String>,
    /// Checkpoint writes (periodic or final) that failed. The run goes on
    /// without them: its statistics are unaffected, only a later resume
    /// restarts from an older snapshot, or from zero.
    pub checkpoint_write_errors: u64,
}

/// The configuration fingerprint binding a checkpoint to one (source,
/// pipeline, predictor, budget) tuple. Derived from the workload fingerprint
/// (or replay-buffer shape) and the `Debug` renderings of the configuration —
/// exhaustive-by-construction: any config field change re-fingerprints.
pub fn run_fingerprint(
    source: &UopSource<'_>,
    pipeline: &PipelineConfig,
    predictor: &PredictorKind,
    max_uops: u64,
) -> u64 {
    let mut h = FNV_OFFSET_BASIS;
    match source {
        UopSource::Live(spec) => {
            h = fnv1a(h, b"live");
            h = fnv1a(h, &spec_fingerprint(spec).to_le_bytes());
        }
        UopSource::Replay(buf) => {
            h = fnv1a(h, b"replay");
            h = fnv1a(h, &(buf.len() as u64).to_le_bytes());
            h = fnv1a(h, &(buf.committed_len() as u64).to_le_bytes());
        }
    }
    h = fnv1a(h, format!("{pipeline:?}").as_bytes());
    h = fnv1a(h, format!("{predictor:?}").as_bytes());
    fnv1a(h, &max_uops.to_le_bytes())
}

fn snapshot(
    fingerprint: u64,
    pipeline: &Pipeline,
    predictor: &AnyPredictor,
    stream_pos: u64,
) -> SimCheckpoint {
    SimCheckpoint {
        fingerprint,
        committed: pipeline.committed_uops(),
        stream_pos,
        pipeline: pipeline.save_state(),
        predictor: predictor.save_state(),
    }
}

/// Attempts to restore `pipeline`/`predictor` from the checkpoint at `path`.
/// On success returns the stream position to fast-forward to; on any failure
/// the (possibly partially mutated) components are rebuilt from scratch and
/// the offending file is discarded.
fn try_restore(
    path: &Path,
    fingerprint: u64,
    pipeline_cfg: &PipelineConfig,
    predictor_kind: &PredictorKind,
    pipeline: &mut Pipeline,
    predictor: &mut AnyPredictor,
) -> Result<(u64, u64), Option<String>> {
    let ckpt = match SimCheckpoint::load(path, fingerprint) {
        Ok(c) => c,
        Err(CheckpointError::Missing) => return Err(None),
        Err(e) => {
            SimCheckpoint::discard(path);
            return Err(Some(e.to_string()));
        }
    };
    let mut restore = || -> Result<(), String> {
        pipeline
            .restore_state(&ckpt.pipeline)
            .map_err(|e| format!("pipeline: {e}"))?;
        predictor.restore_state(&ckpt.predictor)
    };
    match restore() {
        Ok(()) => Ok((ckpt.committed, ckpt.stream_pos)),
        Err(e) => {
            // A failed restore may have partially mutated the components:
            // rebuild both from configuration before the from-zero run.
            *pipeline = Pipeline::new(pipeline_cfg.clone());
            *predictor = predictor_kind.build();
            SimCheckpoint::discard(path);
            Err(Some(CheckpointError::Restore(e).to_string()))
        }
    }
}

/// [`crate::run_source`] with checkpoint/restore, heartbeat supervision and
/// signal handling. With `ResumeOptions::default()` the behaviour (and the
/// resulting `SimStats`) is identical to `run_source`.
///
/// # Example
///
/// ```
/// use bebop::{run_source_resumable, PredictorKind, ResumeOptions, UopSource};
/// use bebop_trace::WorkloadSpec;
/// use bebop_uarch::PipelineConfig;
///
/// let spec = WorkloadSpec::named_demo("resume-demo");
/// let run = run_source_resumable(
///     UopSource::Live(&spec),
///     &PipelineConfig::baseline_vp_6_60(),
///     &PredictorKind::DVtage,
///     2_000,
///     ResumeOptions::default(),
/// );
/// assert!(matches!(run.outcome, bebop::RunOutcome::Complete(_)));
/// ```
pub fn run_source_resumable(
    source: UopSource<'_>,
    pipeline_cfg: &PipelineConfig,
    predictor_kind: &PredictorKind,
    max_uops: u64,
    opts: ResumeOptions<'_>,
) -> ResumableRun {
    let fingerprint = run_fingerprint(&source, pipeline_cfg, predictor_kind, max_uops);
    let mut pipeline = Pipeline::new(pipeline_cfg.clone());
    let mut predictor = predictor_kind.build();
    let mut stream_pos = 0u64;
    let mut resumed_from = None;
    let mut rejected_checkpoint = None;

    if let Some(path) = opts.checkpoint_path {
        match try_restore(
            path,
            fingerprint,
            pipeline_cfg,
            predictor_kind,
            &mut pipeline,
            &mut predictor,
        ) {
            Ok((committed, pos)) => {
                stream_pos = pos;
                resumed_from = Some(committed);
            }
            Err(why) => rejected_checkpoint = why,
        }
    }

    let mut stream = source.stream();
    // Fast-forward a fresh stream to the snapshot position: generation is
    // deterministic, so skipping `stream_pos` µ-ops reproduces the exact
    // stream suffix the interrupted run would have consumed.
    for _ in 0..stream_pos {
        if stream.next().is_none() {
            break;
        }
    }

    let mut checkpoint_write_errors = 0;
    let mut write_checkpoint = |pipeline: &Pipeline, predictor: &AnyPredictor, stream_pos| {
        if let Some(path) = opts.checkpoint_path {
            let written = snapshot(fingerprint, pipeline, predictor, stream_pos).write_atomic(path);
            checkpoint_write_errors += u64::from(written.is_err());
        }
    };
    let mut next_checkpoint_at = if opts.checkpoint_every > 0 {
        pipeline.committed_uops() + opts.checkpoint_every
    } else {
        u64::MAX
    };

    loop {
        let committed = pipeline.committed_uops();
        if let Some(control) = opts.control {
            control.heartbeat.store(committed, Ordering::Relaxed);
            if control.cancelled() {
                write_checkpoint(&pipeline, &predictor, stream_pos);
                return ResumableRun {
                    outcome: RunOutcome::Cancelled { committed },
                    resumed_from,
                    rejected_checkpoint,
                    checkpoint_write_errors,
                };
            }
        }
        if opts.react_to_signals && shutdown::shutdown_requested() {
            write_checkpoint(&pipeline, &predictor, stream_pos);
            return ResumableRun {
                outcome: RunOutcome::Interrupted { committed },
                resumed_from,
                rejected_checkpoint,
                checkpoint_write_errors,
            };
        }
        if committed >= max_uops {
            break;
        }
        if committed >= next_checkpoint_at {
            write_checkpoint(&pipeline, &predictor, stream_pos);
            next_checkpoint_at = committed + opts.checkpoint_every;
        }

        let before = pipeline.committed_uops();
        let stop_at = (before + CHUNK_UOPS).min(max_uops);
        pipeline.run_segment(&mut stream, &mut predictor, stop_at, &mut stream_pos);
        if pipeline.committed_uops() == before {
            break; // stream exhausted before the budget
        }
    }

    if let Some(control) = opts.control {
        control
            .heartbeat
            .store(pipeline.committed_uops(), Ordering::Relaxed);
    }
    // The run completed: the snapshot is stale the moment the final stats
    // exist, so drop it rather than let a later run resurrect it.
    if let Some(path) = opts.checkpoint_path {
        SimCheckpoint::discard(path);
    }
    ResumableRun {
        outcome: RunOutcome::Complete(pipeline.finish(&mut predictor)),
        resumed_from,
        rejected_checkpoint,
        checkpoint_write_errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs;
    use crate::driver::run_source;
    use bebop_trace::{MixSpec, WorkloadSpec};
    use bebop_uarch::SharingPolicy;

    fn demo() -> WorkloadSpec {
        WorkloadSpec::named_demo("resume-unit")
    }

    #[test]
    fn default_options_match_run_source() {
        let spec = demo();
        let cfg = PipelineConfig::baseline_vp_6_60();
        let kind = PredictorKind::DVtage;
        let direct = run_source(UopSource::Live(&spec), &cfg, &kind, 5_000);
        let run = run_source_resumable(
            UopSource::Live(&spec),
            &cfg,
            &kind,
            5_000,
            ResumeOptions::default(),
        );
        assert_eq!(run.outcome, RunOutcome::Complete(direct));
        assert_eq!(run.resumed_from, None);
        assert_eq!(run.rejected_checkpoint, None);
        assert_eq!(run.checkpoint_write_errors, 0);
    }

    #[test]
    fn failed_checkpoint_writes_are_counted_and_do_not_change_the_run() {
        // The checkpoint's parent is a regular file, so every write fails.
        let blocker =
            std::env::temp_dir().join(format!("bebop-ckpt-blocker-{}", std::process::id()));
        std::fs::write(&blocker, b"not a directory").expect("write blocker");
        let path = blocker.join("cell.bbpckpt");
        let spec = demo();
        let cfg = PipelineConfig::baseline_vp_6_60();
        let kind = PredictorKind::DVtage;
        let direct = run_source(UopSource::Live(&spec), &cfg, &kind, 5_000);
        let run = run_source_resumable(
            UopSource::Live(&spec),
            &cfg,
            &kind,
            5_000,
            ResumeOptions {
                checkpoint_path: Some(&path),
                checkpoint_every: 1_000,
                ..ResumeOptions::default()
            },
        );
        assert_eq!(run.outcome, RunOutcome::Complete(direct));
        // Chunk boundaries 1 024, 2 048, 3 072 and 4 096 each pass the next
        // 1 000-µop mark, and each of those four periodic writes failed.
        assert_eq!(run.checkpoint_write_errors, 4);
        assert!(!path.exists());
        let _ = std::fs::remove_file(&blocker);
    }

    #[test]
    fn cancellation_stops_at_a_chunk_boundary() {
        let spec = demo();
        let control = RunControl::new();
        control.request_cancel();
        let run = run_source_resumable(
            UopSource::Live(&spec),
            &PipelineConfig::baseline_vp_6_60(),
            &PredictorKind::LastValue,
            1_000_000,
            ResumeOptions {
                control: Some(&control),
                ..Default::default()
            },
        );
        assert!(matches!(run.outcome, RunOutcome::Cancelled { .. }));
    }

    /// Guards the two properties resumability rests on, at many cut points:
    /// stopping `run_segment` and continuing is invisible to the simulation,
    /// and a save/restore cycle at the stop point is byte-lossless (the LFSR
    /// low-bit coercion bug hid here — an even RNG state was perturbed by
    /// restore, so resumed runs diverged only for cuts with even states).
    /// Every predictor kind is covered, plus the sharded BeBoP table over a
    /// two-context mix; the hybrid keeps the dense cut sweep that caught the
    /// LFSR bug, the rest a thinned one.
    #[test]
    fn segment_stop_and_restore_are_state_transparent() {
        let spec = WorkloadSpec::named_demo("ckpt-roundtrip");
        let cfg = PipelineConfig::baseline_vp_6_60();
        let dense: Vec<u64> = (800..5400).step_by(400).collect();
        let thin: Vec<u64> = (800..5400).step_by(1500).collect();
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
        for kind in &kinds {
            let cuts = if matches!(kind, PredictorKind::VtageStrideHybrid) {
                &dense
            } else {
                &thin
            };
            check_transparent(UopSource::Live(&spec), &cfg, kind, cuts);
        }
        let policy = SharingPolicy::Tagged;
        let mix = MixSpec::pair(
            1_000,
            WorkloadSpec::named_demo("ckpt-mix-a"),
            WorkloadSpec::named_demo("ckpt-mix-b"),
        )
        .record(TRANSPARENCY_UOPS);
        check_transparent(
            UopSource::Replay(&mix),
            &cfg.clone().with_mix(policy),
            &PredictorKind::BlockDVtage(configs::medium_mix(policy, 2)),
            &thin,
        );
    }

    const TRANSPARENCY_UOPS: u64 = 6_000;

    /// Runs `kind` over `source` to [`TRANSPARENCY_UOPS`] three ways — in one
    /// segment, stopped and continued at each cut, and restored from the
    /// cut's snapshot — and requires byte-identical component state.
    fn check_transparent(
        source: UopSource<'_>,
        cfg: &PipelineConfig,
        kind: &PredictorKind,
        cuts: &[u64],
    ) {
        const TOTAL: u64 = TRANSPARENCY_UOPS;
        let name = kind.build().name().to_string();

        // Monolithic reference state.
        let mut pa = Pipeline::new(cfg.clone());
        let mut qa = kind.build();
        let mut sa = source.stream();
        let mut posa = 0u64;
        pa.run_segment(&mut sa, &mut qa, TOTAL, &mut posa);
        let ref_pipeline = pa.save_state();
        let ref_predictor = qa.save_state();

        for &cut in cuts {
            // B: stop at the cut and continue (no restore).
            let mut pb = Pipeline::new(cfg.clone());
            let mut qb = kind.build();
            let mut sb = source.stream();
            let mut posb = 0u64;
            pb.run_segment(&mut sb, &mut qb, cut, &mut posb);
            let pb_bytes = pb.save_state();
            let qb_bytes = qb.save_state();
            let cut_pos = posb;
            pb.run_segment(&mut sb, &mut qb, TOTAL, &mut posb);
            assert_eq!(
                pb.save_state(),
                ref_pipeline,
                "{name} cut {cut}: stop/continue perturbs the pipeline"
            );
            assert_eq!(
                qb.save_state(),
                ref_predictor,
                "{name} cut {cut}: stop/continue perturbs the predictor"
            );

            // C: restore from the cut snapshot and continue.
            let mut pc = Pipeline::new(cfg.clone());
            let mut qc = kind.build();
            pc.restore_state(&pb_bytes).unwrap();
            qc.restore_state(&qb_bytes).unwrap();
            assert_eq!(
                pc.save_state(),
                pb_bytes,
                "{name} cut {cut}: pipeline restore lossy"
            );
            let qc_bytes = qc.save_state();
            if qc_bytes != qb_bytes {
                // Report the first differing offset instead of dumping two
                // ~half-megabyte blobs into the failure message.
                let diff = qc_bytes
                    .iter()
                    .zip(&qb_bytes)
                    .position(|(x, y)| x != y)
                    .unwrap_or(qc_bytes.len().min(qb_bytes.len()));
                panic!(
                    "{name} cut {cut}: predictor restore lossy: lens {} vs {}, first diff at byte {diff}",
                    qc_bytes.len(),
                    qb_bytes.len(),
                );
            }
            let mut sc = source.stream();
            for _ in 0..cut_pos {
                sc.next();
            }
            let mut posc = cut_pos;
            pc.run_segment(&mut sc, &mut qc, TOTAL, &mut posc);
            assert_eq!(
                posc, posb,
                "{name} cut {cut}: restored stream cursor diverged"
            );
            assert_eq!(
                pc.save_state(),
                ref_pipeline,
                "{name} cut {cut}: restore/continue perturbs the pipeline"
            );
            assert_eq!(
                qc.save_state(),
                ref_predictor,
                "{name} cut {cut}: restore/continue perturbs the predictor"
            );
        }
    }

    #[test]
    fn fingerprint_distinguishes_configurations() {
        let spec = demo();
        let cfg = PipelineConfig::baseline_vp_6_60();
        let a = run_fingerprint(
            &UopSource::Live(&spec),
            &cfg,
            &PredictorKind::DVtage,
            10_000,
        );
        let b = run_fingerprint(
            &UopSource::Live(&spec),
            &cfg,
            &PredictorKind::LastValue,
            10_000,
        );
        let c = run_fingerprint(
            &UopSource::Live(&spec),
            &cfg,
            &PredictorKind::DVtage,
            20_000,
        );
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
