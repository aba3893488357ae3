//! End-to-end checkpoint/restore tests of the robustness layer.
//!
//! The headline property: a run snapshotted at an *arbitrary* commit point
//! and resumed through [`bebop::run_source_resumable`] finishes with
//! `SimStats` bit-identical to an uninterrupted run — for every
//! [`PredictorKind`], serial and parallel. Alongside it: corrupt, truncated
//! and mismatched checkpoints are rejected-and-discarded with a clean
//! fall-back to a from-zero run, and signal interruption leaves a resumable
//! snapshot behind.

use bebop::{
    checkpoint_slots, configs, par, run_fingerprint, run_slice, run_source, run_source_resumable,
    set_shutdown_requested, CheckpointError, MixSpec, PipelineConfig, PredictorKind, ResumeOptions,
    RunOutcome, SharingPolicy, SimCheckpoint, UopSource, WorkloadSpec, CHECKPOINT_FORMAT_VERSION,
};
use bebop_trace::spec_benchmark;
use bebop_trace::{fnv1a, fnv1a_wide, TraceBuffer, FNV_OFFSET_BASIS};
use bebop_uarch::{Pipeline, ValuePredictor};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

const TOTAL: u64 = 6_000;

fn all_kinds() -> Vec<PredictorKind> {
    vec![
        PredictorKind::None,
        PredictorKind::Perfect,
        PredictorKind::LastValue,
        PredictorKind::Stride,
        PredictorKind::TwoDeltaStride,
        PredictorKind::Vtage,
        PredictorKind::VtageStrideHybrid,
        PredictorKind::DVtage,
        PredictorKind::BlockDVtage(configs::medium()),
    ]
}

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "bebop-ckpt-it-{tag}-{}.bbpckpt",
        std::process::id()
    ))
}

/// Snapshots a run of `kind` at `cut` committed µ-ops exactly as the resume
/// driver would, writes the checkpoint to `path`, and returns it.
fn snapshot_at(
    spec: &WorkloadSpec,
    cfg: &PipelineConfig,
    kind: &PredictorKind,
    cut: u64,
    path: &std::path::Path,
) -> SimCheckpoint {
    let mut pipeline = Pipeline::new(cfg.clone());
    let mut predictor = kind.build();
    let mut stream = UopSource::Live(spec).stream();
    let mut stream_pos = 0u64;
    pipeline.run_segment(&mut stream, &mut predictor, cut, &mut stream_pos);
    let ckpt = SimCheckpoint {
        fingerprint: run_fingerprint(&UopSource::Live(spec), cfg, kind, TOTAL),
        committed: pipeline.committed_uops(),
        stream_pos,
        pipeline: pipeline.save_state(),
        predictor: predictor.save_state(),
    };
    ckpt.write_atomic(path).expect("write checkpoint");
    ckpt
}

/// The round-trip check for one predictor kind: save at a seeded-random
/// commit point, resume through the production path, require bit-identical
/// final statistics and checkpoint cleanup.
fn check_roundtrip(kind: &PredictorKind, tag: &str, seed: u64) {
    let spec = WorkloadSpec::named_demo("ckpt-roundtrip");
    let cfg = PipelineConfig::baseline_vp_6_60();
    let reference = run_source(UopSource::Live(&spec), &cfg, kind, TOTAL);

    let cut = SmallRng::seed_from_u64(seed).gen_range(TOTAL / 8..TOTAL - TOTAL / 8);
    let path = tmp_path(&format!("{tag}-{seed:x}-{:x}", cut));
    let ckpt = snapshot_at(&spec, &cfg, kind, cut, &path);
    assert_eq!(ckpt.committed, cut, "run_segment stops exactly at the cut");

    let resumed = run_source_resumable(
        UopSource::Live(&spec),
        &cfg,
        kind,
        TOTAL,
        ResumeOptions {
            checkpoint_path: Some(&path),
            ..Default::default()
        },
    );
    assert_eq!(
        resumed.resumed_from,
        Some(cut),
        "{tag}: must resume from the snapshot, not restart"
    );
    assert_eq!(resumed.rejected_checkpoint, None);
    assert_eq!(
        resumed.outcome,
        RunOutcome::Complete(reference),
        "{tag}: resumed SimStats must be bit-identical to an uninterrupted run"
    );
    assert!(!path.exists(), "{tag}: completed runs discard the snapshot");
}

#[test]
fn every_predictor_kind_resumes_bit_identically_serial() {
    for (i, kind) in all_kinds().iter().enumerate() {
        check_roundtrip(kind, &format!("serial-{i}"), 0x5eed + i as u64);
    }
}

#[test]
fn every_predictor_kind_resumes_bit_identically_parallel() {
    let kinds = all_kinds();
    let checks: Vec<(usize, &PredictorKind)> = kinds.iter().enumerate().collect();
    // The same property under the worker pool: restores racing in parallel
    // threads must not share or corrupt any state.
    par::par_map(&checks, |(i, kind)| {
        check_roundtrip(kind, &format!("par-{i}"), 0xfee1 + *i as u64)
    });
}

/// Phase-sampling interaction: a slice run ([`bebop::run_slice`]: a
/// functionally warmed prefix, a detailed warm-up, then the measurement
/// window) snapshotted in the middle of its window and restored into fresh
/// components must finish bit-identical to the uninterrupted slice run —
/// checkpointing and sampling compose without either subsystem
/// special-casing the other.
#[test]
fn slice_bounded_resumable_run_restores_mid_slice_bit_identically() {
    let spec = WorkloadSpec::named_demo("ckpt-slice");
    let cfg = PipelineConfig::baseline_vp_6_60();
    let kind = PredictorKind::DVtage;
    let buf = TraceBuffer::record(&spec, 12_000);
    let (start, end, warmup) = (6_000usize, 9_000usize, 1_000u64);
    let reference = run_slice(&buf, &cfg, &kind, start, end, warmup).expect("valid slice");
    assert!(reference.uops > 16, "slice must hold a meaningful run");

    // Run the slice exactly as `run_slice` composes it, up to mid-window.
    let (warm_start, warm_committed) = buf.warmup_start(start, warmup);
    let mut pipeline = Pipeline::new(cfg.clone());
    let mut predictor = kind.build();
    let mut prefix = buf.replay_range(0, warm_start).expect("valid prefix");
    let mut stream_pos = 0u64;
    pipeline.warm_functional(&mut prefix, &mut predictor, u64::MAX, &mut stream_pos);
    let prefix_pos = stream_pos;
    let mut stream = buf.replay_range(warm_start, end).expect("valid window");
    pipeline.run_segment(&mut stream, &mut predictor, warm_committed, &mut stream_pos);
    let warm_snapshot = pipeline.stats_snapshot();
    let cut = warm_committed + reference.uops / 2;
    pipeline.run_segment(&mut stream, &mut predictor, cut, &mut stream_pos);
    // No resume driver binds this run: any fingerprint pairs write with load.
    let fingerprint = 0x511ce;
    let path = tmp_path("slice");
    SimCheckpoint {
        fingerprint,
        committed: pipeline.committed_uops(),
        stream_pos,
        pipeline: pipeline.save_state(),
        predictor: predictor.save_state(),
    }
    .write_atomic(&path)
    .expect("write checkpoint");

    // Restore into fresh components and finish the window.
    let ckpt = SimCheckpoint::load(&path, fingerprint).expect("load checkpoint");
    SimCheckpoint::discard(&path);
    assert_eq!(ckpt.committed, cut, "snapshot lands exactly mid-window");
    let mut pipeline = Pipeline::new(cfg.clone());
    let mut predictor = kind.build();
    pipeline
        .restore_state(&ckpt.pipeline)
        .expect("restore pipeline");
    predictor
        .restore_state(&ckpt.predictor)
        .expect("restore predictor");
    let mut stream = buf.replay_range(warm_start, end).expect("valid window");
    for _ in prefix_pos..ckpt.stream_pos {
        stream.next();
    }
    let mut stream_pos = ckpt.stream_pos;
    pipeline.run_segment(&mut stream, &mut predictor, u64::MAX, &mut stream_pos);
    assert_eq!(
        pipeline.finish(&mut predictor).delta_since(&warm_snapshot),
        reference,
        "restored slice-window SimStats must be bit-identical"
    );
}

#[test]
fn corrupt_truncated_and_mismatched_checkpoints_fall_back_to_zero() {
    let spec = WorkloadSpec::named_demo("ckpt-reject");
    let cfg = PipelineConfig::baseline_vp_6_60();
    let kind = PredictorKind::DVtage;
    let reference = run_source(UopSource::Live(&spec), &cfg, &kind, TOTAL);
    let path = tmp_path("reject");

    type Mutation = Box<dyn Fn(Vec<u8>) -> Vec<u8>>;
    let mutations: Vec<(&str, Mutation)> = vec![
        (
            "flipped byte",
            Box::new(|mut b: Vec<u8>| {
                let at = b.len() / 2;
                b[at] ^= 0x40;
                b
            }),
        ),
        (
            "truncated file",
            Box::new(|b: Vec<u8>| {
                let keep = b.len() * 2 / 3;
                b[..keep].to_vec()
            }),
        ),
        (
            "wrong magic",
            Box::new(|mut b: Vec<u8>| {
                b[0] = b'X';
                b
            }),
        ),
    ];
    for (what, mutate) in mutations {
        snapshot_at(&spec, &cfg, &kind, TOTAL / 2, &path);
        let bytes = fs::read(&path).expect("checkpoint bytes");
        fs::write(&path, mutate(bytes)).expect("write mutated checkpoint");

        let run = run_source_resumable(
            UopSource::Live(&spec),
            &cfg,
            &kind,
            TOTAL,
            ResumeOptions {
                checkpoint_path: Some(&path),
                ..Default::default()
            },
        );
        assert_eq!(run.resumed_from, None, "{what}: must not resume");
        assert!(
            run.rejected_checkpoint.is_some(),
            "{what}: the rejection must be reported"
        );
        assert_eq!(
            run.outcome,
            RunOutcome::Complete(reference),
            "{what}: the from-zero fall-back must still be bit-identical"
        );
        assert!(!path.exists(), "{what}: the bad file must be discarded");
    }

    // A checkpoint written by the previous format version (here: a current
    // checkpoint restamped as `CHECKPOINT_FORMAT_VERSION - 1`, checksum
    // intact) is rejected as a version mismatch, never decoded.
    snapshot_at(&spec, &cfg, &kind, TOTAL / 2, &path);
    let mut old = fs::read(&path).expect("checkpoint bytes");
    old[8..12].copy_from_slice(&(CHECKPOINT_FORMAT_VERSION - 1).to_le_bytes());
    let body = old.len() - 8;
    let checksum = fnv1a_wide(FNV_OFFSET_BASIS, &old[..body]);
    old[body..].copy_from_slice(&checksum.to_le_bytes());
    fs::write(&path, &old).expect("write old-version checkpoint");
    assert_eq!(
        SimCheckpoint::load(
            &path,
            run_fingerprint(&UopSource::Live(&spec), &cfg, &kind, TOTAL)
        ),
        Err(CheckpointError::VersionMismatch {
            found: CHECKPOINT_FORMAT_VERSION - 1
        })
    );
    let run = run_source_resumable(
        UopSource::Live(&spec),
        &cfg,
        &kind,
        TOTAL,
        ResumeOptions {
            checkpoint_path: Some(&path),
            ..Default::default()
        },
    );
    assert_eq!(run.resumed_from, None);
    assert!(run
        .rejected_checkpoint
        .as_deref()
        .is_some_and(|r| r.contains("format version")));
    assert_eq!(run.outcome, RunOutcome::Complete(reference));
    assert!(!path.exists());

    // A checkpoint from a *different* configuration (here: another µ-op
    // budget, which changes the fingerprint) is rejected the same way.
    let mut other = snapshot_at(&spec, &cfg, &kind, TOTAL / 2, &path);
    other.fingerprint ^= 1;
    other.write_atomic(&path).expect("write foreign checkpoint");
    let run = run_source_resumable(
        UopSource::Live(&spec),
        &cfg,
        &kind,
        TOTAL,
        ResumeOptions {
            checkpoint_path: Some(&path),
            ..Default::default()
        },
    );
    assert_eq!(run.resumed_from, None);
    assert!(run
        .rejected_checkpoint
        .as_deref()
        .is_some_and(|r| r.contains("different configuration")));
    assert_eq!(run.outcome, RunOutcome::Complete(reference));
    assert!(!path.exists());
}

/// Serialises the tests that raise the process-global shutdown flag, so one
/// test's flag never interrupts another's run.
static SHUTDOWN_FLAG: Mutex<()> = Mutex::new(());

fn own_shutdown_flag() -> MutexGuard<'static, ()> {
    SHUTDOWN_FLAG.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn cancelled_run_writes_a_final_checkpoint_and_resumes_bit_identically() {
    let _flag = own_shutdown_flag();
    let spec = WorkloadSpec::named_demo("ckpt-signal");
    let cfg = PipelineConfig::baseline_vp_6_60();
    let kind = PredictorKind::DVtage;
    // Under simcheck every committed µ-op pays for full invariant scans, so
    // a smaller budget keeps the sanitizer CI job inside its time box while
    // still leaving most of the run after the first periodic checkpoint.
    const BUDGET: u64 = if cfg!(feature = "simcheck") {
        60_000
    } else {
        200_000
    };
    let reference = run_source(UopSource::Live(&spec), &cfg, &kind, BUDGET);
    let path = tmp_path("signal");
    SimCheckpoint::discard(&path);

    // The flag is what the SIGINT/SIGTERM handlers set; driving it directly
    // keeps the test in-process and signal-free. It is raised once the first
    // periodic checkpoint exists, so the run is demonstrably mid-flight.
    let done = AtomicBool::new(false);
    let interrupted = std::thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::Acquire) {
                if path.exists() {
                    set_shutdown_requested(true);
                    return;
                }
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        });
        let run = run_source_resumable(
            UopSource::Live(&spec),
            &cfg,
            &kind,
            BUDGET,
            ResumeOptions {
                checkpoint_path: Some(&path),
                checkpoint_every: 10_000,
                react_to_signals: true,
            },
        );
        done.store(true, Ordering::Release);
        run
    });
    set_shutdown_requested(false);
    let committed = match interrupted.outcome {
        RunOutcome::Interrupted { committed } => committed,
        other => panic!("expected a signal interruption, got {other:?}"),
    };
    assert!(
        (1..BUDGET).contains(&committed),
        "the interruption must land mid-run (committed {committed})"
    );
    assert!(path.exists(), "interruption must leave a checkpoint behind");

    let resumed = run_source_resumable(
        UopSource::Live(&spec),
        &cfg,
        &kind,
        BUDGET,
        ResumeOptions {
            checkpoint_path: Some(&path),
            ..Default::default()
        },
    );
    assert_eq!(resumed.resumed_from, Some(committed));
    assert_eq!(resumed.outcome, RunOutcome::Complete(reference));
    assert!(!path.exists());
}

#[test]
fn signal_interruption_leaves_a_resumable_checkpoint() {
    let _flag = own_shutdown_flag();
    let spec = WorkloadSpec::named_demo("ckpt-signal-early");
    let cfg = PipelineConfig::baseline_vp_6_60();
    let kind = PredictorKind::LastValue;
    let reference = run_source(UopSource::Live(&spec), &cfg, &kind, TOTAL);
    let path = tmp_path("signal-early");
    SimCheckpoint::discard(&path);

    // A signal that arrived before the run started stops it at the first
    // chunk boundary, still with a checkpoint behind.
    set_shutdown_requested(true);
    let interrupted = run_source_resumable(
        UopSource::Live(&spec),
        &cfg,
        &kind,
        TOTAL,
        ResumeOptions {
            checkpoint_path: Some(&path),
            react_to_signals: true,
            ..Default::default()
        },
    );
    set_shutdown_requested(false);
    assert!(matches!(
        interrupted.outcome,
        RunOutcome::Interrupted { .. }
    ));
    assert!(path.exists(), "interruption must leave a checkpoint behind");

    let resumed = run_source_resumable(
        UopSource::Live(&spec),
        &cfg,
        &kind,
        TOTAL,
        ResumeOptions {
            checkpoint_path: Some(&path),
            ..Default::default()
        },
    );
    assert!(resumed.resumed_from.is_some());
    assert_eq!(resumed.outcome, RunOutcome::Complete(reference));
    assert!(!path.exists());
}

/// The two alternating checkpoint slots. A run interrupted once both slots
/// hold a periodic snapshot leaves two snapshots behind. With the newest one
/// torn (cut to half its length), the resume falls back to the older one and
/// still finishes bit-identically. With both slots corrupt, it runs from
/// zero and reports the rejection. A completed run, which wrote periodic
/// snapshots of its own, leaves neither slot behind.
#[test]
fn a_torn_newest_slot_resumes_from_the_older_one() {
    let _flag = own_shutdown_flag();
    let spec = WorkloadSpec::named_demo("ckpt-slots");
    let cfg = PipelineConfig::baseline_vp_6_60();
    let kind = PredictorKind::BlockDVtage(configs::medium());
    const BUDGET: u64 = if cfg!(feature = "simcheck") {
        60_000
    } else {
        200_000
    };
    let reference = run_source(UopSource::Live(&spec), &cfg, &kind, BUDGET);
    let fingerprint = run_fingerprint(&UopSource::Live(&spec), &cfg, &kind, BUDGET);
    let path = tmp_path("slots");
    let slots = checkpoint_slots(&path);
    let opts = ResumeOptions {
        checkpoint_path: Some(&path),
        checkpoint_every: 10_000,
        react_to_signals: true,
    };
    let run = || run_source_resumable(UopSource::Live(&spec), &cfg, &kind, BUDGET, opts);
    let interrupt_once_both_slots_exist = || {
        let done = AtomicBool::new(false);
        let interrupted = std::thread::scope(|s| {
            s.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    if slots.iter().all(|slot| slot.exists()) {
                        set_shutdown_requested(true);
                        return;
                    }
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
            });
            let interrupted = run();
            done.store(true, Ordering::Release);
            interrupted
        });
        set_shutdown_requested(false);
        assert!(
            matches!(interrupted.outcome, RunOutcome::Interrupted { .. }),
            "expected a signal interruption, got {:?}",
            interrupted.outcome
        );
    };
    let load = |slot: &PathBuf| SimCheckpoint::load(slot, fingerprint).expect("a valid slot");
    let complete_and_clean = |resumed: &bebop::ResumableRun, what: &str| {
        assert_eq!(
            resumed.outcome,
            RunOutcome::Complete(reference),
            "{what}: SimStats must be bit-identical to an uninterrupted run"
        );
        assert!(
            slots.iter().all(|slot| !slot.exists()),
            "{what}: a completed run leaves neither slot behind"
        );
    };

    interrupt_once_both_slots_exist();
    let (a, b) = (load(&slots[0]), load(&slots[1]));
    assert_ne!(a.committed, b.committed);
    let (newest, older) = if a.committed > b.committed {
        (&slots[0], b)
    } else {
        (&slots[1], a)
    };
    let torn = fs::read(newest).expect("newest slot");
    fs::write(newest, &torn[..torn.len() / 2]).expect("tear the newest slot");
    let resumed = run();
    assert_eq!(
        resumed.resumed_from,
        Some(older.committed),
        "a torn newest slot must fall back to the older one"
    );
    assert!(resumed.rejected_checkpoint.is_some());
    complete_and_clean(&resumed, "torn newest slot");

    interrupt_once_both_slots_exist();
    for slot in &slots {
        let mut bytes = fs::read(slot).expect("slot bytes");
        let at = bytes.len() / 2;
        bytes[at] ^= 0x40;
        fs::write(slot, bytes).expect("corrupt the slot");
    }
    let resumed = run();
    assert_eq!(
        resumed.resumed_from, None,
        "both slots corrupt: run from zero"
    );
    assert!(resumed.rejected_checkpoint.is_some());
    complete_and_clean(&resumed, "both slots corrupt");
}

/// One payload-pinning scenario: a pipeline configuration, a predictor and
/// the recorded trace they run over.
struct PinCase {
    label: String,
    cfg: PipelineConfig,
    kind: PredictorKind,
    trace: TraceBuffer,
}

/// Commit points at which every [`PinCase`] is snapshotted.
const PIN_CUTS: [u64; 2] = [2_500, 9_000];

/// The scenarios whose component payloads are pinned: every predictor kind
/// on the plain pipeline, the sharded BeBoP table under every sharing policy
/// over a two-context mix, and every kind on a wrong-path pipeline (whose
/// window holds in-flight wrong-path µ-ops at the cut).
fn pin_cases() -> Vec<PinCase> {
    let n = PIN_CUTS[1] + 1_000;
    let plain = TraceBuffer::record(&WorkloadSpec::named_demo("ckpt-pin"), n);
    let mut wp_spec = WorkloadSpec::new("ckpt-pin-wp", 77).with_wrong_path(8);
    wp_spec.branches.random_frac = 0.3;
    let wrong_path = TraceBuffer::record(&wp_spec, n);
    let mix = MixSpec::pair(
        1_000,
        bebop::spec_benchmark("171.swim"),
        bebop::spec_benchmark("403.gcc"),
    )
    .record(n);

    let mut cases = Vec::new();
    for (i, kind) in all_kinds().into_iter().enumerate() {
        cases.push(PinCase {
            label: format!("plain-{i}"),
            cfg: PipelineConfig::baseline_vp_6_60(),
            kind,
            trace: plain.clone(),
        });
    }
    for policy in SharingPolicy::ALL {
        cases.push(PinCase {
            label: format!("mix-{}", policy.label()),
            cfg: PipelineConfig::baseline_vp_6_60().with_mix(),
            kind: PredictorKind::BlockDVtage(configs::medium_mix(policy, 2)),
            trace: mix.clone(),
        });
    }
    for (i, kind) in all_kinds().into_iter().enumerate() {
        cases.push(PinCase {
            label: format!("wrong-path-{i}"),
            cfg: PipelineConfig::baseline_vp_6_60().with_wrong_path(true),
            kind,
            trace: wrong_path.clone(),
        });
    }
    cases
}

/// The `(pipeline, predictor)` payloads of `case` at each of [`PIN_CUTS`].
fn pin_payloads(case: &PinCase) -> Vec<(u64, Vec<u8>, Vec<u8>)> {
    let mut pipeline = Pipeline::new(case.cfg.clone());
    let mut predictor = case.kind.build();
    let mut stream = UopSource::Replay(&case.trace).stream();
    let mut stream_pos = 0u64;
    PIN_CUTS
        .iter()
        .map(|&cut| {
            pipeline.run_segment(&mut stream, &mut predictor, cut, &mut stream_pos);
            (cut, pipeline.save_state(), predictor.save_state())
        })
        .collect()
}

/// FNV-1a digests of the component payloads: `(case, cut, pipeline,
/// predictor)`, pinned at `CHECKPOINT_FORMAT_VERSION` 5.
const PINNED_PAYLOAD_DIGESTS: &[(&str, u64, u64, u64)] = &[
    ("plain-0", 2500, 0x3cd85c8aafad3bbd, 0xcbf29ce484222325),
    ("plain-0", 9000, 0xda4cdd1b5e9362ef, 0xcbf29ce484222325),
    ("plain-1", 2500, 0xe86048baa35874e3, 0xcbf29ce484222325),
    ("plain-1", 9000, 0xd4ce1a4ce56e8725, 0xcbf29ce484222325),
    ("plain-2", 2500, 0x3cd85c8aafad3bbd, 0x84c26d0fbb83757d),
    ("plain-2", 9000, 0xda4cdd1b5e9362ef, 0x9f898a399b42308d),
    ("plain-3", 2500, 0x3cd85c8aafad3bbd, 0x9476d82303e5918d),
    ("plain-3", 9000, 0xfde26e6eedf17f19, 0x50dbebacd0f0b038),
    ("plain-4", 2500, 0x3cd85c8aafad3bbd, 0x5682522da7318fe5),
    ("plain-4", 9000, 0xfde26e6eedf17f19, 0xa23159204afca6e7),
    ("plain-5", 2500, 0x3cd85c8aafad3bbd, 0x6867506c930dadd5),
    ("plain-5", 9000, 0x356d0c78aacd5410, 0xd312ef753d6e2bef),
    ("plain-6", 2500, 0x3cd85c8aafad3bbd, 0x2925da4ad717b37e),
    ("plain-6", 9000, 0x356d0c78aacd5410, 0x6536f730e61dcda2),
    ("plain-7", 2500, 0x3cd85c8aafad3bbd, 0xa8e95104d87059bf),
    ("plain-7", 9000, 0xeb257f5d5216fec7, 0x7ecf3c226f220efe),
    ("plain-8", 2500, 0x3cd85c8aafad3bbd, 0xceb0d6564dc9dae2),
    ("plain-8", 9000, 0xde6790fd1f341906, 0xf6e44922689ac507),
    ("mix-shared", 2500, 0xdddc7e1ca87affbf, 0x4d27eac251e3c24d),
    ("mix-shared", 9000, 0x7cd00eb10a0f4364, 0xdcd4cd11c68ef11c),
    (
        "mix-partitioned",
        2500,
        0xdddc7e1ca87affbf,
        0x742842c7d275dc6e,
    ),
    (
        "mix-partitioned",
        9000,
        0xf21653db28760621,
        0x87ee908a374c7394,
    ),
    ("mix-tagged", 2500, 0xdddc7e1ca87affbf, 0x641d3502367d7130),
    ("mix-tagged", 9000, 0xf21653db28760621, 0xf3fd18adeabb0f84),
    ("wrong-path-0", 2500, 0x5eb55f2a27c43b9b, 0xcbf29ce484222325),
    ("wrong-path-0", 9000, 0xef4e09424b450ed1, 0xcbf29ce484222325),
    ("wrong-path-1", 2500, 0xb961632b92297688, 0xcbf29ce484222325),
    ("wrong-path-1", 9000, 0x4f86dc684e9794ce, 0xcbf29ce484222325),
    ("wrong-path-2", 2500, 0x5eb55f2a27c43b9b, 0xd1d562457950830d),
    ("wrong-path-2", 9000, 0xef4e09424b450ed1, 0x501d3375712ccda7),
    ("wrong-path-3", 2500, 0x5eb55f2a27c43b9b, 0xcc1b95f25085b056),
    ("wrong-path-3", 9000, 0xef4e09424b450ed1, 0x2e0267e629fe678d),
    ("wrong-path-4", 2500, 0x5eb55f2a27c43b9b, 0x5372e12f5ed1b630),
    ("wrong-path-4", 9000, 0x0fca2c02d4e40758, 0xaa2d2cbd0ee2c657),
    ("wrong-path-5", 2500, 0x5eb55f2a27c43b9b, 0x9d0567aa6335485c),
    ("wrong-path-5", 9000, 0xef4e09424b450ed1, 0x00f1ea6cfbb2fa62),
    ("wrong-path-6", 2500, 0x5eb55f2a27c43b9b, 0xd197f3ae5a07d667),
    ("wrong-path-6", 9000, 0x0fca2c02d4e40758, 0xf616769dcf4cba0d),
    ("wrong-path-7", 2500, 0x5eb55f2a27c43b9b, 0x11fe45d65559eb10),
    ("wrong-path-7", 9000, 0xd4ae4c0675546612, 0x38be83155927844b),
    ("wrong-path-8", 2500, 0x5eb55f2a27c43b9b, 0xdd421db7b4139562),
    ("wrong-path-8", 9000, 0x4a514594d2a44665, 0x611545ef4bec7417),
];

/// The checkpoint format guard: the bytes every component writes are pinned.
/// A layout change must bump `CHECKPOINT_FORMAT_VERSION` and re-pin these
/// digests; a refactor of the codec must leave them untouched.
#[test]
fn component_payload_bytes_are_pinned() {
    assert_eq!(CHECKPOINT_FORMAT_VERSION, 5, "re-pin the digests below");
    let digest = |b: &[u8]| fnv1a(FNV_OFFSET_BASIS, b);
    let cases = pin_cases();
    let got: Vec<(String, u64, u64, u64)> = par::par_map(&cases, |case| {
        pin_payloads(case)
            .into_iter()
            .map(|(cut, p, q)| (case.label.clone(), cut, digest(&p), digest(&q)))
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect();
    let rendered: String = got
        .iter()
        .map(|(l, c, p, q)| format!("    (\"{l}\", {c}, {p:#018x}, {q:#018x}),\n"))
        .collect();
    let want: Vec<(String, u64, u64, u64)> = PINNED_PAYLOAD_DIGESTS
        .iter()
        .map(|&(l, c, p, q)| (l.to_string(), c, p, q))
        .collect();
    assert_eq!(got, want, "payload digests moved; now:\n{rendered}");
}

/// The pipeline payload carries only live bandwidth-pool state, so its size
/// follows the in-flight window, not how far commit has run ahead of fetch.
/// The memory-bound specifications below are the ones whose payloads grew
/// with the run when the pool kept one shared dense window pruned to the
/// fetch cycle (1.8–6.0 MB at the 100K and 150K cuts); each payload must
/// stay within 1 MiB.
///
/// 173.applu on `EOLE_4_60` is checked at 50K and 100K only. By 150K its
/// deferred value-predictor trainings — held until the group fetched after
/// their commit, and fetch runs far behind commit in this phase — reach
/// ~51 500 records (2.7 MB of a 2.9 MB payload, against 2.5 KB of pool
/// state). That queue is simulated state, not pool bookkeeping.
#[test]
fn pipeline_payload_stays_bounded_on_memory_bound_runs() {
    const BOUND: usize = 1 << 20;
    let all_cuts: &[u64] = &[50_000, 100_000, 150_000];
    let cases = [
        ("462.libquantum", PipelineConfig::baseline_6_60(), all_cuts),
        ("183.equake", PipelineConfig::baseline_6_60(), all_cuts),
        ("450.soplex", PipelineConfig::baseline_6_60(), all_cuts),
        ("173.applu", PipelineConfig::eole_4_60(), &all_cuts[..2]),
    ];
    let sizes = par::par_map(&cases, |(name, cfg, cuts)| {
        let spec = spec_benchmark(name);
        let mut pipeline = Pipeline::new(cfg.clone());
        let mut predictor = PredictorKind::None.build();
        let mut stream = UopSource::Live(&spec).stream();
        let mut stream_pos = 0u64;
        cuts.iter()
            .map(|&cut| {
                pipeline.run_segment(&mut stream, &mut predictor, cut, &mut stream_pos);
                pipeline.save_state().len()
            })
            .collect::<Vec<_>>()
    });
    for ((name, _, cuts), sizes) in cases.iter().zip(sizes) {
        for (cut, len) in cuts.iter().zip(sizes) {
            assert!(
                len <= BOUND,
                "{name} at {cut} µ-ops: pipeline payload of {len} bytes exceeds {BOUND}"
            );
        }
    }
}

/// The hostile-input contract of the component decoders: each payload of
/// [`pin_cases`], cut short or with one byte flipped at seeded positions, is
/// restored onto a fresh component and must come back `Ok` or `Err` — never
/// a panic. Truncated or extended payloads must be rejected. (The codec
/// bounds every decoded length by the bytes that remain before decoding the
/// elements, so a flipped length prefix cannot allocate beyond the payload
/// either.)
#[test]
fn mutated_component_payloads_are_rejected_without_panicking() {
    const MUTATIONS: usize = 16;
    let cases = pin_cases();
    par::par_map(&cases, |case| {
        let (_, pipeline, predictor) = pin_payloads(case).pop().expect("a cut");
        let restore = |is_pipeline: bool, bytes: &[u8]| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if is_pipeline {
                    Pipeline::new(case.cfg.clone()).restore_state(bytes).is_ok()
                } else {
                    case.kind.build().restore_state(bytes).is_ok()
                }
            }))
            .unwrap_or_else(|_| panic!("{}: restore panicked", case.label))
        };
        let mut rng = SmallRng::seed_from_u64(fnv1a(FNV_OFFSET_BASIS, case.label.as_bytes()));
        for (is_pipeline, bytes) in [(true, &pipeline), (false, &predictor)] {
            let mut extended = bytes.clone();
            extended.push(0);
            assert!(
                !restore(is_pipeline, &extended),
                "{}: trailing byte",
                case.label
            );
            if bytes.is_empty() {
                continue;
            }
            for _ in 0..MUTATIONS {
                let cut = rng.gen_range(0..bytes.len());
                assert!(
                    !restore(is_pipeline, &bytes[..cut]),
                    "{}: truncation to {cut} bytes accepted",
                    case.label
                );
            }
            // Seeded flips anywhere, plus every byte of the leading length
            // prefix (random positions mostly land in table contents).
            let leading = 0..bytes.len().min(8);
            let seeded: Vec<usize> = (0..MUTATIONS)
                .map(|_| rng.gen_range(0..bytes.len()))
                .collect();
            for at in leading.chain(seeded) {
                let mut flipped = bytes.clone();
                flipped[at] ^= rng.gen_range(1..=u8::MAX);
                restore(is_pipeline, &flipped);
            }
        }
    });
}
