//! Crash-safety and fault-tolerance tests of the resumable sweep engine.
//!
//! The headline property: a sweep killed at an arbitrary point — partial cell
//! set, journal torn mid-append — resumes losing only in-flight cells and
//! converges to a final ledger *byte-identical* to an uninterrupted run. The
//! kill points are seeded-random so the suite probes different crash shapes
//! on every seed while staying reproducible.

use bebop::{
    configs, run_fingerprint, CheckpointError, PredictorKind, SimCheckpoint,
    CHECKPOINT_FORMAT_VERSION,
};
use bebop_bench::sweep::{run_sweep_jobs, CellStatus, ReasonKind, SweepOptions, SweepRequest};
use bebop_bench::{FaultPlan, TraceCachePolicy, TraceSet, TraceStore};
use bebop_trace::{fnv1a_wide, WorkloadSpec, FNV_OFFSET_BASIS};
use bebop_uarch::{Pipeline, PipelineConfig, ValuePredictor};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fs;
use std::path::PathBuf;

const UOPS: u64 = 1_500;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bebop-sweep-test-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A 3-workload × 3-variant grid (9 cells), small enough that the full suite
/// stays fast and structured enough to exercise baseline-vs-variant handling.
fn tiny_request() -> SweepRequest {
    let pipe = PipelineConfig::baseline_vp_6_60();
    SweepRequest {
        name: "tiny".to_string(),
        workloads: vec![
            WorkloadSpec::named_demo("swp-a"),
            WorkloadSpec::named_demo("swp-b"),
            WorkloadSpec::named_demo("swp-c"),
        ],
        variants: vec![
            ("D-VTAGE".to_string(), pipe.clone(), PredictorKind::DVtage),
            (
                "Small_4p".to_string(),
                pipe.clone(),
                PredictorKind::BlockDVtage(configs::small_4p()),
            ),
            (
                "Medium".to_string(),
                pipe,
                PredictorKind::BlockDVtage(configs::medium()),
            ),
        ],
        uops: UOPS,
    }
}

#[test]
fn uninterrupted_sweep_completes_and_is_idempotent() {
    let dir = tmp_dir("baseline");
    let req = tiny_request();
    let out = run_sweep_jobs(&req, &dir, None, &SweepOptions::default()).expect("sweep");
    assert_eq!((out.total, out.resumed, out.executed), (9, 0, 9));
    assert_eq!(out.resimulated, 0);
    assert!(out.complete);
    assert!(out.quarantined.is_empty());
    assert_eq!(out.simulated_uops, 9 * UOPS);
    let ledger = out.ledger_path.expect("complete sweep writes the ledger");
    assert!(ledger.exists());
    let bytes = fs::read(&ledger).unwrap();

    // A second run over the same directory resumes everything, simulates
    // nothing, and rewrites the identical ledger.
    let again = run_sweep_jobs(&req, &dir, None, &SweepOptions::default()).expect("resume");
    assert_eq!((again.resumed, again.executed), (9, 0));
    assert_eq!(again.simulated_uops, 0);
    assert_eq!(fs::read(&ledger).unwrap(), bytes);
    // Every cell carries real statistics and a digest.
    assert!(again
        .cells
        .iter()
        .all(|c| c.status == CellStatus::Ok && c.uops == UOPS && c.cycles > 0 && c.digest != 0));
    let _ = fs::remove_dir_all(&dir);
}

/// Simulates `kill -9` shapes: run part of the sweep, optionally tear bytes
/// off the journal tail (a crash mid-append), resume, and require the final
/// ledger to be byte-identical to the uninterrupted run's.
#[test]
fn killed_and_resumed_sweep_recovers_to_the_identical_ledger() {
    let req = tiny_request();

    // Reference: one uninterrupted run.
    let ref_dir = tmp_dir("kill-ref");
    let ref_out = run_sweep_jobs(&req, &ref_dir, None, &SweepOptions::default()).expect("ref");
    let ref_bytes = fs::read(ref_out.ledger_path.as_ref().unwrap()).unwrap();

    for seed in [1u64, 7, 42] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let dir = tmp_dir(&format!("kill-{seed}"));

        // Phase 1: the run that gets "killed" after a random number of cells.
        let survivors = rng.gen_range(1..9usize);
        let partial = run_sweep_jobs(
            &req,
            &dir,
            None,
            &SweepOptions {
                max_cells: Some(survivors),
                ..SweepOptions::default()
            },
        )
        .expect("partial");
        assert_eq!(partial.executed, survivors);
        assert!(!partial.complete);
        assert!(partial.ledger_path.is_none(), "no ledger before complete");

        // The kill lands mid-append on some runs: tear a random amount off
        // the journal tail (up to a whole record and change).
        let journal = dir.join("journal.bbl");
        let bytes = fs::read(&journal).unwrap();
        let tear = rng.gen_range(0..120usize).min(bytes.len());
        let kept = &bytes[..bytes.len() - tear];
        fs::write(&journal, kept).unwrap();
        // Only records whose trailing newline survived the tear are intact;
        // a tear can clip more than one record when lines are short.
        let intact = kept.iter().filter(|&&b| b == b'\n').count();
        let lost = survivors - intact;

        // Phase 2: resume to completion. Only in-flight work re-runs: the
        // torn record (if any) is lost, every fully journaled cell survives.
        let resumed = run_sweep_jobs(&req, &dir, None, &SweepOptions::default()).expect("resume");
        assert_eq!(
            resumed.resumed,
            survivors - lost,
            "seed {seed}: completed cells must survive the crash"
        );
        assert_eq!(resumed.executed, 9 - survivors + lost);
        assert_eq!(resumed.resimulated, 0);
        let partial_tail = kept.last().is_some_and(|&b| b != b'\n');
        assert_eq!(resumed.salvaged_bytes > 0, partial_tail);
        assert!(resumed.complete);

        // The recovered ledger is byte-identical to the uninterrupted one.
        let ledger = resumed.ledger_path.expect("complete");
        assert_eq!(
            fs::read(&ledger).unwrap(),
            ref_bytes,
            "seed {seed}: recovered ledger must be bit-identical"
        );

        // Phase 3: one more resume finds nothing to do.
        let done = run_sweep_jobs(&req, &dir, None, &SweepOptions::default()).expect("idempotent");
        assert_eq!((done.resumed, done.executed), (9, 0));
        let _ = fs::remove_dir_all(&dir);
    }
    let _ = fs::remove_dir_all(&ref_dir);
}

#[test]
fn faulty_store_and_poisoned_job_degrade_without_losing_the_sweep() {
    let req = tiny_request();
    let dir = tmp_dir("faulty");
    let store_dir = tmp_dir("faulty-store");
    let mut store = TraceStore::open(&store_dir).expect("open store");
    store.set_faults(
        FaultPlan::seeded(3)
            .with_read_errors(4)
            .with_write_errors(4)
            .with_short_reads(5)
            .with_corruption(5),
    );

    // Job 4 is poisoned: it must be quarantined, not abort the run.
    let opts = SweepOptions {
        faults: Some(FaultPlan::seeded(3).with_panic_job(4)),
        ..SweepOptions::default()
    };
    let out = run_sweep_jobs(&req, &dir, Some(&store), &opts).expect("faulty sweep");
    assert!(out.complete, "faults must degrade, never lose the sweep");
    assert_eq!(out.executed, 9);
    assert_eq!(out.quarantined.len(), 1, "exactly the poisoned job");
    assert_eq!(out.quarantined[0].1, ReasonKind::Panic);
    assert!(out.quarantined[0].2.contains("injected"));
    assert_eq!(
        out.cells
            .iter()
            .filter(|c| c.status == CellStatus::Ok)
            .count(),
        8
    );
    // The quarantined cell is variant 1 × workload 1 (job index 4 = 1*3+1).
    assert!(out.quarantined[0].0.contains("swp-b"));
    assert!(out.quarantined[0].0.contains("Small_4p"));
    assert!(out.ledger_path.is_some());

    // Resuming with a healthy store re-runs nothing — quarantine is a
    // terminal, journaled outcome, not missing work.
    let healthy = TraceStore::open(&store_dir).expect("reopen");
    let resumed = run_sweep_jobs(&req, &dir, Some(&healthy), &SweepOptions::default())
        .expect("resume after faults");
    assert_eq!((resumed.resumed, resumed.executed), (9, 0));
    assert_eq!(resumed.quarantined.len(), 1);

    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&store_dir);
}

#[test]
fn sweep_cells_checkpoint_and_produce_identical_ledgers() {
    // A sweep with intra-cell checkpointing enabled produces the same ledger
    // bytes as one without: checkpoints change durability, never results.
    let req = tiny_request();
    let plain_dir = tmp_dir("ckpt-plain");
    let ckpt_dir = tmp_dir("ckpt-on");
    let plain = run_sweep_jobs(&req, &plain_dir, None, &SweepOptions::default()).expect("plain");
    let ckpt = run_sweep_jobs(
        &req,
        &ckpt_dir,
        None,
        &SweepOptions {
            // Far smaller than the budget, so every cell snapshots repeatedly.
            checkpoint_every: 256,
            ..SweepOptions::default()
        },
    )
    .expect("checkpointed");
    assert!(plain.complete && ckpt.complete);
    assert_eq!(
        fs::read(plain.ledger_path.as_ref().unwrap()).unwrap(),
        fs::read(ckpt.ledger_path.as_ref().unwrap()).unwrap(),
        "checkpointing must not change any result bit"
    );
    // Completed cells delete their snapshots: the checkpoint directory holds
    // no stale state to resurrect.
    let ckpt_files = fs::read_dir(ckpt_dir.join("ckpt"))
        .map(|d| d.count())
        .unwrap_or(0);
    assert_eq!(
        ckpt_files, 0,
        "completed cells must discard their snapshots"
    );

    // The upgrade path: an in-progress sweep whose `ckpt/` holds a real
    // mid-cell snapshot of a BeBoP cell, planted once in this format (the
    // control: it resumes) and once restamped as the previous format version.
    // That one is rejected (the sweep says so on stderr), the cell re-runs
    // from zero, and both ledgers equal the uninterrupted sweep's.
    let plain_ledger = fs::read(plain.ledger_path.as_ref().unwrap()).unwrap();
    let job = req
        .expand()
        .into_iter()
        .find(|j| (j.variant, j.workload) == (2, 1))
        .unwrap();
    let (_, pipe, kind) = &req.variants[job.variant];
    let set = TraceSet::build(
        &req.workloads[job.workload..=job.workload],
        UOPS,
        &TraceCachePolicy::default(),
    );
    let fingerprint = run_fingerprint(&set.source(0), pipe, kind, UOPS);
    let mut pipeline = Pipeline::new(pipe.clone());
    let mut predictor = kind.build();
    let mut stream_pos = 0;
    pipeline.run_segment(
        &mut set.source(0).stream(),
        &mut predictor,
        UOPS / 2,
        &mut stream_pos,
    );
    let snapshot = SimCheckpoint {
        fingerprint,
        committed: pipeline.committed_uops(),
        stream_pos,
        pipeline: pipeline.save_state(),
        predictor: predictor.save_state(),
    };
    for old in [false, true] {
        let dir = tmp_dir(if old { "ckpt-old" } else { "ckpt-current" });
        let opts = |max_cells| SweepOptions {
            max_cells,
            checkpoint_every: 256,
            ..SweepOptions::default()
        };
        let partial = run_sweep_jobs(&req, &dir, None, &opts(Some(1))).expect("partial");
        assert_eq!((partial.executed, partial.complete), (1, false));
        let path = dir.join("ckpt").join(format!("{:016x}.bbpckpt", job.key.0));
        let mut bytes = snapshot.encode();
        if old {
            bytes[8..12].copy_from_slice(&(CHECKPOINT_FORMAT_VERSION - 1).to_le_bytes());
            let body = bytes.len() - 8;
            let checksum = fnv1a_wide(FNV_OFFSET_BASIS, &bytes[..body]);
            bytes[body..].copy_from_slice(&checksum.to_le_bytes());
        }
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, &bytes).unwrap();
        let found = CHECKPOINT_FORMAT_VERSION - 1;
        assert_eq!(
            SimCheckpoint::load(&path, fingerprint).map(|_| ()),
            if old {
                Err(CheckpointError::VersionMismatch { found })
            } else {
                Ok(())
            }
        );

        let resumed = run_sweep_jobs(&req, &dir, None, &opts(None)).expect("resume");
        assert!(resumed.complete);
        assert_eq!((resumed.resumed, resumed.executed), (1, 8));
        let from = if old { 0 } else { snapshot.committed };
        assert_eq!(
            (resumed.checkpoint_resumes, resumed.checkpoint_resumed_uops),
            (u64::from(!old), from),
            "old format: {old}"
        );
        assert_eq!(
            fs::read(resumed.ledger_path.as_ref().unwrap()).unwrap(),
            plain_ledger,
            "old format: {old}"
        );
        assert_eq!(fs::read_dir(dir.join("ckpt")).unwrap().count(), 0);
        let _ = fs::remove_dir_all(&dir);
    }
    let _ = fs::remove_dir_all(&plain_dir);
    let _ = fs::remove_dir_all(&ckpt_dir);
}

#[test]
fn mismatched_sweep_directories_are_refused() {
    let dir = tmp_dir("mismatch");
    let req = tiny_request();
    run_sweep_jobs(&req, &dir, None, &SweepOptions::default()).expect("first sweep");

    // Same directory, different grid (budget changed → every JobKey changed):
    // the manifest check must refuse to mix the two result sets.
    let other = SweepRequest {
        uops: UOPS + 1,
        ..tiny_request()
    };
    let err = run_sweep_jobs(&other, &dir, None, &SweepOptions::default())
        .expect_err("a different sweep must be refused");
    assert!(err.to_string().contains("manifest mismatch"), "{err}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn garbage_in_the_journal_is_salvaged_not_trusted() {
    let dir = tmp_dir("garbage");
    let req = tiny_request();
    let partial = run_sweep_jobs(
        &req,
        &dir,
        None,
        &SweepOptions {
            max_cells: Some(3),
            ..SweepOptions::default()
        },
    )
    .expect("partial");
    assert_eq!(partial.executed, 3);

    // Append garbage plus a torn half-record, as a crashed writer might.
    let journal = dir.join("journal.bbl");
    let mut bytes = fs::read(&journal).unwrap();
    bytes.extend_from_slice(b"not a record at all\nC 012345");
    fs::write(&journal, &bytes).unwrap();

    let out = run_sweep_jobs(&req, &dir, None, &SweepOptions::default()).expect("resume");
    assert_eq!(out.resumed, 3, "valid records before the garbage survive");
    assert!(out.salvaged_bytes > 0, "the garbage tail must be truncated");
    assert!(out.complete);
    let _ = fs::remove_dir_all(&dir);
}
