//! Wrong-path mode suite.
//!
//! Two families of guarantees:
//!
//! 1. **Replay fidelity for wrong-path traces**: a wrong-path-enabled
//!    workload must simulate bit-identically from the live generator, from a
//!    [`TraceBuffer`] replay, and from a trace-store round trip — for every
//!    built-in predictor kind, under the strictest (polluting) wrong-path
//!    pipeline configuration. This is what lets the `--wrong-path` experiment
//!    use the shared-trace harness at all.
//! 2. **Wrong-path-off regression**: with the mode off, the trace stream and
//!    the simulation results are byte-identical to the pre-wrong-path
//!    baseline, asserted against golden values recorded on `main` before the
//!    mode existed.

use bebop::{
    configs, run_source, PipelineConfig, PredictorKind, TraceBuffer, TraceStore, UopSource,
    WorkloadSpec,
};
use bebop_trace::{decode_trace, encode_trace, fnv1a, TraceGenerator, FNV_OFFSET_BASIS};

const UOPS: u64 = 20_000;

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

fn wp_spec() -> WorkloadSpec {
    let mut spec = WorkloadSpec::new("wp-integration", 77).with_wrong_path(8);
    // Enough mispredictions that bursts are actually simulated.
    spec.branches.random_frac = 0.3;
    spec
}

/// The most behaviour-rich configuration: wrong-path execution with
/// polluting predictor updates.
fn wp_pipeline() -> PipelineConfig {
    PipelineConfig::baseline_vp_6_60().with_wrong_path(true)
}

#[test]
fn wrong_path_replay_is_bit_identical_for_every_predictor() {
    let spec = wp_spec();
    let buf = TraceBuffer::record(&spec, UOPS);
    assert_eq!(buf.committed_len() as u64, UOPS);
    assert!(buf.wrong_path_len() > 0, "bursts must be recorded");

    // Store round trip through the serialised byte format.
    let decoded = decode_trace(&encode_trace(&spec, &buf)).expect("round trip");
    assert_eq!(decoded.buffer.wrong_path_len(), buf.wrong_path_len());

    for kind in all_kinds() {
        let live = run_source(UopSource::Live(&spec), &wp_pipeline(), &kind, UOPS);
        let replayed = run_source(UopSource::Replay(&buf), &wp_pipeline(), &kind, UOPS);
        let stored = run_source(
            UopSource::Replay(&decoded.buffer),
            &wp_pipeline(),
            &kind,
            UOPS,
        );
        assert_eq!(live, replayed, "{} diverged under replay", kind.label());
        assert_eq!(
            live,
            stored,
            "{} diverged through the store format",
            kind.label()
        );
        assert_eq!(live.uops, UOPS, "{}: budget counts committed", kind.label());
        assert!(
            live.wrong_path.fetched > 0,
            "{}: wrong path must be simulated",
            kind.label()
        );
    }
}

#[test]
fn wrong_path_store_round_trips_through_a_directory_store() {
    let dir = std::env::temp_dir().join(format!("bebop-wp-int-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = TraceStore::open(&dir).expect("open");
    let spec = wp_spec();
    let (cold, was_hit) = store.load_or_record(&spec, UOPS);
    assert!(!was_hit);
    let warm = store.load(&spec, UOPS).expect("warm hit");
    for kind in [
        PredictorKind::DVtage,
        PredictorKind::BlockDVtage(configs::medium()),
    ] {
        let a = run_source(UopSource::Replay(&cold), &wp_pipeline(), &kind, UOPS);
        let b = run_source(UopSource::Replay(&warm), &wp_pipeline(), &kind, UOPS);
        assert_eq!(a, b, "{} diverged through the store", kind.label());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pollution_policies_differ_only_through_the_predictor() {
    // Clean vs polluted over the identical trace: the committed instruction
    // stream is the same, predictor outcomes differ.
    let spec = wp_spec();
    let buf = TraceBuffer::record(&spec, UOPS);
    let base = PipelineConfig::baseline_vp_6_60();
    let clean = run_source(
        UopSource::Replay(&buf),
        &base.clone().with_wrong_path(false),
        &PredictorKind::DVtage,
        UOPS,
    );
    let polluted = run_source(
        UopSource::Replay(&buf),
        &base.with_wrong_path(true),
        &PredictorKind::DVtage,
        UOPS,
    );
    assert_eq!(clean.uops, polluted.uops);
    assert_eq!(clean.insts, polluted.insts);
    assert_eq!(clean.wrong_path.fetched, polluted.wrong_path.fetched);
    assert_eq!(clean.wrong_path.vp_trains, 0);
    assert!(polluted.wrong_path.vp_trains > 0);
    // Pollution must actually change predictor behaviour on this trace
    // (fewer/different predictions, different correctness — any visible
    // difference qualifies; equality would mean the knob is dead).
    assert_ne!(clean.vp, polluted.vp, "pollution had no observable effect");
}

// ---------------------------------------------------------------------------
// Wrong-path-off regression against pre-mode golden values.
// ---------------------------------------------------------------------------

/// A stable fingerprint of the first 50 000 µ-ops of a stream, covering every
/// field the pipeline consumes.
fn stream_hash(spec: &WorkloadSpec) -> u64 {
    let mut h = FNV_OFFSET_BASIS;
    for u in TraceGenerator::new(spec).take(50_000) {
        h = fnv1a(h, &u.seq.to_le_bytes());
        h = fnv1a(h, &u.pc.to_le_bytes());
        h = fnv1a(h, &u.value.to_le_bytes());
        h = fnv1a(
            h,
            &[
                u.uop_idx,
                u.inst_num_uops,
                u.inst_len,
                u8::from(u.wrong_path),
            ],
        );
        if let Some(m) = u.mem {
            h = fnv1a(h, &m.addr.to_le_bytes());
        }
        if let Some(b) = u.branch {
            h = fnv1a(h, &[b.taken as u8]);
            h = fnv1a(h, &b.target.to_le_bytes());
        }
    }
    h
}

#[test]
fn default_stream_is_byte_identical_to_the_pre_wrong_path_baseline() {
    // Golden value recorded on `main` immediately before the wrong-path mode
    // was introduced (same hash function, `wrong_path` byte folded in as 0 —
    // the pre-mode hash had no such field, so a constant 0 byte preserves
    // equality only if no default-spec µ-op is ever marked wrong-path).
    let spec = WorkloadSpec::named_demo("golden");
    let mut h = FNV_OFFSET_BASIS;
    for u in TraceGenerator::new(&spec).take(50_000) {
        assert!(
            !u.wrong_path,
            "default specs must not emit wrong-path µ-ops"
        );
        h = fnv1a(h, &u.seq.to_le_bytes());
        h = fnv1a(h, &u.pc.to_le_bytes());
        h = fnv1a(h, &u.value.to_le_bytes());
        h = fnv1a(h, &[u.uop_idx, u.inst_num_uops, u.inst_len]);
        if let Some(m) = u.mem {
            h = fnv1a(h, &m.addr.to_le_bytes());
        }
        if let Some(b) = u.branch {
            h = fnv1a(h, &[b.taken as u8]);
            h = fnv1a(h, &b.target.to_le_bytes());
        }
    }
    assert_eq!(
        h, 0x56e8_69a2_80fb_8b60,
        "the default µ-op stream changed — figure outputs will not match main"
    );
}

#[test]
fn default_simulation_matches_the_pre_wrong_path_baseline() {
    // Golden SimStats recorded on `main` immediately before the wrong-path
    // mode was introduced: 429.mcf, Baseline_VP_6_60, D-VTAGE, 30K µ-ops.
    let spec = bebop::spec_benchmark("429.mcf");
    let stats = bebop::run_source(
        UopSource::Live(&spec),
        &PipelineConfig::baseline_vp_6_60(),
        &PredictorKind::DVtage,
        30_000,
    );
    assert_eq!(stats.cycles, 293_531, "cycle count changed vs main");
    assert_eq!(stats.branch_flushes, 372);
    assert_eq!(stats.vp_flushes, 0);
    assert_eq!(
        (
            stats.vp.eligible,
            stats.vp.predicted,
            stats.vp.correct,
            stats.vp.incorrect,
            stats.vp.free_load_immediates
        ),
        (20_400, 147, 147, 0, 1_597),
        "value-prediction statistics changed vs main"
    );
    // And the wrong-path counters of a mode-off run are identically zero.
    assert_eq!(stats.wrong_path, Default::default());
}

#[test]
fn wrong_path_off_stream_equals_enabled_streams_correct_path() {
    let plain = WorkloadSpec::new("wp-off-eq", 13);
    let wp = plain.clone().with_wrong_path(8);
    let a: Vec<_> = TraceGenerator::new(&plain).take(25_000).collect();
    let b: Vec<_> = TraceGenerator::new(&wp)
        .filter(|u| !u.wrong_path)
        .take(25_000)
        .collect();
    for (x, y) in a.iter().zip(&b) {
        let mut y2 = *y;
        y2.seq = x.seq;
        assert_eq!(*x, y2);
    }
    // Hash sanity for the wrong-path stream itself: deterministic per seed.
    assert_eq!(stream_hash(&wp), stream_hash(&wp.clone()));
}
