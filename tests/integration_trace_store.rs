//! Persistence-fidelity suite for the on-disk trace store.
//!
//! A recording that travels through the store — serialised, checksummed,
//! written, reloaded — must be indistinguishable from the live generation it
//! recorded: bit-identical µ-op streams and bit-identical `SimStats` for every
//! built-in predictor kind. And a file that *cannot* be trusted (truncated,
//! wrong magic or version, flipped payload bit, recorded for a different
//! workload) must be rejected and transparently regenerated, never replayed.

use bebop::{
    configs, run_source, spec_fingerprint, MixSpec, PipelineConfig, PredictorKind, TraceBuffer,
    TraceStore, UopSource, WorkloadSpec,
};
use bebop_trace::{
    decode_trace, encode_trace, fnv1a, fnv1a_wide, StoreError, TraceKey, FNV_OFFSET_BASIS,
    TRACE_FORMAT_VERSION,
};
use std::fs;
use std::path::PathBuf;

const UOPS: u64 = 20_000;

fn tmp_store(tag: &str) -> (PathBuf, TraceStore) {
    let dir = std::env::temp_dir().join(format!(
        "bebop-integration-store-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    let store = TraceStore::open(&dir).expect("store directory opens");
    (dir, store)
}

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

#[test]
fn store_loaded_replay_is_bit_identical_for_every_predictor_kind() {
    let (dir, store) = tmp_store("fidelity");
    let spec = bebop::spec_benchmark("401.bzip2");
    let (recorded, loaded_flag) = store.load_or_record(&spec, UOPS);
    assert!(!loaded_flag, "first materialisation must record");
    let reloaded = store.load(&spec, UOPS).expect("store hit after save");

    // Stream-level equality first (the strongest, cheapest check) ...
    assert_eq!(
        recorded.replay().collect::<Vec<_>>(),
        reloaded.replay().collect::<Vec<_>>()
    );
    // ... then end-to-end: simulating the reloaded trace must match live
    // generation bit-for-bit, for every predictor kind.
    let pipeline = PipelineConfig::eole_4_60();
    for kind in all_kinds() {
        let live = run_source(UopSource::Live(&spec), &pipeline, &kind, UOPS);
        let replayed = run_source(UopSource::Replay(&reloaded), &pipeline, &kind, UOPS);
        assert_eq!(
            live,
            replayed,
            "{} diverged through the trace store",
            kind.label()
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn byte_format_round_trips_and_rejects_mangling() {
    let spec = WorkloadSpec::named_demo("bytes");
    let buf = TraceBuffer::record(&spec, 5_000);
    let bytes = encode_trace(&spec, &buf);

    let decoded = decode_trace(&bytes).expect("clean bytes decode");
    assert_eq!(decoded.fingerprint, spec_fingerprint(&spec));
    assert_eq!(decoded.seed, spec.seed);
    assert_eq!(
        buf.replay().collect::<Vec<_>>(),
        decoded.buffer.replay().collect::<Vec<_>>()
    );

    // Truncation at every interesting boundary.
    for cut in [0, 7, 12, 63, 64, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            decode_trace(&bytes[..cut]).is_err(),
            "truncation at {cut} must be rejected"
        );
    }
    // Wrong magic.
    let mut mangled = bytes.clone();
    mangled[0] = b'X';
    assert!(matches!(decode_trace(&mangled), Err(StoreError::BadMagic)));
    // Wrong (future) version.
    let mut future = bytes.clone();
    future[8..12].copy_from_slice(&(TRACE_FORMAT_VERSION + 1).to_le_bytes());
    assert!(matches!(
        decode_trace(&future),
        Err(StoreError::VersionMismatch(_))
    ));
    // A single flipped payload bit trips the checksum.
    let mut flipped = bytes.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x80;
    assert!(matches!(
        decode_trace(&flipped),
        Err(StoreError::ChecksumMismatch)
    ));
}

#[test]
fn corrupt_and_stale_files_regenerate_transparently() {
    let (dir, store) = tmp_store("reject");
    let spec = WorkloadSpec::named_demo("reject-demo");
    let (original, _) = store.load_or_record(&spec, 3_000);
    let path = store.trace_path(&spec, 3_000);
    assert!(path.exists());

    // Corrupt the payload on disk: load must miss, delete the file, and
    // load_or_record must rebuild an identical recording.
    let mut bytes = fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    fs::write(&path, &bytes).unwrap();
    assert!(store.load(&spec, 3_000).is_none(), "corrupt file must miss");
    assert!(!path.exists(), "corrupt file must be deleted");
    let (rebuilt, loaded) = store.load_or_record(&spec, 3_000);
    assert!(!loaded, "rebuild must regenerate, not load");
    assert_eq!(
        original.replay().collect::<Vec<_>>(),
        rebuilt.replay().collect::<Vec<_>>()
    );

    // A file recorded for a *different* spec at this path (fingerprint
    // mismatch) is stale, not usable: miss + delete + regenerate.
    let mut other = spec.clone();
    other.seed ^= 0xDEAD_BEEF;
    let foreign = TraceBuffer::record(&other, 3_000);
    fs::write(&path, encode_trace(&other, &foreign)).unwrap();
    assert!(
        store.load(&spec, 3_000).is_none(),
        "mismatched fingerprint must miss"
    );
    assert!(!path.exists());
    let (again, loaded) = store.load_or_record(&spec, 3_000);
    assert!(!loaded);
    let pipeline = PipelineConfig::baseline_vp_6_60();
    let live = run_source(
        UopSource::Live(&spec),
        &pipeline,
        &PredictorKind::DVtage,
        3_000,
    );
    let replay = run_source(
        UopSource::Replay(&again),
        &pipeline,
        &PredictorKind::DVtage,
        3_000,
    );
    assert_eq!(live, replay, "regenerated trace must match live generation");
    let _ = fs::remove_dir_all(&dir);
}

/// Rewrites the header checksum of a trace file whose header was edited, so
/// version-downgrade tests exercise the *version* check, not the checksum.
fn rechecksum(bytes: &mut [u8]) {
    let sum = fnv1a_wide(fnv1a(FNV_OFFSET_BASIS, &bytes[..56]), &bytes[64..]);
    bytes[56..64].copy_from_slice(&sum.to_le_bytes());
}

#[test]
fn format_v2_files_are_rejected_and_regenerated() {
    // A valid v4 file downgraded to version 2 or 3 (checksum made consistent,
    // so only the version differs) must be rejected with VersionMismatch —
    // a v2-era recording has no ASID lane and meta-only wrong-path
    // semantics, so mis-replaying it silently would corrupt mix experiments,
    // and a v3 file's byte-serial checksum would read as corruption — and
    // the store must delete it and regenerate transparently.
    assert_eq!(TRACE_FORMAT_VERSION, 4, "update this test on a format bump");
    let (dir, store) = tmp_store("v2");
    let spec = WorkloadSpec::named_demo("v2-reject");
    let (original, _) = store.load_or_record(&spec, 2_000);
    let path = store.trace_path(&spec, 2_000);
    let current = fs::read(&path).unwrap();

    for old in [2u32, 3] {
        let mut bytes = current.clone();
        bytes[8..12].copy_from_slice(&old.to_le_bytes());
        rechecksum(&mut bytes);
        assert_eq!(
            decode_trace(&bytes).err(),
            Some(StoreError::VersionMismatch(old)),
            "a checksum-consistent v{old} file must fail on the version, not the checksum"
        );
        fs::write(&path, &bytes).unwrap();

        assert!(store.load(&spec, 2_000).is_none(), "v{old} file must miss");
        assert!(!path.exists(), "v{old} file must be deleted");
        let (rebuilt, loaded) = store.load_or_record(&spec, 2_000);
        assert!(!loaded, "regeneration, not a load");
        assert_eq!(
            original.replay().collect::<Vec<_>>(),
            rebuilt.replay().collect::<Vec<_>>()
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn mix_recordings_round_trip_with_their_asid_lane() {
    let (dir, store) = tmp_store("mix");
    let mix = MixSpec::pair(
        500,
        bebop::spec_benchmark("171.swim"),
        bebop::spec_benchmark("429.mcf"),
    );

    let key = TraceKey::for_mix(&mix);
    let (cold, was_hit) = store.load_or_record_key(&key, UOPS, || mix.record(UOPS));
    assert!(!was_hit, "first materialisation must record");
    let (warm, was_hit) = store.load_or_record_key(&key, UOPS, || mix.record(UOPS));
    assert!(was_hit, "second materialisation must load");

    // Bit-identity including the ASID lane: the store round trip preserves
    // every context tag.
    let live: Vec<_> = mix.generator().take(cold.len()).collect();
    let cold_replay: Vec<_> = cold.replay().collect();
    let warm_replay: Vec<_> = warm.replay().collect();
    assert_eq!(live, cold_replay, "recording diverged from live interleave");
    assert_eq!(cold_replay, warm_replay, "store round trip lost fidelity");
    assert!(warm_replay.iter().any(|u| u.asid == 1), "tags must survive");

    // And end-to-end: a mix-mode simulation of the loaded trace matches one
    // of the freshly recorded trace bit-for-bit.
    let pipe = PipelineConfig::baseline_vp_6_60().with_mix(bebop::SharingPolicy::Tagged);
    let kind = PredictorKind::BlockDVtage(configs::medium_mix(bebop::SharingPolicy::Tagged, 2));
    let a = run_source(UopSource::Replay(&cold), &pipe, &kind, UOPS);
    let b = run_source(UopSource::Replay(&warm), &pipe, &kind, UOPS);
    assert_eq!(a, b, "mix simulation diverged through the store");

    // Mix keys never alias plain workload keys.
    let key = TraceKey::for_mix(&mix);
    for spec in &mix.contexts {
        assert_ne!(key.fingerprint, spec_fingerprint(spec));
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn distinct_budgets_and_specs_never_alias() {
    let (dir, store) = tmp_store("alias");
    let a = WorkloadSpec::named_demo("alias-a");
    let mut b = a.clone();
    b.name = "alias-b".to_string();
    store.load_or_record(&a, 1_000);
    store.load_or_record(&a, 2_000);
    store.load_or_record(&b, 1_000);

    let a1 = store.load(&a, 1_000).expect("hit");
    let a2 = store.load(&a, 2_000).expect("hit");
    let b1 = store.load(&b, 1_000).expect("hit");
    assert_eq!(a1.len(), 1_000);
    assert_eq!(a2.len(), 2_000);
    // Same seed and profile, different name: identical stream content is
    // fine, but the recordings must live under distinct keys.
    assert_ne!(store.trace_path(&a, 1_000), store.trace_path(&b, 1_000));
    assert_eq!(b1.len(), 1_000);
    let _ = fs::remove_dir_all(&dir);
}
