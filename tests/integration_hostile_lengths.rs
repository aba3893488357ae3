//! Hostile header lengths in the two whole-file formats.
//!
//! A trace file or a checkpoint whose header claims a length its bytes do not
//! hold — with the checksum recomputed, so only the length is wrong — must
//! decode to `Err` without panicking, and no allocation made while decoding
//! it may exceed the input's own length: every lane and payload is sized
//! from lengths already checked against the bytes that are really there.
//!
//! The largest allocation is measured by this binary's global allocator,
//! which forwards to the system allocator and records, per thread, the
//! largest size requested.

use bebop::{configs, PipelineConfig, PredictorKind, SimCheckpoint, UopSource};
use bebop_trace::{
    decode_trace, encode_trace, fnv1a, fnv1a_wide, spec_benchmark, TraceBuffer, WorkloadSpec,
    FNV_OFFSET_BASIS,
};
use bebop_uarch::{Pipeline, ValuePredictor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct PeakAlloc;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: both methods forward their arguments unchanged to `System`, so
// `System`'s guarantees hold as they are; the bookkeeping only writes a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for PeakAlloc {
    // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LARGEST.try_with(|m| m.set(m.get().max(layout.size())));
        System.alloc(layout)
    }

    // SAFETY: `ptr` was returned by `alloc` above, that is by `System`, with
    // this `layout`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Runs `f` and returns its result with the largest single allocation (in
/// bytes) it made on this thread. `realloc` and `alloc_zeroed` use the
/// default methods, which go through `alloc`.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|m| m.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

/// Values an edited length field takes, around the true length `real` and
/// the `room` bytes that follow the header, up to the overflow edges.
fn hostile_values(real: u64, room: u64) -> Vec<u64> {
    let mut values = vec![
        0,
        1,
        real.saturating_sub(1),
        real + 1,
        2 * real + 1,
        room / 28,
        room / 9,
        room / 8,
        room,
        room + 1,
        u64::from(u32::MAX),
        1 << 40,
        u64::MAX / 28 + 1,
        u64::MAX / 9 + 1,
        u64::MAX / 8 + 1,
        u64::MAX,
    ];
    values.retain(|&v| v != real);
    values.sort_unstable();
    values.dedup();
    values
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// Recomputes a trace file's checksum after a header edit.
fn reseal_trace(bytes: &mut [u8]) {
    let sum = fnv1a_wide(fnv1a(FNV_OFFSET_BASIS, &bytes[..56]), &bytes[64..]);
    bytes[56..64].copy_from_slice(&sum.to_le_bytes());
}

/// Recomputes a checkpoint's trailing checksum after a header edit.
fn reseal_checkpoint(bytes: &mut [u8]) {
    let body = bytes.len() - 8;
    let sum = fnv1a_wide(FNV_OFFSET_BASIS, &bytes[..body]);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
}

#[test]
fn hostile_trace_header_lengths_are_rejected_within_the_input_size() {
    // Plain and wrong-path recordings: both carry memory and branch lanes.
    let plain = spec_benchmark("429.mcf");
    let wrong_path = WorkloadSpec::new("hostile-wp", 5).with_wrong_path(6);
    for spec in [plain, wrong_path] {
        let good = encode_trace(&spec, &TraceBuffer::record(&spec, 2_000));
        let (decoded, largest) = largest_allocation(|| decode_trace(&good));
        assert!(decoded.is_ok(), "{}: the clean file must decode", spec.name);
        assert!(largest <= good.len(), "{}: clean decode", spec.name);

        let room = (good.len() - 64) as u64;
        for (field, at) in [("µ-op count", 32), ("memory lane", 40), ("branch lane", 48)] {
            let real = u64_at(&good, at);
            assert!(real > 0, "{}: {field} must be non-empty", spec.name);
            for value in hostile_values(real, room) {
                let mut bad = good.clone();
                bad[at..at + 8].copy_from_slice(&value.to_le_bytes());
                reseal_trace(&mut bad);
                let (decoded, largest) = largest_allocation(|| decode_trace(&bad));
                assert!(
                    decoded.is_err(),
                    "{}: {field} = {value} (true {real}) decoded",
                    spec.name
                );
                assert!(
                    largest <= bad.len(),
                    "{}: {field} = {value} allocated {largest} bytes for a {}-byte file",
                    spec.name,
                    bad.len()
                );
            }
        }
    }
}

#[test]
fn hostile_checkpoint_payload_lengths_are_rejected_within_the_input_size() {
    // A real checkpoint: the pipeline and predictor state of a short run.
    let spec = spec_benchmark("171.swim");
    let kind = PredictorKind::BlockDVtage(configs::medium());
    let mut pipeline = Pipeline::new(PipelineConfig::eole_4_60());
    let mut predictor = kind.build();
    let mut stream = UopSource::Live(&spec).stream();
    let mut stream_pos = 0u64;
    pipeline.run_segment(&mut stream, &mut predictor, 2_000, &mut stream_pos);
    let checkpoint = SimCheckpoint {
        fingerprint: 0x0bad_1e57,
        committed: pipeline.committed_uops(),
        stream_pos,
        pipeline: pipeline.save_state(),
        predictor: predictor.save_state(),
    };
    let good = checkpoint.encode();
    let (decoded, largest) =
        largest_allocation(|| SimCheckpoint::decode(&good, checkpoint.fingerprint));
    assert_eq!(decoded.as_ref(), Ok(&checkpoint));
    assert!(largest <= good.len());

    // Header offsets: pipeline_len at 36, predictor_len at 44; the payloads
    // and the 8-byte checksum follow the 52-byte header.
    let room = (good.len() - 52 - 8) as u64;
    for (field, at) in [("pipeline_len", 36), ("predictor_len", 44)] {
        let real = u64_at(&good, at);
        assert!(real > 0, "{field} must be non-empty");
        for value in hostile_values(real, room) {
            let mut bad = good.clone();
            bad[at..at + 8].copy_from_slice(&value.to_le_bytes());
            reseal_checkpoint(&mut bad);
            let (decoded, largest) =
                largest_allocation(|| SimCheckpoint::decode(&bad, checkpoint.fingerprint));
            assert!(decoded.is_err(), "{field} = {value} (true {real}) decoded");
            assert!(
                largest <= bad.len(),
                "{field} = {value} allocated {largest} bytes for a {}-byte file",
                bad.len()
            );
        }
    }
}
