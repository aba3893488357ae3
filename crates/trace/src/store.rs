//! Persistent on-disk trace recordings.
//!
//! The figure harness replays one dynamic µ-op stream per benchmark across
//! dozens of predictor configurations. [`TraceBuffer`] already pays trace
//! generation once per *run*; this module pays it once per *machine*: a
//! [`TraceStore`] is a directory of serialised recordings keyed by the
//! workload-specification fingerprint and the µ-op budget, so repeated
//! `figures` invocations (and CI jobs restoring the directory from a cache)
//! skip generation entirely and load the lanes straight from disk.
//!
//! # File format (`TRACE_FORMAT_VERSION` 4)
//!
//! Little-endian throughout. A fixed 64-byte header:
//!
//! | offset | bytes | field |
//! | ------ | ----- | ----- |
//! | 0      | 8     | magic `b"BBPTRACE"` |
//! | 8      | 4     | format version (`u32`) |
//! | 12     | 4     | flags (`u32`; bit 0 = ASID lane present, rest zero) |
//! | 16     | 8     | workload-spec fingerprint ([`spec_fingerprint`] / mix fingerprint) |
//! | 24     | 8     | workload seed |
//! | 32     | 8     | µ-op count (dense lane length) |
//! | 40     | 8     | memory lane length |
//! | 48     | 8     | branch lane length |
//! | 56     | 8     | checksum: [`fnv1a_wide`] over the payload, continuing from [`fnv1a`] over header bytes 0..56 |
//!
//! followed by the raw structure-of-arrays lanes in recording order: `pc`
//! (`u64` each), static µ-ops (packed to one `u64` each), `value` (`u64`),
//! `meta` (`u32`), then the sparse `mem_addr` (`u64`), `mem_size` (`u8`) and
//! `br_target` (`u64`) lanes, then — when flags bit 0 is set — the dense
//! per-µop ASID lane (`u8` each; absent for single-context recordings, whose
//! µ-ops all carry ASID 0). Meta bit 31 marks wrong-path µ-ops; the µ-op
//! count in the header is the total (dense lane) length, while the cache key's
//! budget counts *committed* µ-ops only ([`TraceBuffer::committed_len`]).
//!
//! # Invalidation
//!
//! A file is rejected — and the workload transparently regenerated — when the
//! magic or version disagrees, the checksum does not match, any lane is
//! truncated or internally inconsistent, or the header's fingerprint/seed/µ-op
//! count disagree with what the caller asked for. Rejected files are deleted
//! so they are rewritten on the next save rather than rejected forever.
//! The fingerprint covers every field of the [`WorkloadSpec`], so editing a
//! workload's parameters changes its key and orphans (rather than poisons) the
//! old recording; orphans age out through [`TraceStore::sweep`], the
//! LRU-by-modification-time size bound.

use crate::buffer::TraceBuffer;
use crate::value::ValueProfile;
use crate::workload::{
    BranchProfile, InstMix, LoopProfile, MemoryProfile, WorkloadSpec, WrongPathProfile,
};
use bebop_isa::{ArchReg, Uop, UopKind, NUM_ARCH_REGS};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::SystemTime;

/// Version of the on-disk layout. Bump on any incompatible change; readers
/// reject other versions and regenerate (CI keys its trace-directory cache on
/// this constant for the same reason).
///
/// Version history: 1 = initial layout; 2 = meta-lane bit 31 carries the
/// wrong-path marker and the cache key's µ-op budget counts *committed*
/// µ-ops (recordings of wrong-path workloads hold more total µ-ops than
/// their budget); 3 = the reserved header word became a flags word whose bit
/// 0 announces an optional dense per-µop ASID lane after the branch lane
/// (multi-programmed mix recordings), and mix recordings key on a mix
/// fingerprint. A v2 reader would silently replay a mix file with every
/// ASID dropped — the version bump makes it reject-and-regenerate instead;
/// 4 = the checksum at offset 56 is the word-parallel [`fnv1a_wide`] over the
/// payload (continuing from byte-serial [`fnv1a`] over the header) instead of
/// byte-serial FNV-1a over both. The lanes are unchanged, but a v3 file's
/// checksum would read as corrupt, so v3 files are rejected on the version.
pub const TRACE_FORMAT_VERSION: u32 = 4;

/// Header flags (offset 12): bit 0 set when the ASID lane is present.
const FLAG_HAS_ASID: u32 = 1;

/// File magic, first 8 bytes of every trace file.
pub const TRACE_MAGIC: [u8; 8] = *b"BBPTRACE";

/// Extension of trace files inside a store directory.
const TRACE_EXT: &str = "bbtrace";

const HEADER_LEN: usize = 64;
const CHECKSUM_OFFSET: usize = 56;

// ---------------------------------------------------------------------------
// FNV-1a hashing (checksum + spec fingerprint)
// ---------------------------------------------------------------------------

/// The FNV-1a offset basis: the initial hash state for [`fnv1a`].
pub const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One FNV-1a round over `bytes`, continuing from hash state `h` (seed with
/// [`FNV_OFFSET_BASIS`]). The workspace's one byte-serial FNV-1a: spec and
/// mix fingerprints, the fault injector, the BBV projection, the run
/// fingerprint and the sweep engine's job keys, ledger checksums and cell
/// digests all hash with it. Whole trace and checkpoint files use
/// [`fnv1a_wide`] instead.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Interleaved lanes of [`fnv1a_wide`]: one 64-byte block feeds one word to
/// each lane.
const WIDE_LANES: usize = 8;

/// The whole-file checksum of the trace store and the simulation checkpoint:
/// eight interleaved lanes over little-endian `u64` words (lane `i` absorbs
/// word `i` of every 64-byte block, each lane starting from
/// [`FNV_OFFSET_BASIS`]), each step an FNV-1a word step followed by a
/// rotation; then the lane states are folded into `h` as whole words in lane
/// order, and [`fnv1a`] continues over the tail of fewer than 64 bytes.
///
/// Byte-serial FNV-1a waits on one multiply per byte; here eight independent
/// multiply chains each take a word, so a checksum runs at memory speed.
/// The rotation carries each step's high bits down into the next multiply:
/// without it a flip of a word's top bit would shift the lane state by
/// exactly 2^63 for good, and two such flips in one lane would cancel. Every
/// step (word step, rotation, whole-word fold, tail byte) is a bijection of
/// its state, so flipping any single bit of `bytes` changes the result.
/// Unlike [`fnv1a`] it does not chain: hashing `a` and then `b` differs from
/// hashing `a` followed by `b` in one call.
pub fn fnv1a_wide(h: u64, bytes: &[u8]) -> u64 {
    let mut lanes = [FNV_OFFSET_BASIS; WIDE_LANES];
    let mut blocks = bytes.chunks_exact(8 * WIDE_LANES);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            // INVARIANT: chunks_exact(8) yields 8-byte slices only.
            let word = u64::from_le_bytes(word.try_into().unwrap());
            *lane = (*lane ^ word).wrapping_mul(FNV_PRIME).rotate_left(29);
        }
    }
    let h = lanes
        .iter()
        .fold(h, |h, &lane| (h ^ lane).wrapping_mul(FNV_PRIME));
    fnv1a(h, blocks.remainder())
}

/// Version of the *generation behaviour*: the mapping from a [`WorkloadSpec`]
/// to a µ-op stream. Bump it whenever `TraceGenerator` (or anything it calls —
/// program construction, value/address pattern sampling, RNG consumption
/// order) changes the stream produced for an unchanged specification, so
/// recordings made by the old behaviour stop matching instead of being
/// silently replayed as if nothing changed.
pub const TRACE_STREAM_VERSION: u32 = 1;

/// A stable fingerprint of every field of a [`WorkloadSpec`], salted with
/// [`TRACE_STREAM_VERSION`].
///
/// Two specifications collide only if they describe the identical workload
/// (name, seed and every profile parameter) *under the same generation
/// behaviour*, so the fingerprint — together with the µ-op budget — is the
/// cache key of a recording: change any parameter (or bump the stream
/// version) and the old recording is orphaned instead of wrongly reused.
///
/// Every struct is destructured exhaustively so that adding a field to any of
/// them is a compile error here rather than a silently incomplete cache key.
pub fn spec_fingerprint(spec: &WorkloadSpec) -> u64 {
    let WorkloadSpec {
        name,
        seed,
        parallel_chains,
        is_fp,
        mix,
        loops,
        values,
        branches,
        memory,
        wrong_path,
    } = spec;
    let WrongPathProfile { burst_uops } = *wrong_path;
    let InstMix {
        load,
        store,
        fp,
        mul,
        div,
        load_imm,
        load_op_frac,
    } = *mix;
    let LoopProfile {
        regions,
        body_insts,
        trip_count,
        diamond_prob,
    } = *loops;
    let ValueProfile {
        constant,
        strided,
        periodic_strided,
        branch_correlated,
        branch_correlated_stride,
        random,
        stride_magnitude,
    } = *values;
    let BranchProfile {
        pattern_frac,
        biased_frac,
        random_frac,
        taken_bias,
    } = *branches;
    let MemoryProfile {
        working_set_bytes,
        streaming_frac,
        random_frac: mem_random_frac,
        pointer_chase_frac,
        stream_stride,
    } = *memory;

    let mut enc: Vec<u8> = Vec::with_capacity(256);
    let put_u64 = |enc: &mut Vec<u8>, x: u64| enc.extend_from_slice(&x.to_le_bytes());
    let put_f64 = |enc: &mut Vec<u8>, x: f64| enc.extend_from_slice(&x.to_bits().to_le_bytes());

    enc.extend_from_slice(&TRACE_STREAM_VERSION.to_le_bytes());
    put_u64(&mut enc, name.len() as u64);
    enc.extend_from_slice(name.as_bytes());
    put_u64(&mut enc, *seed);
    put_u64(&mut enc, *parallel_chains as u64);
    enc.push(u8::from(*is_fp));

    for x in [load, store, fp, mul, div, load_imm, load_op_frac] {
        put_f64(&mut enc, x);
    }

    put_u64(&mut enc, regions as u64);
    put_u64(&mut enc, body_insts as u64);
    put_u64(&mut enc, trip_count);
    put_f64(&mut enc, diamond_prob);

    for x in [
        constant,
        strided,
        periodic_strided,
        branch_correlated,
        branch_correlated_stride,
        random,
    ] {
        put_f64(&mut enc, x);
    }
    put_u64(&mut enc, stride_magnitude as u64);

    for x in [pattern_frac, biased_frac, random_frac, taken_bias] {
        put_f64(&mut enc, x);
    }

    put_u64(&mut enc, working_set_bytes);
    for x in [streaming_frac, mem_random_frac, pointer_chase_frac] {
        put_f64(&mut enc, x);
    }
    put_u64(&mut enc, stream_stride);

    put_u64(&mut enc, u64::from(burst_uops));

    fnv1a(FNV_OFFSET_BASIS, &enc)
}

/// A stable fingerprint of a [`crate::MixSpec`]: the quantum, the context
/// count and every context's [`spec_fingerprint`], under a domain separator
/// so a mix can never collide with a plain workload. The mix analogue of the
/// spec fingerprint — the trace-store cache key of mix recordings.
pub(crate) fn mix_fingerprint(mix: &crate::MixSpec) -> u64 {
    let mut enc: Vec<u8> = Vec::with_capacity(32 + 8 * mix.contexts.len());
    enc.extend_from_slice(b"BBPMIX\0\0");
    enc.extend_from_slice(&TRACE_STREAM_VERSION.to_le_bytes());
    enc.extend_from_slice(&mix.quantum.to_le_bytes());
    enc.extend_from_slice(&(mix.contexts.len() as u64).to_le_bytes());
    for spec in &mix.contexts {
        enc.extend_from_slice(&spec_fingerprint(spec).to_le_bytes());
    }
    fnv1a(FNV_OFFSET_BASIS, &enc)
}

/// The folded seed a mix recording's header carries (order-sensitive fold of
/// the context seeds and the quantum).
pub(crate) fn mix_seed(mix: &crate::MixSpec) -> u64 {
    let mut enc: Vec<u8> = Vec::with_capacity(8 + 8 * mix.contexts.len());
    enc.extend_from_slice(&mix.quantum.to_le_bytes());
    for spec in &mix.contexts {
        enc.extend_from_slice(&spec.seed.to_le_bytes());
    }
    fnv1a(FNV_OFFSET_BASIS, &enc)
}

/// The identity of one recording inside a [`TraceStore`]: the cache key
/// (fingerprint + seed) plus a human-readable file stem. Plain workloads and
/// multi-programmed mixes both reduce to a key, so the store handles either
/// through the same `*_key` methods.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceKey {
    /// Human-readable file stem (sanitised before use in paths).
    pub stem: String,
    /// Content fingerprint ([`spec_fingerprint`] or the mix fingerprint).
    pub fingerprint: u64,
    /// Seed recorded in (and checked against) the file header.
    pub seed: u64,
}

impl TraceKey {
    /// The key of a plain workload recording.
    pub fn for_spec(spec: &WorkloadSpec) -> Self {
        TraceKey {
            stem: spec.name.clone(),
            fingerprint: spec_fingerprint(spec),
            seed: spec.seed,
        }
    }

    /// The key of a multi-programmed mix recording.
    pub fn for_mix(mix: &crate::MixSpec) -> Self {
        TraceKey {
            stem: mix.name.clone(),
            fingerprint: mix_fingerprint(mix),
            seed: mix_seed(mix),
        }
    }
}

// ---------------------------------------------------------------------------
// Static µ-op packing
// ---------------------------------------------------------------------------

const REG_NONE: u8 = 0xFF;

fn encode_kind(kind: UopKind) -> u8 {
    match kind {
        UopKind::Alu => 0,
        UopKind::Mul => 1,
        UopKind::Div => 2,
        UopKind::FpAdd => 3,
        UopKind::FpMul => 4,
        UopKind::FpDiv => 5,
        UopKind::Load => 6,
        UopKind::Store => 7,
        UopKind::Branch => 8,
        UopKind::LoadImm => 9,
        UopKind::Nop => 10,
    }
}

fn decode_kind(byte: u8) -> Option<UopKind> {
    Some(match byte {
        0 => UopKind::Alu,
        1 => UopKind::Mul,
        2 => UopKind::Div,
        3 => UopKind::FpAdd,
        4 => UopKind::FpMul,
        5 => UopKind::FpDiv,
        6 => UopKind::Load,
        7 => UopKind::Store,
        8 => UopKind::Branch,
        9 => UopKind::LoadImm,
        10 => UopKind::Nop,
        _ => return None,
    })
}

fn encode_reg(reg: Option<ArchReg>) -> u8 {
    match reg {
        Some(r) => r.raw() as u8,
        None => REG_NONE,
    }
}

fn decode_reg(byte: u8) -> Result<Option<ArchReg>, StoreError> {
    if byte == REG_NONE {
        Ok(None)
    } else if u16::from(byte) < NUM_ARCH_REGS {
        Ok(Some(ArchReg::from_raw(u16::from(byte))))
    } else {
        Err(StoreError::Malformed("register index out of range"))
    }
}

/// Packs one static µ-op into a portable `u64`:
/// `[kind, dst, src0, src1, src2, 0, 0, 0]` (little-endian byte order).
fn encode_uop(uop: &Uop) -> u64 {
    let mut bytes = [0u8; 8];
    bytes[0] = encode_kind(uop.kind());
    bytes[1] = encode_reg(uop.dst());
    let mut srcs = [REG_NONE; 3];
    for (slot, reg) in srcs.iter_mut().zip(uop.srcs()) {
        *slot = encode_reg(Some(reg));
    }
    bytes[2..5].copy_from_slice(&srcs);
    u64::from_le_bytes(bytes)
}

fn decode_uop(word: u64) -> Result<Uop, StoreError> {
    let bytes = word.to_le_bytes();
    let kind = decode_kind(bytes[0]).ok_or(StoreError::Malformed("unknown µ-op kind"))?;
    let dst = decode_reg(bytes[1])?;
    let mut srcs = [ArchReg::default(); 3];
    let mut count = 0;
    for (i, &b) in bytes[2..5].iter().enumerate() {
        match decode_reg(b)? {
            Some(_) if count < i => {
                return Err(StoreError::Malformed("gap in µ-op source registers"))
            }
            Some(r) => {
                srcs[count] = r;
                count += 1;
            }
            None => {}
        }
    }
    if bytes[5..8] != [0, 0, 0] {
        return Err(StoreError::Malformed("non-zero µ-op padding"));
    }
    Ok(Uop::new(kind, dst, &srcs[..count]))
}

/// log2 of the [`UopMemo`] slot count.
const UOP_MEMO_BITS: u32 = 9;

/// A direct-mapped memo of [`decode_uop`] keyed on the raw µ-op word: a
/// trace repeats a few hundred distinct static µ-ops, so most of a lane's
/// words hit. Only successful decodes are stored, so every invalid word is
/// decoded, and rejected, each time it appears. Every slot starts out
/// holding the word of a Nop µ-op with its decode, a real entry rather than
/// a sentinel key that a file could contain.
struct UopMemo {
    slots: Vec<(u64, Uop)>,
}

impl UopMemo {
    fn new() -> Self {
        let nop = Uop::new(UopKind::Nop, None, &[]);
        UopMemo {
            slots: vec![(encode_uop(&nop), nop); 1 << UOP_MEMO_BITS],
        }
    }

    fn slot(word: u64) -> usize {
        // CAST: the shift leaves UOP_MEMO_BITS bits.
        (word.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - UOP_MEMO_BITS)) as usize
    }

    /// `decode_uop(word)`, from the memo when `word` was decoded before.
    #[inline]
    fn decode(&mut self, word: u64) -> Result<Uop, StoreError> {
        let slot = &mut self.slots[Self::slot(word)];
        if slot.0 != word {
            *slot = (word, decode_uop(word)?);
        }
        Ok(slot.1)
    }
}

// ---------------------------------------------------------------------------
// Serialisation
// ---------------------------------------------------------------------------

/// Why a trace file was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The file ended before the declared lanes.
    Truncated,
    /// The first 8 bytes are not [`TRACE_MAGIC`].
    BadMagic,
    /// The file was written by a different (older or newer) format version.
    VersionMismatch(u32),
    /// The stored checksum does not match the header+payload contents.
    ChecksumMismatch,
    /// A lane or field is internally inconsistent.
    Malformed(&'static str),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Truncated => write!(f, "trace file is truncated"),
            StoreError::BadMagic => write!(f, "not a trace file (bad magic)"),
            StoreError::VersionMismatch(v) => {
                write!(f, "trace format version {v} != {TRACE_FORMAT_VERSION}")
            }
            StoreError::ChecksumMismatch => write!(f, "trace checksum mismatch"),
            StoreError::Malformed(what) => write!(f, "malformed trace file: {what}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// A decoded trace file: the recording plus the identity fields of its header,
/// which callers compare against what they expected to load.
#[derive(Debug, Clone)]
pub struct DecodedTrace {
    /// Workload-spec fingerprint the file was recorded for.
    pub fingerprint: u64,
    /// Workload seed the file was recorded for.
    pub seed: u64,
    /// The recording itself.
    pub buffer: TraceBuffer,
}

/// Serialises a recording of `spec` to the versioned, checksummed byte format.
pub fn encode_trace(spec: &WorkloadSpec, buf: &TraceBuffer) -> Vec<u8> {
    encode_trace_key(&TraceKey::for_spec(spec), buf)
}

/// Serialises a recording under an arbitrary [`TraceKey`] (plain workloads
/// and mixes alike) to the versioned, checksummed byte format.
pub fn encode_trace_key(key: &TraceKey, buf: &TraceBuffer) -> Vec<u8> {
    let (pc, uop, value, meta, mem_addr, mem_size, br_target, asid) = buf.lanes();
    let payload_len = pc.len() * 8
        + uop.len() * 8
        + value.len() * 8
        + meta.len() * 4
        + mem_addr.len() * 8
        + mem_size.len()
        + br_target.len() * 8
        + asid.len();
    let mut out: Vec<u8> = Vec::with_capacity(HEADER_LEN + payload_len);

    let flags = if asid.is_empty() { 0 } else { FLAG_HAS_ASID };
    out.extend_from_slice(&TRACE_MAGIC);
    out.extend_from_slice(&TRACE_FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&flags.to_le_bytes());
    out.extend_from_slice(&key.fingerprint.to_le_bytes());
    out.extend_from_slice(&key.seed.to_le_bytes());
    out.extend_from_slice(&(pc.len() as u64).to_le_bytes());
    out.extend_from_slice(&(mem_addr.len() as u64).to_le_bytes());
    out.extend_from_slice(&(br_target.len() as u64).to_le_bytes());
    debug_assert_eq!(out.len(), CHECKSUM_OFFSET);
    out.extend_from_slice(&[0u8; 8]); // checksum patched below

    for &x in pc {
        out.extend_from_slice(&x.to_le_bytes());
    }
    for u in uop {
        out.extend_from_slice(&encode_uop(u).to_le_bytes());
    }
    for &x in value {
        out.extend_from_slice(&x.to_le_bytes());
    }
    for &x in meta {
        out.extend_from_slice(&x.to_le_bytes());
    }
    for &x in mem_addr {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out.extend_from_slice(mem_size);
    for &x in br_target {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out.extend_from_slice(asid);

    let checksum = file_checksum(&out);
    out[CHECKSUM_OFFSET..HEADER_LEN].copy_from_slice(&checksum.to_le_bytes());
    out
}

/// The checksum stored at [`CHECKSUM_OFFSET`] of a trace file of at least
/// [`HEADER_LEN`] bytes: every byte but the checksum field itself.
fn file_checksum(bytes: &[u8]) -> u64 {
    fnv1a_wide(
        fnv1a(FNV_OFFSET_BASIS, &bytes[..CHECKSUM_OFFSET]),
        &bytes[HEADER_LEN..],
    )
}

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self.at.checked_add(n).ok_or(StoreError::Truncated)?;
        let slice = self.bytes.get(self.at..end).ok_or(StoreError::Truncated)?;
        self.at = end;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, StoreError> {
        // INVARIANT: take(4) returned exactly 4 bytes, so the array
        // conversion cannot fail.
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, StoreError> {
        // INVARIANT: take(8) returned exactly 8 bytes.
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// The raw bytes of a lane of `n` fields of `W` bytes each.
    fn fields<const W: usize>(
        &mut self,
        n: usize,
    ) -> Result<std::slice::ChunksExact<'a, u8>, StoreError> {
        Ok(self
            .take(n.checked_mul(W).ok_or(StoreError::Truncated)?)?
            .chunks_exact(W))
    }

    /// A lane of `n` fields of `W` bytes each, decoded by `field` into a
    /// vector of exactly `n` elements.
    fn lane<const W: usize, T>(
        &mut self,
        n: usize,
        field: impl Fn([u8; W]) -> T,
    ) -> Result<Vec<T>, StoreError> {
        let raw = self.fields::<W>(n)?;
        let mut lane = Vec::with_capacity(n);
        // INVARIANT: chunks_exact(W) yields W-byte slices only.
        lane.extend(raw.map(|c| field(c.try_into().unwrap())));
        Ok(lane)
    }
}

/// Deserialises and fully validates a trace file produced by [`encode_trace`].
pub fn decode_trace(bytes: &[u8]) -> Result<DecodedTrace, StoreError> {
    let mut r = Reader { bytes, at: 0 };
    if r.take(8)? != TRACE_MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = r.u32()?;
    if version != TRACE_FORMAT_VERSION {
        return Err(StoreError::VersionMismatch(version));
    }
    let flags = r.u32()?;
    if flags & !FLAG_HAS_ASID != 0 {
        return Err(StoreError::Malformed("unknown header flags"));
    }
    let fingerprint = r.u64()?;
    let seed = r.u64()?;
    let n = r.u64()?;
    let mem_len = r.u64()?;
    let br_len = r.u64()?;
    let stored_checksum = r.u64()?;
    debug_assert_eq!(r.at, HEADER_LEN);

    // Reject absurd lengths before allocating lanes for them: every lane of a
    // well-formed file fits in what remains of the byte slice.
    let remaining = (bytes.len() - HEADER_LEN) as u64;
    if n.saturating_mul(28) > remaining
        || mem_len.saturating_mul(9) > remaining
        || br_len.saturating_mul(8) > remaining
    {
        return Err(StoreError::Truncated);
    }

    if file_checksum(bytes) != stored_checksum {
        return Err(StoreError::ChecksumMismatch);
    }

    // CAST: the three lengths fit in the byte slice (checked above), so they
    // fit in usize.
    let (n, mem_len, br_len) = (n as usize, mem_len as usize, br_len as usize);
    // Every lane is allocated once at its exact length and filled in place.
    let pc = r.lane(n, u64::from_le_bytes)?;
    let mut uop = Vec::with_capacity(n);
    let mut memo = UopMemo::new();
    for field in r.fields::<8>(n)? {
        // INVARIANT: fields::<8> yields 8-byte slices only.
        uop.push(memo.decode(u64::from_le_bytes(field.try_into().unwrap()))?);
    }
    let value = r.lane(n, u64::from_le_bytes)?;
    let meta = r.lane(n, u32::from_le_bytes)?;
    let mem_addr = r.lane(mem_len, u64::from_le_bytes)?;
    let mem_size = r.take(mem_len)?.to_vec();
    let br_target = r.lane(br_len, u64::from_le_bytes)?;
    let asid = if flags & FLAG_HAS_ASID != 0 {
        r.take(n)?.to_vec()
    } else {
        Vec::new()
    };
    if r.at != bytes.len() {
        return Err(StoreError::Malformed("trailing bytes after the lanes"));
    }

    let buffer = TraceBuffer::from_lanes(pc, uop, value, meta, mem_addr, mem_size, br_target, asid)
        .map_err(StoreError::Malformed)?;
    Ok(DecodedTrace {
        fingerprint,
        seed,
        buffer,
    })
}

// ---------------------------------------------------------------------------
// The directory cache
// ---------------------------------------------------------------------------

/// Writes `bytes` to `path` through a temporary file in the same directory
/// and a rename, so a reader sees the previous complete file or the new one,
/// never a torn write. The temporary name carries the process id and a
/// per-process counter, so concurrent writers into one directory (parallel
/// store saves, or two processes sharing it) never share a temporary file. A
/// failed rename removes the temporary file. There is no fsync: this guards
/// against a crash of the writing process, not against power loss.
///
/// The one atomic-write path of the workspace: trace-store saves, simulation
/// checkpoints, the sweep manifest and ledger, and the perf report.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::other(format!("{} has no file name", path.display())))?;
    let mut tmp_name = std::ffi::OsString::from(".tmp-");
    tmp_name.push(file_name);
    tmp_name.push(format!(
        "-{}-{}",
        std::process::id(),
        TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = path.with_file_name(tmp_name);
    fs::write(&tmp, bytes)?;
    match fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// Retries [`retry_io`] makes after a failed first attempt.
pub const IO_RETRIES: u32 = 3;

/// Backoff before retry `k` (counting from 0) is `IO_BACKOFF_MS << k`
/// milliseconds.
pub const IO_BACKOFF_MS: u64 = 1;

/// Runs `op`, retrying a failure up to [`IO_RETRIES`] times with exponential
/// backoff and counting every retry in `retries`. Transient faults (injected
/// or real) are absorbed here; a persistent one surfaces as the last error
/// for the caller to degrade on.
///
/// The one retry policy of the workspace: trace-store saves
/// ([`TraceStore::load_or_record_key`]) and the sweep's journal appends and
/// ledger write.
pub fn retry_io<T>(retries: &AtomicU64, mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    let mut attempt = 0;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if attempt >= IO_RETRIES => return Err(e),
            Err(_) => {
                retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(IO_BACKOFF_MS << attempt));
                attempt += 1;
            }
        }
    }
}

/// Outcome of an eviction sweep ([`TraceStore::sweep`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Trace files deleted.
    pub files_removed: usize,
    /// Bytes those files occupied.
    pub bytes_removed: u64,
    /// Bytes the store occupies after the sweep.
    pub bytes_kept: u64,
    /// Files the sweep tried and failed to delete (each failure is logged to
    /// stderr; the file's bytes still count towards `bytes_kept`).
    pub delete_errors: usize,
}

/// A directory cache of serialised trace recordings, keyed by
/// `(spec fingerprint, µ-op budget)`.
///
/// Writes go through a temporary file in the same directory followed by an
/// atomic rename, so concurrent writers (parallel recording fan-out, or two
/// `figures` processes sharing one `--trace-dir`) can never expose a
/// half-written file; readers validate magic, version, checksum and identity
/// and treat any mismatch as a miss, deleting the offender so it is rewritten.
///
/// Hit/miss counters are atomic: one store can serve the whole recording
/// fan-out concurrently.
///
/// # Example
///
/// ```
/// use bebop_trace::{TraceStore, WorkloadSpec};
///
/// let dir = std::env::temp_dir().join(format!("bebop-doc-{}", std::process::id()));
/// let store = TraceStore::open(&dir).unwrap();
/// let spec = WorkloadSpec::named_demo("store-doc");
///
/// // Cold: the recording is generated and persisted.
/// let (cold, was_hit) = store.load_or_record(&spec, 1_000);
/// assert!(!was_hit);
/// // Warm: the identical recording is loaded straight from disk.
/// let warm = store.load(&spec, 1_000).expect("hit");
/// assert_eq!(
///     cold.replay().collect::<Vec<_>>(),
///     warm.replay().collect::<Vec<_>>()
/// );
/// # let _ = std::fs::remove_dir_all(&dir);
/// ```
#[derive(Debug)]
pub struct TraceStore {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    delete_errors: AtomicU64,
    read_errors: AtomicU64,
    save_retries: AtomicU64,
    unsaved: AtomicU64,
    generated: AtomicU64,
    faults: Option<crate::FaultPlan>,
}

impl TraceStore {
    /// Opens (creating if needed) the store directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(TraceStore {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            delete_errors: AtomicU64::new(0),
            read_errors: AtomicU64::new(0),
            save_retries: AtomicU64::new(0),
            unsaved: AtomicU64::new(0),
            generated: AtomicU64::new(0),
            faults: None,
        })
    }

    /// Attaches a deterministic fault-injection plan to this store's read and
    /// write paths (see [`crate::FaultPlan`]). Injected read errors degrade to
    /// misses, injected short reads and corruption exercise the
    /// reject-and-regenerate path, and injected write errors surface as real
    /// `io::Error`s from [`TraceStore::save`], which
    /// [`TraceStore::load_or_record_key`] retries and then absorbs.
    pub fn set_faults(&mut self, plan: crate::FaultPlan) {
        self.faults = Some(plan);
    }

    /// Deletes an invalid (corrupt, stale or mismatched) trace file, logging —
    /// rather than silently swallowing — any I/O error. A file that cannot be
    /// deleted would otherwise be re-read, re-rejected and re-"deleted" on
    /// every run without anyone noticing why the store never heals.
    fn remove_invalid(&self, path: &Path, why: &dyn fmt::Display) {
        match fs::remove_file(path) {
            Ok(()) => {}
            // Already gone (e.g. a concurrent run healed it first): not an error.
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => {
                self.delete_errors.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "[trace-store] cannot delete invalid trace {} ({why}): {e}",
                    path.display()
                );
            }
        }
    }

    /// The directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The path a recording of `(spec, uops)` lives at. The file stem carries
    /// the benchmark name for humans; the fingerprint and µ-op budget are the
    /// actual key, and the format version is part of the name so incompatible
    /// generations coexist instead of fighting over one path.
    pub fn trace_path(&self, spec: &WorkloadSpec, uops: u64) -> PathBuf {
        self.trace_path_key(&TraceKey::for_spec(spec), uops)
    }

    /// [`TraceStore::trace_path`] for an arbitrary [`TraceKey`] (mixes
    /// included).
    pub fn trace_path_key(&self, key: &TraceKey, uops: u64) -> PathBuf {
        let stem: String = key
            .stem
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || matches!(c, '.' | '-' | '_' | '+') {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        self.dir.join(format!(
            "{stem}-{:016x}-{uops}u.v{TRACE_FORMAT_VERSION}.{TRACE_EXT}",
            key.fingerprint
        ))
    }

    /// Loads the recording of `(spec, uops)`, or returns `None` (counting a
    /// miss) when it is absent, corrupt, truncated, of a foreign version, or
    /// recorded for a different specification or budget. Invalid files are
    /// deleted so the next [`TraceStore::save`] replaces them. A hit bumps the
    /// file's modification time, which is what [`TraceStore::sweep`] evicts by.
    pub fn load(&self, spec: &WorkloadSpec, uops: u64) -> Option<TraceBuffer> {
        self.load_key(&TraceKey::for_spec(spec), uops)
    }

    /// [`TraceStore::load`] for an arbitrary [`TraceKey`] (mixes included).
    pub fn load_key(&self, key: &TraceKey, uops: u64) -> Option<TraceBuffer> {
        let path = self.trace_path_key(key, uops);
        let read = fs::read(&path).and_then(|b| match &self.faults {
            Some(plan) => plan.filter_read(b),
            None => Ok(b),
        });
        let bytes = match read {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            Err(e) => {
                // A file that exists but cannot be read (permissions, I/O
                // error, injected fault) degrades to a miss: the caller
                // regenerates, the run survives. Counted separately from
                // plain misses so a sick filesystem is visible.
                self.read_errors.fetch_add(1, Ordering::Relaxed);
                eprintln!("[trace-store] cannot read {}: {e}", path.display());
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        let decoded = match decode_trace(&bytes) {
            Ok(d) => d,
            Err(e) => {
                self.remove_invalid(&path, &e);
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        // The budget is counted in committed µ-ops: recordings of wrong-path
        // workloads hold extra (non-committing) burst µ-ops beyond it.
        let identity_ok = decoded.fingerprint == key.fingerprint
            && decoded.seed == key.seed
            && decoded.buffer.committed_len() as u64 == uops;
        if !identity_ok {
            self.remove_invalid(&path, &"identity mismatch (stale recording)");
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        // LRU touch; best-effort (a read-only store still serves hits).
        if let Ok(f) = fs::File::options().write(true).open(&path) {
            let _ = f.set_modified(SystemTime::now());
        }
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(decoded.buffer)
    }

    /// Persists a recording of `(spec, uops)` via [`write_atomic`], and
    /// returns the final path.
    pub fn save(&self, spec: &WorkloadSpec, uops: u64, buf: &TraceBuffer) -> io::Result<PathBuf> {
        self.save_key(&TraceKey::for_spec(spec), uops, buf)
    }

    /// [`TraceStore::save`] for an arbitrary [`TraceKey`] (mixes included).
    pub fn save_key(&self, key: &TraceKey, uops: u64, buf: &TraceBuffer) -> io::Result<PathBuf> {
        let path = self.trace_path_key(key, uops);
        if let Some(plan) = &self.faults {
            plan.check_write()?;
        }
        write_atomic(&path, &encode_trace_key(key, buf))?;
        Ok(path)
    }

    /// The spec form of [`TraceStore::load_or_record_key`]: loads the
    /// recording of `(spec, uops)` or records it live. The flag is `true` on
    /// a store hit.
    pub fn load_or_record(&self, spec: &WorkloadSpec, uops: u64) -> (TraceBuffer, bool) {
        self.load_or_record_key(&TraceKey::for_spec(spec), uops, || {
            TraceBuffer::record(spec, uops)
        })
    }

    /// The one way a harness mode turns a workload (a spec or a mix) into a
    /// recording: loads the recording of `(key, uops)` or, on a miss, records
    /// it with `record` and saves it, retrying a failed save through
    /// [`retry_io`] (each retry counted in [`TraceStore::save_retries`]). A
    /// save that still fails never fails the run: it is logged once as
    /// `[trace-store] cannot save …`, counted in [`TraceStore::unsaved`], and
    /// the in-memory recording is returned. The flag is `true` on a store hit.
    pub fn load_or_record_key(
        &self,
        key: &TraceKey,
        uops: u64,
        record: impl FnOnce() -> TraceBuffer,
    ) -> (TraceBuffer, bool) {
        if let Some(buf) = self.load_key(key, uops) {
            return (buf, true);
        }
        let buf = record();
        self.generated
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        if let Err(e) = retry_io(&self.save_retries, || self.save_key(key, uops, &buf)) {
            self.unsaved.fetch_add(1, Ordering::Relaxed);
            eprintln!(
                "[trace-store] cannot save {}: {e} (continuing with the in-memory recording)",
                self.trace_path_key(key, uops).display()
            );
        }
        (buf, false)
    }

    /// Store hits served since [`TraceStore::open`].
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Store misses (absent, corrupt or mismatched files) since open.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Invalid or evicted files this store failed to delete since open (each
    /// failure is also logged to stderr). A persistently non-zero count means
    /// the directory has permission or filesystem problems the operator
    /// should look at — the cache still works, it just cannot heal itself.
    pub fn delete_errors(&self) -> u64 {
        self.delete_errors.load(Ordering::Relaxed)
    }

    /// Reads that failed for a reason other than the file being absent
    /// (permissions, I/O errors, injected faults) since open. Each is also a
    /// miss — the caller regenerated — but a non-zero count means the store
    /// directory itself is unhealthy.
    pub fn read_errors(&self) -> u64 {
        self.read_errors.load(Ordering::Relaxed)
    }

    /// Save retries [`TraceStore::load_or_record_key`] made since open.
    pub fn save_retries(&self) -> u64 {
        self.save_retries.load(Ordering::Relaxed)
    }

    /// Recordings [`TraceStore::load_or_record_key`] could not save even
    /// after retrying, since open. Each ran from its in-memory recording, so
    /// the next run with this store records it again.
    pub fn unsaved(&self) -> u64 {
        self.unsaved.load(Ordering::Relaxed)
    }

    /// µ-ops [`TraceStore::load_or_record_key`] recorded on misses since
    /// open, wrong-path µ-ops included: zero when every lookup hit.
    pub fn generated_uops(&self) -> u64 {
        self.generated.load(Ordering::Relaxed)
    }

    /// Total bytes of trace files currently in the store.
    pub fn disk_bytes(&self) -> u64 {
        self.trace_files()
            .map(|files| files.into_iter().map(|(_, len, _)| len).sum())
            .unwrap_or(0)
    }

    /// Evicts least-recently-used trace files (by modification time, which
    /// [`TraceStore::load`] bumps on every hit) until the store fits in
    /// `max_bytes`. Temporary files and foreign files are left alone.
    ///
    /// A file that cannot be deleted does not abort the sweep: the error is
    /// logged, counted in [`SweepStats::delete_errors`] (and
    /// [`TraceStore::delete_errors`]), and the sweep moves on to the next
    /// eviction candidate — one undeletable file must not pin every
    /// younger-but-evictable recording in the store.
    pub fn sweep(&self, max_bytes: u64) -> io::Result<SweepStats> {
        let mut files = self.trace_files()?;
        // Oldest first, strict LRU: remove the least-recently-used file until
        // the total fits. (Skipping a too-big file to keep older smaller ones
        // would evict more-recently-used recordings — not LRU.)
        // Tie-break equal mtimes by path: coarse filesystem timestamps can
        // collapse distinct save times onto one value, and a bare mtime sort
        // would then inherit readdir order — making *which* recording gets
        // evicted depend on the filesystem, not on the store's inputs.
        files.sort_by(|a, b| (a.2, &a.0).cmp(&(b.2, &b.0)));
        let mut stats = SweepStats::default();
        let mut total: u64 = files.iter().map(|f| f.1).sum();
        for (path, len, _mtime) in files {
            if total <= max_bytes {
                break;
            }
            match fs::remove_file(&path) {
                Ok(()) => {
                    stats.files_removed += 1;
                    stats.bytes_removed += len;
                    total -= len;
                }
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    // A concurrent sweep (or heal) beat us to it: the bytes
                    // are gone either way.
                    total -= len;
                }
                Err(e) => {
                    stats.delete_errors += 1;
                    self.delete_errors.fetch_add(1, Ordering::Relaxed);
                    eprintln!("[trace-store] sweep cannot evict {}: {e}", path.display());
                }
            }
        }
        stats.bytes_kept = total;
        Ok(stats)
    }

    /// `(path, byte length, mtime)` of every trace file in the directory.
    #[allow(clippy::type_complexity)]
    fn trace_files(&self) -> io::Result<Vec<(PathBuf, u64, SystemTime)>> {
        let mut files = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some(TRACE_EXT) {
                continue;
            }
            let meta = entry.metadata()?;
            if !meta.is_file() {
                continue;
            }
            let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
            files.push((path, meta.len(), mtime));
        }
        Ok(files)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::spec_benchmark;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bebop-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// The µ-op words of the three recordings `pin_cases` in
    /// `tests/integration_checkpoint.rs` pins checkpoint payloads on: the
    /// demo loop, the wrong-path workload and the swim/gcc mix.
    fn pin_case_words() -> Vec<u64> {
        let n = 10_000;
        let mut wp_spec = WorkloadSpec::new("ckpt-pin-wp", 77).with_wrong_path(8);
        wp_spec.branches.random_frac = 0.3;
        let mix =
            crate::MixSpec::pair(1_000, spec_benchmark("171.swim"), spec_benchmark("403.gcc"));
        let recordings = [
            TraceBuffer::record(&WorkloadSpec::named_demo("ckpt-pin"), n),
            TraceBuffer::record(&wp_spec, n),
            mix.record(n),
        ];
        recordings
            .iter()
            .flat_map(|buf| buf.lanes().1.iter().map(encode_uop).collect::<Vec<_>>())
            .collect()
    }

    #[test]
    fn memoised_uop_decode_matches_decode_uop() {
        let mut memo = UopMemo::new();
        // Every seeded key is a real word that decodes to its entry.
        for &(word, uop) in &memo.slots {
            assert_eq!(decode_uop(word), Ok(uop));
        }
        let words = pin_case_words();
        assert!(words.len() >= 30_000);
        for &w in &words {
            assert_eq!(memo.decode(w), decode_uop(w), "word {w:#018x}");
        }
        // An invalid word in the slot of a valid word already memoised: the
        // non-zero padding byte makes it invalid whatever the other bytes.
        let valid = words[0];
        let twin = (1u64..)
            .map(|k| valid ^ (k << 40))
            .find(|&w| UopMemo::slot(w) == UopMemo::slot(valid))
            .expect("a colliding word");
        let seed = UopMemo::new().slots[0].0;
        let hand_built = [
            valid,
            twin,
            valid,
            // The seed key itself, and the sentinels a seed must not be.
            seed,
            u64::MAX,
            0,
            seed | (1 << 56),
            // Unknown kind; gap in the sources; register out of range.
            0xFF,
            u64::from_le_bytes([0, REG_NONE, REG_NONE, 1, REG_NONE, 0, 0, 0]),
            u64::from_le_bytes([0, 200, REG_NONE, REG_NONE, REG_NONE, 0, 0, 0]),
        ];
        for &w in &hand_built {
            assert_eq!(memo.decode(w), decode_uop(w), "word {w:#018x}");
        }
        assert!(memo.decode(twin).is_err());
        assert_eq!(
            memo.slots[UopMemo::slot(valid)].0,
            valid,
            "an invalid word evicted"
        );
        // A fresh memo rejects a word equal to any sentinel key.
        assert!(UopMemo::new().decode(u64::MAX).is_err());
    }

    #[test]
    fn encode_decode_round_trips_every_benchmark_shape() {
        for name in ["171.swim", "429.mcf", "403.gcc"] {
            let spec = spec_benchmark(name);
            let buf = TraceBuffer::record(&spec, 4_000);
            let decoded = decode_trace(&encode_trace(&spec, &buf)).expect("round trip");
            assert_eq!(decoded.fingerprint, spec_fingerprint(&spec));
            assert_eq!(decoded.seed, spec.seed);
            assert_eq!(
                buf.replay().collect::<Vec<_>>(),
                decoded.buffer.replay().collect::<Vec<_>>(),
                "{name} diverged through the store format"
            );
        }
    }

    /// `len` bytes of a fixed, non-repeating-per-word pattern.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(151).wrapping_add(7))
            .collect()
    }

    #[test]
    fn fnv1a_wide_is_pinned_around_the_block_boundary() {
        // Empty, tail only, one byte short of a block, one block, one block
        // plus a tail byte, and three blocks plus an 8-byte tail.
        let pinned: [(usize, u64); 6] = [
            (0, 0x52fc_c39e_bac1_808d),
            (1, 0xc500_f0b7_56cd_6a7e),
            (63, 0x1dbb_250f_7c0d_e68f),
            (64, 0x98d4_fb51_7f1b_7978),
            (65, 0xcd60_ca7a_fbaf_df8d),
            (200, 0x071d_f7d5_7fdf_e213),
        ];
        for (len, want) in pinned {
            assert_eq!(
                fnv1a_wide(FNV_OFFSET_BASIS, &pattern(len)),
                want,
                "fnv1a_wide moved on {len} bytes"
            );
        }
        // The continuation state is folded in, not ignored.
        assert_ne!(fnv1a_wide(0, &pattern(200)), pinned[5].1);
    }

    #[test]
    fn fnv1a_wide_sees_every_single_bit_flip() {
        // 200 bytes = three 64-byte blocks (every word lane, three times)
        // plus an 8-byte tail: a flip anywhere must change the checksum.
        let bytes = pattern(200);
        let clean = fnv1a_wide(FNV_OFFSET_BASIS, &bytes);
        let mut flipped = bytes.clone();
        for bit in 0..bytes.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(
                fnv1a_wide(FNV_OFFSET_BASIS, &flipped),
                clean,
                "flip of bit {bit} went unseen"
            );
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn fnv1a_wide_sees_paired_high_bit_flips_in_one_lane() {
        // Two flips of the same high bit in two words of one lane: a lane
        // step without the rotation shifts the state by exactly 2^63 for a
        // top-bit flip, so the second flip would cancel the first. 200 bytes
        // hold three words per lane; try every pair of them, top byte only.
        let bytes = pattern(200);
        let clean = fnv1a_wide(FNV_OFFSET_BASIS, &bytes);
        for lane in 0..8 {
            for (a, b) in [(0, 1), (0, 2), (1, 2)] {
                for bit in 0..8 {
                    let mut flipped = bytes.clone();
                    flipped[64 * a + 8 * lane + 7] ^= 1 << bit;
                    flipped[64 * b + 8 * lane + 7] ^= 1 << bit;
                    assert_ne!(
                        fnv1a_wide(FNV_OFFSET_BASIS, &flipped),
                        clean,
                        "bit {} of lane {lane}, words {a} and {b}, cancelled",
                        56 + bit
                    );
                }
            }
        }
    }

    #[test]
    fn fingerprint_distinguishes_every_spec_field() {
        let base = WorkloadSpec::new("fp", 1);
        let fp = spec_fingerprint(&base);
        let mut renamed = base.clone();
        renamed.name = "fp2".to_string();
        assert_ne!(fp, spec_fingerprint(&renamed));
        let mut reseeded = base.clone();
        reseeded.seed = 2;
        assert_ne!(fp, spec_fingerprint(&reseeded));
        let mut remixed = base.clone();
        remixed.mix.load += 0.01;
        assert_ne!(fp, spec_fingerprint(&remixed));
        let mut rememoried = base.clone();
        rememoried.memory.working_set_bytes *= 2;
        assert_ne!(fp, spec_fingerprint(&rememoried));
        let mut revalued = base.clone();
        revalued.values.stride_magnitude += 1;
        assert_ne!(fp, spec_fingerprint(&revalued));
        // And it is stable for identical specs.
        assert_eq!(fp, spec_fingerprint(&base.clone()));
    }

    #[test]
    fn truncated_and_mangled_bytes_are_rejected() {
        let spec = WorkloadSpec::named_demo("mangle");
        let buf = TraceBuffer::record(&spec, 1_000);
        let bytes = encode_trace(&spec, &buf);

        assert!(matches!(decode_trace(&[]), Err(StoreError::Truncated)));
        for cut in [4usize, HEADER_LEN - 1, HEADER_LEN + 17, bytes.len() - 1] {
            assert!(
                matches!(
                    decode_trace(&bytes[..cut]),
                    Err(StoreError::Truncated) | Err(StoreError::ChecksumMismatch)
                ),
                "cut at {cut} not rejected"
            );
        }

        let mut wrong_magic = bytes.clone();
        wrong_magic[0] ^= 0xFF;
        assert!(matches!(
            decode_trace(&wrong_magic),
            Err(StoreError::BadMagic)
        ));

        let mut wrong_version = bytes.clone();
        wrong_version[8] = 0xEE;
        assert!(matches!(
            decode_trace(&wrong_version),
            Err(StoreError::VersionMismatch(_))
        ));

        // Flip one payload bit: the checksum must catch it.
        let mut flipped = bytes.clone();
        let mid = HEADER_LEN + (flipped.len() - HEADER_LEN) / 2;
        flipped[mid] ^= 0x01;
        assert!(matches!(
            decode_trace(&flipped),
            Err(StoreError::ChecksumMismatch)
        ));

        // Trailing garbage is not silently ignored.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_trace(&padded).is_err());
    }

    #[test]
    fn store_misses_then_hits_and_survives_corruption() {
        let dir = tmp_dir("hitmiss");
        let store = TraceStore::open(&dir).expect("open");
        let spec = WorkloadSpec::named_demo("store-demo");
        assert!(store.load(&spec, 2_000).is_none());
        assert_eq!((store.hits(), store.misses()), (0, 1));

        let (buf, loaded) = store.load_or_record(&spec, 2_000);
        assert!(!loaded);
        let again = store.load(&spec, 2_000).expect("hit after save");
        assert_eq!(
            buf.replay().collect::<Vec<_>>(),
            again.replay().collect::<Vec<_>>()
        );
        assert_eq!(store.hits(), 1);

        // A different budget is a different key.
        assert!(store.load(&spec, 2_001).is_none());

        // Corrupt the file on disk: the next load rejects it, deletes it and
        // reports a miss; the one after that regenerates transparently.
        let path = store.trace_path(&spec, 2_000);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert!(store.load(&spec, 2_000).is_none());
        assert!(!path.exists(), "corrupt file must be deleted");
        let (_, loaded) = store.load_or_record(&spec, 2_000);
        assert!(!loaded);
        assert!(path.exists(), "regenerated recording must be persisted");

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_fingerprint_is_a_miss() {
        let dir = tmp_dir("stale");
        let store = TraceStore::open(&dir).expect("open");
        let spec = WorkloadSpec::named_demo("stale-demo");
        let buf = TraceBuffer::record(&spec, 1_500);
        // Write valid bytes for `spec` at the path of a *different* spec —
        // the decoded fingerprint disagrees with what the caller asked for.
        let mut other = spec.clone();
        other.values.stride_magnitude += 7;
        let path = store.trace_path(&other, 1_500);
        fs::write(&path, encode_trace(&spec, &buf)).unwrap();
        assert!(store.load(&other, 1_500).is_none());
        assert!(!path.exists(), "stale file must be deleted");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_evicts_oldest_first_down_to_the_bound() {
        let dir = tmp_dir("sweep");
        let store = TraceStore::open(&dir).expect("open");
        let mut sizes = Vec::new();
        for (i, name) in ["sw-a", "sw-b", "sw-c"].iter().enumerate() {
            let spec = WorkloadSpec::new(*name, 10 + i as u64);
            let buf = TraceBuffer::record(&spec, 1_000);
            let path = store.save(&spec, 1_000, &buf).expect("save");
            // Space the mtimes out explicitly so ordering is deterministic.
            let t = SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1_000 + i as u64);
            fs::File::options()
                .write(true)
                .open(&path)
                .unwrap()
                .set_modified(t)
                .unwrap();
            sizes.push(fs::metadata(&path).unwrap().len());
        }
        let total: u64 = sizes.iter().sum();
        assert_eq!(store.disk_bytes(), total);

        // Room for the two newest files only: the oldest (sw-a) goes.
        let bound = sizes[1] + sizes[2];
        let stats = store.sweep(bound).expect("sweep");
        assert_eq!(stats.files_removed, 1);
        assert_eq!(stats.bytes_removed, sizes[0]);
        assert_eq!(stats.bytes_kept, bound);
        let spec_a = WorkloadSpec::new("sw-a", 10);
        assert!(!store.trace_path(&spec_a, 1_000).exists());
        let spec_c = WorkloadSpec::new("sw-c", 12);
        assert!(store.trace_path(&spec_c, 1_000).exists());

        // A zero bound empties the store; an ample bound removes nothing.
        store.sweep(0).expect("sweep to zero");
        assert_eq!(store.disk_bytes(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_is_strict_lru_not_first_fit() {
        // Oldest C (small), middle B (large), newest A. A bound of size(A) +
        // size(C) must evict C *and then* B (strict LRU removes oldest until
        // the total fits) — not skip over B to keep the stale C, which would
        // evict a more-recently-used recording than the one it keeps.
        let dir = tmp_dir("lru");
        let store = TraceStore::open(&dir).expect("open");
        let mut sizes = std::collections::BTreeMap::new();
        for (i, (name, uops)) in [("lru-c", 2_000u64), ("lru-b", 2_500), ("lru-a", 3_000)]
            .iter()
            .enumerate()
        {
            let spec = WorkloadSpec::new(*name, 40 + i as u64);
            let buf = TraceBuffer::record(&spec, *uops);
            let path = store.save(&spec, *uops, &buf).expect("save");
            let t = SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(2_000 + i as u64);
            fs::File::options()
                .write(true)
                .open(&path)
                .unwrap()
                .set_modified(t)
                .unwrap();
            sizes.insert(*name, fs::metadata(&path).unwrap().len());
        }
        let bound = sizes["lru-a"] + sizes["lru-c"];
        let stats = store.sweep(bound).expect("sweep");
        assert_eq!(stats.files_removed, 2, "C then B must go, oldest first");
        assert_eq!(stats.bytes_removed, sizes["lru-c"] + sizes["lru-b"]);
        assert_eq!(stats.bytes_kept, sizes["lru-a"]);
        assert!(store
            .trace_path(&WorkloadSpec::new("lru-a", 42), 3_000)
            .exists());
        assert!(!store
            .trace_path(&WorkloadSpec::new("lru-c", 40), 2_000)
            .exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_breaks_equal_mtime_ties_by_path() {
        // Coarse filesystem timestamps can collapse distinct save times onto
        // one mtime; eviction must then fall back to path order, not readdir
        // order, so *which* recording is evicted is a function of the store's
        // contents alone.
        let dir = tmp_dir("tie");
        let store = TraceStore::open(&dir).expect("open");
        let mut paths = Vec::new();
        let t = SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(5_000);
        for (i, name) in ["tie-a", "tie-b", "tie-c"].iter().enumerate() {
            let spec = WorkloadSpec::new(*name, 70 + i as u64);
            let buf = TraceBuffer::record(&spec, 1_000);
            let path = store.save(&spec, 1_000, &buf).expect("save");
            fs::File::options()
                .write(true)
                .open(&path)
                .unwrap()
                .set_modified(t)
                .unwrap();
            paths.push(path);
        }
        paths.sort();
        let survivor_bytes: u64 = paths[1..]
            .iter()
            .map(|p| fs::metadata(p).unwrap().len())
            .sum();
        let stats = store.sweep(survivor_bytes).expect("sweep");
        assert_eq!(stats.files_removed, 1);
        assert!(
            !paths[0].exists(),
            "the lexicographically-smallest path must be the eviction victim"
        );
        assert!(paths[1].exists() && paths[2].exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_path_recordings_key_on_the_committed_budget() {
        let dir = tmp_dir("wrongpath");
        let store = TraceStore::open(&dir).expect("open");
        let spec = WorkloadSpec::new("wp-store", 21).with_wrong_path(6);
        let (buf, loaded) = store.load_or_record(&spec, 1_500);
        assert!(!loaded);
        assert_eq!(buf.committed_len(), 1_500);
        assert!(buf.len() > 1_500, "bursts must be part of the recording");

        // A warm load under the same committed budget is a hit and replays
        // the wrong-path markers faithfully.
        let again = store.load(&spec, 1_500).expect("hit");
        assert_eq!(again.committed_len(), 1_500);
        assert_eq!(again.wrong_path_len(), buf.wrong_path_len());
        assert_eq!(
            buf.replay().collect::<Vec<_>>(),
            again.replay().collect::<Vec<_>>()
        );

        // The same spec without wrong-path emission is a different fingerprint.
        let mut plain = spec.clone();
        plain.wrong_path = WrongPathProfile::disabled();
        assert_ne!(spec_fingerprint(&spec), spec_fingerprint(&plain));
        assert!(store.load(&plain, 1_500).is_none());
        assert_eq!(store.delete_errors(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn short_read_is_rejected_and_regenerated_like_corruption() {
        // A crash can tear a file mid-write outside the store's own atomic
        // rename protocol (torn directory copy, truncated cache restore). A
        // short read of such a file must behave exactly like a bad checksum:
        // reject, delete, regenerate — never an error that kills the run.
        let dir = tmp_dir("shortread");
        let store = TraceStore::open(&dir).expect("open");
        let spec = WorkloadSpec::named_demo("short-demo");
        let (_, loaded) = store.load_or_record(&spec, 1_200);
        assert!(!loaded);
        let path = store.trace_path(&spec, 1_200);
        let bytes = fs::read(&path).unwrap();

        // Truncated inside the payload (the classic mid-write crash shape).
        fs::write(&path, &bytes[..bytes.len() * 2 / 3]).unwrap();
        assert!(store.load(&spec, 1_200).is_none(), "short read must miss");
        assert!(!path.exists(), "truncated file must be deleted");
        let (_, loaded) = store.load_or_record(&spec, 1_200);
        assert!(!loaded, "regeneration, not a stale hit");
        assert!(path.exists(), "healed recording must be persisted");

        // Truncated inside the header, and to zero length.
        for cut in [40usize, 0] {
            fs::write(&path, &bytes[..cut]).unwrap();
            assert!(store.load(&spec, 1_200).is_none(), "cut={cut} must miss");
            assert!(!path.exists(), "cut={cut} file must be deleted");
            store
                .save(&spec, 1_200, &TraceBuffer::record(&spec, 1_200))
                .unwrap();
        }
        assert_eq!(
            store.read_errors(),
            0,
            "short reads are rejects, not I/O errors"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_faults_degrade_and_heal_instead_of_failing() {
        let dir = tmp_dir("faults");
        let mut store = TraceStore::open(&dir).expect("open");
        // Aggressive rates so every path fires within a few operations.
        store.set_faults(
            crate::FaultPlan::seeded(11)
                .with_read_errors(3)
                .with_short_reads(3)
                .with_corruption(3)
                .with_write_errors(3),
        );
        let spec = WorkloadSpec::named_demo("fault-demo");
        let reference = TraceBuffer::record(&spec, 1_000);

        let mut hits = 0;
        for _ in 0..24 {
            // Saves may fail with the injected write error: retry until one
            // lands (`retry_io`'s policy, without its bound).
            if !store.trace_path(&spec, 1_000).exists() {
                while store.save(&spec, 1_000, &reference).is_err() {}
            }
            // Loads may miss (injected read error → degrade; injected short
            // read / corruption → reject-and-delete) but must never return a
            // recording that differs from the reference.
            if let Some(buf) = store.load(&spec, 1_000) {
                hits += 1;
                assert_eq!(
                    buf.replay().collect::<Vec<_>>(),
                    reference.replay().collect::<Vec<_>>(),
                    "a fault must never surface as silently wrong data"
                );
            }
        }
        assert!(hits > 0, "some loads must survive the fault plan");
        assert!(store.misses() > 0, "some loads must be degraded by it");
        assert!(
            store.read_errors() > 0,
            "injected read errors must be counted"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_save_that_keeps_failing_is_counted_unsaved_after_every_retry() {
        let dir = tmp_dir("unsaved");
        let mut store = TraceStore::open(&dir).expect("open");
        store.set_faults(crate::FaultPlan::seeded(7).with_write_errors(1));
        let spec = WorkloadSpec::named_demo("unsaved-demo");
        let (buf, loaded) = store.load_or_record(&spec, 1_000);
        assert!(!loaded);
        assert_eq!(
            buf.replay().collect::<Vec<_>>(),
            TraceBuffer::record(&spec, 1_000)
                .replay()
                .collect::<Vec<_>>(),
            "the in-memory recording is returned"
        );
        assert_eq!(store.unsaved(), 1);
        assert_eq!(store.save_retries(), u64::from(IO_RETRIES));
        let plan = store.faults.as_ref().expect("plan attached");
        assert_eq!(plan.injected_by_kind().1, u64::from(IO_RETRIES) + 1);
        assert!(!store.trace_path(&spec, 1_000).exists());
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0, "nothing on disk");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_save_that_fails_once_is_retried_and_lands() {
        // The first seed whose plan fails the first write and passes the
        // second, drawn the way the store draws them.
        let plan = |seed| crate::FaultPlan::seeded(seed).with_write_errors(2);
        let seed = (0..)
            .find(|&s| {
                let p = plan(s);
                p.check_write().is_err() && p.check_write().is_ok()
            })
            .expect("some seed fails then passes");
        let dir = tmp_dir("retried");
        let mut store = TraceStore::open(&dir).expect("open");
        store.set_faults(plan(seed));
        let spec = WorkloadSpec::named_demo("retried-demo");
        let (buf, loaded) = store.load_or_record(&spec, 1_000);
        assert!(!loaded);
        assert_eq!((store.save_retries(), store.unsaved()), (1, 0));
        assert!(store.trace_path(&spec, 1_000).exists());
        let (again, loaded) = store.load_or_record(&spec, 1_000);
        assert!(loaded, "the retried save must be a later hit");
        assert_eq!(
            buf.replay().collect::<Vec<_>>(),
            again.replay().collect::<Vec<_>>()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_path_is_versioned_and_filesystem_safe() {
        let dir = tmp_dir("path");
        let store = TraceStore::open(&dir).expect("open");
        let spec = WorkloadSpec::new("4??.we/ird name", 3);
        let path = store.trace_path(&spec, 500);
        let name = path.file_name().unwrap().to_str().unwrap();
        assert!(name.starts_with("4__.we_ird_name-"));
        assert!(name.ends_with(&format!("500u.v{TRACE_FORMAT_VERSION}.{TRACE_EXT}")));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_atomic_replaces_the_file_in_one_step() {
        let dir = tmp_dir("atomic");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "first");
        write_atomic(&path, b"second").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "second");
        // No temporary debris left behind.
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);
        // A missing parent directory is a clean error, not a panic.
        assert!(write_atomic(&dir.join("no/such/dir/r.json"), b"x").is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_write_atomic_into_one_directory_never_collides() {
        // Two threads of one process rewrite their own files and one shared
        // file in the same directory, released together every round: a
        // temporary name shared between calls would let one thread's rename
        // take the other's temporary file and fail the second rename. Errors
        // are counted, not unwrapped, so a failing thread still meets its
        // partner at the barrier.
        let dir = tmp_dir("atomic-threads");
        fs::create_dir_all(&dir).unwrap();
        let round = std::sync::Barrier::new(2);
        let failures: usize = std::thread::scope(|s| {
            let writers: Vec<_> = (0..2u8)
                .map(|t| {
                    let (dir, round) = (&dir, &round);
                    s.spawn(move || {
                        let mut failed = 0;
                        for i in 0..1000u32 {
                            round.wait();
                            let body = format!("{t}:{i}");
                            let shared = write_atomic(&dir.join("shared"), body.as_bytes());
                            let own = write_atomic(&dir.join(format!("own-{t}")), body.as_bytes());
                            failed += usize::from(own.is_err()) + usize::from(shared.is_err());
                        }
                        failed
                    })
                })
                .collect();
            writers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        assert_eq!(failures, 0, "concurrent writes collided");
        assert_eq!(fs::read_to_string(dir.join("own-0")).unwrap(), "0:999");
        assert_eq!(fs::read_to_string(dir.join("own-1")).unwrap(), "1:999");
        let shared = fs::read_to_string(dir.join("shared")).unwrap();
        assert!(shared == "0:999" || shared == "1:999", "{shared}");
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 3, "temporary debris");
        let _ = fs::remove_dir_all(&dir);
    }
}
