//! Crash-safe simulation checkpoints.
//!
//! A long figure-regeneration run (hundreds of millions of µ-ops per cell)
//! that dies to a SIGKILL, an OOM kill or a power cut should not restart from
//! zero. A [`SimCheckpoint`] snapshots the *complete* mutable simulation
//! state — the pipeline's in-flight window (via `Pipeline::save_state`), the
//! predictor's tables (via `ValuePredictor::save_state`) and the trace-cursor
//! position — so a resumed run replays the µ-op stream up to the snapshot
//! point and then continues bit-identically: the final `SimStats` of a
//! resumed run equal those of an uninterrupted one.
//!
//! The on-disk format follows the `bebop-trace` store conventions: magic,
//! format version, configuration fingerprint and a trailing word-parallel
//! FNV-1a checksum ([`bebop_trace::fnv1a_wide`]) over everything before it,
//! so a torn or truncated file never decodes. A file is written either
//! through a temporary file and a rename ([`SimCheckpoint::write_atomic`])
//! or in place over an existing file (`SimCheckpoint::write_in_place`, what
//! the resume driver does to its two alternating slots, see
//! [`crate::checkpoint_slots`]). A stale, corrupt or version-mismatched
//! checkpoint is *rejected* — the caller falls back to an older snapshot or
//! a from-zero run instead of propagating garbage state.

use bebop_trace::{fnv1a_wide, FNV_OFFSET_BASIS};
use std::fs::{self, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

/// Magic bytes opening every checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"BBPCKPT\0";

/// Version of the checkpoint byte format *and* of the serialized component
/// payloads. Bump whenever `Pipeline::save_state`, any predictor's
/// `save_state`, or the header layout changes shape: an old checkpoint must
/// be discarded, not misdecoded.
///
/// Version history: 1 — original per-class slot-pool payloads; 2 — the
/// in-flight window's unified `LanePool` (shared base, per-lane horizons,
/// generation counter, sparse far-future overflow) plus the bounded
/// `SlotPool` encoding; 3 — the per-lane `LanePool` (shared prune horizon
/// and generation, then per lane its own horizon, only its live cycle tags in
/// cycle order, and its overflow) and the flat TAGE tagged table (one entry
/// list for all components instead of a list per component); 4 — the
/// trailing checksum is the word-parallel [`bebop_trace::fnv1a_wide`] instead
/// of byte-serial FNV-1a (header and payload bytes unchanged); 5 — the
/// narrowed in-flight predictor records are written as stored: tagged-slot
/// indices as `u16`, slot predictions as value lanes plus a mask, BeBoP's
/// block records packed, and its current block without the slot tags and
/// predictions it reads from the newest block record.
pub const CHECKPOINT_FORMAT_VERSION: u32 = 5;

/// Why a checkpoint file was rejected (all outcomes mean "fall back to a
/// from-zero run"; none are fatal).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The file does not exist — a normal first run.
    Missing,
    /// The file could not be read (I/O error rendered as a string).
    Io(String),
    /// The file is not a checkpoint, is truncated, or fails its checksum.
    Corrupt(&'static str),
    /// The format version does not match [`CHECKPOINT_FORMAT_VERSION`].
    VersionMismatch {
        /// Version found in the file.
        found: u32,
    },
    /// The configuration fingerprint does not match the current run — the
    /// checkpoint belongs to a different workload/pipeline/predictor.
    FingerprintMismatch,
    /// The component payloads failed structural validation on restore.
    Restore(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Missing => write!(f, "no checkpoint file"),
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Corrupt(why) => write!(f, "corrupt checkpoint: {why}"),
            CheckpointError::VersionMismatch { found } => write!(
                f,
                "checkpoint format version {found} != {CHECKPOINT_FORMAT_VERSION}"
            ),
            CheckpointError::FingerprintMismatch => {
                write!(f, "checkpoint belongs to a different configuration")
            }
            CheckpointError::Restore(e) => write!(f, "checkpoint restore rejected: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A decoded simulation checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimCheckpoint {
    /// Fingerprint of the (workload, pipeline, predictor, budget) tuple the
    /// snapshot belongs to; a mismatch on load rejects the checkpoint.
    pub fingerprint: u64,
    /// Committed µ-ops at the snapshot point.
    pub committed: u64,
    /// Total µ-ops pulled from the trace stream at the snapshot point
    /// (includes wrong-path slots, so it can exceed `committed`); a resumed
    /// run fast-forwards a fresh stream by exactly this many µ-ops.
    pub stream_pos: u64,
    /// Opaque `Pipeline::save_state` payload.
    pub pipeline: Vec<u8>,
    /// Opaque `ValuePredictor::save_state` payload.
    pub predictor: Vec<u8>,
}

// Header: magic(8) version(4) fingerprint(8) committed(8) stream_pos(8)
//         pipeline_len(8) predictor_len(8)  = 52 bytes, then the two
// payloads, then the trailing checksum (8): `fnv1a_wide` from the FNV offset
// basis over everything before it.
const HEADER_LEN: usize = 52;

impl SimCheckpoint {
    /// Encodes the checkpoint into its on-disk byte format (header, payloads,
    /// trailing checksum).
    pub fn encode(&self) -> Vec<u8> {
        let mut out =
            Vec::with_capacity(HEADER_LEN + self.pipeline.len() + self.predictor.len() + 8);
        out.extend_from_slice(&CHECKPOINT_MAGIC);
        out.extend_from_slice(&CHECKPOINT_FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.fingerprint.to_le_bytes());
        out.extend_from_slice(&self.committed.to_le_bytes());
        out.extend_from_slice(&self.stream_pos.to_le_bytes());
        out.extend_from_slice(&(self.pipeline.len() as u64).to_le_bytes());
        out.extend_from_slice(&(self.predictor.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.pipeline);
        out.extend_from_slice(&self.predictor);
        let checksum = fnv1a_wide(FNV_OFFSET_BASIS, &out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Decodes and validates a checkpoint, rejecting truncation, checksum
    /// failure and version mismatches. The `expected_fingerprint` guards
    /// against resuming the wrong configuration's snapshot.
    pub fn decode(bytes: &[u8], expected_fingerprint: u64) -> Result<Self, CheckpointError> {
        if bytes.len() < HEADER_LEN + 8 {
            return Err(CheckpointError::Corrupt("file shorter than header"));
        }
        if bytes[..8] != CHECKPOINT_MAGIC {
            return Err(CheckpointError::Corrupt("bad magic"));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        // INVARIANT: split_at(len - 8) makes the tail exactly 8 bytes.
        let stored = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
        if fnv1a_wide(FNV_OFFSET_BASIS, body) != stored {
            return Err(CheckpointError::Corrupt("checksum mismatch"));
        }
        // INVARIANT: the header-length check above covers every fixed
        // offset these two helpers are called with.
        let u32_at =
            |off: usize| u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4-byte field"));
        // INVARIANT: same header-length bound as above.
        let u64_at =
            |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8-byte field"));
        let version = u32_at(8);
        if version != CHECKPOINT_FORMAT_VERSION {
            return Err(CheckpointError::VersionMismatch { found: version });
        }
        let fingerprint = u64_at(12);
        if fingerprint != expected_fingerprint {
            return Err(CheckpointError::FingerprintMismatch);
        }
        let committed = u64_at(20);
        let stream_pos = u64_at(28);
        let pipeline_len = usize::try_from(u64_at(36))
            .map_err(|_| CheckpointError::Corrupt("pipeline payload length overflows usize"))?;
        let predictor_len = usize::try_from(u64_at(44))
            .map_err(|_| CheckpointError::Corrupt("predictor payload length overflows usize"))?;
        let payload = &body[HEADER_LEN..];
        // checked_add: two usize lengths from a (possibly corrupt) file can
        // overflow their sum even when each fits — that must be a decode
        // error, not a debug-build panic.
        let expected_payload = pipeline_len
            .checked_add(predictor_len)
            .ok_or(CheckpointError::Corrupt("payload length overflow"))?;
        if payload.len() != expected_payload {
            return Err(CheckpointError::Corrupt("payload length mismatch"));
        }
        Ok(SimCheckpoint {
            fingerprint,
            committed,
            stream_pos,
            pipeline: payload[..pipeline_len].to_vec(),
            predictor: payload[pipeline_len..].to_vec(),
        })
    }

    /// Atomically writes the checkpoint to `path` (creating its directory)
    /// via [`bebop_trace::write_atomic`]: a reader sees the previous complete
    /// checkpoint or the new complete one, never a torn write.
    pub fn write_atomic(&self, path: &Path) -> io::Result<()> {
        let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
        if let Some(dir) = dir {
            fs::create_dir_all(dir)?;
        }
        bebop_trace::write_atomic(path, &self.encode())
    }

    /// Writes the checkpoint over the file at `path` in place (creating its
    /// directory and the file): the file is opened without truncation,
    /// written, then cut to the new length. It is never truncated before the
    /// write and never renamed over, which avoids the writeback a rename
    /// over an existing file forces on some filesystems. A torn write leaves
    /// a file whose trailing checksum fails, so the caller must keep the
    /// previous snapshot in another file (see [`crate::checkpoint_slots`]).
    pub(crate) fn write_in_place(&self, path: &Path) -> io::Result<()> {
        let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
        if let Some(dir) = dir {
            fs::create_dir_all(dir)?;
        }
        let bytes = self.encode();
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        file.write_all(&bytes)?;
        file.set_len(bytes.len() as u64)
    }

    /// Loads and validates the checkpoint at `path`. A missing file is
    /// [`CheckpointError::Missing`]; every other failure mode identifies why
    /// the file was rejected so the caller can log it before discarding.
    pub fn load(path: &Path, expected_fingerprint: u64) -> Result<Self, CheckpointError> {
        let bytes = match fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Err(CheckpointError::Missing),
            Err(e) => return Err(CheckpointError::Io(e.to_string())),
        };
        Self::decode(&bytes, expected_fingerprint)
    }

    /// Removes the checkpoint file, ignoring a missing file.
    pub fn discard(path: &Path) {
        let _ = fs::remove_file(path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimCheckpoint {
        SimCheckpoint {
            fingerprint: 0xfeed_f00d,
            committed: 123_456,
            stream_pos: 130_000,
            pipeline: vec![1, 2, 3, 4, 5],
            predictor: vec![9, 8, 7],
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let c = sample();
        let bytes = c.encode();
        let d = SimCheckpoint::decode(&bytes, c.fingerprint).unwrap();
        assert_eq!(c, d);
    }

    #[test]
    fn truncation_is_rejected_at_every_length() {
        let bytes = sample().encode();
        for n in 0..bytes.len() {
            assert!(
                SimCheckpoint::decode(&bytes[..n], 0xfeed_f00d).is_err(),
                "truncation to {n} bytes must be rejected"
            );
        }
    }

    #[test]
    fn corruption_of_any_byte_is_rejected() {
        let bytes = sample().encode();
        for at in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= 0x5A;
            assert!(
                SimCheckpoint::decode(&bad, 0xfeed_f00d).is_err(),
                "flipped byte {at} must be rejected"
            );
        }
    }

    /// Re-seals the trailing checksum after a header edit so length-field
    /// tests exercise the length validation, not the corruption check.
    fn reseal(bytes: &mut [u8]) {
        let body_len = bytes.len() - 8;
        let checksum = fnv1a_wide(FNV_OFFSET_BASIS, &bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&checksum.to_le_bytes());
    }

    #[test]
    fn absurd_payload_lengths_are_a_decode_error_not_a_panic() {
        // A corrupt file can claim any u64 for its payload lengths. Each must
        // fail as `Corrupt`, never as an arithmetic panic or a huge
        // allocation: u64::MAX (usize conversion / sum overflow), and a large
        // value whose sum stays representable (plain length mismatch).
        let good = sample().encode();
        for (pipeline_len, predictor_len) in [
            (u64::MAX, u64::MAX),
            (u64::MAX, 3),
            (u64::MAX / 2, u64::MAX / 2 + 2),
            (1 << 40, 3),
        ] {
            let mut bad = good.clone();
            bad[36..44].copy_from_slice(&pipeline_len.to_le_bytes());
            bad[44..52].copy_from_slice(&predictor_len.to_le_bytes());
            reseal(&mut bad);
            match SimCheckpoint::decode(&bad, 0xfeed_f00d) {
                Err(CheckpointError::Corrupt(_)) => {}
                other => panic!(
                    "lengths ({pipeline_len}, {predictor_len}) must decode as Corrupt, got {other:?}"
                ),
            }
        }
    }

    #[test]
    fn wrong_fingerprint_is_rejected() {
        let bytes = sample().encode();
        assert_eq!(
            SimCheckpoint::decode(&bytes, 0xdead_beef),
            Err(CheckpointError::FingerprintMismatch)
        );
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = sample().encode();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        // Checksum covers the version, so re-seal the file to isolate the
        // version check from the corruption check.
        reseal(&mut bytes);
        assert_eq!(
            SimCheckpoint::decode(&bytes, 0xfeed_f00d),
            Err(CheckpointError::VersionMismatch { found: 99 })
        );
    }

    #[test]
    fn atomic_write_and_load() {
        let dir = std::env::temp_dir().join("bebop-ckpt-test");
        let path = dir.join("run.bbpckpt");
        let c = sample();
        c.write_atomic(&path).unwrap();
        let loaded = SimCheckpoint::load(&path, c.fingerprint).unwrap();
        assert_eq!(c, loaded);
        SimCheckpoint::discard(&path);
        assert_eq!(
            SimCheckpoint::load(&path, c.fingerprint),
            Err(CheckpointError::Missing)
        );
        let _ = std::fs::remove_dir(&dir);
    }
}
