//! Fetch-block arithmetic.
//!
//! BeBoP associates value-predictor entries with *instruction fetch blocks*: aligned
//! groups of bytes (16 in the paper's configuration) fetched as a unit from the
//! instruction cache. The predictor is indexed with the fetch-block PC (the
//! instruction PC right-shifted by `log2(block size)`), and each prediction slot is
//! tagged with the byte index, inside the block, of the instruction it belongs to.
//! Partial tags and folded histories shrink wide values with [`fold_bits`].

/// Default fetch-block size in bytes (the paper uses 16-byte fetch blocks).
pub const DEFAULT_FETCH_BLOCK_BYTES: u64 = 16;

/// Returns the fetch-block PC (block-aligned address) containing `pc`.
///
/// # Panics
///
/// Panics if `block_bytes` is not a power of two.
///
/// # Example
///
/// ```
/// use bebop_isa::fetch_block_pc;
/// assert_eq!(fetch_block_pc(0x1234, 16), 0x1230);
/// ```
pub fn fetch_block_pc(pc: u64, block_bytes: u64) -> u64 {
    assert!(
        block_bytes.is_power_of_two(),
        "block size must be a power of two"
    );
    pc & !(block_bytes - 1)
}

/// Returns the byte index of `pc` within its fetch block: the per-prediction tag
/// BeBoP uses to attribute predictions to µ-ops.
///
/// # Panics
///
/// Panics if `block_bytes` is not a power of two.
///
/// # Example
///
/// ```
/// use bebop_isa::byte_index_in_block;
/// assert_eq!(byte_index_in_block(0x1234, 16), 4);
/// ```
pub fn byte_index_in_block(pc: u64, block_bytes: u64) -> u8 {
    assert!(
        block_bytes.is_power_of_two(),
        "block size must be a power of two"
    );
    // CAST: masked by block_bytes - 1, and fetch blocks are at most 256 bytes.
    (pc & (block_bytes - 1)) as u8
}

/// Folds a 64-bit value down to `bits` bits by XOR-ing successive `bits`-wide
/// chunks: the one fold behind every partial tag and folded history.
///
/// Returns 0 when `bits` is 0 and the identity when `bits >= 64`.
pub fn fold_bits(value: u64, bits: u32) -> u64 {
    if bits == 0 {
        return 0;
    }
    if bits >= 64 {
        return value;
    }
    let mask = (1u64 << bits) - 1;
    let mut v = value;
    let mut acc = 0u64;
    while v != 0 {
        acc ^= v & mask;
        v >>= bits;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_pc_alignment() {
        assert_eq!(fetch_block_pc(0x0, 16), 0x0);
        assert_eq!(fetch_block_pc(0xf, 16), 0x0);
        assert_eq!(fetch_block_pc(0x10, 16), 0x10);
        assert_eq!(fetch_block_pc(0x1237, 32), 0x1220);
    }

    #[test]
    fn byte_index() {
        assert_eq!(byte_index_in_block(0x1230, 16), 0);
        assert_eq!(byte_index_in_block(0x123f, 16), 15);
        assert_eq!(byte_index_in_block(0x1244, 32), 4);
    }

    #[test]
    fn fold_bits_behaviour() {
        assert_eq!(fold_bits(0, 13), 0);
        assert_eq!(fold_bits(0xffff, 16), 0xffff);
        assert_eq!(fold_bits(0x1_0001, 16), 0); // two identical chunks XOR to zero
        assert_eq!(fold_bits(42, 0), 0);
        assert_eq!(fold_bits(42, 64), 42);
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_block_panics() {
        let _ = fetch_block_pc(0x100, 24);
    }
}
