//! Per-slot lane operations for the block predictor.
//!
//! The BlockDVtage hot path runs the same arithmetic over all `MAX_NPRED`
//! prediction slots of an entry: the last-value + stride add, the
//! prediction-vs-actual compare and the confidence-threshold test. Each is a
//! plain fixed-length loop over the slot arrays with no loop-carried state,
//! left to the compiler to unroll and vectorise (hand-unrolled and SWAR
//! versions measured no faster on the `geometry-sweep` benchmark). The
//! predictor-level guarantee (identical predictions and confidence decisions)
//! is covered by `block_dvtage`'s own tests running on top of these helpers.

use crate::spec_window::MAX_NPRED;

/// `lasts[i] + strides[i]` (wrapping) per lane.
#[inline]
pub fn add_strides(lasts: &[u64; MAX_NPRED], strides: &[i64; MAX_NPRED]) -> [u64; MAX_NPRED] {
    let mut out = [0u64; MAX_NPRED];
    for i in 0..MAX_NPRED {
        out[i] = lasts[i].wrapping_add_signed(strides[i]);
    }
    out
}

/// `a[i] - b[i]` (wrapping, reinterpreted as a signed stride) per lane.
#[inline]
pub fn sub_lanes(a: &[u64; MAX_NPRED], b: &[u64; MAX_NPRED]) -> [i64; MAX_NPRED] {
    let mut out = [0i64; MAX_NPRED];
    for i in 0..MAX_NPRED {
        out[i] = a[i].wrapping_sub(b[i]) as i64;
    }
    out
}

/// Bitmask of lanes where `a[i] == b[i]`.
#[inline]
pub fn eq_mask(a: &[u64; MAX_NPRED], b: &[u64; MAX_NPRED]) -> u8 {
    let mut m = 0u8;
    for i in 0..MAX_NPRED {
        if a[i] == b[i] {
            m |= 1 << i;
        }
    }
    m
}

/// Bitmask of lanes whose confidence level reaches `threshold`.
#[inline]
pub fn confident_mask(levels: &[u8; MAX_NPRED], threshold: u8) -> u8 {
    let mut m = 0u8;
    for (i, &l) in levels.iter().enumerate() {
        if l >= threshold {
            m |= 1 << i;
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use bebop_vp::clamp_stride;

    #[test]
    fn clamp_matches_known_truncations() {
        // The lane add sees strides clamped the way BlockDVtage clamps them.
        let strides = [127i64, 128, -128, -129, 255, -1, i64::MAX, i64::MIN];
        let c8 = add_strides(&[0; MAX_NPRED], &strides.map(|s| clamp_stride(s, 8)));
        assert_eq!(
            c8,
            [127i64, -128, -128, 127, -1, -1, -1, 0].map(|s| s as u64)
        );
        let c64 = add_strides(&[0; MAX_NPRED], &strides.map(|s| clamp_stride(s, 64)));
        assert_eq!(c64, strides.map(|s| s as u64));
    }

    #[test]
    fn confident_mask_handles_out_of_range_levels() {
        let mut levels = [0u8; MAX_NPRED];
        levels[2] = 200;
        levels[5] = 7;
        assert_eq!(confident_mask(&levels, 7), (1 << 2) | (1 << 5));
    }

    #[test]
    fn wrapping_behaviour_at_extremes() {
        let lasts = [u64::MAX; MAX_NPRED];
        let strides = [1i64; MAX_NPRED];
        assert_eq!(add_strides(&lasts, &strides), [0u64; MAX_NPRED]);
        let zeros = [0u64; MAX_NPRED];
        assert_eq!(sub_lanes(&zeros, &lasts), [1i64; MAX_NPRED]);
    }
}
