//! Named predictor configurations from the paper (Table III and the sensitivity
//! sweeps of Section VI-B).

use crate::block_dvtage::BlockDVtageConfig;
use crate::recovery::RecoveryPolicy;
use crate::spec_window::SpecWindowSize;
use bebop_uarch::SharingPolicy;

/// The "optimistic" configuration used as the working point of Section VI-B:
/// 6 predictions per entry, a 2K-entry base component and six 256-entry tagged
/// components, 64-bit strides, an infinite speculative window and the Ideal
/// recovery policy.
pub fn optimistic_6p() -> BlockDVtageConfig {
    BlockDVtageConfig {
        npred: 6,
        base_entries: 2048,
        tagged_entries: 256,
        stride_bits: 64,
        spec_window: SpecWindowSize::Unbounded,
        recovery: RecoveryPolicy::Ideal,
        ..BlockDVtageConfig::default()
    }
}

/// Table III `Small_4p`: 256 base entries, 4 predictions per entry, six 128-entry
/// tagged components, 32-entry speculative window, 8-bit strides (≈ 17.26 KB).
pub fn small_4p() -> BlockDVtageConfig {
    BlockDVtageConfig {
        npred: 4,
        base_entries: 256,
        tagged_entries: 128,
        stride_bits: 8,
        spec_window: SpecWindowSize::Entries(32),
        recovery: RecoveryPolicy::DnRDnR,
        ..BlockDVtageConfig::default()
    }
}

/// Table III `Small_6p`: 128 base entries, 6 predictions per entry, six 128-entry
/// tagged components, 32-entry speculative window, 8-bit strides (≈ 17.18 KB).
pub fn small_6p() -> BlockDVtageConfig {
    BlockDVtageConfig {
        npred: 6,
        base_entries: 128,
        tagged_entries: 128,
        stride_bits: 8,
        spec_window: SpecWindowSize::Entries(32),
        recovery: RecoveryPolicy::DnRDnR,
        ..BlockDVtageConfig::default()
    }
}

/// Table III `Medium`: 256 base entries, 6 predictions per entry, six 256-entry
/// tagged components, 32-entry speculative window, 8-bit strides (≈ 32.76 KB) —
/// the configuration behind the headline result.
pub fn medium() -> BlockDVtageConfig {
    BlockDVtageConfig {
        npred: 6,
        base_entries: 256,
        tagged_entries: 256,
        stride_bits: 8,
        spec_window: SpecWindowSize::Entries(32),
        recovery: RecoveryPolicy::DnRDnR,
        ..BlockDVtageConfig::default()
    }
}

/// Table III `Large`: 512 base entries, 6 predictions per entry, six 256-entry
/// tagged components, 56-entry speculative window, 16-bit strides (≈ 61.65 KB).
pub fn large() -> BlockDVtageConfig {
    BlockDVtageConfig {
        npred: 6,
        base_entries: 512,
        tagged_entries: 256,
        stride_bits: 16,
        spec_window: SpecWindowSize::Entries(56),
        recovery: RecoveryPolicy::DnRDnR,
        ..BlockDVtageConfig::default()
    }
}

/// Number of shards the multi-programmed (mix) experiments split the Medium
/// configuration's tables into: enough that a pair of contexts can own four
/// shards each under the partitioned policy, small enough that every Table III
/// geometry (128-entry tagged components included) divides evenly.
pub const MIX_SHARDS: usize = 8;

/// The Table III `Medium` configuration prepared for a multi-programmed run:
/// [`MIX_SHARDS`]-way sharded storage divided between `contexts` contexts
/// under the given sharing policy. With `contexts == 1` (or ASID-0-only
/// traces) every policy behaves bit-identically to [`medium`].
pub fn medium_mix(sharing: SharingPolicy, contexts: usize) -> BlockDVtageConfig {
    BlockDVtageConfig {
        shards: MIX_SHARDS,
        sharing,
        contexts,
        ..medium()
    }
}

/// All four Table III configurations with their names, in table order.
pub fn table3_configs() -> Vec<(&'static str, BlockDVtageConfig)> {
    vec![
        ("Small_4p", small_4p()),
        ("Small_6p", small_6p()),
        ("Medium", medium()),
        ("Large", large()),
    ]
}

/// The Figure 6a sweep: predictions per entry × table geometry, at roughly constant
/// storage. Returns `(label, config)` pairs.
pub fn fig6a_sweep() -> Vec<(String, BlockDVtageConfig)> {
    let mut out = Vec::new();
    for &(base, tagged) in &[(1024usize, 128usize), (2048, 256)] {
        for &npred in &[4usize, 6, 8] {
            let cfg = BlockDVtageConfig {
                npred,
                base_entries: base,
                tagged_entries: tagged,
                recovery: RecoveryPolicy::Ideal,
                spec_window: SpecWindowSize::Unbounded,
                ..BlockDVtageConfig::default()
            };
            out.push((format!("{npred}p {}K + 6x{tagged}", base / 1024), cfg));
        }
    }
    out
}

/// The Figure 6b sweep: base-component entries × tagged-component entries with six
/// predictions per entry.
pub fn fig6b_sweep() -> Vec<(String, BlockDVtageConfig)> {
    let mut out = Vec::new();
    for &tagged in &[128usize, 256] {
        for &base in &[512usize, 1024, 2048] {
            let cfg = BlockDVtageConfig {
                npred: 6,
                base_entries: base,
                tagged_entries: tagged,
                recovery: RecoveryPolicy::Ideal,
                spec_window: SpecWindowSize::Unbounded,
                ..BlockDVtageConfig::default()
            };
            let base_label = if base >= 1024 {
                format!("{}K", base / 1024)
            } else {
                format!("{base}")
            };
            out.push((format!("{base_label} + 6x{tagged}"), cfg));
        }
    }
    out
}

/// The partial-stride sweep of Section VI-B(a): 64-, 32-, 16- and 8-bit strides on
/// the optimistic configuration.
pub fn stride_sweep() -> Vec<(String, BlockDVtageConfig)> {
    [64u32, 32, 16, 8]
        .iter()
        .map(|&bits| {
            let cfg = BlockDVtageConfig {
                stride_bits: bits,
                ..optimistic_6p()
            };
            (format!("{bits}-bit strides"), cfg)
        })
        .collect()
}

/// The Figure 7a sweep: recovery policies with an infinite speculative window.
pub fn fig7a_sweep() -> Vec<(String, BlockDVtageConfig)> {
    RecoveryPolicy::ALL
        .iter()
        .map(|&policy| {
            let cfg = BlockDVtageConfig {
                recovery: policy,
                spec_window: SpecWindowSize::Unbounded,
                ..optimistic_6p()
            };
            (policy.to_string(), cfg)
        })
        .collect()
}

/// The Figure 7b sweep: speculative window sizes under the DnRDnR policy.
pub fn fig7b_sweep() -> Vec<(String, BlockDVtageConfig)> {
    let sizes = [
        ("inf".to_string(), SpecWindowSize::Unbounded),
        ("64".to_string(), SpecWindowSize::Entries(64)),
        ("56".to_string(), SpecWindowSize::Entries(56)),
        ("48".to_string(), SpecWindowSize::Entries(48)),
        ("32".to_string(), SpecWindowSize::Entries(32)),
        ("16".to_string(), SpecWindowSize::Entries(16)),
        ("None".to_string(), SpecWindowSize::Disabled),
    ];
    sizes
        .into_iter()
        .map(|(label, size)| {
            let cfg = BlockDVtageConfig {
                spec_window: size,
                recovery: RecoveryPolicy::DnRDnR,
                ..optimistic_6p()
            };
            (label, cfg)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bebop_uarch::ValuePredictor;
    use bebop_vp::{
        DVtage, LastValuePredictor, StridePredictor, TwoDeltaStridePredictor, Vtage,
        VtageStrideHybrid,
    };

    #[test]
    fn table3_storage_budgets_match_the_paper() {
        // Paper: Small_4p 17.26 KB, Small_6p 17.18 KB, Medium 32.76 KB, Large 61.65 KB.
        let expect = [
            ("Small_4p", 17.26),
            ("Small_6p", 17.18),
            ("Medium", 32.76),
            ("Large", 61.65),
        ];
        for ((name, cfg), (ename, ekb)) in table3_configs().iter().zip(expect.iter()) {
            assert_eq!(name, ename);
            let kb = cfg.storage_kb();
            let ratio = kb / ekb;
            assert!(
                (0.8..1.2).contains(&ratio),
                "{name}: modelled {kb:.2} KB vs paper {ekb} KB"
            );
        }
    }

    #[test]
    fn medium_is_the_headline_32kb_budget() {
        let kb = medium().storage_kb();
        assert!(
            (28.0..36.0).contains(&kb),
            "Medium should be ~32 KB, got {kb:.2}"
        );
    }

    #[test]
    fn sweeps_have_expected_cardinalities() {
        assert_eq!(fig6a_sweep().len(), 6);
        assert_eq!(fig6b_sweep().len(), 6);
        assert_eq!(stride_sweep().len(), 4);
        assert_eq!(fig7a_sweep().len(), 4);
        assert_eq!(fig7b_sweep().len(), 7);
    }

    #[test]
    fn stride_sweep_storage_is_monotone() {
        let sizes: Vec<u64> = stride_sweep()
            .iter()
            .map(|(_, c)| c.storage_bits())
            .collect();
        for w in sizes.windows(2) {
            assert!(w[1] < w[0], "shorter strides must shrink storage");
        }
    }

    #[test]
    fn small_configs_are_really_small() {
        assert!(small_4p().storage_kb() < 20.0);
        assert!(small_6p().storage_kb() < 20.0);
        assert!(large().storage_kb() > medium().storage_kb());
    }

    #[test]
    fn predictor_storage_is_pinned_exactly() {
        // Exact bit counts, so a change to tag widths, history geometry or the
        // per-field accounting shows up here rather than inside a tolerance.
        let table3 = [
            ("Small_4p", 136_928), // paper: 17.26 KB
            ("Small_6p", 137_056), // paper: 17.18 KB
            ("Medium", 261_344),   // paper: 32.76 KB
            ("Large", 491_848),    // paper: 61.65 KB
        ];
        let sweeps = [
            (
                fig6a_sweep(),
                vec![
                    776_192, 1_155_584, 1_534_976, 1_552_384, 2_311_168, 3_069_952,
                ],
            ),
            (
                fig6b_sweep(),
                vec![
                    738_304, 1_155_584, 1_990_144, 1_059_328, 1_476_608, 2_311_168,
                ],
            ),
            (
                stride_sweep(),
                vec![2_311_168, 1_623_040, 1_278_976, 1_106_944],
            ),
        ];
        for ((name, cfg), (ename, bits)) in table3_configs().iter().zip(table3) {
            assert_eq!((*name, cfg.storage_bits()), (ename, bits));
        }
        for (sweep, bits) in sweeps {
            let got: Vec<u64> = sweep.iter().map(|(_, c)| c.storage_bits()).collect();
            assert_eq!(got, bits);
        }
        // The six instruction-based predictors of Figure 5a.
        let fig5a: [(&dyn ValuePredictor, u64); 6] = [
            (&LastValuePredictor::default_config(), 622_592),
            (&StridePredictor::default_config(), 1_146_880),
            (&TwoDeltaStridePredictor::default_config(), 1_671_168),
            (&Vtage::default_config(), 1_064_960),
            (&VtageStrideHybrid::default_config(), 2_736_128),
            (&DVtage::default_config(), 1_638_400),
        ];
        for (p, bits) in fig5a {
            assert_eq!(p.storage_bits(), bits, "{}", p.name());
        }
    }
}
