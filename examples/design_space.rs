//! Design-space exploration: sweep the BeBoP D-VTAGE geometry (predictions per
//! entry, speculative window size, stride width) on a single workload and print the
//! storage/performance trade-off, i.e. a miniature of Figures 6 and 7 plus
//! Table III.
//!
//! ```text
//! cargo run --release --example design_space
//! ```

use bebop::{configs, run_source, BlockDVtageConfig, PredictorKind, SpecWindowSize, UopSource};
use bebop_trace::spec_benchmark;
use bebop_uarch::PipelineConfig;

fn speedup(cfg: BlockDVtageConfig, uops: u64) -> (f64, f64) {
    let spec = spec_benchmark("173.applu");
    let pipe = PipelineConfig::eole_4_60();
    let base = run_source(
        UopSource::Live(&spec),
        &PipelineConfig::baseline_6_60(),
        &PredictorKind::None,
        uops,
    );
    let kb = cfg.storage_kb();
    let stats = run_source(
        UopSource::Live(&spec),
        &pipe,
        &PredictorKind::BlockDVtage(cfg),
        uops,
    );
    (stats.speedup_over(&base), kb)
}

fn main() {
    let uops = 120_000;
    println!(
        "BeBoP D-VTAGE design space on 173.applu ({uops} µ-ops), speedup over Baseline_6_60\n"
    );

    println!("Predictions per entry (Npred):");
    for npred in [4usize, 6, 8] {
        let cfg = BlockDVtageConfig {
            npred,
            ..configs::medium()
        };
        let (s, kb) = speedup(cfg, uops);
        println!("  Npred={npred}: speedup {s:.3} at {kb:.1} KB");
    }

    println!("\nSpeculative window size (DnRDnR):");
    for (label, size) in [
        ("none", SpecWindowSize::Disabled),
        ("16", SpecWindowSize::Entries(16)),
        ("32", SpecWindowSize::Entries(32)),
        ("56", SpecWindowSize::Entries(56)),
        ("inf", SpecWindowSize::Unbounded),
    ] {
        let cfg = BlockDVtageConfig {
            spec_window: size,
            ..configs::medium()
        };
        let (s, _) = speedup(cfg, uops);
        println!("  window {label:>4}: speedup {s:.3}");
    }

    println!("\nPartial stride width:");
    for bits in [8u32, 16, 32, 64] {
        let cfg = BlockDVtageConfig {
            stride_bits: bits,
            ..configs::medium()
        };
        let (s, kb) = speedup(cfg, uops);
        println!("  {bits:>2}-bit strides: speedup {s:.3} at {kb:.1} KB");
    }

    println!("\nTable III configurations:");
    for (name, cfg) in configs::table3_configs() {
        let (s, kb) = speedup(cfg, uops);
        println!("  {name:<9} speedup {s:.3} at {kb:.2} KB");
    }
}
