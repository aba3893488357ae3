//! Quickstart: simulate one benchmark on the baseline superscalar and on the
//! EOLE + BeBoP D-VTAGE pipeline, and print the headline comparison.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use bebop::{configs, run_source, PredictorKind, UopSource};
use bebop_trace::spec_benchmark;
use bebop_uarch::PipelineConfig;

fn main() {
    let spec = spec_benchmark("171.swim");
    let uops = 200_000;

    println!("workload: {} ({uops} µ-ops)", spec.name);

    let baseline = run_source(
        UopSource::Live(&spec),
        &PipelineConfig::baseline_6_60(),
        &PredictorKind::None,
        uops,
    );
    println!(
        "Baseline_6_60          : {:>8} cycles, IPC {:.3}",
        baseline.cycles,
        baseline.inst_ipc()
    );

    let medium = configs::medium();
    println!(
        "BeBoP D-VTAGE (Medium) : {:.2} KB of predictor storage",
        medium.storage_kb()
    );
    let bebop = run_source(
        UopSource::Live(&spec),
        &PipelineConfig::eole_4_60(),
        &PredictorKind::BlockDVtage(medium),
        uops,
    );
    println!(
        "EOLE_4_60 + BeBoP      : {:>8} cycles, IPC {:.3}",
        bebop.cycles,
        bebop.inst_ipc()
    );
    println!(
        "speedup {:.3}, VP coverage {:.1}%, VP accuracy {:.2}%, {} value-misprediction squashes",
        bebop.speedup_over(&baseline),
        bebop.vp.coverage() * 100.0,
        bebop.vp.accuracy() * 100.0,
        bebop.vp_flushes
    );
}
