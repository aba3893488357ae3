//! Loop kernels: the workloads the paper's introduction motivates — tight
//! floating-point loops with strided values — compared against a branchy,
//! pointer-chasing integer workload, across every predictor class.
//!
//! ```text
//! cargo run --release --example loop_kernels
//! ```

use bebop::{run_source, PredictorKind, UopSource};
use bebop_trace::{BranchProfile, InstMix, MemoryProfile, ValueProfile, WorkloadSpec};
use bebop_uarch::PipelineConfig;

fn kernels() -> Vec<WorkloadSpec> {
    // A streaming, strided FP kernel (think swim/applu inner loops).
    let mut stream = WorkloadSpec::new("fp_stream_kernel", 101);
    stream.is_fp = true;
    stream.parallel_chains = 2;
    stream.mix = InstMix::fp_default();
    stream.values = ValueProfile::all_strided();
    stream.branches = BranchProfile::predictable();
    stream.memory = MemoryProfile::streaming();

    // A branchy integer kernel with an irregular working set (think mcf/omnetpp).
    let mut chase = WorkloadSpec::new("int_pointer_chase", 202);
    chase.parallel_chains = 2;
    chase.values = ValueProfile::all_random();
    chase.branches = BranchProfile::branchy();
    chase.memory = MemoryProfile::irregular();

    // A mixed kernel with control-flow-correlated values, where VTAGE-style
    // components matter.
    let mut mixed = WorkloadSpec::new("mixed_ctx_kernel", 303);
    mixed.values = ValueProfile::mixed();
    vec![stream, chase, mixed]
}

fn main() {
    let uops = 120_000;
    let baseline_pipe = PipelineConfig::baseline_6_60();
    let vp_pipe = PipelineConfig::baseline_vp_6_60();
    let predictors = [
        PredictorKind::LastValue,
        PredictorKind::TwoDeltaStride,
        PredictorKind::Vtage,
        PredictorKind::DVtage,
        PredictorKind::Perfect,
    ];

    for spec in kernels() {
        let base = run_source(
            UopSource::Live(&spec),
            &baseline_pipe,
            &PredictorKind::None,
            uops,
        );
        println!("\n{}  (baseline IPC {:.3})", spec.name, base.inst_ipc());
        for kind in &predictors {
            let stats = run_source(UopSource::Live(&spec), &vp_pipe, kind, uops);
            println!(
                "  {:<16} speedup {:.3}  coverage {:>5.1}%  accuracy {:>6.2}%",
                kind.label(),
                stats.speedup_over(&base),
                stats.vp.coverage() * 100.0,
                stats.vp.accuracy() * 100.0
            );
        }
    }
}
