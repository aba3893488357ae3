//! Cycle-level superscalar out-of-order pipeline simulator for the BeBoP
//! reproduction.
//!
//! The BeBoP paper evaluates value prediction on a gem5 model of an aggressive
//! x86_64 superscalar (Table I). gem5 is not reusable here, so this crate provides
//! a from-scratch, trace-driven timing model of the same machine:
//!
//! * [`PipelineConfig`] encodes Table I (widths, IQ/ROB/LQ/SQ sizes, functional
//!   units and latencies, caches and DRAM, TAGE branch predictor, EOLE) with the
//!   named presets `Baseline_6_60`, `Baseline_VP_6_60` and `EOLE_4_60`.
//! * [`Pipeline`] runs a µ-op trace (from `bebop-trace`) through the model and
//!   produces [`SimStats`] (cycles, IPC, branch/value-misprediction counts, cache
//!   behaviour, EOLE activity).
//! * [`ValuePredictor`] is the interface the pipeline uses to talk to any value
//!   predictor — the instruction-based predictors live in `bebop-vp` and the
//!   block-based BeBoP infrastructure in the `bebop` core crate.
//!
//! # Example
//!
//! ```
//! use bebop_trace::{TraceGenerator, WorkloadSpec};
//! use bebop_uarch::{NoValuePredictor, Pipeline, PipelineConfig};
//!
//! let spec = WorkloadSpec::named_demo("demo");
//! let mut predictor = NoValuePredictor;
//! let stats = Pipeline::new(PipelineConfig::baseline_6_60())
//!     .run(TraceGenerator::new(&spec), &mut predictor, 10_000);
//! assert!(stats.uop_ipc() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod branch;
mod cache;
mod config;
mod pipeline;
mod prefetch;
mod resources;
#[cfg(test)]
#[path = "../../../tests/support/slot_pool.rs"]
mod slot_pool;
mod stats;
mod vp_iface;

pub use branch::{BranchPredictorUnit, BranchStats, Btb, ReturnAddressStack, Tage, TageConfig};
pub use cache::{MemStats, MemoryHierarchy, SetAssocCache};
pub use config::{
    EoleConfig, FuConfig, MemConfig, MixConfig, PipelineConfig, SharingPolicy, WrongPathConfig,
};
pub use pipeline::Pipeline;
pub use prefetch::{PrefetchTargets, StridePrefetcher};
pub use resources::{
    Lane, LanePool, OccupancyRing, MAX_DENSE_SPAN, MAX_OVERFLOW_TRACKED, NUM_POOL_LANES,
};
pub use stats::{
    gmean, ContextStats, EoleStats, SimStats, VpStats, WrongPathStats, MAX_SIM_CONTEXTS,
};
pub use vp_iface::{
    restore_predictor, NoValuePredictor, PerfectValuePredictor, PredictCtx, SquashCause,
    SquashInfo, ValuePredictor,
};
