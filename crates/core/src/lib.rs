//! # BeBoP: block-based value prediction with D-VTAGE
//!
//! A from-scratch Rust reproduction of *"BeBoP: A Cost Effective Predictor
//! Infrastructure for Superscalar Value Prediction"* (Perais & Seznec, HPCA 2015).
//!
//! The paper makes value prediction implementable by attacking the predictor
//! infrastructure itself:
//!
//! 1. **BeBoP (block-based prediction)** — predictor entries are associated with
//!    16-byte instruction *fetch blocks*; each entry holds `Npred` prediction slots
//!    attributed to µ-ops after decode via byte-index tags, so one read per fetch
//!    block serves the whole superscalar front end ([`BlockDVtage`]).
//! 2. **D-VTAGE** — a tightly coupled hybrid of VTAGE and a stride predictor whose
//!    components store small partial strides, shrinking storage to branch-predictor
//!    budgets ([`BlockDVtageConfig`], [`configs`]).
//! 3. **A block-based speculative window** — a small, chronologically ordered,
//!    associatively read buffer providing the in-flight last values that a
//!    computational predictor needs ([`SpeculativeWindow`]), with checkpoint-style
//!    recovery policies ([`RecoveryPolicy`]) and a FIFO update queue that
//!    carries every prediction block to retirement. Both are program-order
//!    queues of one kind, [`bebop_isa::SeqQueue`].
//!
//! The supporting substrates live in sibling crates: `bebop-isa` (a synthetic
//! variable-length ISA), `bebop-trace` (36 SPEC-like synthetic workloads),
//! `bebop-uarch` (a cycle-level superscalar pipeline with TAGE and EOLE) and
//! `bebop-vp` (the instruction-based predictors of Figure 5a). The driver
//! layer glues them together: a [`PredictorKind`] and a [`UopSource`] run
//! through [`run_source`] (a whole run), [`run_slice`] (one phase-sampling
//! window) or [`run_source_resumable`] (a checkpointed run that stops
//! cleanly on SIGINT/SIGTERM), and `bebop-bench` regenerates every table and
//! figure of the paper's evaluation.
//!
//! # Quickstart
//!
//! ```
//! use bebop::{configs, run_source, PredictorKind, UopSource};
//! use bebop_trace::spec_benchmark;
//! use bebop_uarch::PipelineConfig;
//!
//! // Simulate 171.swim-like workload on the baseline and on EOLE + BeBoP D-VTAGE.
//! let spec = spec_benchmark("171.swim");
//! let swim = UopSource::Live(&spec);
//! let baseline = run_source(swim, &PipelineConfig::baseline_6_60(), &PredictorKind::None, 20_000);
//! let bebop = run_source(
//!     swim,
//!     &PipelineConfig::eole_4_60(),
//!     &PredictorKind::BlockDVtage(configs::medium()),
//!     20_000,
//! );
//! assert!(bebop.uop_ipc() > 0.0 && baseline.uop_ipc() > 0.0);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod block_dvtage;
mod checkpoint;
pub mod configs;
mod driver;
pub mod par;
mod recovery;
mod resume;
mod shutdown;
pub mod slot_simd;
mod spec_window;

pub use bebop_vp::MAX_TAGGED;
pub use block_dvtage::{BlockDVtage, BlockDVtageConfig};
pub use checkpoint::{CheckpointError, SimCheckpoint, CHECKPOINT_FORMAT_VERSION, CHECKPOINT_MAGIC};
pub use driver::{
    panic_reason, run_slice, run_source, AnyPredictor, BenchResult, PredictorKind, SpeedupSummary,
    UopSource, UopStream,
};
pub use recovery::RecoveryPolicy;
pub use resume::{
    checkpoint_slots, run_fingerprint, run_source_resumable, ResumableRun, ResumeOptions,
    RunOutcome, CHUNK_UOPS,
};
pub use shutdown::{install_shutdown_handler, set_shutdown_requested, shutdown_requested};
pub use spec_window::{
    SlotPredictions, SpecWindowEntry, SpecWindowSize, SpeculativeWindow, MAX_NPRED,
};

// Re-export the pieces downstream users almost always need alongside this crate.
pub use bebop_trace::{
    all_spec_benchmarks, spec_benchmark, spec_fingerprint, MixSpec, RangeError, TraceBuffer,
    TraceStore, WorkloadSpec, SPEC_BENCHMARK_NAMES, TRACE_FORMAT_VERSION,
};
pub use bebop_uarch::{MixConfig, PipelineConfig, SharingPolicy, SimStats};
pub use bebop_vp::{ShardCounters, ShardedTable};
