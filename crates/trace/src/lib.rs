//! Synthetic workload and trace generation for the BeBoP reproduction.
//!
//! The BeBoP paper evaluates on 36 SPEC CPU2000/CPU2006 benchmarks traced through
//! Simpoint regions (Table II). Those binaries and reference inputs are not
//! redistributable, so this crate provides the closest synthetic equivalent: a set of
//! 36 deterministic workload generators, one per benchmark, each parameterised by
//! the characteristics that actually govern value-prediction behaviour:
//!
//! * the *value-pattern mix* of result-producing µ-ops (constant, strided,
//!   control-flow-correlated, control-flow-correlated strides, unpredictable),
//! * the *dependency-chain structure* (how serial the code is — long chains make
//!   correct predictions valuable),
//! * the *branch behaviour* (predictable loop branches vs. data-dependent branches
//!   — pipeline flushes bound the achievable gain),
//! * the *memory behaviour* (working-set size and access patterns — load misses
//!   are prime value-prediction targets),
//! * the *instruction mix* (INT vs FP, load/store density, multiplies/divides).
//!
//! A [`WorkloadSpec`] describes the workload; [`TraceGenerator`] lays out a static
//! [`bebop_isa::Program`] and walks it, yielding a deterministic stream of
//! [`bebop_isa::DynUop`] records that the `bebop-uarch` pipeline simulates.
//!
//! # Example
//!
//! ```
//! use bebop_trace::{TraceGenerator, WorkloadSpec};
//!
//! // A small strided floating-point loop kernel.
//! let spec = WorkloadSpec::named_demo("demo_stream");
//! let trace: Vec<_> = TraceGenerator::new(&spec).take(1000).collect();
//! assert_eq!(trace.len(), 1000);
//! // Deterministic: regenerating yields the identical stream.
//! let again: Vec<_> = TraceGenerator::new(&spec).take(1000).collect();
//! assert_eq!(trace, again);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bbv;
mod buffer;
mod fault;
mod generator;
mod memory;
mod mix;
mod spec;
mod store;
mod value;
mod workload;

pub use bbv::{bbv_distance_sq, profile_slices, SliceBbv, BBV_DIMS};
pub use buffer::{RangeError, TraceBuffer, TraceCursor};
pub use fault::FaultPlan;
pub use generator::TraceGenerator;
pub use memory::{AddressPattern, AddressState};
pub use mix::{MixGenerator, MixSpec, MAX_MIX_CONTEXTS};
pub use spec::{
    all_spec_benchmarks, benchmark_class, spec_benchmark, BenchClass, SPEC_BENCHMARK_NAMES,
};
pub use store::{
    decode_trace, encode_trace, encode_trace_key, fnv1a, fnv1a_wide, retry_io, spec_fingerprint,
    write_atomic, DecodedTrace, StoreError, SweepStats, TraceKey, TraceStore, FNV_OFFSET_BASIS,
    IO_BACKOFF_MS, IO_RETRIES, TRACE_FORMAT_VERSION, TRACE_MAGIC, TRACE_STREAM_VERSION,
};
pub use value::{ValuePattern, ValueProfile, ValueState};
pub use workload::{
    BranchProfile, InstMix, LoopProfile, MemoryProfile, WorkloadSpec, WrongPathProfile,
};
