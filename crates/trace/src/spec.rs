//! The 36 synthetic benchmarks standing in for the SPEC CPU2000/2006 subset of
//! Table II of the paper.
//!
//! Each benchmark is a [`WorkloadSpec`] whose parameters are chosen from the
//! benchmark's published characteristics: the baseline IPC reported in Table II
//! (driving the dependency-chain / memory-behaviour parameters), whether it is an
//! integer or floating-point code, how branchy it is, and how much it gained from
//! value prediction in the paper's Figures 5 and 8 (driving the value-pattern mix).
//!
//! The goal is not to clone SPEC, which is impossible without the inputs, but to
//! give every experiment of the evaluation a workload population whose *ordering*
//! (which benchmarks gain a lot, which gain nothing) and *spread* match the paper.

use crate::value::ValueProfile;
use crate::workload::{BranchProfile, InstMix, LoopProfile, MemoryProfile, WorkloadSpec};

/// Coarse classification of how much a benchmark gained from value prediction in
/// the paper (Figures 5a and 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchClass {
    /// Large speedups (strided FP loop codes such as swim, applu, wupwise, bzip2).
    HighVpGain,
    /// Moderate speedups.
    ModerateVpGain,
    /// Little to no speedup (branchy / memory-bound integer codes such as mcf, crafty).
    LowVpGain,
}

/// The names of all 36 benchmarks, in Table II order (CPU2000 first, then CPU2006).
pub const SPEC_BENCHMARK_NAMES: [&str; 36] = [
    "164.gzip",
    "168.wupwise",
    "171.swim",
    "172.mgrid",
    "173.applu",
    "175.vpr",
    "177.mesa",
    "179.art",
    "183.equake",
    "186.crafty",
    "188.ammp",
    "197.parser",
    "255.vortex",
    "300.twolf",
    "400.perlbench",
    "401.bzip2",
    "403.gcc",
    "416.gamess",
    "429.mcf",
    "433.milc",
    "435.gromacs",
    "437.leslie3d",
    "444.namd",
    "445.gobmk",
    "450.soplex",
    "453.povray",
    "456.hmmer",
    "458.sjeng",
    "459.GemsFDTD",
    "462.libquantum",
    "464.h264ref",
    "470.lbm",
    "471.omnetpp",
    "473.astar",
    "482.sphinx3",
    "483.xalancbmk",
];

/// One row of the benchmark parameter table.
struct BenchRow {
    name: &'static str,
    is_fp: bool,
    /// Baseline IPC reported in Table II (used to pick ILP/memory parameters).
    table2_ipc: f64,
    class: BenchClass,
    /// How unpredictable the control flow is (0 = loop-dominated, 1 = very branchy).
    branchiness: f64,
}

/// The parameter table. `class` encodes the qualitative Figure 5a/8 outcome,
/// `branchiness` the control-flow behaviour of the original code.
const BENCH_TABLE: [BenchRow; 36] = [
    BenchRow {
        name: "164.gzip",
        is_fp: false,
        table2_ipc: 0.845,
        class: BenchClass::ModerateVpGain,
        branchiness: 0.5,
    },
    BenchRow {
        name: "168.wupwise",
        is_fp: true,
        table2_ipc: 1.303,
        class: BenchClass::HighVpGain,
        branchiness: 0.1,
    },
    BenchRow {
        name: "171.swim",
        is_fp: true,
        table2_ipc: 1.745,
        class: BenchClass::HighVpGain,
        branchiness: 0.05,
    },
    BenchRow {
        name: "172.mgrid",
        is_fp: true,
        table2_ipc: 2.361,
        class: BenchClass::HighVpGain,
        branchiness: 0.05,
    },
    BenchRow {
        name: "173.applu",
        is_fp: true,
        table2_ipc: 1.481,
        class: BenchClass::HighVpGain,
        branchiness: 0.08,
    },
    BenchRow {
        name: "175.vpr",
        is_fp: false,
        table2_ipc: 0.668,
        class: BenchClass::LowVpGain,
        branchiness: 0.6,
    },
    BenchRow {
        name: "177.mesa",
        is_fp: true,
        table2_ipc: 1.021,
        class: BenchClass::ModerateVpGain,
        branchiness: 0.3,
    },
    BenchRow {
        name: "179.art",
        is_fp: true,
        table2_ipc: 0.441,
        class: BenchClass::ModerateVpGain,
        branchiness: 0.2,
    },
    BenchRow {
        name: "183.equake",
        is_fp: true,
        table2_ipc: 0.655,
        class: BenchClass::ModerateVpGain,
        branchiness: 0.25,
    },
    BenchRow {
        name: "186.crafty",
        is_fp: false,
        table2_ipc: 1.562,
        class: BenchClass::LowVpGain,
        branchiness: 0.75,
    },
    BenchRow {
        name: "188.ammp",
        is_fp: true,
        table2_ipc: 1.258,
        class: BenchClass::ModerateVpGain,
        branchiness: 0.2,
    },
    BenchRow {
        name: "197.parser",
        is_fp: false,
        table2_ipc: 0.486,
        class: BenchClass::LowVpGain,
        branchiness: 0.65,
    },
    BenchRow {
        name: "255.vortex",
        is_fp: false,
        table2_ipc: 1.526,
        class: BenchClass::ModerateVpGain,
        branchiness: 0.45,
    },
    BenchRow {
        name: "300.twolf",
        is_fp: false,
        table2_ipc: 0.282,
        class: BenchClass::LowVpGain,
        branchiness: 0.7,
    },
    BenchRow {
        name: "400.perlbench",
        is_fp: false,
        table2_ipc: 1.400,
        class: BenchClass::ModerateVpGain,
        branchiness: 0.55,
    },
    BenchRow {
        name: "401.bzip2",
        is_fp: false,
        table2_ipc: 0.702,
        class: BenchClass::HighVpGain,
        branchiness: 0.4,
    },
    BenchRow {
        name: "403.gcc",
        is_fp: false,
        table2_ipc: 1.002,
        class: BenchClass::ModerateVpGain,
        branchiness: 0.6,
    },
    BenchRow {
        name: "416.gamess",
        is_fp: true,
        table2_ipc: 1.694,
        class: BenchClass::HighVpGain,
        branchiness: 0.15,
    },
    BenchRow {
        name: "429.mcf",
        is_fp: false,
        table2_ipc: 0.113,
        class: BenchClass::LowVpGain,
        branchiness: 0.6,
    },
    BenchRow {
        name: "433.milc",
        is_fp: true,
        table2_ipc: 0.501,
        class: BenchClass::ModerateVpGain,
        branchiness: 0.1,
    },
    BenchRow {
        name: "435.gromacs",
        is_fp: true,
        table2_ipc: 0.753,
        class: BenchClass::ModerateVpGain,
        branchiness: 0.2,
    },
    BenchRow {
        name: "437.leslie3d",
        is_fp: true,
        table2_ipc: 2.151,
        class: BenchClass::HighVpGain,
        branchiness: 0.08,
    },
    BenchRow {
        name: "444.namd",
        is_fp: true,
        table2_ipc: 1.781,
        class: BenchClass::HighVpGain,
        branchiness: 0.12,
    },
    BenchRow {
        name: "445.gobmk",
        is_fp: false,
        table2_ipc: 0.733,
        class: BenchClass::LowVpGain,
        branchiness: 0.8,
    },
    BenchRow {
        name: "450.soplex",
        is_fp: true,
        table2_ipc: 0.271,
        class: BenchClass::LowVpGain,
        branchiness: 0.45,
    },
    BenchRow {
        name: "453.povray",
        is_fp: true,
        table2_ipc: 1.465,
        class: BenchClass::LowVpGain,
        branchiness: 0.55,
    },
    BenchRow {
        name: "456.hmmer",
        is_fp: false,
        table2_ipc: 2.037,
        class: BenchClass::ModerateVpGain,
        branchiness: 0.2,
    },
    BenchRow {
        name: "458.sjeng",
        is_fp: false,
        table2_ipc: 1.182,
        class: BenchClass::LowVpGain,
        branchiness: 0.75,
    },
    BenchRow {
        name: "459.GemsFDTD",
        is_fp: true,
        table2_ipc: 1.146,
        class: BenchClass::HighVpGain,
        branchiness: 0.1,
    },
    BenchRow {
        name: "462.libquantum",
        is_fp: false,
        table2_ipc: 0.459,
        class: BenchClass::ModerateVpGain,
        branchiness: 0.15,
    },
    BenchRow {
        name: "464.h264ref",
        is_fp: false,
        table2_ipc: 1.008,
        class: BenchClass::ModerateVpGain,
        branchiness: 0.4,
    },
    BenchRow {
        name: "470.lbm",
        is_fp: true,
        table2_ipc: 0.380,
        class: BenchClass::ModerateVpGain,
        branchiness: 0.05,
    },
    BenchRow {
        name: "471.omnetpp",
        is_fp: false,
        table2_ipc: 0.304,
        class: BenchClass::LowVpGain,
        branchiness: 0.6,
    },
    BenchRow {
        name: "473.astar",
        is_fp: false,
        table2_ipc: 1.165,
        class: BenchClass::LowVpGain,
        branchiness: 0.65,
    },
    BenchRow {
        name: "482.sphinx3",
        is_fp: true,
        table2_ipc: 0.803,
        class: BenchClass::ModerateVpGain,
        branchiness: 0.3,
    },
    BenchRow {
        name: "483.xalancbmk",
        is_fp: false,
        table2_ipc: 1.835,
        class: BenchClass::ModerateVpGain,
        branchiness: 0.5,
    },
];

fn value_profile_for(class: BenchClass, is_fp: bool) -> ValueProfile {
    match class {
        BenchClass::HighVpGain => ValueProfile {
            constant: 0.12,
            strided: 0.50,
            periodic_strided: 0.10,
            branch_correlated: 0.05,
            branch_correlated_stride: 0.08,
            random: 0.15,
            stride_magnitude: if is_fp { 8 } else { 24 },
        },
        BenchClass::ModerateVpGain => ValueProfile {
            constant: 0.15,
            strided: 0.20,
            periodic_strided: 0.06,
            branch_correlated: 0.14,
            branch_correlated_stride: 0.05,
            random: 0.40,
            stride_magnitude: 32,
        },
        BenchClass::LowVpGain => ValueProfile {
            constant: 0.06,
            strided: 0.03,
            periodic_strided: 0.01,
            branch_correlated: 0.06,
            branch_correlated_stride: 0.01,
            random: 0.83,
            stride_magnitude: 64,
        },
    }
}

fn branch_profile_for(branchiness: f64) -> BranchProfile {
    // branchiness 0 -> almost perfectly predictable; 1 -> ~25% of data-dependent
    // branches are coin flips.
    BranchProfile {
        pattern_frac: (0.75 - 0.5 * branchiness).max(0.1),
        biased_frac: 0.25 + 0.25 * branchiness,
        random_frac: 0.25 * branchiness,
        taken_bias: 0.85 - 0.15 * branchiness,
    }
}

fn ilp_and_memory_for(ipc: f64, is_fp: bool) -> (usize, MemoryProfile, LoopProfile) {
    // Lower reported IPC -> fewer independent chains and a nastier memory behaviour.
    let (chains, memory) = if ipc < 0.35 {
        (
            2,
            MemoryProfile {
                working_set_bytes: 16 * 1024 * 1024,
                streaming_frac: 0.25,
                random_frac: 0.55,
                pointer_chase_frac: 0.2,
                stream_stride: 8,
            },
        )
    } else if ipc < 0.75 {
        (
            3,
            MemoryProfile {
                working_set_bytes: 2 * 1024 * 1024,
                streaming_frac: 0.5,
                random_frac: 0.4,
                pointer_chase_frac: 0.1,
                stream_stride: 8,
            },
        )
    } else if ipc < 1.3 {
        (
            4,
            MemoryProfile {
                working_set_bytes: 256 * 1024,
                streaming_frac: 0.65,
                random_frac: 0.32,
                pointer_chase_frac: 0.03,
                stream_stride: 8,
            },
        )
    } else if ipc < 1.8 {
        (
            5,
            if is_fp {
                MemoryProfile::streaming()
            } else {
                MemoryProfile::cache_friendly()
            },
        )
    } else {
        (7, MemoryProfile::cache_friendly())
    };
    let loops = if is_fp {
        LoopProfile {
            regions: 6,
            body_insts: 18,
            trip_count: 96,
            diamond_prob: 0.2,
        }
    } else {
        LoopProfile {
            regions: 10,
            body_insts: 14,
            trip_count: 24,
            diamond_prob: 0.7,
        }
    };
    (chains, memory, loops)
}

/// Builds the [`WorkloadSpec`] for one Table II benchmark.
///
/// # Panics
///
/// Panics if `name` is not one of [`SPEC_BENCHMARK_NAMES`].
pub fn spec_benchmark(name: &str) -> WorkloadSpec {
    let (idx, row) = BENCH_TABLE
        .iter()
        .enumerate()
        .find(|(_, r)| r.name == name)
        // INVARIANT: documented panic — the name set is a public constant.
        .unwrap_or_else(|| panic!("unknown benchmark {name}"));
    let seed = 0xC0FF_EE00 + idx as u64;
    let mut spec = WorkloadSpec::new(row.name, seed);
    spec.is_fp = row.is_fp;
    spec.values = value_profile_for(row.class, row.is_fp);
    spec.branches = branch_profile_for(row.branchiness);
    let (chains, memory, loops) = ilp_and_memory_for(row.table2_ipc, row.is_fp);
    spec.parallel_chains = chains;
    spec.memory = memory;
    spec.loops = loops;
    spec.mix = if row.is_fp {
        InstMix::fp_default()
    } else {
        InstMix::int_default()
    };
    spec
}

/// The class of one Table II benchmark (how much it gained from VP in the paper).
///
/// # Panics
///
/// Panics if `name` is not one of [`SPEC_BENCHMARK_NAMES`].
pub fn benchmark_class(name: &str) -> BenchClass {
    BENCH_TABLE
        .iter()
        .find(|r| r.name == name)
        // INVARIANT: documented panic — the name set is a public constant.
        .unwrap_or_else(|| panic!("unknown benchmark {name}"))
        .class
}

/// All 36 benchmark specifications, in Table II order.
pub fn all_spec_benchmarks() -> Vec<WorkloadSpec> {
    SPEC_BENCHMARK_NAMES
        .iter()
        .map(|n| spec_benchmark(n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceGenerator;

    #[test]
    fn table_matches_name_list() {
        assert_eq!(BENCH_TABLE.len(), SPEC_BENCHMARK_NAMES.len());
        for (row, name) in BENCH_TABLE.iter().zip(SPEC_BENCHMARK_NAMES.iter()) {
            assert_eq!(row.name, *name);
        }
    }

    #[test]
    fn int_fp_split_matches_table2() {
        let fp = BENCH_TABLE.iter().filter(|r| r.is_fp).count();
        let int = BENCH_TABLE.iter().filter(|r| !r.is_fp).count();
        assert_eq!(fp, 18, "Table II lists 18 FP benchmarks");
        assert_eq!(int, 18, "Table II lists 18 INT benchmarks");
    }

    #[test]
    fn every_benchmark_builds_and_generates() {
        for name in SPEC_BENCHMARK_NAMES {
            let spec = spec_benchmark(name);
            assert_eq!(spec.name, name);
            let n = TraceGenerator::new(&spec).take(500).count();
            assert_eq!(n, 500, "{name} failed to generate a trace");
        }
    }

    #[test]
    fn seeds_are_unique() {
        let mut seeds: Vec<u64> = all_spec_benchmarks().iter().map(|s| s.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 36);
    }

    #[test]
    fn high_gain_benchmarks_are_more_stride_predictable() {
        let swim = spec_benchmark("171.swim");
        let mcf = spec_benchmark("429.mcf");
        // The share of results no predictor class can learn.
        let random = |v: &ValueProfile| {
            let total = v.constant
                + v.strided
                + v.periodic_strided
                + v.branch_correlated
                + v.branch_correlated_stride
                + v.random;
            v.random / total
        };
        assert!(random(&swim.values) < random(&mcf.values));
        assert!(swim.values.strided > mcf.values.strided);
    }

    #[test]
    fn low_ipc_benchmarks_are_more_serial() {
        let mcf = spec_benchmark("429.mcf");
        let mgrid = spec_benchmark("172.mgrid");
        assert!(mcf.parallel_chains < mgrid.parallel_chains);
        assert!(mcf.memory.working_set_bytes > mgrid.memory.working_set_bytes);
    }

    #[test]
    #[should_panic]
    fn unknown_benchmark_panics() {
        let _ = spec_benchmark("999.nonexistent");
    }
}
